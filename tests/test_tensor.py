import os
import subprocess
import sys

import numpy as np
import pytest
from helpers import (central_diff, col2im_padded, conv2d_direct, conv2d_grad_input_einsum,
                     conv2d_grad_weight_einsum, im2col_padded, rel_err)

from prunelab import tensor
from prunelab.errors import ShapeError


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 1, 5, 5))
        w = np.ones((1, 1, 1, 1))
        np.testing.assert_array_equal(tensor.conv2d(x, w), x)

    def test_all_ones_3x3(self):
        x = np.ones((1, 1, 4, 4))
        w = np.ones((1, 1, 3, 3))
        out = tensor.conv2d(x, w)
        assert out.shape == (1, 1, 2, 2)
        np.testing.assert_array_equal(out, np.full((1, 1, 2, 2), 9.0))

    def test_zero_weight(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 6, 6))
        w = np.zeros((4, 3, 3, 3))
        out = tensor.conv2d(x, w, stride=1, padding=1)
        assert out.shape == (2, 4, 6, 6)
        assert not out.any()

    def test_non_integral_output_extent(self):
        with pytest.raises(ShapeError, match="not a positive integer"):
            tensor.conv2d(np.ones((1, 1, 5, 5)), np.ones((1, 1, 2, 2)), stride=2)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError, match="C=2.*C=3"):
            tensor.conv2d(np.ones((1, 2, 5, 5)), np.ones((1, 3, 3, 3)))

    def test_direct_route_agrees_with_im2col(self):
        """Agreement relative to the output scale (elementwise relative error is
        meaningless under float32 cancellation at near-zero outputs)."""
        rng = np.random.default_rng(2)
        for stride, padding in [(1, 0), (1, 1), (2, 1)]:
            x = rng.normal(size=(2, 3, 7, 7)).astype(np.float32)
            w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
            fast = tensor.conv2d(x, w, stride, padding)
            slow = conv2d_direct(x, w, stride, padding)
            assert np.abs(fast - slow).max() / np.abs(slow).max() < 1e-5

    def test_1x1_kernel_equals_per_position_matmul(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 5, 4, 4))
        w = rng.normal(size=(3, 5, 1, 1))
        out = tensor.conv2d(x, w)
        # every spatial position is an independent C -> F matmul
        xm = x.transpose(0, 2, 3, 1).reshape(-1, 5)
        ref = (xm @ w.reshape(3, 5).T).reshape(2, 4, 4, 3).transpose(0, 3, 1, 2)
        assert np.abs(out - ref).max() < 1e-12


class TestConv2dBlocks:
    """conv2d runs per block of at most 32 examples; its bytes equal one
    matmul over the whole batch, so block boundaries do not show."""

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 200])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_equals_the_unblocked_matmul_byte_for_byte(self, n, dtype, stride, padding):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 3, 7, 7)).astype(dtype)
        w = rng.normal(size=(4, 3, 3, 3)).astype(dtype)
        out = tensor.conv2d(x, w, stride, padding)
        want = w.reshape(4, -1) @ tensor.im2col(x, 3, 3, stride, padding)
        assert out.dtype == want.dtype and out.tobytes() == want.tobytes()

    def test_one_im2col_call_per_block(self, monkeypatch):
        calls = []

        def counted(x, *args, _im2col=tensor.im2col):
            calls.append(len(x))
            return _im2col(x, *args)

        monkeypatch.setattr(tensor, "im2col", counted)
        tensor.conv2d(np.ones((70, 1, 4, 4)), np.ones((2, 1, 3, 3)), 1, 1)
        assert calls == [32, 32, 6]


class TestConv2dBackward:
    def test_zero_grad_output(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        gx, gw = tensor.conv2d_backward(x, w, np.zeros((1, 3, 3, 3)))
        assert not gx.any() and not gw.any()

    def test_1x1_grad_weight_is_plain_reduction(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 4, 4))
        w = rng.normal(size=(5, 3, 1, 1))
        go = rng.normal(size=(2, 5, 4, 4))
        _, gw = tensor.conv2d_backward(x, w, go)
        ref = np.einsum("nchw,nfhw->fc", x, go).reshape(5, 3, 1, 1)
        assert np.abs(gw - ref).max() < 1e-12

    def test_grad_output_shape_check(self):
        with pytest.raises(ShapeError, match="grad_output"):
            tensor.conv2d_backward(np.ones((1, 1, 5, 5)), np.ones((1, 1, 3, 3)), np.ones((1, 1, 2, 2)))

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_adjoints_match_finite_differences(self, stride, padding):
        """Both adjoints checked against central differences of <conv(x,w), G>."""
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        g = rng.normal(size=tensor.conv2d(x, w, stride, padding).shape)

        gx, gw = tensor.conv2d_backward(x, w, g, stride, padding)
        num_gx = central_diff(lambda xv: float(np.sum(tensor.conv2d(xv, w, stride, padding) * g)), x)
        num_gw = central_diff(lambda wv: float(np.sum(tensor.conv2d(x, wv, stride, padding) * g)), w)
        assert rel_err(gx, num_gx).max() < 1e-6
        assert rel_err(gw, num_gw).max() < 1e-6

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_halves_equal_conv2d_backward_byte_for_byte(self, stride, padding, dtype):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 2, 7, 7)).astype(dtype)
        w = rng.normal(size=(4, 2, 3, 3)).astype(dtype)
        g = rng.normal(size=tensor.conv2d(x, w, stride, padding).shape).astype(dtype)
        gx, gw = tensor.conv2d_backward(x, w, g, stride, padding)
        # the single-pass adjoints the halves were split from
        cols = tensor.im2col(x, 3, 3, stride, padding)
        go = g.reshape(3, 4, -1)
        want_gw = np.einsum("nfp,ncp->fc", go, cols, optimize=True).reshape(w.shape)
        want_gx = tensor.col2im(np.einsum("fc,nfp->ncp", w.reshape(4, -1), go, optimize=True), x.shape, 3, 3,
                                stride, padding)
        assert want_gx.tobytes() == gx.tobytes() and want_gw.tobytes() == gw.tobytes()
        half_gx = tensor.conv2d_grad_input(x, w, g, stride, padding)
        half_gw = tensor.conv2d_grad_weight(x, w, g, stride, padding)
        assert half_gx.dtype == gx.dtype and half_gx.tobytes() == gx.tobytes()
        assert half_gw.dtype == gw.dtype and half_gw.tobytes() == gw.tobytes()

    @pytest.mark.parametrize("half", ["conv2d_grad_input", "conv2d_grad_weight"])
    def test_halves_check_grad_output_shape(self, half):
        with pytest.raises(ShapeError, match="grad_output"):
            getattr(tensor, half)(np.ones((1, 1, 5, 5)), np.ones((1, 1, 3, 3)), np.ones((1, 1, 2, 2)))


def _im2col_cases():
    """(x_shape, (kh, kw), stride, padding) over stride {1, 2, 3} x padding
    {0..3} x three kernels with kh != kw, wherever the convolution exists.
    Every image has H != W; in the 1x2 image the kernel-(5, 3) taps 0 and 4
    land only in the top and bottom padding."""
    cases = []
    for x_shape in [(2, 3, 7, 5), (2, 2, 6, 9), (3, 2, 1, 2)]:
        for kernel in [(3, 2), (1, 4), (5, 3)]:
            for stride in (1, 2, 3):
                for padding in range(4):
                    try:
                        for extent, k in zip(x_shape[2:], kernel):
                            tensor.conv_output_size(extent, k, stride, padding)
                    except ShapeError:
                        continue
                    cases.append((x_shape, kernel, stride, padding))
    return cases


def _special_values(shape, dtype, seed):
    """Normal draws with -0.0, NaN, +inf and -inf sprinkled in."""
    x = np.random.default_rng(seed).normal(size=shape).astype(dtype)
    flat = x.reshape(-1)
    flat[::5], flat[1::7], flat[2::11], flat[3::13] = -0.0, np.nan, np.inf, -np.inf
    return x


class TestIm2col:
    """im2col gathers every tap with one copy from a zero-margined flat image
    and zeroes the columns that wrap into a neighbouring row; its bytes equal
    the padded slice-per-tap oracle's."""

    @pytest.mark.parametrize("x_shape,kernel,stride,padding", _im2col_cases())
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["contiguous", "transposed"])
    def test_equals_the_padded_oracle_byte_for_byte(self, x_shape, kernel, stride, padding, dtype, layout):
        n, c, h, w = x_shape
        x = _special_values((n, c, w, h), dtype, stride * 10 + padding).transpose(0, 1, 3, 2)
        if layout == "contiguous":
            x = np.ascontiguousarray(x)
        got = tensor.im2col(x, *kernel, stride, padding)
        want = im2col_padded(x, *kernel, stride, padding)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("x_shape,kernel,stride,padding", _im2col_cases())
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["contiguous", "transposed"])
    def test_the_weight_gradient_layout_equals_the_transposed_oracle(self, x_shape, kernel, stride, padding,
                                                                     dtype, layout):
        # order (1, 0, 2) builds conv2d_grad_weight's GEMM operand [C*kh*kw, N*P] with no second copy
        n, c, h, w = x_shape
        x = _special_values((n, c, w, h), dtype, stride * 10 + padding).transpose(0, 1, 3, 2)
        if layout == "contiguous":
            x = np.ascontiguousarray(x)
        got = tensor.im2col(x, *kernel, stride, padding, (1, 0, 2))
        want = im2col_padded(x, *kernel, stride, padding).transpose(1, 0, 2)
        assert got.shape == want.shape and got.dtype == want.dtype and got.flags.c_contiguous
        taps = c * kernel[0] * kernel[1]
        assert got.reshape(taps, -1).tobytes() == want.reshape(taps, -1).tobytes()

    def test_a_tap_left_of_the_image_that_ends_before_column_zero(self):
        # kernel width 6, padding 3 over a 1-column image: tap 5 lands on
        # columns 2 and 3, right of the image, and _inside's stop is -1, so
        # only max(stop, start) zeroes output column 0 as well as column 1
        x = _special_values((2, 3, 5, 1), np.float32, 4)
        got = tensor.im2col(x, 3, 6, 1, 3)
        assert got.tobytes() == im2col_padded(x, 3, 6, 1, 3).tobytes()

    def test_the_cnn_small_blocks_equal_the_oracle(self):
        for c, h in [(1, 16), (16, 8), (24, 4)]:
            x = _special_values((32, c, h, h), np.float32, c)
            assert tensor.im2col(x, 3, 3, 1, 1).tobytes() == im2col_padded(x, 3, 3, 1, 1).tobytes()


def _col2im_cases():
    """(x_shape, kernel, stride, padding) over stride {1, 2} x padding {0, 1, 2}
    wherever the convolution exists.  7x5 fits every pair; in the other two
    shapes some tap lands only in the padding (kernel 5 over a 2-row image at
    stride 1, kernel 3 over a 1-row image at stride 2)."""
    cases = []
    for x_shape, k in [((3, 4, 7, 5), 3), ((2, 3, 2, 2), 5), ((2, 3, 1, 1), 3)]:
        for stride in (1, 2):
            for padding in (0, 1, 2):
                try:
                    for extent in x_shape[2:]:
                        tensor.conv_output_size(extent, k, stride, padding)
                except ShapeError:
                    continue
                cases.append((x_shape, k, stride, padding))
    return cases


class TestCol2im:
    """col2im folds into a channel-last buffer from only the in-image output
    positions; its bytes equal the padded-buffer oracle's."""

    @pytest.mark.parametrize("x_shape,k,stride,padding", _col2im_cases())
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["contiguous", "transposed"])
    def test_equals_the_padded_oracle_byte_for_byte(self, x_shape, k, stride, padding, dtype, layout):
        n, c, h, w = x_shape
        ho = tensor.conv_output_size(h, k, stride, padding)
        wo = tensor.conv_output_size(w, k, stride, padding)
        rng = np.random.default_rng(stride * 10 + padding)
        values = rng.normal(size=(n, ho * wo, c * k * k)).astype(dtype)
        values[values < -1.5] = -0.0
        cols = values.transpose(0, 2, 1)  # the layout conv2d_grad_input hands over
        if layout == "contiguous":
            cols = np.ascontiguousarray(cols)
        got = tensor.col2im(cols, x_shape, k, k, stride, padding)
        want = col2im_padded(cols, x_shape, k, k, stride, padding)
        assert got.flags.c_contiguous and got.shape == x_shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_a_tap_whose_outputs_all_land_in_the_top_padding(self):
        # kernel 9, padding 3 over 4 rows: tap 0's two output rows land on
        # image rows -3 and -2, so its image slice must not wrap to rows 0..2
        cols = np.random.default_rng(3).normal(size=(1, 2 * 81, 4))
        got = tensor.col2im(cols, (1, 2, 4, 4), 9, 9, 1, 3)
        assert got.tobytes() == col2im_padded(cols, (1, 2, 4, 4), 9, 9, 1, 3).tobytes()

    def test_a_tap_with_no_output_inside_the_image_adds_nothing(self):
        # kernel 3, stride 2, padding 2 over one pixel: tap 1 lands on rows -1 and 1
        cols = np.ones((1, 9, 4))
        got = tensor.col2im(cols, (1, 1, 1, 1), 3, 3, 2, 2)
        assert got.tolist() == [[[[4.0]]]]  # taps (0|2, 0|2), one position each


class TestConvAdjointGemms:
    """Each adjoint half is the GEMM numpy's einsum(optimize=True) runs, so
    its bytes equal that einsum's at the cnn_small conv shapes."""

    SHAPES = [(1, 16, 16), (16, 24, 8), (24, 32, 4)]  # (C, F, H=W) of conv1..conv3

    @pytest.mark.parametrize("c,f,h", SHAPES)
    @pytest.mark.parametrize("n", [32, 256])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_halves_equal_einsum_byte_for_byte(self, c, f, h, n, dtype):
        rng = np.random.default_rng(n + c)
        x = rng.normal(size=(n, c, h, h)).astype(dtype)
        w = rng.normal(size=(f, c, 3, 3)).astype(dtype)
        g = rng.normal(size=(n, f, h, h)).astype(dtype)
        gx = tensor.conv2d_grad_input(x, w, g, 1, 1)
        assert gx.tobytes() == conv2d_grad_input_einsum(x, w, g, 1, 1).tobytes()
        want_gw = conv2d_grad_weight_einsum(x, w, g, 1, 1).tobytes()
        assert tensor.conv2d_grad_weight(x, w, g, 1, 1).tobytes() == want_gw


class TestMallocPin:
    @pytest.mark.parametrize("env", [{"MALLOC_TOP_PAD_": "0"},
                                     {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=1000000"}])
    def test_environment_malloc_tuning_is_left_alone(self, env):
        env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
        code = "from prunelab import tensor; print(tensor.MALLOC_PINNED)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"
