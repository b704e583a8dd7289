"""Dense array kernels: 2d convolution with exact adjoints.

All kernels operate on row-major numpy arrays of dtype float32 or float64 and
validate operand shapes and dtypes before touching data, so shape bugs
surface at the call site.

``conv2d`` runs im2col and the matmul once per block of at most 32 examples
(``blocks``), each block writing into one preallocated output.  numpy's
stacked matmul makes one BLAS call per example either way, so the output
bytes equal one matmul over the whole batch, while a block's 9x-inflated
patch columns stay in cache.  ``im2col`` lays each image out flat between
two zero margins of padding*W + padding elements and gathers every tap with
one copy through a strided view; a tap of a stride-1 "same" conv reads one
contiguous run of H*W.  There is no horizontal padding: an output column
left or right of the image reads the neighbouring row, and is zeroed after.

A caller computes only the adjoint it reads: ``conv2d_grad_input`` (folded
back by ``col2im``, the adjoint of ``im2col``) or ``conv2d_grad_weight``;
``conv2d_backward`` returns both.  Each adjoint is one plain matmul over the
whole batch, the GEMM that numpy 2.x's ``einsum(..., optimize=True)``
decomposes it into: [N*Ho*Wo, F] . [F, C*kh*kw] for the input columns,
[C*kh*kw, N*Ho*Wo] . [N*Ho*Wo, F] for the weight.  ``im2col`` builds the
weight's columns straight in that layout: its ``order`` permutes the strided
view's axes before the one copy, and the wrapped columns are zeroed through a
view of the copy in the default order.  The tests compare both adjoints with
that einsum byte for byte, so a numpy whose einsum picks another
decomposition fails them instead of drifting silently.

Importing the module fixes the C allocator's thresholds for the process (see
``_pin_malloc_thresholds``; ``MALLOC_PINNED`` says whether it did), so that
the arrays a batch frees serve the next batch without new page faults.
"""

import ctypes
import os

import numpy as np

from .errors import InputError, ShapeError

FLOAT_DTYPES = (np.float32, np.float64)

_BLOCK = 32  # examples per block of a blocked forward

# glibc mallopt parameters (malloc.h): blocks up to 32 MB, glibc's 64-bit
# limit, come from the heap, and up to 64 MB of free heap top stays mapped
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_PINNED_THRESHOLDS = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 64 << 20))
_MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_")


def _pin_malloc_thresholds():
    """Keep freed array memory in the heap for the next arrays of its size.

    By default glibc maps each block above a dynamic threshold on its own and
    returns the heap's free top to the system once it passes twice that
    threshold.  A forward/backward pass frees and re-allocates the same few
    megabytes every batch, so their pages were mapped, zero-filled and
    faulted in again batch after batch: 4,000 to 16,000 page faults per
    ``importance.estimate`` call on a trained cnn_small at D=600 (x86-64
    Linux, glibc 2.36), the count set by the heap layout earlier work left.
    With both thresholds fixed, batches after the first reuse their pages.
    Returns whether it pinned them: not where the C library has no
    ``mallopt``, nor when the environment sets glibc's malloc tunables itself.
    """
    if any(v in os.environ for v in _MALLOC_ENV) or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return all(mallopt(param, value) for param, value in _PINNED_THRESHOLDS)


MALLOC_PINNED = _pin_malloc_thresholds()


def blocks(n):
    """Slices that split n examples into blocks of at most 32 (``_BLOCK``)."""
    return [slice(i, i + _BLOCK) for i in range(0, n, _BLOCK)]


def _check_float(t, name="operand"):
    if t.dtype.type not in FLOAT_DTYPES:
        raise InputError(f"{name} must be float32 or float64, got {t.dtype}")


def _check_same_dtype(a, b):
    if a.dtype != b.dtype:
        raise ShapeError(f"dtype mismatch: {a.dtype} vs {b.dtype}")


def conv_output_size(extent, kernel, stride, padding):
    """Output extent of a convolution along one axis; errors if non-integral."""
    if stride < 1:
        raise InputError(f"stride must be positive, got {stride}")
    if padding < 0:
        raise InputError(f"padding must be non-negative, got {padding}")
    span = extent + 2 * padding - kernel
    if span < 0 or span % stride != 0:
        raise ShapeError(
            f"convolution output extent is not a positive integer: "
            f"extent={extent} kernel={kernel} stride={stride} padding={padding}"
        )
    return span // stride + 1


def _check_conv_args(x, w):
    _check_float(x, "input")
    _check_same_dtype(x, w)
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d input/weight, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(
            f"conv2d channel mismatch: input {x.shape} has C={x.shape[1]}, "
            f"weight {w.shape} has C={w.shape[1]}"
        )


def im2col(x, kh, kw, stride, padding, order=(0, 1, 2)):
    """Unfold [N,C,H,W] into patch columns by one strided copy (module docstring):
    the axes (N, C*kh*kw, Ho*Wo) in ``order``, [N, C*kh*kw, Ho*Wo] by default."""
    n, c, h, w = x.shape
    ho = conv_output_size(h, kh, stride, padding)
    wo = conv_output_size(w, kw, stride, padding)
    m = padding * w + padding
    flat = np.zeros((n, c, m + h * w + m), x.dtype)
    flat[:, :, m : m + h * w].reshape(n, c, h, w)[...] = x
    e = flat.itemsize  # tap (i, j) of output (y, x) reads flat[..., (y*stride + i)*W + x*stride + j]
    axes = [a for g in order for a in ((0,), (1, 2, 3), (4, 5))[g]]  # of (N, C, kh, kw, Ho, Wo)
    cols = np.ndarray((n, c, kh, kw, ho, wo), x.dtype, flat,
                      strides=flat.strides[:2] + (w * e, e, stride * w * e, stride * e)).transpose(axes).copy()
    taps = cols.transpose([axes.index(a) for a in range(6)])  # the copy seen as (N, C, kh, kw, Ho, Wo)
    for j in range(kw):
        inside = _inside(j, wo, w, stride, padding)[0]
        taps[:, :, :, j, :, : inside.start] = 0
        taps[:, :, :, j, :, max(inside.stop, inside.start) :] = 0
    return cols.reshape([(n, c * kh * kw, ho * wo)[g] for g in order])


def _inside(tap, out_extent, extent, stride, padding):
    """The output positions whose tap lands inside the image along one axis,
    and the image positions they land on."""
    lo = max(0, -((tap - padding) // stride))
    hi = min(out_extent, (extent - 1 + padding - tap) // stride + 1)
    first = lo * stride + tap - padding
    return slice(lo, hi), slice(first, first + stride * (hi - lo), stride)


def col2im(cols, x_shape, kh, kw, stride, padding):
    """Adjoint of im2col: fold patch columns [N, C*kh*kw, Ho*Wo] back into a
    contiguous [N,C,H,W], accumulating overlaps tap by tap in (i, j) order.

    The taps add into a zeroed channel-last (N, H, W, C) buffer, each from
    only the output positions that land inside the image; a tap that would
    land in the padding adds nothing.  The buffer is transposed once at the
    end.  cols may be any strided view, such as a transposed matmul result.
    """
    n, c, h, w = x_shape
    ho = conv_output_size(h, kh, stride, padding)
    wo = conv_output_size(w, kw, stride, padding)
    out = np.zeros((n, h, w, c), dtype=cols.dtype)
    cols = cols.reshape(n, c, kh, kw, ho, wo)
    for i in range(kh):
        rows, ys = _inside(i, ho, h, stride, padding)
        for j in range(kw):
            cs, xs = _inside(j, wo, w, stride, padding)
            if rows.start < rows.stop and cs.start < cs.stop:
                out[:, ys, xs] += cols[:, :, i, j, rows, cs].transpose(0, 2, 3, 1)
    return np.ascontiguousarray(out.transpose(0, 3, 1, 2))


def conv2d(x, w, stride=1, padding=0):
    """Cross-correlate x [N,C,H,W] with w [F,C,kh,kw] -> [N,F,Ho,Wo].

    Zero padding, no kernel flip, no bias.  im2col + matmul per block.
    """
    _check_conv_args(x, w)
    n = x.shape[0]
    f, _, kh, kw = w.shape
    ho = conv_output_size(x.shape[2], kh, stride, padding)
    wo = conv_output_size(x.shape[3], kw, stride, padding)
    out = np.empty((n, f, ho * wo), x.dtype)
    for blk in blocks(n):
        block_cols = im2col(x[blk], kh, kw, stride, padding)
        np.matmul(w.reshape(f, -1), block_cols, out=out[blk])
        del block_cols  # so the next block's columns reuse this block's cached memory
    return out.reshape(n, f, ho, wo)


def _grad_columns(x, w, grad_output, stride, padding):
    """Check conv2d's adjoint operands; returns grad_output as [N, F, Ho*Wo]."""
    _check_conv_args(x, w)
    f, _, kh, kw = w.shape
    n = x.shape[0]
    ho = conv_output_size(x.shape[2], kh, stride, padding)
    wo = conv_output_size(x.shape[3], kw, stride, padding)
    expect = (n, f, ho, wo)
    if grad_output.shape != expect:
        raise ShapeError(f"grad_output shape {grad_output.shape} != forward output {expect}")
    _check_same_dtype(x, grad_output)
    return grad_output.reshape(n, f, ho * wo)


def conv2d_grad_input(x, w, grad_output, stride=1, padding=0):
    """Adjoint of conv2d in x; x is read for its shape only."""
    go = _grad_columns(x, w, grad_output, stride, padding)
    n, f, p = go.shape
    kh, kw = w.shape[2:]
    # dcols[n] = W.T . go[n] for every n at once, folded back from a view
    grad_cols = np.matmul(go.transpose(0, 2, 1).reshape(n * p, f), w.reshape(f, -1))
    grad_cols = grad_cols.reshape(n, p, -1).transpose(0, 2, 1)
    return col2im(grad_cols, x.shape, kh, kw, stride, padding)


def conv2d_grad_weight(x, w, grad_output, stride=1, padding=0):
    """Adjoint of conv2d in w; w is read for its shape only."""
    go = _grad_columns(x, w, grad_output, stride, padding)
    n, f, p = go.shape
    kh, kw = w.shape[2:]
    cols = im2col(x, kh, kw, stride, padding, (1, 0, 2)).reshape(-1, n * p)
    # dW[f, :] = sum_n go[n, f] . cols[n].T, with the columns built as [C*kh*kw, N*P]
    gw = np.matmul(cols, go.transpose(0, 2, 1).reshape(n * p, f))
    return gw.T.reshape(w.shape)


def conv2d_backward(x, w, grad_output, stride=1, padding=0):
    """Exact adjoints of conv2d: returns (grad_input, grad_weight)."""
    return (conv2d_grad_input(x, w, grad_output, stride, padding),
            conv2d_grad_weight(x, w, grad_output, stride, padding))
