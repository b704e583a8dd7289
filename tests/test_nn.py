"""Layer graph tests: frozen forward examples, adjoint identities, and
finite-difference verification of every parameter gradient."""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from prunelab import importance as imp
from prunelab import nn, pruning, tensor
from prunelab.errors import InputError, ShapeError, StateError
from prunelab.nn import (
    INPUT,
    AvgPool,
    BatchNorm,
    Conv2d,
    Flatten,
    Linear,
    MaxPool,
    Model,
    ReLU,
    ResidualAdd,
    Site,
    build_cnn_residual,
    build_cnn_small,
    build_mlp_small,
    gradient_check,
    softmax,
    softmax_cross_entropy,
)

from helpers import (avg_pool_backward_oracle, avg_pool_oracle, batch_norm_oracle, build_reference_models,
                     central_diff, conv_bn_probe_model, max_pool_oracle, rel_err, site_by_id)


def linear_model(weight, bias=None, dtype=np.float64):
    w = np.asarray(weight, dtype)
    node = Linear("fc", [INPUT], w.shape[1], w.shape[0], bias=bias is not None)
    node.params["weight"] = w
    if bias is not None:
        node.params["bias"] = np.asarray(bias, dtype)
    node.zero_grads()
    return Model([node], (w.shape[1],), w.shape[0], [Site("fc", 0, w.shape[0])], dtype=dtype)


def as_float64(nodes):
    """The nodes, each array cast to float64: a float64 Model holds only float64 arrays."""
    for node in nodes:
        node.params = {k: v.astype(np.float64) for k, v in node.params.items()}
        node.state = {k: v.astype(np.float64) for k, v in node.state.items()}
        node.zero_grads()
    return nodes


class TestForwardExamples:
    def test_identity_linear_returns_input(self):
        model = linear_model(np.eye(3))
        x = np.array([[1.0, -2.0, 0.5]])
        logits, _ = model.forward(x, "eval")
        assert np.array_equal(logits, x)

    def test_linear_known_values(self):
        # rows [1,2],[3,4] on x=[1,1] give 3 and 7, biases shift by +-0.5
        model = linear_model([[1.0, 2.0], [3.0, 4.0]], bias=[0.5, -0.5])
        logits, _ = model.forward([[1.0, 1.0]], "eval")
        assert np.allclose(logits, [[3.5, 6.5]], atol=0, rtol=0)

    def test_relu_clamps_negatives(self):
        node = ReLU("r", [INPUT])
        out = node.forward([np.array([[-1.0, 0.0, 2.0]])], "eval", {})
        assert np.array_equal(out, [[0.0, 0.0, 2.0]])

    def test_avg_pool_known_window(self):
        node = AvgPool("p", [INPUT], kernel=2)
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = node.forward([x], "eval", {})
        # window means: (0+1+4+5)/4=2.5 etc.
        assert np.array_equal(out, [[[[2.5, 4.5], [10.5, 12.5]]]])

    def test_max_pool_picks_window_max(self):
        node = MaxPool("p", [INPUT], kernel=2)
        x = np.array([[[[1.0, 2.0], [8.0, 3.0]]]])
        out = node.forward([x], "eval", {})
        assert out.item() == 8.0

    def test_max_pool_tie_routes_to_first(self):
        node = MaxPool("p", [INPUT], kernel=2)
        x = np.array([[[[1.0, 1.0], [1.0, 0.0]]]])
        cache = {}
        node.forward([x], "eval", cache)
        (dx,) = node.backward(np.ones((1, 1, 1, 1)), cache)
        assert np.array_equal(dx, [[[[1.0, 0.0], [0.0, 0.0]]]])

    def test_flatten_orders_channel_major(self):
        node = Flatten("f", [INPUT])
        x = np.arange(8, dtype=np.float64).reshape(1, 2, 2, 2)
        out = node.forward([x], "eval", {})
        # channel c occupies the contiguous block [c*H*W, (c+1)*H*W)
        assert np.array_equal(out[0], np.arange(8))

    def test_residual_add_sums_branches(self):
        node = ResidualAdd("a", [0, 1])
        a = np.ones((1, 2, 2, 2))
        out = node.forward([a, 2 * a], "eval", {})
        assert np.array_equal(out, 3 * a)

    def test_residual_add_shape_mismatch(self):
        node = ResidualAdd("a", [0, 1])
        with pytest.raises(ShapeError, match=r"residual add inputs differ: \(2, 2, 2\) vs \(3, 2, 2\)"):
            node.out_shape([(2, 2, 2), (3, 2, 2)])
        with pytest.raises(InputError, match=r"^node 2 \(a\): residual add inputs differ"):
            Model([Conv2d("c", [INPUT], 1, 2, 1), Conv2d("d", [INPUT], 1, 3, 1), node, Flatten("f", [2]),
                   Linear("fc", [3], 8, 2)], (1, 2, 2), 2)


class TestBatchNorm:
    def test_train_mode_normalizes_batch(self):
        rng = np.random.default_rng(0)
        x = rng.normal(3.0, 2.0, size=(16, 5, 4, 4)).astype(np.float32)
        node = BatchNorm("bn", [INPUT], 5)
        out = node.forward([x], "train", {})
        assert np.abs(out.mean(axis=(0, 2, 3))).max() < 1e-5
        assert np.abs(out.var(axis=(0, 2, 3)) - 1.0).max() < 1e-4

    def test_train_mode_updates_running_stats(self):
        x = np.array([[2.0, -4.0], [4.0, -8.0]])
        node = BatchNorm("bn", [INPUT], 2)
        node.forward([x], "train", {})
        # momentum 0.9: running_mean = 0.9*0 + 0.1*batch_mean
        assert np.allclose(node.state["running_mean"], [0.3, -0.6], atol=1e-7)
        # biased variance of [2,4] is 1, of [-4,-8] is 4
        assert np.allclose(node.state["running_var"], [0.9 + 0.1 * 1.0, 0.9 + 0.1 * 4.0], atol=1e-7)

    @pytest.mark.parametrize("momentum", [np.float64(0.9), np.float32(0.9), np.int64(1)],
                             ids=["float64", "float32", "int64"])
    def test_a_numpy_momentum_keeps_the_statistics_in_the_models_dtype(self, momentum):
        # a numpy float64 or int64 would promote float32 statistics to float64, which the dtype rule refuses; as
        # a Python float, momentum updates them as after a checkpoint round trip, which stores it as JSON
        x = np.random.default_rng(0).normal(size=(4, 2))
        models = [Model([Linear("fc", [INPUT], 2, 2), BatchNorm("bn", [0], 2, momentum=m)], (2,), 2)
                  for m in (momentum, float(momentum))]
        for model in models:
            model.forward(x, "train")
            model.forward(x, "train")
        for name in ("running_mean", "running_var"):
            got, want = (m.nodes[1].state[name] for m in models)
            assert got.dtype == np.float32 and got.tobytes() == want.tobytes()

    def test_eval_mode_uses_running_stats(self):
        # the smallest eps a batch norm takes: added to a float32 variance of 4.0 or 0.25 it rounds away
        node = BatchNorm("bn", [INPUT], 2, eps=float(np.finfo(np.float32).smallest_subnormal))
        node.state["running_mean"] = np.array([1.0, 2.0], np.float32)
        node.state["running_var"] = np.array([4.0, 0.25], np.float32)
        node.params["gamma"] = np.array([2.0, 1.0], np.float32)
        node.params["beta"] = np.array([0.0, 10.0], np.float32)
        out = node.forward([np.array([[3.0, 1.0]], np.float32)], "eval", {})
        # (3-1)/2*2 = 2 ; (1-2)/0.5*1 + 10 = 8
        assert np.allclose(out, [[2.0, 8.0]], atol=1e-6)

    def test_eval_mode_leaves_running_stats_alone(self):
        node = BatchNorm("bn", [INPUT], 3)
        before = (node.state["running_mean"].copy(), node.state["running_var"].copy())
        node.forward([np.random.default_rng(1).normal(size=(4, 3))], "eval", {})
        assert np.array_equal(node.state["running_mean"], before[0])
        assert np.array_equal(node.state["running_var"], before[1])


class TestBatchNormRows:
    """Batch norm's passes run once over the batch on (N, C*H*W) rows; forward
    and backward bytes equal the broadcast formulas, at N below, at and well
    above 32."""

    @pytest.mark.parametrize("shape", [(70, 3, 4, 4), (70, 6), (33, 5, 1, 1), (31, 6), (1, 2, 3, 3), (32, 16, 16, 16)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode,params,inplace", [("train", True, False), ("eval", True, False),
                                                     ("eval", False, False), ("eval", False, True)],
                             ids=["train", "eval", "eval_no_params", "eval_in_place"])
    def test_forward_and_backward_equal_the_broadcast_formulas(self, shape, dtype, mode, params, inplace):
        rng = np.random.default_rng(sum(shape))
        c = shape[1]
        node = BatchNorm("bn", [INPUT], c)
        for table, name in ((node.params, "gamma"), (node.params, "beta"), (node.state, "running_mean")):
            table[name] = rng.normal(size=c).astype(dtype)
        node.state["running_var"] = rng.uniform(0.5, 2.0, size=c).astype(dtype)
        node.zero_grads()
        stats = (node.state["running_mean"], node.state["running_var"])
        x = rng.normal(1.0, 3.0, size=shape).astype(dtype)
        grad = rng.normal(size=shape).astype(dtype)
        want_out, want_backward = batch_norm_oracle(x, node.params["gamma"], node.params["beta"], *stats,
                                                    node.eps, mode == "train")
        cache = {"inplace": True} if inplace else {}
        out = node.forward([x.copy() if inplace else x], mode, cache)
        assert out.dtype == want_out.dtype and out.tobytes() == want_out.tobytes()
        if inplace:
            assert out is cache["x"]  # written over its input, as in a record-free run, which runs no backward
            return
        (dx,) = node.backward(grad, {**cache, "params": params})
        want_dx, want_dgamma, want_dbeta = want_backward(grad)
        assert dx.dtype == want_dx.dtype and dx.tobytes() == want_dx.tobytes()
        if params:
            assert node.grads["gamma"].tobytes() == (np.zeros(c, dtype) + want_dgamma).tobytes()
            assert node.grads["beta"].tobytes() == (np.zeros(c, dtype) + want_dbeta).tobytes()
        else:
            assert not node.grads["gamma"].any() and not node.grads["beta"].any()

    @pytest.mark.parametrize("shape", [(32, 16, 16, 16), (7, 3, 5, 9)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("axes", [(0, 1, 3, 2), (3, 2, 1, 0)])
    def test_train_forward_keeps_np_var_bytes_on_a_strided_input(self, shape, dtype, axes):
        # np.var sums the squares in x's memory order, so the centred array must keep that
        # layout; the output is contiguous, as for a contiguous x
        x = np.random.default_rng(len(shape)).normal(1.0, 3.0, size=shape).astype(dtype)
        x = np.ascontiguousarray(x.transpose(axes)).transpose(np.argsort(axes))
        node = BatchNorm("bn", [INPUT], shape[1])
        out = node.forward([x], "train", {})
        want_out, _ = batch_norm_oracle(x, node.params["gamma"], node.params["beta"], None, None, node.eps, True)
        assert out.flags.c_contiguous and out.tobytes() == want_out.tobytes()
        m = node.momentum
        running_var = (m * np.ones(shape[1], np.float32) + (1 - m) * x.var(axis=(0, 2, 3))).astype(dtype)
        assert node.state["running_var"].tobytes() == running_var.tobytes()


class TestEvalCaches:
    @pytest.mark.parametrize("name", ["mlp_small", "cnn_small", "cnn_residual"])
    def test_eval_record_holds_no_boolean_mask_and_no_xhat(self, name):
        model = nn.MODEL_BUILDERS[name](seed=1)
        _, record = model.forward(np.random.default_rng(2).normal(size=(3, 1, 16, 16)), "eval")
        for i, cache in enumerate(record.caches):
            assert "xhat" not in cache, f"node {i}"
            assert not any(getattr(v, "dtype", None) == bool for v in cache.values()), f"node {i}"

    @pytest.mark.parametrize("name", ["cnn_small", "cnn_residual"])
    def test_conv_cache_holds_only_x_and_the_weight_gradient_rebuilds_columns(self, name):
        """Train and eval conv caches hold only x, and a train backward's conv
        weight gradients are conv2d_grad_weight's on that x and the gradient
        a taps backward returns there."""
        model = nn.MODEL_BUILDERS[name](seed=1)
        x = np.random.default_rng(2).normal(size=(40, 1, 16, 16))  # two blocks of a blocked forward
        convs = [i for i, node in enumerate(model.nodes) if node.kind == "conv2d"]
        for mode in ("eval", "train"):
            logits, record = model.forward(x, mode)
            assert all(list(record.caches[i]) == ["x"] for i in convs), mode
        output_grad = np.random.default_rng(3).normal(size=logits.shape)
        grads = model.backward(record, output_grad, taps=convs)
        model.backward(record, output_grad)
        for i in convs:
            node, w = model.nodes[i], model.nodes[i].params["weight"]
            gw = tensor.conv2d_grad_weight(record.caches[i]["x"], w, grads[i], node.stride, node.padding)
            assert node.grads["weight"].tobytes() == (np.zeros_like(w) + gw).tobytes(), f"node {i}"

    def test_relu_backward_is_grad_times_the_positive_mask(self):
        x = np.array([[-1.0, -0.0, 0.0, 2.0, np.nan, np.inf, -np.inf, 1e-300]])
        grad = np.array([[3.0, 4.0, -5.0, -6.0, 7.0, np.nan, 8.0, -0.0]])
        node = ReLU("r", [INPUT])
        cache = {}
        node.forward([x], "eval", cache)
        (gx,) = node.backward(grad, cache)
        want = grad * (x > 0)
        assert gx.dtype == want.dtype and gx.tobytes() == want.tobytes()


# signed zeros and magnitudes from 1e-3 to 1e3 of either sign
_TINY = float(np.float32(1e-3))
_AVG_POOL_VALUES = (st.sampled_from([0.0, -0.0]) | st.floats(_TINY, 1e3, width=32)
                    | st.floats(-1e3, -_TINY, width=32))
_AVG_POOL_GRADS = _AVG_POOL_VALUES | st.sampled_from([np.inf, -np.inf])


@st.composite
def avg_pool_cases(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    k = draw(st.integers(2, 4))
    n, c, ho, wo = draw(st.tuples(*[st.integers(1, 3)] * 4))
    return draw(hnp.arrays(dtype, (n, c, ho * k, wo * k), elements=_AVG_POOL_VALUES)), k


class TestAvgPoolCorners:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=avg_pool_cases())
    def test_forward_matches_the_mean_oracle_byte_for_byte(self, case):
        x, k = case
        out = AvgPool("p", [INPUT], kernel=k).forward([x], "eval", {})
        want = avg_pool_oracle(x, k)
        assert out.dtype == want.dtype and out.tobytes() == want.tobytes()

    def test_window_of_negative_zeros_averages_to_positive_zero(self):
        out = AvgPool("p", [INPUT], kernel=2).forward([np.full((1, 1, 2, 2), -0.0)], "eval", {})
        assert out.tobytes() == np.zeros((1, 1, 1, 1)).tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=avg_pool_cases(), draw=st.data())
    def test_backward_matches_the_broadcast_oracle_byte_for_byte(self, case, draw):
        x, k = case
        n, c, h, w = x.shape
        grad = draw.draw(hnp.arrays(x.dtype, (n, c, h // k, w // k), elements=_AVG_POOL_GRADS))
        node, cache = AvgPool("p", [INPUT], kernel=k), {}
        node.forward([x], "train", cache)
        (gx,) = node.backward(grad, cache)
        want = avg_pool_backward_oracle(grad, k)
        assert gx.dtype == want.dtype and gx.shape == x.shape and gx.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("windows", [1, 3], ids=["one_window_wide", "three_windows_wide"])
    def test_backward_of_signed_zeros_and_infinities_matches_the_oracle(self, dtype, k, windows):
        values = np.array([0.0, -0.0, np.inf, -np.inf, 1.5, -2.25e-3], dtype)
        grad = values[np.arange(2 * 3 * 2 * windows) % len(values)].reshape(2, 3, 2, windows)
        node, cache = AvgPool("p", [INPUT], kernel=k), {}
        node.forward([np.ones((2, 3, 2 * k, windows * k), dtype)], "train", cache)
        (gx,) = node.backward(grad, cache)
        want = avg_pool_backward_oracle(grad, k)
        assert gx.dtype == dtype and gx.shape == (2, 3, 2 * k, windows * k) and gx.tobytes() == want.tobytes()


class TestBackward:
    def test_zero_output_grad_zeroes_everything(self):
        model = build_cnn_small(image_size=8, seed=3).astype(np.float64)
        x = np.random.default_rng(5).normal(size=(2, 1, 8, 8))
        logits, record = model.forward(x, "train")
        model.zero_grads()
        assert model.backward(record, np.zeros_like(logits)) is None
        for _, node, name, _ in model.parameters():
            assert not node.grads[name].any(), f"{node.name}.{name} nonzero"
        grads = model.backward(record, np.zeros_like(logits), taps=[s.node_index for s in model.sites])
        for s in model.sites:
            assert not grads[s.node_index].any()

    def test_linear_input_grad_is_g_times_w(self):
        w = np.random.default_rng(7).normal(size=(3, 4))
        model = linear_model(w)
        x = np.random.default_rng(8).normal(size=(5, 4))
        _, record = model.forward(x, "eval")
        g = np.random.default_rng(9).normal(size=(5, 3))
        node = model.nodes[0]
        (gx,) = node.backward(g, record.caches[0])
        assert np.allclose(gx, g @ w, atol=1e-12)
        assert np.allclose(node.grads["weight"], g.T @ x, atol=1e-12)

    def test_fanout_grads_accumulate(self):
        # y = x + x doubles the gradient flowing to the producer
        nodes = [
            Linear("fc", [INPUT], 2, 2),
            ResidualAdd("add", [0, 0]),
            Linear("out", [1], 2, 2),
        ]
        for n in (nodes[0], nodes[2]):
            n.params["weight"] = np.eye(2)
            n.params["bias"] = np.zeros(2)
            n.zero_grads()
        model = Model(nodes, (2,), 2, [Site("fc", 0, 2)], dtype=np.float64)
        x = np.array([[1.0, 2.0]])
        logits, record = model.forward(x, "eval")
        assert np.array_equal(logits, [[2.0, 4.0]])
        g = np.array([[1.0, 1.0]])
        assert np.array_equal(model.backward(record, g, taps=[0])[0], [[2.0, 2.0]])
        model.zero_grads()
        model.backward(record, g)
        assert np.array_equal(nodes[0].grads["weight"], [[2.0, 4.0], [2.0, 4.0]])

    def test_site_grads_cover_all_sites(self):
        model = build_cnn_residual(image_size=8, seed=0).astype(np.float64)
        x = np.random.default_rng(0).normal(size=(2, 1, 8, 8))
        logits, record = model.forward(x, "eval")
        grads = model.backward(record, np.ones_like(logits), taps=[s.node_index for s in model.sites])
        assert list(grads) == [s.node_index for s in model.sites]
        for s in model.sites:
            assert grads[s.node_index].shape == record.values[s.node_index].shape


def micro_cnn(seed=0):
    """Small graph covering conv (padded and strided), BN, ReLU, max pool."""
    nodes = [
        Conv2d("c1", [INPUT], 1, 3, 3, padding=1, bias=False),
        BatchNorm("b1", [0], 3),
        ReLU("r1", [1]),
        MaxPool("p1", [2]),
        Conv2d("c2", [3], 3, 4, 3, stride=2, padding=1),
        ReLU("r2", [4]),
        Flatten("f", [5]),
        Linear("fc", [6], 16, 3),
    ]
    model = Model(as_float64(nodes), (1, 6, 6), 3, [Site("c1", 0, 3), Site("c2", 4, 4)], dtype=np.float64)
    return _jiggle(nn._init_params(model, seed), seed)


def micro_residual(seed=0):
    """Small graph covering avg pool and a residual add."""
    nodes = [
        Conv2d("c1", [INPUT], 1, 3, 3, padding=1, bias=False),
        BatchNorm("b1", [0], 3),
        ReLU("r1", [1]),
        AvgPool("p1", [2]),
        Conv2d("c2", [3], 3, 3, 3, padding=1, bias=False),
        BatchNorm("b2", [4], 3),
        ResidualAdd("add", [5, 3]),
        ReLU("r2", [6]),
        Flatten("f", [7]),
        Linear("fc", [8], 12, 2),
    ]
    model = Model(as_float64(nodes), (1, 4, 4), 2, [Site("c2", 4, 3)], dtype=np.float64)
    return _jiggle(nn._init_params(model, seed), seed)


def _jiggle(model, seed):
    """Nudge every parameter off its symmetric init (zero biases, unit gammas)."""
    rng = np.random.default_rng(seed + 1000)
    for _, node, name, param in model.parameters():
        node.params[name] = param + 0.05 * rng.standard_normal(param.shape)
    model.zero_grads()
    return model


def _fd_check_params(model, x, output_grad, mode, tol):
    """Independent finite-difference sweep (distinct from nn.gradient_check).

    Uses the same denominator floor as gradient_check: partials below 1e-4
    are compared absolutely, since that is where f64 central-difference noise
    (~1e-11) exceeds one part per million.
    """
    model.zero_grads()
    logits, record = model.forward(x, mode)
    model.backward(record, output_grad)
    saved = [{k: v.copy() for k, v in n.state.items()} for n in model.nodes]
    worst = 0.0
    for _, node, name, param in model.parameters():
        def objective(p, node=node, name=name):
            old = node.params[name]
            node.params[name] = p
            out, _ = model.forward(x, mode)
            node.params[name] = old
            return np.sum(out * output_grad)

        numeric = central_diff(objective, param)
        worst = max(worst, rel_err(node.grads[name], numeric, floor=nn.DENOM_FLOOR).max())
    for n, st in zip(model.nodes, saved):
        n.state.update(st)
    assert worst < tol, f"max rel err {worst:.3e}"


def _directional_derivative(model, x, output_grad, mode, eps=1e-5):
    """(J(theta + eps d) - J(theta - eps d)) / 2 eps for one random direction d,
    against the analytic sum of grad . d.  Two forwards check every parameter
    partial at once, so the full-size reference models stay cheap to verify.
    The direction is unit L2 norm so the probe stays well inside the piecewise
    region around theta instead of stepping over ReLU kinks."""
    rng = np.random.default_rng(777)
    direction = [rng.standard_normal(p.shape) for _, _, _, p in model.parameters()]
    norm = np.sqrt(sum(float(np.sum(d * d)) for d in direction))
    direction = [d / norm for d in direction]
    model.zero_grads()
    _, record = model.forward(x, mode)
    model.backward(record, output_grad)
    analytic = sum(float(np.sum(node.grads[name] * d)) for (_, node, name, _), d in zip(model.parameters(), direction))
    saved = [{k: v.copy() for k, v in n.state.items()} for n in model.nodes]

    def shift(sign):
        for (_, node, name, p), d in zip(list(model.parameters()), direction):
            node.params[name] = p + sign * eps * d

    params0 = [p for _, _, _, p in model.parameters()]
    shift(+1)
    jp = float(np.sum(model.forward(x, mode)[0] * output_grad))
    for (_, node, name, _), p in zip(list(model.parameters()), params0):
        node.params[name] = p
    shift(-1)
    jm = float(np.sum(model.forward(x, mode)[0] * output_grad))
    for (_, node, name, _), p in zip(list(model.parameters()), params0):
        node.params[name] = p
    for n, st in zip(model.nodes, saved):
        n.state.update(st)
    numeric = (jp - jm) / (2 * eps)
    return rel_err(analytic, numeric).item()


class TestFiniteDifference:
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_micro_cnn_grads(self, mode):
        model = micro_cnn(seed=11)
        rng = np.random.default_rng(21)
        x = rng.normal(size=(3, 1, 6, 6))
        g = rng.normal(size=(3, 3))
        _fd_check_params(model, x, g, mode, 1e-6)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_micro_residual_grads(self, mode):
        model = micro_residual(seed=12)
        rng = np.random.default_rng(22)
        x = rng.normal(size=(3, 1, 4, 4))
        g = rng.normal(size=(3, 2))
        _fd_check_params(model, x, g, mode, 1e-6)

    def test_mlp_grads(self):
        model = build_mlp_small(image_size=8, seed=13).astype(np.float64)
        rng = np.random.default_rng(23)
        x = rng.normal(size=(4, 1, 8, 8))
        g = rng.normal(size=(4, 4))
        _fd_check_params(model, x, g, "train", 1e-6)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("name", ["mlp_small", "cnn_small", "cnn_residual"])
    def test_reference_models_directional(self, name, mode):
        model = build_reference_models(seed=1)[name].astype(np.float64)
        rng = np.random.default_rng(5151)
        x = rng.uniform(0.0, 1.0, size=(2, 1, 16, 16))
        g = rng.normal(size=(2, 4))
        assert _directional_derivative(model, x, g, mode) < 1e-6

    def test_site_input_grads_match_fd(self):
        # Perturbing a site's producer bias shifts its pre-activation
        # uniformly, so d<logits,G>/d(bias_c) equals the channel sum of the
        # returned site gradient.
        model = build_mlp_small(image_size=8, seed=14).astype(np.float64)
        rng = np.random.default_rng(24)
        x = rng.normal(size=(4, 1, 8, 8))
        g = rng.normal(size=(4, 4))
        _, record = model.forward(x, "eval")
        node_index = site_by_id(model, "fc2").node_index
        grads = model.backward(record, g, taps=[node_index])
        node = model.nodes[node_index]

        def objective(b):
            old = node.params["bias"]
            node.params["bias"] = b
            out, _ = model.forward(x, "eval")
            node.params["bias"] = old
            return np.sum(out * g)

        numeric = central_diff(objective, node.params["bias"])
        analytic = grads[node_index].sum(axis=0)
        assert rel_err(analytic, numeric).max() < 1e-6


class _BrokenConv(Conv2d):
    def backward(self, grad, cache):
        out = super().backward(grad, cache)
        self.grads["weight"] *= 1.01
        return out


class TestGradientCheck:
    def test_passes_on_small_models(self):
        rng = np.random.default_rng(4)
        for model, shape in [
            (micro_cnn(seed=2), (2, 1, 6, 6)),
            (micro_residual(seed=2), (2, 1, 4, 4)),
            (build_mlp_small(image_size=8, seed=2).astype(np.float64), (2, 1, 8, 8)),
        ]:
            report = gradient_check(model, rng.normal(size=shape))
            assert report.passed, repr(report)

    def test_running_stats_restored(self):
        model = micro_cnn(seed=2)
        bn = model.nodes[1]
        before = bn.state["running_mean"].copy()
        gradient_check(model, np.random.default_rng(4).normal(size=(2, 1, 6, 6)))
        assert np.array_equal(bn.state["running_mean"], before)

    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_replays_only_the_nodes_a_parameter_reaches(self, monkeypatch, mode):
        model = micro_cnn(seed=2)
        calls = []
        for i, node in enumerate(model.nodes):
            monkeypatch.setattr(node, "forward", lambda xs, m, c, i=i, f=node.forward: calls.append(i) or f(xs, m, c))
        gradient_check(model, np.random.default_rng(4).normal(size=(2, 1, 6, 6)), mode=mode)
        sizes = np.cumsum([sum(p.size for p in node.params.values()) for node in model.nodes])
        # one unperturbed forward, then two forwards of nodes k onward per parameter element of node k
        assert [calls.count(i) for i in range(len(model.nodes))] == [1 + 2 * int(n) for n in sizes]

    def test_names_node_with_broken_backward(self):
        bad = _BrokenConv("badconv", [INPUT], 1, 2, 3, padding=1)
        rng = np.random.default_rng(6)
        bad.params["weight"] = rng.normal(size=(2, 1, 3, 3))
        bad.zero_grads()
        nodes = [bad, Flatten("f", [0]), Linear("fc", [1], 2 * 16, 3)]
        nodes[2].params["weight"] = rng.normal(size=(3, 32))
        nodes[2].params["bias"] = np.zeros(3)
        nodes[2].zero_grads()
        model = Model(as_float64(nodes), (1, 4, 4), 3, dtype=np.float64)
        report = gradient_check(model, rng.normal(size=(2, 1, 4, 4)))
        assert not report.passed
        assert report.failing_node == "badconv"

    def test_zero_parameter_model_passes_vacuously(self):
        nodes = [AvgPool("p", [INPUT], 2), Flatten("f", [0])]
        model = Model(nodes, (1, 2, 2), 1, dtype=np.float64)
        report = gradient_check(model, np.ones((2, 1, 2, 2)))
        assert report.passed and report.max_rel_error == 0.0

    def test_rejects_float32_model(self):
        model = build_mlp_small(image_size=8)
        with pytest.raises(InputError, match="float64"):
            gradient_check(model, np.zeros((1, 1, 8, 8)))

    @pytest.mark.parametrize("arguments,match", [
        (dict(x="a"), "x must be numeric"),
        (dict(x=np.zeros((2, 1, 8, 8), complex)), "x must be real"),
        (dict(output_grad="a"), "output_grad must be numeric"),
        (dict(output_grad=np.zeros((2, 4), complex)), "output_grad must be real"),
        (dict(tolerance="a"), "tolerance must be a finite number > 0, got 'a'"),
        (dict(tolerance=0), "tolerance must be a finite number > 0, got 0"),
        (dict(tolerance=float("nan")), "tolerance must be a finite number > 0, got nan"),
        (dict(eps=-1e-5), "eps must be a finite number > 0, got -1e-05"),
        (dict(eps=float("inf")), "eps must be a finite number > 0, got inf"),
        (dict(eps=True), "eps must be a finite number > 0, got True"),
    ], ids=["string_x", "complex_x", "string_output_grad", "complex_output_grad", "string_tolerance",
            "zero_tolerance", "nan_tolerance", "negative_eps", "infinite_eps", "bool_eps"])
    def test_bad_argument_is_input_error(self, arguments, match):
        # a string x raised a bare ValueError, a complex one lost its imaginary part,
        # and tolerance="a" raised numpy's UFuncTypeError
        model = build_mlp_small(image_size=8).astype(np.float64)
        with pytest.raises(InputError, match=match):
            gradient_check(model, **{"x": np.zeros((2, 1, 8, 8)), **arguments})


def _masked(model, seed):
    """apply_mask with a random keep vector per site, each keeping at least one channel."""
    rng = np.random.default_rng(seed)
    keep = {}
    for s in model.sites:
        k = rng.random(s.channels) < 0.6
        k[rng.integers(s.channels)] = True
        keep[s.site_id] = k
    return pruning.apply_mask(model, pruning.PruneMask(keep))


@st.composite
def fan_out_graphs(draw):
    """A float64 model on (2, 4, 4) inputs and a batch for it: 1-5 image nodes (conv, batch norm,
    ReLU, residual add, k=2 pool) with a Flatten among or after them, 0-2 flat nodes, a Linear head.
    Every node reads earlier values of the shape it takes, so values fan out to several readers."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shapes, nodes = {INPUT: (2, 4, 4)}, []

    def add(node, shape):
        shapes[len(nodes)] = shape
        nodes.append(node)

    def ref(ndim):
        return draw(st.sampled_from([v for v, s in shapes.items() if len(s) == ndim]))

    def batch_norm(name, r, c):
        node = BatchNorm(name, [r], c)
        node.params.update(gamma=rng.uniform(0.5, 2.0, c), beta=rng.normal(size=c))
        node.state.update(running_mean=rng.normal(size=c), running_var=rng.uniform(0.5, 2.0, c))
        return node

    images = draw(st.integers(1, 5))
    flatten_at = draw(st.integers(0, images))
    for i in range(images + 1):
        if i == flatten_at:
            r = ref(3)
            add(Flatten(f"flat{i}", [r]), (int(np.prod(shapes[r])),))
            continue
        kind = draw(st.sampled_from(["conv", "batch_norm", "relu", "add", "max_pool", "avg_pool"]))
        r = ref(3)
        c, h, w = shapes[r]
        if kind == "conv":
            out = draw(st.integers(1, 3))
            node = Conv2d(f"conv{i}", [r], c, out, 3, padding=1)
            node.params.update(weight=rng.normal(size=(out, c, 3, 3)), bias=rng.normal(size=out))
            add(node, (out, h, w))
        elif kind == "batch_norm":
            add(batch_norm(f"bn{i}", r, c), (c, h, w))
        elif kind == "add":
            other = draw(st.sampled_from([v for v, s in shapes.items() if s == (c, h, w)]))
            add(ResidualAdd(f"add{i}", [r, other]), (c, h, w))
        elif kind.endswith("pool") and h % 2 == 0:
            add((MaxPool if kind == "max_pool" else AvgPool)(f"pool{i}", [r]), (c, h // 2, w // 2))
        else:
            add(ReLU(f"relu{i}", [r]), (c, h, w))
    for i in range(draw(st.integers(0, 2))):
        kind, r = draw(st.sampled_from(["batch_norm", "relu", "add"])), ref(1)
        if kind == "batch_norm":
            add(batch_norm(f"flat_bn{i}", r, shapes[r][0]), shapes[r])
        elif kind == "add":
            add(ResidualAdd(f"flat_add{i}", [r, ref(1)]), shapes[r])
        else:
            add(ReLU(f"flat_relu{i}", [r]), shapes[r])
    last = max(v for v, s in shapes.items() if len(s) == 1)
    width = shapes[last][0]
    head = Linear("fc", [last], width, 3)
    head.params.update(weight=rng.normal(size=(3, width)), bias=rng.normal(size=3))
    nodes.append(head)
    return Model(nodes, (2, 4, 4), 3, dtype=np.float64), rng.normal(size=(draw(st.integers(1, 3)), 2, 4, 4))


class TestRecordFreeForward:
    """forward(x, "eval", record=False): no record, no caches, values dropped
    after their last reader, batch norm and ReLU writing over a dead input."""

    @pytest.mark.parametrize("name", ["mlp_small", "cnn_small", "cnn_residual"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("masks", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 5, 200])
    def test_logits_equal_the_recorded_forward_byte_for_byte(self, name, dtype, masks, n):
        model = _jiggle(nn.MODEL_BUILDERS[name](seed=3), 3).astype(dtype)
        rng = np.random.default_rng(n)
        for node in model.nodes:
            if node.kind == "batch_norm":
                node.state["running_mean"] = rng.normal(size=node.channels, scale=0.3).astype(dtype)
                node.state["running_var"] = rng.uniform(0.5, 2.0, size=node.channels).astype(dtype)
        for seed in range(masks):  # masked, then masked on masked
            model = _masked(model, seed)
        x = rng.normal(size=(n, 1, 16, 16)).astype(dtype)
        want, _ = model.forward(x, "eval")
        got, record = model.forward(x, "eval", record=False)
        assert record is None
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=fan_out_graphs(), draw=st.data())
    def test_any_graph_gives_the_recorded_logits_and_keeps_the_callers_images(self, case, draw):
        """Each value is its own buffer: an in-place write by a value's last reader reaches no other value.
        One node is rewired after build to another earlier value of its ref's shape: the last readers
        are the refs' as they are at the forward, not as built."""
        model, x = case
        shapes = model.check()
        rewires = [(i, j, v) for i, node in enumerate(model.nodes) for j, r in enumerate(node.refs)
                   for v in range(INPUT, i) if v != r and shapes[v] == shapes[r]]
        if rewires:
            i, j, v = draw.draw(st.sampled_from(rewires))
            model.nodes[i].refs[j] = v
        before = x.copy()
        want, _ = model.forward(x, "eval")
        got, _ = model.forward(x, "eval", record=False)
        assert x.tobytes() == before.tobytes()
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("first", [BatchNorm("bn", [INPUT], 2), ReLU("relu", [INPUT]), Flatten("flat", [INPUT])])
    def test_the_callers_images_are_never_written(self, first):
        rng = np.random.default_rng(7)
        width = 2 * 3 * 3
        nodes = [first, ReLU("relu2", [0]), Flatten("f", [1]), Linear("fc", [2], width, 3)]
        if first.kind == "batch_norm":
            first.state["running_mean"] = rng.normal(size=2)
        nodes[3].params["weight"] = rng.normal(size=(3, width))
        model = Model(as_float64(nodes), (2, 3, 3), 3, dtype=np.float64)
        x = rng.normal(size=(4, 2, 3, 3))
        before = x.copy()
        want, _ = model.forward(x, "eval")
        got, _ = model.forward(x, "eval", record=False)
        assert x.tobytes() == before.tobytes()
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["relu", "batch_norm"])
    def test_a_buffer_a_flatten_view_still_reads_is_not_overwritten(self, kind):
        """Node 2 is the last node to read node 0 itself, but node 4 reads
        node 1, a view of node 0's buffer: node 2 must leave that buffer alone."""
        rng = np.random.default_rng(8)
        conv = Conv2d("conv", [INPUT], 1, 2, 3, padding=1)
        conv.params["weight"] = rng.normal(size=(2, 1, 3, 3))
        conv.params["bias"] = rng.normal(size=2)
        mid = ReLU("mid", [0]) if kind == "relu" else BatchNorm("mid", [0], 2)
        fc = Linear("fc", [4], 2 * 16, 3)
        fc.params["weight"] = rng.normal(size=(3, 32))
        nodes = [conv, Flatten("f1", [0]), mid, Flatten("f2", [2]), ResidualAdd("add", [1, 3]), fc]
        model = Model(as_float64(nodes), (1, 4, 4), 3, dtype=np.float64)
        x = rng.normal(size=(3, 1, 4, 4))
        want, _ = model.forward(x, "eval")
        got, _ = model.forward(x, "eval", record=False)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["cnn_small", "cnn_residual"])
    def test_batch_norm_and_relu_overwrite_their_input_and_nothing_else(self, name, monkeypatch):
        model = nn.MODEL_BUILDERS[name](seed=1)
        written = {}
        for i, node in enumerate(model.nodes):
            def spy(xs, mode, cache, i=i, f=node.forward):
                out = f(xs, mode, cache)
                written[i] = np.shares_memory(out, xs[0])
                return out
            monkeypatch.setattr(node, "forward", spy)
        model.forward(np.random.default_rng(2).normal(size=(3, 1, 16, 16)), "eval", record=False)
        readers = [[j for j, n in enumerate(model.nodes) if i in n.refs] for i in range(len(model.nodes))]
        want = {i: node.kind in ("batch_norm", "relu") and readers[node.refs[0]] == [i]
                for i, node in enumerate(model.nodes)}
        assert written == want and any(want.values())

    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_gradient_check_reports_the_same_and_keeps_its_record(self, mode, monkeypatch):
        """Against a replay that keeps a record, on the three architectures,
        over the first 6 elements of every parameter (so from every node a
        parameter sits on); the values gradient_check replays from are never written."""
        prefixes = []
        run, parameters = Model._run, Model.parameters

        def replay(self, values, caches, x, mode, recorded=False):
            if recorded:
                return run(self, values, [] if caches is None else caches, x, mode)
            prefix = list(values)
            before = [v.tobytes() for v in prefix]
            out = run(self, values, caches, x, mode)
            prefixes.append([v.tobytes() for v in prefix] == before)
            return out

        monkeypatch.setattr(Model, "parameters", lambda self: (
            (i, node, name, p.reshape(-1)[:6]) for i, node, name, p in parameters(self)))
        models = [builder(seed=2).astype(np.float64) for builder in nn.MODEL_BUILDERS.values()]
        x = np.random.default_rng(9).uniform(0.0, 1.0, size=(2, 1, 16, 16))
        monkeypatch.setattr(Model, "_run", lambda *a: replay(*a, recorded=True))
        want = [repr(gradient_check(model, x, mode=mode).entries) for model in models]
        monkeypatch.setattr(Model, "_run", replay)
        assert [repr(gradient_check(model, x, mode=mode).entries) for model in models] == want
        # each model's unperturbed forward, then two replays per parameter element
        assert len(prefixes) == sum(1 + sum(2 * min(p.size, 6) for *_, p in parameters(m)) for m in models)
        assert all(prefixes)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_two_classes(self):
        # softmax of [0,0] is [1/2,1/2]; mean loss ln 2, grads +-0.25 at N=2
        logits = np.zeros((2, 2))
        loss, grad = softmax_cross_entropy(logits, np.array([0, 1]))
        assert abs(loss - np.log(2.0)) < 1e-12
        assert np.allclose(grad, [[-0.25, 0.25], [0.25, -0.25]], atol=1e-12)

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(31)
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        _, grad = softmax_cross_entropy(logits, labels)
        numeric = central_diff(lambda z: softmax_cross_entropy(z, labels)[0], logits)
        assert rel_err(grad, numeric).max() < 1e-6

    def test_extreme_logits_stay_finite(self):
        loss, grad = softmax_cross_entropy(np.array([[1000.0, -1000.0]]), np.array([1]))
        assert np.isfinite(loss) and np.isfinite(grad).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0])
    def test_grad_is_softmax_minus_onehot_bytewise(self, dtype, scale):
        rng = np.random.default_rng(7)
        logits = (rng.normal(size=(33, 7)) * scale).astype(dtype)
        labels = rng.integers(0, 7, size=33)
        expected = softmax(logits)
        expected[np.arange(33), labels] -= 1
        _, grad = softmax_cross_entropy(logits, labels)
        assert grad.dtype == dtype and grad.tobytes() == (expected / 33).tobytes()

    def test_label_out_of_range(self):
        with pytest.raises(InputError, match="range"):
            softmax_cross_entropy(np.zeros((1, 3)), np.array([3]))
        with pytest.raises(InputError, match="range"):
            softmax_cross_entropy(np.zeros((1, 3)), np.array([-1]))

    def test_float_labels_rejected(self):
        with pytest.raises(InputError, match="integer"):
            softmax_cross_entropy(np.zeros((1, 3)), np.array([0.0]))

    @pytest.mark.parametrize("logits,shape", [(np.zeros(3), r"\(3,\)"), (np.zeros((1, 1, 3)), r"\(1, 1, 3\)"),
                                              (0.0, r"\(\)")], ids=["1d", "3d", "scalar"])
    def test_logits_must_be_2d(self, logits, shape):
        # a 1-D array raised a bare ValueError ("not enough values to unpack")
        with pytest.raises(ShapeError, match=r"logits must be \[N, K\], got " + shape):
            softmax_cross_entropy(logits, np.array([0]))


class TestSizesAreArrayShapes:
    @pytest.mark.parametrize("node,arrays,hyper", [
        (Conv2d("c", [INPUT], 1, 16, 3), {"weight": np.zeros((8, 2, 5, 5))},
         {"in_channels": 2, "out_channels": 8, "kernel": 5, "stride": 1, "padding": 0, "bias": False}),
        (Linear("fc", [INPUT], 2, 3, bias=False), {"weight": np.zeros((5, 4)), "bias": np.zeros(5)},
         {"in_features": 4, "out_features": 5, "bias": True}),
        (BatchNorm("bn", [INPUT], 3), {"gamma": np.ones(6), "beta": np.zeros(6)},
         {"channels": 6, "eps": 1e-5, "momentum": 0.9}),
    ], ids=["conv", "linear", "batch_norm"])
    def test_channels_and_hyper_read_the_arrays(self, node, arrays, hyper):
        node.params = arrays
        assert node.channels == len(next(iter(arrays.values())))
        assert node.hyper() == hyper

    def test_linear_checks_its_input_against_the_weight(self):
        node = Linear("fc", [INPUT], 2, 3)
        node.params["weight"] = np.zeros((4, 5))
        assert node.out_shape([(5,)]) == (4,)
        with pytest.raises(ShapeError, match=r"linear expects \(5,\) input, got \(2,\)"):
            node.out_shape([(2,)])


class TestReferenceModels:
    def test_param_counts_are_frozen(self):
        models = build_reference_models()
        assert models["mlp_small"].param_count() == 8820
        assert models["cnn_small"].param_count() == 11172
        assert models["cnn_residual"].param_count() == 9892

    def test_forward_shapes(self):
        x = np.random.default_rng(0).normal(size=(3, 1, 16, 16)).astype(np.float32)
        for model in build_reference_models().values():
            logits, _ = model.forward(x, "eval")
            assert logits.shape == (3, 4)
            assert np.isfinite(logits).all()

    def test_sites(self):
        models = build_reference_models()
        assert [(s.site_id, s.channels) for s in models["mlp_small"].sites] == [("fc1", 32), ("fc2", 16)]
        assert [(s.site_id, s.channels) for s in models["cnn_small"].sites] == [
            ("conv1", 16),
            ("conv2", 24),
            ("conv3", 32),
        ]
        assert [(s.site_id, s.channels) for s in models["cnn_residual"].sites] == [("conv2", 16), ("conv4", 24)]
        for model in models.values():
            for s in model.sites:
                assert model.nodes[s.node_index].channels == s.channels

    def test_residual_branch_nodes_are_not_prunable(self):
        model = build_cnn_residual()
        site_nodes = {s.node_index for s in model.sites}
        add = next(n for n in model.nodes if n.kind == "residual_add")
        # neither input of the add may be downstream of a prunable site
        # without an intervening channel-changing node; here both producers
        # (bn3 chain and pool1 chain) trace back to non-prunable convs
        assert not (set(add.refs) & site_nodes)

    def test_zeroed_residual_block_passes_skip_through(self):
        model = build_cnn_residual(seed=5).astype(np.float64)
        for idx in (4, 7):  # conv2, conv3
            model.nodes[idx].params["weight"][:] = 0
        for idx in (5, 8):  # bn2, bn3
            model.nodes[idx].params["gamma"][:] = 0
            model.nodes[idx].params["beta"][:] = 0
        x = np.random.default_rng(8).normal(size=(2, 1, 16, 16))
        _, record = model.forward(x, "eval")
        assert np.array_equal(record.values[9], record.values[3])  # add == pool1

    def test_same_seed_builds_identical_models(self):
        a = build_cnn_small(seed=42)
        b = build_cnn_small(seed=42)
        for (_, _, name, pa), (_, _, _, pb) in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa, pb), name

    def test_forward_is_bitwise_repeatable(self):
        model = build_cnn_small(seed=1)
        x = np.random.default_rng(2).normal(size=(4, 1, 16, 16)).astype(np.float32)
        a, _ = model.forward(x, "eval")
        b, _ = model.forward(x, "eval")
        assert np.array_equal(a, b)

    def test_astype_round_trip(self):
        model = build_mlp_small(seed=3)
        promoted = model.astype(np.float64)
        assert promoted.nodes[1].params["weight"].dtype == np.float64
        x = np.random.default_rng(4).normal(size=(2, 1, 16, 16))
        a, _ = model.forward(x.astype(np.float32), "eval")
        b, _ = promoted.forward(x, "eval")
        assert np.abs(a - b).max() < 1e-5

    def test_clone_is_independent(self):
        model = build_mlp_small(seed=3)
        twin = model.clone()
        twin.nodes[1].params["weight"][:] = 0
        assert model.nodes[1].params["weight"].any()


class TestGates:
    def test_reference_gates(self):
        models = build_reference_models()
        gates = {name: [m.gates(s) for s in m.sites] for name, m in models.items()}
        assert gates == {
            "mlp_small": [[1], [3]],
            "cnn_small": [[0, 1], [4, 5], [8, 9]],
            "cnn_residual": [[4, 5], [11, 12]],
        }

    def test_every_batch_norm_reading_the_site(self):
        nodes = [
            nn.Linear("fc", [INPUT], 2, 2),
            nn.BatchNorm("bn_a", [0], 2),
            nn.ReLU("relu", [0]),
            nn.BatchNorm("bn_b", [0], 2),
            nn.BatchNorm("bn_c", [1], 2),
        ]
        model = Model(nodes, (2,), 2, [Site("fc", 0, 2)])
        assert model.gates(model.sites[0]) == [0, 1, 3]


class TestMasks:
    def test_masked_channels_are_zero_in_record(self):
        model = build_cnn_small(seed=9).astype(np.float64)
        site = site_by_id(model, "conv2")
        keep = np.ones(site.channels)
        keep[[1, 5]] = 0.0
        model.masks[site.node_index] = keep  # the site's one mask gates conv2 and bn2
        model.nodes[5].state["running_mean"][:] = -0.5  # the batch norm would re-bias a channel it did not gate
        x = np.random.default_rng(10).normal(size=(2, 1, 16, 16))
        _, record = model.forward(x, "eval")
        for i in model.gates(site):
            assert not record.values[i][:, [1, 5]].any()
            assert record.values[i][:, 0].any()

    def test_masked_channel_params_get_zero_grads(self):
        model = build_cnn_small(seed=9).astype(np.float64)
        site = site_by_id(model, "conv2")
        keep = np.ones(site.channels)
        keep[3] = 0.0
        model.masks[site.node_index] = keep
        x = np.random.default_rng(11).normal(size=(2, 1, 16, 16))
        logits, record = model.forward(x, "eval")
        model.zero_grads()
        model.backward(record, np.ones_like(logits))
        conv = model.nodes[site.node_index]
        assert not conv.grads["weight"][3].any()
        assert conv.grads["weight"][0].any()

    @pytest.mark.parametrize("index,length,match", [
        (0, 5, r"mask on node 0: shape \(5,\), node has 16 channels"),
        (99, 16, "mask on node 99: no such node"),
        (13, 4, r"node 13 \(fc_out\) is a linear node, not a site node"),
        (2, 3, r"node 2 \(relu1\) is a relu node, not a site node"),
        (True, 16, "mask on node True: no such node"),
        (0.0, 16, r"mask on node 0\.0: no such node"),
        (1, 16, r"node 1 \(bn1\) is a batch_norm node, not a site node"),
    ], ids=["short", "no_node", "classifier", "relu", "bool_key", "float_key", "batch_norm_gate"])
    def test_forward_rejects_a_mask_that_breaks_the_rule(self, index, length, match):
        model = build_cnn_small(seed=0)
        model.masks[index] = np.ones(length, np.float32)
        with pytest.raises(InputError, match=match):
            model.forward(np.zeros((2, 1, 16, 16)), "eval")

    def test_site_mask_gates_every_gate_node(self):
        model = build_cnn_residual(seed=2).astype(np.float64)
        site = site_by_id(model, "conv4")
        keep = np.ones(site.channels)
        keep[[0, 7]] = 0.0
        model.masks[site.node_index] = keep
        assert [i for i in range(len(model.nodes)) if model.gate_mask(i) is not None] == model.gates(site)
        _, record = model.forward(np.random.default_rng(12).normal(size=(2, 1, 16, 16)), "eval")
        for i in model.gates(site):
            assert not record.values[i][:, [0, 7]].any()

    def test_a_batch_norm_rewired_to_a_site_after_build_gates_it(self):
        # bn3 (node 8) rewired from conv3 to conv2: gates(conv2) lists it, and the forward must zero it there too
        model = build_cnn_residual(seed=2)
        site = site_by_id(model, "conv2")
        model.masks[site.node_index] = (np.arange(site.channels) % 2).astype(np.float32)
        model.nodes[8].params["beta"][:] = 0.5
        model.nodes[8].refs = [4]
        _, record = model.forward(np.random.default_rng(13).normal(size=(2, 1, 16, 16)), "eval")
        assert model.gates(site) == [4, 5, 8]
        for i in model.gates(site):
            assert not record.values[i][:, ::2].any()
            assert record.values[i][:, 1::2].any()

    def test_a_batch_norm_site_gates_with_its_mask_times_the_mask_of_the_site_it_reads(self):
        # bn is a site of its own and a gate of site fc: masks compose there, whatever the site order
        nodes = [nn.Linear("fc", [INPUT], 2, 3), nn.BatchNorm("bn", [0], 3), nn.Linear("out", [1], 3, 2)]
        for sites in ([Site("fc", 0, 3), Site("bn", 1, 3)], [Site("bn", 1, 3), Site("fc", 0, 3)]):
            model = Model(nodes, (2,), 2, sites)
            model.masks = {0: np.array([1, 0, 1], np.float32), 1: np.array([0, 1, 1], np.float32)}
            assert [model.gate_mask(i).tolist() for i in (0, 1)] == [[1, 0, 1], [0, 0, 1]]
            model.masks = {1: np.array([0, 1, 1], np.float32)}
            assert model.gate_mask(0) is None and model.gate_mask(1).tolist() == [0, 1, 1]
            model.masks = {0: np.array([1, 0, 1], np.float32)}
            assert [model.gate_mask(i).tolist() for i in (0, 1)] == [[1, 0, 1], [1, 0, 1]]
            assert model.gate_mask(2) is None

    def test_pruning_a_conv_site_zeroes_the_batch_norm_site_that_reads_it(self):
        # the conv site's channel 3 is pruned and the bn site keeps all: the bn output there is 0, not its bias
        model = conv_bn_probe_model(channels=5, seed=0)
        keep = {"conv": np.arange(5) != 3, "bn": np.ones(5, bool)}
        masked = pruning.apply_mask(model, pruning.PruneMask(keep))
        _, record = masked.forward(np.random.default_rng(1).normal(size=(4, 1, 4, 4)), "eval")
        assert not record.values[1][:, 3].any() and record.values[1][:, [0, 1, 2, 4]].all()
        assert pruning.validate_equivalence(model, pruning.PruneMask(keep)) <= 1e-5

    def test_masked_runs_do_not_rebuild_the_gate_map(self, monkeypatch):
        model = build_cnn_small(seed=0)
        calls = []
        gates = Model.gates
        monkeypatch.setattr(Model, "gates", lambda self, site: calls.append(site) or gates(self, site))
        masked = pruning.apply_mask(model, pruning.PruneMask({s.site_id: np.arange(s.channels) % 2 == 0
                                                              for s in model.sites}))
        masked.check()
        masked.forward(np.zeros((2, 1, 16, 16)), "eval")
        _, record = masked.forward(np.zeros((2, 1, 16, 16)), "train")
        masked.backward(record, np.ones((2, 4), np.float32))
        assert calls == []
        assert sorted(masked.masks) == [s.node_index for s in model.sites]


class TestValidation:
    def test_forward_ref_must_precede(self):
        with pytest.raises(InputError, match="precede"):
            Model([ReLU("r", [1]), ReLU("r2", [0])], (1,), 1)

    def test_input_shape_mismatch(self):
        model = build_mlp_small()
        with pytest.raises(ShapeError, match="input shape"):
            model.forward(np.zeros((1, 1, 8, 8)), "eval")

    def test_shape_error_names_node_index(self):
        nodes = [Flatten("f", [INPUT]), Linear("fc", [0], 10, 2)]
        with pytest.raises(InputError, match=r"^node 1 \(fc\): linear expects \(10,\) input, got \(4,\)$"):
            Model(nodes, (1, 2, 2), 2)

    @pytest.mark.parametrize("pool", [MaxPool, AvgPool])
    def test_a_pool_on_flat_input_is_refused_at_build_naming_it(self, pool):
        with pytest.raises(InputError, match=r"^node 1 \(p\): pool kernel 2 expects \(C, H, W\) input whose H and W "
                                             r"it divides, got \(16,\)$"):
            Model([Flatten("f", [INPUT]), pool("p", [0]), Linear("fc", [1], 16, 2)], (1, 4, 4), 2)

    @pytest.mark.parametrize("kernel", [3, 0])  # 0 raised ZeroDivisionError
    @pytest.mark.parametrize("record", [True, False])
    def test_a_node_changed_to_misfit_after_build_is_refused_before_any_node_runs(self, record, kernel):
        model = build_cnn_small(seed=0)
        model.nodes[3].kernel = kernel  # pool1
        before = model.nodes[1].state["running_mean"].copy()
        with pytest.raises(InputError, match=rf"^node 3 \(pool1\): pool kernel {kernel} expects"):
            model.forward(np.ones((2, 1, 16, 16)), "train", record=record)
        assert model.nodes[1].state["running_mean"].tobytes() == before.tobytes()  # bn1 did not run

    def test_stale_record_rejected(self):
        model = build_mlp_small()
        logits, record = model.forward(np.zeros((1, 1, 16, 16)), "eval")
        model.forward(np.zeros((1, 1, 16, 16)), "eval")
        with pytest.raises(StateError, match="stale"):
            model.backward(record, np.zeros_like(logits))

    def test_output_grad_shape_checked(self):
        model = build_mlp_small()
        _, record = model.forward(np.zeros((2, 1, 16, 16)), "eval")
        with pytest.raises(ShapeError, match="output_grad"):
            model.backward(record, np.zeros((3, 4)))

    @pytest.mark.parametrize("output_grad,match", [("a", "output_grad must be numeric"),
                                                   (np.ones((2, 4), complex), "output_grad must be real")],
                             ids=["string", "complex"])
    def test_output_grad_meets_the_input_rule(self, output_grad, match):
        # forward's rule: a string raised a bare ValueError, and complex values lost their imaginary part
        model = build_mlp_small()
        _, record = model.forward(np.zeros((2, 1, 16, 16)), "eval")
        with pytest.raises(InputError, match=match):
            model.backward(record, output_grad)

    @pytest.mark.parametrize("name", ["mlp_small", "cnn_small", "cnn_residual"])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_zero_example_batch_is_input_error(self, name, mode):
        model = nn.MODEL_BUILDERS[name]()
        with pytest.raises(InputError, match="at least one example"):
            model.forward(np.zeros((0, 1, 16, 16)), mode)

    @pytest.mark.parametrize("name", ["mlp_small", "cnn_small", "cnn_residual"])
    def test_non_numeric_input_is_input_error(self, name):
        model = nn.MODEL_BUILDERS[name]()
        with pytest.raises(InputError, match="input must be numeric"):
            model.forward(np.full((2, 1, 16, 16), "a"), "eval")

    @pytest.mark.parametrize("name", ["mlp_small", "cnn_small", "cnn_residual"])
    def test_complex_input_is_input_error(self, name):
        model = nn.MODEL_BUILDERS[name]()
        with pytest.raises(InputError, match="input must be real"):
            model.forward(np.zeros((2, 1, 16, 16), complex), "eval")

    def test_bad_mode_rejected(self):
        model = build_mlp_small()
        with pytest.raises(InputError, match="mode"):
            model.forward(np.zeros((1, 1, 16, 16)), "predict")

    @pytest.mark.parametrize("nodes,sites,match", [
        ([Linear("a", [INPUT], 2, 2), ReLU("r", [0, INPUT])], [], r"node 1 \(r\): relu takes 1 refs"),
        ([Linear("a", [INPUT], 2, 2), ResidualAdd("add", [0])], [], r"node 1 \(add\): residual_add takes 2 refs"),
        ([Linear("a", [INPUT], 2, 2), Linear("b", [0], 2, 2)], [Site("a", 7, 2)], r"node index 7 not in \[0, 2\)"),
        ([Linear("a", [INPUT], 2, 2), Linear("b", [0], 2, 2)], [Site("a", 0, 3)], "3 channels, node 0 has 2"),
        ([Linear("a", [INPUT], 2, 2), ReLU("r", [0])], [Site("r", 1, 2)], "2 channels, node 1 has"),
    ], ids=["relu_two_refs", "residual_add_one_ref", "site_out_of_range", "site_width", "site_on_relu"])
    def test_malformed_structure_rejected(self, nodes, sites, match):
        with pytest.raises(InputError, match=match):
            Model(nodes, (2,), 2, sites)

    @pytest.mark.parametrize("arguments,match", [
        (dict(nodes=[1, 2]), "nodes must be a non-empty list, each item a Node, got"),
        (dict(nodes=[]), "nodes must be a non-empty list"),
        (dict(sites=[1]), "sites must be unset or a list, each item a Site, got"),
        (dict(sites=Site("fc", 0, 2)), "sites must be unset or a list"),
        (dict(input_shape=16), "input_shape must be a non-empty list, each item an integer >= 1, got 16"),
        (dict(input_shape=(2, 0)), "input_shape must be a non-empty list"),
        (dict(num_classes=2.0), "num_classes must be an integer >= 1, got 2.0"),
        (dict(num_classes=0), "num_classes must be an integer >= 1, got 0"),
    ], ids=["int_nodes", "no_nodes", "int_site", "bare_site", "int_input_shape", "zero_input_size",
            "float_num_classes", "zero_num_classes"])
    def test_arguments_meet_the_data_rules(self, arguments, match):
        # an int node or site raised AttributeError, and input_shape=16 TypeError
        defaults = dict(nodes=[Linear("fc", [INPUT], 2, 2)], input_shape=(2,), num_classes=2)
        with pytest.raises(InputError, match=match):
            Model(**{**defaults, **arguments})

    @pytest.mark.parametrize("record", ["no", 1, None])
    def test_record_must_be_a_flag(self, record):
        # any truthy value recorded: record="no" returned a record
        model = build_mlp_small()
        with pytest.raises(InputError, match="record must be true or false"):
            model.forward(np.zeros((1, 1, 16, 16)), "eval", record=record)

    def test_duplicate_site_ids_rejected(self):
        nodes = [Linear("a", [INPUT], 2, 2), Linear("b", [0], 2, 2)]
        with pytest.raises(InputError, match="duplicate"):
            Model(nodes, (2,), 2, [Site("s", 0, 2), Site("s", 1, 2)])

    def test_two_sites_on_one_node_rejected(self):
        # masks are keyed by site node: two sites on node 0 would share one mask, and
        # apply_mask of {a: [1, 0, 1], b: [1, 1, 0]} would keep site a's pruned channel 1
        nodes = [Linear("fc", [INPUT], 2, 3), Linear("out", [0], 3, 2)]
        with pytest.raises(InputError, match="two sites on one node"):
            Model(nodes, (2,), 2, [Site("a", 0, 3), Site("b", 0, 3)])

    def test_record_of_another_model_rejected(self):
        # a masked clone copies the serial, so only the record's model tells the records apart
        model = build_cnn_small(seed=0)
        x = np.random.default_rng(0).normal(size=(2, 1, 16, 16))
        logits, record = model.forward(x, "eval")
        assert record.model is model
        keep = {s.site_id: np.ones(s.channels, bool) for s in model.sites}
        keep["conv2"][3] = False
        masked = pruning.apply_mask(model, pruning.PruneMask(keep))
        with pytest.raises(StateError, match="record of this model"):
            masked.backward(record, np.ones_like(logits))
        masked.zero_grads()
        _, own = masked.forward(x, "eval")
        masked.backward(own, np.ones_like(logits))
        assert not masked.nodes[8].grads["weight"][:, 3].any()

    @pytest.mark.parametrize("record", [None, "record", 0])
    def test_missing_record_rejected(self, record):
        model = build_mlp_small()
        logits, none = model.forward(np.zeros((2, 1, 16, 16)), "eval", record=False)
        assert none is None
        with pytest.raises(StateError, match="record of this model"):
            model.backward(record, np.zeros_like(logits))


@st.composite
def shape_chains(draw):
    """A float64 model on a random (C, H, W) input: up to 8 drawn nodes, convs (kernel 1-3, stride 1-2,
    padding below the kernel), batch norms, ReLUs, max and avg pools (kernel 2-3) and residual adds
    (of the last value and an earlier one of its shape), then a Flatten and a Linear head.  A pool
    draws a kernel that divides its input where one does; a drawn node whose rule refuses its input
    is left out, so every chain builds."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    input_shape = (draw(st.integers(1, 3)), draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    nodes, shapes = [], {INPUT: input_shape}

    def add(node):
        try:
            shapes[len(nodes)] = node.out_shape([shapes[r] for r in node.refs])
            nodes.append(node)
        except ShapeError:
            pass

    for i in range(draw(st.integers(1, 8))):
        last = len(nodes) - 1
        c, *hw = shapes[last]
        kind = draw(st.sampled_from(["conv", "max_pool", "conv", "avg_pool", "batch_norm", "relu", "add"]))
        if kind == "conv":
            k = draw(st.integers(1, 3))
            add(Conv2d(f"conv{i}", [last], c, draw(st.integers(1, 3)), k, stride=draw(st.sampled_from([2, 1])),
                       padding=draw(st.integers(0, k - 1))))
        elif kind == "batch_norm":
            add(BatchNorm(f"bn{i}", [last], c))
        elif kind == "relu":
            add(ReLU(f"relu{i}", [last]))
        elif kind == "add":
            add(ResidualAdd(f"add{i}", [last, draw(st.sampled_from([v for v in shapes if shapes[v] == shapes[last]]))]))
        else:
            kernel = draw(st.sampled_from([k for k in (2, 3) if not hw[0] % k and not hw[1] % k] or [2]))
            add((MaxPool if kind == "max_pool" else AvgPool)(f"pool{i}", [last], kernel=kernel))
    add(Flatten("flat", [len(nodes) - 1]))
    add(Linear("fc", [len(nodes) - 1], shapes[len(nodes) - 1][0], 3))
    model = Model(as_float64(nodes), input_shape, 3, dtype=np.float64)
    for _, node, name, p in model.parameters():
        node.params[name] = rng.normal(size=p.shape)
    return model


class TestShapeWalk:
    """Model.check gives the per-example shape of the input and of each node's output, by arithmetic."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(model=shape_chains(), n=st.integers(1, 3))
    def test_every_value_of_a_model_that_builds_has_its_walked_shape(self, model, n):
        x = np.random.default_rng(n).random((n,) + model.input_shape)
        logits, record = model.forward(x, "train")
        shapes = model.check()
        assert [v.shape for v in record.values] == [(n,) + shapes[i] for i in range(len(model.nodes))]
        model.zero_grads()
        model.backward(record, np.ones_like(logits))
        assert all(node.grads[k].shape == p.shape for _, node, k, p in model.parameters())

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(model=shape_chains())
    def test_a_conv_or_pool_that_misfits_its_input_is_refused_at_build_naming_it(self, model):
        shapes = model.check()
        for i, node in enumerate(model.nodes):
            if node.kind == "conv2d":  # one input channel more than the value it reads
                hyper = node.hyper()
                misfit = Conv2d(node.name, node.refs, **{**hyper, "in_channels": hyper["in_channels"] + 1})
            elif node.kind in ("max_pool", "avg_pool"):  # a kernel one above the input's height
                misfit = type(node)(node.name, node.refs, kernel=shapes[node.refs[0]][1] + 1)
            else:
                continue
            with pytest.raises(InputError, match=rf"^node {i} \({node.name}\): "):
                Model(model.nodes[:i] + as_float64([misfit]) + model.nodes[i + 1 :], model.input_shape,
                      model.num_classes, dtype=np.float64)


# values that tie inside a window: ReLU zeros of both signs, repeats, and
# negatives, so that the first-max rule decides most windows
_POOL_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]) | st.floats(-4, 4, width=32)
_GRAD_VALUES = st.sampled_from([0.0, -0.0, -1.5, 3.0]) | st.floats(-4, 4, width=32)


@st.composite
def max_pool_cases(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    k = draw(st.sampled_from([2, 3]))
    n, c, ho, wo = draw(st.tuples(*[st.integers(1, 3)] * 4))
    x = draw(hnp.arrays(dtype, (n, c, ho * k, wo * k), elements=_POOL_VALUES))
    if draw(st.booleans()):
        x = np.maximum(x, 0)  # what a ReLU hands the pool
    grad = draw(hnp.arrays(dtype, (n, c, ho, wo), elements=_GRAD_VALUES))
    return x, grad, k


def _max_pool_case(shape, k, dtype=np.float32):
    """A max_pool_cases draw of the given input shape, for an explicit example."""
    rng = np.random.default_rng(shape[0] + k)
    x = rng.choice(np.array([0.0, -0.0, 1.0, -1.0, 2.5], dtype), size=shape)
    grad = rng.choice(np.array([0.0, -0.0, -1.5, 3.0], dtype), size=(*shape[:2], shape[2] // k, shape[3] // k))
    return x, grad, k


def _max_pool_specials(dtype):
    """NaNs of both signs and two payloads, zeros of both signs, infinities and
    two ordinary values, so which operand np.maximum returns shows in the bytes."""
    bits = np.array([0, 1 << 63, 0x7FF8000000000001, 0xFFF8000000000000], np.uint64)
    if dtype == np.float32:
        bits = np.array([0, 1 << 31, 0x7FC00001, 0xFFC00000], np.uint32)
    return np.concatenate([bits.view(dtype), np.array([np.inf, -np.inf, 1.5, -2.0], dtype)])


def _corner_running_max(x, k):
    """np.maximum(later, running) over the k^2 strided corners in row-major order, from a copy of corner 0."""
    want = x[:, :, ::k, ::k].copy()
    for i in range(k):
        for j in range(k):
            if i or j:
                np.maximum(x[:, :, i::k, j::k], want, out=want)
    return want


class TestMaxPoolCorners:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=max_pool_cases())
    @example(case=_max_pool_case((70, 2, 6, 9), 3))  # three blocks, the last of 6 examples
    @example(case=_max_pool_case((40, 2, 4, 2), 2, np.float64))  # one window wide, over two blocks
    def test_forward_and_backward_match_the_argmax_oracle_byte_for_byte(self, case):
        x, grad, k = case
        node = MaxPool("p", [INPUT], kernel=k)
        cache = {}
        out = node.forward([x], "eval", cache)
        (gx,) = node.backward(grad, cache)
        want_out, want_backward = max_pool_oracle(x, k)
        want_gx = want_backward(grad)
        assert out.dtype == want_out.dtype and out.tobytes() == want_out.tobytes()
        assert gx.dtype == want_gx.dtype and gx.tobytes() == want_gx.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_equals_a_running_max_from_a_copy_of_corner_0(self, k, dtype):
        x = np.random.default_rng(k).choice(_max_pool_specials(dtype), size=(2, 3, 6 * k, 3 * k))
        out = MaxPool("p", [INPUT], kernel=k).forward([x], "eval", {})
        want = _corner_running_max(x, k)
        assert out.dtype == want.dtype and out.tobytes() == want.tobytes()
        assert not np.shares_memory(out, x)

    @pytest.mark.parametrize("k,shape", [(2, (2, 3, 4, 80)), (3, (2, 3, 6, 120)), (4, (1, 2, 8, 160)),
                                         (2, (32, 16, 16, 16)), (2, (200, 16, 16, 16)), (3, (70, 2, 6, 9)),
                                         (2, (40, 2, 4, 2)), (3, (70, 2, 3, 3)), (1, (40, 2, 3, 2))])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_equals_the_running_max_where_numpy_loops_are_contiguous(self, k, shape, dtype):
        # W = 40k gives 40-element rows of window maxima, where numpy's contiguous
        # (SIMD) loops run; (32, 16, 16, 16) is cnn_small's pool1 at batch 32; N = 40,
        # 70 and 200 cross the 32-example blocks, and W = k is an input one window wide
        x = np.random.default_rng(shape[-1] + k).choice(_max_pool_specials(dtype), size=shape)
        out = MaxPool("p", [INPUT], kernel=k).forward([x], "eval", {})
        assert out.tobytes() == _corner_running_max(x, k).tobytes()

    def test_forward_allocates_its_output_and_one_block_of_row_maxima(self):
        # the maxima over each window row's columns are half the input: for the whole batch they took
        # the peak to 2.41 MiB here; besides them, a strided np.maximum may buffer each of its three
        # operands, np.getbufsize() elements each
        x = np.maximum(np.random.default_rng(0).normal(size=(200, 16, 16, 16)), 0).astype(np.float32)
        block = x[tensor.blocks(len(x))[0]]
        tracemalloc.start()
        try:
            out = MaxPool("p", [INPUT], kernel=2).forward([x], "eval", {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + block.nbytes // 2 + 3 * np.getbufsize() * x.itemsize

    def test_nan_window_outputs_nan_and_passes_no_gradient(self):
        node = MaxPool("p", [INPUT], kernel=2)
        x = np.array([[[[1.0, np.nan, 5.0, 2.0], [3.0, 0.0, 1.0, 1.0]]]])
        cache = {}
        out = node.forward([x], "eval", cache)
        assert np.isnan(out[0, 0, 0, 0]) and out[0, 0, 0, 1] == 5.0
        (gx,) = node.backward(np.array([[[[7.0, 9.0]]]]), cache)
        assert np.array_equal(gx, [[[[0.0, 0.0, 9.0, 0.0], [0.0, 0.0, 0.0, 0.0]]]])


def _ran_backward(monkeypatch, model):
    """The indices of the nodes whose backward runs, in call order, collected into the returned list."""
    ran = []
    for cls in nn.NODE_KINDS.values():
        def spy(node, grad, cache, _backward=cls.backward):
            ran.append(next(i for i, n in enumerate(model.nodes) if n is node))
            return _backward(node, grad, cache)
        monkeypatch.setattr(cls, "backward", spy)
    return ran


# a tap list with one entry that is not a node index of a 14-node model, at a drawn position
_BAD_TAP = (st.booleans() | st.integers(max_value=-1) | st.integers(min_value=14) | st.floats()
            | st.sampled_from(["4", None, 4.0, np.float64(4.0), np.bool_(True), [4]]))
_BAD_TAPS = st.tuples(st.lists(st.integers(0, 13), max_size=4), _BAD_TAP, st.integers(0, 4)).map(
    lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:])


def _received_grads(monkeypatch, output_grad):
    """Weak references to every gradient array a node's backward receives, and for each call the number
    of arrays received before that are still alive, other than output_grad, the one handed in and the
    array it views (a flatten hands back a reshaped view), collected into the returned lists."""
    received, alive = [], []
    for cls in nn.NODE_KINDS.values():
        def spy(node, grad, cache, _backward=cls.backward):
            live = {id(a) for ref in received if (a := ref()) is not None}
            alive.append(len(live - {id(output_grad), id(grad), id(grad.base)}))
            received.append(weakref.ref(grad))
            return _backward(node, grad, cache)
        monkeypatch.setattr(cls, "backward", spy)
    return received, alive


def _every_third_pruned(model):
    """model with every third channel of each site masked, from channel 1."""
    model.masks = {s.node_index: (np.arange(s.channels) % 3 != 1).astype(model.dtype) for s in model.sites}
    return model


class TestBackwardToTaps:
    """Model.backward(taps=...) computes the node gradients that importance
    reads at its taps and nothing it does not: no parameter gradient, and no
    node whose refs neither are taps nor lie downstream of one."""

    @pytest.mark.parametrize("name", ["mlp_small", "cnn_small", "cnn_residual"])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_all_taps_give_the_training_weight_gradients_and_leave_node_grads(self, name, mode):
        # a training backward's weight gradient at a conv or linear node is the weight
        # adjoint of the gradient a taps backward returns there, times the node's mask
        model = _every_third_pruned(nn.MODEL_BUILDERS[name](seed=4))
        x = np.random.default_rng(5).normal(size=(3, 1, 16, 16)).astype(np.float32)
        output_grad = np.random.default_rng(6).normal(size=(3, 4))
        _, record = model.forward(x, mode)
        sentinel = {(i, k): np.full_like(v, 7.25)
                    for i, node in enumerate(model.nodes) for k, v in node.grads.items()}
        for (i, k), v in sentinel.items():
            model.nodes[i].grads[k] = v.copy()
        grads = model.backward(record, output_grad, taps=range(len(model.nodes)))
        assert list(grads) == list(range(len(model.nodes)))
        for (i, k), v in sentinel.items():
            assert model.nodes[i].grads[k].tobytes() == v.tobytes(), f"node {i} {k}"
        model.zero_grads()
        assert model.backward(record, output_grad) is None
        for i, node in enumerate(model.nodes):
            node_input, w, g = record.caches[i].get("x"), node.params.get("weight"), grads[i]
            if model.gate_mask(i) is not None:
                g = g * nn._row(model.gate_mask(i), g)
            if node.kind == "conv2d":
                gw = tensor.conv2d_grad_weight(node_input, w, g, node.stride, node.padding)
            elif node.kind == "linear":
                gw = g.T @ node_input
            else:
                continue
            assert node.grads["weight"].tobytes() == (np.zeros_like(w) + gw).tobytes(), f"node {i}"

    @pytest.mark.parametrize("name", ["mlp_small", "cnn_small", "cnn_residual"])
    def test_a_training_backward_drops_each_node_gradient_once_used(self, monkeypatch, name):
        # on the chains mlp_small and cnn_small no gradient outlives the node it was handed to; cnn_residual's
        # add hands its own to both refs, so it stays alive until the skip ref has run.  After the call none is.
        model = _every_third_pruned(nn.MODEL_BUILDERS[name](seed=4))
        logits, record = model.forward(np.random.default_rng(5).normal(size=(3, 1, 16, 16)), "train")
        output_grad = np.random.default_rng(6).normal(size=logits.shape).astype(np.float32)
        received, alive = _received_grads(monkeypatch, output_grad)
        model.backward(record, output_grad)
        assert len(received) > 1
        assert max(alive) == (1 if name == "cnn_residual" else 0)
        assert all(ref() is None or ref() is output_grad for ref in received)

    @pytest.mark.parametrize("name", ["mlp_small", "cnn_small", "cnn_residual"])
    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    def test_a_taps_backward_keeps_only_the_gradients_it_returns(self, monkeypatch, name, masked):
        model = nn.MODEL_BUILDERS[name](seed=4)
        model = _every_third_pruned(model) if masked else model
        taps = [i for s in model.sites for i in model.gates(s)]
        logits, record = model.forward(np.random.default_rng(5).normal(size=(3, 1, 16, 16)), "eval")
        output_grad = np.random.default_rng(6).normal(size=logits.shape).astype(np.float32)
        received, _ = _received_grads(monkeypatch, output_grad)
        grads = model.backward(record, output_grad, taps=taps)
        alive = [ref() for ref in received if ref() is not None]
        assert len(alive) < len(received)
        assert all(a is output_grad or any(a is g for g in grads.values()) for a in alive)

    def test_mlp_training_computes_no_gradient_below_fc1(self, monkeypatch):
        # fc1 reads the flatten of the model input: neither has a gradient anything reads
        model = build_mlp_small(seed=4)
        logits, record = model.forward(np.random.default_rng(5).normal(size=(3, 1, 16, 16)), "train")
        asked = {}
        linear_backward = Linear.backward

        def spy(node, grad, cache):
            asked[node.name] = cache["inputs"]
            return linear_backward(node, grad, cache)
        ran = _ran_backward(monkeypatch, model)
        monkeypatch.setattr(Linear, "backward", spy)
        model.backward(record, np.ones_like(logits))
        assert asked == {"fc_out": True, "fc2": True, "fc1": False}
        assert 0 not in ran  # the flatten
        assert model.nodes[1].grads["weight"].any()

    @pytest.mark.parametrize("estimator,first", [("taylorfo", 5), ("molchanov_bn", 6)])
    def test_residual_stem_runs_no_backward(self, monkeypatch, estimator, first):
        # cnn_residual's sites are conv2 (node 4) and conv4 (11); their batch norms are nodes 5 and 12
        model = build_cnn_residual(seed=4)
        taps = [imp._ESTIMATOR_ROWS[estimator][0](model, s) for s in model.sites]
        logits, record = model.forward(np.random.default_rng(5).normal(size=(3, 1, 16, 16)), "eval")
        ran = _ran_backward(monkeypatch, model)
        grads = model.backward(record, np.ones_like(logits), taps=taps)
        assert sorted(ran) == list(range(first, len(model.nodes)))
        assert list(grads) == taps
        for i in taps:
            assert grads[i].shape == record.values[i].shape

    def test_small_cnn_site_taps_run_every_node_with_work_left(self, monkeypatch):
        # conv1 (node 0) is the first site and reads only the model input: with no parameter
        # gradient its backward has nothing to compute, so taps skip it and run every other node
        model = build_cnn_small(seed=4)
        logits, record = model.forward(np.random.default_rng(5).normal(size=(3, 1, 16, 16)), "eval")
        ran = _ran_backward(monkeypatch, model)
        model.backward(record, np.ones_like(logits))
        assert sorted(ran) == list(range(len(model.nodes)))
        ran.clear()
        grads = model.backward(record, np.ones_like(logits), taps=[s.node_index for s in model.sites])
        assert sorted(ran) == list(range(1, len(model.nodes)))
        assert all(grads[s.node_index].shape == record.values[s.node_index].shape for s in model.sites)

    def test_residual_add_hands_no_gradient_to_an_untapped_ref(self, monkeypatch):
        # the add hands its own gradient to the refs it gives one: had pool1 (node 3), its skip ref,
        # got it, it would outlive bn3's backward, the add's tapped ref
        model = build_cnn_residual(seed=4)
        logits, record = model.forward(np.random.default_rng(5).normal(size=(2, 1, 16, 16)), "eval")
        output_grad = np.ones_like(logits)
        received, alive = _received_grads(monkeypatch, output_grad)
        grads = model.backward(record, output_grad, taps={4: None}.keys())
        assert list(grads) == [4]
        assert len(received) == len(model.nodes) - 5 and max(alive) == 0  # nodes 5 onward ran

    def test_a_tap_no_gradient_reaches_gets_zeros(self):
        # node 0 feeds nothing: a taps backward returns zeros for it
        nodes = [Linear("dead", [INPUT], 2, 3), Linear("out", [INPUT], 2, 2)]
        model = Model(nodes, (2,), 2, [Site("dead", 0, 3)])
        logits, record = model.forward(np.ones((2, 2)), "eval")
        grads = model.backward(record, np.ones_like(logits), taps=[0])
        assert grads[0].tobytes() == np.zeros((2, 3), np.float32).tobytes()
        table = imp.estimate(model, (np.ones((2, 2)), None), 2, "taylorfo", imp.GradientSource("random"))
        assert not table.scores().any()

    def test_taps_may_be_any_iterable_of_node_indices(self):
        model = build_cnn_small(seed=4)
        logits, record = model.forward(np.random.default_rng(5).normal(size=(2, 1, 16, 16)), "eval")
        want = model.backward(record, np.ones_like(logits), taps=range(len(model.nodes)))[4].tobytes()
        for taps in ([4], (4, 4), {4}, {"conv2": 4}.values(), np.array([4]), iter([np.int64(4)])):
            grads = model.backward(record, np.ones_like(logits), taps=taps)
            assert list(grads) == [4] and grads[4].tobytes() == want, taps

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(taps=_BAD_TAPS | st.sampled_from([[], 4, 4.0, "4", True]))
    def test_taps_must_be_node_indices(self, taps):
        model = build_cnn_small(seed=4)
        logits, record = model.forward(np.zeros((1, 1, 16, 16)), "eval")
        with pytest.raises(InputError, match="taps must be a non-empty list, each item an integer in \\[0, 13\\]"):
            model.backward(record, np.ones_like(logits), taps=taps)
