"""Layer graph tests: frozen forward examples, adjoint identities, and
finite-difference verification of every parameter gradient."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from prunelab import nn
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
    build_reference_models,
    gradient_check,
    softmax,
    softmax_cross_entropy,
)

from helpers import avg_pool_oracle, batch_norm_oracle, central_diff, max_pool_oracle, rel_err, site_by_id


def linear_model(weight, bias=None, dtype=np.float64):
    w = np.asarray(weight, dtype)
    node = Linear("fc", [INPUT], w.shape[1], w.shape[0], bias=bias is not None)
    node.params["weight"] = w
    if bias is not None:
        node.params["bias"] = np.asarray(bias, dtype)
    node.zero_grads()
    return Model([node], (w.shape[1],), w.shape[0], [Site("fc", 0, w.shape[0])], dtype=dtype)


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
        with pytest.raises(ShapeError, match="residual"):
            node.forward([np.ones((1, 2, 2, 2)), np.ones((1, 3, 2, 2))], "eval", {})


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

    def test_eval_mode_uses_running_stats(self):
        node = BatchNorm("bn", [INPUT], 2, eps=0.0)
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
    """Batch norm's passes run on (N, C*H*W) rows, per block of 32 examples;
    forward and backward bytes equal the broadcast formulas."""

    @pytest.mark.parametrize("shape", [(70, 3, 4, 4), (33, 5, 1, 1), (31, 6), (1, 2, 3, 3)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode,params", [("train", True), ("eval", True), ("eval", False)])
    def test_forward_and_backward_equal_the_broadcast_formulas(self, shape, dtype, mode, params):
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
        cache = {}
        out = node.forward([x], mode, cache)
        (dx,) = node.backward(grad, {**cache, "params": params})
        want_dx, want_dgamma, want_dbeta = want_backward(grad)
        assert out.dtype == want_out.dtype and out.tobytes() == want_out.tobytes()
        assert dx.dtype == want_dx.dtype and dx.tobytes() == want_dx.tobytes()
        if params:
            assert node.grads["gamma"].tobytes() == (np.zeros(c, dtype) + want_dgamma).tobytes()
            assert node.grads["beta"].tobytes() == (np.zeros(c, dtype) + want_dbeta).tobytes()
        else:
            assert not node.grads["gamma"].any() and not node.grads["beta"].any()


class TestEvalCaches:
    @pytest.mark.parametrize("name", ["mlp_small", "cnn_small", "cnn_residual"])
    def test_eval_record_holds_no_boolean_mask_and_no_xhat(self, name):
        model = nn.MODEL_BUILDERS[name](seed=1)
        _, record = model.forward(np.random.default_rng(2).normal(size=(3, 1, 16, 16)), "eval")
        for i, cache in enumerate(record.caches):
            assert "xhat" not in cache, f"node {i}"
            assert not any(getattr(v, "dtype", None) == bool for v in cache.values()), f"node {i}"

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


class TestBackward:
    def test_zero_output_grad_zeroes_everything(self):
        model = build_cnn_small(image_size=8, seed=3).astype(np.float64)
        x = np.random.default_rng(5).normal(size=(2, 1, 8, 8))
        logits, record = model.forward(x, "train")
        model.zero_grads()
        model.backward(record, np.zeros_like(logits))
        for _, node, name, _ in model.parameters():
            assert not node.grads[name].any(), f"{node.name}.{name} nonzero"
        for s in model.sites:
            assert not record.grads[s.node_index].any()

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
        model.backward(record, g)
        assert np.array_equal(record.grads[0], [[2.0, 2.0]])

    def test_site_grads_cover_all_sites(self):
        model = build_cnn_residual(image_size=8, seed=0).astype(np.float64)
        x = np.random.default_rng(0).normal(size=(2, 1, 8, 8))
        logits, record = model.forward(x, "eval")
        model.backward(record, np.ones_like(logits))
        assert len(record.grads) == len(model.nodes)
        for s in model.sites:
            assert record.grads[s.node_index].shape == record.values[s.node_index].shape


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
    model = Model(nodes, (1, 6, 6), 3, [Site("c1", 0, 3), Site("c2", 4, 4)], dtype=np.float64)
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
    model = Model(nodes, (1, 4, 4), 2, [Site("c2", 4, 3)], dtype=np.float64)
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
        model.backward(record, g)
        node_index = site_by_id(model, "fc2").node_index
        node = model.nodes[node_index]

        def objective(b):
            old = node.params["bias"]
            node.params["bias"] = b
            out, _ = model.forward(x, "eval")
            node.params["bias"] = old
            return np.sum(out * g)

        numeric = central_diff(objective, node.params["bias"])
        analytic = record.grads[node_index].sum(axis=0)
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

    def test_names_node_with_broken_backward(self):
        bad = _BrokenConv("badconv", [INPUT], 1, 2, 3, padding=1)
        rng = np.random.default_rng(6)
        bad.params["weight"] = rng.normal(size=(2, 1, 3, 3))
        bad.zero_grads()
        nodes = [bad, Flatten("f", [0]), Linear("fc", [1], 2 * 16, 3)]
        nodes[2].params["weight"] = rng.normal(size=(3, 32))
        nodes[2].params["bias"] = np.zeros(3)
        nodes[2].zero_grads()
        model = Model(nodes, (1, 4, 4), 3, dtype=np.float64)
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
        assert 0 in model.non_prunable and 7 in model.non_prunable
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
        model.masks[site.node_index] = keep
        x = np.random.default_rng(10).normal(size=(2, 1, 16, 16))
        _, record = model.forward(x, "eval")
        assert not record.values[site.node_index][:, [1, 5]].any()
        assert record.values[site.node_index][:, 0].any()

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
        (13, 4, r"node 13 \(fc_out\) is a linear node that gates no site"),
        (2, 3, r"node 2 \(relu1\) is a relu node that gates no site"),
        (True, 16, "mask on node True: no such node"),
        (0.0, 16, r"mask on node 0\.0: no such node"),
    ], ids=["short", "no_node", "classifier", "relu", "bool_key", "float_key"])
    def test_forward_rejects_a_mask_that_breaks_the_rule(self, index, length, match):
        model = build_cnn_small(seed=0)
        model.masks[index] = np.ones(length, np.float32)
        with pytest.raises(InputError, match=match):
            model.forward(np.zeros((2, 1, 16, 16)), "eval")


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
        model = Model(nodes, (1, 2, 2), 2)
        with pytest.raises(ShapeError, match=r"node 1 \(fc\)"):
            model.forward(np.zeros((1, 1, 2, 2)), "eval")

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

    def test_duplicate_site_ids_rejected(self):
        nodes = [Linear("a", [INPUT], 2, 2), Linear("b", [0], 2, 2)]
        with pytest.raises(InputError, match="duplicate"):
            Model(nodes, (2,), 2, [Site("s", 0, 2), Site("s", 1, 2)])


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


class TestMaxPoolCorners:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=max_pool_cases())
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

    def test_nan_window_outputs_nan_and_passes_no_gradient(self):
        node = MaxPool("p", [INPUT], kernel=2)
        x = np.array([[[[1.0, np.nan, 5.0, 2.0], [3.0, 0.0, 1.0, 1.0]]]])
        cache = {}
        out = node.forward([x], "eval", cache)
        assert np.isnan(out[0, 0, 0, 0]) and out[0, 0, 0, 1] == 5.0
        (gx,) = node.backward(np.array([[[[7.0, 9.0]]]]), cache)
        assert np.array_equal(gx, [[[[0.0, 0.0, 9.0, 0.0], [0.0, 0.0, 0.0, 0.0]]]])


class TestBackwardWithoutParams:
    """Model.backward(params=False) computes the node gradients that
    importance reads and nothing it does not."""

    @pytest.mark.parametrize("name", ["mlp_small", "cnn_small", "cnn_residual"])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_record_grads_identical_and_node_grads_untouched(self, name, mode):
        model = nn.MODEL_BUILDERS[name](seed=4)
        x = np.random.default_rng(5).normal(size=(3, 1, 16, 16)).astype(np.float32)
        output_grad = np.random.default_rng(6).normal(size=(3, 4))
        _, record = model.forward(x, mode)
        model.zero_grads()
        model.backward(record, output_grad)
        want = [g.tobytes() for g in record.grads]
        sentinel = {(i, k): np.full_like(v, 7.25)
                    for i, node in enumerate(model.nodes) for k, v in node.grads.items()}
        for (i, k), v in sentinel.items():
            model.nodes[i].grads[k] = v.copy()
        model.backward(record, output_grad, params=False)
        assert [g.tobytes() for g in record.grads] == want
        for (i, k), v in sentinel.items():
            assert model.nodes[i].grads[k].tobytes() == v.tobytes(), f"node {i} {k}"

