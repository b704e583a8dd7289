"""Importance estimation tests: hand-arithmetic oracles for the estimators,
gradient-source contracts, and the batching/labeling invariances."""

import resource

import numpy as np
import pytest

from prunelab import harness, tensor
from prunelab import importance as imp
from prunelab.errors import FormatError, InputError, ShapeError, StateError
from prunelab.nn import (
    INPUT,
    MODEL_BUILDERS,
    BatchNorm,
    Conv2d,
    Flatten,
    Linear,
    Model,
    ReLU,
    Site,
    build_cnn_residual,
    build_cnn_small,
    build_mlp_small,
)

from helpers import all_keep, molchanov_group_score


def loss_source(normalize=False):
    return imp.GradientSource(imp.LOSS, normalize=normalize)


def random_source(normalize=False, seed=11):
    return imp.GradientSource(imp.RANDOM, normalize=normalize, seed=seed)


@pytest.fixture(scope="module")
def small_model():
    return build_cnn_small(image_size=8, seed=5).astype(np.float64)


@pytest.fixture(scope="module")
def small_data():
    rng = np.random.default_rng(42)
    images = rng.uniform(0.0, 1.0, size=(16, 1, 8, 8))
    labels = rng.integers(0, 4, size=16)
    return images, labels


class TestGradientSource:
    def test_bad_kind_rejected(self):
        with pytest.raises(InputError, match="kind"):
            imp.GradientSource("labels")

    def test_seed_bounds(self):
        imp.GradientSource(imp.RANDOM, seed=2**64 - 1)
        with pytest.raises(InputError, match="seed"):
            imp.GradientSource(imp.RANDOM, seed=-1)
        with pytest.raises(InputError, match="seed"):
            imp.GradientSource(imp.RANDOM, seed=2**64)


def output_rows(source, n, k, example_indices=None):
    """Label-free _per_example_rows for n zero logits, indices 0..n-1 by default."""
    indices = np.arange(n) if example_indices is None else example_indices
    return imp._per_example_rows(source, np.zeros((n, k)), None, indices)


class TestPerExampleRows:
    def test_saturated_prediction_gives_zero_row(self):
        # softmax of [1000, 0, 0] is exactly onehot in float64
        logits = np.array([[1000.0, 0.0, 0.0]])
        grad = imp._per_example_rows(loss_source(), logits, np.array([0]), np.arange(1))
        assert np.array_equal(grad, np.zeros((1, 3)))

    def test_saturated_row_stays_zero_under_normalize(self):
        logits = np.array([[1000.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        grad = imp._per_example_rows(loss_source(normalize=True), logits, np.array([0, 1]), np.arange(2))
        assert np.array_equal(grad[0], np.zeros(3))
        assert abs(np.linalg.norm(grad[1]) - 1.0) < 1e-6

    def test_normalized_random_rows_are_unit(self):
        grad = output_rows(random_source(normalize=True), 5, 4)
        assert np.abs(np.sqrt((grad * grad).sum(axis=1)) - 1.0).max() < 1e-6

    def test_random_row_depends_only_on_seed_and_index(self):
        batched = output_rows(random_source(), 4, 3)
        single = output_rows(random_source(), 1, 3, example_indices=[2])
        assert np.array_equal(batched[2], single[0])

    def test_random_rows_differ_across_indices_and_seeds(self):
        grad = output_rows(random_source(seed=1), 3, 4)
        assert not np.array_equal(grad[0], grad[1])
        other = output_rows(random_source(seed=2), 3, 4)
        assert not np.array_equal(grad, other)

    def test_random_rows_look_standard_normal(self):
        rows = output_rows(random_source(seed=3), 2000, 4)
        assert abs(rows.mean()) < 0.05
        assert abs(rows.std() - 1.0) < 0.05


class TestChannelSignal:
    def test_linear_site_is_elementwise_product(self):
        s = imp.channel_signal(np.array([[2.0]]), np.array([[-3.0]]))
        assert s.item() == -6.0

    def test_conv_site_sums_spatial_positions(self):
        x = np.ones((1, 1, 2, 2))
        dx = np.array([[[[1.0, -1.0], [0.0, 2.0]]]])
        s = imp.channel_signal(x, dx)
        assert s.item() == 2.0

    def test_zero_forward_signal_means_zero(self):
        s = imp.channel_signal(np.zeros((3, 4, 2, 2)), np.random.default_rng(0).normal(size=(3, 4, 2, 2)))
        assert not s.any()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError, match="differ"):
            imp.channel_signal(np.zeros((1, 2)), np.zeros((1, 3)))


def one_channel_site(estimators):
    return imp.PrunableSite("s", 0, 1, estimators)


class TestAccumulateFinalize:
    def test_signed_abs_square_fixture(self):
        # two examples with signals 1 and -2: mean -0.5, |.| mean 1.5, sq mean 2.5
        for estimator, expected in [("taylorfo", -0.5), ("taylorfo_abs", 1.5), ("taylorfo_sq", 2.5),
                                    ("molchanov_bn", 2.5), ("molchanov_group", 2.5)]:
            sites = [one_channel_site((estimator,))]
            imp.accumulate(sites, {"s": np.array([[1.0], [-2.0]])}, estimator)
            table = imp.finalize(sites, estimator, loss_source(), 2)
            assert table.estimator == estimator
            assert abs(table.scores("s")[0] - expected) < 1e-12

    def test_all_zero_signals(self):
        for estimator in imp.ESTIMATORS:
            sites = [one_channel_site((estimator,))]
            imp.accumulate(sites, {"s": np.zeros((4, 1))}, estimator)
            assert imp.finalize(sites, estimator, loss_source(), 4).scores("s")[0] == 0.0

    def test_mean_uses_example_count(self):
        # accumulated 6 over 4 examples: score 1.5
        sites = [one_channel_site(("taylorfo",))]
        imp.accumulate(sites, {"s": np.array([[0.0], [1.0], [2.0], [3.0]])}, "taylorfo")
        assert imp.finalize(sites, "taylorfo", loss_source(), 4).scores("s")[0] == 1.5

    def test_single_example_mean_is_identity(self):
        sites = [one_channel_site(("taylorfo",))]
        imp.accumulate(sites, {"s": np.array([[7.0]])}, "taylorfo")
        assert imp.finalize(sites, "taylorfo", loss_source(), 1).scores("s")[0] == 7.0

    def test_batch_split_matches_single_batch(self):
        rng = np.random.default_rng(9)
        signals = rng.normal(size=(8, 3))
        for estimator in imp.ESTIMATORS:
            whole = [imp.PrunableSite("s", 0, 3, (estimator,))]
            split = [imp.PrunableSite("s", 0, 3, (estimator,))]
            imp.accumulate(whole, {"s": signals}, estimator)
            imp.accumulate(split, {"s": signals[:3]}, estimator)
            imp.accumulate(split, {"s": signals[3:]}, estimator)
            a = imp.finalize(whole, estimator, loss_source(), 8).scores("s")
            b = imp.finalize(split, estimator, loss_source(), 8).scores("s")
            assert np.abs(a - b).max() <= 1e-12

    def test_missing_accumulator_is_state_error(self):
        sites = [one_channel_site(("taylorfo",))]
        with pytest.raises(StateError, match="accumulator"):
            imp.accumulate(sites, {"s": np.zeros((1, 1))}, "taylorfo_sq")

    def test_unknown_estimator_rejected(self):
        with pytest.raises(InputError, match="accumulate's estimator"):
            imp.accumulate([one_channel_site(("bogus",))], {"s": np.zeros((1, 1))}, "bogus")

    def test_empty_finalize_is_state_error(self):
        sites = [one_channel_site(("taylorfo",))]
        with pytest.raises(StateError, match="no examples"):
            imp.finalize(sites, "taylorfo", loss_source(), 0)

    def test_positive_scaling_preserves_ranking(self):
        rng = np.random.default_rng(3)
        sites = [imp.PrunableSite("s", 0, 6, ("taylorfo",))]
        imp.accumulate(sites, {"s": rng.normal(size=(5, 6))}, "taylorfo")
        base = imp.finalize(sites, "taylorfo", loss_source(), 5).scores("s")
        sites[0].acc["taylorfo"] *= 37.5
        scaled = imp.finalize(sites, "taylorfo", loss_source(), 5).scores("s")
        assert np.array_equal(np.argsort(base), np.argsort(scaled))


class TestMolchanovScores:
    def test_bn_gate_fixture(self):
        bn = BatchNorm("bn", [INPUT], 1)
        bn.params["gamma"] = np.array([2.0])
        bn.params["beta"] = np.array([1.0])
        score = imp.molchanov_bn_score(bn, [(np.array([3.0]), np.array([-1.0]))])
        # (2*3 + 1*(-1))^2 = 25
        assert abs(score[0] - 25.0) < 1e-12

    def test_bn_zero_grads_zero_score(self):
        bn = BatchNorm("bn", [INPUT], 3)
        score = imp.molchanov_bn_score(bn, [(np.zeros(3), np.zeros(3))] * 4)
        assert np.array_equal(score, np.zeros(3))

    def test_bn_beta_zero_reduces_to_gamma_term(self):
        bn = BatchNorm("bn", [INPUT], 2)
        bn.params["gamma"] = np.array([2.0, -1.5])
        bn.params["beta"] = np.zeros(2)
        dg = np.array([0.5, 2.0])
        score = imp.molchanov_bn_score(bn, [(dg, np.array([9.0, 9.0]))])
        assert np.allclose(score, (bn.params["gamma"] * dg) ** 2, atol=1e-15)

    def test_bn_averages_over_examples(self):
        bn = BatchNorm("bn", [INPUT], 1)
        bn.params["gamma"] = np.array([1.0])
        bn.params["beta"] = np.array([0.0])
        stream = [(np.array([2.0]), np.zeros(1)), (np.array([4.0]), np.zeros(1))]
        assert imp.molchanov_bn_score(bn, stream)[0] == (4.0 + 16.0) / 2

    def test_bn_rejects_other_kinds(self):
        with pytest.raises(InputError, match="batch-norm"):
            imp.molchanov_bn_score(Linear("fc", [INPUT], 2, 2), [])

    def test_bn_empty_stream(self):
        with pytest.raises(StateError, match="empty"):
            imp.molchanov_bn_score(BatchNorm("bn", [INPUT], 1), [])

    def test_group_fixture(self):
        node = Linear("fc", [INPUT], 1, 1, bias=False)
        node.params["weight"] = np.array([[1.0, 2.0]]).reshape(1, 2)
        node.in_features = 2
        score = molchanov_group_score(node, [{"weight": np.array([[3.0, -1.0]])}])
        # (1*3 + 2*(-1))^2 = 1
        assert abs(score[0] - 1.0) < 1e-12

    def test_group_zero_weights_zero_score(self):
        node = Linear("fc", [INPUT], 3, 2, bias=False)
        node.params["weight"] = np.zeros((2, 3))
        stream = [{"weight": np.random.default_rng(0).normal(size=(2, 3))}]
        assert np.array_equal(molchanov_group_score(node, stream), np.zeros(2))

    def test_group_includes_bias(self):
        node = Linear("fc", [INPUT], 1, 1)
        node.params["weight"] = np.array([[2.0]])
        node.params["bias"] = np.array([3.0])
        stream = [{"weight": np.array([[1.0]]), "bias": np.array([[-1.0]]).reshape(1)}]
        # (2*1 + 3*(-1))^2 = 1
        assert abs(molchanov_group_score(node, stream)[0] - 1.0) < 1e-12

    def test_group_rejects_weightless_node(self):
        with pytest.raises(InputError, match="weights"):
            molchanov_group_score(ReLU("r", [INPUT]), [])

    def test_group_single_input_linear_agrees_with_taylor_sq(self):
        # with one input feature and no bias, w*dw = (w*v)*dx = x*dx exactly
        rng = np.random.default_rng(14)
        w = rng.normal(size=(4, 1))
        node = Linear("fc", [INPUT], 1, 4, bias=False)
        node.params["weight"] = w
        node.zero_grads()
        model = Model([node], (1,), 4, [Site("fc", 0, 4)], dtype=np.float64)
        v = rng.normal(size=(1, 1))
        logits, record = model.forward(v, "eval")
        g = rng.normal(size=(1, 4))
        model.zero_grads()
        model.backward(record, g)
        group = molchanov_group_score(node, [{"weight": node.grads["weight"]}])
        taylor_sq = imp.channel_signal(record.values[0], record.grads[0])[0] ** 2
        assert np.abs(group - taylor_sq).max() < 1e-12


def conv_bn_probe_model(channels, seed, width=4):
    """conv -> bn -> flatten -> linear with sites at BOTH the conv output and
    the bn output; the bn site exists to observe the signal after the gate."""
    rng = np.random.default_rng(seed)
    nodes = [
        Conv2d("conv", [INPUT], 1, channels, 3, padding=1, bias=False),
        BatchNorm("bn", [0], channels),
        Flatten("flat", [1]),
        Linear("fc", [2], channels * width * width, 3),
    ]
    nodes[0].params["weight"] = rng.normal(size=(channels, 1, 3, 3), scale=0.5)
    nodes[1].params["gamma"] = rng.uniform(0.5, 2.0, size=channels)
    nodes[1].params["beta"] = np.zeros(channels)
    nodes[1].state["running_mean"] = rng.normal(size=channels, scale=0.3)
    nodes[1].state["running_var"] = rng.uniform(0.5, 2.0, size=channels)
    nodes[3].params["weight"] = rng.normal(size=(3, channels * width * width), scale=0.3)
    nodes[3].params["bias"] = np.zeros(3)
    model = Model(
        nodes,
        (1, width, width),
        3,
        [Site("conv", 0, channels), Site("bn", 1, channels)],
        dtype=np.float64,
    )
    for node in model.nodes:
        node.zero_grads()
    return model


class TestEstimate:
    def test_entry_grid_and_metadata(self, small_model, small_data):
        table = imp.estimate(small_model, small_data, 8, "taylorfo", loss_source(), batch_size=4)
        assert len(table) == sum(s.channels for s in small_model.sites)
        assert [e[0] for e in table.entries[:16]] == ["conv1"] * 16
        assert table.estimator == "taylorfo"
        assert table.source == imp.LOSS
        assert table.data_size == 8
        assert np.isfinite(table.scores()).all()

    def test_d_bounds(self, small_model, small_data):
        with pytest.raises(InputError, match="d must"):
            imp.estimate(small_model, small_data, 0, "taylorfo", loss_source())
        with pytest.raises(InputError, match="d must"):
            imp.estimate(small_model, small_data, 17, "taylorfo", loss_source())

    @pytest.mark.parametrize("d,batch_size", [(4.0, 2), (np.float64(4), 2), (4, 2.0), (4, "2")])
    def test_non_integer_d_or_batch_size(self, small_model, small_data, d, batch_size):
        with pytest.raises(InputError, match="must be .*integer"):
            imp.estimate(small_model, small_data, d, "taylorfo", loss_source(), batch_size=batch_size)

    @pytest.mark.parametrize("shape", ["images only", "triple", "list", "object"])
    def test_not_a_dataset_is_input_error(self, small_model, small_data, shape):
        images, labels = small_data
        dataset = {"images only": (images,), "triple": (images, labels, None),
                   "list": [images, labels], "object": object()}[shape]
        with pytest.raises(InputError, match="Dataset or an \\(images, labels\\) pair"):
            imp.estimate(small_model, dataset, 4, "taylorfo", loss_source())

    @pytest.mark.parametrize("source", [loss_source(), random_source()], ids=["loss", "random"])
    def test_non_numeric_images_are_input_error(self, source):
        model = build_cnn_small(seed=0)
        dataset = (np.full((2, 1, 16, 16), "a"), np.zeros(2, int))
        with pytest.raises(InputError, match="input must be numeric"):
            imp.estimate(model, dataset, 1, "taylorfo", source)

    def test_leaves_parameter_gradients_untouched(self, small_model, small_data):
        model = small_model.clone()
        for node in model.nodes:
            for k, v in node.grads.items():
                node.grads[k] = np.full_like(v, 7.25)
        imp.estimate(model, small_data, 8, "molchanov_bn", loss_source(), batch_size=4)
        for node in model.nodes:
            for k, v in node.grads.items():
                assert (v == 7.25).all(), f"{node.name}.{k}"

    def test_backward_skips_weight_columns_and_the_first_fold(self, small_model, small_data, monkeypatch):
        """Per batch: im2col only for the three forward convs, col2im only
        for conv2 and conv3 (conv1's input gradient reaches the model input)."""
        calls = {"im2col": 0, "col2im": 0}
        for name in calls:
            def counted(*args, _fn=getattr(tensor, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(tensor, name, counted)
        imp.estimate(small_model, small_data, 8, "taylorfo", loss_source(), batch_size=4)
        assert calls == {"im2col": 2 * 3, "col2im": 2 * 2}

    @pytest.mark.skipif(not tensor.MALLOC_PINNED, reason="no mallopt, or the environment tunes malloc")
    def test_repeated_estimate_reuses_freed_pages(self):
        """The arrays a batch frees serve the next batch: a second estimate
        faults in almost no new pages (thousands with glibc's dynamic
        thresholds on this model and D)."""
        model = build_cnn_small(seed=0)
        images = np.random.default_rng(0).normal(size=(600, 1, 16, 16)).astype(model.dtype)
        imp.estimate(model, (images, None), 600, "taylorfo", random_source())
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        imp.estimate(model, (images, None), 600, "taylorfo", random_source())
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 500

    @pytest.mark.parametrize("dataset", [("abc", None), ("abc", "d"), (3.0, None)], ids=["str", "str_pair", "scalar"])
    def test_images_without_batch_axis_is_input_error(self, small_model, dataset):
        with pytest.raises(InputError, match="images need a batch axis"):
            imp.estimate(small_model, dataset, 1, "taylorfo", random_source())

    @pytest.mark.parametrize("name", ["mlp_small", "cnn_small", "cnn_residual"])
    def test_complex_images_are_input_error(self, name):
        model = MODEL_BUILDERS[name](seed=0)
        with pytest.raises(InputError, match="input must be real"):
            imp.estimate(model, (np.ones((2, 1, 16, 16), complex), None), 2, "taylorfo", random_source())

    @pytest.mark.parametrize("pixel", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("source", [loss_source(), random_source()], ids=["loss", "random"])
    def test_non_finite_images_fail_before_any_forward(self, small_model, small_data, monkeypatch, pixel, source):
        images, labels = small_data
        images = images.copy()
        images[3, 0, 2, 5] = pixel
        monkeypatch.setattr(Model, "forward", lambda *args: pytest.fail("forward ran"))
        with pytest.raises(InputError, match=r"images must be finite, got nan or inf in the first 8"):
            imp.estimate(small_model, (images, labels), 8, "taylorfo", source)

    def test_images_past_d_are_not_read(self, small_model, small_data):
        images, labels = small_data
        images = images.copy()
        images[8:] = np.nan
        clean = imp.estimate(small_model, small_data, 8, "taylorfo", loss_source())
        assert imp.estimate(small_model, (images, labels), 8, "taylorfo", loss_source()).entries == clean.entries

    @pytest.mark.parametrize("shape", [(16, 1), (1, 16), (15,), ()])
    def test_labels_must_be_one_per_image(self, small_model, small_data, shape):
        images, labels = small_data
        with pytest.raises(InputError, match=r"labels must have shape \(16,\)"):
            imp.estimate(small_model, (images, labels[: int(np.prod(shape))].reshape(shape)), 8, "taylorfo_sq",
                         loss_source())

    def test_unknown_estimator(self, small_model, small_data):
        with pytest.raises(InputError, match="estimator"):
            imp.estimate(small_model, small_data, 4, "magnitude", loss_source())

    def test_source_name_is_input_error(self, small_model, small_data):
        with pytest.raises(InputError, match="source must be a GradientSource, got 'loss'"):
            imp.estimate(small_model, small_data, 4, "taylorfo", "loss")

    def test_loss_needs_labels(self, small_model, small_data):
        images, _ = small_data
        with pytest.raises(InputError, match="label"):
            imp.estimate(small_model, (images, None), 4, "taylorfo", loss_source())

    def test_d2_is_finite_for_all_estimators(self, small_model, small_data):
        for estimator in imp.ESTIMATORS:
            for source in (loss_source(), random_source(normalize=True)):
                table = imp.estimate(small_model, small_data, 2, estimator, source)
                assert np.isfinite(table.scores()).all(), (estimator, source.kind)

    @pytest.mark.parametrize("estimator", imp.ESTIMATORS)
    def test_partition_invariance(self, small_model, small_data, estimator):
        for source in (loss_source(), loss_source(True), random_source(), random_source(True)):
            tables = [
                imp.estimate(small_model, small_data, 11, estimator, source, batch_size=b)
                for b in (1, 3, 8)
            ]
            for other in tables[1:]:
                diff = np.abs(tables[0].scores() - other.scores()).max()
                assert diff <= 1e-12, f"{estimator}/{source.kind} diff {diff:.2e}"

    def test_random_source_never_reads_labels(self, small_model, small_data):
        images, labels = small_data
        source = random_source(normalize=True)
        with_labels = imp.estimate(small_model, (images, labels), 8, "taylorfo_sq", source)
        permuted = imp.estimate(small_model, (images, (labels + 1) % 4), 8, "taylorfo_sq", source)
        without = imp.estimate(small_model, (images, None), 8, "taylorfo_sq", source)
        assert with_labels.entries == permuted.entries == without.entries

    def test_single_example_abs_sq_rank_equivalence(self, small_model, small_data):
        src = random_source(seed=99)
        abs_t = imp.estimate(small_model, small_data, 1, "taylorfo_abs", src)
        sq_t = imp.estimate(small_model, small_data, 1, "taylorfo_sq", src)
        assert np.array_equal(np.argsort(abs_t.scores()), np.argsort(sq_t.scores()))

    def test_positivity(self, small_model, small_data):
        for estimator in ("taylorfo_abs", "taylorfo_sq", "molchanov_bn", "molchanov_group"):
            table = imp.estimate(small_model, small_data, 8, estimator, random_source())
            assert (table.scores() >= 0).all(), estimator
        signed = imp.estimate(small_model, small_data, 8, "taylorfo", random_source())
        assert (signed.scores() < 0).any()

    def test_molchanov_bn_needs_bn_follower(self, small_data):
        mlp = build_mlp_small(image_size=8, seed=0).astype(np.float64)
        with pytest.raises(InputError, match="batch norm"):
            imp.estimate(mlp, small_data, 2, "molchanov_bn", loss_source())

    def test_estimate_matches_bn_scorer(self, small_model, small_data):
        """Dual route: the streaming path must equal the standalone scorer fed
        with explicitly collected per-example gradients."""
        images, labels = small_data
        d = 5
        table = imp.estimate(small_model, small_data, d, "molchanov_bn", loss_source())
        site = small_model.sites[1]
        bn = small_model.nodes[imp.bn_node_for_site(small_model, site)]
        stream = []
        for n in range(d):
            logits, record = small_model.forward(images[n : n + 1], "eval")
            rows = imp._per_example_rows(loss_source(), logits, labels[n : n + 1], np.array([n]))
            small_model.zero_grads()
            small_model.backward(record, rows)
            stream.append((bn.grads["gamma"].copy(), bn.grads["beta"].copy()))
        oracle = imp.molchanov_bn_score(bn, stream)
        assert np.abs(table.scores(site.site_id) - oracle).max() <= 1e-15

    def test_estimate_matches_group_scorer(self, small_model, small_data):
        images, labels = small_data
        d = 5
        table = imp.estimate(small_model, small_data, d, "molchanov_group", loss_source())
        site = small_model.sites[0]
        node = small_model.nodes[site.node_index]
        stream = []
        for n in range(d):
            logits, record = small_model.forward(images[n : n + 1], "eval")
            rows = imp._per_example_rows(loss_source(), logits, labels[n : n + 1], np.array([n]))
            small_model.zero_grads()
            small_model.backward(record, rows)
            stream.append({k: v.copy() for k, v in node.grads.items()})
        oracle = molchanov_group_score(node, stream)
        assert np.abs(table.scores(site.site_id) - oracle).max() <= 1e-15

    @pytest.mark.parametrize("source_kind", ["loss", "random"])
    def test_bn_equivalence_at_bn_site(self, source_kind):
        """With the site placed at the bn output, molchanov_bn equals
        taylorfo_sq: gamma*dgamma + beta*dbeta is exactly the spatial sum of
        y*dy at that output."""
        for trial in range(3):
            model = conv_bn_probe_model(channels=5, seed=100 + trial)
            rng = np.random.default_rng(200 + trial)
            images = rng.normal(size=(6, 1, 4, 4))
            labels = rng.integers(0, 3, size=6)
            src = loss_source() if source_kind == "loss" else random_source(seed=5 + trial)
            bn_table = imp.estimate(model, (images, labels if source_kind == "loss" else None), 6, "molchanov_bn", src)
            sq_table = imp.estimate(model, (images, labels if source_kind == "loss" else None), 6, "taylorfo_sq", src)
            a = bn_table.scores("bn")
            b = sq_table.scores("bn")
            rel = np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
            assert rel.max() < 1e-6


class TestEstimatorTable:
    @pytest.mark.parametrize("build", [build_cnn_small, build_cnn_residual])
    @pytest.mark.parametrize("estimator", imp.ESTIMATORS)
    def test_estimate_is_accumulate_at_the_tap(self, small_data, build, estimator):
        """estimate reads channel_signal at the documented tap, the batch norm
        gating the site for molchanov_bn and the site node otherwise, and
        accumulates and finalizes it under its own name."""
        model = build(image_size=8, seed=7).astype(np.float64)
        images, labels = small_data
        source = loss_source(normalize=True)
        d = 6
        logits, record = model.forward(images[:d], "eval")
        model.backward(record, imp._per_example_rows(source, logits, labels[:d], np.arange(d)))
        taps = {s.site_id: imp.bn_node_for_site(model, s) if estimator == "molchanov_bn" else s.node_index
                for s in model.sites}
        sites = [imp.PrunableSite(s.site_id, s.node_index, s.channels, (estimator,)) for s in model.sites]
        imp.accumulate(sites, {k: imp.channel_signal(record.values[i], record.grads[i]) for k, i in taps.items()},
                       estimator)
        expected = imp.finalize(sites, estimator, source, d)
        table = imp.estimate(model, (images, labels), d, estimator, source, batch_size=d)
        assert table.estimator == expected.estimator == estimator
        assert table.entries == expected.entries


class TestDeadNeuronZeros:
    @pytest.mark.parametrize("estimator", imp.ESTIMATORS)
    @pytest.mark.parametrize("source_kind", ["loss", "random"])
    def test_incoming_zero_scores_zero(self, small_data, estimator, source_kind):
        model = build_cnn_small(image_size=8, seed=6).astype(np.float64)
        dead = 3
        model.nodes[4].params["weight"][dead] = 0.0  # conv2 row
        model.nodes[5].params["gamma"][dead] = 0.0  # its bn gate
        model.nodes[5].params["beta"][dead] = 0.0
        src = loss_source() if source_kind == "loss" else random_source()
        table = imp.estimate(model, small_data, 6, estimator, src)
        assert table.scores("conv2")[dead] == 0.0

    @pytest.mark.parametrize("estimator", imp.ESTIMATORS)
    @pytest.mark.parametrize("source_kind", ["loss", "random"])
    def test_outgoing_zero_scores_zero(self, small_data, estimator, source_kind):
        model = build_cnn_small(image_size=8, seed=6).astype(np.float64)
        dead = 3
        model.nodes[8].params["weight"][:, dead] = 0.0  # conv3 columns reading conv2
        src = loss_source() if source_kind == "loss" else random_source()
        table = imp.estimate(model, small_data, 6, estimator, src)
        assert table.scores("conv2")[dead] == 0.0


class TestTableCsv:
    def test_round_trip(self, small_model, small_data, tmp_path):
        table = imp.estimate(small_model, small_data, 8, "taylorfo", random_source(seed=4))
        path = tmp_path / "t.csv"
        table.to_csv(path)
        loaded = imp.ImportanceTable.from_csv(path)
        assert loaded.entries == table.entries
        assert (loaded.estimator, loaded.source, loaded.normalized, loaded.data_size, loaded.seed) == (
            table.estimator,
            table.source,
            table.normalized,
            table.data_size,
            table.seed,
        )

    def test_resave_is_byte_identical(self, small_model, small_data, tmp_path):
        table = imp.estimate(small_model, small_data, 8, "taylorfo_sq", loss_source(True))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        table.to_csv(p1)
        imp.ImportanceTable.from_csv(p1).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("site,chan\n")
        with pytest.raises(Exception, match="header"):
            imp.ImportanceTable.from_csv(path)

    def test_empty_table_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(imp.ImportanceTable.COLUMNS) + "\n")
        with pytest.raises(Exception, match="no entries"):
            imp.ImportanceTable.from_csv(path)

    def test_mixed_metadata_rejected(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text(
            ",".join(imp.ImportanceTable.COLUMNS)
            + "\n"
            + "a,0,0,1.0,taylorfo,loss,false,4,0\n"
            + "a,0,1,1.0,taylorfo_sq,loss,false,4,0\n"
        )
        with pytest.raises(Exception, match="metadata"):
            imp.ImportanceTable.from_csv(path)

    def test_non_finite_scores_rejected(self):
        with pytest.raises(StateError, match="finite"):
            imp.ImportanceTable([("s", 0, 0, float("nan"))], "taylorfo", "loss", False, 1, 0)

    @pytest.mark.parametrize("row,match", [
        ("a,0,0,1.0,taylorfo,loss,false,4.5,0", "data_size must be an integer"),
        ("a,0,0,1.0,taylorfo,loss,false,4,seed", "seed must be an integer"),
        ("a,0,0,nan,taylorfo,loss,false,4,0", "score must be a finite number"),
        ("a,0,0,-inf,taylorfo,loss,false,4,0", "score must be a finite number"),
        ("a,0,0,1.0,bogus,nowhere,false,-5,-3", "data_size must be an integer >= 0, got -5"),
        ("a,0,0,1.0,bogus,loss,false,4,0", "estimator must be one of"),
        ("a,0,0,1.0,taylorfo,nowhere,false,4,0", "source must be one of"),
        ("a,0,0,1.0,random_rank,loss,false,-1,0", "data_size must be an integer"),
        ("a,0,0,1.0,taylorfo,loss,false,0,0", "data_size must be an integer >= 1"),
        ("a,0,0,1.0,molchanov_bn,none,false,-5,0", "data_size must be an integer"),
        ("a,0,0,1.0,taylorfo,random,true,4,-3", "seed must be an integer"),
        ("a,0,0,1.0,taylorfo,random,true,4,18446744073709551616", "seed must be an integer"),
        ("a,0,0,1.0,taylorfo,none,false,4,0", "source must be one of loss, random, got 'none'"),
        ("a,0,0,1.0,random_rank,loss,false,0,0", "source must be one of none, got 'loss'"),
        ("a,0,0,1.0,random_rank,none,true,0,0", "normalized must be false, got True"),
        ("a,0,0,1.0,random_rank,none,false,5,0", r"data_size must be an integer in \[0, 0\], got 5"),
    ])
    def test_malformed_row_is_format_error(self, tmp_path, row, match):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(imp.ImportanceTable.COLUMNS) + "\n" + row + "\n")
        with pytest.raises(FormatError, match=f"row 2: .*{match}"):
            imp.ImportanceTable.from_csv(path)

    def test_constructor_rejects_metadata_from_csv_rejects(self, tmp_path):
        with pytest.raises(InputError, match="estimator must be one of .*, got 'bogus'"):
            imp.ImportanceTable([("a", 0, 0, 1.0)], "bogus", "nowhere", False, -5, -3)
        with pytest.raises(InputError, match="data_size must be an integer >= 1, got '4.5'"):
            imp.ImportanceTable([("a", 0, 0, 1.0)], "taylorfo", "loss", False, "4.5", 0)
        with pytest.raises(InputError, match="3 fields, expected 4"):
            imp.ImportanceTable([("a", 0, 0)], "taylorfo", "loss", False, 4, 0)
        table = imp.ImportanceTable([("a", 0, 0, 1.0)], "random_rank", "none", False, 0, 2**64 - 1)
        table.to_csv(tmp_path / "control.csv")
        assert imp.ImportanceTable.from_csv(tmp_path / "control.csv").seed == 2**64 - 1

    def test_random_rank_table_round_trips(self, small_model, tmp_path):
        table = harness.random_importance_table(small_model, seed=9)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        table.to_csv(p1)
        loaded = imp.ImportanceTable.from_csv(p1)
        assert loaded.entries == table.entries
        assert (loaded.estimator, loaded.source, loaded.normalized, loaded.data_size, loaded.seed) == (
            "random_rank", "none", False, 0, 9)
        loaded.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("meta", [
        "random_rank,none,false,0,0",
        "molchanov_group,random,true,1,18446744073709551615",
        "taylorfo_abs,loss,false,600,0",
    ])
    def test_writable_metadata_loads(self, tmp_path, meta):
        path = tmp_path / "ok.csv"
        path.write_text(",".join(imp.ImportanceTable.COLUMNS) + f"\na,0,0,1.0,{meta}\n")
        table = imp.ImportanceTable.from_csv(path)
        assert (table.estimator, table.source) == tuple(meta.split(",")[:2])


def per_example_stream(model, images, labels, source, d, node, names):
    """Parameter gradients of one node, one example per forward/backward."""
    stream = []
    for n in range(d):
        logits, record = model.forward(images[n : n + 1], "eval")
        row_labels = labels[n : n + 1] if source.kind == imp.LOSS else None
        rows = imp._per_example_rows(source, logits, row_labels, np.array([n]))
        model.zero_grads()
        model.backward(record, rows)
        stream.append({k: node.grads[k].copy() for k in names})
    return stream


class TestBatchedMolchanov:
    """The batched tap-point path against the parameter-gradient oracles."""

    @pytest.fixture(scope="class")
    def masked_model(self, small_model):
        from prunelab.pruning import PruneMask, apply_mask

        keep = all_keep(small_model).keep
        keep["conv1"][[2, 9]] = False
        keep["conv2"][[0, 5, 6]] = False
        return apply_mask(small_model, PruneMask(keep))

    @pytest.mark.parametrize("batch_size", [1, 8])
    @pytest.mark.parametrize("source", [loss_source(), random_source(normalize=True)], ids=["loss", "random"])
    def test_masked_bn_matches_scorer(self, masked_model, small_data, batch_size, source):
        images, labels = small_data
        d = 11
        table = imp.estimate(masked_model, small_data, d, "molchanov_bn", source, batch_size=batch_size)
        for site in masked_model.sites:
            bn = masked_model.nodes[imp.bn_node_for_site(masked_model, site)]
            stream = per_example_stream(masked_model, images, labels, source, d, bn, ("gamma", "beta"))
            oracle = imp.molchanov_bn_score(bn, [(g["gamma"], g["beta"]) for g in stream])
            assert np.abs(table.scores(site.site_id) - oracle).max() <= 1e-15, site.site_id
        assert not table.scores("conv2")[[0, 5, 6]].any()

    @pytest.mark.parametrize("batch_size", [1, 8])
    @pytest.mark.parametrize("source", [loss_source(), random_source(normalize=True)], ids=["loss", "random"])
    def test_masked_group_matches_scorer(self, masked_model, small_data, batch_size, source):
        images, labels = small_data
        d = 11
        table = imp.estimate(masked_model, small_data, d, "molchanov_group", source, batch_size=batch_size)
        for site in masked_model.sites:
            node = masked_model.nodes[site.node_index]
            stream = per_example_stream(masked_model, images, labels, source, d, node, tuple(node.params))
            oracle = molchanov_group_score(node, stream)
            assert np.abs(table.scores(site.site_id) - oracle).max() <= 1e-15, site.site_id
        assert not table.scores("conv1")[[2, 9]].any()

    @pytest.mark.parametrize("source", [loss_source(), random_source()], ids=["loss", "random"])
    def test_group_with_biases_matches_scorer(self, small_data, source):
        images, labels = small_data
        model = build_mlp_small(image_size=8, seed=3).astype(np.float64)
        rng = np.random.default_rng(8)
        for i in (1, 3):
            model.nodes[i].params["bias"] = rng.normal(size=model.nodes[i].channels, scale=0.5)
        model.nodes[1].params["bias"][[4, 17]] = -100.0  # ReLU dead on every example
        d = 16
        table = imp.estimate(model, small_data, d, "molchanov_group", source, batch_size=5)
        for site in model.sites:
            node = model.nodes[site.node_index]
            oracle = molchanov_group_score(
                node, per_example_stream(model, images, labels, source, d, node, ("weight", "bias"))
            )
            scores = table.scores(site.site_id)
            assert np.array_equal(scores == 0, oracle == 0), site.site_id
            live = oracle != 0
            assert (np.abs(scores[live] - oracle[live]) / oracle[live]).max() < 1e-12, site.site_id
        assert not table.scores("fc1")[[4, 17]].any()

    @pytest.mark.parametrize("estimator", imp.ESTIMATORS)
    @pytest.mark.parametrize("d, batch_size", [(11, 1), (11, 3), (16, 8), (5, 32)])
    def test_one_forward_per_batch(self, small_model, small_data, estimator, d, batch_size):
        model = small_model.clone()
        calls = []
        forward = model.forward

        def counting_forward(*args, **kwargs):
            calls.append(len(args[0]))
            return forward(*args, **kwargs)

        model.forward = counting_forward
        imp.estimate(model, small_data, d, estimator, random_source(), batch_size=batch_size)
        assert len(calls) == -(-d // batch_size)
        assert sum(calls) == d
