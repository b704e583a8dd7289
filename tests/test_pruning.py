"""Pruning tests: ranking arithmetic by hand, mask semantics, and the
masked-vs-compacted equivalence oracle."""

import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunelab import pruning
from prunelab.checkpoint import load_model, save_model
from prunelab.errors import CapabilityError, FormatError, InputError
from prunelab.importance import ImportanceTable
from prunelab.nn import (
    INPUT,
    Conv2d,
    Flatten,
    Linear,
    Model,
    ReLU,
    ResidualAdd,
    Site,
    build_cnn_residual,
    build_cnn_small,
    build_mlp_small,
    make_node,
)

from helpers import all_keep, build_reference_models, pruned_channels, pruned_count, rank_walk_oracle


def table_for(rows):
    """rows: (site_id, node_index, channel, score)"""
    return ImportanceTable(list(rows), "taylorfo", "loss", False, 4, 0)


def single_site_table(scores, site_id="s", node_index=0):
    return table_for([(site_id, node_index, c, s) for c, s in enumerate(scores)])


def random_mask(model, rng, fraction=0.4):
    keep = {}
    for site in model.sites:
        k = rng.random(site.channels) >= fraction
        if not k.any():
            k[rng.integers(site.channels)] = True
        keep[site.site_id] = k
    return pruning.PruneMask(keep)


def dirty_stats(model, seed=0):
    """Push a couple of train batches through so BN running stats move."""
    rng = np.random.default_rng(seed)
    for _ in range(2):
        model.forward(rng.standard_normal((4,) + model.input_shape), "train")
    return model


class TestRankGlobal:
    def test_forced_minimum(self):
        plan = pruning.rank_global(single_site_table([0.1, 0.5, 0.2]), 1)
        assert pruned_channels(plan) == [("s", 0)]

    def test_hand_sorted_pair(self):
        plan = pruning.rank_global(single_site_table([0.1, 0.5, 0.2]), 2)
        assert pruned_channels(plan) == [("s", 0), ("s", 2)]

    def test_equal_scores_tie_break(self):
        table = table_for([("a", 3, 0, 1.0), ("a", 3, 1, 1.0), ("b", 1, 0, 1.0), ("b", 1, 1, 1.0)])
        plan = pruning.rank_global(table, 1)
        # lowest (node index, channel) wins the tie
        assert pruned_channels(plan) == [("b", 0)]

    def test_skip_preserves_last_survivor(self):
        table = table_for(
            [("a", 0, 0, 0.0), ("a", 0, 1, 0.1)]
            + [("b", 1, c, 10.0 + c) for c in range(3)]
        )
        plan = pruning.rank_global(table, 2)
        assert pruned_channels(plan) == [("a", 0), ("b", 0)]
        assert plan.skipped == [("a", 1)]

    def test_p_bounds(self):
        table = single_site_table([1.0, 2.0, 3.0])
        pruning.rank_global(table, 0)
        pruning.rank_global(table, 2)
        with pytest.raises(InputError, match="p must"):
            pruning.rank_global(table, 3)
        with pytest.raises(InputError, match="p must"):
            pruning.rank_global(table, -1)

    def test_rank_covers_every_channel_once(self):
        rng = np.random.default_rng(0)
        table = table_for(
            [("a", 0, c, rng.normal()) for c in range(5)]
            + [("b", 2, c, rng.normal()) for c in range(4)]
        )
        plan = pruning.rank_global(table, 3)
        assert sorted((sid, ch) for _, sid, _, ch, _, _ in plan.entries) == sorted(
            (sid, ch) for sid, _, ch, _ in table.entries
        )
        assert [e[0] for e in plan.entries] == list(range(9))

    def test_monotone_nesting(self):
        rng = np.random.default_rng(7)
        table = table_for(
            [("a", 0, c, rng.normal()) for c in range(6)]
            + [("b", 2, c, rng.normal()) for c in range(6)]
        )
        previous = set()
        for p in range(11):
            current = set(pruned_channels(pruning.rank_global(table, p)))
            assert previous <= current
            assert len(current) == p
            previous = current

    def test_determinism(self, tmp_path):
        rng = np.random.default_rng(8)
        table = table_for([("a", 0, c, rng.normal()) for c in range(8)])
        p1 = pruning.rank_global(table, 4)
        p2 = pruning.rank_global(table, 4)
        assert p1.entries == p2.entries
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        p1.to_csv(a)
        p2.to_csv(b)
        assert a.read_bytes() == b.read_bytes()

    def test_per_layer_normalization_changes_order(self):
        table = table_for(
            [("a", 0, 0, 1.0), ("a", 0, 1, 2.0), ("b", 1, 0, 100.0), ("b", 1, 1, 400.0)]
        )
        raw = pruning.rank_global(table, 2)
        assert pruned_channels(raw) == [("a", 0), ("b", 0)]
        assert raw.skipped == [("a", 1)]
        norm = pruning.rank_global(table, 2, per_layer_normalize=True)
        # a -> [0.5, 1.0], b -> [0.25, 1.0]: b0 is now cheapest
        assert pruned_channels(norm) == [("b", 0), ("a", 0)]
        assert norm.skipped == []

    def test_normalization_leaves_zero_site_alone(self):
        table = table_for([("a", 0, 0, 0.0), ("a", 0, 1, 0.0), ("b", 1, 0, 5.0), ("b", 1, 1, 6.0)])
        plan = pruning.rank_global(table, 1, per_layer_normalize=True)
        assert pruned_channels(plan) == [("a", 0)]

    def test_incomplete_channel_coverage(self):
        with pytest.raises(InputError, match="cover"):
            pruning.rank_global(table_for([("s", 0, 0, 1.0), ("s", 0, 2, 2.0)]), 1)

    def test_ranking_reuses_the_counts_checked_at_build(self, monkeypatch):
        table = table_for([("a", 0, 0, 3.0), ("a", 0, 1, 1.0), ("b", 1, 0, 2.0), ("b", 1, 1, 0.5)])
        rule, table_channels = pruning._site_counts, [(site_id, c) for site_id, _, c, _ in table.entries]

        def fails_on_the_table(rows):  # the plan's rows, in rank order, still pass
            rows = list(rows)
            if [(row[0], row[-1]) for row in rows] == table_channels:
                pytest.fail("counted the table's channels again")
            return rule(rows)

        monkeypatch.setattr(pruning, "_site_counts", fails_on_the_table)
        assert pruned_channels(pruning.rank_global(table, 2)) == [("b", 1), ("a", 1)]

    @pytest.mark.parametrize("flag", ["no", "", 1, None])
    def test_per_layer_normalize_must_be_a_flag(self, flag):
        # a truthy "no" would rank exactly as True does
        table = table_for([("a", 0, 0, 1.0), ("a", 0, 1, 2.0), ("b", 1, 0, 100.0), ("b", 1, 1, 400.0)])
        with pytest.raises(InputError, match="per_layer_normalize must be true or false"):
            pruning.rank_global(table, 2, per_layer_normalize=flag)


class TestPlanCsv:
    def plan(self):
        rng = np.random.default_rng(3)
        table = table_for([("a", 0, c, rng.normal()) for c in range(4)])
        return pruning.rank_global(table, 2)

    def test_round_trip(self, tmp_path):
        plan = self.plan()
        path = tmp_path / "plan.csv"
        plan.to_csv(path)
        loaded = pruning.PrunePlan.from_csv(path)
        assert loaded.entries == plan.entries
        assert loaded.p == plan.p

    def test_resave_byte_identical(self, tmp_path):
        plan = self.plan()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        plan.to_csv(a)
        pruning.PrunePlan.from_csv(a).to_csv(b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("rank,site\n")
        with pytest.raises(FormatError, match="header"):
            pruning.PrunePlan.from_csv(path)

    def test_empty_plan(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(pruning.PrunePlan.COLUMNS) + "\n")
        with pytest.raises(FormatError, match="no entries"):
            pruning.PrunePlan.from_csv(path)

    def test_bad_pruned_literal(self, tmp_path):
        path = tmp_path / "lit.csv"
        path.write_text(",".join(pruning.PrunePlan.COLUMNS) + "\n0,a,0,0,1.0,yes\n")
        with pytest.raises(FormatError, match="pruned"):
            pruning.PrunePlan.from_csv(path)

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_non_finite_score(self, tmp_path, score):
        path = tmp_path / "nan.csv"
        path.write_text(",".join(pruning.PrunePlan.COLUMNS) + f"\n0,a,0,0,{score},true\n1,a,0,1,2.0,false\n")
        with pytest.raises(FormatError, match="row 2: score must be a finite number"):
            pruning.PrunePlan.from_csv(path)

    @pytest.mark.parametrize("entries,match", [
        ([(0, "a", 0, 0, float("nan"), True), (1, "a", 0, 1, 1.0, False)], "score must be a finite number"),
        ([(0, "a", 0, 0, 1.0, True), (1, "a", 0, -1, 1.0, False)], "channel must be"),
        ([(0, "a", 0)], "3 fields, expected 6"),
        ([(0, "a", 0, 0, 1.0, True), (1, "a", 0, 0, 1.0, False)], "does not cover channels 0..1"),
        ([(1, "a", 0, 0, 1.0, True), (0, "a", 0, 1, 2.0, False)], "ranks must run 0..N-1 in order, got 1"),
        ([(0, "a", 0, 0, 1.0, True), (1, "a", 5, 1, 2.0, False)], r"pair one to one, got \[\('a', 0\), \('a', 5\)\]"),
        ([(0, "a", 0, 0, 1.0, False), (1, "b", 0, 0, 2.0, False)], r"pair one to one, got \[\('a', 0\), \('b', 0\)\]"),
    ], ids=["nan_score", "negative_channel", "short_entry", "repeated_channel", "rank_out_of_order",
            "site_on_two_nodes", "two_sites_on_one_node"])
    def test_constructor_rejects_what_from_csv_rejects(self, entries, match):
        with pytest.raises(InputError, match=match):
            pruning.PrunePlan(entries)

    @pytest.mark.parametrize("rows", ["0,a,0,0,1.0,true\n1,a,0,2,2.0,false\n", "0,a,0,0,1.0,true\n1,a,0,0,2.0,false\n"],
                             ids=["missing_channel", "repeated_channel"])
    def test_channel_coverage_is_checked_at_load(self, tmp_path, rows):
        path = tmp_path / "cover.csv"
        path.write_text(",".join(pruning.PrunePlan.COLUMNS) + "\n" + rows)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: site 'a': ranking does not cover channels 0..1$"):
            pruning.PrunePlan.from_csv(path)

    def test_plan_that_empties_a_site_is_refused(self, tmp_path):
        entries = [(0, "a", 0, 0, 1.0, True), (1, "a", 0, 1, 2.0, True)]
        with pytest.raises(InputError, match="^site 'a' would keep no channels$"):
            pruning.PrunePlan(entries)
        path = tmp_path / "emptied.csv"
        path.write_text(",".join(pruning.PrunePlan.COLUMNS) + "\n0,a,0,0,1.0,true\n1,a,0,1,2.0,true\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: site 'a' would keep no channels$"):
            pruning.PrunePlan.from_csv(path)

    def test_mask_reuses_the_counts_checked_at_build(self, monkeypatch):
        plan = self.plan()
        monkeypatch.setattr(pruning, "_site_counts", lambda channels: pytest.fail("counted the channels again"))
        assert plan.mask().keep["a"].sum() == 2

    def test_rank_gap(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text(
            ",".join(pruning.PrunePlan.COLUMNS)
            + "\n0,a,0,0,1.0,true\n2,a,0,1,2.0,false\n"
        )
        with pytest.raises(FormatError, match="ranks"):
            pruning.PrunePlan.from_csv(path)

    def test_field_count(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(",".join(pruning.PrunePlan.COLUMNS) + "\n0,a,0,0,1.0\n")
        with pytest.raises(FormatError, match="fields"):
            pruning.PrunePlan.from_csv(path)


@st.composite
def ranked_tables(draw):
    """(table, p, per_layer_normalize): 1-3 sites of 1-4 channels, scores tied at 0 often, any valid P."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    nodes = draw(st.permutations(range(len(sizes))))
    scores = st.sampled_from([0.0, 0.0, -1.5, 0.25, 2.0]) | st.floats(-4, 4, allow_nan=False, allow_subnormal=False)
    rows = [(f"s{i}", nodes[i], c, draw(scores)) for i, n in enumerate(sizes) for c in range(n)]
    return table_for(rows), draw(st.integers(0, len(rows) - len(sizes))), draw(st.booleans())


@pytest.fixture(scope="module")
def plan_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("plans")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=ranked_tables())
def test_plan_round_trip_keeps_p_and_the_skips_the_walk_records(plan_dir, case):
    table, p, normalize = case
    plan = pruning.rank_global(table, p, per_layer_normalize=normalize)
    pruned, skipped = rank_walk_oracle(table, p, normalize)
    assert (pruned_channels(plan), plan.p, plan.skipped) == (pruned, p, skipped)
    plan.to_csv(plan_dir / "plan.csv")
    loaded = pruning.PrunePlan.from_csv(plan_dir / "plan.csv")
    assert (loaded.entries, loaded.p, loaded.skipped) == (plan.entries, plan.p, plan.skipped)


class TestPruneMask:
    def test_plan_mask_counts(self):
        table = single_site_table([3.0, 1.0, 2.0, 4.0])
        mask = pruning.rank_global(table, 2).mask()
        assert pruned_count(mask) == 2
        assert mask.keep["s"].tolist() == [True, False, False, True]

    def test_empty_site_rejected(self):
        with pytest.raises(InputError, match="no channels"):
            pruning.PruneMask({"s": np.zeros(3, dtype=bool)})

    @pytest.mark.parametrize("keep", [[2, 0], ["a", ""], [np.nan, 0], [0.5, 1], [1.0, 0.0]],
                             ids=["two", "strings", "nan", "half", "floats"])
    def test_entries_must_be_bools_or_integers_0_and_1(self, keep):
        with pytest.raises(InputError, match="site 's' keep vector must be bools or integers 0 and 1"):
            pruning.PruneMask({"s": keep})

    @pytest.mark.parametrize("keep", [[True, False], [1, 0], np.array([1, 0], np.uint8)], ids=["bools", "ints", "uint8"])
    def test_bool_and_0_1_entries_build(self, keep):
        assert pruning.PruneMask({"s": keep}).keep["s"].tolist() == [True, False]

    @pytest.mark.parametrize("call,match", [
        (pruning.apply_mask, "mask must be a PruneMask"),
        (pruning.compact, "mask must be a PruneMask"),
        (pruning.validate_equivalence, "mask must be a PruneMask"),
        (lambda model, keep: pruning.rank_global(table_for([("a", 0, 0, 1.0), ("a", 0, 1, 2.0)]).entries, 1),
         "table must be an ImportanceTable"),
        (lambda model, keep: pruning.PruneMask(list(keep.items())), "keep must be a dict"),
        (lambda model, keep: save_model(os.devnull, keep), "model must be a Model"),
    ], ids=["apply_mask", "compact", "validate_equivalence", "rank_global_list", "prune_mask_list", "save_model_dict"])
    def test_argument_of_another_type_is_input_error(self, call, match):
        # rank_global, PruneMask and save_model raised AttributeError on these
        model = build_mlp_small(image_size=8, seed=0)
        with pytest.raises(InputError, match=match):
            call(model, {s.site_id: np.ones(s.channels, bool) for s in model.sites})

    def test_all_keep_helper(self):
        model = build_mlp_small(image_size=8, seed=0)
        mask = all_keep(model)
        assert pruned_count(mask) == 0
        assert set(mask.keep) == {"fc1", "fc2"}


class TestApplyMask:
    def test_all_keep_forward_bitwise_identical(self):
        for build in (build_mlp_small, build_cnn_small):
            model = build(image_size=8, seed=1)
            masked = pruning.apply_mask(model, all_keep(model))
            x = np.random.default_rng(2).standard_normal((3,) + model.input_shape)
            a, _ = model.forward(x, "eval")
            b, _ = masked.forward(x, "eval")
            assert a.tobytes() == b.tobytes()

    def test_two_channel_linear_hand_computed(self):
        fc1 = Linear("fc1", [INPUT], 2, 2)
        fc1.params["weight"] = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        out = Linear("out", [1], 2, 2)
        out.params["weight"] = np.array([[5.0, 6.0], [7.0, 8.0]], dtype=np.float32)
        model = Model([fc1, ReLU("r", [0]), out], (2,), 2, [Site("fc1", 0, 2)])
        masked = pruning.apply_mask(model, pruning.PruneMask({"fc1": [True, False]}))
        logits, _ = masked.forward(np.array([[1.0, 1.0]]), "eval")
        # fc1 -> [3, 7], channel 1 zeroed -> relu [3, 0] -> [15, 21]
        assert np.array_equal(logits, np.array([[15.0, 21.0]], dtype=np.float32))

    def test_masked_channels_record_zero_and_get_no_grad(self):
        model = build_cnn_small(image_size=8, seed=3).astype(np.float64)
        keep = all_keep(model).keep
        keep["conv2"][5] = False
        masked = pruning.apply_mask(model, pruning.PruneMask(keep))
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2,) + model.input_shape)
        logits, record = masked.forward(x, "eval")
        assert not record.values[4][:, 5].any()
        masked.zero_grads()
        masked.backward(record, rng.standard_normal(logits.shape))
        conv2, bn2, conv3 = masked.nodes[4], masked.nodes[5], masked.nodes[8]
        assert not conv2.grads["weight"][5].any()
        assert not bn2.grads["gamma"][5].any()
        assert not bn2.grads["beta"][5].any()
        assert not conv3.grads["weight"][:, 5].any()
        assert conv2.grads["weight"][4].any()

    def test_original_model_untouched(self):
        model = build_cnn_small(image_size=8, seed=3)
        pruning.apply_mask(model, all_keep(model))
        assert model.masks == {}

    def test_site_mismatch(self):
        model = build_mlp_small(image_size=8, seed=0)
        with pytest.raises(InputError, match="sites"):
            pruning.apply_mask(model, pruning.PruneMask({"fc1": np.ones(32, bool)}))
        bad_len = {"fc1": np.ones(32, bool), "fc2": np.ones(3, bool)}
        with pytest.raises(InputError, match="length"):
            pruning.apply_mask(model, pruning.PruneMask(bad_len))


class TestCompact:
    def test_all_keep_is_identity(self):
        model = dirty_stats(build_cnn_small(image_size=8, seed=5))
        small = pruning.compact(model, all_keep(model))
        assert small.param_count() == model.param_count()
        for a, b in zip(model.nodes, small.nodes):
            for k in a.params:
                assert np.array_equal(a.params[k], b.params[k])
            for k in a.state:
                assert np.array_equal(a.state[k], b.state[k])

    def test_shape_bookkeeping(self):
        model = build_cnn_small(image_size=8, seed=5)
        keep = all_keep(model).keep
        keep["conv1"][7] = False
        small = pruning.compact(model, pruning.PruneMask(keep))
        assert small.nodes[0].params["weight"].shape == (15, 1, 3, 3)
        assert small.nodes[1].params["gamma"].shape == (15,)
        assert small.nodes[1].state["running_var"].shape == (15,)
        assert small.nodes[4].params["weight"].shape == (24, 15, 3, 3)
        assert small.param_count() < model.param_count()
        assert small.sites[0].channels == 15

    @pytest.mark.parametrize("build", [build_mlp_small, build_cnn_small, build_cnn_residual])
    def test_masked_equivalence_float64(self, build):
        model = dirty_stats(build(image_size=8, seed=6)).astype(np.float64)
        mask = random_mask(model, np.random.default_rng(9))
        assert pruned_count(mask) > 0
        deviation = pruning.validate_equivalence(model, mask, trials=20, seed=1)
        assert deviation < 1e-10

    def test_masked_equivalence_float32(self):
        model = dirty_stats(build_cnn_small(image_size=8, seed=6))
        mask = random_mask(model, np.random.default_rng(10))
        deviation = pruning.validate_equivalence(model, mask, trials=20, seed=2)
        assert deviation < 1e-5

    def test_all_keep_deviation_zero(self):
        model = build_cnn_small(image_size=8, seed=6)
        assert pruning.validate_equivalence(model, all_keep(model), trials=5) == 0.0

    @pytest.mark.parametrize("arguments,match", [
        (dict(trials=0), "trials must be an integer >= 1, got 0"),
        (dict(trials=-1), "trials must be an integer >= 1, got -1"),
        (dict(trials=2.0), "trials must be an integer >= 1"),
        (dict(seed=-1), "seed must be an integer in"),
        (dict(seed=2**64), "seed must be an integer in"),
    ], ids=["zero_trials", "negative_trials", "float_trials", "negative_seed", "huge_seed"])
    def test_bad_trials_or_seed_is_input_error(self, arguments, match):
        model = build_cnn_small(image_size=8, seed=6)
        with pytest.raises(InputError, match=match):
            pruning.validate_equivalence(model, all_keep(model), **arguments)

    def test_heavy_pruning_still_equivalent(self):
        model = dirty_stats(build_cnn_small(image_size=8, seed=11)).astype(np.float64)
        keep = {s.site_id: np.zeros(s.channels, bool) for s in model.sites}
        for s in model.sites:
            keep[s.site_id][s.channels // 2] = True
        deviation = pruning.validate_equivalence(model, pruning.PruneMask(keep), trials=10)
        assert deviation < 1e-10

    @pytest.mark.parametrize("build", [build_mlp_small, build_cnn_small, build_cnn_residual])
    def test_hyper_rebuilds_the_compacted_shapes(self, build):
        # compact only slices arrays: each node's hyperparameters follow from them
        model = build(image_size=8, seed=6)
        mask = random_mask(model, np.random.default_rng(9))
        assert pruned_count(mask) > 0
        for node in pruning.compact(model, mask).nodes:
            twin = make_node(node.kind, node.name, node.refs, node.hyper())
            assert [(k, v.shape) for k, v in {**twin.params, **twin.state}.items()] == [
                (k, v.shape) for k, v in {**node.params, **node.state}.items()], node.name

    def test_compacted_model_round_trips_checkpoint(self, tmp_path):
        model = dirty_stats(build_cnn_residual(image_size=8, seed=12))
        mask = random_mask(model, np.random.default_rng(13))
        small = pruning.compact(model, mask)
        path = tmp_path / "small.npkt"
        save_model(path, small)
        again = load_model(path)
        x = np.random.default_rng(14).standard_normal((2,) + small.input_shape)
        a, _ = small.forward(x, "eval")
        b, _ = again.forward(x, "eval")
        assert np.array_equal(a, b)

    def test_residual_coupling_rejected(self):
        nodes = [
            Conv2d("c0", [INPUT], 1, 4, 3, padding=1),
            ReLU("r1", [0]),
            Conv2d("c2", [1], 4, 4, 3, padding=1),
            ResidualAdd("add", [2, 1]),
            Flatten("flat", [3]),
            Linear("fc", [4], 4 * 16, 2),
        ]
        keep = {"c2": np.array([True, True, True, False])}
        model = Model(nodes, (1, 4, 4), 2, [Site("c2", 2, 4)])
        with pytest.raises(CapabilityError, match="add"):
            pruning.compact(model, pruning.PruneMask(keep))
        # pruning the first conv reaches the add through the relu branch
        model2 = Model(nodes, (1, 4, 4), 2, [Site("c0", 0, 4)])
        with pytest.raises(CapabilityError, match="add"):
            pruning.compact(model2, pruning.PruneMask({"c0": keep["c2"]}))

    def test_output_shrink_rejected(self):
        fc = Linear("fc", [INPUT], 4, 3)
        model = Model([fc], (4,), 3, [Site("fc", 0, 3)])
        with pytest.raises(CapabilityError, match="output"):
            pruning.compact(model, pruning.PruneMask({"fc": np.array([True, True, False])}))

    def test_corrupted_compaction_detected(self):
        model = dirty_stats(build_cnn_small(image_size=8, seed=15)).astype(np.float64)
        mask = random_mask(model, np.random.default_rng(16))
        masked = pruning.apply_mask(model, mask)
        small = pruning.compact(model, mask)
        # off-by-one input slice in the second conv
        small.nodes[4].params["weight"] = np.roll(small.nodes[4].params["weight"], 1, axis=1)
        x = np.random.default_rng(17).standard_normal((20,) + model.input_shape)
        a, _ = masked.forward(x, "eval")
        b, _ = small.forward(x, "eval")
        assert np.abs(a - b).max() > 1e-3


def conv2_off(model, channels):
    """A PruneMask that keeps everything except the given conv2 channels."""
    keep = all_keep(model).keep
    keep["conv2"][list(channels)] = False
    return pruning.PruneMask(keep)


class TestMaskComposition:
    def test_two_masks_prune_the_union(self):
        model = build_cnn_small(image_size=8, seed=3)
        first = pruning.apply_mask(model, conv2_off(model, (1, 2, 3)))
        both = pruning.apply_mask(first, conv2_off(model, (5,)))
        assert sorted(both.masks) == [0, 4, 8]  # one mask per site, under its site node
        assert np.flatnonzero(both.masks[4] == 0).tolist() == [1, 2, 3, 5]
        _, record = both.forward(np.random.default_rng(4).standard_normal((2,) + model.input_shape), "eval")
        for node in (4, 5):  # conv2 and the batch norm it feeds
            assert not record.values[node][:, [1, 2, 3, 5]].any()

    def test_all_keep_leaves_existing_mask(self):
        model = build_cnn_small(image_size=8, seed=3)
        masked = pruning.apply_mask(model, conv2_off(model, (1, 2)))
        again = pruning.apply_mask(masked, all_keep(model))
        assert set(again.masks) == set(masked.masks)
        for node, keep in masked.masks.items():
            assert np.array_equal(again.masks[node], keep)

    def test_site_mask_is_kept(self):
        # site conv2's one mask sits on conv2 (node 4); on its batch norm (node 5) it is refused
        model = build_cnn_small(image_size=8, seed=3)
        keep = np.ones(24, np.float32)
        keep[[4, 9]] = 0.0
        model.masks[5] = keep
        for call in (pruning.apply_mask, pruning.compact):
            with pytest.raises(InputError, match=r"mask on node 5: node 5 \(bn2\) is a batch_norm node, not a site"):
                call(model, conv2_off(model, (1,)))
        model.masks = {4: keep}
        again = pruning.apply_mask(model, conv2_off(model, (1,)))
        assert np.flatnonzero(again.masks[4] == 0).tolist() == [1, 4, 9]
        assert 5 not in again.masks
        small = pruning.compact(model, all_keep(model))
        assert small.sites[1].channels == 22
        x = np.random.default_rng(7).standard_normal((3,) + model.input_shape)
        a, _ = model.forward(x, "eval")
        b, _ = small.forward(x, "eval")
        assert np.abs(a - b).max() < 1e-4

    def test_union_emptying_a_site_rejected(self):
        model = build_cnn_small(image_size=8, seed=3)
        masked = pruning.apply_mask(model, conv2_off(model, range(1, 24)))
        with pytest.raises(InputError, match="no channels"):
            pruning.apply_mask(masked, conv2_off(model, (0,)))
        with pytest.raises(InputError, match="no channels"):
            pruning.compact(masked, conv2_off(model, (0,)))

    def test_compact_drops_already_masked_channels(self):
        model = dirty_stats(build_cnn_small(image_size=8, seed=5)).astype(np.float64)
        masked = pruning.apply_mask(model, conv2_off(model, (1, 2, 3)))
        small = pruning.compact(masked, conv2_off(model, (5,)))
        assert small.masks == {}
        assert [s.channels for s in small.sites] == [16, 20, 32]
        assert small.nodes[4].params["weight"].shape == (20, 16, 3, 3)
        assert small.nodes[8].params["weight"].shape == (32, 20, 3, 3)
        x = np.random.default_rng(6).standard_normal((10,) + model.input_shape)
        a, _ = pruning.apply_mask(masked, conv2_off(model, (5,))).forward(x, "eval")
        b, _ = small.forward(x, "eval")
        assert np.abs(a - b).max() < 1e-10

    def test_compact_all_keep_of_masked_model_shrinks(self):
        model = build_cnn_small(image_size=8, seed=5)
        masked = pruning.apply_mask(model, conv2_off(model, (7,)))
        small = pruning.compact(masked, all_keep(model))
        assert small.sites[1].channels == 23
        assert small.param_count() < model.param_count()

    def test_equivalence_on_masked_model(self):
        model = dirty_stats(build_cnn_small(image_size=8, seed=6))
        masked = pruning.apply_mask(model, random_mask(model, np.random.default_rng(20)))
        mask = random_mask(model, np.random.default_rng(21))
        assert pruning.validate_equivalence(masked, mask, trials=20, seed=3) < 1e-4


# masks off every site node: the residual stem conv, the small CNN's
# classifier and a batch-norm gate, (model, node index, node name)
STRAY_MASKS = [("cnn_residual", 0, "conv1"), ("cnn_small", 13, "fc_out"), ("cnn_small", 5, "bn2")]


def with_stray_mask(name, index):
    model = build_reference_models(image_size=8, seed=3)[name]
    keep = np.ones(model.nodes[index].channels, np.float32)
    keep[1] = 0.0
    model.masks[index] = keep
    return model


class TestStrayMasks:
    @pytest.mark.parametrize("name,index,node", STRAY_MASKS)
    def test_compact_names_the_node(self, name, index, node):
        model = with_stray_mask(name, index)
        with pytest.raises(InputError, match=rf"node {index} \({node}\).*not a site node"):
            pruning.compact(model, all_keep(model))
        with pytest.raises(InputError, match=rf"node {index} \({node}\)"):
            pruning.validate_equivalence(model, random_mask(model, np.random.default_rng(1)))

    @pytest.mark.parametrize("name,index,node", STRAY_MASKS)
    def test_apply_mask_rejects_it(self, name, index, node):
        model = with_stray_mask(name, index)
        with pytest.raises(InputError, match=rf"node {index} \({node}\).*not a site node"):
            pruning.apply_mask(model, all_keep(model))


# masks that do not fit the model: (node index, length, error)
MISFIT_MASKS = [(0, 5, r"mask on node 0: shape \(5,\), node has 16 channels"),
                (4, 3, r"mask on node 4: shape \(3,\), node has 24 channels"),
                (99, 16, "mask on node 99: no such node")]


class TestMaskFit:
    """A model mask sits on a site node and has one entry per channel of it."""

    @pytest.mark.parametrize("index,length,match", MISFIT_MASKS, ids=["conv_short", "conv2_short", "no_node"])
    def test_apply_mask_and_compact_reject_it(self, index, length, match):
        model = build_cnn_small(seed=0)
        model.masks[index] = np.ones(length, np.float32)
        mask = all_keep(model)
        with pytest.raises(InputError, match=match):
            pruning.apply_mask(model, mask)
        with pytest.raises(InputError, match=match):
            pruning.compact(model, mask)


class TestMaskValues:
    """A model mask holds only 0s and 1s, the values a checkpoint can store."""

    @pytest.mark.parametrize("value", [2.0, 0.5, -1.0, np.nan])
    def test_apply_mask_and_compact_reject_other_values(self, value):
        model = build_cnn_small(seed=0)
        model.masks[4] = np.ones(model.nodes[4].channels, np.float32)
        model.masks[4][3] = value
        mask = all_keep(model)
        with pytest.raises(InputError, match="mask on node 4 holds values other than 0 and 1"):
            pruning.apply_mask(model, mask)
        with pytest.raises(InputError, match="mask on node 4 holds values other than 0 and 1"):
            pruning.compact(model, mask)
