"""Harness tests: config parsing, the SGD loop, evaluation arithmetic, and
prune-sweep row accounting."""

import numpy as np
import pytest

from prunelab import harness
from prunelab.data import Dataset, generate_shapes, make_splits
from prunelab.errors import ConfigError, FormatError, InputError, TrainingError
from prunelab.nn import INPUT, Flatten, Linear, Model, build_cnn_small, build_mlp_small

from helpers import all_keep, pruned_channels


def tiny_sets(num_classes=2, per_class_train=10, per_class_test=5, image_size=12, noise=0.05, seed=0):
    return make_splits(num_classes, per_class_train, per_class_test, image_size, noise, seed)


class TestConfig:
    def test_defaults_are_valid(self):
        config = harness.ExperimentConfig()
        assert config.model == "cnn_small"
        assert config.estimators == ("taylorfo_sq",)

    def test_unknown_kwarg(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            harness.ExperimentConfig(lerning_rate=0.1)

    def test_replace_returns_modified_copy(self):
        base = harness.ExperimentConfig(epochs=3)
        other = base.replace(epochs=7, noise=0.3)
        assert (base.epochs, other.epochs) == (3, 7)
        assert other.noise == 0.3
        assert base.noise == harness.ExperimentConfig().noise

    def test_from_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# experiment setup\n"
            "model = mlp_small\n"
            "epochs = 4          # short run\n"
            "learning_rate = 0.05\n"
            "\n"
            "estimators = taylorfo, taylorfo_sq\n"
            "normalize = false,true\n"
            "data_sizes = 2,10\n"
            "prune_fractions = 0.0,0.25\n"
        )
        config = harness.ExperimentConfig.from_file(path)
        assert config.model == "mlp_small"
        assert config.epochs == 4
        assert config.learning_rate == 0.05
        assert config.estimators == ("taylorfo", "taylorfo_sq")
        assert config.normalize == (False, True)
        assert config.data_sizes == (2, 10)
        assert config.prune_fractions == (0.0, 0.25)
        assert config.batch_size == 32  # untouched default

    def test_unknown_key_names_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("model = cnn_small\nlerning_rate = 0.1\n")
        with pytest.raises(ConfigError, match="line 2.*lerning_rate"):
            harness.ExperimentConfig.from_file(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("epochs = ten\n")
        with pytest.raises(ConfigError, match="bad value for epochs"):
            harness.ExperimentConfig.from_file(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("epochs = 1\nepochs = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            harness.ExperimentConfig.from_file(path)

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "eq.cfg"
        path.write_text("epochs 3\n")
        with pytest.raises(ConfigError, match="key = value"):
            harness.ExperimentConfig.from_file(path)

    def test_bool_literal_strictness(self, tmp_path):
        path = tmp_path / "bool.cfg"
        path.write_text("normalize = yes\n")
        with pytest.raises(ConfigError, match="true or false"):
            harness.ExperimentConfig.from_file(path)

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "bin.cfg"
        path.write_bytes(b"epochs = 2\n\xff\xfe\n")
        with pytest.raises(ConfigError, match="UTF-8"):
            harness.ExperimentConfig.from_file(path)

    def test_validation_errors(self):
        cases = [
            dict(model="resnet50"),
            dict(epochs=-1),
            dict(batch_size=0),
            dict(learning_rate=0.0),
            dict(momentum=1.0),
            dict(estimators=()),
            dict(estimators=("magnitude",)),
            dict(sources=("labels",)),
            dict(data_sizes=(0,)),
            dict(prune_fractions=(1.0,)),
            dict(sweep_seeds=()),
        ]
        for kwargs in cases:
            with pytest.raises(ConfigError):
                harness.ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("key,value", [
        ("seed", -1), ("data_seed", -1), ("seed", 2**64), ("sweep_seeds", (-1,)), ("sweep_seeds", (2**64,)),
        ("num_classes", 11), ("num_classes", 1), ("image_size", 8),
        ("noise", float("nan")), ("noise", float("inf")), ("learning_rate", float("inf")),
        ("learning_rate", float("nan")), ("learning_rate", 10**400), ("weight_decay", float("nan")), ("weight_decay", float("inf")),
        ("epochs", "3"), ("epochs", 2.5), ("epochs", True), ("batch_size", None), ("momentum", "0.5"),
        ("data_sizes", 5), ("data_sizes", (2.5,)), ("normalize", True), ("normalize", (1,)),
        ("estimators", "taylorfo_sq"), ("prune_counts", 3), ("prune_counts", (True,)),
        ("prune_fractions", (float("nan"),)),
    ])
    def test_every_field_has_a_rule(self, key, value):
        with pytest.raises(ConfigError, match=rf"^{key} must be .*, got "):
            harness.ExperimentConfig(**{key: value})
        with pytest.raises(ConfigError, match=rf"^{key} must be "):
            harness.ExperimentConfig().replace(**{key: value})

    @pytest.mark.parametrize("line", ["seed = -1", "data_seed = -1", "sweep_seeds = 0,-1", "noise = nan",
                                      "noise = inf", "num_classes = 11", "image_size = 8"])
    def test_file_values_follow_the_rules(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match=rf"^{line.split()[0]} must be "):
            harness.ExperimentConfig.from_file(path)

    def test_prune_counts_and_fractions_exclude_each_other(self, tmp_path):
        with pytest.raises(ConfigError, match="prune_counts and prune_fractions"):
            harness.ExperimentConfig(prune_counts=(4,), prune_fractions=(0.5,))
        path = tmp_path / "both.cfg"
        path.write_text("prune_counts = 4\nprune_fractions = 0.5\n")
        with pytest.raises(ConfigError, match="prune_counts and prune_fractions"):
            harness.ExperimentConfig.from_file(path)
        config = harness.ExperimentConfig(prune_counts=(4,)).replace(prune_counts=None, prune_fractions=(0.5,))
        assert config.prune_fractions == (0.5,)

    def test_valid_values_are_kept_as_given(self):
        config = harness.ExperimentConfig(epochs=np.int64(3), learning_rate=1, data_sizes=[2, 4],
                                          prune_counts=(), seed=2**64 - 1, num_classes=10, image_size=12)
        assert (config.epochs, config.learning_rate, config.data_sizes) == (3, 1, (2, 4))
        assert (config.prune_counts, config.seed) == ((), 2**64 - 1)

    def test_table_gives_each_field_a_rule_its_default_passes(self):
        for key, (parse, default, (test, words)) in harness._FIELDS.items():
            assert callable(parse) and isinstance(words, str)
            assert test(default), key


class TestTrain:
    def test_zero_epochs_leaves_parameters(self):
        train_set, _ = tiny_sets()
        model = build_mlp_small(num_classes=2, image_size=12, seed=0)
        config = harness.ExperimentConfig(model="mlp_small", epochs=0)
        trained, log = harness.train(model, train_set, config)
        assert log == []
        for (_, _, _, a), (_, _, _, b) in zip(model.parameters(), trained.parameters()):
            assert a.tobytes() == b.tobytes()

    def test_images_labels_pair_is_input_error(self):
        train_set, _ = tiny_sets()
        model = build_mlp_small(num_classes=2, image_size=12, seed=0)
        config = harness.ExperimentConfig(model="mlp_small", epochs=1)
        with pytest.raises(InputError, match="dataset must be a Dataset"):
            harness.train(model, (train_set.images, train_set.labels), config)

    def test_loss_decreases(self):
        train_set, _ = tiny_sets()
        model = build_mlp_small(num_classes=2, image_size=12, seed=0)
        config = harness.ExperimentConfig(model="mlp_small", epochs=5, learning_rate=0.05)
        _, log = harness.train(model, train_set, config)
        assert len(log) == 5
        assert log[-1].loss < log[0].loss

    def test_deterministic(self):
        train_set, _ = tiny_sets()
        model = build_mlp_small(num_classes=2, image_size=12, seed=0)
        config = harness.ExperimentConfig(model="mlp_small", epochs=3)
        a, log_a = harness.train(model, train_set, config)
        b, log_b = harness.train(model, train_set, config)
        assert log_a == log_b
        for (_, _, _, pa), (_, _, _, pb) in zip(a.parameters(), b.parameters()):
            assert pa.tobytes() == pb.tobytes()

    def test_divergence_names_epoch(self):
        train_set, _ = tiny_sets()
        model = build_mlp_small(num_classes=2, image_size=12, seed=0)
        config = harness.ExperimentConfig(model="mlp_small", epochs=3, learning_rate=1e8)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingError, match="epoch"):
                harness.train(model, train_set, config)

    def test_memorizes_two_examples(self):
        dataset = generate_shapes(2, 1, image_size=12, noise=0.0, seed=3)
        model = build_mlp_small(num_classes=2, image_size=12, seed=1)
        config = harness.ExperimentConfig(model="mlp_small", epochs=40, batch_size=2,
                                          learning_rate=0.05, weight_decay=0.0)
        trained, _ = harness.train(model, dataset, config)
        assert harness.evaluate(trained, dataset) == 1.0

    def test_untrained_model_is_chance_level(self):
        _, test_set = tiny_sets(num_classes=4, per_class_test=50, image_size=16)
        accs = [harness.evaluate(build_cnn_small(num_classes=4, image_size=16, seed=s), test_set)
                for s in range(5)]
        assert abs(np.mean(accs) - 0.25) <= 0.1

    def test_masked_channels_do_not_move(self):
        from prunelab.pruning import PruneMask, apply_mask

        train_set, _ = tiny_sets()
        model = build_mlp_small(num_classes=2, image_size=12, seed=0)
        keep = all_keep(model).keep
        keep["fc1"][3] = False
        masked = apply_mask(model, PruneMask(keep))
        config = harness.ExperimentConfig(model="mlp_small", epochs=2, weight_decay=0.0)
        trained, _ = harness.train(masked, train_set, config)
        assert trained.nodes[1].params["weight"][3].tobytes() == masked.nodes[1].params["weight"][3].tobytes()
        assert trained.nodes[1].params["bias"][3] == masked.nodes[1].params["bias"][3]
        assert trained.nodes[3].params["weight"][:, 3].tobytes() == masked.nodes[3].params["weight"][:, 3].tobytes()
        assert trained.nodes[1].params["weight"][2].tobytes() != masked.nodes[1].params["weight"][2].tobytes()

    def test_trains_to_frozen_threshold(self):
        config = harness.ExperimentConfig()
        train_set, _ = harness.build_datasets(config)
        trained, _ = harness.train(harness.build_model(config), train_set, config)
        assert harness.evaluate(trained, train_set) >= 0.95


class TestEvaluate:
    def test_constant_logits_pick_lowest_class(self):
        images = np.zeros((5, 1, 2, 2), dtype=np.float32)
        labels = np.array([0, 0, 0, 1, 1])
        dataset = Dataset(images, labels, "test", 0)
        fc = Linear("fc", [0], 4, 2)
        model = Model([Flatten("flat", [INPUT]), fc], (1, 2, 2), 2)
        # all logits zero: argmax ties resolve to class 0
        assert harness.evaluate(model, dataset) == 0.6

    def test_images_labels_pair_is_input_error(self):
        _, test_set = tiny_sets()
        model = build_mlp_small(num_classes=2, image_size=12, seed=0)
        with pytest.raises(InputError, match="dataset must be a Dataset"):
            harness.evaluate(model, (test_set.images, test_set.labels))

    def test_fractional_batch_size_is_input_error(self):
        _, test_set = tiny_sets()
        model = build_mlp_small(num_classes=2, image_size=12, seed=0)
        with pytest.raises(InputError, match="batch_size must be an integer >= 1, got 2.5"):
            harness.evaluate(model, test_set, 2.5)

    def test_repeatable(self):
        _, test_set = tiny_sets()
        model = build_mlp_small(num_classes=2, image_size=12, seed=0)
        assert harness.evaluate(model, test_set) == harness.evaluate(model, test_set)

    def test_empty_dataset_rejected(self):
        # a Dataset holds at least one example, and an empty stand-in is no Dataset
        with pytest.raises(InputError, match="at least one example"):
            Dataset(np.zeros((0, 1, 2, 2)), np.zeros(0, dtype=np.int64), "test", 0)

        class Empty:
            images = np.zeros((0, 1, 2, 2))
            labels = np.zeros(0, dtype=np.int64)

            def __len__(self):
                return 0

        model = build_mlp_small(num_classes=2, image_size=12, seed=0)
        with pytest.raises(InputError, match="dataset must be a Dataset"):
            harness.evaluate(model, Empty())


    def test_labels_beyond_the_model_fail_before_any_forward(self, monkeypatch):
        _, test_set = tiny_sets(num_classes=3)
        model = build_mlp_small(num_classes=2, image_size=12, seed=0)
        monkeypatch.setattr(Model, "forward", lambda *args: pytest.fail("forward ran"))
        with pytest.raises(InputError, match=r"labels out of range \[0, 2\): 0\.\.2"):
            harness.evaluate(model, test_set)


class TestRandomTable:
    def test_covers_channels_and_is_seeded(self):
        model = build_cnn_small(image_size=16, seed=0)
        a = harness.random_importance_table(model, seed=1)
        b = harness.random_importance_table(model, seed=1)
        c = harness.random_importance_table(model, seed=2)
        assert len(a) == sum(s.channels for s in model.sites)
        assert a.entries == b.entries
        assert a.entries != c.entries

    def test_usable_for_ranking(self):
        from prunelab.pruning import rank_global

        model = build_cnn_small(image_size=16, seed=0)
        plan = rank_global(harness.random_importance_table(model, seed=0), 10)
        assert len(pruned_channels(plan)) == 10


@pytest.fixture(scope="module")
def sweep_setup():
    train_set, test_set = tiny_sets(num_classes=4, per_class_train=8, per_class_test=4, image_size=16)
    model = build_cnn_small(num_classes=4, image_size=16, seed=2)
    return model, train_set, test_set


class TestPruneSweep:
    def test_row_accounting(self, sweep_setup):
        model, train_set, test_set = sweep_setup
        config = harness.ExperimentConfig(
            estimators=("taylorfo", "taylorfo_sq"), data_sizes=(4,), prune_counts=(5, 10))
        result = harness.prune_sweep(model, train_set, test_set, config)
        assert len(result) == 6  # 2 estimators x (baseline + 2 prune points)
        assert [r.pruned_count for r in result.rows] == [0, 5, 10, 0, 5, 10]
        assert {r.estimator for r in result.rows} == {"taylorfo", "taylorfo_sq"}

    def test_baseline_matches_standalone_eval(self, sweep_setup):
        model, train_set, test_set = sweep_setup
        config = harness.ExperimentConfig(data_sizes=(4,), prune_counts=(5,), eval_batch_size=64)
        result = harness.prune_sweep(model, train_set, test_set, config)
        baseline = harness.evaluate(model, test_set, 64)
        assert result.select(pruned_count=0)[0].test_accuracy == baseline

    def test_fractions_resolve_against_total(self, sweep_setup):
        model, train_set, test_set = sweep_setup
        total = sum(s.channels for s in model.sites)
        config = harness.ExperimentConfig(data_sizes=(2,), prune_fractions=(0.0, 0.5))
        result = harness.prune_sweep(model, train_set, test_set, config)
        assert [r.pruned_count for r in result.rows] == [0, round(0.5 * total)]
        assert result.rows[1].pruned_fraction == round(0.5 * total) / total

    def test_default_grid_is_ten_points(self, sweep_setup):
        model, train_set, test_set = sweep_setup
        total = sum(s.channels for s in model.sites)
        config = harness.ExperimentConfig(data_sizes=(2,))
        result = harness.prune_sweep(model, train_set, test_set, config)
        counts = [r.pruned_count for r in result.rows]
        assert len(counts) == 10
        assert counts[0] == 0
        assert counts == sorted(counts)
        assert counts[-1] == round(0.7 * total)

    def test_deterministic_and_byte_identical(self, sweep_setup, tmp_path):
        model, train_set, test_set = sweep_setup
        config = harness.ExperimentConfig(
            sources=("random",), normalize=(True,), data_sizes=(3,), prune_counts=(8,))
        a = harness.prune_sweep(model, train_set, test_set, config)
        b = harness.prune_sweep(model, train_set, test_set, config)
        assert a.rows == b.rows
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a.to_csv(pa)
        b.to_csv(pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_maximal_pruning_collapses_to_chance(self):
        config = harness.ExperimentConfig(per_class_train=30, per_class_test=25, epochs=5)
        train_set, test_set = harness.build_datasets(config)
        trained, _ = harness.train(harness.build_model(config), train_set, config)
        total = sum(s.channels for s in trained.sites)
        sweep_config = config.replace(data_sizes=(16,), prune_counts=(total - 3,))
        result = harness.prune_sweep(trained, train_set, test_set, sweep_config)
        floor = result.select(pruned_count=total - 3)[0].test_accuracy
        assert floor <= 0.25 + 0.15

    def test_finetune_path_runs(self, sweep_setup):
        model, train_set, test_set = sweep_setup
        config = harness.ExperimentConfig(
            data_sizes=(2,), prune_counts=(6,), finetune_epochs=1, epochs=1)
        result = harness.prune_sweep(model, train_set, test_set, config)
        assert all(0 <= r.test_accuracy <= 1 for r in result.rows)

    @pytest.mark.parametrize("fractions", [(0.5, 0.99), (0.99,)])
    def test_too_large_p_fails_before_any_work(self, sweep_setup, monkeypatch, fractions):
        model, train_set, test_set = sweep_setup
        calls = []
        monkeypatch.setattr(harness, "evaluate", lambda *args: calls.append("evaluate"))
        monkeypatch.setattr(harness, "estimate", lambda *args, **kwargs: calls.append("estimate"))
        config = harness.ExperimentConfig(data_sizes=(2,), prune_fractions=fractions)
        with pytest.raises(InputError, match=r"p must be an integer in \[0, 69\], got 71"):
            harness.prune_sweep(model, train_set, test_set, config)
        assert calls == []

    def test_test_labels_beyond_the_model_fail_before_any_work(self, sweep_setup, monkeypatch):
        model, train_set, _ = sweep_setup
        _, test_set = tiny_sets(num_classes=6, per_class_train=8, per_class_test=4, image_size=16)
        monkeypatch.setattr(Model, "forward", lambda *args: pytest.fail("forward ran"))
        monkeypatch.setattr(harness, "estimate", lambda *args, **kwargs: pytest.fail("estimate ran"))
        config = harness.ExperimentConfig(sources=("random",), data_sizes=(2,), prune_counts=(5,))
        with pytest.raises(InputError, match=r"labels out of range \[0, 4\): 0\.\.5"):
            harness.prune_sweep(model, train_set, test_set, config)

    def test_sweep_seed_feeds_random_source(self, sweep_setup):
        model, train_set, test_set = sweep_setup
        config = harness.ExperimentConfig(
            sources=("random",), data_sizes=(4,), prune_counts=(20,), sweep_seeds=(0, 1))
        result = harness.prune_sweep(model, train_set, test_set, config)
        assert {r.seed for r in result.rows} == {0, 1}


class TestSweepCsv:
    def result(self, sweep_setup):
        model, train_set, test_set = sweep_setup
        config = harness.ExperimentConfig(data_sizes=(2,), prune_counts=(4,))
        return harness.prune_sweep(model, train_set, test_set, config)

    def test_round_trip(self, sweep_setup, tmp_path):
        result = self.result(sweep_setup)
        path = tmp_path / "r.csv"
        result.to_csv(path)
        assert path.read_text().splitlines()[0] == ",".join(harness.SweepResult.COLUMNS)
        loaded = harness.SweepResult.from_csv(path)
        assert loaded.rows == result.rows

    def test_resave_byte_identical(self, sweep_setup, tmp_path):
        result = self.result(sweep_setup)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        result.to_csv(a)
        harness.SweepResult.from_csv(a).to_csv(b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("estimator,accuracy\n")
        with pytest.raises(FormatError, match="header"):
            harness.SweepResult.from_csv(path)

    @pytest.mark.parametrize("column,value", [("test_accuracy", "1.5"), ("test_accuracy", "nan"),
                                              ("pruned_fraction", "-0.25"), ("pruned_fraction", "inf")])
    def test_out_of_range_value_is_format_error(self, sweep_setup, tmp_path, column, value):
        path = tmp_path / "r.csv"
        self.result(sweep_setup).to_csv(path)
        header, first, *rest = path.read_text().splitlines()
        fields = first.split(",")
        fields[header.split(",").index(column)] = value
        path.write_text("\n".join([header, ",".join(fields)] + rest) + "\n")
        with pytest.raises(FormatError, match=f"row 2: {column} must be "):
            harness.SweepResult.from_csv(path)

    def test_accuracy_range_validated(self):
        with pytest.raises(InputError, match="accuracy"):
            harness.SweepResult([("taylorfo", "loss", False, 2, 1, 0.1, 1.5, 0)])

    @pytest.mark.parametrize("column,value", [("estimator", "bogus"), ("source", "nowhere"),
                                              ("data_size", "0"), ("pruned_count", "-7"),
                                              ("seed", "-3"), ("seed", str(2**64))])
    def test_unwritable_value_is_format_error(self, sweep_setup, tmp_path, column, value):
        path = tmp_path / "r.csv"
        self.result(sweep_setup).to_csv(path)
        header, first, *rest = path.read_text().splitlines()
        fields = first.split(",")
        fields[header.split(",").index(column)] = value
        path.write_text("\n".join([header, ",".join(fields)] + rest) + "\n")
        with pytest.raises(FormatError, match=f"row 2: {column} must be "):
            harness.SweepResult.from_csv(path)

    def test_row_no_sweep_writes_is_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(",".join(harness.SweepResult.COLUMNS) + "\nbogus,nowhere,false,-5,-7,0.5,0.5,-3\n")
        with pytest.raises(FormatError, match="row 2: estimator must be .*, got 'bogus'"):
            harness.SweepResult.from_csv(path)
        with pytest.raises(InputError, match="estimator must be .*, got 'bogus'"):
            harness.SweepResult([("bogus", "nowhere", False, -5, -7, 0.5, 0.5, -3)])

    @pytest.mark.parametrize("index,value", [(1, "none"), (3, 0), (4, -1), (7, -1), (7, 2**64)])
    def test_constructor_rejects_unwritable_value(self, index, value):
        row = ["taylorfo", "loss", False, 2, 1, 0.1, 0.5, 0]
        row[index] = value
        with pytest.raises(InputError, match=f"{harness.SweepResult.COLUMNS[index]} must be "):
            harness.SweepResult([tuple(row)])

    def test_select_unknown_column(self, sweep_setup):
        result = self.result(sweep_setup)
        with pytest.raises(InputError, match="column"):
            result.select(estimater="taylorfo")
