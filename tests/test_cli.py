"""End-to-end tests for the command-line interface.

Everything goes through cli.main(argv) so the tests see exactly what a shell
user sees: exit codes, files on disk, and text on stdout/stderr.
"""

import contextlib
import io
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunelab import data, harness
from prunelab.checkpoint import load_model, save_model
from prunelab.cli import main
from prunelab.errors import InputError
from prunelab.harness import SweepResult
from prunelab.importance import ImportanceTable
from prunelab.nn import build_reference_models
from prunelab.pruning import PruneMask, PrunePlan, apply_mask

from helpers import all_keep, rewrite_header

CONFIG_TEXT = """\
# small enough to keep the suite fast
per_class_train = 8
per_class_test = 4
epochs = 2
data_sizes = 4
prune_counts = 0,5
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A directory with a config, a trained checkpoint and IDX files."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "tiny.cfg"
    cfg.write_text(CONFIG_TEXT)
    ckpt = root / "model.npkt"
    assert main(["train", "--config", str(cfg), "--out", str(ckpt)]) == 0
    shapes = data.generate_shapes(4, 6, 16, 0.1, seed=3, split="train")
    data.save_idx(shapes, str(root / "imgs.idx"), str(root / "labs.idx"))
    return root


def run(workspace, *argv):
    return main([a.replace("@", str(workspace)) for a in argv])


class TestParsing:
    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_module_run_prints_no_warning(self):
        # the package must not import cli, or runpy warns that it is already in sys.modules
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-W", "error", "-m", "prunelab.cli", "--help"],
                              capture_output=True, text=True, env=env, check=False)
        assert done.returncode == 0
        assert done.stderr == ""

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self):
        assert main(["eval", "--bogus"]) == 1

    def test_missing_required_flag_is_usage_error(self):
        assert main(["train"]) == 1


class TestTrain:
    def test_writes_loadable_checkpoint(self, workspace):
        model = load_model(str(workspace / "model.npkt"))
        assert model.param_count() == 11172

    def test_logs_one_line_per_epoch(self, workspace, capsys):
        out = workspace / "again.npkt"
        assert run(workspace, "train", "--config", "@/tiny.cfg", "--out", str(out)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(1 for l in lines if l.startswith("epoch ")) == 2

    def test_images_without_labels_is_usage_error(self, workspace, capsys):
        code = run(workspace, "train", "--config", "@/tiny.cfg",
                   "--images", "@/imgs.idx", "--out", "@/never.npkt")
        assert code == 1
        assert "labels" in capsys.readouterr().err

    def test_trains_from_idx_files(self, workspace, tmp_path):
        out = tmp_path / "idx.npkt"
        code = run(workspace, "train", "--config", "@/tiny.cfg",
                   "--images", "@/imgs.idx", "--labels", "@/labs.idx", "--out", str(out))
        assert code == 0
        assert out.exists()


class TestImportance:
    def test_scores_every_prunable_channel(self, workspace, tmp_path):
        out = tmp_path / "table.csv"
        code = run(workspace, "importance", "--config", "@/tiny.cfg",
                   "--checkpoint", "@/model.npkt", "--estimator", "taylorfo_sq",
                   "--out", str(out))
        assert code == 0
        table = ImportanceTable.from_csv(str(out))
        assert len(table) == 72
        assert table.estimator == "taylorfo_sq"

    def test_random_source_needs_no_labels(self, workspace, tmp_path):
        out = tmp_path / "free.csv"
        code = run(workspace, "importance", "--config", "@/tiny.cfg",
                   "--checkpoint", "@/model.npkt", "--images", "@/imgs.idx",
                   "--source", "random", "--normalize", "--data-size", "6",
                   "--out", str(out))
        assert code == 0
        table = ImportanceTable.from_csv(str(out))
        assert len(table) == 72
        assert table.source == "random"
        assert table.normalized

    def test_label_free_run_is_deterministic(self, workspace, tmp_path):
        argv = ["importance", "--config", "@/tiny.cfg", "--checkpoint", "@/model.npkt",
                "--images", "@/imgs.idx", "--source", "random", "--normalize",
                "--data-size", "6", "--out", None]
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            argv[-1] = str(path)
            assert run(workspace, *argv) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_loss_source_without_labels_is_usage_error(self, workspace, tmp_path, capsys):
        code = run(workspace, "importance", "--config", "@/tiny.cfg",
                   "--checkpoint", "@/model.npkt", "--images", "@/imgs.idx",
                   "--source", "loss", "--out", str(tmp_path / "no.csv"))
        assert code == 1
        assert "label" in capsys.readouterr().err

    def test_seed_flag_overrides_config(self, workspace, tmp_path):
        out = tmp_path / "seeded.csv"
        code = run(workspace, "importance", "--config", "@/tiny.cfg",
                   "--checkpoint", "@/model.npkt", "--seed", "7", "--out", str(out))
        assert code == 0
        assert ImportanceTable.from_csv(str(out)).seed == 7

    @pytest.mark.parametrize("line", ["estimators = taylorfo, molchanov_bn", "sources = loss, random",
                                      "normalize = false, true", "data_sizes = 4, 8"])
    def test_a_list_for_a_single_value_key_is_config_error(self, tmp_path, capsys, line):
        # exit 2 rather than 3 for the missing checkpoint: the keys are checked before any work
        (tmp_path / "two.cfg").write_text(line + "\n")
        code = main(["importance", "--config", str(tmp_path / "two.cfg"),
                     "--checkpoint", str(tmp_path / "missing.npkt"), "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert f"{line.split()[0]} must hold one value" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()


@pytest.fixture(scope="module")
def table_path(workspace):
    out = workspace / "rank.csv"
    assert run(workspace, "importance", "--config", "@/tiny.cfg",
               "--checkpoint", "@/model.npkt", "--out", str(out)) == 0
    return out


class TestPrune:
    def test_count_produces_smaller_checkpoint(self, workspace, table_path, tmp_path):
        out = tmp_path / "small.npkt"
        plan = tmp_path / "plan.csv"
        code = run(workspace, "prune", "--checkpoint", "@/model.npkt",
                   "--table", str(table_path), "--prune-count", "10",
                   "--plan", str(plan), "--out", str(out))
        assert code == 0
        small = load_model(str(out))
        assert small.param_count() < 11172
        assert plan.read_text().startswith("rank,site_id,node_index,channel,score,pruned")

    def test_fraction_matches_equivalent_count(self, workspace, table_path, tmp_path):
        by_count = tmp_path / "count.npkt"
        by_frac = tmp_path / "frac.npkt"
        base = ["prune", "--checkpoint", "@/model.npkt", "--table", str(table_path)]
        assert run(workspace, *base, "--prune-count", "18", "--out", str(by_count)) == 0
        assert run(workspace, *base, "--prune-fraction", "0.25", "--out", str(by_frac)) == 0
        assert by_count.read_bytes() == by_frac.read_bytes()

    def test_count_and_fraction_are_mutually_exclusive(self, workspace, table_path, tmp_path):
        code = run(workspace, "prune", "--checkpoint", "@/model.npkt",
                   "--table", str(table_path), "--prune-count", "5",
                   "--prune-fraction", "0.1", "--out", str(tmp_path / "no.npkt"))
        assert code == 1

    def test_one_of_count_or_fraction_is_required(self, workspace, table_path, tmp_path):
        code = run(workspace, "prune", "--checkpoint", "@/model.npkt",
                   "--table", str(table_path), "--out", str(tmp_path / "no.npkt"))
        assert code == 1

    @pytest.mark.parametrize("count", [0, 6])
    def test_masked_checkpoint_keeps_its_pruned_channels(self, workspace, table_path, tmp_path, count):
        # mask each site's top-scored channel, which the plan itself never prunes
        model = load_model(str(workspace / "model.npkt"))
        scores = ImportanceTable.from_csv(str(table_path))
        keep = all_keep(model).keep
        for site in model.sites:
            keep[site.site_id][np.argmax(scores.scores(site.site_id))] = False
        masked = tmp_path / "masked.npkt"
        save_model(masked, apply_mask(model, PruneMask(keep)))
        plan, out = tmp_path / "plan.csv", tmp_path / "small.npkt"
        assert run(workspace, "prune", "--checkpoint", str(masked), "--table", str(table_path),
                   "--prune-count", str(count), "--plan", str(plan), "--out", str(out)) == 0
        planned = PrunePlan.from_csv(str(plan)).mask().keep
        small = load_model(str(out))
        assert small.masks == {}
        for site, kept in zip(model.sites, small.sites):
            assert kept.channels == int((keep[site.site_id] & planned[site.site_id]).sum())
        assert sum(s.channels for s in small.sites) == 72 - count - len(model.sites)

    def test_excessive_count_is_input_error(self, workspace, table_path, tmp_path, capsys):
        code = run(workspace, "prune", "--checkpoint", "@/model.npkt",
                   "--table", str(table_path), "--prune-count", "72",
                   "--out", str(tmp_path / "no.npkt"))
        assert code == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("column,value", [("data_size", "4.5"), ("seed", "x"),
                                              ("score", "nan"), ("score", "inf")])
    def test_malformed_table_is_format_error(self, workspace, table_path, tmp_path, capsys,
                                             column, value):
        header, *rows = table_path.read_text().splitlines()
        at = header.split(",").index(column)
        bad_rows = []
        for row in rows:
            fields = row.split(",")
            fields[at] = value
            bad_rows.append(",".join(fields))
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([header] + bad_rows) + "\n")
        code = run(workspace, "prune", "--checkpoint", "@/model.npkt", "--table", str(bad),
                   "--prune-count", "5", "--out", str(tmp_path / "no.npkt"))
        err = capsys.readouterr().err
        assert code == 3
        assert "row 2" in err and "Traceback" not in err

    @pytest.mark.parametrize("damage", ["non_utf8", "oversized_field", "bogus_metadata"])
    def test_unloadable_table_exits_3(self, workspace, table_path, tmp_path, capsys, damage):
        header, *rows = table_path.read_bytes().splitlines()
        if damage == "bogus_metadata":
            rows = [b",".join(row.split(b",")[:4]) + b",bogus,nowhere,false,-5,-3" for row in rows]
        else:
            site_id = b"x" * 131073 if damage == "oversized_field" else b"conv1\xff"
            rows[0] = site_id + rows[0][rows[0].index(b","):]
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\n".join([header] + rows) + b"\n")
        code = run(workspace, "prune", "--checkpoint", "@/model.npkt", "--table", str(bad),
                   "--prune-count", "5", "--out", str(tmp_path / "no.npkt"))
        err = capsys.readouterr().err
        assert code == 3
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("name,index", [("cnn_residual", 0), ("cnn_small", 13)])
    def test_mask_outside_gate_nodes_exits_3(self, workspace, tmp_path, capsys, name, index):
        # a mask on the residual stem conv or on the classifier gates no site
        model = build_reference_models()[name]
        keep = [1] * model.nodes[index].channels
        keep[1] = 0
        save_model(tmp_path / "stray.npkt", model)
        rewrite_header(tmp_path / "stray.npkt", lambda header: header["masks"].update({str(index): keep}))
        harness.random_importance_table(model).to_csv(tmp_path / "scores.csv")
        code = run(workspace, "prune", "--checkpoint", str(tmp_path / "stray.npkt"),
                   "--table", str(tmp_path / "scores.csv"), "--prune-count", "3",
                   "--out", str(tmp_path / "small.npkt"))
        err = capsys.readouterr().err
        assert code == 3
        assert f"mask on node {index}" in err and "Traceback" not in err
        assert not (tmp_path / "small.npkt").exists()
        model.masks[index] = np.array(keep, np.float32)
        with pytest.raises(InputError, match=f"mask on node {index}: .* gates no site"):
            save_model(tmp_path / "in_memory.npkt", model)
        assert not (tmp_path / "in_memory.npkt").exists()


class TestEval:
    def test_prints_accuracy(self, workspace, capsys):
        assert run(workspace, "eval", "--config", "@/tiny.cfg",
                   "--checkpoint", "@/model.npkt") == 0
        assert capsys.readouterr().out.startswith("accuracy ")

    def test_accuracy_file_round_trips(self, workspace, tmp_path, capsys):
        out = tmp_path / "acc.txt"
        assert run(workspace, "eval", "--config", "@/tiny.cfg",
                   "--checkpoint", "@/model.npkt", "--out", str(out)) == 0
        printed = capsys.readouterr().out.split()[1]
        assert out.read_text().strip() == printed

    def test_missing_checkpoint_is_runtime_error(self, workspace, capsys):
        assert run(workspace, "eval", "--checkpoint", "@/nowhere.npkt") == 3
        assert "error:" in capsys.readouterr().err

    def test_idx_test_set(self, workspace):
        assert run(workspace, "eval", "--config", "@/tiny.cfg", "--checkpoint", "@/model.npkt",
                   "--images", "@/imgs.idx", "--labels", "@/labs.idx") == 0


class TestClassCount:
    """A 4-class checkpoint run with a config of another class count."""

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_labels_beyond_the_checkpoint_are_runtime_error(self, workspace, tmp_path, capsys, command):
        cfg = tmp_path / "six.cfg"
        cfg.write_text(CONFIG_TEXT + "num_classes = 6\nsources = random\n")
        out = tmp_path / "out.csv"
        assert run(workspace, command, "--config", str(cfg), "--checkpoint", "@/model.npkt",
                   "--out", str(out)) == 3
        assert "error: labels out of range [0, 4): 0..5" in capsys.readouterr().err
        assert not out.exists()


class TestConfigHandling:
    def test_unknown_config_key_is_config_error(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("epochs = 2\nwat = 1\n")
        code = run(workspace, "eval", "--config", str(bad), "--checkpoint", "@/model.npkt")
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_non_utf8_config_is_config_error(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bin.cfg"
        bad.write_bytes(b"epochs = 2\n\x80\x81 = 1\n")
        code = run(workspace, "eval", "--config", str(bad), "--checkpoint", "@/model.npkt")
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and "Traceback" not in err

    def test_missing_config_file_is_runtime_error(self, workspace):
        code = run(workspace, "eval", "--config", "@/nope.cfg", "--checkpoint", "@/model.npkt")
        assert code == 3


class TestConfigRules:
    """Config-file values exit 2 and flag values exit 1, before any work starts."""

    @pytest.mark.parametrize("line", ["seed = -1", "data_seed = -1", "sweep_seeds = -1", "noise = nan",
                                      "noise = inf", "num_classes = 11", "image_size = 8",
                                      "prune_counts = 4\nprune_fractions = 0.5"])
    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_bad_file_value_exits_2(self, tmp_path, capsys, line, command):
        bad = tmp_path / "bad.cfg"
        bad.write_text(line + "\n")
        assert main([command, "--config", str(bad), "--out", str(tmp_path / "never")]) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err and "Traceback" not in captured.err
        assert captured.out == "" and not (tmp_path / "never").exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--config", "@/tiny.cfg", "--seed=-1"],
        ["train", "--config", "@/tiny.cfg", f"--seed={2**64}"],
        ["importance", "--config", "@/tiny.cfg", "--checkpoint", "@/model.npkt", "--seed=-1"],
        ["importance", "--config", "@/tiny.cfg", "--checkpoint", "@/model.npkt", "--data-size=0"],
        ["importance", "--config", "@/tiny.cfg", "--checkpoint", "@/model.npkt", "--data-size=-3"],
        ["eval", "--config", "@/tiny.cfg", "--checkpoint", "@/model.npkt", "--seed=-1"],
    ])
    def test_bad_flag_value_exits_1(self, workspace, tmp_path, capsys, argv):
        assert run(workspace, *argv, "--out", str(tmp_path / "never")) == 1
        err = capsys.readouterr().err
        assert "usage error: bad flag value" in err and "Traceback" not in err
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("fraction", ["nan", "inf", "-inf", "-0.1", "1.0", "2"])
    def test_bad_prune_fraction_exits_1(self, workspace, table_path, tmp_path, capsys, fraction):
        code = run(workspace, "prune", "--checkpoint", "@/model.npkt", "--table", str(table_path),
                   f"--prune-fraction={fraction}", "--out", str(tmp_path / "never.npkt"))
        err = capsys.readouterr().err
        assert code == 1
        assert "prune_fractions must be" in err and "Traceback" not in err

    def test_prune_flag_replaces_the_config_level(self, workspace, table_path, tmp_path):
        # tiny.cfg sets prune_counts; a --prune-fraction flag replaces it instead of conflicting
        by_count, by_frac = tmp_path / "count.npkt", tmp_path / "frac.npkt"
        base = ["prune", "--config", "@/tiny.cfg", "--checkpoint", "@/model.npkt", "--table", str(table_path)]
        assert run(workspace, *base, "--prune-count", "18", "--out", str(by_count)) == 0
        assert run(workspace, *base, "--prune-fraction", "0.25", "--out", str(by_frac)) == 0
        assert by_count.read_bytes() == by_frac.read_bytes()


# adversarial flag values: negative, zero and >= 2**64 integers, non-finite and
# out-of-range fractions, unknown names
INTS = st.one_of(st.integers(max_value=0), st.integers(min_value=2**64, max_value=2**70)).map(str)
FRACTIONS = st.one_of(st.sampled_from(["nan", "inf", "-inf", "-0.0", "1"]),
                      st.floats(max_value=-1e-9, allow_nan=False).map(repr),
                      st.floats(min_value=1.0, exclude_min=True, allow_nan=False).map(repr))
NAMES = st.one_of(st.sampled_from(["taylorfo_sq", "random", "loss"]), st.text("abcxyz_", min_size=1, max_size=6))


def _flags(**options):
    """Argument lists with each flag either absent or given one adversarial value."""
    return st.tuples(*(st.one_of(st.just(None), values.map(lambda v, f=flag: f"{f}={v}"))
                       for flag, values in options.items())).map(lambda chosen: [f for f in chosen if f])


COMMANDS = st.one_of(
    _flags(**{"--seed": INTS}).map(lambda f: ["train", "--config", "@/tiny.cfg", *f]),
    _flags(**{"--seed": INTS, "--data-size": INTS, "--estimator": NAMES, "--source": NAMES}).map(
        lambda f: ["importance", "--config", "@/tiny.cfg", "--checkpoint", "@/model.npkt", *f]),
    st.one_of(INTS.map(lambda v: [f"--prune-count={v}"]), FRACTIONS.map(lambda v: [f"--prune-fraction={v}"])).map(
        lambda f: ["prune", "--checkpoint", "@/model.npkt", "--table", "@/rank.csv", *f]),
    _flags(**{"--seed": INTS}).map(lambda f: ["eval", "--config", "@/tiny.cfg", "--checkpoint", "@/model.npkt", *f]),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=COMMANDS)
def test_adversarial_flags_exit_cleanly(workspace, table_path, argv):
    if argv[0] != "eval":
        argv = argv + ["--out", "@/property.out"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(workspace, *argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


class TestSweep:
    def test_grid_rows_round_trip(self, workspace, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(workspace, "sweep", "--config", "@/tiny.cfg",
                   "--checkpoint", "@/model.npkt", "--out", str(out))
        assert code == 0
        result = SweepResult.from_csv(str(out))
        assert [row.pruned_count for row in result.rows] == [0, 5]
        assert all(np.isfinite(row.test_accuracy) for row in result.rows)

    def test_repeat_run_is_byte_identical(self, workspace, tmp_path):
        paths = [tmp_path / "s1.csv", tmp_path / "s2.csv"]
        for path in paths:
            assert run(workspace, "sweep", "--config", "@/tiny.cfg",
                       "--checkpoint", "@/model.npkt", "--out", str(path)) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
