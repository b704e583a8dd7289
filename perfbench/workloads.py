"""The benchmark's workloads: set-up, one measured cycle, and output checks.

A workload's cycle is a fixed list of public-API operations.  The benchmark
times each operation, repeats the cycle until the run's time is spent, and
checks every output after the cycle, outside the timed region.  Each
operation that raises, exits non-zero or fails a check counts once in
``failed``.

Every workload uses the default 4-class glyph data (600 train, 200 test
examples), and the benchmark seed sets both ``seed`` and ``data_seed``.
Fixture models are trained in set-up with the default recipe shortened to
``FIXTURE_EPOCHS`` epochs: the workloads that use them only need a trained
network of the right shape, and the shorter recipe keeps set-up, which runs
several times per benchmark run, within a few seconds.
"""

import functools
import hashlib
import io
import os
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from prunelab import checkpoint, cli, data, harness, importance, pruning

FIXTURE_EPOCHS = 3
DATA_SIZE = 600
CLI_PRUNE_COUNTS = (5, 11, 17, 23)
MOLCHANOV_IDENTITY_RTOL = 1e-5
EQUIVALENCE_LIMIT = 1e-4
MIN_TRAIN_ACCURACY = 0.9


class Fixture:
    """What set-up hands to a workload's cycle and checks."""

    def __init__(self, **fields):
        self.__dict__.update(fields)
        self.first = {}


def _config(seed, **fields):
    return harness.ExperimentConfig(seed=seed, data_seed=seed, **fields)


def _fixture_model(config):
    train_set, test_set = harness.build_datasets(config)
    model, _ = harness.train(harness.build_model(config), train_set, config)
    return model, train_set, test_set


def _digest(model):
    h = hashlib.sha1()
    for _, _, _, param in model.parameters():
        h.update(param.tobytes())
    return h.hexdigest()


def _same_as_first(fx, key, value, what):
    """Outputs of one operation must repeat exactly from cycle to cycle."""
    first = fx.first.setdefault(key, value)
    return [] if first == value else [f"{what} differs from the first cycle"]


class Workload:
    """One benchmark workload.  Subclasses fill in the four hooks."""

    name = ""
    why = ""
    model = ""
    item = ""

    def setup(self, seed, work_dir):
        raise NotImplementedError

    def operations(self, fx):
        """[(label, callable)] of one cycle, in the order they run."""
        raise NotImplementedError

    def items(self, fx, label, output):
        """Units of work one successful operation completed."""
        raise NotImplementedError

    def check(self, fx, label, output):
        """Problems found in one operation's output; empty when it is right."""
        raise NotImplementedError


class TrainCnn(Workload):
    name = "train_cnn"
    why = ("harness.train on cnn_small, default recipe: the only train-mode forward/backward, "
           "batch-norm train adjoints and parameter updates")
    model = "cnn_small"
    item = "training examples (epochs x train set)"

    def setup(self, seed, work_dir):
        config = _config(seed)
        train_set, test_set = harness.build_datasets(config)
        return Fixture(config=config, train_set=train_set, test_set=test_set,
                       model=harness.build_model(config))

    def operations(self, fx):
        return [("train", lambda: harness.train(fx.model, fx.train_set, fx.config))]

    def items(self, fx, label, output):
        _, log = output
        return len(log) * len(fx.train_set)

    def check(self, fx, label, output):
        model, log = output
        problems = []
        if len(log) != fx.config.epochs:
            problems.append(f"{len(log)} epochs logged, expected {fx.config.epochs}")
        elif not np.isfinite(log[-1].loss):
            problems.append(f"final-epoch loss {log[-1].loss} is not finite")
        accuracy = harness.evaluate(model, fx.test_set)
        if accuracy < MIN_TRAIN_ACCURACY:
            problems.append(f"test accuracy {accuracy} < {MIN_TRAIN_ACCURACY}")
        return problems + _same_as_first(fx, label, _digest(model), "trained parameters")


class _Estimate(Workload):
    model = "cnn_small"
    item = "examples scored"
    estimators = ()

    def setup(self, seed, work_dir):
        config = _config(seed, epochs=FIXTURE_EPOCHS)
        model, train_set, _ = _fixture_model(config)
        return Fixture(config=config, model=model, train_set=train_set,
                       channels=sum(site.channels for site in model.sites), reference={})

    def _dataset(self, fx, source):
        # random-source runs get no labels at all, so any label read fails
        return fx.train_set if source == importance.LOSS else (fx.train_set.images, None)

    def operations(self, fx):
        ops = []
        for estimator in self.estimators:
            for source in (importance.LOSS, importance.RANDOM):
                gradients = importance.GradientSource(source, seed=fx.config.seed)
                dataset = self._dataset(fx, source)
                ops.append((f"{estimator}/{source}", lambda e=estimator, g=gradients, ds=dataset:
                            importance.estimate(fx.model, ds, DATA_SIZE, e, g)))
        return ops

    def items(self, fx, label, output):
        return output.data_size

    def check(self, fx, label, table):
        estimator, source = label.split("/")
        scores = table.scores()
        problems = []
        if len(table) != fx.channels or not np.isfinite(scores).all():
            problems.append(f"{label}: {len(table)} scores, expected {fx.channels} finite ones")
        if (table.estimator, table.source, table.data_size) != (estimator, source, DATA_SIZE):
            problems.append(f"{label}: table metadata {table.estimator}/{table.source}/{table.data_size}")
        if estimator == "molchanov_group" and not problems:
            # the per-channel weight gate equals the site signal, so this
            # estimator must reproduce taylorfo_sq
            if source not in fx.reference:
                gradients = importance.GradientSource(source, seed=fx.config.seed)
                fx.reference[source] = importance.estimate(
                    fx.model, self._dataset(fx, source), DATA_SIZE, "taylorfo_sq", gradients).scores()
            if not np.allclose(scores, fx.reference[source], rtol=MOLCHANOV_IDENTITY_RTOL, atol=0):
                worst = np.max(np.abs(scores - fx.reference[source]) / np.abs(fx.reference[source]))
                problems.append(f"{label}: relative gap {worst:.3g} to taylorfo_sq "
                                f"exceeds {MOLCHANOV_IDENTITY_RTOL}")
        return problems + _same_as_first(fx, label, scores.tobytes(), f"{label} scores")


class EstimateTaylor(_Estimate):
    name = "estimate_taylor"
    why = ("importance.estimate with the three Taylor estimators x {loss, random} at D=600, "
           "batch 32: the batched signal path")
    estimators = ("taylorfo", "taylorfo_abs", "taylorfo_sq")


class EstimateMolchanov(_Estimate):
    name = "estimate_molchanov"
    why = ("importance.estimate with molchanov_bn and molchanov_group x {loss, random} at D=600: "
           "one example per forward, so per-call overhead dominates")
    estimators = ("molchanov_bn", "molchanov_group")


class SweepGrid(Workload):
    name = "sweep_grid"
    why = ("harness.prune_sweep over 160 rows: masked evaluation, rank_global and clone; loss rows "
           "repeat across seeds, random rows do not")
    model = "cnn_small"
    item = "sweep rows"

    def setup(self, seed, work_dir):
        config = _config(seed, epochs=FIXTURE_EPOCHS, sweep_seeds=(0, 1),
                         estimators=("taylorfo", "taylorfo_sq"), sources=("loss", "random"),
                         normalize=(False,), data_sizes=(10, DATA_SIZE))
        model, train_set, test_set = _fixture_model(config)
        return Fixture(config=config, model=model, train_set=train_set, test_set=test_set,
                       csv_path=os.path.join(work_dir, "sweep.csv"), baseline=None)

    def operations(self, fx):
        return [("prune_sweep", lambda: harness.prune_sweep(fx.model, fx.train_set, fx.test_set,
                                                             fx.config))]

    def items(self, fx, label, output):
        return len(output)

    def check(self, fx, label, result):
        problems = []
        if len(result) != 160:
            problems.append(f"{len(result)} sweep rows, expected 160")
        if fx.baseline is None:
            fx.baseline = harness.evaluate(fx.model, fx.test_set, fx.config.eval_batch_size)
        if any(row.test_accuracy != fx.baseline for row in result.select(pruned_count=0)):
            problems.append(f"a P=0 row differs from the unpruned accuracy {fx.baseline}")
        by_seed = {}
        for row in result.select(source="loss"):
            key = (row.estimator, row.normalized, row.data_size, row.pruned_count)
            by_seed.setdefault(key, set()).add(row.test_accuracy)
        if any(len(accuracies) != 1 for accuracies in by_seed.values()):
            problems.append("loss-source rows differ between sweep seeds")
        result.to_csv(fx.csv_path)
        with open(fx.csv_path, "rb") as fh:
            csv_bytes = fh.read()
        return problems + _same_as_first(fx, label, csv_bytes, "sweep CSV")


class CliPipeline(Workload):
    name = "cli_pipeline"
    why = ("cli.main importance -> prune --plan -> eval round trips on a cnn_residual checkpoint "
           "and an images-only IDX file: checkpoint, IDX and CSV I/O and compaction")
    model = "cnn_residual"
    item = "round trips"

    def setup(self, seed, work_dir):
        config = _config(seed, epochs=FIXTURE_EPOCHS, model="cnn_residual")
        model, train_set, _ = _fixture_model(config)
        path = functools.partial(os.path.join, work_dir)
        checkpoint.save_model(path("model.npkt"), model)
        data.save_idx(train_set, path("images.idx"), path("labels.idx"))
        os.remove(path("labels.idx"))
        with open(path("exp.cfg"), "w") as fh:
            fh.write(f"model = cnn_residual\nseed = {seed}\ndata_seed = {seed}\n")
        return Fixture(model=model, path=path, param_count=model.param_count())

    def operations(self, fx):
        p = fx.path
        common = ["--config", p("exp.cfg")]
        ops = []
        for count in CLI_PRUNE_COUNTS:
            ops.append((f"importance/{count}", ["importance", *common, "--checkpoint", p("model.npkt"),
                        "--images", p("images.idx"), "--source", "random", "--normalize",
                        "--data-size", str(DATA_SIZE), "--out", p(f"scores{count}.csv")]))
            ops.append((f"prune/{count}", ["prune", *common, "--checkpoint", p("model.npkt"),
                        "--table", p(f"scores{count}.csv"), "--prune-count", str(count),
                        "--plan", p(f"plan{count}.csv"), "--out", p(f"small{count}.npkt")]))
            ops.append((f"eval/{count}", ["eval", *common, "--checkpoint", p(f"small{count}.npkt"),
                        "--out", p(f"accuracy{count}.txt")]))
        return [(label, lambda argv=argv: _run_cli(argv)) for label, argv in ops]

    def items(self, fx, label, output):
        return 1 if label.startswith("eval/") else 0

    def check(self, fx, label, output):
        code, stderr = output
        if code != 0:
            return [f"{label}: exit code {code}: {stderr.strip()}"]
        step, count = label.split("/")
        p = fx.path
        if step == "importance":
            with open(p(f"scores{count}.csv"), "rb") as fh:
                return _same_as_first(fx, step, fh.read(), "importance CSV")
        if step == "prune":
            problems = []
            small = checkpoint.load_model(p(f"small{count}.npkt"))
            if small.param_count() >= fx.param_count:
                problems.append(f"{label}: compacted model keeps {small.param_count()} of "
                                f"{fx.param_count} parameters")
            mask = pruning.PrunePlan.from_csv(p(f"plan{count}.csv")).mask()
            gap = pruning.validate_equivalence(fx.model, mask)
            if not gap < EQUIVALENCE_LIMIT:
                problems.append(f"{label}: masked and compacted logits differ by {gap}")
            return problems
        with open(p(f"accuracy{count}.txt")) as fh:
            accuracy = float(fh.read())
        return [] if 0 <= accuracy <= 1 else [f"{label}: accuracy {accuracy} outside [0, 1]"]


def _run_cli(argv):
    """One in-process CLI call; its printing is captured, not shown."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


WORKLOADS = {w.name: w for w in (TrainCnn(), EstimateTaylor(), EstimateMolchanov(),
                                  SweepGrid(), CliPipeline())}
