"""Training, evaluation, and the prune-vs-accuracy sweep protocol.

The sweep is the experiment this package exists for: take a trained model,
estimate channel importance from the first D training examples, prune the P
least important channels globally, and measure test accuracy, over a grid of
(estimator, gradient source, normalization, D, P, seed).  Accuracy is always
measured on the masked model; mask/compaction equivalence is proven separately
in the pruning module, which keeps the sweep free of per-P rewiring.

No finetuning happens after pruning unless finetune_epochs is set; the default
protocol measures accuracy directly after masking.

Training is plain SGD with momentum on softmax cross entropy.  Weight decay
applies to conv and linear weight matrices only; biases and batch-norm
parameters are exempt.  The recipe is a local choice: results are only ever
compared across estimators on the same trained model.
"""

import itertools
import numbers
from collections import namedtuple

import numpy as np

from . import data, importance
from .errors import ConfigError, InputError, TrainingError
from .importance import ESTIMATOR, NO_SOURCE, RANDOM_RANK, SOURCE, GradientSource, ImportanceTable, estimate
from .nn import MODEL, MODEL_BUILDERS, softmax_cross_entropy
from .pruning import apply_mask, rank_global

EpochStats = namedtuple("EpochStats", ("epoch", "loss", "accuracy"))


def _comma_list(item):
    def parse(text):
        return tuple(item(part.strip()) for part in text.split(","))
    return parse


_PROPER_FRACTION = data.number(numbers.Real, lambda v: 0 <= v < 1, "a number in [0, 1)")

# key -> (parser for config-file text, default value, (test, words) rule every value must pass)
_FIELDS = {
    "model": (str, "cnn_small", data.one_of(tuple(MODEL_BUILDERS))),
    "num_classes": (int, 4, data.NUM_CLASSES),
    "image_size": (int, 16, data.IMAGE_SIZE),
    "per_class_train": (int, 150, data.SIZE),
    "per_class_test": (int, 50, data.SIZE),
    "noise": (float, 0.15, data.NON_NEGATIVE),
    "data_seed": (int, 0, data.SEED),
    "epochs": (int, 15, data.COUNT),
    "batch_size": (int, 32, data.SIZE),
    "learning_rate": (float, 0.1, data.POSITIVE),
    "momentum": (float, 0.9, _PROPER_FRACTION),
    "weight_decay": (float, 5e-4, data.NON_NEGATIVE),
    "seed": (int, 0, data.SEED),
    "finetune_epochs": (int, 0, data.COUNT),
    "estimators": (_comma_list(str), ("taylorfo_sq",), data.list_of(ESTIMATOR)),
    "sources": (_comma_list(str), ("loss",), data.list_of(SOURCE)),
    "normalize": (_comma_list(data.parse_bool), (False,), data.list_of(data.FLAG)),
    "data_sizes": (_comma_list(int), (10,), data.list_of(data.SIZE)),
    "prune_counts": (_comma_list(int), None, data.list_of(data.COUNT, unset_ok=True)),
    "prune_fractions": (_comma_list(float), None, data.list_of(_PROPER_FRACTION, unset_ok=True)),
    "eval_batch_size": (int, 256, data.SIZE),
    "sweep_seeds": (_comma_list(int), (0,), data.list_of(data.SEED)),
}

# column -> (parser for table text, rule every value must pass)
_SWEEP_COLUMNS = {"estimator": (str, ESTIMATOR), "source": (str, SOURCE), "normalized": (data.parse_bool, data.FLAG),
                  "data_size": (int, data.SIZE), "pruned_count": (int, data.COUNT),
                  "pruned_fraction": (float, data.FRACTION), "test_accuracy": (float, data.FRACTION),
                  "seed": (int, data.SEED)}
SweepRow = namedtuple("SweepRow", tuple(_SWEEP_COLUMNS))


class ExperimentConfig:
    """Every knob of the train/sweep pipeline, with file loading.

    The file format is flat `key = value` text; `#` starts a comment, blank
    lines are skipped, and every key must be one of the known fields exactly
    once.  List-valued fields take comma-separated items.  Unknown keys are
    errors rather than silently ignored.  Every value must pass its field's
    rule in _FIELDS, and prune_counts and prune_fractions exclude each other.
    """

    def __init__(self, **kwargs):
        for key in sorted(set(kwargs) - set(_FIELDS)):
            raise ConfigError(f"unknown config key {key!r}")
        for key, (_, default, rule) in _FIELDS.items():
            value = kwargs.get(key, default)
            setattr(self, key, data.check(tuple(value) if isinstance(value, list) else value, rule, key, ConfigError))
        if self.prune_counts is not None and self.prune_fractions is not None:
            raise ConfigError("prune_counts and prune_fractions are alternatives: set at most one of them")

    def replace(self, **kwargs):
        """A copy with the given fields changed."""
        return ExperimentConfig(**{**vars(self), **kwargs})

    @classmethod
    def from_file(cls, path):
        values = {}
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"{path}: not a readable UTF-8 text file: {e}") from None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path} line {lineno}: expected key = value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _FIELDS:
                raise ConfigError(f"{path} line {lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"{path} line {lineno}: duplicate key {key!r}")
            try:
                values[key] = _FIELDS[key][0](value)
            except ValueError as e:
                raise ConfigError(f"{path} line {lineno}: bad value for {key}: {e}") from e
        return cls(**values)


_CONFIG = data.instance(ExperimentConfig, "an ExperimentConfig")


def build_model(config):
    return MODEL_BUILDERS[config.model](
        num_classes=config.num_classes, image_size=config.image_size, seed=config.seed)


def build_datasets(config):
    return data.make_splits(config.num_classes, config.per_class_train, config.per_class_test,
                            config.image_size, config.noise, config.data_seed)


def build_split(config, split):
    """The config's glyph split alone: the matching element of build_datasets(config)."""
    per_class = config.per_class_train if split == "train" else config.per_class_test
    return data.generate_shapes(config.num_classes, per_class, config.image_size, config.noise, config.data_seed, split)


def train(model, dataset, config):
    """Fit a copy of the model with momentum SGD; returns (model, log).

    Batches reshuffle every epoch from a stream derived from (seed, epoch).
    The log holds one EpochStats per epoch with the running train loss and
    accuracy over that epoch's batches.  A non-finite loss aborts immediately.
    Each step drops its record, logits and loss gradient after its backward,
    before the parameter update and the next step's forward, so a step peaks
    at one record plus its backward.
    """
    data.check(model, MODEL, "model")
    data.check(config, _CONFIG, "config")
    out = model.clone()
    velocity = {(i, name): np.zeros_like(p) for i, _, name, p in out.parameters()}
    log = []
    for epoch in range(config.epochs):
        total_loss = 0.0
        hits = 0
        for images, labels in data.batches(dataset, config.batch_size, shuffle_seed=[config.seed, epoch]):
            logits, record = out.forward(images, "train")
            loss, grad = softmax_cross_entropy(logits, labels)
            if not np.isfinite(loss):
                raise TrainingError(f"loss became non-finite at epoch {epoch}")
            total_loss += loss * len(labels)
            hits += int((np.argmax(logits, axis=1) == labels).sum())
            out.zero_grads()
            out.backward(record, grad)
            del logits, record, grad  # this step's activations go before the next step's forward
            for i, node, name, param in out.parameters():
                g = node.grads[name]
                if config.weight_decay and name == "weight":
                    g = g + config.weight_decay * param
                v = velocity[(i, name)]
                v *= config.momentum
                v -= config.learning_rate * g
                param += v
        log.append(EpochStats(epoch, total_loss / len(dataset), hits / len(dataset)))
    return out, log


def evaluate(model, dataset, batch_size=256):
    """Argmax accuracy in eval mode; ties go to the lowest class index.  Each
    batch's labels must lie in [0, model.num_classes), checked before its forward,
    and its logits are dropped before the next batch is drawn."""
    data.check(model, MODEL, "model")
    hits = 0
    for images, labels in data.batches(dataset, batch_size):
        data.check_labels(labels, len(images), model.num_classes)
        logits, _ = model.forward(images, "eval", record=False)
        hits += int((np.argmax(logits, axis=1) == labels).sum())
        del logits
    return hits / len(dataset)


def random_importance_table(model, seed=0):
    """Uniform-random scores over all prunable channels: a ranking control.

    Pruning by this table removes channels blind to any signal, which is the
    baseline every real estimator has to beat.
    """
    data.check(model, MODEL, "model")
    rng = np.random.default_rng([data.check(seed, data.SEED, "seed"), 1])
    entries = []
    for site in model.sites:
        scores = rng.random(site.channels)
        entries.extend((site.site_id, site.node_index, c, float(s)) for c, s in enumerate(scores))
    return ImportanceTable(entries, RANDOM_RANK, NO_SOURCE, False, 0, seed)


class SweepResult:
    """Rows of the prune-vs-accuracy grid, one per (combo, P, seed), at least one."""

    COLUMNS = SweepRow._fields

    def __init__(self, rows):
        rows = [data.check_row(row, _SWEEP_COLUMNS) for row in rows]
        self.rows = tuple(SweepRow(kind, source, normalized, int(d), int(p), float(fraction), float(accuracy), int(seed))
                          for kind, source, normalized, d, p, fraction, accuracy, seed in rows)
        if not self.rows:
            raise InputError("no entries")

    def __len__(self):
        return len(self.rows)

    def select(self, **criteria):
        for key in criteria:
            data.check(key, data.one_of(self.COLUMNS), "column")
        return [row for row in self.rows
                if all(getattr(row, k) == v for k, v in criteria.items())]

    def to_csv(self, path):
        data.write_csv(path, self.COLUMNS, self.rows)

    @classmethod
    def from_csv(cls, path):
        return data.read_csv(path, _SWEEP_COLUMNS, cls)


def prune_counts(config, total):
    """The P values a config lists for a pool of total channels: P=0 first, then
    each other P once, in order.  A fraction f is round(f * total); without
    either key, an even 10-point grid from nothing pruned to 70% pruned."""
    fractions = np.linspace(0.0, 0.7, 10) if config.prune_fractions is None else config.prune_fractions
    listed = [round(f * total) for f in fractions] if config.prune_counts is None else config.prune_counts
    return list(dict.fromkeys([0, *listed]))


def prune_sweep(model, train_set, test_set, config):
    """Run the full grid on a trained model and return the SweepResult.

    For each (seed, estimator, source, normalize, D) combination the
    importance table is estimated once from the first D training examples;
    every P then reuses that table: rank globally, mask, measure test
    accuracy.  P=0 rows carry the unpruned accuracy and are always emitted
    first within a combination.  A P above the number of channels less the
    number of sites (each site keeps one), a D above the number of training
    examples, an estimator with no tap on a site (importance.tap_nodes) or, with
    finetune_epochs, a train_set that is no Dataset raises InputError before any
    evaluation or estimation, and test labels outside the model's classes raise
    it at the baseline evaluation, before any estimation.
    """
    data.check(model, MODEL, "model")
    data.check(config, _CONFIG, "config")
    if not model.sites:
        raise InputError("model has no prunable sites")
    total = sum(site.channels for site in model.sites)
    p_values = prune_counts(config, total)
    for p in p_values:  # rank_global's range, checked before any work
        data.check(p, data.integer(0, total - len(model.sites)), "p")
    examples = len(importance._dataset_arrays(train_set)[0])  # a Dataset or an (images, labels) pair
    for d in config.data_sizes:  # estimate's range, likewise
        data.check(d, data.integer(1, examples), "data_size")
    if config.finetune_epochs:  # train's dataset rule, likewise
        data.check(train_set, data.instance(data.Dataset, "a Dataset when finetune_epochs > 0"), "train_set")
    for estimator in config.estimators:  # a tap on every site, likewise
        importance.tap_nodes(model, estimator)
    baseline = evaluate(model, test_set, config.eval_batch_size)
    rows = []
    for seed, estimator, source_kind, normalize, d in itertools.product(
            config.sweep_seeds, config.estimators, config.sources, config.normalize, config.data_sizes):
        source = GradientSource(source_kind, normalize=normalize, seed=seed)
        table = estimate(model, train_set, d, estimator, source)
        for p in p_values:
            if p == 0:
                accuracy = baseline
            else:
                masked = apply_mask(model, rank_global(table, p).mask())
                if config.finetune_epochs:
                    masked, _ = train(masked, train_set, config.replace(epochs=config.finetune_epochs))
                accuracy = evaluate(masked, test_set, config.eval_batch_size)
            rows.append((estimator, source_kind, normalize, d, p, p / total, accuracy, seed))
    return SweepResult(rows)
