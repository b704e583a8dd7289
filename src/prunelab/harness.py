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

from collections import namedtuple

import numpy as np

from . import data
from .errors import ConfigError, InputError, TrainingError
from .importance import ESTIMATORS, LOSS, NO_SOURCE, RANDOM, RANDOM_RANK, GradientSource, ImportanceTable, estimate
from .nn import MODEL_BUILDERS, softmax_cross_entropy
from .pruning import apply_mask, rank_global

EpochStats = namedtuple("EpochStats", ("epoch", "loss", "accuracy"))

SweepRow = namedtuple("SweepRow", (
    "estimator", "source", "normalized", "data_size",
    "pruned_count", "pruned_fraction", "test_accuracy", "seed",
))


def _list_of(item):
    def parse(text):
        return tuple(item(part.strip()) for part in text.split(","))
    return parse


# key -> (parser for config-file text, default value)
_FIELDS = {
    "model": (str, "cnn_small"),
    "num_classes": (int, 4),
    "image_size": (int, 16),
    "per_class_train": (int, 150),
    "per_class_test": (int, 50),
    "noise": (float, 0.15),
    "data_seed": (int, 0),
    "epochs": (int, 15),
    "batch_size": (int, 32),
    "learning_rate": (float, 0.1),
    "momentum": (float, 0.9),
    "weight_decay": (float, 5e-4),
    "seed": (int, 0),
    "finetune_epochs": (int, 0),
    "estimators": (_list_of(str), ("taylorfo_sq",)),
    "sources": (_list_of(str), ("loss",)),
    "normalize": (_list_of(data.parse_bool), (False,)),
    "data_sizes": (_list_of(int), (10,)),
    "prune_counts": (_list_of(int), None),
    "prune_fractions": (_list_of(float), None),
    "eval_batch_size": (int, 256),
    "sweep_seeds": (_list_of(int), (0,)),
}


class ExperimentConfig:
    """Every knob of the train/sweep pipeline, with file loading.

    The file format is flat `key = value` text; `#` starts a comment, blank
    lines are skipped, and every key must be one of the known fields exactly
    once.  List-valued fields take comma-separated items.  Unknown keys are
    errors rather than silently ignored.
    """

    def __init__(self, **kwargs):
        for key, (_, default) in _FIELDS.items():
            setattr(self, key, default)
        for key, value in kwargs.items():
            if key not in _FIELDS:
                raise ConfigError(f"unknown config key {key!r}")
            if isinstance(value, list):
                value = tuple(value)
            setattr(self, key, value)
        self._validate()

    def _validate(self):
        if self.model not in MODEL_BUILDERS:
            raise ConfigError(f"model must be one of {sorted(MODEL_BUILDERS)}, got {self.model!r}")
        for key in ("epochs", "finetune_epochs"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0")
        for key in ("batch_size", "eval_batch_size", "per_class_train", "per_class_test"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0 or self.noise < 0:
            raise ConfigError("weight_decay and noise must be >= 0")
        if not self.estimators:
            raise ConfigError("estimators must not be empty")
        for name in self.estimators:
            if name not in ESTIMATORS:
                raise ConfigError(f"unknown estimator {name!r}, expected one of {list(ESTIMATORS)}")
        if not self.sources:
            raise ConfigError("sources must not be empty")
        for kind in self.sources:
            if kind not in (LOSS, RANDOM):
                raise ConfigError(f"unknown source {kind!r}, expected {LOSS} or {RANDOM}")
        if not self.normalize or not all(isinstance(v, bool) for v in self.normalize):
            raise ConfigError("normalize must be a non-empty list of true/false")
        if not self.data_sizes or any(d < 1 for d in self.data_sizes):
            raise ConfigError("data_sizes must be >= 1")
        if self.prune_counts is not None and any(p < 0 for p in self.prune_counts):
            raise ConfigError("prune_counts must be >= 0")
        if self.prune_fractions is not None and any(not 0 <= f < 1 for f in self.prune_fractions):
            raise ConfigError("prune_fractions must lie in [0, 1)")
        if not self.sweep_seeds:
            raise ConfigError("sweep_seeds must not be empty")

    def replace(self, **kwargs):
        """A copy with the given fields changed."""
        merged = {key: getattr(self, key) for key in _FIELDS}
        merged.update(kwargs)
        return ExperimentConfig(**merged)

    @classmethod
    def from_file(cls, path):
        values = {}
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path}: not UTF-8 text: {e}") from None
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


def build_model(config):
    return MODEL_BUILDERS[config.model](
        num_classes=config.num_classes, image_size=config.image_size, seed=config.seed)


def build_datasets(config):
    return data.make_splits(config.num_classes, config.per_class_train, config.per_class_test,
                            config.image_size, config.noise, config.data_seed)


def train(model, dataset, config):
    """Fit a copy of the model with momentum SGD; returns (model, log).

    Batches reshuffle every epoch from a stream derived from (seed, epoch).
    The log holds one EpochStats per epoch with the running train loss and
    accuracy over that epoch's batches.  A non-finite loss aborts immediately.
    """
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
            out.zero_grads()
            out.backward(record, grad)
            record.grads = None  # training reads parameter gradients only; free the node gradients now
            for i, node, name, param in out.parameters():
                g = node.grads[name]
                if config.weight_decay and name == "weight" and node.kind in ("conv2d", "linear"):
                    g = g + config.weight_decay * param
                v = velocity[(i, name)]
                v *= config.momentum
                v -= config.learning_rate * g
                param += v
            total_loss += loss * len(labels)
            hits += int((np.argmax(logits, axis=1) == labels).sum())
        log.append(EpochStats(epoch, total_loss / len(dataset), hits / len(dataset)))
    return out, log


def evaluate(model, dataset, batch_size=256):
    """Argmax accuracy in eval mode; ties go to the lowest class index."""
    if len(dataset) == 0:
        raise InputError("dataset is empty")
    hits = 0
    for images, labels in data.batches(dataset, batch_size):
        logits, _ = model.forward(images, "eval")
        hits += int((np.argmax(logits, axis=1) == labels).sum())
    return hits / len(dataset)


def random_importance_table(model, seed=0):
    """Uniform-random scores over all prunable channels: a ranking control.

    Pruning by this table removes channels blind to any signal, which is the
    baseline every real estimator has to beat.
    """
    rng = np.random.default_rng([seed, 1])
    entries = []
    for site in model.sites:
        scores = rng.random(site.channels)
        entries.extend((site.site_id, site.node_index, c, float(s)) for c, s in enumerate(scores))
    return ImportanceTable(entries, RANDOM_RANK, NO_SOURCE, False, 0, seed)


class SweepResult:
    """Rows of the prune-vs-accuracy grid, one per (combo, P, seed)."""

    COLUMNS = SweepRow._fields

    def __init__(self, rows):
        self.rows = []
        for row in rows:
            row = SweepRow(str(row[0]), str(row[1]), bool(row[2]), int(row[3]),
                           int(row[4]), float(row[5]), float(row[6]), int(row[7]))
            if not 0 <= row.test_accuracy <= 1:
                raise InputError(f"accuracy {row.test_accuracy} outside [0, 1]")
            if not 0 <= row.pruned_fraction <= 1:
                raise InputError(f"pruned fraction {row.pruned_fraction} outside [0, 1]")
            self.rows.append(row)

    def __len__(self):
        return len(self.rows)

    def select(self, **criteria):
        for key in criteria:
            if key not in SweepRow._fields:
                raise InputError(f"unknown column {key!r}")
        return [row for row in self.rows
                if all(getattr(row, k) == v for k, v in criteria.items())]

    def to_csv(self, path):
        data.write_csv(path, self.COLUMNS, self.rows)

    @classmethod
    def from_csv(cls, path):
        parsers = (str, str, data.parse_bool, int, int, _unit_float, _unit_float, int)
        return cls(data.read_csv(path, cls.COLUMNS, parsers))


def _unit_float(text):
    value = data.finite_float(text)
    if not 0 <= value <= 1:
        raise ValueError(f"{value!r} outside [0, 1]")
    return value


def _resolve_prune_counts(config, total):
    if config.prune_counts is not None:
        listed = list(config.prune_counts)
    elif config.prune_fractions is not None:
        listed = [round(f * total) for f in config.prune_fractions]
    else:
        # even 10-point grid from nothing pruned to 70% pruned
        listed = [round(f * total) for f in np.linspace(0.0, 0.7, 10)]
    counts = [0]
    for p in listed:
        if p != 0 and p not in counts:
            counts.append(p)
    return counts


def prune_sweep(model, train_set, test_set, config):
    """Run the full grid on a trained model and return the SweepResult.

    For each (seed, estimator, source, normalize, D) combination the
    importance table is estimated once from the first D training examples;
    every P then reuses that table: rank globally, mask, measure test
    accuracy.  P=0 rows carry the unpruned accuracy and are always emitted
    first within a combination.
    """
    if not model.sites:
        raise InputError("model has no prunable sites")
    total = sum(site.channels for site in model.sites)
    p_values = _resolve_prune_counts(config, total)
    baseline = evaluate(model, test_set, config.eval_batch_size)
    rows = []
    for seed in config.sweep_seeds:
        for estimator in config.estimators:
            for source_kind in config.sources:
                for normalize in config.normalize:
                    for d in config.data_sizes:
                        source = GradientSource(source_kind, normalize=normalize, seed=seed)
                        table = estimate(model, train_set, d, estimator, source,
                                         batch_size=config.eval_batch_size)
                        for p in p_values:
                            if p == 0:
                                accuracy = baseline
                            else:
                                masked = apply_mask(model, rank_global(table, p).mask())
                                if config.finetune_epochs:
                                    masked, _ = train(masked, train_set,
                                                      config.replace(epochs=config.finetune_epochs))
                                accuracy = evaluate(masked, test_set, config.eval_batch_size)
                            rows.append((estimator, source_kind, normalize, d,
                                         p, p / total, accuracy, seed))
    return SweepResult(rows)
