"""Rules, not coercion, decide what a record stores.

GradientSource, ImportanceTable, SweepResult and a spliced checkpoint header
are fed values that int(), float() or bool() would silently truncate,
coerce or overflow on: fractional floats for integer fields, True for
integers, strings for flags, 2**64, 10**400 and numpy scalars.  Each record
either raises its documented error or stores a value equal to the input.
Bad labels meet one rule, with one message, wherever they meet a model.
"""

import json
import struct

import numpy as np
import pytest

from prunelab import checkpoint, data, harness
from prunelab.cli import main
from prunelab.errors import FormatError, InputError
from prunelab.harness import SweepResult
from prunelab.importance import LOSS, RANDOM, GradientSource, ImportanceTable, estimate
from prunelab.nn import build_mlp_small, build_reference_models, softmax_cross_entropy

VALUES = {"2.7": 2.7, "4.0": 4.0, "True": True, "'false'": "false", "'3'": "3", "2**64": 2**64,
          "10**400": 10**400, "int64(3)": np.int64(3), "uint64(2**64-1)": np.uint64(2**64 - 1),
          "float64(0.5)": np.float64(0.5), "float32(0.5)": np.float32(0.5)}

TABLE_ARGS = {"site_id": "a", "node_index": 0, "channel": 0, "score": 1.0, "estimator": "taylorfo",
              "source": "loss", "normalized": False, "data_size": 4, "seed": 0}
SWEEP_ROW = {"estimator": "taylorfo", "source": "loss", "normalized": False, "data_size": 2,
             "pruned_count": 1, "pruned_fraction": 0.1, "test_accuracy": 0.5, "seed": 0}


def gradient_source(field, value):
    return getattr(GradientSource(RANDOM, **{field: value}), field)


def importance_table(field, value):
    args = {**TABLE_ARGS, field: value}
    table = ImportanceTable([tuple(args[k] for k in ImportanceTable.COLUMNS[:4])],
                            *(args[k] for k in ImportanceTable.COLUMNS[4:]))
    return dict(zip(ImportanceTable.COLUMNS, table.entries[0]), **vars(table))[field]


def sweep_result(field, value):
    return getattr(SweepResult([tuple({**SWEEP_ROW, field: value}.values())]).rows[0], field)


RECORDS = {
    "GradientSource": (gradient_source, ("normalize", "seed")),
    "ImportanceTable": (importance_table, ("node_index", "channel", "score", "normalized", "data_size", "seed")),
    "SweepResult": (sweep_result, ("normalized", "data_size", "pruned_count", "pruned_fraction",
                                   "test_accuracy", "seed")),
}


@pytest.mark.parametrize("record,field", [(r, f) for r, (_, fields) in RECORDS.items() for f in fields])
@pytest.mark.parametrize("value", VALUES.values(), ids=VALUES.keys())
def test_record_rejects_or_stores_the_value(record, field, value):
    build = RECORDS[record][0]
    try:
        stored = build(field, value)
    except InputError:
        return
    assert stored == value


def splice(path, node, name, value):
    """Set hyperparameter name of node in the checkpoint header at path."""
    raw = path.read_bytes()
    (length,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + length])
    header["nodes"][node]["hyper"][name] = value
    new = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<I", len(new)) + new + raw[12 + length :])


@pytest.fixture
def saved(tmp_path):
    path = tmp_path / "m.npkt"
    checkpoint.save_model(path, build_reference_models(seed=7)["cnn_small"])
    return path


# cnn_small: node 0 is conv1 (16 channels, 3x3 kernel), node 1 its batch norm
HEADER_FIELDS = [(0, "kernel"), (0, "padding"), (0, "bias"), (1, "channels"), (1, "eps"), (1, "momentum")]
JSON_VALUES = {k: v for k, v in VALUES.items() if not isinstance(v, np.generic)}  # JSON holds no numpy scalars


@pytest.mark.parametrize("node,name", HEADER_FIELDS)
@pytest.mark.parametrize("value", JSON_VALUES.values(), ids=JSON_VALUES.keys())
def test_checkpoint_header_rejects_or_stores_the_value(saved, node, name, value):
    splice(saved, node, name, value)
    try:
        model = checkpoint.load_model(saved)
    except FormatError:
        return
    assert model.nodes[node].hyper()[name] == value


@pytest.mark.parametrize("eps", [10**400, 10**300, 1e39, 0, -1e-5, 1e-46],
                         ids=["10**400", "10**300", "1e39", "0", "-1e-5", "1e-46"])
def test_eps_a_batch_norm_cannot_use_fails_at_load(saved, capsys, eps):
    # 10**400 overflowed float(); 1e39 overflows float32; eps <= 0, or 1e-46, which rounds to 0 in float32,
    # divides by zero or takes sqrt of a negative
    splice(saved, 1, "eps", eps)
    with pytest.raises(FormatError, match="'eps' must be a float32 > 0"):
        checkpoint.load_model(saved)
    assert main(["eval", "--checkpoint", str(saved)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


LABELS = np.arange(8) % 4
BAD_LABELS = {"float": (LABELS.astype(np.float64), "labels must be integers, got dtype float64"),
              "short": (LABELS[:-1], r"labels must have shape \(8,\), got \(7,\)"),
              "negative": (np.where(LABELS == 1, -1, LABELS), r"labels out of range \[0, 4\): -1\.\.3"),
              "class_count": (np.where(LABELS == 1, 4, LABELS), r"labels out of range \[0, 4\): 0\.\.4")}


def _evaluate(model, images, labels, monkeypatch):
    # a Dataset holds no bad labels, so the batch arrives as they would from a stale one
    monkeypatch.setattr(data, "batches", lambda dataset, batch_size: iter([(images, labels)]))
    harness.evaluate(model, data.generate_shapes(4, 2, image_size=12), 8)


LABEL_USERS = {
    "Dataset": lambda model, images, labels, _: data.Dataset(images, labels, "train", 0, num_classes=4),
    "softmax_cross_entropy": lambda model, images, labels, _: softmax_cross_entropy(np.zeros((8, 4)), labels),
    "estimate": lambda model, images, labels, _: estimate(model, (images, labels), 8, "taylorfo",
                                                          GradientSource(LOSS)),
    "evaluate": _evaluate,
}


@pytest.mark.parametrize("user", LABEL_USERS)
@pytest.mark.parametrize("case", BAD_LABELS)
def test_bad_labels_get_one_message_everywhere(user, case, monkeypatch):
    labels, message = BAD_LABELS[case]
    images = np.random.default_rng(0).random((8, 1, 12, 12)).astype(np.float32)
    model = build_mlp_small(num_classes=4, image_size=12, seed=0)
    with pytest.raises(InputError, match=f"^{message}$"):
        LABEL_USERS[user](model, images, labels, monkeypatch)
