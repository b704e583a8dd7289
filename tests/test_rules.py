"""Rules, not coercion, decide what a record stores.

GradientSource, ImportanceTable, SweepResult and a spliced checkpoint header
are fed values that int(), float() or bool() would silently truncate,
coerce or overflow on: fractional floats for integer fields, True for
integers, strings for flags, 2**64, 10**400 and numpy scalars.  Each record
either raises its documented error or stores a value equal to the input.
Bad labels meet one rule, with one message, wherever they meet a model, and
each refusal a public entry point documents raises its errors.py type.
"""

import json
import os
import re
import struct

import numpy as np
import pytest

from prunelab import checkpoint, data, harness, importance, pruning, tensor
from prunelab.cli import main
from prunelab.errors import CapabilityError, FormatError, InputError, ShapeError
from prunelab.harness import SweepResult
from prunelab.importance import LOSS, RANDOM, GradientSource, ImportanceTable, estimate
from prunelab.nn import (INPUT, BatchNorm, Conv2d, Flatten, Linear, Model, build_cnn_small, build_mlp_small,
                         softmax_cross_entropy)

from helpers import build_reference_models, conv_bn_probe_model

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


@pytest.mark.parametrize("padding", [3, 4, 10**12])
def test_padding_no_conv_can_use_fails_at_save_and_load(saved, tmp_path, capsys, padding):
    # cnn_small's node 4 is conv2, a 3x3 conv: a padding of 3 or more leaves border outputs that read
    # only padding, and 10**12 made the forward die allocating the padded image
    model = build_reference_models(seed=7)["cnn_small"]
    model.nodes[4].padding = padding
    message = f"conv 'conv2' pads by {padding}, not less than its kernel 3"
    with pytest.raises(InputError, match=message):
        checkpoint.save_model(tmp_path / "p.npkt", model)
    assert not (tmp_path / "p.npkt").exists()
    splice(saved, 4, "padding", padding)
    with pytest.raises(FormatError, match=f"node 4: {message}"):
        checkpoint.load_model(saved)
    assert main(["eval", "--checkpoint", str(saved)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: node 4: conv 'conv2' pads by") and "Traceback" not in err


def test_padding_one_below_the_kernel_loads(tmp_path):
    path = tmp_path / "p.npkt"
    checkpoint.save_model(path, Model([Conv2d("c", [INPUT], 1, 2, 3, padding=2), Flatten("flat", [0]),
                                       Linear("fc", [1], 2 * 6 * 6, 2)], (1, 4, 4), 2))
    assert checkpoint.load_model(path).nodes[0].hyper()["padding"] == 2


@pytest.mark.parametrize("node,name,value,message", [
    (4, "stride", 0, "hyperparameter 'stride' must be an integer >= 1, got 0"),
    (1, "eps", 0.0, "hyperparameter 'eps' must be a float32 > 0, got 0.0"),
    (4, "padding", -1, "hyperparameter 'padding' must be an integer >= 0, got -1"),
    (5, "momentum", 1.5, r"hyperparameter 'momentum' must be a number in \[0, 1\], got 1.5"),
    (3, "kernel", 0, "hyperparameter 'kernel' must be an integer >= 1, got 0"),
], ids=["stride_0", "eps_0.0", "padding_-1", "momentum_1.5", "pool_kernel_0"])
def test_hyperparameter_set_after_construction_fails_at_save(tmp_path, node, name, value, message):
    # cnn_small: node 1 is bn1, 3 pool1, 4 conv2, 5 bn2; save_model wrote stride 0 and eps 0.0
    # (47,788 and 47,786 bytes), which load_model refused
    model = build_cnn_small(seed=0)
    setattr(model.nodes[node], name, value)
    with pytest.raises(InputError, match=f"^{message}$"):
        checkpoint.save_model(tmp_path / "m.npkt", model)
    assert not (tmp_path / "m.npkt").exists()


def conv_with_stride(stride):
    return Model([Conv2d("c", [INPUT], 1, 2, 3, stride=stride, padding=1), Flatten("f", [0]),
                  Linear("fc", [1], 32, 2)], (1, 4, 4), 2)


def cnn_small_with_stride(stride):
    model = build_cnn_small(seed=0)
    model.nodes[4].stride = stride  # conv2
    return model


@pytest.mark.parametrize("build", [conv_with_stride, cnn_small_with_stride], ids=["built", "set_after_build"])
def test_a_numpy_hyperparameter_saves_as_its_python_value(tmp_path, build):
    # json.dumps raised a bare TypeError on the int64 stride
    path, numpy_path = tmp_path / "int.npkt", tmp_path / "int64.npkt"
    checkpoint.save_model(path, build(1))
    checkpoint.save_model(numpy_path, build(np.int64(1)))
    assert numpy_path.read_bytes() == path.read_bytes()
    loaded = checkpoint.load_model(numpy_path)
    assert [node.hyper() for node in loaded.nodes] == [node.hyper() for node in build(1).nodes]


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


def _siteless():
    return Model([Flatten("flat", [INPUT]), Linear("fc", [0], 16, 4)], (1, 4, 4), 4)


CONV_X = np.zeros((1, 1, 4, 4))
CONV_W = np.zeros((2, 1, 3, 3))
# name -> (a call through the public API, the errors.py type it raises, a fragment of its message)
REFUSALS = {
    "dataset_3d_images": (lambda: data.Dataset(np.zeros((2, 4, 4)), [0, 1], "train", 0), InputError,
                          "images must be [M, C, H, W], got shape (2, 4, 4)"),
    "save_idx_257_classes": (lambda: data.save_idx(data.Dataset(np.zeros((257, 1, 1, 1)), np.arange(257), "train", 0),
                                                   os.devnull, os.devnull), InputError,
                             "more than 256 classes cannot export"),
    "channel_signal_1d": (lambda: importance.channel_signal(np.zeros(3), np.zeros(3)), ShapeError,
                          "site tensors need batch and channel axes, got (3,)"),
    "molchanov_group_on_batch_norm_site": (
        lambda: estimate(conv_bn_probe_model(5, 0), (np.zeros((4, 1, 4, 4)), np.arange(4) % 3), 4, "molchanov_group",
                         GradientSource(LOSS)),
        InputError, "site 'bn' node has no weights; molchanov_group needs them"),
    "accumulate_wrong_width": (lambda: importance.accumulate([importance.PrunableSite("a", 0, 3, ["taylorfo"])],
                                                             {"a": np.zeros((2, 4))}, "taylorfo"),
                               ShapeError, "site a: signals (2, 4) != [N, 3]"),
    "scores_of_no_site": (lambda: ImportanceTable([("a", 0, 0, 1.0)], "taylorfo", LOSS, False, 4, 0).scores("b"),
                          InputError, "no entries for site 'b'"),
    "estimate_without_sites": (lambda: estimate(_siteless(), (np.zeros((2, 1, 4, 4)), None), 2, "taylorfo",
                                                GradientSource(RANDOM)),
                               InputError, "model declares no prunable sites"),
    "prune_sweep_without_sites": (lambda: harness.prune_sweep(_siteless(), None, None, harness.ExperimentConfig()),
                                  InputError, "model has no prunable sites"),
    "prune_mask_2d_keep": (lambda: pruning.PruneMask({"a": [[1, 0], [1, 1]]}), InputError,
                           "site 'a': keep vector must be 1-D"),
    "compact_a_batch_norm_site": (lambda: pruning.compact(conv_bn_probe_model(5, 0), pruning.PruneMask(
        {"conv": np.ones(5, bool), "bn": np.arange(5) != 0})), CapabilityError,
        "node 1 (bn): cannot shrink output of batch_norm node"),
    "batch_norm_of_other_width": (lambda: Model([Linear("fc", [INPUT], 2, 3), BatchNorm("bn", [0], 2)], (2,), 2),
                                  InputError, "node 1 (bn): batch norm expects (2,) or (2, H, W) input, got (3,)"),
    "conv2d_integer_input": (lambda: tensor.conv2d(CONV_X.astype(int), CONV_W), InputError,
                             "input must be float32 or float64, got int"),
    "conv2d_mixed_dtypes": (lambda: tensor.conv2d(CONV_X.astype(np.float32), CONV_W), ShapeError,
                            "dtype mismatch: float32 vs float64"),
    "conv2d_stride_0": (lambda: tensor.conv2d(CONV_X, CONV_W, stride=0), InputError, "stride must be positive, got 0"),
    "conv2d_padding_-1": (lambda: tensor.conv2d(CONV_X, CONV_W, padding=-1), InputError,
                          "padding must be non-negative, got -1"),
    "conv2d_3d_input": (lambda: tensor.conv2d(CONV_X[0], CONV_W), ShapeError,
                        "conv2d expects 4-d input/weight, got (1, 4, 4) and (2, 1, 3, 3)"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_a_public_entry_point_refuses_with_its_documented_error(case):
    call, error, fragment = REFUSALS[case]
    with pytest.raises(error, match=re.escape(fragment)):
        call()
