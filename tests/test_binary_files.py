"""NPKT checkpoints and IDX image/label files fail closed, and every
checkpoint save_model writes loads back.

Generated-input properties mutate valid files (flipped bytes, truncation,
a spliced checkpoint header or IDX header word) and check that load_model
and the IDX loaders either return or raise FormatError, that a checkpoint
load_model returns saves back to the file's bytes, and that `prunelab
eval`/`prune` on the mutated file exits with a documented code and no
traceback.  Models and images are tiny, and spliced integers stay small, so
every forward a mutated model runs stays cheap.
"""

import contextlib
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prunelab import cli, data, harness
from prunelab.checkpoint import load_model, save_model
from prunelab.errors import FormatError, InputError
from prunelab.nn import INPUT, BatchNorm, Conv2d, Flatten, Linear, MaxPool, Model, ReLU, Site

from helpers import build_reference_models, mutate

PROPERTY = settings(max_examples=500, deadline=None, derandomize=True)


def tiny_model():
    """Two conv sites with batch-norm gates on 1x4x4 images, each masked with
    one keep vector, held under its site node."""
    nodes = [
        Conv2d("c1", [INPUT], 1, 3, 3, padding=1, bias=False),
        BatchNorm("bn1", [0], 3),
        ReLU("r1", [1]),
        MaxPool("pool", [2]),
        Conv2d("c2", [3], 3, 4, 1),
        BatchNorm("bn2", [4], 4),
        ReLU("r2", [5]),
        Flatten("flat", [6]),
        Linear("out", [7], 4 * 2 * 2, 2),
    ]
    model = Model(nodes, (1, 4, 4), 2, [Site("c1", 0, 3), Site("c2", 4, 4)])
    rng = np.random.default_rng(0)
    for _, _, _, param in model.parameters():
        param[...] = rng.normal(size=param.shape)
    model.masks = {0: np.array([1, 0, 1], np.float32), 4: np.array([1, 1, 0, 1], np.float32)}
    return model


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A checkpoint, its importance table and an IDX image/label pair."""
    root = tmp_path_factory.mktemp("binary")
    model = tiny_model()
    save_model(root / "model.npkt", model)
    harness.random_importance_table(model).to_csv(root / "scores.csv")
    images = np.random.default_rng(1).uniform(size=(4, 1, 4, 4)).astype(np.float32)
    data.save_idx(data.Dataset(images, np.array([0, 1, 1, 0]), "test", 0, 2), root / "images.idx", root / "labels.idx")
    return root


edits = st.lists(st.tuples(st.sampled_from(("flip", "truncate")), st.integers(0, 10**6), st.integers(1, 255)),
                 min_size=1, max_size=4)
json_values = st.one_of(st.none(), st.booleans(), st.integers(-2, 40), st.floats(), st.text(max_size=3),
                        st.lists(st.integers(-1, 3), max_size=4), st.just({}))
splices = st.lists(st.tuples(st.integers(0, 10**6), st.booleans(), json_values), min_size=1, max_size=3)


def _slots(obj):
    """Every (container, key) pair of a decoded JSON document."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield obj, key
        yield from _slots(value)


def splice(raw, splice_list):
    """Replace or delete values of a checkpoint's JSON header, keeping the
    parameter blobs and writing the new header length."""
    (length,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + length])
    for at, delete, value in splice_list:
        slots = list(_slots(header))
        container, key = slots[at % len(slots)]
        if delete:
            del container[key]
        else:
            container[key] = value
    new = json.dumps(header).encode("utf-8")
    return raw[:8] + struct.pack("<I", len(new)) + new + raw[12 + length :]


def splice_idx(raw, words):
    """Overwrite (index, value) big-endian header words of an IDX file."""
    count = 4 if raw[:4] == struct.pack(">I", data.IMAGES_MAGIC) else 2
    for index, value in words:
        at = 4 * (index % count)
        raw = raw[:at] + struct.pack(">I", value) + raw[at + 4 :]
    return raw


idx_words = st.lists(st.tuples(st.integers(0, 3), st.one_of(st.integers(0, 20), st.integers(0, 2**32 - 1))),
                     min_size=1, max_size=3)


def run_cli(*argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


def exits_cleanly(code, err):
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


def test_valid_files_load(workdir):
    assert load_model(workdir / "model.npkt").masks.keys() == {0, 4}
    assert len(data.load_idx(workdir / "images.idx", workdir / "labels.idx")) == 4
    assert run_cli("eval", "--checkpoint", workdir / "model.npkt", "--images", workdir / "images.idx",
                   "--labels", workdir / "labels.idx")[0] == 0


def loads_or_is_format_error(load, *args):
    try:
        load(*args)
    except FormatError:
        pass


def loads_to_its_bytes_or_is_format_error(path):
    """load_model returns or raises FormatError, and the model it returns saves to the file's bytes."""
    try:
        model = load_model(path)
    except FormatError:
        return
    again = path.with_name("again.npkt")
    save_model(again, model)
    assert again.read_bytes() == path.read_bytes()


@PROPERTY
@given(edit_list=edits)
def test_mutated_checkpoint_loads_or_is_format_error(workdir, edit_list):
    path = workdir / "mutated.npkt"
    path.write_bytes(mutate((workdir / "model.npkt").read_bytes(), edit_list))
    loads_to_its_bytes_or_is_format_error(path)


@PROPERTY
@given(splice_list=splices)
def test_spliced_header_loads_or_is_format_error(workdir, splice_list):
    path = workdir / "spliced.npkt"
    path.write_bytes(splice((workdir / "model.npkt").read_bytes(), splice_list))
    loads_to_its_bytes_or_is_format_error(path)


@PROPERTY
@given(edit_list=edits, splice_list=st.one_of(st.just([]), splices))
def test_cli_on_mutated_checkpoint_exits_cleanly(workdir, edit_list, splice_list):
    raw = (workdir / "model.npkt").read_bytes()
    if splice_list:
        raw = splice(raw, splice_list)
    else:
        raw = mutate(raw, edit_list)
    path = workdir / "cli.npkt"
    path.write_bytes(raw)
    exits_cleanly(*run_cli("eval", "--checkpoint", path, "--images", workdir / "images.idx",
                           "--labels", workdir / "labels.idx"))
    exits_cleanly(*run_cli("prune", "--checkpoint", path, "--table", workdir / "scores.csv",
                           "--prune-count", "2", "--out", workdir / "cli_small.npkt"))


@pytest.mark.parametrize("kind", ["images", "labels"])
@PROPERTY
@given(edit_list=edits, words=st.one_of(st.just([]), idx_words))
def test_mutated_idx_loads_or_is_format_error(workdir, kind, edit_list, words):
    raw = (workdir / f"{kind}.idx").read_bytes()
    raw = splice_idx(raw, words) if words else mutate(raw, edit_list)
    path = workdir / f"mutated_{kind}.idx"
    path.write_bytes(raw)
    loads_or_is_format_error(data.load_idx_images if kind == "images" else data.load_idx_labels, path)
    paths = {"images": workdir / "images.idx", "labels": workdir / "labels.idx", kind: path}
    loads_or_is_format_error(data.load_idx, paths["images"], paths["labels"])
    exits_cleanly(*run_cli("eval", "--checkpoint", workdir / "model.npkt",
                           "--images", paths["images"], "--labels", paths["labels"]))


REFERENCE = build_reference_models(image_size=8, seed=5)
IMAGES = np.random.default_rng(2).standard_normal((3, 1, 8, 8)).astype(np.float32)


def site_masks(model, keeps):
    """{site node: keep} of {site id: keep}."""
    return {s.node_index: np.array(keeps[s.site_id], np.float32) for s in model.sites if s.site_id in keeps}


@st.composite
def reference_masks(draw):
    """A reference model's name and random masks for it: site masks (one 0/1
    vector under a site node), then masks on any node index in [-1, n], of any
    length, with values from {0, 1, 0.5, 2}; gate nodes, fitting lengths and
    0/1 values are drawn often enough that some mask sets keep every rule, and
    some break only the site-node rule (a mask on a batch-norm gate)."""
    name = draw(st.sampled_from(sorted(REFERENCE)))
    model = REFERENCE[name]
    sites = draw(st.lists(st.sampled_from(model.sites), max_size=len(model.sites), unique_by=lambda s: s.site_id))
    masks = site_masks(model, {s.site_id: draw(st.lists(st.sampled_from((0.0, 1.0)), min_size=s.channels,
                                                        max_size=s.channels)) for s in sites})
    gates = [i for s in model.sites for i in model.gates(s)]
    for index in draw(st.lists(st.one_of(st.sampled_from(gates), st.integers(-1, len(model.nodes))), max_size=4)):
        width = model.nodes[index].channels if 0 <= index < len(model.nodes) else None
        length = draw(st.integers(0, 40) if width is None else st.one_of(st.just(width), st.integers(0, 40)))
        values = draw(st.sampled_from(((0.0, 1.0), (0.0, 1.0, 0.5, 2.0))))
        masks[index] = np.array(draw(st.lists(st.sampled_from(values), min_size=length, max_size=length)), np.float32)
    return name, masks


@PROPERTY
@given(case=reference_masks())
@example(case=("cnn_small", site_masks(REFERENCE["cnn_small"], {"conv1": [1] * 15 + [0], "conv2": [0, 1] * 12})))
def test_saved_masks_load_back_or_are_refused(workdir, case):
    name, masks = case
    model = REFERENCE[name].clone()
    model.masks = masks
    path = workdir / "masked.npkt"
    path.unlink(missing_ok=True)
    try:
        save_model(path, model)
    except InputError:
        assert not path.exists()
        return
    loaded = load_model(path)
    assert loaded.masks.keys() == masks.keys()
    assert all(np.array_equal(loaded.masks[i], m) for i, m in masks.items())
    assert loaded.forward(IMAGES, "eval")[0].tobytes() == model.forward(IMAGES, "eval")[0].tobytes()
    raw = path.read_bytes()
    save_model(path, loaded)
    assert path.read_bytes() == raw
