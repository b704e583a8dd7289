"""Binary model checkpoints, format 2.

Layout: 4 magic bytes "NPKT", format version (unsigned 32-bit little-endian),
header length (unsigned 32-bit little-endian), a UTF-8 JSON header describing
the topology (node kinds, refs, hyperparameters, parameter shapes, prunable
sites, and the channel masks as Model.masks holds them: one per masked site,
keyed by its node index), then the raw little-endian float32 parameter blobs in
node order.  Within a node, blobs follow the node's param_order(): trainable
parameters first, then state such as batch-norm running statistics.

Checkpoints always hold float32; loading returns a float32 model.

load_model is save_model's inverse and fails closed: a file loads only if
save_model would write its header, byte for byte, for the model the header
describes; else FormatError.  The nn constructors check the values a model
is built from and nn.Model.check the model; load_model raises their InputError
as FormatError.  Here are only the rules of the file: framing, JSON container
types, MASK_RULE and SIZE_HYPERS, a bound on node sizes.  So save(load(p))
writes p's bytes for every p load_model accepts, and save_model, which runs
hyper() and then Model.check before it opens the file, writes no checkpoint
that load_model rejects.
"""

import json
import math
import struct

import numpy as np

from . import data
from .errors import FormatError, InputError
from .nn import MODEL, Model, Site, make_node

MAGIC = b"NPKT"
VERSION = 2

_LIST = data.instance(list, "a JSON list")
_OBJECT = data.instance(dict, "a JSON object")
# key -> rule, for the JSON containers of the header and its nodes; the nn constructors check what they hold
HEADER_RULES = {"nodes": _LIST, "sites": _LIST, "masks": _OBJECT}
NODE_RULES = {"hyper": _OBJECT}
# node kind -> the hyperparameters whose product is the size of its weight or gamma
SIZE_HYPERS = {"conv2d": ("in_channels", "out_channels", "kernel", "kernel"),
               "linear": ("in_features", "out_features"), "batch_norm": ("channels",)}
MASK_RULE = data.list_of(data.integer(0, 1))


def _header_dict(model):
    nodes = [{"kind": node.kind, "name": node.name, "refs": node.refs, "hyper": node.hyper(),
              "params": [{"name": name, "shape": list(_blob(node, name).shape)} for name in node.param_order()]}
             for node in model.nodes]
    return {
        "input_shape": list(model.input_shape),
        "num_classes": model.num_classes,
        "nodes": nodes,
        "sites": [
            {"site_id": s.site_id, "node_index": s.node_index, "channels": s.channels} for s in model.sites
        ],
        "masks": {str(i): np.equal(m, 1).astype(int).tolist() for i, m in model.masks.items()},
    }


def _header_bytes(model):
    return json.dumps(_header_dict(model), sort_keys=True).encode("utf-8")


def _blob(node, name):
    return node.params[name] if name in node.params else node.state[name]


def save_model(path, model):
    """Write the model to path as float32, returning the byte count."""
    data.check(model, MODEL, "model")
    for node in model.nodes:
        node.hyper()  # before Model.check, whose shape walk trusts the hyperparameters
    model.check()  # before the header, which converts the masks the check passes
    header = _header_bytes(model)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for node in model.nodes:
            for name in node.param_order():
                fh.write(np.ascontiguousarray(_blob(node, name), dtype="<f4").tobytes())
        return fh.tell()


def _take(buf, offset, count, what):
    if offset + count > len(buf):
        raise FormatError(f"truncated checkpoint: {what} needs bytes [{offset}, {offset + count}), file has {len(buf)}")
    return buf[offset : offset + count], offset + count


def _check_fields(obj, rules, what):
    """Every key of the rules is in the JSON object and its value passes the key's rule."""
    data.check(obj, _OBJECT, what, FormatError)
    for key, rule in rules.items():
        if key not in obj:
            raise FormatError(f"{what} lacks {key!r}")
        data.check(obj[key], rule, f"{what} {key!r}", FormatError)


def _check_header(header, blob_floats):
    """The JSON containers, masks and node sizes of the header, before anything is built."""
    _check_fields(header, HEADER_RULES, "checkpoint header")
    for i, entry in enumerate(header["nodes"]):
        what = f"checkpoint node {i}"
        _check_fields(entry, NODE_RULES, what)
        # make_node refuses a kind or size of another type before it allocates
        sizes = [entry["hyper"].get(name, 1) for name in SIZE_HYPERS.get(str(entry.get("kind")), ())]
        if all(map(data.SIZE[0], sizes)) and math.prod(sizes) > blob_floats:
            raise FormatError(f"{what}: hyperparameters describe a node larger than the {blob_floats} floats the file holds")
    for site in header["sites"]:
        data.check(site, _OBJECT, "checkpoint site", FormatError)
    for key, mask in header["masks"].items():
        data.check(mask, MASK_RULE, f"checkpoint mask {key!r}", FormatError)


def _difference(got, want, where=""):
    """Where decoded JSON got first differs from want, in sorted key order; None if only their text differs."""
    if isinstance(got, dict) and isinstance(want, dict):
        if got.keys() != want.keys():
            return f"the keys of {where or 'the header'}"
        pairs = [(f"{where}.{k}" if where else k, got[k], want[k]) for k in sorted(want)]
    elif isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        pairs = [(f"{where}[{i}]", g, w) for i, (g, w) in enumerate(zip(got, want))]
    else:
        return None if type(got) is type(want) and got == want else where
    return next(filter(None, (_difference(g, w, at) for at, g, w in pairs)), None)


def load_model(path):
    """Read a checkpoint written by save_model; returns a float32 Model."""
    with open(path, "rb") as fh:
        buf = fh.read()
    raw, offset = _take(buf, 0, 4, "magic")
    if raw != MAGIC:
        raise FormatError(f"not a checkpoint file: magic {raw!r} != {MAGIC!r}")
    raw, offset = _take(buf, offset, 4, "version")
    version = struct.unpack("<I", raw)[0]
    if version != VERSION:
        raise FormatError(f"unsupported checkpoint version {version} (expected {VERSION})")
    raw, offset = _take(buf, offset, 4, "header length")
    header_len = struct.unpack("<I", raw)[0]
    raw, offset = _take(buf, offset, header_len, "header")
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"unreadable checkpoint header: {e}") from e

    _check_header(header, (len(buf) - offset) // 4)
    nodes = []
    for i, entry in enumerate(header["nodes"]):
        try:
            nodes.append(node := make_node(entry.get("kind"), entry.get("name"), entry.get("refs"), entry["hyper"]))
        except (InputError, TypeError) as e:
            raise FormatError(f"node {i}: {e}") from None
        for name in node.param_order():  # before the next node: a short file cannot make many nodes allocate its size
            shape = _blob(node, name).shape
            blob, offset = _take(buf, offset, 4 * math.prod(shape), f"node {i} parameter {name!r}")
            (node.params if name in node.params else node.state)[name] = np.frombuffer(blob, "<f4").reshape(shape).copy()
    try:
        sites = [Site(s.get("site_id"), s.get("node_index"), s.get("channels")) for s in header["sites"]]
        model = Model(nodes, header.get("input_shape"), header.get("num_classes"), sites, dtype=np.float32)
        model.masks = {s.node_index: np.asarray(header["masks"][str(s.node_index)], dtype=np.float32)
                       for s in sites if str(s.node_index) in header["masks"]}
        model.check()
    except InputError as e:
        raise FormatError(f"inconsistent checkpoint: {e}") from None
    expected = _header_bytes(model)
    if raw != expected:
        at = next((i for i, (a, b) in enumerate(zip(raw, expected)) if a != b), min(len(raw), len(expected)))
        where = _difference(header, _header_dict(model)) or f"byte {at} of its JSON text"
        raise FormatError(f"checkpoint header differs from the one save_model writes for its model, first at {where}")
    if offset != len(buf):
        raise FormatError(f"trailing bytes: file has {len(buf)}, checkpoint ends at {offset}")
    return model
