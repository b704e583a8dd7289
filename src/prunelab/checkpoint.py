"""Binary model checkpoints.

Layout: 4 magic bytes "NPKT", format version (unsigned 32-bit little-endian),
header length (unsigned 32-bit little-endian), a UTF-8 JSON header describing
the topology (node kinds, refs, hyperparameters, parameter shapes, prunable
sites, channel masks), then the raw little-endian float32 parameter blobs in
node order.  Within a node, blobs follow the node's param_order(): trainable
parameters first, then state such as batch-norm running statistics.

Checkpoints always hold float32; loading returns a float32 model.  Round
trips are bit-exact: save(load(p)) writes the identical byte sequence.

Loading fails closed: a header with a missing key, a value of the wrong
type, an unknown node kind or hyperparameter, a site whose channel count
differs from its node's, or a mask that holds a value other than 0 and 1,
does not fit its node or sits on a node that gates no site (see
nn.Model.gates) raises FormatError before any model is returned.
"""

import json
import math
import struct

import numpy as np

from .errors import FormatError, InputError
from .nn import Model, Site, make_node

MAGIC = b"NPKT"
VERSION = 1

HEADER_TYPES = {
    "nodes": list,
    "sites": list,
    "masks": dict,
    "input_shape": list,
    "num_classes": int,
    "non_prunable": dict,
}
NODE_TYPES = {"kind": str, "name": str, "refs": list, "hyper": dict, "params": list}
PARAM_TYPES = {"name": str, "shape": list}
SITE_TYPES = {"site_id": str, "node_index": int, "channels": int}
# hyperparameter name -> (type, smallest allowed value)
HYPER_TYPES = {
    "in_channels": (int, 1),
    "out_channels": (int, 1),
    "kernel": (int, 1),
    "stride": (int, 1),
    "padding": (int, 0),
    "in_features": (int, 1),
    "out_features": (int, 1),
    "channels": (int, 1),
    "bias": (bool, None),
    "eps": (float, None),
    "momentum": (float, None),
}
# hyperparameters whose product is the size of a node's weight or gamma
SIZE_HYPERS = ("in_channels", "out_channels", "kernel", "kernel", "in_features", "out_features", "channels")


def _header_dict(model):
    nodes = []
    for node in model.nodes:
        entry = {
            "kind": node.kind,
            "name": node.name,
            "refs": node.refs,
            "hyper": node.hyper(),
            "params": [
                {"name": name, "shape": list(_blob(node, name).shape)} for name in node.param_order()
            ],
        }
        nodes.append(entry)
    return {
        "input_shape": list(model.input_shape),
        "num_classes": model.num_classes,
        "nodes": nodes,
        "sites": [
            {"site_id": s.site_id, "node_index": s.node_index, "channels": s.channels} for s in model.sites
        ],
        "non_prunable": {str(k): v for k, v in model.non_prunable.items()},
        "masks": {str(k): [int(v) for v in m] for k, m in model.masks.items()},
    }


def _blob(node, name):
    return node.params[name] if name in node.params else node.state[name]


def save_model(path, model):
    """Write the model to path as float32, returning the byte count."""
    model.check_masks()
    header = json.dumps(_header_dict(model), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        total = 12 + len(header)
        for node in model.nodes:
            for name in node.param_order():
                raw = np.ascontiguousarray(_blob(node, name), dtype="<f4").tobytes()
                fh.write(raw)
                total += len(raw)
    return total


def _take(buf, offset, count, what):
    if offset + count > len(buf):
        raise FormatError(f"truncated checkpoint: {what} needs bytes [{offset}, {offset + count}), file has {len(buf)}")
    return buf[offset : offset + count], offset + count


def _typed(value, kind):
    """isinstance that keeps JSON booleans apart from numbers and lets an
    integer stand for a float."""
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    if kind is float:
        return isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))
    return isinstance(value, kind)


def _check_fields(obj, types, what):
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must be a JSON object, got {type(obj).__name__}")
    for key, kind in types.items():
        if key not in obj:
            raise FormatError(f"{what} lacks {key!r}")
        if not _typed(obj[key], kind):
            raise FormatError(f"{what} {key!r} must be {kind.__name__}, got {obj[key]!r}")


def _check_ints(values, low, what):
    if not all(_typed(v, int) and v >= low for v in values):
        raise FormatError(f"{what} must hold integers >= {low}, got {values!r}")


def _index_key(key, count, what):
    try:
        index = int(key)
    except ValueError:
        raise FormatError(f"{what} key {key!r} is not a node index") from None
    if not 0 <= index < count:
        raise FormatError(f"{what} key {key!r} is not a node index in [0, {count})")
    return index


def _check_header(header, blob_floats):
    """Keys, value types and node sizes of the whole header, before anything is built."""
    _check_fields(header, HEADER_TYPES, "checkpoint header")
    if not header["input_shape"]:
        raise FormatError("checkpoint header 'input_shape' is empty")
    _check_ints(header["input_shape"], 1, "checkpoint header 'input_shape'")
    _check_ints([header["num_classes"]], 1, "checkpoint header 'num_classes'")
    for i, entry in enumerate(header["nodes"]):
        what = f"checkpoint node {i}"
        _check_fields(entry, NODE_TYPES, what)
        arity = 2 if entry["kind"] == "residual_add" else 1
        if len(entry["refs"]) != arity:
            raise FormatError(f"{what}: {entry['kind']!r} takes {arity} refs, got {entry['refs']!r}")
        _check_ints(entry["refs"], -1, f"{what} refs")
        for name, value in entry["hyper"].items():
            if name not in HYPER_TYPES:
                raise FormatError(f"{what}: unknown hyperparameter {name!r}")
            kind, low = HYPER_TYPES[name]
            if not _typed(value, kind) or (low is not None and value < low):
                raise FormatError(f"{what}: hyperparameter {name!r} = {value!r} is not a valid {kind.__name__}")
        if math.prod(entry["hyper"].get(name, 1) for name in SIZE_HYPERS) > blob_floats:
            raise FormatError(f"{what}: hyperparameters describe a node larger than the {blob_floats} floats the file holds")
        for spec in entry["params"]:
            _check_fields(spec, PARAM_TYPES, f"{what} parameter")
            _check_ints(spec["shape"], 0, f"{what} parameter {spec['name']!r} shape")
    for site in header["sites"]:
        _check_fields(site, SITE_TYPES, "checkpoint site")
    for key, mask in header["masks"].items():
        _index_key(key, len(header["nodes"]), "checkpoint mask")
        if not isinstance(mask, list) or not all(_typed(v, int) and v in (0, 1) for v in mask):
            raise FormatError(f"checkpoint mask {key!r} must be a list of 0s and 1s")
    for key, reason in header["non_prunable"].items():
        _index_key(key, len(header["nodes"]), "checkpoint non_prunable")
        if not isinstance(reason, str):
            raise FormatError(f"checkpoint non_prunable {key!r} must be a string, got {reason!r}")


def _check_consistent(model):
    """Sites must fit the nodes they name, and masks must sit on a site's
    gate nodes and fit them."""
    nodes = model.nodes
    for s in model.sites:
        if not 0 <= s.node_index < len(nodes):
            raise FormatError(f"site {s.site_id!r}: node index {s.node_index} not in [0, {len(nodes)})")
        width = nodes[s.node_index].out_channels()
        if s.channels != width:
            raise FormatError(f"site {s.site_id!r}: {s.channels} channels, node {s.node_index} has {width}")
    gated = {i for s in model.sites for i in model.gates(s)}
    for i, mask in model.masks.items():
        if i not in gated:
            raise FormatError(f"mask on node {i}: a {nodes[i].kind} node that gates no site")
        width = nodes[i].out_channels()
        if mask.size != width:
            raise FormatError(f"mask on node {i}: length {mask.size}, node has {width} channels")


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
            node = make_node(entry["kind"], entry["name"], entry["refs"], entry["hyper"])
        except (InputError, TypeError) as e:
            raise FormatError(f"node {i}: {e}") from None
        names = [spec["name"] for spec in entry["params"]]
        if names != node.param_order():
            raise FormatError(f"node {i}: parameters {names} != {node.param_order()} for kind {entry['kind']!r}")
        for spec in entry["params"]:
            name, shape = spec["name"], tuple(spec["shape"])
            expected = _blob(node, name).shape
            if shape != expected:
                raise FormatError(f"node {i}: parameter {name!r} shape {shape} != expected {expected}")
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            raw, offset = _take(buf, offset, 4 * count, f"node {i} parameter {name!r}")
            arr = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
            if name in node.params:
                node.params[name] = arr
            else:
                node.state[name] = arr
        node.zero_grads()
        nodes.append(node)
    if offset != len(buf):
        raise FormatError(f"trailing bytes: file has {len(buf)}, checkpoint ends at {offset}")

    sites = [Site(s["site_id"], s["node_index"], s["channels"]) for s in header["sites"]]
    try:
        model = Model(
            nodes,
            tuple(header["input_shape"]),
            header["num_classes"],
            sites,
            non_prunable={int(k): v for k, v in header["non_prunable"].items()},
            dtype=np.float32,
        )
    except InputError as e:
        raise FormatError(f"inconsistent checkpoint: {e}") from None
    model.masks = {int(k): np.asarray(m, dtype=np.float32) for k, m in header["masks"].items()}
    _check_consistent(model)
    return model
