"""Binary model checkpoints.

Layout: 4 magic bytes "NPKT", format version (unsigned 32-bit little-endian),
header length (unsigned 32-bit little-endian), a UTF-8 JSON header describing
the topology (node kinds, refs, hyperparameters, parameter shapes, prunable
sites, channel masks), then the raw little-endian float32 parameter blobs in
node order.  Within a node, blobs follow the node's param_order(): trainable
parameters first, then state such as batch-norm running statistics.

Checkpoints always hold float32; loading returns a float32 model.  Round
trips are bit-exact: save(load(p)) writes the identical byte sequence.

Loading fails closed: a header with a missing key, a value that fails its
key's rule (the *_RULES tables, written in the data module's rule
vocabulary), an unknown node kind or hyperparameter, a site whose channel
count differs from its node's, or a mask that does not fit its node or sits
on a node that gates no site (see nn.Model.gates) raises FormatError before
any model is returned.
"""

import json
import math
import numbers
import struct

import numpy as np

from . import data
from .errors import FormatError, InputError
from .nn import Model, Site, make_node

MAGIC = b"NPKT"
VERSION = 1

_LIST = data.instance(list, "a JSON list")
_OBJECT = data.instance(dict, "a JSON object")
# key -> rule, for the header and the node, parameter and site objects in it
HEADER_RULES = {
    "nodes": _LIST,
    "sites": _LIST,
    "masks": _OBJECT,
    "input_shape": data.list_of(data.SIZE),
    "num_classes": data.SIZE,
    "non_prunable": _OBJECT,
}
NODE_RULES = {"kind": data.TEXT, "name": data.TEXT, "refs": data.list_of(data.integer(-1)),
              "hyper": _OBJECT, "params": _LIST}
PARAM_RULES = {"name": data.TEXT, "shape": data.list_of(data.COUNT)}
SITE_RULES = {"site_id": data.TEXT, "node_index": data.COUNT, "channels": data.SIZE}
# hyperparameters whose product is the size of a node's weight or gamma
SIZE_HYPERS = ("in_channels", "out_channels", "kernel", "kernel", "in_features", "out_features", "channels")
_F32 = np.finfo(np.float32)  # a batch norm adds eps to float32 variances: it must stay positive and finite there
_EPS = data.number(numbers.Real, lambda v: float(_F32.smallest_subnormal) <= v <= float(_F32.max), "a float32 > 0")
HYPER_RULES = {**dict.fromkeys(SIZE_HYPERS + ("stride",), data.SIZE), "padding": data.COUNT,
               "bias": data.FLAG, "eps": _EPS, "momentum": data.FRACTION}
MASK_RULE = data.list_of(data.integer(0, 1))


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


def _check_fields(obj, rules, what):
    """Every key of the rules is in the JSON object and its value passes the key's rule."""
    data.check(obj, _OBJECT, what, FormatError)
    for key, rule in rules.items():
        if key not in obj:
            raise FormatError(f"{what} lacks {key!r}")
        data.check(obj[key], rule, f"{what} {key!r}", FormatError)


def _check_header(header, blob_floats):
    """Keys, value types and node sizes of the whole header, before anything is built."""
    _check_fields(header, HEADER_RULES, "checkpoint header")
    for i, entry in enumerate(header["nodes"]):
        what = f"checkpoint node {i}"
        _check_fields(entry, NODE_RULES, what)
        arity = 2 if entry["kind"] == "residual_add" else 1
        if len(entry["refs"]) != arity:
            raise FormatError(f"{what}: {entry['kind']!r} takes {arity} refs, got {entry['refs']!r}")
        for name, value in entry["hyper"].items():
            data.check(name, data.one_of(tuple(HYPER_RULES)), f"{what} hyperparameter name", FormatError)
            data.check(value, HYPER_RULES[name], f"{what} hyperparameter {name!r}", FormatError)
        if math.prod(entry["hyper"].get(name, 1) for name in SIZE_HYPERS) > blob_floats:
            raise FormatError(f"{what}: hyperparameters describe a node larger than the {blob_floats} floats the file holds")
        for spec in entry["params"]:
            _check_fields(spec, PARAM_RULES, f"{what} parameter")
    for site in header["sites"]:
        _check_fields(site, SITE_RULES, "checkpoint site")
    node_key = data.one_of(tuple(map(str, range(len(header["nodes"])))))  # the keys _header_dict writes
    for key, mask in header["masks"].items():
        data.check(key, node_key, "checkpoint mask key", FormatError)
        data.check(mask, MASK_RULE, f"checkpoint mask {key!r}", FormatError)
    for key, reason in header["non_prunable"].items():
        data.check(key, node_key, "checkpoint non_prunable key", FormatError)
        data.check(reason, data.TEXT, f"checkpoint non_prunable {key!r}", FormatError)


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
            count = int(np.prod(shape, dtype=np.int64))
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
