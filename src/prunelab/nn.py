"""Layer graph runtime.

A :class:`Model` is a topologically ordered list of nodes (conv, linear,
batch norm, relu, pooling, residual add, flatten).  Node ``refs`` name the
producer node indices; the constant :data:`INPUT` (-1) refers to the model
input.  A recorded forward returns the logits plus a :class:`ForwardRecord`
holding each node's output values[i] and layer cache caches[i]; a prunable
site's pre-activation is values[site.node_index].  A record-free forward
(``record=False``) keeps neither: every value is its own buffer, freed after its
last reader, which may overwrite it if a batch norm or ReLU: the same logits bytes.  Backward accepts an
arbitrary output gradient (it does not have to come from a loss) and runs back
only to the nodes the caller reads, dropping each node's output gradient once
that node has run.  Given taps, node indices, it computes no parameter gradient
and returns {tap: output gradient}; without, it reads every node with
parameters, accumulates their gradients on the nodes and returns None.

A prunable site is the output of a conv/linear node, taken before batch norm
and before the nonlinearity.  Channel masks attached to the model (see
``prunelab.pruning``) are applied as an elementwise multiply right after the
node computes, so masked channels contribute exactly zero downstream and, by
the chain rule, their parameters receive zero gradient.

A node's arrays are the only record of its sizes.  Each value rule lives
with the constructor that takes the value, which raises InputError before
it allocates: a node checks its name, refs and hyperparameters (check_hyper:
HYPER_RULES, and a conv's padding is less than its kernel; hyper() returns
only what that check passes, so a value set after construction fails at save),
a Site its fields, and a Model its arguments.  A Model keeps only that data, all of it mutable, so
:meth:`Model.check`, the one model rule, runs at build, in every forward and before masks are applied,
compacted, saved or loaded: input_shape goes through each node's ``arity`` earlier refs, arrays of the
model's dtype and out_shape rule to (num_classes,); each site is on a node of its ``channels``, with unique
ids and nodes; each mask is keyed by a site node, an array of the model's dtype with one entry per channel
of it, only 0s and 1s; else InputError.  So every array a forward meets has the model's dtype, and no node
or gate converts one.  A node's gate mask (:meth:`Model.gate_mask`) and a value's last reader are read off the
nodes and masks: a batch norm applies its own site mask times the mask of the site it reads, so masks compose.
"""

import copy
import math
import numbers
from collections.abc import Iterable

import numpy as np

from . import data
from . import tensor as T
from .errors import InputError, ShapeError, StateError

INPUT = -1
_F32 = np.finfo(np.float32)  # a batch norm adds eps to float32 variances: it must stay positive and finite there
_EPS = data.number(numbers.Real, lambda v: float(_F32.smallest_subnormal) <= v <= float(_F32.max), "a float32 > 0")
HYPER_RULES = {"padding": data.COUNT, "bias": data.FLAG, "eps": _EPS, "momentum": data.FRACTION, **dict.fromkeys(
    ("in_channels", "out_channels", "kernel", "stride", "in_features", "out_features", "channels"), data.SIZE)}
_DTYPE = (lambda v: isinstance(v, (type, np.dtype)) and v in (np.float32, np.float64)), "numpy float32 or float64"


def _row(param, x):
    """A per-channel vector repeated over the spatial positions of one example
    of x: numpy runs a pass against it over x as contiguous (N, C*H*W) rows."""
    return np.repeat(param, x[0].size // x.shape[1]).reshape(x.shape[1:])


class Node:
    """Base graph node. Subclasses define kind, params, forward and backward. The
    arrays, output channel on axis 0, are its only record of sizes: channels and hyper() read them.
    A subclass passes its constructor's locals() as args, and its hyper() returns what it describes:
    both pass check_hyper.  out_shape is the kind's one shape rule, and forward meets only inputs it took.

    forward(xs, mode, cache) returns an array no other value shares: each value is its own buffer.
    Where a record-free run sets cache["inplace"], that array may be xs[0], written over.
    backward(grad, cache) accumulates parameter gradients and returns one input
    gradient per ref, unless Model.backward's switches in the cache say no:
    cache["params"] false skips the former, cache["inputs"] false lets it return None."""

    kind = "base"
    arity = 1  # the number of refs the node reads

    def __init__(self, name, refs, args=None, /):
        self.name = data.check(name, data.TEXT, "name")
        self.refs = list(data.check(refs, data.list_of(data.integer(INPUT)), "refs"))
        check_hyper(self.name, args or {})
        self.params = {}
        self.grads = {}
        self.state = {}

    @property
    def channels(self):
        """Output channel count, the length of the first parameter; None for a node without parameters."""
        return len(next(iter(self.params.values()))) if self.params else None

    def param_order(self):
        """Parameter names in checkpoint blob order (trainable, then state)."""
        return list(self.params) + list(self.state)

    def zero_grads(self):
        for k, v in self.params.items():
            self.grads[k] = np.zeros_like(v)

    def hyper(self):
        return {}

    def out_shape(self, shapes):
        """The per-example output shape from the refs', by arithmetic alone; ShapeError if they do not fit."""
        return shapes[0]

    def forward(self, xs, mode, cache):
        raise NotImplementedError

    def backward(self, grad, cache):
        raise NotImplementedError


def check_hyper(name, hyper):
    """The hyperparameters of node name as Python scalars (JSON takes no numpy ones), if each in HYPER_RULES
    passes its rule and a padding is less than the kernel (or border outputs read only padding); else InputError."""
    for key in filter(HYPER_RULES.__contains__, hyper):
        data.check(hyper[key], HYPER_RULES[key], f"hyperparameter {key!r}")
    if hyper.get("padding", 0) >= hyper.get("kernel", 1):
        raise InputError(f"conv {name!r} pads by {hyper['padding']}, not less than its kernel {hyper['kernel']}")
    return {k: v.item() if isinstance(v, np.generic) else v for k, v in hyper.items()}


class Conv2d(Node):
    """2d convolution with optional bias (``tensor.conv2d``); the cache holds x."""

    kind = "conv2d"

    def __init__(self, name, refs, in_channels, out_channels, kernel, stride=1, padding=0, bias=True):
        super().__init__(name, refs, locals())
        self.stride = stride
        self.padding = padding
        self.params["weight"] = np.zeros((out_channels, in_channels, kernel, kernel), np.float32)
        if bias:
            self.params["bias"] = np.zeros(out_channels, np.float32)
        self.zero_grads()

    def hyper(self):
        out_channels, in_channels, kernel, width = self.params["weight"].shape
        kernel = kernel if width == kernel else (kernel, width)  # a pair, which the kernel rule refuses
        return check_hyper(self.name, {"in_channels": in_channels, "out_channels": out_channels, "kernel": kernel,
                                       "stride": self.stride, "padding": self.padding, "bias": "bias" in self.params})

    def out_shape(self, shapes):
        (out_channels, in_channels, *kernel), (c, *hw) = self.params["weight"].shape, shapes[0]
        if c != in_channels or len(hw) != 2:
            raise ShapeError(f"conv2d expects ({in_channels}, H, W) input, got {shapes[0]}")
        return (out_channels, *(T.conv_output_size(e, k, self.stride, self.padding) for e, k in zip(hw, kernel)))

    def forward(self, xs, mode, cache):
        x = cache["x"] = xs[0]
        out = T.conv2d(x, self.params["weight"], self.stride, self.padding)
        if "bias" in self.params:
            out = out + self.params["bias"].reshape(1, -1, 1, 1)
        return out

    def backward(self, grad, cache):
        x, w = cache["x"], self.params["weight"]
        if cache.get("params", True):
            self.grads["weight"] += T.conv2d_grad_weight(x, w, grad, self.stride, self.padding)
            if "bias" in self.params:
                self.grads["bias"] += grad.sum(axis=(0, 2, 3))
        return [T.conv2d_grad_input(x, w, grad, self.stride, self.padding) if cache.get("inputs", True) else None]


class Linear(Node):
    kind = "linear"

    def __init__(self, name, refs, in_features, out_features, bias=True):
        super().__init__(name, refs, locals())
        self.params["weight"] = np.zeros((out_features, in_features), np.float32)
        if bias:
            self.params["bias"] = np.zeros(out_features, np.float32)
        self.zero_grads()

    def hyper(self):
        out_features, in_features = self.params["weight"].shape
        return check_hyper(self.name, {"in_features": in_features, "out_features": out_features,
                                       "bias": "bias" in self.params})

    def out_shape(self, shapes):
        out_features, in_features = self.params["weight"].shape
        if shapes[0] != (in_features,):
            raise ShapeError(f"linear expects ({in_features},) input, got {shapes[0]}")
        return (out_features,)

    def forward(self, xs, mode, cache):
        x = cache["x"] = xs[0]
        out = x @ self.params["weight"].T
        if "bias" in self.params:
            out = out + self.params["bias"]
        return out

    def backward(self, grad, cache):
        if cache.get("params", True):
            self.grads["weight"] += grad.T @ cache["x"]
            if "bias" in self.params:
                self.grads["bias"] += grad.sum(axis=0)
        return [grad @ self.params["weight"] if cache.get("inputs", True) else None]


class BatchNorm(Node):
    """Per-channel batch normalization over (N,) or (N, H, W).

    Train mode normalizes with batch statistics (biased variance) and updates
    the running estimates with momentum; eval mode normalizes with the running
    estimates.  The train-mode backward is the full batch-statistics adjoint,
    so dgamma/dbeta are exact in both modes.  The forward is four elementwise
    passes over the batch (x - mean, * inv_std, * gamma, + beta), each against
    a per-channel row (x viewed as (N, C*H*W) rows).  In train mode the first
    is np.var's own first pass, so the variance keeps its bytes, and the
    centred array becomes the output.  In eval mode the passes write into x
    itself where cache["inplace"] allows.  x, the parameters and the
    statistics all have the model's dtype (Model.check), so nothing converts.
    The cache holds x, not xhat: backward recomputes xhat with the same passes
    when it needs it, in train mode or to accumulate dgamma.
    """

    kind = "batch_norm"

    def __init__(self, name, refs, channels, eps=1e-5, momentum=0.9):
        super().__init__(name, refs, locals())
        self.eps = eps
        self.momentum = momentum
        self.params["gamma"] = np.ones(channels, np.float32)
        self.params["beta"] = np.zeros(channels, np.float32)
        self.state["running_mean"] = np.zeros(channels, np.float32)
        self.state["running_var"] = np.ones(channels, np.float32)
        self.zero_grads()

    def hyper(self):
        return check_hyper(self.name, {"channels": self.channels, "eps": self.eps, "momentum": self.momentum})

    def out_shape(self, shapes):
        if len(shapes[0]) not in (1, 3) or shapes[0][0] != self.channels:
            raise ShapeError(f"batch norm expects ({self.channels},) or ({self.channels}, H, W) input, got {shapes[0]}")
        return shapes[0]

    def forward(self, xs, mode, cache):
        x = xs[0]
        axes = (0,) if x.ndim == 2 else (0, 2, 3)
        train = mode == "train"
        if train:
            mean = x.mean(axis=axes)
            centred = np.subtract(x, _row(mean, x), out=np.empty_like(x))  # np.var's own first pass, in x's layout
            var = (centred * centred).sum(axis=axes) / (x.size // x.shape[1])
            m = float(self.momentum)  # a Python scalar takes the statistics' dtype, a numpy float64 promotes them
            self.state["running_mean"] = m * self.state["running_mean"] + (1 - m) * mean
            self.state["running_var"] = m * self.state["running_var"] + (1 - m) * var
        else:
            mean = self.state["running_mean"]
            var = self.state["running_var"]
        inv_std = 1.0 / np.sqrt(var + x.dtype.type(self.eps))
        cache.update(x=x, mean=mean, inv_std=inv_std, axes=axes, mode=mode)
        if train:
            out = np.ascontiguousarray(centred)
        else:
            out = np.subtract(x, _row(mean, x), out=x if cache.get("inplace") else np.empty(x.shape, x.dtype))
        out *= _row(inv_std, x)
        out *= _row(self.params["gamma"], x)
        out += _row(self.params["beta"], x)
        return out

    def backward(self, grad, cache):
        x, inv_std, axes, train = cache["x"], cache["inv_std"], cache["axes"], cache["mode"] == "train"
        if train or cache.get("params", True):
            xhat = x - _row(cache["mean"], x)  # the forward's first two passes: the same bytes
            xhat *= _row(inv_std, x)
        if cache.get("params", True):
            self.grads["gamma"] += (grad * xhat).sum(axis=axes)
            self.grads["beta"] += grad.sum(axis=axes)
        dxhat = grad * _row(self.params["gamma"], grad)
        if not train:
            dxhat *= _row(inv_std, grad)
            return [dxhat]
        m = grad.size // grad.shape[1]
        s1 = dxhat.sum(axis=axes)
        s2 = (dxhat * xhat).sum(axis=axes)
        # (dxhat - s1/m - xhat*s2/m) * inv_std, op for op, in place
        np.subtract(dxhat, _row(s1, grad) / m, out=dxhat)
        xhat *= _row(s2, grad)
        xhat /= m
        dxhat -= xhat
        dxhat *= _row(inv_std, grad)
        return [dxhat]


class ReLU(Node):
    """Caches its input; backward passes grad where the input is positive."""

    kind = "relu"

    def forward(self, xs, mode, cache):
        x = cache["x"] = xs[0]
        return np.maximum(x, 0, out=x if cache.get("inplace") else None)

    def backward(self, grad, cache):
        return [grad * (cache["x"] > 0)]


class _Pool(Node):
    def __init__(self, name, refs, kernel=2):
        super().__init__(name, refs, locals())
        self.kernel = kernel

    def hyper(self):
        return check_hyper(self.name, {"kernel": self.kernel})

    def out_shape(self, shapes):
        (c, *hw), k = shapes[0], self.kernel
        if k < 1 or len(hw) != 2 or hw[0] % k or hw[1] % k:
            raise ShapeError(f"pool kernel {k} expects (C, H, W) input whose H and W it divides, got {shapes[0]}")
        return (c, hw[0] // k, hw[1] // k)


class AvgPool(_Pool):
    """Sums each window row left to right over the strided corners, then the
    rows top to bottom, then divides by k^2: the order of numpy's mean over a
    window's two axes, so the output bytes equal it.  An input one window wide
    keeps that mean, which then sums each window's k^2 values in one run."""

    kind = "avg_pool"

    def forward(self, xs, mode, cache):
        x = xs[0]
        (n, c, h, w), k = x.shape, self.kernel
        if w == k:
            return x.reshape(n, c, h // k, k, 1, k).mean(axis=(3, 5))
        for i in range(k):
            row = x[:, :, i::k, ::k] + 0.0  # numpy's sum starts at +0.0: a window of -0.0 averages to +0.0
            for j in range(1, k):
                row += x[:, :, i::k, j::k]
            out = row if i == 0 else np.add(out, row, out=out)
        out /= k * k
        return out

    def backward(self, grad, cache):
        k = self.kernel
        g = grad / grad.dtype.type(k * k)
        return [np.repeat(np.repeat(g, k, axis=3), k, axis=2)]  # each column k times, then each row


class MaxPool(_Pool):
    """Running maximum over each k x k window in row-major order, by runs:
    over the k columns of every window row, as the flat runs x[j::k], then
    over the k rows of those maxima.  np.maximum takes the later run first,
    and equal operands (0.0, -0.0) give the second: the first maximum in
    row-major order wins a tie, in value and in gradient.  A window holding a
    NaN outputs its last NaN and passes no gradient.  It runs per block of at
    most 32 examples (``tensor.blocks``) into one output: one block's row
    maxima are its only temporary."""

    kind = "max_pool"

    def forward(self, xs, mode, cache):
        x = cache["x"] = xs[0]
        (n, c, h, w), k = x.shape, self.kernel
        out = cache["out"] = np.empty((n, c, h // k, w // k), x.dtype)
        for blk in T.blocks(n):
            maxima = x[blk].reshape(-1)
            for run, dest in ((1, None), (w // k, out[blk].reshape(-1, w // k))):  # runs of 1, then of w/k:
                runs = maxima.reshape(-1, k, run)  # column i of every window row, then row i of every window
                maxima = np.maximum(runs[:, min(1, k - 1)], runs[:, 0], out=dest)  # k = 1: a copy of run 0
                for i in range(2, k):
                    np.maximum(runs[:, i], maxima, out=maxima)
        return out

    def backward(self, grad, cache):
        x, out = cache["x"], cache["out"]
        k = self.kernel
        # in the unsigned-integer view, bits * hit copies a gradient exactly and
        # writes +0.0 elsewhere; a float product would write -0.0 or NaN there
        bits = grad.view(f"u{grad.itemsize}")
        gx_bits = np.empty(x.shape, bits.dtype)
        free = np.ones(out.shape, bool)
        hit = np.empty(out.shape, bool)
        for i, j in np.ndindex(k, k):  # the window's positions in row-major order
            np.equal(x[:, :, i::k, j::k], out, out=hit)
            hit &= free
            free ^= hit
            np.multiply(bits, hit, out=gx_bits[:, :, i::k, j::k])
        return [gx_bits.view(grad.dtype)]


class ResidualAdd(Node):
    kind = "residual_add"
    arity = 2

    def out_shape(self, shapes):
        if shapes[0] != shapes[1]:
            raise ShapeError(f"residual add inputs differ: {shapes[0]} vs {shapes[1]}")
        return shapes[0]

    def forward(self, xs, mode, cache):
        return xs[0] + xs[1]

    def backward(self, grad, cache):
        return [grad, grad]


class Flatten(Node):
    """Returns a copy of its input as [N, -1] rows, not a view: its output is its own buffer."""

    kind = "flatten"

    def out_shape(self, shapes):
        return (math.prod(shapes[0]),)

    def forward(self, xs, mode, cache):
        x = xs[0]
        cache["in_shape"] = x.shape
        return x.reshape(x.shape[0], -1).copy()

    def backward(self, grad, cache):
        return [grad.reshape(cache["in_shape"])]


NODE_KINDS = {
    cls.kind: cls for cls in (Conv2d, Linear, BatchNorm, ReLU, AvgPool, MaxPool, ResidualAdd, Flatten)
}


def make_node(kind, name, refs, hyper):
    """Construct a node from its checkpoint descriptor."""
    return NODE_KINDS[data.check(kind, data.one_of(tuple(NODE_KINDS)), "node kind")](name, refs, **hyper)


class Site:
    """A prunable channel-bearing location: the output of one node."""

    def __init__(self, site_id, node_index, channels):
        self.site_id = data.check(site_id, data.TEXT, "site_id")
        self.node_index = data.check(node_index, data.COUNT, f"site {site_id!r} node_index")
        self.channels = data.check(channels, data.SIZE, f"site {site_id!r} channels")

    def __repr__(self):
        return f"Site({self.site_id!r}, node={self.node_index}, channels={self.channels})"


class ForwardRecord:
    """A recorded forward: each node's output values[i] and layer cache caches[i], which backward reads."""

    def __init__(self, model, serial):
        self.model = model
        self.serial = serial
        self.values = []
        self.caches = []


class Model:
    """A node graph, its prunable sites, and channel masks {site node index:
    keep vector}, each applied at every gate node of its site (see gates)."""

    def __init__(self, nodes, input_shape, num_classes, sites=None, dtype=np.float32):
        self.nodes = list(data.check(nodes, data.list_of(data.instance(Node, "a Node")), "nodes"))
        self.input_shape = tuple(data.check(input_shape, data.list_of(data.SIZE), "input_shape"))
        self.num_classes = data.check(num_classes, data.SIZE, "num_classes")
        self.sites = list(data.check(sites, data.list_of(data.instance(Site, "a Site"), unset_ok=True), "sites") or [])
        self.dtype = np.dtype(data.check(dtype, _DTYPE, "dtype")).type
        self.masks = {}
        self._serial = 0
        self.check()

    # -- parameter access ---------------------------------------------------

    def parameters(self):
        """Yield (node_index, node, name, array) for every trainable parameter."""
        for i, node in enumerate(self.nodes):
            for name in node.params:
                yield i, node, name, node.params[name]

    def param_count(self):
        return sum(p.size for _, _, _, p in self.parameters())

    def zero_grads(self):
        for node in self.nodes:
            node.zero_grads()

    def astype(self, dtype):
        """Return a copy with parameters, state and masks cast to dtype."""
        out = self.clone()
        out.dtype = np.dtype(data.check(dtype, _DTYPE, "dtype")).type
        for node in out.nodes:
            for k in node.params:
                node.params[k] = node.params[k].astype(dtype)
            for k in node.state:
                node.state[k] = node.state[k].astype(dtype)
            node.zero_grads()
        out.masks = {i: m.astype(dtype) for i, m in out.masks.items()}
        return out

    def clone(self):
        return copy.deepcopy(self)

    def check(self):
        """{INPUT or node index: per-example shape} if the model keeps the nn module's rules (every array, masks
        included, of the model's dtype); else InputError."""
        shapes = {INPUT: self.input_shape}
        for i, node in enumerate(self.nodes):
            if len(node.refs) != node.arity:
                raise InputError(f"node {i} ({node.name}): {node.kind} takes {node.arity} refs, got {node.refs}")
            for r in node.refs:
                if r not in shapes:
                    raise InputError(f"node {i} ({node.name}) refs node {r}, which does not precede it")
            for k, a in (*node.params.items(), *node.state.items()):
                if not isinstance(a, np.ndarray) or a.dtype.type is not self.dtype:
                    raise InputError(f"node {i} ({node.name}): {k} is not a {self.dtype.__name__} array")
            try:
                shapes[i] = node.out_shape([shapes[r] for r in node.refs])
            except (InputError, ShapeError) as e:
                raise InputError(f"node {i} ({node.name}): {e}") from None
        if shapes[i] != (self.num_classes,):
            raise InputError(f"node {i} ({node.name}): outputs {shapes[i]}, not the logits' ({self.num_classes},)")
        for s in self.sites:
            if s.node_index not in range(len(self.nodes)):
                raise InputError(f"site {s.site_id!r}: node index {s.node_index} not in [0, {len(self.nodes)})")
            if s.channels != (width := self.nodes[s.node_index].channels):
                raise InputError(f"site {s.site_id!r}: {s.channels} channels, node {s.node_index} has {width}")
        if len({s.site_id for s in self.sites}) != len(self.sites):
            raise InputError("duplicate site ids")
        site_nodes = {s.node_index for s in self.sites}
        if len(site_nodes) != len(self.sites):
            raise InputError("two sites on one node: masks are keyed by a site's node")
        for i, m in self.masks.items():
            if not data.integer(0, len(self.nodes) - 1)[0](i):  # True and 0.0 pass a range() test
                raise InputError(f"mask on node {i!r}: no such node")
            node = self.nodes[i]
            if i not in site_nodes:
                raise InputError(f"mask on node {i}: node {i} ({node.name}) is a {node.kind} node, not a site node")
            if not isinstance(m, np.ndarray) or m.dtype.type is not self.dtype:
                raise InputError(f"mask on node {i} is not a {self.dtype.__name__} array")
            if m.shape != (node.channels,):
                raise InputError(f"mask on node {i}: shape {m.shape}, node has {node.channels} channels")
            if not np.all((m == 0) | (m == 1)):
                raise InputError(f"mask on node {i} holds values other than 0 and 1")
        return shapes

    def gates(self, site):
        """Indices of the nodes whose masks gate a site's channels: the site
        node, then every batch norm that reads it (the batch-norm gate of
        Molchanov et al., CVPR 2019)."""
        return [site.node_index] + [i for i, n in enumerate(self.nodes)
                                    if n.kind == "batch_norm" and site.node_index in n.refs]

    # -- execution ------------------------------------------------------------

    def gate_mask(self, i):
        """The mask node i's output is multiplied by, or None: its own site mask times, for a batch norm,
        the mask of the site it reads (gates), so masks compose where a batch norm is a site too."""
        m = self.masks.get(i)
        if self.nodes[i].kind == "batch_norm" and (read := self.masks.get(self.nodes[i].refs[0])) is not None:
            m = read if m is None else m * read
        return m

    def _array(self, x, what):
        """x as an array of the model's dtype, if it is real and numeric; else InputError."""
        if np.iscomplexobj(x):
            raise InputError(f"{what} must be real, got complex values")
        try:
            return np.asarray(x, dtype=self.dtype)
        except (TypeError, ValueError) as e:
            raise InputError(f"{what} must be numeric: {e}") from None

    def forward(self, x, mode="train", record=True):
        """Run the graph; returns (logits, record).

        In train mode batch norm uses batch statistics and updates its running
        estimates; eval mode uses the running estimates.  The record captures
        the (post-mask) output of every node as record.values[i]; a prunable
        site's pre-activation is record.values[site.node_index].  With
        record=False it returns (logits, None) from a record-free run (_run).
        It runs check first: a node, site or mask changed to break a rule is InputError.
        """
        if mode not in ("train", "eval"):
            raise InputError(f"mode must be 'train' or 'eval', got {mode!r}")
        data.check(record, data.FLAG, "record")
        x = self._array(x, "input")
        if x.shape[1:] != self.input_shape:
            raise ShapeError(f"input shape {x.shape[1:]} != model input {self.input_shape}")
        if len(x) == 0:
            raise InputError("forward needs at least one example")
        self.check()
        self._serial += 1
        record = ForwardRecord(self, self._serial) if record else None
        return self._run([] if record is None else record.values, record and record.caches, x, mode), record

    def _run(self, values, caches, x, mode):
        """Run the nodes from len(values) on, appending their outputs and caches; returns the last output.

        With caches None it is record-free: it keeps no caches and drops each value, its own buffer,
        after its last reader (an unread value at once), which may overwrite it (cache["inplace"]) if it
        is the reader's first ref and this run made it: never the model input or a value the caller passed in."""
        start, end = len(values), len(self.nodes) - 1
        last = {r: i for i, node in enumerate(self.nodes) for r in node.refs} if caches is None else {}
        for i in range(start, end + 1):
            node = self.nodes[i]
            xs = [x if r == INPUT else values[r] for r in node.refs]
            cache = {"inplace": True} if caches is None and start <= node.refs[0] and last[node.refs[0]] == i else {}
            out = node.forward(xs, mode, cache)
            m = self.gate_mask(i)
            if m is not None:
                out *= _row(m, out)  # in place: a gate's output is its own array or a dead input
            values.append(out)
            if caches is not None:
                caches.append(cache)
                continue
            for v in (*node.refs, i):
                if 0 <= v < end and last.get(v, v) == i:
                    values[v] = None
        return values[-1]

    def backward(self, record, output_grad, taps=None):
        """Back-propagate an arbitrary output gradient (any array of the
        logits shape) through this model's latest record.  It reads the taps,
        node indices, or without taps every node with parameters, whose
        gradients it then accumulates on the nodes (caller zeroes between
        steps).  A node runs only if it owes a parameter gradient or a ref of
        it reaches a read node, and its output gradient is dropped once it has
        run.  With taps it leaves node.grads untouched and returns {tap: the
        gradient with respect to its output, taken before its mask}, zeros at a
        tap no gradient reaches; without, it returns None.
        """
        if not isinstance(record, ForwardRecord) or record.model is not self:
            raise StateError("backward needs a record of this model's recorded forward")
        if record.serial != self._serial:
            raise StateError("record is stale: backward must follow the forward that produced it")
        output_grad = self._array(output_grad, "output_grad")
        logits = record.values[-1]
        if output_grad.shape != logits.shape:
            raise ShapeError(f"output_grad shape {output_grad.shape} != logits shape {logits.shape}")
        params, tapped = taps is None, {}
        if not params:
            taps = list(taps) if isinstance(taps, Iterable) else taps
            tapped = dict.fromkeys(data.check(taps, data.list_of(data.integer(0, len(self.nodes) - 1)), "taps"))
        reach = []  # whether node i's output gradient flows to a read node: it is one, or reads one that does
        for i, node in enumerate(self.nodes):
            reach.append((i in tapped if tapped else bool(node.params)) or any(r != INPUT and reach[r] for r in node.refs))
        buffers = [None] * len(self.nodes)
        buffers[-1] = output_grad
        for i in range(len(self.nodes) - 1, -1, -1):
            g, buffers[i] = buffers[i], None
            node = self.nodes[i]
            if i in tapped:
                tapped[i] = np.zeros_like(record.values[i]) if g is None else g
            takes = [r != INPUT and reach[r] for r in node.refs]  # never the model input's gradient
            if g is None or not (params and node.params or any(takes)):
                continue
            m = self.gate_mask(i)
            if m is not None:
                g = g * _row(m, g)  # not in place: a residual add hands one gradient to both refs
            gins = node.backward(g, {**record.caches[i], "params": params, "inputs": any(takes)})
            for r, gr, take in zip(node.refs, gins, takes):
                if take:
                    buffers[r] = gr if buffers[r] is None else buffers[r] + gr
        return tapped or None


MODEL = data.instance(Model, "a Model")


def softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits, labels):
    """Mean cross entropy over a batch of [N, K] logits (else ShapeError); returns (loss, grad_logits).

    grad_logits = (softmax - onehot) / N, the gradient of the mean loss.
    """
    if np.ndim(logits) != 2:
        raise ShapeError(f"logits must be [N, K], got {np.shape(logits)}")
    n, k = logits.shape
    labels = data.check_labels(labels, n, k)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(total[:, 0]) - shifted[np.arange(n), labels]))
    grad = e / total
    grad[np.arange(n), labels] -= 1
    return loss, grad / n


class GradCheckReport:
    def __init__(self, tolerance):
        self.tolerance = tolerance
        self.max_rel_error = 0.0
        self.failing_node = None
        self.entries = []  # (node name, param name, max rel error)

    @property
    def passed(self):
        return self.max_rel_error < self.tolerance

    def add(self, node_name, param_name, err):
        self.entries.append((node_name, param_name, err))
        if err > self.max_rel_error:
            self.max_rel_error = err
            if err >= self.tolerance:
                self.failing_node = node_name

    def __repr__(self):
        status = "pass" if self.passed else f"FAIL at node {self.failing_node!r}"
        return f"GradCheckReport(max_rel_error={self.max_rel_error:.3e}, {status})"


DENOM_FLOOR = 1e-4


def gradient_check(model, x, output_grad=None, tolerance=1e-6, eps=1e-5, mode="eval"):
    """Compare every parameter partial against central finite differences.

    The scalar objective is <logits, output_grad>.  Requires a float64 model.
    Relative error uses denominator max(|analytic|, |numeric|, 1e-4): float64
    central differences at this eps carry roughly 1e-11 of absolute noise, so
    partials below 1e-4 are certified absolutely (to tolerance * 1e-4) rather
    than relatively.  Defaults to eval mode: train mode couples every position
    of a channel through the batch statistics, which makes the finite
    differences far more likely to step across a ReLU kink.  Batch norm
    running statistics are restored afterwards, so the check is side-effect
    free in either mode.  A parameter of node k re-runs only nodes k onward.
    x and output_grad follow forward's input rule, and tolerance and eps must be
    finite numbers > 0; else InputError.
    """
    if model.dtype != np.float64:
        raise InputError("gradient_check requires a float64 model")
    x = model._array(x, "x")
    output_grad = None if output_grad is None else model._array(output_grad, "output_grad")
    data.check(tolerance, data.POSITIVE, "tolerance")
    data.check(eps, data.POSITIVE, "eps")
    saved_state = [{k: v.copy() for k, v in node.state.items()} for node in model.nodes]

    model.zero_grads()
    logits, record = model.forward(x, mode)
    if output_grad is None:
        output_grad = np.random.default_rng(20240817).standard_normal(logits.shape)
    model.backward(record, output_grad)

    def objective(k):  # replay nodes k onward, record-free, on the unperturbed values of the nodes before k
        return float(np.sum(model._run(record.values[:k], None, x, mode) * output_grad))

    report = GradCheckReport(tolerance)
    for k, node, pname, param in model.parameters():
        analytic = node.grads[pname]
        flat = param.reshape(-1)
        worst = 0.0
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            fp = objective(k)
            flat[j] = orig - eps
            fm = objective(k)
            flat[j] = orig
            numeric = (fp - fm) / (2 * eps)
            a = analytic.reshape(-1)[j]
            err = abs(a - numeric) / max(abs(a), abs(numeric), DENOM_FLOOR)
            worst = max(worst, err)
        report.add(node.name, pname, worst)

    for node, st in zip(model.nodes, saved_state):
        node.state.update(st)
    model.zero_grads()
    return report


# -- reference architectures --------------------------------------------------


def _init_params(model, seed):
    """Kaiming-uniform fan-in for conv/linear weights, zeros for biases,
    identity for batch norm; deterministic in node order for a fixed seed."""
    rng = np.random.default_rng(seed)
    for node in model.nodes:
        if "weight" not in node.params:
            continue
        w = node.params["weight"]
        bound = np.sqrt(6.0 / w[0].size)  # the fan-in: one output channel's weights
        node.params["weight"] = rng.uniform(-bound, bound, size=w.shape).astype(model.dtype)
        if "bias" in node.params:
            node.params["bias"] = np.zeros(node.params["bias"].shape, model.dtype)
    return model


def build_mlp_small(num_classes=4, image_size=16, in_channels=1, seed=0):
    """Two hidden layers (32, 16) on flattened pixels."""
    nodes = [
        Flatten("flatten", [INPUT]),
        Linear("fc1", [0], in_channels * image_size * image_size, 32),
        ReLU("relu1", [1]),
        Linear("fc2", [2], 32, 16),
        ReLU("relu2", [3]),
        Linear("fc_out", [4], 16, num_classes),
    ]
    sites = [Site("fc1", 1, 32), Site("fc2", 3, 16)]
    return _init_params(Model(nodes, (in_channels, image_size, image_size), num_classes, sites), seed)


def build_cnn_small(num_classes=4, image_size=16, in_channels=1, seed=0):
    """VGG-style stack: three conv+BN+ReLU blocks with max pooling; the walk refuses image sizes not divisible by 8."""
    s = data.check(image_size, data.SIZE, "image_size") // 8
    nodes = [
        Conv2d("conv1", [INPUT], in_channels, 16, 3, padding=1, bias=False),
        BatchNorm("bn1", [0], 16),
        ReLU("relu1", [1]),
        MaxPool("pool1", [2]),
        Conv2d("conv2", [3], 16, 24, 3, padding=1, bias=False),
        BatchNorm("bn2", [4], 24),
        ReLU("relu2", [5]),
        MaxPool("pool2", [6]),
        Conv2d("conv3", [7], 24, 32, 3, padding=1, bias=False),
        BatchNorm("bn3", [8], 32),
        ReLU("relu3", [9]),
        MaxPool("pool3", [10]),
        Flatten("flatten", [11]),
        Linear("fc_out", [12], 32 * s * s, num_classes),
    ]
    sites = [Site("conv1", 0, 16), Site("conv2", 4, 24), Site("conv3", 8, 32)]
    return _init_params(Model(nodes, (in_channels, image_size, image_size), num_classes, sites), seed)


def build_cnn_residual(num_classes=4, image_size=16, in_channels=1, seed=0):
    """A stem, one residual block, and a widening tail conv.

    Channels feeding the residual add (the stem via the skip path and the
    block's last conv) are non-prunable; the block interior and the tail
    conv are prunable sites.  The walk refuses an image_size not a multiple of 4.
    """
    s = data.check(image_size, data.SIZE, "image_size") // 4
    nodes = [
        Conv2d("conv1", [INPUT], in_channels, 16, 3, padding=1, bias=False),
        BatchNorm("bn1", [0], 16),
        ReLU("relu1", [1]),
        AvgPool("pool1", [2]),
        Conv2d("conv2", [3], 16, 16, 3, padding=1, bias=False),
        BatchNorm("bn2", [4], 16),
        ReLU("relu2", [5]),
        Conv2d("conv3", [6], 16, 16, 3, padding=1, bias=False),
        BatchNorm("bn3", [7], 16),
        ResidualAdd("add", [8, 3]),
        ReLU("relu3", [9]),
        Conv2d("conv4", [10], 16, 24, 3, padding=1, bias=False),
        BatchNorm("bn4", [11], 24),
        ReLU("relu4", [12]),
        AvgPool("pool2", [13]),
        Flatten("flatten", [14]),
        Linear("fc_out", [15], 24 * s * s, num_classes),
    ]
    sites = [Site("conv2", 4, 16), Site("conv4", 11, 24)]
    return _init_params(Model(nodes, (in_channels, image_size, image_size), num_classes, sites), seed)


MODEL_BUILDERS = {
    "mlp_small": build_mlp_small,
    "cnn_small": build_cnn_small,
    "cnn_residual": build_cnn_residual,
}
