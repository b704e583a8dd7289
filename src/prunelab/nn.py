"""Layer graph runtime.

A :class:`Model` is a topologically ordered list of nodes (conv, linear,
batch norm, relu, pooling, residual add, flatten).  Node ``refs`` name the
producer node indices; the constant :data:`INPUT` (-1) refers to the model
input.  Forward execution returns the logits plus a :class:`ForwardRecord`
holding each node's output values[i] and layer cache caches[i]; a prunable
site's pre-activation is values[site.node_index].  Backward accepts an
arbitrary output gradient (it does not have to come from a loss),
accumulates parameter gradients on the nodes unless asked not to, and stores
each node's output gradient as grads[i] on the record; it returns nothing.

A prunable site is the output of a conv/linear node, taken before batch norm
and before the nonlinearity.  Channel masks attached to the model (see
``prunelab.pruning``) are applied as an elementwise multiply right after the
node computes, so masked channels contribute exactly zero downstream and, by
the chain rule, their parameters receive zero gradient.

A Model checks its structure when built, raising InputError unless each node
reads ``arity`` refs, each to an earlier node or the input, site ids are
unique, and each site names a node in range whose ``channels`` it matches.
:meth:`Model.check_masks`, run by every forward and before masks are
applied, compacted or saved, is the one mask rule: a mask sits on a site's
gate node (:meth:`Model.gates`), has one entry per channel of that node and
holds only 0s and 1s; any other mask is InputError.
"""

import copy

import numpy as np

from . import data
from . import tensor as T
from .errors import InputError, ShapeError, StateError

INPUT = -1


def _row(param, x):
    """A per-channel vector repeated over the spatial positions of one example
    of x: numpy runs a pass against it over x as contiguous (N, C*H*W) rows."""
    return np.repeat(param, x[0].size // x.shape[1]).reshape(x.shape[1:])


class Node:
    """Base graph node. Subclasses define kind, params, forward and backward.

    backward(grad, cache) accumulates parameter gradients and returns one input
    gradient per ref, unless Model.backward's switches in the cache say no:
    cache["params"] false skips the former, cache["inputs"] false lets it return None."""

    kind = "base"
    arity = 1  # the number of refs the node reads
    channels = None  # output channel count; None where the node keeps its input's width

    def __init__(self, name, refs):
        self.name = name
        self.refs = list(refs)
        self.params = {}
        self.grads = {}
        self.state = {}

    def param_order(self):
        """Parameter names in checkpoint blob order (trainable, then state)."""
        return list(self.params) + list(self.state)

    def zero_grads(self):
        for k, v in self.params.items():
            self.grads[k] = np.zeros_like(v)

    def hyper(self):
        return {}

    def forward(self, xs, mode, cache):
        raise NotImplementedError

    def backward(self, grad, cache):
        raise NotImplementedError


class Conv2d(Node):
    kind = "conv2d"

    def __init__(self, name, refs, in_channels, out_channels, kernel, stride=1, padding=0, bias=True):
        super().__init__(name, refs)
        self.in_channels = in_channels
        self.channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.has_bias = bias
        self.params["weight"] = np.zeros((out_channels, in_channels, kernel, kernel), np.float32)
        if bias:
            self.params["bias"] = np.zeros(out_channels, np.float32)
        self.zero_grads()

    def hyper(self):
        return {
            "in_channels": self.in_channels,
            "out_channels": self.channels,
            "kernel": self.kernel,
            "stride": self.stride,
            "padding": self.padding,
            "bias": self.has_bias,
        }

    def forward(self, xs, mode, cache):
        x = xs[0]
        out = T.conv2d(x, self.params["weight"], self.stride, self.padding)
        if self.has_bias:
            out = out + self.params["bias"].reshape(1, -1, 1, 1)
        cache["x"] = x
        return out

    def backward(self, grad, cache):
        x, w = cache["x"], self.params["weight"]
        if cache.get("params", True):
            self.grads["weight"] += T.conv2d_grad_weight(x, w, grad, self.stride, self.padding)
            if self.has_bias:
                self.grads["bias"] += grad.sum(axis=(0, 2, 3))
        return [T.conv2d_grad_input(x, w, grad, self.stride, self.padding) if cache.get("inputs", True) else None]


class Linear(Node):
    kind = "linear"

    def __init__(self, name, refs, in_features, out_features, bias=True):
        super().__init__(name, refs)
        self.in_features = in_features
        self.channels = out_features
        self.has_bias = bias
        self.params["weight"] = np.zeros((out_features, in_features), np.float32)
        if bias:
            self.params["bias"] = np.zeros(out_features, np.float32)
        self.zero_grads()

    def hyper(self):
        return {"in_features": self.in_features, "out_features": self.channels, "bias": self.has_bias}

    def forward(self, xs, mode, cache):
        x = xs[0]
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(f"linear expects [N, {self.in_features}], got {x.shape}")
        cache["x"] = x
        out = x @ self.params["weight"].T
        if self.has_bias:
            out = out + self.params["bias"]
        return out

    def backward(self, grad, cache):
        if cache.get("params", True):
            self.grads["weight"] += grad.T @ cache["x"]
            if self.has_bias:
                self.grads["bias"] += grad.sum(axis=0)
        return [grad @ self.params["weight"] if cache.get("inputs", True) else None]


class BatchNorm(Node):
    """Per-channel batch normalization over (N,) or (N, H, W).

    Train mode normalizes with batch statistics (biased variance) and updates
    the running estimates with momentum; eval mode normalizes with the running
    estimates.  The train-mode backward is the full batch-statistics adjoint,
    so dgamma/dbeta are exact in both modes.  Each elementwise pass runs on x
    viewed as (N, C*H*W) rows, 32 examples at a time (``tensor.blocks``).  The
    cache holds x, not xhat: backward recomputes xhat with the same passes
    when it needs it, in train mode or to accumulate dgamma.
    """

    kind = "batch_norm"

    def __init__(self, name, refs, channels, eps=1e-5, momentum=0.9):
        super().__init__(name, refs)
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.params["gamma"] = np.ones(channels, np.float32)
        self.params["beta"] = np.zeros(channels, np.float32)
        self.state["running_mean"] = np.zeros(channels, np.float32)
        self.state["running_var"] = np.ones(channels, np.float32)
        self.zero_grads()

    def hyper(self):
        return {"channels": self.channels, "eps": self.eps, "momentum": self.momentum}

    def _axes(self, x):
        if x.ndim == 2:
            return (0,)
        if x.ndim == 4:
            return (0, 2, 3)
        raise ShapeError(f"batch norm expects 2-d or 4-d input, got {x.shape}")

    def forward(self, xs, mode, cache):
        x = xs[0]
        axes = self._axes(x)
        if x.shape[1] != self.channels:
            raise ShapeError(f"batch norm has {self.channels} channels, input {x.shape}")
        if mode == "train":
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            m = self.momentum
            self.state["running_mean"] = (m * self.state["running_mean"] + (1 - m) * mean).astype(x.dtype)
            self.state["running_var"] = (m * self.state["running_var"] + (1 - m) * var).astype(x.dtype)
        else:
            mean = self.state["running_mean"]
            var = self.state["running_var"]
        inv_std = 1.0 / np.sqrt(var + x.dtype.type(self.eps))
        cache.update(x=x, mean=mean, inv_std=inv_std, axes=axes, mode=mode)
        mean_r, inv_r, gamma_r, beta_r = (_row(v, x) for v in (mean, inv_std, self.params["gamma"], self.params["beta"]))
        out = np.empty(x.shape, np.result_type(x, mean_r, inv_r, gamma_r, beta_r))
        for blk in T.blocks(len(x)):
            o = np.subtract(x[blk], mean_r, out=out[blk])
            o *= inv_r
            o *= gamma_r
            o += beta_r
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
        return [(dxhat - _row(s1, grad) / m - xhat * _row(s2, grad) / m) * _row(inv_std, grad)]


class ReLU(Node):
    """Caches its input; backward passes grad where the input is positive."""

    kind = "relu"

    def forward(self, xs, mode, cache):
        x = xs[0]
        cache["x"] = x
        return np.maximum(x, 0)

    def backward(self, grad, cache):
        return [grad * (cache["x"] > 0)]


class _Pool(Node):
    def __init__(self, name, refs, kernel=2):
        super().__init__(name, refs)
        self.kernel = kernel

    def hyper(self):
        return {"kernel": self.kernel}

    def _windows(self, x):
        n, c, h, w = x.shape
        k = self.kernel
        if h % k or w % k:
            raise ShapeError(f"pool kernel {k} does not divide spatial extents of {x.shape}")
        return n, c, h // k, w // k, k


class AvgPool(_Pool):
    """Sums each window row left to right over the strided corners, then the
    rows top to bottom, then divides by k^2: the order of numpy's mean over a
    window's two axes, so the output bytes equal it.  An input one window wide
    keeps that mean, which then sums each window's k^2 values in one run."""

    kind = "avg_pool"

    def forward(self, xs, mode, cache):
        x = xs[0]
        n, c, ho, wo, k = self._windows(x)
        cache["in_shape"] = x.shape
        if wo == 1:
            return x.reshape(n, c, ho, k, wo, k).mean(axis=(3, 5))
        for i in range(k):
            row = x[:, :, i::k, ::k] + 0.0  # numpy's sum starts at +0.0: a window of -0.0 averages to +0.0
            for j in range(1, k):
                row += x[:, :, i::k, j::k]
            out = row if i == 0 else np.add(out, row, out=out)
        out /= k * k
        return out

    def backward(self, grad, cache):
        n, c, h, w = cache["in_shape"]
        k = self.kernel
        g = grad / grad.dtype.type(k * k)
        g = np.broadcast_to(g[:, :, :, None, :, None], (n, c, h // k, k, w // k, k))
        return [g.reshape(n, c, h, w)]


class MaxPool(_Pool):
    """Running maximum over the k^2 strided corners x[:, :, i::k, j::k] of the
    k x k windows.  The first maximum in row-major order wins a tie, in value
    and in gradient; a window holding a NaN outputs NaN and passes no gradient."""

    kind = "max_pool"

    def _corners(self, x):
        k = self._windows(x)[-1]
        return [(i, j, x[:, :, i::k, j::k]) for i in range(k) for j in range(k)]

    def forward(self, xs, mode, cache):
        x = xs[0]
        corners = self._corners(x)
        out = corners[0][2].copy()
        for _, _, corner in corners[1:]:
            np.maximum(corner, out, out=out)  # equal operands (0.0, -0.0) give the second: the earlier corner
        cache["x"], cache["out"] = x, out
        return out

    def backward(self, grad, cache):
        out = cache["out"]
        k = self.kernel
        # in the unsigned-integer view, bits * hit copies a gradient exactly and
        # writes +0.0 elsewhere; a float product would write -0.0 or NaN there
        bits = grad.view(f"u{grad.itemsize}")
        gx_bits = np.empty(cache["x"].shape, bits.dtype)
        free = np.ones(out.shape, bool)
        for i, j, corner in self._corners(cache["x"]):
            hit = corner == out
            hit &= free
            free ^= hit
            gx_bits[:, :, i::k, j::k] = bits * hit
        return [gx_bits.view(grad.dtype)]


class ResidualAdd(Node):
    kind = "residual_add"
    arity = 2

    def forward(self, xs, mode, cache):
        a, b = xs
        if a.shape != b.shape:
            raise ShapeError(f"residual add inputs differ: {a.shape} vs {b.shape}")
        return a + b

    def backward(self, grad, cache):
        return [grad, grad]


class Flatten(Node):
    kind = "flatten"

    def forward(self, xs, mode, cache):
        x = xs[0]
        cache["in_shape"] = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad, cache):
        return [grad.reshape(cache["in_shape"])]


NODE_KINDS = {
    cls.kind: cls for cls in (Conv2d, Linear, BatchNorm, ReLU, AvgPool, MaxPool, ResidualAdd, Flatten)
}


def make_node(kind, name, refs, hyper):
    """Construct a node from its checkpoint descriptor."""
    if kind not in NODE_KINDS:
        raise InputError(f"unknown node kind {kind!r}")
    return NODE_KINDS[kind](name, refs, **hyper)


class Site:
    """A prunable channel-bearing location: the output of one node."""

    def __init__(self, site_id, node_index, channels):
        self.site_id = site_id
        self.node_index = node_index
        self.channels = channels

    def __repr__(self):
        return f"Site({self.site_id!r}, node={self.node_index}, channels={self.channels})"


class ForwardRecord:
    def __init__(self, serial):
        self.serial = serial
        self.values = []
        self.caches = []
        self.grads = []


class Model:
    """A node graph, its prunable sites, and channel masks {node index: keep
    vector} that sit on the sites' gate nodes (see gates)."""

    def __init__(self, nodes, input_shape, num_classes, sites=None, non_prunable=None, dtype=np.float32):
        self.nodes = list(nodes)
        self.input_shape = tuple(input_shape)
        self.num_classes = num_classes
        self.sites = list(sites or [])
        self.non_prunable = dict(non_prunable or {})
        self.dtype = np.dtype(dtype).type
        self.masks = {}
        self._serial = 0
        for i, node in enumerate(self.nodes):
            if len(node.refs) != node.arity:
                raise InputError(f"node {i} ({node.name}): {node.kind} takes {node.arity} refs, got {node.refs}")
            for r in node.refs:
                if r != INPUT and not 0 <= r < i:
                    raise InputError(f"node {i} ({node.name}) refs node {r}, which does not precede it")
        for s in self.sites:
            if s.node_index not in range(len(self.nodes)):
                raise InputError(f"site {s.site_id!r}: node index {s.node_index} not in [0, {len(self.nodes)})")
            width = self.nodes[s.node_index].channels
            if s.channels != width:
                raise InputError(f"site {s.site_id!r}: {s.channels} channels, node {s.node_index} has {width}")
        names = [s.site_id for s in self.sites]
        if len(set(names)) != len(names):
            raise InputError("duplicate site ids")

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
        out.dtype = np.dtype(dtype).type
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

    def check_masks(self):
        """Raise InputError unless every mask sits on a gate node, fits its channel count and holds only 0s and 1s."""
        gated = {i for s in self.sites for i in self.gates(s)} if self.masks else ()
        for i, m in self.masks.items():
            if not data.integer(0, len(self.nodes) - 1)[0](i):  # True and 0.0 pass a range() test
                raise InputError(f"mask on node {i!r}: no such node")
            node = self.nodes[i]
            if i not in gated:
                raise InputError(f"mask on node {i}: node {i} ({node.name}) is a {node.kind} node that gates no site")
            if np.shape(m) != (node.channels,):
                raise InputError(f"mask on node {i}: shape {np.shape(m)}, node has {node.channels} channels")
            if not np.all((m == 0) | (m == 1)):
                raise InputError(f"mask on node {i} holds values other than 0 and 1")

    def gates(self, site):
        """Indices of the nodes whose masks gate a site's channels: the site
        node, then every batch norm that reads it (the batch-norm gate of
        Molchanov et al., CVPR 2019)."""
        return [site.node_index] + [i for i, n in enumerate(self.nodes)
                                    if n.kind == "batch_norm" and site.node_index in n.refs]

    # -- execution ------------------------------------------------------------

    def _mask_for(self, i, x):
        m = self.masks.get(i)
        return None if m is None else _row(m.astype(x.dtype), x)

    def forward(self, x, mode="train"):
        """Run the graph; returns (logits, record).

        In train mode batch norm uses batch statistics and updates its running
        estimates; eval mode uses the running estimates.  The record captures
        the (post-mask) output of every node as record.values[i]; a prunable
        site's pre-activation is record.values[site.node_index].
        """
        if mode not in ("train", "eval"):
            raise InputError(f"mode must be 'train' or 'eval', got {mode!r}")
        if np.iscomplexobj(x):
            raise InputError("input must be real, got complex values")
        try:
            x = np.asarray(x, dtype=self.dtype)
        except (TypeError, ValueError) as e:
            raise InputError(f"input must be numeric: {e}") from None
        if x.shape[1:] != self.input_shape:
            raise ShapeError(f"input shape {x.shape[1:]} != model input {self.input_shape}")
        if len(x) == 0:
            raise InputError("forward needs at least one example")
        self.check_masks()
        self._serial += 1
        record = ForwardRecord(self._serial)
        for i, node in enumerate(self.nodes):
            xs = [x if r == INPUT else record.values[r] for r in node.refs]
            cache = {}
            try:
                out = node.forward(xs, mode, cache)
            except ShapeError as e:
                raise ShapeError(f"node {i} ({node.name}): {e}") from e
            m = self._mask_for(i, out)
            if m is not None:
                out *= m  # in place: a gate node's output is its own new array
            record.values.append(out)
            record.caches.append(cache)
        logits = record.values[-1]
        if logits.ndim != 2 or logits.shape[1] != self.num_classes:
            raise ShapeError(f"final node produced {logits.shape}, expected [N, {self.num_classes}]")
        return logits, record

    def backward(self, record, output_grad, params=True):
        """Back-propagate an arbitrary output gradient through the record.

        Accumulates parameter gradients on the nodes (caller zeroes between
        steps) and returns nothing; with params=False it computes none and
        leaves node.grads untouched.  output_grad is any array of the logits
        shape; it is not required to come from a loss.  The gradient with
        respect to every node's output, taken before that node's mask, is
        kept on the record as record.grads[i], beside record.values[i].
        """
        if record.serial != self._serial:
            raise StateError("record is stale: backward must follow the forward that produced it")
        output_grad = np.asarray(output_grad, dtype=self.dtype)
        logits = record.values[-1]
        if output_grad.shape != logits.shape:
            raise ShapeError(f"output_grad shape {output_grad.shape} != logits shape {logits.shape}")
        buffers = [None] * len(self.nodes)
        buffers[-1] = output_grad
        for i in range(len(self.nodes) - 1, -1, -1):
            g = buffers[i]
            if g is None:
                continue
            m = self._mask_for(i, g)
            if m is not None:
                g = g * m  # not in place: a residual add hands one gradient to both refs
            node = self.nodes[i]
            inputs = any(r != INPUT for r in node.refs)  # the model input's gradient is never read
            gins = node.backward(g, {**record.caches[i], "params": params, "inputs": inputs})
            for r, gr in zip(node.refs, gins):
                if r == INPUT:
                    continue
                buffers[r] = gr if buffers[r] is None else buffers[r] + gr
        record.grads = [np.zeros_like(v) if g is None else g for g, v in zip(buffers, record.values)]


def softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits, labels):
    """Mean cross entropy over the batch; returns (loss, grad_logits).

    grad_logits = (softmax - onehot) / N, the gradient of the mean loss.
    """
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
    free in either mode.
    """
    if model.dtype != np.float64:
        raise InputError("gradient_check requires a float64 model")
    x = np.asarray(x, dtype=np.float64)
    saved_state = [{k: v.copy() for k, v in node.state.items()} for node in model.nodes]

    model.zero_grads()
    logits, record = model.forward(x, mode)
    if output_grad is None:
        output_grad = np.random.default_rng(20240817).standard_normal(logits.shape)
    model.backward(record, output_grad)

    def objective():
        out, _ = model.forward(x, mode)
        return float(np.sum(out * output_grad))

    report = GradCheckReport(tolerance)
    for _, node, pname, param in model.parameters():
        analytic = node.grads[pname]
        flat = param.reshape(-1)
        worst = 0.0
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            fp = objective()
            flat[j] = orig - eps
            fm = objective()
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
        if node.kind == "conv2d":
            fan_in = node.in_channels * node.kernel * node.kernel
        elif node.kind == "linear":
            fan_in = node.in_features
        else:
            continue
        bound = np.sqrt(6.0 / fan_in)
        w = rng.uniform(-bound, bound, size=node.params["weight"].shape)
        node.params["weight"] = w.astype(model.dtype)
        if node.has_bias:
            node.params["bias"] = np.zeros(node.params["bias"].shape, model.dtype)
    return model


def build_mlp_small(num_classes=4, image_size=16, in_channels=1, seed=0):
    """Two hidden layers (32, 16) on flattened pixels."""
    d = in_channels * image_size * image_size
    nodes = [
        Flatten("flatten", [INPUT]),
        Linear("fc1", [0], d, 32),
        ReLU("relu1", [1]),
        Linear("fc2", [2], 32, 16),
        ReLU("relu2", [3]),
        Linear("fc_out", [4], 16, num_classes),
    ]
    sites = [Site("fc1", 1, 32), Site("fc2", 3, 16)]
    model = Model(
        nodes,
        (in_channels, image_size, image_size),
        num_classes,
        sites,
        non_prunable={5: "classifier output"},
    )
    return _init_params(model, seed)


def build_cnn_small(num_classes=4, image_size=16, in_channels=1, seed=0):
    """VGG-style stack: three conv+BN+ReLU blocks with max pooling."""
    s = image_size // 8
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
    model = Model(
        nodes,
        (in_channels, image_size, image_size),
        num_classes,
        sites,
        non_prunable={13: "classifier output"},
    )
    return _init_params(model, seed)


def build_cnn_residual(num_classes=4, image_size=16, in_channels=1, seed=0):
    """A stem, one residual block, and a widening tail conv.

    Channels feeding the residual add (the stem via the skip path and the
    block's last conv) are non-prunable; the block interior and the tail
    conv are prunable sites.
    """
    s = image_size // 4
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
    model = Model(
        nodes,
        (in_channels, image_size, image_size),
        num_classes,
        sites,
        non_prunable={
            0: "feeds the residual add via the skip path",
            7: "feeds the residual add",
            16: "classifier output",
        },
    )
    return _init_params(model, seed)


def build_reference_models(num_classes=4, image_size=16, in_channels=1, seed=0):
    """The three fixed reference architectures used throughout the test suite."""
    return {name: build(num_classes, image_size, in_channels, seed) for name, build in MODEL_BUILDERS.items()}


MODEL_BUILDERS = {
    "mlp_small": build_mlp_small,
    "cnn_small": build_cnn_small,
    "cnn_residual": build_cnn_residual,
}
