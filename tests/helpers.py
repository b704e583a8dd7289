"""Shared test utilities: the reference models, finite differences, relative
error, file mutation, reference kernels, scores and data, and mask and plan queries."""

import json
import struct

import numpy as np

from prunelab import importance as imp
from prunelab import tensor
from prunelab.data import GLYPHS, SPLITS
from prunelab.errors import InputError, StateError
from prunelab.nn import INPUT, MODEL_BUILDERS, BatchNorm, Conv2d, Flatten, Linear, Model, Site
from prunelab.pruning import PruneMask

REL_FLOOR = 1e-8


def build_reference_models(num_classes=4, image_size=16, in_channels=1, seed=0):
    """The three fixed reference architectures used throughout the test suite."""
    return {name: build(num_classes, image_size, in_channels, seed) for name, build in MODEL_BUILDERS.items()}


def conv_bn_probe_model(channels, seed, width=4):
    """conv -> bn -> flatten -> linear with sites at BOTH the conv output and
    the bn output; the bn site exists to observe the signal after the gate."""
    rng = np.random.default_rng(seed)
    nodes = [
        Conv2d("conv", [INPUT], 1, channels, 3, padding=1, bias=False),
        BatchNorm("bn", [0], channels),
        Flatten("flat", [1]),
        Linear("fc", [2], channels * width * width, 3),
    ]
    nodes[0].params["weight"] = rng.normal(size=(channels, 1, 3, 3), scale=0.5)
    nodes[1].params["gamma"] = rng.uniform(0.5, 2.0, size=channels)
    nodes[1].params["beta"] = np.zeros(channels)
    nodes[1].state["running_mean"] = rng.normal(size=channels, scale=0.3)
    nodes[1].state["running_var"] = rng.uniform(0.5, 2.0, size=channels)
    nodes[3].params["weight"] = rng.normal(size=(3, channels * width * width), scale=0.3)
    nodes[3].params["bias"] = np.zeros(3)
    model = Model(
        nodes,
        (1, width, width),
        3,
        [Site("conv", 0, channels), Site("bn", 1, channels)],
        dtype=np.float64,
    )
    for node in model.nodes:
        node.zero_grads()
    return model


def rel_err(analytic, numeric, floor=REL_FLOOR):
    """Elementwise relative error with a floor on the denominator."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return np.abs(a - n) / denom


def central_diff(f, x, eps=1e-5):
    """Central finite differences of scalar f at every element of x.

    Returns an array of x's shape.  f must not mutate x.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * eps)
    return grad


def max_pool_oracle(x, k):
    """Max pool by window argmax; returns (output, backward(grad)).

    Each k x k window is laid out as one row in row-major window order, and
    argmax picks its first maximum; the backward puts each output gradient
    at that position and +0.0 everywhere else.
    """
    n, c, h, w = x.shape
    ho, wo = h // k, w // k
    windows = x.reshape(n, c, ho, k, wo, k).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, ho, wo, k * k)
    idx = windows.argmax(axis=-1)

    def backward(grad):
        gw = np.zeros((n, c, ho, wo, k * k), grad.dtype)
        np.put_along_axis(gw, idx[..., None], grad[..., None], axis=-1)
        return gw.reshape(n, c, ho, wo, k, k).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)

    return np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0], backward


def conv2d_direct(x, w, stride=1, padding=0):
    """Reference convolution with explicit ascending-index loops.

    Slow; the independent oracle for ``tensor.conv2d``'s im2col route.
    """
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    ho = tensor.conv_output_size(h, kh, stride, padding)
    wo = tensor.conv_output_size(wd, kw, stride, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, f, ho, wo), dtype=x.dtype)
    for b in range(n):
        for o in range(f):
            for i in range(ho):
                for j in range(wo):
                    acc = x.dtype.type(0)
                    for ci in range(c):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[b, ci, i * stride + u, j * stride + v] * w[o, ci, u, v]
                    out[b, o, i, j] = acc
    return out


def im2col_padded(x, kh, kw, stride, padding):
    """Reference im2col: one slice copy per tap out of a zero-padded NCHW
    copy of x."""
    n, c, h, w = x.shape
    ho = tensor.conv_output_size(h, kh, stride, padding)
    wo = tensor.conv_output_size(w, kw, stride, padding)
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    xp[:, :, padding : padding + h, padding : padding + w] = x
    cols = np.empty((n, c, kh, kw, ho, wo), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
    return cols.reshape(n, c * kh * kw, ho * wo)


def col2im_padded(cols, x_shape, kh, kw, stride, padding):
    """Reference col2im: every tap added, in (i, j) order, into a zeroed
    padded NCHW buffer, whose interior is returned (a view when padded)."""
    n, c, h, w = x_shape
    ho = tensor.conv_output_size(h, kh, stride, padding)
    wo = tensor.conv_output_size(w, kw, stride, padding)
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    cols = cols.reshape(n, c, kh, kw, ho, wo)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += cols[:, :, i, j]
    return xp[:, :, padding : padding + h, padding : padding + w]


def conv2d_grad_input_einsum(x, w, grad_output, stride=1, padding=0):
    """Reference input adjoint: einsum(optimize=True) columns, folded back by
    ``col2im_padded``."""
    f, _, kh, kw = w.shape
    go = grad_output.reshape(len(x), f, -1)
    grad_cols = np.einsum("fc,nfp->ncp", w.reshape(f, -1), go, optimize=True)
    return col2im_padded(grad_cols, x.shape, kh, kw, stride, padding)


def conv2d_grad_weight_einsum(x, w, grad_output, stride=1, padding=0):
    """Reference weight adjoint: einsum(optimize=True) over columns built
    from x by ``im2col_padded``."""
    f, _, kh, kw = w.shape
    go = grad_output.reshape(len(x), f, -1)
    return np.einsum("nfp,ncp->fc", go, im2col_padded(x, kh, kw, stride, padding), optimize=True).reshape(w.shape)


def avg_pool_oracle(x, k):
    """Average pool as numpy's mean over each window's two axes."""
    n, c, h, w = x.shape
    return x.reshape(n, c, h // k, k, w // k, k).mean(axis=(3, 5))


def avg_pool_backward_oracle(grad, k):
    """Average-pool backward as grad / k^2 broadcast over each window through
    a 6-d view, reshaped (one copy) to the input's shape."""
    n, c, ho, wo = grad.shape
    g = grad / grad.dtype.type(k * k)
    return np.broadcast_to(g[:, :, :, None, :, None], (n, c, ho, k, wo, k)).reshape(n, c, ho * k, wo * k)


def batch_norm_oracle(x, gamma, beta, mean, var, eps, train):
    """Batch norm by per-channel operands broadcast as (1, C) or (1, C, 1, 1),
    the whole batch at once; returns (output, backward(grad) -> (dx, dgamma,
    dbeta)).  In train mode mean and var are ignored for the batch's own."""
    axes = (0,) if x.ndim == 2 else (0, 2, 3)

    def per_channel(v):
        return v.reshape((1, -1) + (1,) * (x.ndim - 2))

    if train:
        mean, var = x.mean(axis=axes), x.var(axis=axes)
    inv_std = 1.0 / np.sqrt(var + x.dtype.type(eps))
    xhat = (x - per_channel(mean)) * per_channel(inv_std)

    def backward(grad):
        dgamma, dbeta = (grad * xhat).sum(axis=axes), grad.sum(axis=axes)
        dxhat = grad * per_channel(gamma)
        if not train:
            return dxhat * per_channel(inv_std), dgamma, dbeta
        m = grad.size // grad.shape[1]
        s1 = dxhat.sum(axis=axes)
        s2 = (dxhat * xhat).sum(axis=axes)
        dx = (dxhat - per_channel(s1) / m - xhat * per_channel(s2) / m) * per_channel(inv_std)
        return dx, dgamma, dbeta

    return xhat * per_channel(gamma) + per_channel(beta), backward


def channel_signal_oracle(x, dx):
    """The product x*dx copied to float64, then summed over its spatial axes:
    the form ``importance.channel_signal`` had before it summed in float64 directly."""
    return (x * dx).astype(np.float64).sum(axis=tuple(range(2, x.ndim)))


def random_rows_oracle(seed, example_indices, width):
    """Reference random output-gradient rows: a new Generator(Philox) keyed
    by (seed, example index) for every row."""
    rows = np.empty((len(example_indices), width), np.float64)
    for j, idx in enumerate(example_indices):
        key = np.array([seed, int(idx)], dtype=np.uint64)
        rows[j] = np.random.Generator(np.random.Philox(key=key)).standard_normal(width)
    return rows


def generate_shapes_oracle(num_classes, per_class, image_size, noise, seed, split):
    """Reference glyph images and labels: each example's glyph drawn by its
    renderer and its noise drawn by rng.normal and added, one example at a
    time.  The byte oracle for ``data.generate_shapes``; nothing is checked."""
    rng = np.random.default_rng([seed, SPLITS.index(split)])
    m = num_classes * per_class
    images = np.zeros((m, 1, image_size, image_size), dtype=np.float32)
    labels = np.arange(m, dtype=np.int64) % num_classes
    for i in range(m):
        s = int(rng.integers(image_size // 2, image_size - 1))
        center = (image_size - s) // 2
        jitter = min(1, (image_size - s) // 2)
        r0 = center + int(rng.integers(-jitter, jitter + 1))
        c0 = center + int(rng.integers(-jitter, jitter + 1))
        value = rng.uniform(0.65, 1.0)
        t = max(2, s // 4)
        canvas = images[i, 0]
        GLYPHS[labels[i]][1](canvas[r0 : r0 + s, c0 : c0 + s], t, np.float32(value))
        if noise > 0:
            canvas += rng.normal(0.0, noise, canvas.shape).astype(np.float32)
    np.clip(images, 0.0, 1.0, out=images)
    return images, labels


def estimate_whole_batch(model, dataset, d, estimator, source, batch_size=32):
    """``importance.estimate`` with the network run on each whole batch at
    once: the byte oracle for estimate's blocks of 32.  dataset is an
    (images, labels) pair and nothing is checked."""
    images, labels = dataset
    tap = imp._ESTIMATOR_ROWS[estimator][0]
    taps = {s.site_id: tap(model, s) for s in model.sites}
    sites = [imp.PrunableSite(s.site_id, s.node_index, s.channels, (estimator,)) for s in model.sites]
    for start in range(0, d, batch_size):
        stop = min(start + batch_size, d)
        logits, record = model.forward(images[start:stop], "eval")
        batch_labels = labels[start:stop] if source.kind == imp.LOSS else None
        rows = imp._per_example_rows(source, logits, batch_labels, np.arange(start, stop))
        grads = model.backward(record, rows, taps=range(len(model.nodes)))  # a tap at every node
        signals = {site_id: imp.channel_signal(record.values[i], grads[i]) for site_id, i in taps.items()}
        imp.accumulate(sites, signals, estimator)
    return imp.finalize(sites, estimator, source, d)


def molchanov_group_score(node, per_example_grads):
    """Molchanov et al.'s group score of a conv/linear node from a stream of
    per-example parameter grads: the oracle for the molchanov_group estimator.

    The group of output channel c is row c of the weight (plus its bias):
    score[c] = (1/M) sum_n (sum_w w dw(n))^2 over that group.  Each stream
    element is a dict {param name: grad array} shaped like the node's params.
    """
    if "weight" not in node.params:
        raise InputError(f"molchanov_group needs a node with weights, got kind {node.kind!r}")
    weight = node.params["weight"].astype(np.float64)
    reduce_axes = tuple(range(1, weight.ndim))
    bias = node.params.get("bias")
    acc = np.zeros(weight.shape[0], np.float64)
    m = 0
    for grads in per_example_grads:
        gate = (weight * np.asarray(grads["weight"], np.float64)).sum(axis=reduce_axes)
        if bias is not None:
            gate = gate + bias.astype(np.float64) * np.asarray(grads["bias"], np.float64)
        acc += gate * gate
        m += 1
    if m == 0:
        raise StateError("molchanov_group: empty gradient stream")
    return acc / m


def all_keep(model):
    """The mask that keeps every channel of every site."""
    return PruneMask({s.site_id: np.ones(s.channels, dtype=bool) for s in model.sites})


def pruned_count(mask):
    return int(sum((~k).sum() for k in mask.keep.values()))


def pruned_channels(plan):
    """The (site_id, channel) pairs a plan prunes, in rank order."""
    return [(sid, ch) for _, sid, _, ch, _, pruned in plan.entries if pruned]


def rank_walk_oracle(table, p, per_layer_normalize=False):
    """(pruned, skipped) of a ranking walk that records each skip as it meets
    it: both lists of (site_id, channel) in rank order."""
    entries = list(table.entries)
    scores = [float(score) for _, _, _, score in entries]
    if per_layer_normalize:
        peak = {}
        for (site_id, _, _, _), score in zip(entries, scores):
            peak[site_id] = max(peak.get(site_id, 0.0), abs(score))
        scores = [s / peak[sid] if peak[sid] > 0 else s for (sid, _, _, _), s in zip(entries, scores)]
    survivors = {}
    for site_id, _, _, _ in entries:
        survivors[site_id] = survivors.get(site_id, 0) + 1
    pruned, skipped = [], []
    for k in sorted(range(len(entries)), key=lambda k: (scores[k], entries[k][1], entries[k][2])):
        if len(pruned) == p:
            break
        site_id, _, channel, _ = entries[k]
        if survivors[site_id] == 1:
            skipped.append((site_id, channel))
            continue
        pruned.append((site_id, channel))
        survivors[site_id] -= 1
    return pruned, skipped


def site_by_id(model, site_id):
    for s in model.sites:
        if s.site_id == site_id:
            return s
    raise InputError(f"unknown site {site_id!r}")


def mutate(raw, edit_list):
    """Apply (edit, position, byte) edits; positions wrap around the file."""
    for edit, at, byte in edit_list:
        if edit == "flip":
            if raw:
                i = at % len(raw)
                raw = raw[:i] + bytes([raw[i] ^ byte]) + raw[i + 1:]
        elif edit == "truncate":
            raw = raw[: at % (len(raw) + 1)]
        else:
            lines = raw.split(b"\n")
            i = at % len(lines)
            if edit == "dup_line":
                lines.insert(i, lines[i])
            elif edit == "drop_line":
                del lines[i]
            else:
                fields = lines[i].split(b",")
                j = byte % len(fields)
                if edit == "dup_field":
                    fields.insert(j, fields[j])
                else:
                    del fields[j]
                lines[i] = b",".join(fields)
            raw = b"\n".join(lines)
    return raw


def rewrite_header(path, mutate):
    """Apply mutate to the decoded JSON header of a checkpoint and write it
    back in place, with sorted keys as save_model writes it, keeping the
    parameter blobs.  Where mutate returns a string, that is the new header."""
    raw = path.read_bytes()
    (length,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + length])
    text = mutate(header)
    new = (json.dumps(header, sort_keys=True) if text is None else text).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<I", len(new)) + new + raw[12 + length :])
