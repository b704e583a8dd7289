"""Shared test utilities: finite differences, relative error, file mutation,
reference kernels and scores, and mask and plan queries."""

import json
import struct

import numpy as np

from prunelab import tensor
from prunelab.errors import InputError, StateError
from prunelab.pruning import PruneMask

REL_FLOOR = 1e-8


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


def avg_pool_oracle(x, k):
    """Average pool as numpy's mean over each window's two axes."""
    n, c, h, w = x.shape
    return x.reshape(n, c, h // k, k, w // k, k).mean(axis=(3, 5))


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
    back in place, keeping the parameter blobs."""
    raw = path.read_bytes()
    (length,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + length])
    mutate(header)
    new = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<I", len(new)) + new + raw[12 + length :])
