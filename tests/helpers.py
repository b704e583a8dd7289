"""Shared test utilities: finite differences, relative error and file mutation."""

import numpy as np

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
