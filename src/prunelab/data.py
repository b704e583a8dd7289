"""Dataset provisioning: a deterministic synthetic glyph generator, an IDX
binary codec, and seeded batching.

The generator renders small grayscale images of geometric glyphs (bars,
crosses, rings, checkerboards, ...) at randomized positions and scales, with
optional Gaussian pixel noise.  Classes are visually distinct by construction,
so small networks can learn them in seconds while still leaving headroom for
pruning experiments to show accuracy differences.

Two ordering guarantees matter downstream:

- Labels interleave round-robin (example i has class i mod K), so any prefix
  of length >= K contains every class.  Importance estimation reads size-D
  prefixes, which makes the D1 < D2 subsets properly nested.
- Generation consumes a single seeded random stream in example order, so a
  dataset is a pure function of (num_classes, per_class, image_size, noise,
  seed, split).

Datasets are immutable: the arrays are frozen after construction.

Every value the package reads (config fields, table columns, record
arguments, checkpoint headers) must pass a rule of the vocabulary below, a
(test, words) pair, before it is converted or stored; check() raises
"<field> must be <words>, got <value>".  A rule rejects what int(), float()
or bool() would truncate, coerce or overflow on.  check_labels is the one
rule for a label vector wherever labels meet a dataset, a loss or a model.

The importance, plan and sweep tables share one CSV codec: UTF-8, "\n" line
ends, a fixed header, true/false booleans and repr(float(v)) floats, so a
table read back and written again is byte-identical.  read_csv fails closed:
undecodable or unparsable text, a wrong header, no rows, a wrong field count,
or a field that its column's parser or rule rejects raises FormatError naming
the path, and the row (the header is row 1) and column where there is one.
"""

import csv
import numbers
import reprlib
import struct

import numpy as np

from .errors import FormatError, InputError

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801

SPLITS = ("train", "test")


class Dataset:
    """Images [M, C, H, W] in [0, 1] with integer labels in [0, K)."""

    def __init__(self, images, labels, split, seed, num_classes=None):
        check(split, one_of(SPLITS), "split")
        images = np.array(images)
        labels = np.array(labels)
        if images.ndim != 4:
            raise InputError(f"images must be [M, C, H, W], got shape {images.shape}")
        check_labels(labels, images.shape[0], num_classes)
        if images.size and (not np.isfinite(images).all() or images.min() < 0 or images.max() > 1):
            raise InputError("image values must lie in [0, 1]")
        if labels.size == 0:
            raise InputError("dataset must hold at least one example")
        if num_classes is None:
            num_classes = int(labels.max()) + 1
        counts = np.bincount(labels, minlength=num_classes)
        missing = np.flatnonzero(counts == 0)
        if missing.size:
            raise InputError(f"class {int(missing[0])} has no examples")
        images.setflags(write=False)
        labels.setflags(write=False)
        self.images = images
        self.labels = labels
        self.split = split
        self.seed = seed
        self.num_classes = int(num_classes)

    def __len__(self):
        return self.images.shape[0]

    def __repr__(self):
        m, c, h, w = self.images.shape
        return (f"Dataset({self.split}, {m} examples, {self.num_classes} classes, "
                f"{c}x{h}x{w}, seed={self.seed})")


# -- glyph rendering ----------------------------------------------------------
# each renderer draws into a square box view of the canvas; t is the stroke
# thickness, already >= 1

def _hbar(box, t, value):
    s = box.shape[0]
    r = s // 2 - t // 2
    box[r : r + t, :] = value


def _vbar(box, t, value):
    s = box.shape[0]
    c = s // 2 - t // 2
    box[:, c : c + t] = value


def _cross(box, t, value):
    _hbar(box, t, value)
    _vbar(box, t, value)


def _circle(box, t, value):
    s = box.shape[0]
    rr, cc = np.ogrid[:s, :s]
    center = (s - 1) / 2
    dist = np.sqrt((rr - center) ** 2 + (cc - center) ** 2)
    box[np.abs(dist - (s / 2 - 1)) < max(1.0, t / 2)] = value


def _corner(box, t, value):
    box[:t, :] = value
    box[:, :t] = value


def _checker(box, t, value):
    s = box.shape[0]
    cell = max(2, s // 4)
    rr, cc = np.ogrid[:s, :s]
    box[(rr // cell + cc // cell) % 2 == 0] = value


def _diag(box, t, value):
    s = box.shape[0]
    rr, cc = np.ogrid[:s, :s]
    box[np.abs(rr - cc) < t] = value


def _xcross(box, t, value):
    s = box.shape[0]
    rr, cc = np.ogrid[:s, :s]
    box[np.minimum(np.abs(rr - cc), np.abs(rr + cc - (s - 1))) < t] = value


def _block(box, t, value):
    box[:, :] = value


def _frame(box, t, value):
    s = box.shape[0]
    box[:t, :] = value
    box[s - t :, :] = value
    box[:, :t] = value
    box[:, s - t :] = value


GLYPHS = (
    ("hbar", _hbar),
    ("vbar", _vbar),
    ("cross", _cross),
    ("circle", _circle),
    ("corner", _corner),
    ("checker", _checker),
    ("diag", _diag),
    ("xcross", _xcross),
    ("block", _block),
    ("frame", _frame),
)


def generate_shapes(num_classes, per_class, image_size=16, noise=0.1, seed=0, split="train"):
    """Render a glyph classification dataset, one stream draw per example.

    Example i gets class i mod num_classes.  Each glyph lands at a random
    position and scale with a random stroke intensity; Gaussian noise of the
    given sigma is added per pixel and the result clipped back to [0, 1].
    The train and test splits of the same seed use disjoint random streams.
    """
    check(num_classes, NUM_CLASSES, "num_classes")
    check(per_class, SIZE, "per_class")
    check(image_size, IMAGE_SIZE, "image_size")
    check(noise, NOISE, "noise")
    check(seed, SEED, "seed")
    check(split, one_of(SPLITS), "split")
    rng = np.random.default_rng([seed, SPLITS.index(split)])
    m = num_classes * per_class
    images = np.zeros((m, 1, image_size, image_size), dtype=np.float32)
    labels = np.arange(m, dtype=np.int64) % num_classes
    for i in range(m):
        s = int(rng.integers(image_size // 2, image_size - 1))
        # roughly centered with one pixel of jitter: enough variation to
        # exercise convolutions, small enough that class pixel means stay
        # separable for a linear probe
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
    return Dataset(images, labels, split, seed, num_classes)


def make_splits(num_classes, per_class_train, per_class_test, image_size=16, noise=0.1, seed=0):
    """Generate a (train, test) pair from disjoint streams of one seed."""
    train = generate_shapes(num_classes, per_class_train, image_size, noise, seed, "train")
    test = generate_shapes(num_classes, per_class_test, image_size, noise, seed, "test")
    return train, test


# -- IDX binary format --------------------------------------------------------

def save_idx(dataset, images_path, labels_path):
    """Export to the IDX pair format: big-endian headers, ubyte payloads.

    Pixels are quantized to 0..255.  Only single-channel images export.
    """
    images = dataset.images
    if images.shape[1] != 1:
        raise InputError(f"only single-channel images export to IDX, got {images.shape[1]} channels")
    if dataset.num_classes > 256:
        raise InputError("IDX labels are single bytes; more than 256 classes cannot export")
    m, _, h, w = images.shape
    pixels = np.round(np.asarray(images[:, 0], dtype=np.float64) * 255).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IMAGES_MAGIC, m, h, w))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", LABELS_MAGIC, m))
        fh.write(dataset.labels.astype(np.uint8).tobytes())


def _read_file(path):
    with open(path, "rb") as fh:
        return fh.read()


def load_idx_images(images_path):
    """Load just the image tensor of an IDX file, scaled to [0, 1].

    Useful on its own for label-free importance estimation, where no labels
    file exists at all.
    """
    buf = _read_file(images_path)
    if len(buf) < 16:
        raise FormatError(f"images file truncated: {len(buf)} bytes, header needs 16")
    magic, m, h, w = struct.unpack_from(">IIII", buf)
    if magic != IMAGES_MAGIC:
        raise FormatError(f"bad images magic 0x{magic:08x} at offset 0, expected 0x{IMAGES_MAGIC:08x}")
    if m == 0:
        raise FormatError("image count must be >= 1")
    expected = 16 + m * h * w
    if len(buf) != expected:
        raise FormatError(f"images file has {len(buf)} bytes, expected {expected} (payload at offset 16)")
    images = np.frombuffer(buf, dtype=np.uint8, offset=16).astype(np.float32) / 255.0
    return images.reshape(m, 1, h, w)


def load_idx_labels(labels_path):
    """Load just the label vector of an IDX file."""
    buf = _read_file(labels_path)
    if len(buf) < 8:
        raise FormatError(f"labels file truncated: {len(buf)} bytes, header needs 8")
    magic, m = struct.unpack_from(">II", buf)
    if magic != LABELS_MAGIC:
        raise FormatError(f"bad labels magic 0x{magic:08x} at offset 0, expected 0x{LABELS_MAGIC:08x}")
    if len(buf) != 8 + m:
        raise FormatError(f"labels file has {len(buf)} bytes, expected {8 + m} (payload at offset 8)")
    return np.frombuffer(buf, dtype=np.uint8, offset=8).astype(np.int64)


def load_idx(images_path, labels_path, split="train", seed=0):
    """Load an IDX image/label pair; pixel bytes are scaled to [0, 1]."""
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if labels.shape[0] != images.shape[0]:
        raise FormatError(f"label count {labels.shape[0]} does not match image count {images.shape[0]}")
    try:
        return Dataset(images, labels, split, seed)
    except InputError as e:  # e.g. a label byte that leaves a class without examples
        raise FormatError(f"{labels_path}: not a dataset: {e}") from None


# -- value rules --------------------------------------------------------------

_FLOAT_MAX = float(np.finfo(float).max)


def number(kind, test, words):
    """Rule: a number of the kind (Integral or Real) that passes test; never a bool, nan, or beyond float range."""
    exact = (int,) if kind is numbers.Integral else (int, float)  # no ABC check; numpy scalars range-check as float
    return (lambda v: (-_FLOAT_MAX <= v <= _FLOAT_MAX if type(v) in exact else
                       isinstance(v, kind) and not isinstance(v, bool) and -_FLOAT_MAX <= float(v) <= _FLOAT_MAX)
            and test(v)), words


def integer(low, high=np.inf):
    return number(numbers.Integral, lambda v: low <= v <= high,
                  f"an integer >= {low}" if high == np.inf else f"an integer in [{low}, {high}]")


def one_of(names):
    return (lambda v: isinstance(v, str) and v in names), f"one of {', '.join(names)}"


def instance(cls, words):
    return (lambda v: isinstance(v, cls)), words


def list_of(item, unset_ok=False):
    return (lambda v: (unset_ok and v is None) or isinstance(v, (list, tuple)) and (unset_ok or v)
            and all(map(item[0], v))), f"{'unset or a list' if unset_ok else 'a non-empty list'}, each item {item[1]}"


TEXT = instance(str, "a string")
FLAG = instance(bool, "true or false")
COUNT = integer(0)
SIZE = integer(1)  # a batch size, example count or dimension
SEED = integer(0, 2**64 - 1)  # the key range of the random-gradient generator
FRACTION = number(numbers.Real, lambda v: 0 <= v <= 1, "a number in [0, 1]")
FINITE = number(numbers.Real, lambda v: True, "a finite number")
# the glyph generator's ranges
NUM_CLASSES = integer(2, len(GLYPHS))
IMAGE_SIZE = integer(12)
NOISE = number(numbers.Real, lambda v: v >= 0, "a finite number >= 0")


def check(value, rule, field, error=InputError):
    """The value, if it passes the rule; else error "<field> must be <words>, got <value>"."""
    if not rule[0](value):
        raise error(f"{field} must be {rule[1]}, got {reprlib.repr(value)}")
    return value


def check_labels(labels, count, num_classes=None):
    """The labels as an array, if they are count integers in [0, num_classes)
    (no upper bound for None); else InputError."""
    labels = np.asarray(labels)
    if labels.shape != (count,):
        raise InputError(f"labels must have shape ({count},), got {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise InputError(f"labels must be integers, got dtype {labels.dtype}")
    bound = np.inf if num_classes is None else num_classes
    if labels.size and (labels.min() < 0 or labels.max() >= bound):
        raise InputError(f"labels out of range [0, {bound}): {labels.min()}..{labels.max()}")
    return labels


def check_row(row, columns, where="", error=InputError):
    """The row as a tuple, each value checked by its column's rule in a {column: (parser, rule)} table."""
    if len(row) != len(columns):
        raise error(f"{where}{len(row)} fields, expected {len(columns)}")
    for value, (column, (_, rule)) in zip(row, columns.items()):
        if not rule[0](value):  # the field's name is built only for the error
            check(value, rule, where + column, error)
    return tuple(row)


# -- CSV tables ---------------------------------------------------------------

def parse_bool(text):
    """The table and config spelling of a boolean: exactly true or false."""
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(f"expected true or false, got {text!r}")


def finite_float(text):
    """float(text), rejecting nan and the infinities."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _csv_field(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return repr(float(value)) if isinstance(value, (float, np.floating)) else value


def write_csv(path, columns, rows):
    """Write the header and one line per row of values."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_csv_field(v) for v in row] for row in rows)


def _parse(parse, text):
    try:
        return parse(text)
    except ValueError:
        return text  # text its column's parser rejects fails the column's rule too


def read_csv(path, columns):
    """Read a write_csv table: one tuple per row, each field parsed and
    checked by its column's entry in a {column: (parser, rule)} table."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            lines = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as e:
        raise FormatError(f"{path}: not a readable CSV table: {e}") from None
    if not lines or tuple(lines[0]) != tuple(columns):
        raise FormatError(f"{path}: expected header {','.join(columns)}")
    if len(lines) == 1:
        raise FormatError(f"{path}: no entries")
    rows = []
    for lineno, fields in enumerate(lines[1:], start=2):
        if len(fields) == len(columns):
            fields = [_parse(parse, text) for (parse, _), text in zip(columns.values(), fields)]
        rows.append(check_row(fields, columns, f"{path} row {lineno}: ", FormatError))
    return rows


# -- batching -----------------------------------------------------------------

def batches(dataset, batch_size, shuffle_seed=None):
    """Yield (images, labels) batches; the last batch may be short.

    Without a shuffle seed the dataset order is used as is; with one, a seeded
    permutation is drawn once per call, so equal seeds give equal sequences.
    """
    check(dataset, instance(Dataset, "a Dataset"), "dataset")
    check(batch_size, SIZE, "batch_size")
    m = len(dataset)
    order = np.arange(m)
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(m)
    for start in range(0, m, batch_size):
        idx = order[start : start + batch_size]
        yield dataset.images[idx], dataset.labels[idx]
