"""Channel-importance estimation.

A channel's per-example signal s[n,c] sums x*dx over spatial positions,
where x is a tap node's output and dx the gradient of a scalar objective
with respect to it.  Each estimator is a table row: the tap it reads s at,
and the fold it averages over examples.  accumulate and finalize take all five.

  taylorfo          site node                    s
  taylorfo_abs      site node                    |s|
  taylorfo_sq       site node                    s^2
  molchanov_bn      batch norm gating the site   s^2   (bn_node_for_site)
  molchanov_group   weighted site node           s^2

Output gradients come from a GradientSource: the softmax cross-entropy loss,
or label-free random rows drawn from a counter-based generator keyed by
(seed, example index) so scores cannot depend on how examples are grouped
into batches.  Either kind can be normalized to unit L2 norm per example row.

The molchanov rows are the mean gate scores (gamma_c dgamma_c(n) + beta_c
dbeta_c(n))^2 and (sum_w w dw(n) + b_c db_c(n))^2 of Molchanov et al.  Let g
be the gradient with respect to a node's output taken before its channel
mask m, and let the recorded output be y = m * (W x + b) at a conv/linear
site and z = m * (gamma xhat + beta) at a batch norm.  Per example and
channel the chain rule gives

  sum_w w dw(n) + b db(n)          = sum_p g[n,c,p] y[n,c,p]   (site)
  gamma dgamma(n) + beta dbeta(n)  = sum_p g[n,c,p] z[n,c,p]   (batch norm)

so both are s^2 at their tap, and all five estimators share one batched
pass; molchanov_group and taylorfo_sq share tap and fold, so their tables
are byte-identical.  molchanov_bn_score keeps the parameter-gradient form
of the batch-norm score as a reference oracle; the group score's oracle,
molchanov_group_score, lives with the tests in tests/helpers.py.

estimate() runs the model in eval mode: batch statistics would couple
examples within a batch and break partition invariance (which holds to a
relative 1e-12 in float64).  It backpropagates per-example rows (no 1/batch
factor on the loss gradient) for the same reason; the 1/N mean-loss
convention of training lives in nn.softmax_cross_entropy.  The backward
runs only to the taps (Model.backward's taps) and returns their gradients: it
computes no parameter gradient and skips every node upstream of all of them,
cnn_residual's stem and conv2, and cnn_small's bn1 under molchanov_bn.  Accumulators are
float64 regardless of model dtype.  The network runs 32 examples at a time (tensor.blocks) whatever
batch_size is, so memory does not grow with it: batch_size only groups the
float64 sums.  A CNN's signals do not depend on that blocking, unless a
block gets small enough for the BLAS to pick another kernel for a conv's
input-gradient GEMM (OpenBLAS sgemm: cnn_small's conv3 on a float32 block of
under ten examples).  A Linear's x @ W.T may round a row differently for
another number of rows, so mlp_small's tables do depend on it, by round-off.

GradientSource, estimate and ImportanceTable check their arguments with the
rules of the data module, a table once, when it is built: its metadata must be
what estimate or harness.random_importance_table writes, and its rows pass the
coverage rule plans share (_site_counts).
"""

import math

import numpy as np

from . import data, tensor
from .errors import InputError, ShapeError, StateError
from .nn import MODEL, softmax

LOSS = "loss"
RANDOM = "random"
SOURCE_KINDS = (LOSS, RANDOM)

RANDOM_RANK, NO_SOURCE = "random_rank", "none"  # metadata of harness.random_importance_table
SOURCE = data.one_of(SOURCE_KINDS)


class GradientSource:
    """Where output gradients come from: the loss, or seeded random rows."""

    def __init__(self, kind, normalize=False, seed=0):
        self.kind = data.check(kind, SOURCE, "gradient source kind")
        self.normalize = data.check(normalize, data.FLAG, "normalize")
        self.seed = int(data.check(seed, data.SEED, "seed"))

    def __repr__(self):
        return f"GradientSource({self.kind!r}, normalize={self.normalize}, seed={self.seed})"


def _random_rows(seed, example_indices, width):
    """Standard-normal rows, one per example, keyed by (seed, example index).

    Each row comes from its own counter-based stream, so the row for example
    i is the same no matter which batch it appears in.  One Philox generator
    serves the call: re-keyed with a zero counter and an empty buffer, it
    starts the stream a new ``Philox(key=[seed, i])`` would.
    """
    bits = np.random.Philox(key=0)
    gen = np.random.Generator(bits)
    key = np.empty(2, np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": np.zeros(4, np.uint64), "key": key},
             "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    rows = np.empty((len(example_indices), width), np.float64)
    for j, idx in enumerate(example_indices):
        key[:] = seed, int(idx)
        bits.state = state
        rows[j] = gen.standard_normal(width)
    return rows


def _normalize_rows(rows):
    """Scale each row to unit L2 norm; rows that are exactly zero stay zero."""
    norms = np.sqrt((rows * rows).sum(axis=1))
    nonzero = norms > 0
    rows[nonzero] /= norms[nonzero, None]
    return rows


def _per_example_rows(source, logits, labels, example_indices):
    """Output-gradient rows for one batch of logits, one row per example.

    Loss rows are softmax - onehot with no 1/batch factor, so each row is a
    property of its example alone and batching cannot change the scores.
    Random rows are i.i.d. standard normal per (seed, example index) and
    never read labels; example_indices are the global dataset positions of
    the batch rows.  With normalize, every nonzero row is rescaled to unit
    L2 norm.
    """
    logits = np.asarray(logits, np.float64)
    n, k = logits.shape
    if source.kind == LOSS:
        rows = softmax(logits)
        rows[np.arange(n), np.asarray(labels)] -= 1.0
    else:
        rows = _random_rows(source.seed, example_indices, k)
    if source.normalize:
        rows = _normalize_rows(rows)
    return rows


def channel_signal(x_site, dx_site):
    """Per-example per-channel signal s[n,c]: x*dx summed over spatial
    positions (for 2-d sites it is simply the elementwise product)."""
    x = np.asarray(x_site)
    dx = np.asarray(dx_site)
    if x.shape != dx.shape:
        raise ShapeError(f"signal shapes differ: {x.shape} vs {dx.shape}")
    if x.ndim < 2:
        raise ShapeError(f"site tensors need batch and channel axes, got {x.shape}")
    # float64 sums of x*dx without a float64 copy of it: the same bytes
    return (x * dx).reshape(*x.shape[:2], math.prod(x.shape[2:])).sum(axis=2, dtype=np.float64)


class PrunableSite:
    """Streaming per-channel accumulators for one site, one set per estimator."""

    def __init__(self, site_id, node_index, channels, estimators):
        self.site_id = site_id
        self.node_index = node_index
        self.channels = channels
        self.acc = {e: np.zeros(channels, np.float64) for e in estimators}
        self.count = {e: 0 for e in estimators}


def bn_node_for_site(model, site):
    """The batch-norm node whose gamma/beta gate the site's channels: the
    site node itself if it is one, else its single batch-norm gate."""
    if model.nodes[site.node_index].kind == "batch_norm":
        return site.node_index
    bns = model.gates(site)[1:]
    if len(bns) == 1:
        return bns[0]
    raise InputError(f"site {site.site_id!r} has no adjacent batch norm; molchanov_bn needs one")


def _site_node(model, site):
    return site.node_index


def _weighted_site_node(model, site):
    if "weight" not in model.nodes[site.node_index].params:
        raise InputError(f"site {site.site_id!r} node has no weights; molchanov_group needs them")
    return site.node_index


# estimator -> (tap(model, site): the node whose output carries s[n,c], fold averaged over examples)
_ESTIMATOR_ROWS = {
    "taylorfo": (_site_node, lambda s: s),
    "taylorfo_abs": (_site_node, np.abs),
    "taylorfo_sq": (_site_node, np.square),
    "molchanov_bn": (bn_node_for_site, np.square),
    "molchanov_group": (_weighted_site_node, np.square),
}
ESTIMATORS = tuple(_ESTIMATOR_ROWS)
ESTIMATOR = data.one_of(ESTIMATORS)


def tap_nodes(model, estimator):
    """{site_id: the node the estimator reads the site's signal at}; InputError for a site it cannot read."""
    return {s.site_id: _ESTIMATOR_ROWS[estimator][0](model, s) for s in model.sites}


def accumulate(sites, signals, estimator):
    """Fold one batch of per-example signals into the accumulators.

    acc[c] += fold(s[n,c]) summed over the batch, with the estimator's fold
    from the table: identity, abs or square.  Any of the five names works.
    """
    fold = _ESTIMATOR_ROWS[data.check(estimator, ESTIMATOR, "accumulate's estimator")][1]
    for site in sites:
        if estimator not in site.acc:
            raise StateError(f"site {site.site_id} has no {estimator!r} accumulator")
        s = np.asarray(signals[site.site_id], np.float64)
        if s.ndim != 2 or s.shape[1] != site.channels:
            raise ShapeError(f"site {site.site_id}: signals {s.shape} != [N, {site.channels}]")
        site.acc[estimator] += fold(s).sum(axis=0)
        site.count[estimator] += s.shape[0]


def finalize(sites, estimator, source, data_size):
    """Divide accumulators by their example counts and build the table."""
    entries = []
    for site in sites:
        m = site.count.get(estimator, 0)
        if m == 0:
            raise StateError(f"site {site.site_id}: no examples accumulated for {estimator!r}")
        scores = site.acc[estimator] / m
        entries.extend(
            (site.site_id, site.node_index, c, float(scores[c])) for c in range(site.channels)
        )
    return ImportanceTable(entries, estimator, source.kind, source.normalize, data_size, source.seed)


# column -> (parser for table text, rule every value must pass), for an entry and a table; the
# constructor holds the metadata to what estimate (_ESTIMATED) or random_importance_table (_CONTROL) writes
ENTRY_COLUMNS = {"site_id": (str, data.TEXT), "node_index": (int, data.COUNT), "channel": (int, data.COUNT),
                 "score": (data.finite_float, data.FINITE)}
_COLUMNS = {**ENTRY_COLUMNS, "estimator": (str, data.TEXT), "source": (str, data.TEXT),
            "normalized": (data.parse_bool, data.FLAG), "data_size": (int, data.COUNT), "seed": (int, data.SEED)}
_ESTIMATED = {"estimator": (str, ESTIMATOR), "source": (str, SOURCE), "normalized": (data.parse_bool, data.FLAG),
              "data_size": (int, data.SIZE), "seed": (int, data.SEED)}
_CONTROL = {"estimator": (str, data.one_of((RANDOM_RANK,))), "source": (str, data.one_of((NO_SOURCE,))),
            "normalized": (data.parse_bool, ((lambda v: v is False), "false")), "data_size": (int, data.integer(0, 0)),
            "seed": (int, data.SEED)}


class ImportanceTable:
    """One score per (site, channel), plus the metadata that produced it.

    entries are (site_id, node_index, channel, score) rows passing their
    columns' rules and _site_counts, else InputError (where prefixes a metadata
    one); a nan or infinite score is a StateError, the mark of a diverged model.
    """

    COLUMNS = tuple(_COLUMNS)

    def __init__(self, entries, estimator, source, normalized, data_size, seed, *, where=""):
        self.entries = []
        for entry in entries:
            score = entry[3] if len(entry) == len(ENTRY_COLUMNS) else None
            if isinstance(score, (float, np.floating)) and not math.isfinite(score):
                raise StateError(f"non-finite score {score} at site {entry[0]!r} channel {entry[2]}")
            site_id, node_index, channel, score = data.check_row(entry, ENTRY_COLUMNS)
            self.entries.append((site_id, int(node_index), int(channel), float(score)))
        self._counts = _site_counts(entry[:3] for entry in self.entries)
        self.estimator, self.source, self.normalized, data_size, seed = data.check_row(
            (estimator, source, normalized, data_size, seed), _CONTROL if estimator == RANDOM_RANK else _ESTIMATED, where)
        self.data_size, self.seed = int(data_size), int(seed)

    def __len__(self):
        return len(self.entries)

    def scores(self, site_id=None):
        """One site's score vector, channels ascending, or all scores in entry order."""
        if site_id is None:
            return np.array([e[3] for e in self.entries])
        if site_id not in self._counts:
            raise InputError(f"no entries for site {site_id!r}")
        return np.array([score for _, score in sorted((c, s) for sid, _, c, s in self.entries if sid == site_id)])

    def to_csv(self, path):
        meta = (self.estimator, self.source, self.normalized, self.data_size, self.seed)
        data.write_csv(path, self.COLUMNS, (entry + meta for entry in self.entries))

    @classmethod
    def from_csv(cls, path):
        return data.read_csv(path, _COLUMNS, _table_of_rows)


def _table_of_rows(rows):
    for lineno, row in enumerate(rows, start=2):
        if row[4:] != rows[0][4:]:
            raise InputError(f"row {lineno}: metadata differs from the first row")
    return ImportanceTable([row[:4] for row in rows], *rows[0][4:], where="row 2: ")  # the first to carry it


def _site_counts(rows):
    """{site_id: channel count} of (site_id, node_index, channel) rows, if there are any, sites
    and nodes pair one to one, and each site's rows number its channels 0..n-1 once."""
    channels = {}
    for site_id, node_index, channel in rows:
        channels.setdefault((site_id, node_index), []).append(channel)
    if not channels:
        raise InputError("no entries")
    if len({s for s, _ in channels}) < len(channels) or len({n for _, n in channels}) < len(channels):
        raise InputError(f"sites and nodes must pair one to one, got {sorted(channels)}")
    for (site_id, _), chans in channels.items():
        if sorted(chans) != list(range(len(chans))):
            raise InputError(f"site {site_id!r}: ranking does not cover channels 0..{len(chans) - 1}")
    return {site_id: len(chans) for (site_id, _), chans in channels.items()}


def molchanov_bn_score(bn_node, per_example_grads):
    """Score a batch-norm node from a stream of per-example (dgamma, dbeta).

    score[c] = (1/M) sum_n (gamma_c dgamma_c(n) + beta_c dbeta_c(n))^2
    """
    if bn_node.kind != "batch_norm":
        raise InputError(f"molchanov_bn needs a batch-norm node, got kind {bn_node.kind!r}")
    gamma = bn_node.params["gamma"].astype(np.float64)
    beta = bn_node.params["beta"].astype(np.float64)
    acc = np.zeros(bn_node.channels, np.float64)
    m = 0
    for dgamma, dbeta in per_example_grads:
        gate = gamma * np.asarray(dgamma, np.float64) + beta * np.asarray(dbeta, np.float64)
        acc += gate * gate
        m += 1
    if m == 0:
        raise StateError("molchanov_bn: empty gradient stream")
    return acc / m


def _dataset_arrays(dataset):
    if isinstance(dataset, data.Dataset):
        images, labels = dataset.images, dataset.labels
    elif isinstance(dataset, tuple) and len(dataset) == 2:
        images, labels = dataset
    else:
        raise InputError(f"dataset must be a Dataset or an (images, labels) pair, got {type(dataset).__name__}")
    images = np.asarray(images)
    if images.ndim == 0:
        raise InputError(f"images need a batch axis, got shape {images.shape}")
    return images, labels


def _block_signals(model, images, labels, source, taps, lo, hi):
    """Examples lo:hi forward, and back to the taps alone: each tap's signals
    {site_id: s[n,c]}.  The record is freed on return, before the next
    block's forward."""
    logits, record = model.forward(images[lo:hi], "eval")
    rows = _per_example_rows(source, logits, labels[lo:hi] if source.kind == LOSS else None, np.arange(lo, hi))
    grads = model.backward(record, rows, taps=taps.values())
    return {site_id: channel_signal(record.values[i], grads[i]) for site_id, i in taps.items()}


def estimate(model, dataset, d, estimator, source, batch_size=32):
    """Score every prunable channel from the first d dataset examples.

    Runs the model in eval mode on blocks of at most 32 examples, reads
    each site's signal at the estimator's tap, and folds the signals of each
    batch of batch_size examples with one accumulate call.  Never reads
    labels when the source is random.
    """
    data.check(model, MODEL, "model")
    data.check(estimator, ESTIMATOR, "estimator")
    data.check(source, data.instance(GradientSource, "a GradientSource"), "source")
    images, labels = _dataset_arrays(dataset)
    data.check(d, data.integer(1, len(images)), "d")
    data.check(batch_size, data.SIZE, "batch_size")
    if source.kind == LOSS:
        if labels is None:
            raise InputError("loss gradients need a labeled dataset")
        labels = data.check_labels(labels, len(images), model.num_classes)
    if not isinstance(dataset, data.Dataset) and np.issubdtype(images.dtype, np.number):  # a Dataset checked its own
        if not np.isfinite(images[:d]).all():
            raise InputError(f"images must be finite, got nan or inf in the first {d}")
    if not model.sites:
        raise InputError("model declares no prunable sites")

    taps = tap_nodes(model, estimator)
    sites = [PrunableSite(s.site_id, s.node_index, s.channels, (estimator,)) for s in model.sites]
    for start in range(0, d, batch_size):
        stop = min(start + batch_size, d)
        parts = [_block_signals(model, images, labels, source, taps, start + blk.start, min(start + blk.stop, stop))
                 for blk in tensor.blocks(stop - start)]
        accumulate(sites, {site_id: np.concatenate([p[site_id] for p in parts]) for site_id in taps}, estimator)
    return finalize(sites, estimator, source, d)
