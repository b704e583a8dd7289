"""Channel-importance estimation.

The forward signal of a channel is its pre-activation x, the backward signal
is the gradient dx of some scalar objective with respect to it.  A channel's
per-example signal is the spatial inner product of the two; the five
estimators turn a stream of per-example signals into one score per channel:

  taylorfo          mean of s[n,c]
  taylorfo_abs      mean of |s[n,c]|
  taylorfo_sq       mean of s[n,c]^2
  molchanov_bn      mean of (gamma_c dgamma_c(n) + beta_c dbeta_c(n))^2
  molchanov_group   mean of (sum_w w dw(n) + b_c db_c(n))^2 over channel c's
                    weights and bias

where s[n,c] sums x*dx over spatial positions per example first.  Output
gradients come from a GradientSource: the softmax cross-entropy loss, or
label-free random rows drawn from a counter-based generator keyed by (seed,
example index) so scores cannot depend on how examples are grouped into
batches.  Either kind can be normalized to unit L2 norm per example row.

The two molchanov gates are the same signal read at another tap point, so
all five estimators share one batched pass.  Let g be the gradient with
respect to a node's output taken before its channel mask m, and let the
recorded output be y = m * (W x + b) at a conv/linear site and
z = m * (gamma xhat + beta) at a batch norm.  The chain rule gives, per
example and channel,

  sum_w w dw(n) + b db(n)          = sum_p g[n,c,p] y[n,c,p]   (site)
  gamma dgamma(n) + beta dbeta(n)  = sum_p g[n,c,p] z[n,c,p]   (batch norm)

so molchanov_group is taylorfo_sq read at the site node, and molchanov_bn is
taylorfo_sq read at the batch norm that gates the site (bn_node_for_site).
molchanov_bn_score and molchanov_group_score keep the parameter-gradient
form as reference oracles.

estimate() runs the model in eval mode: batch statistics would couple
examples within a batch and break partition invariance.  It backpropagates
per-example rows (no 1/batch factor on the loss gradient) for the same
reason; the 1/N mean-loss convention of training lives in
nn.softmax_cross_entropy.  Accumulators are float64 regardless of model
dtype.
"""

import numpy as np

from . import data
from .errors import FormatError, InputError, ShapeError, StateError
from .nn import softmax

LOSS = "loss"
RANDOM = "random"
SOURCE_KINDS = (LOSS, RANDOM)

TAYLOR_ESTIMATORS = ("taylorfo", "taylorfo_abs", "taylorfo_sq")
ESTIMATORS = TAYLOR_ESTIMATORS + ("molchanov_bn", "molchanov_group")
RANDOM_RANK, NO_SOURCE = "random_rank", "none"  # metadata of harness.random_importance_table


class GradientSource:
    """Where output gradients come from: the loss, or seeded random rows."""

    def __init__(self, kind, normalize=False, seed=0):
        if kind not in SOURCE_KINDS:
            raise InputError(f"gradient source kind must be one of {SOURCE_KINDS}, got {kind!r}")
        if not 0 <= int(seed) < 2**64:
            raise InputError(f"seed must fit in 64 unsigned bits, got {seed}")
        self.kind = kind
        self.normalize = bool(normalize)
        self.seed = int(seed)

    def __repr__(self):
        return f"GradientSource({self.kind!r}, normalize={self.normalize}, seed={self.seed})"


def _random_rows(seed, example_indices, width):
    """Standard-normal rows, one per example, keyed by (seed, example index).

    Each row comes from its own counter-based stream, so the row for example
    i is the same no matter which batch it appears in.
    """
    rows = np.empty((len(example_indices), width), np.float64)
    for j, idx in enumerate(example_indices):
        key = np.array([seed, int(idx)], dtype=np.uint64)
        rows[j] = np.random.Generator(np.random.Philox(key=key)).standard_normal(width)
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
    prod = (x * dx).astype(np.float64)
    if x.ndim == 2:
        return prod
    return prod.sum(axis=tuple(range(2, x.ndim)))


class PrunableSite:
    """Streaming per-channel accumulators for one site, one set per estimator."""

    def __init__(self, site_id, node_index, channels, estimators):
        self.site_id = site_id
        self.node_index = node_index
        self.channels = channels
        self.acc = {e: np.zeros(channels, np.float64) for e in estimators}
        self.count = {e: 0 for e in estimators}


def make_sites(model, estimators):
    return [PrunableSite(s.site_id, s.node_index, s.channels, estimators) for s in model.sites]


def accumulate(sites, signals, estimator):
    """Fold one batch of per-example signals into the accumulators.

    acc[c] += f(s[n,c]) summed over the batch, f = identity | abs | square.
    """
    if estimator not in TAYLOR_ESTIMATORS:
        raise InputError(f"accumulate handles {TAYLOR_ESTIMATORS}, got {estimator!r}")
    for site in sites:
        if estimator not in site.acc:
            raise StateError(f"site {site.site_id} has no {estimator!r} accumulator")
        s = np.asarray(signals[site.site_id], np.float64)
        if s.ndim != 2 or s.shape[1] != site.channels:
            raise ShapeError(f"site {site.site_id}: signals {s.shape} != [N, {site.channels}]")
        if estimator == "taylorfo_abs":
            s = np.abs(s)
        elif estimator == "taylorfo_sq":
            s = s * s
        site.acc[estimator] += s.sum(axis=0)
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


class ImportanceTable:
    """One score per (site, channel), plus the metadata that produced it.

    entries are (site_id, node_index, channel, score) tuples in site order,
    channels ascending.  Scores must be finite.
    """

    COLUMNS = ("site_id", "node_index", "channel", "score", "estimator", "source", "normalized", "data_size", "seed")

    def __init__(self, entries, estimator, source, normalized, data_size, seed):
        self.entries = [(str(s), int(n), int(c), float(v)) for s, n, c, v in entries]
        if not all(np.isfinite(e[3]) for e in self.entries):
            bad = next(e for e in self.entries if not np.isfinite(e[3]))
            raise StateError(f"non-finite score at site {bad[0]} channel {bad[2]}")
        self.estimator = estimator
        self.source = source
        self.normalized = bool(normalized)
        self.data_size = int(data_size)
        self.seed = int(seed)

    def __len__(self):
        return len(self.entries)

    def scores(self, site_id=None):
        """Score vector for one site, or all scores in entry order."""
        if site_id is None:
            return np.array([e[3] for e in self.entries])
        picked = [e[3] for e in self.entries if e[0] == site_id]
        if not picked:
            raise InputError(f"no entries for site {site_id!r}")
        return np.array(picked)

    def to_csv(self, path):
        meta = (self.estimator, self.source, self.normalized, self.data_size, self.seed)
        data.write_csv(path, self.COLUMNS, (entry + meta for entry in self.entries))

    @classmethod
    def from_csv(cls, path):
        parsers = (str, int, int, data.finite_float, str, str, data.parse_bool, str, str)
        rows = data.read_csv(path, cls.COLUMNS, parsers)
        for lineno, row in enumerate(rows, start=2):
            if row[4:] != rows[0][4:]:
                raise FormatError(f"{path} row {lineno}: metadata differs from the first row")
        # every row repeats the first row's metadata, so row 2 names it
        estimator, source, normalized, data_size, seed = rows[0][4:]
        try:
            data_size, seed = int(data_size), int(seed)
        except ValueError:
            raise FormatError(
                f"{path} row 2: data_size and seed must be integers, got {data_size!r}, {seed!r}") from None
        control = estimator == RANDOM_RANK
        if not ((estimator in ESTIMATORS or control) and (source in SOURCE_KINDS or source == NO_SOURCE)
                and data_size >= (0 if control else 1) and 0 <= seed < 2**64):
            raise FormatError(f"{path} row 2: metadata {estimator!r}, {source!r}, data_size {data_size}, "
                              f"seed {seed} is not one estimate or random_importance_table writes")
        return cls([row[:4] for row in rows], estimator, source, normalized, data_size, seed)


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


def molchanov_group_score(node, per_example_grads):
    """Score a conv/linear node from a stream of per-example parameter grads.

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


def bn_node_for_site(model, site):
    """The batch-norm node whose gamma/beta gate the site's channels: the
    site node itself if it is one, else its single direct batch-norm consumer."""
    if model.nodes[site.node_index].kind == "batch_norm":
        return site.node_index
    followers = [i for i in model.consumers(site.node_index) if model.nodes[i].kind == "batch_norm"]
    if len(followers) == 1:
        return followers[0]
    raise InputError(f"site {site.site_id!r} has no adjacent batch norm; molchanov_bn needs one")


def _dataset_arrays(dataset):
    if isinstance(dataset, tuple):
        images, labels = dataset
    else:
        images, labels = dataset.images, dataset.labels
    images = np.asarray(images)
    if labels is not None:
        labels = np.asarray(labels)
        if len(labels) != len(images):
            raise InputError(f"{len(images)} images but {len(labels)} labels")
    return images, labels


def _tap_nodes(model, estimator):
    """{site_id: node index} of the node whose output carries each site's
    signal: the batch norm gating the site for molchanov_bn, else the site."""
    if estimator == "molchanov_bn":
        return {s.site_id: bn_node_for_site(model, s) for s in model.sites}
    if estimator == "molchanov_group":
        for s in model.sites:
            if "weight" not in model.nodes[s.node_index].params:
                raise InputError(f"site {s.site_id!r} node has no weights; molchanov_group needs them")
    return {s.site_id: s.node_index for s in model.sites}


def estimate(model, dataset, d, estimator, source, batch_size=32):
    """Score every prunable channel from the first d dataset examples.

    Runs the model in eval mode, streams batches of batch_size for every
    estimator, and never reads labels when the source is random.  The
    molchanov estimators fold their tap-point signal exactly as taylorfo_sq
    does; the table carries the molchanov name.
    """
    if estimator not in ESTIMATORS:
        raise InputError(f"estimator must be one of {ESTIMATORS}, got {estimator!r}")
    images, labels = _dataset_arrays(dataset)
    if not isinstance(d, (int, np.integer)) or not 0 < d <= len(images):
        raise InputError(f"d must be an integer in [1, {len(images)}], got {d!r}")
    if not isinstance(batch_size, (int, np.integer)) or batch_size < 1:
        raise InputError(f"batch_size must be a positive integer, got {batch_size!r}")
    if source.kind == LOSS:
        if labels is None:
            raise InputError("loss gradients need a labeled dataset")
        if not np.issubdtype(labels.dtype, np.integer):
            raise InputError(f"labels must be integers, got dtype {labels.dtype}")
        if labels[:d].min() < 0 or labels[:d].max() >= model.num_classes:
            raise InputError(f"labels out of range [0, {model.num_classes})")
    if not model.sites:
        raise InputError("model declares no prunable sites")

    taps = _tap_nodes(model, estimator)
    fold = estimator if estimator in TAYLOR_ESTIMATORS else "taylorfo_sq"
    sites = make_sites(model, (fold,))
    # each record lives until the next forward replaces it: freeing it first
    # hands its pages back to the OS and the next batch faults them in again
    # (measured 10-15% slower); its node gradients are dropped at once so
    # they do not add to that overlap
    for start in range(0, d, batch_size):
        stop = min(start + batch_size, d)
        logits, record = model.forward(images[start:stop], "eval")
        batch_labels = labels[start:stop] if source.kind == LOSS else None
        rows = _per_example_rows(source, logits, batch_labels, np.arange(start, stop))
        model.zero_grads()
        model.backward(record, rows)
        signals = {site_id: channel_signal(record.values[i], record.grads[i]) for site_id, i in taps.items()}
        record.grads = None
        accumulate(sites, signals, fold)
    table = finalize(sites, fold, source, d)
    table.estimator = estimator
    return table
