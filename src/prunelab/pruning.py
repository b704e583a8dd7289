"""Channel pruning: global ranking, mask application, and structural
compaction.

Pruning proceeds in three stages that are kept deliberately separate:

1. ``rank_global`` sorts every prunable channel in the whole network by its
   importance score (ascending) and marks the P cheapest for removal.  The
   sort is global: channels from different layers compete directly, with no
   per-layer quota.  A candidate whose removal would leave its site empty is
   skipped and the skip recorded, so every site always keeps at least one
   channel.
2. ``apply_mask`` turns a plan into a runtime mask on the model: pruned
   channels are forced to zero in the forward pass and their parameters stop
   receiving gradient.  Shapes do not change, which makes masked models
   convenient for quick accuracy measurements and finetuning.  Masks
   compose: a channel already masked on the model stays pruned.
3. ``compact`` rewrites the graph into a genuinely smaller model: pruned
   output channels are physically removed from the producing layer (weight
   rows, bias entries, batch-norm parameters and statistics) and the matching
   input channels are removed from every consumer.

The contract tying 2 and 3 together is checked by ``validate_equivalence``:
masked and compacted models must produce the same logits on random inputs to
within dtype round-off (about 1e-5 in float32, 1e-10 in float64).

Channels coupled through a residual addition cannot be compacted; attempting
it raises CapabilityError naming the offending node.  Batch-norm statistics of
surviving channels are carried over unchanged, matching the
evaluate-right-after-pruning protocol; nothing is recomputed.
"""

import numpy as np

from . import data
from .errors import CapabilityError, FormatError, InputError
from .nn import Model, Site


class PruneMask:
    """Per-site boolean keep vectors; False marks a pruned channel."""

    def __init__(self, keep):
        self.keep = {}
        for site_id, k in keep.items():
            k = np.asarray(k, dtype=bool)
            if k.ndim != 1:
                raise InputError(f"site {site_id!r}: keep vector must be 1-D")
            if not k.any():
                raise InputError(f"site {site_id!r} would keep no channels")
            self.keep[site_id] = k

    @classmethod
    def all_keep(cls, model):
        return cls({s.site_id: np.ones(s.channels, dtype=bool) for s in model.sites})

    @property
    def pruned_count(self):
        return int(sum((~k).sum() for k in self.keep.values()))

    def __repr__(self):
        kept = {sid: f"{int(k.sum())}/{k.size}" for sid, k in self.keep.items()}
        return f"PruneMask({kept})"


class PrunePlan:
    """A full ascending ranking of prunable channels with the prune decisions.

    entries holds one row per channel in rank order:
    (rank, site_id, node_index, channel, score, pruned).  The score column is
    the value the ranking actually used, so with per-layer normalization it
    holds the normalized score.  skipped lists (site_id, channel) pairs that
    fell inside the cheapest P but were spared to keep their site non-empty.
    """

    COLUMNS = ("rank", "site_id", "node_index", "channel", "score", "pruned")

    def __init__(self, entries, p, skipped=()):
        self.entries = list(entries)
        self.p = p
        self.skipped = list(skipped)

    def __len__(self):
        return len(self.entries)

    def pruned_channels(self):
        return [(sid, ch) for _, sid, _, ch, _, pruned in self.entries if pruned]

    def mask(self):
        """Build the PruneMask realizing this plan's decisions."""
        channels = {}
        for _, site_id, _, channel, _, _ in self.entries:
            channels.setdefault(site_id, []).append(channel)
        keep = {}
        for site_id, chans in channels.items():
            if sorted(chans) != list(range(len(chans))):
                raise InputError(f"site {site_id!r}: ranking does not cover channels 0..{len(chans) - 1}")
            keep[site_id] = np.ones(len(chans), dtype=bool)
        for _, site_id, _, channel, _, pruned in self.entries:
            if pruned:
                keep[site_id][channel] = False
        return PruneMask(keep)

    def to_csv(self, path):
        data.write_csv(path, self.COLUMNS, self.entries)

    @classmethod
    def from_csv(cls, path):
        parsers = (int, str, int, int, data.finite_float, data.parse_bool)
        entries = data.read_csv(path, cls.COLUMNS, parsers)
        for lineno, entry in enumerate(entries, start=2):
            if entry[0] != lineno - 2:
                raise FormatError(f"{path} row {lineno}: ranks must run 0..N-1 in order, got {entry[0]}")
        return cls(entries, sum(1 for e in entries if e[5]))


def rank_global(table, p, per_layer_normalize=False):
    """Rank all channels ascending by score and mark the P cheapest pruned.

    Ties break on (node index, channel index) ascending, so identical tables
    always give identical plans.  Each site keeps at least one channel: a
    candidate that would empty its site is skipped and recorded, and the next
    cheapest channel takes its place.  P may range from 0 to N minus the
    number of sites.

    per_layer_normalize divides each site's scores by the site's maximum
    absolute score before the global sort, the standard correction for
    layers with different scale; sites whose scores are all zero are left
    as is.
    """
    entries = list(table.entries)
    n = len(entries)
    site_counts = {}
    for site_id, _, channel, _ in entries:
        site_counts.setdefault(site_id, []).append(channel)
    for site_id, chans in site_counts.items():
        if sorted(chans) != list(range(len(chans))):
            raise InputError(f"site {site_id!r}: table does not cover channels 0..{len(chans) - 1}")
    max_p = n - len(site_counts)
    if not isinstance(p, (int, np.integer)) or not 0 <= p <= max_p:
        raise InputError(f"p must be an integer in [0, {max_p}], got {p!r}")

    scores = [float(score) for _, _, _, score in entries]
    if per_layer_normalize:
        peak = {}
        for (site_id, _, _, _), score in zip(entries, scores):
            peak[site_id] = max(peak.get(site_id, 0.0), abs(score))
        scores = [s / peak[sid] if peak[sid] > 0 else s
                  for (sid, _, _, _), s in zip(entries, scores)]

    order = sorted(range(n), key=lambda k: (scores[k], entries[k][1], entries[k][2]))
    survivors = {site_id: len(chans) for site_id, chans in site_counts.items()}
    pruned = [False] * n
    skipped = []
    taken = 0
    for k in order:
        if taken == p:
            break
        site_id = entries[k][0]
        if survivors[site_id] == 1:
            skipped.append((site_id, entries[k][2]))
            continue
        pruned[k] = True
        survivors[site_id] -= 1
        taken += 1

    plan_entries = [
        (rank, entries[k][0], entries[k][1], entries[k][2], scores[k], pruned[k])
        for rank, k in enumerate(order)
    ]
    return PrunePlan(plan_entries, p, skipped)


def _check_mask(model, mask):
    model_sites = {s.site_id: s.channels for s in model.sites}
    if set(mask.keep) != set(model_sites):
        raise InputError(f"mask sites {sorted(mask.keep)} != model sites {sorted(model_sites)}")
    for site_id, k in mask.keep.items():
        if k.size != model_sites[site_id]:
            raise InputError(f"site {site_id!r}: mask length {k.size} != {model_sites[site_id]} channels")


def _site_keep(model, site, mask):
    """The mask's keep vector for a site, intersected with the channels the
    model already masks on the site node or its batch norm, so masks compose
    instead of replacing."""
    keep = mask.keep[site.site_id]
    gates = [site.node_index] + [j for j in model.consumers(site.node_index) if model.nodes[j].kind == "batch_norm"]
    for i in gates:
        held = model.masks.get(i)
        if held is not None:
            keep = keep & (held != 0)
            if not keep.any():
                raise InputError(f"site {site.site_id!r} would keep no channels with the model's existing mask")
    return keep


def apply_mask(model, mask):
    """Return a copy of the model with pruned channels masked to zero.

    The mask is installed on the site node and on any batch-norm node that
    directly consumes it: zeroing only the producer would let the batch norm
    re-bias the channel away from zero, and the batch-norm parameters of a
    pruned channel must stop receiving gradient too.  Channels the model
    already masks stay masked.
    """
    _check_mask(model, mask)
    out = model.clone()
    for site in out.sites:
        keep = _site_keep(model, site, mask).astype(out.dtype)
        out.masks[site.node_index] = keep
        for j in out.consumers(site.node_index):
            if out.nodes[j].kind == "batch_norm":
                out.masks[j] = keep
    return out


def _output_shapes(model):
    # one throwaway eval forward on a clone gives every node's output shape
    probe = model.clone()
    x = np.zeros((1,) + probe.input_shape, dtype=probe.dtype)
    _, record = probe.forward(x, "eval")
    return [v.shape for v in record.values]


def _shrink_output(node, index, keep):
    if node.kind in ("conv2d", "linear"):
        node.params["weight"] = node.params["weight"][keep]
        if node.has_bias:
            node.params["bias"] = node.params["bias"][keep]
    elif node.kind == "batch_norm":
        node.params["gamma"] = node.params["gamma"][keep]
        node.params["beta"] = node.params["beta"][keep]
        node.state["running_mean"] = node.state["running_mean"][keep]
        node.state["running_var"] = node.state["running_var"][keep]
    else:
        raise CapabilityError(f"node {index} ({node.name}): cannot shrink output of {node.kind} node")
    node.channels = int(keep.sum())
    node.zero_grads()


def _shrink_input(node, index, keep, spatial):
    if node.kind == "conv2d":
        node.params["weight"] = node.params["weight"][:, keep]
        node.in_channels = int(keep.sum())
    elif node.kind == "linear":
        cols = keep if spatial is None else np.repeat(keep, spatial)
        if cols.size != node.in_features:
            raise CapabilityError(
                f"node {index} ({node.name}): cannot map {keep.size} pruned channels onto {node.in_features} inputs")
        node.params["weight"] = node.params["weight"][:, cols]
        node.in_features = int(cols.sum())
    else:
        raise CapabilityError(f"node {index} ({node.name}): cannot shrink input of {node.kind} node")
    node.zero_grads()


def compact(model, mask):
    """Rewrite the model with pruned channels physically removed.

    Pruned output channels disappear from the producing node (and any
    batch norm downstream of it), and the matching input slices disappear
    from every conv or linear consumer.  Intervening ReLU, pooling, and
    flatten nodes need no surgery; a flatten remaps channels to its
    channel-major column blocks.  Reaching a residual addition or the network
    output with pruned channels is not supported and raises CapabilityError.
    Channels the model already masks are removed as well; the compacted
    model carries no masks.
    """
    _check_mask(model, mask)
    shapes = _output_shapes(model)
    out = model.clone()
    passthrough = ("relu", "avg_pool", "max_pool")
    keeps = {site.site_id: _site_keep(model, site, mask) for site in model.sites}

    for site in model.sites:
        keep = keeps[site.site_id]
        if keep.all():
            continue
        _shrink_output(out.nodes[site.node_index], site.node_index, keep)
        # walk forward until every branch ends in a consumer that absorbs
        # the shrunk channel axis
        frontier = [(site.node_index, None)]
        while frontier:
            i, spatial = frontier.pop()
            followers = out.consumers(i)
            if not followers:
                raise CapabilityError(
                    f"node {i} ({out.nodes[i].name}): pruning would shrink the network output")
            for j in followers:
                node = out.nodes[j]
                if node.kind in ("conv2d", "linear"):
                    _shrink_input(node, j, keep, spatial)
                elif node.kind == "batch_norm":
                    _shrink_output(node, j, keep)
                    frontier.append((j, spatial))
                elif node.kind in passthrough:
                    frontier.append((j, spatial))
                elif node.kind == "flatten":
                    shape = shapes[i]
                    frontier.append((j, int(np.prod(shape[2:], dtype=int))))
                else:
                    raise CapabilityError(
                        f"node {j} ({node.name}): {node.kind} consumes pruned channels")

    sites = [Site(s.site_id, s.node_index, int(keeps[s.site_id].sum())) for s in model.sites]
    return Model(out.nodes, model.input_shape, model.num_classes, sites,
                 dict(model.non_prunable), dtype=model.dtype)


def validate_equivalence(model, mask, trials=100, seed=0):
    """Max |logit difference| between masked and compacted models.

    Drives both through `trials` standard-normal inputs in eval mode.  A
    correct compaction lands at numerical round-off: below about 1e-5 in
    float32 and 1e-10 in float64.
    """
    masked = apply_mask(model, mask)
    small = compact(model, mask)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((trials,) + model.input_shape).astype(model.dtype)
    a, _ = masked.forward(x, "eval")
    b, _ = small.forward(x, "eval")
    return float(np.abs(a - b).max())
