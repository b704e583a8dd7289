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
3. ``compact`` applies the mask the same way, then rewrites the graph into
   a genuinely smaller model in one pass in graph order: pruned output
   channels are physically removed from the producing layer (weight rows,
   bias entries, batch-norm parameters and statistics) and the matching
   input channels from every consumer.

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
from .importance import ENTRY_COLUMNS
from .nn import INPUT, Model, Site


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

    def __repr__(self):
        kept = {sid: f"{int(k.sum())}/{k.size}" for sid, k in self.keep.items()}
        return f"PruneMask({kept})"


# column -> (parser for table text, rule every value must pass)
_PLAN_COLUMNS = {"rank": (int, data.COUNT), **ENTRY_COLUMNS, "pruned": (data.parse_bool, data.FLAG)}


class PrunePlan:
    """A full ascending ranking of prunable channels with the prune decisions.

    entries holds one row per channel in rank order:
    (rank, site_id, node_index, channel, score, pruned).  The score column is
    the value the ranking actually used, so with per-layer normalization it
    holds the normalized score.  skipped lists (site_id, channel) pairs that
    fell inside the cheapest P but were spared to keep their site non-empty.
    An entry that breaks its column's rule is InputError, as in from_csv.
    """

    COLUMNS = tuple(_PLAN_COLUMNS)

    def __init__(self, entries, p, skipped=()):
        self.entries = [data.check_row(entry, _PLAN_COLUMNS) for entry in entries]
        self.p = p
        self.skipped = list(skipped)

    def __len__(self):
        return len(self.entries)

    def mask(self):
        """Build the PruneMask realizing this plan's decisions."""
        counts = _site_counts((site_id, channel) for _, site_id, _, channel, _, _ in self.entries)
        keep = {site_id: np.ones(n, dtype=bool) for site_id, n in counts.items()}
        for _, site_id, _, channel, _, pruned in self.entries:
            if pruned:
                keep[site_id][channel] = False
        return PruneMask(keep)

    def to_csv(self, path):
        data.write_csv(path, self.COLUMNS, self.entries)

    @classmethod
    def from_csv(cls, path):
        entries = data.read_csv(path, _PLAN_COLUMNS)
        for lineno, entry in enumerate(entries, start=2):
            if entry[0] != lineno - 2:
                raise FormatError(f"{path} row {lineno}: ranks must run 0..N-1 in order, got {entry[0]}")
        return cls(entries, sum(1 for e in entries if e[5]))


def _site_counts(channels):
    """{site_id: channel count} of (site_id, channel) pairs that number each site's channels 0..n-1 once."""
    by_site = {}
    for site_id, channel in channels:
        by_site.setdefault(site_id, []).append(channel)
    for site_id, chans in by_site.items():
        if sorted(chans) != list(range(len(chans))):
            raise InputError(f"site {site_id!r}: ranking does not cover channels 0..{len(chans) - 1}")
    return {site_id: len(chans) for site_id, chans in by_site.items()}


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
    survivors = _site_counts((site_id, channel) for site_id, _, channel, _ in entries)
    data.check(p, data.integer(0, n - len(survivors)), "p")

    scores = [float(score) for _, _, _, score in entries]
    if per_layer_normalize:
        peak = {}
        for (site_id, _, _, _), score in zip(entries, scores):
            peak[site_id] = max(peak.get(site_id, 0.0), abs(score))
        scores = [s / peak[sid] if peak[sid] > 0 else s
                  for (sid, _, _, _), s in zip(entries, scores)]

    order = sorted(range(n), key=lambda k: (scores[k], entries[k][1], entries[k][2]))
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


def apply_mask(model, mask):
    """Return a copy of the model with pruned channels masked to zero.

    The mask is installed on the site's gate nodes (``Model.gates``): the site
    node and any batch norm that reads it.  Zeroing only the producer would
    let the batch norm re-bias the channel away from zero, and the batch-norm
    parameters of a pruned channel must stop receiving gradient too.
    Channels the model already masks on a site's gate nodes stay masked, so
    masks compose instead of replacing each other.
    """
    model.check_masks()
    model_sites = {s.site_id: s.channels for s in model.sites}
    if set(mask.keep) != set(model_sites):
        raise InputError(f"mask sites {sorted(mask.keep)} != model sites {sorted(model_sites)}")
    for site_id, k in mask.keep.items():
        if k.size != model_sites[site_id]:
            raise InputError(f"site {site_id!r}: mask length {k.size} != {model_sites[site_id]} channels")
    out = model.clone()
    for site in model.sites:
        gates = model.gates(site)
        held = [model.masks[i] != 0 for i in gates if i in model.masks]
        keep = np.logical_and.reduce([mask.keep[site.site_id], *held])
        if not keep.any():
            raise InputError(f"site {site.site_id!r} would keep no channels with the model's existing mask")
        out.masks.update(dict.fromkeys(gates, keep.astype(out.dtype)))
    return out


def _shrink_output(node, keep):
    if node.kind == "batch_norm":
        node.params["gamma"] = node.params["gamma"][keep]
        node.params["beta"] = node.params["beta"][keep]
        node.state["running_mean"] = node.state["running_mean"][keep]
        node.state["running_var"] = node.state["running_var"][keep]
    else:
        node.params["weight"] = node.params["weight"][keep]
        if node.has_bias:
            node.params["bias"] = node.params["bias"][keep]
    node.channels = int(keep.sum())
    node.zero_grads()


def _shrink_input(node, keep):
    if node.kind == "conv2d":
        node.params["weight"] = node.params["weight"][:, keep]
        node.in_channels = int(keep.sum())
    else:
        # a flatten lays each channel out as one block of in_features // C columns
        cols = np.repeat(keep, node.in_features // keep.size)
        node.params["weight"] = node.params["weight"][:, cols]
        node.in_features = int(cols.sum())
    node.zero_grads()


def compact(model, mask):
    """Rewrite the model with pruned channels physically removed.

    The channels kept are those ``apply_mask`` keeps: the mask composed with
    the masks already on the model.  One pass over the nodes in graph order
    carries each node's kept output channels forward.  A site node keeps
    what its mask keeps; batch norm, ReLU, pooling and flatten pass their
    input's channels on, and batch norm drops the pruned entries of its
    parameters and statistics; a conv or linear node drops the matching
    input slices (after a flatten, each channel's block of columns).
    Reaching a residual addition or the network output with pruned channels
    is not supported and raises CapabilityError.  The compacted model
    carries no masks.
    """
    out = apply_mask(model, mask)
    pruned = {s.node_index: out.masks[s.node_index] != 0 for s in out.sites if not out.masks[s.node_index].all()}
    keeps = []  # kept output channels per node; None keeps them all
    for i, node in enumerate(out.nodes):
        ins = [keeps[r] for r in node.refs if r != INPUT]
        keep = ins[0] if ins else None
        if node.kind == "residual_add" and any(k is not None for k in ins):
            raise CapabilityError(f"node {i} ({node.name}): residual_add consumes pruned channels")
        if node.kind in ("conv2d", "linear"):
            if keep is not None:
                _shrink_input(node, keep)
            keep = pruned.get(i)
        elif i in pruned:
            raise CapabilityError(f"node {i} ({node.name}): cannot shrink output of {node.kind} node")
        if keep is not None and node.kind in ("conv2d", "linear", "batch_norm"):
            _shrink_output(node, keep)
        keeps.append(keep)
    if keeps[-1] is not None:
        raise CapabilityError(f"node {len(keeps) - 1} ({out.nodes[-1].name}): pruning would shrink the network output")
    sites = [Site(s.site_id, s.node_index, out.nodes[s.node_index].channels) for s in out.sites]
    return Model(out.nodes, out.input_shape, out.num_classes, sites, out.non_prunable, dtype=out.dtype)


def validate_equivalence(model, mask, trials=100, seed=0):
    """Max |logit difference| between masked and compacted models.

    Drives both through `trials` standard-normal inputs in eval mode.  A
    correct compaction lands at numerical round-off: below about 1e-5 in
    float32 and 1e-10 in float64.
    """
    data.check(trials, data.SIZE, "trials")
    data.check(seed, data.SEED, "seed")
    masked = apply_mask(model, mask)
    small = compact(model, mask)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((trials,) + model.input_shape).astype(model.dtype)
    a, _ = masked.forward(x, "eval")
    b, _ = small.forward(x, "eval")
    return float(np.abs(a - b).max())
