"""Channel pruning: global ranking, mask application, and structural
compaction.

Pruning proceeds in three stages that are kept deliberately separate:

1. ``rank_global`` sorts every prunable channel in the whole network by its
   importance score (ascending) and marks the P cheapest for removal.  The
   sort is global: channels from different layers compete directly, with no
   per-layer quota.  A candidate whose removal would leave its site empty is
   skipped, so every site always keeps at least one channel; the plan reads
   P and its skips off its rows, and refuses rows that could not be masked.
2. ``apply_mask`` turns a plan into a runtime mask on the model: pruned
   channels are forced to zero in the forward pass and their parameters stop
   receiving gradient.  Shapes do not change, which makes masked models
   convenient for quick accuracy measurements and finetuning.  A model holds
   one mask per site (``Model.masks``, keyed by the site node); masks
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
from .errors import CapabilityError, InputError
from .importance import ENTRY_COLUMNS, ImportanceTable, _site_counts
from .nn import INPUT, MODEL, Model, Site


_KEEP = (lambda k: k.dtype == bool or k.dtype.kind in "iu" and np.all((k == 0) | (k == 1)), "bools or integers 0 and 1")


class PruneMask:
    """Per-site keep vectors of bools or integers 0 and 1 (else InputError); False marks a pruned channel."""

    def __init__(self, keep):
        data.check(keep, data.instance(dict, "a dict of site id to keep vector"), "keep")
        self.keep = {}
        for site_id, k in keep.items():
            k = data.check(np.asarray(k), _KEEP, f"site {site_id!r} keep vector").astype(bool)
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
    holds the normalized score.  p counts the pruned rows, and skipped lists
    the (site_id, channel) of each unpruned row ranked before the last pruned
    one: spared to keep its site non-empty.  Rows that break a column's rule,
    rank out of order, break the coverage rule (importance._site_counts) or
    leave a site no channel are InputError, so mask() cannot fail.
    """

    COLUMNS = tuple(_PLAN_COLUMNS)

    def __init__(self, entries):
        self.entries = tuple(data.check_row(entry, _PLAN_COLUMNS) for entry in entries)  # p, skipped and mask() read it
        keep = {site_id: np.ones(n, dtype=bool) for site_id, n in _site_counts(e[1:4] for e in self.entries).items()}
        for k, (rank, site_id, _, channel, _, pruned) in enumerate(self.entries):
            if rank != k:
                raise InputError(f"ranks must run 0..N-1 in order, got {rank} at position {k}")
            keep[site_id][channel] = not pruned
        self._keep = PruneMask(keep).keep  # which refuses a site left with no channel
        pruned = [k for k, entry in enumerate(self.entries) if entry[5]]
        self.p = len(pruned)
        self.skipped = [(e[1], e[3]) for e in self.entries[: pruned[-1] if pruned else 0] if not e[5]]

    def __len__(self):
        return len(self.entries)

    def mask(self):
        """Build the PruneMask realizing this plan's decisions."""
        return PruneMask(self._keep)

    def to_csv(self, path):
        data.write_csv(path, self.COLUMNS, self.entries)

    @classmethod
    def from_csv(cls, path):
        return data.read_csv(path, _PLAN_COLUMNS, cls)


def rank_global(table, p, per_layer_normalize=False):
    """Rank all channels ascending by score and mark the P cheapest pruned.

    Ties break on (node index, channel index) ascending, so identical tables
    always give identical plans.  Each site keeps at least one channel: a
    candidate that would empty its site is skipped (the plan reads the skips
    off its rows), and the next cheapest channel takes its place.  P may
    range from 0 to N minus the number of sites.

    per_layer_normalize divides each site's scores by the site's maximum
    absolute score before the global sort, the standard correction for
    layers with different scale; sites whose scores are all zero are left
    as is.
    """
    data.check(table, data.instance(ImportanceTable, "an ImportanceTable"), "table")
    data.check(per_layer_normalize, data.FLAG, "per_layer_normalize")
    entries = list(table.entries)
    n = len(entries)
    survivors = dict(table._counts)
    data.check(p, data.integer(0, n - len(survivors)), "p")

    scores = [float(score) for _, _, _, score in entries]
    if per_layer_normalize:
        peak = {site_id: float(np.abs(table.scores(site_id)).max()) for site_id in survivors}
        scores = [s / peak[sid] if peak[sid] > 0 else s for (sid, _, _, _), s in zip(entries, scores)]

    order = sorted(range(n), key=lambda k: (scores[k], entries[k][1], entries[k][2]))
    pruned = [False] * n
    taken = 0
    for k in order:
        if taken == p:
            break
        site_id = entries[k][0]
        if survivors[site_id] > 1:
            pruned[k] = True
            survivors[site_id] -= 1
            taken += 1

    plan_entries = [
        (rank, entries[k][0], entries[k][1], entries[k][2], scores[k], pruned[k])
        for rank, k in enumerate(order)
    ]
    return PrunePlan(plan_entries)


def apply_mask(model, mask):
    """Return a copy of the model with pruned channels masked to zero.

    The site's one mask is stored under the site node, and the model applies
    it at every gate node (``Model.gates``): the site node and any batch norm
    that reads it.  Zeroing only the producer would let the batch norm
    re-bias the channel away from zero, and the batch-norm parameters of a
    pruned channel must stop receiving gradient too.  Masks compose: what the
    model's mask prunes stays pruned.  Anything but a Model and a PruneMask is InputError.
    """
    data.check(model, MODEL, "model")
    data.check(mask, data.instance(PruneMask, "a PruneMask"), "mask")
    model.check()
    model_sites = {s.site_id: s.channels for s in model.sites}
    if set(mask.keep) != set(model_sites):
        raise InputError(f"mask sites {sorted(mask.keep)} != model sites {sorted(model_sites)}")
    for site_id, k in mask.keep.items():
        if k.size != model_sites[site_id]:
            raise InputError(f"site {site_id!r}: mask length {k.size} != {model_sites[site_id]} channels")
    out = model.clone()
    for site in model.sites:
        keep = mask.keep[site.site_id] & (model.masks.get(site.node_index, 1) != 0)
        if not keep.any():
            raise InputError(f"site {site.site_id!r} would keep no channels with the model's existing mask")
        out.masks[site.node_index] = keep.astype(out.dtype)
    return out


def _shrink_output(node, keep):
    node.params = {k: v[keep] for k, v in node.params.items()}
    node.state = {k: v[keep] for k, v in node.state.items()}
    node.zero_grads()


def _shrink_input(node, keep):
    w = node.params["weight"]  # an input channel owns weight.shape[1] // C columns: a flatten's block of them
    node.params["weight"] = w[:, np.repeat(keep, w.shape[1] // keep.size)]
    node.zero_grads()


def compact(model, mask):
    """Rewrite the model with pruned channels physically removed.

    The channels kept are those ``apply_mask`` keeps: the mask composed with
    the masks already on the model.  One pass over the nodes in graph order
    carries each node's kept output channels forward: a site node keeps
    what its mask keeps, and the others pass their input's on.  It only
    slices arrays: axis 0 of every parameter and statistic, and the weight
    columns of a conv or linear node's kept inputs (after a flatten, each
    channel's block of columns).  Reaching a residual addition or the
    network output with pruned channels is not supported and raises
    CapabilityError.  The compacted model carries no masks.
    """
    out = apply_mask(model, mask)
    pruned = {s.node_index: out.masks[s.node_index] != 0 for s in out.sites if not out.masks[s.node_index].all()}
    keeps = []  # kept output channels per node; None keeps them all
    for i, node in enumerate(out.nodes):
        ins = [keeps[r] for r in node.refs if r != INPUT]
        keep = ins[0] if ins else None
        if node.kind == "residual_add" and any(k is not None for k in ins):
            raise CapabilityError(f"node {i} ({node.name}): residual_add consumes pruned channels")
        if "weight" in node.params:
            if keep is not None:
                _shrink_input(node, keep)
            keep = pruned.get(i)
        elif i in pruned:
            raise CapabilityError(f"node {i} ({node.name}): cannot shrink output of {node.kind} node")
        if keep is not None:
            _shrink_output(node, keep)  # a node without arrays has none to slice
        keeps.append(keep)
    if keeps[-1] is not None:
        raise CapabilityError(f"node {len(keeps) - 1} ({out.nodes[-1].name}): pruning would shrink the network output")
    sites = [Site(s.site_id, s.node_index, out.nodes[s.node_index].channels) for s in out.sites]
    return Model(out.nodes, out.input_shape, out.num_classes, sites, dtype=out.dtype)


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
    a, _ = masked.forward(x, "eval", record=False)
    b, _ = small.forward(x, "eval", record=False)
    return float(np.abs(a - b).max())
