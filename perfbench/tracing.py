"""Per-layer tracing of prunelab, installed from outside the package.

The tracer wraps each layer's public functions, and the ``forward`` and
``backward`` of every ``nn.NODE_KINDS`` class, with a span recorder.  A
wrapper replaces a function at every place it is looked up: a function that
``harness`` or ``cli`` imported by name is rebound there too, because those
modules call it through their own globals.  Nothing under ``src/`` changes,
and with the wrappers removed the package runs its original code.

A span is ``(span_id, name, detail, start, end, parent_id, run_id)``.  Spans
stay in memory while the benchmark runs and are written once, when it ends.
A span's self time is its duration minus the time its child spans cover, so
a module's self time is the time spent in its own wrapped functions and not
in any other wrapped function they called.  Time in an unwrapped helper is
charged to the wrapped function that called it.

Counters are exact: call counts, examples, bytes and floating-point
operations are computed from arguments and results, never from clocks, so
they repeat exactly for a given seed.
"""

import functools
import gzip
import hashlib
import inspect
import os
import time
from collections import defaultdict

MODULES = ("data", "tensor", "nn", "importance", "pruning", "harness", "checkpoint", "cli")

ESTIMATOR_NAMES = ("taylorfo", "taylorfo_abs", "taylorfo_sq", "molchanov_bn", "molchanov_group")
SOURCE_NAMES = ("loss", "random")
NODE_KIND_NAMES = ("conv2d", "linear", "batch_norm", "relu", "avg_pool", "max_pool",
                   "residual_add", "flatten")


def _per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order.

    Values are per measured cycle unless the name says otherwise.
    """
    m = []
    for fn in ("conv2d", "conv2d_backward"):
        m += [(f"tensor.{fn}.calls", "count", "lower"), (f"tensor.{fn}.self_s", "s", "lower"),
              (f"tensor.{fn}.gflop", "GFLOP", "lower"), (f"tensor.{fn}.mbytes", "MB", "lower")]
    for fn in ("im2col", "col2im"):
        m += [(f"tensor.{fn}.calls", "count", "lower"), (f"tensor.{fn}.self_s", "s", "lower")]
    for fn in ("forward", "backward", "clone"):
        m += [(f"nn.Model.{fn}.calls", "count", "lower"), (f"nn.Model.{fn}.self_s", "s", "lower")]
    m.append(("nn.Model.forward.examples_per_call", "count", "higher"))
    for kind in NODE_KIND_NAMES:
        m += [(f"nn.{kind}.forward_s", "s", "lower"), (f"nn.{kind}.backward_s", "s", "lower")]
    m += [("importance.estimate.calls", "count", "lower"), ("importance.estimate.self_s", "s", "lower")]
    for est in ESTIMATOR_NAMES:
        for src in SOURCE_NAMES:
            m.append((f"importance.estimate.{est}.{src}.s", "s", "lower"))
    for fn in ("channel_signal", "accumulate", "finalize"):
        m.append((f"importance.{fn}.self_s", "s", "lower"))
    m.append(("importance.forward_calls_per_example", "count", "lower"))
    m += [("harness.train.s", "s", "lower"),
          ("harness.evaluate.calls", "count", "lower"),
          ("harness.evaluate.self_s", "s", "lower"),
          ("harness.evaluate.distinct_masks", "count", "lower"),
          ("harness.evaluate.distinct_mask_ratio", "ratio", "higher"),
          ("harness.prune_sweep.estimate_calls", "count", "lower"),
          ("harness.prune_sweep.seed_repeat_calls", "count", "lower"),
          ("harness.prune_sweep.self_s", "s", "lower")]
    for fn in ("rank_global", "apply_mask", "compact", "PrunePlan.mask"):
        m += [(f"pruning.{fn}.calls", "count", "lower"), (f"pruning.{fn}.self_s", "s", "lower")]
    m += [("data.make_splits.setup_s", "s", "lower"),
          ("data.batches.calls", "count", "lower"),
          ("data.batches.s", "s", "lower"),
          ("data.load_idx_images.s", "s", "lower")]
    for fn in ("save_model", "load_model"):
        m += [(f"checkpoint.{fn}.calls", "count", "lower"), (f"checkpoint.{fn}.s", "s", "lower"),
              (f"checkpoint.{fn}.bytes", "bytes", "lower")]
    m += [("cli.main.calls", "count", "lower")]
    for sub in ("importance", "prune", "eval"):
        m.append((f"cli.main.{sub}.calls", "count", "lower"))
    m += [("cli.main.self_s", "s", "lower"), ("cli.main.nonzero_exits", "count", "lower")]
    for module in MODULES:
        m.append((f"{module}.self_s", "s", "lower"))
    m += [("trace.spans", "count", "lower"), ("trace.overhead_ratio", "ratio", "lower")]
    return m


PER_LAYER_METRICS = _per_layer_metrics()

# metrics that are counts: they must repeat exactly between cycles and runs
EXACT_COUNTERS = tuple(name for name, unit, _ in PER_LAYER_METRICS
                       if unit in ("count", "GFLOP", "MB", "bytes")
                       or name == "harness.evaluate.distinct_mask_ratio")


class Tracer:
    """Records nested spans and exact counters for one benchmark process."""

    def __init__(self):
        self.spans = []
        self.run_id = ""
        self.active = defaultdict(int)
        self._stack = []
        self._next_id = 0
        self.new_cycle("setup")

    def new_cycle(self, run_id):
        """Start fresh per-cycle aggregates; the span list keeps growing."""
        self.run_id = run_id
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.seen = defaultdict(set)

    def enter(self, name, detail=""):
        self._next_id += 1
        self.active[name] += 1
        self._stack.append([self._next_id, name, detail, time.perf_counter(), 0.0])

    def exit(self, keep=True):
        end = time.perf_counter()
        span_id, name, detail, start, child = self._stack.pop()
        self.active[name] -= 1
        if not keep:
            return
        duration = end - start
        parent_id = 0
        if self._stack:
            parent = self._stack[-1]
            parent[4] += duration
            parent_id = parent[0]
        self.spans.append((span_id, name, detail, start, end, parent_id, self.run_id))
        self.calls[name] += 1
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        if detail:
            self.calls[(name, detail)] += 1
            self.total_s[(name, detail)] += duration

    def write_spans(self, path):
        """Write every recorded span as gzipped CSV, one span a line."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span_id,name,detail,start,end,parent_id,run_id\n")
            for s in self.spans:
                fh.write(f"{s[0]},{s[1]},{s[2]},{s[3]!r},{s[4]!r},{s[5]},{s[6]}\n")


# -- meters: exact counters computed from a call's arguments and result ------

def _conv_meter(tracer, args, kwargs, out):
    x, w = args[0], args[1]
    n, c = x.shape[:2]
    f, _, kh, kw = w.shape
    ho, wo = out.shape[2:]
    tracer.counters["tensor.conv2d.flop"] += 2 * n * f * ho * wo * c * kh * kw
    tracer.counters["tensor.conv2d.bytes"] += x.nbytes + w.nbytes + out.nbytes


def _conv_backward_meter(tracer, args, kwargs, out):
    x, w, grad_output = args[0], args[1], args[2]
    grad_input, grad_weight = out
    n, c = x.shape[:2]
    f, _, kh, kw = w.shape
    ho, wo = grad_output.shape[2:]
    # two products of the forward's size: the weight and the input adjoints
    tracer.counters["tensor.conv2d_backward.flop"] += 4 * n * f * ho * wo * c * kh * kw
    tracer.counters["tensor.conv2d_backward.bytes"] += (
        x.nbytes + w.nbytes + grad_output.nbytes + grad_input.nbytes + grad_weight.nbytes)


def _forward_meter(tracer, args, kwargs, out):
    tracer.counters["nn.Model.forward.examples"] += len(args[1])
    if tracer.active["importance.estimate"]:
        tracer.counters["importance.forward_calls"] += 1


def _estimate_meter(tracer, call):
    source = call["source"]
    tracer.counters["importance.examples"] += int(call["d"])
    if tracer.active["harness.prune_sweep"]:
        tracer.counters["harness.prune_sweep.estimate_calls"] += 1
        # a loss source ignores its seed, so such a call repeats one made
        # for another sweep seed
        key = (call["estimator"], source.kind, source.normalize, int(call["d"]),
               source.seed if source.kind == "random" else None)
        if key in tracer.seen["estimate"]:
            tracer.counters["harness.prune_sweep.seed_repeat_calls"] += 1
        tracer.seen["estimate"].add(key)


def _evaluate_meter(tracer, args, kwargs, out):
    model = args[0]
    digest = hashlib.sha1()
    for index in sorted(model.masks):
        digest.update(str(index).encode())
        digest.update(model.masks[index].tobytes())
    tracer.seen["masks"].add(digest.hexdigest())


def _save_meter(tracer, args, kwargs, out):
    tracer.counters["checkpoint.save_model.bytes"] += int(out)


def _load_meter(tracer, args, kwargs, out):
    tracer.counters["checkpoint.load_model.bytes"] += os.path.getsize(args[0])


def _main_meter(tracer, args, kwargs, out):
    if out != 0:
        tracer.counters["cli.main.nonzero_exits"] += 1


def _main_detail(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return str(argv[0]) if argv else ""


def _node_detail(args, kwargs):
    return args[0].name


# -- wrappers -----------------------------------------------------------------

def _span_wrapper(tracer, name, fn, meter=None, detail=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(name, detail(args, kwargs) if detail else "")
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if meter is not None:
            meter(tracer, args, kwargs, out)
        return out
    return traced


def _estimate_wrapper(tracer, fn):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        call = signature.bind(*args, **kwargs).arguments
        tracer.enter("importance.estimate", f"{call['estimator']}.{call['source'].kind}")
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.exit()
        _estimate_meter(tracer, call)
        return out
    return traced


def _batches_wrapper(tracer, fn):
    """Time the generator's own work for each batch it yields."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        batches = fn(*args, **kwargs)
        while True:
            tracer.enter("data.batches")
            try:
                batch = next(batches)
            except StopIteration:
                tracer.exit(keep=False)
                return
            except BaseException:
                tracer.exit()
                raise
            tracer.exit()
            yield batch
    return traced


class Instrumentation:
    """Installs the span wrappers on the prunelab modules and removes them.

    Use as a context manager.  A name absent from the package is skipped and
    listed in ``missing``, so the benchmark keeps running on a package that
    renamed or removed a function; its metrics then read zero.
    """

    def __init__(self, package, tracer):
        self.package = package
        self.tracer = tracer
        self.missing = []
        self._saved = []

    def _modules(self):
        return [getattr(self.package, name) for name in MODULES]

    def _rebind(self, original, replacement):
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, replacement)

    def _function(self, module_name, attr, make):
        module = getattr(self.package, module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        self._rebind(original, make(original))

    def _method(self, cls, attr, name, meter=None, detail=None):
        original = cls.__dict__.get(attr)
        if original is None:
            self.missing.append(name)
            return
        self._saved.append((cls, attr, original))
        if isinstance(original, classmethod):
            wrapped = classmethod(_span_wrapper(self.tracer, name, original.__func__, meter, detail))
        else:
            wrapped = _span_wrapper(self.tracer, name, original, meter, detail)
        setattr(cls, attr, wrapped)

    def __enter__(self):
        # besides the functions the metrics name, Model.zero_grads, softmax,
        # softmax_cross_entropy and the CSV methods are wrapped so that their
        # time counts toward their own module rather than their caller's
        t = self.tracer
        p = self.package

        def plain(module_name, attr, meter=None, detail=None):
            name = f"{module_name}.{attr}"
            self._function(module_name, attr,
                           lambda fn: _span_wrapper(t, name, fn, meter, detail))

        plain("tensor", "conv2d", _conv_meter)
        plain("tensor", "conv2d_backward", _conv_backward_meter)
        plain("tensor", "im2col")
        plain("tensor", "col2im")
        for attr, meter in (("forward", _forward_meter), ("backward", None), ("clone", None),
                            ("zero_grads", None)):
            self._method(p.nn.Model, attr, f"nn.Model.{attr}", meter)
        for kind, cls in p.nn.NODE_KINDS.items():
            for attr in ("forward", "backward"):
                self._method(cls, attr, f"nn.{kind}.{attr}", detail=_node_detail)
        plain("nn", "softmax")
        plain("nn", "softmax_cross_entropy")
        self._function("importance", "estimate", lambda fn: _estimate_wrapper(t, fn))
        for attr in ("channel_signal", "accumulate", "finalize"):
            plain("importance", attr)
        for attr in ("to_csv", "from_csv"):
            self._method(p.importance.ImportanceTable, attr, f"importance.ImportanceTable.{attr}")
        plain("harness", "train")
        plain("harness", "evaluate", _evaluate_meter)
        plain("harness", "prune_sweep")
        for attr in ("rank_global", "apply_mask", "compact"):
            plain("pruning", attr)
        for attr in ("mask", "to_csv"):
            self._method(p.pruning.PrunePlan, attr, f"pruning.PrunePlan.{attr}")
        plain("data", "make_splits")
        self._function("data", "batches", lambda fn: _batches_wrapper(t, fn))
        plain("data", "load_idx_images")
        plain("checkpoint", "save_model", _save_meter)
        plain("checkpoint", "load_model", _load_meter)
        plain("cli", "main", _main_meter, _main_detail)
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved = []
        return False


# -- per-cycle metrics ----------------------------------------------------------

def cycle_metrics(tracer, setup_tracer_totals=None):
    """The per-layer metrics of the cycle the tracer has just recorded."""
    calls, self_s, total_s, counters = tracer.calls, tracer.self_s, tracer.total_s, tracer.counters
    m = {}
    for fn in ("conv2d", "conv2d_backward"):
        m[f"tensor.{fn}.calls"] = calls[f"tensor.{fn}"]
        m[f"tensor.{fn}.self_s"] = self_s[f"tensor.{fn}"]
        m[f"tensor.{fn}.gflop"] = counters[f"tensor.{fn}.flop"] / 1e9
        m[f"tensor.{fn}.mbytes"] = counters[f"tensor.{fn}.bytes"] / 1e6
    for fn in ("im2col", "col2im"):
        m[f"tensor.{fn}.calls"] = calls[f"tensor.{fn}"]
        m[f"tensor.{fn}.self_s"] = self_s[f"tensor.{fn}"]
    for fn in ("forward", "backward", "clone"):
        m[f"nn.Model.{fn}.calls"] = calls[f"nn.Model.{fn}"]
        m[f"nn.Model.{fn}.self_s"] = self_s[f"nn.Model.{fn}"]
    forwards = calls["nn.Model.forward"]
    m["nn.Model.forward.examples_per_call"] = (
        counters["nn.Model.forward.examples"] / forwards if forwards else 0.0)
    for kind in NODE_KIND_NAMES:
        for direction in ("forward", "backward"):
            m[f"nn.{kind}.{direction}_s"] = total_s[f"nn.{kind}.{direction}"]
    m["importance.estimate.calls"] = calls["importance.estimate"]
    m["importance.estimate.self_s"] = self_s["importance.estimate"]
    for est in ESTIMATOR_NAMES:
        for src in SOURCE_NAMES:
            m[f"importance.estimate.{est}.{src}.s"] = total_s[("importance.estimate", f"{est}.{src}")]
    for fn in ("channel_signal", "accumulate", "finalize"):
        m[f"importance.{fn}.self_s"] = self_s[f"importance.{fn}"]
    examples = counters["importance.examples"]
    m["importance.forward_calls_per_example"] = (
        counters["importance.forward_calls"] / examples if examples else 0.0)
    m["harness.train.s"] = total_s["harness.train"]
    evaluations = calls["harness.evaluate"]
    distinct = len(tracer.seen["masks"])
    m["harness.evaluate.calls"] = evaluations
    m["harness.evaluate.self_s"] = self_s["harness.evaluate"]
    m["harness.evaluate.distinct_masks"] = distinct
    m["harness.evaluate.distinct_mask_ratio"] = distinct / evaluations if evaluations else 0.0
    m["harness.prune_sweep.estimate_calls"] = counters["harness.prune_sweep.estimate_calls"]
    m["harness.prune_sweep.seed_repeat_calls"] = counters["harness.prune_sweep.seed_repeat_calls"]
    m["harness.prune_sweep.self_s"] = self_s["harness.prune_sweep"]
    for fn in ("rank_global", "apply_mask", "compact", "PrunePlan.mask"):
        m[f"pruning.{fn}.calls"] = calls[f"pruning.{fn}"]
        m[f"pruning.{fn}.self_s"] = self_s[f"pruning.{fn}"]
    m["data.make_splits.setup_s"] = (setup_tracer_totals or {}).get("data.make_splits", 0.0)
    batches = calls["data.batches"]
    m["data.batches.calls"] = batches
    m["data.batches.s"] = total_s["data.batches"] / batches if batches else 0.0
    m["data.load_idx_images.s"] = total_s["data.load_idx_images"]
    for fn in ("save_model", "load_model"):
        m[f"checkpoint.{fn}.calls"] = calls[f"checkpoint.{fn}"]
        m[f"checkpoint.{fn}.s"] = total_s[f"checkpoint.{fn}"]
        m[f"checkpoint.{fn}.bytes"] = counters[f"checkpoint.{fn}.bytes"]
    m["cli.main.calls"] = calls["cli.main"]
    for sub in ("importance", "prune", "eval"):
        m[f"cli.main.{sub}.calls"] = calls[("cli.main", sub)]
    m["cli.main.self_s"] = self_s["cli.main"]
    m["cli.main.nonzero_exits"] = counters["cli.main.nonzero_exits"]
    module_self = defaultdict(float)
    for name, seconds in self_s.items():
        module_self[name.split(".", 1)[0]] += seconds
    for module in MODULES:
        m[f"{module}.self_s"] = module_self[module]
    m["trace.spans"] = sum(v for k, v in calls.items() if isinstance(k, str))
    return m


def node_table(tracer):
    """Per-node forward/backward seconds of the cycle: {node: (kind, fwd, bwd)}."""
    rows = {}
    for key, seconds in tracer.total_s.items():
        if not isinstance(key, tuple) or not key[0].startswith("nn."):
            continue
        name, node = key
        _, kind, direction = name.split(".")
        row = rows.setdefault(node, [kind, 0.0, 0.0])
        row[1 if direction == "forward" else 2] += seconds
    return {node: tuple(row) for node, row in rows.items()}
