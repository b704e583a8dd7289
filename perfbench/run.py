"""prunelab benchmark: end-to-end throughput with tracing off, per-layer
tables from a separate traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

The program is imported from ``src/`` beside this directory, never from an
installed copy; without it the benchmark exits with code 2 and prints no
result.  One process runs one workload, calling only prunelab's public API
(``harness``, ``importance``, ``pruning``, ``checkpoint``, ``cli.main``).
``--workload all`` runs every workload in turn, each in its own child
process, and prints one table.  Self-tests: ``python3 -m pytest perfbench``.

Workloads (closed loop, one caller; each a fixed cycle repeated for S s)
------------------------------------------------------------------------
train_cnn           ``harness.train`` on cnn_small, default recipe (15 epochs,
                    batch 32).  The only workload with train-mode
                    forward/backward, batch-norm train adjoints and parameter
                    updates; no work in importance, pruning or evaluate.
estimate_taylor     ``importance.estimate`` with taylorfo, taylorfo_abs and
                    taylorfo_sq x {loss, random} at D=600 and the public
                    default batch 32: the batched signal path.
estimate_molchanov  The same for molchanov_bn and molchanov_group.  These
                    step one example at a time, so per-call Python overhead
                    dominates; a kernel tuned for big batches can slow this
                    workload while train_cnn gets faster.  Kept apart from
                    estimate_taylor so neither hides the other.
sweep_grid          ``harness.prune_sweep`` with sweep_seeds 0,1, estimators
                    taylorfo,taylorfo_sq, sources loss,random, D 10,600 and
                    the default 10-point P grid: 160 rows, mostly masked eval-
                    mode forwards at N=256, plus rank_global, apply_mask and
                    clone.  Loss rows repeat across seeds (work a planner
                    could share); random rows do not.
cli_pipeline        ``cli.main`` round trips on a cnn_residual checkpoint and
                    an images-only IDX file: ``importance --source random
                    --normalize --data-size 600``, ``prune --prune-count P
                    --plan``, ``eval`` of the compacted checkpoint, P cycling
                    5, 11, 17, 23.  The only workload that reaches checkpoint,
                    IDX loading, the CSV formats, compaction with odd widths,
                    avg-pool and residual-add nodes.

Random-source estimation receives ``(images, None)``, so any label read
fails.  Fixture models are trained in set-up (see ``workloads.py``).  The
benchmark seed sets the config ``seed`` and ``data_seed``.

End-to-end metrics (``--trace 0``; every workload reports each)
----------------------------------------------------------------
throughput_per_s  1/s  higher  median over cycles of work items per second
                  of timed operations, paced.  An item is a training example
                  (train_cnn), an example scored (estimate_*), a sweep row
                  (sweep_grid) or one importance->prune->eval round trip
                  (cli_pipeline; its inverse is the median round-trip time).
setup_s           s    lower   median of the paced set-up times: data
                  generation, fixture training and fixture file writing, all
                  before timing starts.  Set-up runs at least three times
                  and for at least 1 s.
peak_rss_mb       MB   lower   peak resident memory of the workload's
                  process; caches that trade memory for speed show here.

Paced means divided by the machine's slowdown over the same interval, which
a fixed reference kernel measures before and during every timed operation
(``pace.py``). Over ten seeds per workload on a shared 2-CPU x86-64 virtual
machine, the quartile spread of raw throughput between runs was 13-34% and
that of paced throughput 4-13%. The report keeps the raw timings and the
slowdown beside the paced ones.

Failures count in the result's ``failed`` out of ``attempted`` operations
(the error rate); it is not a metric, as it reads zero on a correct
program.  A failure is an exception, a non-zero exit code or a failed output
check.  The checks run after each cycle, outside the timed region:

- train_cnn: final-epoch loss finite, test accuracy >= 0.9, parameters
  identical across cycles.
- estimate_*: 72 finite scores per table, right metadata, scores identical
  across cycles; molchanov_group within 1e-5 relative of taylorfo_sq.
- sweep_grid: 160 rows, P=0 rows equal the unpruned accuracy, loss rows
  identical across sweep seeds, CSV bytes identical across cycles.
- cli_pipeline: every exit code 0, the compacted model has fewer parameters,
  ``pruning.validate_equivalence`` of each plan < 1e-4, importance CSV bytes
  identical across cycles, accuracy in [0, 1].

Per-layer metrics (``--trace 1``)
---------------------------------
The traced run alternates untraced and traced cycles; ``tracing.py`` wraps
the layers from outside.  Values are per cycle (median over traced cycles);
self time is a span's duration minus its child spans.  ``trace.overhead_ratio``
is the median traced cycle time over the median untraced one.  Counts,
computed GFLOP and MB repeat exactly for a seed.  Which end-to-end metric each
layer should move, on which workload:

tensor      conv2d/conv2d_backward/im2col/col2im calls, self_s; computed
            gflop, mbytes  ->  throughput on train_cnn (backward) and
            sweep_grid (forward conv)
nn          Model.forward/backward/clone calls, self_s;
            forward.examples_per_call; nn.<kind>.forward_s/backward_s per
            node kind  ->  train_cnn; estimate_molchanov (N=1 overhead)
importance  estimate calls, self_s, seconds per estimator x source;
            channel_signal/accumulate/finalize self_s;
            forward_calls_per_example  ->  estimate_taylor and
            estimate_molchanov; no change on train_cnn
harness     train.s; evaluate calls, self_s, distinct_masks,
            distinct_mask_ratio; prune_sweep estimate_calls,
            seed_repeat_calls, self_s  ->  sweep_grid
pruning     rank_global/apply_mask/compact/PrunePlan.mask calls, self_s
            ->  sweep_grid (rank + clone per row); cli_pipeline (compact)
data        make_splits.setup_s; batches calls and seconds per batch;
            load_idx_images.s  ->  setup_s everywhere; train_cnn
checkpoint  save_model/load_model calls, s, bytes  ->  cli_pipeline only
cli         main calls per subcommand, self_s, nonzero_exits
            ->  cli_pipeline only
<module>.self_s for all eight modules; trace.spans per cycle.

The per-node table (one per workload model: cnn_small, cnn_residual) prints
with the traced run, beside the tracing overhead.

Output
------
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).  Lines
before it summarize the run.  The full report (environment, timing medians,
quartiles, sample counts and the highest percentile with at least ten
samples beyond it, failures, per-node tables) is written to
``perfbench/out/report-<workload>-seed<N>-trace<T>.json``; a traced run also
writes its spans to ``perfbench/out/spans-<workload>-seed<N>.csv.gz``.

BLAS runs one thread: on a 2-CPU shared machine a second thread made
training slower and its timings spread more, and the benchmark never starts
more threads than the CPUs it may use.  The environment record gives the BLAS and its threads.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
BLAS_THREADS = 1
# set up at least this often, and until this much time is spent, so that a
# set-up of a few milliseconds still gives a steady median
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0

END_TO_END_METRICS = (
    ("throughput_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
WORKLOAD_NAMES = ("train_cnn", "estimate_taylor", "estimate_molchanov", "sweep_grid",
                  "cli_pipeline")


def _import_package():
    """Import prunelab from this checkout's src/, or exit 2 if it is absent."""
    src = ROOT / "src"
    if not (src / "prunelab" / "__init__.py").is_file():
        print(f"benchmark: no prunelab sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import prunelab
    if Path(prunelab.__file__).resolve().parent != (src / "prunelab").resolve():
        print(f"benchmark: imported prunelab from {prunelab.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return prunelab


# -- statistics -----------------------------------------------------------------

def high_percentile(n):
    """Highest reported percentile that has at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - p / 100) >= 10:
            return p
    return None


def summarize(samples):
    """Median, quartiles, sample count and the high percentile of a timing."""
    samples = sorted(samples)
    n = len(samples)
    if n == 0:
        return {"n": 0}
    q1, median, q3 = statistics.quantiles(samples, n=4) if n > 1 else (samples[0],) * 3
    out = {"n": n, "median": statistics.median(samples), "q1": q1, "q3": q3,
           "min": samples[0], "max": samples[-1]}
    p = high_percentile(n)
    if p is not None:
        out[f"p{p:g}"] = statistics.quantiles(samples, n=1000, method="inclusive")[round(p * 10) - 1]
    return out


def environment(seed):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def _blas_threads():
    """Threads the loaded OpenBLAS uses, asked from the library itself."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


# -- one workload ---------------------------------------------------------------

class Session:
    """Runs a workload's cycles and keeps the timings and failures.

    With a pacer, each timing is also divided by the machine's slowdown
    measured over the same cycle (see ``pace.py``); without one, paced and
    raw timings are the same.
    """

    def __init__(self, workload, fixture, pacer=None):
        self.workload = workload
        self.fixture = fixture
        self.pacer = pacer
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.cycle_seconds = []
        self.slowdowns = []
        self.raw_rates = []
        self.paced_rates = []
        self.op_seconds = {}

    def run_operations(self):
        """Time each operation of one cycle; outputs are checked later."""
        results = []
        pacer = self.pacer
        self._first_sample = len(pacer.samples) if pacer else 0
        for label, operation in self.workload.operations(self.fixture):
            if pacer:
                pacer.sample()
                interrupted = pacer.interrupt_s
            start = time.perf_counter()
            try:
                output, error = operation(), None
            except Exception as e:  # a failing operation is counted, not fatal
                output, error = None, f"{label}: {type(e).__name__}: {e}"
            seconds = time.perf_counter() - start
            if pacer:
                seconds -= pacer.interrupt_s - interrupted
            results.append((label, seconds, output, error))
        if pacer:
            pacer.sample()
        return results

    def settle(self, results):
        """Check one cycle's outputs and account for them; returns its paced seconds."""
        seconds = sum(r[1] for r in results)
        slowdown = self.pacer.slowdown(self._first_sample) if self.pacer else 1.0
        items = 0
        clean = True
        for label, op_seconds, output, error in results:
            problems = [error] if error else self._check(label, output)
            self.attempted += 1
            self.op_seconds.setdefault(label.split("/")[0], []).append(op_seconds)
            if problems:
                self.failed += 1
                self.problems.extend(problems)
                clean = False
            else:
                items += self.workload.items(self.fixture, label, output)
        self.cycle_seconds.append(seconds)
        self.slowdowns.append(slowdown)
        if clean and seconds > 0:
            self.raw_rates.append(items / seconds)
            self.paced_rates.append(items * slowdown / seconds)
        return seconds / slowdown

    def _check(self, label, output):
        try:
            return self.workload.check(self.fixture, label, output)
        except Exception as e:  # a check that cannot read the output fails it
            return [f"{label}: check raised {type(e).__name__}: {e}"]

    def report(self):
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "error_rate": self.failed / self.attempted if self.attempted else None,
            "problems": self.problems[:20],
            "cycles": len(self.cycle_seconds),
            "cycle_seconds": summarize(self.cycle_seconds),
            "slowdown": summarize(self.slowdowns),
            "paced_throughput_per_s": summarize(self.paced_rates),
            "raw_throughput_per_s": summarize(self.raw_rates),
            "raw_seconds_per_item": summarize([1 / r for r in self.raw_rates]),
            "operation_seconds": {k: summarize(v) for k, v in self.op_seconds.items()},
        }


def _paced_setup(workload, seed, work_dir, pacer):
    """Set up once; returns the fixture, its raw seconds and the slowdown over them."""
    first = len(pacer.samples)
    pacer.sample()
    interrupted = pacer.interrupt_s
    start = time.perf_counter()
    fixture = workload.setup(seed, work_dir)
    seconds = time.perf_counter() - start - (pacer.interrupt_s - interrupted)
    pacer.sample()
    return fixture, seconds, pacer.slowdown(first)


def measure(workload, seed, seconds, work_dir):
    """The untraced run: end-to-end metrics."""
    import pace
    pacer = pace.Pacer()
    raw_setup, paced_setup = [], []
    with pacer:
        while len(raw_setup) < SETUP_REPEATS or sum(raw_setup) < SETUP_SECONDS:
            fixture, setup_seconds, slowdown = _paced_setup(workload, seed, work_dir, pacer)
            raw_setup.append(setup_seconds)
            paced_setup.append(setup_seconds / slowdown)
        session = Session(workload, fixture, pacer)
        start = time.perf_counter()
        while not session.cycle_seconds or time.perf_counter() - start < seconds:
            session.settle(session.run_operations())
    report = session.report()
    report["raw_setup_seconds"] = summarize(raw_setup)
    report["paced_setup_seconds"] = summarize(paced_setup)
    metrics = {
        "throughput_per_s": report["paced_throughput_per_s"].get("median", 0.0),
        "setup_s": statistics.median(paced_setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return session, metrics, report


def trace(prunelab, workload, seed, seconds, work_dir):
    """The traced run: per-layer metrics, alternating with untraced cycles.

    The tracing overhead compares paced cycle times; the pacer's samples
    (about 0.5% of the time) fall inside whichever span is open.
    """
    import pace
    import tracing
    tracer = tracing.Tracer()
    with tracing.Instrumentation(prunelab, tracer) as inst:
        fixture = workload.setup(seed, work_dir)
    missing = inst.missing
    setup_totals = {k: v for k, v in tracer.total_s.items() if isinstance(k, str)}
    pacer = pace.Pacer()
    session = Session(workload, fixture, pacer)
    untraced, traced, per_cycle, tables = [], [], [], []
    start = time.perf_counter()
    while not traced or not untraced or time.perf_counter() - start < seconds:
        if len(untraced) <= len(traced):
            with pacer:
                results = session.run_operations()
            untraced.append(session.settle(results))
            continue
        tracer.new_cycle(f"cycle{len(traced)}")
        with pacer, tracing.Instrumentation(prunelab, tracer):
            results = session.run_operations()
        per_cycle.append(tracing.cycle_metrics(tracer, setup_totals))
        tables.append(tracing.node_table(tracer))
        traced.append(session.settle(results))
    metrics = {name: statistics.median(c[name] for c in per_cycle)
               for name, _, _ in tracing.PER_LAYER_METRICS if name in per_cycle[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    counters = {name: per_cycle[0][name] for name in tracing.EXACT_COUNTERS}
    repeat = all(c[name] == counters[name] for c in per_cycle for name in tracing.EXACT_COUNTERS)
    for name in tracing.EXACT_COUNTERS:
        metrics[name] = counters[name]
    nodes = {node: (tables[0][node][0],
                    statistics.median(t[node][1] for t in tables),
                    statistics.median(t[node][2] for t in tables))
             for node in tables[0]}
    report = session.report()
    report.update({
        "untraced_cycle_seconds": summarize(untraced),
        "traced_cycle_seconds": summarize(traced),
        "counters": counters,
        "counters_repeat_across_cycles": repeat,
        "node_table": {"model": workload.model, "nodes": nodes},
        "missing_wrappers": missing,
    })
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"spans-{workload.name}-seed{seed}.csv.gz")
    return session, metrics, report


def _print_summary(workload, metrics, units, report):
    print(f"workload {workload.name}: {workload.why}")
    print(f"  work item: {workload.item}; cycles: {report['cycles']}; "
          f"attempted {report['attempted']}, failed {report['failed']}, "
          f"error_rate {report['error_rate']}")
    for problem in report["problems"]:
        print(f"  FAILED: {problem}")
    if report.get("counters_repeat_across_cycles") is False:
        print("  WARNING: exact counters differ between traced cycles")
    if report.get("missing_wrappers"):
        print(f"  not traced (absent from the package): {', '.join(report['missing_wrappers'])}")
    detail = {"throughput_per_s": report["paced_throughput_per_s"],
              "setup_s": report.get("paced_setup_seconds")}
    for name, value in metrics.items():
        extra = detail.get(name)
        extra = (f"  [n={extra['n']} q1={extra.get('q1', 0):.6g} q3={extra.get('q3', 0):.6g}]"
                 if extra and extra.get("n") else "")
        print(f"  {name:48s} {value:14.6g} {units[name]}{extra}")
    if "raw_setup_seconds" in report and report["raw_throughput_per_s"].get("n"):
        print(f"  raw throughput median {report['raw_throughput_per_s']['median']:.6g} 1/s, "
              f"raw set-up median {report['raw_setup_seconds']['median']:.6g} s, "
              f"machine slowdown median x{report['slowdown']['median']:.3f}")
    if "node_table" in report:
        table = report["node_table"]
        total = sum(fwd + bwd for _, fwd, bwd in table["nodes"].values()) or 1.0
        print(f"  per-node seconds per cycle, model {table['model']} "
              f"(tracing overhead x{metrics['trace.overhead_ratio']:.3f}):")
        print(f"    {'node':10s} {'kind':13s} {'forward_s':>10s} {'backward_s':>10s} {'share':>6s}")
        for node, (kind, fwd, bwd) in table["nodes"].items():
            print(f"    {node:10s} {kind:13s} {fwd:10.4f} {bwd:10.4f} {(fwd + bwd) / total:6.1%}")


def run_one(name, seed, seconds, trace_on):
    prunelab = _import_package()
    import tracing
    import workloads
    workload = workloads.WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT_DIR)
    try:
        if trace_on:
            session, metrics, report = trace(prunelab, workload, seed, seconds, work_dir)
            units = {n: u for n, u, _ in tracing.PER_LAYER_METRICS}
        else:
            session, metrics, report = measure(workload, seed, seconds, work_dir)
            units = {n: u for n, u, _ in END_TO_END_METRICS}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    report.update({"workload": name, "why": workload.why, "item": workload.item,
                   "seconds": seconds, "trace": int(trace_on), "environment": environment(seed),
                   "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}})
    with open(OUT_DIR / f"report-{name}-seed{seed}-trace{int(trace_on)}.json", "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    env = report["environment"]
    print(f"environment: python {env['python']}, numpy {env['numpy']}, {env['blas']} "
          f"{env['blas_version']} with {env['blas_threads']} thread(s), nproc {env['nproc']}, "
          f"seed {seed}")
    _print_summary(workload, metrics, units, report)
    return {"correct": session.failed == 0, "attempted": session.attempted,
            "failed": session.failed,
            "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units}}


def run_all(seed, seconds, trace_on):
    """Every workload, each in its own child process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace_on))],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(child.stderr, file=sys.stderr)
            sys.exit(child.returncode or 1)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    if not trace_on:
        print(f"{'workload':20s} " + " ".join(f"{n:>22s}" for n, _, _ in END_TO_END_METRICS))
        for name in WORKLOAD_NAMES:
            cells = [combined["metrics"][f"{name}.{n}"] for n, _, _ in END_TO_END_METRICS]
            print(f"{name:20s} " + " ".join(f"{c['value']:>16.6g} {c['unit']:>5s}" for c in cells))
    return combined


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="time to spend repeating the workload's cycle (at least one cycle)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
