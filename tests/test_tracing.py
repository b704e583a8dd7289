"""The benchmark's tracer finds every package function it wraps.

``perfbench/tracing.py`` names the functions it times.  A function renamed
or deleted in the package is only reported as "not traced" under
``--trace 1`` and its per-layer metrics read zero, so this test turns that
drift into a failure.  It installs the wrappers and removes them; nothing
runs in between.
"""

import importlib.util
from pathlib import Path

import prunelab

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    with tracing.Instrumentation(prunelab, tracing.Tracer()) as instrumentation:
        assert instrumentation.missing == []
