"""The benchmark's tracer finds every package function it wraps.

``perfbench/tracing.py`` names the functions it times and the node kinds it
reports.  A function renamed or deleted in the package is only reported as
"not traced" under ``--trace 1``, and a node kind renamed or added drops out
of the per-layer metrics, so these tests turn that drift into a failure.  The
first installs the wrappers and removes them; nothing runs in between.  The
last checks that the workloads' data set-up runs through a traced function.
"""

import importlib.util
from pathlib import Path

import pytest

import prunelab
import prunelab.cli  # noqa: F401  the tracer wraps prunelab.cli.main

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists(tracing):
    with tracing.Instrumentation(prunelab, tracing.Tracer()) as instrumentation:
        assert instrumentation.missing == []


def test_every_node_kind_is_traced(tracing):
    assert tracing.NODE_KIND_NAMES == tuple(prunelab.nn.NODE_KINDS)


def test_build_datasets_is_one_traced_make_splits_call(tracing):
    # the per-layer data.make_splits.setup_s reads 0 unless the set-up calls it
    tracer = tracing.Tracer()
    with tracing.Instrumentation(prunelab, tracer):
        prunelab.harness.build_datasets(prunelab.harness.ExperimentConfig(per_class_train=2, per_class_test=1))
    assert tracer.calls["data.make_splits"] == 1
