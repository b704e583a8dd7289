"""Tests of tools/digest.py's small set: run twice, it gives one manifest, and
under the environment it was recorded in, the committed manifest
tools/digest_small.json, output by output."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"
SCRIPT = TOOLS / "digest.py"
COMMITTED = TOOLS / "digest_small.json"


def run_digest(path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    subprocess.run([sys.executable, str(SCRIPT), "--small", "--out", str(path)], env=env,
                   capture_output=True, check=True)
    return path.read_text()


@pytest.fixture(scope="module")
def small_manifest(tmp_path_factory):
    return run_digest(tmp_path_factory.mktemp("digest") / "small.json")


def test_small_manifest_repeats_byte_for_byte(small_manifest, tmp_path):
    assert run_digest(tmp_path / "again.json") == small_manifest
    manifest = json.loads(small_manifest)
    assert set(manifest["environment"]) == {"python", "numpy", "blas", "blas_version", "blas_threads",
                                            "machine", "nproc", "malloc_pinned"}
    names = manifest["sha256"]
    # 3 models x 2 dtypes x 2 batches x 4 outputs; (3 models x 5 estimators - 1) x 2 sources
    # x 2 normalize x 2 batches; one masked checkpoint per CNN; unmasked logits per model and
    # masked logits per CNN; one sweep CSV; 3 set-up files and 4 per CLI prune count
    parts = ("train/", "table/", "masked/", "logits/", "sweep/", "cli/")
    assert [sum(n.startswith(part) for n in names) for part in parts] == [48, 112, 2, 5, 1, 19]


def test_small_manifest_matches_the_committed_one(small_manifest):
    # a change that means to change output bytes regenerates the committed file:
    #   PYTHONPATH=src python tools/digest.py --small --out tools/digest_small.json
    fresh, committed = json.loads(small_manifest), json.loads(COMMITTED.read_text())
    env, recorded = fresh["environment"], committed["environment"]
    differing = sorted(k for k in env.keys() | recorded.keys() if env.get(k) != recorded.get(k))
    if differing:
        pytest.skip(f"environment differs from {COMMITTED.name} in {', '.join(differing)}")
    want, got = committed["sha256"], fresh["sha256"]
    changed = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not changed, f"{len(changed)} outputs differ from {COMMITTED.name}: {', '.join(changed)}"
