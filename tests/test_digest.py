"""Smoke test of tools/digest.py: its small set, run twice, gives one manifest."""

import json
import os
import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "tools" / "digest.py"


def run_digest(path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    subprocess.run([sys.executable, str(SCRIPT), "--small", "--out", str(path)], env=env,
                   capture_output=True, check=True)
    return path.read_text()


def test_small_manifest_repeats_byte_for_byte(tmp_path):
    first = run_digest(tmp_path / "a.json")
    assert run_digest(tmp_path / "b.json") == first
    manifest = json.loads(first)
    assert set(manifest["environment"]) == {"python", "numpy", "blas", "blas_version", "blas_threads",
                                            "machine", "nproc", "malloc_pinned"}
    names = manifest["sha256"]
    # 3 models x 2 dtypes x 2 batches x 4 outputs; (3 models x 5 estimators - 1) x 2 sources
    # x 2 normalize x 2 batches; one masked checkpoint per CNN; unmasked logits per model and
    # masked logits per CNN; one sweep CSV; 3 set-up files and 4 per CLI prune count
    parts = ("train/", "table/", "masked/", "logits/", "sweep/", "cli/")
    assert [sum(n.startswith(part) for n in names) for part in parts] == [48, 112, 2, 5, 1, 19]
