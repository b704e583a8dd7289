"""Byte-identity digest: regenerate a fixed set of outputs through the public
API and the CLI, and write the SHA-256 of each one to a JSON manifest.

    PYTHONPATH=src python tools/digest.py --out manifest.json
    PYTHONPATH=src python tools/digest.py --small --out small.json

The set, on the default 4-class glyph data with seed 0 and 3-epoch training:

- each reference model (mlp_small, cnn_small, cnn_residual), trained in
  float32 and float64 at batch 32 and batch 40 (a block of 32 and one of 8):
  its parameters, its batch-norm state, its epoch log and its checkpoint;
- on each float32, batch-32 model, the importance table of every estimator
  x {loss, random} x normalize at D=600, estimated in batches of 32 and 256
  (molchanov_bn is skipped on mlp_small, which has no batch norm);
- on each float32, batch-32 CNN (cnn_small, cnn_residual), the checkpoint of
  a fixed mask through ``apply_mask``: every third channel of each site
  pruned, starting at channel 1;
- the logits bytes of the record-free forward, ``forward(images, "eval",
  record=False)``, on the whole test split: of each float32, batch-32 model,
  and of each CNN under that fixed mask;
- the sweep CSV of the ``sweep_grid`` benchmark's config on cnn_small;
- every file of one ``cli_pipeline`` round trip: ``prunelab train`` of a
  cnn_residual, then importance, prune --plan and eval at P = 5, 11, 17, 23
  on an images-only IDX file.

Every checkpoint is loaded and saved again before it is hashed, and the
script stops with an error unless that writes the same bytes.

``--small`` runs the same set on 8 training and 4 test examples per class,
1 epoch and D=16: a few seconds, for a smoke test.  Its manifest is
committed as ``tools/digest_small.json``; ``tests/test_digest.py`` writes it
again and compares the two output by output wherever the environment record
matches.  A change meant to change output bytes writes the file again.

Two manifests compare with ``diff``, one output a line.  The bytes depend on
numpy's einsum decomposition and on the BLAS, so the manifest records the
environment, and only manifests from one environment compare.  BLAS runs one
thread unless OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS says
otherwise.  To digest another checkout, put its ``src`` on PYTHONPATH.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):  # read when numpy loads the BLAS
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile
import time

import numpy as np

import prunelab
from prunelab import checkpoint, cli, data, harness, importance, pruning, tensor

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))  # the checkout root, for perfbench
from perfbench import run as perfbench_run

MODELS = ("mlp_small", "cnn_small", "cnn_residual")
MASKED_MODELS = ("cnn_small", "cnn_residual")
DTYPES = (np.float32, np.float64)
TRAIN_BATCHES = (32, 40)
TABLE_BATCHES = (32, 256)
CLI_PRUNE_COUNTS = (5, 11, 17, 23)
SIZES = {  # (per_class_train, per_class_test, epochs, D)
    "full": (150, 50, 3, 600),
    "small": (8, 4, 1, 16),
}


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _checkpoint(path):
    """The bytes of a checkpoint, if saving what load_model returns writes them again; else SystemExit."""
    raw = _read(path)
    checkpoint.save_model(path + ".again", checkpoint.load_model(path))
    if _read(path + ".again") != raw:
        raise SystemExit(f"{path}: save_model(load_model(p)) does not write p's bytes")
    return raw


def _trained(key, model, log, work_dir):
    """A trained model's parameters, batch-norm state, epoch log and checkpoint."""
    yield f"{key}/params", b"".join(p.tobytes() for _, _, _, p in model.parameters())
    yield f"{key}/state", b"".join(v.tobytes() for node in model.nodes for v in node.state.values())
    yield f"{key}/log", repr(log).encode()
    path = os.path.join(work_dir, "model.npkt")
    checkpoint.save_model(path, model)
    yield f"{key}/checkpoint", _checkpoint(path)


def _tables(model, name, train_set, d, work_dir):
    for estimator in importance.ESTIMATORS:
        if name == "mlp_small" and estimator == "molchanov_bn":
            continue
        for source in (importance.LOSS, importance.RANDOM):
            for normalize in (False, True):
                for batch in TABLE_BATCHES:
                    gradients = importance.GradientSource(source, normalize=normalize)
                    table = importance.estimate(model, train_set, d, estimator, gradients, batch_size=batch)
                    path = os.path.join(work_dir, "table.csv")
                    table.to_csv(path)
                    yield f"table/{name}/{estimator}/{source}/normalize{int(normalize)}/batch{batch}", _read(path)


def _logits(model, images):
    return model.forward(images, "eval", record=False)[0].tobytes()


def _masked(model, name, test_images, work_dir):
    """A fixed mask on the model: the checkpoint, with its mask bytes on disk, and the logits."""
    mask = pruning.PruneMask({s.site_id: np.arange(s.channels) % 3 != 1 for s in model.sites})
    masked = pruning.apply_mask(model, mask)
    path = os.path.join(work_dir, "masked.npkt")
    checkpoint.save_model(path, masked)
    yield f"masked/{name}/checkpoint", _checkpoint(path)
    yield f"logits/{name}/masked", _logits(masked, test_images)


def _sweep(model, config, d, work_dir):
    config = config.replace(sweep_seeds=(0, 1), estimators=("taylorfo", "taylorfo_sq"),
                            sources=("loss", "random"), normalize=(False,), data_sizes=(10, d))
    train_set, test_set = harness.build_datasets(config)
    path = os.path.join(work_dir, "sweep.csv")
    harness.prune_sweep(model, train_set, test_set, config).to_csv(path)
    yield "sweep/sweep_grid.csv", _read(path)


def _cli(config, d, work_dir):
    def p(name):
        return os.path.join(work_dir, name)

    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(list(argv)) != 0:
                raise SystemExit(f"prunelab {' '.join(argv)} failed")

    with open(p("exp.cfg"), "w") as fh:
        fh.write(f"model = cnn_residual\nepochs = {config.epochs}\nper_class_train = {config.per_class_train}\n"
                 f"per_class_test = {config.per_class_test}\n")
    common = ("--config", p("exp.cfg"))
    run("train", *common, "--out", p("model.npkt"))
    data.save_idx(harness.build_split(config, "train"), p("images.idx"), p("labels.idx"))
    os.remove(p("labels.idx"))
    files = ["exp.cfg", "model.npkt", "images.idx"]
    for count in CLI_PRUNE_COUNTS:
        run("importance", *common, "--checkpoint", p("model.npkt"), "--images", p("images.idx"),
            "--source", "random", "--normalize", "--data-size", str(d), "--out", p(f"scores{count}.csv"))
        run("prune", *common, "--checkpoint", p("model.npkt"), "--table", p(f"scores{count}.csv"),
            "--prune-count", str(count), "--plan", p(f"plan{count}.csv"), "--out", p(f"small{count}.npkt"))
        run("eval", *common, "--checkpoint", p(f"small{count}.npkt"), "--out", p(f"accuracy{count}.txt"))
        files += [f"scores{count}.csv", f"plan{count}.csv", f"small{count}.npkt", f"accuracy{count}.txt"]
    for name in files:
        yield f"cli/{name}", (_checkpoint if name.endswith(".npkt") else _read)(p(name))


def outputs(size, work_dir):
    """Yield (name, bytes) for every output of the set, in a fixed order."""
    per_class_train, per_class_test, epochs, d = SIZES[size]
    base = harness.ExperimentConfig(per_class_train=per_class_train, per_class_test=per_class_test, epochs=epochs)
    for name in MODELS:
        config = base.replace(model=name)
        train_set, test_set = harness.build_datasets(config)
        for dtype in DTYPES:
            for batch in TRAIN_BATCHES:
                model, log = harness.train(harness.build_model(config).astype(dtype), train_set,
                                           config.replace(batch_size=batch))
                yield from _trained(f"train/{name}/{np.dtype(dtype).name}/batch{batch}", model, log, work_dir)
                if (dtype, batch) == (np.float32, 32):
                    scored = model
        yield from _tables(scored, name, train_set, d, work_dir)
        yield f"logits/{name}/unmasked", _logits(scored, test_set.images)
        if name in MASKED_MODELS:
            yield from _masked(scored, name, test_set.images, work_dir)
        if name == "cnn_small":
            yield from _sweep(scored, base, d, work_dir)
    yield from _cli(base, d, work_dir)


def environment():
    """The environment record of the benchmark's reports, and whether the malloc pin took."""
    env = perfbench_run.environment(seed=None)
    del env["seed"]
    return {**env, "malloc_pinned": tensor.MALLOC_PINNED}


def manifest(size):
    with tempfile.TemporaryDirectory() as work_dir:
        digests = {name: hashlib.sha256(raw).hexdigest() for name, raw in outputs(size, work_dir)}
    return {"set": size, "environment": environment(), "sha256": digests}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="manifest JSON path")
    parser.add_argument("--small", action="store_true", help="the smoke-test sizes")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    result = manifest("small" if args.small else "full")
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(result['sha256'])} outputs of {os.path.dirname(prunelab.__file__)} digested to {args.out} "
          f"in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
