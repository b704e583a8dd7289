"""Command-line front end: train, importance, prune, sweep, eval.

`main` loads the config once for every subcommand: an optional `--config`
file (flat `key = value` text), with command-line flags taking precedence over
config values.  A flag must pass the rule of the config key it overrides, and a
bad flag value is a usage error where a bad or unreadable config file is a
config error.  Every command that reads a dataset gets it from one function:
the IDX pair (`--images`/`--labels`), or without `--images` the split it
needs (train for train and importance, test for eval, both for sweep) from the
synthetic glyph generator configured by the dataset fields of the config; a
split is rendered only when the command reads it.

The `importance` subcommand writes one table, so its config keys
estimators, sources, normalize and data_sizes must each hold one value (a
flag replaces the key's list).  With `--source random` it needs no labels at
all: an images-only IDX file is enough, and any labels that do exist are
ignored.

Exit codes: 0 success, 1 usage error, 2 config error, 3 runtime failure (running
out of memory too).
Errors print to standard error.
"""

import argparse
import sys

from . import data, harness
from .checkpoint import load_model, save_model
from .errors import (
    CapabilityError,
    ConfigError,
    FormatError,
    InputError,
    ShapeError,
    StateError,
    TrainingError,
)
from .importance import ESTIMATORS, LOSS, RANDOM, GradientSource, ImportanceTable, estimate
from .pruning import compact, rank_global


class UsageError(Exception):
    """Flag values and combinations argparse alone cannot catch."""


# flag -> the config key it overrides; a list key gets the one-item list
_FLAG_KEYS = {"seed": "seed", "estimator": "estimators", "source": "sources", "normalize": "normalize",
              "data_size": "data_sizes", "prune_count": "prune_counts", "prune_fraction": "prune_fractions"}


def _load_config(args):
    config = harness.ExperimentConfig.from_file(args.config) if args.config else harness.ExperimentConfig()
    overrides = {key: value if key == "seed" else (value,) for flag, key in _FLAG_KEYS.items()
                 if (value := getattr(args, flag, None)) is not None}
    if "prune_counts" in overrides or "prune_fractions" in overrides:  # a prune flag replaces both keys
        overrides = {"prune_counts": None, "prune_fractions": None, **overrides}
    try:
        return config.replace(**overrides)
    except ConfigError as e:
        raise UsageError(f"bad flag value: {e}") from None


def _dataset(args, config, split, labels=True):
    """The IDX pair, (images, None) from images alone where the command needs no
    labels, or without --images (sweep has no such flag) the config's glyph split."""
    if not getattr(args, "images", None):
        return harness.build_split(config, split)
    if not labels:
        return data.load_idx_images(args.images), None
    if not args.labels:
        raise UsageError("--images needs --labels here; only importance with --source random is label-free")
    return data.load_idx(args.images, args.labels, split=split)


def _cmd_train(args, config):
    trained, log = harness.train(harness.build_model(config), _dataset(args, config, "train"), config)
    for entry in log:
        print(f"epoch {entry.epoch}: loss {entry.loss:.6f} accuracy {entry.accuracy:.4f}")
    save_model(args.out, trained)
    print(f"saved checkpoint to {args.out}")
    return 0


def _cmd_importance(args, config):
    for key in ("estimators", "sources", "normalize", "data_sizes"):
        if len(getattr(config, key)) != 1:
            raise ConfigError(f"{key} must hold one value for importance, got {getattr(config, key)}")
    model = load_model(args.checkpoint) if args.checkpoint else harness.build_model(config)
    source = GradientSource(config.sources[0], normalize=config.normalize[0], seed=config.seed)
    dataset = _dataset(args, config, "train", labels=source.kind == LOSS)
    table = estimate(model, dataset, config.data_sizes[0], config.estimators[0], source)
    table.to_csv(args.out)
    print(f"wrote {len(table)} scores to {args.out}")
    return 0


def _cmd_prune(args, config):
    model = load_model(args.checkpoint)
    table = ImportanceTable.from_csv(args.table)
    total = len(table)
    p = harness.prune_counts(config, total)[-1]  # [0, P] from the one prune flag, or [0] when P is 0
    plan = rank_global(table, p, per_layer_normalize=args.per_layer_normalize)
    if args.plan:
        plan.to_csv(args.plan)
    small = compact(model, plan.mask())
    save_model(args.out, small)
    print(f"pruned {p} of {total} channels; parameters {model.param_count()} -> {small.param_count()}")
    return 0


def _cmd_sweep(args, config):
    model = load_model(args.checkpoint) if args.checkpoint else harness.build_model(config)
    train_set, test_set = (_dataset(args, config, split) for split in data.SPLITS)
    if not args.checkpoint:
        model, _ = harness.train(model, train_set, config)
    result = harness.prune_sweep(model, train_set, test_set, config)
    result.to_csv(args.out)
    print(f"wrote {len(result)} rows to {args.out}")
    return 0


def _cmd_eval(args, config):
    model = load_model(args.checkpoint)
    accuracy = harness.evaluate(model, _dataset(args, config, "test"), config.eval_batch_size)
    print(f"accuracy {accuracy!r}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(f"{accuracy!r}\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="prunelab",
        description="Channel importance estimation and structured pruning experiments.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value config file")
    common.add_argument("--seed", type=int, help="override the config seed")
    subs = parser.add_subparsers(dest="command", metavar="command")

    sp = subs.add_parser("train", parents=[common], help="fit a model and save a checkpoint")
    sp.add_argument("--images", help="IDX training images (default: synthetic glyphs)")
    sp.add_argument("--labels", help="IDX training labels")
    sp.add_argument("--out", required=True, help="checkpoint output path")
    sp.set_defaults(func=_cmd_train)

    sp = subs.add_parser("importance", parents=[common], help="estimate channel importance to CSV")
    sp.add_argument("--checkpoint", help="model checkpoint (default: fresh model from config)")
    sp.add_argument("--images", help="IDX images (default: synthetic glyphs)")
    sp.add_argument("--labels", help="IDX labels; optional for --source random")
    sp.add_argument("--estimator", choices=list(ESTIMATORS))
    sp.add_argument("--source", choices=[LOSS, RANDOM])
    sp.add_argument("--normalize", action="store_true", default=None, help="unit-normalize output gradients")
    sp.add_argument("--data-size", type=int, help="number of examples D")
    sp.add_argument("--out", required=True, help="importance table CSV path")
    sp.set_defaults(func=_cmd_importance)

    sp = subs.add_parser("prune", parents=[common], help="rank, prune and compact a checkpoint")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--table", required=True, help="importance table CSV")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--prune-count", type=int, help="channels to remove")
    group.add_argument("--prune-fraction", type=float, help="fraction of channels to remove")
    sp.add_argument("--per-layer-normalize", action="store_true",
                    help="divide each site's scores by its max before ranking")
    sp.add_argument("--plan", help="also write the ranking plan CSV here")
    sp.add_argument("--out", required=True, help="compacted checkpoint output path")
    sp.set_defaults(func=_cmd_prune)

    sp = subs.add_parser("sweep", parents=[common], help="run the prune-vs-accuracy grid")
    sp.add_argument("--checkpoint", help="trained checkpoint (default: train per config first)")
    sp.add_argument("--out", required=True, help="sweep result CSV path")
    sp.set_defaults(func=_cmd_sweep)

    sp = subs.add_parser("eval", parents=[common], help="measure test accuracy of a checkpoint")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--images", help="IDX test images (default: synthetic test split)")
    sp.add_argument("--labels", help="IDX test labels")
    sp.add_argument("--out", help="also write the accuracy to this file")
    sp.set_defaults(func=_cmd_eval)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args, _load_config(args))
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (InputError, ShapeError, FormatError, StateError, CapabilityError,
            TrainingError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:  # numpy's names the allocation it could not make
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
