"""The three table files (importance, plan, sweep) fail closed.

Generated-input properties mutate valid files (flipped bytes, truncation,
duplicated or dropped fields and lines) and check that from_csv either loads
the result or raises FormatError, and that `prunelab prune` given a mutated
importance table exits with a documented code and no traceback.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunelab import cli
from prunelab.checkpoint import save_model
from prunelab.errors import FormatError
from prunelab.harness import SweepResult
from prunelab.importance import ImportanceTable
from prunelab.nn import INPUT, Flatten, Linear, Model, ReLU, Site
from prunelab.pruning import PrunePlan, rank_global

FORMATS = ("importance", "plan", "sweep")
CLASSES = {"importance": ImportanceTable, "plan": PrunePlan, "sweep": SweepResult}

# the default csv.field_size_limit
FIELD_LIMIT = 131072


def tiny_model():
    nodes = [
        Flatten("flat", [INPUT]),
        Linear("fc1", [0], 4, 3),
        ReLU("r1", [1]),
        Linear("fc2", [2], 3, 3),
        ReLU("r2", [3]),
        Linear("out", [4], 3, 2),
    ]
    return Model(nodes, (1, 2, 2), 2, [Site("fc1", 1, 3), Site("fc2", 3, 3)])


def tiny_table():
    scores = np.random.default_rng(0).normal(size=6)
    entries = [(site, node, c, float(scores[3 * k + c]))
               for k, (site, node) in enumerate((("fc1", 1), ("fc2", 3))) for c in range(3)]
    return ImportanceTable(entries, "taylorfo_abs", "random", True, 8, 3)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A checkpoint and one valid file per table format."""
    root = tmp_path_factory.mktemp("tables")
    save_model(root / "model.npkt", tiny_model())
    table = tiny_table()
    table.to_csv(root / "importance.csv")
    rank_global(table, 2).to_csv(root / "plan.csv")
    SweepResult([("taylorfo", "loss", False, 8, 0, 0.0, 0.75, 0),
                 ("taylorfo", "random", True, 8, 2, 1 / 3, 0.5, 1)]).to_csv(root / "sweep.csv")
    return root


EDITS = ("flip", "truncate", "dup_field", "drop_field", "dup_line", "drop_line")
edits = st.lists(st.tuples(st.sampled_from(EDITS), st.integers(0, 10**6), st.integers(1, 255)),
                 min_size=1, max_size=4)


def mutate(raw, edit_list):
    """Apply (edit, position, byte) edits; positions wrap around the file."""
    for edit, at, byte in edit_list:
        if edit == "flip":
            if raw:
                i = at % len(raw)
                raw = raw[:i] + bytes([raw[i] ^ byte]) + raw[i + 1:]
        elif edit == "truncate":
            raw = raw[: at % (len(raw) + 1)]
        else:
            lines = raw.split(b"\n")
            i = at % len(lines)
            if edit == "dup_line":
                lines.insert(i, lines[i])
            elif edit == "drop_line":
                del lines[i]
            else:
                fields = lines[i].split(b",")
                j = byte % len(fields)
                if edit == "dup_field":
                    fields.insert(j, fields[j])
                else:
                    del fields[j]
                lines[i] = b",".join(fields)
            raw = b"\n".join(lines)
    return raw


def damaged(raw, damage):
    header, first, rest = raw.split(b"\n", 2)
    if damage == "non_utf8":
        first = first + b"\xff\xfe"
    else:
        fields = first.split(b",")
        fields[1] = b"9" * (FIELD_LIMIT + 1)
        first = b",".join(fields)
    return b"\n".join([header, first, rest])


@pytest.mark.parametrize("kind", FORMATS)
def test_valid_files_load(workdir, kind):
    assert len(CLASSES[kind].from_csv(workdir / f"{kind}.csv")) > 0


@pytest.mark.parametrize("kind", FORMATS)
@pytest.mark.parametrize("damage", ["non_utf8", "oversized_field"])
def test_unreadable_file_is_format_error(workdir, tmp_path, kind, damage):
    path = tmp_path / "bad.csv"
    path.write_bytes(damaged((workdir / f"{kind}.csv").read_bytes(), damage))
    with pytest.raises(FormatError, match="bad.csv"):
        CLASSES[kind].from_csv(path)


@pytest.mark.parametrize("kind", FORMATS)
@settings(max_examples=500, deadline=None, derandomize=True)
@given(edit_list=edits)
def test_mutated_file_loads_or_is_format_error(workdir, kind, edit_list):
    path = workdir / f"mutated_{kind}.csv"
    path.write_bytes(mutate((workdir / f"{kind}.csv").read_bytes(), edit_list))
    try:
        CLASSES[kind].from_csv(path)
    except FormatError:
        pass


@settings(max_examples=500, deadline=None, derandomize=True)
@given(edit_list=edits)
def test_prune_on_mutated_table_exits_cleanly(workdir, edit_list):
    table = workdir / "mutated_cli.csv"
    table.write_bytes(mutate((workdir / "importance.csv").read_bytes(), edit_list))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["prune", "--checkpoint", str(workdir / "model.npkt"), "--table", str(table),
                         "--prune-count", "2", "--plan", str(workdir / "mutated_plan.csv"),
                         "--out", str(workdir / "small.npkt")])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
