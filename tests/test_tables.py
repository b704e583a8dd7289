"""The three table files (importance, plan, sweep) fail closed.

Generated-input properties mutate valid files (flipped bytes, truncation,
duplicated or dropped fields and lines) and check that from_csv either loads
the result or raises FormatError, and that `prunelab prune` given a mutated
importance table exits with a documented code and no traceback.  Another
builds tables from generated rows, some broken on purpose: a table that
builds loads back from its file, and rows its constructor refuses write none.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunelab import cli
from prunelab.checkpoint import save_model
from prunelab.errors import FormatError, InputError
from prunelab.harness import SweepResult
from prunelab.importance import ESTIMATORS, SOURCE_KINDS, ImportanceTable
from prunelab.nn import INPUT, Flatten, Linear, Model, ReLU, Site
from prunelab.pruning import PrunePlan, rank_global

from helpers import mutate

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


SITES = ("a", "b,c", 'd"\u00e9')
METADATA = (("taylorfo", "loss", False, 4, 0), ("molchanov_group", "random", True, 1, 2**64 - 1),
            ("random_rank", "none", False, 0, 3))
BREAKS = {"importance": ("empty", "uncovered", "site_on_two_nodes", "two_sites_on_one_node"),
          "plan": ("empty", "uncovered", "site_on_two_nodes", "two_sites_on_one_node", "rank", "emptied_site"),
          "sweep": ("empty", "accuracy")}
scores = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def table_cases(draw):
    """(kind, constructor args, refused): rows of one table, intact or broken one way the constructor refuses."""
    kind = draw(st.sampled_from(FORMATS))
    broken = draw(st.sampled_from((None,) + BREAKS[kind]))
    if kind == "sweep":
        rows = draw(st.lists(st.tuples(st.sampled_from(ESTIMATORS), st.sampled_from(SOURCE_KINDS), st.booleans(),
                                       st.integers(1, 10**6), st.integers(0, 10**6), st.floats(0, 1),
                                       st.floats(0, 1), st.integers(0, 2**64 - 1)), min_size=1, max_size=4))
        if broken == "accuracy":
            rows[0] = rows[0][:6] + (1.5,) + rows[0][7:]
        args = (rows,)
    else:
        sizes = draw(st.lists(st.integers(1, 3), min_size=1 + (broken == "two_sites_on_one_node"), max_size=3))
        sizes[0] += broken == "site_on_two_nodes"
        nodes = draw(st.permutations(range(len(sizes))))
        rows = [[SITES[i], nodes[i], c, draw(scores)] for i, n in enumerate(sizes) for c in range(n)]
        if broken == "uncovered":  # channel n of an n-channel site, so one of 0..n-1 goes missing
            row = rows[draw(st.integers(0, len(rows) - 1))]
            row[2] = sizes[SITES.index(row[0])]
        if broken == "site_on_two_nodes":
            rows[0][1] = len(sizes)
        if broken == "two_sites_on_one_node":
            for row in rows[sizes[0]:sizes[0] + sizes[1]]:
                row[1] = nodes[0]
        rows = [tuple(row) for row in draw(st.permutations(rows))]
        if kind == "importance":
            args = (rows, *draw(st.sampled_from(METADATA)))
        else:
            kept = set()  # each site keeps its first row in rank order, unless the break prunes site a's every row
            entries = []
            for rank, (site_id, node_index, channel, score) in enumerate(rows):
                pruned = broken == "emptied_site" and site_id == SITES[0] or site_id in kept and draw(st.booleans())
                kept.add(site_id)
                entries.append((rank, site_id, node_index, channel, score, pruned))
            if broken == "rank":
                k = draw(st.integers(0, len(entries) - 1))
                entries[k] = (len(entries),) + entries[k][1:]
            args = (entries,)
    if broken == "empty":
        args = ([],) + args[1:]
    return kind, args, broken is not None


def kept_state(table):
    """What a table's file must give back: its rows, and an importance table's metadata or a plan's P and skips."""
    if isinstance(table, SweepResult):
        return table.rows
    if isinstance(table, PrunePlan):
        return table.entries, table.p, table.skipped
    return table.entries, table.estimator, table.source, table.normalized, table.data_size, table.seed


@settings(max_examples=600, deadline=None, derandomize=True)
@given(case=table_cases())
def test_a_table_that_builds_loads_back_and_refused_rows_write_no_file(workdir, case):
    kind, args, refused = case
    path = workdir / "built.csv"
    path.unlink(missing_ok=True)
    if refused:
        with pytest.raises(InputError):
            CLASSES[kind](*args).to_csv(path)
        assert not path.exists()
    else:
        table = CLASSES[kind](*args)
        table.to_csv(path)
        assert kept_state(CLASSES[kind].from_csv(path)) == kept_state(table)


@pytest.mark.parametrize("kind", ["plan", "sweep"])
def test_a_built_plan_or_sweep_cannot_change(workdir, kind):
    # a plan's p, skipped and mask() are read off its rows when it is built: an edited row would leave them stale
    table = CLASSES[kind].from_csv(workdir / f"{kind}.csv")
    rows = table.entries if kind == "plan" else table.rows
    before = kept_state(table)
    with pytest.raises(TypeError, match="does not support item assignment"):
        rows[1] = rows[0]
    with pytest.raises(AttributeError):
        rows.append(rows[0])
    assert kept_state(table) == before
