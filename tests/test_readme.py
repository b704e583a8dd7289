"""Every fenced python block of README.md runs, so the documented library
example cannot go stale, the config-key table lists exactly the
ExperimentConfig fields with their defaults, and every name the library
table lists is an attribute of its row's module."""

import contextlib
import importlib
import io
import pathlib
import re

import pytest

from prunelab import harness

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(block):
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(block, str(README), "exec"), {})



def config_table():
    """{key: default text} from the README's config-key table."""
    table = README.read_text(encoding="utf-8").split("### Config keys", 1)[1].split("\n\n")[1]
    return {row.split(" | ")[0].strip("| `"): row.split(" | ")[1] for row in table.splitlines()[2:]}


def test_config_table_lists_every_field_with_its_default():
    table = config_table()
    assert list(table) == list(harness._FIELDS)
    for key, (parse, default, _) in harness._FIELDS.items():
        shown = table[key]
        assert (None if shown == "unset" else parse(shown.strip("`"))) == default, key


def library_table():
    """[(module, backticked names)] from the README's "Library" table."""
    table = README.read_text(encoding="utf-8").split("## Library", 1)[1].split("\n\n")[1]
    rows = [row.split(" | ") for row in table.splitlines()[2:]]
    return [(module.strip("| `"), re.findall(r"`([^`]+)`", contents)) for module, contents in rows]


def test_library_table_lists_every_module():
    assert [module for module, _ in library_table()] == [
        f"prunelab.{name}" for name in ("nn", "importance", "pruning", "data", "harness", "checkpoint", "cli")]


@pytest.mark.parametrize("module,names", library_table(), ids=[module for module, _ in library_table()])
def test_library_table_names_resolve(module, names):
    found = importlib.import_module(module)
    assert names
    assert [name for name in names if not hasattr(found, name)] == []
