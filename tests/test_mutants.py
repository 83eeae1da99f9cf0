"""The committed mutation catalogue (`tools/mutants.py`) stays applicable.

Running the catalogue takes minutes and stays out of this suite; what is
checked here is that every entry still names text found exactly once in
`src/`, so a refactor cannot leave an entry silently pointing at nothing.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"


def _tool():
    spec = importlib.util.spec_from_file_location("mutants_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_catalogue_entry_occurs_once_in_src():
    tool = _tool()
    entries = tool.load()
    assert len(entries) >= 25
    assert tool.catalogue_problems(entries) == []


def test_a_stale_or_ambiguous_entry_is_reported():
    tool = _tool()
    entry = dict(tool.load()[0])
    gone = dict(entry, name="gone", old=entry["old"] + " and more")
    everywhere = dict(entry, name="everywhere", old="def ")
    unnamed = dict(entry, name="unnamed", tests=["-k", "x"])
    problems = tool.catalogue_problems([gone, everywhere, unnamed])
    assert [p.split(":")[0] for p in problems] == ["gone", "everywhere", "unnamed"]
