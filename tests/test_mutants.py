"""The committed mutation catalogue (`tools/mutants.py`) stays applicable.

Running the catalogue takes minutes and stays out of this suite; what is
checked here is that every entry still names text found exactly once in
`src/`, so a refactor cannot leave an entry silently pointing at nothing.
"""

import ast
import importlib.util
import itertools
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


TOLERANCE_FIELDS = {"psd_slack", "residual", "rank_cutoff"}

# Tolerance comparisons that no catalogue entry mutates, as "file: text",
# each with the reason no test can tell it from its 10x looser twin.
EXEMPT: dict[str, str] = {}


def _tolerance_comparisons(root: Path):
    """(path, UTF-8 source, byte span) of each `Compare` naming a tolerance field."""
    for path in sorted((root / "src" / "effectframes").glob("*.py")):
        source = path.read_bytes()
        starts = [0, *itertools.accumulate(map(len, source.splitlines(keepends=True)))]
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Compare) and any(
                    isinstance(n, ast.Attribute) and n.attr in TOLERANCE_FIELDS
                    for n in ast.walk(node)):
                yield path, source, (starts[node.lineno - 1] + node.col_offset,
                                     starts[node.end_lineno - 1] + node.end_col_offset)


def test_every_tolerance_comparison_is_some_entrys_old_text():
    root = TOOL.parents[1]
    entries = _tool().load()
    unguarded = []
    for path, source, (begin, end) in _tolerance_comparisons(root):
        spans = [(at, at + len(old)) for old, at in
                 ((e["old"].encode(), source.find(e["old"].encode()))
                  for e in entries if root / e["file"] == path) if at >= 0]
        name = f"{path.name}: {source[begin:end].decode()}"
        if not any(a <= begin and end <= b for a, b in spans) and name not in EXEMPT:
            unguarded.append(name)
    assert unguarded == []
