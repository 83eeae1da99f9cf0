"""Run the committed mutation catalogue against the test suite.

    python3 tools/mutants.py

Each entry of `tools/mutants.json` names a file under `src/`, an exact
text that occurs once in `src/`, the text that replaces it, and the pytest
arguments that should fail on the edited copy.  `src/`, `tests/` and
`pyproject.toml` are copied once into a temporary directory; every mutant
is applied there alone, its selection is run with `-x`, and the file is
restored.  A mutant whose selection fails (or runs past TIMEOUT_S) is
killed; one whose selection passes survived.  An entry may mark the
mutant `equivalent`, with the reason no input can tell it apart.

The exit code is 0 when every unmarked mutant is killed and every marked
one survives, 1 otherwise, and 2 when the catalogue is broken or an
unmutated selection already fails.  `tests/test_mutants.py` checks that
the catalogue still applies (old text once in `src/`, test files present).
Standard library only.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
CATALOGUE = REPO / "tools" / "mutants.json"
FIELDS = ("name", "file", "old", "new", "tests", "equivalent")
TIMEOUT_S = 120.0  # a mutant's run past this counts as killed


def load(path: Path = CATALOGUE) -> list[dict]:
    return json.loads(path.read_text(encoding="utf-8"))


def catalogue_problems(entries: list[dict], root: Path = REPO) -> list[str]:
    """Everything that keeps the catalogue from being run as written."""
    problems = []
    sources = {p: p.read_text(encoding="utf-8") for p in (root / "src").rglob("*.py")}
    names = [entry.get("name") for entry in entries]
    for entry in entries:
        name = entry.get("name")
        if sorted(entry) != sorted(FIELDS):
            problems.append(f"{name}: fields {sorted(entry)}, expected {sorted(FIELDS)}")
            continue
        if names.count(name) != 1:
            problems.append(f"{name}: name is not unique")
        if entry["old"] == entry["new"]:
            problems.append(f"{name}: old and new text are the same")
        hits = {p: text.count(entry["old"]) for p, text in sources.items() if entry["old"] in text}
        if list(hits.values()) != [1] or root / entry["file"] not in hits:
            where = {str(p.relative_to(root)): n for p, n in hits.items()}
            problems.append(f"{name}: old text must occur once in src/, in {entry['file']}; "
                            f"found {where}")
        files = [arg.split("::")[0] for arg in entry["tests"] if arg.startswith("tests/")]
        if not files:
            problems.append(f"{name}: the selection names no file under tests/")
        problems += [f"{name}: no test file {f}" for f in files if not (root / f).is_file()]
        if entry["equivalent"] is not None and not str(entry["equivalent"]).strip():
            problems.append(f"{name}: an equivalent mutant needs its reason")
    return problems


def _pytest(root: Path, args: list[str]) -> str:
    """'passed', 'failed' or 'timeout' for one pytest run in `root`."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args]
    try:
        proc = subprocess.run(command, cwd=root, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    if proc.returncode not in (0, 1, 2):  # 2: collection failed on the mutant
        raise RuntimeError(f"pytest {' '.join(args)} exited {proc.returncode}:\n"
                           + proc.stdout.decode(errors="replace")[-2000:])
    return "passed" if proc.returncode == 0 else "failed"


def main() -> int:
    entries = load()
    problems = catalogue_problems(entries)
    for problem in problems:
        print(f"catalogue: {problem}")
    if problems:
        return 2

    counts = {"killed": 0, "survived": 0, "equivalent": 0, "wrong": 0}
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(REPO / part, root / part, ignore=ignore)
        shutil.copy2(REPO / "pyproject.toml", root / "pyproject.toml")
        for selection in {tuple(entry["tests"]) for entry in entries}:
            if _pytest(root, list(selection)) != "passed":
                print(f"unmutated selection fails: {' '.join(selection)}")
                return 2
        for entry in entries:
            path = root / entry["file"]
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(entry["old"], entry["new"]), encoding="utf-8")
            t0 = time.perf_counter()
            try:
                outcome = _pytest(root, entry["tests"])
            finally:
                path.write_text(original, encoding="utf-8")
            survived = outcome == "passed"
            if entry["equivalent"] is not None:
                status = "equivalent" if survived else "wrong"  # the mark no longer holds
            else:
                status = "survived" if survived else "killed"
            counts[status] += 1
            note = " (timeout)" if outcome == "timeout" else ""
            print(f"{status:10} {time.perf_counter() - t0:6.1f} s  {entry['name']}{note}")
    print(json.dumps({"entries": len(entries), **counts,
                      "seconds": round(time.perf_counter() - started, 1)}))
    return 1 if counts["survived"] or counts["wrong"] else 0


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit("usage: python3 tools/mutants.py  (takes no arguments)")
    sys.exit(main())
