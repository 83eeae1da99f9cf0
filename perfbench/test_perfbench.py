"""Self-test of the benchmark: one op per workload, untraced and traced.

    python3 -m pytest perfbench

Checks that every metric named in BENCHMARK.json is printed with its
unit, that no op fails at a fixed seed, that the traced replay
reproduces the untraced results, and that a `certify` generation that
exits 1 is retried.  Takes about ten seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_one_op(workload, trace):
    result, preamble = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0  # error_rate = failed / attempted = 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    assert any("no wait time is reported" in line for line in preamble)


def test_certify_retries_a_failed_generation(tmp_path, monkeypatch):
    """A generation that exits 1 is retried with the op's next seed; the
    op then passes and reports the retry."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    try:
        import workloads
    finally:
        del sys.path[:2]
    workload = workloads.WORKLOADS["certify"](0, tmp_path)
    workload.setup()
    real_main = workloads.ef_cli.main
    calls = []

    def first_generation_fails(argv):
        calls.append(argv)
        return 1 if len(calls) == 1 else real_main(argv)

    monkeypatch.setattr(workloads.ef_cli, "main", first_generation_fails)
    result = workload.run_op(0)
    assert result.ok and result.claimed
    assert result.diag["generation_retries"] == 1
    assert [argv[1] for argv in calls] == ["--dim", "--dim", "--verify"]
    assert calls[0][4] != calls[1][4]  # another seed
