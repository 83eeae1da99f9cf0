"""effectframes benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads: reconstruct, certify, exact (see perfbench/README.md).
Every op is checked against its acceptance gate; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones from a separate traced replay.

This launcher pins BLAS/OpenMP to one thread and starts one worker process
per sample (see worker.py), so set-up time and peak memory belong to the
workload alone.  It imports neither numpy nor the library itself.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("reconstruct", "certify", "exact")
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
BUDGET_S = 170.0  # the whole run, all worker processes included

# Set-up samples per run, one of them from the measured process; the
# median is reported.
SETUP_SAMPLES = 3

NO_WAIT_NOTE = (
    "closed loop, one client: nothing in this program queues, so no wait "
    "time is reported"
)


class BenchmarkError(RuntimeError):
    pass


def _worker(mode: str, args, deadline: float) -> dict:
    cmd = [
        sys.executable, str(WORKER), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    if args.quick:
        cmd.append("--quick")
    env = dict(os.environ, **THREAD_ENV)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError(f"no time left for the {mode} process")
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, env=env, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} process exceeded the run budget") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{mode} process exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{mode} process printed no result")
    return json.loads(lines[-1])


def _metrics(raw: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in raw.items()}


def run(args) -> dict:
    deadline = time.monotonic() + BUDGET_S
    if args.trace:
        out = _worker("trace", args, deadline)
        correct = out["same_as_untraced"] and out["wrong"] == 0
        summary = {"environment": out["environment"], "note": NO_WAIT_NOTE}
    else:
        out = _worker("measure", args, deadline)
        samples = [out["setup_s"]]
        while len(samples) < (1 if args.quick else SETUP_SAMPLES):
            samples.append(_worker("setup", args, deadline)["setup_s"])
        out["metrics"]["setup_s"] = (statistics.median(samples), "s")
        correct = out["wrong"] == 0
        summary = {
            "environment": out["environment"],
            "note": NO_WAIT_NOTE,
            "load": "closed loop, 1 client",
            "setup_samples_s": samples,
            "latency_block_ops": out["latency_blocks"],
            "ops_beyond_p90": out["beyond_p90"],
            "generation_retries": out["generation_retries"],
            "error_rate": out["failed"] / out["attempted"],
        }
    print("# " + json.dumps(summary, sort_keys=True))
    return {
        "correct": bool(correct),
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": _metrics(out["metrics"]),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="effectframes benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="one op and one set-up sample (benchmark self-test only)",
    )
    args = parser.parse_args()
    try:
        result = run(args)
    except (BenchmarkError, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
