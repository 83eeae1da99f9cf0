"""One benchmark process: set up one workload, then measure or trace it.

run.py starts this script once per set-up sample and once for the
measured (or traced) run, so that set-up time and peak memory belong to
one workload.  Modes:

* ``setup``   - import the library and set the workload up, nothing else;
* ``measure`` - set up, then run the closed loop for ``--seconds`` with
  tracing off and report the end-to-end metrics;
* ``trace``   - set up, replay a fixed op prefix untraced and then traced,
  check that both produce identical results, set up once more under the
  tracer, and report the per-layer metrics.

The last line of standard output is one JSON object.
"""

import time

STARTED = time.perf_counter()  # set-up time counts from here: imports included

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _import_library():
    """Import effectframes from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import effectframes

    where = Path(effectframes.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"effectframes was imported from {where}, not from {src}")
    return effectframes


ef = _import_library()

from tracer import MODULES, TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, OpResult  # noqa: E402

# Ops replayed by the traced run: whole cycles, a few hundred ms to ~1 s.
TRACE_OPS = {"reconstruct": 30, "certify": 10, "exact": 20}
TRACE_ROUNDS = 3

# The latency percentiles are taken per block of consecutive ops and then
# averaged over the blocks.  The machine's speed drifts between a fast and
# a slow state that each last ~10-20 s (1.7x apart on the 2-vCPU VM this
# benchmark was built on).  A percentile over a whole run then jumps from
# one state to the other between runs; the mean of per-block percentiles
# moves smoothly with the share of time spent in each state, as ops_per_s
# does.  100 ops per block leave 10 beyond each block's p90.
BLOCK_OPS = 100


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "threads": {
            var: value for var, value in sorted(os.environ.items())
            if var.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))
        },
    }


def run_checked(workload, index: int) -> OpResult:
    """Run one op; an exception is a failed op, not a crashed benchmark."""
    started = time.perf_counter()
    try:
        return workload.run_op(index)
    except Exception as exc:  # counted in `failed` and reported on stderr
        return OpResult(
            False, time.perf_counter() - started, ("error", repr(exc)), claimed=False
        )


def _tally(results) -> dict:
    """attempted/failed/wrong counts; failed and wrong ops go to stderr."""
    for index, r in enumerate(results):
        if r.claimed and not r.ok:
            print(f"op {index}: WRONG RESULT, gate not met", file=sys.stderr)
        elif not r.ok:
            print(f"op {index} failed: {r.digest!r:.300}", file=sys.stderr)
    return {
        "attempted": len(results),
        "failed": sum(not r.ok for r in results),
        "wrong": sum(r.claimed and not r.ok for r in results),
    }


def measure(workload, seconds: float, max_ops: int | None) -> dict:
    """Closed loop over whole cycles until `seconds` have passed."""
    results: list[OpResult] = []
    started = time.perf_counter()
    while True:
        result = run_checked(workload, len(results))
        if result.ok:
            result.digest = ()  # certificates are ~100 KB: keep them out of peak RSS
        results.append(result)
        if len(results) == max_ops:
            break
        if len(results) % workload.cycle == 0 and time.perf_counter() - started >= seconds:
            break
    wall = time.perf_counter() - started
    blocks = _blocks([r.seconds * 1e3 for r in results], workload.cycle)
    p50s = [statistics.median(block) for block in blocks]
    p90s = [_p90(block) for block in blocks]
    passed = sum(r.ok for r in results)
    return {
        **_tally(results),
        "latency_blocks": [len(block) for block in blocks],
        "beyond_p90": sum(x > p90 for block, p90 in zip(blocks, p90s) for x in block),
        "generation_retries": sum(r.diag.get("generation_retries", 0) for r in results),
        "metrics": {
            "ops_per_s": (passed / wall, "ops/s"),
            "latency_p50_ms": (statistics.fmean(p50s), "ms"),
            "latency_p90_ms": (statistics.fmean(p90s), "ms"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB",
            ),
        },
    }


def _blocks(latencies: list, cycle: int) -> list:
    """Consecutive blocks of whole cycles, each of at least BLOCK_OPS ops;
    a short tail joins the last block, so every op is in one block."""
    size = -(-BLOCK_OPS // cycle) * cycle
    blocks = [latencies[i:i + size] for i in range(0, len(latencies), size)]
    if len(blocks) > 1 and len(blocks[-1]) < size:
        blocks[-2] += blocks.pop()
    return blocks


def _p90(latencies: list) -> float:
    return statistics.quantiles(latencies, n=10)[-1] if len(latencies) > 1 else latencies[0]


def _ratio(num: float, den: float) -> float:
    """num/den, reading 0 when the base is 0 (its base is reported too)."""
    return num / den if den else 0.0


def trace(workload_cls, seed: int, workdir: Path, n_ops: int) -> dict:
    workload = workload_cls(seed, workdir / "untraced")
    workload.workdir.mkdir()
    setup_digest = workload.setup()
    ops = range(n_ops)
    reference = [(r.ok, r.digest) for r in (run_checked(workload, i) for i in ops)]

    # Untraced and traced passes alternate, so drift in machine speed
    # does not land on one side of the overhead figure.
    cache = ef.effects.verification_effects
    tracer = Tracer()
    seconds = {False: [], True: []}
    traced: list[OpResult] = []
    same = True
    hits = lookups = 0
    for rnd in range(TRACE_ROUNDS):
        for with_trace in (False, True) if rnd % 2 == 0 else (True, False):
            before = cache.cache_info()
            if with_trace:
                with tracer:
                    results = [run_checked(workload, i) for i in ops]
                after = cache.cache_info()
                hits += after.hits - before.hits
                lookups += after.hits + after.misses - before.hits - before.misses
                traced += results
            else:
                results = [run_checked(workload, i) for i in ops]
            seconds[with_trace].append(sum(r.seconds for r in results))
            same = same and [(r.ok, r.digest) for r in results] == reference

    # Set up again under the tracer, from a cold verification-effect cache.
    cache.cache_clear()
    setup_tracer = Tracer()
    again = workload_cls(seed, workdir / "traced")
    again.workdir.mkdir()
    with setup_tracer:
        setup_digest_traced = again.setup()
    same = same and setup_digest_traced == setup_digest
    if not same:
        print("traced run differs from the untraced run", file=sys.stderr)
    counts = tracer.counts
    self_ns = tracer.self_ns()
    traced_ops = len(traced)
    metrics = {}
    for name in TARGETS:
        metrics[f"{name}.calls"] = (counts[name] / traced_ops, "calls/op")
        metrics[f"{name}.self_ms"] = (self_ns.get(name, 0) / 1e6 / traced_ops, "ms/op")
    memberships = counts["cones.cone_membership"]
    overhead = statistics.median(seconds[True]) / statistics.median(seconds[False])
    metrics.update({
        "cones.cone_membership.admitted_ratio": (
            _ratio(counts["cones.cone_membership.admitted"], memberships), "ratio"),
        "cones.nnls.admitted_ratio": (
            _ratio(counts["cones.nnls.admitted"], counts["cones.nnls"]), "ratio"),
        "cones.intersection_span_certificate.failed_ratio": (
            _ratio(counts["cones.intersection_span_certificate.raised"],
                   counts["cones.intersection_span_certificate"]), "ratio"),
        "effects.verification_effects.hit_ratio": (_ratio(hits, lookups), "ratio"),
        "cauchy.unboundedness_witness.steps": (
            _ratio(counts["cauchy.unboundedness_witness.steps"],
                   counts["cauchy.unboundedness_witness"]), "steps/call"),
        "frames.max_state_distance": (
            max((r.diag.get("state_distance", 0.0) for r in traced), default=0.0), "norm"),
        "cones.max_membership_residual": (
            max((r.diag.get("membership_residual", 0.0) for r in traced), default=0.0),
            "norm"),
        "trace.overhead_pct": ((overhead - 1.0) * 100.0, "%"),
        "trace.ops": (n_ops, "count"),
    })
    setup_self = setup_tracer.self_ns()
    for module in MODULES:
        total = sum(ns for name, ns in setup_self.items() if name.split(".")[0] == module)
        metrics[f"setup.{module}.self_ms"] = (total / 1e6, "ms")
    metrics["setup.operators.eig_hermitian.calls"] = (
        setup_tracer.counts["operators.eig_hermitian"], "calls")
    return {
        **_tally(traced),
        "same_as_untraced": same,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--quick", action="store_true", help="one op, for the self-test")
    args = parser.parse_args()
    workload_cls = WORKLOADS[args.workload]

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        workdir = Path(tmp)
        if args.mode == "trace":
            n_ops = 1 if args.quick else TRACE_OPS[args.workload]
            out = trace(workload_cls, args.seed, workdir, n_ops)
        else:
            workload = workload_cls(args.seed, workdir)
            workload.setup()
            out = {"setup_s": time.perf_counter() - STARTED}
            if args.mode == "measure":
                out.update(measure(workload, args.seconds, 1 if args.quick else None))
    out["environment"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
