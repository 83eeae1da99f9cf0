"""The benchmark workloads.

Each workload is a closed loop with one client: op i starts when op i-1
has finished.  The parameters of op i come only from (workload, seed, i),
so any prefix of the op stream is the same on every run with that seed.
An op times the library calls that produce a verified result and then,
outside the timed section, checks that result against the published
acceptance gate.  `digest` holds everything the op produced, so a traced
replay can be compared with an untraced one.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path

import effectframes as ef
import effectframes.cli as ef_cli

STATE_GATE = 1e-8  # criterion 01: ||rho_hat - rho|| <= 1e-8


@dataclass
class OpResult:
    """One op: `ok` when the gate holds; `claimed` when the library reported
    success.  An op that is claimed but not ok is a wrong result; one that
    is not claimed (fail verdict, non-zero exit, exception) only failed."""

    ok: bool
    seconds: float
    digest: tuple = ()
    diag: dict = field(default_factory=dict)
    claimed: bool = True


class Workload:
    name = ""
    # One cycle of op kinds (dimensions).  The weights put p50 and p90 in
    # the middle of a latency class, not near its edge: the class holding
    # p50 spans ranks 20-80% and the slowest class ranks 80-100%.  Drift in
    # machine speed blurs the edges between classes, so a percentile near an
    # edge would jump between classes from run to run.
    sequence: tuple = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    @property
    def cycle(self) -> int:
        """Ops per full pass over the dimension (or op-kind) sequence."""
        return len(self.sequence)

    def rng(self, *key) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:" + ":".join(map(str, key)))

    def setup(self) -> tuple:
        """Build shared state; returns a digest of what was built."""
        raise NotImplementedError

    def run_op(self, index: int) -> OpResult:
        raise NotImplementedError


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


class Reconstruct(Workload):
    """Fresh state and fresh MIC-POM per op (criterion 01 / CLI pattern)."""

    name = "reconstruct"
    sequence = (2, 3, 3, 3, 4)

    def setup(self) -> tuple:
        # One untimed op per dimension warms the verification-effect cache.
        dims = sorted(set(self.sequence))
        return tuple(self._op(d, self.rng("setup", d)).digest for d in dims)

    def _op(self, d: int, rng: random.Random) -> OpResult:
        s_rho, s_mic = _seed(rng), _seed(rng)
        started = time.perf_counter()
        rho = ef.random_density(d, s_rho)
        mic = ef.random_mic_pom(d, s_mic)
        report = ef.reconstruct_density(ef.BornFrame(rho), mic)
        seconds = time.perf_counter() - started
        distance = ef.hs_distance(report.rho_hat, rho.op)
        return OpResult(
            ok=bool(report.verdict) and distance <= STATE_GATE,
            seconds=seconds,
            digest=(report.verdict, report.rho_hat.mat.tobytes(), report.max_deviation),
            diag={"state_distance": distance},
            claimed=bool(report.verdict),
        )

    def run_op(self, index: int) -> OpResult:
        return self._op(self.sequence[index % self.cycle], self.rng(index))


class Certify(Workload):
    """CLI round trip: write a certificate, then verify it from the file.

    `certify-cone` gives up on about 0.4% of seeds at d = 3..5: it exits 1
    with "stage random-ball: only k of d^2 independent witnesses found".
    This is a library defect.  A client that needs a certificate then tries
    another seed, and so does this op: it generates with up to
    GENERATION_TRIES seeds, stopping at the first exit 0, and verifies that
    certificate.  The failed generations count in the op's latency and in
    `generation_retries`, so the defect stays visible in every run, while
    the number of failed ops no longer depends on how many ops a run did.
    """

    name = "certify"
    sequence = (2, 3, 4, 4, 4, 4, 4, 4, 5, 5)
    GENERATION_TRIES = 3

    def setup(self) -> tuple:
        self.cert_path = self.workdir / "cert.json"
        self.report_path = self.workdir / "verify.json"
        return self._op(2, self.rng("setup")).digest

    def _op(self, d: int, rng: random.Random) -> OpResult:
        seeds = [_seed(rng) for _ in range(self.GENERATION_TRIES)]
        sink = io.StringIO()
        cert, report = str(self.cert_path), str(self.report_path)
        checked = None
        started = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for tries, seed in enumerate(seeds, 1):
                made = ef_cli.main(
                    ["certify-cone", "--dim", str(d), "--seed", str(seed), "--out", cert]
                )
                if made != 1:  # 1 is the "verdict fail" exit: try the next seed
                    break
            if made == 0:
                checked = ef_cli.main(["certify-cone", "--verify", cert, "--out", report])
        seconds = time.perf_counter() - started
        retries = {"generation_retries": tries - 1}
        if made != 0 or checked != 0:
            return OpResult(False, seconds, (made, checked), retries, claimed=False)
        verdict = json.loads(self.report_path.read_text(encoding="utf-8"))
        return OpResult(
            ok=verdict["verdict"] == "pass",
            seconds=seconds,
            digest=(self.cert_path.read_bytes(), self.report_path.read_bytes()),
            diag={"membership_residual": verdict["max_membership_residual"], **retries},
        )

    def run_op(self, index: int) -> OpResult:
        return self._op(self.sequence[index % self.cycle], self.rng(index))


def _log_uniform_int(rng: random.Random, top_exponent: float, scale: int = 1) -> int:
    """Integer near scale * 10**u with u uniform in [0, top_exponent]."""
    return max(1, int(scale * 10 ** rng.uniform(0.0, top_exponent)))


def _signed(rng: random.Random, x):
    return x if rng.random() < 0.5 else -x


def _nonzero_fraction(rng: random.Random) -> F:
    return _signed(rng, F(rng.randint(1, 9), rng.randint(1, 9)))


class Exact(Workload):
    """Seeded mix of the exact (Fraction-only) checks in `cauchy`."""

    name = "exact"
    # The ranges (grid n in [800, 1000], Pell k in [200, 300]) give tight
    # latency classes, and the weights put p50 inside the grid class and
    # p90 inside the Pell class, away from the gaps between classes.
    sequence = (
        "grid", "extend-grid", "grid", "pell", "condition",
        "grid", "extend-grid", "grid", "pell", "extend-qsqrt2",
    )

    GRID_STEPS = 24
    TOP_EXPONENT = 10.0  # |x| <= 1e10 keeps minimal_modulus under ~0.1 s

    def setup(self) -> tuple:
        rng = self.rng("setup")
        self.unit = F(rng.randint(1, 30), rng.randint(1, 30))
        self.grid_view = ef.ExtensionView(ef.grid_from_unit(F(1), self.GRID_STEPS, self.unit))
        self.model = ef.QSqrt2Additive(_nonzero_fraction(rng), _nonzero_fraction(rng))
        self.q_view = ef.ExtensionView(self.model)
        return (self.unit, self.model.alpha, self.model.beta)

    def run_op(self, index: int) -> OpResult:
        kind = self.sequence[index % self.cycle]
        return getattr(self, "_" + kind.replace("-", "_"))(self.rng(index))

    def _grid(self, rng):
        a = F(rng.randint(1, 40), rng.randint(1, 12))
        n = rng.randint(800, 1000)
        v = F(rng.randint(-30, 30), rng.randint(1, 16))
        started = time.perf_counter()
        res = ef.check_linear(ef.grid_from_unit(a, n, v))
        seconds = time.perf_counter() - started
        ok = res.is_linear and res.slope == n * v / a
        return OpResult(ok, seconds, (res.is_linear, res.slope))

    def _extend_grid(self, rng):
        # Grid multiples j/24 with |x| log-uniform in [1, 1e10].
        x, y = (
            _signed(rng, F(_log_uniform_int(rng, self.TOP_EXPONENT, self.GRID_STEPS), self.GRID_STEPS))
            for _ in range(2)
        )
        view = self.grid_view
        started = time.perf_counter()
        fx, fy, fxy = view.f_real(x), view.f_real(y), view.f_real(x + y)
        seconds = time.perf_counter() - started
        slope = self.unit * self.GRID_STEPS
        ok = fx + fy == fxy and fx == slope * x and fy == slope * y
        return OpResult(ok, seconds, (fx, fy, fxy))

    def _point(self, rng) -> ef.QSqrt2:
        return ef.QSqrt2(
            F(_signed(rng, _log_uniform_int(rng, self.TOP_EXPONENT)), rng.randint(1, 12)),
            F(_signed(rng, _log_uniform_int(rng, self.TOP_EXPONENT)), rng.randint(1, 12)),
        )

    def _extend_qsqrt2(self, rng):
        u, v = self._point(rng), self._point(rng)
        view = self.q_view
        started = time.perf_counter()
        fu, fv, fuv = view.f_real(u), view.f_real(v), view.f_real(u + v)
        seconds = time.perf_counter() - started
        m = self.model
        ok = fu + fv == fuv and fu == m.alpha * u.p + m.beta * u.q
        return OpResult(ok, seconds, (fu, fv, fuv))

    def _pell(self, rng):
        f = ef.QSqrt2Additive(_nonzero_fraction(rng), _nonzero_fraction(rng))
        bound = F(10) ** rng.randint(200, 300)
        started = time.perf_counter()
        w = ef.unboundedness_witness(f, bound)
        seconds = time.perf_counter() - started
        ok = (
            w.x.sign() > 0
            and w.x <= ef.QSqrt2(F(1), F(0))
            and f(w.x) > bound
            and f(w.x) == w.value
        )
        return OpResult(ok, seconds, (w.x.p, w.x.q, w.value, w.steps))

    def _condition(self, rng):
        if rng.random() < 0.5:
            # A non-linear model is unbounded: the search must refute it.
            f = ef.QSqrt2Additive(_nonzero_fraction(rng), _nonzero_fraction(rng))
            bound = F(10) ** rng.randint(1, 20)
            started = time.perf_counter()
            rep = ef.check_condition(f, "bounded_above", bound=bound)
            seconds = time.perf_counter() - started
            ok = (
                not rep.holds_on_searched
                and rep.witness is not None
                and F(rep.witness["value"]) > bound
            )
            return OpResult(ok, seconds, (rep.holds_on_searched, rep.witness))
        # On a grid f(k a/n) = k v, so each condition has a closed-form answer.
        a = F(rng.randint(1, 40), rng.randint(1, 12))
        n = rng.randint(1, 500)
        v = F(rng.randint(-30, 30), rng.randint(1, 16))
        which = rng.choice(ef.cauchy.CONDITIONS)
        bound = F(rng.randint(-400, 400), rng.randint(1, 9))
        eps = F(rng.randint(1, 40), rng.randint(1, 16))
        expected = {
            "bounded_above": max(0, n * v) <= bound,
            "bounded_below": min(0, n * v) >= bound,
            "continuous_at_zero": abs(v) <= eps,
            "monotone": v >= 0,
        }[which]
        g = ef.grid_from_unit(a, n, v)
        started = time.perf_counter()
        rep = ef.check_condition(g, which, bound=bound, eps=eps)
        seconds = time.perf_counter() - started
        ok = rep.holds_on_searched == expected
        return OpResult(ok, seconds, (rep.holds_on_searched, rep.witness, rep.searched))


WORKLOADS = {w.name: w for w in (Reconstruct, Certify, Exact)}
