"""Acceptance gate: one test per published criterion, one printed line each.

Every test records `ACCEPT <name>: PASS|FAIL (detail)`; conftest echoes the
collected lines in the terminal summary, where pytest's capture cannot eat
them, then the test asserts.  Tolerances are the published ones, not the
library defaults, so a library regression cannot silently relax the gate.
"""

import math
import time
from fractions import Fraction

import numpy as np
from conftest import ACCEPTANCE_LINES

import effectframes as ef

F = Fraction


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    ACCEPTANCE_LINES.append(f"ACCEPT {name}: {status}{suffix}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_reconstruction_exactness():
    started = time.monotonic()
    worst_dev = 0.0
    worst_trace = 0.0
    worst_eig = 0.0
    for d in (2, 3, 4):
        for seed in range(100):
            rho = ef.random_density(d, seed)
            mic = ef.random_mic_pom(d, 10000 + seed)
            rep = ef.reconstruct_density(ef.BornFrame(rho), mic)
            dist = ef.hs_distance(rep.rho_hat, rho.op)
            worst_dev = max(worst_dev, dist)
            worst_trace = max(worst_trace, abs(rep.trace - 1.0))
            worst_eig = min(worst_eig, rep.min_eigenvalue)
    elapsed = time.monotonic() - started
    ok = worst_dev <= 1e-8 and worst_trace <= 1e-10 and worst_eig >= -1e-9 and elapsed < 30.0
    _report(
        "reconstruction-exactness",
        ok,
        f"max ||rho_hat - rho|| = {worst_dev:.3e}, max |tr-1| = {worst_trace:.3e}, "
        f"min eig = {worst_eig:.3e}, {elapsed:.1f}s for 300 states",
    )


def test_criterion_02_basis_independence():
    worst = 0.0
    for d in (2, 3):
        for seed in range(25):
            f = ef.BornFrame(ef.random_density(d, 500 + seed))
            r1 = ef.reconstruct_density(f, ef.random_mic_pom(d, 600 + seed))
            r2 = ef.reconstruct_density(f, ef.random_mic_pom(d, 700 + seed))
            worst = max(worst, ef.hs_distance(r1.rho_hat, r2.rho_hat))
    _report(
        "basis-independence",
        worst <= 2e-8,
        f"max ||rho1 - rho2|| = {worst:.3e} over 50 instances",
    )


def test_criterion_03_spectral_cone_decomposition():
    checked = 0
    worst_residual = 0.0
    for d in (2, 3, 4):
        budget = 167 if d != 4 else 166
        for seed in range(budget):
            e = ef.random_effect(d, 3000 + seed)
            _, dec = ef.cone_decompose_spectral(e)
            worst_residual = max(worst_residual, dec.residual)
            assert np.all(dec.coeffs >= 0.0), f"negative coefficient at d={d} seed={seed}"
            assert dec.positive_count <= d, f"{dec.positive_count} > d at d={d} seed={seed}"
            checked += 1
    _report(
        "spectral-cone-decomposition",
        checked == 500 and worst_residual <= 1e-8,
        f"{checked} effects, max residual = {worst_residual:.3e}, "
        f"all coefficient counts <= d",
    )


def test_criterion_04_intersection_certificates():
    import json

    worst_gap = 0.0
    for d in (2, 3):
        for seed in range(20):
            basis = ef.augmented_basis_from_onb(ef.random_onb(d, 800 + seed))
            mic = ef.random_mic_pom(d, 900 + seed)
            cert = ef.intersection_span_certificate(basis, mic)
            assert cert.rank == d * d, f"rank {cert.rank} at d={d} seed={seed}"
            blob = json.dumps(ef.certificate_to_jsonable(cert), sort_keys=True)
            back = ef.certificate_from_jsonable(json.loads(blob))
            rep = ef.verify_certificate(back)
            assert rep.passed, f"re-verification failed at d={d} seed={seed}: {rep.failures}"
            dist = ef.hs_distance(cert.e_delta.op, ef.identity(d) * (1.0 / d))
            worst_gap = max(worst_gap, abs(dist - cert.epsilon / 2.0))
    _report(
        "intersection-certificates",
        worst_gap <= 1e-10,
        f"40 certificates, rank d*d, serialized re-verification passed, "
        f"max |dist - eps/2| = {worst_gap:.3e}",
    )


def test_criterion_05_coordinate_consistency():
    worst = 0.0
    for d in (2, 3):
        for seed in range(25):
            basis = ef.augmented_basis_from_onb(ef.random_onb(d, 1100 + seed))
            mic = ef.random_mic_pom(d, 1200 + seed)
            cert = ef.intersection_span_certificate(basis, mic)
            f = ef.BornFrame(ef.random_density(d, 1300 + seed))
            worst = max(worst, ef.consistency_DT(f, basis, mic, cert))
    _report(
        "coordinate-consistency",
        worst <= 1e-8,
        f"max ||D^-T f_B - f_M|| = {worst:.3e} over 50 pairs",
    )


def test_criterion_06_restriction_linearity():
    worst_born = 0.0
    for d in (2, 3):
        basis = ef.augmented_basis_from_onb(ef.random_onb(d, 1400 + d))
        f = ef.BornFrame(ef.random_density(d, 1500 + d))
        for j in range(d * d):
            rep = ef.restriction_linearity_check(f, basis, j, samples=100)
            worst_born = max(worst_born, rep.max_deviation)
    basis2 = ef.augmented_basis_from_onb(np.eye(2, dtype=complex))
    adv = ef.AdversarialSquareFrame(ef.random_density(2, 1600))
    adv_worst = max(
        ef.restriction_linearity_check(adv, basis2, j, samples=100).max_deviation
        for j in range(4)
    )
    ok = worst_born <= 1e-10 and adv_worst >= 0.01
    _report(
        "restriction-linearity",
        ok,
        f"born max deviation = {worst_born:.3e}, adversarial max = {adv_worst:.3e}",
    )


def test_criterion_07_additivity_detection():
    adv = ef.AdversarialSquareFrame(ef.random_density(2, 1700))
    adv_rep = ef.check_additivity(adv, trials=100, seed=0)
    born_worst = 0.0
    for d, seed in ((2, 0), (3, 1), (4, 2)):
        rep = ef.check_additivity(ef.BornFrame(ef.random_density(d, seed)), trials=100, seed=seed)
        born_worst = max(born_worst, rep.max_violation)
    ok = adv_rep.max_violation >= 0.1 and born_worst <= 1e-12
    _report(
        "additivity-detection",
        ok,
        f"adversarial violation = {adv_rep.max_violation:.3f}, "
        f"born max violation = {born_worst:.3e}",
    )


def test_criterion_08_grid_forcing():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(200):
        a = F(int(rng.integers(1, 40)), int(rng.integers(1, 12)))
        n = int(rng.integers(1, 80))
        v = F(int(rng.integers(-30, 30)), int(rng.integers(1, 16)))
        res = ef.check_linear(ef.grid_from_unit(a, n, v))
        assert res.is_linear
        assert res.slope == n * v / a
        checked += 1
    _report("grid-forcing", checked == 200, f"{checked} exact triples, zero tolerance")


def test_criterion_09_extension_laws():
    rng = np.random.default_rng(1009)
    grid = ef.grid_from_unit(F(1), 24, F(5, 48))
    gview = ef.ExtensionView(grid)
    qview = ef.ExtensionView(ef.QSqrt2Additive(F(3), F(-5)))
    step = grid.step
    cases = {"pos-pos": 0, "mixed": 0, "neg-neg": 0}
    checked = 0
    for k in range(500):
        j1 = int(rng.integers(-60, 61))
        j2 = int(rng.integers(-60, 61))
        x, y = j1 * step, j2 * step
        assert gview.f_real(x) + gview.f_real(y) == gview.f_real(x + y)
        checked += 1
        if j1 >= 0 and j2 >= 0:
            cases["pos-pos"] += 1
        elif j1 < 0 and j2 < 0:
            cases["neg-neg"] += 1
        else:
            cases["mixed"] += 1
    for k in range(500):
        u = ef.QSqrt2(F(int(rng.integers(-20, 21)), 3), F(int(rng.integers(-20, 21)), 4))
        v = ef.QSqrt2(F(int(rng.integers(-20, 21)), 5), F(int(rng.integers(-20, 21)), 2))
        assert qview.f_real(u) + qview.f_real(v) == qview.f_real(u + v)
        checked += 1
    wide = ef.ExtensionView(ef.grid_from_unit(F(1), 77, F(1, 100)))
    well_defined = wide.f_plus(F(5), 7) == wide.f_plus(F(5), 11)
    ok = checked == 1000 and well_defined and min(cases.values()) > 0
    _report(
        "extension-laws",
        ok,
        f"{checked} exact pairs, sign cases {cases}, two-moduli agreement: {well_defined}",
    )


def test_criterion_10_unboundedness_witnesses():
    f = ef.QSqrt2Additive(F(1), F(0))
    started = time.monotonic()
    details = []
    for bound in (F(10), F(10) ** 3, F(10) ** 6):
        w = ef.unboundedness_witness(f, bound)
        assert w.x.sign() > 0
        assert w.x <= ef.QSqrt2(F(1), F(0))
        assert f(w.x) > bound
        assert f(w.x) == w.value
        details.append(f"B={bound}: f={w.value}")
    elapsed = time.monotonic() - started
    _report(
        "unboundedness-witnesses",
        elapsed < 1.0,
        f"{'; '.join(details)}; {elapsed * 1000:.1f} ms",
    )


def test_criterion_11_augmented_basis_construction():
    gamma2 = 2.0 + 1.0 / math.sqrt(2.0)
    basis2 = ef.augmented_basis_from_onb(np.eye(2, dtype=complex))
    gamma_gap = abs(basis2.gamma - gamma2)
    worst_trace_gap = 0.0
    all_valid = True
    for d in (2, 3, 4, 5):
        for seed in range(20):
            basis = ef.augmented_basis_from_onb(ef.random_onb(d, 1800 + seed))
            if not ef.validate_augmented(basis).passed:
                all_valid = False
            g_trace = sum(op.trace() for op in basis.ops) / basis.c
            worst_trace_gap = max(worst_trace_gap, abs(g_trace - d * d))
    ok = all_valid and gamma_gap <= 1e-12 and worst_trace_gap <= 1e-10
    _report(
        "augmented-basis-construction",
        ok,
        f"80 bases valid, |Gamma - (2 + 1/sqrt 2)| = {gamma_gap:.2e}, "
        f"max |Tr G - d^2| = {worst_trace_gap:.2e}",
    )
