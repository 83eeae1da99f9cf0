import json

import numpy as np
import pytest

from effectframes import (
    AdversarialSquareFrame,
    BornFrame,
    DEFAULT_TOL,
    DensityOperator,
    Effect,
    FrameFunction,
    HermitianOperator,
    NotAnEffectError,
    OperatorBasis,
    TEST_EFFECT_COUNT,
    TEST_EFFECT_SEED,
    TabulatedFrame,
    ToleranceConfig,
    augmented_basis_from_onb,
    certificate_from_jsonable,
    check_additivity,
    coexisting_pair,
    consistency_DT,
    frame_from_jsonable,
    frame_to_jsonable,
    frame_vector,
    hs_distance,
    hs_inner,
    identity,
    intersection_span_certificate,
    is_effect,
    orthonormal_operator_basis,
    random_density,
    random_effect,
    random_mic_pom,
    random_onb,
    rank_one,
    reconstruct_density,
    restriction_linearity_check,
    sic_mic_pom,
    verification_effects,
)

from conftest import full_layout

EYE2 = np.eye(2, dtype=complex)
KET0 = np.array([1.0, 0.0], dtype=complex)


def maximally_mixed(d):
    return DensityOperator(identity(d) * (1.0 / d))


def test_born_frame_evaluates_trace():
    rho = random_density(2, 1)
    f = BornFrame(rho)
    e = random_effect(2, 2)
    assert f(e) == pytest.approx(hs_inner(rho.op, e.op), abs=1e-14)


def test_born_frame_maps_identity_to_one():
    f = BornFrame(random_density(3, 5))
    assert f(Effect(identity(3))) == pytest.approx(1.0, abs=1e-12)


def test_born_additivity_clean():
    report = check_additivity(BornFrame(random_density(2, 3)), trials=100, seed=0)
    assert report.passed
    assert report.max_violation < 1e-12
    assert report.identity_deviation < 1e-12


def test_adversarial_square_caught_by_canonical_pair():
    f = AdversarialSquareFrame(maximally_mixed(2))
    report = check_additivity(f, trials=100, seed=0)
    assert not report.passed
    # E1 = E2 = I/2 gives |1/4 + 1/4 - 1| = 1/2
    assert report.max_violation >= 0.5 - 1e-12
    e1, e2 = report.worst_pair
    assert hs_distance(e1.op, identity(2) * 0.5) < 1e-12 or report.max_violation > 0.5


def test_adversarial_first_trial_is_enough():
    f = AdversarialSquareFrame(maximally_mixed(2))
    report = check_additivity(f, trials=1, seed=0)
    assert report.max_violation == pytest.approx(0.5, abs=1e-12)


def test_coexisting_pair_sampler_produces_coexisting_effects(rng):
    for _ in range(50):
        e1, e2 = coexisting_pair(3, rng)
        assert is_effect(e1.op).ok
        assert is_effect(e2.op).ok
        assert is_effect(e1.op + e2.op).ok


def test_frame_vector_on_sic_maximally_mixed():
    values = frame_vector(BornFrame(maximally_mixed(2)), sic_mic_pom().basis_view)
    np.testing.assert_allclose(values, [0.25, 0.25, 0.25, 0.25], atol=1e-12)


def test_frame_vector_matches_born_values():
    rho = random_density(2, 8)
    basis = augmented_basis_from_onb(EYE2)
    values = frame_vector(BornFrame(rho), basis.basis_view)
    for j, b in enumerate(basis.basis_view.elements):
        assert values[j] == pytest.approx(hs_inner(rho.op, b), abs=1e-13)


def test_frame_vector_rejects_non_effect_family():
    basis = orthonormal_operator_basis(2)
    with pytest.raises(NotAnEffectError):
        frame_vector(BornFrame(maximally_mixed(2)), basis)


def test_tabulated_frame_round_trip():
    sic = sic_mic_pom()
    rho = random_density(2, 4)
    values = frame_vector(BornFrame(rho), sic.basis_view)
    tab = TabulatedFrame(sic.basis_view, values)
    got = frame_vector(tab, sic.basis_view)
    np.testing.assert_allclose(got, values, atol=1e-10)


def test_tabulated_from_born_agrees_everywhere():
    sic = sic_mic_pom()
    rho = random_density(2, 10)
    born = BornFrame(rho)
    tab = TabulatedFrame(sic.basis_view, frame_vector(born, sic.basis_view))
    for seed in range(30):
        e = random_effect(2, seed)
        assert tab(e) == pytest.approx(born(e), abs=1e-10)


def test_tabulated_frame_on_ill_conditioned_family_matches_traces():
    # B_1 replaced by B_0 + 1e-7 B_1: full rank at the 1e-8 cutoff, but the
    # normal equations would square the condition number.
    ops = list(orthonormal_operator_basis(3))
    ops[1] = ops[0] + 1e-7 * ops[1]
    basis = OperatorBasis(ops)
    s = basis.singular_values
    assert DEFAULT_TOL.rank_cutoff < s[-1] / s[0] < 1e-7
    rho = random_density(3, 7)
    tab = TabulatedFrame(basis, [hs_inner(rho.op, b) for b in basis])
    worst = max(abs(tab(e) - hs_inner(rho.op, e.op)) for e in verification_effects(3, 1234))
    assert worst <= DEFAULT_TOL.residual


def test_reconstruct_maximally_mixed():
    mic = sic_mic_pom()
    report = reconstruct_density(BornFrame(maximally_mixed(2)), mic)
    assert report.verdict
    assert hs_distance(report.rho_hat, identity(2) * 0.5) < DEFAULT_TOL.residual


def test_reconstruct_pure_state():
    rho = DensityOperator(rank_one(KET0))
    report = reconstruct_density(BornFrame(rho), sic_mic_pom())
    assert report.trace == pytest.approx(1.0, abs=1e-10)
    assert report.min_eigenvalue >= -1e-9
    assert report.max_deviation < 1e-8
    assert hs_distance(report.rho_hat, rho.op) < 1e-8


@pytest.mark.parametrize("d", [2, 3, 4])
def test_reconstruct_hidden_states(d):
    for seed in range(10):
        rho = random_density(d, seed)
        mic = random_mic_pom(d, seed + 101)
        report = reconstruct_density(BornFrame(rho), mic)
        assert report.verdict
        assert hs_distance(report.rho_hat, rho.op) < 1e-8


@pytest.mark.parametrize("frame_cls", [BornFrame, AdversarialSquareFrame])
def test_reconstruct_sweep_matches_per_effect_traces(frame_cls):
    """The one-product sweep agrees with evaluating Tr(rho_hat E) per effect."""
    f = frame_cls(random_density(3, 11))
    report = reconstruct_density(f, random_mic_pom(3, 12))
    reference = max(
        abs(f(e) - hs_inner(report.rho_hat, e.op))
        for e in verification_effects(3, TEST_EFFECT_SEED, TEST_EFFECT_COUNT)
    )
    assert report.max_deviation == pytest.approx(reference, rel=1e-12, abs=1e-14)


class _TraceOracle(FrameFunction):
    """E -> Tr(sigma E) for any Hermitian sigma, plus `offset` on every
    effect outside the MIC-POM `mic`."""

    def __init__(self, sigma, mic=None, offset=0.0):
        self.sigma, self.offset = sigma, offset
        self.mic_stack = () if mic is None else mic.stack

    @property
    def dim(self):
        return self.sigma.shape[0]

    def __call__(self, e):
        value = float(np.trace(self.sigma @ e.mat).real)
        if any(np.array_equal(e.mat, m) for m in self.mic_stack):
            return value
        return value + self.offset


@pytest.mark.parametrize("offset, verdict", [(0.5, True), (2.0, False)])
def test_reconstruct_verdict_turns_on_the_deviation_at_the_residual(offset, verdict):
    # Born on the MIC-POM, so rho_hat = rho; off by offset * residual on the
    # verification effects, so only the deviation moves.
    tol = DEFAULT_TOL
    mic = random_mic_pom(2, 4)
    report = reconstruct_density(
        _TraceOracle(random_density(2, 3).mat, mic, offset * tol.residual), mic
    )
    assert abs(report.trace - 1.0) <= tol.residual
    assert report.min_eigenvalue >= -tol.psd_slack
    assert report.max_deviation == pytest.approx(offset * tol.residual, rel=1e-6)
    assert report.verdict == verdict


@pytest.mark.parametrize("low, verdict", [(-0.5, True), (-3.0, False)])
def test_reconstruct_verdict_turns_on_the_smallest_eigenvalue_at_psd_slack(low, verdict):
    # A linear oracle Tr(sigma E) with trace 1 and smallest eigenvalue
    # low * psd_slack: only the eigenvalue moves.
    tol = DEFAULT_TOL
    s = low * tol.psd_slack
    report = reconstruct_density(
        _TraceOracle(np.diag([1.0 - s, s]).astype(complex)), random_mic_pom(2, 4)
    )
    assert abs(report.trace - 1.0) <= tol.residual
    assert report.max_deviation < tol.residual
    assert report.min_eigenvalue == pytest.approx(s, rel=1e-4)
    assert report.verdict == verdict


def test_reconstruct_basis_independence():
    rho = random_density(3, 21)
    f = BornFrame(rho)
    r1 = reconstruct_density(f, random_mic_pom(3, 100))
    r2 = reconstruct_density(f, random_mic_pom(3, 200))
    assert hs_distance(r1.rho_hat, r2.rho_hat) < 2e-8


def test_consistency_identity_for_born_frames():
    basis = augmented_basis_from_onb(EYE2)
    mic = sic_mic_pom()
    cert = intersection_span_certificate(basis, mic)
    rho = maximally_mixed(2)
    assert consistency_DT(BornFrame(rho), basis, mic, cert) < 1e-10
    for seed in range(10):
        dev = consistency_DT(BornFrame(random_density(2, seed)), basis, mic, cert)
        assert dev < 1e-8


def test_consistency_flags_adversarial_frame():
    basis = augmented_basis_from_onb(EYE2)
    mic = sic_mic_pom()
    cert = intersection_span_certificate(basis, mic)
    dev = consistency_DT(AdversarialSquareFrame(random_density(2, 9)), basis, mic, cert)
    assert dev > 0.01


def test_consistency_verifies_certificate_with_its_own_tolerance():
    from effectframes import CertificateError

    basis = augmented_basis_from_onb(EYE2)
    mic = sic_mic_pom()
    payload = full_layout(intersection_span_certificate(basis, mic))
    # A stored coefficient off by 1e-6 fails the certificate's own residual
    # tolerance (1e-8) but not a caller's 1e-5.
    payload["memberships"][0]["mic"]["coeffs"][0] += 1e-6
    cert = certificate_from_jsonable(json.loads(json.dumps(payload)))
    f = BornFrame(random_density(2, 3))
    with pytest.raises(CertificateError):
        consistency_DT(f, basis, mic, cert)
    assert consistency_DT(f, basis, mic, cert, tol=ToleranceConfig(residual=1e-5)) < 1e-10


def test_consistency_demands_matching_certificate():
    from effectframes import CertificateError

    basis = augmented_basis_from_onb(EYE2)
    other = augmented_basis_from_onb(random_onb(2, 77))
    mic = sic_mic_pom()
    cert = intersection_span_certificate(basis, mic)
    with pytest.raises(CertificateError):
        consistency_DT(BornFrame(maximally_mixed(2)), other, mic, cert)


def test_restriction_linear_for_born():
    basis = augmented_basis_from_onb(EYE2)
    f = BornFrame(random_density(2, 13))
    for j in range(4):
        report = restriction_linearity_check(f, basis, j, samples=100)
        assert report.max_deviation < 1e-12
        assert report.scale_bound == pytest.approx(basis.gamma, abs=1e-9)


def test_restriction_zero_at_origin():
    basis = augmented_basis_from_onb(EYE2)
    f = BornFrame(random_density(2, 14))
    assert f(Effect(basis.ops[0] * 0.0)) == pytest.approx(0.0, abs=1e-14)


def test_restriction_flags_adversarial_square():
    basis = augmented_basis_from_onb(EYE2)
    f = AdversarialSquareFrame(random_density(2, 15))
    worst = max(
        restriction_linearity_check(f, basis, j, samples=100).max_deviation
        for j in range(4)
    )
    assert worst >= 0.01


def test_restriction_index_bounds():
    basis = augmented_basis_from_onb(EYE2)
    f = BornFrame(maximally_mixed(2))
    with pytest.raises(IndexError):
        restriction_linearity_check(f, basis, 4)


def test_frame_json_round_trip_born():
    rho = random_density(2, 44)
    blob = json.dumps(frame_to_jsonable(BornFrame(rho)), sort_keys=True)
    back = frame_from_jsonable(json.loads(blob))
    assert back.kind == "born"
    e = random_effect(2, 45)
    assert back(e) == pytest.approx(BornFrame(rho)(e), abs=1e-14)


def test_frame_json_round_trip_adversarial():
    rho = random_density(2, 46)
    blob = json.dumps(frame_to_jsonable(AdversarialSquareFrame(rho)), sort_keys=True)
    back = frame_from_jsonable(json.loads(blob))
    assert back.kind == "adversarial-square"
    report = check_additivity(back, trials=5, seed=0)
    assert not report.passed


def test_frame_json_round_trip_tabulated():
    sic = sic_mic_pom()
    values = frame_vector(BornFrame(random_density(2, 47)), sic.basis_view)
    tab = TabulatedFrame(sic.basis_view, values)
    blob = json.dumps(frame_to_jsonable(tab), sort_keys=True)
    back = frame_from_jsonable(json.loads(blob))
    assert back.kind == "tabulated"
    e = random_effect(2, 48)
    assert back(e) == pytest.approx(tab(e), abs=1e-10)


def test_frame_json_unknown_kind():
    with pytest.raises(ValueError):
        frame_from_jsonable({"kind": "mystery", "dim": 2})
