import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import effectframes
from effectframes import cones
from effectframes import (
    CertificateError,
    DEFAULT_TOL,
    Effect,
    EpsilonTooLargeError,
    HermitianOperator,
    augmented_basis_from_onb,
    certificate_from_jsonable,
    certificate_to_jsonable,
    cone_decompose_spectral,
    cone_membership,
    hs_distance,
    identity,
    interior_point_Edelta,
    intersection_span_certificate,
    is_effect,
    operator_to_jsonable,
    random_effect,
    random_mic_pom,
    random_onb,
    rank_one,
    real_coordinates,
    sic_mic_pom,
    validate_augmented,
    verify_certificate,
)

GAMMA2 = 2.0 + 1.0 / math.sqrt(2.0)
EYE2 = np.eye(2, dtype=complex)


def test_spectral_decomposition_diagonal_effect():
    e = Effect(HermitianOperator(np.diag([0.5, 0.25]).astype(complex)))
    basis, dec = cone_decompose_spectral(e)
    assert basis.gamma == pytest.approx(GAMMA2, abs=1e-12)
    np.testing.assert_allclose(
        dec.coeffs,
        [0.5 * GAMMA2, 0.25 * GAMMA2, 0.0, 0.0],
        atol=1e-12,
    )
    assert dec.coeffs[0] == pytest.approx(1.35355339, abs=1e-8)
    assert dec.coeffs[1] == pytest.approx(0.67677670, abs=1e-8)
    assert dec.residual < DEFAULT_TOL.residual


def test_spectral_decomposition_zero_effect():
    _, dec = cone_decompose_spectral(Effect(identity(2) * 0.0))
    np.testing.assert_allclose(dec.coeffs, np.zeros(4), atol=1e-14)


def test_spectral_decomposition_basis_element():
    basis = augmented_basis_from_onb(EYE2)
    e = basis.elements[0]
    _, dec = cone_decompose_spectral(e)
    # c |e1><e1| decomposes as the unit coordinate vector
    np.testing.assert_allclose(dec.coeffs, [1.0, 0.0, 0.0, 0.0], atol=1e-10)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_spectral_decomposition_bulk(d):
    for seed in range(40):
        e = random_effect(d, seed)
        _, dec = cone_decompose_spectral(e)
        assert dec.residual < DEFAULT_TOL.residual
        assert np.all(dec.coeffs >= 0.0)
        assert dec.positive_count <= d


def test_membership_over_mic_pom_uniform():
    sic = sic_mic_pom()
    dec = cone_membership(identity(2) * 0.5, sic)
    assert dec is not None
    np.testing.assert_allclose(dec.coeffs, [0.5, 0.5, 0.5, 0.5], atol=1e-10)


def test_membership_negative_operator_absent():
    basis = augmented_basis_from_onb(EYE2)
    neg = rank_one(np.array([1.0, 0.0], dtype=complex)) * -1.0
    assert cone_membership(neg, basis) is None
    assert cone_membership(neg, sic_mic_pom()) is None


def test_membership_nnls_fallback_rejects_negative_coefficient(monkeypatch):
    sic = sic_mic_pom()
    # I/2 is half the sum of the SIC effects; removing one effect whole
    # leaves its coefficient at -1/2.
    target = HermitianOperator(0.5 * EYE2 - sic.effects[0].mat)
    exact = np.linalg.solve(sic.basis_view.coordinate_matrix, real_coordinates(target))
    np.testing.assert_allclose(exact, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
    fallback_calls = []
    scipy_nnls = cones.nnls

    def counting_nnls(mat, vec):
        fallback_calls.append(vec)
        return scipy_nnls(mat, vec)

    monkeypatch.setattr(cones, "nnls", counting_nnls)
    assert cone_membership(target, sic) is None
    assert len(fallback_calls) == 1


def test_import_does_not_load_scipy():
    src = str(Path(effectframes.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    probe = (
        "import sys, effectframes; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_membership_of_interior_point():
    basis = augmented_basis_from_onb(EYE2)
    e_delta, delta = interior_point_Edelta(basis, 0.125)
    dec = cone_membership(e_delta.op, basis)
    assert dec is not None
    expected = np.array([1.0 / (basis.c * 2.0)] * 2 + [delta] * 2)
    np.testing.assert_allclose(dec.coeffs, expected, atol=1e-9)
    assert np.all(dec.coeffs > DEFAULT_TOL.psd_slack)


def test_interior_point_distance_is_half_epsilon():
    basis = augmented_basis_from_onb(EYE2)
    for eps in (0.25, 0.125, 0.03125):
        e_delta, delta = interior_point_Edelta(basis, eps)
        assert delta > 0.0
        dist = hs_distance(e_delta.op, identity(2) * 0.5)
        assert dist == pytest.approx(eps / 2.0, abs=1e-10)


def test_interior_point_rejects_huge_epsilon():
    basis = augmented_basis_from_onb(EYE2)
    with pytest.raises(EpsilonTooLargeError) as err:
        interior_point_Edelta(basis, 50.0)
    assert err.value.witness > 1.0


def test_interior_point_rejects_nonpositive_epsilon():
    basis = augmented_basis_from_onb(EYE2)
    with pytest.raises(ValueError):
        interior_point_Edelta(basis, 0.0)


def test_certificate_d2_canonical():
    basis = augmented_basis_from_onb(EYE2)
    cert = intersection_span_certificate(basis, sic_mic_pom(), seed=0)
    assert cert.rank == 4
    assert len(cert.witnesses) == 4
    assert all(is_effect(w.op).ok for w in cert.witnesses)
    report = verify_certificate(cert)
    assert report.passed, report.failures
    assert report.max_membership_residual < DEFAULT_TOL.residual


def test_certificate_d3_seeded():
    basis = augmented_basis_from_onb(random_onb(3, 5))
    mic = random_mic_pom(3, 6)
    cert = intersection_span_certificate(basis, mic, seed=5)
    assert cert.rank == 9
    assert verify_certificate(cert).passed


def test_certificate_membership_coefficients_nonnegative():
    basis = augmented_basis_from_onb(EYE2)
    cert = intersection_span_certificate(basis, sic_mic_pom(), seed=1)
    for mem_a, mem_m in cert.memberships:
        assert np.all(mem_a.coeffs >= -DEFAULT_TOL.psd_slack)
        assert np.all(mem_m.coeffs >= -DEFAULT_TOL.psd_slack)
        assert mem_a.residual < DEFAULT_TOL.residual
        assert mem_m.residual < DEFAULT_TOL.residual


def test_certificate_serialization_round_trip():
    basis = augmented_basis_from_onb(random_onb(2, 3))
    mic = random_mic_pom(2, 4)
    cert = intersection_span_certificate(basis, mic, seed=3)
    blob = json.dumps(certificate_to_jsonable(cert), sort_keys=True)
    back = certificate_from_jsonable(json.loads(blob))
    report = verify_certificate(back)
    assert report.passed, report.failures
    assert report.rank == 4
    assert back.epsilon == cert.epsilon
    assert back.delta == cert.delta


def test_certificate_rejects_tampered_witness():
    basis = augmented_basis_from_onb(EYE2)
    cert = intersection_span_certificate(basis, sic_mic_pom(), seed=2)
    payload = certificate_to_jsonable(cert)
    # inflate one witness beyond the effect interval
    bad = payload["witnesses"][0]
    bad["entries"][0][0][0] = 2.0
    with pytest.raises(CertificateError):
        certificate_from_jsonable(payload)


def test_certificate_detects_spoofed_membership():
    basis = augmented_basis_from_onb(EYE2)
    cert = intersection_span_certificate(basis, sic_mic_pom(), seed=2)
    payload = certificate_to_jsonable(cert)
    payload["memberships"][0]["augmented"]["coeffs"] = [0.0, 0.0, 0.0, 0.0]
    back = certificate_from_jsonable(payload)
    report = verify_certificate(back)
    assert not report.passed
    assert any("residual" in f for f in report.failures)


def test_certificate_malformed_json_is_value_error():
    with pytest.raises(ValueError):
        certificate_from_jsonable({"dim": 2})


def test_certificate_dimension_mismatch():
    basis = augmented_basis_from_onb(EYE2)
    mic = random_mic_pom(3, 1)
    with pytest.raises(Exception):
        intersection_span_certificate(basis, mic)


# ---------------------------------------------------------------------------
# Stacked admission and verification against the per-witness reference
# ---------------------------------------------------------------------------

def _reference_failures(cert, tol):
    """The per-witness verification loop: one eigendecomposition and one
    matrix-space recombination per witness and family."""
    d = cert.augmented.dim
    failures = []
    if not validate_augmented(cert.augmented, tol).passed:
        failures.append("augmented-basis")
    total = sum(e.mat for e in cert.mic.effects)
    if np.linalg.norm(total - np.eye(d)) > tol.residual:
        failures.append("mic-pom-sum")
    if len(cert.witnesses) != d * d or len(cert.memberships) != d * d:
        failures.append("witness-count")
    for k, (witness, mems) in enumerate(zip(cert.witnesses, cert.memberships)):
        w = np.linalg.eigvalsh(witness.mat)
        if w[0] < -tol.psd_slack or w[-1] > 1.0 + tol.psd_slack:
            failures.append(f"witness-{k}-effect")
            continue
        for label, mem in zip(("augmented", "mic"), mems):
            if float(np.min(mem.coeffs)) < -tol.psd_slack:
                failures.append(f"witness-{k}-{label}-negative-coefficient")
            acc = np.zeros((d, d), dtype=complex)
            for cj, el in zip(mem.coeffs, mem.basis):
                acc += cj * el.mat
            if np.linalg.norm(acc - witness.mat) > tol.residual:
                failures.append(f"witness-{k}-{label}-residual")
    coords = np.array([real_coordinates(w.op) for w in cert.witnesses])
    if np.linalg.matrix_rank(coords, tol=tol.rank_cutoff * np.linalg.norm(coords, 2)) != d * d:
        failures.append("witness-rank")
    return failures


def _tamper_effect(p):
    p["tolerances"].update(psd_slack=0.5, residual=0.5)
    p["witnesses"][1] = operator_to_jsonable(identity(p["dim"]) * 1.25)


def _tamper_negative(p):
    p["memberships"][2]["augmented"]["coeffs"][0] = -0.5


def _tamper_residual(p):
    p["memberships"][0]["mic"]["coeffs"][1] += 1e-6


def _tamper_count(p):
    del p["witnesses"][-1], p["memberships"][-1]


def _tamper_rank(p):
    p["witnesses"][3] = p["witnesses"][0]
    p["memberships"][3] = p["memberships"][0]


def _tamper_augmented(p):
    p["augmented"]["c"] = 1.2


def _tamper_mic_sum(p):
    p["tolerances"]["residual"] = 1e-5
    for e in p["mic"]["effects"]:
        e["entries"] = ((1.0 + 1e-7) * np.array(e["entries"])).tolist()


TAMPERINGS = {
    "witness-1-effect": _tamper_effect,
    "witness-2-augmented-negative-coefficient": _tamper_negative,
    "witness-0-mic-residual": _tamper_residual,
    "witness-count": _tamper_count,
    "witness-rank": _tamper_rank,
    "augmented-basis": _tamper_augmented,
    "mic-pom-sum": _tamper_mic_sum,
}


@pytest.mark.parametrize("d, seed", [(2, 1), (3, 4)])
@pytest.mark.parametrize("label", sorted(TAMPERINGS))
def test_verify_matches_per_witness_reference(d, seed, label):
    basis = augmented_basis_from_onb(random_onb(d, seed))
    cert = intersection_span_certificate(basis, random_mic_pom(d, seed + 1), seed=seed)
    payload = json.loads(json.dumps(certificate_to_jsonable(cert)))
    TAMPERINGS[label](payload)
    back = certificate_from_jsonable(payload)
    report = verify_certificate(back, DEFAULT_TOL)
    assert label in report.failures
    assert list(report.failures) == _reference_failures(back, DEFAULT_TOL)
    assert report.witness_count == len(back.witnesses)


def test_verify_reports_margins_like_reference():
    basis = augmented_basis_from_onb(random_onb(3, 2))
    cert = intersection_span_certificate(basis, random_mic_pom(3, 3))
    report = verify_certificate(cert)
    assert report.passed and report.rank == 9
    lows = [float(np.min(m.coeffs)) for pair in cert.memberships for m in pair]
    residuals = [
        hs_distance(m.recombine(), w.op)
        for w, pair in zip(cert.witnesses, cert.memberships)
        for m in pair
    ]
    assert report.min_coefficient == min(lows)
    assert report.max_membership_residual == pytest.approx(max(residuals), abs=1e-14)


def test_stacked_admission_stops_at_first_failure_and_consults_nnls_in_order(monkeypatch):
    basis = augmented_basis_from_onb(EYE2)
    sic = sic_mic_pom()
    e_delta, _ = interior_point_Edelta(basis, 0.125)
    ket0 = rank_one(np.array([1.0, 0.0], dtype=complex))  # in the augmented cone only
    minus = rank_one(np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0))  # in neither
    calls = []
    scipy_nnls = cones.nnls

    def recording_nnls(mat, vec):
        calls.append(mat is sic.basis_view.coordinate_matrix)
        return scipy_nnls(mat, vec)

    monkeypatch.setattr(cones, "nnls", recording_nnls)
    for middle, fallback_on_mic in ((ket0, True), (minus, False)):
        calls.clear()
        stack = cones.hermitian_stack([e_delta.mat, middle.mat, e_delta.mat])
        admitted = cones._admit_witnesses(stack, basis.basis_view, sic.basis_view, DEFAULT_TOL)
        assert len(admitted) == 1
        assert calls == [fallback_on_mic]
        op, mem_a, mem_m = admitted[0]
        np.testing.assert_array_equal(op.mat, e_delta.mat)
        single = cone_membership(e_delta.op, basis, DEFAULT_TOL)
        np.testing.assert_allclose(mem_a.coeffs, single.coeffs, atol=1e-14)
        assert cone_membership(middle, sic) is None or cone_membership(middle, basis) is None
