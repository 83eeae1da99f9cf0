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
