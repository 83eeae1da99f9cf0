import json
import math
import os
import re
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
    HermitianOperator,
    NotAnEffectError,
    augmented_basis_from_onb,
    certificate_from_jsonable,
    certificate_to_jsonable,
    cone_decompose_spectral,
    cone_membership,
    expand,
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
    recombine,
    sic_mic_pom,
    validate_augmented,
    verify_certificate,
)

from effectframes.operators import orthonormal_operator_basis

from conftest import full_layout, witness_residuals

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


def _refuse_nnls(mat, vec):
    raise AssertionError("membership must be decided without nonnegative least squares")


def test_membership_rejects_negative_coefficient_without_nnls(monkeypatch):
    sic = sic_mic_pom()
    # I/2 is half the sum of the SIC effects; removing one effect whole
    # leaves its coefficient at -1/2.
    target = HermitianOperator(0.5 * EYE2 - sic.effects[0].mat)
    exact = np.linalg.solve(sic.basis_view.coordinate_matrix, real_coordinates(target))
    np.testing.assert_allclose(exact, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
    monkeypatch.setattr(cones, "nnls", _refuse_nnls)
    assert cone_membership(target, sic) is None


def _sic_point(first: float) -> HermitianOperator:
    """The point with SIC coefficients (first, 1/2, 1/2, 1/2)."""
    sic = sic_mic_pom()
    return HermitianOperator(0.5 * EYE2 + (first - 0.5) * sic.effects[0].mat)


def _judge_stack(stack, views):
    """`cones._cone_fits` on a candidate stack with the builder's exact coefficients."""
    coords = cones.stacked_coordinates(stack)
    solved = tuple(cones._expansions(coords, view, DEFAULT_TOL) for view in views)
    rows = [view.coordinate_matrix.T for view in views]
    inside, *_ = cones._cone_fits(coords, solved, rows, DEFAULT_TOL)
    return inside, solved


def test_membership_boundary_is_minus_psd_slack(monkeypatch):
    monkeypatch.setattr(cones, "nnls", _refuse_nnls)
    sic = sic_mic_pom()
    slack = DEFAULT_TOL.psd_slack
    inside = cone_membership(_sic_point(-slack / 2), sic)
    assert inside is not None
    np.testing.assert_allclose(inside.coeffs, [0.0, 0.5, 0.5, 0.5], atol=1e-12)
    assert inside.residual < DEFAULT_TOL.residual
    assert cone_membership(_sic_point(-2 * slack), sic) is None
    # The rule that admits a witness stack draws the same line, and the
    # builder stops at the first candidate outside it.
    view = sic.basis_view
    stack = cones.hermitian_stack(
        [_sic_point(x).mat for x in (0.5, -slack / 2, -2 * slack, 0.5)]
    )
    inside, (by_a, by_m) = _judge_stack(stack, (view, view))
    admitted = int(np.argmin(inside))
    assert admitted == 2 and inside.tolist() == [True, True, False, True]
    # Admitted coefficients are stored exact, as a reader solves them: the
    # second candidate keeps its -slack/2.
    for coeffs_a, coeffs_m, first in zip(by_a[:admitted], by_m[:admitted], (0.5, -slack / 2)):
        np.testing.assert_allclose(coeffs_a, [first, 0.5, 0.5, 0.5], atol=1e-12)
        np.testing.assert_array_equal(coeffs_m, coeffs_a)


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
    with pytest.raises(NotAnEffectError) as err:
        interior_point_Edelta(basis, 50.0)
    assert float(re.search(r"eigenvalue (\S+) lies", str(err.value)).group(1)) > 1.0


def test_interior_point_rejects_nonpositive_epsilon():
    basis = augmented_basis_from_onb(EYE2)
    with pytest.raises(ValueError):
        interior_point_Edelta(basis, 0.0)


def test_certificate_d2_canonical():
    basis = augmented_basis_from_onb(EYE2)
    cert = intersection_span_certificate(basis, sic_mic_pom())
    assert cert.rank == 4
    assert len(cert.witness_stack) == 4
    assert all(is_effect(HermitianOperator(w)).ok for w in cert.witness_stack)
    report = verify_certificate(cert)
    assert report.passed, report.failures
    assert report.max_membership_residual < DEFAULT_TOL.residual


def test_certificate_d3_seeded():
    basis = augmented_basis_from_onb(random_onb(3, 5))
    mic = random_mic_pom(3, 6)
    cert = intersection_span_certificate(basis, mic)
    assert cert.rank == 9
    assert verify_certificate(cert).passed


def test_certificate_membership_coefficients_nonnegative():
    basis = augmented_basis_from_onb(EYE2)
    cert = intersection_span_certificate(basis, sic_mic_pom())
    for coeffs, residuals in zip(cert.coefficients, witness_residuals(cert)):
        assert coeffs.shape == (4, 4)
        assert np.all(coeffs >= -DEFAULT_TOL.psd_slack)
        assert np.all(residuals < DEFAULT_TOL.residual)


def test_certificate_serialization_round_trip():
    basis = augmented_basis_from_onb(random_onb(2, 3))
    mic = random_mic_pom(2, 4)
    cert = intersection_span_certificate(basis, mic)
    blob = json.dumps(certificate_to_jsonable(cert), sort_keys=True)
    back = certificate_from_jsonable(json.loads(blob))
    report = verify_certificate(back)
    assert report.passed, report.failures
    assert report.rank == 4
    assert back.epsilon == cert.epsilon
    assert back.delta == cert.delta


def test_certificate_rejects_tampered_witness():
    basis = augmented_basis_from_onb(EYE2)
    cert = intersection_span_certificate(basis, sic_mic_pom())
    payload = full_layout(cert)
    # inflate one witness beyond the effect interval
    bad = payload["witnesses"][0]
    bad["entries"][0][0][0] = 2.0
    with pytest.raises(CertificateError):
        certificate_from_jsonable(payload)


def test_certificate_detects_spoofed_membership():
    basis = augmented_basis_from_onb(EYE2)
    cert = intersection_span_certificate(basis, sic_mic_pom())
    payload = full_layout(cert)
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
    if len(cert.witness_stack) != d * d or min(map(len, cert.coefficients)) != d * d:
        failures.append("witness-count")
    families = (cert.augmented.stack, cert.mic.stack)
    for k, (witness, *rows) in enumerate(zip(cert.witness_stack, *cert.coefficients)):
        w = np.linalg.eigvalsh(witness)
        if w[0] < -tol.psd_slack or w[-1] > 1.0 + tol.psd_slack:
            failures.append(f"witness-{k}-effect")
            continue
        for label, row, family in zip(("augmented", "mic"), rows, families):
            if float(np.min(row)) < -tol.psd_slack:
                failures.append(f"witness-{k}-{label}-negative-coefficient")
            acc = np.zeros((d, d), dtype=complex)
            for cj, el in zip(row, family):
                acc += cj * el
            if np.linalg.norm(acc - witness) > tol.residual:
                failures.append(f"witness-{k}-{label}-residual")
    coords = np.array([real_coordinates(HermitianOperator(w)) for w in cert.witness_stack])
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
    cert = intersection_span_certificate(basis, random_mic_pom(d, seed + 1))
    payload = json.loads(json.dumps(full_layout(cert)))
    TAMPERINGS[label](payload)
    back = certificate_from_jsonable(payload)
    report = verify_certificate(back, DEFAULT_TOL)
    assert label in report.failures
    assert list(report.failures) == _reference_failures(back, DEFAULT_TOL)
    assert report.witness_count == len(back.witness_stack)


def _compact_effect(p):
    # A shift of 0.75 D_1 = 0.75 (|0><0| - |1><1|)/sqrt(2) moves two
    # eigenvalues of E_delta (about 1/d) out of [0, 1], by less than the
    # loosened slack the file is parsed at.
    p["tolerances"].update(psd_slack=0.5, residual=0.5)
    p["steps"][1] = 1.5 * math.sqrt(2.0)


def _compact_negative(p):
    # Flipped and four times as long: past a face of the augmented cone.
    p["steps"][2] *= -4.0


def _compact_count(p):
    del p["steps"][-1]


def _compact_rank(p):
    p["steps"] = [0.0] * len(p["steps"])


def _compact_mic_sum(p):
    # The MIC-POM rows scaled as `_tamper_mic_sum` scales the effects.
    p["tolerances"]["residual"] = 1e-5
    p["mic"]["rows"] = ((1.0 + 1e-7) * np.array(p["mic"]["rows"])).tolist()


# The compact layout stores no decompositions: each is the exact solve of
# its witness over the family, so its residual is rounding alone and
# `witness-k-<cone>-residual` cannot arise.  Every other label does.
COMPACT_TAMPERINGS = {
    "witness-1-effect": _compact_effect,
    "witness-2-augmented-negative-coefficient": _compact_negative,
    "witness-count": _compact_count,
    "witness-rank": _compact_rank,
    "augmented-basis": _tamper_augmented,
    "mic-pom-sum": _compact_mic_sum,
}


@pytest.mark.parametrize("d, seed", [(2, 1), (3, 4)])
@pytest.mark.parametrize("label", sorted(COMPACT_TAMPERINGS))
def test_verify_compact_matches_per_witness_reference(d, seed, label):
    basis = augmented_basis_from_onb(random_onb(d, seed))
    cert = intersection_span_certificate(basis, random_mic_pom(d, seed + 1))
    payload = json.loads(json.dumps(certificate_to_jsonable(cert)))
    assert "steps" in payload and "witnesses" not in payload
    COMPACT_TAMPERINGS[label](payload)
    back = certificate_from_jsonable(payload)
    report = verify_certificate(back, DEFAULT_TOL)
    assert label in report.failures
    assert list(report.failures) == _reference_failures(back, DEFAULT_TOL)
    assert report.witness_count == len(back.witness_stack)
    assert report.max_membership_residual < 1e-12


def test_verify_repeats_no_check_the_parse_made(monkeypatch):
    basis = augmented_basis_from_onb(random_onb(3, 1))
    cert = intersection_span_certificate(basis, random_mic_pom(3, 2))
    payload = json.loads(json.dumps(certificate_to_jsonable(cert)))
    back = certificate_from_jsonable(payload, DEFAULT_TOL)
    svd_calls = []
    numpy_svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        svd_calls.append(args[0].shape)
        return numpy_svd(*args, **kwargs)

    def refuse_effect_checks(mats, tol):
        raise AssertionError("the parse already checked the witnesses at these tolerances")

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(cones, "effect_checks", refuse_effect_checks)
    report = verify_certificate(back, DEFAULT_TOL)
    assert report.passed
    # Only the witness rank: the augmented family was decomposed by the parse.
    assert svd_calls == [(9, 9)]
    assert report == verify_certificate(cert, DEFAULT_TOL)


def _file_with_a_mic_effect_below_zero():
    """A d = 2 certificate file at psd_slack 1e-3 and residual 1e-2 whose
    MIC-POM effect 0 has eigenvalue -1e-4; effect 1 gains the weight it
    loses, so the MIC-POM still sums to the identity."""
    import dataclasses

    from effectframes.effects import MicPom, pom_to_jsonable
    from effectframes.operators import ToleranceConfig, tolerance_to_jsonable

    loose = ToleranceConfig(psd_slack=1e-3, residual=1e-2)
    cert = intersection_span_certificate(augmented_basis_from_onb(random_onb(2, 3)),
                                         random_mic_pom(2, 4))
    stack = cert.mic.stack.copy()
    w, v = np.linalg.eigh(stack[0])
    shift = (-1e-4 - w[0]) * np.outer(v[:, 0], v[:, 0].conj())
    stack[0] += shift
    stack[1] -= shift
    obj = json.loads(json.dumps(certificate_to_jsonable(
        dataclasses.replace(cert, mic=MicPom(stack, loose)))))
    obj["tolerances"] = tolerance_to_jsonable(loose)
    return obj


def test_verify_at_other_tolerances_judges_the_mic_pom_effects():
    obj = _file_with_a_mic_effect_below_zero()
    cert = certificate_from_jsonable(obj)  # at the file's tolerances
    assert verify_certificate(cert, DEFAULT_TOL).failures == ("mic-pom-effect",)
    assert verify_certificate(cert, cert.tol).passed
    with pytest.raises(CertificateError, match="not an effect"):
        certificate_from_jsonable(obj, DEFAULT_TOL)


def test_verify_at_other_tolerances_judges_the_mic_pom_rank():
    from effectframes.operators import ToleranceConfig

    cert = intersection_span_certificate(augmented_basis_from_onb(random_onb(2, 3)),
                                         random_mic_pom(2, 4))
    s = cert.mic.basis_view.singular_values
    cutoff = float(s[-1] / s[0]) * 1.01  # the smallest singular value falls below it
    report = verify_certificate(cert, ToleranceConfig(rank_cutoff=cutoff))
    assert "mic-pom-rank" in report.failures
    assert "mic-pom-rank" not in verify_certificate(
        cert, ToleranceConfig(rank_cutoff=cutoff / 1.02)).failures


def test_verify_at_other_tolerances_judges_e_delta():
    import dataclasses

    from effectframes.operators import ToleranceConfig

    cert = intersection_span_certificate(augmented_basis_from_onb(random_onb(2, 3)),
                                         random_mic_pom(2, 4))
    w, v = np.linalg.eigh(cert.e_delta.mat)
    below = cert.e_delta.mat + (-1e-4 - w[0]) * np.outer(v[:, 0], v[:, 0].conj())
    loose = ToleranceConfig(psd_slack=1e-3, residual=1e-2)
    tampered = dataclasses.replace(cert, e_delta=Effect(HermitianOperator(below), loose),
                                   tol=loose)
    assert verify_certificate(tampered, DEFAULT_TOL).failures == ("e-delta-effect",)
    assert verify_certificate(tampered, loose).passed


def test_verify_reports_margins_like_reference():
    basis = augmented_basis_from_onb(random_onb(3, 2))
    cert = intersection_span_certificate(basis, random_mic_pom(3, 3))
    report = verify_certificate(cert)
    assert report.passed and report.rank == 9
    lows = [float(np.min(row)) for coeffs in cert.coefficients for row in coeffs]
    residuals = [
        hs_distance(recombine(row, view), HermitianOperator(w))
        for view, coeffs in zip((cert.augmented.basis_view, cert.mic.basis_view),
                                cert.coefficients)
        for w, row in zip(cert.witness_stack, coeffs)
    ]
    assert report.min_coefficient == min(lows)
    assert report.max_membership_residual == pytest.approx(max(residuals), abs=1e-14)


def test_stacked_admission_stops_at_first_failure_without_nnls(monkeypatch):
    basis = augmented_basis_from_onb(EYE2)
    sic = sic_mic_pom()
    e_delta, _ = interior_point_Edelta(basis, 0.125)
    ket0 = rank_one(np.array([1.0, 0.0], dtype=complex))  # in the augmented cone only
    minus = rank_one(np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0))  # in neither
    monkeypatch.setattr(cones, "nnls", _refuse_nnls)
    for middle in (ket0, minus):
        stack = cones.hermitian_stack([e_delta.mat, middle.mat, e_delta.mat])
        inside, (by_a, by_m) = _judge_stack(stack, (basis.basis_view, sic.basis_view))
        assert int(np.argmin(inside)) == 1 and inside.tolist() == [True, False, True]
        single = cone_membership(e_delta.op, basis, DEFAULT_TOL)
        np.testing.assert_allclose(by_a[0], single.coeffs, atol=1e-14)
        assert cone_membership(middle, sic) is None or cone_membership(middle, basis) is None


def test_builder_admission_and_verify_agree_on_a_mixed_stack(monkeypatch):
    import dataclasses
    import itertools
    import re

    from effectframes.operators import ToleranceConfig, eig_hermitian

    sic = sic_mic_pom()
    # The augmented basis of the first SIC effect's eigenvectors holds every
    # point `_sic_point` in its cone, so only the MIC-POM cone can reject one.
    basis = augmented_basis_from_onb(eig_hermitian(sic.effects[0].op)[1])
    built = intersection_span_certificate(basis, sic)
    views = (basis.basis_view, sic.basis_view)
    candidates = {
        None: built.witness_stack[0],
        "effect": 1.25 * EYE2,  # in both cones, not an effect
        "mic-negative-coefficient": _sic_point(-2 * DEFAULT_TOL.psd_slack).mat,
        "mic-residual": built.witness_stack[3],  # its MIC-POM row is spoofed below
    }
    solve = cones._expansions
    loose = ToleranceConfig(psd_slack=0.5, residual=0.5)  # so verify checks effects again
    for order in itertools.permutations(candidates):
        stack = cones.hermitian_stack([candidates[label] for label in order])
        spoofed_row = order.index("mic-residual")

        def spoofing(targets, view, tol):
            coeffs = solve(targets, view, tol)
            if view is sic.basis_view and len(targets) == len(stack):
                coeffs = coeffs.copy()
                coeffs[spoofed_row, 0] += 1e-6
            return coeffs

        monkeypatch.setattr(cones, "_expansions", spoofing)
        monkeypatch.setattr(cones, "_step_witnesses", lambda *args: stack)
        first_bad = 1 if order[0] is None else 0
        with pytest.raises(CertificateError, match=f"orthonormal-shift: {first_bad} of 4 "):
            intersection_span_certificate(basis, sic)

        coords = cones.stacked_coordinates(stack)
        coefficients = tuple(spoofing(coords, view, DEFAULT_TOL) for view in views)
        cert = dataclasses.replace(
            built, witness_stack=stack, coefficients=coefficients, tol=loose
        )
        report = verify_certificate(cert, DEFAULT_TOL)
        flagged = [f for f in report.failures if re.match(r"witness-\d", f)]
        assert flagged == [f"witness-{k}-{label}" for k, label in enumerate(order) if label]
        assert flagged[0].startswith(f"witness-{first_bad}-")


def test_verify_of_a_compact_file_computes_coordinates_once(tmp_path, monkeypatch):
    from effectframes import augmented
    from effectframes.cli import main

    path = tmp_path / "cert.json"
    assert main(["certify-cone", "--dim", "3", "--seed", "1", "--out", str(path)]) == 0
    calls = []
    counting = []
    numpy_coords = cones.stacked_coordinates
    checker = cones.verify_certificate

    def counting_coords(mats):
        calls.append(mats.shape)
        return numpy_coords(mats)

    def counting_verify(cert, tol):
        before = len(calls)
        report = checker(cert, tol)
        counting.append(calls[before:])
        return report

    for module in (cones, augmented):
        monkeypatch.setattr(module, "stacked_coordinates", counting_coords)
    monkeypatch.setattr(cones, "verify_certificate", counting_verify)
    assert main(["certify-cone", "--verify", str(path)]) == 0
    # Only the witnesses: both families lend the rows of their certified views.
    assert counting == [[(9, 3, 3)]]


# ---------------------------------------------------------------------------
# One signed step per orthonormal direction
# ---------------------------------------------------------------------------

def _cli_pair(d, seed):
    """The augmented basis and MIC-POM that `certify-cone --dim d --seed seed` builds."""
    return augmented_basis_from_onb(random_onb(d, seed)), random_mic_pom(d, seed + 7919)


def test_certificate_scan_has_no_failure():
    for d in range(2, 6):
        for seed in range(50):
            cert = intersection_span_certificate(*_cli_pair(d, seed))
            assert cert.rank == d * d and len(cert.witness_stack) == d * d, (d, seed)


@pytest.mark.parametrize("d, seed", [(2, 3), (3, 1), (4, 449), (5, 356)])
def test_certificate_steps_are_signed_capped_and_reach_a_face(d, seed):
    basis, mic = _cli_pair(d, seed)
    cert = intersection_span_certificate(basis, mic)
    directions = cones.orthonormal_operator_basis(d, DEFAULT_TOL).stack
    e = cert.e_delta.mat
    lam = np.linalg.eigvalsh(e)
    cap = min(lam[0], 1.0 - lam[-1])
    def inner(a, b):
        return float(np.real(np.trace(a @ b)))

    steps = []
    for k, (w, *rows) in enumerate(zip(cert.witness_stack, *cert.coefficients)):
        for row in rows:
            assert np.all(row >= 0.0)
        shift = inner(w - e, directions[k])  # sigma_k * s_k / 2
        np.testing.assert_allclose(w - e, shift * directions[k], atol=1e-15)
        sigma = -1.0 if inner(e, directions[k]) < 0.0 else 1.0
        assert np.sign(shift) == sigma, k
        step = 2.0 * abs(shift)
        assert step <= cap * (1.0 + 1e-12), k
        steps.append(step)
        # The full step s_k reaches a face of one cone unless the cap binds.
        if step < cap * (1.0 - 1e-9):
            full = HermitianOperator(e + sigma * step * directions[k])
            lows = [
                np.linalg.solve(view.coordinate_matrix, real_coordinates(full)).min()
                for view in (basis.basis_view, mic.basis_view)
            ]
            assert min(lows) == pytest.approx(0.0, abs=1e-9), k
    assert cert.radius == pytest.approx(min(steps), rel=1e-12)
    assert verify_certificate(cert).passed


def test_certificate_is_deterministic():
    basis, mic = _cli_pair(3, 2)
    first = intersection_span_certificate(basis, mic)
    second = intersection_span_certificate(basis, mic)
    for a, b in zip(first.witness_stack, second.witness_stack):
        np.testing.assert_array_equal(a, b)
    assert first.radius == second.radius


def test_certificate_rank_shortfall_raises_at_orthonormal_shift():
    # Every witness is admitted, but the family's numerical rank is 14 of 16.
    with pytest.raises(CertificateError, match="stage orthonormal-shift: 16 of 16 .* rank 14"):
        intersection_span_certificate(*_cli_pair(4, 1571))


def test_certificate_checks_each_witness_as_an_effect_once(monkeypatch):
    from effectframes import effects

    shapes = []
    numpy_checks = effects.effect_checks

    def counting_checks(mats, tol=DEFAULT_TOL):
        shapes.append(mats.shape)
        return numpy_checks(mats, tol)

    basis, mic = _cli_pair(3, 1)  # the MIC-POM is a (9, 3, 3) stack too
    monkeypatch.setattr(cones, "effect_checks", counting_checks)
    monkeypatch.setattr(effects, "effect_checks", counting_checks)
    cert = intersection_span_certificate(basis, mic)
    # The predicted search checks one interior point directly, then the witnesses.
    assert cert.epsilon < 1.0 / (4 * 3)
    assert shapes == [(1, 3, 3), (9, 3, 3)]
    assert cert.witness_stack.shape == (9, 3, 3) and not cert.witness_stack.flags.writeable

    shapes.clear()
    interior_point_Edelta(basis, cert.epsilon)
    assert shapes == [(1, 3, 3)]


# ---------------------------------------------------------------------------
# The compact layout: what a reader derives equals what was built
# ---------------------------------------------------------------------------

def test_compact_layout_derives_the_built_certificate(tmp_path):
    from effectframes.cli import main

    for d in range(2, 6):
        for seed in range(10):
            cert = intersection_span_certificate(*_cli_pair(d, seed))
            compact = certificate_to_jsonable(cert)
            back = certificate_from_jsonable(json.loads(json.dumps(compact)))
            assert len(back.witness_stack) == d * d
            for built, derived in zip(cert.witness_stack, back.witness_stack):
                assert derived.tobytes() == built.tobytes(), (d, seed)
            assert back.augmented.stack.tobytes() == cert.augmented.stack.tobytes()
            reports = []
            for name, payload in (("compact", compact), ("full", full_layout(cert))):
                path = tmp_path / f"{name}.json"
                path.write_text(json.dumps(payload))
                out = tmp_path / f"{name}.report.json"
                assert main(["certify-cone", "--verify", str(path), "--out", str(out)]) == 0
                reports.append(out.read_bytes())
            assert reports[0] == reports[1], (d, seed)


def test_criterion_04_certificates_verify_in_both_layouts():
    # The 40 certificates of acceptance criterion 04, re-verified from each layout.
    for d in (2, 3):
        for seed in range(20):
            basis = augmented_basis_from_onb(random_onb(d, 800 + seed))
            cert = intersection_span_certificate(basis, random_mic_pom(d, 900 + seed))
            reports = [
                verify_certificate(certificate_from_jsonable(json.loads(json.dumps(payload))))
                for payload in (certificate_to_jsonable(cert), full_layout(cert))
            ]
            assert reports[0].passed, (d, seed, reports[0].failures)
            assert reports[0] == reports[1], (d, seed)


def test_compact_layout_stores_the_signed_steps():
    cert = intersection_span_certificate(*_cli_pair(3, 2))
    payload = certificate_to_jsonable(cert)
    np.testing.assert_array_equal(payload["steps"], cert.steps)
    assert payload["radius"] == float(np.abs(cert.steps).min())


def test_full_layout_is_read_and_rewritten_compact_where_it_can_be():
    cert = intersection_span_certificate(*_cli_pair(2, 5))
    back = certificate_from_jsonable(json.loads(json.dumps(full_layout(cert))))
    assert back.steps is None
    # Witnesses read from a file cannot be derived again, so they are
    # written; their decompositions and the augmented elements are not.
    rewritten = certificate_to_jsonable(back)
    assert "witnesses" in rewritten and "steps" not in rewritten
    assert "memberships" not in rewritten and "elements" not in rewritten["augmented"]
    again = certificate_from_jsonable(json.loads(json.dumps(rewritten)))
    assert verify_certificate(again) == verify_certificate(back)


@pytest.mark.parametrize(
    "steps",
    [["0.1"] * 4, [[0.1]] * 4, [None] * 4, [float("nan")] * 4, 0.1, [0.01] * 5],
)
def test_malformed_steps_are_value_errors(steps):
    cert = intersection_span_certificate(*_cli_pair(2, 1))
    payload = certificate_to_jsonable(cert)
    payload["steps"] = steps
    with pytest.raises(ValueError):
        certificate_from_jsonable(payload)


def test_non_finite_stored_tolerances_are_value_errors():
    payload = certificate_to_jsonable(intersection_span_certificate(*_cli_pair(2, 1)))
    payload["tolerances"]["residual"] = math.inf
    text = json.dumps(payload)
    assert "Infinity" in text
    with pytest.raises(ValueError, match="'residual' must be finite and positive, got inf"):
        certificate_from_jsonable(json.loads(text))


@pytest.mark.parametrize("epsilon", [math.inf, math.nan, 0.0])
def test_interior_point_needs_a_finite_positive_epsilon(epsilon):
    with pytest.raises(ValueError, match=f"epsilon must be finite and positive, got {epsilon!r}"):
        interior_point_Edelta(augmented_basis_from_onb(EYE2), epsilon)


def test_epsilon_halved_to_zero_ends_the_interior_point_search():
    with pytest.raises(CertificateError, match="stage interior-point"):
        intersection_span_certificate(*_cli_pair(2, 0), epsilon=1e-310)
    with pytest.raises(ValueError, match="epsilon must be finite and positive, got 0.0"):
        intersection_span_certificate(*_cli_pair(2, 0), epsilon=0.0)


def test_search_ends_once_delta_is_within_psd_slack(monkeypatch):
    # E_delta's coefficients on the tail elements are delta, so no halving
    # with delta <= psd_slack is interior: none is checked.
    tried = []
    checked = cones.interior_point_Edelta
    monkeypatch.setattr(cones, "interior_point_Edelta",
                        lambda *args: tried.append(args) or checked(*args))
    with pytest.raises(CertificateError, match="stage interior-point"):
        intersection_span_certificate(*_cli_pair(3, 1), epsilon=1e-12)
    assert tried == []


def _reference_search(basis, mic, tol=DEFAULT_TOL):
    """epsilon, delta and the signed steps, with every halving checked directly.

    Each halving tried gets the effect check and one solve per cone, and
    the step slopes come from a separate solve over Q.
    """
    d = basis.dim
    views = (basis.basis_view, mic.basis_view)
    rows = tuple(view.coordinate_matrix.T for view in views)
    for k in range(60):
        eps = 1.0 / (4 * d) / 2.0**k
        try:
            e_delta, delta = interior_point_Edelta(basis, eps, tol)
        except NotAnEffectError:
            continue
        centre = real_coordinates(e_delta.op)[np.newaxis]
        interior = [view.solve(centre.T, tol).T for view in views]
        inside, lows, *_ = cones._cone_fits(centre, interior, rows, tol)
        if inside[0] and lows.min() > tol.psd_slack:
            break
    q = orthonormal_operator_basis(d, tol).coordinate_matrix
    signs = np.where(q.T @ centre[0] < 0.0, -1.0, 1.0)
    lam = np.linalg.eigvalsh(e_delta.mat)
    cap = min(float(lam[0]), 1.0 - float(lam[-1]))
    rates = np.zeros(d * d)
    for view, coeffs in zip(views, interior):
        slopes = view.solve(q, tol) * signs
        rates = np.maximum(rates, np.max(-slopes / coeffs[0][:, np.newaxis], axis=0))
    return eps, delta, cap / np.maximum(1.0, cap * rates) * signs


def test_predicted_search_picks_the_reference_halving(monkeypatch):
    checks = []
    checked = cones.interior_point_Edelta
    monkeypatch.setattr(cones, "interior_point_Edelta",
                        lambda *args: checks.append(args) or checked(*args))
    for d in range(2, 6):
        for seed in range(50):
            basis, mic = _cli_pair(d, seed)
            checks.clear()
            cert = intersection_span_certificate(basis, mic)
            assert len(checks) == 1, (d, seed)
            eps, delta, steps = _reference_search(basis, mic)
            assert (cert.epsilon, cert.delta) == (eps, delta), (d, seed)
            assert cert.steps.tobytes() == steps.tobytes(), (d, seed)


def test_compact_payload_without_steps_is_malformed():
    payload = certificate_to_jsonable(intersection_span_certificate(*_cli_pair(2, 1)))
    del payload["steps"]
    with pytest.raises(ValueError, match="malformed certificate JSON"):
        certificate_from_jsonable(payload)


# ---------------------------------------------------------------------------
# The certificate as arrays, its MIC-POM as rows
# ---------------------------------------------------------------------------

def test_rebuilt_mic_pom_and_witnesses_are_the_built_ones():
    for d in range(2, 6):
        for seed in range(50):
            cert = intersection_span_certificate(*_cli_pair(d, seed))
            payload = json.loads(json.dumps(certificate_to_jsonable(cert)))
            assert set(payload["mic"]) == {"dim", "rows"}
            back = certificate_from_jsonable(payload)
            assert back.mic.stack.tobytes() == cert.mic.stack.tobytes(), (d, seed)
            assert back.witness_stack.tobytes() == cert.witness_stack.tobytes(), (d, seed)
            for built, derived in zip(cert.coefficients, back.coefficients):
                assert derived.tobytes() == built.tobytes(), (d, seed)
            assert verify_certificate(back) == verify_certificate(cert), (d, seed)
            for certificate in (cert, back):
                for coeffs in certificate.coefficients:
                    assert coeffs.shape == (d * d, d * d)
                    assert coeffs.flags.c_contiguous and not coeffs.flags.writeable


@pytest.mark.parametrize("low", [2.0, 0.5])
def test_interior_point_needs_every_coefficient_above_psd_slack(monkeypatch, low):
    # epsilon puts the lowest MIC-POM coefficient of the first halving's
    # E_delta = I/2 + delta T at low * psd_slack (I/2 has every coefficient
    # 1/2), with every other coefficient in both cones far from 0: the
    # search stops there only when that coefficient exceeds psd_slack.
    tol = DEFAULT_TOL
    basis, mic = augmented_basis_from_onb(random_onb(2, 0)), random_mic_pom(2, 7919)
    tail = HermitianOperator(basis.stack[2:].sum(axis=0))
    epsilon = 2 * tail.norm() * (low * tol.psd_slack - 0.5) / expand(tail, mic.basis_view).min()
    e_delta, _ = interior_point_Edelta(basis, epsilon)
    assert expand(e_delta.op, mic.basis_view).min() == pytest.approx(low * tol.psd_slack, rel=1e-5)
    assert np.sort(expand(e_delta.op, mic.basis_view))[1] > 0.1
    assert expand(e_delta.op, basis.basis_view).min() > 0.1
    tried = []
    monkeypatch.setattr(cones, "interior_point_Edelta",
                        lambda b, eps, t: tried.append(eps) or interior_point_Edelta(b, eps, t))
    if low > 1:  # steps this close to a face of the cone lose rank
        with pytest.raises(CertificateError, match="orthonormal-shift"):
            intersection_span_certificate(basis, mic, epsilon=epsilon)
        assert tried == [epsilon]
    else:
        cert = intersection_span_certificate(basis, mic, epsilon=epsilon)
        assert tried == [epsilon, epsilon / 2] and cert.epsilon == epsilon / 2


# ---------------------------------------------------------------------------
# One membership rule, one MIC-POM check, one epsilon-search floor
# ---------------------------------------------------------------------------

def test_cone_membership_admits_exactly_what_cone_fits_admits():
    # Over 3 times the orthonormal basis a coefficient of -0.9 psd_slack,
    # clipped to zero, leaves a residual of 2.7 psd_slack, above the
    # residual tolerance psd_slack; the exact coefficients recombine to the
    # point, so `_cone_fits` admits it, and so does `cone_membership`.
    from effectframes import OperatorBasis, ToleranceConfig

    tol = ToleranceConfig(psd_slack=1e-6, residual=1e-6)
    view = OperatorBasis(3.0 * orthonormal_operator_basis(2).stack, tol)
    for first in (-2.0, -1.1, -0.9, 0.0, 0.5):
        h = recombine(np.array([first * tol.psd_slack, 0.25, 0.25, 0.25]), view)
        target = real_coordinates(h)[np.newaxis]
        exact = cones._expansions(target, view, tol)
        inside, *_ = cones._cone_fits(target, (exact,), (view.coordinate_matrix.T,), tol)
        dec = cone_membership(h, view, tol)
        assert (dec is not None) == bool(inside[0]) == (first > -1.0)
        if dec is not None:
            np.testing.assert_allclose(dec.coeffs, np.clip(exact[0], 0.0, None))
            assert dec.residual == pytest.approx(3.0 * max(-first, 0.0) * tol.psd_slack,
                                                 abs=1e-14)


def _mic_with_an_effect_below_zero():
    """`random_mic_pom(2, 4)` with effect 0's lowest eigenvalue moved to
    -1e-4 and effect 1 compensating, checked at psd_slack 1e-3."""
    from effectframes import MicPom, ToleranceConfig

    stack = random_mic_pom(2, 4).stack.copy()
    w, v = np.linalg.eigh(stack[0])
    shift = (-1e-4 - w[0]) * np.outer(v[:, 0], v[:, 0].conj())
    stack[0] += shift
    stack[1] -= shift
    return MicPom(stack, ToleranceConfig(psd_slack=1e-3, residual=1e-2))


def test_builder_judges_a_mic_pom_checked_at_other_tolerances():
    mic = _mic_with_an_effect_below_zero()
    basis = augmented_basis_from_onb(random_onb(2, 3))
    with pytest.raises(CertificateError, match=r"^stage mic-pom: effect-spectrum: element 0 "
                                               r"is not an effect: eigenvalue -0\.0001"):
        intersection_span_certificate(basis, mic, tol=DEFAULT_TOL)
    # Judged at the tolerances it was checked at, it is not judged again.
    assert verify_certificate(intersection_span_certificate(basis, mic, tol=mic.tol),
                              mic.tol).passed


def test_builder_checks_a_mic_pom_again_only_at_other_tolerances(monkeypatch):
    from effectframes import ToleranceConfig

    calls = []

    def counting_check_pom(mats, tol, mic=False):
        calls.append(tol)
        return effectframes.check_pom(mats, tol, mic)

    monkeypatch.setattr(cones, "check_pom", counting_check_pom)
    basis = augmented_basis_from_onb(random_onb(2, 3))
    intersection_span_certificate(basis, random_mic_pom(2, 4))
    assert calls == []
    loose = ToleranceConfig(psd_slack=1e-3, residual=1e-2)
    cert = intersection_span_certificate(basis, random_mic_pom(2, 4, loose))
    assert calls == [DEFAULT_TOL] and verify_certificate(cert).passed


@pytest.mark.parametrize("slacks, stage", [(5.0, None), (0.5, "interior-point")])
def test_epsilon_search_tries_every_delta_above_psd_slack(slacks, stage):
    # epsilon puts delta at `slacks` psd_slack from its first halving on.  The
    # tail coefficients of E_delta are delta itself, so delta = 5 psd_slack is
    # interior; its steps are as short, so the rank cutoff is loosened.
    from effectframes import ToleranceConfig

    tol = ToleranceConfig(rank_cutoff=1e-12)
    basis = augmented_basis_from_onb(random_onb(2, 3), tol)
    _, tnorm = cones._tail(basis)
    epsilon = 2.0 * tnorm * slacks * tol.psd_slack
    if stage is None:
        cert = intersection_span_certificate(basis, random_mic_pom(2, 4, tol), epsilon, tol)
        assert cert.delta == pytest.approx(slacks * tol.psd_slack, rel=1e-12)
        assert verify_certificate(cert, tol).passed
    else:
        with pytest.raises(CertificateError, match=f"^stage {stage}:"):
            intersection_span_certificate(basis, random_mic_pom(2, 4, tol), epsilon, tol)
