import math

import numpy as np
import pytest

from effectframes import (
    AugmentedBasis,
    DEFAULT_TOL,
    Effect,
    HermitianOperator,
    NotAnEffectError,
    NotOrthonormalError,
    SingularBasisError,
    ToleranceConfig,
    augmented_basis_from_onb,
    complete_projector_basis,
    eig_hermitian,
    expand,
    hs_distance,
    identity,
    random_onb,
    rank_one,
    validate_augmented,
)

GAMMA2 = 2.0 + 1.0 / math.sqrt(2.0)
EYE2 = np.eye(2, dtype=complex)


def test_completion_d2_projector_family():
    projs = complete_projector_basis(EYE2)
    assert len(projs) == 4
    ket_plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    ket_plus_i = np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0)
    expected = [
        rank_one(np.array([1.0, 0.0], dtype=complex)),
        rank_one(np.array([0.0, 1.0], dtype=complex)),
        rank_one(ket_plus),
        rank_one(ket_plus_i),
    ]
    for got, want in zip(projs, expected):
        assert hs_distance(got, want) < 1e-14


def test_completion_projectors_are_idempotent():
    for seed in range(5):
        onb = random_onb(3, seed)
        for p in complete_projector_basis(onb):
            assert hs_distance(HermitianOperator(p.mat @ p.mat), p) < 1e-12


def test_completion_rank_d_squared():
    projs = complete_projector_basis(random_onb(3, 2))
    coords = np.column_stack(
        [np.concatenate([np.diag(p.mat).real,
                         math.sqrt(2.0) * p.mat[np.triu_indices(3, 1)].real,
                         math.sqrt(2.0) * p.mat[np.triu_indices(3, 1)].imag])
         for p in projs]
    )
    assert np.linalg.matrix_rank(coords, tol=1e-10) == 9


def test_completion_rejects_non_orthonormal():
    with pytest.raises(NotOrthonormalError):
        complete_projector_basis(np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex))


def test_gamma_computational_basis_d2():
    basis = augmented_basis_from_onb(EYE2)
    assert basis.gamma == pytest.approx(GAMMA2, abs=1e-12)
    assert basis.c == pytest.approx(1.0 / GAMMA2, abs=1e-12)
    assert basis.c == pytest.approx(0.3693980625181293, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_trace_of_projector_sum_is_d_squared(d):
    onb = random_onb(d, d + 31)
    total = sum(p.mat for p in complete_projector_basis(onb))
    assert complex(np.trace(total)).real == pytest.approx(d * d, abs=1e-10)


def test_scaled_sum_has_unit_top_eigenvalue():
    basis = augmented_basis_from_onb(random_onb(3, 1))
    w, _ = eig_hermitian(basis.element_sum)
    assert w[0] == pytest.approx(1.0, abs=1e-12)


def test_gamma_invariant_under_basis_choice():
    # gamma depends only on the ONB geometry; replaying the same seed matches
    a = augmented_basis_from_onb(random_onb(4, 9))
    b = augmented_basis_from_onb(random_onb(4, 9))
    assert a.gamma == b.gamma


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_gamma_at_least_two(d):
    for seed in range(10):
        basis = augmented_basis_from_onb(random_onb(d, seed))
        assert basis.gamma >= 2.0


def test_validate_constructed_basis_passes():
    report = validate_augmented(augmented_basis_from_onb(EYE2))
    assert report.passed
    assert set(report.conditions) == {
        "scaled-projectors",
        "sum-effect",
        "rank-one",
        "linear-independence",
    }
    assert all(c.passed for c in report.conditions.values())


def test_validate_reports_sum_identity_gap():
    report = validate_augmented(augmented_basis_from_onb(EYE2))
    # the scaled family never sums to the identity
    assert report.sum_identity_gap > 0.1


def test_validate_rejects_c_out_of_range():
    basis = augmented_basis_from_onb(EYE2)
    tampered = AugmentedBasis(onb=basis.onb, ops=basis.ops, c=1.2, gamma=basis.gamma)
    report = validate_augmented(tampered)
    assert not report.passed
    assert not report.conditions["scaled-projectors"].passed


def test_validate_rejects_rank_two_element():
    basis = augmented_basis_from_onb(EYE2)
    ops = list(basis.ops)
    ops[2] = identity(2) * basis.c
    tampered = AugmentedBasis(onb=basis.onb, ops=tuple(ops), c=basis.c, gamma=basis.gamma)
    report = validate_augmented(tampered)
    assert not report.passed
    assert not report.conditions["rank-one"].passed


def test_validate_rejects_dependent_family():
    basis = augmented_basis_from_onb(EYE2)
    ops = list(basis.ops)
    ops[3] = ops[2]
    tampered = AugmentedBasis(onb=basis.onb, ops=tuple(ops), c=basis.c, gamma=basis.gamma)
    report = validate_augmented(tampered)
    assert not report.passed
    assert not report.conditions["linear-independence"].passed


def test_validate_rejects_inflated_sum():
    basis = augmented_basis_from_onb(EYE2)
    ops = tuple(op * 1.5 for op in basis.ops)
    tampered = AugmentedBasis(onb=basis.onb, ops=ops, c=basis.c * 1.5, gamma=basis.gamma)
    report = validate_augmented(tampered)
    assert not report.passed
    assert not report.conditions["sum-effect"].passed


def test_expand_projector_recovers_scaled_unit_vector():
    basis = augmented_basis_from_onb(EYE2)
    for k, proj in enumerate(complete_projector_basis(EYE2)):
        coeffs = expand(proj, basis.basis_view)
        unit = np.zeros(4)
        unit[k] = 1.0
        assert np.linalg.norm(coeffs * basis.c - unit * 1.0) < 1e-10
        assert np.linalg.norm(coeffs - unit * basis.gamma) < 1e-9


def test_completion_makes_a_pom():
    for d, seed in ((2, 0), (3, 4)):
        basis = augmented_basis_from_onb(random_onb(d, seed))
        pom = basis.as_pom()
        assert len(pom.effects) == d * d + 1
        assert hs_distance(HermitianOperator(pom.stack.sum(axis=0)), identity(d)) < 1e-10


def test_completion_is_checked_as_an_effect_only_by_as_pom():
    # At residual 2e-16 the completion's eigenvalue -5.2e-16 is outside [0, 1].
    tol = ToleranceConfig(residual=2e-16, psd_slack=2e-16)
    basis = augmented_basis_from_onb(random_onb(2, 22), tol=tol)
    assert float(np.linalg.eigvalsh(basis.completion.mat)[0]) < -tol.psd_slack
    report = validate_augmented(basis, tol)
    assert [name for name, res in report.conditions.items() if not res.passed] == ["sum-effect"]
    with pytest.raises(NotAnEffectError):
        basis.as_pom()


def test_elements_are_effects():
    basis = augmented_basis_from_onb(random_onb(3, 8))
    assert all(isinstance(e, Effect) for e in basis.elements)
    head = basis.elements[0]
    w, _ = eig_hermitian(head.op)
    assert w[0] == pytest.approx(basis.c, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_validate_over_seeded_bases(d):
    for seed in range(5):
        basis = augmented_basis_from_onb(random_onb(d, seed))
        assert validate_augmented(basis).passed


def test_caller_tolerance_reaches_rank_certificate():
    # sigma_min/sigma_max of the d = 2 computational augmented basis is 0.31.
    strict = ToleranceConfig(rank_cutoff=0.9)
    with pytest.raises(SingularBasisError):
        augmented_basis_from_onb(EYE2, tol=strict)
    loose = ToleranceConfig(rank_cutoff=0.3)
    basis = augmented_basis_from_onb(EYE2, tol=loose)
    assert basis.tol is loose
    assert basis.basis_view.rank == 4


def test_caller_tolerance_reaches_element_checks():
    basis = augmented_basis_from_onb(EYE2)
    ops = (HermitianOperator(np.diag([1.0 + 1e-7, 0.0]).astype(complex)),) + basis.ops[1:]
    slack = ToleranceConfig(psd_slack=1e-6, residual=1e-6)
    tampered = AugmentedBasis(onb=basis.onb, ops=ops, c=basis.c, gamma=basis.gamma, tol=slack)
    assert len(tampered.elements) == 4
    strict = AugmentedBasis(onb=basis.onb, ops=ops, c=basis.c, gamma=basis.gamma)
    with pytest.raises(NotAnEffectError):
        strict.elements


def test_rank_one_condition_matches_per_element_eigenvalues():
    basis = augmented_basis_from_onb(random_onb(4, 3))
    ops = list(basis.ops)
    ops[5] = ops[5] + ops[6] * 1e-3
    tampered = AugmentedBasis(onb=basis.onb, ops=tuple(ops), c=basis.c, gamma=basis.gamma)
    worst = max(float(np.max(np.abs(eig_hermitian(op)[0][1:]))) for op in ops)
    witness = validate_augmented(tampered).conditions["rank-one"].witness
    assert witness == pytest.approx(worst, rel=1e-9)
    assert witness > DEFAULT_TOL.psd_slack


@pytest.mark.parametrize("second, passed", [(0.5, True), (3.0, False)])
def test_rank_one_verdict_turns_at_psd_slack(second, passed):
    # A second eigenvalue -second * psd_slack, off the range of one tail
    # element: only the rank-one condition moves.
    basis = augmented_basis_from_onb(EYE2)
    ops = list(basis.ops)
    kernel = np.linalg.eigh(ops[2].mat)[1][:, 0]
    shift = second * DEFAULT_TOL.psd_slack * np.outer(kernel, kernel.conj())
    ops[2] = HermitianOperator(ops[2].mat - shift)
    tampered = AugmentedBasis(onb=basis.onb, ops=tuple(ops), c=basis.c, gamma=basis.gamma)
    report = validate_augmented(tampered)
    others = dict(report.conditions)
    rank_one_check = others.pop("rank-one")
    assert rank_one_check.witness == pytest.approx(second * DEFAULT_TOL.psd_slack, rel=1e-6)
    assert rank_one_check.passed == passed == report.passed
    assert all(res.passed for res in others.values())


@pytest.mark.parametrize("scale, orthonormal", [(0.5, True), (2.0, False)])
def test_orthonormality_turns_at_the_residual(scale, orthonormal):
    # U = sqrt(1 + t) I has Gram deviation t sqrt(d) = scale * residual.  The
    # elements stay those of I, within c t of c|u_j><u_j|: only the one
    # orthonormality rule moves, at construction and in validation alike.
    d, residual = 3, DEFAULT_TOL.residual
    u = math.sqrt(1.0 + scale * residual / math.sqrt(d)) * np.eye(d, dtype=complex)
    exact = augmented_basis_from_onb(np.eye(d))
    tampered = AugmentedBasis(onb=u, ops=exact.stack, c=exact.c, gamma=exact.gamma)
    result = validate_augmented(tampered).conditions["scaled-projectors"]
    assert result.passed == orthonormal
    if orthonormal:
        augmented_basis_from_onb(u)
    else:
        assert result.witness == pytest.approx(scale * residual, rel=1e-6)
        with pytest.raises(NotOrthonormalError):
            augmented_basis_from_onb(u)


@pytest.mark.parametrize("scale, passed", [(0.5, True), (2.0, False)])
def test_first_elements_turn_on_their_deviation_at_the_residual(scale, passed):
    # Element 0 scaled by 1 + t stays rank one, at distance c t = scale *
    # residual from c|e_0><e_0|; the vector family stays orthonormal.
    built = augmented_basis_from_onb(random_onb(3, 1))
    stack = built.stack.copy()
    stack[0] *= 1.0 + scale * DEFAULT_TOL.residual / built.c
    tampered = AugmentedBasis(onb=built.onb, ops=stack, c=built.c, gamma=built.gamma)
    result = validate_augmented(tampered).conditions["scaled-projectors"]
    assert result.witness == pytest.approx(scale * DEFAULT_TOL.residual, rel=1e-6)
    assert result.passed == passed


@pytest.mark.parametrize("elements", [True, False], ids=["full", "compact"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_vector_family_is_malformed_input(elements, bad):
    from effectframes import augmented_basis_from_jsonable, augmented_basis_to_jsonable

    obj = augmented_basis_to_jsonable(augmented_basis_from_onb(EYE2), elements=elements)
    obj["onb"][0][1][0] = bad
    with pytest.raises(ValueError, match=r"^vector family must be finite, got \[\("):
        augmented_basis_from_jsonable(obj)


def test_validate_decomposes_the_element_sum_once(monkeypatch):
    from effectframes import augmented_basis_from_jsonable, augmented_basis_to_jsonable

    built = augmented_basis_from_onb(random_onb(3, 1))
    parsed = augmented_basis_from_jsonable(augmented_basis_to_jsonable(built))
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counting(a, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, np.shape(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    report = validate_augmented(parsed)
    assert report.passed
    # Only the rank-one check sees the (9, 3, 3) stack; the sum is decomposed once.
    assert [call for call in calls if call[1] != (9, 3, 3)] == [("eigh", (3, 3))]


@pytest.mark.parametrize("factor", [1.5, -0.5])
def test_validate_sum_effect_witness_is_the_worst_eigenvalue(factor):
    basis = augmented_basis_from_onb(EYE2)
    ops = tuple(op * factor for op in basis.ops)
    tampered = AugmentedBasis(onb=basis.onb, ops=ops, c=basis.c, gamma=basis.gamma)
    result = validate_augmented(tampered).conditions["sum-effect"]
    assert not result.passed
    # The element sum has top eigenvalue 1, so the scaled sum's worst is `factor`.
    assert result.witness == pytest.approx(factor, abs=1e-12)


def test_validate_rejects_non_orthonormal_vector_family():
    from conftest import non_orthonormal_basis

    basis = non_orthonormal_basis()
    report = validate_augmented(basis)
    assert set(report.conditions) == {
        "scaled-projectors", "sum-effect", "rank-one", "linear-independence",
    }
    failing = [name for name, res in report.conditions.items() if not res.passed]
    assert failing == ["scaled-projectors"]
    gram = np.linalg.norm(basis.onb.conj().T @ basis.onb - np.eye(3))
    assert report.conditions["scaled-projectors"].witness == pytest.approx(gram, rel=1e-12)
    assert report.conditions["scaled-projectors"].witness == pytest.approx(6.859e-2, abs=1e-5)
    assert "Gram deviation" in report.conditions["scaled-projectors"].detail


def _reference_projector_stack(u):
    """The completed projector family built one vector at a time."""
    d = u.shape[0]
    vecs = [u[:, j] for j in range(d)]
    for j in range(d):
        for k in range(j + 1, d):
            vecs.append((u[:, j] + u[:, k]) / math.sqrt(2.0))
            vecs.append((u[:, j] + 1j * u[:, k]) / math.sqrt(2.0))
    vecs = np.array(vecs)
    return vecs[:, :, np.newaxis] * vecs[:, np.newaxis, :].conj()


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_projector_stack_matches_the_vector_loop(d):
    from effectframes.augmented import _projector_stack
    from effectframes.operators import hermitian_stack

    for seed in range(5):
        u = random_onb(d, seed)
        reference = hermitian_stack(_reference_projector_stack(u))
        assert _projector_stack(u).tobytes() == reference.tobytes()
