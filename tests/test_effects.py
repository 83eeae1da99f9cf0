import json
import math

import numpy as np
import pytest

from effectframes import (
    DEFAULT_TOL,
    DensityOperator,
    Effect,
    HermitianOperator,
    MicPom,
    NotAnEffectError,
    POM,
    PomIdentityError,
    DimensionMismatchError,
    coexists,
    effect_checks,
    effects_of,
    eig_hermitian,
    hermitian_stack,
    hs_distance,
    identity,
    is_effect,
    max_scale,
    operator_to_jsonable,
    pom_from_jsonable,
    pom_to_jsonable,
    psd_sqrt,
    random_density,
    random_effect,
    random_mic_pom,
    random_onb,
    rank_one,
    sic_mic_pom,
)

KET0 = np.array([1.0, 0.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
GAMMA2 = 2.0 + 1.0 / math.sqrt(2.0)


def test_is_effect_identity():
    assert is_effect(identity(3)).ok


def test_is_effect_rejects_eigenvalue_above_one():
    check = is_effect(rank_one(KET0) * 1.5)
    assert not check.ok
    assert check.witness == pytest.approx(1.5, abs=1e-12)


def test_is_effect_diagonal():
    assert is_effect(HermitianOperator(np.diag([0.3, 0.9]).astype(complex))).ok


def test_is_effect_rejects_negative():
    check = is_effect(rank_one(KET0) * -0.2)
    assert not check.ok
    assert check.witness == pytest.approx(-0.2, abs=1e-12)


def test_effect_constructor_enforces_spectrum():
    with pytest.raises(NotAnEffectError):
        Effect(identity(2) * 1.5)
    e = Effect(identity(2) * 0.5)
    assert e.dim == 2


def test_coexists_half_identity():
    e = Effect(identity(2) * 0.5)
    assert coexists(e, e)


def test_coexists_projector_with_itself_fails():
    p = Effect(rank_one(KET0))
    assert not coexists(p, p)


def test_coexists_scaled_nonorthogonal_projectors():
    """0.6(|0><0| + |+><+|) has top eigenvalue 0.6(1 + 1/sqrt(2)) > 1."""
    e1 = Effect(rank_one(KET0) * 0.6)
    e2 = Effect(rank_one(KET_PLUS) * 0.6)
    top = eig_hermitian(e1.op + e2.op)[0][0]
    assert top == pytest.approx(0.6 * (1.0 + 1.0 / math.sqrt(2.0)), abs=1e-12)
    assert top > 1.0
    assert not coexists(e1, e2)


def test_coexists_scaled_nonorthogonal_projectors_at_half():
    # at scaling 0.5 the top eigenvalue 0.5(1 + 1/sqrt(2)) ~ 0.8536 < 1
    e1 = Effect(rank_one(KET0) * 0.5)
    e2 = Effect(rank_one(KET_PLUS) * 0.5)
    top = eig_hermitian(e1.op + e2.op)[0][0]
    assert top == pytest.approx(0.5 * (1.0 + 1.0 / math.sqrt(2.0)), abs=1e-12)
    assert coexists(e1, e2)


def test_coexists_agrees_with_is_effect(rng):
    for _ in range(50):
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = HermitianOperator((x + x.conj().T) / 2.0)
        w, _ = eig_hermitian(h)
        lo, hi = w[-1], w[0]
        spread = max(hi - lo, 1.0)
        a = HermitianOperator((h.mat - lo * np.eye(2)) / (2.0 * spread))
        e1 = Effect(a)
        e2 = Effect(identity(2) * float(rng.uniform(0.0, 1.0)))
        assert coexists(e1, e2) == is_effect(e1.op + e2.op).ok


def test_max_scale_identity():
    assert max_scale(Effect(identity(2))) == pytest.approx(1.0)


def test_max_scale_diagonal():
    assert max_scale(Effect(HermitianOperator(np.diag([0.5, 0.25]).astype(complex)))) == pytest.approx(2.0)


def test_max_scale_scaled_projector():
    e = Effect(rank_one(KET0) * (1.0 / GAMMA2))
    assert max_scale(e) == pytest.approx(GAMMA2, abs=1e-12)


def test_max_scale_zero_rejected():
    with pytest.raises(ValueError):
        max_scale(Effect(identity(2) * 0.0))


def test_max_scale_boundary_property(rng):
    for seed in range(10):
        e = random_effect(3, seed)
        a = max_scale(e)
        assert is_effect(e.op * a).ok
        assert is_effect(e.op * (a * 0.5)).ok
        assert not is_effect(e.op * (a * (1.0 + 1e-6) + 1e-9)).ok


def test_pom_identity_enforced():
    with pytest.raises(PomIdentityError):
        POM((Effect(identity(2) * 0.55), Effect(identity(2) * 0.55)))


def test_pom_needs_two_effects():
    with pytest.raises(ValueError):
        POM((Effect(identity(2)),))


def test_sic_sums_to_identity():
    sic = sic_mic_pom()
    assert hs_distance(sic.pom.total(), identity(2)) < 1e-14


def test_sic_element_spectra():
    for e in sic_mic_pom().pom.effects:
        w, _ = eig_hermitian(e.op)
        assert w[0] == pytest.approx(0.5, abs=1e-12)
        assert w[1] == pytest.approx(0.0, abs=1e-12)


def test_sic_rank_four():
    sic = sic_mic_pom()
    svals = sic.basis_view.singular_values
    assert int(np.count_nonzero(svals > DEFAULT_TOL.rank_cutoff * svals[0])) == 4


def test_sic_rejects_other_dims():
    with pytest.raises(ValueError):
        sic_mic_pom(3)


def test_random_density_properties():
    for seed in range(25):
        for d in (2, 3):
            rho = random_density(d, seed)
            assert rho.op.trace() == pytest.approx(1.0, abs=1e-12)
            w, _ = eig_hermitian(rho.op)
            assert w[-1] >= -1e-12


def test_random_effect_spectrum():
    for seed in range(25):
        e = random_effect(3, seed)
        w, _ = eig_hermitian(e.op)
        assert w[0] <= 1.0 + DEFAULT_TOL.psd_slack
        assert w[-1] >= -DEFAULT_TOL.psd_slack


def test_seed_determinism_across_draws():
    for seed in range(100):
        a = random_effect(2, seed)
        b = random_effect(2, seed)
        assert np.array_equal(a.mat, b.mat)
    a = random_density(3, 7)
    b = random_density(3, 7)
    assert np.array_equal(a.op.mat, b.op.mat)


def test_random_onb_is_orthonormal():
    for seed in range(10):
        u = random_onb(4, seed)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)


def test_random_mic_pom_d3_seed7():
    mic = random_mic_pom(3, 7)
    assert len(mic.pom.effects) == 9
    assert hs_distance(mic.pom.total(), identity(3)) < 1e-10


def test_random_mic_pom_deterministic():
    m1 = random_mic_pom(3, 7)
    m2 = random_mic_pom(3, 7)
    for a, b in zip(m1.pom.effects, m2.pom.effects):
        assert np.array_equal(a.mat, b.mat)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_random_mic_pom_rank_certificate(d):
    for seed in range(50):
        mic = random_mic_pom(d, seed)
        svals = mic.basis_view.singular_values
        rank = int(np.count_nonzero(svals > DEFAULT_TOL.rank_cutoff * svals[0]))
        assert rank == d * d, f"seed {seed} gave rank {rank}"


def test_mic_pom_needs_d_squared_elements():
    sic = sic_mic_pom()
    three = POM(
        (
            sic.pom.effects[0],
            sic.pom.effects[1],
            Effect(identity(2) - sic.pom.effects[0].op - sic.pom.effects[1].op),
        )
    )
    with pytest.raises(ValueError):
        MicPom(three)


def test_density_operator_validation():
    with pytest.raises(ValueError):
        DensityOperator(identity(2))
    with pytest.raises(ValueError):
        DensityOperator(HermitianOperator(np.diag([1.5, -0.5]).astype(complex)))


def test_psd_sqrt_squares_back(rng):
    rho = random_density(3, 11)
    s = psd_sqrt(rho.op)
    assert hs_distance(HermitianOperator(s.mat @ s.mat), rho.op) < 1e-10


def test_pom_json_round_trip():
    sic = sic_mic_pom()
    blob = json.dumps(pom_to_jsonable(sic.pom), sort_keys=True)
    back = pom_from_jsonable(json.loads(blob))
    assert len(back.effects) == 4
    for a, b in zip(sic.pom.effects, back.effects):
        assert hs_distance(a.op, b.op) < 1e-15


def _reference_effect_check(h, tol):
    """Per-operator decision on the full eigendecomposition."""
    w, _ = eig_hermitian(h, tol)
    low, high = float(w[-1]), float(w[0])
    if low < -tol.psd_slack and high > 1.0 + tol.psd_slack:
        return False, low if (-low) > (high - 1.0) else high
    if low < -tol.psd_slack:
        return False, low
    if high > 1.0 + tol.psd_slack:
        return False, high
    return True, None


@pytest.mark.parametrize("d", [2, 3, 5])
def test_effect_checks_match_per_operator_reference(d):
    rng = np.random.default_rng(d)
    mats = []
    for scale, shift in ((0.2, 0.5), (1.0, 0.5), (0.3, -0.2), (0.3, 1.1), (2.0, 0.0)):
        for _ in range(6):
            x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            mats.append(scale * (x + x.conj().T) / 4.0 + shift * np.eye(d))
    stack = hermitian_stack(mats)
    checks = effect_checks(stack)
    assert {c.ok for c in checks} == {True, False}
    for op, check in zip([HermitianOperator(m) for m in stack], checks):
        ok, witness = _reference_effect_check(op, DEFAULT_TOL)
        assert check.ok == ok == is_effect(op).ok
        if not ok:
            assert check.witness == pytest.approx(witness, abs=1e-12)


def test_effects_of_checks_whole_family():
    ops = [identity(2) * 0.5, identity(2) * 0.25, identity(2) * 1.5]
    assert all(isinstance(e, Effect) for e in effects_of(ops[:2]))
    assert effects_of(ops[:2])[1].op is ops[1]
    with pytest.raises(NotAnEffectError, match="element 2"):
        effects_of(ops)


def test_pom_json_rejects_mixed_dimensions():
    blob = {"dim": 2, "effects": [operator_to_jsonable(identity(2) * 0.5),
                                  operator_to_jsonable(identity(3) * 0.5)]}
    with pytest.raises(DimensionMismatchError):
        pom_from_jsonable(blob)
