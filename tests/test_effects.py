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
    EigensolverError,
    coexists,
    effect_checks,
    eig_hermitian,
    hermitian_stack,
    hs_distance,
    identity,
    is_effect,
    max_scale,
    operator_to_jsonable,
    operators_to_jsonable,
    pom_from_jsonable,
    pom_to_jsonable,
    random_density,
    random_effect,
    random_mic_pom,
    random_onb,
    rank_one,
    sic_mic_pom,
    verification_effects,
)
from effectframes.effects import _effects_from_rng

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


@pytest.mark.parametrize("top, finite", [(0.5, False), (3.0, True)])
def test_max_scale_is_finite_only_above_psd_slack(top, finite):
    e = Effect(HermitianOperator(np.diag([top * DEFAULT_TOL.psd_slack, 0.0]).astype(complex)))
    if finite:
        assert max_scale(e) == pytest.approx(1.0 / (top * DEFAULT_TOL.psd_slack))
    else:
        with pytest.raises(ValueError, match="zero effect"):
            max_scale(e)


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
    assert hs_distance(HermitianOperator(sic.stack.sum(axis=0)), identity(2)) < 1e-14


def test_sic_element_spectra():
    for e in sic_mic_pom().effects:
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
    assert len(mic.effects) == 9
    assert hs_distance(HermitianOperator(mic.stack.sum(axis=0)), identity(3)) < 1e-10


def test_random_mic_pom_deterministic():
    m1 = random_mic_pom(3, 7)
    m2 = random_mic_pom(3, 7)
    for a, b in zip(m1.effects, m2.effects):
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
            sic.effects[0],
            sic.effects[1],
            Effect(identity(2) - sic.effects[0].op - sic.effects[1].op),
        )
    )
    with pytest.raises(ValueError):
        MicPom(three)


def test_density_operator_validation():
    with pytest.raises(ValueError):
        DensityOperator(identity(2))
    with pytest.raises(ValueError):
        DensityOperator(HermitianOperator(np.diag([1.5, -0.5]).astype(complex)))


def test_pom_json_round_trip():
    sic = sic_mic_pom()
    blob = json.dumps(pom_to_jsonable(sic), sort_keys=True)
    back = pom_from_jsonable(json.loads(blob))
    assert len(back.effects) == 4
    for a, b in zip(sic.effects, back.effects):
        assert hs_distance(a.op, b.op) < 1e-15


def _reference_effect_check(h, tol):
    """Per-operator decision on the full eigendecomposition."""
    w, _ = eig_hermitian(h)
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


@pytest.mark.parametrize("low, high, ok", [
    (-0.5, 0.0, True), (-3.0, 0.0, False), (0.0, 0.5, True), (0.0, 3.0, False),
])
def test_effect_check_turns_at_psd_slack(low, high, ok):
    # Spectrum {low, 1 + high} in units of psd_slack: only one bound decides.
    slack = DEFAULT_TOL.psd_slack
    op = HermitianOperator(np.diag([low * slack, 1.0 + high * slack]).astype(complex))
    check = is_effect(op)
    assert check.ok == ok
    if not ok:
        assert check.witness == (low * slack if low else 1.0 + high * slack)


def test_pom_names_its_first_non_effect_element():
    ops = [identity(2) * 0.5, identity(2) * 0.25, identity(2) * 1.5]
    with pytest.raises(NotAnEffectError, match="element 2"):
        POM(ops)


def test_pom_json_rejects_mixed_dimensions():
    blob = {"dim": 2, "effects": [operator_to_jsonable(identity(2) * 0.5),
                                  operator_to_jsonable(identity(3) * 0.5)]}
    with pytest.raises(DimensionMismatchError):
        pom_from_jsonable(blob)


# -- random effects are drawn as one stack ----------------------------------

def _per_effect_reference(d, rng, count):
    """Effect by effect: two (d, d) draws, one ``eigh``, one affine rescale."""
    mats = []
    for _ in range(count):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (x + x.conj().T) / 2.0
        w = np.linalg.eigh(h)[0]
        spread = float(w[-1] - w[0])
        if spread < 1e-12:
            mats.append(np.eye(d, dtype=np.complex128) / 2.0)
        else:
            mats.append((h - float(w[0]) * np.eye(d)) / spread)
    return np.stack(mats)


@pytest.mark.parametrize("count", [1, 200])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
def test_batched_effects_equal_per_effect_draws(d, count):
    reference = _per_effect_reference(d, np.random.default_rng(1234), count)
    batched = np.stack([e.mat for e in verification_effects(d, 1234, count)])
    assert batched.dtype == reference.dtype and batched.shape == reference.shape
    assert batched.tobytes() == reference.tobytes()
    single = random_effect(d, 1234).mat
    assert single.tobytes() == reference[0].tobytes()


class _Stream:
    """A stand-in generator handing out a fixed sequence of numbers in order."""

    def __init__(self, numbers):
        self.numbers = np.asarray(numbers, dtype=np.float64)

    def standard_normal(self, size):
        n = math.prod(size)
        out, self.numbers = self.numbers[:n], self.numbers[n:]
        return out.reshape(size)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_batched_flat_spectrum_is_half_identity(d):
    zeros = np.zeros(3 * 2 * d * d)
    batched = _effects_from_rng(d, _Stream(zeros), 3)
    reference = _per_effect_reference(d, _Stream(zeros), 3)
    assert batched.tobytes() == reference.tobytes()
    assert np.array_equal(batched, np.broadcast_to(np.eye(d) / 2.0, (3, d, d)))
    # A flat element between two drawn ones: the mask replaces only that one.
    numbers = np.random.default_rng(d).standard_normal(3 * 2 * d * d)
    numbers[2 * d * d:4 * d * d] = 0.0
    batched = _effects_from_rng(d, _Stream(numbers), 3)
    reference = _per_effect_reference(d, _Stream(numbers), 3)
    assert batched.tobytes() == reference.tobytes()
    assert np.array_equal(batched[1], np.eye(d) / 2.0)
    assert not np.array_equal(batched[0], np.eye(d) / 2.0)


def test_batched_draw_reports_eigensolver_failure(monkeypatch):
    def diverge(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", diverge)
    with pytest.raises(EigensolverError, match="eigendecomposition failed"):
        random_effect(3, 0)
    with pytest.raises(EigensolverError, match="eigendecomposition failed"):
        verification_effects(3, 98765, 7)


def _reference_random_mic_pom(d, seed):
    """`random_mic_pom`'s stack as drawn before: two calls per vector."""
    rng = np.random.default_rng(seed)
    eye = np.eye(d, dtype=np.complex128)
    vecs = np.empty((d * d, d), dtype=np.complex128)
    for _ in range(32):
        for k in range(d * d):
            vecs[k] = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        mats = vecs[:, :, np.newaxis] * vecs[:, np.newaxis, :].conj()
        mats *= 0.5 / float(eig_hermitian(HermitianOperator(mats.sum(axis=0)))[0][0])
        deficit = (eye - mats.sum(axis=0)) / (d * d)
        stack = hermitian_stack(mats + deficit)
        w = np.linalg.eigvalsh(stack)
        if w.min() >= -DEFAULT_TOL.psd_slack and w.max() <= 1.0 + DEFAULT_TOL.psd_slack:
            return stack
    return None


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_random_mic_pom_draws_as_before(d):
    for seed in range(20):
        assert random_mic_pom(d, seed).stack.tobytes() == (
            _reference_random_mic_pom(d, seed).tobytes()
        ), seed


def test_pom_json_reads_rows_and_effects_alike():
    mic = random_mic_pom(3, 5)
    rows = json.loads(json.dumps(pom_to_jsonable(mic)))
    effects = json.loads(json.dumps({"dim": 3, "effects": operators_to_jsonable(mic.stack)}))
    assert set(rows) == {"dim", "rows"} and set(effects) == {"dim", "effects"}
    for blob in (rows, effects):
        assert pom_from_jsonable(blob).stack.tobytes() == mic.stack.tobytes()
    assert len(json.dumps(rows)) < 0.6 * len(json.dumps(effects))


def test_pom_json_rows_are_checked_as_effects():
    mic = random_mic_pom(2, 5)
    blob = pom_to_jsonable(mic)
    blob["rows"][0][0] = 1.5  # a diagonal entry above one
    with pytest.raises(NotAnEffectError, match="element 0"):
        pom_from_jsonable(blob)
    blob = pom_to_jsonable(mic)
    blob["rows"][0][1] += 1e-3  # no longer sums to the identity
    with pytest.raises(PomIdentityError):
        pom_from_jsonable(blob)


# ---------------------------------------------------------------------------
# Each family holds one array
# ---------------------------------------------------------------------------

def _mic_pom_views(mic):
    return mic, mic.basis_view, mic.effects


def _parsed_mic_pom(layout):
    mic = random_mic_pom(3, 2)
    if layout == "rows":
        obj = pom_to_jsonable(mic)
    else:
        obj = {"dim": 3, "effects": operators_to_jsonable(mic.stack)}
    pom = pom_from_jsonable(json.loads(json.dumps(obj)))
    family = MicPom(pom)
    assert family.stack is pom.stack
    return _mic_pom_views(family)


def _augmented(layout):
    from effectframes import (
        augmented_basis_from_jsonable,
        augmented_basis_from_onb,
        augmented_basis_to_jsonable,
    )

    basis = augmented_basis_from_onb(random_onb(3, 4))
    if layout != "built":
        obj = augmented_basis_to_jsonable(basis, elements=layout == "elements")
        basis = augmented_basis_from_jsonable(json.loads(json.dumps(obj)))
    return basis, basis.basis_view, basis.ops + tuple(e.op for e in basis.elements)


def _tabulated_frame_basis():
    from effectframes import (
        TabulatedFrame,
        frame_from_jsonable,
        frame_to_jsonable,
        orthonormal_operator_basis,
    )

    frame = TabulatedFrame(orthonormal_operator_basis(3), np.arange(9.0))
    basis = frame_from_jsonable(json.loads(json.dumps(frame_to_jsonable(frame)))).basis
    return basis, basis, basis.elements


ONE_ARRAY_FAMILIES = {
    "random_mic_pom": lambda: _mic_pom_views(random_mic_pom(3, 1)),
    "sic_mic_pom": lambda: _mic_pom_views(sic_mic_pom()),
    "pom_from_jsonable-rows": lambda: _parsed_mic_pom("rows"),
    "pom_from_jsonable-effects": lambda: _parsed_mic_pom("effects"),
    "augmented_basis_from_onb": lambda: _augmented("built"),
    "augmented_basis_from_jsonable-elements": lambda: _augmented("elements"),
    "augmented_basis_from_jsonable-compact": lambda: _augmented("compact"),
    "frame_from_jsonable-tabulated": _tabulated_frame_basis,
}


@pytest.mark.parametrize("build", ONE_ARRAY_FAMILIES.values(), ids=ONE_ARRAY_FAMILIES.keys())
def test_each_family_holds_one_array(build):
    family, view, elements = build()
    stack = family.stack
    assert isinstance(stack, np.ndarray) and not stack.flags.writeable
    assert view.stack is stack
    assert len(elements) >= len(stack)
    # Element objects are views of the stack, not copies of it.
    assert all(np.shares_memory(el.mat, stack) for el in elements)
