"""Effects, measurements, and seeded random ensembles.

An effect is a Hermitian operator whose spectrum lies in the unit interval.
A positive operator measure (POM) is a finite family of effects summing to
the identity, and a minimal informationally complete POM (MIC-POM) is a POM
of exactly d**2 linearly independent effects, which therefore doubles as an
operator basis.  This module provides those value types, the pairwise
coexistence test, a closed-form qubit MIC-POM, and deterministic seeded
generators for states, effects, orthonormal vector families, and MIC-POMs.

Families of effects are checked as one stack: `effect_checks` decides a
whole (n, d, d) stack with one batched ``eigvalsh``, `is_effect` is its
one-element case, and POMs, MIC-POMs, their wire format and the seeded
MIC-POM generator validate all their elements in that one pass.

All generators are pure functions of (dim, seed).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .operators import (
    DEFAULT_TOL,
    HermitianOperator,
    OperatorBasis,
    SingularBasisError,
    ToleranceConfig,
    _check_same_dim,
    _operator_views,
    eig_hermitian,
    hermitian_stack,
    operators_from_jsonable,
    operators_to_jsonable,
)

__all__ = [
    "DensityOperator",
    "Effect",
    "EffectCheck",
    "GenerationRetryError",
    "MicPom",
    "NotAnEffectError",
    "POM",
    "PomIdentityError",
    "coexists",
    "effect_checks",
    "effects_of",
    "is_effect",
    "max_scale",
    "pom_from_jsonable",
    "pom_to_jsonable",
    "psd_sqrt",
    "random_density",
    "random_effect",
    "random_mic_pom",
    "random_onb",
    "sic_mic_pom",
    "verification_effects",
]


class NotAnEffectError(ValueError):
    """Operator spectrum leaves [0, 1] beyond the admissible slack."""


class PomIdentityError(ValueError):
    """Effects of a would-be POM do not sum to the identity."""


class GenerationRetryError(RuntimeError):
    """Randomized construction failed after the configured retry budget."""


class EffectCheck(NamedTuple):
    """Outcome of an effect test: a verdict and the offending eigenvalue."""

    ok: bool
    witness: float | None

    def __bool__(self) -> bool:
        return self.ok


_IS_EFFECT = EffectCheck(True, None)


def effect_checks(mats: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[EffectCheck, ...]:
    """Effect checks of an (n, d, d) Hermitian stack, from one batched ``eigvalsh``.

    Element k passes when its spectrum lies inside [-psd_slack,
    1 + psd_slack]; a failing check carries as witness the eigenvalue
    furthest outside the interval.
    """
    w = np.linalg.eigvalsh(mats)
    low, high = w[:, 0], w[:, -1]
    low_bad = low < -tol.psd_slack
    high_bad = high > 1.0 + tol.psd_slack
    failed = low_bad | high_bad
    if not failed.any():
        return (_IS_EFFECT,) * len(w)
    worst = np.where(low_bad & (~high_bad | (-low > high - 1.0)), low, high)
    return tuple(
        EffectCheck(False, float(x)) if bad else _IS_EFFECT for bad, x in zip(failed, worst)
    )


def is_effect(h: HermitianOperator, tol: ToleranceConfig = DEFAULT_TOL) -> EffectCheck:
    """Decide whether ``h`` has spectrum inside [-psd_slack, 1 + psd_slack].

    Total on Hermitian input; the one-element case of `effect_checks`.
    """
    return effect_checks(h.mat[np.newaxis], tol)[0]


@dataclass(frozen=True, eq=False)
class Effect:
    """Hermitian operator with spectrum in [0, 1], validated at construction."""

    op: HermitianOperator
    tol: InitVar[ToleranceConfig] = DEFAULT_TOL

    def __post_init__(self, tol: ToleranceConfig) -> None:
        check = is_effect(self.op, tol)
        if not check.ok:
            raise NotAnEffectError(
                f"eigenvalue {check.witness:.12g} lies outside [0, 1]"
            )

    @property
    def dim(self) -> int:
        return self.op.dim

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat

    def __repr__(self) -> str:
        return f"Effect(dim={self.dim})"


def effects_of(ops, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[Effect, ...]:
    """Wrap a family of same-dimension operators as effects, checked as one stack.

    Raises `NotAnEffectError` naming the first element whose spectrum
    leaves [0, 1].
    """
    ops = tuple(ops)
    for k, check in enumerate(effect_checks(np.stack([op.mat for op in ops]), tol)):
        if not check.ok:
            raise NotAnEffectError(
                f"element {k} is not an effect: "
                f"eigenvalue {check.witness:.12g} lies outside [0, 1]"
            )
    effects = []
    for op in ops:
        e = object.__new__(Effect)  # checked above; skips the per-element check
        object.__setattr__(e, "op", op)
        effects.append(e)
    return tuple(effects)


def coexists(e1: Effect, e2: Effect, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when the sum of the two effects is again an effect.

    This is the exact condition under which both outcomes can occur in a
    single measurement.
    """
    _check_same_dim(e1.op, e2.op)
    return is_effect(e1.op + e2.op, tol).ok


def max_scale(e: Effect, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Largest x such that x*E is still an effect, namely 1/lambda_max(E)."""
    w, _ = eig_hermitian(e.op, tol)
    top = float(w[0])
    if top <= tol.psd_slack:
        raise ValueError("the zero effect admits arbitrary scaling; no finite bound")
    return 1.0 / top


@dataclass(frozen=True, eq=False)
class POM:
    """Ordered family of at least two effects summing to the identity."""

    effects: tuple[Effect, ...]
    tol: InitVar[ToleranceConfig] = DEFAULT_TOL

    def __post_init__(self, tol: ToleranceConfig) -> None:
        effects = tuple(self.effects)
        object.__setattr__(self, "effects", effects)
        if len(effects) < 2:
            raise ValueError("a POM needs at least two effects")
        for e in effects[1:]:
            _check_same_dim(effects[0].op, e.op)
        dev = float(np.linalg.norm(self.stack.sum(axis=0) - np.eye(self.dim)))
        if dev > tol.residual:
            raise PomIdentityError(
                f"effects sum to identity only within {dev:.3e} "
                f"(allowed {tol.residual:.1e})"
            )

    @property
    def dim(self) -> int:
        return self.effects[0].dim

    def __len__(self) -> int:
        return len(self.effects)

    def __iter__(self):
        return iter(self.effects)

    def __getitem__(self, j: int) -> Effect:
        return self.effects[j]

    @cached_property
    def stack(self) -> np.ndarray:
        """The effects as one read-only (n, d, d) array."""
        mats = np.stack([e.mat for e in self.effects])
        mats.setflags(write=False)
        return mats

    def total(self) -> HermitianOperator:
        return HermitianOperator(self.stack.sum(axis=0))


@dataclass(frozen=True, eq=False)
class MicPom:
    """POM of exactly d**2 linearly independent effects.

    The effects double as a basis of the Hermitian operators; the basis
    view is validated (rank d**2) when the instance is created.
    """

    pom: POM
    tol: InitVar[ToleranceConfig] = DEFAULT_TOL

    def __post_init__(self, tol: ToleranceConfig) -> None:
        d = self.pom.dim
        if len(self.pom) != d * d:
            raise ValueError(
                f"a MIC-POM on dimension {d} needs exactly {d * d} effects, "
                f"got {len(self.pom)}"
            )
        object.__setattr__(self, "_tol", tol)
        self.basis_view  # force the rank certificate now, not lazily

    @cached_property
    def basis_view(self) -> OperatorBasis:
        return OperatorBasis(
            [e.op for e in self.pom], kind="mic-pom", tol=self._tol
        )

    @property
    def dim(self) -> int:
        return self.pom.dim

    @property
    def effects(self) -> tuple[Effect, ...]:
        return self.pom.effects

    def __len__(self) -> int:
        return len(self.pom)

    def __iter__(self):
        return iter(self.pom)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Positive semidefinite Hermitian operator of unit trace."""

    op: HermitianOperator
    tol: InitVar[ToleranceConfig] = DEFAULT_TOL

    def __post_init__(self, tol: ToleranceConfig) -> None:
        tr = self.op.trace()
        if abs(tr - 1.0) > tol.residual:
            raise ValueError(f"trace {tr!r} differs from 1 beyond {tol.residual:.1e}")
        w, _ = eig_hermitian(self.op, tol)
        if float(w[-1]) < -tol.psd_slack:
            raise ValueError(f"negative eigenvalue {float(w[-1]):.3e}")

    @property
    def dim(self) -> int:
        return self.op.dim

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat


def psd_sqrt(h: HermitianOperator, tol: ToleranceConfig = DEFAULT_TOL) -> HermitianOperator:
    """Positive square root of a positive semidefinite operator.

    Eigenvalues in [-psd_slack, 0) are clamped to zero; anything more
    negative is rejected.
    """
    w, v = eig_hermitian(h, tol)
    if float(w[-1]) < -tol.psd_slack:
        raise ValueError(f"operator is not positive (eigenvalue {float(w[-1]):.3e})")
    roots = np.sqrt(np.clip(w, 0.0, None))
    return HermitianOperator((v * roots) @ v.conj().T)


# ---------------------------------------------------------------------------
# Closed-form qubit MIC-POM
# ---------------------------------------------------------------------------

_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)

# Vertices of a regular tetrahedron inscribed in the unit sphere.
_TETRAHEDRON = np.array(
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=np.float64
) / math.sqrt(3.0)


def sic_mic_pom(d: int = 2, tol: ToleranceConfig = DEFAULT_TOL) -> MicPom:
    """Symmetric qubit MIC-POM with effects (I + s_j . sigma)/4.

    The four Bloch vectors s_j form a regular tetrahedron, so the effects
    sum to the identity and are linearly independent.  Only d = 2 has this
    closed form; use `random_mic_pom` for higher dimensions.
    """
    if d != 2:
        raise ValueError(f"closed-form construction exists only for d = 2, got {d}")
    effects = []
    for s in _TETRAHEDRON:
        m = np.eye(2, dtype=np.complex128)
        for comp, pauli in zip(s, _PAULIS):
            m = m + comp * pauli
        effects.append(Effect(HermitianOperator(m / 4.0), tol))
    return MicPom(POM(tuple(effects), tol), tol)


# ---------------------------------------------------------------------------
# Seeded random ensembles
# ---------------------------------------------------------------------------

def _ginibre(rng: np.random.Generator, d: int) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_onb(d: int, seed: int) -> np.ndarray:
    """Columns of a Haar-ish random unitary, deterministic in the seed.

    Phases are fixed so that the R factor of the QR decomposition has a
    positive diagonal, making the output unique.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(_ginibre(rng, d))
    diag = np.diag(r)
    q = q * (diag / np.abs(diag)).conj()
    q.setflags(write=False)
    return q


def random_density(d: int, seed: int, tol: ToleranceConfig = DEFAULT_TOL) -> DensityOperator:
    """Trace-normalized X X^dagger with X a seeded complex Gaussian matrix."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    rng = np.random.default_rng(seed)
    x = _ginibre(rng, d)
    m = x @ x.conj().T
    return DensityOperator(HermitianOperator(m / float(np.trace(m).real)), tol)


def _effect_from_rng(
    d: int, rng: np.random.Generator, tol: ToleranceConfig = DEFAULT_TOL
) -> Effect:
    x = _ginibre(rng, d)
    h = HermitianOperator((x + x.conj().T) / 2.0)
    w, _ = eig_hermitian(h, tol)
    spread = float(w[0] - w[-1])
    if spread < 1e-12:
        return Effect(HermitianOperator(np.eye(d, dtype=np.complex128) / 2.0), tol)
    mat = (h.mat - float(w[-1]) * np.eye(d)) / spread
    return Effect(HermitianOperator(mat), tol)


def random_effect(d: int, seed: int, tol: ToleranceConfig = DEFAULT_TOL) -> Effect:
    """Random Hermitian operator with spectrum affinely rescaled onto [0, 1]."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    return _effect_from_rng(d, np.random.default_rng(seed), tol)


def random_mic_pom(
    d: int,
    seed: int,
    tol: ToleranceConfig = DEFAULT_TOL,
    retries: int = 32,
) -> MicPom:
    """Seeded MIC-POM in any dimension d >= 2.

    Draws d**2 random rank-one positive operators, rescales the family so
    its sum has top eigenvalue 1/2, then adds the deficit (I - sum)/d**2 to
    every element.  The result sums to the identity exactly; effect and
    rank-d**2 conditions are re-verified, retrying on the same random
    stream up to `retries` times.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    rng = np.random.default_rng(seed)
    eye = np.eye(d, dtype=np.complex128)
    vecs = np.empty((d * d, d), dtype=np.complex128)
    for _ in range(retries):
        for k in range(d * d):
            vecs[k] = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        mats = vecs[:, :, np.newaxis] * vecs[:, np.newaxis, :].conj()
        top = float(eig_hermitian(HermitianOperator(mats.sum(axis=0)), tol)[0][0])
        mats *= 0.5 / top
        deficit = (eye - mats.sum(axis=0)) / (d * d)
        try:
            effects = effects_of(_operator_views(hermitian_stack(mats + deficit)), tol)
            return MicPom(POM(effects, tol), tol)
        except (NotAnEffectError, PomIdentityError, SingularBasisError):
            continue
    raise GenerationRetryError(
        f"no MIC-POM found for dim {d} after {retries} attempts (seed {seed})"
    )


@lru_cache(maxsize=64)
def verification_effects(d: int, seed: int, count: int = 200) -> tuple[Effect, ...]:
    """Memoized batch of seeded random effects used as a verification set."""
    rng = np.random.default_rng(seed)
    return tuple(_effect_from_rng(d, rng) for _ in range(count))


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def pom_to_jsonable(p: POM) -> dict:
    """Wire format ``{"dim": d, "effects": [operator-json, ...]}``."""
    return {"dim": p.dim, "effects": operators_to_jsonable(p.stack)}


def pom_from_jsonable(obj: dict, tol: ToleranceConfig = DEFAULT_TOL) -> POM:
    if not isinstance(obj, dict) or "effects" not in obj:
        raise ValueError("POM JSON must carry an 'effects' list")
    return POM(effects_of(_operator_views(operators_from_jsonable(obj["effects"])), tol), tol)
