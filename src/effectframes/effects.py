"""Effects, measurements, and seeded random ensembles.

An effect is a Hermitian operator whose spectrum lies in the unit interval.
A positive operator measure (POM) is a finite family of effects summing to
the identity, and a minimal informationally complete POM (MIC-POM) is a POM
of exactly d**2 linearly independent effects, which therefore doubles as an
operator basis.  This module provides those value types, the pairwise
coexistence test, a closed-form qubit MIC-POM, and deterministic seeded
generators for states, effects, orthonormal vector families, and MIC-POMs.

Families of effects are checked as one stack: `effect_checks` decides a
whole (n, d, d) stack with one batched ``eigvalsh``, and `is_effect` is its
one-element case.  A POM stores the stack it was built from, its
`effects` view it, and a MIC-POM's `basis_view` is an `OperatorBasis` on
that same stack.  `check_pom` judges both, and ``validate`` reports it.

Random effects are drawn the same way: `verification_effects` builds its
whole set from one Gaussian draw, one batched ``eigh`` and one effect
check; `random_effect` and the coexisting-pair sampler of `frames` draw
one and two effects the same way.

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
    _eigh,
    _operator_stack,
    _operator_views,
    coordinate_rank,
    eig_hermitian,
    hermitian_stack,
    operators_from_jsonable,
    operators_from_rows,
    operators_to_rows,
    stacked_coordinates,
)

__all__ = [
    "DensityOperator",
    "Effect",
    "EffectCheck",
    "GenerationRetryError",
    "MicPom",
    "NotADensityError",
    "NotAnEffectError",
    "POM",
    "PomCheck",
    "PomIdentityError",
    "check_pom",
    "coexists",
    "effect_checks",
    "is_effect",
    "max_scale",
    "pom_from_jsonable",
    "pom_stack_from_jsonable",
    "pom_to_jsonable",
    "random_density",
    "random_effect",
    "random_mic_pom",
    "random_onb",
    "sic_mic_pom",
    "verification_effects",
]


class NotAnEffectError(ValueError):
    """Operator spectrum leaves [0, 1] beyond the admissible slack."""


class NotADensityError(ValueError):
    """Operator is not positive semidefinite of unit trace within tolerance."""


class PomIdentityError(ValueError):
    """Effects of a would-be POM do not sum to the identity."""


class GenerationRetryError(RuntimeError):
    """Randomized construction failed after its fixed number of attempts."""


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
    return _spectrum_checks(w[:, 0], w[:, -1], tol)


def _spectrum_checks(
    low: np.ndarray, high: np.ndarray, tol: ToleranceConfig
) -> tuple[EffectCheck, ...]:
    """The verdicts of `effect_checks` from each element's extreme eigenvalues."""
    low_bad = low < -tol.psd_slack
    high_bad = high > 1.0 + tol.psd_slack
    failed = low_bad | high_bad
    if not failed.any():
        return (_IS_EFFECT,) * len(low)
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
                f"eigenvalue {check.witness!r} lies outside [0, 1]"
            )

    @property
    def dim(self) -> int:
        return self.op.dim

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat

    def __repr__(self) -> str:
        return f"Effect(dim={self.dim})"


def _require_effects(mats: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> None:
    """Check an (n, d, d) Hermitian stack as effects with one `effect_checks`.

    Raises `NotAnEffectError` naming the first element whose spectrum
    leaves [0, 1].
    """
    for k, check in enumerate(effect_checks(mats, tol)):
        if not check.ok:
            raise NotAnEffectError(
                f"element {k} is not an effect: "
                f"eigenvalue {check.witness!r} lies outside [0, 1]"
            )


def _checked_effect(op: HermitianOperator) -> Effect:
    """Wrap an operator whose effect check has already passed, without repeating it."""
    e = object.__new__(Effect)
    object.__setattr__(e, "op", op)
    return e


def _effect_views(mats: np.ndarray) -> tuple[Effect, ...]:
    """Effects viewing the elements of a stack whose effect check has passed."""
    return tuple(map(_checked_effect, _operator_views(mats)))


def coexists(e1: Effect, e2: Effect, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when the sum of the two effects is again an effect.

    This is the exact condition under which both outcomes can occur in a
    single measurement.
    """
    return is_effect(e1.op + e2.op, tol).ok


def max_scale(e: Effect, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Largest x such that x*E is still an effect, namely 1/lambda_max(E)."""
    w, _ = eig_hermitian(e.op)
    top = float(w[0])
    if top <= tol.psd_slack:
        raise ValueError("the zero effect admits arbitrary scaling; no finite bound")
    return 1.0 / top


class PomCheck(NamedTuple):
    """`check_pom`'s report details, first violated condition and its error."""

    details: dict
    violated: str | None = None
    error: ValueError | None = None
    basis: OperatorBasis | None = None  # a passing MIC-POM's certified basis


def check_pom(mats: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL, mic: bool = False) -> PomCheck:
    """Check an (n, d, d) Hermitian stack as a POM, or with `mic` as a MIC-POM.

    In order: ``size`` (n >= 2), ``effect-spectrum``, ``sum-to-identity``
    and, for a MIC-POM, ``element-count`` (n = d**2) and
    ``linear-independence`` (the rank certificate of `OperatorBasis`).
    """
    n, d = len(mats), mats.shape[-1]
    details: dict = {"dim": d, "count": n}
    if n < 2:
        return PomCheck(details, "size", ValueError("a POM needs at least two effects"))
    try:
        _require_effects(mats, tol)
    except NotAnEffectError as exc:  # the witness is read again on this path only
        details["offending_eigenvalue"] = next(c.witness for c in effect_checks(mats, tol) if not c)
        return PomCheck(details, "effect-spectrum", exc)
    dev = float(np.linalg.norm(mats.sum(axis=0) - np.eye(d)))
    details["sum_deviation"] = dev
    if dev > tol.residual:
        return PomCheck(details, "sum-to-identity", PomIdentityError(
            f"effects sum to identity only within {dev:.3e} (allowed {tol.residual:.1e})"
        ))
    if not mic:
        return PomCheck(details)
    if n != d * d:
        return PomCheck(details, "element-count", ValueError(
            f"a MIC-POM on dimension {d} needs exactly {d * d} effects, got {n}"
        ))
    try:
        basis = OperatorBasis(mats, tol)
    except SingularBasisError as exc:
        details["rank"] = coordinate_rank(stacked_coordinates(mats)).rank(tol)
        return PomCheck(details, "linear-independence", exc)
    details["rank"] = basis.rank
    return PomCheck(details, basis=basis)


@dataclass(frozen=True, eq=False, init=False)
class POM:
    """Ordered family of at least two effects summing to the identity.

    Built from effects or a validated stack, it keeps that (n, d, d) `stack`
    and `tol` once `check_pom` passes at `tol`, and raises the violated error otherwise.
    """

    stack: np.ndarray
    tol: ToleranceConfig

    def __init__(self, effects, tol: ToleranceConfig = DEFAULT_TOL):
        stack = _operator_stack(effects)
        check = check_pom(stack, tol, mic=isinstance(self, MicPom))
        if check.error is not None:
            raise check.error
        self.__dict__.update(stack=stack, tol=tol)  # past the frozen __setattr__
        if check.basis is not None:
            object.__setattr__(self, "basis_view", check.basis)

    @property
    def dim(self) -> int:
        return self.stack.shape[-1]

    @cached_property
    def effects(self) -> tuple[Effect, ...]:
        return _effect_views(self.stack)

    def __len__(self) -> int:
        return len(self.stack)

    def __iter__(self):
        return iter(self.effects)

    def __getitem__(self, j: int) -> Effect:
        return self.effects[j]


class MicPom(POM):
    """POM of exactly d**2 linearly independent effects.

    The effects double as a basis of the Hermitian operators: `basis_view`
    is the `OperatorBasis` on the same stack.
    """

    basis_view: OperatorBasis


def _density_check(h: HermitianOperator, tol: ToleranceConfig) -> tuple[float, float, str | None]:
    """Trace, smallest eigenvalue and first failed condition of a would-be state:
    |Tr h - 1| <= residual (``trace``), then lambda_min >= -psd_slack (``positivity``)."""
    trace, low = h.trace(), float(eig_hermitian(h)[0][-1])
    if not abs(trace - 1.0) <= tol.residual:
        return trace, low, "trace"
    return trace, low, None if low >= -tol.psd_slack else "positivity"


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Positive semidefinite Hermitian operator of unit trace."""

    op: HermitianOperator
    tol: InitVar[ToleranceConfig] = DEFAULT_TOL

    def __post_init__(self, tol: ToleranceConfig) -> None:
        tr, low, violated = _density_check(self.op, tol)
        if violated == "trace":
            raise NotADensityError(f"trace {tr!r} differs from 1 beyond {tol.residual:.1e}")
        if violated == "positivity":
            raise NotADensityError(f"negative eigenvalue {low:.3e}")

    @property
    def dim(self) -> int:
        return self.op.dim

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat


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
    mats = []
    for s in _TETRAHEDRON:
        m = np.eye(2, dtype=np.complex128)
        for comp, pauli in zip(s, _PAULIS):
            m = m + comp * pauli
        mats.append(m / 4.0)
    return MicPom(hermitian_stack(mats), tol)


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


def _effects_from_rng(
    d: int, rng: np.random.Generator, count: int, tol: ToleranceConfig = DEFAULT_TOL
) -> np.ndarray:
    """The (count, d, d) stack of `count` random effects, drawn and checked as one.

    Effect k is the Hermitian part of the k-th complex Gaussian matrix
    (real part drawn before imaginary part, matrix after matrix), its
    spectrum affinely rescaled onto [0, 1]; a flat spectrum gives I/2.
    """
    g = rng.standard_normal((count, 2, d, d))
    x = g[:, 0] + 1j * g[:, 1]
    h = hermitian_stack((x + x.conj().swapaxes(1, 2)) / 2.0)
    w, _ = _eigh(h)
    low, spread = w[:, 0], w[:, -1] - w[:, 0]
    flat = spread < 1e-12
    scale = np.where(flat, 1.0, spread)
    mats = (h - low[:, np.newaxis, np.newaxis] * np.eye(d)) / scale[:, np.newaxis, np.newaxis]
    mats[flat] = np.eye(d) / 2.0
    stack = hermitian_stack(mats)
    _require_effects(stack, tol)
    return stack


def random_effect(d: int, seed: int, tol: ToleranceConfig = DEFAULT_TOL) -> Effect:
    """Random Hermitian operator with spectrum affinely rescaled onto [0, 1]."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    return _effect_views(_effects_from_rng(d, np.random.default_rng(seed), 1, tol))[0]


# Draws `random_mic_pom` makes on one random stream before it gives up.
_MIC_POM_ATTEMPTS = 32


def random_mic_pom(d: int, seed: int, tol: ToleranceConfig = DEFAULT_TOL) -> MicPom:
    """Seeded MIC-POM in any dimension d >= 2.

    Draws d**2 random rank-one positive operators, rescales the family so
    its sum has top eigenvalue 1/2, then adds the deficit (I - sum)/d**2 to
    every element.  The result sums to the identity exactly; effect and
    rank-d**2 conditions are re-verified, drawing again from the same
    random stream up to 32 times.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    rng = np.random.default_rng(seed)
    eye = np.eye(d, dtype=np.complex128)
    failure = None
    for _ in range(_MIC_POM_ATTEMPTS):
        # Vector k: d real parts, then d imaginary parts, vector after vector.
        g = rng.standard_normal((d * d, 2, d))
        vecs = g[:, 0] + 1j * g[:, 1]
        mats = vecs[:, :, np.newaxis] * vecs[:, np.newaxis, :].conj()
        top = float(eig_hermitian(HermitianOperator(mats.sum(axis=0)))[0][0])
        mats *= 0.5 / top
        deficit = (eye - mats.sum(axis=0)) / (d * d)
        try:
            return MicPom(hermitian_stack(mats + deficit), tol)
        except (NotAnEffectError, PomIdentityError, SingularBasisError) as exc:
            failure = exc
    raise GenerationRetryError(
        f"no MIC-POM found for dim {d} after {_MIC_POM_ATTEMPTS} attempts (seed {seed})"
    ) from failure


@lru_cache(maxsize=64)
def verification_effects(d: int, seed: int, count: int = 200) -> tuple[Effect, ...]:
    """Memoized set of seeded random effects used as a verification set.

    The whole set is one draw: the same effects, bit for bit, as `count`
    one-element draws from the same random stream.
    """
    return _effect_views(_verification_stack(d, seed, count))


@lru_cache(maxsize=64)
def _verification_stack(d: int, seed: int, count: int) -> np.ndarray:
    """The (count, d, d) stack of `verification_effects`."""
    return _effects_from_rng(d, np.random.default_rng(seed), count)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def pom_to_jsonable(p: POM) -> dict:
    """Wire format ``{"dim": d, "rows": [[...], ...]}``.

    One row of d**2 unscaled coordinates per effect (`operators_to_rows`):
    half the numbers of the full matrices, each an exact matrix entry.
    """
    return {"dim": p.dim, "rows": operators_to_rows(p.stack)}


def pom_stack_from_jsonable(obj: dict) -> np.ndarray:
    """The validated (n, d, d) stack of a POM file, not yet checked as a POM.

    Reads the ``rows`` of `pom_to_jsonable` or, as older files store the
    effects, an ``effects`` list of operator objects.  Malformed JSON
    raises `ValueError`, a list mixing dimensions `DimensionMismatchError`.
    """
    if not isinstance(obj, dict) or ("effects" not in obj and "rows" not in obj):
        raise ValueError("POM JSON must carry 'rows' or an 'effects' list")
    if "rows" in obj:
        return operators_from_rows(obj["rows"], int(obj["dim"]))
    return operators_from_jsonable(obj["effects"])


def pom_from_jsonable(obj: dict, tol: ToleranceConfig = DEFAULT_TOL) -> POM:
    """Parse either layout of a POM file and check the POM at `tol`.

    Malformed JSON raises `ValueError` (`pom_stack_from_jsonable`); a POM
    that fails `check_pom` raises that condition's exception.
    """
    return POM(pom_stack_from_jsonable(obj), tol)
