"""Rank-one effect bases grown out of an orthonormal vector family.

Starting from d orthonormal vectors, the construction completes their
projectors to d**2 linearly independent rank-one projections, sums them to
an operator G, and divides everything by the top eigenvalue Gamma of G.
The scaled family consists of rank-one effects whose first d members are
c |e_j><e_j| with c = 1/Gamma in (0, 1), and whose total is an effect.
Appending the deficit I - G/Gamma turns the family into a POM.

The family is built and validated as one (d**2, d, d) stack, and
`validate_augmented` checks its rank-one condition with one batched
``eigvalsh``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .operators import (
    DEFAULT_TOL,
    HermitianOperator,
    OperatorBasis,
    ToleranceConfig,
    _operator_views,
    complex_from_jsonable,
    complex_to_jsonable,
    eig_hermitian,
    hermitian_stack,
    identity,
    numerical_rank,
    operators_from_jsonable,
    operators_to_jsonable,
    stacked_coordinates,
)
from .effects import Effect, NotAnEffectError, POM, effects_of, is_effect

__all__ = [
    "AugmentedBasis",
    "AugmentedBasisReport",
    "ConditionResult",
    "NotOrthonormalError",
    "augmented_basis_from_jsonable",
    "augmented_basis_from_onb",
    "augmented_basis_to_jsonable",
    "complete_projector_basis",
    "validate_augmented",
]


class NotOrthonormalError(ValueError):
    """Input vector family is not orthonormal within tolerance."""


def _as_onb_matrix(onb, tol: ToleranceConfig) -> np.ndarray:
    u = np.array(onb, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected d vectors of length d as matrix columns, got shape {u.shape}")
    d = u.shape[0]
    dev = float(np.linalg.norm(u.conj().T @ u - np.eye(d)))
    if dev > tol.residual:
        raise NotOrthonormalError(
            f"Gram deviation from identity is {dev:.3e} (allowed {tol.residual:.1e})"
        )
    return u


def complete_projector_basis(
    onb, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[HermitianOperator, ...]:
    """d**2 linearly independent rank-one projections containing the onb.

    The first d outputs project onto the input vectors e_j; each pair
    j < k contributes projections onto (e_j + e_k)/sqrt(2) and
    (e_j + i e_k)/sqrt(2).  Columns of `onb` are the vectors.
    """
    return _operator_views(_projector_stack(_as_onb_matrix(onb, tol)))


def _projector_stack(u: np.ndarray) -> np.ndarray:
    """The completed projector family of `complete_projector_basis` as a stack."""
    d = u.shape[0]
    vecs = [u[:, j] for j in range(d)]
    for j in range(d):
        for k in range(j + 1, d):
            vecs.append((u[:, j] + u[:, k]) / math.sqrt(2.0))
            vecs.append((u[:, j] + 1j * u[:, k]) / math.sqrt(2.0))
    vecs = np.array(vecs)
    return hermitian_stack(vecs[:, :, np.newaxis] * vecs[:, np.newaxis, :].conj())


@dataclass(frozen=True, eq=False)
class AugmentedBasis:
    """d**2 rank-one effects, the first d proportional to onb projectors.

    Construction performs shape checks only, so that `validate_augmented`
    stays a total function over arbitrary (possibly tampered) instances.
    Use `augmented_basis_from_onb` to build valid instances.

    Attributes
    ----------
    onb : complex d x d array whose columns are the orthonormal vectors
    ops : the d**2 scaled rank-one operators B_j
    c : common scale of the first d elements, in (0, 1) when valid
    gamma : top eigenvalue of the projector sum G (so c defaults to 1/gamma)
    tol : tolerances of the effect checks of `elements` and `completion`
        and of the rank certificate of `basis_view`
    """

    onb: np.ndarray
    ops: tuple[HermitianOperator, ...]
    c: float
    gamma: float
    tol: ToleranceConfig = DEFAULT_TOL

    def __post_init__(self) -> None:
        u = np.array(self.onb, dtype=np.complex128)
        u.setflags(write=False)
        object.__setattr__(self, "onb", u)
        ops = tuple(self.ops)
        object.__setattr__(self, "ops", ops)
        d = u.shape[0]
        if len(ops) != d * d:
            raise ValueError(f"expected {d * d} elements, got {len(ops)}")
        if any(op.dim != d for op in ops):
            raise ValueError("element dimensions disagree with the vector family")

    @property
    def dim(self) -> int:
        return int(self.onb.shape[0])

    def __len__(self) -> int:
        return len(self.ops)

    @cached_property
    def stack(self) -> np.ndarray:
        """The operators as one read-only (d**2, d, d) array."""
        mats = np.stack([op.mat for op in self.ops])
        mats.setflags(write=False)
        return mats

    @cached_property
    def elements(self) -> tuple[Effect, ...]:
        """The operators as validated effects."""
        return effects_of(self.ops, self.tol)

    @cached_property
    def basis_view(self) -> OperatorBasis:
        return OperatorBasis(self.ops, kind="augmented", tol=self.tol)

    @cached_property
    def element_sum(self) -> HermitianOperator:
        return HermitianOperator(self.stack.sum(axis=0))

    @cached_property
    def completion(self) -> Effect:
        """The deficit I - sum(B_j), the extra element of the POM closure."""
        return Effect(identity(self.dim) - self.element_sum, self.tol)

    def as_pom(self, tol: ToleranceConfig = DEFAULT_TOL) -> POM:
        """POM closure: the d**2 elements followed by the completion element."""
        return POM(self.elements + (self.completion,), tol)


def augmented_basis_from_onb(
    onb,
    c: float | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> AugmentedBasis:
    """Scale the completed projector family into an augmented basis.

    With the default ``c = None`` the scale is 1/Gamma, Gamma being the top
    eigenvalue of the projector sum; the scaled sum then has top eigenvalue
    exactly one.  An explicit override c in (0, 1) is accepted only when
    c * Gamma <= 1 still holds, i.e. the rescaled family keeps an effect
    for its sum; otherwise the offending eigenvalue is reported.
    """
    u = _as_onb_matrix(onb, tol)
    projs = _projector_stack(u)
    gamma = float(eig_hermitian(HermitianOperator(projs.sum(axis=0)), tol)[0][0])
    if c is None:
        c_val = 1.0 / gamma
    else:
        c_val = float(c)
        if not 0.0 < c_val < 1.0:
            raise ValueError(f"scale c must lie in (0, 1), got {c_val!r}")
        top = c_val * gamma
        if top > 1.0 + tol.psd_slack:
            raise NotAnEffectError(
                f"override c = {c_val} gives the element sum top eigenvalue "
                f"{top:.12g} > 1"
            )
    ops = _operator_views(hermitian_stack(c_val * projs))
    basis = AugmentedBasis(onb=u, ops=ops, c=c_val, gamma=gamma, tol=tol)
    basis.basis_view  # certify linear independence eagerly
    return basis


def augmented_basis_to_jsonable(basis: AugmentedBasis) -> dict:
    """Wire format ``{"onb": [...], "c": c, "gamma": gamma, "elements": [...]}``."""
    return {
        "onb": complex_to_jsonable(basis.onb),
        "c": basis.c,
        "gamma": basis.gamma,
        "elements": operators_to_jsonable(basis.stack),
    }


def augmented_basis_from_jsonable(obj: dict, tol: ToleranceConfig = DEFAULT_TOL) -> AugmentedBasis:
    """Rebuild an augmented basis from its wire format with shape checks only.

    Whether it satisfies its defining conditions is for `validate_augmented`
    to report.  Missing keys raise `KeyError`, malformed content
    `ValueError`.
    """
    ops = _operator_views(operators_from_jsonable(obj["elements"]))
    d = ops[0].dim
    return AugmentedBasis(
        onb=complex_from_jsonable(obj["onb"], (d, d)),
        ops=ops,
        c=float(obj["c"]),
        gamma=float(obj["gamma"]),
        tol=tol,
    )


@dataclass(frozen=True)
class ConditionResult:
    passed: bool
    witness: float
    detail: str


@dataclass(frozen=True)
class AugmentedBasisReport:
    """Per-condition verdicts for the defining invariants.

    `sum_identity_gap` is informational: it records how far the element sum
    is from the identity, since the family itself is never a POM (the gap
    stays strictly positive for constructed instances).
    """

    conditions: dict[str, ConditionResult]
    passed: bool
    sum_identity_gap: float


def validate_augmented(
    basis: AugmentedBasis, tol: ToleranceConfig = DEFAULT_TOL
) -> AugmentedBasisReport:
    """Check the four defining conditions, returning numeric witnesses.

    Conditions: (1) the first d elements equal c |e_j><e_j| with c in
    (0, 1); (2) the element sum is an effect; (3) every element is rank
    one; (4) the elements are linearly independent.  Total: never raises
    on malformed content, it reports instead.
    """
    d = basis.dim
    conditions: dict[str, ConditionResult] = {}

    # Condition 1: scaled projectors onto the vector family, scale in (0, 1).
    c_ok = 0.0 < basis.c < 1.0
    cols = basis.onb.T
    targets = basis.c * (cols[:, :, np.newaxis] * cols[:, np.newaxis, :].conj())
    max_dev = float(np.max(np.linalg.norm(basis.stack[:d] - targets, axis=(1, 2))))
    proj_ok = max_dev <= tol.residual
    conditions["scaled-projectors"] = ConditionResult(
        passed=c_ok and proj_ok,
        witness=basis.c if not c_ok else max_dev,
        detail=(
            f"c = {basis.c!r} outside (0, 1)" if not c_ok
            else f"max deviation of first {d} elements from c|e_j><e_j| is {max_dev:.3e}"
        ),
    )

    # Condition 2: the element sum is an effect.
    check = is_effect(basis.element_sum, tol)
    w_sum, _ = eig_hermitian(basis.element_sum, tol)
    conditions["sum-effect"] = ConditionResult(
        passed=check.ok,
        witness=float(check.witness) if not check.ok else float(w_sum[0]),
        detail=(
            f"element sum has eigenvalue {check.witness:.12g} outside [0, 1]"
            if not check.ok
            else f"element sum top eigenvalue {float(w_sum[0]):.12g}"
        ),
    )

    # Condition 3: every element rank one (all but the top eigenvalue tiny).
    w = np.linalg.eigvalsh(basis.stack)
    worst_second = float(np.max(np.abs(w[:, :-1]), initial=0.0))
    conditions["rank-one"] = ConditionResult(
        passed=worst_second <= tol.psd_slack,
        witness=worst_second,
        detail=f"largest second eigenvalue magnitude {worst_second:.3e}",
    )

    # Condition 4: linear independence over the reals.
    svals = np.linalg.svd(stacked_coordinates(basis.stack).T, compute_uv=False)
    ratio = float(svals[-1] / svals[0]) if svals[0] > 0 else 0.0
    rank = numerical_rank(svals, tol)
    conditions["linear-independence"] = ConditionResult(
        passed=rank == d * d,
        witness=ratio,
        detail=f"rank {rank} of {d * d}, sigma_min/sigma_max = {ratio:.3e}",
    )

    gap = float(np.linalg.norm(basis.element_sum.mat - np.eye(d)))
    return AugmentedBasisReport(
        conditions=conditions,
        passed=all(c.passed for c in conditions.values()),
        sum_identity_gap=gap,
    )
