"""Rank-one effect bases grown out of an orthonormal vector family.

Starting from d orthonormal vectors, the construction completes their
projectors to d**2 linearly independent rank-one projections, sums them to
an operator G, and divides everything by the top eigenvalue Gamma of G.
The scaled family consists of rank-one effects whose first d members are
c |e_j><e_j| with c = 1/Gamma in (0, 1), and whose total is an effect.
Appending the deficit I - G/Gamma turns the family into a POM.

The family is held as one (d**2, d, d) stack that `ops`, `elements` and
`basis_view` view, and `validate_augmented` checks its rank-one condition
with one batched ``eigvalsh``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .operators import (
    DEFAULT_TOL,
    CoordinateRank,
    HermitianOperator,
    OperatorBasis,
    ToleranceConfig,
    _operator_stack,
    _operator_views,
    _strict_upper,
    complex_from_jsonable,
    complex_to_jsonable,
    coordinate_rank,
    eig_hermitian,
    hermitian_stack,
    identity,
    operators_from_jsonable,
    operators_to_jsonable,
    stacked_coordinates,
)
from .effects import Effect, POM, _checked_effect, _require_effects, _spectrum_checks

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
    if d < 2:
        raise ValueError("dimension must be at least 2")
    dev = _gram_deviation(u)
    if dev > tol.residual:
        raise NotOrthonormalError(
            f"Gram deviation from identity is {dev:.3e} (allowed {tol.residual:.1e})"
        )
    return u


def _gram_deviation(u: np.ndarray) -> float:
    """||U^dagger U - I||, zero exactly when the columns of U are orthonormal."""
    return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])))


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
    j, k = _strict_upper(d)  # the pairs j < k in row-major order
    first, second = u[:, j].T, u[:, k].T
    pairs = np.stack([first + second, first + 1j * second], axis=1) / math.sqrt(2.0)
    vecs = np.concatenate([u.T, pairs.reshape(-1, d)])
    return hermitian_stack(vecs[:, :, np.newaxis] * vecs[:, np.newaxis, :].conj())


def _scaled_family(projs: np.ndarray, c: float) -> np.ndarray:
    """A `_projector_stack`, every element scaled by c."""
    return hermitian_stack(c * projs)


@dataclass(frozen=True, eq=False, init=False)
class AugmentedBasis:
    """d**2 rank-one effects, the first d proportional to onb projectors.

    Construction performs shape checks only, so that `validate_augmented`
    stays a total function over arbitrary (possibly tampered) instances.
    Use `augmented_basis_from_onb` to build valid instances.

    Attributes
    ----------
    onb : complex d x d array whose columns are the orthonormal vectors
    stack : the d**2 scaled rank-one operators B_j, given as `ops`
    ops : views of the B_j in `stack`
    c : common scale of the first d elements, in (0, 1) when valid
        (1/gamma when built by `augmented_basis_from_onb`)
    gamma : top eigenvalue of the projector sum G
    tol : tolerances of the effect checks of `elements` and `as_pom` and
        of the rank certificate of `basis_view`
    """

    onb: np.ndarray
    stack: np.ndarray
    c: float
    gamma: float
    tol: ToleranceConfig

    def __init__(self, onb, ops, c: float, gamma: float, tol: ToleranceConfig = DEFAULT_TOL):
        u = np.array(onb, dtype=np.complex128)
        u.setflags(write=False)
        stack = _operator_stack(ops)
        d = u.shape[0]
        if stack.shape != (d * d, d, d):
            raise ValueError(
                f"expected {d * d} elements of dimension {d}, got shape {stack.shape}"
            )
        self.__dict__.update(onb=u, stack=stack, c=c, gamma=gamma, tol=tol)  # past the frozen __setattr__

    @property
    def dim(self) -> int:
        return int(self.onb.shape[0])

    def __len__(self) -> int:
        return len(self.stack)

    @cached_property
    def ops(self) -> tuple[HermitianOperator, ...]:
        return _operator_views(self.stack)

    @cached_property
    def elements(self) -> tuple[Effect, ...]:
        """The operators as validated effects."""
        _require_effects(self.stack, self.tol)
        return tuple(map(_checked_effect, self.ops))

    @cached_property
    def basis_view(self) -> OperatorBasis:
        return OperatorBasis(self.stack, self.tol)

    @cached_property
    def element_sum(self) -> HermitianOperator:
        return HermitianOperator(self.stack.sum(axis=0))

    @cached_property
    def completion(self) -> HermitianOperator:
        """The deficit I - sum(B_j), the extra element of the POM closure.

        Unchecked: `validate_augmented` judges the element sum, and
        `as_pom` checks the deficit as an effect.
        """
        return identity(self.dim) - self.element_sum

    def as_pom(self) -> POM:
        """POM closure: the d**2 elements followed by the completion, checked at `tol`."""
        return POM(np.concatenate([self.stack, self.completion.mat[np.newaxis]]), self.tol)


def augmented_basis_from_onb(onb, tol: ToleranceConfig = DEFAULT_TOL) -> AugmentedBasis:
    """Scale the completed projector family into an augmented basis.

    The scale is c = 1/Gamma, Gamma being the top eigenvalue of the
    projector sum; the scaled sum then has top eigenvalue exactly one.
    """
    u = _as_onb_matrix(onb, tol)
    projs = _projector_stack(u)
    gamma = float(eig_hermitian(HermitianOperator(projs.sum(axis=0)))[0][0])
    c = 1.0 / gamma
    basis = AugmentedBasis(onb=u, ops=_scaled_family(projs, c), c=c, gamma=gamma, tol=tol)
    basis.basis_view  # certify linear independence eagerly
    return basis


def augmented_basis_to_jsonable(basis: AugmentedBasis, elements: bool = True) -> dict:
    """Wire format ``{"onb": [...], "c": c, "gamma": gamma, "elements": [...]}``.

    With `elements` False the elements are left out: they are the vector
    family's completed projectors scaled by c, which a reader rebuilds.
    """
    obj = {"onb": complex_to_jsonable(basis.onb), "c": basis.c, "gamma": basis.gamma}
    if elements:
        obj["elements"] = operators_to_jsonable(basis.stack)
    return obj


def augmented_basis_from_jsonable(obj: dict, tol: ToleranceConfig = DEFAULT_TOL) -> AugmentedBasis:
    """Rebuild an augmented basis from its wire format.

    Stored elements get shape checks only: whether they satisfy the
    defining conditions is for `validate_augmented` to report.  Absent
    elements are rebuilt from the vector family at the stored scale c, the
    way `augmented_basis_from_onb` builds them, once the family is checked
    orthonormal at `tol` (`NotOrthonormalError` otherwise).  Missing keys
    raise `KeyError`, malformed content `ValueError`.
    """
    c = float(obj["c"])
    if "elements" in obj:
        ops = operators_from_jsonable(obj["elements"])
        d = ops.shape[-1]
        onb = complex_from_jsonable(obj["onb"], (d, d))
    else:
        if not math.isfinite(c):
            raise ValueError(f"scale c must be finite, got {c!r}")
        d = len(obj["onb"])
        onb = _as_onb_matrix(complex_from_jsonable(obj["onb"], (d, d)), tol)
        ops = _scaled_family(_projector_stack(onb), c)
    return AugmentedBasis(onb=onb, ops=ops, c=c, gamma=float(obj["gamma"]), tol=tol)


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

    Conditions: (1) the vector family is orthonormal and the first d
    elements equal c |e_j><e_j| with c in (0, 1); (2) the element sum is
    an effect; (3) every element is rank one; (4) the elements are
    linearly independent.  Total: never raises on malformed content, it
    reports instead.
    """
    d = basis.dim
    conditions: dict[str, ConditionResult] = {}

    # Condition 1: scaled projectors onto an orthonormal vector family,
    # scale in (0, 1).
    c_ok = 0.0 < basis.c < 1.0
    gram_dev = _gram_deviation(basis.onb)
    onb_ok = gram_dev <= tol.residual
    cols = basis.onb.T
    targets = basis.c * (cols[:, :, np.newaxis] * cols[:, np.newaxis, :].conj())
    max_dev = float(np.max(np.linalg.norm(basis.stack[:d] - targets, axis=(1, 2))))
    proj_ok = max_dev <= tol.residual
    if not c_ok:
        witness, detail = basis.c, f"c = {basis.c!r} outside (0, 1)"
    elif not onb_ok:
        witness = gram_dev
        detail = f"vector family Gram deviation from identity is {gram_dev:.3e}"
    else:
        witness = max_dev
        detail = f"max deviation of first {d} elements from c|e_j><e_j| is {max_dev:.3e}"
    conditions["scaled-projectors"] = ConditionResult(
        passed=c_ok and onb_ok and proj_ok, witness=witness, detail=detail
    )

    # Condition 2: the element sum is an effect (one decomposition, descending).
    w_sum, _ = eig_hermitian(basis.element_sum)
    check = _spectrum_checks(w_sum[-1:], w_sum[:1], tol)[0]
    conditions["sum-effect"] = ConditionResult(
        passed=check.ok,
        witness=float(check.witness) if not check.ok else float(w_sum[0]),
        detail=(
            f"element sum has eigenvalue {check.witness!r} outside [0, 1]"
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

    # Condition 4: linear independence over the reals.  Unlike `basis_view`
    # this never raises; a view already built lends its singular values.
    view = basis.__dict__.get("basis_view")
    svd = (coordinate_rank(stacked_coordinates(basis.stack)) if view is None
           else CoordinateRank(view.singular_values))
    rank = svd.rank(tol)
    conditions["linear-independence"] = ConditionResult(
        passed=rank == d * d,
        witness=svd.ratio,
        detail=f"rank {rank} of {d * d}, sigma_min/sigma_max = {svd.ratio:.3e}",
    )

    gap = float(np.linalg.norm(basis.element_sum.mat - np.eye(d)))
    return AugmentedBasisReport(
        conditions=conditions,
        passed=all(c.passed for c in conditions.values()),
        sum_identity_gap=gap,
    )
