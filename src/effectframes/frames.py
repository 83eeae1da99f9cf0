"""Frame functions on effects and the state-reconstruction pipeline.

A frame function assigns a probability to every effect, additively over
pairs whose sum is again an effect, with the identity mapped to one.  The
central result made executable here: such a function is the trace against
a fixed density operator, and that operator is recoverable from the
function's values on any MIC-POM via the inverse transpose of a
change-of-basis matrix.  Frame functions are oracles (evaluation
contracts), so honest trace functionals, tabulated linear extensions, and
adversarial non-additive instances share one interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .operators import (
    CoefficientVector,
    DEFAULT_TOL,
    HermitianOperator,
    OperatorBasis,
    ToleranceConfig,
    change_of_basis,
    eig_hermitian,
    expand,
    hs_distance,
    hs_inner,
    identity,
    _operator_views,
    operator_from_jsonable,
    operator_to_jsonable,
    operators_from_jsonable,
    operators_to_jsonable,
    orthonormal_operator_basis,
    real_coordinates,
    stacked_coordinates,
)
from .effects import (
    DensityOperator,
    Effect,
    MicPom,
    _effect_from_rng,
    effects_of,
    max_scale,
    psd_sqrt,
    verification_effects,
)
from .augmented import AugmentedBasis
from .cones import CertificateError, SpanCertificate, verify_certificate

__all__ = [
    "AdditivityReport",
    "AdversarialSquareFrame",
    "BornFrame",
    "FrameFunction",
    "ReconstructionReport",
    "RestrictionReport",
    "TabulatedFrame",
    "check_additivity",
    "coexisting_pair",
    "consistency_DT",
    "frame_from_jsonable",
    "frame_to_jsonable",
    "frame_vector",
    "reconstruct_density",
    "restriction_linearity_check",
]


class FrameFunction:
    """Oracle mapping effects to numbers in [0, 1].  Subclasses set `kind`."""

    kind: ClassVar[str] = "abstract"

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def __call__(self, e: Effect) -> float:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class BornFrame(FrameFunction):
    """The trace functional E -> Tr(rho E) of a fixed density operator."""

    kind: ClassVar[str] = "born"
    rho: DensityOperator

    @property
    def dim(self) -> int:
        return self.rho.dim

    def __call__(self, e: Effect) -> float:
        return hs_inner(self.rho.op, e.op)


@dataclass(frozen=True, eq=False)
class TabulatedFrame(FrameFunction):
    """Linear extension of stored values over a fixed operator basis."""

    kind: ClassVar[str] = "tabulated"
    basis: OperatorBasis
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (len(self.basis),):
            raise ValueError(
                f"expected {len(self.basis)} values, got shape {values.shape}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.basis.dim

    def __call__(self, e: Effect) -> float:
        return float(expand(e.op, self.basis).coeffs @ self.values)


@dataclass(frozen=True, eq=False)
class AdversarialSquareFrame(FrameFunction):
    """Non-additive oracle (Tr(rho E))**2, used to exercise the detectors.

    Maps the identity to one and stays inside [0, 1], yet is neither
    additive nor linear along rays, so every checker in this module must
    flag it.
    """

    kind: ClassVar[str] = "adversarial-square"
    rho: DensityOperator

    @property
    def dim(self) -> int:
        return self.rho.dim

    def __call__(self, e: Effect) -> float:
        return hs_inner(self.rho.op, e.op) ** 2


def coexisting_pair(
    d: int, rng: np.random.Generator, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[Effect, Effect]:
    """Rejection-free sample of two effects whose sum is an effect.

    Draws E1 and a free effect F, then squeezes F through the square root
    S of I - E1: the pair (E1, S F S) satisfies E1 + S F S <= I by
    construction.
    """
    e1 = _effect_from_rng(d, rng, tol)
    s = psd_sqrt(identity(d) - e1.op, tol)
    f = _effect_from_rng(d, rng, tol)
    e2 = HermitianOperator(s.mat @ f.mat @ s.mat)
    return e1, Effect(e2, tol)


@dataclass(frozen=True, eq=False)
class AdditivityReport:
    trials: int
    max_violation: float
    identity_deviation: float
    passed: bool
    worst_pair: tuple[Effect, Effect] | None


def check_additivity(
    f: FrameFunction,
    trials: int = 100,
    seed: int = 0,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> AdditivityReport:
    """Probe |f(E1) + f(E2) - f(E1 + E2)| over coexisting pairs.

    The first trial is always the canonical pair (I/2, I/2); the remaining
    pairs come from the seeded rejection-free sampler.  The report also
    records |f(I) - 1|.
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    d = f.dim
    identity_dev = abs(f(Effect(identity(d), tol)) - 1.0)
    rng = np.random.default_rng(seed)
    half = Effect(HermitianOperator(np.eye(d) / 2.0), tol)
    worst = 0.0
    worst_pair: tuple[Effect, Effect] | None = None
    for k in range(trials):
        e1, e2 = (half, half) if k == 0 else coexisting_pair(d, rng, tol)
        violation = abs(f(e1) + f(e2) - f(Effect(e1.op + e2.op, tol)))
        if violation > worst:
            worst = violation
            worst_pair = (e1, e2)
    passed = worst <= tol.residual and identity_dev <= tol.residual
    return AdditivityReport(
        trials=trials,
        max_violation=worst,
        identity_deviation=identity_dev,
        passed=passed,
        worst_pair=worst_pair,
    )


def frame_vector(
    f: FrameFunction, basis, tol: ToleranceConfig = DEFAULT_TOL
) -> np.ndarray:
    """Component j is f(B_j); every basis element must be an effect.

    `basis` may be an OperatorBasis of raw Hermitian operators or a
    family (POM, MIC-POM) whose iteration already yields effects.
    """
    if isinstance(basis, OperatorBasis):
        basis = effects_of(basis.elements, tol)  # the error names the element
    return np.array([f(e) for e in basis], dtype=np.float64)


@lru_cache(maxsize=64)
def _verification_coordinates(d: int, seed: int, count: int) -> np.ndarray:
    """(count, d**2) real coordinates of the memoized verification effects."""
    effects = verification_effects(d, seed, count)
    coords = stacked_coordinates(np.stack([e.mat for e in effects]))
    coords.setflags(write=False)
    return coords


@dataclass(frozen=True, eq=False)
class ReconstructionReport:
    """Candidate state with the numbers backing the pass/fail verdict."""

    rho_hat: HermitianOperator
    trace: float
    min_eigenvalue: float
    max_deviation: float
    verdict: bool


def reconstruct_density(
    f: FrameFunction,
    mic: MicPom,
    w_basis: OperatorBasis | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
    test_count: int = 200,
    test_seed: int = 1234,
) -> ReconstructionReport:
    """Recover the state behind a frame function from its MIC-POM values.

    The frame vector over the MIC-POM transforms into orthonormal-basis
    coordinates through the inverse transpose of the change-of-basis
    matrix; recombining gives the candidate rho_hat.  The report verifies
    trace, positivity, and the worst |f(E) - Tr(rho_hat E)| over a
    memoized seeded set of `test_count` effects.  The oracle is queried
    effect by effect; the traces Tr(rho_hat E) come from one product of the
    set's cached coordinate matrix with the coordinates of rho_hat.
    """
    d = mic.dim
    if w_basis is None:
        w_basis = orthonormal_operator_basis(d, tol)
    elif w_basis.kind != "orthonormal":
        raise ValueError(f"reference basis must be orthonormal, got {w_basis.kind!r}")
    f_m = frame_vector(f, mic.basis_view, tol)
    cob = change_of_basis(mic.basis_view, w_basis, tol)
    c_prime = cob.inverse_transpose @ f_m
    rho_hat = CoefficientVector(basis=w_basis, coeffs=c_prime).recombine()
    eigs, _ = eig_hermitian(rho_hat, tol)
    trace = rho_hat.trace()
    coords = _verification_coordinates(d, test_seed, test_count)
    predicted = coords @ real_coordinates(rho_hat)
    observed = np.array([f(e) for e in verification_effects(d, test_seed, test_count)])
    max_dev = float(np.max(np.abs(observed - predicted), initial=0.0))
    verdict = (
        abs(trace - 1.0) <= tol.residual
        and float(eigs[-1]) >= -tol.psd_slack
        and max_dev < tol.residual
    )
    return ReconstructionReport(
        rho_hat=rho_hat,
        trace=trace,
        min_eigenvalue=float(eigs[-1]),
        max_deviation=max_dev,
        verdict=verdict,
    )


def consistency_DT(
    f: FrameFunction,
    basis: AugmentedBasis,
    mic: MicPom,
    cert: SpanCertificate,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> float:
    """Residual of the coordinate-transport identity between frame vectors.

    With D the change of basis from the augmented family to the MIC-POM,
    an additive frame must satisfy D^-T f_B = f_M; the returned number is
    the norm of the difference.  The certificate must verify and must bind
    exactly the two families passed in.
    """
    report = verify_certificate(cert, tol)
    if not report.passed:
        raise CertificateError(
            f"certificate fails verification: {', '.join(report.failures)}"
        )
    if cert.augmented.dim != basis.dim or cert.mic.dim != mic.dim:
        raise CertificateError("certificate dimensions do not match the bases")
    for ours, theirs in zip(basis.ops, cert.augmented.ops):
        if hs_distance(ours, theirs) > tol.residual:
            raise CertificateError("certificate binds a different augmented family")
    for ours_e, theirs_e in zip(mic.effects, cert.mic.effects):
        if hs_distance(ours_e.op, theirs_e.op) > tol.residual:
            raise CertificateError("certificate binds a different MIC-POM")
    f_b = frame_vector(f, basis.basis_view, tol)
    f_m = frame_vector(f, mic.basis_view, tol)
    cob = change_of_basis(basis.basis_view, mic.basis_view, tol)
    return float(np.linalg.norm(cob.inverse_transpose @ f_b - f_m))


@dataclass(frozen=True, eq=False)
class RestrictionReport:
    index: int
    scale_bound: float
    max_deviation: float
    worst_x: float
    samples: int


def restriction_linearity_check(
    f: FrameFunction,
    basis: AugmentedBasis,
    j: int,
    samples: int = 100,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> RestrictionReport:
    """Compare F_j(x) = f(x B_j) against the ray x -> x f(B_j).

    The grid covers [0, a_j] where a_j is the largest admissible scale of
    the element; `j` indexes the basis elements from zero.  An additive
    frame is linear along every such ray, so the reported maximum
    deviation is a direct detector for non-additive oracles.
    """
    if not 0 <= j < len(basis.ops):
        raise IndexError(f"element index {j} outside 0..{len(basis.ops) - 1}")
    if samples < 2:
        raise ValueError("need at least two grid points")
    element = basis.elements[j]
    a_j = max_scale(element, tol)
    f_unit = f(element)
    worst = 0.0
    worst_x = 0.0
    for x in np.linspace(0.0, a_j, samples):
        value = f(Effect(HermitianOperator(float(x) * element.mat), tol))
        dev = abs(value - float(x) * f_unit)
        if dev > worst:
            worst = dev
            worst_x = float(x)
    return RestrictionReport(
        index=j,
        scale_bound=a_j,
        max_deviation=worst,
        worst_x=worst_x,
        samples=samples,
    )


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def frame_to_jsonable(f: FrameFunction) -> dict:
    if isinstance(f, BornFrame):
        return {"kind": "born", "dim": f.dim, "rho": operator_to_jsonable(f.rho.op)}
    if isinstance(f, AdversarialSquareFrame):
        return {
            "kind": "adversarial-square",
            "dim": f.dim,
            "rho": operator_to_jsonable(f.rho.op),
        }
    if isinstance(f, TabulatedFrame):
        return {
            "kind": "tabulated",
            "dim": f.dim,
            "basis": operators_to_jsonable(f.basis.stack),
            "values": [float(v) for v in f.values],
        }
    raise ValueError(f"cannot serialize frame of kind {f.kind!r}")


def frame_from_jsonable(obj: dict, tol: ToleranceConfig = DEFAULT_TOL) -> FrameFunction:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("frame JSON must carry a 'kind' tag")
    kind = obj["kind"]
    if kind == "born":
        return BornFrame(DensityOperator(operator_from_jsonable(obj["rho"]), tol))
    if kind == "adversarial-square":
        return AdversarialSquareFrame(
            DensityOperator(operator_from_jsonable(obj["rho"]), tol)
        )
    if kind == "tabulated":
        basis = OperatorBasis(
            _operator_views(operators_from_jsonable(obj["basis"])), kind="generic", tol=tol
        )
        return TabulatedFrame(basis=basis, values=np.array(obj["values"], dtype=np.float64))
    raise ValueError(f"unknown frame kind {kind!r}")
