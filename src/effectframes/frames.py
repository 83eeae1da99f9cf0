"""Frame functions on effects and the state-reconstruction pipeline.

A frame function assigns a probability to every effect, additively over
pairs whose sum is again an effect, with the identity mapped to one.  The
central result made executable here: such a function is the trace against
a fixed density operator, whose coordinates the function's values on any
MIC-POM fix through one square, full-rank linear system.  Frame functions
are oracles (evaluation contracts), so honest trace functionals, tabulated
linear extensions, and adversarial non-additive instances share one
interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from .operators import (
    DEFAULT_TOL,
    HermitianOperator,
    OperatorBasis,
    ToleranceConfig,
    eig_hermitian,
    expand,
    hs_inner,
    identity,
    operator_from_coordinates,
    operator_from_jsonable,
    operator_to_jsonable,
    operators_from_jsonable,
    operators_to_jsonable,
    real_coordinates,
    stacked_coordinates,
)
from .effects import (
    DensityOperator,
    Effect,
    MicPom,
    _checked_effect,
    _density_check,
    _effect_views,
    _effects_from_rng,
    _require_effects,
    _verification_stack,
    max_scale,
    verification_effects,
)

# Certificates are checked only by `consistency_DT`, which imports the
# certificate modules when it is called; reconstruction never loads them.
if TYPE_CHECKING:
    from .augmented import AugmentedBasis
    from .cones import SpanCertificate

__all__ = [
    "TEST_EFFECT_COUNT",
    "TEST_EFFECT_SEED",
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


# The seeded verification set every reconstruction is checked against.
TEST_EFFECT_COUNT = 200
TEST_EFFECT_SEED = 1234


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
        if not np.isfinite(values).all():
            raise ValueError(f"values must be finite, got {values[~np.isfinite(values)].tolist()}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.basis.dim

    def __call__(self, e: Effect) -> float:
        return float(expand(e.op, self.basis) @ self.values)


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
    construction.  S comes from the spectrum of E1, 1 - lambda clipped at 0.
    """
    e1, f = _effect_views(_effects_from_rng(d, rng, 2, tol))
    w, v = eig_hermitian(e1.op)
    s = (v * np.sqrt(np.clip(1.0 - w, 0.0, None))) @ v.conj().T
    return e1, Effect(HermitianOperator(s @ f.mat @ s), tol)


@dataclass(frozen=True, eq=False)
class AdditivityReport:
    trials: int
    max_violation: float
    identity_deviation: float
    violated: str | None  # "additivity", else "identity-normalization", else None
    worst_pair: tuple[Effect, Effect] | None

    @property
    def passed(self) -> bool:
        return self.violated is None


def check_additivity(
    f: FrameFunction,
    trials: int = 100,
    seed: int = 0,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> AdditivityReport:
    """Probe |f(E1) + f(E2) - f(E1 + E2)| over coexisting pairs.

    The first trial is always the canonical pair (I/2, I/2); the remaining
    pairs come from the seeded rejection-free sampler.  The report also
    records |f(I) - 1|.  A NaN value is the worst violation, and fails.
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
        if not (violation <= worst or np.isnan(worst)):  # the first NaN stays worst
            worst = violation
            worst_pair = (e1, e2)
    if not worst <= tol.residual:
        violated = "additivity"
    elif not identity_dev <= tol.residual:
        violated = "identity-normalization"
    else:
        violated = None
    return AdditivityReport(
        trials=trials,
        max_violation=worst,
        identity_deviation=identity_dev,
        violated=violated,
        worst_pair=worst_pair,
    )


def frame_vector(
    f: FrameFunction, basis, tol: ToleranceConfig = DEFAULT_TOL
) -> np.ndarray:
    """Component j is f(B_j); every basis element must be an effect.

    `basis` may be an OperatorBasis of raw Hermitian operators, checked
    here, or a family (POM, MIC-POM, tuple of effects) whose iteration
    already yields checked effects.
    """
    if isinstance(basis, OperatorBasis):
        _require_effects(basis.stack, tol)  # the error names the element
        basis = map(_checked_effect, basis.elements)
    return np.array([f(e) for e in basis], dtype=np.float64)


@lru_cache(maxsize=64)
def _verification_coordinates(d: int) -> np.ndarray:
    """(TEST_EFFECT_COUNT, d**2) real coordinates of the reconstruction test set."""
    coords = stacked_coordinates(_verification_stack(d, TEST_EFFECT_SEED, TEST_EFFECT_COUNT))
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
    f: FrameFunction, mic: MicPom, tol: ToleranceConfig = DEFAULT_TOL
) -> ReconstructionReport:
    """Recover the state behind a frame function from its MIC-POM values.

    An additive frame's values on the MIC-POM satisfy f_M = M^T r, with M
    the MIC-POM's coordinate matrix and r the real coordinates of the
    state: one square solve gives r, and rho_hat is read off it.  The
    report verifies trace, positivity, and the worst |f(E) - Tr(rho_hat E)|
    over the memoized `verification_effects` (`TEST_EFFECT_COUNT` effects
    from `TEST_EFFECT_SEED`), the traces coming from one product with the
    set's cached coordinate matrix.
    """
    d = mic.dim
    f_m = frame_vector(f, mic, tol)
    rho_hat = operator_from_coordinates(mic.basis_view.solve(f_m, tol, transpose=True))
    trace, low, violated = _density_check(rho_hat, tol)
    predicted = _verification_coordinates(d) @ real_coordinates(rho_hat)
    effects = verification_effects(d, TEST_EFFECT_SEED, TEST_EFFECT_COUNT)
    observed = np.array([f(e) for e in effects])
    max_dev = float(np.max(np.abs(observed - predicted), initial=0.0))
    return ReconstructionReport(
        rho_hat=rho_hat,
        trace=trace,
        min_eigenvalue=low,
        max_deviation=max_dev,
        verdict=violated is None and max_dev < tol.residual,
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
    the norm of the difference, with D^-T f_B = M_M^T (M_B^T)^-1 f_B (M the
    coordinate matrices) taken as one solve and one product.  The
    certificate must verify and must bind exactly the two families passed
    in.
    """
    from .cones import CertificateError, verify_certificate

    report = verify_certificate(cert, tol)
    if not report.passed:
        raise CertificateError(
            f"certificate fails verification: {', '.join(report.failures)}"
        )
    if cert.augmented.dim != basis.dim or cert.mic.dim != mic.dim:
        raise CertificateError("certificate dimensions do not match the bases")
    for ours, theirs, name in ((basis, cert.augmented, "augmented family"),
                               (mic, cert.mic, "MIC-POM")):
        if np.linalg.norm(ours.stack - theirs.stack, axis=(1, 2)).max() > tol.residual:
            raise CertificateError(f"certificate binds a different {name}")
    f_b = frame_vector(f, basis.elements, tol)
    f_m = frame_vector(f, mic, tol)
    transported = mic.basis_view.coordinate_matrix.T @ basis.basis_view.solve(
        f_b, tol, transpose=True
    )
    return float(np.linalg.norm(transported - f_m))


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
    deviation (a NaN is the worst) detects non-additive oracles.
    """
    if not 0 <= j < len(basis):
        raise IndexError(f"element index {j} outside 0..{len(basis) - 1}")
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
        if not (dev <= worst or np.isnan(worst)):  # the first NaN stays worst
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
        basis = OperatorBasis(operators_from_jsonable(obj["basis"]), tol)
        return TabulatedFrame(basis=basis, values=np.array(obj["values"], dtype=np.float64))
    raise ValueError(f"unknown frame kind {kind!r}")
