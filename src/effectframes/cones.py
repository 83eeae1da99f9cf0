"""Positive cones over effect families and the intersection-span certificate.

The positive cone of a finite operator family is the set of nonnegative
linear combinations of its members.  Three facts are made executable here:
every effect decomposes spectrally into the cone of the augmented basis
built from its own eigenvectors, with at most d nonzero coefficients; the
operator E_delta = I/d + delta * (tail sum) is an interior point of that
cone at a controlled distance from I/d; and around E_delta a whole ball
lies in the intersection of the augmented-basis cone and any MIC-POM cone,
from which d**2 linearly independent common elements are harvested.  The
harvest is returned as a re-checkable certificate.

Cone membership queries solve the square coordinate system of the family:
the expansion of a point over a full operator basis is unique, so its
coefficients decide membership.  Nonnegative least squares (scipy, imported
on first use) remains as a fallback for points the solve rejects, and any
fit it returns is kept only when its recomputed residual is below
tolerance.

Witness families are (n, d, d) stacks: candidates are admitted, and a
certificate re-verified, with one batched effect check and one solve or
product per cone; the fallback is still consulted candidate by candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    DEFAULT_TOL,
    DimensionMismatchError,
    HermitianOperator,
    OperatorBasis,
    ToleranceConfig,
    _operator_views,
    eig_hermitian,
    hermitian_stack,
    hs_distance,
    numerical_rank,
    operator_from_jsonable,
    operator_to_jsonable,
    operators_from_jsonable,
    operators_to_jsonable,
    orthonormal_operator_basis,
    real_coordinates,
    recombine,
    stacked_coordinates,
    tolerance_from_jsonable,
    tolerance_to_jsonable,
)
from .effects import (
    Effect,
    MicPom,
    NotAnEffectError,
    effect_checks,
    effects_of,
    is_effect,
    pom_from_jsonable,
    pom_to_jsonable,
)
from .augmented import (
    AugmentedBasis,
    augmented_basis_from_jsonable,
    augmented_basis_from_onb,
    augmented_basis_to_jsonable,
    validate_augmented,
)

__all__ = [
    "CertificateError",
    "CertificateReport",
    "ConeDecomposition",
    "EpsilonTooLargeError",
    "SpanCertificate",
    "certificate_from_jsonable",
    "certificate_to_jsonable",
    "cone_decompose_spectral",
    "cone_membership",
    "interior_point_Edelta",
    "intersection_span_certificate",
    "verify_certificate",
]


class EpsilonTooLargeError(ValueError):
    """Requested ball radius pushes the interior point outside the effects."""

    def __init__(self, message: str, witness: float):
        super().__init__(message)
        self.witness = witness


class CertificateError(RuntimeError):
    """Certificate construction or verification failed; carries the stage."""


@dataclass(frozen=True, eq=False)
class ConeDecomposition:
    """Nonnegative coordinates of an operator over a basis of effects."""

    basis: OperatorBasis
    coeffs: np.ndarray
    residual: float

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if coeffs.shape != (len(self.basis),):
            raise ValueError(
                f"expected {len(self.basis)} coefficients, got shape {coeffs.shape}"
            )
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    def recombine(self) -> HermitianOperator:
        return recombine(self.coeffs, self.basis)

    @property
    def positive_count(self) -> int:
        return int(np.count_nonzero(self.coeffs > 0.0))


def cone_decompose_spectral(
    e: Effect, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[AugmentedBasis, ConeDecomposition]:
    """Decompose an effect over the augmented basis of its own eigenvectors.

    The eigendecomposition E = sum lambda_j |v_j><v_j| rewrites as
    sum (lambda_j / c) B_j over the first d elements B_j = c |v_j><v_j| of
    the augmented basis grown from the eigenvector family; the remaining
    d**2 - d coefficients vanish.  Eigenvalues inside the negative slack
    are clamped to zero so the coefficients come out nonnegative by
    construction.
    """
    d = e.dim
    w, v = eig_hermitian(e.op, tol)
    basis = augmented_basis_from_onb(v, tol=tol)
    coeffs = np.zeros(d * d)
    coeffs[:d] = np.clip(w, 0.0, None) / basis.c
    residual = hs_distance(recombine(coeffs, basis.basis_view), e.op)
    return basis, ConeDecomposition(basis=basis.basis_view, coeffs=coeffs, residual=residual)


def _family_view(family) -> OperatorBasis:
    """Coerce an operator family to its OperatorBasis coordinate view."""
    if isinstance(family, OperatorBasis):
        return family
    view = getattr(family, "basis_view", None)
    if isinstance(view, OperatorBasis):
        return view
    raise TypeError(
        f"expected an operator family with a coordinate view, got {type(family).__name__}"
    )


def nnls(mat: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float]:
    """Nonnegative least squares, min ||mat x - target|| over x >= 0.

    Delegates to `scipy.optimize.nnls`, importing scipy on the first call
    so that importing this package does not load it.
    """
    from scipy.optimize import nnls as scipy_nnls

    return scipy_nnls(mat, target)


def _solve_memberships(
    targets: np.ndarray, view: OperatorBasis, tol: ToleranceConfig
) -> list[ConeDecomposition | None]:
    """Decide the (n, d**2) target coordinates with one multi-RHS square solve.

    An entry is None where the solve rejects its target (see `_or_nnls`).
    """
    mat = view.coordinate_matrix
    exact = np.linalg.solve(mat, targets.T).T
    coeffs = np.clip(exact, 0.0, None)
    residuals = np.linalg.norm(coeffs @ mat.T - targets, axis=1)
    admitted = (exact.min(axis=1) >= -tol.psd_slack) & (residuals < tol.residual)
    return [
        ConeDecomposition(basis=view, coeffs=c, residual=float(r)) if ok else None
        for c, r, ok in zip(coeffs, residuals, admitted)
    ]


def _or_nnls(
    found: ConeDecomposition | None, target: np.ndarray, view: OperatorBasis, tol: ToleranceConfig
) -> ConeDecomposition | None:
    """`found`, or the nonnegative least-squares fallback where the solve rejected."""
    if found is not None:
        return found
    mat = view.coordinate_matrix
    coeffs, _ = nnls(mat, target)
    residual = float(np.linalg.norm(mat @ coeffs - target))
    if residual >= tol.residual:
        return None
    return ConeDecomposition(basis=view, coeffs=coeffs, residual=residual)


def cone_membership(
    h: HermitianOperator,
    basis,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> ConeDecomposition | None:
    """Membership test for the cone of nonnegative combinations of a family.

    `basis` may be an OperatorBasis or anything carrying a `basis_view`
    (augmented bases, MIC-POMs).  Returns a decomposition when a
    nonnegative fit reaches residual below tol.residual, and None
    otherwise.  Absence is a value, not an error.

    The families accepted here are full operator bases, so the expansion
    is unique and the square solve settles membership outright: the point
    lies in the cone iff every coefficient clears -psd_slack.  A
    nonnegative least-squares pass remains as a fallback for targets the
    solve rejects.  The residual stored on the result is always
    recomputed from the returned coefficients; the solver's own reported
    norm is not trusted (scipy's nnls has been observed returning a zero
    residual for points demonstrably outside the cone).  This is the
    one-target case of the stacked admission used by the certificate.
    """
    view = _family_view(basis)
    if h.dim != view.dim:
        raise DimensionMismatchError(f"operator dim {h.dim} vs basis dim {view.dim}")
    target = real_coordinates(h)
    return _or_nnls(_solve_memberships(target[np.newaxis], view, tol)[0], target, view, tol)


def interior_point_Edelta(
    basis: AugmentedBasis,
    epsilon: float,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> tuple[Effect, float]:
    """The interior point I/d + delta * (sum of the tail elements).

    delta = epsilon / (2 ||T||) with T the sum of the elements beyond the
    first d, placing the point at distance exactly epsilon/2 from I/d.
    Raises `EpsilonTooLargeError` when the shifted operator stops being an
    effect; the caller is expected to halve epsilon and retry.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    d = basis.dim
    tail = basis.stack[d:].sum(axis=0)
    tnorm = float(np.linalg.norm(tail))
    if tnorm <= 0.0:
        raise ValueError("tail elements vanish; the family cannot span")
    delta = epsilon / (2.0 * tnorm)
    shifted = HermitianOperator(np.eye(d) / d + delta * tail)
    check = is_effect(shifted, tol)
    if not check.ok:
        raise EpsilonTooLargeError(
            f"epsilon = {epsilon} moves the interior point outside the effects "
            f"(eigenvalue {check.witness:.12g})",
            witness=float(check.witness),
        )
    return Effect(shifted, tol), delta


@dataclass(frozen=True, eq=False)
class SpanCertificate:
    """d**2 effects in both cones, with membership proofs and a rank claim.

    memberships[k] holds the decomposition of witnesses[k] over the
    augmented family first and over the MIC-POM second.  `radius` is the
    ball radius actually used around the interior point.
    """

    augmented: AugmentedBasis
    mic: MicPom
    epsilon: float
    delta: float
    radius: float
    e_delta: Effect
    witnesses: tuple[Effect, ...]
    memberships: tuple[tuple[ConeDecomposition, ConeDecomposition], ...]
    rank: int
    tol: ToleranceConfig


def _witness_rank(mats: np.ndarray, tol: ToleranceConfig) -> int:
    return numerical_rank(np.linalg.svd(stacked_coordinates(mats), compute_uv=False), tol)


def _admit_witnesses(
    candidates: np.ndarray,
    aug_view: OperatorBasis,
    mic_view: OperatorBasis,
    tol: ToleranceConfig,
) -> list[tuple[HermitianOperator, ConeDecomposition, ConeDecomposition]]:
    """The longest prefix of a validated candidate stack inside both cones.

    One batched effect check and one solve per cone decide the whole
    stack; walking it in order, the NNLS fallback is consulted for each
    candidate the solve rejects, augmented cone first, up to the first
    candidate that fails.
    """
    coords = stacked_coordinates(candidates)
    checks = effect_checks(candidates, tol)
    by_aug = _solve_memberships(coords, aug_view, tol)
    by_mic = _solve_memberships(coords, mic_view, tol)
    admitted = []
    for k, op in enumerate(_operator_views(candidates)):
        if not checks[k].ok:
            break
        mem_a = _or_nnls(by_aug[k], coords[k], aug_view, tol)
        if mem_a is None:
            break
        mem_m = _or_nnls(by_mic[k], coords[k], mic_view, tol)
        if mem_m is None:
            break
        admitted.append((op, mem_a, mem_m))
    return admitted


def intersection_span_certificate(
    basis: AugmentedBasis,
    mic: MicPom,
    epsilon: float | None = None,
    seed: int = 0,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> SpanCertificate:
    """Harvest d**2 linearly independent effects common to both cones.

    Strategy: place the interior point E_delta, bound a safe ball radius
    from the membership coefficients and the smallest singular values of
    the two coordinate systems, then shift E_delta by (radius/2) times
    each element of the closed-form orthonormal operator basis.  Every
    witness is re-verified in both cones, as by `cone_membership` (the
    square coordinate solve decides, nonnegative least squares is its
    fallback); on any failure the radius halves (at most 20 times) before
    falling back to seeded random directions inside the ball.  Raises
    `CertificateError` naming the failing stage instead of passing
    silently.
    """
    d = basis.dim
    if mic.dim != d:
        raise DimensionMismatchError(f"basis dim {d} vs MIC-POM dim {mic.dim}")
    eps = float(epsilon) if epsilon is not None else 1.0 / (4 * d)
    aug_view = basis.basis_view
    mic_view = mic.basis_view

    e_delta = None
    delta = 0.0
    mem_a = mem_m = None
    for _ in range(60):
        try:
            e_delta, delta = interior_point_Edelta(basis, eps, tol)
        except EpsilonTooLargeError:
            eps /= 2.0
            continue
        mem_a = cone_membership(e_delta.op, aug_view, tol)
        mem_m = cone_membership(e_delta.op, mic_view, tol)
        if (
            mem_a is not None
            and mem_m is not None
            and float(np.min(mem_a.coeffs)) > tol.psd_slack
            and float(np.min(mem_m.coeffs)) > tol.psd_slack
        ):
            break
        eps /= 2.0
    else:
        raise CertificateError(
            "stage interior-point: no epsilon yields an interior point of both cones"
        )

    # A perturbation within min_coeff * sigma_min of the coordinate system
    # keeps every membership coefficient nonnegative, for either cone.
    radius = min(
        float(np.min(mem_a.coeffs)) * float(aug_view.singular_values[-1]),
        float(np.min(mem_m.coeffs)) * float(mic_view.singular_values[-1]),
    )
    if radius <= 0.0:
        raise CertificateError("stage ball-radius: degenerate radius estimate")

    def certificate(r: float, admitted: list) -> SpanCertificate:
        return SpanCertificate(
            augmented=basis,
            mic=mic,
            epsilon=eps,
            delta=delta,
            radius=r,
            e_delta=e_delta,
            witnesses=effects_of([op for op, _, _ in admitted], tol),
            memberships=tuple((a, m) for _, a, m in admitted),
            rank=d * d,
            tol=tol,
        )

    directions = orthonormal_operator_basis(d, tol).stack
    r = radius
    for _ in range(20):
        candidates = hermitian_stack(e_delta.mat + (r / 2.0) * directions)
        admitted = _admit_witnesses(candidates, aug_view, mic_view, tol)
        if len(admitted) == d * d and _witness_rank(candidates, tol) == d * d:
            return certificate(r, admitted)
        r /= 2.0

    # Fallback: seeded random directions in the ball, collected greedily
    # while they keep increasing the numerical rank.
    rng = np.random.default_rng(seed)
    admitted = []
    r = radius
    for attempt in range(400):
        if attempt > 0 and attempt % 80 == 0:
            r /= 2.0
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        direction = HermitianOperator((x + x.conj().T) / 2.0)
        dnorm = direction.norm()
        if dnorm <= 0.0:
            continue
        candidate = hermitian_stack([e_delta.mat + (r / (2.0 * dnorm)) * direction.mat])
        found = _admit_witnesses(candidate, aug_view, mic_view, tol)
        if not found:
            continue
        trial = admitted + found
        if _witness_rank(np.stack([op.mat for op, _, _ in trial]), tol) == len(trial):
            admitted = trial
        if len(admitted) == d * d:
            return certificate(r, admitted)
    raise CertificateError(
        f"stage random-ball: only {len(admitted)} of {d * d} independent witnesses found"
    )


@dataclass(frozen=True)
class CertificateReport:
    passed: bool
    failures: tuple[str, ...]
    rank: int
    max_membership_residual: float
    min_coefficient: float
    witness_count: int


def verify_certificate(
    cert: SpanCertificate, tol: ToleranceConfig | None = None
) -> CertificateReport:
    """Recheck a certificate from its data alone.

    Recomputes what the certificate claims: the augmented family satisfies
    its defining conditions, the MIC-POM is intact, every witness is an
    effect whose stored decompositions recombine to it with nonnegative
    coefficients, and the witness family has full rank.  Residuals are
    recomputed, never trusted: each is the distance between a witness and
    the combination of the certificate's own family with the stored
    coefficients, measured in the isometric real coordinates.
    """
    tol = tol or cert.tol
    d = cert.augmented.dim
    failures: list[str] = []

    if not validate_augmented(cert.augmented, tol).passed:
        failures.append("augmented-basis")

    if np.linalg.norm(cert.mic.pom.stack.sum(axis=0) - np.eye(d)) > tol.residual:
        failures.append("mic-pom-sum")

    if len(cert.witnesses) != d * d or len(cert.memberships) != d * d:
        failures.append("witness-count")
    rank, max_res, min_coeff = 0, 0.0, 0.0
    n = min(len(cert.witnesses), len(cert.memberships))
    if cert.witnesses:
        witnesses = np.stack([w.mat for w in cert.witnesses])
        rank = _witness_rank(witnesses, tol)
    if n:
        targets = stacked_coordinates(witnesses[:n])
        effect_ok = np.array([check.ok for check in effect_checks(witnesses[:n], tol)])
        per_family = []
        for side, (label, family) in enumerate(
            (("augmented", cert.augmented.stack), ("mic", cert.mic.pom.stack))
        ):
            coeffs = np.stack([mems[side].coeffs for mems in cert.memberships[:n]])
            residuals = np.linalg.norm(coeffs @ stacked_coordinates(family) - targets, axis=1)
            per_family.append((label, coeffs.min(axis=1), residuals))
        for k in range(n):
            if not effect_ok[k]:
                failures.append(f"witness-{k}-effect")
                continue
            for label, lows, residuals in per_family:
                if not lows[k] >= -tol.psd_slack:
                    failures.append(f"witness-{k}-{label}-negative-coefficient")
                if not residuals[k] <= tol.residual:
                    failures.append(f"witness-{k}-{label}-residual")
        if effect_ok.any():
            min_coeff = min(float(np.min(lows[effect_ok])) for _, lows, _ in per_family)
            max_res = max(float(np.max(res[effect_ok])) for _, _, res in per_family)

    if rank != d * d:
        failures.append("witness-rank")

    return CertificateReport(
        passed=not failures,
        failures=tuple(failures),
        rank=rank,
        max_membership_residual=max_res,
        min_coefficient=min_coeff,
        witness_count=len(cert.witnesses),
    )


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def certificate_to_jsonable(cert: SpanCertificate) -> dict:
    return {
        "dim": cert.augmented.dim,
        "epsilon": cert.epsilon,
        "delta": cert.delta,
        "radius": cert.radius,
        "rank": cert.rank,
        "tolerances": tolerance_to_jsonable(cert.tol),
        "augmented": augmented_basis_to_jsonable(cert.augmented),
        "mic": pom_to_jsonable(cert.mic.pom),
        "e_delta": operator_to_jsonable(cert.e_delta.op),
        "witnesses": operators_to_jsonable(np.stack([e.mat for e in cert.witnesses])),
        "memberships": [
            {
                "augmented": {"coeffs": a.coeffs.tolist(), "residual": a.residual},
                "mic": {"coeffs": m.coeffs.tolist(), "residual": m.residual},
            }
            for a, m in cert.memberships
        ],
    }


def certificate_from_jsonable(obj: dict) -> SpanCertificate:
    """Rebuild a certificate from its wire form.

    Structural problems (missing keys, malformed operators) raise
    ValueError; semantic invariant violations surface as
    `CertificateError` so callers can report a failed verification verdict
    rather than a parse error.
    """
    try:
        tol = tolerance_from_jsonable(obj["tolerances"])
        augmented = augmented_basis_from_jsonable(obj["augmented"], tol)
        mic_obj = obj["mic"]
        e_delta_obj = obj["e_delta"]
        witness_objs = list(obj["witnesses"])
        membership_objs = list(obj["memberships"])
        epsilon = float(obj["epsilon"])
        delta = float(obj["delta"])
        radius = float(obj["radius"])
        rank = int(obj["rank"])
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed certificate JSON: {exc}") from exc

    try:
        mic = MicPom(pom_from_jsonable(mic_obj, tol), tol)
        e_delta = Effect(operator_from_jsonable(e_delta_obj), tol)
        witnesses = ()
        if witness_objs:
            witnesses = effects_of(_operator_views(operators_from_jsonable(witness_objs)), tol)
        aug_view = augmented.basis_view
        mic_view = mic.basis_view
        memberships = tuple(
            tuple(
                ConeDecomposition(
                    basis=view,
                    coeffs=np.array(item[side]["coeffs"], dtype=np.float64),
                    residual=float(item[side]["residual"]),
                )
                for side, view in (("augmented", aug_view), ("mic", mic_view))
            )
            for item in membership_objs
        )
    except (NotAnEffectError, ValueError) as exc:
        raise CertificateError(f"certificate content fails its invariants: {exc}") from exc

    return SpanCertificate(
        augmented=augmented,
        mic=mic,
        epsilon=epsilon,
        delta=delta,
        radius=radius,
        e_delta=e_delta,
        witnesses=witnesses,
        memberships=memberships,
        rank=rank,
        tol=tol,
    )
