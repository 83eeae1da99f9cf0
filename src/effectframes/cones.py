"""Positive cones over effect families and the intersection-span certificate.

The positive cone of a finite operator family is the set of nonnegative
linear combinations of its members.  Three facts are made executable here:
every effect decomposes spectrally into the cone of the augmented basis
built from its own eigenvectors, with at most d nonzero coefficients; the
operator E_delta = I/d + delta * (tail sum) is an interior point of that
cone at a controlled distance from I/d; and one signed step from E_delta
along each orthonormal direction, sized by the nearest face of the
augmented-basis cone and of a MIC-POM cone, harvests d**2 linearly
independent common elements with no random choice.  The harvest is a
re-checkable certificate, and its file stores only what a reader cannot
derive: the MIC-POM as one row of exact coordinates per effect, one
signed step per direction instead of the witnesses, and no coefficients.

Cone membership is decided by the square solve of the family
(`OperatorBasis.solve`): the expansion of a point over a full operator
basis is unique, so its coefficients decide membership, and a fit is kept
only when its recomputed residual is below tolerance.

A certificate is arrays: its witnesses an (n, d, d) stack and their
coefficients over each cone an (n, d**2) array, the exact solve of the
witnesses over the family (`_expansions`).  The construction and a reader
of its file derive them with that one solve, so both hold the same bits.
One function, `_cone_fits`, judges membership from such arrays for the
epsilon search, the admission of the witnesses and `verify_certificate`.
The epsilon search predicts every halving from one solve per cone and
checks directly only the halvings its prediction does not rule out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import takewhile

import numpy as np

from .operators import (
    DEFAULT_TOL,
    CoordinateRank,
    DimensionMismatchError,
    HermitianOperator,
    OperatorBasis,
    ToleranceConfig,
    coordinate_rank,
    eig_hermitian,
    hermitian_stack,
    hs_distance,
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
    _require_effects,
    effect_checks,
    is_effect,
    pom_stack_from_jsonable,
    pom_to_jsonable,
)
from .augmented import (
    AugmentedBasis,
    NotOrthonormalError,
    augmented_basis_from_jsonable,
    augmented_basis_from_onb,
    augmented_basis_to_jsonable,
    validate_augmented,
)

__all__ = [
    "CertificateError",
    "CertificateReport",
    "ConeDecomposition",
    "SpanCertificate",
    "certificate_from_jsonable",
    "certificate_to_jsonable",
    "cone_decompose_spectral",
    "cone_membership",
    "interior_point_Edelta",
    "intersection_span_certificate",
    "verify_certificate",
]


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
    w, v = eig_hermitian(e.op)
    basis = augmented_basis_from_onb(v, tol=tol)
    coeffs = np.zeros(d * d)
    coeffs[:d] = np.clip(w, 0.0, None) / basis.c
    residual = hs_distance(recombine(coeffs, basis.basis_view), e.op)
    return basis, ConeDecomposition(basis=basis.basis_view, coeffs=coeffs, residual=residual)


def nnls(mat: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float]:
    """Nonnegative least squares, min ||mat x - target|| over x >= 0.

    Uncalled: the square solve decides membership.  Kept only as a target
    of the benchmark tracer (`perfbench/tracer.py`) and deleted with it
    (ROADMAP item 1).  It imports scipy, which is not a dependency.
    """
    from scipy.optimize import nnls as scipy_nnls

    return scipy_nnls(mat, target)


def _read_only(coeffs) -> np.ndarray:
    """A read-only, C-contiguous float64 array of the coefficients."""
    coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
    coeffs.setflags(write=False)
    return coeffs


def _expansions(
    targets: np.ndarray, view: OperatorBasis, tol: ToleranceConfig
) -> np.ndarray:
    """The exact coefficients of (n, d**2) target coordinates over a family.

    One multi-RHS square solve, read-only and unclipped, so a negative
    coefficient stays visible.
    """
    return _read_only(view.solve(targets.T, tol).T)


def cone_membership(
    h: HermitianOperator,
    basis,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> ConeDecomposition | None:
    """Membership test for the cone of nonnegative combinations of a family.

    `basis` may be an OperatorBasis or anything carrying a `basis_view`
    (augmented bases, MIC-POMs).  The expansion over a full basis is
    unique: the point is admitted when every coefficient clears -psd_slack
    and the residual of the clipped coefficients is below tol.residual.
    Returns None otherwise; absence is a value, not an error.
    """
    view = basis if isinstance(basis, OperatorBasis) else basis.basis_view
    if h.dim != view.dim:
        raise DimensionMismatchError(f"operator dim {h.dim} vs basis dim {view.dim}")
    target = real_coordinates(h)[np.newaxis]
    exact = view.solve(target.T, tol).T
    coeffs = np.clip(exact, 0.0, None)
    residuals = np.linalg.norm(coeffs @ view.coordinate_matrix.T - target, axis=1)
    if not (exact.min() >= -tol.psd_slack and residuals[0] < tol.residual):
        return None
    return ConeDecomposition(basis=view, coeffs=coeffs[0], residual=float(residuals[0]))


def _tail(basis: AugmentedBasis) -> tuple[np.ndarray, float]:
    """T, the sum of the augmented elements beyond the first d, and its norm."""
    tail = basis.stack[basis.dim:].sum(axis=0)
    tnorm = float(np.linalg.norm(tail))
    if tnorm <= 0.0:
        raise ValueError("tail elements vanish; the family cannot span")
    return tail, tnorm


def interior_point_Edelta(
    basis: AugmentedBasis,
    epsilon: float,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> tuple[Effect, float]:
    """The interior point I/d + delta * (sum of the tail elements).

    delta = epsilon / (2 ||T||) with T the sum of the elements beyond the
    first d, placing the point at distance exactly epsilon/2 from I/d.
    Raises `NotAnEffectError` when the shifted operator stops being an
    effect; the caller is expected to halve epsilon and retry.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")
    d = basis.dim
    tail, tnorm = _tail(basis)
    delta = epsilon / (2.0 * tnorm)
    return Effect(HermitianOperator(np.eye(d) / d + delta * tail), tol), delta


@dataclass(frozen=True, eq=False)
class SpanCertificate:
    """d**2 effects in both cones, with membership proofs and a rank claim.

    Witness k, witness_stack[k], is E_delta + (steps[k]/2) D_k
    (`_step_witnesses`), steps[k] = sigma_k s_k its signed step; `steps` is
    None when the witnesses came from a file that stored them.
    `coefficients` holds one read-only, C-contiguous (n, d**2) array per
    cone, the augmented family first and the MIC-POM second: row k is
    witness k's exact, unclipped expansion over that family, solved the
    same way by the construction and by a reader of a compact file, or
    read from a file that stores it.  `radius` is min |steps|, the
    smallest step s_k; the verifier never reads it.  The witnesses were
    checked as effects at `tol`.
    """

    augmented: AugmentedBasis
    mic: MicPom
    epsilon: float
    delta: float
    radius: float
    e_delta: Effect
    steps: np.ndarray | None
    witness_stack: np.ndarray
    coefficients: tuple[np.ndarray, np.ndarray]
    rank: int
    tol: ToleranceConfig


def _step_witnesses(e_delta: np.ndarray, steps: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """The (n, d, d) stack E_delta + (steps[k]/2) D_k over the first n directions.

    D_k is the k-th element of `orthonormal_operator_basis`.  The one
    formula for the witnesses: the construction harvests them with it and a
    reader derives them with it from the stored steps, so a derived witness
    is bit for bit the one that was built.
    """
    directions = orthonormal_operator_basis(e_delta.shape[0], tol).stack[: len(steps)]
    return hermitian_stack(e_delta + (steps / 2.0)[:, np.newaxis, np.newaxis] * directions)


def _cone_fits(coords: np.ndarray, coefficients, family_rows, tol: ToleranceConfig):
    """The one membership rule: judge n points in each cone from their coefficients.

    `coords` holds the points' (n, d**2) coordinates, `coefficients` one
    (n, m) array per family and `family_rows` each family's (m, d**2)
    coordinate rows.  A point is in a cone when its lowest coefficient is
    at least -psd_slack and the residual of its coefficients, recombined
    over the family, is at most tol.residual.  Returns whether each point
    is in every cone, then one row per family of the lowest coefficients,
    the residuals, and the points failing each of the two tests.
    """
    lows = np.array([coeffs.min(axis=1) for coeffs in coefficients])
    residuals = np.array([np.linalg.norm(coeffs @ rows - coords, axis=1)
                          for coeffs, rows in zip(coefficients, family_rows)])
    negative, off = ~(lows >= -tol.psd_slack), ~(residuals <= tol.residual)
    return ~(negative | off).any(axis=0), lows, residuals, negative, off


# A halving is skipped only when its prediction fails by more than this
# fraction of the size of the predicted terms (see intersection_span_certificate).
_PREDICTION_MARGIN = 1e-6


def intersection_span_certificate(
    basis: AugmentedBasis,
    mic: MicPom,
    epsilon: float | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> SpanCertificate:
    """Harvest d**2 linearly independent effects common to both cones.

    Halves epsilon until E_delta is an effect with every coefficient above
    psd_slack in both cones, then shifts it once along each element D_k of
    the orthonormal operator basis: witness k is E_delta + (s_k/2) sigma_k
    D_k, sigma_k the sign of <E_delta, D_k> (0 read as +1), s_k the largest
    step keeping every coefficient of both cones nonnegative, capped at
    min(lambda_min, 1 - lambda_max) of E_delta since ||D_k||_op <= 1.  By
    the matrix determinant lemma the family's determinant is
    det(Q diag(s sigma/2)) (1 + sum_k 2<E_delta, D_k>/(sigma_k s_k)), and
    the signs make every term positive.  The witnesses are re-verified in
    both cones and must reach rank d**2; otherwise `CertificateError` names
    the failing stage.

    The search is predicted from one multi-RHS solve per cone over
    [Q | coords(I/d) | coords(T)], which also gives the step slopes, and
    one ``eigvalsh`` of T: E_delta = I/d + delta T has coefficients
    a_I + delta a_T and top eigenvalue 1/d + delta lambda_max(T).  A
    halving whose predicted lowest coefficient is below psd_slack, or
    whose predicted top eigenvalue is above 1 + psd_slack, by more than
    1e-6 times the size of the predicted terms (max|a_I| + delta max|a_T|,
    or 1/d + delta |lambda_max(T)|) is skipped; every other halving gets
    the direct check (`interior_point_Edelta`, then the solve and
    `_cone_fits`), so the epsilon chosen is one the direct check passed.
    The largest relative gap between prediction and direct check seen over
    6,440 halvings (d = 2..5 x seeds 0-499, d = 8 x seeds 0-99) is
    1.3e-12, and the nearest failing halving there is predicted 8e-5 below;
    no seed has a prediction that disagrees with the direct check, so each
    of them checks one halving directly.  E_delta's coefficients on the
    tail elements are delta itself, so the search ends at the first
    delta <= psd_slack: no later halving can be interior.  It also ends
    after 60 halvings.
    """
    d = basis.dim
    if mic.dim != d:
        raise DimensionMismatchError(f"basis dim {d} vs MIC-POM dim {mic.dim}")
    first = float(epsilon) if epsilon is not None else 1.0 / (4 * d)
    if not 0 < first < math.inf:
        raise ValueError(f"epsilon must be finite and positive, got {first!r}")
    views = (basis.basis_view, mic.basis_view)
    rows = tuple(view.coordinate_matrix.T for view in views)
    tail, tnorm = _tail(basis)
    q = orthonormal_operator_basis(d, tol).coordinate_matrix
    ends = stacked_coordinates(np.stack([np.eye(d) / d, tail])).T
    known = [view.solve(np.hstack([q, ends]), tol) for view in views]
    a_i, a_t = np.concatenate([k[:, d * d:] for k in known]).T
    size_i, size_t = np.abs(a_i).max(), np.abs(a_t).max()
    top = float(np.linalg.eigvalsh(tail)[-1])

    halvings = ((eps, eps / (2.0 * tnorm)) for eps in (first / 2.0**k for k in range(60)))
    for eps, delta in takewhile(lambda halving: halving[1] > tol.psd_slack, halvings):
        low_gap = tol.psd_slack - (a_i + delta * a_t).min()
        top_gap = 1.0 / d + delta * top - (1.0 + tol.psd_slack)
        if (low_gap > _PREDICTION_MARGIN * (size_i + delta * size_t)
                or top_gap > _PREDICTION_MARGIN * (1.0 / d + delta * abs(top))):
            continue
        try:
            e_delta, delta = interior_point_Edelta(basis, eps, tol)
        except NotAnEffectError:
            continue
        centre = real_coordinates(e_delta.op)[np.newaxis]
        interior = tuple(_expansions(centre, view, tol) for view in views)
        inside, lows, *_ = _cone_fits(centre, interior, rows, tol)
        if inside[0] and lows.min() > tol.psd_slack:
            break
    else:
        raise CertificateError(
            "stage interior-point: no epsilon yields an interior point of both cones"
        )

    signs = np.where(q.T @ centre[0] < 0.0, -1.0, 1.0)
    lam = np.linalg.eigvalsh(e_delta.mat)
    cap = min(float(lam[0]), 1.0 - float(lam[-1]))
    # rates[k]: the fastest fall of any coefficient, relative to its value,
    # per unit step along sigma_k D_k; s_k = 1 / rates[k] reaches a face.
    rates = np.zeros(d * d)
    for sol, coeffs in zip(known, interior):
        slopes = sol[:, :d * d] * signs
        rates = np.maximum(rates, np.max(-slopes / coeffs[0][:, np.newaxis], axis=0))
    steps = cap / np.maximum(1.0, cap * rates)
    signed = steps * signs
    signed.setflags(write=False)
    # The longest prefix of candidates that are effects inside both cones,
    # judged as `verify_certificate` judges a witness.
    candidates = _step_witnesses(e_delta.mat, signed, tol)
    coords = stacked_coordinates(candidates)
    solved = tuple(_expansions(coords, view, tol) for view in views)
    ok, *_ = _cone_fits(coords, solved, rows, tol)
    ok &= [check.ok for check in effect_checks(candidates, tol)]
    admitted = len(ok) if ok.all() else int(np.argmin(ok))
    rank = coordinate_rank(coords).rank(tol)
    if admitted < d * d or rank < d * d:
        raise CertificateError(
            f"stage orthonormal-shift: {admitted} of {d * d} witnesses admitted, "
            f"rank {rank} of {d * d}"
        )
    return SpanCertificate(
        augmented=basis,
        mic=mic,
        epsilon=eps,
        delta=delta,
        radius=float(steps.min()),
        e_delta=e_delta,
        steps=signed,
        witness_stack=candidates,
        coefficients=solved,
        rank=d * d,
        tol=tol,
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
    cert: SpanCertificate, tol: ToleranceConfig = DEFAULT_TOL
) -> CertificateReport:
    """Recheck a certificate from its data alone, at the caller's tolerances.

    Recomputes what the certificate claims: the augmented family satisfies
    its defining conditions, the MIC-POM is intact, every witness is an
    effect whose coefficients (stored in the file, or solved for) recombine
    to it over each family with nonnegative coefficients, and the
    witness family has full rank.  Residuals are recomputed, never
    trusted: each is the distance between a witness and the combination of
    the certificate's own family with the certificate's coefficients,
    measured in the isometric real coordinates.  The
    tolerances the certificate carries (`cert.tol`) cannot loosen a check:
    the witnesses, the MIC-POM's effects and rank, and E_delta were checked
    at `cert.tol` when it was built or parsed, so only at another `tol` are
    those checks repeated.
    """
    d = cert.augmented.dim
    failures: list[str] = []

    if not validate_augmented(cert.augmented, tol).passed:
        failures.append("augmented-basis")

    if np.linalg.norm(cert.mic.stack.sum(axis=0) - np.eye(d)) > tol.residual:
        failures.append("mic-pom-sum")
    if cert.tol != tol:
        if not all(check.ok for check in effect_checks(cert.mic.stack, tol)):
            failures.append("mic-pom-effect")
        if CoordinateRank(cert.mic.basis_view.singular_values).rank(tol) < d * d:
            failures.append("mic-pom-rank")
        if not is_effect(cert.e_delta.op, tol).ok:
            failures.append("e-delta-effect")

    witnesses = cert.witness_stack
    decomposed = min(len(coeffs) for coeffs in cert.coefficients)
    if len(witnesses) != d * d or decomposed != d * d:
        failures.append("witness-count")
    rank, max_res, min_coeff = 0, 0.0, 0.0
    n = min(len(witnesses), decomposed)
    if len(witnesses):
        coords = stacked_coordinates(witnesses)
        rank = coordinate_rank(coords).rank(tol)
    if n:
        if cert.tol == tol:
            effect_ok = np.ones(n, dtype=bool)
        else:
            effect_ok = np.array([check.ok for check in effect_checks(witnesses[:n], tol)])
        # A family's rows come from its certified view when one is built.
        # None is built here, so a family that fails its rank check is judged.
        rows = []
        for family in (cert.augmented, cert.mic):
            view = family.__dict__.get("basis_view")
            rows.append(stacked_coordinates(family.stack) if view is None
                        else view.coordinate_matrix.T)
        _, lows, residuals, negative, off = _cone_fits(
            coords[:n], [coeffs[:n] for coeffs in cert.coefficients], rows, tol)
        for k in range(n):
            if not effect_ok[k]:
                failures.append(f"witness-{k}-effect")
                continue
            for f, label in enumerate(("augmented", "mic")):
                if negative[f, k]:
                    failures.append(f"witness-{k}-{label}-negative-coefficient")
                if off[f, k]:
                    failures.append(f"witness-{k}-{label}-residual")
        if effect_ok.any():
            min_coeff = float(np.min(lows[:, effect_ok]))
            max_res = float(np.max(residuals[:, effect_ok]))

    if rank != d * d:
        failures.append("witness-rank")

    return CertificateReport(
        passed=not failures,
        failures=tuple(failures),
        rank=rank,
        max_membership_residual=max_res,
        min_coefficient=min_coeff,
        witness_count=len(witnesses),
    )


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def certificate_to_jsonable(cert: SpanCertificate) -> dict:
    """Wire form: the families, the scalars and one signed step per direction.

    The MIC-POM is stored as one row of exact coordinates per effect.  The
    augmented elements, the witnesses and their coefficients are left
    out, since `certificate_from_jsonable` derives them.  Only a
    certificate without steps, read from an older file, stores its
    witnesses.
    """
    obj = {
        "dim": cert.augmented.dim,
        "epsilon": cert.epsilon,
        "delta": cert.delta,
        "radius": cert.radius,
        "rank": cert.rank,
        "tolerances": tolerance_to_jsonable(cert.tol),
        "augmented": augmented_basis_to_jsonable(cert.augmented, elements=False),
        "mic": pom_to_jsonable(cert.mic),
        "e_delta": operator_to_jsonable(cert.e_delta.op),
    }
    if cert.steps is None:
        obj["witnesses"] = operators_to_jsonable(cert.witness_stack)
    else:
        obj["steps"] = cert.steps.tolist()
    return obj


def _steps_from_jsonable(items, d: int) -> np.ndarray:
    """At most d**2 finite signed steps as a read-only array; ValueError otherwise."""
    steps = np.asarray(items)
    if steps.ndim != 1 or steps.dtype.kind not in "biuf" or not np.isfinite(steps).all():
        raise ValueError("steps must be a list of finite numbers")
    if len(steps) > d * d:
        raise ValueError(f"expected at most {d * d} steps, got {len(steps)}")
    steps = steps.astype(np.float64)
    steps.setflags(write=False)
    return steps


def _stored_coefficients(items, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients a full-layout file stores per witness, one array per family.

    Each stored residual must be a number, and is then dropped:
    `verify_certificate` recomputes it and never trusts the file's.
    """
    sides = {"augmented": [], "mic": []}
    for item in items:
        for side, rows in sides.items():
            row = np.array(item[side]["coeffs"], dtype=np.float64)
            float(item[side]["residual"])
            if row.shape != (n,):
                raise ValueError(f"expected {n} coefficients, got shape {row.shape}")
            rows.append(row)
    return tuple(_read_only(np.stack(rows) if rows else np.empty((0, n)))
                 for rows in sides.values())


def certificate_from_jsonable(
    obj: dict, tol: ToleranceConfig | None = None
) -> SpanCertificate:
    """Rebuild a certificate from its wire form, deriving what it leaves out.

    A block the file stores is read; an absent one is derived, as the
    construction would: the augmented elements from the vector family
    (checked orthonormal) at the stored scale c, the witnesses from the
    signed steps by `_step_witnesses`, and each witness's coefficients by
    `_expansions`, the construction's own solve.  The MIC-POM is read from
    its rows or, in older files, from its effects, and checked the same way.
    Either way the witnesses are checked as effects at `tol`, which the
    certificate then carries, and `verify_certificate` judges the rest.
    With `tol` None the tolerances stored in the file are used, so the
    file can loosen these checks: a verifier of an untrusted file passes
    its own (as `certify-cone --verify` does), and `verify_certificate` at
    other tolerances repeats the witness checks.  All blocks are parsed
    before the MIC-POM, E_delta and witnesses are checked: structural
    problems (missing keys, malformed or non-Hermitian blocks, a block of
    another dimension) raise ValueError; a failed check, the vector
    family's included, surfaces as `CertificateError` so callers can
    report a failed verification verdict rather than a parse error.
    """
    try:
        if tol is None:
            tol = tolerance_from_jsonable(obj["tolerances"])
        augmented = augmented_basis_from_jsonable(obj["augmented"], tol)
        d = augmented.dim
        mic_stack = pom_stack_from_jsonable(obj["mic"])
        e_delta_op = operator_from_jsonable(obj["e_delta"])
        if "witnesses" in obj:
            witness_objs, steps = list(obj["witnesses"]), None
            stack = (operators_from_jsonable(witness_objs) if witness_objs
                     else np.empty((0, d, d), dtype=np.complex128))
        else:
            steps, stack = _steps_from_jsonable(obj["steps"], d), None
        coefficients = (_stored_coefficients(obj["memberships"], d * d)
                        if "memberships" in obj else None)
        epsilon = float(obj["epsilon"])
        delta = float(obj["delta"])
        radius = float(obj["radius"])
        rank = int(obj["rank"])
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed certificate JSON: {exc}") from exc
    except NotOrthonormalError as exc:
        raise CertificateError(f"certificate content fails its invariants: {exc}") from exc
    for name, dim in (("E_delta", e_delta_op.dim), ("MIC-POM", mic_stack.shape[-1]),
                      ("witness", d if stack is None else stack.shape[-1])):
        if dim != d:
            raise DimensionMismatchError(f"{name} dim {dim} vs augmented dim {d}")

    try:
        mic = MicPom(mic_stack, tol)
        e_delta = Effect(e_delta_op, tol)
        if steps is not None:
            stack = _step_witnesses(e_delta.mat, steps, tol)
        _require_effects(stack, tol)
        views = (augmented.basis_view, mic.basis_view)  # certifies the augmented family
        if coefficients is None:
            coords = stacked_coordinates(stack)
            coefficients = tuple(_expansions(coords, view, tol) for view in views)
    except ValueError as exc:
        raise CertificateError(f"certificate content fails its invariants: {exc}") from exc

    return SpanCertificate(
        augmented=augmented,
        mic=mic,
        epsilon=epsilon,
        delta=delta,
        radius=radius,
        e_delta=e_delta,
        steps=steps,
        witness_stack=stack,
        coefficients=coefficients,
        rank=rank,
        tol=tol,
    )
