"""Dense Hermitian operator spaces.

The d x d complex Hermitian matrices form a real vector space of dimension
d**2 carrying the trace inner product ``<A, B> = Tr(AB)``.  This module
provides the immutable operator value type, its eigendecomposition
(LAPACK ``eigh``, computed afresh on each call), operator bases of the full
space, and the JSON wire formats for operators and tolerances.

Operator families are held as one read-only ``(n, d, d)`` complex stack.
`hermitian_stack` validates a whole family in one pass (finite entries,
asymmetry relative to each element's largest entry, symmetrization) and
the coordinate, recombination, rank and wire-format routines work on the
stack; each single-operator function is the n = 1 case of its stacked
version.  A family object stores the stack it was built from and its
elements are views of it; `_operator_stack` is the one place a sequence
of operators is stacked.

Every linear solve of the package is `OperatorBasis.solve`, one square
system against a basis's coordinate matrix or its transpose, and every
rank decision is `coordinate_rank`, one SVD per family.

Conventions: eigenvalues are always returned in descending order, operator
norms are Hilbert-Schmidt (Frobenius) norms, and every public value is
immutable after construction.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "HERMITICITY_ATOL",
    "ChangeOfBasis",
    "CoordinateRank",
    "DimensionMismatchError",
    "EigensolverError",
    "HermitianOperator",
    "NonHermitianError",
    "OperatorBasis",
    "SingularBasisError",
    "ToleranceConfig",
    "change_of_basis",
    "complex_from_jsonable",
    "complex_to_jsonable",
    "coordinate_rank",
    "eig_hermitian",
    "expand",
    "hs_distance",
    "hermitian_stack",
    "hs_inner",
    "identity",
    "operator_from_coordinates",
    "operator_from_jsonable",
    "operator_to_jsonable",
    "operators_from_jsonable",
    "operators_from_rows",
    "operators_to_jsonable",
    "operators_to_rows",
    "orthonormal_operator_basis",
    "rank_one",
    "real_coordinates",
    "recombine",
    "stacked_coordinates",
    "tolerance_from_jsonable",
    "tolerance_to_jsonable",
]

# Maximum relative asymmetry tolerated when reading an operator from the
# wire format or from a raw matrix.
HERMITICITY_ATOL = 1e-12


class DimensionMismatchError(ValueError):
    """Operands live on Hilbert spaces of different dimension."""


class NonHermitianError(ValueError):
    """Input matrix is not Hermitian within the admissible asymmetry."""


class EigensolverError(RuntimeError):
    """The LAPACK eigensolver reported that it did not converge."""


class SingularBasisError(ValueError):
    """Operator set is numerically rank deficient for the requested solve."""


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerances used throughout the package.

    Attributes
    ----------
    psd_slack : float
        Magnitude of negative eigenvalues tolerated in positivity checks.
    residual : float
        Acceptable decomposition / reconstruction residual.
    rank_cutoff : float
        Singular values below ``rank_cutoff * sigma_max`` count as zero.
    """

    psd_slack: float = 1e-9
    residual: float = 1e-8
    rank_cutoff: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("psd_slack", "residual", "rank_cutoff"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and 0 < value < math.inf):
                raise ValueError(f"tolerance {name!r} must be finite and positive, got {value!r}")
        if self.psd_slack > self.residual:
            raise ValueError(
                f"psd_slack ({self.psd_slack}) must not exceed residual ({self.residual})"
            )


DEFAULT_TOL = ToleranceConfig()


def hermitian_stack(entries) -> np.ndarray:
    """Validate a family of Hermitian matrices as one read-only (n, d, d) stack.

    Every element must be finite and have asymmetry ``max|M - M^dagger|``
    within ``HERMITICITY_ATOL * max(1, max|M_k|)``, its own largest entry setting the
    scale; the returned stack holds ``(M + M^dagger) / 2``, an exact no-op
    for already-Hermitian IEEE input.  Entries so large that this sum
    overflows count as non-finite, and non-finite entries are reported
    before asymmetry.
    """
    mats = np.array(entries, dtype=np.complex128)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {mats.shape}")
    if mats.shape[1] < 1:
        raise ValueError("dimension must be at least 1")
    adjoint = mats.conj().swapaxes(1, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        asym = np.abs(mats - adjoint).max(axis=(1, 2))
        scale = np.maximum(np.abs(mats).max(axis=(1, 2)), 1.0)
        mats = (mats + adjoint) / 2
    if not np.isfinite(mats.view(np.float64)).all():
        raise ValueError("matrix entries must be finite, also once symmetrized")
    bad = asym > HERMITICITY_ATOL * scale
    if bad.any():
        k = int(bad.argmax())
        raise NonHermitianError(
            f"matrix asymmetry {asym[k]:.3e} exceeds {HERMITICITY_ATOL:.1e} * {scale[k]:.3e}"
        )
    mats.setflags(write=False)
    return mats


class HermitianOperator:
    """Immutable Hermitian operator on C^d.

    The stored matrix satisfies ``mat[j, k] == conj(mat[k, j])`` exactly.
    Construction is the one-element case of `hermitian_stack`: raw input
    whose asymmetry exceeds `HERMITICITY_ATOL` is rejected, the rest symmetrized.
    """

    __slots__ = ("_mat",)

    def __init__(self, entries):
        mat = np.asarray(entries, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        object.__setattr__(self, "_mat", hermitian_stack(mat[np.newaxis])[0])

    def __setattr__(self, name, value):
        raise AttributeError("HermitianOperator is immutable")

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    @property
    def mat(self) -> np.ndarray:
        """Read-only view of the underlying complex matrix."""
        return self._mat

    def trace(self) -> float:
        return float(np.trace(self._mat).real)

    def norm(self) -> float:
        """Hilbert-Schmidt norm induced by the trace inner product."""
        return float(np.linalg.norm(self._mat))

    def __add__(self, other: "HermitianOperator") -> "HermitianOperator":
        _check_same_dim(self, other)
        return HermitianOperator(self._mat + other._mat)

    def __sub__(self, other: "HermitianOperator") -> "HermitianOperator":
        _check_same_dim(self, other)
        return HermitianOperator(self._mat - other._mat)

    def __neg__(self) -> "HermitianOperator":
        return HermitianOperator(-self._mat)

    def __mul__(self, scalar) -> "HermitianOperator":
        if not isinstance(scalar, (int, float, np.integer, np.floating)):
            return NotImplemented
        return HermitianOperator(self._mat * float(scalar))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dim})"


def _operator_views(mats: np.ndarray) -> tuple[HermitianOperator, ...]:
    """Operators viewing the elements of a stack returned by `hermitian_stack`.

    The stack is already validated, so no element is checked again.
    """
    views = []
    for mat in mats:
        op = object.__new__(HermitianOperator)
        object.__setattr__(op, "_mat", mat)
        views.append(op)
    return tuple(views)


def _operator_stack(family) -> np.ndarray:
    """The read-only (n, d, d) stack of an operator family.

    A family's own `stack`, or a read-only stack as `hermitian_stack`
    returns it, is taken as it is; any other array, or the matrices of a
    sequence of same-dimension operators, is validated by `hermitian_stack`.
    """
    family = getattr(family, "stack", family)
    if not isinstance(family, np.ndarray):
        family = [op.mat for op in family]
        if len({m.shape for m in family}) > 1:
            raise DimensionMismatchError("operators of one family must share one dimension")
    elif not family.flags.writeable and family.dtype == np.complex128 and family.ndim == 3:
        return family
    return hermitian_stack(family)


def _check_same_dim(a: HermitianOperator, b: HermitianOperator) -> None:
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")


def identity(d: int) -> HermitianOperator:
    return HermitianOperator(np.eye(d, dtype=np.complex128))


def rank_one(vec) -> HermitianOperator:
    """Projector-style operator |v><v| for a complex vector v."""
    v = np.asarray(vec, dtype=np.complex128).reshape(-1)
    return HermitianOperator(np.outer(v, v.conj()))


def hs_inner(a: HermitianOperator, b: HermitianOperator) -> float:
    """Trace inner product Tr(AB) of two Hermitian operators.

    Symmetric in its arguments and real for Hermitian input; the imaginary
    rounding residue is discarded.
    """
    _check_same_dim(a, b)
    # Tr(AB) = sum_jk A[j,k] * conj(B[j,k]) for Hermitian B.
    return float(np.vdot(b.mat, a.mat).real)


def hs_distance(a: HermitianOperator, b: HermitianOperator) -> float:
    _check_same_dim(a, b)
    return float(np.linalg.norm(a.mat - b.mat))


# ---------------------------------------------------------------------------
# Spectral decomposition
# ---------------------------------------------------------------------------

def eig_hermitian(a: HermitianOperator) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a Hermitian operator (LAPACK ``eigh``).

    Returns
    -------
    (eigenvalues, eigenvectors)
        Eigenvalues as a real array sorted in descending order and the
        matching orthonormal eigenvectors as columns of a complex matrix,
        so that ``V diag(w) V^dagger`` reconstructs the input.  Both arrays
        are read-only and computed afresh on each call.

    Raises `EigensolverError` when LAPACK reports no convergence.
    """
    w, vecs = _eigh(a.mat)
    w = w[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    w.setflags(write=False)
    vecs.setflags(write=False)
    return w, vecs


def _eigh(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK ``eigh`` of one matrix or an (n, d, d) stack, eigenvalues ascending.

    Raises `EigensolverError` when LAPACK reports no convergence.
    """
    try:
        return np.linalg.eigh(mats)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigendecomposition failed: {exc}") from exc


# ---------------------------------------------------------------------------
# Real coordinates and operator bases
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _strict_upper(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle of a d x d matrix."""
    iu = np.triu_indices(d, k=1)
    for idx in iu:
        idx.setflags(write=False)
    return iu


def stacked_coordinates(mats: np.ndarray) -> np.ndarray:
    """Isometric real coordinates of a stack of Hermitian matrices.

    Maps an ``(n, d, d)`` array to an ``(n, d**2)`` real array whose row k
    holds the coordinates of ``mats[k]``: the diagonal entries, then the
    sqrt(2)-scaled real and imaginary parts of the strict upper triangle.
    Euclidean inner products of rows equal trace inner products of the
    matrices.
    """
    diag, re, im = _triangle_parts(mats)
    return np.concatenate([diag, math.sqrt(2.0) * re, math.sqrt(2.0) * im], axis=1)


def _triangle_parts(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (n, d) diagonals and the real and imaginary (n, d(d-1)/2) strict upper triangles."""
    rows, cols = _strict_upper(mats.shape[-1])
    upper = mats[:, rows, cols]
    return np.diagonal(mats, axis1=1, axis2=2).real, upper.real, upper.imag


def real_coordinates(a: HermitianOperator) -> np.ndarray:
    """Isometric real coordinates of one operator: a vector of length d**2.

    The single-operator case of `stacked_coordinates`.
    """
    return stacked_coordinates(a.mat[np.newaxis])[0]


def operator_from_coordinates(coords: np.ndarray) -> HermitianOperator:
    """The Hermitian operator whose `real_coordinates` are `coords`."""
    d = math.isqrt(len(coords))
    rows, cols = _strict_upper(d)
    upper = (coords[d:d + len(rows)] + 1j * coords[d + len(rows):]) / math.sqrt(2.0)
    mat = np.diag(coords[:d]).astype(np.complex128)
    mat[rows, cols], mat[cols, rows] = upper, upper.conj()
    return HermitianOperator(mat)


class CoordinateRank(NamedTuple):
    """Singular values of a family's coordinate matrix, descending and read-only."""

    singular_values: np.ndarray

    @property
    def ratio(self) -> float:
        """sigma_min / sigma_max, 0 for a vanishing family."""
        s = self.singular_values
        return float(s[-1] / s[0]) if s.size and s[0] > 0 else 0.0

    def rank(self, tol: ToleranceConfig = DEFAULT_TOL) -> int:
        """Number of singular values above ``rank_cutoff * sigma_max``."""
        s = self.singular_values
        if s.size == 0 or s[0] <= 0.0:
            return 0
        return int(np.count_nonzero(s > tol.rank_cutoff * s[0]))


def coordinate_rank(coords: np.ndarray) -> CoordinateRank:
    """The package's one SVD: of a family given by its (n, d**2) `stacked_coordinates`."""
    s = np.linalg.svd(coords.T, compute_uv=False)
    s.setflags(write=False)
    return CoordinateRank(s)


class OperatorBasis:
    """A basis of the real vector space of Hermitian operators on C^d.

    Holds exactly d**2 linearly independent Hermitian operators as one
    read-only (d**2, d, d) `stack`, certified at construction by
    `coordinate_rank` at the basis's tolerances.
    """

    __slots__ = ("_stack", "_tol", "__dict__")

    def __init__(self, elements, tol: ToleranceConfig = DEFAULT_TOL):
        stack = _operator_stack(elements)
        n, d = len(stack), stack.shape[-1]
        if n != d * d:
            raise ValueError(f"expected {d * d} elements for dim {d}, got {n}")
        self._stack = stack
        self._tol = tol
        if self.rank < n:
            raise SingularBasisError(
                f"basis is rank deficient: rank {self.rank} < {n} "
                f"(sigma_min/sigma_max = {self._coordinate_rank.ratio:.3e})"
            )

    @property
    def dim(self) -> int:
        return self._stack.shape[-1]

    @property
    def stack(self) -> np.ndarray:
        """The elements as one read-only (d**2, d, d) array."""
        return self._stack

    @cached_property
    def elements(self) -> tuple[HermitianOperator, ...]:
        return _operator_views(self._stack)

    def __len__(self) -> int:
        return len(self._stack)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, j: int) -> HermitianOperator:
        return self.elements[j]

    @cached_property
    def coordinate_matrix(self) -> np.ndarray:
        """d**2 x d**2 real matrix whose columns are element coordinates."""
        m = stacked_coordinates(self.stack).T
        m.setflags(write=False)
        return m

    @cached_property
    def _coordinate_rank(self) -> CoordinateRank:
        return coordinate_rank(self.coordinate_matrix.T)

    @property
    def singular_values(self) -> np.ndarray:
        return self._coordinate_rank.singular_values

    @property
    def rank(self) -> int:
        return self._coordinate_rank.rank(self._tol)

    def solve(
        self, targets, tol: ToleranceConfig = DEFAULT_TOL, transpose: bool = False
    ) -> np.ndarray:
        """Solve M x = targets (M^T x = targets if `transpose`), M the coordinate matrix.

        `targets` is a vector or a (d**2, k) array of columns.  M x = the
        coordinates of an operator expands it; M^T x = a functional's values
        on the elements gives the operator representing it.  Raises
        `SingularBasisError` unless sigma_min > ``tol.rank_cutoff * sigma_max``.
        """
        svd = self._coordinate_rank
        if svd.rank(tol) < len(self):
            raise SingularBasisError(
                f"basis too ill-conditioned to solve (sigma_min/sigma_max = {svd.ratio:.3e})"
            )
        m = self.coordinate_matrix
        return np.linalg.solve(m.T if transpose else m, targets)

    def __repr__(self) -> str:
        return f"OperatorBasis(dim={self.dim})"


def recombine(coeffs: np.ndarray, basis: OperatorBasis) -> HermitianOperator:
    """The operator sum_j coeffs[j] * basis[j], as one product with the stack."""
    mats = basis.stack
    flat = np.asarray(coeffs, dtype=np.float64) @ mats.reshape(len(mats), -1)
    return HermitianOperator(flat.reshape(mats.shape[1:]))


@lru_cache(maxsize=64)
def orthonormal_operator_basis(d: int, tol: ToleranceConfig = DEFAULT_TOL) -> OperatorBasis:
    """Closed-form orthonormal basis of the Hermitian operators on C^d.

    Consists of the normalized identity, the d-1 normalized traceless
    diagonal operators, and the normalized symmetric / antisymmetric
    off-diagonal pairs; exactly orthonormal before rounding.  Memoized on
    (d, tol): the basis is immutable, so every caller shares one instance.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    mats = np.zeros((d * d, d, d), dtype=np.complex128)
    mats[0] = np.eye(d, dtype=np.complex128) / math.sqrt(d)
    for level in range(1, d):
        diag = np.zeros(d, dtype=np.complex128)
        diag[:level] = 1.0
        diag[level] = -level
        mats[level] = np.diag(diag) / math.sqrt(level * (level + 1))
    j, k = _strict_upper(d)  # pair p gives elements d + 2p and d + 2p + 1
    sym = d + 2 * np.arange(len(j))
    mats[sym, j, k] = mats[sym, k, j] = 1.0 / math.sqrt(2.0)
    mats[sym + 1, j, k], mats[sym + 1, k, j] = -1j / math.sqrt(2.0), 1j / math.sqrt(2.0)
    return OperatorBasis(hermitian_stack(mats), tol)


def expand(
    h: HermitianOperator,
    basis: OperatorBasis,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> np.ndarray:
    """Coefficients c with sum_j c[j] * basis[j] = h: one `OperatorBasis.solve`.

    Raises `SingularBasisError` when the basis condition exceeds the
    configured rank cutoff, and `DimensionMismatchError` on dimension
    mismatch.
    """
    if h.dim != basis.dim:
        raise DimensionMismatchError(f"operator dim {h.dim} vs basis dim {basis.dim}")
    return basis.solve(real_coordinates(h), tol)


class ChangeOfBasis(NamedTuple):
    """Coordinate transport between two bases of the same operator space.

    ``matrix`` maps source coordinates to destination coordinates; the
    ``inverse_transpose`` is the matrix transporting linear functionals the
    opposite way.
    """

    matrix: np.ndarray
    inverse_transpose: np.ndarray


def change_of_basis(
    src: OperatorBasis,
    dst: OperatorBasis,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> ChangeOfBasis:
    """Matrix D with ``D @ expand(H, src) = expand(H, dst)`` for all H.

    D = M_dst^-1 M_src and D^-T = (M_src^-1 M_dst)^T, M the coordinate
    matrices, are one multi-RHS `OperatorBasis.solve` each.
    """
    if src.dim != dst.dim:
        raise DimensionMismatchError(f"basis dims differ: {src.dim} vs {dst.dim}")
    d_mat = dst.solve(src.coordinate_matrix, tol)
    d_invt = src.solve(dst.coordinate_matrix, tol).T
    d_mat.setflags(write=False)
    d_invt.setflags(write=False)
    return ChangeOfBasis(matrix=d_mat, inverse_transpose=d_invt)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def complex_to_jsonable(arr: np.ndarray) -> list:
    """Nested lists of ``[re, im]`` pairs, one per entry of a complex array."""
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def complex_from_jsonable(cells, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of `complex_to_jsonable`; the entries must form `shape`.

    Each cell must be a pair of JSON numbers; anything else raises
    `ValueError`.  Signs of zeros survive the round trip.
    """
    arr = np.asarray(cells)  # a ragged grid raises ValueError here
    if arr.shape != (*shape, 2) or arr.dtype.kind not in "biuf":
        raise ValueError(f"entries must be a {shape} grid of [re, im] pairs")
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.complex128)[..., 0]


def operators_to_jsonable(mats: np.ndarray) -> list[dict]:
    """Wire format of an (n, d, d) stack, one operator object per element."""
    d = mats.shape[-1]
    return [{"dim": d, "entries": grid} for grid in complex_to_jsonable(mats)]


def operators_from_jsonable(items) -> np.ndarray:
    """Parse a non-empty list of operator objects into one validated stack.

    Malformed objects raise `ValueError`, asymmetric ones
    `NonHermitianError`, and a family mixing dimensions
    `DimensionMismatchError`, in that order of precedence.
    """
    grids = []
    for obj in items:
        if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
            raise ValueError("operator JSON must carry 'dim' and 'entries'")
        d = int(obj["dim"])
        grids.append(complex_from_jsonable(obj["entries"], (d, d)))
    if not grids:
        raise ValueError("expected at least one operator")
    if any(g.shape != grids[0].shape for g in grids):
        for g in grids:
            hermitian_stack(g[np.newaxis])
        raise DimensionMismatchError("operators of one family must share one dimension")
    return hermitian_stack(grids)


def operators_to_rows(mats: np.ndarray) -> list[list[float]]:
    """One row per element of an (n, d, d) Hermitian stack: its unscaled coordinates.

    A row holds the diagonal, then the real parts and then the imaginary
    parts of the strict upper triangle: `stacked_coordinates` without the
    sqrt(2), so every number is an entry of the matrix, exactly.  The lower
    triangle is the conjugate of the upper one and is not stored.
    """
    return np.concatenate(_triangle_parts(mats), axis=1).tolist()


def operators_from_rows(rows, d: int) -> np.ndarray:
    """Inverse of `operators_to_rows`: a validated (n, d, d) stack, n >= 1.

    The rows must form an (n, d**2) grid of finite numbers; anything else
    raises `ValueError`.
    """
    arr = np.asarray(rows)  # a ragged grid raises ValueError here
    if d < 1 or arr.ndim != 2 or arr.shape[1] != d * d or not len(arr) or (
        arr.dtype.kind not in "biuf"
    ):
        raise ValueError(f"rows must be a non-empty list of rows of {d * d} numbers")
    arr = arr.astype(np.float64)
    j, k = _strict_upper(d)
    m = len(j)
    mats = np.zeros((len(arr), d, d), dtype=np.complex128)
    re, im = mats.real, mats.imag
    re[:, np.arange(d), np.arange(d)] = arr[:, :d]
    re[:, j, k] = re[:, k, j] = arr[:, d:d + m]
    im[:, j, k] = arr[:, d + m:]
    im[:, k, j] = -arr[:, d + m:]
    return hermitian_stack(mats)


def operator_to_jsonable(a: HermitianOperator) -> dict:
    """Wire format ``{"dim": d, "entries": [[[re, im], ...], ...]}``."""
    return operators_to_jsonable(a.mat[np.newaxis])[0]


def operator_from_jsonable(obj: dict) -> HermitianOperator:
    """Parse the operator wire format, rejecting non-Hermitian input.

    Asymmetry beyond ``HERMITICITY_ATOL`` (relative to the largest entry) raises
    `NonHermitianError`; malformed payloads raise `ValueError`.
    """
    return _operator_views(operators_from_jsonable([obj]))[0]


# The wire format keeps the retired eigensolver tolerance `eig_offdiag`, first
# and always at this value, so reports and certificates keep their bytes.
_EIG_OFFDIAG = 1e-13


def tolerance_to_jsonable(tol: ToleranceConfig) -> dict:
    """Wire format of a tolerance configuration: `eig_offdiag`, then one number per field."""
    return {"eig_offdiag": _EIG_OFFDIAG, **dataclasses.asdict(tol)}


def tolerance_from_jsonable(obj: dict) -> ToleranceConfig:
    """Inverse of `tolerance_to_jsonable`; the `eig_offdiag` key is ignored."""
    fields = dataclasses.fields(ToleranceConfig)
    return ToleranceConfig(**{f.name: float(obj[f.name]) for f in fields})
