"""Dense Hermitian operator spaces.

The d x d complex Hermitian matrices form a real vector space of dimension
d**2 carrying the trace inner product ``<A, B> = Tr(AB)``.  This module
provides the immutable operator value type, its cached eigendecomposition
(LAPACK ``eigh``), operator bases of the full space together with
coordinate expansion and change-of-basis maps, and the JSON wire formats
for operators and tolerances.

Operator families are held as one ``(n, d, d)`` complex stack.
`hermitian_stack` validates a whole family in one pass (finite entries,
asymmetry relative to each element's largest entry, symmetrization) and
the coordinate, recombination, rank and wire-format routines work on the
stack; each single-operator function is the n = 1 case of its stacked
version.

Conventions: eigenvalues are always returned in descending order, operator
norms are Hilbert-Schmidt (Frobenius) norms, and every public value is
immutable after construction.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "HERMITICITY_ATOL",
    "ChangeOfBasis",
    "CoefficientVector",
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
    "eig_hermitian",
    "expand",
    "hs_distance",
    "hermitian_stack",
    "hs_inner",
    "identity",
    "numerical_rank",
    "operator_from_jsonable",
    "operator_to_jsonable",
    "operators_from_jsonable",
    "operators_to_jsonable",
    "orthonormal_operator_basis",
    "rank_one",
    "real_coordinates",
    "recombine",
    "stacked_coordinates",
    "tolerance_from_jsonable",
    "tolerance_to_jsonable",
    "zero",
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
    eig_offdiag : float
        Not used by the eigensolver.  Kept, validated and serialized so
        that the tolerance JSON of certificates and CLI reports keeps its
        shape and older certificates still load.
    psd_slack : float
        Magnitude of negative eigenvalues tolerated in positivity checks.
    residual : float
        Acceptable decomposition / reconstruction residual.
    rank_cutoff : float
        Singular values below ``rank_cutoff * sigma_max`` count as zero.
    """

    eig_offdiag: float = 1e-13
    psd_slack: float = 1e-9
    residual: float = 1e-8
    rank_cutoff: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("eig_offdiag", "psd_slack", "residual", "rank_cutoff"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and value > 0):
                raise ValueError(f"tolerance {name!r} must be strictly positive, got {value!r}")
        if self.psd_slack > self.residual:
            raise ValueError(
                f"psd_slack ({self.psd_slack}) must not exceed residual ({self.residual})"
            )


DEFAULT_TOL = ToleranceConfig()


def hermitian_stack(entries, atol: float = HERMITICITY_ATOL) -> np.ndarray:
    """Validate a family of Hermitian matrices as one read-only (n, d, d) stack.

    Every element must be finite and have asymmetry ``max|M - M^dagger|``
    within ``atol * max(1, max|M_k|)``, its own largest entry setting the
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
    bad = asym > atol * scale
    if bad.any():
        k = int(bad.argmax())
        raise NonHermitianError(
            f"matrix asymmetry {asym[k]:.3e} exceeds {atol:.1e} * {scale[k]:.3e}"
        )
    mats.setflags(write=False)
    return mats


class HermitianOperator:
    """Immutable Hermitian operator on C^d.

    The stored matrix satisfies ``mat[j, k] == conj(mat[k, j])`` exactly.
    Construction is the one-element case of `hermitian_stack`: raw input
    whose asymmetry exceeds `atol` is rejected, the rest symmetrized.
    """

    __slots__ = ("_mat", "_eig_cache")

    def __init__(self, entries, *, atol: float = HERMITICITY_ATOL):
        mat = np.asarray(entries, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        object.__setattr__(self, "_mat", hermitian_stack(mat[np.newaxis], atol)[0])
        object.__setattr__(self, "_eig_cache", None)

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
        object.__setattr__(op, "_eig_cache", None)
        views.append(op)
    return tuple(views)


def _check_same_dim(a: HermitianOperator, b: HermitianOperator) -> None:
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")


def identity(d: int) -> HermitianOperator:
    return HermitianOperator(np.eye(d, dtype=np.complex128))


def zero(d: int) -> HermitianOperator:
    return HermitianOperator(np.zeros((d, d), dtype=np.complex128))


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

def eig_hermitian(
    a: HermitianOperator, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a Hermitian operator (LAPACK ``eigh``).

    Parameters
    ----------
    a : HermitianOperator
        Operator to diagonalize.
    tol : ToleranceConfig
        Accepted so that every spectral caller shares one signature; the
        decomposition does not depend on it.

    Returns
    -------
    (eigenvalues, eigenvectors)
        Eigenvalues as a real array sorted in descending order and the
        matching orthonormal eigenvectors as columns of a complex matrix,
        so that ``V diag(w) V^dagger`` reconstructs the input.  Both arrays
        are read-only and cached on the operator.

    Raises `EigensolverError` when LAPACK reports no convergence.
    """
    cache = a._eig_cache
    if cache is not None:
        return cache
    try:
        w, vecs = np.linalg.eigh(a.mat)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigendecomposition failed: {exc}") from exc
    w = w[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    w.setflags(write=False)
    vecs.setflags(write=False)
    object.__setattr__(a, "_eig_cache", (w, vecs))
    return w, vecs


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
    rows, cols = _strict_upper(mats.shape[-1])
    upper = mats[:, rows, cols]
    return np.concatenate(
        [
            np.diagonal(mats, axis1=1, axis2=2).real,
            math.sqrt(2.0) * upper.real,
            math.sqrt(2.0) * upper.imag,
        ],
        axis=1,
    )


def real_coordinates(a: HermitianOperator) -> np.ndarray:
    """Isometric real coordinates of one operator: a vector of length d**2.

    The single-operator case of `stacked_coordinates`.
    """
    return stacked_coordinates(a.mat[np.newaxis])[0]


BASIS_KINDS = ("orthonormal", "augmented", "mic-pom", "generic")


class OperatorBasis:
    """A basis of the real vector space of Hermitian operators on C^d.

    Holds exactly d**2 linearly independent Hermitian operators.  Linear
    independence is certified at construction time through the singular
    values of the real coordinate matrix; bases tagged ``orthonormal``
    additionally must have an identity Gram matrix.
    """

    __slots__ = ("_elements", "_kind", "_tol", "__dict__")

    def __init__(
        self,
        elements: Iterable[HermitianOperator],
        kind: str = "generic",
        tol: ToleranceConfig = DEFAULT_TOL,
    ):
        elements = tuple(elements)
        if kind not in BASIS_KINDS:
            raise ValueError(f"unknown basis kind {kind!r}")
        if not elements:
            raise ValueError("basis needs at least one element")
        d = elements[0].dim
        if any(el.dim != d for el in elements):
            raise DimensionMismatchError("basis elements must share one dimension")
        if len(elements) != d * d:
            raise ValueError(f"expected {d * d} elements for dim {d}, got {len(elements)}")
        self._elements = elements
        self._kind = kind
        self._tol = tol
        if self.rank < d * d:
            raise SingularBasisError(
                f"basis is rank deficient: rank {self.rank} < {d * d} "
                f"(sigma_min/sigma_max = {self.singular_values[-1] / self.singular_values[0]:.3e})"
            )
        if kind == "orthonormal":
            dev = float(np.max(np.abs(self.gram - np.eye(d * d))))
            if dev > tol.residual:
                raise ValueError(f"orthonormal basis has Gram deviation {dev:.3e}")

    @property
    def dim(self) -> int:
        return self._elements[0].dim

    @property
    def kind(self) -> str:
        return self._kind

    @property
    def elements(self) -> tuple[HermitianOperator, ...]:
        return self._elements

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self):
        return iter(self._elements)

    def __getitem__(self, j: int) -> HermitianOperator:
        return self._elements[j]

    @cached_property
    def stack(self) -> np.ndarray:
        """The elements as one read-only (d**2, d, d) array."""
        mats = np.stack([el.mat for el in self._elements])
        mats.setflags(write=False)
        return mats

    @cached_property
    def coordinate_matrix(self) -> np.ndarray:
        """d**2 x d**2 real matrix whose columns are element coordinates."""
        m = stacked_coordinates(self.stack).T
        m.setflags(write=False)
        return m

    @cached_property
    def gram(self) -> np.ndarray:
        g = self.coordinate_matrix.T @ self.coordinate_matrix
        g.setflags(write=False)
        return g

    @cached_property
    def singular_values(self) -> np.ndarray:
        s = np.linalg.svd(self.coordinate_matrix, compute_uv=False)
        s.setflags(write=False)
        return s

    @property
    def rank(self) -> int:
        return numerical_rank(self.singular_values, self._tol)

    def __repr__(self) -> str:
        return f"OperatorBasis(dim={self.dim}, kind={self._kind!r})"


@dataclass(frozen=True, eq=False)
class CoefficientVector:
    """Coordinates of a Hermitian operator in a given basis."""

    basis: OperatorBasis
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    def recombine(self) -> HermitianOperator:
        """Reassemble sum_j coeffs[j] * basis[j]."""
        return recombine(self.coeffs, self.basis)


def numerical_rank(singular_values: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Number of singular values (descending) above ``rank_cutoff * sigma_max``."""
    s = singular_values
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > tol.rank_cutoff * s[0]))


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
    ops: list[HermitianOperator] = []
    eye = np.eye(d, dtype=np.complex128)
    ops.append(HermitianOperator(eye / math.sqrt(d)))
    for level in range(1, d):
        diag = np.zeros(d, dtype=np.complex128)
        diag[:level] = 1.0
        diag[level] = -level
        ops.append(HermitianOperator(np.diag(diag) / math.sqrt(level * (level + 1))))
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=np.complex128)
            sym[j, k] = sym[k, j] = 1.0 / math.sqrt(2.0)
            ops.append(HermitianOperator(sym))
            antisym = np.zeros((d, d), dtype=np.complex128)
            antisym[j, k] = -1j / math.sqrt(2.0)
            antisym[k, j] = 1j / math.sqrt(2.0)
            ops.append(HermitianOperator(antisym))
    return OperatorBasis(ops, kind="orthonormal", tol=tol)


def expand(
    h: HermitianOperator,
    basis: OperatorBasis,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> CoefficientVector:
    """Coordinates of ``h`` in ``basis`` via the Gram-matrix normal equations.

    Raises `SingularBasisError` when the basis condition exceeds the
    configured rank cutoff, and `DimensionMismatchError` on dimension
    mismatch.
    """
    if h.dim != basis.dim:
        raise DimensionMismatchError(f"operator dim {h.dim} vs basis dim {basis.dim}")
    s = basis.singular_values
    if s[-1] <= tol.rank_cutoff * s[0]:
        raise SingularBasisError(
            f"basis too ill-conditioned to expand (sigma_min/sigma_max = {s[-1] / s[0]:.3e})"
        )
    rhs = basis.coordinate_matrix.T @ real_coordinates(h)
    coeffs = np.linalg.solve(basis.gram, rhs)
    return CoefficientVector(basis=basis, coeffs=coeffs)


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
    """Matrix D with ``D @ expand(H, src) = expand(H, dst)`` for all H."""
    if src.dim != dst.dim:
        raise DimensionMismatchError(f"basis dims differ: {src.dim} vs {dst.dim}")
    for basis in (src, dst):
        s = basis.singular_values
        if s[-1] <= tol.rank_cutoff * s[0]:
            raise SingularBasisError("cannot change between rank-deficient bases")
    d_mat = np.linalg.solve(dst.coordinate_matrix, src.coordinate_matrix)
    d_invt = np.linalg.solve(src.coordinate_matrix, dst.coordinate_matrix).T
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


def operators_from_jsonable(items, atol: float = HERMITICITY_ATOL) -> np.ndarray:
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
            hermitian_stack(g[np.newaxis], atol)
        raise DimensionMismatchError("operators of one family must share one dimension")
    return hermitian_stack(grids, atol)


def operator_to_jsonable(a: HermitianOperator) -> dict:
    """Wire format ``{"dim": d, "entries": [[[re, im], ...], ...]}``."""
    return operators_to_jsonable(a.mat[np.newaxis])[0]


def operator_from_jsonable(obj: dict, atol: float = HERMITICITY_ATOL) -> HermitianOperator:
    """Parse the operator wire format, rejecting non-Hermitian input.

    Asymmetry beyond ``atol`` (relative to the largest entry) raises
    `NonHermitianError`; malformed payloads raise `ValueError`.
    """
    return _operator_views(operators_from_jsonable([obj], atol))[0]


def tolerance_to_jsonable(tol: ToleranceConfig) -> dict:
    """Wire format of a tolerance configuration: one number per field."""
    return dataclasses.asdict(tol)


def tolerance_from_jsonable(obj: dict) -> ToleranceConfig:
    fields = dataclasses.fields(ToleranceConfig)
    return ToleranceConfig(**{f.name: float(obj[f.name]) for f in fields})
