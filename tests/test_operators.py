import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectframes import (
    DEFAULT_TOL,
    CoordinateRank,
    DimensionMismatchError,
    EigensolverError,
    HermitianOperator,
    NonHermitianError,
    OperatorBasis,
    SingularBasisError,
    ToleranceConfig,
    change_of_basis,
    coordinate_rank,
    eig_hermitian,
    expand,
    hermitian_stack,
    hs_distance,
    hs_inner,
    identity,
    operator_from_coordinates,
    operator_from_jsonable,
    operator_to_jsonable,
    operators_from_jsonable,
    operators_to_jsonable,
    orthonormal_operator_basis,
    rank_one,
    real_coordinates,
    recombine,
    stacked_coordinates,
    tolerance_from_jsonable,
    tolerance_to_jsonable,
)
from conftest import random_hermitian

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
KET_PLUS_I = np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0)


def test_constructor_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_constructor_rejects_non_square():
    with pytest.raises(ValueError):
        HermitianOperator(np.zeros((2, 3), dtype=complex))


def test_matrix_is_read_only():
    op = identity(2)
    with pytest.raises(ValueError):
        op.mat[0, 0] = 5.0


def test_hs_inner_identity():
    assert hs_inner(identity(2), identity(2)) == pytest.approx(2.0)


def test_hs_inner_orthogonal_projectors():
    assert hs_inner(rank_one(KET0), rank_one(KET1)) == pytest.approx(0.0, abs=1e-15)


def test_hs_inner_overlapping_projectors():
    # Tr(|0><0| |+><+|) = |<0|+>|^2 = 1/2
    assert hs_inner(rank_one(KET0), rank_one(KET_PLUS)) == pytest.approx(0.5)


def test_hs_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        hs_inner(identity(2), identity(3))


def test_hs_inner_symmetric(rng):
    a = random_hermitian(rng, 3)
    b = random_hermitian(rng, 3)
    assert hs_inner(a, b) == pytest.approx(hs_inner(b, a), abs=1e-12)


def test_eig_identity():
    w, v = eig_hermitian(identity(2))
    np.testing.assert_allclose(w, [1.0, 1.0], atol=1e-13)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-13)


def test_eig_diagonal_sorted():
    op = HermitianOperator(np.diag([0.2, 0.7]).astype(complex))
    w, _ = eig_hermitian(op)
    np.testing.assert_allclose(w, [0.7, 0.2], atol=1e-13)


def test_eig_augmented_gram_operator():
    # G = I + |+><+| + |+i><+i| has eigenvalues 2 +- 1/sqrt(2)
    g = HermitianOperator(
        np.eye(2, dtype=complex) + rank_one(KET_PLUS).mat + rank_one(KET_PLUS_I).mat
    )
    w, v = eig_hermitian(g)
    assert w[0] == pytest.approx(2.0 + 1.0 / math.sqrt(2.0), abs=1e-12)
    assert w[1] == pytest.approx(2.0 - 1.0 / math.sqrt(2.0), abs=1e-12)
    recon = v @ np.diag(w) @ v.conj().T
    np.testing.assert_allclose(recon, g.mat, atol=1e-12)


def test_eig_matches_numpy_oracle(rng):
    for d in (2, 3, 4, 5, 6):
        for _ in range(20):
            op = random_hermitian(rng, d, scale=3.0)
            w, v = eig_hermitian(op)
            np.testing.assert_allclose(w, np.linalg.eigvalsh(op.mat)[::-1], atol=1e-10)
            np.testing.assert_allclose(v.conj().T @ v, np.eye(d), atol=1e-11)


def test_eig_round_trip_bulk(rng):
    """Spectral round trip over a large seeded ensemble, d up to 6."""
    count = 0
    for d in (2, 3, 4, 5, 6):
        for _ in range(200):
            op = random_hermitian(rng, d, scale=2.0)
            w, v = eig_hermitian(op)
            err = np.linalg.norm(v @ np.diag(w) @ v.conj().T - op.mat)
            assert err <= 10 * DEFAULT_TOL.residual * max(1.0, op.norm())
            count += 1
    assert count == 1000


def _assert_spectral_decomposition(op):
    w, v = eig_hermitian(op)
    assert np.all(np.diff(w) <= 0.0), "eigenvalues must be in descending order"
    err = np.linalg.norm(v @ np.diag(w) @ v.conj().T - op.mat)
    assert err <= 1e-12 * max(1.0, op.norm())
    np.testing.assert_allclose(v.conj().T @ v, np.eye(op.dim), atol=1e-12)
    return w


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
def test_eig_spectral_decomposition_random(d):
    gen = np.random.default_rng(7000 + d)
    for _ in range(10):
        x = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
        _assert_spectral_decomposition(HermitianOperator(4.0 * (x + x.conj().T)))


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
def test_eig_spectral_decomposition_degenerate(d):
    w = _assert_spectral_decomposition(identity(d))
    np.testing.assert_allclose(w, np.ones(d), atol=1e-13)
    gen = np.random.default_rng(d)
    ket = gen.standard_normal(d) + 1j * gen.standard_normal(d)
    w = _assert_spectral_decomposition(rank_one(ket / np.linalg.norm(ket)))
    np.testing.assert_allclose(w, [1.0] + [0.0] * (d - 1), atol=1e-13)


def test_eig_reports_lapack_failure(monkeypatch):
    def no_convergence(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    with pytest.raises(EigensolverError):
        eig_hermitian(identity(2))


def test_eig_hermitian_returns_read_only_arrays():
    w, v = eig_hermitian(identity(3))
    assert not w.flags.writeable and not v.flags.writeable


def test_operator_arithmetic():
    a = identity(2)
    b = rank_one(KET0)
    s = a + b
    assert s.mat[0, 0] == pytest.approx(2.0)
    diff = a - b
    assert diff.mat[0, 0] == pytest.approx(0.0)
    scaled = b * 0.25
    assert scaled.mat[0, 0] == pytest.approx(0.25)
    assert (0.25 * b).mat[0, 0] == pytest.approx(0.25)
    assert (-b).mat[0, 0] == pytest.approx(-1.0)


def test_zero_and_trace():
    assert identity(3).trace() == pytest.approx(3.0)


def test_orthonormal_basis_d2_is_scaled_paulis():
    basis = orthonormal_operator_basis(2)
    assert len(basis) == 4
    gram = np.array(
        [[hs_inner(a, b) for b in basis.elements] for a in basis.elements]
    )
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-14)
    # first element is I/sqrt(2)
    np.testing.assert_allclose(basis.elements[0].mat, np.eye(2) / math.sqrt(2.0), atol=1e-14)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_orthonormal_basis_gram_identity(d):
    basis = orthonormal_operator_basis(d)
    assert len(basis) == d * d
    assert orthonormal_operator_basis(d) is basis
    m = basis.coordinate_matrix
    np.testing.assert_allclose(m.T @ m, np.eye(d * d), atol=1e-13)
    for w in basis.elements:
        assert hs_inner(w, w) == pytest.approx(1.0, abs=1e-13)


def test_expand_orthonormal_unit_vector():
    basis = orthonormal_operator_basis(2)
    coeffs = expand(basis.elements[3], basis)
    np.testing.assert_allclose(coeffs, [0.0, 0.0, 0.0, 1.0], atol=1e-13)


def test_expand_recombine_round_trip(rng):
    for d in (2, 3, 4):
        basis = orthonormal_operator_basis(d)
        op = random_hermitian(rng, d)
        vec = expand(op, basis)
        assert hs_distance(recombine(vec, basis), op) < DEFAULT_TOL.residual


def test_expand_dimension_mismatch():
    basis = orthonormal_operator_basis(2)
    with pytest.raises(DimensionMismatchError):
        expand(identity(3), basis)


def test_real_coordinates_isometry(rng):
    a = random_hermitian(rng, 3)
    b = random_hermitian(rng, 3)
    va, vb = real_coordinates(a), real_coordinates(b)
    assert va @ vb == pytest.approx(hs_inner(a, b), abs=1e-12)
    assert va @ va == pytest.approx(hs_inner(a, a), abs=1e-12)


def _loop_coordinates(m):
    d = m.shape[0]
    pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
    return np.array(
        [m[j, j].real for j in range(d)]
        + [math.sqrt(2.0) * m[j, k].real for j, k in pairs]
        + [math.sqrt(2.0) * m[j, k].imag for j, k in pairs]
    )


@pytest.mark.parametrize("d", [2, 3, 5])
def test_stacked_coordinates_match_single_operator(rng, d):
    ops = [random_hermitian(rng, d) for _ in range(7)]
    coords = stacked_coordinates(np.stack([op.mat for op in ops]))
    assert coords.shape == (7, d * d)
    for row, op in zip(coords, ops):
        np.testing.assert_array_equal(row, real_coordinates(op))
        np.testing.assert_array_equal(row, _loop_coordinates(op.mat))
    inner = [[hs_inner(a, b) for b in ops] for a in ops]
    np.testing.assert_allclose(coords @ coords.T, inner, atol=1e-12)


def test_coordinate_matrix_columns_are_element_coordinates():
    basis = orthonormal_operator_basis(3)
    for j, el in enumerate(basis.elements):
        np.testing.assert_array_equal(basis.coordinate_matrix[:, j], real_coordinates(el))


def test_operator_basis_needs_d_squared_elements():
    with pytest.raises(ValueError):
        OperatorBasis(elements=(identity(2), rank_one(KET0)))


def test_operator_basis_rejects_dependent_family():
    ops = (identity(2), identity(2) * 2.0, rank_one(KET0), rank_one(KET1))
    with pytest.raises(SingularBasisError):
        OperatorBasis(elements=ops)


def test_change_of_basis_same_basis_is_identity():
    basis = orthonormal_operator_basis(2)
    cob = change_of_basis(basis, basis)
    np.testing.assert_allclose(cob.matrix, np.eye(4), atol=1e-12)


def test_change_of_basis_transports_coefficients(rng):
    src = orthonormal_operator_basis(3)
    perm = tuple(src.elements[k] for k in (4, 0, 8, 2, 6, 1, 7, 3, 5))
    dst = OperatorBasis(elements=perm)
    cob = change_of_basis(src, dst)
    for _ in range(20):
        op = random_hermitian(rng, 3)
        e_src = expand(op, src)
        e_dst = expand(op, dst)
        assert np.linalg.norm(cob.matrix @ e_src - e_dst) < DEFAULT_TOL.residual
    # inverse transpose consistency: (D^-T)^T D = I
    np.testing.assert_allclose(
        cob.inverse_transpose.T @ cob.matrix, np.eye(9), atol=1e-10
    )


def test_change_of_basis_round_trip():
    b1 = orthonormal_operator_basis(2)
    elems = tuple(reversed(b1.elements))
    b2 = OperatorBasis(elements=elems)
    forward = change_of_basis(b1, b2)
    backward = change_of_basis(b2, b1)
    np.testing.assert_allclose(forward.matrix @ backward.matrix, np.eye(4), atol=1e-12)


def test_json_round_trip(rng):
    op = random_hermitian(rng, 3)
    blob = json.dumps(operator_to_jsonable(op))
    back = operator_from_jsonable(json.loads(blob))
    assert hs_distance(op, back) < 1e-15


def test_json_rejects_non_hermitian():
    payload = {"dim": 2, "entries": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}
    with pytest.raises(NonHermitianError):
        operator_from_jsonable(payload)


def test_tolerance_config_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(residual=-1.0)
    with pytest.raises(ValueError):
        ToleranceConfig(psd_slack=1e-6, residual=1e-8)
    custom = ToleranceConfig(residual=1e-6)
    assert custom.residual == 1e-6
    assert custom.psd_slack == DEFAULT_TOL.psd_slack


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_hs_inner_positive_definite(d, seed):
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    op = HermitianOperator((x + x.conj().T) / 2.0)
    self_inner = hs_inner(op, op)
    assert self_inner >= 0.0
    if op.norm() >= DEFAULT_TOL.residual:
        assert self_inner > 0.0


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_eig_trace_preserved(seed):
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
    op = HermitianOperator((x + x.conj().T) / 2.0)
    w, _ = eig_hermitian(op)
    assert float(np.sum(w)) == pytest.approx(op.trace(), abs=1e-10)


# ---------------------------------------------------------------------------
# Stacks: validation, recombination, rank and the wire format
# ---------------------------------------------------------------------------

def _old_operator_to_jsonable(a):
    """Per-element wire format, the reference for the array codec."""
    mat = a.mat if isinstance(a, HermitianOperator) else a
    return {
        "dim": len(mat),
        "entries": [[[float(x.real), float(x.imag)] for x in row] for row in mat],
    }


def test_hermitian_stack_matches_single_operators(rng):
    mats = [random_hermitian(rng, 3).mat for _ in range(5)]
    stack = hermitian_stack(mats)
    assert stack.shape == (5, 3, 3)
    assert not stack.flags.writeable
    for mat, row in zip(mats, stack):
        assert np.array_equal(HermitianOperator(mat).mat, row)


def test_hermitian_stack_scales_asymmetry_per_element():
    # A large element must not loosen the asymmetry check of a small one.
    big = np.diag([1e6, 1e6]).astype(complex)
    skewed = np.array([[0.5, 1e-9], [0.0, 0.5]], dtype=complex)
    hermitian_stack([big])
    with pytest.raises(NonHermitianError):
        hermitian_stack([big, skewed])


@pytest.mark.parametrize(
    "entries",
    [np.full((1, 2, 2), np.nan), np.full((1, 2, 2), 1e308), np.zeros((2, 2)), np.zeros((1, 2, 3))],
)
def test_hermitian_stack_rejects_bad_input(entries):
    with pytest.raises(ValueError):
        hermitian_stack(entries)


def test_entries_overflowing_on_symmetrization_are_rejected():
    # Finite input whose (M + M^dagger) / 2 overflows used to pass as an
    # operator with infinite trace.
    with pytest.raises(ValueError, match="once symmetrized"):
        operator_from_jsonable({"dim": 2, "entries": [[[1e308, 0.0]] * 2] * 2})


def test_operator_codec_is_byte_identical_to_per_element_form(rng):
    ops = [random_hermitian(rng, d) for d in (2, 3, 5) for _ in range(4)]
    m = np.array([[0.0, 1.0], [1.0, -2.5]], dtype=complex)
    m[0, 1] = complex(1.0, -0.0)
    m[1, 0] = complex(1.0, 0.0)
    m[0, 0] = complex(-0.0, 0.0)
    ops.append(HermitianOperator(m))
    for op in ops:
        old = json.dumps(_old_operator_to_jsonable(op), sort_keys=True)
        assert json.dumps(operator_to_jsonable(op), sort_keys=True) == old
        back = operator_from_jsonable(json.loads(old))
        assert np.array_equal(back.mat, op.mat)
        assert np.array_equal(np.signbit(back.mat.view(float)), np.signbit(op.mat.view(float)))
    family = hermitian_stack([op.mat for op in ops[:4]])
    assert json.dumps(operators_to_jsonable(family)) == json.dumps(
        [_old_operator_to_jsonable(op) for op in ops[:4]]
    )
    assert np.array_equal(operators_from_jsonable(operators_to_jsonable(family)), family)
    raw = np.array([m, -m])  # the raw stack keeps the -0.0 on the diagonal
    text = json.dumps(operators_to_jsonable(raw))
    assert "-0.0" in text
    assert text == json.dumps([_old_operator_to_jsonable(x) for x in raw])


@pytest.mark.parametrize(
    "entries",
    [
        [[["1", "0"], [0, 0]], [[0, 0], [1, 0]]],
        [[[1, 0, 0], [0, 0]], [[0, 0], [1, 0]]],
        [[[1], [0, 0]], [[0, 0], [1, 0]]],
        [[[1, 0], [0, 0]]],
        [[[1, 0], [0, 0]], [[0, 0], [None, 0]]],
        [[[1, 0], [0, 0]], [[0, 0], [{"re": 1}, 0]]],
        "entries",
        7,
    ],
)
def test_operator_codec_rejects_malformed_cells(entries):
    with pytest.raises(ValueError):
        operator_from_jsonable({"dim": 2, "entries": entries})


def test_family_codec_reports_mixed_dimensions_after_malformed_entries():
    two, three = operator_to_jsonable(identity(2)), operator_to_jsonable(identity(3))
    with pytest.raises(DimensionMismatchError):
        operators_from_jsonable([two, three])
    skewed = {"dim": 2, "entries": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}
    with pytest.raises(NonHermitianError):
        operators_from_jsonable([skewed, three])
    with pytest.raises(ValueError):
        operators_from_jsonable([])


def test_recombine_matches_loop(rng):
    basis = orthonormal_operator_basis(3)
    coeffs = rng.standard_normal(9)
    acc = np.zeros((3, 3), dtype=complex)
    for cj, el in zip(coeffs, basis):
        acc += cj * el.mat
    np.testing.assert_allclose(recombine(coeffs, basis).mat, acc, atol=1e-14)
    back = recombine(expand(HermitianOperator(acc), basis), basis)
    np.testing.assert_allclose(back.mat, acc, atol=1e-14)


def test_numerical_rank():
    s = np.array([3.0, 1.0, 1e-9])
    assert CoordinateRank(s).rank(DEFAULT_TOL) == 2
    assert CoordinateRank(s).rank(ToleranceConfig(rank_cutoff=1e-12)) == 3
    assert CoordinateRank(np.zeros(3)).rank(DEFAULT_TOL) == 0
    assert CoordinateRank(np.array([])).rank(DEFAULT_TOL) == 0


@pytest.mark.parametrize("ratio, rank", [(0.5, 1), (2.0, 2)])
def test_rank_cutoff_turns_at_rank_cutoff(ratio, rank):
    s = np.array([1.0, ratio * DEFAULT_TOL.rank_cutoff])
    assert CoordinateRank(s).rank(DEFAULT_TOL) == rank


def test_psd_slack_may_equal_but_not_exceed_the_residual():
    assert ToleranceConfig(psd_slack=1e-8, residual=1e-8).psd_slack == 1e-8
    with pytest.raises(ValueError, match="must not exceed residual"):
        ToleranceConfig(psd_slack=2e-8, residual=1e-8)


def test_coordinate_rank_reports_rank_and_conditioning():
    coords = stacked_coordinates(orthonormal_operator_basis(2).stack)
    full = coordinate_rank(coords)
    assert full.rank() == 4 and full.ratio == pytest.approx(1.0)
    np.testing.assert_allclose(full.singular_values, np.ones(4))
    repeated = coordinate_rank(coords[[0, 1, 2, 0]])
    assert repeated.rank() == 3 and repeated.ratio < DEFAULT_TOL.rank_cutoff
    vanishing = coordinate_rank(np.zeros((2, 4)))
    assert (vanishing.rank(), vanishing.ratio) == (0, 0.0)
    known = CoordinateRank(np.array([1.0, 1.0, 1.0, 1e-10]))
    assert known.rank() == 3 and known.rank(ToleranceConfig(rank_cutoff=1e-12)) == 4


def test_operator_from_coordinates_inverts_real_coordinates(rng):
    for d in (2, 3, 4):
        op = random_hermitian(rng, d)
        back = operator_from_coordinates(real_coordinates(op))
        np.testing.assert_allclose(back.mat, op.mat, atol=1e-15)


def test_basis_solve_covers_coordinates_and_functionals(rng):
    basis = OperatorBasis([random_hermitian(rng, 3) for _ in range(9)])
    ops = [random_hermitian(rng, 3) for _ in range(2)]
    coeffs = basis.solve(stacked_coordinates(np.stack([op.mat for op in ops])).T)
    for k, op in enumerate(ops):
        np.testing.assert_allclose(coeffs[:, k], expand(op, basis), atol=1e-12)
        assert hs_distance(recombine(coeffs[:, k], basis), op) < 1e-12
    values = np.array([hs_inner(ops[0], b) for b in basis])
    np.testing.assert_allclose(
        basis.solve(values, transpose=True), real_coordinates(ops[0]), atol=1e-12
    )
    with pytest.raises(SingularBasisError):
        basis.solve(values, ToleranceConfig(rank_cutoff=1.0))


def test_solves_and_singular_value_decompositions_live_in_operators():
    """One square solve and one rank routine: no other module calls LAPACK for them."""
    package = Path(__file__).resolve().parents[1] / "src" / "effectframes"
    for call in ("linalg.solve(", "linalg.svd("):
        counts = {
            path.name: path.read_text(encoding="utf-8").count(call)
            for path in sorted(package.glob("*.py"))
        }
        assert {name: n for name, n in counts.items() if n} == {"operators.py": 1}, call


def test_report_envelope_is_written_in_cli_main_only():
    """`main` alone writes a report's subcommand and verdict, so the verdict
    and the exit code come from one `ok`."""
    source = (Path(__file__).resolve().parents[1] / "src" / "effectframes" / "cli.py").read_text(
        encoding="utf-8"
    )
    main_source = source[source.index("\ndef main("):]
    for key in ('"verdict"', '"subcommand"'):
        assert source.count(key) == 1, key
        assert main_source.count(key) == 1, key


def test_run_tolerances_are_made_and_reported_in_cli_main_only():
    """`main` alone turns `--tol-residual` into the run's tolerances, hands
    them to the handler and writes them, so a report names the tolerances
    its checks used."""
    source = (Path(__file__).resolve().parents[1] / "src" / "effectframes" / "cli.py").read_text(
        encoding="utf-8"
    )
    main_source = source[source.index("\ndef main("):]
    calls = source.replace("def _tolerances(", "")
    for name in ("_tolerances(", "tolerance_to_jsonable", '"tolerances"'):
        assert calls.count(name) == main_source.count(name) >= 1, name


# `np.stack([` over the `.mat` of a family's elements: a re-stack of a family.
_RESTACK = re.compile(r"np\.stack\(\[[^\]]*\.mat\b")


def test_only_operators_stacks_element_matrices():
    """A family keeps the stack it was built from; `operators._operator_stack`
    is the one place that turns a sequence of operators into a stack."""
    assert _RESTACK.search("mats = np.stack([el.mat for el in self._elements])")
    assert _RESTACK.search("np.stack([\n    e.mat\n    for e in effects\n])")
    package = Path(__file__).resolve().parents[1] / "src" / "effectframes"
    hits = {
        path.name: len(_RESTACK.findall(path.read_text(encoding="utf-8")))
        for path in sorted(package.glob("*.py"))
    }
    assert "operators.py" in hits
    assert {name: n for name, n in hits.items() if n and name != "operators.py"} == {}


@pytest.mark.parametrize("name", ["psd_slack", "residual", "rank_cutoff"])
@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1e-9])
def test_tolerances_must_be_finite_and_positive(name, value):
    with pytest.raises(ValueError, match=f"{name}.*got {value!r}"):
        ToleranceConfig(**{name: value})


def test_tolerance_codec_round_trip():
    tol = ToleranceConfig(psd_slack=1e-10, residual=1e-7)
    blob = tolerance_to_jsonable(tol)
    assert list(blob) == ["eig_offdiag", "psd_slack", "residual", "rank_cutoff"]
    assert blob["eig_offdiag"] == 1e-13
    assert tolerance_from_jsonable(json.loads(json.dumps(blob))) == tol
    assert tolerance_from_jsonable({**blob, "eig_offdiag": math.nan}) == tol
    with pytest.raises(KeyError):
        tolerance_from_jsonable({"psd_slack": 1e-9})


def test_operator_rows_are_unscaled_coordinates_and_round_trip_bit_for_bit(rng):
    from effectframes import operators_from_rows, operators_to_rows

    for d in (1, 2, 3, 5):
        family = hermitian_stack([random_hermitian(rng, d).mat for _ in range(7)])
        rows = np.array(operators_to_rows(family))
        assert rows.shape == (7, d * d)
        coords = stacked_coordinates(family)
        assert np.array_equal(rows[:, :d], coords[:, :d])
        assert np.array_equal(math.sqrt(2.0) * rows[:, d:], coords[:, d:])
        back = operators_from_rows(json.loads(json.dumps(rows.tolist())), d)
        assert back.tobytes() == family.tobytes()
        assert not back.flags.writeable


@pytest.mark.parametrize("rows", [
    [[0.5, 0.5, 0.0]],              # short
    [[0.5, 0.5, 0.0, 0.0, 1.0]],    # long
    [[[0.5], [0.5], [0.0], [0.0]]],  # nested
    [[0.5, 0.5, 0.0, 0.0], [0.5]],  # ragged
    [["0.5", 0.5, 0.0, 0.0]],       # not a number
    [[float("nan"), 0.5, 0.0, 0.0]],
    [[float("inf"), 0.5, 0.0, 0.0]],
    [],
])
def test_operator_rows_reject_malformed_input(rows):
    from effectframes import operators_from_rows

    with pytest.raises(ValueError):
        operators_from_rows(rows, 2)

