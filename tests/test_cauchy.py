import math
import re
from fractions import Fraction
from itertools import count, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectframes import cauchy
from effectframes import (
    ConditionReport,
    ExtensionView,
    GridAdditiveFunction,
    GridInvariantError,
    NotRepresentableError,
    QSqrt2,
    QSqrt2Additive,
    as_fraction,
    check_condition,
    check_linear,
    fraction_str,
    grid_from_jsonable,
    grid_from_unit,
    grid_to_jsonable,
    model_from_jsonable,
    qsqrt2_additive_from_jsonable,
    qsqrt2_additive_to_jsonable,
    unboundedness_witness,
)
from effectframes.cauchy import _pell_walk, _surd_sign

F = Fraction

rationals = st.fractions(
    min_value=F(-50), max_value=F(50), max_denominator=40
)
positive_rationals = st.fractions(
    min_value=F(1, 40), max_value=F(50), max_denominator=40
)


# -- grids -------------------------------------------------------------------

def test_grid_forces_multiples():
    g = grid_from_unit(F(1), 10, F(7, 100))
    assert g.values[10] == F(7, 10)
    assert g(3) == F(21, 100)
    assert g.point(3) == F(3, 10)


def test_grid_zero_function():
    g = grid_from_unit(F(2), 5, F(0))
    assert all(v == 0 for v in g.values)


def test_grid_three_quarters_example():
    g = grid_from_unit(F(3), 4, F(1, 8))
    assert g.values[4] == F(1, 2)


def test_check_linear_on_constructed_grid():
    res = check_linear(grid_from_unit(F(1), 10, F(7, 100)))
    assert res.is_linear
    assert res.slope == F(7, 10)


def test_check_linear_slope_uses_endpoint():
    res = check_linear(grid_from_unit(F(3), 4, F(1, 8)))
    assert res.slope == F(1, 2) / 3


def test_tampered_grid_raises():
    g = GridAdditiveFunction(a=F(1), n=3, values=(F(0), F(1), F(2), F(5)))
    with pytest.raises(GridInvariantError):
        check_linear(g)


def test_nonzero_origin_raises():
    g = GridAdditiveFunction(a=F(1), n=2, values=(F(1), F(2), F(3)))
    with pytest.raises(GridInvariantError):
        check_linear(g)


def test_grid_shape_validation():
    with pytest.raises(ValueError):
        GridAdditiveFunction(a=F(-1), n=2, values=(F(0), F(1), F(2)))
    with pytest.raises(ValueError):
        GridAdditiveFunction(a=F(1), n=2, values=(F(0), F(1)))


@given(positive_rationals, st.integers(min_value=1, max_value=60), rationals)
@settings(max_examples=80, deadline=None)
def test_grid_forcing_property(a, n, v):
    res = check_linear(grid_from_unit(a, n, v))
    assert res.is_linear
    assert res.slope == n * v / a


# -- extensions --------------------------------------------------------------

def test_f_plus_minimal_modulus():
    view = ExtensionView(grid_from_unit(F(1), 10, F(7, 100)))
    assert view.minimal_modulus(F(5, 2)) == 5
    assert view.f_plus(F(5, 2)) == F(7, 4)


def test_f_plus_independent_of_modulus():
    view = ExtensionView(grid_from_unit(F(1), 77, F(1, 100)))
    assert view.f_plus(F(5), 7) == view.f_plus(F(5), 11) == F(77, 20)


def test_f_plus_rejects_bad_modulus():
    view = ExtensionView(grid_from_unit(F(1), 10, F(7, 100)))
    with pytest.raises(ValueError):
        view.f_plus(F(5, 2), 2)  # 5/4 is not on the tenths grid


def test_grid_extension_takes_no_interval():
    with pytest.raises(ValueError, match="grid"):
        ExtensionView(grid_from_unit(F(1), 4, F(1)), a=F(1, 8))


def test_f_plus_rejects_off_grid_point():
    view = ExtensionView(grid_from_unit(F(1), 10, F(7, 100)))
    with pytest.raises(NotRepresentableError):
        view.f_plus(F(1, 3))


def test_f_real_antisymmetry():
    view = ExtensionView(grid_from_unit(F(1), 10, F(7, 100)))
    for x in (F(1, 2), F(5, 2), F(7, 10), F(0)):
        assert view.f_real(x) + view.f_real(-x) == 0


def test_f_real_restricted_to_grid_matches_table():
    g = grid_from_unit(F(2), 8, F(3, 16))
    view = ExtensionView(g)
    for k in range(9):
        assert view.f_real(g.point(k)) == g.values[k]


def test_f_real_additive_all_sign_cases():
    view = ExtensionView(grid_from_unit(F(1), 10, F(7, 100)))
    step = F(1, 10)
    pairs = [
        (3 * step, 4 * step),      # both positive
        (5 * step, -2 * step),     # mixed, positive sum
        (2 * step, -9 * step),     # mixed, negative sum
        (-3 * step, -8 * step),    # both negative
    ]
    for x, y in pairs:
        assert view.f_real(x) + view.f_real(y) == view.f_real(x + y)


def test_f_plus_on_qsqrt2_base():
    f = QSqrt2Additive(F(2), F(-3))
    view = ExtensionView(f)
    z = QSqrt2(F(5), F(1))   # 5 + sqrt(2) > 1, needs a modulus
    n = view.minimal_modulus(z)
    assert n >= 6
    assert view.f_plus(z) == f(z)   # n * f(z/n) = f(z) by exact linearity in (p, q)
    assert view.f_plus(z, n + 3) == f(z)


def test_f_real_qsqrt2_odd():
    f = QSqrt2Additive(F(1), F(4))
    view = ExtensionView(f)
    z = QSqrt2(F(-3), F(1))  # 3 < 3sqrt(2)... sign: -3 + sqrt(2) < 0
    assert z.sign() < 0
    assert view.f_real(z) == -view.f_real(-z)
    assert view.f_real(z) == f(z)   # odd rule agrees with the global formula


@given(
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=30),
)
@settings(max_examples=60, deadline=None)
def test_f_real_additivity_property_grid(j1, j2, n):
    g = grid_from_unit(F(1), n, F(3, 7))
    view = ExtensionView(g)
    step = g.step
    x, y = j1 * step, j2 * step
    assert view.f_real(x) + view.f_real(y) == view.f_real(x + y)


# -- the quadratic-field model -----------------------------------------------

def test_qsqrt2_exact_comparisons():
    assert QSqrt2(F(3), F(-2)).sign() > 0       # 3 > 2 sqrt(2)
    assert QSqrt2(F(-3), F(2)).sign() < 0
    assert QSqrt2(F(1), F(-1)).sign() < 0       # 1 < sqrt(2)
    assert (QSqrt2(F(1), F(1)) - QSqrt2(F(2), F(0))).sign() > 0   # 1 + sqrt(2) > 2


def test_qsqrt2_arithmetic():
    a = QSqrt2(F(1), F(2))
    b = QSqrt2(F(3), F(-1))
    assert (a + b).p == F(4) and (a + b).q == F(1)
    assert (a - b).p == F(-2) and (a - b).q == F(3)
    assert a.scale(F(1, 2)).q == F(1)


def test_qsqrt2_additive_is_additive():
    f = QSqrt2Additive(F(5, 3), F(-7, 2))
    u = QSqrt2(F(1, 2), F(3))
    v = QSqrt2(F(-2), F(1, 5))
    assert f(u) + f(v) == f(u + v)


def test_nonlinearity_proxy():
    assert QSqrt2Additive(F(0), F(0)).is_linear
    assert not QSqrt2Additive(F(1), F(0)).is_linear
    assert not QSqrt2Additive(F(0), F(1)).is_linear
    assert not QSqrt2Additive(F(1), F(1)).is_linear
    # beta^2 = 2 alpha^2 has no nonzero rational solutions
    assert not QSqrt2Additive(F(2), F(3)).is_linear


def test_witness_bound_two():
    w = unboundedness_witness(QSqrt2Additive(F(1), F(0)), F(2))
    assert (w.x.p, w.x.q) == (F(3), F(-2))
    assert w.value == F(3)
    assert w.x.sign() > 0 and w.x <= QSqrt2(F(1), F(0))


def test_witness_bound_ten():
    w = unboundedness_witness(QSqrt2Additive(F(1), F(0)), F(10))
    assert (w.x.p, w.x.q) == (F(17), F(-12))
    assert w.value == F(17)


def test_witness_bound_hundred_and_five_hundred():
    for bound in (F(100), F(500)):
        w = unboundedness_witness(QSqrt2Additive(F(1), F(0)), bound)
        assert (w.x.p, w.x.q) == (F(577), F(-408))
        assert w.value == F(577)


def test_witness_other_side():
    w = unboundedness_witness(QSqrt2Additive(F(0), F(1)), F(1))
    assert (w.x.p, w.x.q) == (F(-4), F(3))
    assert w.value == F(3)


def test_witness_respects_interval():
    w = unboundedness_witness(QSqrt2Additive(F(1), F(0)), F(2), a=F(1, 10))
    assert w.x <= QSqrt2(F(1, 10), F(0))
    assert w.value > 2


def test_witness_rejects_linear_model():
    with pytest.raises(ValueError):
        unboundedness_witness(QSqrt2Additive(F(0), F(0)), F(1))


@given(
    st.fractions(min_value=F(-5), max_value=F(5), max_denominator=12),
    st.fractions(min_value=F(-5), max_value=F(5), max_denominator=12),
    st.fractions(min_value=F(1), max_value=F(1000), max_denominator=1),
)
@settings(max_examples=40, deadline=None)
def test_witness_is_always_valid(alpha, beta, bound):
    f = QSqrt2Additive(alpha, beta)
    if f.is_linear:
        return
    w = unboundedness_witness(f, bound)
    assert w.x.sign() > 0
    assert w.x <= QSqrt2(F(1), F(0))
    assert f(w.x) > bound
    assert f(w.x) == w.value


# -- condition checkers ------------------------------------------------------

def test_condition_names_validated():
    with pytest.raises(ValueError):
        check_condition(grid_from_unit(F(1), 4, F(1)), "measurable")


def test_bounds_need_a_bound():
    with pytest.raises(ValueError):
        check_condition(grid_from_unit(F(1), 4, F(1)), "bounded_above")


def test_grid_bounded_above():
    g = grid_from_unit(F(1), 10, F(7, 100))
    rep = check_condition(g, "bounded_above", bound=F(1))
    assert rep.holds_on_searched
    rep = check_condition(g, "bounded_above", bound=F(1, 2))
    assert not rep.holds_on_searched
    assert rep.witness["value"] == "7/10" or as_fraction(rep.witness["value"]) > F(1, 2)


def test_grid_bounded_below():
    g = grid_from_unit(F(1), 10, F(-1, 10))
    rep = check_condition(g, "bounded_below", bound=F(-2))
    assert rep.holds_on_searched
    rep = check_condition(g, "bounded_below", bound=F(-1, 2))
    assert not rep.holds_on_searched


def test_grid_monotone_nonnegative_unit():
    assert check_condition(grid_from_unit(F(1), 12, F(1, 5)), "monotone").holds_on_searched
    rep = check_condition(grid_from_unit(F(1), 4, F(-1, 8)), "monotone")
    assert not rep.holds_on_searched
    assert as_fraction(rep.witness["f_y"]) < as_fraction(rep.witness["f_x"])


def test_grid_continuity_scan():
    g = grid_from_unit(F(1), 100, F(1, 1000))
    rep = check_condition(g, "continuous_at_zero", eps=F(1, 100))
    assert rep.holds_on_searched
    assert "delta" in rep.searched
    rep = check_condition(g, "continuous_at_zero", eps=F(1, 10000))
    assert not rep.holds_on_searched


def test_qsqrt2_bounded_above_spec_witnesses():
    f = QSqrt2Additive(F(1), F(0))
    rep = check_condition(f, "bounded_above", bound=F(10))
    assert not rep.holds_on_searched
    assert rep.witness["value"] == "17/1"
    rep = check_condition(f, "bounded_above", bound=F(500))
    assert not rep.holds_on_searched
    assert rep.witness["value"] == "577/1"


def test_qsqrt2_continuity_refuted():
    f = QSqrt2Additive(F(1), F(0))
    rep = check_condition(f, "continuous_at_zero", eps=F(1))
    assert not rep.holds_on_searched


def test_qsqrt2_monotone_refuted():
    rep = check_condition(QSqrt2Additive(F(1), F(0)), "monotone")
    assert not rep.holds_on_searched


def test_searched_region_is_reported():
    rep = check_condition(grid_from_unit(F(1), 4, F(1)), "bounded_above", bound=F(100))
    assert "grid points" in rep.searched
    rep = check_condition(QSqrt2Additive(F(1), F(0)), "bounded_above", bound=F(10))
    assert "64" in rep.searched


@pytest.mark.parametrize("eps", [F(0), F(-1)])
@pytest.mark.parametrize("model", [
    grid_from_unit(F(1), 4, F(0)), QSqrt2Additive(F(0), F(0)), QSqrt2Additive(F(1), F(0)),
], ids=["grid", "qsqrt2-zero", "qsqrt2"])
def test_continuity_needs_a_positive_eps(model, eps):
    with pytest.raises(ValueError, match="eps"):
        check_condition(model, "continuous_at_zero", eps=eps)


def test_grid_takes_no_interval():
    # A grid is checked on its own [0, a]; x = 1/4 lies outside (0, 1/8].
    with pytest.raises(ValueError, match="interval"):
        check_condition(grid_from_unit(F(1), 4, F(1)), "bounded_above",
                        bound=F(1, 2), interval=F(1, 8))


@pytest.mark.parametrize("which", ["bounded_above", "bounded_below",
                                   "continuous_at_zero", "monotone"])
@pytest.mark.parametrize("interval", [F(0), F(-1)])
def test_qsqrt2_interval_must_be_positive(which, interval):
    with pytest.raises(ValueError, match="interval endpoint must be positive"):
        check_condition(QSqrt2Additive(F(1), F(0)), which, bound=F(1), interval=interval)


def test_zero_model_witness_only_below_zero():
    w = unboundedness_witness(QSqrt2Additive(F(0), F(0)), F(-1))
    assert (w.x.p, w.x.q, w.value, w.steps) == (F(3), F(-2), F(0), 0)
    with pytest.raises(ValueError, match="model is linear"):
        unboundedness_witness(QSqrt2Additive(F(0), F(0)), F(0))


# -- serialization -----------------------------------------------------------

def test_fraction_str_always_has_denominator():
    assert fraction_str(F(3)) == "3/1"
    assert fraction_str(F(-7, 4)) == "-7/4"


def test_as_fraction_accepts_strings():
    assert as_fraction("22/7") == F(22, 7)
    with pytest.raises(TypeError):
        as_fraction(0.5)


def test_grid_json_round_trip():
    g = grid_from_unit(F(3), 4, F(1, 8))
    back = grid_from_jsonable(grid_to_jsonable(g))
    assert back.a == g.a and back.n == g.n and back.values == g.values


def test_qsqrt2_json_round_trip():
    f = QSqrt2Additive(F(1, 3), F(-5))
    back = qsqrt2_additive_from_jsonable(qsqrt2_additive_to_jsonable(f))
    assert back.alpha == f.alpha and back.beta == f.beta


def test_model_dispatch():
    g = model_from_jsonable(grid_to_jsonable(grid_from_unit(F(1), 2, F(1))))
    assert isinstance(g, GridAdditiveFunction)
    f = model_from_jsonable({"kind": "qsqrt2", "alpha": "1/1", "beta": "0/1"})
    assert isinstance(f, QSqrt2Additive)
    with pytest.raises(ValueError):
        model_from_jsonable({"kind": "cubic"})


# -- integer decisions against the Fraction references ------------------------
#
# The checkers decide in integers; these references are the Fraction
# algorithms they replaced, kept to pin results and messages.

def _brute_force_modulus(j, n):
    """Smallest m with j/m a grid index: m | j and j/m <= n (m >= j/n)."""
    return next(m for m in range(max(1, -(-j // n)), j + 1) if j % m == 0) if j else 1


@pytest.mark.parametrize("n", [1, 2, 24, 77, 1000])
def test_minimal_modulus_matches_brute_force(n):
    a = F(3, 7)
    view = ExtensionView(grid_from_unit(a, n, F(5, 3)))
    for j in range(3001):
        assert view.minimal_modulus(j * a / n) == _brute_force_modulus(j, n), j


def _fraction_sign(p, q):
    """Sign of p + q sqrt(2) in Fraction arithmetic (the former QSqrt2.sign)."""
    sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
    if sq == 0 or sp == sq:
        return sp or sq
    if sp == 0:
        return sq
    return sp if p * p > 2 * q * q else sq


@pytest.mark.parametrize("a", [F(1), F(2, 7), F(13, 4)])
def test_qsqrt2_minimal_modulus_is_smallest_admissible(a):
    view = ExtensionView(QSqrt2Additive(F(1), F(-2)), a)
    parts = [F(0), F(1, 3), F(5), F(-7, 2), F(99, 70), F(-577, 408), F(10) ** 12 + F(1, 9)]
    for p in parts:
        for q in parts:
            if _fraction_sign(p, q) < 0:
                continue
            n = view.minimal_modulus(QSqrt2(p, q))
            assert _fraction_sign(p / n - a, q / n) <= 0  # z/n <= a
            assert n == 1 or _fraction_sign(p / (n - 1) - a, q / (n - 1)) > 0, (p, q)


def _fraction_pell_candidates(a, max_steps=None):
    """(step, p, q) in (0, a] from the Pell pairs, every test in Fraction;
    without a step cap when max_steps is None."""
    big_p, big_q = 3, 2
    for step in islice(count(), max_steps):
        for p, q in ((F(big_p), F(-big_q)), (F(-2 * big_q), F(big_p))):
            if _fraction_sign(p - a, q) <= 0:
                yield step, p, q
        big_p, big_q = 3 * big_p + 4 * big_q, 2 * big_p + 3 * big_q


def _fraction_witness(f, bound, a, max_steps=20000):
    for step, p, q in _fraction_pell_candidates(a, max_steps):
        value = f.alpha * p + f.beta * q
        if value > bound:
            return p, q, value, step
    raise RuntimeError("no witness")


MODELS = [(F(1), F(0)), (F(0), F(1)), (F(-3, 2), F(5, 7)), (F(2), F(-3)), (F(-1), F(-1))]


@pytest.mark.parametrize("alpha, beta", MODELS)
@pytest.mark.parametrize("a", [F(1, 7), F(1), F(13, 4)])
def test_witness_matches_fraction_walk(alpha, beta, a):
    f = QSqrt2Additive(alpha, beta)
    for k in (0, 3, 100, 300):
        bound = F(10) ** k
        w = unboundedness_witness(f, bound, a)
        assert (w.x.p, w.x.q, w.value, w.steps) == _fraction_witness(f, bound, a)


@pytest.mark.parametrize("alpha, beta", MODELS)
@pytest.mark.parametrize("which", ["bounded_above", "bounded_below", "continuous_at_zero"])
def test_qsqrt2_condition_matches_fraction_scan(alpha, beta, which):
    f = QSqrt2Additive(alpha, beta)
    a, r = F(1, 3), F(10) ** 6
    refuted = {
        "bounded_above": lambda v: v > r,
        "bounded_below": lambda v: v < -r,
        "continuous_at_zero": lambda v: abs(v) > r,
    }[which]
    expected = next(
        (
            (p, q, f.alpha * p + f.beta * q)
            for _, p, q in _fraction_pell_candidates(a)
            if refuted(f.alpha * p + f.beta * q)
        ),
        None,
    )
    threshold = -r if which == "bounded_below" else r
    rep = check_condition(f, which, bound=threshold, eps=r, interval=a)
    assert not rep.holds_on_searched
    p, q, value = expected
    assert rep.witness["x"] == str(QSqrt2(p, q))
    assert rep.witness["value"] == fraction_str(value)


# -- the quadratic model is decided -------------------------------------------

ZERO = (F(0), F(0))
INTERVALS = [F(1, 7), F(1), F(13, 4)]


def _parse_qsqrt2(text):
    """(p, q) from the 'p/q + r/s*sqrt(2)' form of `str(QSqrt2)`."""
    p, q = text.split(" + ")
    return F(p), F(q.removesuffix("*sqrt(2)"))


def _value_cases(k):
    """(condition, bound, eps) for +-10**k: the bound's side and eps = 10**-k."""
    return [("bounded_above", F(10) ** k, F(1)), ("bounded_below", -F(10) ** k, F(1)),
            ("continuous_at_zero", None, F(1, 10 ** k))]


def _refutes(which, value, bound, eps):
    if which == "continuous_at_zero":
        return abs(value) > eps
    return value > bound if which == "bounded_above" else value < bound


def _reference_report(f, which, a, bound=None, eps=F(1), max_steps=64):
    """The report of a Fraction scan of the first max_steps Pell steps (for
    monotone, the first point below f(0) = 0, paired with 0), or None where
    that scan refutes nothing."""
    value = lambda p, q: f.alpha * p + f.beta * q
    searched = f"Pell candidates of the first {max_steps} steps inside (0, {fraction_str(a)}]"
    candidates = [(p, q) for _, p, q in _fraction_pell_candidates(a, max_steps)]
    if which == "monotone":
        for p, q in candidates:
            if value(p, q) < 0:
                witness = {"x": str(QSqrt2(0, 0)), "y": str(QSqrt2(p, q)),
                           "f_x": "0/1", "f_y": fraction_str(value(p, q))}
                return ConditionReport(which, False, witness,
                                       searched + ", against f(0) = 0")
        return None
    for p, q in candidates:
        if _refutes(which, value(p, q), bound, eps):
            z = QSqrt2(p, q)
            v = value(p, q)
            try:
                v_approx = float(v)
            except OverflowError:
                v_approx = math.inf if v > 0 else -math.inf
            witness = {"x": str(z), "x_approx": z.approx(), "value": fraction_str(v),
                       "value_approx": v_approx}
            if which == "continuous_at_zero":
                searched += " (witness can be made arbitrarily small)"
            return ConditionReport(which, False, witness, searched)
    return None


@pytest.mark.parametrize("alpha, beta", MODELS)
@pytest.mark.parametrize("a", INTERVALS)
def test_every_non_linear_model_fails_every_condition(alpha, beta, a):
    f = QSqrt2Additive(alpha, beta)
    inside = lambda p, q: _fraction_sign(p, q) >= 0 and _fraction_sign(p - a, q) <= 0
    for k in (0, 60, 100, 1000):
        for which, bound, eps in _value_cases(k):
            rep = check_condition(f, which, bound=bound, eps=eps, interval=a)
            assert not rep.holds_on_searched, (which, k)
            p, q = _parse_qsqrt2(rep.witness["x"])
            assert inside(p, q) and (p, q) != (0, 0)
            value = alpha * p + beta * q
            assert rep.witness["value"] == fraction_str(value)
            assert _refutes(which, value, bound, eps)
    rep = check_condition(f, "monotone", interval=a)
    assert not rep.holds_on_searched
    x, y = _parse_qsqrt2(rep.witness["x"]), _parse_qsqrt2(rep.witness["y"])
    assert inside(*x) and inside(*y) and _fraction_sign(y[0] - x[0], y[1] - x[1]) > 0
    f_x, f_y = alpha * x[0] + beta * x[1], alpha * y[0] + beta * y[1]
    assert (rep.witness["f_x"], rep.witness["f_y"]) == (fraction_str(f_x), fraction_str(f_y))
    assert f_x > f_y


@pytest.mark.parametrize("which, a, bound, window", [
    ("bounded_above", F(1), F(10) ** 60, 128),
    ("bounded_below", F(13, 4), -F(10) ** 100, 256),
    ("bounded_above", F(1, 7), F(10) ** 1000, 2048),
    ("monotone", F(1, 10 ** 60), None, 128),
    ("monotone", F(1, 10 ** 300), None, 512),
])
def test_searched_names_the_first_window_that_holds_the_witness(which, a, bound, window):
    f = QSqrt2Additive(F(1), F(0))
    rep = check_condition(f, which, bound=bound, interval=a)
    assert _reference_report(f, which, a, bound=bound, max_steps=window // 2) is None
    assert rep == _reference_report(f, which, a, bound=bound, max_steps=window)


@pytest.mark.parametrize("a", INTERVALS)
def test_zero_model_holds_unless_zero_breaks_the_bound(a):
    f = QSqrt2Additive(*ZERO)
    ground = f"f = 0 on (0, {fraction_str(a)}]"
    for k in (0, 60, 100, 1000):
        for which, bound, eps in _value_cases(k):
            rep = check_condition(f, which, bound=bound, eps=eps, interval=a)
            assert (rep.holds_on_searched, rep.witness, rep.searched) == (True, None, ground)
    assert check_condition(f, "monotone", interval=a).searched == ground
    for which, bound in (("bounded_above", F(-1)), ("bounded_below", F(1))):
        rep = check_condition(f, which, bound=bound, interval=a)
        assert rep == _reference_report(f, which, a, bound=bound)


@pytest.mark.parametrize("alpha, beta", MODELS + [ZERO])
@pytest.mark.parametrize("a", INTERVALS)
def test_refutations_within_64_steps_are_unchanged(alpha, beta, a):
    # The former search stopped at 64 steps: wherever it refuted, the
    # decision gives the same report, field for field.
    f = QSqrt2Additive(alpha, beta)
    compared = 0
    for k in range(21):
        for sign in (1, -1):
            r = F(10) ** (sign * k)
            cases = [("bounded_above", sign * F(10) ** k, F(1)),
                     ("bounded_below", sign * F(10) ** k, F(1)),
                     ("continuous_at_zero", None, r)]
            for which, bound, eps in cases:
                expected = _reference_report(f, which, a, bound=bound, eps=eps)
                if expected is not None:
                    assert check_condition(f, which, bound=bound, eps=eps, interval=a) == expected
                    compared += 1
    expected = _reference_report(f, "monotone", a)
    assert (expected is None) == (f.alpha == f.beta == 0)
    if expected is not None:
        assert check_condition(f, "monotone", interval=a) == expected
    assert compared >= (21 if f.alpha == f.beta == 0 else 42 * 3)


def test_monotone_is_refuted_against_f_of_zero():
    rep = check_condition(QSqrt2Additive(F(1), F(0)), "monotone")
    assert rep == ConditionReport(
        "monotone", False,
        {"x": "0/1 + 0/1*sqrt(2)", "y": "-4/1 + 3/1*sqrt(2)", "f_x": "0/1", "f_y": "-4/1"},
        "Pell candidates of the first 64 steps inside (0, 1/1], against f(0) = 0",
    )
    for alpha, beta in MODELS:
        for a in INTERVALS:
            f = QSqrt2Additive(alpha, beta)
            rep = check_condition(f, "monotone", interval=a)
            below = check_condition(f, "bounded_below", bound=F(0), interval=a)
            assert (rep.witness["y"], rep.witness["f_y"]) == (
                below.witness["x"], below.witness["value"])
            assert rep.searched == below.searched + ", against f(0) = 0"


def _per_step_pell_walk(a):
    """The Pell walk with the exact sign taken at every step until a family
    enters (0, a], as before the entry brackets."""
    an, ad = a.numerator, a.denominator
    first_in = second_in = False
    p, q = 3, 2
    for step in count():
        first_in = first_in or _surd_sign(p * ad - an, -q * ad) <= 0
        if first_in:
            yield step, p, -q
        second_in = second_in or _surd_sign(-2 * q * ad - an, p * ad) <= 0
        if second_in:
            yield step, -2 * q, p
        p, q = 3 * p + 4 * q, 2 * p + 3 * q


def _assert_walks_agree(a, points=60):
    assert list(islice(_pell_walk(a), points)) == list(islice(_per_step_pell_walk(a), points))


# 1/a falls inside the first family's bracket (5, 6) at 2/11 (the family is
# in at step 0) and 10/59 (out), inside the second's (4, 5) at 20/81 (in)
# and 2/9 (out); the other edges are bracket ends and nearby values.
@pytest.mark.parametrize("a", [
    F(2, 11), F(10, 59), F(20, 81), F(2, 9), F(1), F(1, 4), F(1, 5), F(1, 6), F(1, 2),
    F(1, 7), F(13, 4), F(99, 70), F(70, 99), F(1, 10 ** 60), F(10) ** 9,
])
def test_pell_walk_matches_the_per_step_sign_at_bracket_edges(a):
    _assert_walks_agree(a)


@given(a=st.fractions(min_value=F(1, 10 ** 9), max_value=F(10 ** 3), max_denominator=10 ** 9))
@settings(max_examples=300, deadline=None)
def test_pell_walk_matches_the_per_step_sign(a):
    _assert_walks_agree(a)


@pytest.mark.parametrize("a, first, second", [
    (F(2, 11), 1, 0), (F(2, 9), 0, 1), (F(1), 0, 0), (F(1, 10 ** 4299), 0, 0),
])
def test_pell_entry_takes_the_exact_sign_at_most_once_per_family(monkeypatch, a, first, second):
    calls = []
    monkeypatch.setattr(cauchy, "_surd_sign", lambda p, q: calls.append(q > 0) or _surd_sign(p, q))
    walk, seen = _pell_walk(a), set()
    while len(seen) < 2:  # until both families are inside (0, a]
        seen.add(next(walk)[1] > 0)
    assert (calls.count(False), calls.count(True)) == (first, second)


def _fraction_violations(g):
    """The former invariant scan, on Fraction differences."""
    out = []
    if g.values[0] != 0:
        out.append(f"f(0) = {fraction_str(g.values[0])}, expected 0/1")
    unit = g.values[1]
    for k in range(1, g.n):
        if g.values[k + 1] - g.values[k] != unit:
            out.append(
                f"additivity fails for pair ({k}, 1): "
                f"f({k}) + f(1) = {fraction_str(g.values[k] + unit)} "
                f"but f({k + 1}) = {fraction_str(g.values[k + 1])}"
            )
            break
    return out


@given(
    positive_rationals,
    st.integers(min_value=1, max_value=40),
    rationals,
    st.lists(st.tuples(st.integers(min_value=0, max_value=40), rationals), max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_tampered_grid_messages_match_fraction_scan(a, n, v, edits):
    values = list(grid_from_unit(a, n, v).values)
    for k, delta in edits:
        values[k % (n + 1)] += delta
    g = GridAdditiveFunction(a=a, n=n, values=tuple(values))
    expected = _fraction_violations(g)
    assert g.invariant_violations() == expected
    if expected:
        with pytest.raises(GridInvariantError):
            check_linear(g)
    else:
        res = check_linear(g)
        assert res.is_linear == all(x == k * values[1] for k, x in enumerate(values))
        assert res.slope == values[n] / a


def _scan_grid_report(g, which, bound=None, eps=F(1)):
    """The former scan of the table's points, in Fraction arithmetic."""
    searched = f"all {g.n + 1} grid points of [0, {fraction_str(g.a)}]"
    point = lambda k: _point_witness(g.point(k), g.values[k])
    if which in ("bounded_above", "bounded_below"):
        for k, v in enumerate(g.values):
            if (v > bound) if which == "bounded_above" else (v < bound):
                return ConditionReport(which, False, point(k), searched)
        return ConditionReport(which, True, None, searched)
    if which == "continuous_at_zero":
        if abs(g.values[1]) > eps:
            return ConditionReport(which, False, point(1),
                                   searched + " (no grid radius keeps |f| within eps)")
        m = 1
        while m + 1 <= g.n and abs(g.values[m + 1]) <= eps:
            m += 1
        delta = g.point(m)
        return ConditionReport(
            which, True, None,
            searched + f"; |f| <= {fraction_str(eps)} holds up to delta = {fraction_str(delta)}",
        )
    for k in range(g.n):
        if g.values[k + 1] < g.values[k]:
            witness = {"x": fraction_str(g.point(k)), "y": fraction_str(g.point(k + 1)),
                       "f_x": fraction_str(g.values[k]), "f_y": fraction_str(g.values[k + 1])}
            return ConditionReport(which, False, witness, searched)
    return ConditionReport(which, True, None, searched)


def _point_witness(x, value):
    return {"x": fraction_str(x), "x_approx": float(x), "value": fraction_str(value),
            "value_approx": float(value)}


@given(
    positive_rationals,
    st.integers(min_value=1, max_value=60),
    rationals,
    st.integers(min_value=-62, max_value=62),
    st.integers(min_value=1, max_value=62),
    st.fractions(min_value=F(-3), max_value=F(3), max_denominator=7),
    st.fractions(min_value=F(1, 40), max_value=F(50), max_denominator=40),
)
@settings(max_examples=200, deadline=None)
def test_grid_conditions_match_the_point_scan(a, n, u, j, m, shift, free):
    # Bounds drawn at and beside k u, eps at and beside m |u|, and free ones.
    g = grid_from_unit(a, n, u)
    bounds = [j * u, j * u + shift, shift, free, -free]
    epsilons = [e for e in (m * abs(u), m * abs(u) + shift, free) if e > 0]
    for which in ("bounded_above", "bounded_below"):
        for bound in bounds:
            expected = _scan_grid_report(g, which, bound=bound)
            assert check_condition(g, which, bound=bound) == expected
    for eps in epsilons:
        assert check_condition(g, "continuous_at_zero", eps=eps) == _scan_grid_report(
            g, "continuous_at_zero", eps=eps)
    assert check_condition(g, "monotone") == _scan_grid_report(g, "monotone")


@pytest.mark.parametrize("n, u", [(9, F(5, 4)), (9, F(-5, 4)), (1, F(2, 3)), (7, F(0))])
def test_grid_conditions_match_the_point_scan_at_every_boundary(n, u):
    # Each bound at, just below and just above k u, and eps likewise at m |u|.
    g = grid_from_unit(F(3, 7), n, u)
    tiny = F(1, 10 ** 6)
    for k in range(-2, n + 3):
        for bound in (k * u - tiny, k * u, k * u + tiny):
            for which in ("bounded_above", "bounded_below"):
                assert check_condition(g, which, bound=bound) == _scan_grid_report(
                    g, which, bound=bound), (which, bound)
        for eps in (k * abs(u) - tiny, k * abs(u), k * abs(u) + tiny, tiny):
            if eps > 0:
                assert check_condition(g, "continuous_at_zero", eps=eps) == _scan_grid_report(
                    g, "continuous_at_zero", eps=eps), eps
    assert check_condition(g, "monotone") == _scan_grid_report(g, "monotone")


@pytest.mark.parametrize("values", [
    (F(0), F(1), F(2), F(5)),     # additivity breaks at the pair (2, 1)
    (F(1), F(2), F(3), F(4)),     # f(0) != 0
    (F(0), F(-1), F(0), F(-3)),   # breaks at the pair (1, 1), monotone-looking scan
])
@pytest.mark.parametrize("which", ["bounded_above", "bounded_below",
                                   "continuous_at_zero", "monotone"])
def test_every_condition_rejects_a_non_additive_table(values, which):
    g = GridAdditiveFunction(a=F(1), n=3, values=values)
    with pytest.raises(GridInvariantError) as linear:
        check_linear(g)
    with pytest.raises(GridInvariantError) as condition:
        check_condition(g, which, bound=F(100), eps=F(100))
    assert str(condition.value) == str(linear.value)


def _compared_f_plus(view, z, n):
    """n f(z/n) where the sign of a QSqrt2 difference finds z/n <= a, else None."""
    if n < 1 or (QSqrt2(view.a, F(0)) - z.scale(F(1, n))).sign() < 0:
        return None
    return n * view.base(z.scale(F(1, n)))


@pytest.mark.parametrize("a", [F(1), F(2, 7), F(13, 4)])
def test_qsqrt2_modulus_is_admitted_from_the_least_one(a):
    view = ExtensionView(QSqrt2Additive(F(5, 3), F(-2)), a)
    parts = [F(0), F(1, 3), F(5), F(-7, 2), F(99, 70), F(-577, 408), F(10) ** 12 + F(1, 9)]
    for p in parts:
        for q in parts:
            z = QSqrt2(p, q)
            if z.sign() < 0:
                continue
            least = view.minimal_modulus(z)
            for n in (least - 2, least - 1, least, least + 1, least + 7):
                expected = _compared_f_plus(view, z, n)
                assert (expected is not None) == (n >= least), (z, n)
                if expected is None:
                    with pytest.raises(ValueError, match=f"modulus {n} does not bring"):
                        view.f_plus(z, n)
                else:
                    assert view.f_plus(z, n) == expected


@pytest.mark.parametrize("view, x, n", [
    (ExtensionView(grid_from_unit(F(1), 10, F(7, 100))), F(2), 2.5),
    (ExtensionView(grid_from_unit(F(1), 10, F(7, 100))), F(2), 2.0),
    (ExtensionView(grid_from_unit(F(1), 10, F(7, 100))), F(2), F(5, 2)),
    (ExtensionView(QSqrt2Additive(F(1), F(-2))), QSqrt2(F(5, 2), F(1)), 3.9),
    (ExtensionView(QSqrt2Additive(F(1), F(-2))), QSqrt2(F(5, 2), F(1)), "4"),
], ids=["grid-2.5", "grid-2.0", "grid-5/2", "qsqrt2-3.9", "qsqrt2-str"])
def test_a_non_integral_modulus_is_refused(view, x, n):
    with pytest.raises(ValueError, match=f"modulus must be an integer, got {re.escape(repr(n))}"):
        view.f_plus(x, n)
    with pytest.raises(ValueError, match="modulus must be an integer"):
        view.f_real(x, n)


def test_integer_moduli_of_any_integer_type_are_used_as_given():
    import numpy as np

    grid = ExtensionView(grid_from_unit(F(1), 10, F(7, 100)))
    qsqrt2 = ExtensionView(QSqrt2Additive(F(1), F(-2)))
    z = QSqrt2(F(5, 2), F(1))  # least modulus 4
    assert qsqrt2.minimal_modulus(z) == 4
    for n in (5, np.int64(5), np.int32(5)):
        assert grid.f_plus(F(5, 2), n) == F(7, 4) and type(grid.f_plus(F(5, 2), n)) is F
        assert qsqrt2.f_plus(z, n) == qsqrt2.base(z) and type(qsqrt2.f_plus(z, n)) is F
    with pytest.raises(ValueError, match="modulus 3 does not bring"):
        qsqrt2.f_plus(z, np.int64(3))


def test_qsqrt2_sign_matches_fraction_sign():
    parts = [F(0), F(1), F(-1), F(3, 2), F(-17, 12), F(577, 408), F(-99, 70), F(10) ** 40]
    for p in parts:
        for q in parts:
            assert QSqrt2(p, q).sign() == _fraction_sign(p, q)


# -- display values ----------------------------------------------------------

def _decimal_value(z):
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 1200
        two = Decimal(2)
        value = (
            Decimal(z.p.numerator) / Decimal(z.p.denominator)
            + Decimal(z.q.numerator) / Decimal(z.q.denominator) * two.sqrt()
        )
        return float(value)


def test_approx_of_deep_witness_is_correctly_rounded():
    w = unboundedness_witness(QSqrt2Additive(F(1), F(0)), F(10) ** 200)
    x = w.x.approx()
    assert 0.0 < x <= 1.0
    assert x == _decimal_value(w.x)


def test_approx_is_correctly_rounded_on_both_sign_patterns():
    for z in (
        QSqrt2(F(17), F(-12)),
        QSqrt2(F(-4), F(3)),
        QSqrt2(F(1, 3), F(2, 7)),
        QSqrt2(F(-5), F(-1, 9)),
        QSqrt2(F(7, 2), F(0)),
    ):
        assert z.approx() == _decimal_value(z), z


def test_approx_never_raises():
    huge = F(10) ** 400
    assert QSqrt2(huge, F(0)).approx() == float("inf")
    assert QSqrt2(-huge, F(1)).approx() == float("-inf")
    assert QSqrt2(-huge, huge).approx() == float("inf")
    w = unboundedness_witness(QSqrt2Additive(F(1), F(0)), F(1), a=F(1, 10 ** 340))
    assert w.x.approx() == 0.0  # below the smallest subnormal, rounded once


INF = float("inf")


@pytest.mark.parametrize("model, which, kwargs, approx", [
    (grid_from_unit(F(1), 2, F(10) ** 400), "bounded_above", {"bound": F(0)},
     {"x_approx": 0.5, "value_approx": INF}),
    (grid_from_unit(F(1), 2, -F(10) ** 400), "bounded_below", {"bound": F(0)},
     {"x_approx": 0.5, "value_approx": -INF}),
    (grid_from_unit(F(10) ** 400, 2, F(1)), "bounded_above", {"bound": F(0)},
     {"x_approx": INF, "value_approx": 1.0}),
    (grid_from_unit(F(10) ** 400, 2, F(1)), "continuous_at_zero", {"eps": F(1, 2)},
     {"x_approx": INF, "value_approx": 1.0}),
    (QSqrt2Additive(F(10) ** 400, F(0)), "bounded_above", {"bound": F(0)},
     {"value_approx": INF}),
    (QSqrt2Additive(F(10) ** 400, F(0)), "bounded_below", {"bound": F(0)},
     {"value_approx": -INF}),
], ids=["grid-value-above", "grid-value-below", "grid-point", "grid-continuity",
        "qsqrt2-above", "qsqrt2-below"])
def test_refutation_beyond_the_float_range_rounds_to_infinity(model, which, kwargs, approx):
    # The witness stays exact; only its display values leave the float range.
    rep = check_condition(model, which, **kwargs)
    assert not rep.holds_on_searched
    assert {key: rep.witness[key] for key in approx} == approx


def test_as_fraction_zero_denominator_is_value_error():
    with pytest.raises(ValueError):
        as_fraction("1/0")
