"""Additive functions on an interval, in exact rational arithmetic.

Additivity f(x) + f(y) = f(x + y) on a rational grid forces linearity, and
the forced solution extends first to all nonnegative rationals through
f_plus(x) = n f(x/n) and then to the whole line through the odd-symmetry
rule f_real(-x) = -f_real(x).  Dropping every regularity assumption admits
wildly non-linear additive functions; an explicit two-dimensional model
lives on the numbers p + q sqrt(2) with rational p, q, where f(p + q
sqrt(2)) = alpha p + beta q is additive for every choice of alpha, beta
yet linear only when both vanish.  Walking the solutions of Pell's
equation P^2 - 2 Q^2 = 1 produces points arbitrarily close to zero with
arbitrarily large f, the executable refutation of boundedness for the
non-linear models.

Everything here is exact, and every decision is made in integers: grid
checks compare numerators and denominators by cross-multiplication, signs
in the quadratic field square out to integer comparisons, and the Pell
walk runs on integer pairs.  A `fractions.Fraction` is built only for a
value that is returned; points of the quadratic model are exact (p, q)
pairs of them.  No floats enter any decision; the module needs nothing
beyond the standard library.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

__all__ = [
    "ConditionReport",
    "ExtensionView",
    "GridAdditiveFunction",
    "GridInvariantError",
    "NotRepresentableError",
    "QSqrt2",
    "QSqrt2Additive",
    "WitnessResult",
    "as_fraction",
    "check_condition",
    "check_linear",
    "fraction_str",
    "grid_from_unit",
    "grid_from_jsonable",
    "grid_to_jsonable",
    "model_from_jsonable",
    "qsqrt2_additive_from_jsonable",
    "qsqrt2_additive_to_jsonable",
    "unboundedness_witness",
]

RationalLike = Union[Fraction, int, str]

CONDITIONS = ("bounded_above", "bounded_below", "continuous_at_zero", "monotone")


class GridInvariantError(ValueError):
    """A grid table violates f(0) = 0 or additivity on the grid."""


class NotRepresentableError(ValueError):
    """Requested point lies outside the exact domain of the base function."""


def as_fraction(x: RationalLike) -> Fraction:
    """Exact rational from an int, a Fraction, or a 'p/q' string.

    A zero denominator is invalid input and raises ValueError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def fraction_str(x: Fraction) -> str:
    """Serialize as 'p/q' with the denominator always present."""
    return f"{x.numerator}/{x.denominator}"


def _approx(x: Fraction) -> float:
    """Correctly rounded float value, for display only; never used in
    decisions, and never raises (beyond the float range it is +-inf)."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _surd_sign(p: int, q: int) -> int:
    """Exact sign of p + q*sqrt(2) for integers p and q.

    With p and q of opposite signs the comparison p + q*sqrt(2) vs 0
    squares to p**2 vs 2*q**2, which is never a tie since sqrt(2) is
    irrational; the larger square wins, carrying its sign.
    """
    if (p >= 0) == (q >= 0) or p == 0 or q == 0:
        return (p + q > 0) - (p + q < 0)
    if p * p > 2 * q * q:
        return 1 if p > 0 else -1
    return 1 if q > 0 else -1


def _surd_floor(p: int, q: int, d: int) -> int:
    """floor((p + q*sqrt(2)) / d) for integers p, q and d > 0, exactly.

    With s = isqrt(2 q**2), |q| sqrt(2) lies in (s, s + 1) unless q = 0, and
    a fractional part in [0, 1) never moves floor((m + theta) / d).
    """
    s = math.isqrt(2 * q * q)
    return (p + s) // d if q >= 0 else (p - s - 1) // d


def _sqrt2_convergent(steps: int) -> Fraction:
    p, q = 1, 1
    for _ in range(steps):
        p, q = p + 2 * q, p + q
    return Fraction(p, q)


# Rational approximation of sqrt(2) good to ~1e-92, used only for display
# values; no decision reads it.
_SQRT2_APPROX = _sqrt2_convergent(120)


@dataclass(frozen=True)
class QSqrt2:
    """Exact element p + q*sqrt(2) of the rational quadratic field."""

    p: Fraction
    q: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", as_fraction(self.p))
        object.__setattr__(self, "q", as_fraction(self.q))

    def __add__(self, other: "QSqrt2") -> "QSqrt2":
        return QSqrt2(self.p + other.p, self.q + other.q)

    def __sub__(self, other: "QSqrt2") -> "QSqrt2":
        return QSqrt2(self.p - other.p, self.q - other.q)

    def __neg__(self) -> "QSqrt2":
        return QSqrt2(-self.p, -self.q)

    def scale(self, r: RationalLike) -> "QSqrt2":
        r = as_fraction(r)
        return QSqrt2(self.p * r, self.q * r)

    def sign(self) -> int:
        """Exact sign, decided by integer arithmetic only.

        Scaling by both (positive) denominators leaves the integer pair
        whose sign `_surd_sign` decides.
        """
        p, q = self.p, self.q
        return _surd_sign(p.numerator * q.denominator, q.numerator * p.denominator)

    def __lt__(self, other: "QSqrt2") -> bool:
        return (self - other).sign() < 0

    def __le__(self, other: "QSqrt2") -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other: "QSqrt2") -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other: "QSqrt2") -> bool:
        return (self - other).sign() >= 0

    def approx(self) -> float:
        """Correctly rounded float value, as `_approx` gives it.

        With p and q of opposite signs p + q*sqrt(2) cancels; it equals
        (p**2 - 2 q**2) / (p - q*sqrt(2)), whose denominator does not.  The
        value is formed in Fraction and rounded once.
        """
        p, q = self.p, self.q
        if (p > 0 > q) or (q > 0 > p):
            value = (p * p - 2 * q * q) / (p - q * _SQRT2_APPROX)
        else:
            value = p + q * _SQRT2_APPROX
        return _approx(value)

    def __str__(self) -> str:
        return f"{fraction_str(self.p)} + {fraction_str(self.q)}*sqrt(2)"


# ---------------------------------------------------------------------------
# Additive functions on a rational grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridAdditiveFunction:
    """Table of values on the grid k*a/n for k = 0..n, exact rationals.

    Construction checks shapes only; `invariant_violations` reports breaks
    of f(0) = 0 and grid additivity, so tampered tables can be represented
    and then rejected by the checkers.
    """

    a: Fraction
    n: int
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        a = as_fraction(self.a)
        if a <= 0:
            raise ValueError(f"interval endpoint must be positive, got {a}")
        object.__setattr__(self, "a", a)
        n = int(self.n)
        if n < 1:
            raise ValueError(f"grid needs at least one step, got n = {n}")
        object.__setattr__(self, "n", n)
        values = tuple(map(as_fraction, self.values))
        if len(values) != n + 1:
            raise ValueError(f"expected {n + 1} values, got {len(values)}")
        object.__setattr__(self, "values", values)

    @property
    def step(self) -> Fraction:
        return self.a / self.n

    def point(self, k: int) -> Fraction:
        return k * self.step

    def __call__(self, k: int) -> Fraction:
        """Value at the k-th grid point."""
        return self.values[k]

    def invariant_violations(self) -> list[str]:
        """Exact check of f(0) = 0 and pairwise grid additivity.

        Additivity over all index pairs is equivalent to constant unit
        increments, which is what gets scanned; the reported witness names
        the violating pair (k, 1).  f(k+1) - f(k) = f(1) is compared
        cross-multiplied over the three denominators.
        """
        values = self.values
        out: list[str] = []
        if values[0] != 0:
            out.append(f"f(0) = {fraction_str(values[0])}, expected 0/1")
        unit = values[1]
        un, ud = unit.numerator, unit.denominator
        an, ad = un, ud
        for k in range(1, self.n):
            nxt = values[k + 1]
            bn, bd = nxt.numerator, nxt.denominator
            if (bn * ad - an * bd) * ud != un * ad * bd:
                out.append(
                    f"additivity fails for pair ({k}, 1): "
                    f"f({k}) + f(1) = {fraction_str(values[k] + unit)} "
                    f"but f({k + 1}) = {fraction_str(nxt)}"
                )
                break
            an, ad = bn, bd
        return out


def grid_from_unit(a: RationalLike, n: int, v: RationalLike) -> GridAdditiveFunction:
    """The unique grid-additive table with f(a/n) = v, namely f(k a/n) = k v."""
    v = as_fraction(v)
    vn, vd = v.numerator, v.denominator
    return GridAdditiveFunction(
        a=as_fraction(a), n=n, values=tuple(Fraction(k * vn, vd) for k in range(n + 1))
    )


def _require_additive(g: GridAdditiveFunction) -> None:
    violations = g.invariant_violations()
    if violations:
        raise GridInvariantError("; ".join(violations))


class LinearityResult(NamedTuple):
    is_linear: bool
    slope: Fraction


def check_linear(g: GridAdditiveFunction) -> LinearityResult:
    """Decide f(k a/n) = k f(a/n) exactly; slope is f(a)/a.

    Grid invariants are verified first and a violation raises
    `GridInvariantError` before any linearity judgment.
    """
    _require_additive(g)
    un, ud = g.values[1].numerator, g.values[1].denominator
    is_linear = all(
        v.numerator * ud == k * un * v.denominator for k, v in enumerate(g.values)
    )
    return LinearityResult(is_linear=is_linear, slope=g.values[g.n] / g.a)


# ---------------------------------------------------------------------------
# The quadratic-field model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QSqrt2Additive:
    """f(p + q sqrt(2)) = alpha p + beta q, additive for any alpha, beta.

    Linearity would force beta = alpha*sqrt(2), which over the rationals
    holds only at alpha = beta = 0, so every other parameter choice is a
    genuinely non-linear additive function.
    """

    alpha: Fraction
    beta: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        object.__setattr__(self, "beta", as_fraction(self.beta))

    def __call__(self, x: QSqrt2) -> Fraction:
        return self.alpha * x.p + self.beta * x.q

    @property
    def is_linear(self) -> bool:
        return self.alpha == 0 and self.beta == 0


class WitnessResult(NamedTuple):
    x: QSqrt2
    value: Fraction
    steps: int


def _pell_walk(a: Fraction):
    """Yield (step, p, q), without end, for the integer points
    p + q sqrt(2) in (0, a] built from Pell pairs P^2 - 2Q^2 = 1.

    Each Pell pair (P, Q) gives two positive numbers shrinking to zero:
    P - Q sqrt(2) = 1/(P + Q sqrt(2)) and its sqrt(2) multiple
    -2Q + P sqrt(2).  Successive pairs come from the fundamental solution
    (3, 2) via (P, Q) -> (3P + 4Q, 2P + 3Q).  Both families decrease, so
    once a family is inside (0, a] it stays there.  It enters once 1/a <=
    P + Q sqrt(2), in (2P - 1, 2P), or 1/a <= Q + P/sqrt(2), in (2Q, 2Q + 1):
    the exact sign is needed only where 1/a is in a bracket, once per family.
    """
    from itertools import count  # kept local: importing this module does no more work
    an, ad = a.numerator, a.denominator
    first_in = second_in = False
    p, q = 3, 2
    for step in count():
        first_in = first_in or ad <= (2 * p - 1) * an or (
            ad < 2 * p * an and _surd_sign(p * ad - an, -q * ad) <= 0)
        if first_in:
            yield step, p, -q
        second_in = second_in or ad <= 2 * q * an or (
            ad < (2 * q + 1) * an and _surd_sign(-2 * q * ad - an, p * ad) <= 0)
        if second_in:
            yield step, -2 * q, p
        p, q = 3 * p + 4 * q, 2 * p + 3 * q


def _pell_refutation(f: QSqrt2Additive, which: str, r: Fraction, a: Fraction):
    """First Pell point in (0, a] at which f refutes `which` against r (the
    bound, or eps for continuity), as a WitnessResult; None for the zero
    model if 0 does not.  A non-linear model always has one: along one
    family f grows like |beta - alpha*sqrt(2)| times the Pell denominator,
    along the other with the opposite sign.  f(p + q sqrt(2)) - r has the
    sign of A p + B q - C.
    """
    an, ad = f.alpha.numerator, f.alpha.denominator
    bn, bd = f.beta.numerator, f.beta.denominator
    alpha_s, beta_s, r_s = an * bd * r.denominator, bn * ad * r.denominator, r.numerator * ad * bd
    if which == "bounded_below":  # f(z) < r iff -f(z) > -r
        alpha_s, beta_s, r_s = -alpha_s, -beta_s, -r_s
    absolute = which == "continuous_at_zero"
    if f.is_linear and r_s >= 0:  # f = 0 at every candidate
        return None
    for step, p, q in _pell_walk(a):
        s = alpha_s * p + beta_s * q
        if (abs(s) if absolute else s) > r_s:
            x = QSqrt2(p, q)
            return WitnessResult(x=x, value=f(x), steps=step)


def unboundedness_witness(
    f: QSqrt2Additive,
    bound: RationalLike,
    a: RationalLike = Fraction(1),
) -> WitnessResult:
    """Exact point x in (0, a] with f(x) > bound, the first Pell point
    that has it; every non-linear model has one.  The zero model alpha =
    beta = 0 has one only for a bound < 0; otherwise it raises ValueError.
    """
    bound = as_fraction(bound)
    a = as_fraction(a)
    if a <= 0:
        raise ValueError(f"interval endpoint must be positive, got {a}")
    witness = _pell_refutation(f, "bounded_above", bound, a)
    if witness is None:
        raise ValueError(
            "model is linear (alpha = beta = 0); its only bound witness would "
            "need a non-linear model"
        )
    return witness


# ---------------------------------------------------------------------------
# Extensions to the half line and the whole line
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtensionView:
    """Half-line extension f_plus(x) = n f(x/n) and its odd completion.

    For a grid base the admissible inputs are the multiples of the grid
    step; the modulus n must place x/n back on the grid, and the smallest
    such n is chosen unless one is supplied.  For the quadratic-field base
    any exact point works; n is admissible iff n >= max(1, ceil(x/a)).
    A supplied n must be an integer.  Both extensions are independent of
    the admissible modulus, testable by passing two different ones.

    The whole-line extension applies f_real(-x) = -f_real(x).
    """

    base: Union[GridAdditiveFunction, QSqrt2Additive]
    a: Fraction | None = None

    def __post_init__(self) -> None:
        if isinstance(self.base, GridAdditiveFunction):
            if self.a is not None:
                raise ValueError("a applies to the quadratic-field model only, not a grid")
            _require_additive(self.base)
            object.__setattr__(self, "a", self.base.a)
        elif isinstance(self.base, QSqrt2Additive):
            a = as_fraction(self.a) if self.a is not None else Fraction(1)
            if a <= 0:
                raise ValueError(f"interval endpoint must be positive, got {a}")
            object.__setattr__(self, "a", a)
        else:
            raise TypeError(f"unsupported base {type(self.base).__name__}")

    # -- grid-base helpers ---------------------------------------------------

    def _grid_index(self, x: Fraction) -> int:
        """j with x = j a/n, from j = x n / a in integers."""
        a = self.base.a
        j, rest = divmod(
            x.numerator * self.base.n * a.denominator, x.denominator * a.numerator
        )
        if rest:
            raise NotRepresentableError(
                f"{fraction_str(x)} is not a multiple of the grid step "
                f"{fraction_str(self.base.step)}"
            )
        return j

    def minimal_modulus(self, x: RationalLike) -> int:
        """Smallest n with x/n in the base domain (grid point, or in [0, a]).

        On a grid, x = j a/n_grid needs n | j and j/n <= n_grid, so the
        smallest n is j/k for the largest divisor k of j with k <= n_grid:
        at most n_grid trial divisions.
        """
        if isinstance(self.base, GridAdditiveFunction):
            x = as_fraction(x)
            if x < 0:
                raise ValueError("minimal modulus is defined for nonnegative inputs")
            j = self._grid_index(x)
            for k in range(min(j, self.base.n), 0, -1):
                if j % k == 0:
                    return j // k
            return 1  # j = 0
        z = _as_qsqrt2(x)
        if z.sign() < 0:
            raise ValueError("minimal modulus is defined for nonnegative inputs")
        # ceil(z / a) = -floor(-(p + q sqrt(2)) / a) over one integer denominator.
        p, q, a = z.p, z.q, self.a
        scale = p.denominator * q.denominator * a.numerator
        floor = _surd_floor(
            -p.numerator * q.denominator * a.denominator,
            -q.numerator * p.denominator * a.denominator,
            scale,
        )
        return max(1, -floor)

    def f_plus(self, x, n: int | None = None) -> Fraction:
        """n f(x/n) on nonnegative inputs, with the minimal n by default."""
        if n is not None:
            if not isinstance(n, numbers.Integral):
                raise ValueError(f"modulus must be an integer, got {n!r}")
            n = int(n)
        if isinstance(self.base, GridAdditiveFunction):
            x = as_fraction(x)
            if x < 0:
                raise ValueError(f"f_plus is defined on [0, inf), got {fraction_str(x)}")
            j = self._grid_index(x)
            if n is None:
                n = self.minimal_modulus(x)
            elif n < 1 or j % n != 0 or j // n > self.base.n:
                raise ValueError(
                    f"modulus {n} does not place {fraction_str(x)} / n on the grid"
                )
            return n * self.base.values[j // n]
        z = _as_qsqrt2(x)
        if z.sign() < 0:
            raise ValueError(f"f_plus is defined on [0, inf), got {z}")
        least = self.minimal_modulus(z)  # z/n <= a exactly when n >= least
        if n is None:
            n = least
        elif n < least:
            raise ValueError(f"modulus {n} does not bring {z} into [0, a]")
        return n * self.base(z.scale(Fraction(1, n)))

    def f_real(self, x, n: int | None = None) -> Fraction:
        """Odd extension to the whole line: f_real(-x) = -f_real(x)."""
        if isinstance(self.base, GridAdditiveFunction):
            x = as_fraction(x)
            if x < 0:
                return -self.f_plus(-x, n)
            return self.f_plus(x, n)
        z = _as_qsqrt2(x)
        if z.sign() < 0:
            return -self.f_plus(-z, n)
        return self.f_plus(z, n)


def _as_qsqrt2(x) -> QSqrt2:
    if isinstance(x, QSqrt2):
        return x
    return QSqrt2(as_fraction(x), Fraction(0))


# ---------------------------------------------------------------------------
# Condition checkers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionReport:
    """A verdict over the region `searched` names: a grid's points, or the
    quadratic model's interval.  A witness is an exact refutation, and
    `holds_on_searched` refers strictly to that region.
    """

    condition: str
    holds_on_searched: bool
    witness: dict | None
    searched: str


def _point_witness(x_str: str, x_approx: float, value: Fraction) -> dict:
    return {
        "x": x_str,
        "x_approx": x_approx,
        "value": fraction_str(value),
        "value_approx": _approx(value),
    }


def _check_grid_condition(
    g: GridAdditiveFunction, which: str, bound, eps: Fraction
) -> ConditionReport:
    # An additive table is f(k a/n) = k u with u = f(a/n): each verdict is
    # read from u and n, and no grid point is visited.
    _require_additive(g)
    searched = f"all {g.n + 1} grid points of [0, {fraction_str(g.a)}]"
    u = g.values[1]
    if which == "monotone":  # refuted by the pair (0, a/n) exactly when u < 0
        if u < 0:
            witness = {"x": "0/1", "y": fraction_str(g.step), "f_x": "0/1", "f_y": fraction_str(u)}
            return ConditionReport(which, False, witness, searched)
        return ConditionReport(which, True, None, searched)
    if which == "continuous_at_zero":
        if abs(u) <= eps:  # |k u| <= eps up to k = m
            m = g.n if u == 0 else min(g.n, eps // abs(u))
            note = f"; |f| <= {fraction_str(eps)} holds up to delta = {fraction_str(g.point(m))}"
            return ConditionReport(which, True, None, searched + note)
        k, searched = 1, searched + " (no grid radius keeps |f| within eps)"
    else:
        # k u first breaks the bound b at k = 0 if 0 does, else at the least
        # k > b/u, which exists only when u has the breaking sign.
        b, sign = as_fraction(bound), 1 if which == "bounded_above" else -1
        if sign * b < 0:
            k = 0
        else:
            k = b // u + 1 if sign * u > 0 else g.n + 1
        if k > g.n:
            return ConditionReport(which, True, None, searched)
    x = g.point(k)
    witness = _point_witness(fraction_str(x), _approx(x), g.values[k])
    return ConditionReport(which, False, witness, searched)


def _check_qsqrt2_condition(
    f: QSqrt2Additive, which: str, bound, eps: Fraction, a: Fraction
) -> ConditionReport:
    # A monotone additive f has f >= f(0) = 0 on (0, a]: the first Pell
    # point x with f(x) < 0 refutes it, paired with 0.
    monotone, continuity = which == "monotone", which == "continuous_at_zero"
    r = eps if continuity else Fraction(0) if monotone else as_fraction(bound)
    w = _pell_refutation(f, "bounded_below" if monotone else which, r, a)
    if w is None:
        return ConditionReport(which, True, None, f"f = 0 on (0, {fraction_str(a)}]")
    searched = (  # the first window of 64 * 2**k steps holding w
        f"Pell candidates of the first {64 << (w.steps // 64).bit_length()} "
        f"steps inside (0, {fraction_str(a)}]"
    )
    if monotone:
        witness = {"x": str(QSqrt2(0, 0)), "y": str(w.x), "f_x": "0/1",
                   "f_y": fraction_str(w.value)}
        return ConditionReport(which, False, witness, searched + ", against f(0) = 0")
    note = " (witness can be made arbitrarily small)" if continuity else ""
    return ConditionReport(
        which, False, _point_witness(str(w.x), w.x.approx(), w.value), searched + note
    )


def check_condition(
    f: Union[GridAdditiveFunction, QSqrt2Additive],
    which: str,
    *,
    bound: RationalLike | None = None,
    eps: RationalLike = Fraction(1),
    interval: RationalLike | None = None,
) -> ConditionReport:
    """Decide one of the four regularity conditions on a model.

    `which` is one of bounded_above, bounded_below, continuous_at_zero,
    monotone.  Boundedness checks need `bound`; continuity uses `eps` > 0.
    A grid must be additive (else `GridInvariantError`) and is decided on
    its own points from f(a/n); the quadratic model on (0, interval], where
    a Pell witness refutes any non-linear model and f = 0 holds unless 0
    breaks the bound.  Measurability has no finite check and is covered
    through the monotone condition, which implies it.
    """
    if which not in CONDITIONS:
        raise ValueError(f"unknown condition {which!r}; choose from {CONDITIONS}")
    if which in ("bounded_above", "bounded_below") and bound is None:
        raise ValueError(f"condition {which} needs a bound")
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {fraction_str(eps)}")
    if isinstance(f, GridAdditiveFunction):
        if interval is not None:
            raise ValueError("interval applies to the quadratic-field model only, not a grid")
        return _check_grid_condition(f, which, bound, eps)
    if isinstance(f, QSqrt2Additive):
        a = as_fraction(interval) if interval is not None else Fraction(1)
        if a <= 0:
            raise ValueError(f"interval endpoint must be positive, got {a}")
        return _check_qsqrt2_condition(f, which, bound, eps, a)
    raise TypeError(f"unsupported model {type(f).__name__}")


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def grid_to_jsonable(g: GridAdditiveFunction) -> dict:
    return {
        "kind": "grid",
        "a": fraction_str(g.a),
        "n": g.n,
        "values": [fraction_str(v) for v in g.values],
    }


def grid_from_jsonable(obj: dict) -> GridAdditiveFunction:
    if not isinstance(obj, dict) or obj.get("kind") != "grid":
        raise ValueError("grid JSON must carry kind = 'grid'")
    return GridAdditiveFunction(
        a=as_fraction(obj["a"]),
        n=int(obj["n"]),
        values=tuple(as_fraction(v) for v in obj["values"]),
    )


def qsqrt2_additive_to_jsonable(f: QSqrt2Additive) -> dict:
    return {
        "kind": "qsqrt2",
        "alpha": fraction_str(f.alpha),
        "beta": fraction_str(f.beta),
    }


def qsqrt2_additive_from_jsonable(obj: dict) -> QSqrt2Additive:
    if not isinstance(obj, dict) or obj.get("kind") != "qsqrt2":
        raise ValueError("model JSON must carry kind = 'qsqrt2'")
    return QSqrt2Additive(alpha=as_fraction(obj["alpha"]), beta=as_fraction(obj["beta"]))


def model_from_jsonable(obj: dict) -> Union[GridAdditiveFunction, QSqrt2Additive]:
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == "grid":
        return grid_from_jsonable(obj)
    if kind == "qsqrt2":
        return qsqrt2_additive_from_jsonable(obj)
    raise ValueError(f"unknown model kind {kind!r}")
