"""Variable elimination for the (n, k) = (12, 4) reconstruction system.

The layout is derived from the identities E_p = F_p(S_2..S_p), S_1 = 0.
Equations 2..n are solved in turn for their pivot S_p, except the one with
no S_p term (6), which leaves S_free unknown.  The solved S_1..S_n, in
S_free and the E's, are extended past n by Newton's identities for n
elements; substituted into an equation above n, they turn it into a
polynomial in S_free.  The first of degree two (14) is a quadratic whose
roots are the S_free values of the (at most two) multisets realizing the
E-values; the first of degree one (13) fixes S_7 when both roots are
solutions.  The residual relations, the other equations up to PMAX (26),
decide whether the second root extends to a full consistent solution.

All symbolic construction happens once and is cached; numeric queries
evaluate the cached polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt, prod
from typing import Iterable, Mapping, Sequence

from .algebra import Monomial, Poly, Var, _weighted_scale, evaluate, evaluate_weighted, evar, svar
from .multisets import PowerSumVector
from .symfunc import BadRangeError, _newton, e_expansion

N_ELEMENTS = 12
K_SUM = 4
PMAX = 26  # the last identity the residual relations check


def _primes_below(bound: int) -> tuple[int, ...]:
    return tuple(q for q in range(2, bound) if all(q % r for r in range(2, q)))


# The primes up to N_ELEMENTS, a factor of every scale that Newton's
# identities run under, so that their divisions are exact on ints.
_NEWTON_PRIMES = prod(_primes_below(N_ELEMENTS + 1))


class NonLinearPivotError(RuntimeError):
    """An elimination equation failed to be linear in its pivot variable."""


@lru_cache(maxsize=None)
def identity_poly(p: int) -> Poly:
    """The S_1 = 0 specialization of E_p as a polynomial in S_2..S_p."""
    return e_expansion(p, K_SUM, N_ELEMENTS, True)


@dataclass(frozen=True)
class EliminationTables:
    """Solved power sums: power_sums[p - 1] is S_p for p = 1..n, in S_free
    and the E-variables; S_1 = 0 and S_free is its own variable."""

    power_sums: tuple[Poly, ...]
    free: int


def _solve_linear(poly: Poly, var: Var, label: str) -> Poly:
    """Solve poly = 0 for ``var``, which it must contain linearly with a constant coefficient."""
    parts = poly.collect(var)
    coeff = parts.pop(1, Poly.zero())
    if parts.keys() - {0} or coeff.degree() != 0:
        raise NonLinearPivotError(f"{label} is not linear in {var}")
    return -parts.get(0, Poly.zero()) / coeff.constant_term()


def _bindings(power_sums: Sequence[Poly]) -> dict[Var, Poly]:
    """S_p bound to ``power_sums[p - 1]``."""
    return {svar(p): expr for p, expr in enumerate(power_sums, 1)}


@lru_cache(maxsize=None)
def build_elimination_tables() -> EliminationTables:
    free: int | None = None
    power_sums = [Poly.zero()]
    for p in range(2, N_ELEMENTS + 1):
        equation = identity_poly(p) - Poly.variable(evar(p))
        if svar(p) not in equation.variables():
            if free is not None:
                raise NonLinearPivotError(f"equations {free} and {p} both have no term in their pivot")
            free = p
            power_sums.append(Poly.variable(svar(p)))
            continue
        expr = _solve_linear(equation, svar(p), f"equation {p}").substitute(_bindings(power_sums))
        extra = {v for v in expr.variables() if v.family == "S" and v.index != free}
        if extra:
            raise NonLinearPivotError(f"entry {p} depends on {sorted(map(str, extra))}")
        power_sums.append(expr)
    return EliminationTables(power_sums=tuple(power_sums), free=free)


@lru_cache(maxsize=None)
def _powers_of_free(p: int) -> dict[int, Poly]:
    """Equation p with S_1..S_p substituted, the tables extended by Newton's
    identities, split by powers of S_free."""
    tables = build_elimination_tables()
    s = [None, *tables.power_sums]
    _newton(s, [Poly.const(1)], N_ELEMENTS, p)
    return identity_poly(p).substitute(_bindings(s[1:])).collect(svar(tables.free))


def _first_of_degree(degree: int) -> tuple[int, dict[int, Poly]]:
    """The first equation above n of this degree in S_free: its index and split."""
    for p in range(N_ELEMENTS + 1, PMAX + 1):
        parts = _powers_of_free(p)
        if max(parts, default=0) == degree:
            return p, parts
    raise NonLinearPivotError(f"no equation from {N_ELEMENTS + 1} to {PMAX} has degree {degree} in S_free")


@dataclass(frozen=True)
class QuadraticInS6:
    """Equation ``index`` as c2*S_free^2 + c1*S_free + c0 = E_index over the E-variables."""

    c2: Poly
    c1: Poly
    c0: Poly
    index: int


@lru_cache(maxsize=None)
def fourteenth_quadratic() -> QuadraticInS6:
    index, parts = _first_of_degree(2)
    zero = Poly.zero()
    return QuadraticInS6(c2=parts.get(2, zero), c1=parts.get(1, zero), c0=parts.get(0, zero), index=index)


# Reference coefficients the generated quadratic must reproduce exactly.
# Computed independently with a computer algebra system; the E2^2*E4 value
# is the one that decides whether the quadratic can have two positive roots.
REFERENCE_C2 = Poly.parse("73458/5465*E2")
REFERENCE_C1 = Poly.parse(
    "22556178701/5315943600*E3*E5 - 889/12*E8 - 15211/13392*E4^2"
    " + 4783550233/119441640960*E2^2*E4 - 9881683541849/418343497545600*E2*E3^2"
    " - 72629302403/477766563840000*E2^4"
)


def compare_coefficients(
    got: Poly, expected: Poly, label: str = "", always: Iterable[Monomial] = ()
) -> tuple[list[str], bool]:
    """Lines ``coef(<label><monomial>) = got [expected want] OK|MISMATCH`` for the
    monomials of both polynomials and ``always``, highest first, and an all-ok flag."""
    pairs = [(mono, got.coefficient(mono), expected.coefficient(mono))
             for mono in sorted({*always, *got.terms, *expected.terms}, reverse=True)]
    lines = [f"coef({label}{m}) = {g} [expected {e}] {'OK' if g == e else 'MISMATCH'}" for m, g, e in pairs]
    return lines, all(g == e for _, g, e in pairs)


def coefficient_report() -> tuple[list[str], bool]:
    """Per-coefficient comparison of the generated quadratic against the
    reference values; returns the report lines and an all-ok flag."""
    quad = fourteenth_quadratic()
    free = svar(build_elimination_tables().free)
    c2_lines, c2_ok = compare_coefficients(quad.c2, REFERENCE_C2, f"{free}^2: ")
    c1_lines, c1_ok = compare_coefficients(quad.c1, REFERENCE_C1, f"{free}: ")
    return c2_lines + c1_lines, c2_ok and c1_ok


def quadratic_at(evalues: PowerSumVector) -> tuple[Fraction, Fraction, Fraction]:
    """Coefficients (a, b, c) of a*x^2 + b*x + c = 0 for S_free at E-values
    E_1..E_index in a PowerSumVector; the constant term folds in -E_index."""
    quad = fourteenth_quadratic()
    if evalues.upto < quad.index:
        raise BadRangeError(f"E{quad.index} value required to form the quadratic")
    values = {evar(i): evalues[i] for i in range(1, evalues.upto + 1)}
    a, b, c = evaluate([quad.c2, quad.c1, quad.c0], values)
    return a, b, c - evalues[quad.index]


def exact_sqrt(q: Fraction) -> Fraction | None:
    """The exact nonnegative square root, or None when irrational/negative."""
    if q < 0:
        return None
    root_num, root_den = isqrt(q.numerator), isqrt(q.denominator)
    if root_num * root_num == q.numerator and root_den * root_den == q.denominator:
        return Fraction(root_num, root_den)
    return None


def solve_quadratic(a: Fraction, b: Fraction, c: Fraction) -> tuple[Fraction, ...]:
    """Exact rational roots of a*x^2 + b*x + c, ascending; raises if irrational."""
    if a == 0:
        if b == 0:
            raise ValueError("degenerate equation")
        return (-c / b,)
    disc = b * b - 4 * a * c
    root = exact_sqrt(disc)
    if root is None:
        raise ValueError(f"discriminant {disc} has no exact rational square root")
    return tuple(sorted(((-b - root) / (2 * a), (-b + root) / (2 * a))))


def _vieta_partner(evalues: Mapping[Var, Fraction], s_free: Fraction) -> Fraction:
    """The other root -c1/c2 - S_free of the quadratic at these E-values."""
    quad = fourteenth_quadratic()
    c2, c1 = evaluate([quad.c2, quad.c1], evalues)
    if c2 == 0:
        raise ZeroDivisionError("second root undefined when S_2 = 0")
    return -c1 / c2 - s_free


def _weighted_power_sums(values: Sequence[Fraction], upto: int) -> tuple[dict[Var, int], int]:
    """Integers P_p and a scale D with S_p = P_p / D**p for p = 1..upto.

    ``values`` holds S_1, S_2, ...; beyond its end, S_p follows from
    S_1..S_n by Newton's identities for n = N_ELEMENTS elements, run on the
    P_p, which are integer power sums of weight p.  D is the scale that
    ``algebra._weighted_scale`` picks for S_1..S_upto times every prime up
    to n, which makes each of Newton's divisions exact.
    """
    values = values[:upto]
    scale = _NEWTON_PRIMES * _weighted_scale((w, v.denominator) for w, v in enumerate(values, 1))
    ints = [0, *(v.numerator * (scale**w // v.denominator) for w, v in enumerate(values, 1))]
    if upto > len(values):
        _newton(ints, [1], N_ELEMENTS, upto)
    return {svar(p): ints[p] for p in range(1, upto + 1)}, scale


def _evalues(values: Sequence[Fraction], indices: Iterable[int]) -> dict[Var, Fraction]:
    """The E-values the identities give at power sums S_1, S_2, ... (``values``,
    extended as in _weighted_power_sums): E_i for each i of ``indices``."""
    indices = list(indices)
    nums, scale = _weighted_power_sums(values, max(indices))
    return dict(zip(map(evar, indices), evaluate_weighted([identity_poly(i) for i in indices], nums, scale)))


def second_root(s: PowerSumVector) -> Fraction:
    """The other root of the quadratic in S_free, from the power sums of one
    realizing multiset (S_1 = 0, S_2 nonzero): by Vieta, at the values the
    identities give for the E-variables of c1 and c2 (E2..E5 and E8)."""
    quad = fourteenth_quadratic()
    free = build_elimination_tables().free
    indices = {v.index for v in quad.c1.variables() | quad.c2.variables()}
    _require_zero_s1(s, upto=max(free, *indices))
    return _vieta_partner(_evalues(s.values, indices), s[free])


@lru_cache(maxsize=None)
def _s7_condition() -> Poly:
    index, parts = _first_of_degree(1)
    in_s = parts[1].substitute({v: identity_poly(v.index) for v in parts[1].variables()})
    return _solve_linear(in_s, max(in_s.variables()), f"the S_free coefficient of equation {index}")


def s7_linear_condition(s: PowerSumVector) -> Fraction:
    """Predicted S_7 when the S_free coefficient of the first equation above n
    linear in S_free (13) vanishes, as it must for two roots; that coefficient,
    written in S_2..S_7, is solved once for its highest power sum."""
    condition = _s7_condition()
    upto = max(v.index for v in condition.variables())
    _require_zero_s1(s, upto=upto)
    return condition.evaluate({svar(p): s[p] for p in range(1, upto + 1)})


def residual_equation_indices() -> tuple[int, ...]:
    """Indices of the equations from n + 1 to PMAX not consumed by the
    elimination itself: all but the quadratic's (13, then 15..26)."""
    quadratic = fourteenth_quadratic().index
    return tuple(p for p in range(N_ELEMENTS + 1, PMAX + 1) if p != quadratic)


def residual_relations(s: PowerSumVector) -> list[Fraction]:
    """Exact residuals of the compatibility equations at the second root.

    From the candidate's power sums S_1 = 0, S_2..S_n, the E-values are
    fixed by the identities; the second root and the elimination tables
    then reconstruct the would-be partner's power sums, and each equation of
    ``residual_equation_indices()`` is evaluated against both.  All are
    zero exactly when a consistent second solution exists at this level.

    Both members run on weight-scaled integers.  E_p, e_p, S_p and every
    table entry for S_p have weight p, so with a scale D such that
    den(S_p) divides D^p, the integers P_p = S_p D^p go through Newton's
    identities up to P_PMAX and through each identity polynomial, and only
    the value of E_p is divided, once, by D^p.  D is the W of the scale
    rule in ``algebra`` times the primes up to n, which make Newton's
    divisions by j exact: j! e_j is an integer polynomial in the power sums
    and j! has fewer than j factors of each prime.  The partner's S_p come
    from the tables as rationals and get their own scale Q by the same rule.
    """
    _require_zero_s1(s, upto=N_ELEMENTS)
    evalues = _evalues(s.values[:N_ELEMENTS], range(1, PMAX + 1))
    tables = build_elimination_tables()
    free = svar(tables.free)
    at_second = {**evalues, free: _vieta_partner(evalues, s[tables.free])}
    indices = residual_equation_indices()
    dual_evalues = _evalues(evaluate(tables.power_sums, at_second), indices)
    return [evalues[evar(p)] - dual_evalues[evar(p)] for p in indices]


def _require_zero_s1(s: PowerSumVector, upto: int) -> None:
    if s.upto < upto:
        raise BadRangeError(f"power sums up to S_{upto} required, got S_{s.upto}")
    if s[1] != 0:
        raise ValueError("power sums must be shifted so S_1 = 0")
