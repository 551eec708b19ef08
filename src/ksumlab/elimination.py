"""Variable elimination for the (n, k) = (12, 4) reconstruction system.

With S_1 = 0, the power-sum identities E_p = F_p(S_1..S_p) for p = 2..5
invert uniquely to express S_2..S_5 in the E's, and the equations for
p = 7..12 are linear in their pivot S_p, giving S_7..S_12 as polynomials
in S_6 with E-coefficients.  S_6 itself is undetermined at this level:
its coefficient in the sixth equation vanishes.  Substituting everything
into the reduced fourteenth equation yields a quadratic in S_6 whose two
roots are the sixth power sums of the (at most two) multisets realizing
the given E-values; the residual relations then decide whether the second
root extends to a full consistent solution.

All symbolic construction happens once and is cached; numeric queries
evaluate the cached polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Mapping

from .algebra import Poly, Var, evar, svar
from .multisets import PowerSumVector
from .symfunc import BadRangeError, e_expansion, newton_extend, reduce_high_powers

N_ELEMENTS = 12
K_SUM = 4


class NonLinearPivotError(RuntimeError):
    """An elimination equation failed to be linear in its pivot variable."""


@lru_cache(maxsize=None)
def identity_poly(p: int) -> Poly:
    """The S_1 = 0 specialization of E_p as a polynomial in S_2..S_p."""
    return e_expansion(p, K_SUM, N_ELEMENTS, True)


@lru_cache(maxsize=None)
def reduced_identity_poly(p: int) -> Poly:
    """identity_poly with every S_m, m > 12, reduced to S_2..S_12.

    The reduction of a high power sum is generic in S_1, so the S_1 = 0
    specialization must be reapplied afterwards.
    """
    reduced = reduce_high_powers(identity_poly(p), N_ELEMENTS)
    return reduced.substitute({svar(1): Poly.zero()})


@dataclass(frozen=True)
class EliminationTables:
    """Solved expressions: low[p] gives S_p in E-variables for p = 2..5;
    high[p] gives S_p in S_6 and E-variables for p = 7..12."""

    low: dict[int, Poly]
    high: dict[int, Poly]


def _solve_linear(poly: Poly, var: Var, label: str) -> Poly:
    """Solve poly = 0 for ``var``, in which it must be linear with a constant coefficient."""
    parts = poly.collect(var)
    coeff = parts.pop(1, Poly.zero())
    if parts.keys() - {0} or coeff.degree() > 0:
        raise NonLinearPivotError(f"{label} is not linear in {var}")
    if coeff.is_zero():
        raise NonLinearPivotError(f"{label} has no {var} term")
    return -parts.get(0, Poly.zero()) / coeff.constant_term()


def _solve_pivot(p: int, bindings: dict[Var, Poly]) -> Poly:
    """Solve equation p for S_p, substituting previously solved variables."""
    equation = identity_poly(p) - Poly.variable(evar(p))
    return _solve_linear(equation, svar(p), f"equation {p}").substitute(bindings)


@lru_cache(maxsize=None)
def build_elimination_tables() -> EliminationTables:
    bindings: dict[Var, Poly] = {}
    low: dict[int, Poly] = {}
    for p in range(2, 6):
        expr = _solve_pivot(p, bindings)
        if any(v.family == "S" for v in expr.variables()):
            raise NonLinearPivotError(f"low entry {p} still contains S-variables")
        low[p] = expr
        bindings[svar(p)] = expr
    high: dict[int, Poly] = {}
    for p in range(7, 13):
        expr = _solve_pivot(p, bindings)
        extra = {v for v in expr.variables() if v.family == "S" and v.index != 6}
        if extra:
            raise NonLinearPivotError(f"high entry {p} depends on {sorted(map(str, extra))}")
        high[p] = expr
        bindings[svar(p)] = expr
    return EliminationTables(low=low, high=high)


@dataclass(frozen=True)
class QuadraticInS6:
    """The fourteenth equation as c2*S_6^2 + c1*S_6 + c0 = E_14, with the
    coefficients polynomials in E-variables."""

    c2: Poly
    c1: Poly
    c0: Poly


def _powers_of_s6(p: int) -> dict[int, Poly]:
    """Reduced equation p with the tables substituted, split by powers of S_6."""
    tables = build_elimination_tables()
    bindings = {svar(q): expr for q, expr in (*tables.low.items(), *tables.high.items())}
    return reduced_identity_poly(p).substitute(bindings).collect(svar(6))


@lru_cache(maxsize=None)
def fourteenth_quadratic() -> QuadraticInS6:
    parts = _powers_of_s6(14)
    if max(parts, default=0) > 2:
        raise NonLinearPivotError("fourteenth equation has degree > 2 in S6")
    zero = Poly.zero()
    return QuadraticInS6(c2=parts.get(2, zero), c1=parts.get(1, zero), c0=parts.get(0, zero))


# Reference coefficients the generated quadratic must reproduce exactly.
# Computed independently with a computer algebra system; the E2^2*E4 value
# is the one that decides whether the quadratic can have two positive roots.
REFERENCE_C2 = Poly.parse("73458/5465*E2")
REFERENCE_C1 = Poly.parse(
    "22556178701/5315943600*E3*E5 - 889/12*E8 - 15211/13392*E4^2"
    " + 4783550233/119441640960*E2^2*E4 - 9881683541849/418343497545600*E2*E3^2"
    " - 72629302403/477766563840000*E2^4"
)


def coefficient_report() -> tuple[list[str], bool]:
    """Per-coefficient comparison of the generated quadratic against the
    reference values; returns the report lines and an all-ok flag."""
    quad = fourteenth_quadratic()
    lines: list[str] = []
    all_ok = True
    for label, got, expected in (("S6^2", quad.c2, REFERENCE_C2), ("S6", quad.c1, REFERENCE_C1)):
        monomials = sorted(set(got.terms) | set(expected.terms), reverse=True)
        for mono in monomials:
            g, e = got.coefficient(mono), expected.coefficient(mono)
            ok = g == e
            all_ok &= ok
            lines.append(
                f"coef({label}: {mono}) = {g} [expected {e}] {'OK' if ok else 'MISMATCH'}"
            )
    return lines, all_ok


def quadratic_at(evalues: PowerSumVector) -> tuple[Fraction, Fraction, Fraction]:
    """Coefficients (a, b, c) of a*x^2 + b*x + c = 0 for S_6 at the E-values
    E_1..E_14 held in a PowerSumVector; the constant term folds in -E_14."""
    if evalues.upto < 14:
        raise BadRangeError("E14 value required to form the quadratic")
    values = {evar(i): evalues[i] for i in range(1, evalues.upto + 1)}
    quad = fourteenth_quadratic()
    return (
        quad.c2.evaluate(values),
        quad.c1.evaluate(values),
        quad.c0.evaluate(values) - evalues[14],
    )


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


def _vieta_partner(evalues: Mapping[Var, Fraction], s6: Fraction) -> Fraction:
    """The other root -c1/c2 - S_6 of the S_6 quadratic at these E-values."""
    quad = fourteenth_quadratic()
    return -quad.c1.evaluate(evalues) / quad.c2.evaluate(evalues) - s6


def second_root(s: PowerSumVector) -> Fraction:
    """The other root of the S_6 quadratic, from the power sums of one
    realizing multiset (S_1 = 0, S_2 nonzero): by Vieta, at the E-values
    the identities give for S_2..S_8."""
    _require_zero_s1(s, upto=8)
    if s[2] == 0:
        raise ZeroDivisionError("second root undefined when S_2 = 0")
    values = {svar(p): s[p] for p in range(2, 9)}
    evalues = {evar(i): identity_poly(i).evaluate(values) for i in range(2, 9)}
    return _vieta_partner(evalues, s[6])


@lru_cache(maxsize=None)
def _s7_condition() -> Poly:
    s6_coeff = _powers_of_s6(13).get(1, Poly.zero())
    in_s = s6_coeff.substitute({v: identity_poly(v.index) for v in s6_coeff.variables()})
    return _solve_linear(in_s, svar(7), "the S6 coefficient of equation 13")


def s7_linear_condition(s: PowerSumVector) -> Fraction:
    """Predicted S_7 when the thirteenth equation's S_6 coefficient vanishes,
    the degenerate situation that every two-root solution must satisfy;
    that coefficient, written in S_2..S_7, is solved for S_7 once."""
    _require_zero_s1(s, upto=5)
    return _s7_condition().evaluate({svar(p): s[p] for p in range(2, 6)})


def residual_equation_indices(pmax: int = 26) -> tuple[int, ...]:
    """Indices of the equations not consumed by the elimination itself:
    13, then 15..pmax (6 and 14 hold by construction)."""
    return (13,) + tuple(range(15, pmax + 1))


def residual_relations(s: PowerSumVector, pmax: int = 26) -> list[Fraction]:
    """Exact residuals of the compatibility equations at the second root.

    From the candidate's power sums S_1 = 0, S_2..S_12, the E-values are
    fixed by the identities; the second root and the elimination tables
    then reconstruct the would-be partner's power sums, and each equation
    with index 13 or 15..pmax is evaluated against both.  All residuals are
    zero exactly when a consistent second solution exists at this level.
    """
    if pmax < 15:
        raise BadRangeError(f"pmax must be at least 15, got {pmax}")
    _require_zero_s1(s, upto=12)

    extended = newton_extend([s[p] for p in range(1, 13)], N_ELEMENTS, pmax)
    first_values = {svar(p): extended[p - 1] for p in range(1, pmax + 1)}
    evalues = {evar(i): identity_poly(i).evaluate(first_values) for i in range(1, pmax + 1)}

    tables = build_elimination_tables()
    s6_second = _vieta_partner(evalues, s[6])
    dual12: list[Fraction] = [Fraction(0)]  # S_1
    for p in range(2, 13):
        if p == 6:
            dual12.append(s6_second)
        elif p <= 5:
            dual12.append(tables.low[p].evaluate(evalues))
        else:
            dual12.append(tables.high[p].evaluate({**evalues, svar(6): s6_second}))
    dual_extended = newton_extend(dual12, N_ELEMENTS, pmax)
    dual_values = {svar(p): dual_extended[p - 1] for p in range(1, pmax + 1)}

    residuals: list[Fraction] = []
    for index in residual_equation_indices(pmax):
        residuals.append(evalues[evar(index)] - identity_poly(index).evaluate(dual_values))
    return residuals


def _require_zero_s1(s: PowerSumVector, upto: int) -> None:
    if s.upto < upto:
        raise BadRangeError(f"power sums up to S_{upto} required, got S_{s.upto}")
    if s[1] != 0:
        raise ValueError("power sums must be shifted so S_1 = 0")
