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
evaluate the cached polynomials, each fixed set of them through one cached
``algebra.Batch``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm, prod
from typing import Iterable, Sequence

from .algebra import (
    MAX_INDEX,
    Batch,
    Monomial,
    Poly,
    Var,
    _over_scale,
    _weighted_integers,
    _weighted_scale,
    evaluate,
    evar,
    svar,
)
from .multisets import PowerSumVector
from .symfunc import BadRangeError, _newton, e_expansion

N_ELEMENTS = 12
K_SUM = 4
PMAX = 26  # the last identity the residual relations check


def _primes_below(bound: int) -> tuple[int, ...]:
    return tuple(q for q in range(2, bound) if all(q % r for r in range(2, q)))


# The primes up to N_ELEMENTS, which make Newton's divisions exact on ints.
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


@lru_cache(maxsize=None)
def _quadratic_batch(count: int) -> Batch:
    """The batch of the quadratic's first ``count`` coefficients, c2, c1, c0."""
    quad = fourteenth_quadratic()
    return Batch([quad.c2, quad.c1, quad.c0][:count])


def quadratic_at(evalues: PowerSumVector) -> tuple[Fraction, Fraction, Fraction]:
    """Coefficients (a, b, c) of a*x^2 + b*x + c = 0 for S_free at E-values
    E_1..E_index in a PowerSumVector; the constant term folds in -E_index."""
    index = fourteenth_quadratic().index
    if evalues.upto < index:
        raise BadRangeError(f"E{index} value required to form the quadratic")
    values = {evar(i): evalues[i] for i in range(1, evalues.upto + 1)}
    a, b, c = evaluate(_quadratic_batch(3), values)
    return a, b, c - evalues[index]


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


def _point(e: Sequence[int]) -> list[int]:
    """Values by slot: ``e[i - 1]`` for E_i, and 0 for every S_i."""
    return [*[0] * MAX_INDEX, *e]


def _vieta_partner(e: Sequence[int], scale: int, s_free: Fraction) -> Fraction:
    """The other root -c1/c2 - S_free of the quadratic at E_i = e[i - 1] / scale**i."""
    c2, c1 = _over_scale(_quadratic_batch(2), _point(e), scale)
    if c2 == 0:
        raise ZeroDivisionError("second root undefined when S_2 = 0")
    return -c1 / c2 - s_free


def _weighted_power_sums(values: Sequence[Fraction], scale: int, upto: int) -> list[int]:
    """The integers S_p * scale**p for p = 1..upto, at position p - 1.

    ``values`` holds S_1, S_2, ..., with each denominator dividing
    ``scale**p``; beyond its end, S_p follows from S_1..S_n by Newton's
    identities for n = N_ELEMENTS elements, run on these integers, which
    are power sums of weight p.  Each of Newton's divisions must be exact,
    or ``ArithmeticError`` is raised.  They are when ``scale`` is a multiple
    of every prime up to n: j! e_j is an integer polynomial in the
    S_p scale**p, and j! has fewer than j factors of each prime.
    """
    values = values[:upto]
    ints = [0, *(v.numerator * (scale**w // v.denominator) for w, v in enumerate(values, 1))]
    if upto > len(values):
        _newton(ints, [1], N_ELEMENTS, upto)
    return ints[1:]


@lru_cache(maxsize=None)
def _identity_batch(indices: tuple[int, ...]) -> Batch:
    """The batch of the identities E_i for i in ``indices``."""
    return Batch(identity_poly(i) for i in indices)


def _evalue_ints(values: Sequence[Fraction], scale: int, indices: tuple[int, ...]) -> list[int]:
    """E_i * scale**i at position i - 1 for each i of ``indices``, 0 elsewhere,
    from the power sums S_1, S_2, ... (``values``) as in ``_weighted_power_sums``.

    Each is an integer once e_j * scale**j is one for every j, as it is when
    Newton's divisions are exact: the elements times the scale are then
    algebraic integers, and so are their k-sums and the k-sums' power sums.
    Otherwise ``ArithmeticError`` is raised.
    """
    ints = _weighted_power_sums(values, scale, max(indices))
    e = [0] * max(indices)
    for i, v in zip(indices, _weighted_integers(_identity_batch(indices), ints, scale)):
        e[i - 1] = v
    return e


def _scaled_evalues(values: Sequence[Fraction], indices: tuple[int, ...]) -> tuple[list[int], int]:
    """``_evalue_ints`` at the scale D of these power sums, and D.

    D is the scale W that ``algebra._weighted_scale`` picks for ``values``
    when Newton's divisions are exact there, as they are when the elements
    times W are integers, and otherwise W times every prime up to n, which
    makes them exact.  The smaller D keeps the integers short: the primes
    up to 12 add log2(2310), about 11.2 bits, per weight, so on 200 seeded
    sets of integers in [-9, 9] E_26 D**26 has 110 to 228 bits at W, where
    D is 1 to 12, against 400 to 518 with the primes.
    """
    scale = _weighted_scale((w, v.denominator) for w, v in enumerate(values, 1))
    try:
        return _evalue_ints(values, scale, indices), scale
    except ArithmeticError:  # the elements times W are not all algebraic integers
        scale *= _NEWTON_PRIMES
        return _evalue_ints(values, scale, indices), scale


def second_root(s: PowerSumVector) -> Fraction:
    """The other root of the quadratic in S_free, from the power sums of one
    realizing multiset (S_1 = 0, S_2 nonzero): by Vieta, at the values the
    identities give for the E-variables of c1 and c2 (E2..E5 and E8)."""
    quad = fourteenth_quadratic()
    free = build_elimination_tables().free
    indices = tuple(sorted({v.index for v in quad.c1.variables() | quad.c2.variables()}))
    _require_zero_s1(s, upto=max(free, *indices))
    e, scale = _scaled_evalues(s.values[:max(indices)], indices)
    return _vieta_partner(e, scale, s[free])


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


@lru_cache(maxsize=None)
def _tables_batch() -> Batch:
    """The batch of the tables' S_1..S_n, in S_free and the E-variables."""
    return Batch(build_elimination_tables().power_sums)


def residual_relations(s: PowerSumVector) -> list[Fraction]:
    """Exact residuals of the compatibility equations at the second root.

    From the candidate's power sums S_1 = 0, S_2..S_n, the E-values are
    fixed by the identities; the second root and the elimination tables
    then reconstruct the would-be partner's power sums, and each equation of
    ``residual_equation_indices()`` is evaluated against both.  All are
    zero exactly when a consistent second solution exists at this level.

    Both members run on weight-scaled integers.  E_p, e_p, S_p and every
    table entry for S_p have weight p, so with the set's scale D from
    ``_scaled_evalues``, the integers P_p = S_p D^p go through Newton's
    identities up to P_PMAX and through each identity polynomial, which
    gives the integers E_p D^p.  These give c2 and c1, and so the second
    root S6'' by Vieta.  Times mu^p, with mu the scale rule's pick for the
    part of the denominator of S6'' that D^6 leaves, they are the E-values
    over the scale D mu at which the tables give the partner's S_1..S_n.
    The partner's side runs the same way at its own scale Q, and each
    residual is one ``Fraction`` over L^p, for L the lcm of D and Q.
    """
    _require_zero_s1(s, upto=N_ELEMENTS)
    e, scale = _scaled_evalues(s.values[:N_ELEMENTS], tuple(range(1, PMAX + 1)))
    free = build_elimination_tables().free
    partner = _vieta_partner(e, scale, s[free])
    den = partner.denominator
    mu = _weighted_scale([(free, den // gcd(den, scale**free))])  # the part of den that D**6 leaves
    at_second = _point([v * mu**p for p, v in enumerate(e, 1)])
    at_second[free - 1] = partner.numerator * (scale * mu) ** free // den
    dual = _over_scale(_tables_batch(), at_second, scale * mu)
    indices = residual_equation_indices()
    dual_e, dual_scale = _scaled_evalues(dual, indices)
    common = lcm(scale, dual_scale)
    up, dual_up = common // scale, common // dual_scale
    return [Fraction(e[p - 1] * up**p - dual_e[p - 1] * dual_up**p, common**p) for p in indices]


def _require_zero_s1(s: PowerSumVector, upto: int) -> None:
    if s.upto < upto:
        raise BadRangeError(f"power sums up to S_{upto} required, got S_{s.upto}")
    if s[1] != 0:
        raise ValueError("power sums must be shifted so S_1 = 0")
