"""Symmetric-function machinery over exact rationals.

Three layers, each checked against the one below by direct evaluation:

* monomial power sums ``S_{p1,...,pj}`` (sums over ordered tuples of
  distinct indices) and their recursive rewriting into polynomials in the
  plain power sums S_1, S_2, ...;
* reduction of S_m for m > n to a polynomial in S_1..S_n, valid for every
  n-element multiset, derived from Newton's identities through the
  elementary symmetric functions vanishing beyond degree n;
* the expansion of E_p, the p-th power sum of the k-sum multiset, as a
  polynomial identity in S_1..S_p.

All symbolic results are memoized; they are pure values and safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, factorial
from typing import Iterable, Sequence

from .algebra import Poly, RationalLike, Var, over_common_denominator, svar
from .multisets import NumberMultiset, PowerSumVector, ksums

Composition = tuple[int, ...]

# e_expansion is refused before any work when _term_bound exceeds this.
# Cold, admitted requests take at most about 1.5 s (Python 3.11, 2 vCPUs;
# e.g. p = 53 at k = 5, p = 20 at k >= 16); p <= 26 at k = 4, the (12, 4)
# identities, has a bound of at most 2347 and takes under 0.02 s, while
# p = 30 at k = 15, bound 12766725, ran for more than 20 s.
MAX_EXPANSION_TERMS = 200_000


class TooManyPartsError(ValueError):
    """A monomial power sum with more parts than the multiset has elements."""


class BadRangeError(ValueError):
    """An index argument outside its documented range."""


def composition(parts: Iterable[int]) -> Composition:
    """Canonical composition: zero parts dropped, remainder sorted descending."""
    kept = sorted((p for p in parts if p != 0), reverse=True)
    if any(p < 0 for p in kept):
        raise ValueError(f"negative part in {tuple(parts)}")
    if not kept:
        raise ValueError("composition needs at least one positive part")
    return tuple(kept)


def monomial_power_sum_direct(a: NumberMultiset, parts: Iterable[int]) -> Fraction:
    """Sum over all ordered tuples of distinct indices of the prescribed powers.

    The brute-force ground truth that anchors the symbolic layer.  It runs
    over ints: the elements are scaled by the lcm of their denominators,
    so the sum carries that scale to the power ``sum(parts)``.
    """
    c = composition(parts)
    if len(c) > len(a):
        raise TooManyPartsError(f"{len(c)} parts but only {len(a)} elements")
    ints, scale = over_common_denominator(a)
    columns = [[x**exp for x in ints] for exp in c]
    total = 0
    for chosen in permutations(range(len(ints)), len(c)):
        term = 1
        for column, i in zip(columns, chosen):
            term *= column[i]
        total += term
    return Fraction(total, scale ** sum(c))


@lru_cache(maxsize=None)
def _reduce_monomial(c: Composition) -> Poly:
    if len(c) == 1:
        return Poly.variable(svar(c[0]))
    head, last = c[:-1], c[-1]
    result = _reduce_monomial(head) * Poly.variable(svar(last))
    for t in range(len(head)):
        merged = composition(head[:t] + (head[t] + last,) + head[t + 1:])
        result = result - _reduce_monomial(merged)
    return result


def reduce_monomial(parts: Iterable[int]) -> Poly:
    """Rewrite a monomial power sum as a polynomial in S_1, S_2, ...

    Repeatedly splits off the smallest part: the product with the matching
    plain power sum overcounts exactly by the sums where two indices
    coincide, one merged term per remaining part.
    """
    return _reduce_monomial(composition(parts))


def _exact_quotient(total, j: int):
    """total / j, where an int total must be a multiple of j."""
    if not isinstance(total, int):
        return total / j
    q, r = divmod(total, j)
    if r:
        raise ArithmeticError(f"{j} e_{j} = {total} is not a multiple of {j}")
    return q


def _newton(s: list, e: list, n: int, upto: int) -> None:
    """Newton's identities for n elements, on Poly, Fraction or int values alike.

    ``s[p]`` is S_p (``s[0]`` is never read) and ``e[j]`` is e_j, from e_0 = 1.
    Extends ``e`` in place to e_n by j e_j = S_1 e_{j-1} - S_2 e_{j-2} + ...,
    then ``s`` to S_upto by S_m = e_1 S_{m-1} - e_2 S_{m-2} + ... +- e_n S_{m-n}.
    On ints each division by j must be exact, or ArithmeticError is raised.
    It is when the S_p are power sums of integers, and when each S_p is a
    multiple of L**p for an L divisible by every prime up to n: e_j is then
    L**j times an integer polynomial in the S_p / L**p over j!, and j! has
    fewer than j factors of any prime.
    """

    def alternating(a: list, b: list, top: int, count: int):
        total = a[1] * b[top - 1]
        for i in range(2, count + 1):
            term = a[i] * b[top - i]
            total = total - term if i % 2 == 0 else total + term
        return total

    for j in range(len(e), n + 1):
        e.append(_exact_quotient(alternating(s, e, j, j), j))
    for m in range(len(s), upto + 1):
        s.append(alternating(e, s, m, n))


@lru_cache(maxsize=None)
def elementary_in_power_sums(j: int) -> Poly:
    """The j-th elementary symmetric function as a polynomial in S_1..S_j."""
    if j < 0:
        raise BadRangeError(f"elementary index must be >= 0, got {j}")
    e = [Poly.const(1)] + [elementary_in_power_sums(i) for i in range(1, j)]
    _newton([None] + [Poly.variable(svar(p)) for p in range(1, j + 1)], e, j, j)
    return e[j]


@lru_cache(maxsize=None)
def macmahon_reduce(m: int, n: int) -> Poly:
    """S_m for m > n as a polynomial in S_1..S_n, an identity for n elements.

    Every element is a root of the degree-n polynomial with the elementary
    symmetric functions as coefficients, so S_m follows from the reductions
    below it by one step of the recurrence in ``_newton``.
    """
    if n < 1 or m <= n:
        raise BadRangeError(f"need m > n >= 1, got m={m}, n={n}")
    s = [None] + [Poly.variable(svar(p)) if p <= n else macmahon_reduce(p, n) for p in range(1, m)]
    _newton(s, [elementary_in_power_sums(j) for j in range(n + 1)], n, m)
    return s[m]


def reduce_high_powers(poly: Poly, n: int) -> Poly:
    """Substitute every S_m with m > n by its reduction to S_1..S_n."""
    high = {
        var: macmahon_reduce(var.index, n)
        for var in poly.variables()
        if var.family == "S" and var.index > n
    }
    if not high:
        return poly
    return poly.substitute(high)


def newton_extend(powersums: Sequence[RationalLike], n: int, upto: int) -> list[Fraction]:
    """Extend numeric power sums S_1..S_n of an n-element multiset up to S_upto.

    Returns the list [S_1, ..., S_upto], by the recurrence that
    macmahon_reduce applies to polynomials.
    """
    if len(powersums) < n:
        raise BadRangeError(f"need S_1..S_{n}, got only {len(powersums)} entries")
    s = [Fraction(0)] + [Fraction(v) for v in powersums]  # s[p] = S_p
    _newton(s, [Fraction(1)], n, upto)
    return s[1:upto + 1]


def _partitions(total: int, max_parts: int, max_value: int) -> Iterable[Composition]:
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(total, max_value), 0, -1):
        for rest in _partitions(total - first, max_parts - 1, first):
            yield (first, *rest)


def _multinomial(total: int, parts: Composition) -> int:
    out = factorial(total)
    for p in parts:
        out //= factorial(p)
    return out


def _multiplicity_factorial(parts: Composition) -> int:
    counts: dict[int, int] = {}
    for p in parts:
        counts[p] = counts.get(p, 0) + 1
    result = 1
    for c in counts.values():
        result *= factorial(c)
    return result


def _term_bound(p: int, k: int) -> int:
    """A bound on the terms e_expansion(p, k, ...) rewrites, exact and cheap.

    Each partition of p into j <= k parts is rewritten by reduce_monomial
    into one term per distinct coarsening of its parts, which is at most
    the Bell number B_j (set partitions of the parts) and at most the
    number of partitions of p into at most j parts.  The bound sums the
    lesser of the two over the partitions.
    """
    top = min(k, p)
    exact = [[1] + [0] * top] + [[0] * (top + 1) for _ in range(p)]  # [m][j]: m in exactly j parts
    for m in range(1, p + 1):
        for j in range(1, min(m, top) + 1):
            exact[m][j] = exact[m - 1][j - 1] + exact[m - j][j]
    bell = [1]
    for j in range(1, top + 1):
        bell.append(sum(comb(j - 1, i) * bell[i] for i in range(j)))
    bound = at_most = 0
    for j in range(1, top + 1):
        at_most += exact[p][j]
        bound += exact[p][j] * min(bell[j], at_most)
    return bound


@lru_cache(maxsize=None)
def e_expansion(p: int, k: int, n: int, set_s1_zero: bool) -> Poly:
    """E_p, the p-th power sum of the k-sum multiset, as a polynomial in S_1..S_p.

    Expanding the p-th power of a k-term sum over all ordered index tuples
    groups by the partition of p carried by the nonzero exponents; a
    partition with j distinct index slots occurs alongside C(n-j, k-j)
    choices for the unused slots.  The monomial power sums are then rewritten
    via reduce_monomial.  High indices S_m (m > n) are left as-is; callers
    that need an identity in S_1..S_n apply reduce_high_powers.
    """
    if p < 1:
        raise BadRangeError(f"power must be >= 1, got {p}")
    if not 1 <= k <= n:
        raise BadRangeError(f"need 1 <= k <= n, got k={k}, n={n}")
    svar(p)  # E_p holds S_p, so p must be a valid index (ValueError otherwise)
    bound = _term_bound(p, k)
    if bound > MAX_EXPANSION_TERMS:
        raise BadRangeError(
            f"E{p} at k = {k} would rewrite up to {bound} terms, more than the"
            f" {MAX_EXPANSION_TERMS} allowed; lower p or k"
        )
    total = Poly.zero()
    for partition in _partitions(p, k, p):
        j = len(partition)
        coeff = Fraction(
            _multinomial(p, partition) * comb(n - j, k - j),
            _multiplicity_factorial(partition),
        )
        total = total + reduce_monomial(partition) * coeff
    if set_s1_zero:
        total = total.substitute({svar(1): Poly.zero()})
    return total


def e_power_sums(a: NumberMultiset, k: int, pmax: int) -> PowerSumVector:
    """E_1..E_pmax computed directly from the k-sum multiset: the ground truth."""
    return ksums(a, k).power_sums(pmax)


def load_identity_fixtures(lines: Iterable[str]) -> dict[int, Poly]:
    """Parse fixture lines back into {p: polynomial}; '#' lines are comments."""
    out: dict[int, Poly] = {}
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, _, body = line.partition("=")
        name = name.strip()
        if not name.startswith("E") or not name[1:].isdigit():
            raise ValueError(f"bad fixture line {line!r}")
        out[int(name[1:])] = Poly.parse(body.strip())
    return out
