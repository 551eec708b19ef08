"""Symmetric-function machinery over exact rationals.

Two layers, each checked against direct evaluation:

* reduction of S_m for m > n to a polynomial in S_1..S_n, valid for every
  n-element multiset, in closed form up to S_{2n+2} and by Newton's
  identities above it, through the elementary symmetric functions
  vanishing beyond degree n;
* the expansion of E_p, the p-th power sum of the k-sum multiset, as a
  polynomial identity in S_1..S_p, by Newton's identities for the
  shifted exponentials e^{t x_i} - 1.

The closed form.  For n elements, E_n(t) = sum_j (-1)^j e_j t^j is the
product of the 1 - x_i t, so -log E_n(t) = sum_m S_m t^m / m.  Write
P(t) = sum_{p<=n} S_p t^p / p.  Then exp(-P) agrees with E_n up to t^n,
its e_j being polynomials in S_1..S_j alone, so E_n = exp(-P) - R with R
of order n + 1, and

    sum_{m>n} S_m t^m / m = -log(E_n(t) exp(P(t))) = -log(1 - G),
    G = R exp(P) = G_{n+1} t^{n+1} + G_{n+2} t^{n+2} + ...

Expanding exp(-P) and exp(P) over partitions, with z_lambda =
prod_i i^(m_i) m_i! for a partition lambda with m_i parts equal to i,
and grouping the pairs (alpha, lambda - alpha) of a sub-multiset alpha
whose parts sum above n, gives G_w = -B_w, where

    B_w = sum_lambda b(lambda) S^lambda / z_lambda,
    b(lambda) = sum_{d<=n} [u^d] prod_i (1 - u^i)^(m_i),

over the partitions lambda of w into parts <= n: the sum over every
alpha is prod_i (1 - 1)^(m_i) = 0, so the part above n is minus the part
b(lambda) up to n.  As G^2 starts at t^(2n+2) and G^3 at t^(3n+3),
-log(1 - G) = G + G^2 / 2 + ... gives S_m = -m B_m for m <= 2n + 1 and
S_{2n+2} = (n + 1)(B_{n+1}^2 - 2 B_{2n+2}).  The partitions are built
weight by weight, each from one of lower weight by appending a part no
larger than its smallest, carrying its key, z_lambda and its product
prod_i (1 - u^i)^(m_i) / (1 - u) mod u^(n+1), whose coefficient of u^n is
b(lambda).

All symbolic results are memoized; they are pure values and safe to share.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial
from typing import Iterable

from .algebra import _SHIFTS, _UNITS, Poly, svar
from .multisets import NumberMultiset, PowerSumVector, ksums

# e_expansion is refused before any work when its cost, _term_bound(p, k)
# times min(k, p)**2, exceeds this.  The cost depends on neither n nor the
# S_1 = 0 flag and ranks the cold build time of _onto_sums' recurrence.
# Cold and in-process, no admitted request takes more than about 0.35 s
# (Python 3.11, 2 vCPUs; the slowest is p = 53 at k = 5).
# p <= 26 at k = 4, the (12, 4) identities, costs at most 3296, while
# p = 30 at k = 15, cost 1146600, is refused (unguarded, it takes over 2 s).
MAX_EXPANSION_COST = 120_000


class BadRangeError(ValueError):
    """An index argument outside its documented range."""


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
    On Polys each alternating sum is one ``Poly.dot`` call; on ints and
    Fractions it is a running total.
    On ints each division by j must be exact, or ArithmeticError is raised.
    It is when the S_p are power sums of integers, and when each S_p is a
    multiple of L**p for an L divisible by every prime up to n: e_j is then
    L**j times an integer polynomial in the S_p / L**p over j!, and j! has
    fewer than j factors of any prime.
    """

    def alternating(a: list, b: list, top: int, count: int):
        if isinstance(a[1], Poly):
            return Poly.dot(((-1) ** (i - 1), a[i], b[top - i]) for i in range(1, count + 1))
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


Run = tuple[list[int], list[int], list[int]]  # keys, z_lambda and packed products; see _levels


def _appended(runs: Iterable[Run], unit: int, factor: int, step: int, mask: int) -> Run:
    """The partitions of ``runs`` with one more part i, in one run: ``unit`` is
    the key of S_i, ``factor`` what z_lambda gains, and ``step`` the shift
    by i fields that multiplies the product by u^i."""
    keys: list[int] = []
    zs: list[int] = []
    products: list[int] = []
    for run_keys, run_zs, run_products in runs:
        keys += [key + unit for key in run_keys]
        zs += [z * factor for z in run_zs]
        products += [(q - (q << step)) & mask for q in run_products]
    return keys, zs, products


@lru_cache(maxsize=1)
def _levels(w: int, n: int) -> tuple[list[list[Run]], ...]:
    """The partitions of w, w - 1, ..., w - n + 1 into parts <= n, as far as
    the levels above w still extend them.

    ``_levels(w, n)[j]`` is level w - j, a list by smallest part s (n + 1
    for the empty partition) of runs by the count c of parts s, each run
    three lists over its partitions lambda: the key of S^lambda shifted
    down to S_n's field; z_lambda; and the product of the (1 - u^i)^(m_i)
    times 1 + u + ... + u^n, mod u^(n+1), packed as an int whose field d
    holds the coefficient of u^d, all mod 2^((n+1)(2n+4)).  Field n is then
    b(lambda).  A field is 2n + 4 bits wide, as no coefficient of a
    partition of weight up to 2n + 2 exceeds 2^(2n+2) in size.

    Level w is made from the levels w - i by appending a part i no larger
    than their smallest, which multiplies z_lambda by i times the new count
    of parts i.  Level w - j keeps only its partitions with smallest part
    above j, the ones a later level extends, so the window holds about as
    many partitions as level w + 1.
    """
    width = 2 * n + 4
    if w == 0:
        level: list[list[Run]] = [[] for _ in range(n + 2)]
        level[n + 1] = [([0], [1], [sum(1 << d * width for d in range(n + 1))])]
        return (level,)
    below = _levels(w - 1, n)
    mask, shift = (1 << (n + 1) * width) - 1, _SHIFTS[n - 1]
    level = [[] for _ in range(n + 2)]
    for i in range(1, min(w, n) + 1):
        source, unit, step = below[i - 1], _UNITS[i - 1] >> shift, i * width
        larger = [run for group in source[i + 1:] for run in group]
        level[i] = [_appended(larger, unit, i, step, mask)]
        level[i] += [_appended([run], unit, i * c, step, mask) for c, run in enumerate(source[i], 2)]
    trimmed = [source[:j] + [[]] + source[j + 1:] for j, source in enumerate(below[:n - 1], 1)]
    return (level, *trimmed)


def _scaled_b(w: int, n: int, scale: int) -> Poly:
    """scale * B_w, the sum of b(lambda) S^lambda / z_lambda over the partitions
    lambda of w into parts <= n (see the module docstring)."""
    width = 2 * n + 4
    mask, shift, half = (1 << (n + 1) * width) - 1, _SHIFTS[n - 1], 1 << width - 1
    # half added to every field makes each coefficient nonnegative, so field n then reads b + half
    offset = half * sum(1 << d * width for d in range(n + 1))
    den = factorial(w)
    num = {}
    for group in _levels(w, n)[0]:
        for keys, zs, products in group:
            for key, z, q in zip(keys, zs, products):
                b = (((q + offset) & mask) >> n * width) - half
                if b:
                    num[key << shift] = scale * b * (den // z)
    return Poly._make(num, den)


@lru_cache(maxsize=None)
def macmahon_reduce(m: int, n: int) -> Poly:
    """S_m for m > n as a polynomial in S_1..S_n, an identity for n elements.

    Up to S_{2n+2} it is the closed form of the module docstring; above,
    every element is a root of the degree-n polynomial with the elementary
    symmetric functions as coefficients, so S_m follows from the reductions
    below it by one step of the recurrence in ``_newton``.
    """
    if n < 1 or m <= n:
        raise BadRangeError(f"need m > n >= 1, got m={m}, n={n}")
    svar(n)  # the result is in S_1..S_n, so n must be a valid index (ValueError otherwise)
    if n + 1 < m <= 2 * n + 2:
        macmahon_reduce(m - 1, n)  # so that _levels, which keeps one window, is built in ascending order
    if m <= 2 * n + 1:
        return _scaled_b(m, n, -m)
    if m == 2 * n + 2:  # (n + 1) B_{n+1}^2 is S_{n+1}^2 / (n + 1)
        low = macmahon_reduce(n + 1, n)
        return Poly.dot([(1, low, low / (n + 1)), (1, _scaled_b(m, n, -2 * (n + 1)), Poly.const(1))])
    s = [None] + [Poly.variable(svar(p)) if p <= n else macmahon_reduce(p, n) for p in range(1, m)]
    _newton(s, [elementary_in_power_sums(j) for j in range(n + 1)], n, m)
    return s[m]


def _surjections(m: int, r: int) -> int:
    """r! S(m, r), the number of maps from m items onto r, by inclusion-exclusion."""
    return sum((-1) ** (r - i) * comb(r, i) * i**m for i in range(r + 1))


@lru_cache(maxsize=None)
def _onto_sums(p: int, j: int, set_s1_zero: bool) -> Poly:
    """p! [t^p] e_j(z_1, ..., z_n) with z_i = e^{t x_i} - 1, in S_1..S_p.

    The part of E_p that comes from j-subsets whose every index carries a
    positive power; it depends on neither n nor k.  Newton's identities
    j e_j = sum_r (-1)^(r-1) P_r e_{j-r} for the z_i, where t^m in
    P_r = sum_i z_i^r has the coefficient r! S(m, r) S_m / m!, give it
    coefficient by coefficient, from e_0 = 1.  It is zero for p < j, as
    are the terms with p - m < j - r; of those with r = j only m = p
    remains, the S_p term.  All the terms go to one ``Poly.dot`` call.
    """
    if p < j or (set_s1_zero and p == 1):
        return Poly.zero()
    one = Poly.const(1)
    terms = [((-1) ** (j - 1) * _surjections(p, j), Poly.variable(svar(p)), one)]
    for m in range(2 if set_s1_zero else 1, p):
        s_m = Poly.variable(svar(m))
        for r in range(max(1, j - p + m), min(j - 1, m) + 1):
            coeff = (-1) ** (r - 1) * comb(p, m) * _surjections(m, r)
            terms.append((coeff, _onto_sums(p - m, j - r, set_s1_zero), s_m))
    return Poly.dot(terms) / j


def _term_bound(p: int, k: int) -> int:
    """The partitions of p into at most k parts: a bound on the terms of E_p,
    each a product of at most k power sums.  Counted as their conjugates,
    the partitions of p into parts of at most k."""
    at_most = [1] + [0] * p  # at_most[m]: partitions of m into parts <= j
    for j in range(1, min(k, p) + 1):
        for m in range(j, p + 1):
            at_most[m] += at_most[m - j]
    return at_most[p]


@lru_cache(maxsize=None)
def e_expansion(p: int, k: int, n: int, set_s1_zero: bool) -> Poly:
    """E_p, the p-th power sum of the k-sum multiset, as a polynomial in S_1..S_p.

    E_p is p! [t^p] of the sum over k-subsets K of the product of the
    1 + z_i over K, with z_i = e^{t x_i} - 1.  Each j-subset whose z_i are
    all taken lies in C(n-j, k-j) of the K, so E_p is the sum over j of
    C(n-j, k-j) _onto_sums(p, j), and its S_p coefficient is the sum of
    (-1)^(j-1) (j-1)! S(p, j) C(n-j, k-j).  High indices S_m (m > n) are
    left as-is; macmahon_reduce rewrites them in S_1..S_n.
    """
    if p < 1:
        raise BadRangeError(f"power must be >= 1, got {p}")
    if not 1 <= k <= n:
        raise BadRangeError(f"need 1 <= k <= n, got k={k}, n={n}")
    svar(p)  # E_p holds S_p, so p must be a valid index (ValueError otherwise)
    top = min(k, p)
    terms = _term_bound(p, k)
    if terms * top**2 > MAX_EXPANSION_COST:
        raise BadRangeError(
            f"E{p} at k = {k} would cost {terms * top**2} (up to {terms} terms times {top}^2),"
            f" more than the {MAX_EXPANSION_COST} allowed; lower p or k"
        )
    return sum((comb(n - j, k - j) * _onto_sums(p, j, set_s1_zero) for j in range(1, top + 1)), Poly.zero())


def e_power_sums(a: NumberMultiset, k: int, pmax: int) -> PowerSumVector:
    """E_1..E_pmax computed directly from the k-sum multiset: the ground truth."""
    return ksums(a, k).power_sums(pmax)


def load_identity_fixtures(lines: Iterable[str]) -> dict[int, Poly]:
    """Parse fixture lines back into {p: polynomial}; '#' lines are comments,
    and each E_p may be defined once."""
    out: dict[int, Poly] = {}
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, _, body = line.partition("=")
        name = name.strip()
        if not name.startswith("E") or not name[1:].isdigit():
            raise ValueError(f"bad fixture line {line!r}")
        p = int(name[1:])
        if p in out:
            raise ValueError(f"E{p} is defined twice")
        out[p] = Poly.parse(body.strip())
    return out
