"""Number multisets, k-sum multiset generation, and affine canonical forms.

A multiset is stored as an ascending tuple of exact rationals, so multiset
equality is plain tuple equality and every derived quantity is exact.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, groupby, repeat
from math import comb, gcd, log10
from operator import itemgetter
from typing import Iterable, Sequence

from .algebra import RationalLike, over_common_denominator

NumberMultiset = tuple[Fraction, ...]

# ksums materialises every sum, so larger requests are refused before any
# work; symmetric (16, 8) needs 12870 sums, and C(22, 11) = 705432 sums take
# about 0.25 s and 35 MB.  A set literal may not hold more elements either.
MAX_SUMS = 1_000_000
# The interpreter's default limit on converting text to an int; the CLI lifts
# it to print exact results, so set literals keep to it here.
MAX_DIGITS = 4300


class BadKError(ValueError):
    """k is outside 1..n for the given multiset."""


def as_multiset(values: Iterable[RationalLike]) -> NumberMultiset:
    """Sorted tuple of exact rationals; the canonical multiset form."""
    return _from_runs((Fraction(v), len(list(run))) for v, run in groupby(values))


def _from_runs(runs: Iterable[tuple[Fraction, int]]) -> NumberMultiset:
    """The multiset of ``(value, multiplicity)`` runs, in any order: the runs
    are sorted, and each value is repeated as one shared object."""
    elements = tuple(chain.from_iterable(repeat(v, count) for v, count in sorted(runs, key=itemgetter(0))))
    if not elements:
        raise ValueError("a multiset needs at least one element")
    return elements


_ELEMENT = re.compile(r"^(-?\d+(?:/\d+)?)(?:\^(\d+))?$")


def parse_multiset(text: str) -> NumberMultiset:
    """Parse a set literal: integers or p/q, whitespace/comma separated.

    A token ``x^m`` repeats the element m times, e.g. ``0^10``; a literal of
    more than ``MAX_SUMS`` elements, or with a number of more than
    ``MAX_DIGITS`` digits, is refused before it is built.
    """
    runs: list[tuple[Fraction, int]] = []
    size = 0
    for token in re.split(r"[\s,]+", text.strip()):
        if not token:
            continue
        if len(token) > MAX_DIGITS and any(len(run) > MAX_DIGITS for run in re.findall(r"\d+", token)):
            raise ValueError(f"a number in the set literal has more than the {MAX_DIGITS} digits allowed")
        match = _ELEMENT.match(token)
        if match is None:
            raise ValueError(f"bad multiset element {token!r}")
        count = int(match.group(2)) if match.group(2) else 1
        if count < 1:
            raise ValueError(f"bad multiplicity in {token!r}")
        size += count
        if size > MAX_SUMS:
            raise ValueError(f"the set literal has more than the {MAX_SUMS} elements allowed")
        try:
            runs.append((Fraction(match.group(1)), count))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {token!r}") from None
    if not runs:
        raise ValueError("empty multiset literal")
    return _from_runs(runs)


def format_multiset(values: Iterable[RationalLike]) -> str:
    """Render a multiset in ascending order; repeats appear as ``x^m`` (m >= 2)."""
    elements = sorted(Fraction(v) for v in values)
    return format_runs((v, len(list(group))) for v, group in groupby(elements))


def format_runs(runs: Iterable[tuple[Fraction, int]]) -> str:
    """Render ascending ``(value, multiplicity)`` runs as ``format_multiset`` does."""
    return " ".join(str(v) if count == 1 else f"{v}^{count}" for v, count in runs)


@dataclass(frozen=True)
class SumMultiset:
    """The multiset of all k-element sums of a source multiset, held like a
    ``Poly``: ascending ``numerators`` over one positive ``denominator`` in
    lowest terms, so equal multisets have equal fields.  ``sums`` is the
    ``Fraction`` view."""

    numerators: tuple[int, ...]
    denominator: int
    source_n: int
    source_k: int

    @property
    def sums(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.denominator) for v in self.numerators)

    def runs(self) -> list[tuple[Fraction, int]]:
        """Ascending ``(sum, multiplicity)`` pairs, one ``Fraction`` per distinct sum."""
        return [(Fraction(v, self.denominator), len(list(group))) for v, group in groupby(self.numerators)]

    def power_sums(self, m: int) -> PowerSumVector:
        """Power sums 1..m of the sums, one power per distinct sum."""
        counts = Counter(self.numerators)
        return _power_sums(list(counts), self.denominator, m, list(counts.values()))


def comb_at_least(n: int, k: int) -> tuple[int, bool]:
    """C(n, k) and True, or, when 20 < k < n - 20, the lower bound C(n, 20) and False.

    C(10^6, 5 * 10^5) alone takes seconds to compute, while C(n, 20) past that
    point is at least C(42, 20) > 5 * 10^11, which passes every ceiling on a count.
    """
    j = min(k, n - k)
    return (comb(n, j), True) if j <= 20 else (comb(n, 20), False)


def approximate(x: int, exact: bool = True) -> str:
    """``x`` in decimal, or its power of ten once it has more than 30 digits or is
    only a lower bound, so that a message quoting a count stays short and true."""
    if exact and x < 10**30:
        return str(x)
    return f"{'' if exact else 'more than '}about 10^{int(x.bit_length() * log10(2))}"


def check_sum_count(n: int, k: int) -> None:
    """Refuse, before any work, a request for more than ``MAX_SUMS`` k-sums."""
    count, exact = comb_at_least(n, k)
    if count > MAX_SUMS:
        raise ValueError(
            f"{n} elements have {approximate(count, exact)} {k}-sums, more than the {MAX_SUMS} allowed;"
            " lower n or k"
        )


def ksums(a: Sequence[RationalLike], k: int, denominator: int | None = None) -> SumMultiset:
    """All C(n,k) sums over index-distinct k-subsets, kept with multiplicity.

    Given a positive ``denominator``, ``a`` holds the integer numerators of
    the elements over it, which skips putting them over a common one.
    """
    n = len(a)
    if not 1 <= k <= n:
        raise BadKError(f"k must be in 1..{n}, got {k}")
    check_sum_count(n, k)
    ints, den = over_common_denominator(a) if denominator is None else (a, denominator)
    sums = sorted(map(sum, combinations(ints, k)))
    g = gcd(den, *sums)
    if g != 1:
        sums, den = [v // g for v in sums], den // g
    return SumMultiset(tuple(sums), den, source_n=n, source_k=k)


def power_sum(a: NumberMultiset, p: int) -> Fraction:
    """Sum of p-th powers; p = 0 counts the elements."""
    if p < 0:
        raise ValueError(f"power must be >= 0, got {p}")
    return power_sum_vector(a, p)[p] if p else Fraction(len(a))


@dataclass(frozen=True)
class PowerSumVector:
    """Power sums of one multiset, 1-indexed: vector[p] is the p-th power sum."""

    values: tuple[Fraction, ...]

    def __getitem__(self, p: int) -> Fraction:
        if not 1 <= p <= len(self.values):
            raise IndexError(f"power sum index {p} outside 1..{len(self.values)}")
        return self.values[p - 1]

    @property
    def upto(self) -> int:
        return len(self.values)


def _power_sums(ints: Sequence[int], den: int, m: int, counts: Sequence[int] | None = None) -> PowerSumVector:
    """Power sums 1..m of the numbers ``ints[i] / den``, each taken ``counts[i]``
    times (once when no counts are given), by running powers."""
    if m < 1:
        raise ValueError(f"need at least one entry, got m={m}")
    values, powers = [], ints if counts is None else [c * x for c, x in zip(counts, ints)]
    for p in range(1, m + 1):
        values.append(Fraction(sum(powers), den**p))
        powers = [x * y for x, y in zip(powers, ints)]
    return PowerSumVector(tuple(values))


def power_sum_vector(a: NumberMultiset, m: int) -> PowerSumVector:
    return _power_sums(*over_common_denominator(a), m)


def affine_image(a: NumberMultiset, scale: RationalLike, shift: RationalLike) -> NumberMultiset:
    """The multiset {scale * x + shift}, formed on integer numerators: with
    ``a``, ``scale`` and ``shift`` over one denominator d, each image is an
    integer over d**2, and one ``Fraction`` is made per distinct image."""
    (*ints, t, c), den = over_common_denominator([*a, Fraction(scale), Fraction(shift)])
    images = sorted([t * x + c * den for x in ints])
    return _from_runs((Fraction(v, den * den), len(list(run))) for v, run in groupby(images))


def centred_numerators(values: Sequence[RationalLike]) -> tuple[list[int], int]:
    """Integer numerators of ``x - mean`` over one positive denominator."""
    ints, den = over_common_denominator(values)
    size, total = len(ints), sum(ints)
    return [size * x - total for x in ints], size * den


def centred_power_sums(values: Sequence[RationalLike], m: int) -> PowerSumVector:
    """Power sums 1..m of the multiset shifted so that its elements sum to zero."""
    return _power_sums(*centred_numerators(values), m)


def collision_class_key(*parts: Sequence[RationalLike]) -> tuple[tuple[int, ...], ...]:
    """Canonical form of multisets under one joint shift, positive scale
    and reflection, ignoring their order.  Pairs with equal keys are the
    same collision.

    The union is centred over the integers and divided by its gcd; the key
    is the lesser of the two reflections, a sorted tuple of sorted int
    tuples, one per part.
    """
    centred, _ = centred_numerators([x for part in parts for x in part])
    g = gcd(*centred) or 1  # all zeros when every element is equal
    rest = iter(centred)
    pieces = [[next(rest) // g for _ in part] for part in parts]
    return min(
        tuple(sorted(tuple(sorted(sign * v for v in piece)) for piece in pieces))
        for sign in (1, -1)
    )

