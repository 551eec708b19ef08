"""Reference answers for the benchmark's output checks.

Nothing here imports ksumlab: every oracle is plain integer or Fraction
arithmetic over data kept in this directory, so a defect in the package
cannot make its own check pass.
"""

from __future__ import annotations

import re
from collections import defaultdict
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import gcd, lcm
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

# Coefficients of the S_6 quadratic for (n, k) = (12, 4), computed with a
# computer algebra system; the same values the package states as
# REFERENCE_C2 / REFERENCE_C1.
REFERENCE_C2 = "73458/5465*E2"
REFERENCE_C1 = (
    "22556178701/5315943600*E3*E5 - 889/12*E8 - 15211/13392*E4^2"
    " + 4783550233/119441640960*E2^2*E4 - 9881683541849/418343497545600*E2*E3^2"
    " - 72629302403/477766563840000*E2^4"
)

# The verified 12-element collision pair and the double-root demo set.
KNOWN_FIRST = (0, 0, 1, -1, 2, -2, 4, -4, 7, -7, 7, -7)
KNOWN_SECOND = (1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 8, -8)
DEMO_SET = (-1,) + (0,) * 10 + (1,)
KNOWN_ROOTS = (Fraction(478918), Fraction(565318))
DEMO_ROOTS = (Fraction(2), Fraction(377762, 44361))

# The one record `search -n 12 -k 4 -B 8 --symmetric` prints (README).
SYMMETRIC_B8_OUTPUT = (
    '{"first": [-8, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 8], '
    '"second": [-7, -7, -4, -2, -1, 0, 0, 1, 2, 4, 7, 7], "k": 4}\n'
)


def fixture_lines() -> list[str]:
    """The E_1..E_14 identity lines of the frozen fixture copy."""
    text = (DATA / "identities_k4_n12.txt").read_text(encoding="utf-8")
    return [line.strip() for line in text.splitlines() if line.startswith("E")]


_FACTOR = re.compile(r"^([SE])(\d+)(?:\^(\d+))?$")


def parse_poly(text: str) -> dict[tuple[tuple[str, int], ...], Fraction]:
    """Term map of a rendered polynomial: {((var, exp), ...): coefficient}."""
    terms: dict[tuple[tuple[str, int], ...], Fraction] = defaultdict(Fraction)
    sign = 1
    for token in text.split():
        if token in "+-":
            sign = -1 if token == "-" else 1
            continue
        negative = token.startswith("-")
        coeff = Fraction(-sign if negative else sign)
        exps: dict[str, int] = defaultdict(int)
        for factor in token.lstrip("-").split("*"):
            match = _FACTOR.match(factor)
            if match:
                exps[match.group(1) + match.group(2)] += int(match.group(3) or 1)
            else:
                coeff *= Fraction(factor)
        terms[tuple(sorted(exps.items()))] += coeff
        sign = 1
    return {mono: c for mono, c in terms.items() if c}


def evaluate(terms: dict, values: dict[str, Fraction]) -> Fraction:
    total = Fraction(0)
    for mono, coeff in terms.items():
        for var, exp in mono:
            coeff *= values[var] ** exp
        total += coeff
    return total


def power_sums(values, upto: int) -> dict[str, Fraction]:
    """{"S1": ..., "S<upto>": ...} by direct summation."""
    return {f"S{p}": sum((Fraction(x) ** p for x in values), Fraction(0)) for p in range(1, upto + 1)}


def centred_s6(values) -> Fraction:
    mean = Fraction(sum(values), len(values))
    return sum((Fraction(x) - mean) ** 6 for x in values)


def _integral_zero_sum(values, scale: int) -> tuple[int, ...]:
    """The set shifted to element sum zero, times n * scale, as integers;
    scale must clear every denominator."""
    ints = [int(Fraction(v) * scale) for v in values]
    total = sum(ints)
    return tuple(len(ints) * x - total for x in ints)


def _common_denominator(values) -> int:
    return lcm(*(Fraction(v).denominator for v in values))


def set_class(values) -> tuple[int, ...]:
    """Canonical form of one set under shift, positive scale and reflection."""
    ints = _integral_zero_sum(values, _common_denominator(values))
    g = gcd(*ints) or 1
    return min(tuple(sorted(s * x // g for x in ints)) for s in (1, -1))


def pair_class(first, second) -> tuple:
    """Canonical form of an unordered collision pair under joint shift,
    positive scale and reflection."""
    scale = _common_denominator([*first, *second])
    a, b = _integral_zero_sum(first, scale), _integral_zero_sum(second, scale)
    g = gcd(*a, *b) or 1
    a, b = [x // g for x in a], [x // g for x in b]
    return min(
        tuple(sorted((tuple(sorted(s * x for x in a)), tuple(sorted(s * x for x in b)))))
        for s in (1, -1)
    )


def collision_classes(n: int, k: int, bound: int, symmetric: bool) -> tuple[set[tuple], int]:
    """Every collision class in the bounded space, by brute force over
    integer-scaled sorted k-sum tuples, and the number of candidates."""
    candidates: set[tuple[int, ...]] = set()
    for values in combinations_with_replacement(range(bound + 1), n // 2 if symmetric else n):
        if symmetric:
            candidates.add(tuple(sorted(values + tuple(-v for v in values))))
        else:
            total = sum(values)
            candidates.add(tuple(n * v - total for v in values))
    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = defaultdict(list)
    for cand in sorted(candidates):
        groups[tuple(sorted(map(sum, combinations(cand, k))))].append(cand)
    classes = {
        pair_class(a, b)
        for members in groups.values()
        for a, b in combinations(members, 2)
    }
    return classes, len(candidates)
