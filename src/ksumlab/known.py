"""Reference multisets used by tests and the CLI demo paths."""

from __future__ import annotations

from .multisets import NumberMultiset, parse_multiset

# The pair of distinct 12-element integer multisets with identical 4-sum
# multisets (495 sums each).  Both are negation-symmetric and appear here
# shifted so S_1 = 0.
COLLISION_FIRST: NumberMultiset = parse_multiset("0 0 1 -1 2 -2 4 -4 7 -7 7 -7")
COLLISION_SECOND: NumberMultiset = parse_multiset("1 -1 2 -2 3 -3 4 -4 5 -5 8 -8")

# Demo set whose 4-sum data admits a quadratic with two positive roots for
# S_6: the true root 2 and a spurious 377762/44361 ruled out downstream.
DOUBLE_ROOT_SET: NumberMultiset = parse_multiset("-1 0^10 1")
