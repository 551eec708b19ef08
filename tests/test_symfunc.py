"""Symmetric-function machinery: Newton's identities, reductions, E_p."""

import hashlib
import random
import time
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from identity_tables import shipped_identities
from ksumlab.algebra import Poly, svar
from ksumlab.known import COLLISION_FIRST, COLLISION_SECOND, DOUBLE_ROOT_SET
from ksumlab.multisets import as_multiset, power_sum
from ksumlab.symfunc import (
    MAX_EXPANSION_COST,
    _newton,
    _onto_sums,
    _term_bound,
    BadRangeError,
    e_expansion,
    e_power_sums,
    elementary_in_power_sums,
    load_identity_fixtures,
    macmahon_reduce,
    newton_extend,
)


def svalues(a, upto):
    return {svar(p): power_sum(a, p) for p in range(1, upto + 1)}


def onto_sums_direct(a, p, j):
    """p! [t^p] e_j(e^{t x_1} - 1, ...) by inclusion-exclusion over the
    j-subsets J and their subsets T: sum of (-1)^(j - |T|) (sum_T x)^p."""
    total = 0
    for chosen in combinations(a, j):
        for size in range(j + 1):
            for sub in combinations(chosen, size):
                total += (-1) ** (j - size) * sum(sub) ** p
    return total


def test_partitions_max_parts():
    # the test-local generator behind the term-bound formula below
    assert list(_partitions(4, 2, 4)) == [(4,), (3, 1), (2, 2)]
    assert list(_partitions(3, 3, 3)) == [(3,), (2, 1), (1, 1, 1)]


def test_direct_single_part_is_power_sum():
    a = as_multiset([2, -3, 5, 5])
    for p in range(1, 7):
        assert onto_sums_direct(a, p, 1) == power_sum(a, p)
        assert _onto_sums(p, 1, False) == Poly.variable(svar(p))
        assert _onto_sums(p, 1, True) == (Poly.variable(svar(p)) if p > 1 else Poly.zero())


def test_direct_hand_enumerations():
    # J = {1, 2}: (1 + 2)^2 - 1^2 - 2^2 = 4
    assert onto_sums_direct([1, 2], 2, 2) == 4
    assert _onto_sums(2, 2, False).evaluate(svalues(as_multiset([1, 2]), 2)) == 4
    # 3 times the ordered pairs of distinct indices over {1,2,3} with powers (2,1):
    # 1*2 + 1*3 + 4*1 + 4*3 + 9*1 + 9*2 = 48
    assert onto_sums_direct([1, 2, 3], 3, 2) == 3 * 48
    assert _onto_sums(3, 2, False).evaluate(svalues(as_multiset([1, 2, 3]), 3)) == 3 * 48


def test_direct_too_many_parts():
    # a set of fewer than j elements has no j-subset, and the polynomial,
    # the same for every n, vanishes on its power sums
    a = as_multiset([2, -3])
    for p in range(1, 8):
        assert onto_sums_direct(a, p, 3) == 0
        assert _onto_sums(p, 3, False).evaluate(svalues(a, p)) == 0


def test_onto_sums_base_cases():
    assert _onto_sums(2, 2, False) == Poly.parse("S1^2 - S2")
    assert _onto_sums(3, 2, False) == Poly.parse("3*S1*S2 - 3*S3")
    assert _onto_sums(3, 3, False) == Poly.parse("S1^3 - 3*S1*S2 + 2*S3")
    assert _onto_sums(4, 2, True) == Poly.parse("3*S2^2 - 7*S4")  # 3 S4 from powers (2, 2), 4 S4 from (3, 1)
    assert _onto_sums(2, 3, False) == Poly.zero()  # fewer powers than indices


small_sets = st.lists(
    st.integers(-6, 6).map(Fraction), min_size=1, max_size=6
).map(as_multiset)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_onto_sums_matches_direct(data):
    a = data.draw(small_sets)
    set_s1_zero = data.draw(st.booleans())
    if set_s1_zero:
        mean = sum(a) / len(a)
        a = [x - mean for x in a]
    j = data.draw(st.integers(1, min(3, len(a))))
    p = data.draw(st.integers(1, 8))
    value = _onto_sums(p, j, set_s1_zero).evaluate({svar(q): sum(x**q for x in a) for q in range(1, p + 1)})
    assert value == onto_sums_direct(a, p, j)


def test_macmahon_base_cases():
    assert macmahon_reduce(2, 1) == Poly.parse("S1^2")
    assert macmahon_reduce(3, 2) == Poly.parse("3/2*S1*S2 - 1/2*S1^3")


def test_macmahon_bad_range():
    with pytest.raises(BadRangeError):
        macmahon_reduce(3, 3)
    with pytest.raises(BadRangeError):
        macmahon_reduce(2, 5)


def test_macmahon_evaluation_oracle():
    rng = random.Random(7121)
    for n in (2, 3, 6, 12):
        for _ in range(3):
            a = as_multiset(Fraction(rng.randint(-9, 9)) for _ in range(n))
            env = svalues(a, n)
            for m in range(n + 1, n + 7):
                assert macmahon_reduce(m, n).evaluate(env) == power_sum(a, m)


def test_newton_extend_matches_direct():
    rng = random.Random(400)
    for n in (2, 4, 5):
        a = as_multiset(Fraction(rng.randint(-8, 8)) for _ in range(n))
        got = newton_extend([power_sum(a, p) for p in range(1, n + 1)], n, n + 8)
        assert got == [power_sum(a, p) for p in range(1, n + 9)]


def test_newton_extend_stays_exact_on_int_input():
    # e_j = (...) / j must never become an int / int float division
    got = newton_extend([1, 2, 3, 4], 4, 10)
    assert all(type(v) is Fraction for v in got)
    assert got == [1, 2, 3, 4] + [
        Fraction(139, 24), Fraction(197, 24), Fraction(559, 48),
        Fraction(2383, 144), Fraction(13535, 576), Fraction(9611, 288),
    ]


def test_newton_on_ints_divides_exactly_or_raises():
    # S_1 = 1, S_2 = 0 gives 2 e_2 = 1, which no int e_2 satisfies
    with pytest.raises(ArithmeticError, match="not a multiple of 2"):
        _newton([0, 1, 0], [1], 2, 2)
    # the same power sums over the scale 2 (P_p = S_p * 2**p) divide exactly
    s, e = [0, 2, 0], [1]
    _newton(s, e, 2, 5)
    assert e == [1, 2, 2] and all(type(v) is int for v in s + e)
    expected = newton_extend([1, 0], 2, 5)
    assert [Fraction(v, 2**p) for p, v in enumerate(s[1:], 1)] == expected
    assert all(type(v) is Fraction for v in expected)


def test_newton_on_scaled_ints_matches_newton_extend():
    # with every prime up to n in the scale, the divisions are exact for
    # any rational power sums, not only those of a multiset
    rng = random.Random(1729)
    n, scale = 6, 2 * 3 * 5
    for _ in range(20):
        values = [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(n)]
        den = prod(v.denominator for v in values)
        ints = [0] + [int(v * (scale * den) ** p) for p, v in enumerate(values, 1)]
        _newton(ints, [1], n, 14)
        got = [Fraction(v, (scale * den) ** p) for p, v in enumerate(ints[1:], 1)]
        assert got == newton_extend(values, n, 14)


def test_elementary_matches_combination_products():
    rng = random.Random(8128)
    for j in range(9):
        for size in (j, j + 3):
            a = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(size)]
            env = {svar(p): sum(x**p for x in a) for p in range(1, j + 1)}
            direct = sum(prod(c, start=Fraction(1)) for c in combinations(a, j))
            assert elementary_in_power_sums(j).evaluate(env) == direct, (j, a)
    with pytest.raises(BadRangeError):
        elementary_in_power_sums(-1)


def test_e_expansion_displayed_examples():
    assert e_expansion(2, 4, 12, True) == Poly.parse("120*S2")
    assert e_expansion(2, 4, 12, False) == Poly.parse("120*S2 + 45*S1^2")
    e6 = e_expansion(6, 4, 12, True)
    assert e6.coefficient({svar(6): 1}) == 0
    assert e6 == Poly.parse("40*S3^2 - 120*S2*S4 + 90*S2^3")
    e14 = e_expansion(14, 4, 12, True)
    assert len(e14.terms) == 26
    assert e14.coefficient({svar(14): 1}) == Fraction(-48517440)


def test_e_expansion_matches_brute_force_k_sums():
    # every k <= n <= 8 and p <= 10, against sums over itertools.combinations;
    # the centred copy of each set has S_1 = 0 for set_s1_zero
    rng = random.Random(4548)
    for n in range(1, 9):
        raw = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        centred = [x - sum(raw) / n for x in raw]
        for set_s1_zero, a in ((False, raw), (True, centred)):
            env = {svar(p): sum(x**p for x in a) for p in range(1, 11)}
            for k in range(1, n + 1):
                sums = [sum(c) for c in combinations(a, k)]
                for p in range(1, 11):
                    direct = sum(s**p for s in sums)
                    assert e_expansion(p, k, n, set_s1_zero).evaluate(env) == direct, (a, k, p)


def stirling_triangle(top):
    """Stirling numbers of the second kind: row m holds S(m, 0..top)."""
    rows = [[1] + [0] * top]
    for m in range(1, top + 1):
        prev = rows[-1]
        rows.append([0] + [j * prev[j] + prev[j - 1] for j in range(1, top + 1)])
    return rows


def test_s_p_coefficient_has_the_closed_form():
    # c(p; n, k) = sum_j (-1)^(j-1) (j-1)! S(p, j) C(n-j, k-j); the paper's
    # refutation is its zero at (n, k, p) = (12, 4, 6)
    stirling = stirling_triangle(10)
    zeros, count = set(), 0
    for n in range(1, 31):
        for k in range(1, min(6, n) + 1):
            for p in range(2, 11):  # E_1 has no S_1 term once S_1 = 0
                closed = sum((-1) ** (j - 1) * factorial(j - 1) * stirling[p][j] * comb(n - j, k - j)
                             for j in range(1, k + 1))
                assert e_expansion(p, k, n, True).coefficient({svar(p): 1}) == closed, (n, k, p)
                count += 1
                if closed == 0:
                    zeros.add((n, k, p))
    assert count >= 1000
    assert {(12, 4, 6), (27, 3, 5), (27, 3, 9), (8, 2, 4)} <= zeros


def test_e_expansion_full_table_regression():
    table = shipped_identities()
    assert sorted(table) == list(range(1, 15))
    for p, poly in table.items():
        assert e_expansion(p, 4, 12, True) == poly, f"identity {p}"


def test_e_expansion_bad_ranges():
    with pytest.raises(BadRangeError):
        e_expansion(0, 4, 12, True)
    with pytest.raises(BadRangeError):
        e_expansion(3, 13, 12, True)
    with pytest.raises(BadRangeError):
        e_expansion(3, 0, 12, True)


def test_e_expansion_refuses_costly_requests_before_any_work():
    start = time.perf_counter()
    with pytest.raises(BadRangeError, match=r"would cost 1146600 \(up to 5096 terms times 15\^2\)"):
        e_expansion(30, 15, 30, False)
    assert time.perf_counter() - start < 1
    assert max(_term_bound(p, 4) * min(p, 4) ** 2 for p in range(1, 27)) == 3296 <= MAX_EXPANSION_COST
    with pytest.raises(ValueError, match="variable index"):  # the index check comes first
        e_expansion(65, 64, 64, False)


def _partitions(total, max_parts, max_value):
    """Partitions of total into at most max_parts parts of at most max_value."""
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(total, max_value), 0, -1):
        for rest in _partitions(total - first, max_parts - 1, first):
            yield (first, *rest)


@pytest.mark.parametrize("p, k", [(1, 1), (6, 2), (8, 3), (10, 4), (12, 6), (9, 9), (14, 20)])
def test_term_bound_sums_a_bound_over_the_partitions(p, k):
    # Each partition of p into at most k parts bounds its own terms of E_p by one.
    assert _term_bound(p, k) == sum(1 for _ in _partitions(p, k, p))
    for flag in (False, True):
        assert len(e_expansion(p, k, k, flag)) <= _term_bound(p, k)


def test_term_bound_counts_the_partitions_into_at_most_k_parts():
    for p in range(1, 17):
        for k in [*range(1, 9), 20]:
            bound = _term_bound(p, k)
            assert bound == len(list(_partitions(p, k, p))), (p, k)
            for flag in (False, True):
                assert len(e_expansion(p, k, k + 2, flag)) <= bound, (p, k, flag)


def test_e_expansion_matches_oracle_on_random_set():
    rng = random.Random(12046)
    a = as_multiset(Fraction(rng.randint(-9, 9)) for _ in range(12))
    truth = e_power_sums(a, 4, 16)
    env = svalues(a, 16)
    for p in range(1, 17):
        assert e_expansion(p, 4, 12, False).evaluate(env) == truth[p], f"p={p}"


def test_e_power_sums_demo_values():
    truth = e_power_sums(DOUBLE_ROOT_SET, 4, 14)
    assert all(truth[p] == 0 for p in range(1, 15, 2))
    assert all(truth[p] == 240 for p in range(2, 15, 2))


def test_e_power_sums_collision_pair_agree():
    first = e_power_sums(COLLISION_FIRST, 4, 26)
    second = e_power_sums(COLLISION_SECOND, 4, 26)
    assert first == second


def test_e_power_sums_zero_set():
    assert e_power_sums(as_multiset([0] * 6), 4, 5).values == (0,) * 5


def test_fixture_lines_round_trip():
    lines = ["# comment", "", "E1 = 0", "E2 = 120*S2", "E3 = 48*S3", " E4 = -48*S4 + 84*S2^2 "]
    table = load_identity_fixtures(lines)
    assert sorted(table) == [1, 2, 3, 4]
    for p, poly in table.items():
        assert poly == e_expansion(p, 4, 12, True)
    with pytest.raises(ValueError):
        load_identity_fixtures(["F2 = 120*S2"])
    with pytest.raises(ValueError, match="E2 is defined twice"):
        load_identity_fixtures(["E2 = 120*S2", "# a later line would win", "E2 = 121*S2"])


# sha256 of the newline-joined renders, recorded from the Fraction-keyed
# kernel that the packed kernel replaced; any change in a coefficient, a
# term or the term order changes them.  The two digests at a second n
# (macmahon_reduce at n = 8, e_expansion at k = 3, n = 9) were recorded
# from the packed kernel's pairwise product loop, before Poly.dot
# replaced it.
RENDER_DIGESTS = {
    "e_expansion_s1_free": "4cc76741af333846e3c9ae477ad1ea32e2bf82b553d31a87d152f7edcab3cc58",
    "e_expansion_s1_zero": "abd217ef8c979c7e8648e6c749999f1ea9f63984cddd3ac0e90299d37f13858b",
    "macmahon_reduce": "63a4625a1fadaf49b118c1fedbf82c6added02f3e897cbdc0652634feef6eaf2",
    "macmahon_reduce_n8": "4aed1aeb5512de7bd178eb86d4025155f4b28221281a5a58003a5b03683dd99a",
    "e_expansion_k3_n9": "de5cf38e2986735b81c58fb6396c3535f81c263b4c014f720accd25bd8ec1178",
}
# The same digest of elementary_in_power_sums(j) for j = 0..12, recorded
# before the symbolic and numeric recurrences were merged into one.
ELEMENTARY_DIGEST = "4529e408e07ffd5f9f84fa91d09add8a9e5afc9f816c6ad67b70db460b5780fc"


def test_renders_match_pinned_digests():
    def digest(polys):
        return hashlib.sha256("\n".join(p.render() for p in polys).encode()).hexdigest()

    got = {
        "e_expansion_s1_free": digest(e_expansion(p, 4, 12, False) for p in range(1, 27)),
        "e_expansion_s1_zero": digest(e_expansion(p, 4, 12, True) for p in range(1, 27)),
        "macmahon_reduce": digest(macmahon_reduce(m, 12) for m in range(13, 27)),
        "macmahon_reduce_n8": digest(macmahon_reduce(m, 8) for m in range(9, 31)),
        "e_expansion_k3_n9": digest(e_expansion(p, 3, 9, False) for p in range(1, 21)),
    }
    assert got == RENDER_DIGESTS


def test_elementary_renders_match_pinned_digest():
    renders = "\n".join(elementary_in_power_sums(j).render() for j in range(13))
    assert hashlib.sha256(renders.encode()).hexdigest() == ELEMENTARY_DIGEST
