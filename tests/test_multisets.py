"""Multiset core: parsing, k-sums, power sums, affine canonical forms."""

from fractions import Fraction
from itertools import combinations
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksumlab.known import COLLISION_FIRST, COLLISION_SECOND, DOUBLE_ROOT_SET
from ksumlab.multisets import (
    MAX_DIGITS,
    MAX_SUMS,
    BadKError,
    affine_image,
    approximate,
    as_multiset,
    centred_power_sums,
    collision_class_key,
    comb_at_least,
    format_multiset,
    format_runs,
    ksums,
    parse_multiset,
    power_sum,
    power_sum_vector,
)


def test_parse_literals():
    assert parse_multiset("3 1 2") == (1, 2, 3)
    assert parse_multiset("1, -2, 3/4") == (-2, Fraction(3, 4), 1)
    assert parse_multiset("-1 0^10 1") == tuple([-1] + [0] * 10 + [1])
    assert parse_multiset("1/2^3") == (Fraction(1, 2),) * 3


def test_parse_sorts_mixed_unsorted_runs():
    parsed = parse_multiset("3^2 -1 3 1/2^3")
    assert parsed == (-1, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), 3, 3, 3)
    assert all(type(x) is Fraction for x in parsed)
    # one shared object per run
    zeros = parse_multiset("0^1000")
    assert all(x is zeros[0] for x in zeros)


def test_as_multiset_sorts_runs():
    got = as_multiset([3, Fraction(6, 2), 1, Fraction(1, 2), Fraction(1, 2), -1, 3])
    assert got == (-1, Fraction(1, 2), Fraction(1, 2), 1, 3, 3, 3)
    assert all(type(x) is Fraction for x in got)
    with pytest.raises(ValueError):
        as_multiset([])


def test_parse_rejects_bad_input():
    for bad in ("", "x", "1 2 3^", "^4", "1.5"):
        with pytest.raises(ValueError):
            parse_multiset(bad)


def test_parse_refuses_oversized_literals_before_building_them(monkeypatch):
    with pytest.raises(ValueError, match=f"more than the {MAX_SUMS} elements"):
        parse_multiset("0^10000000000000")
    with pytest.raises(ValueError, match=f"more than the {MAX_SUMS} elements"):
        parse_multiset(f"1 0^{MAX_SUMS}")
    monkeypatch.setattr("ksumlab.multisets.MAX_SUMS", 5)  # the bound is inclusive
    assert parse_multiset("1 0^3 2") == (0, 0, 0, 1, 2)
    with pytest.raises(ValueError, match="more than the 5 elements"):
        parse_multiset("1 0^3 2 3")


@pytest.mark.parametrize("template", ["{}", "-{}", "1/{}", "{}/7", "0^{}"])
def test_parse_refuses_numbers_of_too_many_digits(template):
    with pytest.raises(ValueError, match=f"more than the {MAX_DIGITS} digits allowed"):
        parse_multiset("2 " + template.format("1" * (MAX_DIGITS + 1)))
    if "^" not in template:  # the bound is inclusive
        assert len(parse_multiset(template.format("1" * MAX_DIGITS))) == 1


def test_format_run_length():
    assert format_multiset(DOUBLE_ROOT_SET) == "-1 0^10 1"
    assert format_multiset((1, 1, 1, 2)) == "1^3 2"
    assert format_multiset((Fraction(-1, 2),) * 2) == "-1/2^2"


def test_format_parse_round_trip():
    for t in [(1, 1, 2, 5), (Fraction(1, 3), Fraction(1, 3)), (-4,) * 7]:
        values = as_multiset(t)
        assert parse_multiset(format_multiset(values)) == values


def test_ksums_demo_table():
    sums = ksums(DOUBLE_ROOT_SET, 4)
    assert format_multiset(sums.sums) == "-1^120 0^255 1^120"
    assert len(sums.sums) == comb(12, 4) == 495


def test_ksums_small_cases():
    assert ksums(as_multiset([1, 2, 3]), 3).sums == (6,)
    assert ksums(as_multiset([1, 2, 3]), 2).sums == (3, 4, 5)


def test_ksums_bad_k():
    with pytest.raises(BadKError):
        ksums(as_multiset([1, 2, 3]), 5)
    with pytest.raises(BadKError):
        ksums(as_multiset([1, 2, 3]), 0)


def test_known_pair_collides():
    a = ksums(COLLISION_FIRST, 4)
    b = ksums(COLLISION_SECOND, 4)
    assert a == b
    assert len(a.sums) == 495


def test_multiset_equal_negative():
    x = ksums(as_multiset([0, 1, 2]), 2)
    y = ksums(as_multiset([0, 1, 3]), 2)
    assert x != y
    assert x == x


def test_power_sum_values():
    assert power_sum(COLLISION_FIRST, 1) == 0
    assert power_sum(COLLISION_FIRST, 2) == 238
    assert power_sum(COLLISION_FIRST, 6) == 478918
    assert power_sum(COLLISION_SECOND, 6) == 565318
    assert power_sum(as_multiset([5, 7]), 0) == 2
    with pytest.raises(ValueError):
        power_sum(COLLISION_FIRST, -1)


def test_power_sum_vector_examples():
    s = power_sum_vector(DOUBLE_ROOT_SET, 8)
    assert s.values == (0, 2, 0, 2, 0, 2, 0, 2)
    assert power_sum_vector(as_multiset([0]), 3).values == (0, 0, 0)
    odd = power_sum_vector(COLLISION_FIRST, 12)
    assert all(odd[p] == 0 for p in (1, 3, 5, 7, 9, 11))
    with pytest.raises(IndexError):
        odd[13]
    with pytest.raises(IndexError):
        odd[0]


def test_ksums_refuses_oversized_requests_before_any_work():
    with pytest.raises(ValueError, match="137846528820"):
        ksums(as_multiset([0] * 40), 20)
    assert comb(22, 11) <= MAX_SUMS < comb(40, 20)


def test_comb_at_least_is_exact_to_twenty_and_past_every_ceiling_beyond():
    for n in range(70):
        for k in range(n + 1):
            count, exact = comb_at_least(n, k)
            assert exact == (min(k, n - k) <= 20)
            assert count == comb(n, k) if exact else comb(42, 20) <= count < comb(n, k)
    assert approximate(comb(40, 20)) == "137846528820"
    assert approximate(comb(42, 20), exact=False) == "more than about 10^11"
    assert approximate(10**40) == "about 10^40"


def test_centred_power_sums_examples():
    assert centred_power_sums(as_multiset([1, 2, 3]), 3).values == (0, 2, 0)
    assert centred_power_sums(as_multiset([0, 1]), 2).values == (0, Fraction(1, 2))
    assert centred_power_sums(COLLISION_FIRST, 12) == power_sum_vector(COLLISION_FIRST, 12)


def _orbit(a):
    """Orbit representative under shift, positive scale and reflection."""
    return collision_class_key(a)[0]


def test_canonical_orbit_examples():
    assert _orbit(as_multiset([1, 2, 3])) == (-1, 0, 1)
    assert _orbit(as_multiset([2, 4, 6])) == (-1, 0, 1)
    assert _orbit(as_multiset([0, 0, 0])) == (0, 0, 0)
    assert _orbit(as_multiset([Fraction(1, 2), Fraction(3, 2)])) == (-1, 1)
    assert _orbit(as_multiset([0, 0, 3])) == (-2, 1, 1)


def test_canonical_orbit_reflection_rule():
    # negate exactly when the sorted list is lexicographically greater than
    # its negated-and-sorted counterpart
    assert _orbit(as_multiset([0, 3, 5, 6])) == _orbit(
        as_multiset([1, 2, 4, 7])
    )
    assert _orbit(COLLISION_FIRST) == COLLISION_FIRST


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
multisets = st.lists(rationals, min_size=1, max_size=6).map(as_multiset)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ksums_size_is_binomial(data):
    a = data.draw(multisets)
    k = data.draw(st.integers(1, len(a)))
    assert len(ksums(a, k).sums) == comb(len(a), k)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ksums_complement_identity(data):
    a = data.draw(multisets)
    k = data.draw(st.integers(1, len(a)))
    total = power_sum(a, 1)
    complement = tuple(sorted(total - s for s in ksums(a, k).sums))
    if k < len(a):
        assert complement == ksums(a, len(a) - k).sums
    else:
        assert ksums(a, k).sums == (total,)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ksums_affine_equivariance(data):
    a = data.draw(multisets)
    k = data.draw(st.integers(1, len(a)))
    t = data.draw(rationals.filter(lambda f: f != 0))
    c = data.draw(rationals)
    image = affine_image(a, t, c)
    expected = tuple(sorted(t * s + k * c for s in ksums(a, k).sums))
    assert ksums(image, k).sums == expected


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=40), min_size=1, max_size=12).map(as_multiset),
    st.one_of(st.just(0), st.integers(-7, 7), rationals),
    st.one_of(st.integers(-7, 7), rationals),
)
def test_affine_image_matches_the_fraction_map(a, t, c):
    # scale 0, negative scales and rational shifts, against the image taken in Fractions
    assert affine_image(a, t, c) == as_multiset(t * x + c for x in a)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_canonical_orbit_constant_on_orbits(data):
    a = data.draw(multisets)
    t = data.draw(rationals.filter(lambda f: f != 0))
    c = data.draw(rationals)
    rep = _orbit(a)
    assert _orbit(affine_image(a, t, c)) == rep
    assert _orbit(rep) == rep
    assert sum(rep) == 0 and all(isinstance(v, int) for v in rep)
    assert gcd(*rep) in (0, 1)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_collision_class_key_constant_on_orbits(data):
    parts = data.draw(st.lists(multisets, min_size=1, max_size=3))
    t = data.draw(rationals.filter(lambda f: f != 0))
    c = data.draw(rationals)
    key = collision_class_key(*parts)
    assert collision_class_key(*(affine_image(part, t, c) for part in parts)) == key
    assert collision_class_key(*reversed(parts)) == key


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_canonical_orbit_absorbs_reflection(data):
    a = data.draw(multisets)
    reflected = as_multiset(-x for x in a)
    assert _orbit(a) == _orbit(reflected)


mixed = st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=30), min_size=1, max_size=7)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ksums_integer_form_matches_fraction_reference(data):
    a = as_multiset(data.draw(mixed))
    k = data.draw(st.integers(1, len(a)))
    sums = ksums(a, k)
    reference = tuple(sorted(sum(combo, Fraction(0)) for combo in combinations(a, k)))
    assert sums.sums == reference
    assert sums.denominator > 0 and gcd(sums.denominator, *sums.numerators) == 1
    assert sums.numerators == tuple(v * sums.denominator for v in reference)
    runs = sums.runs()
    assert [v for v, count in runs for _ in range(count)] == list(reference)
    assert format_runs(runs) == format_multiset(reference)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_power_sums_match_fraction_reference(data):
    a = as_multiset(data.draw(mixed))
    k = data.draw(st.integers(1, len(a)))
    m = data.draw(st.integers(1, 8))
    direct = [sum((x**p for x in a), Fraction(0)) for p in range(1, m + 1)]
    assert list(power_sum_vector(a, m).values) == direct
    assert [power_sum(a, p) for p in range(1, m + 1)] == direct
    sums = [sum(combo, Fraction(0)) for combo in combinations(a, k)]
    assert list(ksums(a, k).power_sums(m).values) == [
        sum((s**p for s in sums), Fraction(0)) for p in range(1, m + 1)
    ]


def test_power_sums_over_repeated_sums():
    # 495 4-sums of the known set take few distinct values
    sums = ksums(COLLISION_FIRST, 4)
    assert len(set(sums.numerators)) < 100
    assert sums.power_sums(14) == power_sum_vector(sums.sums, 14)


def test_equal_sums_from_different_denominators():
    halves = ksums(as_multiset([Fraction(1, 2), Fraction(1, 2)]), 2)
    ints = ksums(as_multiset([0, 1]), 2)
    assert halves == ints
    assert (halves.denominator, halves.numerators) == (1, (1,))
