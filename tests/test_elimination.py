"""Elimination pipeline: tables, the S_6 quadratic, roots, residuals."""

import functools
import hashlib
import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from identity_tables import LOW_TABLE, S7_CONDITION_TABLE, SECOND_ROOT_TABLE
from ksumlab import elimination
from ksumlab.algebra import Monomial, Poly, _integer_root, _weighted_scale, evar, svar
from ksumlab.elimination import (
    REFERENCE_C1,
    REFERENCE_C2,
    NonLinearPivotError,
    build_elimination_tables,
    coefficient_report,
    exact_sqrt,
    fourteenth_quadratic,
    quadratic_at,
    residual_equation_indices,
    residual_relations,
    second_root,
    s7_linear_condition,
    solve_quadratic,
)
from ksumlab.known import COLLISION_FIRST, COLLISION_SECOND, DOUBLE_ROOT_SET
from ksumlab.multisets import (
    affine_image,
    as_multiset,
    centred_power_sums,
    parse_multiset,
    power_sum,
    power_sum_vector,
    PowerSumVector,
)
from ksumlab.symfunc import BadRangeError, e_expansion, e_power_sums, macmahon_reduce, newton_extend


def random_centered_sets(seed, count, size=12):
    """Integer sets shifted so S_1 = 0; skips constant sets."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        values = [Fraction(rng.randint(-9, 9)) for _ in range(size)]
        if len(set(values)) == 1:
            continue
        mean = sum(values) / size
        out.append(as_multiset(v - mean for v in values))
    return out


def test_layout_is_derived_from_the_identities():
    tables = build_elimination_tables()
    assert tables.free == 6
    assert len(tables.power_sums) == 12
    assert tables.power_sums[0] == Poly.zero()
    # S_7 has no S_6 term, the fact behind the S_7 condition
    assert [p for p, expr in enumerate(tables.power_sums, 1) if svar(6) in expr.variables()] == [
        6, 8, 9, 10, 11, 12]
    assert fourteenth_quadratic().index == 14
    assert residual_equation_indices() == (13,) + tuple(range(15, 27))


def test_a_second_equation_without_its_pivot_is_refused(monkeypatch):
    real = elimination.identity_poly

    def without_s9(p):
        return real(p).substitute({svar(9): Poly.zero()}) if p == 9 else real(p)

    monkeypatch.setattr(elimination, "identity_poly", without_s9)
    build_elimination_tables.cache_clear()
    try:
        with pytest.raises(NonLinearPivotError, match="equations 6 and 9"):
            build_elimination_tables()
    finally:
        build_elimination_tables.cache_clear()


def test_low_table_closed_forms():
    tables = build_elimination_tables()
    for p, text in LOW_TABLE.items():
        assert tables.power_sums[p - 1] == Poly.parse(text)


def test_high_table_shape():
    tables = build_elimination_tables()
    for p in range(7, 13):
        svars = {v for v in tables.power_sums[p - 1].variables() if v.family == "S"}
        assert svars <= {svar(6)}
    # spot value: the S_2*S_5 part of the seventh equation, in E-variables
    assert tables.power_sums[6].coefficient(Monomial({evar(2): 1, evar(5): 1})) == Fraction(
        -119, 1555200
    )


def test_tables_satisfy_their_equations():
    # plugging the solved expressions back into equation p must give E_p
    # identically (in S_6 and the E-variables)
    tables = build_elimination_tables()
    bindings = {svar(p): expr for p, expr in enumerate(tables.power_sums, 1)}
    for p in (2, 3, 4, 5, 7, 8, 9, 10, 11, 12):
        expanded = e_expansion(p, 4, 12, True).substitute(bindings)
        assert expanded == Poly.variable(evar(p)), f"equation {p}"


def test_newton_closure_matches_the_generic_reduction():
    # equations 13..26 built the other way: each S_m, m > 12, reduced
    # generically in S_1..S_12, then S_1 = 0 set again, then the tables
    tables = build_elimination_tables()
    bindings = {svar(p): expr for p, expr in enumerate(tables.power_sums, 1)}
    for p in range(13, 27):
        equation = e_expansion(p, 4, 12, True)
        reduced = equation.substitute({v: macmahon_reduce(v.index, 12) for v in equation.variables() if v.index > 12})
        reduced = reduced.substitute({svar(1): Poly.zero()}).substitute(bindings)
        assert reduced.collect(svar(6)) == elimination._powers_of_free(p), f"equation {p}"


def test_quadratic_coefficients_exact():
    quad = fourteenth_quadratic()
    assert quad.c2 == REFERENCE_C2
    assert quad.c1 == REFERENCE_C1
    assert quad.c2.coefficient({evar(2): 1}) == Fraction(73458, 5465)
    assert quad.c1.coefficient({evar(2): 2, evar(4): 1}) == Fraction(
        4783550233, 119441640960
    )
    # the constant coefficient has no independent reference value;
    # it is validated through the root and round-trip checks below
    assert quad.c0 != Poly.zero()
    assert all(v.family == "E" for v in quad.c0.variables())


def test_coefficient_report_format():
    lines, ok = coefficient_report()
    assert ok
    assert len(lines) == 7
    for line in lines:
        assert line.endswith("OK")
        assert "[expected " in line and line.startswith("coef(")


def test_demo_set_roots():
    evalues = e_power_sums(DOUBLE_ROOT_SET, 4, 14)
    a, b, c = quadratic_at(evalues)
    assert solve_quadratic(a, b, c) == (2, Fraction(377762, 44361))


def test_quadratic_at_requires_e14():
    with pytest.raises(BadRangeError):
        quadratic_at(e_power_sums(DOUBLE_ROOT_SET, 4, 13))


def test_exact_sqrt():
    assert exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert exact_sqrt(Fraction(0)) == 0
    assert exact_sqrt(Fraction(2)) is None
    assert exact_sqrt(Fraction(-4)) is None


def test_solve_quadratic_cases():
    assert solve_quadratic(Fraction(1), Fraction(0), Fraction(-4)) == (-2, 2)
    assert solve_quadratic(Fraction(0), Fraction(2), Fraction(-4)) == (2,)
    with pytest.raises(ValueError):
        solve_quadratic(Fraction(0), Fraction(0), Fraction(1))
    with pytest.raises(ValueError):
        solve_quadratic(Fraction(1), Fraction(0), Fraction(-2))


def test_round_trip_and_vieta_on_random_sets():
    quad = fourteenth_quadratic()
    tables = build_elimination_tables()
    for a in random_centered_sets(90210, 20):
        evalues = e_power_sums(a, 4, 14)
        env = {evar(i): evalues[i] for i in range(1, 15)}
        s6 = power_sum(a, 6)
        env[svar(6)] = s6
        for p in range(1, 13):
            assert tables.power_sums[p - 1].evaluate(env) == power_sum(a, p)
        c2, c1, c0 = quadratic_at(evalues)
        assert c2 * s6 * s6 + c1 * s6 + c0 == 0
        s = power_sum_vector(a, 12)
        if s[2] != 0:
            assert second_root(s) == -c1 / c2 - s6


def test_second_root_fixtures():
    assert second_root(power_sum_vector(DOUBLE_ROOT_SET, 8)) == Fraction(377762, 44361)
    assert second_root(power_sum_vector(COLLISION_FIRST, 8)) == power_sum(
        COLLISION_SECOND, 6
    )
    assert second_root(power_sum_vector(COLLISION_SECOND, 8)) == power_sum(
        COLLISION_FIRST, 6
    )


def test_second_root_formula_coefficients():
    # isolate each monomial of the closed form with basis power-sum vectors
    def vec(**named):
        vals = [Fraction(0)] * 8
        for name, value in named.items():
            vals[int(name[1:]) - 1] = Fraction(value)
        return PowerSumVector(tuple(vals))

    c = {key: Fraction(text) for key, text in SECOND_ROOT_TABLE.items()}
    assert second_root(vec(s2=1)) == c["S2^3"]
    assert second_root(vec(s2=1, s3=1)) == c["S2^3"] + c["S3^2"] + c["S3*S5/S2"] * 0
    assert second_root(vec(s2=1, s6=1)) == c["S2^3"] + c["S6"]
    assert second_root(vec(s2=1, s4=1)) == c["S2^3"] + c["S2*S4"] + c["S4^2/S2"]
    assert second_root(vec(s2=1, s8=1)) == c["S2^3"] + c["S8/S2"]
    assert (
        second_root(vec(s2=1, s3=1, s5=1))
        == c["S2^3"] + c["S3^2"] + c["S3*S5/S2"]
    )


def test_second_root_preconditions():
    with pytest.raises(ZeroDivisionError):
        second_root(PowerSumVector((Fraction(0),) * 8))
    with pytest.raises(BadRangeError):
        second_root(power_sum_vector(COLLISION_FIRST, 7))
    with pytest.raises(ValueError):
        second_root(power_sum_vector(as_multiset([1, 2, 3, 4, 5, 6, 7, 8]), 8))


def test_s7_condition_coefficients():
    c = {key: Fraction(text) for key, text in S7_CONDITION_TABLE.items()}

    def vec(values):
        return PowerSumVector(tuple(Fraction(v) for v in values))

    assert s7_linear_condition(vec([0, 1, 1, 0, 0])) == c["S3*S2^2"]
    assert s7_linear_condition(vec([0, 1, 0, 0, 1])) == c["S2*S5"]
    assert s7_linear_condition(vec([0, 0, 1, 1, 0])) == c["S3*S4"]


def test_s7_condition_needs_s2_to_s5():
    with pytest.raises(BadRangeError, match="S_5"):
        s7_linear_condition(PowerSumVector((Fraction(0), Fraction(1), Fraction(1), Fraction(0))))


def test_s7_condition_on_known_sets():
    for a in (COLLISION_FIRST, COLLISION_SECOND):
        s = power_sum_vector(a, 12)
        assert s7_linear_condition(s) == 0 == power_sum(a, 7)


def test_s7_condition_fails_generically():
    (a,) = random_centered_sets(5551, 1)
    s = power_sum_vector(a, 12)
    assert s7_linear_condition(s) != power_sum(a, 7)


def test_residual_indices():
    assert residual_equation_indices() == (13,) + tuple(range(15, 27))
    assert len(residual_equation_indices()) == 13


def test_residuals_vanish_on_known_pair():
    for a in (COLLISION_FIRST, COLLISION_SECOND):
        values = residual_relations(power_sum_vector(a, 12))
        assert len(values) == 13
        assert all(v == 0 for v in values)


def test_residuals_nonzero_on_random_sets():
    for a in random_centered_sets(777, 3):
        s = power_sum_vector(a, 12)
        if s[2] == 0:
            continue
        assert any(v != 0 for v in residual_relations(s))


def weighted_scale(values):
    """The algebra scale rule on S_1, S_2, ...: ``values[p - 1]`` has weight p."""
    return _weighted_scale((w, v.denominator) for w, v in enumerate(values, 1))


def test_weighted_scale_examples():
    # den(S_p) | W^p: 4 | 2^2 and 8 | 2^3, so 2 and not the lcm 8
    assert weighted_scale([Fraction(0), Fraction(1, 4), Fraction(1, 8)]) == 2
    # with the primes up to 12, which make Newton's divisions exact
    d = 2 * 3 * 5 * 7 * 11
    assert elimination._weighted_power_sums([Fraction(0), Fraction(1, 4), Fraction(1, 8)], 2 * d, 3) == [
        0, d**2, d**3]
    # a leftover prime first seen to the power one enters once
    assert weighted_scale([Fraction(1, 101), Fraction(2, 101**2)]) == 101
    # two values of one weight, as S_2 and E_2 are, give one scale in either order
    assert _weighted_scale([(2, 9), (2, 3)]) == _weighted_scale([(2, 3), (2, 9)]) == 3


def test_weighted_scale_takes_the_root_of_a_perfect_power():
    # S_2 = 2/1000003^2 enters 1000003 once: 1000003^2 is a square at weight 2
    values = centred_power_sums([Fraction(x, 1000003) for x in DOUBLE_ROOT_SET], 12).values
    assert weighted_scale(values) == 1000003
    # a leftover that is no perfect power at its weight still enters whole
    assert weighted_scale([Fraction(0), Fraction(0), Fraction(1, 101**2)]) == 101**2


def test_integer_root_rounds_down():
    rng = random.Random(2310)
    cases = [(1, 1), (1, 5), (8, 3), (9, 3), (10**40, 4), (10**40 - 1, 4)]
    cases += [(rng.randint(1, 10**rng.randint(1, 60)), rng.randint(1, 26)) for _ in range(300)]
    for x, w in cases:
        root = _integer_root(x, w)
        assert root**w <= x < (root + 1) ** w, (x, w)


def test_weighted_scale_fits_every_weight():
    rng = random.Random(606)
    for _ in range(50):
        values = [Fraction(rng.randint(-99, 99), rng.choice([1, 6, 49, 97, 101, 2**9, 1000003, 12**5]))
                  for _ in range(rng.randint(1, 12))]
        scale = weighted_scale(values)
        assert all(scale**w % v.denominator == 0 for w, v in enumerate(values, 1))
        scale = elimination._NEWTON_PRIMES * weighted_scale(values)
        nums = elimination._weighted_power_sums(values, scale, len(values))
        assert scale % (2 * 3 * 5 * 7 * 11) == 0
        assert [Fraction(n, scale**w) for w, n in enumerate(nums, 1)] == values


def reference_weighted_scale(weighted):
    """The scale rule as first written, kept as the reference: it forms W**w
    for every (weight, denominator) pair."""
    scale = 1
    for weight, den in sorted(weighted):
        left = den // gcd(den, scale**weight)
        if left > 1:
            root = _integer_root(left, weight)
            scale *= root if root**weight == left else left
    return scale


denominators = st.one_of(
    st.integers(1, 10**6),
    st.builds(lambda b, e, c: b**e * c, st.integers(1, 40), st.integers(1, 8), st.sampled_from([1, 1, 2, 3, 7, 12])),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 26), denominators), max_size=14))
def test_weighted_scale_matches_the_reference_rule(weighted):
    assert _weighted_scale(weighted) == reference_weighted_scale(weighted)
    assert _weighted_scale([(w, 1) for w, _ in weighted]) == 1


def test_evalues_are_integers_at_the_sets_scale():
    # E_p D^p against the power sums of the direct k-sums, which share no code with the evaluator
    rng = random.Random(2626)
    sets = [[rng.randint(-9, 9) for _ in range(12)] for _ in range(6)]
    sets += [[Fraction(rng.randint(-40, 40), rng.randint(1, 30)) for _ in range(12)] for _ in range(6)]
    indices = tuple(range(1, 27))
    for values in [*sets, COLLISION_FIRST, DOUBLE_ROOT_SET]:
        centred = affine_image(as_multiset(values), 1, -Fraction(sum(values), 12))
        direct = e_power_sums(centred, 4, 26)
        power_sums = power_sum_vector(centred, 12).values
        e, scale = elimination._scaled_evalues(power_sums, indices)
        assert all(isinstance(v, int) for v in e)
        assert e == [direct[p] * scale**p for p in indices]
        # the scale with the primes up to 12, which always works
        scale = elimination._NEWTON_PRIMES * weighted_scale(power_sums)
        assert elimination._evalue_ints(power_sums, scale, indices) == [direct[p] * scale**p for p in indices]


def test_evalues_off_their_scale_raise():
    # S_2 = 1 alone: e_2 = -S_2 / 2 is no integer over the scale 1, which lacks
    # the primes up to 12, so neither are the S_p and E_p past p = 12
    point = [Fraction(0), Fraction(1), *[Fraction(0)] * 10]
    indices = tuple(range(1, 27))
    with pytest.raises(ArithmeticError):
        elimination._evalue_ints(point, 1, indices)
    e, scale = elimination._scaled_evalues(point, indices)
    assert scale == 2 * 3 * 5 * 7 * 11
    extended = {svar(q): v for q, v in enumerate(newton_extend(point, 12, 26), 1)}
    assert e == [elimination.identity_poly(p).evaluate(extended) * scale**p for p in indices]


def test_batch_caches_empty_with_every_lru_cache():
    s = centred_power_sums([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8], 12)
    before = (residual_relations(s), second_root(s), quadratic_at(e_power_sums(as_multiset(range(12)), 4, 14)))
    batches = [elimination._identity_batch, elimination._quadratic_batch, elimination._tables_batch]
    assert all(batch.cache_info().currsize for batch in batches)
    for name, module in list(sys.modules.items()):
        if name == "ksumlab" or name.startswith("ksumlab."):
            for value in vars(module).values():
                if isinstance(value, functools._lru_cache_wrapper):
                    value.cache_clear()
    assert [batch.cache_info().currsize for batch in batches] == [0, 0, 0]
    after = (residual_relations(s), second_root(s), quadratic_at(e_power_sums(as_multiset(range(12)), 4, 14)))
    assert after == before


def fraction_residuals(s):
    """The residuals in Fraction arithmetic throughout: Newton's identities by
    newton_extend and every identity by Poly.evaluate, with no scaling."""
    tables = build_elimination_tables()
    quad = fourteenth_quadratic()
    extended = newton_extend(s.values[:12], 12, 26)
    evalues = {evar(p): e_expansion(p, 4, 12, True).evaluate({svar(q): extended[q - 1] for q in range(1, 27)})
               for p in range(1, 27)}
    second = -quad.c1.evaluate(evalues) / quad.c2.evaluate(evalues) - s[6]
    at_second = {**evalues, svar(6): second}
    dual_extended = newton_extend([expr.evaluate(at_second) for expr in tables.power_sums], 12, 26)
    dual_values = {svar(q): dual_extended[q - 1] for q in range(1, 27)}
    return [evalues[evar(p)] - e_expansion(p, 4, 12, True).evaluate(dual_values)
            for p in residual_equation_indices()]


def test_residuals_match_a_fraction_oracle():
    rng = random.Random(31337)
    rational_sets = [[Fraction(rng.randint(-40, 40), rng.randint(1, 30)) for _ in range(12)] for _ in range(20)]
    vectors = [centred_power_sums(a, 12) for a in (
        COLLISION_FIRST,
        COLLISION_SECOND,
        parse_multiset("-1 0^10 1"),
        [Fraction(x, 1000003) for x in COLLISION_FIRST],
        [Fraction(x, 1000003) for x in DOUBLE_ROOT_SET],
        *rational_sets,
    )]
    # power sums built directly from Fractions, not from a multiset
    vectors.append(PowerSumVector((Fraction(0),) + tuple(
        Fraction(rng.randint(-10**6, 10**6), rng.choice([1, 7, 1093, 2**5 * 3**7, 1000003])) for _ in range(11)
    )))
    for s in vectors:
        assert residual_relations(s) == fraction_residuals(s)


def test_residuals_are_weighted_homogeneous():
    # scaling a set by t scales S_p, E_p and so residual p by t**p
    rng = random.Random(4242)
    for a in random_centered_sets(8080, 4):
        t = Fraction(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 30))
        base = residual_relations(power_sum_vector(a, 12))
        scaled = residual_relations(power_sum_vector(affine_image(a, t, 0), 12))
        assert scaled == [t**p * r for p, r in zip(residual_equation_indices(), base)]
        assert any(base)


def test_residual_preconditions():
    with pytest.raises(BadRangeError):
        residual_relations(power_sum_vector(COLLISION_FIRST, 11))
    with pytest.raises(ValueError):
        residual_relations(power_sum_vector(as_multiset(range(1, 13)), 12))


def test_nonlinear_pivot_error_is_runtime_error():
    assert issubclass(NonLinearPivotError, RuntimeError)


# sha256 of the residual_relations and second_root values, in hex, over the sets
# of certification_inputs(), taken with the evaluation kernel that evaluated one
# polynomial per call and multiplied every term by each of its powers.
CERTIFICATION_DIGEST = "d41f085febfb20795803110f9e21f93507ec4dad00ccb038e0162889cc966865"


def certification_inputs():
    """100 seeded 12-sets in [-9, 9], the known pair, the demo set and twelve 300-digit integers."""
    rng = random.Random(2020)
    sets = []
    while len(sets) < 100:
        values = [rng.randint(-9, 9) for _ in range(12)]
        if len(set(values)) > 1:
            sets.append(values)
    return [*sets, COLLISION_FIRST, COLLISION_SECOND, DOUBLE_ROOT_SET, [10**299 + i**287 for i in range(12)]]


def certification_digest(sets) -> str:
    digest = hashlib.sha256()
    for values in sets:
        s = centred_power_sums(values, 12)
        for q in (*residual_relations(s), second_root(s)):
            digest.update(f"{q.numerator:x}/{q.denominator:x};".encode())
    return digest.hexdigest()


def test_certification_outputs_match_their_digest():
    assert certification_digest(certification_inputs()) == CERTIFICATION_DIGEST


# The same digest over rational_certification_inputs(), taken with the
# evaluation that put each point over the lcm of its denominators.
RATIONAL_CERTIFICATION_DIGEST = "8a04605cb8b1b88235366d5e6efa2ce2b7f3b0983ff0cc1adc6649e228326a5e"


def rational_certification_inputs():
    """A hand-picked rational 12-set, the known member scaled by 1/3, and two sets over 7**300."""
    return [
        parse_multiset("1/2 -3/7 0 0 1 2 3 4 5 6 7 9"),
        affine_image(COLLISION_FIRST, Fraction(1, 3), 0),
        [Fraction(v, 7**300) for v in range(12)],
        [Fraction(10**20 + v**19, 7**300) + v for v in range(12)],
    ]


def test_rational_certification_outputs_match_their_digest():
    assert certification_digest(rational_certification_inputs()) == RATIONAL_CERTIFICATION_DIGEST
