"""Polynomial kernel: exact arithmetic, ordering, rendering, parsing."""

import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksumlab.algebra import (
    Batch,
    Monomial,
    Poly,
    UnboundVariableError,
    Var,
    _weighted_integers,
    evaluate,
    evaluate_weighted,
    evar,
    svar,
)
from ksumlab.multisets import parse_multiset


def test_var_ordering_s_family_first():
    assert svar(1) < svar(2) < svar(14)
    assert svar(14) < evar(1) < evar(2)
    assert str(svar(2)) == "S2"
    assert str(evar(14)) == "E14"


def test_var_validation():
    with pytest.raises(ValueError):
        svar(0)
    with pytest.raises(ValueError):
        Var("X", 1)


def test_monomial_product_and_power():
    m = Monomial({svar(2): 1}) * Monomial({svar(2): 2, svar(4): 1})
    assert m == Monomial({svar(2): 3, svar(4): 1})
    assert m.degree == 4
    assert (Monomial({svar(3): 1}) ** 2) == Monomial({svar(3): 2})
    assert Monomial({}).degree == 0


def test_monomial_graded_lex_order():
    # higher total degree first; ties broken by the earlier variable
    # carrying the higher exponent
    s2cubed = Monomial({svar(2): 3})
    s2s4 = Monomial({svar(2): 1, svar(4): 1})
    s3sq = Monomial({svar(3): 2})
    assert s2cubed > s2s4 > s3sq
    assert sorted([s3sq, s2cubed, s2s4], reverse=True) == [s2cubed, s2s4, s3sq]


def test_poly_additive_identities():
    p = Poly.parse("40*S3^2 - 7*S2")
    assert p + Poly.zero() == p
    assert p - p == Poly.zero()
    assert Poly.parse("40*S3^2") + Poly.parse("-40*S3^2") == Poly.zero()


def test_poly_products():
    p = Poly.parse("3*S2 + 1/2*E1")
    assert p * Poly.const(1) == p
    assert Poly.variable(svar(1)) * Poly.variable(svar(1)) == Poly.parse("S1^2")
    lhs = Poly.parse("S2 + S3") * Poly.parse("S2 - S3")
    assert lhs == Poly.parse("S2^2 - S3^2")


def test_degree_adds_over_products():
    p = Poly.parse("S2*S4 + S3")
    q = Poly.parse("2*S2^2")
    assert (p * q).degree() == p.degree() + q.degree()
    assert Poly.zero().degree() == -1


def test_scalar_division_and_power():
    p = Poly.parse("3*S2") / 6
    assert p == Poly.parse("1/2*S2")
    assert Poly.parse("S1 + 1") ** 2 == Poly.parse("S1^2 + 2*S1 + 1")
    assert Poly.parse("S1 + 1") ** 0 == Poly.const(1)


def test_substitute_inverts_identity():
    e2 = Poly.variable(evar(2))
    assert Poly.parse("120*S2").substitute({svar(2): e2 / 120}) == e2


def test_substitute_empty_and_unbound_pass_through():
    p = Poly.parse("120*S2 + 45*S1^2")
    assert p.substitute({}) == p
    assert p.substitute({svar(1): 0}) == Poly.parse("120*S2")
    assert p.substitute({evar(9): Poly.zero()}) == p


def test_evaluate_examples():
    assert Poly.parse("120*S2").evaluate({svar(2): 2}) == 240
    assert Poly.zero().evaluate({}) == 0
    assert Poly.parse("S3^2 - S6").evaluate({svar(3): 3, svar(6): 9}) == 0


def test_evaluate_requires_all_variables():
    with pytest.raises(UnboundVariableError):
        Poly.parse("S3^2 - S6").evaluate({svar(3): 3})
    with pytest.raises(UnboundVariableError) as caught:
        evaluate_weighted([Poly.parse("S3^2 - S6 + E2")], {svar(3): 1, svar(6): 1}, 2)
    assert str(caught.value) == "'no value bound for E2'"
    assert evaluate([], {}) == evaluate_weighted([], {}, 3) == []


def test_evaluate_weighted_examples():
    # S2 = 3/4, S3 = 5/8 and E2 = 7/4 over the scale 2
    numerators = {svar(2): 3, svar(3): 5, evar(2): 7}
    assert evaluate_weighted([Poly.parse("S2^3 - S3^2")], numerators, 2) == [Fraction(27, 64) - Fraction(25, 64)]
    assert evaluate_weighted([Poly.parse("1/3*S2*E2 + S3")], numerators, 2) == [Fraction(7, 16) + Fraction(5, 8)]
    assert evaluate_weighted([Poly.zero()], {}, 5) == [0]
    with pytest.raises(UnboundVariableError, match="S3"):
        evaluate_weighted([Poly.parse("S3^2 - S6")], {svar(6): 1}, 1)


def test_render_canonical_order():
    p = Poly.parse("40*S3^2 + 90*S2^3 - 120*S2*S4")
    assert p.render() == "90*S2^3 - 120*S2*S4 + 40*S3^2"
    assert Poly.zero().render() == "0"
    assert Poly.parse("-1/2*S1^3 + 3/2*S1*S2").render() == "-1/2*S1^3 + 3/2*S1*S2"


def test_parse_rejects_garbage():
    for bad in ("S", "2S", "S2 +", "S2 ** 2", "1.5*S2", "", "S2*"):
        with pytest.raises(ValueError):
            Poly.parse(bad)
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        Poly.parse("1/0*S2^3")
    # no operator is implied between factors or terms, and no sign sits inside a product
    for bad in ("2 3", "S2 S3", "1/2 1/3*S2", "40*S3^2 - 120*S2 S4 + 90*S2^3", "S2*-3"):
        with pytest.raises(ValueError, match="cannot parse polynomial term"):
            Poly.parse(bad)
    with pytest.raises(ValueError, match="empty polynomial text"):
        Poly.parse("  ")
    with pytest.raises(ValueError, match="dangling sign"):
        Poly.parse("S2 - -")


def test_parse_accepts_signs_products_and_repeated_monomials():
    assert Poly.parse("- -S2") == Poly.parse("+S2") == Poly.variable(svar(2))
    assert Poly.parse("S2 - - S3") == Poly.parse("S2 + + S3") == Poly.parse("S2 + S3")
    assert Poly.parse("S1*S1") == Poly.parse("S1^2")
    assert Poly.parse("2*3/4*S2*E1") == Poly.parse("3/2*S2*E1")
    assert Poly.parse("S2 + 2*S2 - 1/2*S2") == Poly.parse("5/2*S2")


def test_parse_rational():
    assert parse_multiset("3/4") == (Fraction(3, 4),)
    assert parse_multiset("-7") == (-7,)
    with pytest.raises(ValueError):
        parse_multiset("x")


_VARS = [svar(1), svar(2), svar(3), evar(1), evar(2)]


@st.composite
def polys(draw):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        exponents = {
            v: draw(st.integers(1, 3))
            for v in draw(st.sets(st.sampled_from(_VARS), max_size=3))
        }
        coeff = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
        mono = Monomial(exponents)
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return Poly(terms)


def env_for(*ps: Poly) -> st.SearchStrategy:
    return st.fixed_dictionaries(
        {v: st.fractions(max_denominator=7) for v in set().union(*(p.variables() for p in ps)) or set()}
    )


@settings(max_examples=120, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_evaluate_is_multiplicative(data):
    p = data.draw(polys())
    q = data.draw(polys())
    env = data.draw(env_for(p, q))
    assert (p * q).evaluate(env) == p.evaluate(env) * q.evaluate(env)
    assert (p + q).evaluate(env) == p.evaluate(env) + q.evaluate(env)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_substitute_commutes_with_evaluate(data):
    p = data.draw(polys())
    replacement = data.draw(polys())
    target = svar(2)
    env = data.draw(env_for(p, replacement, Poly.variable(target)))
    substituted = p.substitute({target: replacement})
    indirect = dict(env)
    indirect[target] = replacement.evaluate(env)
    assert substituted.evaluate(env) == p.evaluate(indirect)


@settings(max_examples=120, deadline=None)
@given(polys())
def test_render_parse_round_trip(p):
    assert Poly.parse(p.render()) == p


@settings(max_examples=120, deadline=None)
@given(polys())
def test_coefficients_stay_canonical(p):
    for mono, coeff in p.terms.items():
        assert coeff != 0
        assert coeff.denominator > 0
        assert gcd(coeff.numerator, coeff.denominator) == 1


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_evaluate_weighted_matches_evaluate(data):
    p = data.draw(polys())
    nums = data.draw(st.lists(st.integers(-50, 50), min_size=3, max_size=3))
    scale = data.draw(st.integers(1, 12))
    env = {var: Fraction(nums[var.index - 1], scale**var.index) for var in _VARS}
    weighted = {var: nums[var.index - 1] for var in _VARS}
    assert evaluate_weighted([p], weighted, scale) == [p.evaluate(env)]


def test_parse_rejects_bad_exponents():
    for bad in ("S2^", "3*S2^ + 1", "S2^1/2", "S2^-1"):
        with pytest.raises(ValueError):
            Poly.parse(bad)


def test_evaluate_does_not_grow_the_heap():
    p = Poly.parse("3/7*S1^3*E2 - 5*S2^2 + 1/3*E2*S1 + 2")
    values = {svar(1): Fraction(-4, 9), svar(2): Fraction(5, 6), evar(2): Fraction(7, 10)}
    for _ in range(100):
        p.evaluate(values)
    before = sys.getallocatedblocks()
    for _ in range(2000):
        p.evaluate(values)
    assert sys.getallocatedblocks() - before < 200


# -- batch evaluation against a Fraction oracle --------------------------------

_BATCH_VARS = [svar(1), svar(2), svar(7), svar(12), evar(1), evar(4), evar(26)]


def oracle_value(poly: Poly, values) -> Fraction:
    """The value as a Fraction sum over the public term view, term by term."""
    total = Fraction(0)
    for mono, coeff in poly.terms.items():
        term = coeff
        for var, exp in mono.pairs:
            term *= Fraction(values[var]) ** exp
        total += term
    return total


@st.composite
def batch_polys(draw):
    """Zero, constant or mixed-degree polynomials in S and E variables."""
    kind = draw(st.sampled_from(["zero", "constant", "mixed"]))
    if kind == "zero":
        return Poly.zero()
    if kind == "constant":
        return Poly.const(Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9))))
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        variables = draw(st.sets(st.sampled_from(_BATCH_VARS), max_size=4))
        mono = Monomial({v: draw(st.integers(1, 4)) for v in variables})
        terms[mono] = terms.get(mono, Fraction(0)) + Fraction(draw(st.integers(-30, 30)), draw(st.integers(1, 12)))
    return Poly(terms)


@settings(max_examples=150, deadline=None)
@given(st.lists(batch_polys(), max_size=6), st.data())
def test_batch_evaluate_matches_a_fraction_oracle(batch, data):
    values = {v: data.draw(st.fractions(max_denominator=12)) for v in _BATCH_VARS}
    got = evaluate(batch, values)
    assert got == [oracle_value(p, values) for p in batch]
    assert got == [p.evaluate(values) for p in batch]
    assert evaluate(Batch(batch), values) == got


@settings(max_examples=150, deadline=None)
@given(st.lists(batch_polys(), max_size=6), st.data())
def test_batch_evaluate_weighted_matches_a_fraction_oracle(batch, data):
    numerators = {v: data.draw(st.integers(-10**6, 10**6)) for v in _BATCH_VARS}
    scale = data.draw(st.integers(1, 50))
    values = {v: Fraction(n, scale**v.index) for v, n in numerators.items()}
    got = evaluate_weighted(batch, numerators, scale)
    assert got == [oracle_value(p, values) for p in batch]
    assert got == [evaluate_weighted([p], numerators, scale)[0] for p in batch]
    assert evaluate_weighted(Batch(batch), numerators, scale) == got


@settings(max_examples=150, deadline=None)
@given(st.lists(batch_polys(), min_size=1, max_size=4), st.sets(st.sampled_from(_BATCH_VARS)))
def test_batch_evaluation_names_the_first_unbound_variable(batch, bound):
    unbound = {v for p in batch for v in p.variables()} - bound
    for call in (lambda: evaluate(batch, {v: Fraction(1, 3) for v in bound}),
                 lambda: evaluate_weighted(batch, {v: 5 for v in bound}, 7)):
        if not unbound:
            assert len(call()) == len(batch)
            continue
        with pytest.raises(UnboundVariableError) as caught:
            call()
        assert caught.value.args == (f"no value bound for {min(unbound)}",)


def test_one_batch_serves_many_points():
    batch = Batch([Poly.parse("S2^3 - 1/3*S2*E2"), Poly.zero(), Poly.parse("2*S2*E2^2 + 5")])
    for x, y in [(Fraction(1, 2), 3), (Fraction(-7, 5), Fraction(2, 9)), (0, 0)]:
        values = {svar(2): x, evar(2): y}
        assert evaluate(batch, values) == [oracle_value(p, values) for p in batch.polys]


def test_weighted_integers_refuse_a_value_off_the_scale():
    # 1/2*S2 at S2 = 2 / 1**2 is the integer 1, and at S2 = 1 it is 1/2
    batch = Batch([Poly.parse("1/2*S2"), Poly.parse("3*E2")])
    point = {1: 2, 65: 7}  # by slot: S2 is slot 1 and E2 is slot 65
    assert _weighted_integers(batch, point, 1) == [1, 21]
    assert _weighted_integers(batch, point, 3) == [1, 21]  # value times 3**2, both of weight 2
    with pytest.raises(ArithmeticError):
        _weighted_integers(batch, {1: 1, 65: 7}, 1)


def test_one_plan_serves_both_evaluations():
    p = Poly.parse("3/7*S2^3*E5 - 5*S2^2*E5 + 1/3*E2*S12 + 2")
    assert p.variables() == {svar(2), svar(12), evar(2), evar(5)}
    assert p._plan_cache is None  # the symbolic build asks for variables, never for values
    p.evaluate({v: Fraction(1, 3) for v in p.variables()})
    plan = p._plan_cache
    assert plan is not None
    evaluate_weighted([p], {v: 2 for v in p.variables()}, 5)
    assert p._plan_cache is plan


# -- the product kernel against a schoolbook oracle ---------------------------
# An oracle polynomial is a dict from exponent tuples over ORACLE_VARS
# (S1..S64, then E1..E64) to nonzero Fractions; a monomial product adds
# two tuples entry by entry.

ORACLE_VARS = [svar(i) for i in range(1, 65)] + [evar(i) for i in range(1, 65)]
ORACLE_ONE = {(0,) * len(ORACLE_VARS): Fraction(1)}

# Variable pools by position in ORACLE_VARS.  Over S1..S3 every packed key
# ends in more than 1000 zero bits; an odd power of E64 leaves none.
ORACLE_POOLS = [range(3), range(125, 128), range(len(ORACLE_VARS))]


def oracle_dot(terms):
    out = {}
    for c, a, b in terms:
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + c * ca * cb
    return {e: v for e, v in out.items() if v}


def oracle_pow(a, n):
    out = ORACLE_ONE
    for _ in range(n):
        out = oracle_dot([(1, out, a)])
    return out


def oracle_substitute(a, bindings):
    """``bindings`` maps a position in ORACLE_VARS to an oracle polynomial."""
    terms = []
    for e, c in a.items():
        image = ORACLE_ONE
        for i, q in bindings.items():
            image = oracle_dot([(1, image, oracle_pow(q, e[i]))])
        rest = tuple(0 if i in bindings else x for i, x in enumerate(e))
        terms.append((1, {rest: c}, image))
    return oracle_dot(terms)


def as_poly(a):
    return Poly({Monomial({ORACLE_VARS[i]: x for i, x in enumerate(e) if x}): c for e, c in a.items()})


def as_oracle(p):
    return {tuple(mono.exponent(v) for v in ORACLE_VARS): c for mono, c in p.terms.items()}


@st.composite
def oracle_polys(draw, pool):
    """Up to 4 terms of up to 3 variables from ``pool``; constants, zero and
    rational coefficients all occur."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        e = [0] * len(ORACLE_VARS)
        for i in draw(st.sets(st.sampled_from(pool), max_size=3)):
            e[i] = draw(st.integers(1, 3))
        coeff = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
        terms[tuple(e)] = terms.get(tuple(e), 0) + coeff
    return {e: c for e, c in terms.items() if c}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dot_matches_schoolbook(data):
    pool = data.draw(st.sampled_from(ORACLE_POOLS))
    terms = data.draw(
        st.lists(st.tuples(st.integers(-3, 3), oracle_polys(pool), oracle_polys(pool)), max_size=4)
    )
    if data.draw(st.booleans()):  # each product cancels against its swapped negation
        terms += [(-c, b, a) for c, a, b in terms]
    got = Poly.dot([(c, as_poly(a), as_poly(b)) for c, a, b in terms])
    assert as_oracle(got) == oracle_dot(terms)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mul_pow_substitute_match_schoolbook(data):
    pool = data.draw(st.sampled_from(ORACLE_POOLS))
    a, b = data.draw(oracle_polys(pool)), data.draw(oracle_polys(pool))
    assert as_oracle(as_poly(a) * as_poly(b)) == oracle_dot([(1, a, b)])
    n = data.draw(st.integers(0, 3))
    assert as_oracle(as_poly(a) ** n) == oracle_pow(a, n)
    bound = data.draw(st.sets(st.sampled_from(pool), min_size=1, max_size=2))
    bindings = {i: data.draw(oracle_polys(pool)) for i in bound}
    got = as_poly(a).substitute({ORACLE_VARS[i]: as_poly(q) for i, q in bindings.items()})
    assert as_oracle(got) == oracle_substitute(a, bindings)


def test_dot_of_nothing_is_zero():
    assert Poly.dot([]) == Poly.zero()
    s1 = Poly.variable(svar(1))
    assert Poly.dot([(0, s1, s1), (2, s1, Poly.zero())]) == Poly.zero()


def test_products_over_max_degree_raise():
    big = Poly.parse("S1^200 + E64")
    with pytest.raises(ValueError, match="exceeds"):
        big * Poly.parse("S2^56")
    with pytest.raises(ValueError, match="exceeds"):
        Poly.dot([(1, Poly.const(3), big), (1, big, big)])
    with pytest.raises(ValueError, match="exceeds"):
        big ** 2
    with pytest.raises(ValueError, match="exceeds"):
        Poly.parse("S2^2*E1").substitute({svar(2): big})
    assert (big * Poly.parse("S2^55")).degree() == 255
