"""The packed polynomial kernel against a reference that shares no code with it.

The reference keeps a polynomial as a plain dict from monomials to
Fractions, a monomial being the sorted tuple of its ``(family, index,
exp)`` triples.  Every operation is the textbook definition, written
here from scratch; `Poly` is only built through its public constructor
and read back through iteration.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksumlab.algebra import MAX_DEGREE, MAX_INDEX, Monomial, Poly, Var, evar, svar

FAMILY_ORDER = {"S": 0, "E": 1}
POOL = [("S", 1), ("S", 2), ("S", 3), ("S", 12), ("S", MAX_INDEX), ("E", 1), ("E", 2), ("E", MAX_INDEX)]


def mono_of(exps: dict) -> tuple:
    return tuple(sorted(((f, i, e) for (f, i), e in exps.items() if e), key=lambda t: (FAMILY_ORDER[t[0]], t[1])))


def exps_of(mono: tuple) -> dict:
    return {(f, i): e for f, i, e in mono}


def ref_clean(terms: dict) -> dict:
    return {m: c for m, c in terms.items() if c}


def ref_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + sign * c
    return ref_clean(out)


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            exps = exps_of(m1)
            for var, e in exps_of(m2).items():
                exps[var] = exps.get(var, 0) + e
            m = mono_of(exps)
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return ref_clean(out)


def ref_pow(a: dict, n: int) -> dict:
    out = {(): Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_substitute(a: dict, bindings: dict) -> dict:
    out: dict = {}
    for m, c in a.items():
        term = {(): c}
        rest = {}
        for var, e in exps_of(m).items():
            if var in bindings:
                term = ref_mul(term, ref_pow(bindings[var], e))
            else:
                rest[var] = e
        out = ref_add(out, ref_mul(term, {mono_of(rest): Fraction(1)}))
    return out


def ref_evaluate(a: dict, env: dict) -> Fraction:
    total = Fraction(0)
    for m, c in a.items():
        for f, i, e in m:
            c *= env[(f, i)] ** e
        total += c
    return total


def ref_order_key(m: tuple) -> tuple:
    """Graded lex as the Monomial docstring defines it: degree first, then
    the exponent vector read along S1, S2, ..., E1, E2, ..., the larger
    exponent on the earlier variable winning."""
    exps = exps_of(m)
    vector = tuple(exps.get((f, i), 0) for f in ("S", "E") for i in range(1, MAX_INDEX + 1))
    return (sum(exps.values()), vector)


def ref_render(a: dict) -> str:
    if not a:
        return "0"
    chunks = []
    for m in sorted(a, key=ref_order_key, reverse=True):
        c = a[m]
        name = "*".join(f"{f}{i}^{e}" if e > 1 else f"{f}{i}" for f, i, e in m)
        if not m:
            text = str(abs(c))
        elif abs(c) == 1:
            text = name
        else:
            text = f"{abs(c)}*{name}"
        if not chunks:
            chunks.append(text if c > 0 else f"-{text}")
        else:
            chunks.append(f"{'+' if c > 0 else '-'} {text}")
    return " ".join(chunks)


def to_poly(a: dict) -> Poly:
    return Poly({Monomial({Var(f, i): e for f, i, e in m}): c for m, c in a.items()})


def ref_of(m: Monomial) -> tuple:
    return mono_of({(v.family, v.index): e for v, e in m.pairs})


def from_poly(p: Poly) -> dict:
    return {ref_of(m): c for m, c in p}


monomials = st.dictionaries(st.sampled_from(POOL), st.integers(1, 3), max_size=3).map(mono_of)
coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=12)
refs = st.dictionaries(monomials, coefficients, max_size=5).map(ref_clean)


def env_strategy() -> st.SearchStrategy:
    return st.fixed_dictionaries({var: st.fractions(max_denominator=9) for var in POOL})


@settings(max_examples=150, deadline=None)
@given(refs, refs)
def test_add_sub_mul_match_reference(a, b):
    p, q = to_poly(a), to_poly(b)
    assert from_poly(p + q) == ref_add(a, b)
    assert from_poly(p - q) == ref_add(a, b, -1)
    assert from_poly(-p) == ref_add({}, a, -1)
    assert from_poly(p * q) == ref_mul(a, b)


@settings(max_examples=100, deadline=None)
@given(refs, st.integers(0, 4))
def test_power_matches_reference(a, n):
    assert from_poly(to_poly(a) ** n) == ref_pow(a, n)


@settings(max_examples=100, deadline=None)
@given(refs, refs, refs, coefficients)
def test_substitute_matches_reference(a, b, c, value):
    bindings = {("S", 2): b, ("E", 1): c, ("S", 12): {(): value} if value else {}}
    got = to_poly(a).substitute(
        {svar(2): to_poly(b), evar(1): to_poly(c), svar(12): value}
    )
    assert from_poly(got) == ref_substitute(a, bindings)


@settings(max_examples=150, deadline=None)
@given(refs, st.sampled_from(POOL))
def test_collect_matches_reference(a, var):
    parts = to_poly(a).collect(Var(*var))
    recombined: dict = {}
    for exp, part in parts.items():
        ref_part = from_poly(part)
        assert ref_part and all(var not in exps_of(m) for m in ref_part)
        recombined = ref_add(recombined, ref_mul(ref_part, {mono_of({var: exp}): Fraction(1)}))
    assert recombined == a


@settings(max_examples=150, deadline=None)
@given(refs, env_strategy())
def test_evaluate_matches_reference(a, env):
    values = {Var(f, i): v for (f, i), v in env.items()}
    assert to_poly(a).evaluate(values) == ref_evaluate(a, env)


@settings(max_examples=150, deadline=None)
@given(refs)
def test_render_matches_reference(a):
    assert to_poly(a).render() == ref_render(a)


@settings(max_examples=150, deadline=None)
@given(st.lists(monomials, max_size=8))
def test_packed_order_is_graded_lex(monos):
    packed = sorted(Monomial({Var(f, i): e for f, i, e in m}) for m in monos)
    assert [ref_of(m) for m in packed] == sorted(monos, key=ref_order_key)


def test_packed_order_examples():
    # degree first, then the earlier variable's exponent, across families
    top = MAX_INDEX
    chain = ["E1", f"S{top}", "S2", "S1", "E1^2", "S2*E1", f"S1*E{top}", "S1*S2", "S1^2"]
    monos = [next(iter(Poly.parse(text).terms)) for text in chain]
    assert monos == sorted(monos)
    assert sorted(monos, key=lambda m: ref_order_key(ref_of(m))) == monos


def test_index_beyond_capacity_is_rejected():
    assert str(svar(MAX_INDEX)) == f"S{MAX_INDEX}"
    assert Poly.parse(f"E{MAX_INDEX}") == Poly.variable(evar(MAX_INDEX))
    for make in (svar, evar):
        with pytest.raises(ValueError):
            make(MAX_INDEX + 1)
    with pytest.raises(ValueError):
        Poly.parse(f"S{MAX_INDEX + 1}")


def test_exponent_fields_do_not_carry_at_capacity():
    top = Monomial({svar(MAX_INDEX): MAX_DEGREE})
    assert top.degree == MAX_DEGREE
    assert top.exponent(svar(MAX_INDEX)) == MAX_DEGREE
    assert top.exponent(svar(MAX_INDEX - 1)) == 0 and top.exponent(evar(1)) == 0
    mixed = Monomial({svar(1): MAX_DEGREE - 1}) * Monomial({evar(MAX_INDEX): 1})
    assert mixed.pairs == ((svar(1), MAX_DEGREE - 1), (evar(MAX_INDEX), 1))


def test_degree_overflow_is_rejected():
    s1, s2 = Poly.variable(svar(1)), Poly.variable(svar(2))
    with pytest.raises(ValueError):
        Monomial({svar(1): MAX_DEGREE + 1})
    with pytest.raises(ValueError):
        Monomial({svar(1): MAX_DEGREE}) * Monomial({svar(2): 1})
    with pytest.raises(ValueError):
        Monomial({evar(3): 2}) ** MAX_DEGREE
    with pytest.raises(ValueError):
        s1 ** (MAX_DEGREE + 1)
    with pytest.raises(ValueError):
        (s1 ** MAX_DEGREE) * (s2 + 1)
    with pytest.raises(ValueError):
        (s1 ** (MAX_DEGREE // 2 + 1)).substitute({svar(1): s2 * s2})
    with pytest.raises(ValueError):
        Poly.parse(f"S1^{MAX_DEGREE + 1}")
    assert (s1 ** MAX_DEGREE).degree() == MAX_DEGREE
