"""Exact sparse multivariate polynomial arithmetic over the rationals.

Every operation is exact: no rounding ever happens and equality of
polynomials is equality of their canonical forms.  Variables come in two
indexed families, ``S`` and ``E`` (power sums of a base multiset and of
its k-sum multiset); the variable order puts every S before every E, then
sorts by index.  Monomials are compared in graded lexicographic order on
that variable order, which fixes a canonical rendering: terms in
descending monomial order, coefficients printed as ``num/den``
(denominator omitted when 1), exponents as ``^k``.

Representation.  A monomial is one packed int: each variable owns an
``EXP_BITS``-wide exponent field, S1 in the highest field, then S2, ...,
S{MAX_INDEX}, E1, ..., E{MAX_INDEX}, and the total degree sits in one more
field on top.  Plain int order on these keys is the graded lexicographic
order, and a monomial product is a single int addition.  A polynomial
holds integer numerators keyed by packed monomials over one shared
positive denominator, normalised so that the denominator and all
numerators are coprime; the ``Monomial -> Fraction`` view is built only
when asked for.  Indices above ``MAX_INDEX`` and degrees above
``MAX_DEGREE`` raise ``ValueError`` instead of wrapping around.

Products.  ``Poly.dot`` is the one product loop: it sums c * a * b over
a list of terms into one numerator map and reduces once.  Inside it the
keys are shifted down by the zero bits they all end in, so a polynomial
in S_1..S_12 multiplies on keys of about 100 bits instead of about 1030.
``*``, ``**`` and ``substitute`` call it, and so do Newton's identities
and the ``_onto_sums`` recurrence in ``symfunc``.  Sums such as
``e_expansion``'s go through ``+`` and scalar ``*`` instead, which keep
the key ints of their inputs.

Evaluation.  ``evaluate`` and ``evaluate_weighted`` take polynomials and
one point, and ``Poly.evaluate`` is a batch of one.  S_i and E_i have
weight i: ``evaluate_weighted`` takes integers v * W**i and the scale W,
and ``evaluate`` forms them with the one scale rule, ``_weighted_scale``.
A plan is built on first use and kept with the polynomial.  It holds the
ascending ids of every power and product of powers its terms need, where
a power's id is its code and a product's id extends the id of the product
one power shorter, and the terms grouped by weight and then by leading
power, the power of the variable in the highest slot, which is the widest
int.  A ``Batch`` merges the plans of its polynomials once, numbers their
ids and lays out their terms for ``map``; both functions take a batch, or
a list that they make into one, so a caller that evaluates the same
polynomials at many points keeps its batch.  One table, shared by all the
polynomials of a batch, holds its powers and then its products, each
after the shorter one it extends.  A term costs one product, its
numerator times the product of its other powers from the table, and each
group's sum is multiplied by its leading power once.  The private
``_over_scale`` and ``_weighted_integers`` take the integers by slot, in a
list or a dict, so a caller that holds them so hashes no ``Var``;
``_weighted_integers`` returns each value times W**w as an int and raises
``ArithmeticError`` where one is not.  ``variables()`` reads the keys and
builds no plan.
"""

from __future__ import annotations

import re
from collections import defaultdict
from fractions import Fraction
from functools import reduce, total_ordering
from itertools import accumulate
from math import gcd, lcm
from operator import mul, or_, sub
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .record import Record

RationalLike = Union[int, Fraction]

S_FAMILY = "S"
E_FAMILY = "E"
_FAMILY_RANK = {S_FAMILY: 0, E_FAMILY: 1}

MAX_INDEX = 64
"""Largest variable index in each family."""

EXP_BITS = 8
"""Width of each packed exponent field and of the degree field."""

MAX_DEGREE = (1 << EXP_BITS) - 1
"""Largest total degree of a monomial; no single exponent can exceed it."""

_SLOTS = len(_FAMILY_RANK) * MAX_INDEX
_EXP_MASK = MAX_DEGREE
_DEGREE_SHIFT = _SLOTS * EXP_BITS
_BODY_MASK = (1 << _DEGREE_SHIFT) - 1
_CODE_BITS = (_SLOTS << EXP_BITS).bit_length() - 1  # a code slot << EXP_BITS | exp fits in it
_CODE_MASK = (1 << _CODE_BITS) - 1


def over_common_denominator(values: Sequence[RationalLike]) -> tuple[list[int], int]:
    """Integers ``nums`` and the least ``den > 0`` with ``values[i] == nums[i] / den``."""
    den = lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


class UnboundVariableError(KeyError):
    """Raised when evaluating a polynomial with an unbound variable."""


@total_ordering
class Var(Record):
    """An indexed formal variable, one of the families S1, S2, ... / E1, E2, ..."""

    __slots__ = ("family", "index")

    def __init__(self, family: str, index: int) -> None:
        if family not in _FAMILY_RANK:
            raise ValueError(f"unknown variable family {family!r}")
        if not 1 <= index <= MAX_INDEX:
            raise ValueError(f"variable index must be in 1..{MAX_INDEX}, got {index}")
        self._set(family, index)

    def sort_key(self) -> tuple[int, int]:
        return (_FAMILY_RANK[self.family], self.index)

    def __lt__(self, other: "Var") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        return f"{self.family}{self.index}"

    def __repr__(self) -> str:
        return f"Var({self.family}{self.index})"


def svar(index: int) -> Var:
    return _VARS[index - 1] if 1 <= index <= MAX_INDEX else Var(S_FAMILY, index)


def evar(index: int) -> Var:
    return _VARS[MAX_INDEX + index - 1] if 1 <= index <= MAX_INDEX else Var(E_FAMILY, index)


# Slot s (0 for S1, MAX_INDEX for E1) holds its exponent at bit
# _SHIFTS[s]; _UNITS[s] is the packed key of the bare variable.
_VARS = [Var(family, i) for family in _FAMILY_RANK for i in range(1, MAX_INDEX + 1)]
_SHIFTS = [(_SLOTS - 1 - s) * EXP_BITS for s in range(_SLOTS)]
_UNITS = [(1 << _DEGREE_SHIFT) | (1 << shift) for shift in _SHIFTS]


def _slot(var: Var) -> int:
    return _FAMILY_RANK[var.family] * MAX_INDEX + var.index - 1


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise ValueError(f"monomial degree {degree} exceeds {MAX_DEGREE}")


def _checked(key: int) -> int:
    _check_degree(key >> _DEGREE_SHIFT)
    return key


def _fields(key: int) -> Iterator[tuple[int, int]]:
    """(slot, exponent) for every variable of a packed key, S1 first."""
    body = key & _BODY_MASK
    while body:
        field = (body.bit_length() - 1) // EXP_BITS
        exp = body >> (field * EXP_BITS)
        body -= exp << (field * EXP_BITS)
        yield _SLOTS - 1 - field, exp


@total_ordering
class Monomial:
    """A product of variable powers; zero exponents are never stored.

    Total order: graded lexicographic.  Degree decides first; ties are
    broken by the exponent vectors read along increasing variables, the
    larger exponent on the earlier variable winning.
    """

    __slots__ = ("key",)

    def __init__(self, exponents: Mapping[Var, int] | Iterable[tuple[Var, int]] = ()):
        key = 0
        for var, exp in dict(exponents).items():
            if exp < 0:
                raise ValueError(f"negative exponent {exp} for {var}")
            key += exp * _UNITS[_slot(var)]
        self.key: int = _checked(key)

    @classmethod
    def _of(cls, key: int) -> "Monomial":
        mono = object.__new__(cls)
        mono.key = key
        return mono

    @property
    def degree(self) -> int:
        return self.key >> _DEGREE_SHIFT

    @property
    def pairs(self) -> tuple[tuple[Var, int], ...]:
        return tuple((_VARS[slot], exp) for slot, exp in _fields(self.key))

    def exponent(self, var: Var) -> int:
        return (self.key >> _SHIFTS[_slot(var)]) & _EXP_MASK

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial._of(_checked(self.key + other.key))

    def __pow__(self, n: int) -> "Monomial":
        if n < 0:
            raise ValueError("negative monomial power")
        return Monomial._of(_checked(self.key * n))

    def __hash__(self) -> int:
        return hash(self.key)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self.key == other.key

    def __lt__(self, other: "Monomial") -> bool:
        return self.key < other.key

    def __str__(self) -> str:
        if not self.key:
            return "1"
        return "*".join(f"{v}^{e}" if e > 1 else str(v) for v, e in self.pairs)

    def __repr__(self) -> str:
        return f"Monomial({self})"


def _top_degree(num: dict[int, int]) -> int:
    return max(num) >> _DEGREE_SHIFT if num else 0


class Poly:
    """A sparse polynomial: integer numerators on packed monomials over one
    shared denominator, in lowest terms.

    Instances are immutable; all operators return new objects.  The zero
    polynomial has no terms and denominator 1.
    """

    __slots__ = ("_num", "_den", "_terms", "_plan_cache")

    def __init__(self, terms: Mapping[Monomial, RationalLike] = ()):
        terms = dict(terms)
        nums, den = over_common_denominator([Fraction(c) for c in terms.values()])
        self._set({mono.key: v for mono, v in zip(terms, nums)}, den)

    def _set(self, num: dict[int, int], den: int) -> None:
        """Take ownership of ``num``; drop zeros and reduce to lowest terms."""
        if 0 in num.values():
            for k in [k for k, v in num.items() if not v]:
                del num[k]
        g = 1 if den == 1 else gcd(den, *num.values()) if num else den
        if g != 1:
            num = {k: v // g for k, v in num.items()}
            den //= g
        self._num = num
        self._den = den
        self._terms: dict[Monomial, Fraction] | None = None
        self._plan_cache: tuple[list[int], list] | None = None

    @classmethod
    def _make(cls, num: dict[int, int], den: int) -> "Poly":
        poly = object.__new__(cls)
        poly._set(num, den)
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls._make({}, 1)

    @classmethod
    def const(cls, value: RationalLike) -> "Poly":
        q = Fraction(value)
        return cls._make({0: q.numerator}, q.denominator)

    @classmethod
    def variable(cls, var: Var) -> "Poly":
        return cls._make({_UNITS[_slot(var)]: 1}, 1)

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """The ``Monomial -> Fraction`` view, built on first use."""
        if self._terms is None:
            den = self._den
            self._terms = {Monomial._of(k): Fraction(v, den) for k, v in self._num.items()}
        return self._terms

    def coefficient(self, exponents: Monomial | Mapping[Var, int]) -> Fraction:
        mono = exponents if isinstance(exponents, Monomial) else Monomial(exponents)
        return Fraction(self._num.get(mono.key, 0), self._den)

    def constant_term(self) -> Fraction:
        return Fraction(self._num.get(0, 0), self._den)

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        return _top_degree(self._num) if self._num else -1

    def variables(self) -> set[Var]:
        return {_VARS[slot] for slot, _ in _fields(reduce(or_, self._num, 0))}

    def collect(self, var: Var) -> dict[int, "Poly"]:
        """Split by powers of ``var``: ``{e: c_e}`` with ``self`` equal to the
        sum of ``c_e * var**e``, no ``c_e`` containing ``var`` and none zero."""
        slot = _slot(var)
        shift, unit = _SHIFTS[slot], _UNITS[slot]
        parts: dict[int, dict[int, int]] = {}
        for key, v in self._num.items():
            exp = (key >> shift) & _EXP_MASK
            parts.setdefault(exp, {})[key - exp * unit] = v
        return {exp: Poly._make(num, self._den) for exp, num in parts.items()}

    def __len__(self) -> int:
        return len(self._num)

    def __iter__(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(self.terms.items())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if isinstance(other, Poly):
            return self._den == other._den and self._num == other._num
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(value: "Poly" | RationalLike) -> "Poly":
        if isinstance(value, Poly):
            return value
        if isinstance(value, (int, Fraction)):
            return Poly.const(value)
        raise TypeError(f"cannot treat {type(value).__name__} as a polynomial")

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other over the common denominator."""
        den = lcm(self._den, other._den)
        fa, fb = den // self._den, sign * (den // other._den)
        out = dict(self._num) if fa == 1 else {k: v * fa for k, v in self._num.items()}
        get = out.get
        for k, v in other._num.items():
            out[k] = get(k, 0) + v * fb
        return Poly._make(out, den)

    def __add__(self, other: "Poly" | RationalLike) -> "Poly":
        return self._combine(self._coerce(other), 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._make({k: -v for k, v in self._num.items()}, self._den)

    def __sub__(self, other: "Poly" | RationalLike) -> "Poly":
        return self._combine(self._coerce(other), -1)

    def __rsub__(self, other: "Poly" | RationalLike) -> "Poly":
        return self._coerce(other)._combine(self, -1)

    def _scaled(self, q: Fraction) -> "Poly":
        n = q.numerator
        return Poly._make({k: v * n for k, v in self._num.items()}, self._den * q.denominator)

    @staticmethod
    def dot(terms: Iterable[tuple[int, "Poly", "Poly"]]) -> "Poly":
        """The sum of c * a * b over the (int c, Poly a, Poly b) in ``terms``.

        The one product loop: every product is accumulated into one
        numerator map over the least common denominator of the products,
        and the sum is reduced to lowest terms once.  The keys are shifted
        down by the trailing zero bits that all input keys share, which
        drops the fields of the variables after the last one in use (for a
        polynomial in S_1..S_12, every key shrinks from about 1030 bits to
        about 100); no sum of keys can carry into those bits, so shifting
        the result keys back up is exact.
        """
        terms = [(c, a, b) for c, a, b in terms if c and a._num and b._num]
        for _, a, b in terms:
            _check_degree(_top_degree(a._num) + _top_degree(b._num))
        den = lcm(*[a._den * b._den for _, a, b in terms])
        polys = {id(p): p._num for _, a, b in terms for p in (a, b)}
        union = reduce(or_, [reduce(or_, num) for num in polys.values()], 0)
        shift = (union & -union).bit_length() - 1 if union else 0
        short = {i: [(k >> shift, v) for k, v in num.items()] for i, num in polys.items()}
        out: dict[int, int] = {}
        get = out.get
        for c, a, b in terms:
            c *= den // (a._den * b._den)
            if len(a._num) > len(b._num):
                a, b = b, a
            inner = short[id(b)]
            for ka, va in short[id(a)]:
                va *= c
                for kb, vb in inner:
                    k = ka + kb
                    out[k] = get(k, 0) + va * vb
        if shift:
            out = {k << shift: v for k, v in out.items()}
        return Poly._make(out, den)

    def __mul__(self, other: "Poly" | RationalLike) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self._scaled(Fraction(other))
        return Poly.dot([(1, self, self._coerce(other))])

    __rmul__ = __mul__

    def __truediv__(self, scalar: RationalLike) -> "Poly":
        q = Fraction(scalar)
        if not q:
            raise ZeroDivisionError("polynomial division by zero scalar")
        return self._scaled(1 / q)

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial power must be a nonnegative integer")
        if n and self._num:
            _check_degree(_top_degree(self._num) * n)
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else Poly.dot([(1, result, base)])
            n >>= 1
            if n:
                base = Poly.dot([(1, base, base)])
        return Poly.const(1) if result is None else result

    # -- substitution and evaluation ---------------------------------------

    def substitute(self, bindings: Mapping[Var, "Poly" | RationalLike]) -> "Poly":
        """Replace bound variables by polynomials and re-expand.

        Unbound variables pass through unchanged.  ``self`` is split as the
        sum of (bound part) * (polynomial in the unbound variables); the
        image of each distinct bound part is expanded once, and one ``dot``
        sums the images times their cofactors.
        """
        bound = {_slot(v): self._coerce(p) for v, p in bindings.items()}
        mask = 0
        for slot in bound:
            mask |= _EXP_MASK << _SHIFTS[slot]
        cofactors: dict[int, dict[int, int]] = {}
        for key, coeff in self._num.items():
            cofactors.setdefault(key & mask, {})[key] = coeff
        powers: dict[tuple[int, int], Poly] = {}
        terms = []
        for part, num in cofactors.items():
            fields = list(_fields(part))
            for field in fields:
                if field not in powers:
                    powers[field] = bound[field[0]] ** field[1]
            image = reduce(Poly.__mul__, [powers[field] for field in fields] or [Poly.const(1)])
            offset = part + (sum(exp for _, exp in fields) << _DEGREE_SHIFT)
            terms.append((1, image, Poly._make({k - offset: v for k, v in num.items()}, self._den)))
        return Poly.dot(terms)

    def _plan(self) -> tuple[list[int], list]:
        """The plan by weight (each variable's index once per exponent), built on first use.

        Each term is split into its leading power, that of the variable in
        its highest slot, and the product of its other powers, taken in
        ascending slots.  A product of powers is named by an id: a power
        var**exp, the product of one power, by its code
        ``slot << EXP_BITS | exp``, below ``1 << _CODE_BITS``; a product times
        one more power by the product's id shifted up by ``_CODE_BITS`` plus
        that power's code; and the empty product, 1, by 0.  The plan holds
        the ids of every power and product of powers its terms need,
        ascending, and per weight, highest first, the terms grouped by their
        leading power's id, each group as (lead id, numerators, product ids).
        Ids are the same in every plan, so a batch makes each product that
        several of its polynomials share once; and ascending ids make each
        product after the shorter one it extends, as a product of r powers
        has an id below ``2 ** (r * _CODE_BITS)``.
        """
        if self._plan_cache is None:
            groups: dict[int, dict[int, list[tuple[int, int]]]] = {}
            ids: set[int] = set()
            for key, v in self._num.items():
                fields = list(_fields(key))
                g = sum((slot % MAX_INDEX + 1) * exp for slot, exp in fields)
                codes = [slot << EXP_BITS | exp for slot, exp in fields] or [0]
                ids.update(codes)
                rest = 0
                for code in codes[:-1]:
                    rest = rest << _CODE_BITS | code
                    ids.add(rest)
                groups.setdefault(g, {}).setdefault(codes[-1], []).append((v, rest))
            ids.discard(0)
            grades = [
                (g, [(lead, *zip(*terms)) for lead, terms in groups[g].items()])
                for g in sorted(groups, reverse=True)
            ]
            self._plan_cache = sorted(ids), grades
        return self._plan_cache

    def evaluate(self, values: Mapping[Var, RationalLike]) -> Fraction:
        """Exact value of the polynomial; every variable must be bound."""
        return evaluate([self], values)[0]

    # -- rendering and parsing ---------------------------------------------

    def render(self) -> str:
        """Canonical text form, terms in descending monomial order."""
        if not self._num:
            return "0"
        chunks: list[str] = []
        for key in sorted(self._num, reverse=True):
            coeff = Fraction(self._num[key], self._den)
            magnitude = _term_text(Monomial._of(key), abs(coeff))
            if not chunks:
                chunks.append(magnitude if coeff > 0 else f"-{magnitude}")
            else:
                chunks.append(f"{'+' if coeff > 0 else '-'} {magnitude}")
        return " ".join(chunks)

    @classmethod
    def parse(cls, text: str) -> "Poly":
        return _parse_poly(text)

    def __repr__(self) -> str:
        return f"Poly({self.render()})"


class Batch:
    """Polynomials evaluated together, their plans merged once.

    The ids of every power and product of powers that the plans need are
    numbered in ascending order from 1, after the empty product at 0.  A
    batch holds each power's slot and exponent in ``slots`` and ``exps``,
    and each other product as the numbers of the product one power shorter
    that it extends and of its last power, which come before it.  Per
    polynomial, ``plans`` holds its terms laid end to end, as their
    numerators and the numbers of the products of their other powers;
    where its groups start and end in that run, and their leading powers;
    and its weights, highest first, as (weight, first group, end of its
    groups).  A batch never changes, so one can be kept and evaluated at
    any number of points.
    """

    __slots__ = ("polys", "slots", "exps", "products", "plans")

    def __init__(self, polys: Iterable[Poly]):
        self.polys = tuple(polys)
        plans = [poly._plan() for poly in self.polys]
        ids = sorted(set().union(*[ids for ids, _ in plans]))
        at = {0: 0, **{i: n for n, i in enumerate(ids, 1)}}
        powers = [i for i in ids if i <= _CODE_MASK]  # a power's id is its code
        self.slots = [i >> EXP_BITS for i in powers]
        self.exps = [i & _EXP_MASK for i in powers]
        self.products = [(at[i >> _CODE_BITS], at[i & _CODE_MASK]) for i in ids[len(powers):]]
        self.plans = []
        for _, grades in plans:
            nums: list[int] = []
            rests: list[int] = []
            ends: list[int] = []
            leads: list[int] = []
            weights = []
            for g, groups in grades:
                first = len(leads)
                for lead, group_nums, group_rests in groups:
                    nums += group_nums
                    rests += map(at.__getitem__, group_rests)
                    ends.append(len(nums))
                    leads.append(at[lead])
                weights.append((g, first, len(leads)))
            self.plans.append((nums, rests, [0, *ends[:-1]], ends, leads, weights))


def _batch(polys: Sequence[Poly] | Batch) -> Batch:
    return polys if isinstance(polys, Batch) else Batch(polys)


def _bound(batch: Batch, values: Mapping[Var, RationalLike]) -> dict[int, RationalLike]:
    """The value bound to the variable of each slot among the batch's powers."""
    try:
        return {slot: values[_VARS[slot]] for slot in batch.slots}
    except KeyError as unbound:
        raise UnboundVariableError(f"no value bound for {unbound.args[0]}") from None


def _integer_root(x: int, w: int) -> int:
    """The w-th root of x >= 1, rounded down, by Newton's method on ints."""
    y = 1 << -(-x.bit_length() // w)  # above the root, as x < 2**bit_length
    while True:
        z = ((w - 1) * y + x // y ** (w - 1)) // w
        if z >= y:
            return y
        y = z


def _weighted_scale(weighted: Iterable[tuple[int, int]]) -> int:
    """A scale W with each d dividing W**w, over (weight w, denominator d) pairs.

    The one scale rule.  W grows by ascending weight: the part of a
    denominator that W**w does not yet cover enters W as its exact w-th
    root when it is a perfect w-th power, and whole otherwise.  The lcm of
    the denominators is also such a W, but on power sums a far larger one.
    A denominator of 1, or one that W**w already covers, leaves W as it is.
    """
    scale, power, at = 1, 1, 0  # power is scale**at
    for weight, den in sorted((w, d) for w, d in weighted if d != 1):
        power *= scale ** (weight - at)
        at = weight
        if power % den:
            left = den // gcd(den, power)
            root = _integer_root(left, weight)
            factor = root if root**weight == left else left
            scale *= factor
            power *= factor**weight
    return scale


def _weighted_totals(batch: Batch, ints: Sequence[int] | Mapping[int, int], scale: int) -> list[tuple[int, int]]:
    """(t, w) for each polynomial of the batch, with w the highest weight of
    its terms and t its value at ``ints[slot] / scale**i``, for the variable
    of index i in each slot, times its denominator and ``scale**w``.

    The one evaluation loop, run by ``map`` and ``accumulate`` rather than
    term by term.  One table, from the numbers of the products of powers
    to their values, serves the whole batch: the powers, and then each
    other product as the product it extends times its last power.  Each
    term costs one product, its numerator times the product of its other
    powers; a group's sum is the difference of two running totals of
    those, and is multiplied by its leading power, the widest int, once.
    The weights are summed apart, from running totals of the groups, as a
    term of weight g carries ``scale**g`` in its denominator.  The running
    totals are kept per polynomial, so no more than one polynomial's terms
    are held at a time.
    """
    table = [1, *map(pow, map(ints.__getitem__, batch.slots), batch.exps)]
    for prefix, last in batch.products:
        table.append(table[prefix] * table[last])
    get = table.__getitem__
    out = []
    for nums, rests, starts, ends, leads, weights in batch.plans:
        terms = [0, *accumulate(map(mul, nums, map(get, rests)))].__getitem__
        groups = [0, *accumulate(map(mul, map(sub, map(terms, ends), map(terms, starts)), map(get, leads)))]
        top = weights[0][0] if weights else 0
        out.append((sum((groups[end] - groups[first]) * scale ** (top - g) for g, first, end in weights), top))
    return out


def _over_scale(batch: Batch, ints: Sequence[int] | Mapping[int, int], scale: int) -> list[Fraction]:
    """Each polynomial's value at ``ints[slot] / scale**i`` for the variable of
    index i in each slot."""
    totals = _weighted_totals(batch, ints, scale)
    return [Fraction(t, poly._den * scale**w) for poly, (t, w) in zip(batch.polys, totals)]


def _weighted_integers(batch: Batch, ints: Sequence[int] | Mapping[int, int], scale: int) -> list[int]:
    """Each polynomial's value at ``ints[slot] / scale**i``, as in ``_over_scale``,
    times ``scale**w`` for w the highest weight of its terms: an integer, or
    ``ArithmeticError`` is raised."""
    out = []
    for poly, (t, w) in zip(batch.polys, _weighted_totals(batch, ints, scale)):
        q, r = divmod(t, poly._den)
        if r:
            raise ArithmeticError(f"a value times {scale}**{w} is {Fraction(t, poly._den)}, not an integer")
        out.append(q)
    return out


def evaluate(polys: Sequence[Poly] | Batch, values: Mapping[Var, RationalLike]) -> list[Fraction]:
    """The exact value of each polynomial; every variable must be bound.

    A value of weight i is put over W**i, with W from ``_weighted_scale``.
    """
    batch = _batch(polys)
    weighted = {slot: (slot % MAX_INDEX + 1, Fraction(v)) for slot, v in _bound(batch, values).items()}
    scale = _weighted_scale((w, v.denominator) for w, v in weighted.values())
    ints = {slot: v.numerator * (scale**w // v.denominator) for slot, (w, v) in weighted.items()}
    return _over_scale(batch, ints, scale)


def evaluate_weighted(polys: Sequence[Poly] | Batch, numerators: Mapping[Var, int], scale: int) -> list[Fraction]:
    """The exact value of each polynomial at ``numerators[v] / scale**i`` for
    each variable v of index i.

    S_i and E_i have weight i, and so does a power sum of i-th powers:
    power sums of numbers over a common denominator ``scale`` are integers
    over ``scale**i``.  A polynomial of weight w then needs one division by
    ``scale**w``, and no common denominator is formed.
    """
    batch = _batch(polys)
    return _over_scale(batch, _bound(batch, numerators), scale)


def _term_text(mono: Monomial, coeff: Fraction) -> str:
    if not mono.key:
        return str(coeff)
    if coeff == 1:
        return str(mono)
    return f"{coeff}*{mono}"


_FACTOR = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([SE])(\d+)(?:\^(\d+))?)\s*")


def _parse_poly(text: str) -> Poly:
    """Terms joined by ``+`` or ``-``, each rationals and variable powers joined by ``*``."""
    parts = re.split(r"([+-])", text)  # terms at even places, their signs between them
    if not parts[-1].strip():
        raise ValueError("dangling sign in polynomial text" if text.strip() else "empty polynomial text")
    terms: defaultdict[Monomial, Fraction] = defaultdict(Fraction)
    sign = 1
    for op, term in zip(["+", *parts[1::2]], parts[::2]):
        sign = -sign if op == "-" else sign
        if not term.strip():  # a leading sign, or one of a run of signs
            continue
        coeff, mono, sign = Fraction(sign), Monomial(), 1
        for factor in term.split("*"):  # no operator is implied, so each factor matches whole
            match = _FACTOR.fullmatch(factor)
            if match is None:
                raise ValueError(f"cannot parse polynomial term {term.strip()!r}")
            rational, family, index, exp = match.groups()
            if rational is None:
                mono *= Monomial({Var(family, int(index)): int(exp or 1)})
                continue
            try:
                coeff *= Fraction(rational)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {rational!r}") from None
        terms[mono] += coeff
    return Poly(terms)
