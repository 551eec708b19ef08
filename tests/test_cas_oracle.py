"""An independent derivation of the (12, 4) quadratic in S_6 with sympy.

Nothing here shares code with ksumlab.  The identities come from the
generating function of the k-sums: for a multiset x_1..x_n,

    prod_i (1 + y e^{t x_i}) = sum_k y^k G_k(t),   G_k(t) = sum_p E_p^{(k)} t^p / p!,

and G_k obeys Newton's identity for the elementary symmetric functions
of the e^{t x_i}:  k G_k = sum_{j=1..k} (-1)^(j-1) P_j G_{k-j}, where
P_j(t) = sum_i e^{j t x_i} = sum_q j^q S_q t^q / q!, S_0 = n and S_1 = 0.
Newton's recurrence writes S_13 and S_14 in S_2..S_12; equations 2..5 and
7..12 are solved for their own power sum, and the S_6-coefficients of
equation 14 then form the quadratic.
"""

from fractions import Fraction
from math import factorial

import pytest

sympy = pytest.importorskip("sympy")

from sympy import QQ  # noqa: E402
from sympy.polys.rings import ring  # noqa: E402

from ksumlab.elimination import REFERENCE_C1, REFERENCE_C2, fourteenth_quadratic  # noqa: E402

N, K, TOP = 12, 4, 14  # set size, sum arity, last equation used


def _derive_quadratic():
    """c2, c1, c0 of equation 14 as c2*S6^2 + c1*S6 + c0 = E14, as sympy ring elements."""
    names = [f"S{q}" for q in range(2, TOP + 1)] + [f"E{p}" for p in range(1, TOP + 1)]
    R, *gens = ring(",".join(names), QQ)
    var = dict(zip(names, gens))
    evars = {f"E{p}" for p in range(1, TOP + 1)}

    def used(poly):  # names of the variables a ring element contains
        return {names[i] for monom in poly.monoms() for i, exp in enumerate(monom) if exp}

    s = {0: R(N), 1: R(0), **{q: var[f"S{q}"] for q in range(2, TOP + 1)}}

    def times(a, b):  # product of two power series in t, truncated after t^TOP
        return [sum((a[i] * b[m - i] for i in range(m + 1)), R(0)) for m in range(TOP + 1)]

    power = {j: [QQ(j**q, factorial(q)) * s[q] for q in range(TOP + 1)] for j in range(1, K + 1)}
    g = [[R(1)] + [R(0)] * TOP]
    for k in range(1, K + 1):
        acc = [R(0)] * (TOP + 1)
        for j in range(1, k + 1):
            acc = [a + (-1) ** (j - 1) * b for a, b in zip(acc, times(power[j], g[k - j]))]
        g.append([c * QQ(1, k) for c in acc])
    f = {p: factorial(p) * g[K][p] for p in range(TOP + 1)}
    assert f[0] == R(495) and f[1] == R(0) and f[2] == 120 * var["S2"]

    # Newton's identities: elementary symmetric e_1..e_N from S_1..S_N, then
    # S_m = sum_j (-1)^(j-1) e_j S_{m-j} for m > N, since e_j = 0 above N.
    e = [R(1)]
    for j in range(1, N + 1):
        e.append(sum(((-1) ** (i - 1) * e[j - i] * s[i] for i in range(1, j + 1)), R(0)) * QQ(1, j))
    high = dict(s)
    for m in range(N + 1, TOP + 1):
        high[m] = sum(((-1) ** (j - 1) * e[j] * high[m - j] for j in range(1, N + 1)), R(0))
    reduce = [(var[f"S{m}"], high[m]) for m in range(N + 1, TOP + 1)]

    solved = []
    s6 = var["S6"]
    assert f[6].diff(s6) == 0  # equation 6 has no S6 term, so S6 stays free
    for p in [*range(2, 6), *range(7, N + 1)]:
        pivot = var[f"S{p}"]
        equation = (f[p] - var[f"E{p}"]).compose(solved)
        slope = equation.diff(pivot)
        assert slope.is_ground and slope != 0
        rest = equation - slope * pivot
        assert rest.diff(pivot) == 0
        solution = -rest * (1 / slope.LC)
        assert used(solution) <= evars | {"S6"}
        solved.append((pivot, solution))

    reduced = f[TOP].compose(reduce).compose(solved)
    index = names.index("S6")
    parts = {}
    for monom, coeff in reduced.terms():
        rest = list(monom)
        degree, rest[index] = rest[index], 0
        parts[degree] = parts.get(degree, R(0)) + R({tuple(rest): coeff})
    assert set(parts) <= {0, 1, 2}
    assert all(used(part) <= evars for part in parts.values())
    return names, [parts.get(d, R(0)) for d in (2, 1, 0)]


def _sympy_terms(names, poly):
    """``{((name, exponent), ...): Fraction}`` of a sympy ring element."""
    out = {}
    for monom, coeff in poly.terms():
        key = tuple(sorted((name, exp) for name, exp in zip(names, monom) if exp))
        out[key] = Fraction(int(coeff.numerator), int(coeff.denominator))
    return out


def _ksumlab_terms(poly):
    """The same form of a ksumlab polynomial, read from its term view."""
    out = {}
    for mono, coeff in poly.terms.items():
        key = tuple(sorted((f"{var.family}{var.index}", exp) for var, exp in mono.pairs))
        out[key] = coeff
    return out


def test_quadratic_matches_an_independent_cas_derivation():
    names, (c2, c1, c0) = _derive_quadratic()
    quad = fourteenth_quadratic()
    assert quad.index == TOP
    for derived, built in ((c2, quad.c2), (c1, quad.c1), (c0, quad.c0)):
        assert _sympy_terms(names, derived) == _ksumlab_terms(built)
    assert _sympy_terms(names, c2) == _ksumlab_terms(REFERENCE_C2)
    assert _sympy_terms(names, c1) == _ksumlab_terms(REFERENCE_C1)
