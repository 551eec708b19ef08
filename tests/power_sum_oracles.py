"""Fraction references for power sums, sharing no code with the package's own.

``newton_extend`` runs Newton's identities term by term on whatever it is
given: Fractions for numeric power sums, or ``Poly`` variables for the
symbolic reductions.  ``centred_power_sums`` shifts a set to mean zero and
sums Fraction powers.
"""

from fractions import Fraction

from ksumlab.algebra import Poly
from ksumlab.multisets import PowerSumVector


def newton_extend(powersums, n, upto):
    """[S_1, ..., S_upto] from the power sums S_1..S_n of an n-element multiset.

    j e_j = sum_i (-1)^(i-1) S_i e_{j-i} gives e_1..e_n from e_0 = 1, and
    S_m = sum_i (-1)^(i-1) e_i S_{m-i} for i = 1..n extends the power sums.
    Numbers are taken as Fractions; Polys stay Polys.
    """
    if len(powersums) < n:
        raise ValueError(f"need S_1..S_{n}, got only {len(powersums)} entries")
    s = [v if isinstance(v, Poly) else Fraction(v) for v in powersums[:n]]
    e = [1]
    for j in range(1, n + 1):
        e.append(sum((-1) ** (i - 1) * s[i - 1] * e[j - i] for i in range(1, j + 1)) / j)
    for m in range(n + 1, upto + 1):
        s.append(sum((-1) ** (i - 1) * e[i] * s[m - i - 1] for i in range(1, n + 1)))
    return s[:upto]


def centred_power_sums(values, m):
    """Power sums 1..m of ``values`` shifted so that they sum to zero."""
    mean = Fraction(sum(values), len(values))
    return PowerSumVector(tuple(sum((Fraction(x) - mean) ** p for x in values) for p in range(1, m + 1)))
