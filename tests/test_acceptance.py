"""Acceptance gate: nine numbered end-to-end checks with hard runtime budgets.

Each test prints exactly one PASS or FAIL line for its criterion, routed
past pytest's capture so the verdicts always appear in the run log.  All
comparisons are exact rational equality; runtime limits use wall time.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from identity_tables import shipped_identities
from ksumlab.algebra import Poly, evar, svar
from ksumlab.cli import main as cli_main
from ksumlab.elimination import (
    REFERENCE_C1,
    REFERENCE_C2,
    fourteenth_quadratic,
    quadratic_at,
    residual_relations,
    s7_linear_condition,
    second_root,
    solve_quadratic,
)
from ksumlab.known import COLLISION_FIRST, COLLISION_SECOND, DOUBLE_ROOT_SET
from ksumlab.multisets import (
    affine_image,
    format_multiset,
    ksums,
    power_sum,
    power_sum_vector,
    PowerSumVector,
)
from ksumlab.multisets import parse_multiset
from ksumlab.search import SearchSpec, collision_class_key, find_collisions
from ksumlab.symfunc import _onto_sums, e_expansion, e_power_sums, macmahon_reduce

SECOND_ROOT_VALUE = Fraction(377762, 44361)


@pytest.fixture
def report(capsys):
    """One PASS/FAIL line per criterion, written past pytest's capture."""

    def _report(number: int, ok: bool, detail: str) -> None:
        line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def random_int_sets(seed: int, count: int, size: int = 12) -> list[tuple[Fraction, ...]]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        values = [rng.randint(-9, 9) for _ in range(size)]
        if len(set(values)) == 1:
            continue  # a constant set has S_2 = 0 after centering
        out.append(tuple(sorted(Fraction(v) for v in values)))
    return out


def test_criterion_1_known_pair_collides(report):
    start = time.perf_counter()
    left = ksums(COLLISION_FIRST, 4)
    right = ksums(COLLISION_SECOND, 4)
    elapsed = time.perf_counter() - start
    ok = left.sums == right.sums and len(left.sums) == 495 and elapsed < 1.0
    report(1, ok, f"4-sum multisets agree ({len(left.sums)} sums) in {elapsed:.3f}s, limit 1s")


def test_criterion_2_double_root_demo(report):
    start = time.perf_counter()
    table = format_multiset(ksums(DOUBLE_ROOT_SET, 4).sums)
    evalues = e_power_sums(DOUBLE_ROOT_SET, 4, 14)
    e_ok = all(
        evalues[p] == (0 if p % 2 else 240) for p in range(1, 15)
    )
    roots = solve_quadratic(*quadratic_at(evalues))
    elapsed = time.perf_counter() - start
    ok = (
        table == "-1^120 0^255 1^120"
        and e_ok
        and roots == (Fraction(2), SECOND_ROOT_VALUE)
        and elapsed < 10.0
    )
    report(2, ok, f"table {table!r}, roots {roots[0]} and {roots[1]} in {elapsed:.3f}s, limit 10s")


def test_criterion_3_identity_regression(report):
    start = time.perf_counter()
    table = shipped_identities()
    mismatches = [p for p, poly in table.items() if e_expansion(p, 4, 12, True) != poly]
    spot_ok = (
        e_expansion(2, 4, 12, True) == Poly.parse("120*S2")
        and e_expansion(3, 4, 12, True) == Poly.parse("48*S3")
        and e_expansion(6, 4, 12, True).coefficient({svar(6): 1}) == 0
        and e_expansion(12, 4, 12, True).coefficient({svar(12): 1}) == -2203488
        and len(e_expansion(14, 4, 12, True)) == 26
    )
    elapsed = time.perf_counter() - start
    ok = not mismatches and sorted(table) == list(range(1, 15)) and spot_ok and elapsed < 60.0
    report(
        3,
        ok,
        f"{len(table)} identities reproduced coefficient-for-coefficient "
        f"in {elapsed:.3f}s, limit 60s",
    )


def test_criterion_4_refutation_coefficients(report):
    quad = fourteenth_quadratic()
    key = quad.c1.coefficient({evar(2): 2, evar(4): 1})
    ok = (
        quad.c2 == REFERENCE_C2
        and quad.c1 == REFERENCE_C1
        and key == Fraction(4783550233, 119441640960)
    )
    report(4, ok, f"c2 and all six c1 coefficients exact; coef(E2^2*E4) = {key}")


def test_criterion_5_closed_form_fixtures(report):
    demo = second_root(power_sum_vector(DOUBLE_ROOT_SET, 8))

    def s7_coeff(s2, s3, s4, s5):
        vec = PowerSumVector((Fraction(0), Fraction(s2), Fraction(s3), Fraction(s4), Fraction(s5)))
        return s7_linear_condition(vec)

    coeff_ok = (
        s7_coeff(1, 1, 0, 0) == Fraction(-1494661249487, 4501080325368)
        and s7_coeff(1, 0, 0, 1) == Fraction(217002961, 417230286)
        and s7_coeff(0, 1, 1, 0) == Fraction(3678199, 2599908)
    )
    ok = demo == SECOND_ROOT_VALUE and coeff_ok
    report(5, ok, f"second root {demo} on the demo set; three S7 condition coefficients exact")


def onto_sums_direct(a, p, j):
    """Sum over j-subsets J and subsets T of J of (-1)^(j - |T|) (sum_T x)^p."""
    total = 0
    for chosen in combinations(a, j):
        for size in range(j + 1):
            for sub in combinations(chosen, size):
                total += (-1) ** (j - size) * sum(sub) ** p
    return total


def test_criterion_6_oracle_equivalence(report):
    start = time.perf_counter()
    rng = random.Random(260823)
    failures = 0
    for a in random_int_sets(260823, 20):
        env = {svar(i): power_sum(a, i) for i in range(1, 27)}
        direct = e_power_sums(a, 4, 26)
        for p in range(1, 27):
            if e_expansion(p, 4, 12, False).evaluate(env) != direct[p]:
                failures += 1
        for m in range(13, 27):
            if macmahon_reduce(m, 12).evaluate(env) != power_sum(a, m):
                failures += 1
        for _ in range(3):
            j = rng.randint(1, 5)
            p = rng.randint(j, 10)
            if _onto_sums(p, j, False).evaluate(env) != onto_sums_direct(a, p, j):
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 300.0
    report(
        6,
        ok,
        f"20 random 12-sets, {failures} oracle disagreements in {elapsed:.1f}s, limit 300s",
    )


def test_criterion_7_residual_certification(report):
    start = time.perf_counter()
    known_ok = True
    for a in (COLLISION_FIRST, COLLISION_SECOND):
        residuals = residual_relations(power_sum_vector(a, 12))
        known_ok = known_ok and len(residuals) == 13 and all(r == 0 for r in residuals)
    generic_ok = True
    for raw in random_int_sets(7007, 10):
        shift = -Fraction(sum(raw), len(raw))
        centered = affine_image(raw, Fraction(1), shift)
        residuals = residual_relations(power_sum_vector(centered, 12))
        generic_ok = generic_ok and any(r != 0 for r in residuals)
    elapsed = time.perf_counter() - start
    ok = known_ok and generic_ok and elapsed < 60.0
    report(
        7,
        ok,
        f"13 exact zeros for both known sets; nonzero residual on 10 random sets "
        f"in {elapsed:.1f}s, limit 60s",
    )


def test_criterion_8_search_rediscovery(report):
    start = time.perf_counter()
    sym = find_collisions(SearchSpec(12, 4, 8, symmetric_only=True))
    sym_elapsed = time.perf_counter() - start
    known = {tuple(sorted(COLLISION_FIRST)), tuple(sorted(COLLISION_SECOND))}
    sym_ok = (
        len(sym) == 1
        and {tuple(sorted(sym[0].first)), tuple(sorted(sym[0].second))} == known
        and sym_elapsed < 30.0
    )

    start = time.perf_counter()
    general = find_collisions(SearchSpec(4, 2, 7))
    target = collision_class_key(parse_multiset("0 3 5 6"), parse_multiset("1 2 4 7"))
    general_ok = any(
        collision_class_key(r.first, r.second) == target for r in general
    )
    empty = find_collisions(SearchSpec(5, 2, 6))
    general_elapsed = time.perf_counter() - start
    ok = sym_ok and general_ok and not empty and general_elapsed < 600.0
    report(
        8,
        ok,
        f"symmetric run: 1 class (the known pair) in {sym_elapsed:.1f}s, limit 30s; "
        f"general runs in {general_elapsed:.1f}s, limit 600s",
    )


def test_criterion_9_worker_determinism(report, tmp_path):
    outputs = {}
    for workers in (1, 2):
        sym_path = tmp_path / f"sym-w{workers}.jsonl"
        gen_path = tmp_path / f"gen-w{workers}.jsonl"
        code_sym = cli_main(
            ["search", "-n", "12", "-k", "4", "-B", "8", "--symmetric",
             "--workers", str(workers), "--out", str(sym_path)]
        )
        code_gen = cli_main(
            ["search", "-n", "4", "-k", "2", "-B", "7",
             "--workers", str(workers), "--out", str(gen_path)]
        )
        assert code_sym == 0 and code_gen == 0
        outputs[workers] = (sym_path.read_bytes(), gen_path.read_bytes())
    ok = outputs[1] == outputs[2]
    report(9, ok, "search outputs byte-identical across 1-worker and 2-worker runs")
