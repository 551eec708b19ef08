"""Command-line front end.

Subcommands mirror the pipeline stages: ksums, collide, expand,
eliminate, search.  All numeric output is exact rational text.  Exit
codes: 0 success/affirmative, 1 checked-and-negative, 2 usage or input
error.

Set arguments are literals like "1 -2 3/4 0^10"; an argument of the form
@path reads sets from a file instead, one set per line ('#' comments and
blank lines skipped), and expands to those sets in order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache

from .algebra import Monomial, Poly, svar
from .elimination import (
    K_SUM,
    N_ELEMENTS,
    build_elimination_tables,
    coefficient_report,
    compare_coefficients,
    fourteenth_quadratic,
    quadratic_at,
    residual_equation_indices,
    residual_relations,
    second_root,
    solve_quadratic,
)
from .known import DOUBLE_ROOT_SET
from .multisets import (
    NumberMultiset,
    _power_sums,
    centred_numerators,
    format_runs,
    ksums,
    parse_multiset,
)
from .symfunc import (
    e_expansion,
    e_power_sums,
    load_identity_fixtures,
)

USAGE_ERROR = 2
NEGATIVE = 1
OK = 0

# The residuals take time that grows with the bit length of the centred numerators
# and of their denominator: 0.07 to 0.08 s at 500 bits (12 integers of 150 digits),
# 0.24 to 0.26 s at 1000, 0.55 to 0.62 s at 1660, and 0.11 to 25 s over a denominator
# of 13200 bits (in-process `residual_relations`, Python 3.11, 2 vCPUs).
MAX_CERTIFY_BITS = 1024


def _resolve_set_args(raw: list[str]) -> list[NumberMultiset]:
    """Expand literals and @file references into a flat list of sets."""
    out: list[NumberMultiset] = []
    for item in raw:
        if item.startswith("@"):
            with open(item[1:], "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if line and not line.startswith("#"):
                        out.append(parse_multiset(line))
        else:
            out.append(parse_multiset(item))
    return out


def cmd_ksums(args: argparse.Namespace) -> int:
    sets = _resolve_set_args([args.set])
    if len(sets) != 1:
        raise ValueError("ksums expects exactly one set")
    sums = ksums(sets[0], args.k)
    runs = sums.runs()
    if args.json:
        values: list = []
        for value, count in runs:
            values += [_json_number(value)] * count
        print(json.dumps({"n": sums.source_n, "k": sums.source_k, "sums": values}))
    else:
        print(format_runs(runs))
    return OK


def cmd_collide(args: argparse.Namespace) -> int:
    raw = [args.first] if args.second is None else [args.first, args.second]
    sets = _resolve_set_args(raw)
    if len(sets) != 2:
        raise ValueError("collide expects exactly two sets")
    first, second = sets
    if len(first) != len(second):
        raise ValueError("sets have different sizes")
    sums_a = ksums(first, args.k)
    sums_b = ksums(second, args.k)
    if sums_a == sums_b:
        print(f"EQUAL ({len(sums_a.numerators)} sums)")
        return OK
    den_a, den_b = sums_a.denominator, sums_b.denominator
    x, y = next((x, y) for x, y in zip(sums_a.numerators, sums_b.numerators) if x * den_b != y * den_a)
    print(f"DIFFER: first differing sum {Fraction(x, den_a)} vs {Fraction(y, den_b)}")
    return NEGATIVE


def _fixture_polys() -> dict[int, Poly]:
    override = os.environ.get("KSUMLAB_FIXTURES")
    if override:
        with open(override, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    else:
        from importlib import resources

        text = resources.files("ksumlab").joinpath("fixtures/identities_k4_n12.txt").read_text()
        lines = text.splitlines()
    return load_identity_fixtures(lines)


def cmd_expand(args: argparse.Namespace) -> int:
    if args.check_fixtures and (args.n, args.k) != (N_ELEMENTS, K_SUM):
        raise ValueError(
            f"the reference table is for n = {N_ELEMENTS}, k = {K_SUM}, not n = {args.n}, k = {args.k}"
        )
    poly = e_expansion(args.p, args.k, args.n, args.s1_zero or args.check_fixtures)
    if not args.check_fixtures:
        print(f"E{args.p} = {poly.render()}")
        return OK
    try:
        fixtures = _fixture_polys()
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load fixtures: {exc}") from exc
    if args.p not in fixtures:
        raise ValueError(f"no fixture for p={args.p}")
    # always report S_p itself: its vanishing (as in E_6) is the headline case
    lines, all_ok = compare_coefficients(poly, fixtures[args.p], always=[Monomial({svar(args.p): 1})])
    for line in lines:
        print(line)
    print(f"E{args.p}: {'all coefficients OK' if all_ok else 'coefficient MISMATCH'}")
    return OK if all_ok else NEGATIVE


def _prepared_power_sums(raw_set: str, quantity: str):
    sets = _resolve_set_args([raw_set])
    if len(sets) != 1:
        raise ValueError("expected exactly one set")
    if len(sets[0]) != N_ELEMENTS:
        raise ValueError(f"set must have exactly {N_ELEMENTS} elements, got {len(sets[0])}")
    numerators, den = centred_numerators(sets[0])
    bits = max(den, *map(abs, numerators)).bit_length()
    if bits > MAX_CERTIFY_BITS:
        raise ValueError(f"the centred set has numbers of {bits} bits, more than the {MAX_CERTIFY_BITS} allowed")
    total = sum(sets[0])
    if total:
        print(f"note: input shifted by {-total / N_ELEMENTS} so that S_1 = 0", file=sys.stderr)
    if len(set(sets[0])) == 1:  # all equal, so every centred element is 0
        raise ValueError(f"S_2 = 0, {quantity} undefined")
    return _power_sums(numerators, den, N_ELEMENTS)


def cmd_eliminate(args: argparse.Namespace) -> int:
    if args.verify_coefficients:
        lines, all_ok = coefficient_report()
        for line in lines:
            print(line)
        print("quadratic coefficients: " + ("all OK" if all_ok else "MISMATCH"))
        return OK if all_ok else NEGATIVE

    if args.example1:
        evalues = e_power_sums(DOUBLE_ROOT_SET, K_SUM, fourteenth_quadratic().index)
        roots = solve_quadratic(*quadratic_at(evalues))
        print("roots: " + ", ".join(str(r) for r in roots))
        return OK

    if args.second_root is not None:
        value = second_root(_prepared_power_sums(args.second_root, "second root"))
        print(f"S{build_elimination_tables().free}'' = {value}")
        return OK
    values = residual_relations(_prepared_power_sums(args.residuals, "residuals"))
    all_zero = True
    for index, value in zip(residual_equation_indices(), values):
        all_zero &= value == 0
        print(f"residual[{index}] = {value}")
    print("ALL ZERO" if all_zero else "NONZERO RESIDUALS")
    return OK if all_zero else NEGATIVE


def _json_number(value: Fraction):
    return int(value) if value.denominator == 1 else str(value)


def _same_file(first: str, second: str) -> bool:
    """Whether two paths name one file: by inode when both exist, by resolved path otherwise."""
    if os.path.exists(first) and os.path.exists(second):
        return os.path.samefile(first, second)
    return os.path.realpath(first) == os.path.realpath(second)


def cmd_search(args: argparse.Namespace) -> int:
    from .search import SearchSpec, find_collisions

    spec = SearchSpec(n=args.n, k=args.k, bound=args.bound, symmetric_only=args.symmetric)
    if args.out and args.resume and _same_file(args.out, args.resume):
        raise ValueError(f"--out {args.out} and --resume {args.resume} name the same file")
    # opened now so a bad path fails at once, emptied only on success
    sink = open(args.out, "a", encoding="utf-8") if args.out else sys.stdout
    try:
        records = find_collisions(spec, workers=args.workers, checkpoint=args.resume)
        if sink is not sys.stdout and sink.seekable():  # a pipe cannot be truncated
            sink.truncate(0)
        for record in records:
            line = json.dumps(
                {
                    "first": [_json_number(v) for v in record.first],
                    "second": [_json_number(v) for v in record.second],
                    "k": record.k,
                }
            )
            print(line, file=sink)
    finally:
        if sink is not sys.stdout:
            sink.close()
    print(f"{len(records)} collision record(s)", file=sys.stderr)
    return OK if records else NEGATIVE


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built at the first call.  Each subcommand
    runs ``cmd_<name>``, looked up when it runs, so the parser holds no handler."""
    parser = argparse.ArgumentParser(
        prog="ksumlab",
        description="Exact tools for reconstructing integer multisets from k-sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ksums = sub.add_parser("ksums", help="print the sorted k-sum multiset")
    p_ksums.add_argument("set", help='set literal like "1 -2 0^3" or @file')
    p_ksums.add_argument("-k", type=int, required=True, help="sum arity")
    p_ksums.add_argument("--json", action="store_true", help="machine-readable output")

    p_collide = sub.add_parser("collide", help="compare the k-sum multisets of two sets")
    p_collide.add_argument("first", help="first set literal or @file")
    p_collide.add_argument(
        "second",
        nargs="?",
        help="second set literal or @file; omit when the first @file holds both",
    )
    p_collide.add_argument("-k", type=int, required=True, help="sum arity")

    p_expand = sub.add_parser(
        "expand", help="expand the p-th power sum of all k-sums in S-variables"
    )
    p_expand.add_argument("p", type=int, help="power sum index")
    p_expand.add_argument("-k", type=int, default=K_SUM, help=f"sum arity (default {K_SUM})")
    p_expand.add_argument("-n", type=int, default=N_ELEMENTS, help=f"set size (default {N_ELEMENTS})")
    p_expand.add_argument(
        "--s1-zero", action="store_true", help="specialize S_1 = 0 before printing"
    )
    p_expand.add_argument(
        "--check-fixtures",
        action="store_true",
        help="compare against the bundled reference identities (implies --s1-zero;"
        " KSUMLAB_FIXTURES overrides the fixture file)",
    )

    p_elim = sub.add_parser("eliminate", help="quadratic, second root and residual checks")
    group = p_elim.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--verify-coefficients",
        action="store_true",
        help="check the generated S_6 quadratic against reference coefficients",
    )
    group.add_argument(
        "--example1",
        action="store_true",
        help="roots of the quadratic for the set {-1, 0^10, 1}",
    )
    group.add_argument("--second-root", metavar="SET", help="print S_6'' for a set")
    group.add_argument(
        "--residuals", metavar="SET", help="print the exact compatibility residuals"
    )

    p_search = sub.add_parser("search", help="bounded exhaustive collision search")
    p_search.add_argument("-n", type=int, required=True, help="set size")
    p_search.add_argument("-k", type=int, required=True, help="sum arity")
    p_search.add_argument("-B", "--bound", type=int, required=True, help="value bound")
    p_search.add_argument(
        "--symmetric", action="store_true", help="negation-symmetric sets only"
    )
    p_search.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="parallel workers: this process and N - 1 forked children (more than 1 needs Linux)",
    )
    p_search.add_argument("--resume", metavar="FILE", help="checkpoint file")
    p_search.add_argument("--out", metavar="FILE", help="write records here instead of stdout")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Exact results can have more digits than the interpreter converts to text by default.
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError) as exc:  # the one usage-error boundary
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
