"""The cold (12, 4) build the symbolic-cold workload runs in a fresh interpreter.

    python -m perfbench.child --out FILE --op N [--epmax P] [--mmax M] [--trace 0|1]

It imports ksumlab, builds E_1..E_epmax, S_13..S_mmax, the elimination
tables and the S_6 quadratic, prints "built" as soon as the build is done
and then writes the outputs the parent checks.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack
from pathlib import Path
from time import perf_counter


def build(args: argparse.Namespace) -> None:
    start = perf_counter()
    import ksumlab

    import_s = perf_counter() - start
    rec = None
    with ExitStack() as stack:
        if args.trace:
            from perfbench import spans

            rec = stack.enter_context(spans.installed(spans.Recorder()))
            stack.enter_context(rec.op_scope(args.op, "child.build"))
        e_polys = [ksumlab.e_expansion(p, 4, 12, True) for p in range(1, args.epmax + 1)]
        reduced = {m: ksumlab.macmahon_reduce(m, 12) for m in range(13, args.mmax + 1)}
        ksumlab.build_elimination_tables()
        quad = ksumlab.fourteenth_quadratic()
    print("built", flush=True)
    data = {
        "import_s": import_s,
        "e_lines": [f"E{p} = {e_polys[p - 1].render()}" for p in range(1, 15)],
        "macmahon": {m: poly.render() for m, poly in reduced.items()},
        "c2": quad.c2.render(),
        "c1": quad.c1.render(),
    }
    if rec is not None:
        data["trace"] = rec.dump()
    Path(args.out).write_text(json.dumps(data), encoding="utf-8")


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("--out", required=True)
    parser.add_argument("--op", type=int, required=True)
    parser.add_argument("--epmax", type=int, default=26)
    parser.add_argument("--mmax", type=int, default=26)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    build(parser.parse_args(argv))


if __name__ == "__main__":
    main(sys.argv[1:])
