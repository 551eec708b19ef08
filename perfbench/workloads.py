"""The four benchmark workloads: set-up, one timed op, and its output check.

Each workload's `op` returns a dict with the op's wall time in "op_s",
optional sub-step times in "steps", and the outputs that `check` compares
with the oracles after the clock has stopped.  `check` returns None for a
correct output and a one-line reason otherwise.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from pathlib import Path
from time import perf_counter

import ksumlab
from ksumlab import cli

from . import oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKERS = 2  # search-general's pool size


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the benchmark always runs "full", its tests "tiny"."""

    epmax: int = 26                         # symbolic-cold: E_1..E_epmax
    mmax: int = 26                          # symbolic-cold: S_13..S_mmax reduced
    sym: tuple = (12, 4, 8)                 # search-sym (n, k, B)
    general: tuple = ((8, 2, 8), (6, 3, 8))  # search-general specs


SIZES = {
    "full": Sizes(),
    "tiny": Sizes(epmax=14, mmax=14, sym=(8, 2, 3), general=((8, 2, 4), (5, 2, 3))),
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")) if p
    )
    return env


# -- symbolic-cold ---------------------------------------------------------------


class SymbolicCold:
    """A fresh interpreter imports ksumlab and builds the closed (12, 4) system."""

    name = "symbolic-cold"

    @staticmethod
    def setup(seed: int, sizes: Sizes, tmp: Path) -> dict:
        rng = random.Random(seed)
        check_set = [rng.randint(-9, 9) for _ in range(12)]
        return {
            "sizes": sizes,
            "tmp": tmp,
            "fixture": oracles.fixture_lines(),
            "c2": oracles.parse_poly(oracles.REFERENCE_C2),
            "c1": oracles.parse_poly(oracles.REFERENCE_C1),
            "check_set": check_set,
            "check_sums": oracles.power_sums(check_set, sizes.mmax),
        }

    @staticmethod
    def op(state: dict, op_id: int, rec) -> dict:
        sizes = state["sizes"]
        out = state["tmp"] / f"build-{op_id}.json"
        cmd = [
            sys.executable, "-m", "perfbench.child", "--out", str(out), "--op", str(op_id),
            "--epmax", str(sizes.epmax), "--mmax", str(sizes.mmax), "--trace", "1" if rec else "0",
        ]
        start = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True) as proc:
            signal = proc.stdout.readline()
            built = perf_counter()
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or signal.strip() != "built":
            raise RuntimeError(f"cold build child exited {code}")
        data = json.loads(out.read_text(encoding="utf-8"))
        out.unlink()
        if rec is not None:
            rec.absorb(data.pop("trace"), op_id)
        return {"op_s": built - start, "steps": {"import_s": data["import_s"]}, "data": data}

    @staticmethod
    def check(state: dict, result: dict) -> str | None:
        data = result["data"]
        if oracles.parse_poly(data["c2"]) != state["c2"]:
            return "c2 differs from the reference"
        if oracles.parse_poly(data["c1"]) != state["c1"]:
            return "c1 differs from the reference"
        if data["e_lines"] != state["fixture"]:
            return "E_1..E_14 renderings differ from the fixture"
        for m, text in data["macmahon"].items():
            m = int(m)
            got = oracles.evaluate(oracles.parse_poly(text), state["check_sums"])
            if got != state["check_sums"][f"S{m}"]:
                return f"macmahon_reduce({m}, 12) disagrees with the direct power sum"
        if len(data["macmahon"]) != state["sizes"].mmax - 12:
            return "missing MacMahon reductions"
        return None


# -- certify-warm ----------------------------------------------------------------


def certify_inputs(seed: int):
    """Seeded 12-element integer sets in [-9, 9]; in every block of 50 the
    first three slots hold the known pair and the demo set."""
    rng = random.Random(seed)
    fixed = {0: ("known", oracles.KNOWN_FIRST), 1: ("known", oracles.KNOWN_SECOND), 2: ("demo", oracles.DEMO_SET)}
    for i in count():
        if i % 50 in fixed:
            yield fixed[i % 50]
            continue
        values = tuple(rng.randint(-9, 9) for _ in range(12))
        while len(set(values)) == 1:
            values = tuple(rng.randint(-9, 9) for _ in range(12))
        yield "random", values


def _certify(values) -> dict:
    centred = ksumlab.affine_image(ksumlab.as_multiset(values), 1, -Fraction(sum(values), len(values)))
    s = ksumlab.power_sum_vector(centred, 12)
    residuals = ksumlab.residual_relations(s)
    q = ksumlab.quadratic_at(ksumlab.e_power_sums(centred, 4, 14))
    try:
        roots = ksumlab.solve_quadratic(*q)
    except ValueError:
        roots = None
    return {"residuals": residuals, "q": q, "roots": roots}


class CertifyWarm:
    """Certify one seeded candidate set with warm caches."""

    name = "certify-warm"

    @staticmethod
    def setup(seed: int, sizes: Sizes, tmp: Path) -> dict:
        _certify(oracles.DEMO_SET)  # fills the symbolic caches
        known = {oracles.set_class(oracles.KNOWN_FIRST), oracles.set_class(oracles.KNOWN_SECOND)}
        return {"inputs": certify_inputs(seed), "known_classes": known}

    @staticmethod
    def op(state: dict, op_id: int, rec) -> dict:
        kind, values = next(state["inputs"])
        start = perf_counter()
        out = _certify(values)
        elapsed = perf_counter() - start
        return {"op_s": elapsed, "kind": kind, "values": values, **out}

    @staticmethod
    def check(state: dict, result: dict) -> str | None:
        a, b, c = result["q"]
        s6 = oracles.centred_s6(result["values"])
        if a * s6 * s6 + b * s6 + c != 0:
            return f"own S6 is not a root of the quadratic for {result['values']}"
        roots, residuals = result["roots"], result["residuals"]
        if roots is None or s6 not in roots:
            return f"solve_quadratic missed the own root for {result['values']}"
        if len(residuals) != 13:
            return f"{len(residuals)} residuals instead of 13"
        if result["kind"] == "known":
            if any(residuals) or tuple(roots) != oracles.KNOWN_ROOTS:
                return f"known set {result['values']} not certified"
        elif result["kind"] == "demo":
            if tuple(roots) != oracles.DEMO_ROOTS or not any(residuals):
                return "demo set roots or residuals wrong"
        else:
            partnered = roots[0] == roots[-1] or oracles.set_class(result["values"]) in state["known_classes"]
            if any(residuals) == partnered:
                return f"residuals of {result['values']} are {'nonzero' if partnered else 'all zero'}"
        return None


# -- search-sym ------------------------------------------------------------------


class SearchSym:
    """The CLI symmetric search, fresh, then resumed from half its checkpoint."""

    name = "search-sym"

    @staticmethod
    def setup(seed: int, sizes: Sizes, tmp: Path) -> dict:
        n, k, bound = sizes.sym
        classes, candidates = oracles.collision_classes(n, k, bound, symmetric=True)
        argv = ["search", "-n", str(n), "-k", str(k), "-B", str(bound), "--symmetric",
                "--resume", str(tmp / "search.ckpt")]
        exact = oracles.SYMMETRIC_B8_OUTPUT if sizes.sym == (12, 4, 8) else None
        return {"tmp": tmp, "argv": argv, "classes": classes, "candidates": candidates,
                "exact": exact}

    @staticmethod
    def op(state: dict, op_id: int, rec) -> dict:
        tmp, argv = state["tmp"], state["argv"]
        ckpt, fresh, resumed = tmp / "search.ckpt", tmp / "fresh.jsonl", tmp / "resumed.jsonl"
        for path in (ckpt, fresh, resumed):
            path.unlink(missing_ok=True)
        with redirect_stderr(io.StringIO()):
            start = perf_counter()
            code_fresh = cli.main(argv + ["--out", str(fresh)])
            fresh_s = perf_counter() - start
        ckpt_bytes = ckpt.stat().st_size
        lines = [line for line in ckpt.read_text(encoding="utf-8").splitlines(keepends=True) if line.strip()]
        chunks = lines[1:]
        kept = chunks[: len(chunks) // 2]
        ckpt.write_text("".join(lines[:1] + kept), encoding="utf-8")
        with redirect_stderr(io.StringIO()):
            start = perf_counter()
            code_resumed = cli.main(argv + ["--out", str(resumed)])
            resume_s = perf_counter() - start
        if rec is not None:
            rec.counts["search.checkpoint_bytes"] += ckpt_bytes
            rec.counts["search.chunks_resumed"] += len(kept)
        return {
            "op_s": fresh_s + resume_s,
            "steps": {"fresh_s": fresh_s, "resume_s": resume_s},
            "codes": (code_fresh, code_resumed),
            "fresh": fresh.read_text(encoding="utf-8"),
            "resumed": resumed.read_text(encoding="utf-8"),
        }

    @staticmethod
    def check(state: dict, result: dict) -> str | None:
        expected_code = 0 if state["classes"] else 1
        if result["codes"] != (expected_code, expected_code):
            return f"exit codes {result['codes']}, expected {expected_code}"
        if result["fresh"] != result["resumed"]:
            return "resumed output differs from the fresh output"
        if state["exact"] is not None and result["fresh"] != state["exact"]:
            return "output differs from the documented record line"
        records = [json.loads(line) for line in result["fresh"].splitlines()]
        got = [oracles.pair_class(r["first"], r["second"]) for r in records]
        if len(got) != len(set(got)) or set(got) != state["classes"]:
            return "record classes differ from the brute-force oracle"
        return None


# -- search-general --------------------------------------------------------------


class SearchGeneral:
    """General-mode find_collisions over two fixed spaces with a worker pool."""

    name = "search-general"

    @staticmethod
    def setup(seed: int, sizes: Sizes, tmp: Path) -> dict:
        specs = [ksumlab.SearchSpec(n, k, bound) for n, k, bound in sizes.general]
        oracle = [oracles.collision_classes(n, k, bound, symmetric=False) for n, k, bound in sizes.general]
        return {
            "specs": specs,
            "classes": [classes for classes, _ in oracle],
            "candidates": sum(cands for _, cands in oracle),
        }

    @staticmethod
    def op(state: dict, op_id: int, rec) -> dict:
        start = perf_counter()
        found = [ksumlab.find_collisions(spec, workers=WORKERS) for spec in state["specs"]]
        elapsed = perf_counter() - start
        if rec is not None:
            rec.absorb_workers()
        return {"op_s": elapsed, "records": found}

    @staticmethod
    def check(state: dict, result: dict) -> str | None:
        for spec, records, expected in zip(state["specs"], result["records"], state["classes"]):
            got = [oracles.pair_class(r.first, r.second) for r in records]
            if len(got) != len(set(got)) or set(got) != expected:
                return f"record classes for {spec} differ from the brute-force oracle"
        return None


WORKLOADS = {w.name: w for w in (SymbolicCold, CertifyWarm, SearchSym, SearchGeneral)}
