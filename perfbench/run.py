"""ksumlab benchmark: one workload per invocation, run from a checkout's root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

`import ksumlab` is timed once; then the workload is set up three times,
each time with every ksumlab cache emptied first, and set-up time is the
import plus the median set-up.  Ops then run back to back (a closed loop,
one client) for S seconds: the next op starts only while the median op so
far still fits.  Each op's output is checked against an oracle after its
clock stops, and op time is reported as the median over the ops.
With --trace 1 the run measures S/2 seconds untraced and S/2 seconds with
every layer wrapped in spans, prints the tracing overhead, writes the
spans to perfbench/out/ and reports the per-layer metrics instead.

The last line of stdout is the result JSON; the lines before it are the
human-readable report.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from math import ceil
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("symbolic-cold", "certify-warm", "search-sym", "search-general")
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_p50_ms": "ms"}


def environment() -> dict:
    load = os.getloadavg()
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg_start": load,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else None


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) for the highest percentile with at least ten
    samples beyond it, by nearest rank; None below 20 samples."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) - ceil(pct / 100 * len(values)) >= 10:
            return pct, percentile(values, pct)
    return None


def clear_caches() -> None:
    """Empty every lru_cache in ksumlab, so that the next set-up starts cold."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "ksumlab" or mod_name.startswith("ksumlab."):
            for value in vars(module).values():
                if isinstance(value, functools._lru_cache_wrapper):
                    value.cache_clear()


def timed_setups(workload, seed: int, sizes, tmp: Path, rec=None) -> tuple[dict, list[float]]:
    """Set up SETUP_REPEATS times from empty caches, traced when `rec` is
    given; returns the last state and every set-up time."""
    from perfbench import spans

    times = []
    for _ in range(SETUP_REPEATS):
        clear_caches()
        with spans.installed(rec) if rec else nullcontext():
            start = perf_counter()
            state = workload.setup(seed, sizes, tmp)
            times.append(perf_counter() - start)
    return state, times


def measure(workload, state: dict, seconds: float, rec) -> dict:
    """Run ops back to back for `seconds`, starting the next one only while
    the median op so far still fits; check each after its clock stops."""
    times: list[float] = []
    steps: dict[str, list[float]] = {}
    failures: list[str] = []
    attempted = 0
    start = perf_counter()
    while attempted == 0 or perf_counter() - start + statistics.median(times or [0.0]) <= seconds:
        attempted += 1
        try:
            with rec.op_scope(attempted, f"op.{workload.name}") if rec else nullcontext():
                result = workload.op(state, attempted, rec)
            times.append(result["op_s"])
            for key, value in result.get("steps", {}).items():
                steps.setdefault(key, []).append(value)
            problem = workload.check(state, result)
        except (Exception, SystemExit) as exc:
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            failures.append(problem)
    return {"times": times, "steps": steps, "failures": failures, "attempted": attempted,
            "wall_s": perf_counter() - start}


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(ceil(pct / 100 * len(ordered)), 1) - 1]


def end_to_end(phase: dict, setup_s: float) -> dict[str, float]:
    """The gated metrics: set-up time, peak memory and the median op."""
    times = phase["times"] or [phase["wall_s"] / phase["attempted"]]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "op_p50_ms": statistics.median(times) * 1000,
    }


def named_metrics(name: str, phase: dict, state: dict, e2e: dict) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics under the names the workload's users know."""
    times, steps = phase["times"], phase["steps"]
    out = {
        "setup_s": (e2e["setup_s"], "s"),
        "peak_rss_mb": (e2e["peak_rss_mb"], "MB"),
        "error_rate": (len(phase["failures"]) / phase["attempted"], "ratio"),
        "op_count": (len(times), "count"),
    }
    if not times:
        return out
    out["op_p50_ms"] = (e2e["op_p50_ms"], "ms")
    high = tail(times)
    if high:
        out[f"op_p{high[0]:g}_ms"] = (high[1] * 1000, "ms")
    if name == "symbolic-cold":
        out["cold_build_s"] = (statistics.median(times), "s")
    elif name == "certify-warm":
        out["certify_per_s"] = (len(times) / sum(times), "1/s")
        out["certify_p50_ms"] = (statistics.median(times) * 1000, "ms")
        if high:
            out[f"certify_p{high[0]:g}_ms"] = (high[1] * 1000, "ms")
    elif name == "search-sym":
        out["search_candidates_per_s"] = (state["candidates"] / statistics.median(steps["fresh_s"]), "1/s")
        out["resume_s"] = (statistics.median(steps["resume_s"]), "s")
    elif name == "search-general":
        out["search_candidates_per_s"] = (state["candidates"] / statistics.median(times), "1/s")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, import_s: float,
                 sizes: str = "full", log=print) -> dict:
    """Run one workload; returns the report (the contract result is under "result")."""
    from perfbench import spans, workloads

    env = environment()
    workload = workloads.WORKLOADS[name]
    workloads.OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=workloads.OUT))
    try:
        phase_seconds = seconds / 2 if trace else seconds
        if trace:
            _, traced_setups = timed_setups(workload, seed, workloads.SIZES[sizes], tmp, spans.Recorder())
        state, setups = timed_setups(workload, seed, workloads.SIZES[sizes], tmp)
        plain = measure(workload, state, phase_seconds, None)
        e2e = end_to_end(plain, import_s + statistics.median(setups))
        phases = [plain]
        report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                  "env": env, "import_s": import_s, "setup_times_s": setups, "end_to_end": e2e,
                  "named": named_metrics(name, plain, state, e2e)}
        if trace:
            workers = tmp / "workers"
            workers.mkdir()
            rec = spans.Recorder(worker_dir=workers)
            with spans.installed(rec):
                traced = measure(workload, state, phase_seconds, rec)
            phases.append(traced)
            e2e_traced = end_to_end(traced, import_s + statistics.median(traced_setups))
            report["overhead"] = {k: e2e_traced[k] - e2e[k] for k in e2e}
            report["end_to_end_traced"] = e2e_traced
            report["per_layer"] = spans.layer_metrics(rec, traced["attempted"], {"package.import_s": import_s})
            report["spans_file"] = str(_write_spans(rec, name, seed, workloads.OUT))
        report["op_times_s"] = plain["times"]
        report["op_steps_s"] = plain["steps"]
        failures = [f for phase in phases for f in phase["failures"]]
        report["failures"] = failures[:20]
        metrics = report["per_layer"] if trace else e2e
        unit = spans.unit if trace else E2E_UNITS.get
        report["result"] = {
            "correct": not failures,
            "attempted": sum(phase["attempted"] for phase in phases),
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
        }
        _print_report(report, log)
        out = workloads.OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json"
        out.write_text(json.dumps(report, indent=1, default=str), encoding="utf-8")
        return report
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _write_spans(rec, name: str, seed: int, out_dir: Path) -> Path:
    path = out_dir / f"spans-{name}-seed{seed}.jsonl"
    keys = ("id", "name", "start", "end", "parent", "op", "pid", "self_s")
    with open(path, "w", encoding="utf-8") as out:
        for span in rec.spans:
            out.write(json.dumps(dict(zip(keys, span))) + "\n")
    return path


def _print_report(report: dict, log) -> None:
    env = report["env"]
    log(f"workload {report['workload']}  seed {report['seed']}  seconds {report['seconds']}"
        f"  trace {int(report['trace'])}")
    log(f"env python {env['python']}  nproc {env['nproc']}  cpu {env['cpu_model']}"
        f"  load {' '.join(f'{x:.2f}' for x in env['loadavg_start'])}"
        f"  commit {env['git_commit']}  src {env['src_sha256'][:12]}")
    for key, (value, unit) in report["named"].items():
        log(f"  {key} = {value:.6g} {unit}")
    for key, value in report.get("per_layer", {}).items():
        log(f"  per_layer {key} = {value:.6g}")
    for key, value in report.get("overhead", {}).items():
        base = report["end_to_end"][key]
        log(f"  tracing overhead {key} = {value:+.6g} {E2E_UNITS[key]} ({value / base:+.1%})")
    for failure in report["failures"]:
        log(f"  FAILED: {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "ksumlab" / "__init__.py").is_file():
        print(f"error: no ksumlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    start = perf_counter()
    import ksumlab

    import_s = perf_counter() - start
    if Path(ksumlab.__file__).resolve().parent != ROOT / "src" / "ksumlab":
        print(f"error: ksumlab imported from {ksumlab.__file__}, not this checkout", file=sys.stderr)
        return 2
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
