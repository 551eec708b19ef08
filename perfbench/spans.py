"""Span tracing of ksumlab from outside the package.

`installed(recorder)` replaces every public function of the layer modules,
and the arithmetic, substitution and evaluation methods of `Poly`, with
wrappers that record a span per call: name, start, end, parent span, op
id and process.  Names are bound by identity in every ksumlab module, so
calls made through `from .x import f` copies are caught too.  Spans stay
in memory; `layer_metrics` turns them into the per-layer metrics.

In a forked worker process the recorder starts an empty span stack (its
spans are roots, so the parent's self time keeps the time it waited) and
appends each finished root span, one per chunk of candidates, to a
per-process file, because pool workers are terminated rather than allowed
to exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

LAYERS = ("algebra", "multisets", "symfunc", "elimination", "search", "cli")

# Private functions wrapped as well.  search._chunk_pairs keys one chunk of
# candidates; in a pool worker it is the root span, so a worker flushes its
# spans once per chunk rather than once per ksums call.
PRIVATE = {"search": ("_chunk_pairs",)}

# Poly methods grouped as the layer metrics name them.
POLY_METHODS = {
    "__mul__": "mul", "__rmul__": "mul",
    "__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add", "__neg__": "add",
    "__pow__": "pow", "__truediv__": "truediv",
    "substitute": "substitute", "evaluate": "evaluate",
}

# Spans whose result or arguments carry a count the metrics need.
_POLY_RESULT = {"algebra.mul", "algebra.add", "algebra.substitute"}


class Recorder:
    """In-memory spans and counts for one traced run."""

    def __init__(self, worker_dir: Path | None = None):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op, pid, self_s)
        self.stack: list[list] = []   # [id, name, start, child_time]
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.macmahon_terms: dict[tuple, int] = {}
        self.op: int | None = None
        self.pid = os.getpid()
        self.in_worker = False
        self.worker_dir = worker_dir
        self._next = 0

    # -- span bookkeeping --------------------------------------------------

    def open(self, name: str) -> list:
        self._next += 1
        frame = [f"{self.pid}:{self._next}", name, perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = perf_counter()
        self.stack.pop()
        duration = end - frame[2]
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append(
            (frame[0], frame[1], frame[2], end, parent[0] if parent else None,
             self.op, self.pid, duration - frame[3])
        )
        if parent is None and self.in_worker:
            self._flush_worker()

    def fail(self, name: str, exc: BaseException) -> None:
        """Count an exception once, at the innermost span it escaped."""
        if getattr(exc, "_perfbench_counted", False):
            return
        exc._perfbench_counted = True
        if name == "elimination.solve_quadratic" and isinstance(exc, ValueError):
            self.counts["elimination.irrational_roots"] += 1
        else:
            self.counts[name.split(".")[0] + ".errors"] += 1

    @contextmanager
    def op_scope(self, op_id: int, name: str):
        """A root span per op; everything the op calls nests under it."""
        self.op = op_id
        frame = self.open(name)
        try:
            yield
        finally:
            self.close(frame)
            self.op = None

    # -- forked workers ----------------------------------------------------

    def after_fork(self) -> None:
        self.spans, self.stack = [], []
        self.counts, self.maxima = Counter(), Counter()
        self.pid = os.getpid()
        self.in_worker = True

    def _flush_worker(self) -> None:
        if self.worker_dir is None:
            return
        path = self.worker_dir / f"worker-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps({"span": span}) + "\n")
            out.write(json.dumps({"counts": self.counts, "maxima": self.maxima}) + "\n")
        self.spans = []
        self.counts, self.maxima = Counter(), Counter()

    def absorb_workers(self) -> None:
        """Merge the spans and counts that forked workers wrote out."""
        if self.worker_dir is None:
            return
        for path in sorted(self.worker_dir.glob("worker-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                item = json.loads(line)
                if "span" in item:
                    self.spans.append(tuple(item["span"]))
                else:
                    self.counts.update(item["counts"])
                    for key, value in item["maxima"].items():
                        self.maxima[key] = max(self.maxima[key], value)
            path.unlink()

    # -- serialisation for the cold-build child ----------------------------

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": self.counts,
            "maxima": self.maxima,
            "macmahon_terms": [[list(k), v] for k, v in self.macmahon_terms.items()],
        }

    def absorb(self, data: dict, op_id: int) -> None:
        for span in data["spans"]:
            self.spans.append(tuple(span[:5]) + (op_id,) + tuple(span[6:]))
        self.counts.update(data["counts"])
        for key, value in data["maxima"].items():
            self.maxima[key] = max(self.maxima[key], value)
        for key, value in data["macmahon_terms"]:
            self.macmahon_terms[(op_id, *key)] = value


# -- wrappers ---------------------------------------------------------------


def _observe(rec: Recorder, name: str, args: tuple, result) -> None:
    """Counts taken at a span's boundary, inside its own time."""
    if name in _POLY_RESULT:
        rec.maxima["algebra.max_terms"] = max(rec.maxima["algebra.max_terms"], len(result))
        bits = max(
            (max(c.numerator.bit_length(), c.denominator.bit_length()) for _, c in result),
            default=0,
        )
        rec.maxima["algebra.max_coeff_bits"] = max(rec.maxima["algebra.max_coeff_bits"], bits)
    elif name == "symfunc.macmahon_reduce":
        rec.macmahon_terms[(rec.op, *args)] = len(result)
    elif name == "search.dedupe_records":
        rec.counts["search.records_raw"] += len(args[0])
        rec.counts["search.records"] += len(result)


def _wrap(fn, name: str, rec: Recorder):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame = rec.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    rec.close(frame)
                    return
                except BaseException as exc:
                    rec.fail(name, exc)
                    rec.close(frame)
                    raise
                rec.counts[name + ".yields"] += 1
                rec.close(frame)
                yield item
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = rec.open(name)
        rec.counts[name + ".calls"] += 1
        try:
            result = fn(*args, **kwargs)
            _observe(rec, name, args, result)
            return result
        except BaseException as exc:
            rec.fail(name, exc)
            raise
        finally:
            rec.close(frame)

    for attr in ("cache_info", "cache_clear"):
        if hasattr(fn, attr):
            setattr(wrapper, attr, getattr(fn, attr))
    return wrapper


def _public_functions(module) -> dict[str, object]:
    out = {}
    for attr, value in vars(module).items():
        if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value) or isinstance(value, functools._lru_cache_wrapper):
            out[attr] = value
    return out


@contextmanager
def installed(rec: Recorder):
    """Wrap the layer functions and Poly methods for the duration."""
    from ksumlab import algebra

    originals: dict[int, tuple[object, object]] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"ksumlab.{layer}")
        functions = _public_functions(module)
        functions.update((attr, getattr(module, attr)) for attr in PRIVATE.get(layer, ()))
        for attr, fn in functions.items():
            originals[id(fn)] = (fn, _wrap(fn, f"{layer}.{attr}", rec))
    patched: list[tuple[object, str, object]] = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "ksumlab" and not mod_name.startswith("ksumlab."):
            continue
        for attr, value in list(vars(module).items()):
            entry = originals.get(id(value))
            if entry is not None and entry[0] is value:
                patched.append((module, attr, value))
                setattr(module, attr, entry[1])
    for method, group in POLY_METHODS.items():
        fn = algebra.Poly.__dict__[method]
        patched.append((algebra.Poly, method, fn))
        setattr(algebra.Poly, method, _wrap(fn, f"algebra.{group}", rec))
    os.register_at_fork(after_in_child=rec.after_fork)
    try:
        yield rec
    finally:
        for owner, attr, value in reversed(patched):
            setattr(owner, attr, value)


# -- per-layer metrics ----------------------------------------------------------

# metric name -> span names whose per-op self time it sums ("x.*" is a prefix)
SELF_TIME = {
    "algebra.mul_self_s": ("algebra.mul",),
    "algebra.add_self_s": ("algebra.add",),
    "algebra.substitute_self_s": ("algebra.substitute",),
    "algebra.evaluate_self_s": ("algebra.evaluate",),
    "symfunc.e_expansion_self_s": ("symfunc.e_expansion",),
    "symfunc.macmahon_reduce_self_s": ("symfunc.macmahon_reduce",),
    "symfunc.newton_extend_self_s": ("symfunc.newton_extend",),
    "symfunc.e_power_sums_self_s": ("symfunc.e_power_sums",),
    "elimination.tables_self_s": ("elimination.build_elimination_tables",),
    "elimination.quadratic_self_s": ("elimination.fourteenth_quadratic",),
    "elimination.residual_relations_self_s": ("elimination.residual_relations",),
    "elimination.quadratic_at_self_s": ("elimination.quadratic_at",),
    "multisets.ksums_self_s": ("multisets.ksums",),
    "multisets.power_sum_self_s": ("multisets.power_sum", "multisets.power_sum_vector"),
    "multisets.normalize_affine_self_s": ("multisets.normalize_affine",),
    "search.enumerate_self_s": ("search.enumerate_candidates",),
    "search.key_self_s": ("search._chunk_pairs",),
    "search.find_collisions_self_s": ("search.find_collisions",),
    "search.dedupe_self_s": ("search.dedupe_records",),
    "cli.main_self_s": ("cli.main", "cli.cmd_*"),
}
# metric name -> the count it reports per op
COUNTS = {
    "algebra.mul_calls": "algebra.mul.calls",
    "algebra.add_calls": "algebra.add.calls",
    "algebra.substitute_calls": "algebra.substitute.calls",
    "algebra.evaluate_calls": "algebra.evaluate.calls",
    "multisets.ksums_calls": "multisets.ksums.calls",
    "multisets.normalize_affine_calls": "multisets.normalize_affine.calls",
    "search.candidates": "search.enumerate_candidates.yields",
    "search.records_raw": "search.records_raw",
    "search.records": "search.records",
    "search.checkpoint_bytes": "search.checkpoint_bytes",
    "search.chunks_resumed": "search.chunks_resumed",
    "elimination.irrational_roots": "elimination.irrational_roots",
    **{f"{layer}.errors": f"{layer}.errors" for layer in LAYERS},
}


def _matches(name: str, pattern: str) -> bool:
    return name.startswith(pattern[:-1]) if pattern.endswith("*") else name == pattern


def self_times(spans) -> dict[str, float]:
    """Total self time per span name."""
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        out[span[1]] += span[7]
    return out


def layer_metrics(rec: Recorder, ops: int, extra: dict[str, float]) -> dict[str, float]:
    """Per-op values of every traced per-layer metric."""
    ops = max(ops, 1)
    selfs = self_times(rec.spans)
    out: dict[str, float] = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(v for k, v in selfs.items() if any(_matches(k, n) for n in names)) / ops
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in selfs.items() if k.startswith(layer + ".")) / ops
    for metric, key in COUNTS.items():
        out[metric] = rec.counts.get(key, 0) / ops
    out["search.dedupe_ratio"] = (
        out["search.records"] / out["search.records_raw"] if out["search.records_raw"] else 0.0
    )
    out["algebra.max_terms"] = rec.maxima.get("algebra.max_terms", 0)
    out["algebra.max_coeff_bits"] = rec.maxima.get("algebra.max_coeff_bits", 0)
    out["symfunc.macmahon_terms"] = sum(rec.macmahon_terms.values()) / ops
    out.update(extra)
    return out


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bits"):
        return "bits"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"
