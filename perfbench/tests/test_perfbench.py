"""Tests of the benchmark itself, at tiny problem sizes.

    python -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import ksumlab  # noqa: E402

from perfbench import oracles, run, spans  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def quiet(*_args) -> None:
    pass


def tiny_run(name: str, trace: bool = False) -> dict:
    return run.run_workload(name, seed=7, seconds=0.01, trace=trace, import_s=0.0, sizes="tiny", log=quiet)


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_runs_and_passes_its_checks(name):
    result = tiny_run(name)["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    for metric in BENCH["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0


def test_traced_run_reports_every_per_layer_metric_and_overhead():
    report = tiny_run("search-general", trace=True)
    result = report["result"]
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    for metric in BENCH["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert set(report["overhead"]) == {m["name"] for m in BENCH["end_to_end"]}
    # the pool workers' spans came back: general-mode keys go through ksums there
    assert result["metrics"]["multisets.ksums_calls"]["value"] > 0
    assert result["metrics"]["search.key_self_s"]["value"] > 0
    lines = Path(report["spans_file"]).read_text().splitlines()
    worker_roots = {
        s["name"] for s in map(json.loads, lines) if s["parent"] is None and s["pid"] != os.getpid()
    }
    assert worker_roots == {"search._chunk_pairs"}
    assert result["metrics"]["search.records"]["value"] <= result["metrics"]["search.records_raw"]["value"]


def _check_nesting(spans_list) -> None:
    by_id = {s["id"]: s for s in spans_list}
    children = defaultdict(list)
    for s in spans_list:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    for s in spans_list:
        duration = s["end"] - s["start"]
        kids = children[s["id"]]
        assert s["self_s"] == pytest.approx(duration - sum(k["end"] - k["start"] for k in kids), abs=1e-9)
        assert s["self_s"] >= -1e-9
        for k in kids:
            assert s["start"] <= k["start"] <= k["end"] <= s["end"]
        if s["parent"] is not None:
            assert by_id[s["parent"]]["pid"] == s["pid"]


def test_spans_nest_and_self_times_add_up_to_the_root():
    report = tiny_run("certify-warm", trace=True)
    keys = ("id", "name", "start", "end", "parent", "op", "pid", "self_s")
    lines = Path(report["spans_file"]).read_text().splitlines()
    spans_list = [json.loads(line) for line in lines]
    assert all(set(s) == set(keys) for s in spans_list)
    _check_nesting(spans_list)
    roots = [s for s in spans_list if s["parent"] is None]
    assert roots and all(s["name"] == "op.certify-warm" for s in roots)
    for root in roots:
        in_op = [s for s in spans_list if s["op"] == root["op"]]
        assert sum(s["self_s"] for s in in_op) == pytest.approx(root["end"] - root["start"], rel=1e-9)
        names = {s["name"] for s in in_op}
        assert {"elimination.residual_relations", "algebra.evaluate", "multisets.ksums"} <= names


def test_recorder_self_time_excludes_children():
    rec = spans.Recorder()
    with rec.op_scope(1, "op.synthetic"):
        outer = rec.open("symfunc.outer")
        inner = rec.open("algebra.inner")
        sum(range(20000))
        rec.close(inner)
        sum(range(20000))
        rec.close(outer)
    by_name = {s[1]: s for s in rec.spans}
    inner_s, outer_s, root_s = by_name["algebra.inner"], by_name["symfunc.outer"], by_name["op.synthetic"]
    assert inner_s[4] == outer_s[0] and outer_s[4] == root_s[0] and root_s[4] is None
    assert outer_s[7] == pytest.approx((outer_s[3] - outer_s[2]) - (inner_s[3] - inner_s[2]))
    assert sum(s[7] for s in rec.spans) == pytest.approx(root_s[3] - root_s[2])


def test_wrappers_are_removed_after_tracing():
    def bound():
        return (ksumlab.algebra.Poly.__mul__, ksumlab.elimination.e_expansion, ksumlab.search.ksums,
                ksumlab.search._chunk_pairs)

    before = bound()
    with spans.installed(spans.Recorder()):
        assert ksumlab.elimination.e_expansion is not before[1]
        assert ksumlab.elimination.e_expansion is ksumlab.symfunc.e_expansion
        assert ksumlab.search._chunk_pairs is not before[3]
    assert bound() == before


def test_each_raise_counts_once_even_when_ops_repeat_it():
    rec = spans.Recorder()
    with spans.installed(rec):
        for op in (1, 2):
            with rec.op_scope(op, "op.synthetic"):
                with pytest.raises(ValueError):
                    ksumlab.parse_multiset("1 x 2")
    assert rec.counts["multisets.errors"] == 2


def test_wrong_certification_output_raises_error_rate(monkeypatch):
    real = ksumlab.solve_quadratic
    monkeypatch.setattr(ksumlab, "solve_quadratic", lambda a, b, c: tuple(r + 1 for r in real(a, b, c)))
    report = tiny_run("certify-warm")
    assert not report["result"]["correct"]
    assert report["result"]["failed"] == report["result"]["attempted"]
    assert report["named"]["error_rate"][0] == 1


def test_dropped_search_record_raises_error_rate(monkeypatch):
    real = ksumlab.find_collisions
    monkeypatch.setattr(ksumlab, "find_collisions", lambda spec, workers=1: real(spec, workers)[:-1])
    report = tiny_run("search-general")
    assert report["result"]["failed"] >= 1 and not report["result"]["correct"]


def test_certify_stream_depends_only_on_the_seed():
    from perfbench.workloads import certify_inputs

    def take(seed):
        return [x for _, x in zip(range(60), certify_inputs(seed))]

    assert take(3) == take(3) != take(4)
    assert take(3)[:3] == take(3)[50:53] == [
        ("known", oracles.KNOWN_FIRST), ("known", oracles.KNOWN_SECOND), ("demo", oracles.DEMO_SET)
    ]


def test_oracle_classes_match_the_documented_symmetric_record():
    classes, candidates = oracles.collision_classes(12, 4, 8, symmetric=True)
    record = json.loads(oracles.SYMMETRIC_B8_OUTPUT)
    assert candidates == 3003
    assert classes == {oracles.pair_class(record["first"], record["second"])}


def test_benchmark_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [*BENCH["command"], "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_lists_what_the_code_measures():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    from perfbench import workloads

    assert WORKLOADS == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"] for m in BENCH["end_to_end"]} == set(run.E2E_UNITS)
    for metric in BENCH["per_layer"]:
        assert metric["unit"] == spans.unit(metric["name"])
