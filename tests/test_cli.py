"""End-to-end CLI behavior, including the documented exit-code contract."""

import json
import os
import subprocess
import sys
import time

import pytest

import ksumlab
from ksumlab import cli, search
from ksumlab.cli import MAX_CERTIFY_BITS, main
from ksumlab.multisets import MAX_SUMS, parse_multiset
from ksumlab.search import collision_class_key

FIRST = "0 0 1 -1 2 -2 4 -4 7 -7 7 -7"
SECOND = "1 -1 2 -2 3 -3 4 -4 5 -5 8 -8"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ksums_demo(capsys):
    code, out, _ = run(capsys, "ksums", "-1 0^10 1", "-k", "4")
    assert code == 0
    assert out.strip() == "-1^120 0^255 1^120"


def test_ksums_small(capsys):
    code, out, _ = run(capsys, "ksums", "1 2 3", "-k", "2")
    assert code == 0
    assert out.strip() == "3 4 5"


def test_ksums_bad_k(capsys):
    code, _, err = run(capsys, "ksums", "1 2 3", "-k", "5")
    assert code == 2
    assert "error" in err


def test_ksums_parse_failure(capsys):
    code, _, err = run(capsys, "ksums", "1 banana 3", "-k", "2")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("ksums", "1 2 1/0", "-k", "2"),
        ("collide", "1 2 1/0", "1 2 3", "-k", "2"),
        ("collide", "1 2 3", "0/0 1 2", "-k", "2"),
    ],
)
def test_zero_denominator_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "zero denominator" in err


def test_ksums_json_round_trips(capsys):
    code, out, _ = run(capsys, "ksums", "1/2 1/2 1", "-k", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"n": 3, "k": 2, "sums": [1, "3/2", "3/2"]}
    assert out == '{"n": 3, "k": 2, "sums": [1, "3/2", "3/2"]}\n'
    assert run(capsys, "ksums", "1/2 1/2 1", "-k", "2") == (0, "1 3/2^2\n", "")


def test_ksums_from_file(tmp_path, capsys):
    path = tmp_path / "set.txt"
    path.write_text("# demo\n-1 0^10 1\n")
    code, out, _ = run(capsys, "ksums", f"@{path}", "-k", "4")
    assert code == 0
    assert out.strip() == "-1^120 0^255 1^120"


def test_collide_known_pair(capsys):
    code, out, _ = run(capsys, "collide", FIRST, SECOND, "-k", "4")
    assert code == 0
    assert out.strip() == "EQUAL (495 sums)"


def test_collide_detects_difference(capsys):
    tweaked = FIRST.replace("4 -4", "4 -5")
    code, out, _ = run(capsys, "collide", FIRST, tweaked, "-k", "4")
    assert code == 1
    assert out.startswith("DIFFER: first differing sum")


@pytest.mark.parametrize(
    "first, second, k, want",
    [
        ("1/2 1", "1/3 1", "1", "1/2 vs 1/3"),
        ("1/3 2/3", "1/3 5/6", "1", "2/3 vs 5/6"),  # equal first sums over denominators 3 and 6
        ("1/2 1/3 5", "1/6 1/4 5", "2", "5/6 vs 5/12"),
    ],
)
def test_collide_reports_the_first_difference_over_unequal_denominators(capsys, first, second, k, want):
    code, out, err = run(capsys, "collide", first, second, "-k", k)
    assert (code, out, err) == (1, f"DIFFER: first differing sum {want}\n", "")


def test_collide_size_mismatch(capsys):
    code, _, err = run(capsys, "collide", "1 2", "1 2 3", "-k", "2")
    assert code == 2
    assert "different sizes" in err


def test_collide_pair_file(tmp_path, capsys):
    path = tmp_path / "pair.txt"
    path.write_text(f"{FIRST}\n{SECOND}\n")
    code, out, _ = run(capsys, "collide", f"@{path}", "-k", "4")
    assert code == 0
    assert "EQUAL" in out


def test_expand_s1_zero(capsys):
    code, out, _ = run(capsys, "expand", "2", "--s1-zero")
    assert code == 0
    assert out.strip() == "E2 = 120*S2"


def test_expand_general(capsys):
    code, out, _ = run(capsys, "expand", "2")
    assert code == 0
    assert out.strip() == "E2 = 45*S1^2 + 120*S2"


def test_expand_check_fixtures_reports_vanishing_pivot(capsys):
    code, out, _ = run(capsys, "expand", "6", "--check-fixtures")
    assert code == 0
    assert "coef(S6) = 0 [expected 0] OK" in out.splitlines()
    assert "MISMATCH" not in out


def test_expand_rejects_bad_p(capsys):
    # e_expansion itself refuses p < 1; the CLI adds no check of its own
    code, out, err = run(capsys, "expand", "0")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "power must be >= 1, got 0" in err


def test_expand_refuses_costly_requests_fast(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "expand", "30", "-k", "15", "-n", "30")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: E30 at k = 15 would cost 1146600 (up to 5096 terms times 15^2)")
    for p in range(1, 27):  # every identity of the (12, 4) system stays admitted
        assert run(capsys, "expand", str(p))[0] == 0
    assert run(capsys, "expand", "22", "-k", "9", "-n", "30")[0] == 0


def test_expand_fixture_override(tmp_path, capsys, monkeypatch):
    path = tmp_path / "fixtures.txt"
    path.write_text("E1 = 0\nE2 = 121*S2\nE3 = 48*S3\n")  # one poisoned coefficient
    monkeypatch.setenv("KSUMLAB_FIXTURES", str(path))
    code, out, _ = run(capsys, "expand", "2", "--check-fixtures")
    assert code == 1
    assert "coef(S2) = 120 [expected 121] MISMATCH" in out


def test_expand_rejects_malformed_fixture(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.txt"
    monkeypatch.setenv("KSUMLAB_FIXTURES", str(bad))
    typo = "E6 = 40*S3^2 - 120*S2 S4 + 90*S2^3"  # a missing '*', which is no '+'
    duplicate = "E6 = 40*S3^2 - 120*S2*S4 + 90*S2^3\nE6 = 0"
    for line, p in (("E2 = 120*S2^", "2"), ("E6 = 1/0*S2^3", "6"), (typo, "6"), (duplicate, "6")):
        bad.write_text(line + "\n")
        code, out, err = run(capsys, "expand", p, "--check-fixtures")
        assert code == 2
        assert out == "" and err.startswith("error: cannot load fixtures")


def test_eliminate_verify_coefficients(capsys):
    code, out, _ = run(capsys, "eliminate", "--verify-coefficients")
    assert code == 0
    assert "all OK" in out
    assert out.count("OK") >= 7


def test_eliminate_example_roots(capsys):
    code, out, _ = run(capsys, "eliminate", "--example1")
    assert code == 0
    assert out.strip() == "roots: 2, 377762/44361"


def test_eliminate_second_root(capsys):
    code, out, _ = run(capsys, "eliminate", "--second-root", "-1 0^10 1")
    assert code == 0
    assert out.strip() == "S6'' = 377762/44361"


def test_eliminate_second_root_zero_s2(capsys):
    code, _, err = run(capsys, "eliminate", "--second-root", "0^12")
    assert code == 2
    assert "S_2 = 0" in err


def test_eliminate_auto_shift_notice(capsys):
    code, out, err = run(capsys, "eliminate", "--second-root", "0 2 0^9 -1")
    assert code == 0
    assert "shifted by" in err


def test_eliminate_residuals_known_set(capsys):
    code, out, _ = run(capsys, "eliminate", "--residuals", FIRST)
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "ALL ZERO"
    assert len([l for l in lines if l.startswith("residual[")]) == 13
    assert "residual[13] = 0" in lines and "residual[26] = 0" in lines


def test_eliminate_residuals_generic_set(capsys):
    code, out, _ = run(capsys, "eliminate", "--residuals", "1 2 3 4 5 6 7 8 9 10 11 13")
    assert code == 1
    assert out.splitlines()[-1] == "NONZERO RESIDUALS"


def test_eliminate_prints_residuals_of_many_digits_in_full(capsys):
    # twelve integers of 150 digits; their residuals run to thousands of digits,
    # more than the interpreter converts to text by default
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    literal = " ".join(str(10**149 + i**143) for i in range(12))
    code, out, err = run(capsys, "eliminate", "--residuals", literal)
    assert code == 1 and "error" not in err
    lines = out.splitlines()
    assert len([l for l in lines if l.startswith("residual[")]) == 13
    assert lines[-1] == "NONZERO RESIDUALS" and max(map(len, lines)) > 4300
    if limit is not None:  # main restores the limit it lifts
        assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("option", ["--residuals", "--second-root"])
@pytest.mark.parametrize(
    "literal",
    [
        " ".join(str(10**3999 + i**3800) for i in range(12)),  # 4000 digits, about 13000 bits
        " ".join(f"{v}/{7**4700}" for v in range(12)),  # small numerators over one of 13194 bits
    ],
    ids=["numerators", "denominator"],
)
def test_eliminate_refuses_numbers_too_long_to_certify_fast(capsys, option, literal):
    start = time.perf_counter()
    code, out, err = run(capsys, "eliminate", option, literal)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"more than the {MAX_CERTIFY_BITS} allowed" in err


def test_search_general_records(capsys):
    code, out, err = run(capsys, "search", "-n", "4", "-k", "2", "-B", "7")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records and all(r["k"] == 2 for r in records)
    target = collision_class_key(parse_multiset("0 3 5 6"), parse_multiset("1 2 4 7"))
    keys = [
        collision_class_key(
            parse_multiset(" ".join(str(v) for v in r["first"])),
            parse_multiset(" ".join(str(v) for v in r["second"])),
        )
        for r in records
    ]
    assert target in keys
    assert "collision record(s)" in err


def test_search_no_collision_exit_one(capsys):
    code, out, _ = run(capsys, "search", "-n", "3", "-k", "2", "-B", "4")
    assert code == 1
    assert out.strip() == ""


def test_search_invalid_parameters(capsys):
    code, _, err = run(capsys, "search", "-n", "3", "-k", "5", "-B", "2")
    assert code == 2
    assert "error" in err


def test_search_out_file_and_workers_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    code1, _, _ = run(capsys, "search", "-n", "4", "-k", "2", "-B", "7", "--out", str(out1))
    code2, _, _ = run(
        capsys,
        "search", "-n", "4", "-k", "2", "-B", "7", "--workers", "3", "--out", str(out2),
    )
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_search_resume_checkpoint(tmp_path, capsys):
    ck = tmp_path / "ck.jsonl"
    code, out_a, _ = run(
        capsys, "search", "-n", "4", "-k", "2", "-B", "6", "--resume", str(ck)
    )
    assert code == 0
    assert ck.exists()
    code, out_b, _ = run(
        capsys, "search", "-n", "4", "-k", "2", "-B", "6", "--resume", str(ck)
    )
    assert out_a == out_b


def test_search_resumes_over_torn_checkpoint_tail(tmp_path, capsys):
    argv = ["search", "-n", "8", "-k", "2", "-B", "8", "--symmetric"]
    ck, fresh, resumed = tmp_path / "ck.jsonl", tmp_path / "fresh.jsonl", tmp_path / "resumed.jsonl"
    code, _, _ = run(capsys, *argv, "--resume", str(ck), "--out", str(fresh))
    assert code == 0
    complete = ck.read_bytes()
    lines = complete.splitlines(keepends=True)
    assert len(lines) >= 3  # header and at least two chunks
    torn = complete[: len(complete) - len(lines[-1]) // 2]  # cut the last chunk mid-line
    ck.write_bytes(torn)
    code, _, _ = run(capsys, *argv, "--resume", str(ck), "--out", str(resumed))
    assert code == 0
    assert resumed.read_bytes() == fresh.read_bytes()
    assert ck.read_bytes() == complete


def test_search_rejects_corrupt_checkpoint(tmp_path, capsys):
    argv = ["search", "-n", "8", "-k", "2", "-B", "8", "--symmetric", "--resume"]
    ck = tmp_path / "ck.jsonl"
    run(capsys, *argv, str(ck))
    lines = ck.read_bytes().splitlines(keepends=True)
    ck.write_bytes(lines[0] + lines[1][:40] + b"\n" + b"".join(lines[2:]))
    code, out, err = run(capsys, *argv, str(ck))
    assert code == 2 and out == "" and "line 2 is corrupt" in err
    ck.write_bytes(lines[0].replace(b'"bound": 8', b'"bound": 7') + b"".join(lines[1:]))
    code, out, err = run(capsys, *argv, str(ck))
    assert code == 2 and out == "" and "different search" in err


def test_search_refuses_to_resume_from_a_file_that_is_not_a_checkpoint(tmp_path, capsys):
    notes = tmp_path / "notes.txt"
    notes.write_bytes(b"my precious notes\n")
    code, out, err = run(capsys, "search", "-n", "4", "-k", "2", "-B", "3", "--resume", str(notes))
    assert code == 2 and out == "" and "line 1 is corrupt" in err
    assert notes.read_bytes() == b"my precious notes\n"


def test_search_unwritable_out_fails_before_searching(tmp_path, capsys):
    ck = tmp_path / "ck.jsonl"
    out = tmp_path / "missing" / "records.jsonl"
    code, stdout, err = run(
        capsys, "search", "-n", "4", "-k", "2", "-B", "6", "--resume", str(ck), "--out", str(out)
    )
    assert code == 2 and stdout == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert not ck.exists()  # the search never started


@pytest.mark.parametrize("exists", [False, True])
@pytest.mark.parametrize("alias", ["same path", "symlink"])
def test_search_refuses_one_file_as_checkpoint_and_out(tmp_path, capsys, exists, alias):
    argv = ["search", "-n", "4", "-k", "2", "-B", "5"]
    ck = tmp_path / "ck.jsonl"
    if exists:
        assert run(capsys, *argv, "--resume", str(ck))[0] == 0
    before = ck.read_bytes() if exists else None
    out = ck
    if alias == "symlink":  # dangling while the checkpoint does not exist
        out = tmp_path / "link.jsonl"
        out.symlink_to(ck)
    code, stdout, err = run(capsys, *argv, "--resume", str(ck), "--out", str(out))
    assert code == 2 and stdout == ""
    assert err.startswith("error:") and "same file" in err
    if exists:
        assert ck.read_bytes() == before
    else:
        assert not ck.exists()


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


# A search forked and serial, JSON k-sums, the example roots, an argparse usage error
# (-B missing) and a ValueError from the command (k > n).
REUSE_CALLS = [
    ("search", "-n", "8", "-k", "2", "-B", "8", "--symmetric", "--workers", "2"),
    ("ksums", "1 2 3", "-k", "2", "--json"),
    ("eliminate", "--example1"),
    ("search", "-n", "8", "-k", "2"),
    ("ksums", "1 2 3", "-k", "5"),
    ("search", "-n", "8", "-k", "2", "-B", "8", "--symmetric"),
]


def outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = f"SystemExit {exc.code}"
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_per_process_acts_as_a_fresh_one(capsys):
    cli.build_parser.cache_clear()
    reused = [outcome(capsys, argv) for argv in REUSE_CALLS * 2]
    assert cli.build_parser.cache_info().misses == 1
    fresh = []
    for argv in REUSE_CALLS * 2:
        cli.build_parser.cache_clear()
        fresh.append(outcome(capsys, argv))
    assert reused == fresh
    assert [code for code, _, _ in reused[: len(REUSE_CALLS)]] == [0, 0, 0, "SystemExit 2", 2, 0]
    assert reused[0][1] == reused[5][1] != "" and "the following arguments are required: -B" in reused[3][2]


def test_search_workers_default_to_one_after_a_call_with_more(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(search, "find_collisions", lambda spec, workers, checkpoint: seen.append(workers) or [])
    for argv in (["--workers", "2"], [], ["--workers", "3"], []):
        assert main(["search", "-n", "4", "-k", "2", "-B", "3", *argv]) == 1
    assert seen == [2, 1, 3, 1]


@pytest.mark.parametrize(
    "option, literal",
    [("--residuals", FIRST + " 0"), ("--second-root", "1 2 3 4 5 6 7 9")],
)
def test_eliminate_requires_exactly_twelve_elements(capsys, option, literal):
    code, out, err = run(capsys, "eliminate", option, literal)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "exactly 12" in err


def test_search_missing_checkpoint_dir_fails_before_searching(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(search, "_chunk_pairs", calls.append)
    ck = tmp_path / "missing" / "ck.jsonl"
    code, out, err = run(capsys, "search", "-n", "8", "-k", "2", "-B", "8", "--resume", str(ck))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert calls == []


def test_search_rejects_checkpoint_in_the_old_format(tmp_path, capsys):
    ck = tmp_path / "ck.jsonl"
    header = {"n": 4, "k": 2, "bound": 6, "symmetric": False, "chunk_size": 256}
    chunk = {"chunk": 0, "items": [[["-3/2", "-1/2", "1/2", "3/2"], ["-2", "-1", "0", "0", "1", "2"]]]}
    ck.write_text(json.dumps({"header": header}) + "\n" + json.dumps(chunk) + "\n")
    code, out, err = run(capsys, "search", "-n", "4", "-k", "2", "-B", "6", "--resume", str(ck))
    assert code == 2 and out == ""
    assert "different search" in err


def test_failed_search_keeps_earlier_out_file(tmp_path, capsys):
    out = tmp_path / "records.jsonl"
    code, _, _ = run(capsys, "search", "-n", "4", "-k", "2", "-B", "7", "--out", str(out))
    assert code == 0
    earlier = out.read_text()
    assert len(earlier.splitlines()) == 39
    ck = tmp_path / "ck.jsonl"
    run(capsys, "search", "-n", "4", "-k", "2", "-B", "5", "--resume", str(ck))
    code, _, err = run(
        capsys, "search", "-n", "4", "-k", "2", "-B", "6", "--resume", str(ck), "--out", str(out)
    )
    assert code == 2 and "different search" in err
    assert out.read_text() == earlier
    # a later successful search replaces the file rather than appending to it
    code, _, _ = run(capsys, "search", "-n", "4", "-k", "2", "-B", "5", "--out", str(out))
    assert code == 0
    assert len(out.read_text().splitlines()) == 17


@pytest.mark.parametrize("n, bound, workers", [("4", "7", "0"), ("4", "7", "-3"), ("40", "40", "1")])
def test_search_rejects_bad_workers_and_oversized_spaces(capsys, n, bound, workers):
    code, out, err = run(capsys, "search", "-n", n, "-k", "2", "-B", bound, "--workers", workers)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("n, k, bound", [("100000", "1", "100000"), ("5000", "2500", "0")])
def test_search_refusals_quote_huge_counts_briefly(capsys, n, k, bound):
    # C(199999, 99999) candidates and C(5000, 2500) sums have thousands of digits,
    # which the CLI, lifting the interpreter's limit, would otherwise print in full
    start = time.perf_counter()
    code, out, err = run(capsys, "search", "-n", n, "-k", k, "-B", bound)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error:") and "about 10^" in err and len(err) < 300


@pytest.mark.parametrize(
    "argv, message",
    [
        (("ksums", "@{sets}", "-k", "4"), "ksums expects exactly one set"),
        (("collide", "@{sets}", FIRST, "-k", "4"), "collide expects exactly two sets"),  # three sets
        (("expand", "27", "--check-fixtures"), "no fixture for p=27"),
        (("eliminate", "--residuals", "@{sets}"), "expected exactly one set"),
    ],
)
def test_wrong_set_counts_and_missing_fixtures_are_usage_errors(capsys, tmp_path, argv, message):
    sets = tmp_path / "sets.txt"
    sets.write_text(f"{FIRST}\n{SECOND}\n")
    code, out, err = run(capsys, *(arg.format(sets=sets) for arg in argv))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}") and "Traceback" not in err


@pytest.mark.parametrize("platform", ["darwin", "win32"])
def test_search_workers_off_linux_is_a_usage_error(capsys, monkeypatch, platform):
    monkeypatch.setattr(sys, "platform", platform)
    code, out, err = run(capsys, "search", "-n", "8", "-k", "2", "-B", "8", "--workers", "2")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "os.fork on Linux" in err and "Traceback" not in err
    code, out, _ = run(capsys, "search", "-n", "8", "-k", "2", "-B", "8", "--workers", "1")
    assert code == 0 and out


@pytest.mark.parametrize(
    "argv, reason, seconds",
    [
        (("-n", "2", "-k", "1", "-B", "49999"), "bits", 0.5),  # refused before any work
        (("-n", "10", "-k", "10", "-B", "8"), "pairs", 5),  # refused once bucketed
    ],
)
def test_search_refuses_oversized_keys_and_buckets_fast(capsys, tmp_path, argv, reason, seconds):
    out = tmp_path / "records.jsonl"
    start = time.perf_counter()
    code, stdout, err = run(capsys, "search", *argv, "--out", str(out))
    assert time.perf_counter() - start < seconds
    assert code == 2 and stdout == "" and out.read_text() == ""
    assert err.startswith("error:") and reason in err and "Traceback" not in err


def run_module(*argv, timeout=60):
    """``python -m ksumlab`` in a subprocess; raises if it outlives ``timeout``."""
    src = os.path.dirname(os.path.dirname(ksumlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ksumlab", *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_python_dash_m_runs_the_cli():
    result = run_module("ksums", "-k", "2", "1 2 3")
    assert result.returncode == 0
    assert result.stdout == "3 4 5\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("ksums", "0^40", "-k", "20"),
        ("collide", "0^40", "0^40", "-k", "20"),
        ("search", "-n", "40", "-k", "20", "-B", "0"),  # one candidate, C(40, 20) sums
        # C(10^6, 5 * 10^5) alone takes seconds to compute; the refusal needs only C(10^6, 20)
        ("ksums", "0^1000000", "-k", "500000"),
        ("search", "-n", "1000000", "-k", "500000", "-B", "0"),
    ],
)
def test_oversized_k_sums_fail_fast(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and err.startswith("error:")
    assert "137846528820 20-sums" in err or "more than about 10^101 500000-sums" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("ksums", "0^10000000000000", "-k", "1"),
        ("collide", "1 2", "0^999999 1 2", "-k", "1"),
        ("eliminate", "--residuals", "0^1000001"),
    ],
)
def test_oversized_set_literals_fail_fast(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"more than the {MAX_SUMS} elements allowed" in err


@pytest.mark.parametrize("n, bound", [("50000", "1"), ("706", "2"), ("100000", "100000")])
def test_search_over_too_many_numerators_is_a_usage_error(capsys, n, bound):
    start = time.perf_counter()
    code, out, err = run(capsys, "search", "-n", n, "-k", "1", "-B", bound)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error:") and "numerators each" in err
    assert f"more than the {search.MAX_LISTING_BYTES // 10**6} MB allowed" in err


def test_largest_admitted_k_sums_succeed():
    result = run_module("ksums", " ".join(map(str, range(22))), "-k", "11")
    assert result.returncode == 0
    assert result.stdout.startswith("55 56 57^2 ")


@pytest.mark.parametrize("size", [("-k", "3"), ("-n", "13")])
def test_expand_check_fixtures_outside_twelve_four_is_a_usage_error(capsys, size):
    code, out, err = run(capsys, "expand", "2", *size, "--check-fixtures")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "n = 12, k = 4" in err
