"""Bounded collision search: enumeration, grouping, dedupe, checkpoints."""

import hashlib
import itertools
import json
import os
import pickle
import signal
import stat
import subprocess
import sys
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ksumlab
from ksumlab import search
from ksumlab.known import COLLISION_FIRST, COLLISION_SECOND
from ksumlab.multisets import affine_image, ksums, parse_multiset, power_sum
from ksumlab.search import (
    CollisionRecord,
    SearchSpec,
    collision_class_key,
    dedupe_records,
    find_collisions,
    verify_record,
)


def _fraction_candidates(spec):
    """The candidate stream of ``search._candidates`` as Fraction tuples."""
    den, stream = search._candidates(spec)
    return [tuple(Fraction(v, den) for v in nums) for nums in stream]


def test_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(n=3, k=4, bound=2)
    with pytest.raises(ValueError):
        SearchSpec(n=3, k=0, bound=2)
    with pytest.raises(ValueError):
        SearchSpec(n=4, k=2, bound=-1)
    with pytest.raises(ValueError):
        SearchSpec(n=5, k=2, bound=2, symmetric_only=True)


def test_symmetric_enumeration_smallest():
    got = _fraction_candidates(SearchSpec(n=2, k=1, bound=1, symmetric_only=True))
    assert got == [(0, 0), (-1, 1)]


def test_symmetric_enumeration_count():
    spec = SearchSpec(n=12, k=4, bound=8, symmetric_only=True)
    candidates = _fraction_candidates(spec)
    assert len(candidates) == 3003  # C(9 + 6 - 1, 6)
    assert len(set(candidates)) == 3003
    assert all(power_sum(c, 1) == 0 for c in candidates[:50])


def test_general_enumeration_is_shifted_and_deduplicated():
    spec = SearchSpec(n=4, k=2, bound=7)
    candidates = _fraction_candidates(spec)
    assert all(power_sum(c, 1) == 0 for c in candidates)
    assert len(set(candidates)) == len(candidates)
    # {0,1,2,3} and {4,5,6,7} shift to the same representative
    assert len(candidates) < 330  # C(11, 4) raw tuples before dedup


def test_symmetric_search_finds_known_pair():
    spec = SearchSpec(n=12, k=4, bound=8, symmetric_only=True)
    records = find_collisions(spec)
    assert len(records) == 1
    found = {tuple(sorted(records[0].first)), tuple(sorted(records[0].second))}
    assert found == {COLLISION_FIRST, COLLISION_SECOND}
    assert records[0].k == 4
    assert ksums(records[0].first, 4) == ksums(records[0].second, 4)
    assert verify_record(records[0])


def test_no_collision_below_bound_seven():
    # the known pair needs values up to 7; B = 6 must come up empty
    spec = SearchSpec(n=12, k=4, bound=6, symmetric_only=True)
    assert find_collisions(spec) == []


def test_general_search_four_two():
    records = find_collisions(SearchSpec(n=4, k=2, bound=7))
    assert records
    target = collision_class_key(parse_multiset("0 3 5 6"), parse_multiset("1 2 4 7"))
    assert target in [collision_class_key(r.first, r.second) for r in records]
    assert all(verify_record(r) for r in records)


def test_general_search_empty_cases():
    assert find_collisions(SearchSpec(n=5, k=2, bound=6)) == []
    assert find_collisions(SearchSpec(n=3, k=2, bound=4)) == []


def test_determinism_across_workers():
    spec = SearchSpec(n=4, k=2, bound=7)
    assert find_collisions(spec, workers=1) == find_collisions(spec, workers=4)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda size: st.lists(
    st.lists(st.integers(-4, 4), min_size=size, max_size=size).map(lambda v: tuple(sorted(v))),
    min_size=2, max_size=10)), st.integers(1, 6))
def test_runs_key_sorts_like_the_sequences(sequences, scale):
    # find_collisions orders buckets by it in place of their whole k-sum tuples
    assert sorted(sequences, key=lambda v: search._runs_key(v, scale)) == sorted(sequences)


def test_dedupe_collapses_affine_copies():
    deduped = find_collisions(SearchSpec(n=4, k=2, bound=7))
    keys = [collision_class_key(r.first, r.second) for r in deduped]
    assert len(set(keys)) == len(keys)
    assert dedupe_records(deduped) == deduped
    first = deduped[0]
    copy = CollisionRecord(affine_image(first.second, -3, 5), affine_image(first.first, -3, 5), first.k)
    assert dedupe_records([first, copy, *deduped[1:]]) == deduped


def test_collision_class_key_invariances():
    a = parse_multiset("0 3 5 6")
    b = parse_multiset("1 2 4 7")
    key = collision_class_key(a, b)
    assert collision_class_key(b, a) == key
    shifted = tuple(x + 5 for x in a), tuple(x + 5 for x in b)
    assert collision_class_key(*shifted) == key
    scaled = tuple(3 * x for x in a), tuple(3 * x for x in b)
    assert collision_class_key(*scaled) == key
    reflected = tuple(-x for x in a), tuple(-x for x in b)
    assert collision_class_key(*reflected) == key


def test_verify_record_rejects_tampering():
    spec = SearchSpec(n=4, k=2, bound=7)
    records = find_collisions(spec)
    assert records
    good = records[0]
    assert verify_record(good)

    bumped = tuple(sorted(good.second[:-1] + (good.second[-1] + 1,)))
    assert not verify_record(CollisionRecord(good.first, bumped, good.k))
    assert not verify_record(CollisionRecord(good.first, good.first, good.k))


def test_verify_record_checks_residuals_for_twelve_four():
    record = CollisionRecord(COLLISION_FIRST, COLLISION_SECOND, 4)
    assert verify_record(record)
    # a 12-element "pair" with matching sums cannot be faked: unequal sums
    # already fail before the residual stage
    fake = CollisionRecord(COLLISION_FIRST, tuple(sorted(COLLISION_SECOND[:-1] + (9,))), 4)
    assert not verify_record(fake)


def test_checkpoint_resume(tmp_path):
    spec = SearchSpec(n=4, k=2, bound=5)
    fresh = find_collisions(spec)
    ck = tmp_path / "progress.jsonl"
    with_ck = find_collisions(spec, checkpoint=str(ck))
    assert with_ck == fresh
    lines = ck.read_text().splitlines()
    assert json.loads(lines[0])["header"]["bound"] == 5
    assert len(lines) >= 2

    resumed = find_collisions(spec, checkpoint=str(ck))
    assert resumed == fresh

    ck.write_text("\n".join(lines[:1]) + "\n")  # drop all chunk lines
    restarted = find_collisions(spec, checkpoint=str(ck))
    assert restarted == fresh
    assert len(ck.read_text().splitlines()) == len(lines)


def test_checkpoint_spec_mismatch(tmp_path):
    ck = tmp_path / "progress.jsonl"
    find_collisions(SearchSpec(n=4, k=2, bound=5), checkpoint=str(ck))
    with pytest.raises(ValueError):
        find_collisions(SearchSpec(n=4, k=2, bound=6), checkpoint=str(ck))


def test_checkpoint_tail_repair(tmp_path):
    spec = SearchSpec(n=8, k=2, bound=8, symmetric_only=True)
    ck = tmp_path / "progress.jsonl"
    fresh = find_collisions(spec, checkpoint=str(ck))
    complete = ck.read_bytes()
    assert complete.count(b"\n") >= 3
    # a complete last line that lost only its newline gets it back
    ck.write_bytes(complete[:-1])
    assert find_collisions(spec, checkpoint=str(ck)) == fresh
    assert ck.read_bytes() == complete
    # a torn header is the whole file's torn tail: the run starts over
    ck.write_bytes(complete[:10])
    assert find_collisions(spec, checkpoint=str(ck)) == fresh
    assert ck.read_bytes() == complete
    # a corrupt line before the last one is an error
    first, second, *rest = complete.splitlines(keepends=True)
    ck.write_bytes(first + second[:30] + b"\n" + b"".join(rest))
    with pytest.raises(ValueError, match="line 2 is corrupt"):
        find_collisions(spec, checkpoint=str(ck))


def test_import_does_not_load_multiprocessing():
    src = os.path.dirname(os.path.dirname(ksumlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    search_call = "ksumlab.find_collisions(ksumlab.SearchSpec(8, 2, 8), workers=2)"
    for statements, absent in [(["import ksumlab"], ("multiprocessing", "pickle")),
                               (["import ksumlab", search_call], ("multiprocessing",))]:
        probe = "; ".join(["import sys", *statements, f"print([m for m in {absent!r} if m in sys.modules])"])
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.strip() == "[]", statements


@pytest.mark.parametrize(
    "spec", [SearchSpec(8, 2, 8), SearchSpec(6, 3, 8), SearchSpec(4, 2, 7), SearchSpec(10, 2, 8, True)], ids=str
)
def test_records_and_checkpoints_do_not_depend_on_workers(tmp_path, spec):
    runs = []
    for workers in (1, 2, 3):
        ck = tmp_path / f"progress-{workers}.jsonl"
        runs.append((find_collisions(spec, workers=workers, checkpoint=str(ck)), ck.read_bytes()))
    assert runs[1] == runs[0] and runs[2] == runs[0]
    # resumed by 2 workers from the header and the first half of the chunk lines
    header, *chunk_lines = runs[0][1].splitlines(keepends=True)
    ck = tmp_path / "cut.jsonl"
    ck.write_bytes(header + b"".join(chunk_lines[: len(chunk_lines) // 2]))
    assert find_collisions(spec, workers=2, checkpoint=str(ck)) == runs[0][0]
    assert ck.read_bytes() == runs[0][1]


def _assert_no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def time_limit():
    """Fail, rather than hang, a search whose children are never reaped."""

    def expire(signum, frame):
        raise TimeoutError("find_collisions did not return within 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_a_failing_worker_raises_a_clear_error(monkeypatch, time_limit):
    caller, real = os.getpid(), search._chunk_pairs

    def failing_in_children(job):
        if os.getpid() != caller:
            raise RuntimeError("broken keying")
        return real(job)

    monkeypatch.setattr(search, "_chunk_pairs", failing_in_children)
    with pytest.raises(RuntimeError, match=r"search worker \d+ failed on chunk 1: RuntimeError: broken keying"):
        find_collisions(SearchSpec(8, 2, 8), workers=2)
    _assert_no_children_left()


@pytest.mark.parametrize("mid_message", [False, True])
def test_a_worker_that_dies_is_reported(monkeypatch, time_limit, mid_message):
    caller, real, real_dump = os.getpid(), search._chunk_pairs, pickle.dump

    def dying_in_children(job):
        if os.getpid() != caller:
            os._exit(3)
        return real(job)

    def dying_while_sending(obj, file):
        if os.getpid() != caller:
            data = pickle.dumps(obj)
            file.write(data[: len(data) // 2])
            file.flush()
            os._exit(3)
        real_dump(obj, file)

    if mid_message:
        monkeypatch.setattr(pickle, "dump", dying_while_sending)
    else:
        monkeypatch.setattr(search, "_chunk_pairs", dying_in_children)
    with pytest.raises(RuntimeError, match="ended before sending the keys of chunk 1"):
        find_collisions(SearchSpec(8, 2, 8), workers=2)
    _assert_no_children_left()


class CallerFailure(Exception):
    pass


# Symmetric (12, 4, 12) has 73 chunks of up to 28 KB of keys each, so the children
# block on full pipes while the caller fails on its first chunk.
@pytest.mark.parametrize("spec", [SearchSpec(8, 2, 8), SearchSpec(12, 4, 12, True)], ids=str)
def test_a_failing_caller_raises_its_own_error(monkeypatch, spec, time_limit):
    caller, real = os.getpid(), search._chunk_pairs

    def failing_in_caller(job):
        if os.getpid() == caller:
            raise CallerFailure("caller keying failed")
        return real(job)

    monkeypatch.setattr(search, "_chunk_pairs", failing_in_caller)
    with pytest.raises(CallerFailure, match="caller keying failed"):
        find_collisions(spec, workers=3)
    _assert_no_children_left()


@pytest.mark.parametrize("platform, has_fork", [("linux", False), ("darwin", True), ("win32", False)])
def test_more_than_one_worker_needs_fork_on_linux(monkeypatch, platform, has_fork):
    spec = SearchSpec(8, 2, 8)
    fresh = find_collisions(spec)
    monkeypatch.setattr(sys, "platform", platform)
    if not has_fork:
        monkeypatch.delattr(os, "fork")
    with pytest.raises(ValueError, match=f"os.fork on Linux, which {platform} does not offer"):
        find_collisions(spec, workers=2)
    assert find_collisions(spec, workers=1) == fresh


def _pipes():
    return {fd for fd in map(int, os.listdir("/proc/self/fd")) if _is_pipe(fd)}


def _is_pipe(fd):
    try:
        return stat.S_ISFIFO(os.fstat(fd).st_mode)
    except OSError:  # the descriptor listdir itself had open
        return False


def test_a_child_holds_only_its_own_pipe(monkeypatch, time_limit):
    caller, real, before = os.getpid(), search._chunk_pairs, _pipes()

    def counting_pipes_in_children(job):
        if os.getpid() != caller and len(_pipes() - before) != 1:
            raise RuntimeError(f"a child holds pipes {sorted(_pipes() - before)}")
        return real(job)

    monkeypatch.setattr(search, "_chunk_pairs", counting_pipes_in_children)
    assert find_collisions(SearchSpec(8, 2, 8), workers=3) == find_collisions(SearchSpec(8, 2, 8))
    _assert_no_children_left()


def test_checkpoint_keeps_chunks_finished_before_an_interruption(tmp_path, monkeypatch):
    spec = SearchSpec(n=10, k=2, bound=8, symmetric_only=True)
    fresh = find_collisions(spec)
    ck = tmp_path / "progress.jsonl"
    real = search._chunk_pairs
    calls = []

    def failing_third(job):
        calls.append(len(ck.read_text().splitlines()))
        if len(calls) == 3:
            raise RuntimeError("interrupted")
        return real(job)

    monkeypatch.setattr(search, "_chunk_pairs", failing_third)
    with pytest.raises(RuntimeError, match="interrupted"):
        find_collisions(spec, checkpoint=str(ck))
    assert calls == [1, 2, 3]  # each line is on disk before the next chunk starts
    lines = ck.read_text().splitlines()
    assert len(lines) == 3
    assert [json.loads(line)["chunk"] for line in lines[1:]] == [0, 1]
    monkeypatch.undo()
    assert find_collisions(spec, checkpoint=str(ck)) == fresh


def _seen_set_stream(n, bound, symmetric):
    """The candidate stream as a first-occurrence filter over all tuples."""
    if symmetric:
        for values in itertools.combinations_with_replacement(range(bound + 1), n // 2):
            yield tuple(sorted([Fraction(v) for v in values] + [Fraction(-v) for v in values]))
        return
    seen = set()
    for values in itertools.combinations_with_replacement(range(bound + 1), n):
        shifted = tuple(Fraction(v) - Fraction(sum(values), n) for v in values)
        if shifted not in seen:
            seen.add(shifted)
            yield shifted


@pytest.mark.parametrize(
    "n, bound, symmetric",
    [(1, 3, False), (3, 0, False), (4, 7, False), (5, 4, False), (6, 3, False),
     (2, 3, True), (6, 4, True), (8, 3, True)],
)
def test_candidate_stream_matches_seen_set_reference(n, bound, symmetric):
    spec = SearchSpec(n=n, k=1, bound=bound, symmetric_only=symmetric)
    got = _fraction_candidates(spec)
    assert got == list(_seen_set_stream(n, bound, symmetric))
    assert len(got) == search._candidate_count(spec)


def _rational_gcd(values):
    """Greatest rational dividing every value, by Euclid's algorithm on Fractions."""
    g = Fraction(0)
    for v in values:
        while v:
            g, v = v, g % v
    return abs(g)


def _reference_class_key(*parts):
    """Fraction form of the class key: shift the union to mean zero, divide
    by the rational gcd of the result, and take the lesser reflection."""
    union = [v for part in parts for v in part]
    mean = sum(union, Fraction(0)) / len(union)
    scale = _rational_gcd(v - mean for v in union) or 1  # every element equal
    mapped = [[(v - mean) / scale for v in part] for part in parts]
    return min(
        tuple(sorted(tuple(sorted(sign * v for v in member)) for member in mapped))
        for sign in (1, -1)
    )


_fraction = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_values = st.lists(_fraction, min_size=1, max_size=5)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_collision_class_key_matches_fraction_reference(data):
    first = tuple(data.draw(_values))
    second = tuple(data.draw(st.lists(st.sampled_from(first) | _fraction, min_size=1, max_size=5)))
    scale = data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(bool))
    shift = data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=3))
    image = tuple(tuple(scale * v + shift for v in member) for member in (second, first))
    pairs = [(first, second), image, (tuple(data.draw(_values)), second)]
    keys = [collision_class_key(*pair) for pair in pairs]
    references = [_reference_class_key(*pair) for pair in pairs]
    assert keys == references  # so keys agree exactly when the references do
    assert [hash(key) for key in keys] == [hash(ref) for ref in references]
    assert keys[0] == keys[1]  # the swapped affine image is the same collision
    assert collision_class_key(first) == _reference_class_key(first)  # one multiset's orbit


def _bin_width(n, k):
    return max(comb(n, j) for j in range(k + 1)).bit_length()


def _decode_key(key, width):
    """Bin counts of a packed key, lowest bin first."""
    bins = []
    while key:
        bins.append(key & ((1 << width) - 1))
        key >>= width
    return bins


def _sorted_sum_histogram(values, k):
    """Counts of the k-sums of ``values`` at each integer step above the least."""
    sums = ksums(values, k).sums
    bins = [0] * int(sums[-1] - sums[0] + 1)
    for s in sums:
        bins[int(s - sums[0])] += 1
    return bins


def test_general_checkpoint_bytes_are_pinned(tmp_path):
    spec = SearchSpec(n=4, k=2, bound=7)
    ck = tmp_path / "progress.jsonl"
    find_collisions(spec, checkpoint=str(ck))
    digest = hashlib.sha256(ck.read_bytes()).hexdigest()
    assert digest == "71475c376f43200ce520dd49ffd176f766dc8906d38ee559cc23b741beea39f5"
    lines = ck.read_text().splitlines()
    keys = [int(key, 16) for line in lines[1:] for key in json.loads(line)["keys"]]
    candidates = _fraction_candidates(spec)
    assert len(keys) == len(candidates)
    for key, candidate in zip(keys, candidates):
        assert _decode_key(key, _bin_width(4, 2)) == _sorted_sum_histogram(candidate, 2)


def test_format_two_checkpoint_is_refused(tmp_path):
    spec = SearchSpec(n=4, k=2, bound=7)
    header = {"format": 2, "n": 4, "k": 2, "bound": 7, "symmetric": False, "chunk_size": search.CHUNK_SIZE}
    sums = [ksums(candidate, 2) for candidate in _fraction_candidates(spec)]
    chunk = {"chunk": 0, "keys": [[s.denominator, list(s.numerators)] for s in sums]}
    ck = tmp_path / "progress.jsonl"
    ck.write_text(json.dumps({"header": header}) + "\n" + json.dumps(chunk) + "\n")
    before = ck.read_bytes()
    with pytest.raises(ValueError, match="different search"):
        find_collisions(spec, checkpoint=str(ck))
    assert ck.read_bytes() == before


@pytest.mark.parametrize("spec", [SearchSpec(6, 3, 8), SearchSpec(4, 2, 7), SearchSpec(8, 2, 8, True)], ids=str)
def test_raw_records_are_every_pair_of_equal_k_sums(monkeypatch, spec):
    raw = []

    def capture(records):
        raw.extend(records)
        return dedupe_records(records)

    monkeypatch.setattr(search, "dedupe_records", capture)
    find_collisions(spec)
    den, stream = search._candidates(spec)
    buckets = {}
    for nums in stream:
        candidate = tuple(Fraction(v, den) for v in nums)
        buckets.setdefault(ksums(candidate, spec.k).sums, []).append(candidate)
    expected = [
        (x, y) for sums in sorted(buckets) for x, y in itertools.combinations(sorted(buckets[sums]), 2)
    ]
    assert expected and [(r.first, r.second) for r in raw] == expected
    assert all(type(v) is Fraction for r in raw for v in r.first + r.second)


def test_checkpoint_keys_that_merge_different_sums_are_refused(tmp_path):
    spec = SearchSpec(n=4, k=2, bound=5)
    ck = tmp_path / "progress.jsonl"
    find_collisions(spec, checkpoint=str(ck))
    header, line = ck.read_text().splitlines()
    chunk = json.loads(line)
    chunk["keys"] = ["1"] * len(chunk["keys"])
    ck.write_text(header + "\n" + json.dumps(chunk) + "\n")
    with pytest.raises(ValueError, match="different 2-sums in one bucket"):
        find_collisions(spec, checkpoint=str(ck))


def _search_form(raw, symmetric):
    """Numerators and denominator of a candidate as the search holds it:
    {-v, v : v in raw} over 1, or raw centred to sum zero over len(raw)."""
    if symmetric:
        return tuple(sorted([-v for v in raw] + raw)), 1
    n, total = len(raw), sum(raw)
    return tuple(sorted(n * v - total for v in raw)), n


def _centred(raw, symmetric):
    values = [Fraction(v) for v in raw] + ([Fraction(-v) for v in raw] if symmetric else [])
    mean = sum(values) / len(values)
    return [v - mean for v in values]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_packed_keys_are_equal_exactly_when_k_sums_are(data):
    symmetric = data.draw(st.booleans())
    size = data.draw(st.integers(1, 6))
    n = 2 * size if symmetric else size
    k = data.draw(st.integers(1, n))
    values = st.lists(st.integers(0, 9), min_size=size, max_size=size)
    first = data.draw(values | st.integers(0, 9).map(lambda v: [v] * size))
    how = data.draw(st.sampled_from(["independent", "shifted", "reflected", "equal"]))
    if how == "independent":
        second = data.draw(values)
    elif how == "shifted":
        second = [v + data.draw(st.integers(-5, 5)) for v in first]
    elif how == "reflected":
        second = [max(first) - v for v in first]
    else:
        second = [first[0]] * size
    (a, den), (b, _) = _search_form(first, symmetric), _search_form(second, symmetric)
    keys = search._chunk_pairs((k, den, [a, b]))
    assert keys == [search._chunk_pairs((k, den, [c]))[0] for c in (a, b)]  # chunk-independent
    same = ksums(_centred(first, symmetric), k) == ksums(_centred(second, symmetric), k)
    assert (keys[0] == keys[1]) == same
    j = min(k, n - k)  # centred, so the k-sums are the negated (n - k)-sums
    histogram = _sorted_sum_histogram(_centred(first, symmetric), j) if j else [1]
    assert _decode_key(keys[0], _bin_width(n, j)) == histogram


@pytest.mark.parametrize("n", range(1, 13))
def test_packed_key_bins_hold_every_subset(n):
    # all elements equal: one bin counts every subset, the most any bin holds
    for k in range(1, n + 1):
        assert search._chunk_pairs((k, n, [(0,) * n]))[0] == comb(n, min(k, n - k))


def test_known_pair_shares_a_packed_key():
    pair = [tuple(map(int, member)) for member in (COLLISION_FIRST, COLLISION_SECOND)]
    keys = search._chunk_pairs((4, 1, [*pair, (-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6)]))
    assert keys[0] == keys[1] != keys[2]


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_are_rejected(workers):
    with pytest.raises(ValueError, match="workers"):
        find_collisions(SearchSpec(n=4, k=2, bound=5), workers=workers)


def test_oversized_search_fails_fast(tmp_path):
    ck = tmp_path / "progress.jsonl"
    start = time.perf_counter()
    for spec in (SearchSpec(n=40, k=2, bound=40), SearchSpec(n=40, k=2, bound=40, symmetric_only=True)):
        with pytest.raises(ValueError, match="candidates"):
            find_collisions(spec, checkpoint=str(ck))
    assert time.perf_counter() - start < 1
    assert not ck.exists()  # refused before the checkpoint is opened
    largest = SearchSpec(n=12, k=4, bound=12, symmetric_only=True)
    assert search._candidate_count(largest) == 18564 <= search.MAX_CANDIDATES


def test_spaces_of_too_many_numerators_fail_fast():
    # admitted by every other guard, but their candidates would need several GB
    start = time.perf_counter()
    for spec in (SearchSpec(n=50000, k=1, bound=1), SearchSpec(n=706, k=1, bound=2)):
        assert search._candidate_count(spec) <= search.MAX_CANDIDATES
        with pytest.raises(ValueError, match="numerators"):
            find_collisions(spec)
    assert time.perf_counter() - start < 1
    for spec in (SearchSpec(12, 4, 20, symmetric_only=True), SearchSpec(12, 4, 9), SearchSpec(3, 1, 700)):
        assert search._candidate_count(spec) * spec.n <= search.MAX_NUMERATORS
