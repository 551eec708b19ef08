"""Bounded exhaustive search for distinct multisets with equal k-sums.

Candidates are enumerated deterministically as their generating tuples and
bucketed by one exact int each, their k-sum histogram packed by Kronecker
substitution (see ``_chunk_pairs``); every pair sharing a bucket becomes a
collision record.  Only the members of a shared bucket are keyed again, to
check the bucket, and turned into numerators, then Fractions; the runs of
one sorted k-sum multiset per bucket order its records.
Symmetric mode enumerates negation-symmetric sets only (both known
12-element examples are symmetric), which keeps the (12, 4, B=8) space at
3003 candidates; general mode walks one representative per shift class of
the nondecreasing tuples from {0..B}, the one starting at 0, centred to
sum zero, and is exponential in n.  ``check_listing`` refuses, before
any work, a space whose candidates and keys would hold more than
``MAX_LISTING_BYTES``; as the keyed candidates are bucketed, a space is
refused as soon as the records and the k-sums of its shared buckets would
cost more than ``MAX_BUCKET_WORK``, before any record or k-sum is built.

Chunked work partitioning keeps parallel runs reproducible: the pending
chunks are dealt round-robin to the workers, which are the calling process
and ``workers - 1`` children made by ``os.fork`` after the candidates are
listed, so no candidate is sent anywhere; each child pipes back the keys of
its chunks in order, and the caller takes every chunk's keys in chunk order,
so the record list and checkpoint never depend on the worker count.  More
than one worker needs Linux: elsewhere ``os.fork`` is missing, or, on macOS,
unsafe without an exec once system libraries have started threads.  A
checkpoint file holds a header fixing the search, then one JSON line of hex
keys per chunk, written as the chunk's keys arrive; a resumed run enumerates
the candidates again and keys only missing chunks.

``verify_record`` checks a record by its k-sums alone, so this module needs
only ``multisets``; whether a 12-set's (12, 4) residuals vanish is for
``elimination.residual_relations`` to say.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import ExitStack, closing
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement, groupby, islice
from math import comb
from typing import BinaryIO, Iterator, Sequence

from .multisets import (
    NumberMultiset,
    approximate,
    check_sum_count,
    collision_class_key,
    comb_at_least,
    ksums,
)

CHUNK_SIZE = 256
# Candidates and keys stay in memory until bucketed, priced at about 256 bytes per
# candidate (its tuple, its key's int, their slots in chunks and groups), 32 per
# numerator and 1 per 8 bits of the widest key.  Generating tuples hold less than
# that: symmetric (12, 4, B=20), priced at 189 MB, peaks near 107 MB.
MAX_LISTING_BYTES = 200_000_000
# A shared bucket builds its C(n, k) sums, about 0.4 us each, to order its records,
# and each pair in it becomes a record, about 50 us with its share of the bucket's
# fixed cost, so priced as 125 sums; general (6, 3, B=22), at 5.85 million, takes 5 s.
MAX_BUCKET_WORK = 6_000_000


@dataclass(frozen=True)
class SearchSpec:
    n: int
    k: int
    bound: int
    symmetric_only: bool = False

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.bound < 0:
            raise ValueError(f"bound must be nonnegative, got {self.bound}")
        if self.symmetric_only and self.n % 2:
            raise ValueError("symmetric mode needs an even n")


@dataclass(frozen=True)
class CollisionRecord:
    first: NumberMultiset
    second: NumberMultiset
    k: int


def _candidate_count(spec: SearchSpec) -> tuple[int, bool]:
    """Number of candidates in the search space, without enumerating it, and
    whether it is exact; see ``comb_at_least``."""
    m = spec.n // 2 if spec.symmetric_only else spec.n - 1
    return comb_at_least(spec.bound + m, m)


Generator = tuple[int, ...]  # the nondecreasing tuple of a candidate; see _candidates


def _candidates(spec: SearchSpec) -> Iterator[Generator]:
    """The generating tuple of each candidate, in order: the half of a symmetric
    {-v, v : v in half}, or the ``rest`` of ``(0,) + rest``, the first tuple of a
    shift class."""
    return combinations_with_replacement(range(spec.bound + 1), spec.n // 2 if spec.symmetric_only else spec.n - 1)


def _numerators(generator: Generator, symmetric: bool) -> tuple[int, ...]:
    """A candidate over its space's denominator: {-v, v : v in generator} over 1,
    or ``(0,) + generator`` centred as ``n * v - total`` over n."""
    if symmetric:
        return tuple(-v for v in reversed(generator)) + generator
    n, total = len(generator) + 1, sum(generator)
    return (-total, *(n * v - total for v in generator))


Key = int  # a candidate's packed k-sum histogram; see _chunk_pairs


def _key_arity(n: int, k: int) -> tuple[int, int]:
    """The arity j whose sums are packed, and the bits per histogram bin.

    Candidates sum to zero, so their k-sums are their negated (n - k)-sums
    and the lesser arity gives the same buckets.  No bin of i-sums counts
    more than C(n, i) <= C(n, j) subsets, for i <= j <= n / 2.
    """
    j = min(k, n - k)
    return j, comb(n, j).bit_length()


def check_listing(spec: SearchSpec) -> None:
    """Refuse, before any work, a space whose candidates have too many k-sums,
    or whose candidates and keys would hold more than ``MAX_LISTING_BYTES``."""
    # MAX_SUMS also bounds _chunk_pairs' product alone: j + 1 levels of bins, each C(n, j).bit_length() wide.
    check_sum_count(spec.n, spec.k)
    j, width = _key_arity(spec.n, spec.k)
    span = 0 if spec.n == 1 else 2 * spec.bound if spec.symmetric_only else spec.bound
    (count, exact), key_bits = _candidate_count(spec), (j * span + 1) * width  # the widest key
    held = count * (256 + 32 * spec.n + key_bits // 8)
    if held > MAX_LISTING_BYTES:
        raise ValueError(
            f"the search space has {approximate(count, exact)} candidates of {spec.n} numerators each, with keys"
            f" of up to {key_bits} bits; they would hold {approximate(held // 10**6, exact)} MB, more than the"
            f" {MAX_LISTING_BYTES // 10**6} MB allowed; lower the bound or n"
        )


def _chunk_pairs(args: tuple[int, bool, Sequence[Generator]]) -> list[Key]:
    """The packed key of each candidate of one chunk, from its generating tuple.

    Offsets are ``(0,) + rest``, which is ``(x - min) / n`` of the centred
    candidate, or hi - v and hi + v for each v of a half, hi the chunk's
    largest generator.  The number of j-subsets with offset sum s, j from
    ``_key_arity``, is the coefficient of y^j z^s in the product of
    (1 + y z^offset), taken in one int: z is a bin of w bits, wider than any
    count, y a level of j * span + 1 bins; levels above j are masked off.
    ``stack`` holds the product at each prefix of the previous generator, so
    a candidate multiplies in only its values after the prefix it shares.
    The key is level j shifted down to its lowest nonzero bin, the sum of the
    j least offsets.  Candidates are centred, so two share a key exactly when
    their k-sums are equal.
    """
    k, symmetric, chunk = args
    m = len(chunk[0])
    j, width = _key_arity(2 * m if symmetric else m + 1, k)
    hi = max(g[-1] for g in chunk) if m else 0
    level = (j * (2 * hi if symmetric else hi) + 1) * width
    top = j * level
    mask = (1 << (top + level)) - 1
    stack = [1 if symmetric else (1 + (1 << level)) & mask]  # in general mode, the factor of offset 0
    previous, keys = (), []
    for g in chunk:
        p = 0  # the length of the prefix g shares with the previous generator
        for a, b in zip(g, previous):
            if a != b:
                break
            p += 1
        del stack[p + 1 :]
        packed = stack[-1]
        for v in g[p:]:
            if symmetric:
                packed = (packed + (packed << (level + (hi - v) * width))) & mask
                v += hi
            packed = (packed + (packed << (level + v * width))) & mask
            stack.append(packed)
        previous = g
        lowest = (j * hi - sum(g[m - j :]) if symmetric else sum(g[: j - 1])) if j else 0
        keys.append(packed >> (top + lowest * width))
    return keys


def _keyed_chunks(
    k: int, symmetric: bool, chunks: list[list[Generator]], pending: list[int], workers: int
) -> Iterator[list[Key]]:
    """The keys of ``chunks[i]`` for each i in ``pending``, in that order.

    ``pending[p]`` goes to worker ``p % w``, w = min(workers, len(pending)).
    Worker 0 is the caller, which keys its chunks as their turn comes; the
    others are forked children that inherit the chunks, key theirs in order
    and pickle each chunk's keys down their own pipe as soon as it is done.
    Every child is reaped before this generator finishes, on every path.  No
    child holds the read end of another's pipe, and every pipe is closed
    before any child is reaped, so a child blocked on a full pipe ends on EPIPE.
    """
    w = min(workers, len(pending))
    if w <= 1:
        for i in pending:
            yield _chunk_pairs((k, symmetric, chunks[i]))
        return
    import pickle  # lazy, as it would slow every `import ksumlab`

    children: list[tuple[int, BinaryIO]] = []
    try:
        for slot in range(1, w):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                status = 1
                try:  # a child never returns: it skips inherited buffers and atexit handlers
                    os.close(read_end)
                    for _, reader in children:
                        reader.close()
                    with os.fdopen(write_end, "wb") as pipe:
                        for i in pending[slot::w]:
                            try:
                                message = True, _chunk_pairs((k, symmetric, chunks[i]))
                            except Exception as exc:
                                message = False, f"{type(exc).__name__}: {exc}"
                            pickle.dump(message, pipe)
                            pipe.flush()
                            if not message[0]:
                                break
                        else:
                            status = 0
                finally:
                    os._exit(status)
            os.close(write_end)
            children.append((pid, os.fdopen(read_end, "rb")))
        for p, i in enumerate(pending):
            if p % w == 0:
                yield _chunk_pairs((k, symmetric, chunks[i]))
                continue
            pid, reader = children[p % w - 1]
            try:
                ok, payload = pickle.load(reader)
            except (EOFError, pickle.UnpicklingError):  # nothing, or a message cut short
                raise RuntimeError(f"search worker {pid} ended before sending the keys of chunk {i}") from None
            if not ok:
                raise RuntimeError(f"search worker {pid} failed on chunk {i}: {payload}")
            yield payload
    finally:
        for _, reader in children:
            reader.close()
        for pid, _ in children:
            os.waitpid(pid, 0)


def _checkpoint_header(spec: SearchSpec) -> dict:
    return {"format": 3, "n": spec.n, "k": spec.k, "bound": spec.bound, "symmetric": spec.symmetric_only,
            "chunk_size": CHUNK_SIZE}


def _decode_chunk(line: str | bytes, sizes: list[int]) -> tuple[int, list[Key]]:
    data = json.loads(line)
    chunk_id, keys = data["chunk"], [int(key, 16) for key in data["keys"]]
    if not 0 <= chunk_id < len(sizes) or len(keys) != sizes[chunk_id]:
        raise ValueError(f"chunk {chunk_id} does not fit this search")
    return chunk_id, keys


def _load_checkpoint(path: str, spec: SearchSpec, sizes: list[int]) -> tuple[dict[int, list[Key]], bool]:
    """Completed chunks from a checkpoint file, plus whether a valid header
    line is already present; ``sizes[i]`` is the length of chunk i.

    A write cut short never reaches its newline, so only a last line
    without one can be torn: if it does not decode, and, on the header
    line, is a prefix of this search's header, it is cut off the file, so
    the next append starts on a fresh line, and its chunk is computed
    again.  Any other line that does not decode is an error, and the file
    is left as it is.
    """
    done: dict[int, list[Key]] = {}
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return done, False
    expected = _checkpoint_header(spec)
    header = json.dumps({"header": expected}).encode()  # the bytes this search writes, before the newline
    intact = 0  # bytes of the decodable lines
    torn = False
    with handle:
        for number, line in enumerate(handle, 1):
            try:
                if number == 1:
                    entry = json.loads(line).get("header")
                else:
                    entry = _decode_chunk(line, sizes) if line.strip() else None
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                if line.endswith(b"\n") or number == 1 and not header.startswith(line):
                    raise ValueError(f"checkpoint {path} line {number} is corrupt: {exc}") from None
                torn = True
                break
            if number == 1:
                if entry != expected:
                    raise ValueError(f"checkpoint {path} was written for a different search")
            elif entry is not None:
                done[entry[0]] = entry[1]
            intact += len(line)
    if torn:
        os.truncate(path, intact)
    elif intact and not line.endswith(b"\n"):
        with open(path, "ab") as out:
            out.write(b"\n")
    return done, intact > 0


def _runs_key(ascending: Sequence[int], scale: int) -> tuple[int, ...]:
    """``v * scale, -count`` for each run of equal values in ``ascending``, in
    one flat tuple, which holds no tuple per run.

    Ascending sequences of one length sort by it as they sort themselves: at
    the first run where two differ, the lesser value comes first in both, and
    of two equal values the longer run, as its sequence then holds that value
    where the other holds a larger one.
    """
    return tuple(chain.from_iterable((v * scale, -sum(1 for _ in run)) for v, run in groupby(ascending)))


def find_collisions(spec: SearchSpec, workers: int = 1, checkpoint: str | None = None) -> list[CollisionRecord]:
    """All collision pairs within the bounded space, canonically ordered."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if workers > 1 and (sys.platform != "linux" or not hasattr(os, "fork")):
        raise ValueError(f"{workers} workers need os.fork on Linux, which {sys.platform} does not offer; use 1 worker")
    check_listing(spec)
    candidates = list(_candidates(spec))
    chunks = [candidates[i : i + CHUNK_SIZE] for i in range(0, len(candidates), CHUNK_SIZE)]

    sizes = [len(chunk) for chunk in chunks]
    done, has_header = _load_checkpoint(checkpoint, spec, sizes) if checkpoint else ({}, False)
    pending = [i for i in range(len(chunks)) if i not in done]
    sum_count = comb(spec.n, spec.k)
    groups: dict[Key, list[Generator]] = {}
    pair_count = bucket_count = 0
    with ExitStack() as stack:  # line-buffered: each line reaches the file as it is written
        out = stack.enter_context(open(checkpoint, "a", buffering=1, encoding="utf-8")) if checkpoint else None
        if out and not has_header:
            print(json.dumps({"header": _checkpoint_header(spec)}), file=out)
        results = stack.enter_context(closing(_keyed_chunks(spec.k, spec.symmetric_only, chunks, pending, workers)))
        # Candidates are bucketed as their keys arrive, so the bucket stage is refused
        # as soon as its price passes the ceiling.
        for chunk_id, keys in chain(done.items(), zip(pending, results)):
            if out and chunk_id not in done:
                print(json.dumps({"chunk": chunk_id, "keys": [format(key, "x") for key in keys]}), file=out)
            for candidate, key in zip(chunks[chunk_id], keys):
                members = groups.setdefault(key, [])
                if members:  # a pair with each earlier member; the bucket is shared from the second
                    pair_count += len(members)
                    bucket_count += len(members) == 1
                members.append(candidate)
            work = 125 * pair_count + bucket_count * sum_count
            if work > MAX_BUCKET_WORK:
                raise ValueError(
                    f"the search space has at least {pair_count} pairs of candidates with equal {spec.k}-sums, in"
                    f" {bucket_count} buckets of {sum_count} sums each, costing at least {work}, more than the"
                    f" {MAX_BUCKET_WORK} allowed; lower the bound, n or k"
                )

    shared = [members for members in groups.values() if len(members) > 1]
    del candidates, chunks, groups  # each generator is freed as it becomes numerators
    # Keys are chunk-independent, so one call keys every member of every shared bucket
    # again, to check that each bucket holds equal keys.
    rekeyed = iter(_chunk_pairs((spec.k, spec.symmetric_only, list(chain.from_iterable(shared)))) if shared else ())
    # Buckets have distinct k-sums, so sorting them by sums, then members, orders the
    # records as (sums, first, second); every sum's denominator divides den.
    den, buckets = 1 if spec.symmetric_only else spec.n, []
    for members in shared:
        if len(set(islice(rekeyed, len(members)))) > 1:
            source = f"checkpoint {checkpoint}" if checkpoint else "keying"
            raise ValueError(f"{source} put candidates with different {spec.k}-sums in one bucket")
        members[:] = sorted(_numerators(g, spec.symmetric_only) for g in members)
        sums = ksums(members[0], spec.k, den)
        buckets.append((_runs_key(sums.numerators, den // sums.denominator), members))
    fraction = {v: Fraction(v, den) for v in {v for _, members in buckets for nums in members for v in nums}}
    return dedupe_records([
        CollisionRecord(x, y, spec.k)
        for _, members in sorted(buckets)
        for x, y in combinations([tuple(map(fraction.__getitem__, nums)) for nums in members], 2)
    ])


def dedupe_records(records: Sequence[CollisionRecord]) -> list[CollisionRecord]:
    """Keep one record per affine equivalence class, preserving order."""
    kept: list[CollisionRecord] = []
    seen: set = set()
    for record in records:
        key = collision_class_key(record.first, record.second)
        if key not in seen:
            seen.add(key)
            kept.append(record)
    return kept


def verify_record(record: CollisionRecord) -> bool:
    """Check what the record claims: two distinct multisets of one size
    with equal k-sums, recomputed from the members alone."""
    first, second, k = record.first, record.second, record.k
    return len(first) == len(second) and sorted(first) != sorted(second) and ksums(first, k) == ksums(second, k)
