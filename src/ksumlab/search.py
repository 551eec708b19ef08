"""Bounded exhaustive search for distinct multisets with equal k-sums.

Candidates are enumerated deterministically as integer numerators over
one shared denominator and bucketed by one exact int each, their k-sum
histogram packed by Kronecker substitution (see ``_chunk_pairs``); every
pair sharing a bucket becomes a collision record.  Only the members of a
shared bucket are keyed again, to check the bucket, and turned into
Fractions; the runs of one sorted k-sum multiset per bucket order its records.
Symmetric mode enumerates negation-symmetric sets only (both known
12-element examples are symmetric), which keeps the (12, 4, B=8) space at
3003 candidates; general mode walks one representative per shift class of
the nondecreasing tuples from {0..B}, the one starting at 0, centred to
sum zero, and is exponential in n.  Spaces of more than ``MAX_CANDIDATES``
candidates, more than ``MAX_NUMERATORS`` numerators in all, more than
``MAX_SUMS`` k-sums per candidate or more than ``MAX_KEY_BITS`` of keys
are refused up front; more than ``MAX_PAIRS`` pairs of candidates with
equal k-sums are refused once the buckets are formed, before any record
is built.

Chunked work partitioning keeps parallel runs reproducible: workers map
chunks to keys and the merge is ordered, so the record list never depends
on the worker count.  A checkpoint file holds a header fixing the search,
then one JSON line of hex keys per chunk, written as the chunk finishes; a
resumed run enumerates the candidates again and keys only missing chunks.
"""

from __future__ import annotations

import json
import os
from contextlib import ExitStack
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, groupby
from math import comb
from typing import Iterator, Sequence

from .elimination import K_SUM, N_ELEMENTS, residual_relations
from .multisets import (
    NumberMultiset,
    centred_power_sums,
    check_sum_count,
    collision_class_key,
    ksums,
)

CHUNK_SIZE = 256
# Every candidate and its key stay in memory until the buckets are formed,
# so larger spaces are refused before any work.  Symmetric (12, 4, B=20)
# has 230230 candidates and 333603270 key bits at most; it takes about 4 s
# and peaks near 150 MB, as does general (3, 1, B=700) with 246051.
MAX_CANDIDATES = 250_000
# The candidates hold n numerators each, about 27 bytes apiece: general
# (200, 1, 2) stores 4020000 and peaks near 115 MB, (250, 1, 2) 7843750
# and 220 MB.  The bound keeps peaks near the 150 MB above and refuses no
# space of n < 26 that MAX_CANDIDATES admits; symmetric (12, 4, 20) stores 2762760.
MAX_NUMERATORS = 5_000_000
MAX_KEY_BITS = 400_000_000
# Every pair in a bucket becomes a record, about 19 us and 0.4 KB each;
# at k = n all candidates share one bucket.
MAX_PAIRS = 100_000


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


def _candidate_count(spec: SearchSpec) -> int:
    """Number of candidates in the search space, without enumerating it."""
    if spec.symmetric_only:
        return comb(spec.bound + spec.n // 2, spec.n // 2)
    return comb(spec.bound + spec.n - 1, spec.n - 1)


Numerators = tuple[int, ...]  # a candidate, over the denominator of its space


def _candidates(spec: SearchSpec) -> tuple[int, Iterator[Numerators]]:
    """The shared denominator of a space and its candidates' numerators.

    A symmetric candidate is {-v, v : v in half}, over 1.  In general mode
    the lexicographically first nondecreasing tuple of a shift class is the
    one starting at 0, so the tuples ``(0,) + rest`` are exactly the first
    occurrences, in the same order; each is centred to sum zero as
    ``n * v - total`` over n.
    """
    if spec.symmetric_only:
        halves = combinations_with_replacement(range(spec.bound + 1), spec.n // 2)
        return 1, (tuple(-v for v in reversed(half)) + half for half in halves)
    n = spec.n

    def centred() -> Iterator[Numerators]:
        for rest in combinations_with_replacement(range(spec.bound + 1), n - 1):
            total = sum(rest)
            yield (-total, *(n * v - total for v in rest))

    return n, centred()


def _as_fractions(nums: Numerators, den: int) -> NumberMultiset:
    return tuple(Fraction(v, den) for v in nums)


Key = int  # a candidate's packed k-sum histogram; see _chunk_pairs


def _key_arity(n: int, k: int) -> tuple[int, int]:
    """The arity j whose sums are packed, and the bits per histogram bin.

    Candidates sum to zero, so their k-sums are their negated (n - k)-sums
    and the lesser arity gives the same buckets.  No bin of i-sums counts
    more than C(n, i) <= C(n, j) subsets, for i <= j <= n / 2.
    """
    j = min(k, n - k)
    return j, comb(n, j).bit_length()


def _key_bits(spec: SearchSpec) -> int:
    """Bits of the widest packed key a candidate of the space can have."""
    span = 0 if spec.n == 1 else 2 * spec.bound if spec.symmetric_only else spec.bound
    j, width = _key_arity(spec.n, spec.k)
    return (j * span + 1) * width


def _chunk_pairs(args: tuple[int, int, Sequence[Numerators]]) -> list[Key]:
    """The packed key of each candidate of one chunk.

    A candidate's offsets ``(x - min) / den`` are integers, and the number
    of j-subsets with offset sum s is the coefficient of y^j z^s in the
    product of (1 + y z^offset), with j from ``_key_arity``.  The product
    is taken in one int by Kronecker substitution: z is a bin of w bits, y
    a level of j * span + 1 bins, and levels above j are masked off.  A bin
    never holds more than 2^w - 1, so no bin carries into the next.  The
    key is level j, shifted down to its lowest nonzero bin.  Candidates are
    centred, so sum multisets that are translates of each other are equal:
    two candidates share a key exactly when their k-sums are equal.
    """
    k, den, chunk = args
    j, width = _key_arity(len(chunk[0]), k)
    span = max(c[-1] - c[0] for c in chunk) // den
    level = (j * span + 1) * width
    top = j * level
    mask = (1 << (top + level)) - 1
    keys = []
    for nums in chunk:
        low, packed = nums[0], 1
        for x in nums:
            packed = (packed + (packed << (level + (x - low) // den * width))) & mask
        lowest = (sum(nums[:j]) - j * low) // den
        keys.append(packed >> (top + lowest * width))
    return keys


def _checkpoint_header(spec: SearchSpec) -> dict:
    return {
        "format": 3,
        "n": spec.n,
        "k": spec.k,
        "bound": spec.bound,
        "symmetric": spec.symmetric_only,
        "chunk_size": CHUNK_SIZE,
    }


def _decode_chunk(line: str | bytes, sizes: list[int]) -> tuple[int, list[Key]]:
    data = json.loads(line)
    chunk_id, keys = data["chunk"], [int(key, 16) for key in data["keys"]]
    if not 0 <= chunk_id < len(sizes) or len(keys) != sizes[chunk_id]:
        raise ValueError(f"chunk {chunk_id} does not fit this search")
    return chunk_id, keys


def _load_checkpoint(path: str, spec: SearchSpec, sizes: list[int]) -> tuple[dict[int, list[Key]], bool]:
    """Completed chunks from a checkpoint file, plus whether a valid header
    line is already present; ``sizes[i]`` is the length of chunk i.

    An undecodable last line is the torn tail of an interrupted write: it
    is cut off the file, so the next append starts on a fresh line, and its
    chunk is computed again.  Any other undecodable line is an error.
    """
    done: dict[int, list[Key]] = {}
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return done, False
    intact = 0  # bytes of decodable lines before the current one
    complete = True  # whether the last decodable line ends in a newline
    with handle:
        line, number = handle.readline(), 1
        while line:
            following = handle.readline()
            try:
                if number == 1:
                    entry = json.loads(line).get("header")
                else:
                    entry = _decode_chunk(line, sizes) if line.strip() else None
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                if following:
                    raise ValueError(f"checkpoint {path} line {number} is corrupt: {exc}") from None
                break
            if number == 1:
                if entry != _checkpoint_header(spec):
                    raise ValueError(f"checkpoint {path} was written for a different search")
            elif entry is not None:
                chunk_id, keys = entry
                done[chunk_id] = keys
            intact += len(line)
            complete = line.endswith(b"\n")
            line, number = following, number + 1
    if line:
        os.truncate(path, intact)
    elif not complete:
        with open(path, "ab") as out:
            out.write(b"\n")
    return done, intact > 0


def _runs_key(ascending: Sequence[int], scale: int) -> tuple[tuple[int, int], ...]:
    """``(v * scale, -count)`` for each run of equal values in ``ascending``.

    Ascending sequences of one length sort by it as they sort themselves: at
    the first run where two differ, the lesser value comes first in both, and
    of two equal values the longer run, as its sequence then holds that value
    where the other holds a larger one.
    """
    return tuple((v * scale, -sum(1 for _ in run)) for v, run in groupby(ascending))


def find_collisions(
    spec: SearchSpec, workers: int = 1, checkpoint: str | None = None
) -> list[CollisionRecord]:
    """All collision pairs within the bounded space, canonically ordered."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    count = _candidate_count(spec)
    if count > MAX_CANDIDATES:
        raise ValueError(
            f"the search space has {count} candidates, more than the {MAX_CANDIDATES} allowed;"
            " lower the bound or n"
        )
    numerators = count * spec.n
    if numerators > MAX_NUMERATORS:
        raise ValueError(
            f"the candidates of the search space hold {numerators} numerators, more than the"
            f" {MAX_NUMERATORS} allowed; lower the bound or n"
        )
    check_sum_count(spec.n, spec.k)
    key_bits = count * _key_bits(spec)
    if key_bits > MAX_KEY_BITS:
        raise ValueError(
            f"the keys of the search space take up to {key_bits} bits, more than the"
            f" {MAX_KEY_BITS} allowed; lower the bound"
        )
    den, stream = _candidates(spec)
    candidates = list(stream)
    chunks = [candidates[i : i + CHUNK_SIZE] for i in range(0, len(candidates), CHUNK_SIZE)]

    sizes = [len(chunk) for chunk in chunks]
    done, has_header = _load_checkpoint(checkpoint, spec, sizes) if checkpoint else ({}, False)
    pending = [i for i in range(len(chunks)) if i not in done]
    jobs = [(spec.k, den, chunks[i]) for i in pending]
    with ExitStack() as stack:  # line-buffered: each line reaches the file as it is written
        out = stack.enter_context(open(checkpoint, "a", buffering=1, encoding="utf-8")) if checkpoint else None
        if out and not has_header:
            print(json.dumps({"header": _checkpoint_header(spec)}), file=out)
        if workers > 1 and len(jobs) > 1:
            from multiprocessing import Pool  # lazy: it would slow every `import ksumlab`

            results = stack.enter_context(Pool(processes=workers)).imap(_chunk_pairs, jobs)
        else:
            results = map(_chunk_pairs, jobs)
        for chunk_id, keys in zip(pending, results):
            done[chunk_id] = keys
            if out:
                print(json.dumps({"chunk": chunk_id, "keys": [format(key, "x") for key in keys]}), file=out)

    groups: dict[Key, list[Numerators]] = {}
    for chunk_id, chunk in enumerate(chunks):
        for candidate, key in zip(chunk, done[chunk_id]):
            groups.setdefault(key, []).append(candidate)

    shared = [members for members in groups.values() if len(members) > 1]
    pair_count = sum(comb(len(members), 2) for members in shared)
    if pair_count > MAX_PAIRS:
        raise ValueError(
            f"the search space has {pair_count} pairs of candidates with equal {spec.k}-sums,"
            f" more than the {MAX_PAIRS} allowed; lower the bound or k"
        )
    # Buckets have distinct k-sums, so sorting them by sums, then members, orders the
    # records as (sums, first, second); every sum's denominator divides den.
    buckets = []
    for members in shared:
        if len(set(_chunk_pairs((spec.k, den, members)))) > 1:
            source = f"checkpoint {checkpoint}" if checkpoint else "keying"
            raise ValueError(f"{source} put candidates with different {spec.k}-sums in one bucket")
        sums = ksums(members[0], spec.k, den)
        buckets.append((_runs_key(sums.numerators, den // sums.denominator), sorted(members)))
    return dedupe_records([
        CollisionRecord(x, y, spec.k)
        for _, members in sorted(buckets)
        for x, y in combinations([_as_fractions(nums, den) for nums in members], 2)
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
    """Recompute everything the record claims; for 12-element, 4-sum pairs
    with nonzero shifted S_2 also require the compatibility residuals of
    both members to vanish."""
    if tuple(sorted(record.first)) == tuple(sorted(record.second)):
        return False
    if len(record.first) != len(record.second):
        return False
    if ksums(record.first, record.k) != ksums(record.second, record.k):
        return False
    if (len(record.first), record.k) == (N_ELEMENTS, K_SUM):
        for member in (record.first, record.second):  # S_2 = 0 when every element is equal
            if len(set(member)) > 1 and any(residual_relations(centred_power_sums(member, N_ELEMENTS))):
                return False
    return True
