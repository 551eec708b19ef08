"""Bounded exhaustive search for distinct multisets with equal k-sums.

Candidates are enumerated deterministically, bucketed by the integer form
of their k-sum multiset, and every pair sharing a bucket becomes a
collision record.  Symmetric mode enumerates negation-symmetric sets only
(both known 12-element examples are symmetric), which keeps the (12, 4,
B=8) space at 3003 candidates; general mode walks all nondecreasing tuples
from {0..B} up to shift, and is exponential in n.

Chunked work partitioning keeps parallel runs reproducible: workers map
chunks to keys and the merge is ordered, so the record list never depends
on the worker count.  A checkpoint file holds a header fixing the search,
then one JSON line of keys per chunk, written as the chunk finishes; a
resumed run enumerates the candidates again and keys only missing chunks.
"""

from __future__ import annotations

import json
import os
from contextlib import ExitStack
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Iterator, Sequence

from .elimination import residual_relations
from .multisets import (
    NumberMultiset,
    SumMultiset,
    affine_image,
    ksums,
    normalize_affine,
    power_sum_vector,
)

CHUNK_SIZE = 256


@dataclass(frozen=True)
class SearchSpec:
    n: int
    k: int
    bound: int
    symmetric_only: bool = False
    dedupe_affine: bool = True

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
    canonical_sums: SumMultiset


def enumerate_candidates(spec: SearchSpec) -> Iterator[NumberMultiset]:
    """Deterministic candidate stream for the given search space."""
    if spec.symmetric_only:
        for values in combinations_with_replacement(range(spec.bound + 1), spec.n // 2):
            expanded = [Fraction(v) for v in values] + [Fraction(-v) for v in values]
            yield tuple(sorted(expanded))
        return
    seen: set[NumberMultiset] = set()
    for values in combinations_with_replacement(range(spec.bound + 1), spec.n):
        total = sum(values)
        shifted = tuple(Fraction(v) - Fraction(total, spec.n) for v in values)
        if shifted not in seen:
            seen.add(shifted)
            yield shifted


Key = tuple[int, tuple[int, ...]]  # (denominator, numerators) of a candidate's k-sums


def _chunk_pairs(args: tuple[int, Sequence[NumberMultiset]]) -> list[Key]:
    k, chunk = args
    return [(s.denominator, s.numerators) for s in (ksums(candidate, k) for candidate in chunk)]


def _checkpoint_header(spec: SearchSpec) -> dict:
    return {
        "format": 2,
        "n": spec.n,
        "k": spec.k,
        "bound": spec.bound,
        "symmetric": spec.symmetric_only,
        "chunk_size": CHUNK_SIZE,
    }


def _decode_chunk(line: str | bytes, sizes: list[int]) -> tuple[int, list[Key]]:
    data = json.loads(line)
    chunk_id, keys = data["chunk"], [(den, tuple(nums)) for den, nums in data["keys"]]
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


def find_collisions(
    spec: SearchSpec, workers: int = 1, checkpoint: str | None = None
) -> list[CollisionRecord]:
    """All collision pairs within the bounded space, canonically ordered."""
    candidates = list(enumerate_candidates(spec))
    chunks = [candidates[i : i + CHUNK_SIZE] for i in range(0, len(candidates), CHUNK_SIZE)]

    sizes = [len(chunk) for chunk in chunks]
    done, has_header = _load_checkpoint(checkpoint, spec, sizes) if checkpoint else ({}, False)
    pending = [i for i in range(len(chunks)) if i not in done]
    jobs = [(spec.k, chunks[i]) for i in pending]
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
                print(json.dumps({"chunk": chunk_id, "keys": keys}), file=out)

    groups: dict[Key, list[NumberMultiset]] = {}
    for chunk_id, chunk in enumerate(chunks):
        for candidate, key in zip(chunk, done[chunk_id]):
            groups.setdefault(key, []).append(candidate)

    records = [
        CollisionRecord(a, b, spec.k, SumMultiset(nums, den, spec.n, spec.k))
        for (den, nums), members in groups.items()
        for a, b in combinations(sorted(members), 2)
    ]
    records.sort(key=lambda r: (r.canonical_sums.sums, r.first, r.second))
    if spec.dedupe_affine:
        records = dedupe_records(records)
    return records


def collision_class_key(
    first: NumberMultiset, second: NumberMultiset
) -> tuple[NumberMultiset, NumberMultiset]:
    """Canonical form of an unordered pair under joint shift, positive
    scale, and reflection.  Pairs with equal keys are the same collision."""
    ordered = tuple(sorted((tuple(sorted(first)), tuple(sorted(second)))))
    _, shift, scale = normalize_affine(ordered[0] + ordered[1])
    mapped = tuple(
        tuple(scale * (v + shift) for v in member) for member in ordered
    )
    variants = []
    for sign in (1, -1):
        parts = tuple(
            sorted(tuple(sorted(sign * v for v in member)) for member in mapped)
        )
        variants.append(parts)
    return min(variants)


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
    sums = ksums(record.first, record.k)
    if sums != ksums(record.second, record.k) or sums != record.canonical_sums:
        return False
    if len(record.first) == 12 and record.k == 4:
        for member in (record.first, record.second):
            shift = -sum(member) / len(member)
            shifted = affine_image(member, Fraction(1), shift)
            s = power_sum_vector(shifted, 12)
            if s[2] != 0 and any(residual_relations(s)):
                return False
    return True
