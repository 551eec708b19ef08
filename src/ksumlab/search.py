"""Bounded exhaustive search for distinct multisets with equal k-sums.

Candidates are enumerated deterministically, bucketed by their exact
sorted k-sum list, and every pair sharing a bucket becomes a collision
record.  Symmetric mode enumerates negation-symmetric sets only (both
known 12-element examples are symmetric), which keeps the (12, 4, B=8)
space at 3003 candidates; general mode walks all nondecreasing tuples
from {0..B} up to shift, and is exponential in n.

Chunked work partitioning keeps parallel runs reproducible: workers map
chunks to (candidate, key) pairs and the merge is ordered, so the record
list never depends on the worker count.  A checkpoint file holds one JSON
line per finished chunk and lets an interrupted run resume.
"""

from __future__ import annotations

import json
import os
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


def _chunk_pairs(args: tuple[int, Sequence[NumberMultiset]]) -> list[tuple[NumberMultiset, tuple[Fraction, ...]]]:
    k, chunk = args
    return [(candidate, ksums(candidate, k).sums) for candidate in chunk]


def _checkpoint_header(spec: SearchSpec) -> dict:
    return {
        "n": spec.n,
        "k": spec.k,
        "bound": spec.bound,
        "symmetric": spec.symmetric_only,
        "chunk_size": CHUNK_SIZE,
    }


def _encode_chunk(chunk_id: int, pairs: list[tuple[NumberMultiset, tuple[Fraction, ...]]]) -> str:
    items = [[[str(v) for v in cand], [str(v) for v in key]] for cand, key in pairs]
    return json.dumps({"chunk": chunk_id, "items": items})


def _decode_chunk(line: str | bytes) -> tuple[int, list[tuple[NumberMultiset, tuple[Fraction, ...]]]]:
    data = json.loads(line)
    pairs = [
        (tuple(Fraction(v) for v in cand), tuple(Fraction(v) for v in key))
        for cand, key in data["items"]
    ]
    return data["chunk"], pairs


def _load_checkpoint(path: str, spec: SearchSpec) -> tuple[dict[int, list], bool]:
    """Completed chunks from a checkpoint file, plus whether a valid header
    line is already present.

    An undecodable last line is the torn tail of an interrupted write: it
    is cut off the file, so the next append starts on a fresh line, and its
    chunk is computed again.  Any other undecodable line is an error.
    """
    done: dict[int, list] = {}
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
                    entry = _decode_chunk(line) if line.strip() else None
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                if following:
                    raise ValueError(f"checkpoint {path} line {number} is corrupt: {exc}") from None
                break
            if number == 1:
                if entry != _checkpoint_header(spec):
                    raise ValueError(f"checkpoint {path} was written for a different search")
            elif entry is not None:
                chunk_id, pairs = entry
                done[chunk_id] = pairs
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

    done, has_header = _load_checkpoint(checkpoint, spec) if checkpoint else ({}, False)
    pending = [i for i in range(len(chunks)) if i not in done]
    jobs = [(spec.k, chunks[i]) for i in pending]
    if workers > 1 and len(jobs) > 1:
        from multiprocessing import Pool  # lazy: it would slow every `import ksumlab`

        with Pool(processes=workers) as pool:
            results = pool.map(_chunk_pairs, jobs)
    else:
        results = [_chunk_pairs(job) for job in jobs]
    computed = dict(zip(pending, results))

    if checkpoint and pending:
        with open(checkpoint, "a", encoding="utf-8") as out:
            if not has_header:
                out.write(json.dumps({"header": _checkpoint_header(spec)}) + "\n")
            for chunk_id in pending:
                out.write(_encode_chunk(chunk_id, computed[chunk_id]) + "\n")

    groups: dict[tuple[Fraction, ...], list[NumberMultiset]] = {}
    for chunk_id in range(len(chunks)):
        for candidate, key in done.get(chunk_id) or computed[chunk_id]:
            groups.setdefault(key, []).append(candidate)

    records: list[CollisionRecord] = []
    for key, members in groups.items():
        if len(members) < 2:
            continue
        sums = SumMultiset(sums=key, source_n=spec.n, source_k=spec.k)
        for a, b in combinations(sorted(members), 2):
            records.append(CollisionRecord(first=a, second=b, k=spec.k, canonical_sums=sums))
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
    sums_a = ksums(record.first, record.k)
    sums_b = ksums(record.second, record.k)
    if sums_a.sums != sums_b.sums or sums_a.sums != tuple(sorted(record.canonical_sums.sums)):
        return False
    if len(record.first) == 12 and record.k == 4:
        for member in (record.first, record.second):
            shift = -sum(member) / len(member)
            shifted = affine_image(member, Fraction(1), shift)
            s = power_sum_vector(shifted, 12)
            if s[2] != 0 and any(residual_relations(s)):
                return False
    return True
