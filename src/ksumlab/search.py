"""Bounded exhaustive search for distinct multisets with equal k-sums.

Candidates are enumerated deterministically as their generating tuples and
bucketed by one exact int each, their k-sum histogram packed by Kronecker
substitution (see ``_chunk_pairs``); every pair sharing a bucket is a
collision.  A bucket holds its first candidate bare and becomes a list
only when a second arrives.  Only the members of a shared bucket are keyed
again, to check the bucket, and turned into int numerators; buckets are
ordered by packed k-sums, pairs deduped on ints, and only kept pairs become
Fraction records.  Symmetric mode enumerates negation-symmetric sets only
(both known 12-element examples are symmetric), which keeps the (12, 4, B=8)
space at 3003 candidates; general mode walks one representative per shift
class of the nondecreasing tuples from {0..B}, the one starting at 0,
centred to sum zero, and is exponential in n.  ``check_listing`` refuses,
before any work, a space whose candidates and keys would hold more than
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
the candidates again and keys only missing chunks.  A chunk line is written
as text, the bytes ``json.dumps({"chunk": i, "keys": [hex, ...]})`` gives.

``verify_record`` checks a record by its k-sums alone, so this module needs
only ``multisets``; whether a 12-set's (12, 4) residuals vanish is for
``elimination.residual_relations`` to say.
"""

from __future__ import annotations

import json
import os
import struct
import sys
from contextlib import ExitStack, closing
from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement, islice
from math import comb
from operator import itemgetter
from typing import BinaryIO, Callable, Iterator, Sequence

from .multisets import (
    NumberMultiset,
    Record,
    _class_key,
    approximate,
    check_sum_count,
    collision_class_key,  # imported from here by the acceptance tests
    comb_at_least,
    ksums,
)

CHUNK_SIZE = 256
# Candidates and keys stay in memory until bucketed, priced at about 256 bytes per
# candidate (its tuple, its key's int, their slots in chunks and groups), 32 per
# numerator and 1 per 8 bits of the widest key.  Generating tuples hold less than
# that: symmetric (12, 4, B=20), priced at 189 MB, peaks near 107 MB.
MAX_LISTING_BYTES = 200_000_000
# A shared bucket builds its C(n, k) sums by ksums, 0.3-0.5 us each, to order its
# pairs, and each pair in it is deduped on ints and, when kept, made a record, about
# 20 us in all, still priced as 125 sums; general (6, 3, B=22), at 5.85 million, takes
# about 2 s.
MAX_BUCKET_WORK = 6_000_000


class SearchSpec(Record):
    __slots__ = ("n", "k", "bound", "symmetric_only")

    def __init__(self, n: int, k: int, bound: int, symmetric_only: bool = False) -> None:
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        if bound < 0:
            raise ValueError(f"bound must be nonnegative, got {bound}")
        if symmetric_only and n % 2:
            raise ValueError("symmetric mode needs an even n")
        self._set(n, k, bound, symmetric_only)


class CollisionRecord(Record):
    __slots__ = ("first", "second", "k")

    def __init__(self, first: NumberMultiset, second: NumberMultiset, k: int) -> None:
        self._set(first, second, k)


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
    A shift only moves bins up and a carry only runs up, so no bit above the
    mask ever reaches a level at or below j, which is all that is read: a
    symmetric value multiplies in both its factors before one mask.

    ``stack`` holds the product P at each prefix of the previous generator's
    values but the last, so a candidate multiplies in only the values after
    the prefix it shares; in enumeration order most candidates share all of
    them, which one slice compare finds.  The last value v is not multiplied
    in: level j of the whole product is P_j + P_{j-1} z^v, or, in symmetric
    mode, P_j + P_{j-1} (z^(hi-v) + z^(hi+v)) + P_{j-2} z^(2 hi), P_i level i
    of P.  Each prefix sets ``fixed``, levels j - 1 and j of P plus the
    P_{j-2} term placed at level j, and ``under``, P_{j-1}; a candidate adds
    ``under`` at its shifts to ``fixed`` and shifts the sum down past level
    j - 1 and to its lowest nonzero bin, the sum of the j least offsets.
    That is its key.  Candidates are centred, so two share a key exactly
    when their k-sums are equal.
    """
    k, symmetric, chunk = args
    m = len(chunk[0])
    j, width = _key_arity(2 * m if symmetric else m + 1, k)
    if not j:  # k = n: every candidate's one n-sum is 0
        return [1] * len(chunk)
    hi = max(map(itemgetter(-1), chunk))
    level = (j * (2 * hi if symmetric else hi) + 1) * width
    top = j * level
    mask, bins = (1 << (top + level)) - 1, (1 << level) - 1
    # the shift of each value's factors: offset hi + v and hi - v, or v in general mode
    above = [level + (hi + v if symmetric else v) * width for v in range(hi + 1)]
    below = [level + (hi - v) * width for v in range(hi + 1)]
    stack = [1 if symmetric else 1 + (1 << level)]  # in general mode, the factor of offset 0
    cut, last, keys = m - 1, None, []
    for g in chunk:
        prefix = g[:cut]
        if prefix != last:
            p = 0  # the length of the prefix shared with the previous generator
            for a, b in zip(prefix, last or ()):
                if a != b:
                    break
                p += 1
            last = prefix
            del stack[p + 1 :]
            packed = stack[-1]
            if symmetric:
                for v in prefix[p:]:
                    packed += packed << below[v]
                    packed = (packed + (packed << above[v])) & mask
                    stack.append(packed)
            else:
                for v in prefix[p:]:
                    packed = (packed + (packed << above[v])) & mask
                    stack.append(packed)
            fixed = packed >> (top - level)
            under = fixed & bins
            if symmetric:
                if j > 1:
                    fixed += (packed >> (top - 2 * level) & bins) << (level + 2 * hi * width)
                down = level + (j * hi - sum(prefix[m - j :])) * width  # a last value v lowers it by v * width
            else:
                down = level + sum(prefix[: j - 1]) * width
        v = g[-1]
        if symmetric:
            keys.append((fixed + (under << below[v]) + (under << above[v])) >> (down - v * width))
        else:
            keys.append((fixed + (under << above[v])) >> down)
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


def _sums_key(spec: SearchSpec) -> Callable[[tuple[int, ...]], bytes]:
    """A key that sorts candidates' numerators as their ascending k-sums sort: the
    ``ksums`` of the numerators as ints, each raised by ``top`` to at least 0,
    packed big-endian at one width into one bytes.  Numerators are at most B in
    size, or (n - 1) * B in general mode, a k-sum is minus the (n - k)-sum, and
    ``check_listing`` keeps ``top`` below 2**63."""
    top = _key_arity(spec.n, spec.k)[0] * spec.bound * (1 if spec.symmetric_only else spec.n - 1)
    code = next(code for code in "BHIQ" if 2 * top < 256 ** struct.calcsize(">" + code))
    pack, k = struct.Struct(f">{comb(spec.n, spec.k)}{code}").pack, spec.k
    return lambda nums: pack(*map(top.__add__, ksums(nums, k, 1).numerators))


Pair = tuple[tuple[int, ...], tuple[int, ...]]  # two ascending numerator tuples, centred, over one denominator


def dedupe_records(pairs: Sequence[Pair]) -> list[Pair]:
    """The search's records as int pairs: the first pair of each affine equivalence
    class, in order.  The members are centred, so ``_class_key`` keys the class as
    ``collision_class_key`` does their Fractions."""
    kept, seen = [], set()
    for pair in pairs:
        key = _class_key(pair)
        if key not in seen:
            seen.add(key)
            kept.append(pair)
    return kept


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
    groups: dict[Key, Generator | list[Generator]] = {}  # a key's first candidate, or its list once shared
    pair_count = bucket_count = 0
    with ExitStack() as stack:  # line-buffered: each line reaches the file as it is written
        out = stack.enter_context(open(checkpoint, "a", buffering=1, encoding="utf-8")) if checkpoint else None
        if out and not has_header:
            print(json.dumps({"header": _checkpoint_header(spec)}), file=out)
        results = stack.enter_context(closing(_keyed_chunks(spec.k, spec.symmetric_only, chunks, pending, workers)))
        # Candidates are bucketed as their keys arrive, so the bucket stage is refused
        # as soon as its price passes the ceiling.
        for chunk_id, keys in chain(done.items(), zip(pending, results)):
            if out and chunk_id not in done:  # the bytes of json.dumps({"chunk": ..., "keys": [hex, ...]})
                out.write('{"chunk": %d, "keys": ["%s"]}\n' % (chunk_id, '", "'.join(map("%x".__mod__, keys))))
            for candidate, key in zip(chunks[chunk_id], keys):
                # the listed candidates are distinct tuples, so only a new key gives back this one
                members = groups.setdefault(key, candidate)
                if members is candidate:
                    continue
                if type(members) is list:  # a pair with each earlier member
                    pair_count += len(members)
                    members.append(candidate)
                else:  # the bucket is shared from the second member
                    pair_count += 1
                    bucket_count += 1
                    groups[key] = [members, candidate]
            work = 125 * pair_count + bucket_count * sum_count
            if work > MAX_BUCKET_WORK:
                raise ValueError(
                    f"the search space has at least {pair_count} pairs of candidates with equal {spec.k}-sums, in"
                    f" {bucket_count} buckets of {sum_count} sums each, costing at least {work}, more than the"
                    f" {MAX_BUCKET_WORK} allowed; lower the bound, n or k"
                )

    shared = [members for members in groups.values() if type(members) is list]
    del candidates, chunks, groups  # each generator is freed as it becomes numerators
    # Keys are chunk-independent, so one call keys every member of every shared bucket
    # again, to check that each bucket holds equal keys.
    rekeyed = iter(_chunk_pairs((spec.k, spec.symmetric_only, list(chain.from_iterable(shared)))) if shared else ())
    # Buckets have distinct k-sums, so sorting them by sums, then members, orders the
    # pairs as (sums, first, second).
    sums_key, buckets = _sums_key(spec), []
    for members in shared:
        if len(set(islice(rekeyed, len(members)))) > 1:
            source = f"checkpoint {checkpoint}" if checkpoint else "keying"
            raise ValueError(f"{source} put candidates with different {spec.k}-sums in one bucket")
        members[:] = sorted(_numerators(g, spec.symmetric_only) for g in members)
        buckets.append((sums_key(members[0]), members))
    kept = dedupe_records([pair for _, members in sorted(buckets) for pair in combinations(members, 2)])
    den = 1 if spec.symmetric_only else spec.n  # the denominator of every numerator
    fraction = {v: Fraction(v, den) for v in {v for pair in kept for nums in pair for v in nums}}
    return [CollisionRecord(*(tuple(map(fraction.__getitem__, nums)) for nums in pair), spec.k) for pair in kept]


def verify_record(record: CollisionRecord) -> bool:
    """Check what the record claims: two distinct multisets of one size
    with equal k-sums, recomputed from the members alone."""
    first, second, k = record.first, record.second, record.k
    return len(first) == len(second) and sorted(first) != sorted(second) and ksums(first, k) == ksums(second, k)
