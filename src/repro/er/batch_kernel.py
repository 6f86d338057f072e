"""Batched pair scoring over packed arrays — the vectorized match kernel.

A reduce task's candidate pairs are described *symbolically* by a pair
spec — a triangle, a cross product, a list of contiguous spans, or a
concatenation of those over several groups — instead of materialized
``(i, j)`` tuples, and :func:`score_pair_batch` scores the whole batch
in one call:

1. the batch's strings are packed once into integer codes (each
   *distinct* string gets one code, so duplicate-heavy groups collapse),
2. an exact-equality check settles same-string pairs at 1.0,
3. a length filter settles hopeless pairs at 0.0 (the same
   ``diff > ⌊(1 − t)·longest⌋`` test the scalar matcher applies),
4. the surviving pairs collapse to the *distinct* unordered string
   pairs among them, and each of those is computed exactly once.

With numpy importable everything after step 1 is int64/float64/uint64
array arithmetic: pairs, surviving pairs and distinct pairs stay
``(pattern code, text code, budget)`` integer arrays from the spec's
``index_arrays`` to the scattered scores, and step 4 is one call of
:func:`repro.er.similarity.myers_distance_lanes`, which runs Myers'
bit-parallel recurrence with one ``uint64`` lane per distinct pair.
Python touches each *entity's string* once (to code it), each distinct
string once more (to pack it) and each *match* once (to build its
:class:`~repro.er.matching.MatchPair`); nothing runs per pair, per pair
occurrence or per lane.  Otherwise a
pure-stdlib loop with the same collapse runs.

Both paths are byte-identical to the scalar kernel in every score:
each is either ``1.0``/``0.0`` from the same short-circuits
:func:`~repro.er.similarity.levenshtein_similarity_bounded` takes or
the output of the same bounded Myers/banded kernels it calls.  The
batch is stateless: nothing is remembered between calls.
numpy stays an *optional* dependency (the ``fast`` extra); set
``REPRO_ER_FORCE_STDLIB=1`` to force the fallback with numpy installed.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from math import isqrt
from typing import Iterator, Sequence

from .similarity import (
    MyersMasks,
    levenshtein_similarity_bounded,
    myers_distance_lanes,
    myers_distance_masks,
    myers_masks,
)

try:  # pragma: no cover - exercised via both CI legs
    if os.environ.get("REPRO_ER_FORCE_STDLIB"):
        raise ImportError("numpy disabled by REPRO_ER_FORCE_STDLIB")
    import numpy as _numpy
except ImportError:  # pragma: no cover
    _numpy = None

#: Below this many pairs the stdlib loop runs even with numpy active.
#: Measured on both benchmark corpora: a numpy batch costs ~0.65 ms
#: before its first pair (about 35 array operations per text position,
#: whatever the lane count) and ~1 µs per pair after it, the stdlib loop
#: 14–22 µs per pair that reaches Myers — they cross at 50–80 pairs.
#: Both paths are byte-identical, so this is purely a performance knob.
NUMPY_MIN_PAIRS = 64


def active_numpy():
    """The numpy module the kernel will use, or ``None`` (stdlib fallback)."""
    return _numpy


class TrianglePairs:
    """All pairs ``(i, j)`` with ``i < j`` over a self-join group of ``n``.

    Pair order matches the streaming-buffer loops it replaces: ``j``
    ascending (arrival order of the right entity), ``i`` ascending
    within each ``j`` (buffer order).
    """

    __slots__ = ("n", "count")

    def __init__(self, n: int):
        self.n = n
        self.count = n * (n - 1) // 2

    def iter_pairs(self) -> Iterator[tuple[int, int]]:
        for j in range(1, self.n):
            for i in range(j):
                yield i, j

    def pair_at(self, k: int) -> tuple[int, int]:
        # k = j·(j−1)/2 + i with 0 ≤ i < j; isqrt inverts the triangle
        # number exactly (8k+1 lies in [(2j−1)², (2j+1)²) for the row).
        j = (1 + isqrt(8 * k + 1)) // 2
        return k - j * (j - 1) // 2, j

    def index_arrays(self, np):
        j = np.repeat(
            np.arange(1, self.n, dtype=np.int64), np.arange(1, self.n)
        )
        i = np.arange(self.count, dtype=np.int64) - j * (j - 1) // 2
        return i, j


class CrossPairs:
    """All pairs ``(i, j)`` of a buffered run vs a streamed run.

    ``i`` ranges over the buffered prefix ``[0, split)`` and ``j`` over
    the streamed suffix ``[split, total)`` — the shape of BlockSplit's
    split×split cross tasks and of dual-source (R×S) groups, where the
    stable shuffle delivers one run contiguously before the other.
    Order: ``j`` ascending, ``i`` ascending within each ``j``.
    """

    __slots__ = ("split", "total", "count")

    def __init__(self, split: int, total: int):
        self.split = split
        self.total = total
        self.count = split * (total - split)

    def iter_pairs(self) -> Iterator[tuple[int, int]]:
        for j in range(self.split, self.total):
            for i in range(self.split):
                yield i, j

    def pair_at(self, k: int) -> tuple[int, int]:
        j, i = divmod(k, self.split)
        return i, self.split + j

    def index_arrays(self, np):
        streamed = self.total - self.split
        i = np.tile(np.arange(self.split, dtype=np.int64), streamed)
        j = np.repeat(
            np.arange(self.split, self.total, dtype=np.int64), self.split
        )
        return i, j


class SpanPairs:
    """Pairs where each streamed entity sees one contiguous buffer run.

    ``spans`` is a list of ``(j, start, stop)``: entity ``j`` compares
    against buffer positions ``[start, stop)``.  This is PairRange's
    natural shape — ``row_span``/``r_span`` already yield index
    intervals, which are recorded here instead of being materialized
    into pairs — and also covers delta groups (each new entity vs the
    whole buffered prefix).  Order: spans in given order (``j``
    ascending at every call site), ``i`` ascending within a span.
    """

    __slots__ = ("spans", "count", "_offsets")

    def __init__(self, spans: Sequence[tuple[int, int, int]]):
        self.spans = spans
        offsets = [0]
        total = 0
        for _j, start, stop in spans:
            total += stop - start
            offsets.append(total)
        self._offsets = offsets
        self.count = total

    def iter_pairs(self) -> Iterator[tuple[int, int]]:
        for j, start, stop in self.spans:
            for i in range(start, stop):
                yield i, j

    def pair_at(self, k: int) -> tuple[int, int]:
        s = bisect_right(self._offsets, k) - 1
        j, start, _stop = self.spans[s]
        return start + (k - self._offsets[s]), j

    def index_arrays(self, np):
        spans = np.array(self.spans, dtype=np.int64).reshape(-1, 3)
        sizes = spans[:, 2] - spans[:, 1]
        j = np.repeat(spans[:, 0], sizes)
        # Position within the span, shifted to the span's start.
        i = np.arange(self.count, dtype=np.int64) - np.repeat(
            np.cumsum(sizes) - sizes - spans[:, 1], sizes
        )
        return i, j


class ConcatPairs:
    """The pairs of several groups over one concatenated entity list.

    ``specs[g]`` indexes group ``g``'s own entities from 0; its entities
    sit at ``offsets[g]`` onwards in the concatenated list, so every
    index it yields is shifted by ``offsets[g]``.  This is how a reduce
    task hands all of its groups to the matcher in one ``match_batch``
    call.  Order: groups in given order, then each spec's own order.
    """

    __slots__ = ("specs", "offsets", "count", "_starts")

    def __init__(self, specs: Sequence, offsets: Sequence[int]):
        self.specs = specs
        self.offsets = offsets
        starts = [0]
        for spec in specs:
            starts.append(starts[-1] + spec.count)
        self._starts = starts
        self.count = starts[-1]

    def iter_pairs(self) -> Iterator[tuple[int, int]]:
        for spec, offset in zip(self.specs, self.offsets):
            for i, j in spec.iter_pairs():
                yield i + offset, j + offset

    def pair_at(self, k: int) -> tuple[int, int]:
        g = bisect_right(self._starts, k) - 1
        i, j = self.specs[g].pair_at(k - self._starts[g])
        offset = self.offsets[g]
        return i + offset, j + offset

    def index_arrays(self, np):
        parts = [spec.index_arrays(np) for spec in self.specs]
        shift = np.repeat(
            np.array(self.offsets, dtype=np.int64),
            np.diff(np.array(self._starts, dtype=np.int64)),
        )
        return (
            np.concatenate([i for i, _j in parts]) + shift,
            np.concatenate([j for _i, j in parts]) + shift,
        )


def score_pair_batch(texts: Sequence[str], pairs, threshold: float):
    """Score every pair of a batch; returns the scores in pair order.

    ``texts`` holds the batch's strings (position-aligned with the
    indices ``pairs`` yields) and ``pairs`` is a pair spec of this
    module.  The result is index-aligned with the spec's pair order — a
    float64 ndarray on the numpy path, a list on the stdlib path — and
    holds exactly ``levenshtein_similarity_bounded(texts[i], texts[j],
    threshold)`` for every pair.  The call reads and writes no state
    outside its arguments: each distinct string pair of the batch is
    computed once and nothing is remembered afterwards.
    """
    np = _numpy
    if np is not None and pairs.count >= NUMPY_MIN_PAIRS:
        return _score_numpy(np, texts, pairs, threshold)
    return _score_stdlib(texts, pairs, threshold)


def matching_positions(scores, threshold: float) -> list[int]:
    """Positions (pair order) whose score clears ``threshold``."""
    if _numpy is not None and isinstance(scores, _numpy.ndarray):
        return _numpy.nonzero(scores >= threshold)[0].tolist()
    return [k for k, score in enumerate(scores) if score >= threshold]


def _encode(texts: Sequence[str]) -> tuple[list[int], list[str]]:
    """Pack strings into integer codes; one code per distinct string."""
    code_of: dict[str, int] = {}
    codes = [code_of.setdefault(text, len(code_of)) for text in texts]
    return codes, list(code_of)


def _score_numpy(np, texts, pairs, threshold):
    codes, distinct = _encode(texts)
    lengths = np.fromiter(map(len, distinct), dtype=np.int64, count=len(distinct))
    scores, survive, keys = _surviving_keys(
        np, np.fromiter(codes, dtype=np.int64, count=len(codes)), lengths,
        pairs, threshold,
    )
    if survive.shape[0]:
        # One lane per distinct unordered string pair among the survivors.
        keys, inverse = np.unique(keys, return_inverse=True)
        scores[survive] = _distinct_similarity(
            np, distinct, lengths, keys, threshold
        )[inverse]
    return scores


def _surviving_keys(np, codes, lengths, pairs, threshold):
    """Settle equal and hopeless pairs; key the rest by their strings.

    Returns the scores (1.0 where both strings are the same, else 0.0),
    the positions of the pairs that pass the length filter, and for
    each of those ``low code * distinct + high code``.  Everything else
    that is one-per-pair dies with this frame, before the lanes run.
    """
    ca, cb = (codes[side] for side in pairs.index_arrays(np))
    la = lengths[ca]
    lb = lengths[cb]
    # float64 multiply + int64 truncation ≡ the scalar int((1−t)·longest).
    budget = ((1.0 - threshold) * np.maximum(la, lb)).astype(np.int64)
    survive = np.nonzero((ca != cb) & (np.abs(la - lb) <= budget))[0]
    sa = ca[survive]
    sb = cb[survive]
    ndistinct = lengths.shape[0]
    keys = np.minimum(sa, sb) * ndistinct + np.maximum(sa, sb)
    return (ca == cb).astype(np.float64), survive, keys


def _distinct_similarity(np, distinct, lengths, keys, threshold):
    """Similarity of each distinct surviving string pair, by key."""
    ndistinct = lengths.shape[0]
    qa = keys // ndistinct
    qb = keys % ndistinct
    la = lengths[qa]
    lb = lengths[qb]
    a_longer = la >= lb
    longest = np.where(a_longer, la, lb)
    shortest = np.where(a_longer, lb, la)
    budget = ((1.0 - threshold) * longest).astype(np.int64)
    fits_word = (shortest >= 1) & (shortest <= 64)
    myers = np.nonzero(fits_word)[0]
    distance = myers_distance_lanes(
        np,
        distinct,
        np.where(a_longer, qb, qa)[myers],
        np.where(a_longer, qa, qb)[myers],
        budget[myers],
    )
    similarity = np.empty(keys.shape[0], dtype=np.float64)
    # Same float64 arithmetic as the scalar ``1.0 - d / longest``.
    similarity[myers] = np.where(
        distance > budget[myers], 0.0, 1.0 - distance / longest[myers]
    )
    # Empty or > 64-character patterns are outside Myers' word: the
    # scalar dispatch (banded DP) scores those distinct pairs.
    for u in np.nonzero(~fits_word)[0].tolist():
        similarity[u] = levenshtein_similarity_bounded(
            distinct[qa[u]], distinct[qb[u]], threshold
        )
    return similarity


def _score_stdlib(texts, pairs, threshold):
    codes, distinct = _encode(texts)
    ndistinct = len(distinct)
    lengths = [len(s) for s in distinct]
    masks: dict[int, MyersMasks] = {}
    computed: dict[int, float] = {}
    scores = [0.0] * pairs.count
    one_minus = 1.0 - threshold
    for k, (i, j) in enumerate(pairs.iter_pairs()):
        a = codes[i]
        b = codes[j]
        if a == b:
            scores[k] = 1.0
            continue
        la = lengths[a]
        lb = lengths[b]
        if la >= lb:  # the longer string is the text, as in the scalar kernel
            text, pattern, longest, shortest = a, b, la, lb
        else:
            text, pattern, longest, shortest = b, a, lb, la
        budget = int(one_minus * longest)
        if longest - shortest > budget:
            continue  # length filter: stays 0.0
        key = a * ndistinct + b if a < b else b * ndistinct + a
        score = computed.get(key)
        if score is None:
            if 1 <= shortest <= 64:
                # levenshtein_similarity_bounded's Myers case, over
                # masks prepacked once per distinct pattern.
                packed = masks.get(pattern)
                if packed is None:
                    packed = masks[pattern] = myers_masks(distinct[pattern])
                distance = myers_distance_masks(packed, distinct[text], budget)
                score = 0.0 if distance > budget else 1.0 - distance / longest
            else:
                score = levenshtein_similarity_bounded(
                    distinct[text], distinct[pattern], threshold
                )
            computed[key] = score
        scores[k] = score
    return scores
