"""Pair matching: the ``match(e1, e2)`` function of the paper's pseudo-code.

A matcher decides whether two entities refer to the same real-world
object.  The paper's configuration — edit-distance similarity on the
title with threshold 0.8 — is the default.  Matchers count every
comparison they perform; those counters drive both the correctness
tests (each qualifying pair compared exactly once) and the cluster
simulation (comparisons are the dominant cost).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from .batch_kernel import matching_positions, score_pair_batch
from .entity import Entity
from .similarity import levenshtein_similarity_bounded


@dataclass(frozen=True, slots=True)
class MatchPair:
    """A matched entity pair with its similarity score.

    The pair is stored in canonical order (sorted by ``qualified_id``)
    so results compare equal regardless of evaluation order.
    """

    id1: str
    id2: str
    similarity: float

    @classmethod
    def of(cls, e1: Entity, e2: Entity, similarity: float) -> "MatchPair":
        a, b = sorted((e1.qualified_id, e2.qualified_id))
        return cls(a, b, similarity)

    @property
    def ids(self) -> tuple[str, str]:
        return (self.id1, self.id2)


class MatchResult:
    """Accumulates match pairs; supports set-style comparison in tests."""

    def __init__(self, pairs: Iterable[MatchPair] = ()):
        self._pairs: dict[tuple[str, str], MatchPair] = {}
        for pair in pairs:
            self.add(pair)

    def add(self, pair: MatchPair) -> None:
        self._pairs[pair.ids] = pair

    def merge(self, other: "MatchResult") -> None:
        self._pairs.update(other._pairs)

    @property
    def pair_ids(self) -> set[tuple[str, str]]:
        return set(self._pairs)

    def __contains__(self, ids: tuple[str, str]) -> bool:
        return tuple(sorted(ids)) in self._pairs

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[MatchPair]:
        return iter(sorted(self._pairs.values(), key=lambda p: p.ids))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatchResult):
            return NotImplemented
        return self.pair_ids == other.pair_ids

    def __repr__(self) -> str:
        return f"MatchResult({len(self)} pairs)"


class Matcher:
    """Base matcher: scores entity pairs and applies a decision rule.

    Subclasses implement :meth:`similarity`; :meth:`match` applies the
    threshold and records statistics.

    The reduce loops call the matcher through the *prepared* protocol:
    :meth:`prepare` runs once per entity per reduce group and
    :meth:`match_batch` once per reduce task, which by default calls
    :meth:`match_prepared` once per pair.  The base implementations are
    the identity (``prepare`` returns the entity, ``match_prepared``
    delegates to :meth:`match`), so custom matchers keep their exact
    per-pair behaviour; matchers with an expensive per-pair setup
    (attribute extraction, normalisation) override both to hoist that
    work out of the O(pairs) loop.
    """

    def __init__(self) -> None:
        self.comparisons = 0
        self.matches_found = 0

    def reset_counters(self) -> None:
        self.comparisons = 0
        self.matches_found = 0

    def similarity(self, e1: Entity, e2: Entity) -> float:
        raise NotImplementedError

    def is_match(self, similarity: float) -> bool:
        raise NotImplementedError

    def match(self, e1: Entity, e2: Entity) -> MatchPair | None:
        """Compare a pair; return a :class:`MatchPair` if it matches."""
        self.comparisons += 1
        score = self.similarity(e1, e2)
        if self.is_match(score):
            self.matches_found += 1
            return MatchPair.of(e1, e2, score)
        return None

    # -- prepared protocol (the reduce-group hot path) ----------------------

    def prepare(self, entity: Entity) -> Any:
        """Per-entity preprocessing, run once per reduce group."""
        return entity

    def match_prepared(self, p1: Any, p2: Any) -> MatchPair | None:
        """Compare two :meth:`prepare` outputs; same contract as :meth:`match`."""
        return self.match(p1, p2)

    def match_batch(self, prepared: list, pairs) -> list[MatchPair]:
        """Compare a whole batch of prepared entities; return the matches.

        ``pairs`` is a pair spec from :mod:`repro.er.batch_kernel`
        (:class:`~repro.er.batch_kernel.TrianglePairs` and friends)
        yielding ``(i, j)`` index pairs into ``prepared``.  The base
        implementation is the *identity* batching: it calls
        :meth:`match_prepared` once per pair, in spec order — the order
        of the paper's streaming reduce loops — so custom matchers keep
        their exact per-pair behaviour, comparison order, and counters.
        Matchers with a vectorizable kernel override this to score the
        batch in one pass (:class:`ThresholdMatcher` does).
        """
        out = []
        match_prepared = self.match_prepared
        for i, j in pairs.iter_pairs():
            pair = match_prepared(prepared[i], prepared[j])
            if pair is not None:
                out.append(pair)
        return out


class _PreparedEntity(NamedTuple):
    """ThresholdMatcher's per-entity preprocessing: id + interned text.

    Interning the extracted attribute makes the memo-cache tuple keys
    compare by pointer in the common case and collapses the many
    duplicate values real blocking produces into one string object.
    """

    qid: str
    text: str


class ThresholdMatcher(Matcher):
    """The paper's matcher: attribute similarity ≥ threshold ⇒ match.

    Defaults replicate Section VI: edit-distance similarity on
    ``title`` with minimal similarity 0.8.

    With the default kernel the matcher takes the prepared fast path:
    the compare attribute is extracted, stringified and interned once
    per reduce group instead of once per pair, and on the per-pair
    path (:meth:`match_prepared`) verdicts for repeated value pairs are
    memoised in an LRU keyed on the interned string pair (``memoize``
    entries; 0 disables).  A custom ``similarity_fn`` or a subclass
    override of ``similarity``/``is_match``/``match`` disables the fast
    path — every pair then goes through :meth:`match`, byte-identical
    in matches and counters — preserving the override's semantics.

    ``cache_hits``/``cache_misses`` count only the comparisons of the
    per-pair path that reach the cache+kernel stage; identical values
    (interned pointer check) and pairs rejected by the length filter
    bypass both, and :meth:`match_batch` — what the matching jobs
    call — never touches the memo, so a pipeline run reports 0 / 0.
    """

    def __init__(
        self,
        attribute: str = "title",
        threshold: float = 0.8,
        similarity_fn: Callable[[str, str], float] | None = None,
        *,
        memoize: int = 4096,
    ):
        super().__init__()
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        if memoize < 0:
            raise ValueError(f"memoize must be >= 0, got {memoize}")
        self.attribute = attribute
        self.threshold = threshold
        self._similarity_fn = similarity_fn
        self._memoize = memoize
        self._cache: dict[tuple[str, str], float] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    def reset_counters(self) -> None:
        super().reset_counters()
        self.cache_hits = 0
        self.cache_misses = 0

    def similarity(self, e1: Entity, e2: Entity) -> float:
        a = str(e1.get(self.attribute) or "")
        b = str(e2.get(self.attribute) or "")
        if self._similarity_fn is not None:
            return self._similarity_fn(a, b)
        return levenshtein_similarity_bounded(a, b, self.threshold)

    def is_match(self, similarity: float) -> bool:
        return similarity >= self.threshold

    # -- prepared fast path --------------------------------------------------

    def prepare(self, entity: Entity) -> Any:
        cls = type(self)
        if (
            self._similarity_fn is not None
            or cls.similarity is not ThresholdMatcher.similarity
            or cls.is_match is not ThresholdMatcher.is_match
            or cls.match is not Matcher.match
        ):
            return entity
        return _PreparedEntity(
            entity.qualified_id, sys.intern(str(entity.get(self.attribute) or ""))
        )

    def match_prepared(self, p1: Any, p2: Any) -> MatchPair | None:
        if type(p1) is not _PreparedEntity:
            return self.match(p1, p2)
        self.comparisons += 1
        a = p1.text
        b = p2.text
        threshold = self.threshold
        if a is b:
            # Interning makes equal values pointer-identical — the
            # common case in skewed blocks costs one identity check.
            score = 1.0
        else:
            la = len(a)
            lb = len(b)
            if la >= lb:
                longest, diff = la, la - lb
            else:
                longest, diff = lb, lb - la
            if diff > int((1.0 - threshold) * longest):
                # Length filter: the edit-distance budget is already
                # blown, so skip both the cache and the kernel (same
                # 0.0 the bounded kernel would return).
                score = 0.0
            else:
                key = (a, b) if a <= b else (b, a)
                cache = self._cache
                score = cache.pop(key, None)
                if score is None:
                    self.cache_misses += 1
                    score = levenshtein_similarity_bounded(a, b, threshold)
                else:
                    self.cache_hits += 1
                if self._memoize:
                    if len(cache) >= self._memoize:
                        # Best-effort eviction of the least-recently-used
                        # entry.  The thread backend shares this matcher
                        # across workers, so a concurrent insert/evict may
                        # beat us to it — cached scores are pure values,
                        # so losing the race only costs a recompute,
                        # never correctness.
                        try:
                            cache.pop(next(iter(cache)), None)
                        except (StopIteration, RuntimeError):
                            pass
                    cache[key] = score
        if score >= threshold:
            self.matches_found += 1
            q1 = p1.qid
            q2 = p2.qid
            if q2 < q1:
                q1, q2 = q2, q1
            return MatchPair(q1, q2, score)
        return None

    def match_batch(self, prepared: list, pairs) -> list[MatchPair]:
        """Score a whole batch of pairs through the batch kernel.

        Active only on the prepared fast path (interned
        ``_PreparedEntity`` inputs); any other input — a custom
        similarity function, subclass overrides —
        falls back to the base per-pair batching, preserving exact
        semantics.  The kernel scores are byte-identical to
        :meth:`match_prepared`'s (same short-circuits, same bounded
        kernels), matches are emitted in spec pair order with the same
        canonical id ordering, and ``comparisons``/``matches_found``
        advance by the same totals.  The verdict memo is the scalar
        path's alone: the batch computes each distinct value pair of
        its input once and neither reads nor writes ``_cache``, so
        ``cache_hits``/``cache_misses`` do not move here — the one
        difference between this and :meth:`match_prepared` per pair
        (:mod:`repro.er.batch_kernel` has the numbers behind that).
        """
        if pairs.count == 0:
            return []
        if not prepared or type(prepared[0]) is not _PreparedEntity:
            return super().match_batch(prepared, pairs)
        scores = score_pair_batch(
            [p.text for p in prepared], pairs, self.threshold
        )
        self.comparisons += pairs.count
        out = []
        pair_at = pairs.pair_at
        for k in matching_positions(scores, self.threshold):
            i, j = pair_at(k)
            q1 = prepared[i].qid
            q2 = prepared[j].qid
            if q2 < q1:
                q1, q2 = q2, q1
            out.append(MatchPair(q1, q2, float(scores[k])))
        self.matches_found += len(out)
        return out

    def __getstate__(self) -> dict[str, Any]:
        # The memo cache is a pure accelerator: never ship it to worker
        # processes (it can hold thousands of entries, the parallel
        # backend pickles the job once per task submission, and workers
        # rebuild their own caches as they match).
        state = self.__dict__.copy()
        state["_cache"] = {}
        return state

    def __repr__(self) -> str:
        return (
            f"ThresholdMatcher(attribute={self.attribute!r}, "
            f"threshold={self.threshold})"
        )


class RecordingMatcher(Matcher):
    """Test double that records every compared pair and matches nothing.

    The coverage invariants ("every qualifying pair compared exactly
    once") are asserted against :attr:`compared` — a multiset of
    canonical id pairs.
    """

    def __init__(self) -> None:
        super().__init__()
        self.compared: list[tuple[str, str]] = []

    def similarity(self, e1: Entity, e2: Entity) -> float:
        return 0.0

    def is_match(self, similarity: float) -> bool:
        return False

    def match(self, e1: Entity, e2: Entity) -> MatchPair | None:
        ids = tuple(sorted((e1.qualified_id, e2.qualified_id)))
        self.compared.append(ids)  # type: ignore[arg-type]
        return super().match(e1, e2)


class AlwaysMatcher(Matcher):
    """Matches every pair with similarity 1.0 (useful for flow tests)."""

    def similarity(self, e1: Entity, e2: Entity) -> float:
        return 1.0

    def is_match(self, similarity: float) -> bool:
        return True


def brute_force_pairs(entities: Iterable[Entity]) -> set[tuple[str, str]]:
    """All distinct unordered pairs — the O(n²) reference for tests."""
    ids = [e.qualified_id for e in entities]
    pairs: set[tuple[str, str]] = set()
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            pairs.add(tuple(sorted((a, b))))  # type: ignore[arg-type]
    return pairs


def brute_force_match(
    entities: Iterable[Entity], matcher: Matcher
) -> MatchResult:
    """Reference ER over the Cartesian product (no blocking)."""
    entity_list = list(entities)
    result = MatchResult()
    for i, e1 in enumerate(entity_list):
        for e2 in entity_list[i + 1:]:
            pair = matcher.match(e1, e2)
            if pair is not None:
                result.add(pair)
    return result
