"""Property tests: the batched pair kernel is byte-identical to the
scalar kernels, on both the numpy and the pure-stdlib path.

`score_pair_batch` must reproduce `levenshtein_similarity_bounded`
score for score on arbitrary unicode batches — including empty strings,
strings past the 64-char Myers limit, duplicated group members, and
thresholds at both edges — and `ThresholdMatcher.match_batch` must
emit exactly the pairs (same order, same `comparisons` and
`matches_found`) the scalar `match_prepared` loop emits.

The matching jobs have no pair loop of their own any more — a reduce
group *is* its pair spec — so `TestPairSpecs` (`iter_pairs` ≡
`index_arrays` ≡ `pair_at` for all four specs, in the buffer-then-stream
order of Algorithm 1 lines 56–65 / Algorithm 2) together with the
`RecordingMatcher` coverage tests against `brute_force_pairs`
(`tests/core`) is what ties the specs to the paper's loops.
"""

from __future__ import annotations

import random

import pytest

import repro.er.batch_kernel as bk
from repro.er.batch_kernel import (
    ConcatPairs,
    CrossPairs,
    SpanPairs,
    TrianglePairs,
    active_numpy,
    matching_positions,
    score_pair_batch,
)
from repro.er.entity import Entity
from repro.er.matching import Matcher, ThresholdMatcher
from repro.er.similarity import (
    _myers_distance,
    levenshtein_distance_reference,
    levenshtein_similarity_bounded,
    myers_distance_masks,
    myers_masks,
)

ALPHABET = "abcdeé中文ß😀"
THRESHOLDS = [0.0, 0.3, 0.8, 1.0]


@pytest.fixture(
    params=[
        pytest.param(
            "numpy",
            marks=pytest.mark.skipif(
                active_numpy() is None, reason="numpy not installed"
            ),
        ),
        "stdlib",
    ]
)
def kernel_mode(request, monkeypatch):
    """Run the test body on both kernel paths.

    ``numpy`` also drops the minimum-batch heuristic so small batches
    exercise the vectorized path all the way into the batched Myers
    recurrence; ``stdlib`` blanks the module's numpy handle, the same
    state a numpy-less interpreter (or ``REPRO_ER_FORCE_STDLIB=1``)
    starts in.
    """
    if request.param == "numpy":
        monkeypatch.setattr(bk, "NUMPY_MIN_PAIRS", 0)
    else:
        monkeypatch.setattr(bk, "_numpy", None)
    return request.param


def _random_texts(rng: random.Random, n: int) -> list[str]:
    texts: list[str] = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.08:
            texts.append("")  # empty: the Myers mask edge case
        elif kind < 0.18 and texts:
            texts.append(rng.choice(texts))  # duplicate group member
        elif kind < 0.28:
            # Past the 64-char Myers limit: the banded path.
            length = rng.randrange(65, 120)
            texts.append("".join(rng.choice(ALPHABET) for _ in range(length)))
        else:
            length = rng.randrange(0, 40)
            texts.append("".join(rng.choice(ALPHABET) for _ in range(length)))
    return texts


class TestPairSpecs:
    """count / iter_pairs / pair_at / index_arrays describe one pair set."""

    def _check(self, spec):
        pairs = list(spec.iter_pairs())
        assert len(pairs) == spec.count
        assert pairs == [spec.pair_at(k) for k in range(spec.count)]
        np = active_numpy()
        if np is not None and spec.count:
            left, right = spec.index_arrays(np)
            assert list(zip(left.tolist(), right.tolist())) == pairs

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 40])
    def test_triangle(self, n):
        spec = TrianglePairs(n)
        assert spec.count == n * (n - 1) // 2
        self._check(spec)
        # The paper's streaming self-join: each arrival against the buffer.
        assert list(spec.iter_pairs()) == [
            (i, j) for j in range(n) for i in range(j)
        ]

    @pytest.mark.parametrize("split,total", [(0, 0), (0, 5), (5, 5), (2, 7), (4, 9)])
    def test_cross(self, split, total):
        spec = CrossPairs(split, total)
        assert spec.count == split * (total - split)
        self._check(spec)
        # Buffered run first, then each streamed value against all of it.
        assert list(spec.iter_pairs()) == [
            (i, j) for j in range(split, total) for i in range(split)
        ]

    def test_spans(self):
        spec = SpanPairs([(3, 0, 2), (5, 1, 4), (8, 0, 1)])
        assert spec.count == 2 + 3 + 1
        assert list(spec.iter_pairs()) == [
            (0, 3), (1, 3), (1, 5), (2, 5), (3, 5), (0, 8),
        ]
        self._check(spec)
        self._check(SpanPairs([]))

    @pytest.mark.parametrize("seed", range(6))
    def test_concat(self, seed):
        """Random member specs — empty ones included — at random
        offsets: iter_pairs, pair_at(k) for every k and index_arrays
        describe the members' pairs, shifted, in member order."""
        rng = random.Random(500 + seed)
        specs, offsets, expected = [], [], []
        offset = 0
        for _ in range(rng.randrange(1, 9)):
            n = rng.randrange(0, 7)
            kind = rng.randrange(4)
            if kind == 0:
                spec = TrianglePairs(n)
            elif kind == 1:
                spec = CrossPairs(rng.randrange(0, n + 1), n)
            elif kind == 2:
                spec = SpanPairs([
                    (j, start, rng.randrange(start, j + 1))
                    for j in range(1, n)
                    for start in [rng.randrange(0, j)]
                ])
            else:
                spec = SpanPairs([])  # a group with nothing to compare
            offset += rng.randrange(0, 3)  # offsets need not be dense
            specs.append(spec)
            offsets.append(offset)
            expected.extend((i + offset, j + offset) for i, j in spec.iter_pairs())
            offset += n
        concat = ConcatPairs(specs, offsets)
        assert concat.count == len(expected) == sum(s.count for s in specs)
        assert list(concat.iter_pairs()) == expected
        self._check(concat)

    def test_concat_of_concat_and_scores(self, kernel_mode):
        """Scoring a concatenation ≡ scoring its members one by one."""
        rng = random.Random(77)
        groups = [_random_texts(rng, rng.randrange(0, 9)) for _ in range(7)]
        specs = [TrianglePairs(len(g)) for g in groups]
        offsets, texts = [], []
        for g in groups:
            offsets.append(len(texts))
            texts.extend(g)
        together = score_pair_batch(texts, ConcatPairs(specs, offsets), 0.8)
        apart = [
            float(x)
            for g, spec in zip(groups, specs)
            for x in score_pair_batch(g, spec, 0.8)
        ]
        assert [float(x) for x in together] == apart


class TestMyersMasks:
    def test_masks_match_scalar_myers(self):
        rng = random.Random(11)
        for _ in range(300):
            pattern = "".join(
                rng.choice(ALPHABET) for _ in range(rng.randrange(1, 65))
            )
            text = "".join(
                rng.choice(ALPHABET) for _ in range(rng.randrange(0, 120))
            )
            masks = myers_masks(pattern)
            for md in (None, rng.randrange(0, 10)):
                assert myers_distance_masks(masks, text, md) == _myers_distance(
                    pattern, text, md
                )

    def test_masks_are_reusable(self):
        masks = myers_masks("kettle")
        assert myers_distance_masks(masks, "kettle", None) == 0
        assert myers_distance_masks(masks, "settle", None) == 1
        assert myers_distance_masks(
            masks, "cattle", None
        ) == levenshtein_distance_reference("kettle", "cattle")


class TestScorePairBatch:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scalar_oracle(self, kernel_mode, seed):
        rng = random.Random(6000 + seed)
        for _ in range(20):
            texts = _random_texts(rng, rng.randrange(2, 14))
            spec = TrianglePairs(len(texts))
            threshold = rng.choice(THRESHOLDS)
            scores = score_pair_batch(texts, spec, threshold)
            for k, (i, j) in enumerate(spec.iter_pairs()):
                expected = levenshtein_similarity_bounded(
                    texts[i], texts[j], threshold
                )
                assert float(scores[k]) == expected, (texts[i], texts[j], threshold)

    @pytest.mark.parametrize("seed", range(2))
    def test_matches_reference_dp(self, kernel_mode, seed):
        """Straight to the classic DP, not just the scalar dispatch."""
        rng = random.Random(7000 + seed)
        texts = _random_texts(rng, 12)
        threshold = 0.8
        spec = TrianglePairs(len(texts))
        scores = score_pair_batch(texts, spec, threshold)
        for k, (i, j) in enumerate(spec.iter_pairs()):
            a, b = texts[i], texts[j]
            longest = max(len(a), len(b))
            if longest == 0:
                expected = 1.0
            else:
                distance = levenshtein_distance_reference(a, b)
                similarity = 1.0 - distance / longest
                expected = similarity if similarity >= threshold else 0.0
                if distance > int((1.0 - threshold) * longest):
                    expected = 0.0
            assert float(scores[k]) == expected, (a, b)

    def test_cross_and_span_specs(self, kernel_mode):
        rng = random.Random(42)
        texts = _random_texts(rng, 10)
        for spec in (
            CrossPairs(4, 10),
            SpanPairs([(2, 0, 2), (7, 1, 6), (9, 0, 9)]),
        ):
            scores = score_pair_batch(texts, spec, 0.8)
            for k, (i, j) in enumerate(spec.iter_pairs()):
                assert float(scores[k]) == levenshtein_similarity_bounded(
                    texts[i], texts[j], 0.8
                )

    def test_matching_positions(self, kernel_mode):
        texts = ["kettle", "kettle", "kettlex", "other"]
        spec = TrianglePairs(4)
        scores = score_pair_batch(texts, spec, 0.8)
        positions = matching_positions(scores, 0.8)
        expected = [
            k
            for k, (i, j) in enumerate(spec.iter_pairs())
            if levenshtein_similarity_bounded(texts[i], texts[j], 0.8) >= 0.8
        ]
        assert positions == expected

    def test_empty_batch(self, kernel_mode):
        assert len(score_pair_batch([], TrianglePairs(0), 0.8)) == 0

    def test_count_filter_settles_most_lanes(self, kernel_mode):
        """Titles of 30–44 characters pass the length filter almost
        always; the histogram bound settles > 95 % of those lanes, and
        the scores stay exactly the scalar kernel's."""
        rng = random.Random(3232)
        letters = "abcdefghijklmnopqrstuvwxyz0123456789 -éß"
        texts = [
            "".join(rng.choice(letters) for _ in range(rng.randrange(30, 45)))
            for _ in range(60)
        ]
        for k in range(0, 60, 6):  # near-duplicates: the lanes that match
            chars = list(texts[k])
            chars[rng.randrange(len(chars))] = rng.choice(letters)
            texts.append("".join(chars))
        threshold = 0.8
        spec = TrianglePairs(len(texts))
        lanes = killed = 0
        for i, j in spec.iter_pairs():
            a, b = texts[i], texts[j]
            longest = max(len(a), len(b))
            budget = int((1.0 - threshold) * longest)
            if a == b or abs(len(a) - len(b)) > budget:
                continue
            lanes += 1
            killed += bk.histogram_bound(
                bk.char_histogram(a), bk.char_histogram(b)
            ) > budget
        assert killed > 0.95 * lanes
        scores = score_pair_batch(texts, spec, threshold)
        expected = [
            levenshtein_similarity_bounded(texts[i], texts[j], threshold)
            for i, j in spec.iter_pairs()
        ]
        assert [float(score) for score in scores] == expected
        assert sum(score >= threshold for score in expected) >= 10


def _scalar_oracle(matcher, prepared, spec):
    """The scalar reduce loop: per-pair match_prepared in spec order."""
    out = []
    for i, j in spec.iter_pairs():
        pair = matcher.match_prepared(prepared[i], prepared[j])
        if pair is not None:
            out.append(pair)
    return out


def _warm(matcher, rng):
    """Give the matcher some prior comparisons, so the batch's counter
    deltas are checked on a matcher with history."""
    entities = [
        Entity(f"w{k}", {"title": "".join(rng.choice("kettles") for _ in range(6))})
        for k in range(5)
    ]
    prepared = [matcher.prepare(e) for e in entities]
    _scalar_oracle(matcher, prepared, TrianglePairs(len(prepared)))


def _ids(pairs):
    return [(p.id1, p.id2, p.similarity) for p in pairs]


class TestMatchBatchEquivalence:
    """``match_batch`` ≡ the scalar loop in pairs, scores, ``comparisons``
    and ``matches_found``."""

    def _entities(self, rng, n):
        return [
            Entity(f"e{k}", {"title": text})
            for k, text in enumerate(_random_texts(rng, n))
        ]

    def _check_group(self, scalar, batched, entities, spec):
        ps = [scalar.prepare(e) for e in entities]
        pb = [batched.prepare(e) for e in entities]
        base = (scalar.comparisons, scalar.matches_found)
        base_b = (batched.comparisons, batched.matches_found)
        expected = _scalar_oracle(scalar, ps, spec)
        got = batched.match_batch(pb, spec)
        assert _ids(got) == _ids(expected)
        assert batched.comparisons - base_b[0] == scalar.comparisons - base[0]
        assert batched.matches_found - base_b[1] == scalar.matches_found - base[1]

    @pytest.mark.parametrize("history", ["fresh", "warm"])
    @pytest.mark.parametrize("seed", range(3))
    def test_same_pairs_and_counters(self, kernel_mode, seed, history):
        rng = random.Random(8000 + seed)
        for spec_factory in (
            lambda n: TrianglePairs(n),
            lambda n: CrossPairs(n // 2, n),
        ):
            entities = self._entities(rng, rng.randrange(4, 12))
            spec = spec_factory(len(entities))
            scalar = ThresholdMatcher("title", 0.8)
            batched = ThresholdMatcher("title", 0.8)
            if history == "warm":
                _warm(batched, rng)
            self._check_group(scalar, batched, entities, spec)

    def test_fresh_matcher_counts_every_pair(self, kernel_mode):
        entities = self._entities(random.Random(8100), 10)
        matcher = ThresholdMatcher("title", 0.8)
        prepared = [matcher.prepare(e) for e in entities]
        got = matcher.match_batch(prepared, TrianglePairs(len(prepared)))
        assert matcher.comparisons == 45
        assert matcher.matches_found == len(got)
        # Pinned class constants, read by the layered benchmark.
        assert (matcher.cache_hits, matcher.cache_misses) == (0, 0)

    @pytest.mark.parametrize("threshold", [0.5, 0.8, 1.0])
    def test_duplicate_heavy_group(self, kernel_mode, threshold):
        """A group of exact and one-edit duplicates: identical texts
        score 1.0, near ones sit on either side of the threshold, and
        the batch agrees with the scalar loop on every pair and both
        counters."""
        entities = [
            Entity(f"e{k}", {"title": title})
            for k, title in enumerate(
                ["kettle", "kettles", "kettle", "settle", "cattle",
                 "kettle", "kettlex"]
            )
        ]
        scalar = ThresholdMatcher("title", threshold)
        batched = ThresholdMatcher("title", threshold)
        _warm(batched, random.Random(int(threshold * 10)))
        self._check_group(scalar, batched, entities, TrianglePairs(len(entities)))
        assert scalar.matches_found >= 3  # the three "kettle"s at least

    @pytest.mark.parametrize("threshold", THRESHOLDS)
    @pytest.mark.parametrize("seed", range(3))
    def test_lockstep_across_groups(self, kernel_mode, seed, threshold):
        """A *sequence* of groups sharing one matcher, scalar calls
        interleaved: the batch stays in lockstep with the scalar loop on
        matches and match counters, group after group."""
        rng = random.Random(9500 + seed)
        scalar = ThresholdMatcher("title", threshold)
        batched = ThresholdMatcher("title", threshold)
        for _ in range(5):
            entities = self._entities(rng, rng.randrange(3, 9))
            self._check_group(
                scalar, batched, entities, TrianglePairs(len(entities))
            )
            _warm(batched, rng)  # scalar calls between the batches

    def test_base_matcher_batches_via_match_prepared(self):
        """Custom matchers get the identity batching: per-pair calls in
        spec order, so overridden similarity()/counters behave exactly
        as under the scalar loop."""

        class EqualTitles(Matcher):
            def similarity(self, a, b):
                return 1.0 if a.get("title") == b.get("title") else 0.0

            def is_match(self, score):
                return score >= 1.0

        entities = [
            Entity("a", {"title": "x"}),
            Entity("b", {"title": "x"}),
            Entity("c", {"title": "y"}),
        ]
        matcher = EqualTitles()
        prepared = [matcher.prepare(e) for e in entities]
        got = matcher.match_batch(prepared, TrianglePairs(3))
        assert [(p.id1, p.id2) for p in got] == [("R:a", "R:b")]
        assert matcher.comparisons == 3

    def test_threshold_matcher_with_similarity_fn_uses_identity_path(self):
        """A custom similarity_fn disables prepared texts; match_batch
        must fall back to the per-pair path, not the kernel."""
        matcher = ThresholdMatcher(
            "title", 0.5, similarity_fn=lambda a, b: 0.75
        )
        entities = [Entity("a", {"title": "p"}), Entity("b", {"title": "q"})]
        prepared = [matcher.prepare(e) for e in entities]
        got = matcher.match_batch(prepared, TrianglePairs(2))
        assert [(p.id1, p.id2, p.similarity) for p in got] == [
            ("R:a", "R:b", 0.75)
        ]
