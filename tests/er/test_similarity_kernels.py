"""Property tests: the fast Levenshtein kernels agree with the reference DP.

`levenshtein_distance` dispatches between Myers' bit-parallel kernel
(shorter side ≤ 64 chars) and the banded DP (both sides longer); both
must be indistinguishable from the classic two-row reference — exact
distances, and identical ``max_distance`` early-exit semantics — on
arbitrary unicode inputs.  ``similarity_at_least`` must agree with the
unbounded similarity compared against the threshold.
"""

from __future__ import annotations

import random

import pytest

from repro.er.batch_kernel import active_numpy
from repro.er.similarity import (
    _banded_distance,
    _myers_distance,
    levenshtein_distance,
    levenshtein_distance_reference,
    levenshtein_similarity,
    levenshtein_similarity_bounded,
    levenshtein_similarity_bounded_reference,
    myers_distance_batch,
    myers_distance_lanes,
    myers_mask_table,
    myers_masks,
    similarity_at_least,
)

#: Mixes ASCII, accented latin, CJK and an astral-plane emoji, so the
#: kernels are exercised on multi-byte code points and characters
#: outside the Basic Multilingual Plane.
ALPHABET = "abcdeé中文ß😀"

THRESHOLDS = [0.0, 0.25, 0.5, 0.8, 0.9, 1.0]


def _random_pair(rng: random.Random, max_len: int) -> tuple[str, str]:
    a = "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(max_len)))
    if rng.random() < 0.3:
        # Mutated copy: realistic near-duplicates, not just random noise.
        chars = list(a)
        for _ in range(rng.randrange(4)):
            if not chars:
                break
            op = rng.randrange(3)
            pos = rng.randrange(len(chars))
            if op == 0:
                chars[pos] = rng.choice(ALPHABET)
            elif op == 1:
                del chars[pos]
            else:
                chars.insert(pos, rng.choice(ALPHABET))
        b = "".join(chars)
    else:
        b = "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(max_len)))
    return a, b


class TestKernelsAgreeWithReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_unbounded_exact_short(self, seed):
        rng = random.Random(1000 + seed)
        for _ in range(400):
            a, b = _random_pair(rng, 50)
            assert levenshtein_distance(a, b) == levenshtein_distance_reference(a, b)

    @pytest.mark.parametrize("seed", range(4))
    def test_unbounded_exact_long(self, seed):
        """Both sides > 64 chars: the banded doubling path."""
        rng = random.Random(2000 + seed)
        for _ in range(60):
            a = "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(65, 150)))
            b = "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(65, 150)))
            assert levenshtein_distance(a, b) == levenshtein_distance_reference(a, b)

    @pytest.mark.parametrize("seed", range(4))
    def test_bounded_agrees(self, seed):
        """With max_distance both kernels agree on the exact value when
        within the bound and on exceeding it otherwise."""
        rng = random.Random(3000 + seed)
        for _ in range(400):
            a, b = _random_pair(rng, 90)
            md = rng.randrange(0, 15)
            ref = levenshtein_distance_reference(a, b, max_distance=md)
            got = levenshtein_distance(a, b, max_distance=md)
            assert (got > md) == (ref > md), (a, b, md)
            if ref <= md:
                assert got == ref, (a, b, md)

    def test_boundary_lengths(self):
        """Lengths straddling the 64-char word size, the kernel switch."""
        for n in (63, 64, 65):
            for m in (63, 64, 65, 130):
                a = "ab" * (n // 2) + "a" * (n % 2)
                b = "ba" * (m // 2) + "b" * (m % 2)
                assert levenshtein_distance(a, b) == levenshtein_distance_reference(a, b)

    def test_max_distance_edges(self):
        assert levenshtein_distance("abc", "abd", max_distance=0) == 1
        assert levenshtein_distance("abc", "abc", max_distance=0) == 0
        assert levenshtein_distance("", "abc", max_distance=2) == 3
        assert levenshtein_distance("", "abc", max_distance=3) == 3
        # A 70-char gap with a tight bound: pure length filter, no DP.
        assert levenshtein_distance("x" * 80, "x" * 10, max_distance=5) == 6
        # Long strings, bound exactly at the true distance.
        a, b = "y" * 70, "y" * 65 + "z" * 5
        true = levenshtein_distance_reference(a, b)
        assert levenshtein_distance(a, b, max_distance=true) == true
        assert levenshtein_distance(a, b, max_distance=true - 1) == true

    def test_empty_and_trivial(self):
        assert levenshtein_distance("", "") == 0
        assert levenshtein_distance("a", "") == 1
        assert levenshtein_distance("", "a") == 1
        assert levenshtein_distance("😀", "😀") == 0
        assert levenshtein_distance("😀", "e") == 1


class TestKernelInternals:
    def test_myers_is_exact(self):
        rng = random.Random(7)
        for _ in range(300):
            b = "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(1, 65)))
            a = "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(0, 120)))
            assert _myers_distance(b, a, None) == levenshtein_distance_reference(a, b)

    def test_banded_within_bound_is_exact(self):
        rng = random.Random(8)
        for _ in range(200):
            la = rng.randrange(1, 90)
            lb = rng.randrange(1, la + 1)
            a = "".join(rng.choice(ALPHABET) for _ in range(la))
            b = "".join(rng.choice(ALPHABET) for _ in range(lb))
            true = levenshtein_distance_reference(a, b)
            bound = max(true, la - lb)
            assert _banded_distance(a, b, bound) == true
            if true > 0 and true - 1 >= la - lb:
                assert _banded_distance(a, b, true - 1) == true  # == bound+1


needs_numpy = pytest.mark.skipif(
    active_numpy() is None, reason="numpy not installed"
)


@needs_numpy
class TestMyersDistanceBatch:
    """Every lane of the vectorized recurrence equals the scalar Myers
    kernel — and through it the reference DP — including the early-exit
    semantics of per-lane ``max_distance`` budgets."""

    def _np(self):
        return active_numpy()

    @pytest.mark.parametrize("seed", range(4))
    def test_lanes_match_scalar_myers(self, seed):
        rng = random.Random(11000 + seed)
        patterns, texts, budgets = [], [], []
        for _ in range(300):
            m = rng.choice([1, 1, 2, 3, 5, 8, 13, 21, 40, 63, 64])
            n = rng.choice([0, 1, 2, 3, 5, 8, 13, 21, 40, 64, 90])
            patterns.append("".join(rng.choice(ALPHABET) for _ in range(m)))
            texts.append("".join(rng.choice(ALPHABET) for _ in range(n)))
            budgets.append(rng.choice([0, 1, 2, 5, 10, 10**6, max(m, n)]))
        got = myers_distance_batch(self._np(), patterns, texts, budgets)
        for k in range(len(patterns)):
            want = _myers_distance(patterns[k], texts[k], budgets[k])
            assert int(got[k]) == want, (patterns[k], texts[k], budgets[k])

    def test_unbounded_lanes_match_reference_dp(self):
        rng = random.Random(12000)
        patterns = [
            "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(1, 65)))
            for _ in range(200)
        ]
        texts = [
            "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(0, 100)))
            for _ in range(200)
        ]
        # A budget ≥ len(text) can never trigger the early exit, so the
        # lane computes the exact distance — the reference contract.
        budgets = [max(len(p), len(t)) for p, t in zip(patterns, texts)]
        got = myers_distance_batch(self._np(), patterns, texts, budgets)
        for k in range(len(patterns)):
            want = levenshtein_distance_reference(patterns[k], texts[k])
            assert int(got[k]) == want

    def test_boundary_pattern_lengths(self):
        """m = 64 exercises the full-width column mask (the shift-by-64
        trap) and the top-bit probe at bit 63."""
        patterns, texts, budgets = [], [], []
        for m in (1, 2, 63, 64):
            for n in (0, 1, 63, 64, 65, 100):
                patterns.append(("ab" * 50)[:m])
                texts.append(("ba" * 60)[:n])
                budgets.append(10**6)
        got = myers_distance_batch(self._np(), patterns, texts, budgets)
        for k in range(len(patterns)):
            want = levenshtein_distance_reference(patterns[k], texts[k])
            assert int(got[k]) == want, (len(patterns[k]), len(texts[k]))

    def test_empty_batch_and_empty_texts(self):
        np = self._np()
        assert myers_distance_batch(np, [], [], []).shape == (0,)
        got = myers_distance_batch(np, ["abc", "é😀"], ["", ""], [5, 5])
        assert got.tolist() == [3, 2]

    def test_max_distance_zero(self):
        got = myers_distance_batch(
            self._np(),
            ["abc", "abc", "abcd"],
            ["abc", "abd", "abc"],
            [0, 0, 0],
        )
        assert int(got[0]) == 0
        assert int(got[1]) > 0
        assert int(got[2]) > 0

    def test_non_bmp_lanes(self):
        """Astral-plane code points must round-trip the utf-32 packing
        and the dense-alphabet equality table."""
        got = myers_distance_batch(
            self._np(),
            ["😀😀a", "😀", "中文ß"],
            ["😀a", "😀😀", "中文"],
            [10, 10, 10],
        )
        assert got.tolist() == [
            levenshtein_distance_reference("😀😀a", "😀a"),
            levenshtein_distance_reference("😀", "😀😀"),
            levenshtein_distance_reference("中文ß", "中文"),
        ]

    def test_mask_table_matches_scalar_packing(self):
        np = self._np()
        # Dense codes: a=1, b=2, c=3; second row "cb" padded with 0.
        codes = np.array([[1, 2, 3, 1], [3, 2, 0, 0]], dtype=np.int64)
        table = myers_mask_table(np, codes, 5)
        assert table.shape == (2, 5)
        assert table[0].tolist() == [0, 0b1001, 0b0010, 0b0100, 0]
        assert table[1].tolist() == [0, 0, 0b10, 0b01, 0]
        peq = myers_masks("abca")[0]
        assert [peq[ch] for ch in "abc"] == table[0, 1:4].tolist()


@needs_numpy
class TestMyersDistanceLanes:
    """Fuzz of the array core itself — integer lanes over a shared string
    table, the form the batch kernel calls — against scalar Myers and
    the reference DP."""

    def _check(self, strings, lanes):
        np = active_numpy()
        pattern = np.array([p for p, _t, _k in lanes], dtype=np.int64)
        text = np.array([t for _p, t, _k in lanes], dtype=np.int64)
        budget = np.array([k for _p, _t, k in lanes], dtype=np.int64)
        got = myers_distance_lanes(np, strings, pattern, text, budget).tolist()
        for (p, t, k), distance in zip(lanes, got):
            assert distance == _myers_distance(strings[p], strings[t], k), (
                strings[p], strings[t], k
            )
            exact = levenshtein_distance_reference(strings[p], strings[t])
            # An empty text never steps, so no bound can trip on it.
            bounded = exact <= k or not strings[t]
            assert distance == (exact if bounded else k + 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_lanes_over_a_shared_string_table(self, seed):
        rng = random.Random(13000 + seed)
        strings = [""]
        for length in (1, 1, 2, 5, 13, 30, 63, 64, 64, 65, 90, 130):
            strings.append("".join(rng.choice(ALPHABET) for _ in range(length)))
        for _ in range(20):  # near-duplicates of what is already there
            base = list(rng.choice(strings[1:]))
            base[rng.randrange(len(base))] = rng.choice(ALPHABET)
            strings.append("".join(base))
        patterns = [i for i, s in enumerate(strings) if 1 <= len(s) <= 64]
        lanes = []
        for _ in range(400):
            p = rng.choice(patterns)
            t = rng.randrange(len(strings))  # incl. the empty string and > 64
            k = rng.choice([0, 0, 1, 2, 5, len(strings[t]), 10**6])
            lanes.append((p, t, k))
        self._check(strings, lanes)

    def test_duplicate_heavy_lanes(self):
        """Few strings, many lanes: every pattern row and text row is
        shared, and the same lane occurs many times."""
        strings = ["kettle", "kettles", "settle", "😀ettle", "kettl"]
        rng = random.Random(5)
        lanes = [
            (rng.randrange(5), rng.randrange(5), rng.choice([0, 1, 2, 7]))
            for _ in range(500)
        ]
        self._check(strings, lanes)

    def test_alphabet_larger_than_lane_count(self):
        """Three lanes over ~300 distinct code points: the dense mask
        table (patterns × alphabet) would outgrow 64 masks per lane, so
        the patterns are scored in slices — same distances."""
        strings = [
            "".join(chr(0x4E00 + 64 * k + i) for i in range(60)) for k in range(5)
        ]
        strings.append(strings[0][:30] + strings[1][30:])
        lanes = [(0, 5, 100), (1, 5, 100), (2, 3, 100), (4, 5, 3)]
        self._check(strings, lanes)
        many = [(p, t, 100) for p in range(6) for t in range(6)]
        self._check(strings, many)

    def test_strings_the_lanes_do_not_use_are_ignored(self):
        strings = ["x" * 5000, "abc", "abd", "y" * 70]
        self._check(strings, [(1, 2, 5), (2, 1, 0)])

    def test_no_lanes(self):
        np = active_numpy()
        empty = np.empty(0, dtype=np.int64)
        assert myers_distance_lanes(np, ["a"], empty, empty, empty).shape == (0,)


class TestSimilarityAtLeast:
    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_unbounded_similarity(self, seed):
        rng = random.Random(4000 + seed)
        for _ in range(400):
            a, b = _random_pair(rng, 80)
            t = rng.choice(THRESHOLDS)
            assert similarity_at_least(a, b, t) == (
                levenshtein_similarity(a, b) >= t
            ), (a, b, t)

    def test_edges(self):
        assert similarity_at_least("", "", 1.0)
        assert similarity_at_least("abc", "abc", 1.0)
        assert not similarity_at_least("abc", "abd", 1.0)
        assert similarity_at_least("abc", "xyz", 0.0)
        assert similarity_at_least("", "abc", 0.0)
        assert not similarity_at_least("", "abc", 0.5)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            similarity_at_least("a", "b", 1.5)


class TestBoundedSimilarityEquivalence:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_reference_path(self, seed):
        """The matcher's scoring function is bit-identical across kernels."""
        rng = random.Random(5000 + seed)
        for _ in range(300):
            a, b = _random_pair(rng, 80)
            t = rng.choice(THRESHOLDS)
            assert levenshtein_similarity_bounded(
                a, b, t
            ) == levenshtein_similarity_bounded_reference(a, b, t), (a, b, t)
