"""Sorted Neighborhood: coverage, boundary stitching, balance, scores."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sorted_neighborhood import (
    SnPlan,
    brute_force_sn_pairs,
    compute_sn_plan,
    sorted_neighborhood,
)
from repro.datasets.generators import generate_products
from repro.er.entity import Entity
from repro.er.matching import AlwaysMatcher, RecordingMatcher, ThresholdMatcher

from ..conftest import random_keyed_entities


def sort_key(entity: Entity):
    return str(entity.get("title") or "")


def titled(i: int, title: str) -> Entity:
    return Entity(f"e{i}", {"title": title})


class TestPlan:
    def test_quantile_boundaries(self):
        entities = [titled(i, f"t{i:03d}") for i in range(9)]
        plan = compute_sn_plan(entities, sort_key, 3)
        assert plan.num_partitions == 3
        assert plan.offsets == (0, 3, 6)
        assert [b[0] for b in plan.boundaries] == ["t003", "t006"]

    def test_more_partitions_than_entities(self):
        entities = [titled(i, f"t{i}") for i in range(2)]
        plan = compute_sn_plan(entities, sort_key, 5)
        assert plan.total == 2
        assert plan.num_partitions == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            compute_sn_plan([], sort_key, 0)


class TestCoverage:
    @given(
        n=st.integers(min_value=0, max_value=50),
        window=st.integers(min_value=2, max_value=6),
        r=st.integers(min_value=1, max_value=6),
        m=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=5_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_each_window_pair_compared_exactly_once(self, n, window, r, m, seed):
        entities = random_keyed_entities(n, 6, seed=seed)
        matcher = RecordingMatcher()
        sorted_neighborhood(
            entities,
            sort_key,
            window=window,
            matcher=matcher,
            num_map_tasks=m,
            num_reduce_tasks=r,
        )
        expected = brute_force_sn_pairs(entities, sort_key, window)
        assert len(matcher.compared) == len(expected)
        assert set(matcher.compared) == expected

    def test_single_reduce_task_no_boundary_pass(self):
        entities = [titled(i, f"t{i:02d}") for i in range(10)]
        matcher = RecordingMatcher()
        result = sorted_neighborhood(
            entities, sort_key, window=3, matcher=matcher, num_reduce_tasks=1
        )
        assert result.boundary_comparisons == 0
        assert len(matcher.compared) == len(
            brute_force_sn_pairs(entities, sort_key, 3)
        )

    def test_boundary_pairs_found(self):
        # Two duplicates adjacent in sort order but split across the
        # partition cut must still match.
        entities = [titled(i, f"t{i:02d}") for i in range(6)]
        matcher = AlwaysMatcher()
        result = sorted_neighborhood(
            entities, sort_key, window=2, matcher=matcher, num_reduce_tasks=3
        )
        # window=2: adjacent pairs only -> 5 matches, 2 of them at cuts.
        assert len(result.matches) == 5
        assert result.boundary_comparisons == 2

    def test_window_validated(self):
        with pytest.raises(ValueError):
            sorted_neighborhood(
                [titled(0, "a")], sort_key, window=1, matcher=AlwaysMatcher()
            )


class TestKernelScores:
    """SN scores through ``match_batch``: with the default matcher its
    matches (ids *and* scores) and comparison count equal a per-pair
    ``match`` over every window pair, on whichever kernel path is
    active."""

    @pytest.mark.parametrize("window", [2, 5])
    @pytest.mark.parametrize(
        "n, r",
        [
            (80, 1),  # one run: no stitching
            (80, 3),
            (30, 10),  # runs of 3 < w - 1: a window spans several cuts
            (12, 20),  # r > n: empty and single-entity partitions
        ],
    )
    def test_matches_per_pair_oracle(self, n, r, window):
        entities = generate_products(n, seed=61)
        matcher = ThresholdMatcher("title", 0.8)
        result = sorted_neighborhood(
            entities, sort_key, window=window, matcher=matcher,
            num_map_tasks=3, num_reduce_tasks=r,
        )
        pairs = sorted(brute_force_sn_pairs(entities, sort_key, window))
        by_id = {e.qualified_id: e for e in entities}
        oracle = ThresholdMatcher("title", 0.8)
        expected = [
            (p.id1, p.id2, p.similarity)
            for a, b in pairs
            if (p := oracle.match(by_id[a], by_id[b])) is not None
        ]
        # Non-degenerate: real near-duplicates, not only exact copies.
        assert any(score < 1.0 for _a, _b, score in expected)
        assert [(p.id1, p.id2, p.similarity) for p in result.matches] == expected
        assert result.comparisons == len(pairs) == matcher.comparisons
        assert matcher.matches_found == len(expected)
        if r == 1:
            assert result.boundary_comparisons == 0


class TestBalance:
    def test_sn_work_is_bounded_by_window(self):
        """SN's defining property: per-task work ≤ (run length)·(w−1),
        independent of key skew (the paper's §VII observation)."""
        # Heavily skewed titles: many identical keys.
        entities = [titled(i, "same") for i in range(40)] + [
            titled(100 + i, f"u{i}") for i in range(10)
        ]
        matcher = RecordingMatcher()
        window = 4
        result = sorted_neighborhood(
            entities, sort_key, window=window, matcher=matcher, num_reduce_tasks=5
        )
        run_length = 10  # 50 entities over 5 partitions
        for comparisons in result.reduce_comparisons:
            assert comparisons <= run_length * (window - 1)

    def test_comparisons_accounting(self):
        entities = [titled(i, f"t{i:02d}") for i in range(20)]
        matcher = RecordingMatcher()
        result = sorted_neighborhood(
            entities, sort_key, window=3, matcher=matcher, num_reduce_tasks=4
        )
        assert result.comparisons == len(matcher.compared)
        assert result.comparisons == (
            sum(result.reduce_comparisons) + result.boundary_comparisons
        )
