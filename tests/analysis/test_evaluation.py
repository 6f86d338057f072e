"""Match-quality metrics."""

from __future__ import annotations

import pytest

from repro.analysis.evaluation import (
    MatchQuality,
    evaluate_matches,
    pairs_completeness,
    reduction_ratio,
)


class TestEvaluateMatches:
    def test_perfect(self):
        gold = {("a", "b"), ("c", "d")}
        quality = evaluate_matches(gold, gold)
        assert quality.precision == 1.0
        assert quality.recall == 1.0
        assert quality.f1 == 1.0

    def test_partial(self):
        found = {("a", "b"), ("x", "y")}
        gold = {("a", "b"), ("c", "d")}
        quality = evaluate_matches(found, gold)
        assert quality.true_positives == 1
        assert quality.false_positives == 1
        assert quality.false_negatives == 1
        assert quality.precision == 0.5
        assert quality.recall == 0.5

    def test_orderless_pairs(self):
        quality = evaluate_matches({("b", "a")}, {("a", "b")})
        assert quality.precision == 1.0

    def test_empty_found(self):
        quality = evaluate_matches(set(), {("a", "b")})
        assert quality.precision == 1.0  # vacuous
        assert quality.recall == 0.0
        assert quality.f1 == 0.0

    def test_empty_gold(self):
        quality = evaluate_matches({("a", "b")}, set())
        assert quality.recall == 1.0
        assert quality.precision == 0.0

    def test_f_beta(self):
        quality = MatchQuality(true_positives=1, false_positives=1, false_negatives=0)
        # precision 0.5, recall 1.0.
        assert quality.f_beta(1.0) == pytest.approx(quality.f1)
        assert quality.f_beta(2.0) > quality.f1  # recall-weighted
        with pytest.raises(ValueError):
            quality.f_beta(0)

    def test_as_dict(self):
        quality = evaluate_matches({("a", "b")}, {("a", "b")})
        assert quality.as_dict()["f1"] == 1.0


class TestBlockingMetrics:
    def test_pairs_completeness(self):
        candidates = {("a", "b"), ("c", "d")}
        gold = {("a", "b"), ("e", "f")}
        assert pairs_completeness(candidates, gold) == 0.5

    def test_completeness_empty_gold(self):
        assert pairs_completeness(set(), set()) == 1.0

    def test_reduction_ratio(self):
        # 10 entities -> 45 possible pairs; 9 candidates -> 0.8.
        assert reduction_ratio(9, 10) == pytest.approx(0.8)
        assert reduction_ratio(0, 1) == 1.0
        with pytest.raises(ValueError):
            reduction_ratio(-1, 10)


class TestEndToEndQuality:
    def test_workflow_quality_on_corrupted_data(self):
        from repro.engine import ERPipeline
        from repro.datasets.corruption import CorruptionConfig, corrupt_dataset
        from repro.datasets.generators import generate_products
        from repro.er.blocking import PrefixBlocking
        from repro.er.matching import ThresholdMatcher

        from repro.datasets.corruption import drop_character, insert_character, typo

        clean = generate_products(300, seed=13, num_blocks=30)
        # Character-level corruption keeps duplicates above the 0.8
        # edit-distance threshold; token swaps would not (by design).
        corrupted = corrupt_dataset(
            clean,
            CorruptionConfig(
                duplicate_fraction=0.2,
                max_edits=1,
                seed=14,
                corruptors=((typo, 1.0), (insert_character, 1.0), (drop_character, 1.0)),
            ),
        )
        workflow = ERPipeline(
            "pairrange",
            PrefixBlocking("title", 3),
            ThresholdMatcher("title", 0.8),
            num_map_tasks=3,
            num_reduce_tasks=5,
        )
        result = workflow.run(list(corrupted.entities))
        quality = evaluate_matches(result.matches.pair_ids, corrupted.gold_pairs)
        # Character-level corruption with protected prefix: high recall.
        assert quality.recall > 0.9
        # Precision is bounded below by construction only loosely (the
        # generator itself plants near-duplicates), so just sanity-check.
        assert quality.true_positives > 0
