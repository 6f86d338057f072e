"""Multi-attribute matchers."""

from __future__ import annotations

import pytest

from repro.er.comparators import (
    AttributeRule,
    ConjunctiveMatcher,
    WeightedMatcher,
    exact_rule,
    numeric_rule,
    string_rule,
)
from repro.er.entity import Entity


def product(eid, title, price=None, category=None):
    return Entity(eid, {"title": title, "price": price, "category": category})


class TestAttributeRule:
    def test_string_rule(self):
        rule = string_rule("title")
        assert rule.score(product("a", "same"), product("b", "same")) == 1.0
        assert rule.score(product("a", "aaa"), product("b", "bbb")) == 0.0

    def test_numeric_rule(self):
        rule = numeric_rule("price", scale=100)
        assert rule.score(product("a", "t", 50), product("b", "t", 100)) == pytest.approx(0.5)

    def test_exact_rule(self):
        rule = exact_rule("category")
        assert rule.score(product("a", "t", category="tv"), product("b", "t", category="tv")) == 1.0
        assert rule.score(product("a", "t", category="tv"), product("b", "t", category="hifi")) == 0.0

    def test_missing_score(self):
        rule = AttributeRule("price", lambda a, b: 1.0, missing_score=0.5)
        assert rule.score(product("a", "t"), product("b", "t", 10)) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            AttributeRule("x", lambda a, b: 1.0, weight=0)
        with pytest.raises(ValueError):
            AttributeRule("x", lambda a, b: 1.0, missing_score=2.0)


class TestWeightedMatcher:
    def test_weighted_combination(self):
        matcher = WeightedMatcher(
            [string_rule("title", weight=3.0), numeric_rule("price", scale=100, weight=1.0)],
            threshold=0.7,
        )
        e1 = product("a", "sony camera", 100)
        e2 = product("b", "sony camera", 180)
        # title 1.0 * 3 + price 0.2 * 1 => 3.2 / 4 = 0.8.
        assert matcher.similarity(e1, e2) == pytest.approx(0.8)
        assert matcher.match(e1, e2) is not None

    def test_counts(self):
        matcher = WeightedMatcher([string_rule("title")], threshold=0.9)
        matcher.match(product("a", "x"), product("b", "y"))
        assert matcher.comparisons == 1
        assert matcher.matches_found == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedMatcher([])
        with pytest.raises(ValueError):
            WeightedMatcher([string_rule("t")], threshold=1.5)

    def test_in_workflow(self):
        from repro.engine import ERPipeline
        from repro.er.blocking import PrefixBlocking

        entities = [
            product("a", "sony camera kit", 100),
            product("b", "sony camera kit", 105),
            product("c", "sony camcorder pro", 900),
        ]
        matcher = WeightedMatcher(
            [string_rule("title", 2.0), numeric_rule("price", scale=200)],
            threshold=0.85,
        )
        workflow = ERPipeline(
            "blocksplit", PrefixBlocking("title"), matcher,
            num_map_tasks=1, num_reduce_tasks=2,
        )
        result = workflow.run(entities)
        assert result.matches.pair_ids == {("R:a", "R:b")}


class TestConjunctiveMatcher:
    def test_all_rules_must_pass(self):
        matcher = ConjunctiveMatcher(
            [string_rule("title"), exact_rule("category")],
            default_threshold=0.8,
            thresholds={"category": 1.0},
        )
        same = matcher.match(
            product("a", "sony tv", category="tv"),
            product("b", "sony tv", category="tv"),
        )
        assert same is not None
        category_differs = matcher.match(
            product("a", "sony tv", category="tv"),
            product("b", "sony tv", category="hifi"),
        )
        assert category_differs is None

    def test_validation(self):
        with pytest.raises(ValueError):
            ConjunctiveMatcher([])
