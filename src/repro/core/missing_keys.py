"""Matching in the presence of entities without a blocking key.

Section III: "All entities R∅ ⊆ R without blocking key need to be
matched with all entities, i.e., the Cartesian product of R × R∅ needs
to be determined which is a special case of ER between two sources."
Appendix I generalises to two sources:

    matchB(R, S) = matchB(R − R∅, S − S∅)
                 ∪ match⊥(R, S∅)
                 ∪ match⊥(R∅, S − S∅)

This module implements both decompositions on top of the existing
workflows, using :class:`~repro.er.blocking.ConstantBlocking` ("⊥") for
the Cartesian-product legs — so even the degenerate single-block legs
are load-balanced by BlockSplit/PairRange.
"""

from __future__ import annotations

from typing import Sequence

from ..er.blocking import BlockingFunction, ConstantBlocking
from ..er.entity import Entity
from ..er.matching import MatchResult, ThresholdMatcher
from ..engine.backend import ExecutionBackend
from ..engine.pipeline import ERPipeline


def split_by_key(
    entities: Sequence[Entity], blocking: BlockingFunction
) -> tuple[list[Entity], list[Entity]]:
    """Partition entities into (keyed, keyless) under ``blocking``."""
    keyed: list[Entity] = []
    keyless: list[Entity] = []
    for entity in entities:
        (keyed if blocking.key_for(entity) is not None else keyless).append(entity)
    return keyed, keyless


def resolve_with_missing_keys(
    entities: Sequence[Entity],
    blocking: BlockingFunction,
    *,
    strategy: str = "blocksplit",
    matcher_factory=None,
    num_map_tasks: int = 2,
    num_reduce_tasks: int = 3,
    backend: ExecutionBackend | str = "serial",
    memory_budget: int | None = None,
) -> MatchResult:
    """One-source dedup where some entities lack a blocking key.

    Decomposition: blocked matching of the keyed entities, plus the
    Cartesian product legs ``keyed × keyless`` (two-source with the
    constant key) and ``keyless × keyless`` (one-source with the
    constant key).  Every qualifying pair is compared exactly once.
    """
    factory = matcher_factory if matcher_factory is not None else ThresholdMatcher
    keyed, keyless = split_by_key(entities, blocking)
    result = MatchResult()

    def leg(leg_blocking: BlockingFunction) -> ERPipeline:
        # One pipeline per leg: matchers are stateful, so each leg gets
        # a fresh one from the factory.
        return ERPipeline(
            strategy,
            leg_blocking,
            factory(),
            num_map_tasks=num_map_tasks,
            num_reduce_tasks=num_reduce_tasks,
            backend=backend,
            memory_budget=memory_budget,
        )

    if len(keyed) >= 2:
        result.merge(leg(blocking).run(keyed).matches)
    constant = ConstantBlocking()
    if keyed and keyless:
        # Two-source with the constant key; each side gets half of
        # ``num_map_tasks`` partitions (the pipeline's default).
        cross_result = leg(constant).run(keyed, keyless)
        result.merge(_strip_source_retagging(cross_result.matches, keyed, keyless))
    if len(keyless) >= 2:
        result.merge(leg(constant).run(keyless).matches)
    return result


def link_with_missing_keys(
    r_entities: Sequence[Entity],
    s_entities: Sequence[Entity],
    blocking: BlockingFunction,
    *,
    strategy: str = "blocksplit",
    matcher_factory=None,
    num_reduce_tasks: int = 3,
    backend: ExecutionBackend | str = "serial",
    memory_budget: int | None = None,
) -> MatchResult:
    """Two-source linkage with keyless entities (Appendix I's union).

    ``matchB(R−R∅, S−S∅) ∪ match⊥(R, S∅) ∪ match⊥(R∅, S−S∅)``.
    """
    factory = matcher_factory if matcher_factory is not None else ThresholdMatcher
    keyed_r, keyless_r = split_by_key(r_entities, blocking)
    keyed_s, keyless_s = split_by_key(s_entities, blocking)
    constant = ConstantBlocking()
    result = MatchResult()

    legs = [
        (keyed_r, keyed_s, blocking),        # matchB(R−R∅, S−S∅)
        (list(r_entities), keyless_s, constant),  # match⊥(R, S∅)
        (keyless_r, keyed_s, constant),      # match⊥(R∅, S−S∅)
    ]
    for r_leg, s_leg, leg_blocking in legs:
        if not r_leg or not s_leg:
            continue
        pipeline = ERPipeline(
            strategy,
            leg_blocking,
            factory(),
            num_reduce_tasks=num_reduce_tasks,
            backend=backend,
            memory_budget=memory_budget,
        )
        leg_result = pipeline.run(r_leg, s_leg, num_r_partitions=1, num_s_partitions=1)
        result.merge(leg_result.matches)
    return result


def _strip_source_retagging(
    matches: MatchResult, keyed: Sequence[Entity], keyless: Sequence[Entity]
) -> MatchResult:
    """Map the cross leg's temporary R:/S: tags back to original sources.

    Two-source runs re-tag their inputs as R and S; for the one-source
    decomposition both legs are really the same source, so we rewrite
    the qualified ids back to the entities' true source tags.
    """
    from ..er.matching import MatchPair

    true_source = {}
    for entity in keyed:
        true_source[("R", entity.entity_id)] = entity.source
    for entity in keyless:
        true_source[("S", entity.entity_id)] = entity.source

    def rewrite(qualified: str) -> str:
        tag, _, entity_id = qualified.partition(":")
        return f"{true_source.get((tag, entity_id), tag)}:{entity_id}"

    rewritten = MatchResult()
    for pair in matches:
        a, b = sorted((rewrite(pair.id1), rewrite(pair.id2)))
        rewritten.add(MatchPair(a, b, pair.similarity))
    return rewritten
