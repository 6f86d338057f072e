"""Common strategy interface and registry.

A :class:`LoadBalancingStrategy` bundles the pieces the pipeline needs:
whether Job 1 (BDM) is required, how to build the matching job, and how
to produce the analytic :class:`~repro.core.planning.StrategyPlan`.

Strategies self-register via the :func:`register_strategy` decorator;
:func:`get_strategy` resolves a name, class or ready instance, so
callers can pass configured instances (``ERPipeline(PairRangeStrategy(),
…)``) or plain registry names (``ERPipeline("pairrange", …)``)
interchangeably.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Sequence, TypeVar

from ..er.blocking import BlockingFunction
from ..er.matching import Matcher
from ..mapreduce.job import MapReduceJob
from .basic import BasicMatchJob
from .bdm import BlockDistributionMatrix
from .blocksplit import BlockSplitJob
from .delta import DeltaBasicJob, DeltaBDM, DeltaBlockSplitJob, DeltaPairRangeJob
from .pairrange import PairRangeJob
from .planning import (
    StrategyPlan,
    plan_basic,
    plan_blocksplit,
    plan_delta_basic,
    plan_delta_blocksplit,
    plan_delta_pairrange,
    plan_dual_blocksplit,
    plan_dual_pairrange,
    plan_pairrange,
)
from .two_source import DualBlockSplitJob, DualPairRangeJob, DualSourceBDM


class LoadBalancingStrategy(ABC):
    """One of the paper's entity redistribution schemes."""

    #: Registry key and display name.
    name: str = "strategy"

    #: Whether Job 2 needs the BDM (and hence Job 1).  The Basic
    #: strategy is a single job; it still *accepts* annotated input so
    #: all strategies can be compared on identical inputs.
    requires_bdm: bool = True

    @abstractmethod
    def build_job(
        self,
        bdm: BlockDistributionMatrix | None,
        matcher: Matcher,
        num_reduce_tasks: int,
        *,
        blocking: BlockingFunction | None = None,
    ) -> MapReduceJob:
        """The matching job (Job 2) for the one-source case.

        ``blocking`` is the workflow's blocking function; strategies
        that consume raw (un-annotated) input — currently only Basic —
        use it to derive keys in their map phase, the rest ignore it.
        """

    @abstractmethod
    def plan(
        self,
        bdm: BlockDistributionMatrix,
        num_reduce_tasks: int,
        *,
        map_input_records: Sequence[int] | None = None,
    ) -> StrategyPlan:
        """The analytic workload plan for the one-source case."""

    def build_dual_job(
        self,
        bdm: DualSourceBDM,
        matcher: Matcher,
        num_reduce_tasks: int,
    ) -> MapReduceJob:
        """The matching job for the two-source case (Appendix I)."""
        raise NotImplementedError(
            f"strategy {self.name!r} has no two-source variant"
        )

    def plan_dual(
        self,
        bdm: DualSourceBDM,
        num_reduce_tasks: int,
        *,
        map_input_records: Sequence[int] | None = None,
    ) -> StrategyPlan:
        raise NotImplementedError(
            f"strategy {self.name!r} has no two-source planner"
        )

    def build_delta_job(
        self,
        bdm: DeltaBDM,
        matcher: Matcher,
        num_reduce_tasks: int,
    ) -> MapReduceJob:
        """The matching job for the incremental (delta) case: new
        records against a persisted corpus, comparing only new-vs-old
        and new-vs-new pairs per block."""
        raise NotImplementedError(
            f"strategy {self.name!r} has no incremental (delta) variant"
        )

    def plan_delta(
        self,
        bdm: DeltaBDM,
        num_reduce_tasks: int,
        *,
        map_input_records: Sequence[int] | None = None,
    ) -> StrategyPlan:
        raise NotImplementedError(
            f"strategy {self.name!r} has no incremental (delta) planner"
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


#: Registry of available strategies by name.
STRATEGIES: dict[str, type[LoadBalancingStrategy]] = {}

_S = TypeVar("_S", bound=type[LoadBalancingStrategy])


def _check_pinned_batch_kernel(batch_kernel: bool) -> None:
    """The built-in ``build_job``'s one leftover of the removed option.

    The pair-spec reduce loop is the only one since 3.0.0; the frozen
    layered benchmark's traced replay still passes
    ``batch_kernel=True``, so the built-in strategies accept exactly
    that value until the next ``benchmark`` PR drops the keyword.
    """
    if batch_kernel is not True:
        raise ValueError(
            f"batch_kernel={batch_kernel!r}: the scalar reduce loops were "
            "removed in 3.0.0 — there is nothing to set (see docs/api.md)"
        )


def register_strategy(cls: _S) -> _S:
    """Class decorator adding a strategy to the registry under ``cls.name``.

    Third-party strategies register the same way the built-ins do::

        @register_strategy
        class MyStrategy(LoadBalancingStrategy):
            name = "mine"
            ...
    """
    if not cls.name or cls.name == LoadBalancingStrategy.name:
        raise ValueError(f"{cls.__name__} must define a distinct `name`")
    existing = STRATEGIES.get(cls.name)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"strategy name {cls.name!r} already registered by "
            f"{existing.__name__}"
        )
    STRATEGIES[cls.name] = cls
    return cls


@register_strategy
class BasicStrategy(LoadBalancingStrategy):
    """Section III's baseline — no skew handling."""

    name = "basic"
    requires_bdm = False

    def build_job(
        self, bdm, matcher, num_reduce_tasks, *, blocking=None, batch_kernel=True
    ):
        _check_pinned_batch_kernel(batch_kernel)
        return BasicMatchJob(matcher, blocking=blocking)

    def plan(self, bdm, num_reduce_tasks, *, map_input_records=None):
        return plan_basic(bdm, num_reduce_tasks, map_input_records=map_input_records)

    def build_delta_job(self, bdm, matcher, num_reduce_tasks):
        # The delta path always has the merged BDM in hand (it needs
        # the delta's block counts anyway), so even Basic consumes
        # annotated input here.
        return DeltaBasicJob(bdm, matcher)

    def plan_delta(self, bdm, num_reduce_tasks, *, map_input_records=None):
        return plan_delta_basic(
            bdm, num_reduce_tasks, map_input_records=map_input_records
        )


@register_strategy
class BlockSplitStrategy(LoadBalancingStrategy):
    """Section IV's block-based load balancing."""

    name = "blocksplit"

    def build_job(
        self, bdm, matcher, num_reduce_tasks, *, blocking=None, batch_kernel=True
    ):
        _check_pinned_batch_kernel(batch_kernel)
        return BlockSplitJob(bdm, matcher, num_reduce_tasks)

    def plan(self, bdm, num_reduce_tasks, *, map_input_records=None):
        return plan_blocksplit(
            bdm, num_reduce_tasks, map_input_records=map_input_records
        )

    def build_dual_job(self, bdm, matcher, num_reduce_tasks):
        return DualBlockSplitJob(bdm, matcher, num_reduce_tasks)

    def plan_dual(self, bdm, num_reduce_tasks, *, map_input_records=None):
        return plan_dual_blocksplit(
            bdm, num_reduce_tasks, map_input_records=map_input_records
        )

    def build_delta_job(self, bdm, matcher, num_reduce_tasks):
        return DeltaBlockSplitJob(bdm, matcher, num_reduce_tasks)

    def plan_delta(self, bdm, num_reduce_tasks, *, map_input_records=None):
        return plan_delta_blocksplit(
            bdm, num_reduce_tasks, map_input_records=map_input_records
        )


@register_strategy
class PairRangeStrategy(LoadBalancingStrategy):
    """Section V's pair-based load balancing."""

    name = "pairrange"

    def build_job(
        self, bdm, matcher, num_reduce_tasks, *, blocking=None, batch_kernel=True
    ):
        _check_pinned_batch_kernel(batch_kernel)
        return PairRangeJob(bdm, matcher, num_reduce_tasks)

    def plan(self, bdm, num_reduce_tasks, *, map_input_records=None):
        return plan_pairrange(
            bdm, num_reduce_tasks, map_input_records=map_input_records
        )

    def build_dual_job(self, bdm, matcher, num_reduce_tasks):
        return DualPairRangeJob(bdm, matcher, num_reduce_tasks)

    def plan_dual(self, bdm, num_reduce_tasks, *, map_input_records=None):
        return plan_dual_pairrange(
            bdm, num_reduce_tasks, map_input_records=map_input_records
        )

    def build_delta_job(self, bdm, matcher, num_reduce_tasks):
        return DeltaPairRangeJob(bdm, matcher, num_reduce_tasks)

    def plan_delta(self, bdm, num_reduce_tasks, *, map_input_records=None):
        return plan_delta_pairrange(
            bdm, num_reduce_tasks, map_input_records=map_input_records
        )


def get_strategy(
    strategy: LoadBalancingStrategy | type[LoadBalancingStrategy] | str,
    **options: Any,
) -> LoadBalancingStrategy:
    """Resolve a strategy name, class or instance to a ready instance.

    ``options`` are forwarded to the strategy constructor when a name
    or class is given; passing options alongside an already-built
    instance is an error.
    """
    if isinstance(strategy, LoadBalancingStrategy):
        if options:
            raise TypeError(
                "cannot apply constructor options to an existing "
                f"strategy instance {strategy!r}"
            )
        return strategy
    if isinstance(strategy, type) and issubclass(strategy, LoadBalancingStrategy):
        return strategy(**options)
    try:
        cls = STRATEGIES[strategy]
    except KeyError:
        known = ", ".join(sorted(STRATEGIES))
        raise KeyError(f"unknown strategy {strategy!r}; known: {known}") from None
    return cls(**options)
