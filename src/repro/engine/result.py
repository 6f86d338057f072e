"""The unified result of one pipeline run, whatever the backend.

Executing backends (serial, parallel, distributed) fill the match/job fields;
the planned backend leaves them ``None``.  The analytic ``plan`` is
present for every backend, so workload accessors such as
:meth:`PipelineResult.reduce_comparisons` work uniformly — callers can
swap ``"serial"`` for ``"planned"`` without touching downstream code.

Results persist: :meth:`PipelineResult.save` writes a versioned JSON
document and :meth:`PipelineResult.load` restores it — matches,
counters, per-task statistics, BDM, plans and simulated timeline all
round-trip (see :mod:`repro.engine.persistence`), which is what lets
the analysis sweeps replay a finished run from disk instead of
re-executing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from ..mapreduce.counters import StandardCounter

if TYPE_CHECKING:  # imports for annotations only — keeps this module cycle-free
    from ..cluster.timeline import WorkflowTimeline
    from ..core.bdm import BlockDistributionMatrix
    from ..core.planning import BdmJobPlan, StrategyPlan
    from ..core.two_source import DualSourceBDM
    from ..er.matching import MatchResult
    from ..mapreduce.runtime import JobResult


@dataclass(frozen=True, slots=True)
class PipelineResult:
    """Everything one pipeline run produced.

    ``strategy`` and ``backend`` are the registry names used;
    ``bdm`` is the executed Job 1 output (executing backends) or the
    analytically derived matrix (planned backend) — ``None`` only for
    the BDM-free Basic strategy on an executing backend.
    """

    strategy: str
    backend: str
    matches: "MatchResult | None"
    bdm: "BlockDistributionMatrix | DualSourceBDM | None"
    job1: "JobResult | None"
    job2: "JobResult | None"
    plan: "StrategyPlan | None" = None
    bdm_plan: "BdmJobPlan | None" = None
    timeline: "WorkflowTimeline | None" = None

    # -- execution-mode probes ---------------------------------------------

    @property
    def executed(self) -> bool:
        """Whether matching actually ran (vs. analytic planning only)."""
        return self.job2 is not None

    @property
    def execution_time(self) -> float | None:
        """Simulated wall-clock seconds, when a cluster was configured."""
        return self.timeline.execution_time if self.timeline is not None else None

    # -- workload accessors (uniform across backends) ----------------------

    def reduce_comparisons(self) -> list[int]:
        """Pairs compared per reduce task of Job 2 (measured or planned).

        A planned run over input with no blocked entities has no
        plannable workload (``plan is None``): report it as zero work,
        matching what the executing backends measure on the same input.
        """
        if self.job2 is not None:
            return self.job2.reduce_counter(StandardCounter.PAIR_COMPARISONS)
        if self.plan is not None:
            return list(self.plan.reduce_comparisons)
        return []

    def total_comparisons(self) -> int:
        return sum(self.reduce_comparisons())

    def map_output_kv(self) -> int:
        """Total key-value pairs emitted by Job 2's map phase (Figure 12)."""
        if self.job2 is not None:
            return self.job2.map_output_records()
        if self.plan is not None:
            return self.plan.total_map_output_kv
        return 0

    # -- persistence ---------------------------------------------------------

    def save(self, path: "str | Path") -> Path:
        """Persist this result as a versioned JSON document.

        Matches (ids and scores), all counters (job-level and
        per-task), the BDM, the analytic plans and the simulated
        timeline round-trip exactly through :meth:`load`; raw per-task
        output records (other than the matches) and job properties do
        not.  Returns the path written.
        """
        from .persistence import save_result

        return save_result(self, path)

    @classmethod
    def load(cls, path: "str | Path") -> "PipelineResult":
        """Read a result previously written by :meth:`save`.

        Raises :class:`~repro.engine.persistence.PersistenceError` for
        files that are not (a supported version of) the format.
        """
        from .persistence import load_result

        return load_result(path)
