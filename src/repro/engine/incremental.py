"""Incremental ER: the persisted corpus state and the ingest loop.

A :class:`CorpusState` is everything a later delta run needs from the
runs that came before it:

* the **annotated partitions** — the ``(block key, entity)`` records
  Job 1 side-wrote, in BDM partition order.  They seed Job 2 of a delta
  run directly, so old records never pass through Job 1 (or a single
  comparison against each other) again;
* the **BDM** over those partitions, merged with each delta's block
  counts to plan the remaining ``T(n) − T(o)`` pairs per block;
* the **match log** — one append-only entry per ingest, with stable
  canonical pair ids (delta matches are disjoint from all earlier ones,
  so the log entries partition the cumulative match set);
* the cumulative **comparison count**, the receipt that incremental
  ingests did strictly less work than recomputes would have.

:func:`ingest` is the durable loop around
:meth:`~repro.engine.pipeline.ERPipeline.submit_delta`: load state, run
the delta, advance, save — where saving is write-tmp-then-rename with
``state.json`` as the single atomic commit point, so a crash anywhere
leaves the on-disk state either untouched or fully advanced, never
half-written.

State is advanced *analytically*: the delta's annotation and block
counts are recomputed from the raw records with the same blocking
function Job 1 used, which yields byte-identical partitions and matrix
without shipping them back from the workers — and makes ``advanced``
backend-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from ..core.bdm import BlockDistributionMatrix
from ..er.blocking import BlockingFunction
from ..er.entity import Entity
from ..er.matching import MatchPair, MatchResult
from ..mapreduce.types import Partition

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mapreduce.events import ExecutionEvent
    from .pipeline import ERPipeline
    from .result import PipelineResult


@dataclass(frozen=True)
class CorpusState:
    """The persisted outcome of all ingests so far.

    ``partitions`` hold only *keyed* entities (records Job 1 dropped for
    lack of a blocking key are not part of any block and never compare);
    ``bdm`` is ``None`` exactly when no keyed entity exists yet.
    ``match_log[i]`` is what ingest ``i`` newly matched; ``comparisons``
    accumulates every ingest's Job 2 comparison counters.
    """

    partitions: tuple[Partition, ...]
    bdm: BlockDistributionMatrix | None
    match_log: tuple[tuple[MatchPair, ...], ...] = ()
    comparisons: int = 0

    @classmethod
    def empty(cls) -> "CorpusState":
        """The state before any ingest (no partitions, no matches)."""
        return cls(partitions=(), bdm=None)

    # -- derived views -----------------------------------------------------

    @property
    def matches(self) -> MatchResult:
        """The cumulative match set across all ingests."""
        return MatchResult(self.iter_matches())

    def iter_matches(self) -> Iterator[MatchPair]:
        for entry in self.match_log:
            yield from entry

    @property
    def num_ingests(self) -> int:
        return len(self.match_log)

    @property
    def num_entities(self) -> int:
        """Keyed entities absorbed so far."""
        return sum(len(p) for p in self.partitions)

    @property
    def num_matches(self) -> int:
        return sum(len(entry) for entry in self.match_log)

    # -- advancing ---------------------------------------------------------

    def advanced(
        self,
        result: "PipelineResult",
        delta_partitions: Sequence[Partition],
        blocking: BlockingFunction,
    ) -> "CorpusState":
        """The state after absorbing one ingest.

        ``result`` is what :meth:`~repro.engine.pipeline.ERPipeline.
        submit_delta` (or, for the first ingest, a plain full run)
        produced for ``delta_partitions`` — the *raw* partitions that
        were submitted.  Their annotation is recomputed here with
        ``blocking``, exactly as Job 1's map side did, appended after
        the existing partitions with fresh contiguous indices.
        """
        partitions = list(self.partitions)
        for partition in delta_partitions:
            annotated = []
            for record in partition:
                key = blocking.key_for(record.value)
                if key is not None:
                    annotated.append((key, record.value))
            partitions.append(Partition.from_pairs(annotated, index=len(partitions)))
        counts: dict[tuple[object, int], int] = {}
        for partition in partitions:
            for record in partition:
                slot = (record.key, partition.index)
                counts[slot] = counts.get(slot, 0) + 1
        bdm = (
            BlockDistributionMatrix.from_counts(counts, len(partitions))
            if counts
            else None
        )
        if result.matches is None:
            raise ValueError(
                f"cannot advance corpus state from a {result.backend!r} "
                "result without matches (planned runs do not execute)"
            )
        return CorpusState(
            partitions=tuple(partitions),
            bdm=bdm,
            match_log=self.match_log + (tuple(result.matches),),
            comparisons=self.comparisons + result.total_comparisons(),
        )

    def __repr__(self) -> str:
        return (
            f"CorpusState(entities={self.num_entities}, "
            f"partitions={len(self.partitions)}, "
            f"ingests={self.num_ingests}, matches={self.num_matches}, "
            f"comparisons={self.comparisons})"
        )


def ingest(
    pipeline: "ERPipeline",
    new_records: Sequence[Entity] | Sequence[Partition],
    state_dir: "str | Path",
    *,
    on_event: "Callable[[ExecutionEvent], None] | None" = None,
) -> tuple["PipelineResult", CorpusState]:
    """Absorb a batch of new records into the state at ``state_dir``.

    Loads the persisted :class:`CorpusState` (an absent directory means
    an empty corpus), runs the delta through ``pipeline``'s configured
    backend, advances the state and saves it atomically.  On any
    failure — a crashed worker, a cancelled execution — the persisted
    state is left exactly as it was; re-running the same ingest
    converges to the same state.

    Returns ``(result, state)``: the delta run's
    :class:`~repro.engine.result.PipelineResult` (its matches are the
    *new* pairs only) and the advanced state.
    """
    from .persistence import load_state, save_state

    directory = Path(state_dir)
    if (directory / "state.json").exists():
        state = load_state(directory)
    else:
        state = CorpusState.empty()
    partitions = pipeline._as_partitions(new_records)
    execution = pipeline.submit_delta(partitions, state, on_event=on_event)
    result = execution.result()
    advanced = state.advanced(result, partitions, pipeline.blocking)
    save_state(advanced, directory)
    return result, advanced
