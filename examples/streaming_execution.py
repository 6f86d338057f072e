"""The execution-handle API: stream, watch, cancel, persist, replan.

Submits one dedup run and consumes it the submission-model way —
matches arrive as reduce task units complete, an event callback
narrates the task lifecycle, the result is persisted to versioned
JSON, and a strategy sweep is replanned from the file alone (no
re-execution).  A second, asyncio-flavoured pass does the same through
``submit_async`` — the asyncio bridges live on the handle, so any
backend serves; here thread workers keep the task units off the loop.

Run:  python examples/streaming_execution.py
"""

from __future__ import annotations

import asyncio
import tempfile
from pathlib import Path

from repro import ERPipeline, PrefixBlocking, ThresholdMatcher, generate_products
from repro.analysis import sweep_from_result
from repro.mapreduce.events import EventKind


def main() -> None:
    entities = generate_products(1_500, seed=17)
    pipeline = ERPipeline(
        "blocksplit",
        PrefixBlocking("title", length=3),
        ThresholdMatcher("title", threshold=0.8),
        num_map_tasks=4,
        num_reduce_tasks=8,
    )

    # 1. Submit with an event callback narrating reduce-task completions.
    def narrate(event) -> None:
        if event.kind == EventKind.TASK_FINISHED and event.phase == "reduce":
            print(
                f"  [{event.stage}] reduce task {event.task_index}: "
                f"{event.data['comparisons']:,} comparisons, "
                f"{event.data['matches']} matches"
            )

    execution = pipeline.submit(entities, on_event=narrate)

    # 2. Matches stream out task by task, in deterministic order.
    streamed = list(execution.iter_matches())
    result = execution.result()
    assert len(streamed) == len(result.matches)
    print(f"\nstreamed {len(streamed)} matches; "
          f"progress: {execution.progress().state}, "
          f"{execution.matcher_stats().comparisons:,} comparisons this run")

    # 3. Persist, then replan a reduce-task sweep from the file alone.
    path = Path(tempfile.mkdtemp()) / "result.json"
    result.save(path)
    sweep = sweep_from_result(["blocksplit", "pairrange"], [8, 40, 80], path)
    print(f"\nreplanned from {path.name} (nothing re-executed):")
    for r, runs in sorted(sweep.items()):
        times = ", ".join(
            f"{name}={run.execution_time:.1f}s" for name, run in runs.items()
        )
        print(f"  r={r:>3}: {times}")

    # 4. The same handle surface, from asyncio, on thread workers.
    async def async_pass() -> int:
        threaded = pipeline.with_backend("parallel", executor="thread")
        handle = await threaded.submit_async(entities)
        count = 0
        async for _pair in handle.aiter_matches():
            count += 1
        final = await handle.result_async()
        assert final.matches == result.matches  # byte-identical across backends
        return count

    print(f"\nsubmit_async streamed {asyncio.run(async_pass())} matches "
          "(byte-identical result)")


if __name__ == "__main__":
    main()
