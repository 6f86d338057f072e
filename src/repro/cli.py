"""Command-line interface.

Nine subcommands cover the library's main entry points::

    repro-er generate  --kind products --num 5000 --output products.csv
    repro-er pack      --input products.csv --out products.cols
    repro-er dedup     --input products.csv --output matches.csv
    repro-er link      --input-r a.csv --input-s b.csv --output links.csv
    repro-er ingest    --state state/ --input batch.csv --output new.csv
    repro-er serve     --workers 4 --port 7311
    repro-er submit    --server HOST:PORT --input products.csv --output m.csv
    repro-er simulate  --dataset ds1 --nodes 10 --reduce-tasks 100
    repro-er recommend --input products.csv

``dedup``/``link`` run the real two-job workflow through
:class:`~repro.engine.ERPipeline` — ``--backend parallel`` fans the
map/reduce tasks out over a worker pool (``distributed`` over worker
processes connected by loopback sockets, with ``--task-timeout``
guarding against hung workers and ``--max-worker-respawns`` letting the
pool heal after losses),
``--input-format csv-shards`` streams the input through the
:mod:`repro.io` record-source layer (``columnar`` serves it from a
memory-mapped dataset written by ``pack``), ``--memory-budget`` bounds
shuffle buffering by spilling sorted run files to disk, ``--progress`` streams
task lifecycle events to stderr as they happen, and ``--save-result``
persists the full :class:`~repro.engine.PipelineResult` as versioned
JSON.  The ``--output`` CSV is a **streaming sink**: match rows are
written as reduce task units complete, not buffered until the end — so
a long run's output is inspectable while it executes, and local and
remote runs of the same pipeline produce byte-identical files.

``ingest`` is the incremental path: ``dedup --save-state DIR`` seeds a
persisted :class:`~repro.engine.CorpusState`, and each later ``ingest
--state DIR --input batch.csv`` matches only the *new* records against
it (delta runs — new-vs-old and new-vs-new pairs per block, never
old-vs-old again), appends the new matches to the state atomically,
and writes them to ``--output``.  The union of the seed's and every
ingest's output CSVs equals a full ``dedup`` of all records combined.
With ``--server`` the ingest runs against a *server-resident* state
instead (a daemon started with ``--state-root``; ``--state`` then
names the state, not a local directory).

``serve`` runs the persistent ER daemon (one shared worker pool, many
concurrent jobs over TCP — see :mod:`repro.serve`); ``submit`` ships a
dedup run to such a daemon and streams the matches back into
``--output`` exactly like a local ``dedup`` would.

``simulate`` uses the analytic planners + cluster simulator and
therefore handles DS2 scale in seconds — with ``--from-result`` it
replans straight from a previously saved result file, no re-execution;
``recommend`` profiles a file's blocking skew (streaming, with
``csv-shards``) and picks a strategy using the paper's findings.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path
from typing import Sequence

from .analysis.experiments import bdm_for_block_sizes, simulate_run
from .analysis.metrics import WorkloadStats
from .analysis.reporting import format_table
from .core.missing_keys import resolve_with_missing_keys
from .core.statistics import bdm_statistics, recommend_strategy
from .engine.backend import get_backend
from .engine.incremental import CorpusState
from .engine.persistence import STATE_FILE, PersistenceError, load_state, save_state
from .engine.pipeline import ERPipeline
from .datasets.generators import (
    DS1_PROFILE,
    DS2_PROFILE,
    generate_products,
    generate_publications,
)
from .datasets.loaders import load_entities_csv, save_entities_csv
from .datasets.skew import zipf_block_sizes
from .er.blocking import PrefixBlocking
from .er.matching import ThresholdMatcher
from .io.sources import CsvShardSource, RecordSource
from .mapreduce.types import make_partitions


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _add_pipeline_flags(sub: argparse.ArgumentParser, *, local: bool = True) -> None:
    """The flags ``dedup``, ``link``, ``ingest`` and ``submit`` share —
    strategy, blocking, matcher, task counts, kernel switch, --progress
    — declared once; :func:`_pipeline` reads them back.  ``local`` adds
    the local execution flags (--backend and what configures it);
    ``submit`` has none, the daemon's pool executes."""
    sub.add_argument("--strategy", choices=["basic", "blocksplit", "pairrange"],
                     default="blocksplit")
    sub.add_argument("--attribute", default="title")
    sub.add_argument("--prefix-length", type=int, default=3)
    sub.add_argument("--threshold", type=float, default=0.8)
    sub.add_argument("-m", "--map-tasks", type=int, default=4)
    sub.add_argument("-r", "--reduce-tasks", type=int, default=8)
    if local:
        sub.add_argument("--backend",
                         choices=["serial", "parallel", "distributed"],
                         default="serial",
                         help="execution backend (parallel = worker pool, "
                              "distributed = worker processes over sockets)")
        sub.add_argument("--workers", type=_positive_int, default=None,
                         help="pool size for --backend parallel "
                              "(default: all cores) or worker-process count "
                              "for --backend distributed (default: 2)")
        sub.add_argument("--task-timeout", type=_positive_float, default=None,
                         help="for --backend distributed: seconds one task "
                              "may run on a worker before the worker is "
                              "presumed hung, killed, and the task requeued")
        sub.add_argument("--max-worker-respawns", type=int, default=None,
                         metavar="N",
                         help="for --backend distributed: replacement "
                              "workers that may be spawned after losses "
                              "(default 0: the pool only shrinks)")
        sub.add_argument("--memory-budget", type=_positive_int, default=None,
                         help="max map-output records buffered in memory "
                              "during the shuffle; the rest spills through "
                              "sorted run files on disk (same results)")
    sub.add_argument("--progress", action="store_true",
                     help="stream task lifecycle events to stderr while "
                          "the pipeline runs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-er",
        description="Load-balanced MapReduce-style entity resolution "
        "(Kolb/Thor/Rahm, ICDE 2012 reproduction).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a synthetic dataset CSV")
    generate.add_argument("--kind", choices=["products", "publications"], default="products")
    generate.add_argument("--num", type=int, default=1_000)
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument("--output", required=True)

    pack = subparsers.add_parser(
        "pack",
        help="pack a CSV dataset into memory-mapped columnar shards",
    )
    pack.add_argument("--input", required=True, help="entity CSV to pack")
    pack.add_argument("--out", required=True, metavar="DIR",
                      help="output directory for the columnar dataset "
                           "(must not already hold one)")
    pack.add_argument("--shards", type=_positive_int, default=4,
                      help="shard count preserved in the packed dataset "
                           "(default: 4, matching the dedup -m default)")

    for name, helptext in (
        ("dedup", "deduplicate one CSV source"),
        ("link", "link two CSV sources (R x S)"),
    ):
        sub = subparsers.add_parser(name, help=helptext)
        if name == "dedup":
            sub.add_argument("--input", required=True)
            sub.add_argument("--allow-missing-keys", action="store_true",
                             help="apply the Section III Cartesian fallback "
                                  "for entities without a blocking key")
            sub.add_argument("--input-format",
                             choices=["memory", "csv-shards", "columnar"],
                             default="memory",
                             help="memory = load the CSV up front; "
                                  "csv-shards = stream it as --shards "
                                  "contiguous shards (RecordSource layer); "
                                  "columnar = --input is a memory-mapped "
                                  "dataset directory written by 'pack'")
            sub.add_argument("--shards", type=_positive_int, default=None,
                             help="shard count for --input-format csv-shards "
                                  "(default: --map-tasks); invalid with "
                                  "columnar, whose manifest fixes the shards")
        else:
            sub.add_argument("--input-r", required=True)
            sub.add_argument("--input-s", required=True)
            sub.add_argument("--input-format", choices=["memory", "columnar"],
                             default="memory",
                             help="memory = CSV inputs; columnar = both "
                                  "inputs are dataset directories written "
                                  "by 'pack'")
        sub.add_argument("--output", required=True)
        _add_pipeline_flags(sub)
        sub.add_argument("--save-result", metavar="PATH", default=None,
                         help="persist the full PipelineResult as versioned "
                              "JSON (replayable with 'simulate "
                              "--from-result PATH')")
        if name == "dedup":
            sub.add_argument("--save-state", metavar="DIR", default=None,
                             help="seed a persisted corpus state in DIR "
                                  "from this run, for later incremental "
                                  "'ingest --state DIR' batches (DIR must "
                                  "not already hold a state)")

    ingest = subparsers.add_parser(
        "ingest",
        help="incrementally match a batch of new records against a "
             "persisted corpus state (delta run; old records never "
             "re-compare)",
    )
    ingest.add_argument("--state", required=True, metavar="DIR",
                        help="state directory (seeded by 'dedup "
                             "--save-state' or a first ingest into an "
                             "empty directory); with --server: the name "
                             "of a server-resident state instead")
    ingest.add_argument("--input", required=True,
                        help="CSV of the *new* records only")
    ingest.add_argument("--input-format", choices=["memory", "columnar"],
                        default="memory",
                        help="memory = CSV input; columnar = --input is a "
                             "dataset directory written by 'pack'")
    ingest.add_argument("--output", required=True,
                        help="CSV of the newly found matches (the "
                             "cumulative set lives in the state)")
    ingest.add_argument("--server", default=None, metavar="HOST:PORT",
                        help="run the ingest on a remote ER server "
                             "started with --state-root (the state "
                             "stays server-resident; --backend is "
                             "ignored, the daemon's shared pool executes)")
    ingest.add_argument("--token", default=None,
                        help="service token for --server (default: the "
                             "REPRO_SERVE_TOKEN environment variable)")
    _add_pipeline_flags(ingest)

    serve = subparsers.add_parser(
        "serve",
        help="run the persistent ER service daemon (shared worker pool, "
             "concurrent jobs over TCP)",
    )
    from .serve.__main__ import add_server_arguments

    add_server_arguments(serve)

    submit = subparsers.add_parser(
        "submit",
        help="run a dedup on a remote ER server (started with 'serve')",
    )
    submit.add_argument("--server", required=True, metavar="HOST:PORT",
                        help="address printed by the daemon at startup")
    submit.add_argument("--token", default=None,
                        help="service token (default: the REPRO_SERVE_TOKEN "
                             "environment variable)")
    submit.add_argument("--input", required=True)
    submit.add_argument("--input-format", choices=["memory", "columnar"],
                        default="memory",
                        help="memory = CSV input; columnar = --input is a "
                             "dataset directory written by 'pack'")
    submit.add_argument("--output", required=True)
    _add_pipeline_flags(submit, local=False)

    simulate = subparsers.add_parser(
        "simulate", help="simulate strategies on a cluster (analytic planners)"
    )
    simulate.add_argument("--dataset", choices=["ds1", "ds2"], default="ds1")
    simulate.add_argument("--from-result", metavar="PATH", default=None,
                          help="replan from a persisted PipelineResult JSON "
                               "(written by dedup/link --save-result) instead "
                               "of a synthetic --dataset; nothing re-executes")
    simulate.add_argument("--nodes", type=int, default=10)
    simulate.add_argument("--map-tasks", type=int, default=None,
                          help="default: 2 x nodes")
    simulate.add_argument("--reduce-tasks", type=int, default=None,
                          help="default: 10 x nodes")
    simulate.add_argument(
        "--strategies", nargs="+",
        choices=["basic", "blocksplit", "pairrange"],
        default=["basic", "blocksplit", "pairrange"],
    )

    recommend = subparsers.add_parser(
        "recommend",
        help="analyse a CSV's blocking skew and recommend a strategy",
    )
    recommend.add_argument("--input", required=True)
    recommend.add_argument("--attribute", default="title")
    recommend.add_argument("--prefix-length", type=int, default=3)
    recommend.add_argument("-m", "--map-tasks", type=int, default=4)
    recommend.add_argument("-r", "--reduce-tasks", type=int, default=8)
    recommend.add_argument("--sorted-input", action="store_true",
                           help="the file is sorted by the blocking key")
    recommend.add_argument("--input-format", choices=["memory", "csv-shards"],
                           default="memory",
                           help="csv-shards computes the skew profile in one "
                                "streaming pass (no materialization)")
    recommend.add_argument("--shards", type=_positive_int, default=None,
                           help="shard count for --input-format csv-shards "
                                "(default: --map-tasks)")

    # Listed here for --help; parsing is delegated wholesale to
    # repro.devtools.lint (see main()), which owns its own flags.
    subparsers.add_parser(
        "lint",
        help="run the invariant lint suite (see docs/lint.md)",
        add_help=False,
    )
    return parser


def _backend(args: argparse.Namespace):
    """Resolve the --backend/--workers/--task-timeout flags to a backend."""
    if args.task_timeout is not None and args.backend != "distributed":
        raise SystemExit(
            f"repro-er {args.command}: error: --task-timeout requires "
            "--backend distributed"
        )
    if args.max_worker_respawns is not None and args.backend != "distributed":
        raise SystemExit(
            f"repro-er {args.command}: error: --max-worker-respawns "
            "requires --backend distributed"
        )
    if args.backend == "parallel":
        return get_backend("parallel", max_workers=args.workers)
    if args.backend == "distributed":
        return get_backend(
            "distributed",
            num_workers=args.workers,
            task_timeout=args.task_timeout,
            max_worker_respawns=args.max_worker_respawns or 0,
        )
    if args.workers is not None:
        raise SystemExit(
            f"repro-er {args.command}: error: --workers requires "
            "--backend parallel or distributed"
        )
    return get_backend(args.backend)


def _pipeline(args: argparse.Namespace, *, remote: bool = False) -> ERPipeline:
    """The :class:`ERPipeline` the shared flags describe.

    ``remote`` builds it for shipping to a daemon: only the resolved
    request travels and the server's shared pool executes it, so the
    local execution flags are not consulted (the batch-kernel flag
    rides along inside the request).
    """
    local = {} if remote else {
        "backend": _backend(args),
        "memory_budget": args.memory_budget,
    }
    return ERPipeline(
        args.strategy,
        PrefixBlocking(args.attribute, args.prefix_length),
        ThresholdMatcher(args.attribute, args.threshold),
        num_map_tasks=args.map_tasks,
        num_reduce_tasks=args.reduce_tasks,
        **local,
    )


def _progress_printer(stream):
    """An on_event callback that narrates the run, one line per event
    worth telling (job boundaries + reduce task completions)."""
    from .mapreduce.events import EventKind

    def on_event(event):
        label = event.stage or event.job
        if event.kind == EventKind.JOB_STARTED:
            print(
                f"[{label}] {event.job}: "
                f"{event.data['num_map_tasks']} map / "
                f"{event.data['num_reduce_tasks']} reduce tasks",
                file=stream,
            )
        elif event.kind == EventKind.TASK_FINISHED and event.phase == "reduce":
            comparisons = event.data.get("comparisons", 0)
            matches = event.data.get("matches", 0)
            detail = f", {comparisons:,} comparisons" if comparisons else ""
            if matches:
                detail += f", {matches} matches"
            print(
                f"[{label}] reduce task {event.task_index} done: "
                f"{event.data['input_records']} records{detail}",
                file=stream,
            )
        elif event.kind == EventKind.JOB_FINISHED:
            print(f"[{label}] {event.job} finished", file=stream)

    return on_event


def _stream_matches(pairs, path: str) -> int:
    """Drain an iterable of match pairs into a CSV as rows arrive.

    This is the streaming ``--output`` sink: fed an execution handle's
    ``iter_matches()`` (a local ``PipelineExecution`` or a remote
    ``RemoteExecution``), each match is written (and flushed) the
    moment its reduce task unit completes, so the file grows while the
    run executes instead of appearing at the end.  The row order is the
    deterministic stream order — identical across local backends and
    remote submission for the same pipeline.  Returns the number of
    matches written.
    """
    count = 0
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id1", "id2", "similarity"])
        for pair in pairs:
            writer.writerow([pair.id1, pair.id2, f"{pair.similarity:.6f}"])
            handle.flush()
            count += 1
    return count


def _run_pipeline(submit, args: argparse.Namespace, *run_args):
    """Submit, stream matches into --output, persist on request.

    ``submit`` is the pipeline's ``submit`` or ``submit_delta``.
    Returns ``(result, match_count)``; the output CSV is already
    written (streamed during execution) when this returns.
    """
    on_event = _progress_printer(sys.stderr) if args.progress else None
    execution = submit(*run_args, on_event=on_event)
    count = _stream_matches(execution.iter_matches(), args.output)
    result = execution.result()
    if getattr(args, "save_result", None):
        path = result.save(args.save_result)
        print(f"saved result to {path}")
    return result, count


def _run_on_server(args: argparse.Namespace, submit):
    """Run ``args.input`` on the ``--server`` daemon and stream the
    matches into --output.

    ``submit(client, pipeline, entities)`` picks the operation and
    returns its remote execution handle.  Returns ``(number of input
    entities, result, match count)``, or ``None`` after reporting a
    malformed address, a missing token, an unreachable server or a
    rejected submission on stderr — the caller exits with code 2.
    """
    from .serve.client import (
        ServeClient,
        ServeConnectionError,
        SubmissionRejected,
    )

    host, _, port_text = args.server.rpartition(":")
    if not host or not port_text.isdigit():
        print(f"error: --server must be HOST:PORT, got {args.server!r}",
              file=sys.stderr)
        return None
    entities = _load_entities(args, args.input)
    on_event = _progress_printer(sys.stderr) if args.progress else None
    try:
        with ServeClient(
            host, int(port_text), token=args.token, on_event=on_event
        ) as client:
            execution = submit(client, _pipeline(args, remote=True), entities)
            count = _stream_matches(execution.iter_matches(), args.output)
            return len(entities), execution.result(), count
    # ValueError: no token available.
    except (ValueError, ServeConnectionError, SubmissionRejected) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _ingest(args: argparse.Namespace, pipeline: ERPipeline, entities, state, directory):
    """Match ``entities`` against ``state`` as a delta run (streaming
    the new matches into --output) and commit the advanced state to
    ``directory``.  Returns ``(result, match_count, advanced state)``.
    """
    partitions = make_partitions(entities, args.map_tasks)
    result, count = _run_pipeline(pipeline.submit_delta, args, partitions, state)
    # The state only advances after the run fully succeeded (a raised
    # result above leaves the directory untouched), and the save itself
    # is write-then-rename with state.json as the commit point.
    advanced = state.advanced(result, partitions, pipeline.blocking)
    save_state(advanced, directory)
    return result, count, advanced


def _columnar_source(path: str, command: str, *, source: str | None = None):
    """Open a packed dataset, turning layout errors into pinned exits."""
    from .io.columnar import ColumnarShardSource

    try:
        return ColumnarShardSource(path, source=source)
    except ValueError as exc:
        raise SystemExit(f"repro-er {command}: error: {exc}") from None


def _load_entities(args: argparse.Namespace, path: str, *, source: str | None = None):
    """Materialize one entity input honouring --input-format
    (``memory`` = CSV, ``columnar`` = packed dataset directory)."""
    if getattr(args, "input_format", "memory") == "columnar":
        return list(
            _columnar_source(path, args.command, source=source).iter_records()
        )
    return load_entities_csv(path, source=source)


def cmd_pack(args: argparse.Namespace) -> int:
    from .io.columnar import write_columnar

    source = CsvShardSource(args.input, num_shards=args.shards)
    try:
        out = write_columnar(source, args.out)
    except (OSError, ValueError) as exc:
        print(f"repro-er pack: error: {exc}", file=sys.stderr)
        return 2
    sizes = source.shard_sizes()
    print(
        f"packed {sum(sizes)} entities into {len(sizes)} columnar "
        f"shard(s) at {out}"
    )
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "products":
        entities = generate_products(args.num, seed=args.seed)
    else:
        entities = generate_publications(args.num, seed=args.seed)
    save_entities_csv(entities, args.output)
    print(f"wrote {len(entities)} {args.kind} to {args.output}")
    return 0


def cmd_dedup(args: argparse.Namespace) -> int:
    if args.save_state is not None:
        if args.allow_missing_keys:
            print(
                "error: --save-state is not supported with "
                "--allow-missing-keys (the Cartesian fallback merges "
                "several pipeline runs; a corpus state tracks one)",
                file=sys.stderr,
            )
            return 2
        if (Path(args.save_state) / STATE_FILE).exists():
            print(
                f"error: {args.save_state} already holds a corpus state; "
                "append batches to it with 'repro-er ingest --state "
                f"{args.save_state}'",
                file=sys.stderr,
            )
            return 2
    if args.shards is not None and args.input_format != "csv-shards":
        raise SystemExit(
            f"repro-er {args.command}: error: --shards requires "
            "--input-format csv-shards (a columnar dataset's manifest "
            "fixes its shard count)"
        )
    if args.input_format == "csv-shards":
        shards = args.shards if args.shards is not None else args.map_tasks
        record_input: RecordSource | list = CsvShardSource(
            args.input, num_shards=shards
        )
        num_entities = sum(record_input.shard_sizes())
        input_note = f"{num_entities} entities ({shards} csv shards)"
    elif args.input_format == "columnar":
        record_input = _columnar_source(args.input, args.command)
        num_entities = sum(record_input.shard_sizes())
        input_note = (
            f"{num_entities} entities "
            f"({record_input.num_shards} columnar shards)"
        )
    else:
        record_input = load_entities_csv(args.input)
        num_entities = len(record_input)
        input_note = f"{num_entities} entities"
    if args.allow_missing_keys or args.save_state is not None:
        # Both need the records in memory: the fallback splits them by
        # key, seeding a state partitions them for the analytic advance.
        entities = (
            list(record_input.iter_records())
            if isinstance(record_input, RecordSource)
            else record_input
        )
    if args.allow_missing_keys:
        if args.save_result:
            print(
                "error: --save-result is not supported with "
                "--allow-missing-keys (the Cartesian fallback merges "
                "several pipeline runs into bare matches)",
                file=sys.stderr,
            )
            return 2
        if args.progress:
            print(
                "note: --progress has no effect with "
                "--allow-missing-keys (the fallback runs its internal "
                "pipelines without an event channel)",
                file=sys.stderr,
            )
        matches = resolve_with_missing_keys(
            entities,
            PrefixBlocking(args.attribute, args.prefix_length),
            strategy=args.strategy,
            matcher_factory=lambda: ThresholdMatcher(args.attribute, args.threshold),
            num_map_tasks=args.map_tasks,
            num_reduce_tasks=args.reduce_tasks,
            backend=_backend(args),
            memory_budget=args.memory_budget,
        )
        print(f"{input_note}, {len(matches)} duplicate pairs")
        # No execution handle to stream from: the fallback merges
        # several runs into bare matches.
        _stream_matches(matches, args.output)
    else:
        pipeline = _pipeline(args)
        state = None
        if args.save_state is not None:
            # Seeding is an ingest into the empty corpus — the same
            # computation as a plain full run of the records.
            result, count, state = _ingest(
                args, pipeline, entities, CorpusState.empty(), args.save_state
            )
        else:
            result, count = _run_pipeline(pipeline.submit, args, record_input)
        stats = WorkloadStats.from_workloads(result.reduce_comparisons())
        print(
            f"{input_note}, {result.total_comparisons():,} comparisons "
            f"(imbalance {stats.imbalance:.2f}), {count} duplicate pairs"
        )
        if state is not None:
            print(
                f"seeded corpus state in {args.save_state} "
                f"({state.num_entities} keyed entities, "
                f"{state.num_matches} matches)"
            )
    print(f"wrote matches to {args.output}")
    return 0


def cmd_link(args: argparse.Namespace) -> int:
    if args.strategy == "basic":
        print("error: two-source matching requires blocksplit or pairrange",
              file=sys.stderr)
        return 2
    r_entities = _load_entities(args, args.input_r, source="R")
    s_entities = _load_entities(args, args.input_s, source="S")
    # Each source gets half of --map-tasks partitions (the pipeline's
    # two-source default).
    result, count = _run_pipeline(
        _pipeline(args).submit, args, r_entities, s_entities
    )
    print(
        f"|R|={len(r_entities)}, |S|={len(s_entities)}, "
        f"{result.total_comparisons():,} cross-source comparisons, "
        f"{count} links"
    )
    print(f"wrote links to {args.output}")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    if args.server is not None:
        # Remote ingest: the state lives under the daemon's
        # --state-root and --state names it; the local backend flags
        # are irrelevant (the server's shared pool executes).
        served = _run_on_server(
            args,
            lambda client, pipeline, entities: client.submit_delta(
                pipeline, entities, args.state
            ),
        )
        if served is None:
            return 2
        num_entities, result, count = served
        print(
            f"ingested {num_entities} new entities into state "
            f"{args.state!r} on {args.server}: "
            f"{result.total_comparisons():,} delta comparisons, "
            f"{count} new duplicate pairs"
        )
        print(f"wrote new matches to {args.output}")
        return 0

    entities = _load_entities(args, args.input)
    try:
        if (Path(args.state) / STATE_FILE).exists():
            state = load_state(args.state)
        else:
            state = CorpusState.empty()
    except PersistenceError as exc:
        print(f"error: cannot load state from {args.state}: {exc}",
              file=sys.stderr)
        return 2
    result, count, advanced = _ingest(
        args, _pipeline(args), entities, state, args.state
    )
    print(
        f"ingested {len(entities)} new entities: "
        f"{result.total_comparisons():,} delta comparisons, "
        f"{count} new duplicate pairs"
    )
    print(
        f"state {args.state}: {advanced.num_entities} entities, "
        f"{advanced.num_matches} matches over {advanced.num_ingests} "
        f"ingest(s), {advanced.comparisons:,} cumulative comparisons"
    )
    print(f"wrote new matches to {args.output}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .serve.__main__ import run_server, server_from_args

    return run_server(server_from_args(args))


def cmd_submit(args: argparse.Namespace) -> int:
    served = _run_on_server(
        args, lambda client, pipeline, entities: client.submit(pipeline, entities)
    )
    if served is None:
        return 2
    num_entities, result, count = served
    stats = WorkloadStats.from_workloads(result.reduce_comparisons())
    print(
        f"{num_entities} entities, {result.total_comparisons():,} "
        f"comparisons (imbalance {stats.imbalance:.2f}), "
        f"{count} duplicate pairs (served by {args.server})"
    )
    print(f"wrote matches to {args.output}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    r = args.reduce_tasks if args.reduce_tasks is not None else 10 * args.nodes
    if args.from_result is not None:
        # Replan from a persisted run: the saved BDM is all the
        # planners need, so no data is loaded and nothing re-executes.
        from .analysis.experiments import bdm_from_result

        try:
            bdm = bdm_from_result(args.from_result)
        except FileNotFoundError:
            print(f"error: no such result file: {args.from_result}",
                  file=sys.stderr)
            return 2
        except (PersistenceError, ValueError) as exc:
            print(f"error: cannot replan from {args.from_result}: {exc}",
                  file=sys.stderr)
            return 2
        m = bdm.num_partitions
        source_note = args.from_result
    else:
        profile = DS1_PROFILE if args.dataset == "ds1" else DS2_PROFILE
        sizes = zipf_block_sizes(
            profile.num_entities, profile.num_blocks, profile.zipf_exponent
        )
        m = args.map_tasks if args.map_tasks is not None else 2 * args.nodes
        bdm = bdm_for_block_sizes(sizes, m)
        source_note = profile.name
    rows = []
    for name in args.strategies:
        run = simulate_run(name, bdm, num_nodes=args.nodes, num_reduce_tasks=r)
        rows.append(
            [
                name,
                round(run.execution_time, 1),
                round(run.reduce_stats.imbalance, 2),
                run.map_output_kv,
            ]
        )
    print(
        format_table(
            ["strategy", "simulated time [s]", "imbalance", "map output KV"],
            rows,
            title=(
                f"{source_note}: n={args.nodes}, m={m}, r={r}, "
                f"{bdm.pairs():,} pairs"
            ),
        )
    )
    return 0


def cmd_recommend(args: argparse.Namespace) -> int:
    from .core.bdm import analytic_bdm

    blocking = PrefixBlocking(args.attribute, args.prefix_length)
    if args.input_format == "csv-shards":
        shards = args.shards if args.shards is not None else args.map_tasks
        source = CsvShardSource(args.input, num_shards=shards)
        # One streaming pass yields the shard-level block counts the
        # whole skew profile (and strategy planning) derives from.
        bdm = source.block_statistics(blocking).to_bdm()
    else:
        entities = load_entities_csv(args.input)
        bdm = analytic_bdm(make_partitions(entities, args.map_tasks), blocking)
    stats = bdm_statistics(bdm)
    rows = [[name, round(value, 4)] for name, value in stats.as_dict().items()]
    print(format_table(["statistic", "value"], rows,
                       title=f"Blocking skew profile ({args.input})"))
    recommendation = recommend_strategy(
        bdm, args.reduce_tasks, input_sorted_by_key=args.sorted_input
    )
    print(f"\nrecommended strategy: {recommendation.strategy}")
    for reason in recommendation.reasons:
        print(f"  - {reason}")
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "pack": cmd_pack,
    "dedup": cmd_dedup,
    "link": cmd_link,
    "ingest": cmd_ingest,
    "serve": cmd_serve,
    "submit": cmd_submit,
    "simulate": cmd_simulate,
    "recommend": cmd_recommend,
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["lint"]:
        # The lint CLI owns its full flag surface (--json, --baseline,
        # --select, ...); hand everything after "lint" straight to it.
        from .devtools.lint import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
