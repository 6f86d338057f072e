"""An in-process, deterministic MapReduce runtime.

This package is the substrate the paper's algorithms run on.  It
implements the full MR contract from Section II of the paper —
``map``/``reduce`` user functions plus the ``part``/``comp``/``group``
routing functions over composite keys — together with Hadoop-style
counters, combiners, and side outputs chained through an in-memory
distributed file system.
"""

from .. import _lazy

#: Public name → the module that defines it, imported on first access.
_EXPORTS = {
    "KeyCodec": ".types",
    "PackedProjection": ".types",
    "shuffle_bucket": ".shuffle",
    "group_presorted_bucket": ".shuffle",
    "group_presorted_entries": ".shuffle",
    "EventChannel": ".events",
    "EventKind": ".events",
    "ExecutionEvent": ".events",
    "PipelineCancelled": ".events",
    "Counters": ".counters",
    "StandardCounter": ".counters",
    "DfsError": ".dfs",
    "DistributedFileSystem": ".dfs",
    "ExternalShuffle": ".external_shuffle",
    "Emitter": ".job",
    "JobConfig": ".job",
    "LambdaJob": ".job",
    "MapReduceJob": ".job",
    "TaskContext": ".job",
    "stable_hash": ".job",
    "JobResult": ".runtime",
    "LocalRuntime": ".runtime",
    "MapTaskResult": ".runtime",
    "ReduceTaskResult": ".runtime",
    "group_bucket": ".shuffle",
    "partition_map_output": ".shuffle",
    "shuffle": ".shuffle",
    "sort_bucket": ".shuffle",
    "KeyValue": ".types",
    "Partition": ".types",
    "ReduceGroup": ".types",
    "make_partitions": ".types",
    "shard_bounds": ".types",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)
