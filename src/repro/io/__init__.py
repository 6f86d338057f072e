"""Streaming input layer: sharded record sources and their statistics.

This package decouples *input representation* from *execution backend*
(see ``docs/architecture.md``): a :class:`RecordSource` presents any
input — an in-memory list, CSV shards on disk, memory-mapped columnar
datasets (``repro-er pack``), or arbitrary generators —
as an ordered sequence of shards, and reports per-shard block counts
in one streaming pass.  ``ERPipeline.run()`` accepts a source wherever
it accepts an entity list; executing backends materialize shards one at
a time, while the planned backend consumes only the streamed statistics
and never materializes records at all.
"""

from .. import _lazy

#: Public name → the module that defines it, imported on first access.
_EXPORTS = {
    "ColumnarShardSource": ".columnar",
    "CsvShardSource": ".sources",
    "GeneratorSource": ".sources",
    "InMemorySource": ".sources",
    "RecordSource": ".sources",
    "ShardBlockStats": ".stats",
    "shard_bounds": ".sources",
    "write_columnar": ".columnar",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)
