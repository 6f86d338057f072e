"""Dataset substrate: synthetic DS1/DS2 stand-ins, skew models, partitioning."""

from .. import _lazy

#: Public name → the module that defines it, imported on first access.
_EXPORTS = {
    "CorruptedDataset": ".corruption",
    "CorruptionConfig": ".corruption",
    "corrupt_dataset": ".corruption",
    "DS1_PROFILE": ".generators",
    "DS2_PROFILE": ".generators",
    "DatasetProfile": ".generators",
    "ProductGenerator": ".generators",
    "PublicationGenerator": ".generators",
    "generate_products": ".generators",
    "generate_publications": ".generators",
    "iter_entities_csv": ".loaders",
    "iter_entity_batches": ".loaders",
    "load_entities_csv": ".loaders",
    "save_entities_csv": ".loaders",
    "distribute_block_sizes": ".partitioning",
    "order_entities": ".partitioning",
    "partition_entities": ".partitioning",
    "apportion": ".skew",
    "exponential_block_sizes": ".skew",
    "largest_block_share": ".skew",
    "pair_count": ".skew",
    "zipf_block_sizes": ".skew",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)
