"""KeyCodec: packed ints must be indistinguishable from tuple keys.

The codec's whole contract is *order preservation* — packing bounded
int fields most-significant-first makes int comparison equal
lexicographic tuple comparison — plus exact round-tripping and loud
failure on out-of-range fields.  On top of the unit properties, the
job-level property test proves, over the keys each strategy job's map
emits, that the job's packed ``sort_key`` orders them exactly like the
key tuples and its packed ``group_key`` groups them exactly like the
key fields it projects.
"""

from __future__ import annotations

import random

import pytest

from repro.core.bdm import analytic_bdm_from_block_sizes
from repro.core.blocksplit import BlockSplitJob
from repro.core.delta import DeltaBDM, DeltaBlockSplitJob, DeltaPairRangeJob
from repro.core.pairrange import PairRangeJob
from repro.core.two_source import DualBlockSplitJob, DualPairRangeJob, DualSourceBDM
from repro.er.matching import ThresholdMatcher
from repro.mapreduce.types import KeyCodec, KeyValue


class TestKeyCodecUnit:
    def test_round_trip(self):
        codec = KeyCodec(10, 300, 7)
        rng = random.Random(1)
        for _ in range(200):
            fields = (rng.randrange(10), rng.randrange(300), rng.randrange(7))
            assert codec.decode(codec.encode(fields)) == fields

    def test_order_matches_tuple_order(self):
        codec = KeyCodec(6, 40, 12, 2)
        rng = random.Random(2)
        tuples = [
            (rng.randrange(6), rng.randrange(40), rng.randrange(12), rng.randrange(2))
            for _ in range(300)
        ]
        packed = [codec.encode(t) for t in tuples]
        assert sorted(range(300), key=lambda i: packed[i]) == sorted(
            range(300), key=lambda i: tuples[i]
        )

    def test_equality_is_bijective(self):
        codec = KeyCodec(5, 5)
        seen = {codec.encode((a, b)) for a in range(5) for b in range(5)}
        assert len(seen) == 25

    def test_rejects_out_of_range(self):
        codec = KeyCodec(4, 4)
        with pytest.raises(ValueError, match="outside"):
            codec.encode((4, 0))
        with pytest.raises(ValueError, match="outside"):
            codec.encode((0, -1))

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError, match="expected 2 fields"):
            KeyCodec(4, 4).encode((1, 2, 3))

    def test_rejects_bad_limits(self):
        with pytest.raises(ValueError, match=">= 1"):
            KeyCodec(0)
        with pytest.raises(ValueError, match="at least one"):
            KeyCodec()

    def test_decode_rejects_out_of_range(self):
        codec = KeyCodec(4, 4)
        with pytest.raises(ValueError, match="codec range"):
            codec.decode(1 << codec.total_bits)

    def test_limit_one_fields(self):
        codec = KeyCodec(1, 8, 1)
        assert codec.decode(codec.encode((0, 5, 0))) == (0, 5, 0)

    def test_field_maps_translate_and_order(self):
        """Non-int fields (the dual jobs' source tag) encode via ranks."""
        codec = KeyCodec(4, 2, field_maps={1: {"R": 0, "S": 1}})
        assert codec.encode((2, "R")) < codec.encode((2, "S"))
        assert codec.encode((2, "S")) < codec.encode((3, "R"))
        assert codec.decode(codec.encode((3, "S"))) == (3, 1)
        with pytest.raises(ValueError, match="outside"):
            codec.encode((0, "X"))

    def test_field_maps_survive_pickling(self):
        import pickle

        codec = KeyCodec(4, 2, field_maps={1: {"R": 0, "S": 1}})
        clone = pickle.loads(pickle.dumps(codec))
        assert clone.encode((3, "S")) == codec.encode((3, "S"))


def _synthetic_map_outputs(job, entities_per_task=40, seed=9):
    """Map outputs for a strategy job over a synthetic annotated input.

    Runs the job's own map function per partition, so the emitted keys
    are exactly what the shuffle sees in a real run.
    """
    from repro.er.entity import Entity
    from repro.mapreduce.job import JobConfig, TaskContext

    rng = random.Random(seed)
    bdm = job.bdm
    config = JobConfig(num_map_tasks=bdm.num_partitions, num_reduce_tasks=job.num_reduce_tasks)
    outputs = []
    eid = 0
    for p in range(bdm.num_partitions):
        context = TaskContext(config, partition_index=p)
        job.configure_map(context)
        task_out: list[KeyValue] = []

        def emit(key, value, _out=task_out):
            _out.append(KeyValue(key, value))

        for k in range(bdm.num_blocks):
            for _ in range(bdm.size(k, p)):
                entity = Entity(f"e{eid}", {"title": f"t{rng.randrange(20)}"})
                eid += 1
                job.map(bdm.key_of(k), entity, emit, context)
        outputs.append(task_out)
    return outputs


_SIZES = [[7, 3, 0, 2], [1, 1, 1, 0], [12, 9, 4, 6], [0, 0, 2, 1], [5, 5, 5, 5]]


def _full_key(key):
    return tuple(key)


def _range_and_block(key):
    return (key.range_index, key.block)


def _block_and_task(key):
    return (key.block, key.i, key.j)


_STRATEGY_JOBS = {
    BlockSplitJob: (lambda bdm: bdm, _full_key),
    PairRangeJob: (lambda bdm: bdm, _range_and_block),
    DualBlockSplitJob: (
        lambda bdm: DualSourceBDM(bdm, ["R", "S", "R", "S"]), _block_and_task
    ),
    DualPairRangeJob: (
        lambda bdm: DualSourceBDM(bdm, ["R", "S", "R", "S"]), _range_and_block
    ),
    DeltaBlockSplitJob: (lambda bdm: DeltaBDM(bdm, 2), _full_key),
    DeltaPairRangeJob: (lambda bdm: DeltaBDM(bdm, 2), _range_and_block),
}


@pytest.mark.parametrize("job_cls", list(_STRATEGY_JOBS), ids=lambda c: c.__name__)
def test_shuffle_groups_identical_packed_vs_tuple(job_cls):
    """Packed sort / group keys agree with the tuple keys they encode.

    Over the keys the job's map emits, ``sort_key`` order must be the
    key tuples' order (the shuffle sorts on it), and two keys share a
    ``group_key`` exactly when they share the key fields the job groups
    on — so the shuffle forms the groups tuple keys would.
    """
    wrap, group_fields = _STRATEGY_JOBS[job_cls]
    job = job_cls(wrap(analytic_bdm_from_block_sizes(_SIZES)), ThresholdMatcher(), 4)
    keys = sorted(
        {kv.key for out in _synthetic_map_outputs(job) for kv in out}
    )
    assert len(keys) > 10
    sort_keys = [job.sort_key(key) for key in keys]
    assert all(type(k) is int for k in sort_keys)
    assert sort_keys == sorted(sort_keys)
    assert len(set(sort_keys)) == len(keys)
    group_keys = [job.group_key(key) for key in keys]
    for a, ga in zip(keys, group_keys):
        for b, gb in zip(keys, group_keys):
            assert (ga == gb) == (group_fields(a) == group_fields(b)), (a, b)
