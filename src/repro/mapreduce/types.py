"""Basic value types for the in-process MapReduce runtime.

The runtime models data as ``(key, value)`` pairs exactly like Hadoop.
Keys are ordinary Python objects; composite keys are tuples.  The paper's
strategies rely on *composite* keys whose components drive partitioning,
sorting and grouping independently (Section II of the paper), so the
runtime never assumes anything about key structure beyond comparability
of the sort projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generic, Iterator, Sequence, TypeVar

K = TypeVar("K")
V = TypeVar("V")


class KeyCodec:
    """Packs a tuple of bounded non-negative ints into one sortable int.

    Each field ``f_i`` must satisfy ``0 <= f_i < limits[i]``; fields are
    laid out most-significant-first, so comparing two packed ints is
    exactly the lexicographic comparison of the original tuples — but a
    single C-level int compare instead of a tuple walk.  The strategy
    jobs use codecs for their *sort* and *group* projections: the
    shuffle then sorts runs of packed ints (cheaper compares, and far
    smaller pickles in the spill files of
    :class:`~repro.mapreduce.external_shuffle.ExternalShuffle`), while
    the composite :class:`~repro.core.keys` named tuples still flow to
    the reduce functions untouched.

    ``encode`` validates every field against its limit — an
    out-of-range field would silently corrupt the sort order otherwise.
    It is specialised at construction time into a generated flat
    function (the :func:`collections.namedtuple` technique): encoding
    runs per map-output record, so the generic shift loop would cost
    more than the tuple comparisons it replaces.

    ``field_maps`` translates non-int fields in place: a mapping from
    field index to a value → rank dict, e.g. ``{4: {"R": 0, "S": 1}}``
    for the two-source jobs' source tag.  Ranks must follow the
    original values' sort order for the packed order to stay
    lexicographic.  Unknown values fail the range check and raise.
    """

    __slots__ = (
        "limits", "widths", "shifts", "total_bits", "field_maps", "encode"
    )

    def __init__(self, *limits: int, field_maps: dict[int, dict] | None = None):
        if not limits:
            raise ValueError("KeyCodec needs at least one field limit")
        for limit in limits:
            if limit < 1:
                raise ValueError(f"field limits must be >= 1, got {limit}")
        self.field_maps = dict(field_maps or {})
        for index in self.field_maps:
            if not 0 <= index < len(limits):
                raise ValueError(f"field_maps index {index} outside fields")
        self.limits = tuple(limits)
        self.widths = tuple(max(1, (limit - 1).bit_length()) for limit in limits)
        shifts = []
        shift = 0
        for width in reversed(self.widths):
            shifts.append(shift)
            shift += width
        self.shifts = tuple(reversed(shifts))
        self.total_bits = shift
        #: encode(fields) -> int — packs one field per limit, in order.
        self.encode = self._build_encoder()

    def _build_encoder(self):
        """Generate the specialised ``encode`` for this field layout."""
        n = len(self.limits)
        names = [f"f{i}" for i in range(n)]
        namespace: dict[str, Any] = {}
        loads = [f"    {', '.join(names)}{',' if n == 1 else ''} = fields"]
        for i, name in enumerate(names):
            if i in self.field_maps:
                namespace[f"_map{i}"] = self.field_maps[i]
                # Unknown values become -1 and fail the range check.
                loads.append(f"    {name} = _map{i}.get({name}, -1)")
        checks = " or ".join(
            f"not 0 <= {name} < {limit}"
            for name, limit in zip(names, self.limits)
        )
        terms = " | ".join(
            f"({name} << {shift})" if shift else name
            for name, shift in zip(names, self.shifts)
        )
        source = (
            f"def encode(fields):\n"
            f"    if len(fields) != {n}:\n"
            f"        raise ValueError(\n"
            f"            f'expected {n} fields, got {{len(fields)}}')\n"
            + "\n".join(loads) + "\n"
            f"    if {checks}:\n"
            f"        raise ValueError(\n"
            f"            f'fields {{fields!r}} outside limits {self.limits}')\n"
            f"    return {terms}\n"
        )
        exec(source, namespace)  # noqa: S102 — generated from ints only
        return namespace["encode"]

    def decode(self, packed: int) -> tuple[int, ...]:
        """Inverse of :meth:`encode` (mapped fields come back as ranks)."""
        if packed < 0 or packed >= (1 << self.total_bits):
            raise ValueError(f"packed value {packed} outside codec range")
        fields = []
        for width in reversed(self.widths):
            fields.append(packed & ((1 << width) - 1))
            packed >>= width
        return tuple(reversed(fields))

    def __reduce__(self):
        # The generated encoder is not picklable; rebuild from limits
        # (jobs carrying codecs ship to worker processes).
        return (_rebuild_key_codec, (self.limits, self.field_maps))

    def __repr__(self) -> str:
        return f"KeyCodec{self.limits}"


def _rebuild_key_codec(limits: tuple[int, ...], field_maps: dict) -> KeyCodec:
    """Unpickle helper: regenerate the codec (and its encoder)."""
    return KeyCodec(*limits, field_maps=field_maps)


@dataclass(frozen=True, slots=True)
class PackedProjection:
    """A job's packed sort projection and how grouping derives from it.

    ``codec.encode(key)`` is the sort projection.  Because every
    strategy's group projection is a sub-span of its sort fields, the
    group projection is recovered from the *same* packed int as
    ``(packed >> group_shift) & group_mask`` — so the combined
    sort-and-group pass (:func:`~repro.mapreduce.shuffle.shuffle_bucket`)
    encodes each key exactly once and derives group boundaries with two
    int ops per record, no further Python calls.

    ``MapReduceJob.sort_key``/``group_key`` read the advertised
    projection directly, so the method-based paths (combiner, tuple
    fallbacks) are consistent with it by construction — jobs only
    override ``group_key`` to supply their *unpacked* fallback
    projection.
    """

    codec: KeyCodec
    group_shift: int
    group_mask: int

    @classmethod
    def full_key(cls, codec: KeyCodec) -> "PackedProjection":
        """Grouping on the entire sort key (e.g. BlockSplit)."""
        return cls.span(codec, 0, len(codec.widths))

    @classmethod
    def prefix(cls, codec: KeyCodec, num_fields: int) -> "PackedProjection":
        """Grouping on the first ``num_fields`` sort fields."""
        return cls.span(codec, 0, num_fields)

    @classmethod
    def span(cls, codec: KeyCodec, start: int, stop: int) -> "PackedProjection":
        """Grouping on the contiguous sort fields ``[start, stop)``.

        Covers mid-key group projections like two-source BlockSplit's
        ``(block, i, j)`` out of ``(reduce, block, i, j, source)``:
        shift away the fields after ``stop``, mask away those before
        ``start``.
        """
        if not 0 <= start < stop <= len(codec.widths):
            raise ValueError(
                f"span [{start}, {stop}) outside codec {codec.limits}"
            )
        shift = sum(codec.widths[stop:])
        return cls(codec, shift, (1 << sum(codec.widths[start:stop])) - 1)


@dataclass(frozen=True, slots=True)
class KeyValue(Generic[K, V]):
    """A single ``(key, value)`` record flowing through a job."""

    key: K
    value: V

    def as_tuple(self) -> tuple[K, V]:
        return (self.key, self.value)

    def __iter__(self) -> Iterator[Any]:
        # Allows ``key, value = kv`` unpacking at call sites.
        return iter((self.key, self.value))


@dataclass(frozen=True, slots=True)
class ReduceGroup(Generic[K, V]):
    """One reduce-function invocation: a group key and its value list.

    ``key`` is the full composite key of the *first* record in the group
    (Hadoop semantics: the reduce function sees one representative key,
    while grouping may have used only a projection of it).
    """

    key: K
    values: tuple[V, ...]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[V]:
        # Iterating the group is iterating its values — callers need not
        # touch (or copy) the ``values`` tuple for a single pass.
        return iter(self.values)


class Partition(Sequence[KeyValue]):
    """An ordered, immutable input partition (one map task's input).

    The paper's workflow requires both MR jobs to read *the same
    partitioning* of the input (Section III-A); modelling partitions as
    first-class objects with a stable ``index`` makes that contract
    explicit and testable.
    """

    __slots__ = ("_records", "index", "name")

    def __init__(self, records: Sequence[KeyValue], index: int, name: str | None = None):
        if index < 0:
            raise ValueError(f"partition index must be >= 0, got {index}")
        self._records = tuple(records)
        self.index = index
        self.name = name if name is not None else f"part-{index:05d}"

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[Any, Any]], index: int, name: str | None = None) -> "Partition":
        return cls([KeyValue(k, v) for k, v in pairs], index, name)

    @classmethod
    def from_values(cls, values: Sequence[Any], index: int, name: str | None = None) -> "Partition":
        """Build a partition of ``(None, value)`` records (offset keys unused)."""
        return cls([KeyValue(None, v) for v in values], index, name)

    def __getitem__(self, i):  # type: ignore[override]
        return self._records[i]

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[KeyValue]:
        return iter(self._records)

    def __repr__(self) -> str:
        return f"Partition(index={self.index}, records={len(self._records)})"


def shard_bounds(num_records: int, num_shards: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` ranges splitting ``num_records`` into
    ``num_shards`` near-equal shards (sizes differ by at most one).

    This is *the* splitting rule: :func:`make_partitions` and the
    streaming sources in :mod:`repro.io` both build on it, which is what
    makes sharded and in-memory inputs byte-identical.
    """
    if num_shards <= 0:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    base, extra = divmod(num_records, num_shards)
    bounds: list[tuple[int, int]] = []
    start = 0
    for index in range(num_shards):
        size = base + (1 if index < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def make_partitions(values: Sequence[Any], num_partitions: int) -> list[Partition]:
    """Split ``values`` into ``num_partitions`` contiguous, near-equal partitions.

    Mirrors how a DFS splits an input file into fixed-size splits: record
    order is preserved and partition sizes differ by at most one (the
    :func:`shard_bounds` rule).
    """
    return [
        Partition.from_values(values[start:stop], index=i)
        for i, (start, stop) in enumerate(shard_bounds(len(values), num_partitions))
    ]
