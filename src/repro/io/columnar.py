"""Columnar on-disk shards, memory-mapped for fast loading.

The CSV shard layout parses every row on every pass.  This module
stores the same datasets *by column* in a fixed binary layout so a
:class:`ColumnarShardSource` can serve shards straight out of
``mmap``-ed files — no per-row parsing, no full-file read up front.

Layout (version 1)
------------------

A columnar dataset is a directory::

    dataset/
        manifest.json   # format tag, version, column names, shard sizes
        0.col           # the _id column
        1.col           # the _source column
        2.col ...       # one file per attribute, in manifest order

Every column file holds one string per record, all shards concatenated
in shard order:

* bytes ``0..8`` — record count ``n`` as a little-endian ``u64``;
* bytes ``8..8+(n+1)*8`` — ``n+1`` little-endian ``u64`` offsets into
  the payload, measured in *code points* (``offsets[0] == 0``,
  non-decreasing; value ``i`` spans ``offsets[i]..offsets[i+1]``);
* the rest — the payload: every value concatenated, encoded as
  UTF-32-LE (one fixed-width ``u32`` per code point).

Fixed-width code points are what make the format kernel-friendly: with
numpy available the payload region is viewable as a ``uint32`` array
without copying, and the offsets region as a ``uint64`` array, so
lengths and slices come straight off the map.  The stdlib path wraps
the same bytes in :mod:`array` arrays instead.

Null semantics mirror the CSV round-trip exactly: a missing attribute
(``None``) is stored as the empty string, and an empty string loads
back as ``None`` — so packing a CSV dataset and reading it back yields
byte-identical entities to :class:`~repro.io.CsvShardSource`.  The
reserved ``_id``/``_source`` columns are stored verbatim.

Sources built on this layout pickle safely (the serve layer ships
sources to workers): the memory maps are dropped on ``__getstate__``
and reopened lazily on first use in the receiving process.
"""

from __future__ import annotations

import json
import mmap
import struct
import sys
from array import array
from itertools import islice
from operator import le
from pathlib import Path
from typing import Iterator, Sequence

from ..er.batch_kernel import active_numpy
from ..er.entity import Entity
from .sources import RecordSource

MANIFEST_NAME = "manifest.json"
FORMAT_TAG = "repro-er/columnar"
FORMAT_VERSION = 1

_ID_COLUMN = "_id"
_SOURCE_COLUMN = "_source"
_HEADER = struct.Struct("<Q")


def write_columnar(
    source: RecordSource | Sequence[Entity], out_dir: str | Path
) -> Path:
    """Pack a record source (or entity list) into a columnar dataset.

    Shard boundaries are preserved: shard ``i`` of the written dataset
    holds exactly the records of shard ``i`` of ``source`` (an entity
    list becomes a single shard).  The attribute column set is the
    union across entities in first-appearance order, as in
    :func:`~repro.datasets.loaders.save_entities_csv`; missing
    attributes are stored as empty strings (→ ``None`` on read).

    Refuses to overwrite an existing columnar dataset.  Returns the
    dataset directory.
    """
    out_dir = Path(out_dir)
    manifest_path = out_dir / MANIFEST_NAME
    if manifest_path.exists():
        raise ValueError(
            f"{out_dir} already holds a columnar dataset "
            "(remove it first to re-pack)"
        )
    if isinstance(source, RecordSource):
        shard_iter = source.iter_shards()
    else:
        shard_iter = iter([iter(source)])

    # One streaming pass: per-column value lists, new columns backfilled
    # with None for the rows seen before their first appearance.
    ids: list[str] = []
    sources: list[str] = []
    attr_columns: dict[str, list[str | None]] = {}
    shard_sizes: list[int] = []
    for shard in shard_iter:
        count = 0
        for entity in shard:
            for name in entity.attributes:
                if name in (_ID_COLUMN, _SOURCE_COLUMN):
                    raise ValueError(
                        f"attribute names {_ID_COLUMN!r}/{_SOURCE_COLUMN!r} "
                        "are reserved"
                    )
                if name not in attr_columns:
                    attr_columns[name] = [None] * len(ids)
            ids.append(entity.entity_id)
            sources.append(entity.source)
            for name, values in attr_columns.items():
                value = entity.get(name)
                values.append(None if value is None else str(value))
            count += 1
        shard_sizes.append(count)
    if not ids:
        raise ValueError("cannot pack an empty dataset")

    out_dir.mkdir(parents=True, exist_ok=True)
    columns = [_ID_COLUMN, _SOURCE_COLUMN, *attr_columns]
    for index, name in enumerate(columns):
        if name == _ID_COLUMN:
            values: Sequence[str | None] = ids
        elif name == _SOURCE_COLUMN:
            values = sources
        else:
            values = attr_columns[name]
        _write_column(out_dir / f"{index}.col", values)
    manifest = {
        "format": FORMAT_TAG,
        "version": FORMAT_VERSION,
        "records": len(ids),
        "columns": columns,
        "shards": shard_sizes,
    }
    manifest_path.write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )
    return out_dir


def _write_column(path: Path, values: Sequence[str | None]) -> None:
    offsets = array("Q", [0] * (len(values) + 1))
    total = 0
    for i, value in enumerate(values):
        if value:
            total += len(value)
        offsets[i + 1] = total
    if sys.byteorder == "big":
        offsets = offsets[:]
        offsets.byteswap()
    with path.open("wb") as handle:
        handle.write(_HEADER.pack(len(values)))
        handle.write(offsets.tobytes())
        for value in values:
            if value:
                handle.write(value.encode("utf-32-le"))


class _Column:
    """One mmap-ed column file: lazy offsets + payload views."""

    __slots__ = ("_file", "_map", "_offsets", "_payload", "count")

    def __init__(self, path: Path, expected_count: int):
        self._file = path.open("rb")
        try:
            self._map = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:
            self._file.close()
            raise ValueError(f"{path}: truncated or corrupt column file") from None
        self._offsets = None
        self._payload = None
        # Validate through transient reads only (struct.unpack_from
        # holds no lasting buffer export), so a corrupt file can be
        # rejected — and the map closed — without dangling views.
        size = len(self._map)
        n = offsets_end = 0
        ok = size >= _HEADER.size
        if ok:
            (n,) = _HEADER.unpack_from(self._map, 0)
            offsets_end = _HEADER.size + (n + 1) * 8
            ok = n == expected_count and size >= offsets_end
        if ok:
            (first,) = struct.unpack_from("<Q", self._map, _HEADER.size)
            (last,) = struct.unpack_from("<Q", self._map, _HEADER.size + n * 8)
            ok = first == 0 and size == offsets_end + last * 4
        if not ok:
            self.close()
            raise ValueError(f"{path}: truncated or corrupt column file")
        view = memoryview(self._map)
        offsets_bytes = view[_HEADER.size : offsets_end]
        np = active_numpy()
        if np is not None:
            offsets = np.frombuffer(offsets_bytes, dtype="<u8")
            # Compared, not differenced: uint64 differences wrap.
            ok = not (offsets[1:] < offsets[:-1]).any()
        else:
            offsets = array("Q")
            offsets.frombytes(offsets_bytes.tobytes())
            if sys.byteorder == "big":
                offsets.byteswap()
            offsets_bytes.release()
            ok = all(map(le, offsets, islice(offsets, 1, None)))
        view.release()
        if not ok:
            # A decreasing interior offset would decode to wrong or
            # empty strings; drop every view of the map, then reject.
            offsets = None
            offsets_bytes.release()
            self.close()
            raise ValueError(f"{path}: truncated or corrupt column file")
        self._offsets = offsets
        self._payload = memoryview(self._map)[offsets_end:]
        self.count = n

    def decode_range(self, start: int, stop: int) -> list[str]:
        """The values of rows ``start..stop`` as one list of strings.

        One ``utf-32-le`` decode covers the whole row range (a single C
        call instead of one per value — the difference between beating
        and losing to the C ``csv`` parser), then each value is a plain
        string slice at its code-point offsets.
        """
        offs = self._offsets[start : stop + 1].tolist()
        base = offs[0]
        text = str(self._payload[base * 4 : offs[-1] * 4], "utf-32-le")
        return [text[a - base : b - base] for a, b in zip(offs, offs[1:])]

    def close(self) -> None:
        # Every buffer export must be dropped before the map can close:
        # the payload slice, and (on the numpy path) the offsets array
        # viewing the offsets region.
        self._offsets = None
        if self._payload is not None:
            self._payload.release()
            self._payload = None
        self._map.close()
        self._file.close()


class ColumnarShardSource(RecordSource):
    """Shards served from a columnar dataset directory (see module doc).

    The manifest is read eagerly (shape and shard sizes are known
    without touching the column files); the columns themselves are
    memory-mapped lazily on first record access and shared across
    passes.  ``source`` overrides every entity's source tag, as in
    :class:`~repro.io.CsvShardSource`.
    """

    def __init__(self, directory: str | Path, *, source: str | None = None):
        self._directory = Path(directory)
        self._source_tag = source
        manifest_path = self._directory / MANIFEST_NAME
        if not manifest_path.exists():
            raise ValueError(
                f"{self._directory} is not a columnar dataset "
                f"(no {MANIFEST_NAME})"
            )
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{manifest_path}: invalid manifest: {exc}") from None
        if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_TAG:
            raise ValueError(f"{manifest_path}: not a {FORMAT_TAG} manifest")
        version = manifest.get("version")
        if not isinstance(version, int) or version > FORMAT_VERSION:
            raise ValueError(
                f"{manifest_path}: columnar format version {version!r} "
                f"is newer than supported version {FORMAT_VERSION}"
            )
        columns = manifest.get("columns")
        shards = manifest.get("shards")
        if (
            not isinstance(columns, list)
            or columns[:2] != [_ID_COLUMN, _SOURCE_COLUMN]
            or not isinstance(shards, list)
            or not all(isinstance(s, int) and s >= 0 for s in shards)
        ):
            raise ValueError(f"{manifest_path}: malformed manifest")
        self._columns: list[str] = columns
        self._shard_sizes: tuple[int, ...] = tuple(shards)
        self._records: int = sum(self._shard_sizes)
        bounds: list[tuple[int, int]] = []
        start = 0
        for size in self._shard_sizes:
            bounds.append((start, start + size))
            start += size
        self._bounds = bounds
        self._maps: list[_Column] | None = None

    @property
    def num_shards(self) -> int:
        return len(self._shard_sizes)

    def shard_sizes(self) -> tuple[int, ...]:
        return self._shard_sizes

    def iter_shard(self, index: int) -> Iterator[Entity]:
        self._check_shard_index(index)
        start, stop = self._bounds[index]
        columns = self._open()
        # One range decode per column per shard (not one per value) —
        # memory stays bounded by a single shard's worth of strings.
        ids = columns[0].decode_range(start, stop)
        tag = self._source_tag
        tags = None if tag is not None else columns[1].decode_range(start, stop)
        names = self._columns[2:]
        attr_values = [
            column.decode_range(start, stop) for column in columns[2:]
        ]
        for row in range(stop - start):
            attributes = {
                name: (value if (value := values[row]) != "" else None)
                for name, values in zip(names, attr_values)
            }
            yield Entity(ids[row], attributes, tag if tags is None else tags[row])

    def close(self) -> None:
        """Release the memory maps (reopened lazily if used again)."""
        if self._maps is not None:
            for column in self._maps:
                column.close()
            self._maps = None

    def _open(self) -> list[_Column]:
        if self._maps is None:
            maps: list[_Column] = []
            try:
                for index in range(len(self._columns)):
                    path = self._directory / f"{index}.col"
                    if not path.exists():
                        raise ValueError(
                            f"{self._directory}: missing column file {path.name}"
                        )
                    maps.append(_Column(path, self._records))
            except Exception:
                for column in maps:
                    column.close()
                raise
            self._maps = maps
        return self._maps

    # Memory maps cannot cross process boundaries; pickle the
    # configuration only and re-map lazily on the other side (the serve
    # layer ships sources inside pickled requests).
    def __getstate__(self):
        return {"directory": self._directory, "source": self._source_tag}

    def __setstate__(self, state) -> None:
        self.__init__(state["directory"], source=state["source"])

    def __repr__(self) -> str:
        return (
            f"ColumnarShardSource({str(self._directory)!r}, "
            f"shards={self.num_shards})"
        )
