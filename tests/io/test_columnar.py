"""The columnar shard format: round-trips, layout errors, pickling.

The contract is CSV-parity: packing any source and reading it back
through :class:`ColumnarShardSource` yields exactly the entities the
CSV round-trip would yield — same null semantics ("" ⇄ ``None`` for
attributes), same shard boundaries, same order.
"""

from __future__ import annotations

import json
import pickle
import struct

import pytest

from repro.datasets.generators import generate_products
from repro.datasets.loaders import save_entities_csv
from repro.er.entity import Entity
from repro.io import (
    ColumnarShardSource,
    CsvShardSource,
    InMemorySource,
    write_columnar,
)
from repro.io import columnar
from repro.io.columnar import MANIFEST_NAME


@pytest.fixture
def entities():
    return [
        Entity("a1", {"title": "hello world", "year": "2001"}),
        Entity("a2", {"title": "", "year": None}),
        Entity("a3", {"title": "naïve café ∑ 😀", "extra": "late column"}, "S"),
        Entity("a4", {"title": None}),
        Entity("a5", {"title": "x" * 80, "year": "1999"}),
    ]


@pytest.fixture
def open_columnar():
    """Opens columnar sources; closes them after the test, so no
    memory-mapped column file outlives it."""
    opened = []

    def open_source(path, **kwargs):
        opened.append(ColumnarShardSource(path, **kwargs))
        return opened[-1]

    yield open_source
    for source in opened:
        source.close()


class TestRoundTrip:
    def test_matches_csv_semantics(self, open_columnar, tmp_path, entities):
        """Pack → load ≡ CSV save → load, entity for entity."""
        csv_path = tmp_path / "d.csv"
        save_entities_csv(entities, csv_path)
        via_csv = list(CsvShardSource(csv_path, num_shards=2).iter_records())

        out = write_columnar(InMemorySource(entities, num_shards=2), tmp_path / "cols")
        source = open_columnar(out)
        assert list(source.iter_records()) == via_csv
        assert source.shard_sizes() == (3, 2)

    def test_shard_boundaries_preserved(self, open_columnar, tmp_path, entities):
        packed = InMemorySource(entities, num_shards=3)
        out = write_columnar(packed, tmp_path / "cols")
        source = open_columnar(out)
        assert source.num_shards == 3
        assert source.shard_sizes() == packed.shard_sizes()
        ids = [[e.entity_id for e in source.iter_shard(i)] for i in range(3)]
        assert ids == [["a1", "a2"], ["a3", "a4"], ["a5"]]

    def test_entity_list_is_one_shard(self, open_columnar, tmp_path, entities):
        out = write_columnar(entities, tmp_path / "cols")
        source = open_columnar(out)
        assert source.num_shards == 1
        assert [e.entity_id for e in source.iter_records()] == [
            e.entity_id for e in entities
        ]

    def test_generated_dataset(self, open_columnar, tmp_path):
        products = generate_products(300, seed=5)
        out = write_columnar(InMemorySource(products, num_shards=4), tmp_path / "c")
        loaded = list(open_columnar(out).iter_records())
        assert [e.entity_id for e in loaded] == [e.entity_id for e in products]
        assert all(
            loaded[i].get("title") == products[i].get("title")
            for i in range(len(products))
        )

    def test_source_tag_override(self, open_columnar, tmp_path, entities):
        out = write_columnar(entities, tmp_path / "cols")
        loaded = list(open_columnar(out, source="S").iter_records())
        assert all(e.source == "S" for e in loaded)

    def test_repeated_passes_are_identical(self, open_columnar, tmp_path, entities):
        out = write_columnar(entities, tmp_path / "cols")
        source = open_columnar(out)
        assert list(source.iter_records()) == list(source.iter_records())

    def test_close_then_reuse_reopens(self, open_columnar, tmp_path, entities):
        out = write_columnar(entities, tmp_path / "cols")
        source = open_columnar(out)
        first = list(source.iter_records())
        source.close()
        assert list(source.iter_records()) == first


class TestPickling:
    def test_pickles_after_maps_open(self, open_columnar, tmp_path, entities):
        """Serve ships sources inside pickled requests; the open maps
        must be dropped and lazily re-created on the other side."""
        out = write_columnar(entities, tmp_path / "cols")
        source = open_columnar(out)
        before = list(source.iter_records())  # force the mmaps open
        clone = pickle.loads(pickle.dumps(source))
        try:
            assert list(clone.iter_records()) == before
        finally:
            clone.close()


class TestWriteErrors:
    def test_refuses_overwrite(self, tmp_path, entities):
        out = write_columnar(entities, tmp_path / "cols")
        with pytest.raises(ValueError, match="already holds a columnar dataset"):
            write_columnar(entities, out)

    def test_rejects_empty_dataset(self, tmp_path):
        with pytest.raises(ValueError, match="empty dataset"):
            write_columnar([], tmp_path / "cols")

    def test_rejects_reserved_attribute_names(self, tmp_path):
        bad = [Entity("x", {"_id": "boom"})]
        with pytest.raises(ValueError, match="reserved"):
            write_columnar(bad, tmp_path / "cols")


class TestReadErrors:
    def _packed(self, tmp_path, entities):
        return write_columnar(entities, tmp_path / "cols")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ValueError, match="not a columnar dataset"):
            ColumnarShardSource(tmp_path)

    def test_invalid_manifest_json(self, tmp_path, entities):
        out = self._packed(tmp_path, entities)
        (out / MANIFEST_NAME).write_text("{nope")
        with pytest.raises(ValueError, match="invalid manifest"):
            ColumnarShardSource(out)

    def test_wrong_format_tag(self, tmp_path, entities):
        out = self._packed(tmp_path, entities)
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        manifest["format"] = "parquet"
        (out / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="not a repro-er/columnar manifest"):
            ColumnarShardSource(out)

    def test_future_version_rejected(self, tmp_path, entities):
        out = self._packed(tmp_path, entities)
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        manifest["version"] = 2
        (out / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="newer than supported version 1"):
            ColumnarShardSource(out)

    def test_truncated_column_file(self, tmp_path, entities):
        out = self._packed(tmp_path, entities)
        column = out / "0.col"
        column.write_bytes(column.read_bytes()[:-3])
        with pytest.raises(ValueError, match="truncated or corrupt"):
            list(ColumnarShardSource(out).iter_records())

    @pytest.mark.parametrize("kernel", ["numpy", "stdlib"])
    def test_decreasing_interior_offset(self, tmp_path, entities, monkeypatch,
                                        kernel):
        """First and last offsets intact, one interior offset past its
        successor: rejected at open, not decoded to wrong strings."""
        if kernel == "numpy" and columnar.active_numpy() is None:
            pytest.skip("numpy not importable")
        if kernel == "stdlib":
            monkeypatch.setattr(columnar, "active_numpy", lambda: None)
        out = self._packed(tmp_path, entities)
        column = out / "2.col"  # title: offsets 0, 11, 11, 25, 25, 105
        data = bytearray(column.read_bytes())
        offset_2 = 8 + 2 * 8
        data[offset_2 : offset_2 + 8] = struct.pack("<Q", 100)
        column.write_bytes(bytes(data))
        source = ColumnarShardSource(out)
        with pytest.raises(ValueError, match="2.col: truncated or corrupt"):
            list(source.iter_records())
        source.close()

    def test_missing_column_file(self, tmp_path, entities):
        out = self._packed(tmp_path, entities)
        (out / "1.col").unlink()
        with pytest.raises(ValueError, match="missing column file"):
            list(ColumnarShardSource(out).iter_records())
