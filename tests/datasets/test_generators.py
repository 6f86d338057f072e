"""Synthetic DS1/DS2 generators: determinism, blocking fidelity, duplicates."""

from __future__ import annotations

import hashlib
import random
import time

import pytest

from repro.datasets.generators import (
    DS1_PROFILE,
    DS2_PROFILE,
    DatasetProfile,
    ProductGenerator,
    PublicationGenerator,
    _PrefixVocabulary,
    generate_products,
    generate_publications,
)
from repro.er.blocking import PrefixBlocking
from repro.er.matching import ThresholdMatcher


class TestProfiles:
    def test_validation(self):
        with pytest.raises(ValueError):
            DatasetProfile("x", 0, 1, 1.0)
        with pytest.raises(ValueError):
            DatasetProfile("x", 10, 0, 1.0)
        with pytest.raises(ValueError):
            DatasetProfile("x", 10, 5, 1.0, duplicate_rate=1.0)

    def test_scaled(self):
        small = DS1_PROFILE.scaled(0.01)
        assert small.num_entities == 1_140
        assert small.zipf_exponent == DS1_PROFILE.zipf_exponent
        with pytest.raises(ValueError):
            DS1_PROFILE.scaled(0)

    def test_ds_profiles_match_paper_scale(self):
        assert DS1_PROFILE.num_entities == 114_000
        assert DS2_PROFILE.num_entities == 1_400_000


class TestProductGenerator:
    def _small(self, seed=42):
        return ProductGenerator(
            DatasetProfile("t", 800, 30, 1.2, seed=seed)
        )

    def test_deterministic(self):
        a = self._small().generate()
        b = self._small().generate()
        assert a == b

    def test_different_seed_differs(self):
        a = self._small(seed=1).generate()
        b = self._small(seed=2).generate()
        assert a != b

    def test_entity_count(self):
        assert len(self._small().generate()) == 800

    def test_prefix_blocks_match_declared_sizes(self):
        generator = self._small()
        entities = generator.generate()
        blocking = PrefixBlocking("title", 3)
        blocks = blocking.partition_entities(entities)
        observed = sorted((len(v) for v in blocks.values()), reverse=True)
        declared = sorted(generator.block_sizes(), reverse=True)
        assert observed == declared

    def test_attributes_present(self):
        entity = self._small().generate()[0]
        assert entity.get("title")
        assert entity.get("manufacturer")
        assert isinstance(entity.get("price"), float)

    def test_duplicates_are_findable(self):
        profile = DatasetProfile("t", 600, 20, 1.2, duplicate_rate=0.3, seed=7)
        entities = ProductGenerator(profile).generate()
        blocking = PrefixBlocking("title", 3)
        matcher = ThresholdMatcher()
        matches = 0
        for block in blocking.partition_entities(entities).values():
            for i, e1 in enumerate(block):
                for e2 in block[i + 1:]:
                    if matcher.match(e1, e2) is not None:
                        matches += 1
        assert matches > 0

    def test_shuffled_output_order(self):
        # Output order must not be sorted by blocking key (Figure 11's
        # "unsorted" default).
        entities = self._small().generate()
        keys = [PrefixBlocking("title").key_for(e) for e in entities]
        assert keys != sorted(keys, key=repr)


class TestPublicationGenerator:
    def test_attributes(self):
        profile = DatasetProfile("p", 200, 10, 1.6, seed=3)
        entity = PublicationGenerator(profile).generate()[0]
        assert entity.get("title")
        assert entity.get("authors")
        assert entity.get("venue")
        assert 1990 <= entity.get("year") <= 2011


class TestConvenienceFunctions:
    def test_generate_products(self):
        entities = generate_products(150, seed=9)
        assert len(entities) == 150
        ids = {e.entity_id for e in entities}
        assert len(ids) == 150

    def test_generate_publications(self):
        entities = generate_publications(150, seed=9)
        assert len(entities) == 150


class TestManyBlocks:
    """Regression: the prefix vocabulary used to draw consonant-vowel-
    consonant prefixes until it had enough, and there are only 16·5·16 =
    1 280 of those — any profile with more blocks (DS1's 2 800, DS2's
    8 000) never returned."""

    @staticmethod
    def _digest(entities) -> str:
        h = hashlib.sha256()
        for e in entities:
            h.update(
                repr((e.entity_id, sorted(e.attributes.items()), e.source)).encode()
            )
        return h.hexdigest()

    def test_ds1_block_count_returns_promptly(self):
        profile = DatasetProfile(
            name="many-blocks", num_entities=3_000, num_blocks=2_800,
            zipf_exponent=1.2,
        )
        generator = ProductGenerator(profile)
        start = time.perf_counter()
        entities = generator.generate()
        assert time.perf_counter() - start < 1.0
        assert len(entities) == 3_000
        # At this size most Zipf blocks are empty; every block that has
        # entities has a three-letter prefix of its own.
        occupied = sum(1 for size in generator.block_sizes() if size)
        assert len({e["title"][:3] for e in entities}) == occupied

    def test_every_block_gets_its_own_prefix(self):
        profile = DatasetProfile(
            name="many-blocks", num_entities=40_000, num_blocks=2_800,
            zipf_exponent=1.2,
        )
        entities = ProductGenerator(profile).generate()
        assert len({e["title"][:3] for e in entities}) == 2_800

    def test_vocabulary_covers_every_three_letter_prefix(self):
        vocabulary = _PrefixVocabulary(["alpha", "beta"], 26 ** 3, random.Random(1))
        words = [vocabulary.leading_word(k) for k in range(26 ** 3)]
        assert len({word[:3] for word in words}) == 26 ** 3
        assert words[:2] == ["alpha", "beta"]
        # Same seed, fewer blocks: a prefix of the same vocabulary.
        fewer = _PrefixVocabulary(["alpha", "beta"], 1_500, random.Random(1))
        assert [fewer.leading_word(k) for k in range(1_500)] == words[:1_500]

    def test_more_blocks_than_prefixes_is_refused(self):
        with pytest.raises(ValueError, match="17576 distinct three-letter prefixes"):
            _PrefixVocabulary([], 26 ** 3 + 1, random.Random(1))

    @pytest.mark.parametrize(
        "num_blocks,expected",
        [
            (25, "3c514537b33fb2b1089d128a5cf2b505f7bc0b6b67677ad5ef2b699dd694804a"),
            (1_000, "ce3e2e1b3ef98f9974ffd52758cc9f249b675dec2fc4b434a0c18e40e8d10b23"),
            (1_250, "2c869e0c81ed2bb376e45a6af80d7775a859c9b8837ee0a20d1accddae543401"),
        ],
    )
    def test_corpora_that_worked_before_are_unchanged(self, num_blocks, expected):
        """Digests recorded on the commit before the fix: block counts
        the random draws could already serve keep their draw sequence,
        so existing corpora, benchmark digests and doctests stand."""
        profile = DatasetProfile(
            name="products", num_entities=3_000, num_blocks=num_blocks,
            zipf_exponent=1.2, seed=7,
        )
        assert self._digest(ProductGenerator(profile).generate()) == expected
