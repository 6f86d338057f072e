"""Synthetic dataset generators standing in for the paper's DS1 and DS2.

The paper evaluates on two proprietary/real-world datasets we cannot
redistribute:

* **DS1** — ≈ 114,000 e-commerce product offers;
* **DS2** — ≈ 1.4 million CiteSeerX publication records.

The only dataset properties the experiments exercise are (a) the
distribution of 3-letter title prefixes — i.e. the block-size
distribution under the default blocking — and (b) title lengths, which
drive the comparison cost.  The generators therefore synthesize titles
whose *prefix* follows a configurable Zipf law (calibrated so the
largest block's entity/pair shares match the paper's headline numbers)
while the rest of the title is realistic enough for edit-distance
matching to be meaningful.  A configurable fraction of entities are
near-duplicates (typo-perturbed copies) so matching finds actual
matches.

Everything is deterministic given a seed.
"""

from __future__ import annotations

import itertools
import random
import string
from dataclasses import dataclass
from typing import Sequence

from ..er.entity import Entity
from .skew import zipf_block_sizes

# Stems used to expand 3-letter prefixes into plausible leading words.
_PRODUCT_STEMS = [
    "samsung", "sony", "panasonic", "canon", "nikon", "apple", "lenovo",
    "toshiba", "philips", "logitech", "olympus", "garmin", "siemens",
    "motorola", "nokia", "kingston", "sandisk", "epson", "brother",
    "fujitsu", "acer", "asus", "dell", "sharp", "pioneer", "kenwood",
    "yamaha", "casio", "kodak", "hitachi", "sanyo", "benq", "viewsonic",
]
_PRODUCT_NOUNS = [
    "notebook", "camera", "printer", "monitor", "keyboard", "speaker",
    "router", "tablet", "phone", "projector", "scanner", "headset",
    "drive", "player", "charger", "adapter", "lens", "memory card",
]
_PRODUCT_QUALIFIERS = [
    "pro", "plus", "ultra", "compact", "wireless", "digital", "portable",
    "mini", "hd", "series", "edition", "black", "silver", "white",
]

_PUBLICATION_STEMS = [
    "the", "analysis", "towards", "learning", "efficient", "distributed",
    "parallel", "adaptive", "dynamic", "optimal", "scalable", "robust",
    "probabilistic", "statistical", "automatic", "incremental", "modeling",
    "evaluation", "performance", "design", "implementation", "survey",
]
_PUBLICATION_NOUNS = [
    "algorithms", "systems", "networks", "databases", "queries",
    "computation", "optimization", "classification", "clustering",
    "retrieval", "indexing", "processing", "estimation", "inference",
    "recognition", "integration", "resolution", "management",
]
_PUBLICATION_CONNECTIVES = ["for", "of", "in", "with", "over", "under", "via"]

_VENUES = ["icde", "sigmod", "vldb", "kdd", "www", "cikm", "edbt", "icdm"]


@dataclass(frozen=True, slots=True)
class DatasetProfile:
    """Shape parameters of a synthetic dataset.

    ``zipf_exponent`` controls prefix skew: ≈ 1.2 reproduces DS1's
    "largest block > 70 % of all pairs"; DS2 uses a heavier head (a
    dirty web-extracted corpus where one prefix dominates) so that the
    DS2/DS1 total-pair ratio lands in the paper's "> 2,000×" regime.
    """

    name: str
    num_entities: int
    num_blocks: int
    zipf_exponent: float
    duplicate_rate: float = 0.15
    seed: int = 42

    def __post_init__(self) -> None:
        if self.num_entities <= 0:
            raise ValueError("num_entities must be positive")
        if self.num_blocks <= 0:
            raise ValueError("num_blocks must be positive")
        if not 0.0 <= self.duplicate_rate < 1.0:
            raise ValueError("duplicate_rate must be in [0, 1)")

    def scaled(self, factor: float) -> "DatasetProfile":
        """Same shape, fewer entities — for fast test/bench variants."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return DatasetProfile(
            name=f"{self.name}-x{factor:g}",
            num_entities=max(2, int(self.num_entities * factor)),
            num_blocks=max(1, min(self.num_blocks, int(self.num_entities * factor))),
            zipf_exponent=self.zipf_exponent,
            duplicate_rate=self.duplicate_rate,
            seed=self.seed,
        )


#: DS1-like: 114 k products, ~2,800 prefix blocks, Zipf 1.2.
DS1_PROFILE = DatasetProfile(
    name="ds1-products",
    num_entities=114_000,
    num_blocks=2_800,
    zipf_exponent=1.2,
    seed=42,
)

#: DS2-like: 1.4 M publications; heavier head (exponent 1.6) models the
#: dominant "the ..." prefix of a web-crawled bibliography.
DS2_PROFILE = DatasetProfile(
    name="ds2-publications",
    num_entities=1_400_000,
    num_blocks=8_000,
    zipf_exponent=1.6,
    seed=43,
)


class _PrefixVocabulary:
    """Deterministic pool of distinct 3-letter prefixes with word stems.

    Prefix ``k`` is the block with the ``k``-th largest size.  Known
    stems supply realistic leading words; synthesized suffixes cover
    the tail.
    """

    def __init__(self, stems: Sequence[str], num_blocks: int, rng: random.Random):
        if num_blocks > 26 ** 3:
            raise ValueError(
                f"num_blocks={num_blocks} exceeds the {26 ** 3} distinct "
                "three-letter prefixes blocks are keyed on"
            )
        self._words: list[str] = []
        seen: set[str] = set()
        for stem in stems:
            prefix = stem[:3]
            if len(prefix) == 3 and prefix not in seen:
                seen.add(prefix)
                self._words.append(stem)
            if len(self._words) >= num_blocks:
                break
        # Fill the remainder with pronounceable synthetic words, drawn
        # at random while the consonant-vowel-consonant prefixes last
        # (16·5·16 of them; every draw is kept as it always was, so
        # existing corpora do not change) ...
        consonants = "bcdfghklmnprstvz"
        vowels = "aeiou"
        unused = len(consonants) * len(vowels) * len(consonants) - sum(
            p[0] in consonants and p[1] in vowels and p[2] in consonants
            for p in seen
        )
        while len(self._words) < num_blocks and unused:
            word = (
                rng.choice(consonants)
                + rng.choice(vowels)
                + rng.choice(consonants)
                + rng.choice(vowels)
                + rng.choice(consonants)
            )
            if word[:3] not in seen:
                seen.add(word[:3])
                self._words.append(word)
                unused -= 1
        # ... then, without drawing, through the remaining three-letter
        # prefixes in alphabetical order.
        for letters in itertools.product(string.ascii_lowercase, repeat=3):
            if len(self._words) >= num_blocks:
                break
            prefix = "".join(letters)
            if prefix not in seen:
                seen.add(prefix)
                self._words.append(prefix + "ex")

    def leading_word(self, block: int) -> str:
        return self._words[block]


@dataclass
class _GeneratorSpec:
    stems: Sequence[str]
    nouns: Sequence[str]
    extras: Sequence[str]


class SyntheticDatasetGenerator:
    """Generates entities whose 3-letter-prefix blocks follow the profile."""

    def __init__(self, profile: DatasetProfile, spec: _GeneratorSpec):
        self.profile = profile
        self._spec = spec

    # -- public API --------------------------------------------------------

    def block_sizes(self) -> list[int]:
        """The exact block-size distribution the entities will follow."""
        return zipf_block_sizes(
            self.profile.num_entities,
            self.profile.num_blocks,
            self.profile.zipf_exponent,
        )

    def generate(self) -> list[Entity]:
        """Materialise the full dataset, shuffled into key-independent order."""
        rng = random.Random(self.profile.seed)
        vocabulary = _PrefixVocabulary(
            self._spec.stems, self.profile.num_blocks, rng
        )
        entities: list[Entity] = []
        counter = 0
        for block, size in enumerate(self.block_sizes()):
            originals: list[str] = []
            for _ in range(size):
                duplicate_pool = originals if originals else None
                make_duplicate = (
                    duplicate_pool is not None
                    and rng.random() < self.profile.duplicate_rate
                )
                if make_duplicate:
                    title = self._perturb(rng.choice(duplicate_pool), rng)
                else:
                    title = self._compose_title(vocabulary, block, rng)
                    originals.append(title)
                entities.append(self._build_entity(f"e{counter}", title, rng))
                counter += 1
        rng.shuffle(entities)
        return entities

    # -- internals -----------------------------------------------------------

    def _compose_title(
        self, vocabulary: _PrefixVocabulary, block: int, rng: random.Random
    ) -> str:
        words = [vocabulary.leading_word(block)]
        words.append(rng.choice(self._spec.nouns))
        if self._spec.extras and rng.random() < 0.8:
            words.append(rng.choice(self._spec.extras))
        if rng.random() < 0.6:
            words.append(rng.choice(self._spec.nouns))
        if rng.random() < 0.5:
            words.append(str(rng.randint(1, 9999)))
        return " ".join(words)

    def _perturb(self, title: str, rng: random.Random) -> str:
        """A near-duplicate: 1-2 character edits after the prefix,
        keeping the entity in the same block."""
        chars = list(title)
        for _ in range(rng.randint(1, 2)):
            position = rng.randrange(3, len(chars)) if len(chars) > 3 else 3
            operation = rng.random()
            if operation < 0.4 and position < len(chars):
                chars[position] = rng.choice(string.ascii_lowercase)
            elif operation < 0.7:
                chars.insert(min(position, len(chars)), rng.choice(string.ascii_lowercase))
            elif len(chars) > 4 and position < len(chars):
                del chars[position]
        return "".join(chars)

    def _build_entity(self, entity_id: str, title: str, rng: random.Random) -> Entity:
        raise NotImplementedError


class ProductGenerator(SyntheticDatasetGenerator):
    """DS1-like product offers: title, manufacturer, price."""

    def __init__(self, profile: DatasetProfile = DS1_PROFILE):
        super().__init__(
            profile,
            _GeneratorSpec(_PRODUCT_STEMS, _PRODUCT_NOUNS, _PRODUCT_QUALIFIERS),
        )

    def _build_entity(self, entity_id: str, title: str, rng: random.Random) -> Entity:
        return Entity(
            entity_id,
            {
                "title": title,
                "manufacturer": title.split()[0],
                "price": round(rng.uniform(5.0, 2500.0), 2),
            },
        )


class PublicationGenerator(SyntheticDatasetGenerator):
    """DS2-like publication records: title, authors, venue, year."""

    def __init__(self, profile: DatasetProfile = DS2_PROFILE):
        super().__init__(
            profile,
            _GeneratorSpec(
                _PUBLICATION_STEMS, _PUBLICATION_NOUNS, _PUBLICATION_CONNECTIVES
            ),
        )

    def _build_entity(self, entity_id: str, title: str, rng: random.Random) -> Entity:
        surname = "".join(rng.choices(string.ascii_lowercase, k=6)).capitalize()
        return Entity(
            entity_id,
            {
                "title": title,
                "authors": f"{surname}, {rng.choice(string.ascii_uppercase)}.",
                "venue": rng.choice(_VENUES),
                "year": rng.randint(1990, 2011),
            },
        )


def generate_products(
    num_entities: int = 1_000, *, seed: int = 42, num_blocks: int | None = None
) -> list[Entity]:
    """Convenience: a small DS1-shaped product dataset."""
    profile = DatasetProfile(
        name="products",
        num_entities=num_entities,
        num_blocks=num_blocks if num_blocks is not None else max(1, num_entities // 40),
        zipf_exponent=DS1_PROFILE.zipf_exponent,
        seed=seed,
    )
    return ProductGenerator(profile).generate()


def generate_publications(
    num_entities: int = 1_000, *, seed: int = 43, num_blocks: int | None = None
) -> list[Entity]:
    """Convenience: a small DS2-shaped publication dataset."""
    profile = DatasetProfile(
        name="publications",
        num_entities=num_entities,
        num_blocks=num_blocks if num_blocks is not None else max(1, num_entities // 175),
        zipf_exponent=DS2_PROFILE.zipf_exponent,
        seed=seed,
    )
    return PublicationGenerator(profile).generate()
