"""Duplicate injection with ground truth.

The synthetic generators plant duplicates implicitly; evaluating match
*quality* (precision/recall) needs explicit ground truth.  This module
takes a clean dataset and produces a corrupted copy of a chosen
fraction of records — typos, token swaps, abbreviations, missing
values — returning the gold pair set alongside.

Corruption styles mirror the error classes of real product/publication
data; each is a small composable operator.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import Callable, Sequence

from ..er.entity import Entity

Corruptor = Callable[[str, random.Random], str]


def typo(text: str, rng: random.Random) -> str:
    """Substitute one character (keyboard-noise model)."""
    if not text:
        return text
    chars = list(text)
    position = rng.randrange(len(chars))
    chars[position] = rng.choice(string.ascii_lowercase)
    return "".join(chars)


def transpose(text: str, rng: random.Random) -> str:
    """Swap two adjacent characters."""
    if len(text) < 2:
        return text
    i = rng.randrange(len(text) - 1)
    chars = list(text)
    chars[i], chars[i + 1] = chars[i + 1], chars[i]
    return "".join(chars)


def drop_character(text: str, rng: random.Random) -> str:
    if len(text) < 2:
        return text
    i = rng.randrange(len(text))
    return text[:i] + text[i + 1:]


def insert_character(text: str, rng: random.Random) -> str:
    i = rng.randrange(len(text) + 1)
    return text[:i] + rng.choice(string.ascii_lowercase) + text[i:]


def swap_tokens(text: str, rng: random.Random) -> str:
    """Swap two adjacent words (common in person/title data)."""
    tokens = text.split()
    if len(tokens) < 2:
        return text
    i = rng.randrange(len(tokens) - 1)
    tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
    return " ".join(tokens)


def abbreviate_token(text: str, rng: random.Random) -> str:
    """Truncate one word to its first letter + period."""
    tokens = text.split()
    candidates = [i for i, t in enumerate(tokens) if len(t) > 2 and t.isalpha()]
    if not candidates:
        return text
    i = rng.choice(candidates)
    tokens[i] = tokens[i][0] + "."
    return " ".join(tokens)


def drop_token(text: str, rng: random.Random) -> str:
    tokens = text.split()
    if len(tokens) < 2:
        return text
    del tokens[rng.randrange(len(tokens))]
    return " ".join(tokens)


#: The default mix, weighted towards character-level noise so corrupted
#: copies usually stay above typical match thresholds.
DEFAULT_CORRUPTORS: tuple[tuple[Corruptor, float], ...] = (
    (typo, 3.0),
    (transpose, 2.0),
    (drop_character, 2.0),
    (insert_character, 2.0),
    (swap_tokens, 1.0),
    (abbreviate_token, 0.5),
    (drop_token, 0.5),
)


@dataclass(frozen=True, slots=True)
class CorruptionConfig:
    """How to corrupt a dataset.

    ``duplicate_fraction`` of the records get one corrupted copy each;
    every copy receives 1..``max_edits`` corruption operations on
    ``attribute``.  ``protect_prefix`` keeps the first k characters
    intact so the copy stays in its original block — set it to 0 to
    generate the "hard" duplicates that defeat single-pass prefix
    blocking (see ``examples/multipass_dedup.py``).
    """

    attribute: str = "title"
    duplicate_fraction: float = 0.2
    max_edits: int = 2
    protect_prefix: int = 3
    missing_value_rate: float = 0.0
    corruptors: tuple[tuple[Corruptor, float], ...] = DEFAULT_CORRUPTORS
    seed: int = 99

    def __post_init__(self) -> None:
        if not 0.0 <= self.duplicate_fraction <= 1.0:
            raise ValueError("duplicate_fraction must be in [0, 1]")
        if self.max_edits < 1:
            raise ValueError("max_edits must be >= 1")
        if self.protect_prefix < 0:
            raise ValueError("protect_prefix must be >= 0")
        if not 0.0 <= self.missing_value_rate <= 1.0:
            raise ValueError("missing_value_rate must be in [0, 1]")
        if not self.corruptors:
            raise ValueError("at least one corruptor is required")


@dataclass(frozen=True, slots=True)
class CorruptedDataset:
    """A corrupted dataset plus its gold standard."""

    entities: tuple[Entity, ...]
    gold_pairs: frozenset[tuple[str, str]]

    @property
    def num_duplicates(self) -> int:
        return len(self.gold_pairs)


def corrupt_dataset(
    entities: Sequence[Entity], config: CorruptionConfig = CorruptionConfig()
) -> CorruptedDataset:
    """Inject duplicates and return (clean ∪ copies, gold pairs).

    Copy ids are ``dup-<original id>``; gold pairs are canonical
    ``qualified_id`` tuples, directly comparable with
    :attr:`repro.er.matching.MatchResult.pair_ids`.
    """
    rng = random.Random(config.seed)
    originals = list(entities)
    num_copies = int(round(len(originals) * config.duplicate_fraction))
    victims = rng.sample(originals, num_copies) if num_copies else []
    copies: list[Entity] = []
    gold: set[tuple[str, str]] = set()
    weights = [w for _fn, w in config.corruptors]
    functions = [fn for fn, _w in config.corruptors]
    for original in victims:
        value = original.get(config.attribute)
        attributes = dict(original.attributes)
        if value is not None:
            text = str(value)
            prefix = text[: config.protect_prefix]
            body = text[config.protect_prefix:]
            for _ in range(rng.randint(1, config.max_edits)):
                corruptor = rng.choices(functions, weights=weights)[0]
                body = corruptor(body, rng)
            attributes[config.attribute] = prefix + body
        for name in list(attributes):
            if name != config.attribute and rng.random() < config.missing_value_rate:
                attributes[name] = None
        copy = Entity(f"dup-{original.entity_id}", attributes, original.source)
        copies.append(copy)
        gold.add(tuple(sorted((original.qualified_id, copy.qualified_id))))
    combined = originals + copies
    rng.shuffle(combined)
    return CorruptedDataset(tuple(combined), frozenset(gold))
