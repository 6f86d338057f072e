"""Seeded corpus generators owned by the layered benchmark.

The benchmark does not build its inputs on ``repro.datasets.generators``:
a change there would silently move every number, and its prefix
vocabulary cannot mint more than ~1 300 blocks (see README, "Known
hang").  Everything here depends only on ``random.Random(seed)``.

Block *sizes* are a pure function of the shape parameters, never of
the seed, so every seed gives a run the same number of comparisons,
the same batch shapes and the same plan; the seed only chooses the
block prefixes, the titles, which entities are near-duplicates and the
input order.  That is what keeps timings comparable across seeds.
"""

from __future__ import annotations

import math
import random
import string
from typing import Sequence

from repro.er.entity import Entity

_LETTERS = string.ascii_lowercase
_WORDS = (
    "ultra", "compact", "wireless", "digital", "portable", "classic",
    "premium", "series", "edition", "black", "silver", "white", "stereo",
    "camera", "speaker", "monitor", "router", "tablet", "charger",
    "adapter", "laptop", "printer", "scanner", "headset", "keyboard",
)

#: Share of entities generated as a typo'd copy of an earlier title of
#: their block (the matches the pipeline is expected to find).
NEAR_DUPLICATE_SHARE = 0.15


def apportion(weights: Sequence[float], total: int) -> list[int]:
    """``total`` units split proportionally to ``weights`` (largest
    remainder, ties by index): exact sum, no randomness."""
    weight_sum = float(sum(weights))
    quotas = [w * total / weight_sum for w in weights]
    sizes = [int(math.floor(q)) for q in quotas]
    order = sorted(range(len(weights)), key=lambda i: (sizes[i] - quotas[i], i))
    for i in order[: total - sum(sizes)]:
        sizes[i] += 1
    return sizes


def zipf_block_sizes(num_entities: int, num_blocks: int, exponent: float) -> list[int]:
    """Block ``k`` holds a share ∝ ``(k+1)^-exponent`` of the entities."""
    return apportion([(k + 1) ** -exponent for k in range(num_blocks)], num_entities)


def exponential_block_sizes(num_blocks: int, low: int, high: int, scale: float) -> list[int]:
    """``num_blocks`` sizes in ``[low, high]`` following an exponential
    law with mean ≈ ``low + scale`` (quantile function on an even grid,
    so the multiset of sizes is fixed)."""
    sizes = []
    for k in range(num_blocks):
        u = (k + 0.5) / num_blocks
        sizes.append(min(high, low + int(-scale * math.log(1.0 - u))))
    return sizes


def pair_count(block_sizes: Sequence[int]) -> int:
    """Σ n(n−1)/2 — the comparisons blocking leaves to do."""
    return sum(n * (n - 1) // 2 for n in block_sizes)


def _prefixes(rng: random.Random, count: int, length: int) -> list[str]:
    """``count`` distinct lower-case prefixes of ``length`` letters."""
    if count > len(_LETTERS) ** length:
        raise ValueError(f"cannot mint {count} distinct {length}-letter prefixes")
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < count:
        prefix = "".join(rng.choices(_LETTERS, k=length))
        if prefix not in seen:
            seen.add(prefix)
            out.append(prefix)
    return out


def _title(rng: random.Random, prefix: str) -> str:
    """A product-like title of 30–44 characters starting with ``prefix``."""
    stem = prefix + "".join(rng.choices(_LETTERS, k=rng.randint(2, 4)))
    words = " ".join(rng.sample(_WORDS, 3))
    model = f"{rng.choice(_LETTERS).upper()}{rng.randint(100, 9999)}"
    return f"{stem} {words} {model}"


def _typo(rng: random.Random, title: str, keep: int) -> str:
    """``title`` with one or two character edits behind the first
    ``keep`` characters (the blocking prefix must survive)."""
    chars = list(title)
    for _ in range(rng.randint(1, 2)):
        pos = rng.randrange(keep, len(chars))
        kind = rng.randrange(3)
        if kind == 0:
            chars[pos] = rng.choice(_LETTERS)
        elif kind == 1:
            chars.insert(pos, rng.choice(_LETTERS))
        elif len(chars) > keep + 1:
            del chars[pos]
    return "".join(chars)


def entities_for_blocks(
    block_sizes: Sequence[int],
    seed: int,
    *,
    prefix_length: int = 3,
    id_prefix: str = "p",
) -> list[list[Entity]]:
    """One list of entities per block, realising ``block_sizes`` exactly.

    Within a block, an entity is either a fresh title or (with
    probability :data:`NEAR_DUPLICATE_SHARE`) a typo'd copy of an earlier
    title of the block.  The per-block lists are the benchmark's own
    ground truth for the verifier.
    """
    rng = random.Random(seed)
    prefixes = _prefixes(rng, len(block_sizes), prefix_length)
    blocks: list[list[Entity]] = []
    count = 0
    for prefix, size in zip(prefixes, block_sizes):
        titles: list[str] = []
        block: list[Entity] = []
        for _ in range(size):
            if titles and rng.random() < NEAR_DUPLICATE_SHARE:
                title = _typo(rng, rng.choice(titles), prefix_length)
            else:
                title = _title(rng, prefix)
            titles.append(title)
            block.append(Entity(f"{id_prefix}{count}", {"title": title}))
            count += 1
        blocks.append(block)
    return blocks


def _shuffled(blocks: Sequence[Sequence[Entity]], seed: int) -> list[Entity]:
    """All entities in seeded random order, so that every block is
    spread over the input partitions."""
    entities = [entity for block in blocks for entity in block]
    random.Random(seed + 1).shuffle(entities)
    return entities


def skewed_corpus(num_entities: int, num_blocks: int, seed: int, *, id_prefix: str = "p"):
    """The ``dedup-skewed`` shape: Zipf 1.2 three-letter-prefix blocks.
    Returns ``(entities in input order, blocks)``."""
    sizes = zipf_block_sizes(num_entities, num_blocks, 1.2)
    blocks = entities_for_blocks(sizes, seed, id_prefix=id_prefix)
    return _shuffled(blocks, seed), blocks


def wide_flat_corpus(num_blocks: int, seed: int):
    """The ``wide-flat`` shape: many four-letter-prefix blocks of 1–40
    entities (exponential sizes, mean ≈ 3)."""
    sizes = exponential_block_sizes(num_blocks, 1, 40, 2.6)
    blocks = entities_for_blocks(sizes, seed, prefix_length=4)
    return _shuffled(blocks, seed), blocks


def small_job_corpora(num_jobs: int, num_entities: int, seed: int):
    """The ``served-small-jobs`` shape: ``num_jobs`` distinct small
    skewed corpora (each job has its own seed and id namespace)."""
    return [
        skewed_corpus(
            num_entities, max(8, num_entities // 25), seed * 1000 + job,
            id_prefix=f"j{job}-",
        )
        for job in range(num_jobs)
    ]


def delta_corpus(base: int, batch: int, batches: int, num_blocks: int, seed: int):
    """The ``delta-ingest`` shape: a skewed base plus ``batches`` further
    batches, every block split between them in fixed proportions (so
    the delta comparison count does not depend on the seed).  Later
    entities of a block are the ones that copy earlier titles, so the
    batches hold near-duplicates of base records.
    Returns ``(base entities, list of batches, blocks)``."""
    base_sizes = zipf_block_sizes(base, num_blocks, 1.2)
    batch_sizes = zipf_block_sizes(batch, num_blocks, 1.2)
    blocks = entities_for_blocks(
        [b + batches * d for b, d in zip(base_sizes, batch_sizes)], seed
    )
    segments: list[list[Entity]] = [[] for _ in range(batches + 1)]
    for block, b, d in zip(blocks, base_sizes, batch_sizes):
        segments[0].extend(block[:b])
        for k in range(batches):
            segments[k + 1].extend(block[b + k * d: b + (k + 1) * d])
    rng = random.Random(seed + 2)
    for segment in segments:
        rng.shuffle(segment)
    return segments[0], segments[1:], blocks
