"""Output checks run after every benchmark run (untimed).

Each check returns a list of failure strings (empty = passed).  The
ground truth is the harness's own: block membership comes from
``corpus.py``, edit distance from the plain DP below — nothing here
calls the kernels under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Iterable, Mapping, Sequence

THRESHOLD = 0.8
#: Comparisons the brute-force sample may spend (pure-Python DP).
SAMPLE_PAIR_BUDGET = 2500

EXPECTED_FILE = Path(__file__).with_name("expected.json")


def levenshtein(a: str, b: str) -> int:
    """Plain two-row dynamic-programming edit distance."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + (ca != cb),
            ))
        previous = current
    return previous[-1]


def match_ids(matches) -> dict[tuple[str, str], float]:
    """``{(id1, id2): similarity}`` of a ``MatchResult``."""
    return {pair.ids: pair.similarity for pair in matches}


def digest(matches) -> str:
    """sha256 over the sorted matches (ids and similarity to 9 places)."""
    h = hashlib.sha256()
    for (id1, id2), similarity in sorted(match_ids(matches).items()):
        h.update(f"{id1}|{id2}|{similarity:.9f}\n".encode("utf-8"))
    return h.hexdigest()


def check_comparisons(result, expected_pairs: int) -> list[str]:
    got = result.total_comparisons()
    if got != expected_pairs:
        return [f"comparisons {got} != expected {expected_pairs}"]
    return []


def check_sample(
    matches,
    blocks: Sequence[Sequence[str]],
    titles: Mapping[str, str],
    seed: int,
) -> list[str]:
    """Matches inside a seeded sample of blocks equal a brute force.

    A pair whose similarity is within 1e-9 of the threshold is skipped:
    the engine budgets edits as ``int((1 - t) * longest)`` in floating
    point, so exact-boundary pairs are its convention, not ground truth.
    """
    rng = random.Random(seed)
    order = list(range(len(blocks)))
    rng.shuffle(order)
    got = match_ids(matches)
    failures: list[str] = []
    spent = 0
    for index in order:
        ids = blocks[index]
        cost = len(ids) * (len(ids) - 1) // 2
        if cost == 0 or spent + cost > SAMPLE_PAIR_BUDGET:
            continue
        spent += cost
        for i, left in enumerate(ids):
            for right in ids[i + 1:]:
                a, b = titles[left], titles[right]
                longest = max(len(a), len(b))
                similarity = 1.0 - levenshtein(a, b) / longest
                if abs(similarity - THRESHOLD) < 1e-9:
                    continue
                key = tuple(sorted((f"R:{left}", f"R:{right}")))
                found = got.get(key)
                if similarity >= THRESHOLD:
                    if found is None:
                        failures.append(f"missing match {key} sim={similarity:.4f}")
                    elif abs(found - similarity) > 1e-9:
                        failures.append(f"match {key} scored {found}, brute force {similarity}")
                elif found is not None:
                    failures.append(f"spurious match {key} sim={similarity:.4f}")
    if spent == 0:
        failures.append("brute-force sample is empty")
    return failures


def check_equal_results(label: str, result, reference) -> list[str]:
    """Matches and Job 2 counters of ``result`` equal ``reference``'s."""
    failures = []
    if match_ids(result.matches) != match_ids(reference.matches):
        failures.append(f"{label}: matches differ from the serial result")
    if result.job2.counters.as_dict() != reference.job2.counters.as_dict():
        failures.append(f"{label}: job counters differ from the serial result")
    return failures


def check_delta(
    base_comparisons: int,
    delta_comparisons: Iterable[int],
    state_matches,
    full,
) -> list[str]:
    """Base + delta comparisons sum to the full recompute's, and the
    persisted cumulative matches equal its matches."""
    failures = []
    total = base_comparisons + sum(delta_comparisons)
    if total != full.total_comparisons():
        failures.append(
            f"base+delta comparisons {total} != full recompute "
            f"{full.total_comparisons()}"
        )
    if match_ids(state_matches) != match_ids(full.matches):
        failures.append("persisted matches differ from the full recompute")
    return failures


def expected_key(workload: str, seed: int, size_label: str) -> str:
    return f"{workload}/seed={seed}/{size_label}"


def check_expected(key: str, got_digest: str) -> list[str]:
    """For recorded (workload, seed, size) keys the digest must equal
    ``expected.json``; unrecorded keys pass (any seed is allowed)."""
    expected = json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))
    want = expected.get(key)
    if want is not None and want != got_digest:
        return [f"digest of {key} is {got_digest[:12]}…, expected {want[:12]}…"]
    return []
