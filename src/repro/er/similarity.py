"""String and numeric similarity measures.

The paper compares entities "by computing the edit distance of their
title" with a match threshold of 0.8.  We implement Levenshtein with
the standard normalisation ``1 - d / max(|a|, |b|)`` plus the usual ER
toolbox (Jaro, Jaro-Winkler, Jaccard over token or n-gram sets, numeric
closeness) so the library is usable beyond the single paper workload.

Edit distance is the per-pair hot path of the whole system, so
:func:`levenshtein_distance` dispatches to Myers' bit-parallel kernel
(shorter string ≤ 64 chars — the common ER case) or a banded DP, with
Ukkonen-style ``max_distance`` early exits throughout; the classic
two-row DP survives as :func:`levenshtein_distance_reference`, the
oracle the property tests measure against.
:func:`similarity_at_least` is the boolean threshold fast path (length
filter before any DP).

All functions return similarities in ``[0, 1]`` where 1 means equal.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

SimilarityFunction = Callable[[str, str], float]


def levenshtein_distance_reference(
    a: str, b: str, *, max_distance: int | None = None
) -> int:
    """Classic dynamic-programming edit distance with two rows.

    This is the O(n·m) reference implementation the bit-parallel and
    banded kernels are verified against.  ``max_distance`` enables early
    exit: once every cell of a row exceeds the bound the true distance
    cannot come back under it, and ``max_distance + 1`` is returned.
    """
    if a == b:
        return 0
    # Ensure b is the shorter string to minimise the row size.
    if len(b) > len(a):
        a, b = b, a
    if not b:
        if max_distance is not None and len(a) > max_distance:
            return max_distance + 1
        return len(a)
    if max_distance is not None and len(a) - len(b) > max_distance:
        return max_distance + 1

    previous = list(range(len(b) + 1))
    current = [0] * (len(b) + 1)
    for i, ca in enumerate(a, start=1):
        current[0] = i
        best = current[0]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current[j] = min(
                previous[j] + 1,      # deletion
                current[j - 1] + 1,   # insertion
                previous[j - 1] + cost,  # substitution
            )
            if current[j] < best:
                best = current[j]
        if max_distance is not None and best > max_distance:
            return max_distance + 1
        previous, current = current, previous
    return previous[len(b)]


MyersMasks = tuple[dict[str, int], int, int, int]


def myers_masks(pattern: str) -> MyersMasks:
    """Pre-packed bitmasks for running Myers' kernel against ``pattern``.

    Returns ``(peq, mask, last, m)`` — the per-character equality masks,
    the ``m``-bit column mask, the top-bit probe, and ``len(pattern)``.
    Building these is O(|pattern|) dict work and dominates the kernel on
    short strings, so batched scoring packs them once per *distinct*
    string and reuses them across every pair sharing that pattern
    (:mod:`repro.er.batch_kernel`).  ``pattern`` must be non-empty and
    at most 64 characters.
    """
    m = len(pattern)
    peq: dict[str, int] = {}
    bit = 1
    for ch in pattern:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    return peq, (1 << m) - 1, 1 << (m - 1), m


def myers_distance_masks(masks: MyersMasks, text: str, max_distance: int | None) -> int:
    """Myers' bit-parallel edit distance — O(|text|) word operations.

    ``masks`` come from :func:`myers_masks` over the pattern — the
    shorter string, at most 64 characters: the whole DP column lives in
    the bits of two machine words (VP/VN, the positive/negative vertical
    deltas).  The running ``score`` is the value of the column's last
    cell; the final distance can drop by at most one per remaining text
    character, which gives the Ukkonen early exit
    ``score - remaining > max_distance``.
    """
    peq, mask, last, m = masks
    vp = mask
    vn = 0
    score = m
    get = peq.get
    if max_distance is None:
        for ch in text:
            eq = get(ch, 0)
            xv = eq | vn
            xh = (((eq & vp) + vp) ^ vp) | eq
            hp = vn | ~(xh | vp)
            hn = vp & xh
            if hp & last:
                score += 1
            elif hn & last:
                score -= 1
            hp = ((hp << 1) | 1) & mask
            hn = (hn << 1) & mask
            vp = (hn | ~(xv | hp)) & mask
            vn = hp & xv
        return score
    remaining = len(text)
    for ch in text:
        eq = get(ch, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | ~(xh | vp)
        hn = vp & xh
        if hp & last:
            score += 1
        elif hn & last:
            score -= 1
        remaining -= 1
        if score - remaining > max_distance:
            return max_distance + 1
        hp = ((hp << 1) | 1) & mask
        hn = (hn << 1) & mask
        vp = (hn | ~(xv | hp)) & mask
        vn = hp & xv
    return score


def _myers_distance(pattern: str, text: str, max_distance: int | None) -> int:
    """:func:`myers_distance_masks` for one pair: pack, then run."""
    return myers_distance_masks(myers_masks(pattern), text, max_distance)


def myers_mask_table(np, codes, width):
    """Equality masks of many patterns at once, as one dense table.

    ``codes`` is a ``patterns × ≤64`` matrix of dense alphabet codes
    (``0`` pads rows past the pattern's end); the result is a
    ``patterns × width`` ``uint64`` table whose cell ``[p, c]`` has bit
    ``i`` set iff ``codes[p, i] == c`` — :func:`myers_masks`'s ``peq``
    for every pattern, built with array operations only.  Column 0 (the
    pad / "character of no pattern" code) stays all-zero.
    """
    rows, cols = np.nonzero(codes)
    table = np.zeros((codes.shape[0], width), dtype=np.uint64)
    np.bitwise_or.at(
        table, (rows, codes[rows, cols]), np.uint64(1) << cols.astype(np.uint64)
    )
    return table


def myers_distance_lanes(np, strings, pattern, text, max_distance):
    """Myers' recurrence over many (pattern, text) lanes at once.

    The array core of the batch kernel: lane ``k`` compares
    ``strings[pattern[k]]`` with ``strings[text[k]]`` under the bound
    ``max_distance[k]`` (three ``int64`` arrays), and gets exactly what
    ``_myers_distance(strings[pattern[k]], strings[text[k]],
    max_distance[k])`` returns — the exact distance, or ``bound + 1``
    once the bound is provably exceeded.  Every pattern must be 1–64
    characters long and every bound ``>= 0``; a bound ``>= len(text)``
    can never trip, so passing the text length is the "unbounded"
    configuration.

    After the per-*string* set-up nothing is per-lane Python:

    * the strings the lanes use are joined, decoded to code points with
      one ``frombuffer`` and renumbered into a dense alphabet by one
      ``np.unique``; a padded ``strings × longest`` code matrix serves
      patterns and texts alike (code 0 = padding),
    * equality masks live in one dense ``patterns × alphabet`` table
      (:func:`myers_mask_table`), so a step resolves every lane's mask
      with two gathers, ``table[pattern, code[text, t]]`` — no lanes ×
      length matrix is ever materialized,
    * each lane's DP column is one ``uint64`` of the VP/VN arrays, so a
      step is a fixed number of word operations whatever the lane
      count.  Wrapping ``uint64`` addition and the unmasked bits above
      a lane's column are safe for the reason they are in Myers' C
      formulation: only bit ``m - 1`` and those below it are ever
      read, and carries and shifts only move information upwards,
    * a step writes into rows of one block allocated per call and
      allocates nothing itself (:func:`_myers_recurrence`).

    The table is held to 64 masks per lane — what lane-private tables
    would cost: a batch with a wide alphabet and few lanes per pattern
    is scored in slices of its patterns, each with a table of its own.
    """
    lanes = pattern.shape[0]
    if lanes == 0:
        return np.empty(0, dtype=np.int64)
    used, index = np.unique(np.concatenate((pattern, text)), return_inverse=True)
    strings = [strings[u] for u in used.tolist()]
    lengths = np.fromiter(map(len, strings), dtype=np.int64, count=len(strings))
    alphabet, dense = np.unique(
        np.frombuffer("".join(strings).encode("utf-32-le"), dtype="<u4"),
        return_inverse=True,
    )
    codes = np.zeros((len(strings), int(lengths.max())), dtype=np.int64)
    codes[np.arange(codes.shape[1]) < lengths[:, None]] = dense + 1
    width = alphabet.shape[0] + 1
    pattern_ids, row = np.unique(index[:lanes], return_inverse=True)
    pattern_codes = codes[pattern_ids, :64]
    by_position = np.ascontiguousarray(codes.T)
    text = index[lanes:]
    m = lengths[pattern_ids][row]
    n = lengths[text]
    rows_per_table = max(1, 64 * lanes // width)
    if pattern_ids.shape[0] <= rows_per_table:
        # One table serves every lane: no per-slice copies of the lanes.
        table = myers_mask_table(np, pattern_codes, width).ravel()
        return _myers_recurrence(
            np, table, row * width, by_position, text, m, n, max_distance
        )
    out = np.empty(lanes, dtype=np.int64)
    for first in range(0, pattern_ids.shape[0], rows_per_table):
        chosen = np.nonzero((row >= first) & (row < first + rows_per_table))[0]
        table = myers_mask_table(
            np, pattern_codes[first:first + rows_per_table], width
        ).ravel()
        out[chosen] = _myers_recurrence(
            np, table, (row[chosen] - first) * width, by_position,
            text[chosen], m[chosen], n[chosen], max_distance[chosen],
        )
    return out


def _myers_recurrence(np, table, base, by_position, text, m, n, budget):
    """The recurrence proper: one step per text position, every lane.

    ``table[base[k] + c]`` is lane ``k``'s equality mask for code ``c``,
    ``by_position[t][text[k]]`` its text's code at position ``t`` (0, the
    code of no pattern, past the text's end), and ``m``/``n`` are its
    pattern and text lengths.

    Every array a step touches is a row of one block allocated up
    front and every operation writes into such a row, so the loop
    allocates nothing: a call costs what its lane count and longest
    text make it cost, not what the allocator does with a thousand
    lane-sized temporaries (glibc hands freed heap back to the system
    and page-faults it in again — measured at 5–12 k faults per
    ``dedup-skewed`` run, varying with the seed).  All lanes run to the
    longest text; each records its score at its own text's end, and
    Ukkonen's bound is applied to that score afterwards:
    ``score - remaining`` can have exceeded the bound on the way
    exactly if the final score does, because the score falls by at
    most one per character.
    """
    lanes = m.shape[0]
    one = np.uint64(1)
    score, last, vp, vn, eq, xv, xh, hp, hn, bit, code = np.empty(
        (11, lanes), dtype=np.uint64
    )
    code = code.view(np.int64)
    ends = np.empty(lanes, dtype=bool)
    out = m.copy()  # a lane with an empty text never steps: distance m
    score[:] = m
    last[:] = m - 1
    vp[:] = ~np.uint64(0)
    vn[:] = 0
    for t in range(int(n.max())):
        by_position[t].take(text, out=code, mode="clip")
        np.add(code, base, out=code)
        table.take(code, out=eq, mode="clip")
        np.bitwise_or(eq, vn, out=xv)
        np.bitwise_and(eq, vp, out=xh)
        np.add(xh, vp, out=xh)
        np.bitwise_xor(xh, vp, out=xh)
        np.bitwise_or(xh, eq, out=xh)
        np.bitwise_or(xh, vp, out=hp)
        np.invert(hp, out=hp)
        np.bitwise_or(hp, vn, out=hp)
        np.bitwise_and(vp, xh, out=hn)
        # score += bit (m - 1) of hp, -= bit (m - 1) of hn.
        np.right_shift(hp, last, out=bit)
        np.bitwise_and(bit, one, out=bit)
        np.add(score, bit, out=score)
        np.right_shift(hn, last, out=bit)
        np.bitwise_and(bit, one, out=bit)
        np.subtract(score, bit, out=score)
        np.left_shift(hp, one, out=hp)
        np.bitwise_or(hp, one, out=hp)
        np.left_shift(hn, one, out=hn)
        np.bitwise_or(xv, hp, out=vp)
        np.invert(vp, out=vp)
        np.bitwise_or(vp, hn, out=vp)
        np.bitwise_and(hp, xv, out=vn)
        np.equal(n, t + 1, out=ends)
        np.copyto(out, score, where=ends, casting="unsafe")
    return np.where(n > 0, np.minimum(out, budget + 1), out)


def myers_distance_batch(np, patterns, texts, max_distances):
    """:func:`myers_distance_lanes` for lanes given as strings.

    ``patterns[k]``/``texts[k]``/``max_distances[k]`` describe lane
    ``k``.  A thin encoder — one integer code per distinct string —
    over the array core, for callers that hold strings (the property
    tests); the batch kernel hands its integer lanes to the core itself.
    """
    lanes = len(patterns)
    code_of: dict[str, int] = {}
    coded = np.fromiter(
        (code_of.setdefault(s, len(code_of)) for s in (*patterns, *texts)),
        dtype=np.int64, count=2 * lanes,
    )
    return myers_distance_lanes(
        np, list(code_of), coded[:lanes], coded[lanes:],
        np.fromiter(max_distances, dtype=np.int64, count=lanes),
    )


def _banded_distance(a: str, b: str, bound: int) -> int:
    """Edit distance restricted to a diagonal band of half-width ``bound``.

    Exact whenever the true distance is ≤ ``bound`` (cells outside the
    band cannot lie on such an alignment); returns ``bound + 1``
    otherwise.  ``b`` must be the shorter string and
    ``len(a) - len(b) <= bound``.  O(|a|·bound) instead of O(|a|·|b|).
    """
    n, m = len(a), len(b)
    big = bound + 1
    # Row 0 of the DP table, clipped to the band: D[0][j] = j.
    prev_lo = 0
    prev = list(range(min(m, bound) + 1))
    for i in range(1, n + 1):
        lo = i - bound
        if lo < 0:
            lo = 0
        hi = i + bound
        if hi > m:
            hi = m
        ca = a[i - 1]
        current = []
        best = big
        for j in range(lo, hi + 1):
            if j == 0:
                val = i if i <= bound else big
            else:
                k = j - 1 - prev_lo
                sub = prev[k] if 0 <= k < len(prev) else big
                if ca != b[j - 1]:
                    sub += 1
                dele = prev[k + 1] + 1 if 0 <= k + 1 < len(prev) else big
                ins = current[-1] + 1 if current else big
                val = sub if sub < dele else dele
                if ins < val:
                    val = ins
                if val > big:
                    val = big
            current.append(val)
            if val < best:
                best = val
        if best > bound:
            return big
        prev, prev_lo = current, lo
    return prev[m - prev_lo] if prev[m - prev_lo] <= bound else big


def levenshtein_distance(a: str, b: str, *, max_distance: int | None = None) -> int:
    """Levenshtein edit distance via the fastest applicable kernel.

    Strings whose shorter side fits in a 64-bit word use Myers' bit-
    parallel kernel (O(n·m/64) word operations); longer inputs fall back
    to a banded DP — directly banded at ``max_distance`` when a bound is
    given, with Ukkonen's doubling bands (exact, O(n·d)) otherwise.
    Semantics are identical to :func:`levenshtein_distance_reference`:
    the exact distance, or ``max_distance + 1`` as soon as the bound is
    provably exceeded.
    """
    if a == b:
        return 0
    if len(b) > len(a):
        a, b = b, a
    la, lb = len(a), len(b)
    if max_distance is not None:
        if max_distance < 0:
            return max_distance + 1
        if la - lb > max_distance:
            return max_distance + 1  # length filter: no DP needed
    if not b:
        return la
    if lb <= 64:
        return _myers_distance(b, a, max_distance)
    if max_distance is not None:
        return _banded_distance(a, b, max_distance)
    # Unbounded and both sides > 64 chars: Ukkonen's doubling bands.
    # The distance is at most ``la``, so a band of half-width ``la``
    # degenerates to the full DP and the loop always terminates.
    bound = max(1, la - lb)
    while True:
        distance = _banded_distance(a, b, bound)
        if distance <= bound:
            return distance
        bound *= 2
        if bound >= la:
            return _banded_distance(a, b, la)


def levenshtein_similarity(a: str, b: str) -> float:
    """``1 - d(a, b) / max(|a|, |b|)`` — the paper's match measure."""
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    return 1.0 - levenshtein_distance(a, b) / longest


def levenshtein_similarity_bounded(a: str, b: str, threshold: float) -> float:
    """Similarity with early exit below ``threshold``.

    Returns the exact similarity when it is ≥ ``threshold`` and ``0.0``
    otherwise — sufficient for threshold matching and much faster on
    dissimilar strings.
    """
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    max_distance = int((1.0 - threshold) * longest)
    distance = levenshtein_distance(a, b, max_distance=max_distance)
    if distance > max_distance:
        return 0.0
    return 1.0 - distance / longest


def levenshtein_similarity_bounded_reference(
    a: str, b: str, threshold: float
) -> float:
    """:func:`levenshtein_similarity_bounded` over the reference DP kernel.

    Exists so the equivalence tests can run the exact pre-optimisation
    hot path side by side with the bit-parallel one.
    """
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    max_distance = int((1.0 - threshold) * longest)
    distance = levenshtein_distance_reference(a, b, max_distance=max_distance)
    if distance > max_distance:
        return 0.0
    return 1.0 - distance / longest


def similarity_at_least(a: str, b: str, threshold: float) -> bool:
    """Does ``levenshtein_similarity(a, b) >= threshold`` hold?

    The threshold is converted into a maximum edit distance
    ``⌊(1 − t)·max(|a|, |b|)⌋`` up front, so hopeless pairs fail the
    length filter (``abs(|a| − |b|)`` alone exceeds the budget) before
    any DP work runs, and the bounded kernel abandons the rest as soon
    as the budget is provably blown.  This is the boolean fast path for
    threshold matchers that do not need the exact score.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    if a == b:
        return True
    longest = max(len(a), len(b))
    max_distance = int((1.0 - threshold) * longest)
    if abs(len(a) - len(b)) > max_distance:
        return False
    return levenshtein_distance(a, b, max_distance=max_distance) <= max_distance


def jaro_similarity(a: str, b: str) -> float:
    """Jaro similarity — transposition-aware matching for short strings."""
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    window = max(len(a), len(b)) // 2 - 1
    window = max(window, 0)
    a_flags = [False] * len(a)
    b_flags = [False] * len(b)
    matches = 0
    for i, ca in enumerate(a):
        lo = max(0, i - window)
        hi = min(len(b), i + window + 1)
        for j in range(lo, hi):
            if not b_flags[j] and b[j] == ca:
                a_flags[i] = b_flags[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i, flagged in enumerate(a_flags):
        if flagged:
            while not b_flags[j]:
                j += 1
            if a[i] != b[j]:
                transpositions += 1
            j += 1
    transpositions //= 2
    m = float(matches)
    return (m / len(a) + m / len(b) + (m - transpositions) / m) / 3.0


def jaro_winkler_similarity(a: str, b: str, *, prefix_weight: float = 0.1) -> float:
    """Jaro-Winkler: Jaro boosted by the common prefix (max 4 chars)."""
    if not 0.0 <= prefix_weight <= 0.25:
        raise ValueError(f"prefix_weight must be in [0, 0.25], got {prefix_weight}")
    jaro = jaro_similarity(a, b)
    prefix = 0
    for ca, cb in zip(a[:4], b[:4]):
        if ca != cb:
            break
        prefix += 1
    return jaro + prefix * prefix_weight * (1.0 - jaro)


def jaccard_similarity(a: Iterable, b: Iterable) -> float:
    """Jaccard coefficient over two element collections."""
    sa, sb = set(a), set(b)
    if not sa and not sb:
        return 1.0
    union = len(sa | sb)
    return len(sa & sb) / union


def token_jaccard(a: str, b: str) -> float:
    """Jaccard over whitespace tokens."""
    return jaccard_similarity(a.split(), b.split())


def ngrams(text: str, n: int = 3, *, pad: bool = True) -> list[str]:
    """Character n-grams, optionally padded like standard trigram indexing."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if pad:
        padding = "#" * (n - 1)
        text = f"{padding}{text}{padding}"
    if len(text) < n:
        return [text] if text else []
    return [text[i:i + n] for i in range(len(text) - n + 1)]


def ngram_jaccard(a: str, b: str, n: int = 3) -> float:
    """Jaccard over character n-gram sets."""
    return jaccard_similarity(ngrams(a, n), ngrams(b, n))


def numeric_similarity(a: float, b: float, *, scale: float = 1.0) -> float:
    """``max(0, 1 - |a - b| / scale)`` for numeric attributes (e.g. price)."""
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return max(0.0, 1.0 - abs(a - b) / scale)


def weighted_average(scores: Sequence[float], weights: Sequence[float]) -> float:
    """Combine several attribute similarities into one match score."""
    if len(scores) != len(weights):
        raise ValueError("scores and weights must have equal length")
    if not scores:
        raise ValueError("at least one score is required")
    total_weight = sum(weights)
    if total_weight <= 0:
        raise ValueError("weights must sum to a positive value")
    return sum(s * w for s, w in zip(scores, weights)) / total_weight
