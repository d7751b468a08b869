"""Reference computations the benchmark checks the program's outputs against.

Each oracle is written from the definition in the docstrings of
``pairscore.metrics`` and ``pairscore.stats``, not from their code: n-gram
matching by brute-force scanning, pair classification by direct comparison.
They import nothing from ``pairscore``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def _ngrams(tokens: Sequence[str], n: int) -> list[tuple[str, ...]]:
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def _clipped_matches(cand_grams: list, ref_grams: list) -> int:
    """Sum over distinct candidate n-grams of min(count in candidate, count in reference)."""
    total = 0
    for gram in set(cand_grams):
        total += min(cand_grams.count(gram), ref_grams.count(gram))
    return total


def bleu(reference: Sequence[str], candidate: Sequence[str], max_order: int = 4) -> float:
    """Sentence BLEU with add-one smoothing on zero counts for n >= 2 and the brevity penalty.

    p_n = clipped matches / candidate n-grams; when an order n >= 2 has no
    match, p_n = 1 / (candidate n-grams + 1).  No unigram match, or an empty
    candidate, scores 0.  BP = exp(1 - r/c) when c < r, else 1.
    """
    if not candidate:
        return 0.0
    product = 1.0
    for n in range(1, max_order + 1):
        cand_grams = _ngrams(candidate, n)
        matches = _clipped_matches(cand_grams, _ngrams(reference, n))
        if matches == 0:
            if n == 1:
                return 0.0
            product *= 1.0 / (len(cand_grams) + 1)
        else:
            product *= matches / len(cand_grams)
    score = product ** (1.0 / max_order)
    c, r = len(candidate), len(reference)
    return score * math.exp(1.0 - r / c) if c < r else score


def rouge1(reference: Sequence[str], candidate: Sequence[str]) -> tuple[float, float, float]:
    """ROUGE-1 (precision, recall, F): clipped unigram overlap; all zero if a side is empty."""
    if not reference or not candidate:
        return (0.0, 0.0, 0.0)
    matches = _clipped_matches(list(candidate), list(reference))
    p = matches / len(candidate)
    r = matches / len(reference)
    f = 2.0 * p * r / (p + r) if p + r > 0 else 0.0
    return (p, r, f)


def pair_counts(human, metric, groups, threshold: float) -> dict[str, int]:
    """Classify every within-group pair (i < j) the way ``stats`` defines it.

    A pair is filtered when |dh| < threshold; otherwise it is a tie when
    dh == 0 or dm == 0; otherwise concordant when dh and dm share a sign.
    Vectorised over the partners of each item, so memory stays O(group size).
    """
    human = np.asarray(human, dtype=np.float64)
    metric = np.asarray(metric, dtype=np.float64)
    members: dict = {}
    for i, g in enumerate(groups):
        members.setdefault(g, []).append(i)
    counts = dict(concordant=0, discordant=0, pairs_filtered=0, ties_discarded=0, pairs_total=0)
    for idx in members.values():
        h, m = human[idx], metric[idx]
        for i in range(len(idx) - 1):
            dh = h[i] - h[i + 1 :]
            dm = m[i] - m[i + 1 :]
            filtered = np.abs(dh) < threshold
            tie = ~filtered & ((dh == 0) | (dm == 0))
            ranked = ~filtered & ~tie
            agree = (dh > 0) == (dm > 0)
            counts["pairs_filtered"] += int(filtered.sum())
            counts["ties_discarded"] += int(tie.sum())
            counts["concordant"] += int((ranked & agree).sum())
            counts["discordant"] += int((ranked & ~agree).sum())
            counts["pairs_total"] += len(dh)
    return counts


def pairs_within_groups(groups) -> int:
    """Number of pairs i < j with groups[i] == groups[j]."""
    sizes: dict = {}
    for g in groups:
        sizes[g] = sizes.get(g, 0) + 1
    return sum(n * (n - 1) // 2 for n in sizes.values())


def agreement(counts: dict[str, int]) -> float:
    """(concordant - discordant) / (concordant + discordant)."""
    c, d = counts["concordant"], counts["discordant"]
    return (c - d) / (c + d)


def pearson(x, y) -> float:
    return float(np.corrcoef(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))[0, 1])


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    """Equal to ``rel`` of the larger magnitude, with an absolute floor of ``rel`` near zero."""
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))
