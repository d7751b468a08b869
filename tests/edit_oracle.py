"""Full-table reference for ``pairscore.experiments.edit_similarity``.

This is the plain formulation: the Levenshtein DP over every token of both
sides, with no common prefix or suffix stripped first.  ``edit_similarity``
runs the DP only between the shared prefix and suffix and must agree with
this module exactly.
"""

from __future__ import annotations

from typing import Sequence


def reference_edit_similarity(a: Sequence[str], b: Sequence[str]) -> float:
    """1 - levenshtein(a, b) / max(|a|, |b|) over tokens."""
    a, b = list(a), list(b)
    if not a and not b:
        return 1.0
    prev = list(range(len(b) + 1))
    for i, tok_a in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, tok_b in enumerate(b, start=1):
            cost = 0 if tok_a == tok_b else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
        prev = cur
    return 1.0 - prev[-1] / max(len(a), len(b))
