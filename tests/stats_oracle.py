"""Pair-walk reference for ``pairscore.stats._count_pairs``.

This is the plain formulation: every within-group pair is listed and
classified in turn as filtered (human scores closer than the threshold), tied
(on the human or the metric score), concordant or discordant.  The sorted
sweep in ``_count_pairs`` counts the same pairs without listing them and must
agree with this module exactly.
"""

from __future__ import annotations

from typing import Sequence

from pairscore.errors import DataError


def group_pairs(groups: Sequence) -> list[tuple[int, int]]:
    by_group: dict = {}
    for i, g in enumerate(groups):
        by_group.setdefault(g, []).append(i)
    pairs = []
    for members in by_group.values():
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                pairs.append((members[a], members[b]))
    return pairs


def reference_walk_pairs(human, metric, groups, threshold: float):
    """Classify every within-group pair; returns (concordant, discordant, filtered, ties, total)."""
    if len(human) != len(metric) or len(human) != len(groups):
        raise DataError("human, metric, and groups must have equal length")
    concordant = discordant = filtered = ties = 0
    for i, j in group_pairs(groups):
        dh = human[i] - human[j]
        if abs(dh) < threshold:
            filtered += 1
            continue
        if dh == 0:
            ties += 1  # human tie, only reachable when threshold == 0
            continue
        dm = metric[i] - metric[j]
        if dm == 0:
            ties += 1  # metric tie: assert neither ordering
            continue
        if (dh > 0) == (dm > 0):
            concordant += 1
        else:
            discordant += 1
    total = concordant + discordant + filtered + ties
    return concordant, discordant, filtered, ties, total
