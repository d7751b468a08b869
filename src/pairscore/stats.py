"""Agreement statistics between metric scores and human ratings.

Kendall here is the pairwise variant: over all within-group pairs with
distinct human scores, (concordant - discordant) / (concordant + discordant).
DARR is the same statistic after first discarding pairs whose human scores
sit within a threshold of each other (25 points on a 100-point scale).
Pairs tied on the metric score are discarded from both counts.

Note: this pairwise Kendall is not tau-b; it handles ties by discarding
rather than by denominator correction.  Reports carry a ``variant`` field so
downstream consumers know which definition produced the number.

The pairs are counted without listing them (Knight 1966, JASA 61:436).  Each
group is sorted by human score and swept once in that order.  For item k,
the partners whose human score is below h_k by at least the threshold form
a prefix of the sorted order, and that prefix only grows as k advances, so
they enter a Fenwick tree over the group's metric ranks as the sweep reaches
them.  The tree then tells how many admitted partners score below, level
with and above m_k on the metric: concordant, metric-tied and discordant
pairs.  Human ties, counted only when the threshold does not filter them,
come from the counts of equal scores; every other pair was filtered.
That is O(n log n) time and O(n) memory per call.  ``_walk_pairs``, which
classifies every pair in turn, is kept as the reference the tests compare
against.

Human and metric values must be finite: a NaN has no place in a sort, so
``kendall_pairwise`` and ``darr`` raise ``DataError`` on NaN or infinity.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import DataError, NumericError
from .text import RatedExample

KENDALL_VARIANT = "pairwise-discard-ties"


@dataclass(frozen=True)
class CorrelationReport:
    kendall: float
    pearson: float
    darr: float
    pairs_total: int
    pairs_filtered: int
    ties_discarded: int
    concordant: int
    discordant: int
    threshold: float
    variant: str = KENDALL_VARIANT

    def __post_init__(self):
        if self.concordant + self.discordant != (
            self.pairs_total - self.pairs_filtered - self.ties_discarded
        ):
            raise NumericError("pair counts are inconsistent")

    def to_text_table(self) -> str:
        rows = [
            ("kendall", f"{self.kendall:+.6f}"),
            ("pearson", f"{self.pearson:+.6f}"),
            ("darr", f"{self.darr:+.6f}"),
            ("pairs_total", str(self.pairs_total)),
            ("pairs_filtered", str(self.pairs_filtered)),
            ("ties_discarded", str(self.ties_discarded)),
            ("concordant", str(self.concordant)),
            ("discordant", str(self.discordant)),
            ("threshold", str(self.threshold)),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def _group_pairs(groups: Sequence) -> list[tuple[int, int]]:
    by_group: dict = {}
    for i, g in enumerate(groups):
        by_group.setdefault(g, []).append(i)
    pairs = []
    for members in by_group.values():
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                pairs.append((members[a], members[b]))
    return pairs


def _walk_pairs(human, metric, groups, threshold: float):
    """Classify every within-group pair; returns the count tuple."""
    if len(human) != len(metric) or len(human) != len(groups):
        raise DataError("human, metric, and groups must have equal length")
    concordant = discordant = filtered = ties = 0
    for i, j in _group_pairs(groups):
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


def _count_pairs(human, metric, groups, threshold: float):
    """The counts of ``_walk_pairs`` from one sorted sweep per group."""
    if len(human) != len(metric) or len(human) != len(groups):
        raise DataError("human, metric, and groups must have equal length")
    for name, values in (("human", human), ("metric", metric)):
        if not all(map(math.isfinite, values)):
            raise DataError(f"{name} scores must be finite (no NaN or infinity)")
    by_group: dict = {}
    for i, g in enumerate(groups):
        by_group.setdefault(g, []).append(i)
    concordant = discordant = ties = total = 0
    # A human tie is a pair with |dh| == 0, which the threshold filters when positive.
    if not 0.0 < threshold:
        ties = sum(c * (c - 1) // 2 for c in Counter(zip(groups, human)).values())
    for members in by_group.values():
        size = len(members)
        total += size * (size - 1) // 2
        if size < 2:
            continue
        members.sort(key=human.__getitem__)
        h = [human[i] for i in members]
        m = [metric[i] for i in members]
        rank_of = {v: r for r, v in enumerate(sorted(set(m)), start=1)}
        ranks = [rank_of[v] for v in m]
        top = len(rank_of) + 1
        tree = [0] * top  # Fenwick tree: admitted partners per metric rank
        level = [0] * top  # admitted partners at exactly this rank
        admitted = 0
        for k in range(size):
            hk = h[k]
            # The oracle's own float expression, so boundary pairs fall the same way.
            while admitted < k and not abs(hk - h[admitted]) < threshold and h[admitted] != hk:
                r = ranks[admitted]
                level[r] += 1
                while r < top:
                    tree[r] += 1
                    r += r & -r
                admitted += 1
            r = ranks[k]
            below = 0
            q = r - 1
            while q:
                below += tree[q]
                q -= q & -q
            concordant += below
            discordant += admitted - below - level[r]
            ties += level[r]
    return concordant, discordant, total - concordant - discordant - ties, ties, total


def kendall_pairwise(human: Sequence[float], metric: Sequence[float], groups: Sequence) -> float:
    """Pairwise Kendall over within-group pairs with distinct human scores."""
    if len(human) < 2:
        raise DataError("need at least 2 items")
    concordant, discordant, _, _, _ = _count_pairs(human, metric, groups, threshold=0.0)
    if concordant + discordant == 0:
        raise DataError("no usable pairs (all tied or singleton groups)")
    return (concordant - discordant) / (concordant + discordant)


def darr(
    human: Sequence[float],
    metric: Sequence[float],
    groups: Sequence,
    threshold: float = 25.0,
) -> CorrelationReport:
    """Thresholded pairwise agreement plus the companion statistics.

    Within-group pairs closer than ``threshold`` on the human scale are
    discarded before counting concordant/discordant pairs.  With threshold 0
    the darr value equals kendall_pairwise on the same inputs.
    """
    concordant, discordant, filtered, ties, total = _count_pairs(human, metric, groups, threshold)
    if total == 0:
        raise DataError("input-empty: no within-group pairs to compare (every group has one record)")
    if concordant + discordant == 0:
        raise NumericError(
            f"filtered-empty: {total} pairs existed but none survived "
            f"(filtered={filtered}, ties={ties})"
        )
    value = (concordant - discordant) / (concordant + discordant)
    kc, kd, _, _, _ = _count_pairs(human, metric, groups, threshold=0.0)
    kendall = (kc - kd) / (kc + kd) if kc + kd else float("nan")
    return CorrelationReport(
        kendall=kendall,
        pearson=pearson(human, metric),
        darr=value,
        pairs_total=total,
        pairs_filtered=filtered,
        ties_discarded=ties,
        concordant=concordant,
        discordant=discordant,
        threshold=threshold,
    )


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Product-moment correlation; errors on constant input."""
    if len(x) != len(y):
        raise DataError("x and y must have equal length")
    if len(x) < 2:
        raise DataError("need at least 2 points")
    ax = np.asarray(x, dtype=np.float64)
    ay = np.asarray(y, dtype=np.float64)
    dx = ax - ax.mean()
    dy = ay - ay.mean()
    sx = float(np.sqrt((dx * dx).sum()))
    sy = float(np.sqrt((dy * dy).sum()))
    if sx == 0.0 or sy == 0.0:
        raise NumericError("pearson is undefined for constant input")
    return float((dx * dy).sum() / (sx * sy))


# ---------------------------------------------------------------------------
# Skew-factor resampling for quality-drift experiments.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SkewConfig:
    """Drift resampling parameters.

    Records are ranked by rating into ``n_bins`` equal bins (bin 1 lowest);
    each record enters train with probability 1/B^alpha_train and test with
    probability 1/(n_bins+1-B)^alpha_test, independently, so a record may
    land on both sides.  With ``disjoint`` set, a doubly-drawn record is
    assigned to one side by a seeded coin flip, keeping the split leak-free
    without emptying either side.
    """

    alpha_train: float
    alpha_test: float
    n_bins: int = 10
    seed: int = 0
    disjoint: bool = False

    def __post_init__(self):
        if self.alpha_train < 0 or self.alpha_test < 0:
            raise DataError("skew factors must be >= 0")
        if self.n_bins < 2:
            raise DataError("n_bins must be >= 2")


def skew_bin_indices(n: int, n_bins: int) -> np.ndarray:
    """Bin index (1-based) per rank position, lowest rating first."""
    sizes = [n // n_bins + (1 if i < n % n_bins else 0) for i in range(n_bins)]
    out = np.empty(n, dtype=np.int64)
    pos = 0
    for b, size in enumerate(sizes, start=1):
        out[pos : pos + size] = b
        pos += size
    return out


def expected_train_fraction(alpha: float, n_bins: int = 10) -> float:
    """Mean over bins of the train inclusion probability 1/B^alpha."""
    return sum(1.0 / b**alpha for b in range(1, n_bins + 1)) / n_bins


def skew_split(
    data: Sequence[RatedExample], config: SkewConfig
) -> tuple[list[RatedExample], list[RatedExample]]:
    """Independent left-skewed train / right-skewed test resampling.

    A record may land on both sides (independent draws) unless
    ``config.disjoint`` is set.  Output preserves the input order.
    """
    n = len(data)
    if n < config.n_bins:
        raise DataError(f"need at least n_bins={config.n_bins} records, got {n}")
    order = sorted(range(n), key=lambda i: (data[i].rating, data[i].source_id))
    bins_by_rank = skew_bin_indices(n, config.n_bins)
    bin_of = np.empty(n, dtype=np.int64)
    for rank, idx in enumerate(order):
        bin_of[idx] = bins_by_rank[rank]

    rng = np.random.default_rng(config.seed)
    in_train = np.zeros(n, dtype=bool)
    in_test = np.zeros(n, dtype=bool)
    for idx in order:
        b = int(bin_of[idx])
        p_train = 1.0 / b**config.alpha_train
        p_test = 1.0 / (config.n_bins + 1 - b) ** config.alpha_test
        in_train[idx] = rng.random() < p_train
        in_test[idx] = rng.random() < p_test
        if config.disjoint and in_train[idx] and in_test[idx]:
            if rng.random() < 0.5:
                in_test[idx] = False
            else:
                in_train[idx] = False
    train = [data[i] for i in range(n) if in_train[i]]
    test = [data[i] for i in range(n) if in_test[i]]
    return train, test


def multiref_score(candidate, references: Sequence, scorer: Callable) -> float:
    """Max over per-reference scores of ``scorer(reference, candidate)``."""
    if not references:
        raise DataError("multiref_score requires at least one reference")
    return max(scorer(ref, candidate) for ref in references)


def save_report(report: CorrelationReport, path, meta: dict | None = None) -> None:
    payload = asdict(report)
    payload.update(meta or {})
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
