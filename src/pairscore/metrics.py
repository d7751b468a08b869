"""Sentence-level similarity metrics: BLEU, ROUGE-N, and soft embedding overlap.

These serve double duty as evaluation baselines and as label sources for the
synthetic pre-training signals, so they are written for exactness over speed
and every score is reproducible from first principles.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, NumericError
from .text import UNK, as_tokens, read_lines

# Recorded in artifact metadata: add-one smoothing applies to orders >= 2 and
# only when the raw clipped precision is zero.
BLEU_SMOOTHING = "add-one-on-zero-n2plus"


@dataclass(frozen=True)
class PRF:
    """Precision / recall / F-score triple.

    F is the harmonic mean of the raw P and R, defined as 0 when P + R <= 0.
    """

    precision: float
    recall: float
    fscore: float

    @classmethod
    def from_pr(cls, precision: float, recall: float) -> "PRF":
        if precision + recall > 0:
            f = 2.0 * precision * recall / (precision + recall)
        else:
            f = 0.0
        return cls(precision, recall, f)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.precision, self.recall, self.fscore)


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def sentence_bleu(reference, candidate, max_order: int = 4) -> float:
    """Sentence BLEU: geometric mean of clipped n-gram precisions times brevity penalty.

    Orders >= 2 with zero clipped matches are smoothed to 1/(count+1); a zero
    unigram precision or an empty candidate yields 0 outright.
    """
    ref = as_tokens(reference)
    cand = as_tokens(candidate)
    if max_order < 1:
        raise DataError("max_order must be >= 1")
    if not ref:
        raise DataError("sentence_bleu requires a non-empty reference")
    if not cand:
        return 0.0

    log_sum = 0.0
    for n in range(1, max_order + 1):
        cand_counts = _ngram_counts(cand, n)
        total = sum(cand_counts.values())
        ref_counts = _ngram_counts(ref, n)
        matches = sum(min(c, ref_counts[g]) for g, c in cand_counts.items())
        if n == 1 and matches == 0:
            return 0.0
        if matches == 0:
            precision = 1.0 / (total + 1.0)
        else:
            precision = matches / total
        log_sum += math.log(precision)

    score = math.exp(log_sum / max_order)
    if len(cand) < len(ref):
        score *= math.exp(1.0 - len(ref) / len(cand))
    return score


def rouge_n(reference, candidate, n: int) -> PRF:
    """ROUGE-N precision/recall/F via clipped n-gram multiset overlap."""
    if n < 1:
        raise DataError("n must be >= 1")
    ref = as_tokens(reference)
    cand = as_tokens(candidate)
    ref_counts = _ngram_counts(ref, n)
    cand_counts = _ngram_counts(cand, n)
    n_ref = sum(ref_counts.values())
    n_cand = sum(cand_counts.values())
    if n_ref == 0 or n_cand == 0:
        return PRF(0.0, 0.0, 0.0)
    matches = sum(min(c, ref_counts[g]) for g, c in cand_counts.items())
    return PRF.from_pr(matches / n_cand, matches / n_ref)


class EmbeddingTable:
    """Immutable token -> dense-vector map backing the soft-overlap metric.

    Unknown tokens fall back to the [unk] vector.  Vectors are validated to be
    finite and non-zero-norm on construction.
    """

    def __init__(self, vectors: dict[str, np.ndarray]):
        if UNK not in vectors:
            raise DataError(f"embedding table must define a vector for {UNK!r}")
        dims = {v.shape for v in vectors.values()}
        if len(dims) != 1 or len(next(iter(dims))) != 1:
            raise DataError("all embedding vectors must share one 1-d shape")
        for tok, vec in vectors.items():
            if not np.all(np.isfinite(vec)):
                raise DataError(f"embedding for {tok!r} has non-finite entries")
        self._vectors = {tok: np.asarray(v, dtype=np.float64) for tok, v in vectors.items()}
        self.dim = next(iter(dims))[0]

    def vector(self, token: str) -> np.ndarray:
        return self._vectors.get(token, self._vectors[UNK])

    def matrix(self, tokens: Sequence[str]) -> np.ndarray:
        return np.stack([self.vector(t) for t in tokens]) if tokens else np.zeros((0, self.dim))

    @classmethod
    def hashed(cls, tokens: Iterable[str], dim: int = 32) -> "EmbeddingTable":
        """Deterministic static vectors: each token's unit vector is seeded by its hash.

        Platform-stable (sha256, not Python hash()) and independent of any
        trained model state.
        """
        vectors = {}
        for tok in set(tokens) | {UNK}:
            seed = int.from_bytes(hashlib.sha256(tok.encode("utf-8")).digest()[:8], "little")
            vec = np.random.default_rng(seed).standard_normal(dim)
            vectors[tok] = vec / np.linalg.norm(vec)
        return cls(vectors)

    @classmethod
    def from_file(cls, path: str | Path) -> "EmbeddingTable":
        """Text format: first line is the dimension, then `token v1 .. v_d` lines."""
        dim = None

        def entry(line: str) -> tuple[str, np.ndarray] | None:
            nonlocal dim
            if dim is None:
                try:
                    dim = int(line)
                except ValueError:
                    raise DataError("bad dimension header") from None
                return None
            parts = line.split()
            if len(parts) != dim + 1:
                raise DataError(f"expected {dim + 1} fields")
            try:
                return parts[0], np.array([float(x) for x in parts[1:]], dtype=np.float64)
            except ValueError:
                raise DataError("non-numeric value") from None

        vectors = dict(read_lines(path, "embedding file", entry))
        if dim is None:
            raise DataError(f"empty embedding file {path}")
        if UNK not in vectors:
            # synthesize a deterministic fallback so partial tables stay usable
            vectors[UNK] = cls.hashed([UNK], dim).vector(UNK)
        return cls(vectors)

    def save(self, path: str | Path) -> None:
        lines = [str(self.dim)]
        for tok in sorted(self._vectors):
            vals = " ".join(repr(float(x)) for x in self._vectors[tok])
            lines.append(f"{tok} {vals}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def soft_overlap(reference, candidate, emb: EmbeddingTable) -> PRF:
    """Greedy max-cosine matching between the two token sets.

    Recall averages, over reference tokens, the best cosine similarity to any
    candidate token; precision swaps the roles.  No idf weighting, no optimal
    transport.  Either side empty yields all zeros.
    """
    ref = as_tokens(reference)
    cand = as_tokens(candidate)
    if not ref or not cand:
        return PRF(0.0, 0.0, 0.0)
    ref_m = emb.matrix(ref)
    cand_m = emb.matrix(cand)
    ref_norms = np.linalg.norm(ref_m, axis=1)
    cand_norms = np.linalg.norm(cand_m, axis=1)
    if np.any(ref_norms == 0.0) or np.any(cand_norms == 0.0):
        raise NumericError("zero-norm embedding vector in soft_overlap")
    sims = (ref_m / ref_norms[:, None]) @ (cand_m / cand_norms[:, None]).T
    recall = float(sims.max(axis=1).mean())
    precision = float(sims.max(axis=0).mean())
    return PRF.from_pr(precision, recall)
