"""The nine pre-training signal families attached to each synthetic pair.

Layout (version 1) is fixed: an 11-dim regression block
  bleu[1] | rouge P,R,F[3] | soft_overlap P,R,F[3] |
  bt_en_fr_ref[1] | bt_en_fr_cand[1] | bt_en_de_ref[1] | bt_en_de_cand[1]
followed by two classification blocks: entailment[3] and bt_flag[2].  A
pair's signals are one float64 row in this layout; ``SIGNAL_COLUMNS`` gives
each task's columns.

Likelihood and entailment providers are pluggable; offline stubs keep all nine
signals computable without any external model.  External providers speak a
line protocol over a child process (see synth.LineClient).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError, NumericError, PairscoreError, ScorerProtocolError
from .metrics import EmbeddingTable, rouge_n, sentence_bleu, soft_overlap
from .synth import (
    BACKTRANSLATION,
    BigramLM,
    GenerationConfig,
    LineClient,
    SyntheticExample,
    example_from_record,
    example_record,
    generate_corpus,
    read_records,
    write_records,
)
from .text import TokenSeq, Vocabulary, tokenize

REGRESSION = "regression"
CLASSIFICATION = "classification"


@dataclass(frozen=True)
class TaskSpec:
    """One pre-training task: its name, loss kind, output width, and weight."""

    name: str
    kind: str
    dim: int
    weight: float = 1.0

    def __post_init__(self):
        if self.kind not in (REGRESSION, CLASSIFICATION):
            raise DataError(f"unknown task kind {self.kind!r}")
        if self.dim < 1:
            raise DataError("task dim must be >= 1")
        if self.weight < 0 or not math.isfinite(self.weight):
            raise DataError("task weight must be finite and >= 0")

    def with_weight(self, weight: float) -> "TaskSpec":
        return TaskSpec(self.name, self.kind, self.dim, weight)


def default_task_specs() -> tuple[TaskSpec, ...]:
    return (
        TaskSpec("bleu", REGRESSION, 1),
        TaskSpec("rouge", REGRESSION, 3),
        TaskSpec("soft_overlap", REGRESSION, 3),
        TaskSpec("bt_en_fr_ref", REGRESSION, 1),
        TaskSpec("bt_en_fr_cand", REGRESSION, 1),
        TaskSpec("bt_en_de_ref", REGRESSION, 1),
        TaskSpec("bt_en_de_cand", REGRESSION, 1),
        TaskSpec("entailment", CLASSIFICATION, 3),
        TaskSpec("bt_flag", CLASSIFICATION, 2),
    )


_TASKS = default_task_specs()
REGRESSION_TASKS = tuple(t for t in _TASKS if t.kind == REGRESSION)

# Tasks sharing one grid-searched weight, in the conventional grouping:
# string metrics, translation likelihoods, semantic judgments.
WEIGHT_GROUPS: tuple[tuple[str, ...], ...] = (
    ("bleu", "rouge", "soft_overlap"),
    ("bt_en_fr_ref", "bt_en_fr_cand", "bt_en_de_ref", "bt_en_de_cand"),
    ("entailment", "bt_flag"),
)


def regression_dim_labels() -> tuple[str, ...]:
    parts = {1: ("",), 3: (".precision", ".recall", ".fscore")}
    return tuple(task.name + part for task in REGRESSION_TASKS for part in parts[task.dim])


REGRESSION_DIM = sum(t.dim for t in REGRESSION_TASKS)  # 11

# Each task's columns in a signal row, in task order (16 in all).
_ENDS = list(accumulate(t.dim for t in _TASKS))
SIGNAL_COLUMNS: Mapping[str, slice] = {t.name: slice(end - t.dim, end) for t, end in zip(_TASKS, _ENDS)}
SIGNAL_DIM = _ENDS[-1]


def signal_row(values: Mapping[str, Sequence[float]]) -> np.ndarray:
    """One pair's task blocks as a validated float64 row laid out by ``SIGNAL_COLUMNS``.

    Every task needs exactly its dim of finite values, and no other name may
    appear; entailment must be a probability simplex point and bt_flag
    one-hot.
    """
    row = np.empty(SIGNAL_DIM)
    for task in _TASKS:
        if task.name not in values:
            raise DataError(f"signal vector missing task {task.name!r}")
        block = np.asarray(values[task.name], dtype=np.float64)
        if block.shape != (task.dim,):
            raise DataError(f"task {task.name!r} expects {task.dim} values, got {block.shape}")
        if not np.isfinite(block).all():
            raise NumericError(f"task {task.name!r} has non-finite values")
        row[SIGNAL_COLUMNS[task.name]] = block
    extra = set(values) - SIGNAL_COLUMNS.keys()
    if extra:
        raise DataError(f"unknown signal tasks: {sorted(extra)}")

    entail = row[SIGNAL_COLUMNS["entailment"]]
    if np.any(entail < 0) or np.any(entail > 1) or abs(entail.sum() - 1.0) > 1e-9:
        raise NumericError("entailment block must be a probability simplex point")
    if sorted(row[SIGNAL_COLUMNS["bt_flag"]].tolist()) != [0.0, 1.0]:
        raise NumericError("bt_flag block must be exactly one-hot")
    return row


def signal_blocks(row: np.ndarray) -> dict[str, list[float]]:
    """The task blocks of a signal row, as the JSON of a signals record."""
    return {name: row[cols].tolist() for name, cols in SIGNAL_COLUMNS.items()}


# ---------------------------------------------------------------------------
# Likelihood and entailment providers.
# ---------------------------------------------------------------------------

def backtrans_likelihood(target: TokenSeq, conditioning: TokenSeq, scorer, direction: str) -> float:
    """Length-normalized round-trip log-likelihood: log P(target | conditioning) / |target|.

    The scorer owns the pivot-language approximation; this op only divides by
    the target token count, which is why an empty target is an error.
    """
    if len(target) == 0:
        raise NumericError("backtrans_likelihood: empty target sentence (length normalization)")
    value = float(scorer.log_prob(direction, target, conditioning))
    if not math.isfinite(value):
        raise NumericError(f"scorer returned non-finite log-probability {value!r}")
    return value / len(target)


# The unigram stub's add-k constant for each round-trip direction.
UNIGRAM_DIRECTION_K: Mapping[str, float] = {"en-fr": 0.2, "en-de": 0.4}


class UnigramScorer:
    """Offline likelihood stub: token-level unigram log-likelihood of the target.

    The conditioning sentence is ignored; each direction uses its own add-k
    constant (``UNIGRAM_DIRECTION_K``) so the four likelihood dimensions are
    distinct but reproducible.  Not a translation model.
    """

    def __init__(self, counts: Counter, total: int):
        self._counts = counts
        self._total = total
        self._types = len(counts) + 1  # one extra type for unseen tokens

    @classmethod
    def train(cls, segments: Iterable[Sequence[str]]):
        counts: Counter = Counter()
        total = 0
        for seg in segments:
            toks = seg.tokens if isinstance(seg, TokenSeq) else seg
            counts.update(toks)
            total += len(toks)
        return cls(counts, total)

    def token_log_prob(self, token: str, direction: str) -> float:
        k = UNIGRAM_DIRECTION_K[direction]
        return math.log((self._counts[token] + k) / (self._total + k * self._types))

    def log_prob(self, direction: str, target: TokenSeq, conditioning: TokenSeq) -> float:
        if direction not in UNIGRAM_DIRECTION_K:
            raise DataError(f"unknown direction {direction!r}")
        return sum(self.token_log_prob(tok, direction) for tok in target.tokens)


ANTONYMS: Mapping[str, tuple[str, ...]] = {
    "big": ("small", "little"),
    "small": ("big", "large"),
    "large": ("small", "little"),
    "little": ("big", "large"),
    "fast": ("slow",),
    "quick": ("slow",),
    "slow": ("fast", "quick"),
    "old": ("new", "young"),
    "new": ("old",),
    "young": ("old",),
    "happy": ("sad",),
    "sad": ("happy",),
    "hot": ("cold",),
    "cold": ("hot",),
    "near": ("far",),
    "far": ("near",),
    "begins": ("ends",),
    "ends": ("begins",),
    "open": ("closed",),
    "closed": ("open",),
}


class BaselineEntailment:
    """Token-containment baseline for the 3-way entailment signal.

    Entail mass follows the fraction of candidate tokens present in the
    source; Contradict follows antonym-table hits; Neutral takes the rest.
    A baseline, not equivalent to a trained entailment classifier.
    """

    def probs(self, z: TokenSeq, z_tilde: TokenSeq) -> tuple[float, float, float]:
        cand_types = set(z_tilde.tokens)
        src_types = set(z.tokens)
        if not cand_types:
            return (0.0, 0.0, 1.0)
        containment = len(cand_types & src_types) / len(cand_types)
        hits = sum(
            1 for tok in cand_types if any(a in src_types for a in ANTONYMS.get(tok, ()))
        )
        antonym_rate = hits / len(cand_types)
        entail = containment * (1.0 - antonym_rate)
        contradict = antonym_rate
        neutral = max(0.0, 1.0 - entail - contradict)
        total = entail + contradict + neutral
        return (entail / total, contradict / total, neutral / total)


def entailment_probs(z: TokenSeq, z_tilde: TokenSeq, provider) -> np.ndarray:
    """Validated (Entail, Contradict, Neutral) probabilities from a provider."""
    raw = np.asarray(provider.probs(z, z_tilde), dtype=np.float64)
    if raw.shape != (3,):
        raise NumericError(f"entailment provider returned shape {raw.shape}, want (3,)")
    if np.any(raw < 0):
        raise NumericError(f"entailment provider returned negative probability: {raw.tolist()}")
    total = float(raw.sum())
    if abs(total - 1.0) > 1e-6:
        raise NumericError(f"entailment probabilities sum to {total}, beyond tolerance 1e-6")
    return raw / total


# ---------------------------------------------------------------------------
# External scorer protocol: line-delimited requests over a child process.
# Request line:  task <TAB> direction <TAB> z <TAB> z_tilde
# Response line: space-separated reals (one line per request, flushed).
# Tasks: "likelihood" (z = conditioning, z_tilde = scored sentence; 1 real)
# and "entailment" (3 reals).  Direction is "-" when not applicable.
# ---------------------------------------------------------------------------


def request_reals(client: LineClient, count: int, task: str, *fields: str) -> list[float]:
    """One scorer request whose answer must be ``count`` space-separated reals."""
    response = client.request(task, *fields)
    try:
        values = [float(x) for x in response.split()]
    except ValueError as exc:
        raise client.error(f"scorer response is not space-separated reals: {response!r}") from exc
    if len(values) != count:
        raise client.error(f"{task} response must be {count} real(s), got {len(values)}")
    return values


@dataclass
class ExternalLikelihoodScorer:
    """Likelihood provider over a LineClient speaking the scorer protocol."""

    client: LineClient

    def log_prob(self, direction: str, target: TokenSeq, conditioning: TokenSeq) -> float:
        (value,) = request_reals(
            self.client, 1, "likelihood", direction, conditioning.detokenize(), target.detokenize()
        )
        return value


@dataclass
class ExternalEntailment:
    """Entailment provider over a LineClient speaking the scorer protocol."""

    client: LineClient

    def probs(self, z: TokenSeq, z_tilde: TokenSeq) -> tuple[float, ...]:
        return tuple(
            request_reals(self.client, 3, "entailment", "-", z.detokenize(), z_tilde.detokenize())
        )


# ---------------------------------------------------------------------------
# Signal assembly.
# ---------------------------------------------------------------------------


@dataclass
class SignalProviders:
    embeddings: EmbeddingTable
    likelihood: object
    entailment: object


class SignalError(PairscoreError):
    """A provider failed while computing one task; names the task."""

    def __init__(self, task: str, message: str):
        super().__init__(f"task {task!r}: {message}")
        self.task = task


def compute_signals(example: SyntheticExample, providers: SignalProviders) -> np.ndarray:
    """The signal row of one synthetic pair: all nine task blocks, validated.

    Provider failures are re-raised with the task name attached, except a
    broken external child, which ends the run rather than one pair.  The flag
    block is (1, 0) exactly when the origin, unwrapping word drops, is
    backtranslation.
    """
    z, z_t = example.z, example.z_tilde
    values: dict[str, Sequence[float]] = {}

    def run(task_name: str, fn):
        try:
            values[task_name] = fn()
        except ScorerProtocolError:
            raise
        except PairscoreError as exc:
            raise SignalError(task_name, str(exc)) from exc

    run("bleu", lambda: [sentence_bleu(z, z_t)])
    run("rouge", lambda: rouge_n(z, z_t, 1).as_tuple())
    run("soft_overlap", lambda: soft_overlap(z, z_t, providers.embeddings).as_tuple())
    run("bt_en_fr_ref", lambda: [backtrans_likelihood(z, z_t, providers.likelihood, "en-fr")])
    run("bt_en_fr_cand", lambda: [backtrans_likelihood(z_t, z, providers.likelihood, "en-fr")])
    run("bt_en_de_ref", lambda: [backtrans_likelihood(z, z_t, providers.likelihood, "en-de")])
    run("bt_en_de_cand", lambda: [backtrans_likelihood(z_t, z, providers.likelihood, "en-de")])
    run("entailment", lambda: entailment_probs(z, z_t, providers.entailment).tolist())
    is_bt = example.origin.base_kind() == BACKTRANSLATION
    values["bt_flag"] = [1.0, 0.0] if is_bt else [0.0, 1.0]
    return signal_row(values)


# ---------------------------------------------------------------------------
# Label normalization over a corpus of signal rows.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalizationStats:
    labels: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "mean": [float(x) for x in self.mean],
            "std": [float(x) for x in self.std],
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "NormalizationStats":
        return cls(
            labels=tuple(payload["labels"]),
            mean=np.asarray(payload["mean"], dtype=np.float64),
            std=np.asarray(payload["std"], dtype=np.float64),
        )


def fit_normalization(matrix: np.ndarray) -> NormalizationStats:
    """Mean/std per regression column over the rows of a signal matrix (population std).

    Finite values can still overflow the sums; a column whose mean or std is
    not finite raises NumericError naming it, and so does a zero std.
    """
    if len(matrix) < 2:
        raise DataError("normalization needs at least 2 signal vectors")
    regression = matrix[:, :REGRESSION_DIM]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = regression.mean(axis=0)
        std = regression.std(axis=0)
    labels = regression_dim_labels()
    for label, m, s in zip(labels, mean, std):
        if not (math.isfinite(m) and math.isfinite(s)):
            raise NumericError(
                f"regression dimension {label!r} has non-finite normalization stats: mean {m}, std {s}"
            )
        if s == 0.0:
            raise NumericError(f"zero-variance regression dimension {label!r}")
    return NormalizationStats(labels=labels, mean=mean, std=std)


# ---------------------------------------------------------------------------
# Signal corpus file: JSONL with normalization stats in the header record,
# the one record that its regression blocks are standardized.
# ---------------------------------------------------------------------------

SIGNALS_FORMAT = "signal-corpus"
SIGNALS_VERSION = 1


def write_signals(
    pairs: Sequence[tuple[SyntheticExample, np.ndarray]],
    path: str | Path,
    stats: NormalizationStats,
    meta: Mapping[str, object] | None = None,
) -> None:
    """Write ``pairs``, whose rows ``stats`` standardized, with ``stats`` in the header."""
    header = {"normalization": stats.to_json_dict(), **(meta or {})}
    records = ({**example_record(ex), "signals": signal_blocks(row)} for ex, row in pairs)
    write_records(path, SIGNALS_FORMAT, SIGNALS_VERSION, records, header)


def read_signals(
    path: str | Path, vocab: Vocabulary
) -> tuple[list[tuple[SyntheticExample, np.ndarray]], NormalizationStats, dict]:
    """The pairs, normalization stats and header of a signals file.

    A header without stats, or a file without records, raises DataError
    naming the file.
    """
    def parse(obj: dict) -> tuple[SyntheticExample, np.ndarray]:
        return example_from_record(obj, vocab), signal_row(obj["signals"])

    pairs, header = read_records(path, SIGNALS_FORMAT, SIGNALS_VERSION, parse)
    try:
        stats = NormalizationStats.from_json_dict(header["normalization"])
    except (KeyError, TypeError, ValueError):
        raise DataError(f"{path}: header lacks normalization stats; run compute-signals") from None
    if not pairs:
        raise DataError(f"no signal records in {path}")
    return pairs, stats, header


# ---------------------------------------------------------------------------
# The one pre-training data recipe of the CLI, the studies and the demos:
# perturb, label, standardize.
# ---------------------------------------------------------------------------


def generate_pairs(
    texts: Sequence[str], vocab: Vocabulary, config: GenerationConfig, translator, seed: int
) -> list[SyntheticExample]:
    """Tokenize ``texts``, drop empty segments, train the bigram LM on the rest and perturb them."""
    segments = [seq for seq in (tokenize(t, vocab) for t in texts) if len(seq) > 0]
    lm = BigramLM.train(segments, vocab)
    return generate_corpus(segments, config, lm, translator, vocab, seed)


def offline_providers(examples: Sequence[SyntheticExample], dim: int = 32) -> SignalProviders:
    """The built-in providers, fitted on the examples' distinct source segments.

    Hashed embeddings cover the source tokens, and the unigram scorer counts
    each distinct source segment once, however many pairs were made from it.
    """
    sources = list(dict.fromkeys(ex.z for ex in examples))
    return SignalProviders(
        embeddings=EmbeddingTable.hashed((tok for z in sources for tok in z.tokens), dim=dim),
        likelihood=UnigramScorer.train(sources),
        entailment=BaselineEntailment(),
    )


def label_pairs(
    examples: Sequence[SyntheticExample], providers: SignalProviders
) -> tuple[list[tuple[SyntheticExample, np.ndarray]], NormalizationStats, list[tuple[int, str]]]:
    """Signal rows for each example, standardized over the corpus: (pairs, stats, failures).

    Pairs keep input order, and their rows are those of one (n, SIGNAL_DIM)
    matrix.  A pair whose signals fail (say, an empty candidate) goes to
    ``failures`` as (its index in ``examples``, the failing task); a corpus
    where every pair fails raises.
    """
    kept, rows, failures = [], [], []
    for i, ex in enumerate(examples):
        try:
            rows.append(compute_signals(ex, providers))
        except SignalError as exc:
            failures.append((i, exc.task))
        else:
            kept.append(ex)
    if not rows:
        raise DataError("signal computation failed for every example")
    matrix = np.stack(rows)
    stats = fit_normalization(matrix)
    matrix[:, :REGRESSION_DIM] = (matrix[:, :REGRESSION_DIM] - stats.mean) / stats.std
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        signal_row(signal_blocks(matrix[bad[0]]))  # raises, naming the non-finite task
    return list(zip(kept, matrix)), stats, failures
