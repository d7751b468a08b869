"""The optimization loop, run as multitask pre-training or rating fine-tuning.

Pre-training minimizes the weighted multitask loss over normalized signal
vectors and keeps the checkpoint with the lowest loss; fine-tuning minimizes
mean squared error on human ratings and keeps the checkpoint with the best
validation Kendall.  Both are one loop, ``_fit``, and deterministic given
(data, config, seed): data order comes from seed-derived epoch
permutations, and Adam runs in a fixed update order.

The two stages stay apart by construction: pretrain() never sees ratings
and finetune() never sees signal vectors.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .encoder import (
    Batch,
    ModelParams,
    PackedPairs,
    build_batch,
    forward,
    gradients,
    pretrain_loss,
    rating_head,
    task_heads,
)
from .errors import DataError, NumericError, TrainingDiverged
from .signals import SIGNAL_COLUMNS, WEIGHT_GROUPS, TaskSpec, default_task_specs
from .stats import kendall_pairwise
from .synth import SyntheticExample
from .text import RatedExample, SentencePair, Vocabulary


# Adam's constants: the moment decay rates and the denominator's epsilon.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    total_steps: int
    eval_every: int
    batch_size: int = 32
    learning_rate: float = 1e-5
    seed: int = 0
    # Read by nothing in the package; kept so that callers passing stage= still work.
    stage: str = "pretrain"

    def __post_init__(self):
        if self.batch_size < 1:
            raise DataError("batch_size must be >= 1")
        if self.total_steps < 0:
            raise DataError("total_steps must be >= 0")
        if self.eval_every < 1:
            raise DataError("eval_every must be >= 1")
        if self.total_steps > 0 and self.eval_every > self.total_steps:
            raise DataError("eval_every must not exceed total_steps")
        if self.learning_rate < 0:
            raise DataError("learning_rate must be >= 0")
        if self.seed < 0:
            raise DataError("seed must be >= 0")
        if self.stage not in ("pretrain", "finetune"):
            raise DataError(f"unknown stage {self.stage!r}")


@dataclass(frozen=True)
class EvalPoint:
    step: int
    metric: float


class AdamOptimizer:
    """Adam with bias correction, a fixed learning rate and the ``ADAM_*`` constants.

    It updates the tensors of the ``params`` it is made for, which it turns
    into views of one flat vector, the layout of its moments too: a step is
    one update over every element.  Each element sees the operations of a
    per-tensor update, so the bits are the same.
    """

    def __init__(self, params: ModelParams, config: TrainConfig):
        self.config = config
        self.names = sorted(params.tensors)
        tensors = [params.tensors[name] for name in self.names]
        self.flat = np.concatenate([x.ravel() for x in tensors])
        parts = np.split(self.flat, np.cumsum([x.size for x in tensors])[:-1])
        for name, x, part in zip(self.names, tensors, parts):
            params.tensors[name] = part.reshape(x.shape)
        self.params = params
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self.t = 0

    def step(self, params: ModelParams, grads: Mapping[str, np.ndarray]) -> None:
        if params is not self.params:
            raise ValueError("AdamOptimizer.step takes the params it was made for")
        self.t += 1
        correction1 = 1.0 - ADAM_BETA1**self.t
        correction2 = 1.0 - ADAM_BETA2**self.t
        g = np.concatenate([grads[name].ravel() for name in self.names])
        m, v = self.m, self.v
        # In place, each expression in the operation order of
        # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g;
        # p -= lr * (m/c1) / (sqrt(v/c2) + eps).
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        g2 = (1.0 - ADAM_BETA2) * g
        g2 *= g
        v *= ADAM_BETA2
        v += g2
        denom = np.sqrt(v / correction2, out=g2)
        denom += ADAM_EPS
        step = m / correction1
        step *= self.config.learning_rate
        step /= denom
        self.flat -= step


class _EpochSampler:
    """Seed-derived epoch permutations, consumed batch by batch."""

    def __init__(self, n: int, batch_size: int, seed: int):
        self.n = n
        self.batch_size = min(batch_size, n)
        self.rng = np.random.default_rng(seed)
        self._order = self.rng.permutation(n)
        self._pos = 0

    def next_indices(self) -> np.ndarray:
        if self._pos + self.batch_size > self.n:
            self._order = self.rng.permutation(self.n)
            self._pos = 0
        out = self._order[self._pos : self._pos + self.batch_size]
        self._pos += self.batch_size
        return out


def _eval_steps(total_steps: int, eval_every: int) -> list[int]:
    steps = list(range(eval_every, total_steps + 1, eval_every))
    if total_steps > 0 and (not steps or steps[-1] != total_steps):
        steps.append(total_steps)
    return steps


# ---------------------------------------------------------------------------
# The training loop and its two stages.
# ---------------------------------------------------------------------------


# glibc's mallopt options (malloc.h); M_MMAP_THRESHOLD's 64-bit ceiling is 32 MiB.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_heap_kept = False


def _keep_freed_heap() -> None:
    """Keep memory that the encoder frees in the heap, for the rest of the process.

    A training step or a prediction batch frees numpy temporaries of up to
    a few MiB.  By default glibc maps large blocks on their own and trims
    the heap top, so each step or batch hands pages back to the kernel and
    faults them in again (about 900 a step at the drift study's shapes).
    Pinning the mmap threshold at its ceiling and the trim threshold at
    twice that (glibc's own ratio) keeps them in the heap for reuse.
    Training (``_fit``) and the shared forward-only encoder
    (``_encode_chunks``) set it; it is process-wide, set once, and does
    nothing where glibc's ``mallopt`` is missing or refuses a value.
    """
    global _heap_kept
    if _heap_kept:
        return
    _heap_kept = True
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None and mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):
        mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)


def _fit(
    params: ModelParams,
    config: TrainConfig,
    n: int,
    batch_at: Callable[[np.ndarray], Batch],
    evaluate: Callable[[ModelParams], float],
    maximize: bool,
) -> tuple[ModelParams, list[EvalPoint]]:
    """Adam over batches of ``n`` examples; keep the best evaluated checkpoint.

    ``batch_at(idx)`` packs the examples at ``idx``, and its labels pick the
    loss (see ``gradients``); ``evaluate`` scores the working parameters at
    each eval step, best being the max when ``maximize`` and the min
    otherwise, the earliest on a tie.  Zero steps return a copy of
    ``params``.  A non-finite value in a step or an evaluation raises
    TrainingDiverged carrying the best checkpoint so far (``params`` before
    the first evaluation) and the history.
    """
    working = params.copy()
    history: list[EvalPoint] = []
    if config.total_steps == 0:
        return working, history
    optimizer = AdamOptimizer(working, config)
    sampler = _EpochSampler(n, config.batch_size, config.seed)
    eval_at = set(_eval_steps(config.total_steps, config.eval_every))
    best: tuple[float, ModelParams] | None = None
    _keep_freed_heap()
    # Overflow is caught by the encoder's finiteness checks, not by warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, config.total_steps + 1):
            try:
                batch = batch_at(sampler.next_indices())
                _, grads = gradients(working, batch)
                optimizer.step(working, grads)
                if step in eval_at:
                    metric = evaluate(working)
                    if not math.isfinite(metric):
                        raise NumericError(f"evaluation metric is {metric}")
                    history.append(EvalPoint(step, metric))
                    if best is None or (metric > best[0] if maximize else metric < best[0]):
                        best = (metric, working.copy())
            except NumericError as exc:
                last_good = best[1] if best else params.copy()
                raise TrainingDiverged(step, last_good=last_good, history=history) from exc

    assert best is not None
    return best[1], history


def pretrain(
    params: ModelParams,
    dataset: Sequence[tuple[SyntheticExample, np.ndarray]],
    config: TrainConfig,
    vocab: Vocabulary,
) -> tuple[ModelParams, list[EvalPoint]]:
    """Minimize the multitask loss weighted by ``params.tasks``; keep the min-loss checkpoint.

    The model's task table is the only source of the weights, so a
    checkpoint records the weights it was trained with.  Expects signal
    rows whose regression columns are standardized over the corpus.  On
    divergence raises TrainingDiverged carrying the last good checkpoint.
    """
    if not dataset:
        raise DataError("pretrain requires a non-empty dataset")
    tasks = params.tasks
    matrix = np.stack([row for _, row in dataset])
    targets = {task.name: matrix[:, SIGNAL_COLUMNS[task.name]] for task in tasks}
    pairs = [SentencePair(ex.z, ex.z_tilde) for ex, _ in dataset]
    packed = PackedPairs(pairs, vocab, signal_targets=targets)
    chunks = _chunks(pairs, config.batch_size)

    def full_loss(working: ModelParams) -> float:
        losses = np.empty(len(chunks))
        for i, cls in _encode_chunks(working, chunks, vocab):
            start = i * config.batch_size
            chunk_targets = {name: t[start : start + len(cls)] for name, t in targets.items()}
            losses[i] = pretrain_loss(task_heads(working, cls), chunk_targets, tasks) * len(cls)
        # np.cumsum adds in chunk order, where np.sum would add pairwise
        return float(np.cumsum(losses)[-1]) / len(dataset)

    return _fit(params, config, len(dataset), packed.batch, full_loss, maximize=False)


# Pairs that share a head's product in predictions, and padded slots (rows x
# width) per forward call of _encode_chunks.
PREDICT_CHUNK = 64
PREDICT_SLOTS = 1024


def _chunks(items: Sequence, size: int) -> list[Sequence]:
    return [items[start : start + size] for start in range(0, len(items), size)]


def _encode_chunks(
    params: ModelParams, chunks: Sequence[Sequence[SentencePair]], vocab: Vocabulary
) -> Iterator[tuple[int, np.ndarray]]:
    """Each chunk's index and [cls] rows, bit for bit what ``forward`` gives the chunk packed alone.

    A row's bits depend on the width its batch pads to, not on the other rows.
    So each distinct pair of chunks of width W (their longest packed pair) is
    encoded once, in batches of at most ``PREDICT_SLOTS // W`` rows (at least
    one) padded to W, and a chunk's rows may come from two batches.  Chunks
    come one width at a time, so that only one width's rows are held.  A
    head's bits depend on the rows that share its product (see
    ``rating_head``), so callers run the heads on each chunk's rows alone.
    """
    _keep_freed_heap()
    by_width: dict[int, list[int]] = {}
    for i, pairs in enumerate(chunks):
        width = 3 + max(len(p.reference.ids) + len(p.candidate.ids) for p in pairs)
        by_width.setdefault(width, []).append(i)
    for width, members in by_width.items():
        # (reference ids, candidate ids) -> pair; only the ids are packed
        distinct = {(p.reference.ids, p.candidate.ids): p for i in members for p in chunks[i]}
        row_of = {key: row for row, key in enumerate(distinct)}
        pairs = list(distinct.values())
        step = max(1, PREDICT_SLOTS // width)
        cls = np.concatenate([
            forward(params, build_batch(pairs[start : start + step], vocab, width=width)).cls
            for start in range(0, len(pairs), step)
        ])
        for i in members:
            yield i, cls[[row_of[p.reference.ids, p.candidate.ids] for p in chunks[i]]]


def predict_ratings(
    params: ModelParams, examples: Sequence[RatedExample], vocab: Vocabulary
) -> np.ndarray:
    """Inference-mode rating predictions; the head runs on ``PREDICT_CHUNK`` examples at a time."""
    out = np.empty(len(examples))
    for i, cls in _encode_chunks(params, _chunks([ex.pair for ex in examples], PREDICT_CHUNK), vocab):
        out[i * PREDICT_CHUNK : i * PREDICT_CHUNK + len(cls)] = rating_head(params, cls)
    return out


def predict_records(
    params: ModelParams, records: Sequence[Sequence[SentencePair]], vocab: Vocabulary
) -> np.ndarray:
    """Each record's score: ``predict_ratings`` on its pairs (see ``text.record_pairs``), then max."""
    chunks, starts = [], []
    for pairs in records:
        starts.append(len(chunks))
        chunks += _chunks(pairs, PREDICT_CHUNK)
    maxima = np.empty(len(chunks))
    for i, cls in _encode_chunks(params, chunks, vocab):
        maxima[i] = rating_head(params, cls).max()
    return np.maximum.reduceat(maxima, np.array(starts, dtype=np.intp))


def validation_kendall(
    params: ModelParams, validation: Sequence[RatedExample], vocab: Vocabulary
) -> float:
    """Pooled Kendall of the predictions against the ratings of ``validation``."""
    preds = predict_ratings(params, validation, vocab)
    return kendall_pairwise([ex.rating for ex in validation], list(preds), [0] * len(validation))


def finetune(
    params: ModelParams,
    train_set: Sequence[RatedExample],
    validation_set: Sequence[RatedExample],
    config: TrainConfig,
    vocab: Vocabulary,
) -> tuple[ModelParams, list[EvalPoint]]:
    """Minimize rating MSE; return the checkpoint with max validation Kendall.

    Ties keep the earliest best checkpoint.  Zero steps returns the input
    parameters unchanged.
    """
    if not train_set:
        raise DataError("finetune requires a non-empty training set")
    if not validation_set:
        raise DataError("finetune requires a non-empty validation set")
    ratings = [ex.rating for ex in train_set]
    packed = PackedPairs([ex.pair for ex in train_set], vocab, ratings=ratings)
    # validation_kendall is looked up at each call, so a rebinding of the module
    # global (bench/layers.py times it that way) sees every evaluation.
    return _fit(
        params, config, len(train_set), packed.batch,
        lambda working: validation_kendall(working, validation_set, vocab), maximize=True,
    )


# ---------------------------------------------------------------------------
# Task-weight grouping.
# ---------------------------------------------------------------------------


def set_task_weights(group_weights: Sequence[float]) -> tuple[TaskSpec, ...]:
    """The default tasks with one shared weight per group of ``WEIGHT_GROUPS``, in order."""
    if len(group_weights) != len(WEIGHT_GROUPS):
        raise DataError("need exactly one weight per group")
    weight_of = {name: float(w) for group, w in zip(WEIGHT_GROUPS, group_weights) for name in group}
    return tuple(t.with_weight(weight_of[t.name]) for t in default_task_specs())


# ---------------------------------------------------------------------------
# Training manifests.
# ---------------------------------------------------------------------------


def params_digest(params: ModelParams) -> str:
    """Content hash of all tensors, for manifests."""
    digest = hashlib.sha256()
    for name in sorted(params.tensors):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(params.tensors[name], dtype="<f8").tobytes())
    return digest.hexdigest()[:16]


def manifest_entry(
    stage: str,
    steps: int,
    history: Sequence[EvalPoint],
    params: ModelParams,
    checkpoint: str | Path,
) -> dict:
    """One stage of a training manifest."""
    return {
        "stage": stage,
        "steps": steps,
        "history": [{"step": p.step, "metric": p.metric} for p in history],
        "params_digest": params_digest(params),
        "checkpoint": str(checkpoint),
    }


def save_manifest(manifest: Sequence[Mapping], path: str | Path, meta: Mapping | None = None) -> None:
    payload = {"stages": list(manifest)}
    payload.update(meta or {})
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
