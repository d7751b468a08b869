"""The optimization loop, run as multitask pre-training or rating fine-tuning.

Pre-training minimizes the weighted multitask loss over normalized signal
vectors and keeps the checkpoint with the lowest loss; fine-tuning minimizes
mean squared error on human ratings and keeps the checkpoint with the best
validation Kendall.  Both are one loop, ``_fit``, and deterministic given
(data, config, seed): data order comes from seed-derived epoch
permutations, dropout masks from a second seed-derived stream, and Adam
runs in a fixed update order.

The two stages stay apart by construction: pretrain() never sees ratings
and finetune() never sees signal vectors.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .encoder import (
    Batch,
    ModelParams,
    build_batch,
    forward,
    gradients,
    pack_pair,
    pretrain_loss,
    rating_head,
)
from .errors import DataError, NumericError, TrainingDiverged
from .signals import TaskSpec, SignalVector, default_task_specs
from .stats import kendall_pairwise
from .synth import SyntheticExample
from .text import RatedExample, RatingRecord, SentencePair, TokenSeq, Vocabulary, tokenize


@dataclass(frozen=True)
class TrainConfig:
    total_steps: int
    eval_every: int
    batch_size: int = 32
    learning_rate: float = 1e-5
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
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
        if self.stage not in ("pretrain", "finetune"):
            raise DataError(f"unknown stage {self.stage!r}")


@dataclass(frozen=True)
class EvalPoint:
    step: int
    metric: float


@dataclass
class CheckpointRecord:
    """Best checkpoint seen so far: max for Kendall, min for loss."""

    step: int
    metric: float
    params: ModelParams


class _BestTracker:
    def __init__(self, maximize: bool):
        self.maximize = maximize
        self.record: CheckpointRecord | None = None

    def offer(self, step: int, metric: float, params: ModelParams) -> bool:
        better = self.record is None or (
            metric > self.record.metric if self.maximize else metric < self.record.metric
        )
        if better:
            self.record = CheckpointRecord(step, metric, params.copy())
        return better


class AdamOptimizer:
    """Adam with bias correction and a fixed learning rate."""

    def __init__(self, params: ModelParams, config: TrainConfig):
        self.config = config
        self.m = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        self.t = 0

    def step(self, params: ModelParams, grads: Mapping[str, np.ndarray]) -> None:
        cfg = self.config
        self.t += 1
        correction1 = 1.0 - cfg.beta1**self.t
        correction2 = 1.0 - cfg.beta2**self.t
        # In place, each expression in the operation order of
        # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g;
        # p -= lr * (m/c1) / (sqrt(v/c2) + eps).
        for name in sorted(params.tensors):
            g, m, v = grads[name], self.m[name], self.v[name]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            g2 = (1.0 - cfg.beta2) * g
            g2 *= g
            v *= cfg.beta2
            v += g2
            denom = np.sqrt(v / correction2, out=g2)
            denom += cfg.adam_eps
            step = m / correction1
            step *= cfg.learning_rate
            step /= denom
            params.tensors[name] -= step


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


def _fit(
    params: ModelParams,
    config: TrainConfig,
    n: int,
    batch_at: Callable[[np.ndarray], Batch],
    loss_spec,
    evaluate: Callable[[ModelParams], float],
    maximize: bool,
) -> tuple[ModelParams, list[EvalPoint]]:
    """Adam on ``loss_spec`` over batches of ``n`` examples; keep the best evaluated checkpoint.

    ``batch_at(idx)`` packs the examples at ``idx``; ``evaluate`` scores the
    working parameters at each eval step, best being the max when
    ``maximize`` and the min otherwise.  Zero steps return a copy of
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
    # A stream of its own, so dropout never shifts the data order; nothing is
    # drawn from it when the model's dropout rate is 0.
    dropout_rng = np.random.default_rng((config.seed, 1))
    eval_at = set(_eval_steps(config.total_steps, config.eval_every))
    tracker = _BestTracker(maximize)
    # Overflow is caught by the encoder's finiteness checks, not by warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, config.total_steps + 1):
            try:
                batch = batch_at(sampler.next_indices())
                _, grads = gradients(working, batch, loss_spec, train=True, rng=dropout_rng)
                optimizer.step(working, grads)
                if step in eval_at:
                    metric = evaluate(working)
                    if not math.isfinite(metric):
                        raise NumericError(f"evaluation metric is {metric}")
                    history.append(EvalPoint(step, metric))
                    tracker.offer(step, metric, working)
            except NumericError as exc:
                best = tracker.record.params if tracker.record else params.copy()
                raise TrainingDiverged(step, last_good=best, history=history) from exc

    assert tracker.record is not None
    return tracker.record.params, history


def _make_batch(pairs, vocab, idx, targets=None, ratings=None) -> Batch:
    chosen = [pairs[i] for i in idx]
    return build_batch(
        chosen,
        vocab,
        ratings=None if ratings is None else [ratings[i] for i in idx],
        signal_targets=None if targets is None else {k: v[idx] for k, v in targets.items()},
    )


def pretrain(
    params: ModelParams,
    dataset: Sequence[tuple[SyntheticExample, SignalVector]],
    tasks: Sequence[TaskSpec],
    config: TrainConfig,
    vocab: Vocabulary,
) -> tuple[ModelParams, list[EvalPoint]]:
    """Minimize the weighted multitask loss; keep the min-loss checkpoint.

    Expects normalized signal vectors (regression labels standardized over
    the corpus).  On divergence raises TrainingDiverged carrying the last
    good checkpoint.
    """
    if not dataset:
        raise DataError("pretrain requires a non-empty dataset")
    tasks = tuple(tasks)
    pairs = [SentencePair(ex.z, ex.z_tilde) for ex, _ in dataset]
    targets = {task.name: np.stack([vec[task.name] for _, vec in dataset]) for task in tasks}

    def full_loss(working: ModelParams) -> float:
        total, count = 0.0, 0
        for start in range(0, len(dataset), config.batch_size):
            idx = np.arange(start, min(start + config.batch_size, len(dataset)))
            batch = _make_batch(pairs, vocab, idx, targets=targets)
            outputs = forward(working, batch).task_outputs
            loss = pretrain_loss(outputs, batch.signal_targets, tasks)
            total += loss * len(idx)
            count += len(idx)
        return total / count

    return _fit(
        params, config, len(dataset), lambda idx: _make_batch(pairs, vocab, idx, targets=targets),
        tasks, full_loss, maximize=False,
    )


def predict_ratings(
    params: ModelParams, examples: Sequence[RatedExample], vocab: Vocabulary, batch_size: int = 64
) -> np.ndarray:
    """Inference-mode rating predictions, one scalar per example."""
    out = np.empty(len(examples))
    for start in range(0, len(examples), batch_size):
        chunk = examples[start : start + batch_size]
        batch = build_batch([ex.pair for ex in chunk], vocab)
        out[start : start + len(chunk)] = forward(params, batch).ratings
    return out


def predict_records(
    params: ModelParams, records: Sequence[RatingRecord], vocab: Vocabulary, batch_size: int
) -> np.ndarray:
    """Each record's score: the max predicted rating over its references.

    Bit-identical to ``predict_ratings`` on one record's references at a
    time, then ``max``.  The encoder gives a row the same bits in any batch
    of the same width, but padding it to a wider batch changes them, and so
    does the number of rows in the rating head's product.  So records of
    equal width (the longest packed pair of the record, the width it pads to
    alone) share batches of whole records, at most ``batch_size`` rows, and
    the head runs on each record's rows alone.  A record too large for one
    batch is scored alone by ``predict_ratings``.  Each distinct string is
    tokenized once.
    """
    if batch_size < 1:
        raise DataError("batch_size must be >= 1")
    # predict_ratings cuts more than 64 examples into chunks of their own width
    limit = min(batch_size, 64)
    tokens: dict[str, TokenSeq] = {}

    def tokenized(s: str) -> TokenSeq:
        if s not in tokens:
            tokens[s] = tokenize(s, vocab)
        return tokens[s]

    scores = np.empty(len(records))

    def run(batch: list[tuple[int, list[SentencePair]]]) -> None:
        cls = forward(params, build_batch([pair for _, pairs in batch for pair in pairs], vocab)).cls
        start = 0
        for i, pairs in batch:
            scores[i] = rating_head(params, cls[start : start + len(pairs)]).max()
            start += len(pairs)

    open_batches: dict[int, list[tuple[int, list[SentencePair]]]] = {}  # by width
    for i, record in enumerate(records):
        candidate = tokenized(record.candidate)
        pairs = [SentencePair(tokenized(ref), candidate) for ref in record.references]
        if len(pairs) > limit:
            examples = [RatedExample(pair, 0.0, record.source_id) for pair in pairs]
            scores[i] = predict_ratings(params, examples, vocab).max()
            continue
        batch = open_batches.setdefault(max(len(pack_pair(p, vocab)[0]) for p in pairs), [])
        if sum(len(p) for _, p in batch) + len(pairs) > limit:
            run(batch)
            batch.clear()
        batch.append((i, pairs))
    for batch in open_batches.values():
        run(batch)
    return scores


def validation_kendall(
    params: ModelParams, validation: Sequence[RatedExample], vocab: Vocabulary
) -> float:
    """Pooled Kendall of the predictions against the ratings of ``validation``."""
    preds = predict_ratings(params, validation, vocab)
    human = [ex.rating for ex in validation]
    return kendall_pairwise(human, list(preds), [0] * len(validation))


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
    pairs = [ex.pair for ex in train_set]
    ratings = [ex.rating for ex in train_set]
    # validation_kendall is looked up at each call, so a rebinding of the module
    # global (bench/layers.py times it that way) sees every evaluation.
    return _fit(
        params, config, len(train_set),
        lambda idx: _make_batch(pairs, vocab, idx, ratings=ratings), "supervised",
        lambda working: validation_kendall(working, validation_set, vocab), maximize=True,
    )


# ---------------------------------------------------------------------------
# Task-weight grouping.
# ---------------------------------------------------------------------------


def set_task_weights(
    groups: Sequence[Sequence[str]], group_weights: Sequence[float]
) -> tuple[TaskSpec, ...]:
    """Assign one shared weight per task group; groups must partition the tasks."""
    base = default_task_specs()
    if len(groups) != len(group_weights):
        raise DataError("need exactly one weight per group")
    weight_of: dict[str, float] = {}
    for group, weight in zip(groups, group_weights):
        for name in group:
            if name in weight_of:
                raise DataError(f"task {name!r} appears in two groups")
            weight_of[name] = float(weight)
    names = {t.name for t in base}
    unknown = set(weight_of) - names
    if unknown:
        raise DataError(f"groups name unknown tasks: {sorted(unknown)}")
    missing = names - set(weight_of)
    if missing:
        raise DataError(f"groups do not cover tasks: {sorted(missing)}")
    return tuple(t.with_weight(weight_of[t.name]) for t in base)


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
    """One stage of a training manifest; ``stage`` fills both its name and its kind."""
    return {
        "stage": stage,
        "kind": stage,
        "steps": steps,
        "history": [{"step": p.step, "metric": p.metric} for p in history],
        "params_digest": params_digest(params),
        "checkpoint": str(checkpoint),
    }


def save_manifest(manifest: Sequence[Mapping], path: str | Path, meta: Mapping | None = None) -> None:
    payload = {"stages": list(manifest)}
    payload.update(meta or {})
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
