"""Optimization loops: multitask pre-training, rating fine-tuning, and recipes.

Pre-training minimizes the weighted multitask loss over normalized signal
vectors; fine-tuning minimizes mean squared error on human ratings and keeps
the checkpoint with the best validation Kendall.  Both are deterministic
given (data, config, seed): data order comes from seed-derived epoch
permutations and Adam runs in a fixed update order.

Stage isolation is structural: pretrain() never sees ratings and finetune()
never sees signal vectors.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .encoder import (
    Batch,
    ModelParams,
    build_batch,
    forward,
    gradients,
    pretrain_loss,
    save_checkpoint,
)
from .errors import DataError, NumericError, TrainingDiverged
from .signals import TaskSpec, SignalVector, default_task_specs
from .stats import kendall_pairwise
from .synth import SyntheticExample
from .text import RatedExample, SentencePair, Vocabulary


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
# Pre-training on signal vectors.
# ---------------------------------------------------------------------------


def _pretrain_targets(
    vectors: Sequence[SignalVector], tasks: Sequence[TaskSpec]
) -> dict[str, np.ndarray]:
    return {task.name: np.stack([v[task.name] for v in vectors]) for task in tasks}


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
    pairs = [SentencePair(ex.z, ex.z_tilde) for ex, _ in dataset]
    vectors = [vec for _, vec in dataset]
    targets = _pretrain_targets(vectors, tasks)
    tasks = tuple(tasks)

    working = params.copy()
    optimizer = AdamOptimizer(working, config)
    sampler = _EpochSampler(len(dataset), config.batch_size, config.seed)
    eval_at = set(_eval_steps(config.total_steps, config.eval_every))
    history: list[EvalPoint] = []
    tracker = _BestTracker(maximize=False)

    def full_loss() -> float:
        total, count = 0.0, 0
        for start in range(0, len(dataset), config.batch_size):
            idx = np.arange(start, min(start + config.batch_size, len(dataset)))
            batch = _make_batch(pairs, vocab, idx, targets=targets)
            outputs = forward(working, batch).task_outputs
            loss = pretrain_loss(outputs, batch.signal_targets, tasks)
            total += loss * len(idx)
            count += len(idx)
        return total / count

    if config.total_steps == 0:
        return working, history

    for step in range(1, config.total_steps + 1):
        idx = sampler.next_indices()
        batch = _make_batch(pairs, vocab, idx, targets=targets)
        try:
            loss, grads = gradients(working, batch, tasks)
        except NumericError as exc:
            best = tracker.record.params if tracker.record else params.copy()
            raise TrainingDiverged(step, last_good=best, history=history) from exc
        optimizer.step(working, grads)
        if step in eval_at:
            metric = full_loss()
            history.append(EvalPoint(step, metric))
            tracker.offer(step, metric, working)

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


# ---------------------------------------------------------------------------
# Fine-tuning on human ratings.
# ---------------------------------------------------------------------------


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


def validation_kendall(
    params: ModelParams, validation: Sequence[RatedExample], vocab: Vocabulary
) -> float:
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

    working = params.copy()
    if config.total_steps == 0:
        return working, []
    optimizer = AdamOptimizer(working, config)
    sampler = _EpochSampler(len(train_set), config.batch_size, config.seed)
    eval_at = set(_eval_steps(config.total_steps, config.eval_every))
    history: list[EvalPoint] = []
    tracker = _BestTracker(maximize=True)

    for step in range(1, config.total_steps + 1):
        idx = sampler.next_indices()
        batch = _make_batch(pairs, vocab, idx, ratings=ratings)
        try:
            loss, grads = gradients(working, batch, "supervised")
        except NumericError as exc:
            best = tracker.record.params if tracker.record else params.copy()
            raise TrainingDiverged(step, last_good=best, history=history) from exc
        optimizer.step(working, grads)
        if step in eval_at:
            tau = validation_kendall(working, validation_set, vocab)
            history.append(EvalPoint(step, tau))
            tracker.offer(step, tau, working)

    assert tracker.record is not None
    return tracker.record.params, history


# ---------------------------------------------------------------------------
# Task-weight grouping.
# ---------------------------------------------------------------------------


def set_task_weights(
    groups: Sequence[Sequence[str]],
    group_weights: Sequence[float],
    base: Sequence[TaskSpec] | None = None,
) -> tuple[TaskSpec, ...]:
    """Assign one shared weight per task group; groups must partition the tasks."""
    base = tuple(base if base is not None else default_task_specs())
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
# Multi-stage recipes.
# ---------------------------------------------------------------------------


@dataclass
class Stage:
    kind: str  # "pretrain" | "finetune"
    config: TrainConfig
    name: str = ""
    # pretrain payload
    dataset: Sequence[tuple[SyntheticExample, SignalVector]] | None = None
    tasks: Sequence[TaskSpec] | None = None
    # finetune payload
    train: Sequence[RatedExample] | None = None
    validation: Sequence[RatedExample] | None = None

    def __post_init__(self):
        if self.kind not in ("pretrain", "finetune"):
            raise DataError(f"unknown stage kind {self.kind!r}")
        if not self.name:
            self.name = self.kind


class RecipeError(DataError):
    """A stage failed; carries the manifest of the stages that completed."""

    def __init__(self, stage_name: str, cause: Exception, partial_manifest: list):
        super().__init__(f"stage {stage_name!r} failed: {cause}")
        self.partial_manifest = partial_manifest
        self.cause = cause


def params_digest(params: ModelParams) -> str:
    """Content hash of all tensors, for manifests."""
    digest = hashlib.sha256()
    for name in sorted(params.tensors):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(params.tensors[name], dtype="<f8").tobytes())
    return digest.hexdigest()[:16]


def manifest_entry(
    name: str,
    kind: str,
    steps: int,
    history: Sequence[EvalPoint],
    params: ModelParams,
    checkpoint: str | Path | None = None,
) -> dict:
    """One stage of a training manifest; ``checkpoint`` is included when given."""
    entry = {
        "stage": name,
        "kind": kind,
        "steps": steps,
        "history": [{"step": p.step, "metric": p.metric} for p in history],
        "params_digest": params_digest(params),
    }
    if checkpoint is not None:
        entry["checkpoint"] = str(checkpoint)
    return entry


def run_recipe(
    initial_params: ModelParams,
    stages: Sequence[Stage],
    vocab: Vocabulary,
    checkpoint_dir: str | Path | None = None,
) -> tuple[ModelParams, list[dict]]:
    """Thread parameters through the stages; emit a per-stage manifest.

    An empty recipe returns the initial parameters.  Any stage failure aborts
    with a RecipeError carrying the partial manifest.
    """
    params = initial_params
    manifest: list[dict] = []
    for i, stage in enumerate(stages):
        try:
            if stage.kind == "pretrain":
                if stage.dataset is None or stage.tasks is None:
                    raise DataError("pretrain stage needs dataset and tasks")
                params, history = pretrain(params, stage.dataset, stage.tasks, stage.config, vocab)
            else:
                if stage.train is None or stage.validation is None:
                    raise DataError("finetune stage needs train and validation sets")
                params, history = finetune(
                    params, stage.train, stage.validation, stage.config, vocab
                )
        except Exception as exc:
            raise RecipeError(stage.name, exc, manifest) from exc
        path = None
        if checkpoint_dir is not None:
            Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
            path = Path(checkpoint_dir) / f"stage{i:02d}_{stage.name}.ckpt"
            save_checkpoint(params, path)
        manifest.append(
            manifest_entry(stage.name, stage.kind, stage.config.total_steps, history, params, path)
        )
    return params, manifest


def save_manifest(manifest: Sequence[Mapping], path: str | Path, meta: Mapping | None = None) -> None:
    payload = {"stages": list(manifest)}
    payload.update(meta or {})
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
