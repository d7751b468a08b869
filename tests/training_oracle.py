"""Per-step reference for ``pairscore.training.pretrain`` and ``finetune``.

This is the plain formulation of the training loop: every step packs its
examples with ``build_batch``, the pre-training loss and the validation
ratings are evaluated on batches packed the same way, and Adam updates one
tensor at a time.  The package packs each training set once, slices its
batches from it, encodes evaluation pairs in shared width buckets and
updates all tensors in one flat pass, and must agree with this module bit
for bit.  Divergence handling is not modelled.
"""

from __future__ import annotations

import numpy as np

from pairscore.encoder import build_batch, forward, gradients, pretrain_loss
from pairscore.signals import SIGNAL_COLUMNS
from pairscore.stats import kendall_pairwise
from pairscore.text import SentencePair
from pairscore.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    EvalPoint,
    _EpochSampler,
    _eval_steps,
)

from predict_oracle import reference_predict_ratings


def _adam_step(params, grads, m, v, t, cfg):
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    for name in sorted(params.tensors):
        g = grads[name]
        m[name] = ADAM_BETA1 * m[name] + (1.0 - ADAM_BETA1) * g
        v[name] = ADAM_BETA2 * v[name] + (1.0 - ADAM_BETA2) * g * g
        params.tensors[name] -= cfg.learning_rate * (m[name] / c1) / (np.sqrt(v[name] / c2) + ADAM_EPS)


def _fit(params, config, n, batch_at, evaluate, maximize):
    working = params.copy()
    history = []
    if config.total_steps == 0:
        return working, history
    m = {k: np.zeros_like(x) for k, x in working.tensors.items()}
    v = {k: np.zeros_like(x) for k, x in working.tensors.items()}
    sampler = _EpochSampler(n, config.batch_size, config.seed)
    eval_at = set(_eval_steps(config.total_steps, config.eval_every))
    evaluated = []  # (metric, params) at each evaluation
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, config.total_steps + 1):
            batch = batch_at(sampler.next_indices())
            _, grads = gradients(working, batch)
            _adam_step(working, grads, m, v, step, config)
            if step in eval_at:
                metric = evaluate(working)
                history.append(EvalPoint(step, metric))
                evaluated.append((metric, working.copy()))
    # max and min return the first of equal metrics: a tie keeps the earliest.
    return (max if maximize else min)(evaluated, key=lambda e: e[0])[1], history


def _batch(pairs, vocab, idx, ratings=None, targets=None):
    return build_batch(
        [pairs[i] for i in idx],
        vocab,
        ratings=None if ratings is None else [ratings[i] for i in idx],
        signal_targets=None if targets is None else {k: t[idx] for k, t in targets.items()},
    )


def reference_pretrain(params, dataset, config, vocab):
    tasks = params.tasks
    pairs = [SentencePair(ex.z, ex.z_tilde) for ex, _ in dataset]
    targets = {task.name: np.stack([row[SIGNAL_COLUMNS[task.name]] for _, row in dataset]) for task in tasks}

    def full_loss(working):
        total, count = 0.0, 0
        for start in range(0, len(dataset), config.batch_size):
            idx = np.arange(start, min(start + config.batch_size, len(dataset)))
            batch = _batch(pairs, vocab, idx, targets=targets)
            total += pretrain_loss(forward(working, batch).task_outputs, batch.signal_targets, tasks) * len(idx)
            count += len(idx)
        return total / count

    return _fit(
        params, config, len(dataset), lambda idx: _batch(pairs, vocab, idx, targets=targets),
        full_loss, maximize=False,
    )


def reference_finetune(params, train_set, validation_set, config, vocab):
    pairs = [ex.pair for ex in train_set]
    ratings = [ex.rating for ex in train_set]
    return _fit(
        params, config, len(train_set), lambda idx: _batch(pairs, vocab, idx, ratings=ratings),
        lambda working: kendall_pairwise(
            [ex.rating for ex in validation_set],
            reference_predict_ratings(working, validation_set, vocab),
            [0] * len(validation_set),
        ),
        maximize=True,
    )
