"""Experiment harnesses: the study grid, per-task ablations and the quality-drift study.

The ablation runner retrains the metric with individual pre-training tasks
switched on or off and reports the Kendall delta against a no-pre-training
baseline, sharing seeds across rows so dead configurations reproduce the
baseline exactly.  The drift study fine-tunes on left-skewed ratings and
evaluates on right-skewed ones across a range of skew factors.  Both score
their starting points through one grid.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .encoder import EncoderConfig, ModelParams, init_model
from .errors import DataError
from .signals import TaskSpec, generate_pairs, label_pairs, offline_providers
# kendall_pairwise is not called here: bench/workloads.py wraps experiments.kendall_pairwise
# to see every drift tau.
from .stats import SkewConfig, kendall_pairwise, skew_split
from .synth import BigramLM, GenerationConfig, StubBacktranslator, SyntheticExample
from .text import (
    RatedExample,
    SentencePair,
    TokenSeq,
    Vocabulary,
    split_no_leak,
    split_tokens,
    tokenize,
)
from .training import TrainConfig, finetune, pretrain, validation_kendall


# ---------------------------------------------------------------------------
# The study grid: every comparison fine-tunes and scores its starts one way.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Split:
    """One fine-tuning split: train and validation sides, a held-out test side, the settings."""

    train: Sequence[RatedExample]
    validation: Sequence[RatedExample]
    test: Sequence[RatedExample]
    config: TrainConfig


def run_grid(
    arms: Mapping[str, ModelParams],
    splits: Mapping[object, Sequence[Split]],
    vocab: Vocabulary,
    progress: Callable[[str], None] | None = None,
) -> dict[str, dict[object, list[float]]]:
    """Fine-tune each arm on each split; arm -> condition -> test-side Kendall per split.

    ``splits`` files the splits under a condition, such as a skew factor, and
    each condition's taus are in split order.  Every cell starts from its
    arm's parameters, so the arms differ only in where they start.  The
    first failure stops the grid.
    """
    say = progress or (lambda _msg: None)
    taus: dict[str, dict[object, list[float]]] = {arm: {c: [] for c in splits} for arm in arms}
    for condition, condition_splits in splits.items():
        for i, split in enumerate(condition_splits):
            for arm, start in arms.items():
                tuned, _ = finetune(start, split.train, split.validation, split.config, vocab)
                tau = validation_kendall(tuned, split.test, vocab)
                taus[arm][condition].append(tau)
                say(f"condition {condition} split {i} {arm}: tau={tau:+.4f}")
    return taus


# ---------------------------------------------------------------------------
# Ablations over the pre-training task set.
# ---------------------------------------------------------------------------


@dataclass
class AblationRow:
    name: str
    mode: str
    active: tuple[str, ...]
    tau: float | None
    delta: float | None
    error: str | None = None


def run_ablation(
    vocab: Vocabulary,
    encoder_config: EncoderConfig,
    base_tasks: tuple[TaskSpec, ...],
    synthetic: Sequence[tuple[SyntheticExample, np.ndarray]],
    pretrain_config: TrainConfig,
    split: Split,
    mode: str,
) -> list[AblationRow]:
    """One row per pre-training task, plus the delta vs no pre-training.

    single-task: only the named task keeps its base weight.  leave-one-out:
    the named task's weight is zeroed, all others keep theirs.  Each row's
    model carries the row's task table; rows share the same seeds and initial
    tensors (the weights do not change them), so a row whose pre-training has
    no active weight reports a delta of exactly zero.  Failures are recorded
    per row and do not stop the run; a failed baseline does.
    """
    if mode not in ("single-task", "leave-one-out"):
        raise DataError(f"unknown ablation mode {mode!r}")

    def tau(arm: str, start: ModelParams) -> float:
        return run_grid({arm: start}, {mode: [split]}, vocab)[arm][mode][0]

    baseline_tau = tau("no pre-training", init_model(encoder_config, base_tasks))
    rows: list[AblationRow] = []
    for focus in base_tasks:
        # single-task keeps the focus task's weight, leave-one-out every other one
        tasks = tuple(
            t.with_weight(t.weight if (t.name == focus.name) == (mode == "single-task") else 0.0)
            for t in base_tasks
        )
        active = tuple(t.name for t in tasks if t.weight != 0.0)
        try:
            pretrained, _ = pretrain(
                init_model(encoder_config, tasks), synthetic, pretrain_config, vocab
            )
            row_tau = tau(focus.name, pretrained)
            rows.append(AblationRow(focus.name, mode, active, row_tau, row_tau - baseline_tau))
        except Exception as exc:  # keep remaining rows running
            rows.append(AblationRow(focus.name, mode, active, None, None, error=str(exc)))
    return rows


def ablation_to_csv(rows: Sequence[AblationRow], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task", "mode", "active_tasks", "kendall", "delta_vs_no_pretraining", "error"])
        for row in rows:
            writer.writerow(
                [
                    row.name,
                    row.mode,
                    " ".join(row.active),
                    "" if row.tau is None else repr(row.tau),
                    "" if row.delta is None else repr(row.delta),
                    row.error or "",
                ]
            )


# ---------------------------------------------------------------------------
# Drift task: ratings as a noisy monotone function of edit similarity.
# ---------------------------------------------------------------------------


def edit_similarity(a: Sequence[str], b: Sequence[str]) -> float:
    """1 - levenshtein(a, b) / max(|a|, |b|) over tokens.

    The DP runs on what lies between the common prefix and the common suffix
    (taken from what the prefix leaves), which keeps the distance exact.
    """
    a, b = list(a), list(b)
    longest = max(len(a), len(b))
    if not longest:
        return 1.0
    shared = min(len(a), len(b))
    start = 0
    while start < shared and a[start] == b[start]:
        start += 1
    end = 0
    while end < shared - start and a[-1 - end] == b[-1 - end]:
        end += 1
    a, b = a[start : len(a) - end], b[start : len(b) - end]
    prev = list(range(len(b) + 1))
    for i, tok_a in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, tok_b in enumerate(b, start=1):
            cost = 0 if tok_a == tok_b else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
        prev = cur
    return 1.0 - prev[-1] / longest


def _one_perturbation(seq: TokenSeq, rng, lm, translator, vocab: Vocabulary) -> TokenSeq:
    from .synth import backtranslate, drop_words, fill_masks, plan_masks

    roll = rng.random()
    if roll < 0.45 and len(seq) > 0:
        strategy = "scatter" if rng.random() < 0.6 else "contiguous"
        plan = plan_masks(seq, strategy, int(rng.integers(0, 2**31)))
        return fill_masks(seq, plan, lm, beam_width=4)
    if roll < 0.75:
        dropped = drop_words(seq, int(rng.integers(0, 2**31)))
        return dropped if len(dropped) > 0 else TokenSeq(seq.tokens[:1], seq.ids[:1])
    return backtranslate(seq, translator, vocab, rng)


def build_drift_dataset(
    segments: Sequence[str],
    vocab: Vocabulary,
    n_records: int,
    seed: int,
    noise_sd: float = 4.0,
) -> list[RatedExample]:
    """Rated pairs whose rating is edit similarity (0-100) plus Gaussian noise.

    Candidates come from the same perturbation families as the synthetic
    pre-training pairs (mask filling, word dropping, the backtranslation
    stub), applied one to three times for a wide quality spread, plus a few
    verbatim copies and a few cross-segment mismatches near zero similarity.
    """
    rng = np.random.default_rng(seed)
    token_lists = [tokenize(s, vocab) for s in segments]
    token_lists = [t for t in token_lists if len(t) > 0]
    lm = BigramLM.train(token_lists, vocab)
    translator = StubBacktranslator()
    out = []
    for i in range(n_records):
        ref = token_lists[int(rng.integers(0, len(token_lists)))]
        roll = rng.random()
        if roll < 0.05:
            cand = ref
        elif roll < 0.10:
            other = token_lists[int(rng.integers(0, len(token_lists)))]
            cand = _one_perturbation(other, rng, lm, translator, vocab)
        else:
            cand = ref
            for _ in range(1 + int(rng.integers(0, 3))):
                cand = _one_perturbation(cand, rng, lm, translator, vocab)
        sim = edit_similarity(ref.tokens, cand.tokens)
        rating = float(np.clip(100.0 * sim + rng.normal(0.0, noise_sd), 0.0, 100.0))
        out.append(RatedExample(SentencePair(ref, cand), rating, f"drift{i:05d}"))
    return out


# ---------------------------------------------------------------------------
# Offline pre-training assets and the drift study itself.
# ---------------------------------------------------------------------------


def build_offline_pretraining_data(
    segments: Sequence[str],
    vocab: Vocabulary,
    gen_config: GenerationConfig,
    seed: int,
) -> list[tuple[SyntheticExample, np.ndarray]]:
    """Synthetic corpus + normalized signals from the stub translator and the offline providers."""
    examples = generate_pairs(segments, vocab, gen_config, StubBacktranslator(), seed)
    return label_pairs(examples, offline_providers(examples))[0]


# The drift study's settings that no run varies.
DRIFT_NOISE_SD = 3.0
DRIFT_HOLDOUT_FRACTION = 0.2
DRIFT_ENCODER = dict(d_model=32, n_layers=2, n_heads=4, d_ff=64, max_seq_len=34)
DRIFT_PRETRAIN_LEARNING_RATE = 2e-3
DRIFT_BATCH_SIZE = 32


@dataclass
class DriftStudyConfig:
    """Pinned configuration for the drift study; defaults reproduce the headline run.

    Pre-training uses a healthy step budget at a larger rate; fine-tuning is
    deliberately gentle (small rate, few steps) so the comparison isolates
    what the starting parameters contribute, mirroring the warm-start recipe.
    """

    alphas: tuple[float, ...] = (0.0, 0.5, 1.0, 1.5)
    n_seeds: int = 5
    corpus_size: int = 400
    max_segment_tokens: int = 14
    n_records: int = 1400
    pretrain_steps: int = 3000
    pretrain_eval_every: int = 750
    finetune_steps: int = 400
    finetune_eval_every: int = 100
    finetune_learning_rate: float = 3e-4
    data_seed: int = 101


@dataclass
class DriftStudyResult:
    alphas: tuple[float, ...]
    taus: dict[str, dict[float, list[float]]]  # arm -> alpha -> per-seed taus

    def median(self, arm: str, alpha: float) -> float:
        return float(np.median(self.taus[arm][alpha]))

    def to_json_dict(self) -> dict:
        return {
            "alphas": list(self.alphas),
            "taus": {
                arm: {str(a): values for a, values in by_alpha.items()}
                for arm, by_alpha in self.taus.items()
            },
        }


def run_drift_study(
    config: DriftStudyConfig,
    segments: Sequence[str] | None = None,
    progress: Callable[[str], None] | None = None,
) -> DriftStudyResult:
    """Fine-tune with and without pre-training across train/test skew levels.

    For each skew factor the ratings are resampled into a low-rated training
    side and a high-rated test side (disjoint), the model is fine-tuned on
    the training side, and Kendall is measured on the test side.  Both arms
    share splits, seeds, and hyperparameters; only the starting parameters
    differ.
    """
    from .demo import demo_sentences

    say = progress or (lambda _msg: None)
    if segments is None:
        pool = demo_sentences(4 * config.corpus_size, seed=config.data_seed)
        segments = [s for s in pool if len(s.split()) <= config.max_segment_tokens]
        segments = segments[: config.corpus_size]
    vocab = Vocabulary.build([split_tokens(s) for s in segments], min_count=1)

    say("building synthetic pre-training data")
    synthetic = build_offline_pretraining_data(
        segments, vocab, GenerationConfig(n_scatter=2, n_contiguous=1, n_backtranslation=1),
        seed=config.data_seed,
    )
    init = init_model(EncoderConfig(vocab_size=len(vocab), init_seed=config.data_seed, **DRIFT_ENCODER))
    pre_cfg = TrainConfig(
        total_steps=config.pretrain_steps,
        eval_every=config.pretrain_eval_every,
        batch_size=DRIFT_BATCH_SIZE,
        learning_rate=DRIFT_PRETRAIN_LEARNING_RATE,
        seed=0,
    )
    say(f"pre-training {config.pretrain_steps} steps")
    pretrained, _ = pretrain(init, synthetic, pre_cfg, vocab)

    dataset = build_drift_dataset(
        segments, vocab, config.n_records, seed=config.data_seed + 1, noise_sd=DRIFT_NOISE_SD
    )

    def drift_split(alpha: float, seed: int) -> Split:
        skew = SkewConfig(alpha, alpha, seed=1000 + seed, disjoint=True)
        train_side, test_side = skew_split(dataset, skew)
        train, validation = split_no_leak(train_side, DRIFT_HOLDOUT_FRACTION, seed=seed)
        ft_cfg = TrainConfig(
            total_steps=config.finetune_steps,
            eval_every=config.finetune_eval_every,
            batch_size=DRIFT_BATCH_SIZE,
            learning_rate=config.finetune_learning_rate,
            seed=seed,
        )
        return Split(train, validation, test_side, ft_cfg)

    splits = {
        alpha: [drift_split(alpha, seed) for seed in range(config.n_seeds)] for alpha in config.alphas
    }
    taus = run_grid({"pretrained": pretrained, "scratch": init}, splits, vocab, say)
    return DriftStudyResult(alphas=tuple(config.alphas), taus=taus)
