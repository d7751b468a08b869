import ctypes
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pairscore import training
from pairscore.demo import demo_sentences
from pairscore.encoder import EncoderConfig, build_batch, forward, init_model, packed_length
from pairscore.errors import DataError, NumericError, TrainingDiverged
from pairscore.experiments import build_offline_pretraining_data
from pairscore.metrics import sentence_bleu
from pairscore.signals import SIGNAL_COLUMNS, WEIGHT_GROUPS, default_task_specs
from pairscore.synth import GenerationConfig
from pairscore.text import (
    RatedExample,
    SentencePair,
    TokenSeq,
    Vocabulary,
    split_no_leak,
    tokenize,
)
from pairscore.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamOptimizer,
    TrainConfig,
    finetune,
    params_digest,
    predict_ratings,
    pretrain,
    set_task_weights,
)

from predict_oracle import reference_predict_ratings
from training_oracle import reference_finetune, reference_pretrain

SEGMENTS = demo_sentences(60, seed=11)
SHORT_SEGMENTS = [s for s in SEGMENTS if len(s.split()) <= 12][:40]


@pytest.fixture(scope="module")
def vocab():
    return Vocabulary.build([s.split() for s in SHORT_SEGMENTS], min_count=1)


@pytest.fixture(scope="module")
def synthetic(vocab):
    return build_offline_pretraining_data(
        SHORT_SEGMENTS, vocab, GenerationConfig(1, 1, 1), seed=4
    )


@pytest.fixture(scope="module")
def encoder_config(vocab):
    return EncoderConfig(
        vocab_size=len(vocab), d_model=16, n_layers=1, n_heads=2, d_ff=32, max_seq_len=30,
        init_seed=2,
    )


def rated_dataset(vocab, n=80, seed=0):
    rng = np.random.default_rng(seed)
    pool = sorted({t for s in SHORT_SEGMENTS for t in s.split()})
    out = []
    for i in range(n):
        ref = tokenize(SHORT_SEGMENTS[int(rng.integers(0, len(SHORT_SEGMENTS)))], vocab)
        keep = int(rng.integers(1, len(ref) + 1))
        toks = list(ref.tokens[:keep])
        if toks and rng.random() < 0.5:
            toks[int(rng.integers(0, len(toks)))] = pool[int(rng.integers(0, len(pool)))]
        cand = TokenSeq.from_tokens(toks, vocab)
        out.append(RatedExample(SentencePair(ref, cand), sentence_bleu(ref, cand), f"s{i}"))
    return out


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(DataError):
            TrainConfig(total_steps=10, eval_every=0)
        with pytest.raises(DataError):
            TrainConfig(total_steps=10, eval_every=20)
        with pytest.raises(DataError):
            TrainConfig(total_steps=10, eval_every=5, batch_size=0)
        TrainConfig(total_steps=0, eval_every=1)  # zero-step config is allowed

    def test_negative_learning_rate_and_seed_rejected(self):
        with pytest.raises(DataError, match="^learning_rate must be >= 0$"):
            TrainConfig(10, 5, learning_rate=-1.0)
        with pytest.raises(DataError, match="^seed must be >= 0$"):
            TrainConfig(10, 5, seed=-3)
        TrainConfig(10, 5, learning_rate=0.0, seed=0)


class TestAdam:
    def test_in_place_step_equals_expression_form(self, encoder_config):
        params = init_model(encoder_config)
        config = TrainConfig(total_steps=10, eval_every=5, learning_rate=0.003)
        optimizer = AdamOptimizer(params, config)
        want = {k: v.copy() for k, v in params.tensors.items()}
        m = {k: np.zeros_like(v) for k, v in want.items()}
        v2 = {k: np.zeros_like(v) for k, v in want.items()}
        rng = np.random.default_rng(3)
        for t in range(1, 21):
            grads = {k: rng.normal(size=v.shape) * 10.0 ** rng.integers(-8, 2) for k, v in want.items()}
            optimizer.step(params, grads)
            c1, c2 = 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t
            for k, g in grads.items():
                m[k] = ADAM_BETA1 * m[k] + (1.0 - ADAM_BETA1) * g
                v2[k] = ADAM_BETA2 * v2[k] + (1.0 - ADAM_BETA2) * g * g
                want[k] -= config.learning_rate * (m[k] / c1) / (np.sqrt(v2[k] / c2) + ADAM_EPS)
        for k in want:
            np.testing.assert_array_equal(params.tensors[k], want[k], err_msg=k)


class TestPretrain:
    def test_loss_decreases(self, vocab, synthetic, encoder_config):
        params = init_model(encoder_config)
        config = TrainConfig(total_steps=60, eval_every=20, batch_size=16, learning_rate=2e-3, seed=0)
        _, history = pretrain(params, synthetic[:60], config, vocab)
        assert history[-1].metric < history[0].metric

    def test_zero_weights_leave_params_unchanged(self, vocab, synthetic, encoder_config):
        tasks = tuple(t.with_weight(0.0) for t in default_task_specs())
        params = init_model(encoder_config, tasks)
        config = TrainConfig(total_steps=10, eval_every=5, batch_size=8, learning_rate=1e-2, seed=0)
        out, _ = pretrain(params, synthetic[:20], config, vocab)
        assert out.allclose(params)

    def test_deterministic_under_seed(self, vocab, synthetic, encoder_config):
        config = TrainConfig(total_steps=20, eval_every=10, batch_size=8, learning_rate=1e-3, seed=5)
        runs = []
        for _ in range(2):
            params = init_model(encoder_config)
            out, history = pretrain(params, synthetic[:30], config, vocab)
            runs.append((out, [p.metric for p in history]))
        assert runs[0][1] == runs[1][1]
        assert runs[0][0].allclose(runs[1][0])

    def test_best_checkpoint_is_min_loss(self, vocab, synthetic, encoder_config):
        params = init_model(encoder_config)
        config = TrainConfig(total_steps=40, eval_every=10, batch_size=8, learning_rate=2e-3, seed=1)
        _, history = pretrain(params, synthetic[:30], config, vocab)
        assert len(history) == 4

    def test_zero_steps_identity(self, vocab, synthetic, encoder_config):
        params = init_model(encoder_config)
        config = TrainConfig(total_steps=0, eval_every=1, batch_size=8, seed=0)
        out, history = pretrain(params, synthetic[:10], config, vocab)
        assert history == []
        assert out.allclose(params)


class TestFinetune:
    def test_zero_steps_returns_input_params(self, vocab, encoder_config):
        data = rated_dataset(vocab)
        train, val = split_no_leak(data, 0.2, seed=0)
        params = init_model(encoder_config)
        config = TrainConfig(total_steps=0, eval_every=1)
        out, history = finetune(params, train, val, config, vocab)
        assert out.allclose(params)
        assert history == []

    def test_empty_validation_errors(self, vocab, encoder_config):
        data = rated_dataset(vocab)
        params = init_model(encoder_config)
        config = TrainConfig(total_steps=5, eval_every=5)
        with pytest.raises(DataError):
            finetune(params, data, [], config, vocab)

    def test_returned_metric_dominates_history(self, vocab, encoder_config):
        data = rated_dataset(vocab, n=100)
        train, val = split_no_leak(data, 0.2, seed=1)
        params = init_model(encoder_config)
        config = TrainConfig(
            total_steps=40, eval_every=10, batch_size=16, learning_rate=2e-3, seed=0,
        )
        best, history = finetune(params, train, val, config, vocab)
        from pairscore.training import validation_kendall

        returned_tau = validation_kendall(best, val, vocab)
        assert returned_tau == pytest.approx(max(p.metric for p in history), abs=1e-12)

    def test_deterministic(self, vocab, encoder_config):
        data = rated_dataset(vocab, n=60)
        train, val = split_no_leak(data, 0.2, seed=2)
        config = TrainConfig(
            total_steps=20, eval_every=10, batch_size=8, learning_rate=1e-3, seed=9,
        )
        outs = []
        for _ in range(2):
            params = init_model(encoder_config)
            out, history = finetune(params, train, val, config, vocab)
            outs.append((out, [p.metric for p in history]))
        assert outs[0][1] == outs[1][1]
        assert outs[0][0].allclose(outs[1][0])


class TestDivergence:
    """TrainingDiverged carries the best checkpoint and the history up to the failure."""

    @pytest.fixture(params=["pretrain", "finetune"])
    def stage(self, request, vocab, synthetic):
        if request.param == "pretrain":
            return lambda params, config: pretrain(params, synthetic[:30], config, vocab)
        train, val = split_no_leak(rated_dataset(vocab, n=60), 0.2, seed=2)
        return lambda params, config: finetune(params, train, val, config, vocab)

    def test_failed_step_keeps_best_so_far(self, stage, encoder_config, monkeypatch):
        config = TrainConfig(total_steps=6, eval_every=1, batch_size=8, learning_rate=1e-3, seed=3)
        params = init_model(encoder_config)
        clean, clean_history = stage(params, dataclasses.replace(config, total_steps=3))
        calls = []
        real_gradients = training.gradients

        def failing_gradients(*args, **kwargs):
            calls.append(None)
            if len(calls) == 4:
                raise NumericError("loss is non-finite")
            return real_gradients(*args, **kwargs)

        monkeypatch.setattr(training, "gradients", failing_gradients)
        with pytest.raises(TrainingDiverged) as info:
            stage(params, config)
        assert info.value.step == 4
        assert info.value.history == clean_history
        assert params_digest(info.value.last_good) == params_digest(clean)

    def test_overflow_at_first_eval_keeps_input(self, stage, encoder_config):
        config = TrainConfig(total_steps=5, eval_every=1, batch_size=8, learning_rate=1e300, seed=3)
        params = init_model(encoder_config)
        with pytest.raises(TrainingDiverged) as info:
            stage(params, config)
        assert info.value.step == 1
        assert info.value.history == []
        assert params_digest(info.value.last_good) == params_digest(params)

    def test_infinite_eval_loss_diverges(self, vocab, synthetic, encoder_config):
        config = TrainConfig(total_steps=5, eval_every=1, batch_size=8, learning_rate=1e-3, seed=3)
        dataset = list(synthetic[:30])
        # An example the first batch does not draw, so only the evaluation sees it.
        first = set(training._EpochSampler(len(dataset), config.batch_size, config.seed).next_indices())
        bad = min(set(range(len(dataset))) - first)
        ex, row = dataset[bad]
        row = row.copy()
        row[SIGNAL_COLUMNS["bleu"]] = 1e200
        dataset[bad] = (ex, row)
        with pytest.raises(TrainingDiverged) as info:
            pretrain(init_model(encoder_config), dataset, config, vocab)
        assert info.value.step == 1
        assert info.value.history == []


class TestBestTracker:
    """_fit evaluates every ``eval_every`` steps and after the last, and returns
    the parameters of its best evaluation, the earliest on a tie.

    ``evaluate`` answers from a script; the parameters after step k are
    those a k-step run ends with, so a shorter run names the step kept.
    """

    @staticmethod
    def fit(vocab, encoder_config, metrics, maximize, total_steps=None, eval_every=1):
        data = rated_dataset(vocab, n=20)
        packed = build_batch([ex.pair for ex in data], vocab, ratings=[ex.rating for ex in data])
        config = TrainConfig(
            total_steps=total_steps or len(metrics), eval_every=eval_every, batch_size=8,
            learning_rate=1e-3, seed=3,
        )
        scripted = iter(metrics)
        params, history = training._fit(
            init_model(encoder_config), config, packed, lambda _: next(scripted), maximize,
        )
        assert [p.metric for p in history] == metrics
        return params_digest(params), [p.step for p in history]

    def kept(self, vocab, encoder_config, metrics, maximize):
        return self.fit(vocab, encoder_config, metrics, maximize)[0]

    def test_argmax_rule_keeps_earliest_best(self, vocab, encoder_config):
        kept = self.kept(vocab, encoder_config, [0.1, 0.3, 0.2], maximize=True)
        assert kept == self.kept(vocab, encoder_config, [0.1, 0.3], maximize=True)
        assert kept != self.kept(vocab, encoder_config, [0.1, 0.2, 0.3], maximize=True)

    def test_minimize_mode(self, vocab, encoder_config):
        kept = self.kept(vocab, encoder_config, [1.0, 0.5, 0.8], maximize=False)
        assert kept == self.kept(vocab, encoder_config, [1.0, 0.5], maximize=False)
        assert kept != self.kept(vocab, encoder_config, [1.0, 0.8, 0.5], maximize=False)

    def test_tie_keeps_earliest(self, vocab, encoder_config):
        kept = self.kept(vocab, encoder_config, [0.3, 0.3], maximize=True)
        assert kept == self.kept(vocab, encoder_config, [0.3], maximize=True)
        assert kept != self.kept(vocab, encoder_config, [0.2, 0.3], maximize=True)

    def test_last_step_is_evaluated_when_eval_every_does_not_divide(self, vocab, encoder_config):
        _, steps = self.fit(vocab, encoder_config, [0.1, 0.2, 0.3], True, total_steps=10, eval_every=4)
        assert steps == [4, 8, 10]


class TestSetTaskWeights:
    def test_group_weights_applied(self):
        tasks = set_task_weights([1.0, 0.5, 0.0])
        weights = {t.name: t.weight for t in tasks}
        for group, weight in zip(WEIGHT_GROUPS, [1.0, 0.5, 0.0]):
            assert all(weights[name] == weight for name in group)
        assert [t.name for t in tasks] == [t.name for t in default_task_specs()]

    def test_singleton_groups_pass_through(self, vocab, synthetic, encoder_config):
        # One weight per task: the model's task table carries it through pretraining.
        tasks = tuple(t.with_weight(float(i)) for i, t in enumerate(default_task_specs()))
        config = TrainConfig(total_steps=2, eval_every=1, batch_size=8, learning_rate=1e-3, seed=0)
        out, _ = pretrain(init_model(encoder_config, tasks), synthetic[:10], config, vocab)
        assert [t.weight for t in out.tasks] == [float(i) for i in range(len(tasks))]

    def test_duplicate_task_errors(self):
        # No task sits in two groups, so no task can be given two weights.
        names = [name for group in WEIGHT_GROUPS for name in group]
        assert len(names) == len(set(names))
        with pytest.raises(DataError):
            set_task_weights([1.0, -1.0, 0.0])

    def test_missing_task_errors(self):
        # Every task has a group, and every group needs its weight.
        grouped = {name for group in WEIGHT_GROUPS for name in group}
        assert {t.name for t in default_task_specs()} <= grouped
        with pytest.raises(DataError):
            set_task_weights([1.0, 1.0])

    def test_unknown_task_errors(self):
        # Every grouped name is a task, and there is no weight for a fourth group.
        grouped = {name for group in WEIGHT_GROUPS for name in group}
        assert grouped <= {t.name for t in default_task_specs()}
        with pytest.raises(DataError):
            set_task_weights([1.0, 1.0, 1.0, 1.0])

    def test_grid_enumeration(self):
        import itertools

        grid = list(itertools.product([0.0, 0.5, 1.0], repeat=3))
        task_sets = [set_task_weights(w) for w in grid]
        assert len(task_sets) == 27
        assert len({tuple(t.weight for t in ts) for ts in task_sets}) == 27


class TestPredictRatings:
    """``predict_ratings`` against the per-chunk oracle of tests/predict_oracle.py, with ``==``."""

    @pytest.mark.parametrize("slots", [1, 2, 32, 1024], indirect=True)
    @pytest.mark.parametrize("n", [0, 1, 64, 65, 130])
    def test_equals_per_chunk_oracle(self, vocab, encoder_config, n, slots):
        data = rated_dataset(vocab, n=n, seed=n)
        params = init_model(encoder_config)
        assert list(predict_ratings(params, data, vocab)) == reference_predict_ratings(params, data, vocab)

    def test_pair_in_two_chunks_of_different_widths(self, vocab, encoder_config):
        # The narrowest pair opens the first chunk, beside the 63 widest, and
        # the second, beside four more of its own width of 7.
        pool = sorted(rated_dataset(vocab, n=200, seed=1), key=lambda ex: packed_length(ex.pair))
        data = [pool[0], *pool[-63:], *pool[:5]]
        widths = [max(packed_length(ex.pair) for ex in chunk) for chunk in (data[:64], data[64:])]
        assert widths == [27, 7]
        # At this model size the two paddings give the pair different bits.
        params = init_model(dataclasses.replace(encoder_config, d_model=32, n_heads=4, d_ff=64, n_layers=2))
        alone = [forward(params, build_batch([pool[0].pair, pool[k].pair], vocab)).cls[0] for k in (-1, 0)]
        assert not np.array_equal(*alone)
        assert list(predict_ratings(params, data, vocab)) == reference_predict_ratings(params, data, vocab)


def same_length_rated(vocab, n=24):
    """Rated pairs of 3 + 3 tokens, so every batch packs without padding."""
    out = []
    for i, s in enumerate(s for s in SHORT_SEGMENTS if len(s.split()) >= 4):
        toks = s.split()
        ref, cand = TokenSeq.from_tokens(toks[:3], vocab), TokenSeq.from_tokens(toks[-3:], vocab)
        out.append(RatedExample(SentencePair(ref, cand), sentence_bleu(ref, cand), f"s{i}"))
    return out[:n]


class TestTrainingOracle:
    """pretrain and finetune against the per-step loop of tests/training_oracle.py, with ``==``."""

    @pytest.fixture
    def config2(self, encoder_config):
        """Two layers, so the first block runs on every row and skips padding.

        At d_model 16 a row kept its bits at every padding width tried, so
        packing an evaluation batch to a wrong width went unseen; at this
        size (``TestPredictRatings``' shape) it changes them.
        """
        return dataclasses.replace(encoder_config, d_model=32, n_layers=2, n_heads=4, d_ff=64)

    @pytest.mark.parametrize("slots", [1, 7, 1024], indirect=True)
    def test_evaluated_rows_equal_each_chunk_packed_alone(self, vocab, synthetic, config2, slots):
        """The rows behind the eval loss and the validation Kendall, compared directly.

        Both metrics absorb a last-bit change in a row: a head output's last
        bit is far below the summed loss's, and Kendall reads ranks only.
        """
        params = init_model(config2)
        pairs = [SentencePair(ex.z, ex.z_tilde) for ex, _ in synthetic[:30]]
        val = split_no_leak(rated_dataset(vocab, n=60), 0.2, seed=2)[1]
        for chunks in (training._chunks(pairs, 8), [[ex.pair for ex in val]]):
            rows = dict(training._encode_chunks(params, chunks, vocab))
            for i, chunk in enumerate(chunks):
                assert np.array_equal(rows[i], forward(params, build_batch(chunk, vocab)).cls), i

    @staticmethod
    def assert_same(got, want):
        assert got[1] == want[1]
        assert params_digest(got[0]) == params_digest(want[0])

    # Caps that split a chunk's rows over forward calls, and the package's own.
    @pytest.mark.parametrize("slots", [1, 7, 1024], indirect=True)
    def test_pretrain(self, vocab, synthetic, config2, slots):
        params = init_model(config2)
        config = TrainConfig(total_steps=12, eval_every=4, batch_size=8, learning_rate=2e-3, seed=3)
        got = pretrain(params, synthetic[:30], config, vocab)
        self.assert_same(got, reference_pretrain(params, synthetic[:30], config, vocab))
        assert params_digest(got[0]) != params_digest(params)

    @pytest.mark.parametrize("slots", [1, 7, 1024], indirect=True)
    def test_finetune(self, vocab, config2, slots):
        train, val = split_no_leak(rated_dataset(vocab, n=60), 0.2, seed=2)
        params = init_model(config2)
        config = TrainConfig(total_steps=12, eval_every=4, batch_size=8, learning_rate=2e-3, seed=4)
        got = finetune(params, train, val, config, vocab)
        self.assert_same(got, reference_finetune(params, train, val, config, vocab))

    def test_training_set_smaller_than_batch(self, vocab, synthetic, config2):
        params = init_model(config2)
        config = TrainConfig(total_steps=6, eval_every=3, batch_size=32, learning_rate=2e-3, seed=1)
        self.assert_same(
            pretrain(params, synthetic[:5], config, vocab),
            reference_pretrain(params, synthetic[:5], config, vocab),
        )
        train, val = split_no_leak(rated_dataset(vocab, n=12), 0.4, seed=0)
        assert len(train) < config.batch_size
        self.assert_same(
            finetune(params, train, val, config, vocab),
            reference_finetune(params, train, val, config, vocab),
        )

    def test_batches_without_padding(self, vocab, config2):
        data = same_length_rated(vocab)
        train, val = data[:16], data[16:]
        params = init_model(config2)
        config = TrainConfig(total_steps=8, eval_every=4, batch_size=8, learning_rate=2e-3, seed=2)
        assert build_batch([ex.pair for ex in train], vocab).mask.all()
        self.assert_same(
            finetune(params, train, val, config, vocab),
            reference_finetune(params, train, val, config, vocab),
        )

    def test_packed_batch_equals_build_batch(self, vocab):
        data = rated_dataset(vocab, n=40)
        pairs, ratings = [ex.pair for ex in data], [ex.rating for ex in data]
        packed = build_batch(pairs, vocab, ratings=ratings)
        rng = np.random.default_rng(0)
        for size in (1, 3, 8, 40):
            idx = rng.permutation(len(pairs))[:size]
            got = packed.take(idx)
            want = build_batch([pairs[i] for i in idx], vocab, ratings=[ratings[i] for i in idx])
            for name in ("ids", "segments", "mask", "ratings"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestLearnableTargetSmoke:
    def test_bleu_derived_target_reaches_tau_half(self):
        """Fine-tuning on a noiseless BLEU-derived rating must rank well held out.

        Candidates are truncations with light substitutions, so the target is
        a clean, learnable function of surface features.  Takes ~15 s.
        """
        sentences = demo_sentences(400, seed=3)
        vocab = Vocabulary.build([s.split() for s in sentences], min_count=1)
        rng = np.random.default_rng(0)
        pool = sorted({t for s in sentences for t in s.split()})
        data = []
        for i in range(1000):
            ref = tokenize(sentences[int(rng.integers(0, len(sentences)))], vocab)
            keep = int(rng.integers(1, len(ref) + 1))
            toks = list(ref.tokens[:keep])
            k = int(rng.integers(0, min(3, keep) + 1))
            for pos in rng.choice(keep, size=k, replace=False):
                toks[pos] = pool[int(rng.integers(0, len(pool)))]
            cand = TokenSeq.from_tokens(toks, vocab)
            data.append(RatedExample(SentencePair(ref, cand), sentence_bleu(ref, cand), f"s{i}"))
        train, val = split_no_leak(data, 0.1, seed=0)

        config = EncoderConfig(
            vocab_size=len(vocab), d_model=32, n_layers=2, n_heads=4, d_ff=64,
            max_seq_len=64, init_seed=0,
        )
        params = init_model(config)
        tc = TrainConfig(
            total_steps=500, eval_every=100, batch_size=32, learning_rate=2e-3, seed=0,
        )
        best, history = finetune(params, train, val, tc, vocab)
        assert max(p.metric for p in history) > 0.5, [p.metric for p in history]


HAS_MALLOPT = hasattr(ctypes.CDLL(None), "mallopt")

# A fine-tune at the drift study's shapes in a fresh interpreter: ten warm-up
# steps, then the minor page faults of a 50-step run.  Before the allocator
# setting these runs faulted 62k-75k pages, 1,200-1,500 a step.
FAULT_PROBE = """
import json, resource
import numpy as np
from pairscore.demo import demo_sentences
from pairscore.encoder import EncoderConfig, init_model
from pairscore.text import RatedExample, SentencePair, Vocabulary, tokenize
from pairscore.training import TrainConfig, finetune

segments = [s for s in demo_sentences(200, seed=5) if len(s.split()) <= 14]
vocab = Vocabulary.build([s.split() for s in segments], min_count=1)
rng = np.random.default_rng(0)
examples = [
    RatedExample(SentencePair(tokenize(a, vocab), tokenize(b, vocab)), float(rng.uniform(0, 100)), f"s{i}")
    for i, (a, b) in enumerate(zip(segments, segments[1:] + segments[:1]))
]
params = init_model(EncoderConfig(vocab_size=len(vocab), d_model=32, n_layers=2, n_heads=4,
                                  d_ff=64, max_seq_len=34))
def run(steps):
    finetune(params, examples, examples[:8], TrainConfig(total_steps=steps, eval_every=steps), vocab)
run(10)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run(50)
print(json.dumps(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before))
"""


class TestKeepFreedHeap:
    """Training keeps freed memory in glibc's heap instead of faulting it in every step."""

    @pytest.mark.skipif(not HAS_MALLOPT, reason="the C library has no mallopt")
    def test_steps_after_warm_up_barely_fault(self):
        src = Path(training.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
        done = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        faults = json.loads(done.stdout.splitlines()[-1])
        # 50 steps fault 17-115 pages in all; the bound is below what a single
        # step faulted before, and 8x the largest count seen since.
        assert faults < 900

    def test_no_mallopt_is_a_silent_no_op_and_set_once(self, monkeypatch):
        calls = []

        class Libc:
            def mallopt(self, option, value):
                calls.append((option, value))
                return 1

        monkeypatch.setattr(training, "_heap_kept", False)
        monkeypatch.setattr(training.ctypes, "CDLL", lambda name: object())
        training._keep_freed_heap()
        assert training._heap_kept

        monkeypatch.setattr(training, "_heap_kept", False)
        monkeypatch.setattr(training.ctypes, "CDLL", lambda name: Libc())
        training._keep_freed_heap()
        training._keep_freed_heap()
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]

    def test_a_refused_value_sets_nothing_more(self, monkeypatch):
        calls = []

        class Libc:
            def mallopt(self, option, value):
                calls.append(option)
                return 0

        monkeypatch.setattr(training, "_heap_kept", False)
        monkeypatch.setattr(training.ctypes, "CDLL", lambda name: Libc())
        training._keep_freed_heap()
        assert calls == [-3]
