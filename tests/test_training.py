import dataclasses

import numpy as np
import pytest

from pairscore import training
from pairscore.demo import demo_sentences
from pairscore.encoder import EncoderConfig, init_model
from pairscore.errors import DataError, NumericError, TrainingDiverged
from pairscore.experiments import build_offline_pretraining_data
from pairscore.metrics import sentence_bleu
from pairscore.signals import SignalVector, default_task_specs
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
    AdamOptimizer,
    TrainConfig,
    _BestTracker,
    finetune,
    params_digest,
    predict_ratings,
    pretrain,
    set_task_weights,
)

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
            c1, c2 = 1.0 - config.beta1**t, 1.0 - config.beta2**t
            for k, g in grads.items():
                m[k] = config.beta1 * m[k] + (1.0 - config.beta1) * g
                v2[k] = config.beta2 * v2[k] + (1.0 - config.beta2) * g * g
                want[k] -= config.learning_rate * (m[k] / c1) / (np.sqrt(v2[k] / c2) + config.adam_eps)
        for k in want:
            np.testing.assert_array_equal(params.tensors[k], want[k], err_msg=k)


class TestPretrain:
    def test_loss_decreases(self, vocab, synthetic, encoder_config):
        params = init_model(encoder_config)
        config = TrainConfig(total_steps=60, eval_every=20, batch_size=16, learning_rate=2e-3, seed=0)
        _, history = pretrain(params, synthetic[:60], default_task_specs(), config, vocab)
        assert history[-1].metric < history[0].metric

    def test_zero_weights_leave_params_unchanged(self, vocab, synthetic, encoder_config):
        params = init_model(encoder_config)
        tasks = tuple(t.with_weight(0.0) for t in default_task_specs())
        config = TrainConfig(total_steps=10, eval_every=5, batch_size=8, learning_rate=1e-2, seed=0)
        out, _ = pretrain(params, synthetic[:20], tasks, config, vocab)
        assert out.allclose(params)

    def test_deterministic_under_seed(self, vocab, synthetic, encoder_config):
        config = TrainConfig(total_steps=20, eval_every=10, batch_size=8, learning_rate=1e-3, seed=5)
        runs = []
        for _ in range(2):
            params = init_model(encoder_config)
            out, history = pretrain(params, synthetic[:30], default_task_specs(), config, vocab)
            runs.append((out, [p.metric for p in history]))
        assert runs[0][1] == runs[1][1]
        assert runs[0][0].allclose(runs[1][0])

    def test_best_checkpoint_is_min_loss(self, vocab, synthetic, encoder_config):
        params = init_model(encoder_config)
        config = TrainConfig(total_steps=40, eval_every=10, batch_size=8, learning_rate=2e-3, seed=1)
        _, history = pretrain(params, synthetic[:30], default_task_specs(), config, vocab)
        assert len(history) == 4

    def test_zero_steps_identity(self, vocab, synthetic, encoder_config):
        params = init_model(encoder_config)
        config = TrainConfig(total_steps=0, eval_every=1, batch_size=8, seed=0)
        out, history = pretrain(params, synthetic[:10], default_task_specs(), config, vocab)
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

    def test_dropout_masks_are_seeded(self, vocab, encoder_config):
        train, val = split_no_leak(rated_dataset(vocab, n=60), 0.2, seed=2)
        config = TrainConfig(total_steps=10, eval_every=5, batch_size=8, learning_rate=1e-3, seed=9)

        def tuned(rate):
            params = init_model(dataclasses.replace(encoder_config, dropout=rate))
            return params_digest(finetune(params, train, val, config, vocab)[0])

        with_dropout = tuned(0.1)
        assert tuned(0.1) == with_dropout
        assert tuned(0.0) != with_dropout


class TestDivergence:
    """TrainingDiverged carries the best checkpoint and the history up to the failure."""

    @pytest.fixture(params=["pretrain", "finetune"])
    def stage(self, request, vocab, synthetic):
        if request.param == "pretrain":
            return lambda params, config: pretrain(
                params, synthetic[:30], default_task_specs(), config, vocab
            )
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
        ex, vec = dataset[bad]
        blocks = {t.name: [1e200] if t.name == "bleu" else vec[t.name] for t in default_task_specs()}
        dataset[bad] = (ex, SignalVector(blocks, normalized=True))
        with pytest.raises(TrainingDiverged) as info:
            pretrain(init_model(encoder_config), dataset, default_task_specs(), config, vocab)
        assert info.value.step == 1
        assert info.value.history == []


class TestBestTracker:
    def test_argmax_rule_keeps_earliest_best(self):
        tracker = _BestTracker(maximize=True)
        params = init_model(EncoderConfig(vocab_size=10, d_model=8, n_layers=1, n_heads=2, d_ff=8, max_seq_len=8))
        for step, tau in [(1, 0.1), (2, 0.3), (3, 0.2)]:
            tracker.offer(step, tau, params)
        assert tracker.record.step == 2
        assert tracker.record.metric == 0.3

    def test_minimize_mode(self):
        tracker = _BestTracker(maximize=False)
        params = init_model(EncoderConfig(vocab_size=10, d_model=8, n_layers=1, n_heads=2, d_ff=8, max_seq_len=8))
        for step, loss in [(1, 1.0), (2, 0.5), (3, 0.8)]:
            tracker.offer(step, loss, params)
        assert tracker.record.step == 2

    def test_tie_keeps_earliest(self):
        tracker = _BestTracker(maximize=True)
        params = init_model(EncoderConfig(vocab_size=10, d_model=8, n_layers=1, n_heads=2, d_ff=8, max_seq_len=8))
        tracker.offer(1, 0.3, params)
        tracker.offer(2, 0.3, params)
        assert tracker.record.step == 1


class TestSetTaskWeights:
    def test_group_weights_applied(self):
        groups = [
            ("bleu", "rouge", "soft_overlap"),
            ("bt_en_fr_ref", "bt_en_fr_cand", "bt_en_de_ref", "bt_en_de_cand"),
            ("entailment", "bt_flag"),
        ]
        tasks = set_task_weights(groups, [1.0, 0.0, 0.0])
        weights = {t.name: t.weight for t in tasks}
        assert weights["bleu"] == 1.0 and weights["rouge"] == 1.0
        assert weights["bt_en_fr_ref"] == 0.0 and weights["entailment"] == 0.0

    def test_singleton_groups_pass_through(self):
        names = [t.name for t in default_task_specs()]
        tasks = set_task_weights([[n] for n in names], list(range(len(names))))
        assert [t.weight for t in tasks] == [float(i) for i in range(len(names))]

    def test_duplicate_task_errors(self):
        with pytest.raises(DataError):
            set_task_weights([("bleu",), ("bleu", "rouge")], [1.0, 1.0])

    def test_missing_task_errors(self):
        with pytest.raises(DataError):
            set_task_weights([("bleu",)], [1.0])

    def test_unknown_task_errors(self):
        names = [t.name for t in default_task_specs()]
        with pytest.raises(DataError):
            set_task_weights([names + ["made_up"]], [1.0])

    def test_grid_enumeration(self):
        import itertools

        groups = [
            ("bleu", "rouge", "soft_overlap"),
            ("bt_en_fr_ref", "bt_en_fr_cand", "bt_en_de_ref", "bt_en_de_cand"),
            ("entailment", "bt_flag"),
        ]
        grid = list(itertools.product([0.0, 0.5, 1.0], repeat=3))
        task_sets = [set_task_weights(groups, w) for w in grid]
        assert len(task_sets) == 27
        assert len({tuple(t.weight for t in ts) for ts in task_sets}) == 27


class TestPredictRatings:
    def test_batched_prediction_matches_single(self, vocab, encoder_config):
        data = rated_dataset(vocab, n=10)
        params = init_model(encoder_config)
        batched = predict_ratings(params, data, vocab, batch_size=4)
        single = predict_ratings(params, data, vocab, batch_size=1)
        np.testing.assert_allclose(batched, single, atol=1e-12)


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
