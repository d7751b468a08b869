import numpy as np
import pytest

from pairscore.demo import demo_sentences
from pairscore.encoder import EncoderConfig, init_model
from pairscore.errors import DataError
from pairscore.experiments import build_offline_pretraining_data
from pairscore.metrics import sentence_bleu
from pairscore.signals import default_task_specs
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
    Stage,
    TrainConfig,
    _BestTracker,
    finetune,
    params_digest,
    predict_ratings,
    pretrain,
    run_recipe,
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


class TestRunRecipe:
    def test_empty_recipe_returns_initial(self, vocab, encoder_config):
        params = init_model(encoder_config)
        out, manifest = run_recipe(params, [], vocab)
        assert out is params
        assert manifest == []

    def test_single_finetune_stage_equals_direct(self, vocab, encoder_config):
        data = rated_dataset(vocab, n=60)
        train, val = split_no_leak(data, 0.2, seed=3)
        config = TrainConfig(
            total_steps=15, eval_every=5, batch_size=8, learning_rate=1e-3, seed=4,
        )
        params = init_model(encoder_config)
        direct, _ = finetune(params, train, val, config, vocab)
        via_recipe, manifest = run_recipe(
            params, [Stage("finetune", config, train=train, validation=val)], vocab
        )
        assert direct.allclose(via_recipe)
        assert len(manifest) == 1
        assert manifest[0]["params_digest"] == params_digest(direct)

    def test_two_stage_recipe_deterministic(self, vocab, synthetic, encoder_config, tmp_path):
        data = rated_dataset(vocab, n=60)
        train, val = split_no_leak(data, 0.2, seed=5)
        pre_cfg = TrainConfig(total_steps=10, eval_every=5, batch_size=8, learning_rate=1e-3, seed=0)
        ft_cfg = TrainConfig(
            total_steps=10, eval_every=5, batch_size=8, learning_rate=1e-3, seed=0,
        )
        stages = [
            Stage("pretrain", pre_cfg, dataset=synthetic[:30], tasks=default_task_specs()),
            Stage("finetune", ft_cfg, train=train, validation=val),
        ]
        runs = []
        for i in range(2):
            params = init_model(encoder_config)
            out, manifest = run_recipe(params, stages, vocab, checkpoint_dir=tmp_path / str(i))
            runs.append((out, manifest))
        assert runs[0][0].allclose(runs[1][0])
        digests = [[m["params_digest"] for m in manifest] for _, manifest in runs]
        assert digests[0] == digests[1]
        ckpt0 = (tmp_path / "0" / "stage00_pretrain.ckpt").read_bytes()
        ckpt1 = (tmp_path / "1" / "stage00_pretrain.ckpt").read_bytes()
        assert ckpt0 == ckpt1

    def test_stage_failure_carries_partial_manifest(self, vocab, synthetic, encoder_config):
        from pairscore.training import RecipeError

        pre_cfg = TrainConfig(total_steps=5, eval_every=5, batch_size=8, seed=0)
        bad = Stage("finetune", TrainConfig(total_steps=5, eval_every=5),
                    train=[], validation=[])
        params = init_model(encoder_config)
        with pytest.raises(RecipeError) as info:
            run_recipe(
                params,
                [Stage("pretrain", pre_cfg, dataset=synthetic[:20], tasks=default_task_specs()), bad],
                vocab,
            )
        assert len(info.value.partial_manifest) == 1


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
