"""Acceptance suite: each test is one release criterion at its stated tolerance.

Criteria run at pinned tolerances and print one PASS/FAIL line each (see
conftest.py).  The drift-robustness check is the heavyweight one; everything
else is seconds.
"""

import json
import math
import time

import numpy as np
from scipy import stats as scipy_stats

from pairscore.cli import main as cli_main
from pairscore.demo import demo_sentences
from pairscore.encoder import (
    EncoderConfig,
    build_batch,
    init_model,
    pretrain_loss,
    supervised_loss,
)
from pairscore.experiments import (
    DriftStudyConfig,
    Split,
    build_drift_dataset,
    build_offline_pretraining_data,
    run_ablation,
    run_drift_study,
)
from pairscore.metrics import rouge_n, sentence_bleu, soft_overlap, EmbeddingTable
from pairscore.signals import TaskSpec, default_task_specs
from pairscore.stats import (
    SkewConfig,
    darr,
    expected_train_fraction,
    kendall_pairwise,
    pearson,
    skew_split,
)
from pairscore.synth import GenerationConfig
from pairscore.text import (
    RatedExample,
    RatingRecord,
    SentencePair,
    TokenSeq,
    Vocabulary,
    record_pairs,
    split_no_leak,
    tokenize,
)
from pairscore.training import TrainConfig, predict_ratings, predict_records

from test_encoder import make_pairs, max_relative_fd_error, signal_targets_for, with_tasks
from test_metrics import oracle_bleu, oracle_rouge, oracle_soft_overlap, random_pair
from test_stats import oracle_pair_walk, random_instance


def test_c1_metric_oracle_suite():
    """sentence_bleu / rouge_n / soft_overlap match brute-force enumeration, 1e-9."""
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    emb = EmbeddingTable.hashed([f"w{i}" for i in range(9)], dim=16)
    for _ in range(200):
        ref, cand = random_pair(rng, vocab_size=9, max_len=12)
        assert abs(sentence_bleu(ref, cand) - oracle_bleu(ref, cand)) < 1e-9
        for n in (1, 2):
            got = rouge_n(ref, cand, n)
            want = oracle_rouge(ref, cand, n)
            assert max(abs(a - b) for a, b in zip(got.as_tuple(), want)) < 1e-9
        got = soft_overlap(ref, cand, emb)
        want = oracle_soft_overlap(ref, cand, emb)
        assert max(abs(a - b) for a, b in zip(got.as_tuple(), want)) < 1e-9
    assert time.monotonic() - start < 10.0


def test_c2_statistics_oracle_suite():
    """kendall/darr match exhaustive pair enumeration; darr(0) == kendall exactly."""
    start = time.monotonic()
    rng = np.random.default_rng(2025)
    checked = 0
    for _ in range(500):
        human, metric, groups = random_instance(rng)
        conc, disc = oracle_pair_walk(human, metric, groups, threshold=0.0)
        if conc + disc > 0:
            tau = kendall_pairwise(human, metric, groups)
            assert abs(tau - (conc - disc) / (conc + disc)) < 1e-12
            report = darr(human, metric, groups, threshold=0.0)
            assert report.darr == tau  # exact definitional reduction
            checked += 1
        conc25, disc25 = oracle_pair_walk(human, metric, groups, threshold=25.0)
        if conc25 + disc25 > 0:
            report = darr(human, metric, groups, threshold=25.0)
            assert abs(report.darr - (conc25 - disc25) / (conc25 + disc25)) < 1e-12
    assert checked > 400
    # pearson closed form on 3-point cases
    assert abs(pearson([1, 2, 3], [1, 3, 2]) - 0.5) < 1e-12
    for _ in range(200):
        x = rng.uniform(-5, 5, size=3)
        y = rng.uniform(-5, 5, size=3)
        dx, dy = x - x.mean(), y - y.mean()
        denom = math.sqrt(float((dx**2).sum() * (dy**2).sum()))
        if denom == 0:
            continue
        assert abs(pearson(list(x), list(y)) - float((dx * dy).sum()) / denom) < 1e-12
    assert time.monotonic() - start < 10.0


def test_c3_skew_reproduction():
    """alpha=3, 10 bins: retained train fraction ~ 11.98%, near the reported 11.9%."""
    start = time.monotonic()
    expected = expected_train_fraction(3.0, 10)
    assert abs(expected - 0.1197531985674193) < 1e-12

    empty = TokenSeq((), ())
    rng = np.random.default_rng(7)
    data = [
        RatedExample(SentencePair(empty, empty), float(r), f"r{i}")
        for i, r in enumerate(rng.uniform(0, 100, size=50_000))
    ]
    train, _ = skew_split(data, SkewConfig(3.0, 0.0, n_bins=10, seed=11))
    fraction = len(train) / len(data)
    assert abs(fraction - expected) < 0.005          # within 0.5 points of the analytic value
    assert abs(fraction - 0.119) < 0.015             # within 1.5 points of the reported figure

    everything, _ = skew_split(data, SkewConfig(0.0, 0.0, n_bins=10, seed=11))
    assert everything == data
    assert time.monotonic() - start < 30.0


GRAD_CORPUS = ["the cat sat on the mat".split(), "a dog ran to the rug".split()]


def test_c4_gradient_check():
    """Analytic gradients vs central differences (h=1e-4) < 1e-4 for every loss head."""
    start = time.monotonic()
    vocab = Vocabulary.build(GRAD_CORPUS, min_count=1)
    config = EncoderConfig(
        vocab_size=len(vocab), d_model=8, n_layers=1, n_heads=2, d_ff=16, max_seq_len=16,
        init_seed=3,
    )
    params = init_model(config)
    pairs = make_pairs(vocab, [("the cat sat", "a dog")])
    rated = build_batch(pairs, vocab, ratings=[0.8])
    signals = build_batch(pairs, vocab, signal_targets=signal_targets_for(params.tasks, 1, seed=5))
    failures = []
    err = max_relative_fd_error(params, rated)
    if err >= 1e-4:
        failures.append(("supervised", err))
    err = max_relative_fd_error(params, signals)
    if err >= 1e-4:
        failures.append(("mixture", err))
    for task in params.tasks:
        spec = tuple(t.with_weight(1.0 if t.name == task.name else 0.0) for t in params.tasks)
        err = max_relative_fd_error(with_tasks(params, spec), signals)
        if err >= 1e-4:
            failures.append((task.name, err))
    assert not failures, failures
    assert time.monotonic() - start < 120.0


def test_c5_loss_unit_checks():
    """Hand-computed mixture-loss cases exact to 1e-9."""
    reg = TaskSpec("toy", "regression", 3, weight=2.0)
    loss = pretrain_loss(
        {"toy": np.array([[1.0, 1.0, 1.0]])}, {"toy": np.array([[0.0, 0.0, 0.0]])}, [reg]
    )
    assert abs(loss - 2.0) < 1e-9

    cls = TaskSpec("cls", "classification", 3, weight=1.0)
    loss = pretrain_loss(
        {"cls": np.zeros((5, 3))}, {"cls": np.tile([0.3, 0.4, 0.3], (5, 1))}, [cls]
    )
    assert abs(loss - math.log(3.0)) < 1e-9

    cls4 = TaskSpec("cls4", "classification", 4, weight=1.0)
    loss = pretrain_loss(
        {"cls4": np.zeros((2, 4))}, {"cls4": np.tile([0.25, 0.25, 0.25, 0.25], (2, 1))}, [cls4]
    )
    assert abs(loss - math.log(4.0)) < 1e-9

    assert supervised_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert abs(supervised_loss(np.array([0.0]), np.array([1.0])) - 1.0) < 1e-9


def test_c6_drift_robustness_direction():
    """Pre-training wins under quality drift: positive delta at the strongest skew,
    monotone collapse without pre-training, and a smaller degradation with it."""
    start = time.monotonic()
    result = run_drift_study(DriftStudyConfig())
    alphas = list(result.alphas)

    deltas = [
        p - s
        for p, s in zip(result.taus["pretrained"][1.5], result.taus["scratch"][1.5])
    ]
    assert len(deltas) == 5
    assert float(np.median(deltas)) > 0.0, deltas

    scratch_medians = [result.median("scratch", a) for a in alphas]
    rho = scipy_stats.spearmanr(alphas, scratch_medians).statistic
    assert rho < 0.0, scratch_medians

    pre_degradation = result.median("pretrained", 0.0) - result.median("pretrained", 1.5)
    scratch_degradation = result.median("scratch", 0.0) - result.median("scratch", 1.5)
    assert pre_degradation < scratch_degradation, (pre_degradation, scratch_degradation)
    assert time.monotonic() - start < 900.0


SEGMENTS = [s for s in demo_sentences(150, seed=31) if len(s.split()) <= 10][:60]


def _ablation_args(base_tasks):
    """The arguments of ``run_ablation`` but its mode."""
    vocab = Vocabulary.build([s.split() for s in SEGMENTS], min_count=1)
    synthetic = build_offline_pretraining_data(
        SEGMENTS, vocab, GenerationConfig(1, 0, 1, word_drop_rate=0.2), seed=6
    )
    data = build_drift_dataset(SEGMENTS, vocab, n_records=100, seed=8)
    train_pool, test = split_no_leak(data, 0.3, seed=0)
    train, validation = split_no_leak(train_pool, 0.2, seed=0)
    return dict(
        vocab=vocab,
        encoder_config=EncoderConfig(
            vocab_size=len(vocab), d_model=16, n_layers=1, n_heads=2, d_ff=32,
            max_seq_len=28, init_seed=0,
        ),
        base_tasks=base_tasks,
        synthetic=synthetic,
        pretrain_config=TrainConfig(total_steps=12, eval_every=6, batch_size=8, learning_rate=1e-3, seed=0),
        split=Split(train, validation, test, TrainConfig(
            total_steps=12, eval_every=6, batch_size=8, learning_rate=1e-3, seed=0,
        )),
    )


def test_c7_ablation_harness():
    """Single-task and leave-one-out complete for all 9 tasks; dead rows delta == 0."""
    zeroed = tuple(
        t.with_weight(0.0 if t.name in ("rouge", "bt_flag") else t.weight)
        for t in default_task_specs()
    )
    single = run_ablation(**_ablation_args(zeroed), mode="single-task")
    assert len(single) == 9
    assert all(row.error is None for row in single)
    by_name = {row.name: row for row in single}
    assert by_name["rouge"].delta == 0.0      # gamma 0 in both arms -> exact dead path
    assert by_name["bt_flag"].delta == 0.0

    loo = run_ablation(**_ablation_args(default_task_specs()), mode="leave-one-out")
    assert len(loo) == 9
    assert all(row.error is None for row in loo)
    assert all(len(row.active) == 8 for row in loo)
    assert all(row.name not in row.active for row in loo)


CHAIN_SETTINGS = [
    "--set", "vocab_min_count=1",
    "--set", "d_model=16",
    "--set", "n_layers=1",
    "--set", "n_heads=2",
    "--set", "d_ff=32",
    "--set", "max_seq_len=40",
    "--set", "pretrain_steps=25",
    "--set", "finetune_steps=25",
    "--set", "eval_every=5",
    "--set", "batch_size=8",
    "--set", "pretrain_learning_rate=0.001",
    "--set", "finetune_learning_rate=0.001",
    "--set", "holdout_fraction=0.2",
    "--set", "darr_threshold=10.0",
    "--set", "eval_grouping=all",
]


def _run_chain(workdir, corpus, ratings):
    paths = {
        name: workdir / name
        for name in (
            "pairs.jsonl", "vocab.json", "signals.jsonl", "pre.ckpt", "ft.ckpt",
            "preds.tsv", "report.json",
        )
    }
    steps = [
        ["gen-pairs", corpus, paths["pairs.jsonl"], "--vocab-out", paths["vocab.json"]],
        ["compute-signals", paths["pairs.jsonl"], paths["vocab.json"], paths["signals.jsonl"]],
        ["pretrain", paths["signals.jsonl"], paths["vocab.json"], paths["pre.ckpt"]],
        ["finetune", paths["pre.ckpt"], ratings, paths["ft.ckpt"]],
        ["predict", paths["ft.ckpt"], ratings, paths["preds.tsv"]],
        ["evaluate", paths["preds.tsv"], ratings, paths["report.json"]],
    ]
    for step in steps:
        rc = cli_main([str(a) for a in CHAIN_SETTINGS + step])
        assert rc == 0, step[0]
    return paths


def test_c8_end_to_end_determinism(tmp_path):
    """The full CLI chain rerun with the same config produces byte-identical artifacts."""
    corpus = tmp_path / "corpus.txt"
    sentences = [s for s in demo_sentences(160, seed=41) if len(s.split()) <= 12][:100]
    corpus.write_text("\n".join(sentences) + "\n", encoding="utf-8")

    from pairscore.experiments import build_drift_dataset as build
    from pairscore.text import serialize_ratings

    vocab = Vocabulary.build([s.split() for s in sentences], min_count=1)
    ratings = tmp_path / "ratings.tsv"
    serialize_ratings(build(sentences, vocab, n_records=90, seed=5), ratings, "wmt-tsv")

    for run in ("run1", "run2"):
        (tmp_path / run).mkdir()
    first = _run_chain(tmp_path / "run1", corpus, ratings)
    second = _run_chain(tmp_path / "run2", corpus, ratings)
    for name in first:
        assert first[name].read_bytes() == second[name].read_bytes(), name

    report = json.loads(first["report.json"].read_text())
    assert {"kendall", "pearson", "darr", "config_hash"} <= set(report)


def test_c9_multireference_invariant():
    """predict's record score dominates every per-reference score; singleton equality exact."""
    rng = np.random.default_rng(99)
    sentences = demo_sentences(300, seed=55)
    vocab = Vocabulary.build([s.split() for s in sentences], min_count=1)
    params = init_model(EncoderConfig(vocab_size=len(vocab), d_model=8, n_layers=1, n_heads=2,
                                      d_ff=16, max_seq_len=48, init_seed=0))
    records = []
    for i in range(300):
        n_refs = int(rng.integers(1, 4))
        refs = tuple(sentences[int(rng.integers(0, len(sentences)))] for _ in range(n_refs))
        cand_words = sentences[int(rng.integers(0, len(sentences)))].split()
        keep = int(rng.integers(1, len(cand_words) + 1))
        records.append(RatingRecord(f"s{i}", refs, " ".join(cand_words[:keep]), None))
    # one call, batches shared
    scores = predict_records(params, record_pairs(records, vocab), vocab)
    for record, best in zip(records, scores):
        candidate = tokenize(record.candidate, vocab)
        per_ref = predict_ratings(params, [
            RatedExample(SentencePair(tokenize(ref, vocab), candidate), 0.0, record.source_id)
            for ref in record.references
        ], vocab)
        assert all(best >= score for score in per_ref)
        assert best == max(per_ref)
        if len(record.references) == 1:
            assert best == per_ref[0]  # exact equality on singletons
