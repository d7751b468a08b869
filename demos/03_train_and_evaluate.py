"""Train the metric end to end and measure agreement with ratings.

Pre-trains the small encoder on synthetic signal vectors, fine-tunes it on
the bundled demo ratings, and reports Kendall / Pearson / thresholded
agreement on a held-out test split.  Takes a few minutes on one CPU.

Run:  python demos/03_train_and_evaluate.py
"""

from pairscore import (
    EncoderConfig,
    GenerationConfig,
    TrainConfig,
    Vocabulary,
    darr,
    finetune,
    init_model,
    ingest_ratings,
    pretrain,
    predict_ratings,
    split_no_leak,
    split_tokens,
)
from pairscore.demo import load_demo_corpus, load_demo_ratings_path
from pairscore.experiments import build_offline_pretraining_data


def main():
    corpus = [s for s in load_demo_corpus() if len(s.split()) <= 14][:400]
    vocab = Vocabulary.build([split_tokens(s) for s in corpus], min_count=1)

    print("building synthetic pre-training data...")
    synthetic = build_offline_pretraining_data(
        corpus, vocab, GenerationConfig(2, 1, 1), seed=0
    )
    print(f"  {len(synthetic)} signal-labeled pairs")

    encoder = EncoderConfig(
        vocab_size=len(vocab), d_model=32, n_layers=2, n_heads=4, d_ff=64, max_seq_len=40,
        init_seed=0,
    )
    params = init_model(encoder)
    pre_cfg = TrainConfig(
        total_steps=1500, eval_every=500, batch_size=32, learning_rate=2e-3, seed=0,
    )
    print(f"pre-training {pre_cfg.total_steps} steps...")
    params, history = pretrain(params, synthetic, pre_cfg, vocab)
    print(f"  mixture loss: {[round(h.metric, 3) for h in history]}")

    # demo ratings cover the full corpus; tokens outside this vocab become [unk]
    result = ingest_ratings(load_demo_ratings_path(), "wmt-tsv", vocab)
    rated = [ex for ex in result.examples if len(ex.pair.reference) + len(ex.pair.candidate) <= 36]
    train_pool, test = split_no_leak(rated, 0.3, seed=0)
    train, validation = split_no_leak(train_pool, 0.15, seed=0)
    print(f"ratings: {len(train)} train / {len(validation)} validation / {len(test)} test")

    ft_cfg = TrainConfig(
        total_steps=400, eval_every=100, batch_size=32, learning_rate=5e-4, seed=0,
    )
    print(f"fine-tuning {ft_cfg.total_steps} steps...")
    params, history = finetune(params, train, validation, ft_cfg, vocab)
    print(f"  validation kendall: {[round(h.metric, 3) for h in history]}")

    preds = predict_ratings(params, test, vocab)
    report = darr(
        [ex.rating for ex in test], list(preds), ["all"] * len(test), threshold=25.0
    )
    print("\nheld-out agreement:")
    print(report.to_text_table())


if __name__ == "__main__":
    main()
