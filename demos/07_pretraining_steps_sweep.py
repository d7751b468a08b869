"""How much pre-training is enough? Sweep the step budget.

Pre-trains the encoder for increasing step counts, fine-tunes each snapshot
on the same ratings, and reports held-out Kendall per budget — the scaled
down version of the steps-vs-quality question.  Expect most of the gain in
the early steps, then a plateau.  Takes a few minutes.

Run:  python demos/07_pretraining_steps_sweep.py
"""

import time

from pairscore import (
    EncoderConfig,
    GenerationConfig,
    TrainConfig,
    Vocabulary,
    finetune,
    init_model,
    kendall_pairwise,
    predict_ratings,
    pretrain,
    split_no_leak,
    split_tokens,
)
from pairscore.demo import load_demo_corpus
from pairscore.experiments import build_drift_dataset, build_offline_pretraining_data
from pairscore.signals import default_task_specs

STEP_BUDGETS = [0, 250, 500, 1000, 2000]


def main():
    t0 = time.time()
    corpus = [s for s in load_demo_corpus() if len(s.split()) <= 14][:400]
    vocab = Vocabulary.build([split_tokens(s) for s in corpus], min_count=1)
    synthetic = build_offline_pretraining_data(corpus, vocab, GenerationConfig(2, 1, 1), seed=0)
    data = build_drift_dataset(corpus, vocab, n_records=900, seed=1, noise_sd=3.0)
    train_pool, test = split_no_leak(data, 0.3, seed=0)
    train, validation = split_no_leak(train_pool, 0.15, seed=0)
    human = [ex.rating for ex in test]

    encoder = EncoderConfig(
        vocab_size=len(vocab), d_model=32, n_layers=2, n_heads=4, d_ff=64, max_seq_len=40,
        init_seed=0,
    )
    init = init_model(encoder)
    ft_cfg = TrainConfig(
        total_steps=300, eval_every=100, batch_size=32, learning_rate=3e-4, seed=0,
    )

    print(f"{'pretrain steps':>14} {'test kendall':>13}")
    for steps in STEP_BUDGETS:
        if steps == 0:
            start = init
        else:
            pre_cfg = TrainConfig(
                total_steps=steps, eval_every=max(steps // 4, 1), batch_size=32,
                learning_rate=2e-3, seed=0,
            )
            start, _ = pretrain(init, synthetic, default_task_specs(), pre_cfg, vocab)
        tuned, _ = finetune(start, train, validation, ft_cfg, vocab)
        preds = predict_ratings(tuned, test, vocab)
        tau = kendall_pairwise(human, list(preds), ["all"] * len(test))
        print(f"{steps:>14d} {tau:>+13.4f}   [{time.time() - t0:5.0f}s]")


if __name__ == "__main__":
    main()
