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
    Split,
    TrainConfig,
    Vocabulary,
    init_model,
    pretrain,
    run_grid,
    split_no_leak,
    split_tokens,
)
from pairscore.demo import load_demo_corpus
from pairscore.experiments import build_drift_dataset, build_offline_pretraining_data

STEP_BUDGETS = [0, 250, 500, 1000, 2000]


def main():
    t0 = time.time()
    corpus = [s for s in load_demo_corpus() if len(s.split()) <= 14][:400]
    vocab = Vocabulary.build([split_tokens(s) for s in corpus], min_count=1)
    synthetic = build_offline_pretraining_data(corpus, vocab, GenerationConfig(2, 1, 1), seed=0)
    data = build_drift_dataset(corpus, vocab, n_records=900, seed=1, noise_sd=3.0)
    train_pool, test = split_no_leak(data, 0.3, seed=0)
    train, validation = split_no_leak(train_pool, 0.15, seed=0)

    encoder = EncoderConfig(
        vocab_size=len(vocab), d_model=32, n_layers=2, n_heads=4, d_ff=64, max_seq_len=40,
        init_seed=0,
    )
    init = init_model(encoder)
    ft_cfg = TrainConfig(
        total_steps=300, eval_every=100, batch_size=32, learning_rate=3e-4, seed=0,
    )

    starts = {"0": init}
    for steps in STEP_BUDGETS[1:]:
        pre_cfg = TrainConfig(
            total_steps=steps, eval_every=max(steps // 4, 1), batch_size=32,
            learning_rate=2e-3, seed=0,
        )
        starts[str(steps)], _ = pretrain(init, synthetic, pre_cfg, vocab)
        print(f"pre-trained {steps} steps   [{time.time() - t0:5.0f}s]")
    taus = run_grid(starts, {"test": [Split(train, validation, test, ft_cfg)]}, vocab)

    print(f"{'pretrain steps':>14} {'test kendall':>13}")
    for steps, by_condition in taus.items():
        print(f"{steps:>14} {by_condition['test'][0]:>+13.4f}")
    print(f"[{time.time() - t0:5.0f}s]")


if __name__ == "__main__":
    main()
