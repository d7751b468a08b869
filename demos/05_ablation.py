"""Per-signal ablation: which pre-training tasks carry the weight?

Runs the single-task and leave-one-out ablation modes on a small setup and
prints the Kendall delta of each configuration against a no-pre-training
baseline.  Scale the step counts up for less noisy attributions.

Run:  python demos/05_ablation.py
"""

from pairscore import (
    AblationPipeline,
    EncoderConfig,
    GenerationConfig,
    TrainConfig,
    Vocabulary,
    run_ablation,
    split_no_leak,
    split_tokens,
)
from pairscore.demo import load_demo_corpus
from pairscore.experiments import build_drift_dataset, build_offline_pretraining_data
from pairscore.signals import default_task_specs


def main():
    corpus = [s for s in load_demo_corpus() if len(s.split()) <= 10][:100]
    vocab = Vocabulary.build([split_tokens(s) for s in corpus], min_count=1)
    synthetic = build_offline_pretraining_data(corpus, vocab, GenerationConfig(1, 0, 1), seed=0)
    data = build_drift_dataset(corpus, vocab, n_records=220, seed=1)
    train_pool, test = split_no_leak(data, 0.3, seed=0)
    train, validation = split_no_leak(train_pool, 0.15, seed=0)

    pipeline = AblationPipeline(
        vocab=vocab,
        encoder_config=EncoderConfig(
            vocab_size=len(vocab), d_model=24, n_layers=1, n_heads=4, d_ff=48,
            max_seq_len=26, init_seed=0,
        ),
        base_tasks=default_task_specs(),
        synthetic=synthetic,
        train=train,
        validation=validation,
        test=test,
        pretrain_config=TrainConfig(total_steps=120, eval_every=60, batch_size=32,
                                    learning_rate=2e-3, seed=0),
        finetune_config=TrainConfig(total_steps=80, eval_every=40, batch_size=32,
                                    learning_rate=5e-4, seed=0),
    )
    for mode in ("single-task", "leave-one-out"):
        print(f"\n== {mode} ==")
        for row in run_ablation(pipeline, mode):
            if row.error:
                print(f"  {row.name:16s} ERROR: {row.error}")
            else:
                print(f"  {row.name:16s} kendall {row.tau:+.4f}  delta {row.delta:+.4f}")


if __name__ == "__main__":
    main()
