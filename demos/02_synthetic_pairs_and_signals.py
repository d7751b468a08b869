"""Generate synthetic sentence pairs and attach the nine training signals.

Walks the pre-training data recipe end to end in memory, with the same
library calls as `pairscore gen-pairs` and `pairscore compute-signals`:
build a vocabulary from the bundled demo corpus, perturb segments by
mask-filling under a bigram language model, stub backtranslation and word
dropping, then label each pair with the offline providers and standardize
the regression labels.

Run:  python demos/02_synthetic_pairs_and_signals.py
"""

from collections import Counter

import numpy as np

from pairscore import GenerationConfig, StubBacktranslator, Vocabulary, compute_signals, split_tokens
from pairscore.demo import load_demo_corpus
from pairscore.signals import REGRESSION_DIM, SIGNAL_COLUMNS, generate_pairs, label_pairs, offline_providers


def main():
    corpus = [s for s in load_demo_corpus() if len(s.split()) <= 12][:150]
    vocab = Vocabulary.build([split_tokens(s) for s in corpus], min_count=1)

    config = GenerationConfig(n_scatter=2, n_contiguous=1, n_backtranslation=1, word_drop_rate=0.3)
    examples = generate_pairs(corpus, vocab, config, StubBacktranslator(), seed=0)
    print(f"{len(corpus)} segments -> {len(examples)} synthetic pairs")
    print(Counter(ex.origin.kind for ex in examples))

    print("\nsamples:")
    for ex in examples[:3]:
        print(f"  [{ex.origin.kind}]")
        print(f"    z : {ex.z.detokenize()}")
        print(f"    z~: {ex.z_tilde.detokenize()}")

    providers = offline_providers(examples)
    pairs, _, failures = label_pairs(examples, providers)
    matrix = np.stack([row[:REGRESSION_DIM] for _, row in pairs])
    skipped = Counter(task for _, task in failures)
    print(f"\nsignals for {len(pairs)} pairs ({len(failures)} skipped: {dict(skipped)}); "
          "normalized regression block:")
    print(f"  per-dim means  ~ {np.abs(matrix.mean(axis=0)).max():.2e} (should be ~0)")
    print(f"  per-dim stds   ~ {matrix.std(axis=0).round(6)}")

    ex = pairs[0][0]
    row = compute_signals(ex, providers)
    print(f"\nraw signal row for the first pair ({ex.origin.kind}):")
    for name in ("bleu", "rouge", "soft_overlap", "bt_en_fr_cand", "entailment", "bt_flag"):
        print(f"  {name:16s} {np.round(row[SIGNAL_COLUMNS[name]], 4)}")


if __name__ == "__main__":
    main()
