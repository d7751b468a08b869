"""Generate synthetic sentence pairs and attach the nine training signals.

Walks the pre-training data pipeline end to end in memory: build a
vocabulary and bigram language model from the bundled demo corpus, perturb
segments by mask-filling / stub backtranslation / word dropping, compute the
signal vector for each pair, and normalize the regression labels.

Run:  python demos/02_synthetic_pairs_and_signals.py
"""

from collections import Counter

import numpy as np

from pairscore import (
    BaselineEntailment,
    BigramLM,
    EmbeddingTable,
    GenerationConfig,
    SignalProviders,
    StubBacktranslator,
    UnigramScorer,
    Vocabulary,
    apply_normalization,
    compute_signals,
    fit_normalization,
    generate_corpus,
    split_tokens,
    tokenize,
)
from pairscore.demo import load_demo_corpus


def main():
    corpus = [s for s in load_demo_corpus() if len(s.split()) <= 12][:150]
    vocab = Vocabulary.build([split_tokens(s) for s in corpus], min_count=1)
    segments = [tokenize(s, vocab) for s in corpus]
    lm = BigramLM.train(segments, vocab)

    config = GenerationConfig(n_scatter=2, n_contiguous=1, n_backtranslation=1, word_drop_rate=0.3)
    examples = generate_corpus(segments, config, lm, StubBacktranslator(), vocab, seed=0)
    print(f"{len(segments)} segments -> {len(examples)} synthetic pairs")
    print(Counter(ex.origin.kind for ex in examples))

    print("\nsamples:")
    for ex in examples[:3]:
        print(f"  [{ex.origin.kind}]")
        print(f"    z : {ex.z.detokenize()}")
        print(f"    z~: {ex.z_tilde.detokenize()}")

    providers = SignalProviders(
        embeddings=EmbeddingTable.hashed(vocab.tokens, dim=32),
        likelihood=UnigramScorer.train(segments),
        entailment=BaselineEntailment(),
    )
    vectors = []
    kept = []
    for ex in examples:
        if len(ex.z_tilde) == 0:
            continue  # fully dropped candidates carry no likelihood signal
        vectors.append(compute_signals(ex, providers))
        kept.append(ex)

    stats = fit_normalization(vectors)
    normalized = [apply_normalization(v, stats) for v in vectors]
    matrix = np.stack([v.regression_concat() for v in normalized])
    print(f"\nsignals for {len(kept)} pairs; normalized regression block:")
    print(f"  per-dim means  ~ {np.abs(matrix.mean(axis=0)).max():.2e} (should be ~0)")
    print(f"  per-dim stds   ~ {matrix.std(axis=0).round(6)}")

    ex, vec = kept[0], vectors[0]
    print(f"\nraw signal vector for the first pair ({ex.origin.kind}):")
    for name in ("bleu", "rouge", "soft_overlap", "bt_en_fr_cand", "entailment", "bt_flag"):
        print(f"  {name:16s} {np.round(vec[name], 4)}")


if __name__ == "__main__":
    main()
