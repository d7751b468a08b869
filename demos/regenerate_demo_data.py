"""Rebuild the bundled demo corpus and ratings from their seeds.

The outputs are committed under src/pairscore/data/; this script exists so
they stay reproducible.  Running it should be a no-op diff.
"""

from pathlib import Path

from pairscore.demo import demo_sentences
from pairscore.experiments import build_drift_dataset
from pairscore.text import Vocabulary, serialize_ratings, split_tokens

DATA = Path(__file__).resolve().parent.parent / "src" / "pairscore" / "data"


def main():
    sentences = demo_sentences(1000, seed=7)
    (DATA / "demo_corpus.txt").write_text("\n".join(sentences) + "\n", encoding="utf-8")

    vocab = Vocabulary.build([split_tokens(s) for s in sentences], min_count=1)
    ratings = build_drift_dataset(sentences, vocab, n_records=600, seed=13)
    serialize_ratings(ratings, DATA / "demo_ratings.tsv", "wmt-tsv")
    print(f"wrote {len(sentences)} sentences and {len(ratings)} rated pairs under {DATA}")


if __name__ == "__main__":
    main()
