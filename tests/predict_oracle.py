"""Per-chunk references for ``pairscore.training.predict_ratings`` and ``predict_records``.

This is the plain formulation: examples, or each record's references, are
scored in chunks of 64 in order, each chunk packed by ``build_batch`` to its
own width and run through ``forward`` and the rating head, and a record gets
the max.  The package shares batches between chunks and must agree with this
module bit for bit.
"""

from __future__ import annotations

from pairscore.encoder import build_batch, forward
from pairscore.text import SentencePair, tokenize

CHUNK = 64


def reference_predict_ratings(params, examples, vocab) -> list[float]:
    out = []
    for start in range(0, len(examples), CHUNK):
        chunk = [ex.pair for ex in examples[start : start + CHUNK]]
        out.extend(float(r) for r in forward(params, build_batch(chunk, vocab)).ratings)
    return out


def reference_predict_records(params, records, vocab) -> list[float]:
    out = []
    for record in records:
        candidate = tokenize(record.candidate, vocab)
        pairs = [SentencePair(tokenize(ref, vocab), candidate) for ref in record.references]
        chunks = [pairs[start : start + CHUNK] for start in range(0, len(pairs), CHUNK)]
        out.append(max(float(forward(params, build_batch(chunk, vocab)).ratings.max()) for chunk in chunks))
    return out
