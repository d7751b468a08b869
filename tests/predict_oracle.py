"""Per-record reference for ``pairscore.training.predict_records``.

This is the plain formulation: each record's references are scored alone,
in chunks of 64 in order, each chunk packed by ``build_batch`` to its own
width and run through ``forward`` and the rating head, and the record gets
the max.  ``predict_records`` shares batches between records and must agree
with this module bit for bit.
"""

from __future__ import annotations

from pairscore.encoder import build_batch, forward
from pairscore.text import SentencePair, tokenize

CHUNK = 64


def reference_predict_records(params, records, vocab) -> list[float]:
    out = []
    for record in records:
        candidate = tokenize(record.candidate, vocab)
        pairs = [SentencePair(tokenize(ref, vocab), candidate) for ref in record.references]
        chunks = [pairs[start : start + CHUNK] for start in range(0, len(pairs), CHUNK)]
        out.append(max(float(forward(params, build_batch(chunk, vocab)).ratings.max()) for chunk in chunks))
    return out
