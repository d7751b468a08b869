"""Per-record reference for ``pairscore.training.predict_records``.

This is the plain formulation: each record's references are scored together
by ``predict_ratings``, padded to that record's own width, and the record gets
the max.  ``predict_records`` shares batches between records and must agree
with this module bit for bit.
"""

from __future__ import annotations

from pairscore.text import RatedExample, SentencePair, tokenize
from pairscore.training import predict_ratings


def reference_predict_records(params, records, vocab) -> list[float]:
    out = []
    for record in records:
        candidate = tokenize(record.candidate, vocab)
        examples = [
            RatedExample(SentencePair(tokenize(ref, vocab), candidate), 0.0, record.source_id)
            for ref in record.references
        ]
        out.append(float(predict_ratings(params, examples, vocab).max()))
    return out
