"""``training.predict_records`` against the per-record oracle, compared with ``==``."""

import json

import numpy as np
import pytest

from pairscore import training
from pairscore.demo import demo_sentences
from pairscore.encoder import EncoderConfig, init_model
from pairscore.errors import DataError
from pairscore.experiments import build_drift_dataset
from pairscore.synth import StubBacktranslator
from pairscore.text import RatingRecord, Vocabulary, read_rating_records, split_tokens
from pairscore.training import predict_records

from predict_oracle import reference_predict_records

MAX_SEQ_LEN = 48
SENTENCES = demo_sentences(80, seed=5)


@pytest.fixture(scope="module")
def vocab():
    return Vocabulary.build([split_tokens(s) for s in SENTENCES], min_count=1)


@pytest.fixture(scope="module")
def params(vocab):
    config = EncoderConfig(vocab_size=len(vocab), d_model=32, n_layers=2, n_heads=4, d_ff=64,
                           max_seq_len=MAX_SEQ_LEN, init_seed=3)
    return init_model(config)


def words(rng, vocab, n):
    pool = vocab.tokens[5:]
    return " ".join(pool[int(i)] for i in rng.integers(0, len(pool), size=n))


def random_records(vocab, n, seed, max_refs=4):
    """Records of 1..max_refs references; candidates from 1 token up to the width limit."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        ref_lens = rng.integers(1, 9, size=int(rng.integers(1, max_refs + 1)))
        cand_len = int(rng.integers(1, MAX_SEQ_LEN - 3 - ref_lens.max() + 1))
        refs = tuple(words(rng, vocab, int(k)) for k in ref_lens)
        out.append(RatingRecord(f"s{i}", refs, words(rng, vocab, cand_len), None))
    return out


def assert_exact(params, records, vocab, batch_size):
    got = [float(s) for s in predict_records(params, records, vocab, batch_size)]
    assert got == reference_predict_records(params, records, vocab)


@pytest.mark.parametrize("batch_size", [1, 2, 32])
def test_random_records(params, vocab, batch_size):
    assert_exact(params, random_records(vocab, 120, seed=batch_size), vocab, batch_size)


@pytest.mark.parametrize("batch_size", [1, 2, 32])
def test_equal_width_group_larger_than_a_batch(params, vocab, batch_size):
    # 50 records of width 3 + 4 + 6 share one width; 1-3 references each
    rng = np.random.default_rng(7)
    records = [
        RatingRecord(f"s{i}", tuple(words(rng, vocab, 4) for _ in range(1 + i % 3)),
                     words(rng, vocab, 6), None)
        for i in range(50)
    ]
    assert_exact(params, records, vocab, batch_size)


@pytest.mark.parametrize("batch_size", [1, 2, 32, 100])
def test_records_with_more_references_than_a_batch(params, vocab, batch_size):
    rng = np.random.default_rng(8)
    # 70 references, the widest first: predict_ratings pads the last 6 copies of
    # the short one narrower than the first 63, which changes their bits
    many = [
        RatingRecord(f"many{i}", (words(rng, vocab, 11), *[words(rng, vocab, 1 + i)] * 69),
                     words(rng, vocab, 5), None)
        for i in range(6)
    ]
    records = random_records(vocab, 30, seed=9)
    records[10:10] = many
    records.append(RatingRecord("three", ("a b", "c d e", "f"), "g h", None))
    assert_exact(params, records, vocab, batch_size)


@pytest.mark.parametrize("batch_size", [1, 2, 32])
def test_duplicate_references(params, vocab, batch_size):
    rng = np.random.default_rng(10)
    shared = [words(rng, vocab, int(k)) for k in (3, 5, 8)]
    records = [
        RatingRecord(f"s{i}", (shared[i % 3], shared[i % 3], shared[(i + 1) % 3]),
                     words(rng, vocab, 1 + i % 7), None)
        for i in range(40)
    ]
    assert_exact(params, records, vocab, batch_size)


@pytest.mark.parametrize("batch_size", [1, 2, 32])
def test_heldout_file_like_the_score_workload(params, vocab, tmp_path, batch_size):
    """JSONL records built as the ``score`` set-up builds ``heldout.jsonl``, read back."""
    rng = np.random.default_rng(11)
    held_out = SENTENCES[:30]
    translator = StubBacktranslator(substitute_prob=1.0, shuffle_prob=1.0)
    source_of = {sentence: i for i, sentence in enumerate(held_out)}
    references: dict[str, list[str]] = {}
    lines = []
    for ex in build_drift_dataset(held_out, vocab, 150, seed=11):
        ref = ex.pair.reference.detokenize()
        if ref not in references:
            extra = [" ".join(translator.round_trip(ex.pair.reference.tokens, rng))
                     for _ in range(1 + source_of[ref] % 2)]
            references[ref] = [ref] + extra
        lines.append(json.dumps({"source_id": f"src{source_of[ref]:04d}",
                                 "references": references[ref],
                                 "candidate": ex.pair.candidate.detokenize(),
                                 "rating": ex.rating}, sort_keys=True))
    path = tmp_path / "heldout.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    records, _ = read_rating_records(path, "jsonl")
    assert_exact(params, records, vocab, batch_size)


def test_each_distinct_string_tokenized_once(params, vocab, monkeypatch):
    calls = []
    tokenize = training.tokenize
    monkeypatch.setattr(training, "tokenize", lambda s, v: calls.append(s) or tokenize(s, v))
    records = [RatingRecord(f"s{i}", ("a b", "c d", "a b"), f"e f {i}", None) for i in range(5)]
    predict_records(params, records, vocab, 32)
    assert sorted(calls) == sorted({"a b", "c d"} | {f"e f {i}" for i in range(5)})


def test_empty_input(params, vocab):
    assert predict_records(params, [], vocab, 32).shape == (0,)


def test_batch_size_must_be_positive(params, vocab):
    with pytest.raises(DataError, match="batch_size"):
        predict_records(params, [RatingRecord("s", ("a",), "b", None)], vocab, 0)
