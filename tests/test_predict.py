"""``training.predict_records`` against the per-record oracle, compared with ``==``."""

import json

import numpy as np
import pytest

from pairscore import text, training
from pairscore.demo import demo_sentences
from pairscore.encoder import EncoderConfig, init_model
from pairscore.experiments import build_drift_dataset
from pairscore.synth import StubBacktranslator
from pairscore.text import RatingRecord, Vocabulary, read_rating_records, record_pairs, split_tokens
from pairscore.training import predict_records

from encoder_oracle import pack_pair
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


def assert_exact(params, records, vocab):
    got = [float(s) for s in predict_records(params, record_pairs(records, vocab), vocab)]
    assert got == reference_predict_records(params, records, vocab)


@pytest.mark.parametrize("slots", [1, 2, 32, 1024], indirect=True)
def test_random_records(params, vocab, slots):
    assert_exact(params, random_records(vocab, 120, seed=slots), vocab)


@pytest.mark.parametrize("slots", [1, 2, 32, 1024], indirect=True)
def test_equal_width_group_larger_than_a_batch(params, vocab, slots):
    # 50 records of width 3 + 4 + 6 share one width; 1-3 references each
    rng = np.random.default_rng(7)
    records = [
        RatingRecord(f"s{i}", tuple(words(rng, vocab, 4) for _ in range(1 + i % 3)),
                     words(rng, vocab, 6), None)
        for i in range(50)
    ]
    assert_exact(params, records, vocab)


@pytest.mark.parametrize("slots", [1, 2, 32, 100, 1024], indirect=True)
def test_records_with_more_references_than_a_batch(params, vocab, slots):
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
    assert_exact(params, records, vocab)


@pytest.mark.parametrize("slots", [1, 2, 32, 1024], indirect=True)
def test_duplicate_references(params, vocab, slots):
    rng = np.random.default_rng(10)
    shared = [words(rng, vocab, int(k)) for k in (3, 5, 8)]
    records = [
        RatingRecord(f"s{i}", (shared[i % 3], shared[i % 3], shared[(i + 1) % 3]),
                     words(rng, vocab, 1 + i % 7), None)
        for i in range(40)
    ]
    assert_exact(params, records, vocab)


@pytest.mark.parametrize("slots", [1, 2, 32, 1024], indirect=True)
def test_heldout_file_like_the_score_workload(params, vocab, tmp_path, slots):
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
    assert_exact(params, records, vocab)


def test_each_distinct_string_tokenized_once(vocab, monkeypatch):
    calls = []
    tokenize = text.tokenize
    monkeypatch.setattr(text, "tokenize", lambda s, v: calls.append(s) or tokenize(s, v))
    records = [RatingRecord(f"s{i}", ("a b", "c d", "a b"), f"e f {i}", None) for i in range(5)]
    record_pairs(records, vocab)
    assert sorted(calls) == sorted({"a b", "c d"} | {f"e f {i}" for i in range(5)})


def test_empty_input(params, vocab):
    assert predict_records(params, [], vocab).shape == (0,)


def width_of(pairs, vocab):
    return max(len(pack_pair(p, vocab)[0]) for p in pairs)


def encoded_rows(monkeypatch):
    """Each forward call of predict_records, as (width, the real ids of each row)."""
    calls = []
    forward = training.forward

    def spy(params, batch, *args, **kwargs):
        rows = [tuple(ids[mask > 0].tolist()) for ids, mask in zip(batch.ids, batch.mask)]
        calls.append((batch.ids.shape[1], rows))
        return forward(params, batch, *args, **kwargs)

    monkeypatch.setattr(training, "forward", spy)
    return calls


def test_last_chunk_of_shorter_references_is_padded_to_the_bucket_width(params, vocab, monkeypatch):
    # Every record is one width, 3 + 20 + 2: a 20-token reference, three of
    # 2-6 tokens and a 2-token candidate.  At two rows a call, each record's
    # last two references fill a call alone, the last call included.  Padded
    # to their own width of at most 11 instead of 25 they would get other
    # bits, since BLAS picks another kernel.
    rng = np.random.default_rng(12)
    records = [
        RatingRecord(f"s{i}", (words(rng, vocab, 20), *(words(rng, vocab, int(k)) for k in rng.integers(2, 7, 3))),
                     words(rng, vocab, 2), None)
        for i in range(40)
    ]
    width = 3 + 20 + 2
    monkeypatch.setattr(training, "PREDICT_SLOTS", 2 * width)
    calls = encoded_rows(monkeypatch)
    assert_exact(params, records, vocab)
    assert len(calls) == 80 and all(w == width for w, _ in calls)
    assert all(len(row) < width for row in calls[-1][1])


def test_same_pair_in_two_widths_is_encoded_at_each(params, vocab, monkeypatch):
    rng = np.random.default_rng(13)
    ref, cand, longer = words(rng, vocab, 3), words(rng, vocab, 4), words(rng, vocab, 9)
    records = [RatingRecord("alone", (ref,), cand, None),
               RatingRecord("wide", (longer, ref), cand, None)]
    calls = encoded_rows(monkeypatch)
    assert_exact(params, records, vocab)
    pair_row = pack_pair(record_pairs(records[:1], vocab)[0][0], vocab)[0]
    assert sorted(w for w, rows in calls if tuple(pair_row) in rows) == [3 + 3 + 4, 3 + 9 + 4]


@pytest.mark.parametrize("slots", [1, 64, 1024], indirect=True)
def test_each_distinct_pair_of_a_width_is_encoded_once(params, vocab, monkeypatch, slots):
    rng = np.random.default_rng(14)
    shared = [words(rng, vocab, k) for k in (2, 5, 7)]
    cands = [words(rng, vocab, k) for k in (3, 6)]
    records = [RatingRecord(f"s{i}", (shared[i % 3], shared[(i + 1) % 3]), cands[i % 2], None)
               for i in range(24)]
    records += random_records(vocab, 20, seed=14)
    calls = encoded_rows(monkeypatch)
    assert_exact(params, records, vocab)
    want: dict[int, set] = {}
    for pairs in record_pairs(records, vocab):
        want.setdefault(width_of(pairs, vocab), set()).update(tuple(pack_pair(p, vocab)[0]) for p in pairs)
    got: dict[int, list] = {}
    for width, rows in calls:
        got.setdefault(width, []).extend(rows)
    assert {w: sorted(rows) for w, rows in got.items()} == {w: sorted(rows) for w, rows in want.items()}


@pytest.mark.parametrize("slots", [1, 40, 200, 1024], indirect=True)
def test_forward_calls_fill_the_slot_cap(params, vocab, monkeypatch, slots):
    records = random_records(vocab, 80, seed=15, max_refs=6)
    records += [RatingRecord(f"d{i}", r.references, r.candidate, None) for i, r in enumerate(records[:20])]
    calls = encoded_rows(monkeypatch)
    assert_exact(params, records, vocab)
    distinct: dict[int, set] = {}
    for pairs in record_pairs(records, vocab):
        distinct.setdefault(width_of(pairs, vocab), set()).update(
            (p.reference.ids, p.candidate.ids) for p in pairs)
    cap = {w: max(1, slots // w) for w in distinct}
    assert len(calls) == sum(-(-len(keys) // cap[w]) for w, keys in distinct.items())
    assert all(len(rows) <= cap[w] for w, rows in calls)
