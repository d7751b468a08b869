import json
import re

import numpy as np
import pytest

from pairscore.errors import DataError
from pairscore.text import (
    RESERVED_TOKENS,
    TokenSeq,
    Vocabulary,
    ingest_ratings,
    read_lines,
    read_rating_records,
    serialize_ratings,
    split_no_leak,
    tokenize,
)


@pytest.fixture
def vocab():
    corpus = [
        "the cat sat on the mat".split(),
        "the dog sat on the rug".split(),
        "a cat and a dog ran . runs".split(),
        "the mat and the rug . runs".split(),
    ]
    return Vocabulary.build(corpus, min_count=2)


class TestTokenize:
    def test_lowercase_and_punctuation_split(self, vocab):
        seq = tokenize("The cat.", vocab)
        assert seq.tokens == ("the", "cat", ".")

    def test_empty_text(self, vocab):
        seq = tokenize("", vocab)
        assert len(seq) == 0

    def test_unknown_token_maps_to_unk(self, vocab):
        seq = tokenize("Zyzzyva runs", vocab)
        assert seq.tokens[0] == "zyzzyva"
        assert seq.ids[0] == vocab.unk_id
        assert seq.ids[1] != vocab.unk_id

    def test_idempotent_on_tokenized_text(self, vocab):
        rng = np.random.default_rng(0)
        pool = list(vocab.tokens[len(RESERVED_TOKENS):]) + [".", ",", "!"]
        for _ in range(50):
            toks = [pool[i] for i in rng.integers(0, len(pool), size=rng.integers(1, 12))]
            once = tokenize(" ".join(toks), vocab)
            twice = tokenize(once.detokenize(), vocab)
            assert once == twice

    def test_ids_equal_per_token_lookup(self, vocab):
        tokens = ["the", "zyzzyva", "cat", "", "[pad]", "the"]
        assert TokenSeq.from_tokens(tokens, vocab).ids == tuple(vocab.id(t) for t in tokens)

    def test_all_ids_below_vocab_size(self, vocab):
        seq = tokenize("the cat sat on an unseen zyzzyva !", vocab)
        assert all(i < len(vocab) for i in seq.ids)


class TestVocabulary:
    def test_reserved_ids_distinct(self, vocab):
        ids = {vocab.pad_id, vocab.unk_id, vocab.cls_id, vocab.sep_id, vocab.mask_id}
        assert len(ids) == 5

    def test_min_count_cutoff(self):
        v = Vocabulary.build([["rare", "common", "common"]], min_count=2)
        assert "common" in v
        assert "rare" not in v

    def test_build_rejects_bounds_that_keep_no_word(self):
        corpus = [["a", "b", "a"]]
        with pytest.raises(DataError, match="^min_count must be >= 1$"):
            Vocabulary.build(corpus, min_count=0, size_cap=3)
        with pytest.raises(DataError, match=r"^size_cap must be > 5 \(the reserved tokens\)$"):
            Vocabulary.build(corpus, min_count=1, size_cap=len(RESERVED_TOKENS))
        assert Vocabulary.build(corpus, min_count=1, size_cap=6).tokens == RESERVED_TOKENS + ("a",)

    def test_roundtrip_json(self, vocab, tmp_path):
        path = tmp_path / "vocab.json"
        vocab.save(path)
        assert Vocabulary.load(path) == vocab

    def test_load_rejects_another_version(self, vocab, tmp_path):
        path = tmp_path / "vocab.json"
        vocab.save(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**payload, "version": 7}), encoding="utf-8")
        with pytest.raises(DataError) as info:
            Vocabulary.load(path)
        assert str(info.value) == (
            f"vocabulary {path}: expected artifact schema 'vocabulary/1', found 'vocabulary/7'"
        )

    def test_token_id_bijective(self, vocab):
        for tok in vocab.tokens:
            assert vocab.token(vocab.id(tok)) == tok

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DataError):
            TokenSeq(("a", "b"), (1,))


class TestIngestRatings:
    def test_tsv_count(self, tmp_path, vocab):
        path = tmp_path / "r.tsv"
        path.write_text(
            "s1\tthe cat sat\tthe cat sat\t0.5\n"
            "s2\tthe dog ran\tthe dog sat\t-0.25\n"
            "s3\ta cat\tthe cat\t1.0\n"
        )
        result = ingest_ratings(path, "wmt-tsv", vocab)
        assert len(result.examples) == 3
        assert result.examples[1].rating == -0.25

    def test_nan_rating_rejected(self, tmp_path, vocab):
        path = tmp_path / "r.tsv"
        path.write_text("s1\tthe cat\tthe cat\tNaN\ns2\tthe dog\tthe dog\t0.1\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:1: non-finite rating 'NaN'$"):
            ingest_ratings(path, "wmt-tsv", vocab)

    def test_jsonl_multi_reference_expansion(self, tmp_path, vocab):
        path = tmp_path / "r.jsonl"
        path.write_text(
            '{"source_id": "w1", "references": ["the cat sat", "a cat sat"], '
            '"candidate": "the cat", "rating": 0.7}\n'
            '{"source_id": "w2", "references": ["the dog"], "candidate": "a dog", "rating": 0.2}\n'
        )
        result = ingest_ratings(path, "jsonl", vocab)
        assert len(result.examples) == 3
        assert [ex.source_id for ex in result.examples] == ["w1", "w1", "w2"]
        assert result.examples[0].rating == result.examples[1].rating == 0.7

    def test_raw_scores_standardized(self, tmp_path, vocab):
        path = tmp_path / "r.tsv"
        path.write_text(
            "# raw-scores\n"
            "s1\tthe cat\tthe cat\t10\n"
            "s2\tthe dog\tthe dog\t20\n"
            "s3\ta cat\ta cat\t30\n"
        )
        result = ingest_ratings(path, "wmt-tsv", vocab)
        ratings = np.array([ex.rating for ex in result.examples])
        assert abs(ratings.mean()) < 1e-12
        assert abs(ratings.std() - 1.0) < 1e-12

    def test_only_the_exact_raw_scores_line_marks_raw(self, tmp_path, vocab):
        path = tmp_path / "r.tsv"
        path.write_text(
            "# ratings are not raw-scores\n"
            "s1\tthe cat\tthe cat\t10\n"
            "s2\tthe dog\tthe dog\t20\n"
        )
        assert read_rating_records(path, "wmt-tsv")[1] is False
        assert [ex.rating for ex in ingest_ratings(path, "wmt-tsv", vocab).examples] == [10.0, 20.0]

    def test_missing_file_fatal(self, tmp_path, vocab):
        with pytest.raises(DataError):
            ingest_ratings(tmp_path / "absent.tsv", "wmt-tsv", vocab)

    def test_serialize_roundtrip(self, tmp_path, vocab):
        path = tmp_path / "r.tsv"
        path.write_text(
            "s1\tthe cat sat on the mat\tthe cat sat\t0.123456789\n"
            "s2\tthe dog ran\tthe dog sat .\t-1.5\n"
        )
        first = ingest_ratings(path, "wmt-tsv", vocab).examples
        out = tmp_path / "out.tsv"
        serialize_ratings(first, out, "wmt-tsv")
        second = ingest_ratings(out, "wmt-tsv", vocab).examples
        assert first == second

    def test_serialize_roundtrip_jsonl(self, tmp_path, vocab):
        path = tmp_path / "r.jsonl"
        path.write_text('{"source_id": "a", "references": ["the cat"], "candidate": "a cat", "rating": 0.5}\n')
        first = ingest_ratings(path, "jsonl", vocab).examples
        out = tmp_path / "out.jsonl"
        serialize_ratings(first, out, "jsonl")
        assert ingest_ratings(out, "jsonl", vocab).examples == first


class TestReadLines:
    def test_blank_lines_and_none_results_are_dropped(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("# comment\n1\n\n  \n2\n")
        parse = lambda line: None if line.startswith("#") else int(line)
        assert read_lines(path, "numbers file", parse) == [1, 2]

    def test_first_bad_line_is_named(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("1\n\nx\ny\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:3: "):
            read_lines(path, "numbers file", int)

    def test_missing_key_wording(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('{"a": 1}\n{"b": 2}\n')
        with pytest.raises(DataError, match=":2: record lacks key 'a'$"):
            read_lines(path, "records file", lambda line: json.loads(line)["a"])


def _rated(vocab, source_id, text="the cat sat", rating=0.0):
    from pairscore.text import RatedExample, SentencePair

    seq = tokenize(text, vocab)
    return RatedExample(SentencePair(seq, seq), rating, source_id)


class TestSplitNoLeak:
    def test_partition_properties(self, vocab):
        data = [_rated(vocab, f"s{i}") for i in range(100)]
        train, val = split_no_leak(data, 0.10, seed=3)
        assert len(train) + len(val) == 100
        assert 8 <= len(val) <= 12
        train_sources = {ex.source_id for ex in train}
        val_sources = {ex.source_id for ex in val}
        assert not train_sources & val_sources

    def test_grouped_records_stay_together(self, vocab):
        data = [_rated(vocab, f"s{i % 20}", rating=float(i)) for i in range(100)]
        train, val = split_no_leak(data, 0.2, seed=0)
        assert {ex.source_id for ex in train}.isdisjoint({ex.source_id for ex in val})
        assert len(train) + len(val) == 100

    def test_single_source_errors(self, vocab):
        data = [_rated(vocab, "only") for _ in range(10)]
        with pytest.raises(DataError):
            split_no_leak(data, 0.1, seed=0)

    def test_deterministic_under_seed(self, vocab):
        data = [_rated(vocab, f"s{i}", rating=float(i)) for i in range(60)]
        a = split_no_leak(data, 0.25, seed=11)
        b = split_no_leak(data, 0.25, seed=11)
        assert a == b
        c = split_no_leak(data, 0.25, seed=12)
        assert a != c

    def test_both_sides_nonempty(self, vocab):
        data = [_rated(vocab, "big")] * 99 + [_rated(vocab, "small")]
        for seed in range(10):
            train, val = split_no_leak(list(data), 0.5, seed=seed)
            assert train and val
