import math
import sys
import time
from collections import Counter

import numpy as np
import pytest

from pairscore import synth
from pairscore.errors import DataError, ScorerProtocolError
from pairscore.synth import (
    MASK_CONTIGUOUS,
    MASK_SCATTER,
    WORD_DROP,
    BACKTRANSLATION,
    BigramLM,
    ExternalRoundTripTranslator,
    GenerationConfig,
    LineClient,
    MaskPlan,
    Origin,
    StubBacktranslator,
    SyntheticExample,
    backtranslate,
    drop_words,
    fill_masks,
    generate_corpus,
    plan_masks,
    read_synthetic,
    write_synthetic,
)
from pairscore.demo import demo_sentences
from pairscore.text import TokenSeq, Vocabulary, split_tokens, tokenize
from synth_oracle import reference_fill_masks

CORPUS = [
    "the cat sat on the mat".split(),
    "the dog sat on the rug".split(),
    "the cat ran to the dog".split(),
    "a big dog ran to the mat".split(),
    "the small cat sat near the rug".split(),
]
# A round trip that returns its input unchanged.
IDENTITY = StubBacktranslator(substitute_prob=0.0, shuffle_prob=0.0)


def unigram_lm(segments, vocab):
    """The bigram model with no bigram weight: a pure unigram model."""
    return BigramLM.train(segments, vocab, interpolation=0.0)


@pytest.fixture
def vocab():
    return Vocabulary.build(CORPUS, min_count=1)


@pytest.fixture
def lm(vocab):
    return BigramLM.train(CORPUS, vocab)


def seq(text, vocab):
    return tokenize(text, vocab)


def small_random_corpus(seed):
    """4-11 types in a few short segments: log-probs that tie or differ in the last bit."""
    rng = np.random.default_rng(seed)
    n_types = int(rng.integers(4, 12))
    return [
        [f"t{j}" for j in rng.integers(0, n_types, size=int(rng.integers(3, 9)))]
        for _ in range(int(rng.integers(2, 8)))
    ]


class TestPlanMasks:
    def test_scatter_respects_length_bound(self, vocab):
        z = seq("the cat sat", vocab)
        for s in range(30):
            plan = plan_masks(z, "scatter", s)
            assert 1 <= len(plan.positions) <= 3
            assert all(0 <= p < 3 for p in plan.positions)

    def test_contiguous_is_one_run(self, vocab):
        z = seq("the cat sat on the mat near the rug", vocab)
        for s in range(30):
            plan = plan_masks(z, "contiguous", s)
            assert plan.positions[-1] - plan.positions[0] + 1 == len(plan.positions)

    def test_cap_at_fifteen_masks(self, vocab):
        z = TokenSeq.from_tokens(["the"] * 40, vocab)
        for s in range(40):
            for strategy in ("scatter", "contiguous"):
                assert len(plan_masks(z, strategy, s).positions) <= 15

    def test_deterministic(self, vocab):
        z = seq("the cat sat on the mat", vocab)
        assert plan_masks(z, "scatter", 9) == plan_masks(z, "scatter", 9)

    def test_invalid_plan_rejected(self):
        with pytest.raises(DataError):
            MaskPlan((0, 2), "contiguous")
        with pytest.raises(DataError):
            MaskPlan(tuple(range(16)), "scatter")


class TestBigramLM:
    def test_probabilities_normalize(self, lm):
        for prev in (None, "the", "cat"):
            total = sum(math.exp(lm.log_prob(tok, prev)) for tok, _ in lm.candidates())
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_bigram_prefers_seen_continuation(self, lm):
        assert lm.log_prob("cat", "the") > lm.log_prob("rug", "cat")

    def test_unigram_mode_ignores_context(self, vocab):
        uni = unigram_lm(CORPUS, vocab)
        assert uni.log_prob("cat", "the") == pytest.approx(uni.log_prob("cat", "zzz"))

    def test_reading_an_unseen_context_stores_nothing(self, lm):
        contexts = set(lm._bigram)
        lm.log_prob("cat", "zzz")
        lm.log_prob_row("zzz")
        assert set(lm._bigram) == contexts

    def test_log_prob_row_is_log_prob_in_candidate_order(self, lm):
        for prev in (None, "the", "zzz"):
            row = lm.log_prob_row(prev)
            assert row.tolist() == [lm.log_prob(tok, prev) for tok, _ in lm.candidates()]
            assert lm.log_prob_row(prev) is row
            assert not row.flags.writeable

    def test_rows_are_log_prob_on_small_random_corpora(self):
        # numpy's log differs from math.log in the last bit for a few of these
        for corpus_seed in range(300):
            corpus = small_random_corpus(corpus_seed)
            vocab = Vocabulary.build(corpus, min_count=1)
            for lm in (BigramLM.train(corpus, vocab), unigram_lm(corpus, vocab)):
                for prev in [None, "zzz"] + [tok for tok, _ in lm.candidates()]:
                    assert lm.log_prob_row(prev).tolist() == [
                        lm.log_prob(tok, prev) for tok, _ in lm.candidates()]

    @pytest.mark.parametrize("known", [CORPUS, []], ids=["own-ids", "all-unk"])
    def test_ranked_row_orders_by_score_then_id_then_index(self, known):
        lm = BigramLM.train(CORPUS, Vocabulary.build(known, min_count=1))
        ids = [tid for _, tid in lm.candidates()]
        for prev in (None, "the", "cat", "zzz"):
            row, order = lm.ranked_row(prev)
            assert row is lm.log_prob_row(prev)
            assert order.tolist() == sorted(range(len(ids)), key=lambda i: (-row[i], ids[i], i))
            assert not order.flags.writeable
            assert lm.ranked_row(prev)[1] is order


class TestFillMasks:
    def test_zero_positions_is_identity(self, vocab, lm):
        z = seq("the cat sat", vocab)
        plan = MaskPlan((), "scatter")
        assert fill_masks(z, plan, lm) == z

    def test_output_shape_and_untouched_positions(self, vocab, lm):
        z = seq("the cat sat on the mat", vocab)
        plan = plan_masks(z, "scatter", 4)
        filled = fill_masks(z, plan, lm)
        assert len(filled) == len(z)
        for i in range(len(z)):
            if i not in plan.positions:
                assert filled.tokens[i] == z.tokens[i]

    def test_unigram_beam1_picks_most_frequent_token(self, vocab):
        uni = unigram_lm(CORPUS, vocab)
        counts = Counter(t for s in CORPUS for t in s)
        best = max(sorted(counts), key=lambda t: counts[t])
        z = seq("a big dog ran", vocab)
        plan = MaskPlan((1, 3), "scatter")
        filled = fill_masks(z, plan, uni, beam_width=1)
        assert filled.tokens[1] == best
        assert filled.tokens[3] == best

    def test_single_slot_matches_exhaustive_enumeration(self, vocab, lm):
        z = seq("the cat sat on the mat", vocab)
        plan = MaskPlan((2,), "scatter")
        filled = fill_masks(z, plan, lm, beam_width=8)
        # oracle: try every vocabulary token at the slot, score by LM log-prob
        # of the filled token given its left neighbor, lowest id wins ties
        scored = []
        for tok, tid in lm.candidates():
            scored.append((lm.log_prob(tok, z.tokens[1]), -tid, tok))
        best = max(scored)[2]
        assert filled.tokens[2] == best

    def test_empty_vocabulary_errors(self, vocab):
        empty_lm = BigramLM.train([], vocab)
        z = seq("the cat", vocab)
        with pytest.raises(DataError):
            fill_masks(z, MaskPlan((0,), "scatter"), empty_lm)

    def test_deterministic(self, vocab, lm):
        z = seq("the small cat sat near the rug", vocab)
        plan = plan_masks(z, "contiguous", 17)
        assert fill_masks(z, plan, lm) == fill_masks(z, plan, lm)


# 24 tokens, each seen once, in one fixed order: every count is 1, so the
# candidates a context was never followed by all tie exactly.
TIE_CORPUS = [[f"w{i:02d}" for i in np.random.default_rng(3).permutation(24)]]


@pytest.fixture(scope="module")
def demo_segments():
    """300 demo segments under a vocabulary of the first 60, so 30 candidates share [unk]'s id."""
    sentences = demo_sentences(300, seed=11)
    vocab = Vocabulary.build([split_tokens(s) for s in sentences[:60]], min_count=2)
    return vocab, [seq(s, vocab) for s in sentences]


class TableLM:
    """A language model given as a table, ``prev -> row`` in candidate order.

    ``ranked_row`` keeps ``BigramLM.ranked_row``'s contract: the row and its
    candidate indices in ``(-row, id, index)`` order.
    """

    def __init__(self, candidates, rows):
        self._candidates = tuple(candidates)
        self._index = {tok: i for i, (tok, _) in enumerate(self._candidates)}
        self._ids = np.array([tid for _, tid in self._candidates])
        self._rows = {prev: np.array(row, dtype=np.float64) for prev, row in rows.items()}

    def candidates(self):
        return self._candidates

    def log_prob(self, token, prev):
        return float(self._rows[prev][self._index[token]])

    def ranked_row(self, prev):
        row = self._rows[prev]
        return row, np.lexsort((self._ids, -row))


def rounding_tie_lm(width):
    """Fills of ``_ _ _`` whose best path needs a candidate that ranks past the cut.

    After "p" (score -8), candidate "a" scores -1 and "b" one ulp lower, so
    "a" ranks ``width - 1`` in p's row and "b" ranks ``width``, just past the
    cut.  But -8 + -1 and -8 + (-1 - 2**-52) round to the same -9.0, and "b"
    has the smaller id, so "b" takes the last beam slot.  Only "b" leads on
    to "q"; every other path ends 50 lower.
    """
    names = ["p", "a", "b", "q", "h1", "h2", "h3", "x"]
    ids = {"p": 10, "a": 21, "b": 20, "q": 30, "h1": 41, "h2": 42, "h3": 43, "x": 50}
    candidates = [(tok, ids[tok]) for tok in sorted(names, key=ids.get)]

    def row(values, rest):
        return [values.get(tok, rest) for tok, _ in candidates]

    above = {f"h{i}": -0.5 - 0.1 * i for i in range(1, width)}
    rows = {
        None: row({"p": -8.0}, -30.0),
        "p": row({**above, "a": -1.0, "b": -1.0 - 2.0**-52}, -40.0),
        "b": row({"q": -1e-4}, -50.0),
    }
    rows.update({tok: row({}, -50.0) for tok in names if tok not in rows})
    return TableLM(candidates, rows)


class TestFillMasksOracle:
    """The pooled fill equals the expand-and-sort oracle exactly."""

    @staticmethod
    def assert_same(segments, lm, plans, widths=(1, 4, 8)):
        for z, plan in plans:
            for width in widths:
                assert fill_masks(z, plan, lm, width) == reference_fill_masks(z, plan, lm, width), (
                    z.tokens, plan, width)

    @staticmethod
    def random_plans(segments, n, seed):
        rng = np.random.default_rng(seed)
        plans = []
        for _ in range(n):
            z = segments[int(rng.integers(0, len(segments)))]
            strategy = "scatter" if rng.random() < 0.6 else "contiguous"
            plans.append((z, plan_masks(z, strategy, int(rng.integers(0, 2**31)))))
        return plans

    @pytest.mark.parametrize("seed", range(4))
    def test_random_plans_on_demo_corpus(self, demo_segments, seed):
        vocab, segments = demo_segments
        lm = BigramLM.train(segments, vocab)
        assert len({tid for _, tid in lm.candidates()}) < len(lm.candidates())
        self.assert_same(segments, lm, self.random_plans(segments, 25, seed))

    def test_unigram_lm(self, demo_segments):
        vocab, segments = demo_segments
        lm = unigram_lm(segments, vocab)
        self.assert_same(segments, lm, self.random_plans(segments, 12, 99))

    @pytest.mark.parametrize("train", [BigramLM.train, unigram_lm], ids=["bigram", "unigram"])
    @pytest.mark.parametrize("known", [TIE_CORPUS, []], ids=["own-ids", "all-unk"])
    def test_ties_fall_to_fill_ids(self, train, known):
        # with no token in the vocabulary, every fill id is [unk]'s and the
        # earlier expansion (beam entry, then candidate) must win a tie
        vocab = Vocabulary.build(known, min_count=1)
        lm = train(TIE_CORPUS, vocab)
        z = TokenSeq.from_tokens(TIE_CORPUS[0], vocab)
        plans = [(z, MaskPlan(p, "scatter")) for p in [(0,), (0, 1), (0, 1, 2), (3, 4, 7, 8, 9), (5, 6, 20, 21, 22, 23)]]
        plans += self.random_plans([z], 10, 7)
        self.assert_same([z], lm, plans, widths=(1, 4, 8, 30))

    def test_tie_across_beam_entries_goes_to_smaller_prefix(self):
        # After "a", "b" is the seen continuation and leads the beam, but "b" is
        # followed only by "[sep]", no candidate: "b a" (seen, unseen) ties with
        # "a b" (unseen, seen), and the smaller fill ids must win.
        corpus = [["a", "b", "[sep]"]]
        vocab = Vocabulary.build(corpus, min_count=1)
        lm = BigramLM.train(corpus, vocab)
        z = TokenSeq.from_tokens(["a", "b", "b"], vocab)
        plan = MaskPlan((1, 2), "contiguous")
        assert fill_masks(z, plan, lm, 2).tokens == ("a", "a", "b")
        self.assert_same([z], lm, [(z, plan)])

    def test_near_ties_of_small_random_corpora(self):
        # few types, small counts: sums of logs that tie or differ in the last bit
        for corpus_seed in range(300):
            corpus = small_random_corpus(corpus_seed)
            vocab = Vocabulary.build(corpus, min_count=1)
            segments = [TokenSeq.from_tokens(s, vocab) for s in corpus]
            for train in (BigramLM.train, unigram_lm):
                lm = train(corpus, vocab)
                self.assert_same(segments, lm, self.random_plans(segments, 3, corpus_seed))

    def test_mask_at_start_and_adjacent_runs(self, vocab, lm):
        segments = [seq(" ".join(s), vocab) for s in CORPUS]
        plans = [
            (z, MaskPlan(p, "scatter"))
            for z in segments
            for p in [(0,), (0, 1), (0, 1, 3, 4), (1, 2, 4, 5), tuple(range(len(z)))]
        ]
        self.assert_same(segments, lm, plans)

    def test_beam_wider_than_candidate_list(self, vocab, lm):
        z = seq("the small cat sat near the rug", vocab)
        width = 3 * len(lm.candidates())
        plans = [(z, MaskPlan(p, "scatter")) for p in [(0,), (0, 1), (2, 3, 5)]]
        self.assert_same([z], lm, plans, widths=(len(lm.candidates()), width))

    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_rounding_tie_just_past_the_cut(self, width):
        lm = rounding_tie_lm(width)
        row_p = lm._rows["p"]
        a, b = lm._index["a"], lm._index["b"]
        assert row_p[a] > row_p[b] and -8.0 + row_p[a] == -8.0 + row_p[b]
        assert lm.ranked_row("p")[1].tolist().index(b) == width
        vocab = Vocabulary.build([], min_count=1)
        z = TokenSeq.from_tokens(["x", "x", "x"], vocab)
        plan = MaskPlan((0, 1, 2), "contiguous")
        assert fill_masks(z, plan, lm, width).tokens == ("p", "b", "q")
        self.assert_same([z], lm, [(z, plan)], widths=(width,))

    @pytest.mark.parametrize("train", [BigramLM.train, unigram_lm], ids=["bigram", "unigram"])
    def test_random_plans_at_every_width(self, demo_segments, train):
        vocab, segments = demo_segments
        lm = train(segments, vocab)
        plans = [(z, plan) for z, plan in self.random_plans(segments, 40, 123) if len(plan.positions) <= 4]
        widths = (1, 2, 4, 8, len(lm.candidates()) + 1)
        self.assert_same(segments, lm, plans[:10], widths=widths)

    def test_row_cache_counts_the_order_arrays(self, demo_segments, monkeypatch):
        assert synth.ROW_CACHE_FLOATS * 8 == 16 * 2**20
        vocab, segments = demo_segments
        plans = self.random_plans(segments, 10, 5)
        n = len(BigramLM.train(segments, vocab).candidates())
        for limit in (4 * n - 1, 4 * n, 6 * n + 5, 10 * n):
            monkeypatch.setattr(synth, "ROW_CACHE_FLOATS", limit)
            lm = BigramLM.train(segments, vocab)
            for z, plan in plans:
                fill_masks(z, plan, lm, 8)
            entries = list(lm._rows.values())
            assert len(entries) == limit // (2 * n)
            assert sum(row.nbytes + order.nbytes for row, order in entries) <= 8 * limit

    def test_evicting_rows_leaves_fills_unchanged(self, demo_segments, monkeypatch):
        vocab, segments = demo_segments
        plans = self.random_plans(segments, 10, 5)
        full = BigramLM.train(segments, vocab)
        expected = [fill_masks(z, plan, full, 8) for z, plan in plans]
        n = len(full.candidates())
        # each cached entry is a row and its candidate order: 2n numbers
        monkeypatch.setattr(synth, "ROW_CACHE_FLOATS", 4 * n)
        small = BigramLM.train(segments, vocab)
        assert [fill_masks(z, plan, small, 8) for z, plan in plans] == expected
        assert len(small._rows) == 2 < len(full._rows)
        monkeypatch.setattr(synth, "ROW_CACHE_FLOATS", 1)
        tiny = BigramLM.train(segments, vocab)
        assert [fill_masks(z, plan, tiny, 8) for z, plan in plans] == expected
        assert len(tiny._rows) == 1


class TestBacktranslate:
    def test_identity_stub(self, vocab):
        z = seq("the cat sat", vocab)
        assert backtranslate(z, IDENTITY, vocab) == z

    def test_synonym_stub_substitutes(self, vocab):
        z = seq("a big dog ran", vocab)
        stub = StubBacktranslator({"big": "large"}, substitute_prob=1.0, shuffle_prob=0.0)
        out = backtranslate(z, stub, vocab, np.random.default_rng(0))
        assert out.tokens == ("a", "large", "dog", "ran")

    def test_stub_deterministic_given_rng(self, vocab):
        z = seq("the big cat sat near the small dog", vocab)
        stub = StubBacktranslator()
        a = backtranslate(z, stub, vocab, np.random.default_rng(5))
        b = backtranslate(z, stub, vocab, np.random.default_rng(5))
        assert a == b

    def test_external_translator_echoes_vector(self, vocab, tmp_path):
        script = tmp_path / "echo_fixed.py"
        script.write_text(
            "import sys\n"
            "for line in sys.stdin:\n"
            "    print('the dog sat on the mat')\n"
            "    sys.stdout.flush()\n"
        )
        translator = ExternalRoundTripTranslator(LineClient([sys.executable, str(script)]))
        try:
            out = backtranslate(seq("the cat", vocab), translator, vocab)
            assert out.detokenize() == "the dog sat on the mat"
        finally:
            translator.client.close()

    def test_external_translator_failure_carries_transcript(self, vocab, tmp_path):
        script = tmp_path / "dies.py"
        script.write_text("import sys; sys.exit(0)\n")
        translator = ExternalRoundTripTranslator(LineClient([sys.executable, str(script)]))
        try:
            with pytest.raises(ScorerProtocolError) as info:
                backtranslate(seq("the cat", vocab), translator, vocab)
        finally:
            translator.client.close()
        assert "the cat" in str(info.value)
        assert info.value.message == "child closed its output stream"


class TestDropWords:
    def test_deterministic(self, vocab):
        z = seq("the cat sat on the mat", vocab)
        assert drop_words(z, 3) == drop_words(z, 3)

    def test_output_is_subsequence(self, vocab):
        z = seq("the small cat sat near the big rug", vocab)
        for s in range(60):
            out = drop_words(z, s)
            it = iter(z.tokens)
            assert all(tok in it for tok in out.tokens)  # subsequence check

    def test_full_range_of_k_occurs(self, vocab):
        z = seq("the cat sat", vocab)
        lengths = {len(drop_words(z, s)) for s in range(200)}
        assert lengths == {0, 1, 2, 3}


class TestGenerateCorpus:
    def _segments(self, vocab):
        return [TokenSeq.from_tokens(s, vocab) for s in CORPUS]

    def test_counts_by_origin(self, vocab, lm):
        config = GenerationConfig(n_scatter=1, n_contiguous=1, n_backtranslation=1, word_drop_rate=0.0)
        out = generate_corpus(self._segments(vocab), config, lm, IDENTITY, vocab, seed=0)
        kinds = Counter(ex.origin.kind for ex in out)
        assert kinds == {MASK_SCATTER: 5, MASK_CONTIGUOUS: 5, BACKTRANSLATION: 5}

    def test_drop_rate_zero_and_one(self, vocab, lm):
        segments = self._segments(vocab)
        none = generate_corpus(
            segments, GenerationConfig(1, 0, 0, word_drop_rate=0.0), lm, IDENTITY, vocab, 1
        )
        assert all(ex.origin.kind != WORD_DROP for ex in none)
        everything = generate_corpus(
            segments, GenerationConfig(1, 0, 0, word_drop_rate=1.0), lm, IDENTITY, vocab, 1
        )
        drops = [ex for ex in everything if ex.origin.kind == WORD_DROP]
        assert len(drops) == len(segments)
        assert all(ex.origin.parent == MASK_SCATTER for ex in drops)

    def test_byte_identical_across_runs(self, vocab, lm, tmp_path):
        segments = self._segments(vocab)
        config = GenerationConfig()
        translator = StubBacktranslator()
        a = generate_corpus(segments, config, lm, translator, vocab, seed=77)
        b = generate_corpus(segments, config, lm, translator, vocab, seed=77)
        assert a == b
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_synthetic(a, p1)
        write_synthetic(b, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_word_drop_output_subsequence_of_parent(self, vocab, lm):
        segments = self._segments(vocab)
        config = GenerationConfig(1, 1, 1, word_drop_rate=1.0)
        out = generate_corpus(segments, config, lm, StubBacktranslator(), vocab, seed=5)
        n_base = len(segments) * 3
        base, drops = out[:n_base], out[n_base:]
        assert len(drops) == n_base
        for parent, child in zip(base, drops):
            assert child.z == parent.z
            it = iter(parent.z_tilde.tokens)
            assert all(tok in it for tok in child.z_tilde.tokens)

    def test_jsonl_roundtrip(self, vocab, lm, tmp_path):
        segments = self._segments(vocab)
        out = generate_corpus(segments, GenerationConfig(), lm, StubBacktranslator(), vocab, seed=3)
        path = tmp_path / "synth.jsonl"
        write_synthetic(out, path, meta={"config_hash": "abc"})
        loaded, header = read_synthetic(path, vocab)
        assert loaded == out
        assert header["config_hash"] == "abc"

    def test_empty_segment_list_errors(self, vocab, lm):
        with pytest.raises(DataError):
            generate_corpus([], GenerationConfig(), lm, IDENTITY, vocab, 0)


class TestOriginValidation:
    def test_word_drop_must_wrap_base(self):
        with pytest.raises(DataError):
            Origin(WORD_DROP, None)
        with pytest.raises(DataError):
            Origin(WORD_DROP, WORD_DROP)
        assert Origin(WORD_DROP, BACKTRANSLATION).base_kind() == BACKTRANSLATION

    def test_base_kind_cannot_have_parent(self):
        with pytest.raises(DataError):
            Origin(MASK_SCATTER, BACKTRANSLATION)

    def test_empty_source_rejected(self, vocab):
        empty = TokenSeq((), ())
        z = seq("the cat", vocab)
        with pytest.raises(DataError):
            SyntheticExample(empty, z, Origin(MASK_SCATTER), 0)


class TestLineClient:
    def test_request_wire_format(self, tmp_path):
        script = tmp_path / "repr_echo.py"
        script.write_text(
            "import sys\n"
            "for line in sys.stdin:\n"
            "    print(repr(line))\n"
            "    sys.stdout.flush()\n"
        )
        client = LineClient([sys.executable, str(script)])
        try:
            got = client.request("likelihood", "en-fr", "a\tb", "c\nd")
        finally:
            client.close()
        assert got == repr("likelihood\ten-fr\ta b\tc d\n") + "\n"
        assert client.transcript[0] == "> likelihood\ten-fr\ta b\tc d"

    def test_silent_child_is_killed_at_deadline(self, tmp_path, monkeypatch):
        monkeypatch.setattr(synth, "READ_DEADLINE_S", 1.0)
        script = tmp_path / "silent.py"
        script.write_text("import time\ntime.sleep(60)\n")
        client = LineClient([sys.executable, str(script)])
        start = time.monotonic()
        try:
            with pytest.raises(ScorerProtocolError) as info:
                client.request("the cat")
            proc = client._proc
            assert proc.poll() is not None
        finally:
            client.close()
        assert time.monotonic() - start < 10
        assert "no answer within 1 s" in str(info.value)
        assert "> the cat" in str(info.value)

    def test_child_stderr_joins_the_transcript(self, tmp_path, capfd):
        script = tmp_path / "chatty.py"
        script.write_text(
            "import sys\n"
            "sys.stdin.readline()\n"
            "for i in range(3):\n"
            "    print(f'warning {i}', file=sys.stderr)\n"
        )
        client = LineClient([sys.executable, str(script)])
        try:
            with pytest.raises(ScorerProtocolError) as info:
                client.request("the cat")
        finally:
            client.close()
        assert info.value.message == "child closed its output stream"
        assert info.value.transcript == ("> the cat", "! warning 0", "! warning 1", "! warning 2")
        assert capfd.readouterr().err == ""
