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
    IdentityTranslator,
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
from pairscore.text import TokenSeq, Vocabulary, tokenize

CORPUS = [
    "the cat sat on the mat".split(),
    "the dog sat on the rug".split(),
    "the cat ran to the dog".split(),
    "a big dog ran to the mat".split(),
    "the small cat sat near the rug".split(),
]


@pytest.fixture
def vocab():
    return Vocabulary.build(CORPUS, min_count=1)


@pytest.fixture
def lm(vocab):
    return BigramLM.train(CORPUS, vocab)


def seq(text, vocab):
    return tokenize(text, vocab)


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
        uni = BigramLM.train_unigram(CORPUS, vocab)
        assert uni.log_prob("cat", "the") == pytest.approx(uni.log_prob("cat", "zzz"))


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
        uni = BigramLM.train_unigram(CORPUS, vocab)
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


class TestBacktranslate:
    def test_identity_stub(self, vocab):
        z = seq("the cat sat", vocab)
        assert backtranslate(z, IdentityTranslator(), vocab) == z

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
        out = generate_corpus(self._segments(vocab), config, lm, IdentityTranslator(), vocab, seed=0)
        kinds = Counter(ex.origin.kind for ex in out)
        assert kinds == {MASK_SCATTER: 5, MASK_CONTIGUOUS: 5, BACKTRANSLATION: 5}

    def test_drop_rate_zero_and_one(self, vocab, lm):
        segments = self._segments(vocab)
        none = generate_corpus(
            segments, GenerationConfig(1, 0, 0, word_drop_rate=0.0), lm, IdentityTranslator(), vocab, 1
        )
        assert all(ex.origin.kind != WORD_DROP for ex in none)
        everything = generate_corpus(
            segments, GenerationConfig(1, 0, 0, word_drop_rate=1.0), lm, IdentityTranslator(), vocab, 1
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
            generate_corpus([], GenerationConfig(), lm, IdentityTranslator(), vocab, 0)


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
