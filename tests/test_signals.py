import json
import math
import sys
from collections import Counter

import numpy as np
import pytest

from pairscore.errors import DataError, NumericError, ScorerProtocolError
from pairscore.metrics import EmbeddingTable
from pairscore.signals import (
    REGRESSION_DIM,
    SIGNAL_COLUMNS,
    SIGNAL_DIM,
    BaselineEntailment,
    ExternalEntailment,
    ExternalLikelihoodScorer,
    SignalError,
    SignalProviders,
    TaskSpec,
    UnigramScorer,
    backtrans_likelihood,
    compute_signals,
    default_task_specs,
    entailment_probs,
    fit_normalization,
    label_pairs,
    offline_providers,
    read_signals,
    regression_dim_labels,
    request_reals,
    signal_blocks,
    signal_row,
    write_signals,
)
from pairscore.synth import (
    BACKTRANSLATION,
    MASK_SCATTER,
    WORD_DROP,
    LineClient,
    Origin,
    SyntheticExample,
)
from pairscore.text import TokenSeq, Vocabulary, tokenize

CORPUS = [
    "the cat sat on the mat".split(),
    "the dog ran to the rug".split(),
    "a big cat sat near a small dog".split(),
]


@pytest.fixture
def vocab():
    return Vocabulary.build(CORPUS, min_count=1)


@pytest.fixture
def providers(vocab):
    emb = EmbeddingTable.hashed([t for s in CORPUS for t in s], dim=16)
    scorer = UnigramScorer.train(CORPUS)
    return SignalProviders(embeddings=emb, likelihood=scorer, entailment=BaselineEntailment())


def example(vocab, z_text, zt_text, origin=Origin(MASK_SCATTER)):
    return SyntheticExample(tokenize(z_text, vocab), tokenize(zt_text, vocab), origin, seed=0)


def block(row, task):
    return row[SIGNAL_COLUMNS[task]]


class FixedScorer:
    def __init__(self, value):
        self.value = value

    def log_prob(self, direction, target, conditioning):
        return self.value


class TestBacktransLikelihood:
    def test_logprob_zero_gives_zero(self, vocab):
        t = tokenize("the cat", vocab)
        assert backtrans_likelihood(t, t, FixedScorer(0.0), "en-fr") == 0.0

    def test_length_normalization(self, vocab):
        target = tokenize("a b c d", vocab)
        cond = tokenize("x", vocab)
        assert backtrans_likelihood(target, cond, FixedScorer(-2.0), "en-fr") == pytest.approx(-0.5)

    def test_empty_target_errors(self, vocab):
        empty = TokenSeq((), ())
        with pytest.raises(NumericError):
            backtrans_likelihood(empty, tokenize("the cat", vocab), FixedScorer(0.0), "en-fr")

    def test_unigram_stub_matches_hand_summation(self, vocab):
        scorer = UnigramScorer.train(CORPUS)
        target = tokenize("the cat ran", vocab)
        cond = tokenize("the cat sat", vocab)
        # independent oracle: count tokens over the corpus, apply add-k by hand
        counts = Counter(t for s in CORPUS for t in s)
        total = sum(counts.values())
        types = len(counts) + 1
        k = 0.2  # en-fr constant
        expected = sum(
            math.log((counts[tok] + k) / (total + k * types)) for tok in ("the", "cat", "ran")
        ) / 3
        got = backtrans_likelihood(target, cond, scorer, "en-fr")
        assert got == pytest.approx(expected, abs=1e-12)

    def test_directions_distinct(self, vocab):
        scorer = UnigramScorer.train(CORPUS)
        t = tokenize("the cat", vocab)
        c = tokenize("the dog", vocab)
        fr = backtrans_likelihood(t, c, scorer, "en-fr")
        de = backtrans_likelihood(t, c, scorer, "en-de")
        assert fr != de


class FixedEntailment:
    def __init__(self, triple):
        self.triple = triple

    def probs(self, z, z_tilde):
        return self.triple


class TestEntailmentProbs:
    def test_passthrough(self, vocab):
        z = tokenize("the cat", vocab)
        got = entailment_probs(z, z, FixedEntailment((0.2, 0.3, 0.5)))
        np.testing.assert_allclose(got, [0.2, 0.3, 0.5])

    def test_bad_sum_rejected(self, vocab):
        z = tokenize("the cat", vocab)
        with pytest.raises(NumericError):
            entailment_probs(z, z, FixedEntailment((0.5, 0.5, 0.5)))

    def test_negative_rejected(self, vocab):
        z = tokenize("the cat", vocab)
        with pytest.raises(NumericError):
            entailment_probs(z, z, FixedEntailment((-0.1, 0.6, 0.5)))

    def test_tiny_drift_renormalized(self, vocab):
        z = tokenize("the cat", vocab)
        got = entailment_probs(z, z, FixedEntailment((0.2, 0.3, 0.5 + 5e-7)))
        assert got.sum() == pytest.approx(1.0, abs=1e-15)

    def test_baseline_identity_argmax_entail(self, vocab):
        z = tokenize("the big cat sat", vocab)
        probs = entailment_probs(z, z, BaselineEntailment())
        assert int(np.argmax(probs)) == 0

    def test_baseline_antonym_raises_contradiction(self, vocab):
        z = tokenize("a big cat", vocab)
        zt = tokenize("a small cat", vocab)
        entail, contradict, _ = BaselineEntailment().probs(z, zt)
        zt_plain = tokenize("a cat", vocab)
        _, contradict_plain, _ = BaselineEntailment().probs(z, zt_plain)
        assert contradict > contradict_plain

    def test_baseline_empty_candidate_neutral(self, vocab):
        z = tokenize("the cat", vocab)
        probs = BaselineEntailment().probs(z, TokenSeq((), ()))
        assert probs == (0.0, 0.0, 1.0)


class TestComputeSignals:
    def test_identity_pair_maxes_metric_blocks(self, vocab, providers):
        ex = example(vocab, "the cat sat on the mat", "the cat sat on the mat")
        row = compute_signals(ex, providers)
        assert row.shape == (SIGNAL_DIM,) and row.dtype == np.float64
        assert block(row, "bleu")[0] == pytest.approx(1.0)
        np.testing.assert_allclose(block(row, "rouge"), [1.0, 1.0, 1.0])
        np.testing.assert_allclose(block(row, "soft_overlap"), [1.0, 1.0, 1.0], atol=1e-12)

    def test_flag_rule(self, vocab, providers):
        mask_ex = example(vocab, "the cat sat", "the dog sat")
        np.testing.assert_array_equal(block(compute_signals(mask_ex, providers), "bt_flag"), [0.0, 1.0])
        bt_ex = example(vocab, "the cat sat", "the cat ran", Origin(BACKTRANSLATION))
        np.testing.assert_array_equal(block(compute_signals(bt_ex, providers), "bt_flag"), [1.0, 0.0])
        drop_ex = example(vocab, "the cat sat", "the cat", Origin(WORD_DROP, BACKTRANSLATION))
        np.testing.assert_array_equal(block(compute_signals(drop_ex, providers), "bt_flag"), [1.0, 0.0])

    def test_likelihood_dims_wired_to_four_combinations(self, vocab, providers):
        ex = example(vocab, "the cat sat on the mat", "the dog ran")
        row = compute_signals(ex, providers)
        sc = providers.likelihood
        assert block(row, "bt_en_fr_ref")[0] == pytest.approx(
            backtrans_likelihood(ex.z, ex.z_tilde, sc, "en-fr")
        )
        assert block(row, "bt_en_fr_cand")[0] == pytest.approx(
            backtrans_likelihood(ex.z_tilde, ex.z, sc, "en-fr")
        )
        assert block(row, "bt_en_de_ref")[0] == pytest.approx(
            backtrans_likelihood(ex.z, ex.z_tilde, sc, "en-de")
        )
        assert block(row, "bt_en_de_cand")[0] == pytest.approx(
            backtrans_likelihood(ex.z_tilde, ex.z, sc, "en-de")
        )

    def test_error_carries_task_name(self, vocab, providers):
        ex = example(vocab, "the cat sat", "", Origin(WORD_DROP, MASK_SCATTER))
        with pytest.raises(SignalError) as info:
            compute_signals(ex, providers)
        assert "bt_en_fr_cand" in str(info.value)
        assert info.value.task == "bt_en_fr_cand"

    def test_deterministic(self, vocab, providers):
        ex = example(vocab, "a big cat sat near a small dog", "the dog sat")
        np.testing.assert_array_equal(compute_signals(ex, providers), compute_signals(ex, providers))

    def test_corpus_skip_failures_preserves_order(self, vocab, providers):
        good1 = example(vocab, "the cat sat", "the dog sat")
        bad = example(vocab, "the cat sat", "", Origin(WORD_DROP, MASK_SCATTER))
        good2 = example(vocab, "the dog ran", "the dog ran fast")
        pairs, stats, failures = label_pairs([good1, bad, good2], providers)
        assert [p[0] for p in pairs] == [good1, good2]
        assert failures == [(1, "bt_en_fr_cand")]
        raw = np.stack([compute_signals(ex, providers) for ex in (good1, good2)])
        raw[:, :REGRESSION_DIM] = (raw[:, :REGRESSION_DIM] - stats.mean) / stats.std
        np.testing.assert_array_equal(np.stack([row for _, row in pairs]), raw)

    def test_corpus_where_every_example_fails(self, vocab, providers):
        bad = example(vocab, "the cat sat", "", Origin(WORD_DROP, MASK_SCATTER))
        with pytest.raises(DataError, match="failed for every example"):
            label_pairs([bad, bad], providers)


class TestOfflineProviders:
    def test_scorer_counts_each_distinct_source_once(self, vocab):
        a = example(vocab, "the cat sat on the mat", "the cat sat")
        b = example(vocab, "the dog ran", "the dog")
        once = offline_providers([a, b]).likelihood
        repeated = offline_providers([a, a, a, b, b]).likelihood
        want = UnigramScorer.train([a.z, b.z])
        for token in ("the", "cat", "dog", "rug"):
            for direction in ("en-fr", "en-de"):
                p = want.token_log_prob(token, direction)
                assert once.token_log_prob(token, direction) == p
                assert repeated.token_log_prob(token, direction) == p

    def test_embeddings_cover_the_source_tokens(self, vocab):
        ex = example(vocab, "the cat sat", "the dog sat")
        expected = EmbeddingTable.hashed(["the", "cat", "sat"], dim=8)
        table = offline_providers([ex, ex], dim=8).embeddings
        for token in ("the", "cat", "sat"):
            np.testing.assert_array_equal(table.vector(token), expected.vector(token))


class TestSignalVectorValidation:
    """signal_row: the one constructor of a pair's validated signal row."""

    def _values(self):
        return {
            "bleu": [0.5],
            "rouge": [0.5, 0.5, 0.5],
            "soft_overlap": [0.1, 0.2, 0.3],
            "bt_en_fr_ref": [-1.0],
            "bt_en_fr_cand": [-2.0],
            "bt_en_de_ref": [-1.5],
            "bt_en_de_cand": [-2.5],
            "entailment": [0.2, 0.3, 0.5],
            "bt_flag": [0.0, 1.0],
        }

    def test_valid_vector_roundtrips_json(self):
        row = signal_row(self._values())
        assert signal_blocks(row) == self._values()
        again = signal_row(json.loads(json.dumps(signal_blocks(row))))
        np.testing.assert_array_equal(row, again)

    def test_row_layout(self):
        row = signal_row(self._values())
        assert row.shape == (SIGNAL_DIM,) == (16,)
        assert [(c.start, c.stop) for c in SIGNAL_COLUMNS.values()] == [
            (0, 1), (1, 4), (4, 7), (7, 8), (8, 9), (9, 10), (10, 11), (11, 14), (14, 16)
        ]
        assert list(SIGNAL_COLUMNS) == [t.name for t in default_task_specs()]
        np.testing.assert_array_equal(
            row, np.concatenate([self._values()[name] for name in SIGNAL_COLUMNS])
        )

    def test_regression_dim_is_eleven(self):
        assert REGRESSION_DIM == 11
        assert len(regression_dim_labels()) == 11
        assert all(c.stop <= REGRESSION_DIM for t, c in zip(default_task_specs(), SIGNAL_COLUMNS.values())
                   if t.kind == "regression")

    def test_simplex_violation_rejected(self):
        values = self._values()
        values["entailment"] = [0.9, 0.3, 0.5]
        with pytest.raises(NumericError, match="entailment"):
            signal_row(values)

    def test_flag_must_be_one_hot(self):
        values = self._values()
        values["bt_flag"] = [0.5, 0.5]
        with pytest.raises(NumericError, match="bt_flag"):
            signal_row(values)

    def test_missing_task_rejected(self):
        values = self._values()
        del values["rouge"]
        with pytest.raises(DataError, match="missing task 'rouge'"):
            signal_row(values)

    def test_unknown_task_rejected(self):
        values = {**self._values(), "chrf": [0.5]}
        with pytest.raises(DataError, match="unknown signal tasks: \\['chrf'\\]"):
            signal_row(values)

    @pytest.mark.parametrize("bad", [[0.5, 0.5], [], [[0.5]]])
    def test_wrong_dim_rejected(self, bad):
        values = {**self._values(), "bleu": bad}
        with pytest.raises(DataError, match="task 'bleu' expects 1 values"):
            signal_row(values)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, value):
        values = {**self._values(), "soft_overlap": [0.1, value, 0.3]}
        with pytest.raises(NumericError, match="task 'soft_overlap' has non-finite values"):
            signal_row(values)

    def test_nine_tasks_declared(self):
        specs = default_task_specs()
        assert len(specs) == 9
        assert sum(t.dim for t in specs if t.kind == "regression") == 11
        assert [t.dim for t in specs if t.kind == "classification"] == [3, 2]

    def test_task_spec_validation(self):
        with pytest.raises(DataError):
            TaskSpec("x", "nonsense", 1)
        with pytest.raises(DataError):
            TaskSpec("x", "regression", 0)
        with pytest.raises(DataError):
            TaskSpec("x", "regression", 1, weight=-1.0)


class TestNormalization:
    def _corpus(self, vocab, n=12):
        rng = np.random.default_rng(0)
        words = [t for s in CORPUS for t in s]
        out = []
        for i in range(n):
            z_toks = [words[j] for j in rng.integers(0, len(words), size=6)]
            zt_toks = [words[j] for j in rng.integers(0, len(words), size=5)]
            origin = Origin(BACKTRANSLATION) if i % 2 else Origin(MASK_SCATTER)
            out.append(SyntheticExample(
                TokenSeq.from_tokens(z_toks, vocab), TokenSeq.from_tokens(zt_toks, vocab), origin, i
            ))
        return out

    def test_two_point_standardization(self, vocab, providers):
        high = example(vocab, "the cat sat on the mat", "the cat sat on the mat")
        low = example(vocab, "a big dog ran", "a small rug")  # below high in every dimension
        pairs, _, _ = label_pairs([high, low], providers)
        np.testing.assert_allclose(pairs[0][1][:REGRESSION_DIM], 1.0, atol=1e-12)
        np.testing.assert_allclose(pairs[1][1][:REGRESSION_DIM], -1.0, atol=1e-12)

    def test_corpus_mean_zero_std_one(self, vocab, providers):
        pairs, _, _ = label_pairs(self._corpus(vocab), providers)
        normed = np.stack([row[:REGRESSION_DIM] for _, row in pairs])
        np.testing.assert_allclose(normed.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(normed.std(axis=0), 1.0, atol=1e-6)

    def test_standardized_vector_equals_a_validated_one(self, vocab, providers):
        examples = self._corpus(vocab)
        pairs, stats, _ = label_pairs(examples, providers)
        raw = np.stack([compute_signals(ex, providers) for ex in examples])
        np.testing.assert_array_equal(stats.mean, raw[:, :REGRESSION_DIM].mean(axis=0))
        np.testing.assert_array_equal(stats.std, raw[:, :REGRESSION_DIM].std(axis=0))
        for (_, row), raw_row in zip(pairs, raw):
            np.testing.assert_array_equal(row, signal_row(signal_blocks(row)))
            np.testing.assert_array_equal(
                row[:REGRESSION_DIM], (raw_row[:REGRESSION_DIM] - stats.mean) / stats.std
            )

    def test_replaced_regression_values_are_checked(self, vocab):
        # The two references' likelihoods (1.7e308 over 3 and over 1 tokens)
        # sum past the float64 maximum, so their columns standardize to nan;
        # the first such task is named.
        providers = SignalProviders(
            embeddings=EmbeddingTable.hashed([t for s in CORPUS for t in s], dim=16),
            likelihood=FixedScorer(1.7e308),
            entailment=BaselineEntailment(),
        )
        examples = [example(vocab, "the cat sat", "the cat sat"), example(vocab, "dog", "a rug near the mat")]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="task 'bt_en_fr_ref' has non-finite values"):
                label_pairs(examples, providers)

    def test_classification_blocks_untouched(self, vocab, providers):
        examples = self._corpus(vocab)
        pairs, _, _ = label_pairs(examples, providers)
        for ex, row in pairs:
            np.testing.assert_array_equal(row[REGRESSION_DIM:], compute_signals(ex, providers)[REGRESSION_DIM:])

    def test_constant_dimension_errors_with_name(self, vocab, providers):
        matrix = np.stack([compute_signals(ex, providers) for ex in self._corpus(vocab, n=4)])
        matrix[:, SIGNAL_COLUMNS["bleu"]] = 0.25
        with pytest.raises(NumericError) as info:
            fit_normalization(matrix)
        assert "bleu" in str(info.value)

    def test_signals_file_roundtrip(self, vocab, providers, tmp_path):
        pairs, stats, _ = label_pairs(self._corpus(vocab, n=6), providers)
        path = tmp_path / "signals.jsonl"
        write_signals(pairs, path, stats, meta={"config_hash": "deadbeef"})
        loaded, loaded_stats, header = read_signals(path, vocab)
        assert [ex for ex, _ in loaded] == [ex for ex, _ in pairs]
        np.testing.assert_array_equal(np.stack([r for _, r in loaded]), np.stack([r for _, r in pairs]))
        np.testing.assert_array_equal(loaded_stats.mean, stats.mean)
        np.testing.assert_array_equal(loaded_stats.std, stats.std)
        assert header["config_hash"] == "deadbeef"


SCORER_SCRIPT = """\
import sys
for line in sys.stdin:
    task, direction, z, zt = line.rstrip("\\n").split("\\t")
    if task == "likelihood":
        print(-0.5 * len(zt.split()))
    elif task == "entailment":
        print("0.6 0.1 0.3")
    else:
        print("bogus response")
    sys.stdout.flush()
"""


class TestExternalScorerProtocol:
    @pytest.fixture
    def scorer(self, tmp_path):
        script = tmp_path / "scorer.py"
        script.write_text(SCORER_SCRIPT)
        scorer = LineClient([sys.executable, str(script)])
        yield scorer
        scorer.close()

    def test_likelihood_roundtrip(self, vocab, scorer):
        adapter = ExternalLikelihoodScorer(scorer)
        target = tokenize("the cat sat", vocab)
        cond = tokenize("the dog", vocab)
        got = backtrans_likelihood(target, cond, adapter, "en-fr")
        assert got == pytest.approx(-0.5 * 3 / 3)

    def test_entailment_roundtrip(self, vocab, scorer):
        adapter = ExternalEntailment(scorer)
        z = tokenize("the cat", vocab)
        got = entailment_probs(z, z, adapter)
        np.testing.assert_allclose(got, [0.6, 0.1, 0.3])

    def test_dead_process_raises_protocol_error(self, vocab, tmp_path):
        script = tmp_path / "dead.py"
        script.write_text("import sys; sys.exit(1)\n")
        scorer = LineClient([sys.executable, str(script)])
        try:
            with pytest.raises(ScorerProtocolError):
                scorer.request("likelihood", "en-fr", "a", "b")
        finally:
            scorer.close()

    def test_non_numeric_response_raises(self, vocab, scorer):
        with pytest.raises(ScorerProtocolError):
            request_reals(scorer, 1, "unknown-task", "-", "a", "b")
