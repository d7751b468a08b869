import csv

import numpy as np
import pytest

from pairscore.demo import demo_sentences
from pairscore.encoder import EncoderConfig, init_model
from pairscore.experiments import (
    Split,
    ablation_to_csv,
    build_drift_dataset,
    build_offline_pretraining_data,
    edit_similarity,
    run_ablation,
    run_grid,
)
from pairscore.errors import DataError
from pairscore.signals import default_task_specs
from pairscore.synth import GenerationConfig
from pairscore.text import Vocabulary, split_no_leak
from pairscore.training import TrainConfig, finetune, pretrain, validation_kendall

from edit_oracle import reference_edit_similarity

SEGMENTS = [s for s in demo_sentences(120, seed=23) if len(s.split()) <= 10][:50]


@pytest.fixture(scope="module")
def vocab():
    return Vocabulary.build([s.split() for s in SEGMENTS], min_count=1)


@pytest.fixture(scope="module")
def pipeline(vocab):
    """The arguments of ``run_ablation`` but its mode."""
    synthetic = build_offline_pretraining_data(
        SEGMENTS, vocab, GenerationConfig(1, 0, 1, word_drop_rate=0.2), seed=1
    )
    data = build_drift_dataset(SEGMENTS, vocab, n_records=90, seed=2)
    train_pool, test = split_no_leak(data, 0.3, seed=0)
    train, validation = split_no_leak(train_pool, 0.2, seed=0)
    return dict(
        vocab=vocab,
        encoder_config=EncoderConfig(
            vocab_size=len(vocab), d_model=16, n_layers=1, n_heads=2, d_ff=32,
            max_seq_len=28, init_seed=0,
        ),
        base_tasks=default_task_specs(),
        synthetic=synthetic,
        pretrain_config=TrainConfig(total_steps=8, eval_every=4, batch_size=8, learning_rate=1e-3, seed=0),
        split=Split(train, validation, test, TrainConfig(
            total_steps=8, eval_every=4, batch_size=8, learning_rate=1e-3, seed=0
        )),
    )


class TestEditSimilarity:
    def test_identity(self):
        assert edit_similarity(["a", "b"], ["a", "b"]) == 1.0

    def test_disjoint(self):
        assert edit_similarity(["a", "b"], ["c", "d"]) == 0.0

    def test_single_substitution(self):
        assert edit_similarity(["a", "b", "c"], ["a", "x", "c"]) == pytest.approx(2 / 3)

    def test_deletion(self):
        assert edit_similarity(["a", "b", "c", "d"], ["a", "c", "d"]) == pytest.approx(3 / 4)

    def test_empty_pair(self):
        assert edit_similarity([], []) == 1.0
        assert edit_similarity(["a"], []) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        pool = ["u", "v", "w", "x"]
        for _ in range(40):
            a = [pool[i] for i in rng.integers(0, 4, size=rng.integers(0, 7))]
            b = [pool[i] for i in rng.integers(0, 4, size=rng.integers(1, 7))]
            assert edit_similarity(a, b) == pytest.approx(edit_similarity(b, a))

    @pytest.mark.parametrize("a, b", [
        ([], []),
        ([], ["a"]),
        (["a", "b"], []),
        (["a", "b", "c"], ["a", "b", "c"]),
        (["a", "a"], ["a", "a", "a"]),
        (["a", "a", "a"], ["a", "a"]),
        (["a", "b", "a"], ["a", "b", "b", "a"]),
        (["x", "a", "y"], ["x", "y"]),
        (["a", "b"], ["b", "a"]),
    ])
    def test_edge_cases_equal_the_full_table(self, a, b):
        # a prefix and a suffix that would overlap must not both be stripped
        assert edit_similarity(a, b) == reference_edit_similarity(a, b)

    def test_random_lists_equal_the_full_table(self):
        rng = np.random.default_rng(4)
        for _ in range(2000):
            pool = ["u", "v", "w", "x", "y"][: int(rng.integers(1, 6))]
            a = [pool[i] for i in rng.integers(0, len(pool), size=rng.integers(0, 12))]
            b = list(a)
            for _ in range(int(rng.integers(0, 4))):  # a few edits keep prefixes and suffixes shared
                at = int(rng.integers(0, len(b) + 1))
                edit = rng.integers(0, 3)
                if edit == 0:
                    b.insert(at, pool[int(rng.integers(0, len(pool)))])
                elif at < len(b):
                    if edit == 1:
                        del b[at]
                    else:
                        b[at] = pool[int(rng.integers(0, len(pool)))]
            if rng.random() < 0.2:
                b = [pool[i] for i in rng.integers(0, len(pool), size=rng.integers(0, 12))]
            assert edit_similarity(a, b) == reference_edit_similarity(a, b), (a, b)


class TestDriftDataset:
    def test_ratings_track_similarity(self, vocab):
        data = build_drift_dataset(SEGMENTS, vocab, n_records=150, seed=5, noise_sd=2.0)
        sims = np.array(
            [edit_similarity(ex.pair.reference.tokens, ex.pair.candidate.tokens) for ex in data]
        )
        ratings = np.array([ex.rating for ex in data])
        corr = np.corrcoef(sims, ratings)[0, 1]
        assert corr > 0.95
        assert sims.std() > 0.2  # wide quality spread

    def test_deterministic(self, vocab):
        a = build_drift_dataset(SEGMENTS, vocab, n_records=40, seed=9)
        b = build_drift_dataset(SEGMENTS, vocab, n_records=40, seed=9)
        assert a == b

    def test_distinct_source_ids(self, vocab):
        data = build_drift_dataset(SEGMENTS, vocab, n_records=40, seed=9)
        assert len({ex.source_id for ex in data}) == 40


class TestRunAblation:
    def test_single_task_mode_has_nine_rows(self, pipeline):
        rows = run_ablation(**pipeline, mode="single-task")
        assert len(rows) == 9
        for row in rows:
            assert row.error is None
            assert row.active == (row.name,)
            assert row.tau is not None and row.delta is not None

    def test_leave_one_out_has_eight_active_each(self, pipeline):
        rows = run_ablation(**pipeline, mode="leave-one-out")
        assert len(rows) == 9
        for row in rows:
            assert row.error is None
            assert len(row.active) == 8
            assert row.name not in row.active

    def test_dead_path_row_delta_exactly_zero(self, vocab, pipeline):
        zeroed = tuple(
            t.with_weight(0.0 if t.name == "rouge" else t.weight) for t in pipeline["base_tasks"]
        )
        rows = run_ablation(**{**pipeline, "base_tasks": zeroed}, mode="single-task")
        by_name = {r.name: r for r in rows}
        assert by_name["rouge"].delta == 0.0

    def test_unknown_mode_errors(self, pipeline):
        with pytest.raises(DataError):
            run_ablation(**pipeline, mode="everything-at-once")

    def test_csv_output(self, pipeline, tmp_path):
        rows = run_ablation(**pipeline, mode="single-task")
        path = tmp_path / "ablation.csv"
        ablation_to_csv(rows, path)
        with open(path) as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == 9
        assert parsed[0]["task"] == "bleu"
        assert parsed[0]["mode"] == "single-task"
        float(parsed[0]["kendall"])


class TestRunGrid:
    def test_each_tau_is_one_finetune_and_score(self, vocab, pipeline):
        split = pipeline["split"]
        scratch = init_model(pipeline["encoder_config"])
        pretrained, _ = pretrain(scratch, pipeline["synthetic"], pipeline["pretrain_config"], vocab)
        arms = {"pretrained": pretrained, "scratch": scratch}
        half = len(split.train) // 2
        splits = {
            "low": [split, Split(split.train[:half], split.validation, split.test, split.config)],
            "high": [
                Split(split.train[half:], split.validation, split.test, split.config),
                Split(split.train, split.validation, split.validation,
                      TrainConfig(total_steps=6, eval_every=3, batch_size=4, learning_rate=2e-3, seed=1)),
            ],
        }
        taus = run_grid(arms, splits, vocab)
        assert list(taus) == ["pretrained", "scratch"]
        for arm, start in arms.items():
            assert list(taus[arm]) == ["low", "high"]
            for condition, condition_splits in splits.items():
                want = []
                for s in condition_splits:
                    tuned, _ = finetune(start, s.train, s.validation, s.config, vocab)
                    want.append(validation_kendall(tuned, s.test, vocab))
                assert taus[arm][condition] == want
        assert len({tau for by_condition in taus.values() for v in by_condition.values() for tau in v}) > 1

    def test_first_failure_stops_the_grid(self, vocab, pipeline):
        split = pipeline["split"]
        bad = Split([], split.validation, split.test, split.config)
        with pytest.raises(DataError):
            run_grid({"scratch": init_model(pipeline["encoder_config"])}, {"a": [split, bad]}, vocab)
