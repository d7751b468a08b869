import csv
import dataclasses
import json
import struct
import warnings

import numpy as np
import pytest

from pairscore import cli
from pairscore.cli import DEFAULTS, config_hash, load_config, main, render_config
from pairscore.demo import demo_sentences, load_demo_ratings_path
from pairscore.encoder import CHECKPOINT_MAGIC, EncoderConfig, init_model, load_checkpoint, save_checkpoint
from pairscore.errors import UsageError
from pairscore.experiments import DriftStudyConfig, build_offline_pretraining_data
from pairscore.signals import SIGNAL_COLUMNS, read_signals
from pairscore.synth import GenerationConfig
from pairscore.text import RatingRecord, Vocabulary, read_rating_records, split_tokens
from pairscore.training import TrainConfig, params_digest

from predict_oracle import reference_predict_records


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def corpus_file(workdir):
    path = workdir / "corpus.txt"
    sentences = [s for s in demo_sentences(200, seed=19) if len(s.split()) <= 12][:120]
    path.write_text("\n".join(sentences) + "\n", encoding="utf-8")
    return path


FAST_SETTINGS = [
    "--set", "vocab_min_count=1",
    "--set", "d_model=16",
    "--set", "n_layers=1",
    "--set", "n_heads=2",
    "--set", "d_ff=32",
    "--set", "max_seq_len=40",
    "--set", "pretrain_steps=30",
    "--set", "finetune_steps=30",
    "--set", "eval_every=10",
    "--set", "batch_size=8",
    "--set", "pretrain_learning_rate=0.001",
    "--set", "finetune_learning_rate=0.001",
    "--set", "holdout_fraction=0.2",
    "--set", "darr_threshold=10.0",
]


def run_cli(*argv):
    return main([str(a) for a in argv])


def manifest_digest_matches_checkpoint(manifest_path, ckpt):
    stage = json.loads(manifest_path.read_text())["stages"][0]
    return stage["checkpoint"] == str(ckpt) and stage["params_digest"] == params_digest(
        load_checkpoint(ckpt)[0]
    )


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """Pairs, vocabulary and signals of a 10-sentence corpus."""
    work = tmp_path_factory.mktemp("chain")
    corpus = work / "corpus.txt"
    corpus.write_text("\n".join(demo_sentences(10, seed=11)) + "\n", encoding="utf-8")
    out = {name: work / name for name in ("corpus.txt", "pairs.jsonl", "vocab.json", "signals.jsonl")}
    assert run_cli(*FAST_SETTINGS, "gen-pairs", corpus, out["pairs.jsonl"],
                   "--vocab-out", out["vocab.json"]) == 0
    assert run_cli(*FAST_SETTINGS, "compute-signals", out["pairs.jsonl"], out["vocab.json"],
                   out["signals.jsonl"]) == 0
    return out


class TestConfig:
    def test_dump_defaults(self, capsys):
        assert run_cli("--dump-defaults") == 0
        out = capsys.readouterr().out
        assert "pretrain_steps = 2000" in out
        assert "batch_size = 32" in out

    def test_unknown_key_rejected(self):
        with pytest.raises(UsageError):
            load_config(None, ["no_such_key=1"])

    def test_unknown_key_in_file_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mystery = 3\n")
        with pytest.raises(UsageError):
            load_config(str(cfg), [])

    def test_file_and_overrides_compose(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("# comment\nseed = 9\nword_drop_rate = 0.5\n")
        config = load_config(str(cfg), ["seed=10"])
        assert config["seed"] == 10
        assert config["word_drop_rate"] == 0.5

    def test_hash_stable_and_sensitive(self):
        a = load_config(None, [])
        b = load_config(None, ["seed=43"])
        assert config_hash(a) == config_hash(DEFAULTS)
        assert config_hash(a) != config_hash(b)

    def test_render_parses_back(self, tmp_path):
        rendered = render_config(DEFAULTS)
        cfg = tmp_path / "round.cfg"
        cfg.write_text(rendered + "\n")
        assert load_config(str(cfg), []) == dict(DEFAULTS)

    def test_type_coercion_errors(self):
        with pytest.raises(UsageError):
            load_config(None, ["seed=abc"])
        with pytest.raises(UsageError):
            load_config(None, ["skew_disjoint=maybe"])

    def test_settings_are_pinned(self):
        """Every setting, by name: adding or removing one is an edit to this list."""
        assert sorted(DEFAULTS) == [
            "alpha_test", "alpha_train", "batch_size", "beam_width", "d_ff", "d_model",
            "darr_threshold", "embedding_file", "entailment_command", "eval_every", "eval_grouping",
            "finetune_learning_rate", "finetune_steps", "gamma_likelihood", "gamma_metrics",
            "gamma_semantic", "holdout_fraction", "max_seq_len", "n_backtranslation", "n_bins",
            "n_contiguous", "n_heads", "n_layers", "n_scatter", "pretrain_learning_rate",
            "pretrain_steps", "scorer_command", "seed", "skew_disjoint", "translator_command",
            "vocab_min_count", "vocab_size_cap", "word_drop_rate",
        ]
        fields = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
                  for cls in (EncoderConfig, TrainConfig, GenerationConfig, DriftStudyConfig)}
        assert fields == {
            "EncoderConfig": ["vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "max_seq_len", "init_seed"],
            "TrainConfig": ["total_steps", "eval_every", "batch_size", "learning_rate", "seed", "stage"],
            "GenerationConfig": ["n_scatter", "n_contiguous", "n_backtranslation", "word_drop_rate", "beam_width"],
            "DriftStudyConfig": [
                "alphas", "n_seeds", "corpus_size", "max_segment_tokens", "n_records", "pretrain_steps",
                "pretrain_eval_every", "finetune_steps", "finetune_eval_every", "finetune_learning_rate",
                "data_seed",
            ],
        }

    def test_dropout_is_not_a_setting(self, tmp_path, capsys):
        out = tmp_path / "pairs.jsonl"
        capsys.readouterr()
        rc = run_cli("--set", "dropout=0.1", "gen-pairs", "demo", out, "--vocab-out", tmp_path / "vocab.json")
        err = capsys.readouterr().err
        assert rc == 2
        assert err == "error: unknown config key 'dropout'\n"
        assert not out.exists()


FLOAT_KEYS = sorted(key for key, value in DEFAULTS.items() if isinstance(value, float))


class TestConfigValues:
    """A value no run can use (a non-finite number, a negative seed, a vocabulary bound
    that keeps no word) exits 2 with one line, writing nothing."""

    def run(self, tmp_path, capsys, route, key, value):
        """skew-split with ``key`` set to ``value`` through ``--set`` or a ``--config`` file, writing nothing.

        Returns the exit code, stderr and the prefix a ``--config`` line's error carries.
        """
        train, test = tmp_path / "train.tsv", tmp_path / "test.tsv"
        if route == "set":
            settings, prefix = ["--set", f"{key}={value}"], ""
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"# settings\nseed = 3\n{key} = {value}\n", encoding="utf-8")
            settings, prefix = ["--config", cfg], f"{cfg}:3: "
        capsys.readouterr()
        rc = run_cli(*settings, "skew-split", load_demo_ratings_path(), train, test)
        assert not train.exists() and not test.exists()
        return rc, capsys.readouterr().err, prefix

    @pytest.mark.parametrize("route", ["set", "config"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_number(self, tmp_path, capsys, key, route):
        for value in ("nan", "inf", "-inf"):
            rc, err, prefix = self.run(tmp_path, capsys, route, key, value)
            assert rc == 2
            assert err == f"error: {prefix}config key {key!r}: expected a finite number, got {value!r}\n"

    @pytest.mark.parametrize("route", ["set", "config"])
    def test_negative_seed(self, tmp_path, capsys, route):
        rc, err, prefix = self.run(tmp_path, capsys, route, "seed", "-1")
        assert rc == 2
        assert err == f"error: {prefix}config key 'seed': expected a non-negative integer, got '-1'\n"

    @pytest.mark.parametrize("route", ["set", "config"])
    @pytest.mark.parametrize("key, values, expected", [
        ("vocab_size_cap", ("-1", "0", "5"), "an integer above 5 (the reserved tokens)"),
        ("vocab_min_count", ("-1", "0"), "a positive integer"),
    ])
    def test_vocabulary_bound_that_keeps_no_word(self, tmp_path, capsys, route, key, values, expected):
        for value in values:
            rc, err, prefix = self.run(tmp_path, capsys, route, key, value)
            assert rc == 2
            assert err == f"error: {prefix}config key {key!r}: expected {expected}, got {value!r}\n"

    # Each key with a rule: values the rule rejects, and values at its edge that it accepts.
    RULE_CASES = {
        "seed": (("-1",), ("0",)),
        "vocab_min_count": (("0",), ("1",)),
        "vocab_size_cap": (("5",), ("6",)),
        "d_model": (("0",), ("1",)),
        "n_layers": (("0",), ("1",)),
        "n_heads": (("0",), ("1",)),
        "d_ff": (("0",), ("1",)),
        "max_seq_len": (("2",), ("3",)),
        "n_scatter": (("-1",), ("0",)),
        "n_contiguous": (("-1",), ("0",)),
        "n_backtranslation": (("-1",), ("0",)),
        "word_drop_rate": (("-0.1", "1.5"), ("0.0", "1.0")),
        "beam_width": (("0",), ("1",)),
        "gamma_metrics": (("-1",), ("0.0",)),
        "gamma_likelihood": (("-0.5",), ("0.0",)),
        "gamma_semantic": (("-1",), ("0.0",)),
        "batch_size": (("0",), ("1",)),
        "pretrain_steps": (("-1",), ("0",)),
        "finetune_steps": (("-1",), ("0",)),
        "eval_every": (("0",), ("1",)),
        "pretrain_learning_rate": (("-1",), ("0.0",)),
        "finetune_learning_rate": (("-1e-05",), ("0.0",)),
        "holdout_fraction": (("0.0", "1.5"), ("1e-09", "0.999")),
        "alpha_train": (("-1",), ("0.0",)),
        "alpha_test": (("-1",), ("0.0",)),
        "n_bins": (("1",), ("2",)),
        "eval_grouping": (("bogus", "Source"), ("source", "all")),
    }

    def test_every_rule_has_cases(self):
        assert sorted(self.RULE_CASES) == sorted(cli._RULES)

    @pytest.mark.parametrize("route", ["set", "config"])
    @pytest.mark.parametrize("key", sorted(RULE_CASES))
    def test_value_a_rule_rejects(self, tmp_path, capsys, key, route):
        for value in self.RULE_CASES[key][0]:
            rc, err, prefix = self.run(tmp_path, capsys, route, key, value)
            assert rc == 2
            assert err == f"error: {prefix}config key {key!r}: expected {cli._RULES[key][1]}, got {value!r}\n"

    @pytest.mark.parametrize("key", sorted(RULE_CASES))
    def test_value_at_a_rules_edge_is_accepted(self, key):
        for value in self.RULE_CASES[key][1]:
            # one head, so that a model width of 1 divides by it
            config = load_config(None, ["n_heads=1", f"{key}={value}"])
            assert str(config[key]) == value

    @pytest.mark.parametrize("route", ["set", "config"])
    def test_heads_that_do_not_divide_the_model_width(self, tmp_path, capsys, route):
        train, test = tmp_path / "train.tsv", tmp_path / "test.tsv"
        if route == "set":
            settings = ["--set", "d_model=10", "--set", "n_heads=3"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("d_model = 10\nn_heads = 3\n", encoding="utf-8")
            settings = ["--config", cfg]
        capsys.readouterr()
        assert run_cli(*settings, "skew-split", load_demo_ratings_path(), train, test) == 2
        assert capsys.readouterr().err == "error: d_model=10 must be divisible by n_heads=3\n"
        assert not train.exists() and not test.exists()

    def test_vocabulary_of_reserved_tokens_only(self, corpus_file, tmp_path, capsys):
        pairs, vocab = tmp_path / "pairs.jsonl", tmp_path / "vocab.json"
        capsys.readouterr()
        rc = run_cli("--set", "vocab_min_count=100000", "gen-pairs", corpus_file, pairs, "--vocab-out", vocab)
        assert rc == 3
        assert capsys.readouterr().err == (
            "data error: no corpus word occurs vocab_min_count=100000 times, "
            "so the vocabulary would hold only the reserved tokens\n"
        )
        assert not pairs.exists() and not vocab.exists()
        assert run_cli("--set", "vocab_size_cap=6", "gen-pairs", corpus_file, pairs, "--vocab-out", vocab) == 0
        assert len(Vocabulary.load(vocab)) == 6


@pytest.fixture(scope="module")
def artifacts(workdir, corpus_file):
    art = {
        "pairs": workdir / "pairs.jsonl",
        "vocab": workdir / "vocab.json",
        "signals": workdir / "signals.jsonl",
        "pre_ckpt": workdir / "pre.ckpt",
        "ft_ckpt": workdir / "ft.ckpt",
        "ratings": workdir / "ratings.tsv",
        "preds": workdir / "preds.tsv",
        "report": workdir / "report.json",
        "manifest": workdir / "manifest.json",
    }
    # ratings from the drift builder, on the same vocabulary universe
    from pairscore.experiments import build_drift_dataset
    from pairscore.text import Vocabulary, serialize_ratings

    corpus = corpus_file.read_text().splitlines()
    vocab = Vocabulary.build([s.split() for s in corpus], min_count=1)
    ratings = build_drift_dataset(corpus, vocab, n_records=120, seed=3)
    serialize_ratings(ratings, art["ratings"], "wmt-tsv")
    return art


class TestFullChain:
    """gen-pairs -> compute-signals -> pretrain -> finetune -> predict -> evaluate."""

    def test_01_gen_pairs(self, corpus_file, artifacts, capsys):
        rc = run_cli(
            *FAST_SETTINGS, "gen-pairs", corpus_file, artifacts["pairs"],
            "--vocab-out", artifacts["vocab"],
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "config-hash:" in out
        assert artifacts["pairs"].exists()
        lines = artifacts["pairs"].read_text().splitlines()
        header = json.loads(lines[0])
        assert header["format"] == "synthetic-corpus"
        assert len(lines) > 120  # ~4 variants per segment plus drops

    def test_02_compute_signals(self, artifacts, capsys):
        rc = run_cli(
            *FAST_SETTINGS, "compute-signals", artifacts["pairs"], artifacts["vocab"],
            artifacts["signals"],
        )
        assert rc == 0
        header = json.loads(artifacts["signals"].read_text().splitlines()[0])
        assert header["normalization"] is not None
        assert header["bleu_smoothing"]

    def test_03_pretrain(self, artifacts, capsys):
        rc = run_cli(
            *FAST_SETTINGS, "pretrain", artifacts["signals"], artifacts["vocab"],
            artifacts["pre_ckpt"], "--manifest", artifacts["manifest"],
        )
        assert rc == 0
        assert artifacts["pre_ckpt"].exists()
        manifest = json.loads(artifacts["manifest"].read_text())
        assert manifest["stages"][0]["stage"] == "pretrain"
        assert len(manifest["stages"][0]["history"]) >= 1
        assert manifest_digest_matches_checkpoint(artifacts["manifest"], artifacts["pre_ckpt"])

    def test_04_finetune(self, artifacts, workdir, capsys):
        manifest = workdir / "ft_manifest.json"
        rc = run_cli(
            *FAST_SETTINGS, "finetune", artifacts["pre_ckpt"], artifacts["ratings"],
            artifacts["ft_ckpt"], "--manifest", manifest,
        )
        assert rc == 0
        assert artifacts["ft_ckpt"].exists()
        assert json.loads(manifest.read_text())["stages"][0]["stage"] == "finetune"
        assert manifest_digest_matches_checkpoint(manifest, artifacts["ft_ckpt"])

    def test_05_predict(self, artifacts, capsys):
        rc = run_cli(*FAST_SETTINGS, "predict", artifacts["ft_ckpt"], artifacts["ratings"], artifacts["preds"])
        assert rc == 0
        lines = artifacts["preds"].read_text().splitlines()
        assert len(lines) == 120
        source_id, score = lines[0].split("\t")
        float(score)

    def test_06_evaluate(self, artifacts, capsys):
        rc = run_cli(*FAST_SETTINGS, "--set", "eval_grouping=all", "evaluate", artifacts["preds"], artifacts["ratings"], artifacts["report"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "kendall" in out
        report = json.loads(artifacts["report"].read_text())
        assert -1.0 <= report["kendall"] <= 1.0
        assert report["config_hash"]

    def test_07_skew_split(self, artifacts, workdir, capsys):
        rc = run_cli(
            *FAST_SETTINGS, "--set", "alpha_train=1.0", "--set", "alpha_test=1.0",
            "skew-split", artifacts["ratings"], workdir / "train.tsv", workdir / "test.tsv",
        )
        assert rc == 0
        train_lines = (workdir / "train.tsv").read_text().splitlines()
        test_lines = (workdir / "test.tsv").read_text().splitlines()
        assert 0 < len(train_lines) < 120
        assert 0 < len(test_lines) < 120


class TestCommandContracts:
    def test_compute_signals_counts_skipped_pairs_by_task(self, chain, tmp_path, capsys):
        header, *records = [json.loads(line) for line in chain["pairs.jsonl"].read_text().splitlines()]
        full = [r for r in records if r["z_tilde"]]
        emptied = [{**r, "z_tilde": []} if i in (1, 4) else r for i, r in enumerate(full)]
        for name, rows, skipped, line in (("full", full, 0, "skipped 0"),
                                          ("emptied", emptied, 2, "skipped 2 (bt_en_fr_cand 2)")):
            pairs, out = tmp_path / f"{name}.jsonl", tmp_path / f"{name}_signals.jsonl"
            pairs.write_text("".join(json.dumps(r) + "\n" for r in (header, *rows)), encoding="utf-8")
            capsys.readouterr()
            assert run_cli(*FAST_SETTINGS, "compute-signals", pairs, chain["vocab.json"], out) == 0
            stdout = capsys.readouterr().out
            assert stdout.endswith(f"wrote {len(full) - skipped} signal vectors to {out}\n{line}\n")
            assert json.loads(out.read_text().splitlines()[0])["skipped"] == skipped

    def test_missing_corpus_no_partial_file(self, workdir, capsys):
        out = workdir / "nothing.jsonl"
        rc = run_cli("gen-pairs", workdir / "does-not-exist.txt", out, "--vocab-out", workdir / "v.json")
        assert rc == 3
        assert not out.exists()

    def test_predict_empty_input(self, chain, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        assert run_cli(*FAST_SETTINGS, "--set", "pretrain_steps=0", "pretrain",
                       chain["signals.jsonl"], chain["vocab.json"], ckpt) == 0
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        out = tmp_path / "empty_preds.tsv"
        rc = run_cli(*FAST_SETTINGS, "predict", ckpt, empty, out)
        assert rc == 0
        assert out.read_text() == ""

    def test_evaluate_perfect_predictions(self, workdir, capsys):
        ratings = workdir / "perfect.tsv"
        rows = [f"s{i}\tthe cat\tthe cat\t{float(10 * i)}" for i in range(8)]
        ratings.write_text("\n".join(rows) + "\n")
        preds = workdir / "perfect_preds.tsv"
        preds.write_text("\n".join(f"s{i}\t{float(10 * i)}" for i in range(8)) + "\n")
        report_path = workdir / "perfect_report.json"
        rc = run_cli("--set", "darr_threshold=5.0", "--set", "eval_grouping=all", "evaluate", preds, ratings, report_path)
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["kendall"] == 1.0
        assert report["darr"] == 1.0

    def test_count_mismatch_is_data_error(self, workdir, capsys):
        ratings = workdir / "mism.tsv"
        ratings.write_text("s0\ta\tb\t1.0\ns1\ta\tb\t2.0\n")
        preds = workdir / "mism_preds.tsv"
        preds.write_text("s0\t0.5\n")
        rc = run_cli("evaluate", preds, ratings, workdir / "mism_report.json")
        assert rc == 3

    @pytest.mark.parametrize("score", ["abc", "", "nan", "inf", "-Infinity"])
    def test_bad_score_is_data_error(self, workdir, capsys, score):
        ratings = workdir / "badscore.tsv"
        ratings.write_text("s0\ta\tb\t1.0\ns1\ta\tb\t2.0\ns2\ta\tb\t3.0\n")
        preds = workdir / "badscore_preds.tsv"
        preds.write_text(f"s0\t0.5\ns1\t{score}\ns2\t0.7\n")
        report = workdir / "badscore_report.json"
        capsys.readouterr()
        rc = run_cli("--set", "eval_grouping=all", "evaluate", preds, ratings, report)
        err = capsys.readouterr().err
        assert rc == 3
        assert err.count("\n") == 1
        assert f"{preds}:2:" in err
        assert not report.exists()

    def test_default_grouping_on_demo_ratings_hints_all(self, workdir, capsys):
        ratings = load_demo_ratings_path()
        ids = [line.split("\t")[0] for line in ratings.read_text().splitlines() if line.strip()]
        preds = workdir / "demo_preds.tsv"
        preds.write_text("".join(f"{sid}\t{i % 7 / 7}\n" for i, sid in enumerate(ids)))
        report = workdir / "demo_report.json"
        capsys.readouterr()
        rc = run_cli("evaluate", preds, ratings, report)
        err = capsys.readouterr().err
        assert rc == 3
        assert err.count("\n") == 1
        assert "every group has one record" in err
        assert "--set eval_grouping=all" in err
        assert not report.exists()
        assert run_cli("--set", "eval_grouping=all", "evaluate", preds, ratings, report) == 0

    def test_bad_grouping_is_usage_error_before_any_read(self, workdir, capsys):
        report = workdir / "grouping_report.json"
        capsys.readouterr()
        rc = run_cli("--set", "eval_grouping=bogus", "evaluate",
                     workdir / "absent_preds.tsv", workdir / "absent.tsv", report)
        err = capsys.readouterr().err
        assert rc == 2
        assert "eval_grouping" in err
        assert not report.exists()

    def test_format_flag_is_gone(self, tmp_path, capsys):
        # A ratings file's format follows its extension: `.jsonl`, otherwise TSV.
        ckpt, out = _tiny_checkpoint(tmp_path / "m.ckpt"), tmp_path / "ft.ckpt"
        capsys.readouterr()
        with pytest.raises(SystemExit) as info:
            run_cli(*FAST_SETTINGS, "finetune", ckpt, load_demo_ratings_path(), out, "--format", "jsonl")
        err = capsys.readouterr().err
        assert info.value.code == 2
        assert len(err.splitlines()) == 1, err
        assert "--format" in err
        assert not out.exists()

    def test_usage_error_exit_2(self, capsys):
        rc = run_cli("--set", "bogus=1", "gen-pairs", "x", "y")
        assert rc == 2
        capsys.readouterr()
        assert run_cli() == 2  # no command
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err

    def test_version_runs(self):
        with pytest.raises(SystemExit) as info:
            run_cli("--version")
        assert info.value.code == 0


class TestSkewSplit:
    """skew-split resamples whole records and writes them as it read them."""

    def run(self, capsys, ratings, train, test, *settings):
        capsys.readouterr()
        rc = run_cli(*[arg for key in settings for arg in ("--set", key)], "skew-split", ratings, train, test)
        assert rc == 0
        return capsys.readouterr().out

    def test_disjoint_keeps_every_source_on_one_side(self, tmp_path, capsys):
        path = tmp_path / "r.jsonl"
        records = [
            {"source_id": f"s{i}", "references": [f"ref a {i}", f"ref b {i}"], "candidate": f"cand {i}",
             "rating": float(i)}
            for i in range(40)
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        train, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
        out = self.run(capsys, path, train, test, "alpha_train=0.0", "alpha_test=0.0", "skew_disjoint=true")
        sides = [read_rating_records(side, "jsonl")[0] for side in (train, test)]
        train_ids, test_ids = ({r.source_id for r in side} for side in sides)
        assert not train_ids & test_ids
        assert len(train_ids) + len(test_ids) == 40
        assert all(len(r.references) == 2 for side in sides for r in side)
        assert f"{len(train_ids)} train, {len(test_ids)} test of 40 records" in out

    def test_disjoint_keeps_sources_of_several_records_apart(self, tmp_path, capsys):
        # the WMT layout: 20 sources, two candidate lines each
        path = tmp_path / "r.tsv"
        path.write_text("".join(
            f"s{i}\tref {i}\tcand {i} {j}\t{10.0 * i + j}\n" for i in range(20) for j in range(2)
        ), encoding="utf-8")
        train, test = tmp_path / "train.tsv", tmp_path / "test.tsv"
        self.run(capsys, path, train, test, "alpha_train=0.0", "alpha_test=0.0", "skew_disjoint=true")
        train_ids, test_ids = (
            {r.source_id for r in read_rating_records(side, "wmt-tsv")[0]} for side in (train, test)
        )
        assert not train_ids & test_ids
        assert len(train_ids | test_ids) == 20

    @pytest.mark.parametrize("name, lines", [
        ("plain.tsv", ["s0\tThe Dog, however, sleeps.\tThe dog sleeps!\t72.0", "s1\tNo.\tYes.\t7.5"]),
        ("r.tsv", ["# raw-scores", "s0\tThe Dog, however, sleeps.\tThe dog sleeps!\t72.5",
                   "s1\tIt's 5 o'clock.\tIT IS FIVE.\t-3.25"]),
        ("r.jsonl", [json.dumps({"raw_scores": True, "record": "header"}, sort_keys=True)] + [
            json.dumps({"candidate": "The dog sleeps!", "rating": 72.5, "references": [
                "The Dog, however, sleeps.", "Rex sleeps."], "source_id": "s0"}, sort_keys=True),
            json.dumps({"candidate": "IT IS FIVE.", "rating": -3.25, "references": ["It's 5 o'clock."],
                        "source_id": "s1"}, sort_keys=True),
        ]),
    ])
    def test_records_come_back_as_read(self, tmp_path, capsys, name, lines):
        # at alpha 0 every record lands on both sides, each side is the input
        path = tmp_path / name
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        train, test = tmp_path / f"train-{name}", tmp_path / f"test-{name}"
        rows = ["n_bins=2", "alpha_train=0.0", "alpha_test=0.0"]
        assert "2 train, 2 test of 2 records" in self.run(capsys, path, train, test, *rows)
        assert train.read_bytes() == path.read_bytes()
        assert test.read_bytes() == path.read_bytes()


class TestDeterminism:
    def test_gen_pairs_byte_identical(self, corpus_file, tmp_path, capsys):
        outs = []
        for name in ("a", "b"):
            pairs = tmp_path / f"{name}.jsonl"
            vocab = tmp_path / f"{name}_vocab.json"
            rc = run_cli(*FAST_SETTINGS, "gen-pairs", corpus_file, pairs, "--vocab-out", vocab)
            assert rc == 0
            outs.append((pairs.read_bytes(), vocab.read_bytes()))
        assert outs[0] == outs[1]


class TestOneRecipe:
    """The CLI stages and the studies build pre-training data one way."""

    def test_cli_signals_equal_the_library_records(self, tmp_path, capsys):
        corpus = [s for s in demo_sentences(150, seed=31) if len(s.split()) <= 10][:60]
        corpus_file = tmp_path / "corpus.txt"
        corpus_file.write_text("\n".join(corpus) + "\n", encoding="utf-8")
        pairs, vocab_file, signals = (tmp_path / n for n in ("pairs.jsonl", "vocab.json", "signals.jsonl"))
        settings = ["--set", "vocab_min_count=1", "--set", "seed=6"]
        assert run_cli(*settings, "gen-pairs", corpus_file, pairs, "--vocab-out", vocab_file) == 0
        assert run_cli(*settings, "compute-signals", pairs, vocab_file, signals) == 0

        vocab = Vocabulary.build([split_tokens(s) for s in corpus], min_count=1)
        assert Vocabulary.load(vocab_file).tokens == vocab.tokens
        library = build_offline_pretraining_data(corpus, vocab, GenerationConfig(), seed=6)
        written, _, _ = read_signals(signals, vocab)
        assert len(written) == len(library)
        differ = sum(a != b or not np.array_equal(x, y) for (a, x), (b, y) in zip(written, library))
        assert differ == 0, f"{differ} of {len(library)} records differ"


class TestProviderWiring:
    def test_gen_pairs_multiplicity_contract(self, corpus_file, tmp_path, capsys):
        pairs = tmp_path / "m1.jsonl"
        rc = run_cli(
            "--set", "vocab_min_count=1", "--set", "n_scatter=1", "--set", "n_contiguous=0",
            "--set", "n_backtranslation=0", "--set", "word_drop_rate=0.0",
            "gen-pairs", corpus_file, pairs, "--vocab-out", tmp_path / "v.json",
        )
        assert rc == 0
        lines = pairs.read_text().splitlines()
        records = [json.loads(line) for line in lines[1:] if line.strip()]
        n_segments = len(corpus_file.read_text().splitlines())
        assert len(records) == n_segments
        assert all(r["origin"]["kind"] == "mask_fill_scatter" for r in records)

    def test_scorer_command_key(self, corpus_file, tmp_path, capsys):
        import sys as _sys

        script = tmp_path / "fixed_scorer.py"
        script.write_text(
            "import sys\n"
            "for line in sys.stdin:\n"
            "    print(-1.25)\n"
            "    sys.stdout.flush()\n"
        )
        pairs = tmp_path / "pairs.jsonl"
        vocab = tmp_path / "vocab.json"
        signals = tmp_path / "signals.jsonl"
        assert run_cli(*FAST_SETTINGS, "gen-pairs", corpus_file, pairs, "--vocab-out", vocab) == 0
        assert run_cli(*FAST_SETTINGS, "--set", f"scorer_command={_sys.executable} {script}",
                       "compute-signals", pairs, vocab, signals) == 0
        records = [json.loads(line) for line in signals.read_text().splitlines()[1:]]
        # every likelihood dim is -1.25 / |target|; check the raw value via the stats header
        header = json.loads(signals.read_text().splitlines()[0])
        labels = header["normalization"]["labels"]
        assert "bt_en_fr_ref" in labels
        raw_means = dict(zip(labels, header["normalization"]["mean"]))
        z_lengths = [len(r["z"]) for r in records]
        expected = sum(-1.25 / n for n in z_lengths) / len(z_lengths)
        assert abs(raw_means["bt_en_fr_ref"] - expected) < 1e-9

    def test_scorer_environment_variable_is_ignored(self, chain, tmp_path, monkeypatch, capsys):
        # The scorer is set by the `scorer_command` key alone, which the config hash sees.
        plain, with_env = tmp_path / "plain.jsonl", tmp_path / "env.jsonl"
        assert run_cli(*FAST_SETTINGS, "compute-signals", chain["pairs.jsonl"], chain["vocab.json"],
                       plain) == 0
        monkeypatch.setenv("PAIRSCORE_SCORER_COMMAND", 'sh -c "while read -r line; do echo -1.25; done"')
        assert run_cli(*FAST_SETTINGS, "compute-signals", chain["pairs.jsonl"], chain["vocab.json"],
                       with_env) == 0
        assert with_env.read_bytes() == plain.read_bytes()

    def test_vocabulary_covers_capitalized_punctuated_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "mixed.txt"
        corpus.write_text(
            "The dog, however, sleeps.\n"
            "A Cat sat on the mat; the dog did not!\n"
            "Rivers run (slowly) to the sea.\n",
            encoding="utf-8",
        )
        pairs, vocab_path = tmp_path / "mixed.jsonl", tmp_path / "mixed_vocab.json"
        rc = run_cli(
            "--set", "vocab_min_count=1", "--set", "n_backtranslation=0",
            "gen-pairs", corpus, pairs, "--vocab-out", vocab_path,
        )
        assert rc == 0
        vocab = set(json.loads(vocab_path.read_text())["tokens"])
        records = [json.loads(line) for line in pairs.read_text().splitlines()[1:]]
        tokens = {tok for r in records for tok in r["z"] + r["z_tilde"]}
        assert {"the", "dog", ",", "."} <= tokens
        assert tokens <= vocab


ECHO_CHILD = """\
import sys
marker, reply = sys.argv[1], " ".join(sys.argv[2:])
for line in sys.stdin:
    print(reply or line.rstrip("\\n").split("\\t")[-1])
    sys.stdout.flush()
open(marker, "w").write("eof")
"""


class TestChildProcesses:
    @pytest.fixture
    def small_corpus(self, tmp_path):
        path = tmp_path / "small.txt"
        path.write_text("\n".join(demo_sentences(8, seed=5)) + "\n", encoding="utf-8")
        return path

    @staticmethod
    def child(tmp_path, name, *reply):
        import sys as _sys

        script = tmp_path / "echo_child.py"
        script.write_text(ECHO_CHILD)
        marker = tmp_path / f"{name}.eof"
        return f"{_sys.executable} {script} {marker} {' '.join(reply)}".strip(), marker

    def test_gen_pairs_closes_translator(self, small_corpus, tmp_path, capsys):
        command, marker = self.child(tmp_path, "translator")
        rc = run_cli(
            *FAST_SETTINGS, "--set", f"translator_command={command}",
            "gen-pairs", small_corpus, tmp_path / "pairs.jsonl", "--vocab-out", tmp_path / "v.json",
        )
        assert rc == 0
        assert marker.exists()

    def test_compute_signals_closes_scorer_and_entailment(self, small_corpus, tmp_path, capsys):
        pairs, vocab = tmp_path / "pairs.jsonl", tmp_path / "v.json"
        assert run_cli(*FAST_SETTINGS, "gen-pairs", small_corpus, pairs, "--vocab-out", vocab) == 0
        scorer, scorer_marker = self.child(tmp_path, "scorer", "-1.25")
        entail, entail_marker = self.child(tmp_path, "entailment", "0.6", "0.1", "0.3")
        rc = run_cli(
            *FAST_SETTINGS, "--set", f"scorer_command={scorer}", "--set", f"entailment_command={entail}",
            "compute-signals", pairs, vocab, tmp_path / "signals.jsonl",
        )
        assert rc == 0
        assert scorer_marker.exists()
        assert entail_marker.exists()

    def test_silent_scorer_ends_the_run(self, small_corpus, tmp_path, monkeypatch, capsys):
        import sys as _sys
        import time

        from pairscore import synth

        pairs, vocab = tmp_path / "pairs.jsonl", tmp_path / "v.json"
        assert run_cli(*FAST_SETTINGS, "gen-pairs", small_corpus, pairs, "--vocab-out", vocab) == 0
        script = tmp_path / "silent.py"
        script.write_text("import time\ntime.sleep(60)\n")
        monkeypatch.setattr(synth, "READ_DEADLINE_S", 0.5)
        out = tmp_path / "signals.jsonl"
        capsys.readouterr()
        start = time.monotonic()
        rc = run_cli(*FAST_SETTINGS, "--set", f"scorer_command={_sys.executable} {script}",
                     "compute-signals", pairs, vocab, out)
        assert time.monotonic() - start < 10
        assert rc == 3
        err = capsys.readouterr().err
        assert "no answer within 0.5 s" in err
        assert len(err.splitlines()) == 1, err
        assert not out.exists()

    def test_chatty_scorer_keeps_stderr_to_one_line(self, small_corpus, tmp_path, capfd):
        import sys as _sys

        pairs, vocab = tmp_path / "pairs.jsonl", tmp_path / "v.json"
        assert run_cli(*FAST_SETTINGS, "gen-pairs", small_corpus, pairs, "--vocab-out", vocab) == 0
        script = tmp_path / "chatty.py"
        script.write_text("import sys\nfor i in range(3):\n    print(f'warning {i}', file=sys.stderr)\n")
        out = tmp_path / "signals.jsonl"
        capfd.readouterr()
        rc = run_cli(*FAST_SETTINGS, "--set", f"scorer_command={_sys.executable} {script}",
                     "compute-signals", pairs, vocab, out)
        err = capfd.readouterr().err
        assert rc == 3
        assert len(err.splitlines()) == 1, err
        assert "warning" not in err
        assert not out.exists()

    def test_quoted_sh_scorer_answers(self, chain, tmp_path, capsys):
        scorer = 'sh -c "while read -r line; do echo -1.25; done"'
        out = tmp_path / "signals.jsonl"
        rc = run_cli(*FAST_SETTINGS, "--set", f"scorer_command={scorer}",
                     "compute-signals", chain["pairs.jsonl"], chain["vocab.json"], out)
        assert rc == 0, capsys.readouterr().err
        header = json.loads(out.read_text().splitlines()[0])
        means = dict(zip(header["normalization"]["labels"], header["normalization"]["mean"]))
        z_lengths = [len(json.loads(line)["z"]) for line in out.read_text().splitlines()[1:]]
        assert means["bt_en_fr_ref"] == pytest.approx(sum(-1.25 / n for n in z_lengths) / len(z_lengths))

    def test_unbalanced_quote_is_usage_error(self, chain, tmp_path, capsys):
        out = tmp_path / "signals.jsonl"
        capsys.readouterr()
        rc = run_cli(*FAST_SETTINGS, "--set", 'scorer_command=sh -c "cat',
                     "compute-signals", chain["pairs.jsonl"], chain["vocab.json"], out)
        err = capsys.readouterr().err
        assert rc == 2
        assert len(err.splitlines()) == 1, err
        assert not out.exists()


class TestMalformedArtifacts:
    """A damaged pairs or signals file exits 3 with one line naming file:line."""

    @staticmethod
    def truncated(src, dst):
        """The first three lines of ``src`` and half of its fourth."""
        lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
        dst.write_text("".join(lines[:3]) + lines[3][: len(lines[3]) // 2], encoding="utf-8")
        return dst

    def assert_data_error(self, capsys, rc, bad, out, lineno):
        err = capsys.readouterr().err
        assert rc == 3
        assert err.count("\n") == 1
        assert f"{bad}:{lineno}:" in err
        assert not out.exists()
        return err

    def test_truncated_pairs(self, chain, tmp_path, capsys):
        bad = self.truncated(chain["pairs.jsonl"], tmp_path / "trunc.jsonl")
        out = tmp_path / "signals.jsonl"
        capsys.readouterr()
        rc = run_cli(*FAST_SETTINGS, "compute-signals", bad, chain["vocab.json"], out)
        self.assert_data_error(capsys, rc, bad, out, 4)

    def test_truncated_signals(self, chain, tmp_path, capsys):
        bad = self.truncated(chain["signals.jsonl"], tmp_path / "trunc.jsonl")
        out = tmp_path / "pre.ckpt"
        capsys.readouterr()
        rc = run_cli(*FAST_SETTINGS, "pretrain", bad, chain["vocab.json"], out)
        self.assert_data_error(capsys, rc, bad, out, 4)

    def test_record_missing_key(self, chain, tmp_path, capsys):
        lines = chain["pairs.jsonl"].read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[2])
        del record["seed"]
        lines[2] = json.dumps(record, sort_keys=True)
        bad = tmp_path / "nokey.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "signals.jsonl"
        capsys.readouterr()
        rc = run_cli(*FAST_SETTINGS, "compute-signals", bad, chain["vocab.json"], out)
        err = self.assert_data_error(capsys, rc, bad, out, 3)
        assert "'seed'" in err

    def test_wrong_header_names_the_file(self, chain, tmp_path, capsys):
        # a signals file given where a pairs file belongs
        out = tmp_path / "signals.jsonl"
        capsys.readouterr()
        rc = run_cli(*FAST_SETTINGS, "compute-signals", chain["signals.jsonl"], chain["vocab.json"], out)
        err = self.assert_data_error(capsys, rc, chain["signals.jsonl"], out, 1)
        assert "expected artifact schema 'synthetic-corpus/1', found 'signal-corpus/1'" in err

    def test_non_finite_signal_is_a_data_error(self, chain, tmp_path, capsys):
        lines = chain["signals.jsonl"].read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[2])
        record["signals"]["bleu"] = [float("nan")]
        lines[2] = json.dumps(record, sort_keys=True)
        bad = tmp_path / "nan.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "pre.ckpt"
        capsys.readouterr()
        rc = run_cli(*FAST_SETTINGS, "pretrain", bad, chain["vocab.json"], out)
        err = self.assert_data_error(capsys, rc, bad, out, 3)
        assert "task 'bleu' has non-finite values" in err

    def test_dropped_signal_fields_are_ignored(self, chain, tmp_path):
        """A signals file that still carries the header's layout_version and each record's
        constant "normalized" pre-trains to the same parameters."""
        lines = chain["signals.jsonl"].read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        assert "layout_version" not in header
        old = [json.dumps({**header, "layout_version": 1}, sort_keys=True)]
        for line in lines[1:]:
            record = json.loads(line)
            assert "normalized" not in record
            old.append(json.dumps({**record, "normalized": True}, sort_keys=True))
        older = tmp_path / "older.jsonl"
        older.write_text("\n".join(old) + "\n", encoding="utf-8")
        digests = []
        for signals in (chain["signals.jsonl"], older):
            manifest = tmp_path / f"{signals.stem}.manifest.json"
            assert run_cli(*FAST_SETTINGS, "--set", "pretrain_steps=10", "pretrain", signals,
                           chain["vocab.json"], tmp_path / f"{signals.stem}.ckpt", "--manifest", manifest) == 0
            digests.append(json.loads(manifest.read_text())["stages"][0]["params_digest"])
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("command", ["compute-signals", "pretrain"])
    def test_vocabulary_of_another_version(self, chain, tmp_path, capsys, command):
        payload = json.loads(chain["vocab.json"].read_text(encoding="utf-8"))
        bad = tmp_path / "vocab.json"
        bad.write_text(json.dumps({**payload, "version": 7}), encoding="utf-8")
        data = chain["pairs.jsonl" if command == "compute-signals" else "signals.jsonl"]
        out = tmp_path / "out"
        capsys.readouterr()
        rc = run_cli(*FAST_SETTINGS, command, data, bad, out)
        assert rc == 3
        assert capsys.readouterr().err == (
            f"data error: vocabulary {bad}: expected artifact schema 'vocabulary/1', "
            "found 'vocabulary/7'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pretrain", "ablate"])
    def test_signals_header_without_stats(self, chain, tmp_path, capsys, command):
        lines = chain["signals.jsonl"].read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["normalization"] = None
        lines[0] = json.dumps(header, sort_keys=True)
        bad = tmp_path / "nostats.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        ratings = [load_demo_ratings_path()] if command == "ablate" else []
        capsys.readouterr()
        rc = run_cli(*FAST_SETTINGS, command, bad, chain["vocab.json"], *ratings, out)
        err = capsys.readouterr().err
        assert rc == 3
        assert len(err.splitlines()) == 1, err
        assert f"{bad}: header lacks normalization stats" in err
        assert not out.exists()


def _drop_bleu_head(tensors):
    del tensors["head.bleu.w"]


def _misshape_w1(tensors):
    tensors["layer0.w1"] = tensors["layer0.w1"][:, :-1]


def _poison_w2(tensors):
    tensors["layer0.w2"][1, 2] = np.nan


class TestMalformedCheckpoints:
    """A damaged or empty checkpoint makes predict and finetune exit 3 with one line naming it."""

    @pytest.fixture
    def setup(self, tmp_path):
        from pairscore.text import Vocabulary

        ratings = tmp_path / "ratings.tsv"
        lines = load_demo_ratings_path().read_text(encoding="utf-8").splitlines()[:3]
        ratings.write_text("\n".join(lines) + "\n", encoding="utf-8")
        vocab = Vocabulary.build([line.split("\t")[2].split() for line in lines], min_count=1)
        config = EncoderConfig(vocab_size=len(vocab), d_model=8, n_layers=1, n_heads=2,
                               d_ff=16, max_seq_len=40)
        return init_model(config), vocab, ratings

    def predict(self, ckpt, ratings, out, capsys):
        capsys.readouterr()
        rc = run_cli("predict", ckpt, ratings, out)
        return rc, capsys.readouterr().err

    def test_intact_checkpoint_predicts(self, setup, tmp_path, capsys):
        params, vocab, ratings = setup
        save_checkpoint(params, tmp_path / "m.ckpt", meta={"vocab": list(vocab.tokens)})
        rc, _ = self.predict(tmp_path / "m.ckpt", ratings, tmp_path / "preds.tsv", capsys)
        assert rc == 0
        assert len((tmp_path / "preds.tsv").read_text().splitlines()) == 3

    @pytest.mark.parametrize(
        "damage, cut, words",
        [
            (None, lambda raw: raw[:20], "truncated header"),
            (None, lambda raw: raw[:-100], "payload truncated"),
            (_misshape_w1, None, "'layer0.w1'"),
            (_drop_bleu_head, None, "head.bleu.w"),
            (_poison_w2, None, "non-finite"),
        ],
        ids=["truncated-header", "short-payload", "shape", "tensor-set", "non-finite"],
    )
    def test_damaged_checkpoint(self, setup, tmp_path, capsys, damage, cut, words):
        params, vocab, ratings = setup
        if damage is not None:
            damage(params.tensors)
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(params, ckpt, meta={"vocab": list(vocab.tokens)})
        if cut is not None:
            ckpt.write_bytes(cut(ckpt.read_bytes()))
        out = tmp_path / "preds.tsv"
        rc, err = self.predict(ckpt, ratings, out, capsys)
        assert rc == 3
        assert len(err.splitlines()) == 1, err
        assert str(ckpt) in err and words in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "finetune"])
    def test_version_1_checkpoint(self, setup, tmp_path, capsys, command):
        """A checkpoint of header version 1, whose config still held a dropout rate."""
        params, vocab, ratings = setup
        ckpt = tmp_path / "v1.ckpt"
        save_checkpoint(params, ckpt, meta={"vocab": list(vocab.tokens)})
        raw = ckpt.read_bytes()
        start = len(CHECKPOINT_MAGIC) + 4
        (length,) = struct.unpack_from("<I", raw, len(CHECKPOINT_MAGIC))
        header = json.loads(raw[start : start + length])
        assert header["version"] == 2
        header["version"] = 1
        header["config"]["dropout"] = 0.0
        old = json.dumps(header, sort_keys=True).encode("utf-8")
        ckpt.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(old)) + old + raw[start + length :])
        out = tmp_path / "out"
        capsys.readouterr()
        rc = run_cli(command, ckpt, ratings, out)
        err = capsys.readouterr().err
        assert rc == 3
        assert err == (
            f"data error: checkpoint {ckpt}: expected artifact schema 'checkpoint/2', "
            "found 'checkpoint/1'; train it again with this version\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "finetune"])
    def test_empty_checkpoint(self, setup, tmp_path, capsys, command):
        _, _, ratings = setup
        ckpt = tmp_path / "empty.ckpt"
        ckpt.write_bytes(b"")
        out = tmp_path / "out"
        capsys.readouterr()
        rc = run_cli(command, ckpt, ratings, out)
        err = capsys.readouterr().err
        assert rc == 3
        assert err == f"data error: checkpoint {ckpt}: the file is empty\n"
        assert not out.exists()


class TestDivergence:
    """A learning rate that overflows exits 4 with one line, no warning, and writes nothing."""

    @pytest.fixture(autouse=True)
    def no_warnings(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            yield
        assert [str(w.message) for w in caught] == []

    def assert_diverged(self, capsys, rc, *outputs):
        err = capsys.readouterr().err
        assert rc == 4
        assert len(err.splitlines()) == 1, err
        assert "non-finite" in err
        assert not any(path.exists() for path in outputs)

    def test_pretrain(self, chain, tmp_path, capsys):
        out, manifest = tmp_path / "pre.ckpt", tmp_path / "manifest.json"
        capsys.readouterr()
        rc = run_cli(*FAST_SETTINGS, "--set", "pretrain_learning_rate=1e300", "pretrain",
                     chain["signals.jsonl"], chain["vocab.json"], out, "--manifest", manifest)
        self.assert_diverged(capsys, rc, out, manifest)

    def test_finetune(self, chain, tmp_path, capsys):
        pre = tmp_path / "pre.ckpt"
        assert run_cli(*FAST_SETTINGS, "pretrain", chain["signals.jsonl"], chain["vocab.json"], pre) == 0
        out, manifest = tmp_path / "ft.ckpt", tmp_path / "manifest.json"
        capsys.readouterr()
        rc = run_cli(*FAST_SETTINGS, "--set", "finetune_learning_rate=1e300", "finetune",
                     pre, load_demo_ratings_path(), out, "--manifest", manifest)
        self.assert_diverged(capsys, rc, out, manifest)


NOT_UTF8 = "caf\u00e9 au lait\n".encode("latin-1")
BAD_VOCABULARY = {"json": b"{not json", "tokens": b'{"format": "vocabulary"}'}


def _text_input_case(name, chain, tmp_path):
    """(argv, exit code) of one case; writes its faulty input to ``tmp_path / "bad"``."""
    bad, out, other = tmp_path / "bad", tmp_path / "out", tmp_path / "other"
    ratings = tmp_path / "ratings.tsv"
    ratings.write_text("s0\ta\tb\t1.0\ns1\ta\tb\t2.0\n", encoding="utf-8")
    preds = tmp_path / "preds.tsv"
    preds.write_text("s0\t0.5\ns1\t0.7\n", encoding="utf-8")
    signals = ["compute-signals", chain["pairs.jsonl"], chain["vocab.json"], out]
    cases = {
        "evaluate-ratings": (NOT_UTF8, ["evaluate", preds, bad, out], 3),
        "evaluate-predictions": (NOT_UTF8, ["evaluate", bad, ratings, out], 3),
        "skew-split": (NOT_UTF8, ["skew-split", bad, out, other], 3),
        "gen-pairs": (NOT_UTF8, ["gen-pairs", bad, out, "--vocab-out", other], 3),
        "embedding-file": (NOT_UTF8, ["--set", f"embedding_file={bad}", *signals], 3),
        "embedding-values": (b"2\nthe 0.5 half\n", ["--set", f"embedding_file={bad}", *signals], 3),
        "config": (NOT_UTF8, ["--config", bad, "gen-pairs", chain["corpus.txt"], out,
                              "--vocab-out", other], 2),
    }
    for kind, content in BAD_VOCABULARY.items():
        cases[f"compute-signals-vocab-{kind}"] = (
            content, ["compute-signals", chain["pairs.jsonl"], bad, out], 3)
        cases[f"pretrain-vocab-{kind}"] = (content, ["pretrain", chain["signals.jsonl"], bad, out], 3)
    content, argv, code = cases[name]
    bad.write_bytes(content)
    return argv, code


class TestTextInputs:
    """A non-UTF-8 or malformed text input exits 2 or 3 with one line naming it, writing nothing."""

    @pytest.mark.parametrize("name", [
        "evaluate-ratings", "evaluate-predictions", "skew-split", "gen-pairs", "embedding-file",
        "embedding-values", "config", "compute-signals-vocab-json", "compute-signals-vocab-tokens",
        "pretrain-vocab-json", "pretrain-vocab-tokens",
    ])
    def test_unreadable_input(self, chain, tmp_path, capsys, name):
        argv, code = _text_input_case(name, chain, tmp_path)
        capsys.readouterr()
        rc = run_cli(*FAST_SETTINGS, *argv)
        err = capsys.readouterr().err
        assert rc == code
        assert len(err.splitlines()) == 1, err
        assert str(tmp_path / "bad") in err
        assert not (tmp_path / "out").exists() and not (tmp_path / "other").exists()


def _malformed_input_case(name, chain, tmp_path):
    """(argv, exit code, text the message names) of one case; the command would write ``out``."""
    bad, out, other = tmp_path / "bad", tmp_path / "out", tmp_path / "other"
    pairs_header, signals_header = (
        chain[artifact].read_text(encoding="utf-8").splitlines()[0] + "\n"
        for artifact in ("pairs.jsonl", "signals.jsonl")
    )
    gen_pairs = ["gen-pairs", chain["corpus.txt"], out, "--vocab-out", other]
    cases = {
        "gen-pairs-empty-corpus": ("", ["gen-pairs", bad, out, "--vocab-out", other], 3, str(bad)),
        "gen-pairs-blank-corpus": ("\n  \n\n", ["gen-pairs", bad, out, "--vocab-out", other], 3, str(bad)),
        "compute-signals-empty-pairs": (
            "", ["compute-signals", bad, chain["vocab.json"], out], 3, str(bad)),
        "compute-signals-header-only-pairs": (
            pairs_header, ["compute-signals", bad, chain["vocab.json"], out], 3, str(bad)),
        "compute-signals-empty-vocab": (
            "", ["compute-signals", chain["pairs.jsonl"], bad, out], 3, str(bad)),
        "compute-signals-list-vocab": (
            "[1, 2]", ["compute-signals", chain["pairs.jsonl"], bad, out], 3, str(bad)),
        "pretrain-pairs-as-signals": (
            None, ["pretrain", chain["pairs.jsonl"], chain["vocab.json"], out], 3,
            f"{chain['pairs.jsonl']}:1:"),
        "pretrain-header-only-signals": (
            signals_header, ["pretrain", bad, chain["vocab.json"], out], 3,
            f"data error: no signal records in {bad}\n"),
        "ablate-header-only-signals": (
            signals_header, ["ablate", bad, chain["vocab.json"], load_demo_ratings_path(), out], 3,
            f"data error: no signal records in {bad}\n"),
        "gen-pairs-vocab-out-directory": (
            None, ["gen-pairs", chain["corpus.txt"], out, "--vocab-out", tmp_path], 3, str(tmp_path)),
        "config-missing": (None, ["--config", bad, *gen_pairs], 2, str(bad)),
        "config-bad-value": ("seed = abc\n", ["--config", bad, *gen_pairs], 2,
                             f"{bad}:1: config key 'seed': expected an integer, got 'abc'"),
    }
    content, argv, code, named = cases[name]
    if content is not None:
        bad.write_text(content, encoding="utf-8")
    return argv, code, named


class TestMalformedInputs:
    """Empty, header-only and wrong-schema inputs exit 2 or 3 with one line, writing nothing."""

    @pytest.mark.parametrize("name", [
        "gen-pairs-empty-corpus", "gen-pairs-blank-corpus", "gen-pairs-vocab-out-directory",
        "compute-signals-empty-pairs",
        "compute-signals-header-only-pairs", "compute-signals-empty-vocab",
        "compute-signals-list-vocab", "pretrain-pairs-as-signals", "pretrain-header-only-signals",
        "ablate-header-only-signals", "config-missing", "config-bad-value",
    ])
    def test_one_line_and_no_output(self, chain, tmp_path, capsys, name):
        argv, code, named = _malformed_input_case(name, chain, tmp_path)
        capsys.readouterr()
        rc = run_cli(*FAST_SETTINGS, *argv)
        err = capsys.readouterr().err
        assert rc == code
        assert len(err.splitlines()) == 1 and "Traceback" not in err, err
        assert named in err
        assert not (tmp_path / "out").exists() and not (tmp_path / "other").exists()

    @pytest.mark.parametrize("key", ["d_model", "n_layers", "n_heads", "d_ff"])
    def test_encoder_shape_below_one(self, chain, tmp_path, capsys, key):
        out = tmp_path / "out.ckpt"
        capsys.readouterr()
        rc = run_cli(*FAST_SETTINGS, "--set", f"{key}=0",
                     "pretrain", chain["signals.jsonl"], chain["vocab.json"], out)
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"error: config key {key!r}: expected a positive integer, got '0'\n"
        assert list(tmp_path.iterdir()) == []


GOOD_RECORD = {"source_id": "s0", "references": ["the cat sat"], "candidate": "the cat", "rating": 1.0}
BAD_RECORDS = {
    "non-object": [1, 2],
    "string-references": {**GOOD_RECORD, "references": "the cat"},
    "mixed-references": {**GOOD_RECORD, "references": ["the cat", 3]},
    "int-candidate": {**GOOD_RECORD, "candidate": 5},
    "int-source-id": {**GOOD_RECORD, "source_id": 7},
    "bool-rating": {**GOOD_RECORD, "rating": True},
    "string-rating": {**GOOD_RECORD, "rating": "high"},
    "nan-rating": {**GOOD_RECORD, "rating": float("nan")},
    "missing-candidate": {key: v for key, v in GOOD_RECORD.items() if key != "candidate"},
    "reference-not-references": {
        **{key: v for key, v in GOOD_RECORD.items() if key != "references"}, "reference": "the cat sat",
    },
}


def _tiny_checkpoint(path):
    """An untrained one-layer checkpoint whose vocabulary covers GOOD_RECORD."""
    from pairscore.text import Vocabulary

    vocab = Vocabulary.build([["the", "cat", "sat"]], min_count=1)
    config = EncoderConfig(vocab_size=len(vocab), d_model=8, n_layers=1, n_heads=2,
                           d_ff=16, max_seq_len=40)
    save_checkpoint(init_model(config), path, meta={"vocab": list(vocab.tokens)})
    return path


class TestJsonlRatingRecords:
    """A JSONL ratings line of the wrong shape or field types exits 3 with one line."""

    @staticmethod
    def ratings(tmp_path, name, good=True):
        path = tmp_path / "ratings.jsonl"
        lines = [GOOD_RECORD] if good else []
        path.write_text("".join(json.dumps(obj) + "\n" for obj in [*lines, BAD_RECORDS[name]]))
        return path

    def run(self, capsys, *argv):
        capsys.readouterr()
        rc = run_cli(*argv)
        return rc, capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(BAD_RECORDS))
    def test_predict(self, tmp_path, capsys, name):
        ckpt, out = _tiny_checkpoint(tmp_path / "m.ckpt"), tmp_path / "preds.tsv"
        path = self.ratings(tmp_path, name)
        rc, err = self.run(capsys, "predict", ckpt, path, out)
        assert rc == 3
        assert len(err.splitlines()) == 1, err
        assert f"{path}:2:" in err
        assert not out.exists()

    @pytest.mark.parametrize("name", sorted(BAD_RECORDS))
    def test_skew_split(self, tmp_path, capsys, name):
        train, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
        path = self.ratings(tmp_path, name, good=False)
        rc, err = self.run(capsys, "skew-split", path, train, test)
        assert rc == 3
        assert len(err.splitlines()) == 1, err
        assert f"{path}:1:" in err
        assert not train.exists() and not test.exists()


RATED_LINE = "s0\tthe cat sat\tthe cat\t1.0\n"
GOOD_JSONL = json.dumps(GOOD_RECORD) + "\n"
# name: (ratings file name, its content, the line the message names; None: only the file)
MALFORMED_RATINGS = {
    "tsv-3-columns": ("r.tsv", RATED_LINE + "s1\tthe cat\tthe cat\n", 2),
    "tsv-5-columns": ("r.tsv", RATED_LINE + "s1\tthe cat\tthe cat\t2.0\t3.0\n", 2),
    "non-numeric": ("r.tsv", RATED_LINE + "s1\tthe cat\tthe cat\tabc\n", 2),
    "nan": ("r.tsv", RATED_LINE + "s1\tthe cat\tthe cat\tNaN\n", 2),
    "jsonl-non-object": ("r.jsonl", GOOD_JSONL + json.dumps(BAD_RECORDS["non-object"]) + "\n", 2),
    "jsonl-field-type": ("r.jsonl", GOOD_JSONL + json.dumps(BAD_RECORDS["int-candidate"]) + "\n", 2),
    "jsonl-raw-scores-string": ("r.jsonl", json.dumps({"record": "header", "raw_scores": "false"}) + "\n"
                                + GOOD_JSONL, 1),
    "empty": ("r.tsv", "", None),
}
# predict scores unrated records, so three columns are a record and an empty input is no error
PREDICT_ACCEPTS = {"tsv-3-columns", "empty"}
RATINGS_COMMANDS = ["finetune", "predict", "evaluate", "skew-split", "ablate"]


class TestMalformedRatings:
    """Every ratings command exits 3 at the first malformed record, naming file:line, writing nothing."""

    @staticmethod
    def argv(command, ratings, chain, work):
        """The command line for ``command`` on ``ratings`` and the files it would write."""
        out, other = work / "out", work / "other"
        if command in ("finetune", "predict"):
            return [command, _tiny_checkpoint(work / "m.ckpt"), ratings, out], [out]
        if command == "evaluate":
            preds = work / "preds.tsv"
            preds.write_text("s0\t0.5\ns1\t0.7\n", encoding="utf-8")
            return [command, preds, ratings, out], [out]
        if command == "skew-split":
            return [command, ratings, out, other], [out, other]
        return [command, chain["signals.jsonl"], chain["vocab.json"], ratings, out], [out]

    @pytest.mark.parametrize("command, case", [
        (command, case) for command in RATINGS_COMMANDS for case in sorted(MALFORMED_RATINGS)
        if not (command == "predict" and case in PREDICT_ACCEPTS)
    ])
    def test_first_malformed_record(self, chain, tmp_path, capsys, command, case):
        name, content, lineno = MALFORMED_RATINGS[case]
        ratings = tmp_path / name
        ratings.write_text(content, encoding="utf-8")
        argv, outputs = self.argv(command, ratings, chain, tmp_path)
        capsys.readouterr()
        rc = run_cli(*FAST_SETTINGS, *argv)
        err = capsys.readouterr().err
        assert rc == 3
        assert len(err.splitlines()) == 1, err
        assert (f"{ratings}:{lineno}:" if lineno else str(ratings)) in err
        assert not any(path.exists() for path in outputs)

    def test_empty_rating_column(self, chain, tmp_path, capsys):
        ratings = tmp_path / "r.tsv"
        ratings.write_text(RATED_LINE + "s1\tthe cat\tthe cat\t\n", encoding="utf-8")
        argv, outputs = self.argv("finetune", ratings, chain, tmp_path)
        capsys.readouterr()
        rc = run_cli(*FAST_SETTINGS, *argv)
        err = capsys.readouterr().err
        assert rc == 3
        assert len(err.splitlines()) == 1, err
        assert f"{ratings}:2: missing rating" in err
        assert not any(path.exists() for path in outputs)


class TestPredictBatching:
    """predict shares batches between records and writes what per-record scoring writes."""

    @pytest.fixture
    def setup(self, tmp_path):
        from pairscore.text import Vocabulary, split_tokens

        sentences = demo_sentences(40, seed=23)
        vocab = Vocabulary.build([split_tokens(s) for s in sentences], min_count=1)
        config = EncoderConfig(vocab_size=len(vocab), d_model=16, n_layers=2, n_heads=2,
                               d_ff=32, max_seq_len=40, init_seed=4)
        params = init_model(config)
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(params, ckpt, meta={"vocab": list(vocab.tokens)})
        return ckpt, params, vocab, sentences

    @staticmethod
    def write_records(path, records):
        path.write_text("".join(
            json.dumps({"source_id": r.source_id, "references": list(r.references),
                        "candidate": r.candidate}) + "\n" for r in records
        ), encoding="utf-8")

    @pytest.mark.parametrize("batch_size", [1, 2, 32])
    def test_preds_equal_per_record_scoring(self, setup, tmp_path, capsys, batch_size):
        # 1-3 references a record: at batch_size 1 and 2 some records are larger than a batch
        ckpt, params, vocab, sentences = setup
        records = [
            RatingRecord(f"s{i % 7}", tuple(sentences[(i + k) % 40] for k in range(1 + i % 3)),
                         sentences[(3 * i) % 40], None)
            for i in range(60)
        ]
        ratings = tmp_path / "r.jsonl"
        self.write_records(ratings, records)
        out = tmp_path / "preds.tsv"
        assert run_cli("--set", f"batch_size={batch_size}", "predict", ckpt, ratings, out) == 0
        want = "".join(f"{r.source_id}\t{score!r}\n"
                       for r, score in zip(records, reference_predict_records(params, records, vocab)))
        assert out.read_bytes() == want.encode("utf-8")

    def test_unrated_tsv(self, setup, tmp_path, capsys):
        # the README's three-column TSV: source_id, reference, candidate
        ckpt, params, vocab, sentences = setup
        records = [RatingRecord(f"s{i}", (sentences[i],), sentences[i + 1], None) for i in range(12)]
        ratings = tmp_path / "r.tsv"
        ratings.write_text("".join(f"{r.source_id}\t{r.references[0]}\t{r.candidate}\n" for r in records),
                           encoding="utf-8")
        out = tmp_path / "preds.tsv"
        assert run_cli("predict", ckpt, ratings, out) == 0
        want = "".join(f"{r.source_id}\t{score!r}\n"
                       for r, score in zip(records, reference_predict_records(params, records, vocab)))
        assert out.read_bytes() == want.encode("utf-8")

    def test_record_wider_than_max_seq_len(self, setup, tmp_path, capsys):
        ckpt, _, _, sentences = setup
        long_candidate = " ".join(sentences[:6])
        records = [RatingRecord(f"s{i}", (sentences[i],), sentences[i + 1], None) for i in range(5)]
        records.insert(3, RatingRecord("wide", (sentences[0],), long_candidate, None))
        ratings = tmp_path / "r.jsonl"
        self.write_records(ratings, records)
        out = tmp_path / "preds.tsv"
        capsys.readouterr()
        rc = run_cli("predict", ckpt, ratings, out)
        err = capsys.readouterr().err
        assert rc == 3
        assert len(err.splitlines()) == 1, err
        assert "exceeds max_seq_len 40" in err
        assert not out.exists()


class TestAblate:
    """ablate end to end: a header and one row per task, byte-identical on a rerun."""

    @pytest.mark.parametrize("mode", ["single-task", "leave-one-out"])
    def test_rows_and_rerun(self, chain, tmp_path, capsys, mode):
        outs = [tmp_path / "first.csv", tmp_path / "second.csv"]
        for out in outs:
            rc = run_cli(*FAST_SETTINGS, "--set", "max_seq_len=64", "ablate", chain["signals.jsonl"],
                         chain["vocab.json"], load_demo_ratings_path(), out, "--mode", mode)
            assert rc == 0
        rows = list(csv.reader(outs[0].read_text(encoding="utf-8").splitlines()))
        assert rows[0] == ["task", "mode", "active_tasks", "kendall", "delta_vs_no_pretraining", "error"]
        assert [row[:2] for row in rows[1:]] == [[name, mode] for name in SIGNAL_COLUMNS]
        assert all(row[5] == "" and np.isfinite(float(row[3])) for row in rows[1:])
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestUnkSummary:
    """finetune, predict and ablate say how many rating tokens the vocabulary misses."""

    @pytest.fixture(scope="class")
    def setup(self, chain, tmp_path_factory):
        """An untrained checkpoint of the 10-sentence vocabulary, and 40 demo ratings."""
        work = tmp_path_factory.mktemp("unk")
        ckpt, ratings = work / "m.ckpt", work / "ratings.tsv"
        assert run_cli(*FAST_SETTINGS, "--set", "max_seq_len=64", "--set", "pretrain_steps=0",
                       "pretrain", chain["signals.jsonl"], chain["vocab.json"], ckpt) == 0
        lines = load_demo_ratings_path().read_text(encoding="utf-8").splitlines()[:40]
        ratings.write_text("\n".join(lines) + "\n", encoding="utf-8")
        vocab = Vocabulary.load(chain["vocab.json"])
        tokens = [t for line in lines for text in line.split("\t")[1:3] for t in split_tokens(text)]
        unk = sum(t not in vocab for t in tokens)
        assert 0 < unk < len(tokens)
        expected = f"[unk]: {unk} of {len(tokens)} rating tokens ({100 * unk / len(tokens):.1f}%)"
        return ckpt, ratings, expected

    @pytest.mark.parametrize("command", ["finetune", "predict", "ablate"])
    def test_one_summary_line(self, chain, setup, tmp_path, capsys, command):
        ckpt, ratings, expected = setup
        out = tmp_path / "out"
        if command == "ablate":
            argv = [command, chain["signals.jsonl"], chain["vocab.json"], ratings, out]
        else:
            argv = [command, ckpt, ratings, out]
        capsys.readouterr()
        assert run_cli(*FAST_SETTINGS, "--set", "max_seq_len=64", *argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("[unk]")] == [expected]
