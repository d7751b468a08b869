"""The three benchmark workloads: inputs made from a seed, timed rounds and output checks.

A workload's ``setup`` makes its inputs under a fresh directory; ``run_round``
runs one round of operations and returns what it measured; ``check`` verifies
the first round's outputs against the oracles in ``oracles.py`` and against
properties the method must have.  Later rounds are checked by comparing the
sha256 of every artifact with the first round's: the program is
deterministic, so a rerun must reproduce each byte.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import re
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import oracles
from pairscore import cli, demo, encoder, experiments, synth, text, training
from tracer import Tracer

# Settings of demos/06_cli_pipeline.sh with fewer steps, a larger fine-tuning
# rate and a larger validation split: one round of the six stages takes
# seconds, and the best validation Kendall stays above 0 (see README.md).
PIPELINE_SETTINGS = {
    "seed": 42, "vocab_min_count": 1,
    "d_model": 32, "n_layers": 2, "n_heads": 4, "d_ff": 64, "max_seq_len": 64, "batch_size": 32,
    "pretrain_steps": 80, "finetune_steps": 40, "eval_every": 20,
    "pretrain_learning_rate": 0.002, "finetune_learning_rate": 0.002,
    "holdout_fraction": 0.2, "eval_grouping": "all", "darr_threshold": 25,
}
PIPELINE_SEGMENTS = 40   # corpus lines per round, one from each length stratum

DRIFT_CONFIG = dict(
    alphas=(0.5,), n_seeds=3, corpus_size=80, n_records=1000,
    pretrain_steps=300, pretrain_eval_every=150,
    finetune_steps=100, finetune_eval_every=50, finetune_learning_rate=0.001,
)

SCORE_SOURCES = 150      # source segments in the held-out file
SCORE_RECORDS = 1000     # held-out records (candidates) over those sources
SCORE_TRAIN_SOURCES = 60
SCORE_TRAIN_RECORDS = 100
SCORE_CHECKPOINT_SEED = 0  # the checkpoint and its vocabulary are the same for every seed
SCORE_ENCODER = dict(d_model=32, n_layers=2, n_heads=4, d_ff=64, max_seq_len=64)
SCORE_FINETUNE = dict(total_steps=20, eval_every=10, batch_size=32, learning_rate=0.001)
SCORE_DARR_THRESHOLD = 25.0
MULTIREF_SAMPLE = 24     # records whose multi-reference score is re-derived per reference

_WORD = re.compile(r"\w+|[^\w\s]")


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def by_length(sentence: str) -> tuple[int, str]:
    return (len(sentence.split()), sentence)


def stratified_sample(items: list, key, k: int, rng: np.random.Generator) -> list:
    """One item from each of k equal strata of ``items`` ordered by ``key``."""
    ordered = sorted(items, key=key)
    edges = np.linspace(0, len(ordered), k + 1).astype(int)
    return [ordered[int(rng.integers(lo, hi))] for lo, hi in zip(edges[:-1], edges[1:])]


def run_cli(args: list[str]) -> int:
    """``pairscore.cli.main`` with its stdout kept out of the benchmark's own."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in args])


def settings(values: dict) -> list[str]:
    return [arg for key, value in values.items() for arg in ("--set", f"{key}={value}")]


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines() if line]


def read_predictions(path: Path) -> list[tuple[str, float]]:
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        source_id, score = line.split("\t")
        rows.append((source_id, float(score)))
    return rows


class Round:
    """What one round did: operations attempted and failed, timings, artifacts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.seconds: dict[str, list[float]] = {}  # operation -> durations
        self.work: dict[str, list[float]] = {}     # cli.* rate metric -> one value per call
        self.artifacts: dict[str, Path] = {}

    def op(self, name: str, func) -> bool:
        """Time one operation; an exception or a non-zero exit code counts as failed.

        Garbage left by earlier operations is collected first, outside the
        timing, as if each operation started in a fresh process.
        """
        self.attempted += 1
        gc.collect()
        start = time.perf_counter()
        try:
            ok = func() in (0, None)
        except Exception:
            traceback.print_exc()
            ok = False
        self.seconds.setdefault(name, []).append(time.perf_counter() - start)
        if not ok:
            self.failed += 1
            print(f"operation failed: {name}", file=sys.stderr)
        return ok

    @property
    def wall_s(self) -> float:
        return sum(sum(times) for times in self.seconds.values())

    def rates(self, name: str, amount: float) -> list[float]:
        """``amount`` of work per second of each call of operation ``name``."""
        return [amount / t for t in self.seconds[name]]

    def digests(self) -> dict[str, str]:
        return {name: sha256(path) for name, path in sorted(self.artifacts.items())}


# ---------------------------------------------------------------------------
# pipeline: the six CLI stages on a sample of the bundled demo data.
# ---------------------------------------------------------------------------


class Pipeline:
    name = "pipeline"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, workdir: Path) -> None:
        rng = np.random.default_rng(self.seed)
        corpus = demo.load_demo_corpus()
        segments = stratified_sample(corpus, by_length, PIPELINE_SEGMENTS, rng)
        ratings = demo.load_demo_ratings_path().read_text(encoding="utf-8").splitlines()
        workdir.mkdir(parents=True, exist_ok=True)
        (workdir / "corpus.txt").write_text("\n".join(segments) + "\n", encoding="utf-8")
        (workdir / "ratings.tsv").write_text("\n".join(ratings) + "\n", encoding="utf-8")
        self.inputs = workdir

    def run_round(self, out: Path, tracer: Tracer | None = None) -> Round:
        out.mkdir(parents=True, exist_ok=True)
        inp = self.inputs
        s = settings(PIPELINE_SETTINGS)
        rnd = Round()
        stages = [
            ("gen-pairs", [inp / "corpus.txt", out / "pairs.jsonl", "--vocab-out", out / "vocab.json"]),
            ("compute-signals", [out / "pairs.jsonl", out / "vocab.json", out / "signals.jsonl"]),
            ("pretrain", [out / "signals.jsonl", out / "vocab.json", out / "pre.ckpt",
                          "--manifest", out / "pretrain_manifest.json"]),
            ("finetune", [out / "pre.ckpt", inp / "ratings.tsv", out / "ft.ckpt",
                          "--manifest", out / "finetune_manifest.json"]),
            ("predict", [out / "ft.ckpt", inp / "ratings.tsv", out / "preds.tsv"]),
            ("evaluate", [out / "preds.tsv", inp / "ratings.tsv", out / "report.json"]),
        ]
        for stage, args in stages:
            with _maybe_span(tracer, f"cli.{stage}"):
                if not rnd.op(stage, lambda: run_cli(s + [stage] + args)):
                    break
        for path in sorted(out.iterdir()):
            rnd.artifacts[path.name] = path
        if rnd.failed == 0:
            pairs = read_jsonl(out / "pairs.jsonl")
            signals = read_jsonl(out / "signals.jsonl")
            report = json.loads((out / "report.json").read_text())
            steps = PIPELINE_SETTINGS
            rnd.work = {
                "cli.gen_pairs.pairs_per_s": rnd.rates("gen-pairs", len(pairs) - 1),
                "cli.compute_signals.vectors_per_s": rnd.rates("compute-signals", len(signals) - 1),
                "cli.pretrain.examples_per_s": rnd.rates(
                    "pretrain", steps["pretrain_steps"] * steps["batch_size"]),
                "cli.finetune.examples_per_s": rnd.rates(
                    "finetune", steps["finetune_steps"] * steps["batch_size"]),
                "cli.predict.records_per_s": rnd.rates(
                    "predict", len(read_predictions(out / "preds.tsv"))),
                "cli.evaluate_all.pairs_per_s": rnd.rates("evaluate", report["pairs_total"]),
            }
        return rnd

    def check(self, out: Path) -> list[str]:
        problems: list[str] = []
        problems += check_gen_pairs(self.inputs / "corpus.txt", out / "pairs.jsonl")
        problems += check_signals(out / "pairs.jsonl", out / "signals.jsonl")
        problems += check_pretrain(out / "signals.jsonl", out / "pre.ckpt",
                                   out / "pretrain_manifest.json", PIPELINE_SETTINGS["batch_size"])
        problems += check_finetune(self.inputs / "ratings.tsv", out / "ft.ckpt",
                                   out / "finetune_manifest.json",
                                   holdout=PIPELINE_SETTINGS["holdout_fraction"],
                                   seed=PIPELINE_SETTINGS["seed"])
        problems += check_predict(self.inputs / "ratings.tsv", out / "preds.tsv", out / "ft.ckpt",
                                  out / "check")
        problems += check_evaluate(self.inputs / "ratings.tsv", out / "preds.tsv",
                                   out / "report.json", "all", PIPELINE_SETTINGS["darr_threshold"])
        return problems


def _maybe_span(tracer: Tracer | None, name: str):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


# ---------------------------------------------------------------------------
# drift: a reduced quality-drift study.
# ---------------------------------------------------------------------------


class Drift:
    name = "drift"

    def __init__(self, seed: int):
        self.seed = seed
        self.config = experiments.DriftStudyConfig(**DRIFT_CONFIG, data_seed=seed)

    def setup(self, workdir: Path) -> None:
        cfg = self.config
        pool = demo.demo_sentences(4 * cfg.corpus_size, seed=cfg.data_seed)
        segments = [s for s in pool if len(s.split()) <= cfg.max_segment_tokens]
        self.segments = segments[: cfg.corpus_size]
        workdir.mkdir(parents=True, exist_ok=True)
        (workdir / "segments.txt").write_text("\n".join(self.segments) + "\n", encoding="utf-8")

    def run_round(self, out: Path, tracer: Tracer | None = None) -> Round:
        """One study; each (alpha, seed, arm) cell is one operation."""
        out.mkdir(parents=True, exist_ok=True)
        cfg = self.config
        cells = len(cfg.alphas) * cfg.n_seeds * 2
        # Keep the inputs and result of every Kendall call of the study, test
        # side and validation, for the oracle.
        self.kendall_calls = []

        def keep(args, kwargs, result):
            self.kendall_calls.append((args, result))
            return {}

        watch = Tracer()
        watch.patch(experiments, "kendall_pairwise", "kendall", keep,
                    modules=("pairscore.experiments", "pairscore.training"))
        rnd = Round()
        start = time.perf_counter()
        try:
            with _maybe_span(tracer, "experiments.run_drift_study"):
                result = experiments.run_drift_study(cfg, segments=self.segments)
        except Exception:
            traceback.print_exc()
            result = None
        finally:
            watch.unpatch()
        rnd.seconds["study"] = [time.perf_counter() - start]
        done = 0 if result is None else sum(len(v) for arm in result.taus.values() for v in arm.values())
        rnd.attempted, rnd.failed = cells, cells - done
        if result is not None:
            (out / "taus.json").write_text(json.dumps(result.to_json_dict(), sort_keys=True) + "\n")
            rnd.artifacts["taus.json"] = out / "taus.json"
            self.result = result
        return rnd

    def check(self, out: Path) -> list[str]:
        problems = []
        cfg, result = self.config, self.result
        for args, tau in self.kendall_calls:
            want = oracles.agreement(oracles.pair_counts(*args, threshold=0.0))
            if not oracles.close(tau, want):
                problems.append(f"drift: kendall_pairwise gave {tau!r}, the oracle {want!r}")
        called = {tau for _, tau in self.kendall_calls}
        for arm in ("pretrained", "scratch"):
            for alpha in cfg.alphas:
                taus = result.taus[arm][alpha]
                if len(taus) != cfg.n_seeds:
                    problems.append(f"drift: {arm} alpha={alpha} has {len(taus)} taus, want {cfg.n_seeds}")
                if not all(math.isfinite(t) and -1.0 <= t <= 1.0 and t in called for t in taus):
                    problems.append(f"drift: {arm} alpha={alpha} taus {taus} are not Kendall values in [-1, 1]")
        # The drift claim is reported, not checked: at this reduced scale the
        # pre-trained arm loses on about one seed in five (see README.md).
        self.notes = [
            f"alpha={alpha}: pre-trained median {result.median('pretrained', alpha):+.4f}, "
            f"scratch median {result.median('scratch', alpha):+.4f}"
            for alpha in cfg.alphas
        ]
        return problems


# ---------------------------------------------------------------------------
# score: inference and agreement statistics on a held-out, WMT-style file.
# ---------------------------------------------------------------------------


def demo_vocabulary() -> text.Vocabulary:
    """Every word the demo grammar can write, and the stub translator's synonyms."""
    words = {word for group in (demo.DETERMINERS, demo.ADJECTIVES, demo.NOUNS, demo.VERBS_INTRANS,
                                demo.VERBS_TRANS, demo.ADVERBS, demo.PREPOSITIONS, demo.CONNECTIVES)
             for word in group}
    words |= set(synth.DEFAULT_SYNONYMS) | set(synth.DEFAULT_SYNONYMS.values())
    return text.Vocabulary.build([sorted(words)], min_count=1)


class Score:
    name = "score"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        vocab = demo_vocabulary()
        # Sources drawn one per length stratum, so every seed gets the same
        # length spread and about the same inference cost per record.
        train_rng = np.random.default_rng(SCORE_CHECKPOINT_SEED)
        train_src = stratified_sample(
            demo.demo_sentences(4 * SCORE_TRAIN_SOURCES, seed=SCORE_CHECKPOINT_SEED),
            by_length, SCORE_TRAIN_SOURCES, train_rng,
        )
        rng = np.random.default_rng(self.seed)
        pool = [s for s in demo.demo_sentences(4 * (SCORE_SOURCES + SCORE_TRAIN_SOURCES), seed=self.seed)
                if s not in train_src]
        held_out = stratified_sample(pool, by_length, SCORE_SOURCES, rng)
        # every extra reference swaps a neighbour pair and takes every synonym it can
        translator = synth.StubBacktranslator(substitute_prob=1.0, shuffle_prob=1.0)
        dataset = experiments.build_drift_dataset(held_out, vocab, SCORE_RECORDS, seed=self.seed)
        source_of = {sentence: i for i, sentence in enumerate(held_out)}
        references: dict[str, list[str]] = {}
        lines = []
        for ex in dataset:
            ref = ex.pair.reference.detokenize()
            if ref not in references:
                extra = [
                    " ".join(translator.round_trip(ex.pair.reference.tokens, rng))
                    for _ in range(1 + source_of[ref] % 2)
                ]
                references[ref] = [ref] + extra
            source_id = f"src{source_of[ref]:04d}"
            lines.append(json.dumps({
                "source_id": source_id,
                "references": references[ref],
                "candidate": ex.pair.candidate.detokenize(),
                "rating": ex.rating,
            }, sort_keys=True))
        (workdir / "heldout.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")

        seed = SCORE_CHECKPOINT_SEED
        train_data = experiments.build_drift_dataset(train_src, vocab, SCORE_TRAIN_RECORDS, seed=seed)
        train, validation = text.split_no_leak(train_data, 0.2, seed=seed)
        params = encoder.init_model(
            encoder.EncoderConfig(vocab_size=len(vocab), init_seed=seed, **SCORE_ENCODER)
        )
        params, _ = training.finetune(
            params, train, validation, training.TrainConfig(stage="finetune", seed=seed, **SCORE_FINETUNE),
            vocab,
        )
        encoder.save_checkpoint(params, workdir / "ft.ckpt", meta={"vocab": list(vocab.tokens)})
        self.inputs = workdir

    def run_round(self, out: Path, tracer: Tracer | None = None) -> Round:
        out.mkdir(parents=True, exist_ok=True)
        inp = self.inputs
        rnd = Round()
        heldout = inp / "heldout.jsonl"
        ops = [
            ("predict", ["predict", inp / "ft.ckpt", heldout, out / "preds.tsv"]),
            ("evaluate-source", settings({"eval_grouping": "source", "darr_threshold": SCORE_DARR_THRESHOLD})
             + ["evaluate", out / "preds.tsv", heldout, out / "report_source.json"]),
            ("evaluate-all", settings({"eval_grouping": "all", "darr_threshold": SCORE_DARR_THRESHOLD})
             + ["evaluate", out / "preds.tsv", heldout, out / "report_all.json"]),
        ]
        for name, args in ops:
            with _maybe_span(tracer, f"cli.{name}"):
                if not rnd.op(name, lambda: run_cli(args)):
                    break
        for path in sorted(out.iterdir()):
            rnd.artifacts[path.name] = path
        if rnd.failed == 0:
            report = json.loads((out / "report_all.json").read_text())
            rnd.work = {
                "cli.predict.records_per_s": rnd.rates("predict", SCORE_RECORDS),
                "cli.evaluate_all.pairs_per_s": rnd.rates("evaluate-all", report["pairs_total"]),
                "cli.evaluate_source.records_per_s": rnd.rates("evaluate-source", SCORE_RECORDS),
            }
        return rnd

    def check(self, out: Path) -> list[str]:
        heldout = self.inputs / "heldout.jsonl"
        problems = check_predict(heldout, out / "preds.tsv", self.inputs / "ft.ckpt", out / "check")
        for grouping, name in (("source", "report_source.json"), ("all", "report_all.json")):
            problems += check_evaluate(heldout, out / "preds.tsv", out / name, grouping,
                                       SCORE_DARR_THRESHOLD)
        return problems


WORKLOADS = {w.name: w for w in (Pipeline, Drift, Score)}


# ---------------------------------------------------------------------------
# Output checks shared by the workloads.
# ---------------------------------------------------------------------------


def read_ratings(path: Path) -> list[dict]:
    """Ratings file as records with source_id, references, candidate, rating."""
    if str(path).endswith(".jsonl"):
        return read_jsonl(path)
    out = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            sid, ref, cand, rating = line.split("\t")
            out.append({"source_id": sid, "references": [ref], "candidate": cand,
                        "rating": float(rating)})
    return out


def _is_subsequence(short, long) -> bool:
    it = iter(long)
    return all(tok in it for tok in short)


def check_gen_pairs(corpus: Path, pairs_path: Path) -> list[str]:
    problems = []
    lines = [l for l in corpus.read_text(encoding="utf-8").splitlines() if l.strip()]
    non_empty = sum(1 for l in lines if _WORD.findall(l.lower()))
    rows = read_jsonl(pairs_path)[1:]
    base = [r for r in rows if r["origin"]["kind"] != synth.WORD_DROP]
    if len(base) != 4 * non_empty:
        problems.append(f"gen-pairs: {len(base)} base variants for {non_empty} segments, want 4 each")
    by_source: dict[tuple, list[dict]] = {}
    for r in base:
        by_source.setdefault(tuple(r["z"]), []).append(r)
    for r in rows:
        kind, z, zt = r["origin"]["kind"], r["z"], r["z_tilde"]
        if kind in (synth.MASK_SCATTER, synth.MASK_CONTIGUOUS):
            diff = [i for i, (a, b) in enumerate(zip(z, zt)) if a != b] if len(z) == len(zt) else None
            if diff is None:
                problems.append(f"gen-pairs: {kind} changed the length of {' '.join(z)!r}")
            elif len(diff) > synth.MAX_MASKS:
                problems.append(f"gen-pairs: {kind} differs in {len(diff)} positions")
            elif kind == synth.MASK_CONTIGUOUS and diff and diff[-1] - diff[0] + 1 > synth.MAX_MASKS:
                problems.append(f"gen-pairs: contiguous fill spreads over {diff[-1] - diff[0] + 1} positions")
            elif any(zt[i] == text.UNK for i in diff):
                problems.append(f"gen-pairs: mask fill wrote [unk] into {' '.join(zt)!r}")
        elif kind == synth.WORD_DROP:
            parents = [b["z_tilde"] for b in by_source.get(tuple(z), [])
                       if b["origin"]["kind"] == r["origin"]["parent"]]
            if len(zt) > len(z) or not any(_is_subsequence(zt, p) for p in parents):
                problems.append(f"gen-pairs: word drop {' '.join(zt)!r} is not a subsequence of a base variant")
    return problems


def check_signals(pairs_path: Path, signals_path: Path) -> list[str]:
    problems = []
    pairs = read_jsonl(pairs_path)[1:]
    header, *rows = read_jsonl(signals_path)
    empty = sum(1 for r in pairs if not r["z_tilde"])
    if header["skipped"] != empty or len(rows) != len(pairs) - empty:
        problems.append(f"compute-signals: skipped {header['skipped']} of {len(pairs)}, "
                        f"wrote {len(rows)}; {empty} candidates are empty")
    norm = header["normalization"]
    mean, std = np.asarray(norm["mean"]), np.asarray(norm["std"])
    flat = np.array([
        [x for task in ("bleu", "rouge", "soft_overlap", "bt_en_fr_ref", "bt_en_fr_cand",
                        "bt_en_de_ref", "bt_en_de_cand") for x in r["signals"][task]]
        for r in rows
    ])
    if not (np.all(np.abs(flat.mean(axis=0)) < 1e-9) and np.all(np.abs(flat.std(axis=0) - 1) < 1e-9)):
        problems.append("compute-signals: normalised regression columns are not mean 0, std 1")
    raw = flat * std + mean
    for r, values in zip(rows, raw):
        z, zt = r["z"], r["z_tilde"]
        want = [oracles.bleu(z, zt), *oracles.rouge1(z, zt)]
        if not all(oracles.close(a, b) for a, b in zip(values[:4], want)):
            problems.append(f"compute-signals: BLEU/ROUGE-1 {values[:4].tolist()} != oracle {want} "
                            f"for {' '.join(zt)!r}")
            break
    for r in rows:
        origin = r["origin"]
        is_bt = (origin["parent"] or origin["kind"]) == synth.BACKTRANSLATION
        ent = np.asarray(r["signals"]["entailment"])
        if r["signals"]["bt_flag"] != ([1.0, 0.0] if is_bt else [0.0, 1.0]):
            problems.append(f"compute-signals: bt_flag {r['signals']['bt_flag']} for origin {origin}")
            break
        if np.any(ent < 0) or abs(ent.sum() - 1.0) > 1e-9:
            problems.append(f"compute-signals: entailment {ent.tolist()} is off the simplex")
            break
    return problems


def _full_loss(params, rows, vocab, batch_size: int) -> float:
    """Example-weighted pre-training loss over the whole file, in file order."""
    tasks = params.tasks
    total = 0.0
    for start in range(0, len(rows), batch_size):
        chunk = rows[start : start + batch_size]
        batch = encoder.build_batch(
            [text.SentencePair(text.TokenSeq.from_tokens(r["z"], vocab),
                               text.TokenSeq.from_tokens(r["z_tilde"], vocab)) for r in chunk],
            vocab,
            signal_targets={t.name: np.array([r["signals"][t.name] for r in chunk]) for t in tasks},
        )
        result = encoder.forward(params, batch)
        total += encoder.pretrain_loss(result.task_outputs, batch.signal_targets, tasks) * len(chunk)
    return total / len(rows)


def check_pretrain(signals_path: Path, ckpt: Path, manifest: Path, batch_size: int) -> list[str]:
    problems = []
    rows = read_jsonl(signals_path)[1:]
    params, meta = encoder.load_checkpoint(ckpt)
    vocab = text.Vocabulary(tuple(meta["vocab"]))
    history = [h["metric"] for h in json.loads(manifest.read_text())["stages"][0]["history"]]
    loss = _full_loss(params, rows, vocab, batch_size)
    untrained = _full_loss(encoder.init_model(params.config, params.tasks), rows, vocab, batch_size)
    if not oracles.close(loss, min(history)):
        problems.append(f"pretrain: checkpoint loss {loss!r} is not min(history) {min(history)!r}")
    if not min(history) < untrained:
        problems.append(f"pretrain: best loss {min(history)!r} is not below the untrained {untrained!r}")
    return problems


def check_finetune(ratings: Path, ckpt: Path, manifest: Path, holdout: float, seed: int) -> list[str]:
    problems = []
    params, meta = encoder.load_checkpoint(ckpt)
    vocab = text.Vocabulary(tuple(meta["vocab"]))
    history = [h["metric"] for h in json.loads(manifest.read_text())["stages"][0]["history"]]
    examples = text.ingest_ratings(ratings, "wmt-tsv", vocab).examples
    _, validation = text.split_no_leak(examples, holdout, seed=seed)
    preds = training.predict_ratings(params, validation, vocab)
    tau = oracles.agreement(oracles.pair_counts([e.rating for e in validation], preds,
                                                [0] * len(validation), 0.0))
    if not oracles.close(tau, max(history)):
        problems.append(f"finetune: checkpoint validation Kendall {tau!r} is not max(history) {max(history)!r}")
    if not max(history) > 0:
        problems.append(f"finetune: best validation Kendall {max(history)!r} is not above 0")
    return problems


def check_predict(ratings: Path, preds_path: Path, ckpt: Path, scratch: Path) -> list[str]:
    problems = []
    records = read_ratings(ratings)
    preds = read_predictions(preds_path)
    if [sid for sid, _ in preds] != [r["source_id"] for r in records]:
        problems.append("predict: predictions are not one per record in input order")
        return problems
    if not all(math.isfinite(score) for _, score in preds):
        problems.append("predict: a score is not finite")
    # Multi-reference max: re-score each reference of a fixed sample alone.
    step = max(1, len(records) // MULTIREF_SAMPLE)
    sample = list(range(0, len(records), step))[:MULTIREF_SAMPLE]
    scratch.mkdir(parents=True, exist_ok=True)
    singles = [
        json.dumps({"source_id": f"{i}:{k}", "references": [ref],
                    "candidate": records[i]["candidate"], "rating": records[i]["rating"]})
        for i in sample for k, ref in enumerate(records[i]["references"])
    ]
    (scratch / "single_refs.jsonl").write_text("\n".join(singles) + "\n", encoding="utf-8")
    if run_cli(["predict", ckpt, scratch / "single_refs.jsonl", scratch / "single_preds.tsv"]) != 0:
        return problems + ["predict: single-reference predict failed"]
    per_record: dict[int, float] = {}
    for sid, score in read_predictions(scratch / "single_preds.tsv"):
        i = int(sid.split(":")[0])
        per_record[i] = max(per_record.get(i, -math.inf), score)
    for i in sample:
        if not oracles.close(preds[i][1], per_record[i]):
            problems.append(f"predict: record {i} scores {preds[i][1]!r}, max over its references "
                            f"is {per_record[i]!r}")
    return problems


def check_evaluate(ratings: Path, preds_path: Path, report_path: Path, grouping: str,
                   threshold: float) -> list[str]:
    problems = []
    records = read_ratings(ratings)
    metric = [score for _, score in read_predictions(preds_path)]
    human = [r["rating"] for r in records]
    groups = [r["source_id"] if grouping == "source" else "all" for r in records]
    report = json.loads(report_path.read_text())
    counts = oracles.pair_counts(human, metric, groups, threshold)
    for key, value in counts.items():
        if report[key] != value:
            problems.append(f"evaluate ({grouping}): {key} {report[key]} != oracle {value}")
    want = {
        "darr": oracles.agreement(counts),
        "kendall": oracles.agreement(oracles.pair_counts(human, metric, groups, 0.0)),
        "pearson": oracles.pearson(human, metric),
    }
    for key, value in want.items():
        if not oracles.close(report[key], value):
            problems.append(f"evaluate ({grouping}): {key} {report[key]!r} != oracle {value!r}")
    return problems
