"""Pipeline orchestration CLI.

Every command is a pure function of (input files, flat config, seed): reruns
produce byte-identical artifacts, every artifact embeds the resolved config
hash, and inputs are never mutated.  Exit codes: 0 success, 2 usage, 3 data
error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shlex
import sys
import tempfile
from pathlib import Path
from typing import Callable, Mapping, Sequence

from . import __version__
from .demo import load_demo_corpus
from .encoder import EncoderConfig, init_model, load_checkpoint, save_checkpoint
from .errors import DataError, NumericError, PairscoreError, ScorerProtocolError, UsageError
from .experiments import AblationPipeline, ablation_to_csv, run_ablation
from .metrics import BLEU_SMOOTHING, EmbeddingTable
from .signals import (
    WEIGHT_GROUPS,
    BaselineEntailment,
    ExternalEntailment,
    ExternalLikelihoodScorer,
    SignalProviders,
    UnigramScorer,
    apply_normalization,
    compute_signals_corpus,
    fit_normalization,
    read_signals,
    write_signals,
)
from .stats import SkewConfig, darr, save_report, skew_split
from .synth import (
    BigramLM,
    ExternalRoundTripTranslator,
    GenerationConfig,
    LineClient,
    StubBacktranslator,
    generate_corpus,
    read_synthetic,
    write_synthetic,
)
from .text import (
    TOKENIZER_VERSION,
    Vocabulary,
    ingest_ratings,
    read_lines,
    read_rating_records,
    read_text,
    serialize_ratings,
    split_no_leak,
    split_tokens,
    tokenize,
)
from .training import (
    TrainConfig,
    finetune,
    manifest_entry,
    predict_records,
    pretrain,
    save_manifest,
    set_task_weights,
)

# ---------------------------------------------------------------------------
# Flat key=value config with typed defaults, unknown keys rejected.
# ---------------------------------------------------------------------------

DEFAULTS: dict[str, object] = {
    "seed": 42,
    # vocabulary
    "vocab_min_count": 2,
    "vocab_size_cap": 8000,
    # encoder
    "d_model": 64,
    "n_layers": 2,
    "n_heads": 4,
    "d_ff": 256,
    "max_seq_len": 128,
    "dropout": 0.0,
    # synthetic generation
    "n_scatter": 2,
    "n_contiguous": 1,
    "n_backtranslation": 1,
    "word_drop_rate": 0.3,
    "beam_width": 8,
    "lm_add_k": 0.1,
    "lm_interpolation": 0.7,
    # signal providers
    "embedding_dim": 32,
    "embedding_file": "",
    "scorer_command": "",
    "entailment_command": "",
    "translator_command": "",
    # task weights (one per conventional group)
    "gamma_metrics": 1.0,
    "gamma_likelihood": 1.0,
    "gamma_semantic": 1.0,
    # training
    "batch_size": 32,
    "pretrain_steps": 2000,
    "finetune_steps": 500,
    "eval_every": 50,
    "pretrain_learning_rate": 1e-5,
    "finetune_learning_rate": 1e-5,
    "adam_beta1": 0.9,
    "adam_beta2": 0.999,
    "adam_eps": 1e-8,
    "holdout_fraction": 0.1,
    # evaluation
    "darr_threshold": 25.0,
    "eval_grouping": "source",  # "source": pairs within one source segment; "all": every pair
    # skew resampling
    "alpha_train": 0.0,
    "alpha_test": 0.0,
    "n_bins": 10,
    "skew_disjoint": False,
}

SCORER_COMMAND_ENV = "PAIRSCORE_SCORER_COMMAND"


def _coerce(key: str, raw: str):
    default = DEFAULTS[key]
    if isinstance(default, bool):
        low = raw.strip().lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise UsageError(f"config key {key!r}: expected a boolean, got {raw!r}")
    if isinstance(default, int):
        try:
            return int(raw)
        except ValueError as exc:
            raise UsageError(f"config key {key!r}: expected an integer, got {raw!r}") from exc
    if isinstance(default, float):
        try:
            return float(raw)
        except ValueError as exc:
            raise UsageError(f"config key {key!r}: expected a number, got {raw!r}") from exc
    # One pair of surrounding quotes, as render_config writes them; inner quotes stay.
    text = raw.strip()
    return text[1:-1] if len(text) >= 2 and text[0] == text[-1] == '"' else text


def load_config(path: str | None, overrides: Sequence[str]) -> dict:
    """Resolve defaults <- config file <- --set overrides; reject unknown keys."""
    config = dict(DEFAULTS)
    if path:
        try:
            lines = read_text(path, "config file").splitlines()
        except DataError as exc:
            raise UsageError(str(exc)) from None
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise UsageError(f"{path}:{lineno}: expected `key = value`")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if key not in DEFAULTS:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            config[key] = _coerce(key, raw.strip())
    for item in overrides:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise UsageError(f"unknown config key {key!r}")
        config[key] = _coerce(key, raw)
    return config


def render_config(config: Mapping[str, object]) -> str:
    lines = []
    for key in sorted(config):
        value = config[key]
        if isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, float):
            rendered = repr(value)
        elif isinstance(value, str):
            rendered = f'"{value}"'
        else:
            rendered = str(value)
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines)


def config_hash(config: Mapping[str, object]) -> str:
    return hashlib.sha256(render_config(config).encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Shared plumbing.
# ---------------------------------------------------------------------------


def _atomic_write(path: Path, writer: Callable[[Path], None]) -> None:
    """Write via a temp file + rename so failures leave no partial artifact."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    os.close(fd)
    tmp = Path(tmp_name)
    try:
        writer(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _ratings_format(path: str, override: str | None) -> str:
    if override:
        return override
    return "jsonl" if str(path).endswith(".jsonl") else "wmt-tsv"


def _read_corpus(path: str) -> list[str]:
    lines = [line.strip() for line in read_text(path, "corpus").splitlines() if line.strip()]
    if not lines:
        raise DataError(f"corpus {path} has no non-empty lines")
    return lines


def _child(children: contextlib.ExitStack, command: str) -> LineClient:
    """A client for ``command`` that is closed when ``children`` unwinds."""
    try:
        argv = shlex.split(command)
    except ValueError as exc:
        raise UsageError(f"cannot split command {command!r}: {exc}") from None
    client = LineClient(argv)
    children.callback(client.close)
    return client


def _providers(config: Mapping, segments, children: contextlib.ExitStack) -> SignalProviders:
    if config["embedding_file"]:
        embeddings = EmbeddingTable.from_file(config["embedding_file"])
    else:
        embeddings = EmbeddingTable.hashed(
            (tok for seg in segments for tok in seg.tokens), dim=config["embedding_dim"]
        )
    scorer_command = os.environ.get(SCORER_COMMAND_ENV, "") or config["scorer_command"]
    if scorer_command:
        likelihood = ExternalLikelihoodScorer(_child(children, scorer_command))
    else:
        likelihood = UnigramScorer.train(segments)
    if config["entailment_command"]:
        entailment = ExternalEntailment(_child(children, config["entailment_command"]))
    else:
        entailment = BaselineEntailment()
    return SignalProviders(embeddings=embeddings, likelihood=likelihood, entailment=entailment)


def _train_config(config: Mapping, stage: str) -> TrainConfig:
    steps = config["pretrain_steps"] if stage == "pretrain" else config["finetune_steps"]
    lr = config["pretrain_learning_rate"] if stage == "pretrain" else config["finetune_learning_rate"]
    return TrainConfig(
        total_steps=steps,
        eval_every=min(config["eval_every"], steps) if steps else 1,
        batch_size=config["batch_size"],
        learning_rate=lr,
        beta1=config["adam_beta1"],
        beta2=config["adam_beta2"],
        adam_eps=config["adam_eps"],
        seed=config["seed"],
    )


def _task_weights(config: Mapping):
    return set_task_weights(
        WEIGHT_GROUPS,
        [config["gamma_metrics"], config["gamma_likelihood"], config["gamma_semantic"]],
    )


def _encoder_config(config: Mapping, vocab: Vocabulary) -> EncoderConfig:
    return EncoderConfig(
        vocab_size=len(vocab),
        d_model=config["d_model"],
        n_layers=config["n_layers"],
        n_heads=config["n_heads"],
        d_ff=config["d_ff"],
        max_seq_len=config["max_seq_len"],
        dropout=config["dropout"],
        init_seed=config["seed"],
    )


def _save_stage(args, chash: str, stage: str, params, vocab: Vocabulary, steps: int, history) -> None:
    """Write a training stage's checkpoint and, with --manifest, its one-stage manifest."""
    meta = {"config_hash": chash, "vocab": list(vocab.tokens), "stage": stage}
    _atomic_write(Path(args.out), lambda p: save_checkpoint(params, p, meta=meta))
    if args.manifest:
        entry = manifest_entry(stage, steps, history, params, args.out)
        _atomic_write(
            Path(args.manifest), lambda p: save_manifest([entry], p, meta={"config_hash": chash})
        )


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def cmd_gen_pairs(args, config) -> int:
    corpus = load_demo_corpus() if args.corpus == "demo" else _read_corpus(args.corpus)
    chash = config_hash(config)
    vocab = Vocabulary.build(
        [split_tokens(s) for s in corpus],
        min_count=config["vocab_min_count"],
        size_cap=config["vocab_size_cap"],
    )
    segments = [tokenize(s, vocab) for s in corpus]
    segments = [s for s in segments if len(s) > 0]
    lm = BigramLM.train(
        segments, vocab, add_k=config["lm_add_k"], interpolation=config["lm_interpolation"]
    )
    gen_config = GenerationConfig(
        n_scatter=config["n_scatter"],
        n_contiguous=config["n_contiguous"],
        n_backtranslation=config["n_backtranslation"],
        word_drop_rate=config["word_drop_rate"],
        beam_width=config["beam_width"],
    )
    with contextlib.ExitStack() as children:
        if config["translator_command"]:
            translator = ExternalRoundTripTranslator(_child(children, config["translator_command"]))
        else:
            translator = StubBacktranslator()
        examples = generate_corpus(segments, gen_config, lm, translator, vocab, seed=config["seed"])
    meta = {"config_hash": chash, "tokenizer": TOKENIZER_VERSION, "translator": translator.label}
    _atomic_write(Path(args.out), lambda p: write_synthetic(examples, p, meta=meta))
    _atomic_write(Path(args.vocab_out), lambda p: vocab.save(p))
    counts: dict[str, int] = {}
    for ex in examples:
        key = ex.origin.kind if ex.origin.parent is None else f"{ex.origin.kind}({ex.origin.parent})"
        counts[key] = counts.get(key, 0) + 1
    print(f"config-hash: {chash}")
    print(f"wrote {len(examples)} synthetic pairs to {args.out}")
    for key in sorted(counts):
        print(f"  {key}: {counts[key]}")
    print(f"vocabulary: {len(vocab)} tokens -> {args.vocab_out}")
    return 0


def cmd_compute_signals(args, config) -> int:
    chash = config_hash(config)
    vocab = Vocabulary.load(args.vocab)
    examples, header = read_synthetic(args.pairs, vocab)
    if not examples:
        raise DataError(f"no synthetic examples in {args.pairs}")
    with contextlib.ExitStack() as children:
        providers = _providers(config, [ex.z for ex in examples], children)
        pairs, failed = compute_signals_corpus(examples, providers)
    if not pairs:
        raise DataError("signal computation failed for every example")
    stats = fit_normalization([vec for _, vec in pairs])
    normalized = [(ex, apply_normalization(vec, stats)) for ex, vec in pairs]
    meta = {
        "config_hash": chash,
        "tokenizer": TOKENIZER_VERSION,
        "bleu_smoothing": BLEU_SMOOTHING,
        "skipped": len(failed),
        "source_pairs": header.get("config_hash"),
    }
    _atomic_write(Path(args.out), lambda p: write_signals(normalized, p, stats, meta=meta))
    print(f"config-hash: {chash}")
    print(f"wrote {len(normalized)} signal vectors to {args.out} (skipped {len(failed)})")
    return 0


def cmd_pretrain(args, config) -> int:
    chash = config_hash(config)
    vocab = Vocabulary.load(args.vocab)
    dataset, stats, header = read_signals(args.signals, vocab)
    if stats is None:
        raise DataError("signals file lacks normalization stats; run compute-signals first")
    tasks = _task_weights(config)
    params = init_model(_encoder_config(config, vocab), tasks)
    train_config = _train_config(config, "pretrain")
    params, history = pretrain(params, dataset, tasks, train_config, vocab)
    _save_stage(args, chash, "pretrain", params, vocab, train_config.total_steps, history)
    print(f"config-hash: {chash}")
    final = history[-1].metric if history else float("nan")
    print(f"pre-trained {train_config.total_steps} steps; final loss {final:.6f} -> {args.out}")
    return 0


def _load_params(path: str):
    params, meta = load_checkpoint(path)
    vocab_tokens = meta.get("vocab")
    if not vocab_tokens:
        raise DataError(f"checkpoint {path} lacks an embedded vocabulary")
    return params, Vocabulary(tuple(vocab_tokens)), meta


def cmd_finetune(args, config) -> int:
    chash = config_hash(config)
    params, vocab, _ = _load_params(args.checkpoint)
    fmt = _ratings_format(args.ratings, args.format)
    examples = ingest_ratings(args.ratings, fmt, vocab).examples
    train, validation = split_no_leak(examples, config["holdout_fraction"], seed=config["seed"])
    train_config = _train_config(config, "finetune")
    params, history = finetune(params, train, validation, train_config, vocab)
    _save_stage(args, chash, "finetune", params, vocab, train_config.total_steps, history)
    best = max((h.metric for h in history), default=float("nan"))
    print(f"config-hash: {chash}")
    print(
        f"fine-tuned {train_config.total_steps} steps on {len(train)} examples; "
        f"best validation kendall {best:.4f} -> {args.out}"
    )
    return 0


def cmd_predict(args, config) -> int:
    chash = config_hash(config)
    params, vocab, _ = _load_params(args.checkpoint)
    records, _ = read_rating_records(
        args.input, _ratings_format(args.input, args.format), require_rating=False
    )
    scores = predict_records(params, records, vocab, config["batch_size"])
    rows = [(record.source_id, float(score)) for record, score in zip(records, scores)]

    def write(p: Path):
        lines = [f"{source_id}\t{repr(score)}" for source_id, score in rows]
        p.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")

    _atomic_write(Path(args.out), write)
    print(f"config-hash: {chash}")
    print(f"predicted {len(rows)} records -> {args.out}")
    return 0


def cmd_evaluate(args, config) -> int:
    chash = config_hash(config)
    if config["eval_grouping"] not in ("source", "all"):
        raise UsageError(f"eval_grouping must be 'source' or 'all', got {config['eval_grouping']!r}")

    def prediction(line: str) -> tuple[str, float]:
        cols = line.split("\t")
        if len(cols) != 2:
            raise DataError("expected `source_id<TAB>score`")
        try:
            score = float(cols[1])
        except ValueError:
            raise DataError(f"score {cols[1]!r} is not a number") from None
        if not math.isfinite(score):
            raise DataError(f"score {cols[1]!r} is not finite")
        return cols[0], score

    predictions = read_lines(args.predictions, "predictions file", prediction)
    records, _ = read_rating_records(
        args.ratings, _ratings_format(args.ratings, args.format), require_rating=True
    )
    if len(records) != len(predictions):
        raise DataError(
            f"record count mismatch: {len(predictions)} predictions vs {len(records)} rated records"
        )
    human, metric, groups = [], [], []
    for (source_id, score), record in zip(predictions, records):
        if source_id != record.source_id:
            raise DataError(f"source_id mismatch: {source_id!r} vs {record.source_id!r}")
        human.append(record.rating)
        metric.append(score)
        groups.append(record.source_id if config["eval_grouping"] == "source" else "all")
    if config["eval_grouping"] == "source" and len(set(groups)) == len(groups) > 1:
        raise DataError(
            f"input-empty: every group has one record (all {len(groups)} source_ids differ), "
            "so there are no within-group pairs; try `pairscore --set eval_grouping=all evaluate ...`"
        )
    report = darr(human, metric, groups, threshold=config["darr_threshold"])
    meta = {"config_hash": chash, "n_records": len(records)}
    _atomic_write(Path(args.out), lambda p: save_report(report, p, meta=meta))
    print(f"config-hash: {chash}")
    print(report.to_text_table())
    return 0


def cmd_skew_split(args, config) -> int:
    chash = config_hash(config)
    vocab = Vocabulary(("[pad]", "[unk]", "[cls]", "[sep]", "[mask]"))
    fmt = _ratings_format(args.ratings, args.format)
    examples = ingest_ratings(args.ratings, fmt, vocab).examples
    skew = SkewConfig(
        alpha_train=config["alpha_train"],
        alpha_test=config["alpha_test"],
        n_bins=config["n_bins"],
        seed=config["seed"],
        disjoint=config["skew_disjoint"],
    )
    train, test = skew_split(examples, skew)
    _atomic_write(Path(args.train_out), lambda p: serialize_ratings(train, p, fmt))
    _atomic_write(Path(args.test_out), lambda p: serialize_ratings(test, p, fmt))
    print(f"config-hash: {chash}")
    print(
        f"skew split alpha=({skew.alpha_train}, {skew.alpha_test}): "
        f"{len(train)} train, {len(test)} test of {len(examples)} records"
    )
    return 0


def cmd_ablate(args, config) -> int:
    chash = config_hash(config)
    vocab = Vocabulary.load(args.vocab)
    dataset, stats, _ = read_signals(args.signals, vocab)
    if stats is None:
        raise DataError("signals file lacks normalization stats")
    fmt = _ratings_format(args.ratings, args.format)
    examples = ingest_ratings(args.ratings, fmt, vocab).examples
    train_pool, test = split_no_leak(examples, 0.25, seed=config["seed"])
    train, validation = split_no_leak(train_pool, config["holdout_fraction"], seed=config["seed"])
    pipeline = AblationPipeline(
        vocab=vocab,
        encoder_config=_encoder_config(config, vocab),
        base_tasks=_task_weights(config),
        synthetic=dataset,
        train=train,
        validation=validation,
        test=test,
        pretrain_config=_train_config(config, "pretrain"),
        finetune_config=_train_config(config, "finetune"),
    )
    rows = run_ablation(pipeline, args.mode)
    _atomic_write(Path(args.out), lambda p: ablation_to_csv(rows, p))
    print(f"config-hash: {chash}")
    for row in rows:
        if row.error:
            print(f"  {row.name}: ERROR {row.error}")
        else:
            print(f"  {row.name}: kendall {row.tau:+.4f} (delta {row.delta:+.4f})")
    print(f"wrote {len(rows)} rows -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairscore",
        description="Train and evaluate a learned reference-based text metric.",
    )
    parser.add_argument("--version", action="version", version=f"pairscore {__version__}")
    parser.add_argument("--dump-defaults", action="store_true", help="print default config and exit")
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config key (repeatable)")

    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen-pairs", help="perturb a corpus into synthetic sentence pairs")
    p.add_argument("corpus", help="text file, one segment per line (or `demo`)")
    p.add_argument("out", help="output synthetic-pairs JSONL")
    p.add_argument("--vocab-out", default="vocab.json", help="where to write the vocabulary")
    p.set_defaults(func=cmd_gen_pairs)

    p = sub.add_parser("compute-signals", help="attach the nine training signals to each pair")
    p.add_argument("pairs", help="synthetic-pairs JSONL from gen-pairs")
    p.add_argument("vocab", help="vocabulary JSON from gen-pairs")
    p.add_argument("out", help="output signals JSONL")
    p.set_defaults(func=cmd_compute_signals)

    p = sub.add_parser("pretrain", help="multitask pre-training on signal vectors")
    p.add_argument("signals", help="signals JSONL from compute-signals")
    p.add_argument("vocab", help="vocabulary JSON")
    p.add_argument("out", help="output checkpoint")
    p.add_argument("--manifest", help="optional training manifest JSON")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="fine-tune a checkpoint on human ratings")
    p.add_argument("checkpoint", help="input checkpoint")
    p.add_argument("ratings", help="ratings file (.tsv or .jsonl)")
    p.add_argument("out", help="output checkpoint")
    p.add_argument("--format", choices=["wmt-tsv", "jsonl"], help="override ratings format")
    p.add_argument("--manifest", help="optional training manifest JSON")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("predict", help="score (reference, candidate) records with a checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("input", help="ratings-format file; rating column optional")
    p.add_argument("out", help="output TSV of source_id<TAB>score")
    p.add_argument("--format", choices=["wmt-tsv", "jsonl"])
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="agreement statistics for predictions vs human ratings")
    p.add_argument("predictions", help="TSV from predict")
    p.add_argument("ratings", help="ratings file with human scores")
    p.add_argument("out", help="output report JSON")
    p.add_argument("--format", choices=["wmt-tsv", "jsonl"])
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("skew-split", help="drift resampling into skewed train/test sides")
    p.add_argument("ratings")
    p.add_argument("train_out")
    p.add_argument("test_out")
    p.add_argument("--format", choices=["wmt-tsv", "jsonl"])
    p.set_defaults(func=cmd_skew_split)

    p = sub.add_parser("ablate", help="single-task / leave-one-out pre-training ablations")
    p.add_argument("signals")
    p.add_argument("vocab")
    p.add_argument("ratings")
    p.add_argument("out", help="output CSV")
    p.add_argument("--mode", choices=["single-task", "leave-one-out"], default="single-task")
    p.add_argument("--format", choices=["wmt-tsv", "jsonl"])
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.dump_defaults:
        print(render_config(DEFAULTS))
        return 0
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        config = load_config(args.config, args.set)
        return args.func(args, config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except ScorerProtocolError as exc:
        print(f"data error: {exc.message}", file=sys.stderr)
        return 3
    except PairscoreError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
