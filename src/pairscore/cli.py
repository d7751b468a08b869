"""Pipeline orchestration CLI.

Every command is a pure function of (input files, flat config, seed): reruns
produce byte-identical artifacts, every artifact embeds the resolved config
hash, and inputs are never mutated.  Exit codes: 0 success, 2 usage, 3 data
error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import math
import os
import shlex
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import Callable, Mapping, Sequence

from . import __version__
from .demo import load_demo_corpus
from .encoder import EncoderConfig, init_model, load_checkpoint, save_checkpoint
from .errors import DataError, NumericError, PairscoreError, ScorerProtocolError, UsageError
from .experiments import Split, ablation_to_csv, run_ablation
from .metrics import BLEU_SMOOTHING, EmbeddingTable
from .signals import (
    ExternalEntailment,
    ExternalLikelihoodScorer,
    SignalProviders,
    generate_pairs,
    label_pairs,
    offline_providers,
    read_signals,
    write_signals,
)
from .stats import SkewConfig, darr, save_report, skew_split
from .synth import (
    ExternalRoundTripTranslator,
    GenerationConfig,
    LineClient,
    StubBacktranslator,
    read_synthetic,
    write_synthetic,
)
from .text import (
    RESERVED_TOKENS,
    TOKENIZER_VERSION,
    Vocabulary,
    ingest_ratings,
    read_lines,
    read_rating_records,
    read_text,
    record_pairs,
    split_no_leak,
    split_tokens,
    unk_summary,
    write_rating_records,
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
    # synthetic generation
    "n_scatter": 2,
    "n_contiguous": 1,
    "n_backtranslation": 1,
    "word_drop_rate": 0.3,
    "beam_width": 8,
    # signal providers
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


def _at_least(low, what: str):
    return (lambda value: value >= low), what


# Each key's rule, as the dataclass or split that reads the key enforces it, and
# what an error says the key expects.  Checked as a key is read, so that an error
# names its `--config` line.
_RULES: dict[str, tuple[Callable[[object], bool], str]] = {
    "seed": _at_least(0, "a non-negative integer"),  # numpy's generators take no negative seed
    **dict.fromkeys(
        ("d_model", "n_layers", "n_heads", "d_ff", "vocab_min_count", "beam_width", "batch_size",
         "eval_every"), _at_least(1, "a positive integer")),
    **dict.fromkeys(
        ("n_scatter", "n_contiguous", "n_backtranslation", "pretrain_steps", "finetune_steps"),
        _at_least(0, "a non-negative integer")),
    **dict.fromkeys(
        ("gamma_metrics", "gamma_likelihood", "gamma_semantic", "alpha_train", "alpha_test",
         "pretrain_learning_rate", "finetune_learning_rate"),
        _at_least(0.0, "a non-negative number")),
    "vocab_size_cap": _at_least(
        len(RESERVED_TOKENS) + 1, f"an integer above {len(RESERVED_TOKENS)} (the reserved tokens)"),
    "max_seq_len": _at_least(3, "an integer of at least 3 ([cls] and two separators)"),
    "n_bins": _at_least(2, "an integer of at least 2"),
    "word_drop_rate": ((lambda value: 0.0 <= value <= 1.0), "a number in [0, 1]"),
    "holdout_fraction": ((lambda value: 0.0 < value < 1.0), "a number in (0, 1)"),
    "eval_grouping": ((lambda value: value in ("source", "all")), "'source' or 'all'"),
}


def _coerce(key: str, raw: str):
    default = DEFAULTS[key]
    if isinstance(default, bool):
        low = raw.strip().lower()
        if low not in ("true", "1", "yes", "false", "0", "no"):
            raise UsageError(f"config key {key!r}: expected a boolean, got {raw!r}")
        value = low in ("true", "1", "yes")
    elif isinstance(default, int):
        try:
            value = int(raw)
        except ValueError as exc:
            raise UsageError(f"config key {key!r}: expected an integer, got {raw!r}") from exc
    elif isinstance(default, float):
        try:
            value = float(raw)
        except ValueError as exc:
            raise UsageError(f"config key {key!r}: expected a number, got {raw!r}") from exc
        if not math.isfinite(value):
            raise UsageError(f"config key {key!r}: expected a finite number, got {raw!r}")
    else:
        # One pair of surrounding quotes, as render_config writes them; inner quotes stay.
        text = raw.strip()
        value = text[1:-1] if len(text) >= 2 and text[0] == text[-1] == '"' else text
    if key in _RULES and not _RULES[key][0](value):
        raise UsageError(f"config key {key!r}: expected {_RULES[key][1]}, got {raw!r}")
    return value


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
            try:
                config[key] = _coerce(key, raw.strip())
            except UsageError as exc:
                raise UsageError(f"{path}:{lineno}: {exc}") from None
    for item in overrides:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise UsageError(f"unknown config key {key!r}")
        config[key] = _coerce(key, raw)
    model, heads = config["d_model"], config["n_heads"]
    if model % heads:
        raise UsageError(f"d_model={model} must be divisible by n_heads={heads}")
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


def _atomic_write(outputs: Mapping[str, Callable[[Path], None]]) -> None:
    """Write each output via a temp file + rename; a failure leaves none of them."""
    written: list[Path] = []
    try:
        for name, writer in outputs.items():
            path = Path(name)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
            os.close(fd)
            tmp = Path(tmp_name)
            try:
                writer(tmp)
                os.replace(tmp, path)
            finally:
                tmp.unlink(missing_ok=True)
            written.append(path)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise


def _ratings_format(path: str) -> str:
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


def _providers(config: Mapping, examples, children: contextlib.ExitStack) -> SignalProviders:
    """The offline providers, with each one that the config names swapped in."""
    providers = offline_providers(examples)
    if config["embedding_file"]:
        providers.embeddings = EmbeddingTable.from_file(config["embedding_file"])
    if config["scorer_command"]:
        providers.likelihood = ExternalLikelihoodScorer(_child(children, config["scorer_command"]))
    if config["entailment_command"]:
        providers.entailment = ExternalEntailment(_child(children, config["entailment_command"]))
    return providers


def _train_config(config: Mapping, stage: str) -> TrainConfig:
    steps = config[f"{stage}_steps"]
    return TrainConfig(
        total_steps=steps,
        eval_every=min(config["eval_every"], steps) if steps else 1,
        batch_size=config["batch_size"],
        learning_rate=config[f"{stage}_learning_rate"],
        seed=config["seed"],
    )


def _task_weights(config: Mapping):
    return set_task_weights([config["gamma_metrics"], config["gamma_likelihood"], config["gamma_semantic"]])


def _encoder_config(config: Mapping, vocab: Vocabulary) -> EncoderConfig:
    shape = {key: config[key] for key in ("d_model", "n_layers", "n_heads", "d_ff", "max_seq_len")}
    return EncoderConfig(vocab_size=len(vocab), init_seed=config["seed"], **shape)


def _save_stage(args, chash: str, stage: str, params, vocab: Vocabulary, steps: int, history) -> None:
    """Write a training stage's checkpoint and, with --manifest, its one-stage manifest."""
    meta = {"config_hash": chash, "vocab": list(vocab.tokens), "stage": stage}
    outputs = {args.out: lambda p: save_checkpoint(params, p, meta=meta)}
    if args.manifest:
        entry = manifest_entry(stage, steps, history, params, args.out)
        outputs[args.manifest] = lambda p: save_manifest([entry], p, meta={"config_hash": chash})
    _atomic_write(outputs)


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
    if len(vocab) == len(RESERVED_TOKENS):
        raise DataError(
            f"no corpus word occurs vocab_min_count={config['vocab_min_count']} times, "
            "so the vocabulary would hold only the reserved tokens"
        )
    gen_config = GenerationConfig(**{f.name: config[f.name] for f in dataclasses.fields(GenerationConfig)})
    with contextlib.ExitStack() as children:
        if config["translator_command"]:
            translator = ExternalRoundTripTranslator(_child(children, config["translator_command"]))
        else:
            translator = StubBacktranslator()
        examples = generate_pairs(corpus, vocab, gen_config, translator, config["seed"])
    meta = {"config_hash": chash, "tokenizer": TOKENIZER_VERSION, "translator": translator.label}
    _atomic_write({
        args.out: lambda p: write_synthetic(examples, p, meta=meta),
        args.vocab_out: vocab.save,
    })
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
        normalized, stats, failed = label_pairs(examples, _providers(config, examples, children))
    meta = {
        "config_hash": chash,
        "tokenizer": TOKENIZER_VERSION,
        "bleu_smoothing": BLEU_SMOOTHING,
        "skipped": len(failed),
        "source_pairs": header.get("config_hash"),
    }
    _atomic_write({args.out: lambda p: write_signals(normalized, p, stats, meta=meta)})
    print(f"config-hash: {chash}")
    print(f"wrote {len(normalized)} signal vectors to {args.out}")
    by_task = ", ".join(f"{task} {n}" for task, n in Counter(task for _, task in failed).items())
    print(f"skipped {len(failed)}" + (f" ({by_task})" if by_task else ""))
    return 0


def cmd_pretrain(args, config) -> int:
    chash = config_hash(config)
    vocab = Vocabulary.load(args.vocab)
    dataset, _, _ = read_signals(args.signals, vocab)
    params = init_model(_encoder_config(config, vocab), _task_weights(config))
    train_config = _train_config(config, "pretrain")
    params, history = pretrain(params, dataset, train_config, vocab)
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
    fmt = _ratings_format(args.ratings)
    examples = ingest_ratings(args.ratings, fmt, vocab).examples
    train, validation = split_no_leak(examples, config["holdout_fraction"], seed=config["seed"])
    train_config = _train_config(config, "finetune")
    params, history = finetune(params, train, validation, train_config, vocab)
    _save_stage(args, chash, "finetune", params, vocab, train_config.total_steps, history)
    best = max((h.metric for h in history), default=float("nan"))
    print(f"config-hash: {chash}")
    print(unk_summary((ex.pair for ex in examples), vocab))
    print(
        f"fine-tuned {train_config.total_steps} steps on {len(train)} examples; "
        f"best validation kendall {best:.4f} -> {args.out}"
    )
    return 0


def cmd_predict(args, config) -> int:
    chash = config_hash(config)
    params, vocab, _ = _load_params(args.checkpoint)
    records, _ = read_rating_records(args.input, _ratings_format(args.input), require_rating=False)
    tokenized = record_pairs(records, vocab)
    scores = predict_records(params, tokenized, vocab)
    rows = [(record.source_id, float(score)) for record, score in zip(records, scores)]

    def write(p: Path):
        lines = [f"{source_id}\t{repr(score)}" for source_id, score in rows]
        p.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")

    _atomic_write({args.out: write})
    print(f"config-hash: {chash}")
    print(unk_summary((pair for pairs in tokenized for pair in pairs), vocab))
    print(f"predicted {len(rows)} records -> {args.out}")
    return 0


def cmd_evaluate(args, config) -> int:
    chash = config_hash(config)

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
    records, _ = read_rating_records(args.ratings, _ratings_format(args.ratings), require_rating=True)
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
    _atomic_write({args.out: lambda p: save_report(report, p, meta=meta)})
    print(f"config-hash: {chash}")
    print(report.to_text_table())
    return 0


def cmd_skew_split(args, config) -> int:
    chash = config_hash(config)
    fmt = _ratings_format(args.ratings)
    records, raw_scores = read_rating_records(args.ratings, fmt)
    skew = SkewConfig(
        alpha_train=config["alpha_train"],
        alpha_test=config["alpha_test"],
        n_bins=config["n_bins"],
        seed=config["seed"],
        disjoint=config["skew_disjoint"],
    )
    train, test = skew_split(records, skew)
    _atomic_write({
        args.train_out: lambda p: write_rating_records(train, raw_scores, p, fmt),
        args.test_out: lambda p: write_rating_records(test, raw_scores, p, fmt),
    })
    print(f"config-hash: {chash}")
    print(
        f"skew split alpha=({skew.alpha_train}, {skew.alpha_test}): "
        f"{len(train)} train, {len(test)} test of {len(records)} records"
    )
    return 0


def cmd_ablate(args, config) -> int:
    chash = config_hash(config)
    vocab = Vocabulary.load(args.vocab)
    dataset, _, _ = read_signals(args.signals, vocab)
    fmt = _ratings_format(args.ratings)
    examples = ingest_ratings(args.ratings, fmt, vocab).examples
    train_pool, test = split_no_leak(examples, 0.25, seed=config["seed"])
    train, validation = split_no_leak(train_pool, config["holdout_fraction"], seed=config["seed"])
    rows = run_ablation(
        vocab, _encoder_config(config, vocab), _task_weights(config), dataset,
        _train_config(config, "pretrain"),
        Split(train, validation, test, _train_config(config, "finetune")), args.mode,
    )
    _atomic_write({args.out: lambda p: ablation_to_csv(rows, p)})
    print(f"config-hash: {chash}")
    print(unk_summary((ex.pair for ex in examples), vocab))
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


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line, as every other error is reported."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--manifest", help="optional training manifest JSON")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("predict", help="score (reference, candidate) records with a checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("input", help="ratings-format file; rating column optional")
    p.add_argument("out", help="output TSV of source_id<TAB>score")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="agreement statistics for predictions vs human ratings")
    p.add_argument("predictions", help="TSV from predict")
    p.add_argument("ratings", help="ratings file with human scores")
    p.add_argument("out", help="output report JSON")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("skew-split", help="drift resampling into skewed train/test sides")
    p.add_argument("ratings")
    p.add_argument("train_out")
    p.add_argument("test_out")
    p.set_defaults(func=cmd_skew_split)

    p = sub.add_parser("ablate", help="single-task / leave-one-out pre-training ablations")
    p.add_argument("signals")
    p.add_argument("vocab")
    p.add_argument("ratings")
    p.add_argument("out", help="output CSV")
    p.add_argument("--mode", choices=["single-task", "leave-one-out"], default="single-task")
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.dump_defaults:
        print(render_config(DEFAULTS))
        return 0
    if args.command is None:
        print(f"{parser.prog}: error: name a command; see `{parser.prog} --help`", file=sys.stderr)
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
