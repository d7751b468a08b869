"""Tokenization, sentence-pair data model, and corpus/ratings ingestion.

Everything here is pure and deterministic: the tokenizer is a lowercasing
whitespace/punctuation splitter (no subword units), the vocabulary is built
from a corpus with a frequency cutoff, and file readers reject bad records
instead of guessing.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError

PAD = "[pad]"
UNK = "[unk]"
CLS = "[cls]"
SEP = "[sep]"
MASK = "[mask]"
RESERVED_TOKENS = (PAD, UNK, CLS, SEP, MASK)

# Word runs or single non-space punctuation marks.  The bracketed reserved
# symbols can never be produced by this pattern, so they stay unambiguous.
_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)

TOKENIZER_VERSION = "lower-ws-punct/1"


def read_text(path: str | Path, what: str) -> str:
    """The UTF-8 text of the ``what`` file at ``path``; DataError naming it if unreadable."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} {path} is not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc.strerror or exc}") from None


@dataclass(frozen=True)
class Vocabulary:
    """Bijective token<->id map with reserved ids for the special symbols."""

    tokens: tuple[str, ...]
    _index: dict[str, int] = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if tuple(self.tokens[: len(RESERVED_TOKENS)]) != RESERVED_TOKENS:
            raise DataError("vocabulary must start with the reserved tokens")
        index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(index) != len(self.tokens):
            raise DataError("vocabulary contains duplicate tokens")
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    @property
    def pad_id(self) -> int:
        return 0

    @property
    def unk_id(self) -> int:
        return 1

    @property
    def cls_id(self) -> int:
        return 2

    @property
    def sep_id(self) -> int:
        return 3

    @property
    def mask_id(self) -> int:
        return 4

    def id(self, token: str) -> int:
        return self._index.get(token, self.unk_id)

    def token(self, idx: int) -> str:
        return self.tokens[idx]

    @classmethod
    def build(
        cls,
        token_lists: Iterable[Sequence[str]],
        min_count: int = 2,
        size_cap: int | None = None,
    ) -> "Vocabulary":
        """Build from tokenized segments, keeping tokens seen >= min_count times.

        Tokens are ordered by descending frequency, ties broken alphabetically,
        so the mapping is a pure function of the corpus.
        """
        counts = Counter()
        for toks in token_lists:
            counts.update(toks)
        for special in RESERVED_TOKENS:
            counts.pop(special, None)
        kept = sorted(
            (tok for tok, c in counts.items() if c >= min_count),
            key=lambda t: (-counts[t], t),
        )
        if size_cap is not None:
            kept = kept[: max(0, size_cap - len(RESERVED_TOKENS))]
        return cls(RESERVED_TOKENS + tuple(kept))

    def save(self, path: str | Path) -> None:
        payload = {"format": "vocabulary", "version": 1, "tokens": list(self.tokens)}
        Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        """Read a file written by ``save``; DataError naming it if it is not one."""
        try:
            payload = json.loads(read_text(path, "vocabulary"))
        except json.JSONDecodeError as exc:
            raise DataError(f"vocabulary {path} is not JSON ({exc.msg})") from None
        if not isinstance(payload, dict) or payload.get("format") != "vocabulary":
            raise DataError(f"{path} is not a vocabulary file")
        tokens = payload.get("tokens")
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise DataError(f"vocabulary {path} lacks a list of string tokens")
        try:
            return cls(tuple(tokens))
        except DataError as exc:
            raise DataError(f"vocabulary {path}: {exc}") from None


@dataclass(frozen=True)
class TokenSeq:
    """A tokenized sentence together with its vocabulary ids."""

    tokens: tuple[str, ...]
    ids: tuple[int, ...]

    def __post_init__(self):
        if len(self.tokens) != len(self.ids):
            raise DataError("tokens and ids must have equal length")

    def __len__(self) -> int:
        return len(self.tokens)

    @classmethod
    def from_tokens(cls, tokens: Sequence[str], vocab: Vocabulary) -> "TokenSeq":
        toks = tuple(tokens)
        return cls(toks, tuple(vocab.id(t) for t in toks))

    def detokenize(self) -> str:
        return " ".join(self.tokens)


def split_tokens(text: str) -> list[str]:
    """The tokenizer's token strings: lowercase words and single punctuation marks.

    Build a vocabulary from these so that tokenize() finds every token in it.
    """
    return _TOKEN_RE.findall(text.lower())


def tokenize(text: str, vocab: Vocabulary) -> TokenSeq:
    """Lowercase and split on whitespace/punctuation; unknown tokens map to [unk].

    Idempotent on already-tokenized text: tokenize(detokenize(s)) == s.
    """
    return TokenSeq.from_tokens(split_tokens(text), vocab)


def as_tokens(seq) -> tuple[str, ...]:
    """Accept a TokenSeq or any sequence of token strings."""
    if isinstance(seq, TokenSeq):
        return seq.tokens
    return tuple(seq)


@dataclass(frozen=True)
class SentencePair:
    reference: TokenSeq
    candidate: TokenSeq


@dataclass(frozen=True)
class RatedExample:
    """A (reference, candidate) pair with a human rating, keyed by source segment."""

    pair: SentencePair
    rating: float
    source_id: str

    def __post_init__(self):
        if not math.isfinite(self.rating):
            raise DataError(f"non-finite rating for source {self.source_id!r}")
        if not self.source_id:
            raise DataError("source_id must be non-empty")


@dataclass(frozen=True)
class RatingRecord:
    """One line of a ratings file, before expansion into per-reference examples."""

    source_id: str
    references: tuple[str, ...]
    candidate: str
    rating: float | None


@dataclass
class IngestResult:
    examples: list[RatedExample]
    skipped: int
    problems: list[str]


def _parse_tsv_records(lines: Iterable[str], require_rating: bool):
    records, problems, raw_scores = [], [], False
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("#"):
            if "raw-scores" in line:
                raw_scores = True
            continue
        cols = line.split("\t")
        if len(cols) == 3 and not require_rating:
            cols.append("")
        if len(cols) != 4:
            problems.append(f"line {lineno}: expected 4 tab-separated columns, got {len(cols)}")
            continue
        source_id, reference, candidate, rating_text = cols
        rating = None
        if rating_text != "":
            try:
                rating = float(rating_text)
            except ValueError:
                problems.append(f"line {lineno}: non-numeric rating {rating_text!r}")
                continue
            if not math.isfinite(rating):
                problems.append(f"line {lineno}: non-finite rating {rating_text!r}")
                continue
        elif require_rating:
            problems.append(f"line {lineno}: missing rating")
            continue
        if not source_id:
            problems.append(f"line {lineno}: empty source_id")
            continue
        records.append(RatingRecord(source_id, (reference,), candidate, rating))
    return records, problems, raw_scores


def _parse_jsonl_records(lines: Iterable[str], require_rating: bool):
    records, problems, raw_scores = [], [], False
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"line {lineno}: invalid JSON ({exc.msg})")
            continue
        if obj.get("record") == "header":
            raw_scores = bool(obj.get("raw_scores", False))
            continue
        refs = obj.get("references")
        if refs is None and "reference" in obj:
            refs = [obj["reference"]]
        source_id = obj.get("source_id", "")
        candidate = obj.get("candidate")
        rating = obj.get("rating")
        if not source_id or candidate is None or not refs:
            problems.append(f"line {lineno}: missing source_id/references/candidate")
            continue
        if rating is None and require_rating:
            problems.append(f"line {lineno}: missing rating")
            continue
        if rating is not None:
            if not isinstance(rating, (int, float)) or not math.isfinite(float(rating)):
                problems.append(f"line {lineno}: non-numeric rating {rating!r}")
                continue
            rating = float(rating)
        records.append(RatingRecord(source_id, tuple(refs), candidate, rating))
    return records, problems, raw_scores


def read_rating_records(
    path: str | Path, fmt: str, require_rating: bool = True
) -> tuple[list[RatingRecord], list[str], bool]:
    """Parse a ratings file into records; returns (records, problems, raw_scores_flag)."""
    lines = read_text(path, "ratings file").splitlines()
    if fmt == "wmt-tsv":
        return _parse_tsv_records(lines, require_rating)
    if fmt == "jsonl":
        return _parse_jsonl_records(lines, require_rating)
    raise DataError(f"unknown ratings format {fmt!r}")


def ingest_ratings(path: str | Path, fmt: str, vocab: Vocabulary) -> IngestResult:
    """Load rated pairs, expanding multi-reference records one example per reference.

    Records with missing or non-numeric ratings are skipped and counted.  If
    the file header declares raw scores, ratings are standardized to mean 0 /
    std 1 over the file; otherwise they are taken as-is.
    """
    records, problems, raw_scores = read_rating_records(path, fmt, require_rating=True)
    ratings = [r.rating for r in records]
    if raw_scores and len(ratings) >= 2:
        arr = np.asarray(ratings, dtype=np.float64)
        std = float(arr.std())
        if std == 0.0:
            raise DataError("raw-scores file has constant ratings; cannot standardize")
        ratings = list((arr - arr.mean()) / std)
    examples = []
    for record, rating in zip(records, ratings):
        for ref in record.references:
            examples.append(
                RatedExample(
                    pair=SentencePair(tokenize(ref, vocab), tokenize(record.candidate, vocab)),
                    rating=float(rating),
                    source_id=record.source_id,
                )
            )
    return IngestResult(examples=examples, skipped=len(problems), problems=problems)


def serialize_ratings(examples: Sequence[RatedExample], path: str | Path, fmt: str = "wmt-tsv") -> None:
    """Write examples one per line; inverse of ingest_ratings for in-memory data."""
    path = Path(path)
    if fmt == "wmt-tsv":
        lines = [
            "\t".join(
                [ex.source_id, ex.pair.reference.detokenize(), ex.pair.candidate.detokenize(), repr(ex.rating)]
            )
            for ex in examples
        ]
    elif fmt == "jsonl":
        lines = [
            json.dumps(
                {
                    "source_id": ex.source_id,
                    "references": [ex.pair.reference.detokenize()],
                    "candidate": ex.pair.candidate.detokenize(),
                    "rating": ex.rating,
                },
                sort_keys=True,
            )
            for ex in examples
        ]
    else:
        raise DataError(f"unknown ratings format {fmt!r}")
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def split_no_leak(
    data: Sequence[RatedExample], holdout_fraction: float, seed: int
) -> tuple[list[RatedExample], list[RatedExample]]:
    """Partition into (train, validation) so no source_id appears on both sides."""
    if not data:
        raise DataError("cannot split an empty dataset")
    if not 0.0 < holdout_fraction < 1.0:
        raise DataError("holdout_fraction must be in (0, 1)")
    by_source: dict[str, int] = {}
    for ex in data:
        by_source[ex.source_id] = by_source.get(ex.source_id, 0) + 1
    sources = list(by_source)
    if len(sources) < 2:
        raise DataError("need at least 2 distinct source_ids to split without leaks")

    rng = np.random.default_rng(seed)
    order = [sources[i] for i in rng.permutation(len(sources))]
    target = holdout_fraction * len(data)
    val_sources, val_count = set(), 0
    for source in order:
        if val_count >= target:
            break
        if len(val_sources) == len(order) - 1:
            break  # leave at least one source for the training side
        val_sources.add(source)
        val_count += by_source[source]
    train = [ex for ex in data if ex.source_id not in val_sources]
    validation = [ex for ex in data if ex.source_id in val_sources]
    return train, validation
