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
from dataclasses import asdict, dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .errors import DataError, NumericError

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

T = TypeVar("T")


def read_text(path: str | Path, what: str) -> str:
    """The UTF-8 text of the ``what`` file at ``path``; DataError naming it if unreadable."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} {path} is not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc.strerror or exc}") from None


def read_lines(path: str | Path, what: str, parse: Callable[[str], T | None]) -> list[T]:
    """``parse`` each non-blank line of the ``what`` file at ``path``, in order.

    A None result (a comment or a header) is dropped.  A DataError (a wrong
    header's too), NumericError, KeyError, TypeError or ValueError from
    ``parse`` becomes a DataError naming ``path:line``: the fault is in the
    file.
    """
    out = []
    for lineno, line in enumerate(read_text(path, what).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = parse(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
        except KeyError as exc:
            raise DataError(f"{path}:{lineno}: record lacks key {exc}") from None
        except (DataError, NumericError, TypeError, ValueError) as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if record is not None:
            out.append(record)
    return out


def json_object(line: str) -> dict:
    """The JSON object on ``line``; DataError if the line holds another JSON value."""
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise DataError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


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
        return cls(toks, tuple(map(vocab._index.get, toks, repeat(vocab.unk_id))))

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


def record_pairs(records: Sequence[RatingRecord], vocab: Vocabulary) -> list[list[SentencePair]]:
    """Each record's (reference, candidate) pairs, one per reference.

    Each distinct string is tokenized once.
    """
    tokens: dict[str, TokenSeq] = {}

    def tokenized(s: str) -> TokenSeq:
        if s not in tokens:
            tokens[s] = tokenize(s, vocab)
        return tokens[s]

    out = []
    for record in records:
        candidate = tokenized(record.candidate)
        out.append([SentencePair(tokenized(ref), candidate) for ref in record.references])
    return out


def unk_summary(pairs: Iterable[SentencePair], vocab: Vocabulary) -> str:
    """One line saying how many tokens of ``pairs`` read as [unk] under ``vocab``."""
    unk_id, unk, total = vocab.unk_id, 0, 0
    for pair in pairs:
        for seq in (pair.reference, pair.candidate):
            unk += seq.ids.count(unk_id)
            total += len(seq)
    share = 100.0 * unk / total if total else 0.0
    return f"{UNK}: {unk} of {total} rating tokens ({share:.1f}%)"


# The one TSV line that marks a ratings file's ratings as raw scores; any
# other "#" line is a comment.
_RAW_SCORES_LINE = "# raw-scores"


def _tsv_record(line: str, require_rating: bool, header: dict) -> RatingRecord | None:
    if line.startswith("#"):
        if line == _RAW_SCORES_LINE:
            header["raw_scores"] = True
        return None
    cols = line.split("\t")
    if len(cols) == 3 and not require_rating:
        cols.append("")
    if len(cols) != 4:
        raise DataError(f"expected 4 tab-separated columns, got {len(cols)}")
    source_id, reference, candidate, rating_text = cols
    rating = None
    if rating_text != "":
        try:
            rating = float(rating_text)
        except ValueError:
            raise DataError(f"non-numeric rating {rating_text!r}") from None
        if not math.isfinite(rating):
            raise DataError(f"non-finite rating {rating_text!r}")
    elif require_rating:
        raise DataError("missing rating")
    if not source_id:
        raise DataError("empty source_id")
    return RatingRecord(source_id, (reference,), candidate, rating)


def _jsonl_record(line: str, require_rating: bool, header: dict) -> RatingRecord | None:
    obj = json_object(line)
    if obj.get("record") == "header":
        raw_scores = obj.get("raw_scores", False)
        if not isinstance(raw_scores, bool):
            raise DataError(f"header's raw_scores must be true or false, got {raw_scores!r}")
        header["raw_scores"] = raw_scores
        return None
    refs = obj.get("references")
    source_id = obj.get("source_id", "")
    candidate = obj.get("candidate")
    rating = obj.get("rating")
    if not source_id or candidate is None or not refs:
        raise DataError("missing source_id/references/candidate")
    if not isinstance(source_id, str) or not isinstance(candidate, str):
        raise DataError("source_id and candidate must be strings")
    if not isinstance(refs, list) or not all(isinstance(r, str) for r in refs):
        raise DataError("references must be a list of strings")
    if rating is None and require_rating:
        raise DataError("missing rating")
    if rating is not None:
        try:
            finite = not isinstance(rating, bool) and math.isfinite(rating)
        except (TypeError, OverflowError):
            finite = False
        if not finite:
            raise DataError(f"non-numeric rating {rating!r}")
        rating = float(rating)
    return RatingRecord(source_id, tuple(refs), candidate, rating)


_RECORD_PARSERS = {"wmt-tsv": _tsv_record, "jsonl": _jsonl_record}


def read_rating_records(
    path: str | Path, fmt: str, require_rating: bool = True
) -> tuple[list[RatingRecord], bool]:
    """Parse a ratings file into (records, raw_scores_flag).

    The first malformed record raises DataError naming ``path:line``.  With
    ``require_rating`` every record needs a rating and the file at least one
    record; without it (inputs to score) the rating is optional.
    """
    if fmt not in _RECORD_PARSERS:
        raise DataError(f"unknown ratings format {fmt!r}")
    parse, header = _RECORD_PARSERS[fmt], {"raw_scores": False}
    records = read_lines(path, "ratings file", lambda line: parse(line, require_rating, header))
    if require_rating and not records:
        raise DataError(f"ratings file {path} has no records")
    return records, header["raw_scores"]


def ingest_ratings(path: str | Path, fmt: str, vocab: Vocabulary) -> IngestResult:
    """Load rated pairs, expanding multi-reference records one example per reference.

    A malformed record or an empty file raises DataError naming it.  If the
    file header declares raw scores, ratings are standardized to mean 0 /
    std 1 over the file; otherwise they are taken as-is.
    """
    records, raw_scores = read_rating_records(path, fmt, require_rating=True)
    ratings = [r.rating for r in records]
    if raw_scores and len(ratings) >= 2:
        arr = np.asarray(ratings, dtype=np.float64)
        std = float(arr.std())
        if std == 0.0:
            raise DataError("raw-scores file has constant ratings; cannot standardize")
        ratings = list((arr - arr.mean()) / std)
    examples = [
        RatedExample(pair=pair, rating=float(rating), source_id=record.source_id)
        for record, rating, pairs in zip(records, ratings, record_pairs(records, vocab))
        for pair in pairs
    ]
    return IngestResult(examples=examples)


def write_rating_records(
    records: Sequence[RatingRecord], raw_scores: bool, path: str | Path, fmt: str
) -> None:
    """Write rated records one per line, as ``read_rating_records`` reads them.

    With ``raw_scores`` the file starts with the header that marks its
    ratings as raw scores.
    """
    if fmt == "wmt-tsv":
        header = _RAW_SCORES_LINE
        lines = ["\t".join([r.source_id, *r.references, r.candidate, repr(r.rating)]) for r in records]
    elif fmt == "jsonl":
        header = json.dumps({"record": "header", "raw_scores": True}, sort_keys=True)
        lines = [json.dumps(asdict(r), sort_keys=True) for r in records]
    else:
        raise DataError(f"unknown ratings format {fmt!r}")
    lines = [header, *lines] if raw_scores else lines
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def serialize_ratings(examples: Sequence[RatedExample], path: str | Path, fmt: str = "wmt-tsv") -> None:
    """Write examples one per line; inverse of ingest_ratings for in-memory data."""
    records = [
        RatingRecord(
            ex.source_id, (ex.pair.reference.detokenize(),), ex.pair.candidate.detokenize(), ex.rating
        )
        for ex in examples
    ]
    write_rating_records(records, False, path, fmt)


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
