"""Synthetic sentence-pair generation by perturbing corpus segments.

Three perturbation families: mask-filling under a small n-gram language model
(scattered or contiguous masks, beam-search fill), a round-trip translation
plug point (with an offline stub), and word dropping.  Generation is a pure
function of (segments, config, seed) so corpora are byte-reproducible.
"""

from __future__ import annotations

import json
import math
import os
import selectors
import subprocess
import tempfile
import time
from collections import Counter, OrderedDict, defaultdict, deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

from .errors import DataError, SchemaVersionError, ScorerProtocolError
from .text import RESERVED_TOKENS, TokenSeq, Vocabulary, json_object, read_lines

MAX_MASKS = 15

# Floats (8 bytes each) that one BigramLM keeps in its cache of log-prob rows:
# 16 MB, 2,097 rows of a 1,000-candidate model or 262 of an 8,000-candidate one.
ROW_CACHE_FLOATS = 1 << 21

MASK_SCATTER = "mask_fill_scatter"
MASK_CONTIGUOUS = "mask_fill_contiguous"
BACKTRANSLATION = "backtranslation"
WORD_DROP = "word_drop"
_BASE_KINDS = (MASK_SCATTER, MASK_CONTIGUOUS, BACKTRANSLATION)


@dataclass(frozen=True)
class Origin:
    """How a perturbation was produced.  word_drop wraps one of the base kinds."""

    kind: str
    parent: str | None = None

    def __post_init__(self):
        if self.kind == WORD_DROP:
            if self.parent not in _BASE_KINDS:
                raise DataError(f"word_drop origin must wrap one of {_BASE_KINDS}")
        elif self.kind in _BASE_KINDS:
            if self.parent is not None:
                raise DataError(f"{self.kind} origin cannot have a parent")
        else:
            raise DataError(f"unknown origin kind {self.kind!r}")

    def base_kind(self) -> str:
        return self.parent if self.kind == WORD_DROP else self.kind


@dataclass(frozen=True)
class SyntheticExample:
    z: TokenSeq
    z_tilde: TokenSeq
    origin: Origin
    seed: int

    def __post_init__(self):
        if len(self.z) == 0:
            raise DataError("synthetic example requires a non-empty source segment")


@dataclass(frozen=True)
class MaskPlan:
    positions: tuple[int, ...]
    strategy: str

    def __post_init__(self):
        if list(self.positions) != sorted(set(self.positions)):
            raise DataError("mask positions must be sorted and unique")
        if len(self.positions) > MAX_MASKS:
            raise DataError(f"at most {MAX_MASKS} masks per sentence")
        if self.strategy == "contiguous" and self.positions:
            span = self.positions[-1] - self.positions[0] + 1
            if span != len(self.positions):
                raise DataError("contiguous plan must be one unbroken run")
        elif self.strategy not in ("scatter", "contiguous"):
            raise DataError(f"unknown mask strategy {self.strategy!r}")


def plan_masks(z: TokenSeq, strategy: str, seed: int) -> MaskPlan:
    """Choose mask positions: scattered uniform draws or one contiguous span.

    Scatter draws the mask count uniformly from [1, min(15, |z|)]; contiguous
    draws a start uniformly and a length uniform over what fits in-bounds.
    """
    if len(z) == 0:
        raise DataError("cannot plan masks for an empty segment")
    rng = np.random.default_rng(seed)
    n = len(z)
    if strategy == "scatter":
        count = int(rng.integers(1, min(MAX_MASKS, n) + 1))
        positions = tuple(sorted(int(p) for p in rng.choice(n, size=count, replace=False)))
    elif strategy == "contiguous":
        start = int(rng.integers(0, n))
        length = int(rng.integers(1, min(MAX_MASKS, n - start) + 1))
        positions = tuple(range(start, start + length))
    else:
        raise DataError(f"unknown mask strategy {strategy!r}")
    return MaskPlan(positions, strategy)


_NO_COUNTS: Counter = Counter()


class BigramLM:
    """Interpolated bigram language model with add-k smoothing.

    log P(t | prev) mixes a bigram estimate with the unigram one; a None
    ``prev`` uses sentence-start counts.  With interpolation 0 this degrades
    to a pure unigram model.
    """

    def __init__(self, vocab: Vocabulary, add_k: float = 0.1, interpolation: float = 0.7):
        if not 0.0 <= interpolation <= 1.0:
            raise DataError("interpolation must lie in [0, 1]")
        if add_k <= 0:
            raise DataError("add_k must be positive")
        self.vocab = vocab
        self.add_k = add_k
        self.interpolation = interpolation
        self._unigram: Counter = Counter()
        self._bigram: dict[str | None, Counter] = defaultdict(Counter)
        self._context_totals: Counter = Counter()
        self._total = 0
        self._candidates: tuple[tuple[str, int], ...] = ()
        self._rows: OrderedDict[str | None, np.ndarray] = OrderedDict()

    @classmethod
    def train(
        cls,
        segments: Iterable[Sequence[str]],
        vocab: Vocabulary,
        add_k: float = 0.1,
        interpolation: float = 0.7,
    ) -> "BigramLM":
        lm = cls(vocab, add_k=add_k, interpolation=interpolation)
        for seg in segments:
            toks = list(seg.tokens if isinstance(seg, TokenSeq) else seg)
            prev: str | None = None
            for tok in toks:
                lm._unigram[tok] += 1
                lm._bigram[prev][tok] += 1
                lm._context_totals[prev] += 1
                lm._total += 1
                prev = tok
        candidates = sorted(
            (tok for tok in lm._unigram if tok not in RESERVED_TOKENS),
            key=vocab.id,
        )
        lm._candidates = tuple((tok, vocab.id(tok)) for tok in candidates)
        return lm

    @classmethod
    def train_unigram(cls, segments, vocab, add_k: float = 0.1) -> "BigramLM":
        return cls.train(segments, vocab, add_k=add_k, interpolation=0.0)

    def candidates(self) -> tuple[tuple[str, int], ...]:
        return self._candidates

    def _n_types(self) -> int:
        return max(1, len(self._candidates))

    def log_prob(self, token: str, prev: str | None) -> float:
        k, v = self.add_k, self._n_types()
        p_uni = (self._unigram[token] + k) / (self._total + k * v)
        ctx_total = self._context_totals[prev]
        p_bi = (self._bigram.get(prev, _NO_COUNTS)[token] + k) / (ctx_total + k * v)
        lam = self.interpolation
        return math.log(lam * p_bi + (1.0 - lam) * p_uni)

    def log_prob_row(self, prev: str | None) -> np.ndarray:
        """``log_prob(tok, prev)`` for every candidate, in ``candidates()`` order.

        Rows are built with ``log_prob`` itself (``math.log``, not ``np.log``,
        whose last bits differ) and kept in an LRU cache of at most
        ROW_CACHE_FLOATS floats; the newest row is always kept.
        """
        row = self._rows.get(prev)
        if row is not None:
            self._rows.move_to_end(prev)
            return row
        row = np.array([self.log_prob(tok, prev) for tok, _ in self._candidates], dtype=np.float64)
        row.flags.writeable = False
        self._rows[prev] = row
        while len(self._rows) > 1 and len(self._rows) * row.size > ROW_CACHE_FLOATS:
            self._rows.popitem(last=False)
        return row


def fill_masks(z: TokenSeq, plan: MaskPlan, lm, beam_width: int = 8) -> TokenSeq:
    """Fill masked positions left-to-right with beam search under ``lm``.

    Beam states are scored by the sum of log-probabilities of the tokens
    filled so far; ties are broken toward the smaller tuple of fill ids, and
    then toward the earlier expansion (beam entry, then candidate), as a
    stable sort on ``(-score, fill_ids)`` would.  Output length equals input
    length and unmasked tokens are untouched.
    """
    if beam_width < 1:
        raise DataError("beam_width must be >= 1")
    candidates = lm.candidates()
    if not candidates:
        raise DataError("language model has an empty vocabulary")
    if not plan.positions:
        return z

    masked = set(plan.positions)
    cand_ids = np.array([tid for _, tid in candidates], dtype=np.int64)
    # beam entry: (score, fill tokens so far, fill ids so far)
    beam: list[tuple[float, tuple[str, ...], tuple[int, ...]]] = [(0.0, (), ())]
    for pos in plan.positions:
        rows = []
        for score, fills, _ in beam:
            if pos == 0:
                prev = None
            elif pos - 1 in masked:
                prev = fills[-1]
            else:
                prev = z.tokens[pos - 1]
            rows.append(score + lm.log_prob_row(prev))
        scores = np.concatenate(rows)
        # all prefixes have one length, so (prefix rank, id) orders fill_ids
        prefix_rank = {ids: r for r, ids in enumerate(sorted({e[2] for e in beam}))}
        ranks = np.repeat([prefix_rank[e[2]] for e in beam], len(candidates))
        order = np.lexsort((np.tile(cand_ids, len(beam)), ranks, -scores))[:beam_width]
        survivors = []
        for i in order.tolist():
            entry, c = divmod(i, len(candidates))
            _, fills, fill_ids = beam[entry]
            tok, tid = candidates[c]
            survivors.append((float(scores[i]), fills + (tok,), fill_ids + (tid,)))
        beam = survivors

    _, best_fills, best_ids = beam[0]
    tokens = list(z.tokens)
    ids = list(z.ids)
    for pos, tok, tid in zip(plan.positions, best_fills, best_ids):
        tokens[pos] = tok
        ids[pos] = tid
    return TokenSeq(tuple(tokens), tuple(ids))


DEFAULT_SYNONYMS: Mapping[str, str] = {
    "big": "large",
    "large": "big",
    "small": "little",
    "little": "small",
    "fast": "quick",
    "quick": "fast",
    "slow": "sluggish",
    "happy": "glad",
    "sad": "unhappy",
    "old": "ancient",
    "new": "fresh",
    "car": "automobile",
    "road": "street",
    "house": "home",
    "begins": "starts",
    "starts": "begins",
    "ends": "finishes",
    "said": "stated",
    "near": "close",
    "builds": "constructs",
}


class IdentityTranslator:
    """Round-trip stub that returns its input unchanged."""

    label = "identity-stub"

    def round_trip(self, tokens: Sequence[str], rng=None) -> list[str]:
        return list(tokens)


class StubBacktranslator:
    """Offline round-trip stand-in: synonym substitution plus a local shuffle.

    This is a labeled stub, not a translation model; real translators attach
    through the external line protocol.  Deterministic given the passed rng.
    """

    label = "stub"

    def __init__(
        self,
        synonyms: Mapping[str, str] | None = None,
        substitute_prob: float = 0.35,
        shuffle_prob: float = 0.25,
    ):
        self.synonyms = dict(DEFAULT_SYNONYMS if synonyms is None else synonyms)
        self.substitute_prob = substitute_prob
        self.shuffle_prob = shuffle_prob

    def round_trip(self, tokens: Sequence[str], rng=None) -> list[str]:
        rng = np.random.default_rng(0) if rng is None else rng
        out = []
        for tok in tokens:
            if tok in self.synonyms and rng.random() < self.substitute_prob:
                out.append(self.synonyms[tok])
            else:
                out.append(tok)
        if len(out) >= 2 and rng.random() < self.shuffle_prob:
            i = int(rng.integers(0, len(out) - 1))
            out[i], out[i + 1] = out[i + 1], out[i]
        return out


# Seconds a child may take to answer one request before it is killed.
READ_DEADLINE_S = 120.0
# Lines of a child's stderr that a protocol error adds to its transcript.
STDERR_TAIL_LINES = 5


class LineClient:
    """Owns one child process speaking a line protocol; one request in flight.

    A request is its fields, with tabs and newlines turned into spaces, joined
    by tabs on one line; the answer is one line.  The child is started on the
    first request and again after it dies.  A pipe failure, an early EOF or no
    answer within READ_DEADLINE_S raises ScorerProtocolError with the
    transcript of the last lines exchanged.  The child's stderr goes to an
    unnamed temporary file (a pipe nobody drains could fill and stall it), and
    its last STDERR_TAIL_LINES lines join the transcript of such an error.
    """

    def __init__(self, command: Sequence[str]):
        self.command = list(command)
        self.transcript: deque[str] = deque(maxlen=20)
        self._proc: subprocess.Popen | None = None
        self._stderr = None
        self._pending = b""

    def _ensure(self) -> subprocess.Popen:
        if self._proc is None or self._proc.poll() is not None:
            self.close()
            self._stderr = tempfile.TemporaryFile()
            self._proc = subprocess.Popen(
                self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._stderr
            )
            self._pending = b""
        return self._proc

    def error(self, message: str) -> ScorerProtocolError:
        """A ScorerProtocolError whose transcript ends with the child's last stderr lines."""
        if self._stderr is not None:
            # pread leaves the file offset, which the child shares, where it is
            fd = self._stderr.fileno()
            size = os.fstat(fd).st_size
            tail = os.pread(fd, 4096, max(0, size - 4096)).decode("utf-8", "replace")
            for line in tail.splitlines()[-STDERR_TAIL_LINES:]:
                self.transcript.append(f"! {line}")
        return ScorerProtocolError(message, self.transcript)

    def request(self, *fields: str) -> str:
        line = "\t".join(f.replace("\t", " ").replace("\n", " ") for f in fields)
        proc = self._ensure()
        self.transcript.append(f"> {line}")
        try:
            proc.stdin.write((line + "\n").encode("utf-8"))
            proc.stdin.flush()
            response = self._read_line(proc).decode("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise self.error(f"child pipe failed: {exc}") from exc
        if response == "":
            raise self.error("child closed its output stream")
        self.transcript.append(f"< {response.rstrip()}")
        return response

    def _read_line(self, proc: subprocess.Popen) -> bytes:
        """Read up to a newline or EOF from the binary pipe, within the deadline."""
        fd = proc.stdout.fileno()
        deadline = time.monotonic() + READ_DEADLINE_S
        with selectors.DefaultSelector() as selector:
            selector.register(fd, selectors.EVENT_READ)
            while b"\n" not in self._pending:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    proc.kill()
                    proc.wait()
                    raise self.error(f"child gave no answer within {READ_DEADLINE_S:g} s; killed it")
                chunk = os.read(fd, 65536)
                if not chunk:
                    break
                self._pending += chunk
        line, sep, self._pending = self._pending.partition(b"\n")
        return line + sep

    def close(self) -> None:
        """Close the child's input and wait for it to exit (killing it after 5 s)."""
        proc, self._proc = self._proc, None
        if self._stderr is not None:
            self._stderr.close()
            self._stderr = None
        if proc is None:
            return
        try:
            proc.stdin.close()
        except OSError:
            pass
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


@dataclass
class ExternalRoundTripTranslator:
    """Round-trip translation over a LineClient: one sentence line in, one out."""

    client: LineClient
    label = "external"

    def round_trip(self, tokens: Sequence[str], rng=None) -> list[str]:
        return self.client.request(" ".join(tokens)).split()


def backtranslate(z: TokenSeq, translator, vocab: Vocabulary, rng=None) -> TokenSeq:
    """Run one round trip and return the output verbatim as a TokenSeq."""
    tokens = translator.round_trip(z.tokens, rng)
    return TokenSeq.from_tokens(tokens, vocab)


def drop_words(z_tilde: TokenSeq, seed: int) -> TokenSeq:
    """Remove k ~ Uniform{0..len} positions chosen without replacement.

    Survivor order is preserved; the result may be empty.
    """
    rng = np.random.default_rng(seed)
    n = len(z_tilde)
    k = int(rng.integers(0, n + 1))
    if k == 0 or n == 0:
        return z_tilde
    dropped = set(int(p) for p in rng.choice(n, size=k, replace=False))
    keep = [i for i in range(n) if i not in dropped]
    return TokenSeq(
        tuple(z_tilde.tokens[i] for i in keep), tuple(z_tilde.ids[i] for i in keep)
    )


@dataclass(frozen=True)
class GenerationConfig:
    """Per-segment multiplicities and the word-drop rate."""

    n_scatter: int = 2
    n_contiguous: int = 1
    n_backtranslation: int = 1
    word_drop_rate: float = 0.3
    beam_width: int = 8

    def __post_init__(self):
        if min(self.n_scatter, self.n_contiguous, self.n_backtranslation) < 0:
            raise DataError("variant multiplicities must be >= 0")
        if not 0.0 <= self.word_drop_rate <= 1.0:
            raise DataError("word_drop_rate must lie in [0, 1]")
        if self.beam_width < 1:
            raise DataError("beam_width must be >= 1")


def generate_corpus(
    segments: Sequence[TokenSeq],
    config: GenerationConfig,
    lm,
    translator,
    vocab: Vocabulary,
    seed: int,
) -> list[SyntheticExample]:
    """Perturb each segment per the config, then append word-dropped copies.

    Base variants are emitted in segment order (scatter, contiguous, then
    backtranslation); afterwards each emitted example independently gets a
    word-dropped twin with probability ``word_drop_rate``, appended at the
    end.  All per-example seeds derive from the master seed, so the output is
    byte-identical across runs.
    """
    if not segments:
        raise DataError("generate_corpus requires at least one segment")
    master = np.random.default_rng(seed)

    def next_seed() -> int:
        return int(master.integers(0, 2**62))

    out: list[SyntheticExample] = []
    for z in segments:
        if len(z) == 0:
            continue
        for _ in range(config.n_scatter):
            s = next_seed()
            plan = plan_masks(z, "scatter", s)
            out.append(SyntheticExample(z, fill_masks(z, plan, lm, config.beam_width), Origin(MASK_SCATTER), s))
        for _ in range(config.n_contiguous):
            s = next_seed()
            plan = plan_masks(z, "contiguous", s)
            out.append(SyntheticExample(z, fill_masks(z, plan, lm, config.beam_width), Origin(MASK_CONTIGUOUS), s))
        for _ in range(config.n_backtranslation):
            s = next_seed()
            z_t = backtranslate(z, translator, vocab, np.random.default_rng(s))
            out.append(SyntheticExample(z, z_t, Origin(BACKTRANSLATION), s))

    dropped: list[SyntheticExample] = []
    for ex in out:
        if master.random() < config.word_drop_rate:
            s = next_seed()
            dropped.append(
                SyntheticExample(ex.z, drop_words(ex.z_tilde, s), Origin(WORD_DROP, ex.origin.kind), s)
            )
    return out + dropped


# ---------------------------------------------------------------------------
# Artifact files: JSONL, one header record and then one record per line.
# ---------------------------------------------------------------------------

SYNTH_FORMAT = "synthetic-corpus"
SYNTH_VERSION = 1

T = TypeVar("T")


def example_record(ex: SyntheticExample) -> dict:
    return {
        "z": list(ex.z.tokens),
        "z_tilde": list(ex.z_tilde.tokens),
        "origin": {"kind": ex.origin.kind, "parent": ex.origin.parent},
        "seed": ex.seed,
    }


def example_from_record(obj: Mapping, vocab: Vocabulary) -> SyntheticExample:
    return SyntheticExample(
        z=TokenSeq.from_tokens(obj["z"], vocab),
        z_tilde=TokenSeq.from_tokens(obj["z_tilde"], vocab),
        origin=Origin(obj["origin"]["kind"], obj["origin"].get("parent")),
        seed=int(obj["seed"]),
    )


def write_records(
    path: str | Path, fmt: str, version: int, records: Iterable[Mapping], meta: Mapping[str, object]
) -> None:
    header = {"record": "header", "format": fmt, "version": version, **meta}
    lines = [json.dumps(obj, sort_keys=True) for obj in (header, *records)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_records(
    path: str | Path, fmt: str, version: int, parse: Callable[[dict], T]
) -> tuple[list[T], dict]:
    """Check the header's format/version, then ``parse`` each non-blank record line.

    A malformed line raises DataError naming ``path:line``.
    """
    header = None

    def record(line: str) -> T | None:
        nonlocal header
        obj = json_object(line)
        if header is not None:
            return parse(obj)
        if obj.get("format") != fmt or obj.get("version") != version:
            raise SchemaVersionError(f"{fmt}/{version}", f"{obj.get('format')}/{obj.get('version')}")
        header = obj
        return None

    records = read_lines(path, fmt, record)
    if header is None:
        raise DataError(f"empty {fmt} file {path}")
    return records, header


def write_synthetic(
    examples: Sequence[SyntheticExample], path: str | Path, meta: Mapping[str, object] | None = None
) -> None:
    write_records(path, SYNTH_FORMAT, SYNTH_VERSION, map(example_record, examples), meta or {})


def read_synthetic(path: str | Path, vocab: Vocabulary) -> tuple[list[SyntheticExample], dict]:
    return read_records(path, SYNTH_FORMAT, SYNTH_VERSION, lambda obj: example_from_record(obj, vocab))
