"""A small transformer encoder over packed sentence pairs, in plain numpy.

The forward pass produces a [cls] vector per example, per-task prediction
heads for pre-training, and a scalar rating head for fine-tuning; the
backward pass computes exact reverse-mode gradients for every tensor, which
is what makes finite-difference checking meaningful.  Everything runs in
float64.

Architecture: learned token/position/segment embeddings, post-norm residual
blocks (multi-head self-attention, then a GELU feed-forward), padding masked
out of attention.  Inference mode is deterministic; dropout only applies when
an rng is supplied in training mode.

Only the final [cls] vector reaches a head, so the last block computes only
what that row needs: its keys and values cover every position, but queries,
attention, output projection, layer norms and feed-forward run on rows 0-1.
Row 1 is kept because a one-row product goes through BLAS gemv, which rounds
differently from the gemm of the full-width pass; with two rows every output
and gradient equals the full-width computation bit for bit (the tests hold a
full-width oracle).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
from scipy.special import erf

from .errors import DataError, NumericError, SchemaVersionError
from .signals import REGRESSION, TaskSpec, default_task_specs
from .text import SentencePair, Vocabulary

LN_EPS = 1e-12
_MASK_BIAS = 1e30
# Rows the last block computes: [cls] and position 1 (see the module docstring).
_LAST_BLOCK_ROWS = 2

CHECKPOINT_MAGIC = b"PSCKPT1\n"


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 256
    max_seq_len: int = 128
    dropout: float = 0.0
    init_seed: int = 0

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise DataError("d_model must be divisible by n_heads")
        if self.max_seq_len < 3:
            raise DataError("max_seq_len must be >= 3 ([cls] plus two separators)")
        if not 0.0 <= self.dropout < 1.0:
            raise DataError("dropout must lie in [0, 1)")


@dataclass
class ModelParams:
    """All trainable tensors plus the structural metadata needed to use them."""

    config: EncoderConfig
    tasks: tuple[TaskSpec, ...]
    tensors: dict[str, np.ndarray]

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, self.tasks, {k: v.copy() for k, v in self.tensors.items()})

    def allclose(self, other: "ModelParams") -> bool:
        return set(self.tensors) == set(other.tensors) and all(
            np.array_equal(self.tensors[k], other.tensors[k]) for k in self.tensors
        )


def _tensor_layout(config: EncoderConfig, tasks: Sequence[TaskSpec]) -> dict[str, tuple[tuple, str]]:
    """Name -> (shape, initializer) of every tensor, in initialization order."""
    d, f = config.d_model, config.d_ff
    layout = {
        "tok_emb": ((config.vocab_size, d), "normal"),
        "pos_emb": ((config.max_seq_len, d), "normal"),
        "seg_emb": ((2, d), "normal"),
        "emb_ln_g": ((d,), "ones"),
        "emb_ln_b": ((d,), "zeros"),
    }
    for l in range(config.n_layers):
        p = f"layer{l}."
        for name in ("wq", "wk", "wv", "wo"):
            layout[p + name] = ((d, d), "normal")
        for name in ("bq", "bk", "bv", "bo"):
            layout[p + name] = ((d,), "zeros")
        layout[p + "attn_ln_g"] = ((d,), "ones")
        layout[p + "attn_ln_b"] = ((d,), "zeros")
        layout[p + "w1"] = ((d, f), "normal")
        layout[p + "b1"] = ((f,), "zeros")
        layout[p + "w2"] = ((f, d), "normal")
        layout[p + "b2"] = ((d,), "zeros")
        layout[p + "ffn_ln_g"] = ((d,), "ones")
        layout[p + "ffn_ln_b"] = ((d,), "zeros")
    for task in tasks:
        layout[f"head.{task.name}.w"] = ((d, task.dim), "normal")
        layout[f"head.{task.name}.b"] = ((task.dim,), "zeros")
    layout["rating.w"] = ((d,), "normal")
    layout["rating.b"] = ((1,), "zeros")
    return layout


def init_model(config: EncoderConfig, tasks: Sequence[TaskSpec] | None = None) -> ModelParams:
    """Random initialization: N(0, 0.02) weights, zero biases, unit layer norms."""
    tasks = tuple(tasks if tasks is not None else default_task_specs())
    rng = np.random.default_rng(config.init_seed)
    fill = {"normal": lambda shape: rng.normal(0.0, 0.02, size=shape), "ones": np.ones, "zeros": np.zeros}
    t = {name: fill[init](shape) for name, (shape, init) in _tensor_layout(config, tasks).items()}
    return ModelParams(config, tasks, t)


# ---------------------------------------------------------------------------
# Batches: packed id sequences [cls] x [sep] x~ [sep] with segment ids.
# ---------------------------------------------------------------------------


@dataclass
class Batch:
    ids: np.ndarray        # (B, T) int64
    segments: np.ndarray   # (B, T) int64, 0 for the reference side
    mask: np.ndarray       # (B, T) float64, 1 real / 0 padding
    ratings: np.ndarray | None = None          # (B,)
    signal_targets: dict[str, np.ndarray] = field(default_factory=dict)  # name -> (B, dim)

    @property
    def size(self) -> int:
        return self.ids.shape[0]


def pack_pair(pair: SentencePair, vocab: Vocabulary) -> tuple[list[int], list[int]]:
    ids = [vocab.cls_id, *pair.reference.ids, vocab.sep_id, *pair.candidate.ids, vocab.sep_id]
    segs = [0] * (len(pair.reference.ids) + 2) + [1] * (len(pair.candidate.ids) + 1)
    return ids, segs


def build_batch(
    pairs: Sequence[SentencePair],
    vocab: Vocabulary,
    ratings: Sequence[float] | None = None,
    signal_targets: Mapping[str, np.ndarray] | None = None,
) -> Batch:
    if not pairs:
        raise DataError("cannot build an empty batch")
    packed = [pack_pair(p, vocab) for p in pairs]
    width = max(len(ids) for ids, _ in packed)
    b = len(packed)
    ids = np.full((b, width), vocab.pad_id, dtype=np.int64)
    segs = np.zeros((b, width), dtype=np.int64)
    mask = np.zeros((b, width), dtype=np.float64)
    for i, (row_ids, row_segs) in enumerate(packed):
        ids[i, : len(row_ids)] = row_ids
        segs[i, : len(row_segs)] = row_segs
        mask[i, : len(row_ids)] = 1.0
    return Batch(
        ids=ids,
        segments=segs,
        mask=mask,
        ratings=None if ratings is None else np.asarray(ratings, dtype=np.float64),
        signal_targets={k: np.asarray(v, dtype=np.float64) for k, v in (signal_targets or {}).items()},
    )


# ---------------------------------------------------------------------------
# Primitive forward/backward pieces.
# ---------------------------------------------------------------------------


def _layer_norm(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mu) * inv
    return g * xhat + b, (xhat, inv)


def _layer_norm_backward(dout, g, cache):
    xhat, inv = cache
    dg = (dout * xhat).sum(axis=(0, 1))
    db = dout.sum(axis=(0, 1))
    dxhat = dout * g
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv * (dxhat - m1 - xhat * m2)
    return dx, dg, db


def _gelu(x):
    """GELU and its CDF, which the backward pass reuses."""
    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    return x * cdf, cdf


def _gelu_backward(dout, x, cdf):
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return dout * (cdf + x * pdf)


def _linear(x, w, b):
    return x @ w + b


def _pad_rows(x, width):
    """``x`` with zero rows appended along axis 1 up to ``width``."""
    if x.shape[1] == width:
        return x
    out = np.zeros((x.shape[0], width, x.shape[2]))
    out[:, : x.shape[1]] = x
    return out


def _linear_backward(dout, x, w, width):
    """Gradients of ``x @ w + b`` where ``dout`` covers the first rows of ``x``.

    The products run on ``dout`` zero-padded to ``width`` rows, the shapes of
    the full-width pass: BLAS picks its kernel, and with it the rounding, by
    the matrix sizes, and splits the inner dimension of ``x.T @ dout`` into
    blocks by its length.
    """
    rows = dout.shape[1]
    dout = _pad_rows(dout, width)
    dx = (dout @ w.T)[:, :rows]
    dout_flat = dout.reshape(-1, dout.shape[-1])
    x_flat = _pad_rows(x, width).reshape(-1, x.shape[-1])
    dw = x_flat.T @ dout_flat
    db = dout_flat.sum(axis=0)
    return dx, dw, db


def _softmax_last(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _attention_softmax(scores, key_mask):
    """Softmax over keys; masked keys get exactly 0 without calling exp.

    Their -1e30 bias would underflow exp to 0 anyway, but numpy's exp takes a
    slow path on underflow.
    """
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted, out=np.zeros_like(shifted), where=key_mask)
    return e / e.sum(axis=-1, keepdims=True)


def _dropout_mask(rng, shape, rate):
    return (rng.random(shape) >= rate).astype(np.float64) / (1.0 - rate)


# ---------------------------------------------------------------------------
# Forward pass.
# ---------------------------------------------------------------------------


@dataclass
class ForwardResult:
    cls: np.ndarray                       # (B, d)
    task_outputs: dict[str, np.ndarray]   # name -> (B, dim); logits for classification
    ratings: np.ndarray                   # (B,)
    cache: dict | None = None


def rating_head(params: ModelParams, cls: np.ndarray) -> np.ndarray:
    """The rating of each [cls] row of ``cls`` (B, d).

    BLAS picks its kernel for this product by the number of rows, so a row's
    bits can depend on which other rows share the call.
    """
    return cls @ params.tensors["rating.w"] + params.tensors["rating.b"][0]


def _check_finite(x, where):
    if not np.all(np.isfinite(x)):
        raise NumericError(f"non-finite values in {where}")


def forward(
    params: ModelParams,
    batch: Batch,
    train: bool = False,
    rng: np.random.Generator | None = None,
    want_cache: bool = False,
) -> ForwardResult:
    """Run the encoder and all heads.  Raises on sequences exceeding max_seq_len."""
    cfg = params.config
    t = params.tensors
    b, width = batch.ids.shape
    if width > cfg.max_seq_len:
        raise DataError(
            f"sequence length {width} exceeds max_seq_len {cfg.max_seq_len} (no silent truncation)"
        )
    if int(batch.ids.max()) >= cfg.vocab_size:
        raise DataError("token id out of range for this model's vocabulary")
    use_dropout = train and cfg.dropout > 0.0
    if use_dropout and rng is None:
        raise DataError("training-mode dropout requires an rng")
    cache: dict = {"layers": [], "dropout": {}}

    def dropout(name, x, full_shape):
        # The mask is drawn at its full-width shape and cut to x's, so the
        # rng stream does not depend on how many rows a block computes.
        if not use_dropout:
            return x
        m = _dropout_mask(rng, full_shape, cfg.dropout)[tuple(slice(n) for n in x.shape)]
        cache["dropout"][name] = m
        return x * m

    x = t["tok_emb"][batch.ids] + t["pos_emb"][:width][None, :, :] + t["seg_emb"][batch.segments]
    x, emb_ln_cache = _layer_norm(x, t["emb_ln_g"], t["emb_ln_b"])
    x = dropout("emb", x, x.shape)
    cache["emb_ln"] = emb_ln_cache
    _check_finite(x, "embedding block")

    h = cfg.n_heads
    dh = cfg.d_model // h
    scale = 1.0 / math.sqrt(dh)
    key_bias = (batch.mask - 1.0)[:, None, None, :] * _MASK_BIAS  # 0 real, -inf-ish pad
    key_mask = batch.mask[:, None, None, :] > 0.0

    for l in range(cfg.n_layers):
        p = f"layer{l}."
        # Only the [cls] row of the last block reaches an output, so its
        # queries and everything after them run on `rows` rows only.
        rows = min(_LAST_BLOCK_ROWS, width) if l == cfg.n_layers - 1 else width
        lc: dict = {"x_in": x}
        x_rows = x[:, :rows]
        q = _linear(x_rows, t[p + "wq"], t[p + "bq"])
        k = _linear(x, t[p + "wk"], t[p + "bk"])
        v = _linear(x, t[p + "wv"], t[p + "bv"])
        q4 = q.reshape(b, rows, h, dh).transpose(0, 2, 1, 3)
        k4 = k.reshape(b, width, h, dh).transpose(0, 2, 1, 3)
        v4 = v.reshape(b, width, h, dh).transpose(0, 2, 1, 3)
        scores = q4 @ k4.swapaxes(-1, -2) * scale + key_bias
        attn = _attention_softmax(scores, key_mask)
        attn_used = dropout(f"attn{l}", attn, (b, h, width, width))
        ctx4 = attn_used @ v4
        ctx = ctx4.transpose(0, 2, 1, 3).reshape(b, rows, cfg.d_model)
        attn_out = _linear(ctx, t[p + "wo"], t[p + "bo"])
        attn_out = dropout(f"attn_out{l}", attn_out, (b, width, cfg.d_model))
        x1, ln1_cache = _layer_norm(x_rows + attn_out, t[p + "attn_ln_g"], t[p + "attn_ln_b"])
        _check_finite(x1, f"layer {l} attention output")

        ffn_pre = _linear(x1, t[p + "w1"], t[p + "b1"])
        ffn_act, ffn_cdf = _gelu(ffn_pre)
        ffn_out = _linear(ffn_act, t[p + "w2"], t[p + "b2"])
        ffn_out = dropout(f"ffn_out{l}", ffn_out, (b, width, cfg.d_model))
        x2, ln2_cache = _layer_norm(x1 + ffn_out, t[p + "ffn_ln_g"], t[p + "ffn_ln_b"])
        _check_finite(x2, f"layer {l} feed-forward output")

        lc.update(
            q4=q4, k4=k4, v4=v4, attn=attn, attn_used=attn_used, ctx=ctx, ln1=ln1_cache,
            x1=x1, ffn_pre=ffn_pre, ffn_act=ffn_act, ffn_cdf=ffn_cdf, ln2=ln2_cache,
        )
        cache["layers"].append(lc)
        x = x2

    cls = x[:, 0, :]
    task_outputs = {
        task.name: cls @ t[f"head.{task.name}.w"] + t[f"head.{task.name}.b"]
        for task in params.tasks
    }
    cache["cls"] = cls
    return ForwardResult(
        cls=cls,
        task_outputs=task_outputs,
        ratings=rating_head(params, cls),
        cache=cache if want_cache else None,
    )


# ---------------------------------------------------------------------------
# Losses.
# ---------------------------------------------------------------------------


def supervised_loss(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Mean squared error over the batch."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape or predictions.size == 0:
        raise DataError("predictions and targets must be equal-length and non-empty")
    diff = predictions - targets
    return float((diff * diff).mean())


def pretrain_loss(
    task_outputs: Mapping[str, np.ndarray],
    targets: Mapping[str, np.ndarray],
    tasks: Sequence[TaskSpec],
) -> float:
    """Weighted multitask loss, averaged over examples.

    Regression tasks contribute the squared error divided by their dimension;
    classification tasks contribute cross-entropy between the target
    distribution and the softmaxed logits.  Each is scaled by the task weight.
    """
    total = None
    m = None
    for task in tasks:
        pred = np.asarray(task_outputs[task.name], dtype=np.float64)
        tgt = np.asarray(targets[task.name], dtype=np.float64)
        if pred.shape != tgt.shape or pred.ndim != 2 or pred.shape[1] != task.dim:
            raise DataError(
                f"task {task.name!r}: prediction shape {pred.shape} does not match "
                f"target shape {tgt.shape} with dim {task.dim}"
            )
        if m is None:
            m = pred.shape[0]
            total = np.zeros(m)
        if task.weight == 0.0:
            continue
        if task.kind == REGRESSION:
            per_example = ((pred - tgt) ** 2).sum(axis=1) / task.dim
        else:
            logp = pred - pred.max(axis=1, keepdims=True)
            logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
            per_example = -(tgt * logp).sum(axis=1)
        total = total + task.weight * per_example
    if m is None:
        raise DataError("pretrain_loss requires at least one task")
    return float(total.mean())


# ---------------------------------------------------------------------------
# Gradients.
# ---------------------------------------------------------------------------


def gradients(
    params: ModelParams,
    batch: Batch,
    loss_spec,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and exact gradients for every tensor.

    ``loss_spec`` is either the string "supervised" (mean squared error on
    batch.ratings through the rating head) or a sequence of TaskSpec driving
    the weighted multitask loss on batch.signal_targets.
    """
    t = params.tensors
    result = forward(params, batch, train=train, rng=rng, want_cache=True)
    cache = result.cache
    cls = result.cls
    b = batch.size
    grads = {name: np.zeros_like(arr) for name, arr in t.items()}

    if isinstance(loss_spec, str):
        if loss_spec != "supervised":
            raise DataError(f"unknown loss selector {loss_spec!r}")
        if batch.ratings is None:
            raise DataError("supervised loss requires batch.ratings")
        loss = supervised_loss(result.ratings, batch.ratings)
        dpred = 2.0 * (result.ratings - batch.ratings) / b
        grads["rating.w"] += cls.T @ dpred
        grads["rating.b"][0] += dpred.sum()
        dcls = dpred[:, None] * t["rating.w"][None, :]
    else:
        tasks = tuple(loss_spec)
        loss = pretrain_loss(result.task_outputs, batch.signal_targets, tasks)
        dcls = np.zeros_like(cls)
        for task in tasks:
            if task.weight == 0.0:
                continue
            pred = result.task_outputs[task.name]
            tgt = batch.signal_targets[task.name]
            if task.kind == REGRESSION:
                dpred = task.weight * 2.0 * (pred - tgt) / (task.dim * b)
            else:
                probs = _softmax_last(pred)
                dpred = task.weight * (probs - tgt) / b
            w = t[f"head.{task.name}.w"]
            grads[f"head.{task.name}.w"] += cls.T @ dpred
            grads[f"head.{task.name}.b"] += dpred.sum(axis=0)
            dcls += dpred @ w.T

    if not math.isfinite(loss):
        raise NumericError("loss is non-finite")

    _backward_trunk(params, batch, cache, dcls, grads)
    return loss, grads


def _backward_trunk(params, batch, cache, dcls, grads):
    cfg = params.config
    t = params.tensors
    b, width = batch.ids.shape
    h = cfg.n_heads
    dh = cfg.d_model // h
    scale = 1.0 / math.sqrt(dh)
    drop = cache["dropout"]

    # The last block's output rows; only [cls] carries a gradient.
    dx = np.zeros_like(cache["layers"][-1]["x1"])
    dx[:, 0, :] = dcls

    for l in reversed(range(cfg.n_layers)):
        p = f"layer{l}."
        lc = cache["layers"][l]
        rows = dx.shape[1]

        # ffn layer norm
        dsum, dg, db = _layer_norm_backward(dx, t[p + "ffn_ln_g"], lc["ln2"])
        grads[p + "ffn_ln_g"] += dg
        grads[p + "ffn_ln_b"] += db
        dffn_out = dsum
        if f"ffn_out{l}" in drop:
            dffn_out = dffn_out * drop[f"ffn_out{l}"]
        dffn_act, dw2, db2 = _linear_backward(dffn_out, lc["ffn_act"], t[p + "w2"], width)
        grads[p + "w2"] += dw2
        grads[p + "b2"] += db2
        dffn_pre = _gelu_backward(dffn_act, lc["ffn_pre"], lc["ffn_cdf"])
        dx1_ffn, dw1, db1 = _linear_backward(dffn_pre, lc["x1"], t[p + "w1"], width)
        grads[p + "w1"] += dw1
        grads[p + "b1"] += db1
        dx1 = dsum + dx1_ffn

        # attention layer norm
        dsum, dg, db = _layer_norm_backward(dx1, t[p + "attn_ln_g"], lc["ln1"])
        grads[p + "attn_ln_g"] += dg
        grads[p + "attn_ln_b"] += db
        dattn_out = dsum
        if f"attn_out{l}" in drop:
            dattn_out = dattn_out * drop[f"attn_out{l}"]
        dctx, dwo, dbo = _linear_backward(dattn_out, lc["ctx"], t[p + "wo"], width)
        grads[p + "wo"] += dwo
        grads[p + "bo"] += dbo

        dctx4 = dctx.reshape(b, rows, h, dh).transpose(0, 2, 1, 3)
        attn_used = lc["attn_used"]
        dattn_used = dctx4 @ lc["v4"].swapaxes(-1, -2)
        dv4 = attn_used.swapaxes(-1, -2) @ dctx4
        if f"attn{l}" in drop:
            dattn = dattn_used * drop[f"attn{l}"]
        else:
            dattn = dattn_used
        attn = lc["attn"]
        dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
        dq4 = dscores @ lc["k4"] * scale
        dk4 = dscores.swapaxes(-1, -2) @ lc["q4"] * scale

        dq = dq4.transpose(0, 2, 1, 3).reshape(b, rows, cfg.d_model)
        dk = dk4.transpose(0, 2, 1, 3).reshape(b, width, cfg.d_model)
        dv = dv4.transpose(0, 2, 1, 3).reshape(b, width, cfg.d_model)
        x_in = lc["x_in"]
        dx_q, dwq, dbq = _linear_backward(dq, x_in, t[p + "wq"], width)
        dx_k, dwk, dbk = _linear_backward(dk, x_in, t[p + "wk"], width)
        dx_v, dwv, dbv = _linear_backward(dv, x_in, t[p + "wv"], width)
        grads[p + "wq"] += dwq
        grads[p + "bq"] += dbq
        grads[p + "wk"] += dwk
        grads[p + "bk"] += dbk
        grads[p + "wv"] += dwv
        grads[p + "bv"] += dbv

        dx = _pad_rows(dsum + dx_q, width) + dx_k + dx_v

    if "emb" in drop:
        dx = dx * drop["emb"]
    dx, dg, db = _layer_norm_backward(dx, t["emb_ln_g"], cache["emb_ln"])
    grads["emb_ln_g"] += dg
    grads["emb_ln_b"] += db
    grads["tok_emb"] += _scatter_rows(batch.ids, dx, cfg.vocab_size)
    grads["pos_emb"][:width] += dx.sum(axis=0)
    grads["seg_emb"] += _scatter_rows(batch.segments, dx, 2)


def _scatter_rows(ids, rows, n):
    """Sum of ``rows`` per id, as ``np.add.at`` into zeros adds them, in one bincount."""
    d = rows.shape[-1]
    slots = (ids.reshape(-1, 1) * d + np.arange(d)).ravel()
    return np.bincount(slots, weights=rows.ravel(), minlength=n * d).reshape(n, d)


# ---------------------------------------------------------------------------
# Checkpoints: deterministic binary format (JSON header + raw tensor bytes).
# ---------------------------------------------------------------------------


def save_checkpoint(params: ModelParams, path: str | Path, meta: Mapping | None = None) -> None:
    """Write a byte-reproducible checkpoint; round-trips bit-exactly."""
    names = sorted(params.tensors)
    tensors_meta = []
    offset = 0
    payload_parts = []
    for name in names:
        arr = np.ascontiguousarray(params.tensors[name], dtype="<f8")
        raw = arr.tobytes()
        tensors_meta.append(
            {"name": name, "dtype": "<f8", "shape": list(arr.shape), "offset": offset, "nbytes": len(raw)}
        )
        payload_parts.append(raw)
        offset += len(raw)
    header = {
        "format": "checkpoint",
        "version": 1,
        "config": asdict(params.config),
        "tasks": [
            {"name": x.name, "kind": x.kind, "dim": x.dim, "weight": x.weight} for x in params.tasks
        ],
        "tensors": tensors_meta,
        "meta": dict(meta or {}),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for part in payload_parts:
            fh.write(part)


def load_checkpoint(path: str | Path) -> tuple[ModelParams, dict]:
    """Read a checkpoint; a damaged or inconsistent file raises DataError naming it."""
    data = Path(path).read_bytes()
    magic = data[: len(CHECKPOINT_MAGIC)]
    if magic != CHECKPOINT_MAGIC:
        raise SchemaVersionError("checkpoint/1", f"{path}: unrecognized magic {magic!r}")
    start = len(CHECKPOINT_MAGIC) + 4
    if len(data) < start:
        raise DataError(f"checkpoint {path}: truncated header")
    (header_len,) = struct.unpack_from("<I", data, len(CHECKPOINT_MAGIC))
    payload_start = start + header_len
    if len(data) < payload_start:
        raise DataError(
            f"checkpoint {path}: truncated header ({len(data) - start} of {header_len} bytes)"
        )
    try:
        header = json.loads(data[start:payload_start].decode("utf-8"))
        if (header["format"], header["version"]) != ("checkpoint", 1):
            raise SchemaVersionError("checkpoint/1", f"{header['format']}/{header['version']}")
        config = EncoderConfig(**header["config"])
        tasks = tuple(TaskSpec(x["name"], x["kind"], x["dim"], x["weight"]) for x in header["tasks"])
        entries = [
            (tm["name"], tm["dtype"], tm["shape"], int(tm["offset"]), int(tm["nbytes"]))
            for tm in header["tensors"]
        ]
        meta = header.get("meta", {})
    except (ValueError, KeyError, TypeError, DataError) as exc:
        raise DataError(f"checkpoint {path}: malformed header: {exc}") from None

    layout = _tensor_layout(config, tasks)
    names = [name for name, *_ in entries]
    if sorted(names) != sorted(layout):
        missing = sorted(set(layout) - set(names))
        extra = sorted(set(names) - set(layout))
        raise DataError(
            f"checkpoint {path}: tensor set does not match its config and tasks "
            f"(missing {missing}, unexpected {extra})"
        )
    payload_len = len(data) - payload_start
    tensors = {}
    for name, dtype, shape, offset, nbytes in entries:
        want = layout[name][0]
        if dtype != "<f8" or shape != list(want) or nbytes != 8 * math.prod(want):
            raise DataError(
                f"checkpoint {path}: tensor {name!r} is {dtype} {shape} ({nbytes} bytes), "
                f"its config needs <f8 {list(want)}"
            )
        if offset < 0 or offset + nbytes > payload_len:
            raise DataError(
                f"checkpoint {path}: payload truncated ({payload_len} bytes, "
                f"tensor {name!r} ends at {offset + nbytes})"
            )
        arr = np.frombuffer(data, dtype="<f8", count=nbytes // 8, offset=payload_start + offset)
        if not np.all(np.isfinite(arr)):
            raise DataError(f"checkpoint {path}: tensor {name!r} has non-finite values")
        tensors[name] = arr.reshape(want).astype(np.float64)
    return ModelParams(config, tasks, tensors), meta
