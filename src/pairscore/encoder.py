"""A small transformer encoder over packed sentence pairs, in plain numpy.

The forward pass produces a [cls] vector per example, per-task prediction
heads for pre-training, and a scalar rating head for fine-tuning; the
backward pass computes exact reverse-mode gradients for every tensor, which
is what makes finite-difference checking meaningful.  Everything runs in
float64.

Architecture: learned token/position/segment embeddings, post-norm residual
blocks (multi-head self-attention, then a GELU feed-forward), padding masked
out of attention, and no dropout.  Every pass is deterministic.

Only the final [cls] vector reaches a head, so the last block computes only
what that row needs: its keys and values cover every position, but queries,
attention, output projection, layer norms and feed-forward run on rows 0-1.
Row 1 is kept because a one-row product goes through BLAS gemv, which rounds
differently from the gemm of the full-width pass; with two rows every output
and gradient equals the full-width computation bit for bit (the tests hold a
full-width oracle).

A padding row never reaches a real row, so the row-wise pieces (layer norm
forward and backward, the attention softmax over query rows, GELU's ``erf``)
run only on the rows that ``batch.mask`` marks as real, and padding rows hold
0.  This is exact: masked keys get exactly 0 attention weight, so a real row
reads nothing of a padding row, and every gradient on a padding row is
exactly +0 or -0, which leaves any sum over rows unchanged (its sign can
only pick the sign of a zero result).  A zero's sign never reaches Adam's
output either: the first moment starts at +0, and b1*m + (1-b1)*(-0) is +0
when m is.  The matmuls keep their full padded shapes, because BLAS picks
its kernel, and with it the rounding, by the matrix sizes.

Memory.  ``forward(..., want_cache=True)`` returns, per layer, what the
backward pass reads and cannot rebuild from the rest: the heads' ``q4``/
``k4``/``v4``, the attention weights, the context rows ``ctx``, GELU's rows
and CDF, and both layer norms' caches; without it no layer's arrays outlive
that layer.  Attention runs in blocks of examples, as many as fit one
(examples, h, rows, T) float64 array into ``_ATTENTION_BLOCK_BYTES``
(512 KiB, and at least one example): scores, softmax and context in
forward, and the weights' gradient, the softmax gradient and
``dq``/``dk``/``dv`` in backward, so no (B, h, rows, T) temporary outlives
its block.  The cache keeps each block's weights, of a batch with padding
only its real query rows, which backward scatters back into zeros per
block.  Three activations are not cached but rebuilt, just before their one
reader, with the forward's own expression: a layer's input from the layer
norm below it, ``x1`` from ``ln1``, and the feed-forward activation from
GELU's cache.  Each sub-block (attention, feed-forward, and in backward the
heads' part of attention) is a function of its own, so its temporaries die
when it returns; the softmax runs in the buffer that received the scores,
and its gradient in the buffer of the weights' gradient; ``gradients`` pops
each layer's cache when the backward pass reaches it, and each entry dies
after its last reader.  None of this can change a bit.  Every (b, h)
product of attention is a matrix product of its own, whatever block it
falls in, and every softmax row and its gradient is reduced alone over its
keys, so blocking changes no product's shape and no sum's order; a product
written into a slice of a preallocated array (``out=``) is the same
product.  The scattered weights equal what forward computed, whose padding
rows were exactly 0.  A rebuilt array is the same expression on the same
operands.  An elementwise operation gives the same IEEE result in place as
into a new array, ``a * b == b * a`` (the softmax gradient is ``(dattn -
sum) * attn``), and every sum adds the same terms in the same order (the
residual is ``(pad(dsum + dx_q) + dx_k) + dx_v`` as before).  The tests
hold all of it to the full-width oracle with ``==``, at small blocks too.

GELU is the exact erf form, with ``scipy.special.erf``'s bits but without
scipy: scipy's erf is Cephes' ``erf``/``erfc``, and ``_erf`` repeats their
arithmetic in Cephes' order of operations.  Their one libm call,
``exp(-x*x)``, goes through ``np.exp`` of a complex array, because numpy's
float64 ``exp`` has SIMD kernels that differ from libm's ``exp`` in the last
bit, while libm's ``cexp`` returns ``exp(re) * 1.0`` for a zero imaginary
part.  ``math.erf`` would round differently again, and would loop in Python.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, NumericError
from .signals import REGRESSION, TaskSpec, default_task_specs
from .text import SentencePair, Vocabulary

LN_EPS = 1e-12
_MASK_BIAS = 1e30
# Rows the last block computes: [cls] and position 1 (see the module docstring).
_LAST_BLOCK_ROWS = 2
# Bytes of one block's (examples, heads, rows, keys) attention array; attention
# runs on as many examples at a time as fit (see the module docstring).
_ATTENTION_BLOCK_BYTES = 1 << 19

CHECKPOINT_MAGIC = b"PSCKPT1\n"
# The header's version: 2 since the encoder config lost its dropout rate.
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 256
    max_seq_len: int = 128
    init_seed: int = 0

    def __post_init__(self):
        for name in ("d_model", "n_layers", "n_heads", "d_ff"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise DataError("d_model must be divisible by n_heads")
        if self.max_seq_len < 3:
            raise DataError("max_seq_len must be >= 3 ([cls] plus two separators)")


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

    def take(self, idx: np.ndarray) -> "Batch":
        """The rows at ``idx`` cut to the longest of them: what packing those pairs alone gives."""
        width = int(self.mask[idx].any(axis=0).sum())
        return Batch(
            ids=self.ids[idx, :width],
            segments=self.segments[idx, :width],
            mask=self.mask[idx, :width],
            ratings=None if self.ratings is None else self.ratings[idx],
            signal_targets={k: v[idx] for k, v in self.signal_targets.items()},
        )


def packed_length(pair: SentencePair) -> int:
    """Slots of ``pair`` packed as [cls] z [sep] z~ [sep]."""
    return len(pair.reference.ids) + len(pair.candidate.ids) + 3


def build_batch(
    pairs: Sequence[SentencePair],
    vocab: Vocabulary,
    ratings: Sequence[float] | None = None,
    signal_targets: Mapping[str, np.ndarray] | None = None,
) -> Batch:
    """The batch of ``pairs``, each packed as [cls] z [sep] z~ [sep] and padded to the longest."""
    if not pairs:
        raise DataError("cannot build an empty batch")
    ref_lens = np.array([len(p.reference.ids) for p in pairs])
    lengths = np.array([packed_length(p) for p in pairs])
    cols = np.arange(lengths.max())
    real = cols < lengths[:, None]
    head, sep = (vocab.cls_id,), (vocab.sep_id,)
    flat = list(chain.from_iterable(
        part for p in pairs for part in (head, p.reference.ids, sep, p.candidate.ids, sep)
    ))
    ids = np.full(real.shape, vocab.pad_id, dtype=np.int64)
    ids[real] = flat  # row-major, so row by row
    return Batch(
        ids=ids,
        segments=(real & (cols >= ref_lens[:, None] + 2)).astype(np.int64),
        mask=real.astype(np.float64),
        ratings=None if ratings is None else np.asarray(ratings, dtype=np.float64),
        signal_targets={k: np.asarray(v, dtype=np.float64) for k, v in (signal_targets or {}).items()},
    )


# ---------------------------------------------------------------------------
# Primitive forward/backward pieces.
# ---------------------------------------------------------------------------


def _real_rows(mask):
    """Flat indices of the real rows of ``mask`` (B, T), or None when none is padding."""
    real = mask.ravel() > 0.0
    return None if real.all() else np.flatnonzero(real)


def _take_rows(x, real):
    """The rows of ``x`` (..., n) that ``real`` selects, as an (rows, n) array."""
    flat = x.reshape(-1, x.shape[-1])
    return flat if real is None else flat[real]


def _put_rows(rows, real, shape):
    """``rows`` placed back at ``real`` in an array of ``shape``, 0 elsewhere."""
    if real is None:
        return rows.reshape(shape)
    out = np.zeros((math.prod(shape[:-1]), shape[-1]))
    out[real] = rows
    return out.reshape(shape)


def _layer_norm(x, g, b, real):
    """Layer norm of the real rows of ``x``; the cache holds those rows only.

    A mean is ``sum / n``, which is what ``ndarray.mean`` computes, without
    its Python wrapper.
    """
    rows = _take_rows(x, real)
    n = rows.shape[-1]
    mu = rows.sum(axis=-1, keepdims=True) / n
    xc = rows - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + LN_EPS)
    cache = (xc * inv, inv)
    return _layer_norm_output(g, b, cache, real, x.shape), cache


def _layer_norm_output(g, b, cache, real, shape):
    """The layer norm's output of ``shape`` from its cache: ``g * xhat + b`` on the real rows, 0 elsewhere."""
    return _put_rows(g * cache[0] + b, real, shape)


def _layer_norm_backward(dout, g, cache, real):
    xhat, inv = cache
    drows = _take_rows(dout, real)
    dg = (drows * xhat).sum(axis=0)
    db = drows.sum(axis=0)
    dxhat = drows * g
    n = dxhat.shape[-1]
    m1 = dxhat.sum(axis=-1, keepdims=True) / n
    m2 = (dxhat * xhat).sum(axis=-1, keepdims=True) / n
    dx = inv * (dxhat - m1 - xhat * m2)
    return _put_rows(dx, real, dout.shape), dg, db


# Cephes' erf (T/U, |x| <= 1) and erfc (P/Q, 1 < |x| < 8) coefficients, highest
# power first; U and Q have a leading 1 that Cephes' p1evl leaves implicit.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)


def _horner(ans, x, coefs):
    """Cephes' Horner loop: ``ans = ans * x + c`` for each of ``coefs``, in place on ``ans``."""
    for c in coefs:
        ans *= x
        ans += c
    return ans


def _erf(x):
    """``scipy.special.erf(x)`` bit for bit (see the module docstring).

    On c = x clipped to [-8, 8]: c*T(c*c)/U(c*c) for every element, then,
    where |c| > 1, 1 - exp(-c*c)*P(|c|)/Q(|c|) with the sign of c.  At |c| = 8
    that is exactly 1.0, because erfc(8) < 2**-54, as Cephes' erf is beyond 8
    and at infinity.  Each step is sign-symmetric, so -0.0 stays -0.0, and NaN
    passes through.  The |c| > 1 elements are gathered by index: a
    boolean-mask gather is slower.
    """
    c = np.clip(x, -8.0, 8.0)
    z = c * c
    y = _horner(z * _ERF_T[0] + _ERF_T[1], z, _ERF_T[2:])
    y *= c
    y /= _horner(z + _ERF_U[0], z, _ERF_U[1:])
    tail = np.flatnonzero(z > 1.0)
    ct = c.take(tail)
    at = np.abs(ct)
    erfc = _horner(at * _ERFC_P[0] + _ERFC_P[1], at, _ERFC_P[2:])
    erfc *= np.exp(-(at * at) + 0j).real
    erfc /= _horner(at + _ERFC_Q[0], at, _ERFC_Q[1:])
    y.put(tail, np.copysign(1.0 - erfc, ct))
    return y


def _gelu(x, real):
    """GELU of the real rows of ``x``, and those rows with their CDF for the backward pass.

    ``_erf`` has ``scipy.special.erf``'s bits without importing scipy: Cephes'
    order of operations, and libm's ``exp`` through ``cexp`` (see the module
    docstring for why not ``np.exp`` or ``math.erf``).
    """
    rows = _take_rows(x, real)
    cache = (rows, 0.5 * (1.0 + _erf(rows / math.sqrt(2.0))))
    return _gelu_output(cache, real, x.shape), cache


def _gelu_output(cache, real, shape):
    """GELU's output of ``shape`` from its cache: ``rows * cdf`` on the real rows, 0 elsewhere."""
    rows, cdf = cache
    return _put_rows(rows * cdf, real, shape)


def _gelu_backward(dout, cache, real):
    rows, cdf = cache
    pdf = np.exp(-0.5 * rows * rows) / math.sqrt(2.0 * math.pi)
    return _put_rows(_take_rows(dout, real) * (cdf + rows * pdf), real, dout.shape)


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
    dx = dout @ w.T
    if rows < width:  # a copy, so the full-width product dies here
        dx = dx[:, :rows].copy()
    dout_flat = dout.reshape(-1, dout.shape[-1])
    x_flat = _pad_rows(x, width).reshape(-1, x.shape[-1])
    dw = x_flat.T @ dout_flat
    db = dout_flat.sum(axis=0)
    return dx, dw, db


def _softmax_last(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _attention_softmax(scores, key_mask, queries):
    """Softmax over keys of the real query rows of ``scores`` (B, h, rows, T), in its buffer.

    Returns ``scores`` holding the weights, 0 on the other rows.
    ``queries`` holds the (batch, row) indices of the real query rows, None
    when all are real.  Masked keys carry a -1e30 bias, and the 0/1
    ``key_mask`` (B, 1, 1, T; None when no key is padding) makes their
    weight exactly 0.
    """
    if queries is not None:
        e, key_mask = scores[queries[0], :, queries[1]], key_mask[queries[0], 0]
    else:
        e = scores
    e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    if key_mask is not None:
        e *= key_mask
    e /= e.sum(axis=-1, keepdims=True)
    if queries is not None:
        scores.fill(0.0)
        scores[queries[0], :, queries[1]] = e
    return scores


def _attention_softmax_backward(dattn, attn):
    """The gradient of the softmax's input, ``attn * (dattn - sum(dattn * attn))``, in ``dattn``'s buffer."""
    dattn -= (dattn * attn).sum(axis=-1, keepdims=True)
    dattn *= attn
    return dattn


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


def task_heads(params: ModelParams, cls: np.ndarray) -> dict[str, np.ndarray]:
    """Each task head's output on the [cls] rows ``cls`` (B, d): name -> (B, dim)."""
    t = params.tensors
    return {task.name: cls @ t[f"head.{task.name}.w"] + t[f"head.{task.name}.b"] for task in params.tasks}


def _check_finite(x, where):
    if not np.all(np.isfinite(x)):
        raise NumericError(f"non-finite values in {where}")


def _split_heads(x, n_heads):
    """``x`` (B, rows, d) as a (B, h, rows, d/h) view."""
    b, rows, d = x.shape
    return x.reshape(b, rows, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _attention_blocks(b, n_heads, rows, width):
    """Slices of the B examples, each as many as fit one (n, h, rows, T) float64 array
    into ``_ATTENTION_BLOCK_BYTES``, and at least one."""
    n = max(1, _ATTENTION_BLOCK_BYTES // (8 * n_heads * rows * width))
    return [slice(s, min(s + n, b)) for s in range(0, b, n)]


def _block_queries(real, blk, rows):
    """The (example, row) indices within block ``blk`` of its real query rows, None when all are real.

    ``real`` holds the flat indices of the real rows of (B, rows), None when
    all are real.
    """
    if real is None:
        return None
    lo, hi = np.searchsorted(real, (blk.start * rows, blk.stop * rows))
    return np.divmod(real[lo:hi] - blk.start * rows, rows)


def _self_attention(t, l, x, rows, n_heads, key_bias, key_mask, real, keep):
    """Layer ``l``'s attention over ``x`` (B, T, d) for its first ``rows`` query rows, plus the residual.

    Scores, softmax and context run per block of examples
    (``_attention_blocks``); ``real`` is as in ``_block_queries``.  ``keep``
    (None when no cache is wanted) receives what the backward pass reads,
    with the attention weights as one array per block: the block's
    (n, h, rows, T) weights, or only its real query rows, (n_real, h, T),
    when the batch has padding.  Every other array dies with its block or
    when this returns.
    """
    p = f"layer{l}."
    b, width, d = x.shape
    x_rows = x[:, :rows]
    q4 = _split_heads(_linear(x_rows, t[p + "wq"], t[p + "bq"]), n_heads)
    k4 = _split_heads(_linear(x, t[p + "wk"], t[p + "bk"]), n_heads)
    v4 = _split_heads(_linear(x, t[p + "wv"], t[p + "bv"]), n_heads)
    attn = None if keep is None else []
    ctx = np.empty((b, rows, d))
    ctx4 = _split_heads(ctx, n_heads)
    scale = 1.0 / math.sqrt(d // n_heads)
    for blk in _attention_blocks(b, n_heads, rows, width):
        queries = _block_queries(real, blk, rows)
        scores = q4[blk] @ k4[blk].swapaxes(-1, -2)
        scores *= scale
        if key_bias is not None:
            scores += key_bias[blk]
        weights = _attention_softmax(scores, None if key_mask is None else key_mask[blk], queries)
        if attn is not None:
            attn.append(weights if queries is None else weights[queries[0], :, queries[1]])
        np.matmul(weights, v4[blk], out=ctx4[blk])
    attn_out = _linear(ctx, t[p + "wo"], t[p + "bo"])
    if keep is not None:
        keep.update(q4=q4, k4=k4, v4=v4, attn=attn, ctx=ctx)
    return x_rows + attn_out


def _feed_forward(t, l, x1, real, keep):
    """Layer ``l``'s feed-forward over ``x1`` (B, rows, d), plus the residual; ``keep`` as above."""
    p = f"layer{l}."
    ffn_act, gelu_cache = _gelu(_linear(x1, t[p + "w1"], t[p + "b1"]), real)
    ffn_out = _linear(ffn_act, t[p + "w2"], t[p + "b2"])
    if keep is not None:
        keep.update(gelu=gelu_cache)
    return x1 + ffn_out


def forward(params: ModelParams, batch: Batch, want_cache: bool = False) -> ForwardResult:
    """Run the encoder and all heads.  Raises on sequences exceeding max_seq_len.

    With ``want_cache`` the result carries what ``gradients`` reads (see the
    module docstring); without it no layer's arrays outlive that layer.
    """
    cfg = params.config
    t = params.tensors
    b, width = batch.ids.shape
    if width > cfg.max_seq_len:
        raise DataError(
            f"sequence length {width} exceeds max_seq_len {cfg.max_seq_len} (no silent truncation)"
        )
    if int(batch.ids.max()) >= cfg.vocab_size:
        raise DataError("token id out of range for this model's vocabulary")
    cache: dict = {"layers": []}

    x = t["tok_emb"][batch.ids] + t["pos_emb"][:width][None, :, :] + t["seg_emb"][batch.segments]
    real = _real_rows(batch.mask)
    x, emb_ln_cache = _layer_norm(x, t["emb_ln_g"], t["emb_ln_b"], real)
    cache["emb_ln"] = emb_ln_cache
    cache["real"] = real
    _check_finite(x, "embedding block")

    if real is None:  # no padding, so no key to mask
        key_bias = key_mask = None
    else:
        key_bias = (batch.mask - 1.0)[:, None, None, :] * _MASK_BIAS  # 0 real, -inf-ish pad
        key_mask = batch.mask[:, None, None, :]

    for l in range(cfg.n_layers):
        p = f"layer{l}."
        # Only the [cls] row of the last block reaches an output, so its
        # queries and everything after them run on `rows` rows only.
        rows = min(_LAST_BLOCK_ROWS, width) if l == cfg.n_layers - 1 else width
        lreal = real if rows == width else _real_rows(batch.mask[:, :rows])
        keep = {"real": lreal} if want_cache else None
        x1, ln1_cache = _layer_norm(
            _self_attention(t, l, x, rows, cfg.n_heads, key_bias, key_mask, lreal, keep),
            t[p + "attn_ln_g"], t[p + "attn_ln_b"], lreal,
        )
        _check_finite(x1, f"layer {l} attention output")
        x, ln2_cache = _layer_norm(
            _feed_forward(t, l, x1, lreal, keep), t[p + "ffn_ln_g"], t[p + "ffn_ln_b"], lreal
        )
        _check_finite(x, f"layer {l} feed-forward output")
        if keep is not None:
            keep.update(ln1=ln1_cache, ln2=ln2_cache)
            cache["layers"].append(keep)

    cls = x[:, 0, :]
    return ForwardResult(
        cls=cls,
        task_outputs=task_heads(params, cls),
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


def gradients(params: ModelParams, batch: Batch) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and exact gradients for every tensor.

    The batch's labels pick the loss: mean squared error of the rating head
    on ``batch.ratings`` when the batch has ratings, otherwise the multitask
    loss on ``batch.signal_targets`` weighted by ``params.tasks``.
    """
    t = params.tensors
    result = forward(params, batch, want_cache=True)
    cache = result.cache
    cls = result.cls
    b = batch.size
    grads: dict[str, np.ndarray] = {}

    if batch.ratings is not None:
        loss = supervised_loss(result.ratings, batch.ratings)
        dpred = 2.0 * (result.ratings - batch.ratings) / b
        grads["rating.w"] = cls.T @ dpred
        grads["rating.b"] = np.array([dpred.sum()])
        dcls = dpred[:, None] * t["rating.w"][None, :]
    else:
        loss = pretrain_loss(result.task_outputs, batch.signal_targets, params.tasks)
        dcls = np.zeros_like(cls)
        for task in params.tasks:
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
            grads[f"head.{task.name}.w"] = cls.T @ dpred
            grads[f"head.{task.name}.b"] = dpred.sum(axis=0)
            dcls += dpred @ w.T

    if not math.isfinite(loss):
        raise NumericError("loss is non-finite")

    _backward_trunk(params, batch, cache, dcls, grads)
    for name, arr in t.items():  # the heads this loss does not use
        if name not in grads:
            grads[name] = np.zeros_like(arr)
    return loss, grads


def _backward_trunk(params, batch, cache, dcls, grads):
    """Gradients of the blocks and embeddings; pops each layer's cache as it goes."""
    t = params.tensors
    b, width = batch.ids.shape
    layers = cache["layers"]

    def layer_input(l):
        """Layer ``l``'s input, rebuilt with the forward's expression from the layer norm below it."""
        shape = (b, width, dcls.shape[1])
        if l == 0:
            return _layer_norm_output(t["emb_ln_g"], t["emb_ln_b"], cache["emb_ln"], cache["real"], shape)
        below, p = layers[l - 1], f"layer{l - 1}."
        return _layer_norm_output(t[p + "ffn_ln_g"], t[p + "ffn_ln_b"], below["ln2"], below["real"], shape)

    # The last block's output rows; only [cls] carries a gradient.
    dx = np.zeros((b, min(_LAST_BLOCK_ROWS, width), dcls.shape[1]))
    dx[:, 0, :] = dcls
    for l in reversed(range(len(layers))):
        lc = layers.pop()
        dx = _feed_forward_backward(dx, t, l, lc, width, grads)
        dx = _self_attention_backward(dx, t, l, lc, params.config.n_heads, width, grads, layer_input)

    dx, grads["emb_ln_g"], grads["emb_ln_b"] = _layer_norm_backward(
        dx, t["emb_ln_g"], cache["emb_ln"], cache["real"]
    )
    grads["tok_emb"] = _scatter_rows(batch.ids, dx, params.config.vocab_size)
    grads["pos_emb"] = np.zeros_like(t["pos_emb"])
    grads["pos_emb"][:width] = dx.sum(axis=0)
    grads["seg_emb"] = _scatter_rows(batch.segments, dx, 2)


def _feed_forward_backward(dout, t, l, lc, width, grads):
    """Layer ``l``'s feed-forward layer norm and sub-block; returns the gradient of its input ``x1``.

    The activation and ``x1`` are rebuilt from the GELU and ``ln1`` caches
    just before their one reader; the GELU and ``ln2`` caches are popped.
    """
    p = f"layer{l}."
    real = lc["real"]
    dx1, grads[p + "ffn_ln_g"], grads[p + "ffn_ln_b"] = _layer_norm_backward(
        dout, t[p + "ffn_ln_g"], lc.pop("ln2"), real
    )
    ffn_act = _gelu_output(lc["gelu"], real, dout.shape[:-1] + (t[p + "w2"].shape[0],))
    dffn_act, grads[p + "w2"], grads[p + "b2"] = _linear_backward(dx1, ffn_act, t[p + "w2"], width)
    del ffn_act
    dffn_pre = _gelu_backward(dffn_act, lc.pop("gelu"), real)
    del dffn_act
    x1 = _layer_norm_output(t[p + "attn_ln_g"], t[p + "attn_ln_b"], lc["ln1"], real, dout.shape)
    dx1_ffn, grads[p + "w1"], grads[p + "b1"] = _linear_backward(dffn_pre, x1, t[p + "w1"], width)
    dx1 += dx1_ffn
    return dx1


def _self_attention_backward(dout, t, l, lc, n_heads, width, grads, layer_input):
    """Layer ``l``'s attention layer norm and sub-block; returns the gradient of its input.

    Each cached array is popped from ``lc`` by its last reader; the input
    is rebuilt by ``layer_input(l)`` after the heads' gradients.
    """
    p = f"layer{l}."
    dsum, grads[p + "attn_ln_g"], grads[p + "attn_ln_b"] = _layer_norm_backward(
        dout, t[p + "attn_ln_g"], lc.pop("ln1"), lc["real"]
    )
    dctx, grads[p + "wo"], grads[p + "bo"] = _linear_backward(dsum, lc.pop("ctx"), t[p + "wo"], width)
    dq, dk, dv = _heads_backward(dctx, lc, n_heads)
    x_in = layer_input(l)
    dx_q, grads[p + "wq"], grads[p + "bq"] = _linear_backward(dq, x_in, t[p + "wq"], width)
    dsum += dx_q
    dx = _pad_rows(dsum, width)
    dx_k, grads[p + "wk"], grads[p + "bk"] = _linear_backward(dk, x_in, t[p + "wk"], width)
    dx += dx_k
    dx_v, grads[p + "wv"], grads[p + "bv"] = _linear_backward(dv, x_in, t[p + "wv"], width)
    dx += dx_v
    return dx


def _heads_backward(dctx, lc, n_heads):
    """Gradients of q, k and v (B, rows or T, d) from that of the context rows ``dctx`` (B, rows, d).

    Pops ``q4``, ``k4``, ``v4`` and the attention weights from ``lc``.
    It runs in the forward pass's blocks of examples (``_attention_blocks``:
    as many as fit one (examples, h, rows, T) array into
    ``_ATTENTION_BLOCK_BYTES``).  Per block it takes the block's cached
    weights (of a batch with padding, its real query rows, scattered back
    into zeros) and computes the weights' gradient, the softmax gradient and
    the block's rows of ``dq``, ``dk`` and ``dv``, those three into arrays
    allocated once.  No bit changes: each (b, h) product and each softmax
    row is computed alone in any block, and the scattered weights are the
    ones forward computed (0 on padding rows).
    """
    b, rows, d = dctx.shape
    q4, k4, v4, attn = (lc.pop(name) for name in ("q4", "k4", "v4", "attn"))
    width = k4.shape[2]
    scale = 1.0 / math.sqrt(d // n_heads)
    dctx4 = _split_heads(dctx, n_heads)
    dq, dk, dv = np.empty((b, rows, d)), np.empty((b, width, d)), np.empty((b, width, d))
    dq4, dk4, dv4 = (_split_heads(g, n_heads) for g in (dq, dk, dv))
    for blk in _attention_blocks(b, n_heads, rows, width):
        weights = attn.pop(0)
        queries = _block_queries(lc["real"], blk, rows)
        if queries is not None:  # only the real query rows were cached
            full = np.zeros((blk.stop - blk.start, n_heads, rows, width))
            full[queries[0], :, queries[1]] = weights
            weights = full
        dattn = dctx4[blk] @ v4[blk].swapaxes(-1, -2)
        np.matmul(weights.swapaxes(-1, -2), dctx4[blk], out=dv4[blk])
        dscores = _attention_softmax_backward(dattn, weights)
        np.matmul(dscores, k4[blk], out=dq4[blk])
        dq4[blk] *= scale
        np.matmul(dscores.swapaxes(-1, -2), q4[blk], out=dk4[blk])
        dk4[blk] *= scale
    return dq, dk, dv


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
        "version": CHECKPOINT_VERSION,
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
    if not data:
        raise DataError(f"checkpoint {path}: the file is empty")
    magic = data[: len(CHECKPOINT_MAGIC)]
    if magic != CHECKPOINT_MAGIC:
        raise DataError(f"checkpoint {path}: not a pairscore checkpoint (it starts {magic!r})")
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
        found = f"{header['format']}/{header['version']}"
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"checkpoint {path}: malformed header: {exc}") from None
    if found != f"checkpoint/{CHECKPOINT_VERSION}":
        raise DataError(
            f"checkpoint {path}: expected artifact schema 'checkpoint/{CHECKPOINT_VERSION}', "
            f"found {found!r}; train it again with this version"
        )
    try:
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
