"""Full-width reference forward and backward pass for the encoder.

This is the plain formulation: every block runs on every position of every
padded row, the softmax exponentiates masked keys too, GELU evaluates its CDF
in both passes, and the embedding gradients scatter with ``np.add.at``.
``pairscore.encoder`` computes only what reaches the [cls] row and must agree
with this module bit for bit.  ``pack_pair`` packs one pair on its own, the
row ``build_batch`` must give it before padding.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

from pairscore.encoder import LN_EPS, pretrain_loss, supervised_loss
from pairscore.signals import REGRESSION

_MASK_BIAS = 1e30


def pack_pair(pair, vocab):
    """(ids, segments) of ``pair`` packed as [cls] z [sep] z~ [sep]."""
    ids = [vocab.cls_id, *pair.reference.ids, vocab.sep_id, *pair.candidate.ids, vocab.sep_id]
    segs = [0] * (len(pair.reference.ids) + 2) + [1] * (len(pair.candidate.ids) + 1)
    return ids, segs


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
    return inv * (dxhat - m1 - xhat * m2), dg, db


def _gelu(x):
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def _gelu_backward(dout, x):
    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return dout * (cdf + x * pdf)


def _linear_backward(dout, x, w):
    dout_flat = dout.reshape(-1, dout.shape[-1])
    x_flat = x.reshape(-1, x.shape[-1])
    return dout @ w.T, x_flat.T @ dout_flat, dout_flat.sum(axis=0)


def _softmax_last(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def reference_forward(params, batch):
    """(cls, task_outputs, ratings, cache)."""
    cfg, t = params.config, params.tensors
    b, width = batch.ids.shape
    layers = []

    x = t["tok_emb"][batch.ids] + t["pos_emb"][:width][None, :, :] + t["seg_emb"][batch.segments]
    x, emb_ln = _layer_norm(x, t["emb_ln_g"], t["emb_ln_b"])
    h = cfg.n_heads
    dh = cfg.d_model // h
    scale = 1.0 / math.sqrt(dh)
    key_bias = (batch.mask - 1.0)[:, None, None, :] * _MASK_BIAS
    for l in range(cfg.n_layers):
        p = f"layer{l}."
        split = lambda y: y.reshape(b, width, h, dh).transpose(0, 2, 1, 3)
        q4 = split(x @ t[p + "wq"] + t[p + "bq"])
        k4 = split(x @ t[p + "wk"] + t[p + "bk"])
        v4 = split(x @ t[p + "wv"] + t[p + "bv"])
        attn = _softmax_last(q4 @ k4.swapaxes(-1, -2) * scale + key_bias)
        ctx = (attn @ v4).transpose(0, 2, 1, 3).reshape(b, width, cfg.d_model)
        attn_out = ctx @ t[p + "wo"] + t[p + "bo"]
        x1, ln1 = _layer_norm(x + attn_out, t[p + "attn_ln_g"], t[p + "attn_ln_b"])
        ffn_pre = x1 @ t[p + "w1"] + t[p + "b1"]
        ffn_act = _gelu(ffn_pre)
        ffn_out = ffn_act @ t[p + "w2"] + t[p + "b2"]
        x2, ln2 = _layer_norm(x1 + ffn_out, t[p + "ffn_ln_g"], t[p + "ffn_ln_b"])
        layers.append(dict(
            x_in=x, q4=q4, k4=k4, v4=v4, attn=attn, ctx=ctx,
            ln1=ln1, x1=x1, ffn_pre=ffn_pre, ffn_act=ffn_act, ln2=ln2,
        ))
        x = x2
    cls = x[:, 0, :]
    task_outputs = {
        task.name: cls @ t[f"head.{task.name}.w"] + t[f"head.{task.name}.b"]
        for task in params.tasks
    }
    ratings = cls @ t["rating.w"] + t["rating.b"][0]
    cache = {"layers": layers, "emb_ln": emb_ln}
    return cls, task_outputs, ratings, cache


def reference_gradients(params, batch, loss_spec):
    """Loss and gradients of every tensor, as ``encoder.gradients`` defines them."""
    cfg, t = params.config, params.tensors
    cls, task_outputs, ratings, cache = reference_forward(params, batch)
    b, width = batch.ids.shape
    grads = {name: np.zeros_like(arr) for name, arr in t.items()}
    if isinstance(loss_spec, str):
        loss = supervised_loss(ratings, batch.ratings)
        dpred = 2.0 * (ratings - batch.ratings) / b
        grads["rating.w"] += cls.T @ dpred
        grads["rating.b"][0] += dpred.sum()
        dcls = dpred[:, None] * t["rating.w"][None, :]
    else:
        tasks = tuple(loss_spec)
        loss = pretrain_loss(task_outputs, batch.signal_targets, tasks)
        dcls = np.zeros_like(cls)
        for task in tasks:
            if task.weight == 0.0:
                continue
            pred, tgt = task_outputs[task.name], batch.signal_targets[task.name]
            if task.kind == REGRESSION:
                dpred = task.weight * 2.0 * (pred - tgt) / (task.dim * b)
            else:
                dpred = task.weight * (_softmax_last(pred) - tgt) / b
            grads[f"head.{task.name}.w"] += cls.T @ dpred
            grads[f"head.{task.name}.b"] += dpred.sum(axis=0)
            dcls += dpred @ t[f"head.{task.name}.w"].T

    h = cfg.n_heads
    dh = cfg.d_model // h
    scale = 1.0 / math.sqrt(dh)
    dx = np.zeros((b, width, cfg.d_model))
    dx[:, 0, :] = dcls
    for l in reversed(range(cfg.n_layers)):
        p = f"layer{l}."
        lc = cache["layers"][l]
        dsum, dg, db = _layer_norm_backward(dx, t[p + "ffn_ln_g"], lc["ln2"])
        grads[p + "ffn_ln_g"] += dg
        grads[p + "ffn_ln_b"] += db
        dffn_act, dw2, db2 = _linear_backward(dsum, lc["ffn_act"], t[p + "w2"])
        grads[p + "w2"] += dw2
        grads[p + "b2"] += db2
        dffn_pre = _gelu_backward(dffn_act, lc["ffn_pre"])
        dx1_ffn, dw1, db1 = _linear_backward(dffn_pre, lc["x1"], t[p + "w1"])
        grads[p + "w1"] += dw1
        grads[p + "b1"] += db1
        dsum, dg, db = _layer_norm_backward(dsum + dx1_ffn, t[p + "attn_ln_g"], lc["ln1"])
        grads[p + "attn_ln_g"] += dg
        grads[p + "attn_ln_b"] += db
        dctx, dwo, dbo = _linear_backward(dsum, lc["ctx"], t[p + "wo"])
        grads[p + "wo"] += dwo
        grads[p + "bo"] += dbo
        dctx4 = dctx.reshape(b, width, h, dh).transpose(0, 2, 1, 3)
        dattn = dctx4 @ lc["v4"].swapaxes(-1, -2)
        attn = lc["attn"]
        dv4 = attn.swapaxes(-1, -2) @ dctx4
        dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
        dq4 = dscores @ lc["k4"] * scale
        dk4 = dscores.swapaxes(-1, -2) @ lc["q4"] * scale
        dx = dsum
        for name, d4 in (("q", dq4), ("k", dk4), ("v", dv4)):
            dproj = d4.transpose(0, 2, 1, 3).reshape(b, width, cfg.d_model)
            dx_proj, dw, dbias = _linear_backward(dproj, lc["x_in"], t[p + "w" + name])
            grads[p + "w" + name] += dw
            grads[p + "b" + name] += dbias
            dx = dx + dx_proj
    dx, dg, db = _layer_norm_backward(dx, t["emb_ln_g"], cache["emb_ln"])
    grads["emb_ln_g"] += dg
    grads["emb_ln_b"] += db
    np.add.at(grads["tok_emb"], batch.ids, dx)
    grads["pos_emb"][:width] += dx.sum(axis=0)
    np.add.at(grads["seg_emb"], batch.segments, dx)
    return loss, grads
