"""Compact transformer encoder trained from scratch, with exact manual
gradients.

Post-norm residual blocks, as in BERT: the embeddings go through a layer norm,
then each block runs the `_attention` and `_feed_forward` (GELU) sublayers,
each with its own backward pass and cache and each ending in `_add_norm`
(dropout on its output, residual add, layer norm); `_dense_backward` is every
dense layer's gradient. Every dense layer (embedding, Q/K/V, output
projection, feed-forward, layer norms) runs on the packed rows of real pieces
only, and every dropout mask is drawn at that (T, d_h) shape; the attention
scores, their softmax and the weighted sum of values are the one block laid
out (b, heads, n, d_head). With padding, Q, K and V are scattered to that
layout (zeros at padding), the context is gathered back, and `encode` builds
one (b, 1, 1, n) key bias per batch, in the compute dtype: 0 at real keys and
-inf at padded ones. Each layer adds it in place to its scaled scores, so
every padded key gets probability zero in every row and padding can never
influence real positions (x + 0 is x, and x + -inf is -inf). With no padding
(rows.size == b * n: every batch of 1, and any of equal lengths) the rows are
the layout: a reshape, no gather, no key bias, and the same bits. The piece
ids come in packed, placed by the (b, n) pad_mask, and the hidden states go
out packed.

Parameters are read from the model's flat name->array dict under their
model.param_spec names ("enc.tok_emb", "enc.l0.Wq", ...); gradients come
back under the same names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    apply_mask,
    dropout_mask,
    gelu,
    gelu_grad,
    layer_norm,
    layer_norm_backward,
    scatter_rows,
    softmax_backward,
    stable_softmax,
)


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    d_h: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 128
    max_len: int = 50

    def __post_init__(self):
        for name, value in vars(self).items():
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} {value!r} is not a positive int")
        if self.d_h % self.n_heads != 0:
            raise ValueError(f"d_h {self.d_h} not divisible by n_heads {self.n_heads}")
        if self.max_len < 3:
            raise ValueError(
                f"max_len {self.max_len} cannot fit both markers plus one piece"
            )

    @property
    def d_head(self) -> int:
        return self.d_h // self.n_heads


def _to_heads(x: np.ndarray, rows: np.ndarray | None, b: int, n: int, n_heads: int):
    """(T, d) rows -> (b, heads, n, d_head) for attention: scattered by rows,
    zeros at padding, or, with rows None (no padding, T = b * n), a reshape."""
    if rows is not None:
        x = scatter_rows(x, rows, b, n)
    return x.reshape(b, n, n_heads, -1).transpose(0, 2, 1, 3)


def _from_heads(x: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
    """(b, heads, n, d_head) -> the (T, d) rows of real pieces: gathered by
    rows, or every row with rows None."""
    b, h, n, dh = x.shape
    x = x.transpose(0, 2, 1, 3).reshape(b * n, h * dh)
    return x if rows is None else x[rows]


def _add_norm(x, out, params, p, rate, rng):
    """layer_norm(x + dropout(out)), gain p + "g" and bias p + "b", and its cache."""
    mask = dropout_mask(rng, out.shape, rate, x.dtype)
    if mask is not None:
        out *= mask  # the sublayer's own output, which nothing else keeps
    y, ln = layer_norm(x + out, params[p + "g"], params[p + "b"])
    return y, (mask, ln)


def _add_norm_backward(d_y, cache, grads, p):
    """The gradients w.r.t. _add_norm's x and out; writes the norm's."""
    mask, ln = cache
    d_x, grads[p + "g"], grads[p + "b"] = layer_norm_backward(d_y, ln)
    return d_x, apply_mask(d_x, mask)


def _dense_backward(x, d_y, params, grads, p, name):
    """d_x of x @ W + b for W, b = p + "W" + name, p + "b" + name; writes d_W, d_b."""
    grads[p + "W" + name] = x.T @ d_y
    grads[p + "b" + name] = d_y.sum(axis=0)
    return d_y @ params[p + "W" + name].T


def _attention(x, rows, b, n, key_bias, params, p, cfg, rate, rng):
    """Multi-head self-attention over the rows x of a (b, n) batch, padded
    keys masked by the (b, 1, 1, n) key_bias (None with no padding), then
    _add_norm."""
    q = _to_heads(x @ params[p + "Wq"] + params[p + "bq"], rows, b, n, cfg.n_heads)
    k = _to_heads(x @ params[p + "Wk"] + params[p + "bk"], rows, b, n, cfg.n_heads)
    v = _to_heads(x @ params[p + "Wv"] + params[p + "bv"], rows, b, n, cfg.n_heads)
    scale = 1.0 / math.sqrt(cfg.d_head)
    scores = q @ k.swapaxes(-1, -2)
    scores *= scale
    if key_bias is not None:
        scores += key_bias  # broadcast over heads and queries
    probs = stable_softmax(scores)
    ctx = _from_heads(probs @ v, rows)
    out = ctx @ params[p + "Wo"] + params[p + "bo"]
    y, norm = _add_norm(x, out, params, p + "ln1.", rate, rng)
    return y, dict(x=x, q=q, k=k, v=v, probs=probs, ctx=ctx, scale=scale, norm=norm)


def _attention_backward(d_y, cache, rows, params, p, cfg, grads):
    """The gradient w.r.t. _attention's x; writes its parameters'."""
    b, _, n, _ = cache["probs"].shape
    d_x, d_out = _add_norm_backward(d_y, cache["norm"], grads, p + "ln1.")
    d_ctx = _dense_backward(cache["ctx"], d_out, params, grads, p, "o")
    d_ctx = _to_heads(d_ctx, rows, b, n, cfg.n_heads)
    d_probs = d_ctx @ cache["v"].swapaxes(-1, -2)
    d_v = cache["probs"].swapaxes(-1, -2) @ d_ctx
    d_scores = softmax_backward(d_probs, cache["probs"])
    d_q = (d_scores @ cache["k"]) * cache["scale"]
    d_k = (d_scores.swapaxes(-1, -2) @ cache["q"]) * cache["scale"]
    for name, d_heads in (("q", d_q), ("k", d_k), ("v", d_v)):
        d_lin = _from_heads(d_heads, rows)
        d_x = d_x + _dense_backward(cache["x"], d_lin, params, grads, p, name)
    return d_x


def _feed_forward(x, params, p, rate, rng):
    """gelu(x @ W1 + b1) @ W2 + b2 over the rows x, then _add_norm."""
    u = x @ params[p + "W1"] + params[p + "b1"]
    a, t = gelu(u)
    out = a @ params[p + "W2"] + params[p + "b2"]
    y, norm = _add_norm(x, out, params, p + "ln2.", rate, rng)
    return y, dict(x=x, u=u, t=t, a=a, norm=norm)


def _feed_forward_backward(d_y, cache, params, p, grads):
    """The gradient w.r.t. _feed_forward's x; writes its parameters'."""
    d_x, d_out = _add_norm_backward(d_y, cache["norm"], grads, p + "ln2.")
    d_a = _dense_backward(cache["a"], d_out, params, grads, p, "2")
    d_u = d_a * gelu_grad(cache["u"], cache["t"])
    return d_x + _dense_backward(cache["x"], d_u, params, grads, p, "1")


def encode(
    ids: np.ndarray,
    pad_mask: np.ndarray,
    params: dict[str, np.ndarray],
    cfg: EncoderConfig,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
):
    """Hidden states (T, d_h) of the T real pieces whose integer ids (T,)
    are placed by pad_mask (b, n), True at real positions, in
    np.flatnonzero(pad_mask) order; and the cache encode_backward needs.
    Dropout needs an rng; with rate 0 or rng None the pass is deterministic.
    """
    ids = np.asarray(ids)
    pad_mask = np.asarray(pad_mask, dtype=bool)
    if pad_mask.ndim != 2:
        raise ValueError(f"pad_mask has shape {pad_mask.shape}, expected 2-D (b, n)")
    if len(pad_mask) == 0:
        raise ValueError("need at least one sequence")
    if not pad_mask.any(axis=1).all():
        raise ValueError("every sequence needs at least one real position")
    if ids.dtype.kind not in "iu":
        raise ValueError(f"piece ids have dtype {ids.dtype}, expected integers")
    b, n = pad_mask.shape
    if n > cfg.max_len:
        raise ValueError(f"sequence length {n} exceeds max_len {cfg.max_len}")
    rows = np.flatnonzero(pad_mask)
    if ids.shape != rows.shape:
        raise ValueError(f"need {rows.size} ids, one per real position")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise ValueError("token id out of range")

    emb = params["enc.tok_emb"][ids] + params["enc.pos_emb"][rows % n]
    x, ln_emb_cache = layer_norm(emb, params["enc.ln_emb.g"], params["enc.ln_emb.b"])
    emb_mask = dropout_mask(rng, x.shape, dropout_rate, x.dtype)
    x = apply_mask(x, emb_mask)

    if rows.size == b * n:  # no padding: no scatter, gather or key bias
        rows = key_bias = None
    else:
        key_bias = np.where(pad_mask, 0.0, -np.inf).astype(x.dtype)[:, None, None, :]
    layers = []
    for i in range(cfg.n_layers):
        p = f"enc.l{i}."
        x, attn = _attention(x, rows, b, n, key_bias, params, p, cfg, dropout_rate, rng)
        x, ffn = _feed_forward(x, params, p, dropout_rate, rng)
        layers.append((attn, ffn))

    return x, dict(
        ids=ids, rows=rows, shape=(b, n), emb_mask=emb_mask,
        ln_emb_cache=ln_emb_cache, layers=layers,
    )


def encode_backward(
    d_out: np.ndarray,
    cache: dict,
    params: dict[str, np.ndarray],
    cfg: EncoderConfig,
) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss w.r.t. every "enc." parameter, by name,
    given d_out, the loss's (T, d_h) gradient w.r.t. encode's output."""
    rows = cache["rows"]
    b, n = cache["shape"]
    grads = {}
    d_x = d_out
    for i in reversed(range(cfg.n_layers)):
        p = f"enc.l{i}."
        attn, ffn = cache["layers"][i]
        d_x = _feed_forward_backward(d_x, ffn, params, p, grads)
        d_x = _attention_backward(d_x, attn, rows, params, p, cfg, grads)

    d_x = apply_mask(d_x, cache["emb_mask"])
    d_emb, grads["enc.ln_emb.g"], grads["enc.ln_emb.b"] = layer_norm_backward(
        d_x, cache["ln_emb_cache"]
    )
    # Embedding rows the batch never touches get exact zeros.
    grads["enc.tok_emb"] = np.zeros_like(params["enc.tok_emb"])
    np.add.at(grads["enc.tok_emb"], cache["ids"], d_emb)
    grads["enc.pos_emb"] = np.zeros_like(params["enc.pos_emb"])
    d_pos = d_emb if rows is None else scatter_rows(d_emb, rows, b, n)
    grads["enc.pos_emb"][:n] = d_pos.reshape(b, n, -1).sum(axis=0)
    return grads
