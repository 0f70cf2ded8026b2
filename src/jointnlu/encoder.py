"""Compact transformer encoder trained from scratch, with exact manual
gradients.

Post-norm residual blocks: embeddings go through a layer norm, then each
block applies self-attention and a GELU feed-forward sublayer, each followed
by residual add and layer norm. Every dense layer (embedding, Q/K/V, output
projection, feed-forward, layer norms) runs on the packed rows of real
pieces only, and every dropout mask is drawn at that (T, d_h) shape; the
attention scores, their softmax and the weighted sum of values are the one
block kept in the padded layout, with padded key positions masked out of
every row, so padding content can never influence real positions. The
hidden states come back packed.

Parameters are read from the model's flat name->array dict under their
model.param_spec names ("enc.tok_emb", "enc.l0.Wq", ...); gradients come
back under the same names.
"""

from __future__ import annotations

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
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be positive")
        if min(self.d_h, self.n_layers, self.n_heads, self.d_ff, self.max_len) < 1:
            raise ValueError("all encoder dimensions must be positive")
        if self.d_h % self.n_heads != 0:
            raise ValueError(f"d_h {self.d_h} not divisible by n_heads {self.n_heads}")

    @property
    def d_head(self) -> int:
        return self.d_h // self.n_heads

    @classmethod
    def from_dict(cls, payload: dict) -> "EncoderConfig":
        return cls(**payload)


def _to_heads(x: np.ndarray, rows: np.ndarray, b: int, n: int, n_heads: int):
    """(T, d) rows -> (b, heads, n, d_head) for attention, zeros at padding."""
    padded = scatter_rows(x, rows, b, n)
    return padded.reshape(b, n, n_heads, -1).transpose(0, 2, 1, 3)


def _from_heads(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(b, heads, n, d_head) -> the (T, d) rows of real pieces."""
    b, h, n, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b * n, h * dh)[rows]


def encode(
    ids: np.ndarray,
    pad_mask: np.ndarray,
    params: dict[str, np.ndarray],
    cfg: EncoderConfig,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
):
    """Hidden states (T, d_h) of the T real pieces of a padded id batch, in
    np.flatnonzero(pad_mask) order, and the cache encode_backward needs.

    pad_mask is True at real positions. Dropout needs an rng; with rate 0 or
    rng None the pass is deterministic.

    Every dense layer runs on the packed rows; q, k and v are scattered to
    the padded (batch, heads, length, d_head) layout for the masked
    attention scores and their softmax, and the attention context is
    gathered back to rows.
    """
    ids = np.asarray(ids)
    pad_mask = np.asarray(pad_mask, dtype=bool)
    if ids.ndim != 2 or ids.shape != pad_mask.shape:
        raise ValueError("ids and pad_mask must share one (batch, length) shape")
    b, n = ids.shape
    if n > cfg.max_len:
        raise ValueError(f"sequence length {n} exceeds max_len {cfg.max_len}")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise ValueError("token id out of range")
    if not pad_mask.any(axis=1).all():
        raise ValueError("every sequence needs at least one real position")

    rows = np.flatnonzero(pad_mask)
    real_ids = ids.ravel()[rows]
    emb = params["enc.tok_emb"][real_ids] + params["enc.pos_emb"][rows % n]
    x, ln_emb_cache = layer_norm(emb, params["enc.ln_emb.g"], params["enc.ln_emb.b"])
    emb_mask = dropout_mask(rng, x.shape, dropout_rate)
    x = apply_mask(x, emb_mask)

    key_mask = pad_mask[:, None, None, :]  # broadcast over heads and queries
    scale = 1.0 / np.sqrt(cfg.d_head)
    layers = []
    for i in range(cfg.n_layers):
        p = f"enc.l{i}."
        x_in = x
        q = _to_heads(x @ params[p + "Wq"] + params[p + "bq"], rows, b, n, cfg.n_heads)
        k = _to_heads(x @ params[p + "Wk"] + params[p + "bk"], rows, b, n, cfg.n_heads)
        v = _to_heads(x @ params[p + "Wv"] + params[p + "bv"], rows, b, n, cfg.n_heads)
        scores = np.where(key_mask, (q @ k.swapaxes(-1, -2)) * scale, -np.inf)
        probs = stable_softmax(scores, axis=-1)
        ctx = _from_heads(probs @ v, rows)
        attn_out = ctx @ params[p + "Wo"] + params[p + "bo"]
        attn_drop = dropout_mask(rng, attn_out.shape, dropout_rate)
        attn_out = apply_mask(attn_out, attn_drop)
        x1, ln1_cache = layer_norm(
            x_in + attn_out, params[p + "ln1.g"], params[p + "ln1.b"]
        )

        u = x1 @ params[p + "W1"] + params[p + "b1"]
        a, one_erf = gelu(u)
        ffn_out = a @ params[p + "W2"] + params[p + "b2"]
        ffn_drop = dropout_mask(rng, ffn_out.shape, dropout_rate)
        ffn_out = apply_mask(ffn_out, ffn_drop)
        x2, ln2_cache = layer_norm(
            x1 + ffn_out, params[p + "ln2.g"], params[p + "ln2.b"]
        )

        layers.append(
            dict(
                x_in=x_in, q=q, k=k, v=v, probs=probs, ctx=ctx,
                attn_drop=attn_drop, ln1_cache=ln1_cache, x1=x1,
                u=u, one_erf=one_erf, a=a, ffn_drop=ffn_drop,
                ln2_cache=ln2_cache,
            )
        )
        x = x2

    cache = dict(
        real_ids=real_ids, rows=rows, shape=(b, n), emb_mask=emb_mask,
        ln_emb_cache=ln_emb_cache, layers=layers, scale=scale,
    )
    return x, cache


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
        lc = cache["layers"][i]
        p = f"enc.l{i}."

        d_r2, grads[p + "ln2.g"], grads[p + "ln2.b"] = layer_norm_backward(
            d_x, lc["ln2_cache"]
        )
        d_x1 = d_r2.copy()
        d_ffn = apply_mask(d_r2, lc["ffn_drop"])

        grads[p + "W2"] = lc["a"].T @ d_ffn
        grads[p + "b2"] = d_ffn.sum(axis=0)
        d_a = d_ffn @ params[p + "W2"].T
        d_u = d_a * gelu_grad(lc["u"], lc["one_erf"])
        grads[p + "W1"] = lc["x1"].T @ d_u
        grads[p + "b1"] = d_u.sum(axis=0)
        d_x1 += d_u @ params[p + "W1"].T

        d_r1, grads[p + "ln1.g"], grads[p + "ln1.b"] = layer_norm_backward(
            d_x1, lc["ln1_cache"]
        )
        d_x_in = d_r1.copy()
        d_attn = apply_mask(d_r1, lc["attn_drop"])

        grads[p + "Wo"] = lc["ctx"].T @ d_attn
        grads[p + "bo"] = d_attn.sum(axis=0)
        d_ctx = _to_heads(d_attn @ params[p + "Wo"].T, rows, b, n, cfg.n_heads)

        d_probs = d_ctx @ lc["v"].swapaxes(-1, -2)
        d_v = lc["probs"].swapaxes(-1, -2) @ d_ctx
        d_scores = softmax_backward(d_probs, lc["probs"], axis=-1)
        d_q = (d_scores @ lc["k"]) * cache["scale"]
        d_k = (d_scores.swapaxes(-1, -2) @ lc["q"]) * cache["scale"]

        x_in = lc["x_in"]
        for name, d_heads in (("q", d_q), ("k", d_k), ("v", d_v)):
            d_lin = _from_heads(d_heads, rows)
            grads[p + "W" + name] = x_in.T @ d_lin
            grads[p + "b" + name] = d_lin.sum(axis=0)
            d_x_in += d_lin @ params[p + "W" + name].T

        d_x = d_x_in

    d_x = apply_mask(d_x, cache["emb_mask"])
    d_emb, grads["enc.ln_emb.g"], grads["enc.ln_emb.b"] = layer_norm_backward(
        d_x, cache["ln_emb_cache"]
    )
    # Embedding rows the batch never touches get exact zeros.
    grads["enc.tok_emb"] = np.zeros_like(params["enc.tok_emb"])
    np.add.at(grads["enc.tok_emb"], cache["real_ids"], d_emb)
    grads["enc.pos_emb"] = np.zeros_like(params["enc.pos_emb"])
    grads["enc.pos_emb"][:n] = scatter_rows(d_emb, rows, b, n).sum(axis=0)
    return grads
