"""Utterance-level intent classification over pooled hidden states.

The hidden states arrive packed: the rows of each sequence's real pieces,
sequence after sequence, `lengths` rows per sequence. The default pooling
learns one scalar score per row (a tanh bottleneck projected to a scalar),
normalizes the scores with a temperature-scaled softmax within each
sequence's segment, and takes the tanh of the segment's weighted sum of
hidden states. Start/end marker positions participate like any other.

An alternative start-token mode pools by projecting each sequence's first
row only, the conventional classifier-head baseline, kept for ablations.

Both passes read the model's flat parameter dict under its "int." names
(model.param_spec); gradients come back under the same names.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import apply_mask, dropout_mask

POOL_MODES = ("attention", "start_token")


def attention_logits(
    H: np.ndarray, W_score: np.ndarray, v_score: np.ndarray
) -> np.ndarray:
    """Pooling score of every row: v_score . tanh(W_score @ H[t])."""
    if H.shape[-1] != W_score.shape[1] or W_score.shape[0] != v_score.shape[0]:
        raise ValueError("hidden width disagrees with scoring parameters")
    return np.tanh(H @ W_score.T) @ v_score


def attention_weights(
    logits: np.ndarray, lengths: np.ndarray, d_h: int
) -> np.ndarray:
    """Temperature-scaled softmax, softmax(logits / sqrt(d_h)), within each
    segment of the packed logits; `lengths` gives the segments in order and
    each must be nonempty."""
    starts = np.cumsum(lengths) - lengths
    scaled = logits / math.sqrt(d_h)
    exp = np.exp(scaled - np.repeat(np.maximum.reduceat(scaled, starts), lengths))
    return exp / np.repeat(np.add.reduceat(exp, starts), lengths)


def intent_logits(h_int: np.ndarray, W_cls: np.ndarray, b_cls: np.ndarray) -> np.ndarray:
    if h_int.shape[-1] != W_cls.shape[1]:
        raise ValueError("pooled width disagrees with classifier")
    return h_int @ W_cls.T + b_cls


def intent_forward(
    H: np.ndarray,
    lengths: np.ndarray,
    params: dict[str, np.ndarray],
    mode: str = "attention",
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
):
    """Pooled intent logits for a batch.

    H holds the (T, d_h) packed rows of b sequences of the given (b,)
    lengths. Returns (y_int, alpha, cache). alpha is the (T,) pooling weight
    of each row (after attention dropout, when active); in start-token mode
    it is the indicator of each sequence's first row. cache["h_int"] is the
    pooled state. Dropout masks are drawn at the packed shapes, (T,) for the
    pooling weights (no renormalization) and (b, d_h) for h_int after the
    tanh.
    """
    if mode not in POOL_MODES:
        raise ValueError(f"unknown pooling mode {mode!r}")
    if H.ndim != 2 or len(H) != np.sum(lengths):
        raise ValueError("H must hold one row per position of the lengths")
    starts = np.cumsum(lengths) - lengths

    if mode == "attention":
        logits = attention_logits(H, params["int.W_score"], params["int.v_score"])
        alpha_clean = attention_weights(logits, lengths, H.shape[1])
        att_drop = dropout_mask(rng, alpha_clean.shape, dropout_rate, H.dtype)
        alpha = apply_mask(alpha_clean, att_drop)
        h_int = np.tanh(np.add.reduceat(alpha[:, None] * H, starts, axis=0))
    else:
        h_int = np.tanh(H[starts] @ params["int.W_pool"].T + params["int.b_pool"])
        alpha_clean, att_drop = None, None
        alpha = np.zeros(len(H), dtype=H.dtype)
        alpha[starts] = 1.0

    h_drop = dropout_mask(rng, h_int.shape, dropout_rate, H.dtype)
    h_used = apply_mask(h_int, h_drop)
    y_int = intent_logits(h_used, params["int.W_cls"], params["int.b_cls"])

    cache = dict(
        H=H, mode=mode, lengths=lengths, starts=starts, alpha_clean=alpha_clean,
        att_drop=att_drop, alpha=alpha, h_int=h_int, h_drop=h_drop,
        h_used=h_used,
    )
    return y_int, alpha, cache


def intent_backward(
    d_y_int: np.ndarray, cache: dict, params: dict[str, np.ndarray]
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Backprop through intent_forward.

    d_y_int must already combine every consumer of the intent logits (the
    intent loss and the slot head's fused probabilities). Returns
    (d_H, grads): d_H is packed like H, and grads are under the "int."
    names the forward pass read.
    """
    H, h_int = cache["H"], cache["h_int"]
    lengths, starts = cache["lengths"], cache["starts"]

    grads = {
        "int.W_cls": d_y_int.T @ cache["h_used"],
        "int.b_cls": d_y_int.sum(axis=0),
    }
    d_h_used = d_y_int @ params["int.W_cls"]
    d_h_int = apply_mask(d_h_used, cache["h_drop"])
    d_pre_tanh = d_h_int * (1.0 - h_int * h_int)

    if cache["mode"] == "attention":
        alpha, alpha_clean = cache["alpha"], cache["alpha_clean"]
        d_pooled = np.repeat(d_pre_tanh, lengths, axis=0)
        d_alpha = np.einsum("td,td->t", d_pooled, H)
        d_H = alpha[:, None] * d_pooled

        d_alpha_clean = apply_mask(d_alpha, cache["att_drop"])
        inner = np.repeat(
            np.add.reduceat(d_alpha_clean * alpha_clean, starts), lengths
        )
        d_logits = alpha_clean * (d_alpha_clean - inner) / math.sqrt(H.shape[1])

        t = np.tanh(H @ params["int.W_score"].T)
        d_proj = d_logits[:, None] * params["int.v_score"] * (1.0 - t * t)
        grads["int.v_score"] = t.T @ d_logits
        grads["int.W_score"] = d_proj.T @ H
        d_H = d_H + d_proj @ params["int.W_score"]
    else:
        grads["int.W_pool"] = d_pre_tanh.T @ H[starts]
        grads["int.b_pool"] = d_pre_tanh.sum(axis=0)
        d_H = np.zeros_like(H)
        d_H[starts] = d_pre_tanh @ params["int.W_pool"]

    return d_H, grads
