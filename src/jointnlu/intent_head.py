"""Utterance-level intent classification over pooled hidden states.

The default pooling learns one scalar score per position (a tanh bottleneck
projected to a scalar), normalizes the scores with a temperature-scaled
softmax, and takes the tanh of the weighted sum of hidden states. Padded
positions get -inf scores and therefore zero pooling weight; start/end
marker positions participate like any other.

An alternative start-token mode pools by projecting the first position only,
the conventional classifier-head baseline, kept for ablations.

Both passes read the model's flat parameter dict under its "int." names
(model.param_spec); gradients come back under the same names.
"""

from __future__ import annotations

import numpy as np

from .numerics import apply_mask, dropout_mask, softmax_backward, stable_softmax

POOL_MODES = ("attention", "start_token")


def attention_logits(
    H: np.ndarray, pad_mask: np.ndarray, W_score: np.ndarray, v_score: np.ndarray
) -> np.ndarray:
    """Per-position pooling scores, -inf at padded positions.

    Score of position i is v_score . tanh(W_score @ H[i]).
    """
    if H.shape[-1] != W_score.shape[1] or W_score.shape[0] != v_score.shape[0]:
        raise ValueError("hidden width disagrees with scoring parameters")
    scores = np.tanh(H @ W_score.T) @ v_score
    return np.where(pad_mask, scores, -np.inf)


def attention_weights(logits: np.ndarray, d_h: int) -> np.ndarray:
    """Temperature-scaled softmax: softmax(logits / sqrt(d_h)) per row."""
    finite = np.isfinite(logits)
    if not finite.any(axis=-1).all():
        raise ValueError("a row has no finite pooling score (all padded)")
    return stable_softmax(logits / np.sqrt(d_h), axis=-1)


def intent_logits(h_int: np.ndarray, W_cls: np.ndarray, b_cls: np.ndarray) -> np.ndarray:
    if h_int.shape[-1] != W_cls.shape[1]:
        raise ValueError("pooled width disagrees with classifier")
    return h_int @ W_cls.T + b_cls


def intent_forward(
    H: np.ndarray,
    pad_mask: np.ndarray,
    params: dict[str, np.ndarray],
    mode: str = "attention",
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
):
    """Pooled intent logits for a batch.

    Returns (y_int, alpha, cache). alpha is the pooling weight row per
    sequence (after attention dropout, when active); in start-token mode it
    is the indicator of position 0. cache["h_int"] is the pooled state.
    Dropout is applied to the pooling weights (no renormalization) and to
    h_int after the tanh.
    """
    if mode not in POOL_MODES:
        raise ValueError(f"unknown pooling mode {mode!r}")
    b, n, d_h = H.shape
    if pad_mask.shape != (b, n):
        raise ValueError("pad_mask must match (batch, length)")

    if mode == "attention":
        logits = attention_logits(H, pad_mask, params["int.W_score"],
                                  params["int.v_score"])
        alpha_clean = attention_weights(logits, d_h)
        att_drop = dropout_mask(rng, alpha_clean.shape, dropout_rate)
        alpha = apply_mask(alpha_clean, att_drop)
        pooled = np.einsum("bn,bnd->bd", alpha, H)
        h_int = np.tanh(pooled)
    else:
        first = H[:, 0, :]
        h_int = np.tanh(first @ params["int.W_pool"].T + params["int.b_pool"])
        alpha_clean, att_drop = None, None
        alpha = np.zeros((b, n))
        alpha[:, 0] = 1.0

    h_drop = dropout_mask(rng, h_int.shape, dropout_rate)
    h_used = apply_mask(h_int, h_drop)
    y_int = intent_logits(h_used, params["int.W_cls"], params["int.b_cls"])

    cache = dict(
        H=H, mode=mode, alpha_clean=alpha_clean, att_drop=att_drop,
        alpha=alpha, h_int=h_int, h_drop=h_drop, h_used=h_used,
    )
    return y_int, alpha, cache


def intent_backward(
    d_y_int: np.ndarray, cache: dict, params: dict[str, np.ndarray]
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Backprop through intent_forward.

    d_y_int must already combine every consumer of the intent logits (the
    intent loss and the slot head's fused probabilities). Returns
    (d_H, grads) with grads under the "int." names the forward pass read.
    """
    H, h_int = cache["H"], cache["h_int"]
    d_h = H.shape[-1]

    grads = {
        "int.W_cls": d_y_int.T @ cache["h_used"],
        "int.b_cls": d_y_int.sum(axis=0),
    }
    d_h_used = d_y_int @ params["int.W_cls"]
    d_h_int = apply_mask(d_h_used, cache["h_drop"])
    d_pre_tanh = d_h_int * (1.0 - h_int * h_int)

    if cache["mode"] == "attention":
        alpha, alpha_clean = cache["alpha"], cache["alpha_clean"]
        d_alpha = np.einsum("bd,bnd->bn", d_pre_tanh, H)
        d_H = alpha[:, :, None] * d_pre_tanh[:, None, :]

        d_alpha_clean = apply_mask(d_alpha, cache["att_drop"])
        d_scaled = softmax_backward(d_alpha_clean, alpha_clean, axis=-1)
        d_logits = d_scaled / np.sqrt(d_h)

        t = np.tanh(H @ params["int.W_score"].T)
        d_t = d_logits[:, :, None] * params["int.v_score"][None, None, :]
        d_proj = d_t * (1.0 - t * t)
        grads["int.v_score"] = np.einsum("bnd,bn->d", t, d_logits)
        flat_proj = d_proj.reshape(-1, d_h)
        flat_H = H.reshape(-1, d_h)
        grads["int.W_score"] = flat_proj.T @ flat_H
        d_H = d_H + d_proj @ params["int.W_score"]
    else:
        first = H[:, 0, :]
        grads["int.W_pool"] = d_pre_tanh.T @ first
        grads["int.b_pool"] = d_pre_tanh.sum(axis=0)
        d_H = np.zeros_like(H)
        d_H[:, 0, :] = d_pre_tanh @ params["int.W_pool"]

    return d_H, grads
