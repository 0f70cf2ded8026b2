"""Per-position slot scoring with intent and word-feature fusion.

Each position's input is the concatenation [intent probabilities;
word-feature embedding; hidden state], squeezed through dropout and one
linear projection. The intent block uses the softmax of the CURRENT intent
logits and stays differentiable, so slot supervision also shapes the intent
head. The feature block can be switched off, narrowing the projection to
[intent probabilities; hidden state]. Both passes read the model's flat
parameter dict under its names for the projection, "W_s" and "b_s".
"""

from __future__ import annotations

import numpy as np

from .numerics import apply_mask, dropout_mask, softmax_backward, stable_softmax


def slot_forward(
    y_int: np.ndarray,
    f_words: np.ndarray | None,
    H: np.ndarray,
    params: dict[str, np.ndarray],
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
):
    """Batched slot scores (batch, length, n_slots) and the cache
    slot_backward needs.

    y_int is (batch, n_intents); its softmax row is broadcast to every
    position. f_words is (batch, length, 32) or None when the feature path is
    ablated. Dropout hits the concatenated vector.
    """
    b, n, _ = H.shape
    p_int = stable_softmax(y_int, axis=-1)
    blocks = [np.broadcast_to(p_int[:, None, :], (b, n, p_int.shape[-1]))]
    if f_words is not None:
        if f_words.shape[:2] != (b, n):
            raise ValueError("feature block shape disagrees with hidden states")
        blocks.append(f_words)
    blocks.append(H)
    fused = np.concatenate(blocks, axis=-1)
    W_s = params["W_s"]
    if W_s.shape[1] != fused.shape[-1]:
        raise ValueError(
            f"W_s expects width {W_s.shape[1]}, fused input has {fused.shape[-1]}"
        )
    drop = dropout_mask(rng, fused.shape, dropout_rate)
    fused_used = apply_mask(fused, drop)
    logits = fused_used @ W_s.T + params["b_s"]
    cache = dict(
        p_int=p_int, f_width=0 if f_words is None else f_words.shape[-1],
        drop=drop, fused_used=fused_used,
    )
    return logits, cache


def slot_backward(
    d_logits: np.ndarray, cache: dict, params: dict[str, np.ndarray]
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, dict[str, np.ndarray]]:
    """Backprop through slot_forward.

    Returns (d_y_int, d_f_words, d_H, grads) where grads holds W_s and b_s.
    d_f_words is None when the feature path was off.
    """
    p_int = cache["p_int"]
    n_int = p_int.shape[-1]
    f_width, W_s = cache["f_width"], params["W_s"]

    flat_d = d_logits.reshape(-1, d_logits.shape[-1])
    flat_fused = cache["fused_used"].reshape(-1, W_s.shape[1])
    grads = {"W_s": flat_d.T @ flat_fused, "b_s": flat_d.sum(axis=0)}

    d_fused = apply_mask(d_logits @ W_s, cache["drop"])
    d_p_rows = d_fused[..., :n_int]
    d_p_int = d_p_rows.sum(axis=1)  # every position shares the intent row
    d_y_int = softmax_backward(d_p_int, p_int, axis=-1)
    d_f_words = d_fused[..., n_int:n_int + f_width] if f_width else None
    d_H = d_fused[..., n_int + f_width:]
    return d_y_int, d_f_words, d_H, grads
