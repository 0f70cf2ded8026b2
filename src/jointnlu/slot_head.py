"""Per-position slot scoring with intent and word-feature fusion.

Each real piece's input is the concatenation [intent probabilities;
word-feature embedding; hidden state], squeezed through dropout and one
linear projection. Every per-piece array is packed: one row per real piece,
sequence after sequence, `lengths` rows per sequence. The intent block uses
the softmax of the CURRENT intent logits and stays differentiable, so slot
supervision also shapes the intent head. The feature block can be switched
off, narrowing the projection to [intent probabilities; hidden state]. Both
passes read the model's flat parameter dict under its names for the
projection, "W_s" and "b_s".
"""

from __future__ import annotations

import numpy as np

from .numerics import apply_mask, dropout_mask, softmax_backward, stable_softmax


def slot_forward(
    y_int: np.ndarray,
    f_words: np.ndarray | None,
    H: np.ndarray,
    lengths: np.ndarray,
    params: dict[str, np.ndarray],
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
):
    """Slot scores (T, n_slots) for the T packed rows of b sequences of the
    given (b,) lengths, and the cache slot_backward needs.

    y_int is (b, n_intents); each sequence's softmax row is repeated onto
    its rows. f_words is (T, 32), or None when the feature path is ablated;
    H is (T, d_h); arrays that disagree on T or b raise ValueError. Dropout
    hits the concatenated vector, with the mask drawn at its packed shape.
    """
    starts = np.cumsum(lengths) - lengths
    p_int = stable_softmax(y_int)
    blocks = [np.repeat(p_int, lengths, axis=0)]
    if f_words is not None:
        blocks.append(f_words)
    blocks.append(H)
    fused = np.concatenate(blocks, axis=-1)
    W_s = params["W_s"]
    if W_s.shape[1] != fused.shape[-1]:
        raise ValueError(
            f"W_s expects width {W_s.shape[1]}, fused input has {fused.shape[-1]}"
        )
    drop = dropout_mask(rng, fused.shape, dropout_rate, fused.dtype)
    fused_used = apply_mask(fused, drop)
    logits = fused_used @ W_s.T + params["b_s"]
    cache = dict(
        p_int=p_int, f_width=0 if f_words is None else f_words.shape[-1],
        starts=starts, drop=drop, fused_used=fused_used,
    )
    return logits, cache


def slot_backward(
    d_logits: np.ndarray, cache: dict, params: dict[str, np.ndarray]
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, dict[str, np.ndarray]]:
    """Backprop through slot_forward, given the (T, n_slots) d_logits.

    Returns (d_y_int, d_f_words, d_H, grads) where grads holds W_s and b_s.
    d_f_words is None when the feature path was off.
    """
    p_int = cache["p_int"]
    n_int = p_int.shape[-1]
    f_width, W_s = cache["f_width"], params["W_s"]

    grads = {"W_s": d_logits.T @ cache["fused_used"], "b_s": d_logits.sum(axis=0)}
    d_fused = apply_mask(d_logits @ W_s, cache["drop"])
    # every row of a sequence shares its intent row
    d_p_int = np.add.reduceat(d_fused[:, :n_int], cache["starts"], axis=0)
    d_y_int = softmax_backward(d_p_int, p_int)
    d_f_words = d_fused[:, n_int:n_int + f_width] if f_width else None
    d_H = d_fused[:, n_int + f_width:]
    return d_y_int, d_f_words, d_H, grads
