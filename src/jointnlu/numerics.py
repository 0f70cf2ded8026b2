"""Shared building blocks: softmax, GELU, layer norm, dropout masks, and
the scatter of packed rows (one per real piece of a (batch, length) batch,
in np.flatnonzero(pad_mask) order) to the padded layout that attention
needs when the batch has padding.

Every forward helper that participates in training has an exact hand-derived
backward companion; caches carry whatever the backward pass needs. Each
helper computes in the float dtype of the arrays it is given (float32 for
the model in training, evaluation and serving; float64 in the
finite-difference checks): its constants are Python floats, which numpy
never lets widen an array's dtype, where an np.float64 scalar would turn a
float32 array into float64.

GELU is the tanh form of BERT's and GPT's reference code, 0.5*x*(1 +
tanh(c*(x + a*x^3))) with c = sqrt(2/pi) and a = 0.044715, at every dtype
and size. It is within 4.8e-4 of the erf form x*Phi(x).

The softmaxes reduce over the last axis only. `stable_softmax` takes row
maxima by a size rule that reads the array: a halving tree of np.fmax over
many short rows (attention's score block at training and batch-64 shapes),
else np.fmax.reduce. Both give the same values, so the rule changes no
number. It then exponentiates and normalizes in place, on its one temporary.

Dropout rates live on a grid of 1/65536 (DROPOUT_GRID). A mask of n entries
takes ceil(n/4) raw 64-bit words from the generator, read little-endian as
4n 16-bit values (the same draw on every byte order), and keeps each entry
whose value is at least drop = round(rate * 65536): exactly a (65536 - drop)
/ 65536 share of the values. Kept entries are scaled by 65536 / (65536 -
drop), so each entry's expectation is 1 up to the rounding of that scale.
No float is drawn, and the draw does not depend on the mask's dtype.
"""

from __future__ import annotations

import math

import numpy as np

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715

# BERT's value. At variance ~1 it is below float32's resolution, a no-op. On
# a constant row it keeps 1/sqrt(var) finite; if float32 rounds that row's
# mean, the offset left in every entry normalizes to |xhat| < 1, not to 0.
LN_EPS = 1e-12

DROPOUT_GRID = 65536  # dropout rates are taken as multiples of 1/DROPOUT_GRID


# The softmaxes reduce with np.fmax.reduce / np.add.reduce: the arithmetic
# of np.max / np.sum without their wrapper overhead. fmax differs from
# np.maximum only on NaN, and it is faster over short rows. Over many short
# rows, though, numpy's reduce loop costs more per row than the arithmetic:
# there stable_softmax takes its last-axis maxima from _row_maxima's halving
# tree, which makes a few calls over all rows at once. The size rule reads
# the array: at least _TREE_MIN_ROWS rows of at most _TREE_MAX_WIDTH. Float32
# on one thread, the tree overtakes the reduce at about 256 rows for widths
# 7-14 (batch 1's (1, 4, 7, 7) block has 28 rows and keeps the reduce); at
# width 20 the crossover is near 1,000 rows and the gain small. Max is
# exact, so both give the same maxima, and the same softmax.
_TREE_MIN_ROWS = 256
_TREE_MAX_WIDTH = 16


def _row_maxima(x: np.ndarray) -> np.ndarray:
    """The values of np.fmax.reduce(x, axis=-1, keepdims=True) by a halving
    tree: each level takes np.fmax of the two halves of the last axis, an
    odd tail folded into column 0."""
    m, w = x, x.shape[-1]
    while w > 1:
        half = w // 2
        top = np.fmax(m[..., :half], m[..., half:2 * half])
        if w % 2:
            np.fmax(top[..., :1], m[..., w - 1:w], out=top[..., :1])
        m, w = top, half
    return m


def stable_softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax that tolerates -inf entries (they get probability zero)."""
    # The first test, implied by the third, is the cheapest, and it alone
    # turns the smallest blocks away.
    if (scores.size >= _TREE_MIN_ROWS
            and 0 < scores.shape[-1] <= _TREE_MAX_WIDTH
            and scores.size >= _TREE_MIN_ROWS * scores.shape[-1]):
        exp = scores - _row_maxima(scores)
    else:
        exp = scores - np.fmax.reduce(scores, axis=-1, keepdims=True)
    np.exp(exp, out=exp)
    exp /= np.add.reduce(exp, axis=-1, keepdims=True)
    return exp


def softmax_backward(d_probs: np.ndarray, probs: np.ndarray) -> np.ndarray:
    inner = np.add.reduce(d_probs * probs, axis=-1, keepdims=True)
    return probs * (d_probs - inner)


def log_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - np.fmax.reduce(scores, axis=-1, keepdims=True)
    log_total = np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))
    return shifted - log_total


def gelu(x: np.ndarray):
    """Returns (gelu(x), t) with t = tanh(c*(x + a*x^3)), which gelu_grad
    reuses instead of evaluating tanh again."""
    t = np.tanh(_GELU_C * x * (1.0 + _GELU_A * x * x))
    return 0.5 * x * (1.0 + t), t


def gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """d gelu / dx = 0.5*(1 + t) + 0.5*x*(1 - t^2)*c*(1 + 3a*x^2)."""
    return 0.5 * (1.0 + t) + 0.5 * _GELU_C * x * (1.0 - t * t) * (
        1.0 + 3.0 * _GELU_A * x * x)


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Normalize the last axis to zero mean, unit variance; affine rescale.

    Returns (y, cache) where cache feeds layer_norm_backward. Means are
    np.add.reduce(...) / d, the arithmetic of ndarray.mean without its
    wrapper overhead.
    """
    d = x.shape[-1]
    mean = np.add.reduce(x, axis=-1, keepdims=True) / d
    centered = x - mean
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / d
    inv_sigma = 1.0 / np.sqrt(var + LN_EPS)
    xhat = centered * inv_sigma
    return gain * xhat + bias, (xhat, inv_sigma, gain)


def layer_norm_backward(d_y: np.ndarray, cache):
    """Returns (d_x, d_gain, d_bias); gain/bias grads summed over leading axes."""
    xhat, inv_sigma, gain = cache
    lead = tuple(range(d_y.ndim - 1))
    d_bias = d_y.sum(axis=lead)
    d_gain = (d_y * xhat).sum(axis=lead)
    d = d_y.shape[-1]
    d_xhat = d_y * gain
    mean_dxhat = np.add.reduce(d_xhat, axis=-1, keepdims=True) / d
    mean_dxhat_xhat = np.add.reduce(d_xhat * xhat, axis=-1, keepdims=True) / d
    d_x = inv_sigma * (d_xhat - mean_dxhat - xhat * mean_dxhat_xhat)
    return d_x, d_gain, d_bias


def dropout_steps(rate: float) -> int:
    """round(rate * DROPOUT_GRID), the number of 16-bit values a mask drops.
    ValueError for a rate outside [0, 1), and for one the grid cannot hold:
    a positive rate that rounds to no step would turn dropout off, and one
    that rounds to every step would keep nothing and scale by 1/0."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout_rate must be in [0, 1), got {rate}")
    drop = round(rate * DROPOUT_GRID)
    if drop == DROPOUT_GRID or (drop == 0 and rate > 0.0):
        raise ValueError(f"dropout_rate {rate} is off the 1/{DROPOUT_GRID} grid "
                         f"of dropout rates: it rounds to {drop} steps, and a "
                         f"rate must round to 1 to {DROPOUT_GRID - 1} of them")
    return drop


def dropout_mask(
    rng: np.random.Generator | None,
    shape: tuple[int, ...],
    rate: float,
    dtype: np.dtype,
) -> np.ndarray | None:
    """Inverted-dropout multiplier of the given float dtype, or None when
    dropout is inactive.

    The rate is taken on the 1/65536 grid (dropout_steps). The mask reads
    ceil(size/4) raw words of the generator's bit stream as little-endian
    16-bit values, one per entry, and keeps the entries whose value is at
    least drop = dropout_steps(rate). Kept entries are 65536/(65536 - drop),
    the inverse of the exact keep fraction, rounded to `dtype`. The draws do
    not depend on the dtype.
    """
    drop = dropout_steps(rate)
    if drop == 0 or rng is None:
        return None
    size = math.prod(shape)
    words = rng.bit_generator.random_raw(-(-size // 4))
    bits = words.astype("<u8", copy=False).view("<u2")[:size].reshape(shape)
    mask = (bits >= drop).astype(dtype)
    mask *= DROPOUT_GRID / (DROPOUT_GRID - drop)
    return mask


def apply_mask(x: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    return x if mask is None else x * mask


def scatter_rows(x: np.ndarray, rows: np.ndarray, b: int, n: int) -> np.ndarray:
    """(T, ...) packed rows -> (b, n, ...), zeros at padded positions."""
    out = np.zeros((b * n,) + x.shape[1:], dtype=x.dtype)
    out[rows] = x
    return out.reshape((b, n) + x.shape[1:])

