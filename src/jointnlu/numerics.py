"""Shared building blocks: softmax, GELU, layer norm, dropout masks, and
the scatter of packed rows (one per real piece of a (batch, length) batch,
in np.flatnonzero(pad_mask) order) to the padded layout that attention
needs.

Every forward helper that participates in training has an exact hand-derived
backward companion; caches carry whatever the backward pass needs. Each
helper computes in the float dtype of the arrays it is given (float32 for
the model in training, evaluation and serving; float64 in the
finite-difference checks): its constants are Python floats, which numpy
never lets widen an array's dtype, where an np.float64 scalar would turn a
float32 array into float64.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

LN_EPS = 1e-12


# The softmaxes reduce with np.maximum.reduce / np.add.reduce: the
# arithmetic of np.max / np.sum without their wrapper overhead.


def stable_softmax(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax that tolerates -inf entries (they get probability zero)."""
    shifted = scores - np.maximum.reduce(scores, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.add.reduce(exp, axis=axis, keepdims=True)


def softmax_backward(d_probs: np.ndarray, probs: np.ndarray, axis: int = -1) -> np.ndarray:
    inner = np.add.reduce(d_probs * probs, axis=axis, keepdims=True)
    return probs * (d_probs - inner)


def log_softmax(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = scores - np.maximum.reduce(scores, axis=axis, keepdims=True)
    log_total = np.log(np.add.reduce(np.exp(shifted), axis=axis, keepdims=True))
    return shifted - log_total


def gelu(x: np.ndarray):
    """Returns (gelu(x), one_erf) with one_erf = 1 + erf(x/sqrt 2), which
    gelu_grad reuses instead of evaluating erf again."""
    one_erf = 1.0 + erf(x / _SQRT2)
    return 0.5 * x * one_erf, one_erf


def gelu_grad(x: np.ndarray, one_erf: np.ndarray) -> np.ndarray:
    return 0.5 * one_erf + x * _INV_SQRT_2PI * np.exp(-0.5 * x * x)


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


def dropout_mask(
    rng: np.random.Generator | None,
    shape: tuple[int, ...],
    rate: float,
    dtype: np.dtype,
) -> np.ndarray | None:
    """Inverted-dropout multiplier of the given float dtype, or None when
    dropout is inactive.

    Kept entries are scaled by 1/(1-rate) so expectations are preserved. The
    draws do not depend on the dtype.
    """
    if rate < 0.0 or rate >= 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0 or rng is None:
        return None
    keep = rng.random(shape) >= rate
    return keep.astype(dtype) / (1.0 - rate)


def apply_mask(x: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    return x if mask is None else x * mask


def scatter_rows(x: np.ndarray, rows: np.ndarray, b: int, n: int) -> np.ndarray:
    """(T, ...) packed rows -> (b, n, ...), zeros at padded positions."""
    out = np.zeros((b * n,) + x.shape[1:], dtype=x.dtype)
    out[rows] = x
    return out.reshape((b, n) + x.shape[1:])

