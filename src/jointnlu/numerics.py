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

GELU's erf is chosen by its argument's dtype and size. A float32 array of
at least _RATIONAL_ERF_MIN_SIZE elements (a training step, dev evaluation,
batch-64 serving) gets _rational_erf, the clamped odd rational
x*P(x^2)/Q(x^2) with Eigen's float32 coefficients, at a quarter or less of
scipy's cost per element and within 4.5e-7 of float64 erf. Smaller arrays (a
batch-1 request) and float64 (the finite-difference checks) keep
scipy.special.erf: below the crossover the fixed cost of the rational
form's two dozen ufunc calls exceeds scipy's, and float64 needs scipy's
accuracy. So scipy stays a runtime dependency.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# BERT's value. At variance ~1 it is below float32's resolution, a no-op. On
# a constant row it keeps 1/sqrt(var) finite; if float32 rounds that row's
# mean, the offset left in every entry normalizes to |xhat| < 1, not to 0.
LN_EPS = 1e-12

_RATIONAL_ERF_MIN_SIZE = 4096
_ERF_CLAMP = 4.0  # float32 erf(4) rounds to 1
# Eigen's float32 erf: odd numerator and even denominator coefficients in
# x^2, highest power first.
_ERF_P = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
          -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
          -1.60960333262415e-02)
_ERF_Q = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
          -7.37332916720468e-03, -1.42647390514189e-02)


# The softmaxes reduce with np.fmax.reduce / np.add.reduce: the arithmetic
# of np.max / np.sum without their wrapper overhead. fmax differs from
# np.maximum only on NaN, and it is faster over short rows.


def stable_softmax(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax that tolerates -inf entries (they get probability zero)."""
    shifted = scores - np.fmax.reduce(scores, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.add.reduce(exp, axis=axis, keepdims=True)


def softmax_backward(d_probs: np.ndarray, probs: np.ndarray, axis: int = -1) -> np.ndarray:
    inner = np.add.reduce(d_probs * probs, axis=axis, keepdims=True)
    return probs * (d_probs - inner)


def log_softmax(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = scores - np.fmax.reduce(scores, axis=axis, keepdims=True)
    log_total = np.log(np.add.reduce(np.exp(shifted), axis=axis, keepdims=True))
    return shifted - log_total


def _polyval(coeffs: tuple[float, ...], x2: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Horner's rule in x2, computed in `out`."""
    np.multiply(x2, coeffs[0], out=out)
    for c in coeffs[1:-1]:
        out += c
        out *= x2
    out += coeffs[-1]
    return out


def _rational_erf(x: np.ndarray) -> np.ndarray:
    """float32 erf as x*P(x^2)/Q(x^2) on x clamped to +-4: exactly odd, +-1
    at +-inf, NaN kept. Three arrays of x's size: Q is computed in the
    clamped copy once P no longer needs it."""
    t = np.clip(x, -_ERF_CLAMP, _ERF_CLAMP)
    x2 = t * t
    num = _polyval(_ERF_P, x2, np.empty_like(x2))
    num *= t
    num /= _polyval(_ERF_Q, x2, t)
    return num


def _erf(x: np.ndarray) -> np.ndarray:
    if x.dtype == np.float32 and x.size >= _RATIONAL_ERF_MIN_SIZE:
        return _rational_erf(x)
    return erf(x)


def gelu(x: np.ndarray):
    """Returns (gelu(x), one_erf) with one_erf = 1 + erf(x/sqrt 2), which
    gelu_grad reuses instead of evaluating erf again."""
    one_erf = 1.0 + _erf(x / _SQRT2)
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

