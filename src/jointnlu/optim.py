"""Learning-rate schedule, the flat parameter buffer and decoupled-weight-
decay Adam.

The trainer keeps every parameter tensor as a view into one flat float64
buffer (`flat_buffer`), so AdamW updates all of them with one in-place step
over flat moment and scratch buffers. Views handed out stay valid across
steps.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Tuple

import numpy as np


def lr_schedule(
    step: int, total_steps: int, warmup_proportion: float, peak_lr: float
) -> float:
    """Linear ramp 0 -> peak over the warmup span, then linear peak -> 0."""
    if total_steps <= 0:
        raise ValueError("total_steps must be positive")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    if not 0.0 <= warmup_proportion <= 1.0:
        raise ValueError("warmup_proportion must be in [0, 1]")
    if not 0.0 <= peak_lr < np.inf:
        raise ValueError("learning rate must be finite and nonnegative")

    warmup = warmup_proportion * total_steps
    if step <= warmup:
        # warmup == 0 means the ramp is skipped entirely
        return peak_lr if warmup == 0.0 else peak_lr * step / warmup
    return peak_lr * (total_steps - step) / (total_steps - warmup)


def flat_buffer(
    shapes: Mapping[str, Tuple[int, ...]], dtype=np.float64
) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """One zeroed 1-d buffer holding the named tensors end to end, in the
    order of `shapes`, and a view of it per name."""
    sizes = [math.prod(shape) for shape in shapes.values()]
    flat = np.zeros(sum(sizes), dtype=dtype)
    views, lo = {}, 0
    for (name, shape), size in zip(shapes.items(), sizes):
        views[name] = flat[lo:lo + size].reshape(shape)
        lo += size
    return flat, views


class AdamW:
    """Adam with bias correction and decoupled weight decay, over the flat
    buffer that `flat_buffer(shapes)` lays out.

    Only the tensors named in `decayed` take weight decay (for the model,
    the rows of model.param_spec whose decay flag is set). The decay term
    is scaled by the current learning rate, so a step taken at lr=0 leaves
    every parameter exactly unchanged.
    """

    def __init__(
        self,
        shapes: Mapping[str, Tuple[int, ...]],
        decayed: Iterable[str],
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-6,
        weight_decay: float = 0.01,
    ) -> None:
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        if not 0.0 < eps < np.inf:
            raise ValueError("eps must be finite and positive")
        if not 0.0 <= weight_decay < np.inf:
            raise ValueError("weight_decay must be finite and nonnegative")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        # The gradient buffer doubles as scratch once the moments have read it.
        self._g, self._grads = flat_buffer(shapes)
        decay_mask, masks = flat_buffer(shapes)
        for name in frozenset(decayed) & masks.keys():
            masks[name][...] = 1.0
        self._decay_mask = decay_mask
        self._m = np.zeros_like(self._g)
        self._v = np.zeros_like(self._g)
        self._scratch = np.zeros_like(self._g)

    def step(
        self, params: np.ndarray, grads: Mapping[str, np.ndarray], lr: float
    ) -> None:
        """Apply one update in place to the flat float64 `params`. `grads`
        must hold exactly one gradient per tensor of the layout, by name and
        shape, of any float dtype; otherwise ValueError is raised before
        anything changes."""
        if lr < 0.0:
            raise ValueError("lr must be nonnegative")
        if params.shape != self._g.shape:
            raise ValueError(
                f"params must be a flat buffer of {self._g.size} values, "
                f"got shape {params.shape}"
            )
        views = self._grads
        if grads.keys() != views.keys():
            missing = sorted(views.keys() - grads.keys())
            if missing:
                raise ValueError(f"no gradient for parameter {missing[0]!r}")
            extra = sorted(grads.keys() - views.keys())
            raise ValueError(f"gradient {extra[0]!r} names no parameter")
        for name, view in views.items():
            if grads[name].shape != view.shape:
                raise ValueError(
                    f"gradient shape {grads[name].shape} != parameter shape "
                    f"{view.shape} for {name!r}"
                )
        for name, view in views.items():
            np.copyto(view, grads[name])

        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        g, m, v, s = self._g, self._m, self._v, self._scratch
        # Per element, the arithmetic (and its order) of the textbook step:
        # m = b1 m + (1-b1) g; v = b2 v + (1-b2) g^2;
        # u = (m/bc1) / (sqrt(v/bc2) + eps) + wd p [decayed]; p -= lr u.
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=s)
        m += s
        v *= self.beta2
        np.square(g, out=s)
        s *= 1.0 - self.beta2
        v += s
        np.divide(v, bc2, out=s)
        np.sqrt(s, out=s)
        s += self.eps
        np.divide(m, bc1, out=g)
        g /= s
        if self.weight_decay > 0.0:
            np.multiply(params, self.weight_decay, out=s)
            s *= self._decay_mask
            g += s
        g *= lr
        params -= g
