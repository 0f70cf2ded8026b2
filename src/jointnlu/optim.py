"""Learning-rate schedule and decoupled-weight-decay Adam.

Parameters live in a flat name -> array dict and are updated in place so
that any views handed out (e.g. to fused heads) stay valid across steps.
"""

from __future__ import annotations

from typing import Dict, Iterable

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


class AdamW:
    """Adam with bias correction and decoupled weight decay.

    Only the tensors named in `decayed` take weight decay (for the model,
    the rows of model.param_spec whose decay flag is set). The decay term
    is scaled by the current learning rate, so a step taken at lr=0 leaves
    every parameter exactly unchanged.
    """

    def __init__(
        self,
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
        self.decayed = frozenset(decayed)
        self.t = 0
        self._m: Dict[str, np.ndarray] = {}
        self._v: Dict[str, np.ndarray] = {}

    def step(
        self,
        params: Dict[str, np.ndarray],
        grads: Dict[str, np.ndarray],
        lr: float,
    ) -> None:
        """Apply one update in place. `grads` must hold exactly one gradient
        per tensor of `params`, by name and shape; otherwise ValueError is
        raised before anything changes."""
        if lr < 0.0:
            raise ValueError("lr must be nonnegative")
        if grads.keys() != params.keys():
            missing = sorted(params.keys() - grads.keys())
            if missing:
                raise ValueError(f"no gradient for parameter {missing[0]!r}")
            extra = sorted(grads.keys() - params.keys())
            raise ValueError(f"gradient {extra[0]!r} names no parameter")
        for name, p in params.items():
            if grads[name].shape != p.shape:
                raise ValueError(
                    f"gradient shape {grads[name].shape} != parameter shape "
                    f"{p.shape} for {name!r}"
                )
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in params.items():
            g = grads[name]
            if name not in self._m:
                self._m[name] = np.zeros_like(p)
                self._v[name] = np.zeros_like(p)
            m, v = self._m[name], self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay > 0.0 and name in self.decayed:
                update = update + self.weight_decay * p
            p -= lr * update
