"""Fresh parameters for one part of the model, for tests that drive a single
head or the encoder on its own.

The tensors come from the package's own table (`model.param_spec`) through
`init_model_params`, under the same names the model uses ("enc.l0.Wq",
"feat.W_w", "int.W_cls", "W_s", ...), which is how every part reads them.
"""

from __future__ import annotations

import numpy as np

from jointnlu.encoder import EncoderConfig
from jointnlu.model import ModelConfig, init_model_params


def part_params(
    rng: np.random.Generator,
    prefix: str,
    *,
    encoder: EncoderConfig | None = None,
    d_h: int = 8,
    scale: float = 0.02,
    **model_fields,
) -> dict[str, np.ndarray]:
    """The tensors under `prefix` of a model built from `model_fields`
    (ModelConfig fields; one intent and one slot unless given)."""
    if encoder is None:
        encoder = EncoderConfig(
            vocab_size=4, d_h=d_h, n_layers=1, n_heads=1, d_ff=4, max_len=4
        )
    fields = dict(n_intents=1, n_slots=1)
    fields.update(model_fields)
    params = init_model_params(ModelConfig(encoder=encoder, **fields), rng, scale)
    return {k: v for k, v in params.items() if k.startswith(prefix)}
