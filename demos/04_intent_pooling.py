"""
Attention pooling for the intent representation
===============================================

The intent head scores every encoder state with a small feed-forward
probe, temperature-scales by 1/sqrt(d_h), masks padding with -inf, and
softmaxes into pooling weights. The pooled state is a weight-averaged
mix of the sequence, squashed by tanh.
"""

import numpy as np

from jointnlu.encoder import EncoderConfig
from jointnlu.intent_head import attention_weights, intent_forward
from jointnlu.model import ModelConfig, init_model_params

rng = np.random.default_rng(7)
d_h, n_intents = 16, 5
# The intent head reads the "int." rows of the model's parameter table;
# draw a whole small model and hand the head its flat parameter dict.
config = ModelConfig(
    encoder=EncoderConfig(vocab_size=8, d_h=d_h, n_heads=4),
    n_intents=n_intents, n_slots=3,
)
params = init_model_params(config, rng, scale=0.3)

# A batch of two sequences; the second one is padded after 4 positions.
H = rng.normal(size=(2, 6, d_h))
pad_mask = np.ones((2, 6), dtype=bool)
pad_mask[1, 4:] = False

y_int, alpha, cache = intent_forward(H, pad_mask, params, "attention")
pooled = cache["h_int"]

print("intent logits shape:", y_int.shape)
print("pooling weights:")
for row, mask in zip(alpha, pad_mask):
    print("  ", np.round(row, 3), "sum =", round(float(row.sum()), 6))

# Two structural facts: each row is a probability simplex over the real
# positions, and padded positions get exactly zero mass.
assert np.allclose(alpha.sum(axis=1), 1.0)
assert (alpha[1, 4:] == 0.0).all()
print("padded positions hold zero weight")

# The pooled state lives in tanh's range.
print("pooled state range:",
      round(float(pooled.min()), 3), "to", round(float(pooled.max()), 3))

# ------------------------------------------------------------------
# The 1/sqrt(d_h) temperature: dividing the raw scores by sqrt(d_h)
# before the softmax is the same as calling the weight function with
# that scaling already applied and unit temperature.
# ------------------------------------------------------------------
logits = rng.normal(size=(3, 8)) * 4.0
direct = attention_weights(logits, d_h)
rescaled = attention_weights(logits / np.sqrt(d_h), 1)
print("temperature equivalence:", np.allclose(direct, rescaled, atol=1e-12))

# Sharper scores concentrate the pooled mix; the temperature keeps the
# softmax from saturating as d_h grows.
flat = attention_weights(np.array([[0.5, 0.4, 0.6]]), d_h)
sharp = attention_weights(np.array([[5.0, -4.0, 6.0]]), d_h)
print("near-uniform weights:", np.round(flat, 3))
print("peaked weights:      ", np.round(sharp, 3))
