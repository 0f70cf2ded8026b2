"""
Attention pooling for the intent representation
===============================================

The intent head scores every encoder state with a small feed-forward
probe, temperature-scales by 1/sqrt(d_h), and softmaxes the scores within
each sequence into pooling weights. The hidden states arrive packed, one
row per real piece, with each sequence's length saying which rows are
whose, so padding never enters the softmax. The pooled state is a
weight-averaged mix of the sequence, squashed by tanh.
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

# A batch of two sequences of 6 and 4 pieces: their 10 hidden states,
# packed one after the other, and the two lengths.
lengths = np.array([6, 4])
H = rng.normal(size=(int(lengths.sum()), d_h))

y_int, alpha, cache = intent_forward(H, lengths, params, "attention")
pooled = cache["h_int"]

print("intent logits shape:", y_int.shape)
print("pooling weights, one per real piece:")
segments = np.split(alpha, np.cumsum(lengths)[:-1])
for row in segments:
    print("  ", np.round(row, 3), "sum =", round(float(row.sum()), 6))

# Each sequence's weights form a probability simplex over its own pieces.
assert alpha.shape == (10,)
assert all(np.isclose(row.sum(), 1.0) for row in segments)
print("each sequence's weights sum to one")

# The pooled state lives in tanh's range.
print("pooled state range:",
      round(float(pooled.min()), 3), "to", round(float(pooled.max()), 3))

# ------------------------------------------------------------------
# The 1/sqrt(d_h) temperature: dividing the raw scores by sqrt(d_h)
# before the softmax is the same as calling the weight function with
# that scaling already applied and unit temperature.
# ------------------------------------------------------------------
logits = rng.normal(size=24) * 4.0
direct = attention_weights(logits, [8, 8, 8], d_h)
rescaled = attention_weights(logits / np.sqrt(d_h), [8, 8, 8], 1)
print("temperature equivalence:", np.allclose(direct, rescaled, atol=1e-12))

# Sharper scores concentrate the pooled mix; the temperature keeps the
# softmax from saturating as d_h grows.
flat = attention_weights(np.array([0.5, 0.4, 0.6]), [3], d_h)
sharp = attention_weights(np.array([5.0, -4.0, 6.0]), [3], d_h)
print("near-uniform weights:", np.round(flat, 3))
print("peaked weights:      ", np.round(sharp, 3))
