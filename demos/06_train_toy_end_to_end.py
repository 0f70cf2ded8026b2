"""
End-to-end training on the toy grammar
======================================

Generates a small corpus, trains the joint model for a few epochs with a
fast learning rate, evaluates on held-out data, and inspects what the
intent pooling attends to. Uses a slimmed encoder so the whole script
runs in seconds; see the README for the full-scale settings.
"""

import tempfile
from pathlib import Path

import numpy as np

from jointnlu import (
    EncoderConfig,
    TrainConfig,
    evaluate,
    load_checkpoint,
    predict,
    save_checkpoint,
    toy_grammar,
    train,
)

data = toy_grammar(seed=1, n_train=400, n_dev=60, n_test=60)
print("train/dev/test sizes:",
      len(data.train), len(data.dev), len(data.test))
print("sample: ", " ".join(data.train[1].words), "->", data.train[1].intent)

config = TrainConfig(epochs=8, batch_size=16, learning_rate=1.5e-3,
                     dropout_rate=0.1, max_len=24, seed=1)
slim = EncoderConfig(vocab_size=4, d_h=32, n_layers=1, n_heads=4,
                     d_ff=64, max_len=24)

result = train(data.train, data.dev, config, data.featurizer(), encoder=slim)
print("\nepoch  l_joint  dev_intent  dev_slot_f1")
for r in result.history:
    print(f"{r.epoch:5d}  {r.l_joint:7.4f}  {r.dev.intent_acc:10.3f}"
          f"  {r.dev.slot_f1:11.3f}")
print("selected epoch:", result.best_epoch)

# ------------------------------------------------------------------
# Held-out scoring with the dev-selected parameters.
# ------------------------------------------------------------------
ckpt = result.checkpoint
report = evaluate(ckpt, data.test)
print("\ntest report:")
print(report.to_kv_text())

# ------------------------------------------------------------------
# The checkpoint is a single self-contained archive: parameters plus
# every vocabulary and annotation resource needed to run on raw text.
# ------------------------------------------------------------------
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.npz"
    save_checkpoint(ckpt, path)
    reloaded = load_checkpoint(path)
    print("checkpoint round trip, tensors equal:",
          all(np.array_equal(v, reloaded.params[k])
              for k, v in ckpt.params.items()))

# ------------------------------------------------------------------
# Serving takes raw words. What does the intent pooling look at? Dump
# the weights for one utterance; the framing markers participate like
# any other piece.
# ------------------------------------------------------------------
words = data.test[1].words
(pred,) = predict(reloaded, [words])
print("served:", pred.intent, " ".join(str(t) for t in pred.tags))

print("pooling weights for:", " ".join(words))
for pid, weight in zip(pred.seq.piece_ids, pred.alpha):
    bar = "#" * int(round(40 * float(weight)))
    print(f"  {reloaded.piece_vocab.piece(pid):12s} {weight:6.3f} {bar}")
