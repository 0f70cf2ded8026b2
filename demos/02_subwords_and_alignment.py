"""
Sub-word tokenization and label alignment
=========================================

Trains a word-piece vocabulary, shows greedy longest-match tokenization,
and aligns word-level tags onto pieces: the first piece of a word carries
the word's tag, continuation pieces carry the X marker, and the framing
markers never receive a real tag. De-alignment inverts the mapping.
"""

import numpy as np

from jointnlu import FEATURE_DIM, align, de_align, train_vocab
from jointnlu.tagging import X_TAG, parse_tags

# ------------------------------------------------------------------
# A tiny vocabulary learned from repeated words. Pair merges happen in
# frequency order, so frequent words end up as single pieces.
# ------------------------------------------------------------------
corpus = ["play", "play", "play", "playing", "played", "boston", "boston",
          "bos", "rain", "rainy", "rainy"]
vocab = train_vocab(corpus, target_size=60)
print("vocabulary size:", len(vocab))

for word in ("play", "playing", "bostonian", "zzz!"):
    ids = vocab.tokenize(word)
    print(f"{word:10s} ->", [vocab.piece(i) for i in ids])

# ------------------------------------------------------------------
# Alignment. Features are per-word rows; markers and continuations get
# zero rows. Active positions mark exactly one piece per surviving word.
# ------------------------------------------------------------------
words = ["playing", "rainy", "boston"]
tags = parse_tags(["O", "B-condition", "B-city"])
features = np.zeros((len(words), FEATURE_DIM))
seq = align(words, tags, features, vocab, max_len=16)

# The sequence keeps one tag per kept word; the per-piece view puts each
# at its word's first piece and X everywhere else, as make_batch does.
word_tags = iter(seq.tags)
piece_tags = [next(word_tags) if active else X_TAG for active in seq.active]
print("\npiece  tag  active")
for pid, tag, active in zip(seq.piece_ids, piece_tags, seq.active):
    print(f"{vocab.piece(pid):8s} {str(tag):12s} {active}")

# De-alignment gathers the predictions at active positions back to one
# tag per word; here we feed the gold piece tags through, so the round
# trip returns the original word tags.
restored = de_align(seq, piece_tags)
print("\nround trip ok:", [str(t) for t in restored] == [str(t) for t in tags])

# Truncation drops trailing words whole rather than splitting a word
# across the boundary; the result is flagged instead of raising.
short = align(words * 4, list(tags) * 4, np.zeros((12, FEATURE_DIM)), vocab,
              max_len=8)
print("truncated:", short.truncated, "| words kept:", len(short.tags))
