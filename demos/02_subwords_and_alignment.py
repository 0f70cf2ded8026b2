"""
Sub-word tokenization and label alignment
=========================================

Trains a word-piece vocabulary, shows greedy longest-match tokenization,
and aligns word-level tags onto pieces: the first piece of a word carries
the word's tag, continuation pieces carry the X marker, and the framing
markers never receive a real tag. Each word's feature code rides along on
every one of its pieces. De-alignment inverts the mapping.
"""

from jointnlu import (
    CaseClass,
    EntityClass,
    align,
    de_align,
    encode_features,
    feature_codes,
    train_vocab,
)
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
# Alignment. Features travel as one code per word (its entity and case
# class pair, as WordFeaturizer.featurize gives them); every piece of a
# word repeats it and the markers get a code of their own, whose feature
# row is zeros. Active positions mark exactly one piece per surviving word.
# ------------------------------------------------------------------
words = ["playing", "rainy", "boston"]
tags = parse_tags(["O", "B-condition", "B-city"])
codes = feature_codes(
    [EntityClass.NONE, EntityClass.NONE, EntityClass.CITY],
    [CaseClass.LOWER, CaseClass.LOWER, CaseClass.INIT_UPPER],
)
seq = align(words, tags, codes, vocab, max_len=16)

# The sequence keeps one tag per kept word; the per-piece view puts each
# at its word's first piece and X everywhere else, as make_batch does.
word_tags = iter(seq.tags)
piece_tags = [next(word_tags) if active else X_TAG for active in seq.active]
print("\npiece    tag          active  code  hot feature columns")
rows = encode_features(seq.features)  # what make_batch does once per batch
for pid, tag, active, code, row in zip(seq.piece_ids, piece_tags, seq.active,
                                       seq.features, rows):
    hot = [int(i) for i in row.nonzero()[0]]
    print(f"{vocab.piece(pid):8s} {str(tag):12s} {str(active):7s} {code:4d}  {hot}")

# De-alignment gathers the predictions at active positions back to one
# tag per word; here we feed the gold piece tags through, so the round
# trip returns the original word tags.
restored = de_align(seq, piece_tags)
print("\nround trip ok:", [str(t) for t in restored] == [str(t) for t in tags])

# Truncation drops trailing words whole rather than splitting a word
# across the boundary; the result is flagged instead of raising.
short = align(words * 4, list(tags) * 4, codes * 4, vocab, max_len=8)
print("truncated:", short.truncated, "| words kept:", len(short.tags))
