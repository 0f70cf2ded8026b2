"""Word-piece vocabulary induction, greedy tokenization, and the alignment
bookkeeping that maps word-level tags onto piece-level sequences.

Aligned sequences are framed by start/end markers. The first piece of each
word carries the word's tag; every following piece and both markers carry X.
Word features are copied to every piece of the word; markers get zeros. A
boolean `active` mask remembers which positions are first pieces so that
piece-level predictions can be gathered back to word level.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Sequence

import numpy as np

from .features import FEATURE_DIM
from .tagging import AlignmentError, O_TAG, SlotTag, X_TAG

CONTINUATION = "##"

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
BOS_TOKEN = "[BOS]"
EOS_TOKEN = "[EOS]"
RESERVED_TOKENS = (PAD_TOKEN, UNK_TOKEN, BOS_TOKEN, EOS_TOKEN)

# Most distinct words one vocabulary remembers the piece ids of; a word first
# seen after that is segmented afresh on every call.
TOKENIZE_MEMO_WORDS = 1 << 16


@dataclass(frozen=True)
class WordPieceVocab:
    """Dense piece->id table; ids 0..3 are reserved, base pieces follow.

    `tokenize` remembers each word's piece ids, up to TOKENIZE_MEMO_WORDS
    words; the memo is not a field, so it takes no part in `==` or in what a
    checkpoint stores."""

    pieces: tuple[str, ...]

    def __post_init__(self):
        if tuple(self.pieces[: len(RESERVED_TOKENS)]) != RESERVED_TOKENS:
            raise ValueError("vocabulary must start with the reserved tokens")
        if len(set(self.pieces)) != len(self.pieces):
            raise ValueError("duplicate pieces in vocabulary")
        object.__setattr__(self, "ids", {p: i for i, p in enumerate(self.pieces)})
        object.__setattr__(self, "_memo", {})

    def __len__(self) -> int:
        return len(self.pieces)

    @property
    def bos_id(self) -> int:
        return self.ids[BOS_TOKEN]

    @property
    def eos_id(self) -> int:
        return self.ids[EOS_TOKEN]

    def piece(self, piece_id: int) -> str:
        return self.pieces[piece_id]

    def tokenize_pieces(self, word: str) -> list[str]:
        """Greedy longest-match-first segmentation.

        A word containing any character with no vocabulary entry collapses to
        a single [UNK]; words over the known alphabet always segment, since
        every character has both a word-initial and a continuation entry.
        """
        if not word:
            raise ValueError("cannot tokenize an empty word")
        out: list[str] = []
        pos = 0
        while pos < len(word):
            prefix = "" if pos == 0 else CONTINUATION
            end = len(word)
            piece = None
            while end > pos:
                cand = prefix + word[pos:end]
                if cand in self.ids:
                    piece = cand
                    break
                end -= 1
            if piece is None:
                return [UNK_TOKEN]
            out.append(piece)
            pos = end
        return out

    def tokenize(self, word: str) -> list[int]:
        """The word's piece ids, in a new list the caller may change."""
        piece_ids = self._memo.get(word)
        if piece_ids is None:
            piece_ids = tuple(self.ids[p] for p in self.tokenize_pieces(word))
            if len(self._memo) < TOKENIZE_MEMO_WORDS:
                self._memo[word] = piece_ids
        return list(piece_ids)


def _merge(a: str, b: str) -> str:
    return a + b.removeprefix(CONTINUATION)


def train_vocab(words: Iterable[str], target_size: int) -> WordPieceVocab:
    """Induce a word-piece vocabulary by greedy pair merging.

    The base inventory holds every character of the corpus in both
    word-initial and continuation form (tokenization totality); merges then
    add the most frequent adjacent pair until `target_size` pieces exist or
    no pair repeats. Ties are broken lexicographically, so the result is a
    pure function of the word multiset and the size.
    """
    counts = Counter(words)
    if not counts:
        raise ValueError("empty corpus")
    if any(not w for w in counts):
        raise ValueError("empty word in corpus")
    alphabet = sorted({c for w in counts for c in w})
    base = sorted(alphabet + [CONTINUATION + c for c in alphabet])
    floor = len(RESERVED_TOKENS) + len(base)
    if target_size < floor:
        raise ValueError(
            f"target_size {target_size} below base inventory "
            f"({len(base)} character pieces + {len(RESERVED_TOKENS)} reserved)"
        )

    segmented = {w: tuple([w[0]] + [CONTINUATION + c for c in w[1:]]) for w in counts}
    merged: list[str] = []
    while floor + len(merged) < target_size:
        pair_counts: Counter = Counter()
        for w, pieces in segmented.items():
            for a, b in zip(pieces, pieces[1:]):
                pair_counts[(a, b)] += counts[w]
        if not pair_counts:
            break
        best = min(pair_counts, key=lambda p: (-pair_counts[p], p))
        if pair_counts[best] < 2:
            break
        new_piece = _merge(*best)
        if new_piece not in merged:  # re-derivable via a different split
            merged.append(new_piece)
        for w, pieces in segmented.items():
            out = []
            i = 0
            while i < len(pieces):
                if i + 1 < len(pieces) and (pieces[i], pieces[i + 1]) == best:
                    out.append(new_piece)
                    i += 2
                else:
                    out.append(pieces[i])
                    i += 1
            segmented[w] = tuple(out)

    return WordPieceVocab(RESERVED_TOKENS + tuple(base) + tuple(merged))


@dataclass(frozen=True)
class AlignedSequence:
    """Piece-level view of one tagged utterance, framed by [BOS]/[EOS].

    All per-position tuples share one length. `active[i]` is True exactly at
    the first piece of each surviving word. `features` is (length, 23)
    float64.
    """

    piece_ids: tuple[int, ...]
    piece_tags: tuple[SlotTag, ...]
    active: tuple[bool, ...]
    features: np.ndarray
    truncated: bool = False

    def __post_init__(self):
        n = len(self.piece_ids)
        if not (len(self.piece_tags) == len(self.active) == n):
            raise ValueError("aligned fields disagree on length")
        if self.features.shape != (n, FEATURE_DIM):
            raise ValueError(f"features must be ({n}, {FEATURE_DIM})")

    def __len__(self) -> int:
        return len(self.piece_ids)

    @property
    def word_count(self) -> int:
        return sum(self.active)


def align(
    words: Sequence[str],
    tags: Sequence[SlotTag],
    features: np.ndarray,
    vocab: WordPieceVocab,
    max_len: int,
) -> AlignedSequence:
    """Tokenize a tagged utterance and build its aligned piece sequence.

    Truncation drops trailing words whole: a word whose pieces would cross
    the max_len boundary (with both markers counted) is cut entirely and the
    result is flagged, never errored.
    """
    if len(words) != len(tags):
        raise AlignmentError(f"{len(words)} words vs {len(tags)} tags")
    if np.shape(features) != (len(words), FEATURE_DIM):
        raise ValueError(f"features must be ({len(words)}, {FEATURE_DIM})")
    if max_len < 3:
        raise ValueError("max_len must fit both markers plus one piece")

    ids = [vocab.bos_id]
    piece_tags = [X_TAG]
    active = [False]
    widths = []  # the piece count of each kept word
    truncated = False
    for word, tag in zip(words, tags):
        piece_ids = vocab.tokenize(word)
        n = len(piece_ids)
        if len(ids) + n + 1 > max_len:
            truncated = True
            break
        ids += piece_ids
        piece_tags.append(tag)
        active.append(True)
        if n > 1:
            piece_tags += [X_TAG] * (n - 1)
            active += [False] * (n - 1)
        widths.append(n)
    ids.append(vocab.eos_id)
    piece_tags.append(X_TAG)
    active.append(False)
    block = np.zeros((len(ids), FEATURE_DIM))  # the markers keep zero rows
    block[1:-1] = np.asarray(features, dtype=np.float64)[:len(widths)].repeat(
        widths, axis=0
    )

    return AlignedSequence(
        piece_ids=tuple(ids),
        piece_tags=tuple(piece_tags),
        active=tuple(active),
        features=block,
        truncated=truncated,
    )


def de_align(seq: AlignedSequence, piece_predictions: Sequence, decode=None) -> list[SlotTag]:
    """Gather piece-level predictions back to word level.

    Only active positions are read; `decode`, when given, turns each of
    their predictions (a tag id, say) into its tag. An X at an active
    position falls back to O so downstream scoring stays total.
    """
    if len(piece_predictions) != len(seq):
        raise AlignmentError(
            f"{len(piece_predictions)} predictions vs {len(seq)} aligned positions"
        )
    kept = compress(piece_predictions, seq.active)
    if decode is not None:
        kept = map(decode, kept)
    return [O_TAG if tag.kind == "X" else tag for tag in kept]
