"""Word-piece vocabulary induction, greedy tokenization, and the alignment
bookkeeping that maps word-level tags onto piece-level sequences.

Aligned sequences are framed by start/end markers. A boolean `active` mask
marks the first piece of each kept word and `tags` holds one tag per first
piece; `model.make_batch` gives every other position X. A word's feature
code is repeated on every piece of the word, and the markers get
MARKER_CODE; `model.make_batch` turns the codes into feature rows.
Piece-level predictions are gathered back to word level at the active
positions.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Sequence

from .data import id_table
from .features import MARKER_CODE
from .tagging import AlignmentError, O_TAG, SlotTag

CONTINUATION = "##"

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
BOS_TOKEN = "[BOS]"
EOS_TOKEN = "[EOS]"
RESERVED_TOKENS = (PAD_TOKEN, UNK_TOKEN, BOS_TOKEN, EOS_TOKEN)

# The codes a word's features may have: every pair code, not MARKER_CODE.
_WORD_CODES = frozenset(range(MARKER_CODE))

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
    # id_table fixes the reserved head, so the markers' ids are the same in
    # every vocabulary.
    bos_id = RESERVED_TOKENS.index(BOS_TOKEN)
    eos_id = RESERVED_TOKENS.index(EOS_TOKEN)

    def __post_init__(self):
        pieces, ids = id_table(self.pieces, RESERVED_TOKENS, "piece")
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "_memo", {})

    def __len__(self) -> int:
        return len(self.pieces)

    def piece(self, piece_id: int) -> str:
        return self.pieces[piece_id]

    def tokenize_pieces(self, word: str) -> list[str]:
        """Greedy longest-match-first segmentation.

        A word containing any character with no vocabulary entry collapses to
        a single [UNK]; words over the known alphabet always segment, since
        every character has both a word-initial and a continuation entry.
        A reserved token never matches: the word [BOS] is no start marker.
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
                if cand in self.ids and cand not in RESERVED_TOKENS:
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


def _replace(pieces: tuple[str, ...], pair: tuple[str, str], new_piece: str) -> tuple[str, ...]:
    """`pieces` with each occurrence of `pair` merged, left to right and
    non-overlapping."""
    out = []
    i = 0
    while i < len(pieces):
        if i + 1 < len(pieces) and (pieces[i], pieces[i + 1]) == pair:
            out.append(new_piece)
            i += 2
        else:
            out.append(pieces[i])
            i += 1
    return tuple(out)


def train_vocab(words: Iterable[str], target_size: int) -> WordPieceVocab:
    """Induce a word-piece vocabulary by greedy pair merging.

    The base inventory holds every character of the corpus in both
    word-initial and continuation form (tokenization totality); merges then
    add the most frequent adjacent pair until `target_size` pieces exist or
    no pair repeats. Ties are broken lexicographically, so the result is a
    pure function of the word multiset and the size. A merged piece that is
    already a piece is not added twice: the word ##x reads as the piece ##x,
    and the word [PAD] as ordinary pieces such as [ and ##P.

    Pair counts are built once and then kept up to date: each merge
    re-segments only the distinct words that hold the merged pair and
    adjusts the counts of the pairs those words lose and gain, so a merge
    costs time in proportion to the words it touches, not to the corpus.
    The pieces are those of recounting every pair after every merge.
    """
    if isinstance(words, str):
        raise ValueError(f"corpus {words!r} is a str, not a list of words")
    counts = Counter(words)
    if not counts:
        raise ValueError("empty corpus")
    for w in counts:
        if type(w) is not str:
            raise ValueError(f"corpus word {w!r} is not a str")
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

    freqs = list(counts.values())
    segmented = [tuple([w[0]] + [CONTINUATION + c for c in w[1:]]) for w in counts]
    pair_counts: Counter = Counter()
    # the words that hold each counted pair, and perhaps some that held it
    holders: defaultdict[tuple[str, str], set[int]] = defaultdict(set)
    for i, pieces in enumerate(segmented):
        for pair in zip(pieces, pieces[1:]):
            pair_counts[pair] += freqs[i]
            holders[pair].add(i)
    # (-count, pair), so the top is the best pair; an entry whose count is
    # no longer the pair's is stale and dropped when it reaches the top
    heap = [(-n, pair) for pair, n in pair_counts.items()]
    heapq.heapify(heap)
    merged: list[str] = []
    seen = {*RESERVED_TOKENS, *base}
    while floor + len(merged) < target_size:
        while heap and pair_counts.get(heap[0][1]) != -heap[0][0]:
            heapq.heappop(heap)
        if not heap or -heap[0][0] < 2:
            break
        best = heap[0][1]
        new_piece = _merge(*best)
        if new_piece not in seen:  # a piece already, or re-derived
            seen.add(new_piece)
            merged.append(new_piece)
        changed = set()
        for i in holders.pop(best):
            old = segmented[i]
            new = _replace(old, best, new_piece)
            if len(new) == len(old):  # no longer holds the pair
                continue
            segmented[i] = new
            for pair in zip(old, old[1:]):
                pair_counts[pair] -= freqs[i]
                changed.add(pair)
            for pair in zip(new, new[1:]):
                pair_counts[pair] += freqs[i]
                holders[pair].add(i)
                changed.add(pair)
        # the merge leaves no occurrence of `best`, so its count reaches zero
        for pair in changed:
            n = pair_counts[pair]
            if n:
                heapq.heappush(heap, (-n, pair))
            else:
                del pair_counts[pair]
                holders.pop(pair, None)

    return WordPieceVocab(RESERVED_TOKENS + tuple(base) + tuple(merged))


@dataclass(frozen=True)
class AlignedSequence:
    """Piece-level view of one tagged utterance, framed by [BOS]/[EOS].

    `piece_ids`, `active` and `features`, each piece's feature code (its
    word's pair code, MARKER_CODE at the markers), share one length.
    `active[i]` is True exactly at the first piece of each kept word, and
    `tags` holds the tags of those words, in order.
    """

    piece_ids: tuple[int, ...]
    tags: tuple[SlotTag, ...]
    active: tuple[bool, ...]
    features: tuple[int, ...]
    truncated: bool = False

    def __post_init__(self):
        n = len(self.piece_ids)
        if len(self.active) != n:
            raise ValueError("aligned fields disagree on length")
        if len(self.tags) != sum(self.active):
            raise ValueError("need one tag per first piece")
        if len(self.features) != n:
            raise ValueError(
                f"need one feature code per piece, got {len(self.features)} "
                f"for {n} pieces"
            )

    def __len__(self) -> int:
        return len(self.piece_ids)


def align(
    words: Sequence[str],
    tags: Sequence[SlotTag],
    features: Sequence[int],
    vocab: WordPieceVocab,
    max_len: int,
) -> AlignedSequence:
    """Tokenize a tagged utterance and build its aligned piece sequence;
    `features` holds each word's pair code (WordFeaturizer.featurize).

    Truncation drops trailing words whole: a word whose pieces would cross
    the max_len boundary (with both markers counted) is cut entirely and the
    result is flagged, never errored.
    """
    if len(words) != len(tags):
        raise AlignmentError(f"{len(words)} words vs {len(tags)} tags")
    if len(features) != len(words):
        raise ValueError(
            f"need one feature code per word, got {len(features)} "
            f"for {len(words)} words"
        )
    if not _WORD_CODES.issuperset(features):
        bad = next(c for c in features if c not in _WORD_CODES)
        raise ValueError(
            f"feature code {bad!r} is not a pair code (0..{MARKER_CODE - 1})"
        )
    if max_len < 3:
        raise ValueError("max_len must fit both markers plus one piece")

    ids = [vocab.bos_id]
    active = [False]
    codes = [MARKER_CODE]
    kept = 0  # words kept whole
    truncated = False
    for word, code in zip(words, features):
        piece_ids = vocab.tokenize(word)
        n = len(piece_ids)
        if len(ids) + n + 1 > max_len:
            truncated = True
            break
        ids += piece_ids
        active += [True] + [False] * (n - 1)
        codes += [code] * n
        kept += 1
    ids.append(vocab.eos_id)
    active.append(False)
    codes.append(MARKER_CODE)

    return AlignedSequence(
        piece_ids=tuple(ids),
        tags=tuple(tags[:kept]),
        active=tuple(active),
        features=tuple(codes),
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
