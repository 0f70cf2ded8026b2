"""Deterministic benchmark inputs, all derived from the workload seed.

The toy splits come from ``toy_grammar``; the large gazetteer is built here
from synthetic pseudo-words. Every generated input is summarised by a
content hash so two results can be checked to have run on the same data.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, Mapping, Sequence

import numpy as np

from jointnlu.features import MERGED_RAW_LABELS, EntityClass

# Separate random streams per input, so adding one input never shifts another.
GAZETTEER_STREAM = 1

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"

# Every label resolve_raw_label accepts, except NONE, which a gazetteer
# entry has no reason to carry.
RAW_LABELS = tuple(sorted(
    [e.name for e in EntityClass if e is not EntityClass.NONE]
    + list(MERGED_RAW_LABELS)
))


def synthetic_gazetteer(
    seed: int,
    base: Mapping[str, str],
    n_phrases: int,
    reserved_words: Iterable[str],
) -> Dict[str, str]:
    """`base` plus synthetic phrases up to `n_phrases` entries in total.

    Synthetic phrases are 1 to 4 pseudo-words of two or three
    consonant-vowel syllables. No pseudo-word is in `reserved_words`, so a
    synthetic phrase can never match text built from those words: word
    features of such text are the same as under `base` alone, and only the
    cost of matching grows.
    """
    if n_phrases < len(base):
        raise ValueError("n_phrases is smaller than the base gazetteer")
    rng = np.random.default_rng([seed, GAZETTEER_STREAM])
    syllables = np.array([c + v for c in _CONSONANTS for v in _VOWELS],
                         dtype=object)
    reserved = {w.lower() for w in reserved_words}
    out = dict(base)
    while len(out) < n_phrases:
        # Draw in bulk: each candidate phrase has four word slots of three
        # syllable slots, and only the leading n_words x n_syl are used.
        n = n_phrases - len(out)
        n_words = rng.integers(1, 5, size=n)
        n_syl = rng.integers(2, 4, size=(n, 4))
        syl = syllables[rng.integers(len(syllables), size=(n, 4, 3))]
        labels = rng.integers(len(RAW_LABELS), size=n)
        for i in range(n):
            words = ["".join(syl[i, k, :n_syl[i, k]]) for k in range(n_words[i])]
            if reserved.intersection(words):
                continue
            phrase = " ".join(words)
            if phrase not in out and len(out) < n_phrases:
                out[phrase] = RAW_LABELS[labels[i]]
    return out


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def corpus_hash(corpus: Sequence) -> str:
    return _digest([[u.intent, list(u.words), list(u.tag_strings())]
                    for u in corpus])


def mapping_hash(mapping: Mapping[str, str]) -> str:
    return _digest(sorted(mapping.items()))


def words_hash(words: Iterable[str]) -> str:
    return _digest(list(words))


def params_hash(params: Mapping[str, np.ndarray], config: dict) -> str:
    h = hashlib.sha256(json.dumps(config, sort_keys=True).encode("utf-8"))
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name])
        h.update(name.encode("utf-8"))
        h.update(str(arr.dtype).encode("utf-8"))
        h.update(str(arr.shape).encode("utf-8"))
        h.update(arr.tobytes())
    return h.hexdigest()
