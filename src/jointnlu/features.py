"""Per-word casing and entity features, and the small network that embeds them.

Each word gets a 23-dim one-hot pair: 19 entity classes followed by 4 case
classes. Casing comes from a lexicon of canonical forms; entities come from a
longest-match gazetteer plus a few deterministic rules (digits, years,
airport codes). A two-layer PReLU network maps the 23-dim vector to a 32-dim
embedding that the slot classifier consumes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .data import read_utf8


class EntityClass(IntEnum):
    PERSON = 0
    LOCATION = 1
    ORGANIZATION = 2
    MISC = 3
    CITY = 4
    STATE_OR_PROVINCE = 5
    COUNTRY = 6
    NATIONALITY = 7
    RELIGION = 8
    DATE = 9
    TIME = 10
    DURATION = 11
    MONEY = 12
    NUMBER = 13
    ORDINAL = 14
    PERCENT = 15
    OTHER = 16
    AIRPORT_CODE = 17
    NONE = 18


class CaseClass(IntEnum):
    UPPER = 0
    LOWER = 1
    INIT_UPPER = 2
    O = 3


ENTITY_DIM = len(EntityClass)
CASE_DIM = len(CaseClass)
FEATURE_DIM = ENTITY_DIM + CASE_DIM
FEATURE_HIDDEN = 32

# Annotator labels folded into OTHER rather than given their own class.
MERGED_RAW_LABELS = frozenset(
    {"TITLE", "IDEOLOGY", "CRIMINAL_CHARGE", "CAUSE_OF_DEATH"}
)

# Most distinct words one WordFeaturizer remembers the WordFacts of; a word
# first seen after that is looked up afresh on every call.
WORD_MEMO_WORDS = 1 << 16

_AIRPORT_RE = re.compile(r"[A-Z]{3}")
_DIGITS_RE = re.compile(r"[0-9]+")


def canonical_form(word: str, lexicon: Mapping[str, str]) -> str:
    """Case-insensitive lexicon lookup; unknown words pass through as given."""
    if not word:
        raise ValueError("empty word")
    return lexicon.get(word.lower(), word)


def classify_case(word: str) -> CaseClass:
    if not word:
        raise ValueError("empty word")
    if word.isupper():
        return CaseClass.UPPER
    if word.islower():
        return CaseClass.LOWER
    if word[0].isupper() and (len(word) == 1 or word[1:].islower()):
        return CaseClass.INIT_UPPER
    return CaseClass.O


def resolve_raw_label(raw: str) -> EntityClass:
    if raw in MERGED_RAW_LABELS:
        return EntityClass.OTHER
    try:
        return EntityClass[raw]
    except KeyError:
        raise ValueError(f"unknown entity label {raw!r}") from None


def _rule_entity(word: str, english_dict: frozenset[str] | set[str]) -> EntityClass:
    if _DIGITS_RE.fullmatch(word):
        if len(word) == 4 and 1900 <= int(word) <= 2099:
            return EntityClass.DATE
        return EntityClass.NUMBER
    if _AIRPORT_RE.fullmatch(word):
        # Ordinary English words that happen to be three capitals stay
        # unlabeled, so a capitalized "FOR" is not an airport.
        if word.lower() in english_dict:
            return EntityClass.NONE
        return EntityClass.AIRPORT_CODE
    return EntityClass.NONE


class PhraseIndex(NamedTuple):
    """A gazetteer keyed for matching: each phrase's words -> its raw label,
    and each first word -> the lengths of the phrases that start with it,
    longest first."""

    phrases: dict[tuple[str, ...], str]
    spans: dict[str, tuple[int, ...]]

    @classmethod
    def build(cls, gazetteer: Mapping[str, str]) -> "PhraseIndex":
        phrases = {tuple(p.split()): raw for p, raw in gazetteer.items()}
        spans: dict[str, tuple[int, ...]] = {}
        # Equal tuples of lengths are stored once, so that the spans of a
        # large gazetteer cost little more than one entry per first word.
        shared: dict[tuple[int, ...], tuple[int, ...]] = {}
        for words in phrases:
            if not words:  # a blank phrase matches nothing
                continue
            have = spans.get(words[0], ())
            if len(words) not in have:
                lengths = tuple(sorted((*have, len(words)), reverse=True))
                spans[words[0]] = shared.setdefault(lengths, lengths)
        return cls(phrases, spans)


class WordFacts(NamedTuple):
    """What featurizing needs to know of one word on its own: its canonical
    form, that form lowercased (the gazetteer's key), its case class and the
    entity class the rules give it."""

    canonical: str
    lowered: str
    case: CaseClass
    rule: EntityClass


def annotate_entities(
    facts: Sequence[WordFacts], index: PhraseIndex
) -> list[EntityClass]:
    """Label each word with an entity class.

    Gazetteer phrases match longest-first on lowercased text and label every
    word they cover; only the phrases that start with a word's own text are
    tried there. Remaining words keep their rule class (digits, years,
    airport codes, else NONE). A WordFeaturizer builds its index once.
    """
    phrases, spans = index
    out: list[EntityClass] = []
    i = 0
    while i < len(facts):
        for span in spans.get(facts[i].lowered, ()):
            if i + span <= len(facts):
                raw = phrases.get(tuple(f.lowered for f in facts[i:i + span]))
                if raw is not None:
                    out.extend([resolve_raw_label(raw)] * span)
                    i += span
                    break
        else:
            out.append(facts[i].rule)
            i += 1
    return out


# Row e * CASE_DIM + c is the one-hot pair of entity class e and case class c.
_ONE_HOT_PAIRS = np.hstack([
    np.repeat(np.eye(ENTITY_DIM), CASE_DIM, axis=0),
    np.tile(np.eye(CASE_DIM), (ENTITY_DIM, 1)),
])


def encode_features(
    entities: Sequence[EntityClass], cases: Sequence[CaseClass]
) -> np.ndarray:
    """One one-hot pair per word, shape (len(entities), 23): entity block
    first, case block after it."""
    if len(entities) != len(cases):
        raise ValueError(
            f"{len(entities)} entity classes vs {len(cases)} case classes"
        )
    pairs = [e * CASE_DIM + c for e, c in zip(entities, cases)]
    return _ONE_HOT_PAIRS.take(pairs, axis=0)


def feature_forward(x: np.ndarray, params: dict[str, np.ndarray]):
    """Embed feature rows: s = x W_w + b_w, h = PReLU(s), out = h W_proj + b_proj.

    `params` is the model's flat dict; the net reads its "feat." names.
    x is (T, 23), one row per real piece; the output is (T, 32), in the
    parameters' dtype. Returns (out, cache), the cache holding the
    intermediates feature_backward needs.
    """
    x = np.asarray(x, dtype=params["feat.W_w"].dtype)
    if x.ndim != 2 or x.shape[1] != FEATURE_DIM:
        raise ValueError(f"features must be (T, {FEATURE_DIM}), got {x.shape}")
    s = x @ params["feat.W_w"] + params["feat.b_w"]
    a = float(params["feat.a_prelu"])
    h = np.maximum(s, 0.0) + a * np.minimum(s, 0.0)
    out = h @ params["feat.W_proj"] + params["feat.b_proj"]
    return out, (x, s, h)


def feature_backward(
    d_out: np.ndarray, cache, params: dict[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Backprop through feature_forward into the parameters, under the
    "feat." names; the one-hot inputs are fixed, so they get no gradient.
    """
    x, s, h = cache
    if d_out.shape != h.shape:
        raise ValueError("upstream gradient shape mismatch")

    d_h = d_out @ params["feat.W_proj"].T
    a = float(params["feat.a_prelu"])
    d_s = np.where(s > 0, d_h, a * d_h)
    return {
        "feat.W_w": x.T @ d_s,
        "feat.b_w": d_s.sum(axis=0),
        "feat.a_prelu": np.array(np.sum(d_h * np.minimum(s, 0.0))),
        "feat.W_proj": h.T @ d_out,
        "feat.b_proj": d_out.sum(axis=0),
    }


def load_gazetteer(path: str | Path) -> dict[str, str]:
    """Read tab-separated "phrase<TAB>RAW_LABEL" lines into a phrase map."""
    out: dict[str, str] = {}
    for ln, line in enumerate(read_utf8(path).splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            raise ValueError(f"{path}:{ln}: expected 'phrase<TAB>LABEL', got {line!r}")
        phrase, raw = parts[0].strip().lower(), parts[1].strip()
        try:
            resolve_raw_label(raw)  # fail fast on labels outside the inventory
        except ValueError as err:
            raise ValueError(f"{path}:{ln}: {err}") from None
        out[phrase] = raw
    return out


def load_lexicon(path: str | Path) -> dict[str, str]:
    """Read canonical cased forms, one per line, keyed by lowercase."""
    out: dict[str, str] = {}
    for line in read_utf8(path).splitlines():
        form = line.strip()
        if not form:
            continue
        out[form.lower()] = form
    return out


def load_english_dict(path: str | Path) -> frozenset[str]:
    words = set()
    for line in read_utf8(path).splitlines():
        w = line.strip()
        if w:
            words.add(w.lower())
    return frozenset(words)


@dataclass(frozen=True)
class WordFeaturizer:
    """Bundles the three annotation resources behind one featurize call.

    The resources must not be changed after first use: the phrase index and
    the per-word memo are built from them once, lazily, and are not fields,
    so they take no part in `==`, `to_dict` or a checkpoint."""

    lexicon: Mapping[str, str]
    gazetteer: Mapping[str, str]
    english_dict: frozenset[str]

    def __post_init__(self):
        for key, form in self.lexicon.items():
            if type(form) is not str or not form:
                raise ValueError(f"lexicon form {form!r} of {key!r} is not a word")
        for raw in set(self.gazetteer.values()):
            resolve_raw_label(raw)

    @classmethod
    def from_files(
        cls,
        lexicon_path: str | Path,
        gazetteer_path: str | Path,
        english_dict_path: str | Path,
    ) -> "WordFeaturizer":
        return cls(
            lexicon=load_lexicon(lexicon_path),
            gazetteer=load_gazetteer(gazetteer_path),
            english_dict=load_english_dict(english_dict_path),
        )

    @cached_property
    def phrase_index(self) -> PhraseIndex:
        """The gazetteer keyed for matching, built on first use."""
        return PhraseIndex.build(self.gazetteer)

    @cached_property
    def _word_memo(self) -> dict[str, WordFacts]:
        """Each word's WordFacts, kept for up to WORD_MEMO_WORDS words."""
        return {}

    def _word_facts(self, word: str) -> WordFacts:
        facts = self._word_memo.get(word)
        if facts is None:
            canonical = canonical_form(word, self.lexicon)
            facts = WordFacts(
                canonical,
                canonical.lower(),
                classify_case(canonical),
                _rule_entity(canonical, self.english_dict),
            )
            if len(self._word_memo) < WORD_MEMO_WORDS:
                self._word_memo[word] = facts
        return facts

    def annotate(
        self, words: Sequence[str]
    ) -> tuple[list[EntityClass], list[CaseClass], list[str]]:
        facts = [self._word_facts(w) for w in words]
        entities = annotate_entities(facts, self.phrase_index)
        return entities, [f.case for f in facts], [f.canonical for f in facts]

    def featurize(self, words: Sequence[str]) -> np.ndarray:
        """Per-word 23-dim feature rows, shape (len(words), 23)."""
        entities, cases, _ = self.annotate(words)
        return encode_features(entities, cases)

    def to_dict(self) -> dict:
        return {
            "lexicon": dict(self.lexicon),
            "gazetteer": dict(self.gazetteer),
            "english_dict": sorted(self.english_dict),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "WordFeaturizer":
        return cls(
            lexicon=dict(payload["lexicon"]),
            gazetteer=dict(payload["gazetteer"]),
            english_dict=frozenset(payload["english_dict"]),
        )
