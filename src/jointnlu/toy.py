"""A small deterministic utterance grammar for desk-scale end-to-end runs.

Four intents over nine slot types, filled from closed word lists. The
generator also produces the gazetteer, truecasing lexicon, and common-word
list that the per-word feature pipeline expects, so feature signal is
consistent with the generated text: person and place values carry entity
classes, airport-style city codes are deliberately left out of the
gazetteer so the three-letter-code rule has work to do.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Sequence, Tuple

import numpy as np

from .data import DATA_FILES, TaggedUtterance, save_corpus, staged
from .features import WordFeaturizer
from .tagging import O_TAG, SlotTag

INTENTS = ("add_playlist", "book_flight", "get_weather", "play_music")

ARTISTS = (
    "justin broadrick", "nina simone", "miles davis",
    "bob dylan", "aretha franklin", "john coltrane",
)
SONGS = (
    "yesterday", "respect", "hallelujah", "imagine",
    "satisfaction", "purple rain", "moon river", "feeling good",
)
YEARS = ("1959", "1965", "1971", "1984", "1999", "2005", "2013")
CITIES = (
    "boston", "denver", "seattle", "atlanta",
    "baltimore", "dallas", "chicago", "memphis",
)
AIRPORT_CODES = ("jfk", "lax", "sfo")
DATES = (
    "monday", "tuesday", "wednesday", "thursday", "friday",
    "saturday", "sunday", "tomorrow",
)
CONDITIONS = ("sunny", "rainy", "windy", "cloudy", "snowy", "stormy")
PLAYLISTS = (
    "workout mix", "road trip", "summer jams", "study beats", "chill vibes",
)

# Template items are literal words (tagged O) or (slot-type, value-list)
# placeholders; multi-word values become B-/I- chunks.
_FLIGHT_CITIES = CITIES + AIRPORT_CODES
_TEMPLATES = {
    "play_music": (
        ("play", ("song", SONGS), "by", ("artist", ARTISTS)),
        ("play", ("song", SONGS), "from", ("year", YEARS), "by",
         ("artist", ARTISTS)),
        ("play", "some", ("artist", ARTISTS)),
        ("play", ("song", SONGS)),
    ),
    "book_flight": (
        ("book", "a", "flight", "from", ("from_city", _FLIGHT_CITIES), "to",
         ("to_city", _FLIGHT_CITIES)),
        ("fly", "from", ("from_city", _FLIGHT_CITIES), "to",
         ("to_city", _FLIGHT_CITIES)),
        ("i", "fly", "to", ("to_city", _FLIGHT_CITIES), "from",
         ("from_city", _FLIGHT_CITIES)),
        ("book", "flight", "from", ("from_city", _FLIGHT_CITIES), "to",
         ("to_city", _FLIGHT_CITIES), "on", ("date", DATES)),
    ),
    "get_weather": (
        ("what", "is", "the", "weather", "in", ("city", CITIES), "on",
         ("date", DATES)),
        ("will", "it", "be", ("condition", CONDITIONS), "in",
         ("city", CITIES)),
        ("forecast", "for", ("city", CITIES)),
        ("is", "it", ("condition", CONDITIONS), "in", ("city", CITIES)),
    ),
    "add_playlist": (
        ("add", ("song", SONGS), "to", ("playlist", PLAYLISTS)),
        ("add", ("song", SONGS), "to", "my", ("playlist", PLAYLISTS),
         "playlist"),
        ("put", ("song", SONGS), "by", ("artist", ARTISTS), "on",
         ("playlist", PLAYLISTS)),
        ("add", "some", ("artist", ARTISTS), "to", ("playlist", PLAYLISTS)),
    ),
}

SLOT_TYPES = ("artist", "city", "condition", "date", "from_city", "playlist",
              "song", "to_city", "year")

# Generation order. Flights appear twice per cycle: the from/to distinction
# is the only purely contextual decision in the grammar, so it gets the
# largest share of examples.
_ROTATION = ("add_playlist", "book_flight", "get_weather", "book_flight",
             "play_music")

_FILLER_WORDS = (
    "play", "by", "from", "some", "book", "a", "flight", "to", "on", "me",
    "i", "need", "fly", "what", "is", "the", "weather", "in", "will", "it",
    "be", "forecast", "for", "today", "add", "my", "playlist", "put", "song",
)


def _title(word: str) -> str:
    return word[0].upper() + word[1:]


def _build_gazetteer() -> Dict[str, str]:
    gaz: Dict[str, str] = {}
    for name in ARTISTS:
        gaz[name] = "PERSON"
    for city in CITIES:
        gaz[city] = "CITY"
    for day in DATES:
        gaz[day] = "DATE"
    for pl in PLAYLISTS:
        gaz[pl] = "MISC"
    for song in SONGS:
        gaz[song] = "OTHER"
    # airport codes intentionally absent: the uppercase-code rule covers them
    return gaz


def _build_lexicon() -> Tuple[str, ...]:
    canonical = []
    for name in ARTISTS:
        canonical.extend(_title(w) for w in name.split())
    canonical.extend(_title(c) for c in CITIES)
    canonical.extend(code.upper() for code in AIRPORT_CODES)
    return tuple(sorted(set(canonical)))


def _build_english_dict() -> Tuple[str, ...]:
    words = set(_FILLER_WORDS) | set(CONDITIONS) | set(DATES)
    for song in SONGS:
        words.update(song.split())
    return tuple(sorted(words))


@dataclass(frozen=True)
class ToyData:
    """Three generated splits plus the feature resources that match them."""

    train: Tuple[TaggedUtterance, ...]
    dev: Tuple[TaggedUtterance, ...]
    test: Tuple[TaggedUtterance, ...]
    gazetteer: Tuple[Tuple[str, str], ...]
    lexicon: Tuple[str, ...]
    english_dict: Tuple[str, ...]

    def write(self, directory) -> Dict[str, Path]:
        """Write each file of DATA_FILES from the field its role names."""
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        paths = {role: root / name for role, name in DATA_FILES.items()}
        for split in ("train", "dev", "test"):
            save_corpus(getattr(self, split), paths[split])
        for role, lines in (
            ("gazetteer", ["\t".join(entry) for entry in self.gazetteer]),
            ("lexicon", self.lexicon),
            ("english_dict", self.english_dict),
        ):
            with staged(paths[role]) as tmp:
                tmp.write_text("".join(f"{line}\n" for line in lines),
                               encoding="utf-8", newline="\n")
        return paths

    def featurizer(self) -> WordFeaturizer:
        return WordFeaturizer(
            lexicon={w.lower(): w for w in self.lexicon},
            gazetteer=dict(self.gazetteer),
            english_dict=frozenset(self.english_dict),
        )


def _realize(
    intent: str, template: Sequence, rng: np.random.Generator
) -> TaggedUtterance:
    words: list[str] = []
    tags: list[SlotTag] = []
    used: Dict[str, str] = {}
    for item in template:
        if isinstance(item, str):
            words.append(item)
            tags.append(O_TAG)
            continue
        slot, values = item
        # a flight never departs from its destination
        pool = [v for v in values if v not in used.values()] or list(values)
        value = pool[int(rng.integers(len(pool)))]
        used[slot] = value
        for k, part in enumerate(value.split()):
            words.append(part)
            tags.append(SlotTag("B" if k == 0 else "I", slot))
    return TaggedUtterance(tuple(words), tuple(tags), intent)


def toy_grammar(
    seed: int, n_train: int, n_dev: int, n_test: int
) -> ToyData:
    """Generate three deterministic splits.

    Intents and templates rotate round-robin (flights twice per cycle) so
    every template (and thus every slot type) is realized once the split is
    modestly sized; only the slot values are sampled.
    """
    if min(n_train, n_dev, n_test) < 1:
        raise ValueError("all split sizes must be >= 1")
    rng = np.random.default_rng(seed)
    template_cursor = {intent: 0 for intent in INTENTS}

    def generate(n: int) -> Tuple[TaggedUtterance, ...]:
        out = []
        for i in range(n):
            intent = _ROTATION[i % len(_ROTATION)]
            options = _TEMPLATES[intent]
            template = options[template_cursor[intent] % len(options)]
            template_cursor[intent] += 1
            out.append(_realize(intent, template, rng))
        return tuple(out)

    return ToyData(
        train=generate(n_train),
        dev=generate(n_dev),
        test=generate(n_test),
        gazetteer=tuple(sorted(_build_gazetteer().items())),
        lexicon=_build_lexicon(),
        english_dict=_build_english_dict(),
    )
