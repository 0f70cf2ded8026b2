"""Corpus files, label vocabularies, and the one publish step for outputs.

On-disk format, one utterance per block:

    # intent=<label>
    word<TAB>tag
    ...

Blocks are separated by blank lines; files are UTF-8 with LF endings. The
same format carries converted benchmark data and the synthetic grammar.
"""

from __future__ import annotations

import os
import re
import shutil
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, Tuple

from .tagging import SlotTag, extract_chunks

INTENT_HEADER = "# intent="

# Reserved label for dev/test intents never seen in train. It has a logit
# row so unseen golds can be encoded, but train never produces it as a
# target and scoring compares original strings, so it always counts wrong.
UNK_INTENT = "[UNK]"

# The file of each role in a training data directory, the corpus splits and
# the word-feature resources; each but "test" is required. `ToyData.write`
# writes them all and `jointnlu train` reads them.
DATA_FILES = {"train": "train.txt", "dev": "dev.txt", "lexicon": "lexicon.txt",
              "gazetteer": "gazetteer.tsv", "english_dict": "english_dict.txt",
              "test": "test.txt"}


class CorpusError(ValueError):
    """A corpus file does not follow the token-per-line format."""


@dataclass(frozen=True)
class TaggedUtterance:
    """One labeled example: whole words, word-level BIO tags, one intent."""

    words: Tuple[str, ...]
    tags: Tuple[SlotTag, ...]
    intent: str

    def __post_init__(self):
        object.__setattr__(self, "words", tuple(self.words))
        object.__setattr__(self, "tags", tuple(self.tags))
        if not self.words:
            raise ValueError("utterance has no words")
        if len(self.words) != len(self.tags):
            raise ValueError(
                f"{len(self.words)} words but {len(self.tags)} tags"
            )
        if not isinstance(self.intent, str):
            raise ValueError(f"intent label {self.intent!r} is not a non-empty str")
        if not self.intent:
            raise ValueError("intent label is empty")
        for w in self.words:
            if not isinstance(w, str) or w.split() != [w]:  # empty, or holds whitespace
                raise ValueError(f"bad word {w!r}")
        for t in self.tags:
            if not isinstance(t, SlotTag):
                raise ValueError(
                    f"tag {t!r} is not a SlotTag; read tag text with SlotTag.parse"
                )
            if t.kind == "X":
                raise ValueError("X is a sub-word marker, not a word tag")

    def tag_strings(self) -> Tuple[str, ...]:
        return tuple(str(t) for t in self.tags)


def read_utf8(path, error: type[ValueError] = ValueError) -> str:
    r"""A UTF-8 text file's contents with universal newlines, as
    Path.read_text gives them, less a leading byte-order mark: the one reader
    of every text input. "\n" is then the one line end, and every reader
    splits lines at it alone, never at the other breaks of str.splitlines
    (\v, \f, \x1c-\x1e, \x85, \u2028, \u2029). A byte that does not
    decode raises `error` naming the file and the 1-based line of the first
    bad byte."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise error(
            f"{path}: line {line}: byte 0x{raw[exc.start]:02x} is not UTF-8"
        ) from None
    return text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")


def load_corpus(path) -> list[TaggedUtterance]:
    """Parse a corpus file; malformed input raises CorpusError naming the
    file and line. Lenient about chunk continuity (see lint_corpus)."""
    text = read_utf8(path, CorpusError)
    out: list[TaggedUtterance] = []
    intent: str | None = None
    header_line = 0
    words: list[str] = []
    tags: list[SlotTag] = []

    def bad(lineno: int, problem: str) -> CorpusError:
        return CorpusError(f"{path}: line {lineno}: {problem}")

    def flush() -> None:
        nonlocal intent, words, tags
        if intent is None:
            return
        if not words:
            raise bad(header_line, "intent header with no tokens")
        try:
            out.append(TaggedUtterance(tuple(words), tuple(tags), intent))
        except ValueError as exc:
            raise bad(header_line, f"utterance: {exc}") from None
        intent, words, tags = None, [], []

    for lineno, line in enumerate(text.split("\n"), 1):
        if line == "":
            flush()
            continue
        # a word holds no whitespace, so no token line starts with the header
        if line.startswith(INTENT_HEADER) or (line[:1] == "#" and "\t" not in line):
            if not line.startswith(INTENT_HEADER):
                raise bad(lineno, f"unrecognized header {line!r}")
            if intent is not None:
                raise bad(lineno, "new header before a blank separator")
            label = line[len(INTENT_HEADER):]
            if not label:
                raise bad(lineno, "empty intent label")
            intent, header_line = label, lineno
            continue
        if intent is None:
            raise bad(lineno, "token line before an intent header")
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise bad(lineno, f"expected word<TAB>tag, got {line!r}")
        word, tag_text = parts
        try:
            tag = SlotTag.parse(tag_text)
        except ValueError as exc:
            raise bad(lineno, str(exc)) from None
        if tag.kind == "X":
            raise bad(lineno, "X is reserved for sub-word alignment")
        words.append(word)
        tags.append(tag)
    flush()
    return out


def save_corpus(corpus: Sequence[TaggedUtterance], path) -> None:
    """Write a corpus that load_corpus reads back as it is; what it would not
    (a line break in an intent, a tab or line break in a slot label) is a
    ValueError naming the utterance, and `path` is left as it was."""
    lines: list[str] = []
    for i, utt in enumerate(corpus):
        if set(utt.intent) & set("\n\r"):
            raise ValueError(f"utterance {i}: intent {utt.intent!r} holds a line break")
        if any(set(t.label) & set("\t\n\r") for t in utt.tags):
            raise ValueError(f"utterance {i}: a slot label holds a tab or line break")
        lines.append(INTENT_HEADER + utt.intent)
        lines.extend(f"{w}\t{t}" for w, t in zip(utt.words, utt.tags))
        lines.append("")
    with staged(path) as tmp:
        tmp.write_text("\n".join(lines), encoding="utf-8", newline="\n")


def _remove(stage: Path) -> None:
    if stage.is_dir():
        shutil.rmtree(stage, ignore_errors=True)
    else:
        stage.unlink(missing_ok=True)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)  # signal 0 checks that the process exists
    except (ProcessLookupError, OverflowError):
        return False
    except PermissionError:  # it exists, under another user
        pass
    return True


def _dead_stages(path: Path) -> list[Path]:
    """The `.NAME.PID.tmp` stages of `path` whose process has ended."""
    pattern = re.compile(re.escape(f".{path.name}.") + r"([1-9][0-9]*)\.tmp")
    try:
        names = os.listdir(path.parent)
    except OSError:  # a missing parent fails where the block writes
        return []
    return [
        path.parent / name for name in names
        if (m := pattern.fullmatch(name)) and not _pid_alive(int(m[1]))
    ]


@contextmanager
def staged(path):
    """Publish `path` in one step: the one way every output is written.

    The block builds its output, a file or a whole directory tree, at the
    yielded hidden sibling `.NAME.PID.tmp`. Before it starts, a leftover at
    that name (a killed process that had the same PID) is cleared, and so is
    every other `.NAME.PID.tmp` stage whose process is no longer alive; a
    live process's stage is never touched. When the block ends cleanly one
    `os.replace` moves the stage onto `path`; on any exception the stage is
    removed and `path` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    for stale in [tmp, *_dead_stages(path)]:
        _remove(stale)
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        _remove(tmp)  # after a clean replace there is nothing left to clear


def lint_corpus(corpus: Sequence[TaggedUtterance]) -> list[str]:
    """Flag the chunks that extract_chunks opens at an I- tag: continuation
    tags that do not extend a chunk of the same label.

    These are accepted by the loader (the chunk extractor repairs them), but
    usually indicate annotation mistakes worth surfacing.
    """
    return [
        f"utterance {i} word {c.start}: {tags[c.start]} follows "
        f"{tags[c.start - 1] if c.start else 'start'}"
        for i, tags in enumerate(u.tags for u in corpus)
        for c in extract_chunks(tags)
        if tags[c.start].kind == "I"
    ]


def combine_intents(labels: Iterable[str]) -> str:
    """Collapse a set of intent labels into one canonical multi-label string.

    Component labels are deduplicated, sorted, and '#'-joined, so the result
    is order-insensitive and the operation is idempotent.
    """
    parts: set[str] = set()
    for label in labels:
        for piece in label.split("#"):
            if not piece:
                raise ValueError(f"empty intent component in {label!r}")
            parts.add(piece)
    if not parts:
        raise ValueError("no intent labels to combine")
    return "#".join(sorted(parts))


def id_table(entries: Iterable[str], head: Tuple[str, ...], kind: str):
    """`entries` as a tuple and each entry's id, its index. The one check of
    every vocabulary (ValueError): the reserved `head` first, then distinct
    non-empty strs."""
    entries = tuple(entries)
    if entries[: len(head)] != head:
        raise ValueError(f"{kind}s must start with {head!r}")
    ids: dict[str, int] = {}
    for i, entry in enumerate(entries):
        if type(entry) is not str or not entry:
            raise ValueError(f"{kind} {entry!r} is not a non-empty str")
        if ids.setdefault(entry, i) != i:
            raise ValueError(f"duplicate {kind} {entry!r}")
    return entries, ids


@dataclass(frozen=True)
class IntentVocab:
    """Intent label <-> id table. Id 0 is the reserved unseen-label slot."""

    labels: Tuple[str, ...]

    def __post_init__(self):
        labels, ids = id_table(self.labels, (UNK_INTENT,), "intent label")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_ids", ids)

    @classmethod
    def from_corpus(cls, corpus: Sequence[TaggedUtterance]) -> "IntentVocab":
        seen = sorted({u.intent for u in corpus} - {UNK_INTENT})
        return cls((UNK_INTENT, *seen))

    def __len__(self) -> int:
        return len(self.labels)

    def encode(self, label: str) -> int:
        return self._ids.get(label, 0)

    def decode(self, idx: int) -> str:
        return self.labels[idx]


@dataclass(frozen=True)
class SlotVocab:
    """Piece-level tag <-> id table: O is 0, the sub-word marker X is 1,
    labeled tags follow in sorted order. Unseen tags encode to O."""

    tags: Tuple[str, ...]

    def __post_init__(self):
        tags, ids = id_table(self.tags, ("O", "X"), "slot tag")
        object.__setattr__(self, "tags", tags)
        object.__setattr__(self, "_parsed", tuple(SlotTag.parse(t) for t in tags))
        object.__setattr__(self, "_ids", ids)

    @classmethod
    def from_corpus(cls, corpus: Sequence[TaggedUtterance]) -> "SlotVocab":
        seen = sorted({s for u in corpus for s in u.tag_strings()} - {"O"})
        return cls(("O", "X", *seen))

    def __len__(self) -> int:
        return len(self.tags)

    def encode(self, tag: SlotTag | str) -> int:
        return self._ids.get(str(tag), 0)

    def decode(self, idx: int) -> SlotTag:
        return self._parsed[idx]
