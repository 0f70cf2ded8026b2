"""BIO tag algebra, chunk extraction, and corpus-level evaluation measures.

Slot annotations use the BIO scheme: ``B-label`` opens a chunk, ``I-label``
continues it, ``O`` is outside any chunk. ``X`` is a placeholder used only at
sub-word/special positions of aligned piece sequences; it is rejected here so
callers are forced to de-align before scoring.

Records are written as key=value text by `kv_text` and read by `read_kv`, each
field under its dataclass name and each value by `read_value`.
"""

from __future__ import annotations

from dataclasses import Field, asdict, dataclass, fields
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple


class AlignmentError(ValueError):
    """Gold/predicted sequences do not line up (length or corpus size)."""


@dataclass(frozen=True)
class SlotTag:
    """One BIO tag: kind in {O, B, I, X}, label empty iff kind is O or X."""

    kind: str
    label: str = ""

    _KINDS = ("O", "B", "I", "X")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"bad tag kind {self.kind!r}")
        if self.kind in ("O", "X") and self.label:
            raise ValueError(f"{self.kind} tag must not carry a label")
        if self.kind in ("B", "I") and not self.label:
            raise ValueError(f"{self.kind} tag needs a label")

    @classmethod
    def parse(cls, text: str) -> "SlotTag":
        if text in ("O", "X"):
            return cls(text)
        if len(text) > 2 and text[1] == "-" and text[0] in ("B", "I"):
            return cls(text[0], text[2:])
        raise ValueError(f"not a BIO tag: {text!r}")

    def __str__(self) -> str:
        return self.kind if not self.label else f"{self.kind}-{self.label}"


O_TAG = SlotTag("O")
X_TAG = SlotTag("X")


def parse_tags(texts: Iterable[str]) -> list[SlotTag]:
    return [SlotTag.parse(t) for t in texts]


@dataclass(frozen=True, order=True)
class Chunk:
    """A maximal labeled span; start/end are inclusive word indices."""

    label: str
    start: int
    end: int

    def __post_init__(self):
        if not (0 <= self.start <= self.end):
            raise ValueError(f"bad chunk span [{self.start},{self.end}]")


def _reject_x(tags: Sequence[SlotTag]) -> None:
    if any(t.kind == "X" for t in tags):
        raise AlignmentError("X tags reached a metric boundary; de-align first")


def extract_chunks(tags: Sequence[SlotTag]) -> list[Chunk]:
    """Extract labeled chunks from a word-level BIO sequence.

    Lenient repair convention: an I- tag following O, start-of-sequence, or a
    tag of a different label opens a new chunk. Returned chunks never overlap
    and are sorted by start position.
    """
    _reject_x(tags)
    chunks: list[Chunk] = []
    start = None
    label = ""
    for i, tag in enumerate(tags):
        continues = tag.kind == "I" and start is not None and tag.label == label
        if continues:
            continue
        if start is not None:
            chunks.append(Chunk(label, start, i - 1))
            start = None
        if tag.kind in ("B", "I"):
            start, label = i, tag.label
    if start is not None:
        chunks.append(Chunk(label, start, len(tags) - 1))
    return chunks


@dataclass(frozen=True)
class ChunkF1:
    """Micro-averaged chunk-level precision/recall/F1 with raw counts."""

    f1: float
    precision: float
    recall: float
    tp: int
    fp: int
    fn: int


def _check_corpus(gold: Sequence[Sequence[SlotTag]], pred: Sequence[Sequence[SlotTag]]) -> None:
    if len(gold) != len(pred):
        raise AlignmentError(f"corpus sizes differ: {len(gold)} vs {len(pred)}")
    for i, (g, p) in enumerate(zip(gold, pred)):
        if len(g) != len(p):
            raise AlignmentError(f"sequence {i}: lengths differ ({len(g)} vs {len(p)})")


def slot_f1(gold: Sequence[Sequence[SlotTag]], pred: Sequence[Sequence[SlotTag]]) -> ChunkF1:
    """Entity-level F1 over a corpus: a predicted chunk counts iff label and
    both boundaries match a gold chunk. 0/0 ratios are defined as 1.0 (an
    all-O corpus predicted as all-O is perfect, not undefined)."""
    _check_corpus(gold, pred)
    tp = fp = fn = 0
    for g, p in zip(gold, pred):
        gc = set(extract_chunks(g))
        pc = set(extract_chunks(p))
        tp += len(gc & pc)
        fp += len(pc - gc)
        fn += len(gc - pc)
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    f1 = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 1.0
    return ChunkF1(f1, precision, recall, tp, fp, fn)


def per_token_micro_f1(gold: Sequence[Sequence[SlotTag]], pred: Sequence[Sequence[SlotTag]]) -> float:
    """Micro F1 counting each non-O token tag as one item.

    This is the inflated variant some systems report: a partially overlapping
    chunk earns per-token credit while scoring zero under `slot_f1`. Provided
    for side-by-side reporting, not as the headline measure.
    """
    _check_corpus(gold, pred)
    tp = fp = fn = 0
    for g, p in zip(gold, pred):
        _reject_x(g)
        _reject_x(p)
        for gt, pt in zip(g, p):
            hit = gt == pt
            if pt.kind != "O":
                if hit:
                    tp += 1
                else:
                    fp += 1
            if gt.kind != "O" and not hit:
                fn += 1
    return 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 1.0


def sentence_accuracy(
    gold_intents: Sequence[str],
    pred_intents: Sequence[str],
    gold_tags: Sequence[Sequence[SlotTag]],
    pred_tags: Sequence[Sequence[SlotTag]],
) -> float:
    """Fraction of examples whose intent and full word-level tag sequence are
    both correct."""
    if not len(gold_intents) == len(pred_intents) == len(gold_tags) == len(pred_tags):
        raise AlignmentError("corpus sizes differ across intent/tag inputs")
    _check_corpus(gold_tags, pred_tags)
    if not gold_intents:
        return 1.0
    good = sum(
        gi == pi and tuple(gt) == tuple(pt)
        for gi, pi, gt, pt in zip(gold_intents, pred_intents, gold_tags, pred_tags)
    )
    return good / len(gold_intents)


def intent_accuracy(gold_intents: Sequence[str], pred_intents: Sequence[str]) -> float:
    if len(gold_intents) != len(pred_intents):
        raise AlignmentError("corpus sizes differ")
    if not gold_intents:
        return 1.0
    return sum(g == p for g, p in zip(gold_intents, pred_intents)) / len(gold_intents)


def relative_error_reduction(acc_a: float, acc_b: float) -> float:
    """Percentage of model b's absolute error removed by model a.

    100 * (1 - (1-acc_a)/(1-acc_b)); negative when a is worse than b.
    Accepts accuracies as fractions; a perfect baseline has no error to
    reduce, so acc_b == 1 is rejected.
    """
    if acc_b >= 1.0:
        raise ValueError("baseline accuracy is 1: relative error reduction undefined")
    return 100.0 * (1.0 - (1.0 - acc_a) / (1.0 - acc_b))


def read_kv(text: str, fields: bool = False):
    r"""Parse key=value entries, one per "\n"-ended line (see read_utf8), or
    with `fields` one per whitespace-separated field of a single line.

    Blank entries and entries starting with '#' are skipped; keys and values
    are stripped. Returns (entries, problems): entries maps each key to
    (number, value) in the order read, numbered from 1, and problems holds
    one "line N: ..." (or "field N: ...") message per entry without an '='
    and per repeated key.
    """
    unit = "field" if fields else "line"
    entries: Dict[str, Tuple[int, str]] = {}
    problems: List[str] = []
    for number, raw in enumerate(text.split() if fields else text.split("\n"), 1):
        item = raw.strip()
        if not item or item.startswith("#"):
            continue
        key, eq, value = (s.strip() for s in item.partition("="))
        if not eq:
            problems.append(f"{unit} {number}: expected key=value, got {item!r}")
        elif key in entries:
            problems.append(
                f"{unit} {number}: repeated key {key!r} "
                f"(first on {unit} {entries[key][0]})"
            )
        else:
            entries[key] = (number, value)
    return entries, problems


def kv_text(entries: Mapping[str, object]) -> str:
    """One key=repr(value) line per entry, in order; read_kv reads it back."""
    return "".join(f"{k}={v!r}\n" for k, v in entries.items())


def read_value(field: Field, text: str):
    """`text` as the declared type of dataclass field `field`: a bool word,
    an int, a float, or else the str without its quotes. Text the type
    cannot read is a ValueError naming the field."""
    words = {"true": True, "on": True, "1": True, "yes": True,
             "false": False, "off": False, "0": False, "no": False}
    read = {"bool": lambda t: words[t.lower()], "int": int, "float": float}
    try:
        return read.get(field.type, lambda t: t.strip("'\""))(text)
    except (KeyError, ValueError):
        raise ValueError(f"bad value for {field.name}: {text!r}") from None


# The report keys of the headline measures: compared between runs, and
# summed in this order for model selection.
HEADLINE_MEASURES = ("intent_acc", "sent_acc", "slot_f1")


@dataclass(frozen=True)
class EvalReport:
    """The full measurement bundle for one model on one corpus. Each field
    is written, in this order, under its own name as a report key."""

    intent_acc: float
    sent_acc: float
    slot_f1: float
    token_f1: float
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type == "float" and not 0.0 <= v <= 1.0:
                raise ValueError(f"{f.name}={v} outside [0,1]")
            if f.type == "int" and v < 0:
                raise ValueError(f"{f.name}={v} is negative")

    @property
    def selection_score(self) -> float:
        """Sum of the three headline measures, used for model selection."""
        return sum(getattr(self, key) for key in HEADLINE_MEASURES)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "EvalReport":
        missing = [f.name for f in fields(cls) if f.name not in d]
        if missing:
            raise ValueError(f"report is missing keys: {missing}")
        return cls(**{f.name: read_value(f, str(d[f.name])) for f in fields(cls)})

    def to_kv_text(self) -> str:
        return kv_text(self.to_dict())

    @classmethod
    def from_kv_text(cls, text: str) -> "EvalReport":
        entries, problems = read_kv(text)
        if problems:
            raise ValueError(problems[0])
        return cls.from_dict({k: v for k, (_, v) in entries.items()})
