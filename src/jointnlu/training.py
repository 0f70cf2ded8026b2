"""Joint training: the config that builds the model, the optimizer and the
schedule (each value read by `tagging.read_value`); the loop, per-epoch dev
evaluation and its `EpochRecord` log lines, and best-checkpoint selection."""

from __future__ import annotations

import dataclasses
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .data import IntentVocab, SlotVocab, TaggedUtterance
from .encoder import EncoderConfig
from .features import WordFeaturizer
from .model import (
    COMPUTE_DTYPE,
    Checkpoint,
    ModelConfig,
    align_utterance,
    decode_word_tags,
    init_model_params,
    make_batch,
    model_loss_and_grads,
    param_spec,
    predict_batch,
)
from .optim import AdamW, flat_buffer, lr_schedule
from .subwords import AlignedSequence, WordPieceVocab, train_vocab
from .tagging import (
    EvalReport,
    O_TAG,
    SlotTag,
    intent_accuracy,
    kv_text,
    per_token_micro_f1,
    read_kv,
    read_value,
    sentence_accuracy,
    slot_f1,
)

# EncoderConfig's default dimensions, small enough to train on one CPU core
# in minutes; train() replaces the placeholder vocab_size.
DESK_ENCODER = EncoderConfig(vocab_size=4)

# Size of the sub-word vocabulary induced from the train split.
VOCAB_TARGET = 300


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or parameters; surfaced,
    never hidden behind a cryptic downstream shape or math error."""


@dataclass(frozen=True)
class TrainConfig:
    """The full training regime. Defaults are the published desk settings."""

    gamma: float = 0.6
    epochs: int = 50
    batch_size: int = 64
    max_len: int = 50
    learning_rate: float = 8e-5
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-6
    weight_decay: float = 0.01
    warmup_proportion: float = 0.1
    dropout_rate: float = 0.1
    seed: int = 0
    slot_mode: str = "softmax"
    slot_features: bool = True
    intent_pool: str = "attention"

    def __post_init__(self):
        # the declared types, as read_value reads them; a bool is no number
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            kinds = {"int": int, "float": (int, float)}.get(f.type)
            if kinds and (isinstance(value, bool) or not isinstance(value, kinds)):
                raise ValueError(f"{f.name} {value!r} is not {f.type}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs, batch_size out of range")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        # The model, the optimizer and the schedule own the ranges of their
        # settings; building them here makes a bad value fail before any
        # output exists.
        self.model_config(DESK_ENCODER, 1, 1)
        self.optimizer(flat_buffer({})[0], {}, ())
        self.lr_at(0, 1)

    def model_config(self, encoder: EncoderConfig, n_intents: int,
                     n_slots: int) -> ModelConfig:
        """The model these settings train: `encoder` at their max_len, over
        the given label spaces."""
        return ModelConfig(dataclasses.replace(encoder, max_len=self.max_len),
                           n_intents, n_slots, self.slot_mode,
                           self.slot_features, self.intent_pool,
                           self.dropout_rate)

    def optimizer(self, params: np.ndarray, shapes: Mapping[str, Tuple[int, ...]],
                  decayed: Iterable[str]) -> AdamW:
        """AdamW with these settings over `params`, as `flat_buffer(shapes)`."""
        return AdamW(params, shapes, decayed, self.beta1, self.beta2,
                     self.epsilon, self.weight_decay)

    def lr_at(self, step: int, total_steps: int) -> float:
        """The learning rate of `step` out of `total_steps`."""
        return lr_schedule(step, total_steps, self.warmup_proportion,
                           self.learning_rate)

    def to_kv_text(self) -> str:
        return kv_text(dataclasses.asdict(self))


def validate_config_text(text: str):
    """Parse a config file, collecting every problem instead of stopping at
    the first one. Returns (config, []) on success, (None, errors) otherwise.
    """
    fields = {f.name: f for f in dataclasses.fields(TrainConfig)}
    kwargs = {}
    entries, errors = read_kv(text)
    for key, (lineno, value) in entries.items():
        if key not in fields:
            errors.append(f"line {lineno}: unknown setting {key!r}")
            continue
        try:
            kwargs[key] = read_value(fields[key], value)
        except ValueError as err:
            errors.append(f"line {lineno}: {err}")
    # Probe each parsed value on its own so one out-of-range setting does
    # not hide the next.
    for key, value in kwargs.items():
        try:
            TrainConfig(**{key: value})
        except ValueError as err:
            errors.append(f"{key}: {err}")
    if errors:
        return None, errors
    return TrainConfig(**kwargs), []


def select_best(reports: Sequence[EvalReport]) -> int:
    """Epoch whose dev report maximizes the three-measure sum; ties go to
    the earliest epoch."""
    if not reports:
        raise ValueError("need at least one report")
    scores = [r.selection_score for r in reports]
    return int(np.argmax(scores))


@dataclass(frozen=True)
class EpochRecord:
    """One training-log line: the fields before `dev`, then the dev
    report's, each under its field name."""

    epoch: int
    l_intent: float
    l_slot: float
    l_joint: float
    dev: EvalReport

    def to_line(self) -> str:
        entries = dataclasses.asdict(self)
        dev = entries.pop("dev")
        return " ".join(kv_text({**entries, **dev}).splitlines())

    @classmethod
    def from_line(cls, line: str) -> "EpochRecord":
        """Read a to_line line; a malformed one raises ValueError naming
        the problem."""
        entries, problems = read_kv(line, fields=True)
        d = {k: v for k, (_, v) in entries.items()}
        logged = dataclasses.fields(cls)[:-1]
        missing = [f.name for f in logged if f.name not in d]
        try:
            if problems or missing:
                raise ValueError(problems[0] if problems else f"lacks {missing[0]!r}")
            return cls(**{f.name: read_value(f, d[f.name]) for f in logged},
                       dev=EvalReport.from_dict(d))
        except ValueError as err:
            raise ValueError(f"training log line: {err}") from None


@dataclass(frozen=True)
class TrainResult:
    checkpoint: Checkpoint
    best_epoch: int
    history: Tuple[EpochRecord, ...]


def score(
    gold_intents: Sequence[str],
    pred_intents: Sequence[str],
    gold_tags: Sequence[Sequence[SlotTag]],
    pred_tags: Sequence[Sequence[SlotTag]],
) -> EvalReport:
    """Every measure of one corpus's word-level predictions, in one report."""
    chunk_scores = slot_f1(gold_tags, pred_tags)
    return EvalReport(
        intent_acc=intent_accuracy(gold_intents, pred_intents),
        sent_acc=sentence_accuracy(gold_intents, pred_intents, gold_tags,
                                   pred_tags),
        slot_f1=chunk_scores.f1,
        token_f1=per_token_micro_f1(gold_tags, pred_tags),
        tp=chunk_scores.tp,
        fp=chunk_scores.fp,
        fn=chunk_scores.fn,
    )


class Prediction(NamedTuple):
    """One served utterance: its intent, a tag per kept word, the aligned
    sequence it was read as and that sequence's intent-pooling weights."""

    intent: str
    tags: List[SlotTag]
    seq: AlignedSequence
    alpha: np.ndarray  # (len(seq),)


def predict(ckpt: Checkpoint, utterances: Sequence[Sequence[str]],
            batch_size: int = 64) -> List[Prediction]:
    """Words in, intents and word tags out: the one serving path. Each
    utterance is aligned at the checkpoint's max_len, so a truncated one
    (`seq.truncated`) gets tags for its kept words only."""
    if not utterances:
        raise ValueError("need at least one utterance to predict")
    if any(isinstance(words, str) for words in utterances):
        raise ValueError("each utterance is a sequence of words, not a string")
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    out: List[Prediction] = []
    for lo in range(0, len(utterances), batch_size):
        # Alignment and batching carry labels; the forward pass and the
        # decoder never read these placeholders.
        seqs = [
            align_utterance(TaggedUtterance(w, (O_TAG,) * len(w), "unlabeled"),
                            ckpt.piece_vocab, ckpt.featurizer,
                            ckpt.config.encoder.max_len)
            for w in utterances[lo:lo + batch_size]
        ]
        batch = make_batch(seqs, [0] * len(seqs), ckpt.slot_vocab)
        intent_ids, pieces, alphas = predict_batch(ckpt.params, ckpt.config, batch)
        out += [
            Prediction(ckpt.intent_vocab.decode(int(i)),
                       decode_word_tags(seq, p, ckpt.slot_vocab), seq, a)
            for seq, i, p, a in zip(seqs, intent_ids, pieces, alphas)
        ]
    return out


def evaluate(ckpt: Checkpoint, utterances: Sequence[TaggedUtterance],
             batch_size: int = 64) -> EvalReport:
    """Word-level scoring of a checkpoint on a tagged corpus.

    Predictions on truncated sequences are padded with O for the dropped
    words, so they score as ordinary errors instead of crashing alignment.
    """
    preds = predict(ckpt, [u.words for u in utterances], batch_size)
    gold_tags = [list(u.tags) for u in utterances]
    pred_tags = [p.tags + [O_TAG] * (len(gold) - len(p.tags))
                 for p, gold in zip(preds, gold_tags)]
    return score([u.intent for u in utterances], [p.intent for p in preds],
                 gold_tags, pred_tags)


@contextmanager
def _diverges_at(epoch: int, step: int):
    """Turn an overflow or invalid value in the block into a DivergenceError.

    Healthy runs never overflow: softmax is shift protected, so inf/nan in a
    step, or a learning rate or update beyond float32's range in AdamW,
    means the run blew up."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as err:
        raise DivergenceError(
            f"non-finite values at epoch {epoch}, step {step}: {err}"
        ) from err


def train(
    train_corpus: Sequence[TaggedUtterance],
    dev_corpus: Sequence[TaggedUtterance],
    config: TrainConfig,
    featurizer: WordFeaturizer,
    *,
    encoder: Optional[EncoderConfig] = None,
    piece_vocab: Optional[WordPieceVocab] = None,
) -> TrainResult:
    """Fit the joint model and return the dev-selected checkpoint.

    Label and sub-word vocabularies come from the train split only. The
    `encoder` argument is a dimension template; its vocab_size and max_len
    are always replaced to match the trained sub-word vocabulary and
    config.max_len.
    """
    if not train_corpus:
        raise ValueError("train corpus is empty")
    if not dev_corpus:
        raise ValueError("dev corpus is empty: no epoch could be selected")
    rng = np.random.default_rng(config.seed)

    if piece_vocab is None:
        words = [w for u in train_corpus for w in u.words]
        piece_vocab = train_vocab(words, VOCAB_TARGET)
    intent_vocab = IntentVocab.from_corpus(train_corpus)
    slot_vocab = SlotVocab.from_corpus(train_corpus)

    enc_cfg = dataclasses.replace(encoder or DESK_ENCODER, vocab_size=len(piece_vocab))
    model_cfg = config.model_config(enc_cfg, len(intent_vocab), len(slot_vocab))
    # Every tensor is a view into one flat COMPUTE_DTYPE buffer, which AdamW
    # updates in place. Each epoch's dev evaluation serves this checkpoint over
    # the live views; the result holds a copy of the best epoch's.
    spec = param_spec(model_cfg)
    shapes = {row.name: row.shape for row in spec}
    flat, params = flat_buffer(shapes, COMPUTE_DTYPE)
    for name, value in init_model_params(model_cfg, rng).items():
        params[name][...] = value
    ckpt = Checkpoint(params, model_cfg, intent_vocab, slot_vocab, piece_vocab,
                      featurizer)
    opt = config.optimizer(flat, shapes, [row.name for row in spec if row.decay])

    train_seqs = [
        align_utterance(u, piece_vocab, featurizer, config.max_len)
        for u in train_corpus
    ]
    train_intents = np.array(
        [intent_vocab.encode(u.intent) for u in train_corpus], dtype=int
    )

    n = len(train_seqs)
    steps_per_epoch = math.ceil(n / config.batch_size)
    total_steps = steps_per_epoch * config.epochs
    step = 0
    history: List[EpochRecord] = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        sums = np.zeros(3)
        n_batches = 0
        for lo in range(0, n, config.batch_size):
            idx = order[lo:lo + config.batch_size]
            batch = make_batch([train_seqs[i] for i in idx], train_intents[idx],
                               slot_vocab)
            with _diverges_at(epoch, step):
                l_int, l_slot, l_joint, grads = model_loss_and_grads(
                    params, model_cfg, batch, config.gamma, rng
                )
                if not (np.isfinite(l_int) and np.isfinite(l_slot)):
                    raise DivergenceError(
                        f"non-finite loss at epoch {epoch}, step {step}: "
                        f"intent={l_int}, slot={l_slot}"
                    )
                opt.step(grads, config.lr_at(step, total_steps))
            if not np.isfinite(flat).all():
                raise DivergenceError(
                    f"non-finite parameters after epoch {epoch}, "
                    f"step {step}; try a lower learning rate"
                )
            step += 1
            sums += (l_int, l_slot, l_joint)
            n_batches += 1

        dev_report = evaluate(ckpt, dev_corpus, config.batch_size)
        means = [float(x) for x in sums / n_batches]
        record = EpochRecord(epoch, *means, dev=dev_report)
        history.append(record)
        best_epoch = select_best([r.dev for r in history])
        if best_epoch == epoch:
            best_params = {k: v.copy() for k, v in params.items()}

    return TrainResult(
        checkpoint=dataclasses.replace(ckpt, params=best_params),
        best_epoch=best_epoch,
        history=tuple(history),
    )
