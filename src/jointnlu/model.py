"""The full joint model: encoder, intent pooling, fused slot scoring.

Every per-piece array from the encoder's output to the loss is packed: one
row per real piece, sequence after sequence. Past the encoder the one layout
fact is `Batch.lengths`, each sequence's row count; only the encoder's
attention block sees the padded (b, n) layout.

Parameters live in one flat name -> array dict. `param_spec` is the one
list of its tensors (name, shape, initialiser, weight-decay flag); the
initialiser, Checkpoint's check and the trainer's flat buffers all read
it. Every layer reads its tensors from that dict under those names and
returns gradients under the same names. The forward and backward passes
compute in the dtype of the parameters handed in. The model's own dtype is
COMPUTE_DTYPE (float32): training, dev evaluation, checkpoints and serving
all use it. The finite-difference tests hand in float64 arrays and get
float64 passes.
"""

from __future__ import annotations

import json
import tokenize
import zipfile
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .crf import crf_nll, crf_nll_backward, viterbi
from .data import IntentVocab, SlotVocab, TaggedUtterance, staged
from .encoder import EncoderConfig, encode, encode_backward
from .features import (
    FEATURE_DIM,
    FEATURE_HIDDEN,
    WordFeaturizer,
    feature_backward,
    feature_forward,
)
from .intent_head import POOL_MODES, intent_backward, intent_forward
from .numerics import log_softmax
from .slot_head import slot_backward, slot_forward
from .subwords import AlignedSequence, WordPieceVocab, align, de_align
from .tagging import SlotTag

SLOT_MODES = ("softmax", "crf")

# The dtype the model is trained, evaluated, saved and served in.
COMPUTE_DTYPE = np.float32


@dataclass(frozen=True)
class ModelConfig:
    """Everything the forward pass needs to know besides the tensors."""

    encoder: EncoderConfig
    n_intents: int
    n_slots: int
    slot_mode: str = "softmax"
    slot_features: bool = True
    intent_pool: str = "attention"
    dropout_rate: float = 0.1

    def __post_init__(self):
        for name, value in (("n_intents", self.n_intents), ("n_slots", self.n_slots)):
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} {value!r} is not a positive int")
        if type(self.slot_features) is not bool:
            raise ValueError(f"slot_features {self.slot_features!r} is not a bool")
        if self.slot_mode not in SLOT_MODES:
            raise ValueError(f"slot_mode must be one of {SLOT_MODES}")
        if self.intent_pool not in POOL_MODES:
            raise ValueError(f"intent_pool must be one of {POOL_MODES}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        d["encoder"] = EncoderConfig.from_dict(d["encoder"])
        return cls(**d)


class ParamRow(NamedTuple):
    """One model tensor: its name, its shape, how it starts, and whether
    AdamW applies weight decay to it."""

    name: str
    shape: Tuple[int, ...]
    init: str  # a key of _INITIALISERS
    decay: bool


_INITIALISERS = {
    "normal": lambda rng, shape, scale: rng.normal(0.0, scale, shape),
    "zeros": lambda rng, shape, scale: np.zeros(shape),
    "ones": lambda rng, shape, scale: np.ones(shape),
    "prelu": lambda rng, shape, scale: np.full(shape, 0.25),
}


def param_spec(cfg: ModelConfig) -> List[ParamRow]:
    """Every tensor of the model, in the order init_model_params draws them.

    Weights and embeddings start N(0, scale) and take weight decay. Biases,
    layer-norm gains, the PReLU slope (a 0-d array) and the CRF boundary
    scores take none. The slot projection reads [intent probabilities; word
    features, when on; hidden state].
    """
    enc, d_h = cfg.encoder, cfg.encoder.d_h

    def weight(name: str, *shape: int) -> ParamRow:
        return ParamRow(name, shape, "normal", True)

    def fixed(name: str, init: str, *shape: int) -> ParamRow:
        return ParamRow(name, shape, init, False)

    rows = [
        weight("enc.tok_emb", enc.vocab_size, d_h),
        weight("enc.pos_emb", enc.max_len, d_h),
        fixed("enc.ln_emb.g", "ones", d_h),
        fixed("enc.ln_emb.b", "zeros", d_h),
    ]
    for i in range(enc.n_layers):
        p = f"enc.l{i}."
        rows += [weight(p + w, d_h, d_h) for w in ("Wq", "Wk", "Wv", "Wo")]
        rows += [fixed(p + b, "zeros", d_h) for b in ("bq", "bk", "bv", "bo")]
        rows += [
            fixed(p + "ln1.g", "ones", d_h),
            fixed(p + "ln1.b", "zeros", d_h),
            weight(p + "W1", d_h, enc.d_ff),
            fixed(p + "b1", "zeros", enc.d_ff),
            weight(p + "W2", enc.d_ff, d_h),
            fixed(p + "b2", "zeros", d_h),
            fixed(p + "ln2.g", "ones", d_h),
            fixed(p + "ln2.b", "zeros", d_h),
        ]
    slot_input_width = cfg.n_intents + d_h
    if cfg.slot_features:
        slot_input_width += FEATURE_HIDDEN
        rows += [
            weight("feat.W_w", FEATURE_DIM, FEATURE_HIDDEN),
            fixed("feat.b_w", "zeros", FEATURE_HIDDEN),
            fixed("feat.a_prelu", "prelu"),
            weight("feat.W_proj", FEATURE_HIDDEN, FEATURE_HIDDEN),
            fixed("feat.b_proj", "zeros", FEATURE_HIDDEN),
        ]
    rows += [
        weight("int.W_cls", cfg.n_intents, d_h),
        fixed("int.b_cls", "zeros", cfg.n_intents),
    ]
    if cfg.intent_pool == "attention":
        rows += [weight("int.W_score", d_h, d_h), weight("int.v_score", d_h)]
    else:
        rows += [weight("int.W_pool", d_h, d_h), fixed("int.b_pool", "zeros", d_h)]
    rows += [
        weight("W_s", cfg.n_slots, slot_input_width),
        fixed("b_s", "zeros", cfg.n_slots),
    ]
    if cfg.slot_mode == "crf":
        rows += [
            weight("crf.T", cfg.n_slots, cfg.n_slots),
            fixed("crf.start", "zeros", cfg.n_slots),
            fixed("crf.end", "zeros", cfg.n_slots),
        ]
    return rows


def init_model_params(
    cfg: ModelConfig, rng: np.random.Generator, scale: float = 0.02
) -> Dict[str, np.ndarray]:
    return {
        row.name: _INITIALISERS[row.init](rng, row.shape, scale)
        for row in param_spec(cfg)
    }


@dataclass(frozen=True)
class Batch:
    """A list of aligned sequences as arrays. The ids are padded for the
    encoder; the per-piece arrays hold the T real pieces packed, in
    np.flatnonzero(pad_mask) order, `lengths` of them per sequence."""

    ids: np.ndarray          # (b, n) int
    pad_mask: np.ndarray     # (b, n) bool, True at real positions
    features: np.ndarray     # (T, 23)
    tag_ids: np.ndarray      # (T,) int
    intent_ids: np.ndarray   # (b,)
    lengths: np.ndarray = field(init=False)  # (b,) real pieces per sequence

    def __post_init__(self):
        b, n = self.ids.shape
        if self.pad_mask.shape != (b, n):
            raise ValueError("ids and pad_mask disagree on shape")
        object.__setattr__(self, "lengths", self.pad_mask.sum(axis=1))
        T = int(self.lengths.sum())
        if self.tag_ids.shape != (T,) or self.features.shape != (T, FEATURE_DIM):
            raise ValueError("per-piece arrays need one row per real position")
        if self.intent_ids.shape != (b,):
            raise ValueError("need one intent id per sequence")


def make_batch(
    seqs: Sequence[AlignedSequence],
    intent_ids: Sequence[int],
    slot_vocab: SlotVocab,
) -> Batch:
    if not seqs or len(seqs) != len(intent_ids):
        raise ValueError("need one intent id per aligned sequence")
    lengths = np.array([len(s) for s in seqs])
    pad_mask = np.arange(lengths.max()) < lengths[:, None]
    ids = np.zeros(pad_mask.shape, dtype=int)  # padding is piece id 0
    ids[pad_mask] = [pid for seq in seqs for pid in seq.piece_ids]
    features = np.concatenate([seq.features for seq in seqs])
    tag_ids = np.array(
        [slot_vocab.encode(t) for seq in seqs for t in seq.piece_tags], dtype=int
    )
    return Batch(ids, pad_mask, features, tag_ids, np.asarray(intent_ids, dtype=int))


def align_utterance(
    utt: TaggedUtterance,
    piece_vocab: WordPieceVocab,
    featurizer: WordFeaturizer,
    max_len: int,
) -> AlignedSequence:
    feats = featurizer.featurize(utt.words)
    return align(utt.words, utt.tags, feats, piece_vocab, max_len)


def model_outputs(
    params: Dict[str, np.ndarray],
    cfg: ModelConfig,
    batch: Batch,
    rng: Optional[np.random.Generator] = None,
):
    """Run the full forward pass, with cfg.dropout_rate applied when an rng
    is given and no dropout otherwise.

    Returns (y_int, slot_scores, alpha, cache), the cache bundling what the
    backward pass needs: y_int is (b, n_intents), slot_scores (T, n_slots)
    and alpha (T,), one row per real piece.
    """
    rate = cfg.dropout_rate  # dropout_mask draws nothing when rng is None
    H, enc_cache = encode(batch.ids, batch.pad_mask, params, cfg.encoder, rate, rng)
    y_int, alpha, int_cache = intent_forward(
        H, batch.lengths, params, cfg.intent_pool, rate, rng
    )
    f_words, feat_cache = None, None
    if cfg.slot_features:
        f_words, feat_cache = feature_forward(batch.features, params)
    slot_scores, slot_cache = slot_forward(
        y_int, f_words, H, batch.lengths, params, rate, rng
    )
    cache = dict(enc=enc_cache, int=int_cache, feat=feat_cache, slot=slot_cache)
    return y_int, slot_scores, alpha, cache


def _cross_entropy(
    scores: np.ndarray, gold_ids: np.ndarray, lengths: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Cross-entropy at every packed row: per-sequence mean over its rows,
    then mean over the batch; and its gradient."""
    starts = np.cumsum(lengths) - lengths
    logp = log_softmax(scores, axis=-1)
    gold = (np.arange(len(gold_ids)), gold_ids)
    per_seq = -np.add.reduceat(logp[gold], starts) / lengths
    loss = float(per_seq.mean())

    d = np.exp(logp)
    d[gold] -= 1.0
    d *= np.repeat(1.0 / (lengths * len(lengths)), lengths)[:, None]
    return loss, d


def _crf_slot_loss(
    slot_scores: np.ndarray,
    tag_ids: np.ndarray,
    lengths: np.ndarray,
    params: Dict[str, np.ndarray],
) -> Tuple[float, np.ndarray, Dict[str, np.ndarray]]:
    """Batch-mean sequence negative log-likelihood and its gradients, the
    emission gradient packed like slot_scores."""
    b = len(lengths)
    nll, cache = crf_nll(
        slot_scores, tag_ids, params["crf.T"], params["crf.start"],
        params["crf.end"], lengths,
    )
    g = crf_nll_backward(cache)
    crf_grads = {
        "crf.T": g["trans"] / b,
        "crf.start": g["start"] / b,
        "crf.end": g["end"] / b,
    }
    return float(nll.sum()) / b, g["emissions"] / b, crf_grads


def model_loss_and_grads(
    params: Dict[str, np.ndarray],
    cfg: ModelConfig,
    batch: Batch,
    gamma: float,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[float, float, float, Dict[str, np.ndarray]]:
    """One full forward/backward pass, with dropout as in model_outputs.

    Returns (l_intent, l_slot, l_joint, grads): the joint objective
    l_joint = gamma*l_intent + (1-gamma)*l_slot and its gradient, keyed
    exactly like params.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    y_int, slot_scores, _, cache = model_outputs(params, cfg, batch, rng)

    l_int, d_y_ce = _cross_entropy(
        y_int, batch.intent_ids, np.ones_like(batch.intent_ids)
    )
    grads: Dict[str, np.ndarray] = {}
    if cfg.slot_mode == "crf":
        l_slot, d_slot, crf_grads = _crf_slot_loss(
            slot_scores, batch.tag_ids, batch.lengths, params
        )
        grads.update((k, (1.0 - gamma) * v) for k, v in crf_grads.items())
    else:
        l_slot, d_slot = _cross_entropy(slot_scores, batch.tag_ids, batch.lengths)

    l_joint = gamma * l_int + (1.0 - gamma) * l_slot
    d_slot = (1.0 - gamma) * d_slot
    d_y_from_slot, d_f, d_H_slot, slot_grads = slot_backward(
        d_slot, cache["slot"], params
    )
    grads.update(slot_grads)

    d_y_int = gamma * d_y_ce + d_y_from_slot
    d_H_int, int_grads = intent_backward(d_y_int, cache["int"], params)
    grads.update(int_grads)

    if cfg.slot_features:
        grads.update(feature_backward(d_f, cache["feat"], params))

    grads.update(
        encode_backward(d_H_int + d_H_slot, cache["enc"], params, cfg.encoder)
    )
    return l_int, l_slot, l_joint, grads


def predict_batch(
    params: Dict[str, np.ndarray], cfg: ModelConfig, batch: Batch
) -> Tuple[np.ndarray, List[np.ndarray], np.ndarray]:
    """Deterministic decoding.

    Returns (intent id per sequence, piece-level tag ids per sequence
    [unpadded lengths], (T,) pooling weights). The structured decoder is
    used in crf mode, independent per-position argmax otherwise.
    """
    # Slicing drops the forward cache before decoding starts.
    y_int, slot_scores, alpha = model_outputs(params, cfg, batch)[:3]
    intent_pred = np.argmax(y_int, axis=-1)
    lengths = batch.lengths
    if cfg.slot_mode == "crf":
        paths = viterbi(
            slot_scores, params["crf.T"], params["crf.start"],
            params["crf.end"], lengths,
        )
    else:
        paths = np.argmax(slot_scores, axis=-1)
    return intent_pred, np.split(paths, np.cumsum(lengths)[:-1]), alpha


def decode_word_tags(
    seq: AlignedSequence, piece_tag_ids: np.ndarray, slot_vocab: SlotVocab
) -> List[SlotTag]:
    """Map piece-level tag id predictions back to one tag per source word;
    only the ids at first pieces are decoded."""
    return de_align(seq, np.asarray(piece_tag_ids).tolist(), slot_vocab.decode)


_META_KEY = "archive_meta"
# What np.load raises, besides ValueError and OSError, on a damaged archive.
# RuntimeError covers zipfile's "compression method is not supported"
# (a NotImplementedError) and "is encrypted, password required".
_UNREADABLE = (zipfile.BadZipFile, RuntimeError, tokenize.TokenError, EOFError)


@dataclass(frozen=True)
class Checkpoint:
    """A self-contained trained model: tensors plus every vocabulary and
    resource needed to run it on raw text, checked when built (ValueError):
    the float32 or float64 tensors of param_spec(config), finite once cast
    to COMPUTE_DTYPE, and vocabularies of the config's sizes. A float32
    tensor is kept, not copied, so train()'s dev evaluation reads its views."""

    params: Dict[str, np.ndarray]
    config: ModelConfig
    intent_vocab: IntentVocab
    slot_vocab: SlotVocab
    piece_vocab: WordPieceVocab
    featurizer: WordFeaturizer

    def __post_init__(self):
        shapes = {row.name: row.shape for row in param_spec(self.config)}
        unexpected = sorted(self.params.keys() - shapes.keys())
        if unexpected:
            raise ValueError(f"unexpected tensor {unexpected[0]!r}")
        params = {}
        for name, shape in shapes.items():
            arr = self.params.get(name)
            if arr is None:
                problem = "is missing"
            elif arr.shape != shape:
                problem = f"has shape {arr.shape}, expected {shape}"
            elif arr.dtype not in (COMPUTE_DTYPE, np.float64):
                problem = f"has dtype {arr.dtype}, expected {np.dtype(COMPUTE_DTYPE)}"
            else:
                with np.errstate(over="ignore"):  # past float32's range: inf
                    params[name] = arr = arr.astype(COMPUTE_DTYPE, copy=False)
                if np.isfinite(arr).all():
                    continue
                problem = "has non-finite values"
            raise ValueError(f"tensor {name!r} {problem}")
        object.__setattr__(self, "params", params)
        for key, have, want in (
            ("intent_labels", len(self.intent_vocab), self.config.n_intents),
            ("slot_tags", len(self.slot_vocab), self.config.n_slots),
            ("pieces", len(self.piece_vocab), self.config.encoder.vocab_size),
        ):
            if have != want:
                raise ValueError(
                    f"metadata {key!r} holds {have} entries, "
                    f"the config says {want}"
                )


# The metadata object, key by key in the order it is written: the key, the
# Checkpoint field it holds, the field as JSON, and the field from that JSON.
_META = (
    ("config", "config", ModelConfig.to_dict, ModelConfig.from_dict),
    ("intent_labels", "intent_vocab", lambda v: list(v.labels), IntentVocab),
    ("slot_tags", "slot_vocab", lambda v: list(v.tags), SlotVocab),
    ("pieces", "piece_vocab", lambda v: list(v.pieces), WordPieceVocab),
    ("resources", "featurizer", WordFeaturizer.to_dict, WordFeaturizer.from_dict),
)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    # Rebuilding checks a params dict edited after construction.
    ckpt = replace(ckpt)
    meta = {key: write(getattr(ckpt, attr)) for key, attr, write, _ in _META}
    raw = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    with staged(path) as tmp, open(tmp, "wb") as fh:
        np.savez(fh, **ckpt.params, **{_META_KEY: raw})


def _read_meta(path, raw: np.ndarray) -> dict:
    try:
        meta = json.loads(raw.tobytes().decode("utf-8"))
    except ValueError:  # bad UTF-8 or bad JSON
        raise ValueError(f"{path}: model metadata is not JSON text") from None
    if not isinstance(meta, dict):
        raise ValueError(
            f"{path}: model metadata is a JSON {type(meta).__name__}, "
            "expected an object"
        )
    missing = [key for key, *_ in _META if key not in meta]
    if missing:
        raise ValueError(f"{path}: model metadata lacks {missing[0]!r}")
    return meta


def load_checkpoint(path) -> Checkpoint:
    try:
        # np.load leaves the file it opened open when the archive is damaged
        with open(path, "rb") as f, np.load(f) as archive:
            arrays = {k: archive[k] for k in archive.files}
    except _UNREADABLE as err:
        raise ValueError(
            f"{path}: not a readable model archive ({type(err).__name__}: {err})"
        ) from None
    if _META_KEY not in arrays:
        raise ValueError(f"{path}: not a model archive (missing metadata)")
    meta = _read_meta(path, arrays.pop(_META_KEY))
    fields = {}
    for key, attr, _, read in _META:
        try:
            fields[attr] = read(meta[key])
        except (KeyError, TypeError, ValueError) as err:
            raise ValueError(
                f"{path}: metadata {key!r} is not valid "
                f"({type(err).__name__}: {err})"
            ) from None
    try:
        return Checkpoint(params=arrays, **fields)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
