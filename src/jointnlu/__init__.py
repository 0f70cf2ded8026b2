"""Joint intent classification and slot filling for task-oriented dialogue.

A from-scratch numpy implementation of the full stack: sub-word tokenizer
with label alignment, transformer encoder, attention-pooled intent head,
word-feature-enriched slot head fused with the predicted intent, optional
CRF decoding, joint training, and entity-level evaluation.
"""

from .crf import crf_nll, viterbi
from .data import (
    CorpusError,
    IntentVocab,
    SlotVocab,
    TaggedUtterance,
    combine_intents,
    lint_corpus,
    load_corpus,
    save_corpus,
)
from .encoder import EncoderConfig, encode
from .features import (
    CaseClass,
    EntityClass,
    FEATURE_DIM,
    WordFeaturizer,
    encode_features,
    feature_codes,
)
from .model import (
    Checkpoint,
    ModelConfig,
    init_model_params,
    load_checkpoint,
    param_spec,
    save_checkpoint,
)
from .optim import AdamW, lr_schedule
from .subwords import (
    AlignedSequence,
    WordPieceVocab,
    align,
    de_align,
    train_vocab,
)
from .tagging import (
    AlignmentError,
    Chunk,
    ChunkF1,
    EvalReport,
    O_TAG,
    SlotTag,
    X_TAG,
    extract_chunks,
    intent_accuracy,
    per_token_micro_f1,
    relative_error_reduction,
    sentence_accuracy,
    slot_f1,
)
from .toy import ToyData, toy_grammar
from .training import (
    DESK_ENCODER,
    DivergenceError,
    Prediction,
    TrainConfig,
    TrainResult,
    evaluate,
    predict,
    score,
    select_best,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AdamW",
    "AlignedSequence",
    "AlignmentError",
    "CaseClass",
    "Checkpoint",
    "Chunk",
    "ChunkF1",
    "CorpusError",
    "DESK_ENCODER",
    "DivergenceError",
    "EncoderConfig",
    "EntityClass",
    "EvalReport",
    "FEATURE_DIM",
    "IntentVocab",
    "ModelConfig",
    "O_TAG",
    "Prediction",
    "SlotTag",
    "SlotVocab",
    "TaggedUtterance",
    "ToyData",
    "TrainConfig",
    "TrainResult",
    "WordFeaturizer",
    "WordPieceVocab",
    "X_TAG",
    "align",
    "combine_intents",
    "crf_nll",
    "de_align",
    "encode",
    "encode_features",
    "evaluate",
    "extract_chunks",
    "feature_codes",
    "init_model_params",
    "intent_accuracy",
    "lint_corpus",
    "load_checkpoint",
    "load_corpus",
    "lr_schedule",
    "param_spec",
    "per_token_micro_f1",
    "predict",
    "relative_error_reduction",
    "save_checkpoint",
    "save_corpus",
    "score",
    "select_best",
    "sentence_accuracy",
    "slot_f1",
    "toy_grammar",
    "train",
    "train_vocab",
    "viterbi",
]
