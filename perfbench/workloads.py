"""The benchmark's workloads and how one run of a workload is measured.

Every workload is one closed-loop caller in one process: it trains a model
with ``train()``, saves it with ``save_checkpoint``, loads it back with
``load_checkpoint`` and serves raw utterances through it, first one request
at a time and then in offline batches of 64. Every run reports every
end-to-end metric, so every workload both trains and serves; the workloads
differ in the slot head they train and in the gazetteer they serve with,
which moves the cost between layers.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import jointnlu.encoder
import jointnlu.features
import jointnlu.model
import jointnlu.optim
import jointnlu.training
from jointnlu import (
    O_TAG,
    DivergenceError,
    TaggedUtterance,
    ToyData,
    TrainConfig,
    WordFeaturizer,
    WordPieceVocab,
    load_checkpoint,
    save_checkpoint,
    toy_grammar,
    train_vocab,
)

import inputs
import speed
import tracing

MODULES = {name: sys.modules[name] for name in (
    "jointnlu.encoder", "jointnlu.features", "jointnlu.model",
    "jointnlu.optim", "jointnlu.training",
)}

# Published desk scaling; the served test split is four batches of 64.
N_TRAIN, N_DEV, N_TEST = 2000, 300, 256
BATCH_SIZE = 32
MAX_LEN = 32
VOCAB_TARGET = 300
EPOCHS = 1
# The model's own seed stays fixed; the workload seed only changes the data.
CONFIG_SEED = 0
GAZETTEER_PHRASES = 20_000
OFFLINE_BATCH = 64
# A run is a sequence of rounds. Each round trains once, sends batch-1
# requests (at least B1_PER_ROUND) and makes offline passes over the served
# utterances (at least one), each for at least SERVE_SECONDS; a traced run
# does only the minimum, so both of its passes do the same work. Every
# metric thus samples the whole run rather than one stretch of it.
# MIN_ROUNDS rounds give p99 the 1,000 requests it needs to have ten
# samples beyond it.
B1_PER_ROUND = 250
SERVE_SECONDS = 0.5
MIN_ROUNDS = 4
SETUP_REPEATS = 5
WARMUP_REQUESTS = 16
# Serving receives words only; the tags and intent are placeholders that
# align_utterance requires and the model never reads.
RAW_INTENT = "unknown"


@dataclass(frozen=True)
class Workload:
    name: str
    slot_mode: str
    gazetteer_phrases: int  # 0 serves with the toy gazetteer
    # Why the workload exists, with the layers it stresses and bypasses;
    # BENCHMARK.json carries the same line.
    why: str


WORKLOADS = {w.name: w for w in (
    Workload(
        "train-softmax", "softmax", 0,
        "Control with a softmax head. Stresses encoder, numerics, make_batch, "
        "AdamW, evaluate; bypasses crf. Must stay flat when the CRF is "
        "optimised.",
    ),
    Workload(
        "train-crf", "crf", 0,
        "CRF head: crf_nll and its backward are about 70% of a step, Viterbi "
        "runs in every eval and request. Stresses crf; encoder gains are "
        "diluted here.",
    ),
    Workload(
        "infer-gaz20k", "softmax", GAZETTEER_PHRASES,
        "Serves with a 20,000-phrase gazetteer, so annotate_entities is most "
        "of a request. Stresses features; bypasses crf. Same model and "
        "utterances as train-softmax.",
    ),
)}


@dataclass
class Gates:
    """Operations attempted and every correctness violation among them.

    An operation is a training step or a serving request (one utterance at
    batch 1, one batch offline)."""

    attempted: int = 0
    violations: Dict[str, int] = field(default_factory=dict)

    def fail(self, gate: str, n: int = 1) -> None:
        if n:
            self.violations[gate] = self.violations.get(gate, 0) + n

    @property
    def failed(self) -> int:
        return sum(self.violations.values())


@dataclass
class Inputs:
    data: ToyData
    train_featurizer: WordFeaturizer
    serve_featurizer: WordFeaturizer
    piece_vocab: WordPieceVocab
    served: List[Tuple[str, ...]]


def make_inputs(workload: Workload, seed: int) -> Inputs:
    data = toy_grammar(seed, N_TRAIN, N_DEV, N_TEST)
    train_featurizer = data.featurizer()
    serve_featurizer = train_featurizer
    if workload.gazetteer_phrases:
        reserved = {w for split in (data.train, data.dev, data.test)
                    for u in split for w in u.words}
        reserved.update(data.lexicon, data.english_dict)
        for phrase, _ in data.gazetteer:
            reserved.update(phrase.split())
        serve_featurizer = dataclasses.replace(
            train_featurizer,
            gazetteer=inputs.synthetic_gazetteer(
                seed, train_featurizer.gazetteer,
                workload.gazetteer_phrases, reserved,
            ),
        )
    piece_vocab = train_vocab(
        [w for u in data.train for w in u.words], VOCAB_TARGET
    )
    return Inputs(data, train_featurizer, serve_featurizer, piece_vocab,
                  [u.words for u in data.test])


def input_hashes(inp: Inputs) -> Dict[str, str]:
    return {
        "train": inputs.corpus_hash(inp.data.train),
        "dev": inputs.corpus_hash(inp.data.dev),
        "served": inputs.corpus_hash(inp.data.test),
        "gazetteer_train": inputs.mapping_hash(inp.train_featurizer.gazetteer),
        "gazetteer_serve": inputs.mapping_hash(inp.serve_featurizer.gazetteer),
        "lexicon": inputs.mapping_hash(inp.train_featurizer.lexicon),
        "english_dict": inputs.words_hash(sorted(inp.train_featurizer.english_dict)),
        "piece_vocab": inputs.words_hash(inp.piece_vocab.pieces),
    }


def train_config(workload: Workload) -> TrainConfig:
    return TrainConfig(
        epochs=EPOCHS, batch_size=BATCH_SIZE, max_len=MAX_LEN,
        slot_mode=workload.slot_mode, seed=CONFIG_SEED,
    )


def serve(ckpt, utterances):
    """Raw words to (intent, word tags) per utterance, through the public
    serving path: align_utterance (which featurizes), make_batch,
    predict_batch and decode_word_tags. Names are looked up on the module
    at call time so a tracer can wrap them."""
    model = jointnlu.model
    seqs = [
        model.align_utterance(
            TaggedUtterance(words, (O_TAG,) * len(words), RAW_INTENT),
            ckpt.piece_vocab, ckpt.featurizer, MAX_LEN,
        )
        for words in utterances
    ]
    batch = model.make_batch(seqs, [0] * len(seqs), ckpt.slot_vocab)
    intent_ids, piece_preds, _ = model.predict_batch(ckpt.params, ckpt.config, batch)
    return [
        (ckpt.intent_vocab.decode(int(iid)),
         tuple(str(t) for t in model.decode_word_tags(seq, pred, ckpt.slot_vocab)))
        for seq, iid, pred in zip(seqs, intent_ids, piece_preds)
    ]


@dataclass
class Pass:
    """One pass's samples, in seconds at reference speed (see speed.py)."""

    rounds: int
    setup_s: List[float]
    train_s: List[float]
    train_losses: List[float]
    b1_s: List[float]
    b64_s: List[float]
    raw_s: Dict[str, float]
    checkpoint_hash: str
    hashes: Dict[str, str]
    sampler: speed.SpeedSampler

    @property
    def measured_s(self) -> float:
        return sum(self.train_s) + sum(self.b1_s) + sum(self.b64_s)


def run_pass(workload: Workload, seed: int, seconds: float, gates: Gates,
             work_dir: Path, rounds: Optional[int] = None,
             tracer: Optional[tracing.Tracer] = None) -> Pass:
    """One measured pass: rounds while they fit in `seconds` (at least
    MIN_ROUNDS), or exactly `rounds` of them, so that a traced pass can
    repeat the work of the untraced pass it is compared with."""
    with speed.SpeedSampler() as sampler:
        p = _run_pass(workload, seed, seconds, gates, work_dir, rounds,
                      tracer, sampler)
        # Samples after the last interval also describe it.
        time.sleep(speed.PAD_S)
    intervals = p.pop("intervals")
    raw_s = {k: sum(b - a for a, b in v) for k, v in intervals.items()}
    scaled = {k: [sampler.scaled(a, b) for a, b in v]
              for k, v in intervals.items()}
    setup_s = [g + l for g, l in zip(scaled["generate"], scaled["load"])]
    return Pass(setup_s=setup_s, train_s=scaled["train"],
                b1_s=scaled["b1"], b64_s=scaled["b64"], raw_s=raw_s,
                sampler=sampler, **p)


def _timed(intervals: List[Tuple[float, float]], fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    intervals.append((t0, time.perf_counter()))
    return result


def _run_pass(workload, seed, seconds, gates, work_dir, rounds, tracer,
              sampler) -> dict:
    if tracer is None:
        phase = traced = lambda *_: nullcontext()
    else:
        phase = tracer.span
        # Wrap call sites only around measured phases, so set-up, loading
        # and warm-up record no spans.
        traced = lambda: tracing.installed(tracer, MODULES)
    iv: Dict[str, List[Tuple[float, float]]] = {
        k: [] for k in ("generate", "load", "train", "b1", "b64")
    }

    for _ in range(SETUP_REPEATS if rounds is None else 1):
        inp = _timed(iv["generate"], make_inputs, workload, seed)
    config = train_config(workload)
    steps = EPOCHS * math.ceil(N_TRAIN / BATCH_SIZE)
    served = inp.served
    losses: List[float] = []
    b1_preds = []
    ckpt = None
    done = 0
    t_start = time.perf_counter()
    while rounds is None or done < rounds:
        t_round = time.perf_counter()
        gates.attempted += steps
        with traced():
            try:
                with phase("bench.train"):
                    result = _timed(
                        iv["train"], jointnlu.training.train,
                        inp.data.train, inp.data.dev, config,
                        inp.train_featurizer, piece_vocab=inp.piece_vocab,
                    )
            except DivergenceError:
                gates.fail("divergence")
                raise
        losses.append(result.history[-1].l_joint)

        if ckpt is None:
            path = work_dir / f"{workload.name}-seed{seed}.npz"
            save_checkpoint(dataclasses.replace(
                result.checkpoint, featurizer=inp.serve_featurizer), path)
            try:
                for _ in iv["generate"]:
                    ckpt = _timed(iv["load"], load_checkpoint, path)
            finally:
                path.unlink()
            for words in served[:WARMUP_REQUESTS]:
                serve(ckpt, [words])
            serve(ckpt, served[:OFFLINE_BATCH])

        with traced():
            t_b1 = time.perf_counter()
            for n in itertools.count():
                if n >= B1_PER_ROUND and (
                        rounds is not None
                        or time.perf_counter() - t_b1 >= SERVE_SECONDS):
                    break
                words = served[len(iv["b1"]) % len(served)]
                with sampler.deferred(), phase("bench.b1"):
                    (pred,) = _timed(iv["b1"], serve, ckpt, [words])
                gates.attempted += 1
                if len(pred[1]) != len(words):
                    gates.fail("wrong_tag_count")
                if len(b1_preds) < len(served):
                    b1_preds.append(pred)

            t_b64 = time.perf_counter()
            while True:
                preds = []
                t0 = time.perf_counter()
                for lo in range(0, len(served), OFFLINE_BATCH):
                    with sampler.deferred(), phase("bench.b64"):
                        preds.extend(
                            serve(ckpt, served[lo:lo + OFFLINE_BATCH]))
                iv["b64"].append((t0, time.perf_counter()))
                gates.attempted += math.ceil(len(served) / OFFLINE_BATCH)
                gates.fail("wrong_tag_count", sum(
                    len(p[1]) != len(w) for p, w in zip(preds, served)))
                gates.fail("b1_b64_disagree", sum(
                    a != b for a, b in zip(b1_preds, preds)))
                if (rounds is not None
                        or time.perf_counter() - t_b64 >= SERVE_SECONDS):
                    break
        done += 1
        # Stop before a round that would likely overrun `seconds`.
        now = time.perf_counter()
        if (rounds is None and done >= MIN_ROUNDS
                and (now - t_start) + (now - t_round) > seconds):
            break

    if not all(math.isfinite(x) for x in losses):
        gates.fail("non_finite_loss")
    # Repeated training runs of one seed must agree to the bit.
    gates.fail("loss_not_repeatable", sum(x != losses[0] for x in losses))
    return dict(
        intervals=iv,
        rounds=done,
        train_losses=losses,
        checkpoint_hash=inputs.params_hash(ckpt.params, ckpt.config.to_dict()),
        hashes=input_hashes(inp),
    )


def end_to_end_metrics(p: Pass) -> Dict[str, Tuple[float, str]]:
    b1_ms = np.asarray(p.b1_s) * 1e3
    return {
        "setup_s": (statistics.median(p.setup_s), "s"),
        "epoch_s": (statistics.median(p.train_s) / EPOCHS, "s"),
        "train_loss": (p.train_losses[0], "nats"),
        "infer_b1_ms_p50": (float(np.percentile(b1_ms, 50)), "ms"),
        "infer_b1_ms_p99": (float(np.percentile(b1_ms, 99)), "ms"),
        "infer_b64_utt_per_s": (N_TEST / statistics.median(p.b64_s), "utt/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


# Span names with child spans in some workload report self time too.
SELF_TIMED = (
    "training.train", "training.evaluate", "model.model_loss_and_grads",
    "model.predict_batch", "model.align_utterance", "encoder.encode",
    "encoder.encode_backward", "features.featurize",
)
TAGGING_SPANS = tuple(n for _, _, n in tracing.CALL_SITES
                      if n.startswith("tagging."))
LAYER_SPANS = tuple(dict.fromkeys(
    n for _, _, n in tracing.CALL_SITES if not n.startswith("tagging.")
))


def per_layer_metric_units() -> Dict[str, Tuple[str, str]]:
    """Every per-layer metric name with its unit and better direction."""
    out: Dict[str, Tuple[str, str]] = {}
    for name in LAYER_SPANS:
        out[f"{name}.ms"] = ("ms", "lower")
        out[f"{name}.calls"] = ("count", "lower")
        if name in SELF_TIMED:
            out[f"{name}.self_ms"] = ("ms", "lower")
    out["tagging.score.ms"] = ("ms", "lower")
    out["subwords.truncated"] = ("count", "lower")
    out["batch.real_frac"] = ("ratio", "higher")
    out["crf.calls_per_step"] = ("count", "lower")
    out["crf.step_frac"] = ("ratio", "lower")
    out["features.b1_frac"] = ("ratio", "lower")
    out["trace.overhead_frac"] = ("ratio", "lower")
    out["trace.unattributed_frac"] = ("ratio", "lower")
    return out


def per_layer_metrics(tracer: tracing.Tracer, untraced: Pass,
                      traced: Pass) -> Dict[str, Tuple[float, str]]:
    excluded = traced.sampler.spent
    totals = tracing.summarize(tracer, excluded)
    empty = tracing.SpanTotals()
    units = per_layer_metric_units()
    out: Dict[str, Tuple[float, str]] = {}
    for name in LAYER_SPANS:
        t = totals.get(name, empty)
        out[f"{name}.ms"] = (t.total_s * 1e3, "ms")
        out[f"{name}.calls"] = (t.calls, "count")
        if name in SELF_TIMED:
            out[f"{name}.self_ms"] = (t.self_s * 1e3, "ms")

    def ms(name: str) -> float:
        return totals.get(name, empty).total_s * 1e3

    def calls(name: str) -> int:
        return totals.get(name, empty).calls

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    phases = [totals.get(n, empty) for n in tracing.PHASES]
    phase_s = sum(t.total_s for t in phases)
    c = tracer.counts
    derived = {
        "tagging.score.ms": sum(ms(n) for n in TAGGING_SPANS),
        "subwords.truncated": c.get("subwords.truncated", 0),
        "batch.real_frac": ratio(c.get("batch.real_positions", 0),
                                 c.get("batch.padded_positions", 0)),
        "crf.calls_per_step": ratio(calls("crf.crf_nll"),
                                    calls("model.model_loss_and_grads")),
        # Share of a training step (forward/backward plus optimizer) spent
        # in the CRF loss and its gradient.
        "crf.step_frac": ratio(
            ms("crf.crf_nll") + ms("crf.crf_nll_backward"),
            ms("model.model_loss_and_grads") + ms("optim.AdamW.step"),
        ),
        "features.b1_frac": ratio(
            tracing.time_under(tracer, "features.featurize", "bench.b1",
                               excluded),
            totals.get("bench.b1", empty).total_s,
        ),
        "trace.overhead_frac": traced.measured_s / untraced.measured_s - 1.0,
        # Time inside the benchmark's own phase spans that no wrapped
        # entry point accounts for.
        "trace.unattributed_frac": ratio(
            sum(t.self_s for t in phases), phase_s),
    }
    for name, value in derived.items():
        out[name] = (value, units[name][0])
    return out
