"""In-memory span tracing of jointnlu's public entry points.

The tracer never edits the package: it swaps the name a caller looks up
(a module global such as ``jointnlu.training.make_batch``, or a method on a
class) for a wrapper that records one span per call, and puts the original
back when the traced block ends. Spans are kept as four parallel lists
(name, start, end, parent) and written once, after the run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

# (module holding the call-site name, attribute, span name). A span name is
# "<layer>.<entry point>" with the layer named after the module that defines
# the entry point. Where one entry point is looked up in two modules, both
# call sites are wrapped under the same span name.
CALL_SITES = (
    ("jointnlu.training", "train", "training.train"),
    ("jointnlu.training", "evaluate", "training.evaluate"),
    ("jointnlu.training", "make_batch", "model.make_batch"),
    ("jointnlu.model", "make_batch", "model.make_batch"),
    ("jointnlu.training", "model_loss_and_grads", "model.model_loss_and_grads"),
    ("jointnlu.training", "predict_batch", "model.predict_batch"),
    ("jointnlu.model", "predict_batch", "model.predict_batch"),
    ("jointnlu.training", "decode_word_tags", "model.decode_word_tags"),
    ("jointnlu.model", "decode_word_tags", "model.decode_word_tags"),
    ("jointnlu.training", "align_utterance", "model.align_utterance"),
    ("jointnlu.model", "align_utterance", "model.align_utterance"),
    ("jointnlu.model", "encode", "encoder.encode"),
    ("jointnlu.model", "encode_backward", "encoder.encode_backward"),
    ("jointnlu.encoder", "gelu", "numerics.gelu"),
    ("jointnlu.encoder", "gelu_grad", "numerics.gelu_grad"),
    ("jointnlu.encoder", "layer_norm", "numerics.layer_norm"),
    ("jointnlu.encoder", "layer_norm_backward", "numerics.layer_norm_backward"),
    ("jointnlu.encoder", "stable_softmax", "numerics.stable_softmax"),
    ("jointnlu.encoder", "softmax_backward", "numerics.softmax_backward"),
    ("jointnlu.model", "intent_forward", "intent_head.intent_forward"),
    ("jointnlu.model", "intent_backward", "intent_head.intent_backward"),
    ("jointnlu.model", "slot_forward", "slot_head.slot_forward"),
    ("jointnlu.model", "slot_backward", "slot_head.slot_backward"),
    ("jointnlu.model", "feature_forward", "features.feature_forward"),
    ("jointnlu.model", "feature_backward", "features.feature_backward"),
    ("jointnlu.features", "WordFeaturizer.featurize", "features.featurize"),
    ("jointnlu.features", "annotate_entities", "features.annotate_entities"),
    ("jointnlu.model", "align", "subwords.align"),
    ("jointnlu.model", "crf_nll", "crf.crf_nll"),
    ("jointnlu.model", "crf_nll_backward", "crf.crf_nll_backward"),
    ("jointnlu.model", "viterbi", "crf.viterbi"),
    ("jointnlu.optim", "AdamW.step", "optim.AdamW.step"),
    ("jointnlu.training", "intent_accuracy", "tagging.intent_accuracy"),
    ("jointnlu.training", "sentence_accuracy", "tagging.sentence_accuracy"),
    ("jointnlu.training", "slot_f1", "tagging.slot_f1"),
    ("jointnlu.training", "per_token_micro_f1", "tagging.per_token_micro_f1"),
)

# Spans the benchmark itself opens around each unit of measured work.
PHASES = ("bench.train", "bench.b1", "bench.b64")


@dataclass
class Tracer:
    """Spans as parallel lists; parent -1 marks a root span."""

    names: List[str] = field(default_factory=list)
    starts: List[float] = field(default_factory=list)
    ends: List[float] = field(default_factory=list)
    parents: List[int] = field(default_factory=list)
    # Counters fed by result hooks at the call sites that produce them.
    counts: Dict[str, float] = field(default_factory=dict)
    _stack: List[int] = field(default_factory=lambda: [-1])

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn: Callable, name: str,
             on_result: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def to_dict(self) -> dict:
        return {
            "names": self.names,
            "start_s": self.starts,
            "end_s": self.ends,
            "parent": self.parents,
        }


def _count_real_positions(tracer: Tracer, batch) -> None:
    tracer.count("batch.real_positions", int(batch.pad_mask.sum()))
    tracer.count("batch.padded_positions", int(batch.pad_mask.size))


def _count_truncated(tracer: Tracer, seq) -> None:
    tracer.count("subwords.truncated", int(seq.truncated))


# Result hooks by (module, attribute). batch.real_frac is taken over the
# batches the trainer builds (training steps and dev evaluation), where
# padding is a cost; a serving request of one utterance has none.
_HOOKS = {
    ("jointnlu.training", "make_batch"): _count_real_positions,
    ("jointnlu.model", "align"): _count_truncated,
}


@contextmanager
def installed(tracer: Tracer, modules: Dict[str, object]):
    """Wrap every call site in CALL_SITES for the duration of the block.

    `modules` maps a dotted module name to the imported module object.
    """
    saved = []
    try:
        for module_name, attr, span_name in CALL_SITES:
            owner = modules[module_name]
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            hook = _HOOKS.get((module_name, attr))
            saved.append((owner, path[-1], original))
            setattr(owner, path[-1], tracer.wrap(original, span_name, hook))
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


@dataclass
class SpanTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def summarize(tracer: Tracer,
              excluded: Callable[[float, float], float]) -> Dict[str, SpanTotals]:
    """Calls, inclusive and self seconds per span name.

    `excluded(start, end)` gives the seconds inside an interval that belong
    to no span, such as a speed sampler's signal handler. A span's self time
    is its duration minus the time its child spans cover. Spans of one
    thread nest and never overlap, so the covered time is the sum of the
    children's durations.
    """
    durations = [e - s - excluded(s, e)
                 for s, e in zip(tracer.starts, tracer.ends)]
    child_time = [0.0] * len(durations)
    for idx, parent in enumerate(tracer.parents):
        if parent >= 0:
            child_time[parent] += durations[idx]
    totals: Dict[str, SpanTotals] = {}
    for idx, name in enumerate(tracer.names):
        t = totals.setdefault(name, SpanTotals())
        t.calls += 1
        t.total_s += durations[idx]
        t.self_s += durations[idx] - child_time[idx]
    return totals


def time_under(tracer: Tracer, name: str, ancestor: str,
               excluded: Callable[[float, float], float]) -> float:
    """Seconds spent in spans called `name` nested anywhere below a span
    called `ancestor`, less the `excluded` seconds inside them."""
    total = 0.0
    for idx, span_name in enumerate(tracer.names):
        if span_name != name:
            continue
        parent = tracer.parents[idx]
        while parent >= 0 and tracer.names[parent] != ancestor:
            parent = tracer.parents[parent]
        if parent >= 0:
            start, end = tracer.starts[idx], tracer.ends[idx]
            total += end - start - excluded(start, end)
    return total
