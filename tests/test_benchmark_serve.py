"""The benchmark's serving path runs on the package as it is.

`perfbench/workloads.py::serve` turns raw words into predictions through
align_utterance, make_batch, predict_batch and decode_word_tags. The file is
loaded here read-only, with perfbench/ on sys.path as the benchmark runs it,
so a change to those functions or to the batch layout that breaks the
benchmark fails in the suite rather than in a benchmark run. It must also
predict what the package's own serving path, `predict`, predicts.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from jointnlu.toy import toy_grammar
from jointnlu.training import predict, train

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    before = set(sys.modules)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", PERFBENCH / "workloads.py"
        )
        module = importlib.util.module_from_spec(spec)
        # dataclasses look their defining module up while the file executes
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in set(sys.modules) - before:
            path = getattr(sys.modules[name], "__file__", None) or ""
            if name == "perfbench_workloads" or path.startswith(str(PERFBENCH)):
                del sys.modules[name]


@pytest.fixture(scope="module", params=["train-softmax", "train-crf"])
def served(workloads, request):
    """A checkpoint trained as the workload trains it, and the words of
    the utterances to serve."""
    data = toy_grammar(1, 300, 30, 48)
    config = workloads.train_config(workloads.WORKLOADS[request.param])
    ckpt = train(data.train, data.dev, config, data.featurizer()).checkpoint
    return ckpt, [u.words for u in data.test]


def test_serve_tags_every_word_alike_at_batch_1_and_n(workloads, served):
    ckpt, utterances = served
    batched = workloads.serve(ckpt, utterances)
    alone = [workloads.serve(ckpt, [words])[0] for words in utterances]
    assert batched == alone
    for words, (intent, tags) in zip(utterances, batched):
        assert intent in ckpt.intent_vocab.labels
        assert len(tags) == len(words)


def test_predict_matches_serve(workloads, served):
    # the package's serving path and the benchmark's cannot drift apart,
    # on an utterance cut at max_len and on one spelling a reserved token
    ckpt, utterances = served
    utterances = utterances + [
        [w for words in utterances for w in words][:workloads.MAX_LEN],
        ["play", "[PAD]", "[BOS]", "now"],
    ]
    preds = predict(ckpt, utterances, workloads.OFFLINE_BATCH)
    assert preds[-2].seq.truncated and not preds[-1].seq.truncated
    predicted = [(p.intent, tuple(str(t) for t in p.tags)) for p in preds]
    assert predicted == workloads.serve(ckpt, utterances)
