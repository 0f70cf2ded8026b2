"""The benchmark's traced call sites all exist in the package, and its
result hooks read what the package returns.

`perfbench/tracing.py` wraps names it looks up on jointnlu's modules, and
its result hooks read fields of what some of them return. A rename in the
package would otherwise only show up as a failed traced benchmark run, so
both are checked here, read from the benchmark's own file without modifying
it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from jointnlu.encoder import EncoderConfig
from jointnlu.toy import toy_grammar
from jointnlu.training import TrainConfig, predict, train

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up while the file executes
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_call_site_resolves():
    sites = load_tracing().CALL_SITES
    assert sites
    for module_name, attr, _span in sites:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr}"


def test_result_hooks_count_batches_and_truncation():
    tracing = load_tracing()
    data = toy_grammar(4, 24, 8, 1)
    config = TrainConfig(epochs=1, batch_size=8)
    encoder = EncoderConfig(vocab_size=4, d_h=8, n_layers=2, n_heads=2,
                            d_ff=16, max_len=4)
    plain = train(data.train, data.dev, config, data.featurizer(),
                  encoder=encoder)
    too_long = [w for u in data.train for w in u.words]
    modules = {name: importlib.import_module(name)
               for name, _, _ in tracing.CALL_SITES}
    tracer = tracing.Tracer()
    with tracing.installed(tracer, modules):
        traced = train(data.train, data.dev, config, data.featurizer(),
                       encoder=encoder)
        served = predict(traced.checkpoint, [too_long, data.dev[0].words])
    assert [p.seq.truncated for p in served] == [True, False]

    counts = tracer.counts
    assert 0 < counts["batch.real_positions"] < counts["batch.padded_positions"]
    # one align per sequence of training, dev evaluation and serving; only
    # the served one is truncated
    n_aligned = len(data.train) + len(data.dev) + len(served)
    assert tracer.names.count("subwords.align") == n_aligned
    assert counts["subwords.truncated"] == 1
    # featurizing stays one call per aligned sequence, inside align_utterance,
    # so features.b1_frac still measures featurizing
    names, parents = tracer.names, tracer.parents
    featurize = [i for i, name in enumerate(names) if name == "features.featurize"]
    assert len(featurize) == n_aligned
    assert {names[parents[i]] for i in featurize} == {"model.align_utterance"}
    # one attention softmax per layer of every forward pass, looked up by
    # encode at call time, so numerics.stable_softmax.ms still measures it
    softmax = [i for i, name in enumerate(names)
               if name == "numerics.stable_softmax"]
    assert names.count("encoder.encode") > 0
    assert len(softmax) == encoder.n_layers * names.count("encoder.encode")
    assert {names[parents[i]] for i in softmax} == {"encoder.encode"}
    # tracing changes no number
    assert traced.history == plain.history
    params = traced.checkpoint.params
    assert all(params[k].tobytes() == v.tobytes()
               for k, v in plain.checkpoint.params.items())
