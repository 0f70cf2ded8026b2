"""Release gate: every shipping criterion asserted by one direct test.

Run `pytest tests/test_acceptance.py -v` to get a one-line verdict per
criterion. The end-to-end training criteria share a module-scoped fixture
(six small runs, a few minutes total); everything else finishes in seconds.
Tolerances are pinned here and nowhere else.
"""

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from heads import part_params
from oracles import (
    all_tag_sequences,
    brute_force_chunks,
    crf_enumerate,
    crf_score,
    finite_difference,
    random_tag_sequence,
    relative_gradient_error,
)

from jointnlu.cli import main
from jointnlu.crf import crf_nll, viterbi
from jointnlu.encoder import EncoderConfig
from jointnlu.features import (
    CASE_DIM,
    CaseClass,
    ENTITY_DIM,
    EntityClass,
    FEATURE_DIM,
    WordFeaturizer,
    encode_features,
)
from jointnlu.intent_head import attention_weights, intent_forward
from jointnlu.model import (
    Batch,
    ModelConfig,
    align_utterance,
    init_model_params,
    model_loss_and_grads,
    param_spec,
)
from jointnlu.optim import AdamW, flat_buffer
from jointnlu.subwords import align, de_align, train_vocab
from jointnlu.tagging import extract_chunks, parse_tags, per_token_micro_f1, slot_f1
from jointnlu.toy import toy_grammar
from jointnlu.training import TrainConfig, evaluate, joint_loss, train


# ----------------------------------------------------------------------
# 1. The compare command reproduces the published error reductions.
# ----------------------------------------------------------------------

def _report(path, intent, slot, sent):
    path.write_text(f"intent_acc={intent}\nslot_f1={slot}\nsent_acc={sent}\n")
    return str(path)


def _rer_table(out: str) -> dict:
    rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
    return {cells[0]: float(cells[3]) for cells in rows}


def test_criterion_01_published_error_reductions_reproduced(tmp_path, capsys):
    # (intent_acc, slot_f1, sent_acc) for the new and old systems on the two
    # reference benchmarks, and the error reductions they must yield.
    worked_examples = [
        ((97.87, 96.25, 88.69), (97.76, 95.80, 86.90), (4.91, 10.71, 13.66)),
        ((98.86, 96.57, 91.86), (97.43, 92.23, 80.90), (55.64, 55.86, 57.38)),
    ]
    for new, old, expected in worked_examples:
        a = _report(tmp_path / "a.txt", *new)
        b = _report(tmp_path / "b.txt", *old)
        assert main(["compare", a, b]) == 0
        got = _rer_table(capsys.readouterr().out)
        for key, want in zip(("intent_acc", "slot_f1", "sent_acc"), expected):
            assert abs(got[key] - want) <= 0.01, (key, got[key], want)


# ----------------------------------------------------------------------
# 2. Analytic gradients of the full joint loss match finite differences.
# ----------------------------------------------------------------------

def _random_batch(rng, enc: EncoderConfig, n_intents: int, n_slots: int) -> Batch:
    b, n = 2, enc.max_len
    ids = rng.integers(0, enc.vocab_size, size=(b, n))
    pad = np.zeros((b, n), dtype=bool)
    for i in range(b):
        pad[i, : int(rng.integers(2, n + 1))] = True
    feats = rng.normal(size=(b, n, FEATURE_DIM))
    tags = rng.integers(0, n_slots, size=(b, n))
    intents = rng.integers(0, n_intents, size=b)
    return Batch(ids, pad, feats[pad], tags[pad], intents)


def test_criterion_02_full_loss_gradients_match_finite_differences():
    enc = EncoderConfig(
        vocab_size=12, d_h=8, n_layers=1, n_heads=2, d_ff=16, max_len=6
    )
    rng = np.random.default_rng(20260819)
    worst = 0.0
    for draw in range(100):
        # every fifth draw routes the slot loss through the structured decoder
        slot_mode = "crf" if draw % 5 == 0 else "softmax"
        cfg = ModelConfig(
            encoder=enc, n_intents=3, n_slots=4,
            slot_mode=slot_mode, slot_features=True, intent_pool="attention",
        )
        params = init_model_params(cfg, rng)
        batch = _random_batch(rng, enc, cfg.n_intents, cfg.n_slots)
        gamma = float(rng.uniform())
        _, _, grads = model_loss_and_grads(params, cfg, batch, gamma)

        def weighted_loss(ps, _cfg=cfg, _batch=batch, _gamma=gamma):
            l_int, l_slot, _ = model_loss_and_grads(ps, _cfg, _batch, _gamma)
            return _gamma * l_int + (1.0 - _gamma) * l_slot

        for name in params:
            coords, fd = finite_difference(
                weighted_loss, params, name, max_coords=2, rng=rng
            )
            analytic = grads[name].reshape(-1)[coords]
            err = relative_gradient_error(analytic, fd).max()
            worst = max(worst, float(err))
    assert worst <= 1e-4, f"worst relative gradient error {worst:.2e}"


# ----------------------------------------------------------------------
# 3. CRF partition and decoding match exhaustive enumeration.
# ----------------------------------------------------------------------

def test_criterion_03_crf_matches_exhaustive_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        s = int(rng.integers(2, 6))
        emissions = rng.normal(size=(n, s))
        trans = rng.normal(size=(s, s))
        start = rng.normal(size=s)
        end = rng.normal(size=s)
        log_z, best, best_score, n_optimal = crf_enumerate(
            emissions, trans, start, end
        )

        gold = [int(t) for t in rng.integers(0, s, size=n)]
        nll, _ = crf_nll(emissions, gold, trans, start, end)
        recovered = nll[0] + crf_score(emissions, gold, trans, start, end)
        assert abs(recovered - log_z) <= 1e-8

        path = [int(t) for t in viterbi(emissions, trans, start, end)]
        decoded = crf_score(emissions, path, trans, start, end)
        assert abs(decoded - best_score) <= 1e-8
        if n_optimal == 1:
            assert path == [int(t) for t in best]


# ----------------------------------------------------------------------
# 4. Chunk extraction matches the brute-force span scan.
# ----------------------------------------------------------------------

def test_criterion_04_chunker_matches_brute_force_reference():
    labels = ["a", "b", "c"]
    for length in range(1, 7):
        for raw in all_tag_sequences(length, labels):
            tags = list(raw)
            assert set(extract_chunks(tags)) == brute_force_chunks(tags)
    rng = np.random.default_rng(4)
    for _ in range(1000):
        tags = random_tag_sequence(rng, int(rng.integers(7, 13)), labels)
        assert set(extract_chunks(tags)) == brute_force_chunks(tags)


# ----------------------------------------------------------------------
# 5. Word-piece alignment round-trips every toy utterance.
# ----------------------------------------------------------------------

def test_criterion_05_alignment_round_trip_is_lossless():
    data = toy_grammar(3, 1000, 5, 5)
    vocab = train_vocab((w for u in data.train for w in u.words), 150)
    featurizer = data.featurizer()
    for utt in data.train:
        feats = featurizer.featurize(utt.words)
        seq = align(utt.words, utt.tags, feats, vocab, max_len=50)
        assert not seq.truncated
        assert int(np.sum(seq.active)) == len(utt.words)
        assert de_align(seq, list(seq.piece_tags)) == list(utt.tags)


# ----------------------------------------------------------------------
# 6. Pooling weights form a probability simplex over real positions.
# ----------------------------------------------------------------------

def test_criterion_06_pooling_weights_form_masked_simplex():
    rng = np.random.default_rng(6)
    checked = 0
    while checked < 1000:
        b = int(rng.integers(1, 5))
        n = int(rng.integers(1, 9))
        d_h = int(rng.choice([4, 8, 16]))
        params = part_params(rng, "int.", d_h=d_h, n_intents=3)
        pad = np.zeros((b, n), dtype=bool)
        for i in range(b):
            pad[i, : int(rng.integers(1, n + 1))] = True
        # packed states: one row per real position, sequence after sequence
        H = rng.normal(size=(int(pad.sum()), d_h)) * float(rng.uniform(0.5, 3.0))
        lengths = pad.sum(axis=1)
        _, alpha, _ = intent_forward(H, lengths, params, "attention")
        assert alpha.shape == H.shape[:1]
        assert np.all(alpha >= 0.0)
        sums = np.add.reduceat(alpha, np.cumsum(lengths) - lengths)
        assert np.max(np.abs(sums - 1.0)) <= 1e-6
        checked += b

    # scoring at temperature sqrt(d_h) equals pre-divided scores at temp 1
    logits = rng.normal(size=64 * 7) * 3.0
    lengths = np.full(64, 7)
    for d_h in (1, 4, 9, 64):
        direct = attention_weights(logits, lengths, d_h)
        manual = attention_weights(logits / np.sqrt(d_h), lengths, 1)
        assert np.allclose(direct, manual, rtol=0.0, atol=1e-12)


# ----------------------------------------------------------------------
# 7. End-to-end toy training: operating bars and the feature ablation.
# ----------------------------------------------------------------------

# The loss weighting, learning rate, and dropout stay at their published
# defaults; epochs, batch size, and sequence budget are sized for the small
# encoder and corpus.
DESK_SCALING = dict(epochs=70, batch_size=32, max_len=32)


# The thread-count variables of the common BLAS builds. The toy runs spend
# their time in small matrix products, where one BLAS thread per worker
# process is faster than several threads contending for the same cores.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
)


def _toy_run(seed, features):
    """Train one desk-scale model; its test-split report and training seconds."""
    data = toy_grammar(seed, 2000, 300, 300)
    config = TrainConfig(seed=seed, slot_features=features, **DESK_SCALING)
    t0 = time.time()
    result = train(data.train, data.dev, config, data.featurizer())
    seconds = time.time() - t0
    ck = result.checkpoint
    seqs = [
        align_utterance(u, ck.piece_vocab, ck.featurizer, config.max_len)
        for u in data.test
    ]
    report = evaluate(
        ck.params, ck.config, seqs, data.test,
        ck.intent_vocab, ck.slot_vocab,
    )
    return report, seconds


@pytest.fixture(scope="module")
def toy_runs():
    """Six trained models: seeds 0..2, each with and without word features.

    The runs are independent, so they are spread over up to two fresh worker
    processes, each pinned to one BLAS thread before numpy loads.
    """
    keys = [(seed, features) for seed in (0, 1, 2) for features in (True, False)]
    workers = min(2, len(os.sched_getaffinity(0)))
    with pytest.MonkeyPatch.context() as env:
        for var in BLAS_THREAD_VARS:
            env.setenv(var, "1")
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(workers, mp_context=spawn) as pool:
            results = list(pool.map(_toy_run, *zip(*keys)))
    return dict(zip(keys, results))


def test_criterion_07_toy_training_meets_operating_bars(toy_runs):
    report, seconds = toy_runs[0, True]
    assert report.intent_accuracy >= 0.95
    assert report.slot_f1 >= 0.90
    assert report.sentence_accuracy >= 0.85
    assert seconds <= 300.0


def test_criterion_07_slot_features_never_lose_on_average(toy_runs):
    full = float(np.mean([toy_runs[s, True][0].slot_f1 for s in (0, 1, 2)]))
    ablated = float(np.mean([toy_runs[s, False][0].slot_f1 for s in (0, 1, 2)]))
    assert ablated <= full + 0.01, (full, ablated)


# ----------------------------------------------------------------------
# 8. Per-token F1 overstates chunk F1 on partial-overlap errors.
# ----------------------------------------------------------------------

def test_criterion_08_token_f1_overstates_chunk_f1():
    gold, pred = [], []
    for i in range(10):
        gold.append(parse_tags(["B-x", "I-x", "I-x", "O"]))
        if i < 5:
            pred.append(parse_tags(["B-x", "I-x", "I-x", "O"]))
        else:
            # clipped one token short: every kept token is still correct
            pred.append(parse_tags(["B-x", "I-x", "O", "O"]))
    chunk = slot_f1(gold, pred).f1
    token = per_token_micro_f1(gold, pred)
    assert token - chunk >= 0.1, (token, chunk)


# ----------------------------------------------------------------------
# 9. Intent-only loss weighting freezes the slot-side parameters.
# ----------------------------------------------------------------------

def test_criterion_09_intent_only_weighting_freezes_slot_head():
    rng = np.random.default_rng(9)
    enc = EncoderConfig(
        vocab_size=16, d_h=8, n_layers=1, n_heads=2, d_ff=16, max_len=8
    )
    cfg = ModelConfig(
        encoder=enc, n_intents=3, n_slots=5,
        slot_mode="crf", slot_features=True,
    )
    spec = param_spec(cfg)
    shapes = {row.name: row.shape for row in spec}
    flat, params = flat_buffer(shapes)
    for name, value in init_model_params(cfg, rng).items():
        params[name][...] = value
    slot_only = [
        k for k in params
        if k in ("W_s", "b_s") or k.startswith(("crf.", "feat."))
    ]
    assert slot_only, "expected a slot-side parameter block"

    opt = AdamW(shapes, [row.name for row in spec if row.decay])
    for _ in range(10):
        batch = _random_batch(rng, enc, cfg.n_intents, cfg.n_slots)
        l_int, l_slot, grads = model_loss_and_grads(params, cfg, batch, 1.0)
        for name in slot_only:
            assert np.all(grads[name] == 0.0), name
        # the slot loss is still computed for logging, just unweighted
        assert np.isfinite(l_slot) and l_slot > 0.0
        assert joint_loss(l_int, l_slot, 1.0) == 1.0 * l_int + 0.0 * l_slot
        assert joint_loss(l_int, l_slot, 0.6) == 0.6 * l_int + 0.4 * l_slot
        opt.step(flat, grads, 1e-3)


# ----------------------------------------------------------------------
# 10. Word-feature rules and the fixed encoding width.
# ----------------------------------------------------------------------

def test_criterion_10_word_feature_rules_and_encoding_width():
    featurizer = WordFeaturizer(
        lexicon={"for": "FOR", "jfk": "JFK", "mcvey": "McVey"},
        gazetteer={},
        english_dict=frozenset({"for", "fly", "i"}),
    )
    entities, cases, canonical = featurizer.annotate(
        ["i", "fly", "for", "jfk", "mcvey"]
    )
    # an all-caps canonical that is an ordinary dictionary word must not
    # be read as an airport code ...
    assert canonical[2] == "FOR"
    assert cases[2] == CaseClass.UPPER
    assert entities[2] == EntityClass.NONE
    # ... while the same shape on a non-word fires the rule
    assert entities[3] == EntityClass.AIRPORT_CODE
    # mixed-case canonicals fall into the catch-all case class
    assert canonical[4] == "McVey"
    assert cases[4] == CaseClass.O
    # one entity block plus one case block, one-hot each
    assert FEATURE_DIM == 23 == ENTITY_DIM + CASE_DIM
    assert ENTITY_DIM == 19 and CASE_DIM == 4
    row = encode_features([EntityClass.CITY], [CaseClass.LOWER])
    assert row.shape == (1, FEATURE_DIM) and row.sum() == 2.0
