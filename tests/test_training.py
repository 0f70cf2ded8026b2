"""Training regime: config, losses, selection, determinism, divergence."""

import dataclasses
import re
import zipfile

import numpy as np
import pytest

from jointnlu.data import IntentVocab, SlotVocab, TaggedUtterance
from jointnlu.encoder import EncoderConfig
from jointnlu.intent_head import POOL_MODES
from jointnlu.model import (
    COMPUTE_DTYPE,
    SLOT_MODES,
    align_utterance,
    init_model_params,
    load_checkpoint,
    make_batch,
    model_loss_and_grads,
    save_checkpoint,
)
from jointnlu.subwords import train_vocab
from jointnlu.tagging import EvalReport, parse_tags
from jointnlu.training import (
    DESK_ENCODER,
    DivergenceError,
    EpochRecord,
    TrainConfig,
    evaluate,
    predict,
    select_best,
    train,
    validate_config_text,
)
from jointnlu.toy import toy_grammar

TINY_ENCODER = EncoderConfig(
    vocab_size=4, d_h=16, n_layers=1, n_heads=2, d_ff=32, max_len=50
)


def parse(text):
    config, problems = validate_config_text(text)
    assert problems == []
    return config


def report(i, s, f, t=0.5):
    return EvalReport(
        intent_acc=i, sent_acc=s, slot_f1=f, token_f1=t
    )


class TestTrainConfig:
    def test_published_defaults(self):
        c = TrainConfig()
        assert (
            c.gamma, c.epochs, c.batch_size, c.max_len, c.learning_rate,
            c.beta1, c.beta2, c.epsilon, c.weight_decay,
            c.warmup_proportion, c.dropout_rate,
        ) == (0.6, 50, 64, 50, 8e-5, 0.9, 0.999, 1e-6, 0.01, 0.1, 0.1)
        assert c.slot_mode == "softmax"
        assert c.slot_features is True
        assert c.intent_pool == "attention"

    def test_builds_the_model_optimizer_and_schedule_it_validates(self):
        c = TrainConfig(slot_mode="crf", slot_features=False,
                        intent_pool="start_token", dropout_rate=0.2,
                        beta1=0.8, beta2=0.99, epsilon=1e-5, weight_decay=0.02,
                        learning_rate=1e-3, warmup_proportion=0.5)
        m = c.model_config(DESK_ENCODER, 3, 4)
        assert (m.encoder, m.n_intents, m.n_slots, m.slot_mode,
                m.slot_features, m.intent_pool, m.dropout_rate) == (
            DESK_ENCODER, 3, 4, "crf", False, "start_token", 0.2)
        opt = c.optimizer(np.zeros(0, COMPUTE_DTYPE), {}, ())
        assert (opt.beta1, opt.beta2, opt.eps, opt.weight_decay) == (
            0.8, 0.99, 1e-5, 0.02)
        assert c.lr_at(5, 20) == pytest.approx(5e-4)
        assert c.lr_at(10, 20) == 1e-3

    def test_kv_round_trip(self):
        c = TrainConfig(gamma=0.3, epochs=7, slot_mode="crf",
                        slot_features=False, intent_pool="start_token",
                        seed=42)
        assert parse(c.to_kv_text()) == c

    def test_kv_accepts_on_off_booleans(self):
        assert parse("slot_features=off\n").slot_features is False
        assert parse("slot_features=on\n").slot_features is True

    def test_kv_ignores_comments_and_blanks(self):
        assert parse("# a comment\n\ngamma=0.25\n").gamma == 0.25

    def test_unknown_key_rejected(self):
        config, problems = validate_config_text("gama=0.5\n")
        assert config is None
        assert len(problems) == 1 and "unknown setting" in problems[0]

    def test_repeated_key_rejected(self):
        # the second copy used to win silently
        config, problems = validate_config_text("gamma=0.3\ngamma=0.9\n")
        assert config is None
        assert problems == ["line 2: repeated key 'gamma' (first on line 1)"]

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(gamma=1.5)
        with pytest.raises(ValueError):
            TrainConfig(slot_mode="viterbi")
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        for setting in (
            dict(learning_rate=-1.0), dict(learning_rate=float("nan")),
            dict(warmup_proportion=2.0), dict(warmup_proportion=-0.1),
            dict(beta1=1.5), dict(beta1=1.0), dict(beta2=-0.1),
            dict(epsilon=0.0), dict(weight_decay=-0.01), dict(seed=-1),
            dict(learning_rate=float("inf")), dict(epsilon=float("inf")),
            dict(weight_decay=float("inf")),
        ):
            with pytest.raises(ValueError):
                TrainConfig(**setting)

    def test_max_len_is_the_encoders(self):
        # the encoder's rule is the one check of max_len
        with pytest.raises(ValueError, match="max_len 2 cannot fit both markers"):
            TrainConfig(max_len=2)
        m = TrainConfig(max_len=3).model_config(DESK_ENCODER, 1, 1)
        assert m.encoder == dataclasses.replace(DESK_ENCODER, max_len=3)

    @pytest.mark.parametrize("setting,needle", [
        (dict(batch_size=8.0), "batch_size 8.0 is not int"),
        (dict(epochs=1.0), "epochs 1.0 is not int"),
        (dict(seed=1.5), "seed 1.5 is not int"),
        (dict(epochs=True), "epochs True is not int"),
        (dict(gamma=True), "gamma True is not float"),
        (dict(learning_rate="1e-4"), "learning_rate '1e-4' is not float"),
    ])
    def test_field_types_checked(self, setting, needle):
        with pytest.raises(ValueError, match=re.escape(needle)):
            TrainConfig(**setting)

    def test_int_accepted_for_float_fields(self):
        config = TrainConfig(gamma=1, dropout_rate=0)
        assert (config.gamma, config.dropout_rate) == (1, 0)


class TestJointLoss:
    """The joint objective is the l_joint that model_loss_and_grads returns
    beside its two terms and the gradient it differentiates."""

    @pytest.fixture(scope="class")
    def models(self):
        data = toy_grammar(2, 8, 1, 1)
        vocab = train_vocab([w for u in data.train for w in u.words], 200)
        seqs = [align_utterance(u, vocab, data.featurizer(), 50)
                for u in data.train]
        intents = IntentVocab.from_corpus(data.train)
        slots = SlotVocab.from_corpus(data.train)
        batch = make_batch(seqs, [intents.encode(u.intent) for u in data.train],
                           slots)
        enc = dataclasses.replace(TINY_ENCODER, vocab_size=len(vocab.pieces))
        out = []
        for slot_mode in SLOT_MODES:
            cfg = TrainConfig(slot_mode=slot_mode).model_config(
                enc, len(intents), len(slots))
            params = init_model_params(cfg, np.random.default_rng(0))
            out.append((params, cfg, batch))
        return out

    @staticmethod
    def losses(model, gamma):
        return model_loss_and_grads(*model, gamma)[:3]

    def test_worked_example(self, models):
        for model in models:
            li, ls, lj = self.losses(model, 0.6)
            assert li != ls
            assert lj == pytest.approx(0.6 * li + 0.4 * ls)
            assert min(li, ls) < lj < max(li, ls)

    def test_boundaries(self, models):
        for model in models:
            li, ls, lj = self.losses(model, 1.0)
            assert lj == li
            li, ls, lj = self.losses(model, 0.0)
            assert lj == ls

    def test_gamma_out_of_range_rejected(self, models):
        for gamma in (-0.1, 1.1):
            with pytest.raises(ValueError):
                self.losses(models[0], gamma)
            with pytest.raises(ValueError):
                TrainConfig(gamma=gamma)

    def test_breakdown_identity_is_exact(self, models):
        for model in models:
            terms = self.losses(model, 0.5)[:2]
            for g in (0.6, 0.31, 0.99):
                li, ls, lj = self.losses(model, g)
                assert (li, ls) == terms  # gamma weighs the terms only
                assert lj == g * li + (1 - g) * ls  # bitwise


class TestSlotLossPositions:
    def test_every_piece_counts(self):
        # the slot loss is taken over the batch's real-position mask
        data = toy_grammar(2, 4, 1, 1)
        vocab = train_vocab([w for u in data.train for w in u.words], 200)
        seqs = [align_utterance(u, vocab, data.featurizer(), 50)
                for u in data.train[:2]]
        slot_vocab = SlotVocab.from_corpus(data.train)
        batch = make_batch(seqs, [0, 0], slot_vocab)
        for row, seq in zip(batch.pad_mask, seqs):
            positions = tuple(int(i) for i in np.flatnonzero(row))
            assert positions == tuple(range(len(seq)))
            # markers and continuation pieces are included
            assert 0 in positions and len(seq) - 1 in positions


class TestSelectBest:
    def test_larger_sum_wins(self):
        reports = [report(0.9, 0.8, 0.9), report(0.9, 0.85, 0.9)]
        assert select_best(reports) == 1

    def test_single_report(self):
        assert select_best([report(0.1, 0.1, 0.1)]) == 0

    def test_tie_goes_to_earliest(self):
        r = report(0.5, 0.5, 0.5)
        reports = [report(0.4, 0.4, 0.4), report(0.3, 0.3, 0.3), r,
                   report(0.2, 0.2, 0.2), r]
        assert select_best(reports) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_best([])


class TestEpochRecord:
    def test_line_round_trip(self):
        rec = EpochRecord(
            epoch=3, l_intent=0.25, l_slot=1.5, l_joint=0.75,
            dev=report(0.9, 0.8, 0.7, 0.6),
        )
        back = EpochRecord.from_line(rec.to_line())
        assert back == rec

    def test_reads_a_logged_line(self):
        line = (
            "epoch=2 l_intent=0.5 l_slot=1.25 l_joint=0.8 intent_acc=0.9 "
            "sent_acc=0.8 slot_f1=0.7 token_f1=0.6 tp=7 fp=1 fn=2"
        )
        rec = EpochRecord.from_line(line)
        assert (rec.epoch, rec.l_slot, rec.dev.tp) == (2, 1.25, 7)
        assert rec.to_line() == line

    def test_field_without_equals_is_a_clear_error(self):
        with pytest.raises(ValueError, match="field 2: expected key=value, got 'junk'"):
            EpochRecord.from_line("epoch=1 junk")

    @pytest.mark.parametrize("old, new, message", [
        ("epoch=2", "epoch=x", "training log line: bad value for epoch: 'x'"),
        ("l_slot=1.25", "l_slot=1,25",
         "training log line: bad value for l_slot: '1,25'"),
        ("tp=7", "tp=7.0", "training log line: bad value for tp: '7.0'"),
    ])
    def test_unreadable_value_names_its_key(self, old, new, message):
        line = (
            "epoch=2 l_intent=0.5 l_slot=1.25 l_joint=0.8 intent_acc=0.9 "
            "sent_acc=0.8 slot_f1=0.7 token_f1=0.6 tp=7 fp=1 fn=2"
        ).replace(old, new)
        with pytest.raises(ValueError) as err:
            EpochRecord.from_line(line)
        assert str(err.value) == message

    def test_missing_loss_is_a_clear_error(self):
        line = EpochRecord(
            epoch=3, l_intent=0.25, l_slot=1.5, l_joint=0.75,
            dev=report(0.9, 0.8, 0.7, 0.6),
        ).to_line()
        without = " ".join(f for f in line.split() if not f.startswith("l_slot="))
        with pytest.raises(ValueError, match="lacks 'l_slot'"):
            EpochRecord.from_line(without)


def quick_config(**over):
    base = dict(
        epochs=2, batch_size=8, max_len=50, learning_rate=2e-3,
        dropout_rate=0.1, seed=11,
    )
    base.update(over)
    return TrainConfig(**base)


class TestTrainLoop:
    def test_same_seed_bitwise_identical(self):
        data = toy_grammar(1, 24, 8, 8)
        cfg = quick_config()
        a = train(data.train, data.dev, cfg, data.featurizer(),
                  encoder=TINY_ENCODER)
        b = train(data.train, data.dev, cfg, data.featurizer(),
                  encoder=TINY_ENCODER)
        assert a.history == b.history
        assert a.best_epoch == b.best_epoch
        assert set(a.checkpoint.params) == set(b.checkpoint.params)
        for k in a.checkpoint.params:
            assert np.array_equal(
                a.checkpoint.params[k], b.checkpoint.params[k]
            ), k

    def test_warm_memos_change_nothing(self, tmp_path):
        # the second run reuses the featurizer and vocabulary the first one
        # filled, so every word is a memo hit; the runs agree bit for bit
        data = toy_grammar(1, 24, 8, 8)
        featurizer = data.featurizer()
        vocab = train_vocab([w for u in data.train for w in u.words], 120)
        cfg = quick_config()
        runs = []
        for name in ("cold", "warm"):
            res = train(data.train, data.dev, cfg, featurizer,
                        encoder=TINY_ENCODER, piece_vocab=vocab)
            save_checkpoint(res.checkpoint, tmp_path / f"{name}.npz")
            with zipfile.ZipFile(tmp_path / f"{name}.npz") as zf:
                runs.append((res.history, res.best_epoch,
                             {n: zf.read(n) for n in zf.namelist()}))
        assert vocab._memo and featurizer._word_memo
        assert runs[0] == runs[1]

    def test_different_seeds_differ(self):
        data = toy_grammar(1, 24, 8, 8)
        a = train(data.train, data.dev, quick_config(seed=1),
                  data.featurizer(), encoder=TINY_ENCODER)
        b = train(data.train, data.dev, quick_config(seed=2),
                  data.featurizer(), encoder=TINY_ENCODER)
        assert a.history != b.history

    def test_history_and_log_file(self):
        data = toy_grammar(3, 16, 8, 8)
        res = train(data.train, data.dev, quick_config(epochs=3),
                    data.featurizer(), encoder=TINY_ENCODER)
        assert len(res.history) == 3
        assert [rec.epoch for rec in res.history] == [0, 1, 2]
        # each record survives the log line format it is written in
        for rec in res.history:
            assert EpochRecord.from_line(rec.to_line()) == rec
        # identity between logged terms holds every epoch
        for rec in res.history:
            mixed = 0.6 * rec.l_intent + 0.4 * rec.l_slot
            assert rec.l_joint == pytest.approx(mixed, abs=1e-12)

    def test_writes_no_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        data = toy_grammar(3, 8, 4, 4)
        train(data.train, data.dev, quick_config(epochs=1, batch_size=4),
              data.featurizer(), encoder=TINY_ENCODER)
        assert list(tmp_path.iterdir()) == []

    def test_best_epoch_matches_selection_rule(self):
        data = toy_grammar(5, 24, 8, 8)
        res = train(data.train, data.dev, quick_config(epochs=4),
                    data.featurizer(), encoder=TINY_ENCODER)
        scores = [r.dev.selection_score for r in res.history]
        assert res.best_epoch == select_best([r.dev for r in res.history])
        assert scores[res.best_epoch] == max(scores)

    def test_learning_actually_happens(self):
        data = toy_grammar(7, 64, 16, 16)
        cfg = quick_config(epochs=10, batch_size=16, learning_rate=3e-3,
                           dropout_rate=0.0)
        res = train(data.train, data.dev, cfg, data.featurizer(),
                    encoder=TINY_ENCODER)
        first = res.history[0]
        best = res.history[res.best_epoch]
        assert best.dev.intent_acc > first.dev.intent_acc or (
            first.dev.intent_acc == 1.0
        )
        assert res.history[-1].l_joint < first.l_joint

    # a parameter beyond float32's range ends the run, not in a warning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_aborts_with_diagnostic(self):
        data = toy_grammar(9, 8, 4, 4)
        cfg = quick_config(epochs=4, batch_size=4, learning_rate=1e200,
                           warmup_proportion=0.0)
        with pytest.raises(DivergenceError, match="non-finite"):
            train(data.train, data.dev, cfg, data.featurizer(),
                  encoder=TINY_ENCODER)

    def test_empty_train_rejected(self):
        data = toy_grammar(1, 4, 2, 2)
        with pytest.raises(ValueError):
            train([], data.dev, quick_config(), data.featurizer())

    def test_empty_dev_rejected(self):
        # with no dev utterances every epoch would score a perfect 3.0
        data = toy_grammar(1, 4, 2, 2)
        with pytest.raises(ValueError, match="dev corpus is empty"):
            train(data.train, [], quick_config(), data.featurizer())

    def test_checkpoint_round_trips_through_disk(self, tmp_path):
        data = toy_grammar(13, 16, 4, 4)
        res = train(data.train, data.dev, quick_config(),
                    data.featurizer(), encoder=TINY_ENCODER)
        path = tmp_path / "best.npz"
        save_checkpoint(res.checkpoint, path)
        loaded = load_checkpoint(path)
        assert evaluate(res.checkpoint, data.dev) == evaluate(loaded, data.dev)

    @pytest.mark.parametrize("variant", [
        dict(slot_mode="crf"),
        dict(slot_features=False),
        dict(intent_pool="start_token"),
    ])
    def test_ablation_variants_run(self, variant):
        data = toy_grammar(15, 16, 4, 4)
        cfg = quick_config(epochs=1, **variant)
        res = train(data.train, data.dev, cfg, data.featurizer(),
                    encoder=TINY_ENCODER)
        assert len(res.history) == 1
        ckpt = res.checkpoint
        if variant.get("slot_mode") == "crf":
            assert "crf.T" in ckpt.params
        if variant.get("slot_features") is False:
            assert not any(k.startswith("feat.") for k in ckpt.params)
        if variant.get("intent_pool") == "start_token":
            assert "int.W_pool" in ckpt.params


class TestFloat32Model:
    """The trained model is float32, and it serves each utterance the same
    whatever batch it arrives in: the benchmark's b1 == b64 gate."""

    @pytest.mark.parametrize("intent_pool", POOL_MODES)
    @pytest.mark.parametrize("slot_mode", SLOT_MODES)
    def test_predictions_do_not_depend_on_batch_size(self, slot_mode,
                                                     intent_pool):
        data = toy_grammar(17, 64, 8, 72)
        cfg = quick_config(slot_mode=slot_mode, intent_pool=intent_pool)
        ckpt = train(data.train, data.dev, cfg, data.featurizer(),
                     encoder=TINY_ENCODER).checkpoint
        assert {a.dtype for a in ckpt.params.values()} == {
            np.dtype(COMPUTE_DTYPE)
        }
        words = [u.words for u in data.test]

        def served(batch_size):
            return [(p.intent, p.tags)
                    for p in predict(ckpt, words, batch_size)]

        alone = served(1)
        assert served(7) == alone
        assert served(64) == alone

    def test_training_holds_no_float64_array(self, monkeypatch):
        # the parameters each step reads and AdamW's whole state are held
        # once, in the model's dtype
        opts, read = [], []
        build = TrainConfig.optimizer

        def optimizer(self, *args):
            opts.append(build(self, *args))
            return opts[-1]

        def loss_and_grads(params, *args):
            read.extend(params.values())
            return model_loss_and_grads(params, *args)

        cfg = quick_config(epochs=1, slot_mode="crf")
        monkeypatch.setattr(TrainConfig, "optimizer", optimizer)
        monkeypatch.setattr("jointnlu.training.model_loss_and_grads",
                            loss_and_grads)
        data = toy_grammar(5, 16, 4, 4)
        train(data.train, data.dev, cfg, data.featurizer(),
              encoder=TINY_ENCODER)
        (opt,) = opts
        state = [a for a in vars(opt).values() if isinstance(a, np.ndarray)]
        state += list(opt._grads.values())
        assert len(state) > 5 and opt.t == 2
        assert {a.dtype for a in state + read} == {np.dtype(COMPUTE_DTYPE)}
        # every step reads views of the one buffer that AdamW updates
        assert all(np.shares_memory(a, opt._params) for a in read)


class TestEvaluate:
    def _fitted(self):
        data = toy_grammar(21, 24, 8, 8)
        res = train(data.train, data.dev, quick_config(epochs=1),
                    data.featurizer(), encoder=TINY_ENCODER)
        return data, res

    def test_unseen_dev_intent_scores_as_error(self):
        data, res = self._fitted()
        ckpt = res.checkpoint
        weird = [
            TaggedUtterance(u.words, u.tags, "intent_never_seen")
            for u in data.dev[:4]
        ]
        rep = evaluate(ckpt, weird)
        assert rep.intent_acc == 0.0
        assert rep.sent_acc == 0.0

    def test_truncated_sequences_score_without_crashing(self):
        data, res = self._fitted()
        ckpt = res.checkpoint
        # each utterance is the dev split three times over, rotated: more
        # words than the checkpoint's max_len has positions
        dev = list(data.dev)
        joined = [(dev[k:] + dev[:k]) * 3 for k in range(4)]
        long = [
            TaggedUtterance([w for u in us for w in u.words],
                            [t for u in us for t in u.tags], us[0].intent)
            for us in joined
        ]
        assert all(len(u.words) > ckpt.config.encoder.max_len for u in long)
        preds = predict(ckpt, [u.words for u in long])
        assert all(p.seq.truncated for p in preds)
        assert all(len(p.tags) < len(u.words) for p, u in zip(preds, long))
        rep = evaluate(ckpt, long)
        assert 0.0 <= rep.slot_f1 <= 1.0

    def test_empty_corpus_rejected(self):
        _, res = self._fitted()
        with pytest.raises(ValueError, match="at least one utterance"):
            evaluate(res.checkpoint, [])

    @pytest.mark.parametrize("request_of, batch_size, match", [
        (lambda words: [words], 0, "batch_size"),
        # a string is a sequence too, of one-character words
        (lambda words: [" ".join(words)], 64, "not a string"),
        (lambda words: [words + (3,)], 64, "bad word 3"),
    ], ids=["batch_size", "string", "int_word"])
    def test_bad_requests_rejected(self, request_of, batch_size, match):
        data, res = self._fitted()
        with pytest.raises(ValueError, match=match):
            predict(res.checkpoint, request_of(data.dev[0].words), batch_size)


def test_desk_encoder_dimensions():
    assert (DESK_ENCODER.d_h, DESK_ENCODER.n_layers,
            DESK_ENCODER.n_heads, DESK_ENCODER.d_ff) == (64, 2, 4, 128)
