"""Full-stack model wiring: losses, gradients, decoding, checkpoints."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from jointnlu.data import IntentVocab, SlotVocab, TaggedUtterance, UNK_INTENT
from jointnlu.encoder import EncoderConfig
from jointnlu.features import FEATURE_DIM, WordFeaturizer
from jointnlu.intent_head import POOL_MODES
from jointnlu.model import (
    COMPUTE_DTYPE,
    SLOT_MODES,
    Batch,
    Checkpoint,
    ModelConfig,
    align_utterance,
    decode_word_tags,
    init_model_params,
    load_checkpoint,
    make_batch,
    model_loss_and_grads,
    model_outputs,
    param_spec,
    predict_batch,
    save_checkpoint,
)
from jointnlu.subwords import WordPieceVocab, RESERVED_TOKENS, train_vocab
from jointnlu.tagging import O_TAG, SlotTag, X_TAG
from jointnlu.toy import toy_grammar
from jointnlu.training import TrainConfig, predict, train

from oracles import (
    decode_word_tags_per_piece,
    finite_difference,
    intent_ce,
    model_losses,
    model_padded,
    relative_gradient_error,
    viterbi_per_sequence,
)

VOCAB = 24
N_INT, N_SLOTS = 4, 5


def tiny_config(**over):
    enc = EncoderConfig(
        vocab_size=VOCAB, d_h=8, n_layers=1, n_heads=2, d_ff=16, max_len=12
    )
    base = dict(
        encoder=enc, n_intents=N_INT, n_slots=N_SLOTS,
        slot_mode="softmax", slot_features=True, intent_pool="attention",
    )
    base.update(over)
    return ModelConfig(**base)


def tiny_batch(rng, b=3, n=7):
    ids = rng.integers(4, VOCAB, size=(b, n))
    pad_mask = np.ones((b, n), dtype=bool)
    pad_mask[0, n - 2:] = False  # one padded row exercises masking
    ids[~pad_mask] = 0
    features = np.zeros((b, n, FEATURE_DIM))
    hot = rng.integers(0, FEATURE_DIM, size=(b, n))
    for i in range(b):
        for j in range(n):
            if pad_mask[i, j]:
                features[i, j, hot[i, j]] = 1.0
    tag_ids = rng.integers(0, N_SLOTS, size=(b, n))
    intent_ids = rng.integers(0, N_INT, size=b)
    return Batch(ids, pad_mask, features[pad_mask], tag_ids[pad_mask], intent_ids)


def ragged_batch(rng, lengths, n=7):
    """A batch whose sequences have the given lengths, padded to n. The
    padded slots hold random real ids, which nothing may read."""
    b = len(lengths)
    pad_mask = np.arange(n)[None, :] < np.asarray(lengths)[:, None]
    ids = rng.integers(4, VOCAB, size=(b, n))
    T = int(pad_mask.sum())
    features = np.zeros((T, FEATURE_DIM))
    features[np.arange(T), rng.integers(0, FEATURE_DIM, size=T)] = 1.0
    tag_ids = rng.integers(0, N_SLOTS, size=T)
    intent_ids = rng.integers(0, N_INT, size=b)
    return Batch(ids, pad_mask, features, tag_ids, intent_ids)


def segments(batch):
    """(start, length) of each sequence's packed rows."""
    lengths = batch.pad_mask.sum(axis=1)
    return list(zip((np.cumsum(lengths) - lengths).tolist(), lengths.tolist()))


class TestConfig:
    def test_round_trip(self):
        cfg = tiny_config(slot_mode="crf", intent_pool="start_token")
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_config(slot_mode="mrf")
        with pytest.raises(ValueError):
            tiny_config(intent_pool="mean")
        with pytest.raises(ValueError):
            tiny_config(n_intents=0)
        with pytest.raises(ValueError):
            tiny_config(dropout_rate=1.0)


class TestInit:
    def test_softmax_attention_param_names(self, rng):
        cfg = tiny_config()
        params = init_model_params(cfg, rng)
        assert {"W_s", "b_s"} <= set(params)
        assert any(k.startswith("enc.") for k in params)
        assert {"feat.W_w", "feat.b_w", "feat.a_prelu", "feat.W_proj",
                "feat.b_proj"} <= set(params)
        assert {"int.W_score", "int.v_score", "int.W_cls", "int.b_cls"} <= set(params)
        assert not any(k.startswith("crf.") for k in params)
        assert params["W_s"].shape == (N_SLOTS, N_INT + 32 + 8)

    def test_crf_and_ablation_param_names(self, rng):
        cfg = tiny_config(slot_mode="crf", slot_features=False,
                          intent_pool="start_token")
        params = init_model_params(cfg, rng)
        assert {"crf.T", "crf.start", "crf.end"} <= set(params)
        assert not any(k.startswith("feat.") for k in params)
        assert {"int.W_pool", "int.b_pool"} <= set(params)
        assert params["W_s"].shape == (N_SLOTS, N_INT + 8)
        assert params["crf.T"].shape == (N_SLOTS, N_SLOTS)


class TestForward:
    def test_output_shapes(self, rng):
        cfg = tiny_config()
        params = init_model_params(cfg, rng)
        batch = tiny_batch(rng)
        y_int, slot_scores, alpha, _ = model_outputs(params, cfg, batch)
        assert y_int.shape == (3, N_INT)
        assert slot_scores.shape == (5 + 7 + 7, N_SLOTS)
        assert alpha.shape == (5 + 7 + 7,)
        for lo, L in segments(batch):
            assert np.isclose(alpha[lo:lo + L].sum(), 1.0, atol=1e-6)

    def test_deterministic_without_dropout(self, rng):
        cfg = tiny_config()
        params = init_model_params(cfg, rng)
        batch = tiny_batch(rng)
        a = model_outputs(params, cfg, batch)[:3]
        b = model_outputs(params, cfg, batch)[:3]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_losses_identical_when_feature_block_is_inert(self, rng):
        # zeroed feature columns + zeroed feature net == ablated feature path
        cfg_on = tiny_config()
        cfg_off = tiny_config(slot_features=False)
        params_on = init_model_params(cfg_on, rng)
        n_int = N_INT
        params_off = {
            k: v.copy() for k, v in params_on.items()
            if not k.startswith("feat.")
        }
        params_off["W_s"] = np.concatenate(
            [params_on["W_s"][:, :n_int], params_on["W_s"][:, n_int + 32:]],
            axis=1,
        )
        params_on = dict(params_on)
        params_on["W_s"] = params_on["W_s"].copy()
        params_on["W_s"][:, n_int:n_int + 32] = 0.0
        batch = tiny_batch(rng)

        li_on, ls_on, _, g_on = model_loss_and_grads(params_on, cfg_on, batch, 0.6)
        li_off, ls_off, _, g_off = model_loss_and_grads(params_off, cfg_off, batch, 0.6)
        assert li_on == pytest.approx(li_off, abs=1e-12)
        assert ls_on == pytest.approx(ls_off, abs=1e-12)
        for k in g_off:
            if k == "W_s":
                continue
            assert np.allclose(g_on[k], g_off[k], atol=1e-12), k


class TestGradients:
    @pytest.mark.parametrize("slot_mode", SLOT_MODES)
    @pytest.mark.parametrize("slot_features", [True, False])
    @pytest.mark.parametrize("intent_pool", POOL_MODES)
    def test_grads_are_keyed_like_param_spec(
        self, rng, slot_mode, slot_features, intent_pool
    ):
        cfg = tiny_config(slot_mode=slot_mode, slot_features=slot_features,
                          intent_pool=intent_pool)
        params = init_model_params(cfg, rng)
        _, _, _, grads = model_loss_and_grads(params, cfg, tiny_batch(rng), 0.6)
        assert sorted(grads) == sorted(row.name for row in param_spec(cfg))
        for row in param_spec(cfg):
            assert grads[row.name].shape == row.shape, row.name

    # one representative tensor per subsystem keeps the sweep affordable
    PROBE = ["enc.tok_emb", "enc.l0.Wq", "enc.l0.ln2.g", "feat.W_w",
             "feat.a_prelu", "int.W_score", "int.v_score", "int.W_cls",
             "W_s", "b_s"]

    @pytest.mark.parametrize("slot_mode", ["softmax", "crf"])
    def test_joint_gradients_match_fd(self, rng, slot_mode):
        cfg = tiny_config(slot_mode=slot_mode)
        params = init_model_params(cfg, rng)
        batch = tiny_batch(rng)
        gamma = 0.6
        _, _, _, grads = model_loss_and_grads(params, cfg, batch, gamma)
        assert set(grads) == set(params)

        def loss(_parms=None):
            li, ls = model_losses(params, cfg, batch)
            return gamma * li + (1.0 - gamma) * ls

        names = list(self.PROBE)
        if slot_mode == "crf":
            names += ["crf.T", "crf.start", "crf.end"]
        for name in names:
            coords, fd = finite_difference(
                loss, params, name, step=1e-5, max_coords=6, rng=rng
            )
            err = relative_gradient_error(grads[name].reshape(-1)[coords], fd)
            assert err.max() <= 1e-4, f"{slot_mode} {name}: {err.max():.2e}"

    # every encoder tensor kind the packed rows touch, plus the embeddings
    RAGGED_PROBE = (
        ("W_s", 12), ("b_s", None), ("enc.tok_emb", 8), ("enc.pos_emb", 8),
        ("enc.ln_emb.b", None), ("enc.l0.Wq", 6), ("enc.l0.Wk", 6),
        ("enc.l0.Wv", 6), ("enc.l0.Wo", 6), ("enc.l0.bv", None),
        ("enc.l0.ln1.g", None), ("enc.l0.W1", 6),
    )

    # the feature net and each pooling mode's tensors, on packed rows
    FEATURE_PROBE = (("feat.W_w", 6), ("feat.a_prelu", None), ("feat.W_proj", 6))
    POOL_PROBE = {
        "attention": (("int.W_score", 6), ("int.v_score", None)),
        "start_token": (("int.W_pool", 6), ("int.b_pool", None)),
    }

    @pytest.mark.parametrize("slot_features", [True, False])
    @pytest.mark.parametrize("slot_mode", SLOT_MODES)
    def test_gradients_match_fd_on_ragged_batch(self, rng, slot_mode, slot_features):
        for intent_pool in POOL_MODES:
            cfg = tiny_config(slot_mode=slot_mode, intent_pool=intent_pool,
                              slot_features=slot_features)
            params = init_model_params(cfg, rng)
            names = [*self.RAGGED_PROBE, *(self.FEATURE_PROBE if slot_features else ()),
                     *self.POOL_PROBE[intent_pool]]
            if slot_mode == "crf":
                for k in ("crf.T", "crf.start", "crf.end"):
                    params[k] = rng.normal(size=params[k].shape)
                    names.append((k, None))
            batch = ragged_batch(rng, [7, 1, 4, 2, 7])
            gamma = 0.3
            _, _, _, grads = model_loss_and_grads(params, cfg, batch, gamma)

            def loss(_parms=None, cfg=cfg, params=params, batch=batch):
                li, ls = model_losses(params, cfg, batch)
                return gamma * li + (1.0 - gamma) * ls

            for name, coords in names:
                probed, fd = finite_difference(
                    loss, params, name, step=1e-5, max_coords=coords, rng=rng
                )
                err = relative_gradient_error(grads[name].reshape(-1)[probed], fd)
                assert err.max() <= 1e-4, (
                    f"{slot_mode} {slot_features} {intent_pool} {name}: {err.max():.2e}"
                )

    def test_start_token_pool_gradients_match_fd(self, rng):
        cfg = tiny_config(intent_pool="start_token")
        params = init_model_params(cfg, rng)
        batch = tiny_batch(rng)
        _, _, _, grads = model_loss_and_grads(params, cfg, batch, 0.6)

        def loss(_parms=None):
            li, ls = model_losses(params, cfg, batch)
            return 0.6 * li + 0.4 * ls

        for name in ("int.W_pool", "int.b_pool", "enc.tok_emb", "W_s"):
            coords, fd = finite_difference(
                loss, params, name, step=1e-5, max_coords=6, rng=rng
            )
            err = relative_gradient_error(grads[name].reshape(-1)[coords], fd)
            assert err.max() <= 1e-4, f"{name}: {err.max():.2e}"

    def test_dropout_gradients_with_replayed_stream(self, rng):
        cfg = tiny_config(dropout_rate=0.2)
        params = init_model_params(cfg, rng)
        batch = tiny_batch(rng)
        _, _, _, grads = model_loss_and_grads(
            params, cfg, batch, 0.6, rng=np.random.default_rng(99),
        )

        def loss(_parms=None):
            li, ls = model_losses(
                params, cfg, batch, rng=np.random.default_rng(99),
            )
            return 0.6 * li + 0.4 * ls

        for name in ("enc.l0.W1", "int.W_cls", "W_s"):
            coords, fd = finite_difference(
                loss, params, name, step=1e-5, max_coords=6, rng=rng
            )
            err = relative_gradient_error(grads[name].reshape(-1)[coords], fd)
            assert err.max() <= 1e-4, f"{name}: {err.max():.2e}"

    @pytest.mark.parametrize("slot_mode", ["softmax", "crf"])
    def test_gamma_one_zeroes_slot_only_gradients(self, rng, slot_mode):
        cfg = tiny_config(slot_mode=slot_mode)
        params = init_model_params(cfg, rng)
        batch = tiny_batch(rng)
        _, _, _, grads = model_loss_and_grads(params, cfg, batch, gamma=1.0)
        slot_only = ["W_s", "b_s"]
        if slot_mode == "crf":
            slot_only += ["crf.T", "crf.start", "crf.end"]
        for name in slot_only:
            assert np.allclose(grads[name], 0.0), name
        # the intent path must still learn
        assert np.abs(grads["int.W_cls"]).max() > 0

    def test_gamma_zero_removes_intent_ce_term(self, rng):
        cfg = tiny_config()
        params = init_model_params(cfg, rng)
        batch = tiny_batch(rng)
        _, _, _, g0 = model_loss_and_grads(params, cfg, batch, gamma=0.0)
        # intent parameters still receive gradient through the fused slots
        assert np.abs(g0["int.W_cls"]).max() > 0

    def test_loss_breakdown_is_mode_consistent(self, rng):
        cfg = tiny_config()
        params = init_model_params(cfg, rng)
        batch = tiny_batch(rng)
        li_a, ls_a = model_losses(params, cfg, batch)
        li_b, ls_b, _, _ = model_loss_and_grads(params, cfg, batch, 0.3)
        assert li_a == pytest.approx(li_b, abs=1e-15)
        assert ls_a == pytest.approx(ls_b, abs=1e-15)


class TestPackedMatchesPaddedModel:
    """model_outputs and model_loss_and_grads against oracles.model_padded,
    which runs the heads, the feature net and the losses on the padded
    (b, n) layout, padding included."""

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("slot_features", [True, False])
    @pytest.mark.parametrize("intent_pool", POOL_MODES)
    @pytest.mark.parametrize("slot_mode", SLOT_MODES)
    def test_losses_outputs_and_gradients_match(
        self, rng, slot_mode, intent_pool, slot_features, rate
    ):
        cfg = tiny_config(slot_mode=slot_mode, intent_pool=intent_pool,
                          slot_features=slot_features, dropout_rate=rate)
        for trial in range(3):
            params = init_model_params(cfg, rng, scale=0.3)
            lengths = rng.integers(1, 8, size=5)
            lengths[:2] = (1, 7)
            batch = ragged_batch(rng, lengths)  # random ids in the padding
            pad = batch.pad_mask

            rng_packed = np.random.default_rng(trial)
            rng_padded = np.random.default_rng(trial)
            l_int, l_slot, _, grads = model_loss_and_grads(
                params, cfg, batch, 0.4, rng_packed)
            ref_int, ref_slot, ref_grads, *_ = model_padded(
                params, cfg, batch, 0.4, rng_padded)
            assert rng_packed.bit_generator.state == rng_padded.bit_generator.state
            assert abs(l_int - ref_int) <= 1e-12
            assert abs(l_slot - ref_slot) <= 1e-12
            assert grads.keys() == ref_grads.keys() == params.keys()
            for name in params:
                err = np.abs(grads[name] - ref_grads[name]).max()
                assert err <= 1e-12, f"{name}: {err:.2e}"

            y_int, scores, alpha, _ = model_outputs(
                params, cfg, batch, np.random.default_rng(trial))
            *_, ref_y, ref_scores, ref_alpha = model_padded(
                params, cfg, batch, 0.4, np.random.default_rng(trial))
            assert np.abs(y_int - ref_y).max() <= 1e-12
            assert np.abs(scores - ref_scores[pad]).max() <= 1e-12
            assert np.abs(alpha - ref_alpha[pad]).max() <= 1e-12
            assert (ref_alpha[~pad] == 0.0).all()


def _arrays(obj, path=()):
    """Every ndarray inside nested dicts, lists and tuples, with its path."""
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _arrays(value, path + (key,))
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from _arrays(value, path + (i,))


class TestPackedLayout:
    """From the encoder's output to the loss every per-piece array has one
    row per real piece, and every per-sequence array one row per sequence.
    Only the encoder's attention block (q, k, v and the attention
    probabilities) holds a padded length axis."""

    # b = 6 sequences padded to n = 7 hold T = 24 pieces; none of b, n and T
    # is one of the model's widths, so any array with a length axis shows it.
    LENGTHS, N = [7, 1, 4, 2, 7, 3], 7

    def _check(self, where, arr, params):
        b, T, n = len(self.LENGTHS), sum(self.LENGTHS), self.N
        if any(arr is p for p in params.values()):
            return  # a layer-norm gain or CRF score the cache holds by reference
        if where[-1] in ("q", "k", "v", "probs"):
            assert arr.shape[0] == b and arr.shape[2] == n, where
        else:
            assert arr.shape[0] in (T, b), (where, arr.shape)
            assert n not in arr.shape[1:], (where, arr.shape)

    @staticmethod
    def _record(monkeypatch, module, names):
        """Patch each named function of `module` to log its positional
        arguments and what it returns."""
        seen = []
        for name in names:
            def record(*args, _fn=getattr(module, name), _name=name):
                out = _fn(*args)
                seen.append((_name, args, out))
                return out
            monkeypatch.setattr(module, name, record)
        return seen

    @pytest.mark.parametrize("slot_mode", SLOT_MODES)
    @pytest.mark.parametrize("intent_pool", POOL_MODES)
    def test_cache_and_gradients_are_packed(self, rng, monkeypatch, slot_mode,
                                            intent_pool):
        import jointnlu.model as model

        cfg = tiny_config(slot_mode=slot_mode, intent_pool=intent_pool,
                          dropout_rate=0.2)
        params = init_model_params(cfg, rng)
        batch = ragged_batch(rng, self.LENGTHS, n=self.N)
        *_, cache = model_outputs(params, cfg, batch, np.random.default_rng(0))
        for where, arr in _arrays(cache):
            self._check(where, arr, params)

        # the gradient each backward pass receives and hands on, and in crf
        # mode the CRF's inputs, cache and gradients
        backward = ("slot_backward", "intent_backward", "feature_backward",
                    "encode_backward")
        crf = ("crf_nll", "crf_nll_backward") if slot_mode == "crf" else ()
        seen = self._record(monkeypatch, model, backward + crf)
        model_loss_and_grads(params, cfg, batch, 0.4, np.random.default_rng(0))
        assert [name for name, *_ in seen] == list(crf) + list(backward)
        for name, args, out in seen:
            if name == "crf_nll_backward":
                K = N_SLOTS
                assert out["emissions"].shape == (sum(self.LENGTHS), K)
                assert out["trans"].shape == (K, K)
                assert out["start"].shape == out["end"].shape == (K,)
                continue
            parts = out if isinstance(out, tuple) else (out,)
            kept = [args if name == "crf_nll" else args[:1]]
            kept += [p for p in parts if name == "crf_nll" or not isinstance(p, dict)]
            for where, arr in _arrays(kept):
                self._check((name,) + where, arr, params)

    @pytest.mark.parametrize("intent_pool", POOL_MODES)
    def test_dropout_draws_are_the_packed_mask_shapes(self, rng, intent_pool):
        cfg = tiny_config(intent_pool=intent_pool, dropout_rate=0.3)
        params = init_model_params(cfg, rng)
        batch = ragged_batch(rng, self.LENGTHS, n=self.N)
        b, T = len(self.LENGTHS), sum(self.LENGTHS)
        d_h = cfg.encoder.d_h
        shapes = [(T, d_h)] + [(T, d_h), (T, d_h)] * cfg.encoder.n_layers
        if intent_pool == "attention":
            shapes.append((T,))
        shapes += [(b, d_h), (T, params["W_s"].shape[1])]

        used = np.random.default_rng(7)
        *_, cache = model_outputs(params, cfg, batch, used)
        replay = np.random.default_rng(7)
        masks = [(replay.random(shape) >= 0.3) / 0.7 for shape in shapes]
        assert used.bit_generator.state == replay.bit_generator.state
        enc, head = cache["enc"], cache["int"]
        drawn = [enc["emb_mask"]]
        for attn, ffn in enc["layers"]:
            # each sublayer's _add_norm cache is (dropout mask, layer-norm cache)
            drawn += [attn["norm"][0], ffn["norm"][0]]
        if intent_pool == "attention":
            drawn.append(head["att_drop"])
        drawn += [head["h_drop"], cache["slot"]["drop"]]
        assert len(drawn) == len(masks)
        for got, want in zip(drawn, masks):
            assert np.array_equal(got, want)


class TestComputeDtype:
    """Both passes compute in the dtype of the parameters handed in: float32
    (COMPUTE_DTYPE) for training, evaluation and serving, float64 in the
    finite-difference checks. A float64 constant or default anywhere on the
    path would silently widen a float32 pass."""

    LENGTHS, N = TestPackedLayout.LENGTHS, TestPackedLayout.N
    # From float32's resolution: 1e3 eps covers the rounding of every layer.
    TOL = 1e3 * float(np.finfo(np.float32).eps)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dropout_rate", [0.0, 0.1])
    @pytest.mark.parametrize("slot_features", [True, False])
    @pytest.mark.parametrize("intent_pool", POOL_MODES)
    @pytest.mark.parametrize("slot_mode", SLOT_MODES)
    def test_every_float_array_has_the_params_dtype(
        self, rng, monkeypatch, slot_mode, intent_pool, slot_features,
        dropout_rate, dtype,
    ):
        import jointnlu.model as model

        cfg = tiny_config(slot_mode=slot_mode, intent_pool=intent_pool,
                          slot_features=slot_features, dropout_rate=dropout_rate)
        params = {k: v.astype(dtype) for k, v in init_model_params(cfg, rng).items()}
        batch = ragged_batch(rng, self.LENGTHS, n=self.N)
        outputs = model_outputs(params, cfg, batch, np.random.default_rng(0))

        # what every backward pass and the CRF receive and return
        names = ("slot_backward", "intent_backward", "feature_backward",
                 "encode_backward", "crf_nll", "crf_nll_backward")
        seen = TestPackedLayout._record(monkeypatch, model, names)
        *losses, grads = model_loss_and_grads(
            params, cfg, batch, 0.4, np.random.default_rng(0)
        )
        assert grads.keys() == params.keys()
        found = list(_arrays([outputs, grads, [(args, out) for _, args, out in seen]]))
        floats = [(where, arr) for where, arr in found if arr.dtype.kind == "f"]
        assert len(floats) > len(grads)
        for where, arr in floats:
            assert arr.dtype == dtype, where
        assert all(type(x) is float for x in losses)

    @pytest.mark.parametrize("slot_features", [True, False])
    @pytest.mark.parametrize("intent_pool", POOL_MODES)
    @pytest.mark.parametrize("slot_mode", SLOT_MODES)
    def test_float32_matches_float64_within_its_resolution(
        self, rng, slot_mode, intent_pool, slot_features
    ):
        cfg = tiny_config(slot_mode=slot_mode, intent_pool=intent_pool,
                          slot_features=slot_features, dropout_rate=0.0)
        params = init_model_params(cfg, rng)
        params32 = {k: v.astype(np.float32) for k, v in params.items()}
        batch = ragged_batch(rng, self.LENGTHS, n=self.N)
        *l64, g64 = model_loss_and_grads(params, cfg, batch, 0.4)
        *l32, g32 = model_loss_and_grads(params32, cfg, batch, 0.4)
        for a, b in zip(l32, l64):
            assert abs(a - b) <= self.TOL * abs(b)
        top = max(np.abs(g).max() for g in g64.values())
        for name, want in g64.items():
            # A gradient that is zero up to rounding (the key biases', by the
            # softmax's shift invariance) is measured against the largest.
            scale = max(np.abs(want).max(), self.TOL * top)
            assert np.abs(g32[name] - want).max() <= self.TOL * scale, name

    @pytest.mark.parametrize("intent_pool", POOL_MODES)
    def test_both_dtypes_draw_the_same_dropout(self, rng, intent_pool):
        cfg = tiny_config(slot_mode="crf", intent_pool=intent_pool,
                          dropout_rate=0.1)
        params = init_model_params(cfg, rng)
        batch = ragged_batch(rng, self.LENGTHS, n=self.N)
        rngs = []
        for dtype in (np.float32, np.float64):
            used = np.random.default_rng(3)
            params_d = {k: v.astype(dtype) for k, v in params.items()}
            model_loss_and_grads(params_d, cfg, batch, 0.4, used)
            rngs.append(used.bit_generator.state)
        assert rngs[0] == rngs[1]


class TestCrossEntropy:
    """One cross-entropy serves both heads: at unit lengths it is the intent
    loss, the per-row reference `oracles.intent_ce` it replaced."""

    @pytest.mark.parametrize("b", [1, 7, 16, 32, 64])
    def test_unit_lengths_match_the_per_row_reference(self, rng, b):
        from jointnlu.model import _cross_entropy

        for trial in range(20):
            y_int = rng.normal(scale=3.0, size=(b, N_INT)).astype(COMPUTE_DTYPE)
            gold = rng.integers(0, N_INT, size=b)
            loss, d = _cross_entropy(y_int, gold, np.ones(b, dtype=int))
            ref_loss, ref_d = intent_ce(y_int, gold)
            assert d.dtype == ref_d.dtype == COMPUTE_DTYPE
            assert d.tobytes() == ref_d.tobytes(), (b, trial)
            assert loss == pytest.approx(ref_loss, rel=1e-6)


class TestSlotLossShape:
    def test_softmax_loss_is_per_sequence_position_mean(self, rng):
        from jointnlu.model import _cross_entropy
        from jointnlu.numerics import log_softmax

        S = 3
        scores = rng.normal(size=(7, S))
        tags = rng.integers(0, S, size=7)
        loss, _ = _cross_entropy(scores, tags, np.array([4, 3]))
        manual = [
            np.mean([-log_softmax(scores[t])[tags[t]] for t in rows])
            for rows in (range(0, 4), range(4, 7))
        ]
        assert loss == pytest.approx(np.mean(manual))

    def test_padded_positions_carry_no_gradient(self, rng):
        # whatever ids the padded slots hold, no loss or gradient moves
        batch = ragged_batch(rng, [7, 1, 4, 2, 7])
        ids = batch.ids.copy()
        ids[~batch.pad_mask] = rng.integers(0, VOCAB, size=(~batch.pad_mask).sum())
        other = Batch(ids, batch.pad_mask, batch.features, batch.tag_ids,
                      batch.intent_ids)
        for slot_mode in SLOT_MODES:
            cfg = tiny_config(slot_mode=slot_mode, dropout_rate=0.3)
            params = init_model_params(cfg, rng)
            li, ls, _, g = model_loss_and_grads(
                params, cfg, batch, 0.4, np.random.default_rng(3))
            li2, ls2, _, g2 = model_loss_and_grads(
                params, cfg, other, 0.4, np.random.default_rng(3))
            assert (li2, ls2) == (li, ls)
            for k in g:
                assert np.array_equal(g2[k], g[k]), (slot_mode, k)

    def test_crf_loss_is_batch_mean_of_the_packed_crf(self, rng):
        from jointnlu.crf import crf_nll, crf_nll_backward
        from jointnlu.model import _crf_slot_loss

        cfg = tiny_config(slot_mode="crf")
        params = init_model_params(cfg, rng)
        lengths = np.array([2, 4, 1])
        scores = rng.normal(size=(7, N_SLOTS))
        tags = rng.integers(0, N_SLOTS, size=7)
        loss, d, grads = _crf_slot_loss(scores, tags, lengths, params)
        nll, cache = crf_nll(scores, tags, params["crf.T"], params["crf.start"],
                             params["crf.end"], lengths)
        g = crf_nll_backward(cache)
        assert loss == float(nll.sum()) / 3
        assert np.array_equal(d, g["emissions"] / 3)
        for k, key in (("crf.T", "trans"), ("crf.start", "start"),
                       ("crf.end", "end")):
            assert np.array_equal(grads[k], g[key] / 3), k


class TestPredict:
    def test_predict_shapes_and_ranges(self, rng):
        for slot_mode in ("softmax", "crf"):
            cfg = tiny_config(slot_mode=slot_mode)
            params = init_model_params(cfg, rng)
            batch = tiny_batch(rng)
            intents, pieces, alpha = predict_batch(params, cfg, batch)
            assert intents.shape == (3,)
            assert all(0 <= i < N_INT for i in intents)
            lengths = batch.pad_mask.sum(axis=1)
            for i, p in enumerate(pieces):
                assert len(p) == lengths[i]
                assert p.min() >= 0 and p.max() < N_SLOTS

    def test_crf_predictions_use_transitions(self, rng):
        cfg = tiny_config(slot_mode="crf")
        params = init_model_params(cfg, rng)
        batch = tiny_batch(rng)
        # forbid every transition into tag 2: it can then appear only once
        params["crf.T"][:, 2] = -1e6
        params["crf.start"] = params["crf.start"].copy()
        _, pieces, _ = predict_batch(params, cfg, batch)
        for p in pieces:
            inner = p[1:]
            assert not np.any(inner == 2)

    def test_batch_decodes_like_each_sequence_alone(self, rng):
        for slot_mode in ("softmax", "crf"):
            cfg = tiny_config(slot_mode=slot_mode)
            params = init_model_params(cfg, rng)
            if slot_mode == "crf":
                params["crf.T"] = rng.normal(size=params["crf.T"].shape)
            batch = ragged_batch(rng, [7, 1, 4, 2, 7])
            _, slot_scores, _, _ = model_outputs(params, cfg, batch)
            _, pieces, _ = predict_batch(params, cfg, batch)
            for i, (lo, L) in enumerate(segments(batch)):
                emissions = slot_scores[lo:lo + L]
                if slot_mode == "crf":
                    alone = viterbi_per_sequence(
                        emissions, params["crf.T"], params["crf.start"],
                        params["crf.end"],
                    )
                else:
                    alone = emissions.argmax(axis=1)
                assert np.array_equal(pieces[i], alone)


class TestBatchSizeAgreement:
    """A sequence served alone and inside a batch of 64 gets the same
    logits to within TOL, not only the same argmax."""

    TOL = 1e-5

    @pytest.fixture(scope="class", params=SLOT_MODES)
    def served(self, request):
        # trained as perfbench/workloads.py trains: its split sizes,
        # sub-word vocabulary target and TrainConfig
        data = toy_grammar(0, 2000, 300, 256)
        piece_vocab = train_vocab([w for u in data.train for w in u.words], 300)
        config = TrainConfig(epochs=1, batch_size=32, max_len=32,
                             slot_mode=request.param, seed=0)
        result = train(data.train, data.dev, config, data.featurizer(),
                       piece_vocab=piece_vocab)
        return result.checkpoint, [u.words for u in data.test[:64]]

    def test_logits_alone_match_a_batch_of_64(self, served):
        ckpt, utterances = served
        seqs = [
            align_utterance(TaggedUtterance(w, (O_TAG,) * len(w), "unlabeled"),
                            ckpt.piece_vocab, ckpt.featurizer,
                            ckpt.config.encoder.max_len)
            for w in utterances
        ]
        batch = make_batch(seqs, [0] * len(seqs), ckpt.slot_vocab)
        y_int, slot_scores, _, _ = model_outputs(ckpt.params, ckpt.config, batch)
        rows = np.split(slot_scores, np.cumsum(batch.lengths)[:-1])
        for i, seq in enumerate(seqs):
            y_alone, s_alone, _, _ = model_outputs(
                ckpt.params, ckpt.config, make_batch([seq], [0], ckpt.slot_vocab)
            )
            assert np.abs(y_alone[0] - y_int[i]).max() <= self.TOL
            assert np.abs(s_alone - rows[i]).max() <= self.TOL

    def test_predict_alike_at_batch_1_and_64(self, served):
        ckpt, utterances = served
        alone = predict(ckpt, utterances, batch_size=1)
        batched = predict(ckpt, utterances, batch_size=64)
        assert ([(p.intent, p.tags) for p in alone]
                == [(p.intent, p.tags) for p in batched])


class TestEndToEndPipeline:
    def test_toy_utterance_round_trip(self, rng):
        data = toy_grammar(3, 20, 4, 4)
        words = sorted({w for u in data.train for w in u.words})
        from jointnlu.subwords import train_vocab

        piece_vocab = train_vocab(words, 200)
        featurizer = data.featurizer()
        slot_vocab = SlotVocab.from_corpus(data.train)
        intent_vocab = IntentVocab.from_corpus(data.train)

        utt = data.train[0]
        seq = align_utterance(utt, piece_vocab, featurizer, max_len=30)
        assert seq.word_count == len(utt.words)

        enc = EncoderConfig(
            vocab_size=len(piece_vocab.pieces), d_h=8, n_layers=1,
            n_heads=2, d_ff=16, max_len=30,
        )
        cfg = ModelConfig(
            encoder=enc, n_intents=len(intent_vocab),
            n_slots=len(slot_vocab),
        )
        params = init_model_params(cfg, rng)
        batch = make_batch([seq], [intent_vocab.encode(utt.intent)], slot_vocab)
        intents, pieces, _ = predict_batch(params, cfg, batch)
        word_tags = decode_word_tags(seq, pieces[0], slot_vocab)
        assert len(word_tags) == len(utt.words)
        assert all(t.kind in ("O", "B", "I") for t in word_tags)

    def test_gold_piece_tags_decode_to_gold_word_tags(self, rng):
        data = toy_grammar(5, 8, 2, 2)
        from jointnlu.subwords import train_vocab

        words = sorted({w for u in data.train for w in u.words})
        piece_vocab = train_vocab(words, 200)
        featurizer = data.featurizer()
        slot_vocab = SlotVocab.from_corpus(data.train)
        for utt in data.train:
            seq = align_utterance(utt, piece_vocab, featurizer, max_len=40)
            gold_ids = np.array([slot_vocab.encode(t) for t in seq.piece_tags])
            assert decode_word_tags(seq, gold_ids, slot_vocab) == list(utt.tags)


class TestDecodeWordTags:
    @pytest.mark.parametrize("slot_mode", SLOT_MODES)
    def test_matches_per_piece_decoding(self, slot_mode, rng):
        from jointnlu.subwords import train_vocab

        data = toy_grammar(5, 16, 2, 2)
        words = sorted({w for u in data.train for w in u.words})
        piece_vocab = train_vocab(words, 200)
        slot_vocab = SlotVocab.from_corpus(data.train)
        featurizer = data.featurizer()
        seqs = [
            align_utterance(u, piece_vocab, featurizer, max_len=40)
            for u in data.train
        ]
        cfg = ModelConfig(
            encoder=EncoderConfig(vocab_size=len(piece_vocab), d_h=8,
                                  n_layers=1, n_heads=2, d_ff=16, max_len=40),
            n_intents=2, n_slots=len(slot_vocab), slot_mode=slot_mode,
        )
        batch = make_batch(seqs, [0] * len(seqs), slot_vocab)
        _, predicted, _ = predict_batch(init_model_params(cfg, rng), cfg, batch)
        x_id = slot_vocab.encode(X_TAG)
        for seq, pred in zip(seqs, predicted):
            x_at_first = np.where(seq.active, x_id, pred)
            drawn = rng.integers(0, len(slot_vocab), len(seq))
            for ids in (pred, x_at_first, drawn):
                assert decode_word_tags(seq, ids, slot_vocab) == \
                    decode_word_tags_per_piece(seq, ids, slot_vocab)
            assert decode_word_tags(seq, x_at_first, slot_vocab) == \
                [O_TAG] * seq.word_count


class TestBatch:
    def test_make_batch_pads_and_masks(self, rng):
        data = toy_grammar(9, 8, 2, 2)
        from jointnlu.subwords import train_vocab

        words = sorted({w for u in data.train for w in u.words})
        piece_vocab = train_vocab(words, 200)
        featurizer = data.featurizer()
        slot_vocab = SlotVocab.from_corpus(data.train)
        seqs = [
            align_utterance(u, piece_vocab, featurizer, max_len=40)
            for u in data.train[:4]
        ]
        batch = make_batch(seqs, [0, 1, 2, 3], slot_vocab)
        n = batch.ids.shape[1]
        assert n == max(len(s) for s in seqs)
        for i, seq in enumerate(seqs):
            L = len(seq)
            assert batch.pad_mask[i, :L].all()
            assert not batch.pad_mask[i, L:].any()
            assert batch.ids[i, :L].tolist() == list(seq.piece_ids)
            assert (batch.ids[i, L:] == 0).all()
        # the per-piece arrays are packed: sequence after sequence
        assert np.array_equal(
            batch.features, np.concatenate([s.features for s in seqs])
        )
        assert batch.tag_ids.tolist() == [
            slot_vocab.encode(t) for s in seqs for t in s.piece_tags
        ]

    def test_per_piece_arrays_need_one_row_per_real_position(self, rng):
        batch = tiny_batch(rng)
        with pytest.raises(ValueError):
            Batch(batch.ids, batch.pad_mask, batch.features[:-1],
                  batch.tag_ids, batch.intent_ids)
        with pytest.raises(ValueError):
            Batch(batch.ids, batch.pad_mask, batch.features,
                  batch.tag_ids[:-1], batch.intent_ids)

    def test_mismatched_lengths_rejected(self, rng):
        with pytest.raises(ValueError):
            make_batch([], [], SlotVocab(("O", "X")))


def tiny_checkpoint(params, cfg) -> Checkpoint:
    """`params` with vocabularies as large as tiny_config says."""
    return Checkpoint(
        params=params, config=cfg,
        intent_vocab=IntentVocab((UNK_INTENT, "a", "b", "c")),
        slot_vocab=SlotVocab(("O", "X", "B-a", "B-b", "I-b")),
        piece_vocab=WordPieceVocab(
            RESERVED_TOKENS + tuple(chr(97 + i) for i in range(VOCAB - 4))
        ),
        featurizer=WordFeaturizer({}, {}, frozenset()),
    )


def _poisoned(name, value):
    def edit(params):
        params[name].flat[0] = value
    return edit


# (edit of a valid crf-mode tiny_config params dict, the ValueError's text)
BAD_PARAMS = {
    "missing": (lambda p: p.pop("b_s"), "tensor 'b_s' is missing"),
    "unexpected": (lambda p: p.update({"int.W_extra": np.zeros(3)}),
                   "unexpected tensor 'int.W_extra'"),
    "shape": (lambda p: p.update(W_s=p["W_s"][:, :-1]),
              "tensor 'W_s' has shape (5, 43), expected (5, 44)"),
    "float16": (lambda p: p.update(W_s=p["W_s"].astype(np.float16)),
                "tensor 'W_s' has dtype float16, expected float32"),
    "int": (lambda p: p.update({"crf.T": p["crf.T"].astype(int)}),
            "tensor 'crf.T' has dtype int64, expected float32"),
    "nan": (_poisoned("b_s", np.nan), "tensor 'b_s' has non-finite values"),
    "inf": (_poisoned("crf.end", -np.inf),
            "tensor 'crf.end' has non-finite values"),
    # a float64 value beyond float32's range, in the 0-d tensor
    "overflow": (lambda p: p.update({"feat.a_prelu": np.array(1e39)}),
                 "tensor 'feat.a_prelu' has non-finite values"),
}


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    """One small valid checkpoint's bytes, and a scratch path to write to."""
    root = tmp_path_factory.mktemp("archive")
    cfg = tiny_config(slot_mode="crf")
    save_checkpoint(
        tiny_checkpoint(init_model_params(cfg, np.random.default_rng(0)), cfg),
        root / "model.npz",
    )
    return (root / "model.npz").read_bytes(), root / "damaged.npz"


class TestCheckpoint:
    def test_round_trip_preserves_everything(self, rng, tmp_path):
        data = toy_grammar(7, 12, 2, 2)
        from jointnlu.subwords import train_vocab

        words = sorted({w for u in data.train for w in u.words})
        piece_vocab = train_vocab(words, 220)
        slot_vocab = SlotVocab.from_corpus(data.train)
        intent_vocab = IntentVocab.from_corpus(data.train)
        enc = EncoderConfig(
            vocab_size=len(piece_vocab.pieces), d_h=8, n_layers=1,
            n_heads=2, d_ff=16, max_len=40,
        )
        cfg = ModelConfig(
            encoder=enc, n_intents=len(intent_vocab), n_slots=len(slot_vocab),
            slot_mode="crf",
        )
        params = init_model_params(cfg, rng)
        ckpt = Checkpoint(
            params=params, config=cfg, intent_vocab=intent_vocab,
            slot_vocab=slot_vocab, piece_vocab=piece_vocab,
            featurizer=data.featurizer(),
        )
        path = tmp_path / "model.npz"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)

        assert loaded.config == cfg
        assert loaded.intent_vocab == intent_vocab
        assert loaded.slot_vocab == slot_vocab
        assert loaded.piece_vocab == piece_vocab
        assert loaded.featurizer == data.featurizer()
        assert set(loaded.params) == set(params)
        # the archive holds, and the loader returns, the model's dtype
        with np.load(path) as archive:
            assert {archive[k].dtype for k in params} == {np.dtype(COMPUTE_DTYPE)}
        for k in params:
            assert loaded.params[k].dtype == COMPUTE_DTYPE, k
            assert np.array_equal(loaded.params[k],
                                  params[k].astype(COMPUTE_DTYPE)), k
        # the structured-decoder tensor names are part of the archive contract
        assert {"W_s", "b_s", "crf.T", "crf.start", "crf.end"} <= set(loaded.params)

    def test_loaded_model_predicts_identically(self, rng, tmp_path):
        cfg = tiny_config(slot_mode="crf")
        params = {k: v.astype(COMPUTE_DTYPE)
                  for k, v in init_model_params(cfg, rng).items()}
        batch = tiny_batch(rng)
        before = predict_batch(params, cfg, batch)

        path = tmp_path / "m.npz"
        save_checkpoint(tiny_checkpoint(params, cfg), path)
        loaded = load_checkpoint(path)
        after = predict_batch(loaded.params, loaded.config, batch)
        assert np.array_equal(before[0], after[0])
        for x, y in zip(before[1], after[1]):
            assert np.array_equal(x, y)

    def test_float64_archive_loads_as_its_float32_twin(self, rng, tmp_path):
        # archives written before checkpoints were float32 hold float64
        cfg = tiny_config(slot_mode="crf")
        params = {k: v.astype(COMPUTE_DTYPE)
                  for k, v in init_model_params(cfg, rng).items()}
        twin = tmp_path / "twin.npz"
        save_checkpoint(tiny_checkpoint(params, cfg), twin)
        with np.load(twin) as archive:
            arrays = {k: archive[k] for k in archive.files}
        for k in params:
            arrays[k] = arrays[k].astype(np.float64)
        old = tmp_path / "old.npz"
        np.savez(old, **arrays)

        a, b = load_checkpoint(twin), load_checkpoint(old)
        for k in params:
            assert b.params[k].dtype == COMPUTE_DTYPE, k
            assert np.array_equal(b.params[k], a.params[k]), k
        batch = tiny_batch(rng)
        intents_a, pieces_a, _ = predict_batch(a.params, a.config, batch)
        intents_b, pieces_b, _ = predict_batch(b.params, b.config, batch)
        assert np.array_equal(intents_a, intents_b)
        for x, y in zip(pieces_a, pieces_b):
            assert np.array_equal(x, y)

    def test_reserved_name_collision_rejected(self, rng):
        cfg = tiny_config()
        params = init_model_params(cfg, rng)
        params["archive_meta"] = np.zeros(1)
        with pytest.raises(ValueError, match="unexpected tensor 'archive_meta'"):
            tiny_checkpoint(params, cfg)

    @pytest.mark.parametrize("case", BAD_PARAMS)
    def test_construction_refuses_what_load_refuses(self, rng, case):
        edit, text = BAD_PARAMS[case]
        cfg = tiny_config(slot_mode="crf")
        params = init_model_params(cfg, rng)
        edit(params)
        with pytest.raises(ValueError) as err:
            tiny_checkpoint(params, cfg)
        assert str(err.value) == text

    def test_vocabulary_size_disagrees_with_config(self, rng):
        cfg = tiny_config()
        ckpt = tiny_checkpoint(init_model_params(cfg, rng), cfg)
        with pytest.raises(ValueError) as err:
            replace(ckpt, slot_vocab=SlotVocab(("O", "X", "B-a")))
        assert str(err.value) == (
            f"metadata 'slot_tags' holds 3 entries, the config says {N_SLOTS}"
        )

    def test_save_refuses_params_edited_after_construction(self, rng, tmp_path):
        cfg = tiny_config()
        ckpt = tiny_checkpoint(init_model_params(cfg, rng), cfg)
        ckpt.params["b_s"][0] = np.nan
        with pytest.raises(ValueError, match="tensor 'b_s' has non-finite values"):
            save_checkpoint(ckpt, tmp_path / "m.npz")
        assert list(tmp_path.iterdir()) == []  # no file and no stage

    def test_float64_tensors_become_their_float32_twin(self, rng):
        cfg = tiny_config(slot_mode="crf")
        params = init_model_params(cfg, rng)
        twin_params = {k: v.astype(COMPUTE_DTYPE) for k, v in params.items()}
        ckpt = tiny_checkpoint(params, cfg)
        twin = tiny_checkpoint(twin_params, cfg)
        for k in params:
            assert ckpt.params[k].dtype == COMPUTE_DTYPE, k
            assert np.array_equal(ckpt.params[k], twin.params[k]), k
            # a float32 tensor is kept, so live views stay live
            assert twin.params[k] is twin_params[k], k
        batch = tiny_batch(rng)
        for a, b in zip(predict_batch(ckpt.params, cfg, batch),
                        predict_batch(twin.params, cfg, batch)):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))

    @given(
        slot_mode=st.sampled_from(SLOT_MODES),
        slot_features=st.booleans(),
        intent_pool=st.sampled_from(POOL_MODES),
        dtype=st.sampled_from([np.float32, np.float64]),
        scale=st.sampled_from([0.02, 1e30, 1e39, np.inf, np.nan]),
        seed=st.integers(0, 3),
    )
    def test_every_checkpoint_round_trips(self, archive, slot_mode,
                                          slot_features, intent_pool, dtype,
                                          scale, seed):
        cfg = tiny_config(slot_mode=slot_mode, slot_features=slot_features,
                          intent_pool=intent_pool)
        rng = np.random.default_rng(seed)
        with np.errstate(over="ignore", invalid="ignore"):
            params = {k: (v * scale).astype(dtype) for k, v in
                      init_model_params(cfg, rng, 1.0).items()}
        try:
            ckpt = tiny_checkpoint(params, cfg)
        except ValueError:
            return
        path = archive[1]
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert (loaded.config, loaded.intent_vocab, loaded.slot_vocab,
                loaded.piece_vocab, loaded.featurizer) == (
            ckpt.config, ckpt.intent_vocab, ckpt.slot_vocab, ckpt.piece_vocab,
            ckpt.featurizer)
        assert loaded.params.keys() == ckpt.params.keys()
        for k, v in ckpt.params.items():
            assert loaded.params[k].dtype == v.dtype == COMPUTE_DTYPE, k
            assert loaded.params[k].tobytes() == v.tobytes(), k

    @given(st.data())
    def test_damaged_archive_loads_or_is_refused(self, archive, data):
        """A flipped byte or a cut anywhere in the file either leaves a
        loadable model or raises ValueError/OSError, never anything else."""
        raw, path = bytearray(archive[0]), archive[1]
        at = data.draw(st.integers(0, len(raw) - 1), label="offset")
        if data.draw(st.booleans(), label="flip"):
            raw[at] ^= data.draw(st.integers(1, 255), label="mask")
        else:
            del raw[at:]
        path.write_bytes(raw)
        try:
            assert isinstance(load_checkpoint(path), Checkpoint)
        except (ValueError, OSError):
            pass
