"""Slot fusion head: block structure, widths, and gradient flow-through."""

import numpy as np
import pytest

from jointnlu.encoder import EncoderConfig
from jointnlu.model import ModelConfig, param_spec
from jointnlu.numerics import stable_softmax
from jointnlu.slot_head import slot_backward, slot_forward

from heads import part_params
from oracles import finite_difference, relative_gradient_error, slot_logits


N_INT, N_SLOTS, D_H, F_DIM = 4, 6, 8, 32


def random_inputs(rng, features=True):
    """Two sequences of 5 and 3 pieces: intent logits, packed feature and
    hidden rows, and the lengths."""
    lengths = np.array([5, 3])
    y_int = rng.normal(size=(2, N_INT))
    f_words = rng.normal(size=(8, F_DIM)) if features else None
    H = rng.normal(size=(8, D_H))
    return y_int, f_words, H, lengths


def slot_params(rng, n_slots, n_intents, d_h, features):
    """W_s and b_s of the fused slot projection."""
    params = part_params(rng, "", d_h=d_h, n_intents=n_intents,
                         n_slots=n_slots, slot_features=features)
    return {"W_s": params["W_s"], "b_s": params["b_s"]}


def one_position(y_int, f, h, W_s, b_s):
    """slot_forward on a batch of one sequence of one position."""
    f_words = None if f is None else f[None, :]
    params = {"W_s": W_s, "b_s": b_s}
    return slot_forward(y_int[None, :], f_words, h[None, :], [1], params)[0][0]


def fused_width(n_intents, d_h, features):
    cfg = ModelConfig(
        encoder=EncoderConfig(vocab_size=4, d_h=d_h, n_heads=1),
        n_intents=n_intents, n_slots=N_SLOTS, slot_features=features,
    )
    shapes = {row.name: row.shape for row in param_spec(cfg)}
    return shapes["W_s"][1]


class TestSlotLogits:
    def test_zero_matrix_gives_bias(self, rng):
        b_s = rng.normal(size=N_SLOTS)
        width = fused_width(N_INT, D_H, True)
        out = one_position(
            rng.normal(size=N_INT), rng.normal(size=F_DIM),
            rng.normal(size=D_H), np.zeros((N_SLOTS, width)), b_s,
        )
        assert np.allclose(out, b_s)

    def test_fusion_width_for_published_sizes(self):
        assert fused_width(21, 64, True) == 21 + 32 + 64 == 117
        assert fused_width(21, 64, False) == 21 + 64

    def test_three_block_decomposition(self, rng):
        width = fused_width(N_INT, D_H, True)
        W_s = rng.normal(size=(N_SLOTS, width))
        b_s = rng.normal(size=N_SLOTS)
        A, B, C = W_s[:, :N_INT], W_s[:, N_INT:N_INT + F_DIM], W_s[:, N_INT + F_DIM:]
        y_int = rng.normal(size=N_INT)
        f = rng.normal(size=F_DIM)
        h = rng.normal(size=D_H)
        fused = one_position(y_int, f, h, W_s, b_s)
        direct = A @ stable_softmax(y_int) + B @ f + C @ h + b_s
        assert np.allclose(fused, direct)

    def test_affine_in_each_block(self, rng):
        width = fused_width(N_INT, D_H, True)
        W_s = rng.normal(size=(N_SLOTS, width))
        b_s = rng.normal(size=N_SLOTS)
        y_int = rng.normal(size=N_INT)
        f1, f2 = rng.normal(size=F_DIM), rng.normal(size=F_DIM)
        h = rng.normal(size=D_H)

        def g(f):
            return one_position(y_int, f, h, W_s, b_s)

        assert np.allclose(g(f1) + g(f2) - g(np.zeros(F_DIM)), g(f1 + f2))

    def test_width_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            one_position(
                rng.normal(size=N_INT), rng.normal(size=F_DIM),
                rng.normal(size=D_H), np.zeros((N_SLOTS, 10)), np.zeros(N_SLOTS),
            )


class TestSlotForward:
    def test_batch_matches_single_position(self, rng):
        y_int, f_words, H, lengths = random_inputs(rng)
        params = slot_params(rng, N_SLOTS, N_INT, D_H, True)
        out, _ = slot_forward(y_int, f_words, H, lengths, params)
        seq_of_row = np.repeat(np.arange(len(lengths)), lengths)
        for t, b in enumerate(seq_of_row):
            direct = slot_logits(
                y_int[b], f_words[t], H[t], params["W_s"], params["b_s"]
            )
            assert np.allclose(out[t], direct)

    def test_feature_free_variant_narrows_input(self, rng):
        y_int, _, H, lengths = random_inputs(rng, features=False)
        params = slot_params(rng, N_SLOTS, N_INT, D_H, False)
        assert params["W_s"].shape == (N_SLOTS, N_INT + D_H)
        out, _ = slot_forward(y_int, None, H, lengths, params)
        assert out.shape == (8, N_SLOTS)

    def test_wrong_feature_shape_rejected(self, rng):
        y_int, f_words, H, lengths = random_inputs(rng)
        params = slot_params(rng, N_SLOTS, N_INT, D_H, True)
        with pytest.raises(ValueError):
            slot_forward(y_int, f_words[:3], H, lengths, params)
        with pytest.raises(ValueError):
            slot_forward(y_int, f_words, H, lengths[:1], params)

    def test_dropout_replays_under_same_seed(self, rng):
        y_int, f_words, H, lengths = random_inputs(rng)
        params = slot_params(rng, N_SLOTS, N_INT, D_H, True)
        a, _ = slot_forward(
            y_int, f_words, H, lengths, params, 0.4, np.random.default_rng(11)
        )
        b, _ = slot_forward(
            y_int, f_words, H, lengths, params, 0.4, np.random.default_rng(11)
        )
        plain, _ = slot_forward(y_int, f_words, H, lengths, params)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, plain)


class TestSlotBackward:
    @pytest.mark.parametrize("features", [True, False])
    def test_gradients_match_fd(self, rng, features):
        y_int, f_words, H, lengths = random_inputs(rng, features=features)
        params = slot_params(rng, N_SLOTS, N_INT, D_H, features)
        params["W_s"] += rng.normal(scale=0.3, size=params["W_s"].shape)
        probe = rng.normal(size=(8, N_SLOTS))

        out, cache = slot_forward(y_int, f_words, H, lengths, params)
        d_y, d_f, d_H, grads = slot_backward(probe, cache, params)

        holders = {"y_int": y_int, "H": H, **params}
        analytic = {"y_int": d_y, "H": d_H, **grads}
        if features:
            holders["f_words"] = f_words
            analytic["f_words"] = d_f
        else:
            assert d_f is None

        def loss(_parms=None):
            got, _ = slot_forward(
                holders["y_int"], holders.get("f_words"), holders["H"], lengths,
                holders,
            )
            return float(np.sum(got * probe))

        for name in holders:
            coords, fd = finite_difference(
                loss, holders, name, step=1e-5, max_coords=10, rng=rng
            )
            err = relative_gradient_error(analytic[name].reshape(-1)[coords], fd)
            assert err.max() <= 1e-4, f"features={features} {name}: {err.max():.2e}"

    def test_intent_gradient_flows_through_softmax(self, rng):
        # the intent block must receive gradient from the slot path
        y_int, f_words, H, lengths = random_inputs(rng)
        params = slot_params(rng, N_SLOTS, N_INT, D_H, True)
        probe = rng.normal(size=(8, N_SLOTS))
        _, cache = slot_forward(y_int, f_words, H, lengths, params)
        d_y, _, _, _ = slot_backward(probe, cache, params)
        assert d_y.shape == y_int.shape
        assert np.abs(d_y).max() > 0
        # softmax jacobian rows are orthogonal to constants
        assert np.allclose(d_y.sum(axis=-1), 0.0, atol=1e-12)

    def test_gradients_with_dropout_replay(self, rng):
        y_int, f_words, H, lengths = random_inputs(rng)
        params = slot_params(rng, N_SLOTS, N_INT, D_H, True)
        probe = rng.normal(size=(8, N_SLOTS))

        _, cache = slot_forward(
            y_int, f_words, H, lengths, params, 0.3, np.random.default_rng(21)
        )
        _, _, _, grads = slot_backward(probe, cache, params)

        def loss(_parms=None):
            got, _ = slot_forward(
                y_int, f_words, H, lengths, params, 0.3, np.random.default_rng(21)
            )
            return float(np.sum(got * probe))

        for name in params:
            coords, fd = finite_difference(
                loss, params, name, step=1e-5, max_coords=8, rng=rng
            )
            err = relative_gradient_error(grads[name].reshape(-1)[coords], fd)
            assert err.max() <= 1e-4, f"{name}: {err.max():.2e}"
