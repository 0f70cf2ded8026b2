"""Pooling attention, pooled classification, and their gradients."""

import numpy as np
import pytest

from jointnlu.intent_head import attention_weights, intent_backward, intent_forward
from jointnlu.numerics import log_softmax

from heads import part_params
from oracles import finite_difference, relative_gradient_error


D_H = 8
N_INTENTS = 4


def intent_params(rng, mode="attention"):
    return part_params(rng, "int.", d_h=D_H, n_intents=N_INTENTS,
                       intent_pool=mode)


def pooled(H, lengths, rng):
    """Pooling weights and pooled vector of the attention head."""
    _, alpha, cache = intent_forward(H, lengths, intent_params(rng))
    return alpha, cache["h_int"]


def random_states(rng, b=3, n=6, d=D_H):
    """Packed hidden states of b sequences, the first of length 4 and the
    rest of length n, and their lengths."""
    lengths = np.full(b, n)
    lengths[0] = 4
    return rng.normal(size=(int(lengths.sum()), d)), lengths


def segment_starts(lengths):
    return np.cumsum(lengths) - lengths


class TestAttentionLogits:
    def test_zero_matrix_gives_zero_scores(self, rng):
        H, lengths = random_states(rng)
        params = intent_params(rng)
        params["int.W_score"] = np.zeros((D_H, D_H))
        _, alpha, _ = intent_forward(H, lengths, params)
        assert np.allclose(alpha, np.repeat(1.0 / lengths, lengths))

    def test_single_position(self, rng):
        H = rng.normal(size=(1, D_H))
        y, alpha, _ = intent_forward(H, [1], intent_params(rng))
        assert y.shape == (1, N_INTENTS)
        assert np.array_equal(alpha, [1.0])

    def test_matches_per_position_evaluation(self, rng):
        H, lengths = random_states(rng)
        params = intent_params(rng)
        W, v = params["int.W_score"], params["int.v_score"]
        _, alpha, _ = intent_forward(H, lengths, params)
        scores = [v @ np.tanh(W @ H[t]) for t in range(len(H))]
        assert np.allclose(alpha, attention_weights(np.array(scores), lengths, D_H))

    def test_shape_mismatch(self, rng):
        H, lengths = random_states(rng)
        params = intent_params(rng)
        params["int.W_score"] = np.zeros((D_H + 1, D_H + 1))
        params["int.v_score"] = np.zeros(D_H + 1)
        with pytest.raises(ValueError):
            intent_forward(H, lengths, params)


class TestAttentionWeights:
    def test_equal_logits_uniform(self):
        w = attention_weights(np.zeros(4), [4], D_H)
        assert np.allclose(w, 0.25)

    def test_closed_form_two_positions(self):
        logits = np.array([np.sqrt(D_H), 0.0])
        w = attention_weights(logits, [2], D_H)
        e = np.exp(1.0)
        assert np.allclose(w, [e / (1 + e), 1 / (1 + e)])
        assert np.allclose(w, [0.7311, 0.2689], atol=5e-5)

    def test_shift_invariance(self, rng):
        # a different constant on each segment changes nothing
        logits = rng.normal(size=10)
        shifts = np.repeat([3.7, -250.0], 5)
        assert np.allclose(
            attention_weights(logits, [5, 5], D_H),
            attention_weights(logits + shifts, [5, 5], D_H),
        )

    def test_scaling_equivalence(self, rng):
        # temperature form equals plain softmax of pre-divided logits
        from jointnlu.numerics import stable_softmax

        logits = rng.normal(size=(4, 7)) * 5
        assert np.allclose(
            attention_weights(logits.ravel(), [7] * 4, D_H),
            stable_softmax(logits / np.sqrt(D_H)).ravel(),
        )

    def test_each_segment_is_a_simplex(self, rng):
        for _ in range(1000):
            lengths = rng.integers(1, 9, size=int(rng.integers(1, 4)))
            starts = np.cumsum(lengths) - lengths
            alpha = attention_weights(rng.normal(size=lengths.sum()), lengths, D_H)
            assert np.abs(np.add.reduceat(alpha, starts) - 1.0).max() <= 1e-6
            assert (alpha >= 0).all()


class TestPool:
    def test_single_position_is_tanh_of_row(self, rng):
        H = rng.normal(size=(2, D_H))
        alpha, out = pooled(H, [1, 1], rng)
        assert np.array_equal(alpha, np.ones(2))
        assert np.allclose(out, np.tanh(H))

    def test_identical_rows_ignore_weights(self, rng):
        row = rng.normal(size=D_H)
        H = np.tile(row, (5, 1))
        _, out = pooled(H, [5], rng)
        assert np.allclose(out, np.tanh(row))

    def test_matches_direct_weighted_sum(self, rng):
        H, lengths = random_states(rng)
        alpha, out = pooled(H, lengths, rng)
        for b, lo in enumerate(segment_starts(lengths)):
            seg = range(lo, lo + lengths[b])
            direct = np.tanh(sum(alpha[t] * H[t] for t in seg))
            assert np.allclose(out[b], direct)

    def test_output_bounded_by_unit_box(self, rng):
        # tanh saturates to exactly +-1.0 in floats, so the bound is closed
        H, lengths = random_states(rng)
        assert (np.abs(pooled(H * 100, lengths, rng)[1]) <= 1.0).all()
        assert (np.abs(pooled(H, lengths, rng)[1]) < 1.0).all()

    def test_weight_shape_enforced(self, rng):
        H, _ = random_states(rng)
        with pytest.raises(ValueError):
            pooled(H, [7, 7, 7], rng)


def classify(H, lengths, params, W_cls, b_cls):
    """intent_forward's logits with the given classifier tensors."""
    return intent_forward(
        H, lengths, {**params, "int.W_cls": W_cls, "int.b_cls": b_cls}
    )[0]


class TestIntentLogits:
    def test_zero_matrix_gives_bias(self, rng):
        H, lengths = random_states(rng)
        b_cls = rng.normal(size=N_INTENTS)
        y = classify(H, lengths, intent_params(rng),
                     np.zeros((N_INTENTS, D_H)), b_cls)
        assert np.allclose(y, b_cls)

    def test_linear_in_matrix(self, rng):
        H, lengths = random_states(rng)
        params = intent_params(rng)
        W = rng.normal(size=(N_INTENTS, D_H))
        b = rng.normal(size=N_INTENTS)
        assert np.allclose(
            classify(H, lengths, params, 2 * W, b) - b,
            2 * (classify(H, lengths, params, W, b) - b),
        )

    def test_argmax_invariant_to_constant_bias_shift(self, rng):
        H, lengths = random_states(rng, b=5)
        params = intent_params(rng)
        W = rng.normal(size=(N_INTENTS, D_H))
        b = rng.normal(size=N_INTENTS)
        base = classify(H, lengths, params, W, b).argmax(axis=-1)
        shifted = classify(H, lengths, params, W, b + 11.0).argmax(axis=-1)
        assert np.array_equal(base, shifted)


def _ce(y, targets):
    return float(-log_softmax(y)[np.arange(len(targets)), targets].mean())


def _ce_grad(y, targets):
    from jointnlu.numerics import stable_softmax

    g = stable_softmax(y)
    g[np.arange(len(targets)), targets] -= 1.0
    return g / len(targets)


class TestForwardBackward:
    @pytest.mark.parametrize("mode", ["attention", "start_token"])
    def test_gradients_match_fd(self, rng, mode):
        H, lengths = random_states(rng)
        params = intent_params(rng, mode)
        for p in params.values():  # larger weights make the check non-trivial
            p += rng.normal(scale=0.3, size=p.shape)
        targets = rng.integers(0, N_INTENTS, size=len(lengths))

        y, _, cache = intent_forward(H, lengths, params, mode)
        d_H, grads = intent_backward(_ce_grad(y, targets), cache, params)

        holders = dict(params)
        holders["H"] = H

        def loss(_parms=None):
            out, _, _ = intent_forward(holders["H"], lengths, params, mode)
            return _ce(out, targets)

        analytic = dict(grads)
        analytic["H"] = d_H
        for name in holders:
            coords, fd = finite_difference(
                loss, holders, name, step=1e-5, max_coords=10, rng=rng
            )
            err = relative_gradient_error(analytic[name].reshape(-1)[coords], fd)
            assert err.max() <= 1e-4, f"{mode}/{name}: {err.max():.2e}"

    def test_gradients_with_dropout_replay(self, rng):
        H, lengths = random_states(rng)
        params = intent_params(rng)
        targets = rng.integers(0, N_INTENTS, size=len(lengths))

        y, _, cache = intent_forward(
            H, lengths, params, dropout_rate=0.3, rng=np.random.default_rng(5),
        )
        _, grads = intent_backward(_ce_grad(y, targets), cache, params)

        def loss(_parms=None):
            out, _, _ = intent_forward(
                H, lengths, params, dropout_rate=0.3, rng=np.random.default_rng(5)
            )
            return _ce(out, targets)

        for name in params:
            coords, fd = finite_difference(
                loss, params, name, step=1e-5, max_coords=6, rng=rng
            )
            err = relative_gradient_error(grads[name].reshape(-1)[coords], fd)
            assert err.max() <= 1e-4, f"{name}: {err.max():.2e}"

    def test_boundary_positions_receive_mass(self, rng):
        H, lengths = random_states(rng)
        params = intent_params(rng)
        _, alpha, _ = intent_forward(H, lengths, params)
        starts = segment_starts(lengths)
        assert (alpha[starts] > 0).all()  # every sequence's first piece
        assert (alpha[np.append(starts[1:], len(H)) - 1] > 0).all()  # and last

    def test_pooled_vector_inside_unit_box(self, rng):
        H, lengths = random_states(rng)
        params = intent_params(rng)
        _, _, cache = intent_forward(H, lengths, params)
        assert (np.abs(cache["h_int"]) < 1.0).all()

    def test_start_token_alpha_is_position_zero_indicator(self, rng):
        H, lengths = random_states(rng)
        params = intent_params(rng, "start_token")
        _, alpha, cache = intent_forward(H, lengths, params, "start_token")
        starts = segment_starts(lengths)
        indicator = np.zeros(len(H))
        indicator[starts] = 1.0
        assert np.array_equal(alpha, indicator)
        first = H[starts]
        direct = np.tanh(first @ params["int.W_pool"].T + params["int.b_pool"])
        assert np.allclose(cache["h_int"], direct)

    def test_unknown_mode_rejected(self, rng):
        H, lengths = random_states(rng)
        with pytest.raises(ValueError):
            intent_forward(H, lengths, {}, mode="mean")
