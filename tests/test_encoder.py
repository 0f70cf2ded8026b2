"""Encoder forward/backward, padding isolation, and the numerics helpers."""

from dataclasses import asdict

import numpy as np
import pytest
from scipy.special import logsumexp

from jointnlu.encoder import EncoderConfig, encode, encode_backward
from jointnlu.numerics import (
    apply_mask,
    dropout_mask,
    gelu,
    gelu_grad,
    layer_norm,
    layer_norm_backward,
    log_softmax,
    stable_softmax,
)

from heads import part_params
from oracles import finite_difference, relative_gradient_error


SMALL = EncoderConfig(vocab_size=11, d_h=8, n_layers=2, n_heads=2, d_ff=16, max_len=12)


def small_batch(rng):
    ids = rng.integers(4, SMALL.vocab_size, size=(2, 6))
    pad = np.ones((2, 6), dtype=bool)
    ids[0, 4:] = 0
    pad[0, 4:] = False
    return ids, pad


class TestNumerics:
    def test_softmax_rows_are_distributions(self, rng):
        probs = stable_softmax(rng.normal(size=(5, 7)))
        assert np.allclose(probs.sum(axis=-1), 1.0)
        assert (probs >= 0).all()

    def test_softmax_handles_minus_inf(self):
        scores = np.array([0.0, -np.inf, 1.0])
        probs = stable_softmax(scores)
        assert probs[1] == 0.0
        assert np.isclose(probs.sum(), 1.0)

    def test_log_softmax_matches_log_of_softmax(self, rng):
        scores = rng.normal(size=(4, 6)) * 30
        assert np.allclose(log_softmax(scores), np.log(stable_softmax(scores)))

    def test_logsumexp_identity(self, rng):
        scores = rng.normal(size=9)
        assert np.isclose(logsumexp(scores), np.log(np.exp(scores).sum()))

    def test_gelu_endpoints(self):
        assert gelu(np.array(0.0)) == 0.0
        assert np.isclose(gelu(np.array(10.0)), 10.0)
        assert np.isclose(gelu(np.array(-10.0)), 0.0, atol=1e-12)

    def test_gelu_grad_matches_fd(self, rng):
        x = rng.normal(size=50) * 2
        step = 1e-6
        fd = (gelu(x + step) - gelu(x - step)) / (2 * step)
        assert relative_gradient_error(gelu_grad(x), fd).max() < 1e-6

    def test_layer_norm_statistics(self, rng):
        x = rng.normal(size=(3, 4, 10)) * 5 + 2
        y, _ = layer_norm(x, np.ones(10), np.zeros(10))
        assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-9)
        assert np.allclose(y.var(axis=-1), 1.0, atol=1e-6)

    def test_layer_norm_backward_matches_fd(self, rng):
        params = {
            "x": rng.normal(size=(2, 3, 6)),
            "g": rng.normal(size=6),
            "b": rng.normal(size=6),
        }
        probe = rng.normal(size=(2, 3, 6))
        y, cache = layer_norm(params["x"], params["g"], params["b"])
        d_x, d_g, d_b = layer_norm_backward(probe, cache)
        analytic = {"x": d_x, "g": d_g, "b": d_b}

        def loss(_parms=None):
            out, _ = layer_norm(params["x"], params["g"], params["b"])
            return float(np.sum(out * probe))

        for name in params:
            coords, fd = finite_difference(loss, params, name, step=1e-6)
            err = relative_gradient_error(analytic[name].reshape(-1)[coords], fd)
            assert err.max() < 1e-5, name

    def test_dropout_mask_values_and_scaling(self, rng):
        mask = dropout_mask(rng, (1000,), 0.25)
        assert set(np.unique(mask)) <= {0.0, 1.0 / 0.75}
        assert abs((mask > 0).mean() - 0.75) < 0.05

    def test_dropout_inactive_cases(self, rng):
        assert dropout_mask(rng, (4,), 0.0) is None
        assert dropout_mask(None, (4,), 0.5) is None
        x = np.arange(4.0)
        assert apply_mask(x, None) is x

    def test_dropout_rate_bounds(self, rng):
        with pytest.raises(ValueError):
            dropout_mask(rng, (4,), 1.0)
        with pytest.raises(ValueError):
            dropout_mask(rng, (4,), -0.1)


class TestEncoderConfig:
    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=10, d_h=10, n_heads=4)

    def test_positive_dims_enforced(self):
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=0)

    def test_dict_round_trip(self):
        assert EncoderConfig.from_dict(asdict(SMALL)) == SMALL


class TestEncodeForward:
    def test_output_shape_and_padded_rows_zero(self, rng):
        params = part_params(rng, "enc.", encoder=SMALL)
        ids, pad = small_batch(rng)
        out, _ = encode(ids, pad, params, SMALL)
        assert out.shape == (2, 6, SMALL.d_h)
        assert out.dtype == np.float64
        assert np.array_equal(out[0, 4:], np.zeros((2, SMALL.d_h)))

    def test_deterministic_without_dropout(self, rng):
        params = part_params(rng, "enc.", encoder=SMALL)
        ids, pad = small_batch(rng)
        assert np.array_equal(
            encode(ids, pad, params, SMALL)[0], encode(ids, pad, params, SMALL)[0]
        )

    def test_real_rows_have_sqrt_dh_norm_at_init(self):
        # the final layer norm (unit gain, zero bias) pins every real row's
        # norm to sqrt(d_h), for any preceding weights
        for seed in range(100):
            rng = np.random.default_rng(seed)
            params = part_params(rng, "enc.", encoder=SMALL)
            ids, pad = small_batch(rng)
            out, _ = encode(ids, pad, params, SMALL)
            norms = np.linalg.norm(out[pad], axis=-1)
            assert np.allclose(norms, np.sqrt(SMALL.d_h), atol=1e-6)

    def test_padding_content_cannot_leak(self, rng):
        params = part_params(rng, "enc.", encoder=SMALL)
        ids, pad = small_batch(rng)
        ids2 = ids.copy()
        ids2[0, 4:] = 7  # rewrite padded slots with arbitrary real ids
        assert np.array_equal(
            encode(ids, pad, params, SMALL)[0], encode(ids2, pad, params, SMALL)[0]
        )

    def test_attention_rows_are_masked_distributions(self, rng):
        params = part_params(rng, "enc.", encoder=SMALL)
        ids, pad = small_batch(rng)
        _, cache = encode(ids, pad, params, SMALL)
        for lc in cache["layers"]:
            probs = lc["probs"]
            assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-12)
            assert (probs >= 0).all()
            assert np.array_equal(
                probs[0, :, :, 4:], np.zeros_like(probs[0, :, :, 4:])
            )

    def test_input_validation(self, rng):
        params = part_params(rng, "enc.", encoder=SMALL)
        ids, pad = small_batch(rng)
        with pytest.raises(ValueError):
            encode(ids[:, :5], pad, params, SMALL)
        with pytest.raises(ValueError):
            encode(np.full((1, 13), 4), np.ones((1, 13), bool), params, SMALL)
        with pytest.raises(ValueError):
            encode(np.array([[4, 99]]), np.ones((1, 2), bool), params, SMALL)
        with pytest.raises(ValueError):
            encode(ids, np.zeros_like(pad), params, SMALL)


class TestEncodeBackward:
    def _loss_and_grads(self, rng, dropout_rate=0.0, seed=None):
        params = part_params(rng, "enc.", encoder=SMALL)
        ids, pad = small_batch(rng)
        probe = rng.normal(size=(2, 6, SMALL.d_h))

        def forward():
            drop_rng = None if seed is None else np.random.default_rng(seed)
            return encode(ids, pad, params, SMALL, dropout_rate, drop_rng)[0]

        def loss(_parms=None):
            return float(np.sum(forward() * probe))

        drop_rng = None if seed is None else np.random.default_rng(seed)
        out, cache = encode(ids, pad, params, SMALL, dropout_rate, drop_rng)
        grads = encode_backward(probe, cache, params, SMALL)
        return params, loss, grads

    def test_gradients_match_fd(self, rng):
        for _ in range(2):
            params, loss, grads = self._loss_and_grads(rng)
            for name in params:
                coords, fd = finite_difference(
                    loss, params, name, step=1e-5, max_coords=4, rng=rng
                )
                err = relative_gradient_error(grads[name].reshape(-1)[coords], fd)
                assert err.max() <= 1e-4, f"{name}: {err.max():.2e}"

    def test_gradients_match_fd_with_dropout_replay(self, rng):
        # replaying the dropout rng seed makes the loss deterministic, so
        # the masked path is checkable by finite differences too
        params, loss, grads = self._loss_and_grads(rng, dropout_rate=0.3, seed=99)
        for name in ("enc.l0.Wq", "enc.l1.W2", "enc.tok_emb", "enc.ln_emb.g"):
            coords, fd = finite_difference(
                loss, params, name, step=1e-5, max_coords=4, rng=rng
            )
            err = relative_gradient_error(grads[name].reshape(-1)[coords], fd)
            assert err.max() <= 1e-4, f"{name}: {err.max():.2e}"

    def test_grads_cover_every_parameter(self, rng):
        params, _, grads = self._loss_and_grads(rng)
        assert grads.keys() == params.keys()
        for name in params:
            assert grads[name].shape == params[name].shape

    def test_dropout_changes_output_and_replays(self, rng):
        params = part_params(rng, "enc.", encoder=SMALL)
        ids, pad = small_batch(rng)
        plain, _ = encode(ids, pad, params, SMALL)
        d1, _ = encode(ids, pad, params, SMALL, 0.5, np.random.default_rng(3))
        d2, _ = encode(ids, pad, params, SMALL, 0.5, np.random.default_rng(3))
        assert not np.array_equal(plain, d1)
        assert np.array_equal(d1, d2)
