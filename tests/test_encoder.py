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
    softmax_backward,
    stable_softmax,
)

from heads import part_params
from oracles import (
    encode_padded,
    encode_padded_backward,
    finite_difference,
    gelu_grad_two_erf,
    gelu_two_erf,
    layer_norm_mean,
    layer_norm_mean_backward,
    log_softmax_max_sum,
    pad_rows,
    relative_gradient_error,
    softmax_backward_max_sum,
    stable_softmax_max_sum,
)


SMALL = EncoderConfig(vocab_size=11, d_h=8, n_layers=2, n_heads=2, d_ff=16, max_len=12)


def small_batch(rng):
    """Rows of lengths 4, 6 (full) and 1, with random non-zero ids in the
    padded slots, which nothing may read."""
    ids = rng.integers(1, SMALL.vocab_size, size=(3, 6))
    pad = np.arange(6)[None, :] < np.array([4, 6, 1])[:, None]
    return ids, pad


def ragged_batch(rng, n):
    """A random batch padded to n, with lengths 1 and n among its rows and
    random non-zero ids in the padded slots."""
    b = int(rng.integers(2, 6))
    lengths = rng.integers(1, n + 1, size=b)
    lengths[rng.choice(b, size=2, replace=False)] = (1, n)
    ids = rng.integers(1, SMALL.vocab_size, size=(b, n))
    return ids, np.arange(n)[None, :] < lengths[:, None]


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
        assert gelu(np.array(0.0)) == (0.0, 1.0)
        assert np.isclose(gelu(np.array(10.0))[0], 10.0)
        assert np.isclose(gelu(np.array(-10.0))[0], 0.0, atol=1e-12)

    def test_gelu_grad_matches_fd(self, rng):
        x = rng.normal(size=50) * 2
        step = 1e-6
        fd = (gelu(x + step)[0] - gelu(x - step)[0]) / (2 * step)
        _, one_erf = gelu(x)
        assert relative_gradient_error(gelu_grad(x, one_erf), fd).max() < 1e-6

    def test_gelu_bit_equal_to_two_erf_oracle(self, rng):
        x = rng.normal(size=(32, 20, 128)) * 3
        a, one_erf = gelu(x)
        assert np.array_equal(a, gelu_two_erf(x))
        assert np.array_equal(gelu_grad(x, one_erf), gelu_grad_two_erf(x))

    @pytest.mark.parametrize(
        "shape", [(20, 64), (32, 20, 64), (450, 64), (1, 7, 64), (3, 5, 11)]
    )
    def test_layer_norm_bit_equal_to_mean_oracle(self, rng, shape):
        x = rng.normal(size=shape) * 3 + 1
        g, b = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
        d_y = rng.normal(size=shape)
        y, cache = layer_norm(x, g, b)
        y_ref, cache_ref = layer_norm_mean(x, g, b)
        assert np.array_equal(y, y_ref)
        for got, want in zip(layer_norm_backward(d_y, cache),
                             layer_norm_mean_backward(d_y, cache_ref)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "shape", [(20, 64), (2, 4, 13, 13), (1, 23), (7, 1), (3, 5, 11)]
    )
    @pytest.mark.parametrize("axis", [-1, 0])
    def test_softmaxes_bit_equal_to_max_sum_oracles(self, rng, shape, axis):
        scores = rng.normal(size=shape) * 4
        scores[rng.random(shape) < 0.2] = -np.inf  # masked entries
        scores[..., 0] = rng.normal(size=shape[:-1])  # one finite per row
        if axis == 0:
            scores = np.where(np.isinf(scores), 0.0, scores)
        d = rng.normal(size=shape)
        probs = stable_softmax(scores, axis=axis)
        assert np.array_equal(probs, stable_softmax_max_sum(scores, axis))
        assert np.array_equal(log_softmax(scores, axis=axis),
                              log_softmax_max_sum(scores, axis))
        assert np.array_equal(softmax_backward(d, probs, axis=axis),
                              softmax_backward_max_sum(d, probs, axis))

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
        mask = dropout_mask(rng, (1000,), 0.25, np.float64)
        assert set(np.unique(mask)) <= {0.0, 1.0 / 0.75}
        assert abs((mask > 0).mean() - 0.75) < 0.05

    def test_dropout_mask_has_the_requested_dtype(self):
        # the draws do not depend on the dtype
        masks = [dropout_mask(np.random.default_rng(1), (50,), 0.25, dtype)
                 for dtype in (np.float32, np.float64)]
        assert [m.dtype for m in masks] == [np.float32, np.float64]
        assert np.array_equal(masks[0] > 0, masks[1] > 0)
        assert np.all(masks[0][masks[0] > 0] == np.float32(1.0) / np.float32(0.75))

    def test_dropout_inactive_cases(self, rng):
        assert dropout_mask(rng, (4,), 0.0, np.float64) is None
        assert dropout_mask(None, (4,), 0.5, np.float64) is None
        x = np.arange(4.0)
        assert apply_mask(x, None) is x

    def test_dropout_rate_bounds(self, rng):
        with pytest.raises(ValueError):
            dropout_mask(rng, (4,), 1.0, np.float64)
        with pytest.raises(ValueError):
            dropout_mask(rng, (4,), -0.1, np.float64)


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
    def test_output_is_one_row_per_real_piece(self, rng):
        params = part_params(rng, "enc.", encoder=SMALL)
        ids, pad = small_batch(rng)
        out, _ = encode(ids, pad, params, SMALL)
        assert out.shape == (4 + 6 + 1, SMALL.d_h)
        assert out.dtype == np.float64

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
            norms = np.linalg.norm(out, axis=-1)
            assert np.allclose(norms, np.sqrt(SMALL.d_h), atol=1e-6)

    def test_padding_content_cannot_leak(self, rng):
        params = part_params(rng, "enc.", encoder=SMALL)
        ids, pad = small_batch(rng)
        ids2 = ids.copy()
        # a different real id in every padded slot
        ids2[~pad] = ids[~pad] % (SMALL.vocab_size - 1) + 1
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
            padded_keys = probs * ~pad[:, None, None, :]
            assert np.array_equal(padded_keys, np.zeros_like(probs))

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
        probe = rng.normal(size=(int(pad.sum()), SMALL.d_h))

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


class TestPackedMatchesPaddedOracle:
    """The packed encoder against the padded one in tests/oracles.py, which
    runs every dense layer over padding too."""

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_forward_and_gradients_match(self, rng, rate):
        for trial in range(6):
            n = int(rng.integers(2, SMALL.max_len + 1))
            params = part_params(rng, "enc.", encoder=SMALL)
            ids, pad = ragged_batch(rng, n)
            d_out = rng.normal(size=(int(pad.sum()), SMALL.d_h))
            rng_packed = np.random.default_rng(trial)
            rng_padded = np.random.default_rng(trial)

            out, cache = encode(ids, pad, params, SMALL, rate, rng_packed)
            ref, ref_cache = encode_padded(ids, pad, params, SMALL, rate, rng_padded)
            assert rng_packed.bit_generator.state == rng_padded.bit_generator.state
            assert np.abs(out - ref[pad]).max() <= 1e-12
            real_queries = pad[:, None, :, None]
            for lc, ref_lc in zip(cache["layers"], ref_cache["layers"]):
                diff = np.abs(lc["probs"] - ref_lc["probs"]) * real_queries
                assert diff.max() <= 1e-12

            grads = encode_backward(d_out, cache, params, SMALL)
            ref_grads = encode_padded_backward(
                pad_rows(d_out, pad), ref_cache, params, SMALL
            )
            assert grads.keys() == ref_grads.keys() == params.keys()
            for name in params:
                err = np.abs(grads[name] - ref_grads[name]).max()
                assert err <= 1e-12, f"{name}: {err:.2e}"

    def test_unpadded_batch_matches(self, rng):
        params = part_params(rng, "enc.", encoder=SMALL)
        ids = rng.integers(1, SMALL.vocab_size, size=(1, 7))
        pad = np.ones((1, 7), dtype=bool)
        out, _ = encode(ids, pad, params, SMALL)
        ref, _ = encode_padded(ids, pad, params, SMALL)
        assert np.abs(out - ref[0]).max() <= 1e-12
