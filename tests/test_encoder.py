"""Encoder forward/backward, padding isolation, and the numerics helpers."""

import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf, logsumexp

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
    gelu_grad_tanh,
    gelu_tanh,
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


class TestGelu:
    """GELU is the tanh form at every dtype and size. Its float64 closed
    form is the oracle of the float32 values and gradients."""

    C, A = np.sqrt(2.0 / np.pi), 0.044715
    EPS = float(np.finfo(np.float32).eps)

    def grid(self):
        return np.linspace(-8.0, 8.0, 160_001, dtype=np.float32)

    def closed_form(self, x):
        t = np.tanh(self.C * (x + self.A * x ** 3))
        grad = 0.5 * (1 + t) + 0.5 * x * (1 - t * t) * self.C * (1 + 3 * self.A * x * x)
        return 0.5 * x * (1 + t), grad

    def test_float32_within_bound_of_float64_closed_form(self):
        x = self.grid()
        a, t = gelu(x)
        want, want_grad = self.closed_form(x.astype(np.float64))
        # two rounding steps of the value's scale
        assert (np.abs(a - want) / np.maximum(1.0, np.abs(x))).max() <= 2 * self.EPS
        # 1 - t*t cancels where t is near +-1
        assert np.abs(gelu_grad(x, t) - want_grad).max() <= 16 * self.EPS

    def test_within_4_8e_4_of_erf_gelu(self):
        x = self.grid()
        exact = 0.5 * x * (1.0 + erf(x.astype(np.float64) / np.sqrt(2.0)))
        for dtype in (np.float32, np.float64):
            a, _ = gelu(x.astype(dtype))
            assert np.abs(a - exact).max() <= 4.8e-4

    def test_float32_zero_is_exact(self):
        for x in (np.float32(0.0), np.zeros((13, 128), np.float32)):
            a, t = gelu(x)
            assert np.all(a == 0.0) and np.all(t == 0.0)
            assert np.all(gelu_grad(x, t) == 0.5)

    def test_training_imports_no_scipy_special(self):
        code = "import sys, jointnlu.training; assert 'scipy.special' not in sys.modules"
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(), (7, 128), (284, 128)])
    def test_dtype_kept(self, rng, dtype, shape):
        x = (rng.normal(size=shape) * 3).astype(dtype)
        a, t = gelu(x)
        assert a.dtype == t.dtype == gelu_grad(x, t).dtype == dtype


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
        assert gelu(np.array(0.0)) == (0.0, 0.0)
        assert np.isclose(gelu(np.array(10.0))[0], 10.0)
        assert np.isclose(gelu(np.array(-10.0))[0], 0.0, atol=1e-12)

    def test_gelu_grad_matches_fd(self, rng):
        x = rng.normal(size=50) * 2
        step = 1e-6
        fd = (gelu(x + step)[0] - gelu(x - step)[0]) / (2 * step)
        _, t = gelu(x)
        assert relative_gradient_error(gelu_grad(x, t), fd).max() < 1e-6

    def test_gelu_bit_equal_to_tanh_oracle(self, rng):
        x = rng.normal(size=(32, 20, 128)) * 3
        a, t = gelu(x)
        assert np.array_equal(a, gelu_tanh(x))
        assert np.array_equal(gelu_grad(x, t), gelu_grad_tanh(x))

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
        self.check_softmaxes_against_oracles(rng, shape, axis, np.float64)

    # the attention blocks of batch-64 serving, a training step and a
    # batch-1 request
    @pytest.mark.parametrize("shape", [(64, 4, 14, 14), (32, 4, 12, 12), (1, 4, 7, 7)])
    @pytest.mark.parametrize("axis", [-1, 0])
    def test_float32_softmaxes_bit_equal_to_max_sum_oracles(self, rng, shape, axis):
        self.check_softmaxes_against_oracles(rng, shape, axis, np.float32)

    @staticmethod
    def check_softmaxes_against_oracles(rng, shape, axis, dtype):
        scores = rng.normal(size=shape) * 4
        scores[rng.random(shape) < 0.2] = -np.inf  # masked entries
        scores[..., 0] = rng.normal(size=shape[:-1])  # one finite per row
        if axis == 0:
            scores = np.where(np.isinf(scores), 0.0, scores)
        scores = scores.astype(dtype)
        d = rng.normal(size=shape).astype(dtype)
        probs = stable_softmax(scores, axis=axis)
        assert probs.dtype == dtype
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

    def test_float32_layer_norm_degenerate_rows(self, rng):
        d = 64
        g = rng.normal(size=d).astype(np.float32)
        b = rng.normal(size=d).astype(np.float32)
        # Constant rows whose mean float32 computes exactly, constant rows
        # whose mean it rounds, and rows of variance ~1e-8.
        exact = np.float32([0.0, 1.0, -2.5, 3.0])
        rounded = rng.normal(size=50).astype(np.float32) * 3
        x = np.concatenate([
            np.repeat(exact[:, None], d, axis=1),
            np.repeat(rounded[:, None], d, axis=1),
            1.0 + 1e-4 * rng.normal(size=(8, d)),
        ]).astype(np.float32)
        y, cache = layer_norm(x, g, b)
        xhat = cache[0]
        assert y.dtype == np.float32
        assert np.isfinite(y).all() and np.isfinite(cache[1]).all()
        k, m = len(exact), len(exact) + len(rounded)
        assert np.all(xhat[:k] == 0.0)
        assert np.array_equal(y[:k], np.broadcast_to(b, (k, d)))
        # A rounded mean leaves one offset in every entry of the row, and
        # LN_EPS (1e-12, BERT's) is too small to damp it: it normalizes to
        # |xhat| < 1, not to 0.
        assert np.all(xhat[k:m] == xhat[k:m, :1])
        assert np.abs(xhat[k:m]).max() < 1.0
        assert np.allclose(xhat[m:].var(axis=-1), 1.0, atol=1e-2)
        d_y = rng.normal(size=x.shape).astype(np.float32)
        for grad in layer_norm_backward(d_y, cache):
            assert grad.dtype == np.float32 and np.isfinite(grad).all()

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
        for attn, _ in cache["layers"]:
            probs = attn["probs"]
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
        # the masked path is checkable by finite differences too; the probes
        # sit behind every masked residual of both layers
        params, loss, grads = self._loss_and_grads(rng, dropout_rate=0.3, seed=99)
        for name in ("enc.l0.Wq", "enc.l0.Wo", "enc.l0.ln1.g", "enc.l1.W1",
                     "enc.l1.W2", "enc.l1.ln2.b", "enc.tok_emb", "enc.ln_emb.g"):
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
            for (attn, _), ref_lc in zip(cache["layers"], ref_cache["layers"]):
                diff = np.abs(attn["probs"] - ref_lc["probs"]) * real_queries
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
