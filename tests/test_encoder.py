"""Encoder forward/backward, padding isolation, and the numerics helpers."""

import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import erf, logsumexp

from jointnlu import numerics
from jointnlu.encoder import EncoderConfig, encode, encode_backward
from jointnlu.model import ModelConfig
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


def small_batch(rng, lengths=(4, 6, 1)):
    """Rows of the given lengths (by default 4, 6 (full) and 1): the packed
    ids, random and non-zero, and the pad mask."""
    pad = np.arange(max(lengths))[None, :] < np.array(lengths)[:, None]
    return rng.integers(1, SMALL.vocab_size, size=int(pad.sum())), pad


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
        # Every jointnlu module, cli included, runs on the standard library
        # and numpy alone: importing them all in a fresh interpreter loads no
        # other top-level module, and the package declares numpy alone.
        code = (
            "import importlib, pkgutil, sys\n"
            "before = set(sys.modules)\n"
            "import jointnlu\n"
            "for m in pkgutil.iter_modules(jointnlu.__path__):\n"
            "    importlib.import_module('jointnlu.' + m.name)\n"
            "assert 'jointnlu.cli' in sys.modules\n"
            "added = {n.partition('.')[0] for n in sys.modules.keys() - before}\n"
            "extra = added - sys.stdlib_module_names - {'numpy', 'jointnlu'}\n"
            "assert not extra, sorted(extra)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        tomllib = pytest.importorskip("tomllib")
        with open(src.parent / "pyproject.toml", "rb") as f:
            deps = tomllib.load(f)["project"]["dependencies"]
        assert [re.match(r"[\w.-]+", d).group() for d in deps] == ["numpy"]

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
    # a request of 2 and one of 8 straddle the row maxima's size rule
    @pytest.mark.parametrize("shape", [(64, 4, 14, 14), (32, 4, 12, 12), (1, 4, 7, 7),
                                       (2, 4, 13, 13), (8, 4, 13, 13)])
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
        # the softmaxes reduce over the last axis: move `axis` there
        scores = np.moveaxis(scores.astype(dtype), axis, -1)
        d = np.moveaxis(rng.normal(size=shape).astype(dtype), axis, -1)
        probs = stable_softmax(scores)
        assert probs.dtype == dtype
        assert np.array_equal(probs, stable_softmax_max_sum(scores))
        assert np.array_equal(log_softmax(scores), log_softmax_max_sum(scores))
        assert np.array_equal(softmax_backward(d, probs),
                              softmax_backward_max_sum(d, probs))

    # row counts on both sides of the size rule, odd and even widths
    @given(st.integers(1, 20),
           st.sampled_from([1, 3, 28, 104, 255, 256, 257, 416, 1000, 1792]),
           st.sampled_from([np.float32, np.float64]),
           st.sampled_from([0.0, 0.3, 1.0]),
           st.integers(0, 2**32 - 1))
    def test_row_maxima_tree_equals_fmax_reduce(self, width, rows, dtype,
                                                p_inf, seed):
        rng = np.random.default_rng(seed)
        x = (rng.normal(size=(rows, width)) * 4).astype(dtype)
        x[rng.random(x.shape) < p_inf] = -np.inf  # at 1.0, rows of -inf only
        x[rng.random(x.shape) < 0.02] = np.nan  # fmax skips NaN
        tree = numerics._row_maxima(x)
        assert tree.shape == (rows, 1) and tree.dtype == dtype
        assert np.array_equal(tree, np.fmax.reduce(x, axis=-1, keepdims=True),
                              equal_nan=True)
        # the softmax picks the tree or the reduce by the size rule, the same
        # to the bit either way, on rows with a finite entry each
        x[np.isnan(x)] = -np.inf
        x[:, rng.integers(0, width)] = rng.normal(size=rows)
        assert np.array_equal(stable_softmax(x), stable_softmax_max_sum(x))

    @pytest.mark.parametrize("shape,tree", [
        ((1, 4, 7, 7), False),  # a batch-1 request
        ((2, 4, 13, 13), False),
        ((8, 4, 13, 13), True),
        ((32, 4, 14, 14), True),  # a training step
        ((64, 4, 16, 16), True),
        ((64, 4, 17, 17), False),  # rows too wide
        ((2048, 4), True),
    ])
    def test_softmax_takes_tree_maxima_over_many_short_rows(
            self, rng, monkeypatch, shape, tree):
        calls = []
        row_maxima = numerics._row_maxima

        def spy(x):
            calls.append(x.shape)
            return row_maxima(x)

        monkeypatch.setattr(numerics, "_row_maxima", spy)
        scores = rng.normal(size=shape).astype(np.float32)
        stable_softmax(scores)
        assert calls == ([shape] if tree else [])

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

    # rates the 1/65536 grid cannot hold: a positive rate that rounds to no
    # step (0.5 steps rounds to even, 0), and one below 1 that rounds to all
    @pytest.mark.parametrize("rate", [1e-6, 2.0 ** -18, 2.0 ** -17,
                                      1 - 2.0 ** -17, 1 - 2.0 ** -18])
    def test_dropout_rates_off_the_grid_are_refused(self, rng, rate):
        message = rf"dropout_rate {rate} is off the 1/65536 grid"
        with pytest.raises(ValueError, match=message):
            dropout_mask(rng, (4,), rate, np.float64)
        with pytest.raises(ValueError, match=message):
            ModelConfig(SMALL, 2, 3, dropout_rate=rate)

    @pytest.mark.parametrize("rate, kept", [(2.0 ** -16, 65535),
                                            (1.5 * 2.0 ** -16, 65534),
                                            (1 - 2.0 ** -16, 1)])
    def test_dropout_rates_at_the_grid_ends_are_kept(self, rate, kept):
        ModelConfig(SMALL, 2, 3, dropout_rate=rate)
        mask = dropout_mask(np.random.default_rng(3), (64,), rate, np.float64)
        assert set(np.unique(mask)) <= {0.0, 65536 / kept}

    @pytest.mark.parametrize("rate", [0.1, 0.2, 0.25, 0.3])
    def test_dropout_keep_fraction_times_scale_is_one(self, rng, rate):
        # the rates of the configs and tests, on the grid: the scale is the
        # inverse of the share of 16-bit values kept
        drop = round(rate * 65536)
        mask = dropout_mask(rng, (4096,), rate, np.float64)
        scale = mask.max()
        assert set(np.unique(mask)) == {0.0, scale}
        assert (65536 - drop) / 65536 * scale == 1.0

    @pytest.mark.parametrize("shape", [(), (0,), (3, 0), (1,), (5,), (2, 3),
                                       (4,), (7, 3)])
    def test_dropout_mask_reads_a_quarter_word_per_entry(self, shape):
        used, replay = np.random.default_rng(11), np.random.default_rng(11)
        mask = dropout_mask(used, shape, 0.5, np.float64)
        n = int(np.prod(shape))
        words = replay.bit_generator.random_raw(-(-n // 4))
        assert used.bit_generator.state == replay.bit_generator.state
        assert mask.shape == shape
        bits = words.astype("<u8").view("<u2")[:n].reshape(shape)
        assert np.array_equal(mask, (bits >= 32768) * 2.0)

    def test_dropout_keeps_an_entry_at_the_threshold(self):
        # a rate of v/65536 drops the values below v and keeps v itself
        values = np.random.default_rng(11).bit_generator.random_raw(1)
        for i, v in enumerate(values.astype("<u8").view("<u2").tolist()):
            if v:
                mask = dropout_mask(np.random.default_rng(11), (4,),
                                    v / 65536, np.float64)
                assert mask[i] == 65536 / (65536 - v)

    def test_dropout_keep_fraction_at_the_paper_rate(self, rng):
        # 0.1 is 6554 steps; a binomial keep count within 5 sigma of its mean
        n, p = 2 ** 20, 1 - 6554 / 65536
        kept = np.count_nonzero(dropout_mask(rng, (n,), 0.1, np.float32))
        assert abs(kept - n * p) < 5 * np.sqrt(n * p * (1 - p))


class TestEncoderConfig:
    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=10, d_h=10, n_heads=4)

    def test_positive_dims_enforced(self):
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=0)

    def test_dict_round_trip(self):
        assert EncoderConfig(**asdict(SMALL)) == SMALL


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
        # each row, padded beside the full one, encodes as it does alone
        params = part_params(rng, "enc.", encoder=SMALL)
        ids, pad = small_batch(rng)
        out, _ = encode(ids, pad, params, SMALL)
        lo = 0
        for L in pad.sum(axis=1):
            alone, _ = encode(ids[lo:lo + L], np.ones((1, L), bool), params, SMALL)
            assert np.abs(alone - out[lo:lo + L]).max() <= 1e-12
            lo += L

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
        with pytest.raises(ValueError, match="need 11 ids"):
            encode(ids[:-1], pad, params, SMALL)
        with pytest.raises(ValueError, match="need 11 ids"):
            encode(ids[:1], pad, params, SMALL)  # would broadcast
        with pytest.raises(ValueError):
            encode(np.full(13, 4), np.ones((1, 13), bool), params, SMALL)
        with pytest.raises(ValueError):
            encode(np.array([4, 99]), np.ones((1, 2), bool), params, SMALL)
        with pytest.raises(ValueError, match="at least one real position"):
            encode(ids, np.zeros_like(pad), params, SMALL)
        with pytest.raises(ValueError, match="need at least one sequence"):
            encode([], np.ones((0, 6), bool), params, SMALL)

    @pytest.mark.parametrize("shape", [(11,), (1, 1, 11)])
    def test_pad_mask_of_other_rank_is_named(self, rng, shape):
        params = part_params(rng, "enc.", encoder=SMALL)
        ids, _ = small_batch(rng)
        with pytest.raises(ValueError, match=re.escape(f"shape {shape}, expected 2-D")):
            encode(ids, np.ones(shape, bool), params, SMALL)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, bool])
    def test_ids_that_are_not_integers_are_named(self, rng, dtype):
        params = part_params(rng, "enc.", encoder=SMALL)
        ids, pad = small_batch(rng)
        with pytest.raises(ValueError, match=f"dtype {np.dtype(dtype)}, expected integers"):
            encode(ids.astype(dtype), pad, params, SMALL)

    def test_unsigned_ids_are_taken(self, rng):
        params = part_params(rng, "enc.", encoder=SMALL)
        ids, pad = small_batch(rng)
        assert np.array_equal(
            encode(ids.astype(np.uint16), pad, params, SMALL)[0],
            encode(ids, pad, params, SMALL)[0],
        )

    @pytest.mark.parametrize("lengths", [(5, 5, 5), (5, 3, 5)])
    def test_padded_layout_only_for_padded_batches(self, rng, monkeypatch, lengths):
        # the rule reads the array, not the batch size: an equal-length batch
        # of 3 never scatters; a ragged one scatters Q, K, V and d_ctx in
        # each layer, and the position gradient once
        calls = []

        def counting(*args):
            calls.append(args)
            return numerics.scatter_rows(*args)

        monkeypatch.setattr("jointnlu.encoder.scatter_rows", counting)
        params = part_params(rng, "enc.", encoder=SMALL)
        ids, pad = small_batch(rng, lengths)
        out, cache = encode(ids, pad, params, SMALL, 0.3, np.random.default_rng(0))
        encode_backward(np.ones_like(out), cache, params, SMALL)
        assert len(calls) == (0 if pad.all() else 4 * SMALL.n_layers + 1)


class TestEncodeBackward:
    def _loss_and_grads(self, rng, dropout_rate=0.0, seed=None, lengths=(4, 6, 1)):
        params = part_params(rng, "enc.", encoder=SMALL)
        ids, pad = small_batch(rng, lengths)
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

    # the probes of the dropout replay sit behind every masked residual of
    # both layers
    REPLAY_PROBES = ("enc.l0.Wq", "enc.l0.Wo", "enc.l0.ln1.g", "enc.l1.W1",
                     "enc.l1.W2", "enc.l1.ln2.b", "enc.tok_emb", "enc.ln_emb.g")

    def _check_fd(self, rng, names, params, loss, grads):
        for name in names or params:
            coords, fd = finite_difference(
                loss, params, name, step=1e-5, max_coords=4, rng=rng
            )
            err = relative_gradient_error(grads[name].reshape(-1)[coords], fd)
            assert err.max() <= 1e-4, f"{name}: {err.max():.2e}"

    def test_gradients_match_fd(self, rng):
        for _ in range(2):
            self._check_fd(rng, None, *self._loss_and_grads(rng))

    def test_gradients_match_fd_with_dropout_replay(self, rng):
        # replaying the dropout rng seed makes the loss deterministic, so
        # the masked path is checkable by finite differences too
        self._check_fd(rng, self.REPLAY_PROBES,
                       *self._loss_and_grads(rng, dropout_rate=0.3, seed=99))

    @pytest.mark.parametrize("rate, seed", [(0.0, None), (0.3, 99)])
    def test_gradients_match_fd_at_equal_lengths(self, rng, rate, seed):
        # no padding: the no-scatter, no-key-bias path, every parameter
        self._check_fd(rng, None, *self._loss_and_grads(
            rng, dropout_rate=rate, seed=seed, lengths=(5, 5, 5)))

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

    @staticmethod
    def _check(rng, params, ids, pad, rate, seed):
        """Output, each layer's probs, every gradient and the generator state
        of the packed encoder against the oracle's, on the padded ids (b, n)."""
        d_out = rng.normal(size=(int(pad.sum()), SMALL.d_h))
        rng_packed = np.random.default_rng(seed)
        rng_padded = np.random.default_rng(seed)

        out, cache = encode(ids[pad], pad, params, SMALL, rate, rng_packed)
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

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_forward_and_gradients_match(self, rng, rate):
        for trial in range(6):
            n = int(rng.integers(2, SMALL.max_len + 1))
            params = part_params(rng, "enc.", encoder=SMALL)
            ids, pad = ragged_batch(rng, n)
            self._check(rng, params, ids, pad, rate, trial)

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("b", [1, 3])
    def test_unpadded_forward_and_gradients_match(self, rng, b, rate):
        # all-True masks take the no-padding path: no scatter, no key bias
        for trial in range(3):
            n = int(rng.integers(2, SMALL.max_len + 1))
            params = part_params(rng, "enc.", encoder=SMALL)
            ids = rng.integers(1, SMALL.vocab_size, size=(b, n))
            self._check(rng, params, ids, np.ones((b, n), bool), rate, trial)

    def test_unpadded_batch_matches(self, rng):
        params = part_params(rng, "enc.", encoder=SMALL)
        ids = rng.integers(1, SMALL.vocab_size, size=(1, 7))
        pad = np.ones((1, 7), dtype=bool)
        out, _ = encode(ids[pad], pad, params, SMALL)
        ref, _ = encode_padded(ids, pad, params, SMALL)
        assert np.abs(out - ref[0]).max() <= 1e-12
