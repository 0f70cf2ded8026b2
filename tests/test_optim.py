"""Schedule shape and optimizer update rules."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jointnlu.encoder import EncoderConfig
from jointnlu.model import ModelConfig, param_spec
from jointnlu.optim import AdamW, flat_buffer, lr_schedule

from oracles import AdamWPerTensor


class TestLrSchedule:
    def test_boundary_values(self):
        assert lr_schedule(0, 100, 0.1, 3e-4) == 0.0
        assert lr_schedule(10, 100, 0.1, 3e-4) == pytest.approx(3e-4)
        assert lr_schedule(100, 100, 0.1, 3e-4) == 0.0

    def test_linear_interpolation(self):
        assert lr_schedule(5, 100, 0.1, 1.0) == pytest.approx(0.5)
        assert lr_schedule(55, 100, 0.1, 1.0) == pytest.approx(0.5)
        assert lr_schedule(32, 40, 0.5, 2.0) == pytest.approx(2.0 * 8 / 20)

    def test_zero_warmup_starts_at_peak(self):
        assert lr_schedule(0, 10, 0.0, 1.0) == 1.0
        assert lr_schedule(5, 10, 0.0, 1.0) == pytest.approx(0.5)

    def test_total_steps_zero_rejected(self):
        with pytest.raises(ValueError):
            lr_schedule(0, 0, 0.1, 1.0)

    @pytest.mark.parametrize("peak", [np.inf, np.nan, -1e-5])
    def test_bad_peak_rejected(self, peak):
        with pytest.raises(ValueError, match="learning rate must be finite"):
            lr_schedule(0, 10, 0.1, peak)

    def test_step_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            lr_schedule(-1, 10, 0.1, 1.0)
        with pytest.raises(ValueError):
            lr_schedule(11, 10, 0.1, 1.0)

    @given(
        total=st.integers(min_value=1, max_value=10_000),
        prop=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_nonnegative_and_bounded_by_peak(self, total, prop):
        peak = 7e-5
        values = [lr_schedule(s, total, prop, peak) for s in range(total + 1)]
        arr = np.asarray(values)
        assert (arr >= 0.0).all()
        assert (arr <= peak + 1e-18).all()

    def test_unimodal_up_then_down(self):
        values = [lr_schedule(s, 200, 0.1, 1.0) for s in range(201)]
        diffs = np.diff(values)
        turn = int(np.argmax(values))
        assert (diffs[:turn] > 0).all()
        assert (diffs[turn:] < 0).all()


def decay_flags(intent_pool="attention"):
    """The decay flag of every tensor of a two-layer CRF model with word
    features, as the parameter table gives them to AdamW."""
    cfg = ModelConfig(
        encoder=EncoderConfig(vocab_size=8, d_h=8, n_layers=2, n_heads=2,
                              d_ff=8, max_len=8),
        n_intents=3, n_slots=4, slot_mode="crf", intent_pool=intent_pool,
    )
    return {row.name: row.decay for row in param_spec(cfg)}


class TestDecayFilter:
    def test_weights_decay(self):
        flags = decay_flags()
        for name in ("enc.tok_emb", "enc.l0.Wq", "int.W_score", "int.v_score",
                     "W_s", "crf.T", "feat.W_w", "feat.W_proj"):
            assert flags[name], name
        assert decay_flags("start_token")["int.W_pool"]

    def test_exclusions(self):
        flags = decay_flags()
        for name in ("enc.l0.bq", "enc.ln_emb.g", "enc.ln_emb.b",
                     "enc.l1.ln2.g", "int.b_cls", "b_s", "feat.b_w",
                     "feat.a_prelu", "crf.start", "crf.end"):
            assert not flags[name], name
        assert not decay_flags("start_token")["int.b_pool"]


def reference_adamw_step(p, g, m, v, t, lr, b1, b2, eps, wd):
    """Loop-free textbook update used as the oracle."""
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    m_hat = m / (1 - b1 ** t)
    v_hat = v / (1 - b2 ** t)
    p = p - lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * p)
    return p, m, v


def flat_copy(params):
    """A flat float64 buffer holding copies of `params`, and its views by
    name: the layout the trainer hands AdamW."""
    flat, views = flat_buffer({k: np.shape(v) for k, v in params.items()})
    for k, v in params.items():
        views[k][...] = v
    return flat, views


def shapes_of(params):
    return {k: np.shape(v) for k, v in params.items()}


class TestFlatBuffer:
    def test_views_lie_end_to_end_in_order(self):
        flat, views = flat_buffer({"a": (2, 3), "s": (), "b": (4,)})
        assert flat.shape == (11,) and flat.dtype == np.float64
        assert [v.shape for v in views.values()] == [(2, 3), (), (4,)]
        flat[:] = np.arange(11)
        assert np.array_equal(views["a"], np.arange(6).reshape(2, 3))
        assert views["s"] == 6.0
        assert np.array_equal(views["b"], np.arange(7, 11))
        views["b"][...] = -1.0  # writing a view writes the buffer
        assert np.array_equal(flat[7:], -np.ones(4))

    def test_dtype_follows_request(self):
        flat, views = flat_buffer({"a": (2,)}, np.float32)
        assert flat.dtype == views["a"].dtype == np.float32


class TestAdamW:
    def test_single_step_closed_form(self, rng):
        p0 = rng.normal(size=(3, 4))
        g = rng.normal(size=(3, 4))
        flat, params = flat_copy({"W": p0})
        opt = AdamW(shapes_of(params), {"W"}, weight_decay=0.01)
        opt.step(flat, {"W": g}, lr=0.1)
        # after one step bias correction cancels the (1-beta) factors
        expected = p0 - 0.1 * (g / (np.abs(g) + 1e-6) + 0.01 * p0)
        assert np.allclose(params["W"], expected, atol=1e-12)

    def test_multi_step_matches_reference(self, rng):
        shapes = {"W": (4, 5), "enc.l0.bq": (5,), "crf.T": (3, 3)}
        flat, params = flat_copy({k: rng.normal(size=s) for k, s in shapes.items()})
        mirror = {k: v.copy() for k, v in params.items()}
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        decayed = {"W", "crf.T"}
        opt = AdamW(shapes, decayed, beta1=0.9, beta2=0.999, eps=1e-6,
                    weight_decay=0.05)
        for t in range(1, 8):
            grads = {k: rng.normal(size=s) for k, s in shapes.items()}
            lr = 0.01 * t
            opt.step(flat, grads, lr)
            for k in shapes:
                wd = 0.05 if k in decayed else 0.0
                mirror[k], m[k], v[k] = reference_adamw_step(
                    mirror[k], grads[k], m[k], v[k], t, lr, 0.9, 0.999, 1e-6, wd
                )
        for k in shapes:
            assert np.allclose(params[k], mirror[k], atol=1e-12), k

    @pytest.mark.parametrize("weight_decay", [0.05, 0.0])
    def test_flat_step_is_bit_equal_to_per_tensor_loop(self, rng, weight_decay):
        # Mixed decay flags, a 0-d tensor, a step at lr=0 and steps after it.
        shapes = {"W": (4, 5), "b": (5,), "a": (), "T": (3, 3), "c": (2,)}
        decayed = {"W", "T"}
        flat, params = flat_copy({k: rng.normal(size=s) for k, s in shapes.items()})
        mirror = {k: np.array(v) for k, v in params.items()}
        opt = AdamW(shapes, decayed, beta1=0.8, beta2=0.99, eps=1e-6,
                    weight_decay=weight_decay)
        oracle = AdamWPerTensor(decayed, beta1=0.8, beta2=0.99, eps=1e-6,
                                weight_decay=weight_decay)
        for lr in (0.1, 0.0, 0.03, 0.2, 0.05, 0.01):
            grads = {k: rng.normal(size=s) for k, s in shapes.items()}
            opt.step(flat, grads, lr)
            oracle.step(mirror, grads, lr)
            for k in shapes:
                assert np.array_equal(params[k], mirror[k]), (k, lr)

    def test_float32_gradients_are_upcast_exactly(self, rng):
        shapes = {"W": (3, 4), "b": (4,)}
        start = {k: rng.normal(size=s) for k, s in shapes.items()}
        flat32, _ = flat_copy(start)
        flat64, _ = flat_copy(start)
        opt32, opt64 = AdamW(shapes, {"W"}), AdamW(shapes, {"W"})
        for _ in range(3):
            grads = {k: rng.normal(size=s).astype(np.float32)
                     for k, s in shapes.items()}
            opt32.step(flat32, grads, 0.1)
            opt64.step(flat64, {k: g.astype(np.float64) for k, g in grads.items()}, 0.1)
        assert np.array_equal(flat32, flat64)

    def test_zero_lr_step_is_pure_noop(self, rng):
        flat, params = flat_copy({"W": rng.normal(size=(3, 3)), "b": rng.normal(size=3)})
        before = {k: v.copy() for k, v in params.items()}
        opt = AdamW(shapes_of(params), params, weight_decay=0.5)
        opt.step(flat, {k: rng.normal(size=v.shape) for k, v in params.items()}, 0.0)
        for k in params:
            assert np.array_equal(params[k], before[k]), k

    def test_decay_only_touches_filtered_names(self, rng):
        flat, params = flat_copy({"W": np.full((2, 2), 2.0), "b": np.full(2, 2.0)})
        zero = {k: np.zeros_like(v) for k, v in params.items()}
        opt = AdamW(shapes_of(params), {"W"}, weight_decay=0.1)
        opt.step(flat, zero, lr=1.0)
        assert np.allclose(params["W"], 2.0 - 1.0 * 0.1 * 2.0)
        assert np.allclose(params["b"], 2.0)

    def test_custom_filter_overrides_default(self, rng):
        flat, params = flat_copy({"b": np.full(2, 2.0)})
        # the caller's set decides, whatever a name looks like
        opt = AdamW(shapes_of(params), {"b"}, weight_decay=0.1)
        opt.step(flat, {"b": np.zeros(2)}, lr=1.0)
        assert np.allclose(params["b"], 1.8)

    def test_updates_in_place_preserving_views(self, rng):
        flat, params = flat_copy({"W": rng.normal(size=(3, 3))})
        view = params["W"].reshape(-1)
        opt = AdamW(shapes_of(params), params)
        opt.step(flat, {"W": rng.normal(size=(3, 3))}, lr=0.1)
        assert np.shares_memory(view, flat)
        assert np.array_equal(view, flat)

    def test_grad_names_must_match_params(self):
        flat, params = flat_copy({"W": np.full((2, 2), 1.0), "U": np.full((2, 2), 1.0)})
        opt = AdamW(shapes_of(params), params, weight_decay=0.0)
        with pytest.raises(ValueError, match="no gradient for parameter 'U'"):
            opt.step(flat, {"W": np.ones((2, 2))}, lr=0.1)
        grads = {"W": np.ones((2, 2)), "U": np.ones((2, 2)), "V": np.ones(2)}
        with pytest.raises(ValueError, match="gradient 'V' names no parameter"):
            opt.step(flat, grads, lr=0.1)
        # a refused step changes neither the parameters nor the step count
        assert opt.t == 0
        assert np.array_equal(params["W"], np.full((2, 2), 1.0))
        assert np.array_equal(params["U"], np.full((2, 2), 1.0))

    def test_shape_mismatch_rejected(self, rng):
        opt = AdamW({"W": (2, 2)}, ())
        with pytest.raises(ValueError):
            opt.step(np.zeros(4), {"W": np.zeros(3)}, lr=0.1)
        # the check runs before any tensor is updated
        flat, params = flat_copy({"A": np.ones(2), "W": np.ones((2, 2))})
        opt = AdamW(shapes_of(params), ())
        grads = {"A": np.ones(2), "W": np.ones(3)}
        with pytest.raises(ValueError, match="'W'"):
            opt.step(flat, grads, lr=0.1)
        assert opt.t == 0
        assert np.array_equal(params["A"], np.ones(2))

    def test_flat_params_of_another_layout_rejected(self):
        opt = AdamW({"W": (2, 2)}, ())
        with pytest.raises(ValueError, match="flat buffer of 4 values"):
            opt.step(np.zeros((2, 2)), {"W": np.zeros((2, 2))}, lr=0.1)
        assert opt.t == 0

    def test_converges_on_quadratic(self):
        flat, params = flat_copy({"x": np.array([5.0, -3.0])})
        opt = AdamW(shapes_of(params), (), weight_decay=0.0)
        total = 400
        for s in range(total):
            lr = lr_schedule(s, total, 0.1, 0.2)
            opt.step(flat, {"x": 2.0 * params["x"]}, lr)
        assert np.abs(params["x"]).max() < 1e-2

    def test_invalid_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            AdamW({}, (), beta1=1.0)
        with pytest.raises(ValueError):
            AdamW({}, (), eps=0.0)
        with pytest.raises(ValueError):
            AdamW({}, (), weight_decay=-0.1)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_hyperparameters_rejected(self, bad):
        with pytest.raises(ValueError, match="eps must be finite"):
            AdamW({}, (), eps=bad)
        with pytest.raises(ValueError, match="weight_decay must be finite"):
            AdamW({}, (), weight_decay=bad)
