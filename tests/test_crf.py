"""CRF log-partition, gradients, and decoding against enumeration oracles.

The CRF takes packed (T, K) rows and the sequences' lengths; the
single-sequence tests pass one (L, K) instance with no lengths, which is one
sequence of all L rows.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

import jointnlu.training
from jointnlu.crf import crf_nll, crf_nll_backward, viterbi
from jointnlu.encoder import EncoderConfig
from jointnlu.numerics import log_softmax
from jointnlu.toy import toy_grammar
from jointnlu.training import DivergenceError, TrainConfig, train

import oracles
from oracles import (
    crf_best_path_enumerate,
    crf_forward_backward,
    crf_log_partition_enumerate,
    finite_difference,
    relative_gradient_error,
    viterbi_per_sequence,
)


def random_instance(rng, max_len=6, max_tags=5):
    L = int(rng.integers(1, max_len + 1))
    K = int(rng.integers(2, max_tags + 1))
    return (
        rng.normal(size=(L, K)) * 2,
        rng.normal(size=(K, K)),
        rng.normal(size=K),
        rng.normal(size=K),
    )


class TestScore:
    """The gold path's score inside crf_nll, log Z - nll."""

    def test_matches_oracle(self, rng):
        for _ in range(50):
            emis, trans, start, end = random_instance(rng)
            tags = rng.integers(0, emis.shape[1], size=emis.shape[0])
            nll, _ = crf_nll(emis, tags, trans, start, end)
            brute_log_z = crf_log_partition_enumerate(emis, trans, start, end)
            assert np.isclose(
                brute_log_z - nll[0],
                oracles.crf_score(emis, tags, trans, start, end),
            )

    def test_rejects_bad_tag_ids(self, rng):
        emis, trans, start, end = random_instance(rng)
        bad = np.full(emis.shape[0], emis.shape[1])
        with pytest.raises(ValueError, match="tag id out of range"):
            crf_nll(emis, bad, trans, start, end)

    def test_rejects_wrong_tag_count(self, rng):
        emis, trans, start, end = random_instance(rng)
        with pytest.raises(ValueError, match="need tags of shape"):
            crf_nll(emis, [0] * (emis.shape[0] + 1), trans, start, end)


class TestNll:
    def test_single_position_reduces_to_cross_entropy(self, rng):
        emis = rng.normal(size=(1, 4))
        zeros4 = np.zeros(4)
        nll, _ = crf_nll(emis, [2], np.zeros((4, 4)), zeros4, zeros4)
        assert np.isclose(nll[0], -log_softmax(emis[0])[2])

    def test_two_by_two_partition_is_four_term_sum(self, rng):
        emis = rng.normal(size=(2, 2))
        trans = rng.normal(size=(2, 2))
        start = rng.normal(size=2)
        end = rng.normal(size=2)
        terms = [
            start[i] + emis[0, i] + trans[i, j] + emis[1, j] + end[j]
            for i in range(2)
            for j in range(2)
        ]
        nll, cache = crf_nll(emis, [0, 1], trans, start, end)
        assert np.isclose(cache["log_z"][0], np.log(np.exp(terms).sum()))

    def test_partition_matches_enumeration(self, rng):
        for _ in range(300):
            emis, trans, start, end = random_instance(rng)
            tags = rng.integers(0, emis.shape[1], size=emis.shape[0])
            _, cache = crf_nll(emis, tags, trans, start, end)
            brute = crf_log_partition_enumerate(emis, trans, start, end)
            assert abs(cache["log_z"][0] - brute) <= 1e-8

    def test_partition_dominates_every_path(self, rng):
        emis, trans, start, end = random_instance(rng, max_len=4, max_tags=3)
        _, cache = crf_nll(emis, [0] * emis.shape[0], trans, start, end)
        _, best, _ = crf_best_path_enumerate(emis, trans, start, end)
        assert cache["log_z"][0] > best  # strict: several paths contribute mass

    def test_nll_decreases_as_gold_emissions_grow(self, rng):
        emis, trans, start, end = random_instance(rng)
        tags = rng.integers(0, emis.shape[1], size=emis.shape[0])
        values = []
        for boost in (0.0, 1.0, 2.0, 4.0):
            boosted = emis.copy()
            boosted[np.arange(len(tags)), tags] += boost
            values.append(crf_nll(boosted, tags, trans, start, end)[0][0])
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_gradients_match_fd(self, rng):
        for _ in range(20):
            emis, trans, start, end = random_instance(rng)
            tags = rng.integers(0, emis.shape[1], size=emis.shape[0])
            _, cache = crf_nll(emis, tags, trans, start, end)
            grads = crf_nll_backward(cache)

            holders = {
                "emissions": emis, "trans": trans, "start": start, "end": end,
            }

            def loss(_parms=None):
                return crf_nll(
                    holders["emissions"], tags, holders["trans"],
                    holders["start"], holders["end"],
                )[0][0]

            for name in holders:
                coords, fd = finite_difference(
                    loss, holders, name, step=1e-5, max_coords=8, rng=rng
                )
                err = relative_gradient_error(grads[name].reshape(-1)[coords], fd)
                assert err.max() <= 1e-4, f"{name}: {err.max():.2e}"

    def test_emission_gradient_is_marginals_minus_onehot(self, rng):
        # rows of d_emissions + onehot(gold) must be probability rows
        emis, trans, start, end = random_instance(rng)
        tags = rng.integers(0, emis.shape[1], size=emis.shape[0])
        _, cache = crf_nll(emis, tags, trans, start, end)
        marg = crf_nll_backward(cache)["emissions"].copy()
        marg[np.arange(len(tags)), tags] += 1.0
        assert np.allclose(marg.sum(axis=1), 1.0)
        assert (marg >= 0).all() and (marg <= 1).all()


class TestViterbi:
    def test_zero_transitions_reduce_to_argmax(self, rng):
        emis = rng.normal(size=(5, 4))
        K = emis.shape[1]
        path = viterbi(emis, np.zeros((K, K)), np.zeros(K), np.zeros(K))
        assert np.array_equal(path, emis.argmax(axis=1))

    def test_matches_enumeration_on_random_instances(self, rng):
        for _ in range(300):
            emis, trans, start, end = random_instance(rng)
            path = viterbi(emis, trans, start, end)
            best, best_score, n_optimal = crf_best_path_enumerate(emis, trans, start, end)
            assert abs(oracles.crf_score(emis, path, trans, start, end) - best_score) <= 1e-8
            if n_optimal == 1:
                assert np.array_equal(path, best)

    def test_decoded_score_self_consistency(self, rng):
        emis, trans, start, end = random_instance(rng)
        path = viterbi(emis, trans, start, end)
        _, best_score, _ = crf_best_path_enumerate(emis, trans, start, end)
        assert np.isclose(oracles.crf_score(emis, path, trans, start, end), best_score)

    def test_all_ties_pick_lowest_ids(self):
        emis = np.zeros((4, 3))
        path = viterbi(emis, np.zeros((3, 3)), np.zeros(3), np.zeros(3))
        assert np.array_equal(path, np.zeros(4, dtype=int))

    def test_final_position_tie_breaks_low(self):
        # two tags with equal total score; the lower id must win
        emis = np.array([[1.0, 1.0]])
        path = viterbi(emis, np.zeros((2, 2)), np.zeros(2), np.zeros(2))
        assert path.tolist() == [0]


def ragged_batch(rng, max_b=6, max_len=7, max_tags=6):
    """Packed rows of b sequences with lengths 1..n, one of them 1 and one n
    whenever b allows, and the lengths."""
    b = int(rng.integers(1, max_b + 1))
    n = int(rng.integers(1, max_len + 1))
    K = int(rng.integers(2, max_tags + 1))
    lengths = rng.integers(1, n + 1, size=b)
    lengths[rng.permutation(b)[:2]] = (1, n)[:b]
    T = int(lengths.sum())
    return (
        rng.normal(size=(T, K)) * 2, rng.integers(0, K, size=T), lengths,
        rng.normal(size=(K, K)), rng.normal(size=K), rng.normal(size=K),
    )


def with_ties(emis, trans, start, end):
    """Small integer scores, so that many paths tie."""
    return np.round(emis / 4), np.round(trans), np.round(start), np.round(end)


def segments(lengths):
    """(first row, length) of each packed sequence."""
    return zip((np.cumsum(lengths) - lengths).tolist(), lengths.tolist())


class TestBatched:
    """The batched recursions against the per-sequence reference and
    enumeration."""

    def test_loss_and_gradients_match_reference(self, rng):
        for trial in range(200):
            emis, tags, lengths, trans, start, end = ragged_batch(rng)
            if trial % 2:
                emis, trans, start, end = with_ties(emis, trans, start, end)
            nll, cache = crf_nll(emis, tags, trans, start, end, lengths)
            grads = crf_nll_backward(cache)
            assert nll.shape == lengths.shape
            assert grads["emissions"].shape == emis.shape
            summed = {k: 0.0 for k in ("trans", "start", "end")}
            for i, (lo, L) in enumerate(segments(lengths)):
                ref_nll, ref = crf_forward_backward(
                    emis[lo:lo + L], tags[lo:lo + L], trans, start, end
                )
                assert abs(nll[i] - ref_nll) <= 1e-12
                err = np.abs(grads["emissions"][lo:lo + L] - ref["emissions"])
                assert err.max() <= 1e-12
                for k in summed:
                    summed[k] = summed[k] + ref[k]
            for k, v in summed.items():
                assert np.abs(grads[k] - v).max() <= 1e-12, k

    def test_loss_matches_enumeration(self, rng):
        for _ in range(200):
            emis, tags, lengths, trans, start, end = ragged_batch(
                rng, max_len=5, max_tags=4
            )
            nll, _ = crf_nll(emis, tags, trans, start, end, lengths)
            for i, (lo, L) in enumerate(segments(lengths)):
                log_z, *_ = oracles.crf_enumerate(emis[lo:lo + L], trans, start, end)
                score = oracles.crf_score(emis[lo:lo + L], tags[lo:lo + L],
                                          trans, start, end)
                assert abs(nll[i] + score - log_z) <= 1e-12

    def test_sequences_never_leak(self, rng):
        # new scores and tags for one sequence move nothing of the others
        for _ in range(50):
            emis, tags, lengths, trans, start, end = ragged_batch(rng, max_len=9)
            lo, L = list(segments(lengths))[0]
            other_emis, other_tags = emis.copy(), tags.copy()
            other_emis[lo:lo + L] = -other_emis[lo:lo + L] * 7
            other_tags[lo:lo + L] = (other_tags[lo:lo + L] + 1) % trans.shape[0]
            a = crf_nll(emis, tags, trans, start, end, lengths)
            b = crf_nll(other_emis, other_tags, trans, start, end, lengths)
            assert np.array_equal(a[0][1:], b[0][1:])
            ga, gb = crf_nll_backward(a[1]), crf_nll_backward(b[1])
            assert np.array_equal(ga["emissions"][L:], gb["emissions"][L:])
            pa = viterbi(emis, trans, start, end, lengths)
            pb = viterbi(other_emis, trans, start, end, lengths)
            assert np.array_equal(pa[L:], pb[L:])

    def test_viterbi_matches_enumeration_and_reference(self, rng):
        for trial in range(200):
            emis, _, lengths, trans, start, end = ragged_batch(
                rng, max_len=5, max_tags=4
            )
            if trial % 2:
                emis, trans, start, end = with_ties(emis, trans, start, end)
            paths = viterbi(emis, trans, start, end, lengths)
            assert paths.shape == (len(emis),)
            for lo, L in segments(lengths):
                path = paths[lo:lo + L]
                assert np.array_equal(
                    path, viterbi_per_sequence(emis[lo:lo + L], trans, start, end)
                )
                _, best, best_score, n_optimal = oracles.crf_enumerate(
                    emis[lo:lo + L], trans, start, end
                )
                score = oracles.crf_score(emis[lo:lo + L], path, trans, start, end)
                assert abs(score - best_score) <= 1e-12
                if n_optimal == 1:
                    assert path.tolist() == best

    def test_viterbi_ties_match_reference(self, rng):
        # The batch must break every tie exactly as the per-sequence
        # decoder does.
        for _ in range(300):
            emis, _, lengths, trans, start, end = ragged_batch(rng, max_tags=4)
            emis, trans, start, end = with_ties(emis, trans, start, end)
            paths = viterbi(emis, trans, start, end, lengths)
            for lo, L in segments(lengths):
                assert np.array_equal(
                    paths[lo:lo + L],
                    viterbi_per_sequence(emis[lo:lo + L], trans, start, end),
                )

    def test_all_ties_pick_lowest_ids_at_mixed_lengths(self):
        lengths = np.array([2, 5, 1, 5, 3])
        K = 3
        zeros = np.zeros(K)
        paths = viterbi(np.zeros((16, K)), np.zeros((K, K)), zeros, zeros, lengths)
        for lo, L in segments(lengths):
            best, _, n_optimal = crf_best_path_enumerate(
                np.zeros((L, K)), np.zeros((K, K)), zeros, zeros
            )
            assert n_optimal == K ** L
            assert paths[lo:lo + L].tolist() == best == [0] * L

    def test_forbidden_moves_match_reference(self, rng):
        # -inf scores: tag 0 never follows another tag and tag 1 never
        # starts, so no path reaches tag 0 after the first position.
        for _ in range(50):
            emis, tags, lengths, trans, start, end = ragged_batch(rng)
            K = trans.shape[0]
            trans[:, 0] = -np.inf
            start[1] = -np.inf
            tags = tags % (K - 1) + 1
            starts = np.cumsum(lengths) - lengths
            tags[starts] = 2 if K > 2 else 0
            nll, cache = crf_nll(emis, tags, trans, start, end, lengths)
            grads = crf_nll_backward(cache)
            for i, (lo, L) in enumerate(segments(lengths)):
                ref_nll, ref = crf_forward_backward(
                    emis[lo:lo + L], tags[lo:lo + L], trans, start, end
                )
                assert abs(nll[i] - ref_nll) <= 1e-12
                err = np.abs(grads["emissions"][lo:lo + L] - ref["emissions"])
                assert err.max() <= 1e-12
            assert np.isfinite(grads["trans"]).all()


class TestValidation:
    def test_shape_disagreement(self, rng):
        emis = rng.normal(size=(3, 4))
        with pytest.raises(ValueError, match="shapes disagree with emissions"):
            crf_nll(emis, [0, 0, 0], np.zeros((5, 5)), np.zeros(5), np.zeros(5))

    def test_padded_batch_refused(self, rng):
        emis = rng.normal(size=(1, 3, 4))
        zeros = np.zeros(4)
        with pytest.raises(ValueError, match=r"must be \(T, K\)"):
            crf_nll(emis, [[0, 0, 0]], np.zeros((4, 4)), zeros, zeros)
        with pytest.raises(ValueError, match=r"must be \(T, K\)"):
            viterbi(emis, np.zeros((4, 4)), zeros, zeros)

    @pytest.mark.parametrize("lengths", [[0, 6], [3, 4], [7], [[3, 3]], []])
    def test_bad_lengths(self, rng, lengths):
        emis = rng.normal(size=(6, 4))
        zeros = np.zeros(4)
        with pytest.raises(ValueError):
            viterbi(emis, np.zeros((4, 4)), zeros, zeros, lengths)
        with pytest.raises(ValueError):
            crf_nll(emis, [0] * 6, np.zeros((4, 4)), zeros, zeros, lengths)

    def test_tag_out_of_range(self, rng):
        emis = rng.normal(size=(5, 4))
        tags = np.zeros(5, dtype=int)
        zeros = np.zeros(4)
        for bad in (4, -1):
            tags[3] = bad
            with pytest.raises(ValueError, match="tag id out of range"):
                crf_nll(emis, tags, np.zeros((4, 4)), zeros, zeros, [3, 2])


def assert_matches_reference(nll, grads, emis, tags, lengths, trans, start, end,
                             tol):
    """Each sequence's loss and emission gradient, and the batch's summed
    transition, start and end gradients, within `tol` of the per-sequence
    reference in float64."""
    f64 = [np.asarray(x, dtype=np.float64) for x in (emis, trans, start, end)]
    summed = dict.fromkeys(("trans", "start", "end"), 0.0)
    for i, (lo, L) in enumerate(segments(lengths)):
        ref_nll, ref = crf_forward_backward(f64[0][lo:lo + L], tags[lo:lo + L],
                                            *f64[1:])
        assert abs(nll[i] - ref_nll) <= tol
        assert np.abs(grads["emissions"][lo:lo + L] - ref["emissions"]).max() <= tol
        for k in summed:
            summed[k] = summed[k] + ref[k]
    for k, v in summed.items():
        assert np.abs(grads[k] - v).max() <= tol, k


def underflowing(K, dtype):
    """Transition and start scores under which every path's weight
    underflows in float32 but not in float64: only tag 0 may start
    (exp(-200) is 0 in float32), and every move out of tag 0 lies 110 nats
    below the best move, from tag K - 1 to itself."""
    trans = np.full((K, K), -110.0)
    trans[K - 1, K - 1] = 0.0
    start = np.full(K, -200.0)
    start[0] = 0.0
    return trans.astype(dtype), start.astype(dtype)


class TestScaling:
    """The likelihood works on weights scaled at every step, not on log
    scores: check it where scaling matters, against the float64 log-space
    reference."""

    def test_long_float32_sequence_keeps_log_z(self, rng):
        L, K = 2000, 5
        emis = rng.normal(size=(L, K)) * 2 - 4
        trans, start, end = (rng.normal(size=s) for s in ((K, K), K, K))
        tags = rng.integers(0, K, size=L)
        ref_nll, _ = crf_forward_backward(emis, tags, trans, start, end)
        ref_log_z = ref_nll + oracles.crf_score(emis, tags, trans, start, end)
        # unscaled, alpha would be far below float32's smallest number
        assert ref_log_z < np.log(np.finfo(np.float32).tiny)
        f32 = [x.astype(np.float32) for x in (emis, trans, start, end)]
        _, cache = crf_nll(f32[0], tags, *f32[1:])
        assert cache["log_z"].dtype == np.float32
        assert abs(cache["log_z"][0] - ref_log_z) <= 1e-5 * abs(ref_log_z)

    def test_float32_batch_at_benchmark_shape_matches_float64_reference(self, rng):
        b, K = 32, 14
        lengths = rng.integers(4, 15, size=b)
        T = int(lengths.sum())
        emis, trans, start, end = (
            (rng.normal(size=shape) * 3).astype(np.float32)
            for shape in ((T, K), (K, K), (K,), (K,))
        )
        tags = rng.integers(0, K, size=T)
        nll, cache = crf_nll(emis, tags, trans, start, end, lengths)
        grads = crf_nll_backward(cache)
        assert all(x.dtype == np.float32 for x in (nll, *grads.values()))
        assert_matches_reference(nll, grads, emis, tags, lengths, trans, start, end,
                                 tol=1e-4)

    @given(data=st.data())
    def test_scores_up_to_30_match_reference(self, data):
        L, K = data.draw(st.integers(1, 6)), data.draw(st.integers(2, 5))
        scores = st.floats(-30, 30)
        emis, trans, start, end = (
            data.draw(arrays(np.float64, shape, elements=scores))
            for shape in ((L, K), (K, K), (K,), (K,))
        )
        tags = data.draw(arrays(np.intp, L, elements=st.integers(0, K - 1)))
        nll, cache = crf_nll(emis, tags, trans, start, end)
        grads = crf_nll_backward(cache)
        ref_nll, ref = crf_forward_backward(emis, tags, trans, start, end)
        assert abs(nll[0] - ref_nll) <= 1e-9 * max(1.0, abs(ref_nll))
        for k, want in ref.items():
            scale = max(1.0, np.abs(want).max())
            assert np.abs(grads[k] - want).max() <= 1e-9 * scale, k

    def test_zero_scale_raises_and_float64_keeps_it(self, rng):
        K, lengths = 4, np.array([1, 3, 2])
        emis = rng.normal(size=(6, K))
        tags = rng.integers(0, K, size=6)
        end = rng.normal(size=K)
        trans, start = underflowing(K, np.float32)
        f32 = emis.astype(np.float32), end.astype(np.float32)
        with pytest.raises(FloatingPointError,
                           match="CRF sequence 1 has no finite log Z in float32"):
            crf_nll(f32[0], tags, trans, start, f32[1], lengths)

        trans, start = underflowing(K, np.float64)
        nll, cache = crf_nll(emis, tags, trans, start, end, lengths)
        assert_matches_reference(nll, crf_nll_backward(cache), emis, tags, lengths,
                                 trans, start, end, tol=1e-12)

    def test_zero_scale_in_training_is_a_divergence(self, monkeypatch):
        original = jointnlu.training.init_model_params

        def init(cfg, rng):
            params = original(cfg, rng)
            params["crf.T"], params["crf.start"] = underflowing(cfg.n_slots,
                                                                np.float64)
            return params

        monkeypatch.setattr(jointnlu.training, "init_model_params", init)
        data = toy_grammar(9, 8, 4, 4)
        cfg = TrainConfig(epochs=1, batch_size=4, slot_mode="crf", seed=11)
        encoder = EncoderConfig(vocab_size=4, d_h=16, n_layers=1, n_heads=2,
                                d_ff=32, max_len=50)
        message = r"epoch 0, step 0: CRF sequence \d+ has no finite log Z"
        with pytest.raises(DivergenceError, match=message):
            train(data.train, data.dev, cfg, data.featurizer(), encoder=encoder)
