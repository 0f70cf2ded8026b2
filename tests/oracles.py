"""Independent reference implementations the test suite checks against.

Everything here is deliberately brute-force and shares no code with the
package: chunking by scanning all (start, end, label) triples, CRF partition
and decoding by exhaustive enumeration, gradients by central finite
differences, and AdamW one tensor at a time (`AdamWPerTensor`). The
exceptions are `model_losses`, the joint model's two loss terms without any
backward pass, which the finite-difference checks probe, and the
padded model (`model_padded`: encoder, heads, feature net and losses run on
every (batch, length) position), which reuses the package's softmax and
dropout helpers so it draws the same dropout masks as the packed model it
checks; its intent term is the per-row `intent_ce` and its CRF term the
per-sequence `crf_forward_backward`.
The per-piece `align_per_piece` segments words with the vocabulary's own
`tokenize_pieces`, which its own tests pin, and `decode_word_tags_per_piece`
decodes with the slot vocabulary's own `decode`. `train_vocab_recount`
builds the package's `WordPieceVocab` from pieces it induces by recounting
every pair after every merge.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from jointnlu.numerics import (
    LN_EPS,
    apply_mask,
    dropout_mask,
    log_softmax,
    softmax_backward,
    stable_softmax,
)
from jointnlu.tagging import Chunk, SlotTag


def brute_force_chunks(tags: list[SlotTag]) -> set[Chunk]:
    """All (label, start, end) triples that form a maximal lenient-BIO chunk.

    A triple qualifies iff position `start` opens a run of `label` (a B, or
    an I not preceded by the same label), positions start+1..end all continue
    it with I-label, and the run cannot be extended right.
    """
    n = len(tags)
    out = set()
    labels = {t.label for t in tags if t.label}
    for label in labels:
        begin, inside = SlotTag("B", label), SlotTag("I", label)
        for start in range(n):
            for end in range(start, n):
                opens = tags[start] == begin or (
                    tags[start] == inside
                    and (start == 0 or tags[start - 1] not in (begin, inside))
                )
                if not opens:
                    continue
                if any(tags[k] != inside for k in range(start + 1, end + 1)):
                    continue
                if end + 1 < n and tags[end + 1] == inside:
                    continue
                out.add(Chunk(label, start, end))
    return out


def all_tag_sequences(length: int, labels: list[str]):
    """Every BIO tag sequence of exactly `length` over the given labels."""
    alphabet = [SlotTag("O")]
    for lab in labels:
        alphabet.append(SlotTag("B", lab))
        alphabet.append(SlotTag("I", lab))
    yield from itertools.product(alphabet, repeat=length)


def random_tag_sequence(rng: np.random.Generator, length: int, labels: list[str]) -> list[SlotTag]:
    alphabet = [SlotTag("O")]
    for lab in labels:
        alphabet.append(SlotTag("B", lab))
        alphabet.append(SlotTag("I", lab))
    return [alphabet[i] for i in rng.integers(0, len(alphabet), size=length)]


def crf_score(emissions, tags, trans, start, end) -> float:
    """Path score: start + emissions + transitions + end, summed directly."""
    s = start[tags[0]] + emissions[0, tags[0]]
    for t in range(1, len(tags)):
        s += trans[tags[t - 1], tags[t]] + emissions[t, tags[t]]
    s += end[tags[-1]]
    return float(s)


def crf_log_partition_enumerate(emissions, trans, start, end) -> float:
    """log sum over ALL tag sequences of exp(score); O(S^N), small N only."""
    n, s = emissions.shape
    scores = [
        crf_score(emissions, tags, trans, start, end)
        for tags in itertools.product(range(s), repeat=n)
    ]
    m = max(scores)
    return m + np.log(np.sum(np.exp(np.asarray(scores) - m)))

def crf_best_path_enumerate(emissions, trans, start, end, tol: float = 1e-9):
    """Argmax path by enumeration.

    Returns (path, score, n_optimal) where n_optimal counts the paths within
    tol of the maximum; the returned path is the lexicographically smallest
    of those. Path-level comparisons against a decoder are only meaningful
    when n_optimal == 1 (decoder tie-breaking is backtrack-order specific);
    score-level comparisons are always valid.
    """
    n, s = emissions.shape
    paths = list(itertools.product(range(s), repeat=n))
    scores = [crf_score(emissions, tags, trans, start, end) for tags in paths]
    best_score = max(scores)
    near = [p for p, sc in zip(paths, scores) if sc >= best_score - tol]
    return list(min(near)), best_score, len(near)


def crf_enumerate(emissions, trans, start, end, tol: float = 1e-9):
    """Vectorized exhaustive scoring of every tag path.

    Returns (log_partition, best_path, best_score, n_optimal). Semantics
    match crf_log_partition_enumerate / crf_best_path_enumerate; this form
    just scores all S^N paths in one numpy pass so large instance counts
    stay cheap.
    """
    n, s = emissions.shape
    paths = np.array(list(itertools.product(range(s), repeat=n)))
    scores = start[paths[:, 0]] + end[paths[:, -1]]
    scores = scores + emissions[np.arange(n), paths].sum(axis=1)
    if n > 1:
        scores = scores + trans[paths[:, :-1], paths[:, 1:]].sum(axis=1)
    m = scores.max()
    log_z = m + np.log(np.sum(np.exp(scores - m)))
    near = np.flatnonzero(scores >= m - tol)
    # product() yields paths in lexicographic order, so the first
    # near-optimal index is the lexicographically smallest optimum.
    return float(log_z), list(paths[near[0]]), float(m), len(near)


def finite_difference(fn, params: dict[str, np.ndarray], name: str, step: float = 1e-5,
                      max_coords: int | None = None, rng: np.random.Generator | None = None):
    """Central-difference gradient of scalar fn(params) w.r.t. params[name].

    Returns (coords, grads): flat indices probed and their FD estimates. When
    max_coords is given, a random subset of coordinates is probed.
    """
    arr = params[name]
    size = arr.size
    if max_coords is not None and size > max_coords:
        assert rng is not None
        coords = rng.choice(size, size=max_coords, replace=False)
    else:
        coords = np.arange(size)
    grads = np.empty(len(coords))
    flat = arr.reshape(-1)
    for j, c in enumerate(coords):
        keep = flat[c]
        flat[c] = keep + step
        up = fn(params)
        flat[c] = keep - step
        down = fn(params)
        flat[c] = keep
        grads[j] = (up - down) / (2 * step)
    return coords, grads


class AdamWPerTensor:
    """The per-tensor AdamW loop the flat step replaced: moments per name,
    one tensor at a time, in the same arithmetic order."""

    def __init__(self, decayed, beta1=0.9, beta2=0.999, eps=1e-6,
                 weight_decay=0.01):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.decayed = frozenset(decayed)
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in params.items():
            g = grads[name]
            if name not in self._m:
                self._m[name] = np.zeros_like(p)
                self._v[name] = np.zeros_like(p)
            m, v = self._m[name], self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay > 0.0 and name in self.decayed:
                update = update + self.weight_decay * p
            p -= lr * update


def relative_gradient_error(analytic, fd) -> np.ndarray:
    """|a-f| / max(1e-8, |a|, |f|) elementwise, floored to 0 for near-zero diffs."""
    a = np.asarray(analytic, dtype=float)
    f = np.asarray(fd, dtype=float)
    diff = np.abs(a - f)
    denom = np.maximum(1e-8, np.maximum(np.abs(a), np.abs(f)))
    return np.where(diff < 1e-9, 0.0, diff / denom)


def slot_logits(intent_logit_vec, feature_vec, hidden_vec, W_s, b_s) -> np.ndarray:
    """Slot scores at one position, written out block by block:
    W_s [softmax(intent logits); word features; hidden state] + b_s, the
    feature block left out when feature_vec is None."""
    z = np.exp(intent_logit_vec - intent_logit_vec.max())
    blocks = [z / z.sum()]
    if feature_vec is not None:
        blocks.append(feature_vec)
    blocks.append(hidden_vec)
    return W_s @ np.concatenate(blocks) + b_s


def intent_ce(y_int, intent_ids):
    """Mean cross-entropy of one row per sequence over the batch, and its
    gradient: the reference for the package's cross-entropy at unit
    lengths."""
    b = y_int.shape[0]
    logp = log_softmax(y_int, axis=-1)
    rows = np.arange(b)
    loss = float(-logp[rows, intent_ids].mean())
    d = np.exp(logp)
    d[rows, intent_ids] -= 1.0
    return loss, d / b


def model_losses(params, cfg, batch, rng=None):
    """Forward-only (l_intent, l_slot): the package's forward pass and loss
    terms, with the CRF's negative log-likelihood taken from crf_nll and no
    backward pass run."""
    from jointnlu.crf import crf_nll
    from jointnlu.model import _cross_entropy, model_outputs

    y_int, slot_scores, _, _ = model_outputs(params, cfg, batch, rng)
    l_int, _ = _cross_entropy(y_int, batch.intent_ids,
                              np.ones_like(batch.intent_ids))
    if cfg.slot_mode == "crf":
        nll, _ = crf_nll(
            slot_scores, batch.tag_ids, params["crf.T"], params["crf.start"],
            params["crf.end"], batch.lengths,
        )
        return l_int, float(nll.sum()) / len(nll)
    l_slot, _ = _cross_entropy(slot_scores, batch.tag_ids, batch.lengths)
    return l_int, l_slot


def pad_rows(x, pad_mask):
    """Packed (T, ...) rows -> (b, n, ...), zeros at padded positions."""
    out = np.zeros(pad_mask.shape + x.shape[1:], dtype=x.dtype)
    out[pad_mask] = x
    return out


def packed_dropout(rng, pad_mask, width, rate):
    """A dropout mask drawn as the packed model draws it, one row of shape
    `width` per real position, then scattered to (b, n, *width) with zeros
    at padding; None when dropout is off."""
    mask = dropout_mask(rng, (int(pad_mask.sum()),) + width, rate, np.float64)
    return None if mask is None else pad_rows(mask, pad_mask)


def crf_forward_backward(emissions, tags, trans, start, end):
    """One sequence's CRF loss and gradients, position by position.

    The slow reference for the batched crf_nll/crf_nll_backward: scipy's
    logsumexp at every step of the forward and backward recursions, and one
    pairwise-marginal table per transition. Returns (nll, grads) with grads
    keyed emissions, trans, start, end.
    """
    from scipy.special import logsumexp

    tags = np.asarray(tags, dtype=int)
    L, K = emissions.shape
    log_alpha = np.empty((L, K))
    log_alpha[0] = start + emissions[0]
    for t in range(1, L):
        log_alpha[t] = emissions[t] + logsumexp(
            log_alpha[t - 1][:, None] + trans, axis=0
        )
    log_z = float(logsumexp(log_alpha[-1] + end))

    log_beta = np.empty((L, K))
    log_beta[-1] = end
    for t in range(L - 2, -1, -1):
        log_beta[t] = logsumexp(
            trans + (emissions[t + 1] + log_beta[t + 1])[None, :], axis=1
        )
    marginals = np.exp(log_alpha + log_beta - log_z)

    d_emissions = marginals.copy()
    d_emissions[np.arange(L), tags] -= 1.0
    d_trans = np.zeros_like(trans)
    for t in range(L - 1):
        log_pair = (
            log_alpha[t][:, None]
            + trans
            + (emissions[t + 1] + log_beta[t + 1])[None, :]
            - log_z
        )
        d_trans += np.exp(log_pair)
        d_trans[tags[t], tags[t + 1]] -= 1.0
    d_start = marginals[0].copy()
    d_start[tags[0]] -= 1.0
    d_end = marginals[-1].copy()
    d_end[tags[-1]] -= 1.0

    nll = log_z - crf_score(emissions, tags, trans, start, end)
    grads = dict(emissions=d_emissions, trans=d_trans, start=d_start, end=d_end)
    return nll, grads


def viterbi_per_sequence(emissions, trans, start, end) -> np.ndarray:
    """One sequence's Viterbi path, position by position; argmax ties pick
    the lowest tag id. The slow reference for the batched viterbi."""
    L, K = emissions.shape
    delta = start + emissions[0]
    back = np.empty((L, K), dtype=int)
    for t in range(1, L):
        cand = delta[:, None] + trans
        back[t] = np.argmax(cand, axis=0)
        delta = emissions[t] + cand[back[t], np.arange(K)]
    path = np.empty(L, dtype=int)
    path[-1] = int(np.argmax(delta + end))
    for t in range(L - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return path


def annotate_entities_longest_first(words, gazetteer, english_dict):
    """Entity labels from a fresh longest-first scan of the gazetteer.

    The reference for the indexed matcher: the phrase set is rebuilt on every
    call, every span length up to the longest phrase is tried at every
    position, and the label is read back through the phrase's joined text.
    Words no phrase covers get the package's rule label (an empty gazetteer).
    """
    from jointnlu.features import WordFeaturizer, resolve_raw_label

    rules, _, _ = WordFeaturizer({}, {}, english_dict).annotate(words)
    lowered = [w.lower() for w in words]
    phrase_words = {tuple(p.split()) for p in gazetteer}
    max_phrase = max((len(p) for p in phrase_words), default=0)
    out = []
    i = 0
    while i < len(words):
        for span in range(min(max_phrase, len(words) - i), 0, -1):
            cand = tuple(lowered[i:i + span])
            if cand in phrase_words:
                label = resolve_raw_label(gazetteer[" ".join(cand)])
                out.extend([label] * span)
                i += span
                break
        else:
            out.append(rules[i])
            i += 1
    return out


def align_per_piece(words, tags, features, vocab, max_len):
    """The aligned fields (ids, tags, active, feature block, truncated) built
    one piece at a time, each word segmented afresh with tokenize_pieces.
    The reference for the per-word align; it checks no arguments."""
    from jointnlu.tagging import X_TAG

    ids = [vocab.ids["[BOS]"]]
    piece_tags = [X_TAG]
    active = [False]
    word_of = []  # the word of each piece between the markers
    truncated = False
    for wi, (word, tag) in enumerate(zip(words, tags)):
        piece_ids = [vocab.ids[p] for p in vocab.tokenize_pieces(word)]
        if len(ids) + len(piece_ids) + 1 > max_len:
            truncated = True
            break
        for k, pid in enumerate(piece_ids):
            ids.append(pid)
            piece_tags.append(tag if k == 0 else X_TAG)
            active.append(k == 0)
            word_of.append(wi)
    ids.append(vocab.ids["[EOS]"])
    piece_tags.append(X_TAG)
    active.append(False)
    block = np.zeros((len(ids), features.shape[1]))
    for row, wi in enumerate(word_of, start=1):
        block[row] = features[wi]
    return tuple(ids), tuple(piece_tags), tuple(active), block, truncated


def decode_word_tags_per_piece(seq, piece_tag_ids, slot_vocab):
    """Word tags from piece-level tag ids by decoding every piece, markers
    and continuation pieces included, then keeping the first piece of each
    word, an X there read as O. The reference for decode_word_tags."""
    from jointnlu.tagging import O_TAG

    piece_tags = [slot_vocab.decode(int(i)) for i in piece_tag_ids]
    return [O_TAG if tag.kind == "X" else tag
            for tag, is_first in zip(piece_tags, seq.active) if is_first]


def train_vocab_recount(words, target_size):
    """Word-piece induction that recounts every adjacent pair of every
    distinct word, and re-segments every word, after each merge. The
    reference for the incremental train_vocab."""
    from collections import Counter

    from jointnlu.subwords import CONTINUATION, RESERVED_TOKENS, WordPieceVocab

    counts = Counter(words)
    if not counts:
        raise ValueError("empty corpus")
    if any(not w for w in counts):
        raise ValueError("empty word in corpus")
    alphabet = sorted({c for w in counts for c in w})
    base = sorted(alphabet + [CONTINUATION + c for c in alphabet])
    floor = len(RESERVED_TOKENS) + len(base)
    if target_size < floor:
        raise ValueError(
            f"target_size {target_size} below base inventory "
            f"({len(base)} character pieces + {len(RESERVED_TOKENS)} reserved)"
        )

    segmented = {w: tuple([w[0]] + [CONTINUATION + c for c in w[1:]]) for w in counts}
    merged: list[str] = []
    while floor + len(merged) < target_size:
        pair_counts: Counter = Counter()
        for w, pieces in segmented.items():
            for a, b in zip(pieces, pieces[1:]):
                pair_counts[(a, b)] += counts[w]
        if not pair_counts:
            break
        best = min(pair_counts, key=lambda p: (-pair_counts[p], p))
        if pair_counts[best] < 2:
            break
        new_piece = best[0] + best[1].removeprefix(CONTINUATION)
        # a piece already, or re-derivable via a different split
        if new_piece not in (*RESERVED_TOKENS, *base, *merged):
            merged.append(new_piece)
        for w, pieces in segmented.items():
            out = []
            i = 0
            while i < len(pieces):
                if i + 1 < len(pieces) and (pieces[i], pieces[i + 1]) == best:
                    out.append(new_piece)
                    i += 2
                else:
                    out.append(pieces[i])
                    i += 1
            segmented[w] = tuple(out)

    return WordPieceVocab(RESERVED_TOKENS + tuple(base) + tuple(merged))


def _gelu_tanh_t(x):
    return np.tanh(math.sqrt(2.0 / math.pi) * x * (1.0 + 0.044715 * x * x))


def gelu_tanh(x):
    """GELU's tanh form, tanh evaluated here and again in its gradient."""
    return 0.5 * x * (1.0 + _gelu_tanh_t(x))


def gelu_grad_tanh(x):
    t = _gelu_tanh_t(x)
    return 0.5 * (1.0 + t) + 0.5 * math.sqrt(2.0 / math.pi) * x * (1.0 - t * t) * (
        1.0 + 3.0 * 0.044715 * x * x)


def layer_norm_mean(x, gain, bias):
    """Layer norm over the last axis with ndarray.mean; returns (y, cache)."""
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv_sigma = 1.0 / np.sqrt(var + LN_EPS)
    xhat = centered * inv_sigma
    return gain * xhat + bias, (xhat, inv_sigma, gain)


def layer_norm_mean_backward(d_y, cache):
    xhat, inv_sigma, gain = cache
    lead = tuple(range(d_y.ndim - 1))
    d_bias = d_y.sum(axis=lead)
    d_gain = (d_y * xhat).sum(axis=lead)
    d_xhat = d_y * gain
    mean_dxhat = d_xhat.mean(axis=-1, keepdims=True)
    mean_dxhat_xhat = (d_xhat * xhat).mean(axis=-1, keepdims=True)
    d_x = inv_sigma * (d_xhat - mean_dxhat - xhat * mean_dxhat_xhat)
    return d_x, d_gain, d_bias


def stable_softmax_max_sum(scores, axis=-1):
    """Softmax through the np.max and np.sum wrappers."""
    exp = np.exp(scores - np.max(scores, axis=axis, keepdims=True))
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax_max_sum(scores, axis=-1):
    shifted = scores - np.max(scores, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def softmax_backward_max_sum(d_probs, probs, axis=-1):
    return probs * (d_probs - np.sum(d_probs * probs, axis=axis, keepdims=True))


def _split_heads(x, n_heads):
    b, n, d = x.shape
    return x.reshape(b, n, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, n, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, n, h * dh)


def encode_padded(ids, pad_mask, params, cfg, dropout_rate=0.0, rng=None):
    """The encoder run on every (batch, length) position, padding included.

    The reference for the packed encoder: every dense layer sees the padded
    rows too, and only the final output is zeroed at padding. Dropout masks
    are drawn in the same order and packed shapes (packed_dropout). Returns
    (out, cache).
    """
    b, n = ids.shape
    emb = params["enc.tok_emb"][ids] + params["enc.pos_emb"][:n][None, :, :]
    x, ln_emb_cache = layer_norm_mean(
        emb, params["enc.ln_emb.g"], params["enc.ln_emb.b"]
    )
    emb_mask = packed_dropout(rng, pad_mask, (cfg.d_h,), dropout_rate)
    x = apply_mask(x, emb_mask)

    key_mask = pad_mask[:, None, None, :]
    scale = 1.0 / np.sqrt(cfg.d_head)
    layers = []
    for i in range(cfg.n_layers):
        p = f"enc.l{i}."
        x_in = x
        q = _split_heads(x @ params[p + "Wq"] + params[p + "bq"], cfg.n_heads)
        k = _split_heads(x @ params[p + "Wk"] + params[p + "bk"], cfg.n_heads)
        v = _split_heads(x @ params[p + "Wv"] + params[p + "bv"], cfg.n_heads)
        scores = np.where(key_mask, (q @ k.swapaxes(-1, -2)) * scale, -np.inf)
        probs = stable_softmax(scores, axis=-1)
        ctx = _merge_heads(probs @ v)
        attn_out = ctx @ params[p + "Wo"] + params[p + "bo"]
        attn_drop = packed_dropout(rng, pad_mask, (cfg.d_h,), dropout_rate)
        attn_out = apply_mask(attn_out, attn_drop)
        x1, ln1_cache = layer_norm_mean(
            x_in + attn_out, params[p + "ln1.g"], params[p + "ln1.b"]
        )
        u = x1 @ params[p + "W1"] + params[p + "b1"]
        a = gelu_tanh(u)
        ffn_out = a @ params[p + "W2"] + params[p + "b2"]
        ffn_drop = packed_dropout(rng, pad_mask, (cfg.d_h,), dropout_rate)
        ffn_out = apply_mask(ffn_out, ffn_drop)
        x2, ln2_cache = layer_norm_mean(
            x1 + ffn_out, params[p + "ln2.g"], params[p + "ln2.b"]
        )
        layers.append(dict(
            x_in=x_in, q=q, k=k, v=v, probs=probs, ctx=ctx,
            attn_drop=attn_drop, ln1_cache=ln1_cache, x1=x1,
            u=u, a=a, ffn_drop=ffn_drop, ln2_cache=ln2_cache,
        ))
        x = x2

    out = x * pad_mask[:, :, None]
    cache = dict(ids=ids, pad_mask=pad_mask, emb_mask=emb_mask,
                 ln_emb_cache=ln_emb_cache, layers=layers, scale=scale)
    return out, cache


def encode_padded_backward(d_out, cache, params, cfg):
    """Gradients of encode_padded by name, every sum taken over all b*n
    positions."""
    ids, pad_mask = cache["ids"], cache["pad_mask"]
    n = ids.shape[1]
    grads = {}
    d_x = d_out * pad_mask[:, :, None]
    for i in reversed(range(cfg.n_layers)):
        lc = cache["layers"][i]
        p = f"enc.l{i}."
        d_r2, grads[p + "ln2.g"], grads[p + "ln2.b"] = layer_norm_mean_backward(
            d_x, lc["ln2_cache"]
        )
        d_x1 = d_r2.copy()
        d_ffn = apply_mask(d_r2, lc["ffn_drop"])
        flat_dffn = d_ffn.reshape(-1, cfg.d_h)
        grads[p + "W2"] = lc["a"].reshape(-1, cfg.d_ff).T @ flat_dffn
        grads[p + "b2"] = flat_dffn.sum(axis=0)
        d_u = (d_ffn @ params[p + "W2"].T) * gelu_grad_tanh(lc["u"])
        flat_du = d_u.reshape(-1, cfg.d_ff)
        grads[p + "W1"] = lc["x1"].reshape(-1, cfg.d_h).T @ flat_du
        grads[p + "b1"] = flat_du.sum(axis=0)
        d_x1 += d_u @ params[p + "W1"].T

        d_r1, grads[p + "ln1.g"], grads[p + "ln1.b"] = layer_norm_mean_backward(
            d_x1, lc["ln1_cache"]
        )
        d_x_in = d_r1.copy()
        d_attn = apply_mask(d_r1, lc["attn_drop"])
        flat_dattn = d_attn.reshape(-1, cfg.d_h)
        grads[p + "Wo"] = lc["ctx"].reshape(-1, cfg.d_h).T @ flat_dattn
        grads[p + "bo"] = flat_dattn.sum(axis=0)
        d_ctx = _split_heads(d_attn @ params[p + "Wo"].T, cfg.n_heads)

        d_probs = d_ctx @ lc["v"].swapaxes(-1, -2)
        d_v = lc["probs"].swapaxes(-1, -2) @ d_ctx
        d_scores = softmax_backward(d_probs, lc["probs"], axis=-1)
        d_q = (d_scores @ lc["k"]) * cache["scale"]
        d_k = (d_scores.swapaxes(-1, -2) @ lc["q"]) * cache["scale"]

        flat_x = lc["x_in"].reshape(-1, cfg.d_h)
        for name, d_heads in (("q", d_q), ("k", d_k), ("v", d_v)):
            d_lin = _merge_heads(d_heads)
            flat_d = d_lin.reshape(-1, cfg.d_h)
            grads[p + "W" + name] = flat_x.T @ flat_d
            grads[p + "b" + name] = flat_d.sum(axis=0)
            d_x_in += d_lin @ params[p + "W" + name].T
        d_x = d_x_in

    d_x = apply_mask(d_x, cache["emb_mask"])
    d_emb, grads["enc.ln_emb.g"], grads["enc.ln_emb.b"] = layer_norm_mean_backward(
        d_x, cache["ln_emb_cache"]
    )
    grads["enc.tok_emb"] = np.zeros_like(params["enc.tok_emb"])
    np.add.at(grads["enc.tok_emb"], ids, d_emb)
    grads["enc.pos_emb"] = np.zeros_like(params["enc.pos_emb"])
    grads["enc.pos_emb"][:n] = d_emb.sum(axis=0)
    return grads


def intent_forward_padded(H, pad_mask, params, mode, dropout_rate=0.0, rng=None):
    """Intent pooling over (b, n, d_h) states: -inf scores at padding, a
    softmax over every row, einsum pooling. Returns (y_int, alpha, cache)
    with alpha (b, n)."""
    b, n, d_h = H.shape
    if mode == "attention":
        scores = np.tanh(H @ params["int.W_score"].T) @ params["int.v_score"]
        logits = np.where(pad_mask, scores, -np.inf)
        alpha_clean = stable_softmax(logits / np.sqrt(d_h), axis=-1)
        att_drop = packed_dropout(rng, pad_mask, (), dropout_rate)
        alpha = apply_mask(alpha_clean, att_drop)
        h_int = np.tanh(np.einsum("bn,bnd->bd", alpha, H))
    else:
        h_int = np.tanh(H[:, 0, :] @ params["int.W_pool"].T + params["int.b_pool"])
        alpha_clean, att_drop = None, None
        alpha = np.zeros((b, n))
        alpha[:, 0] = 1.0
    h_drop = dropout_mask(rng, h_int.shape, dropout_rate, np.float64)
    h_used = apply_mask(h_int, h_drop)
    y_int = h_used @ params["int.W_cls"].T + params["int.b_cls"]
    cache = dict(H=H, mode=mode, alpha_clean=alpha_clean, att_drop=att_drop,
                 alpha=alpha, h_int=h_int, h_drop=h_drop, h_used=h_used)
    return y_int, alpha, cache


def intent_backward_padded(d_y_int, cache, params):
    H, h_int = cache["H"], cache["h_int"]
    d_h = H.shape[-1]
    grads = {"int.W_cls": d_y_int.T @ cache["h_used"],
             "int.b_cls": d_y_int.sum(axis=0)}
    d_h_int = apply_mask(d_y_int @ params["int.W_cls"], cache["h_drop"])
    d_pre_tanh = d_h_int * (1.0 - h_int * h_int)
    if cache["mode"] == "attention":
        alpha, alpha_clean = cache["alpha"], cache["alpha_clean"]
        d_alpha = np.einsum("bd,bnd->bn", d_pre_tanh, H)
        d_H = alpha[:, :, None] * d_pre_tanh[:, None, :]
        d_alpha_clean = apply_mask(d_alpha, cache["att_drop"])
        d_logits = softmax_backward(d_alpha_clean, alpha_clean, axis=-1) / np.sqrt(d_h)
        t = np.tanh(H @ params["int.W_score"].T)
        d_proj = d_logits[:, :, None] * params["int.v_score"][None, None, :] * (1.0 - t * t)
        grads["int.v_score"] = np.einsum("bnd,bn->d", t, d_logits)
        grads["int.W_score"] = d_proj.reshape(-1, d_h).T @ H.reshape(-1, d_h)
        d_H = d_H + d_proj @ params["int.W_score"]
    else:
        grads["int.W_pool"] = d_pre_tanh.T @ H[:, 0, :]
        grads["int.b_pool"] = d_pre_tanh.sum(axis=0)
        d_H = np.zeros_like(H)
        d_H[:, 0, :] = d_pre_tanh @ params["int.W_pool"]
    return d_H, grads


def feature_forward_padded(x, params):
    """The feature net on a (b, n, 23) block, padding rows included."""
    s = x @ params["feat.W_w"] + params["feat.b_w"]
    a = float(params["feat.a_prelu"])
    h = np.maximum(s, 0.0) + a * np.minimum(s, 0.0)
    return h @ params["feat.W_proj"] + params["feat.b_proj"], (x, s, h)


def feature_backward_padded(d_out, cache, params):
    x, s, h = cache
    flat_dout = d_out.reshape(-1, d_out.shape[-1])
    d_h = d_out @ params["feat.W_proj"].T
    d_s = d_h * np.where(s > 0, 1.0, float(params["feat.a_prelu"]))
    flat_ds = d_s.reshape(-1, d_s.shape[-1])
    return {
        "feat.W_w": x.reshape(-1, x.shape[-1]).T @ flat_ds,
        "feat.b_w": flat_ds.sum(axis=0),
        "feat.a_prelu": np.array(np.sum(d_h * np.minimum(s, 0.0))),
        "feat.W_proj": h.reshape(-1, h.shape[-1]).T @ flat_dout,
        "feat.b_proj": flat_dout.sum(axis=0),
    }


def slot_forward_padded(y_int, f_words, H, pad_mask, params, dropout_rate=0.0,
                        rng=None):
    """Slot scores (b, n, n_slots) with the intent row broadcast to every
    position, padding included."""
    b, n, _ = H.shape
    p_int = stable_softmax(y_int, axis=-1)
    blocks = [np.broadcast_to(p_int[:, None, :], (b, n, p_int.shape[-1]))]
    if f_words is not None:
        blocks.append(f_words)
    blocks.append(H)
    fused = np.concatenate(blocks, axis=-1)
    drop = packed_dropout(rng, pad_mask, fused.shape[2:], dropout_rate)
    fused_used = apply_mask(fused, drop)
    logits = fused_used @ params["W_s"].T + params["b_s"]
    f_width = 0 if f_words is None else f_words.shape[-1]
    return logits, dict(p_int=p_int, f_width=f_width, drop=drop,
                        fused_used=fused_used)


def slot_backward_padded(d_logits, cache, params):
    p_int, f_width, W_s = cache["p_int"], cache["f_width"], params["W_s"]
    n_int = p_int.shape[-1]
    flat_d = d_logits.reshape(-1, d_logits.shape[-1])
    grads = {"W_s": flat_d.T @ cache["fused_used"].reshape(-1, W_s.shape[1]),
             "b_s": flat_d.sum(axis=0)}
    d_fused = apply_mask(d_logits @ W_s, cache["drop"])
    d_y_int = softmax_backward(d_fused[..., :n_int].sum(axis=1), p_int, axis=-1)
    d_f = d_fused[..., n_int:n_int + f_width] if f_width else None
    return d_y_int, d_f, d_fused[..., n_int + f_width:], grads


def softmax_slot_loss_padded(slot_scores, tag_ids, pad_mask):
    """Per-sequence mean cross-entropy over (b, n) positions with padding
    masked out, then the batch mean; and its gradient."""
    b, n, _ = slot_scores.shape
    logp = log_softmax(slot_scores, axis=-1)
    gold = np.take_along_axis(logp, tag_ids[:, :, None], axis=-1)[:, :, 0]
    counts = pad_mask.sum(axis=1)
    loss = float((-(gold * pad_mask).sum(axis=1) / counts).mean())
    d = np.exp(logp)
    d[np.arange(b)[:, None], np.arange(n)[None, :], tag_ids] -= 1.0
    d *= (pad_mask / (counts[:, None] * b))[:, :, None]
    return loss, d


def model_padded(params, cfg, batch, gamma, rng=None):
    """The joint model with every layer after the encoder on the padded
    (b, n) layout, as before packing: the reference for model_outputs and
    model_loss_and_grads. The packed per-piece arrays of `batch` are
    scattered to zero-padded blocks here. Returns (l_intent, l_slot, grads,
    y_int, slot_scores, alpha), with slot_scores (b, n, K) and alpha (b, n).
    """
    pad_mask, rate = batch.pad_mask, cfg.dropout_rate
    b = pad_mask.shape[0]
    features = pad_rows(batch.features, pad_mask)
    tag_ids = pad_rows(batch.tag_ids, pad_mask)
    H, enc_cache = encode_padded(batch.ids, pad_mask, params, cfg.encoder, rate, rng)
    y_int, alpha, int_cache = intent_forward_padded(
        H, pad_mask, params, cfg.intent_pool, rate, rng
    )
    f_words = feat_cache = None
    if cfg.slot_features:
        f_words, feat_cache = feature_forward_padded(features, params)
    slot_scores, slot_cache = slot_forward_padded(
        y_int, f_words, H, pad_mask, params, rate, rng
    )

    l_int, d_y_ce = intent_ce(y_int, batch.intent_ids)
    grads = {}
    if cfg.slot_mode == "crf":
        names = {"crf.T": "trans", "crf.start": "start", "crf.end": "end"}
        summed = {name: 0.0 for name in names}
        l_slot, d_slot = 0.0, np.zeros_like(slot_scores)
        for i, L in enumerate(pad_mask.sum(axis=1)):
            nll, g = crf_forward_backward(
                slot_scores[i, :L], tag_ids[i, :L], params["crf.T"],
                params["crf.start"], params["crf.end"],
            )
            l_slot += nll / b
            d_slot[i, :L] = g["emissions"] / b
            for name, key in names.items():
                summed[name] = summed[name] + g[key]
        for name, total in summed.items():
            grads[name] = (1.0 - gamma) * (total / b)
    else:
        l_slot, d_slot = softmax_slot_loss_padded(slot_scores, tag_ids, pad_mask)
    d_y_slot, d_f, d_H_slot, slot_grads = slot_backward_padded(
        (1.0 - gamma) * d_slot, slot_cache, params
    )
    grads.update(slot_grads)
    d_H_int, int_grads = intent_backward_padded(
        gamma * d_y_ce + d_y_slot, int_cache, params
    )
    grads.update(int_grads)
    if cfg.slot_features:
        grads.update(feature_backward_padded(d_f, feat_cache, params))
    grads.update(encode_padded_backward(d_H_int + d_H_slot, enc_cache, params,
                                        cfg.encoder))
    return l_int, l_slot, grads, y_int, slot_scores, alpha
