"""Independent reference implementations the test suite checks against.

Everything here is deliberately brute-force and shares no code with the
package: chunking by scanning all (start, end, label) triples, CRF partition
and decoding by exhaustive enumeration, and gradients by central finite
differences. The one exception is `model_losses`, the joint model's loss
without any backward pass, which the finite-difference checks probe.
"""

from __future__ import annotations

import itertools

import numpy as np

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


def model_losses(params, cfg, batch, rng=None):
    """Forward-only (l_intent, l_slot): the package's forward pass and loss
    terms, with the CRF's negative log-likelihood taken from crf_nll and no
    backward pass run."""
    from jointnlu.crf import crf_nll
    from jointnlu.model import _intent_ce, _softmax_slot_loss, model_outputs

    y_int, slot_scores, _, _ = model_outputs(params, cfg, batch, rng)
    l_int, _ = _intent_ce(y_int, batch.intent_ids)
    if cfg.slot_mode == "crf":
        nll, _ = crf_nll(
            slot_scores, batch.tag_ids, params["crf.T"], params["crf.start"],
            params["crf.end"], batch.lengths,
        )
        return l_int, float(nll.sum()) / len(nll)
    l_slot, _ = _softmax_slot_loss(slot_scores, batch.tag_ids, batch.pad_mask)
    return l_int, l_slot


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
    call and the label read back through the phrase's joined text. Words no
    phrase covers get the package's rule label (an empty gazetteer).
    """
    from jointnlu.features import PhraseIndex, annotate_entities, resolve_raw_label

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
            out.extend(annotate_entities([words[i]], PhraseIndex({}, 0), english_dict))
            i += 1
    return out
