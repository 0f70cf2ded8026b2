"""Linear-chain CRF over per-position tag scores, batched over sequences.

A path's score is start[y0] + sum of emissions + sum of pairwise transition
scores + end[yL-1] (Sutton & McCallum, "An Introduction to Conditional
Random Fields", arXiv:1011.4088). Training minimizes the negative
log-likelihood, found with its gradient (marginals - gold indicator) by
forward-backward in scaled probability space (Rabiner, "A tutorial on hidden
Markov models", 1989, section V.A): each factor is exp(score - its maximum)
and each forward step is divided by its sum, the logs of the sums adding up
to log Z. Viterbi decodes max-plus in log space and keeps its back pointers
inside the recursion, ties broken toward the lowest tag id.

Every function takes packed rows: emissions (T, K) and tags (T,) hold the
positions of b sequences one after another, and `lengths` (b,) gives each
sequence's length (default: one sequence of all T rows). Nothing is padded.

The recursions step over positions. The rows are regrouped once into
step-major order: position 0 of every sequence, then position 1 of every
sequence that has one, and so on, the sequences ranked longest first. The
sequences still running at a step are then the leading rows of the step
before it, so every step reads and writes contiguous slices.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

import numpy as np


class _Steps(NamedTuple):
    """Where each packed row sits in step-major order.

    Step t holds position t of every sequence longer than t, in rank order,
    at rows offsets[t] .. offsets[t] + counts[t]. rows[r] is the packed row
    of step-major row r (None when the two orders agree); last[i] is the
    step-major row of sequence i's last position.
    """

    lengths: np.ndarray
    rows: Optional[np.ndarray]
    counts: List[int]
    offsets: List[int]
    ranks: List[int]
    last: List[int]


def _steps(T: int, lengths) -> _Steps:
    lengths = np.asarray([T] if lengths is None else lengths, dtype=np.intp)
    if lengths.ndim != 1 or lengths.size < 1:
        raise ValueError(f"need a (b,) array of lengths, got {lengths.shape}")
    if lengths.min() < 1 or lengths.sum() != T:
        raise ValueError(f"sequence lengths must be positive and sum to {T}")
    b = len(lengths)
    if b == 1:  # one sequence is already in step-major order
        rows, ranks, counts, offsets = None, [0], [1] * T, list(range(T))
    else:
        order = np.argsort(-lengths, kind="stable")
        steps = int(lengths[order[0]])
        counts = b - np.cumsum(np.bincount(lengths, minlength=steps))[:steps]
        offsets = np.cumsum(counts) - counts
        rank_of_row = np.arange(T) - np.repeat(offsets, counts)
        starts = np.cumsum(lengths) - lengths
        rows = starts[order][rank_of_row] + np.repeat(np.arange(steps), counts)
        rank = np.empty(b, dtype=np.intp)
        rank[order] = np.arange(b)
        ranks, counts, offsets = rank.tolist(), counts.tolist(), offsets.tolist()
    last = [offsets[L - 1] + r for L, r in zip(lengths.tolist(), ranks)]
    return _Steps(lengths, rows, counts, offsets, ranks, last)


def _inputs(emissions, trans, start, end, lengths):
    """Checked emissions, in the dtype of the transition scores, and their
    layout, and the emissions in step-major order."""
    emissions = np.asarray(emissions, dtype=trans.dtype)
    if emissions.ndim != 2:
        raise ValueError(f"emissions must be (T, K), got {emissions.shape}")
    T, K = emissions.shape
    if trans.shape != (K, K) or start.shape != (K,) or end.shape != (K,):
        raise ValueError("transition/start/end shapes disagree with emissions")
    steps = _steps(T, lengths)
    em = emissions if steps.rows is None else emissions[steps.rows]
    return emissions, steps, em


def _path_scores(emissions, tags, lengths, trans, start, end) -> np.ndarray:
    """Unnormalized log-score of each sequence's tag path, on packed rows."""
    starts = np.cumsum(lengths) - lengths
    # Row t's term: its emission plus the transition into it, none at a start.
    terms = emissions[np.arange(len(tags)), tags]
    terms[1:] += trans[tags[:-1], tags[1:]]
    terms[starts] = emissions[starts, tags[starts]]
    score = np.add.reduceat(terms, starts)
    score += start[tags[starts]] + end[tags[starts + lengths - 1]]
    return score


# The check on log Z reports a zero scale or a NaN score; neither warns first.
@np.errstate(divide="ignore", invalid="ignore")
def crf_nll(
    emissions: np.ndarray,
    tags,
    trans: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    lengths=None,
):
    """Negative log-likelihood of each gold path, log Z - score(gold), and
    the cache crf_nll_backward needs.

    The loss is a (b,) array, as is the cache's "log_z", each sequence's
    log Z. A sequence whose every path's weight underflows to 0 in the
    scores' dtype, or a NaN score, raises FloatingPointError naming it.
    """
    emissions, steps, em = _inputs(emissions, trans, start, end, lengths)
    T, K = emissions.shape
    tags = np.asarray(tags)
    if tags.shape != (T,):
        raise ValueError(f"need tags of shape {(T,)}, got {tags.shape}")
    if tags.min() < 0 or tags.max() >= K:
        raise ValueError("tag id out of range")
    counts, offsets = steps.counts, steps.offsets
    b = counts[0]

    # Every factor is exp(score - its maximum), at most 1, and each step's
    # alpha is divided by its sum, the step's scale c, so alpha[r] is the
    # distribution of row r's tag given the scores up to it.
    em_max, trans_max = em.max(axis=1), trans.max()
    weights, pair = np.exp(em - em_max[:, None]), np.exp(trans - trans_max)
    alpha, scale = np.empty_like(weights), np.empty(T, weights.dtype)
    np.multiply(np.exp(start - start.max()), weights[:b], out=alpha[:b])
    for t, (lo, m) in enumerate(zip(offsets, counts)):
        if t:
            prev = offsets[t - 1]
            np.matmul(alpha[prev:prev + m], pair, out=alpha[lo:lo + m])
            alpha[lo:lo + m] *= weights[lo:lo + m]
        np.add.reduce(alpha[lo:lo + m], axis=1, out=scale[lo:lo + m])
        alpha[lo:lo + m] /= scale[lo:lo + m, None]

    # Per sequence, log Z sums every row's log c and shifts (one transition
    # shift per row after the first) and the last row's end weights.
    terms = np.log(scale) + em_max
    terms[b:] += trans_max
    if steps.rows is not None:
        terms[steps.rows] = terms.copy()
    log_z = np.add.reduceat(terms, np.cumsum(steps.lengths) - steps.lengths)
    log_z += np.log(alpha[steps.last] @ np.exp(end - end.max()))
    log_z += start.max() + end.max()
    bad = np.flatnonzero(~np.isfinite(log_z))
    if bad.size:
        raise FloatingPointError(
            f"CRF sequence {bad[0]} has no finite log Z in {weights.dtype}: every "
            "tag path's weight underflows, or a score is not finite"
        )

    nll = log_z - _path_scores(emissions, tags, steps.lengths, trans, start, end)
    cache = dict(
        steps=steps, tags=tags if steps.rows is None else tags[steps.rows],
        weights=weights, scale=scale, alpha=alpha, trans=trans, end=end,
        log_z=log_z,
    )
    return nll, cache


def crf_nll_backward(cache: dict) -> dict[str, np.ndarray]:
    """Exact gradients of the summed crf_nll w.r.t. emissions, trans, start
    and end.

    The emission gradient is the classic (posterior marginals - gold one-hot),
    packed like the emissions passed in. Transition, start and end gradients
    follow the same pattern with pairwise and boundary marginals, summed over
    the batch.
    """
    steps, tags, trans = cache["steps"], cache["tags"], cache["trans"]
    weights, scale, alpha = cache["weights"], cache["scale"], cache["alpha"]
    counts, offsets = steps.counts, steps.offsets
    T, K = alpha.shape
    b = counts[0]
    pair = np.exp(trans - trans.max())
    end_weights = np.exp(cache["end"] - cache["end"].max())

    # beta is scaled so that alpha * beta are the marginals; row r passes
    # q[r] = weights[r] * beta[r] / c[r] back to the row before it.
    beta = np.empty_like(alpha)
    beta[steps.last] = end_weights / (alpha[steps.last] @ end_weights)[:, None]
    q = weights / scale[:, None]
    for t in range(len(counts) - 2, -1, -1):
        lo, m, nxt = offsets[t], counts[t + 1], offsets[t + 1]
        q[nxt:nxt + m] *= beta[nxt:nxt + m]
        np.matmul(q[nxt:nxt + m], pair.T, out=beta[lo:lo + m])

    d_em = alpha * beta
    d_em[np.arange(T), tags] -= 1.0

    # Pairwise marginals of every transition inside a sequence, summed:
    # step-major row r >= b follows row r - (the count of the step before it).
    prev = np.arange(b, T) - np.repeat(
        np.array(counts[:-1], dtype=np.intp), counts[1:]
    )
    d_trans = pair * (alpha[prev].T @ q[b:])
    d_trans -= np.bincount(tags[prev] * K + tags[b:], minlength=K * K).reshape(K, K)

    grads = dict(trans=d_trans, start=d_em[:b].sum(axis=0),
                 end=d_em[steps.last].sum(axis=0))
    if steps.rows is not None:
        d_em[steps.rows] = d_em.copy()
    return dict(emissions=d_em, **grads)


def viterbi(
    emissions: np.ndarray,
    trans: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    lengths=None,
) -> np.ndarray:
    """Highest-scoring tag path of each sequence; argmax ties pick the
    lowest tag id.

    Returns the (T,) tags, packed like the emissions.
    """
    _, steps, em = _inputs(emissions, trans, start, end, lengths)
    counts, offsets = steps.counts, steps.offsets
    # delta[r, j]: best score of a path prefix ending in tag j at row r;
    # back[r, j]: the best tag one position earlier, given tag j at row r.
    delta, back = np.empty(em.shape, em.dtype), np.empty(em.shape, np.intp)
    np.add(start, em[:counts[0]], out=delta[:counts[0]])
    for t in range(1, len(counts)):
        lo, m, prev = offsets[t], counts[t], offsets[t - 1]
        # (sequence, next tag, previous tag): one block for max and argmax
        into = delta[prev:prev + m, None, :] + trans.T
        into.argmax(axis=2, out=back[lo:lo + m])
        np.add(em[lo:lo + m], np.maximum.reduce(into, axis=2), out=delta[lo:lo + m])
    tags = (delta[steps.last] + end).argmax(axis=1).tolist()
    back = back.tolist()

    # The walk back along the pointers is on Python ints: a step costs far
    # less than one numpy call, which matters most for a batch of one.
    paths = []
    for tag, rank, length in zip(tags, steps.ranks, steps.lengths.tolist()):
        path = [tag]
        for t in range(length - 1, 0, -1):
            tag = back[offsets[t] + rank][tag]
            path.append(tag)
        paths.extend(reversed(path))
    return np.array(paths, dtype=np.intp)
