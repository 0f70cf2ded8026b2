"""Linear-chain CRF over per-position tag scores, batched over sequences.

A path's score is start[y0] + sum of emissions + sum of pairwise transition
scores + end[yL-1]. Training minimizes the negative log-likelihood computed
with a log-space forward pass; its gradient is (marginals - gold indicator),
obtained from a log-space forward-backward sweep (Sutton & McCallum, "An
Introduction to Conditional Random Fields", arXiv:1011.4088). Decoding is
Viterbi with ties broken toward the lowest tag id at each backtrack step.

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


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(x))) along `axis`, shifted by the maximum so nothing
    overflows; a slice that is all -inf gives -inf."""
    shift = x.max(axis=axis, keepdims=True)
    shift[np.isneginf(shift)] = 0.0
    out = np.exp(x - shift).sum(axis=axis)
    np.log(out, out=out)
    out += np.squeeze(shift, axis)
    return out


def _forward(em, steps: _Steps, trans, start, reduce) -> np.ndarray:
    """The forward recursion: log alpha with _logsumexp, Viterbi's delta with a max."""
    counts, offsets = steps.counts, steps.offsets
    out = np.empty(em.shape, em.dtype)
    np.add(start, em[:counts[0]], out=out[:counts[0]])
    for t in range(1, len(counts)):
        lo, m, prev = offsets[t], counts[t], offsets[t - 1]
        best = reduce(out[prev:prev + m, :, None] + trans, axis=1)
        np.add(em[lo:lo + m], best, out=out[lo:lo + m])
    return out


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


# log(0) = -inf is the expected log-sum of a tag no path reaches.
@np.errstate(divide="ignore")
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
    log Z.
    """
    emissions, steps, em = _inputs(emissions, trans, start, end, lengths)
    T, K = emissions.shape
    tags = np.asarray(tags)
    if tags.shape != (T,):
        raise ValueError(f"need tags of shape {(T,)}, got {tags.shape}")
    if tags.min() < 0 or tags.max() >= K:
        raise ValueError("tag id out of range")

    log_alpha = _forward(em, steps, trans, start, _logsumexp)
    log_z = _logsumexp(log_alpha[steps.last] + end, axis=1)

    nll = log_z - _path_scores(emissions, tags, steps.lengths, trans, start, end)
    cache = dict(
        steps=steps, em=em, tags=tags if steps.rows is None else tags[steps.rows],
        trans=trans, end=end, log_alpha=log_alpha, log_z=log_z,
    )
    return nll, cache


@np.errstate(divide="ignore")
def crf_nll_backward(cache: dict) -> dict[str, np.ndarray]:
    """Exact gradients of the summed crf_nll w.r.t. emissions, trans, start
    and end.

    The emission gradient is the classic (posterior marginals - gold one-hot),
    packed like the emissions passed in. Transition, start and end gradients
    follow the same pattern with pairwise and boundary marginals, summed over
    the batch.
    """
    steps, em, tags, trans = cache["steps"], cache["em"], cache["tags"], cache["trans"]
    log_alpha, log_z = cache["log_alpha"], cache["log_z"]
    counts, offsets = steps.counts, steps.offsets
    T, K = em.shape
    b = counts[0]

    log_beta = np.empty((T, K), dtype=em.dtype)
    log_beta[steps.last] = cache["end"]
    for t in range(len(counts) - 2, -1, -1):
        lo, m, nxt = offsets[t], counts[t + 1], offsets[t + 1]
        log_beta[lo:lo + m] = _logsumexp(
            trans + (em[nxt:nxt + m] + log_beta[nxt:nxt + m])[:, None, :], axis=2
        )

    # Each step-major row's log Z.
    row_log_z = np.repeat(log_z, steps.lengths)
    if steps.rows is not None:
        row_log_z = row_log_z[steps.rows]
    d_em = np.exp(log_alpha + log_beta - row_log_z[:, None])
    d_em[np.arange(T), tags] -= 1.0

    # Pairwise marginals of every transition inside a sequence: step-major
    # row r >= b follows row r - (the count of the step before it).
    prev = np.arange(b, T) - np.repeat(
        np.array(counts[:-1], dtype=np.intp), counts[1:]
    )
    log_pair = (
        log_alpha[prev][:, :, None]
        + trans
        + (em[b:] + log_beta[b:])[:, None, :]
        - row_log_z[b:, None, None]
    )
    d_trans = np.exp(log_pair, out=log_pair).sum(axis=0)
    d_trans -= np.bincount(tags[prev] * K + tags[b:], minlength=K * K).reshape(K, K)

    if steps.rows is None:
        d_emissions = d_em
    else:
        d_emissions = np.empty_like(d_em)
        d_emissions[steps.rows] = d_em
    return dict(
        emissions=d_emissions,
        trans=d_trans,
        start=d_em[:b].sum(axis=0),
        end=d_em[steps.last].sum(axis=0),
    )


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
    emissions, steps, em = _inputs(emissions, trans, start, end, lengths)
    offsets, K = steps.offsets, emissions.shape[1]
    # delta[r, j]: best score of a path prefix ending in tag j at row r.
    delta = _forward(em, steps, trans, start, np.maximum.reduce)
    # choice[r][j] for j < K: the best tag at row r before tag j at the next
    # position; choice[r][K]: the best last tag if the sequence ends at row
    # r. One argmax over every row, previous tag on the last axis.
    into = np.concatenate([trans.T, end[None]])
    choice = (delta[:, None, :] + into).argmax(axis=2).tolist()

    # The walk back along the pointers is on Python ints: a step costs far
    # less than one numpy call, which matters most for a batch of one.
    paths = []
    for rank, last, length in zip(steps.ranks, steps.last, steps.lengths.tolist()):
        tag = choice[last][K]
        path = [tag]
        for t in range(length - 2, -1, -1):
            tag = choice[offsets[t] + rank][tag]
            path.append(tag)
        paths.extend(reversed(path))
    return np.array(paths, dtype=np.intp)
