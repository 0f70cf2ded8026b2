"""Linear-chain CRF over per-position tag scores, batched over sequences.

A path's score is start[y0] + sum of emissions + sum of pairwise transition
scores + end[yL-1]. Training minimizes the negative log-likelihood computed
with a log-space forward pass; its gradient is (marginals - gold indicator),
obtained from a log-space forward-backward sweep (Sutton & McCallum, "An
Introduction to Conditional Random Fields", arXiv:1011.4088). Decoding is
Viterbi with ties broken toward the lowest tag id at each backtrack step.

Every function takes a padded batch: emissions (b, n, K), tags (b, n) and
`lengths` (b,), each in 1..n (default: all n). Positions at or past a
sequence's length are padding; their values are never read and their
emission gradient is exactly 0. One sequence is a batch of one.

The recursions step over positions and update only the sequences that are
still running. The batch is sorted by length, longest first, so those are
always a leading block of rows.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np


class _Batch:
    """Inputs sorted by length, longest first, with the recursion bounds."""

    def __init__(self, emissions, trans, start, end, lengths):
        emissions = np.asarray(emissions, dtype=np.float64)
        if emissions.ndim != 3:
            raise ValueError(f"emissions must be (b, n, K), got {emissions.shape}")
        b, n, K = emissions.shape
        if b < 1 or n < 1:
            raise ValueError("need at least one sequence and one position")
        if trans.shape != (K, K) or start.shape != (K,) or end.shape != (K,):
            raise ValueError("transition/start/end shapes disagree with emissions")
        if lengths is None:
            lengths = np.full(b, n)
        lengths = np.asarray(lengths, dtype=np.intp)
        if lengths.shape != (b,):
            raise ValueError(f"need one length per sequence, got {lengths.shape}")
        by_length = lengths.tolist()
        if any(x < y for x, y in zip(by_length, by_length[1:])):
            self.order = np.argsort(-lengths, kind="stable")
            lengths, emissions = lengths[self.order], emissions[self.order]
            by_length = lengths.tolist()
        else:  # already longest first, as any batch of one is
            self.order = None
        if by_length[-1] < 1 or by_length[0] > n:
            raise ValueError(f"sequence lengths must be in 1..{n}")
        self.lengths, self.emissions, self.shape = lengths, emissions, (b, n, K)
        # running[t]: how many sequences have a position t; they are the
        # first rows.
        self.running = []
        m = b
        for t in range(by_length[0]):
            while by_length[m - 1] <= t:
                m -= 1
            self.running.append(m)

    @cached_property
    def real(self) -> np.ndarray:
        """(b, n) mask, True at the positions of a sequence."""
        return np.arange(self.shape[1])[None, :] < self.lengths[:, None]

    def tags(self, tags) -> np.ndarray:
        """Gold tags in sorted order, padding set to tag 0."""
        tags = np.asarray(tags)
        if tags.shape != self.shape[:2]:
            raise ValueError(
                f"need tags of shape {self.shape[:2]}, got {tags.shape}"
            )
        if self.order is not None:
            tags = tags[self.order]
        tags = np.where(self.real, tags, 0)
        if tags.min() < 0 or tags.max() >= self.shape[2]:
            raise ValueError("tag id out of range")
        return tags

    def restore(self, sorted_rows: np.ndarray) -> np.ndarray:
        """Put per-sequence rows back in input order."""
        if self.order is None:
            return sorted_rows
        out = np.empty_like(sorted_rows)
        out[self.order] = sorted_rows
        return out


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(x))) along `axis`, shifted by the maximum so nothing
    overflows; a slice that is all -inf gives -inf."""
    shift = x.max(axis=axis, keepdims=True)
    shift[np.isneginf(shift)] = 0.0
    out = np.exp(x - shift).sum(axis=axis)
    np.log(out, out=out)
    out += np.squeeze(shift, axis)
    return out


def _path_scores(batch: _Batch, tags: np.ndarray, trans, start, end) -> np.ndarray:
    """Unnormalized log-score of each sorted sequence's tag path."""
    b = batch.shape[0]
    gold = np.take_along_axis(batch.emissions, tags[:, :, None], axis=2)[:, :, 0]
    score = np.where(batch.real, gold, 0.0).sum(axis=1)
    pairs = trans[tags[:, :-1], tags[:, 1:]]
    score += np.where(batch.real[:, 1:], pairs, 0.0).sum(axis=1)
    score += start[tags[:, 0]] + end[tags[np.arange(b), batch.lengths - 1]]
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

    The loss is a (b,) array; the cache's "log_z" holds each sequence's
    log Z, longest sequence first.
    """
    batch = _Batch(emissions, trans, start, end, lengths)
    tags = batch.tags(tags)
    em, running = batch.emissions, batch.running
    b, n, K = batch.shape

    log_alpha = np.zeros((b, n, K))
    log_alpha[:, 0] = start + em[:, 0]
    for t in range(1, len(running)):
        m = running[t]
        log_alpha[:m, t] = em[:m, t] + _logsumexp(
            log_alpha[:m, t - 1, :, None] + trans, axis=1
        )
    last = log_alpha[np.arange(b), batch.lengths - 1]
    log_z = _logsumexp(last + end, axis=1)

    nll = batch.restore(log_z - _path_scores(batch, tags, trans, start, end))
    cache = dict(
        batch=batch, tags=tags, trans=trans, end=end,
        log_alpha=log_alpha, log_z=log_z,
    )
    return nll, cache


@np.errstate(divide="ignore")
def crf_nll_backward(cache: dict) -> dict[str, np.ndarray]:
    """Exact gradients of the summed crf_nll w.r.t. emissions, trans, start
    and end.

    The emission gradient is the classic (posterior marginals - gold one-hot)
    at real positions and 0 at padding, shaped like the emissions passed in.
    Transition, start and end gradients follow the same pattern with
    pairwise and boundary marginals, summed over the batch.
    """
    batch, tags, trans = cache["batch"], cache["tags"], cache["trans"]
    log_alpha, log_z = cache["log_alpha"], cache["log_z"]
    em, running, real, lengths = (
        batch.emissions, batch.running, batch.real, batch.lengths,
    )
    b, n, K = batch.shape
    rows = np.arange(b)

    log_beta = np.zeros((b, n, K))
    log_beta[rows, lengths - 1] = cache["end"]
    for t in range(len(running) - 2, -1, -1):
        m = running[t + 1]
        log_beta[:m, t] = _logsumexp(
            trans + (em[:m, t + 1] + log_beta[:m, t + 1])[:, None, :], axis=2
        )

    d_emissions = np.zeros((b, n, K))
    d_emissions[real] = np.exp(
        log_alpha[real] + log_beta[real] - np.repeat(log_z, lengths)[:, None]
    )
    seq, pos = np.nonzero(real)
    d_emissions[seq, pos, tags[seq, pos]] -= 1.0

    # Pairwise marginals of every transition inside a sequence, t -> t+1.
    inner = real[:, 1:]
    log_pair = (
        log_alpha[:, :-1][inner][:, :, None]
        + trans
        + (em[:, 1:][inner] + log_beta[:, 1:][inner])[:, None, :]
        - np.repeat(log_z, lengths - 1)[:, None, None]
    )
    d_trans = np.exp(log_pair, out=log_pair).sum(axis=0)
    moves = tags[:, :-1][inner] * K + tags[:, 1:][inner]
    d_trans -= np.bincount(moves, minlength=K * K).reshape(K, K)

    return dict(
        emissions=batch.restore(d_emissions),
        trans=d_trans,
        start=d_emissions[:, 0].sum(axis=0),
        end=d_emissions[rows, lengths - 1].sum(axis=0),
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

    Returns (b, n) paths with 0 at padded positions.
    """
    batch = _Batch(emissions, trans, start, end, lengths)
    running = batch.running
    b, n, K = batch.shape
    steps = len(running)
    em = batch.emissions.transpose(1, 0, 2)

    # delta[t, i, j]: best score of sequence i's path prefix ending in tag j
    # at position t.
    delta = np.zeros((steps, b, K))
    np.add(start, em[0], out=delta[0])
    for t in range(1, steps):
        m = running[t]
        best = np.maximum.reduce(delta[t - 1, :m, :, None] + trans, axis=1)
        np.add(em[t, :m], best, out=delta[t, :m])
    # choice[i][t][j] for j < K: the best tag before tag j at position t + 1
    # of sequence i; choice[i][t][K]: the best last tag if sequence i ends at
    # position t. One argmax over every step, previous tag on the last axis.
    into = np.concatenate([trans.T, end[None]])
    choice = (delta[:, :, None, :] + into).argmax(axis=3).transpose(1, 0, 2)

    # The walk back along the pointers is on Python ints: a step costs far
    # less than one numpy call, which matters most for a batch of one.
    paths = []
    for steps_back, length in zip(choice.tolist(), batch.lengths.tolist()):
        tag = steps_back[length - 1][K]
        path = [tag]
        for step in reversed(steps_back[:length - 1]):
            tag = step[tag]
            path.append(tag)
        paths.append(path[::-1] + [0] * (n - length))
    return batch.restore(np.array(paths, dtype=np.intp))
