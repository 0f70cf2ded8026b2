"""
Structured decoding: linear-chain CRF vs independent softmax
============================================================

The slot head can decode each position independently (argmax over the
emission scores) or through a linear-chain CRF whose transition table
scores tag-to-tag moves. The CRF's log-partition function is checked
against brute-force enumeration here, and a crafted example shows the
two decoders disagreeing. The CRF functions take packed rows, (positions,
tags), and the length of each sequence packed in them; with no lengths the
rows are one sequence. Nothing is padded.
"""

import itertools

import numpy as np

from jointnlu import crf_nll, viterbi

rng = np.random.default_rng(3)
n_positions, n_tags = 4, 3
emissions = rng.normal(size=(n_positions, n_tags))
trans = rng.normal(size=(n_tags, n_tags)) * 0.5
start = rng.normal(size=n_tags) * 0.5
end = rng.normal(size=n_tags) * 0.5

# ------------------------------------------------------------------
# Brute force: score every possible tag path, log-sum-exp them. The
# forward algorithm inside crf_nll must match to float precision.
# ------------------------------------------------------------------
def path_score(path):
    s = start[path[0]] + emissions[0, path[0]]
    for i in range(1, n_positions):
        s += trans[path[i - 1], path[i]] + emissions[i, path[i]]
    return s + end[path[-1]]

all_paths = list(itertools.product(range(n_tags), repeat=n_positions))
log_partition_brute = np.logaddexp.reduce([path_score(p) for p in all_paths])

gold = np.array([0, 1, 1, 2])
nll, _ = crf_nll(emissions, gold, trans, start, end)
log_partition = path_score(tuple(gold)) + nll[0]
print("log partition, brute force:", round(float(log_partition_brute), 10))
print("log partition, forward alg:", round(float(log_partition), 10))

best_brute = max(all_paths, key=path_score)
best_viterbi = viterbi(emissions, trans, start, end)
print("best path, brute force:", list(best_brute))
print("best path, viterbi:    ", [int(t) for t in best_viterbi])

# ------------------------------------------------------------------
# Where structure matters. Tag inventory: 0=O, 1=B, 2=I. Position 1
# weakly prefers I on its own, but an I can only follow B or I. The
# independent decoder emits the invalid O -> I move; the CRF, given a
# transition table that forbids it, does not.
# ------------------------------------------------------------------
emissions = np.array([
    [1.0, 0.2, 0.8],   # O slightly beats I here
    [0.4, 0.3, 0.9],   # I wins on emissions alone
    [1.2, 0.1, 0.3],
])
no_move = -1e4
trans = np.zeros((3, 3))
trans[0, 2] = no_move   # O -> I forbidden
start = np.array([0.0, 0.0, no_move])
end = np.zeros(3)

independent = emissions.argmax(axis=1)
structured = viterbi(emissions, trans, start, end)
names = np.array(["O", "B", "I"])
print("\nindependent decode:", [str(n) for n in names[independent]])
print("structured decode: ", [str(n) for n in names[structured]])

# ------------------------------------------------------------------
# A batch is its sequences' rows one after another, and their lengths.
# Here the 3-position example and a 2-position one that reads B I,
# decoded in one call: each sequence decodes as it does alone.
# ------------------------------------------------------------------
second = np.array([[0.1, 1.0, 0.0], [0.2, 0.0, 1.0]])
batch = np.concatenate([emissions, second])
paths = viterbi(batch, trans, start, end, lengths=[3, 2])
alone = viterbi(second, trans, start, end)
print("\nbatch of lengths 3 and 2:", [str(n) for n in names[paths]])
assert np.array_equal(paths[:3], structured)
assert np.array_equal(paths[3:], alone)
