"""Golden outputs: the bits of two short toy runs, one per slot head, as JSON.

    PYTHONPATH=src python tests/golden.py > tests/golden_outputs.json

For each of the softmax and CRF heads it trains 2 epochs on
toy_grammar(0, 60, 20, 10) in batches of 16 and prints, per head, SHA-256
digests of the saved checkpoint's members, of the training log's lines and
of the served outputs at batch 1 and at batch 64, and each epoch's l_joint
as float.hex. Batches of 16 make 4 steps an epoch: the warmup gives the
first step a learning rate of 0, so with one batch an epoch a checkpoint
selected at epoch 0 would hold the initial parameters, and no change to
the gradients or the optimizer could move it.

The environment block records what the bits depend on besides the code:
numpy, its BLAS and the CPU. tests/test_golden_outputs.py compares a fresh
run with the committed file; a change that moves the numbers on purpose
regenerates it with the command above.
"""

import os

# Pinned before numpy is first imported: the bits depend on the BLAS threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np

from jointnlu import TrainConfig, predict, save_checkpoint, toy_grammar, train


def _cpu_model() -> str:
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "cpu": _cpu_model(),
        "machine": platform.machine(),
    }


def _archive_digest(ckpt) -> str:
    """Every member of the saved archive as np.load reads it; the zip file
    itself holds timestamps."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.npz"
        save_checkpoint(ckpt, path)
        with np.load(path) as archive:
            for name in archive.files:
                arr = archive[name]
                head = f"{name} {arr.dtype.str} {arr.shape}\n"
                digest.update(head.encode("utf-8"))
                digest.update(arr.tobytes())
    return digest.hexdigest()


def _served_digest(ckpt, utterances, batch_size: int) -> str:
    digest = hashlib.sha256()
    for p in predict(ckpt, utterances, batch_size=batch_size):
        facts = [p.intent, [str(t) for t in p.tags], list(p.seq.piece_ids),
                 p.seq.truncated]
        digest.update(json.dumps(facts).encode("utf-8"))
        digest.update(p.alpha.tobytes())
    return digest.hexdigest()


def head_outputs(slot_mode: str) -> dict:
    data = toy_grammar(0, 60, 20, 10)
    config = TrainConfig(epochs=2, batch_size=16, slot_mode=slot_mode)
    result = train(data.train, data.dev, config, data.featurizer())
    ckpt = result.checkpoint
    # The dev and test words, and one utterance longer than max_len.
    utterances = [u.words for u in data.dev + data.test]
    utterances.append(sum(utterances, ()))
    log = "".join(record.to_line() + "\n" for record in result.history)
    return {
        "checkpoint_sha256": _archive_digest(ckpt),
        "log_sha256": hashlib.sha256(log.encode("utf-8")).hexdigest(),
        "l_joint_hex": [record.l_joint.hex() for record in result.history],
        "served_b1_sha256": _served_digest(ckpt, utterances, 1),
        "served_b64_sha256": _served_digest(ckpt, utterances, 64),
    }


def main() -> None:
    golden = {
        "environment": environment(),
        "heads": {mode: head_outputs(mode) for mode in ("softmax", "crf")},
    }
    print(json.dumps(golden, indent=2))


if __name__ == "__main__":
    main()
