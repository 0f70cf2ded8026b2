"""Two short toy runs reproduce the committed golden outputs bit for bit.

Checkpoints, training logs and served outputs of both slot heads are pinned
by tests/golden_outputs.json. The bits also depend on numpy, the BLAS and
the CPU, so on another environment the test skips and names what differs.
A change that moves the numbers on purpose regenerates the file:

    PYTHONPATH=src python tests/golden.py > tests/golden_outputs.json
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_outputs.json"


def test_toy_runs_reproduce_the_golden_outputs():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "golden.py")], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    got, want = json.loads(done.stdout), json.loads(GOLDEN.read_text())
    for field, value in want["environment"].items():
        if got["environment"].get(field) != value:
            pytest.skip(
                f"golden outputs were made with {field} {value!r}, "
                f"this environment has {got['environment'].get(field)!r}"
            )
    for head, outputs in want["heads"].items():
        for key, value in outputs.items():
            assert got["heads"][head][key] == value, f"{head} head: {key} moved"
