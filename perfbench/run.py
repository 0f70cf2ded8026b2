"""Benchmark of the jointnlu package: one workload per run, or all of them.

    python3 perfbench/run.py --workload train-crf --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one table

Run from the repository root. A single-workload run prints its metrics and
gates, then, as its last line, one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. It writes a full record (environment,
input hashes, gates) and, when traced, the spans to perfbench/out/.

Exit codes: 0 every gate passed, 1 a gate failed (the result is still
printed), 2 bad usage or no jointnlu package under src/.
"""

import os

# Pinned before numpy is first imported, here and in every child process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.dont_write_bytecode = True


def _import_program():
    """Import jointnlu from this checkout's src/ and nowhere else."""
    if not (SRC / "jointnlu" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import jointnlu

    if Path(jointnlu.__file__).resolve().parent != SRC / "jointnlu":
        return None
    return jointnlu


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def run_one(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads
    import tracing
    from jointnlu import DivergenceError

    workload = workloads.WORKLOADS[workload_name]
    OUT.mkdir(exist_ok=True)
    gates = workloads.Gates()
    record = {
        "workload": workload_name,
        "why": workload.why,
        "trace": int(trace),
        "seconds": seconds,
        "environment": environment(seed),
        "model_recipe": {
            "train_config": workloads.train_config(workload).to_kv_text(),
            "encoder": "DESK_ENCODER",
            "sizes": [workloads.N_TRAIN, workloads.N_DEV, workloads.N_TEST],
            "vocab_target": workloads.VOCAB_TARGET,
            "served_gazetteer_phrases": workload.gazetteer_phrases
            or "toy gazetteer",
        },
    }
    metrics = {}
    try:
        if not trace:
            p = workloads.run_pass(workload, seed, seconds, gates, OUT)
            metrics = workloads.end_to_end_metrics(p)
        else:
            rounds = workloads.MIN_ROUNDS
            untraced = workloads.run_pass(workload, seed, seconds, gates, OUT,
                                          rounds=rounds)
            tracer = tracing.Tracer()
            p = workloads.run_pass(workload, seed, seconds, gates, OUT,
                                   rounds=rounds, tracer=tracer)
            # Tracing must leave the arithmetic alone.
            gates.fail("trace_changed_loss", int(
                p.train_losses != untraced.train_losses))
            metrics = workloads.per_layer_metrics(tracer, untraced, p)
            spans_path = OUT / f"{workload_name}-seed{seed}.spans.json"
            spans_path.write_text(json.dumps(dict(
                tracer.to_dict(),
                sampler_start_s=p.sampler.starts,
                sampler_end_s=p.sampler.ends,
            )))
            record["spans_file"] = spans_path.name
        record.update(
            rounds=p.rounds,
            input_hashes=p.hashes,
            checkpoint_hash=p.checkpoint_hash,
            wall_s=p.raw_s,
            train_loss_hex=[x.hex() for x in p.train_losses],
        )
    except DivergenceError as err:
        record["error"] = str(err)

    correct = gates.failed == 0 and "error" not in record
    record.update(
        correct=correct,
        attempted=gates.attempted,
        failed=gates.failed,
        fail_frac=gates.failed / max(gates.attempted, 1),
        violations=gates.violations,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    record_path = OUT / f"{workload_name}-seed{seed}-trace{int(trace)}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_frac = {record['fail_frac']:.6g} "
          f"({gates.failed} of {gates.attempted} operations)")
    for gate, n in sorted(gates.violations.items()):
        print(f"GATE FAILED {gate}: {n}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(gates.attempted, 1),
        "failed": gates.failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own fresh process, which inherits the pinned
    thread variables; prints each one's metrics and gates."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exited {proc.returncode} without a result")
            status = 1
            continue
        result = json.loads(lines[-1])
        status = max(status, proc.returncode)
        print(f"== {name} ({'ok' if result['correct'] else 'GATE FAILED'}, "
              f"{result['failed']} of {result['attempted']} operations failed)")
        for line in lines[:-1]:
            print(f"  {line}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if _import_program() is None:
        print(f"error: no jointnlu package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    import workloads

    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
