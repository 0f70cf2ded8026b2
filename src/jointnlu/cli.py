"""Operator commands: train, eval, compare, attn, annotate.

Batch commands only; every run is deterministic given its inputs. `train`
reads the files of `data.DATA_FILES` and leaves a manifest, one JSON object
pinning all it takes to redo the run bit for bit (settings, seed, corpus
fingerprints, numerics).

Exit codes: 0 success, 2 bad usage or bad inputs, 3 training divergence,
130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .data import DATA_FILES, lint_corpus, load_corpus, read_utf8, staged
from .features import WordFeaturizer
from .model import COMPUTE_DTYPE, load_checkpoint, save_checkpoint
from .tagging import HEADLINE_MEASURES, read_kv, relative_error_reduction
from .training import (
    DivergenceError,
    TrainResult,
    evaluate,
    predict,
    score,
    select_best,
    train,
    validate_config_text,
)

# Environment variables that set the BLAS thread count, which can change
# the summation order of matrix products and so the bits of a run.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load_data_dir(data_dir: Path):
    """Load corpora and annotation resources, fingerprinting every file."""
    if not data_dir.is_dir():
        raise ValueError(f"data directory not found: {data_dir}")
    paths = {role: data_dir / name for role, name in DATA_FILES.items()}
    if not paths["test"].is_file():  # the one optional file
        del paths["test"]
    missing = [p.name for p in paths.values() if not p.is_file()]
    if missing:
        raise ValueError(f"{data_dir} is missing {', '.join(missing)}")
    corpora = {split: load_corpus(paths[split]) for split in ("train", "dev")}
    for split, corpus in corpora.items():
        if not corpus:
            raise ValueError(f"{paths[split]} holds no utterances")
    if "test" in paths:
        corpora["test"] = load_corpus(paths["test"])
    hashes = {p.name: _sha256(p) for p in paths.values()}
    featurizer = WordFeaturizer.from_files(paths["lexicon"], paths["gazetteer"],
                                           paths["english_dict"])
    return corpora, featurizer, hashes


def _train_one(config, corpora, hashes, featurizer, run_dir: Path,
               data_dir: str) -> TrainResult:
    t0 = time.perf_counter()
    result = train(corpora["train"], corpora["dev"], config, featurizer)
    run_dir.mkdir(parents=True)
    (run_dir / "train.log").write_text(
        "".join(r.to_line() + "\n" for r in result.history), encoding="utf-8"
    )
    save_checkpoint(result.checkpoint, run_dir / "checkpoint.npz")
    # Enough to redo the run bit for bit: the exact settings (seed included),
    # every input file's fingerprint, the outputs' paths relative to it, the
    # numerics (a BLAS thread variable is None when unset), the version, and
    # the seconds from the start of training to the checkpoint written.
    manifest = {
        "config": dataclasses.asdict(config),
        "data_dir": data_dir,
        "corpus_hashes": hashes,
        "lint": {split: len(lint_corpus(corpus)) for split, corpus in corpora.items()},
        "checkpoint_path": "checkpoint.npz",
        "log_path": "train.log",
        "best_epoch": result.best_epoch,
        "compute_dtype": np.dtype(COMPUTE_DTYPE).name,
        "numpy_version": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in _BLAS_THREAD_VARS},
        "package_version": __version__,
        "wall_s": time.perf_counter() - t0,
    }
    (run_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return result


def _check_out(out) -> None:
    """Refuse an --out that cannot be published: its parent is not a
    directory, or it is an existing directory. Every command that writes
    --out calls this before it loads anything, so the mistake costs no work
    and prints nothing else."""
    if out is None:
        return
    out = Path(out)
    if not out.parent.is_dir():
        raise ValueError(f"{out.parent} is not a directory; create it first")
    if out.is_dir():
        raise ValueError(f"{out} is a directory; give a file path")


def _publish(text: str, out) -> int:
    """Print `text` and, given an --out, also write it there whole."""
    sys.stdout.write(text)
    if out:
        with staged(out) as tmp:
            tmp.write_text(text, encoding="utf-8")
    return 0


def cmd_train(args) -> int:
    out = Path(args.out)
    if out.exists():
        raise ValueError(f"{out} already exists; give a new --out")
    _check_out(out)
    if args.seeds < 1:
        raise ValueError(f"--seeds must be at least 1, got {args.seeds}")
    config, problems = validate_config_text(read_utf8(args.config))
    if problems:
        for p in problems:
            print(f"config error: {p}", file=sys.stderr)
        return 2

    # Everything is loaded and checked before anything is written, so a bad
    # invocation leaves no partial outputs behind.
    corpora, featurizer, hashes = _load_data_dir(Path(args.data))

    # The run is built in a staging directory beside --out and renamed into
    # place whole, so a failed or interrupted run leaves nothing behind and
    # prints nothing. stdout, like summary.txt, is one line per seed and then
    # the best seed, written once the run is published.
    lines, reports = [], []
    with staged(out) as stage:
        for k in range(args.seeds):
            run_cfg = dataclasses.replace(config, seed=config.seed + k)
            run_dir = stage / f"seed{run_cfg.seed}" if args.seeds > 1 else stage
            result = _train_one(run_cfg, corpora, hashes, featurizer,
                                run_dir, args.data)
            reports.append(report := result.history[result.best_epoch].dev)
            lines.append(f"seed={run_cfg.seed} best_epoch={result.best_epoch} "
                         + " ".join(f"{m}={getattr(report, m)!r}"
                                    for m in HEADLINE_MEASURES)
                         + f" selection={report.selection_score!r}\n")
        if args.seeds > 1:
            lines.append(f"best seed={config.seed + select_best(reports)}\n")
            (stage / "summary.txt").write_text("".join(lines), encoding="utf-8")
    sys.stdout.write("".join(lines))
    return 0


def _check_label_vocabularies(ckpt, corpus) -> None:
    """Compare the corpus label sets against the checkpoint's.

    Individual labels the model never saw decode to the reserved fallbacks
    and score as errors, so partial novelty only warns. A corpus whose
    intents are all unknown cannot be the dataset this model was trained
    for, and that certain mismatch is rejected.
    """
    corpus_intents = {u.intent for u in corpus}
    known = set(ckpt.intent_vocab.labels)
    if not corpus_intents & known:
        raise ValueError(
            "vocabulary mismatch: no corpus intent appears in the "
            "checkpoint's label set"
        )
    corpus_tags = {t for u in corpus for t in u.tag_strings()}
    for kind, unseen in (
        ("intent label(s)", corpus_intents - known),
        ("slot tag(s)", corpus_tags - set(ckpt.slot_vocab.tags)),
    ):
        if unseen:
            print(
                f"warning: {kind} unseen in training, scored as errors: "
                + ", ".join(sorted(unseen)),
                file=sys.stderr,
            )


def cmd_eval(args) -> int:
    if args.batch_size < 1:
        raise ValueError(f"--batch-size must be at least 1, got {args.batch_size}")
    _check_out(args.out)
    corpus = load_corpus(args.data)
    if not corpus:
        raise ValueError(f"{args.data} holds no utterances")
    if args.self_test:
        # Gold scored against itself: anything short of a perfect report
        # means the measurement pipeline itself is broken.
        gold_intents = [u.intent for u in corpus]
        gold_tags = [list(u.tags) for u in corpus]
        report = score(gold_intents, gold_intents, gold_tags, gold_tags)
    else:
        if not args.checkpoint:
            raise ValueError("--checkpoint is required unless --self-test")
        ckpt = load_checkpoint(args.checkpoint)
        _check_label_vocabularies(ckpt, corpus)
        report = evaluate(ckpt, corpus, args.batch_size)
    return _publish(report.to_kv_text(), args.out)


def _read_measures(path) -> Dict[str, float]:
    """Pull the three headline measures out of a report file.

    Values above 1 are read as percentages (published-table style) and
    values in [0, 1] as fractions; the choice is made per file over the
    three measures, so extra entries like chunk counts never skew it. A
    measure that is not a number in [0, 100] is refused.
    """
    entries, problems = read_kv(read_utf8(path))
    if problems:
        raise ValueError(f"{path}: {problems[0]}")
    missing = [m for m in HEADLINE_MEASURES if m not in entries]
    if missing:
        raise ValueError(f"{path}: missing measure(s): {', '.join(missing)}")
    picked = {}
    for m in HEADLINE_MEASURES:
        lineno, text = entries[m]
        try:
            value = float(text)
        except ValueError:
            value = float("nan")
        if not 0.0 <= value <= 100.0:  # also refuses nan
            raise ValueError(
                f"{path}: line {lineno}: {m}={text} is not a number in [0, 100]"
            )
        picked[m] = value
    if any(v > 1.0 for v in picked.values()):
        picked = {m: v / 100.0 for m, v in picked.items()}
    return picked


def cmd_compare(args) -> int:
    _check_out(args.out)
    a = _read_measures(args.report_a)
    b = _read_measures(args.report_b)
    lines, undefined = ["measure\ta\tb\trer_pct"], []
    for m in HEADLINE_MEASURES:
        try:  # a perfect baseline measure has no error to reduce
            rer = f"{relative_error_reduction(a[m], b[m]):.2f}"
        except ValueError as err:
            rer, undefined = "undefined", undefined + [err]
        lines.append(f"{m}\t{100 * a[m]:.2f}\t{100 * b[m]:.2f}\t{rer}")
    if len(undefined) == len(HEADLINE_MEASURES):
        raise ValueError(f"{args.report_b}: {undefined[0]}")
    return _publish("\n".join(lines) + "\n", args.out)


def _attention_svg(rows: Sequence[Tuple[str, float]]) -> str:
    """Self-contained bar chart, one row per piece, width scaled to the
    largest weight."""
    from xml.sax.saxutils import escape

    bar_h, gap, label_w, chart_w = 16, 6, 140, 360
    height = (bar_h + gap) * len(rows) + gap
    top = max((w for _, w in rows), default=1.0) or 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg"'
        f' width="{label_w + chart_w + 70}" height="{height}"'
        f' font-family="monospace" font-size="12">'
    ]
    for i, (token, weight) in enumerate(rows):
        y = gap + i * (bar_h + gap)
        bar = chart_w * weight / top
        parts.append(
            f'<text x="{label_w - 6}" y="{y + bar_h - 4}"'
            f' text-anchor="end">{escape(token)}</text>'
        )
        parts.append(
            f'<rect x="{label_w}" y="{y}" width="{bar:.2f}"'
            f' height="{bar_h}" fill="#36648b"/>'
        )
        parts.append(
            f'<text x="{label_w + bar + 5:.2f}" y="{y + bar_h - 4}">'
            f"{weight:.4f}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_attn(args) -> int:
    _check_out(args.out)
    words = args.text.split()
    if not words:
        raise ValueError("--text holds no words")
    ckpt = load_checkpoint(args.checkpoint)
    (pred,) = predict(ckpt, [words])
    seq = pred.seq
    if seq.truncated:
        print(f"warning: kept {len(seq.tags)} of {len(words)} words, the most "
              f"that fit the checkpoint's max_len of "
              f"{ckpt.config.encoder.max_len}", file=sys.stderr)
    rows = [
        (ckpt.piece_vocab.piece(pid), float(w))
        for pid, w in zip(seq.piece_ids, pred.alpha)
    ]
    if args.format == "svg":
        content = _attention_svg(rows)
    else:
        content = "token\tweight\n" + "".join(
            f"{tok}\t{w!r}\n" for tok, w in rows
        )
    if args.out:
        with staged(args.out) as tmp:
            tmp.write_text(content, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(content)
    return 0


def cmd_annotate(args) -> int:
    featurizer = WordFeaturizer.from_files(args.lexicon, args.gazetteer,
                                           args.dict)
    words = args.text.split()
    lines = ["word\tcanonical\tcase\tentity"]
    if words:
        entities, cases, canonical = featurizer.annotate(words)
        lines.extend(
            f"{w}\t{c}\t{case.name}\t{ent.name}"
            for w, c, case, ent in zip(words, canonical, cases, entities)
        )
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error ends in one `error:` line and exit 2, like every other
    refused input. The subcommand parsers are of this class too."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="jointnlu",
        description="Joint intent and slot model: batch operator commands.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "train", help="fit a model; writes checkpoint, manifest, and log"
    )
    p.add_argument("--config", required=True,
                   help="every training and ablation setting, key=value per line")
    p.add_argument("--data", required=True,
                   help="directory with train.txt, dev.txt, and resources")
    p.add_argument("--out", required=True,
                   help="output directory; must not exist yet, its parent must")
    p.add_argument("--seeds", type=int, default=1,
                   help="run this many seeds (config seed, +1, ...)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a corpus")
    p.add_argument("--checkpoint")
    p.add_argument("--data", required=True, help="corpus file to score")
    p.add_argument("--out", help="also write the report here")
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--self-test", action="store_true",
                   help="score the gold labels against themselves")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "compare", help="relative error reduction of report A over report B"
    )
    p.add_argument("report_a")
    p.add_argument("report_b")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "attn", help="dump the intent pooling weights for one utterance"
    )
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--format", choices=("tsv", "svg"), default="tsv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_attn)

    p = sub.add_parser(
        "annotate", help="word case and entity annotation table"
    )
    p.add_argument("--lexicon", required=True)
    p.add_argument("--gazetteer", required=True)
    p.add_argument("--dict", required=True)
    p.add_argument("--text", required=True)
    p.set_defaults(func=cmd_annotate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
