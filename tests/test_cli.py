"""Command-line surface tests: artifacts, exit codes, and the published
error-reduction numbers."""

import contextlib
import dataclasses
import io
import json
import os
import struct
import tempfile
import zipfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, event, given, strategies as st

import jointnlu
from jointnlu import cli
from jointnlu.cli import main
from jointnlu.data import (
    DATA_FILES,
    TaggedUtterance,
    load_corpus,
    read_utf8,
    save_corpus,
)
from jointnlu.features import WordFeaturizer
from jointnlu.model import load_checkpoint
from jointnlu.subwords import BOS_TOKEN, EOS_TOKEN
from jointnlu.tagging import O_TAG, EvalReport, SlotTag
from jointnlu.toy import toy_grammar
from jointnlu.training import (
    DivergenceError,
    EpochRecord,
    TrainConfig,
    train,
    validate_config_text,
)

CONFIG_TEXT = """\
# quick desk run on the toy grammar
gamma=0.6
epochs=3
batch_size=8
max_len=24
learning_rate=2e-3
dropout_rate=0.1
seed=11
"""


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One real `train` invocation shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli_run")
    data_dir = root / "data"
    toy_grammar(5, 40, 12, 12).write(data_dir)
    config_path = root / "config.txt"
    config_path.write_text(CONFIG_TEXT)
    out_dir = root / "run"
    rc = main([
        "train", "--config", str(config_path),
        "--data", str(data_dir), "--out", str(out_dir),
    ])
    assert rc == 0
    return {"data": data_dir, "config": config_path, "out": out_dir}


def read_manifest(out_dir) -> SimpleNamespace:
    """The run's manifest.json, its keys as attributes and its config read
    back into a TrainConfig."""
    d = json.loads((out_dir / "manifest.json").read_text())
    return SimpleNamespace(**{**d, "config": TrainConfig(**d["config"])})


def best_dev_report(out_dir) -> EvalReport:
    """The dev report of the run's best epoch, read from its train.log."""
    lines = (out_dir / "train.log").read_text().splitlines()
    return EpochRecord.from_line(lines[read_manifest(out_dir).best_epoch]).dev


def seed_line(run_dir) -> str:
    """The line `train` prints for the run's seed, as summary.txt holds it."""
    m, d = read_manifest(run_dir), best_dev_report(run_dir)
    return (f"seed={m.config.seed} best_epoch={m.best_epoch} "
            f"intent_acc={d.intent_acc!r} sent_acc={d.sent_acc!r} "
            f"slot_f1={d.slot_f1!r} selection={d.selection_score!r}\n")


def snapshot(root) -> dict:
    """Every path under `root`, with the bytes of each file."""
    return {
        p.relative_to(root): p.read_bytes() if p.is_file() else None
        for p in root.rglob("*")
    }


class TestTrainCommand:
    def test_writes_checkpoint_manifest_and_log(self, trained):
        out = trained["out"]
        assert (out / "checkpoint.npz").is_file()
        assert sorted(p.name for p in out.iterdir()) == [
            "checkpoint.npz", "manifest.json", "train.log",
        ]
        manifest = read_manifest(out)
        assert 0 <= manifest.best_epoch < 3
        report = best_dev_report(out)
        for v in (report.intent_acc, report.sent_acc,
                  report.slot_f1):
            assert 0.0 <= v <= 1.0
        # the log holds one record per epoch; the manifest does not copy it
        log_lines = (out / "train.log").read_text().splitlines()
        records = [EpochRecord.from_line(line) for line in log_lines]
        assert [r.epoch for r in records] == [0, 1, 2]
        assert "history" not in json.loads((out / "manifest.json").read_text())

    def test_manifest_hashes_every_input_file(self, trained):
        manifest = read_manifest(trained["out"])
        for name in ("train.txt", "dev.txt", "test.txt", "lexicon.txt",
                     "gazetteer.tsv", "english_dict.txt"):
            assert len(manifest.corpus_hashes[name]) == 64

    def test_manifest_records_the_numerics(self, trained):
        manifest = read_manifest(trained["out"])
        assert manifest.compute_dtype == "float32"
        assert manifest.numpy_version == np.__version__
        assert manifest.blas_threads == {
            v: os.environ.get(v)
            for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        }

    def test_manifest_records_version_and_wall_time(self, trained):
        manifest = read_manifest(trained["out"])
        assert manifest.package_version == jointnlu.__version__
        assert 0.0 < manifest.wall_s < 600.0

    def test_manifest_holds_exactly_its_twelve_keys(self, trained):
        d = json.loads((trained["out"] / "manifest.json").read_text())
        assert sorted(d) == [
            "best_epoch", "blas_threads", "checkpoint_path", "compute_dtype",
            "config", "corpus_hashes", "data_dir", "lint", "log_path",
            "numpy_version", "package_version", "wall_s",
        ]
        assert TrainConfig(**d["config"]) == validate_config_text(CONFIG_TEXT)[0]
        assert d["lint"] == {"train": 0, "dev": 0, "test": 0}

    def test_manifest_counts_the_lint_flags_of_each_split(self, tmp_path):
        data = toy_grammar(3, 8, 4, 4)
        data_dir = tmp_path / "data"
        data.write(data_dir)
        # an I- tag right after O opens a chunk, which lint flags
        orphan = TaggedUtterance(("fly", "boston"), (O_TAG, SlotTag("I", "city")),
                                 data.train[0].intent)
        save_corpus([*data.train, orphan], data_dir / DATA_FILES["train"])
        config = tmp_path / "config.txt"
        config.write_text("epochs=1\nbatch_size=4\n")
        out = tmp_path / "out"
        rc = main([
            "train", "--config", str(config), "--data", str(data_dir),
            "--out", str(out),
        ])
        assert rc == 0
        assert read_manifest(out).lint == {"train": 1, "dev": 0, "test": 0}

    def test_manifest_reproduces_the_run_bitwise(self, trained):
        data_dir = trained["data"]
        manifest = read_manifest(trained["out"])
        featurizer = WordFeaturizer.from_files(
            data_dir / "lexicon.txt",
            data_dir / "gazetteer.tsv",
            data_dir / "english_dict.txt",
        )
        redo = train(
            load_corpus(data_dir / "train.txt"),
            load_corpus(data_dir / "dev.txt"),
            manifest.config,
            featurizer,
        )
        ckpt = load_checkpoint(trained["out"] / manifest.checkpoint_path)
        assert redo.best_epoch == manifest.best_epoch
        assert redo.checkpoint.params.keys() == ckpt.params.keys()
        for name, arr in redo.checkpoint.params.items():
            assert np.array_equal(arr, ckpt.params[name]), name

    @pytest.mark.parametrize("role", [r for r in DATA_FILES if r != "test"])
    def test_missing_required_file_is_named(self, tmp_path, capsys, role):
        data_dir = tmp_path / "data"
        toy_grammar(3, 8, 4, 4).write(data_dir)
        (data_dir / DATA_FILES[role]).unlink()
        config = tmp_path / "config.txt"
        config.write_text("epochs=1\nbatch_size=4\n")
        before = snapshot(tmp_path)
        rc = main([
            "train", "--config", str(config), "--data", str(data_dir),
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {data_dir} is missing {DATA_FILES[role]}\n"
        )
        assert snapshot(tmp_path) == before

    def test_bad_lexicon_line_is_named_by_file_and_line(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        toy_grammar(3, 8, 4, 4).write(data_dir)
        lexicon = data_dir / DATA_FILES["lexicon"]
        lines = lexicon.read_text(encoding="utf-8").splitlines()
        lexicon.write_text("\n".join(lines + ["", "New York", ""]), encoding="utf-8")
        config = tmp_path / "config.txt"
        config.write_text("epochs=1\nbatch_size=4\n")
        before = snapshot(tmp_path)
        rc = main([
            "train", "--config", str(config), "--data", str(data_dir),
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {lexicon}:{len(lines) + 2}: "
            "lexicon key 'new york' holds 2 words\n"
        )
        assert snapshot(tmp_path) == before

    def test_missing_files_listed_in_table_order(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        (data_dir / "dev.txt").write_text("")
        config = tmp_path / "config.txt"
        config.write_text("epochs=1\nbatch_size=4\n")
        rc = main([
            "train", "--config", str(config), "--data", str(data_dir),
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {data_dir} is missing train.txt, lexicon.txt, "
            "gazetteer.tsv, english_dict.txt\n"
        )

    def test_directory_without_test_split_trains(self, tmp_path):
        data_dir = tmp_path / "data"
        toy_grammar(3, 8, 4, 4).write(data_dir)
        (data_dir / "test.txt").unlink()
        config = tmp_path / "config.txt"
        config.write_text("epochs=1\nbatch_size=4\n")
        out = tmp_path / "out"
        rc = main([
            "train", "--config", str(config), "--data", str(data_dir),
            "--out", str(out),
        ])
        assert rc == 0
        assert sorted(read_manifest(out).corpus_hashes) == [
            "dev.txt", "english_dict.txt", "gazetteer.tsv", "lexicon.txt",
            "train.txt",
        ]

    def test_missing_data_dir_leaves_no_outputs(self, tmp_path):
        config = tmp_path / "config.txt"
        config.write_text(CONFIG_TEXT)
        out = tmp_path / "out"
        rc = main([
            "train", "--config", str(config),
            "--data", str(tmp_path / "absent"), "--out", str(out),
        ])
        assert rc == 2
        assert not out.exists()

    def test_repeated_config_key_writes_nothing(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        toy_grammar(3, 8, 4, 4).write(data_dir)
        config = tmp_path / "config.txt"
        config.write_text("epochs=1\nbatch_size=4\ngamma=0.3\ngamma=0.9\n")
        out = tmp_path / "out"
        rc = main([
            "train", "--config", str(config),
            "--data", str(data_dir), "--out", str(out),
        ])
        assert rc == 2
        assert "line 4: repeated key 'gamma'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_byte_order_mark_reads_like_its_twin(self, tmp_path):
        config = tmp_path / "config.txt"
        config.write_text("\ufeff" + CONFIG_TEXT, encoding="utf-8")
        assert validate_config_text(read_utf8(config)) == (
            validate_config_text(CONFIG_TEXT)
        )

    def test_malformed_dev_split_is_named(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        toy_grammar(3, 8, 4, 4).write(data_dir)
        dev = data_dir / "dev.txt"
        dev.write_text("# intent=x\nplay\tO\n# intent=y\n", encoding="utf-8")
        config = tmp_path / "config.txt"
        config.write_text(CONFIG_TEXT)
        out = tmp_path / "out"
        rc = main([
            "train", "--config", str(config),
            "--data", str(data_dir), "--out", str(out),
        ])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {dev}: line 3: new header before a blank separator\n"
        )
        assert not out.exists()

    def test_interrupted_checkpoint_write_leaves_no_checkpoint(
        self, tmp_path, capsys, monkeypatch
    ):
        data_dir = tmp_path / "data"
        toy_grammar(3, 8, 4, 4).write(data_dir)
        config = tmp_path / "config.txt"
        config.write_text("epochs=1\nbatch_size=4\n")

        def fail_midway(fh, **arrays):
            fh.write(b"PK\x03\x04 half an archive")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", fail_midway)
        out = tmp_path / "out"
        rc = main([
            "train", "--config", str(config),
            "--data", str(data_dir), "--out", str(out),
        ])
        assert rc == 2
        assert "disk full" in capsys.readouterr().err
        # no log, checkpoint, manifest, run directory or temporary file
        assert not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.txt", "data",
        ]

    def test_config_problems_reported_together(self, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_text("gamma=2.5\nwat=1\nepochs=zero\n")
        out = tmp_path / "out"
        rc = main([
            "train", "--config", str(config),
            "--data", str(tmp_path), "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert "gamma" in err
        assert "wat" in err
        assert "epochs" in err
        assert not out.exists()

        # Optimizer settings are checked with the rest, before the run
        # writes anything, even when the data directory is fine.
        data_dir = tmp_path / "data"
        toy_grammar(3, 8, 4, 4).write(data_dir)
        for setting in ("learning_rate=-1", "warmup_proportion=2",
                        "beta1=1.5", "beta2=1", "epsilon=0",
                        "weight_decay=-0.1", "seed=-1", "learning_rate=inf",
                        "weight_decay=inf", "epsilon=inf"):
            config.write_text(f"epochs=1\nbatch_size=4\n{setting}\n")
            rc = main([
                "train", "--config", str(config),
                "--data", str(data_dir), "--out", str(out),
            ])
            err = capsys.readouterr().err
            assert rc == 2, setting
            assert setting.split("=")[0] in err
            assert not out.exists(), setting

    @pytest.mark.parametrize("rate", ["1e-6", "0.999995"])
    def test_dropout_rate_off_the_grid_writes_nothing(self, tmp_path, capsys,
                                                      rate):
        # 1e-6 rounds to no 1/65536 step, 0.999995 to all of them
        data_dir = tmp_path / "data"
        toy_grammar(3, 8, 4, 4).write(data_dir)
        config = tmp_path / "config.txt"
        config.write_text(f"epochs=1\nbatch_size=4\ndropout_rate={rate}\n")
        out = tmp_path / "out"
        rc = main([
            "train", "--config", str(config),
            "--data", str(data_dir), "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"dropout_rate {float(rate)} is off the 1/65536 grid" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.txt", "data"]

    def test_empty_dev_split_rejected(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        toy_grammar(3, 8, 4, 4).write(data_dir)
        (data_dir / "dev.txt").write_text("")
        config = tmp_path / "config.txt"
        config.write_text(CONFIG_TEXT)
        out = tmp_path / "out"
        rc = main([
            "train", "--config", str(config),
            "--data", str(data_dir), "--out", str(out),
        ])
        assert rc == 2
        assert "dev.txt" in capsys.readouterr().err
        assert not out.exists()

    def test_three_seeds_write_summary(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        toy_grammar(3, 16, 8, 8).write(data_dir)
        config = tmp_path / "config.txt"
        config.write_text(
            "epochs=2\nbatch_size=8\nmax_len=24\n"
            "learning_rate=2e-3\nseed=7\n"
        )
        out = tmp_path / "runs"
        rc = main([
            "train", "--config", str(config), "--data", str(data_dir),
            "--out", str(out), "--seeds", "3",
        ])
        assert rc == 0
        manifests = [read_manifest(out / f"seed{s}") for s in (7, 8, 9)]
        assert [m.config.seed for m in manifests] == [7, 8, 9]
        summary = (out / "summary.txt").read_text()
        scores = [
            best_dev_report(out / f"seed{s}").selection_score for s in (7, 8, 9)
        ]
        expected = manifests[int(np.argmax(scores))].config.seed
        assert summary == "".join(
            seed_line(out / f"seed{s}") for s in (7, 8, 9)
        ) + f"best seed={expected}\n"
        # stdout is the summary's four lines, once the run is published
        assert capsys.readouterr().out == summary

    def test_one_seed_prints_its_line_and_writes_no_summary(self, tmp_path,
                                                            capsys):
        data_dir = tmp_path / "data"
        toy_grammar(3, 8, 4, 4).write(data_dir)
        config = tmp_path / "config.txt"
        config.write_text("epochs=1\nbatch_size=4\nmax_len=24\nseed=5\n")
        out = tmp_path / "run"
        assert main([
            "train", "--config", str(config), "--data", str(data_dir),
            "--out", str(out),
        ]) == 0
        assert capsys.readouterr().out == seed_line(out)
        assert not (out / "summary.txt").exists()

    def test_divergent_run_exits_3(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        toy_grammar(3, 8, 4, 4).write(data_dir)
        config = tmp_path / "config.txt"
        config.write_text(
            "epochs=2\nbatch_size=4\nmax_len=24\n"
            "learning_rate=1e200\nwarmup_proportion=0.0\nseed=0\n"
        )
        rc = main([
            "train", "--config", str(config), "--data", str(data_dir),
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 3
        assert "non-finite" in capsys.readouterr().err

    def test_ablation_config_lines_reach_the_model(self, tmp_path):
        data_dir = tmp_path / "data"
        toy_grammar(3, 16, 8, 8).write(data_dir)
        config = tmp_path / "config.txt"
        config.write_text(
            "epochs=1\nbatch_size=8\nmax_len=24\nlearning_rate=1e-3\nseed=3\n"
            "slot_mode=crf\nslot_features=false\nintent_pool=start_token\n"
        )
        out = tmp_path / "out"
        rc = main([
            "train", "--config", str(config), "--data", str(data_dir),
            "--out", str(out),
        ])
        assert rc == 0
        manifest = read_manifest(out)
        assert manifest.config.slot_mode == "crf"
        assert manifest.config.slot_features is False
        assert manifest.config.intent_pool == "start_token"
        ckpt = load_checkpoint(out / "checkpoint.npz")
        assert "crf.T" in ckpt.params
        assert "int.W_pool" in ckpt.params
        assert not any(n.startswith("feat.") for n in ckpt.params)

    @pytest.mark.parametrize("flag", [
        ["--slot-mode", "crf"], ["--no-slot-features"],
        ["--intent-pool", "start_token"],
    ])
    def test_head_setting_flags_are_usage_errors(self, tmp_path, flag,
                                                 capsys):
        data_dir = tmp_path / "data"
        toy_grammar(3, 8, 4, 4).write(data_dir)
        config = tmp_path / "config.txt"
        config.write_text("epochs=1\nbatch_size=4\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([
                "train", "--config", str(config), "--data", str(data_dir),
                "--out", str(out), *flag,
            ])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_missing_out_parent_creates_nothing(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        toy_grammar(3, 8, 4, 4).write(data_dir)
        config = tmp_path / "config.txt"
        config.write_text("epochs=1\nbatch_size=4\n")
        before = snapshot(tmp_path)
        rc = main([
            "train", "--config", str(config), "--data", str(data_dir),
            "--out", str(tmp_path / "nope" / "deeper" / "run"),
        ])
        captured = capsys.readouterr()
        assert rc == 2
        assert "seed=" not in captured.out
        assert captured.err.splitlines() == [
            f"error: {tmp_path / 'nope' / 'deeper'} is not a directory; "
            "create it first"
        ]
        assert snapshot(tmp_path) == before

    def test_stale_stage_of_this_pid_does_not_break_train(self, tmp_path,
                                                          capsys):
        # A run killed outright left its stage, and this process has its PID.
        data_dir = tmp_path / "data"
        toy_grammar(3, 8, 4, 4).write(data_dir)
        config = tmp_path / "config.txt"
        config.write_text("epochs=1\nbatch_size=4\n")
        stale = tmp_path / f".run.{os.getpid()}.tmp"
        (stale / "seed1").mkdir(parents=True)
        (stale / "train.log").write_text("stale\n")
        rc = main([
            "train", "--config", str(config), "--data", str(data_dir),
            "--out", str(tmp_path / "run"),
        ])
        assert rc == 0, capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.txt", "data", "run",
        ]
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
            "checkpoint.npz", "manifest.json", "train.log",
        ]


# Config texts: free text, and lines of known or unknown keys with values
# of every kind the fields take, and some they do not.
SETTING_KEYS = [f.name for f in dataclasses.fields(TrainConfig)]
SETTING_VALUES = st.one_of(
    st.text(max_size=8), st.integers().map(str), st.floats().map(str),
    st.sampled_from(["softmax", "crf", "attention", "start_token", "true",
                     "false", "1e-3", "0.5", "-1", "nan", "inf"]),
)
CONFIG_LINES = st.one_of(
    st.builds("{}={}".format,
              st.one_of(st.sampled_from(SETTING_KEYS), st.text(max_size=8)),
              SETTING_VALUES),
    st.text(max_size=20),
)
CONFIG_TEXTS = st.one_of(st.text(), st.lists(CONFIG_LINES, max_size=8).map("\n".join))


@pytest.fixture(scope="module")
def fuzz_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz_data")
    toy_grammar(3, 8, 4, 4).write(root)
    return root


class TestConfigFuzz:
    @given(CONFIG_TEXTS)
    def test_validation_never_raises(self, text):
        config, errors = validate_config_text(text)
        if config is None:
            assert errors and all(isinstance(e, str) for e in errors)
        else:
            assert isinstance(config, TrainConfig) and errors == []

    @given(text=CONFIG_TEXTS)
    def test_refused_text_ends_train_in_config_errors_only(self, fuzz_data,
                                                           text):
        assume(validate_config_text(text)[0] is None)
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            config = root / "config.txt"
            config.write_bytes(text.encode("utf-8"))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main([
                    "train", "--config", str(config), "--data", str(fuzz_data),
                    "--out", str(root / "run"),
                ])
            assert rc == 2
            assert out.getvalue() == ""
            lines = err.getvalue().splitlines()
            assert lines and all(ln.startswith("config error: ") for ln in lines)
            assert [p.name for p in root.iterdir()] == ["config.txt"]


class TestWholeRun:
    """A `train` run directory appears whole or not at all."""

    @pytest.fixture
    def runs(self, tmp_path):
        """An empty parent for --out, and the argv of a two-seed run
        (seeds 7 and 8) into it."""
        data_dir = tmp_path / "data"
        toy_grammar(3, 8, 4, 4).write(data_dir)
        config = tmp_path / "config.txt"
        config.write_text("epochs=1\nbatch_size=4\nmax_len=24\nseed=7\n")
        parent = tmp_path / "runs"
        parent.mkdir()
        argv = [
            "train", "--config", str(config), "--data", str(data_dir),
            "--out", str(parent / "out"), "--seeds", "2",
        ]
        return parent, argv

    @staticmethod
    def fail_at(stage, monkeypatch):
        """Make `stage` of the second seed (or the summary) fail, after the
        first seed's directory is complete."""
        if stage in ("training", "interrupt"):
            real_train = cli.train
            exc = (DivergenceError("non-finite loss at epoch 0, step 0")
                   if stage == "training" else KeyboardInterrupt())

            def train(train_corpus, dev_corpus, config, featurizer):
                if config.seed == 8:
                    raise exc
                return real_train(train_corpus, dev_corpus, config, featurizer)

            monkeypatch.setattr(cli, "train", train)
        elif stage == "checkpoint":
            real_save = cli.save_checkpoint

            def save_checkpoint(ckpt, path):
                if path.parent.name == "seed8":
                    path.write_bytes(b"PK\x03\x04 half an archive")
                    raise OSError("disk full")
                real_save(ckpt, path)

            monkeypatch.setattr(cli, "save_checkpoint", save_checkpoint)
        else:
            name = {"log": "train.log", "manifest": "manifest.json",
                    "summary": "summary.txt"}[stage]
            real_write = Path.write_text

            def write_text(self, text, *args, **kwargs):
                if self.name == name and self.parent.name != "seed7":
                    real_write(self, text[:10], *args, **kwargs)
                    raise OSError("disk full")
                return real_write(self, text, *args, **kwargs)

            monkeypatch.setattr(Path, "write_text", write_text)

    @pytest.mark.parametrize("stage", [
        "log", "training", "checkpoint", "manifest", "summary", "interrupt",
    ])
    def test_failed_run_leaves_nothing(self, runs, stage, monkeypatch,
                                       capsys):
        parent, argv = runs
        self.fail_at(stage, monkeypatch)
        try:
            rc = main(argv)
        except KeyboardInterrupt:  # would end the whole pytest session
            pytest.fail("main let the interrupt through")
        err = capsys.readouterr().err
        assert rc == {"training": 3, "interrupt": 130}.get(stage, 2)
        assert len(err.splitlines()) == 1
        assert {"training": "non-finite", "interrupt": "error: interrupted"}.get(
            stage, "disk full") in err
        # no run directory, no seed directory, no staging directory
        assert list(parent.iterdir()) == []

    def test_failed_run_prints_nothing(self, runs, monkeypatch, capsys):
        """A seed line is printed only once its run is published: the first
        seed trains, the second diverges, and stdout stays empty."""
        parent, argv = runs
        real_train, calls = cli.train, []

        def train(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise DivergenceError("non-finite loss at epoch 0, step 0")
            return real_train(*args, **kwargs)

        monkeypatch.setattr(cli, "train", train)
        assert main(argv) == 3
        assert len(calls) == 2
        assert capsys.readouterr().out == ""
        assert not (parent / "out").exists()

    def test_complete_run_is_published(self, runs, capsys):
        parent, argv = runs
        assert main(argv) == 0
        assert sorted(str(p) for p in snapshot(parent)) == [
            "out", "out/seed7", "out/seed7/checkpoint.npz",
            "out/seed7/manifest.json", "out/seed7/train.log", "out/seed8",
            "out/seed8/checkpoint.npz", "out/seed8/manifest.json",
            "out/seed8/train.log", "out/summary.txt",
        ]

    def test_rerun_into_existing_out_changes_nothing(self, runs, capsys):
        parent, argv = runs
        assert main(argv) == 0
        before = snapshot(parent)
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {parent / 'out'} already exists; give a new --out"
        ]
        assert snapshot(parent) == before


class TestEvalCommand:
    def test_dev_report_matches_manifest(self, trained, capsys):
        rc = main([
            "eval", "--checkpoint", str(trained["out"] / "checkpoint.npz"),
            "--data", str(trained["data"] / "dev.txt"), "--batch-size", "8",
        ])
        assert rc == 0
        report = EvalReport.from_kv_text(capsys.readouterr().out)
        assert report == best_dev_report(trained["out"])

    def test_deterministic_output(self, trained, capsys):
        argv = [
            "eval", "--checkpoint", str(trained["out"] / "checkpoint.npz"),
            "--data", str(trained["data"] / "test.txt"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_report_file_written(self, trained, tmp_path, capsys):
        out_file = tmp_path / "report.txt"
        rc = main([
            "eval", "--checkpoint", str(trained["out"] / "checkpoint.npz"),
            "--data", str(trained["data"] / "test.txt"),
            "--out", str(out_file),
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert out_file.read_text() == stdout
        assert "slot_f1=" in stdout
        assert "token_f1=" in stdout

    def test_self_test_scores_perfect(self, trained, capsys):
        rc = main([
            "eval", "--data", str(trained["data"] / "dev.txt"), "--self-test",
        ])
        assert rc == 0
        report = EvalReport.from_kv_text(capsys.readouterr().out)
        assert report.intent_acc == 1.0
        assert report.sent_acc == 1.0
        assert report.slot_f1 == 1.0
        assert report.token_f1 == 1.0
        assert report.tp > 0 and report.fp == 0 and report.fn == 0

    def test_unknown_labels_warned_and_scored(self, trained, tmp_path,
                                              capsys):
        corpus = load_corpus(trained["data"] / "dev.txt")
        weird = [
            dataclasses.replace(u, intent="martian_request") if i % 2 else u
            for i, u in enumerate(corpus)
        ]
        path = tmp_path / "weird.txt"
        save_corpus(weird, path)
        rc = main([
            "eval", "--checkpoint", str(trained["out"] / "checkpoint.npz"),
            "--data", str(path),
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert "martian_request" in captured.err
        # half the gold intents are unknowable, capping accuracy at 50%
        assert EvalReport.from_kv_text(captured.out).intent_acc <= 0.5

    def test_fully_disjoint_vocabulary_rejected(self, trained, tmp_path,
                                                capsys):
        corpus = load_corpus(trained["data"] / "dev.txt")
        weird = [dataclasses.replace(u, intent="martian_request")
                 for u in corpus]
        path = tmp_path / "weird.txt"
        save_corpus(weird, path)
        rc = main([
            "eval", "--checkpoint", str(trained["out"] / "checkpoint.npz"),
            "--data", str(path),
        ])
        assert rc == 2
        assert "mismatch" in capsys.readouterr().err

    def test_checkpoint_required_without_self_test(self, trained):
        rc = main(["eval", "--data", str(trained["data"] / "dev.txt")])
        assert rc == 2

    def test_batch_size_below_one_rejected(self, trained, capsys):
        rc = main([
            "eval", "--checkpoint", str(trained["out"] / "checkpoint.npz"),
            "--data", str(trained["data"] / "dev.txt"), "--batch-size", "0",
        ])
        assert rc == 2
        assert "--batch-size must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("self_test", [False, True])
    def test_batch_size_refused_before_any_input_is_read(self, tmp_path,
                                                         capsys, self_test):
        # neither input exists: the flag is refused before either is read
        argv = ["eval", "--data", str(tmp_path / "absent.txt"),
                "--batch-size", "-3", "--out", str(tmp_path / "report.txt")]
        argv += (["--self-test"] if self_test
                 else ["--checkpoint", str(tmp_path / "absent.npz")])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: --batch-size must be at least 1, got -3"
        ]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("text", ["", "\n\n\n"])
    @pytest.mark.parametrize("self_test", [False, True])
    def test_empty_corpus_rejected(self, trained, tmp_path, capsys, text,
                                   self_test):
        # an empty corpus used to print a perfect report and exit 0
        data = tmp_path / "empty.txt"
        data.write_text(text)
        out_file = tmp_path / "report.txt"
        argv = ["eval", "--data", str(data), "--out", str(out_file)]
        if self_test:
            argv.append("--self-test")
        else:
            argv += ["--checkpoint", str(trained["out"] / "checkpoint.npz")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {data} holds no utterances\n"
        assert not out_file.exists()


def _edit_missing(arrays):
    del arrays["int.W_cls"]
    return "int.W_cls"


def _edit_unexpected(arrays):
    arrays["int.W_extra"] = np.zeros(3)
    return "int.W_extra"


def _edit_shape(arrays):
    arrays["W_s"] = arrays["W_s"][:, :-1]
    return "W_s"


def _edit_dtype(arrays):
    arrays["enc.tok_emb"] = arrays["enc.tok_emb"].astype(np.float16)
    return "enc.tok_emb"


def _edit_non_finite(arrays):
    arrays["b_s"] = arrays["b_s"].copy()
    arrays["b_s"][0] = np.nan
    return "b_s"


def _meta_text(edit):
    """An edit of the checkpoint's JSON metadata, given the decoded object."""
    def apply(arrays):
        meta = json.loads(arrays["archive_meta"].tobytes().decode("utf-8"))
        arrays["archive_meta"] = np.frombuffer(
            json.dumps(edit(meta)).encode("utf-8"), dtype=np.uint8
        )
    return apply


def _without(key):
    return lambda meta: {k: v for k, v in meta.items() if k != key}


def _with_config(**over):
    return lambda meta: {**meta, "config": {**meta["config"], **over}}


def _with_encoder(**over):
    def edit(meta):
        config = meta["config"]
        return {**meta, "config": {**config, "encoder": {**config["encoder"], **over}}}
    return edit


def _with_resource(kind, value):
    """The first entry of the checkpoint's lexicon or gazetteer set to value."""
    def edit(meta):
        table = dict(meta["resources"][kind])
        table[next(iter(table))] = value
        return {**meta, "resources": {**meta["resources"], kind: table}}
    return edit


def _with_resource_key(kind, key):
    """The checkpoint's lexicon or gazetteer with an entry at key, holding
    the first entry's value."""
    def edit(meta):
        table = dict(meta["resources"][kind])
        table[key] = next(iter(table.values()))
        return {**meta, "resources": {**meta["resources"], kind: table}}
    return edit


def _with_english_dict(value):
    return lambda meta: {
        **meta, "resources": {**meta["resources"], "english_dict": value}
    }


def _with_last(key, value):
    """The last entry of the checkpoint's piece, intent or slot table set to
    value."""
    return lambda meta: {**meta, key: meta[key][:-1] + [value]}


def _not_json(arrays):
    arrays["archive_meta"] = np.frombuffer(b"\xff{config", dtype=np.uint8)


def _encoder_dropped(meta):
    config = {k: v for k, v in meta["config"].items() if k != "encoder"}
    return {**meta, "config": config}


# (edit of the archive's arrays, text the one stderr line must hold)
BAD_METADATA = [
    (_meta_text(_without("config")), "lacks 'config'"),
    (_meta_text(_without("resources")), "lacks 'resources'"),
    (_meta_text(lambda meta: [meta]), "is a JSON list, expected an object"),
    (_meta_text(lambda meta: "config"), "is a JSON str, expected an object"),
    (_not_json, "metadata is not JSON text"),
    (_meta_text(_with_config(slot_mode="mrf")), "slot_mode must be one of"),
    (_meta_text(_with_config(dropout_rate=1.5)), "dropout_rate must be in"),
    (_meta_text(_with_config(n_layers=2)), "'n_layers'"),
    (_meta_text(_encoder_dropped), "KeyError: 'encoder'"),
    (_meta_text(_with_encoder(n_layers=1.0)), "n_layers 1.0 is not a positive int"),
    (_meta_text(_with_encoder(n_heads=2.0)), "n_heads 2.0 is not a positive int"),
    (_meta_text(_with_encoder(d_h=8.0)), "d_h 8.0 is not a positive int"),
    (_meta_text(_with_encoder(n_layers=True)), "n_layers True is not a positive int"),
    (_meta_text(_with_encoder(max_len=2)),
     "max_len 2 cannot fit both markers plus one piece"),
    (_meta_text(_with_config(n_intents=2.0)), "n_intents 2.0 is not a positive int"),
    (_meta_text(_with_config(n_slots=False)), "n_slots False is not a positive int"),
    (_meta_text(_with_config(slot_features="no")), "slot_features 'no' is not a bool"),
    (_meta_text(lambda meta: {**meta, "config": 7}),
     "metadata 'config' is not valid (TypeError: "),
    (_meta_text(lambda meta: {**meta, "slot_tags": ["X"]}),
     "metadata 'slot_tags' is not valid (ValueError: slot tags must start with"),
    (_meta_text(_with_resource("lexicon", 5)), "lexicon form 5 of"),
    (_meta_text(_with_resource("lexicon", "")), "lexicon form '' of"),
    (_meta_text(_with_resource("gazetteer", "BOGUS")),
     "metadata 'resources' is not valid (ValueError: unknown entity label 'BOGUS')"),
    (_meta_text(_with_resource("gazetteer", 7)), "unknown entity label 7"),
    (_meta_text(_with_english_dict("jfk")), "english_dict 'jfk' is a str"),
    (_meta_text(_with_english_dict([5, "the"])),
     "english_dict entry 5 is not a lowercase str"),
    # lookups lowercase the word, so such an entry could never match
    (_meta_text(_with_resource_key("gazetteer", "Boston")),
     "metadata 'resources' is not valid "
     "(ValueError: gazetteer phrase 'Boston' is not a lowercase str)"),
    (_meta_text(_with_resource_key("lexicon", "JFK")),
     "metadata 'resources' is not valid "
     "(ValueError: lexicon key 'JFK' is not a lowercase str)"),
    (_meta_text(_with_english_dict(["the", "For"])),
     "metadata 'resources' is not valid "
     "(ValueError: english_dict entry 'For' is not a lowercase str)"),
    # a lexicon key is one word, so a multi-word key could never match
    (_meta_text(_with_resource_key("lexicon", "new york")),
     "metadata 'resources' is not valid "
     "(ValueError: lexicon key 'new york' holds 2 words)"),
    (_meta_text(_with_last("pieces", 5)),
     "metadata 'pieces' is not valid (ValueError: piece 5 is not a non-empty str)"),
    (_meta_text(_with_last("pieces", "")),
     "metadata 'pieces' is not valid (ValueError: piece '' is not a non-empty str)"),
    (_meta_text(_with_last("intent_labels", 5)),
     "metadata 'intent_labels' is not valid "
     "(ValueError: intent label 5 is not a non-empty str)"),
    (_meta_text(_with_last("intent_labels", None)),
     "metadata 'intent_labels' is not valid "
     "(ValueError: intent label None is not a non-empty str)"),
    (_meta_text(_with_last("slot_tags", 5)),
     "metadata 'slot_tags' is not valid "
     "(ValueError: slot tag 5 is not a non-empty str)"),
]


class TestDamagedCheckpoint:
    """A checkpoint whose tensors disagree with the model's parameter table,
    or whose metadata is damaged, is refused on load: exit 2, one line on
    stderr naming the problem."""

    @pytest.mark.parametrize("edit,needle", BAD_METADATA)
    def test_bad_metadata_refused(self, trained, tmp_path, capsys, edit,
                                  needle):
        with np.load(trained["out"] / "checkpoint.npz") as archive:
            arrays = {k: archive[k] for k in archive.files}
        edit(arrays)
        damaged = tmp_path / "damaged.npz"
        np.savez(damaged, **arrays)
        for argv in (
            ["eval", "--data", str(trained["data"] / "dev.txt")],
            ["attn", "--text", "play something"],
        ):
            rc = main(argv + ["--checkpoint", str(damaged)])
            err = capsys.readouterr().err
            assert rc == 2, argv
            assert len(err.splitlines()) == 1, err
            assert needle in err, err

    @pytest.mark.parametrize("edit", [
        _edit_missing, _edit_unexpected, _edit_shape, _edit_dtype,
        _edit_non_finite,
    ])
    def test_eval_and_attn_refuse_it(self, trained, tmp_path, capsys, edit):
        with np.load(trained["out"] / "checkpoint.npz") as archive:
            arrays = {k: archive[k] for k in archive.files}
        name = edit(arrays)
        damaged = tmp_path / "damaged.npz"
        np.savez(damaged, **arrays)
        for argv in (
            ["eval", "--data", str(trained["data"] / "dev.txt")],
            ["attn", "--text", "play something"],
        ):
            rc = main(argv + ["--checkpoint", str(damaged)])
            err = capsys.readouterr().err
            assert rc == 2, argv
            assert len(err.splitlines()) == 1, err
            assert repr(name) in err, err


def _cut_in_half(raw):
    return raw[: len(raw) // 2]


def _zeroed_run(raw):
    return raw[:200] + bytes(60) + raw[260:]


def _emptied(raw):
    return b""


def _archive_arrays(raw) -> dict:
    with np.load(io.BytesIO(raw)) as archive:
        return {k: archive[k] for k in archive.files}


def _saved(arrays, save=np.savez) -> bytes:
    buf = io.BytesIO()
    save(buf, **arrays)
    return buf.getvalue()


def _broken_member_header(raw):
    # the first tensor's .npy header names no 'descr' key
    at = raw.index(b"'descr'")
    return raw[:at] + b"'dexcr'" + raw[at + 7:]


def _object_array_member(raw):
    arrays = _archive_arrays(raw)
    arrays["enc.tok_emb"] = np.array([None, "x"], dtype=object)
    return _saved(arrays)


def _corrupt_deflate_stream(raw):
    # a compressed archive whose first member's first deflate block has
    # the reserved block type 3
    out = bytearray(_saved(_archive_arrays(raw), np.savez_compressed))
    with zipfile.ZipFile(io.BytesIO(bytes(out))) as zf:
        info = zf.infolist()[0]
    name_len, extra_len = struct.unpack_from("<HH", out, info.header_offset + 26)
    out[info.header_offset + 30 + name_len + extra_len] = 0b110
    return bytes(out)


def _extra_pieces(pieces):
    return pieces + [f"[EXTRA{i}]" for i in range(50)]


class TestUnreadableCheckpoint:
    """A checkpoint file that is no longer a readable archive, or whose
    vocabularies disagree with its config, is refused the same way: exit 2,
    one stderr line naming the file, and no --out file."""

    def refused(self, trained, tmp_path, capsys, damaged) -> list:
        errors = []
        out = tmp_path / "out.txt"
        for argv in (
            ["eval", "--data", str(trained["data"] / "dev.txt")],
            ["attn", "--text", "play something"],
        ):
            rc = main(argv + ["--checkpoint", str(damaged), "--out", str(out)])
            captured = capsys.readouterr()
            assert rc == 2, argv
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1, captured.err
            assert not out.exists()
            errors.append(captured.err)
        return errors

    @pytest.mark.parametrize("damage", [
        _cut_in_half, _zeroed_run, _emptied, _broken_member_header,
        _object_array_member, _corrupt_deflate_stream,
    ])
    def test_damaged_file(self, trained, tmp_path, capsys, damage):
        raw = (trained["out"] / "checkpoint.npz").read_bytes()
        damaged = tmp_path / "damaged.npz"
        damaged.write_bytes(damage(raw))
        for err in self.refused(trained, tmp_path, capsys, damaged):
            assert err.startswith(
                f"error: {damaged}: not a readable model archive ("
            ), err

    @pytest.fixture(scope="class")
    def flip_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("flips")

    @pytest.mark.parametrize("save", [np.savez, np.savez_compressed])
    @given(data=st.data())
    def test_any_one_byte_change_loads_or_names_the_file(self, trained, flip_dir,
                                                        save, data):
        raw = (trained["out"] / "checkpoint.npz").read_bytes()
        if save is np.savez_compressed:
            raw = _saved(_archive_arrays(raw), save)
        at = data.draw(st.integers(0, len(raw) - 1), label="offset")
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != raw[at]),
                         label="byte")
        path = flip_dir / f"{save.__name__}.npz"
        path.write_bytes(raw[:at] + bytes([byte]) + raw[at + 1:])
        try:
            load_checkpoint(path)
        except ValueError as err:
            assert str(err).startswith(f"{path}: "), err

    @pytest.mark.parametrize("field,edit", [
        ("intent_labels", lambda labels: labels[:2]),
        ("slot_tags", lambda tags: tags[:3]),
        ("pieces", _extra_pieces),
    ], ids=["intent_labels", "slot_tags", "pieces"])
    def test_vocabulary_size_disagrees_with_config(self, trained, tmp_path,
                                                   capsys, field, edit):
        with np.load(trained["out"] / "checkpoint.npz") as archive:
            arrays = {k: archive[k] for k in archive.files}
        meta = json.loads(arrays["archive_meta"].tobytes().decode("utf-8"))
        have, meta[field] = len(meta[field]), edit(meta[field])
        arrays["archive_meta"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
        damaged = tmp_path / "damaged.npz"
        np.savez(damaged, **arrays)
        expected = (
            f"error: {damaged}: metadata {field!r} holds {len(meta[field])} "
            f"entries, the config says {have}\n"
        )
        assert self.refused(trained, tmp_path, capsys, damaged) == [expected] * 2


def write_report(path, intent, slot, sent):
    path.write_text(f"intent_acc={intent}\nslot_f1={slot}\nsent_acc={sent}\n")
    return str(path)


def parse_rer(stdout: str) -> dict:
    rows = [line.split("\t") for line in stdout.strip().splitlines()[1:]]
    return {cells[0]: float(cells[3]) for cells in rows}


class TestCompareCommand:
    def test_published_first_benchmark_reductions(self, tmp_path, capsys):
        a = write_report(tmp_path / "a.txt", 97.87, 96.25, 88.69)
        b = write_report(tmp_path / "b.txt", 97.76, 95.80, 86.90)
        assert main(["compare", a, b]) == 0
        rer = parse_rer(capsys.readouterr().out)
        assert abs(rer["intent_acc"] - 4.91) <= 0.01
        assert abs(rer["slot_f1"] - 10.71) <= 0.01
        assert abs(rer["sent_acc"] - 13.66) <= 0.01

    def test_published_second_benchmark_reductions(self, tmp_path, capsys):
        a = write_report(tmp_path / "a.txt", 98.86, 96.57, 91.86)
        b = write_report(tmp_path / "b.txt", 97.43, 92.23, 80.90)
        assert main(["compare", a, b]) == 0
        rer = parse_rer(capsys.readouterr().out)
        assert abs(rer["intent_acc"] - 55.64) <= 0.01
        assert abs(rer["slot_f1"] - 55.86) <= 0.01
        assert abs(rer["sent_acc"] - 57.38) <= 0.01

    def test_fraction_and_percent_files_agree(self, tmp_path, capsys):
        a1 = write_report(tmp_path / "a1.txt", 97.87, 96.25, 88.69)
        b1 = write_report(tmp_path / "b1.txt", 97.76, 95.80, 86.90)
        a2 = write_report(tmp_path / "a2.txt", 0.9787, 0.9625, 0.8869)
        b2 = write_report(tmp_path / "b2.txt", 0.9776, 0.9580, 0.8690)
        assert main(["compare", a1, b1]) == 0
        first = capsys.readouterr().out
        assert main(["compare", a2, b2]) == 0
        assert capsys.readouterr().out == first

    def test_identical_reports_zero_reduction(self, tmp_path, capsys):
        a = write_report(tmp_path / "a.txt", 95.0, 90.0, 85.0)
        b = write_report(tmp_path / "b.txt", 95.0, 90.0, 85.0)
        assert main(["compare", a, b]) == 0
        assert all(v == 0.0 for v in parse_rer(capsys.readouterr().out).values())

    def test_worse_model_negative_reduction(self, tmp_path, capsys):
        a = write_report(tmp_path / "a.txt", 90.0, 80.0, 70.0)
        b = write_report(tmp_path / "b.txt", 95.0, 90.0, 85.0)
        assert main(["compare", a, b]) == 0
        assert all(v < 0.0 for v in parse_rer(capsys.readouterr().out).values())

    def test_missing_measure_rejected(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        a.write_text("intent_acc=97.0\nsent_acc=90.0\n")
        b = write_report(tmp_path / "b.txt", 95.0, 90.0, 85.0)
        assert main(["compare", str(a), b]) == 2
        assert "slot_f1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "-3", "100.5", "inf", "-inf", "high"])
    def test_bad_measure_rejected(self, tmp_path, capsys, value):
        # nan used to print nan and -3 a -3900% reduction, both exiting 0
        a = tmp_path / "a.txt"
        a.write_text(f"intent_acc={value}\nslot_f1=90.0\nsent_acc=85.0\n")
        b = write_report(tmp_path / "b.txt", 95.0, 90.0, 85.0)
        out = tmp_path / "cmp.tsv"
        assert main(["compare", str(a), b, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert str(a) in err[0] and f"intent_acc={value}" in err[0]
        assert not out.exists()

    def test_bounds_are_accepted(self, tmp_path, capsys):
        a = write_report(tmp_path / "a.txt", 100.0, 0.0, 50.0)
        b = write_report(tmp_path / "b.txt", 95.0, 90.0, 85.0)
        assert main(["compare", a, b]) == 0

    def test_repeated_measure_rejected(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        a.write_text("intent_acc=97.0\nslot_f1=90.0\nsent_acc=85.0\nintent_acc=20\n")
        b = write_report(tmp_path / "b.txt", 95.0, 90.0, 85.0)
        assert main(["compare", str(a), b]) == 2
        err = capsys.readouterr().err
        assert str(a) in err and "line 4: repeated key 'intent_acc'" in err

    def test_perfect_baseline_rejected(self, tmp_path, capsys):
        a = write_report(tmp_path / "a.txt", 99.0, 99.0, 99.0)
        b = write_report(tmp_path / "b.txt", 100.0, 100.0, 100.0)
        assert main(["compare", a, b]) == 2
        assert capsys.readouterr().err == (
            f"error: {b}: baseline accuracy is 1: relative error reduction "
            "undefined\n"
        )

    def test_one_perfect_baseline_measure_reads_undefined(self, tmp_path,
                                                          capsys):
        a = write_report(tmp_path / "a.txt", 1.0, 0.97, 0.95)
        b = write_report(tmp_path / "b.txt", 1.0, 0.94, 0.90)
        out = tmp_path / "cmp.tsv"
        assert main(["compare", a, b, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.splitlines()[1:] == [
            "intent_acc\t100.00\t100.00\tundefined",
            "sent_acc\t95.00\t90.00\t50.00",
            "slot_f1\t97.00\t94.00\t50.00",
        ]
        assert out.read_text() == stdout

    def test_byte_order_mark_reads_like_its_twin(self, tmp_path, capsys):
        a = write_report(tmp_path / "a.txt", 97.87, 96.25, 88.69)
        b = write_report(tmp_path / "b.txt", 97.76, 95.80, 86.90)
        marked = tmp_path / "marked.txt"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(a).read_bytes())
        assert main(["compare", a, b]) == 0
        plain = capsys.readouterr().out
        assert main(["compare", str(marked), b]) == 0
        assert capsys.readouterr().out == plain

    def test_eval_reports_feed_straight_in(self, trained, tmp_path, capsys):
        ra, rb = tmp_path / "ra.txt", tmp_path / "rb.txt"
        base = [
            "eval", "--checkpoint", str(trained["out"] / "checkpoint.npz"),
        ]
        assert main(base + ["--data", str(trained["data"] / "dev.txt"),
                            "--out", str(ra)]) == 0
        assert main(base + ["--data", str(trained["data"] / "test.txt"),
                            "--out", str(rb)]) == 0
        capsys.readouterr()
        assert main(["compare", str(ra), str(rb)]) == 0
        assert len(parse_rer(capsys.readouterr().out)) == 3


def parse_attn_rows(stdout: str):
    rows = [line.split("\t") for line in stdout.strip().splitlines()[1:]]
    return [(tok, float(w)) for tok, w in rows]


class TestAttnCommand:
    def test_tsv_weights_form_a_simplex(self, trained, capsys):
        words = load_corpus(trained["data"] / "train.txt")[0].words
        rc = main([
            "attn", "--checkpoint", str(trained["out"] / "checkpoint.npz"),
            "--text", " ".join(words),
        ])
        assert rc == 0
        rows = parse_attn_rows(capsys.readouterr().out)
        weights = [w for _, w in rows]
        assert abs(sum(weights) - 1.0) <= 1e-6
        assert all(w >= 0.0 for w in weights)

    def test_special_tokens_appear_in_dump(self, trained, capsys):
        rc = main([
            "attn", "--checkpoint", str(trained["out"] / "checkpoint.npz"),
            "--text", "play something",
        ])
        assert rc == 0
        tokens = [tok for tok, _ in parse_attn_rows(capsys.readouterr().out)]
        assert tokens[0] == BOS_TOKEN
        assert tokens[-1] == EOS_TOKEN

    def test_seven_word_utterance_has_seven_word_rows(self, trained, capsys):
        corpus = load_corpus(trained["data"] / "train.txt")
        words = [w for u in corpus for w in u.words][:7]
        assert len(words) == 7
        rc = main([
            "attn", "--checkpoint", str(trained["out"] / "checkpoint.npz"),
            "--text", " ".join(words),
        ])
        assert rc == 0
        tokens = [tok for tok, _ in parse_attn_rows(capsys.readouterr().out)]
        word_rows = [
            t for t in tokens
            if t not in (BOS_TOKEN, EOS_TOKEN) and not t.startswith("##")
        ]
        assert len(word_rows) == 7

    def test_text_without_words_refused(self, trained, tmp_path, capsys):
        out = tmp_path / "weights.tsv"
        for text in ("", " ", "\t \n"):
            rc = main([
                "attn", "--checkpoint", str(trained["out"] / "checkpoint.npz"),
                "--text", text, "--out", str(out),
            ])
            assert rc == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert len(captured.err.splitlines()) == 1
            assert list(tmp_path.iterdir()) == []

    def test_truncation_warned_on_stderr(self, trained, capsys):
        checkpoint = str(trained["out"] / "checkpoint.npz")
        corpus = load_corpus(trained["data"] / "train.txt")
        words = [w for u in corpus for w in u.words][:40]
        assert len(words) == 40
        rc = main(["attn", "--checkpoint", checkpoint, "--text", " ".join(words)])
        assert rc == 0
        captured = capsys.readouterr()
        kept = int(captured.err.split()[2])
        assert captured.err == (
            f"warning: kept {kept} of 40 words, the most that fit the "
            "checkpoint's max_len of 24\n"
        )
        assert 0 < kept < 40
        # stdout is exactly the dump of the words that were kept
        rc = main(["attn", "--checkpoint", checkpoint,
                   "--text", " ".join(words[:kept])])
        assert rc == 0
        alone = capsys.readouterr()
        assert alone.err == ""
        assert alone.out == captured.out

    def test_svg_file_written(self, trained, tmp_path):
        out = tmp_path / "weights.svg"
        rc = main([
            "attn", "--checkpoint", str(trained["out"] / "checkpoint.npz"),
            "--text", "play something good", "--format", "svg",
            "--out", str(out),
        ])
        assert rc == 0
        content = out.read_text()
        assert content.startswith("<svg")
        assert content.rstrip().endswith("</svg>")
        assert content.count("<rect") >= 5
        assert "play" in content


@pytest.fixture()
def resources(tmp_path):
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text("Baltimore\nDallas\nFOR\n")
    gazetteer = tmp_path / "gazetteer.tsv"
    gazetteer.write_text("baltimore\tCITY\ndallas\tCITY\n")
    english = tmp_path / "english.txt"
    english.write_text("i\nwant\nfly\nfrom\nto\nfor\nwait\nme\n")
    return {
        "--lexicon": str(lexicon),
        "--gazetteer": str(gazetteer),
        "--dict": str(english),
    }


def annotate_argv(resources, text):
    argv = ["annotate"]
    for flag, value in resources.items():
        argv.extend([flag, value])
    argv.extend(["--text", text])
    return argv


def parse_table(stdout: str) -> dict:
    rows = [line.split("\t") for line in stdout.strip().splitlines()[1:]]
    return {cells[0]: cells[1:] for cells in rows}


class TestAnnotateCommand:
    def test_gazetteer_cities_labeled(self, resources, capsys):
        rc = main(annotate_argv(
            resources, "i want fly from baltimore to dallas"
        ))
        assert rc == 0
        table = parse_table(capsys.readouterr().out)
        assert table["baltimore"] == ["Baltimore", "INIT_UPPER", "CITY"]
        assert table["dallas"] == ["Dallas", "INIT_UPPER", "CITY"]
        assert table["i"][2] == "NONE"

    def test_dictionary_word_never_an_airport_code(self, resources, capsys):
        rc = main(annotate_argv(resources, "wait for me"))
        assert rc == 0
        table = parse_table(capsys.readouterr().out)
        # canonical FOR has the three-capital shape, but it is an ordinary
        # dictionary word, so the shape rule must not fire
        assert table["for"] == ["FOR", "UPPER", "NONE"]

    def test_empty_text_prints_empty_table(self, resources, capsys):
        rc = main(annotate_argv(resources, ""))
        assert rc == 0
        assert capsys.readouterr().out.strip() == "word\tcanonical\tcase\tentity"

    def test_missing_resource_file_rejected(self, resources, tmp_path,
                                            capsys):
        resources["--lexicon"] = str(tmp_path / "nope.txt")
        rc = main(annotate_argv(resources, "hello"))
        assert rc == 2

    def test_bad_gazetteer_label_names_file_and_line(self, resources, capsys):
        path = resources["--gazetteer"]
        with open(path, "a", encoding="utf-8") as f:
            f.write("boston\tBOGUS\n")
        rc = main(annotate_argv(resources, "hello"))
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"error: {path}:3: unknown entity label 'BOGUS'\n"


class TestParser:
    def test_unknown_command_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_train_requires_config(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", "x", "--out", "y"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["frobnicate"],
        ["train", "--data", "x", "--out", "y"],
        ["eval", "--data", "d.txt", "--batch-size", "many"],
        ["attn", "--checkpoint", "m.npz", "--text", "hi", "--format", "pdf"],
        ["compare", "a.txt"],
        ["annotate", "--lexicon", "l", "--gazetteer", "g", "--dict", "d",
         "--text", "hi", "--verbose"],
    ])
    def test_usage_error_is_one_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1, captured.err
        assert captured.err.startswith("error: ")

    def test_bad_seed_count_rejected(self, trained, tmp_path, capsys):
        rc = main([
            "train", "--config", str(trained["config"]),
            "--data", str(trained["data"]),
            "--out", str(trained["out"] / "again"), "--seeds", "0",
        ])
        assert rc == 2
        # the flag is refused before the config is read: a bad config adds
        # no line of its own
        bad = tmp_path / "bad.txt"
        bad.write_text("epochs = none\n", encoding="utf-8")
        capsys.readouterr()
        rc = main([
            "train", "--config", str(bad), "--data", str(trained["data"]),
            "--out", str(tmp_path / "run"), "--seeds", "0",
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: --seeds must be at least 1, got 0"
        ]
        assert not (tmp_path / "run").exists()


class TestUnreadableText:
    """A text input that is not UTF-8 ends in one stderr line naming the file
    and the line of the bad byte."""

    @staticmethod
    def _argv(reader, bad, tmp_path, trained):
        if reader == "corpus":
            return ["eval", "--self-test", "--data", str(bad)]
        if reader == "config":
            return ["train", "--config", str(bad), "--data",
                    str(trained["data"]), "--out", str(tmp_path / "run")]
        return ["compare", str(bad), str(bad)]

    @pytest.mark.parametrize("reader", ["corpus", "config", "report"])
    def test_bad_byte_names_file_and_line(self, trained, tmp_path, capsys,
                                          reader):
        good = {
            "corpus": b"# intent=x\nplay\tO\n\n# intent=y\n",
            "config": b"epochs=1\nbatch_size=4\n",
            "report": b"intent_acc=0.9\nslot_f1=0.9\n",
        }[reader]
        bad = tmp_path / "bad.txt"
        bad.write_bytes(good + b"pl\xffy\tO\n")
        line = good.count(b"\n") + 1
        assert main(self._argv(reader, bad, tmp_path, trained)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {bad}: line {line}: byte 0xff is not UTF-8"
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.txt"]


# The line breaks of str.splitlines besides "\n" and "\r", which read_utf8
# turns into "\n".
NOT_LINE_ENDS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("ch", NOT_LINE_ENDS, ids=lambda ch: f"{ord(ch):#x}")
class TestLineRule:
    r"""Every text input ends its lines at "\n" alone, as load_corpus does: a
    line holding another break is one entry or one setting, and an error
    names the file's own line."""

    @pytest.mark.parametrize("flag,kind", [
        ("--lexicon", "lexicon key"), ("--dict", "english_dict entry"),
    ])
    def test_word_list(self, tmp_path, capsys, ch, flag, kind):
        paths = {f: tmp_path / f"{f[2:]}.txt" for f in
                 ("--lexicon", "--gazetteer", "--dict")}
        argv = ["annotate", "--text", "boston"]
        for f, path in paths.items():
            path.write_text(f"JFK\nBoston{ch}Denver\nNew York\n"
                            if f == flag else "", encoding="utf-8")
            argv += [f, str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (f"error: {paths[flag]}:2: {kind} "
                                           f"{f'boston{ch}denver'!r} holds 2 words\n")

    def test_config(self, tmp_path, capsys, ch):
        config = tmp_path / "config.txt"
        config.write_text(
            f"epochs=2{ch}batch_size=3\n# note{ch}gamma=2\nbogus=1\n",
            encoding="utf-8")
        assert main(["train", "--config", str(config), "--data",
                     str(tmp_path), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == (
            f"config error: line 1: bad value for epochs: {f'2{ch}batch_size=3'!r}\n"
            "config error: line 3: unknown setting 'bogus'\n")

    def test_compare_report(self, tmp_path, capsys, ch):
        plain = write_report(tmp_path / "plain.txt", 0.9, 0.7, 0.8)
        commented = tmp_path / "commented.txt"
        commented.write_text(f"# note{ch}intent_acc=0.1\n"
                             + Path(plain).read_text(), encoding="utf-8")
        assert main(["compare", plain, plain]) == 0
        want = capsys.readouterr().out
        assert main(["compare", str(commented), plain]) == 0
        assert capsys.readouterr().out == want

        bad = tmp_path / "bad.txt"
        bad.write_text(
            f"slot_f1=0.5\nintent_acc=0.5{ch}sent_acc=0.5\nsent_acc=0.5\n",
            encoding="utf-8")
        assert main(["compare", str(bad), plain]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: line 2: intent_acc=0.5{ch}sent_acc=0.5 "
            "is not a number in [0, 100]\n")


class TestOutParentChecked:
    """Every command that writes --out refuses a missing parent before it
    loads or prints anything."""

    @pytest.mark.parametrize("command", ["train", "eval", "compare", "attn"])
    def test_missing_out_parent_refused_first(self, trained, tmp_path, capsys,
                                              command):
        out = tmp_path / "nope" / "result.txt"
        checkpoint = str(trained["out"] / "checkpoint.npz")
        report = write_report(tmp_path / "r.txt", 95.0, 90.0, 85.0)
        argv = {
            "train": ["train", "--config", str(trained["config"]),
                      "--data", str(trained["data"])],
            "eval": ["eval", "--checkpoint", checkpoint,
                     "--data", str(trained["data"] / "dev.txt")],
            "compare": ["compare", report, report],
            "attn": ["attn", "--checkpoint", checkpoint, "--text", "play"],
        }[command]
        before = snapshot(tmp_path)
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {out.parent} is not a directory; create it first"
        ]
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("command", ["eval", "compare", "attn"])
    def test_directory_out_refused_first(self, trained, tmp_path, capsys,
                                         command):
        # used to print the whole result, then fail renaming the stage
        out = tmp_path / "a_dir"
        out.mkdir()
        report = write_report(tmp_path / "r.txt", 95.0, 90.0, 85.0)
        argv = {
            "eval": ["eval", "--self-test",
                     "--data", str(trained["data"] / "dev.txt")],
            "compare": ["compare", report, report],
            "attn": ["attn", "--checkpoint",
                     str(trained["out"] / "checkpoint.npz"), "--text", "play"],
        }[command]
        before = snapshot(tmp_path)
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {out} is a directory; give a file path"
        ]
        assert snapshot(tmp_path) == before

    def test_checked_before_the_inputs_are_read(self, tmp_path, capsys):
        # the inputs do not exist either; the --out mistake is reported
        out = tmp_path / "nope" / "report.txt"
        argv = ["eval", "--self-test", "--data", str(tmp_path / "absent.txt"),
                "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {out.parent} is not a directory; create it first"
        ]


# Inputs a fuzzed argv may name, each a key of the `argv_inputs` fixture.
_INPUTS = ("model", "corpus", "report", "lexicon", "gazetteer", "dict",
           "not_utf8", "empty", "missing", "dir")
_WORDS = ("play", "fly", "from", "baltimore", "to", "dallas", "Dallas",
          "tomorrow", "7", "x##y")


def _input(valid):
    """A key of argv_inputs, `valid` about half the time and first, so a
    failing case shrinks towards a working command line."""
    return st.one_of(st.just(valid), st.sampled_from(_INPUTS))


_TEXT = st.one_of(st.lists(st.sampled_from(_WORDS), max_size=40).map(" ".join),
                  st.text(max_size=12))
_OUT = st.sampled_from(("out.txt", "nope/out.txt", "sub"))
_BATCH_SIZE = st.one_of(st.integers(-1, 70).map(str),
                        st.sampled_from(("x", "2.5", "")))
_SEEDS = st.integers(-1, 2).map(str)

# Per command: (flag or None for a positional, strategy for its value or
# None for a switch).
_ARGV_OPTIONS = {
    "train": [("--config", _input("config")), ("--data", _input("data_dir")),
              ("--out", _OUT), ("--seeds", _SEEDS)],
    "eval": [("--checkpoint", _input("model")), ("--data", _input("corpus")),
             ("--out", _OUT), ("--batch-size", _BATCH_SIZE),
             ("--self-test", None)],
    "compare": [(None, _input("report")), (None, _input("report")),
                ("--out", _OUT)],
    "attn": [("--checkpoint", _input("model")), ("--text", _TEXT),
             ("--format", st.sampled_from(("tsv", "svg", "pdf"))),
             ("--out", _OUT)],
    "annotate": [("--lexicon", _input("lexicon")),
                 ("--gazetteer", _input("gazetteer")),
                 ("--dict", _input("dict")), ("--text", _TEXT)],
}

# The options of a working eval command line; it leaves --self-test out.
_EVAL_WORKING = {"--checkpoint": "model", "--data": "corpus",
                 "--out": "out.txt", "--batch-size": "8"}


@pytest.fixture(scope="module")
def argv_inputs(trained, tmp_path_factory):
    root = tmp_path_factory.mktemp("argv_inputs")
    (root / "not_utf8.txt").write_bytes(b"# intent=x\npl\xffy\tO\n")
    (root / "empty.txt").write_text("")
    (root / "a_dir").mkdir()
    (root / "config.txt").write_text("epochs=1\n")
    # two utterances: one to train on, one to select the epoch with
    toy_grammar(5, 1, 1, 1).write(root / "data_dir")
    (root / "data_dir" / "test.txt").unlink()
    data = trained["data"]
    return {
        "config": root / "config.txt",
        "data_dir": root / "data_dir",
        "model": trained["out"] / "checkpoint.npz",
        "corpus": data / "dev.txt",
        "report": Path(write_report(root / "report.txt", 95.0, 90.0, 85.0)),
        "lexicon": data / "lexicon.txt",
        "gazetteer": data / "gazetteer.tsv",
        "dict": data / "english_dict.txt",
        "not_utf8": root / "not_utf8.txt",
        "empty": root / "empty.txt",
        "missing": root / "absent.txt",
        "dir": root / "a_dir",
    }


class TestArgvFuzz:
    """Any command line for train, eval, compare, attn or annotate ends in
    exit 0, or in exit 2 with one stderr line; either way nothing appears
    beside --out, and a refused command does not write --out. The one
    refusal of several lines is train's config report, which names every
    problem of the config file, one per line."""

    @given(data=st.data())
    def test_exit_0_or_one_error_line(self, argv_inputs, data):
        command = data.draw(st.sampled_from(sorted(_ARGV_OPTIONS)),
                            label="command")
        self.check(argv_inputs, data, command)

    @given(data=st.data())
    def test_train_exit_0_or_one_error_line(self, argv_inputs, data):
        # a fifth of the shared examples would seldom get all of train's
        # inputs right, so train also gets examples of its own
        self.check(argv_inputs, data, "train")

    @given(data=st.data())
    def test_eval_exit_0_or_one_error_line(self, argv_inputs, data):
        # the shared examples seldom get all five of eval's options right at
        # once, so eval gets examples of its own, which mostly keep each
        # option at a working value
        self.check(argv_inputs, data, "eval", _EVAL_WORKING)

    @staticmethod
    def check(argv_inputs, data, command, working=None):
        """Fuzz one command line. Given `working`, the options of a working
        command line, each option is set as there nine times in ten."""
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            (work / "sub").mkdir()
            argv, out = [command], None
            for flag, values in _ARGV_OPTIONS[command]:
                if working is not None and data.draw(
                        st.integers(0, 9), label=f"vary {flag}") < 9:
                    if flag not in working:
                        continue
                    value = working[flag]
                # most options are kept, so that many cases get to run
                elif data.draw(st.integers(0, 4), label=f"drop {flag}") == 4:
                    continue
                else:
                    value = None if values is None else data.draw(values, label=flag)
                if flag == "--out":
                    out = value = work / value
                elif values is not None and value in argv_inputs:
                    value = argv_inputs[value]
                argv += [a for a in (flag, value) if a is not None]
            if data.draw(st.integers(0, 9), label="extra") == 9:
                argv.append("--bogus")
            argv = [str(a) for a in argv]

            before = snapshot(work)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                try:
                    rc = main(argv)
                except SystemExit as exc:
                    rc = exc.code
            after = snapshot(work)
            event(f"{command} exit {rc}")

            if rc == 0 and out is not None and out.parent == work:
                made = out.relative_to(work)
                assert made in after
                after = {p: v for p, v in after.items()
                         if p != made and made not in p.parents}
            else:
                lines = stderr.getvalue().splitlines()
                config_report = command == "train" and lines and all(
                    line.startswith("config error: ") for line in lines)
                assert rc == 0 or (rc == 2 and (config_report or (
                    len(lines) == 1 and lines[0].startswith("error: ")
                ))), (argv, rc, stderr.getvalue())
            assert after == before, argv
