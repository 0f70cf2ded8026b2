"""Corpus format, label tables, statistics, and the synthetic grammar."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from jointnlu.data import (
    UNK_INTENT,
    CorpusError,
    IntentVocab,
    SlotVocab,
    TaggedUtterance,
    combine_intents,
    id_table,
    lint_corpus,
    load_corpus,
    save_corpus,
    staged,
)
from jointnlu.features import CaseClass, EntityClass
from jointnlu.subwords import RESERVED_TOKENS, WordPieceVocab
from jointnlu.tagging import O_TAG, SlotTag, parse_tags
from jointnlu.toy import INTENTS, SLOT_TYPES, toy_grammar


def utt(words, tags, intent="play_music"):
    return TaggedUtterance(tuple(words), tuple(parse_tags(tags)), intent)


PLAY_FILE = (
    "# intent=PlayMusic\n"
    "play\tO\n"
    "music\tO\n"
    "from\tO\n"
    "1971\tB-year\n"
    "by\tO\n"
    "justin\tB-artist\n"
    "broadrick\tI-artist\n"
)


class TestTaggedUtterance:
    def test_basic_construction(self):
        u = utt(["play", "respect"], ["O", "B-song"])
        assert u.words == ("play", "respect")
        assert u.tag_strings() == ("O", "B-song")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            utt(["play"], ["O", "O"])

    def test_empty_intent_rejected(self):
        with pytest.raises(ValueError):
            utt(["play"], ["O"], intent="")

    def test_empty_words_rejected(self):
        with pytest.raises(ValueError):
            utt([], [])

    def test_whitespace_word_rejected(self):
        with pytest.raises(ValueError):
            utt(["new york"], ["B-city"])

    def test_x_tag_rejected(self):
        with pytest.raises(ValueError):
            TaggedUtterance(("a",), (SlotTag("X"),), "i")

    @given(st.text(st.one_of(
        st.characters(),
        st.sampled_from(" \t\n\r\v\f\x1c\x1d\x1e\x1f\x85\xa0\u1680"
                        "\u2000\u200a\u200b\u2028\u2029\u202f\u3000\ufeff"),
    ), max_size=8))
    def test_word_check_is_the_per_character_whitespace_scan(self, word):
        # a word is good iff it is non-empty and no character is whitespace
        per_char = bool(word) and not any(c.isspace() for c in word)
        assert (word.split() == [word]) == per_char
        if per_char:
            assert utt([word], ["O"]).words == (word,)
        else:
            with pytest.raises(ValueError, match="bad word"):
                utt([word], ["O"])


# Lines near the format, for text that gets past the first line more often
# than arbitrary text does.
CORPUS_LINES = st.sampled_from([
    "", "# intent=play", "# intent=", "# other", "#", "play\tO", "play\tB-a",
    "play\tI-a", "play\tX", "play\tB-", "play O", "\tO", "play\t",
    "play\tO\tO", " \tO", "pl ay\tO", "play\tO\r",
])


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("corpus")


class TestLoadCorpus:
    def test_seven_token_example(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text(PLAY_FILE, encoding="utf-8")
        corpus = load_corpus(p)
        assert len(corpus) == 1
        u = corpus[0]
        assert u.intent == "PlayMusic"
        assert u.words[0] == "play" and u.words[-1] == "broadrick"
        assert u.tag_strings() == (
            "O", "O", "O", "B-year", "O", "B-artist", "I-artist"
        )

    def test_empty_file(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("", encoding="utf-8")
        assert load_corpus(p) == []

    def test_bad_byte_names_file_and_line(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_bytes(PLAY_FILE.encode("utf-8") + b"\n# intent=x\npl\xe9y\tO\n")
        line = PLAY_FILE.count("\n") + 3
        with pytest.raises(CorpusError) as exc:
            load_corpus(p)
        assert str(exc.value) == f"{p}: line {line}: byte 0xe9 is not UTF-8"

    def test_byte_order_mark_is_dropped(self, tmp_path):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(PLAY_FILE.encode("utf-8"))
        marked.write_bytes(PLAY_FILE.encode("utf-8-sig"))
        assert load_corpus(marked) == load_corpus(plain)

    def test_byte_order_mark_keeps_bad_byte_line(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_bytes(b"\xef\xbb\xbf# intent=x\npl\xe9y\tO\n")
        with pytest.raises(CorpusError) as exc:
            load_corpus(p)
        assert str(exc.value) == f"{p}: line 2: byte 0xe9 is not UTF-8"

    def test_errors_name_the_file(self, tmp_path):
        p = tmp_path / "dev.txt"
        p.write_text("# intent=x\nplay\tO\n# intent=y\n", encoding="utf-8")
        with pytest.raises(CorpusError) as exc:
            load_corpus(p)
        assert str(exc.value) == (
            f"{p}: line 3: new header before a blank separator"
        )

    def test_crlf_lines_read_like_lf_lines(self, tmp_path):
        lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
        lf.write_bytes(PLAY_FILE.encode("utf-8"))
        crlf.write_bytes(PLAY_FILE.replace("\n", "\r\n").encode("utf-8"))
        assert load_corpus(crlf) == load_corpus(lf)

    def test_multiple_utterances(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text(PLAY_FILE + "\n" + PLAY_FILE, encoding="utf-8")
        assert len(load_corpus(p)) == 2

    def test_missing_tab_reports_line(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("# intent=x\nplay O\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(p)

    def test_bad_tag_reports_line(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("# intent=x\nplay\tBOGUS\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(p)

    def test_x_tag_in_file_rejected(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("# intent=x\nplay\tX\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(p)

    def test_token_before_header_rejected(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("play\tO\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="line 1"):
            load_corpus(p)

    def test_header_with_no_tokens_rejected(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("# intent=x\n\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="line 1"):
            load_corpus(p)

    def test_empty_intent_label_rejected(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("# intent=\nplay\tO\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="line 1"):
            load_corpus(p)

    def test_orphan_continuation_is_accepted(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("# intent=x\nplay\tO\nmore\tI-artist\n", encoding="utf-8")
        corpus = load_corpus(p)
        assert corpus[0].tag_strings() == ("O", "I-artist")

    def test_round_trip_identity(self, tmp_path, rng):
        corpus = [
            utt(["play", "respect", "by", "nina", "simone"],
                ["O", "B-song", "O", "B-artist", "I-artist"]),
            utt(["forecast", "for", "boston"], ["O", "O", "B-city"],
                intent="get_weather"),
        ]
        p = tmp_path / "c.txt"
        save_corpus(corpus, p)
        assert load_corpus(p) == corpus
        # a second save of the load is byte-identical
        q = tmp_path / "c2.txt"
        save_corpus(load_corpus(p), q)
        assert p.read_bytes() == q.read_bytes()

    @given(text=st.one_of(st.text(), st.lists(CORPUS_LINES).map("\n".join)))
    def test_any_text_loads_or_is_refused(self, scratch, text):
        """Any text is read or refused with CorpusError; what is read writes
        back and reads back unchanged."""
        path = scratch / "fuzz.txt"
        path.write_text(text, encoding="utf-8")
        try:
            corpus = load_corpus(path)
        except CorpusError:
            return
        save_corpus(corpus, path)
        assert load_corpus(path) == corpus


    @given(
        intent=st.text(st.sampled_from("ab#=\t\n\r\x0b\x0c\x1c\x85\u2028"), min_size=1),
        label=st.text(st.sampled_from("ab-\t\n\r\x0b\x1c\x85\u2028"), min_size=1),
    )
    def test_save_refuses_or_round_trips(self, scratch, intent, label):
        """Whatever save_corpus writes, load_corpus reads back exactly."""
        corpus = [utt(["play", "it"], ["O", "O"]),
                  TaggedUtterance(("play", "it"), (SlotTag("B", label), O_TAG),
                                  intent)]
        path = scratch / "saved.txt"
        try:
            save_corpus(corpus, path)
        except ValueError as err:
            assert str(err).startswith("utterance 1: "), err
            return
        assert load_corpus(path) == corpus

    @pytest.mark.parametrize("intent,label", [
        ("x\r", "a"), ("x\ny", "a"), ("x", "a\tb"), ("x", "a\n"),
    ])
    def test_refused_save_keeps_the_old_corpus(self, tmp_path, intent, label):
        target = tmp_path / "train.txt"
        save_corpus([utt(["play", "jazz"], ["O", "B-genre"])], target)
        before = target.read_bytes()
        bad = TaggedUtterance(("play",), (SlotTag("B", label),), intent)
        with pytest.raises(ValueError, match="utterance 0: "):
            save_corpus([bad], target)
        assert target.read_bytes() == before
        assert [q.name for q in tmp_path.iterdir()] == ["train.txt"]

class TestLint:
    def test_clean_corpus_has_no_flags(self):
        corpus = [utt(["a", "b", "c"], ["O", "B-x", "I-x"])]
        assert lint_corpus(corpus) == []

    def test_orphan_after_o_flagged(self):
        corpus = [utt(["a", "b"], ["O", "I-artist"])]
        flags = lint_corpus(corpus)
        assert len(flags) == 1
        assert "I-artist" in flags[0]

    def test_label_switch_flagged(self):
        corpus = [utt(["a", "b"], ["B-x", "I-y"])]
        assert len(lint_corpus(corpus)) == 1

    def test_sequence_initial_continuation_flagged(self):
        corpus = [utt(["a"], ["I-x"])]
        assert len(lint_corpus(corpus)) == 1


class TestCombineIntents:
    def test_published_example(self):
        assert combine_intents({"atis_flight", "atis_airfare"}) == (
            "atis_airfare#atis_flight"
        )

    def test_singleton_passthrough(self):
        assert combine_intents({"PlayMusic"}) == "PlayMusic"

    def test_order_insensitive(self):
        assert combine_intents(["b", "a", "c"]) == combine_intents(["c", "a", "b"])

    def test_idempotent(self):
        once = combine_intents({"y", "x"})
        assert combine_intents([once]) == once
        assert combine_intents([once, "x"]) == once

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combine_intents([])
        with pytest.raises(ValueError):
            combine_intents(["a#"])


def tree(root) -> dict:
    """Every path under `root`, with the bytes of each file."""
    return {
        str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
        for p in root.rglob("*")
    }


class TestStaged:
    def test_writes_the_file_and_nothing_else(self, tmp_path):
        with staged(tmp_path / "out.txt") as tmp:
            tmp.write_text("a=1\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
        assert (tmp_path / "out.txt").read_text() == "a=1\n"

    def test_failure_part_way_leaves_no_file(self, tmp_path):
        with pytest.raises(RuntimeError):
            with staged(tmp_path / "out.bin") as tmp, open(tmp, "wb") as fh:
                fh.write(b"half")
                raise RuntimeError("interrupted")
        assert list(tmp_path.iterdir()) == []

    def test_failure_part_way_keeps_the_old_file(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old\n")
        with pytest.raises(RuntimeError):
            with staged(target) as tmp, open(tmp, "w") as fh:
                fh.write("new, half")
                raise RuntimeError("interrupted")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
        assert target.read_text() == "old\n"

    def test_directory_tree_is_published_whole(self, tmp_path):
        target = tmp_path / "run"
        with staged(target) as stage:
            (stage / "seed1").mkdir(parents=True)
            (stage / "seed1" / "a.bin").write_bytes(b"a")
            (stage / "summary.txt").write_bytes(b"s\n")
            assert not target.exists()
        assert tree(tmp_path) == {
            "run": None, "run/seed1": None, "run/seed1/a.bin": b"a",
            "run/summary.txt": b"s\n",
        }

    def test_half_built_tree_is_removed_and_the_old_one_kept(self, tmp_path):
        target = tmp_path / "run"
        (target / "seed1").mkdir(parents=True)
        (target / "seed1" / "a.bin").write_bytes(b"old")
        before = tree(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            with staged(target) as stage:
                (stage / "seed1").mkdir(parents=True)
                (stage / "seed1" / "a.bin").write_bytes(b"half")
                raise KeyboardInterrupt
        assert tree(tmp_path) == before

    @pytest.mark.parametrize("leftover", ["file", "tree"])
    def test_stale_stage_of_this_pid_is_cleared(self, tmp_path, leftover):
        # a killed run left its stage; a new process got the same PID
        stale = tmp_path / f".run.{os.getpid()}.tmp"
        if leftover == "tree":
            (stale / "seed1").mkdir(parents=True)
            (stale / "seed1" / "a.bin").write_bytes(b"stale")
        else:
            stale.write_bytes(b"stale")
        with staged(tmp_path / "run") as stage:
            stage.mkdir()
            (stage / "a.bin").write_bytes(b"new")
        assert tree(tmp_path) == {"run": None, "run/a.bin": b"new"}

    @pytest.mark.parametrize("leftover", ["file", "tree"])
    def test_stages_of_ended_processes_are_swept(self, tmp_path, leftover):
        # a run killed outright left its stage; its process is gone
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        assert child.wait(timeout=60) == 0  # exited and reaped
        stale = tmp_path / f".run.{child.pid}.tmp"
        if leftover == "tree":
            (stale / "seed1").mkdir(parents=True)
            (stale / "seed1" / "a.bin").write_bytes(b"stale")
        else:
            stale.write_bytes(b"stale")
        # a live process's stage, and another output's stage, are not ours
        live = tmp_path / f".run.{os.getppid()}.tmp"
        live.write_bytes(b"live")
        other = tmp_path / f".log.{child.pid}.tmp"
        other.write_bytes(b"other")
        with staged(tmp_path / "run") as stage:
            stage.write_bytes(b"new")
        assert tree(tmp_path) == {
            "run": b"new", live.name: b"live", other.name: b"other",
        }

    def test_failed_save_corpus_keeps_the_old_corpus(self, tmp_path,
                                                     monkeypatch):
        target = tmp_path / "train.txt"
        save_corpus([utt(["play", "jazz"], ["O", "B-genre"])], target)
        before = tree(tmp_path)

        real_write = Path.write_text

        def write_half(self, text, *args, **kwargs):
            real_write(self, text[:len(text) // 2], *args, **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", write_half)
        with pytest.raises(OSError, match="disk full"):
            save_corpus([utt(["fly", "to", "boston"], ["O", "O", "B-city"])],
                        target)
        assert tree(tmp_path) == before


class TestIdTable:
    """The one check of the intent, slot and piece tables."""

    @pytest.mark.parametrize("vocab,entries", [
        (IntentVocab, (UNK_INTENT, "a", "b")),
        (SlotVocab, ("O", "X", "B-a")),
        (WordPieceVocab, RESERVED_TOKENS + ("a", "##a")),
    ], ids=["intent", "slot", "piece"])
    def test_list_built_equals_tuple_built(self, vocab, entries):
        from_list, from_tuple = vocab(list(entries)), vocab(entries)
        assert from_list == from_tuple
        assert hash(from_list) == hash(from_tuple)

    @pytest.mark.parametrize("entries,message", [
        ([], "labels must start with ('h',)"),
        (["a", "h"], "labels must start with ('h',)"),
        (["h", "a", "a"], "duplicate label 'a'"),
        (["h", ["a"]], "label ['a'] is not a non-empty str"),
    ])
    def test_refusals(self, entries, message):
        with pytest.raises(ValueError) as info:
            id_table(entries, ("h",), "label")
        assert str(info.value) == message


class TestIntentVocab:
    def test_reserved_slot_and_sorted_labels(self):
        corpus = [utt(["a"], ["O"], intent=i) for i in ("z", "b", "m", "b")]
        vocab = IntentVocab.from_corpus(corpus)
        assert vocab.labels == (UNK_INTENT, "b", "m", "z")
        assert vocab.encode(UNK_INTENT) == 0
        assert len(vocab) == 4

    def test_encode_decode_round_trip(self):
        vocab = IntentVocab((UNK_INTENT, "a", "b"))
        for i, label in enumerate(vocab.labels):
            assert vocab.encode(label) == i
            assert vocab.decode(i) == label

    def test_unseen_maps_to_reserved_id(self):
        vocab = IntentVocab((UNK_INTENT, "a"))
        assert vocab.encode("never_seen") == 0
        assert vocab.decode(0) == UNK_INTENT

    def test_unseen_label_scores_as_error(self):
        # the reserved decode string never equals a raw gold label
        vocab = IntentVocab((UNK_INTENT, "a"))
        gold = "brand_new_intent"
        assert vocab.decode(vocab.encode(gold)) != gold

    def test_validation(self):
        with pytest.raises(ValueError):
            IntentVocab(("a", "b"))
        with pytest.raises(ValueError):
            IntentVocab((UNK_INTENT, "a", "a"))
        for bad in (5, None, ""):
            with pytest.raises(ValueError, match=f"intent label {bad!r} is not"):
                IntentVocab((UNK_INTENT, bad))


class TestSlotVocab:
    def test_fixed_prefix_and_sorted_tail(self):
        corpus = [utt(["a", "b", "c"], ["B-z", "I-z", "B-a"])]
        vocab = SlotVocab.from_corpus(corpus)
        assert vocab.tags == ("O", "X", "B-a", "B-z", "I-z")
        assert vocab.encode("O") == 0 and vocab.encode("X") == 1

    def test_encode_accepts_tags_and_strings(self):
        vocab = SlotVocab(("O", "X", "B-a"))
        assert vocab.encode("B-a") == 2
        assert vocab.encode(SlotTag("B", "a")) == 2
        assert vocab.encode(O_TAG) == 0

    def test_unseen_tag_maps_to_o(self):
        vocab = SlotVocab(("O", "X", "B-a"))
        assert vocab.encode("B-never") == 0

    def test_decode_returns_parsed_tags(self):
        vocab = SlotVocab(("O", "X", "B-a", "I-a"))
        assert vocab.decode(3) == SlotTag("I", "a")
        assert vocab.decode(1).kind == "X"

    def test_validation(self):
        with pytest.raises(ValueError):
            SlotVocab(("X", "O"))
        with pytest.raises(ValueError):
            SlotVocab(("O", "X", "O"))
        for bad in (5, None, ""):
            with pytest.raises(ValueError, match=f"slot tag {bad!r} is not"):
                SlotVocab(("O", "X", bad))


_DATASETS = Path(__file__).resolve().parent.parent / "datasets"


def _benchmark_statistics(name) -> dict:
    """The paper's dataset table; word and label counts come from train."""
    train, dev, test = (
        load_corpus(_DATASETS / name / f"{split}.txt")
        for split in ("train", "dev", "test")
    )
    return dict(
        vocab_size=len({w for u in train for w in u.words}),
        avg_sentence_length=sum(len(u.words) for u in train) / len(train),
        n_intents=len({u.intent for u in train}),
        n_slots=len({t for u in train for t in u.tag_strings()}),
        sizes=(len(train), len(dev), len(test)),
    )


@pytest.mark.skipif(
    not (_DATASETS / "atis").is_dir(), reason="licensed benchmark not bundled"
)
def test_atis_statistics():
    s = _benchmark_statistics("atis")
    assert s["vocab_size"] == 722
    assert s["avg_sentence_length"] == pytest.approx(11.28, abs=0.005)
    assert (s["n_intents"], s["n_slots"]) == (21, 120)
    assert s["sizes"] == (4478, 500, 893)


@pytest.mark.skipif(
    not (_DATASETS / "snips").is_dir(), reason="benchmark not bundled"
)
def test_snips_statistics():
    s = _benchmark_statistics("snips")
    assert s["vocab_size"] == 11241
    assert s["avg_sentence_length"] == pytest.approx(9.05, abs=0.005)
    assert (s["n_intents"], s["n_slots"]) == (7, 72)
    assert s["sizes"] == (13084, 700, 700)


class TestToyGrammar:
    def test_same_seed_is_identical(self):
        a = toy_grammar(7, 40, 8, 8)
        b = toy_grammar(7, 40, 8, 8)
        assert a == b

    def test_different_seeds_differ(self):
        a = toy_grammar(7, 40, 8, 8)
        b = toy_grammar(8, 40, 8, 8)
        assert a.train != b.train

    def test_sizes(self):
        d = toy_grammar(1, 30, 10, 5)
        assert (len(d.train), len(d.dev), len(d.test)) == (30, 10, 5)

    def test_zero_lint_flags(self):
        d = toy_grammar(3, 200, 40, 40)
        for split in (d.train, d.dev, d.test):
            assert lint_corpus(split) == []

    @pytest.mark.parametrize("seed", [0, 1, 20240817])
    def test_full_inventory_realized_in_train(self, seed):
        d = toy_grammar(seed, 200, 20, 20)
        intents = {u.intent for u in d.train}
        slots = {t.label for u in d.train for t in u.tags if t.label}
        assert intents == set(INTENTS)
        assert slots == set(SLOT_TYPES)
        assert len(set(INTENTS)) >= 4 and len(set(SLOT_TYPES)) >= 8

    def test_flight_endpoints_differ(self):
        d = toy_grammar(5, 400, 10, 10)
        for u in d.train:
            if u.intent != "book_flight":
                continue
            by_slot = {}
            for w, t in zip(u.words, u.tags):
                if t.kind == "B":
                    by_slot[t.label] = w
            if "from_city" in by_slot and "to_city" in by_slot:
                assert by_slot["from_city"] != by_slot["to_city"]

    def test_write_emits_loadable_files(self, tmp_path):
        d = toy_grammar(11, 24, 8, 8)
        paths = d.write(tmp_path / "toy")
        assert load_corpus(paths["train"]) == list(d.train)
        assert load_corpus(paths["dev"]) == list(d.dev)
        feat = d.featurizer().__class__.from_files(
            paths["lexicon"], paths["gazetteer"], paths["english_dict"]
        )
        assert feat == d.featurizer()

    def test_feature_signal_matches_annotations(self):
        d = toy_grammar(13, 40, 8, 8)
        feat = d.featurizer()
        ents, cases, canon = feat.annotate(["justin", "broadrick"])
        assert ents == [EntityClass.PERSON, EntityClass.PERSON]
        assert cases == [CaseClass.INIT_UPPER, CaseClass.INIT_UPPER]
        assert canon == ["Justin", "Broadrick"]
        ents, cases, canon = feat.annotate(["jfk"])
        assert ents == [EntityClass.AIRPORT_CODE]
        assert cases == [CaseClass.UPPER]
        assert canon == ["JFK"]
        ents, _, _ = feat.annotate(["boston"])
        assert ents == [EntityClass.CITY]
        ents, _, _ = feat.annotate(["1971"])
        assert ents == [EntityClass.DATE]

    def test_vocabularies_from_train_cover_dev(self):
        d = toy_grammar(17, 200, 40, 40)
        ivocab = IntentVocab.from_corpus(d.train)
        svocab = SlotVocab.from_corpus(d.train)
        for u in d.dev + d.test:
            assert ivocab.encode(u.intent) != 0
            for t in u.tags:
                enc = svocab.encode(t)
                assert svocab.decode(enc) == t

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            toy_grammar(1, 0, 1, 1)
