import itertools
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jointnlu.tagging import (
    AlignmentError,
    Chunk,
    EvalReport,
    SlotTag,
    extract_chunks,
    intent_accuracy,
    kv_text,
    parse_tags,
    per_token_micro_f1,
    read_kv,
    relative_error_reduction,
    sentence_accuracy,
    slot_f1,
)
from oracles import brute_force_chunks, random_tag_sequence

LABELS3 = ["a", "b", "c"]
LABELS5 = ["artist", "year", "city", "date", "song"]


def tags(*texts):
    return parse_tags(texts)


class TestSlotTag:
    def test_parse_roundtrip(self):
        for text in ("O", "X", "B-artist", "I-to.city"):
            assert str(SlotTag.parse(text)) == text

    def test_label_constraints(self):
        with pytest.raises(ValueError):
            SlotTag("O", "artist")
        with pytest.raises(ValueError):
            SlotTag("B")
        with pytest.raises(ValueError):
            SlotTag.parse("B-")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SlotTag.parse("E-artist")


class TestExtractChunks:
    def test_table_example(self):
        # "play music from 2005 by justin broadrick"
        seq = tags("O", "O", "O", "B-year", "O", "B-artist", "I-artist")
        assert set(extract_chunks(seq)) == {Chunk("year", 3, 3), Chunk("artist", 5, 6)}

    def test_all_outside(self):
        assert extract_chunks(tags("O", "O", "O")) == []

    def test_orphan_i_opens_chunk(self):
        assert extract_chunks(tags("O", "I-a")) == [Chunk("a", 1, 1)]
        assert extract_chunks(tags("I-a", "I-a")) == [Chunk("a", 0, 1)]

    def test_label_switch_splits(self):
        assert extract_chunks(tags("B-a", "I-b")) == [Chunk("a", 0, 0), Chunk("b", 1, 1)]

    def test_b_after_b_splits(self):
        assert extract_chunks(tags("B-a", "B-a", "I-a")) == [Chunk("a", 0, 0), Chunk("a", 1, 2)]

    def test_rejects_x(self):
        with pytest.raises(AlignmentError):
            extract_chunks(tags("O", "X"))

    def test_sorted_and_disjoint(self, rng):
        for _ in range(200):
            seq = random_tag_sequence(rng, int(rng.integers(0, 15)), LABELS5)
            chunks = extract_chunks(seq)
            assert all(c1.end < c2.start for c1, c2 in zip(chunks, chunks[1:]))

    def test_random_vs_brute_force(self, rng):
        for _ in range(1000):
            seq = random_tag_sequence(rng, int(rng.integers(1, 13)), LABELS5)
            assert set(extract_chunks(seq)) == brute_force_chunks(seq)


class TestSlotF1:
    def test_identity_is_perfect(self):
        gold = [tags("O", "B-a", "I-a"), tags("B-b", "O")]
        assert slot_f1(gold, gold).f1 == 1.0

    def test_partial_recall(self):
        gold = [tags("O", "O", "O", "B-year", "O", "B-artist", "I-artist")]
        pred = [tags("O", "O", "O", "B-year", "O", "O", "O")]
        r = slot_f1(gold, pred)
        assert r.precision == 1.0
        assert r.recall == 0.5
        assert r.f1 == pytest.approx(2 / 3)
        assert (r.tp, r.fp, r.fn) == (1, 0, 1)

    def test_empty_corpus_is_perfect(self):
        assert slot_f1([tags("O", "O")], [tags("O", "O")]).f1 == 1.0

    def test_boundary_miss_counts_twice(self):
        gold = [tags("B-a", "I-a")]
        pred = [tags("B-a", "O")]
        r = slot_f1(gold, pred)
        assert (r.tp, r.fp, r.fn) == (0, 1, 1)
        assert r.f1 == 0.0

    def test_length_mismatch(self):
        with pytest.raises(AlignmentError):
            slot_f1([tags("O", "O")], [tags("O")])
        with pytest.raises(AlignmentError):
            slot_f1([tags("O")], [])

    @given(st.lists(st.sampled_from(["O", "B-a", "I-a", "B-b", "I-b"]), max_size=10))
    def test_self_score_always_one(self, texts):
        gold = [parse_tags(texts)]
        assert slot_f1(gold, gold).f1 == 1.0

    def test_swapping_gold_pred_swaps_precision_recall(self, rng):
        gold = [random_tag_sequence(rng, 8, LABELS3) for _ in range(20)]
        pred = [random_tag_sequence(rng, 8, LABELS3) for _ in range(20)]
        a = slot_f1(gold, pred)
        b = slot_f1(pred, gold)
        assert a.tp == b.tp
        assert (a.precision, a.recall) == (b.recall, b.precision)
        assert a.f1 == pytest.approx(b.f1)


class TestPerTokenF1:
    def test_inflation_on_partial_overlap(self):
        gold = [tags("B-a", "I-a")]
        pred = [tags("B-a", "I-b")]
        assert per_token_micro_f1(gold, pred) == 0.5
        assert slot_f1(gold, pred).f1 == 0.0

    def test_identity(self):
        gold = [tags("B-a", "I-a", "O")]
        assert per_token_micro_f1(gold, gold) == 1.0

    def test_all_outside_degenerate(self):
        gold = [tags("O", "O")]
        assert per_token_micro_f1(gold, gold) == 1.0

    def test_at_least_slot_f1_on_partial_overlap_family(self, rng):
        # Every prediction error is a partial overlap of a gold chunk: the
        # per-token score credits the overlap, the chunk score does not.
        gold, pred = [], []
        for _ in range(50):
            n = int(rng.integers(3, 9))
            g = [SlotTag("B", "a")] + [SlotTag("I", "a")] * (n - 1)
            p = list(g)
            p[n - 1] = SlotTag("O")  # clip the tail: partial overlap
            gold.append(g)
            pred.append(p)
        assert per_token_micro_f1(gold, pred) >= slot_f1(gold, pred).f1


class TestSentenceAccuracy:
    def test_all_correct(self):
        g = [tags("O", "B-a"), tags("O")]
        assert sentence_accuracy(["x", "y"], ["x", "y"], g, g) == 1.0

    def test_one_slot_error_halves(self):
        gold_tags = [tags("O", "B-a"), tags("O", "O")]
        pred_tags = [tags("O", "B-a"), tags("O", "B-a")]
        assert sentence_accuracy(["x", "y"], ["x", "y"], gold_tags, pred_tags) == 0.5

    def test_one_of_three(self):
        g = [tags("O"), tags("O"), tags("O")]
        p = [tags("O"), tags("B-a"), tags("O")]
        acc = sentence_accuracy(["i", "i", "i"], ["i", "i", "j"], g, p)
        assert acc == pytest.approx(1 / 3)

    def test_intent_and_slots_must_both_match(self):
        g = [tags("O")]
        assert sentence_accuracy(["x"], ["y"], g, g) == 0.0

    def test_size_mismatch(self):
        with pytest.raises(AlignmentError):
            sentence_accuracy(["x"], ["x", "y"], [tags("O")], [tags("O")])


class TestRelativeErrorReduction:
    def test_intent_column(self):
        assert relative_error_reduction(0.9787, 0.9776) == pytest.approx(4.91, abs=0.01)

    def test_sentence_column(self):
        assert relative_error_reduction(0.8869, 0.8690) == pytest.approx(13.66, abs=0.01)

    def test_equal_models(self):
        assert relative_error_reduction(0.9, 0.9) == 0.0

    def test_sign_tracks_ordering(self):
        assert relative_error_reduction(0.8, 0.9) < 0
        assert relative_error_reduction(0.95, 0.9) > 0

    def test_perfect_baseline_rejected(self):
        with pytest.raises(ValueError):
            relative_error_reduction(0.99, 1.0)


class TestEvalReport:
    def put(self):
        return EvalReport(0.9787, 0.8869, 0.9625, 0.982, tp=100, fp=3, fn=4)

    def test_kv_roundtrip(self):
        r = self.put()
        assert EvalReport.from_kv_text(r.to_kv_text()) == r

    def test_json_roundtrip(self):
        # the dict form is what training logs and manifests carry
        r = self.put()
        assert EvalReport.from_dict(json.loads(json.dumps(r.to_dict()))) == r

    def test_kv_keys_pinned(self):
        lines = self.put().to_kv_text().strip().splitlines()
        assert [ln.split("=")[0] for ln in lines] == [
            "intent_acc", "sent_acc", "slot_f1", "token_f1", "tp", "fp", "fn",
        ]

    def test_fraction_bounds_enforced(self):
        with pytest.raises(ValueError):
            EvalReport(1.2, 0.5, 0.5, 0.5)

    def with_value(self, key, text):
        """The report text of put() with `key` set to `text`."""
        return "".join(f"{key}={text}\n" if ln.startswith(f"{key}=") else ln
                       for ln in self.put().to_kv_text().splitlines(True))

    @pytest.mark.parametrize("key, text", [
        ("intent_acc", "abc"), ("token_f1", "0.5.1"), ("fp", "3.0"), ("fn", ""),
    ])
    def test_unreadable_value_names_its_key(self, key, text):
        with pytest.raises(ValueError) as err:
            EvalReport.from_kv_text(self.with_value(key, text))
        assert str(err.value) == f"bad value for {key}: {text!r}"

    @pytest.mark.parametrize("key, text", [("tp", "-4"), ("fn", "-1")])
    def test_negative_count_rejected(self, key, text):
        with pytest.raises(ValueError, match=f"^{key}={text} is negative$"):
            EvalReport.from_kv_text(self.with_value(key, text))

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError):
            EvalReport.from_kv_text("intent_acc=0.5\n")

    def test_selection_score(self):
        assert self.put().selection_score == pytest.approx(0.9787 + 0.8869 + 0.9625)

    def test_repeated_key_rejected(self):
        text = self.put().to_kv_text() + "slot_f1=0.5\n"
        with pytest.raises(ValueError, match="line 8: repeated key 'slot_f1'"):
            EvalReport.from_kv_text(text)


class TestReadKv:
    @given(st.text(), st.booleans())
    def test_never_raises(self, text, fields):
        entries, problems = read_kv(text, fields)
        assert all(isinstance(n, int) and isinstance(v, str)
                   for n, v in entries.values())
        assert all(isinstance(p, str) for p in problems)

    def test_entries_carry_line_numbers(self):
        entries, problems = read_kv("# header\n\n a = 1 \nb=x=y\nc=\n")
        assert problems == []
        assert entries == {"a": (3, "1"), "b": (4, "x=y"), "c": (5, "")}
        assert list(entries) == ["a", "b", "c"]

    def test_line_without_equals_is_a_problem(self):
        entries, problems = read_kv("a=1\njunk\n")
        assert entries == {"a": (1, "1")}
        assert problems == ["line 2: expected key=value, got 'junk'"]

    def test_repeated_key_is_a_problem_naming_both_lines(self):
        entries, problems = read_kv("gamma=0.3\nepochs=2\ngamma=0.9\n")
        assert entries["gamma"] == (1, "0.3")
        assert problems == ["line 3: repeated key 'gamma' (first on line 1)"]

    def test_fields_of_one_line(self):
        entries, problems = read_kv("epoch=1 junk epoch=2", fields=True)
        assert entries == {"epoch": (1, "1")}
        assert problems == [
            "field 2: expected key=value, got 'junk'",
            "field 3: repeated key 'epoch' (first on field 1)",
        ]

    def test_kv_text_reads_back(self):
        d = {"a": 0.1, "b": 3, "c": "crf", "d": True}
        entries, problems = read_kv(kv_text(d))
        assert problems == []
        assert {k: v for k, (_, v) in entries.items()} == {
            k: repr(v) for k, v in d.items()
        }


def test_intent_accuracy_basic():
    assert intent_accuracy(["a", "b"], ["a", "c"]) == 0.5
    assert intent_accuracy([], []) == 1.0
