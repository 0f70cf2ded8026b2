"""Vocabulary induction, greedy tokenization, and tag/feature alignment."""

import re
import zipfile
from itertools import compress

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from jointnlu import subwords
from jointnlu.data import UNK_INTENT, IntentVocab, SlotVocab
from jointnlu.encoder import EncoderConfig
from jointnlu.features import (
    MARKER_CODE,
    CaseClass,
    EntityClass,
    WordFeaturizer,
    encode_features,
    feature_codes,
)
from jointnlu.model import (
    Checkpoint,
    ModelConfig,
    init_model_params,
    load_checkpoint,
    save_checkpoint,
)
from jointnlu.subwords import (
    BOS_TOKEN,
    CONTINUATION,
    EOS_TOKEN,
    PAD_TOKEN,
    RESERVED_TOKENS,
    UNK_TOKEN,
    AlignedSequence,
    WordPieceVocab,
    align,
    de_align,
    train_vocab,
)
from jointnlu.tagging import AlignmentError, O_TAG, SlotTag, X_TAG, parse_tags
from jointnlu.toy import toy_grammar

from oracles import align_per_piece, train_vocab_recount


def make_vocab(*extra: str) -> WordPieceVocab:
    return WordPieceVocab(RESERVED_TOKENS + extra)


def tiny_checkpoint(vocab, featurizer, rng) -> Checkpoint:
    """A one-layer model around the given vocabulary and featurizer."""
    cfg = ModelConfig(
        encoder=EncoderConfig(vocab_size=len(vocab), d_h=4, n_layers=1,
                              n_heads=1, d_ff=4, max_len=8),
        n_intents=1, n_slots=2,
    )
    return Checkpoint(
        params=init_model_params(cfg, rng), config=cfg,
        intent_vocab=IntentVocab((UNK_INTENT,)),
        slot_vocab=SlotVocab(("O", "X")), piece_vocab=vocab,
        featurizer=featurizer,
    )


def rand_classes(rng, n):
    """n random (entity, case) class lists, as WordFeaturizer.annotate gives."""
    return ([EntityClass(int(i)) for i in rng.integers(0, len(EntityClass), n)],
            [CaseClass(int(i)) for i in rng.integers(0, len(CaseClass), n)])


class TestVocab:
    def test_reserved_ids_are_first_four(self):
        v = make_vocab("play")
        assert v.ids[PAD_TOKEN] == 0
        assert v.ids[UNK_TOKEN] == 1
        assert v.ids[BOS_TOKEN] == 2 == v.bos_id
        assert v.ids[EOS_TOKEN] == 3 == v.eos_id

    def test_rejects_missing_reserved_prefix(self):
        with pytest.raises(ValueError):
            WordPieceVocab(("play", "##ed") + RESERVED_TOKENS)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            make_vocab("play", "play")

    @pytest.mark.parametrize("bad", [5, None, ""])
    def test_rejects_entries_that_are_not_pieces(self, bad):
        with pytest.raises(ValueError, match=f"piece {bad!r} is not"):
            make_vocab("a", "##a", bad)

    def test_save_load_round_trip(self, tmp_path, rng):
        # the vocabulary is stored inside the model checkpoint
        v = train_vocab(["play", "played", "plays"], 40)
        path = tmp_path / "model.npz"
        save_checkpoint(
            tiny_checkpoint(v, WordFeaturizer({}, {}, frozenset()), rng), path)
        loaded = load_checkpoint(path).piece_vocab
        assert loaded.pieces == v.pieces
        # every piece keeps its id
        assert all(loaded.ids[v.piece(i)] == i for i in range(len(v)))


class TestTrainVocab:
    def test_frequent_word_becomes_full_piece(self):
        v = train_vocab(["play", "played"], 300)
        assert "play" in v.ids

    def test_target_below_base_inventory_rejected(self):
        # alphabet {p,l,a,y,e,d} needs 12 character pieces + 4 reserved
        with pytest.raises(ValueError):
            train_vocab(["play", "played"], 15)

    def test_deterministic(self):
        corpus = ["book", "a", "flight", "to", "boston", "book", "flights"]
        assert train_vocab(corpus, 60).pieces == train_vocab(corpus, 60).pieces

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_vocab([], 100)

    def test_bare_str_corpus_rejected(self):
        # a str would otherwise be read as a corpus of one-letter words
        with pytest.raises(ValueError, match="corpus 'abc' is a str"):
            train_vocab("abc", 20)

    @pytest.mark.parametrize("bad", [5, None, b"ab"])
    def test_word_that_is_not_a_str_rejected(self, bad):
        with pytest.raises(ValueError, match=f"corpus word {bad!r} is not a str"):
            train_vocab(["ab", bad], 20)

    def test_alphabet_has_both_piece_forms(self):
        v = train_vocab(["ab"], 20)
        for c in "ab":
            assert c in v.ids and CONTINUATION + c in v.ids


class TestTrainVocabMatchesRecount:
    """train_vocab against the oracle that recounts every pair after every
    merge: the same pieces in the same order."""

    # one- to four-letter alphabets: runs of one letter overlap their own
    # pairs (a ##a ##a), and a few short words tie many counts; with "#", a
    # merge can rebuild a piece that is already there (# + ### is ##)
    CORPUS = st.sampled_from(["a", "ab", "abc", "abcd", "#a"]).flatmap(
        lambda alphabet: st.lists(
            st.text(alphabet=alphabet, min_size=1, max_size=8), min_size=1, max_size=25
        )
    )

    @given(CORPUS, st.integers(0, 120))
    @example(["aaaa"] * 3, 1)
    @example(["aaaaa", "aa"], 2)
    @example(["ab", "ba"] * 2, 1)
    @example(["ab", "ba"] * 2, 120)
    @example(["##x"] * 2, 100)  # merges # + ### and ## + ##x
    @example(["[PAD]"] * 3, 100)  # merges into the reserved piece
    def test_random_corpora(self, words, extra):
        # targets run from the base floor to past the last repeating pair
        target = len(RESERVED_TOKENS) + 2 * len(set("".join(words))) + extra
        vocab = train_vocab(words, target)
        assert vocab.pieces == train_vocab_recount(words, target).pieces
        for w in words:
            assert UNK_TOKEN not in vocab.tokenize_pieces(w), w

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_benchmark_corpus(self, seed):
        data = toy_grammar(seed, 2000, 300, 256)
        words = [w for u in data.train for w in u.words]
        assert train_vocab(words, 300).pieces == train_vocab_recount(words, 300).pieces


class TestTokenize:
    def test_longest_match_splits(self):
        v = make_vocab("broad", "##rick", "b", "##r")
        assert v.tokenize_pieces("broadrick") == ["broad", "##rick"]

    def test_full_word_single_piece(self):
        v = make_vocab("play", "p", "##l", "##a", "##y")
        assert v.tokenize_pieces("play") == ["play"]

    def test_unseen_characters_collapse_to_unknown(self):
        v = make_vocab("play")
        assert v.tokenize_pieces("zzz") == [UNK_TOKEN]

    def test_partial_coverage_still_unknown(self):
        # known prefix does not rescue a word with an unknown tail
        v = make_vocab("play", "p", "##l", "##a", "##y")
        assert v.tokenize_pieces("playz") == [UNK_TOKEN]

    def test_ids_match_pieces(self):
        v = make_vocab("broad", "##rick")
        assert v.tokenize("broadrick") == [v.ids["broad"], v.ids["##rick"]]

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            make_vocab().tokenize("")

    def test_returned_list_is_the_callers(self):
        v = make_vocab("broad", "##rick")
        first = v.tokenize("broadrick")
        first.append(0)
        first[0] = v.ids[UNK_TOKEN]
        assert v.tokenize("broadrick") == [v.ids["broad"], v.ids["##rick"]]

    @given(
        st.lists(st.text(alphabet="abcd", min_size=1, max_size=6), min_size=1, max_size=12),
        st.text(alphabet="abcd", min_size=1, max_size=10),
    )
    def test_total_over_known_alphabet(self, corpus, word):
        v = train_vocab(corpus + ["abcd"], 60)
        pieces = v.tokenize_pieces(word)
        rebuilt = "".join(p.removeprefix(CONTINUATION) for p in pieces)
        assert rebuilt == word
        assert pieces == v.tokenize_pieces(word)


class TestReservedSpellings:
    """Text never reads as a reserved token, so no word can become the
    padding id 0 or a start or end marker."""

    MARKER_IDS = {0, 2, 3}

    def test_toy_vocabulary_reads_them_as_unknown(self):
        data = toy_grammar(0, 200, 5, 5)
        v = train_vocab([w for u in data.train for w in u.words], 300)
        assert not any("[" in p for p in v.pieces[len(RESERVED_TOKENS):])
        for word in RESERVED_TOKENS:
            assert v.tokenize(word) == [v.ids[UNK_TOKEN]], word

    @pytest.mark.parametrize("extra", [0, 8, 40])
    def test_a_vocabulary_trained_on_them_splits_them(self, extra):
        # with enough merges, [PAD] and the rest are merged pairs that
        # train_vocab does not add again
        words = [*RESERVED_TOKENS, "[PA"] * 3
        target = len(RESERVED_TOKENS) + 2 * len(set("".join(words))) + extra
        v = train_vocab(words, target)
        for word in RESERVED_TOKENS:
            ids = v.tokenize(word)
            assert not self.MARKER_IDS & set(ids), word
            assert UNK_TOKEN not in v.tokenize_pieces(word), word
            assert "".join(
                p.removeprefix(CONTINUATION) for p in v.tokenize_pieces(word)
            ) == word


class TestAlign:
    def _vocab(self):
        return make_vocab("play", "broad", "##rick", "music")

    def test_first_pieces_are_active_and_carry_the_tags(self):
        v = self._vocab()
        words = ["play", "broadrick"]
        tags = parse_tags(["O", "I-artist"])
        seq = align(words, tags, [0, 5], v, max_len=50)

        assert seq.piece_ids == (
            v.bos_id, v.ids["play"], v.ids["broad"], v.ids["##rick"], v.eos_id
        )
        assert seq.tags == tuple(tags)
        assert seq.active == (False, True, True, False, False)
        assert not seq.truncated

    def test_features_copied_to_every_piece(self):
        v = self._vocab()
        seq = align(["broadrick"], [O_TAG], [5], v, max_len=50)
        assert seq.features[1] == seq.features[2] == 5

    def test_feature_codes_of_several_multi_piece_words(self):
        # broad|##rick, mu|##sic and p|##l|##ay: every piece copies its
        # word's code, the markers get MARKER_CODE
        v = make_vocab("broad", "##rick", "mu", "##sic", "p", "##l", "##ay")
        words = ["broadrick", "music", "play", "music"]
        codes = [3, 40, MARKER_CODE - 1, 0]
        seq = align(words, [O_TAG] * 4, codes, v, max_len=50)
        word_of_piece = [0, 0, 1, 1, 2, 2, 2, 3, 3]
        want = (MARKER_CODE, *(codes[w] for w in word_of_piece), MARKER_CODE)
        assert seq.features == want
        # a truncated sequence keeps the codes of the words it kept
        cut = align(words, [O_TAG] * 4, codes, v, max_len=8)
        assert cut.truncated and cut.tags == (O_TAG,) * 2
        assert cut.features == want[:5] + (MARKER_CODE,)

    def test_markers_carry_zero_features_and_are_inactive(self):
        v = self._vocab()
        seq = align(["play"], [O_TAG], [7], v, max_len=50)
        assert seq.features == (MARKER_CODE, 7, MARKER_CODE)
        rows = encode_features(seq.features)
        assert not rows[0].any() and not rows[-1].any() and rows[1].sum() == 2
        assert not seq.active[0] and not seq.active[-1]

    def test_single_word_single_active(self):
        v = self._vocab()
        seq = align(["music"], [O_TAG], [0], v, max_len=50)
        assert sum(seq.active) == 1 == len(seq.tags)

    def test_truncation_drops_whole_trailing_word(self):
        v = self._vocab()
        words = ["play", "broadrick"]
        tags = [O_TAG, O_TAG]
        seq = align(words, tags, [0, 0], v, max_len=4)
        assert seq.truncated
        assert seq.piece_ids == (v.bos_id, v.ids["play"], v.eos_id)
        assert seq.tags == (O_TAG,)

    def test_exact_fit_is_not_truncated(self):
        v = self._vocab()
        words = ["play", "broadrick"]
        seq = align(words, [O_TAG, O_TAG], [0, 0], v, max_len=5)
        assert not seq.truncated and len(seq) == 5

    def test_empty_utterance(self):
        v = self._vocab()
        seq = align([], [], [], v, max_len=50)
        assert len(seq) == 2 and seq.tags == ()
        assert de_align(seq, [X_TAG, X_TAG]) == []

    def test_word_tag_length_mismatch(self):
        v = self._vocab()
        with pytest.raises(AlignmentError):
            align(["play"], [], [0], v, max_len=50)

    @pytest.mark.parametrize("codes", [[], [0, 0], [0, 0, 0]])
    def test_one_feature_code_per_word(self, codes):
        v = self._vocab()
        with pytest.raises(ValueError, match=(
                f"need one feature code per word, got {len(codes)} for 1 words")):
            align(["play"], [O_TAG], codes, v, max_len=50)

    @pytest.mark.parametrize("bad", [-1, MARKER_CODE, MARKER_CODE + 1, 2.5, "3"])
    def test_feature_code_outside_the_table(self, bad):
        # checked on every word, a truncated one too
        v = self._vocab()
        with pytest.raises(ValueError, match=re.escape(
                f"feature code {bad!r} is not a pair code (0..{MARKER_CODE - 1})")):
            align(["play", "music"], [O_TAG] * 2, [0, bad], v, max_len=3)

    def test_max_len_too_small(self):
        v = self._vocab()
        with pytest.raises(ValueError):
            align(["play"], [O_TAG], [0], v, max_len=2)


class TestDeAlign:
    def _aligned(self):
        v = make_vocab("play", "broad", "##rick")
        words = ["play", "broadrick"]
        tags = parse_tags(["B-song", "I-artist"])
        return align(words, tags, [0, 0], v, max_len=50), tags

    @staticmethod
    def _gold_pieces(tags):
        """The per-piece tags of [BOS] play broad ##rick [EOS]."""
        return [X_TAG, tags[0], tags[1], X_TAG, X_TAG]

    def test_gold_pieces_round_trip(self):
        seq, tags = self._aligned()
        assert de_align(seq, self._gold_pieces(tags)) == tags

    def test_x_at_active_position_becomes_o(self):
        seq, _ = self._aligned()
        preds = [X_TAG] * len(seq)
        assert de_align(seq, preds) == [O_TAG, O_TAG]

    def test_inactive_predictions_ignored(self):
        seq, tags = self._aligned()
        preds = self._gold_pieces(tags)
        for i, is_active in enumerate(seq.active):
            if not is_active:
                preds[i] = SlotTag("B", "noise")
        assert de_align(seq, preds) == tags

    def test_length_mismatch_rejected(self):
        seq, _ = self._aligned()
        with pytest.raises(AlignmentError):
            de_align(seq, [X_TAG] * (len(seq) - 1))


class TestRoundTripOracle:
    TAGS = parse_tags(["O", "B-artist", "I-artist", "B-song", "I-song"])

    def test_thousand_random_utterances(self, rng):
        corpus = [
            "".join(rng.choice(list("abcdefg"), size=rng.integers(1, 8)))
            for _ in range(400)
        ]
        vocab = train_vocab(corpus, 120)
        for _ in range(1000):
            n = int(rng.integers(1, 13))
            words = [
                "".join(rng.choice(list("abcdefg"), size=rng.integers(1, 8)))
                for _ in range(n)
            ]
            tags = [self.TAGS[i] for i in rng.integers(0, len(self.TAGS), size=n)]
            entities, cases = rand_classes(rng, n)
            codes = feature_codes(entities, cases)
            seq = align(words, tags, codes, vocab, max_len=200)
            assert not seq.truncated
            assert seq.tags == tuple(tags)
            gold = align_per_piece(words, tags, entities, cases, vocab, 200)[1]
            assert de_align(seq, gold) == tags
            assert list(compress(seq.features, seq.active)) == codes


def archive_members(path) -> dict:
    with zipfile.ZipFile(path) as zf:
        return {name: zf.read(name) for name in zf.namelist()}


class TestTokenizeMemo:
    WORDS = ["play", "played", "plays", "player", "ab", "abz", "zz", "layp",
             "yalp", "pl", "a", "b"]

    @staticmethod
    def _reference(v, word):
        return [v.ids[p] for p in v.tokenize_pieces(word)]

    def test_memo_stops_growing_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(subwords, "TOKENIZE_MEMO_WORDS", 3)
        v = train_vocab(["play", "played", "plays", "ab"], 40)
        for _ in range(2):
            for word in self.WORDS:
                assert v.tokenize(word) == self._reference(v, word)
                assert len(v._memo) <= 3
        assert len(v._memo) == 3

    def test_warm_memo_changes_no_comparison_or_checkpoint(self, tmp_path, rng):
        v = train_vocab(["play", "played", "plays", "ab"], 40)
        fz = WordFeaturizer({"jfk": "JFK"}, {"new york": "CITY"},
                            frozenset({"for"}))
        ckpt = tiny_checkpoint(v, fz, rng)
        save_checkpoint(ckpt, tmp_path / "cold.npz")
        cold_dict = fz.to_dict()
        for word in self.WORDS:
            v.tokenize(word)
        fz.featurize(self.WORDS + ["new", "york", "for", "2005", "JFK"])
        assert v._memo and fz._word_memo
        save_checkpoint(ckpt, tmp_path / "warm.npz")
        assert archive_members(tmp_path / "warm.npz") == archive_members(
            tmp_path / "cold.npz")
        assert v == WordPieceVocab(v.pieces)
        assert fz == WordFeaturizer.from_dict(cold_dict)
        assert fz.to_dict() == cold_dict


class TestAlignMatchesPerPieceReference:
    """align against the per-piece loop it replaced, field by field."""

    TAGS = parse_tags(["O", "B-artist", "I-artist", "B-song"])
    # "z" is outside the vocabulary's alphabet, so words holding it are [UNK].
    VOCAB = train_vocab(["abc", "abd", "bca", "cab", "ab", "ab", "dd", "ca"], 30)
    WORD = st.text(alphabet="abcdz", min_size=1, max_size=9)

    def _check(self, words, tags, classes, max_len):
        got = align(words, tags, feature_codes(*classes), self.VOCAB, max_len)
        ids, piece_tags, active, block, truncated = align_per_piece(
            words, tags, *classes, self.VOCAB, max_len)
        assert got.piece_ids == ids
        assert got.active == active
        assert got.tags == tuple(compress(piece_tags, active))
        rows = encode_features(got.features)
        assert rows.dtype == block.dtype
        assert rows.tobytes() == block.tobytes()
        assert got.truncated == truncated
        return got

    @given(st.lists(WORD, max_size=12), st.integers(3, 40), st.data())
    def test_hypothesis_utterances(self, words, max_len, data):
        tags = [data.draw(st.sampled_from(self.TAGS)) for _ in words]
        seed = data.draw(st.integers(0, 2**32 - 1))
        classes = rand_classes(np.random.default_rng(seed), len(words))
        self._check(words, tags, classes, max_len)

    def test_random_utterances_cover_every_case(self, rng):
        seen = {"unk": 0, "multi": 0, "truncated": 0}
        unk = self.VOCAB.ids[UNK_TOKEN]
        for _ in range(600):
            n = int(rng.integers(0, 10))
            words = ["".join(rng.choice(list("abcdz"), size=rng.integers(1, 7)))
                     for _ in range(n)]
            tags = [self.TAGS[i] for i in rng.integers(0, len(self.TAGS), size=n)]
            seq = self._check(words, tags, rand_classes(rng, n),
                              int(rng.integers(3, 30)))
            seen["unk"] += unk in seq.piece_ids
            seen["multi"] += any(len(self.VOCAB.tokenize(w)) > 1 for w in words)
            seen["truncated"] += seq.truncated
        assert min(seen.values()) > 50, seen


class TestAlignedSequenceValidation:
    def test_field_length_disagreement(self):
        with pytest.raises(ValueError):
            AlignedSequence(
                piece_ids=(2, 3),
                tags=(),
                active=(False,),
                features=(MARKER_CODE,) * 2,
            )

    @pytest.mark.parametrize("n_codes", [0, 1, 3])
    def test_one_feature_code_per_piece(self, n_codes):
        with pytest.raises(ValueError, match=(
                f"need one feature code per piece, got {n_codes} for 2 pieces")):
            AlignedSequence(
                piece_ids=(2, 3),
                tags=(),
                active=(False, False),
                features=(MARKER_CODE,) * n_codes,
            )

    @pytest.mark.parametrize("tags", [(), (O_TAG,), (O_TAG,) * 3])
    def test_one_tag_per_first_piece(self, tags):
        # two words, the second of two pieces: exactly two tags
        with pytest.raises(ValueError, match="one tag per first piece"):
            AlignedSequence(
                piece_ids=(2, 4, 5, 6, 3),
                tags=tags,
                active=(False, True, True, False, False),
                features=(MARKER_CODE, 0, 0, 0, MARKER_CODE),
            )
