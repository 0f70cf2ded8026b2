"""Casing, entity annotation, one-hot encoding, and feature-net gradients."""

import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from jointnlu import features
from jointnlu.features import (
    CASE_DIM,
    ENTITY_DIM,
    FEATURE_DIM,
    FEATURE_HIDDEN,
    MERGED_RAW_LABELS,
    CaseClass,
    EntityClass,
    PhraseIndex,
    WordFeaturizer,
    canonical_form,
    classify_case,
    encode_features,
    feature_backward,
    feature_forward,
    load_english_dict,
    load_gazetteer,
    load_lexicon,
)

from heads import part_params
from oracles import (
    annotate_entities_longest_first,
    finite_difference,
    relative_gradient_error,
)


LEXICON = {"mcvey": "McVey", "justin": "Justin", "usa": "USA", "jfk": "JFK"}
DICT = frozenset({"for", "the", "fly", "dog"})


def annotate(words, gazetteer):
    """Entity classes of the words under a phrase map and no lexicon."""
    return WordFeaturizer({}, gazetteer, DICT).annotate(words)[0]


class TestTruecase:
    def test_mixed_case_form_is_class_o(self):
        assert classify_case(canonical_form("mcvey", LEXICON)) is CaseClass.O

    def test_init_upper(self):
        assert classify_case(canonical_form("justin", LEXICON)) is CaseClass.INIT_UPPER

    def test_all_upper(self):
        assert classify_case(canonical_form("usa", LEXICON)) is CaseClass.UPPER

    def test_fallback_keeps_word_as_given(self):
        assert canonical_form("zzz", LEXICON) == "zzz"
        assert classify_case(canonical_form("zzz", LEXICON)) is CaseClass.LOWER

    def test_lookup_ignores_input_casing(self):
        assert canonical_form("MCVEY", LEXICON) == "McVey"
        assert classify_case(canonical_form("Usa", LEXICON)) is CaseClass.UPPER

    def test_digits_classify_as_o(self):
        assert classify_case(canonical_form("2005", {})) is CaseClass.O

    def test_single_letter(self):
        assert classify_case("A") is CaseClass.UPPER
        assert classify_case("a") is CaseClass.LOWER

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            classify_case(canonical_form("", LEXICON))


class TestAnnotateEntities:
    def test_dictionary_word_suppresses_airport(self):
        assert annotate(["FOR"], {}) == [EntityClass.NONE]

    def test_non_word_code_is_airport(self):
        assert annotate(["JFK"], {}) == [EntityClass.AIRPORT_CODE]

    def test_four_digit_year_is_date(self):
        assert annotate(["2005"], {}) == [EntityClass.DATE]

    def test_year_range_boundaries(self):
        get = lambda w: annotate([w], {})[0]
        assert get("1900") is EntityClass.DATE
        assert get("2099") is EntityClass.DATE
        assert get("1899") is EntityClass.NUMBER
        assert get("2100") is EntityClass.NUMBER

    def test_plain_digits_are_number(self):
        assert annotate(["42"], {}) == [EntityClass.NUMBER]
        assert annotate(["12345"], {}) == [EntityClass.NUMBER]

    def test_unmatched_word_is_none(self):
        assert annotate(["hello"], {}) == [EntityClass.NONE]

    def test_mixed_alnum_falls_through(self):
        assert annotate(["b52"], {}) == [EntityClass.NONE]

    def test_gazetteer_single_word(self):
        gaz = {"baltimore": "CITY"}
        got = annotate(["Baltimore"], gaz)
        assert got == [EntityClass.CITY]

    def test_gazetteer_phrase_covers_all_words(self):
        gaz = {"new york city": "CITY"}
        got = annotate(["new", "york", "city"], gaz)
        assert got == [EntityClass.CITY] * 3

    def test_longest_match_wins(self):
        gaz = {"new york": "CITY", "new york times": "ORGANIZATION"}
        got = annotate(["new", "york", "times"], gaz)
        assert got == [EntityClass.ORGANIZATION] * 3

    def test_matching_is_case_insensitive(self):
        gaz = {"baltimore": "CITY"}
        assert annotate(["BALTIMORE"], gaz) == [EntityClass.CITY]

    def test_merged_labels_become_other(self):
        for raw in sorted(MERGED_RAW_LABELS):
            got = annotate(["senator"], {"senator": raw})
            assert got == [EntityClass.OTHER]

    def test_gazetteer_overrides_token_rules(self):
        gaz = {"2005": "TIME"}
        assert annotate(["2005"], gaz) == [EntityClass.TIME]

    def test_unknown_raw_label_rejected(self):
        with pytest.raises(ValueError):
            annotate(["x"], {"x": "GADGET"})

    def test_empty_sequence(self):
        assert annotate([], {"a": "CITY"}) == []

    @given(
        st.lists(
            st.text(alphabet="abcdefgh", min_size=1, max_size=6),
            min_size=0,
            max_size=8,
        )
    )
    def test_output_always_in_inventory(self, words):
        gaz = {"ab": "TITLE", "cd ef": "IDEOLOGY", "gh": "CITY"}
        got = annotate(words, gaz)
        assert len(got) == len(words)
        assert all(isinstance(e, EntityClass) for e in got)


    def test_index_matches_longest_first_scan(self, rng):
        # A five-word vocabulary makes phrases overlap, nest and share
        # prefixes; the text mixes them with rule words and casing.
        vocab = ["new", "york", "city", "jfk", "2005"]
        labels = ["CITY", "STATE_OR_PROVINCE", "ORGANIZATION", "TITLE", "TIME"]
        for _ in range(300):
            gaz = {}
            for _ in range(int(rng.integers(0, 12))):
                size = int(rng.integers(1, 5))
                phrase = " ".join(rng.choice(vocab, size=size))
                gaz[phrase] = str(rng.choice(labels))
            words = [str(w) for w in rng.choice(vocab + ["JFK", "New", "x"],
                                                size=int(rng.integers(0, 12)))]
            expected = annotate_entities_longest_first(words, gaz, DICT)
            assert annotate(words, gaz) == expected


class TestEncodeFeatures:
    def test_width_is_nineteen_plus_four(self):
        assert ENTITY_DIM == 19 and CASE_DIM == 4 and FEATURE_DIM == 23

    def test_none_lower_positions(self):
        vec = encode_features([EntityClass.NONE], [CaseClass.LOWER])
        assert np.flatnonzero(vec).tolist() == [18, 20]

    def test_airport_upper_positions(self):
        vec = encode_features([EntityClass.AIRPORT_CODE], [CaseClass.UPPER])
        assert np.flatnonzero(vec).tolist() == [17, 19]

    def test_every_pair_sums_to_two(self):
        for e in EntityClass:
            for c in CaseClass:
                v = encode_features([e], [c])
                assert v.sum() == 2.0
                assert v.shape == (1, FEATURE_DIM)

    def test_injective_over_all_pairs(self):
        seen = {
            tuple(encode_features([e], [c])[0])
            for e in EntityClass for c in CaseClass
        }
        assert len(seen) == len(EntityClass) * len(CaseClass)

    def test_block_is_the_stack_of_per_word_rows(self):
        # the one-step block is bit-identical to one row built per word
        rng = np.random.default_rng(0)
        entities = [EntityClass(i) for i in rng.integers(0, ENTITY_DIM, 50)]
        cases = [CaseClass(i) for i in rng.integers(0, CASE_DIM, 50)]
        rows = []
        for e, c in zip(entities, cases):
            row = np.zeros(FEATURE_DIM)
            row[int(e)] = row[ENTITY_DIM + int(c)] = 1.0
            rows.append(row)
        block = encode_features(entities, cases)
        assert block.dtype == np.float64
        assert np.array_equal(block, np.stack(rows))
        assert encode_features([], []).shape == (0, FEATURE_DIM)


class TestFeatureForward:
    def test_zero_params_give_zero_output(self):
        params = {
            "feat.W_w": np.zeros((FEATURE_DIM, FEATURE_HIDDEN)),
            "feat.b_w": np.zeros(FEATURE_HIDDEN),
            "feat.a_prelu": np.array(0.25),
            "feat.W_proj": np.zeros((FEATURE_HIDDEN, FEATURE_HIDDEN)),
            "feat.b_proj": np.zeros(FEATURE_HIDDEN),
        }
        out, _ = feature_forward(np.ones((1, FEATURE_DIM)), params)
        assert np.array_equal(out, np.zeros((1, FEATURE_HIDDEN)))

    def test_negative_preactivation_scaled_by_slope(self):
        # b_w = -1 with zero W_w makes every pre-activation -1; the identity
        # projection then exposes the PReLU output directly.
        params = {
            "feat.W_w": np.zeros((FEATURE_DIM, FEATURE_HIDDEN)),
            "feat.b_w": -np.ones(FEATURE_HIDDEN),
            "feat.a_prelu": np.array(0.25),
            "feat.W_proj": np.eye(FEATURE_HIDDEN),
            "feat.b_proj": np.zeros(FEATURE_HIDDEN),
        }
        out, _ = feature_forward(np.zeros((1, FEATURE_DIM)), params)
        assert np.allclose(out, -0.25)

    def test_batch_matches_single(self, rng):
        params = part_params(rng, "feat.")
        rows = rng.normal(size=(5, FEATURE_DIM))
        batched, _ = feature_forward(rows, params)
        single = np.concatenate([feature_forward(r[None], params)[0] for r in rows])
        assert np.allclose(batched, single)

    def test_positive_homogeneity_with_zero_biases(self, rng):
        params = part_params(rng, "feat.")
        params["feat.b_w"][:] = 0.0
        params["feat.b_proj"][:] = 0.0
        x = rng.normal(size=(1, FEATURE_DIM))
        for t in (0.5, 2.0, 7.3):
            assert np.allclose(
                feature_forward(t * x, params)[0], t * feature_forward(x, params)[0]
            )

    def test_gradients_match_finite_differences(self, rng):
        for _ in range(100):
            params = part_params(rng, "feat.")
            params["feat.b_w"][:] = rng.normal(size=FEATURE_HIDDEN)
            params["feat.a_prelu"] = np.array(rng.uniform(0.05, 0.5))
            x = rng.normal(size=(3, FEATURE_DIM))
            probe = rng.normal(size=(3, FEATURE_HIDDEN))

            out, cache = feature_forward(x, params)
            grads = feature_backward(probe, cache, params)

            def loss(_parms=None):
                return float(np.sum(feature_forward(x, params)[0] * probe))

            for name in params:
                coords, fd = finite_difference(
                    loss, params, name, max_coords=8, rng=rng
                )
                analytic = np.asarray(grads[name]).reshape(-1)[coords]
                err = relative_gradient_error(analytic, fd)
                assert err.max() <= 1e-4, f"{name}: max rel err {err.max():.2e}"

    def test_wrong_width_rejected(self, rng):
        params = part_params(rng, "feat.")
        with pytest.raises(ValueError):
            feature_forward(np.zeros((1, FEATURE_DIM + 1)), params)
        with pytest.raises(ValueError):  # one row per piece, no other shape
            feature_forward(np.zeros(FEATURE_DIM), params)


class TestResourceFiles:
    def test_gazetteer_round_trip(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_text("New York City\tCITY\nsenator\tTITLE\n", encoding="utf-8")
        gaz = load_gazetteer(path)
        assert gaz == {"new york city": "CITY", "senator": "TITLE"}

    def test_gazetteer_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_text("just-a-phrase-no-label\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_gazetteer(path)

    def test_gazetteer_rejects_unknown_label(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_text("gadget\tCITY\nthing\tGADGET\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: "
                           "unknown entity label 'GADGET'$"):
            load_gazetteer(path)

    def test_lexicon_keys_by_lowercase(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("McVey\nJFK\n\nParis\n", encoding="utf-8")
        lex = load_lexicon(path)
        assert lex == {"mcvey": "McVey", "jfk": "JFK", "paris": "Paris"}

    def test_english_dict_lowercases(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("For\nthe\n", encoding="utf-8")
        assert load_english_dict(path) == frozenset({"for", "the"})


class TestWordFeaturizer:
    def _featurizer(self):
        return WordFeaturizer(
            lexicon=dict(LEXICON),
            gazetteer={"baltimore": "CITY", "dallas": "CITY"},
            english_dict=DICT,
        )

    @pytest.mark.parametrize("lexicon,gazetteer,needle", [
        ({"jfk": 5}, {}, "lexicon form 5 of 'jfk' is not a word"),
        ({"jfk": ""}, {}, "lexicon form '' of 'jfk'"),
        ({}, {"boston": "BOGUS"}, "unknown entity label 'BOGUS'"),
        ({}, {"boston": 7}, "unknown entity label 7"),
    ])
    def test_bad_resources_refused_on_construction(self, lexicon, gazetteer,
                                                   needle):
        with pytest.raises(ValueError, match=re.escape(needle)):
            WordFeaturizer(lexicon, gazetteer, DICT)
        with pytest.raises(ValueError, match=re.escape(needle)):
            WordFeaturizer.from_dict(
                dict(lexicon=lexicon, gazetteer=gazetteer, english_dict=[]))

    def test_pipeline_on_flight_query(self):
        fz = self._featurizer()
        words = "i want fly from baltimore to jfk".split()
        entities, cases, canonical = fz.annotate(words)
        assert entities[4] is EntityClass.CITY
        assert entities[6] is EntityClass.AIRPORT_CODE
        assert cases[6] is CaseClass.UPPER
        assert canonical[6] == "JFK"
        # "from" and "to" stay unlabeled lowercase words
        assert entities[3] is EntityClass.NONE
        assert cases[3] is CaseClass.LOWER

    def test_feature_matrix_shape_and_onehots(self):
        fz = self._featurizer()
        feats = fz.featurize("fly from baltimore".split())
        assert feats.shape == (3, FEATURE_DIM)
        assert np.all(feats.sum(axis=1) == 2.0)

    def test_empty_input(self):
        feats = self._featurizer().featurize([])
        assert feats.shape == (0, FEATURE_DIM)

    def test_dict_round_trip(self):
        fz = self._featurizer()
        clone = WordFeaturizer.from_dict(fz.to_dict())
        words = "fly from baltimore to jfk for 2005".split()
        assert np.array_equal(clone.featurize(words), fz.featurize(words))

    def test_phrase_index_built_once_on_first_use(self):
        fz = WordFeaturizer.from_dict(self._featurizer().to_dict())
        assert "phrase_index" not in vars(fz)  # loading does not build it
        fz.featurize(["fly", "baltimore"])
        index = fz.phrase_index
        fz.featurize(["dallas"])
        assert fz.phrase_index is index
        assert index == PhraseIndex.build(fz.gazetteer)

    def test_index_lists_spans_by_first_word_longest_first(self):
        index = PhraseIndex.build({
            "new york city": "CITY", "new": "MISC", "new york": "CITY",
            "york": "CITY", "new jersey": "CITY", " ": "CITY",
        })
        assert index.spans == {"new": (3, 2, 1), "york": (1,)}

    def test_word_memo_stops_growing_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(features, "WORD_MEMO_WORDS", 3)
        gaz = {"baltimore": "CITY", "new york": "CITY"}
        fz = WordFeaturizer(dict(LEXICON), gaz, DICT)
        assert "_word_memo" not in vars(fz)  # built on first use
        texts = ["fly from baltimore to jfk", "USA 2005 for new york",
                 "Justin and mcvey FOR 42 New York", "fly fly fly"]
        for _ in range(2):
            for text in texts:
                words = text.split()
                canonical = [canonical_form(w, LEXICON) for w in words]
                entities, cases, got_canonical = fz.annotate(words)
                assert got_canonical == canonical
                assert cases == [classify_case(c) for c in canonical]
                assert entities == annotate_entities_longest_first(
                    canonical, gaz, DICT)
                assert len(fz._word_memo) <= 3
        assert len(fz._word_memo) == 3

    def test_from_files(self, tmp_path):
        (tmp_path / "lex.txt").write_text("JFK\n", encoding="utf-8")
        (tmp_path / "gaz.tsv").write_text("dallas\tCITY\n", encoding="utf-8")
        (tmp_path / "dict.txt").write_text("for\n", encoding="utf-8")
        fz = WordFeaturizer.from_files(
            tmp_path / "lex.txt", tmp_path / "gaz.tsv", tmp_path / "dict.txt"
        )
        entities, cases, _ = fz.annotate(["jfk", "dallas", "for"])
        assert entities == [
            EntityClass.AIRPORT_CODE,
            EntityClass.CITY,
            EntityClass.NONE,
        ]
        assert cases[0] is CaseClass.UPPER
