"""
Per-word features: truecasing, entities, and the 23-dim encoding
================================================================

The word-feature pipeline runs before the model sees anything: restore
each word's canonical casing from a lexicon, then label entities from a
gazetteer plus a few shape rules. Each word's (entity, case) pair travels
as one code until a batch is built, where it becomes a one-hot 23-dim row
(19 entity classes + 4 case classes).
"""

from jointnlu import (
    CaseClass,
    EntityClass,
    WordFeaturizer,
    encode_features,
    feature_codes,
)

featurizer = WordFeaturizer(
    lexicon={
        "baltimore": "Baltimore",
        "jfk": "JFK",
        "mcvey": "McVey",
        "for": "FOR",
    },
    gazetteer={"baltimore": "CITY", "justin broadrick": "PERSON"},
    english_dict=frozenset(["i", "want", "to", "fly", "from", "for"]),
)

# ------------------------------------------------------------------
# Truecasing first, then entity annotation over the canonical words.
# ------------------------------------------------------------------
words = "i want to fly from baltimore jfk for mcvey 1971".split()
entities, cases, canonical = featurizer.annotate(words)

print(f"{'word':12s} {'canonical':12s} {'case':12s} entity")
for w, c, case, ent in zip(words, canonical, cases, entities):
    print(f"{w:12s} {c:12s} {case.name:12s} {ent.name}")

# Three behaviors worth noticing above:
#  - "jfk" truecases to JFK; three capitals outside the english
#    dictionary trip the airport-code rule.
#  - "for" truecases to FOR, the same three-capital shape, but it is an
#    ordinary dictionary word, so the rule stays quiet.
#  - "mcvey" restores to McVey, whose mixed casing falls into the O
#    (other) case class.
assert entities[6] is EntityClass.AIRPORT_CODE
assert entities[7] is EntityClass.NONE
assert cases[8] is CaseClass.O

# ------------------------------------------------------------------
# The codes and the dense encoding: one code per word, e * 4 + c, and
# one 23-dim row per code with exactly two ones.
# ------------------------------------------------------------------
code = feature_codes([EntityClass.CITY], [CaseClass.INIT_UPPER])[0]
row = encode_features([code])[0]
print("\nCITY/INIT_UPPER code:", code, "| feature row length:", row.shape[0])
print("hot positions:", [int(i) for i in row.nonzero()[0]],
      "(entity block 0-18, case block 19-22)")

codes = featurizer.featurize(words)
print("featurize codes for the sentence:", codes)
print("their rows:", encode_features(codes).shape)
