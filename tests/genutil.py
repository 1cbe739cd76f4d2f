"""Seeded random generators shared by property and acceptance tests.

Everything here builds *valid* toolkit inputs (tokenizable IPA strings,
policies passing construction checks, well-formed rulesets) from plain
random.Random streams so test counts and runtimes stay fixed.
"""

import random

from phonosim.errors import DataError
from phonosim.g2p import G2PRule, Ruleset
from phonosim.ipa import NormalizationPolicy

BASE_LETTERS = "ptkbdgmnszfvlrjwaeiouɑæɛɔʃʒθχ"
MODIFIER_MARKS = ["ʲ", "ʰ", "ʷ", "ː"]   # ʲ ʰ ʷ ː
COMBINING_MARKS = ["̃", "̥"]                       # nasal tilde, voiceless ring
PREFIX_MARKS = ["ˈ", "ˌ", "."]
VOQS_SAMPLES = ["ʬ", "ʭ"]                          # ʬ ʭ
TIE = "͡"


def random_segment(rng, allow_prefix=True, allow_voqs=False):
    parts = []
    if allow_prefix and rng.random() < 0.2:
        parts.append(rng.choice(PREFIX_MARKS))
    if allow_voqs and rng.random() < 0.1:
        parts.append(rng.choice(VOQS_SAMPLES))
    else:
        parts.append(rng.choice(BASE_LETTERS))
        if rng.random() < 0.15:
            parts.append(TIE)
            parts.append(rng.choice(BASE_LETTERS))
    for _ in range(rng.randrange(3)):
        pool = MODIFIER_MARKS if rng.random() < 0.7 else COMBINING_MARKS
        parts.append(rng.choice(pool))
    return "".join(parts)


def random_ipa_string(rng, max_segments=8, allow_voqs=True):
    n = rng.randrange(max_segments + 1)
    chunks = []
    for _ in range(n):
        chunks.append(random_segment(rng, allow_voqs=allow_voqs))
        if rng.random() < 0.15:
            chunks.append(" ")
    return "".join(chunks)


def random_policy(rng, max_tries=50):
    """A NormalizationPolicy that passes construction validation."""
    for _ in range(max_tries):
        strip = set()
        for mark in MODIFIER_MARKS + COMBINING_MARKS + ["."]:
            if rng.random() < 0.3:
                strip.add(mark)
        merge = {}
        for _ in range(rng.randrange(4)):
            src = random_segment(rng, allow_prefix=False)
            tgt = random_segment(rng, allow_prefix=False)
            merge.setdefault(src, tgt)
        try:
            return NormalizationPolicy(
                strip_stress=rng.random() < 0.8,
                strip_voqs=rng.random() < 0.8,
                strip_diacritics=frozenset(strip),
                merge_pairs=merge,
            )
        except DataError:
            continue
    raise AssertionError("could not build a valid random policy")


GRAPHEME_ALPHABET = "abcdefgh"
OUTPUT_LETTERS = "ptkbdgmnszaeiou"


def random_ruleset(rng, language="toy"):
    """A ruleset whose outputs are distinct single letters, so the applied
    rule is identifiable from the transliteration output."""
    graphemes = set()
    while len(graphemes) < rng.randint(3, 8):
        length = rng.choice((1, 1, 1, 2, 2, 3))
        graphemes.add("".join(rng.choice(GRAPHEME_ALPHABET) for _ in range(length)))
    outputs = rng.sample(OUTPUT_LETTERS, len(graphemes))
    rules = [
        G2PRule(g, out, priority=rng.randrange(3))
        for g, out in zip(sorted(graphemes), outputs)
    ]
    rng.shuffle(rules)
    return Ruleset(language, rules, case_fold=True, punctuation_strip=True)


def random_text_for(rs, rng, max_tokens=6):
    graphemes = [r.grapheme for r in rs.rules]
    return "".join(rng.choice(graphemes) for _ in range(rng.randrange(max_tokens + 1)))


# Outputs whose segments a concatenation cannot reuse: marks with nothing
# before them, and tie bars or prefix marks with nothing after them.
LEADING_MARKS = MODIFIER_MARKS + COMBINING_MARKS + [TIE]
TRAILING_MARKS = [TIE] + PREFIX_MARKS
# Pairs of outputs whose join composes under NFC: e + U+0301 is é, and
# the Hangul jamo U+1100 + U+1161 (+ U+11A8) are the syllable U+AC00
# (U+AC01).
COMPOSING_PAIRS = [("e", "\u0301"), ("\u1100", "\u1161"),
                   ("\u1161", "\u11a8"), ("\uac00", "\u11a8")]


def random_output(rng):
    """One IPA rule output built from random_ipa_string's parts: usually a
    string that tokenizes on its own, sometimes silent, or led by a mark,
    or ended by a tie bar or prefix mark."""
    roll = rng.random()
    if roll < 0.1:
        return ""
    out = random_ipa_string(rng, max_segments=2)
    if roll < 0.2:
        out = rng.choice(LEADING_MARKS) + out
    elif roll < 0.3:
        out += rng.choice(TRAILING_MARKS)
    return out


def random_output_ruleset(rng, language="toy"):
    """A ruleset over GRAPHEME_ALPHABET whose outputs come from random_output,
    two of them a COMPOSING_PAIRS pair one time in three."""
    graphemes = set()
    while len(graphemes) < rng.randint(3, 8):
        length = rng.choice((1, 1, 1, 2, 2, 3))
        graphemes.add("".join(rng.choice(GRAPHEME_ALPHABET) for _ in range(length)))
    outputs = [random_output(rng) for _ in graphemes]
    if rng.random() < 1 / 3:
        i, j = rng.sample(range(len(outputs)), 2)
        outputs[i], outputs[j] = rng.choice(COMPOSING_PAIRS)
    rules = [G2PRule(g, out, priority=rng.randrange(3))
             for g, out in zip(sorted(graphemes), outputs)]
    rng.shuffle(rules)
    return Ruleset(language, rules, case_fold=True, punctuation_strip=True)
