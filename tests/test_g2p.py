import random
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonosim import g2p
from phonosim.errors import (DataError, ParseError, PhonosimError, TokenizeError,
                             UnmatchedGraphemeError)
from phonosim.g2p import MODES, G2PRule, Ruleset, load_ruleset, transliterate
from phonosim.ipa import NormalizationPolicy, default_policy

from genutil import random_policy, random_ruleset, random_text_for

PLAIN = NormalizationPolicy(merge_pairs={})


def make_ruleset(*rules, **kwargs):
    return Ruleset("toy", [G2PRule(*r) for r in rules], **kwargs)


def prepare_oracle(rs, text):
    """Ruleset.prepare with the per-character category test it replaced."""
    t = unicodedata.normalize("NFC", text)
    if rs.case_fold:
        t = unicodedata.normalize("NFC", t.casefold())
    if rs.punctuation_strip:
        t = unicodedata.normalize("NFC", "".join(
            c for c in t
            if c.isspace() or unicodedata.category(c)[0] not in ("P", "S", "N")))
    return t


MIXED_TEXT = ("Ça, va?  «Oui» — 42½ ½ ⅷ ٣ $€ + ∑ © 😀 a\u0301 e\u0308 n\u0303 "
              "t͡ʃ ʼ ˈa ˌb ː \t\n\r\x0b\x0c\x1c\x85\u00a0\u2003\u2028\u3000 "
              "\u200b\u200d\ufeff \x00 \ue000 \U000e0001 ΣΑΣ straße ǅ İ ﬁ")


class TestMatching:
    def test_longest_match_wins(self):
        rs = make_ruleset(("ch", "t͡ʃ"), ("c", "k"), ("h", "h"), ("a", "a"))
        assert transliterate("cha", rs, PLAIN) == ["t͡ʃ", "a"]

    def test_empty_input(self):
        rs = make_ruleset(("a", "a"))
        assert transliterate("", rs, PLAIN) == []

    def test_unmatched_error_mode_offset(self):
        rs = make_ruleset(("a", "a"))
        with pytest.raises(UnmatchedGraphemeError) as exc:
            transliterate("q", rs, PLAIN, mode="error")
        assert exc.value.offset == 0
        assert exc.value.grapheme == "q"

    def test_unmatched_skip_mode(self):
        rs = make_ruleset(("a", "a"))
        assert transliterate("q", rs, PLAIN, mode="skip") == []
        assert transliterate("qaq", rs, PLAIN, mode="skip") == ["a"]

    def test_unmatched_passthrough_mode(self):
        rs = make_ruleset(("a", "a"))
        assert transliterate("qa", rs, PLAIN, mode="passthrough") == ["q", "a"]

    def test_unknown_mode_rejected(self):
        rs = make_ruleset(("a", "a"))
        with pytest.raises(DataError):
            transliterate("a", rs, PLAIN, mode="lenient")

    def test_priority_beats_order_on_equal_length(self):
        rs = make_ruleset(("a", "x", None, "[b]", 0), ("a", "y", None, None, 5),
                          ("b", "b"))
        # both rules match before 'b'; priority 5 wins
        assert transliterate("ab", rs, PLAIN) == ["y", "b"]

    def test_order_breaks_priority_ties(self):
        rs = make_ruleset(("a", "x", None, "[b]", 0), ("a", "y", None, None, 0),
                          ("b", "b"))
        assert transliterate("ab", rs, PLAIN) == ["x", "b"]

    def test_silent_grapheme(self):
        rs = make_ruleset(("h", ""), ("a", "a"))
        assert transliterate("ha", rs, PLAIN) == ["a"]

    def test_multi_segment_output(self):
        rs = make_ruleset(("x", "ks"), ("a", "a"))
        assert transliterate("xa", rs, PLAIN) == ["k", "s", "a"]


class TestContexts:
    def test_right_context_class(self):
        rs = make_ruleset(("n", "ŋ", None, "[kg]", 1), ("n", "n"),
                          ("k", "k"), ("a", "a"))
        assert transliterate("anka", rs, PLAIN) == ["a", "ŋ", "k", "a"]
        assert transliterate("ana", rs, PLAIN) == ["a", "n", "a"]

    def test_left_context_literal(self):
        rs = make_ruleset(("s", "z", "a", None, 1), ("s", "s"), ("a", "a"),
                          ("i", "i"))
        assert transliterate("asa isi", rs, PLAIN) == ["a", "z", "a", "i", "s", "i"]

    def test_word_boundary_anchors(self):
        rs = make_ruleset(("a", "ʔa", "#", None, 1), ("a", "a"), ("t", "t"))
        assert transliterate("ata", rs, PLAIN) == ["ʔ", "a", "t", "a"]
        # each word gets its own boundary
        assert transliterate("at at", rs, PLAIN) == ["ʔ", "a", "t", "ʔ", "a", "t"]

    def test_right_boundary_anchor(self):
        rs = make_ruleset(("t", "d", None, "#", 1), ("t", "t"), ("a", "a"))
        assert transliterate("tat", rs, PLAIN) == ["t", "a", "d"]

    def test_context_requires_presence(self):
        rs = make_ruleset(("a", "x", "[b]", None, 1), ("a", "a"), ("b", "b"))
        # word-initial 'a' has no left neighbor, so the context rule skips
        assert transliterate("ab", rs, PLAIN) == ["a", "b"]
        assert transliterate("bab", rs, PLAIN) == ["b", "x", "b"]


class TestPreparation:
    def test_case_folding(self):
        rs = make_ruleset(("ch", "t͡ʃ"), ("a", "a"))
        assert transliterate("CHa", rs, PLAIN) == ["t͡ʃ", "a"]

    @pytest.mark.parametrize("text", ["ǰ", "J\u030c", "j\u030c"])
    def test_case_folding_keeps_nfc(self, text):
        # casefold('ǰ') is 'j' + U+030C; rule and input must both recompose
        rs = make_ruleset(("ǰ", "d͡ʒ"), ("j", "j"))
        assert rs.prepare(text) == "ǰ"
        assert transliterate(text, rs, PLAIN) == ["d͡ʒ"]

    def test_case_folding_dotted_capital_i(self):
        # casefold('İ') is 'i' + U+0307, which has no composed form
        rs = make_ruleset(("İ", "i"), ("i", "ɪ"))
        assert rs.prepare("İ") == "i\u0307"
        assert transliterate("İ i\u0307 i", rs, PLAIN) == ["i", "i", "ɪ"]

    def test_case_folded_context_keeps_nfc(self):
        rs = make_ruleset(("a", "ə", "ǰ"), ("a", "a"), ("ǰ", "d͡ʒ"))
        assert transliterate("ǰa a", rs, PLAIN) == ["d͡ʒ", "ə", "a"]

    def test_case_folding_disabled(self):
        rs = make_ruleset(("a", "a"), case_fold=False)
        with pytest.raises(UnmatchedGraphemeError):
            transliterate("A", rs, PLAIN)

    def test_punctuation_and_digits_stripped(self):
        rs = make_ruleset(("a", "a"), ("b", "b"))
        assert transliterate("a, b! 42", rs, PLAIN) == ["a", "b"]

    @pytest.mark.parametrize("text", ["e!\u0301", "e\u0301!", "E\u00b2\u0301"])
    def test_stripped_punctuation_between_base_and_mark(self, text):
        # dropping the mark brings e and U+0301 together; they must compose
        rs = make_ruleset(("é", "e"), ("e", "ə"))
        assert rs.prepare(text) == "é"
        assert transliterate(text, rs, PLAIN) == ["e"]

    def test_punctuation_kept_when_disabled(self):
        rs = make_ruleset(("a", "a"), punctuation_strip=False)
        with pytest.raises(UnmatchedGraphemeError):
            transliterate("a!", rs, PLAIN)

    @pytest.mark.parametrize("case_fold", [True, False])
    @pytest.mark.parametrize("punctuation_strip", [True, False])
    def test_prepare_matches_category_filter(self, case_fold, punctuation_strip):
        rs = make_ruleset(("a", "a"), case_fold=case_fold,
                          punctuation_strip=punctuation_strip)
        for text in (MIXED_TEXT, MIXED_TEXT[::-1], "", " "):
            assert rs.prepare(text) == prepare_oracle(rs, text)
        # the second pass reads the cached decisions
        assert rs.prepare(MIXED_TEXT) == prepare_oracle(rs, MIXED_TEXT)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.text(st.characters(codec="utf-8"), max_size=40))
    def test_prepare_matches_category_filter_random(self, text):
        rs = make_ruleset(("a", "a"))
        assert rs.prepare(text) == prepare_oracle(rs, text)

    def test_output_is_normalized(self):
        rs = make_ruleset(("s", "sʲ"), ("u", "u"))
        assert transliterate("su", rs, default_policy()) == ["ʃ", "u"]


class TestRulesetValidation:
    def test_needs_at_least_one_rule(self):
        with pytest.raises(DataError):
            Ruleset("toy", [])

    def test_duplicate_rule_rejected(self):
        with pytest.raises(DataError):
            make_ruleset(("a", "x"), ("a", "y"))

    def test_same_grapheme_different_context_allowed(self):
        rs = make_ruleset(("a", "x", None, "[b]"), ("a", "y"))
        assert len(rs.rules) == 2

    def test_empty_grapheme_rejected(self):
        with pytest.raises(DataError):
            make_ruleset(("", "x"))


class TestRuleFile:
    def test_load_toy_file(self, toy_dir):
        rs = load_ruleset(toy_dir / "rules" / "aaa.rules")
        assert rs.language_code == "aaa"
        assert len(rs.rules) == 14
        assert transliterate("tinku", rs, default_policy()) == ["t", "i", "ŋ", "k", "u"]

    def test_three_rule_file(self, tmp_path):
        p = tmp_path / "x.rules"
        p.write_text("a\tA\nb\tB\nc\tC\n", encoding="utf-8")
        rs = load_ruleset(p)
        assert len(rs.rules) == 3
        assert rs.language_code == "x"

    def test_duplicate_line_errors(self, tmp_path):
        p = tmp_path / "x.rules"
        p.write_text("a\tA\na\tB\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_ruleset(p)
        assert exc.value.line == 2

    def test_empty_file_errors(self, tmp_path):
        p = tmp_path / "x.rules"
        p.write_text("# only a comment\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_ruleset(p)

    def test_bad_priority_errors(self, tmp_path):
        p = tmp_path / "x.rules"
        p.write_text("a\tA\t\t\thigh\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_ruleset(p)
        assert exc.value.line == 1

    def test_unterminated_class_errors(self, tmp_path):
        p = tmp_path / "x.rules"
        p.write_text("a\tA\t[bc\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_ruleset(p)

    def test_misplaced_anchor_errors(self, tmp_path):
        p = tmp_path / "x.rules"
        p.write_text("a\tA\tb#\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_ruleset(p)

    def test_directives(self, tmp_path):
        p = tmp_path / "x.rules"
        p.write_text("@language klg\n@case_fold off\na\tA\n", encoding="utf-8")
        rs = load_ruleset(p)
        assert rs.language_code == "klg"
        assert rs.case_fold is False

    @pytest.mark.parametrize("directive", ["@case_fold of",
                                           "@punctuation_strip flase",
                                           "@case_fold"])
    def test_directive_booleans_strict(self, tmp_path, directive):
        p = tmp_path / "x.rules"
        p.write_text(f"a\tA\n{directive}\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_ruleset(p)
        assert str(exc.value).startswith(f"{p}:2: expected a boolean")

    def test_unknown_directive_errors(self, tmp_path):
        p = tmp_path / "x.rules"
        p.write_text("@frobnicate on\na\tA\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_ruleset(p)


class TestProperties:
    def test_determinism(self):
        rng = random.Random(3)
        for _ in range(50):
            rs = random_ruleset(rng)
            text = random_text_for(rs, rng)
            first = transliterate(text, rs, PLAIN, mode="skip")
            assert all(
                transliterate(text, rs, PLAIN, mode="skip") == first
                for _ in range(3))

    def test_longest_match_dominance(self):
        rng = random.Random(4)
        policy = PLAIN
        for _ in range(100):
            rs = random_ruleset(rng)
            by_len = sorted(rs.rules, key=lambda r: len(r.grapheme))
            longer = [r for r in by_len if len(r.grapheme) > 1]
            if not longer:
                continue
            rule_b = longer[-1]
            prefixes = [r for r in rs.rules
                        if rule_b.grapheme.startswith(r.grapheme)
                        and len(r.grapheme) < len(rule_b.grapheme)]
            if not prefixes:
                continue
            out = transliterate(rule_b.grapheme, rs, policy)
            assert out[0] == rule_b.phoneme_output

    def test_closure_against_inventory(self, toy_dir):
        from phonosim.selection import build_inventory
        from phonosim.pipeline import read_corpus_tsv

        policy = default_policy()
        sets = {}
        seqs = {}
        for code in ("aaa", "aab"):
            rs = load_ruleset(toy_dir / "rules" / f"{code}.rules")
            utts = read_corpus_tsv(toy_dir / "corpus" / f"{code}.tsv")
            converted = [transliterate(t, rs, policy) for _, t in utts]
            seqs[code] = converted
            sets[code] = {ph for seq in converted for ph in seq}
        inv = build_inventory(("aaa", "aab"), sets)
        known = set(inv.phonemes)
        for code, converted in seqs.items():
            for seq in converted:
                assert set(seq) <= known


def uncached(text, rs, policy, mode):
    """The whole-text path transliterate falls back to; the test oracle."""
    return g2p._transliterate_prepared(rs.prepare(text), rs, policy, mode)


def outcome(fn, text, rs, policy, mode):
    try:
        return fn(text, rs, policy, mode)
    except PhonosimError as e:
        return type(e), str(e), getattr(e, "offset", None)


COMBINING_TILDE = "\u0303"


def ruleset_with_traps(rng):
    """A random ruleset plus 'x', whose output is a bare combining mark: a
    word starting with 'x' fails to tokenize. 'q' never matches."""
    base = random_ruleset(rng)
    return Ruleset("toy", base.rules + (G2PRule("x", COMBINING_TILDE),))


def repeating_texts(rs, rng, n_texts=8):
    """Texts drawn from a small vocabulary so words repeat across texts."""
    vocab = []
    for _ in range(rng.randint(2, 6)):
        word = random_text_for(rs, rng, max_tokens=4)
        if rng.random() < 0.2:
            word = word.upper()
        if rng.random() < 0.2:
            at = rng.randrange(len(word) + 1)
            word = word[:at] + rng.choice("qx") + word[at:]
        vocab.append(word)
    return ["".join(rng.choice(vocab) + rng.choice((" ", " ", "  ", "\t", ", "))
                    for _ in range(rng.randrange(7)))
            for _ in range(n_texts)]


def linear_match_at(rs, word, i):
    for g, left, right, rule, _ in rs._compiled:
        if not word.startswith(g, i):
            continue
        if left is not None and not g2p._match_left(left, word, i):
            continue
        if right is not None and not g2p._match_right(right, word, i + len(g)):
            continue
        return rule, len(g)
    return None, 0


class TestWordMemo:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_uncached_path_text_by_text(self, seed):
        rng = random.Random(seed)
        rs = ruleset_with_traps(rng)
        texts = repeating_texts(rs, rng)
        for mode in MODES:
            for text in texts:
                assert (outcome(transliterate, text, rs, PLAIN, mode)
                        == outcome(uncached, text, rs, PLAIN, mode)), (mode, text)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_switching_policy_or_mode_uses_its_own_result(self, seed):
        rng = random.Random(seed)
        rs = ruleset_with_traps(rng)
        policies = [random_policy(rng) for _ in range(2)]
        texts = repeating_texts(rs, rng)
        for text in texts * 2:
            policy = rng.choice(policies)
            mode = rng.choice(MODES)
            assert (outcome(transliterate, text, rs, policy, mode)
                    == outcome(uncached, text, rs, policy, mode)), (mode, text)

    def test_unmatched_grapheme_error_is_unchanged(self):
        rs = make_ruleset(("a", "a"), ("b", "b"))
        transliterate("ab ab", rs, PLAIN)  # warm the memo
        with pytest.raises(UnmatchedGraphemeError) as exc:
            transliterate("ab  ab bqa", rs, PLAIN)
        assert (exc.value.grapheme, exc.value.offset) == ("q", 8)
        assert str(exc.value) == str(outcome(uncached, "ab  ab bqa", rs, PLAIN,
                                             "error")[1])

    def test_tokenize_error_is_unchanged(self):
        rs = make_ruleset(("a", "a"), ("x", COMBINING_TILDE))
        assert transliterate("ax a", rs, PLAIN) == ["ã", "a"]
        with pytest.raises(TokenizeError) as exc:
            transliterate("a xa", rs, PLAIN)
        # the offset counts in the whole joined IPA text, not in the word
        assert exc.value.offset == 2
        assert "xa" not in rs._memo[2]  # failures are never stored

    def test_later_unmatched_grapheme_beats_earlier_tokenize_error(self):
        rs = make_ruleset(("a", "a"), ("x", COMBINING_TILDE))
        with pytest.raises(UnmatchedGraphemeError) as exc:
            transliterate("xa a aqa", rs, PLAIN)
        assert exc.value.offset == 6
        with pytest.raises(TokenizeError):
            transliterate("xa a aqa", rs, PLAIN, mode="skip")

    def test_policy_and_mode_switches_on_one_ruleset(self):
        rs = make_ruleset(("s", "s"), ("a", "a"))
        assert transliterate("sa sa", rs, PLAIN) == ["s", "a", "s", "a"]
        for target in ("ʃ", "z") * 4:
            policy = NormalizationPolicy(merge_pairs={"s": target})
            result = transliterate("sa sa", rs, policy)
            # a freed policy's id() goes to the next one, which must not get
            # the previous policy's memo
            del policy
            assert result == [target, "a", target, "a"]
        assert transliterate("sqa", rs, PLAIN, mode="skip") == ["s", "a"]
        assert transliterate("sqa", rs, PLAIN, mode="passthrough") == ["s", "q", "a"]
        assert transliterate("sqa", rs, PLAIN, mode="skip") == ["s", "a"]
        with pytest.raises(UnmatchedGraphemeError):
            transliterate("sqa", rs, PLAIN)

    def test_result_is_a_fresh_list(self):
        rs = make_ruleset(("a", "a"))
        for _ in range(3):
            result = transliterate("a", rs, PLAIN)
            assert result == ["a"]
            result.append("mutated")


class TestRuleIndex:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_match_at_agrees_with_linear_scan(self, seed):
        rng = random.Random(seed)
        rs = random_ruleset(rng)
        contexts = [G2PRule(r.grapheme, "c" + r.phoneme_output,
                            rng.choice((None, "#", "[ab]", "c")),
                            rng.choice((None, "#", "[de]", "f")), rng.randrange(3))
                    for r in rng.sample(rs.rules, rng.randint(1, len(rs.rules)))]
        contexts = [r for r in contexts if r.left_context or r.right_context]
        rs = Ruleset("toy", rs.rules + tuple(contexts))
        for _ in range(5):
            word = rs.prepare(random_text_for(rs, rng) + rng.choice(("", "q", "A")))
            for i in range(len(word) + 1):
                assert rs.match_at(word, i) == linear_match_at(rs, word, i), (word, i)
