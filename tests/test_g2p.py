import contextlib
import copy
import gc
import io
import random
import re
import tempfile
import unicodedata
import weakref
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phonosim import cli, g2p
from phonosim.errors import (DataError, ParseError, PhonosimError, RuleError,
                             TokenizeError, UnmatchedGraphemeError)
from phonosim.g2p import MODES, G2PRule, Ruleset, load_ruleset, transliterate
from phonosim.ipa import NormalizationPolicy, default_policy, normalize, tokenize_ipa

from genutil import (COMPOSING_PAIRS, random_output_ruleset, random_policy,
                     random_ruleset, random_text_for)

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

    def test_literal_and_class_hold_the_same_character(self):
        # `k` and `[kg]` both hold k; each position tests only its own unit
        rs = make_ruleset(("n", "ŋ", None, "k[kg]", 1), ("n", "n"),
                          ("a", "x", "[ab]b", None, 1), ("a", "a"),
                          ("b", "b"), ("g", "g"), ("k", "k"))
        assert transliterate("ankk ankg", rs, PLAIN) == [
            "a", "ŋ", "k", "k", "a", "ŋ", "k", "g"]
        assert transliterate("angk ank", rs, PLAIN) == [
            "a", "n", "g", "k", "a", "n", "k"]
        assert transliterate("bba aba", rs, PLAIN) == ["b", "b", "x", "a", "b", "x"]
        assert transliterate("baa ba", rs, PLAIN) == ["b", "a", "a", "b", "a"]

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

    @pytest.mark.parametrize("rules,index,first", [
        ((("a", "x"), ("b", "y"), ("A", "z")), 2, 0),
        ((("a", "x"), ("", "y")), 1, None),
        ((("a", "x"), ("b", "y", "c#")), 1, None),
        ((("a", "x"), ("b", "y", None, "[c")), 1, None),
    ], ids=["repeat", "empty-grapheme", "anchor", "class"])
    def test_error_names_the_rule(self, rules, index, first):
        with pytest.raises(RuleError) as exc:
            make_ruleset(*rules)
        assert (exc.value.index, exc.value.first) == (index, first)


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

    def test_language_defaults_to_whole_stem(self, tmp_path):
        # corpus codes are file stems, and a code may contain a dot
        p = tmp_path / "zh.cn.rules"
        p.write_text("a\tA\n", encoding="utf-8")
        assert load_ruleset(p).language_code == "zh.cn"

    def test_rules_equal_once_folded_are_duplicates(self):
        precomposed, decomposed = "\u00e9", "e\u0301"
        with pytest.raises(DataError, match=(
                f"^rule {decomposed!r} matches the same text as rule {precomposed!r}$")):
            make_ruleset((precomposed, "e"), (decomposed, "f"), case_fold=False)
        with pytest.raises(DataError, match=(
                "^rule 'k' left 'b' matches the same text as rule 'k' left '\\[B\\]'$")):
            make_ruleset(("k", "k", "[B]"), ("k", "q", "b"))
        assert len(make_ruleset(("a", "x"), ("A", "y"), case_fold=False).rules) == 2

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


# rule-file lines built from field and class syntax, directives, a control
# character, a combining mark and letters whose case folding changes length
_GRAPHEMES = ["a", "A", "ss", "ß", "SS", "İ", "i\u0307", "ǰ", "J\u030c", "e\u0301",
              "é", "\u0301", "\x01", "#", "[a]", ""]
_CONTEXTS = ["", "", "", "", "a", "A", "[a]", "[A]", "#a", "a#", "[", "]", "[]",
             "\x01"]
_PRIORITIES = ["", "", "1", "-2", "1e3", " 7 "]
_rule_line = st.builds(
    lambda fields, width: "\t".join(fields[:width]),
    st.tuples(st.one_of(st.sampled_from(_GRAPHEMES), st.text("aß#[]@\t", max_size=3)),
              st.sampled_from(["a", "", "s\u0301", "\x01", "ʃ"]),
              st.sampled_from(_CONTEXTS), st.sampled_from(_CONTEXTS),
              st.sampled_from(_PRIORITIES), st.just("x")),
    st.sampled_from([1, 1, 2, 2, 3, 4, 5, 6]))
_directive_line = st.builds(
    "{} {}".format,
    st.sampled_from(["@language", "@case_fold", "@punctuation_strip", "@", "@bogus"]),
    st.sampled_from(["on", "off", "0", "maybe", "", "x\x01"]))
_file_line = st.one_of(_rule_line, _rule_line, _rule_line, _directive_line,
                       st.sampled_from(["", "#", "# a\tb", "  "]))


class TestAdversarialRuleFiles:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(_file_line, min_size=1, max_size=6))
    @example(["a\tx", "# c", "A\ty"])
    @example(["@case_fold on", "ss\ts", "ß\tz\t\t\t1e3"])
    def test_loader_and_g2p_fail_cleanly(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.rules"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            try:
                load_ruleset(path)
            except ParseError as exc:
                assert exc.path == str(path)
                # only a file without rule lines fails as a whole
                assert exc.line is not None or not any(
                    line.strip() and not line.lstrip().startswith("#")
                    and not line.startswith("@") for line in lines)
            out, err = io.StringIO(), io.StringIO()
            with mock.patch("sys.stdin", io.TextIOWrapper(
                    io.BytesIO("a ss İ ǰ é\n".encode("utf-8")), encoding="utf-8")), \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["g2p", "--rules", str(path)])
            assert code in (0, 2), err.getvalue()


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
        from phonosim.pipeline import read_corpus_tsv
        from phonosim.registry import load_registry
        from phonosim.selection import emit_manifest, select_strategy

        policy = default_policy()
        corpora = {}
        for code in ("aaa", "aab"):
            rs = load_ruleset(toy_dir / "rules" / f"{code}.rules")
            utts = read_corpus_tsv(toy_dir / "corpus" / f"{code}.tsv")
            corpora[code] = [(audio, transliterate(t, rs, policy)) for audio, t in utts]
        reg = load_registry(toy_dir / "registry.csv")
        sel = select_strategy("aaa", "family", reg)
        assert sel.languages == ("aaa", "aab")
        man = emit_manifest(sel, corpora, reg)
        known = set(man.phonemes)
        for converted in corpora.values():
            for _, seq in converted:
                assert set(seq) <= known


def text_order(text, rs, policy, mode):
    """The test oracle: each whitespace-delimited word of the prepared text
    in turn, scanned with Ruleset.match_at, its IPA string tokenized and
    normalized. The first failing word raises: an unmatched grapheme with
    its offset in the prepared text, a tokenize error naming the word with
    its offset in the word's IPA."""
    prepared = rs.prepare(text)
    out = []
    for m in re.finditer(r"\S+", prepared):
        word, ipa, i = m.group(), [], 0
        while i < len(word):
            rule, length = rs.match_at(word, i)
            if rule is not None:
                ipa.append(rule.phoneme_output)
                i += length
                continue
            if mode == "error":
                raise UnmatchedGraphemeError(word[i], m.start() + i)
            if mode == "passthrough":
                ipa.append(word[i])
            i += 1
        try:
            segments = tokenize_ipa("".join(ipa))
        except TokenizeError as e:
            raise TokenizeError(f"word {word!r}: {e.message}", e.offset) from None
        out += normalize(segments, policy)
    return out


def outcome(fn, text, rs, policy, mode):
    try:
        return fn(text, rs, policy, mode)
    except PhonosimError as e:
        return type(e), str(e), getattr(e, "offset", None)


def lines_outcomes(texts, rs, policy, mode):
    """transliterate_lines' sequence for each text, up to and including the
    outcome of the first error."""
    outcomes = []
    try:
        for seq in g2p.transliterate_lines(texts, rs, policy, mode):
            outcomes.append(seq)
    except PhonosimError as e:
        outcomes.append((type(e), str(e), getattr(e, "offset", None)))
    return outcomes


def text_order_outcomes(texts, rs, policy, mode):
    """The oracle's outcome of each text, up to and including the first error."""
    outcomes = []
    for text in texts:
        outcomes.append(outcome(text_order, text, rs, policy, mode))
        if isinstance(outcomes[-1], tuple):
            break
    return outcomes


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
    def test_matches_text_order_oracle_text_by_text(self, seed):
        rng = random.Random(seed)
        rs = ruleset_with_traps(rng)
        texts = repeating_texts(rs, rng)
        for mode in MODES:
            for text in texts:
                assert (outcome(transliterate, text, rs, PLAIN, mode)
                        == outcome(text_order, text, rs, PLAIN, mode)), (mode, text)
            assert (lines_outcomes(texts, rs, PLAIN, mode)
                    == text_order_outcomes(texts, rs, PLAIN, mode)), mode

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
                    == outcome(text_order, text, rs, policy, mode)), (mode, text)

    def test_unmatched_grapheme_error_is_unchanged(self):
        rs = make_ruleset(("a", "a"), ("b", "b"))
        transliterate("ab ab", rs, PLAIN)  # warm the memo
        with pytest.raises(UnmatchedGraphemeError) as exc:
            transliterate("ab  ab bqa", rs, PLAIN)
        assert (exc.value.grapheme, exc.value.offset) == ("q", 8)
        assert str(exc.value) == str(outcome(text_order, "ab  ab bqa", rs, PLAIN,
                                             "error")[1])

    def test_tokenize_error_is_unchanged(self):
        rs = make_ruleset(("a", "a"), ("x", COMBINING_TILDE))
        assert transliterate("ax a", rs, PLAIN) == ["ã", "a"]
        with pytest.raises(TokenizeError) as exc:
            transliterate("a xa", rs, PLAIN)
        # the message names the word; the offset counts in the word's IPA
        assert exc.value.offset == 0
        assert str(exc.value) == ("word 'xa': combining mark COMBINING TILDE "
                                  "with no base symbol at offset 0")

    def test_first_failing_word_wins(self):
        rs = make_ruleset(("a", "a"), ("x", COMBINING_TILDE))
        for mode in ("error", "skip"):
            with pytest.raises(TokenizeError) as exc:
                transliterate("xa a aqa", rs, PLAIN, mode)
            assert exc.value.offset == 0
        with pytest.raises(UnmatchedGraphemeError) as exc:
            transliterate("a aqa xa", rs, PLAIN)
        assert exc.value.offset == 3

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

    def test_unknown_mode_is_rejected_whatever_the_memo_holds(self):
        rs = make_ruleset(("a", "a"))
        message = "unknown G2P mode 'strict'; expected one of " + repr(MODES)
        for convert in (transliterate, g2p.phoneme_counts) * 2:
            with pytest.raises(DataError) as exc:
                convert("a", rs, PLAIN, mode="strict")
            assert str(exc.value) == message
            convert("a", rs, PLAIN)  # then a call in a known mode

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("outputs", [("a", "pʰ", "t͡ʃ"),
                                         ("\u1100", "\u1161", "k")])
    def test_ruleset_is_freed_with_its_last_reference(self, mode, outputs):
        # nothing a conversion keeps holds its Ruleset, so no reference cycle
        # keeps a Ruleset alive until a collection; the second outputs have a
        # join that NFC composes (no pieces)
        rs = make_ruleset(*zip("abc", outputs))
        ruleset = weakref.ref(rs)
        enabled = gc.isenabled()
        gc.disable()
        try:
            for policy in (PLAIN, default_policy()):
                assert transliterate("ab ca ab", rs, policy, mode)
                assert g2p.phoneme_counts("ab ca\nab", rs, policy, mode)
            del rs
            assert ruleset() is None
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("outputs", [("a", "pʰ", "t͡ʃ"),
                                         ("\u1100", "\u1161", "k")])
    def test_policy_is_freed_with_its_last_reference(self, mode, outputs):
        # the piece table holds the policy's segment memo, not the policy, so
        # no reference cycle keeps a policy (and its tables) alive until a
        # collection; the second outputs use no piece table
        rs = make_ruleset(*zip("abc", outputs))
        policy = NormalizationPolicy()
        freed = weakref.ref(policy)
        enabled = gc.isenabled()
        gc.disable()
        try:
            assert transliterate("ab ca ab", rs, policy, mode)
            assert g2p.phoneme_counts("ab ca\nab", rs, policy, mode)
            del policy
            assert freed() is None  # no Ruleset holds it
        finally:
            if enabled:
                gc.enable()

    def test_next_pulls_no_second_text(self):
        rs = make_ruleset(("a", "a"), ("b", "b"))
        pulled = []

        def texts():
            for text in ("ab", "ba", "bqa"):
                pulled.append(text)
                yield text

        lines = g2p.transliterate_lines(texts(), rs, PLAIN)
        assert pulled == []
        assert next(lines) == ["a", "b"]
        assert pulled == ["ab"]
        assert next(lines) == ["b", "a"]
        assert pulled == ["ab", "ba"]
        with pytest.raises(UnmatchedGraphemeError):
            next(lines)

    def test_ruleset_attributes_never_change(self):
        # a Ruleset holds only its compiled rules: converting in every mode
        # under two policies, failures included, assigns and mutates nothing
        rs = make_ruleset(("a", "a"), ("b", "pʰ"), ("x", COMBINING_TILDE))
        before = {name: (value, copy.deepcopy(value)) for name, value in vars(rs).items()}
        texts = ["ab ba", "ab\tb", "xa", "aqb", "bb ab"]
        for policy in (PLAIN, default_policy()):
            for mode in MODES:
                for text in texts:
                    outcome(transliterate, text, rs, policy, mode)
                    outcome(counted, text, rs, policy, mode)
                lines_outcomes(texts, rs, policy, mode)
                lines_outcomes(texts[::-1], rs, policy, mode)
        assert vars(rs).keys() == before.keys()
        for name, (value, copied) in before.items():
            assert vars(rs)[name] is value and value == copied, name

    def test_result_is_a_fresh_list(self):
        rs = make_ruleset(("a", "a"))
        for _ in range(3):
            result = transliterate("a", rs, PLAIN)
            assert result == ["a"]
            result.append("mutated")


class TestFirstFailingWord:
    """The first failing word in text order raises, whichever way a text
    is converted; rules a, b, xq, and x with a bare combining mark."""

    @pytest.mark.parametrize("text, error, message", [
        # 'qb' first fails as a word of its own at 5, not inside 'axqb' at 2
        ("axqb qb", UnmatchedGraphemeError, "no rule matches 'q' at offset 5"),
        ("xa aqa", TokenizeError,
         "word 'xa': combining mark COMBINING TILDE with no base symbol at offset 0"),
        ("aqa xa", UnmatchedGraphemeError, "no rule matches 'q' at offset 1"),
    ], ids=["substring-trap", "tokenize-first", "unmatched-first"])
    @pytest.mark.parametrize("via", ["transliterate", "transliterate_lines",
                                     "phoneme_counts", "cli"])
    def test_first_failing_word_in_text_order_raises(self, tmp_path, monkeypatch,
                                                     capsys, text, error, message,
                                                     via):
        path = tmp_path / "x.rules"
        path.write_text(f"a\ta\nb\tb\nxq\txq\nx\t{COMBINING_TILDE}\n",
                        encoding="utf-8")
        rs = load_ruleset(path)
        assert outcome(text_order, text, rs, PLAIN, "error")[:2] == (error, message)
        if via == "cli":
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
                io.BytesIO(f"ab\n{text}\n".encode("utf-8")), encoding="utf-8"))
            assert cli.main(["g2p", "--rules", str(path)]) == 2
            assert capsys.readouterr() == (
                "a b\n", f"phonosim: error: <stdin>:2: {message}\n")
            return
        with pytest.raises(error) as exc:
            if via == "transliterate_lines":
                list(g2p.transliterate_lines(["ab", text], rs, PLAIN))
            else:
                getattr(g2p, via)(text, rs, PLAIN)
        assert str(exc.value) == message


def counted(text, rs, policy, mode):
    return g2p.phoneme_counts(text, rs, policy, mode)


def text_order_counts(text, rs, policy, mode):
    return Counter(text_order(text, rs, policy, mode))


class TestSegmentedOutputs:
    """A word concatenates its rules' pre-segmented outputs when each is
    self-contained; the text-order oracle checks values and errors."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_text_order_oracle_under_every_mode_and_policy(self, seed):
        rng = random.Random(seed)
        # two rulesets that share each policy's piece table, converted in
        # turn; the second has a join that composes under NFC
        first = random_output_ruleset(rng)
        second = random_output_ruleset(rng)
        second = Ruleset("toy", second.rules + tuple(
            G2PRule(g, out) for g, out in zip("yz", rng.choice(COMPOSING_PAIRS))))
        texts = {rs: repeating_texts(rs, rng) for rs in (first, second)}
        for policy in (PLAIN, random_policy(rng)):
            for mode in MODES:
                for row in zip(*texts.values()):
                    for rs, text in zip(texts, row):
                        assert (outcome(transliterate, text, rs, policy, mode)
                                == outcome(text_order, text, rs, policy, mode)), (mode, text)
                for rs in texts:
                    assert (lines_outcomes(texts[rs], rs, policy, mode)
                            == text_order_outcomes(texts[rs], rs, policy, mode)), mode
                    joined = "\n".join(texts[rs])
                    assert (outcome(counted, joined, rs, policy, mode)
                            == outcome(text_order_counts, joined, rs, policy, mode)), mode

    def test_rulesets_and_modes_share_their_policy_piece_table(self):
        policy = NormalizationPolicy(merge_pairs={"t͡ʃ": "c"})  # its table starts empty
        first = make_ruleset(("a", "a"), ("b", "pʰ"))
        second = make_ruleset(("a", "a"), ("c", "t͡ʃ"))
        composing = make_ruleset(*zip("gak", ("\u1100", "\u1161", "k")))
        assert first._joins_keep_nfc and second._joins_keep_nfc
        # a Ruleset whose joins compose under NFC reads no table
        assert not composing._joins_keep_nfc
        for mode in MODES:
            assert transliterate("ab", first, policy, mode) == ["a", "pʰ"]
            assert transliterate("ca", second, policy, mode) == ["c", "a"]
            assert transliterate("gak", composing, policy, mode) == ["\uac00", "k"]
        assert policy._pieces == {"a": ("a",), "pʰ": ("pʰ",), "t͡ʃ": ("c",)}

    def test_self_contained_outputs_build_no_ipa_string(self):
        rs = make_ruleset(("a", "a"), ("b", "pʰ"), ("c", ""), ("d", "t͡ʃ"),
                          ("e", "ˈe"), ("f", "i ˌo"), ("g", "sʲ"))
        policy = default_policy()
        with mock.patch.object(g2p, "tokenize_ipa", side_effect=AssertionError):
            assert transliterate("abcdefg dqa", rs, policy, mode="skip") == [
                "a", "pʰ", "t͡ʃ", "e", "i", "o", "ʃ", "t͡ʃ", "a"]
        assert rs._joins_keep_nfc
        pieces = policy._pieces
        assert pieces["ˈe"] == ("e",) and pieces["i ˌo"] == ("i", "o")
        assert pieces[""] == ()

    @pytest.mark.parametrize("convert", [transliterate, g2p.phoneme_counts])
    @pytest.mark.parametrize("word, mode, positions", [
        ("thax", "error", [0, 2, 3]),       # 'ʲ' joins the 'a' before it
        ("acah", "skip", [0, 1, 2, 3]),     # a trailing tie bar; 'h' is dropped
        ("aqth", "passthrough", [0, 1, 2]),  # the kept 'q'
    ])
    def test_a_word_off_the_piece_path_is_walked_once(self, convert, word, mode,
                                                      positions):
        rs = make_ruleset(("th", "tʰ"), ("a", "a"), ("x", "ʲ"), ("c", "t\u0361"))
        assert rs._joins_keep_nfc
        walked = []
        match_at = Ruleset.match_at

        def counting_match_at(self, word, i):
            walked.append(i)
            return match_at(self, word, i)

        with mock.patch.object(Ruleset, "match_at", counting_match_at):
            got = convert(word, rs, PLAIN, mode)
        assert walked == positions
        expected = text_order(word, rs, PLAIN, mode)
        assert got == (expected if convert is transliterate else Counter(expected))

    @pytest.mark.parametrize("output", [
        COMBINING_TILDE, "ʲa", "\u0361a", "a\u0361", "aˈ", "a .", "", "e\u0301"])
    def test_outputs_that_join_a_neighbour_take_the_exact_path(self, output):
        rs = make_ruleset(("a", "a"), ("x", output))
        assert rs._joins_keep_nfc
        pieces = PLAIN._pieces
        contained = output in ("", "e\u0301")
        assert (pieces[output] is not None) == contained
        for text in ("xa", "axa", "ax", "x"):
            assert (outcome(transliterate, text, rs, PLAIN, "error")
                    == outcome(text_order, text, rs, PLAIN, "error")), text

    @pytest.mark.parametrize("outputs, word, expected", [
        (("\u1100", "\u1161", "\u11a8"), "gak", ["\uac01"]),
        (("\u1100", "\u1161", "k"), "gak", ["\uac00", "k"]),
        (("e", "\u0301", "k"), "gak", ["é", "k"]),
    ])
    def test_joins_that_compose_under_nfc(self, outputs, word, expected):
        rs = make_ruleset(*zip("gak", outputs))
        assert rs._joins_keep_nfc is (outputs[1] == "\u0301")
        assert transliterate(word, rs, PLAIN) == expected
        assert text_order(word, rs, PLAIN, "error") == expected

    def test_counts_weigh_each_distinct_word_by_its_frequency(self):
        rs = make_ruleset(("a", "a"), ("b", "b"), ("c", "t͡ʃ"))
        text = "ab ab\nca ab\n\nbb  ca ab"
        assert g2p.phoneme_counts(text, rs, PLAIN) == Counter(
            transliterate(text, rs, PLAIN)) == Counter(
            {"a": 6, "b": 6, "t͡ʃ": 2})
        assert g2p.phoneme_counts("", rs, PLAIN) == Counter()
        with pytest.raises(DataError, match="unknown G2P mode"):
            g2p.phoneme_counts("", rs, PLAIN, mode="strict")


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
