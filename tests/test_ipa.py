import dataclasses
import random
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonosim.errors import DataError, ParseError, TokenizeError
from phonosim.ipa import (DEFAULT_MERGE_PAIRS, STRESS_MARKS, VOQS_MARKS,
                          NormalizationPolicy, default_policy, load_policy,
                          normalize, tokenize_ipa)

from genutil import random_ipa_string, random_policy


class TestTokenize:
    def test_modifier_and_length_attach_to_base(self):
        assert tokenize_ipa("tʲaː") == ["tʲ", "aː"]

    def test_tie_bar_binds_two_bases(self):
        assert tokenize_ipa("t͡ʃa") == ["t͡ʃ", "a"]

    def test_tie_bar_keeps_following_modifiers(self):
        assert tokenize_ipa("t͡ʃʲa") == ["t͡ʃʲ", "a"]

    def test_stress_attaches_to_following_base(self):
        assert tokenize_ipa("ˈsʲum") == ["ˈsʲ", "u", "m"]

    def test_whitespace_separates(self):
        assert tokenize_ipa("ta ka\tm") == ["t", "a", "k", "a", "m"]

    def test_empty_string(self):
        assert tokenize_ipa("") == []

    def test_leading_combining_mark_errors_with_offset(self):
        with pytest.raises(TokenizeError) as exc:
            tokenize_ipa("̃a")
        assert exc.value.offset == 0

    def test_dangling_tie_bar_errors(self):
        with pytest.raises(TokenizeError):
            tokenize_ipa("t͡")

    def test_trailing_stress_errors(self):
        with pytest.raises(TokenizeError):
            tokenize_ipa("aˈ")

    def test_leading_modifier_errors(self):
        with pytest.raises(TokenizeError):
            tokenize_ipa("ʲa")

    def test_nfc_composition_applied(self):
        # a + combining tilde composes with the precomposed form
        assert tokenize_ipa("ã") == tokenize_ipa("ã")

    def test_chained_tie_bars_stay_one_segment(self):
        assert tokenize_ipa("k͡p͡ta") == ["k͡p͡t", "a"]


class TestNormalize:
    def test_merge_pair_zj(self):
        policy = NormalizationPolicy(merge_pairs={"zʲ": "ʒ"})
        assert normalize(["zʲ"], policy) == ["ʒ"]

    def test_merged_equals_existing_segment(self):
        assert normalize(["ʒ", "zʲ"], default_policy()) == ["ʒ", "ʒ"]

    def test_empty_sequence(self):
        assert normalize([], default_policy()) == []

    def test_default_pipeline_example(self):
        assert normalize(tokenize_ipa("ˈsʲum"), default_policy()) == ["ʃ", "u", "m"]

    def test_syllable_break_stripped_by_default(self):
        assert normalize(tokenize_ipa("a.ba"), default_policy()) == ["a", "b", "a"]

    def test_stress_kept_when_disabled(self):
        policy = NormalizationPolicy(strip_stress=False, merge_pairs={})
        assert normalize(tokenize_ipa("ˈsum"), policy) == ["ˈs", "u", "m"]

    def test_length_kept_by_default(self):
        assert normalize(tokenize_ipa("aːb"), default_policy()) == ["aː", "b"]

    def test_voqs_letter_segment_dropped(self):
        assert normalize(tokenize_ipa("aʬb"), default_policy()) == ["a", "b"]

    def test_voqs_mark_stripped_in_place(self):
        assert normalize(["a̰"], default_policy()) == ["a"]

    def test_voqs_kept_when_disabled(self):
        policy = NormalizationPolicy(strip_voqs=False, merge_pairs={})
        assert normalize(["a̰", "ʬ"], policy) == ["a̰", "ʬ"]

    def test_unknown_modifier_retained(self):
        assert normalize(["tʷ"], default_policy()) == ["tʷ"]

    def test_custom_strip_defeats_merge(self):
        # stripping ʲ happens before the merge lookup, so sʲ becomes plain s
        policy = NormalizationPolicy(strip_diacritics=frozenset({"ʲ", "."}))
        assert normalize(["sʲ"], policy) == ["s"]

    def test_merge_target_with_strippable_mark_is_stable(self):
        policy = NormalizationPolicy(
            strip_diacritics=frozenset({"ʰ", "."}), merge_pairs={"q": "kʰ"})
        once = normalize(["q"], policy)
        assert once == ["k"]
        assert normalize(once, policy) == once

    def test_output_never_longer(self):
        rng = random.Random(7)
        for _ in range(100):
            seq = tokenize_ipa(random_ipa_string(rng))
            policy = random_policy(rng)
            assert len(normalize(seq, policy)) <= len(seq)


class TestPolicyValidation:
    def test_merge_target_is_source_rejected(self):
        with pytest.raises(DataError):
            NormalizationPolicy(merge_pairs={"a": "b", "b": "c"})

    def test_cleaned_target_is_source_rejected(self):
        # ʰ is stripped, so the target kʰ reduces to the source k
        with pytest.raises(DataError):
            NormalizationPolicy(strip_diacritics=frozenset({"ʰ"}),
                                merge_pairs={"k": "kʰ", "kʰ": "g"})

    def test_empty_merge_source_rejected(self):
        with pytest.raises(DataError):
            NormalizationPolicy(merge_pairs={"": "a"})

    def test_base_letter_in_strip_set_rejected(self):
        with pytest.raises(DataError):
            NormalizationPolicy(strip_diacritics=frozenset({"a"}))

    @pytest.mark.parametrize("strip_stress", [True, False])
    @pytest.mark.parametrize("strip_voqs", [True, False])
    @pytest.mark.parametrize("diacritics", [frozenset({"."}),
                                            frozenset({"ʰ", "ʲ"}), frozenset()])
    def test_removal_set_built_once(self, strip_stress, strip_voqs, diacritics):
        def make():
            return NormalizationPolicy(strip_stress=strip_stress,
                                       strip_voqs=strip_voqs,
                                       strip_diacritics=diacritics,
                                       merge_pairs={"q": "k"})

        def stripped(policy):
            marks = STRESS_MARKS | VOQS_MARKS | {".", "ʰ", "ʲ"}
            return {c for c in marks if normalize(["a" + c], policy) == ["a"]}

        policy = make()
        removal = stripped(policy)
        assert removal == (diacritics
                           | (STRESS_MARKS if strip_stress else frozenset())
                           | (VOQS_MARKS if strip_voqs else frozenset()))
        # the segment memo is not a field: equality and fields are unchanged
        assert policy == make() and policy is not make()
        assert [f.name for f in dataclasses.fields(policy)] == \
            ["strip_stress", "strip_voqs", "strip_diacritics", "merge_pairs"]
        other = dataclasses.replace(policy, strip_stress=not strip_stress)
        assert other != policy
        assert stripped(other) ^ removal == STRESS_MARKS

    def test_default_merge_table_matches_named_pairs(self):
        assert DEFAULT_MERGE_PAIRS == {"sʲ": "ʃ", "zʲ": "ʒ"}


SEGMENT_POOL = ["a", "e", "i", "u", "t", "k", "s", "z", "m",
                "tʲ", "sʲ", "zʲ", "aː", "t͡ʃ", "d͡ʒ", "ã", "ʃ", "ʒ"]


@st.composite
def ipa_strings(draw):
    parts = draw(st.lists(
        st.one_of(st.sampled_from(SEGMENT_POOL),
                  st.sampled_from(["ˈ", "ˌ", "."]).map(lambda p: p + "t"),
                  st.just(" ")),
        max_size=10))
    text = "".join(parts)
    # a lone separator-adjacent prefix mark would be rejected by design
    return text


@st.composite
def valid_policies(draw):
    strip = draw(st.frozensets(
        st.sampled_from(["ʲ", "ʰ", "ː", "̃", "."]), max_size=3))
    n = draw(st.integers(0, 3))
    merge = {}
    for _ in range(n):
        merge.setdefault(draw(st.sampled_from(SEGMENT_POOL)),
                         draw(st.sampled_from(SEGMENT_POOL)))
    try:
        return NormalizationPolicy(
            strip_stress=draw(st.booleans()),
            strip_voqs=draw(st.booleans()),
            strip_diacritics=strip,
            merge_pairs=merge)
    except DataError:
        return default_policy()


@settings(max_examples=200, deadline=None)
@given(text=ipa_strings(), policy=valid_policies())
def test_normalize_idempotent(text, policy):
    try:
        seq = tokenize_ipa(text)
    except TokenizeError:
        return
    once = normalize(seq, policy)
    assert normalize(once, policy) == once


@settings(max_examples=200, deadline=None)
@given(text=ipa_strings(), policy=valid_policies())
def test_tokenize_total_and_faithful_on_normalized_output(text, policy):
    try:
        seq = tokenize_ipa(text)
    except TokenizeError:
        return
    out = normalize(seq, policy)
    assert tokenize_ipa("".join(out)) == out


class TestPolicyFile:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "policy.txt"
        p.write_text(
            "strip_stress = false\n"
            "strip_voqs = yes\n"
            "strip_diacritics = . U+02D0\n"
            "[merge]\n"
            "sʲ\tʃ\n",
            encoding="utf-8")
        policy = load_policy(p)
        assert policy.strip_stress is False
        assert policy.strip_voqs is True
        assert policy.strip_diacritics == frozenset({".", "ː"})
        assert policy.merge_pairs == {"sʲ": "ʃ"}

    def test_merge_section_replaces_default(self, tmp_path):
        p = tmp_path / "policy.txt"
        p.write_text("[merge]\nzʲ\tʒ\n", encoding="utf-8")
        assert load_policy(p).merge_pairs == {"zʲ": "ʒ"}

    def test_defaults_without_merge_section(self, tmp_path):
        p = tmp_path / "policy.txt"
        p.write_text("strip_stress = true\n", encoding="utf-8")
        assert load_policy(p).merge_pairs == DEFAULT_MERGE_PAIRS

    def test_merge_sections_accumulate(self, tmp_path):
        p = tmp_path / "policy.txt"
        p.write_text("[merge]\nsʲ\tʃ\n[merge]\nzʲ\tʒ\nkʲ\tc\n", encoding="utf-8")
        assert load_policy(p).merge_pairs == {"sʲ": "ʃ", "zʲ": "ʒ", "kʲ": "c"}

    def test_empty_merge_section_means_no_merges(self, tmp_path):
        p = tmp_path / "policy.txt"
        p.write_text("strip_voqs = false\n[merge]\n", encoding="utf-8")
        policy = load_policy(p)
        assert policy.merge_pairs == {}
        assert normalize(["sʲ"], policy) == ["sʲ"]

    @pytest.mark.parametrize("line, field, value", [
        ("strip_stress = no", "strip_stress", False),
        ("strip_voqs = off", "strip_voqs", False),
        ("strip_diacritics = U+02D0", "strip_diacritics", frozenset({"ː"})),
    ])
    def test_one_setting_keeps_other_defaults(self, tmp_path, line, field, value):
        p = tmp_path / "policy.txt"
        p.write_text(line + "\n", encoding="utf-8")
        assert load_policy(p) == NormalizationPolicy(**{field: value})

    def test_repeated_key_last_wins(self, tmp_path):
        p = tmp_path / "policy.txt"
        p.write_text("strip_stress = false\nstrip_diacritics = U+02D0\n"
                     "strip_stress = true\nstrip_diacritics = U+0303\n"
                     "[merge]\nsʲ\tʃ\nsʲ\tɕ\n", encoding="utf-8")
        policy = load_policy(p)
        assert policy.strip_stress is True
        assert policy.strip_diacritics == frozenset({"\u0303"})
        assert policy.merge_pairs == {"sʲ": "ɕ"}

    def test_unknown_key_errors_with_line(self, tmp_path):
        p = tmp_path / "policy.txt"
        p.write_text("bogus = 1\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_policy(p)
        assert exc.value.line == 1

    def test_bad_boolean_errors(self, tmp_path):
        p = tmp_path / "policy.txt"
        p.write_text("strip_stress = maybe\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_policy(p)

    def test_bad_merge_line_errors(self, tmp_path):
        p = tmp_path / "policy.txt"
        p.write_text("[merge]\nnosep\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_policy(p)
        assert exc.value.line == 2

    def test_invalid_merge_table_reported_as_parse_error(self, tmp_path):
        p = tmp_path / "policy.txt"
        p.write_text("[merge]\na\tb\nb\tc\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_policy(p)


def test_all_segments_nfc_after_tokenize():
    rng = random.Random(11)
    for _ in range(200):
        for seg in tokenize_ipa(random_ipa_string(rng)):
            assert seg == unicodedata.normalize("NFC", seg)
