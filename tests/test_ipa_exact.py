"""tokenize_ipa and normalize against the uncached forms they replaced.

`oracle_tokenize_ipa` and `oracle_normalize` (with their helpers) are the
former `ipa.tokenize_ipa` and `ipa.normalize`, kept verbatim: a chain of
per-character category tests, and a clean -> merge -> clean-target pass
over every segment of every call. The cached versions classify each code
point once and map each distinct segment once per policy; they must give
the same segments, or raise the same exception type with the same message
and offset.
"""

import dataclasses
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonosim import ipa
from phonosim.errors import DataError, TokenizeError
from phonosim.ipa import (PREFIX_MARKS, STRESS_MARKS, TIE_BARS, VOQS_LETTERS,
                          VOQS_MARKS, WORD_SEPARATORS, NormalizationPolicy,
                          normalize, tokenize_ipa)


def _is_combining(ch):
    return unicodedata.category(ch).startswith("M")


def _is_modifier(ch):
    return unicodedata.category(ch) in ("Lm", "Sk")


def _is_base(ch):
    return not (_is_combining(ch) or _is_modifier(ch) or ch in PREFIX_MARKS)


def oracle_tokenize_ipa(s):
    text = unicodedata.normalize("NFC", s)
    segments = []
    current = []
    has_base = False
    pending_tie = False

    def flush(offset):
        nonlocal current, has_base
        if not current:
            return
        if not has_base:
            raise TokenizeError(
                f"dangling prefix mark {''.join(current)!r}", offset)
        segments.append(unicodedata.normalize("NFC", "".join(current)))
        current = []
        has_base = False

    for offset, ch in enumerate(text):
        if ch.isspace() or ch in WORD_SEPARATORS:
            if pending_tie:
                raise TokenizeError("tie bar not followed by a base symbol", offset)
            flush(offset)
        elif ch in TIE_BARS:
            if not has_base or pending_tie:
                raise TokenizeError("tie bar with no preceding base symbol", offset)
            current.append(ch)
            pending_tie = True
        elif ch in PREFIX_MARKS:
            if pending_tie:
                raise TokenizeError("tie bar not followed by a base symbol", offset)
            if has_base:
                flush(offset)
            current.append(ch)
        elif _is_combining(ch):
            if not has_base or pending_tie:
                name = unicodedata.name(ch, repr(ch))
                raise TokenizeError(f"combining mark {name} with no base symbol", offset)
            current.append(ch)
        elif _is_modifier(ch):
            if not has_base or pending_tie:
                raise TokenizeError(f"modifier {ch!r} with no base symbol", offset)
            current.append(ch)
        else:
            # base character; anything that is not a mark starts (or, after
            # a tie bar, continues) a segment
            if pending_tie:
                current.append(ch)
                pending_tie = False
            else:
                if has_base:
                    flush(offset)
                current.append(ch)
                has_base = True

    if pending_tie:
        raise TokenizeError("tie bar not followed by a base symbol", len(text))
    flush(len(text))
    return segments


def _clean_segment(seg, removal, strip_voqs):
    """One segment with stripped marks removed; '' when dropped entirely."""
    kept = [c for c in seg if c not in removal]
    if strip_voqs and kept:
        bases = [c for c in kept if _is_base(c)]
        if bases and all(c in VOQS_LETTERS for c in bases):
            return ""
    return unicodedata.normalize("NFC", "".join(kept))


def oracle_normalize(seq, policy):
    removal = set(policy.strip_diacritics)
    if policy.strip_stress:
        removal |= STRESS_MARKS
    if policy.strip_voqs:
        removal |= VOQS_MARKS
    out = []
    for seg in seq:
        t = _clean_segment(seg, removal, policy.strip_voqs)
        if not t:
            continue
        merged = policy.merge_pairs.get(t)
        if merged is not None:
            # the target is cleaned too, otherwise a target carrying a
            # stripped mark would change again on a second pass
            t = _clean_segment(merged, removal, policy.strip_voqs)
            if not t:
                continue
        out.append(t)
    return out


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except TokenizeError as e:
        return (type(e), str(e), e.offset)


BASES = list("ptkszmnaeiouʃʒəɛ") + sorted(VOQS_LETTERS)
COMBINING = ["̃", "̥", "̤", "̰", "́", "̈",
             "̌", "̇"]
MODIFIERS = ["ʲ", "ʰ", "ʷ", "ː", "ˀ", "˞"]
TIES = sorted(TIE_BARS)
PREFIXES = sorted(PREFIX_MARKS)
SEPARATORS = [" ", "\t", "\n", "\u0085", "\u2028", "\u3000"] + sorted(WORD_SEPARATORS)
# characters NFC composes with a preceding base (e + U+0301 -> é) or that
# the kind chain must tell apart: a tie bar is also a combining mark, a
# stress mark is also a modifier letter
SYMBOLS = BASES + COMBINING + MODIFIERS + TIES + PREFIXES + SEPARATORS

ipa_text = st.text(
    st.one_of(st.sampled_from(SYMBOLS), st.sampled_from(SYMBOLS),
              st.characters(codec="utf-8")),
    max_size=24)

STRIPPABLE = COMBINING + MODIFIERS + ["."]
SEGMENT_POOL = ["a", "s", "z", "t", "sʲ", "zʲ", "tʲ", "aː", "ã", "t͡ʃ",
                "d͡ʒ", "ʃ", "ʒ", "ˈa", "ʬ", "a̤", "ə"]


@st.composite
def policies(draw):
    merges = draw(st.dictionaries(st.sampled_from(SEGMENT_POOL),
                                  st.sampled_from(SEGMENT_POOL), max_size=4))
    try:
        return NormalizationPolicy(
            strip_stress=draw(st.booleans()),
            strip_voqs=draw(st.booleans()),
            strip_diacritics=draw(st.frozensets(st.sampled_from(STRIPPABLE),
                                                max_size=4)),
            merge_pairs=merges)
    except DataError:
        return NormalizationPolicy()


# long-lived policies whose memos fill up across examples, as they do over
# a corpus
SHARED = (
    NormalizationPolicy(),
    NormalizationPolicy(strip_stress=False, strip_voqs=False, merge_pairs={}),
    NormalizationPolicy(strip_diacritics=frozenset({"ʲ", "ː", "̃"}),
                        merge_pairs={"tʲ": "t͡ʃ", "ʒ": "z"}),
)

segment_lists = st.lists(
    st.one_of(st.sampled_from(SEGMENT_POOL),
              st.text(st.sampled_from(SYMBOLS), min_size=1, max_size=4),
              st.text(st.characters(codec="utf-8"), min_size=1, max_size=3)),
    max_size=12)


class TestTokenizeExact:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(ipa_text)
    def test_same_outcome(self, text):
        assert outcome(tokenize_ipa, text) == outcome(oracle_tokenize_ipa, text)

    def test_every_bmp_code_point(self):
        # each code point alone, after a base and between a tie bar and a
        # base: every kind and every error message; and the base test that
        # normalization reads off the same table
        for cp in range(0x10000):
            ch = chr(cp)
            if 0xD800 <= cp < 0xE000:
                continue
            for text in (ch, "a" + ch, "t͡" + ch + "a"):
                assert outcome(tokenize_ipa, text) == outcome(oracle_tokenize_ipa, text)
            assert ipa._is_base(ch) == _is_base(ch), hex(cp)

    def test_chain_order_when_mark_sets_overlap(self, monkeypatch):
        # no prefix mark is a combining mark today; one that is must still
        # be read as a prefix mark, as the chain reads it
        marks = PREFIX_MARKS | {"\u0301"}
        monkeypatch.setattr(ipa, "PREFIX_MARKS", marks)
        monkeypatch.setitem(globals(), "PREFIX_MARKS", marks)
        monkeypatch.setattr(ipa, "_KINDS", ipa._KindTable())
        for text in ("ʃ\u0301a", "\u0301a", "ʃ\u0301", "t͡\u0301a", "ʃ\u0301 \u0301a"):
            assert outcome(tokenize_ipa, text) == outcome(oracle_tokenize_ipa, text)
        assert tokenize_ipa("ʃ\u0301a") == ["ʃ", "\u0301a"]

    @pytest.mark.parametrize("text", [
        "ˈa", "aˈb", "a.b", "aˌ", "ˈ", "a͡ˈb", "a͡", "͡a", "a͡ ", "a‿b",
        "a\u0085b", "a\u2028ˈb", "a\u3000ʲ", "ʲ", "̃a", "ã͡",
        "é̈", "t͡ʃ͜ʲa", "ʬʭ a", ".",
    ])
    def test_edge_cases(self, text):
        assert outcome(tokenize_ipa, text) == outcome(oracle_tokenize_ipa, text)


class TestNormalizeExact:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(policies(), segment_lists)
    def test_fresh_policy(self, policy, seq):
        expected = oracle_normalize(seq, policy)
        assert normalize(seq, policy) == expected
        # the second call reads the memo
        assert normalize(seq, policy) == expected

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(range(len(SHARED))), segment_lists)
    def test_shared_policy(self, which, seq):
        policy = SHARED[which]
        assert normalize(seq, policy) == oracle_normalize(seq, policy)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(range(len(SHARED))), ipa_text)
    def test_tokenized_text(self, which, text):
        try:
            seq = oracle_tokenize_ipa(text)
        except TokenizeError:
            return
        policy = SHARED[which]
        assert normalize(tokenize_ipa(text), policy) == oracle_normalize(seq, policy)


SEQ = ["sʲ", "ˈa", "ʬ", "tʲ", "sʲ", "ˈ", "ʃ"]


class TestPolicyMemo:
    def test_interleaved_policies_do_not_share(self):
        a = NormalizationPolicy()
        b = NormalizationPolicy(strip_stress=False,
                                strip_diacritics=frozenset({"ʲ"}),
                                merge_pairs={"ʃ": "s"})
        assert oracle_normalize(SEQ, a) != oracle_normalize(SEQ, b)
        for policy in (a, b, a, b):
            assert normalize(SEQ, policy) == oracle_normalize(SEQ, policy)

    def test_replaced_policy_gets_its_own_memo(self):
        a = NormalizationPolicy()
        assert normalize(SEQ, a) == ["ʃ", "a", "tʲ", "ʃ", "ʃ"]
        for changes in ({"merge_pairs": {"sʲ": "s"}}, {"strip_voqs": False},
                        {"strip_stress": False}):
            other = dataclasses.replace(a, **changes)
            assert normalize(SEQ, other) == oracle_normalize(SEQ, other)
            assert normalize(SEQ, other) != normalize(SEQ, a)
        assert normalize(SEQ, a) == ["ʃ", "a", "tʲ", "ʃ", "ʃ"]

    def test_each_distinct_segment_worked_out_once(self, monkeypatch):
        policy = NormalizationPolicy()
        first = normalize(SEQ, policy)

        def no_more_work(*args):
            raise AssertionError("segment normalized twice")

        # dropped segments ('ʬ', 'ˈ') are cached too
        monkeypatch.setattr(ipa, "_clean_segment", no_more_work)
        assert normalize(SEQ, policy) == first
        assert normalize(list(reversed(SEQ)), policy) == first[::-1]

    def test_equality_and_fields_unchanged(self):
        names = [f.name for f in dataclasses.fields(NormalizationPolicy)]
        assert names == ["strip_stress", "strip_voqs", "strip_diacritics",
                         "merge_pairs"]
        used = NormalizationPolicy()
        normalize(SEQ, used)
        fresh = NormalizationPolicy()
        assert used == fresh
        assert repr(used) == repr(fresh)
        assert dataclasses.replace(used) == used
        assert used != NormalizationPolicy(strip_stress=False)
        assert dataclasses.asdict(used) == dataclasses.asdict(fresh)
