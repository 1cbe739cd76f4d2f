"""IPA segmentation and post-G2P normalization.

A segment is one base IPA letter together with every mark attached to it,
or a tie-bar group such as t͡ʃ treated as a single unit. Combining marks
and modifier letters (ʲ, ʰ, ː, ...) attach to the preceding base; stress
marks and syllable breaks attach to the *following* base, so that a
normalization policy can strip them later without losing their position.

Normalization removes stress marks, voice quality symbols and a
configurable set of diacritics, then maps whole segments through a merge
table (e.g. sʲ → ʃ). All strings are kept in Unicode canonical
composition (NFC) so equal sounds compare equal.

Three caches keep this work proportional to what is distinct. One
module-level table classifies each code point once per process (separator,
tie bar, prefix mark, combining mark, modifier letter or base); tokenize_ipa
and every base-letter test in normalization read it. Each policy builds two
memos at construction: normalize maps each distinct segment once (a dropped
one is cached as ''), and the piece table each distinct G2P rule output.
"""

import unicodedata
from dataclasses import dataclass, field

from .errors import DataError, ParseError, TokenizeError
from .formats import data_lines, parse_bool

PhonemeSequence = list[str]

TIE_BARS = frozenset({"͡", "͜"})          # ͡  ͜
STRESS_MARKS = frozenset({"ˈ", "ˌ"})      # ˈ  ˌ
SYLLABLE_BREAK = "."
PREFIX_MARKS = STRESS_MARKS | {SYLLABLE_BREAK}
WORD_SEPARATORS = frozenset({"‿"})             # undertie; whitespace too

# Voice quality symbols handled by strip_voqs. Standalone VoQS letters
# (extIPA percussives and fricative digraphs) are dropped as whole
# segments; phonation diacritics (breathy ̤, creaky ̰) are removed in
# place. Modifiers not listed here are never silently dropped.
VOQS_LETTERS = frozenset({"ʩ", "ʪ", "ʫ", "ʬ", "ʭ"})
VOQS_MARKS = frozenset({"̤", "̰"})

DEFAULT_STRIP_DIACRITICS = frozenset({SYLLABLE_BREAK})
# The two pairs not significantly distinguished phonologically; canonical
# form is the postalveolar. Length marks are deliberately NOT stripped by
# default (length is phonemic in several Turkic languages).
DEFAULT_MERGE_PAIRS = {"sʲ": "ʃ", "zʲ": "ʒ"}  # sʲ→ʃ, zʲ→ʒ


_SEPARATOR, _TIE, _PREFIX, _COMBINING, _MODIFIER, _BASE = range(6)


class _KindTable(dict):
    """Character -> its kind in tokenize_ipa, decided once per code point by
    the tests in this order: separator (whitespace or undertie), tie bar,
    prefix mark, combining mark (category M*), modifier letter (Lm or Sk),
    base."""

    def __missing__(self, ch):
        category = unicodedata.category(ch)
        if ch.isspace() or ch in WORD_SEPARATORS:
            kind = _SEPARATOR
        elif ch in TIE_BARS:
            kind = _TIE
        elif ch in PREFIX_MARKS:
            kind = _PREFIX
        elif category[0] == "M":
            kind = _COMBINING
        elif category in ("Lm", "Sk"):
            kind = _MODIFIER
        else:
            kind = _BASE
        self[ch] = kind
        return kind


_KINDS = _KindTable()


def _is_base(ch):
    """True unless `ch` is a mark; a separator counts as a base."""
    return _KINDS[ch] in (_BASE, _SEPARATOR)


def tokenize_ipa(s: str) -> PhonemeSequence:
    """Split an IPA string into phoneme segments.

    Whitespace and underties separate segments and are dropped; the
    concatenated segments reproduce everything else. Raises TokenizeError
    when a mark has nothing to attach to (leading combining mark, dangling
    tie bar, trailing stress mark).
    """
    text = unicodedata.normalize("NFC", s)
    kinds = _KINDS
    segments: PhonemeSequence = []
    current: list[str] = []
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
        kind = kinds[ch]
        if kind == _BASE:
            # anything that is not a mark starts (or, after a tie bar,
            # continues) a segment
            if pending_tie:
                current.append(ch)
                pending_tie = False
            else:
                if has_base:
                    flush(offset)
                current.append(ch)
                has_base = True
        elif kind == _SEPARATOR:
            if pending_tie:
                raise TokenizeError("tie bar not followed by a base symbol", offset)
            flush(offset)
        elif kind == _TIE:
            if not has_base or pending_tie:
                raise TokenizeError("tie bar with no preceding base symbol", offset)
            current.append(ch)
            pending_tie = True
        elif kind == _PREFIX:
            if pending_tie:
                raise TokenizeError("tie bar not followed by a base symbol", offset)
            if has_base:
                flush(offset)
            current.append(ch)
        elif kind == _COMBINING:
            if not has_base or pending_tie:
                name = unicodedata.name(ch, repr(ch))
                raise TokenizeError(f"combining mark {name} with no base symbol", offset)
            current.append(ch)
        else:
            if not has_base or pending_tie:
                raise TokenizeError(f"modifier {ch!r} with no base symbol", offset)
            current.append(ch)

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


class _SegmentMemo(dict):
    """Raw segment -> normalized segment for one policy, '' when dropped.

    A miss strips the segment, merges it once through the table and strips
    the merge target too, otherwise a target carrying a stripped mark would
    change again on a second pass.
    """

    def __init__(self, removal, strip_voqs, merges):
        super().__init__()
        self.removal = removal
        self.strip_voqs = strip_voqs
        self.merges = merges

    def __missing__(self, seg):
        t = _clean_segment(seg, self.removal, self.strip_voqs)
        merged = self.merges.get(t) if t else None
        if merged is not None:
            t = _clean_segment(merged, self.removal, self.strip_voqs)
        self[seg] = t
        return t


class _PieceMemo(dict):
    """IPA string -> tuple of its normalized segments for one policy when
    it is self-contained, else None; g2p's rule outputs are its keys.

    Tokenized between two copies of the base letter 'a', a string gives
    'a', its own segments, 'a' exactly when it tokenizes alone and none of
    its segments joins a neighbour: a leading mark or tie bar would join
    (or compose with) the first 'a', a trailing tie bar or prefix mark the
    last, and 'a' never composes with a character before it. It holds the
    policy's segment memo, not the policy, so it makes no reference cycle.
    """

    def __init__(self, segments):
        super().__init__()
        self.segments = segments

    def __missing__(self, s):
        try:
            raw = tokenize_ipa("a" + s + "a")
        except TokenizeError:
            raw = []
        piece = None
        if len(raw) >= 2 and raw[0] == raw[-1] == "a":
            # normalize() of the inner segments
            piece = tuple(t for t in map(self.segments.__getitem__, raw[1:-1]) if t)
        self[s] = piece
        return piece


@dataclass(frozen=True)
class NormalizationPolicy:
    """What normalize() strips and merges.

    merge_pairs maps a whole segment to its canonical replacement. Targets
    must not themselves be merge sources, including after stripping, which
    makes normalization idempotent; violations raise DataError at
    construction.

    A policy must not be changed after construction: merge_pairs is a plain
    dict, but normalize()'s segment memo and g2p's piece table are built at
    construction, and both would keep serving the old mapping. Build a new
    policy (dataclasses.replace); it gets its own memos.
    """

    strip_stress: bool = True
    strip_voqs: bool = True
    strip_diacritics: frozenset = DEFAULT_STRIP_DIACRITICS
    merge_pairs: dict = field(default_factory=lambda: dict(DEFAULT_MERGE_PAIRS))

    def __post_init__(self):
        object.__setattr__(self, "strip_diacritics", frozenset(self.strip_diacritics))
        for c in self.strip_diacritics:
            if len(c) != 1:
                raise DataError(f"strip_diacritics entries are single codepoints, got {c!r}")
            if _is_base(c):
                raise DataError(
                    f"strip_diacritics accepts modifier/combining codepoints, "
                    f"not base letters like {c!r}")
        merges = {
            unicodedata.normalize("NFC", src): unicodedata.normalize("NFC", tgt)
            for src, tgt in self.merge_pairs.items()
        }
        object.__setattr__(self, "merge_pairs", merges)
        removal = set(self.strip_diacritics)
        if self.strip_stress:
            removal |= STRESS_MARKS
        if self.strip_voqs:
            removal |= VOQS_MARKS
        for src, tgt in merges.items():
            if not src:
                raise DataError("merge source must be nonempty")
            cleaned = _clean_segment(tgt, removal, self.strip_voqs)
            if cleaned in merges:
                raise DataError(
                    f"merge target {tgt!r} reduces to merge source {cleaned!r}")
        # not fields: equality, fields() and replace() do not see them
        segments = _SegmentMemo(removal, self.strip_voqs, merges)
        object.__setattr__(self, "_segments", segments)
        object.__setattr__(self, "_pieces", _PieceMemo(segments))


def default_policy() -> NormalizationPolicy:
    return NormalizationPolicy()


def normalize(seq: PhonemeSequence, policy: NormalizationPolicy) -> PhonemeSequence:
    """Strip marks per policy, then merge segments once through the table.

    Segments that become empty disappear; unknown segments pass through
    unchanged. Output length never exceeds input length, and the function
    is idempotent for any policy that passes construction checks. Each
    distinct segment is worked out once per policy and then looked up.
    """
    return [t for t in map(policy._segments.__getitem__, seq) if t]


def _parse_codepoint(token, path, line_no):
    if token.upper().startswith("U+"):
        try:
            return chr(int(token[2:], 16))
        except ValueError:
            raise ParseError(f"bad codepoint escape {token!r}", path, line_no) from None
    if len(token) != 1:
        raise ParseError(
            f"expected a single codepoint or U+XXXX escape, got {token!r}",
            path, line_no)
    return token


def load_policy(path) -> NormalizationPolicy:
    """Read a normalization policy file.

    Format: `key = value` lines (strip_stress, strip_voqs,
    strip_diacritics as space-separated codepoints or U+XXXX escapes),
    then optional `[merge]` sections of `source<TAB>target` lines.
    Settings the file leaves out keep the NormalizationPolicy defaults;
    `[merge]` sections together replace the default merge table entirely.
    """
    settings = {}
    merge_pairs = None

    for line_no, line in data_lines(path):
        if line.strip() == "[merge]":
            merge_pairs = settings.setdefault("merge_pairs", {})
            continue
        if merge_pairs is not None:
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0].strip():
                raise ParseError(
                    "merge lines must be 'source<TAB>target'", path, line_no)
            merge_pairs[parts[0].strip()] = parts[1].strip()
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value'", path, line_no)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key in ("strip_stress", "strip_voqs"):
            settings[key] = parse_bool(value, path, line_no)
        elif key == "strip_diacritics":
            settings[key] = {
                _parse_codepoint(tok, path, line_no) for tok in value.split()
            }
        else:
            raise ParseError(f"unknown policy key {key!r}", path, line_no)

    try:
        return NormalizationPolicy(**settings)
    except DataError as e:
        raise ParseError(str(e), path) from e
