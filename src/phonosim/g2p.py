"""Table-driven grapheme-to-phoneme conversion.

Rules map a grapheme (one or more letters) to an IPA string, optionally
gated by single-sided context patterns over the grapheme text. Matching is
greedy longest-match, left to right; ties go to higher priority, then to
earlier rule order.

Context pattern syntax, kept deliberately small so rule files stay
auditable: a sequence of literal characters and [...] character classes.
'#' marks the word boundary and may only anchor the outer end (start of a
left context, end of a right context).

transliterate converts each distinct prepared word once per Ruleset and
reuses the normalized segments (the memo holds successes only); any error
reruns the whole text on the uncached path, so error types, messages and
offsets are exactly those of a single pass.
"""

import re
import unicodedata
from dataclasses import dataclass

from .errors import DataError, ParseError, PhonosimError, UnmatchedGraphemeError
from .formats import data_lines, parse_bool
from .ipa import NormalizationPolicy, PhonemeSequence, normalize, tokenize_ipa

MODES = ("error", "skip", "passthrough")


@dataclass(frozen=True)
class G2PRule:
    grapheme: str
    phoneme_output: str
    left_context: str | None = None
    right_context: str | None = None
    priority: int = 0


@dataclass(frozen=True)
class _Pattern:
    units: tuple          # literal chars and frozenset classes
    anchored: bool        # '#' present at the outer end


def _parse_pattern(text, side, path=None, line=None):
    chars = list(text)
    anchored = False
    if side == "left" and chars and chars[0] == "#":
        anchored = True
        chars = chars[1:]
    elif side == "right" and chars and chars[-1] == "#":
        anchored = True
        chars = chars[:-1]
    units = []
    i = 0
    while i < len(chars):
        c = chars[i]
        if c == "#":
            raise ParseError(
                f"'#' may only anchor the outer end of a {side} context",
                path, line)
        if c == "[":
            j = i + 1
            members = []
            while j < len(chars) and chars[j] != "]":
                members.append(chars[j])
                j += 1
            if j >= len(chars):
                raise ParseError("unterminated character class", path, line)
            if not members:
                raise ParseError("empty character class", path, line)
            units.append(frozenset(members))
            i = j + 1
        elif c == "]":
            raise ParseError("stray ']' in context pattern", path, line)
        else:
            units.append(c)
            i += 1
    return _Pattern(tuple(units), anchored)


def _unit_match(unit, ch):
    if isinstance(unit, frozenset):
        return ch in unit
    return ch == unit


def _match_left(pat, word, pos):
    j = pos
    for unit in reversed(pat.units):
        j -= 1
        if j < 0 or not _unit_match(unit, word[j]):
            return False
    return not pat.anchored or j == 0


def _match_right(pat, word, pos):
    j = pos
    for unit in pat.units:
        if j >= len(word) or not _unit_match(unit, word[j]):
            return False
        j += 1
    return not pat.anchored or j == len(word)


class _KeepTable(dict):
    """str.translate table for punctuation_strip: a code point maps to itself
    (kept) or to None (dropped: a P*/S*/N* category, which no whitespace
    character has), decided once per code point."""

    def __missing__(self, cp):
        keep = unicodedata.category(chr(cp))[0] not in "PSN"
        self[cp] = cp if keep else None
        return self[cp]


class Ruleset:
    """Immutable rule collection for one language.

    case_fold folds both input text and rule graphemes/contexts;
    punctuation_strip removes punctuation, symbols and digits before
    matching (whitespace stays and separates words). The rules never
    change; the only mutable state is transliterate's word memo and the
    per-character keep/drop table of punctuation_strip.
    """

    def __init__(self, language_code, rules, case_fold=True, punctuation_strip=True):
        rules = tuple(rules)
        if not rules:
            raise DataError("a ruleset needs at least one rule")
        seen = {}
        for rule in rules:
            if not rule.grapheme:
                raise DataError("rule grapheme must be nonempty")
            key = (rule.grapheme, rule.left_context, rule.right_context)
            if key in seen:
                raise DataError(
                    f"duplicate rule for grapheme {rule.grapheme!r} with identical contexts")
            seen[key] = rule
        self.language_code = language_code
        self.rules = rules
        self.case_fold = bool(case_fold)
        self.punctuation_strip = bool(punctuation_strip)

        fold = self._fold
        compiled = []
        for idx, rule in enumerate(rules):
            g = fold(rule.grapheme)
            left = (_parse_pattern(fold(rule.left_context), "left")
                    if rule.left_context else None)
            right = (_parse_pattern(fold(rule.right_context), "right")
                     if rule.right_context else None)
            compiled.append((g, left, right, rule, idx))
        # longest grapheme first, then higher priority, then file order
        compiled.sort(key=lambda item: (-len(item[0]), -item[3].priority, item[4]))
        self._compiled = tuple(compiled)
        by_first = {}
        for entry in self._compiled:
            by_first.setdefault(entry[0][0], []).append(entry)
        self._by_first = {c: tuple(entries) for c, entries in by_first.items()}
        self._memo = (None, None, {})
        self._keep = _KeepTable()

    def _fold(self, text):
        """The one text form that input, rule graphemes and contexts share:
        NFC, then with case_fold casefold and NFC again, since casefold can
        decompose (ǰ → j + U+030C, İ → i + U+0307)."""
        t = unicodedata.normalize("NFC", text)
        if self.case_fold:
            t = unicodedata.normalize("NFC", t.casefold())
        return t

    def prepare(self, text):
        t = self._fold(text)
        if self.punctuation_strip:
            # NFC again: a dropped mark may have kept a base and a combining
            # mark apart (e + ! + U+0301)
            t = unicodedata.normalize("NFC", t.translate(self._keep))
        return t

    def match_at(self, word, i):
        # a rule whose grapheme does not start with word[i] cannot match at i
        for g, left, right, rule, _ in self._by_first.get(word[i:i + 1], ()):
            if not word.startswith(g, i):
                continue
            if left is not None and not _match_left(left, word, i):
                continue
            if right is not None and not _match_right(right, word, i + len(g)):
                continue
            return rule, len(g)
        return None, 0

    def _word_memo(self, policy, mode):
        """Prepared word -> tuple of normalized segments, for one policy and mode.

        The slot holds the policy object itself rather than its id(), which
        Python reuses once an object is freed; another policy or mode
        replaces the memo.
        """
        held_policy, held_mode, memo = self._memo
        if held_policy is not policy or held_mode != mode:
            memo = {}
            self._memo = (policy, mode, memo)
        return memo


def _word_ipa(rs, word, base, mode):
    """IPA string for one prepared word; unmatched offsets count from base."""
    parts = []
    i = 0
    while i < len(word):
        rule, glen = rs.match_at(word, i)
        if rule is None:
            if mode == "error":
                raise UnmatchedGraphemeError(word[i], base + i)
            if mode == "passthrough":
                parts.append(word[i])
            i += 1
        else:
            parts.append(rule.phoneme_output)
            i += glen
    return "".join(parts)


def _transliterate_prepared(prepared, rs, policy, mode):
    """The uncached path: the whole prepared text in one pass.

    Every error transliterate raises comes from here, so an unmatched
    grapheme in a later word still beats a tokenize error in an earlier one.
    """
    word_outputs = [_word_ipa(rs, m.group(), m.start(), mode)
                    for m in re.finditer(r"\S+", prepared)]
    return normalize(tokenize_ipa(" ".join(word_outputs)), policy)


def transliterate(text, rs: Ruleset, policy: NormalizationPolicy,
                  mode="error") -> PhonemeSequence:
    """Convert orthographic text to a normalized phoneme sequence.

    mode controls unmatched graphemes: 'error' raises with the offset in
    the prepared text, 'skip' drops the character, 'passthrough' copies it
    into the IPA output.
    """
    if mode not in MODES:
        raise DataError(f"unknown G2P mode {mode!r}; expected one of {MODES}")
    prepared = rs.prepare(text)
    memo = rs._word_memo(policy, mode)
    out = []
    try:
        for word in prepared.split():
            segments = memo.get(word)
            if segments is None:
                # exact per word: tokenize_ipa resets at whitespace, NFC never
                # composes across U+0020, normalize maps one segment at a time
                segments = tuple(normalize(
                    tokenize_ipa(_word_ipa(rs, word, 0, mode)), policy))
                memo[word] = segments
            out += segments
    except PhonosimError:
        return _transliterate_prepared(prepared, rs, policy, mode)
    return out


def load_ruleset(path) -> Ruleset:
    """Read a rule file.

    Lines are `grapheme<TAB>ipa_output<TAB>left<TAB>right<TAB>priority`
    with trailing fields optional and empty fields allowed (an empty
    output marks a silent grapheme). Full-line `#` comments are skipped.
    `@language`, `@case_fold` and `@punctuation_strip` directives override
    the defaults (file stem, on, on).
    """
    language = None
    case_fold = True
    punctuation_strip = True
    rules = []
    first_line = {}

    for line_no, line in data_lines(path):
        if line.startswith("@"):
            parts = line[1:].split(None, 1)
            key = parts[0].lower() if parts else ""
            value = parts[1].strip() if len(parts) > 1 else ""
            if key == "language":
                language = value
            elif key == "case_fold":
                case_fold = parse_bool(value, path, line_no)
            elif key == "punctuation_strip":
                punctuation_strip = parse_bool(value, path, line_no)
            else:
                raise ParseError(f"unknown directive @{key}", path, line_no)
            continue
        fields = line.split("\t")
        if len(fields) > 5:
            raise ParseError(
                f"expected at most 5 tab-separated fields, got {len(fields)}",
                path, line_no)
        fields += [""] * (5 - len(fields))
        grapheme, output, left, right, prio_text = (f.strip() for f in fields)
        if not grapheme:
            raise ParseError("empty grapheme", path, line_no)
        try:
            priority = int(prio_text) if prio_text else 0
        except ValueError:
            raise ParseError(f"bad priority {prio_text!r}", path, line_no) from None
        key = (grapheme, left or None, right or None)
        if key in first_line:
            raise ParseError(
                f"duplicate rule for {grapheme!r} (first on line {first_line[key]})",
                path, line_no)
        first_line[key] = line_no
        for side, pattern in (("left", left), ("right", right)):
            if pattern:
                _parse_pattern(pattern, side, path, line_no)
        rules.append(G2PRule(grapheme, output, left or None, right or None, priority))

    if not rules:
        raise ParseError("rule file contains no rules", path)
    if language is None:
        stem = str(path)
        stem = stem[stem.rfind("/") + 1:]
        language = stem.split(".")[0]
    try:
        return Ruleset(language, rules, case_fold, punctuation_strip)
    except DataError as e:
        raise ParseError(str(e), path) from e
