"""Table-driven grapheme-to-phoneme conversion.

Rules map a grapheme (one or more letters) to an IPA string, optionally
gated by single-sided context patterns over the grapheme text. Matching is
greedy longest-match, left to right; ties go to higher priority, then to
earlier rule order.

Context pattern syntax, kept deliberately small so rule files stay
auditable: a sequence of literal characters and [...] character classes.
'#' marks the word boundary and may only anchor the outer end (start of a
left context, end of a right context).

A Ruleset holds only its compiled rules. transliterate_lines converts
each distinct prepared word once per call, keeping its normalized segments
(successes only) in a table that lives as long as the generator;
transliterate is that generator over one text. phoneme_counts gives
Counter(transliterate(text)) from the text's word table, keeping no table
of its own: each distinct word's segments are weighted by its frequency.
Both walk words in text order and store no failure, so the first failing
word in text order raises, at its first occurrence: an unmatched
grapheme's offset counts in the prepared text, a tokenize error names the
word and counts its offset in that word's IPA.

A word is walked once, one Ruleset.match_at per position. It concatenates
its fired rules' outputs when each is self-contained and no join of the
ruleset's outputs changes under NFC (checked once per Ruleset: it depends
on the rules). Each output's normalized segments come from the policy's
piece table (ipa), built once per distinct output and policy. Unmatched
characters that mode 'skip' drops are transparent. Any other word takes
the exact path over the same walk's parts: their IPA string,
tokenize_ipa, then normalize.
"""

import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .errors import (DataError, ParseError, RuleError, TokenizeError,
                     UnmatchedGraphemeError)
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
    units: tuple          # one frozenset per position; a literal c is frozenset(c)
    anchored: bool        # '#' present at the outer end


def _parse_pattern(text, side, index):
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
            raise RuleError(
                f"'#' may only anchor the outer end of a {side} context", index)
        if c == "[":
            j = i + 1
            members = []
            while j < len(chars) and chars[j] != "]":
                members.append(chars[j])
                j += 1
            if j >= len(chars):
                raise RuleError("unterminated character class", index)
            if not members:
                raise RuleError("empty character class", index)
            units.append(frozenset(members))
            i = j + 1
        elif c == "]":
            raise RuleError("stray ']' in context pattern", index)
        else:
            units.append(frozenset(c))
            i += 1
    return _Pattern(tuple(units), anchored)


def _match_left(pat, word, pos):
    j = pos
    for unit in reversed(pat.units):
        j -= 1
        if j < 0 or word[j] not in unit:
            return False
    return not pat.anchored or j == 0


def _match_right(pat, word, pos):
    j = pos
    for unit in pat.units:
        if j >= len(word) or word[j] not in unit:
            return False
        j += 1
    return not pat.anchored or j == len(word)


def _describe(rule):
    """A rule's grapheme and contexts as written, for messages."""
    return repr(rule.grapheme) + "".join(
        f" {side} {context!r}" for side, context
        in (("left", rule.left_context), ("right", rule.right_context)) if context)


class _KeepTable(dict):
    """str.translate table for punctuation_strip: a code point maps to itself
    (kept) or to None (dropped: a P*/S*/N* category, which no whitespace
    character has), decided once per code point per process."""

    def __missing__(self, cp):
        keep = unicodedata.category(chr(cp))[0] not in "PSN"
        self[cp] = cp if keep else None
        return self[cp]


_KEEP = _KeepTable()


def _check_mode(mode):
    if mode not in MODES:
        raise DataError(f"unknown G2P mode {mode!r}; expected one of {MODES}")


def _joins_keep_nfc(rules):
    """True when no output's last character followed by an output's first
    character composes or reorders under NFC, decided by one NFC check
    over every such pair, space-separated. A first character that is a
    combining mark is left out: such an output is never self-contained."""
    outputs = [unicodedata.normalize("NFC", r.phoneme_output) for r in rules]
    starts = {o[0] for o in outputs if o and unicodedata.category(o[0])[0] != "M"}
    ends = {o[-1] for o in outputs if o}
    # e + (" " + e).join(starts) is "es1 es2 ...": one join per end
    pairs = " ".join([e + (" " + e).join(starts) for e in ends])
    return unicodedata.is_normalized("NFC", pairs)


class Ruleset:
    """Immutable rule collection for one language.

    case_fold folds both input text and rule graphemes/contexts;
    punctuation_strip removes punctuation, symbols and digits before
    matching (whitespace stays and separates words). A Ruleset holds only
    its compiled rules and never changes.
    """

    def __init__(self, language_code, rules, case_fold=True, punctuation_strip=True):
        rules = tuple(rules)
        if not rules:
            raise DataError("a ruleset needs at least one rule")
        self.language_code = language_code
        self.rules = rules
        self.case_fold = bool(case_fold)
        self.punctuation_strip = bool(punctuation_strip)

        fold = self._fold
        compiled = []
        seen = {}
        for idx, rule in enumerate(rules):
            if not rule.grapheme:
                raise RuleError("rule grapheme must be nonempty", idx)
            g = fold(rule.grapheme)
            left = (_parse_pattern(fold(rule.left_context), "left", idx)
                    if rule.left_context else None)
            right = (_parse_pattern(fold(rule.right_context), "right", idx)
                     if rule.right_context else None)
            # match_at sees only the folded grapheme and contexts, so a
            # later rule equal to an earlier one in these could never fire
            first = seen.setdefault((g, left, right), idx)
            if first != idx:
                raise RuleError(f"rule {_describe(rule)} matches the same text as "
                                f"rule {_describe(rules[first])}", idx, first)
            compiled.append((g, left, right, rule, idx))
        # longest grapheme first, then higher priority, then file order
        compiled.sort(key=lambda item: (-len(item[0]), -item[3].priority, item[4]))
        self._compiled = tuple(compiled)
        by_first = {}
        for entry in self._compiled:
            by_first.setdefault(entry[0][0], []).append(entry)
        self._by_first = {c: tuple(entries) for c, entries in by_first.items()}
        self._joins_keep_nfc = _joins_keep_nfc(rules)

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
            t = unicodedata.normalize("NFC", t.translate(_KEEP))
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


def _walk(rs, word, text, mode, pieces):
    """(parts, segments) of one word of the prepared text, walked once. The
    parts are the fired rules' outputs and the characters that mode
    'passthrough' keeps; segments concatenates their pieces, or is None
    when pieces is None or a part is not self-contained. An unmatched
    grapheme's offset counts in text, from the word's first
    whitespace-delimited occurrence: that is where the word fails."""
    match_at = rs.match_at
    parts = []
    out = None if pieces is None else []
    i, n = 0, len(word)
    while i < n:
        rule, glen = match_at(word, i)
        if rule is None:
            if mode == "error":
                start = re.search(rf"(?<!\S){re.escape(word)}(?!\S)", text).start()
                raise UnmatchedGraphemeError(word[i], start + i)
            if mode == "passthrough":
                parts.append(word[i])
                out = None
            i += 1
        else:
            output = rule.phoneme_output
            parts.append(output)
            if out is not None:
                piece = pieces[output]
                if piece is None:
                    out = None
                else:
                    out += piece
            i += glen
    return parts, None if out is None else tuple(out)


def _word_segments(rs, word, text, policy, mode):
    """Normalized segments of one word of the prepared text, as a tuple.

    Exact per word: tokenize_ipa resets at whitespace, NFC never composes
    across U+0020, normalize maps one segment at a time. Self-contained
    parts are concatenated without building the IPA string; a word with
    any other part takes the exact path from the same walk's parts, where
    a tokenize error names the word.
    """
    parts, segments = _walk(rs, word, text, mode,
                            policy._pieces if rs._joins_keep_nfc else None)
    if segments is not None:
        return segments
    try:
        raw = tokenize_ipa("".join(parts))
    except TokenizeError as e:
        raise TokenizeError(f"word {word!r}: {e.message}", e.offset) from None
    return tuple(normalize(raw, policy))


def transliterate_lines(texts, rs: Ruleset, policy: NormalizationPolicy,
                        mode="error"):
    """Each of texts as a normalized phoneme sequence, yielded as soon as
    that text has been read.

    mode controls unmatched graphemes: 'error' raises with the offset in
    the prepared text, 'skip' drops the character, 'passthrough' copies it
    into the IPA output. A prepared word is converted once per call: the
    table of converted words lives as long as the generator and holds
    successes only, so the first failing word of a text raises.
    """
    _check_mode(mode)
    converted = {}
    for text in texts:
        prepared = rs.prepare(text)
        out = []
        for word in prepared.split():
            segments = converted.get(word)
            if segments is None:
                segments = converted[word] = _word_segments(rs, word, prepared,
                                                            policy, mode)
            out += segments
        yield out


def transliterate(text, rs: Ruleset, policy: NormalizationPolicy,
                  mode="error") -> PhonemeSequence:
    """Convert orthographic text to a normalized phoneme sequence: the
    first sequence of transliterate_lines([text], ...)."""
    return next(transliterate_lines((text,), rs, policy, mode))


def phoneme_counts(text, rs: Ruleset, policy: NormalizationPolicy,
                   mode="error") -> Counter:
    """Counter(transliterate(text, rs, policy, mode)), errors included.

    The prepared text becomes a word table; each distinct word is
    converted once, the words of one frequency are counted together by
    one Counter, and each such count is multiplied by the frequency.
    Nothing is stored: each word is a table key exactly once, in
    first-occurrence order, so the first failing word in text order raises.
    """
    _check_mode(mode)
    prepared = rs.prepare(text)
    table = Counter(prepared.split())
    by_frequency = {}
    for word, n in table.items():
        by_frequency.setdefault(n, []).extend(
            _word_segments(rs, word, prepared, policy, mode))
    counts = Counter()
    for n, segments in by_frequency.items():
        counts.update({p: c * n for p, c in Counter(segments).items()})
    return counts


def load_ruleset(path) -> Ruleset:
    """Read a rule file.

    Lines are `grapheme<TAB>ipa_output<TAB>left<TAB>right<TAB>priority`
    with trailing fields optional and empty fields allowed (an empty
    output marks a silent grapheme). Full-line `#` comments are skipped.
    `@language` sets the language code (default: the file stem);
    `@case_fold` and `@punctuation_strip` override the Ruleset defaults.
    """
    language = None
    directives = {}
    rules = []
    lines = []

    for line_no, line in data_lines(path):
        if line.startswith("@"):
            parts = line[1:].split(None, 1)
            key = parts[0].lower() if parts else ""
            value = parts[1].strip() if len(parts) > 1 else ""
            if key == "language":
                language = value
            elif key in ("case_fold", "punctuation_strip"):
                directives[key] = parse_bool(value, path, line_no)
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
        try:
            priority = int(prio_text) if prio_text else 0
        except ValueError:
            raise ParseError(f"bad priority {prio_text!r}", path, line_no) from None
        rules.append(G2PRule(grapheme, output, left or None, right or None, priority))
        lines.append(line_no)

    if language is None:
        language = Path(path).stem
    try:
        return Ruleset(language, rules, **directives)
    except RuleError as e:
        first = "" if e.first is None else f" (first on line {lines[e.first]})"
        raise ParseError(f"{e}{first}", path, lines[e.index]) from e
    except DataError as e:
        raise ParseError(str(e), path) from e
