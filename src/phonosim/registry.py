"""Language metadata registry: code, family, branch, validated hours.

A language counts as low-resource when its validated recording time is
strictly below a threshold (`registry validate` defaults to 15 hours), so
a language at exactly the threshold is not low-resource.

code_problem says what a language code may be; code_rows applies it, with
the field count and repeats, to the code column of every input table.
"""

import math
import unicodedata
from dataclasses import dataclass

from .errors import DataError, ParseError
from .formats import csv_rows

REGISTRY_HEADER = ("code", "name", "family", "branch", "hours")
DEFAULT_LOW_RESOURCE_THRESHOLD_HOURS = 15.0


def code_problem(code):
    """Why `code` cannot name a language, or None when it can.

    Codes become unquoted CSV cells and file stems, so they must be
    nonempty and free of commas, double quotes, whitespace and control
    characters.
    """
    if not code:
        return "empty language code"
    if any(ch in ',"' or ch.isspace() for ch in code):
        return (f"language code {code!r} contains a comma, a double quote "
                "or whitespace")
    if any(unicodedata.category(ch) == "Cc" for ch in code):
        return f"language code {code!r} contains a control character"
    return None


def code_rows(rows, path, width, at_least=False):
    """Yield (line_no, code, other cells) of csv_rows rows whose first cell
    is a language code; ParseError on the row's line for other than `width`
    cells (fewer, when `at_least`), a code code_problem rejects once
    stripped, or a repeat (naming the line of the first occurrence)."""
    first_line = {}
    for line_no, cells in rows:
        if len(cells) < width or (len(cells) > width and not at_least):
            expected = f"at least {width}" if at_least else width
            raise ParseError(f"expected {expected} fields, got {len(cells)}",
                             path, line_no)
        code = cells[0].strip()
        problem = code_problem(code)
        if problem:
            raise ParseError(problem, path, line_no)
        if code in first_line:
            raise ParseError(
                f"duplicate language code {code!r} (first seen on line {first_line[code]})",
                path, line_no)
        first_line[code] = line_no
        yield line_no, code, cells[1:]


@dataclass(frozen=True)
class LanguageRecord:
    """One language; raises DataError for a code code_problem() rejects, for
    a family no XML or TSV artifact can hold (a control character, U+FFFE
    or U+FFFF) or for non-finite or negative hours."""

    code: str
    name: str
    family: str
    branch: str | None
    recording_hours: float

    def __post_init__(self):
        problem = code_problem(self.code)
        if problem:
            raise DataError(problem)
        if any(unicodedata.category(ch) == "Cc" or ch in "\ufffe\uffff"
               for ch in self.family):
            raise DataError(f"family {self.family!r} of {self.code!r} contains "
                            "a control character, U+FFFE or U+FFFF")
        if not math.isfinite(self.recording_hours):
            raise DataError(f"non-finite hours for {self.code!r}")
        if self.recording_hours < 0:
            raise DataError(f"negative hours for {self.code!r}")


class Registry:
    """Immutable collection of LanguageRecord, iterated sorted by code."""

    def __init__(self, languages):
        records = sorted(languages, key=lambda r: r.code)
        seen = set()
        for rec in records:
            if rec.code in seen:
                raise DataError(f"duplicate language code {rec.code!r}")
            seen.add(rec.code)
        self._records = tuple(records)
        self._by_code = {r.code: r for r in records}

    def __iter__(self):
        return iter(self._records)

    def __len__(self):
        return len(self._records)

    @property
    def codes(self):
        return tuple(r.code for r in self._records)

    def get(self, code) -> LanguageRecord:
        try:
            return self._by_code[code]
        except KeyError:
            raise DataError(f"unknown language code {code!r}") from None

    def low_resource_codes(self, threshold_hours):
        """Codes with fewer than `threshold_hours` recorded hours, sorted.
        The threshold must be finite and positive."""
        if not (math.isfinite(threshold_hours) and threshold_hours > 0):
            raise DataError("low-resource threshold must be finite and "
                            f"positive hours, got {threshold_hours!r}")
        return tuple(r.code for r in self._records
                     if r.recording_hours < threshold_hours)

    def families(self):
        """Mapping code -> family over the whole registry."""
        return {r.code: r.family for r in self._records}


def load_registry(path) -> Registry:
    """Read a registry CSV: header `code,name,family,branch,hours`.

    A file without nonblank rows yields an empty registry; malformed rows
    raise ParseError with the line number (code_rows checks the codes).
    """
    rows = csv_rows(path)
    if not rows:
        return Registry([])
    header_line, header = rows[0]
    if tuple(cell.strip() for cell in header) != REGISTRY_HEADER:
        raise ParseError(
            f"expected header {','.join(REGISTRY_HEADER)!r}, got {','.join(header)!r}",
            path, header_line)

    records = []
    for line_no, code, cells in code_rows(rows[1:], path, len(REGISTRY_HEADER)):
        name, family, branch, hours_text = (cell.strip() for cell in cells)
        try:
            hours = float(hours_text)
        except ValueError:
            raise ParseError(f"bad hours value {hours_text!r}", path, line_no) from None
        try:
            records.append(LanguageRecord(code, name, family, branch or None, hours))
        except DataError as exc:
            raise ParseError(str(exc), path, line_no) from None
    return Registry(records)
