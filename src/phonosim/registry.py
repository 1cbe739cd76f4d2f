"""Language metadata registry: code, family, branch, validated hours.

A language counts as low-resource when its validated recording time is
strictly below the threshold (default 15 hours), so a language at exactly
the threshold is not low-resource.
"""

import math
from dataclasses import dataclass

from .errors import DataError, ParseError
from .formats import csv_rows

REGISTRY_HEADER = ("code", "name", "family", "branch", "hours")
DEFAULT_LOW_RESOURCE_THRESHOLD_HOURS = 15.0


def code_problem(code):
    """Why `code` cannot name a language, or None when it can.

    Codes become unquoted CSV cells and file stems, so they must be
    nonempty and free of commas, double quotes and whitespace.
    """
    if not code:
        return "empty language code"
    if any(ch in ',"' or ch.isspace() for ch in code):
        return (f"language code {code!r} contains a comma, a double quote "
                "or whitespace")
    return None


@dataclass(frozen=True)
class LanguageRecord:
    """One language; raises DataError for a code code_problem() rejects or
    for non-finite or negative hours."""

    code: str
    name: str
    family: str
    branch: str | None
    recording_hours: float

    def __post_init__(self):
        problem = code_problem(self.code)
        if problem:
            raise DataError(problem)
        if not math.isfinite(self.recording_hours):
            raise DataError(f"non-finite hours for {self.code!r}")
        if self.recording_hours < 0:
            raise DataError(f"negative hours for {self.code!r}")


class Registry:
    """Immutable collection of LanguageRecord, iterated sorted by code."""

    def __init__(self, languages,
                 low_resource_threshold_hours=DEFAULT_LOW_RESOURCE_THRESHOLD_HOURS):
        records = sorted(languages, key=lambda r: r.code)
        seen = set()
        for rec in records:
            if rec.code in seen:
                raise DataError(f"duplicate language code {rec.code!r}")
            seen.add(rec.code)
        self._records = tuple(records)
        self._by_code = {r.code: r for r in records}
        self.low_resource_threshold_hours = float(low_resource_threshold_hours)

    def __iter__(self):
        return iter(self._records)

    def __len__(self):
        return len(self._records)

    def __contains__(self, code):
        return code in self._by_code

    @property
    def codes(self):
        return tuple(r.code for r in self._records)

    def get(self, code) -> LanguageRecord:
        try:
            return self._by_code[code]
        except KeyError:
            raise DataError(f"unknown language code {code!r}") from None

    def is_low_resource(self, code) -> bool:
        return self.get(code).recording_hours < self.low_resource_threshold_hours

    def low_resource_codes(self):
        return tuple(r.code for r in self._records
                     if r.recording_hours < self.low_resource_threshold_hours)

    def family_members(self, family, exclude=None):
        """All records of a family, minus an optional code, sorted by code."""
        return [r for r in self._records
                if r.family == family and r.code != exclude]

    def families(self):
        """Mapping code -> family over the whole registry."""
        return {r.code: r.family for r in self._records}


def load_registry(path,
                  low_resource_threshold_hours=DEFAULT_LOW_RESOURCE_THRESHOLD_HOURS
                  ) -> Registry:
    """Read a registry CSV: header `code,name,family,branch,hours`.

    A file without nonblank rows yields an empty registry; duplicate codes and
    malformed rows raise ParseError with the line number.
    """
    rows = csv_rows(path)
    if not rows:
        return Registry([], low_resource_threshold_hours)
    header_line, header = rows[0]
    if tuple(cell.strip() for cell in header) != REGISTRY_HEADER:
        raise ParseError(
            f"expected header {','.join(REGISTRY_HEADER)!r}, got {','.join(header)!r}",
            path, header_line)

    records = []
    first_line = {}
    for line_no, row in rows[1:]:
        if len(row) != len(REGISTRY_HEADER):
            raise ParseError(
                f"expected {len(REGISTRY_HEADER)} fields, got {len(row)}",
                path, line_no)
        code, name, family, branch, hours_text = (cell.strip() for cell in row)
        try:
            hours = float(hours_text)
        except ValueError:
            raise ParseError(f"bad hours value {hours_text!r}", path, line_no) from None
        try:
            record = LanguageRecord(code, name, family, branch or None, hours)
        except DataError as exc:
            raise ParseError(str(exc), path, line_no) from None
        if code in first_line:
            raise ParseError(
                f"duplicate language code {code!r} (first seen on line {first_line[code]})",
                path, line_no)
        first_line[code] = line_no
        records.append(record)
    return Registry(records, low_resource_threshold_hours)
