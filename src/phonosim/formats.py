"""Shared text conventions and float formatting for every input and artifact.

Inputs are UTF-8 with LF or CRLF endings. Readers skip blank lines (line
files also full-line `#` comments), name 1-based lines in errors (for CSV
the line a row starts on) and return lists, so each file is closed before
a caller raises. Artifacts are UTF-8 with every line LF-terminated.

Floats render through fmt_float: 12 significant digits, shortest form.
Rounding hides most last-bit differences but not all: a value next to a
rounding boundary still changes its 12th digit, and a last-bit change in
a density grid value moves the contour vertices interpolated from it.
Artifacts are byte-identical when the floating-point operations and their
order are, so a different BLAS/LAPACK build can still change them.
"""

import csv

from .errors import ParseError

FLOAT_FMT = ".12g"

_BOOLEANS = {"true": True, "yes": True, "on": True, "1": True,
             "false": False, "no": False, "off": False, "0": False}


def fmt_float(x):
    s = format(float(x), FLOAT_FMT)
    return "0" if s == "-0" else s


def round_float(x):
    """The float as exported, for embedding in JSON payloads."""
    return float(fmt_float(x))


def parse_bool(value, path, line_no):
    """true/false, yes/no, on/off or 1/0, any case; else ParseError."""
    try:
        return _BOOLEANS[value.strip().lower()]
    except KeyError:
        raise ParseError(f"expected a boolean, got {value!r}", path, line_no) from None


def data_lines(path):
    """[(line_no, line)] of a line file, line endings removed, without
    blank lines and full-line `#` comments."""
    with open(path, encoding="utf-8") as f:
        return [(line_no, line) for line_no, raw in enumerate(f, 1)
                if (line := raw.rstrip("\n").rstrip("\r")).strip()
                and not line.lstrip().startswith("#")]


def csv_rows(path):
    """[(line_no, cells)] of the CSV rows with a nonblank cell; line_no is
    the line the row starts on, so a quoted newline does not shift it."""
    rows = []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        line_no = 1
        for cells in reader:
            if any(cell.strip() for cell in cells):
                rows.append((line_no, cells))
            line_no = reader.line_num + 1
    return rows


def write_lines(path, lines):
    """Write each line plus one LF, as UTF-8."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("".join(f"{line}\n" for line in lines))
