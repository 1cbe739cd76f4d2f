"""Shared text conventions and float formatting for every input and artifact.

Inputs are UTF-8 with LF or CRLF endings: a line ends at LF, and a lone
CR inside a line stays in it. File readers skip blank lines (line files also
full-line `#` comments), name 1-based lines in errors (for CSV the line a
row starts on) and return lists, so each file is closed before a caller
raises; stdin_lines yields every stdin line as it arrives. Artifacts are
UTF-8 with every line LF-terminated. write_lines streams them: it writes
each line as it is produced, so a writer that yields its lines one by one
never holds its artifact whole, and a write that fails part way, in the
writer or on disk, leaves no file.

Floats render through fmt_float: 12 significant digits, shortest form.
fmt_floats gives the same text for a whole numpy array with one C-level
`%` call of `%.12g` fields: that is format(v, ".12g") for every value,
and adding 0.0 first turns -0.0 into 0.0, the one value fmt_float
rewrites, while leaving every other value as it is. json_floats gives
repr(round_float(v)), the form json.dumps writes for an exported float,
from those tokens: a token t with a point and no exponent is used as it
is, any other token (integral, exponent form, inf, nan) as
repr(float(t)). That is exact because a positional `%.12g` token has at
most 12 significant digits and a decimal of at most 15 significant
digits round-trips through a double, so repr(float(t)) writes t's
digits, positionally, and adds ".0" only to an integral t. fmt_float
and round_float stay the scalar forms, and the bulk forms' test oracle.

Rounding hides most last-bit differences but not all: a value next to a
rounding boundary still changes its 12th digit, and a last-bit change in
a density grid value moves the contour vertices interpolated from it.
Artifacts are byte-identical when the floating-point operations and their
order are, so a different BLAS/LAPACK build can still change them.
"""

import csv
import os
import sys
from contextlib import contextmanager

from .errors import DataError, ParseError

FLOAT_FMT = ".12g"
_FLOAT_PCT = "%" + FLOAT_FMT

_BOOLEANS = {"true": True, "yes": True, "on": True, "1": True,
             "false": False, "no": False, "off": False, "0": False}


def fmt_float(x):
    s = format(float(x), FLOAT_FMT)
    return "0" if s == "-0" else s


def round_float(x):
    """The float as exported, for embedding in JSON payloads."""
    return float(fmt_float(x))


def fmt_floats(a, row="%s"):
    """The space-joined row % tuple(map(fmt_float, r)) for each r of a numpy
    float array of rows (in a 1-D array each value is a row), by one % call.
    `row` holds one %s field per column."""
    flat = (a + 0.0).ravel().tolist()  # -0.0 + 0.0 is 0.0
    return " ".join([row.replace("%s", _FLOAT_PCT)] * len(a)) % tuple(flat)


def json_floats(a, row="%s", sep=" "):
    """fmt_floats with each number as json.dumps writes round_float(v),
    that is repr(round_float(v)); the module docstring says why."""
    tokens = [t if "." in t and "e" not in t else repr(float(t))
              for t in fmt_floats(a.ravel()).split()]
    return sep.join([row] * len(a)) % tuple(tokens)


def parse_bool(value, path, line_no):
    """true/false, yes/no, on/off or 1/0, any case; else ParseError."""
    try:
        return _BOOLEANS[value.strip().lower()]
    except KeyError:
        raise ParseError(f"expected a boolean, got {value!r}", path, line_no) from None


@contextmanager
def utf8_errors(path):
    """A UnicodeDecodeError reading `path` as a ParseError naming its line."""
    try:
        yield
    except UnicodeDecodeError as e:
        with open(path, "rb") as f:
            text = f.read().decode("utf-8", "surrogateescape")
        bad = e.object[e.start]  # surrogateescape decodes it as U+DC00 + bad
        line = text.count("\n", 0, text.find(chr(0xDC00 + bad))) + 1
        raise ParseError(f"invalid UTF-8 byte 0x{bad:02x}", path, line) from None


def stdin_lines():
    """Each stdin line as it arrives, LF removed, decoded strictly as UTF-8."""
    for raw in sys.stdin.buffer:
        try:
            yield raw.decode("utf-8").rstrip("\n")
        except UnicodeDecodeError as e:
            raise DataError(f"invalid UTF-8 byte 0x{raw[e.start]:02x}") from None


def data_lines(path):
    """[(line_no, line)] of a line file, without blank lines and full-line
    `#` comments. A line ends at LF or at the end of the file, and one CR
    just before that end goes with it; a lone CR stays in its line."""
    with utf8_errors(path), open(path, encoding="utf-8", newline="") as f:
        lines = f.read().split("\n")
    return [(line_no, line) for line_no, raw in enumerate(lines, 1)
            if (line := raw.removesuffix("\r")).strip()
            and not line.lstrip().startswith("#")]


def csv_rows(path):
    """[(line_no, cells)] of the CSV rows with a nonblank cell; line_no is
    the line the row starts on, so a quoted newline does not shift it."""
    rows = []
    with utf8_errors(path), open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        line_no = 1
        for cells in reader:
            if any(cell.strip() for cell in cells):
                rows.append((line_no, cells))
            line_no = reader.line_num + 1
    return rows


def csv_cell(text):
    """`text` as one CSV cell: quoted, with each `"` doubled, when it holds
    a comma, a double quote, CR or LF."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_lines(path, lines):
    """Write each line plus one LF, as UTF-8, as `lines` yields it. If
    iterating `lines` or writing raises, the file is removed and the
    error re-raised; a symlink or a device (`/dev/stdout`) is not."""
    f = open(path, "w", encoding="utf-8", newline="\n")
    try:
        with f:
            for line in lines:
                f.write(f"{line}\n")
    except BaseException:
        if os.path.isfile(path) and not os.path.islink(path):
            os.remove(path)
        raise
