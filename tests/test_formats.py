import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonosim.errors import ParseError
from phonosim.formats import (csv_cell, csv_rows, data_lines, fmt_float, fmt_floats,
                              json_floats, parse_bool, round_float,
                              write_lines)
from phonosim.pca import read_coords_csv
from phonosim.registry import load_registry
from phonosim.stats import read_matrix_csv
from phonosim.typology import load_feature_matrix


class TestDataLines:
    @pytest.mark.parametrize("ending", ["\n", "\r\n"])
    def test_blank_and_comment_lines_skipped(self, tmp_path, ending):
        p = tmp_path / "f.txt"
        text = ending.join(["a\tb", "", "   ", "  # indented comment",
                            "#comment", "c # not a comment", "last"])
        p.write_bytes(text.encode("utf-8"))
        assert data_lines(p) == [(1, "a\tb"), (6, "c # not a comment"),
                                 (7, "last")]

    def test_trailing_whitespace_kept(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_bytes(b"x\t \r\n")
        assert data_lines(p) == [(1, "x\t ")]

    def test_utf8(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_bytes("ʃa\tʃ\n".encode("utf-8"))
        assert data_lines(p) == [(1, "ʃa\tʃ")]

    def test_lone_cr_stays_in_its_line(self, tmp_path):
        # lines end at LF (or the end of the file), taking one CR before it;
        # line numbers count LFs, as a UTF-8 error's line does
        p = tmp_path / "f.txt"
        p.write_bytes(b"a\tb\rc\n\r\nd\r\r\n# x\re\n\rf\r")
        assert data_lines(p) == [(1, "a\tb\rc"), (3, "d\r"), (5, "\rf")]


class TestCsvRows:
    def test_quoted_comma_and_newline(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_bytes(b'h1,h2\n"a,b","x\ny"\nc,d\n')
        assert csv_rows(p) == [(1, ["h1", "h2"]), (2, ["a,b", "x\ny"]),
                               (4, ["c", "d"])]

    def test_blank_rows_skipped(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_bytes(b"\nh\n,\n  , \nv\n\n")
        assert csv_rows(p) == [(2, ["h"]), (5, ["v"])]

    def test_crlf(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_bytes(b'h\r\n"a\r\nb"\r\nc\r\n')
        assert csv_rows(p) == [(1, ["h"]), (2, ["a\r\nb"]), (4, ["c"])]

    def test_empty_file(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_bytes(b"")
        assert csv_rows(p) == []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.lists(st.text(alphabet='a ,"\n', max_size=4),
                             min_size=1, max_size=3), max_size=6))
    def test_start_lines_match_writer(self, tmp_path_factory, rows):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        expected = []
        for row in rows:
            start = buf.getvalue().count("\n") + 1
            writer.writerow(row)
            if any(cell.strip() for cell in row):
                expected.append((start, row))
        p = tmp_path_factory.mktemp("csv") / "f.csv"
        p.write_bytes(buf.getvalue().encode("utf-8"))
        assert csv_rows(p) == expected


SMALLEST_NORMAL = 2.2250738585072014e-308

# The forms a %.12g token can take: -0.0, subnormals, integral values,
# values a hair from an integer (which round to one at 12 digits or not),
# the edges of the positional range, exponent forms and non-finite values.
bulk_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, SMALLEST_NORMAL, 1e-4,
                     9.99999999999995e-05, 1e11, 99999999999.5, 1e12,
                     999999999999.5, 1e15, 1e16, 1e17, 1e300, -1e300,
                     math.inf, -math.inf, math.nan]),
    st.floats(min_value=-SMALLEST_NORMAL, max_value=SMALLEST_NORMAL),
    st.integers(-10**17, 10**17).map(float),
    st.floats(min_value=1e11, max_value=1e17),
    st.builds(lambda k, r: k * (1.0 + r), st.integers(-10**11, 10**11),
              st.floats(min_value=-1e-9, max_value=1e-9)),
    st.floats(min_value=-1e3, max_value=1e3),
)


class TestBulkFloats:
    """fmt_floats and json_floats against the scalar fmt_float and
    repr(round_float(v)) forms."""

    @settings(max_examples=500, deadline=None)
    @given(st.lists(bulk_floats, max_size=12))
    def test_matches_scalar_forms(self, values):
        a = np.array(values, dtype=float)
        assert fmt_floats(a).split() == [fmt_float(v) for v in values]
        assert json_floats(a).split() == [repr(round_float(v)) for v in values]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.floats(min_value=1e-4, max_value=1e11, exclude_max=True),
        st.builds(lambda k, r: k * (1.0 + r), st.integers(1, 10**10),
                  st.floats(min_value=-1e-9, max_value=1e-9))), max_size=12))
    def test_positional_range(self, values):
        a = np.array(values, dtype=float)
        assert json_floats(a).split() == [repr(round_float(v)) for v in values]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(bulk_floats, bulk_floats), max_size=6))
    def test_row_templates(self, pairs):
        a = np.array(pairs, dtype=float).reshape(-1, 2)
        assert fmt_floats(a, "%s,%s") == " ".join(
            f"{fmt_float(x)},{fmt_float(y)}" for x, y in pairs)
        assert json_floats(a, "[%s, %s]", ",\n") == ",\n".join(
            f"[{round_float(x)!r}, {round_float(y)!r}]" for x, y in pairs)

    def test_empty(self):
        assert fmt_floats(np.empty(0)) == json_floats(np.empty(0)) == ""
        assert json_floats(np.empty((0, 2)), "%s,%s") == ""

    def test_negative_zero(self):
        a = np.array([-0.0, 0.0, -1.5])
        assert fmt_floats(a) == "0 0 -1.5"
        assert json_floats(a) == "0.0 0.0 -1.5"


class TestCsvCell:
    @pytest.mark.parametrize("text, cell", [
        ("plain", "plain"), ("", ""), ("a b", "a b"), ("a,b", '"a,b"'),
        ('say "x"', '"say ""x"""'), ("a\rb", '"a\rb"'), ("a\nb", '"a\nb"')])
    def test_quoting(self, text, cell):
        assert csv_cell(text) == cell

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(alphabet='a ,"\r\nʃ', max_size=5), min_size=2, max_size=4))
    def test_matches_csv_module(self, cells):
        line = ",".join(map(csv_cell, cells))
        assert next(csv.reader(io.StringIO(line, newline=""))) == cells


class TestWriteLines:
    def test_lf_terminated(self, tmp_path):
        p = tmp_path / "out.txt"
        write_lines(p, ["a,b", "ʃ", ""])
        data = p.read_bytes()
        assert data == "a,b\nʃ\n\n".encode("utf-8")

    def test_one_final_newline_and_no_cr(self, tmp_path):
        p = tmp_path / "out.txt"
        write_lines(p, (f"row {i}" for i in range(3)))
        data = p.read_bytes()
        assert data.endswith(b"2\n") and b"\r" not in data

    def test_no_lines_gives_empty_file(self, tmp_path):
        p = tmp_path / "out.txt"
        write_lines(p, [])
        assert p.read_bytes() == b""

    def test_list_and_generator_give_the_joined_bytes(self, tmp_path):
        lines = ["a,b", "ʃ", "", "two\nlines", "cr\r", "x" * 100_000]
        joined = "".join(f"{line}\n" for line in lines).encode("utf-8")
        for i, given_lines in enumerate((lines, (line for line in lines))):
            p = tmp_path / f"out{i}.txt"
            write_lines(p, given_lines)
            assert p.read_bytes() == joined

    def test_failure_part_way_leaves_no_file(self, tmp_path):
        def fails_after_two_lines():
            yield "one"
            yield "two"
            raise ValueError("no third line")

        p = tmp_path / "out.txt"
        with pytest.raises(ValueError, match="no third line"):
            write_lines(p, fails_after_two_lines())
        assert not p.exists()
        # a line that cannot be encoded fails in the write itself
        with pytest.raises(UnicodeEncodeError):
            write_lines(p, ["one", "lone surrogate \udc80"])
        assert not p.exists()

    def test_failure_keeps_a_symlink(self, tmp_path):
        # as /dev/stdout is one: removing it would remove the link itself
        target = tmp_path / "target.txt"
        target.write_text("old\n", encoding="utf-8")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        with pytest.raises(UnicodeEncodeError):
            write_lines(link, ["one", "\udc80"])
        assert link.is_symlink() and target.is_file()


class TestParseBool:
    @pytest.mark.parametrize("value,expected", [
        ("true", True), ("false", False), ("yes", True), ("no", False),
        ("on", True), ("off", False), ("1", True), ("0", False),
        (" TRUE ", True), ("Off", False),
    ])
    def test_spellings(self, value, expected):
        assert parse_bool(value, "f", 1) is expected

    @pytest.mark.parametrize("value", ["", "of", "flase", "tru", "2", "y",
                                       "maybe", "none"])
    def test_others_rejected(self, value):
        with pytest.raises(ParseError) as exc:
            parse_bool(value, "f.txt", 7)
        assert str(exc.value) == f"f.txt:7: expected a boolean, got {value!r}"


# line 2 holds a quoted cell that runs onto line 3; line 4 is bad
MULTILINE_CELL_FILES = [
    (load_registry,
     'code,name,family,branch,hours\naaa,"Lang\nA",fam,,1.0\nbbb,B,fam,,x\n',
     "bad hours value 'x'"),
    (read_matrix_csv,
     ',aaa,bbb\naaa,"1\n",0.5\nbbb,0.5,x\n',
     "non-numeric matrix entry"),
    (read_coords_csv,
     'id,x,y,ev1,ev2\naaa,0.1,0.2,"0.6\n",0.4\nbbb,x,0.2,0.6,0.4\n',
     "non-numeric coordinate"),
    (load_feature_matrix,
     'lang,f1,f2\naaa,"1\n",0\nbbb,1,x\n',
     "value 'x' for language 'bbb', feature 'f2' is not 0, 1 or ?"),
]


@pytest.mark.parametrize("loader,text,message", MULTILINE_CELL_FILES,
                         ids=[case[0].__name__ for case in MULTILINE_CELL_FILES])
def test_error_names_line_after_multiline_cell(tmp_path, loader, text, message):
    p = tmp_path / "f.csv"
    p.write_bytes(text.encode("utf-8"))
    with pytest.raises(ParseError) as exc:
        loader(p)
    assert exc.value.line == 4
    assert str(exc.value) == f"{p}:4: {message}"


# blank lines before a bad header
BAD_HEADER_FILES = [
    (load_registry, "\ncode,name,family\n", 2),
    (read_coords_csv, "\n\nid,y,x\n", 3),
    (load_feature_matrix, "\nlang\naaa\n", 2),
]


@pytest.mark.parametrize("loader,text,line", BAD_HEADER_FILES,
                         ids=[case[0].__name__ for case in BAD_HEADER_FILES])
def test_header_error_names_header_line(tmp_path, loader, text, line):
    p = tmp_path / "f.csv"
    p.write_bytes(text.encode("utf-8"))
    with pytest.raises(ParseError) as exc:
        loader(p)
    assert exc.value.line == line
