import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from phonosim import cli
from phonosim.errors import ParseError
from phonosim.formats import csv_cell, csv_rows
from phonosim.ipa import default_policy
from phonosim.pca import read_coords_csv
from phonosim.pipeline import (ARTIFACT_NAMES, PipelineConfig, corpus_languages,
                               count_corpora, phoneme_distributions)
from phonosim.selection import STRATEGIES


def run_cli(args, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(stdin_text.encode("utf-8")), encoding="utf-8"))
    return cli.main(args)


def run_python(*args, stdin=b"", **env):
    """`python *args` in a fresh interpreter that imports phonosim from this
    source tree; bytes in and out."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), **env}
    return subprocess.run([sys.executable, *args], input=stdin,
                          capture_output=True, env=env, timeout=60)


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert cli.main([]) == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli.main(["per", "--bogus"]) == 1

    def test_missing_file_is_data_error(self, capsys):
        assert cli.main(["registry", "validate", "/nonexistent.csv"]) == 2
        assert "error" in capsys.readouterr().err

    def test_internal_error_is_3(self, monkeypatch, capsys):
        def boom(path):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "load_registry", boom)
        assert cli.main(["registry", "validate", "x.csv"]) == 3
        assert "internal error" in capsys.readouterr().err

    def test_version(self, capsys):
        assert cli.main(["--version"]) == 0

    def test_module_entry_point(self, toy_dir):
        # `python -m phonosim.cli` runs cli.run(), which exits with main()'s code
        def g2p(rules):
            return run_python(
                "-m", "phonosim.cli", "g2p", "--rules", str(rules),
                "--policy", str(toy_dir / "policy.txt"),
                stdin=(toy_dir / "g2p_input.txt").read_bytes())

        done = g2p(toy_dir / "rules" / "aaa.rules")
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == (toy_dir / "golden" / "cli_g2p.txt").read_bytes()
        done = g2p(toy_dir / "rules" / "missing.rules")
        assert done.returncode == 2
        assert done.stderr.startswith(b"phonosim: error: ")

    @pytest.mark.parametrize("utf8_mode", ["1", "0"])
    @pytest.mark.parametrize("argv,stdin,out,line", [
        (["g2p"], b"mati\nshu\xffna\n", b"m a t i\n", 2),
        (["g2p", "--mode", "passthrough"], b"mati\nshu\xffna\n", b"m a t i\n", 2),
        (["ipa", "tokenize"], b"ma\xffti\n", b"", 1),
    ], ids=["g2p", "g2p-passthrough", "ipa-tokenize"])
    def test_stdin_that_is_not_utf8_names_its_line(self, toy_dir, utf8_mode,
                                                   argv, stdin, out, line):
        if argv[0] == "g2p":
            argv = [*argv, "--rules", str(toy_dir / "rules" / "aaa.rules")]
        done = run_python("-m", "phonosim.cli", *argv, stdin=stdin,
                          PYTHONUTF8=utf8_mode)
        assert (done.returncode, done.stdout, done.stderr) == (
            2, out, f"phonosim: error: <stdin>:{line}: invalid UTF-8 byte 0xff\n".encode())

    def test_package_root_imports_nothing(self):
        done = run_python(
            "-c", "import sys, phonosim; print('phonosim', phonosim.__version__); "
            "print([m for m in sys.modules if m.startswith('phonosim.') or m == 'numpy'])")
        version = run_python("-m", "phonosim.cli", "--version")
        assert (done.returncode, version.returncode) == (0, 0)
        assert done.stdout == version.stdout + b"[]\n"


class TestRegistry:
    def test_validate_bundled_registry(self, cv_registry_path, capsys):
        assert cli.main(["registry", "validate", str(cv_registry_path)]) == 0
        out = capsys.readouterr().out
        assert "languages\t22" in out
        assert "sah" in out
        assert "Turkic:9" in out

    def test_duplicate_code_exit_2(self, tmp_path, capsys):
        p = tmp_path / "reg.csv"
        p.write_text("code,name,family,branch,hours\naz,A,T,,1\naz,B,T,,2\n",
                     encoding="utf-8")
        assert cli.main(["registry", "validate", str(p)]) == 2
        assert "az" in capsys.readouterr().err

    def test_validate_matches_golden(self, toy_dir, capsysbinary):
        assert cli.main(["registry", "validate", str(toy_dir / "registry.csv")]) == 0
        assert capsysbinary.readouterr().out == \
            (toy_dir / "golden" / "cli_registry_validate.txt").read_bytes()

    # toy hours: aaa 2, aab 20, aba 1.5, abb 25; low-resource is strictly below
    @pytest.mark.parametrize("flags,low", [
        ([], "aaa aba"), (["--threshold", "20"], "aaa aba"),
        (["--threshold", "21"], "aaa aab aba")], ids=["default", "20", "21"])
    def test_validate_threshold(self, toy_dir, capsys, flags, low):
        assert cli.main(["registry", "validate", str(toy_dir / "registry.csv")]
                        + flags) == 0
        assert capsys.readouterr() == (
            f"languages\t4\nlow_resource\t{low}\nfamilies\tAlphaic:2 Gammaic:2\n", "")

    @pytest.mark.parametrize("value,shown", [
        ("nan", "nan"), ("-inf", "-inf"), ("-1", "-1.0"), ("0", "0.0"),
        ("inf", "inf"), ("1e400", "inf")])
    def test_validate_threshold_must_be_finite_and_positive(
            self, toy_dir, capsys, value, shown):
        assert cli.main(["registry", "validate", str(toy_dir / "registry.csv"),
                         f"--threshold={value}"]) == 2
        assert capsys.readouterr() == ("", (
            "phonosim: error: low-resource threshold must be finite and "
            f"positive hours, got {shown}\n"))


def read_finite_json(path):
    def no_constant(name):
        raise AssertionError(f"{path} holds {name}")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=no_constant)


class TestIpaAndG2p:
    def test_tokenize_default_policy(self, monkeypatch, capsys):
        code = run_cli(["ipa", "tokenize"], stdin_text="ˈsʲum\ntʲaː\n",
                       monkeypatch=monkeypatch)
        assert code == 0
        assert capsys.readouterr().out == "ʃ u m\ntʲ aː\n"

    def test_tokenize_raw(self, monkeypatch, capsys):
        code = run_cli(["ipa", "tokenize", "--raw"], stdin_text="ˈsʲum\n",
                       monkeypatch=monkeypatch)
        assert code == 0
        assert capsys.readouterr().out == "ˈsʲ u m\n"

    def test_tokenize_error_exit_2(self, monkeypatch, capsys):
        code = run_cli(["ipa", "tokenize"], stdin_text="̃a\n",
                       monkeypatch=monkeypatch)
        assert code == 2

    def test_g2p_over_stdin(self, toy_dir, monkeypatch, capsys):
        code = run_cli(
            ["g2p", "--rules", str(toy_dir / "rules" / "aaa.rules")],
            stdin_text="mati shuna\ntinku\n", monkeypatch=monkeypatch)
        assert code == 0
        assert capsys.readouterr().out == "m a t i ʃ u n a\nt i ŋ k u\n"

    def test_g2p_error_mode_exit_2(self, toy_dir, monkeypatch, capsys):
        code = run_cli(
            ["g2p", "--rules", str(toy_dir / "rules" / "aaa.rules")],
            stdin_text="xyz\n", monkeypatch=monkeypatch)
        assert code == 2

    @pytest.mark.parametrize("rules,text,message", [
        ("a\tx\nA\ty\nss\ts\nß\tz\n", "A ss",
         "2: rule 'A' matches the same text as rule 'a' (first on line 1)"),
        ("ss\ts\nß\tz\n", "ss",
         "2: rule 'ß' matches the same text as rule 'ss' (first on line 1)"),
        ("k\tk\t\t[A]\nk\tq\t\t[a]\na\ta\n", "ka",
         "2: rule 'k' right '[a]' matches the same text as rule 'k' right '[A]' "
         "(first on line 1)"),
        ("# r\na\tx\n\nb\tb\n@case_fold on\nA\ty\n", "ab",
         "6: rule 'A' matches the same text as rule 'a' (first on line 2)"),
        ("a\tx\t\t[b]\nb\tb\na\ty\t\t[b]\n", "ab",
         "3: rule 'a' right '[b]' matches the same text as rule 'a' right '[b]' "
         "(first on line 1)"),
    ], ids=["case", "sharp-s", "context", "lines-between", "raw"])
    def test_g2p_rules_equal_once_folded_exit_2(self, tmp_path, monkeypatch, capsys,
                                                rules, text, message):
        path = tmp_path / "x.rules"
        path.write_text(rules, encoding="utf-8")
        assert run_cli(["g2p", "--rules", str(path)], stdin_text=text + "\n",
                       monkeypatch=monkeypatch) == 2
        assert capsys.readouterr() == ("", f"phonosim: error: {path}:{message}\n")

    @pytest.mark.parametrize("flag,text,message", [
        ("--policy", "strip_diacritics = U+ZZZZ\n", "bad codepoint escape 'U+ZZZZ'"),
        ("--policy", "strip_diacritics = ab\n",
         "expected a single codepoint or U+XXXX escape, got 'ab'"),
        ("--policy", "strip_stress\n", "expected 'key = value'"),
        ("--rules", "a\tb\t]x\n", "stray ']' in context pattern"),
    ], ids=["escape", "two-codepoints", "no-equals", "stray-bracket"])
    def test_g2p_bad_line_exit_2(self, toy_dir, tmp_path, monkeypatch, capsys,
                                 flag, text, message):
        path = tmp_path / "input.txt"
        path.write_text(text, encoding="utf-8")
        argv = ["g2p", "--rules", str(toy_dir / "rules" / "aaa.rules"), flag, str(path)]
        assert run_cli(argv, stdin_text="ab\n", monkeypatch=monkeypatch) == 2
        assert capsys.readouterr() == ("", f"phonosim: error: {path}:1: {message}\n")

    # line 2 fails beside 'mati', which line 1 already converted: on 'maqti',
    # or on a word that is a tie bar with no base, named with the offset in
    # its own IPA
    @pytest.mark.parametrize("argv,stdin,out,message", [
        (["g2p"], "mati shuna\nmaqti mati\n", "m a t i ʃ u n a\n",
         "no rule matches 'q' at offset 2"),
        (["g2p", "--mode", "passthrough"], "mati\nmati \u0361\n", "m a t i\n",
         "word '\u0361': tie bar with no preceding base symbol at offset 0"),
        (["ipa", "tokenize"], "ˈsʲum\n\u0303a\n", "ʃ u m\n",
         "combining mark COMBINING TILDE with no base symbol at offset 0"),
    ], ids=["g2p", "g2p-passthrough", "ipa-tokenize"])
    def test_conversion_error_names_its_stdin_line(self, toy_dir, monkeypatch, capsys,
                                                   argv, stdin, out, message):
        if argv[0] == "g2p":
            argv = [*argv, "--rules", str(toy_dir / "rules" / "aaa.rules")]
        assert run_cli(argv, stdin_text=stdin, monkeypatch=monkeypatch) == 2
        assert capsys.readouterr() == (out, f"phonosim: error: <stdin>:2: {message}\n")

    def test_g2p_skip_mode(self, toy_dir, monkeypatch, capsys):
        code = run_cli(
            ["g2p", "--rules", str(toy_dir / "rules" / "aaa.rules"),
             "--mode", "skip"],
            stdin_text="xaz\n", monkeypatch=monkeypatch)
        assert code == 0
        assert capsys.readouterr().out == "a\n"

    def test_g2p_passthrough_mode(self, toy_dir, monkeypatch, capsys):
        code = run_cli(
            ["g2p", "--rules", str(toy_dir / "rules" / "aaa.rules"),
             "--mode", "passthrough"],
            stdin_text="maqti\n", monkeypatch=monkeypatch)
        assert code == 0
        assert capsys.readouterr() == ("m a q t i\n", "")

    @pytest.mark.parametrize("mode", ["skip", "passthrough"])
    def test_g2p_unmatched_characters_match_golden(self, toy_dir, monkeypatch,
                                                   capsysbinary, mode):
        # passthrough sends a word with an unmatched character down the exact
        # path (its IPA string); skip drops the character between pieces
        text = (toy_dir / "g2p_unmatched_input.txt").read_text(encoding="utf-8")
        assert run_cli(["g2p", "--rules", str(toy_dir / "rules" / "aaa.rules"),
                        "--policy", str(toy_dir / "policy.txt"), "--mode", mode],
                       stdin_text=text, monkeypatch=monkeypatch) == 0
        assert capsysbinary.readouterr().out == \
            (toy_dir / "golden" / f"cli_g2p_{mode}.txt").read_bytes()

    @pytest.mark.parametrize("mode, status, err", [
        ("error", 2, "phonosim: error: <stdin>:5: no rule matches 'q' at offset 1\n"),
        ("passthrough", 0, ""),
    ])
    def test_g2p_exact_path_matches_golden(self, toy_dir, monkeypatch, capsysbinary,
                                           mode, status, err):
        # exact.rules has outputs that join a neighbour (a leading modifier
        # letter or combining mark, a trailing tie bar, Hangul jamo), so
        # their words take the exact path; the last line's 'q' stops mode
        # error after four lines and joins its neighbours under passthrough
        exact = toy_dir / "g2p_exact"
        text = (exact / "input.txt").read_text(encoding="utf-8")
        assert run_cli(["g2p", "--rules", str(exact / "exact.rules"),
                        "--policy", str(toy_dir / "policy.txt"), "--mode", mode],
                       stdin_text=text, monkeypatch=monkeypatch) == status
        assert capsysbinary.readouterr() == (
            (exact / f"{mode}.txt").read_bytes(), err.encode("utf-8"))

    def test_tokenize_matches_golden(self, toy_dir, monkeypatch, capsysbinary):
        text = (toy_dir / "ipa_input.txt").read_text(encoding="utf-8")
        assert run_cli(["ipa", "tokenize", "--policy", str(toy_dir / "policy.txt")],
                       stdin_text=text, monkeypatch=monkeypatch) == 0
        assert capsysbinary.readouterr().out == \
            (toy_dir / "golden" / "cli_ipa_tokenize.txt").read_bytes()

    def test_g2p_matches_golden(self, toy_dir, monkeypatch, capsysbinary):
        text = (toy_dir / "g2p_input.txt").read_text(encoding="utf-8")
        assert run_cli(["g2p", "--rules", str(toy_dir / "rules" / "aaa.rules"),
                        "--policy", str(toy_dir / "policy.txt")],
                       stdin_text=text, monkeypatch=monkeypatch) == 0
        assert capsysbinary.readouterr().out == \
            (toy_dir / "golden" / "cli_g2p.txt").read_bytes()


class TestAnalysisCommands:
    def test_sim_pca_contours_select_chain(self, toy_dir, tmp_path, capsys):
        matrix_csv = tmp_path / "matrix.csv"
        dists_csv = tmp_path / "dists.csv"
        assert cli.main([
            "sim", "matrix",
            "--corpus-dir", str(toy_dir / "corpus"),
            "--rules-dir", str(toy_dir / "rules"),
            "--policy", str(toy_dir / "policy.txt"),
            "--out", str(matrix_csv),
            "--distributions", str(dists_csv),
        ]) == 0
        assert matrix_csv.is_file() and dists_csv.is_file()
        header = matrix_csv.read_text(encoding="utf-8").splitlines()[0]
        assert header == ",aaa,aab,aba,abb"

        coords_csv = tmp_path / "coords.csv"
        assert cli.main(["pca", "--in", str(matrix_csv),
                         "--out", str(coords_csv)]) == 0
        assert coords_csv.read_text(encoding="utf-8").startswith("id,x,y,ev1,ev2")

        contours_json = tmp_path / "contours.json"
        assert cli.main([
            "contours", "--coords", str(coords_csv),
            "--registry", str(toy_dir / "registry.csv"),
            "--resolution", "128", "--out", str(contours_json),
        ]) == 0
        payload = json.loads(contours_json.read_text(encoding="utf-8"))
        assert {obj["family"] for obj in payload} == {"Alphaic", "Gammaic"}

        contours_svg = tmp_path / "contours.svg"
        assert cli.main([
            "contours", "--coords", str(coords_csv),
            "--registry", str(toy_dir / "registry.csv"),
            "--resolution", "128", "--out", str(contours_svg),
        ]) == 0
        assert contours_svg.read_text(encoding="utf-8").startswith("<svg")

        capsys.readouterr()
        assert cli.main([
            "select", "--target", "aaa", "--strategy", "corpus_sim",
            "--registry", str(toy_dir / "registry.csv"),
            "--matrix", str(matrix_csv),
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("target\taaa")
        assert "source\taab" in out

    def test_sim_matrix_matches_golden(self, toy_dir, tmp_path):
        matrix_csv = tmp_path / "matrix.csv"
        dists_csv = tmp_path / "dists.csv"
        assert cli.main([
            "sim", "matrix",
            "--corpus-dir", str(toy_dir / "corpus"),
            "--rules-dir", str(toy_dir / "rules"),
            "--policy", str(toy_dir / "policy.txt"),
            "--out", str(matrix_csv),
            "--distributions", str(dists_csv),
        ]) == 0
        golden = toy_dir / "golden"
        assert matrix_csv.read_bytes() == (golden / "similarity.csv").read_bytes()
        assert dists_csv.read_bytes() == (golden / "distributions.csv").read_bytes()

    @pytest.mark.parametrize("distributions", ["m.csv", "./m.csv", "sub/../m.csv"])
    def test_sim_matrix_out_and_distributions_one_file_exit_2(
            self, tmp_path, monkeypatch, capsys, distributions):
        # checked before any corpus is read: the corpus directory is missing
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        assert cli.main(["sim", "matrix", "--corpus-dir", "nope", "--rules-dir", "nope",
                         "--out", "m.csv", "--distributions", distributions]) == 2
        assert capsys.readouterr() == (
            "", "phonosim: error: --out and --distributions both name m.csv\n")
        assert list(tmp_path.iterdir()) == [tmp_path / "sub"]

    def test_pca_matches_golden(self, toy_dir, tmp_path, capsys):
        # the matrix is read back from its CSV, so the coordinates differ
        # from the pipeline's pca.csv in the last digits
        out = tmp_path / "pca.csv"
        golden = toy_dir / "golden"
        assert cli.main(["pca", "--in", str(golden / "similarity.csv"),
                         "--out", str(out)]) == 0
        assert capsys.readouterr().out == ("explained variance: 0.953200616276 "
                                           "0.0406324967201\n")
        assert out.read_bytes() == (golden / "cli_pca.csv").read_bytes()

    def test_pca_code_with_comma_exit_2(self, tmp_path, capsys):
        # the code would make a 6-field row under the 5-field header
        matrix = tmp_path / "m.csv"
        matrix.write_text(',"a,b",c\n"a,b",1,0.5\nc,0.5,1\n', encoding="utf-8")
        out = tmp_path / "pca.csv"
        assert cli.main(["pca", "--in", str(matrix), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"phonosim: error: {matrix}:2: language code 'a,b' contains a "
            "comma, a double quote or whitespace\n")
        assert not out.exists()

    @pytest.mark.parametrize("text,message", [
        (",aaa,aab\n", ": matrix file needs a header and at least 2 rows"),
        (",aaa,aab,aba\naaa,1,0.5,0.2\naab,0.5,1,0.3\n", ": expected 3 data rows, got 2"),
        (",aaa,aab,aba\naaa,1,0.5,0.2\naba,0.5,1,0.3\naab,0.2,0.3,1\n",
         ":3: row label 'aba' does not match column label 'aab'"),
    ], ids=["header-only", "too-few-rows", "label-mismatch"])
    def test_pca_bad_matrix_exit_2(self, tmp_path, capsys, text, message):
        matrix = tmp_path / "m3.csv"
        matrix.write_text(text, encoding="utf-8")
        out = tmp_path / "pca.csv"
        assert cli.main(["pca", "--in", str(matrix), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"phonosim: error: {matrix}{message}\n")
        assert not out.exists()

    def test_pca_values_too_large_to_center_exit_2(self, tmp_path):
        # the column sums overflow to inf, and numpy's SVD does not return
        # on a centered matrix holding -inf: a fresh interpreter bounds the
        # run at 60 s
        matrix = tmp_path / "m.csv"
        matrix.write_text(",a,b,c\na,1e308,1e308,-1e308\nb,1e308,1e308,1e308\n"
                          "c,-1e308,1e308,1e308\n", encoding="utf-8")
        out = tmp_path / "pca.csv"
        done = run_python("-m", "phonosim.cli", "pca", "--in", str(matrix),
                          "--out", str(out))
        assert (done.returncode, done.stdout, done.stderr) == (
            2, b"", b"phonosim: error: matrix values too large to center in a float\n")
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        # the squared singular values overflow
        ",a,b,c\na,1e200,1e200,-1e200\nb,1e200,1e200,1e200\nc,-1e200,1e200,1e200\n",
        # the squared singular values underflow: the total variance is 0
        ",a,b,c\na,1e-170,0,0\nb,0,1e-170,0\nc,0,0,1e-170\n",
    ], ids=["overflow", "underflow"])
    def test_pca_variance_that_cannot_fit_a_float_exit_2(self, tmp_path, capsys, text):
        matrix = tmp_path / "m.csv"
        matrix.write_text(text, encoding="utf-8")
        out = tmp_path / "pca.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on the way
            assert cli.main(["pca", "--in", str(matrix), "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", "phonosim: error: the matrix variance does not fit in a float\n")
        assert not out.exists()

    @pytest.mark.parametrize("suffix", [".json", ".svg"])
    def test_contours_match_golden(self, toy_dir, tmp_path, capsys, suffix):
        # relative level and R = 300: pass 1 finds the exact maximum, and
        # the last tile is not whole
        out = tmp_path / f"contours{suffix}"
        golden = toy_dir / "golden"
        assert cli.main(["contours", "--coords", str(golden / "cli_pca.csv"),
                         "--registry", str(toy_dir / "registry.csv"),
                         "--relative", "--level", "0.3", "--resolution", "300",
                         "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote 2 family contour set(s) to {out}\n"
        assert out.read_bytes() == (golden / f"cli_contours{suffix}").read_bytes()

    def test_distributions_csv_quotes_phoneme_cells(self, toy_dir, tmp_path, capsys):
        # rule outputs `,` and `"` become phonemes of their own
        rules = tmp_path / "rules"
        shutil.copytree(toy_dir / "rules", rules)
        for name, line, output in (("aaa", "m\tm", ","), ("aab", "b\tb", '"')):
            path = rules / f"{name}.rules"
            text = path.read_text(encoding="utf-8")
            assert f"\n{line}\n" in text
            path.write_text(text.replace(f"\n{line}\n", f"\n{line[0]}\t{output}\n"),
                            encoding="utf-8")
        codes = corpus_languages(toy_dir / "corpus")
        phonemes = phoneme_distributions(
            count_corpora(codes, toy_dir / "corpus", rules, default_policy())).phonemes
        assert {",", '"'} <= set(phonemes)

        out = tmp_path / "out"
        dists_csv = tmp_path / "dists.csv"
        assert cli.main([
            "pipeline", "--corpus-dir", str(toy_dir / "corpus"),
            "--rules-dir", str(rules), "--registry", str(toy_dir / "registry.csv"),
            "--target", "aaa", "--out", str(out),
        ]) == 0
        assert cli.main([
            "sim", "matrix", "--corpus-dir", str(toy_dir / "corpus"),
            "--rules-dir", str(rules), "--out", str(tmp_path / "matrix.csv"),
            "--distributions", str(dists_csv),
        ]) == 0
        for path in (out / "distributions.csv", dists_csv):
            rows = [cells for _, cells in csv_rows(path)]
            assert rows[0] == ["code", *phonemes]
            assert [row[0] for row in rows[1:]] == list(codes)
            assert all(len(row) == len(phonemes) + 1 for row in rows)

    def test_warning_printed_plainly(self, toy_dir, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(toy_dir / "corpus", corpus)
        (corpus / "aab.tsv").write_text("", encoding="utf-8")
        before = warnings.showwarning
        assert cli.main([
            "sim", "matrix", "--corpus-dir", str(corpus),
            "--rules-dir", str(toy_dir / "rules"),
            "--out", str(tmp_path / "m.csv"),
        ]) == 0
        assert warnings.showwarning is before
        assert capsys.readouterr().err == (
            "warning: language 'aab' has an empty corpus; excluded\n")

    def test_sim_matrix_rejects_corpus_name_with_comma(self, toy_dir, tmp_path,
                                                        capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(toy_dir / "corpus", corpus)
        bad = corpus / "x,y.tsv"
        shutil.copy(corpus / "aaa.tsv", bad)
        assert cli.main([
            "sim", "matrix", "--corpus-dir", str(corpus),
            "--rules-dir", str(toy_dir / "rules"),
            "--out", str(tmp_path / "m.csv"),
        ]) == 2
        assert (f"{bad}: language code 'x,y' contains a comma, a double quote "
                "or whitespace" in capsys.readouterr().err)
        assert not (tmp_path / "m.csv").exists()

    def test_rules_declaring_another_language_exit_2(self, toy_dir, tmp_path, capsys):
        rules = tmp_path / "rules"
        shutil.copytree(toy_dir / "rules", rules)
        path = rules / "aaa.rules"
        text = path.read_text(encoding="utf-8")
        assert "\n@language aaa\n" in text
        path.write_text(text.replace("\n@language aaa\n", "\n@language zzz\n"),
                        encoding="utf-8")
        message = f"{path}: @language 'zzz' does not match corpus code 'aaa'"
        assert cli.main([
            "sim", "matrix", "--corpus-dir", str(toy_dir / "corpus"),
            "--rules-dir", str(rules), "--out", str(tmp_path / "m.csv"),
        ]) == 2
        assert f"phonosim: error: {message}\n" in capsys.readouterr().err
        assert cli.main([
            "pipeline", "--corpus-dir", str(toy_dir / "corpus"),
            "--rules-dir", str(rules), "--registry", str(toy_dir / "registry.csv"),
            "--target", "aab", "--out", str(tmp_path / "out"),
        ]) == 2
        assert f"phonosim: error: [g2p] {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()
        assert not (tmp_path / "out").exists()

    def test_select_matrix_with_repeated_code_exit_2(self, toy_dir, tmp_path, capsys):
        matrix = tmp_path / "m.csv"
        matrix.write_text(",aab,aab,aaa\naab,1,1,0.5\naab,1,1,0.5\naaa,0.5,0.5,1\n",
                          encoding="utf-8")
        assert cli.main([
            "select", "--target", "aaa", "--strategy", "corpus_sim", "--k", "2",
            "--registry", str(toy_dir / "registry.csv"), "--matrix", str(matrix),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"phonosim: error: {matrix}:3: duplicate language "
                                "code 'aab' (first seen on line 2)\n")

    def test_select_matrix_code_with_tab_exit_2(self, toy_dir, tmp_path, capsys):
        matrix = tmp_path / "m.csv"
        matrix.write_text(",a\tb,aab\na\tb,1,0.5\naab,0.5,1\n", encoding="utf-8")
        out = tmp_path / "selection.tsv"
        assert cli.main([
            "select", "--target", "aab", "--strategy", "corpus_sim", "--k", "1",
            "--registry", str(toy_dir / "registry.csv"), "--matrix", str(matrix),
            "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err == (
            f"phonosim: error: {matrix}:2: language code 'a\\tb' contains a "
            "comma, a double quote or whitespace\n")
        assert not out.exists()

    def test_contours_non_finite_level_exit_2(self, toy_dir, tmp_path, capsys):
        coords = tmp_path / "coords.csv"
        coords.write_text("id,x,y,ev1,ev2\naaa,0,0,1,0\naab,1,1,1,0\n",
                          encoding="utf-8")
        for level in ("nan", "inf"):
            assert cli.main([
                "contours", "--coords", str(coords),
                "--registry", str(toy_dir / "registry.csv"),
                "--level", level, "--out", str(tmp_path / "c.json"),
            ]) == 2
            assert "finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "c.json").exists()

    def test_contours_bad_suffix_exits_before_any_kde(self, toy_dir, tmp_path,
                                                      capsys, monkeypatch):
        def no_kde(*args, **kwargs):
            raise AssertionError("contours computed before the --out check")

        monkeypatch.setattr(cli, "compute_family_contours", no_kde)
        coords = tmp_path / "coords.csv"
        coords.write_text("id,x,y,ev1,ev2\naaa,0,0,1,0\naab,1,1,1,0\n",
                          encoding="utf-8")
        assert cli.main([
            "contours", "--coords", str(coords),
            "--registry", str(toy_dir / "registry.csv"),
            "--resolution", "2048", "--out", str(tmp_path / "x.txt"),
        ]) == 2
        assert capsys.readouterr().err == \
            "phonosim: error: output must end in .json or .svg\n"
        assert not (tmp_path / "x.txt").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("suffix", [".svg", ".json"])
    def test_contours_non_finite_coordinate_exit_2(self, toy_dir, tmp_path,
                                                    capsys, value, suffix):
        # aba alone in its family: no bandwidth check sees its coordinate
        registry = tmp_path / "registry.csv"
        registry.write_text(
            (toy_dir / "registry.csv").read_text(encoding="utf-8")
            .replace("abb,Deltan,Gammaic", "abb,Deltan,Deltaic"),
            encoding="utf-8")
        coords = tmp_path / "coords.csv"
        coords.write_text("id,x,y,ev1,ev2\naaa,0.1,0.2,1,0\naab,0.3,-0.1,1,0\n"
                          f"aba,{value},0.3,1,0\nabb,-0.2,0.1,1,0\n",
                          encoding="utf-8")
        out = tmp_path / f"contours{suffix}"
        assert cli.main(["contours", "--coords", str(coords),
                         "--registry", str(registry), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"phonosim: error: {coords}:4: non-finite coordinate\n")
        assert not out.exists()

    @pytest.mark.parametrize("points", [
        ["aaa,1e308,0", "aba,-1e308,1"],        # extent spans over the largest float
        ["aaa,0,0", "aba,5e-324,5e-324"],       # scale over the largest float
        ["aaa,0,0", "aba,1.75e308,0"],          # the 5% padding overflows
        ["aaa,1e300,0", "aba,1e300,1"],         # the padding vanishes: zero span
    ])
    def test_contours_svg_that_cannot_be_drawn_exit_2(self, toy_dir, tmp_path,
                                                      capsys, points):
        coords = tmp_path / "coords.csv"
        coords.write_text("id,x,y\n" + "\n".join(points) + "\n", encoding="utf-8")
        out = tmp_path / "contours.svg"
        assert cli.main(["contours", "--coords", str(coords),
                         "--registry", str(toy_dir / "registry.csv"),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err.endswith(
            "phonosim: error: cannot draw: the coordinates are too large or too "
            "close together for a finite plot extent and scale\n")
        assert not out.exists()

    @pytest.mark.parametrize("points,flags,family,bandwidths", [
        ("aaa,0,0\naab,1e-160,2e-160", [], "Alphaic", "2.65856e-161 and 5.30921e-161"),
        ("aaa,0,0\naab,1e-160,2e-160", ["--relative", "--level", "0.5"], "Alphaic",
         "2.65856e-161 and 5.30921e-161"),
        # Alphaic fits and is contoured first; Gammaic's points nearly coincide
        ("aaa,0,0\naab,1,1\naba,0,0\nabb,1e-160,1e-160", [], "Gammaic",
         "2.13159e-161 and 2.13159e-161"),
    ], ids=["absolute", "relative", "second-family"])
    def test_contours_density_that_cannot_fit_a_float_exit_2(
            self, toy_dir, tmp_path, capsys, points, flags, family, bandwidths):
        coords = tmp_path / "coords.csv"
        coords.write_text(f"id,x,y\n{points}\n", encoding="utf-8")
        out = tmp_path / "contours.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow on the way
            assert cli.main(["contours", "--coords", str(coords),
                             "--registry", str(toy_dir / "registry.csv"),
                             "--out", str(out)] + flags) == 2
        assert capsys.readouterr() == ("", (
            f"phonosim: error: family {family!r}: the density of 2 points with "
            f"bandwidths {bandwidths} does not fit in a float\n"))
        assert not out.exists()

    def test_contours_repeated_id_exit_2(self, toy_dir, tmp_path, capsys):
        coords = tmp_path / "coords.csv"
        coords.write_text("id,x,y\naaa,0,0\naab,1,1\naaa,0.5,0.2\n",
                          encoding="utf-8")
        out = tmp_path / "contours.json"
        assert cli.main(["contours", "--coords", str(coords),
                         "--registry", str(toy_dir / "registry.csv"),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"phonosim: error: {coords}:4: duplicate language code 'aaa' "
            "(first seen on line 2)\n")
        assert not out.exists()

    def test_coords_id_with_space_names_its_line(self, tmp_path):
        coords = tmp_path / "coords.csv"
        coords.write_text("id,x,y\naaa,0,0\n\na b,1,1\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            read_coords_csv(coords)
        assert str(exc.value) == (f"{coords}:4: language code 'a b' contains a "
                                  "comma, a double quote or whitespace")

    def test_contours_hours_sum_overflow_exit_2(self, toy_dir, tmp_path, capsys):
        registry = tmp_path / "registry.csv"
        registry.write_text("code,name,family,branch,hours\n"
                            "aaa,A,F,,1e308\naab,B,F,,1e308\n", encoding="utf-8")
        coords = tmp_path / "coords.csv"
        coords.write_text("id,x,y\naaa,0,0\naab,1,1\n", encoding="utf-8")
        out = tmp_path / "contours.json"
        assert cli.main(["contours", "--coords", str(coords),
                         "--registry", str(registry), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("phonosim: error: family 'F': recording "
                                           "hours sum to more than the largest float\n")
        assert not out.exists()

    @pytest.mark.parametrize("hours,points,message", [
        # both hours are positive, but 2 * 1e-320 / 1e300 underflows to 0
        (("1e-320", "1e300"), "aaa,0,0\naab,1,1",
         "recording hours are too far apart to weight"),
        # the spread of each axis overflows
        (("2", "20"), "aaa,1e308,-1e308\naab,-1e308,1e308",
         "bandwidths must be finite and positive"),
    ], ids=["weight-underflow", "huge-coordinates"])
    def test_contours_family_numbers_that_cannot_fit_a_float_exit_2(
            self, tmp_path, capsys, hours, points, message):
        registry = tmp_path / "registry.csv"
        registry.write_text("code,name,family,branch,hours\n"
                            f"aaa,A,F,,{hours[0]}\naab,B,F,,{hours[1]}\n",
                            encoding="utf-8")
        coords = tmp_path / "coords.csv"
        coords.write_text(f"id,x,y\n{points}\n", encoding="utf-8")
        out = tmp_path / "contours.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on the way
            assert cli.main(["contours", "--coords", str(coords),
                             "--registry", str(registry), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"phonosim: error: family 'F': {message}\n")
        assert not out.exists()

    def test_contours_zero_hours_use_unit_weights(self, toy_dir, tmp_path, capsys):
        def contours(name, hours):
            registry = tmp_path / f"{name}.csv"
            registry.write_text(
                (toy_dir / "registry.csv").read_text(encoding="utf-8")
                .replace("Alphaic,West,2\n", f"Alphaic,West,{hours[0]}\n")
                .replace("Alphaic,East,20\n", f"Alphaic,East,{hours[1]}\n"),
                encoding="utf-8")
            out = tmp_path / f"{name}.json"
            assert cli.main(["contours", "--coords", str(toy_dir / "golden" / "pca.csv"),
                             "--registry", str(registry), "--out", str(out)]) == 0
            return out.read_bytes(), capsys.readouterr().err

        zero, warned = contours("zero", (0, 20))
        assert warned == ("warning: family 'Alphaic' has languages with zero "
                          "recorded hours; using unit weights\n")
        assert contours("equal", (7, 7)) == (zero, "")

    def test_contours_level_above_every_peak(self, toy_dir, tmp_path, capsys):
        out = tmp_path / "contours.json"
        assert cli.main(["contours", "--coords", str(toy_dir / "golden" / "pca.csv"),
                         "--registry", str(toy_dir / "registry.csv"),
                         "--level", "1e9", "--out", str(out)]) == 0
        assert capsys.readouterr() == (
            f"wrote 2 family contour set(s) to {out}\n",
            "warning: maximum density 60.6532 is below contour level 1e+09 for "
            "family 'Alphaic'\n"
            "warning: maximum density 87.8769 is below contour level 1e+09 for "
            "family 'Gammaic'\n")
        assert [(cs["family"], cs["below_level"], cs["polylines"])
                for cs in json.loads(out.read_text(encoding="utf-8"))] == [
            ("Alphaic", True, []), ("Gammaic", True, [])]

    def test_contours_relative_level_whose_cut_overflows(self, toy_dir, tmp_path,
                                                         capsys):
        # 1e308 passes the level check; its product with a peak does not
        out = tmp_path / "contours.json"
        assert cli.main(["contours", "--coords", str(toy_dir / "golden" / "cli_pca.csv"),
                         "--registry", str(toy_dir / "registry.csv"), "--relative",
                         "--level", "1e308", "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", "phonosim: error: family 'Alphaic': contour level 1e+308 times "
                "the grid maximum 60.6532 overflows\n")
        assert list(tmp_path.iterdir()) == []

    def test_contours_relative_level_whose_cut_underflows(self, toy_dir, tmp_path,
                                                          capsys):
        # 1e-30 passes the level check; Alphaic's peak is near 3e-300, and
        # their product rounds to zero
        coords = tmp_path / "coords.csv"
        coords.write_text("id,x,y\naaa,1e150,0\naab,-1e150,3e149\naba,0,0\n"
                          "abb,1,1\n", encoding="utf-8")
        out = tmp_path / "contours.json"
        assert cli.main(["contours", "--coords", str(coords),
                         "--registry", str(toy_dir / "registry.csv"), "--relative",
                         "--level", "1e-30", "--resolution", "16",
                         "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", "phonosim: error: family 'Alphaic': contour level 1e-30 times "
                "the grid maximum 3.21525e-300 underflows\n")
        assert list(tmp_path.iterdir()) == [coords]

    def test_contours_resolution_below_16_exit_2(self, toy_dir, tmp_path, capsys):
        out = tmp_path / "contours.json"
        assert cli.main(["contours", "--coords", str(toy_dir / "golden" / "pca.csv"),
                         "--registry", str(toy_dir / "registry.csv"),
                         "--resolution", "8", "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", "phonosim: error: resolution must be between 16 and 16384\n")
        assert not out.exists()

    @pytest.mark.parametrize("scale", ["1e150", "1e200", "1e300"])
    def test_contours_spread_whose_squares_overflow(self, toy_dir, tmp_path,
                                                    capsys, scale):
        # the squared spread overflows from about 1e154 on, but the
        # bandwidth fits: 1e200 and 1e300 warn as 1e150 does
        coords = tmp_path / "coords.csv"
        coords.write_text(f"id,x,y\naaa,{scale},0\naab,1.5{scale[1:]},1\n",
                          encoding="utf-8")
        out = tmp_path / "contours.json"
        assert cli.main(["contours", "--coords", str(coords),
                         "--registry", str(toy_dir / "registry.csv"),
                         "--out", str(out)]) == 0
        assert capsys.readouterr() == (
            f"wrote 1 family contour set(s) to {out}\n",
            f"warning: maximum density 4.11179e-{scale[2:]} is below contour "
            "level 0.1 for family 'Alphaic'\n")
        assert [(cs["family"], cs["below_level"], cs["polylines"])
                for cs in read_finite_json(out)] == [("Alphaic", True, [])]

    def test_contours_spread_whose_squares_overflow_relative(self, toy_dir,
                                                             tmp_path, capsys):
        coords = tmp_path / "coords.csv"
        coords.write_text("id,x,y\naaa,1e300,0\naab,1.5e300,1\n", encoding="utf-8")
        out = tmp_path / "contours.json"
        assert cli.main(["contours", "--coords", str(coords),
                         "--registry", str(toy_dir / "registry.csv"),
                         "--relative", "--level", "0.5", "--out", str(out)]) == 0
        assert capsys.readouterr() == (f"wrote 1 family contour set(s) to {out}\n", "")
        [contours] = read_finite_json(out)
        assert (contours["family"], len(contours["polylines"])) == ("Alphaic", 1)

    def test_contours_zero_spread_axis_uses_fallback_bandwidth(self, toy_dir,
                                                               tmp_path, capsys):
        coords = tmp_path / "coords.csv"
        coords.write_text("id,x,y\naaa,0,0\naab,0,2\n", encoding="utf-8")
        out = tmp_path / "contours.json"
        assert cli.main(["contours", "--coords", str(coords),
                         "--registry", str(toy_dir / "registry.csv"),
                         "--out", str(out)]) == 0
        assert capsys.readouterr() == (f"wrote 1 family contour set(s) to {out}\n", "")
        [contours] = read_finite_json(out)
        assert contours["family"] == "Alphaic" and contours["polylines"]

    def test_contours_bad_extension(self, toy_dir, tmp_path):
        coords = tmp_path / "coords.csv"
        coords.write_text("id,x,y,ev1,ev2\naaa,0,0,1,0\naab,1,1,1,0\n",
                          encoding="utf-8")
        assert cli.main([
            "contours", "--coords", str(coords),
            "--registry", str(toy_dir / "registry.csv"),
            "--out", str(tmp_path / "contours.txt"),
        ]) == 2

    def test_select_family(self, toy_dir, capsys):
        assert cli.main([
            "select", "--target", "aaa", "--strategy", "family",
            "--registry", str(toy_dir / "registry.csv"),
        ]) == 0
        out = capsys.readouterr().out
        assert "source\taab" in out and "aba" not in out

    def test_select_out_file_matches_stdout(self, toy_dir, tmp_path, capsys):
        args = ["select", "--target", "aaa", "--strategy", "corpus_sim",
                "--registry", str(toy_dir / "registry.csv"),
                "--matrix", str(toy_dir / "golden" / "similarity.csv")]
        capsys.readouterr()
        assert cli.main(args) == 0
        golden = (toy_dir / "golden" / "selection.tsv").read_bytes()
        assert capsys.readouterr().out.encode("utf-8") == golden
        out = tmp_path / "sel.tsv"
        assert cli.main(args + ["--out", str(out)]) == 0
        assert out.read_bytes() == golden

    @pytest.mark.parametrize("flags,out,err", [
        (["--strategy", "monolingual"], "target\taaa\nstrategy\tmonolingual\nk\t0\n", ""),
        (["--strategy", "all"], "target\taaa\nstrategy\tall\nk\t3\n"
         "source\taab\nsource\taba\nsource\tabb\n", ""),
        (["--strategy", "corpus_sim", "--k", "10", "--matrix", "similarity.csv"],
         None, "warning: k=10 exceeds the 3 available languages; truncated\n"),
    ], ids=["monolingual", "all", "k-truncated"])
    def test_select_strategies(self, toy_dir, capsys, flags, out, err):
        golden = toy_dir / "golden"
        flags = [str(golden / f) if f.endswith(".csv") else f for f in flags]
        assert cli.main(["select", "--target", "aaa", *flags,
                         "--registry", str(toy_dir / "registry.csv")]) == 0
        if out is None:  # all three sources, as in the golden selection
            out = (golden / "selection.tsv").read_text(encoding="utf-8")
        assert capsys.readouterr() == (out, err)

    def test_select_k_below_1_exit_2(self, toy_dir, capsys):
        assert cli.main([
            "select", "--target", "aaa", "--strategy", "corpus_sim", "--k", "0",
            "--registry", str(toy_dir / "registry.csv"),
            "--matrix", str(toy_dir / "golden" / "similarity.csv"),
        ]) == 2
        assert capsys.readouterr() == ("", "phonosim: error: k must be at least 1\n")

    @pytest.mark.parametrize("strategy", ["monolingual", "family", "all"])
    def test_select_k_below_1_exit_2_without_a_matrix(self, toy_dir, capsys,
                                                      strategy):
        assert cli.main([
            "select", "--target", "aaa", "--strategy", strategy, "--k", "0",
            "--registry", str(toy_dir / "registry.csv"),
        ]) == 2
        assert capsys.readouterr() == ("", "phonosim: error: k must be at least 1\n")

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_select_target_missing_from_the_matrix_exit_2(self, toy_dir, tmp_path,
                                                          capsys, strategy):
        # aac is a registry language with no row in the matrix
        registry = tmp_path / "registry.csv"
        registry.write_text((toy_dir / "registry.csv").read_text(encoding="utf-8")
                            + "aac,Extran,Alphaic,West,5\n", encoding="utf-8")
        out = tmp_path / "sel.tsv"
        assert cli.main([
            "select", "--target", "aac", "--strategy", strategy,
            "--registry", str(registry),
            "--matrix", str(toy_dir / "golden" / "similarity.csv"), "--out", str(out),
        ]) == 2
        assert capsys.readouterr() == (
            "", "phonosim: error: unknown language code 'aac'\n")
        assert not out.exists()

    def test_select_corpus_sim_without_matrix(self, toy_dir, capsys):
        assert cli.main([
            "select", "--target", "aaa", "--strategy", "corpus_sim",
            "--registry", str(toy_dir / "registry.csv"),
        ]) == 2

    def test_typology(self, tmp_path, capsys):
        features = tmp_path / "features.csv"
        features.write_text(
            "lang,f1,f2,f3\n"
            "aaa,1,0,1\n"
            "aab,1,0,?\n"
            "aba,0,1,0\n"
            "abb,0,1,1\n",
            encoding="utf-8")
        out = tmp_path / "typo.csv"
        assert cli.main(["typology", "--features", str(features),
                         "--impute", "column_mode", "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").startswith("id,x,y,ev1,ev2")

    def test_typology_quotes_family_cells(self, tmp_path):
        features = tmp_path / "features.csv"
        features.write_text("lang,f1,f2\naaa,1,0\naab,0,1\n", encoding="utf-8")
        registry = tmp_path / "registry.csv"
        registry.write_text('code,name,family,branch,hours\n'
                            'aaa,A,"Indo,European",,1\naab,B,"say ""b""",,2\n',
                            encoding="utf-8")
        out = tmp_path / "typo.csv"
        assert cli.main(["typology", "--features", str(features), "--registry",
                         str(registry), "--out", str(out)]) == 0
        rows = [cells for _, cells in csv_rows(out)]
        assert [len(cells) for cells in rows] == [6, 6, 6]
        assert [cells[5] for cells in rows] == ["family", "Indo,European", 'say "b"']
        assert read_coords_csv(out)[0] == ("aaa", "aab")

    def test_typology_matches_golden(self, toy_dir, tmp_path, capsys):
        out = tmp_path / "typology.csv"
        assert cli.main(["typology", "--features", str(toy_dir / "features.csv"),
                         "--impute", "column_mode",
                         "--registry", str(toy_dir / "registry.csv"),
                         "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            "projected 4 languages over 5 features; explained variance "
            "0.69607896193 0.266146296758\n")
        assert out.read_bytes() == (toy_dir / "golden" / "cli_typology.csv").read_bytes()

    def test_typology_id_with_comma_exit_2(self, tmp_path, capsys):
        features = tmp_path / "features.csv"
        features.write_text('lang,f1\n"a,a",1\nb,0\n', encoding="utf-8")
        assert cli.main(["typology", "--features", str(features),
                         "--out", str(tmp_path / "x.csv")]) == 2
        assert "features.csv:2: language code 'a,a'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("header,message", [
        ("lang,f1,f1,", "duplicate feature id 'f1' (first seen in column 2)"),
        ("lang,f1,f2,", "empty feature id in column 4"),
        ("lang,f1, ,f3", "empty feature id in column 3"),
    ], ids=["repeat", "empty-last", "blank"])
    def test_typology_bad_feature_id_exit_2(self, tmp_path, capsys, header, message):
        features = tmp_path / "features.csv"
        features.write_text(header + "\naaa,1,0,1\naab,0,1,1\naba,1,1,0\n",
                            encoding="utf-8")
        assert cli.main(["typology", "--features", str(features),
                         "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr() == ("", f"phonosim: error: {features}:1: {message}\n")
        assert not (tmp_path / "x.csv").exists()

    def test_typology_header_only_exit_2(self, tmp_path, capsys):
        features = tmp_path / "features.csv"
        features.write_text("lang,f1\n", encoding="utf-8")
        assert cli.main(["typology", "--features", str(features),
                         "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr() == (
            "", f"phonosim: error: {features}: feature matrix needs a header and "
            "at least one row\n")
        assert not (tmp_path / "x.csv").exists()

    def test_typology_none_with_missing_exit_2(self, tmp_path):
        features = tmp_path / "features.csv"
        features.write_text("lang,f1,f2\naaa,1,?\naab,0,1\n", encoding="utf-8")
        assert cli.main(["typology", "--features", str(features),
                         "--impute", "none",
                         "--out", str(tmp_path / "x.csv")]) == 2


# a code cell no input table may hold, on line 3 after the code `aab` on
# line 2, and the message naming it
BAD_CODE_CELLS = [
    ("empty", "", "empty language code"),
    ("comma", "a,b", "language code 'a,b' contains a comma, a double quote "
                     "or whitespace"),
    ("quote", 'a"b', "language code 'a\"b' contains a comma, a double quote "
                     "or whitespace"),
    ("space", "a b", "language code 'a b' contains a comma, a double quote "
                     "or whitespace"),
    ("tab", "a\tb", "language code 'a\\tb' contains a comma, a double quote "
                    "or whitespace"),
    ("U+0001", "a\x01b", "language code 'a\\x01b' contains a control character"),
    ("repeat", "aab", "duplicate language code 'aab' (first seen on line 2)"),
]

# each reader of a code column: its command, given the table's path and an
# output path, and the table with `{}` for the line-3 code cell
CODE_COLUMN_COMMANDS = {
    "registry validate": (lambda table, out, toy: ["registry", "validate", table],
                          "code,name,family,branch,hours\naab,B,F,,1\n{},C,F,,2\n"),
    "pca --in": (lambda table, out, toy: ["pca", "--in", table, "--out", out],
                 ",aab,{}\naab,1,0.5\n{},0.5,1\n"),
    "contours --coords": (lambda table, out, toy: [
                              "contours", "--coords", table, "--out", out + ".json",
                              "--registry", str(toy / "registry.csv")],
                          "id,x,y\naab,0,0\n{},1,1\n"),
    "typology --features": (lambda table, out, toy: [
                                "typology", "--features", table, "--out", out],
                            "lang,f1,f2\naab,1,0\n{},0,1\n"),
}


@pytest.mark.parametrize("command", CODE_COLUMN_COMMANDS)
@pytest.mark.parametrize("cell,message", [case[1:] for case in BAD_CODE_CELLS],
                         ids=[case[0] for case in BAD_CODE_CELLS])
def test_bad_code_cell_exit_2(toy_dir, tmp_path, capsys, command, cell, message):
    argv, template = CODE_COLUMN_COMMANDS[command]
    table = tmp_path / "table.csv"
    table.write_text(template.replace("{}", csv_cell(cell)), encoding="utf-8")
    assert cli.main(argv(str(table), str(tmp_path / "out"), toy_dir)) == 2
    assert capsys.readouterr() == ("", f"phonosim: error: {table}:3: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]


# each reader of a text file: its command, given the file and the toy data,
# and the file's bytes with one that is not UTF-8, and the line and the byte
# that the message names; for `per --ref` the byte lies past the first 8 KB,
# the most a text file decodes at once
NOT_UTF8 = {
    "registry validate": (lambda path, toy: ["registry", "validate", path],
                          b"code,name,family,branch,hours\naab,B\xffn,F,,1\n", 2, "ff"),
    "per --ref": (lambda path, toy: ["per", "--ref", path,
                                     "--hyp", str(toy / "g2p_input.txt")],
                  b"a b\n" * 3000 + b"c \xfe d\n", 3001, "fe"),
    "g2p --policy": (lambda path, toy: ["g2p", "--rules", str(toy / "rules" / "aaa.rules"),
                                        "--policy", path],
                     b"# policy\nstrip_stress = true\n\xc3\n", 3, "c3"),
    "pipeline --config": (lambda path, toy: ["pipeline", "--config", path],
                          b"[pipeline]\ntarget = \xe2\x28\n", 2, "e2"),
}


@pytest.mark.parametrize("command", NOT_UTF8)
def test_input_that_is_not_utf8_names_its_line(toy_dir, tmp_path, capsys, command):
    argv, data, line, byte = NOT_UTF8[command]
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    assert cli.main(argv(str(path), toy_dir)) == 2
    assert capsys.readouterr() == (
        "", f"phonosim: error: {path}:{line}: invalid UTF-8 byte 0x{byte}\n")


TOY_PIPELINE = ["pipeline", "--corpus-dir", "{toy}/corpus", "--rules-dir", "{toy}/rules",
                "--registry", "{toy}/registry.csv", "--target", "aaa", "--out", "out"]

# each toy language in its own family: no family gets a KDE grid, so only
# the check where a flag enters can reject it
LONE_FAMILIES = ("code,name,family,branch,hours\n"
                 "aaa,A,Fa,,1\naab,B,Fb,,1\naba,C,Fc,,1\nabb,D,Fd,,1\n")
LONE_CONTOURS = ["contours", "--coords", "{toy}/golden/cli_pca.csv",
                 "--registry", "reg.csv", "--out", "out.json"]

# bad input on command paths that only library tests used to reach: the
# files written into the working directory ({toy} is the toy data), the
# arguments, stdin, and the message of the exit 2
COMMAND_PATH_ERRORS = {
    "contours-weight-overflow": (
        {"reg.csv": "code,name,family,branch,hours\n"
                    "aaa,A,Alphaic,,1.7e308\naab,B,Alphaic,,1e-300\n",
         "coords.csv": "id,x,y\naaa,0,0\naab,1,1\n"},
        ["contours", "--coords", "coords.csv", "--registry", "reg.csv",
         "--out", "out.json"], "",
        "family 'Alphaic': recording hours times the number of languages "
        "exceed the largest float"),
    "contours-resolution-16385": (
        {"coords.csv": "id,x,y\naaa,0,0\naab,1,1\n"},
        ["contours", "--coords", "coords.csv", "--registry", "{toy}/registry.csv",
         "--resolution", "16385", "--out", "out.json"], "",
        "resolution must be between 16 and 16384"),
    "contours-lone-families-resolution-5": (
        {"reg.csv": LONE_FAMILIES}, LONE_CONTOURS + ["--resolution", "5"], "",
        "resolution must be between 16 and 16384"),
    "contours-lone-families-level-nan": (
        {"reg.csv": LONE_FAMILIES}, LONE_CONTOURS + ["--level", "nan"], "",
        "setting 'level' must be finite and positive, got nan"),
    "contours-lone-families-level--1": (
        {"reg.csv": LONE_FAMILIES}, LONE_CONTOURS + ["--level", "-1"], "",
        "setting 'level' must be finite and positive, got -1.0"),
    "contours-lone-families-level-inf-relative": (
        {"reg.csv": LONE_FAMILIES},
        LONE_CONTOURS + ["--level", "inf", "--relative"], "",
        "setting 'level' must be finite and positive, got inf"),
    "typology-one-language": (
        {"features.csv": "lang,f1,f2\naaa,1,0\n"},
        ["typology", "--features", "features.csv", "--out", "out.csv"], "",
        "PCA needs at least 2 rows"),
    "typology-one-feature": (
        {"features.csv": "lang,f1\naaa,1\naab,0\naba,1\n"},
        ["typology", "--features", "features.csv", "--out", "out.csv"], "",
        "cannot extract 2 components from 1 columns"),
    "sim-matrix-one-corpus": (
        {"corpus/aaa.tsv": "clips/aaa_0001.mp3\tmati shuna kicha\n"},
        ["sim", "matrix", "--corpus-dir", "corpus", "--rules-dir", "{toy}/rules",
         "--out", "out.csv"], "",
        "need at least 2 languages with nonempty corpora"),
    "select-unknown-target": (
        {}, ["select", "--target", "zzz", "--strategy", "family",
             "--registry", "{toy}/registry.csv", "--out", "out.tsv"], "",
        "unknown language code 'zzz'"),
    "tokenize-dangling-tie": (
        {}, ["ipa", "tokenize"], "a\u0361\n",
        "<stdin>:1: tie bar not followed by a base symbol at offset 2"),
    "tokenize-unknown-policy-key": (
        {"policy.txt": "strip_tone = true\n"},
        ["ipa", "tokenize", "--policy", "policy.txt"], "a\n",
        "policy.txt:1: unknown policy key 'strip_tone'"),
    "tokenize-bad-merge-line": (
        {"policy.txt": "[merge]\nab\n"},
        ["ipa", "tokenize", "--policy", "policy.txt"], "a\n",
        "policy.txt:2: merge lines must be 'source<TAB>target'"),
    "pipeline-resolution-8": (
        {}, TOY_PIPELINE + ["--resolution", "8"], "",
        "resolution must be between 16 and 16384"),
    "pipeline-resolution-16385": (
        {}, TOY_PIPELINE + ["--resolution", "16385"], "",
        "resolution must be between 16 and 16384"),
    "pipeline-config-resolution-16385": (
        {"pipeline.ini": "[pipeline]\ncorpus_dir = {toy}/corpus\n"
                         "rules_dir = {toy}/rules\nregistry = {toy}/registry.csv\n"
                         "target = aaa\nresolution = 16385\nout = out\n"},
        ["pipeline", "--config", "pipeline.ini"], "",
        "resolution must be between 16 and 16384 (in pipeline.ini)"),
}


@pytest.mark.parametrize("case", COMMAND_PATH_ERRORS)
def test_command_path_error_exit_2(toy_dir, tmp_path, monkeypatch, capsys, case):
    files, argv, stdin_text, message = COMMAND_PATH_ERRORS[case]
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text.replace("{toy}", str(toy_dir)),
                                     encoding="utf-8")

    def no_grid(*args):
        raise AssertionError("a KDE grid was allocated")

    monkeypatch.setattr("phonosim.density._centers", no_grid)
    before = sorted(tmp_path.rglob("*"))
    argv = [arg.replace("{toy}", str(toy_dir)) for arg in argv]
    assert run_cli(argv, stdin_text=stdin_text, monkeypatch=monkeypatch) == 2
    assert capsys.readouterr() == ("", f"phonosim: error: {message}\n")
    assert sorted(tmp_path.rglob("*")) == before


class TestPerCommand:
    def test_report(self, tmp_path, capsys):
        ref = tmp_path / "ref.txt"
        hyp = tmp_path / "hyp.txt"
        ref.write_text("a b c d\ne f\n", encoding="utf-8")
        hyp.write_text("a x c d\ne f\n", encoding="utf-8")
        assert cli.main(["per", "--ref", str(ref), "--hyp", str(hyp)]) == 0
        out = capsys.readouterr().out
        assert "substitutions\t1" in out
        assert "reference_length\t6" in out
        assert "per_percent\t16.6666666667" in out

    def test_line_count_mismatch(self, tmp_path, capsys):
        ref = tmp_path / "ref.txt"
        hyp = tmp_path / "hyp.txt"
        ref.write_text("a b\n", encoding="utf-8")
        hyp.write_text("a b\nc d\n", encoding="utf-8")
        assert cli.main(["per", "--ref", str(ref), "--hyp", str(hyp)]) == 2

    def test_multicodepoint_segments(self, tmp_path, capsys):
        ref = tmp_path / "ref.txt"
        hyp = tmp_path / "hyp.txt"
        ref.write_text("t͡ʃ a\n", encoding="utf-8")
        hyp.write_text("k a\n", encoding="utf-8")
        assert cli.main(["per", "--ref", str(ref), "--hyp", str(hyp)]) == 0
        assert "per_percent\t50" in capsys.readouterr().out

    def test_lines_end_at_lf_and_a_lone_cr_separates_segments(self, tmp_path, capsys):
        ref = tmp_path / "ref.txt"
        hyp = tmp_path / "hyp.txt"
        ref.write_bytes(b"a b\rc d\r\ne f\r\n")
        hyp.write_bytes(b"a b c d\ne x\n")
        assert cli.main(["per", "--ref", str(ref), "--hyp", str(hyp)]) == 0
        assert capsys.readouterr().out == (
            "substitutions\t1\ninsertions\t0\ndeletions\t0\n"
            "reference_length\t6\nper_percent\t16.6666666667\n")

    def test_each_distinct_segment_is_one_object(self, tmp_path):
        ref = tmp_path / "ref.txt"
        hyp = tmp_path / "hyp.txt"
        ref.write_text("t͡ʃ aː ab\nab kʷ t͡ʃ\n", encoding="utf-8")
        hyp.write_text("aː t͡ʃ\nkʷ ab ab cd\n", encoding="utf-8")
        segments = [s for path in (ref, hyp) for line in cli._read_sequences(path)
                    for s in line]
        assert len(segments) == 12
        assert len({id(s) for s in segments}) == len(set(segments)) == 5


class TestPipelineCommand:
    def test_flags_only(self, toy_dir, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert cli.main([
            "pipeline",
            "--corpus-dir", str(toy_dir / "corpus"),
            "--rules-dir", str(toy_dir / "rules"),
            "--registry", str(toy_dir / "registry.csv"),
            "--policy", str(toy_dir / "policy.txt"),
            "--target", "aaa",
            "--out", str(out_dir),
        ]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed == [f"wrote {(out_dir / name).absolute()}"
                           for name in sorted(ARTIFACT_NAMES)]
        for name in ARTIFACT_NAMES:
            assert ((out_dir / name).read_bytes()
                    == (toy_dir / "golden" / name).read_bytes()), name

    @pytest.mark.parametrize("key, value", [
        ("k", "three"), ("resolution", "big"), ("level", "nanx"),
        ("level", "nan"), ("level", "inf")])
    def test_bad_number_in_config_exit_2(self, toy_dir, tmp_path, capsys,
                                         key, value):
        config = tmp_path / "pipeline.ini"
        config.write_text(
            "[pipeline]\n"
            f"corpus_dir = {toy_dir / 'corpus'}\n"
            f"rules_dir = {toy_dir / 'rules'}\n"
            f"registry = {toy_dir / 'registry.csv'}\n"
            "target = aaa\n"
            f"{key} = {value}\n"
            "out = out\n",
            encoding="utf-8")
        assert cli.main(["pipeline", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"error: setting '{key}' must be" in err
        assert value in err
        assert not (tmp_path / "out").exists()

    def test_nan_hours_exit_2(self, toy_dir, tmp_path, capsys):
        registry = tmp_path / "registry.csv"
        registry.write_text(
            (toy_dir / "registry.csv").read_text(encoding="utf-8")
            .replace("aab,Betan,Alphaic,East,20", "aab,Betan,Alphaic,East,nan"),
            encoding="utf-8")
        assert cli.main([
            "pipeline",
            "--corpus-dir", str(toy_dir / "corpus"),
            "--rules-dir", str(toy_dir / "rules"),
            "--registry", str(registry),
            "--target", "aaa",
            "--out", str(tmp_path / "out"),
        ]) == 2
        err = capsys.readouterr().err
        assert "[registry]" in err and ":3:" in err
        assert not (tmp_path / "out").exists()

    def test_relative_config_value_parsed_strictly(self, toy_dir, tmp_path, capsys):
        def config(name, relative):
            path = tmp_path / f"{name}.ini"
            path.write_text(
                "[pipeline]\n"
                f"corpus_dir = {toy_dir / 'corpus'}\n"
                f"rules_dir = {toy_dir / 'rules'}\n"
                f"registry = {toy_dir / 'registry.csv'}\n"
                "target = aaa\n"
                f"relative = {relative}\n"
                f"out = {name}\n",
                encoding="utf-8")
            return str(path)

        typo = config("typo", "tru")
        assert cli.main(["pipeline", "--config", typo]) == 2
        assert (f"error: setting 'relative' must be a boolean, got 'tru' (in {typo})"
                in capsys.readouterr().err)
        # the flag overrides the file's value and turns the option on
        assert cli.main(["pipeline", "--config", typo, "--relative"]) == 0
        assert cli.main(["pipeline", "--config", config("on", "Yes")]) == 0
        assert cli.main(["pipeline", "--config", config("off", "false")]) == 0
        contours = {name: (tmp_path / name / "contours.json").read_bytes()
                    for name in ("typo", "on", "off")}
        assert contours["typo"] == contours["on"] != contours["off"]

    def test_config_errors_name_their_source(self, toy_dir, tmp_path, capsys):
        config = tmp_path / "pipeline.ini"
        config.write_text(
            "[pipeline]\n"
            f"corpus_dir = {toy_dir / 'corpus'}\n"
            f"rules_dir = {toy_dir / 'rules'}\n"
            f"registry = {toy_dir / 'registry.csv'}\n"
            "target = aaa\n"
            "k = three\n"
            "out = out\n",
            encoding="utf-8")
        # a bad value in the file names the file
        assert cli.main(["pipeline", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            "phonosim: error: setting 'k' must be an integer, got 'three' "
            f"(in {config})\n")
        # a bad flag does not blame the file, and a flag replaces a bad
        # file value
        for flags, message in ((["--k", "0"], "k must be at least 1"),
                               (["--k", "2", "--level", "inf"],
                                "setting 'level' must be finite and positive, "
                                "got inf")):
            assert cli.main(["pipeline", "--config", str(config), *flags]) == 2
            assert capsys.readouterr().err == f"phonosim: error: {message}\n"
        assert cli.main(["pipeline", "--config", str(config), "--k", "2"]) == 0
        assert (tmp_path / "out" / "contours.json").exists()
        # the same for a strategy that is not one of STRATEGIES
        config.write_text(config.read_text(encoding="utf-8").replace(
            "k = three\n", "strategy = nearest\n"), encoding="utf-8")
        assert cli.main(["pipeline", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            "phonosim: error: unknown selection strategy 'nearest' "
            f"(in {config})\n")
        assert cli.main(["pipeline", "--config", str(config),
                         "--strategy", "family"]) == 0

    def test_missing_required_flags(self, capsys):
        assert cli.main(["pipeline", "--target", "aaa"]) == 2

    def test_flags_and_config_give_equal_settings(self, toy_dir, tmp_path,
                                                  monkeypatch):
        toy = toy_dir.absolute()
        settings = {
            "corpus_dir": toy / "corpus", "rules_dir": toy / "rules",
            "registry": toy / "registry.csv", "policy": toy / "policy.txt",
            "target": "aaa", "strategy": "family", "k": 2, "level": 0.25,
            "relative": True, "resolution": 64, "out": tmp_path / "out",
        }
        config = tmp_path / "pipeline.ini"
        config.write_text("[pipeline]\n" + "".join(
            f"{key} = {value}\n" for key, value in settings.items()),
            encoding="utf-8")
        flags = []
        for key, value in settings.items():
            flags.append("--" + key.replace("_", "-"))
            if key != "relative":
                flags.append(str(value))
        seen = []
        monkeypatch.setattr(cli, "run_pipeline", lambda cfg: seen.append(cfg) or {})
        assert cli.main(["pipeline", "--config", str(config)]) == 0
        assert cli.main(["pipeline", *flags]) == 0
        assert seen == [PipelineConfig(**settings)] * 2

    @pytest.mark.parametrize("form", ["flags", "config"])
    def test_every_missing_setting_named(self, toy_dir, tmp_path, capsys, form):
        if form == "flags":
            args = ["pipeline", "--rules-dir", str(toy_dir / "rules"), "--k", "2"]
        else:
            config = tmp_path / "pipeline.ini"
            config.write_text(f"[pipeline]\nrules_dir = {toy_dir / 'rules'}\n"
                              "k = 2\n", encoding="utf-8")
            args = ["pipeline", "--config", str(config)]
        assert cli.main(args) == 2
        assert capsys.readouterr().err == ("phonosim: error: missing required "
                                           "settings: corpus_dir, registry, out, "
                                           "target\n")

    def test_flag_dests_are_config_fields(self):
        # one name per setting: INI key, flag dest and PipelineConfig field
        args = vars(cli.build_parser().parse_args(["pipeline"]))
        assert (set(args) - {"command", "config", "func"}
                == {f.name for f in dataclasses.fields(PipelineConfig)})

    def test_corpus_not_utf8_names_stage_file_and_line(self, toy_dir, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(toy_dir / "corpus", corpus)
        with open(corpus / "aab.tsv", "ab") as f:
            f.write(b"\xff")
        assert cli.main([
            "pipeline",
            "--corpus-dir", str(corpus),
            "--rules-dir", str(toy_dir / "rules"),
            "--registry", str(toy_dir / "registry.csv"),
            "--target", "aaa",
            "--out", str(tmp_path / "out"),
        ]) == 2
        assert capsys.readouterr() == (
            "", f"phonosim: error: [g2p] {corpus / 'aab.tsv'}:9: invalid UTF-8 byte 0xff\n")
        assert not (tmp_path / "out").exists()

    def test_grapheme_without_rule_names_stage_and_utterance(self, toy_dir,
                                                              tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(toy_dir / "corpus", corpus)
        tsv = corpus / "aab.tsv"
        text = tsv.read_text(encoding="utf-8")
        assert "\tbis tukan mesh\n" in text.splitlines(keepends=True)[1]
        tsv.write_text(text.replace("bis tukan mesh", "bis tuqan mesh"),
                       encoding="utf-8")
        assert cli.main([
            "pipeline",
            "--corpus-dir", str(corpus),
            "--rules-dir", str(toy_dir / "rules"),
            "--registry", str(toy_dir / "registry.csv"),
            "--policy", str(toy_dir / "policy.txt"),
            "--target", "aaa",
            "--out", str(tmp_path / "out"),
        ]) == 2
        assert capsys.readouterr() == (
            "", "phonosim: error: [g2p] aab: utterance 2: no rule matches 'q' "
            "at offset 6\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["no-file", "no-section", "no-corpus-dir",
                                      "no-registry"])
    def test_missing_input_exit_2(self, toy_dir, tmp_path, capsys, case):
        def flags(**paths):
            given = {"corpus-dir": toy_dir / "corpus", "rules-dir": toy_dir / "rules",
                     "registry": toy_dir / "registry.csv", "target": "aaa",
                     "out": tmp_path / "out", **paths}
            return [arg for name, value in given.items() for arg in (f"--{name}", str(value))]

        missing = tmp_path / "nope"
        config = tmp_path / "pipeline.ini"
        config.write_text("[other]\ntarget = aaa\n", encoding="utf-8")
        argv, message = {
            "no-file": (["--config", str(missing)],
                        f"{missing}: config file not found or unreadable"),
            "no-section": (["--config", str(config)],
                           f"{config}: missing [pipeline] section"),
            "no-corpus-dir": (flags(**{"corpus-dir": missing}),
                              f"[corpus-scan] corpus directory {missing} does not exist"),
            "no-registry": (flags(registry=missing),
                            f"[registry] registry file {missing} does not exist"),
        }[case]
        assert cli.main(["pipeline", *argv]) == 2
        assert capsys.readouterr() == ("", f"phonosim: error: {message}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("out", ["file", "file/out"])
    def test_out_under_a_file_fails_before_any_stage(self, toy_dir, tmp_path,
                                                     capsys, out):
        # the rules directory holds no rule file, so the g2p stage would fail
        file = tmp_path / "file"
        file.write_text("kept\n", encoding="utf-8")
        assert cli.main([
            "pipeline",
            "--corpus-dir", str(toy_dir / "corpus"),
            "--rules-dir", str(tmp_path),
            "--registry", str(toy_dir / "registry.csv"),
            "--target", "aaa",
            "--out", str(tmp_path / out),
        ]) == 2
        assert capsys.readouterr() == (
            "", f"phonosim: error: [output] {file} exists and is not a directory\n")
        assert list(tmp_path.iterdir()) == [file]
        assert file.read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("extra", ["", "aac,Extran,Alphaic,West,5\n"],
                             ids=["toy", "no-corpus-row"])
    def test_select_over_the_pipeline_matrix_writes_its_selection(
            self, toy_dir, tmp_path, capsys, strategy, extra):
        # a registry row without a corpus is in no matrix, so neither the
        # pipeline nor select may pick it
        registry = tmp_path / "registry.csv"
        registry.write_text((toy_dir / "registry.csv").read_text(encoding="utf-8")
                            + extra, encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main([
            "pipeline", "--corpus-dir", str(toy_dir / "corpus"),
            "--rules-dir", str(toy_dir / "rules"), "--registry", str(registry),
            "--policy", str(toy_dir / "policy.txt"), "--target", "aaa",
            "--strategy", strategy, "--resolution", "16", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        assert cli.main([
            "select", "--target", "aaa", "--strategy", strategy,
            "--registry", str(registry), "--matrix", str(out / "similarity.csv"),
        ]) == 0
        printed = capsys.readouterr()
        assert printed.out.encode("utf-8") == (out / "selection.tsv").read_bytes()
        assert "aac" not in printed.out

    def test_stage_error_reported(self, toy_dir, tmp_path, capsys):
        assert cli.main([
            "pipeline",
            "--corpus-dir", str(toy_dir / "corpus"),
            "--rules-dir", str(tmp_path),  # wrong dir: no rule files
            "--registry", str(toy_dir / "registry.csv"),
            "--target", "aaa",
            "--out", str(tmp_path / "out"),
        ]) == 2
        assert "[g2p]" in capsys.readouterr().err
