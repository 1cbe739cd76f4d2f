import io
import json


from phonosim import cli


def run_cli(args, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    return cli.main(args)


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert cli.main([]) == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli.main(["per", "--bogus"]) == 1

    def test_missing_file_is_data_error(self, capsys):
        assert cli.main(["registry", "validate", "/nonexistent.csv"]) == 2
        assert "error" in capsys.readouterr().err

    def test_internal_error_is_3(self, monkeypatch, capsys):
        def boom(path, low_resource_threshold_hours=15.0):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "load_registry", boom)
        assert cli.main(["registry", "validate", "x.csv"]) == 3
        assert "internal error" in capsys.readouterr().err

    def test_version(self, capsys):
        assert cli.main(["--version"]) == 0


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

    def test_g2p_skip_mode(self, toy_dir, monkeypatch, capsys):
        code = run_cli(
            ["g2p", "--rules", str(toy_dir / "rules" / "aaa.rules"),
             "--mode", "skip"],
            stdin_text="xaz\n", monkeypatch=monkeypatch)
        assert code == 0
        assert capsys.readouterr().out == "a\n"


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

    def test_typology_none_with_missing_exit_2(self, tmp_path):
        features = tmp_path / "features.csv"
        features.write_text("lang,f1,f2\naaa,1,?\naab,0,1\n", encoding="utf-8")
        assert cli.main(["typology", "--features", str(features),
                         "--impute", "none",
                         "--out", str(tmp_path / "x.csv")]) == 2


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
        assert (out_dir / "manifest.tsv").is_file()

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
        assert f"{typo}: expected a boolean, got 'tru'" in capsys.readouterr().err
        # the flag overrides the file's value and turns the option on
        assert cli.main(["pipeline", "--config", typo, "--relative"]) == 0
        assert cli.main(["pipeline", "--config", config("on", "Yes")]) == 0
        assert cli.main(["pipeline", "--config", config("off", "false")]) == 0
        contours = {name: (tmp_path / name / "contours.json").read_bytes()
                    for name in ("typo", "on", "off")}
        assert contours["typo"] == contours["on"] != contours["off"]

    def test_missing_required_flags(self, capsys):
        assert cli.main(["pipeline", "--target", "aaa"]) == 2

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
