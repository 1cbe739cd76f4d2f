import json
import shutil
import xml.etree.ElementTree as ET

import pytest

from phonosim.errors import DataError, PipelineError
from phonosim.pipeline import (ARTIFACT_NAMES, PipelineConfig, load_config,
                               read_corpus_tsv, run_pipeline)
from phonosim.registry import load_registry
from phonosim.selection import select_strategy


def toy_config(toy_dir, out_dir, **overrides):
    kwargs = dict(
        corpus_dir=toy_dir / "corpus",
        rules_dir=toy_dir / "rules",
        registry=toy_dir / "registry.csv",
        policy=toy_dir / "policy.txt",
        out=out_dir,
        target="aaa",
        strategy="corpus_sim",
        k=3,
    )
    kwargs.update(overrides)
    return PipelineConfig(**kwargs)


def read_all(out_dir):
    return {name: (out_dir / name).read_bytes() for name in ARTIFACT_NAMES}


class TestRun:
    def test_artifacts_written(self, toy_dir, tmp_path):
        artifacts = run_pipeline(toy_config(toy_dir, tmp_path / "out"))
        assert set(artifacts) == set(ARTIFACT_NAMES)
        for path in artifacts.values():
            assert path.is_file() and path.stat().st_size > 0

    def test_manifest_structure(self, toy_dir, tmp_path):
        out = tmp_path / "out"
        run_pipeline(toy_config(toy_dir, out))
        lines = (out / "manifest.tsv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "#target\taaa"
        assert lines[1] == "#strategy\tcorpus_sim"
        # most similar language shares the target's alphabet and family
        assert lines[2].startswith("#sources\taab:")
        header_idx = lines.index("lang\taudio_path\tipa")
        first_utt = lines[header_idx + 1].split("\t")
        assert first_utt[0] == "aaa"
        assert first_utt[1] == "clips/aaa_0001.mp3"

    def test_selection_orders_by_similarity(self, toy_dir, tmp_path):
        out = tmp_path / "out"
        run_pipeline(toy_config(toy_dir, out))
        report = (out / "selection.tsv").read_text(encoding="utf-8")
        source_lines = [l for l in report.splitlines() if l.startswith("source\t")]
        assert len(source_lines) == 3
        assert source_lines[0].split("\t")[1] == "aab"

    def test_contours_json_families(self, toy_dir, tmp_path):
        out = tmp_path / "out"
        run_pipeline(toy_config(toy_dir, out))
        payload = json.loads((out / "contours.json").read_text(encoding="utf-8"))
        assert [obj["family"] for obj in payload] == ["Alphaic", "Gammaic"]
        for obj in payload:
            assert obj["level"] == 0.1

    def test_family_report(self, toy_dir, tmp_path):
        out = tmp_path / "out"
        run_pipeline(toy_config(toy_dir, out))
        report = (out / "family_report.txt").read_text(encoding="utf-8")
        assert report.startswith("family\tmean_similarity\tn_languages\n")
        assert "Alphaic" in report and "Gammaic" in report
        assert report.rstrip().splitlines()[-1].startswith("highest\t")

    def test_byte_identical_reruns(self, toy_dir, tmp_path):
        out1 = tmp_path / "out1"
        out2 = tmp_path / "out2"
        run_pipeline(toy_config(toy_dir, out1))
        run_pipeline(toy_config(toy_dir, out2))
        assert read_all(out1) == read_all(out2)

    def test_golden_bytes(self, toy_dir, tmp_path):
        # golden/ holds the toy run's artifacts at the default settings
        out = tmp_path / "out"
        run_pipeline(toy_config(toy_dir, out))
        for name in ARTIFACT_NAMES:
            assert ((out / name).read_bytes()
                    == (toy_dir / "golden" / name).read_bytes()), name

    def test_rerun_into_same_directory(self, toy_dir, tmp_path):
        out = tmp_path / "out"
        run_pipeline(toy_config(toy_dir, out))
        first = read_all(out)
        run_pipeline(toy_config(toy_dir, out))
        assert read_all(out) == first

    def test_relative_level(self, toy_dir, tmp_path):
        out = tmp_path / "out"
        run_pipeline(toy_config(toy_dir, out, relative=True,
                                level=0.5))
        payload = json.loads((out / "contours.json").read_text(encoding="utf-8"))
        for obj in payload:
            assert obj["polylines"]  # half of peak always intersects

    def test_svg_escapes_family_names(self, toy_dir, tmp_path):
        registry = tmp_path / "registry.csv"
        registry.write_text(
            (toy_dir / "registry.csv").read_text(encoding="utf-8")
            .replace("Alphaic", "X & <x>"),
            encoding="utf-8")
        out = tmp_path / "out"
        run_pipeline(toy_config(toy_dir, out, registry=registry))
        root = ET.parse(out / "contours.svg").getroot()
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "X & <x>" in texts
        assert {"aaa", "aab", "aba", "abb"} <= set(texts)


class TestFailures:
    def test_missing_rules_aborts_g2p_stage_naming_language(
            self, toy_dir, tmp_path):
        broken = tmp_path / "rules"
        shutil.copytree(toy_dir / "rules", broken)
        (broken / "aba.rules").unlink()
        cfg = toy_config(toy_dir, tmp_path / "out", rules_dir=broken)
        with pytest.raises(PipelineError) as exc:
            run_pipeline(cfg)
        assert exc.value.stage == "g2p"
        assert "aba" in str(exc.value)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("family", ["Gamma\x01ic", '"Gam\tma\nic"'])
    def test_control_character_in_family_fails_registry_stage(
            self, toy_dir, tmp_path, family):
        registry = tmp_path / "registry.csv"
        registry.write_text(
            (toy_dir / "registry.csv").read_text(encoding="utf-8")
            .replace("Alphaic", family),
            encoding="utf-8")
        with pytest.raises(PipelineError) as exc:
            run_pipeline(toy_config(toy_dir, tmp_path / "out", registry=registry))
        assert exc.value.stage == "registry"
        assert "control character" in str(exc.value)
        assert not (tmp_path / "out").exists()

    def test_unknown_target_fails_registry_stage(self, toy_dir, tmp_path):
        cfg = toy_config(toy_dir, tmp_path / "out", target="zzz")
        with pytest.raises(PipelineError) as exc:
            run_pipeline(cfg)
        assert exc.value.stage == "registry"

    def test_target_without_corpus_fails_scan(self, toy_dir, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(toy_dir / "corpus", corpus)
        (corpus / "aaa.tsv").unlink()
        cfg = toy_config(toy_dir, tmp_path / "out", corpus_dir=corpus)
        with pytest.raises(PipelineError) as exc:
            run_pipeline(cfg)
        assert exc.value.stage == "corpus-scan"
        assert "aaa" in str(exc.value)

    def test_empty_corpus_dir_fails_scan(self, toy_dir, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        cfg = toy_config(toy_dir, tmp_path / "out", corpus_dir=corpus)
        with pytest.raises(PipelineError) as exc:
            run_pipeline(cfg)
        assert str(exc.value) == f"[corpus-scan] no .tsv corpus files in {corpus}"

    def test_corpus_name_that_is_no_code_fails_scan(self, toy_dir, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(toy_dir / "corpus", corpus)
        (corpus / "a b.tsv").write_text("", encoding="utf-8")
        cfg = toy_config(toy_dir, tmp_path / "out", corpus_dir=corpus)
        with pytest.raises(PipelineError) as exc:
            run_pipeline(cfg)
        assert exc.value.stage == "corpus-scan"
        assert f"{corpus / 'a b.tsv'}: language code 'a b'" in str(exc.value)

    def test_bad_corpus_line_names_language_and_line(self, toy_dir, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(toy_dir / "corpus", corpus)
        with open(corpus / "aab.tsv", "a", encoding="utf-8") as f:
            f.write("clips/bad.mp3\tqqq\n")
        cfg = toy_config(toy_dir, tmp_path / "out", corpus_dir=corpus)
        with pytest.raises(PipelineError) as exc:
            run_pipeline(cfg)
        assert exc.value.stage == "g2p"
        assert "aab" in str(exc.value) and "9" in str(exc.value)

    def test_empty_target_corpus_named(self, toy_dir, tmp_path):
        # only the target and one other language: the error names the
        # target rather than reporting too few languages
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "aaa.tsv").write_text("# nothing yet\n", encoding="utf-8")
        shutil.copy(toy_dir / "corpus" / "aab.tsv", corpus)
        cfg = toy_config(toy_dir, tmp_path / "out", corpus_dir=corpus)
        with pytest.raises(PipelineError) as exc:
            run_pipeline(cfg)
        assert exc.value.stage == "distributions"
        assert "target 'aaa' corpus produced no phonemes" in str(exc.value)

    def test_hours_sum_overflow_fails_contours_stage(self, toy_dir, tmp_path):
        registry = tmp_path / "registry.csv"
        registry.write_text(
            (toy_dir / "registry.csv").read_text(encoding="utf-8")
            .replace("Alphaic,West,2", "Alphaic,West,1e308")
            .replace("Alphaic,East,20", "Alphaic,East,1e308"),
            encoding="utf-8")
        cfg = toy_config(toy_dir, tmp_path / "out", registry=registry)
        with pytest.raises(PipelineError) as exc:
            run_pipeline(cfg)
        assert str(exc.value) == ("[contours] family 'Alphaic': recording "
                                  "hours sum to more than the largest float")
        assert not (tmp_path / "out").exists()

    def test_no_partial_outputs_after_failure(self, toy_dir, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(toy_dir / "corpus", corpus)
        (corpus / "abb.tsv").write_text(
            "clips/abb_0001.mp3\tqqq\n", encoding="utf-8")
        out = tmp_path / "out"
        cfg = toy_config(toy_dir, out, corpus_dir=corpus)
        with pytest.raises(PipelineError):
            run_pipeline(cfg)
        assert not out.exists() or not any(out.iterdir())
        leftovers = [p for p in tmp_path.iterdir() if ".phonosim-" in p.name]
        assert leftovers == []


class TestConfig:
    def test_validation(self, toy_dir, tmp_path):
        with pytest.raises(DataError):
            toy_config(toy_dir, tmp_path, k=0)
        for level in (0.0, float("nan"), float("inf"), "nan", "inf"):
            with pytest.raises(DataError):
                toy_config(toy_dir, tmp_path, level=level)
        with pytest.raises(DataError):
            toy_config(toy_dir, tmp_path, resolution=4)
        with pytest.raises(DataError):
            toy_config(toy_dir, tmp_path, strategy="bogus")

    @pytest.mark.parametrize("strategy, k", [("bogus", 3), ("all", 0), ("bogus", 0)])
    def test_selection_settings_fail_as_select_strategy_does(self, toy_dir, tmp_path,
                                                             cv_registry_path,
                                                             strategy, k):
        # one check, so one message, whichever of the two is wrong
        with pytest.raises(DataError) as select_error:
            select_strategy("hi", strategy, load_registry(cv_registry_path), k=k)
        with pytest.raises(DataError) as config_error:
            toy_config(toy_dir, tmp_path, strategy=strategy, k=k)
        assert str(config_error.value) == str(select_error.value)

    @pytest.mark.parametrize("name, value, kind", [
        ("k", 2.5, "an integer"), ("resolution", 512.9, "an integer"),
        ("k", float("inf"), "an integer"), ("k", "2.5", "an integer"),
        ("level", 10**400, "a number")])
    def test_settings_are_not_truncated(self, toy_dir, tmp_path, name, value, kind):
        with pytest.raises(DataError) as exc:
            toy_config(toy_dir, tmp_path, **{name: value})
        assert str(exc.value) == f"setting '{name}' must be {kind}, got {value!r}"
        # a value that converts exactly is taken as it is
        config = toy_config(toy_dir, tmp_path, k=2.0, resolution="300", level=1)
        assert (config.k, config.resolution, config.level) == (2, 300, 1.0)

    def test_relative_strings_parsed(self, toy_dir, tmp_path):
        # like k, level and resolution, a string is converted, not kept
        for value, want in (("false", False), ("Off", False), ("0", False),
                            ("true", True), (" YES ", True), (False, False)):
            assert toy_config(toy_dir, tmp_path, relative=value).relative is want
        for value in ("tru", "", "2"):
            with pytest.raises(DataError, match="^setting 'relative' must be "
                                                f"a boolean, got {value!r}$"):
                toy_config(toy_dir, tmp_path, relative=value)
        overrides = {"corpus_dir": "c", "rules_dir": "r", "registry": "g",
                     "out": "o", "target": "aaa", "relative": "false"}
        assert load_config(None, overrides).relative is False

    def test_load_config_with_overrides(self, toy_dir, tmp_path):
        cfg_file = tmp_path / "pipeline.ini"
        cfg_file.write_text(
            "[pipeline]\n"
            f"corpus_dir = {toy_dir / 'corpus'}\n"
            f"rules_dir = {toy_dir / 'rules'}\n"
            f"registry = {toy_dir / 'registry.csv'}\n"
            f"policy = {toy_dir / 'policy.txt'}\n"
            "target = aaa\n"
            "strategy = family\n"
            "k = 2\n"
            f"out = {tmp_path / 'out'}\n",
            encoding="utf-8")
        cfg = load_config(cfg_file)
        assert cfg.strategy == "family"
        assert cfg.k == 2
        # flags win over the file
        cfg2 = load_config(cfg_file, {"strategy": "monolingual", "k": "1"})
        assert cfg2.strategy == "monolingual"
        assert cfg2.k == 1

    def test_unknown_config_key(self, tmp_path):
        cfg_file = tmp_path / "pipeline.ini"
        cfg_file.write_text("[pipeline]\nbogus = 1\n", encoding="utf-8")
        with pytest.raises(Exception):
            load_config(cfg_file)

    def test_relative_paths_resolve_against_config_file(self, toy_dir, tmp_path):
        import shutil

        shutil.copytree(toy_dir, tmp_path / "toy")
        cfg_file = tmp_path / "pipeline.ini"
        cfg_file.write_text(
            "[pipeline]\n"
            "corpus_dir = toy/corpus\n"
            "rules_dir = toy/rules\n"
            "registry = toy/registry.csv\n"
            "policy = toy/policy.txt\n"
            "target = aaa\n"
            "out = out\n",
            encoding="utf-8")
        cfg = load_config(cfg_file)
        assert cfg.corpus_dir == tmp_path / "toy" / "corpus"
        assert cfg.out == tmp_path / "out"
        run_pipeline(cfg)
        assert (tmp_path / "out" / "manifest.tsv").is_file()


class TestCorpusReader:
    def test_reads_pairs(self, toy_dir):
        utts = read_corpus_tsv(toy_dir / "corpus" / "aaa.tsv")
        assert len(utts) == 8
        assert utts[0] == ("clips/aaa_0001.mp3", "mati shuna kicha")

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("# comment\n\nx.mp3\thello\n", encoding="utf-8")
        assert read_corpus_tsv(p) == [("x.mp3", "hello")]

    def test_missing_tab_errors_with_line(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("x.mp3 hello\n", encoding="utf-8")
        with pytest.raises(Exception) as exc:
            read_corpus_tsv(p)
        assert "1" in str(exc.value)
