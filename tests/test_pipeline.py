import json
import shutil
import xml.etree.ElementTree as ET

import pytest

from phonosim.errors import DataError, PipelineError
from phonosim.pipeline import (ARTIFACT_NAMES, PipelineConfig, load_config,
                               read_corpus_tsv, run_pipeline)


def toy_config(toy_dir, out_dir, **overrides):
    kwargs = dict(
        corpus_dir=toy_dir / "corpus",
        rules_dir=toy_dir / "rules",
        registry_path=toy_dir / "registry.csv",
        policy_path=toy_dir / "policy.txt",
        output_dir=out_dir,
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

    def test_rerun_into_same_directory(self, toy_dir, tmp_path):
        out = tmp_path / "out"
        run_pipeline(toy_config(toy_dir, out))
        first = read_all(out)
        run_pipeline(toy_config(toy_dir, out))
        assert read_all(out) == first

    def test_relative_level(self, toy_dir, tmp_path):
        out = tmp_path / "out"
        run_pipeline(toy_config(toy_dir, out, relative_level=True,
                                contour_level=0.5))
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
        run_pipeline(toy_config(toy_dir, out, registry_path=registry))
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
        with pytest.raises(DataError):
            toy_config(toy_dir, tmp_path, contour_level=0.0)
        with pytest.raises(DataError):
            toy_config(toy_dir, tmp_path, resolution=4)
        with pytest.raises(DataError):
            toy_config(toy_dir, tmp_path, strategy="bogus")

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
        assert cfg.output_dir == tmp_path / "out"
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
