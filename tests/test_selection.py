import random

import numpy as np
import pytest

from phonosim.errors import DataError
from phonosim.registry import LanguageRecord, Registry, load_registry
from phonosim.selection import (STRATEGIES, SelectionResult, emit_manifest,
                                select_strategy, selection_report,
                                write_manifest_tsv)
from phonosim.stats import SimilarityMatrix, similarity_matrix


def toy_matrix():
    codes = ("a", "b", "c", "t")
    values = np.array([
        [1.0, 0.2, 0.3, 0.9],
        [0.2, 1.0, 0.4, 0.5],
        [0.3, 0.4, 1.0, 0.7],
        [0.9, 0.5, 0.7, 1.0],
    ])
    return SimilarityMatrix(codes, values)


def registry_over(matrix, hours=None):
    """A one-family registry over the matrix codes with the given hours,
    1.0 where none are given (equal hours rank as no hours)."""
    hours = hours or {}
    return Registry([LanguageRecord(code, code, "F", None, hours.get(code, 1.0))
                     for code in matrix.codes])


def top_k_oracle(target, matrix, k, hours=None):
    hours = hours or {}
    t = matrix.codes.index(target)
    rows = [(code, float(matrix.values[t, j]))
            for j, code in enumerate(matrix.codes) if code != target]
    ordered = sorted(rows, key=lambda r: (-r[1], -hours.get(r[0], 0.0), r[0]))
    return [code for code, _ in ordered[:min(k, len(rows))]]


def toy_top_k(k, target="t"):
    matrix = toy_matrix()
    return select_strategy(target, "corpus_sim", registry_over(matrix),
                           matrix=matrix, k=k)


class TestTopK:
    def test_toy_ordering(self):
        sel = toy_top_k(3)
        assert sel.source_codes() == ("a", "c", "b")
        assert sel.k == 3
        assert sel.strategy == "corpus_sim"

    def test_k_one(self):
        assert toy_top_k(1).source_codes() == ("a",)

    def test_scores_recorded(self):
        sel = toy_top_k(2)
        assert sel.sources == (("a", 0.9), ("c", 0.7))

    def test_target_never_selected(self):
        sel = toy_top_k(3)
        assert "t" not in sel.source_codes()

    def test_truncation_warns(self):
        with pytest.warns(UserWarning):
            sel = toy_top_k(10)
        assert len(sel.sources) == 3

    def test_unknown_target(self):
        with pytest.raises(DataError, match="^unknown language code 'zz'$"):
            toy_top_k(3, target="zz")

    def test_k_below_one(self):
        matrix = toy_matrix()
        for strategy in STRATEGIES:
            with pytest.raises(DataError, match="^k must be at least 1$"):
                select_strategy("t", strategy, registry_over(matrix),
                                matrix=matrix, k=0)

    def test_ties_break_by_hours_then_code(self):
        codes = ("p", "q", "r", "t")
        values = np.ones((4, 4)) * 0.5
        np.fill_diagonal(values, 1.0)
        matrix = SimilarityMatrix(codes, values)
        hours = {"p": 1.0, "q": 9.0, "r": 9.0}
        sel = select_strategy("t", "corpus_sim", registry_over(matrix, hours),
                              matrix=matrix, k=3)
        # equal similarity: larger hours first, lexicographic inside ties
        assert sel.source_codes() == ("q", "r", "p")
        sel_nohours = select_strategy("t", "corpus_sim", registry_over(matrix),
                                      matrix=matrix, k=3)
        assert sel_nohours.source_codes() == ("p", "q", "r")

    def test_matrix_code_missing_from_registry_ranks_with_0_hours(self):
        codes = ("p", "q", "t")
        values = np.ones((3, 3)) * 0.5
        np.fill_diagonal(values, 1.0)
        matrix = SimilarityMatrix(codes, values)
        reg = Registry([LanguageRecord("q", "Q", "F", None, 1e-9),
                        LanguageRecord("t", "T", "F", None, 1.0)])
        sel = select_strategy("t", "corpus_sim", reg, matrix=matrix, k=2)
        assert sel.source_codes() == ("q", "p")

    def test_matches_bruteforce_oracle(self):
        rng = random.Random(41)
        for _ in range(100):
            n = rng.randint(3, 9)
            codes = tuple(f"l{i}" for i in range(n))
            values = np.eye(n)
            for i in range(n):
                for j in range(i + 1, n):
                    values[i, j] = values[j, i] = rng.random()
            matrix = SimilarityMatrix(codes, values)
            target = rng.choice(codes)
            k = rng.randint(1, n - 1)
            got = list(select_strategy(target, "corpus_sim", registry_over(matrix),
                                       matrix=matrix, k=k).source_codes())
            assert got == top_k_oracle(target, matrix, k)

    def test_k2_is_prefix_of_k3(self):
        rng = random.Random(43)
        for _ in range(50):
            n = rng.randint(4, 8)
            codes = tuple(f"l{i}" for i in range(n))
            values = np.eye(n)
            for i in range(n):
                for j in range(i + 1, n):
                    values[i, j] = values[j, i] = rng.random()
            matrix = SimilarityMatrix(codes, values)
            reg = registry_over(matrix)
            two = select_strategy("l0", "corpus_sim", reg, matrix=matrix,
                                  k=2).source_codes()
            three = select_strategy("l0", "corpus_sim", reg, matrix=matrix,
                                    k=3).source_codes()
            assert three[:2] == two


class TestStrategies:
    def test_family_sakha(self, cv_registry_path):
        reg = load_registry(cv_registry_path)
        sel = select_strategy("sah", "family", reg)
        assert len(sel.sources) == 8
        assert sel.source_codes() == tuple(
            r.code for r in reg if r.family == "Turkic" and r.code != "sah")
        assert list(sel.source_codes()) == sorted(sel.source_codes())
        assert all(score is None for _, score in sel.sources)

    def test_family_hindi(self, cv_registry_path):
        reg = load_registry(cv_registry_path)
        sel = select_strategy("hi", "family", reg)
        assert reg.get("hi").family == "Indo-Iranian"
        assert len(sel.sources) == 5
        assert sel.source_codes() == tuple(
            r.code for r in reg if r.family == "Indo-Iranian" and r.code != "hi")

    def test_family_of_one_has_no_sources(self):
        reg = Registry([LanguageRecord("t", "T", "F1", None, 1.0),
                        LanguageRecord("u", "U", "F2", None, 1.0)])
        assert select_strategy("t", "family", reg).sources == ()

    def test_family_and_all_take_the_matrix_languages_in_code_order(self):
        # the registry is given z, b, t, a, c; the matrix holds z, t, b, a,
        # not c
        reg = Registry([LanguageRecord(code, code, family, None, 1.0)
                        for code, family in (("z", "F"), ("b", "G"), ("t", "F"),
                                             ("a", "F"), ("c", "F"))])
        matrix = SimilarityMatrix(("z", "t", "b", "a"), np.eye(4))
        assert select_strategy("t", "family", reg, matrix=matrix).sources == (
            ("a", None), ("z", None))
        assert select_strategy("t", "all", reg, matrix=matrix).source_codes() == (
            "a", "b", "z")
        # without a matrix, every registry language
        assert select_strategy("t", "family", reg).source_codes() == ("a", "c", "z")
        assert select_strategy("t", "all", reg).source_codes() == ("a", "b", "c", "z")

    def test_all_hindi(self, cv_registry_path):
        reg = load_registry(cv_registry_path)
        sel = select_strategy("hi", "all", reg)
        assert len(sel.sources) == 21
        assert "hi" not in sel.source_codes()

    def test_monolingual(self, cv_registry_path):
        reg = load_registry(cv_registry_path)
        sel = select_strategy("hi", "monolingual", reg)
        assert sel.sources == ()

    def test_corpus_sim_requires_matrix(self, cv_registry_path):
        reg = load_registry(cv_registry_path)
        with pytest.raises(DataError):
            select_strategy("hi", "corpus_sim", reg, matrix=None)

    def test_unknown_strategy(self, cv_registry_path):
        reg = load_registry(cv_registry_path)
        with pytest.raises(DataError,
                           match="^unknown selection strategy 'nearest'$"):
            select_strategy("hi", "nearest", reg)

    def test_unknown_target(self, cv_registry_path):
        reg = load_registry(cv_registry_path)
        with pytest.raises(DataError):
            select_strategy("zz", "family", reg)

    def test_corpus_sim_uses_registry_hours_for_ties(self):
        codes = ("p", "q", "t")
        values = np.ones((3, 3)) * 0.5
        np.fill_diagonal(values, 1.0)
        matrix = SimilarityMatrix(codes, values)
        reg = Registry([
            LanguageRecord("p", "P", "F", None, 1.0),
            LanguageRecord("q", "Q", "F", None, 50.0),
            LanguageRecord("t", "T", "F", None, 2.0),
        ])
        sel = select_strategy("t", "corpus_sim", reg, matrix=matrix, k=2)
        assert sel.source_codes() == ("q", "p")


def manifest_of(corpora):
    """emit_manifest over every language of corpora, the first as target."""
    codes = tuple(corpora)
    reg = Registry([LanguageRecord(c, c, "F", None, 1.0) for c in codes])
    sel = SelectionResult(codes[0], "all", tuple((c, None) for c in codes[1:]))
    return emit_manifest(sel, corpora, reg)


class TestInventory:
    def test_union(self):
        man = manifest_of({"A": [("a.mp3", ["a", "b"])], "B": [("b.mp3", ["b", "c"])]})
        assert man.phonemes == ("a", "b", "c")
        assert man.selection.languages == ("A", "B")

    def test_single_language_identity(self):
        man = manifest_of({"A": [("a1.mp3", ["t͡ʃ", "a"]), ("a2.mp3", ["a"])]})
        assert man.phonemes == ("a", "t͡ʃ")

    def test_matches_set_oracle(self):
        rng = random.Random(47)
        pool = ["a", "b", "c", "d", "ʃ", "ʒ", "t͡ʃ"]
        for _ in range(25):
            corpora = {
                f"l{i}": [(f"l{i}_{u}.mp3",
                           [rng.choice(pool) for _ in range(rng.randrange(4))])
                          for u in range(rng.randrange(3))]
                for i in range(4)}
            man = manifest_of(corpora)
            expected = {ph for utts in corpora.values() for _, seq in utts for ph in seq}
            assert set(man.phonemes) == expected
            assert list(man.phonemes) == sorted(man.phonemes)


def small_registry():
    return Registry([
        LanguageRecord("t", "Target", "F1", None, 2.0),
        LanguageRecord("s1", "SourceOne", "F1", None, 10.0),
        LanguageRecord("s2", "SourceTwo", "F2", None, 20.0),
    ])


def small_corpora():
    return {
        "t": [("t1.mp3", ["a", "b"]), ("t2.mp3", ["b", "t͡ʃ"])],
        "s1": [("s1.mp3", ["a", "c"])],
        "s2": [("s2.mp3", ["d"])],
    }


class TestManifest:
    def test_monolingual_manifest(self):
        sel = select_strategy("t", "monolingual", small_registry())
        man = emit_manifest(sel, small_corpora(), small_registry())
        assert man.selection.languages == ("t",)
        assert [u[0] for u in man.utterances] == ["t", "t"]
        assert man.phonemes == ("a", "b", "t͡ʃ")
        assert man.total_hours == 2.0

    def test_multisource_order_target_first(self):
        sel = select_strategy("t", "all", small_registry())
        man = emit_manifest(sel, small_corpora(), small_registry())
        assert man.selection.languages[0] == "t"
        assert len(man.selection.languages) == 3
        langs_in_order = [u[0] for u in man.utterances]
        assert langs_in_order == ["t", "t", "s1", "s2"]
        assert man.total_hours == 32.0

    def test_inventory_closure(self):
        sel = select_strategy("t", "all", small_registry())
        man = emit_manifest(sel, small_corpora(), small_registry())
        known = set(man.phonemes)
        for _, _, seq in man.utterances:
            assert set(seq) <= known

    def test_tsv_format(self, tmp_path):
        matrix = SimilarityMatrix(
            ("t", "s1", "s2"),
            np.array([[1.0, 0.8, 0.3], [0.8, 1.0, 0.5], [0.3, 0.5, 1.0]]))
        reg = small_registry()
        sel = select_strategy("t", "corpus_sim", reg, matrix=matrix, k=2)
        man = emit_manifest(sel, small_corpora(), reg)
        path = tmp_path / "manifest.tsv"
        write_manifest_tsv(man, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "#target\tt"
        assert lines[1] == "#strategy\tcorpus_sim"
        assert lines[2].startswith("#sources\ts1:0.8")
        assert lines[3].startswith("#inventory\t")
        assert lines[4].startswith("#total_hours\t32")
        assert lines[5] == "lang\taudio_path\tipa"
        assert lines[6] == "t\tt1.mp3\ta b"

    def test_report_text(self):
        sel = toy_top_k(2)
        text = selection_report(sel)
        assert "target\tt" in text
        assert "source\ta\t0.9" in text


class TestScaleInvariance:
    def test_selection_stable_under_count_rescaling(self):
        from collections import Counter

        from phonosim.stats import phoneme_distributions

        rng = random.Random(53)
        for _ in range(20):
            counts = {
                f"l{i}": Counter({c: rng.randint(1, 50)
                                  for c in rng.sample("abcdefgh", 5)})
                for i in range(6)
            }

            def matrix_from(cts):
                return similarity_matrix(phoneme_distributions(
                    {code: cts[code] for code in sorted(cts)}))

            def top_3(matrix):
                return select_strategy("l0", "corpus_sim", registry_over(matrix),
                                       matrix=matrix, k=3).source_codes()

            base = top_3(matrix_from(counts))
            factors = {code: rng.randint(2, 9) for code in counts}
            scaled = {
                code: Counter({p: n * factors[code] for p, n in c.items()})
                for code, c in counts.items()
            }
            assert top_3(matrix_from(scaled)) == base
