import math
import random
from collections import Counter

import numpy as np
import pytest

from phonosim.errors import DataError, ParseError
from phonosim.g2p import G2PRule, Ruleset, transliterate
from phonosim.ipa import NormalizationPolicy
from phonosim.pipeline import convert_corpora, count_corpora
from phonosim.stats import (Distributions, SimilarityMatrix,
                            family_mean_similarities, phoneme_distributions,
                            read_matrix_csv, similarity_matrix,
                            write_distributions_csv, write_matrix_csv)

PLAIN = NormalizationPolicy(merge_pairs={})
AB_RULES = Ruleset("toy", [G2PRule("a", "a"), G2PRule("b", "b")])


def cosine_oracle(x, y):
    dot = sum(p * q for p, q in zip(x, y))
    nx = math.sqrt(sum(p * p for p in x))
    ny = math.sqrt(sum(q * q for q in y))
    return dot / (nx * ny)


def dists(rows, codes=None):
    """Hand-built Distributions over the phonemes p00, p01, ..."""
    rows = np.asarray(rows, dtype=float)
    codes = codes or tuple(f"l{i}" for i in range(len(rows)))
    return Distributions(tuple(codes), tuple(f"p{j:02d}" for j in range(rows.shape[1])),
                         rows)


def cosine(x, y):
    return similarity_matrix(dists([x, y])).values[0, 1]


def corpus_distributions(tmp_path, texts_by_code, mode="error"):
    """Write one corpus per language; its utterance sequences, and the
    distributions of its counts."""
    corpus, rules = tmp_path / "corpus", tmp_path / "rules"
    corpus.mkdir(exist_ok=True)
    rules.mkdir(exist_ok=True)
    for code, texts in texts_by_code.items():
        (rules / f"{code}.rules").write_text("a\ta\nb\tb\n", encoding="utf-8")
        (corpus / f"{code}.tsv").write_text(
            "".join(f"{code}_{n}.mp3\t{t}\n" for n, t in enumerate(texts)),
            encoding="utf-8")
    counts = count_corpora(texts_by_code, corpus, rules, PLAIN, mode=mode)
    converted = convert_corpora(texts_by_code, corpus, rules, PLAIN, mode=mode)
    assert counts == {code: Counter(ph for _, seq in seqs for ph in seq)
                      for code, seqs in converted.items()}
    return converted, phoneme_distributions(counts)


def counts_of(seqs_by_code):
    """The phoneme counts over each language's phoneme sequences."""
    return {code: Counter(ph for seq in seqs for ph in seq)
            for code, seqs in seqs_by_code.items()}


class TestCounting:
    def test_direct_count(self, tmp_path):
        converted, d = corpus_distributions(tmp_path, {"x": ["aba"], "y": ["b"]})
        assert converted["x"] == [("x_0.mp3", ["a", "b", "a"])]
        assert d.phonemes == ("a", "b")
        assert d.codes == ("x", "y")
        assert d.probabilities.tolist() == [[2 / 3, 1 / 3], [0.0, 1.0]]

    def test_empty_corpus(self, tmp_path):
        with pytest.warns(UserWarning, match="'e' has an empty corpus"):
            converted, d = corpus_distributions(
                tmp_path, {"e": [], "x": ["a"], "y": ["b"]})
        assert converted["e"] == []
        assert d.codes == ("x", "y")
        with pytest.warns(UserWarning), pytest.raises(DataError, match="at least 2"):
            corpus_distributions(tmp_path, {"e": [], "x": ["a"]})

    def test_error_carries_line_number(self, tmp_path):
        with pytest.raises(DataError, match=r"^x: utterance 2: .*'q'"):
            corpus_distributions(tmp_path, {"x": ["ab", "aq"], "y": ["a"]})

    def test_recount_oracle(self, tmp_path):
        rng = random.Random(5)
        corpus = ["".join(rng.choice("ab") for _ in range(rng.randrange(12)))
                  for _ in range(100)]
        _, d = corpus_distributions(tmp_path, {"x": corpus, "y": ["a"]})
        expected = Counter()
        for line in corpus:
            expected.update(transliterate(line, AB_RULES, PLAIN))
        total = sum(expected.values())
        assert d.probabilities[0].tolist() == [expected[p] / total for p in d.phonemes]

    def test_order_invariance(self, tmp_path):
        corpus = ["ab", "ba", "aab"]
        shuffled = ["ba", "aab", "ab"]
        _, d = corpus_distributions(tmp_path, {"x": corpus, "y": shuffled})
        assert d.probabilities[0].tolist() == d.probabilities[1].tolist()


class TestVocabulary:
    def test_union(self):
        d = phoneme_distributions(counts_of({"x": [["a", "b"]], "y": [["b", "c"]]}))
        assert d.phonemes == ("a", "b", "c")

    def test_single_map(self):
        d = phoneme_distributions(counts_of({"x": [["b", "a"]], "y": [["b"]]}))
        assert d.phonemes == ("a", "b")

    def test_many_maps_equal_set_oracle(self):
        rng = random.Random(9)
        pool = ["a", "b", "t͡ʃ", "ʒ", "k", "uː", "m", "n"]
        seqs = {f"l{i}": [[rng.choice(pool) for _ in range(rng.randrange(1, 6))]]
                for i in range(22)}
        expected = set()
        for (seq,) in seqs.values():
            expected |= set(seq)
        assert phoneme_distributions(counts_of(seqs)).phonemes == tuple(sorted(expected))

    def test_unsorted_construction_rejected(self):
        for phonemes in (("b", "a"), ("a", "a")):
            with pytest.raises(DataError, match="sorted and duplicate-free"):
                Distributions(("x",), phonemes, [[0.5, 0.5]])


class TestDistribution:
    def test_arithmetic(self):
        d = phoneme_distributions(counts_of({"x": [["a", "a"], ["b"]], "y": [["c"]]}))
        assert np.allclose(d.probabilities[0], [2 / 3, 1 / 3, 0.0])

    def test_probabilities_sum_to_one(self):
        rng = random.Random(2)
        for _ in range(50):
            seqs = {f"l{i}": [[c for c in rng.sample("abcdefgh", rng.randrange(1, 9))
                               for _ in range(rng.randrange(1, 100))]]
                    for i in range(3)}
            d = phoneme_distributions(counts_of(seqs))
            assert np.all(np.abs(d.probabilities.sum(axis=1) - 1.0) <= 1e-9)


class TestCosine:
    def test_self_similarity(self):
        x = [0.2, 0.5, 0.3]
        assert abs(cosine(x, x) - 1.0) <= 1e-12

    def test_orthogonal(self):
        assert cosine([1, 0], [0, 1]) == 0.0

    def test_derived_example_against_oracle(self):
        a = [0.5, 0.5, 0.0]
        b = [0.5, 0.25, 0.25]
        assert abs(cosine(a, b) - cosine_oracle(a, b)) <= 1e-12

    def test_zero_vector_names_language(self):
        with pytest.raises(DataError, match="zero phoneme vector for language 'emptylang'"):
            dists([[0, 0], [1, 0]], ("emptylang", "good"))

    def test_vocabulary_mismatch(self):
        for shape in ((2, 3), (3, 2), (2,)):
            with pytest.raises(DataError, match="different vocabularies"):
                Distributions(("a", "b"), ("p", "q"), np.ones(shape))

    def test_scale_invariance(self):
        rng = random.Random(13)
        for _ in range(100):
            x = [rng.random() for _ in range(6)]
            k = rng.uniform(0.01, 100)
            base = cosine(x, [1, 2, 3, 4, 5, 6])
            scaled = cosine([k * v for v in x], [1, 2, 3, 4, 5, 6])
            assert abs(base - scaled) <= 1e-12

    def test_range_clamped(self):
        rng = random.Random(17)
        for _ in range(200):
            x = [rng.random() for _ in range(4)]
            y = [rng.random() for _ in range(4)]
            assert 0.0 <= cosine(x, y) <= 1.0


class TestMatrix:
    def test_identical_pair(self):
        m = similarity_matrix(dists([[0.5, 0.5], [0.5, 0.5]], ("a", "b")))
        assert np.allclose(m.values, np.ones((2, 2)), atol=1e-12)
        assert m.values[0, 0] == 1.0 and m.values[1, 1] == 1.0

    def test_orthogonal_pair(self):
        m = similarity_matrix(dists([[1, 0], [0, 1]], ("a", "b")))
        assert np.array_equal(m.values, np.eye(2))

    def test_against_bruteforce(self):
        rng = random.Random(23)
        d = dists([[rng.random() for _ in range(7)] for _ in range(5)])
        m = similarity_matrix(d)
        for i in range(5):
            for j in range(5):
                if i == j:
                    assert m.values[i, j] == 1.0
                else:
                    expected = cosine_oracle(list(d.probabilities[i]),
                                             list(d.probabilities[j]))
                    assert abs(m.values[i, j] - expected) <= 1e-12

    def test_exact_symmetry_and_unit_diagonal(self):
        rng = random.Random(29)
        m = similarity_matrix(dists([[rng.random() for _ in range(5)] for _ in range(6)]))
        assert np.array_equal(m.values, m.values.T)
        assert all(m.values[i, i] == 1.0 for i in range(6))

    def test_zero_vector_propagates_language(self):
        with pytest.raises(DataError) as exc:
            similarity_matrix(dists([[1, 0], [0, 0]], ("good", "bad")))
        assert "bad" in str(exc.value)

    def test_duplicate_codes_rejected(self):
        with pytest.raises(DataError, match="duplicate language code 'a'"):
            similarity_matrix(dists([[1, 0], [0, 1]], ("a", "a")))
        with pytest.raises(DataError, match="duplicate language code 'b'"):
            SimilarityMatrix(("b", "c", "b"), np.eye(3))

    def test_csv_duplicate_codes_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(",a,a,b\na,1,1,0.5\na,1,1,0.5\nb,0.5,0.5,1\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            read_matrix_csv(path)
        assert str(exc.value) == (
            f"{path}:3: duplicate language code 'a' (first seen on line 2)")

    def test_csv_round_trip(self, tmp_path):
        rng = random.Random(31)
        m = similarity_matrix(dists([[rng.random() for _ in range(4)] for _ in range(4)]))
        path = tmp_path / "m.csv"
        write_matrix_csv(m, path)
        m2 = read_matrix_csv(path)
        assert m2.codes == m.codes
        assert np.allclose(m2.values, m.values, atol=1e-11)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_csv_non_finite_rejected(self, tmp_path, cell):
        path = tmp_path / "m.csv"
        path.write_text(f",a,b\na,1,0.5\nb,{cell},1\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"m\.csv:3: non-finite matrix entry"):
            read_matrix_csv(path)

    def test_csv_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(",a,b\n\na,1,0.5\n , \nb,0.5,1\n\n", encoding="utf-8")
        m = read_matrix_csv(path)
        assert m.codes == ("a", "b")
        assert m.values.tolist() == [[1, 0.5], [0.5, 1]]
        # errors name the file's line, blank lines included
        path.write_text(",a,b\n\na,1,0.5\n\nb,nan,1\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"m\.csv:5: non-finite matrix entry"):
            read_matrix_csv(path)

    def test_distributions_csv(self, tmp_path):
        d = Distributions(("x", "y"), ("a", "b"), np.array([[1.0, 0.0], [0.0, 1.0]]))
        path = tmp_path / "d.csv"
        write_distributions_csv(d, path)
        assert path.read_text(encoding="utf-8") == "code,a,b\nx,1,0\ny,0,1\n"


class TestFamilyMeans:
    def test_basic_grouping(self):
        m = similarity_matrix(dists([[1, 0, 0], [0.9, 0.1, 0], [0, 1, 0], [0, 0.2, 0.8]],
                                    ("a1", "a2", "b1", "b2")))
        rows = family_mean_similarities(
            m, {"a1": "A", "a2": "A", "b1": "B", "b2": "B"})
        by_family = {fam: mean for fam, mean, _ in rows}
        assert set(by_family) == {"A", "B"}
        assert by_family["A"] > by_family["B"]
        assert rows[0][0] == "A"  # sorted by descending mean

    def test_singleton_families_skipped(self):
        m = similarity_matrix(dists([[1, 0], [0, 1]], ("a1", "b1")))
        assert family_mean_similarities(m, {"a1": "A", "b1": "B"}) == []
