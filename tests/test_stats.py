import math
import random
from collections import Counter

import numpy as np
import pytest

from phonosim.errors import DataError, ParseError
from phonosim.g2p import G2PRule, Ruleset, transliterate
from phonosim.ipa import NormalizationPolicy
from phonosim.pipeline import convert_corpora, phoneme_distributions
from phonosim.stats import (PhonemeDistribution, Vocabulary, build_vocabulary,
                            cosine_similarity, family_mean_similarities,
                            read_matrix_csv,
                            similarity_matrix, to_distribution,
                            write_distributions_csv, write_matrix_csv)

PLAIN = NormalizationPolicy(merge_pairs={})
AB_RULES = Ruleset("toy", [G2PRule("a", "a"), G2PRule("b", "b")])


def cosine_oracle(x, y):
    dot = sum(p * q for p, q in zip(x, y))
    nx = math.sqrt(sum(p * p for p in x))
    ny = math.sqrt(sum(q * q for q in y))
    return dot / (nx * ny)


def dist(vec, code="x"):
    return PhonemeDistribution(code, np.asarray(vec, dtype=float), 1)


def corpus_distributions(tmp_path, texts_by_code, mode="error"):
    """Write one corpus per language, then convert and count it."""
    corpus, rules = tmp_path / "corpus", tmp_path / "rules"
    corpus.mkdir(exist_ok=True)
    rules.mkdir(exist_ok=True)
    for code, texts in texts_by_code.items():
        (rules / f"{code}.rules").write_text("a\ta\nb\tb\n", encoding="utf-8")
        (corpus / f"{code}.tsv").write_text(
            "".join(f"{code}_{n}.mp3\t{t}\n" for n, t in enumerate(texts)),
            encoding="utf-8")
    converted = convert_corpora(texts_by_code, corpus, rules, PLAIN, mode=mode)
    return converted, phoneme_distributions(converted)


def counts_of(vocab, d):
    return Counter({p: round(q * d.total_count)
                    for p, q in zip(vocab.phonemes, d.probabilities) if q})


class TestCounting:
    def test_direct_count(self, tmp_path):
        converted, (vocab, dists) = corpus_distributions(
            tmp_path, {"x": ["aba"], "y": ["b"]})
        assert converted["x"] == [("x_0.mp3", ["a", "b", "a"])]
        assert vocab.phonemes == ("a", "b")
        assert [d.language_code for d in dists] == ["x", "y"]
        assert dists[0].total_count == 3
        assert counts_of(vocab, dists[0]) == Counter({"a": 2, "b": 1})

    def test_empty_corpus(self, tmp_path):
        with pytest.warns(UserWarning, match="'e' has an empty corpus"):
            converted, (_, dists) = corpus_distributions(
                tmp_path, {"e": [], "x": ["a"], "y": ["b"]})
        assert converted["e"] == []
        assert [d.language_code for d in dists] == ["x", "y"]
        with pytest.warns(UserWarning), pytest.raises(DataError, match="at least 2"):
            corpus_distributions(tmp_path, {"e": [], "x": ["a"]})

    def test_error_carries_line_number(self, tmp_path):
        with pytest.raises(DataError, match=r"^x: utterance 2: .*'q'"):
            corpus_distributions(tmp_path, {"x": ["ab", "aq"], "y": ["a"]})

    def test_recount_oracle(self, tmp_path):
        rng = random.Random(5)
        corpus = ["".join(rng.choice("ab") for _ in range(rng.randrange(12)))
                  for _ in range(100)]
        _, (vocab, dists) = corpus_distributions(tmp_path, {"x": corpus, "y": ["a"]})
        expected = Counter()
        for line in corpus:
            expected.update(transliterate(line, AB_RULES, PLAIN))
        assert dists[0].total_count == sum(expected.values())
        assert counts_of(vocab, dists[0]) == expected
        assert dists[0].probabilities.tolist() == [
            expected[p] / dists[0].total_count for p in vocab.phonemes]

    def test_order_invariance(self, tmp_path):
        corpus = ["ab", "ba", "aab"]
        shuffled = ["ba", "aab", "ab"]
        _, (_, dists) = corpus_distributions(
            tmp_path, {"x": corpus, "y": shuffled})
        assert dists[0].total_count == dists[1].total_count
        assert dists[0].probabilities.tolist() == dists[1].probabilities.tolist()


class TestVocabulary:
    def test_union(self):
        vocab = build_vocabulary([{"a": 1, "b": 2}, {"b": 1, "c": 3}])
        assert vocab.phonemes == ("a", "b", "c")

    def test_single_map(self):
        assert build_vocabulary([{"b": 1, "a": 2}]).phonemes == ("a", "b")

    def test_many_maps_equal_set_oracle(self):
        rng = random.Random(9)
        pool = ["a", "b", "t͡ʃ", "ʒ", "k", "uː", "m", "n"]
        maps = [{rng.choice(pool): 1 for _ in range(rng.randrange(6))}
                for _ in range(22)]
        expected = set()
        for m in maps:
            expected |= set(m)
        assert build_vocabulary(maps).phonemes == tuple(sorted(expected))

    def test_unsorted_construction_rejected(self):
        with pytest.raises(DataError):
            Vocabulary(("b", "a"))


class TestDistribution:
    def test_arithmetic(self):
        vocab = Vocabulary(("a", "b", "c"))
        d = to_distribution(Counter({"a": 2, "b": 1}), vocab, "x")
        assert np.allclose(d.probabilities, [2 / 3, 1 / 3, 0.0])
        assert d.total_count == 3

    def test_empty_counts(self):
        vocab = Vocabulary(("a", "b"))
        d = to_distribution(Counter(), vocab)
        assert d.total_count == 0
        assert not d.probabilities.any()

    def test_probabilities_sum_to_one(self):
        rng = random.Random(2)
        vocab = Vocabulary(tuple("abcdefgh"))
        for _ in range(50):
            counts = Counter({c: rng.randrange(1, 100)
                              for c in rng.sample("abcdefgh", rng.randrange(1, 9))})
            d = to_distribution(counts, vocab)
            assert abs(d.probabilities.sum() - 1.0) <= 1e-9

    def test_out_of_vocabulary_named(self):
        vocab = Vocabulary(("a",))
        with pytest.raises(DataError) as exc:
            to_distribution(Counter({"z": 1}), vocab)
        assert "z" in str(exc.value)


class TestCosine:
    def test_self_similarity(self):
        d = dist([0.2, 0.5, 0.3])
        assert abs(cosine_similarity(d, d) - 1.0) <= 1e-12

    def test_orthogonal(self):
        assert cosine_similarity(dist([1, 0]), dist([0, 1])) == 0.0

    def test_derived_example_against_oracle(self):
        a = [0.5, 0.5, 0.0]
        b = [0.5, 0.25, 0.25]
        got = cosine_similarity(dist(a), dist(b))
        assert abs(got - cosine_oracle(a, b)) <= 1e-12

    def test_zero_vector_names_language(self):
        with pytest.raises(DataError) as exc:
            cosine_similarity(dist([0, 0], "emptylang"), dist([1, 0]))
        assert "emptylang" in str(exc.value)

    def test_vocabulary_mismatch(self):
        with pytest.raises(DataError):
            cosine_similarity(dist([1, 0]), dist([1, 0, 0]))

    def test_scale_invariance(self):
        rng = random.Random(13)
        for _ in range(100):
            x = [rng.random() for _ in range(6)]
            k = rng.uniform(0.01, 100)
            base = cosine_similarity(dist(x), dist([1, 2, 3, 4, 5, 6]))
            scaled = cosine_similarity(dist([k * v for v in x]),
                                       dist([1, 2, 3, 4, 5, 6]))
            assert abs(base - scaled) <= 1e-12

    def test_range_clamped(self):
        rng = random.Random(17)
        for _ in range(200):
            x = dist([rng.random() for _ in range(4)])
            y = dist([rng.random() for _ in range(4)])
            assert 0.0 <= cosine_similarity(x, y) <= 1.0


class TestMatrix:
    def test_identical_pair(self):
        d1 = dist([0.5, 0.5], "a")
        d2 = dist([0.5, 0.5], "b")
        m = similarity_matrix([d1, d2])
        assert np.allclose(m.values, np.ones((2, 2)), atol=1e-12)
        assert m.values[0, 0] == 1.0 and m.values[1, 1] == 1.0

    def test_orthogonal_pair(self):
        m = similarity_matrix([dist([1, 0], "a"), dist([0, 1], "b")])
        assert np.array_equal(m.values, np.eye(2))

    def test_against_bruteforce(self):
        rng = random.Random(23)
        dists = [dist([rng.random() for _ in range(7)], f"l{i}") for i in range(5)]
        m = similarity_matrix(dists)
        for i in range(5):
            for j in range(5):
                if i == j:
                    assert m.values[i, j] == 1.0
                else:
                    expected = cosine_oracle(list(dists[i].probabilities),
                                             list(dists[j].probabilities))
                    assert abs(m.values[i, j] - expected) <= 1e-12

    def test_exact_symmetry_and_unit_diagonal(self):
        rng = random.Random(29)
        dists = [dist([rng.random() for _ in range(5)], f"l{i}") for i in range(6)]
        m = similarity_matrix(dists)
        assert np.array_equal(m.values, m.values.T)
        assert all(m.values[i, i] == 1.0 for i in range(6))

    def test_needs_two(self):
        with pytest.raises(DataError):
            similarity_matrix([dist([1.0], "a")])

    def test_zero_vector_propagates_language(self):
        with pytest.raises(DataError) as exc:
            similarity_matrix([dist([1, 0], "good"), dist([0, 0], "bad")])
        assert "bad" in str(exc.value)

    def test_duplicate_codes_rejected(self):
        with pytest.raises(DataError):
            similarity_matrix([dist([1, 0], "a"), dist([0, 1], "a")])

    def test_csv_round_trip(self, tmp_path):
        rng = random.Random(31)
        dists = [dist([rng.random() for _ in range(4)], f"l{i}") for i in range(4)]
        m = similarity_matrix(dists)
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
        vocab = Vocabulary(("a", "b"))
        dists = [to_distribution(Counter({"a": 1}), vocab, "x"),
                 to_distribution(Counter({"b": 3}), vocab, "y")]
        path = tmp_path / "d.csv"
        write_distributions_csv(dists, vocab, path)
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == "code,a,b"
        assert "x,1,0" in text


class TestFamilyMeans:
    def test_basic_grouping(self):
        d = [dist([1, 0, 0], "a1"), dist([0.9, 0.1, 0], "a2"),
             dist([0, 1, 0], "b1"), dist([0, 0.2, 0.8], "b2")]
        m = similarity_matrix(d)
        rows = family_mean_similarities(
            m, {"a1": "A", "a2": "A", "b1": "B", "b2": "B"})
        by_family = {fam: mean for fam, mean, _ in rows}
        assert set(by_family) == {"A", "B"}
        assert by_family["A"] > by_family["B"]
        assert rows[0][0] == "A"  # sorted by descending mean

    def test_singleton_families_skipped(self):
        d = [dist([1, 0], "a1"), dist([0, 1], "b1")]
        m = similarity_matrix(d)
        assert family_mean_similarities(m, {"a1": "A", "b1": "B"}) == []

    def test_unknown_code_warns(self):
        d = [dist([1, 0], "a1"), dist([0, 1], "zz")]
        m = similarity_matrix(d)
        with pytest.warns(UserWarning):
            family_mean_similarities(m, {"a1": "A"})
