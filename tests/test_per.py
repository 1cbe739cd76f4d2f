import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonosim.errors import DataError
from phonosim.per import _edit_counts_all, corpus_per


def edit_counts(reference, hypothesis):
    """(S, I, D) of one pair, through the batched kernel."""
    return _edit_counts_all([(reference, hypothesis)])[0]


def total_errors(report):
    return report.substitutions + report.insertions + report.deletions


def distance_oracle(ref, hyp):
    """Independent full-matrix recurrence (numpy, distance only)."""
    n, m = len(ref), len(hyp)
    d = np.zeros((n + 1, m + 1), dtype=int)
    d[:, 0] = np.arange(n + 1)
    d[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            d[i, j] = min(d[i - 1, j] + 1,
                          d[i, j - 1] + 1,
                          d[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1]))
    return int(d[n, m])


ALPHABET = ["a", "b", "c", "d", "e"]


class TestPer:
    def test_identity_zero(self):
        assert corpus_per([(list("abc"), list("abc"))]).per_percent == 0.0

    def test_single_substitution_25(self):
        report = corpus_per([(list("abcd"), list("axcd"))])
        assert report.substitutions == 1
        assert report.insertions == 0
        assert report.deletions == 0
        assert report.per_percent == 25.0

    def test_empty_hypothesis_all_deletions(self):
        report = corpus_per([(list("abc"), [])])
        assert report.deletions == 3
        assert report.per_percent == 100.0

    def test_empty_reference_rejected(self):
        with pytest.raises(DataError):
            corpus_per([([], list("a"))])

    def test_multicodepoint_phoneme_single_edit(self):
        report = corpus_per([(["a", "t͡ʃ", "c", "d"], ["a", "k", "c", "d"])])
        assert report.substitutions == 1
        assert total_errors(report) == 1
        assert report.per_percent == 25.0

    def test_can_exceed_100(self):
        report = corpus_per([(["a"], ["b", "c", "d"])])
        assert report.per_percent > 100.0

    def test_matches_dp_oracle(self):
        rng = random.Random(61)
        for _ in range(200):
            ref = [rng.choice(ALPHABET) for _ in range(rng.randint(1, 8))]
            hyp = [rng.choice(ALPHABET) for _ in range(rng.randint(0, 8))]
            report = corpus_per([(ref, hyp)])
            assert total_errors(report) == distance_oracle(ref, hyp)

    def test_counts_are_consistent(self):
        rng = random.Random(67)
        for _ in range(200):
            ref = [rng.choice(ALPHABET) for _ in range(rng.randint(1, 8))]
            hyp = [rng.choice(ALPHABET) for _ in range(rng.randint(0, 8))]
            s, i, d = edit_counts(ref, hyp)
            # alignment consumes the reference through subs/matches/deletions
            assert s + d <= len(ref)
            assert len(hyp) == len(ref) + i - d


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(ALPHABET), min_size=0, max_size=8),
       st.lists(st.sampled_from(ALPHABET), min_size=0, max_size=8))
def test_distance_symmetric(a, b):
    assert sum(edit_counts(a, b)) == sum(edit_counts(b, a))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(ALPHABET), max_size=6),
       st.lists(st.sampled_from(ALPHABET), max_size=6),
       st.lists(st.sampled_from(ALPHABET), max_size=6))
def test_triangle_inequality(a, b, c):
    ab = sum(edit_counts(a, b))
    bc = sum(edit_counts(b, c))
    ac = sum(edit_counts(a, c))
    assert ac <= ab + bc


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=8),
       st.lists(st.sampled_from(ALPHABET), max_size=8))
def test_reversal_swaps_insertions_and_deletions_in_total(a, b):
    # error-type labels may differ per direction (both alignments are
    # minimal), but the swapped counts must describe the same lengths
    s1, i1, d1 = edit_counts(a, b)
    s2, i2, d2 = edit_counts(b, a)
    assert s1 + i1 + d1 == s2 + i2 + d2
    assert len(b) - len(a) == i1 - d1 == d2 - i2


class TestCorpus:
    def test_micro_average_example(self):
        pairs = [(list("abcd"), list("axcd")), (list("efgh"), list("efgh"))]
        report = corpus_per(pairs)
        assert report.per_percent == 12.5
        assert report.reference_length == 8

    def test_macro_average_differs(self):
        pairs = [(list("ab"), list("xx")), (list("abcdef"), list("abcdef"))]
        micro = corpus_per(pairs)
        macro = corpus_per(pairs, macro=True)
        assert micro.per_percent == 25.0
        assert macro.per_percent == 50.0

    def test_pooled_counts_oracle(self):
        rng = random.Random(71)
        pairs = []
        for _ in range(50):
            ref = [rng.choice(ALPHABET) for _ in range(rng.randint(1, 8))]
            hyp = [rng.choice(ALPHABET) for _ in range(rng.randint(0, 8))]
            pairs.append((ref, hyp))
        report = corpus_per(pairs)
        total_errors = sum(sum(edit_counts(r, h)) for r, h in pairs)
        total_ref = sum(len(r) for r, _ in pairs)
        assert report.per_percent == 100.0 * total_errors / total_ref

    def test_empty_pair_list(self):
        with pytest.raises(DataError):
            corpus_per([])

    def test_empty_reference_names_pair(self):
        with pytest.raises(DataError) as exc:
            corpus_per([(list("ab"), list("ab")), ([], list("x"))])
        assert "2" in str(exc.value)
