"""Per-language phoneme statistics and pairwise cosine similarity.

Counting is unigram: the corpus is converted to phoneme sequences and
token frequencies become probability vectors over a shared, codepoint-
sorted vocabulary. Similarity between two languages is the cosine of
their distribution vectors, so the measure is invariant to corpus size.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParseError
from .formats import csv_cell, csv_rows, fmt_float, write_lines


@dataclass(frozen=True)
class Vocabulary:
    """Sorted global phoneme axis shared by all distribution vectors."""

    phonemes: tuple

    def __post_init__(self):
        ordered = tuple(sorted(set(self.phonemes)))
        if ordered != tuple(self.phonemes):
            raise DataError("vocabulary must be sorted and duplicate-free")
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(self.phonemes)})

    def __len__(self):
        return len(self.phonemes)

    def __contains__(self, phoneme):
        return phoneme in self._index

    def index(self, phoneme):
        try:
            return self._index[phoneme]
        except KeyError:
            raise DataError(f"phoneme {phoneme!r} not in vocabulary") from None


@dataclass(frozen=True)
class PhonemeDistribution:
    language_code: str
    probabilities: np.ndarray
    total_count: int


@dataclass(frozen=True)
class SimilarityMatrix:
    codes: tuple
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "_index", {c: i for i, c in enumerate(self.codes)})

    def index(self, code):
        try:
            return self._index[code]
        except KeyError:
            raise DataError(f"unknown language code {code!r}") from None


def build_vocabulary(count_maps) -> Vocabulary:
    keys = set()
    for counts in count_maps:
        keys.update(counts.keys())
    return Vocabulary(tuple(sorted(keys)))


def to_distribution(counts, vocab: Vocabulary, language_code="") -> PhonemeDistribution:
    """Probability vector aligned to the vocabulary; zero vector when empty."""
    vec = np.zeros(len(vocab))
    total = sum(counts.values())
    if total > 0:
        for phoneme, count in counts.items():
            vec[vocab.index(phoneme)] = count / total
    else:
        for phoneme in counts:
            vocab.index(phoneme)  # still reject out-of-vocabulary keys
    return PhonemeDistribution(language_code, vec, int(total))


def cosine_similarity(a: PhonemeDistribution, b: PhonemeDistribution) -> float:
    """cos(p_A, p_B) = p_A·p_B / (||p_A|| ||p_B||), clamped into [0, 1]."""
    va, vb = a.probabilities, b.probabilities
    if va.shape != vb.shape:
        raise DataError(
            f"distributions use different vocabularies "
            f"({va.shape[0]} vs {vb.shape[0]} phonemes)")
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        empty = a.language_code if na == 0.0 else b.language_code
        raise DataError(
            f"similarity undefined: zero phoneme vector for language {empty!r}")
    value = float(np.dot(va, vb) / (na * nb))
    return min(1.0, max(0.0, value))


def similarity_matrix(dists) -> SimilarityMatrix:
    """Symmetric cosine matrix; each pair computed once and mirrored."""
    dists = list(dists)
    if len(dists) < 2:
        raise DataError("similarity matrix needs at least 2 languages")
    codes = tuple(d.language_code for d in dists)
    if len(set(codes)) != len(codes):
        raise DataError("duplicate language codes among distributions")
    n = len(dists)
    values = np.zeros((n, n))
    for i in range(n):
        values[i, i] = 1.0
        for j in range(i + 1, n):
            v = cosine_similarity(dists[i], dists[j])
            values[i, j] = v
            values[j, i] = v
    return SimilarityMatrix(codes, values)


def family_mean_similarities(matrix: SimilarityMatrix, families) -> list:
    """Mean off-diagonal similarity inside each family with >= 2 languages.

    families maps code -> family name; matrix languages without a family
    entry are skipped with a warning. Returns (family, mean, n) tuples
    sorted by descending mean.
    """
    groups: dict = {}
    for code in matrix.codes:
        family = families.get(code)
        if family is None:
            warnings.warn(f"no family known for language {code!r}; skipped")
            continue
        groups.setdefault(family, []).append(matrix.index(code))
    rows = []
    for family in sorted(groups):
        idx = groups[family]
        if len(idx) < 2:
            continue
        pair_values = [matrix.values[i, j]
                       for k, i in enumerate(idx) for j in idx[k + 1:]]
        rows.append((family, float(np.mean(pair_values)), len(idx)))
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows


def write_distributions_csv(dists, vocab: Vocabulary, path):
    lines = ["code," + ",".join(map(csv_cell, vocab.phonemes))]
    for d in dists:
        lines.append(d.language_code + "," + ",".join(fmt_float(p) for p in d.probabilities))
    write_lines(path, lines)


def write_matrix_csv(matrix: SimilarityMatrix, path):
    lines = ["," + ",".join(matrix.codes)]
    for i, code in enumerate(matrix.codes):
        lines.append(code + "," + ",".join(fmt_float(v) for v in matrix.values[i]))
    write_lines(path, lines)


def read_matrix_csv(path) -> SimilarityMatrix:
    rows = csv_rows(path)
    body = rows[1:]
    if len(body) < 2:
        raise ParseError("matrix file needs a header and at least 2 rows", path)
    codes = tuple(c.strip() for c in rows[0][1][1:])
    n = len(codes)
    values = np.zeros((n, n))
    if len(body) != n:
        raise ParseError(f"expected {n} data rows, got {len(body)}", path)
    for i, (line_no, row) in enumerate(body):
        if len(row) != n + 1:
            raise ParseError(f"expected {n + 1} fields", path, line_no)
        if row[0].strip() != codes[i]:
            raise ParseError(
                f"row label {row[0]!r} does not match column label {codes[i]!r}",
                path, line_no)
        try:
            values[i] = [float(cell) for cell in row[1:]]
        except ValueError:
            raise ParseError("non-numeric matrix entry", path, line_no) from None
        if not np.isfinite(values[i]).all():
            raise ParseError("non-finite matrix entry", path, line_no)
    return SimilarityMatrix(codes, values)
