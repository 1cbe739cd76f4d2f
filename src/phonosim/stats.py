"""Per-language phoneme distributions and pairwise cosine similarity.

Counting is unigram: each language's phoneme counts (a Counter, as
`pipeline.count_corpora` gives them) become one row of probabilities
over a shared, codepoint-sorted phoneme axis (`Distributions`).
Similarity between two languages is the cosine of their rows, so the
measure is invariant to corpus size.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParseError
from .formats import csv_cell, csv_rows, fmt_float, write_lines
from .registry import code_rows


@dataclass(frozen=True)
class Distributions:
    """Unigram phoneme probabilities: row i is language codes[i], column j
    is phonemes[j] (the shared, codepoint-sorted phoneme axis)."""

    codes: tuple
    phonemes: tuple
    probabilities: np.ndarray

    def __post_init__(self):
        if tuple(sorted(set(self.phonemes))) != tuple(self.phonemes):
            raise DataError("vocabulary must be sorted and duplicate-free")
        probabilities = np.asarray(self.probabilities, dtype=float)
        shape = (len(self.codes), len(self.phonemes))
        if probabilities.shape != shape:
            raise DataError(f"distributions use different vocabularies "
                            f"(shape {probabilities.shape}, expected {shape})")
        for code, row in zip(self.codes, probabilities):
            if not row.any():
                raise DataError("similarity undefined: zero phoneme vector "
                                f"for language {code!r}")
        object.__setattr__(self, "probabilities", probabilities)


@dataclass(frozen=True)
class SimilarityMatrix:
    codes: tuple
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "_index", {c: i for i, c in enumerate(self.codes)})
        if len(self._index) != len(self.codes):
            duplicate = next(c for c in self.codes if self.codes.count(c) > 1)
            raise DataError(f"duplicate language code {duplicate!r}")

    def index(self, code):
        try:
            return self._index[code]
        except KeyError:
            raise DataError(f"unknown language code {code!r}") from None


def phoneme_distributions(counts) -> Distributions:
    """Distributions of `counts` (code -> Counter of phoneme tokens), in its
    order; each probability is count / total. Languages without phonemes
    are dropped with a warning; fewer than 2 left is an error."""
    for code in [code for code, c in counts.items() if not c]:
        warnings.warn(f"language {code!r} has an empty corpus; excluded")
    counts = {code: c for code, c in counts.items() if c}
    if len(counts) < 2:
        raise DataError("need at least 2 languages with nonempty corpora")
    phonemes = tuple(sorted(set().union(*counts.values())))
    column = {p: j for j, p in enumerate(phonemes)}
    probabilities = np.zeros((len(counts), len(phonemes)))
    for row, c in zip(probabilities, counts.values()):
        total = sum(c.values())
        for phoneme, n in c.items():
            row[column[phoneme]] = n / total
    return Distributions(tuple(counts), phonemes, probabilities)


def similarity_matrix(dists: Distributions) -> SimilarityMatrix:
    """Symmetric matrix of cos(p_A, p_B) = p_A·p_B / (||p_A|| ||p_B||),
    clamped into [0, 1]; each norm and each pair computed once."""
    n = len(dists.codes)
    rows = dists.probabilities
    norms = [float(np.linalg.norm(row)) for row in rows]
    values = np.zeros((n, n))
    for i in range(n):
        values[i, i] = 1.0
        for j in range(i + 1, n):
            v = float(np.dot(rows[i], rows[j]) / (norms[i] * norms[j]))
            values[i, j] = values[j, i] = min(1.0, max(0.0, v))
    return SimilarityMatrix(dists.codes, values)


def family_mean_similarities(matrix: SimilarityMatrix, families) -> list:
    """Mean off-diagonal similarity inside each family with >= 2 languages.

    families maps every matrix code -> family name. Returns (family,
    mean, n) tuples sorted by descending mean.
    """
    groups: dict = {}
    for i, code in enumerate(matrix.codes):
        groups.setdefault(families[code], []).append(i)
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


def write_distributions_csv(dists: Distributions, path):
    lines = ["code," + ",".join(map(csv_cell, dists.phonemes))]
    for code, row in zip(dists.codes, dists.probabilities):
        lines.append(code + "," + ",".join(fmt_float(p) for p in row))
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
    # row labels must equal the header codes, so code_rows checks those too
    for i, (line_no, code, cells) in enumerate(code_rows(body, path, n + 1)):
        if code != codes[i]:
            raise ParseError(
                f"row label {code!r} does not match column label {codes[i]!r}",
                path, line_no)
        try:
            values[i] = [float(cell) for cell in cells]
        except ValueError:
            raise ParseError("non-numeric matrix entry", path, line_no) from None
        if not np.isfinite(values[i]).all():
            raise ParseError("non-finite matrix entry", path, line_no)
    return SimilarityMatrix(codes, values)
