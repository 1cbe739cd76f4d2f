"""Binary typological feature matrices and their 2D projection.

The loader accepts Grambank-style CSV with cells in {0, 1, ?}. Model-based
imputation is expected to happen upstream (the published matrices ship
with predicted values); `column_mode` is a deliberately simple fallback
for matrices that still have holes. The projection of the completed
matrix is pca.pca_project, as for a similarity matrix.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParseError
from .formats import csv_rows
from .registry import code_rows

IMPUTE_METHODS = ("none", "column_mode")


@dataclass
class FeatureMatrix:
    language_ids: tuple
    feature_ids: tuple
    values: np.ndarray  # (N, D) floats; 0.0 / 1.0 / NaN for missing


def load_feature_matrix(path) -> FeatureMatrix:
    """Read a feature CSV: first column language id, header of feature ids.

    Language ids are checked by code_rows, as registry codes are; feature
    ids must be nonempty and unique. Rows or columns that are entirely
    missing are dropped with a warning; any cell outside {0, 1, ?} (empty
    counts as ?) is an error.
    """
    rows = csv_rows(path)
    if len(rows) < 2:
        raise ParseError("feature matrix needs a header and at least one row", path)
    header_line, header = rows[0]
    feature_ids = [c.strip() for c in header[1:]]
    if not feature_ids:
        raise ParseError("no feature columns", path, header_line)
    first_column = {}
    for column, feature in enumerate(feature_ids, start=2):
        if not feature:
            raise ParseError(f"empty feature id in column {column}", path, header_line)
        if feature in first_column:
            raise ParseError(f"duplicate feature id {feature!r} (first seen in column "
                             f"{first_column[feature]})", path, header_line)
        first_column[feature] = column

    language_ids = []
    data = []
    for line_no, lang, cells in code_rows(rows[1:], path, len(feature_ids) + 1):
        values = []
        for col, cell in enumerate(cells):
            cell = cell.strip()
            if cell in ("", "?"):
                values.append(np.nan)
            elif cell == "0":
                values.append(0.0)
            elif cell == "1":
                values.append(1.0)
            else:
                raise ParseError(
                    f"value {cell!r} for language {lang!r}, feature "
                    f"{feature_ids[col]!r} is not 0, 1 or ?", path, line_no)
        language_ids.append(lang)
        data.append(values)

    matrix = np.array(data, dtype=float)

    keep_rows = ~np.isnan(matrix).all(axis=1)
    for i in np.flatnonzero(~keep_rows):
        warnings.warn(f"language {language_ids[int(i)]!r} has no known values; dropped")
    matrix = matrix[keep_rows]
    language_ids = [l for l, keep in zip(language_ids, keep_rows) if keep]

    keep_cols = ~np.isnan(matrix).all(axis=0) if matrix.size else np.array([], bool)
    for j in np.flatnonzero(~keep_cols):
        warnings.warn(f"feature {feature_ids[int(j)]!r} has no known values; dropped")
    matrix = matrix[:, keep_cols]
    feature_ids = [f for f, keep in zip(feature_ids, keep_cols) if keep]

    if matrix.size == 0:
        raise ParseError("nothing left after dropping fully-missing rows/columns", path)
    return FeatureMatrix(tuple(language_ids), tuple(feature_ids), matrix)


def impute(fm: FeatureMatrix, method) -> np.ndarray:
    """A complete binary copy of the matrix.

    'none' demands completeness and reports how many cells are missing.
    'column_mode' fills each hole with its column's majority value, ties
    going to 0.
    """
    if method not in IMPUTE_METHODS:
        raise DataError(f"unknown imputation method {method!r}")
    values = fm.values.copy()
    missing = np.isnan(values)
    if method == "none":
        if missing.any():
            raise DataError(
                f"matrix has {int(missing.sum())} missing entries; "
                "impute upstream or use column_mode")
        return values
    for j in range(values.shape[1]):
        hole = missing[:, j]
        if not hole.any():
            continue
        col = values[:, j][~hole]
        ones = int((col == 1.0).sum())
        zeros = int(col.size - ones)
        values[hole, j] = 1.0 if ones > zeros else 0.0
    return values
