"""Dense PCA projection with a deterministic sign convention.

Columns are mean-centered (not standardized) and the rows are projected
onto the top right singular directions of the centered matrix. Each
component's sign is fixed by making its largest-magnitude coordinate
positive (ties broken by lower row index), so repeated runs are
bit-identical even though PCA orientation is arbitrary.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParseError
from .formats import csv_cell, csv_rows, fmt_float, write_lines
from .registry import code_rows

# the components every projection keeps: a map's x and y
_DIMS = 2


@dataclass(frozen=True)
class Projection2D:
    codes: tuple
    coords: np.ndarray           # (N, 2)
    explained_variance: tuple    # fraction of total variance per component


def pca_project(rows, ids) -> Projection2D:
    """Project N x D rows to the top two principal components.

    Degenerate input (all rows identical) yields all-zero coordinates and
    zero explained variance rather than an error. Rows is 2D with one id
    per row; a centering or variance that no float holds is a DataError.
    """
    X = np.asarray(rows, dtype=float)
    n, d = X.shape
    ids = tuple(ids)
    if n < 2:
        raise DataError("PCA needs at least 2 rows")
    if d < _DIMS:
        raise DataError(f"cannot extract {_DIMS} components from {d} columns")
    with np.errstate(all="ignore"):
        centered = X - X.mean(axis=0)
    if not np.isfinite(centered).all():
        raise DataError("matrix values too large to center in a float")
    if not centered.any():
        return Projection2D(ids, np.zeros((n, _DIMS)), (0.0,) * _DIMS)

    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    with np.errstate(all="ignore"):
        total = float((s ** 2).sum())
    if not (math.isfinite(total) and total > 0):
        raise DataError("the matrix variance does not fit in a float")
    coords = centered @ vt[:_DIMS].T
    explained = tuple(float(v) for v in (s[:_DIMS] ** 2) / total)

    for c in range(_DIMS):
        col = coords[:, c]
        peak = int(np.argmax(np.abs(col)))  # first index on ties
        if col[peak] < 0:
            coords[:, c] = -col
    return Projection2D(ids, coords, explained)


def write_coords_csv(proj: Projection2D, path, families=None):
    """Export `id,x,y,ev1,ev2` rows, plus a family column (a CSV cell,
    quoted where needed) when given."""
    header = "id,x,y,ev1,ev2"
    if families is not None:
        header += ",family"
    ev = [fmt_float(v) for v in proj.explained_variance[:2]]
    lines = [header]
    for code, (x, y) in zip(proj.codes, proj.coords):
        row = [code, fmt_float(x), fmt_float(y), ev[0], ev[1]]
        if families is not None:
            row.append(csv_cell(families.get(code, "")))
        lines.append(",".join(row))
    write_lines(path, lines)


def read_coords_csv(path):
    """Read (codes, coords array) back from a coordinates CSV."""
    rows = csv_rows(path)
    if not rows or rows[0][1][:3] != ["id", "x", "y"]:
        raise ParseError("expected header starting with id,x,y", path,
                         rows[0][0] if rows else 1)
    codes = []
    points = []
    for line_no, code, cells in code_rows(rows[1:], path, 3, at_least=True):
        try:
            x, y = float(cells[0]), float(cells[1])
        except ValueError:
            raise ParseError("non-numeric coordinate", path, line_no) from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError("non-finite coordinate", path, line_no)
        codes.append(code)
        points.append((x, y))
    return tuple(codes), np.array(points, dtype=float)
