"""Weighted 2D Gaussian KDE and level-set contour extraction.

The density estimate is the separable product-kernel form

    f(x, y) = 1 / (N h_x h_y) * sum_i w_i K((x - x_i)/h_x) K((y - y_i)/h_y)

with standard-normal K. Weights are expected to average one so that the
1/N prefactor still yields a unit-mass density; build them from recording
hours with weights_from_hours(). Bandwidths come from the per-axis
Gaussian-reference rule 1.06 * sigma_w * N^(-1/5), with a robust
min(sigma, IQR/1.34) variant behind a flag.

Contours are extracted by marching squares over a rasterized grid, with
linear interpolation along cell edges and saddle cells disambiguated by
the cell-center sample (mean of the four corners).

rasterize() sums every cell exactly, on one thread, one block of rows at
a time. contour_grid() returns the same grid for one contour level at a
fraction of the cost: it estimates all cells with one matrix product and
keeps rasterize's exact value only in the cells marching squares reads
(the maximum, cells near the level, and the corners of every cell the
level crosses), each found through a rigorous bound on the estimate's
rounding error. Its contract is that extract_contours() on its grid
returns exactly what it returns on rasterize's grid; the other cells hold
the estimate.
"""

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .formats import round_float, write_lines

TWO_PI = 2.0 * math.pi
GAUSSIAN_REFERENCE_FACTOR = 1.06
ROBUST_FACTOR = 0.9
# kept/used when an axis has zero spread: max(1e-6, 1e-3 * other axis range)
_FALLBACK_MIN = 1e-6
_FALLBACK_SCALE = 1e-3
# grid margin beyond the data extent, in bandwidths per axis
PADDING_BANDWIDTHS = 3.0
# size of the product buffer that an exact fill or gather works through
_BLOCK_BYTES = 4 << 20
# |estimate - exact| <= _ERROR_FACTOR * (N + 2) * (_UNIT_ROUNDOFF * estimate
# + _NORMAL_MIN * (1 + 1/norm)) for contour_grid's matmul estimate
_ERROR_FACTOR = 4
_UNIT_ROUNDOFF = 2.0 ** -53
_NORMAL_MIN = 2.0 ** -1022


def weights_from_hours(hours) -> np.ndarray:
    """Mean-one weights proportional to recording hours."""
    arr = np.asarray(hours, dtype=float)
    if arr.size == 0:
        raise DataError("no hours given")
    if not np.isfinite(arr).all():
        raise DataError("hours must be finite")
    if (arr <= 0).any():
        raise DataError("weights require strictly positive hours")
    return arr.size * arr / arr.sum()


@dataclass
class KDEParams:
    h_x: float
    h_y: float
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if not all(math.isfinite(h) and h > 0 for h in (self.h_x, self.h_y)):
            raise DataError("bandwidths must be finite and positive")
        if self.weights.ndim != 1 or self.weights.size == 0:
            raise DataError("weights must be a nonempty vector")
        if not np.isfinite(self.weights).all():
            raise DataError("weights must be finite")
        if (self.weights <= 0).any():
            raise DataError("weights must be strictly positive")
        if abs(float(self.weights.mean()) - 1.0) > 1e-9:
            raise DataError("weights must average 1 (see weights_from_hours)")

    @property
    def n_points(self):
        return int(self.weights.size)


def _weighted_std(x, w):
    wsum = float(w.sum())
    mean = float((w * x).sum() / wsum)
    return math.sqrt(float((w * (x - mean) ** 2).sum() / wsum))


def _weighted_quantile(x, w, q):
    order = np.argsort(x, kind="stable")
    xs = x[order]
    ws = w[order]
    cum = np.cumsum(ws) - 0.5 * ws
    return float(np.interp(q * ws.sum(), cum, xs))


def silverman_bandwidths(coords, weights=None, robust=False):
    """Per-axis bandwidths (h_x, h_y) for >= 2 weighted points.

    Default: 1.06 * sigma_w * N^(-1/5) with the weighted (population-style)
    standard deviation. robust=True uses 0.9 * min(sigma_w, IQR_w/1.34) *
    N^(-1/5) instead. A zero-spread axis falls back to
    max(1e-6, 1e-3 * range of the other axis).
    """
    pts = np.asarray(coords, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DataError("coords must be an (N, 2) array")
    n = pts.shape[0]
    if n < 2:
        raise DataError("bandwidth selection needs at least 2 points")
    if weights is None:
        w = np.ones(n)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (n,):
            raise DataError("weights must match the number of points")
        if (w <= 0).any():
            raise DataError("weights must be strictly positive")

    n_factor = n ** (-0.2)
    spans = [float(pts[:, a].max() - pts[:, a].min()) for a in (0, 1)]
    bandwidths = []
    for axis in (0, 1):
        sigma = _weighted_std(pts[:, axis], w)
        if robust:
            iqr = (_weighted_quantile(pts[:, axis], w, 0.75)
                   - _weighted_quantile(pts[:, axis], w, 0.25))
            scale = min(sigma, iqr / 1.34)
            h = ROBUST_FACTOR * scale * n_factor
        else:
            h = GAUSSIAN_REFERENCE_FACTOR * sigma * n_factor
        if h <= 0:
            h = max(_FALLBACK_MIN, _FALLBACK_SCALE * spans[1 - axis])
        bandwidths.append(h)
    return bandwidths[0], bandwidths[1]


def _gaussian_kernel(centers, samples, h):
    """exp(-d*d/2) for d = (centers[:, None] - samples[None, :]) / h."""
    d = (np.asarray(centers, dtype=float)[:, None] - samples[None, :]) / h
    return np.exp(-0.5 * d * d)


def _norm(params: KDEParams):
    return params.n_points * params.h_x * params.h_y * TWO_PI


def kde_density(point, coords, params: KDEParams) -> float:
    """Density at one point, straight from the product-kernel sum."""
    pts = np.asarray(coords, dtype=float)
    if pts.shape != (params.n_points, 2):
        raise DataError(
            f"expected {params.n_points} coordinate pairs, got shape {pts.shape}")
    kernel = (_gaussian_kernel([point[0]], pts[:, 0], params.h_x)[0]
              * _gaussian_kernel([point[1]], pts[:, 1], params.h_y)[0])
    return float((params.weights * kernel).sum() / _norm(params))


@dataclass
class DensityGrid:
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    resolution: int
    values: np.ndarray  # values[i, j] = density at (x_centers[i], y_centers[j])

    @property
    def cell_width(self):
        return (self.x_max - self.x_min) / self.resolution

    @property
    def cell_height(self):
        return (self.y_max - self.y_min) / self.resolution

    @property
    def x_centers(self):
        return self.x_min + (np.arange(self.resolution) + 0.5) * self.cell_width

    @property
    def y_centers(self):
        return self.y_min + (np.arange(self.resolution) + 0.5) * self.cell_height

    def integrated_mass(self):
        return float(self.values.sum() * self.cell_width * self.cell_height)


def _grid_and_kernels(coords, params: KDEParams, resolution):
    """The padded grid (values unset) and the per-axis kernel factors
    kx[i, n] = K((x_i - x_n)/h_x), ky[j, n] = K((y_j - y_n)/h_y)."""
    resolution = int(resolution)
    if resolution < 16:
        raise DataError("resolution must be at least 16")
    pts = np.asarray(coords, dtype=float)
    if pts.shape != (params.n_points, 2):
        raise DataError(
            f"expected {params.n_points} coordinate pairs, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise DataError("coordinates must be finite")
    x_min = float(pts[:, 0].min()) - PADDING_BANDWIDTHS * params.h_x
    x_max = float(pts[:, 0].max()) + PADDING_BANDWIDTHS * params.h_x
    y_min = float(pts[:, 1].min()) - PADDING_BANDWIDTHS * params.h_y
    y_max = float(pts[:, 1].max()) + PADDING_BANDWIDTHS * params.h_y

    grid = DensityGrid(x_min, x_max, y_min, y_max, resolution,
                       np.empty((resolution, resolution)))
    kx = _gaussian_kernel(grid.x_centers, pts[:, 0], params.h_x)
    ky = _gaussian_kernel(grid.y_centers, pts[:, 1], params.h_y)
    return grid, kx, ky


def _fill_exact(grid, kx, ky, params: KDEParams):
    """Every cell of grid.values: sum_n weights[n] * kx[i, n] * ky[j, n] /
    norm, through one (rows, R, N) buffer of about _BLOCK_BYTES.

    Each cell reduces the same N products with the same np.sum over a
    contiguous points axis as _set_exact, so a cell does not depend on
    which of the two computed it.
    """
    values = grid.values
    rows = max(1, min(grid.resolution, _BLOCK_BYTES // ky.nbytes))
    buf = np.empty((rows,) + ky.shape)
    for lo in range(0, grid.resolution, rows):
        block = buf[:min(rows, grid.resolution - lo)]
        np.multiply(kx[lo:lo + len(block), None, :], ky[None], out=block)
        np.multiply(params.weights, block, out=block)
        np.sum(block, axis=-1, out=values[lo:lo + len(block)])
    values /= _norm(params)


def rasterize(coords, params: KDEParams, resolution=512) -> DensityGrid:
    """Sample the density at cell centers over the data extent padded by
    PADDING_BANDWIDTHS bandwidths per axis."""
    grid, kx, ky = _grid_and_kernels(coords, params, resolution)
    _fill_exact(grid, kx, ky, params)
    return grid


def _set_exact(grid, kx, ky, params: KDEParams, cells):
    """Overwrite the flat cell indices `cells` of grid.values with the
    values rasterize writes there: the same N products, the same np.sum
    over a contiguous points axis, the same division."""
    flat = grid.values.reshape(-1)
    norm = _norm(params)
    step = max(1, _BLOCK_BYTES // kx[0].nbytes)
    for lo in range(0, cells.size, step):
        chunk = cells[lo:lo + step]
        i, j = np.divmod(chunk, grid.resolution)
        block = kx[i] * ky[j]
        np.multiply(params.weights, block, out=block)
        flat[chunk] = np.sum(block, axis=-1) / norm


def _band(x, rel, floor):
    """(lo, hi) such that lo <= e <= hi for every estimate e whose exact
    value may lie on the other side of x, or may reach an estimate
    maximum x, given |e - exact| <= rel * e + floor.

    The exact conditions are (x - floor) / (1 + rel) <= e <= (x + floor) /
    (1 - rel), and e >= (x (1 - rel) - 2 floor) / (1 + rel) for the
    maximum; tripling rel and floor covers both with room to spare for the
    rounding of lo and hi themselves.
    """
    return (x - 3 * floor) * (1 - 3 * rel), (x + 3 * floor) * (1 + 3 * rel)


def contour_grid(coords, params: KDEParams, resolution=512, level=0.1,
                 relative=False):
    """The grid rasterize builds, exact wherever extract_contours reads,
    and the cutoff to extract at: `level`, or `level` times the grid
    maximum when `relative`.

    The whole grid is first estimated with one matrix product, E = (kx *
    w) @ ky.T / norm. Every term is nonnegative, so in any summation
    order (and with fused multiply-adds) E and the exact value V each lie
    within gamma_(N+2) = (N+2) u / (1 - (N+2) u) of the real density, u =
    2**-53 (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., ch. 3-4). Hence |E - V| <= c (N+2) (u E + floor) with c = 4,
    where floor = 2**-1022 (1 + 1/norm) bounds gradual underflow. Cells
    are then overwritten with V, computed as rasterize computes it, where
    E alone cannot decide:

    1. cells whose E is within the bound of max(E), so the grid maximum
       (used for `relative` and the below-level check) is exact;
    2. cells whose E is within the bound of the cutoff, so every cell is
       on the same side of it as in rasterize's grid;
    3. all four corners of every cell that is then mixed (some corners
       above the cutoff, some not): the crossing-edge endpoints and the
       saddle centres.

    extract_contours(grid, cutoff) reads nothing else, so its result is
    identical to the one on rasterize's grid. Every other cell holds the
    estimate. Steps 2-3 are skipped when the cutoff is not finite and
    positive (extract_contours rejects it) or exceeds the maximum (it
    reads only the maximum). A grid outside the range of the bound (norm
    below the smallest normal float, or an estimate that is not finite or
    near overflow) is computed whole, as rasterize does. A tiny level over
    a grid of zero densities puts nearly every cell in step 2, and
    gathering them costs up to about twice a rasterize.
    """
    grid, kx, ky = _grid_and_kernels(coords, params, resolution)
    norm = _norm(params)
    values = grid.values
    np.matmul(kx * params.weights, ky.T, out=values)
    row_peaks = values.max(axis=1)
    if norm < _NORMAL_MIN or not math.isfinite(2 * float(row_peaks.max()) / norm):
        _fill_exact(grid, kx, ky, params)
        return grid, level * float(values.max()) if relative else level
    # dividing by norm > 0 is monotone: row_peaks stay the row maxima
    values /= norm
    row_peaks /= norm
    peak = float(row_peaks.max())

    n = params.n_points
    rel = _ERROR_FACTOR * (n + 2) * _UNIT_ROUNDOFF
    floor = _ERROR_FACTOR * (n + 2) * _NORMAL_MIN * (1.0 + 1.0 / norm)
    lo = _band(peak, rel, floor)[0]
    rows = np.flatnonzero(row_peaks >= lo)
    r, c = np.nonzero(values[rows] >= lo)
    _set_exact(grid, kx, ky, params, rows[r] * grid.resolution + c)
    # every other cell's estimate is below the exact maximum
    top = float(values[rows].max())
    cutoff = level * top if relative else level
    cut = float(cutoff)
    if not (math.isfinite(cut) and 0 < cut <= top):
        return grid, cutoff

    lo, hi = _band(cut, rel, floor)
    flat = values.reshape(-1)
    _set_exact(grid, kx, ky, params, np.flatnonzero((flat >= lo) & (flat <= hi)))
    _, i, j = _mixed_cells(values, cut)
    node = i * grid.resolution + j
    corners = np.unique(np.concatenate(
        [node, node + 1, node + grid.resolution, node + grid.resolution + 1]))
    _set_exact(grid, kx, ky, params, corners)
    return grid, cutoff


@dataclass
class ContourSet:
    family: str
    level: float
    polylines: list = field(default_factory=list)  # (M, 2) arrays; closed iff first == last
    below_level: bool = False


def _mixed_cells(values, level):
    """The mask values > level and the (i, j) of every cell whose corners
    (i, j), (i+1, j), (i, j+1), (i+1, j+1) are not all on one side."""
    inside = values > level
    # corners not all equal: (i, j) differs from (i, j+1), or a column
    # edge (i, j)-(i+1, j) or (i, j+1)-(i+1, j+1) is crossed
    crossed = inside[:-1] != inside[1:]
    mixed = crossed[:, :-1] | crossed[:, 1:]
    del crossed  # at most three masks alive at once
    mixed |= inside[:-1, :-1] != inside[:-1, 1:]
    # flatnonzero is several times faster than a 2D nonzero, same order
    i, j = np.divmod(np.flatnonzero(mixed), mixed.shape[1])
    return inside, i, j


def extract_contours(grid: DensityGrid, level=0.1, family="") -> ContourSet:
    """Marching-squares polylines of the level set f = level.

    Polylines are closed unless clipped at the grid boundary. When the
    grid maximum is below the level the result is empty and flagged.

    A crossing vertex lies on the edge between grid nodes (i1, j1) and
    (i2, j2) and has the id 2*(i1*n + j1) + 1 on an x-edge (i2 = i1 + 1)
    and 2*(i1*n + j1) on a y-edge (j2 = j1 + 1), so ids sort like the node
    pairs. Open chains are traced first, from their smaller end, then
    closed loops, each from its smallest vertex towards the smaller of its
    two neighbours; both in vertex id order.
    """
    level = float(level)
    if not (math.isfinite(level) and level > 0):
        raise DataError("contour level must be finite and positive")
    v = grid.values
    if float(v.max()) < level:
        warnings.warn(
            f"maximum density {v.max():.6g} is below contour level {level:g}"
            + (f" for family {family!r}" if family else ""))
        return ContourSet(family, level, [], below_level=True)

    n = v.shape[1]
    inside, i, j = _mixed_cells(v, level)
    if i.size == 0:
        # every sample is on the same side of the level (e.g. the whole
        # grid sits above it); there is no crossing to trace
        return ContourSet(family, level, [], below_level=False)

    f00, f10 = inside[i, j], inside[i + 1, j]
    f01, f11 = inside[i, j + 1], inside[i + 1, j + 1]
    node = i * n + j
    ex0 = 2 * node + 1        # (i, j)-(i+1, j)
    ex1 = 2 * node + 3        # (i, j+1)-(i+1, j+1)
    ey0 = 2 * node            # (i, j)-(i, j+1)
    ey1 = 2 * (node + n)      # (i+1, j)-(i+1, j+1)

    # a plain mixed cell crosses exactly two edges: one segment
    plain = ~((f00 == f11) & (f10 == f01) & (f00 != f10))
    crossed = np.stack([f00 != f10, f01 != f11, f00 != f01, f10 != f11], axis=1)
    edges = np.stack([ex0, ex1, ey0, ey1], axis=1)
    pairs = edges[plain][crossed[plain]].reshape(-1, 2)

    # saddle: two segments, paired by the cell-center sample
    s = ~plain
    si, sj = i[s], j[s]
    center = (v[si, sj] + v[si + 1, sj] + v[si, sj + 1] + v[si + 1, sj + 1]) / 4.0
    keep = (center > level) == f00[s]
    ends_a = np.concatenate([pairs[:, 0], ex0[s], ex1[s]])
    ends_b = np.concatenate([pairs[:, 1], np.where(keep, ey1[s], ey0[s]),
                             np.where(keep, ey0[s], ey1[s])])

    ids = np.unique(np.concatenate([ends_a, ends_b]))
    cell, on_x = np.divmod(ids, 2)
    i1, j1 = np.divmod(cell, n)
    i2 = i1 + on_x
    j2 = j1 + 1 - on_x
    v1 = v[i1, j1].astype(float)
    v2 = v[i2, j2].astype(float)
    t = (level - v1) / (v2 - v1)
    xc = grid.x_centers
    yc = grid.y_centers
    positions = np.column_stack((xc[i1] + t * (xc[i2] - xc[i1]),
                                 yc[j1] + t * (yc[j2] - yc[j1])))

    # every vertex has one neighbour (at the grid boundary) or two; list
    # them in ascending order, -1 where there is no second one
    a = np.searchsorted(ids, ends_a)
    b = np.searchsorted(ids, ends_b)
    ends = np.concatenate([a, b])
    nbrs = np.concatenate([b, a])
    order = np.lexsort((nbrs, ends))
    nbrs = nbrs[order]
    degree = np.bincount(ends, minlength=ids.size)
    offset = np.cumsum(degree) - degree
    second = np.full(ids.size, -1)
    second[degree == 2] = nbrs[offset[degree == 2] + 1]
    first = nbrs[offset].tolist()
    second = second.tolist()
    seen = bytearray(ids.size)
    polylines = []

    def walk(start):
        chain = [start]
        seen[start] = 1
        prev, cur = start, first[start]
        while True:
            chain.append(cur)
            if cur == start:
                break  # closed loop
            seen[cur] = 1
            nxt = first[cur] if first[cur] != prev else second[cur]
            if nxt < 0:
                break  # open chain ends at the grid boundary
            prev, cur = cur, nxt
        polylines.append(positions[chain])

    for start in np.flatnonzero(degree == 1).tolist():
        if not seen[start]:
            walk(start)
    for start in range(ids.size):
        if not seen[start]:
            walk(start)
    return ContourSet(family, level, polylines, below_level=False)


def write_contours_json(contour_sets, path):
    """One object per family: level, below_level flag, polylines.

    Written by hand in the layout of json.dumps(indent=2, sort_keys=True),
    whose indented form runs Python's pure-Python encoder; numbers are
    repr(round_float(v)), as json.dumps writes those floats.
    """
    def num(v):
        return repr(round_float(v))

    families = []
    for cs in contour_sets:
        polylines = []
        for polyline in cs.polylines:
            points = ",\n".join(
                f"        [\n          {num(x)},\n          {num(y)}\n        ]"
                for x, y in np.asarray(polyline, dtype=float).tolist())
            polylines.append(f"      [\n{points}\n      ]" if points else "      []")
        body = "[\n" + ",\n".join(polylines) + "\n    ]" if polylines else "[]"
        families.append(
            "  {\n"
            f'    "below_level": {"true" if cs.below_level else "false"},\n'
            f'    "family": {json.dumps(cs.family, ensure_ascii=False)},\n'
            f'    "level": {num(cs.level)},\n'
            f'    "polylines": {body}\n'
            "  }")
    write_lines(path, ["[\n" + ",\n".join(families) + "\n]" if families else "[]"])
