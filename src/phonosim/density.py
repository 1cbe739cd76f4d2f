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
"""

import json
import math
import os
import threading
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
# size of the (rows, R, N) product buffer that each rasterize thread fills
_BLOCK_BYTES = 4 << 20


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
    family: str = ""
    n_points: int = 0

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
        if self.n_points == 0:
            self.n_points = int(self.weights.size)
        if self.n_points != self.weights.size:
            raise DataError("n_points does not match the number of weights")
        if abs(float(self.weights.mean()) - 1.0) > 1e-9:
            raise DataError("weights must average 1 (see weights_from_hours)")


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


def kde_density(point, coords, params: KDEParams) -> float:
    """Density at one point, straight from the product-kernel sum."""
    pts = np.asarray(coords, dtype=float)
    if pts.shape != (params.n_points, 2):
        raise DataError(
            f"expected {params.n_points} coordinate pairs, got shape {pts.shape}")
    kernel = (_gaussian_kernel([point[0]], pts[:, 0], params.h_x)[0]
              * _gaussian_kernel([point[1]], pts[:, 1], params.h_y)[0])
    return float((params.weights * kernel).sum()
                 / (params.n_points * params.h_x * params.h_y * TWO_PI))


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


def _fill_rows(values, kx, ky, weights, start, stop):
    """values[i, j] = sum_n weights[n] * kx[i, n] * ky[j, n] for rows i in
    [start, stop), through one buffer of about _BLOCK_BYTES.

    Each cell reduces the same N products with the same np.sum over a
    contiguous points axis, so the result does not depend on how the rows
    are split into blocks or between threads.
    """
    rows = max(1, min(stop - start, _BLOCK_BYTES // ky.nbytes))
    buf = np.empty((rows,) + ky.shape)
    for lo in range(start, stop, rows):
        block = buf[:min(rows, stop - lo)]
        np.multiply(kx[lo:lo + len(block), None, :], ky[None], out=block)
        np.multiply(weights, block, out=block)
        np.sum(block, axis=-1, out=values[lo:lo + len(block)])


def _cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def rasterize(coords, params: KDEParams, resolution=512,
              padding_bandwidths=3.0) -> DensityGrid:
    """Sample the density at cell centers over the padded data extent.

    Rows are split between one thread per available CPU; numpy releases
    the interpreter lock inside each block's arithmetic.
    """
    resolution = int(resolution)
    if resolution < 16:
        raise DataError("resolution must be at least 16")
    pts = np.asarray(coords, dtype=float)
    if pts.shape != (params.n_points, 2):
        raise DataError(
            f"expected {params.n_points} coordinate pairs, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise DataError("coordinates must be finite")
    x_min = float(pts[:, 0].min()) - padding_bandwidths * params.h_x
    x_max = float(pts[:, 0].max()) + padding_bandwidths * params.h_x
    y_min = float(pts[:, 1].min()) - padding_bandwidths * params.h_y
    y_max = float(pts[:, 1].max()) + padding_bandwidths * params.h_y

    grid = DensityGrid(x_min, x_max, y_min, y_max, resolution,
                       np.empty((resolution, resolution)))
    kx = _gaussian_kernel(grid.x_centers, pts[:, 0], params.h_x)
    ky = _gaussian_kernel(grid.y_centers, pts[:, 1], params.h_y)

    workers = min(_cpu_count(), resolution)
    bounds = [resolution * k // workers for k in range(workers + 1)]
    failures = []

    def fill(start, stop):
        try:
            _fill_rows(grid.values, kx, ky, params.weights, start, stop)
        except Exception as exc:  # re-raised in the calling thread below
            failures.append(exc)

    threads = [threading.Thread(target=fill, args=span)
               for span in zip(bounds[1:-1], bounds[2:])]
    for thread in threads:
        thread.start()
    fill(bounds[0], bounds[1])
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    grid.values /= params.n_points * params.h_x * params.h_y * TWO_PI
    return grid


@dataclass
class ContourSet:
    family: str
    level: float
    polylines: list = field(default_factory=list)  # (M, 2) arrays; closed iff first == last
    below_level: bool = False


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
    inside = v > level
    b00 = inside[:-1, :-1]
    b10 = inside[1:, :-1]
    b01 = inside[:-1, 1:]
    b11 = inside[1:, 1:]
    i, j = np.nonzero((b00 != b10) | (b00 != b01) | (b00 != b11))
    if i.size == 0:
        # every sample is on the same side of the level (e.g. the whole
        # grid sits above it); there is no crossing to trace
        return ContourSet(family, level, [], below_level=False)

    f00, f10, f01, f11 = b00[i, j], b10[i, j], b01[i, j], b11[i, j]
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
