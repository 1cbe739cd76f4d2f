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
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .formats import round_float

TWO_PI = 2.0 * math.pi
GAUSSIAN_REFERENCE_FACTOR = 1.06
ROBUST_FACTOR = 0.9
# kept/used when an axis has zero spread: max(1e-6, 1e-3 * other axis range)
_FALLBACK_MIN = 1e-6
_FALLBACK_SCALE = 1e-3


def weights_from_hours(hours) -> np.ndarray:
    """Mean-one weights proportional to recording hours."""
    arr = np.asarray(hours, dtype=float)
    if arr.size == 0:
        raise DataError("no hours given")
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
        if self.h_x <= 0 or self.h_y <= 0:
            raise DataError("bandwidths must be positive")
        if self.weights.ndim != 1 or self.weights.size == 0:
            raise DataError("weights must be a nonempty vector")
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


def kde_density(point, coords, params: KDEParams) -> float:
    """Density at one point, straight from the product-kernel sum."""
    pts = np.asarray(coords, dtype=float)
    if pts.shape != (params.n_points, 2):
        raise DataError(
            f"expected {params.n_points} coordinate pairs, got shape {pts.shape}")
    dx = (float(point[0]) - pts[:, 0]) / params.h_x
    dy = (float(point[1]) - pts[:, 1]) / params.h_y
    kernel = np.exp(-0.5 * dx * dx) * np.exp(-0.5 * dy * dy)
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


def rasterize(coords, params: KDEParams, resolution=512,
              padding_bandwidths=3.0) -> DensityGrid:
    """Sample the density at cell centers over the padded data extent."""
    resolution = int(resolution)
    if resolution < 16:
        raise DataError("resolution must be at least 16")
    pts = np.asarray(coords, dtype=float)
    if pts.shape != (params.n_points, 2):
        raise DataError(
            f"expected {params.n_points} coordinate pairs, got shape {pts.shape}")
    x_min = float(pts[:, 0].min()) - padding_bandwidths * params.h_x
    x_max = float(pts[:, 0].max()) + padding_bandwidths * params.h_x
    y_min = float(pts[:, 1].min()) - padding_bandwidths * params.h_y
    y_max = float(pts[:, 1].max()) + padding_bandwidths * params.h_y

    grid = DensityGrid(x_min, x_max, y_min, y_max, resolution,
                       np.empty((resolution, resolution)))
    xc = grid.x_centers
    yc = grid.y_centers
    norm = params.n_points * params.h_x * params.h_y * TWO_PI

    # evaluate in x-row chunks to bound memory at ~32 MB of intermediates
    chunk = max(1, int(4_000_000 // max(1, resolution * params.n_points)))
    for start in range(0, resolution, chunk):
        stop = min(start + chunk, resolution)
        dx = (xc[start:stop, None, None] - pts[None, None, :, 0]) / params.h_x
        dy = (yc[None, :, None] - pts[None, None, :, 1]) / params.h_y
        kernel = np.exp(-0.5 * dx * dx) * np.exp(-0.5 * dy * dy)
        grid.values[start:stop] = (params.weights * kernel).sum(axis=-1) / norm
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

    xc = grid.x_centers
    yc = grid.y_centers
    inside = v > level

    b00 = inside[:-1, :-1]
    b10 = inside[1:, :-1]
    b01 = inside[:-1, 1:]
    b11 = inside[1:, 1:]
    mixed = (b00 != b10) | (b00 != b01) | (b00 != b11)

    segments = []
    for i, j in np.argwhere(mixed):
        i = int(i)
        j = int(j)
        f00 = inside[i, j]
        f10 = inside[i + 1, j]
        f01 = inside[i, j + 1]
        f11 = inside[i + 1, j + 1]
        # edges as ordered node-index pairs; a key identifies one crossing
        ex0 = ((i, j), (i + 1, j))
        ex1 = ((i, j + 1), (i + 1, j + 1))
        ey0 = ((i, j), (i, j + 1))
        ey1 = ((i + 1, j), (i + 1, j + 1))

        if f00 == f11 and f10 == f01 and f00 != f10:
            # saddle: resolve with the cell-center sample
            center = (v[i, j] + v[i + 1, j] + v[i, j + 1] + v[i + 1, j + 1]) / 4.0
            if (center > level) == f00:
                segments.append((ex0, ey1))   # around corner (i+1, j)
                segments.append((ey0, ex1))   # around corner (i, j+1)
            else:
                segments.append((ex0, ey0))   # around corner (i, j)
                segments.append((ex1, ey1))   # around corner (i+1, j+1)
            continue

        crossings = []
        if f00 != f10:
            crossings.append(ex0)
        if f01 != f11:
            crossings.append(ex1)
        if f00 != f01:
            crossings.append(ey0)
        if f10 != f11:
            crossings.append(ey1)
        if len(crossings) == 2:
            segments.append((crossings[0], crossings[1]))

    if not segments:
        # every sample is on the same side of the level (e.g. the whole
        # grid sits above it); there is no crossing to trace
        return ContourSet(family, level, [], below_level=False)

    def vertex(key):
        (i1, j1), (i2, j2) = key
        v1 = float(v[i1, j1])
        v2 = float(v[i2, j2])
        t = (level - v1) / (v2 - v1)
        x = float(xc[i1]) + t * (float(xc[i2]) - float(xc[i1]))
        y = float(yc[j1]) + t * (float(yc[j2]) - float(yc[j1]))
        return (x, y)

    adjacency: dict = {}
    for a, b in segments:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    for key in adjacency:
        adjacency[key].sort()

    positions = {key: vertex(key) for key in adjacency}
    polylines = []

    def walk(start):
        chain = [start]
        current = start
        while adjacency[current]:
            nxt = adjacency[current].pop(0)
            adjacency[nxt].remove(current)
            chain.append(nxt)
            current = nxt
        return chain

    # open chains first (clipped at the grid boundary), then closed loops
    for start in sorted(k for k, nbrs in adjacency.items() if len(nbrs) == 1):
        if len(adjacency[start]) == 1:
            chain = walk(start)
            polylines.append(np.array([positions[k] for k in chain]))
    for start in sorted(k for k, nbrs in adjacency.items() if nbrs):
        if adjacency[start]:
            chain = walk(start)  # cycle; walk returns to start, closing it
            polylines.append(np.array([positions[k] for k in chain]))

    return ContourSet(family, level, polylines, below_level=False)


def write_contours_json(contour_sets, path):
    """One object per family: level, below_level flag, polylines."""
    payload = []
    for cs in contour_sets:
        payload.append({
            "family": cs.family,
            "level": round_float(cs.level),
            "below_level": bool(cs.below_level),
            "polylines": [
                [[round_float(x), round_float(y)] for x, y in polyline]
                for polyline in cs.polylines
            ],
        })
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(payload, f, ensure_ascii=False, indent=2, sort_keys=True)
        f.write("\n")
