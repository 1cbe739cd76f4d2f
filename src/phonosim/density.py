"""Weighted 2D Gaussian KDE and level-set contour extraction.

The density estimate is the separable product-kernel form

    f(x, y) = 1 / (N h_x h_y) * sum_i w_i K((x - x_i)/h_x) K((y - y_i)/h_y)

with standard-normal K. Weights are expected to average one so that the
1/N prefactor still yields a unit-mass density; build them from recording
hours with weights_from_hours(). Bandwidths come from one rule, the
per-axis Gaussian reference 1.06 * sigma_w * N^(-1/5). KDEParams holds
the estimate's numeric invariants; the helpers trust their caller for
the rest (at least 2 finite points, one weight each).

Contours are extracted by marching squares, with linear interpolation
along cell edges and saddle cells disambiguated by the cell-center sample
(mean of the four corners).

kde_contours() is the one contour path. Its reference is the grid of
every node summed exactly by _exact_at and traced by marching squares,
and it returns that without holding the grid: it bounds the density over
square tiles of cells with per-tile kernel minima and maxima, estimates
with batched matrix products only the tiles that can hold the grid
maximum and the tiles the level can cross, and sums a
node exactly only where marching squares reads it and the estimate
cannot decide, found through a rigorous bound on the estimate's rounding
error. The tracer reads a sparse input: the cells the level crosses,
their corner flags and the exact values at their corners.
"""

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .formats import json_floats, round_float, write_lines

TWO_PI = 2.0 * math.pi
GAUSSIAN_REFERENCE_FACTOR = 1.06
# kept/used when an axis has zero spread: max(1e-6, 1e-3 * other axis range)
_FALLBACK_MIN = 1e-6
_FALLBACK_SCALE = 1e-3
# grid margin beyond the data extent, in bandwidths per axis
PADDING_BANDWIDTHS = 3.0
# size of the product buffer of an exact sum, and of the batch of tiles
# that kde_contours estimates at a time; small enough to stay in L2 and
# to keep the stage's memory peak low
_BLOCK_BYTES = 1 << 18
# cells per side of the square tiles that kde_contours bounds and estimates
_TILE = 16
# most grid cells per side; the two tile bound matrices then hold 16 MB
MAX_RESOLUTION = 16384
# |estimate - exact| <= _ERROR_FACTOR * (N + 2) * (_UNIT_ROUNDOFF * estimate
# + _NORMAL_MIN * (1 + 1/norm)) for kde_contours' matmul estimate
_ERROR_FACTOR = 4
_UNIT_ROUNDOFF = 2.0 ** -53
_NORMAL_MIN = 2.0 ** -1022


def weights_from_hours(hours) -> np.ndarray:
    """Mean-one weights proportional to two or more recording hours, each
    finite and > 0."""
    arr = np.asarray(hours, dtype=float)
    with np.errstate(over="ignore"):
        total = arr.sum()
        if not math.isfinite(total):
            raise DataError("recording hours sum to more than the largest float")
        weights = arr.size * arr / total
    if not np.isfinite(weights).all():
        raise DataError("recording hours times the number of languages "
                        "exceed the largest float")
    if not weights.all():
        raise DataError("recording hours are too far apart to weight")
    return weights


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
        # the weights average one, so no density exceeds about n / norm;
        # kde_contours' error bound needs a normal norm and a finite 2 n / norm
        norm = _norm(self)
        if norm < _NORMAL_MIN or not math.isfinite(2 * self.n_points / norm):
            raise DataError(
                f"the density of {self.n_points} points with bandwidths "
                f"{self.h_x:g} and {self.h_y:g} does not fit in a float")

    @property
    def n_points(self):
        return int(self.weights.size)


def _weighted_std(x, w):
    wsum = float(w.sum())
    mean = float((w * x).sum() / wsum)
    dev = x - mean
    sigma = math.sqrt(float((w * dev ** 2).sum() / wsum))
    if sigma == math.inf:
        # the squares overflowed: divide the deviations by the largest first
        scale = float(np.abs(dev).max())
        sigma = scale * math.sqrt(float((w * (dev / scale) ** 2).sum() / wsum))
    return sigma


@np.errstate(all="ignore")
def silverman_bandwidths(coords, weights):
    """Per-axis bandwidths (h_x, h_y) for N >= 2 points and N weights > 0:
    1.06 * sigma_w * N^(-1/5) with the weighted (population-style)
    standard deviation. A zero-spread axis falls back to
    max(1e-6, 1e-3 * range of the other axis). A spread too large for a
    float gives a bandwidth that is not finite, without a numpy warning.
    """
    pts = np.asarray(coords, dtype=float)
    n = pts.shape[0]
    w = np.asarray(weights, dtype=float)
    n_factor = n ** (-0.2)
    spans = [float(pts[:, a].max() - pts[:, a].min()) for a in (0, 1)]
    bandwidths = []
    for axis in (0, 1):
        h = GAUSSIAN_REFERENCE_FACTOR * _weighted_std(pts[:, axis], w) * n_factor
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


def _centers(lo, hi, resolution):
    """The centres of `resolution` equal cells between lo and hi."""
    return lo + (np.arange(resolution) + 0.5) * ((hi - lo) / resolution)


def check_resolution(resolution):
    """DataError unless resolution (cells per grid side) is 16..MAX_RESOLUTION."""
    if not 16 <= resolution <= MAX_RESOLUTION:
        raise DataError(f"resolution must be between 16 and {MAX_RESOLUTION}")


def check_level(level):
    """DataError unless level (absolute, or a fraction of the peak) is
    finite and positive."""
    if not (math.isfinite(level) and level > 0):
        raise DataError(
            f"setting 'level' must be finite and positive, got {level!r}")


def _grid_and_kernels(coords, params: KDEParams, resolution):
    """The padded extent (x_min, x_max, y_min, y_max) and the per-axis
    kernel factors kx[i, n] = K((x_i - x_n)/h_x), ky[j, n] = K((y_j -
    y_n)/h_y) at the cell centres."""
    pts = np.asarray(coords, dtype=float)
    x_min = float(pts[:, 0].min()) - PADDING_BANDWIDTHS * params.h_x
    x_max = float(pts[:, 0].max()) + PADDING_BANDWIDTHS * params.h_x
    y_min = float(pts[:, 1].min()) - PADDING_BANDWIDTHS * params.h_y
    y_max = float(pts[:, 1].max()) + PADDING_BANDWIDTHS * params.h_y
    kx = _gaussian_kernel(_centers(x_min, x_max, resolution), pts[:, 0], params.h_x)
    ky = _gaussian_kernel(_centers(y_min, y_max, resolution), pts[:, 1], params.h_y)
    return (x_min, x_max, y_min, y_max), kx, ky


def _exact_at(kx, ky, params: KDEParams, nodes):
    """sum_n weights[n] * kx[i, n] * ky[j, n] / norm at the node ids nodes
    = i*R + j (R = len(ky)), through one (cells, N) buffer of about
    _BLOCK_BYTES. Each cell reduces its N products with np.sum over a
    contiguous points axis, so its value does not depend on the other ids
    in the call or their order."""
    out = np.empty(nodes.size)
    step = max(1, _BLOCK_BYTES // kx[0].nbytes)
    for lo in range(0, nodes.size, step):
        i, j = np.divmod(nodes[lo:lo + step], len(ky))
        block = kx[i]
        np.multiply(block, ky[j], out=block)
        np.multiply(params.weights, block, out=block)
        np.sum(block, axis=-1, out=out[lo:lo + step])
    out /= _norm(params)
    return out


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


@dataclass
class ContourSet:
    family: str
    level: float
    polylines: list = field(default_factory=list)  # (M, 2) arrays; closed iff first == last
    below_level: bool = False


def kde_contours(coords, params: KDEParams, resolution, level,
                 relative=False, family="") -> ContourSet:
    """The marching-squares contours at `level`, or `level` times the grid
    maximum when `relative`, of the R x R grid of cell-centre densities
    over the data extent padded by PADDING_BANDWIDTHS bandwidths per axis,
    every node summed by _exact_at (the reference), without holding the
    grid: only the tiles of cells that the level can cross are computed.
    Polylines are closed unless clipped at the grid boundary; when the
    grid maximum is below the level the result is empty and flagged.

    The estimate of a node is E = (kx * (w / norm)) @ ky.T. Every term is
    nonnegative and each goes through N + 2 roundings, as in the exact
    value V = sum(w * kx * ky) / norm, so in any summation order (and with
    fused multiply-adds) E and V each lie within gamma_(N+2) = (N+2) u /
    (1 - (N+2) u) of the real density, u = 2**-53 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., ch. 3-4). Hence |E - V| <=
    c (N+2) (u E + floor) with c = 4, where floor = 2**-1022 (1 + 1/norm)
    bounds gradual underflow, and _band(x, rel, floor) holds every E whose
    V may lie on the other side of x.

    The R - 1 cells per side split into tiles of _TILE cells, each with
    its _TILE + 1 node rows and columns (clipped at the grid edge), so
    tiles share edge nodes and every cell lies in exactly one tile. Per
    tile, the column maxima of kx * (w / norm) and of ky over its nodes
    give U and the minima give L, one (tiles, N) @ (N, tiles) product
    each. Rounding is monotone, so U is the estimate at a point whose
    kernel values are those maxima: it has the same terms and roundings as
    E, and its real value bounds the real density of every node of the
    tile (L likewise from below). So a tile with U < _band(x)[0] holds no
    V at or above x, and one with L > _band(x)[1] none at or below it. V
    is summed only where E alone cannot decide:

    1. pass 1 finds the exact grid maximum (for `relative` and the
       below-level check): it estimates the tiles whose U reaches the
       band of the largest L, and sums the nodes whose E may reach the
       largest E of their batch or the exact maximum so far;
    2. pass 2 estimates the tiles with U >= lo and L <= hi, (lo, hi) =
       _band(cutoff); any other tile has all its nodes on one side. It
       sums the nodes whose E is in the band, so every node is on the
       same side of the cutoff as in the reference, then the four
       corners of every mixed cell (corners on both sides): the
       crossing-edge endpoints and the saddle centres.

    Tiles are estimated in batches of about _BLOCK_BYTES, one batched
    matrix product each. Marching squares reads a cell's four corners and
    nothing else, so the polylines, their order, the cutoff and the
    warning are those of the reference, however two tiles estimate a
    shared node. KDEParams keeps norm and every estimate inside the range
    of the bound. A tiny level over a grid of zero densities puts nearly
    every node in the band, and summing them costs up to about twice the
    reference's R * R sums.
    """
    check_level(level)
    check_resolution(resolution)
    extent, kx, ky = _grid_and_kernels(coords, params, resolution)
    size = len(kx)
    norm = _norm(params)
    n = params.n_points
    rel = _ERROR_FACTOR * (n + 2) * _UNIT_ROUNDOFF
    floor = _ERROR_FACTOR * (n + 2) * _NORMAL_MIN * (1.0 + 1.0 / norm)
    count = -(-(size - 1) // _TILE)
    edges = np.minimum(np.arange(count)[:, None] * _TILE + np.arange(_TILE + 1),
                       size - 1)  # the node rows (and columns) of each tile
    # per tile: (count, _TILE + 1, N) row factors kx * (w / norm), and
    # (count, N, _TILE + 1) columns
    fx = (kx * (params.weights / norm))[edges]
    fy = np.ascontiguousarray(ky[edges].transpose(0, 2, 1))
    upper = fx.max(axis=1) @ fy.max(axis=2).T
    lower = fx.min(axis=1) @ fy.min(axis=2).T
    batch = max(1, _BLOCK_BYTES // (8 * (_TILE + 1) * max(_TILE + 1, n)))

    def tiles(ids):
        """Node ids and estimates E of the tiles `ids` = a * count + b, as
        (tiles, _TILE + 1, _TILE + 1)."""
        a, b = np.divmod(ids, count)
        nodes = edges[a][:, :, None] * size + edges[b][:, None, :]
        return nodes, np.matmul(fx[a], fy[b])

    # the tile with the largest L holds a V that no tile whose U is below
    # its band can reach
    reach = np.flatnonzero(upper >= _band(float(lower.max()), rel, floor)[0])
    top = -math.inf
    for start in range(0, reach.size, batch):
        nodes, block = tiles(reach[start:start + batch])
        near = block >= _band(max(top, float(block.max())), rel, floor)[0]
        top = float(_exact_at(kx, ky, params, nodes[near]).max(initial=top))
    cut = float(level * top if relative else level)
    if not 0 < cut < math.inf:
        raise DataError((f"family {family!r}: " if family else "")
                        + f"contour level {level:g} times the grid maximum "
                        f"{top:.6g} {'overflows' if cut else 'underflows'}")
    empty = _below_level(top, cut, family)
    if empty is not None:
        return empty

    lo, hi = _band(cut, rel, floor)
    live = np.flatnonzero((upper >= lo) & (lower <= hi))
    cells, flags = [np.empty(0, dtype=np.intp)], [np.empty((0, 4), dtype=bool)]
    for start in range(0, live.size, batch):
        nodes, block = tiles(live[start:start + batch])
        nodes = nodes.reshape(-1)
        inside = block > hi
        band = np.flatnonzero((block >= lo) != inside)
        inside.reshape(-1)[band] = _exact_at(kx, ky, params, nodes[band]) > cut
        local, batch_flags = _mixed_cells(inside)
        # a tail tile's clipped rows and columns repeat the grid's last
        # one, and the cells between the repeats are not grid cells
        i, j = np.divmod(nodes[local], size)
        real = (i < size - 1) & (j < size - 1)
        cells.append(nodes[local[real]])
        flags.append(batch_flags[real])
    cells = np.concatenate(cells)
    corners = _corners(cells, size)
    return _trace(cells, np.concatenate(flags), corners,
                  _exact_at(kx, ky, params, corners), _centers(*extent[:2], size),
                  _centers(*extent[2:], size), cut, family)


def _below_level(top, level, family):
    """When level exceeds the grid maximum `top`, warn and return the
    flagged empty ContourSet; otherwise None."""
    if top >= level:
        return None
    warnings.warn(f"maximum density {top:.6g} is below contour level {level:g}"
                  + (f" for family {family!r}" if family else ""))
    return ContourSet(family, level, [], below_level=True)


def _mixed_cells(inside):
    """The cells of the masks `inside` (..., rows, n) whose corners (i, j),
    (i+1, j), (i, j+1), (i+1, j+1) are not all on one side, as the flat
    index into `inside` of their (i, j) corner (i*n + j for one mask), and
    their (M, 4) corner flags in that order."""
    # corners not all equal: (i, j) differs from (i, j+1), or a column
    # edge (i, j)-(i+1, j) or (i, j+1)-(i+1, j+1) is crossed
    crossed = inside[..., :-1, :] != inside[..., 1:, :]
    mixed = crossed[..., :-1] | crossed[..., 1:]
    del crossed  # at most three masks alive at once
    mixed |= inside[..., :-1, :-1] != inside[..., :-1, 1:]
    rows, n = inside.shape[-2:]
    # flatnonzero is several times faster than nonzero, same order; a row
    # of `mixed` has n - 1 cells, and each mask rows - 1 rows of them
    i, j = np.divmod(np.flatnonzero(mixed), n - 1)
    cells = (i + i // (rows - 1)) * n + j
    flat = inside.reshape(-1)
    return cells, np.stack([flat[cells], flat[cells + n], flat[cells + 1],
                            flat[cells + n + 1]], axis=1)


def _corners(cells, n):
    """Sorted node ids of every corner of the cells (node ids, n columns)."""
    return _unique(np.concatenate([cells, cells + 1, cells + n, cells + n + 1]))


def _unique(ids):
    """np.unique(ids) for integer ids, from one sort: several times faster
    than np.unique's hash table on the id arrays of a contour."""
    ids = np.sort(ids)
    first = np.ones(ids.size, dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=first[1:])
    return ids[first]


def _trace(cells, flags, nodes, values, xc, yc, level, family):
    """Marching-squares polylines of the level set through the mixed cells
    (node ids i*n + j of their (i, j) corner, n = yc.size, in any order)
    with their corner flags, reading float64 grid values only at `nodes`
    (sorted ids of every corner).

    A crossing vertex lies on the edge between grid nodes (i1, j1) and
    (i2, j2) and has the id 2*(i1*n + j1) + 1 on an x-edge (i2 = i1 + 1)
    and 2*(i1*n + j1) on a y-edge (j2 = j1 + 1), so ids sort like the node
    pairs. Open chains are traced first, from their smaller end, then
    closed loops, each from its smallest vertex towards the smaller of its
    two neighbours; both in vertex id order.
    """
    n = yc.size

    def at(node):
        return values[np.searchsorted(nodes, node)]

    f00, f10, f01, f11 = flags.T
    ex0 = 2 * cells + 1        # (i, j)-(i+1, j)
    ex1 = 2 * cells + 3        # (i, j+1)-(i+1, j+1)
    ey0 = 2 * cells            # (i, j)-(i, j+1)
    ey1 = 2 * (cells + n)      # (i+1, j)-(i+1, j+1)

    # a plain mixed cell crosses exactly two edges: one segment
    plain = ~((f00 == f11) & (f10 == f01) & (f00 != f10))
    crossed = np.stack([f00 != f10, f01 != f11, f00 != f01, f10 != f11], axis=1)
    edges = np.stack([ex0, ex1, ey0, ey1], axis=1)
    pairs = edges[plain][crossed[plain]].reshape(-1, 2)

    # saddle: two segments, paired by the cell-center sample
    s = ~plain
    c = cells[s]
    center = (at(c) + at(c + n) + at(c + 1) + at(c + n + 1)) / 4.0
    keep = (center > level) == f00[s]
    ends_a = np.concatenate([pairs[:, 0], ex0[s], ex1[s]])
    ends_b = np.concatenate([pairs[:, 1], np.where(keep, ey1[s], ey0[s]),
                             np.where(keep, ey0[s], ey1[s])])

    ids = _unique(np.concatenate([ends_a, ends_b]))
    node, on_x = np.divmod(ids, 2)
    i1, j1 = np.divmod(node, n)
    i2 = i1 + on_x
    j2 = j1 + 1 - on_x
    v1 = at(node)
    v2 = at(i2 * n + j2)
    t = (level - v1) / (v2 - v1)
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


_JSON_VERTEX = "        [\n          %s,\n          %s\n        ]"


def write_contours_json(contour_sets, path):
    """One object per family: level, below_level flag, polylines.

    Written by hand in the layout of json.dumps(indent=2, sort_keys=True),
    whose indented form runs Python's pure-Python encoder; numbers are
    repr(round_float(v)), as json.dumps writes those floats. A polyline's
    numbers come from one json_floats call and fill one vertex template
    per vertex through a single % call. The text is streamed to
    write_lines polyline by polyline, so no more than one polyline's text
    is held at a time.
    """
    def lines():
        yield "[" if contour_sets else "[]"
        for i, cs in enumerate(contour_sets, 1):
            yield ("  {\n"
                   f'    "below_level": {"true" if cs.below_level else "false"},\n'
                   f'    "family": {json.dumps(cs.family, ensure_ascii=False)},\n'
                   f'    "level": {repr(round_float(cs.level))},\n'
                   f'    "polylines": {"[" if cs.polylines else "[]"}')
            for j, polyline in enumerate(cs.polylines, 1):
                comma = "," if j < len(cs.polylines) else ""
                xy = np.asarray(polyline, dtype=float).reshape(-1, 2)
                if xy.size:  # a polyline's text is held only while written
                    yield "      ["
                    yield json_floats(xy, _JSON_VERTEX, ",\n")
                    yield "      ]" + comma
                else:
                    yield "      []" + comma
            if cs.polylines:
                yield "    ]"
            yield "  }," if i < len(contour_sets) else "  }"
        if contour_sets:
            yield "]"

    write_lines(path, lines())
