"""kde_contours, write_contours_json and render_svg against their earlier
straightforward forms.

kde_contours' reference is the grid of every node summed by
density._exact_at and traced by marching squares (kdeutil.dense_grid and
kdeutil.trace_grid). The oracles below are the chunked (chunk, R, N)
rasterizer and the per-cell marching squares that the vectorized forms
replaced. Both forms do the same floating-point operations in the same
order, so results must be equal bit for bit (np.array_equal), not merely
close: contours.json and the SVG are pinned byte for byte. dense_grid
must equal the rasterizer oracle, the tracer must equal the marching
squares oracle on any grid, and kde_contours must give exactly what the
marching squares oracle gives on the dense grid, however its tiles fall.
The contours.json oracle is the json.dumps form that the hand-written
writer replaced, and the render_svg oracle is the per-vertex writer that
the array form replaced; files must be equal byte for byte.
"""

import json
import math
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from html import escape
from unittest import mock

import numpy as np
import pytest

from phonosim import density
from phonosim.density import (ContourSet, KDEParams, kde_contours,
                              write_contours_json)
from phonosim.errors import DataError
from phonosim.formats import fmt_float, round_float, write_lines
from phonosim.registry import LanguageRecord, Registry
from phonosim.render import family_colors, render_svg

from kdeutil import Grid, dense_grid, synthetic_grid, trace_grid


def rasterize_oracle(coords, params, resolution=512, padding_bandwidths=3.0):
    pts = np.asarray(coords, dtype=float)
    x_min = float(pts[:, 0].min()) - padding_bandwidths * params.h_x
    x_max = float(pts[:, 0].max()) + padding_bandwidths * params.h_x
    y_min = float(pts[:, 1].min()) - padding_bandwidths * params.h_y
    y_max = float(pts[:, 1].max()) + padding_bandwidths * params.h_y
    xc = x_min + (np.arange(resolution) + 0.5) * ((x_max - x_min) / resolution)
    yc = y_min + (np.arange(resolution) + 0.5) * ((y_max - y_min) / resolution)
    grid = Grid(np.empty((resolution, resolution)), xc, yc)
    norm = params.n_points * params.h_x * params.h_y * density.TWO_PI
    chunk = max(1, int(4_000_000 // max(1, resolution * params.n_points)))
    for start in range(0, resolution, chunk):
        stop = min(start + chunk, resolution)
        dx = (xc[start:stop, None, None] - pts[None, None, :, 0]) / params.h_x
        dy = (yc[None, :, None] - pts[None, None, :, 1]) / params.h_y
        kernel = np.exp(-0.5 * dx * dx) * np.exp(-0.5 * dy * dy)
        grid.values[start:stop] = (params.weights * kernel).sum(axis=-1) / norm
    return grid


def extract_contours_oracle(grid, level=0.1, family=""):
    level = float(level)
    v = grid.values
    if float(v.max()) < level:
        warnings.warn(f"maximum density {v.max():.6g} is below contour "
                      f"level {level:g}"
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
        ex0 = ((i, j), (i + 1, j))
        ex1 = ((i, j + 1), (i + 1, j + 1))
        ey0 = ((i, j), (i, j + 1))
        ey1 = ((i + 1, j), (i + 1, j + 1))
        if f00 == f11 and f10 == f01 and f00 != f10:
            center = (v[i, j] + v[i + 1, j] + v[i, j + 1] + v[i + 1, j + 1]) / 4.0
            if (center > level) == f00:
                segments.append((ex0, ey1))
                segments.append((ey0, ex1))
            else:
                segments.append((ex0, ey0))
                segments.append((ex1, ey1))
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
        return ContourSet(family, level, [], below_level=False)

    def vertex(key):
        (i1, j1), (i2, j2) = key
        v1 = float(v[i1, j1])
        v2 = float(v[i2, j2])
        t = (level - v1) / (v2 - v1)
        x = float(xc[i1]) + t * (float(xc[i2]) - float(xc[i1]))
        y = float(yc[j1]) + t * (float(yc[j2]) - float(yc[j1]))
        return (x, y)

    adjacency = {}
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

    for start in sorted(k for k, nbrs in adjacency.items() if len(nbrs) == 1):
        if len(adjacency[start]) == 1:
            polylines.append(np.array([positions[k] for k in walk(start)]))
    for start in sorted(k for k, nbrs in adjacency.items() if nbrs):
        if adjacency[start]:
            polylines.append(np.array([positions[k] for k in walk(start)]))
    return ContourSet(family, level, polylines, below_level=False)


def write_contours_json_oracle(contour_sets, path):
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
    write_lines(path, [json.dumps(payload, ensure_ascii=False, indent=2,
                                  sort_keys=True)])


def render_svg_oracle(codes, coords, reg, contour_sets, path):
    width = height = 800
    margin = 60
    points = [(code, float(x), float(y), reg.get(code).family)
              for code, (x, y) in zip(codes, coords)]
    xs = [p[1] for p in points]
    ys = [p[2] for p in points]
    for cs in contour_sets:
        for polyline in cs.polylines:
            xs.extend(float(v) for v in polyline[:, 0])
            ys.extend(float(v) for v in polyline[:, 1])
    if not xs:
        xs = ys = [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    span_x = (x_hi - x_lo) or 1.0
    span_y = (y_hi - y_lo) or 1.0
    pad_x = 0.05 * span_x
    pad_y = 0.05 * span_y
    x_lo -= pad_x
    x_hi += pad_x
    y_lo -= pad_y
    y_hi += pad_y

    scale = min((width - 2 * margin) / (x_hi - x_lo),
                (height - 2 * margin) / (y_hi - y_lo))

    def sx(x):
        return fmt_float(margin + (x - x_lo) * scale)

    def sy(y):
        return fmt_float(height - margin - (y - y_lo) * scale)  # y grows upward

    colors = family_colors(
        [p[3] for p in points] + [cs.family for cs in contour_sets])

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for cs in contour_sets:
        color = colors.get(cs.family, "#333333")
        for polyline in cs.polylines:
            vertices = " ".join(f"{sx(float(x))},{sy(float(y))}" for x, y in polyline)
            out.append(
                f'<polyline points="{vertices}" fill="none" stroke="{color}" '
                f'stroke-width="1.5" opacity="0.8"/>')
    for code, x, y, family in points:
        color = colors.get(family, "#333333")
        out.append(f'<circle cx="{sx(x)}" cy="{sy(y)}" r="4" fill="{color}"/>')
        out.append(
            f'<text x="{fmt_float(float(sx(x)) + 6)}" y="{sy(y)}" '
            f'font-size="11" font-family="sans-serif">{escape(code, quote=False)}</text>')
    for i, family in enumerate(sorted(colors)):
        y = margin + 16 * i
        out.append(
            f'<rect x="{margin}" y="{y - 9}" width="10" height="10" '
            f'fill="{colors[family]}"/>')
        out.append(
            f'<text x="{margin + 14}" y="{y}" font-size="12" '
            f'font-family="sans-serif">{escape(family, quote=False)}</text>')
    out.append("</svg>")
    write_lines(path, out)


def random_family(n, seed):
    rng = np.random.default_rng(seed)
    coords = rng.normal(size=(n, 2)) * rng.uniform(0.5, 3.0, size=2)
    raw = rng.uniform(0.2, 5.0, size=n)
    h = density.silverman_bandwidths(coords, raw) if n > 1 else (0.5, 0.3)
    return coords, KDEParams(*h, n * raw / raw.sum())


def assert_same_contours(got, want):
    assert (got.family, got.level, got.below_level) == \
        (want.family, want.level, want.below_level)
    assert len(got.polylines) == len(want.polylines)
    for g, w in zip(got.polylines, want.polylines):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)


class TestRasterizeExact:
    @pytest.mark.parametrize("resolution", [16, 33, 512])
    @pytest.mark.parametrize("n", [2, 7, 8, 9, 16, 17, 129])
    def test_matches_chunked_oracle(self, n, resolution):
        coords, params = random_family(n, seed=1000 * n + resolution)
        got = dense_grid(coords, params, resolution)
        want = rasterize_oracle(coords, params, resolution=resolution)
        assert np.array_equal(got.x_centers, want.x_centers)
        assert np.array_equal(got.y_centers, want.y_centers)
        assert np.array_equal(got.values, want.values)

    @pytest.mark.parametrize("n", [1, 16, 129])
    def test_a_cell_does_not_depend_on_the_other_ids(self, monkeypatch, n):
        # every exact value kde_contours reads comes from _exact_at on some
        # subset of node ids, in some order, split into buffer steps
        coords, params = random_family(n, seed=n + 300)
        resolution = 65
        want = dense_grid(coords, params, resolution).values
        _, kx, ky = density._grid_and_kernels(coords, params, resolution)
        rng = np.random.default_rng(n)
        ids = rng.permutation(want.size)
        for block_bytes in (8 * n, 8 * n * 3, 8 * n * 1000, 1 << 20):
            monkeypatch.setattr(density, "_BLOCK_BYTES", block_bytes)
            assert np.array_equal(density._exact_at(kx, ky, params, np.arange(want.size)),
                                  want.reshape(-1))
            for nodes in (ids, ids[:500], ids[-1:]):
                got = density._exact_at(kx, ky, params, nodes)
                assert np.array_equal(got, want.flat[nodes])


class TestContoursExact:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_fields(self, seed):
        rng = np.random.default_rng(seed)
        res = int(rng.integers(16, 80))
        grid = synthetic_grid(rng.random((res, res)), (-1.0, 2.0), (0.5, 1.5))
        for level in (0.2, 0.5, 0.93):
            assert_same_contours(trace_grid(grid, level, family="f"),
                                 extract_contours_oracle(grid, level, family="f"))

    @pytest.mark.parametrize("n,resolution", [(1, 64), (7, 128), (16, 512)])
    def test_rasterized_families(self, n, resolution):
        coords, params = random_family(n, seed=n)
        grid = dense_grid(coords, params, resolution)
        peak = float(grid.values.max())
        for frac in (0.05, 0.3, 0.8):
            assert_same_contours(trace_grid(grid, frac * peak),
                                 extract_contours_oracle(grid, frac * peak))

    @pytest.mark.parametrize("offset", [1e-9, -1e-9, 0.0])
    def test_saddle_field(self, offset):
        lin = np.linspace(-1.0, 1.0, 64)
        grid = synthetic_grid(np.outer(lin, lin) + 0.5, (-1.0, 1.0), (-1.0, 1.0))
        assert_same_contours(trace_grid(grid, 0.5 + offset),
                             extract_contours_oracle(grid, 0.5 + offset))

    def test_checkerboard_every_cell_a_saddle(self):
        res = 20
        board = (np.add.outer(np.arange(res), np.arange(res)) % 2).astype(float)
        values = 0.1 + 0.8 * board + np.linspace(0, 0.05, res * res).reshape(res, res)
        grid = synthetic_grid(values)
        for level in (0.45, 0.5, 0.55):
            assert_same_contours(trace_grid(grid, level),
                                 extract_contours_oracle(grid, level))

    def test_boundary_clipped_lines(self):
        res = 40
        x = np.linspace(0.0, 1.0, res)
        fields = [np.tile(x[:, None], (1, res)),          # lines across rows
                  np.tile(x[None, :], (res, 1)),          # lines across columns
                  np.add.outer(x, x),                     # diagonals
                  np.sin(6 * x)[:, None] * np.cos(5 * x)[None, :] + 1.0]
        for values in fields:
            grid = synthetic_grid(values)
            for level in (0.3, 0.5, 0.99):
                got = trace_grid(grid, level)
                assert_same_contours(got, extract_contours_oracle(grid, level))
            assert any(not np.array_equal(p[0], p[-1])
                       for p in trace_grid(grid, 0.5).polylines)

    def test_all_above_level(self):
        grid = synthetic_grid(np.full((16, 16), 0.5))
        got = trace_grid(grid, 0.1)
        assert got.polylines == [] and not got.below_level
        assert_same_contours(got, extract_contours_oracle(grid, 0.1))

    def test_all_below_level(self):
        values = np.random.default_rng(0).random((16, 16)) * 0.05
        grid = synthetic_grid(values)
        with pytest.warns(UserWarning):
            got = trace_grid(grid, 0.1)
        with pytest.warns(UserWarning):
            want = extract_contours_oracle(grid, 0.1)
        assert got.below_level and got.polylines == []
        assert_same_contours(got, want)


def assert_reads_exact(top, traced, full, cutoff):
    """What kde_contours read holds the dense grid's values: the maximum
    `top`, and, when it traced, the mixed cells, their corner flags and
    the values at their corners, as the exact grid gives them."""
    exact = full.values
    assert top == float(exact.max())
    if traced is None:
        return
    cells, flags, nodes, values, xc, yc, level, _ = traced
    assert level == cutoff
    assert np.array_equal(xc, full.x_centers) and np.array_equal(yc, full.y_centers)
    inside = exact > cutoff
    b00, b10 = inside[:-1, :-1], inside[1:, :-1]
    b01, b11 = inside[:-1, 1:], inside[1:, 1:]
    i, j = np.nonzero((b00 != b10) | (b00 != b01) | (b00 != b11))
    node = i * len(exact) + j
    order = np.argsort(cells)  # _trace takes the cells in any order
    assert np.array_equal(cells[order], node)
    assert np.array_equal(flags[order], np.stack([b00[i, j], b10[i, j],
                                                  b01[i, j], b11[i, j]], axis=1))
    assert np.array_equal(nodes, np.unique(np.concatenate(
        [node, node + 1, node + len(exact), node + len(exact) + 1])))
    assert np.array_equal(values, exact.reshape(-1)[nodes])


def contours_both_ways(coords, params, resolution, level, relative=False):
    """kde_contours checked against the per-cell marching squares over
    the dense grid (polylines, flags, cutoff, warning text), and for exact
    values wherever it read."""
    with warnings.catch_warnings(record=True) as got_warnings, \
            mock.patch.object(density, "_below_level",
                              wraps=density._below_level) as below, \
            mock.patch.object(density, "_trace", wraps=density._trace) as trace:
        warnings.simplefilter("always")
        got = kde_contours(coords, params, resolution, level, relative, family="f")
    full = dense_grid(coords, params, resolution)
    want_cutoff = level * float(full.values.max()) if relative else level
    with warnings.catch_warnings(record=True) as want_warnings:
        warnings.simplefilter("always")
        want = extract_contours_oracle(full, want_cutoff, family="f")
    assert got.level == want_cutoff
    assert_same_contours(got, want)
    assert [(w.category, str(w.message)) for w in got_warnings] == \
        [(w.category, str(w.message)) for w in want_warnings]
    assert_reads_exact(below.call_args.args[0],
                       trace.call_args.args if trace.called else None,
                       full, want_cutoff)
    return got, full


def two_clusters():
    # far enough apart (in bandwidths) that the grid between them holds
    # subnormal and zero densities
    coords = np.array([[0.0, 0.0], [0.4, 1.0], [80.0, 0.3], [80.3, -0.6]])
    return coords, KDEParams(1.0, 1.0, [0.5, 1.5, 1.2, 0.8])


def bands_and_sums(monkeypatch, *args):
    """kde_contours(*args) alone: the (rel, floor) of each _band call and
    the number of cells of each _exact_at call."""
    bands, sums = [], []
    real_band, real_exact = density._band, density._exact_at
    monkeypatch.setattr(density, "_band", lambda x, rel, floor:
                        bands.append((rel, floor)) or real_band(x, rel, floor))
    monkeypatch.setattr(density, "_exact_at", lambda kx, ky, params, nodes:
                        sums.append(nodes.size) or real_exact(kx, ky, params, nodes))
    kde_contours(*args)
    return bands, sums


def tile_size(monkeypatch, cells, batch=None, n=1):
    """Make kde_contours use tiles of `cells` cells per side, and estimate
    `batch` tiles of a family of n points at a time."""
    monkeypatch.setattr(density, "_TILE", cells)
    if batch is not None:
        monkeypatch.setattr(density, "_BLOCK_BYTES",
                            8 * (cells + 1) * max(cells + 1, n) * batch)


def live_tiles(*args):
    """kde_contours(*args) alone: the number of tiles and of nodes that
    pass 2 estimated, read from the masks it hands to _mixed_cells."""
    with mock.patch.object(density, "_mixed_cells",
                           wraps=density._mixed_cells) as mixed:
        kde_contours(*args)
    shapes = [call.args[0].shape for call in mixed.call_args_list]
    assert all(shape[1:] == (density._TILE + 1,) * 2 for shape in shapes)
    return sum(shape[0] for shape in shapes), sum(math.prod(s) for s in shapes)


def crossed_tiles(full, cutoff):
    """The number of tiles whose nodes the exact grid puts on both sides
    of the cutoff, and of tiles wholly above and wholly below it."""
    size, tile = len(full.values), density._TILE
    inside = full.values > cutoff
    kinds = [0, 0, 0]
    for a in range(0, size - 1, tile):
        for b in range(0, size - 1, tile):
            nodes = inside[a:a + tile + 1, b:b + tile + 1]
            kinds[0 if nodes.any() != nodes.all() else 1 if nodes.all() else 2] += 1
    return kinds


class TestContourGridExact:
    """kde_contours against the per-cell marching squares over the dense
    grid (the class keeps the name of the grid function that kde_contours
    replaced)."""

    @pytest.mark.parametrize("resolution", [16, 33, 257])
    @pytest.mark.parametrize("n", [1, 2, 16, 129])
    def test_random_families(self, n, resolution):
        coords, params = random_family(n, seed=77 * n + resolution)
        for level, relative in ((0.5, True), (0.05, True), (0.9, True),
                                (1.0, True), (1.5, True), (0.02, False)):
            contours_both_ways(coords, params, resolution, level, relative)

    def test_pipeline_size(self):
        coords, params = random_family(16, seed=2048)
        got, _ = contours_both_ways(coords, params, 2048, 0.1, relative=True)
        assert sum(len(p) for p in got.polylines) > 1000

    @pytest.mark.parametrize("family", ["random", "symmetric", "identical"])
    def test_level_equal_to_a_grid_value(self, family):
        rng = np.random.default_rng(11)
        if family == "random":
            coords, params = random_family(16, seed=3)
        elif family == "symmetric":
            # mirror-image points: many cells share one exact value
            coords = np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])
            params = KDEParams(0.8, 0.8, np.ones(4))
        else:
            coords = np.tile([0.3, -1.2], (5, 1))
            params = KDEParams(*density.silverman_bandwidths(coords, np.ones(5)),
                               np.ones(5))
        resolution = 65
        values = dense_grid(coords, params, resolution).values
        for cell in rng.choice(values.size, size=25, replace=False):
            contours_both_ways(coords, params, resolution,
                               float(values.flat[cell]))

    def test_identical_points_fallback_bandwidth(self):
        coords = np.tile([0.3, -1.2], (7, 1))
        weights = np.random.default_rng(5).uniform(0.5, 2.0, 7)
        h = density.silverman_bandwidths(coords, weights)
        assert h == (1e-6, 1e-6)
        params = KDEParams(*h, 7 * weights / weights.sum())
        for resolution in (16, 33, 257):
            for level in (0.2, 0.5, 0.999999, 1.0):
                contours_both_ways(coords, params, resolution, level, True)
            got, _ = contours_both_ways(coords, params, resolution, 1e9)
            assert got.polylines

    @pytest.mark.parametrize("level", [5e-324, 1e-320, 2.0 ** -1022, 1e-300])
    def test_tiny_levels(self, level):
        coords, params = two_clusters()
        values = dense_grid(coords, params, 257).values
        assert (values == 0).any() and ((values > 0) & (values < 2.0 ** -1022)).any()
        got, _ = contours_both_ways(coords, params, 257, level)
        assert got.polylines

    def test_relative_just_below_one(self):
        for n in (1, 2, 16):
            coords, params = random_family(n, seed=n + 40)
            for level in (0.999999, 1.0 - 2.0 ** -52, 1.0):
                contours_both_ways(coords, params, 257, level, True)

    @pytest.mark.parametrize("relative", [False, True])
    def test_all_below(self, relative):
        coords, params = random_family(16, seed=9)
        level = 1.0 + 2.0 ** -52 if relative else 1e6
        got, _ = contours_both_ways(coords, params, 64, level, relative)
        assert got.below_level and got.polylines == []

    @pytest.mark.parametrize("relative", [False, True])
    @pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf, 0.0,
                                       -1.0, -5e-324, 1e300])
    def test_invalid_levels_still_rejected(self, level, relative):
        # identical points: the peak is near 1e11, so 1e300 of it overflows
        coords = np.tile([0.3, -1.2], (4, 1))
        params = KDEParams(*density.silverman_bandwidths(coords, np.ones(4)),
                           np.ones(4))
        if level == 1e300 and not relative:
            level = math.inf
        message = f"setting 'level' must be finite and positive, got {level!r}"
        if level == 1e300:
            # a finite level whose product with the peak is no float
            message = "contour level 1e+300 times the grid maximum 1.58806e+11 overflows"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(DataError) as exc:
                kde_contours(coords, params, 64, level, relative)
            assert str(exc.value) == message

    @pytest.mark.parametrize("family, prefix", [("Alphaic", "family 'Alphaic': "),
                                                ("", "")])
    def test_relative_level_whose_cut_underflows(self, family, prefix):
        # a spread of 2e150 with weights 2/11 and 20/11: the peak is near
        # 3e-300, and a finite positive level of 1e-30 of it is no float
        coords = np.array([[1e150, 0.0], [-1e150, 3e149]])
        weights = density.weights_from_hours([2.0, 20.0])
        params = KDEParams(*density.silverman_bandwidths(coords, weights), weights)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(DataError) as exc:
                kde_contours(coords, params, 16, 1e-30, True, family=family)
        assert str(exc.value) == (f"{prefix}contour level 1e-30 times the grid "
                                  "maximum 3.21525e-300 underflows")
        # a relative level whose cut is a float is traced
        assert kde_contours(coords, params, 16, 0.5, True, family=family).polylines

    def test_scale_outside_the_bound_is_rejected(self):
        # a subnormal normalizing constant, and a normal one under which
        # an estimate could overflow
        for h_x, h_y, n in ((1e-150, 1.59e-159, 2), (1e-154, 1e-155, 16)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no RuntimeWarning on the way
                with pytest.raises(DataError, match=(
                        f"^the density of {n} points with bandwidths {h_x:g} "
                        f"and {h_y:g} does not fit in a float$")):
                    KDEParams(h_x, h_y, np.ones(n))

    def test_smallest_scale_inside_the_bound(self):
        # 16 points about 1e-154 apart: 2 n / norm is within a factor of
        # two of overflowing
        coords, _ = random_family(16, seed=61)
        coords = coords * 1e-154
        params = KDEParams(1e-154, 3e-155, np.ones(16))
        norm = density._norm(params)
        assert math.isfinite(2 * 16 / norm) and not math.isfinite(4 * 16 / norm)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for level in (0.5, 0.9):
                contours_both_ways(coords, params, 65, level, True)

    def test_wide_band_is_gathered(self, monkeypatch):
        # two points 1000 bandwidths apart: nearly every cell is zero, so
        # the band around a subnormal level holds nearly the whole grid
        coords = np.array([[0.0, 0.0], [1000.0, 1000.0]])
        params = KDEParams(1.0, 1.0, [0.5, 1.5])
        got, full = contours_both_ways(coords, params, 257, 5e-324)
        assert got.polylines
        bands, sums = bands_and_sums(monkeypatch, coords, params, 257, 5e-324)
        assert bands and all(rel > 0 for rel, _ in bands)  # the estimate ran
        # every zero or subnormal cell lies in the band, so it was gathered
        band = full.values < 2.0 ** -1022
        assert band.mean() > 0.99
        assert sum(sums) >= band.sum()


def mirrored_pairs(seed):
    """One to three point pairs mirrored about the origin, 5 to 40 unit
    bandwidths out per axis: mirror-image nodes tie up to rounding."""
    rng = np.random.default_rng(seed)
    pairs = int(rng.integers(1, 4))
    half = rng.uniform(5, 40, size=(pairs, 2)) * rng.choice([-1.0, 1.0], size=(pairs, 2))
    return np.concatenate([half, -half]), KDEParams(1.0, 1.0, np.ones(2 * pairs))


class TestKdeContoursBlocks:
    """Square tiles of cells that share their edge nodes with the next
    tile, in both directions."""

    @pytest.mark.parametrize("cells", [1, 2, 7, 64])
    def test_contours_cross_block_edges(self, monkeypatch, cells):
        coords, params = random_family(16, seed=5)
        tile_size(monkeypatch, cells)
        for level, relative in ((0.5, True), (0.95, True), (1.0, True),
                                (0.02, False)):
            contours_both_ways(coords, params, 96, level, relative)
        # the polyline at 0.05 of the maximum spans more than a tile
        got, full = contours_both_ways(coords, params, 96, 0.05, True)
        points = np.concatenate(got.polylines)
        assert np.ptp(points[:, 0]) > cells * (full.x_centers[1] - full.x_centers[0])
        assert np.ptp(points[:, 1]) > cells * (full.y_centers[1] - full.y_centers[0])

    @pytest.mark.parametrize("resolution,cells", [(100, 7), (257, 64), (61, 60),
                                                  (45, 44), (47, 23)])
    def test_resolution_not_a_multiple_of_the_height(self, monkeypatch,
                                                     resolution, cells):
        # the grid's R - 1 cells per side fill whole tiles except at
        # R = 100, where the last tile holds 99 % 7 = 1 cell
        assert resolution % cells
        coords, params = random_family(7, seed=resolution)
        tile_size(monkeypatch, cells)
        for level, relative in ((0.1, True), (0.6, True), (1.0, True)):
            contours_both_ways(coords, params, resolution, level, relative)

    def test_grid_smaller_than_one_block(self):
        assert density._TILE >= 15
        for n in (1, 2, 16):
            coords, params = random_family(n, seed=n + 16)
            for level in (0.05, 0.5, 1.0):
                contours_both_ways(coords, params, 16, level, True)

    @pytest.mark.parametrize("cells", [4, 16])
    def test_level_equal_to_a_value_on_a_shared_row(self, monkeypatch, cells):
        coords, params = random_family(9, seed=cells)
        tile_size(monkeypatch, cells)
        values = dense_grid(coords, params, 64).values
        for edge in (cells, 2 * cells, 3 * cells):
            for shared in (values[edge], values[:, edge]):
                for node in np.argsort(shared)[-40::8]:
                    contours_both_ways(coords, params, 64, float(shared[node]))

    @pytest.mark.parametrize("resolution,cells", [(100, 16), (100, 7), (40, 16)])
    def test_tail_tile_at_tiny_levels(self, monkeypatch, resolution, cells):
        # (R - 1) % cells != 0: the last tile's clipped node rows and
        # columns repeat the grid's last one; levels that cross that row
        # and column must not make cells between the repeats
        assert (resolution - 1) % cells
        tile_size(monkeypatch, cells)
        coords, params = random_family(16, seed=resolution + cells)
        values = dense_grid(coords, params, resolution).values
        for level in (1e-6, float(np.median(values[-1])),
                      float(np.median(values[:, -1])), float(values[-1, -1])):
            got, _ = contours_both_ways(coords, params, resolution, level)
            assert got.polylines

    def test_one_tile_inside_one_outside_one_crossed(self, monkeypatch):
        # for one point the tile bounds are the extreme nodes' estimates,
        # so at a level away from every node value the live tiles are
        # exactly the tiles that the level crosses
        coords, params = np.array([[0.3, -0.2]]), KDEParams(1.0, 0.7, [1.0])
        tile_size(monkeypatch, 4)
        got, full = contours_both_ways(coords, params, 33, 0.05, True)
        crossed, above, below = crossed_tiles(full, got.level)
        assert crossed and above and below
        assert live_tiles(coords, params, 33, 0.05, True)[0] == crossed

    @pytest.mark.parametrize("resolution", [16, 64])
    def test_tiles_whose_bounds_nearly_tie_are_reached(self, monkeypatch,
                                                       resolution):
        # one point at even R: the one-cell tiles at the centre hold four
        # nearly equal densities, so a tile's U and the largest L agree
        # to a few ulps, and only the band keeps the top tile in pass 1
        coords, params = np.array([[0.3, -0.2]]), KDEParams(1.0, 0.7, [1.0])
        tile_size(monkeypatch, 1, batch=1)
        for level in (0.5, 0.999999, 1.0):
            contours_both_ways(coords, params, resolution, level, True)

    @pytest.mark.parametrize("seed,resolution,cells", [
        (94, 33, 4), (94, 33, 16), (100, 33, 4), (43, 64, 16), (30, 128, 4)])
    def test_one_tile_per_batch_finds_the_exact_maximum(
            self, monkeypatch, seed, resolution, cells):
        # with one tile per batch, pass 1 sums each tile's nodes against
        # the band of the best maximum so far; a tile whose U lies inside
        # that band can still hold a larger exact value: in these families,
        # one ulp above the maximum of the tiles visited before it
        coords, params = mirrored_pairs(seed)
        tile_size(monkeypatch, cells, batch=1, n=params.n_points)
        for level in (0.5, 1.0):
            contours_both_ways(coords, params, resolution, level, True)

    def test_bandwidth_far_below_one_tile(self):
        # tiles 16 bandwidths wide, most holding several points: a tile's
        # bound adds up peaks that no one node sees, so tiles the level
        # does not cross are estimated too, and still decide nothing wrong
        rng = np.random.default_rng(8)
        coords = rng.uniform(0.0, 100.0, size=(200, 2))
        params = KDEParams(0.4, 0.4, np.ones(200))
        resolution = 257
        full = dense_grid(coords, params, resolution)
        assert density._TILE * (full.x_centers[1] - full.x_centers[0]) > 15 * params.h_x
        for level in (0.05, 0.5, 0.9):
            got, full = contours_both_ways(coords, params, resolution, level, True)
            crossed = crossed_tiles(full, got.level)[0]
            live = live_tiles(coords, params, resolution, level, True)[0]
            assert crossed <= live
        assert live > 10 * crossed  # at 0.9 of the maximum

    def test_pass_2_estimates_a_tenth_of_the_grid(self):
        coords, params = random_family(16, seed=2048)
        resolution = 2048
        tiles, nodes = live_tiles(coords, params, resolution, 0.1, True)
        assert 0 < tiles and nodes == tiles * (density._TILE + 1) ** 2
        assert nodes <= 0.1 * resolution ** 2

    def test_one_family_never_holds_a_grid(self):
        resolution = 2048
        count = -(-(resolution - 1) // density._TILE)
        # a pipeline-sized family, and two points so far apart that each
        # lights a node or two: every tile holds zeros, so a subnormal
        # level puts every tile and nearly every node in the band
        far = (np.array([[0.0, 0.0], [1e5, 1e5]]), KDEParams(1.0, 1.0, [0.5, 1.5]))
        assert live_tiles(*far, resolution, 5e-324)[0] == count * count
        # measured on numpy 2.4 with 256 KB batches: 4.5 and 2.7 MB (6.2
        # and 8.8 MB with 1 MB batches); each bound leaves over 1 MB
        for args, vertices, bound in (((*random_family(16, seed=2048), resolution,
                                        0.1, True), 1000, 5.5),
                                      ((*far, resolution, 5e-324), 0, 4)):
            tracemalloc.start()
            try:
                np.zeros((resolution, resolution))
                grid_bytes = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                got = kde_contours(*args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert grid_bytes >= 32 << 20  # numpy's buffers are traced
            assert peak < bound * (1 << 20)
            assert sum(len(p) for p in got.polylines) > vertices


class _MovedEstimates:
    """numpy, except that matmul (kde_contours' tile estimates; the bound
    products use the @ operator) moves each value by (N + 2) 2**-53
    relative, up when its lowest mantissa bit is set and down otherwise:
    inside the 4 (N + 2) u that the kde_contours docstring allows, and
    enough to reorder estimates whose exact values nearly tie."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def matmul(a, b):
        estimate = np.matmul(a, b)
        step = (a.shape[-1] + 2) * 2.0 ** -53
        sign = np.where(estimate.view(np.int64) & 1, 1.0, -1.0)
        return estimate + sign * (step * estimate)


def symmetric_family(pairs, seed):
    """Points and weights symmetric about the origin: mirror-image nodes
    of the grid tie up to rounding."""
    rng = np.random.default_rng(seed)
    half = rng.normal(size=(pairs, 2)) * rng.uniform(0.5, 3.0, size=2)
    raw = np.tile(rng.uniform(0.2, 5.0, size=pairs), 2)
    coords = np.concatenate([half, -half])
    return coords, KDEParams(*density.silverman_bandwidths(coords, raw),
                             2 * pairs * raw / raw.sum())


class TestKdeContoursMovedEstimates:
    """kde_contours gives the dense grid's contours for any estimate within its
    documented error, not only for the estimate numpy computes. A pass 1
    that sums only the nodes whose estimate is the batch maximum misses
    the exact maximum of 8 of these symmetric families."""

    @pytest.mark.parametrize("family", [
        lambda seed: random_family(2 + seed % 15, seed),
        lambda seed: symmetric_family(1 + seed % 8, seed)],
        ids=["random", "symmetric"])
    def test_relative_levels(self, monkeypatch, family):
        resolution = 64
        for seed in range(100):
            coords, params = family(seed)
            full = dense_grid(coords, params, resolution)
            with monkeypatch.context() as patch:
                patch.setattr(density, "np", _MovedEstimates())
                got = [kde_contours(coords, params, resolution, level, True)
                       for level in (0.5, 0.9, 0.999)]
            for level, contours in zip((0.5, 0.9, 0.999), got):
                assert_same_contours(contours, extract_contours_oracle(
                    full, level * float(full.values.max())))


class TestContoursJsonExact:
    def assert_same_bytes(self, contour_sets, tmp_path):
        write_contours_json(contour_sets, tmp_path / "got.json")
        write_contours_json_oracle(contour_sets, tmp_path / "want.json")
        got = (tmp_path / "got.json").read_bytes()
        assert got == (tmp_path / "want.json").read_bytes()
        json.loads(got)

    def test_no_sets(self, tmp_path):
        self.assert_same_bytes([], tmp_path)

    def test_family_without_polylines(self, tmp_path):
        self.assert_same_bytes([ContourSet("fam", 0.1, [])], tmp_path)

    def test_below_level(self, tmp_path):
        self.assert_same_bytes([ContourSet("fam", 0.3, [], below_level=True),
                                ContourSet("other", 0.3, [])], tmp_path)

    @pytest.mark.parametrize("name", ['a"b', "back\\slash", "Afro-Asiatic ǃ",
                                      "tab\tnew\nline\x00\x1f", "", "ü/é\u2028"])
    def test_family_names(self, name, tmp_path):
        line = np.array([[0.0, 0.0], [1.0, 0.5]])
        self.assert_same_bytes([ContourSet(name, 0.1, [line])], tmp_path)

    def test_number_forms(self, tmp_path):
        values = [1e-05, 1e16, -0.0, 0.1, 1.0, -2.5, 123456789012345.0,
                  1 / 3, -1e-300, 5e-324, 1e300, 0.30000000000000004]
        line = np.array(values).reshape(-1, 2)
        sets = [ContourSet("f", v, [line, line[:1], line[:0]])
                for v in (1e-05, 1e16, 0.1)]
        self.assert_same_bytes(sets, tmp_path)

    def test_working_set_is_one_polyline(self, tmp_path):
        # the text is streamed polyline by polyline: the peak, 3.9 times
        # one polyline's text, does not grow with their number (a writer
        # that joins the whole file first peaks at 25 times)
        rng = np.random.default_rng(5)
        polylines = [rng.normal(size=(20_000, 2)) for _ in range(4)]
        path = tmp_path / "got.json"
        tracemalloc.start()
        try:
            write_contours_json([ContourSet("fam", 0.1, polylines)], path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        one_polyline = path.stat().st_size / len(polylines)
        assert len(json.loads(path.read_bytes())[0]["polylines"][3]) == 20_000
        assert peak < 5 * one_polyline

    def test_rasterized_families(self, tmp_path):
        sets = []
        for n in (1, 5, 16):
            coords, params = random_family(n, seed=n)
            sets.append(kde_contours(coords, params, 96, 0.3, relative=True,
                                     family=f"fam{n}"))
        assert all(cs.polylines for cs in sets)
        self.assert_same_bytes(sets, tmp_path)


class TestRenderSvgExact:
    def assert_same_bytes(self, points, contour_sets, tmp_path):
        """points: [(code, family, x, y)]."""
        reg = Registry([LanguageRecord(code, code, family, None, 1.0)
                        for code, family, _, _ in points])
        codes = [p[0] for p in points]
        coords = np.array([p[2:] for p in points], dtype=float).reshape(-1, 2)
        render_svg(codes, coords, reg, contour_sets, tmp_path / "got.svg")
        render_svg_oracle(codes, coords, reg, contour_sets, tmp_path / "want.svg")
        got = (tmp_path / "got.svg").read_bytes()
        assert got == (tmp_path / "want.svg").read_bytes()
        ET.fromstring(got)

    def test_nothing_to_draw(self, tmp_path):
        self.assert_same_bytes([], [], tmp_path)

    def test_points_without_sets(self, tmp_path):
        self.assert_same_bytes([("a", "f", 0.5, -2.0), ("b", "g", 3.25, 1.0)], [],
                               tmp_path)

    def test_empty_and_one_vertex_polylines(self, tmp_path):
        line = np.array([[0.1, 0.2], [1.7, -0.4], [0.1, 0.2]])
        sets = [ContourSet("f", 0.1, [line[:0], line[:1], line]),
                ContourSet("g", 0.1, [line[:1] * 3.0])]
        self.assert_same_bytes([("a", "f", 1.0, 1.0)], sets, tmp_path)
        self.assert_same_bytes([], [ContourSet("f", 0.1, [line[:1]])], tmp_path)
        self.assert_same_bytes([], [ContourSet("f", 0.1, [line[:0]])], tmp_path)

    def test_degenerate_extent(self, tmp_path):
        points = [("a", "f", 2.0, -1.0), ("b", "f", 2.0, 0.5), ("c", "g", 2.0, 3.0)]
        self.assert_same_bytes(points, [], tmp_path)
        self.assert_same_bytes(points[:1], [], tmp_path)
        line = np.array([[2.0, -1.0], [2.0, 4.0]])
        self.assert_same_bytes(points, [ContourSet("f", 0.1, [line])], tmp_path)

    @pytest.mark.parametrize("zeros", [(0.0, -0.0), (-0.0, 0.0)])
    def test_signed_zeros(self, zeros, tmp_path):
        z, nz = zeros
        points = [("a", "f", z, nz), ("b", "f", nz, z)]
        self.assert_same_bytes(points, [], tmp_path)
        line = np.array([[nz, z], [z, nz], [nz, 1.5], [-2.0, nz]])
        self.assert_same_bytes(points, [ContourSet("f", 0.1, [line])], tmp_path)
        self.assert_same_bytes([], [ContourSet("f", 0.1, [line[:2]])], tmp_path)

    def test_rasterized_families(self, tmp_path):
        points, sets = [], []
        for n in (1, 5, 16):
            coords, params = random_family(n, seed=n)
            sets.append(kde_contours(coords, params, 96, 0.3, relative=True,
                                     family=f"fam{n}"))
            points += [(f"l{n}x{i}", f"fam{n}", x, y)
                       for i, (x, y) in enumerate(coords.tolist())]
        assert all(cs.polylines for cs in sets)
        self.assert_same_bytes(points, sets, tmp_path)

    def test_many_vertices(self, tmp_path):
        # Enough values that a last-bit change in the screen arithmetic
        # reaches a 12th digit somewhere.
        rng = np.random.default_rng(7)
        line = rng.normal(size=(20000, 2)) * [3.0, 1.7] + [0.3, -0.2]
        self.assert_same_bytes([("a", "f", 0.0, 0.0)],
                               [ContourSet("f", 0.1, [line, line[::-7] * 0.5])],
                               tmp_path)
