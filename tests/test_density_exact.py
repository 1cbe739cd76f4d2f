"""rasterize, contour_grid, extract_contours and write_contours_json
against their earlier straightforward forms.

The oracles below are the chunked (chunk, R, N) rasterizer and the per-cell
marching squares that the vectorized versions replaced. Both versions do
the same floating-point operations in the same order, so results must be
equal bit for bit (np.array_equal), not merely close: contours.json and
the SVG are pinned byte for byte. contour_grid followed by
extract_contours must give exactly what rasterize followed by
extract_contours gives. The contours.json oracle is the json.dumps form
that the hand-written writer replaced; files must be equal byte for byte.
"""

import json
import math
import warnings

import numpy as np
import pytest

from phonosim import density
from phonosim.density import (ContourSet, DensityGrid, KDEParams,
                              contour_grid, extract_contours, rasterize,
                              write_contours_json)
from phonosim.errors import DataError
from phonosim.formats import round_float, write_lines


def rasterize_oracle(coords, params, resolution=512, padding_bandwidths=3.0):
    pts = np.asarray(coords, dtype=float)
    x_min = float(pts[:, 0].min()) - padding_bandwidths * params.h_x
    x_max = float(pts[:, 0].max()) + padding_bandwidths * params.h_x
    y_min = float(pts[:, 1].min()) - padding_bandwidths * params.h_y
    y_max = float(pts[:, 1].max()) + padding_bandwidths * params.h_y
    grid = DensityGrid(x_min, x_max, y_min, y_max, resolution,
                       np.empty((resolution, resolution)))
    xc = grid.x_centers
    yc = grid.y_centers
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
                      f"level {level:g}")
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
        got = rasterize(coords, params, resolution=resolution)
        want = rasterize_oracle(coords, params, resolution=resolution)
        assert (got.x_min, got.x_max, got.y_min, got.y_max) == \
            (want.x_min, want.x_max, want.y_min, want.y_max)
        assert np.array_equal(got.values, want.values)


class TestContoursExact:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_fields(self, seed):
        rng = np.random.default_rng(seed)
        res = int(rng.integers(16, 80))
        grid = DensityGrid(-1.0, 2.0, 0.5, 1.5, res, rng.random((res, res)))
        for level in (0.2, 0.5, 0.93):
            assert_same_contours(extract_contours(grid, level, family="f"),
                                 extract_contours_oracle(grid, level, family="f"))

    @pytest.mark.parametrize("n,resolution", [(1, 64), (7, 128), (16, 512)])
    def test_rasterized_families(self, n, resolution):
        coords, params = random_family(n, seed=n)
        grid = rasterize(coords, params, resolution=resolution)
        peak = float(grid.values.max())
        for frac in (0.05, 0.3, 0.8):
            assert_same_contours(extract_contours(grid, frac * peak),
                                 extract_contours_oracle(grid, frac * peak))

    @pytest.mark.parametrize("offset", [1e-9, -1e-9, 0.0])
    def test_saddle_field(self, offset):
        lin = np.linspace(-1.0, 1.0, 64)
        grid = DensityGrid(-1.0, 1.0, -1.0, 1.0, 64, np.outer(lin, lin) + 0.5)
        assert_same_contours(extract_contours(grid, 0.5 + offset),
                             extract_contours_oracle(grid, 0.5 + offset))

    def test_checkerboard_every_cell_a_saddle(self):
        res = 20
        board = (np.add.outer(np.arange(res), np.arange(res)) % 2).astype(float)
        values = 0.1 + 0.8 * board + np.linspace(0, 0.05, res * res).reshape(res, res)
        grid = DensityGrid(0.0, 1.0, 0.0, 1.0, res, values)
        for level in (0.45, 0.5, 0.55):
            assert_same_contours(extract_contours(grid, level),
                                 extract_contours_oracle(grid, level))

    def test_boundary_clipped_lines(self):
        res = 40
        x = np.linspace(0.0, 1.0, res)
        fields = [np.tile(x[:, None], (1, res)),          # lines across rows
                  np.tile(x[None, :], (res, 1)),          # lines across columns
                  np.add.outer(x, x),                     # diagonals
                  np.sin(6 * x)[:, None] * np.cos(5 * x)[None, :] + 1.0]
        for values in fields:
            grid = DensityGrid(0.0, 1.0, 0.0, 1.0, res, values)
            for level in (0.3, 0.5, 0.99):
                got = extract_contours(grid, level)
                assert_same_contours(got, extract_contours_oracle(grid, level))
            assert any(not np.array_equal(p[0], p[-1])
                       for p in extract_contours(grid, 0.5).polylines)

    def test_all_above_level(self):
        grid = DensityGrid(0.0, 1.0, 0.0, 1.0, 16, np.full((16, 16), 0.5))
        got = extract_contours(grid, 0.1)
        assert got.polylines == [] and not got.below_level
        assert_same_contours(got, extract_contours_oracle(grid, 0.1))

    def test_all_below_level(self):
        values = np.random.default_rng(0).random((16, 16)) * 0.05
        grid = DensityGrid(0.0, 1.0, 0.0, 1.0, 16, values)
        with pytest.warns(UserWarning):
            got = extract_contours(grid, 0.1)
        with pytest.warns(UserWarning):
            want = extract_contours_oracle(grid, 0.1)
        assert got.below_level and got.polylines == []
        assert_same_contours(got, want)

    def test_float32_grid(self):
        values = np.random.default_rng(4).random((24, 24)).astype(np.float32)
        grid = DensityGrid(0.0, 1.0, 0.0, 1.0, 24, values)
        level = 0.5 + math.ulp(0.5)
        assert_same_contours(extract_contours(grid, level),
                             extract_contours_oracle(grid, level))


def assert_promised_cells_exact(grid, full, cutoff, n_points):
    """The cells contour_grid promises hold rasterize's values: those near
    the maximum, those near the cutoff (both judged here from the exact
    values, inside the band the estimate's bound guarantees) and the
    corners of every mixed cell; and every cell sits on the same side of
    the cutoff."""
    exact, got = full.values, grid.values
    rel = (n_points + 2) * 2.0 ** -53
    top = float(exact.max())
    promised = exact >= top * (1 - rel)
    cut = float(cutoff)
    if math.isfinite(cut) and 0 < cut <= top:
        assert np.array_equal(got > cut, exact > cut)
        promised |= np.abs(exact - cut) <= rel * exact
        _, i, j = density._mixed_cells(exact, cut)
        for di, dj in ((0, 0), (1, 0), (0, 1), (1, 1)):
            promised[i + di, j + dj] = True
    assert promised.any()
    assert np.array_equal(got[promised], exact[promised])
    assert float(got.max()) == top


def contours_both_ways(coords, params, resolution, level, relative=False):
    """contour_grid then extract_contours, checked against rasterize then
    extract_contours (polylines, flags, cutoff, warning text) and against
    the per-cell marching squares."""
    with warnings.catch_warnings(record=True) as got_warnings:
        warnings.simplefilter("always")
        grid, cutoff = contour_grid(coords, params, resolution, level, relative)
        got = extract_contours(grid, cutoff, family="f")
    with warnings.catch_warnings(record=True) as want_warnings:
        warnings.simplefilter("always")
        full = rasterize(coords, params, resolution)
        want_cutoff = level * float(full.values.max()) if relative else level
        want = extract_contours(full, want_cutoff, family="f")
    assert cutoff == want_cutoff
    assert_same_contours(got, want)
    assert [(w.category, str(w.message)) for w in got_warnings] == \
        [(w.category, str(w.message)) for w in want_warnings]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert_same_contours(got, extract_contours_oracle(full, want_cutoff,
                                                          family="f"))
    assert (grid.x_min, grid.x_max, grid.y_min, grid.y_max, grid.resolution) \
        == (full.x_min, full.x_max, full.y_min, full.y_max, full.resolution)
    assert_promised_cells_exact(grid, full, cutoff, params.n_points)
    return got, grid, full


def two_clusters():
    # far enough apart (in bandwidths) that the grid between them holds
    # subnormal and zero densities
    coords = np.array([[0.0, 0.0], [0.4, 1.0], [80.0, 0.3], [80.3, -0.6]])
    return coords, KDEParams(1.0, 1.0, [0.5, 1.5, 1.2, 0.8])


class TestContourGridExact:
    @pytest.mark.parametrize("resolution", [16, 33, 257])
    @pytest.mark.parametrize("n", [1, 2, 16, 129])
    def test_random_families(self, n, resolution):
        coords, params = random_family(n, seed=77 * n + resolution)
        for level, relative in ((0.5, True), (0.05, True), (0.9, True),
                                (1.0, True), (1.5, True), (0.02, False)):
            contours_both_ways(coords, params, resolution, level, relative)

    def test_pipeline_size(self):
        coords, params = random_family(16, seed=2048)
        got, _, _ = contours_both_ways(coords, params, 2048, 0.1, relative=True)
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
            params = KDEParams(*density.silverman_bandwidths(coords), np.ones(5))
        resolution = 65
        values = rasterize(coords, params, resolution).values
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
            got, _, _ = contours_both_ways(coords, params, resolution, 1e9)
            assert got.polylines

    @pytest.mark.parametrize("level", [5e-324, 1e-320, 2.0 ** -1022, 1e-300])
    def test_tiny_levels(self, level):
        coords, params = two_clusters()
        values = rasterize(coords, params, 257).values
        assert (values == 0).any() and ((values > 0) & (values < 2.0 ** -1022)).any()
        got, _, _ = contours_both_ways(coords, params, 257, level)
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
        got, _, _ = contours_both_ways(coords, params, 64, level, relative)
        assert got.below_level and got.polylines == []

    @pytest.mark.parametrize("relative", [False, True])
    @pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf, 0.0,
                                       -1.0, -5e-324, 1e300])
    def test_invalid_levels_still_rejected(self, level, relative):
        # identical points: the peak is near 1e11, so 1e300 of it overflows
        coords = np.tile([0.3, -1.2], (4, 1))
        params = KDEParams(*density.silverman_bandwidths(coords), np.ones(4))
        if level == 1e300 and not relative:
            level = math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            grid, cutoff = contour_grid(coords, params, 64, level, relative)
            with pytest.raises(DataError,
                               match="^contour level must be finite and positive$"):
                extract_contours(grid, cutoff)

    def test_scale_outside_the_bound_is_computed_whole(self, monkeypatch):
        # h_x * h_y so small that the normalizing constant is subnormal
        coords = np.array([[0.0, 0.0], [5e-150, 1e-159]])
        params = KDEParams(1e-150, 1.59e-159, np.ones(2))
        assert density._norm(params) < 2.0 ** -1022
        calls = []
        real = density._fill_exact
        monkeypatch.setattr(density, "_fill_exact",
                            lambda *args: calls.append(1) or real(*args))
        _, grid, full = contours_both_ways(coords, params, 33, 0.5, True)
        assert len(calls) == 2  # contour_grid, then rasterize
        assert np.array_equal(grid.values, full.values)
        assert np.isfinite(grid.values).all()

    def test_wide_band_is_gathered(self, monkeypatch):
        # two points 1000 bandwidths apart: nearly every cell is zero, so
        # the band around a subnormal level holds nearly the whole grid
        coords = np.array([[0.0, 0.0], [1000.0, 1000.0]])
        params = KDEParams(1.0, 1.0, [0.5, 1.5])
        calls = []
        real = density._fill_exact
        monkeypatch.setattr(density, "_fill_exact",
                            lambda *args: calls.append(1) or real(*args))
        got, grid, full = contours_both_ways(coords, params, 257, 5e-324)
        assert len(calls) == 1  # only the rasterize reference
        # every zero or subnormal cell lies in the band, so it was gathered
        band = full.values < 2.0 ** -1022
        assert band.mean() > 0.99
        assert np.array_equal(grid.values[band], full.values[band])
        assert got.polylines


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

    def test_rasterized_families(self, tmp_path):
        sets = []
        for n in (1, 5, 16):
            coords, params = random_family(n, seed=n)
            grid = rasterize(coords, params, resolution=96)
            level = 0.3 * float(grid.values.max())
            sets.append(extract_contours(grid, level, family=f"fam{n}"))
        assert all(cs.polylines for cs in sets)
        self.assert_same_bytes(sets, tmp_path)
