import math
import random
import warnings

import numpy as np
import pytest

from phonosim import density
from phonosim.density import (ContourSet, KDEParams, kde_contours,
                              silverman_bandwidths, weights_from_hours,
                              write_contours_json)
from phonosim.errors import DataError

from kdeutil import dense_grid, density_at, synthetic_grid, trace_grid

SQRT_2PI = math.sqrt(2.0 * math.pi)


def kde_oracle(point, coords, weights, h_x, h_y):
    """Direct summation with per-factor normal kernels."""
    total = 0.0
    for (x_i, y_i), w in zip(coords, weights):
        kx = math.exp(-0.5 * ((point[0] - x_i) / h_x) ** 2) / SQRT_2PI
        ky = math.exp(-0.5 * ((point[1] - y_i) / h_y) ** 2) / SQRT_2PI
        total += w * kx * ky
    return total / (len(coords) * h_x * h_y)


class TestSilverman:
    def test_hand_evaluated_formula(self):
        h_x, h_y = silverman_bandwidths([(0.0, 0.0), (1.0, 0.0)], np.ones(2))
        assert abs(h_x - 1.06 * 0.5 * 2 ** (-0.2)) <= 1e-12
        assert abs(h_x - 0.4614) <= 5e-4

    def test_zero_spread_axis_falls_back(self):
        h_x, h_y = silverman_bandwidths([(0.0, 0.0), (1.0, 0.0)], np.ones(2))
        assert h_y == max(1e-6, 1e-3 * 1.0)

    def test_all_points_identical_no_crash(self):
        h_x, h_y = silverman_bandwidths([(2.0, 3.0)] * 4, np.ones(4))
        assert h_x == 1e-6 and h_y == 1e-6

    def test_weighted_matches_replication_up_to_n_factor(self):
        # weights (2, 1) give the same weighted sigma as the multiset
        # {p1, p1, p2} with unit weights; only the N^(-1/5) factor differs
        p1, p2 = (0.0, 1.0), (3.0, -1.0)
        hw = silverman_bandwidths([p1, p2], weights=[2.0, 1.0])
        hr = silverman_bandwidths([p1, p1, p2], np.ones(3))
        sigma_w = hw[0] / (1.06 * 2 ** (-0.2))
        sigma_r = hr[0] / (1.06 * 3 ** (-0.2))
        assert abs(sigma_w - sigma_r) <= 1e-12

        def sigma_oracle(values, weights):
            mean = sum(w * v for w, v in zip(weights, values)) / sum(weights)
            var = sum(w * (v - mean) ** 2
                      for w, v in zip(weights, values)) / sum(weights)
            return math.sqrt(var)

        assert abs(sigma_w - sigma_oracle([0.0, 3.0], [2.0, 1.0])) <= 1e-12


class TestWeights:
    def test_mean_one(self):
        w = weights_from_hours([2.0, 20.0])
        assert abs(w.mean() - 1.0) <= 1e-12
        assert np.allclose(w, [2 * 2 / 22, 2 * 20 / 22])

    def test_zero_hours_rejected(self):
        with pytest.raises(DataError):
            weights_from_hours([1.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        for h_x, h_y in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(DataError, match="finite and positive"):
                KDEParams(h_x, h_y, np.ones(2))
        with pytest.raises(DataError, match="weights must be finite"):
            KDEParams(1.0, 1.0, np.array([bad, 1.0]))

    def test_hours_too_large_to_weight_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning on the way
            with pytest.raises(DataError, match="^recording hours sum to more "
                               "than the largest float$"):
                weights_from_hours([1e308, 1e308])
            with pytest.raises(DataError, match="^recording hours times the "
                               "number of languages exceed the largest float$"):
                weights_from_hours([1e308, 1e300])
        w = weights_from_hours([1e307, 3e307])
        assert w.tolist() == [2 * 1e307 / 4e307, 2 * 3e307 / 4e307]

    def test_params_validation(self):
        with pytest.raises(DataError):
            KDEParams(1.0, 1.0, np.array([2.0, 3.0]))  # mean != 1
        with pytest.raises(DataError):
            KDEParams(0.0, 1.0, np.array([1.0]))


class TestDensity:
    def test_single_point_peak_is_inverse_two_pi(self):
        params = KDEParams(1.0, 1.0, np.array([1.0]))
        value = density_at((0.3, -0.2), [(0.3, -0.2)], params)
        assert abs(value - 1.0 / (2.0 * math.pi)) <= 1e-12

    def test_far_away_underflows_to_zero(self):
        params = KDEParams(1.0, 1.0, np.array([1.0]))
        assert density_at((40.0, 0.0), [(0.0, 0.0)], params) < 1e-300

    def test_matches_bruteforce_oracle(self):
        rng = random.Random(8)
        for _ in range(50):
            n = rng.randint(1, 5)
            coords = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
            raw = [rng.uniform(0.2, 2.0) for _ in range(n)]
            weights = np.array(raw) * n / sum(raw)
            h_x = rng.uniform(0.2, 1.5)
            h_y = rng.uniform(0.2, 1.5)
            params = KDEParams(h_x, h_y, weights)
            point = (rng.uniform(-3, 3), rng.uniform(-3, 3))
            got = density_at(point, coords, params)
            want = kde_oracle(point, coords, weights, h_x, h_y)
            assert abs(got - want) <= 1e-12


def mass(grid):
    cell = (grid.x_centers[1] - grid.x_centers[0]) * (grid.y_centers[1] - grid.y_centers[0])
    return float(grid.values.sum() * cell)


class TestRasterize:
    """The dense reference grid (the class keeps the name of the function
    that built it before kde_contours became the one contour path)."""

    def test_mass_close_to_one(self):
        coords = [(0.0, 0.0), (1.0, 0.5), (0.2, 1.0)]
        params = KDEParams(0.4, 0.4, np.ones(3))
        assert abs(mass(dense_grid(coords, params, 512)) - 1.0) <= 1e-2

    def test_grid_values_match_kde_density(self):
        coords = [(0.0, 0.0), (1.0, 0.5)]
        params = KDEParams(0.5, 0.7, np.array([1.5, 0.5]))
        grid = dense_grid(coords, params, 32)
        xc, yc = grid.x_centers, grid.y_centers
        for i in (0, 10, 31):
            for j in (0, 17, 31):
                direct = density_at((xc[i], yc[j]), coords, params)
                assert abs(grid.values[i, j] - direct) <= 1e-12 * max(1, direct)

    def test_single_point_peak_cell(self):
        coords = [(0.25, -0.5)]
        params = KDEParams(0.3, 0.3, np.array([1.0]))
        grid = dense_grid(coords, params, 64)
        i, j = np.unravel_index(np.argmax(grid.values), grid.values.shape)
        assert abs(grid.x_centers[i] - 0.25) <= grid.x_centers[1] - grid.x_centers[0]
        assert abs(grid.y_centers[j] + 0.5) <= grid.y_centers[1] - grid.y_centers[0]

    def test_mass_stable_under_resolution_doubling(self):
        coords = [(0.0, 0.0), (1.0, 0.5), (0.2, 1.0)]
        params = KDEParams(0.4, 0.4, np.ones(3))
        m1 = mass(dense_grid(coords, params, 256))
        m2 = mass(dense_grid(coords, params, 512))
        assert abs(m1 - m2) < 1e-3

    def test_padding_extends_bounds(self):
        coords = [(0.0, 0.0), (1.0, 1.0)]
        params = KDEParams(0.5, 0.25, np.ones(2))
        extent, _, _ = density._grid_and_kernels(coords, params, 16)
        assert extent == (-1.5, 2.5, -0.75, 1.75)

    def test_resolution_floor(self):
        params = KDEParams(1.0, 1.0, np.ones(1))
        with pytest.raises(DataError):
            kde_contours([(0, 0)], params, 8, 0.1)


class TestContours:
    def test_single_point_ring(self):
        coords = [(0.0, 0.0)]
        params = KDEParams(1.0, 1.0, np.array([1.0]))
        level = 0.1  # peak is 1/(2*pi) ~ 0.159
        cs = kde_contours(coords, params, 512, level, family="solo")
        assert not cs.below_level
        assert len(cs.polylines) == 1
        polyline = cs.polylines[0]
        assert np.array_equal(polyline[0], polyline[-1])  # closed
        for x, y in polyline[:-1]:
            exact = density_at((x, y), coords, params)
            assert abs(exact - level) <= 0.01 * level

    def test_below_level_flagged_with_warning(self):
        grid = synthetic_grid(np.full((16, 16), 0.05))
        with pytest.warns(UserWarning):
            cs = trace_grid(grid, 0.1)
        assert cs.below_level and cs.polylines == []

    def test_two_separated_blobs_two_loops(self):
        coords = [(0.0, 0.0), (10.0, 0.0)]
        params = KDEParams(1.0, 1.0, np.ones(2))
        # each blob peaks at ~1/(4*pi) ~ 0.0796
        cs = kde_contours(coords, params, 256, 0.04)
        assert len(cs.polylines) == 2
        for polyline in cs.polylines:
            assert np.array_equal(polyline[0], polyline[-1])

    def test_whole_grid_above_level_gives_no_polylines(self):
        cs = trace_grid(synthetic_grid(np.full((16, 16), 0.5)), 0.1)
        assert cs.polylines == [] and not cs.below_level

    def test_boundary_clipped_chain_is_open(self):
        # monotone field: the level set is a line leaving the grid
        res = 32
        values = np.tile(np.linspace(0.0, 1.0, res)[:, None], (1, res))
        cs = trace_grid(synthetic_grid(values), 0.5)
        assert len(cs.polylines) == 1
        polyline = cs.polylines[0]
        assert not np.array_equal(polyline[0], polyline[-1])

    def test_vertices_lie_on_linear_interpolant(self):
        rng = np.random.default_rng(123)
        grid = synthetic_grid(rng.random((24, 24)))
        cs = trace_grid(grid, 0.5)
        xc, yc = grid.x_centers, grid.y_centers
        for polyline in cs.polylines:
            for x, y in polyline:
                on_x_line = np.any(np.isclose(x, xc, atol=1e-12))
                on_y_line = np.any(np.isclose(y, yc, atol=1e-12))
                assert on_x_line or on_y_line

    def test_json_export(self, tmp_path):
        import json

        cs = ContourSet("fam", 0.1,
                        [np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])])
        path = tmp_path / "contours.json"
        write_contours_json([cs], path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload[0]["family"] == "fam"
        assert payload[0]["level"] == 0.1
        assert payload[0]["polylines"][0][0] == [0.0, 0.0]


class TestSaddles:
    def test_saddle_polylines_do_not_self_intersect(self):
        # quadratic saddle z = x*y around 0 triggers ambiguous cells
        res = 64
        lin = np.linspace(-1.0, 1.0, res)
        values = np.outer(lin, lin) + 0.5
        cs = trace_grid(synthetic_grid(values, (-1.0, 1.0), (-1.0, 1.0)), 0.5 + 1e-9)
        assert cs.polylines
        for polyline in cs.polylines:
            closed = np.array_equal(polyline[0], polyline[-1])
            pts = polyline[:-1] if closed else polyline
            unique = {(round(float(x), 12), round(float(y), 12)) for x, y in pts}
            assert len(unique) == len(pts)
