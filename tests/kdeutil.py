"""Dense references for kde_contours, built from the pieces it uses.

kde_contours' reference is the grid of every node summed by
density._exact_at and traced by marching squares. dense_grid builds that
grid, density_at sums the density at one point the same way, and
trace_grid runs kde_contours' tracer over any grid of float64 values.
"""

from dataclasses import dataclass

import numpy as np

from phonosim import density


@dataclass
class Grid:
    values: np.ndarray  # values[i, j] = density at (x_centers[i], y_centers[j])
    x_centers: np.ndarray
    y_centers: np.ndarray


def synthetic_grid(values, x=(0.0, 1.0), y=(0.0, 1.0)):
    """A Grid of given values over cells filling the ranges x and y."""
    rows, cols = values.shape
    return Grid(values, density._centers(*x, rows), density._centers(*y, cols))


def dense_grid(coords, params, resolution):
    """Every node of kde_contours' grid, summed by _exact_at in id order."""
    (x_min, x_max, y_min, y_max), kx, ky = density._grid_and_kernels(
        coords, params, resolution)
    size = len(kx)
    values = density._exact_at(kx, ky, params, np.arange(size * size))
    return Grid(values.reshape(size, size), density._centers(x_min, x_max, size),
                density._centers(y_min, y_max, size))


def density_at(point, coords, params):
    """The density at one point, from _exact_at over 1 x N kernels."""
    pts = np.asarray(coords, dtype=float)
    kx = density._gaussian_kernel([point[0]], pts[:, 0], params.h_x)
    ky = density._gaussian_kernel([point[1]], pts[:, 1], params.h_y)
    return float(density._exact_at(kx, ky, params, np.zeros(1, dtype=np.intp))[0])


def trace_grid(grid, level, family=""):
    """kde_contours' below-level check and tracer over every cell of grid."""
    level = float(level)
    v = grid.values
    empty = density._below_level(float(v.max()), level, family)
    if empty is not None:
        return empty
    cells, flags = density._mixed_cells(v > level)
    nodes = density._corners(cells, v.shape[1])
    return density._trace(cells, flags, nodes, v.reshape(-1)[nodes],
                          grid.x_centers, grid.y_centers, level, family)
