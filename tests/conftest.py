import math

import numpy as np
import pytest

from besselhardy import Grid, Interval, Potential, WeightedMeasure
from besselhardy.bessel import _asym_factor_numpy, _series_sum_numpy


@pytest.fixture(scope="session")
def m_half() -> WeightedMeasure:
    return WeightedMeasure(0.5)


@pytest.fixture(scope="session")
def grid_half(m_half) -> Grid:
    """Workhorse grid for alpha = 1/2 semigroup tests."""
    breaks = [k / 2 for k in range(1, 9)]
    return Grid.build(m_half, 420, 24.0, 80.0, breakpoints=breaks)


def fit_slope(xs, ys) -> float:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    a = np.vstack([xs, np.ones_like(xs)]).T
    sol, *_ = np.linalg.lstsq(a, ys, rcond=None)
    return float(sol[0])


def seam_branches(order: float, z) -> tuple[np.ndarray, np.ndarray]:
    """e^{-z} I_order(z) from the series and from the Hankel array branch alone, at each z."""
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    series = np.exp(-z) * (0.5 * z) ** order * _series_sum_numpy(order, z)
    return series, _asym_factor_numpy(order, z) / np.sqrt(2.0 * math.pi * z)


def fv_generator(m: WeightedMeasure, grid: Grid, potential: Potential) -> np.ndarray:
    """The finite-volume A_V = W^-1 S + diag(Vbar) as a dense matrix, edge by edge.

    Conductance e_k^alpha / (x_k - x_{k-1}) at each interior edge, and
    x_max^alpha / (x_max - x_{n-1}) from the last cell to the value 0 at x_max.
    """
    x, e, w = grid.nodes, grid.edges, grid.weights
    n = len(grid)
    s = np.zeros((n, n))
    for k in range(1, n):
        g = e[k] ** m.alpha / (x[k] - x[k - 1])
        s[k, k] += g
        s[k - 1, k - 1] += g
        s[k, k - 1] -= g
        s[k - 1, k] -= g
    s[-1, -1] += e[-1] ** m.alpha / (e[-1] - x[-1])
    vbar = [m.potential_integral(potential, Interval(a, b)) / wk for a, b, wk in zip(e[:-1], e[1:], w)]
    return s / w[:, None] + np.diag(vbar)
