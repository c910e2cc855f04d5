import math

import numpy as np
import pytest

from besselhardy import Grid, WeightedMeasure
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
