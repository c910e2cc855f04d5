"""Spatial grids on (0, x_max] with exact weighted cell masses.

A grid is a partition of (0, x_max] into cells; the quadrature weight of a
cell is its exact mu-mass and functions are sampled at cell midpoints.  Cell
edges can be snapped to prescribed breakpoints so that indicator functions of
section intervals integrate exactly.
"""

from __future__ import annotations

import math
import numbers
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import InvalidInput, MixedGrids
from .measure import Interval, WeightedMeasure

# A grid caches kernel matrices (kernel.BandMatrix, n^2 8 bytes at most) and
# finite-volume spectra (generator.Spectrum, n^2 8 + 16 n bytes) in one
# least-recently-used list of at most _CACHE_BYTES.  A get makes its entry the
# newest; a put drops the oldest entries until the rest fit, and keeps the
# entry just put even when it alone is larger.  The superharmonic sweep,
# condition (D) and the Hardy norms ask for one spectrum per (grid, V) on
# every call, and condition (K) for the one of V = 0; a Duhamel check reads
# the resolvent and puts nothing here.  In the benchmark's sweep_cold
# workload (grid 900; per round four sweeps under V = 1 and V = 1/x, a
# V = 1/x (D) check and a Duhamel pair), counted over 8 rounds at seed 21,
# this made no kernel build, 2 spectra in the first round and none after,
# and held at most 13.0 MB: the two spectra.  One at n = 1400 takes 15.7 MB.
# The split's kernel matrices (schrodinger_apply, heat_evolve) share the
# budget; 48 MiB raised the sweep_cold peak RSS by 6% when it was tried,
# while the Duhamel check still built matrices.
_CACHE_BYTES = 40 * 2**20


class Grid:
    """Nonuniform grid with geometric clustering near the origin.

    ``ratio`` controls the stretch: cell widths grow by the factor
    ratio^(1/n) per cell, so ratio = 1 gives a uniform grid and larger values
    refine toward 0 where the weight x^alpha needs resolution.
    """

    def __init__(self, measure: WeightedMeasure, edges: np.ndarray):
        edges = np.asarray(edges, dtype=np.float64)
        if edges.ndim != 1 or edges.size < 3:
            raise InvalidInput("need at least two cells")
        if not (edges[0] >= 0.0 and np.all(np.diff(edges) > 0.0) and edges[-1] < math.inf):  # also rejects NaN
            raise InvalidInput("edges must be finite, start at >= 0 and increase strictly")
        self.measure = measure
        self.edges = edges
        self.nodes = 0.5 * (edges[:-1] + edges[1:])
        p = 1.0 + measure.alpha
        powers = edges**p / p
        self.weights = np.diff(powers)
        self._matrix_cache: OrderedDict = OrderedDict()  # least recently used first

    @classmethod
    def build(
        cls,
        measure: WeightedMeasure,
        n: int,
        x_max: float,
        ratio: float = 100.0,
        breakpoints: Iterable[float] = (),
    ) -> "Grid":
        if not (isinstance(n, numbers.Integral) and n >= 2 and 0.0 < x_max < math.inf and 1.0 <= ratio < math.inf):
            raise InvalidInput(f"need an integer n >= 2, finite x_max > 0 and ratio >= 1, got {(n, x_max, ratio)!r}")
        i = np.arange(n + 1, dtype=np.float64) / n
        edges = x_max * i
        if ratio > 1.0:
            stretched = x_max * (ratio**i - 1.0) / (ratio - 1.0)
            stretched[-1] = x_max
            # within rounding of 1 the geometric edges stop increasing
            # strictly; the uniform grid is their limit
            if np.all(np.diff(stretched) > 0.0):
                edges = stretched
        edges[0] = 0.0
        edges[-1] = x_max
        pts = sorted({float(b) for b in breakpoints if 0.0 < b < x_max})
        if pts:
            keep = np.ones(edges.size, dtype=bool)
            for b in pts:
                j = int(np.searchsorted(edges, b))
                # drop stretched edges crowding the breakpoint
                for jj in (j - 1, j):
                    if 0 < jj < edges.size - 1:
                        local = edges[min(jj + 1, edges.size - 1)] - edges[max(jj - 1, 0)]
                        if abs(edges[jj] - b) < 0.25 * local:
                            keep[jj] = False
            edges = np.unique(np.concatenate([edges[keep], np.asarray(pts)]))
        return cls(measure, edges)

    def __len__(self) -> int:
        return self.nodes.size

    @property
    def x_max(self) -> float:
        return float(self.edges[-1])

    def index_of(self, x: float) -> int:
        """Index of the cell whose node is nearest to x, for 0 < x <= x_max."""
        if not 0.0 < x <= self.edges[-1]:  # also rejects NaN
            raise InvalidInput(f"point must lie in the grid (0, {self.x_max!r}], got {float(x)!r}")
        j = int(np.clip(np.searchsorted(self.edges, x) - 1, 0, len(self) - 1))
        if j + 1 < len(self) and abs(self.nodes[j + 1] - x) < abs(self.nodes[j] - x):
            return j + 1
        return j

    def snap_edge(self, x: float) -> int:
        """Index of the edge nearest to x, for 0 <= x <= x_max."""
        if not 0.0 <= x <= self.edges[-1]:  # also rejects NaN
            raise InvalidInput(f"point must lie on the grid [0, {self.x_max!r}], got {float(x)!r}")
        j = int(np.clip(np.searchsorted(self.edges, x), 0, self.edges.size - 1))
        if j > 0 and abs(self.edges[j - 1] - x) <= abs(self.edges[j] - x):
            return j - 1
        return j

    def snap_interval(self, interval: Interval | tuple[float, float]) -> "CellRange":
        a, b = (interval.a, interval.b) if isinstance(interval, Interval) else interval
        i0 = self.snap_edge(a)
        i1 = self.snap_edge(b)
        if i1 <= i0:
            i1 = min(i0 + 1, self.edges.size - 1)
            i0 = i1 - 1
        return CellRange(self, i0, i1)

    def indicator(self, cells: "CellRange") -> np.ndarray:
        out = np.zeros(len(self))
        out[cells.i0 : cells.i1] = 1.0
        return out

    def cache_get(self, key):
        value = self._matrix_cache.get(key)
        if value is not None:
            self._matrix_cache.move_to_end(key)
        return value

    def cache_put(self, key, value):
        cache = self._matrix_cache
        cache.pop(key, None)
        cache[key] = value
        held = sum(v.nbytes for v in cache.values())
        while held > _CACHE_BYTES and len(cache) > 1:
            held -= cache.popitem(last=False)[1].nbytes


@dataclass(frozen=True)
class CellRange:
    """Contiguous run of grid cells; the snapped form of an interval."""

    grid: Grid
    i0: int
    i1: int

    @property
    def interval(self) -> Interval:
        return Interval(float(self.grid.edges[self.i0]), float(self.grid.edges[self.i1]))

    @property
    def mass(self) -> float:
        """Exact mu-mass of the snapped interval (sum of cell masses)."""
        return float(self.grid.weights[self.i0 : self.i1].sum())

    @property
    def length(self) -> float:
        return float(self.grid.edges[self.i1] - self.grid.edges[self.i0])


class GridFunction:
    """Function sampled at grid nodes; norms use the grid's exact weights."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != grid.nodes.shape:
            raise InvalidInput("value array does not match grid")
        self.grid = grid
        self.values = values

    @classmethod
    def from_callable(cls, grid: Grid, f: Callable) -> "GridFunction":
        return cls(grid, np.asarray(f(grid.nodes), dtype=np.float64))

    @classmethod
    def ones(cls, grid: Grid) -> "GridFunction":
        return cls(grid, np.ones(len(grid)))

    @classmethod
    def point_mass(cls, grid: Grid, x: float) -> "GridFunction":
        """Discrete unit point mass: indicator of one cell over its mu-mass, for 0 < x <= x_max."""
        j = grid.index_of(x)
        values = np.zeros(len(grid))
        values[j] = 1.0 / grid.weights[j]
        return cls(grid, values)

    def _check(self, other: "GridFunction") -> None:
        if other.grid is not self.grid:
            raise MixedGrids("grid functions live on different grids")

    def integral(self) -> float:
        return float(self.grid.weights @ self.values)

    def l1(self) -> float:
        return float(self.grid.weights @ np.abs(self.values))

    def linf(self) -> float:
        return float(np.max(np.abs(self.values)))

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check(other)
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "GridFunction":
        return GridFunction(self.grid, self.values * float(scalar))

    __rmul__ = __mul__
