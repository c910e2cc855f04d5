"""Atoms, partitions of unity, maximal functions, and atom re-supporting.

Atoms live on a grid.  Supports are snapped to cell edges so indicator masses
and cancellation integrals are exact up to float summation; containment
conditions (kind-(i) atoms inside the host's double star) are judged at the
nodes carrying mass, which is what grid quadrature sees.

Three kinds:

* cancellative (host interval I, mass inside the double star I**),
* local (the normalized indicator of a section interval),
* mu (cancellative with a free support interval).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import generator
from .errors import CutoffViolation, InvalidInput, MixedGrids, SupportViolation
from .grid import CellRange, Grid, GridFunction
from .kernel import _check_count, _check_time
from .measure import Interval, Potential, WeightedMeasure, enlarge
from .section import ProperSection

_RAMP_FRAC = 0.9  # a shared partition_of_unity ramp is _RAMP_FRAC (beta - 1) min(|I|, |J|) wide
CANCELLATION_REL_TOL = 1e-10


class AtomKind(enum.Enum):
    CANCELLATIVE = "cancellative"  # kind (i)
    LOCAL = "local"  # kind (ii)
    MU = "mu"  # kind (iii)


@dataclass(frozen=True)
class Atom:
    kind: AtomKind
    cells: CellRange
    values: GridFunction
    host: Interval | None = None

    @property
    def support(self) -> Interval:
        return self.cells.interval

    @property
    def grid(self) -> Grid:
        return self.values.grid

    @property
    def size_bound(self) -> float:
        return 1.0 / self.cells.mass


def validate_atom(atom: Atom, beta: float = 1.2) -> None:
    """Re-check the size/support/cancellation conditions; raises on failure."""
    vals = atom.values.values
    grid = atom.grid
    nz = np.nonzero(vals)[0]
    if nz.size and (nz[0] < atom.cells.i0 or nz[-1] >= atom.cells.i1):
        raise SupportViolation("atom has mass outside its support cells")
    if np.max(np.abs(vals)) > atom.size_bound * (1.0 + 1e-9):
        raise SupportViolation("atom exceeds its size bound 1/mu(support)")
    if atom.kind in (AtomKind.CANCELLATIVE, AtomKind.MU):
        l1 = atom.values.l1()
        if l1 > 0 and abs(atom.values.integral()) > CANCELLATION_REL_TOL * l1:
            raise SupportViolation("cancellative atom fails the mean-zero condition")
    if atom.kind is AtomKind.CANCELLATIVE:
        if atom.host is None:
            raise SupportViolation("cancellative atom needs a host interval")
        star2 = enlarge(atom.host, beta * beta)
        if nz.size:
            nodes = grid.nodes[nz]
            if nodes[0] < star2.a or nodes[-1] > star2.b:
                raise SupportViolation("cancellative atom carries mass outside I**")


def make_local_atom(grid: Grid, interval: Interval) -> Atom:
    """Kind (ii): the normalized indicator mu(I)^{-1} 1_I, exact on the grid."""
    cells = grid.snap_interval(interval)
    vals = grid.indicator(cells) / cells.mass
    return Atom(AtomKind.LOCAL, cells, GridFunction(grid, vals), host=interval)


def _shaped_values(grid: Grid, cells: CellRange, profile) -> np.ndarray:
    nodes = grid.nodes[cells.i0 : cells.i1]
    if profile is None or (isinstance(profile, str) and profile == "haar"):
        mid = 0.5 * (cells.interval.a + cells.interval.b)
        raw = np.where(nodes < mid, 1.0, -1.0)
    elif callable(profile):
        raw = np.asarray(profile(nodes), dtype=np.float64)
    else:
        raw = np.asarray(profile, dtype=np.float64)
    if raw.shape != nodes.shape:
        raise InvalidInput("profile length does not match the snapped support")
    return raw


def make_mu_atom(grid: Grid, support: Interval, profile="haar") -> Atom:
    """Kind (iii): mean-corrected, sup-normalized profile on ``support``."""
    cells = grid.snap_interval(support)
    raw = _shaped_values(grid, cells, profile)
    w = grid.weights[cells.i0 : cells.i1]
    raw = raw - (w @ raw) / w.sum()
    top = np.max(np.abs(raw))
    if top == 0.0:
        raise InvalidInput("profile is constant after mean correction; no atom")
    vals = np.zeros(len(grid))
    vals[cells.i0 : cells.i1] = raw * (1.0 / (cells.mass * top))
    return Atom(AtomKind.MU, cells, GridFunction(grid, vals))


def make_cancellative_atom(
    grid: Grid, host: Interval, support: Interval, beta: float = 1.2, profile="haar"
) -> Atom:
    """Kind (i): a mu-atom whose support must sit inside the host's I**."""
    star2 = enlarge(host, beta * beta)
    if not (star2.a <= support.a and support.b <= star2.b):
        raise SupportViolation(
            f"support [{support.a}, {support.b}] not inside I** = [{star2.a}, {star2.b}]"
        )
    base = make_mu_atom(grid, support, profile)
    return Atom(AtomKind.CANCELLATIVE, base.cells, base.values, host=host)


@dataclass(frozen=True)
class AtomicCombination:
    terms: tuple[tuple[float, Atom], ...]

    @property
    def certificate(self) -> float:
        """sum |lambda_n|: an upper bound for the atomic norm, not the infimum."""
        return float(sum(abs(lam) for lam, _ in self.terms))

    def synthesize(self) -> tuple[GridFunction, float]:
        if not self.terms:
            raise InvalidInput("empty combination")
        grid = self.terms[0][1].grid
        out = np.zeros(len(grid))
        for lam, atom in self.terms:
            if atom.grid is not grid:
                raise MixedGrids("atoms live on different grids")
            out += lam * atom.values.values
        return GridFunction(grid, out), self.certificate


# ---------------------------------------------------------------------------
# smoothstep bumps and the partition of unity


def _smoothstep(x, start: float, width: float):
    u = np.clip((x - start) / width, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def _smoothstep_slope(x, start: float, width: float):
    u = np.clip((x - start) / width, 0.0, 1.0)
    return 6.0 * u * (1.0 - u) / width


@dataclass(frozen=True)
class Bump:
    """Smoothstep bump: rises on ``up``, is 1 between the ramps, falls on ``down``.

    Each ramp is a (start, width) pair: with u = (x - start)/width clipped
    to [0, 1], the rise is smoothstep(u) = 3u^2 - 2u^3 and the fall is
    1 - smoothstep(u), so each ramp has slope at most 1.5/width.  A missing
    ramp (None) leaves the bump at 1 down to the origin or out to infinity.
    """

    up: tuple[float, float] | None
    down: tuple[float, float] | None

    @property
    def _ramps(self) -> list[tuple[float, float]]:
        return [r for r in (self.up, self.down) if r is not None]

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = np.ones_like(x)
        if self.up is not None:
            out = out * _smoothstep(x, *self.up)
        if self.down is not None:
            out = out * (1.0 - _smoothstep(x, *self.down))
        return out if x.ndim else float(out)

    def derivative(self, x):
        x = np.asarray(x, dtype=np.float64)
        rise = fall = np.ones_like(x)
        d_rise = d_fall = np.zeros_like(x)
        if self.up is not None:
            rise, d_rise = _smoothstep(x, *self.up), _smoothstep_slope(x, *self.up)
        if self.down is not None:
            fall, d_fall = 1.0 - _smoothstep(x, *self.down), -_smoothstep_slope(x, *self.down)
        out = d_rise * fall + rise * d_fall
        return out if x.ndim else float(out)

    @property
    def support(self) -> tuple[float, float]:
        lo = self.up[0] if self.up is not None else 0.0
        hi = self.down[0] + self.down[1] if self.down is not None else math.inf
        return (lo, hi)

    @property
    def kinks(self) -> tuple[float, ...]:
        return tuple(p for a, w in self._ramps for p in (a, a + w))

    @property
    def slope_bound(self) -> float:
        widths = [w for _, w in self._ramps]
        return 1.5 / min(widths) if widths else 0.0


@dataclass(frozen=True)
class PartitionBump(Bump):
    """Bump of one section interval, supported strictly inside the star I*.

    Its ramps live on the overlap with the neighbouring stars, so the family
    sums to 1 on the window interior.  A ramp of width 2d has slope at most
    3/(4d), so the family satisfies sup|phi'| <= 3 C0 / (2 _RAMP_FRAC (beta-1))
    / |I| -- the price of keeping the support inside I* with beta below 2^(1/3).
    """

    host: Interval
    star: Interval


def _centered_ramp(point: float, half_width: float) -> tuple[float, float]:
    return (point - half_width, 2.0 * half_width)


def partition_of_unity(section: ProperSection) -> list[PartitionBump]:
    """Bumps subordinate to the section stars that sum to 1 on the window.

    Matching ramps on each shared boundary make phi_I + phi_J == 1 there up
    to float rounding.  The outermost bumps ramp down in the sliver between
    the window edge and their own star, so every bump is supported in its I*
    while the sum is still 1 on the window interior.
    """
    ivs = sorted(section.intervals, key=lambda d: d.a)
    beta = section.beta
    bumps = []
    for j, d in enumerate(ivs):
        host = d.to_interval()
        star = enlarge(host, beta)
        ramp_lo = None
        if j > 0:
            delta = 0.5 * _RAMP_FRAC * (beta - 1.0) * min(ivs[j - 1].length, d.length)
            ramp_lo = _centered_ramp(host.a, delta)
        elif star.a > 0.0 and host.a > 0.0:
            delta = (host.a - star.a) / 3.0
            ramp_lo = _centered_ramp(star.a + 2.0 * delta, delta)
        if j + 1 < len(ivs):
            delta = 0.5 * _RAMP_FRAC * (beta - 1.0) * min(ivs[j + 1].length, d.length)
            ramp_hi = _centered_ramp(host.b, delta)
        else:
            delta = (star.b - host.b) / 3.0
            ramp_hi = _centered_ramp(star.b - 2.0 * delta, delta)
        bumps.append(PartitionBump(ramp_lo, ramp_hi, host, star))
    return bumps


# ---------------------------------------------------------------------------
# maximal function and Hardy norms


def log_time_grid(t_min: float, t_max: float, n_times: int) -> np.ndarray:
    _check_count("n_times", n_times, least=2)
    if not 0.0 < t_min < t_max < math.inf:  # also rejects NaN
        raise InvalidInput(f"need finite times 0 < t_min < t_max, got {(t_min, t_max)!r}")
    return np.exp(np.linspace(math.log(t_min), math.log(t_max), n_times))


def _sup_over_times(m: WeightedMeasure, potential: Potential, f: GridFunction, ts: np.ndarray) -> np.ndarray:
    """|K_t f| at every node for each t of ``ts``, one row per time, from the grid's cached spectrum."""
    spec = generator.spectrum(m, f.grid, potential)
    return np.abs(generator.sweep(spec, f.values, slice(None), ts))


def maximal_function(
    m: WeightedMeasure,
    potential: Potential,
    f: GridFunction,
    t_grid: Sequence[float],
) -> GridFunction:
    """Node-wise sup of |K_t f| over the positive, finite times of ``t_grid``.

    K_t is the finite-volume semigroup of ``generator``, exact at every t.
    """
    ts = np.sort(np.asarray(t_grid, dtype=np.float64))
    if ts.size == 0:
        raise InvalidInput("time grid must be nonempty")
    for t in (ts[0], ts[-1]):  # the sort puts NaN last
        _check_time(t)
    return GridFunction(f.grid, _sup_over_times(m, potential, f, ts).max(axis=0))


@dataclass(frozen=True)
class HardyNormResult:
    value: float
    t_min: float
    t_max: float
    n_times: int
    value_half_range: float
    value_double_range: float

    @property
    def range_sensitivity(self) -> float:
        return max(
            abs(self.value_double_range - self.value),
            abs(self.value - self.value_half_range),
        ) / self.value


def hardy_norm(
    m: WeightedMeasure,
    potential: Potential,
    f: GridFunction,
    t_min: float,
    t_max: float,
    n_times: int = 32,
) -> HardyNormResult:
    """L1(mu) norm of the truncated heat maximal function sup_{t<=t_max}|K_t f|.

    One spectral sweep over log-spaced times up to 2 t_max also yields the
    norms at half and at double the time range, reported as the truncation
    sensitivity.  K_t is the finite-volume semigroup of ``generator``.
    """
    _check_count("n_times", n_times, least=2)
    ts = log_time_grid(t_min, 2.0 * t_max, n_times + max(2, n_times // 8))
    vals = _sup_over_times(m, potential, f, ts)
    w = f.grid.weights

    def norm(upto: float) -> float:
        return float(w @ vals[ts <= upto].max(axis=0, initial=0.0))

    return HardyNormResult(
        value=norm(t_max * (1.0 + 1e-12)),
        t_min=t_min,
        t_max=t_max,
        n_times=n_times,
        value_half_range=norm(0.5 * t_max),
        value_double_range=norm(math.inf),
    )


def local_hardy_norm(
    m: WeightedMeasure,
    potential: Potential,
    f: GridFunction,
    tau: float,
    n_times: int = 32,
) -> HardyNormResult:
    """Local variant: the time range is (0, tau^2]."""
    if not 0.0 < tau < math.inf:  # also rejects NaN
        raise InvalidInput(f"tau must be positive and finite, got {float(tau)!r}")
    tau2 = tau * tau
    return hardy_norm(m, potential, f, 1e-3 * tau2, tau2, n_times)


# ---------------------------------------------------------------------------
# cutoffs and the re-supporting decomposition


def make_cutoff(host: Interval, beta: float = 1.2, grid: Grid | None = None) -> Bump:
    """Canonical cutoff between I* and I**: 1 on I*, smoothstep ramps to 0 at I**.

    With a grid, the outer support is snapped inward to cell edges so the
    cutoff vanishes exactly at the nodes outside it; re-supported atoms then
    carry no mass past I**.
    """
    star = enlarge(host, beta)
    star2 = enlarge(host, beta * beta)
    if grid is not None:
        i0 = int(np.searchsorted(grid.edges, star2.a, side="left"))
        i1 = int(np.searchsorted(grid.edges, star2.b, side="right")) - 1
        if grid.edges[i0] < star.a and grid.edges[i1] > star.b and i1 > i0:
            star2 = Interval(float(grid.edges[i0]), float(grid.edges[i1]))
    lo_gap = star.a - star2.a
    hi_gap = star2.b - star.b
    return Bump(
        up=(star2.a, lo_gap) if lo_gap > 0.0 else None,
        down=(star.b, hi_gap) if hi_gap > 0.0 else None,
    )


def _check_cutoff(psi: Callable, host: Interval, beta: float, grid: Grid) -> None:
    star = enlarge(host, beta)
    star2 = enlarge(host, beta * beta)
    xs = grid.nodes
    vals = np.asarray(psi(xs), dtype=np.float64)
    on_star = (xs >= star.a) & (xs <= star.b)
    off = (xs < star2.a - 1e-12) | (xs > star2.b + 1e-12)
    if np.any(np.abs(vals[on_star] - 1.0) > 1e-9):
        raise CutoffViolation("cutoff is not identically 1 on I*")
    if np.any(np.abs(vals[off]) > 1e-12):
        raise CutoffViolation("cutoff does not vanish outside I**")
    gaps = [g for g in (star.a - star2.a, star2.b - star.b) if g > 0.0]
    if gaps:
        cap = 1.05 * 1.5 / (0.7 * min(gaps))  # smoothstep slope + snapping slack
        d = np.diff(vals) / np.diff(xs)
        if np.any(np.abs(d) > cap):
            raise CutoffViolation("cutoff slope exceeds its smoothstep envelope")


def _span_cells(grid: Grid, values: np.ndarray) -> CellRange | None:
    nz = np.nonzero(values)[0]
    if nz.size == 0:
        return None
    return CellRange(grid, int(nz[0]), int(nz[-1]) + 1)


def resupport_atom(
    atom: Atom,
    host: Interval,
    psi: Callable,
    beta: float = 1.2,
) -> list[tuple[float, Atom]]:
    """Rewrite psi * atom as atoms hosted by ``host``.

    The telescoping construction: with K the support of psi*a, N chosen so
    that 2^{-N-1}|I| <= beta^{-2}|K| <= 2^{-N}|I|, and lam = int psi a dmu,

        psi a = (psi a - lam 1_{K}/mu(K))
              + sum_{j=1}^{N} lam (1_{I_{j-1}}/mu(I_{j-1}) - 1_{I_j}/mu(I_j))
              + lam (1_{I_N}/mu(I_N) - 1_I/mu(I))
              + lam 1_I/mu(I)

    along a doubling chain K = I_0 c I_1 c ... c I_N inside I**.  Every piece
    but the last is a cancellative atom relative to ``host``; the last is the
    local atom of I.  The returned weighted sum reproduces psi * atom
    node-wise up to float rounding.
    """
    if atom.kind not in (AtomKind.MU, AtomKind.CANCELLATIVE):
        raise InvalidInput("resupport expects a cancellative input atom")
    grid = atom.grid
    _check_cutoff(psi, host, beta, grid)
    star = enlarge(host, beta)
    star2 = enlarge(host, beta * beta)
    sup = atom.support
    if star.a <= sup.a and sup.b <= star.b:
        return [(1.0, atom)]
    if sup.b <= star2.a or sup.a >= star2.b:
        return []

    pa = np.asarray(psi(grid.nodes), dtype=np.float64) * atom.values.values
    k_cells = _span_cells(grid, pa)
    if k_cells is None:
        return []
    lam = float((grid.weights * pa).sum())

    # chain box: largest edge-aligned interval inside I** (keeps node masses in I**)
    b0 = int(np.searchsorted(grid.edges, star2.a, side="left"))
    b1 = int(np.searchsorted(grid.edges, star2.b, side="right")) - 1
    box = Interval(float(grid.edges[b0]), float(grid.edges[b1]))

    ratio = (k_cells.length / host.length) / (beta * beta)
    n_chain = max(0, int(math.floor(-math.log2(min(ratio, 1.0))))) if ratio > 0 else 0

    chain = [k_cells]
    lo, hi = k_cells.interval.a, k_cells.interval.b
    for _ in range(n_chain):
        length = min(2.0 * (hi - lo), box.length)
        c = 0.5 * (lo + hi)
        new_lo = max(box.a, c - 0.5 * length)
        new_hi = min(box.b, new_lo + length)
        new_lo = max(box.a, new_hi - length)
        cells = grid.snap_interval((min(new_lo, lo), max(new_hi, hi)))
        chain.append(cells)
        lo, hi = cells.interval.a, cells.interval.b

    host_cells = grid.snap_interval(host)

    def norm_ind(cells: CellRange) -> np.ndarray:
        return grid.indicator(cells) / cells.mass

    out: list[tuple[float, Atom]] = []
    # pieces below this are pure rounding noise (e.g. b_0 when K is a single
    # cell); dropping them perturbs the reconstruction by < 1e-13 * sup|psi a|
    floor = 1e-14 * float(np.max(np.abs(pa)))

    def emit(values: np.ndarray, cells: CellRange) -> None:
        top = float(np.max(np.abs(values)))
        if top <= floor:
            return
        coeff = top * cells.mass
        out.append(
            (coeff, Atom(AtomKind.CANCELLATIVE, cells, GridFunction(grid, values / coeff), host=host))
        )

    emit(pa - lam * norm_ind(chain[0]), chain[0])
    for prev_c, cur_c in zip(chain, chain[1:]):
        emit(lam * (norm_ind(prev_c) - norm_ind(cur_c)), cur_c)
    last = chain[-1]
    hull = grid.snap_interval(
        (min(last.interval.a, host_cells.interval.a), max(last.interval.b, host_cells.interval.b))
    )
    emit(lam * (norm_ind(last) - norm_ind(host_cells)), hull)
    if abs(lam) / host_cells.mass > floor:
        local = Atom(
            AtomKind.LOCAL, host_cells, GridFunction(grid, norm_ind(host_cells)), host=host
        )
        out.append((lam, local))
    return out
