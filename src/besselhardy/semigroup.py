"""The Schroedinger semigroup on the weighted half-line.

Two independent realizations:

* Strang splitting against the exact heat kernel on a grid,
  exp(-dt V / 2) . P_dt . exp(-dt V / 2).  Because the half-potential factor
  is <= 1 entrywise and the kinetic factor is symmetric in L2(mu), has
  nonnegative entries, and is sub-Markov by rows (L-inf) and by columns
  (L1(mu)), the evolution dominates nothing it should not:
  0 <= split(t) f <= heat(t) f holds node-wise exactly (same stepping),
  the L1(mu) norm of nonnegative data never increases, and neither does its
  maximum (the maximum principle).  One serial loop, ``_evolve``, runs every
  leg: its band product is one gemv per ``BandMatrix`` block.  The
  superharmonic sweep, conditions (D) and (K) and the Hardy norms do not
  step: they read the finite-volume spectrum of ``generator``.  Nor does
  the Duhamel check ``perturbation_residual``: it compares the exact heat
  kernel with the finite-volume semigroup, from
  ``generator.resolvent_sweep``.

* A Feynman-Kac Monte Carlo estimator over the Bessel process of dimension
  alpha + 1, simulated by exact squared-Bessel transitions (noncentral
  chi-square); no SDE discretization touches the singular drift at 0.  Each
  transition is drawn as its Gaussian part plus its chi-square part, the
  latter from a gamma and a uniform variate (``_path_chunk``).  The paths
  are drawn in a fixed number of chunks, each from its own child of the
  seed's ``SeedSequence``, on a thread each; the estimate's bits are fixed
  by the seed, the path and step counts and the chunk count, and not by how
  many CPUs draw them.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import generator
from .errors import InvalidInput, QuadratureBudgetExceeded
from .grid import Grid, GridFunction
from .kernel import _check_count, _check_time, heat_kernel, kernel_matrix
from .measure import Potential, WeightedMeasure


@dataclass(frozen=True)
class SplittingScheme:
    """Strang factorization parameters.

    A leg of length t takes ``steps_for(t)`` equal steps of t / steps_for(t).
    ``steps_per_unit`` must be positive and finite, ``min_steps`` an integer
    of at least 1.
    """

    steps_per_unit: float = 32.0
    min_steps: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.steps_per_unit < math.inf:  # also rejects NaN
            raise InvalidInput(f"steps_per_unit must be positive and finite, got {self.steps_per_unit!r}")
        _check_count("min_steps", self.min_steps)

    def steps_for(self, t: float) -> int:
        return max(self.min_steps, int(math.ceil(t * self.steps_per_unit)))


DEFAULT_SCHEME = SplittingScheme()


def _evolve(
    m: WeightedMeasure,
    potential: Potential,
    t: float,
    f: GridFunction,
    scheme: SplittingScheme,
    n_steps: int | None,
) -> GridFunction:
    """K_t f by ``n_steps`` Strang steps (``scheme.steps_for(t)`` when None).

    The one evolution loop: ``schrodinger_apply`` and ``heat_evolve`` both
    call it, and it checks t, the step count and V for both: V must be
    finite at every grid node (a power term can overflow there).  A step is
    half * (P_dt (w * (half * f))) with the products made in place in two
    buffers, and the band product is one ``np.dot`` per ``BandMatrix``
    block, the block's input slice to its output slice: the plan built once
    per call.  Each block is the same gemv on the same slice as in
    ``mat @``, so the bits are that product's.
    """
    _check_time(t)
    steps = scheme.steps_for(t) if n_steps is None else n_steps
    _check_count("steps", steps)
    potential.validate_for(m.alpha)
    grid = f.grid
    dt = t / steps
    with np.errstate(over="ignore"):
        v_nodes = np.asarray(potential(grid.nodes), dtype=np.float64)
    if not np.isfinite(v_nodes).all():
        x_bad = float(grid.nodes[~np.isfinite(v_nodes)][0])
        raise InvalidInput(f"{potential!r} is not finite at the grid node x = {x_bad!r}")
    half = np.exp(-0.5 * dt * v_nodes)
    mat = kernel_matrix(m, grid, dt)
    w = grid.weights
    x, y = np.empty(len(grid)), np.empty(len(grid))  # the matvec's input and output
    plan = [(block, x[c0:c1], y[r0:r1]) for r0, r1, c0, c1, block in mat.blocks]
    cur = f.values
    for _ in range(steps):
        np.multiply(half, cur, out=x)
        x *= w
        for block, src, dst in plan:
            np.dot(block, src, out=dst)
        y *= half
        cur = y
    return GridFunction(grid, y)


def schrodinger_apply(
    m: WeightedMeasure,
    potential: Potential,
    t: float,
    f: GridFunction,
    scheme: SplittingScheme = DEFAULT_SCHEME,
    n_steps: int | None = None,
) -> GridFunction:
    """Evolve f by the split Schroedinger semigroup for time t."""
    return _evolve(m, potential, t, f, scheme, n_steps)


def heat_evolve(
    m: WeightedMeasure,
    t: float,
    f: GridFunction,
    scheme: SplittingScheme = DEFAULT_SCHEME,
    n_steps: int | None = None,
) -> GridFunction:
    """Heat evolution with the same stepping as schrodinger_apply (V = 0).

    This is the right-hand side of the structural domination inequality: it
    uses the identical kinetic matrices, so the comparison is exact.  It
    calls ``_evolve``, not ``schrodinger_apply``, so that a tracer wrapping
    both public names counts its matvecs once.
    """
    return _evolve(m, Potential.zero(), t, f, scheme, n_steps)


@dataclass(frozen=True)
class FeynmanKacResult:
    estimate: float
    stderr: float
    seed: int
    n_paths: int
    n_steps: int


def _check_paths(t: float, x0: float, n_paths: int, n_steps: int, seed: int) -> None:
    _check_time(t)
    if not 0.0 < x0 < math.inf:  # also rejects NaN
        raise InvalidInput(f"start must be positive and finite, got {float(x0)!r}")
    _check_count("paths", n_paths)
    _check_count("steps", n_steps)
    _check_count("seed", seed, least=0)


# Feynman-Kac paths are drawn in this many chunks, chunk k from the k-th
# child of SeedSequence(seed).spawn(_FK_CHUNKS).  A constant, not the CPU
# count, so that the draws depend only on (seed, n_paths, n_steps).  On a
# 2-vCPU host, medians of six runs of 20,000 x 200 / 40,000 x 250 paths
# took 216-257 / 609-680 ms in one chunk, 134-140 / 449-460 ms in 2,
# 158-212 / 461-468 ms in 4 and 369-383 / 869-1014 ms in 8: each chunk step
# costs some Python under the GIL.
_FK_CHUNKS = 2


def _path_chunk(
    m: WeightedMeasure,
    potential: Potential,
    t: float,
    x0: float,
    n_paths: int,
    n_steps: int,
    seed: np.random.SeedSequence,
) -> tuple[np.ndarray, np.ndarray]:
    """int_0^t V(B_s) ds by the trapezoid rule along ``n_paths`` paths, and the radii B_t.

    B is the Bessel process generated by the weighted Laplacian; its square
    is a squared Bessel process of dimension alpha + 1 run at double speed,
    so a step of dt moves B from r to sqrt(s X) with s = 2 dt and X
    noncentral chi-square with alpha + 1 degrees of freedom and
    noncentrality r^2 / s.  That is X = (r / sqrt(s) + Z)^2 + chi^2_alpha,
    and chi^2_alpha = 2 Gamma(alpha / 2) = 2 G U^(2 / alpha), since
    Gamma(a) = Gamma(a + 1) U^(1 / a).  So each of the ``n_steps`` steps
    draws G ~ Gamma(alpha / 2 + 1), U ~ Uniform(0, 1) and Z ~ N(0, 1) per
    path from ``default_rng(seed)``, in that order, into buffers of the
    chunk's size, and sets r' = sqrt((r + sqrt(s) Z)^2 + 2 s G U^(2 / alpha)).
    The transition is exact.  ``Generator.noncentral_chisquare`` draws the
    same law, but with an array noncentrality it costs 65-100 ns a draw on a
    2-vCPU x86 host, against about 45 ns for the three flat draws (the shape
    of G is at least 1, so its draw avoids numpy's slower small-shape gamma
    path).

    It runs on a pool thread, so it calls nothing but numpy, the potential
    and its own generator (numpy releases the GIL inside the draws): no
    library function that a tracer such as ``bench/tracer.py`` wraps, since
    a tracer's span stack belongs to one thread.  It sets its own
    floating-point error state.
    """
    rng = np.random.default_rng(seed)
    dt = t / n_steps
    s = 2.0 * dt
    shape, expo = 0.5 * m.alpha + 1.0, 2.0 / m.alpha
    r = np.full(n_paths, float(x0))
    accum = np.zeros(n_paths)
    gam, uni, nor = np.empty(n_paths), np.empty(n_paths), np.empty(n_paths)
    with np.errstate(over="ignore"):
        v_prev = np.asarray(potential(r), dtype=np.float64)
        for _ in range(n_steps):
            rng.standard_gamma(shape, out=gam)
            rng.random(out=uni)
            rng.standard_normal(out=nor)
            gam *= 2.0 * s
            gam *= np.power(uni, expo, out=uni)  # s chi^2_alpha
            nor *= math.sqrt(s)
            nor += r
            np.square(nor, out=nor)
            nor += gam
            np.sqrt(nor, out=r)
            v_cur = np.asarray(potential(r), dtype=np.float64)
            accum += (0.5 * dt) * (v_prev + v_cur)
            v_prev = v_cur
    return accum, r


def _bessel_paths(
    m: WeightedMeasure, potential: Potential, t: float, x0: float, n_paths: int, n_steps: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """``_path_chunk`` over all paths in ``_FK_CHUNKS`` chunks, one thread each, joined in chunk order.

    Chunk k holds n_paths // _FK_CHUNKS paths, one more for k < n_paths %
    _FK_CHUNKS, and draws from the k-th spawned child of the seed, so the
    result is the same bits whatever the number of CPUs that run the
    threads.  The threads live for this call only.
    """
    _check_paths(t, x0, n_paths, n_steps, seed)
    potential.validate_for(m.alpha)
    sizes = [n_paths // _FK_CHUNKS + (k < n_paths % _FK_CHUNKS) for k in range(_FK_CHUNKS)]
    seeds = np.random.SeedSequence(seed).spawn(_FK_CHUNKS)
    with ThreadPoolExecutor(_FK_CHUNKS) as pool:
        futures = [
            pool.submit(_path_chunk, m, potential, t, x0, size, n_steps, child)
            for size, child in zip(sizes, seeds)
        ]
        accums, ends = zip(*(fut.result() for fut in futures))
    return np.concatenate(accums), np.concatenate(ends)


def feynman_kac(
    m: WeightedMeasure,
    potential: Potential,
    t: float,
    x0: float,
    f: Callable,
    n_paths: int,
    n_steps: int,
    seed: int,
) -> FeynmanKacResult:
    """Monte Carlo estimate of E^x0[ exp(-int_0^t V(B_s) ds) f(B_t) ].

    The paths are exact Bessel process transitions and the potential
    integral is the trapezoid rule along each path (``_path_chunk``).  They
    are drawn in ``_FK_CHUNKS`` = 2 chunks with their own seeded streams,
    side by side on one thread each (``_bessel_paths``);
    f, the mean and the stderr then see all paths in chunk order.  The bits
    of the result are fixed by the seed, n_paths, n_steps and the chunk
    count, not by the number of CPUs: identical inputs give bit-identical
    results.
    """
    accum, r = _bessel_paths(m, potential, t, x0, n_paths, n_steps, seed)
    if not np.all(np.isfinite(accum)):
        raise QuadratureBudgetExceeded(
            "potential integral overflowed along a path (V unbounded on the range)"
        )
    vals = np.exp(-accum) * np.asarray(f(r), dtype=np.float64)
    est = float(np.mean(vals))
    err = float(np.std(vals, ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else math.inf
    return FeynmanKacResult(est, err, seed, n_paths, n_steps)


def besq_terminal_samples(
    m: WeightedMeasure, t: float, x0: float, n_paths: int, n_steps: int, seed: int
) -> np.ndarray:
    """Terminal B_t samples of the free Bessel process (marginal checks), from the Feynman-Kac sampler."""
    return _bessel_paths(m, Potential.zero(), t, x0, n_paths, n_steps, seed)[1]


@dataclass(frozen=True)
class PerturbationReport:
    residual: float
    lhs: float
    rhs: float
    scale: float


def perturbation_residual(
    m: WeightedMeasure,
    potential: Potential,
    t: float,
    x: float,
    y: float,
    grid: Grid,
    s_steps: int = 12,
    scheme: SplittingScheme = DEFAULT_SCHEME,
) -> PerturbationReport:
    """Consistency of the Duhamel identity between the heat kernel and the finite-volume semigroup.

    Left side: P_t(x,y) - K_t(x,y) with the exact heat kernel and K_t delta_y
    of the FV operator A_V (``generator``).  Right side:
    int_0^t < P_{t-s}(x, .), V K_s(., y) >_mu ds by 2-point Gauss-Legendre on
    each of ``s_steps`` equal panels of length h = t / s_steps, and grid
    quadrature in space.  Every column K_s delta_y, the 2 s_steps Gauss nodes'
    and the final K_t delta_y, comes from one ``generator.resolvent_sweep``,
    exact in time; its error is absolute, about 1e-13 of max delta_y = 1 / w_y.
    The rows P_{t-s}(x, .) are one ``heat_kernel`` call with a time array.
    So a call builds no kernel matrix, runs no ``eigh`` and caches nothing.
    The open rule never evaluates at s = t, where P_{t-s}(x, .) is a spike.
    Both routes are numerical; the report carries the kernel scale P_t(x,y)
    for relative comparisons.  x and y must lie in the grid,
    0 < x, y <= its last edge.  ``scheme`` is accepted and unused: callers
    such as the benchmark pass it.
    """
    _check_time(t)
    _check_count("s_steps", s_steps)
    ix = grid.index_of(x)
    x = float(grid.nodes[ix])
    h = t / s_steps
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(2)
    s = ((np.arange(s_steps)[:, None] + 0.5 * (gl_nodes + 1.0)) * h).ravel()
    s_w = np.tile(0.5 * h * gl_weights, s_steps)

    delta = GridFunction.point_mass(grid, y).values
    cols = generator.resolvent_sweep(m, grid, potential, delta, np.append(s, t))
    rows = heat_kernel(m, (t - s)[:, None], x, grid.nodes)
    v_nodes = np.asarray(potential(grid.nodes), dtype=np.float64)
    rhs = float(np.einsum("k,kn,n->", s_w, rows * cols[:-1], v_nodes * grid.weights))
    p_xy = heat_kernel(m, t, x, float(grid.nodes[grid.index_of(y)]))
    lhs = p_xy - float(cols[-1, ix])
    return PerturbationReport(abs(lhs - rhs), lhs, rhs, p_xy)
