"""A finite-volume Schroedinger generator on a grid, and its semigroup from a spectrum or a resolvent.

On the cells of a grid (mu-masses w_k, nodes x_k, edges e_k) the operator
L = -x^-alpha (x^alpha f')' + V becomes A_V = W^-1 S + diag(Vbar):

* S is the stiffness of the form int f'^2 x^alpha dx.  Its conductance at
  the interior edge e_k, between cells k - 1 and k, is
  e_k^alpha / (x_k - x_{k-1}).  Value 0 at x_max gives the last cell the
  conductance x_max^alpha / (x_max - x_{n-1}) to the outside.  There is none
  at 0, where the weight x^alpha closes the flux.
* Vbar_k is the mu-mean of V over cell k,
  ``potential_integral(V, cell k) / w_k`` (``cell_means``).

A_V is self-adjoint in L2(mu): T = W^1/2 A_V W^-1/2
= W^-1/2 S W^-1/2 + diag(Vbar) is a symmetric tridiagonal matrix
(``_tridiagonal``).  A_V has off-diagonal entries <= 0, row sums >= 0 and
Vbar >= 0, so in exact arithmetic K_t = exp(-t A_V) is a semigroup,
symmetric in L2(mu), entrywise >= 0, sub-Markov, and K_t = e^(-ct) K^0_t for
V = c.  Two evaluations of K_t f, both exact in time (no step, no kernel
matrix):

* ``spectrum`` and ``sweep``: T factored once by numpy's ``eigh`` as
  U diag(lam) U^T, then K_t = W^-1/2 U exp(-t lam) U^T W^1/2 at every t.
  On random grids whose cell masses span up to 1e15, the rounding of
  ``eigh`` moved each property above by at most 4e-13 of the data; on a
  grid whose lam_max is extreme it can be far off (1.9e16 at the case of
  ``tests/data/fv_reference.json``: 96% of the max).  The spectrum
  (lam, U, sqrt(w)) is cached on the grid per potential
  (``Grid.cache_get``), in the same least-recently-used list and byte
  budget as the kernel matrices (``grid._CACHE_BYTES``), and every call that
  reads it makes it the newest entry.  The superharmonic sweep and
  condition (D) of ``conditions`` and the maximal function and Hardy norms
  of ``hardy`` use it, and condition (K) reads the spectrum of V = 0 through
  ``integral_sweep``, int_0^t K_s f ds.
* ``resolvent_sweep``: K_t f from contour integrals of (z + T)^-1, each
  window of times one batched cyclic reduction.  No ``eigh``, nothing
  cached, and no BLAS call, so its bits do not depend on the thread count.
  Its error is absolute, about 1e-13 of max|f| at most.  The Duhamel check
  of ``semigroup`` uses it, since its V is new on every call.

Every other evolution is the Strang splitting of ``semigroup``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, check_measure
from .kernel import _check_time
from .measure import Potential, WeightedMeasure, integral_overflow, power_or_inf


@dataclass(frozen=True)
class Spectrum:
    """T = U diag(lam) U^T for one (grid, V), with sqrt(w) to move between L2(mu) and l2."""

    lam: np.ndarray
    vectors: np.ndarray  # U, one eigenvector per column
    sqrt_w: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.lam.nbytes + self.vectors.nbytes + self.sqrt_w.nbytes


def cell_means(m: WeightedMeasure, grid: Grid, potential: Potential) -> np.ndarray:
    """Vbar: the mu-mean of V over each cell of the grid.

    Term by term, in ``Potential.terms()`` order, with the bits of one
    ``potential_integral`` per cell: the edges' powers e^p are Python float
    ``**`` (``np.power`` can differ in the last bit, see ``kernel._kernel``),
    taken once per exponent, and only the cells at a term's ends are clipped
    to it.  Like ``potential_integral``, it raises InvalidInput where a
    cell's integral overflows a float, naming the first such cell.
    """
    potential.validate_for(m.alpha)
    edges = grid.edges.tolist()
    totals = np.zeros(len(grid))
    powers: dict[float, np.ndarray] = {}
    for lo, hi, coeff, expo in potential.terms():
        p = m.alpha + expo + 1.0
        if p not in powers:
            powers[p] = np.array([power_or_inf(e, p) for e in edges])
        first = int(np.searchsorted(grid.edges[1:], lo, "right"))  # the first cell that ends past lo
        stop = int(np.searchsorted(grid.edges[:-1], hi, "left"))  # past the last cell that starts before hi
        if first >= stop:
            continue
        lower, upper = powers[p][first:stop].copy(), powers[p][first + 1 : stop + 1].copy()
        lower[0] = power_or_inf(max(edges[first], lo), p)
        upper[-1] = power_or_inf(min(edges[stop], hi), p)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is inf or NaN, caught below
            totals[first:stop] += coeff * (upper - lower) / p
    bad = np.flatnonzero(~np.isfinite(totals))
    if bad.size:
        raise integral_overflow(potential, edges[bad[0]], edges[bad[0] + 1])
    return totals / grid.weights


def _tridiagonal(m: WeightedMeasure, grid: Grid, potential: Potential) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """T's diagonal, its off-diagonal (entries (k, k - 1) for k = 1..n - 1) and sqrt(w)."""
    check_measure(m, grid)
    x, e, w = grid.nodes, grid.edges, grid.weights
    g = np.zeros(len(grid) + 1)  # the conductance of each edge: none at 0
    g[1:-1] = e[1:-1] ** m.alpha / np.diff(x)
    g[-1] = e[-1] ** m.alpha / (e[-1] - x[-1])
    sqrt_w = np.sqrt(w)
    return (g[:-1] + g[1:]) / w + cell_means(m, grid, potential), -g[1:-1] / (sqrt_w[1:] * sqrt_w[:-1]), sqrt_w


def spectrum(m: WeightedMeasure, grid: Grid, potential: Potential) -> Spectrum:
    """The spectrum of T for V on the grid, from one ``np.linalg.eigh``, cached on the grid per V.

    The measure must be the grid's, so the potential alone keys the cache,
    and a hit returns the same object.  The spectrum counts its ``nbytes``
    (8 n^2 + 16 n) against ``grid._CACHE_BYTES`` like a kernel matrix.
    ``eigh`` sums in an order that depends on the BLAS thread count once n is
    large.  With OpenBLAS 0.3.31, one and two threads gave the same bits at
    n = 320 (the CLI's grid); at n = 900 the eigenvalues were the same bits
    but the eigenvectors were not, and a V = 1/x sweep's thetas differed by
    up to 8.7e-15 relative; at n = 1400 by 3.9e-15, eigenvalues too.
    """
    check_measure(m, grid)
    spec = grid.cache_get(potential)
    if spec is None:
        diag, off, sqrt_w = _tridiagonal(m, grid, potential)
        t = np.diag(diag)
        i = np.arange(1, len(grid))
        t[i, i - 1] = t[i - 1, i] = off
        lam, vectors = np.linalg.eigh(t)
        spec = Spectrum(lam, vectors, sqrt_w)
        grid.cache_put(potential, spec)
    return spec


def sweep(spec: Spectrum, f: np.ndarray, rows, times: np.ndarray) -> np.ndarray:
    """(K_t f) at the nodes ``rows`` for each t of ``times``.

    ``rows`` is one node index, which gives one value per time, or a slice,
    index array or mask, which gives a (len(times), len(rows)) array.
    c = U^T (sqrt(w) f) once, then sum_j U_row,j e^(-t lam_j) c_j / sqrt(w_row)
    at every row and t.  Both products are ``np.einsum`` sums, which call no
    BLAS, so their bits do not depend on the BLAS thread count.
    """
    return _spectral_sum(spec, f, rows, np.exp(-np.multiply.outer(times, spec.lam)))


def integral_sweep(spec: Spectrum, f: np.ndarray, rows, times: np.ndarray) -> np.ndarray:
    """int_0^t (K_s f) ds at the nodes ``rows`` for each t of ``times``, as ``sweep`` reads K_t f.

    Exact in time: e^(-t lam_j) becomes (1 - e^(-t lam_j)) / lam_j, taken by
    ``expm1``, so a small t lam_j loses no digits.  Every lam_j must be
    positive; it is whenever V >= 0, since the last cell is killed at x_max.
    """
    return _spectral_sum(spec, f, rows, -np.expm1(-np.multiply.outer(times, spec.lam)) / spec.lam)


def _spectral_sum(spec: Spectrum, f: np.ndarray, rows, factors: np.ndarray) -> np.ndarray:
    """sum_j U_row,j factors_tj c_j / sqrt(w_row) with c = U^T (sqrt(w) f), by ``np.einsum``."""
    c = np.einsum("ij,i->j", spec.vectors, spec.sqrt_w * f)
    a = spec.vectors[rows] * c / spec.sqrt_w[rows, None]
    return np.einsum("tj,...j->t...", factors, a)


# The parabolic contour z(u) = mu (1 + iu)^2 (Weideman & Trefethen, Math.
# Comp. 76, 2007) serves the times of one window [t0, _WINDOW t0] with
# mu = _CONTOUR_MU / t0 and the _NODES midpoints u = (k + 1/2) _CONTOUR_STEP
# of its upper half.  The two were tuned on the scalar error
# max |r(lam) - e^(-t lam)| of the quadrature r over lam in {0} and
# [1e-8, 1e18] / t0 and t in the window: it reads 8e-15, near the rounding
# of its largest term e^(_CONTOUR_MU _WINDOW) = 83.  At 20 / 24 nodes the
# best read 8e-11 / 6e-13.
_NODES = 28
_WINDOW = 4.0
_CONTOUR_MU = 1.106
_CONTOUR_STEP = 5.18 / _NODES


def _cyclic_reduction(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve lower_i u_(i-1) + diag_i u_i + upper_i u_(i+1) = rhs_i along the last axis of each batch.

    Cyclic reduction (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7, 1970):
    the odd rows are eliminated into the even ones, the half-size system is
    solved the same way, and the odd unknowns follow from their rows.  Every
    step is elementwise numpy work over the whole batch, with no pivoting.
    ``diag`` is complex and has the batch's full shape; the other three
    broadcast with it, and ``lower[0]`` and ``upper[-1]`` are not read.
    """
    n = diag.shape[-1]
    if n == 1:
        return rhs / diag
    n_odd = n // 2
    n_even = n - n_odd
    lower_o, upper_o, rhs_o = lower[..., 1::2], upper[..., 1::2], rhs[..., 1::2]
    neg_inv = -1.0 / diag[..., 1::2]
    left = lower[..., 2::2] * neg_inv[..., : n_even - 1]  # even row 2j takes left times odd row 2j - 1
    right = upper[..., 0 : 2 * n_odd : 2] * neg_inv  # and right times odd row 2j + 1
    d = diag[..., ::2].copy()
    r = np.empty_like(d)
    r[...] = rhs[..., ::2]
    lo, up = np.zeros_like(d), np.zeros_like(d)
    d[..., 1:] += left * upper_o[..., : n_even - 1]
    r[..., 1:] += left * rhs_o[..., : n_even - 1]
    np.multiply(left, lower_o[..., : n_even - 1], out=lo[..., 1:])
    d[..., :n_odd] += right * lower_o
    r[..., :n_odd] += right * rhs_o
    np.multiply(right, upper_o, out=up[..., :n_odd])
    even = _cyclic_reduction(lo, d, up, r)
    out = np.empty(diag.shape, complex)
    out[..., ::2] = even
    odd = out[..., 1::2]
    np.multiply(lower_o, even[..., :n_odd], out=odd)
    odd[..., : n_even - 1] += upper_o[..., : n_even - 1] * even[..., 1:]
    odd -= rhs_o
    odd *= neg_inv
    return out


def resolvent_sweep(m: WeightedMeasure, grid: Grid, potential: Potential, f: np.ndarray, times) -> np.ndarray:
    """(K_t f) at every node for each t of ``times``: a (len(times), n) array, exact in time.

    K_t f = W^-1/2 exp(-tT) W^1/2 f, and exp(-tT) g is the contour integral
    (1 / 2 pi i) int e^(zt) (z + T)^-1 g dz around the negative real axis.
    The sorted times fall into windows [t0, _WINDOW t0], and each window
    takes the trapezoid rule on its own parabola (``_CONTOUR_MU``): one
    batched ``_cyclic_reduction`` solves (z_k + T) u_k = sqrt(w) f at its
    _NODES upper nodes, and their conjugates are the lower half, so
    exp(-tT) g = Re sum_k c_k(t) u_k with the factor 2 in c_k.  The sum is an ``np.einsum``, so no
    BLAS call is made and the bits do not depend on the thread count.  No
    ``eigh``, no kernel matrix and nothing cached: a fresh V costs one
    ``cell_means``.

    Error model: absolute, about 1e-13 of max|f| at most.  The quadrature's
    scalar error is 8e-15, so |W^1/2 (error)|_2 <= 8e-15 |W^1/2 f|_2 plus
    rounding.  Node-wise, against 40-digit references, it read at most
    2.8e-14 of max|f| at the five of 2,400 random (grid, V, t) draws
    (n <= 60, alpha up to 3) where it was farthest from ``expm``, and
    3.2e-15 at the case of ``tests/data/fv_reference.json`` (lam_max 1.9e16).  It is not relative to a strongly decayed output:
    where t lam_min is large, K_t f can be far below it.
    """
    times = np.atleast_1d(np.asarray(times, dtype=np.float64))
    for t in times.tolist():
        _check_time(t)
    diag, off, sqrt_w = _tridiagonal(m, grid, potential)
    lower, upper = np.append(0.0, off), np.append(off, 0.0)
    rhs = sqrt_w * np.asarray(f, dtype=np.float64)
    u = (np.arange(_NODES) + 0.5) * _CONTOUR_STEP
    out = np.empty((times.size, len(grid)))
    order = np.argsort(times, kind="stable")
    ordered = times[order]
    start = 0
    while start < order.size:
        stop = int(np.searchsorted(ordered, _WINDOW * ordered[start], "right"))
        mu = _CONTOUR_MU / ordered[start]
        z = mu * (1.0 + 1j * u) ** 2
        solves = _cyclic_reduction(lower, z[:, None] + diag, upper, rhs)
        # c_k(t) = 2 (h mu / pi) (1 + i u_k) e^(z_k t), the weight of z'(u_k) dz / (2 pi i) and its conjugate
        c = (2.0 * _CONTOUR_STEP * mu / np.pi) * (1.0 + 1j * u) * np.exp(np.multiply.outer(ordered[start:stop], z))
        # Re(c u) = Re c Re u - Im c Im u, as one real sum over the contiguous halves
        halves = np.concatenate([solves.real, solves.imag])
        out[order[start:stop]] = np.einsum("tk,kn->tn", np.concatenate([c.real, -c.imag], axis=1), halves)
        start = stop
    return out / sqrt_w
