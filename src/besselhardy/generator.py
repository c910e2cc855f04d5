"""A finite-volume Schroedinger generator on a grid, and its semigroup from one spectrum.

On the cells of a grid (mu-masses w_k, nodes x_k, edges e_k) the operator
L = -x^-alpha (x^alpha f')' + V becomes A_V = W^-1 S + diag(Vbar):

* S is the stiffness of the form int f'^2 x^alpha dx.  Its conductance at
  the interior edge e_k, between cells k - 1 and k, is
  e_k^alpha / (x_k - x_{k-1}).  Value 0 at x_max gives the last cell the
  conductance x_max^alpha / (x_max - x_{n-1}) to the outside.  There is none
  at 0, where the weight x^alpha closes the flux.
* Vbar_k is the mu-mean of V over cell k,
  ``potential_integral(V, cell k) / w_k``.

A_V is self-adjoint in L2(mu): T = W^1/2 A_V W^-1/2
= W^-1/2 S W^-1/2 + diag(Vbar) is a symmetric tridiagonal matrix, factored
once by numpy's ``eigh`` as U diag(lam) U^T.  Then

    K_t = exp(-t A_V) = W^-1/2 U exp(-t lam) U^T W^1/2

at every t, exactly in time: no step, no kernel matrix.  A_V has
off-diagonal entries <= 0, row sums >= 0 and Vbar >= 0, so in exact
arithmetic K_t is a semigroup, symmetric in L2(mu), entrywise >= 0,
sub-Markov, and K_t = e^(-ct) K^0_t for V = c.  On random grids whose cell
masses span up to 1e15, the rounding of ``eigh`` moved each of these by at
most 4e-13 of the data.

The spectrum (lam, U, sqrt(w)) is cached on the grid per potential
(``Grid.cache_get``), in the same least-recently-used list and byte budget
as the kernel matrices (``grid._CACHE_BYTES``), and every call that reads it
makes it the newest entry.  The superharmonic sweep and condition (D) of
``conditions`` and the maximal function and Hardy norms of ``hardy`` use it;
the Duhamel check and every other evolution are the Strang splitting of
``semigroup``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MixedGrids
from .grid import Grid
from .kernel import _zeros_line_aligned
from .measure import Interval, Potential, WeightedMeasure


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
    """Vbar: the mu-mean of V over each cell of the grid."""
    edges = grid.edges.tolist()
    totals = [m.potential_integral(potential, Interval(a, b)) for a, b in zip(edges[:-1], edges[1:])]
    return np.array(totals) / grid.weights


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
    if m.alpha != grid.measure.alpha:
        raise MixedGrids(f"measure alpha {m.alpha} differs from the grid's alpha {grid.measure.alpha}")
    spec = grid.cache_get(potential)
    if spec is None:
        x, e, w = grid.nodes, grid.edges, grid.weights
        g = np.zeros(len(grid) + 1)  # the conductance of each edge: none at 0
        g[1:-1] = e[1:-1] ** m.alpha / np.diff(x)
        g[-1] = e[-1] ** m.alpha / (e[-1] - x[-1])
        t = np.diag((g[:-1] + g[1:]) / w + cell_means(m, grid, potential))
        sqrt_w = np.sqrt(w)
        i = np.arange(1, len(grid))
        t[i, i - 1] = t[i - 1, i] = -g[1:-1] / (sqrt_w[1:] * sqrt_w[:-1])
        lam, vectors = np.linalg.eigh(t)
        # U is held like a kernel matrix (``kernel._zeros_line_aligned``):
        # left in eigh's malloc block, it kept the freed eigh buffers of the
        # next spectrum in malloc's heap, 25 MB of it after sweep_cold's two
        held = _zeros_line_aligned(vectors.size).reshape(vectors.shape)
        held[...] = vectors
        spec = Spectrum(lam, held, sqrt_w)
        grid.cache_put(potential, spec)
    return spec


def sweep(spec: Spectrum, f: np.ndarray, rows, times: np.ndarray) -> np.ndarray:
    """(K_t f) at the nodes ``rows`` for each t of ``times``.

    ``rows`` is one node index, which gives one value per time, or a slice
    or index array, which gives a (len(times), len(rows)) array.
    c = U^T (sqrt(w) f) once, then sum_j U_row,j e^(-t lam_j) c_j / sqrt(w_row)
    at every row and t.  Both products are ``np.einsum`` sums, which call no
    BLAS, so their bits do not depend on the BLAS thread count.
    """
    c = np.einsum("ij,i->j", spec.vectors, spec.sqrt_w * f)
    a = spec.vectors[rows] * c / spec.sqrt_w[rows, None]
    return np.einsum("tj,...j->t...", np.exp(-np.multiply.outer(times, spec.lam)), a)
