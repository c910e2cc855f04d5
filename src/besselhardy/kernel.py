"""The heat kernel of the weighted half-line Laplacian and its operator.

With nu = (alpha - 1)/2 the kernel factors as

    P_t(x, y) = (2t)^(-1-nu) * exp(-(x-y)^2 / 4t) * g(nu, xy/2t),
    g(nu, z)  = e^(-z) I_nu(z) z^(-nu),

so the Gaussian part is assembled analytically and nothing overflows for
xy/2t up to 1e6 and beyond.  The order nu is pinned by the normalization
identity: with this choice the kernel has unit mass against x^alpha dx
(verified to 1e-8 in the acceptance suite), which also fixes the
small-argument diagonal limit (2t)^(-1) (4t)^(-nu) / Gamma(1+nu).

The Bessel factor, where nearly all the cost lies, is evaluated only for
pairs whose Gaussian factor is not 0.0; every other pair gets +0.0, which
is what the full product gives there.  ``heat_kernel`` is this formula at
every point and every time it is given: t broadcasts with x and y, and the
prefactor is taken once per time with Python float power, as a scalar call
takes it (``np.power`` on an array rounds differently for about 5% of
times), so one call at many times gives each time the scalar call's bits.

The grid matrix stops earlier, where an a-priori bound shows that the
rest of a row cannot matter.  For alpha > 0 (nu > -1/2) the ratio g(nu, z)
decreases in z, so g <= g(nu, 0+) = r0 = 1 / (2^nu Gamma(nu + 1)) and every
entry is at most (2t)^(-1-nu) r0 exp(-(x-y)^2 / 4t).  The matrix keeps the
pairs with (x-y)^2 / 4t <= E, E = ln(2^60 n (2t)^(-1-nu) r0 max_j w_j),
and holds +0.0 beyond: the pairs it drops carry at most 2^-60 of any row's
or column's mu-mass.  Every kept entry is the formula bit for bit.  Between
the cut and the underflow of the Gaussian factor lie about half of the
pairs a band would otherwise evaluate, and every subnormal entry, which
makes dense matvecs up to twice as slow; the matrix holds neither.  The
band is evaluated straight into the blocks of the layout below, in row
slices of bounded size, and the Bessel kernels stop each argument at its
own last term (see ``bessel``).
``kernel_matrix`` caps that matrix to be sub-Markov in one closed-form
pass and caches it on the grid (``grid._CACHE_BYTES``, a least-recently-used
list shared with the finite-volume spectra); it is the one matrix the
Strang evolution uses.

The cache holds that matrix as a ``BandMatrix``: dense blocks of
``_BAND_ROWS`` = 128 rows (the last one fewer, or one more where a single
row would be left over), each over the columns from the first one its first
row keeps, rounded down to a multiple of ``_BAND_ALIGN`` = 16, to the last
one its last row keeps, rounded up to a multiple of 16 and capped at n.  The
band edges give the spans, so a build allocates no n x n array: on the
test-14 grid (n = 900) its ``tracemalloc`` peak was 1.6 MB at dt = 2^-17 and
15.6 MB at dt = 3, against 8.3 and 17.1 MB for a dense fill packed after.  A
product with a vector is one gemv per block.  128 rows: on the n = 420 grid
of the warm evolution bench, a matvec took 30-34 us with 64-row blocks,
22-27 us dense and 21-26 us with 128-row blocks in one series of runs; a
second series put all three within 20-27 us there, and 64 and 128 rows at
139-140 us against 326 us dense at n = 900, dt = 2^-5 (2 vCPU, 1 BLAS
thread).  Fewer blocks cost fewer Python calls.  16 columns: with spans
aligned to 8, 16, 32 or 64 columns the block product equalled the dense
``A @ x`` bit for bit in 320 of 320 trials (20 random vectors, dt 2^-5,
2^-9, 2^-13 and 0.3, n = 320, 420, 900 and 1400), and with unaligned spans
it differed in up to 20 of 20 (OpenBLAS 0.3.31; ``tests/test_kernel.py``
checks the products bit for bit).  At n = 900 the blocks hold 0.2-0.45 of
the dense bytes for dt <= 2^-5, and a matvec reads only those.  A grid of at
most 128 nodes is one block over all n columns, the dense gemv.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .bessel import bessel_i_scaled_ratio
from .errors import InvalidInput
from .grid import Grid, check_measure
from .measure import WeightedMeasure


def _check_time(t) -> None:
    """Raise InvalidInput unless 0 < t < inf."""
    if not 0.0 < t < math.inf:  # also rejects NaN
        raise InvalidInput(f"time must be positive and finite, got {float(t)!r}")


def _check_count(name: str, n, least: int = 1) -> None:
    """Raise InvalidInput unless n is an integer >= ``least``."""
    if not (isinstance(n, numbers.Integral) and n >= least):
        raise InvalidInput(f"{name} must be at least {least} and an integer, got {n!r}")


# QUADPACK qk21: the 21-point Kronrod nodes on [-1, 1] and their weights, and
# the weights of the 10-point Gauss rule on every second node (0 elsewhere).
_XK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)  # fmt: skip
_WK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208323416606, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)  # fmt: skip
_WG = (
    0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338, 0.0,
)  # fmt: skip
_GK_NODES = np.array([-x for x in _XK] + list(_XK[-2::-1]))
_GK_KRONROD = np.array(_WK + _WK[-2::-1])
_GK_GAUSS = np.array(_WG + _WG[-2::-1])
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def _gk21(f, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The G10/K21 values and QUADPACK error estimates of f on the panels [lo_k, hi_k].

    f is called once, on the 21 nodes of every panel.  The sums are numpy
    reductions, so their bits do not depend on the BLAS thread count.
    """
    half = 0.5 * (hi - lo)
    x = 0.5 * (lo + hi)[:, None] + half[:, None] * _GK_NODES
    fx = np.asarray(f(x.ravel()), dtype=np.float64).reshape(x.shape)
    kronrod = np.sum(fx * _GK_KRONROD, axis=1)
    gauss = np.sum(fx * _GK_GAUSS, axis=1)
    width = np.abs(half)
    resabs = np.sum(np.abs(fx) * _GK_KRONROD, axis=1) * width
    resasc = np.sum(np.abs(fx - 0.5 * kronrod[:, None]) * _GK_KRONROD, axis=1) * width
    err = np.abs(kronrod - gauss) * width
    scaled = resasc * np.minimum(1.0, (200.0 * err / np.where(resasc > 0.0, resasc, 1.0)) ** 1.5)
    err = np.where(resasc > 0.0, scaled, err)
    err = np.where(resabs > _TINY / (50.0 * _EPS), np.maximum(50.0 * _EPS * resabs, err), err)
    return kronrod * half, err


def quad(f, a: float, b: float, points=(), epsabs: float = 1.49e-8, epsrel: float = 1.49e-8, limit: int = 50):
    """(value, abserr, converged) of int_a^b f by adaptive G10/K21 Gauss-Kronrod quadrature.

    f maps a float array to an array of the same shape.  ``points`` inside
    (a, b) become panel edges.  Global bisection halves the panel with the
    largest error estimate (one call of f on its 42 new nodes) until the
    summed estimate is at most max(epsabs, epsrel |value|), which sets
    ``converged``, or ``limit`` panels exist.  The rule, its nodes and its
    error heuristic are QUADPACK's ``qk21``; there is no extrapolation, so
    the integrand should be bounded.
    """
    edges = np.array([a, *sorted({p for p in points if a < p < b}), b], dtype=np.float64)
    n = edges.size - 1
    size = max(n, limit)
    lo, hi, val, err = np.empty(size), np.empty(size), np.empty(size), np.empty(size)
    lo[:n], hi[:n] = edges[:-1], edges[1:]
    val[:n], err[:n] = _gk21(f, lo[:n], hi[:n])
    while True:
        value, abserr = float(np.sum(val[:n])), float(np.sum(err[:n]))
        converged = abserr <= max(epsabs, epsrel * abs(value))
        if converged or n >= limit:
            return value, abserr, converged
        k = int(np.argmax(err[:n]))
        mid = 0.5 * (lo[k] + hi[k])
        halves_lo, halves_hi = np.array([lo[k], mid]), np.array([mid, hi[k]])
        halves_val, halves_err = _gk21(f, halves_lo, halves_hi)
        lo[[k, n]], hi[[k, n]], val[[k, n]], err[[k, n]] = halves_lo, halves_hi, halves_val, halves_err
        n += 1


def _kernel(nu: float, t, x, y):
    """P_t(x, y), the one formula, on broadcastable floats or float arrays.

    t broadcasts with x and y, and the prefactor (2t)^(-1-nu) is taken once
    per element of t, on t's own shape, with Python float power, which on
    arrays ``np.power`` is not (it differed on 10,594 of 200,000 log-uniform
    t in [1e-6, 1e3], numpy 2.4).  ``0.25 / t`` and ``2 t`` are the same
    IEEE operations on arrays as on floats, so every value equals the call
    at that element's time as a float, bit for bit.  Pairs whose Gaussian
    factor g is 0.0 get +0.0 with no Bessel evaluation; a NaN g counts as
    nonzero, so NaN inputs propagate.  All-scalar inputs give a 0-d array,
    whose Bessel factor is the one-element array call.
    """
    t = np.asarray(t, dtype=np.float64)
    pref = np.reshape([(2.0 * s) ** (-1.0 - nu) for s in t.ravel().tolist()], t.shape)
    x, y = np.broadcast_arrays(x, y, t)[:2]
    d = x - y
    g = np.exp(-(d * d) * (0.25 / t))
    live = g != 0.0
    two_t = 2.0 * t
    if t.ndim:  # each live pair's own time
        pref, two_t = (np.broadcast_to(a, g.shape)[live] for a in (pref, two_t))
    out = np.zeros_like(g)
    out[live] = pref * g[live] * bessel_i_scaled_ratio(nu, x[live] * y[live] / two_t)
    return out


def _log_p(nu: float, t, x, y):
    """log P_t(x, y) on arrays; stays finite deep in the Gaussian tail."""
    z = x * y / (2.0 * t)
    return (-1.0 - nu) * np.log(2.0 * t) - (x - y) ** 2 / (4.0 * t) + np.log(
        bessel_i_scaled_ratio(nu, z)
    )


def heat_kernel(m: WeightedMeasure, t, x, y):
    """P_t(x, y) for t, x and y that broadcast together, with 0 < t < inf and 0 <= x, y < inf.

    At x = 0 or y = 0 it is the continuous extension of the kernel, the
    value an endpoint quadrature rule on [0, R] asks for.  An array of times
    gives each element the bits of a call at that time as a float: the
    prefactor is taken per time with Python float power (see ``_kernel``).
    An all-scalar call is the one-element array call, returned as a float.
    """
    t = np.asarray(t, dtype=np.float64)
    for s in t.ravel().tolist():
        _check_time(s)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    for p in (x, y):
        if not np.all((p >= 0.0) & (p < math.inf)):  # also rejects NaN
            raise InvalidInput("points must be nonnegative and finite")
    try:
        np.broadcast_shapes(t.shape, x.shape, y.shape)
    except ValueError:
        shapes = f"times of shape {t.shape} and points of shapes {x.shape} and {y.shape}"
        raise InvalidInput(f"{shapes} do not broadcast") from None
    out = _kernel(m.kernel_order, t, x, y)
    return float(out) if out.ndim == 0 else out


# Every row and column mu-mass of ``kernel_matrix`` is at most MASS_CAP.
# The cap divides a hot row down to _MASS_TARGET, not to MASS_CAP itself:
# aimed at the cap, the rounding of m / c and of the matvec left masses up
# to 0.9999999999990005, above it.
MASS_CAP = 1.0 - 1e-12
_MASS_TARGET = 1.0 - 1e-10


# Row slices that _raw_matrix evaluates at once hold at most this many
# candidate pairs; nothing else reads it.
_BLOCK_PAIRS = 1 << 16
_MASS_QUAD_LIMIT = 250  # subinterval budget of the quad in heat_kernel_mass_residual


def _band_exponent(nu: float, t: float, n: int, max_weight: float) -> float:
    """E with n (2t)^(-1-nu) r0 max_weight e^-E = 2^-60, clipped to [0, 800].

    r0 = 1 / (2^nu Gamma(nu + 1)) bounds e^-z I_nu(z) z^-nu for nu > -1/2.
    Past 800 the Gaussian factor is 0.0 already (exp underflows below about
    -745.2), so a larger E would keep no other entry.  Logs keep it finite
    for any positive t.
    """
    log_r0 = -nu * math.log(2.0) - math.lgamma(nu + 1.0)
    log_scale = math.log(n) + (-1.0 - nu) * math.log(2.0 * t) + log_r0 + math.log(max_weight)
    return min(max(60.0 * math.log(2.0) + log_scale, 0.0), 800.0)


# Rows per BandMatrix block.  At n = 420, 64-row blocks took 30-34 us a
# matvec against 22-27 us dense and 21-26 us with 128 rows in one series;
# at n = 900 64 and 128 rows tied (module docstring).  A single row left
# over joins the block before it: numpy takes a one-row product as a dot,
# which sums in another order than the gemv of the dense product (at
# n = 257 the last entry differed).
_BAND_ROWS = 128
# Column spans of a block start and end on multiples of this, or at n: then
# each column stays in the BLAS partial sum it has in the full row, and the
# skipped columns add only +0.0.  Aligned to 8-64 columns the block product
# was the dense one bit for bit in 320 of 320 trials, unaligned it differed
# in up to 20 of 20.
_BAND_ALIGN = 16


def _aligned_span(first: int, last: int, n: int) -> tuple[int, int]:
    """Columns ``first`` to ``last`` widened to whole ``_BAND_ALIGN``-column lines, capped at n.

    A product over this span of a row whose other entries meet only +0.0
    is the full-width product bit for bit (the comment on ``_BAND_ALIGN``).
    ``BandMatrix`` lays out its blocks with it; nothing else uses it.
    """
    a = _BAND_ALIGN
    return first // a * a, min(-(-(last + 1) // a) * a, n)


class BandMatrix:
    """An n x n matrix held as dense row blocks over its nonzero band.

    The layout is the module docstring's: blocks of ``_BAND_ROWS`` rows over
    column spans aligned to ``_BAND_ALIGN``, +0.0 outside them, each block
    on a 64-byte line of one shared buffer.  ``BandMatrix(lo, hi)`` is all
    +0.0, laid out for the band whose row i is nonzero at most in
    lo_i <= j < hi_i; ``_raw_matrix`` fills it.  ``A @ v`` for a vector of
    length n is one gemv per block and the dense product bit for bit;
    ``toarray`` gives the dense matrix and ``nbytes`` the bytes held.
    """

    __slots__ = ("shape", "nbytes", "blocks")

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        n = lo.size
        starts = list(range(0, n, _BAND_ROWS))
        if n - starts[-1] == 1:
            del starts[-1]
        # lo and hi are nondecreasing: a block spans its first row's lo to its last row's hi
        spans = [(r0, r1, *_aligned_span(lo[r0], hi[r1 - 1] - 1, n)) for r0, r1 in zip(starts, starts[1:] + [n])]
        sizes = [(r1 - r0) * (c1 - c0) for r0, r1, c0, c1 in spans]
        lines = [-(-size // 8) * 8 for size in sizes]  # whole 64-byte lines of 8 floats
        # malloc starts a large array 16 bytes past a page boundary, and dense
        # matvecs with a matrix there ran about 10% slower than on a 64-byte line
        padded = np.zeros(sum(lines) + 7)
        first = (-padded.ctypes.data % 64) // 8
        buf = padded[first : first + sum(lines)]
        blocks = []
        start = 0
        for (r0, r1, c0, c1), size, skip in zip(spans, sizes, lines):
            blocks.append((r0, r1, c0, c1, buf[start : start + size].reshape(r1 - r0, c1 - c0)))
            start += skip
        self.shape = (n, n)
        self.nbytes = buf.nbytes
        self.blocks = tuple(blocks)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        if np.shape(v) != self.shape[:1]:
            raise InvalidInput(f"need a vector of length {self.shape[0]}, got shape {np.shape(v)}")
        out = np.empty(self.shape[0])
        for r0, r1, c0, c1, block in self.blocks:
            np.dot(block, v[c0:c1], out=out[r0:r1])
        return out

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        for r0, r1, c0, c1, block in self.blocks:
            out[r0:r1, c0:c1] = block
        return out


def _raw_matrix(m: WeightedMeasure, grid: Grid, t: float) -> BandMatrix:
    """P_t on the grid nodes as a ``BandMatrix``, cut at a 2^-60 mass bound; unscaled and uncached.

    Every entry kept is the formula bit for bit, and every entry dropped is
    +0.0.  Row i keeps the band i <= j < hi_i with x_j - x_i <= sqrt(4 E t),
    where ``_band_exponent`` gives E; by the bound in the module docstring
    the dropped entries of any row or column carry at most 2^-60 of its
    mu-mass (up to the rounding of the band edge).  The cut keeps the matrix
    symmetric and positive, leaves no subnormal entry, and keeps the
    diagonal even at E = 0.  Row i's first kept column lo_i is the first j
    with hi_j > i, and lo and hi lay out the blocks.  The formula is
    evaluated on the upper band only, straight into the blocks, in slices of
    whole rows of at most ``_BLOCK_PAIRS`` candidates, and each lower entry
    is copied from its mirror: IEEE products and squares commute, so
    P(x_i, x_j) and P(x_j, x_i) are the same float.  No n x n array is built.
    """
    _check_time(t)
    t = float(t)
    nodes = grid.nodes
    n = nodes.size
    edge = math.sqrt(4.0 * _band_exponent(m.kernel_order, t, n, grid.weights.max()) * t)
    hi = np.searchsorted(nodes, nodes + edge, "right")
    mat = BandMatrix(np.searchsorted(hi, np.arange(n), "right"), hi)
    for b, (r0, r1, c0, c1, block) in enumerate(mat.blocks):
        rows = max(1, _BLOCK_PAIRS // (hi[r1 - 1] - r0))
        for s0 in range(r0, r1, rows):
            s1 = min(s0 + rows, r1)
            end = hi[s1 - 1]  # hi is nondecreasing: the slice's last column
            cols = np.arange(s0, end)
            band = (cols >= np.arange(s0, s1)[:, None]) & (cols < hi[s0:s1, None])
            x, y = np.broadcast_arrays(nodes[s0:s1, None], nodes[None, s0:end])
            block[s0 - r0 : s1 - r0, s0 - c0 : end - c0][band] = _kernel(m.kernel_order, t, x[band], y[band])
        # the lower entries: the diagonal square's from its upper triangle,
        # those left of r0 from the upper entries of the blocks above
        square = block[:, r0 - c0 : r1 - c0]
        lower = np.tri(r1 - r0, k=-1, dtype=bool)
        square[lower] = square.T[lower]
        for q0, q1, d0, d1, above in mat.blocks[:b]:
            e = min(r1, d1)
            if q1 > c0 and e > r0:
                a = max(q0, c0)
                block[: e - r0, a - c0 : q1 - c0] = above[a - q0 :, r0 - d0 : e - d0].T
    return mat


def kernel_matrix(m: WeightedMeasure, grid: Grid, t: float) -> BandMatrix:
    """The sub-Markov P_t on the grid nodes as a ``BandMatrix``, cached on the grid per t.

    The cut matrix P of ``_raw_matrix`` has row masses m_i = sum_j P_ij w_j.
    Where the cells are wide against sqrt(t) the sampled kernel overshoots
    unit mass, and a row with m_i > MASS_CAP is hot.  One pass caps it:
    c_i = m_i / _MASS_TARGET on hot rows and 1 elsewhere, and
    P_ij / max(c_i, c_j).  Since c >= 1, every entry only shrinks; a hot
    row's mass falls to at most _MASS_TARGET and any other row's stays at
    most m_i <= MASS_CAP.  P is symmetric and so is the divisor, so the
    column masses sum_i w_i P_ij are the row masses and are capped too.  The
    result is positive and symmetric, so the discrete evolution is sub-Markov
    both in L-inf (the maximum principle) and in L1(mu); a matrix with no hot
    row is the raw one bit for bit.  The measure must be the grid's, so t
    alone keys the matrix in the grid's cache, and a hit returns the same
    object.  The grid keeps matrices and spectra in one least-recently-used
    list of at most ``grid._CACHE_BYTES`` (40 MiB): a put drops the oldest
    entries until the rest fit, never the entry just put, and a hit makes
    its entry the newest.  The matrix is cached packed as
    ``_BAND_ROWS`` = 128-row blocks over column spans aligned to
    ``_BAND_ALIGN`` = 16, the sizes for which a block matvec was measured
    no slower than the dense one and bit for bit equal to it (see the module
    docstring); ``toarray`` gives the dense capped matrix.  ``_raw_matrix``
    builds the raw matrix in that layout, the masses m_i are its band
    product and each block is divided in place: a dense n x n gemv sums in an order that depends on
    the BLAS thread count, the band product does not, so the capped bits do
    not either, and no n x n divisor is built.
    """
    check_measure(m, grid)
    _check_time(t)
    t = float(t)
    mat = grid.cache_get(t)
    if mat is None:
        mat = _raw_matrix(m, grid, t)
        mass = mat @ grid.weights
        hot = mass > MASS_CAP
        if hot.any():
            c = np.where(hot, mass / _MASS_TARGET, 1.0)
            for r0, r1, c0, c1, block in mat.blocks:
                block /= np.maximum(c[r0:r1, None], c[c0:c1])
        grid.cache_put(t, mat)
    return mat


@dataclass(frozen=True)
class MassResidualReport:
    residual: float
    value: float
    truncation_radius: float
    abserr: float
    converged: bool


def heat_kernel_mass_residual(
    m: WeightedMeasure,
    t: float,
    y: float,
    quad_tolerance: float = 1e-10,
) -> MassResidualReport:
    """|int P_t(., y) dmu - 1| by adaptive quadrature, for 0 <= y < inf.

    R truncates where the Gaussian factor is below 1e-16 of the peak.  The
    substitution u = x^(1+alpha) takes the x^alpha endpoint weight into the
    measure:

        int_0^R P_t(x, y) x^alpha dx = (1+alpha)^-1 int_0^(R^(1+alpha)) P_t(u^(1/(1+alpha)), y) du,

    a bounded integrand, which ``quad`` takes on the kernel's array path.
    ``converged`` says that ``quad`` met its tolerance, a tenth of
    ``quad_tolerance``, and that its error estimate is below
    ``quad_tolerance``.
    """
    _check_time(t)
    if not 0.0 <= y < math.inf:  # also rejects NaN
        raise InvalidInput(f"point must be nonnegative and finite, got {float(y)!r}")
    if not 0.0 < quad_tolerance < math.inf:  # also rejects NaN
        raise InvalidInput(f"tolerance must be positive and finite, got {float(quad_tolerance)!r}")
    nu, t, y = m.kernel_order, float(t), float(y)
    p = 1.0 + m.alpha

    def integrand(u: np.ndarray) -> np.ndarray:
        return _kernel(nu, t, u ** (1.0 / p), y) / p

    radius = y + math.sqrt(4.0 * t * (37.0 + max(0.0, math.log1p(y / math.sqrt(t)))))
    value, abserr, ok = quad(
        integrand,
        0.0,
        radius**p,
        epsabs=0.1 * quad_tolerance,
        epsrel=0.1 * quad_tolerance,
        limit=_MASS_QUAD_LIMIT,
    )
    converged = ok and abserr < quad_tolerance
    return MassResidualReport(abs(value - 1.0), value, radius, abserr, converged)


@dataclass(frozen=True)
class SampleSpec:
    """Log-uniform sampling ranges for the Gaussian-bound sweep."""

    x_range: tuple[float, float] = (0.05, 20.0)
    y_range: tuple[float, float] = (0.05, 20.0)
    t_range: tuple[float, float] = (1e-3, 100.0)
    n_samples: int = 10_000
    seed: int = 0

    def __post_init__(self):
        _check_count("n_samples", self.n_samples)
        _check_count("seed", self.seed, least=0)
        if not all(0.0 < lo <= hi < math.inf for lo, hi in (self.x_range, self.y_range, self.t_range)):  # and NaN
            raise InvalidInput(f"sampling ranges need 0 < lo <= hi < inf, got {self!r}")


@dataclass
class GaussianBoundReport:
    constant: float
    c_lower: float  # divisor in the lower Gaussian, <= 4
    c_upper: float  # divisor in the upper Gaussian, >= 4
    derivative_constant: float
    n_samples: int
    spec: SampleSpec
    worst_lower: tuple[float, float, float] = (0.0, 0.0, 0.0)
    worst_upper: tuple[float, float, float] = (0.0, 0.0, 0.0)
    sandwich_ok: bool = True

    @property
    def ok(self) -> bool:
        return (
            self.sandwich_ok
            and math.isfinite(self.constant)
            and math.isfinite(self.derivative_constant)
            and self.constant >= 1.0
            and self.c_lower <= self.c_upper
        )


def gaussian_bound_constants(m: WeightedMeasure, spec: SampleSpec = SampleSpec()) -> GaussianBoundReport:
    """Fit the sandwich C^{-1} mu(B)^{-1} e^{-u/c_low} <= P_t <= C mu(B)^{-1} e^{-u/c_up}.

    Everything is computed in logs so the fit survives the deep tail.  The
    true Gaussian rate of this kernel is 4 (from exp(-(x-y)^2/4t)); the lower
    envelope needs a slightly faster decay and the upper a slightly slower
    one to absorb the algebraic prefactors, hence c_low <= 4 <= c_up.
    """
    rng = np.random.default_rng(spec.seed)

    def logu(lohi, size):
        lo, hi = lohi
        return np.exp(rng.uniform(math.log(lo), math.log(hi), size))

    n = spec.n_samples
    x = logu(spec.x_range, n)
    y = logu(spec.y_range, n)
    t = logu(spec.t_range, n)

    nu = m.kernel_order
    log_p = _log_p(nu, t, x, y)
    rt = np.sqrt(t)
    p_mu = 1.0 + m.alpha
    log_ball = np.log(((x + rt) ** p_mu - np.maximum(0.0, x - rt) ** p_mu) / p_mu)
    log_q = log_p + log_ball
    u = (x - y) ** 2 / t

    lows = np.linspace(3.2, 4.0, 9)
    ups = np.linspace(4.0, 5.6, 9)
    best = (math.inf, 4.0, 4.0)
    for cl in lows:
        need_lo = np.max(-u / cl - log_q)
        for cu in ups:
            need_up = np.max(log_q + u / cu)
            log_c = max(need_lo, need_up, 0.0)
            if log_c < best[0]:
                best = (log_c, cl, cu)
    log_c, c_lower, c_upper = best
    i_lo = int(np.argmax(-u / c_lower - log_q))
    i_up = int(np.argmax(log_q + u / c_upper))

    # derivative bound via centered differences
    h = 1e-5 * np.minimum(x, rt)
    p_plus = _log_p(nu, t, x + h, y)
    p_minus = _log_p(nu, t, np.maximum(x - h, 1e-300), y)
    deriv = (np.exp(p_plus) - np.exp(p_minus)) / (2.0 * h)
    log_bound = -0.5 * np.log(t) - log_ball - u / c_upper
    with np.errstate(divide="ignore"):
        log_ratio = np.log(np.abs(deriv)) - log_bound
    deriv_c = float(np.exp(np.max(log_ratio)))

    sandwich_ok = bool(
        np.all(-log_c - u / c_lower <= log_q + 1e-9) and np.all(log_q <= log_c + u / c_upper + 1e-9)
    )
    return GaussianBoundReport(
        constant=float(math.exp(log_c)),
        c_lower=float(c_lower),
        c_upper=float(c_upper),
        derivative_constant=deriv_c,
        n_samples=n,
        spec=spec,
        worst_lower=(float(x[i_lo]), float(y[i_lo]), float(t[i_lo])),
        worst_upper=(float(x[i_up]), float(y[i_up]), float(t[i_up])),
        sandwich_ok=sandwich_ok,
    )
