"""Exponentially scaled modified Bessel function of the first kind.

Two branches cover the half-line: the ascending series below ``SERIES_ASYM_SEAM``
and the Hankel large-argument expansion above it.  Both compute the ratio form
``e^{-z} I_order(z) z^{-order}`` used by the heat kernel, which is finite and
positive down to z = 0, so nothing overflows even for arguments of order 1e6.
``bessel_i_scaled`` returns ``e^{-z} I_order(z)`` as that ratio times z^order,
with no logarithm of z, so a subnormal z keeps its leading term.

Both branches exist as plain-Python scalar kernels (which a scalar
``heat_kernel`` call uses) and as vectorized numpy kernels (which the array
wrappers call).

Each element of an array kernel is done once the scalar loop would have
stopped: the series once its last term is at most 1e-18 of its total, the
Hankel expansion once its terms stop shrinking (from then on its total is
frozen) or the same test holds.  The array loops compute each term in place in
buffers made before the loop and test for done elements every
``_CHECK_EVERY``-th term only; finished elements leave the loop at such a
test when at least half the active ones are done.  No bit moves against
running every element until the slowest has converged: every term past an
element's stop is smaller again, under half an ulp of the total, so
round-to-nearest adds nothing, and each remaining element sees the same float
operations.
"""

import math

import numpy as np

from .errors import InvalidInput

# Branch crossover.  At z = 30 the truncation error of the Hankel expansion is
# below e^{-2z} ~ 1e-26 for the orders used here, and the ascending series
# needs < 100 terms, so both sides agree to ~1e-14 relative at the seam.
SERIES_ASYM_SEAM = 30.0

_MAX_SERIES_TERMS = 260
_MAX_ASYM_TERMS = 40
_CHECK_EVERY = 4  # terms between an array loop's convergence checks
_LN2 = math.log(2.0)


def _series_sum(order: float, z: float) -> float:
    """Sum_m (z^2/4)^m / (m! * Gamma(m+order+1)); all terms positive."""
    term = 1.0 / math.gamma(order + 1.0)
    total = term
    q = 0.25 * z * z
    for m in range(1, _MAX_SERIES_TERMS):
        term *= q / (m * (m + order))
        total += term
        if term <= 1e-18 * total:
            break
    return total


def _asym_factor(order: float, z: float) -> float:
    """Hankel expansion factor: e^{-z} I_order(z) * sqrt(2 pi z), z >= seam."""
    mu4 = 4.0 * order * order
    term = 1.0
    total = 1.0
    prev = 1.0
    for k in range(_MAX_ASYM_TERMS):
        term *= -(mu4 - (2 * k + 1) ** 2) / (8.0 * z * (k + 1))
        a = abs(term)
        if a >= prev:
            break
        total += term
        prev = a
        if a <= 1e-18 * abs(total):
            break
    return total


def _ive_asym_scalar(order: float, z: float) -> float:
    return _asym_factor(order, z) / math.sqrt(2.0 * math.pi * z)


def _ive_ratio_scalar(order: float, z: float) -> float:
    """e^{-z} I_order(z) z^{-order}; finite and positive down to z = 0."""
    if z < SERIES_ASYM_SEAM:
        return math.exp(-z - order * _LN2) * _series_sum(order, z)
    return _ive_asym_scalar(order, z) * math.exp(-order * math.log(z))


def _series_sum_numpy(order: float, z: np.ndarray) -> np.ndarray:
    """Array form of ``_series_sum``; each element stops at or after its own last term.

    Past an element's stop every later term is smaller and below 1e-18 of
    its total, under half an ulp, so summing on would leave the total as is.
    """
    q = 0.25 * z * z
    term = np.full(z.shape, 1.0 / math.gamma(order + 1.0))
    total = term.copy()
    out = np.empty_like(total)
    idx = np.arange(z.size)
    step, bound, done = np.empty_like(total), np.empty_like(total), np.empty(z.shape, dtype=bool)
    for m in range(1, _MAX_SERIES_TERMS):
        np.divide(q, m * (m + order), out=step)
        term *= step
        total += term
        if m % _CHECK_EVERY:
            continue
        np.less_equal(term, np.multiply(total, 1e-18, out=bound), out=done)  # stays true: the terms only shrink
        n_done = np.count_nonzero(done)
        if 2 * n_done >= done.size:
            out[idx[done]] = total[done]
            if n_done == done.size:
                return out
            keep = ~done
            idx, q, term, total = idx[keep], q[keep], term[keep], total[keep]
            step, bound, done = step[: idx.size], bound[: idx.size], done[: idx.size]
    out[idx] = total
    return out


def _asym_factor_numpy(order: float, z: np.ndarray) -> np.ndarray:
    """Array form of ``_asym_factor``; each element stops on its own.

    An element dies once its terms stop shrinking: it gets prev = -1, so its
    total stays frozen.  It is done once dead or once its last term is below
    1e-18 of its total; any later term the scalar loop would still add is
    smaller again, under half an ulp.
    """
    mu4 = 4.0 * order * order
    term = np.ones_like(z)
    total = np.ones_like(z)
    prev = np.ones_like(z)
    out = np.empty_like(z)
    idx = np.arange(z.size)
    a, bound = np.empty_like(z), np.empty_like(z)
    alive, done = np.empty(z.shape, dtype=bool), np.empty(z.shape, dtype=bool)
    for k in range(_MAX_ASYM_TERMS):
        term *= -(mu4 - (2 * k + 1) ** 2) / (8.0 * (k + 1))
        term /= z
        np.abs(term, out=a)
        np.less(a, prev, out=alive)
        np.add(total, term, out=total, where=alive)
        np.copyto(a, -1.0, where=np.logical_not(alive, out=alive))
        prev, a = a, prev  # prev is now |term|, or -1 where the element is dead
        if (k + 1) % _CHECK_EVERY:
            continue
        np.abs(total, out=bound)
        bound *= 1e-18
        np.less_equal(prev, bound, out=done)  # dead, or its last term is below 1e-18 of its total
        n_done = np.count_nonzero(done)
        if 2 * n_done >= done.size:
            out[idx[done]] = total[done]
            if n_done == done.size:
                return out
            keep = ~done
            idx, z, term, total, prev = idx[keep], z[keep], term[keep], total[keep], prev[keep]
            a, bound, alive, done = (buf[: idx.size] for buf in (a, bound, alive, done))
    out[idx] = total
    return out


def _ive_ratio_array_numpy(order: float, z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    small = z < SERIES_ASYM_SEAM
    if small.any():
        zs = z[small]
        out[small] = np.exp(-zs - order * _LN2) * _series_sum_numpy(order, zs)
    if (~small).any():
        zb = z[~small]
        out[~small] = _asym_factor_numpy(order, zb) / np.sqrt(2.0 * math.pi * zb) * np.exp(-order * np.log(zb))
    return out


def _check_order(order: float) -> None:
    if not order > -1.0:
        raise InvalidInput(f"Bessel order must exceed -1, got {order}")


def bessel_i_scaled_ratio(order: float, z):
    """Evaluate ``e^{-z} I_order(z) z^{-order}``; regular at z = 0."""
    _check_order(order)
    arr = np.asarray(z, dtype=np.float64)
    if np.any(arr < 0.0):
        raise InvalidInput("argument must be nonnegative")
    if arr.ndim == 0:
        return _ive_ratio_scalar(float(order), float(arr))
    return _ive_ratio_array_numpy(float(order), arr.ravel()).reshape(arr.shape)


def _times_power(ratio, order: float, z):
    """ratio * z^order, where 0^order is 0, 1 or inf as I_order(0) is."""
    with np.errstate(divide="ignore"):
        return ratio * np.asarray(z, dtype=np.float64) ** float(order)


def bessel_i_scaled(order: float, z):
    """Evaluate ``e^{-z} I_order(z)`` for scalar or array ``z >= 0``.

    It is ``bessel_i_scaled_ratio(order, z) * z^order``, so a subnormal z
    keeps its leading term and z = 0 gives I_order(0): 0, 1 or inf.
    """
    return _times_power(bessel_i_scaled_ratio(order, z), order, z)


def series_branch(order: float, z: float) -> float:
    """Series branch alone (valid for moderate z); exposed for seam tests."""
    _check_order(order)
    z = float(z)
    return _times_power(math.exp(-z - order * _LN2) * _series_sum(float(order), z), order, z)


def asymptotic_branch(order: float, z: float) -> float:
    """Asymptotic branch alone (valid for large z); exposed for seam tests."""
    _check_order(order)
    return _ive_asym_scalar(float(order), float(z))
