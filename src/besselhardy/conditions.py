"""Superharmonic comparison profiles and the decay-condition checks.

A profile is built on a balanced interval J between 2I and 2I^d: the interval
where the stopping functional equals exactly 1.  The profile

    phi(x) = 1 + (2(1-alpha))^{-1} int_J V(y) |x^{1-alpha} - y^{1-alpha}| dmu(y)

is evaluated in closed form for piecewise-constant-plus-power potentials, as
is its derivative phi'(x) = x^{-alpha}/2 * (int_{J, y<x} V dmu - int_{J, y>x} V dmu).
The checks: the weak form of -phi'' - (alpha/x) phi' = -1_J V including the
boundary term at 0, monotonicity of u -> K_u phi(z), and the large-time /
small-time decay rates of the Schroedinger mass.  The sweep of K_u phi, the
large-time masses of (D) and the small-time integrals of (K) are read from
the cached finite-volume spectrum of ``generator``, exact in time; (K)
reads the spectrum of V = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import generator
from .errors import BalanceUnreachable, InvalidInput, QuadratureBudgetExceeded
from .grid import Grid, GridFunction
from .hardy import Bump
from .kernel import _check_count, _check_time, quad
from .measure import Interval, Potential, WeightedMeasure, enlarge
from .section import DyadicInterval, ProperSection

_BALANCE_TOL = 1e-10  # find_balanced_J bisects until |balance - 1| <= this,
_BALANCE_ITER = 200  # or for this many steps
_RAMP_FRAC = 0.25  # each ramp of a SmoothBump spans this fraction of its support
_WEAK_QUAD_TOL = 1e-11  # absolute and relative quad tolerance of phi_equation_residual
_WEAK_QUAD_LIMIT = 300  # and its panel budget per integral

def balance_functional(m: WeightedMeasure, potential: Potential, interval: Interval) -> float:
    """|J|^2 / mu(J) * int_J V dmu with the plain set diameter of J."""
    return (interval.length**2 / m.mu(interval)) * m.potential_integral(potential, interval)


@dataclass(frozen=True)
class SuperharmonicProfile:
    measure: WeightedMeasure
    potential: Potential
    host: DyadicInterval
    balanced: Interval  # J
    c_j: float  # mu(J) / |J|^2 == int_J V dmu at balance
    balance_residual: float

    def phi(self, x):
        """Closed-form profile value; array-safe."""
        m = self.measure
        a = m.alpha
        xs = np.asarray(x, dtype=np.float64)
        total = np.zeros_like(xs)
        xp = xs ** (1.0 - a)
        for lo, hi, coeff, e in self.potential.terms():
            lo = max(lo, self.balanced.a)
            hi = min(hi, self.balanced.b)
            if lo >= hi:
                continue
            p_w = a + e + 1.0
            p_m = e + 2.0

            def w0(s):
                return coeff * s**p_w / p_w

            def m1(s):
                return coeff * s**p_m / p_m

            cut = np.clip(xs, lo, hi)
            below = xp * (w0(cut) - w0(lo)) - (m1(cut) - m1(lo))
            above = (m1(hi) - m1(cut)) - xp * (w0(hi) - w0(cut))
            total += below + above
        vals = 1.0 + total / (2.0 * (1.0 - a))
        return float(vals) if vals.ndim == 0 else vals

    def phi_prime(self, x):
        """Three-branch closed form of the derivative."""
        m = self.measure
        xs = np.asarray(x, dtype=np.float64)
        below = np.zeros_like(xs)
        for lo, hi, coeff, e in self.potential.terms():
            lo = max(lo, self.balanced.a)
            hi = min(hi, self.balanced.b)
            if lo >= hi:
                continue
            p_w = m.alpha + e + 1.0
            cut = np.clip(xs, lo, hi)
            below += coeff * (cut**p_w - lo**p_w) / p_w
        total = m.potential_integral(self.potential, self.balanced)
        vals = 0.5 * xs ** (-m.alpha) * (2.0 * below - total)
        return float(vals) if vals.ndim == 0 else vals

    def phi_gridfunction(self, grid: Grid) -> GridFunction:
        return GridFunction(grid, self.phi(grid.nodes))


def find_balanced_J(m: WeightedMeasure, potential: Potential, host: DyadicInterval) -> SuperharmonicProfile:
    """Bisect along the expanding family from 2I to 2(I^d) until balance = 1.

    The family interpolates endpoints linearly, so it is nested; the balance
    functional is nondecreasing along it (nested-ratio monotonicity plus
    V >= 0), which makes plain bisection exact.  Raises BalanceUnreachable
    when even 2(I^d) has balance <= 1 (a corrupted or non-stopping host).
    """
    if not (0.0 < m.alpha < 1.0):
        raise InvalidInput("profiles require alpha in (0, 1)")
    inner = enlarge(host.to_interval(), 2.0)
    outer = enlarge(host.parent().to_interval(), 2.0)
    g_inner = balance_functional(m, potential, inner)
    g_outer = balance_functional(m, potential, outer)
    if g_inner > 1.0 + _BALANCE_TOL:
        raise BalanceUnreachable(f"2I already exceeds balance: {g_inner}")
    if g_outer <= 1.0:
        raise BalanceUnreachable(
            f"2(I^d) has balance {g_outer} <= 1; host does not satisfy the stopping rule"
        )

    def at(s: float) -> Interval:
        a = (1.0 - s) * inner.a + s * outer.a
        b = (1.0 - s) * inner.b + s * outer.b
        return Interval(a, b)

    lo_s, hi_s = 0.0, 1.0
    best = inner
    gb = g_inner
    for _ in range(_BALANCE_ITER):
        mid = 0.5 * (lo_s + hi_s)
        j = at(mid)
        g = balance_functional(m, potential, j)
        if abs(g - 1.0) < abs(gb - 1.0):
            best, gb = j, g
        if abs(g - 1.0) <= _BALANCE_TOL:
            break
        if g > 1.0:
            hi_s = mid
        else:
            lo_s = mid
    c_j = m.mu(best) / best.length**2
    return SuperharmonicProfile(m, potential, host, best, c_j, abs(gb - 1.0))


# ---------------------------------------------------------------------------
# weak identity


def SmoothBump(lo: float, hi: float) -> Bump:
    """Cubic smoothstep bump: 0 outside (lo, hi), plateau 1 in the middle."""
    w = _RAMP_FRAC * (hi - lo)
    return Bump(up=(lo, w), down=(hi - w, w))


def LeftPlateauBump(flat_to: float, zero_at: float) -> Bump:
    """psi == 1 on [0, flat_to], smoothstep down to 0 at zero_at."""
    return Bump(up=None, down=(flat_to, zero_at - flat_to))


def phi_equation_residual(
    profile: SuperharmonicProfile,
    test_fn,
    include_boundary_term: bool = True,
) -> float:
    """Residual of the weak identity

        int psi' phi' dmu + int psi 1_J V dmu - psi(0) c_J / 2 = 0.

    The boundary term activates only when the test function is nonzero at the
    origin (the flux -phi'(x) x^alpha at 0+ equals c_J/2).
    """
    m = profile.measure
    lo, hi = test_fn.support
    j = profile.balanced
    pts = sorted(
        {p for p in (j.a, j.b, *test_fn.kinks) if lo < p < hi}
        | {p for t in profile.potential.terms() for p in t[:2] if lo < p < hi and math.isfinite(p)}
    )

    def grad_integrand(x):
        return test_fn.derivative(x) * profile.phi_prime(x) * x**m.alpha

    def v_integrand(x):
        return test_fn(x) * profile.potential(x) * x**m.alpha

    vlo, vhi = max(lo, j.a), min(hi, j.b)
    terms = [(grad_integrand, lo, hi)] + ([(v_integrand, vlo, vhi)] if vlo < vhi else [])
    total = 0.0
    for integrand, a, b in terms:
        value, abserr, converged = quad(
            integrand, a, b, points=pts, epsabs=_WEAK_QUAD_TOL, epsrel=_WEAK_QUAD_TOL, limit=_WEAK_QUAD_LIMIT
        )
        if not converged:
            raise QuadratureBudgetExceeded(
                f"weak-identity integral on [{a}, {b}] has error {abserr:.3g} after {_WEAK_QUAD_LIMIT} panels"
            )
        total += value

    boundary = test_fn(0.0) * profile.c_j / 2.0 if include_boundary_term else 0.0
    return abs(total - boundary)


# ---------------------------------------------------------------------------
# evolution-based checks


@dataclass
class SuperharmonicReport:
    us: np.ndarray  # the requested u, sorted
    thetas: np.ndarray
    phi_at_z: float
    z: float
    truncation_bars: np.ndarray
    monotone_ok: bool
    bounded_ok: bool
    worst_step: float  # largest relative increase between consecutive u


def check_superharmonic(
    m: WeightedMeasure,
    potential: Potential,
    profile: SuperharmonicProfile,
    z: float,
    u_grid,
    grid: Grid,
    rel_slack: float = 1e-6,
) -> SuperharmonicReport:
    """Evolve the profile and test theta(u) = K_u phi(z): non-increasing, <= phi(z).

    K_u is the finite-volume semigroup of ``generator``: one cached spectrum
    per (grid, V), then theta at every u, exact in time, with no kernel
    build.  The report's ``us`` are the requested times, sorted; each must
    be positive and finite.

    The profile grows like x^{1-alpha}, so the grid truncates it; the report
    carries a Gaussian-tail bound on the truncated contribution per time and
    the monotonicity check allows for it.
    """
    if not 0.0 <= rel_slack < math.inf:  # also rejects NaN
        raise InvalidInput(f"rel_slack must be nonnegative and finite, got {float(rel_slack)!r}")
    iz = grid.index_of(z)
    z = float(grid.nodes[iz])
    us = np.sort(np.asarray(u_grid, dtype=np.float64))
    if us.size == 0:
        raise InvalidInput("need at least one time u")
    for u in (us[0], us[-1]):  # the sort puts NaN last
        _check_time(u)
    phi_z = float(profile.phi(z))
    spec = generator.spectrum(m, grid, potential)
    thetas = generator.sweep(spec, profile.phi_gridfunction(grid).values, iz, us)
    bars = np.array([_tail_bound(m, profile, z, u, grid.x_max) for u in us.tolist()])
    worst = 0.0
    monotone = True
    for k in range(us.size - 1):
        allowed = thetas[k] * (1.0 + rel_slack) + bars[k + 1]
        if thetas[k + 1] > allowed:
            monotone = False
        if thetas[k] > 0:
            worst = max(worst, (thetas[k + 1] - thetas[k]) / thetas[k])
    bounded = bool(np.all(thetas <= phi_z * (1.0 + rel_slack)))
    return SuperharmonicReport(us, thetas, phi_z, z, bars, monotone, bounded, worst)


def _tail_bound(
    m: WeightedMeasure, profile: SuperharmonicProfile, z: float, u: float, x_max: float
) -> float:
    """Crude Gaussian upper bound on int_{x > x_max} P_u(z, x) phi(x) dmu."""
    c_up, c_const = 4.8, 4.0
    ball = m.ball_mass(z, math.sqrt(u))

    def integrand(x):
        return np.exp(-((x - z) ** 2) / (c_up * u)) * profile.phi(x) * x**m.alpha

    hi = x_max + 30.0 * math.sqrt(u) + 10.0
    val, _, _ = quad(integrand, x_max, hi, epsabs=1e-14, epsrel=1e-9, limit=100)
    return c_const / ball * val


@dataclass
class DecayFitEntry:
    label: str
    xs: np.ndarray
    values: np.ndarray
    fitted_exponent: float
    threshold: float
    passed: bool
    extras: dict = field(default_factory=dict)


@dataclass
class DecayFitReport:
    kind: str
    entries: list[DecayFitEntry]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)


def _pick_intervals(section: ProperSection, intervals: list[DyadicInterval] | None) -> list[DyadicInterval]:
    """``intervals`` when given, else up to three spread over the section; never none."""
    ivs = list(section.intervals if intervals is None else intervals)
    if not ivs:
        raise InvalidInput("no intervals to check")
    if intervals is not None or len(ivs) <= 3:
        return ivs
    idx = np.linspace(0, len(ivs) - 1, 3).round().astype(int)
    return [ivs[i] for i in sorted(set(idx.tolist()))]


def check_condition_D(
    m: WeightedMeasure,
    potential: Potential,
    section: ProperSection,
    grid: Grid,
    intervals: list[DyadicInterval] | None = None,
    n_max: int = 8,
    steps_per_leg: int = 8,
) -> DecayFitReport:
    """Large-time mass decay: M(n) = int K_{2^n |I|^2}(., y) dmu for y in I**.

    K_t is the finite-volume semigroup of ``generator``, exact in time.  It is
    symmetric in L2(mu), so the mass of the point mass at y is
    <1, K_t delta_y>_mu = (K_t 1)(y): one ``generator.sweep`` of the
    constant 1 at the node of y over the n_max + 1 times per interval, from
    the spectrum of V that the superharmonic sweeps and Hardy norms share.
    ``steps_per_leg`` is unused: it stays, checked like a step count, so
    that callers passing it keep working.

    Fits log2 M(n) against n over the last half of the range; the target rate
    is slope <= -(1-alpha)/2 + 0.1.  Also reports the implied constants of
    the weak polynomial form M(n) <= C n^{-1-eps}.
    """
    _check_count("n_max", n_max, least=2)  # the log-log fit needs two points
    _check_count("steps_per_leg", steps_per_leg)
    chosen = _pick_intervals(section, intervals)
    spec = generator.spectrum(m, grid, potential)
    ones = np.ones(len(grid))
    entries = []
    for d in chosen:
        base = d.to_interval()
        iy = grid.index_of(base.center)
        y = float(grid.nodes[iy])
        t0 = d.length**2
        ns = np.arange(n_max + 1)
        masses = generator.sweep(spec, ones, iy, np.ldexp(t0, ns))
        tail = ns >= n_max // 2
        slope = _lsq_slope(ns[tail].astype(float), np.log2(np.maximum(masses[tail], 1e-300)))
        threshold = -(1.0 - m.alpha) / 2.0 + 0.1
        pos = ns >= 1
        loglog = _lsq_slope(
            np.log2(ns[pos].astype(float)), np.log2(np.maximum(masses[pos], 1e-300))
        )
        eps = max(0.0, -loglog - 1.0)
        c_weak = float(np.max(masses[pos] * ns[pos] ** (1.0 + eps)))
        entries.append(
            DecayFitEntry(
                label=str(d),
                xs=ns.astype(float),
                values=masses,
                fitted_exponent=slope,
                threshold=threshold,
                passed=bool(slope <= threshold),
                extras={"y": y, "epsilon_weak": eps, "C_weak": c_weak, "t0": t0},
            )
        )
    return DecayFitReport("D", entries)


def check_condition_K(
    m: WeightedMeasure,
    potential: Potential,
    section: ProperSection,
    grid: Grid,
    intervals: list[DyadicInterval] | None = None,
    t_count: int = 6,
) -> DecayFitReport:
    """Small-time accumulated interaction:

        G(t) = sup_x int_0^{2t} int P_s(x,y) 1_{I***}(y) V(y) dmu(y) ds,

    fitted as G ~ C (t/|I|^2)^delta for t <= |I|^2.  Near-origin intervals
    (rho(0,I) <= 2|I|) must reach delta >= (1-alpha)/2 - 0.1, others
    delta >= 1/2 - 0.1.  P_s is the finite-volume semigroup of ``generator``
    with V = 0, from the cached spectrum of the zero potential: with
    g = 1_{I***} V at the nodes, the s-integral is exact in time,

        int_0^{2t} (P_s g)(x) ds = sum_j U_xj c_j (1 - e^(-2t lam_j)) / lam_j / sqrt(w_x),

    c = U^T (sqrt(w) g) (``generator.integral_sweep``).  Every lam_j is
    positive, since the last cell is killed at x_max, so nothing divides
    by 0.  The sup runs over every node within 2|I| of I***.  An interval
    whose I*** holds no grid node raises InvalidInput; one where V vanishes
    on I***, so g = 0 and G = 0 exactly, passes as vacuous.
    """
    _check_count("t_count", t_count, least=3)  # the small-t half of the fit needs two points
    potential.validate_for(m.alpha)
    chosen = _pick_intervals(section, intervals)
    spec = generator.spectrum(m, grid, Potential.zero())
    v_nodes = np.asarray(potential(grid.nodes), dtype=np.float64)
    entries = []
    for d in chosen:
        base = d.to_interval()
        star3 = enlarge(base, section.beta**3)
        mask = (grid.nodes >= star3.a) & (grid.nodes <= star3.b)
        if not mask.any():  # G would be 0 and pass like a zero potential
            raise InvalidInput(f"interval {d}: I*** = [{star3.a!r}, {star3.b!r}] holds no grid node")
        near = (grid.nodes >= star3.a - 2.0 * base.length) & (
            grid.nodes <= star3.b + 2.0 * base.length
        )
        t0 = d.length**2
        ts = t0 * 2.0 ** (-np.arange(t_count, dtype=float))
        gs = generator.integral_sweep(spec, np.where(mask, v_nodes, 0.0), near, 2.0 * ts).max(axis=1)
        near_origin = base.a <= 2.0 * base.length
        threshold = (1.0 - m.alpha) / 2.0 - 0.1 if near_origin else 0.5 - 0.1
        if np.all(gs == 0.0):
            extras = {"vacuous": True, "near_origin": near_origin}
            entries.append(DecayFitEntry(str(d), ts, gs, math.inf, threshold, True, extras))
            continue
        ratio = np.log(ts / t0)
        small = ratio <= np.median(ratio)  # small-t half of the range
        delta = _lsq_slope(ratio[small], np.log(np.maximum(gs[small], 1e-300)))
        entries.append(
            DecayFitEntry(
                label=str(d),
                xs=ts,
                values=gs,
                fitted_exponent=delta,
                threshold=threshold,
                passed=bool(delta >= threshold),
                extras={"near_origin": near_origin},
            )
        )
    return DecayFitReport("K", entries)


def _lsq_slope(xs: np.ndarray, ys: np.ndarray) -> float:
    a = np.vstack([xs, np.ones_like(xs)]).T
    sol, *_ = np.linalg.lstsq(a, ys, rcond=None)
    return float(sol[0])
