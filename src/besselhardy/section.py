"""Dyadic intervals and the stopping-time construction of interval sections.

The dyadic family is {[k 2^n, (k+1) 2^n] : k >= 1, n in Z} together with the
left intervals (0, 2^n].  A section is selected by the stopping rule
F(I) <= 1 < F(parent(I)) where F(I) = |2I|^2 / mu(2I) * int_{2I} V dmu.
Here |2I| = 2|I|, and 2I is I dilated about its midpoint and truncated at
0, the set that mu and the integral see.  Endpoints are k * 2^n floats,
hence exact, and F is closed-form, so the threshold comparison is
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DegeneratePotential, InvalidInput
from .measure import Interval, Potential, WeightedMeasure, enlarge

_MAX_SCALE_UP = 400  # build_section climbs at most this many doublings above the window
_MIN_SCALE = -80  # and descends to scale 2^_MIN_SCALE at the finest

@dataclass(frozen=True, order=True)
class DyadicInterval:
    """[k 2^n, (k+1) 2^n] for k >= 1, or the left interval (0, 2^n] (k=0)."""

    n: int
    k: int = 0  # 0 encodes the left interval

    def __post_init__(self):
        if self.k < 0:
            raise InvalidInput("k must be >= 0 (0 encodes the left interval)")

    @property
    def is_left(self) -> bool:
        return self.k == 0

    @property
    def a(self) -> float:
        return 0.0 if self.is_left else math.ldexp(float(self.k), self.n)

    @property
    def b(self) -> float:
        return math.ldexp(1.0, self.n) if self.is_left else math.ldexp(float(self.k + 1), self.n)

    @property
    def length(self) -> float:
        return math.ldexp(1.0, self.n)

    def to_interval(self) -> Interval:
        return Interval(self.a, self.b)

    def parent(self) -> "DyadicInterval":
        """Smallest dyadic interval properly containing this one."""
        if self.is_left or self.k == 1:
            # [2^n, 2^{n+1}] has no standard dyadic superset, so it merges
            # into the left interval, as does (0, 2^n] itself.
            return DyadicInterval(self.n + 1, 0)
        return DyadicInterval(self.n + 1, self.k // 2)

    def children(self) -> tuple["DyadicInterval", "DyadicInterval"]:
        if self.is_left:
            return (DyadicInterval(self.n - 1, 0), DyadicInterval(self.n - 1, 1))
        return (DyadicInterval(self.n - 1, 2 * self.k), DyadicInterval(self.n - 1, 2 * self.k + 1))

    def __str__(self) -> str:
        return f"left {self.n}" if self.is_left else f"std {self.k} {self.n}"


def s_functional(m: WeightedMeasure, potential: Potential, interval: DyadicInterval) -> float:
    """Stopping functional F(I) = |2I|^2 / mu(2I) * int_{2I} V dmu, with |2I| = 2|I|."""
    doubled = enlarge(interval.to_interval(), 2.0)
    length = 2.0 * interval.length
    mass = m.mu(doubled)
    integral = m.potential_integral(potential, doubled)
    return (length * length) * (integral / mass)


@dataclass(frozen=True)
class ProperSection:
    """A finite stretch of a section: ordered essentially disjoint intervals."""

    intervals: tuple[DyadicInterval, ...]
    beta: float
    c0: float
    window: Interval

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    def to_text(self) -> str:
        head = (
            "# beta, c0 and window recorded by the builder\n"
            f"# beta={self.beta!r} c0={self.c0!r} window={self.window.a!r}:{self.window.b!r}\n"
        )
        return head + "".join(str(d) + "\n" for d in self.intervals)


def build_section(
    m: WeightedMeasure,
    potential: Potential,
    window: Interval,
    beta: float = 1.05,
) -> ProperSection:
    """Collect the maximal dyadic intervals with F <= 1 that meet the window.

    Descends from the smallest dyadic ancestor of the window whose F exceeds 1.
    Raises DegeneratePotential when no such ancestor exists below the scale cap
    (e.g. V identically zero).  ``beta``, the factor of the stars I*, I**,
    I*** that the checks enlarge by, must be at least 1 and finite.
    """
    if not (0.0 < m.alpha < 1.0):
        raise InvalidInput("sections are constructed for alpha in (0, 1)")
    if not 1.0 <= beta < math.inf:  # also rejects NaN; enlarge takes factors >= 1
        raise InvalidInput(f"beta must be at least 1 and finite, got {beta!r}")
    potential.validate_for(m.alpha)

    n0 = max(0, math.ceil(math.log2(window.b)))
    root = DyadicInterval(n0, 0)
    climbs = 0
    while s_functional(m, potential, root) <= 1.0:
        root = root.parent()
        climbs += 1
        if climbs > _MAX_SCALE_UP:
            raise DegeneratePotential(
                f"F stayed <= 1 for {_MAX_SCALE_UP} doublings above the window"
            )

    selected: list[DyadicInterval] = []
    stack = [root]
    while stack:
        node = stack.pop()
        for child in node.children():
            if child.n < _MIN_SCALE:
                raise DegeneratePotential(
                    f"descent passed scale 2^{_MIN_SCALE} without stopping"
                )
            if child.a >= window.b or child.b <= window.a:
                continue
            if s_functional(m, potential, child) <= 1.0:
                selected.append(child)
            else:
                stack.append(child)

    selected.sort(key=lambda d: d.a)
    c0 = 1.0
    for prev, nxt in zip(selected, selected[1:]):
        ratio = nxt.length / prev.length
        c0 = max(c0, ratio, 1.0 / ratio)
    return ProperSection(tuple(selected), beta, c0, window)


@dataclass
class SectionValidationReport:
    disjoint_ok: bool = True
    coverage_ok: bool = True
    stopping_ok: bool | None = None
    beta_admissible: bool = True
    c0_observed: float = 1.0
    beta_bound: float = math.inf
    worst_pair: tuple[str, str] | None = None
    overlap_witness: tuple[str, str] | None = None
    coverage_gaps: list[tuple[float, float]] = field(default_factory=list)
    stopping_witness: str | None = None

    @property
    def ok(self) -> bool:
        stopping = True if self.stopping_ok is None else self.stopping_ok
        return (
            self.disjoint_ok
            and self.coverage_ok
            and stopping
            and self.beta_admissible
        )


def validate_section(
    section: ProperSection,
    m: WeightedMeasure,
    potential: Potential | None = None,
) -> SectionValidationReport:
    """Check the section axioms; never raises, failures carry witnesses.

    When ``potential`` is given, the stopping rule F(I) <= 1 < F(parent) is
    re-verified independently for every interval.
    """
    report = SectionValidationReport()
    ivs = sorted(section.intervals, key=lambda d: d.a)
    if not ivs:
        report.coverage_ok = False
        return report

    touch_tol = 1e-12
    for prev, nxt in zip(ivs, ivs[1:]):
        overlap = prev.b - nxt.a
        if overlap > touch_tol * min(prev.length, nxt.length):
            report.disjoint_ok = False
            report.overlap_witness = (str(prev), str(nxt))
        if nxt.a - prev.b > touch_tol * min(prev.length, nxt.length):
            report.coverage_ok = False
            report.coverage_gaps.append((prev.b, nxt.a))
        else:
            ratio = max(nxt.length / prev.length, prev.length / nxt.length)
            if ratio > report.c0_observed:
                report.c0_observed = ratio
                report.worst_pair = (str(prev), str(nxt))
    window = section.window
    if ivs[0].a > window.a + touch_tol * ivs[0].length:
        report.coverage_ok = False
        report.coverage_gaps.append((window.a, ivs[0].a))
    if ivs[-1].b < window.b - touch_tol * ivs[-1].length:
        report.coverage_ok = False
        report.coverage_gaps.append((ivs[-1].b, window.b))

    report.beta_bound = min(2.0, 1.0 + 1.0 / report.c0_observed) ** (1.0 / 3.0)
    report.beta_admissible = section.beta < report.beta_bound

    if potential is not None:
        report.stopping_ok = True
        for d in ivs:
            f_here = s_functional(m, potential, d)
            f_up = s_functional(m, potential, d.parent())
            if not (f_here <= 1.0 < f_up):
                report.stopping_ok = False
                report.stopping_witness = f"{d}: F={f_here!r}, F(parent)={f_up!r}"
                break
    return report


def brute_force_section(
    m: WeightedMeasure,
    potential: Potential,
    window: Interval,
    n_lo: int,
    n_hi: int,
) -> list[DyadicInterval]:
    """Enumerate every dyadic interval meeting the window over a scale range
    and keep those with F(I) <= 1 < F(parent).  Independent oracle for
    build_section; cost is exponential in the scale range."""
    found = []
    for n in range(n_lo, n_hi + 1):
        width = math.ldexp(1.0, n)
        candidates = [DyadicInterval(n, 0)]
        k_lo = max(1, math.floor(window.a / width))
        k_hi = math.ceil(window.b / width)
        candidates.extend(DyadicInterval(n, k) for k in range(k_lo, k_hi + 1))
        for d in candidates:
            if d.a >= window.b or d.b <= window.a:
                continue
            if s_functional(m, potential, d) <= 1.0 < s_functional(m, potential, d.parent()):
                found.append(d)
    return sorted(set(found), key=lambda d: d.a)
