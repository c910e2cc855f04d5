"""Exact arithmetic for the weighted measure x^alpha dx on the half-line.

Interval masses, balls and enlargements (plain intervals, truncated at 0),
the ratio gamma = (y - x)^2 / (y^{1+alpha} - x^{1+alpha}), which is
|I|^2 / mu(I) over 1 + alpha, and closed-form potential integrals.
Everything here is closed-form; no quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidInput, NonLocallyIntegrable


@dataclass(frozen=True)
class Interval:
    """Closed subinterval [a, b] of [0, inf)."""

    a: float
    b: float

    def __post_init__(self):
        if not (0.0 <= self.a < self.b < math.inf):
            raise InvalidInput(f"need 0 <= a < b < inf, got [{self.a}, {self.b}]")

    @property
    def length(self) -> float:
        return self.b - self.a

    @property
    def center(self) -> float:
        return 0.5 * (self.a + self.b)


def ball(x: float, r: float) -> Interval:
    """B(x, r) intersected with (0, inf)."""
    if r <= 0.0:
        raise InvalidInput("radius must be positive")
    return Interval(max(0.0, x - r), x + r)


def enlarge(interval: Interval, c: float) -> Interval:
    """Dilate ``interval`` about its midpoint by ``c >= 1`` and truncate at 0."""
    if c < 1.0:
        raise InvalidInput("enlargement factor must be >= 1")
    if c == 1.0:
        return interval
    return ball(interval.center, 0.5 * c * interval.length)


@dataclass(frozen=True)
class WeightedMeasure:
    """The measure x^alpha dx on X = (0, inf)."""

    alpha: float

    def __post_init__(self):
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise InvalidInput(f"alpha must be a positive real, got {self.alpha}")

    @property
    def kernel_order(self) -> float:
        """Bessel order of the associated heat kernel, (alpha - 1)/2."""
        return 0.5 * (self.alpha - 1.0)

    def mu_ab(self, a: float, b: float) -> float:
        """mu((a, b)) = (b^{1+alpha} - a^{1+alpha}) / (1+alpha); 0 if a == b."""
        if a < 0.0 or b < a:
            raise InvalidInput(f"need 0 <= a <= b, got ({a}, {b})")
        if a == b:
            return 0.0
        p = 1.0 + self.alpha
        return (b**p - a**p) / p

    def mu(self, interval: Interval) -> float:
        return self.mu_ab(interval.a, interval.b)

    def ball_mass(self, x: float, r: float) -> float:
        return self.mu_ab(max(0.0, x - r), x + r)

    def gamma_ratio(self, x: float, y: float) -> float:
        """(y-x)^2 / (y^{1+alpha} - x^{1+alpha}) for 0 <= x < y."""
        if not (0.0 <= x < y):
            raise InvalidInput(f"need 0 <= x < y, got ({x}, {y})")
        p = 1.0 + self.alpha
        return (y - x) ** 2 / (y**p - x**p)

    def potential_integral(self, potential: "Potential", interval: Interval) -> float:
        """int_I V dmu in closed form; InvalidInput where it overflows a float."""
        potential.validate_for(self.alpha)
        total = 0.0
        for lo, hi, coeff, expo in potential.terms():
            seg_lo = max(interval.a, lo)
            seg_hi = min(interval.b, hi)
            if seg_lo >= seg_hi or coeff == 0.0:
                continue
            p = self.alpha + expo + 1.0
            total += coeff * (power_or_inf(seg_hi, p) - power_or_inf(seg_lo, p)) / p
        if not math.isfinite(total):
            raise integral_overflow(potential, interval.a, interval.b)
        return total


def power_or_inf(x: float, p: float) -> float:
    """x^p by Python float ``**``, or +inf where that overflows (``**`` raises there)."""
    try:
        return x**p
    except OverflowError:
        return math.inf


def integral_overflow(potential: "Potential", a: float, b: float) -> InvalidInput:
    """The error for an integral of ``potential`` over [a, b] that overflows a float."""
    return InvalidInput(f"the integral of {potential!r} over [{a!r}, {b!r}] overflows a float")


@dataclass(frozen=True)
class Potential:
    """Nonnegative potential: constant pieces plus an optional power tail.

    ``pieces`` holds (a, b, value) triples; the optional tail is
    ``power_coeff * x^{-power_exponent}`` on all of X.  Local mu-integrability
    requires power_exponent < 1 + alpha, which is checked against the measure
    that actually integrates it.
    """

    pieces: tuple[tuple[float, float, float], ...] = ()
    power_coeff: float = 0.0
    power_exponent: float = 0.0

    def __post_init__(self):
        for a, b, v in self.pieces:
            if not (0.0 <= a < b):
                raise InvalidInput(f"bad piece endpoints ({a}, {b})")
            if not (0.0 <= v < math.inf):
                raise InvalidInput(f"piece values must be nonnegative and finite, got {v}")
        if not (0.0 <= self.power_coeff < math.inf):
            raise InvalidInput(f"power coefficient must be nonnegative and finite, got {self.power_coeff}")
        if not math.isfinite(self.power_exponent):
            raise InvalidInput(f"power exponent must be finite, got {self.power_exponent}")

    @classmethod
    def constant(cls, value: float, support: tuple[float, float] = (0.0, 1024.0)) -> "Potential":
        return cls(pieces=((support[0], support[1], value),))

    @classmethod
    def power(cls, coeff: float, exponent: float) -> "Potential":
        return cls(power_coeff=coeff, power_exponent=exponent)

    @classmethod
    def zero(cls) -> "Potential":
        return cls()

    def validate_for(self, alpha: float) -> None:
        if self.power_coeff > 0.0 and not (self.power_exponent < 1.0 + alpha):
            raise NonLocallyIntegrable(
                f"power exponent {self.power_exponent} >= 1 + alpha = {1.0 + alpha}"
            )

    def terms(self):
        """Yield (lo, hi, coeff, exponent) with V = sum coeff * x^exponent."""
        for a, b, v in self.pieces:
            if v != 0.0:
                yield (a, b, v, 0.0)
        if self.power_coeff > 0.0:
            yield (0.0, math.inf, self.power_coeff, -self.power_exponent)

    def __call__(self, x):
        arr = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(arr)
        for a, b, v in self.pieces:
            out += np.where((arr >= a) & (arr <= b), v, 0.0)
        if self.power_coeff > 0.0:
            out += self.power_coeff * arr ** (-self.power_exponent)
        return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def parse_potential(text: str, source: str = "<inline>") -> Potential:
    """Parse the plain-text potential format.

    One directive per line (``;`` also separates directives inline):
    ``piece <a> <b> <value>`` or ``power <coeff> <exponent>``.
    Blank lines and ``#`` comments are ignored.
    """
    pieces: list[tuple[float, float, float]] = []
    coeff = 0.0
    expo = 0.0
    lines = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        for part in raw.split(";"):
            lines.append((ln, part))
    for ln, raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            if fields[0] == "piece" and len(fields) == 4:
                a, b, v = (float(f) for f in fields[1:])
                pieces.append((a, b, v))
            elif fields[0] == "power" and len(fields) == 3:
                if coeff != 0.0:
                    raise InvalidInput("duplicate power directive")
                coeff, expo = float(fields[1]), float(fields[2])
            else:
                raise InvalidInput(f"unknown directive {fields[0]!r}")
        except ValueError as exc:
            raise ConfigError(f"{source}:{ln}: {exc}") from exc
    try:
        return Potential(pieces=tuple(pieces), power_coeff=coeff, power_exponent=expo)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def load_potential(path: str) -> Potential:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_potential(fh.read(), source=path)
