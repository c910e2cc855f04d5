"""40-digit reference values of the finite-volume semigroup K_t f, written as test data.

Usage:  python3 tools/fv_reference.py [--out tests/data/fv_reference.json]

For each case of ``CASES`` it builds the grid, the potential and f as the
tests do, takes T's two diagonals and sqrt(w) in float64 from
``generator._tridiagonal``, and evaluates K_t f = W^-1/2 Q e^(-t E) Q^T W^1/2 f
of that same floating-point T in ``mpmath`` at ``DIGITS`` digits, with
T = Q diag(E) Q^T from ``mpmath.eigsy``.  The output keeps per case its
inputs, the SHA-256 of the float64 diagonals (so a test can tell that its T
is the one referenced), lam_min and lam_max, and K_t f at every node as a
decimal string.  An n = 150 case takes about a minute.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import mpmath
import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from besselhardy import Grid, Potential, WeightedMeasure, generator  # noqa: E402

DIGITS = 40

# The pinned case of tests/test_generator.py::TestStructure::
# test_positive_and_sub_markov_killed_at_x_max: lam_max 1.9e16 and cell
# masses spanning 2e16, where eigh's K_t f is far off.
CASES = [
    {
        "name": "pinned positivity case",
        "alpha": 3.0,
        "n": 150,
        "x_max": 2.0,
        "ratio": 880.2336569079806,
        "pieces": [
            [0.6810683544461558, 4.288338921721126, 2.270003185059384],
            [0.9378197168925528, 7.405880566300511, 1.4743268007946537],
        ],
        "power_coeff": 1.1097115478114865,
        "power_exponent": 3.7699743098062584,
        "t": 0.7267578258362789,
        "seed": 176,
    },
]


def case_inputs(case: dict):
    """The measure, grid, potential and f = uniform(0, 1) from ``default_rng(seed)`` of a case."""
    m = WeightedMeasure(case["alpha"])
    grid = Grid.build(m, case["n"], case["x_max"], case["ratio"])
    potential = Potential(
        pieces=tuple(tuple(p) for p in case["pieces"]),
        power_coeff=case["power_coeff"],
        power_exponent=case["power_exponent"],
    )
    f = np.random.default_rng(case["seed"]).uniform(0.0, 1.0, case["n"])
    return m, grid, potential, f


def tridiagonal_sha256(diag: np.ndarray, off: np.ndarray) -> str:
    return hashlib.sha256(diag.tobytes() + off.tobytes()).hexdigest()


def reference(case: dict) -> dict:
    m, grid, potential, f = case_inputs(case)
    diag, off, sqrt_w = generator._tridiagonal(m, grid, potential)
    n = len(grid)
    mpmath.mp.dps = DIGITS
    mpf = mpmath.mpf
    t_mat = mpmath.zeros(n, n)
    for i in range(n):
        t_mat[i, i] = mpf(float(diag[i]))
    for i in range(1, n):
        t_mat[i, i - 1] = t_mat[i - 1, i] = mpf(float(off[i - 1]))
    lam, q = mpmath.eigsy(t_mat)
    g = [mpf(float(sqrt_w[i])) * mpf(float(f[i])) for i in range(n)]
    c = [mpmath.fsum(q[i, j] * g[i] for i in range(n)) * mpmath.exp(-mpf(case["t"]) * lam[j]) for j in range(n)]
    values = [mpmath.fsum(q[i, j] * c[j] for j in range(n)) / mpf(float(sqrt_w[i])) for i in range(n)]
    return case | {
        "digits": DIGITS,
        "tridiagonal_sha256": tridiagonal_sha256(diag, off),
        "lam_min": mpmath.nstr(lam[0], 20),
        "lam_max": mpmath.nstr(lam[n - 1], 20),
        "values": [mpmath.nstr(v, 30) for v in values],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "tests" / "data" / "fv_reference.json")
    out = parser.parse_args().out
    out.write_text(json.dumps([reference(case) for case in CASES], indent=1) + "\n")


if __name__ == "__main__":
    main()
