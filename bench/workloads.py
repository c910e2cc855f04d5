"""The benchmark's three workloads.

Each workload is built from a seed and owns every input it generates; the
library sees only those inputs.  ``draw()`` makes the next unit's inputs,
``compute(inputs)`` is the timed library work of one unit, ``check(inputs,
outputs)`` returns the names of the checks that failed, and
``digest(outputs)`` gives the bytes that traced and untraced runs must
reproduce exactly.  A run is a whole number of rounds of ``round_size``
units, so every run has the same mix of unit kinds.

Library functions are reached through their modules (``sg.schrodinger_apply``,
not a name imported here), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil

import numpy as np

from besselhardy import cli
from besselhardy import conditions as cond
from besselhardy import section as sc
from besselhardy import semigroup as sg
from besselhardy.grid import Grid, GridFunction
from besselhardy.measure import Interval, Potential, WeightedMeasure

M = WeightedMeasure(0.5)
V1 = Potential.constant(1.0)
VPOW = Potential.power(1.0, 1.0)

# Checks that fail at this commit because of the open max-principle defect of
# the discrete heat kernel (ROADMAP open item 1).  They still count in
# ``failed`` and fail_frac; only a failure outside this set marks a run as
# not correct.
KNOWN_OPEN = frozenset({"superharmonic.monotone", "superharmonic.bounded"})


def _bytes(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype=np.float64).tobytes() for a in arrays)


class SweepCold:
    """Time sweeps whose every leg has a new step size, so kernels are built cold.

    One round: ``check_superharmonic`` over 21 log-spaced u for each of the
    four test-14 profiles, one ``check_condition_D`` on a section interval,
    and one test-09 perturbation check at t near 0.5.  The u grids and t are
    scaled by seeded factors near 1, so sweeps do not share leg lengths; only
    the first two legs of a (D) check coincide.  The grid is the test-14
    construction at n = 900, where the 16-matrix cache holds 104 MB.
    """

    name = "sweep_cold"
    round_size = 6
    # p75 is the 5th of a round's 6 units: the slowest superharmonic sweep or
    # the perturbation check.  The maximum is that single ~7 s perturbation
    # unit; over ten seeds its spread reached 0.24 where p50's was 0.07.
    tail = 75.0

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.grid = Grid.build(M, 900, 44.0, 300.0, breakpoints=[k / 8 for k in range(1, 17)])
        sec1 = sc.build_section(M, V1, Interval(0.0, 4.0))
        self.secp = sc.build_section(M, VPOW, Interval(0.0, 8.0))
        self.profiles = [
            (V1, cond.find_balanced_J(M, V1, sec1.intervals[0])),
            (V1, cond.find_balanced_J(M, V1, sec1.intervals[1])),
            (VPOW, cond.find_balanced_J(M, VPOW, self.secp.intervals[1])),
            (VPOW, cond.find_balanced_J(M, VPOW, self.secp.intervals[5])),
        ]
        self.scheme = sg.SplittingScheme(steps_per_unit=16.0, min_steps=2)
        self.count = 0

    def draw(self):
        k = self.count % self.round_size
        self.count += 1
        rng = self.rng
        if k < 4:
            v, prof = self.profiles[k]
            jitter = math.exp(rng.uniform(-0.05, 0.05))
            us = prof.host.length**2 * np.exp(np.linspace(math.log(1e-3), math.log(100.0), 21)) * jitter
            return ("superharmonic", v, prof, us)
        if k == 4:
            intervals = self.secp.intervals
            d = intervals[int(rng.integers(len(intervals)))]
            # odd step counts keep D legs off the power-of-two times of other D units
            return ("D", d, int(rng.choice([7, 9, 11, 13, 15])))
        cuts = np.sort(rng.uniform(0.5, 5.0, 2))
        c = rng.uniform(0.0, 2.0, 3)
        v = Potential(
            pieces=(
                (0.0, float(cuts[0]), float(c[0])),
                (float(cuts[0]), float(cuts[1]), float(c[1])),
                (float(cuts[1]), 30.0, float(c[2])),
            )
        )
        # build cost depends on the leg lengths, so t stays near 0.5 (test 09
        # draws it from 0.2..0.8) to give every seed the same work
        t = 0.5 * math.exp(rng.uniform(-0.05, 0.05))
        x, y = float(rng.uniform(0.6, 3.2)), float(rng.uniform(0.6, 3.2))
        return ("perturbation", v, t, x, y)

    def compute(self, inputs):
        kind = inputs[0]
        if kind == "superharmonic":
            _, v, prof, us = inputs
            return cond.check_superharmonic(M, v, prof, prof.host.to_interval().center, us, self.grid, rel_slack=1e-6)
        if kind == "D":
            _, d, steps = inputs
            return cond.check_condition_D(M, VPOW, self.secp, self.grid, intervals=[d], n_max=8, steps_per_leg=steps)
        _, v, t, x, y = inputs
        coarse = sg.perturbation_residual(M, v, t, x, y, self.grid, s_steps=10, scheme=self.scheme)
        fine = sg.perturbation_residual(M, v, t, x, y, self.grid, s_steps=20, scheme=self.scheme)
        return coarse, fine

    def check(self, inputs, out) -> list[str]:
        kind = inputs[0]
        failed = []
        if kind == "superharmonic":
            if not out.monotone_ok:
                failed.append("superharmonic.monotone")
            if not out.bounded_ok:
                failed.append("superharmonic.bounded")
            if not inputs[2].balance_residual < 1e-10:
                failed.append("superharmonic.balance")
        elif kind == "D":
            if not out.passed:
                failed.append("D.passed")
        else:
            coarse, fine = out
            # the test-09 tolerance: Duhamel residual within 5x the s-quadrature
            # change plus 2e-3 of the kernel scale
            if not fine.residual < 5.0 * (abs(fine.rhs - coarse.rhs) + 2e-3 * fine.scale):
                failed.append("perturbation.tolerance")
        return failed

    def digest(self, inputs, out) -> bytes:
        kind = inputs[0]
        if kind == "superharmonic":
            return _bytes(out.thetas, out.truncation_bars, [out.phi_at_z])
        if kind == "D":
            return _bytes(*(e.values for e in out.entries))
        coarse, fine = out
        return _bytes([coarse.lhs, coarse.rhs, fine.lhs, fine.rhs])


class EvolveWarm:
    """The test-06 pattern on a warm cache: many dense matvecs per matrix.

    Each case draws a fresh 6-piece potential and fresh data, takes a time
    from an 8-value pool, runs ``schrodinger_apply`` and ``heat_evolve`` with
    the same steps, and checks nonnegativity, node-wise domination and L1(mu)
    contraction.  Every eighth unit is a constant-potential identity case.
    The pool times are seeded but lie in fixed step-count bins (2, 4, ..., 16
    steps), and a round uses each once, so every round does the same number
    of matvecs whatever the seed.  The 8 pool matrices are built during
    set-up, so the timed phase builds none.
    """

    name = "evolve_warm"
    round_size = 8
    # p90 falls among the 16-step cases, the slowest eighth of the units; p99
    # moved between 3 and 5.4 ms from run to run with host stalls
    tail = 90.0

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.grid = Grid.build(M, 420, 24.0, 80.0, breakpoints=[k / 2 for k in range(1, 9)])
        self.scheme = sg.SplittingScheme(steps_per_unit=16.0, min_steps=2)
        steps = np.arange(2, 17, 2)
        self.t_pool = (steps - self.rng.uniform(0.0, 1.0, steps.size)) / self.scheme.steps_per_unit
        ones = GridFunction.ones(self.grid)
        for t in self.t_pool:
            sg.heat_evolve(M, float(t), ones, self.scheme)
        self.count = 0

    def draw(self):
        k = self.count % self.round_size
        self.count += 1
        rng = self.rng
        if k == 0:
            self.order = rng.permutation(self.t_pool)
        n = len(self.grid)
        t = float(self.order[k])
        if k == self.round_size - 1:
            c = float(rng.uniform(0.3, 2.0))
            f = np.exp(-((self.grid.nodes - rng.uniform(0.5, 6.0)) ** 2))
            return ("identity", Potential.constant(c, (0.0, 100.0)), t, GridFunction(self.grid, f), c)
        f = GridFunction(self.grid, rng.uniform(0.0, 2.0, n))
        v = Potential(pieces=tuple((float(4 * i), float(4 * i + 4), float(rng.uniform(0.0, 3.0))) for i in range(6)))
        return ("domination", v, t, f, None)

    def compute(self, inputs):
        _, v, t, f, _ = inputs
        steps = self.scheme.steps_for(t)
        ks = sg.schrodinger_apply(M, v, t, f, self.scheme)
        ph = sg.heat_evolve(M, t, f, self.scheme, n_steps=steps)
        return ks, ph

    def check(self, inputs, out) -> list[str]:
        kind, _, t, f, c = inputs
        ks, ph = out
        if kind == "identity":
            rhs = math.exp(-c * t) * ph.values
            rel = np.max(np.abs(ks.values - rhs)) / np.max(np.abs(rhs))
            return [] if rel < 1e-10 else ["evolve.constant_identity"]
        failed = []
        if np.any(ks.values < 0.0):
            failed.append("evolve.nonnegative")
        if np.any(ks.values > ph.values):
            failed.append("evolve.domination")
        if not ks.l1() <= f.l1():
            failed.append("evolve.contraction")
        return failed

    def digest(self, inputs, out) -> bytes:
        return _bytes(out[0].values, out[1].values)


class CliAll:
    """``besselhardy all`` at the default config, run in-process via ``cli.main``.

    One unit is one full run into its own directory under ``out_root``.  Its
    CSV bodies must match the first unit's byte for byte.
    """

    name = "cli_all"
    round_size = 1
    tail = "max"

    def __init__(self, seed: int, out_root: str):
        self.seed = seed
        self.out_root = out_root
        self.count = 0
        self.reference: dict[str, bytes] | None = None

    def draw(self):
        self.count += 1
        return os.path.join(self.out_root, f"run{self.count}")

    def compute(self, out_dir):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["all", "--seed", str(self.seed), "--out", out_dir])
        csvs = {
            name: open(os.path.join(out_dir, name), "rb").read()
            for name in sorted(os.listdir(out_dir))
            if name.endswith(".csv")
        }
        with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        shutil.rmtree(out_dir)
        return code, summary, csvs

    def check(self, out_dir, out) -> list[str]:
        code, summary, csvs = out
        failed = []
        if code != 0:
            failed.append("cli.exit_code")
        if summary.get("all_passed") is not True:
            failed.append("cli.all_passed")
        if self.reference is None:
            self.reference = csvs
            if not csvs:
                failed.append("cli.csv_missing")
        elif csvs != self.reference:
            failed.append("cli.csv_identical")
        return failed

    def digest(self, out_dir, out) -> bytes:
        return b"".join(hashlib.sha256(name.encode() + body).digest() for name, body in out[2].items())


def make(name: str, seed: int, out_root: str):
    if name == "sweep_cold":
        return SweepCold(seed)
    if name == "evolve_warm":
        return EvolveWarm(seed)
    if name == "cli_all":
        return CliAll(seed, out_root)
    raise ValueError(f"unknown workload {name!r}")
