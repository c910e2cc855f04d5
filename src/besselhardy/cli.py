"""Command-line front end: per-module check suites with CSV artifacts.

Subcommands mirror the library modules: kernel, section, semigroup, hardy,
conditions, all.  Each suite writes CSV files plus a JSON summary into the
output directory and contributes pass/fail lines; a suite that stops on an
input error or an arithmetic one (an overflow) is recorded as a failed
``<suite>.error`` check.  The exit status is 0 only if every executed check
passed.  CSV bodies are byte-deterministic for a fixed configuration (seed
included); wall-clock timing lives only in the summary.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import conditions as cond
from . import hardy as hd
from . import kernel as kn
from . import section as sc
from . import semigroup as sg
from .errors import BesselHardyError, ConfigError
from .grid import Grid, GridFunction
from .measure import Interval, Potential, WeightedMeasure, load_potential, parse_potential
from .reports import write_csv, write_summary

# The names ``--tol NAME=VALUE`` may set: each is read by one check below.
TOLERANCE_NAMES = ("mass_quad", "mass", "const_potential", "mc_grid", "weak_identity")


@dataclass
class RunConfig:
    alpha: float = 0.5
    potential: Potential = field(default_factory=lambda: Potential.constant(1.0))
    potential_text: str = "piece 0 1024 1"
    window: Interval = field(default_factory=lambda: Interval(0.0, 4.0))
    grid_n: int = 320
    grid_xmax: float = 30.0
    grid_ratio: float = 60.0
    seed: int = 0
    out: Path = field(default_factory=lambda: Path("besselhardy-out"))
    tolerances: dict = field(default_factory=dict)

    def tol(self, name: str, default: float) -> float:
        return float(self.tolerances.get(name, default))

    @property
    def measure(self) -> WeightedMeasure:
        return WeightedMeasure(self.alpha)

    def echo(self) -> dict:
        return {
            "alpha": self.alpha,
            "potential": self.potential_text,
            "window": f"{self.window.a}:{self.window.b}",
            "grid": f"{self.grid_n}:{self.grid_xmax}:{self.grid_ratio}",
            "seed": self.seed,
            "out": str(self.out),
            "tolerances": dict(self.tolerances),
        }


def _numbers(text: str, flag: str, form: str) -> list[float]:
    """The ``:``-separated fields of ``text``, one finite number per field of ``form``; ``n`` an integer."""
    names = form.split(":")
    try:
        values = [float(part) for part in text.split(":")]
    except ValueError:
        values = []
    if len(values) != len(names) or not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{flag} expects {form} as finite numbers, got {text!r}")
    if any(v != int(v) for name, v in zip(names, values) if name == "n"):
        raise ConfigError(f"{flag} needs an integer n, got {text!r}")
    return values


def parse_config(argv: list[str]) -> tuple[str, RunConfig]:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--alpha", type=float, default=0.5)
    common.add_argument("--potential", type=str, default=None, help="inline directives, e.g. 'piece 0 8 1'")
    common.add_argument("--potential-file", type=str, default=None)
    common.add_argument("--window", type=str, default="0:4", help="lo:hi")
    common.add_argument("--grid", type=str, default="320:30:60", help="n:xmax:ratio")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", type=str, default="besselhardy-out")
    common.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE", help=", ".join(TOLERANCE_NAMES))

    parser = argparse.ArgumentParser(prog="besselhardy", description=__doc__)
    sub = parser.add_subparsers(dest="suite", required=True)
    for name in (*_RUNNERS, "all"):
        sub.add_parser(name, parents=[common])
    ns = parser.parse_args(argv)

    if not 0.0 < ns.alpha < math.inf:  # also rejects NaN
        raise ConfigError("--alpha must be positive and finite")
    if ns.seed < 0:
        raise ConfigError("--seed must be at least 0")
    lo, hi = _numbers(ns.window, "--window", "lo:hi")
    if not (0.0 <= lo < hi):
        raise ConfigError("--window must satisfy 0 <= lo < hi")
    grid_n, grid_xmax, grid_ratio = _numbers(ns.grid, "--grid", "n:xmax:ratio")
    if grid_n < 8 or grid_xmax <= hi or grid_ratio < 1.0:
        raise ConfigError("--grid needs n >= 8, xmax > window hi, ratio >= 1")

    if ns.potential and ns.potential_file:
        raise ConfigError("give only one of --potential / --potential-file")
    if ns.potential_file:
        try:
            potential = load_potential(ns.potential_file)
        except (OSError, UnicodeError) as exc:
            raise ConfigError(f"--potential-file: {exc}") from exc
        text = f"file:{ns.potential_file}"
    else:
        text = "piece 0 1024 1" if ns.potential is None else ns.potential
        potential = parse_potential(text, source="--potential")
    potential.validate_for(ns.alpha)

    tolerances = {}
    for item in ns.tol:
        name, sep, value = item.partition("=")
        name = name.strip()
        if not sep or name not in TOLERANCE_NAMES:
            raise ConfigError(f"--tol expects NAME=VALUE with NAME one of {', '.join(TOLERANCE_NAMES)}, got {item!r}")
        (tolerances[name],) = _numbers(value, f"--tol {name}", "value")
        if not tolerances[name] > 0.0:
            raise ConfigError(f"--tol {name} must be positive, got {value!r}")

    cfg = RunConfig(
        alpha=ns.alpha,
        potential=potential,
        potential_text=text,
        window=Interval(lo, hi),
        grid_n=int(grid_n),
        grid_xmax=grid_xmax,
        grid_ratio=grid_ratio,
        seed=ns.seed,
        out=Path(ns.out),
        tolerances=tolerances,
    )
    return ns.suite, cfg


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict
    seconds: float


def _timed(*checks) -> list[CheckResult]:
    """Run each ``(name, check)`` in order; ``check()`` returns ``(passed, details)``."""
    results = []
    for name, check in checks:
        t0 = time.perf_counter()
        passed, details = check()
        results.append(CheckResult(name, bool(passed), details, time.perf_counter() - t0))
    return results


def _grid_for(cfg: RunConfig, section=()) -> Grid:
    """The configured grid, with the ends of the ``section`` intervals as breakpoints."""
    ends = [p for d in section for p in (d.a, d.b)]
    return Grid.build(cfg.measure, cfg.grid_n, cfg.grid_xmax, cfg.grid_ratio, ends)


def run_kernel_suite(cfg: RunConfig) -> list[CheckResult]:
    m = cfg.measure

    def normalization():
        rows = []
        worst = 0.0
        for t in (0.1, 1.0, 10.0):
            for y in (0.5, 2.0):
                rep = kn.heat_kernel_mass_residual(m, t, y, cfg.tol("mass_quad", 1e-10))
                rows.append((cfg.alpha, t, y, rep.residual, rep.truncation_radius, rep.converged))
                worst = max(worst, rep.residual)
        write_csv(cfg.out / "kernel_normalization.csv", ["alpha", "t", "y", "residual", "radius", "converged"], rows)
        tol = cfg.tol("mass", 1e-8)
        return worst < tol, {"worst_residual": worst, "tol": tol}

    def gaussian_sandwich():
        gb = kn.gaussian_bound_constants(m, kn.SampleSpec(n_samples=2000, seed=cfg.seed))
        write_csv(
            cfg.out / "kernel_gaussian.csv",
            ["alpha", "C", "c_lower", "c_upper", "C_derivative", "n_samples"],
            [(cfg.alpha, gb.constant, gb.c_lower, gb.c_upper, gb.derivative_constant, gb.n_samples)],
        )
        return gb.ok, {"C": gb.constant, "c_lower": gb.c_lower, "c_upper": gb.c_upper, "C_derivative": gb.derivative_constant}

    return _timed(("kernel.normalization", normalization), ("kernel.gaussian_sandwich", gaussian_sandwich))


def run_section_suite(cfg: RunConfig) -> list[CheckResult]:
    m = cfg.measure

    def axioms():
        section = sc.build_section(m, cfg.potential, cfg.window)
        report = sc.validate_section(section, m, cfg.potential)
        rows = [
            (
                str(d),
                d.a,
                d.b,
                sc.s_functional(m, cfg.potential, d),
                sc.s_functional(m, cfg.potential, d.parent()),
            )
            for d in section
        ]
        write_csv(cfg.out / "section.csv", ["interval", "a", "b", "F", "F_parent"], rows)
        (cfg.out / "section.txt").write_text(section.to_text(), encoding="utf-8")
        details = {
            "intervals": len(section),
            "C0": report.c0_observed,
            "beta_bound": report.beta_bound,
            "stopping_ok": report.stopping_ok,
        }
        if not report.ok:
            details["overlap_witness"] = report.overlap_witness
            details["coverage_gaps"] = report.coverage_gaps
            details["stopping_witness"] = report.stopping_witness
        return report.ok, details

    return _timed(("section.axioms", axioms))


def run_semigroup_suite(cfg: RunConfig) -> list[CheckResult]:
    m = cfg.measure
    grid = _grid_for(cfg)
    rng = np.random.default_rng(cfg.seed)
    scheme = sg.SplittingScheme(steps_per_unit=16.0, min_steps=2)

    def domination_contraction():
        violations = 0
        for _ in range(8):
            center = rng.uniform(0.5, 0.7 * cfg.grid_xmax)
            width = rng.uniform(0.2, 1.0)
            f = GridFunction(grid, np.exp(-((grid.nodes - center) ** 2) / width**2))
            t = rng.uniform(0.05, 1.0)
            ks = sg.schrodinger_apply(m, cfg.potential, t, f, scheme)
            ph = sg.heat_evolve(m, t, f, scheme)
            if np.any(ks.values < 0.0) or np.any(ks.values > ph.values) or ks.l1() > f.l1():
                violations += 1
        return violations == 0, {"violations": violations}

    def constant_potential():
        c = 1.0
        t = 1.0
        f = GridFunction(grid, np.exp(-((grid.nodes - 1.0) ** 2)))
        const_pot = Potential.constant(c, (0.0, 4.0 * cfg.grid_xmax))
        lhs = sg.schrodinger_apply(m, const_pot, t, f, scheme)
        rhs = math.exp(-c * t) * sg.heat_evolve(m, t, f, scheme)
        rel = np.max(np.abs(lhs.values - rhs.values)) / max(np.max(np.abs(rhs.values)), 1e-300)
        tol_const = cfg.tol("const_potential", 1e-10)
        return rel < tol_const, {"rel_err": rel, "tol": tol_const}

    def feynman_kac_vs_grid():
        x0, t_mc = 1.0, 0.5
        n_paths, n_steps = 20000, 200

        def f(x):
            # not constant, so the paths' law matters and not only their weights
            return np.where(x <= 0.5, 1.0, 0.0)

        fk = sg.feynman_kac(m, cfg.potential, t_mc, x0, f, n_paths, n_steps, cfg.seed)
        col = sg.schrodinger_apply(m, cfg.potential, t_mc, GridFunction.from_callable(grid, f), scheme)
        grid_val = float(col.values[grid.index_of(x0)])
        gap = abs(fk.estimate - grid_val)
        tol_mc = 4.0 * fk.stderr + cfg.tol("mc_grid", 5e-3)
        write_csv(
            cfg.out / "semigroup_mc.csv",
            ["seed", "n_paths", "n_steps", "x0", "t", "estimate", "stderr", "grid_value"],
            [(fk.seed, fk.n_paths, fk.n_steps, x0, t_mc, fk.estimate, fk.stderr, grid_val)],
        )
        return gap <= tol_mc, {"gap": gap, "tol": tol_mc, "stderr": fk.stderr}

    return _timed(
        ("semigroup.domination_contraction", domination_contraction),
        ("semigroup.constant_potential", constant_potential),
        ("semigroup.feynman_kac_vs_grid", feynman_kac_vs_grid),
    )


def run_hardy_suite(cfg: RunConfig) -> list[CheckResult]:
    m = cfg.measure
    section = sc.build_section(m, cfg.potential, cfg.window, beta=1.2)
    grid = _grid_for(cfg, section)

    def local_atom_uniformity():
        rows = []
        norms = []
        for d in section:
            atom = hd.make_local_atom(grid, d.to_interval())
            res = hd.local_hardy_norm(m, Potential.zero(), atom.values, d.length, n_times=14)
            norms.append(res.value)
            rows.append((str(d), d.length, res.value, res.value_half_range, res.value_double_range))
        write_csv(
            cfg.out / "hardy_atoms.csv",
            ["interval", "length", "hardy_norm", "half_range", "double_range"],
            rows,
        )
        spread_ok = max(norms) < 10.0 * float(np.median(norms))
        return spread_ok, {"max": max(norms), "median": float(np.median(norms))}

    def resupport():
        rng = np.random.default_rng(cfg.seed + 1)
        beta = section.beta
        mid = section.intervals[len(section.intervals) // 2]
        host = mid.to_interval()
        psi = hd.make_cutoff(host, beta, grid)
        recon_worst = 0.0
        certificate_worst = 0.0
        rrows = []
        for i in range(5):
            width = rng.uniform(0.2, 1.0) * host.length
            left = rng.uniform(host.b - 0.5 * width, host.b + 0.2 * width)
            support = Interval(max(1e-6, left), left + width)
            atom = hd.make_mu_atom(grid, support)
            parts = hd.resupport_atom(atom, host, psi, beta)
            psi_a = np.asarray(psi(grid.nodes)) * atom.values.values
            recon = np.zeros(len(grid))
            for lam, piece in parts:
                hd.validate_atom(piece, beta)
                recon += lam * piece.values.values
            err = float(np.max(np.abs(recon - psi_a))) / max(float(np.max(np.abs(psi_a))), 1e-300)
            cert = float(sum(abs(lam) for lam, _ in parts))
            recon_worst = max(recon_worst, err)
            certificate_worst = max(certificate_worst, cert)
            rrows.append((i, support.a, support.b, len(parts), cert, err))
        write_csv(
            cfg.out / "hardy_resupport.csv",
            ["atom", "support_a", "support_b", "pieces", "sum_abs_lambda", "recon_rel_err"],
            rrows,
        )
        ok = recon_worst < 1e-12 and certificate_worst <= 10.0
        return ok, {"worst_recon": recon_worst, "worst_certificate": certificate_worst}

    return _timed(("hardy.local_atom_uniformity", local_atom_uniformity), ("hardy.resupport", resupport))


def _decay_check(rep, path: Path, header: list[str], cast=float):
    """Write one row per fitted point of ``rep``; ``cast`` converts the abscissa (D counts doublings)."""
    rows = [
        (e.label, cast(x), v, e.fitted_exponent, e.threshold, e.passed)
        for e in rep.entries
        for x, v in zip(e.xs, e.values)
    ]
    write_csv(path, header, rows)
    return rep.passed, {e.label: e.fitted_exponent for e in rep.entries}


def run_conditions_suite(cfg: RunConfig) -> list[CheckResult]:
    m = cfg.measure
    section = sc.build_section(m, cfg.potential, cfg.window)
    grid = _grid_for(cfg, section)

    def d_rate():
        rep = cond.check_condition_D(m, cfg.potential, section, grid, n_max=6)
        return _decay_check(rep, cfg.out / "conditions_D.csv", ["interval", "n", "mass", "slope", "threshold", "passed"], int)

    def k_rate():
        rep = cond.check_condition_K(m, cfg.potential, section, grid, t_count=5)
        return _decay_check(rep, cfg.out / "conditions_K.csv", ["interval", "t", "G", "delta", "threshold", "passed"])

    def superharmonic():
        host = section.intervals[min(1, len(section.intervals) - 1)]
        profile = cond.find_balanced_J(m, cfg.potential, host)
        z = host.to_interval().center
        u_grid = host.length**2 * np.geomspace(0.05, 64.0, 9)
        sup = cond.check_superharmonic(m, cfg.potential, profile, z, u_grid, grid)
        write_csv(
            cfg.out / "superharmonic.csv",
            ["u", "theta", "tail_bar", "phi_at_z"],
            [(u, th, bar, sup.phi_at_z) for u, th, bar in zip(sup.us, sup.thetas, sup.truncation_bars)],
        )
        bump = cond.SmoothBump(profile.balanced.a, profile.balanced.b)
        left = cond.LeftPlateauBump(0.25 * profile.balanced.a + 1e-3, profile.balanced.b)
        res_interior = cond.phi_equation_residual(profile, bump)
        res_boundary = cond.phi_equation_residual(profile, left)
        tol_weak = cfg.tol("weak_identity", 1e-8)
        ok = (
            sup.monotone_ok
            and sup.bounded_ok
            and profile.balance_residual < 1e-10
            and res_interior < tol_weak
            and res_boundary < tol_weak
        )
        return ok, {
            "balance_residual": profile.balance_residual,
            "worst_step": sup.worst_step,
            "weak_residual_interior": res_interior,
            "weak_residual_boundary": res_boundary,
        }

    return _timed(
        ("conditions.D_rate", d_rate),
        ("conditions.K_rate", k_rate),
        ("conditions.superharmonic", superharmonic),
    )


_RUNNERS = {
    "kernel": run_kernel_suite,
    "section": run_section_suite,
    "semigroup": run_semigroup_suite,
    "hardy": run_hardy_suite,
    "conditions": run_conditions_suite,
}

def run_suite(cfg: RunConfig, suite: str) -> int:
    names = list(_RUNNERS) if suite == "all" else [suite]
    cfg.out.mkdir(parents=True, exist_ok=True)
    all_results: list[CheckResult] = []
    start = time.time()
    for name in names:
        try:
            all_results.extend(_RUNNERS[name](cfg))
        except (BesselHardyError, ValueError, ArithmeticError) as exc:
            all_results.append(CheckResult(f"{name}.error", False, {"error": type(exc).__name__, "message": str(exc)}, 0.0))
    summary = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": cfg.echo(),
        "checks": [
            {"name": r.name, "passed": r.passed, "details": r.details, "seconds": round(r.seconds, 3)}
            for r in all_results
        ],
        "all_passed": all(r.passed for r in all_results),
        "total_seconds": round(time.time() - start, 3),
    }
    write_summary(cfg.out / "summary.json", summary)
    for r in all_results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name} ({r.seconds:.2f}s) {r.details}")
    return 0 if summary["all_passed"] else 1


def main(argv: list[str] | None = None) -> int:
    try:
        suite, cfg = parse_config(sys.argv[1:] if argv is None else argv)
    except BesselHardyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run_suite(cfg, suite)


if __name__ == "__main__":
    sys.exit(main())
