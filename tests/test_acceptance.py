"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance is pinned here; nothing is deferred to later calibration.
"""

import math
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

from besselhardy import (
    GridFunction,
    Interval,
    Potential,
    SampleSpec,
    SplittingScheme,
    WeightedMeasure,
    brute_force_section,
    build_section,
    check_condition_D,
    check_condition_K,
    check_superharmonic,
    feynman_kac,
    find_balanced_J,
    gaussian_bound_constants,
    heat_evolve,
    heat_kernel_mass_residual,
    local_hardy_norm,
    make_cutoff,
    make_local_atom,
    make_mu_atom,
    phi_equation_residual,
    resupport_atom,
    schrodinger_apply,
    validate_atom,
    validate_section,
)
from besselhardy.bessel import SERIES_ASYM_SEAM, bessel_i_scaled
from besselhardy.cli import main as cli_main
from besselhardy.conditions import LeftPlateauBump, SmoothBump
from besselhardy.grid import Grid
from besselhardy.hardy import AtomKind
from besselhardy.section import DyadicInterval, s_functional
from conftest import seam_branches

M = WeightedMeasure(0.5)
V1 = Potential.constant(1.0)
VPOW = Potential.power(1.0, 1.0)


def report(num: int, name: str, passed: bool, elapsed: float, budget: float, detail: str) -> None:
    status = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status} {name} [{elapsed:.1f}s / {budget:.0f}s] {detail}")
    assert passed, detail
    assert elapsed < budget, f"runtime {elapsed:.1f}s exceeded {budget}s"


@pytest.fixture(scope="module")
def section_v1():
    return build_section(M, V1, Interval(0.0, 4.0))


@pytest.fixture(scope="module")
def section_pow():
    return build_section(M, VPOW, Interval(0.0, 8.0))


@pytest.fixture(scope="module")
def grid_pow(section_pow):
    breaks = sorted({d.b for d in section_pow} | {d.a for d in section_pow} - {0.0})
    return Grid.build(M, 480, 20.0, 80.0, breakpoints=breaks)


def test_01_kernel_normalization():
    t0 = time.perf_counter()
    worst = 0.0
    all_ok = True
    for alpha in (0.3, 0.5, 0.7, 1.0, 2.0):
        m = WeightedMeasure(alpha)
        for t in (0.01, 0.1, 1.0, 10.0, 100.0):
            for y in (0.1, 1.0, 10.0):
                rep = heat_kernel_mass_residual(m, t, y)
                worst = max(worst, rep.residual)
                all_ok = all_ok and rep.converged and rep.residual < 1e-8
    report(1, "kernel normalization", all_ok, time.perf_counter() - t0, 30.0, f"worst residual {worst:.2e}")


def test_02_bessel_oracle():
    t0 = time.perf_counter()
    mpmath.mp.dps = 30
    zs = np.geomspace(1e-6, 700.0, 500)
    worst = 0.0
    for order in (0.5, 1.5):
        got = bessel_i_scaled(order, zs)
        for i, z in enumerate(zs):
            zm = mpmath.mpf(float(z))
            pref = mpmath.sqrt(2.0 / (mpmath.pi * zm)) * mpmath.exp(-zm)
            if order == 0.5:
                want = pref * mpmath.sinh(zm)
            else:
                want = pref * (mpmath.cosh(zm) - mpmath.sinh(zm) / zm)
            worst = max(worst, abs(got[i] - float(want)) / float(want))
    seam_worst = 0.0
    for order in (-0.45, -0.25, 0.0, 0.5, 1.5, 2.0, 4.5):
        s, a = seam_branches(order, SERIES_ASYM_SEAM)
        seam_worst = max(seam_worst, float(abs(s[0] - a[0]) / a[0]))
    ok = worst < 1e-12 and seam_worst < 1e-12
    report(2, "scaled Bessel oracle", ok, time.perf_counter() - t0, 5.0, f"closed-form err {worst:.2e}, seam jump {seam_worst:.2e}")


def test_03_gaussian_sandwich():
    t0 = time.perf_counter()
    rep = gaussian_bound_constants(M, SampleSpec(n_samples=10_000, seed=0))
    ok = rep.ok
    report(
        3,
        "Gaussian sandwich + derivative bound",
        ok,
        time.perf_counter() - t0,
        60.0,
        f"C={rep.constant:.3f}, c_lower={rep.c_lower:.2f}, c_upper={rep.c_upper:.2f}, C'={rep.derivative_constant:.2f}",
    )


def test_04_gamma_monotonicity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    ok = True
    for _ in range(1000):
        m = WeightedMeasure(rng.uniform(0.02, 0.98))
        a = rng.uniform(0.0, 10.0)
        b = a + rng.uniform(0.0, 4.0)
        c = b + rng.uniform(1e-4, 4.0)
        d = c + rng.uniform(0.0, 4.0)
        ok = ok and m.gamma_ratio(b, c) <= m.gamma_ratio(a, d)
    report(4, "Gamma nested monotonicity (exact closed forms)", ok, time.perf_counter() - t0, 1.0, "1000 quadruples")


def test_05_section_construction(section_v1, section_pow):
    t0 = time.perf_counter()
    expected = [DyadicInterval(-1, k) for k in range(0, 8)]
    ok = True
    built = build_section(M, V1, Interval(0.0, 4.0))
    ok = ok and list(built.intervals) == expected
    ok = ok and list(built.intervals) == brute_force_section(M, V1, Interval(0.0, 4.0), -6, 4)
    suite = [(V1, section_v1), (VPOW, section_pow)]
    rng = np.random.default_rng(5)
    for _ in range(6):
        cuts = np.sort(rng.uniform(0.0, 8.0, 2))
        v = Potential(
            pieces=(
                (0.0, float(cuts[0]), float(rng.uniform(0.1, 10.0))),
                (float(cuts[0]), float(cuts[1]), float(rng.uniform(0.1, 10.0))),
                (float(cuts[1]), 8.0, float(rng.uniform(0.1, 10.0))),
            )
        )
        suite.append((v, build_section(M, v, Interval(0.0, 8.0))))
    n_checked = 0
    for v, sec in suite:
        for d in sec:
            f_here = s_functional(M, v, d)
            f_up = s_functional(M, v, d.parent())
            ok = ok and f_here <= 1.0 < f_up
            n_checked += 1
        ok = ok and validate_section(sec, M, v).ok
    report(5, "stopping-time section construction", ok, time.perf_counter() - t0, 5.0, f"{n_checked} stopping rechecks")


def test_06_domination_and_contraction(grid_half):
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    t_pool = rng.uniform(0.02, 1.0, 8)  # reuse kernel matrices across cases
    scheme = SplittingScheme(steps_per_unit=16.0, min_steps=2)
    ok = True
    for _ in range(1000):
        f = GridFunction(grid_half, rng.uniform(0.0, 2.0, len(grid_half)))
        v = Potential(
            pieces=tuple((float(4 * i), float(4 * i + 4), float(rng.uniform(0.0, 3.0))) for i in range(6))
        )
        t = float(rng.choice(t_pool))
        steps = scheme.steps_for(t)
        ks = schrodinger_apply(M, v, t, f, scheme)
        ph = heat_evolve(M, t, f, scheme, n_steps=steps)
        ok = ok and np.all(ks.values >= 0.0) and np.all(ks.values <= ph.values) and ks.l1() <= f.l1()
        if not ok:
            break
    report(6, "domination and L1 contraction (exact, node-wise)", ok, time.perf_counter() - t0, 60.0, "1000 randomized cases")


def test_07_constant_potential_oracle(grid_half):
    t0 = time.perf_counter()
    c, t = 0.9, 0.7
    scheme = SplittingScheme(steps_per_unit=16.0, min_steps=2)
    f = GridFunction(grid_half, np.exp(-((grid_half.nodes - 1.5) ** 2)))
    ks = schrodinger_apply(M, Potential.constant(c, (0.0, 100.0)), t, f, scheme)
    ph = math.exp(-c * t) * heat_evolve(M, t, f, scheme)
    rel = float(np.max(np.abs(ks.values - ph.values)) / np.max(ph.values))
    # every path weight is identical, so stderr collapses to summation
    # rounding; the 1e-12 floor absorbs the deterministic float accumulation
    res = feynman_kac(M, Potential.constant(c, (0.0, 1e6)), t, 1.0, lambda x: np.ones_like(x), 100_000, 64, seed=7)
    fk_gap = abs(res.estimate - math.exp(-c * t))
    ok = rel < 1e-10 and fk_gap <= 3.0 * res.stderr + 1e-12
    report(
        7,
        "constant-potential oracle",
        ok,
        time.perf_counter() - t0,
        60.0,
        f"splitting rel err {rel:.2e}; MC gap {fk_gap:.2e} (stderr {res.stderr:.1e})",
    )


def test_08_mc_grid_cross_validation(grid_half):
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    scheme = SplittingScheme(steps_per_unit=16.0, min_steps=2)
    ok = True
    worst = -math.inf  # the largest gap - bound; negative when every case passes
    for _ in range(10):
        cuts = np.sort(rng.uniform(0.5, 6.0, 2))
        v = Potential(
            pieces=(
                (0.0, float(cuts[0]), float(rng.uniform(0.0, 2.5))),
                (float(cuts[0]), float(cuts[1]), float(rng.uniform(0.0, 2.5))),
                (float(cuts[1]), 30.0, float(rng.uniform(0.0, 2.5))),
            )
        )
        t = float(rng.uniform(0.2, 1.0))
        x0 = float(grid_half.nodes[grid_half.index_of(rng.uniform(0.6, 3.0))])
        center = float(rng.uniform(1.0, 3.0))
        f = lambda x, c=center: np.exp(-((x - c) ** 2))  # noqa: E731
        res = feynman_kac(M, v, t, x0, f, 40_000, 250, seed=int(rng.integers(1 << 30)))
        gf = GridFunction.from_callable(grid_half, f)
        steps = scheme.steps_for(t)
        val = float(schrodinger_apply(M, v, t, gf, scheme).values[grid_half.index_of(x0)])
        refined = float(schrodinger_apply(M, v, t, gf, n_steps=2 * steps).values[grid_half.index_of(x0)])
        grid_tol = abs(val - refined) + 1e-3
        gap = abs(res.estimate - val)
        worst = max(worst, gap - 3.0 * res.stderr - 2.0 * grid_tol)
        ok = ok and gap <= 3.0 * res.stderr + 2.0 * grid_tol
    report(8, "Feynman-Kac vs grid cross-validation", ok, time.perf_counter() - t0, 300.0, f"worst margin {worst:.2e}")


def test_09_perturbation_formula(grid_half):
    from besselhardy import perturbation_residual

    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    scheme = SplittingScheme(steps_per_unit=16.0, min_steps=2)
    ok = True
    for _ in range(20):
        cuts = np.sort(rng.uniform(0.5, 5.0, 2))
        v = Potential(
            pieces=(
                (0.0, float(cuts[0]), float(rng.uniform(0.0, 2.0))),
                (float(cuts[0]), float(cuts[1]), float(rng.uniform(0.0, 2.0))),
                (float(cuts[1]), 30.0, float(rng.uniform(0.0, 2.0))),
            )
        )
        t = float(rng.uniform(0.2, 0.8))
        x = float(rng.uniform(0.6, 3.2))
        y = float(rng.uniform(0.6, 3.2))
        coarse = perturbation_residual(M, v, t, x, y, grid_half, s_steps=10, scheme=scheme)
        fine = perturbation_residual(M, v, t, x, y, grid_half, s_steps=20, scheme=scheme)
        combined_tol = abs(fine.rhs - coarse.rhs) + 2e-3 * fine.scale
        ok = ok and fine.residual < 5.0 * combined_tol
    report(9, "perturbation-formula consistency", ok, time.perf_counter() - t0, 120.0, "20 randomized (x, y, t, V)")


def test_10_local_atom_uniform_bound(section_v1, section_pow, grid_half, grid_pow):
    t0 = time.perf_counter()
    ok = True
    detail = []
    for sec, grid in ((section_v1, grid_half), (section_pow, grid_pow)):
        norms = []
        for d in sec:
            atom = make_local_atom(grid, d.to_interval())
            res = local_hardy_norm(M, Potential.zero(), atom.values, d.length, n_times=14)
            norms.append(res.value)
        spread = max(norms) / float(np.median(norms))
        detail.append(f"max={max(norms):.3f} median={float(np.median(norms)):.3f} spread={spread:.2f}")
        ok = ok and max(norms) < 10.0 * float(np.median(norms))
    report(10, "local-atom Hardy norms uniform over sections", ok, time.perf_counter() - t0, 180.0, "; ".join(detail))


def test_11_resupport_decomposition(grid_half):
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    host = Interval(1.0, 1.5)
    beta = 1.2
    psi = make_cutoff(host, beta, grid_half)
    psi_nodes = np.asarray(psi(grid_half.nodes))
    worst_recon = 0.0
    worst_cert = 0.0
    ok = True
    n_emitted = 0
    for _ in range(100):
        width = rng.uniform(0.08, 1.5) * host.length
        left = rng.uniform(host.b - 0.7 * width, host.b + 0.7 * width)
        atom = make_mu_atom(grid_half, Interval(max(1e-4, left), left + width))
        parts = resupport_atom(atom, host, psi, beta)
        psi_a = psi_nodes * atom.values.values
        recon = np.zeros(len(grid_half))
        for lam, piece in parts:
            validate_atom(piece, beta)
            ok = ok and (piece.kind in (AtomKind.CANCELLATIVE, AtomKind.LOCAL) or piece is atom)
            recon += lam * piece.values.values
            n_emitted += 1
        scale = max(float(np.max(np.abs(psi_a))), 1e-300)
        err = float(np.max(np.abs(recon - psi_a))) / scale
        cert = float(sum(abs(lam) for lam, _ in parts))
        worst_recon = max(worst_recon, err)
        worst_cert = max(worst_cert, cert)
        ok = ok and err < 1e-12 and cert <= 10.0
    report(
        11,
        "re-supporting decomposition",
        ok,
        time.perf_counter() - t0,
        30.0,
        f"worst recon {worst_recon:.1e}; max sum|lambda| {worst_cert:.2f}; {n_emitted} atoms emitted",
    )


@pytest.fixture(scope="module")
def d_k_sections():
    out = {}
    for alpha in (0.3, 0.5, 0.7):
        m = WeightedMeasure(alpha)
        sec = build_section(m, V1, Interval(0.0, 4.0))
        grid = Grid.build(m, 900, 70.0, 300.0, breakpoints=[k / 2 for k in range(1, 9)])
        out[alpha] = (m, sec, grid)
    return out


def test_12_condition_D_rate(d_k_sections):
    t0 = time.perf_counter()
    ok = True
    detail = []
    for alpha, (m, sec, grid) in d_k_sections.items():
        rep = check_condition_D(m, V1, sec, grid, n_max=8)
        slopes = [e.fitted_exponent for e in rep.entries]
        detail.append(f"a={alpha}: slope<= {max(slopes):.2f} (thr {-(1-alpha)/2+0.1:.2f})")
        ok = ok and rep.passed
    report(12, "condition (D) decay rate", ok, time.perf_counter() - t0, 600.0, "; ".join(detail))


def test_13_condition_K_rate(d_k_sections):
    t0 = time.perf_counter()
    ok = True
    detail = []
    for alpha, (m, sec, grid) in d_k_sections.items():
        rep = check_condition_K(m, V1, sec, grid, t_count=6)
        deltas = [round(e.fitted_exponent, 2) for e in rep.entries]
        detail.append(f"a={alpha}: deltas {deltas}")
        ok = ok and rep.passed
    report(13, "condition (K) interaction rate", ok, time.perf_counter() - t0, 600.0, "; ".join(detail))


def test_14_superharmonicity():
    t0 = time.perf_counter()
    grid = Grid.build(M, 1400, 44.0, 300.0, breakpoints=[k / 8 for k in range(1, 17)])
    sec1 = build_section(M, V1, Interval(0.0, 4.0))
    secp = build_section(M, VPOW, Interval(0.0, 8.0))
    profiles = [
        (V1, find_balanced_J(M, V1, sec1.intervals[0])),
        (V1, find_balanced_J(M, V1, sec1.intervals[1])),
        (VPOW, find_balanced_J(M, VPOW, secp.intervals[1])),
        (VPOW, find_balanced_J(M, VPOW, secp.intervals[5])),
    ]
    failures = []
    worst_step = 0.0
    worst_weak = 0.0
    for v, prof in profiles:
        host = prof.host.to_interval()
        z = host.center
        us = prof.host.length ** 2 * np.exp(np.linspace(math.log(1e-3), math.log(100.0), 21))
        rep = check_superharmonic(M, v, prof, z, us, grid, rel_slack=1e-6)
        worst_step = max(worst_step, rep.worst_step)
        j = prof.balanced
        interior = phi_equation_residual(prof, SmoothBump(max(j.a - 0.1, 0.02), j.b + 0.3))
        boundary = phi_equation_residual(prof, LeftPlateauBump(0.02, j.b))
        worst_weak = max(worst_weak, interior, boundary)
        flags = {
            "monotone": rep.monotone_ok,
            "bounded": rep.bounded_ok,
            "balance": prof.balance_residual < 1e-10,
            "weak residual": interior < 1e-8 and boundary < 1e-8,
        }
        failed = [name for name, passed in flags.items() if not passed]
        if failed:
            excess = float(np.max(rep.thetas)) / rep.phi_at_z - 1.0
            failures.append(f"{prof.host} failed {', '.join(failed)} (max theta/phi(z) - 1 = {excess:.1e})")
    report(
        14,
        "superharmonic profiles: monotone theta and weak identity",
        not failures,
        time.perf_counter() - t0,
        300.0,
        f"worst step increase {worst_step:.1e}; worst weak residual {worst_weak:.1e}"
        + "".join(f"; {line}" for line in failures),
    )


def test_15_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    args = ["all", "--alpha", "0.5", "--potential", "piece 0 1024 1", "--window", "0:4", "--seed", "3"]
    outs = []
    codes = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        codes.append(cli_main(args + ["--out", str(out)]))
        outs.append(out)
    csvs1 = sorted(p.name for p in outs[0].glob("*.csv"))
    csvs2 = sorted(p.name for p in outs[1].glob("*.csv"))
    ok = codes == [0, 0] and csvs1 == csvs2 and len(csvs1) > 0
    for name in csvs1:
        ok = ok and (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    report(15, "CLI determinism (byte-identical CSV bodies)", ok, time.perf_counter() - t0, 600.0, f"{len(csvs1)} CSV files compared")
