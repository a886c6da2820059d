"""End-to-end validation suite: measured behavior against fixed reference
numbers and tolerances.

Each check returns a CheckResult; the CLI `validate` subcommand prints one
pass/fail line per check and the pytest acceptance module asserts them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import coefficient_c1_of_0, zero_loci
from .core import PulseSpec, RotorBasis, build_cos2_matrix
from .propagate import converge_basis, delta_kick, propagate_ode, propagate_spectral
from .sweep import (SweepGrid, axis, detect_surface_minima, evaluate_point, evaluate_points,
                    fit_minima_line, run_sweep)

# Reference drop positions and analytic loci for P = 1.5.
DROPS_P15_J0 = (3.044, 6.234, 9.393)
LOCI_J0_P15 = (3.022, 6.224, 9.384)
LOCI_J1_P15 = (1.523, 3.113, 4.693, 6.269)
MINIMA_LINE_SLOPE = 0.577


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __post_init__(self):
        self.passed = bool(self.passed)     # a check's comparisons may give a numpy bool

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


def _fmt(vals) -> str:
    return "[" + ", ".join(f"{v:.4f}" for v in vals) + "]"


def sweep_fig2() -> "SweepResult":
    """The reference sweep: P=1.5, sigma 0.005..10 step 0.005, J0=0, auto basis."""
    grid = SweepGrid.from_ranges(1.5, 0.005, 10.0, 0.005, j0=0)
    return run_sweep(grid)


def check_drop_positions(result) -> CheckResult:
    drops = [s for _, s, _ in result.drop_loci]
    ok = (len(drops) == len(DROPS_P15_J0)
          and all(abs(d - ref) <= 0.01 for d, ref in zip(drops, DROPS_P15_J0)))
    return CheckResult(
        "drop positions (P=1.5, J0=0)", ok,
        f"detected {_fmt(drops)}, expected {_fmt(DROPS_P15_J0)} +- 0.01")


def check_analytic_loci() -> CheckResult:
    got0 = [z.sigma_exact for z in zero_loci(0, 1.5, 3)]
    got1 = [z.sigma_exact for z in zero_loci(1, 1.5, 4)]
    ok = (len(got0) == 3 and len(got1) == 4
          and all(abs(g - r) <= 0.001 for g, r in zip(got0, LOCI_J0_P15))
          and all(abs(g - r) <= 0.001 for g, r in zip(got1, LOCI_J1_P15)))
    return CheckResult(
        "analytic zero loci (P=1.5)", ok,
        f"J0=0 {_fmt(got0)} vs {_fmt(LOCI_J0_P15)}; "
        f"J0=1 {_fmt(got1)} vs {_fmt(LOCI_J1_P15)}; tolerance 0.001")


def check_root_existence() -> CheckResult:
    ns = {z.n for z in zero_loci(0, 10.0, 4)}
    ok = 1 not in ns and 2 in ns
    return CheckResult("root existence cutoff (P=10, J0=0)", ok,
                       f"root indices {sorted(ns)}; need n=1 absent, n=2 present")


def check_delta_kick_limit() -> CheckResult:
    worst = 0.0
    energy_err = 0.0
    for p in (0.5, 1.5, 3.0):
        for j0 in (0, 1, 2):
            rec = evaluate_point(p, 0.005, j0)
            kick = np.abs(delta_kick(p, j0, RotorBasis(j_max=rec.j_max)).coefficients) ** 2
            worst = max(worst, float(np.max(np.abs(rec.populations - kick))))
            if j0 == 0:
                ref = 2.0 * p * p / 3.0
                energy_err = max(energy_err, abs(rec.energy - ref) / ref)
    ok = worst <= 1e-3 and energy_err <= 0.01
    return CheckResult(
        "delta-kick limit (sigma=0.005)", ok,
        f"max population deviation {worst:.2e} (tol 1e-3), "
        f"max relative energy error {energy_err:.2e} (tol 1e-2)")


def check_adiabatic_limit() -> CheckResult:
    details = []
    ok = True
    for j0 in (0, 1, 2):
        rec = evaluate_point(1.5, 10.0, j0)
        pop, e = rec.populations[j0], rec.energy
        ok &= pop > 0.99 and abs(e - j0 * (j0 + 1)) < 0.05
        details.append(f"J0={j0}: pop {pop:.4f}, E {e:.4f}")
    return CheckResult("adiabatic limit (sigma=10, P=1.5)", ok,
                       "; ".join(details) + " (need pop>0.99, |E - J0(J0+1)|<0.05)")


def check_drop_cooccurrence(result) -> CheckResult:
    worst_ori = 0.0
    worst_ali = 0.0
    for _, sigma, _ in result.drop_loci:
        for j0 in (0, 1, 2):
            rec = evaluate_point(1.5, sigma, j0)
            ref_align = build_cos2_matrix(RotorBasis(j_max=j0 + 2)).entries[j0, j0]
            worst_ori = max(worst_ori, abs(rec.orientation))
            worst_ali = max(worst_ali, abs(rec.alignment - ref_align))
    ok = worst_ori < 0.02 and worst_ali < 0.05
    return CheckResult(
        "drop / orientation co-occurrence", ok,
        f"max |orientation| {worst_ori:.4f} (tol 0.02), "
        f"max alignment deviation {worst_ali:.4f} (tol 0.05)")


def check_method_cross_validation(seed: int = 12345) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst_diff = 0.0
    worst_drift = 0.0
    for _ in range(20):
        p = float(rng.uniform(0.0, 10.0))
        sigma = float(rng.uniform(0.01, 10.0))
        pulse = PulseSpec(strength=p, sigma=sigma)
        basis = converge_basis(pulse, 0)
        spec = propagate_spectral(pulse, 0, basis)
        ode = propagate_ode(pulse, 0, basis, steps=100_000)
        worst_diff = max(worst_diff, float(np.max(np.abs(
            spec.final.coefficients - ode.final.coefficients))))
        worst_drift = max(worst_drift, spec.norm_drift)
    ok = worst_diff <= 1e-8 and worst_drift < 1e-12
    return CheckResult(
        "spectral vs RK4 cross-validation", ok,
        f"max coefficient difference {worst_diff:.2e} (tol 1e-8), "
        f"max spectral norm drift {worst_drift:.2e} (tol 1e-12)")


def check_two_level_fidelity() -> CheckResult:
    # amplitude agreement for weak pulses
    worst = 0.0
    sigmas = axis("sigma", 2.0, 10.0, 0.05)
    for p in (0.5, 1.5):
        for sigma, rec in zip(sigmas, evaluate_points([p] * len(sigmas), sigmas, 0)):
            c1_two = abs(coefficient_c1_of_0(PulseSpec(strength=p, sigma=sigma)))
            worst = max(worst, abs(rec.coeff_abs[1] - c1_two))
    # drop-position agreement for stronger pulses
    worst_pos = 0.0
    for p in (3.0, 5.0):
        grid = SweepGrid.from_ranges(p, 2.0, 10.0, 0.005, j0=0)
        res = run_sweep(grid)
        roots = [z.sigma_exact for z in zero_loci(0, p, 5) if z.sigma_exact >= 2.0]
        for _, sigma, _ in res.drop_loci:
            worst_pos = max(worst_pos, min(abs(sigma - r) for r in roots))
    ok = worst < 0.02 and worst_pos < 0.1
    return CheckResult(
        "two-level fidelity", ok,
        f"max |C1| deviation {worst:.4f} (tol 0.02) for P in {{0.5, 1.5}}; "
        f"max drop-position offset {worst_pos:.4f} (tol 0.1) for P in {{3, 5}}")


def check_hybridization_symmetry() -> CheckResult:
    worst = 0.0
    for sigma in (3.0, 6.0):
        j_max = max(evaluate_point(1.5, sigma, j0).j_max for j0 in range(4))
        mags = np.stack([evaluate_point(1.5, sigma, j0, j_max=j_max).coeff_abs[:4]
                         for j0 in range(4)])
        worst = max(worst, float(np.max(np.abs(mags - mags.T))))
    ok = worst <= 1e-10
    return CheckResult("hybridization symmetry |C^m_n| = |C^n_m|", ok,
                       f"max asymmetry {worst:.2e} (tol 1e-10)")


def check_surface_structure() -> CheckResult:
    step = 0.05
    grid = SweepGrid(p_values=axis("P", 0.5, 10.0, step),
                     sigma_values=axis("sigma", 0.5, 10.0, step), j0=0)
    res = run_sweep(grid)
    minima = detect_surface_minima(res)
    if not minima:
        return CheckResult("surface minima structure", False, "no minima detected")
    worst = 0.0
    for p, sigma, _ in minima:
        loci = zero_loci(0, p, 10)
        worst = max(worst, min(abs(sigma - z.sigma_exact) for z in loci))
    fit = fit_minima_line([(p, s) for p, s, _ in minima])
    ok = worst <= 2 * step + 1e-12 and abs(fit.slope - MINIMA_LINE_SLOPE) <= 0.05
    return CheckResult(
        "surface minima structure", ok,
        f"{len(minima)} minima; max distance to a parabola {worst:.4f} "
        f"(tol {2 * step:g}); fitted slope {fit.slope:.4f} "
        f"(expected {MINIMA_LINE_SLOPE} +- 0.05)")


def check_drop_spacing(result) -> CheckResult:
    drops = [s for _, s, _ in result.drop_loci]
    spacings = [b - a for a, b in zip(drops, drops[1:])]
    ok = bool(spacings) and all(math.pi < d < math.pi + 0.15 for d in spacings)
    return CheckResult(
        "drop spacing", ok,
        f"spacings {_fmt(spacings)}; required in (pi, pi + 0.15) = "
        f"({math.pi:.4f}, {math.pi + 0.15:.4f})")


def run_acceptance(quick: bool = False, seed: int = 12345) -> list[CheckResult]:
    """Run all acceptance checks; `quick` skips the surface scan."""
    fig2 = sweep_fig2()
    checks = [
        check_drop_positions(fig2),
        check_analytic_loci(),
        check_root_existence(),
        check_delta_kick_limit(),
        check_adiabatic_limit(),
        check_drop_cooccurrence(fig2),
        check_method_cross_validation(seed=seed),
        check_two_level_fidelity(),
        check_hybridization_symmetry(),
    ]
    if not quick:
        checks.append(check_surface_structure())
    checks.append(check_drop_spacing(fig2))
    return checks
