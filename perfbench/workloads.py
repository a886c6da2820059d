"""The four workloads.  Each makes its inputs from the seed, runs one pass of
the same operations each time it is asked, and checks the outputs of its last
pass.  rotorkick is always called through module attributes looked up at call
time, so a tracer that replaces those attributes sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import checks


@dataclass
class Pass:
    wall_s: float
    call_s: list[float]          # latency of each timed call in the pass
    attempted: int
    failed: int
    findings: list[str] = field(default_factory=list)   # faults seen while running


def _range_args(flag: str, lo: float, n: int, step: float = 0.05) -> list[str]:
    hi = round(lo + (n - 1) * step, 10)
    return [f"--{flag}-min", repr(lo), f"--{flag}-max", repr(hi), f"--{flag}-step", repr(step)]


class CliSweep:
    """A sweep as a user runs it: rotorkick.cli.main with the program's defaults."""

    sample_size = 40

    def __init__(self, argv: list[str], warm_argv: list[str], n_points: int,
                 first_point: tuple[float, float, int], seed: int, workdir: Path,
                 drops_at_p: float | None = None):
        self.argv, self.warm_argv = argv, warm_argv
        self.first_point = first_point
        self.n_points = n_points
        self.drops_at_p = drops_at_p
        self.workdir = workdir
        self.out = workdir / "out"
        self.sample = checks.sample_indices(np.random.default_rng(seed), n_points, self.sample_size)

    def _call(self, argv: list[str]) -> tuple[int, float]:
        import rotorkick.cli
        shutil.rmtree(self.out, ignore_errors=True)
        argv = argv + ["--out", str(self.out)]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            rc = rotorkick.cli.main(argv)
            return rc, perf_counter() - t0

    def warm_up(self) -> None:
        self._call(self.warm_argv)

    def run_pass(self) -> Pass:
        rc, wall = self._call(self.argv)
        failures = self.out / "failures.json"
        if failures.exists():
            failed = len(json.loads(failures.read_text()))
        else:
            failed = 0 if rc == 0 else self.n_points
        findings = [] if rc == 0 else [f"rotorkick sweep exited with code {rc}"]
        return Pass(wall, [wall], self.n_points, failed, findings)

    def check(self) -> list[str]:
        if not ((self.out / "records.csv").is_file() and (self.out / "records.json").is_file()):
            return ["the sweep wrote no records.csv or no records.json"]
        out = checks.read_sweep(self.out)
        findings = checks.check_sweep(out, self.sample)
        if self.drops_at_p is not None:
            findings += checks.check_drops(out["json"], self.drops_at_p)
            plots = ("energy_vs_sigma", "coeffs_vs_sigma", "orientation", "alignment")
        else:
            findings += checks.check_minima(out)
            plots = ("surface_heatmap",)
        for plot in plots:
            path = self.out / f"{plot}.svg"
            if not (path.exists() and path.read_text().rstrip().endswith("</svg>")):
                findings.append(f"{plot}.svg is missing or incomplete")
        return findings


def fig2(seed: int, workdir: Path) -> CliSweep:
    """The paper's reference sweep: P = 1.5, sigma 0.005..10 step 0.005 (2000 points)."""
    fmt = ["--formats", "csv,json,svg"]
    argv = ["sweep", "--P", "1.5", "--sigma-min", "0.005", "--sigma-max", "10",
            "--sigma-step", "0.005"] + fmt
    warm = ["sweep", "--P", "1.5", "--sigma-min", "0.05", "--sigma-max", "2",
            "--sigma-step", "0.05"] + fmt
    return CliSweep(argv, warm, 2000, (1.5, 0.005, 0), seed, workdir, drops_at_p=1.5)


# A 64 x 64 block of criterion 10's 191 x 191 surface (P and sigma in
# [0.5, 10], step 0.05): the whole surface takes about 20 s a pass, too long
# for several passes in one run.  This block (P 4.1..7.25, sigma 5.7..8.85)
# holds five minima on two transfer-zero parabolas, two or more on each, so
# the shared-slope line fit runs.  Not every block does: on P and sigma both
# in 5.3..8.45 the two minima lie on different parabolas, fit_minima_line
# raises, and the CLI exits 1 without writing any records.
SURFACE_P_MIN, SURFACE_SIGMA_MIN, SURFACE_N = 4.1, 5.7, 64


def surface(seed: int, workdir: Path) -> CliSweep:
    fmt = ["--formats", "csv,json,svg"]
    argv = (["sweep"] + _range_args("P", SURFACE_P_MIN, SURFACE_N)
            + _range_args("sigma", SURFACE_SIGMA_MIN, SURFACE_N) + fmt)
    warm = (["sweep"] + _range_args("P", SURFACE_P_MIN, 6)
            + _range_args("sigma", SURFACE_SIGMA_MIN, 6) + fmt)
    return CliSweep(argv, warm, SURFACE_N * SURFACE_N, (SURFACE_P_MIN, SURFACE_SIGMA_MIN, 0),
                    seed, workdir)


class Points:
    """Single-point calls of the README quick-start sequence, one at a time."""

    n_calls = 1000
    sample_size = 100
    # Non-finite pulses: each call succeeds only if PulseSpec rejects it with
    # ValueError.  They do not depend on the seed and are not timed.
    NON_FINITE = ((float("nan"), 1.0), (float("inf"), 1.0), (1.0, float("inf")), (1.0, float("nan")))

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        self.inputs = list(zip(rng.uniform(0.0, 10.0, self.n_calls).tolist(),
                               rng.uniform(0.005, 10.0, self.n_calls).tolist(),
                               rng.integers(0, 3, self.n_calls).tolist()))
        self.sample = checks.sample_indices(rng, self.n_calls, self.sample_size)
        self.first_point = self.inputs[0]
        self.n_points = self.n_calls
        self.results: list[dict] = []

    @staticmethod
    def _call(p: float, sigma: float, j0: int):
        import rotorkick as rk
        pulse = rk.PulseSpec(strength=p, sigma=sigma)
        basis = rk.converge_basis(pulse, j0)
        psi = rk.propagate_spectral(pulse, j0, basis).final
        return psi, rk.compute_all(psi, rk.build_cos_matrix(basis), rk.build_cos2_matrix(basis))

    def warm_up(self) -> None:
        for p, sigma, j0 in self.inputs[:20]:
            self._call(p, sigma, j0)

    def run_pass(self) -> Pass:
        import rotorkick as rk
        t_pass = perf_counter()
        latencies, raw = [], []
        for p, sigma, j0 in self.inputs:
            t0 = perf_counter()
            try:
                out = self._call(p, sigma, j0)
            except Exception as exc:  # counted and reported, the pass goes on
                out = exc
            latencies.append(perf_counter() - t0)
            raw.append(out)
        failed = 0
        for p, sigma in self.NON_FINITE:
            try:
                rk.PulseSpec(strength=p, sigma=sigma)
                failed += 1
            except ValueError:
                pass
            except Exception:
                failed += 1
        wall = perf_counter() - t_pass
        self.results = []
        for (p, sigma, j0), out in zip(self.inputs, raw):
            if isinstance(out, Exception):
                failed += 1
                self.results.append({"p": p, "sigma": sigma, "j0": j0, "error": repr(out)})
                continue
            psi, obs = out
            c = psi.coefficients
            self.results.append({"p": p, "sigma": sigma, "j0": j0,
                                 "leak": float(np.sum(np.abs(c[-2:]) ** 2)),
                                 "energy": obs.kinetic_energy, "orientation": obs.orientation,
                                 "alignment": obs.alignment})
        return Pass(wall, latencies, self.n_calls + len(self.NON_FINITE), failed)

    def check(self) -> list[str]:
        return checks.check_points(self.results, self.sample)


class Oracle:
    """Criterion 07's cross-validation: each point propagated by the spectral
    method and by RK4 with its default 100 000 fixed steps."""

    n_calls = 1      # one point (1 to 2 s) a pass, so a run holds many passes to take the median of

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        self.inputs = list(zip(rng.uniform(0.0, 10.0, self.n_calls).tolist(),
                               rng.uniform(0.01, 10.0, self.n_calls).tolist()))
        self.first_point = (*self.inputs[0], 0)
        self.n_points = self.n_calls
        self.results: list[dict] = []

    def warm_up(self) -> None:
        import rotorkick as rk
        pulse = rk.PulseSpec(strength=1.0, sigma=1.0)
        basis = rk.converge_basis(pulse, 0)
        rk.propagate_spectral(pulse, 0, basis)
        rk.propagate_ode(pulse, 0, basis, steps=1000)

    def run_pass(self) -> Pass:
        import rotorkick as rk
        t_pass = perf_counter()
        latencies, results = [], []
        for p, sigma in self.inputs:
            t0 = perf_counter()
            pulse = rk.PulseSpec(strength=p, sigma=sigma)
            basis = rk.converge_basis(pulse, 0)
            spec = rk.propagate_spectral(pulse, 0, basis)
            ode = rk.propagate_ode(pulse, 0, basis)
            latencies.append(perf_counter() - t0)
            results.append({"p": p, "sigma": sigma, "spectral": spec.final.coefficients,
                            "rk4": ode.final.coefficients, "norm_drift": spec.norm_drift})
        self.results = results
        return Pass(perf_counter() - t_pass, latencies, self.n_calls, 0)

    def check(self) -> list[str]:
        return checks.check_oracle(self.results)


WORKLOADS = {"fig2": fig2, "surface": surface, "points": Points, "oracle": Oracle}
