"""(P, sigma) parameter sweeps with drop and surface-minima detection.

Points are evaluated by the spectral kernel of converge_basis and
propagate_spectral: per candidate basis size, one eigensolve of the stacked
Hamiltonians of all points not yet converged, then the observables from that
size's cached operator bands.  No arithmetic crosses point boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analytic import zero_loci
from .core import RotorBasis, _bands, _j2
from .observables import _expectations
from .propagate import _check_j0, _ladder, _leak, _leak_error, _propagate_points


def _check_values(name: str, values, positive: bool) -> np.ndarray:
    """values as a float array; ValueError naming the field unless every
    value is finite and > 0 (positive) or >= 0."""
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr) & ((arr > 0) if positive else (arr >= 0))):
        raise ValueError(f"{name} values must be finite and {'> 0' if positive else '>= 0'}")
    return arr


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian (P, sigma) grid for one initial state.

    basis_mode "auto" converges the basis per point to leak_tol;
    "fixed" uses j_max everywhere (j_max=9 reproduces a ten-level model).
    """

    p_values: tuple[float, ...]
    sigma_values: tuple[float, ...]
    j0: int = 0
    basis_mode: str = "auto"       # "auto" | "fixed"
    j_max: int = 9                  # used when basis_mode == "fixed"
    leak_tol: float = 1e-10         # used when basis_mode == "auto"

    def __post_init__(self):
        for name, vals, positive in (("P", self.p_values, False),
                                     ("sigma", self.sigma_values, True)):
            arr = _check_values(name, vals, positive)
            if arr.size == 0:
                raise ValueError(f"{name} values must be non-empty")
            if arr.size > 1 and not np.all(np.diff(arr) > 0):
                raise ValueError(f"{name} values must be strictly increasing")
        if self.basis_mode not in ("auto", "fixed"):
            raise ValueError(f"unknown basis mode {self.basis_mode!r}")

    @classmethod
    def from_ranges(cls, p, sigma_min, sigma_max, sigma_step, **kw) -> "SweepGrid":
        for name, value in (("sigma_min", sigma_min), ("sigma_max", sigma_max),
                            ("sigma_step", sigma_step)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not sigma_step > 0:
            raise ValueError(f"sigma_step must be > 0, got {sigma_step}")
        n = int(round((sigma_max - sigma_min) / sigma_step)) + 1
        sigmas = tuple(sigma_min + i * sigma_step for i in range(n))
        p_vals = tuple(p) if isinstance(p, (tuple, list)) else (float(p),)
        return cls(p_values=p_vals, sigma_values=sigmas, **kw)


@dataclass
class PointRecord:
    p: float
    sigma: float
    j0: int
    j_max: int
    energy: float
    orientation: float
    alignment: float
    populations: np.ndarray
    coeff_abs: np.ndarray
    failed: bool = False
    error: str | None = None


@dataclass
class LineFit:
    slope: float
    intercepts: dict[int, float]
    rms_residual: float


@dataclass
class SweepResult:
    grid: SweepGrid
    records: list[PointRecord]                       # row-major: index = ip * n_sigma + isig
    drop_loci: list[tuple[float, float, float]] = field(default_factory=list)   # (P, sigma, E)
    minima_2d: list[tuple[float, float, float]] = field(default_factory=list)   # (P, sigma, E)
    minima_line_fit: LineFit | None = None

    def record(self, ip: int, isig: int) -> PointRecord:
        return self.records[ip * len(self.grid.sigma_values) + isig]

    def energy_surface(self) -> np.ndarray:
        e = np.array([r.energy for r in self.records])
        return e.reshape(len(self.grid.p_values), len(self.grid.sigma_values))

    def failures(self) -> list[PointRecord]:
        return [r for r in self.records if r.failed]


def evaluate_points(p, sigma, j0: int, basis_mode: str = "auto", j_max: int = 9,
                    leak_tol: float = 1e-10) -> list[PointRecord]:
    """Propagate the points (p[k], sigma[k]) (spectral) and compute all observables.

    "auto" gives each point the smallest basis whose leak is below leak_tol, as
    converge_basis does; a point still above it at the cap becomes a failed record
    with the ConvergenceError text.  "fixed" propagates every point once at j_max.
    Each basis size makes one call of the spectral kernel for all points it holds.
    """
    p_arr = _check_values("P", p, positive=False)
    s_arr = _check_values("sigma", sigma, positive=True)
    if p_arr.shape != s_arr.shape or p_arr.ndim != 1:
        raise ValueError("P and sigma must be 1-D sequences of the same length")
    if basis_mode == "fixed":
        ladder, tol = [RotorBasis(j_max=j_max).j_max], math.inf    # RotorBasis checks j_max
    elif basis_mode == "auto":
        ladder, tol = _ladder(j0, leak_tol), leak_tol
    else:
        raise ValueError(f"unknown basis mode {basis_mode!r}")
    if ladder:
        _check_j0(j0, ladder[0])

    records: list[PointRecord | None] = [None] * p_arr.size
    active = np.arange(p_arr.size)
    for jm in ladder:
        if not active.size:
            break
        c = _propagate_points(p_arr[active], s_arr[active], j0, jm)
        done = _leak(c) < tol
        idx, c, active = active[done], c[done], active[~done]
        if not idx.size:
            continue
        pop = abs(c) ** 2
        energy, orient, align = _expectations(c, pop, _j2(jm), *_bands(jm)[1:])
        for k, e, o, a, pops, cabs in zip(idx.tolist(), energy.tolist(), orient.tolist(),
                                          align.tolist(), pop, np.abs(c)):
            records[k] = PointRecord(p=p[k], sigma=sigma[k], j0=j0, j_max=jm, energy=e,
                                     orientation=o, alignment=a, populations=pops,
                                     coeff_abs=cabs)
    for k in active.tolist():
        records[k] = PointRecord(
            p=p[k], sigma=sigma[k], j0=j0, j_max=-1, energy=math.nan, orientation=math.nan,
            alignment=math.nan, populations=np.array([]), coeff_abs=np.array([]), failed=True,
            error=_leak_error(leak_tol, p[k], sigma[k], j0))
    return records


def evaluate_point(p: float, sigma: float, j0: int, basis_mode: str = "auto",
                   j_max: int = 9, leak_tol: float = 1e-10) -> PointRecord:
    """Propagate one grid point (spectral) and compute all observables."""
    return evaluate_points([p], [sigma], j0, basis_mode, j_max, leak_tol)[0]


def run_sweep(grid: SweepGrid, drop_rel_threshold: float = 0.10) -> SweepResult:
    """Evaluate every grid point, then detect drops (per fixed P) and,
    for 2-D grids, surface minima plus the shared-slope line fit.

    Failed points are kept in the records (marked failed) and excluded
    from detection; the sweep itself never aborts on a point failure.
    A surface whose minima admit no line fit keeps minima_line_fit None.
    """
    n_sig = len(grid.sigma_values)
    records = evaluate_points([p for p in grid.p_values for _ in range(n_sig)],
                              grid.sigma_values * len(grid.p_values), grid.j0,
                              grid.basis_mode, grid.j_max, grid.leak_tol)

    result = SweepResult(grid=grid, records=records)
    if n_sig >= 5:
        for ip, p in enumerate(grid.p_values):
            series = records[ip * n_sig:(ip + 1) * n_sig]
            if any(r.failed for r in series):
                continue
            energies = np.array([r.energy for r in series])
            for isig in detect_drops(energies, rel_threshold=drop_rel_threshold):
                result.drop_loci.append((p, grid.sigma_values[isig], energies[isig]))
    if len(grid.p_values) >= 5 and n_sig >= 5 and not result.failures():
        result.minima_2d = detect_surface_minima(result)
        pts = [(p, s) for p, s, _ in result.minima_2d]
        if len(pts) >= 2:
            try:
                result.minima_line_fit = fit_minima_line(pts)
            except ValueError:      # no cluster holds two minima, or no parabola exists
                pass
    return result


def detect_drops(energies: np.ndarray, rel_threshold: float = 0.10) -> list[int]:
    """Indices of strict local minima whose depth, relative to the smaller
    neighboring local maximum, exceeds rel_threshold.

    The series boundaries act as the enclosing maxima for edge-adjacent
    minima.  Positions are grid points; no sub-grid interpolation.
    """
    e = np.asarray(energies, dtype=float)
    if e.size < 5:
        raise ValueError("drop detection needs at least 5 points")
    out = []
    for i in range(1, e.size - 1):
        if not (e[i] < e[i - 1] and e[i] < e[i + 1]):
            continue
        left = i - 1
        while left > 0 and e[left - 1] > e[left]:
            left -= 1
        right = i + 1
        while right < e.size - 1 and e[right + 1] > e[right]:
            right += 1
        shoulder = min(e[left], e[right])
        if shoulder > 0 and (shoulder - e[i]) / shoulder >= rel_threshold:
            out.append(i)
    return out


def detect_surface_minima(result: SweepResult,
                          ceiling: float | None = None) -> list[tuple[float, float, float]]:
    """Grid points that are strict minima over their 8-neighborhood and lie
    below an absolute kinetic-energy ceiling (default: 1st percentile of
    the surface)."""
    e = result.energy_surface()
    if e.shape[0] < 5 or e.shape[1] < 5:
        raise ValueError("surface minima detection needs a grid of at least 5x5")
    if ceiling is None:
        ceiling = float(np.percentile(e, 1.0))
    out = []
    for ip in range(1, e.shape[0] - 1):
        for isig in range(1, e.shape[1] - 1):
            v = e[ip, isig]
            if v > ceiling:
                continue
            patch = e[ip - 1:ip + 2, isig - 1:isig + 2].copy()
            patch[1, 1] = math.inf
            if v < patch.min():
                out.append((result.grid.p_values[ip], result.grid.sigma_values[isig], float(v)))
    return out


def nearest_parabola_index(p: float, sigma: float, n_max: int = 40) -> int:
    """Index n of the transfer-zero parabola sigma_n(P) closest to (p, sigma)."""
    loci = zero_loci(0, p, n_max)
    if not loci:
        raise ValueError(f"no real parabola branch exists for P={p}")
    return min(loci, key=lambda z: abs(sigma - z.sigma_exact)).n


def fit_minima_line(minima: list[tuple[float, float]]) -> LineFit:
    """Shared-slope least-squares fit of sigma vs P over minima clustered by
    nearest parabola branch.

    Model: sigma = slope * P + intercept_n with one intercept per cluster
    and a common slope; clusters with a single point pin only their
    intercept.
    """
    if len(minima) < 2:
        raise ValueError("line fit needs at least 2 minima")
    clusters: dict[int, list[tuple[float, float]]] = {}
    for p, s in minima:
        clusters.setdefault(nearest_parabola_index(p, s), []).append((p, s))
    num = 0.0
    den = 0.0
    for pts in clusters.values():
        if len(pts) < 2:
            continue
        ps = np.array([q[0] for q in pts])
        ss = np.array([q[1] for q in pts])
        num += float(np.sum((ps - ps.mean()) * (ss - ss.mean())))
        den += float(np.sum((ps - ps.mean()) ** 2))
    if den == 0.0:
        raise ValueError("no cluster has 2 or more minima; cannot fit a slope")
    slope = num / den
    intercepts = {}
    sq = 0.0
    count = 0
    for n, pts in sorted(clusters.items()):
        ps = np.array([q[0] for q in pts])
        ss = np.array([q[1] for q in pts])
        b = float(np.mean(ss - slope * ps))
        intercepts[n] = b
        sq += float(np.sum((ss - slope * ps - b) ** 2))
        count += len(pts)
    return LineFit(slope=slope, intercepts=intercepts,
                   rms_residual=math.sqrt(sq / count))


def compare_drops_to_analytic(drops: list[float], strength: float, j0: int,
                              match_window: float = 0.5) -> list[dict]:
    """Match detected drop positions to the nearest analytic zero locus.

    Each entry reports the branch index n, detected and analytic sigma,
    and their difference; drops with no root within match_window are
    flagged unmatched rather than raising.
    """
    if j0 not in (0, 1):
        raise ValueError(f"analytic loci exist for J0 in {{0, 1}}, got {j0}")
    n_max = max(10, int(2 * (max(drops) if drops else 1) / math.pi) + 3)
    loci = zero_loci(j0, strength, n_max)
    out = []
    for s in drops:
        if loci:
            best = min(loci, key=lambda z: abs(z.sigma_exact - s))
            delta = s - best.sigma_exact
            matched = abs(delta) <= match_window
        else:
            best, delta, matched = None, math.nan, False
        out.append({
            "n": best.n if (best and matched) else None,
            "sigma_drop": s,
            "sigma_analytic": best.sigma_exact if (best and matched) else math.nan,
            "delta": delta if matched else math.nan,
            "matched": matched,
        })
    return out
