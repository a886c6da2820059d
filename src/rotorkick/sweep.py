"""(P, sigma) parameter sweeps with drop and surface-minima detection.

Points are evaluated by the spectral kernel of converge_basis and
propagate_spectral: per candidate basis size, one stacked eigensolve of the
Hamiltonians of all points not yet converged, then the observables from that
size's cached operator bands.  A large stack is cut into equal parts that
threads solve on all the CPUs the process may use.  No arithmetic crosses point
boundaries, so the results are bit for bit the same on any number of CPUs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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


def _check_j0_integer(j0) -> None:
    """ValueError unless J0 is an integer >= 0 (a Python or numpy integer, not a bool)."""
    if isinstance(j0, bool) or not isinstance(j0, (int, np.integer)) or j0 < 0:
        raise ValueError(f"J0 must be an integer >= 0, got {j0!r}")


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
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError(f"{name} values must be a non-empty 1-D sequence")
            if arr.size > 1 and not np.all(np.diff(arr) > 0):
                raise ValueError(f"{name} values must be strictly increasing")
        _check_j0_integer(self.j0)
        if self.basis_mode not in ("auto", "fixed"):
            raise ValueError(f"unknown basis mode {self.basis_mode!r}")

    @classmethod
    def from_ranges(cls, p, sigma_min, sigma_max, sigma_step, **kw) -> "SweepGrid":
        """A grid over the P value(s) p, a number or any 1-D sequence or array,
        and sigma_min, sigma_min + sigma_step, ... up to sigma_max."""
        for name, value in (("sigma_min", sigma_min), ("sigma_max", sigma_max),
                            ("sigma_step", sigma_step)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not sigma_step > 0:
            raise ValueError(f"sigma_step must be > 0, got {sigma_step}")
        n = int(round((sigma_max - sigma_min) / sigma_step)) + 1
        sigmas = tuple(sigma_min + i * sigma_step for i in range(n))
        return cls(p_values=tuple(p) if np.ndim(p) else (float(p),), sigma_values=sigmas, **kw)


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


# The leading columns of SweepResult.table; |C_J|^2 and |C_J| follow.
COLUMNS = ("P", "sigma", "j0", "energy", "orientation", "alignment")


class SweepResult:
    """A sweep's points as columns, row-major (row = ip * n_sigma + isig).

    table is records.csv's (n, 6 + 2k) matrix: the COLUMNS, then |C_J|^2 and
    |C_J| zero-padded to the widest converged basis; a point that failed to
    converge has NaN observables, j_max -1 and its text in errors.  records and
    record() are views built on first use; a result built from records keeps them.
    """

    def __init__(self, grid: SweepGrid, records: list[PointRecord] | None = None,
                 drop_loci=None, minima_2d=None, minima_line_fit: LineFit | None = None,
                 *, columns=None):
        self.grid, self.minima_line_fit = grid, minima_line_fit
        self.drop_loci, self.minima_2d = drop_loci or [], minima_2d or []  # (P, sigma, E)
        if records is not None:     # kept, shadowing the view below; columns copied from them
            self.records = records
            k = max((r.populations.size for r in records if not r.failed), default=0)
            columns = (np.zeros((len(records), 6 + 2 * k)), np.array([r.j_max for r in records]),
                       {i: r.error for i, r in enumerate(records) if r.failed})
            for row, r in zip(columns[0], records):
                row[:6] = (r.p, r.sigma, r.j0, r.energy, r.orientation, r.alignment)
                row[6:6 + k][:r.populations.size] = r.populations
                row[6 + k:][:r.coeff_abs.size] = r.coeff_abs
        self.table, self.j_max, self.errors = columns
        self.failed = np.isin(np.arange(len(self.table)), list(self.errors))

    @functools.cached_property
    def records(self) -> list[PointRecord]:
        return _point_records(self.table, self.j_max, self.errors)

    def record(self, ip: int, isig: int) -> PointRecord:
        n_p, n_sig = len(self.grid.p_values), len(self.grid.sigma_values)
        if not (0 <= ip < n_p and 0 <= isig < n_sig):
            raise IndexError(f"grid point ({ip}, {isig}) outside the {n_p} x {n_sig} grid")
        return self.records[ip * n_sig + isig]

    def energy_surface(self) -> np.ndarray:
        shape = len(self.grid.p_values), len(self.grid.sigma_values)
        return self.table[:, COLUMNS.index("energy")].reshape(shape).copy()

    def failures(self) -> list[PointRecord]:
        return [self.records[k] for k in self.errors]


def _point_records(table, j_max, errors) -> list[PointRecord]:
    """PointRecord views of the rows of an engine's table (a failed row has j_max -1)."""
    k = (table.shape[1] - 6) // 2
    return [PointRecord(p, s, int(j0), jm, e, o, a, row[6:7 + jm], row[6 + k:7 + k + jm],
                        i in errors, errors.get(i))
            for i, (row, jm, (p, s, j0, e, o, a)) in enumerate(
                zip(table, j_max.tolist(), table[:, :6].tolist()))]


def _evaluate(p, sigma, j0, basis_mode, j_max, leak_tol):
    """evaluate_points' work, as the (table, j_max, errors) that SweepResult holds."""
    _check_j0_integer(j0)
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
    table = np.zeros((p_arr.size, 6))
    table[:, 0], table[:, 1], table[:, 2], table[:, 3:] = p_arr, s_arr, j0, math.nan
    levels = np.full(p_arr.size, -1)
    active = np.arange(p_arr.size)
    for jm in ladder:
        if not active.size:
            break
        c = _propagate_points(p_arr[active], s_arr[active], j0, jm)
        done = _leak(c) < tol
        idx, c, active = active[done], c[done], active[~done]
        if not idx.size:
            continue
        k, old = jm + 1, (table.shape[1] - 6) // 2     # rungs grow, so k > old
        pad = np.zeros((p_arr.size, k - old))
        table = np.hstack((table[:, :6 + old], pad, table[:, 6 + old:], pad))
        pop = abs(c) ** 2
        table[idx, 3:6] = np.column_stack(_expectations(c, pop, _j2(jm), *_bands(jm)[1:]))
        table[idx, 6:6 + k], table[idx, 6 + k:], levels[idx] = pop, np.abs(c), jm
    return table, levels, {i: _leak_error(leak_tol, *table[i, :2].tolist(), j0)
                           for i in active.tolist()}


def evaluate_points(p, sigma, j0: int, basis_mode: str = "auto", j_max: int = 9,
                    leak_tol: float = 1e-10) -> list[PointRecord]:
    """Propagate the points (p[k], sigma[k]) (spectral) and compute all observables.

    "auto" gives each point the smallest basis whose leak is below leak_tol, as
    converge_basis does; a point still above it at the cap becomes a failed record
    with the ConvergenceError text.  "fixed" propagates every point once at j_max.
    Each basis size makes one call of the spectral kernel for all points it holds.
    """
    return _point_records(*_evaluate(p, sigma, j0, basis_mode, j_max, leak_tol))


def evaluate_point(p: float, sigma: float, j0: int, basis_mode: str = "auto",
                   j_max: int = 9, leak_tol: float = 1e-10) -> PointRecord:
    """Propagate one grid point (spectral) and compute all observables."""
    return evaluate_points([p], [sigma], j0, basis_mode, j_max, leak_tol)[0]


def run_sweep(grid: SweepGrid, drop_rel_threshold: float = 0.10) -> SweepResult:
    """Evaluate every grid point, then detect drops (per fixed P) and,
    for 2-D grids, surface minima plus the shared-slope line fit.

    Failed points are kept in the result (marked failed) and excluded
    from detection; the sweep itself never aborts on a point failure.
    A surface whose minima admit no line fit keeps minima_line_fit None.
    """
    p_vals, s_vals = grid.p_values, grid.sigma_values
    result = SweepResult(grid, columns=_evaluate(
        np.repeat(p_vals, len(s_vals)), np.tile(s_vals, len(p_vals)), grid.j0,
        grid.basis_mode, grid.j_max, grid.leak_tol))
    e = result.energy_surface()
    if len(s_vals) >= 5:
        row_failed = result.failed.reshape(e.shape).any(axis=1)
        result.drop_loci = [(p_vals[ip], s_vals[isig], e[ip, isig])
                            for ip, isig in _drops(e, drop_rel_threshold) if not row_failed[ip]]
    if len(p_vals) >= 5 and len(s_vals) >= 5 and not result.errors:
        result.minima_2d = detect_surface_minima(result)
        try:
            result.minima_line_fit = fit_minima_line([(p, s) for p, s, _ in result.minima_2d])
        except ValueError:      # under two minima, no cluster of two, or no parabola exists
            pass
    return result


def _drops(e: np.ndarray, rel_threshold: float) -> list[tuple[int, int]]:
    """(row, index) of each drop in the rows of the 2-D array e, row-major: the
    strict local minima in one comparison, then a shoulder walk from each."""
    minima = (e[:, 1:-1] < e[:, :-2]) & (e[:, 1:-1] < e[:, 2:])
    out = []
    for r in np.flatnonzero(minima.any(axis=1)).tolist():
        row = e[r].tolist()
        for i in (np.flatnonzero(minima[r]) + 1).tolist():
            left = i - 1
            while left > 0 and row[left - 1] > row[left]:
                left -= 1
            right = i + 1
            while right < len(row) - 1 and row[right + 1] > row[right]:
                right += 1
            shoulder = min(row[left], row[right])
            if shoulder > 0 and (shoulder - row[i]) / shoulder >= rel_threshold:
                out.append((r, i))
    return out


def detect_drops(energies: np.ndarray, rel_threshold: float = 0.10) -> list[int]:
    """Indices of strict local minima whose depth, relative to the smaller
    neighboring local maximum, exceeds rel_threshold.

    The series boundaries act as the enclosing maxima for edge-adjacent
    minima.  Positions are grid points; no sub-grid interpolation.
    """
    e = np.asarray(energies, dtype=float)
    if e.size < 5:
        raise ValueError("drop detection needs at least 5 points")
    return [i for _, i in _drops(e.reshape(1, -1), rel_threshold)]


def detect_surface_minima(result: SweepResult,
                          ceiling: float | None = None) -> list[tuple[float, float, float]]:
    """Grid points that are strict minima over their 8-neighborhood and lie
    below an absolute kinetic-energy ceiling (default: 1st percentile of
    the surface's finite values; a surface with none has no minima)."""
    e = result.energy_surface()
    if e.shape[0] < 5 or e.shape[1] < 5:
        raise ValueError("surface minima detection needs a grid of at least 5x5")
    if ceiling is None:     # over the finite cells, so that a failed point's NaN is left out
        finite = e[np.isfinite(e)]
        if not finite.size:
            return []
        ceiling = float(np.percentile(finite, 1.0))
    # the 3 x 3 patch of each interior cell not above the ceiling (NaN fails any comparison)
    ip, isig = np.nonzero(~(e[1:-1, 1:-1] > ceiling))
    patch = np.lib.stride_tricks.sliding_window_view(e, (3, 3))[ip, isig]
    v = patch[:, 1, 1].copy()
    patch[:, 1, 1] = math.inf
    keep = v < patch.min(axis=(1, 2))
    return [(result.grid.p_values[i + 1], result.grid.sigma_values[j + 1], x)
            for i, j, x in zip(ip[keep].tolist(), isig[keep].tolist(), v[keep].tolist())]


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
    arrays = {n: tuple(map(np.array, zip(*pts))) for n, pts in clusters.items()}  # (P, sigma)
    num = den = 0.0
    for ps, ss in arrays.values():
        if ps.size >= 2:
            num += float(np.sum((ps - ps.mean()) * (ss - ss.mean())))
            den += float(np.sum((ps - ps.mean()) ** 2))
    if den == 0.0:
        raise ValueError("no cluster has 2 or more minima; cannot fit a slope")
    slope = num / den
    intercepts = {}
    sq = 0.0
    for n, (ps, ss) in sorted(arrays.items()):
        intercepts[n] = b = float(np.mean(ss - slope * ps))
        sq += float(np.sum((ss - slope * ps - b) ** 2))
    return LineFit(slope=slope, intercepts=intercepts,
                   rms_residual=math.sqrt(sq / len(minima)))


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
        best = min(loci, key=lambda z: abs(z.sigma_exact - s), default=None)
        matched = best is not None and abs(s - best.sigma_exact) <= match_window
        out.append({
            "n": best.n if matched else None,
            "sigma_drop": s,
            "sigma_analytic": best.sigma_exact if matched else math.nan,
            "delta": s - best.sigma_exact if matched else math.nan,
            "matched": matched,
        })
    return out
