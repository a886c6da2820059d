"""(P, sigma) parameter sweeps with drop and surface-minima detection.

Points are evaluated by the spectral kernel of converge_basis and
propagate_spectral: per candidate basis size, the points not yet converged are
taken in consecutive stacks of at most _STACK_ENTRIES matrix entries, one
stacked eigensolve each, and a stack's leak test and observables are done before
the next stack is formed.  So a sweep holds one stack's working arrays and the
rows already converged, whatever the size of its grid.  No arithmetic crosses
point boundaries, so the results are bit for bit the same however the points
are cut.

In auto mode the ladder's second rung, J0 + 8, is solved first.  Its
eigendecomposition gives each point a floor under the root of the leak that the
first rung, J0 + 4, would have (propagate._leak_floor): H is tridiagonal, so
J <= J0 + 4 meets the levels above only through -P <J0+4|cos|J0+5>, and by
variation of constants the two states differ by at most that coupling times the
largest |c_{J0+5}| over the pulse.  The floor has the eigensolver's rounding
taken off.  Where it is at least 2 sqrt(leak_tol), a factor 4 on the leak, the
J0 + 4 solve is proved to fail and is skipped; the other points of the stack
are solved at J0 + 4 right away, and a point still keeps the smallest rung whose
leak is below leak_tol.  The solves that remain are the same, so are the bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._text import round12
from .analytic import zero_loci
from .core import (_AXIS_POINTS_CAP, _N_MAX_CAP, RotorBasis, _bands, _check_fraction,
                   _check_integer, _check_j0, _j2)
from .observables import _expectations
from .propagate import _ladder, _leak, _leak_error, _propagate_points

# Most matrix entries in one stack of an eigensolve.  With the eigenvectors and
# their complex copy a stack takes about 40 bytes an entry, so this bounds a
# stack at about 1.3 MiB whatever the number of points or the basis size; a
# larger basis than sqrt(_STACK_ENTRIES) - 1 is solved one point a stack.
_STACK_ENTRIES = 1 << 15


def _check_values(name: str, values, positive: bool) -> np.ndarray:
    """values as a float array; ValueError naming the field unless every
    value is finite and > 0 (positive) or >= 0."""
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr) & ((arr > 0) if positive else (arr >= 0))):
        raise ValueError(f"{name} values must be finite and {'> 0' if positive else '>= 0'}")
    return arr


def axis(name: str, lo: float, hi: float, step: float) -> tuple[float, ...]:
    """The grid axis lo, lo + step, ... to the last point <= hi, each value
    rounded to 12 decimals: the double nearest its decimal grid value.  A
    ValueError names the field ({name}_min, {name}_max or {name}_step), also
    for a step that gives more than _AXIS_POINTS_CAP points."""
    for field, value in (("min", lo), ("max", hi), ("step", step)):
        if not math.isfinite(value):
            raise ValueError(f"{name}_{field} must be finite, got {value}")
    if not step > 0:
        raise ValueError(f"{name}_step must be > 0, got {step}")
    if not hi >= lo:
        raise ValueError(f"{name}_max must be >= {name}_min, got {hi} < {lo}")
    steps = (hi - lo) / step       # inf when the quotient overflows
    if not steps <= _AXIS_POINTS_CAP - 1:
        raise ValueError(f"{name}_step {step} gives {steps + 1:.4g} points from {name}_min to "
                         f"{name}_max, more than {_AXIS_POINTS_CAP}")
    values = round12(lo + np.arange(round(steps) + 1) * step)  # lo + i * step, as Python makes it
    return tuple(values if values[-1] <= round(hi, 12) else values[:-1])  # the count may round up


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian (P, sigma) grid for one initial state.

    j_max None converges the basis per point to leak_tol; an integer
    uses that basis everywhere (j_max=9 reproduces a ten-level model).
    Every field is checked here, as evaluate_points checks its arguments.
    """

    p_values: tuple[float, ...]
    sigma_values: tuple[float, ...]
    j0: int = 0
    j_max: int | None = None
    leak_tol: float = 1e-10         # used when j_max is None

    def __post_init__(self):
        for name, vals, positive in (("P", self.p_values, False),
                                     ("sigma", self.sigma_values, True)):
            arr = _check_values(name, vals, positive)
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError(f"{name} values must be a non-empty 1-D sequence")
            if arr.size > 1 and not np.all(np.diff(arr) > 0):
                raise ValueError(f"{name} values must be strictly increasing")
        n_p, n_sigma = len(self.p_values), len(self.sigma_values)
        if n_p * n_sigma > _AXIS_POINTS_CAP:
            raise ValueError(f"grid of {n_p} P x {n_sigma} sigma values has {n_p * n_sigma} "
                             f"points, more than {_AXIS_POINTS_CAP}")
        _rungs(self.j0, self.j_max, self.leak_tol)

    @classmethod
    def from_ranges(cls, p, sigma_min, sigma_max, sigma_step, **kw) -> "SweepGrid":
        """A grid over the P value(s) p, a number or any 1-D sequence or array,
        and axis("sigma", ...): sigma_min in steps of sigma_step to the last point <= sigma_max."""
        return cls(p_values=tuple(p) if np.ndim(p) else (float(p),),
                   sigma_values=axis("sigma", sigma_min, sigma_max, sigma_step), **kw)


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

    def __init__(self, grid: SweepGrid, records: list[PointRecord] | None = None, *,
                 columns=None):
        self.grid, self.minima_line_fit = grid, None
        self.drop_loci, self.minima_2d = [], []     # (P, sigma, E); run_sweep fills them
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
        self.failed = np.zeros(len(self.table), dtype=bool)
        self.failed[list(self.errors)] = True

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


def _rungs(j0, j_max, leak_tol) -> tuple:
    """The basis sizes that a point tries in turn and the leak below which it is done,
    once J0, j_max and leak_tol are checked: the ladder to leak_tol for j_max None,
    else the one basis j_max, which takes every point."""
    _check_integer("J0", j0, 0)
    if j_max is None:
        return _ladder(j0, leak_tol), leak_tol
    _check_fraction("leak_tol", leak_tol)
    _check_j0(j0, RotorBasis(j_max=j_max).j_max)    # RotorBasis checks j_max
    return [j_max], math.inf


def _evaluate(p, sigma, j0, j_max, leak_tol):
    """evaluate_points' work, as the (table, j_max, errors) that SweepResult holds."""
    p_arr = _check_values("P", p, positive=False)
    s_arr = _check_values("sigma", sigma, positive=True)
    if p_arr.shape != s_arr.shape or p_arr.ndim != 1:
        raise ValueError("P and sigma must be 1-D sequences of the same length")
    ladder, tol = _rungs(j0, j_max, leak_tol)
    solved, active = [], np.arange(p_arr.size)

    def keep(jm, idx, c=None):
        """Observables of the points of idx whose leak on the basis jm is below tol,
        from their C(1) c, solved here if None; the mask of the others.  (Solving here
        spares solve a call of itself: a closure that refers to itself is a cycle,
        which would hold these arrays until the cyclic collector runs.)"""
        if c is None:
            c = _propagate_points(p_arr[idx], s_arr[idx], j0, jm)
        done = _leak(c) < tol
        if done.any():
            c = c[done]
            pop = abs(c) ** 2
            solved.append((jm, idx[done], np.column_stack(_expectations(
                c, pop, _j2(jm), *_bands(jm)[1:])), pop, np.abs(c)))
        return ~done

    def solve(jm, idx, below):
        """The mask of the points of idx that converge on neither basis.  A point goes
        to the smaller basis below (None: no such basis) first, unless the
        eigendecomposition on jm proves that it leaks there."""
        if below is None:
            return keep(jm, idx)
        c, floor = _propagate_points(p_arr[idx], s_arr[idx], j0, jm, below)
        tried = ~(floor >= 2 * math.sqrt(tol))      # not proved to leak; NaN proves nothing
        left = np.ones(idx.size, dtype=bool)
        if tried.any():
            left[tried] = keep(below, idx[tried])
        left[left] = keep(jm, idx[left], c[left])
        return left

    # the first rung is solved inside the stacks of the second, whose eigenvectors prove the skips
    below, rungs = (ladder[0], ladder[1:]) if len(ladder) > 1 else (None, ladder)
    for jm in rungs:
        if not active.size:
            break
        per = max(1, _STACK_ENTRIES // (jm + 1) ** 2)     # points a stack, at least one
        left = np.ones(active.size, dtype=bool)
        for a in range(0, active.size, per):
            left[a:a + per] = solve(jm, active[a:a + per], below)
        active, below = active[left], None
    k = max((jm for jm, *_ in solved), default=-1) + 1     # the widest converged basis
    table = np.zeros((p_arr.size, 6 + 2 * k))
    table[:, 0], table[:, 1], table[:, 2], table[:, 3:6] = p_arr, s_arr, j0, math.nan
    levels = np.full(p_arr.size, -1)
    while solved:       # each stack's rows dropped once they are in the table
        jm, idx, obs, pop, c_abs = solved.pop()
        table[idx, 3:6], table[idx, 6:7 + jm], table[idx, 6 + k:7 + k + jm] = obs, pop, c_abs
        levels[idx] = jm
    return table, levels, {i: _leak_error(leak_tol, *table[i, :2].tolist(), j0)
                           for i in active.tolist()}


def evaluate_points(p, sigma, j0: int, j_max: int | None = None,
                    leak_tol: float = 1e-10) -> list[PointRecord]:
    """Propagate the points (p[k], sigma[k]) (spectral) and compute all observables.

    With j_max None each point gets the smallest basis whose leak is below leak_tol,
    as converge_basis gives; a point still above it at the cap becomes a failed record
    with the ConvergenceError text.  An integer j_max propagates every point once on it.
    Each basis size makes one call of the spectral kernel for all points it holds.
    """
    return _point_records(*_evaluate(p, sigma, j0, j_max, leak_tol))


def evaluate_point(p: float, sigma: float, j0: int, j_max: int | None = None,
                   leak_tol: float = 1e-10) -> PointRecord:
    """Propagate one grid point (spectral) and compute all observables."""
    return evaluate_points([p], [sigma], j0, j_max, leak_tol)[0]


def run_sweep(grid: SweepGrid, drop_rel_threshold: float = 0.10) -> SweepResult:
    """Evaluate every grid point, then detect drops (per fixed P) and,
    for 2-D grids, surface minima plus the shared-slope line fit.

    Failed points are kept in the result (marked failed) and excluded
    from detection; the sweep itself never aborts on a point failure.
    A surface whose minima admit no line fit keeps minima_line_fit None.
    """
    _check_fraction("drop threshold", drop_rel_threshold)
    p_vals, s_vals = grid.p_values, grid.sigma_values
    result = SweepResult(grid, columns=_evaluate(
        np.repeat(p_vals, len(s_vals)), np.tile(s_vals, len(p_vals)), grid.j0, grid.j_max,
        grid.leak_tol))
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
    _check_fraction("drop threshold", rel_threshold)
    e = np.asarray(energies, dtype=float)
    if e.size < 5:
        raise ValueError("drop detection needs at least 5 points")
    return [i for _, i in _drops(e.reshape(1, -1), rel_threshold)]


def detect_surface_minima(result: SweepResult,
                          ceiling: float | None = None) -> list[tuple[float, float, float]]:
    """Grid points that are strict minima over their 8-neighborhood and lie
    below an absolute kinetic-energy ceiling (default: 1st percentile of
    the surface's finite values, as np.percentile gives it; a surface with
    none has no minima)."""
    e = result.energy_surface()
    if e.shape[0] < 5 or e.shape[1] < 5:
        raise ValueError("surface minima detection needs a grid of at least 5x5")
    if ceiling is None:     # over the finite cells, so that a failed point's NaN is left out
        finite = e[np.isfinite(e)]
        if not finite.size:
            return []
        ceiling = _first_percentile(finite)
    # the 3 x 3 patch of each interior cell not above the ceiling (NaN fails any comparison)
    ip, isig = np.nonzero(~(e[1:-1, 1:-1] > ceiling))
    patch = np.lib.stride_tricks.sliding_window_view(e, (3, 3))[ip, isig]
    v = patch[:, 1, 1].copy()
    patch[:, 1, 1] = math.inf
    keep = v < patch.min(axis=(1, 2))
    return [(result.grid.p_values[i + 1], result.grid.sigma_values[j + 1], x)
            for i, j, x in zip(ip[keep].tolist(), isig[keep].tolist(), v[keep].tolist())]


def _first_percentile(x: np.ndarray) -> float:
    """np.percentile(x, 1.0) of a non-empty 1-D float array x, bit for bit, which it
    reorders: numpy's linear rule on the two order statistics around index
    (n - 1) * 0.01, partitioned as numpy does it.  np.percentile itself would load
    numpy.ma (through np.unique) into every sweep."""
    i = (x.size - 1) * 0.01
    lo = math.floor(i) if i < x.size - 1 else -1    # numpy's index past the end: the last
    hi = lo + 1 if lo >= 0 else -1
    x.partition(sorted({0, -1, lo, hi}))
    a, b = float(x[lo]), float(x[hi])
    t, d = i - lo, b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t     # numpy's _lerp, both of its sides


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


_MATCH_WINDOW = 0.5     # farthest a drop may sit from the analytic root it is matched to


def compare_drops_to_analytic(drops: list[float], strength: float, j0: int) -> list[dict]:
    """Match detected drop positions to the nearest analytic zero locus.

    Each entry reports the branch index n, detected and analytic sigma,
    and their difference; drops with no root within _MATCH_WINDOW are
    flagged unmatched rather than raising.  zero_loci refuses a J0 it
    does not define.
    """
    # past the last branch zero_loci scans, a drop is reported unmatched
    n_max = min(_N_MAX_CAP, max(10, int(2 * (max(drops) if drops else 1) / math.pi) + 3))
    loci = zero_loci(j0, strength, n_max)
    out = []
    for s in drops:
        best = min(loci, key=lambda z: abs(z.sigma_exact - s), default=None)
        matched = best is not None and abs(s - best.sigma_exact) <= _MATCH_WINDOW
        out.append({
            "n": best.n if matched else None,
            "sigma_drop": s,
            "sigma_analytic": best.sigma_exact if matched else math.nan,
            "delta": s - best.sigma_exact if matched else math.nan,
            "matched": matched,
        })
    return out
