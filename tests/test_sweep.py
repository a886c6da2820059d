import gc
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import rotorkick.propagate
import rotorkick.sweep
from rotorkick import (
    ConvergenceError,
    MatrixKind,
    Method,
    OperatorMatrix,
    PointRecord,
    PropagationReport,
    PulseSpec,
    RotorBasis,
    SweepGrid,
    SweepResult,
    Wavepacket,
    build_cos2_matrix,
    build_cos_matrix,
    build_hamiltonian,
    compare_drops_to_analytic,
    compute_all,
    converge_basis,
    detect_drops,
    detect_surface_minima,
    evaluate_point,
    evaluate_points,
    fit_minima_line,
    nearest_parabola_index,
    propagate_spectral,
    run_sweep,
    zero_loci,
)
from rotorkick._text import _round_scaled
from rotorkick.core import _bands, _j2
from rotorkick.observables import _expectations
from rotorkick.propagate import _leak, _leak_error, _propagate_points
from rotorkick.sweep import axis


class TestSweepGrid:
    def test_from_ranges(self):
        g = SweepGrid.from_ranges(1.5, 0.5, 2.0, 0.5)
        assert g.p_values == (1.5,)
        assert g.sigma_values == pytest.approx((0.5, 1.0, 1.5, 2.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepGrid(p_values=(1.0,), sigma_values=())
        with pytest.raises(ValueError):
            SweepGrid(p_values=(1.0,), sigma_values=(2.0, 1.0))
        with pytest.raises(ValueError):
            SweepGrid(p_values=(1.0,), sigma_values=(0.0, 1.0))
        with pytest.raises(ValueError):
            SweepGrid(p_values=(-1.0,), sigma_values=(1.0,))

    @pytest.mark.parametrize("kwargs, message", [
        (dict(j_max=2.5), r"^j_max must be an integer >= 1, got 2\.5$"),
        (dict(j_max=0), r"^j_max must be an integer >= 1, got 0$"),
        (dict(j_max=True), r"^j_max must be an integer >= 1, got True$"),
        (dict(leak_tol=5), r"^leak_tol must be in \(0, 1\), got 5$"),
        (dict(leak_tol=math.nan), r"^leak_tol must be in \(0, 1\), got nan$"),
        (dict(leak_tol=5, j_max=9), r"^leak_tol must be in \(0, 1\), got 5$"),
        (dict(j0=5, j_max=3), r"^J0=5 outside basis \(j_max=3\)$"),
        (dict(j0=397), r"^J0=397 leaves auto mode no basis to try: its first, j_max=401, "
                       r"is above the cap j_max_cap=400$"),
    ])
    def test_every_field_checked_when_made(self, kwargs, message):
        # as evaluate_points checks the same arguments, with the same messages
        with pytest.raises(ValueError, match=message):
            SweepGrid(p_values=(1.0,), sigma_values=(1.0, 2.0), **kwargs)
        with pytest.raises(ValueError, match=message):
            evaluate_points([1.0], [1.0], kwargs.pop("j0", 0), **kwargs)

    def test_fixed_basis_holds_a_j0_past_the_auto_ladder(self):
        # J0 = 397 leaves auto mode no rung under the cap; a fixed basis that holds it works
        SweepGrid(p_values=(0.0,), sigma_values=(1.0,), j0=397, j_max=401)
        rec = evaluate_point(0.0, 1.0, 397, j_max=401)
        assert (rec.j_max, rec.failed) == (401, False)
        assert rec.populations[397] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("field, bad", [("p_values", math.nan), ("p_values", math.inf),
                                            ("sigma_values", math.nan),
                                            ("sigma_values", math.inf)])
    def test_non_finite_rejected(self, field, bad):
        axes = {"p_values": (1.0, 2.0), "sigma_values": (1.0, 2.0)}
        axes[field] = (1.0, bad)
        name = "P" if field == "p_values" else "sigma"
        with pytest.raises(ValueError, match=f"{name} values must be finite"):
            SweepGrid(**axes)

    @pytest.mark.parametrize("field, bad", [("sigma_min", math.nan), ("sigma_min", -math.inf),
                                            ("sigma_max", math.inf), ("sigma_max", math.nan),
                                            ("sigma_step", math.inf), ("sigma_step", math.nan)])
    def test_from_ranges_non_finite_bound_rejected(self, field, bad):
        bounds = {"sigma_min": 0.5, "sigma_max": 2.0, "sigma_step": 0.5}
        bounds[field] = bad
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            SweepGrid.from_ranges(1.5, **bounds)

    @pytest.mark.parametrize("step", [0.0, -0.5])
    def test_from_ranges_non_positive_step_rejected(self, step):
        with pytest.raises(ValueError, match="^sigma_step must be > 0"):
            SweepGrid.from_ranges(1.5, 0.5, 2.0, step)

    @pytest.mark.parametrize("p", [np.array([1.0, 2.0]), range(1, 3), (1.0, 2.0), [1.0, 2.0],
                                   np.arange(1, 3), (np.float64(1.0), 2.0)])
    def test_from_ranges_takes_any_1d_p(self, p):
        g = SweepGrid.from_ranges(p, 0.5, 2.0, 0.5)
        assert g.p_values == (1.0, 2.0)
        assert len(g.sigma_values) == 4

    @pytest.mark.parametrize("p", [1.5, np.float64(1.5), np.array(1.5)])
    def test_from_ranges_takes_a_scalar_p(self, p):
        g = SweepGrid.from_ranges(p, 0.5, 2.0, 0.5)
        assert g.p_values == (1.5,) and type(g.p_values[0]) is float

    def test_from_ranges_rejects_2d_p(self):
        with pytest.raises(ValueError, match="1-D"):
            SweepGrid.from_ranges(np.ones((2, 2)), 0.5, 2.0, 0.5)

    @pytest.mark.parametrize("j0", [-1, 1.5, True, False, np.int64(-2), 2.0, "1", None])
    def test_j0_must_be_an_integer_at_least_0(self, j0):
        with pytest.raises(ValueError, match=r"^J0 must be an integer >= 0, got "):
            SweepGrid(p_values=(1.0,), sigma_values=(1.0, 2.0), j0=j0)

    @pytest.mark.parametrize("j0", [0, 2, np.int64(1), np.int32(3)])
    def test_j0_takes_python_and_numpy_integers(self, j0):
        grid = SweepGrid(p_values=(1.0,), sigma_values=(1.0, 2.0), j0=j0)
        assert run_sweep(grid).table[:, 2].tolist() == [int(j0)] * 2

    def test_total_points_above_the_cap_refused_before_any_point(self, monkeypatch):
        # each axis is inside the axis cap; their product is not
        def no_evaluate(*args):
            raise AssertionError("the sweep started evaluating points")
        monkeypatch.setattr(rotorkick.sweep, "_evaluate", no_evaluate)
        with pytest.raises(ValueError, match=r"^grid of 1001 P x 1000 sigma values has 1001000 "
                                             r"points, more than 1000000$"):
            run_sweep(SweepGrid(p_values=tuple(range(1001)), sigma_values=tuple(range(1, 1001))))

    def test_total_points_at_the_cap_kept(self):
        grid = SweepGrid(p_values=tuple(range(1000)), sigma_values=tuple(range(1, 1001)))
        assert len(grid.p_values) * len(grid.sigma_values) == 1_000_000
        one_p = SweepGrid(p_values=(1.5,), sigma_values=tuple(range(1, 1_000_001)))
        assert len(one_p.sigma_values) == 1_000_000


class TestAxis:
    def test_values_are_rounded_decimals(self):
        assert axis("sigma", 0.005, 10.0, 0.005)[1878] == 9.395       # 9.395000000000001 unrounded
        assert axis("P", 0.1, 0.3, 0.1) == (0.1, 0.2, 0.3)
        assert axis("P", 2.5, 2.5, 0.1) == (2.5,)

    def test_stops_at_the_last_point_not_above_max(self):
        # the count rounds up on both: 20.8 and 1999.8 steps
        assert axis("sigma", 1.0, 2.04, 0.05)[-1] == 2.0
        sigmas = SweepGrid.from_ranges(1.5, 0.005, 10.004, 0.005).sigma_values
        assert len(sigmas) == 2000 and sigmas[-1] == 10.0

    def test_keeps_an_on_grid_max(self):
        fig2 = SweepGrid.from_ranges(1.5, 0.005, 10.0, 0.005).sigma_values
        assert len(fig2) == 2000 and fig2[-1] == 10.0
        block = SweepGrid.from_ranges(axis("P", 4.1, 7.25, 0.05), 5.7, 8.85, 0.05)
        assert (len(block.p_values), len(block.sigma_values)) == (64, 64)
        assert (block.p_values[-1], block.sigma_values[-1]) == (7.25, 8.85)

    @pytest.mark.parametrize("args, message", [
        ((2.0, 1.0, 0.5), "^P_max must be >= P_min, got 1.0 < 2.0$"),
        ((math.nan, 1.0, 0.5), "^P_min must be finite"),
        ((1.0, 2.0, -0.5), "^P_step must be > 0"),
    ])
    def test_errors_name_the_field(self, args, message):
        with pytest.raises(ValueError, match=message):
            axis("P", *args)

    @pytest.mark.parametrize("step, count", [(1e-320, "inf"), (1e-9, "1e\\+09")])
    def test_oversized_count_refused_before_any_list(self, step, count, monkeypatch):
        # 1e-320 overflows the point count; 1e-9 would build a 10^9-element list
        def no_range(*args):
            raise AssertionError("axis started building its values")
        monkeypatch.setattr(np, "arange", no_range)
        with pytest.raises(ValueError, match=f"^sigma_step {step} gives {count} points from "
                                             "sigma_min to sigma_max, more than 1000000$"):
            axis("sigma", 1.0, 2.0, step)

    def test_count_at_the_cap_is_kept(self):
        assert len(axis("sigma", 0.0, 999_999.0, 1.0)) == 1_000_000
        with pytest.raises(ValueError, match="more than 1000000"):
            axis("sigma", 0.0, 1_000_000.0, 1.0)


def _reference_axis(lo, hi, step):
    """axis' values as Python rounds them, one point at a time."""
    values = [round(lo + i * step, 12) for i in range(round((hi - lo) / step) + 1)]
    return tuple(values if values[-1] <= round(hi, 12) else values[:-1])


def _bitwise(values):
    return [v.hex() for v in values]


class TestAxisKernel:
    """The vectorised axis gives round(lo + i * step, 12), bit for bit, signed zeros included."""

    @given(st.floats(-1e4, 1e4) | st.sampled_from([0.0, -0.0, 5e-13, -5e-13, 0.005, -3.5e-12]),
           st.floats(1e-9, 100.0) | st.sampled_from([0.005, 0.05, 0.1, 1e-12, 2.5e-13]),
           st.integers(0, 400))
    def test_random_axes(self, lo, step, n):
        hi = lo + n * step
        assert _bitwise(axis("x", lo, hi, step)) == _bitwise(_reference_axis(lo, hi, step))

    @pytest.mark.parametrize("lo, hi, step, flagged", [
        (0.005, 10.0, 0.005, 0),                # fig2's sigma axis
        (-0.3, 0.3, 0.1, 0),                    # negative values and a zero
        (-1e-13, 0.0, 1e-14, 0),                # every value rounds to a zero, -0.0 or 0.0
        (5e-13, 1.05e-11, 1e-12, 11),           # x.5e-12 near-ties, left to round()
        (1125.0, 1127.0, 0.25, 5),              # past 2^50 / 10^12 from 1126 on, left to round()
        (8190.0, 8194.0, 2 ** -10, 4097),       # across 2^13, from where a value is its own rounding
        (1e300, 1e300, 1.0, 1),
    ])
    def test_named_axes_and_the_fallback(self, lo, hi, step, flagged, monkeypatch):
        raw = lo + np.arange(round((hi - lo) / step) + 1) * step
        assert _round_scaled(raw, 12)[1].sum() == flagged
        rounded = []
        monkeypatch.setattr("rotorkick._text.round",
                            lambda v, d: rounded.append(v) or round(v, d), raising=False)
        assert _bitwise(axis("x", lo, hi, step)) == _bitwise(_reference_axis(lo, hi, step))
        # Python rounds the flagged values below 2^13 and no others
        assert rounded == [v for v in raw[_round_scaled(raw, 12)[1]].tolist() if abs(v) < 2 ** 13]


def _old_from_ranges_sigmas(lo, hi, step):
    """SweepGrid.from_ranges' sigma values before the axis constructor."""
    return tuple(lo + i * step for i in range(int(round((hi - lo) / step)) + 1))


def _old_cli_p(lo, hi, step):
    """The CLI's P triple before the axis constructor."""
    return tuple(np.round(lo + np.arange(int(round((hi - lo) / step)) + 1) * step, 12))


class TestAxisGate:
    """The axis constructor against the grids it replaced: the same grid
    points, drops and minima, and the same bases."""

    def test_cli_surface_p_axis(self):
        assert axis("P", 4.1, 7.25, 0.05) == _old_cli_p(4.1, 7.25, 0.05)

    def test_criterion_10_axis(self):
        old = tuple(np.round(np.arange(0.5, 10.0 + 1e-9, 0.05), 10))
        assert len(old) == 191 and axis("P", 0.5, 10.0, 0.05) == old

    def _pair(self, new, old):
        new, old = run_sweep(new), run_sweep(old)
        assert np.array_equal(new.j_max, old.j_max)
        assert np.allclose(new.table, old.table, rtol=0, atol=1e-13)
        return new, old

    def test_fig2_drops_on_the_same_grid_points(self):
        new, old = self._pair(SweepGrid.from_ranges(1.5, 0.005, 10.0, 0.005),
                              SweepGrid((1.5,), _old_from_ranges_sigmas(0.005, 10.0, 0.005)))
        assert sum(a != b for a, b in zip(new.grid.sigma_values, old.grid.sigma_values)) == 392
        index = [[r.grid.sigma_values.index(s) for _, s, _ in r.drop_loci] for r in (new, old)]
        assert index[0] == index[1] == [608, 1246, 1878]
        assert [s for _, s, _ in new.drop_loci] == [3.045, 6.235, 9.395]

    def test_surface_minima_on_the_same_cells(self):
        new, old = self._pair(
            SweepGrid.from_ranges(axis("P", 4.1, 7.25, 0.05), 5.7, 8.85, 0.05),
            SweepGrid(_old_cli_p(4.1, 7.25, 0.05), _old_from_ranges_sigmas(5.7, 8.85, 0.05)))
        cells = [[(r.grid.p_values.index(p), r.grid.sigma_values.index(s))
                  for p, s, _ in r.minima_2d] for r in (new, old)]
        assert len(cells[0]) == 5 and cells[0] == cells[1]
        assert new.minima_line_fit.slope == old.minima_line_fit.slope


class TestDetectDrops:
    def test_synthetic_single_drop(self):
        e = np.array([1.0, 0.9, 0.2, 0.9, 1.0])
        assert detect_drops(e) == [2]

    def test_shallow_minimum_rejected(self):
        e = np.array([1.0, 0.99, 0.95, 0.99, 1.0])
        assert detect_drops(e) == []

    def test_two_drops_with_shoulder(self):
        e = np.array([1.0, 0.1, 0.8, 0.2, 1.0, 1.0, 1.0])
        assert detect_drops(e) == [1, 3]

    def test_monotone_series_has_none(self):
        assert detect_drops(np.linspace(1.0, 0.1, 8)) == []

    def test_too_short(self):
        with pytest.raises(ValueError):
            detect_drops(np.array([1.0, 0.5, 1.0]))

    def test_threshold_controls_sensitivity(self):
        e = np.array([1.0, 0.9, 0.8, 0.9, 1.0])
        assert detect_drops(e, rel_threshold=0.05) == [2]
        assert detect_drops(e, rel_threshold=0.25) == []

    @pytest.mark.parametrize("threshold", [math.nan, -1.0, 0.0, 1.0, math.inf])
    def test_threshold_outside_0_1_refused(self, threshold):
        e = np.array([1.0, 0.9, 0.2, 0.9, 1.0])
        with pytest.raises(ValueError, match=r"^drop threshold must be in \(0, 1\), got "):
            detect_drops(e, threshold)
        with pytest.raises(ValueError, match=r"^drop threshold must be in \(0, 1\), got "):
            run_sweep(SweepGrid.from_ranges(1.5, 2.8, 3.2, 0.1), drop_rel_threshold=threshold)


@pytest.fixture(scope="module")
def fig_sweep():
    grid = SweepGrid.from_ranges(1.5, 0.2, 10.0, 0.02, j0=0)
    return run_sweep(grid)


class TestRunSweepPhysics:
    def test_three_drops_detected(self, fig_sweep):
        sigmas = [s for _, s, _ in fig_sweep.drop_loci]
        assert len(sigmas) == 3
        assert sigmas == pytest.approx([3.04, 6.24, 9.40], abs=0.02)

    def test_drops_match_analytic_loci(self, fig_sweep):
        sigmas = [s for _, s, _ in fig_sweep.drop_loci]
        matches = compare_drops_to_analytic(sigmas, 1.5, 0)
        assert all(m["matched"] for m in matches)
        assert [m["n"] for m in matches] == [1, 2, 3]
        assert max(abs(m["delta"]) for m in matches) < 0.05

    def test_orientation_small_at_every_drop(self, fig_sweep):
        n_sig = len(fig_sweep.grid.sigma_values)
        sig_arr = np.asarray(fig_sweep.grid.sigma_values)
        for _, s, _ in fig_sweep.drop_loci:
            isig = int(np.argmin(np.abs(sig_arr - s)))
            assert abs(fig_sweep.records[isig].orientation) < 0.02

    def test_no_failures(self, fig_sweep):
        assert fig_sweep.failures() == []

    def test_j0_1_energy_minima_near_loci(self):
        # for J0=1 the later minima are shallow (the energy stays elevated
        # between them), so look at raw local minima rather than detected drops
        grid = SweepGrid.from_ranges(1.5, 0.2, 5.0, 0.02, j0=1)
        res = run_sweep(grid, drop_rel_threshold=0.02)
        e = res.energy_surface()[0]
        sig = np.asarray(grid.sigma_values)
        minima = [sig[i] for i in range(1, e.size - 1)
                  if e[i] < e[i - 1] and e[i] < e[i + 1]]
        for z in zero_loci(1, 1.5, 3):
            assert min(abs(s - z.sigma_exact) for s in minima) < 0.25


class TestRecordIndex:
    @pytest.fixture(scope="class")
    def small(self):
        return run_sweep(SweepGrid(p_values=(1.0, 2.0), sigma_values=(1.0, 2.0, 3.0)))

    def test_in_bounds(self, small):
        for ip, p in enumerate(small.grid.p_values):
            for isig, s in enumerate(small.grid.sigma_values):
                rec = small.record(ip, isig)
                assert rec is small.records[ip * 3 + isig]
                assert (rec.p, rec.sigma) == (p, s)

    def test_hand_built_keeps_its_records(self, small):
        recs = list(small.records)
        built = SweepResult(grid=small.grid, records=recs)
        assert built.records is recs and built.record(1, 2) is recs[5]
        assert _same_bits(built.table, small.table)

    @pytest.mark.parametrize("ip, isig", [(0, 3), (-1, 0), (2, 0), (0, -1), (-1, -1)])
    def test_out_of_bounds_raises(self, small, ip, isig):
        with pytest.raises(IndexError, match="outside the 2 x 3 grid"):
            small.record(ip, isig)


# The detection loops as they stood before detection moved onto whole
# arrays, kept verbatim as the reference that detect_drops,
# detect_surface_minima and run_sweep's drops must match exactly.
def reference_detect_drops(energies, rel_threshold=0.10):
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


def reference_detect_surface_minima(result, ceiling=None):
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


def reference_drop_loci(result, rel_threshold=0.10):
    """run_sweep's drops as its per-row loop found them: rows with a failed
    point are skipped."""
    grid, n_sig = result.grid, len(result.grid.sigma_values)
    out = []
    for ip, p in enumerate(grid.p_values):
        series = result.records[ip * n_sig:(ip + 1) * n_sig]
        if any(r.failed for r in series):
            continue
        energies = np.array([r.energy for r in series])
        for isig in reference_detect_drops(energies, rel_threshold):
            out.append((p, grid.sigma_values[isig], energies[isig]))
    return out


def _surface_result(e):
    """A hand-built result with the energy surface e on a unit grid."""
    grid = SweepGrid(p_values=tuple(1.0 + np.arange(e.shape[0])),
                     sigma_values=tuple(1.0 + np.arange(e.shape[1])))
    return SweepResult(grid=grid, records=[
        PointRecord(p=p, sigma=s, j0=0, j_max=0, energy=v, orientation=0.0, alignment=0.0,
                    populations=np.ones(1), coeff_abs=np.ones(1))
        for (p, s), v in zip([(p, s) for p in grid.p_values for s in grid.sigma_values],
                             e.ravel().tolist())])


# Few distinct values, so that ties and plateaus are common, and any float.
_levels = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), st.floats())


class TestDetectionGate:
    """Detection on the arrays against the reference loops, exactly."""

    def test_fig2(self):
        res = run_sweep(SweepGrid.from_ranges(1.5, 0.005, 10.0, 0.005))
        row = res.energy_surface()[0]
        assert detect_drops(row) == reference_detect_drops(row)
        assert len(res.drop_loci) == 3
        assert res.drop_loci == reference_drop_loci(res)

    def test_surface_39(self):
        axis = tuple(np.round(0.5 + 0.25 * np.arange(39), 10))
        res = run_sweep(SweepGrid(p_values=axis, sigma_values=axis, j0=0))
        assert res.drop_loci and res.drop_loci == reference_drop_loci(res)
        assert len(res.minima_2d) >= 2
        assert res.minima_2d == reference_detect_surface_minima(res)
        for ceiling in (None, 0.05, math.inf, math.nan):
            assert (detect_surface_minima(res, ceiling)
                    == reference_detect_surface_minima(res, ceiling))

    def test_rows_with_a_failed_point_are_skipped(self, monkeypatch):
        # every row holds the same drop; a failed point at the end of the
        # second row drops that row's, as the per-row loop did
        def engine(p, sigma, j0, *args):
            table = np.zeros((p.size, 6))
            table[:, 0], table[:, 1], table[:, 3] = p, sigma, np.tile([1.0, 0.9, 0.2, 0.9, 1.0], 3)
            table[9, 3:] = math.nan
            return table, np.where(np.isnan(table[:, 3]), -1, 0), {9: "did not converge"}
        monkeypatch.setattr(rotorkick.sweep, "_evaluate", engine)
        res = run_sweep(SweepGrid(p_values=(1.0, 2.0, 3.0), sigma_values=(1.0, 2.0, 3.0, 4.0, 5.0)))
        assert res.drop_loci == reference_drop_loci(res) == [(1.0, 3.0, 0.2), (3.0, 3.0, 0.2)]

    # math.ulp(0.0) is the smallest threshold the library takes (it refuses 0): in effect,
    # every minimum of positive depth is a drop
    @given(st.lists(_levels, min_size=5, max_size=40),
           st.sampled_from([math.ulp(0.0), 0.1, 0.5]))
    def test_random_rows(self, row, threshold):
        with np.errstate(over="ignore"):
            want = reference_detect_drops(row, threshold)
        assert detect_drops(row, threshold) == want

    @given(st.integers(5, 12).flatmap(lambda n: st.lists(
        st.lists(_levels, min_size=n, max_size=n), min_size=1, max_size=6)))
    def test_random_row_stacks(self, rows):
        # the one pass over all rows that run_sweep makes, row by row
        with np.errstate(over="ignore"):        # the reference's numpy scalars at +-1e308
            want = [(r, i) for r, row in enumerate(rows) for i in reference_detect_drops(row)]
        assert rotorkick.sweep._drops(np.array(rows), 0.10) == want

    @given(st.integers(5, 8).flatmap(lambda n: st.lists(
        st.lists(_levels, min_size=n, max_size=n), min_size=5, max_size=8)),
        st.sampled_from([None, 1.0, math.inf]))
    def test_random_surfaces(self, rows, ceiling):
        res = _surface_result(np.array(rows))
        e = np.array(rows, dtype=float)
        if ceiling is None and not np.isfinite(e).any():
            assert detect_surface_minima(res) == []
            return
        want = ceiling
        if ceiling is None:         # the default: the 1st percentile of the finite cells
            want = float(np.percentile(e[np.isfinite(e)], 1.0))
        with np.errstate(invalid="ignore"):     # infinities in the percentile
            assert (detect_surface_minima(res, ceiling)
                    == reference_detect_surface_minima(res, want))

    @given(st.one_of(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=300)
        .map(np.array),
        arrays(np.float64, st.integers(1, 5000), elements=st.floats(-1e3, 1e3),
               fill=st.floats(-1e3, 1e3))))
    @example(np.array([-0.0]))
    @example(np.array([0.0, -0.0, 0.0]))
    @example(np.arange(101.0)[::-1])        # the index (n - 1) * 0.01 is exactly 1
    @example(np.arange(378) * 0.1 + 0.3)    # a weight of 0.77: numpy's second form differs
    @example(np.array([-1e308, 1e308] * 100))   # b - a overflows
    def test_default_ceiling_is_the_numpy_percentile(self, x):
        with np.errstate(all="ignore"):
            want = np.float64(np.percentile(x, 1.0)).tobytes()
        assert np.float64(rotorkick.sweep._first_percentile(x.copy())).tobytes() == want

    def test_default_ceiling_leaves_out_failed_points(self):
        rng = np.random.default_rng(7)
        e = rng.uniform(1.0, 2.0, (7, 7))
        e[3, 3] = 0.0
        assert detect_surface_minima(_surface_result(e)) == [(4.0, 4.0, 0.0)]
        e[0, 6] = math.nan
        assert detect_surface_minima(_surface_result(e)) == [(4.0, 4.0, 0.0)]
        assert len(detect_surface_minima(_surface_result(e), math.nan)) > 1
        assert detect_surface_minima(_surface_result(np.full((5, 5), math.nan))) == []


# The scalar chain converge_basis -> propagate_spectral with its operator
# builders, kept verbatim as it stood before these moved onto the shared
# spectral kernel and the cached operator bands, as the reference that the
# new path must match bit for bit.  Only the names changed, and
# reference_operator makes the checks that OperatorMatrix construction made.
def reference_operator(basis, kind, entries):
    m = np.asarray(entries, dtype=np.float64)
    if not np.array_equal(m, m.T):
        raise ValueError("operator matrix must be exactly symmetric")
    bw = {MatrixKind.COS_THETA: 1, MatrixKind.COS2_THETA: 2, MatrixKind.HAMILTONIAN: 1}[kind]
    i, j = np.indices(m.shape)
    if np.any(m[np.abs(i - j) > bw] != 0.0):
        raise ValueError(f"{kind.value} matrix has entries outside bandwidth {bw}")
    return OperatorMatrix(basis=basis, kind=kind, entries=m)


def _cos_superdiagonal(j_max: int) -> np.ndarray:
    """<J,0|cos(theta)|J+1,0> for J = 0 .. j_max-1."""
    j = np.arange(j_max, dtype=np.float64)
    return np.sqrt((j + 1) ** 2 / ((2 * j + 3) * (2 * j + 1)))


def _cos_dense(j_max: int) -> np.ndarray:
    band = _cos_superdiagonal(j_max)
    return np.diag(band, 1) + np.diag(band, -1)


def reference_build_cos_matrix(basis: RotorBasis) -> OperatorMatrix:
    """cos(theta): symmetric tridiagonal with zero diagonal (Delta J = +-1)."""
    return reference_operator(basis=basis, kind=MatrixKind.COS_THETA,
                              entries=_cos_dense(basis.j_max))


def reference_build_cos2_matrix(basis: RotorBasis) -> OperatorMatrix:
    """cos^2(theta): symmetric pentadiagonal (Delta J = 0, +-2).

    Built by squaring the cos(theta) matrix on a basis enlarged by one
    level and truncating back, so the (j_max, j_max) diagonal entry is not
    corrupted by truncation.  Exact in the m = 0 manifold.
    """
    padded = _cos_dense(basis.j_max + 1)
    sq = (padded @ padded)[: basis.dim, : basis.dim]
    sq = 0.5 * (sq + sq.T)  # symmetrize away rounding asymmetry
    # The product of tridiagonals is exactly pentadiagonal; zero the
    # round-off outside the band so the band invariant holds bit-exactly.
    i, j = np.indices(sq.shape)
    sq[np.abs(i - j) > 2] = 0.0
    return reference_operator(basis=basis, kind=MatrixKind.COS2_THETA, entries=sq)


def reference_build_hamiltonian(basis: RotorBasis, pulse: PulseSpec) -> OperatorMatrix:
    """During-pulse Hamiltonian in reduced time: sigma * J^2 - P * cos(theta).

    (eta * sigma = P, so the off-diagonal band is P times the cos band.)
    """
    j = basis.j_values().astype(np.float64)
    h = np.diag(pulse.sigma * j * (j + 1)) - pulse.strength * _cos_dense(basis.j_max)
    return reference_operator(basis=basis, kind=MatrixKind.HAMILTONIAN, entries=h)


def _report(c: np.ndarray, basis: RotorBasis, j0: int, method: Method,
            warning: str | None = None) -> PropagationReport:
    pop = np.abs(c) ** 2
    return PropagationReport(
        final=Wavepacket(basis=basis, coefficients=c, j0=j0),
        method=method,
        norm_drift=abs(1.0 - float(pop.sum())),
        basis_leak=float(pop[-2:].sum()),
        warning=warning,
    )


def reference_propagate_spectral(pulse: PulseSpec, j0: int,
                                 basis: RotorBasis) -> PropagationReport:
    """Exact propagation: C(1) = U exp(-i Lambda) U^T C(0).

    Exact for the rectangular pulse because the Hamiltonian is constant
    on tau in [0, 1]; unitary, so the norm is preserved to machine
    precision.
    """
    if not 0 <= j0 <= basis.j_max:
        raise ValueError(f"J0={j0} outside basis (j_max={basis.j_max})")
    h = reference_build_hamiltonian(basis, pulse).entries
    evals, u = np.linalg.eigh(h)
    c0 = np.zeros(basis.dim, dtype=np.complex128)
    c0[j0] = 1.0
    c1 = u @ (np.exp(-1j * evals) * (u.T @ c0))
    return _report(c1, basis, j0, Method.SPECTRAL)


def reference_converge_basis(pulse: PulseSpec, j0: int, leak_tol: float = 1e-10,
                             j_max_cap: int = 400) -> RotorBasis:
    """Smallest basis (j_max = J0 + 4, growing by 4) whose top-two-state
    population after spectral propagation is below leak_tol."""
    if not 0 < leak_tol < 1:
        raise ValueError(f"leak_tol must be in (0, 1), got {leak_tol}")
    j_max = j0 + 4
    while j_max <= j_max_cap:
        basis = RotorBasis(j_max=j_max)
        if reference_propagate_spectral(pulse, j0, basis).basis_leak < leak_tol:
            return basis
        j_max += 4
    raise ConvergenceError(
        f"basis leak still above {leak_tol} at j_max={j_max_cap} "
        f"(P={pulse.strength}, sigma={pulse.sigma}, J0={j0})")


def _scalar_record(p, sigma, j0, j_max=None, leak_tol=1e-10):
    """One point through the reference scalar chain, as a PointRecord."""
    pulse = PulseSpec(strength=p, sigma=sigma)
    try:
        basis = (reference_converge_basis(pulse, j0, leak_tol=leak_tol) if j_max is None
                 else RotorBasis(j_max=j_max))
    except ConvergenceError as exc:
        return PointRecord(p=p, sigma=sigma, j0=j0, j_max=-1, energy=math.nan,
                           orientation=math.nan, alignment=math.nan,
                           populations=np.array([]), coeff_abs=np.array([]),
                           failed=True, error=str(exc))
    psi = reference_propagate_spectral(pulse, j0, basis).final
    obs = compute_all(psi, reference_build_cos_matrix(basis), reference_build_cos2_matrix(basis))
    return PointRecord(p=p, sigma=sigma, j0=j0, j_max=basis.j_max,
                       energy=obs.kinetic_energy, orientation=obs.orientation,
                       alignment=obs.alignment, populations=obs.populations,
                       coeff_abs=np.abs(psi.coefficients))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_record(got, want):
    assert (got.p, got.sigma, got.j0, got.j_max, got.failed, got.error) == \
        (want.p, want.sigma, want.j0, want.j_max, want.failed, want.error)
    for name in ("energy", "orientation", "alignment", "populations", "coeff_abs"):
        assert _same_bits(getattr(got, name), getattr(want, name)), name


def _scalar_sweep(grid):
    """run_sweep's detection applied to records from the scalar chain."""
    n_sig = len(grid.sigma_values)
    res = SweepResult(grid=grid, records=[_scalar_record(p, s, grid.j0)
                                          for p in grid.p_values for s in grid.sigma_values])
    for ip, p in enumerate(grid.p_values):
        e = np.array([r.energy for r in res.records[ip * n_sig:(ip + 1) * n_sig]])
        res.drop_loci += [(p, grid.sigma_values[i], e[i]) for i in detect_drops(e)]
    if len(grid.p_values) >= 5:
        res.minima_2d = detect_surface_minima(res)
        res.minima_line_fit = fit_minima_line([(p, s) for p, s, _ in res.minima_2d])
    return res


@pytest.fixture(params=["default stack", "two-point stacks"])
def stack_entries(request, monkeypatch):
    """Run the engine with its own stack size, and with stacks of at most two
    points, so that splitting a rung into several eigensolves is covered."""
    if request.param == "two-point stacks":
        monkeypatch.setattr(rotorkick.sweep, "_STACK_ENTRIES", 50)
    return request.param


class TestBatchedEngine:
    """The batched engine against the reference scalar chain."""

    def test_random_sample_matches_scalar_chain(self, stack_entries):
        rng = np.random.default_rng(20261018)
        p = rng.uniform(0.0, 10.0, 200).tolist()
        s = rng.uniform(0.005, 10.0, 200).tolist()
        j0 = rng.integers(0, 3, 200)
        for j in (0, 1, 2):
            idx = np.flatnonzero(j0 == j)
            got = evaluate_points([p[k] for k in idx], [s[k] for k in idx], j)
            for k, rec in zip(idx, got):
                _assert_same_record(rec, _scalar_record(p[k], s[k], j))

    def test_fixed_basis_matches_scalar_chain(self, stack_entries):
        p, s = [0.0, 1.5, 4.0, 9.5], [0.01, 3.0, 6.2, 10.0]
        for j0 in (0, 1, 2):
            got = evaluate_points(p, s, j0, j_max=9)
            for pi, si, rec in zip(p, s, got):
                _assert_same_record(rec, _scalar_record(pi, si, j0, j_max=9))

    def test_failed_point_matches_convergence_error(self):
        p, s = [500.0, 1.5], [0.001, 3.0]
        got = evaluate_points(p, s, 0, leak_tol=1e-14)
        assert got[0].failed and not got[1].failed
        for pi, si, rec in zip(p, s, got):
            _assert_same_record(rec, _scalar_record(pi, si, 0, leak_tol=1e-14))

    def test_fig2_detection_matches_scalar_chain(self, fig_sweep):
        want = _scalar_sweep(fig_sweep.grid)
        for got_rec, want_rec in zip(fig_sweep.records, want.records):
            _assert_same_record(got_rec, want_rec)
        assert fig_sweep.drop_loci == want.drop_loci

    def test_surface_detection_matches_scalar_chain(self):
        axis = tuple(np.round(0.5 + 0.25 * np.arange(39), 10))
        grid = SweepGrid(p_values=axis, sigma_values=axis, j0=0)
        got, want = run_sweep(grid), _scalar_sweep(grid)
        assert got.drop_loci == want.drop_loci
        assert len(got.minima_2d) >= 2
        assert got.minima_2d == want.minima_2d
        assert got.minima_line_fit == want.minima_line_fit

    def test_mixed_rungs_and_failed_row_match_scalar_chain(self):
        # points converged on six basis sizes and two failed points inside a
        # row: the zero padding across rungs and the failed rows of the table
        grid = SweepGrid(p_values=(1.5, 500.0), sigma_values=(0.001, 0.002, 0.5, 1.0, 3.0, 6.0),
                         leak_tol=1e-14)
        got = run_sweep(grid)
        want = [_scalar_record(p, s, 0, leak_tol=1e-14)
                for p in grid.p_values for s in grid.sigma_values]
        assert sorted({r.j_max for r in want if not r.failed}) == [8, 12, 24, 28, 44, 60]
        assert [r.failed for r in want] == [False] * 6 + [True, True] + [False] * 4
        for got_rec, want_rec in zip(got.records, want):
            _assert_same_record(got_rec, want_rec)
        assert got.failures() == got.records[6:8]
        # the columns are those of a result built from the scalar chain's records
        built = SweepResult(grid=grid, records=want)
        assert _same_bits(got.table, built.table) and got.table.shape == (12, 6 + 2 * 61)
        assert np.array_equal(got.j_max, built.j_max) and got.errors == built.errors

    def test_no_points(self):
        assert evaluate_points([], [], 0) == []

    @pytest.mark.parametrize("kwargs", [dict(j0=-1), dict(j0=10, j_max=9), dict(j0=0, j_max=0),
                                        dict(j0=0, leak_tol=0.0)])
    def test_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            evaluate_points([1.5], [3.0], **kwargs)

    @pytest.mark.parametrize("j0", [-1, 1.5, True, np.int64(-1)])
    @pytest.mark.parametrize("j_max", [None, 9], ids=["auto", "fixed"])
    def test_j0_must_be_an_integer_at_least_0(self, j0, j_max):
        with pytest.raises(ValueError, match=r"^J0 must be an integer >= 0, got "):
            evaluate_points([1.0], [1.0], j0, j_max=j_max)

    @pytest.mark.parametrize("p, s", [([1.5, math.nan], [3.0, 3.0]), ([math.inf], [3.0]),
                                      ([-1.0], [3.0]), ([1.5], [0.0]), ([1.5], [math.inf]),
                                      ([1.5, 2.0], [3.0])])
    def test_bad_points(self, p, s):
        with pytest.raises(ValueError):
            evaluate_points(p, s, 0)


class TestStream:
    """Each rung walks its points in consecutive stacks within the budget, a stack's
    observables made before the next stack is solved, with the bits of one stack.
    The first rung J0 + 4 is solved inside each J0 + 8 stack, on the points of that
    stack whose floor does not prove that they leak there."""

    MIXED = SweepGrid(p_values=(1.5, 500.0), sigma_values=(0.001, 0.002, 0.5, 1.0, 3.0, 6.0),
                      leak_tol=1e-14)
    BLOCK = SweepGrid(p_values=axis("P", 4.1, 4.85, 0.05), sigma_values=axis("sigma", 5.7, 6.45, 0.05))
    # points proved to leak at J0 + 4 (sigma 0.5, 3, 7), tried there and kept (6, 9, 10), and
    # tried there and passed on to J0 + 8 (8)
    LINE = SweepGrid(p_values=(1.5,), sigma_values=(0.5, 3.0, 6.0, 7.0, 8.0, 9.0, 10.0))
    GRIDS = (MIXED, BLOCK, LINE)

    @pytest.fixture(scope="class")
    def one_stack(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rotorkick.sweep, "_STACK_ENTRIES", 1 << 40)
            return [run_sweep(grid) for grid in self.GRIDS]

    @pytest.mark.parametrize("entries", [rotorkick.sweep._STACK_ENTRIES, 200])
    def test_stacks_equal_one_stack(self, monkeypatch, one_stack, entries):
        # every rung of the mixed grid, failed points up to the cap included, a
        # 16 x 16 block and a line; 200 entries cut rungs 4 and 8 into several stacks
        monkeypatch.setattr(rotorkick.sweep, "_STACK_ENTRIES", entries)
        for grid, want in zip(self.GRIDS, one_stack):
            res = run_sweep(grid)
            assert _same_bits(res.table, want.table) and _same_bits(res.j_max, want.j_max)
            assert res.errors == want.errors and res.drop_loci == want.drop_loci
            assert res.minima_2d == want.minima_2d
            assert res.minima_line_fit == want.minima_line_fit

    @pytest.mark.parametrize("entries", [rotorkick.sweep._STACK_ENTRIES, 200])
    def test_stacks_stay_within_the_budget(self, monkeypatch, entries):
        # a stack holds at most the budget's entries, or one matrix; a J0 + 8 stack
        # is followed by the J0 + 4 solve of exactly its points not proved to leak
        # there; the points a stack converges get their observables right after its
        # solves, rung 4's first, before the next stack is solved; and a rung's
        # stacks take its points in order, each once
        monkeypatch.setattr(rotorkick.sweep, "_STACK_ENTRIES", entries)
        solve, expectations, events = (rotorkick.sweep._propagate_points,
                                       rotorkick.sweep._expectations, [])

        def spy_solve(p, sigma, j0, j_max, floor_at=None):
            out = solve(p, sigma, j0, j_max, floor_at)
            c, floor = out if floor_at is not None else (out, None)
            events.append(("solve", j_max, list(zip(p.tolist(), sigma.tolist())),
                           (rotorkick.propagate._leak(c) < tol).tolist(),
                           None if floor is None else (floor >= bar).tolist()))
            return out

        def spy_expectations(c, *args):
            events.append(("observables", len(c)))
            return expectations(c, *args)
        monkeypatch.setattr(rotorkick.sweep, "_propagate_points", spy_solve)
        monkeypatch.setattr(rotorkick.sweep, "_expectations", spy_expectations)
        for grid in (self.MIXED, self.LINE):
            tol, bar = grid.leak_tol, 2 * math.sqrt(grid.leak_tol)
            events.clear()
            result = run_sweep(grid)
            self._assert_stream(grid, result, events, entries, solve, bar)

    @staticmethod
    def _assert_stream(grid, result, events, entries, solve, bar):
        n_sig = len(grid.sigma_values)
        points = list(zip(np.repeat(grid.p_values, n_sig).tolist(),
                          np.tile(grid.sigma_values, len(grid.p_values)).tolist()))
        rungs, i = {}, 0
        while i < len(events):
            assert events[i][0] == "solve"
            _, j_max, stack, done, proved = events[i]
            rungs.setdefault(j_max, []).append(stack)
            i += 1
            if proved is not None:      # J0 + 8, with J0 + 4 inside it
                assert j_max == 8
                tried = [x for x, pr in zip(stack, proved) if not pr]
                done4 = [False] * len(stack)
                if tried:
                    assert events[i][:3] == ("solve", 4, tried) and events[i][4] is None
                    rungs.setdefault(4, []).append(tried)
                    kept = iter(events[i][3])
                    done4 = [not pr and next(kept) for pr in proved]
                    i += 1
                    if any(done4):
                        assert events[i] == ("observables", sum(done4))
                        i += 1
                done = [d and not d4 for d, d4 in zip(done, done4)]
            if any(done):
                assert events[i] == ("observables", sum(done))
                i += 1
        top = 400 if result.errors else int(result.j_max.max())
        assert sorted(rungs) == list(range(4, top + 1, 4))
        # J0 + 4 solves exactly the points whose floor does not prove that they leak
        floor = solve(*map(np.array, zip(*points)), 0, 8, 4)[1]
        assert sum(rungs[4], []) == [x for x, f in zip(points, floor.tolist()) if not f >= bar]
        assert 0 < len(sum(rungs[4], [])) < len(points)
        for j_max, stacks in rungs.items():     # the points left, in grid order, each once
            rung, per = sum(stacks, []), max(1, entries // (j_max + 1) ** 2)
            assert rung == sorted(set(rung), key=points.index)
            if j_max == 4:      # subsets of the J0 + 8 stacks
                assert all(len(stack) <= max(1, entries // 9 ** 2) for stack in stacks)
            else:
                assert [len(stack) for stack in stacks] == [
                    min(per, len(rung) - a) for a in range(0, len(rung), per)]

    def test_leaves_no_reference_cycle(self):
        # a sweep's arrays are freed when it returns, not when the cyclic collector
        # next runs (a closure that called itself once held them, +0.8 MiB peak RSS)
        run_sweep(self.LINE)
        gc.collect()
        gc.disable()
        try:
            run_sweep(self.LINE)
            run_sweep(self.BLOCK)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("p_axis, sigma_axis", [
        ((1.5,), (0.005, 10.0, 0.005)),                         # fig2
        ((4.1, 7.25, 0.05), (5.7, 8.85, 0.05)),                 # the 64 x 64 block
        ((0.5, 6.85, 0.05), (0.5, 6.85, 0.05)),                 # 128 x 128, four times it
    ], ids=["fig2", "block", "128x128"])
    def test_traced_peak_within_twice_the_table(self, p_axis, sigma_axis):
        # a sweep holds one stack's working arrays and the converged rows beside
        # its table, never a whole rung's temporaries
        grid = SweepGrid(p_values=axis("P", *p_axis) if len(p_axis) > 1 else p_axis,
                         sigma_values=axis("sigma", *sigma_axis))
        run_sweep(grid)     # the bands and the axis caches, filled before the trace
        tracemalloc.start()
        try:
            result = run_sweep(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * result.table.nbytes + 2 * 2 ** 20, (peak, result.table.nbytes)


def reference_evaluate(p, sigma, j0, leak_tol):
    """The auto ladder without the floor, one stack a rung: every point is solved on
    J0 + 4, J0 + 8, ... in turn until its leak is below leak_tol.  The engine's
    (table, j_max, errors)."""
    p, sigma = np.asarray(p, dtype=float), np.asarray(sigma, dtype=float)
    rows, levels, active = [], np.full(p.size, -1), np.arange(p.size)
    for jm in range(j0 + 4, 401, 4):
        if not active.size:
            break
        c = _propagate_points(p[active], sigma[active], j0, jm)
        done = _leak(c) < leak_tol
        if done.any():
            c = c[done]
            pop = abs(c) ** 2
            rows.append((jm, active[done], np.column_stack(_expectations(
                c, pop, _j2(jm), *_bands(jm)[1:])), pop, np.abs(c)))
            levels[active[done]] = jm
        active = active[~done]
    k = levels.max() + 1
    table = np.zeros((p.size, 6 + 2 * k))
    table[:, 0], table[:, 1], table[:, 2], table[:, 3:6] = p, sigma, j0, math.nan
    for jm, idx, obs, pop, c_abs in rows:
        table[idx, 3:6], table[idx, 6:7 + jm], table[idx, 6 + k:7 + k + jm] = obs, pop, c_abs
    return table, levels, {i: _leak_error(leak_tol, p[i].item(), sigma[i].item(), j0)
                           for i in active.tolist()}


@st.composite
def ladder_cases(draw):
    """(P, sigma, J0, leak_tol) for up to six points: P in [0, 30] and sigma in (0, 20],
    each drawn half the time from [0, 1] and [10, 20], where more points pass at J0 + 4."""
    n = draw(st.integers(1, 6))
    p = draw(st.lists(st.one_of(st.floats(0.0, 30.0), st.floats(0.0, 1.0)),
                      min_size=n, max_size=n))
    s = draw(st.lists(st.one_of(st.floats(0.0, 20.0, exclude_min=True), st.floats(10.0, 20.0)),
                      min_size=n, max_size=n))
    return (np.array(p), np.array(s), draw(st.integers(0, 3)),
            draw(st.integers(-14, -2).map(lambda e: 10.0 ** e)))


class TestLeakFloor:
    """The J0 + 8 eigendecomposition's floor under the J0 + 4 leak, and the ladder
    that skips the J0 + 4 solves it proves to fail, against the plain ladder."""

    @given(ladder_cases())
    @example((np.array([0.0, 1.5, 1.5, 30.0]), np.array([1.0, 6.0, 7.0, 1e-3]), 0, 1e-10))
    def test_floor_under_the_leak(self, case):
        p, s, j0, _ = case
        leak = _leak(_propagate_points(p, s, j0, j0 + 4))
        floor = _propagate_points(p, s, j0, j0 + 8, j0 + 4)[1]
        assert np.all(np.sqrt(leak) >= floor - 1e-12), (np.sqrt(leak), floor)

    @pytest.mark.parametrize("p, s", [(1e300, 1.0), (1.0, 1e300), (1e300, 1e300)])
    def test_huge_points_prove_nothing(self, p, s):
        # the rounding slack swamps the bound, or overflows to -inf or NaN
        floor = _propagate_points(np.array([p]), np.array([s]), 3, 11, 7)[1]
        assert not floor[0] > 0

    @given(ladder_cases())
    @example((np.array([0.5, 1.5, 1.5, 1.5]), np.array([20.0, 6.0, 7.0, 8.0]), 0, 1e-14))
    @example((np.array([0.0, 5.0, 1e-300]), np.array([1e300, 5e-324, 1e300]), 3, 1e-10))
    def test_same_bits_as_the_plain_ladder(self, case):
        got = rotorkick.sweep._evaluate(*case[:3], None, case[3])
        want = reference_evaluate(*case)
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
        assert got[2] == want[2]


class TestWorkCount:
    """The matrices and _solve calls per basis size that a sweep makes, exactly: a
    rung solved twice, a proof that skips nothing or a budget cut in half shows
    here, with no timing."""

    @staticmethod
    def count(monkeypatch, grid):
        solve, counts = rotorkick.propagate._solve, {}

        def spy(p, sigma, j0, j_max, *floor_at):
            matrices, calls = counts.get(j_max, (0, 0))
            counts[j_max] = (matrices + len(p), calls + 1)
            return solve(p, sigma, j0, j_max, *floor_at)
        monkeypatch.setattr(rotorkick.propagate, "_solve", spy)
        run_sweep(grid)
        return counts

    def test_fig2(self, monkeypatch):
        grid = SweepGrid.from_ranges(1.5, 0.005, 10.0, 0.005)
        assert self.count(monkeypatch, grid) == {4: (707, 5), 8: (2000, 5), 12: (47, 1)}

    def test_surface_block(self, monkeypatch):
        # the benchmark's 64 x 64 block: every point proved to leak at J0 + 4
        grid = SweepGrid(p_values=axis("P", 4.1, 7.25, 0.05),
                         sigma_values=axis("sigma", 5.7, 8.85, 0.05))
        assert self.count(monkeypatch, grid) == {8: (4096, 11)}


def _seeded_points():
    rng = np.random.default_rng(20261018)
    return (rng.uniform(0.0, 10.0, 200).tolist(), rng.uniform(0.005, 10.0, 200).tolist(),
            rng.integers(0, 3, 200).tolist())


class TestKernelGate:
    """The public scalar chain and its builders, now on the shared kernel and
    the cached bands, against the reference chain, bit for bit."""

    @staticmethod
    def _assert_same_point(pulse, j0, basis):
        got = propagate_spectral(pulse, j0, basis)
        want = reference_propagate_spectral(pulse, j0, basis)
        assert _same_bits(got.final.coefficients, want.final.coefficients)
        assert (got.basis_leak, got.norm_drift, got.method) == \
            (want.basis_leak, want.norm_drift, want.method)
        builders = [(build_hamiltonian(basis, pulse), reference_build_hamiltonian(basis, pulse)),
                    (build_cos_matrix(basis), reference_build_cos_matrix(basis)),
                    (build_cos2_matrix(basis), reference_build_cos2_matrix(basis))]
        for new, ref in builders:
            assert new.kind is ref.kind and _same_bits(new.entries, ref.entries), ref.kind
        obs = compute_all(got.final, builders[1][0], builders[2][0])
        ref = compute_all(want.final, builders[1][1], builders[2][1])
        for name in ("kinetic_energy", "orientation", "alignment", "populations"):
            assert _same_bits(getattr(obs, name), getattr(ref, name)), name

    def test_random_sample_matches_reference(self):
        for p, s, j0 in zip(*_seeded_points()):
            pulse = PulseSpec(p, s)
            basis = converge_basis(pulse, j0)
            assert basis == reference_converge_basis(pulse, j0)
            self._assert_same_point(pulse, j0, basis)

    def test_fixed_basis_matches_reference(self):
        for p, s in zip([0.0, 1.5, 4.0, 9.5], [0.01, 3.0, 6.2, 10.0]):
            for j0 in (0, 1, 2):
                self._assert_same_point(PulseSpec(p, s), j0, RotorBasis(9))

    def test_failing_point_matches_reference(self):
        pulse = PulseSpec(500.0, 0.001)
        with pytest.raises(ConvergenceError) as got:
            converge_basis(pulse, 0, leak_tol=1e-14)
        with pytest.raises(ConvergenceError) as want:
            reference_converge_basis(pulse, 0, leak_tol=1e-14)
        assert str(got.value) == str(want.value)
        assert evaluate_point(500.0, 0.001, 0, leak_tol=1e-14).error == str(want.value)

    @pytest.mark.parametrize("j0, kwargs", [(0, dict(j_max_cap=12)), (-1, {}),
                                            (0, dict(leak_tol=0.0)), (0, dict(leak_tol=1.0))])
    def test_same_exceptions_as_reference(self, j0, kwargs):
        pulse = PulseSpec(10.0, 0.1)
        with pytest.raises((ValueError, ConvergenceError)) as want:
            reference_converge_basis(pulse, j0, **kwargs)
        with pytest.raises(want.type) as got:
            converge_basis(pulse, j0, **kwargs)
        assert str(got.value) == str(want.value)

    def test_j0_outside_basis(self):
        for j0 in (-1, 5):
            with pytest.raises(ValueError, match=f"J0={j0} outside basis \\(j_max=4\\)"):
                propagate_spectral(PulseSpec(1.0, 1.0), j0, RotorBasis(4))


class TestBasisChoiceProperty:
    """Auto mode's rule, in converge_basis and in evaluate_points: the chosen
    j_max is on the ladder J0 + 4, J0 + 8, ..., its leak is below leak_tol,
    and the leak one rung lower is not.  The leak need not fall monotonically,
    so nothing is claimed about the rungs below that."""

    @given(st.floats(0.0, 10.0), st.floats(0.005, 10.0), st.integers(0, 3),
           st.integers(-14, -2).map(lambda e: 10.0 ** e))
    def test_leak_rule(self, p, sigma, j0, leak_tol):
        def leak(j_max):
            return evaluate_point(p, sigma, j0, j_max).populations[-2:].sum()

        rec = evaluate_point(p, sigma, j0, leak_tol=leak_tol)
        chosen = {"converge_basis": converge_basis(PulseSpec(p, sigma), j0, leak_tol).j_max,
                  "evaluate_points": rec.j_max}
        assert rec.populations[-2:].sum() < leak_tol
        for name, j_max in chosen.items():
            assert j_max >= j0 + 4 and (j_max - j0) % 4 == 0, name
            assert leak(j_max) < leak_tol, name
            if j_max > j0 + 4:
                assert not leak(j_max - 4) < leak_tol, name


class TestDeterminism:
    def test_pickle_round_trip(self):
        grid = SweepGrid.from_ranges(1.5, 1.0, 2.0, 0.2, j0=0)
        res = run_sweep(grid)
        clone = pickle.loads(pickle.dumps(res))
        assert np.array_equal(
            np.array([r.energy for r in clone.records]),
            np.array([r.energy for r in res.records]))


class TestEvaluatePoint:
    def test_fixed_basis(self):
        rec = evaluate_point(1.5, 3.0, 0, j_max=9)
        assert rec.j_max == 9
        assert rec.populations.size == 10
        assert not rec.failed

    def test_grid_with_j_max_runs_fixed(self):
        assert SweepGrid(p_values=(1.5,), sigma_values=(3.0,)).j_max is None
        grid = SweepGrid(p_values=(0.5, 1.5), sigma_values=(1.0, 3.0), j0=1, j_max=9)
        res = run_sweep(grid)
        assert res.j_max.tolist() == [9] * 4 and res.table.shape == (4, 6 + 2 * 10)
        for rec in res.records:
            _assert_same_record(rec, _scalar_record(rec.p, rec.sigma, 1, j_max=9))

    def test_failure_marked_not_raised(self):
        rec = evaluate_point(500.0, 0.001, 0, leak_tol=1e-14)
        assert rec.failed
        assert math.isnan(rec.energy)
        assert rec.error

    def test_sweep_keeps_failed_points(self):
        grid = SweepGrid(p_values=(500.0,), sigma_values=(0.001, 0.002, 0.003, 0.004, 0.005),
                         j0=0, leak_tol=1e-14)
        res = run_sweep(grid)
        assert len(res.failures()) == 5
        assert res.drop_loci == []


class TestSurfaceMinima:
    def test_synthetic_bowl(self):
        grid = SweepGrid(p_values=tuple(np.linspace(1, 5, 7)),
                         sigma_values=tuple(np.linspace(1, 5, 7)), j0=0)
        # build a result by hand: paraboloid with a single interior minimum
        from rotorkick.sweep import PointRecord, SweepResult
        records = []
        for p in grid.p_values:
            for s in grid.sigma_values:
                e = (p - 3.0) ** 2 + (s - 3.0) ** 2
                records.append(PointRecord(p=p, sigma=s, j0=0, j_max=9, energy=e,
                                           orientation=0.0, alignment=0.0,
                                           populations=np.array([1.0]),
                                           coeff_abs=np.array([1.0])))
        sr = SweepResult(grid=grid, records=records)
        minima = detect_surface_minima(sr, ceiling=0.5)
        assert minima == [(3.0, 3.0, 0.0)]

    def test_grid_too_small(self):
        from rotorkick.sweep import PointRecord, SweepResult
        grid = SweepGrid(p_values=(1.0, 2.0), sigma_values=(1.0, 2.0), j0=0)
        recs = [PointRecord(p=p, sigma=s, j0=0, j_max=9, energy=1.0,
                            orientation=0.0, alignment=0.0,
                            populations=np.array([1.0]), coeff_abs=np.array([1.0]))
                for p in grid.p_values for s in grid.sigma_values]
        with pytest.raises(ValueError):
            detect_surface_minima(SweepResult(grid=grid, records=recs))


class TestLineFit:
    def test_nearest_parabola(self):
        z = zero_loci(0, 1.5, 3)
        assert nearest_parabola_index(1.5, z[0].sigma_exact + 0.01) == 1
        assert nearest_parabola_index(1.5, z[1].sigma_exact - 0.01) == 2

    def test_recovers_shared_slope_exactly(self):
        # synthetic collinear clusters: sigma = 0.577 * P + b_n, points chosen
        # close enough to each parabola that clustering keeps them together
        slope = 0.577
        pts = []
        for n, b in ((1, 2.9), (2, 6.1)):
            for p in (0.2, 0.5, 0.8):
                pts.append((p, slope * p + b))
        fit = fit_minima_line(pts)
        assert fit.slope == pytest.approx(slope, abs=1e-6)
        assert fit.rms_residual < 1e-9
        assert fit.intercepts[1] == pytest.approx(2.9, abs=1e-9)
        assert fit.intercepts[2] == pytest.approx(6.1, abs=1e-9)

    def test_single_point_clusters_rejected(self):
        with pytest.raises(ValueError):
            fit_minima_line([(1.0, 3.0), (1.0, 6.2)])

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_minima_line([(1.0, 3.0)])


class TestCompareDrops:
    def test_unmatched_flagged(self):
        out = compare_drops_to_analytic([1.0], 1.5, 0)
        assert out[0]["matched"] is False
        assert out[0]["n"] is None

    def test_drop_past_the_last_branch_is_unmatched(self):
        # zero_loci scans at most _N_MAX_CAP branches, which end near sigma = 3.1e5
        out = compare_drops_to_analytic([3.0, 1e7], 1.5, 0)
        assert [row["n"] for row in out] == [1, None]

    def test_bad_j0(self):
        with pytest.raises(ValueError):
            compare_drops_to_analytic([3.0], 1.5, 2)

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_non_finite_strength_rejected(self, p):
        # not an ordinary "unmatched" drop
        with pytest.raises(ValueError, match="^P must be finite"):
            compare_drops_to_analytic([3.0], p, 0)
