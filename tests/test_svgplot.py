import dataclasses
import math
import re
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from rotorkick import PulseSpec, RotorBasis, SweepGrid, Wavepacket, delta_kick, run_sweep
from rotorkick import svgplot
from rotorkick.cli import main
from rotorkick.svgplot import (H, LEGEND_ROWS, MARGIN, PALETTE, W, MissingSeriesError, PlotKind,
                               _Canvas, _ticks, angular_density, emit_plot)
from rotorkick._text import _round_scaled
from rotorkick.sweep import PointRecord, SweepResult

SVG = "{http://www.w3.org/2000/svg}"


# The figures as they were drawn point by point and cell by cell, kept as
# the reference the array renderer must match byte for byte.

def reference_polyline(cv, xs, ys, color, label=None, idx=0):
    pts = " ".join(f"{cv.px(x):.2f},{cv.py(y):.2f}" for x, y in zip(xs, ys))
    cv.parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                    'stroke-width="1.3"/>')
    if label:
        y = MARGIN + 2 + 14 * idx
        cv.parts.append(f'<line x1="{W - MARGIN - 90}" y1="{y}" x2="{W - MARGIN - 70}" '
                        f'y2="{y}" stroke="{color}" stroke-width="2"/>')
        cv.parts.append(f'<text x="{W - MARGIN - 64}" y="{y + 4}">{escape(label)}</text>')


def reference_line_figure(result, series, title, ylabel):
    sigmas = np.asarray(result.grid.sigma_values)
    n_sig = sigmas.size
    curves = []
    for ip, p in enumerate(result.grid.p_values):
        recs = result.records[ip * n_sig:(ip + 1) * n_sig]
        ys = np.array([getattr(r, series) for r in recs])
        curves.append((f"P={p:g}", sigmas, ys))
    ymin = min(float(np.nanmin(c[2])) for c in curves)
    ymax = max(float(np.nanmax(c[2])) for c in curves)
    pad = 0.05 * (ymax - ymin or 1.0)
    cv = _Canvas((float(sigmas[0]), float(sigmas[-1])), (ymin - pad, ymax + pad),
                 title, "pulse duration sigma", ylabel)
    for i, (label, xs, ys) in enumerate(curves):
        reference_polyline(cv, xs, ys, PALETTE[i % len(PALETTE)],
                           label if len(curves) > 1 else None, i)
    return cv.svg()


def reference_coeffs_figure(result, n_coeffs=3):
    sigmas = np.asarray(result.grid.sigma_values)
    cv = _Canvas((float(sigmas[0]), float(sigmas[-1])), (0.0, 1.05),
                 f"|C_J| vs sigma (P={result.grid.p_values[0]:g}, J0={result.grid.j0})",
                 "pulse duration sigma", "|C_J|")
    for j in range(n_coeffs):
        ys = np.array([r.coeff_abs[j] if j < r.coeff_abs.size else 0.0
                       for r in result.records])
        reference_polyline(cv, sigmas, ys, PALETTE[j % len(PALETTE)], f"|C_{j}|", j)
    return cv.svg()


def reference_heat_color(v):
    v = min(1.0, max(0.0, v))
    r = int(255 * min(1.0, 2 * v))
    g = int(255 * v)
    b = int(255 * max(0.0, 1.0 - 1.5 * v))
    return f"#{r:02x}{g:02x}{b:02x}"


def reference_heatmap_figure(result):
    e = result.energy_surface()
    loge = np.log10(np.maximum(e, 1e-16))
    lo, hi = float(loge.min()), float(loge.max())
    ps = np.asarray(result.grid.p_values)
    sigmas = np.asarray(result.grid.sigma_values)
    cv = _Canvas((float(sigmas[0]), float(sigmas[-1])), (float(ps[0]), float(ps[-1])),
                 f"log10 kinetic energy over (P, sigma), J0={result.grid.j0}",
                 "pulse duration sigma", "pulse strength P")
    dw = (W - 2 * MARGIN) / sigmas.size
    dh = (H - 2 * MARGIN) / ps.size
    for ip in range(ps.size):
        for isig in range(sigmas.size):
            v = (loge[ip, isig] - lo) / (hi - lo or 1.0)
            x = MARGIN + isig * dw
            y = (H - MARGIN - 16) - (ip + 1) * dh
            cv.parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{dw + 0.5:.2f}" '
                            f'height="{dh + 0.5:.2f}" fill="{reference_heat_color(v)}"/>')
    return cv.svg()


def reference_polar_figure(psi, title):
    theta, dens = angular_density(psi)
    r = dens / dens.max() if dens.max() > 0 else dens
    cx, cy, scale = W / 2, H / 2, (H - 2 * MARGIN) / 2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W / 2}" y="20" text-anchor="middle" font-size="14">{escape(title)}</text>',
        f'<line x1="{cx}" y1="{MARGIN}" x2="{cx}" y2="{H - MARGIN}" '
        'stroke="#999" stroke-dasharray="4 3"/>',
    ]
    for sign in (1, -1):
        pts = " ".join(
            f"{cx + sign * scale * ri * math.sin(t):.2f},{cy - scale * ri * math.cos(t):.2f}"
            for t, ri in zip(theta, r))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{PALETTE[0]}" '
                     'stroke-width="1.5"/>')
    return "\n".join(parts + ["</svg>"]) + "\n"


LINE_SERIES = [("energy", "kinetic energy vs sigma (J0=0)", "kinetic energy / B"),
               ("orientation", "orientation vs sigma (J0=0)", "<cos theta>"),
               ("alignment", "alignment vs sigma (J0=0)", "<cos^2 theta>")]


def failed(rec):
    """rec as the sweep engine reports a point that did not converge."""
    return dataclasses.replace(rec, j_max=-1, energy=math.nan, orientation=math.nan,
                               alignment=math.nan, populations=np.array([]),
                               coeff_abs=np.array([]), failed=True, error="did not converge")


def with_failures(result, indices):
    records = list(result.records)
    for k in indices:
        records[k] = failed(records[k])
    return SweepResult(grid=result.grid, records=records)


def cell_fills(svg_text):
    """Fill colours of the heatmap cells, row-major (P outer, sigma inner)."""
    return re.findall(r'<rect x="[^"]*" y="[^"]*" width="[^"]*" height="[^"]*" fill="([^"]*)"/>',
                      svg_text)


def coordinates(svg_text):
    """Every (x, y) of every polyline."""
    root = ET.fromstring(svg_text)
    return [tuple(map(float, pair.split(",")))
            for pl in root.iter(SVG + "polyline") for pair in pl.get("points").split()]


@pytest.fixture(scope="module")
def line_result():
    grid = SweepGrid.from_ranges(1.5, 2.0, 4.0, 0.1, j0=0)
    return run_sweep(grid)


@pytest.fixture(scope="module")
def surface_result():
    grid = SweepGrid(p_values=tuple(np.linspace(0.5, 2.5, 5)),
                     sigma_values=tuple(np.linspace(2.0, 4.0, 5)), j0=0)
    return run_sweep(grid)


def parse_svg(path):
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    return root


class TestLinePlots:
    @pytest.mark.parametrize("kind", [PlotKind.ENERGY_VS_SIGMA, PlotKind.ORIENTATION,
                                      PlotKind.ALIGNMENT, PlotKind.COEFFS_VS_SIGMA])
    def test_valid_xml_with_polyline(self, line_result, tmp_path, kind):
        path = emit_plot(line_result, kind, tmp_path / f"{kind.value}.svg")
        root = parse_svg(path)
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert polylines
        # every coordinate stays inside the canvas
        for pl in polylines:
            for pair in pl.get("points").split():
                x, y = map(float, pair.split(","))
                assert 0 <= x <= 640 and 0 <= y <= 440

    def test_coeffs_plot_rejects_multi_p(self, surface_result, tmp_path):
        with pytest.raises(MissingSeriesError):
            emit_plot(surface_result, PlotKind.COEFFS_VS_SIGMA, tmp_path / "x.svg")


class TestHeatmap:
    def test_valid_xml_with_cells(self, surface_result, tmp_path):
        path = emit_plot(surface_result, PlotKind.SURFACE_HEATMAP, tmp_path / "h.svg")
        root = parse_svg(path)
        rects = root.findall(".//{http://www.w3.org/2000/svg}rect")
        assert len(rects) >= 25  # one cell per grid point plus frame/background

    @pytest.mark.parametrize("failures", [(), (7,)])
    def test_colour_map_ends(self, surface_result, failures):
        # the lowest finite cell is dark blue, the highest yellow, failed cells aside
        result = with_failures(surface_result, failures)
        e = result.energy_surface().ravel()
        fills = cell_fills(svgplot._heatmap_figure(result))
        assert fills[int(np.nanargmin(e))] == "#0000ff"
        assert fills[int(np.nanargmax(e))] == "#ffff00"

    def test_rejects_1d(self, line_result, tmp_path):
        with pytest.raises(MissingSeriesError):
            emit_plot(line_result, PlotKind.SURFACE_HEATMAP, tmp_path / "h.svg")


class TestPolarDensity:
    def test_requires_wavepacket(self, tmp_path):
        with pytest.raises(MissingSeriesError):
            emit_plot(None, PlotKind.POLAR_DENSITY, tmp_path / "p.svg")

    def test_valid_xml(self, tmp_path):
        psi = delta_kick(1.5, 0, RotorBasis(10))
        path = emit_plot(None, PlotKind.POLAR_DENSITY, tmp_path / "p.svg", psi=psi)
        root = parse_svg(path)
        assert len(root.findall(".//{http://www.w3.org/2000/svg}polyline")) == 2

    def test_creates_parent_dirs(self, tmp_path):
        psi = Wavepacket.pure(RotorBasis(4), 0)
        path = emit_plot(None, PlotKind.POLAR_DENSITY, tmp_path / "a" / "b" / "p.svg", psi=psi)
        assert path.exists()


class TestAngularDensity:
    def test_ground_state_isotropic(self):
        _, dens = angular_density(Wavepacket.pure(RotorBasis(6), 0))
        assert np.allclose(dens, 1 / (4 * math.pi), atol=1e-14)

    def test_normalization_quadrature_oracle(self):
        # integral over the sphere of |psi|^2 must be 1 for any state
        psi = delta_kick(2.0, 1, RotorBasis(15))
        theta, dens = angular_density(psi, n_theta=2001)
        total = 2 * math.pi * simpson(dens * np.sin(theta), x=theta)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_oriented_state_leans_forward(self):
        basis = RotorBasis(6)
        c = np.zeros(basis.dim, dtype=complex)
        c[0] = c[1] = 1 / math.sqrt(2)
        theta, dens = angular_density(Wavepacket(basis, c, 0))
        assert dens[0] > dens[-1]  # more density at theta=0 than theta=pi


@pytest.fixture(scope="module")
def fig2_result():
    return run_sweep(SweepGrid.from_ranges(1.5, 0.005, 10.0, 0.005, j0=0))


@pytest.fixture(scope="module")
def block_result():
    """The 64 x 64 surface block P 4.1..7.25, sigma 5.7..8.85, as the CLI grids it."""
    ps = tuple(np.round(4.1 + np.arange(64) * 0.05, 12))
    return run_sweep(SweepGrid.from_ranges(ps, 5.7, 8.85, 0.05, j0=0))


def _hand_result(sigmas, values, coeffs):
    recs = [PointRecord(p=1.0, sigma=s, j0=0, j_max=c.size - 1, energy=v, orientation=-v,
                        alignment=v, populations=c ** 2, coeff_abs=c)
            for s, v, c in zip(sigmas, values, coeffs)]
    return SweepResult(grid=SweepGrid(p_values=(1.0,), sigma_values=tuple(sigmas)),
                       records=recs)


@st.composite
def finite_series(draw):
    """A one-P result whose series are base + span * u: negative, constant, or
    spread over as little as 1e-12."""
    n = draw(st.integers(2, 40))
    steps = draw(st.lists(st.floats(1e-3, 2.0), min_size=n, max_size=n))
    base = draw(st.floats(-100.0, 100.0))
    span = draw(st.sampled_from([0.0, 1e-12, 3e-11, 1e-9, 1e-6, 1e-3, 1.0, 250.0]))
    u = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    sizes = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    coeffs = [np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)))
              for k in sizes]
    sigmas = 0.005 + np.cumsum(steps)
    return _hand_result(sigmas.tolist(), (base + span * np.array(u)).tolist(), coeffs)


@st.composite
def finite_surface(draw):
    n_p, n_sig = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    e = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-20, 1e-14), st.floats(0.0, 50.0)),
                      min_size=n_p * n_sig, max_size=n_p * n_sig))
    grid = SweepGrid(p_values=tuple(0.5 * np.arange(1, n_p + 1)),
                     sigma_values=tuple(0.25 * np.arange(1, n_sig + 1)))
    recs = [PointRecord(p=p, sigma=s, j0=0, j_max=4, energy=e[ip * n_sig + isig],
                        orientation=0.0, alignment=0.0, populations=np.ones(5) / 5,
                        coeff_abs=np.ones(5) / math.sqrt(5))
            for ip, p in enumerate(grid.p_values) for isig, s in enumerate(grid.sigma_values)]
    return SweepResult(grid=grid, records=recs)


class TestEqualityGate:
    """The array renderer gives the point-by-point figures byte for byte."""

    @pytest.mark.parametrize("series, title, ylabel", LINE_SERIES)
    def test_fig2_line_figures(self, fig2_result, series, title, ylabel):
        assert len(fig2_result.records) == 2000
        assert (svgplot._line_figure(fig2_result, series, title, ylabel)
                == reference_line_figure(fig2_result, series, title, ylabel))

    def test_fig2_coeffs_figure(self, fig2_result):
        assert svgplot._coeffs_figure(fig2_result) == reference_coeffs_figure(fig2_result)

    def test_emit_plot_writes_the_same_file(self, fig2_result, tmp_path):
        path = emit_plot(fig2_result, PlotKind.ENERGY_VS_SIGMA, tmp_path / "e.svg")
        assert path.read_text() == reference_line_figure(fig2_result, *LINE_SERIES[0])

    def test_block_heatmap(self, block_result):
        assert block_result.energy_surface().shape == (64, 64)
        assert svgplot._heatmap_figure(block_result) == reference_heatmap_figure(block_result)

    def test_block_line_figure_with_legend(self, block_result):
        # 64 curves: the palette cycles; the legend rows that fit hold the first
        # curves' entries and its last row says how many more there are
        last = MARGIN + 2 + 14 * (LEGEND_ROWS - 1)
        row = re.compile(f'<(?:line x1="{W - MARGIN - 90}" y1|text x="{W - MARGIN - 64}" y)="(\\d+)"')
        want = [ln for ln in reference_line_figure(block_result, *LINE_SERIES[0]).splitlines()
                if not ((m := row.match(ln)) and int(m.group(1)) >= last)]
        more = f'<text x="{W - MARGIN - 64}" y="{last + 4}">+{64 - (LEGEND_ROWS - 1)} more</text>'
        assert (svgplot._line_figure(block_result, *LINE_SERIES[0])
                == "\n".join(want[:-1] + [more, want[-1]]) + "\n")

    @pytest.mark.parametrize("psi", [
        delta_kick(1.5, 0, RotorBasis(10)),
        delta_kick(4.0, 2, RotorBasis(16)),
        Wavepacket.pure(RotorBasis(4), 0),
        Wavepacket.pure(RotorBasis(6), 3),
    ])
    def test_polar_figure(self, psi):
        assert svgplot._polar_figure(psi, "t") == reference_polar_figure(psi, "t")

    @settings(max_examples=150)
    @given(finite_series())
    def test_random_finite_series(self, result):
        for series, title, ylabel in LINE_SERIES:
            assert (svgplot._line_figure(result, series, title, ylabel)
                    == reference_line_figure(result, series, title, ylabel))
        assert svgplot._coeffs_figure(result) == reference_coeffs_figure(result)

    @settings(max_examples=100)
    @given(finite_surface())
    def test_random_finite_surface(self, result):
        assert svgplot._heatmap_figure(result) == reference_heatmap_figure(result)


class TestCliFigures:
    """The figures the CLI writes are the point-by-point references, byte for byte."""

    def test_fig2(self, fig2_result, tmp_path):
        assert main(["sweep", "--P", "1.5", "--sigma-min", "0.005", "--sigma-max", "10",
                     "--sigma-step", "0.005", "--formats", "svg", "--out", str(tmp_path)]) == 0
        want = {kind: reference_line_figure(fig2_result, *series)
                for kind, series in zip(("energy_vs_sigma", "orientation", "alignment"),
                                        LINE_SERIES)}
        want["coeffs_vs_sigma"] = reference_coeffs_figure(fig2_result)
        assert sorted(p.name for p in tmp_path.glob("*.svg")) == sorted(f"{k}.svg" for k in want)
        for kind, text in want.items():
            assert (tmp_path / f"{kind}.svg").read_bytes() == text.encode(), kind

    def test_block_heatmap(self, block_result, tmp_path):
        assert main(["sweep", "--P-min", "4.1", "--P-max", "7.25", "--P-step", "0.05",
                     "--sigma-min", "5.7", "--sigma-max", "8.85", "--sigma-step", "0.05",
                     "--formats", "svg", "--out", str(tmp_path)]) == 0
        assert ((tmp_path / "surface_heatmap.svg").read_bytes()
                == reference_heatmap_figure(block_result).encode())


def multi_p_result(n_p):
    """A hand-built result of n_p P values over three sigma values."""
    grid = SweepGrid(p_values=tuple(0.25 * np.arange(1, n_p + 1)), sigma_values=(1.0, 2.0, 3.0))
    recs = [PointRecord(p=p, sigma=s, j0=0, j_max=4, energy=p * s, orientation=p - s,
                        alignment=p / s, populations=np.ones(5) / 5,
                        coeff_abs=np.ones(5) / math.sqrt(5))
            for p in grid.p_values for s in grid.sigma_values]
    return SweepResult(grid=grid, records=recs)


class TestLegend:
    """A line figure's legend, one row per P value, stays inside the canvas."""

    @pytest.mark.parametrize("n_p", [2, 6, LEGEND_ROWS])
    def test_legend_that_fits_unchanged(self, n_p):
        result = multi_p_result(n_p)
        for series, title, ylabel in LINE_SERIES:
            assert (svgplot._line_figure(result, series, title, ylabel)
                    == reference_line_figure(result, series, title, ylabel))

    @pytest.mark.parametrize("n_p", [LEGEND_ROWS + 1, 40])
    def test_long_legend_ends_in_one_more_row(self, n_p):
        result = multi_p_result(n_p)
        root = ET.fromstring(svgplot._line_figure(result, *LINE_SERIES[0]))
        texts = [t for t in root.iter(SVG + "text") if t.get("x") == str(W - MARGIN - 64)]
        strokes = [ln for ln in root.iter(SVG + "line") if ln.get("x1") == str(W - MARGIN - 90)]
        shown = [f"P={p:g}" for p in result.grid.p_values[:LEGEND_ROWS - 1]]
        assert [t.text for t in texts] == shown + [f"+{n_p - len(shown)} more"]
        assert len(strokes) == len(shown)
        # a 12-px text line below each baseline still ends inside the canvas
        assert max(float(t.get("y")) for t in texts) + 12 <= H
        assert max(float(ln.get("y1")) for ln in strokes) <= H
        # every curve is still drawn
        assert len(list(root.iter(SVG + "polyline"))) == n_p


class TestFailedPoints:
    def test_heatmap_failed_cell_grey_others_unchanged(self, surface_result):
        e = surface_result.energy_surface().ravel()
        k = int(np.argsort(e)[e.size // 2])           # neither the minimum nor the maximum
        before = cell_fills(svgplot._heatmap_figure(surface_result))
        after = cell_fills(svgplot._heatmap_figure(with_failures(surface_result, [k])))
        assert len(before) == len(after) == e.size
        assert after[k] == "#808080"
        assert after[:k] + after[k + 1:] == before[:k] + before[k + 1:]
        assert len(set(before)) > 2

    def test_heatmap_all_failed_is_grey(self, surface_result):
        result = with_failures(surface_result, range(len(surface_result.records)))
        assert set(cell_fills(svgplot._heatmap_figure(result))) == {"#808080"}

    @pytest.mark.parametrize("kind", [PlotKind.ENERGY_VS_SIGMA, PlotKind.ORIENTATION,
                                      PlotKind.ALIGNMENT, PlotKind.COEFFS_VS_SIGMA])
    def test_line_plots_break_at_failures(self, tmp_path, kind):
        result = run_sweep(SweepGrid.from_ranges(1.5, 2.0, 2.5, 0.1, j0=0))
        assert len(result.records) == 6
        text = emit_plot(with_failures(result, [2]), kind, tmp_path / "f.svg").read_text()
        pts = coordinates(text)
        assert pts and all(math.isfinite(x) and 0 <= x <= W and math.isfinite(y) and 0 <= y <= H
                           for x, y in pts)
        n_curves = 3 if kind is PlotKind.COEFFS_VS_SIGMA else 1
        assert len(pts) == 5 * n_curves                   # the failed point is not drawn
        root = ET.fromstring(text)
        assert len(root.findall(f".//{SVG}polyline")) == 2 * n_curves   # [0, 1] and [3, 4, 5]
        x_failed = _Canvas((2.0, 2.5), (0.0, 1.0), "", "", "").px(result.records[2].sigma)
        assert all(abs(x - x_failed) > 1 for x, _ in pts)

    def test_legend_once_per_curve(self, tmp_path):
        result = run_sweep(SweepGrid.from_ranges([1.0, 2.0], 2.0, 2.5, 0.1, j0=0))
        text = emit_plot(with_failures(result, [1, 3, 8]), PlotKind.ENERGY_VS_SIGMA,
                         tmp_path / "f.svg").read_text()
        labels = [t.text for t in ET.fromstring(text).iter(SVG + "text")]
        assert labels.count("P=1") == 1 and labels.count("P=2") == 1
        assert len(ET.fromstring(text).findall(f".//{SVG}polyline")) == 5

    @pytest.mark.parametrize("kind", [PlotKind.ENERGY_VS_SIGMA, PlotKind.ORIENTATION,
                                      PlotKind.ALIGNMENT, PlotKind.COEFFS_VS_SIGMA])
    def test_all_failed_line_plots_draw_empty_axes(self, line_result, tmp_path, kind):
        result = with_failures(line_result, range(len(line_result.records)))
        root = parse_svg(emit_plot(result, kind, tmp_path / "f.svg"))
        assert not root.findall(f".//{SVG}polyline")
        assert root.findall(f".//{SVG}line")              # tick marks of the fixed limits


def test_ticks_end_when_the_step_is_below_float_spacing():
    # a series two floats apart at 1e6: the tick step is below the spacing of
    # floats there, so adding it leaves t where it is
    lo, hi = 1e6, float(np.nextafter(1e6, 2e6))
    pad = 0.05 * (hi - lo)
    ticks = _ticks(lo - pad, hi + pad)
    assert 1 <= len(ticks) <= 8


class TestEscape:
    """The labels' local escape gives the text xml.sax.saxutils.escape gives."""

    @given(st.text() | st.lists(st.sampled_from("&<>;\"'a")).map("".join))
    def test_any_text(self, text):
        assert svgplot._escape(text) == escape(text)

    @pytest.mark.parametrize("text, want", [
        ("<cos theta>", "&lt;cos theta&gt;"),
        ("&amp;<>&", "&amp;amp;&lt;&gt;&amp;"),
        ("P = 1.5 \"quoted\" 'single'", "P = 1.5 \"quoted\" 'single'"),
        ("σ J² − P cos θ, ⟨cos² θ⟩", "σ J² − P cos θ, ⟨cos² θ⟩"),
        ("", ""),
    ])
    def test_named_labels(self, text, want):
        assert svgplot._escape(text) == escape(text) == want


def _bits(n):
    """The float64 whose raw bit pattern is the integer n."""
    return float(np.frombuffer(n.to_bytes(8, "little"), np.float64)[0])


def _near_ties(k):
    """(k + 1/2) / 100 and its two neighbours: at or next to x.xx5."""
    x = (k + 0.5) / 100
    return [x, float(np.nextafter(x, -math.inf)), float(np.nextafter(x, math.inf))]


def _fixed2_matches_reference(values):
    xs = np.asarray(values, dtype=float)
    ys = xs[::-1].copy()
    assert svgplot._points(xs, ys) == " ".join("%.2f,%.2f" % xy for xy in zip(xs.tolist(),
                                                                            ys.tolist()))


class TestFixed2Kernel:
    """The numpy %.2f kernel of the polylines and the heatmap gives the bytes "%.2f" gives."""

    @given(st.lists(st.floats() | st.integers(0, 2**64 - 1).map(_bits)
                    | st.integers(-10**9, 10**9).map(_near_ties).flatmap(st.sampled_from),
                    min_size=1, max_size=24))
    def test_any_floats_give_the_reference_bytes(self, values):
        _fixed2_matches_reference(values)

    def test_seeded_values(self):
        rng = np.random.default_rng(20)
        ties = (rng.integers(-10**7, 10**7, 20_000) + 0.5) / 100
        _fixed2_matches_reference(np.concatenate([
            rng.uniform(0, 640, 20_000), rng.uniform(-1, 1, 20_000),
            10 ** rng.uniform(-4, 20, 20_000) * rng.choice([-1, 1], 20_000),
            rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64),
            ties, np.nextafter(ties, -np.inf), np.nextafter(ties, np.inf)]))

    @pytest.mark.parametrize("x", [
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,   # zeros and subnormals
        math.nan, -math.nan, math.inf, -math.inf,
        0.125, 0.375, -0.125, 2.675, 1.005, 0.005, 9.995, 99.995,  # exact and near ties
        -0.001, -0.004999, 0.994999, 999.999,                     # a carry into the units
        2**50 / 100, np.nextafter(2**50 / 100, 0), 2**53 / 100, 2**53 / 100 + 0.25,
        1e17, -1e22, 1.7976931348623157e308,                      # at 2^53/100 and beyond
    ])
    def test_named_values(self, x):
        _fixed2_matches_reference([x, 1.0])
        _fixed2_matches_reference([x])

    def test_ties_and_large_values_fall_back_to_python(self):
        m, flagged = _round_scaled(np.array([0.125, 2.675, 1.005, 2**50 / 100, math.nan,
                                             math.inf, 1.5, 2**50 / 100 - 1]), 2)
        assert flagged.tolist() == [True] * 6 + [False] * 2
        assert m.tolist() == [0.0] * 6 + [150.0, 2**50 - 100]

    def test_empty(self):
        assert svgplot._points(np.array([]), np.array([])) == ""
