import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from scipy.integrate import simpson

from rotorkick import PulseSpec, RotorBasis, SweepGrid, Wavepacket, delta_kick, run_sweep
from rotorkick.svgplot import MissingSeriesError, PlotKind, angular_density, emit_plot


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
