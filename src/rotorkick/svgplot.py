"""Static SVG figures, hand-rolled (no plotting dependency).

Figures are verification artifacts: line plots of observables against
pulse duration, a log10 kinetic-energy heatmap over the (P, sigma) plane,
and polar angular-density plots of a wavepacket.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from pathlib import Path

import numpy as np

from .core import Wavepacket
from ._text import fixed2
from .sweep import COLUMNS, SweepResult

W, H = 640, 440
MARGIN = 56
PALETTE = ["#1f77b4", "#d62728", "#e8b90c", "#2ca02c", "#9467bd", "#8c564b"]
FAILED_FILL = 0x808080      # heatmap cell of a failed point
# Legend rows, at y = MARGIN + 2 + 14 i, whose 12-px text (baseline y + 4) ends inside the canvas.
LEGEND_ROWS = (H - (MARGIN + 2) - 16) // 14 + 1


class PlotKind(Enum):
    ENERGY_VS_SIGMA = "energy_vs_sigma"
    COEFFS_VS_SIGMA = "coeffs_vs_sigma"
    ORIENTATION = "orientation"
    ALIGNMENT = "alignment"
    SURFACE_HEATMAP = "surface_heatmap"
    POLAR_DENSITY = "polar_density"


class MissingSeriesError(ValueError):
    """The result does not contain the series needed for the requested plot."""


def _escape(text: str) -> str:
    """text with &, > and < as XML entities, as xml.sax.saxutils.escape gives it;
    kept local because that module's import loads the urllib, http and ssl stack."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    t0 = math.ceil(lo / step) * step
    out = []
    t = t0
    while t <= hi + 1e-12 * step:
        out.append(round(t, 12))
        if t + step == t:       # step below the float spacing at t: t would never pass hi
            break
        t += step
    return out


@functools.cache
def _hex_pairs() -> np.ndarray:
    """"%02x" % i as row i of a (256, 2) uint8 array."""
    return np.frombuffer(bytes(range(256)).hex().encode(), np.uint8).reshape(256, 2)


def _text(shape: tuple[int, ...], *parts) -> str:
    """The text of an array of cells of the given shape, row-major, each cell the
    concatenation of parts: bytes, the same in every cell, or uint8 arrays of
    NUL-padded text whose leading axes broadcast to shape.  The NULs are dropped."""
    widths = [len(p) if isinstance(p, bytes) else p.shape[-1] for p in parts]
    buf = np.empty((*shape, sum(widths)), np.uint8)
    at = 0
    for part, width in zip(parts, widths):
        buf[..., at:at + width] = np.frombuffer(part, np.uint8) if isinstance(part, bytes) else part
        at += width
    return buf.tobytes().translate(None, b"\0").decode()


def _points(xs: np.ndarray, ys: np.ndarray) -> str:
    """SVG points text "x,y x,y ..." of two equal-length arrays, at 2 decimals."""
    cells = fixed2(np.concatenate((xs, ys)))
    return _text((len(xs),), cells[:len(xs)], b",", cells[len(xs):], b" ")[:-1]


class _Canvas:
    def __init__(self, xlim, ylim, title, xlabel, ylabel):
        self.xlim, self.ylim = xlim, ylim
        title, xlabel, ylabel = _escape(title), _escape(xlabel), _escape(ylabel)
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
            f'viewBox="0 0 {W} {H}" font-family="sans-serif" font-size="12">',
            f'<rect width="{W}" height="{H}" fill="white"/>',
            f'<text x="{W / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
            f'<text x="{W / 2}" y="{H - 8}" text-anchor="middle">{xlabel}</text>',
            f'<text x="14" y="{H / 2}" text-anchor="middle" '
            f'transform="rotate(-90 14 {H / 2})">{ylabel}</text>',
            f'<rect x="{MARGIN}" y="{MARGIN - 16}" width="{W - 2 * MARGIN}" '
            f'height="{H - 2 * MARGIN}" fill="none" stroke="black"/>',
        ]
        for t in _ticks(*xlim):
            x = self.px(t)
            self.parts.append(f'<line x1="{x:.1f}" y1="{H - MARGIN - 16}" x2="{x:.1f}" '
                              f'y2="{H - MARGIN - 11}" stroke="black"/>')
            self.parts.append(f'<text x="{x:.1f}" y="{H - MARGIN + 4}" '
                              f'text-anchor="middle">{t:g}</text>')
        for t in _ticks(*ylim):
            y = self.py(t)
            self.parts.append(f'<line x1="{MARGIN - 5}" y1="{y:.1f}" x2="{MARGIN}" '
                              f'y2="{y:.1f}" stroke="black"/>')
            self.parts.append(f'<text x="{MARGIN - 8}" y="{y + 4:.1f}" '
                              f'text-anchor="end">{t:g}</text>')

    def px(self, x: float) -> float:
        lo, hi = self.xlim
        return MARGIN + (x - lo) / (hi - lo) * (W - 2 * MARGIN)

    def py(self, y: float) -> float:
        lo, hi = self.ylim
        return (H - MARGIN - 16) - (y - lo) / (hi - lo) * (H - 2 * MARGIN)

    def polyline(self, xs, ys, color, label=None, idx=0):
        """One <polyline> per run of finite points (a failed point breaks the
        curve); the legend entry once."""
        xs = self.px(np.asarray(xs, dtype=float))
        ys = self.py(np.asarray(ys, dtype=float))
        ok = np.concatenate(([False], np.isfinite(xs) & np.isfinite(ys), [False]))
        for start, stop in np.flatnonzero(ok[1:] != ok[:-1]).reshape(-1, 2).tolist():
            self.parts.append(f'<polyline points="{_points(xs[start:stop], ys[start:stop])}" '
                              f'fill="none" stroke="{color}" stroke-width="1.3"/>')
        if label:
            self.legend(idx, label, color)

    def legend(self, idx, label, color=None):
        """Legend row idx: a stroke of color, if given, and the label."""
        y = MARGIN + 2 + 14 * idx
        if color:
            self.parts.append(f'<line x1="{W - MARGIN - 90}" y1="{y}" x2="{W - MARGIN - 70}" '
                              f'y2="{y}" stroke="{color}" stroke-width="2"/>')
        self.parts.append(f'<text x="{W - MARGIN - 64}" y="{y + 4}">{_escape(label)}</text>')

    def svg(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _line_figure(result: SweepResult, series: str, title: str, ylabel: str) -> str:
    if len(result.grid.sigma_values) < 2:
        raise MissingSeriesError(f"{series} plot needs a sigma series with >= 2 points")
    sigmas = np.asarray(result.grid.sigma_values)
    p_values = result.grid.p_values
    ys = result.table[:, COLUMNS.index(series)].reshape(len(p_values), sigmas.size)
    finite = ys[np.isfinite(ys)]
    # no finite value (every point failed): fixed limits, empty axes
    ymin, ymax = (float(finite.min()), float(finite.max())) if finite.size else (0.0, 1.0)
    pad = 0.05 * (ymax - ymin or 1.0)
    cv = _Canvas((float(sigmas[0]), float(sigmas[-1])), (ymin - pad, ymax + pad),
                 title, "pulse duration sigma", ylabel)
    # a legend longer than the canvas ends with one "+k more" row
    shown = len(p_values) if len(p_values) <= LEGEND_ROWS else LEGEND_ROWS - 1
    for i, p in enumerate(p_values):
        cv.polyline(sigmas, ys[i], PALETTE[i % len(PALETTE)],
                    f"P={p:g}" if 1 < len(p_values) and i < shown else None, i)
    if shown < len(p_values):
        cv.legend(shown, f"+{len(p_values) - shown} more")
    return cv.svg()


def _coeffs_figure(result: SweepResult, n_coeffs: int = 3) -> str:
    if len(result.grid.p_values) != 1:
        raise MissingSeriesError("coefficient plot needs a single-P sweep")
    sigmas = np.asarray(result.grid.sigma_values)
    if sigmas.size < 2:
        raise MissingSeriesError("coefficient plot needs a sigma series with >= 2 points")
    cv = _Canvas((float(sigmas[0]), float(sigmas[-1])), (0.0, 1.05),
                 f"|C_J| vs sigma (P={result.grid.p_values[0]:g}, J0={result.grid.j0})",
                 "pulse duration sigma", "|C_J|")
    table = result.table
    k = (table.shape[1] - len(COLUMNS)) // 2
    for j in range(n_coeffs):
        # |C_J| beyond a point's basis is 0; a failed point has none (a gap in the curve)
        ys = table[:, len(COLUMNS) + k + j].copy() if j < k else np.zeros(len(table))
        ys[result.failed] = np.nan
        cv.polyline(sigmas, ys, PALETTE[j % len(PALETTE)], f"|C_{j}|", j)
    return cv.svg()


def _heatmap_figure(result: SweepResult) -> str:
    """One cell per grid point, log10 E through a dark-blue -> yellow ramp
    scaled over the finite cells; a failed point is a grey cell."""
    if len(result.grid.p_values) < 2 or len(result.grid.sigma_values) < 2:
        raise MissingSeriesError("surface heatmap needs a 2-D (P, sigma) grid")
    e = result.energy_surface()
    loge = np.log10(np.maximum(e, 1e-16))
    ok = np.isfinite(loge)
    lo, hi = (float(loge[ok].min()), float(loge[ok].max())) if ok.any() else (0.0, 0.0)
    ps = np.asarray(result.grid.p_values)
    sigmas = np.asarray(result.grid.sigma_values)
    cv = _Canvas((float(sigmas[0]), float(sigmas[-1])), (float(ps[0]), float(ps[-1])),
                 f"log10 kinetic energy over (P, sigma), J0={result.grid.j0}",
                 "pulse duration sigma", "pulse strength P")
    dw = (W - 2 * MARGIN) / sigmas.size
    dh = (H - 2 * MARGIN) / ps.size
    # in [0, 1] on every finite cell, since lo and hi are the finite extremes
    v = np.where(ok, (loge - lo) / (hi - lo or 1.0), 0.0)
    rgb = (255 * np.stack((np.minimum(1.0, 2 * v), v, np.maximum(0.0, 1.0 - 1.5 * v)), axis=-1)
           ).astype(np.uint8)           # truncation, as int() of each channel
    rgb[~ok] = tuple(FAILED_FILL.to_bytes(3, "big"))
    # x per column and y per row, each rendered once; the fills from the hex table
    corners = fixed2(np.concatenate((MARGIN + np.arange(sigmas.size) * dw,
                                     (H - MARGIN - 16) - np.arange(1, ps.size + 1) * dh)))
    cv.parts.append(_text(ok.shape, b'<rect x="', corners[:sigmas.size], b'" y="',
                          corners[sigmas.size:, None],
                          f'" width="{dw + 0.5:.2f}" height="{dh + 0.5:.2f}" fill="#'.encode(),
                          _hex_pairs()[rgb].reshape(*ok.shape, 6), b'"/>\n')[:-1])
    return cv.svg()


def angular_density(psi: Wavepacket, n_theta: int = 361) -> tuple[np.ndarray, np.ndarray]:
    """|sum_J C_J Y_J0(theta)|^2 on a uniform theta grid over [0, pi]."""
    theta = np.linspace(0.0, math.pi, n_theta)
    x = np.cos(theta)
    amp = np.zeros_like(theta, dtype=np.complex128)
    for j in range(psi.basis.dim):
        leg = np.polynomial.legendre.Legendre.basis(j)(x)
        amp += psi.coefficients[j] * math.sqrt((2 * j + 1) / (4 * math.pi)) * leg
    return theta, np.abs(amp) ** 2


def _polar_figure(psi: Wavepacket, title: str) -> str:
    theta, dens = angular_density(psi)
    r = dens / dens.max() if dens.max() > 0 else dens
    cx, cy, scale = W / 2, H / 2, (H - 2 * MARGIN) / 2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W / 2}" y="20" text-anchor="middle" font-size="14">{_escape(title)}</text>',
        f'<line x1="{cx}" y1="{MARGIN}" x2="{cx}" y2="{H - MARGIN}" '
        'stroke="#999" stroke-dasharray="4 3"/>',
    ]
    # field axis vertical: x = r sin(theta), y = -r cos(theta); mirror for phi symmetry
    ys = cy - scale * r * np.cos(theta)
    for sign in (1, -1):
        parts.append(f'<polyline points="{_points(cx + sign * scale * r * np.sin(theta), ys)}" '
                     f'fill="none" stroke="{PALETTE[0]}" stroke-width="1.5"/>')
    return "\n".join(parts + ["</svg>"]) + "\n"


def emit_plot(result: SweepResult | None, kind: PlotKind, outpath: str | Path,
              psi: Wavepacket | None = None) -> Path:
    """Render one figure kind to a self-contained SVG file.

    POLAR_DENSITY takes a Wavepacket; all other kinds take a SweepResult.
    Raises MissingSeriesError when the needed series is absent.
    """
    if kind is PlotKind.POLAR_DENSITY:
        if psi is None:
            raise MissingSeriesError("polar density plot needs a wavepacket")
        svg = _polar_figure(psi, f"angular density (J0={psi.j0})")
    else:
        if result is None or not len(result.table):
            raise MissingSeriesError(f"{kind.value} plot needs a non-empty sweep result")
        if kind is PlotKind.ENERGY_VS_SIGMA:
            svg = _line_figure(result, "energy",
                               f"kinetic energy vs sigma (J0={result.grid.j0})",
                               "kinetic energy / B")
        elif kind is PlotKind.ORIENTATION:
            svg = _line_figure(result, "orientation",
                               f"orientation vs sigma (J0={result.grid.j0})", "<cos theta>")
        elif kind is PlotKind.ALIGNMENT:
            svg = _line_figure(result, "alignment",
                               f"alignment vs sigma (J0={result.grid.j0})", "<cos^2 theta>")
        elif kind is PlotKind.COEFFS_VS_SIGMA:
            svg = _coeffs_figure(result)
        elif kind is PlotKind.SURFACE_HEATMAP:
            svg = _heatmap_figure(result)
        else:  # pragma: no cover
            raise ValueError(f"unknown plot kind {kind}")
    outpath = Path(outpath)
    outpath.parent.mkdir(parents=True, exist_ok=True)
    outpath.write_text(svg)
    return outpath
