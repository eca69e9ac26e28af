"""Plot-ready series and deterministic SVG rendering.

Three figure kinds: the ECDF with its simultaneous band, the ECDF
difference view (everything minus the diagonal, which stretches the
usable vertical range), and rank histograms with per-bin reference
intervals.  Rendering is plain SVG 1.1 text with fixed geometry,
palette and number formatting, so identical inputs give byte-identical
output suitable for golden-file comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bands_single import ConfidenceBands, _check_alpha, bands_from_gamma
from .transform import EcdfTrajectory, EvaluationGrid, PitValues

__all__ = [
    "PALETTE",
    "PLOT_SCHEMA",
    "PlotSpec",
    "RankHistogram",
    "diff_transform",
    "plot_data",
    "rank_hist",
    "render_svg",
]

PLOT_SCHEMA = "plot-data/1"
PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
)
_BAND_FILL = "#9ecae1"
_KINDS = ("ecdf", "ecdf_diff", "rank_hist")

_WIDTH, _HEIGHT = 600.0, 400.0
_ML, _MR, _MT, _MB = 52.0, 15.0, 15.0, 38.0


@dataclass(frozen=True, eq=False)
class RankHistogram:
    """Equal-width bin counts over [0, 1] with a shared per-bin
    reference interval (the same for every bin, since each bin is
    binomial with the same n and p)."""

    edges: np.ndarray
    heights: np.ndarray
    lower: int
    upper: int
    n: int
    bins: int
    alpha: float


@dataclass(frozen=True, eq=False)
class PlotSpec:
    """What to draw: a band with step trajectories, or a histogram.

    ``bands`` is the one band type, ``ConfidenceBands``, from one sample
    (``bands_from_gamma``) or from several chains
    (``bands_from_gamma_multi``); either way the plotted envelopes are
    its count bounds over n.
    """

    kind: str
    bands: ConfidenceBands | None = None
    trajectories: tuple[EcdfTrajectory, ...] = ()
    hist: RankHistogram | None = None
    labels: tuple[str, ...] = ()
    title: str = ""

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "trajectories", tuple(self.trajectories))
        object.__setattr__(self, "labels", tuple(self.labels))
        if self.kind == "rank_hist":
            if self.hist is None:
                raise ValueError("rank_hist plots need a RankHistogram")
            return
        if self.bands is None:
            raise ValueError(f"{self.kind} plots need confidence bands")
        pts = self.bands.grid.points
        for t in self.trajectories:
            if not np.array_equal(t.grid.points, pts):
                raise ValueError("trajectories must share the bands' grid")
            if t.n != self.bands.n:
                raise ValueError("trajectory sample size differs from the bands")
        if self.labels and len(self.labels) != len(self.trajectories):
            raise ValueError("labels must match trajectories one to one")


def diff_transform(bands, trajectories) -> dict:
    """Shift a band and step series by minus the diagonal.

    The expected ECDF under uniformity is the identity, so subtracting
    the grid point from every value recenters the picture on zero.
    """
    pts = bands.grid.points
    series = []
    for t in trajectories:
        if not np.array_equal(t.grid.points, pts):
            raise ValueError("trajectories must share the bands' grid")
        series.append(t.fractions() - pts)
    return {
        "points": pts.copy(),
        "lower": bands.lower - pts,
        "upper": bands.upper - pts,
        "series": series,
    }


def rank_hist(u, bins: int, alpha: float = 0.05, expected_total: int | None = None) -> RankHistogram:
    """Equal-width histogram of PIT values or fractional ranks.

    Bins are right-closed, so an exact boundary value such as 1.0 lands
    in the last bin and k/bins lands in bin k - 1.  The reference
    interval is the pointwise binomial alpha/2 and 1 - alpha/2 quantile
    pair with p = 1/bins: the count bounds of ``bands_from_gamma`` at
    level alpha on the one-point grid 1/bins, so the binomial law's own
    module reads its table.  It carries no simultaneity adjustment.
    """
    vals = u.values if isinstance(u, PitValues) else np.asarray(u, dtype=np.float64)
    if vals.ndim != 1 or vals.size == 0:
        raise ValueError("expected a nonempty 1-D sample")
    if not np.all((vals >= 0.0) & (vals <= 1.0)):
        raise ValueError("values must lie in [0, 1]")
    if int(bins) != bins or bins < 2:
        raise ValueError("bins must be an integer of at least 2")
    bins = int(bins)
    alpha = _check_alpha(alpha)
    edges = np.arange(bins + 1) / bins
    idx = np.searchsorted(edges[1:], vals, side="left")
    heights = np.bincount(idx, minlength=bins).astype(np.int64)
    n = int(expected_total) if expected_total is not None else int(vals.size)
    if n < 1:
        raise ValueError("expected_total must be positive")
    bands = bands_from_gamma(n, EvaluationGrid([1.0 / bins]), alpha)
    lo, hi = int(bands.lower_counts[0]), int(bands.upper_counts[0])
    return RankHistogram(edges, heights, lo, hi, n, bins, alpha)


def _plotted(spec: PlotSpec):
    """Grid points, band edges and step series as drawn: fractions for
    ``ecdf``, minus the diagonal for ``ecdf_diff``."""
    if spec.kind == "ecdf_diff":
        d = diff_transform(spec.bands, spec.trajectories)
        return d["points"], d["lower"], d["upper"], d["series"]
    series = [t.fractions() for t in spec.trajectories]
    return spec.bands.grid.points, spec.bands.lower, spec.bands.upper, series


def plot_data(spec: PlotSpec) -> dict:
    """JSON-ready mirror of a plot specification."""
    out: dict = {"schema": PLOT_SCHEMA, "kind": spec.kind, "title": spec.title}
    if spec.kind == "rank_hist":
        h = spec.hist
        out["bins"] = h.bins
        out["heights"] = [int(v) for v in h.heights]
        out["interval"] = [h.lower, h.upper]
        out["n"] = h.n
        out["alpha"] = h.alpha
        return out
    pts, lower, upper, series = _plotted(spec)
    out["points"] = [float(v) for v in pts]
    out["band_lower"] = [float(v) for v in lower]
    out["band_upper"] = [float(v) for v in upper]
    labels = spec.labels or tuple(f"chain {i + 1}" for i in range(len(series)))
    out["series"] = [
        {"label": lab, "values": [float(v) for v in s]} for lab, s in zip(labels, series)
    ]
    out["gamma"] = spec.bands.gamma
    return out


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:.3g}"


def _step_path(xs, ys, sx, sy) -> str:
    # both the ECDF and its difference from the diagonal start at 0
    parts = [f"M{_fmt(sx(0.0))},{_fmt(sy(0.0))}"]
    for x, y in zip(xs, ys):
        parts.append(f"H{_fmt(sx(x))}")
        parts.append(f"V{_fmt(sy(y))}")
    return "".join(parts)


def _scales(y0: float, y1: float):
    """Data to canvas maps: x over [0, 1], y over [y0, y1]."""

    def sx(v: float) -> float:
        return _ML + float(v) * (_WIDTH - _ML - _MR)

    def sy(v: float) -> float:
        return (_HEIGHT - _MB) - (float(v) - y0) / (y1 - y0) * (_HEIGHT - _MT - _MB)

    return sx, sy


def render_svg(spec: PlotSpec) -> str:
    """Render a plot spec to an SVG 1.1 document string.

    Output is deterministic: fixed canvas, margins, palette, and 2
    decimal coordinate formatting.  Trajectories render as
    right-continuous step paths over the grid points; the band renders
    as one polygon; axes use line elements only, so the number of path
    elements equals the number of chains.
    """
    if spec.kind == "rank_hist":
        return _render_hist(spec)
    pts, lower, upper, series = _plotted(spec)
    if spec.kind == "ecdf_diff":
        spread = [np.max(np.abs(lower)), np.max(np.abs(upper))]
        spread += [np.max(np.abs(s)) for s in series]
        m = 1.15 * max(max(spread), 1e-3)
        y0, y1 = -m, m
    else:
        y0, y1 = 0.0, 1.0
    sx, sy = _scales(y0, y1)
    parts = _svg_head(spec.title)
    parts += _axes(sx, sy, y0, y1)
    ring = [f"{_fmt(sx(x))},{_fmt(sy(u))}" for x, u in zip(pts, upper)]
    ring += [f"{_fmt(sx(x))},{_fmt(sy(lo))}" for x, lo in zip(pts[::-1], lower[::-1])]
    parts.append(
        f'<polygon points="{" ".join(ring)}" fill="{_BAND_FILL}" '
        f'fill-opacity="0.45" stroke="none"/>'
    )
    if spec.kind == "ecdf":
        parts.append(_ref_line(sx(0.0), sy(0.0), sx(1.0), sy(1.0)))
    else:
        parts.append(_ref_line(sx(0.0), sy(0.0), sx(1.0), sy(0.0)))
    for ci, s in enumerate(series):
        color = PALETTE[ci % len(PALETTE)]
        d = _step_path(pts, s, sx, sy)
        parts.append(f'<path d="{d}" fill="none" stroke="{color}" stroke-width="1.5"/>')
    if spec.labels:
        parts += _legend(spec.labels)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _render_hist(spec: PlotSpec) -> str:
    h = spec.hist
    top = 1.1 * max(float(h.heights.max()), float(h.upper), 1.0)
    sx, sy = _scales(0.0, top)
    parts = _svg_head(spec.title)
    parts += _axes(sx, sy, 0.0, top)
    y_hi, y_lo = sy(h.upper), sy(h.lower)
    parts.append(
        f'<rect x="{_fmt(sx(0.0))}" y="{_fmt(y_hi)}" '
        f'width="{_fmt(sx(1.0) - sx(0.0))}" height="{_fmt(y_lo - y_hi)}" '
        f'fill="{_BAND_FILL}" fill-opacity="0.45" stroke="none"/>'
    )
    expected = h.n / h.bins
    parts.append(
        f'<line x1="{_fmt(sx(0.0))}" y1="{_fmt(sy(expected))}" '
        f'x2="{_fmt(sx(1.0))}" y2="{_fmt(sy(expected))}" '
        f'stroke="#444444" stroke-width="1" stroke-dasharray="4 3"/>'
    )
    for i in range(h.bins):
        x_left = sx(h.edges[i])
        w = sx(h.edges[i + 1]) - x_left
        y_top = sy(float(h.heights[i]))
        parts.append(
            f'<rect x="{_fmt(x_left)}" y="{_fmt(y_top)}" '
            f'width="{_fmt(w)}" height="{_fmt(sy(0.0) - y_top)}" '
            f'fill="{PALETTE[0]}" fill-opacity="0.8" stroke="#ffffff" stroke-width="0.5"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _svg_head(title: str) -> list[str]:
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH:g}" height="{_HEIGHT:g}" viewBox="0 0 {_WIDTH:g} {_HEIGHT:g}">',
        f'<rect x="0" y="0" width="{_WIDTH:g}" height="{_HEIGHT:g}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_fmt(_WIDTH / 2)}" y="{_fmt(_MT - 3)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" fill="#222222">{_escape(title)}</text>'
        )
    return parts


def _axes(sx, sy, y0: float, y1: float) -> list[str]:
    parts = []
    x_axis_y = _HEIGHT - _MB
    parts.append(
        f'<line x1="{_fmt(_ML)}" y1="{_fmt(x_axis_y)}" x2="{_fmt(_WIDTH - _MR)}" '
        f'y2="{_fmt(x_axis_y)}" stroke="#444444" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_fmt(_ML)}" y1="{_fmt(_MT)}" x2="{_fmt(_ML)}" '
        f'y2="{_fmt(x_axis_y)}" stroke="#444444" stroke-width="1"/>'
    )
    for v in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = sx(v)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(x_axis_y)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(x_axis_y + 4)}" stroke="#444444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(x_axis_y + 16)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11" fill="#222222">{_tick_label(v)}</text>'
        )
    for v in np.linspace(y0, y1, 5):
        y = sy(float(v))
        parts.append(
            f'<line x1="{_fmt(_ML - 4)}" y1="{_fmt(y)}" x2="{_fmt(_ML)}" '
            f'y2="{_fmt(y)}" stroke="#444444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(_ML - 7)}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="#222222">{_tick_label(float(v))}</text>'
        )
    return parts


def _ref_line(x1: float, y1: float, x2: float, y2: float) -> str:
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'stroke="#999999" stroke-width="1" stroke-dasharray="5 4"/>'
    )


def _legend(labels) -> list[str]:
    parts = []
    for i, lab in enumerate(labels):
        y = _MT + 14.0 + 15.0 * i
        color = PALETTE[i % len(PALETTE)]
        parts.append(
            f'<line x1="{_fmt(_WIDTH - _MR - 86)}" y1="{_fmt(y - 4)}" '
            f'x2="{_fmt(_WIDTH - _MR - 66)}" y2="{_fmt(y - 4)}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_fmt(_WIDTH - _MR - 60)}" y="{_fmt(y)}" text-anchor="start" '
            f'font-family="sans-serif" font-size="11" fill="#222222">{_escape(lab)}</text>'
        )
    return parts


def _escape(text: str) -> str:
    out = str(text)
    for raw, safe in (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ('"', "&quot;")):
        out = out.replace(raw, safe)
    return out
