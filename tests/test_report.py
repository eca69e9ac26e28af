"""Plot series, rank histograms, and deterministic SVG output."""

from fractions import Fraction

import numpy as np
import pytest

from ecdf_bands.bands_single import bands_from_gamma
from ecdf_bands.report import (
    PALETTE,
    PLOT_SCHEMA,
    PlotSpec,
    diff_transform,
    plot_data,
    rank_hist,
    render_svg,
)
from ecdf_bands.transform import EcdfTrajectory, EvaluationGrid, PitValues, default_grid

from golden_recipe import GOLDEN_PATH, golden_svg
from oracles import binom_quantile


# ---------------------------------------------------------------------------
# rank histograms


def test_rank_hist_right_closed_binning():
    u = [0.2, 0.25, 0.26, 0.5, 0.75, 0.99, 1.0]
    h = rank_hist(u, 4, alpha=0.1)
    np.testing.assert_allclose(h.edges, [0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_array_equal(h.heights, [2, 2, 1, 2])
    assert h.heights.sum() == len(u)
    assert h.n == len(u)
    assert h.bins == 4


def test_rank_hist_zero_lands_in_first_bin():
    h = rank_hist([0.0, 0.1, 1.0], 2)
    np.testing.assert_array_equal(h.heights, [2, 1])


def test_rank_hist_interval_against_exact_binomial():
    def exact_quantile(q, n, p):
        acc = Fraction(0)
        from math import comb

        for k in range(n + 1):
            acc += comb(n, k) * p**k * (1 - p) ** (n - k)
            if acc >= q:
                return k
        return n

    n, bins = 20, 4
    h = rank_hist(np.linspace(0.01, 0.99, n), bins, alpha=0.1)
    p = Fraction(1, bins)
    assert h.lower == exact_quantile(Fraction(1, 20), n, p)
    assert h.upper == exact_quantile(Fraction(19, 20), n, p)
    assert h.lower <= n * p <= h.upper


def test_rank_hist_interval_is_the_per_row_quantile_pair():
    # the interval read from the one-row padded table by the bands'
    # count-bound rule is the per-row binomial quantile pair
    for bins in (2, 3, 4, 7, 16, 50):
        p = 1.0 / bins
        for alpha in (0.01, 0.05, 0.1, 0.5):
            for n in range(1, 201):
                h = rank_hist([0.5], bins, alpha=alpha, expected_total=n)
                want = (binom_quantile(alpha / 2.0, n, p), binom_quantile(1.0 - alpha / 2.0, n, p))
                assert (h.lower, h.upper) == want, (n, bins, alpha)


def test_rank_hist_expected_total_override():
    h = rank_hist([0.1, 0.6], 2, expected_total=50)
    assert h.n == 50
    assert h.heights.sum() == 2


def test_rank_hist_accepts_pit_values():
    pit = PitValues([0.25, 0.5, 1.0], resolution=4)
    h = rank_hist(pit, 4)
    assert h.heights.sum() == 3


def test_rank_hist_validation():
    with pytest.raises(ValueError):
        rank_hist([0.5], 1)
    with pytest.raises(ValueError):
        rank_hist([], 4)
    with pytest.raises(ValueError):
        rank_hist([1.5], 4)
    with pytest.raises(ValueError):
        rank_hist([0.1, np.nan, 0.3, 0.7], 4)
    with pytest.raises(ValueError):
        rank_hist([0.5], 4, alpha=0.0)
    with pytest.raises(ValueError):
        rank_hist([0.5], 4, expected_total=0)


# ---------------------------------------------------------------------------
# plot series


def _simple_bands_and_diagonal():
    grid = EvaluationGrid([0.25, 0.5, 0.75, 1.0])
    bands = bands_from_gamma(4, grid, 0.2)
    diagonal = EcdfTrajectory(grid, [1, 2, 3, 4], 4)
    return bands, diagonal


def test_diff_transform_recenters_on_zero():
    bands, diagonal = _simple_bands_and_diagonal()
    out = diff_transform(bands, [diagonal])
    np.testing.assert_allclose(out["series"][0], 0.0, atol=0)
    np.testing.assert_allclose(out["lower"], bands.lower - bands.grid.points)
    np.testing.assert_allclose(out["upper"], bands.upper - bands.grid.points)
    other = EcdfTrajectory(EvaluationGrid([0.5, 1.0]), [2, 4], 4)
    with pytest.raises(ValueError):
        diff_transform(bands, [other])


def test_plot_data_ecdf_and_diff():
    bands, diagonal = _simple_bands_and_diagonal()
    spec = PlotSpec("ecdf", bands, (diagonal,))
    data = plot_data(spec)
    assert data["schema"] == PLOT_SCHEMA
    assert data["kind"] == "ecdf"
    assert data["gamma"] == 0.2
    assert data["series"][0]["label"] == "chain 1"
    np.testing.assert_allclose(data["series"][0]["values"], [0.25, 0.5, 0.75, 1.0])
    diff = plot_data(PlotSpec("ecdf_diff", bands, (diagonal,), labels=("mine",)))
    np.testing.assert_allclose(diff["series"][0]["values"], 0.0, atol=0)
    assert diff["series"][0]["label"] == "mine"
    np.testing.assert_allclose(
        np.array(diff["band_upper"]) - np.array(data["band_upper"]),
        -bands.grid.points,
    )


def test_plot_data_rank_hist_payload():
    h = rank_hist([0.1, 0.4, 0.9], 3)
    data = plot_data(PlotSpec("rank_hist", hist=h, title="t"))
    assert data["bins"] == 3
    assert data["heights"] == [1, 1, 1]
    assert data["interval"] == [h.lower, h.upper]
    assert data["n"] == 3


def test_plot_spec_validation():
    bands, diagonal = _simple_bands_and_diagonal()
    with pytest.raises(ValueError):
        PlotSpec("pie", bands, (diagonal,))
    with pytest.raises(ValueError):
        PlotSpec("rank_hist")
    with pytest.raises(ValueError):
        PlotSpec("ecdf")
    with pytest.raises(ValueError):
        PlotSpec("ecdf", bands, (diagonal,), labels=("a", "b"))
    mismatched = EcdfTrajectory(EvaluationGrid([0.5, 1.0]), [1, 4], 4)
    with pytest.raises(ValueError):
        PlotSpec("ecdf", bands, (mismatched,))
    wrong_n = EcdfTrajectory(bands.grid, [1, 2, 3, 5], 5)
    with pytest.raises(ValueError):
        PlotSpec("ecdf", bands, (wrong_n,))


# ---------------------------------------------------------------------------
# SVG rendering


def test_render_matches_golden_fixture():
    assert GOLDEN_PATH.exists(), "golden fixture missing"
    assert golden_svg().encode() == GOLDEN_PATH.read_bytes()


def test_render_structure_counts():
    svg = golden_svg()
    assert svg.count("<polygon") == 1
    assert svg.count("<path ") == 4
    assert svg.count("chain 1") == 1
    assert svg.startswith('<?xml version="1.0"')
    assert svg.rstrip().endswith("</svg>")
    for color in PALETTE[:4]:
        assert color in svg


def test_render_is_deterministic():
    assert golden_svg() == golden_svg()


def test_render_ecdf_draws_diagonal_reference():
    bands, diagonal = _simple_bands_and_diagonal()
    svg = render_svg(PlotSpec("ecdf", bands, (diagonal,)))
    assert 'stroke-dasharray="5 4"' in svg
    assert svg.count("<path ") == 1
    # x axis ticks at the quarter positions
    for label in (">0</text>", ">0.25</text>", ">0.5</text>", ">0.75</text>", ">1</text>"):
        assert label in svg


def test_render_escapes_title_markup():
    bands, diagonal = _simple_bands_and_diagonal()
    svg = render_svg(PlotSpec("ecdf", bands, (diagonal,), title='a<b & "c"'))
    assert "a&lt;b &amp; &quot;c&quot;" in svg
    assert "a<b" not in svg


def test_render_hist_counts_rectangles():
    h = rank_hist(np.linspace(0.01, 0.99, 40), 8)
    svg = render_svg(PlotSpec("rank_hist", hist=h))
    # background + shared interval + one bar per bin
    assert svg.count("<rect ") == 2 + 8
    assert 'stroke-dasharray="4 3"' in svg
    assert svg.count("<polygon") == 0


def test_render_without_labels_omits_legend():
    bands, diagonal = _simple_bands_and_diagonal()
    svg = render_svg(PlotSpec("ecdf", bands, (diagonal,)))
    assert "text-anchor=\"start\"" not in svg


def test_large_multi_chain_render_cycles_palette():
    rng = np.random.default_rng(0)
    grid = default_grid(12, k_max=6)
    bands = bands_from_gamma(12, grid, 0.1)
    trajs = []
    for _ in range(10):
        u = np.sort(rng.random(12))
        counts = (u[:, None] <= grid.points[None, :]).sum(axis=0)
        counts[-1] = 12
        trajs.append(EcdfTrajectory(grid, counts, 12))
    svg = render_svg(PlotSpec("ecdf", bands, tuple(trajs)))
    assert svg.count("<path ") == 10
    # palette wraps after eight series
    assert svg.count(f'stroke="{PALETTE[0]}"') >= 2
