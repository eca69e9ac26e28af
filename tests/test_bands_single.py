"""Single-sample simultaneous bands.

The exact coverage recursion is checked against two independent
routes: full enumeration over discrete uniform outcomes, and a direct
multinomial sum over count increments for continuous uniforms.  The
forward pass, whose steps convolve or, out of double range, run on their
transition matrices, is additionally compared to the plain matrix
recursion and to ``dense_pass`` (every step on its matrix), both kept in
``oracles``.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecdf_bands import _forward
from ecdf_bands.bands_single import (
    ConfidenceBands,
    GammaResult,
    Exceedance,
    _cdf_matrix,
    _cdf_table,
    _count_bounds,
    _empirical_lower_quantile,
    _exceedances,
    _grid_key,
    _simulated_gamma,
    _single_factors,
    band_exceedances,
    bands_from_gamma,
    coverage_probability,
    gamma_optimize,
    gamma_simulate,
)
from ecdf_bands.bands_single import test_single as run_single_test
from ecdf_bands.transform import EcdfTrajectory, EvaluationGrid, default_grid, ecdf_eval
from oracles import (
    binom_cdf,
    binom_cdf_table,
    binom_quantile,
    dense_pass,
    grid_cell_counts,
    interval_mass,
    recorded_levels,
    simulated_gamma,
    simulated_levels_single,
)


def interior_bounds(n: int, grid: EvaluationGrid, gamma: float):
    """The program's equal-tail binomial count bounds at each grid point."""
    return _count_bounds(_cdf_matrix(n, _grid_key(grid)), gamma)


def enumerate_discrete_coverage(n: int, support: int, grid: EvaluationGrid, gamma: float) -> float:
    """Coverage by brute force over all support**n equally likely draws.

    Each draw takes values j/support for j = 1..support; the trajectory
    is inside when every grid count sits within the equal-tail bounds.
    """
    lo, hi = interior_bounds(n, grid, gamma)
    pts = grid.points
    values = np.arange(1, support + 1) / support
    inside = 0
    for combo in itertools.product(values, repeat=n):
        arr = np.array(combo)
        counts = (arr[:, None] <= pts[None, :]).sum(axis=0)
        if np.all(counts >= lo) and np.all(counts <= hi):
            inside += 1
    return inside / support**n


def multinomial_coverage(n: int, grid: EvaluationGrid, gamma: float) -> float:
    """Coverage as a direct multinomial sum over count increments.

    The grid splits [0, 1] into cells with probabilities (z_1, z_2 - z_1,
    ..., 1 - z_K); summing the multinomial pmf over increment paths whose
    partial sums stay inside the bounds avoids the conditional-binomial
    recursion entirely.
    """
    lo, hi = interior_bounds(n, grid, gamma)
    pts = grid.points
    cells = np.diff(np.concatenate(([0.0], pts, [1.0])))
    k = pts.size
    total = 0.0
    for incs in itertools.product(range(n + 1), repeat=k):
        if sum(incs) > n:
            continue
        partial = np.cumsum(incs)
        if np.any(partial < lo) or np.any(partial > hi):
            continue
        rest = n - int(partial[-1])
        coef = math.factorial(n)
        for d in incs:
            coef //= math.factorial(d)
        coef //= math.factorial(rest)
        prob = coef * np.prod(cells[:-1] ** np.array(incs)) * cells[-1] ** rest
        total += prob
    return total


def test_coverage_matches_discrete_enumeration_quarters():
    grid = EvaluationGrid([0.25, 0.5, 0.75, 1.0])
    for gamma in (0.05, 0.2, 0.5):
        want = enumerate_discrete_coverage(4, 4, grid, gamma)
        got = coverage_probability(4, grid, gamma)
        assert got == pytest.approx(want, abs=1e-13), gamma


def test_coverage_matches_discrete_enumeration_fifths():
    grid = EvaluationGrid(np.arange(1, 6) / 5)
    for gamma in (0.05, 0.3):
        want = enumerate_discrete_coverage(4, 5, grid, gamma)
        got = coverage_probability(4, grid, gamma)
        assert got == pytest.approx(want, abs=1e-13), gamma


def test_coverage_matches_multinomial_sum_off_lattice_grid():
    grid = EvaluationGrid([0.2, 0.55, 0.8])
    for gamma in (0.02, 0.15, 0.6):
        want = multinomial_coverage(5, grid, gamma)
        got = coverage_probability(5, grid, gamma)
        assert got == pytest.approx(want, abs=1e-13), gamma


def test_coverage_single_point_equals_binomial_interval_mass():
    n, z, gamma = 30, 0.37, 0.1
    grid = EvaluationGrid([z])
    lo, hi = interior_bounds(n, grid, gamma)
    want = binom_cdf(int(hi[0]), n, z) - binom_cdf(int(lo[0]) - 1, n, z)
    assert coverage_probability(n, grid, gamma) == pytest.approx(want, abs=1e-13)


def test_coverage_edge_levels():
    grid = default_grid(20)
    assert coverage_probability(20, grid, 0.0) == 1.0
    # gamma = 1 pins every count to the median-ish quantile pair
    assert 0.0 <= coverage_probability(20, grid, 1.0) <= 1.0
    with pytest.raises(ValueError):
        coverage_probability(20, grid, 1.5)
    with pytest.raises(ValueError):
        coverage_probability(0, grid, 0.1)


def test_coverage_monotone_in_gamma():
    grid = default_grid(60)
    values = [coverage_probability(60, grid, g) for g in (0.001, 0.01, 0.05, 0.2)]
    assert all(a >= b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize(
    "n,k_max,gamma",
    [
        (5, 5, 0.5),
        (17, 17, 0.2),
        (50, 50, 0.01),
        (120, 100, 0.004),
        (250, 100, 0.003),
        (1000, 100, 0.0027),
    ],
)
def test_fast_path_agrees_with_matrix_recursion(n, k_max, gamma):
    grid = default_grid(n, k_max=k_max)
    key = _grid_key(grid)
    lo, hi = _count_bounds(_cdf_matrix(n, key), gamma)
    dense_before = _forward.route_count("dense")
    fast = _forward.forward_mass(*_single_factors(n, key, lo, hi))
    assert _forward.route_count("dense") == dense_before
    ref = interval_mass(n, grid.points, lo, hi)
    assert fast == pytest.approx(ref, rel=5e-12, abs=1e-15)


def test_fast_path_agrees_on_discrete_resolution_grid():
    n = 120
    grid = default_grid(n, 240)
    key = _grid_key(grid)
    for gamma in (0.002, 0.05):
        lo, hi = _count_bounds(_cdf_matrix(n, key), gamma)
        dense_before = _forward.route_count("dense")
        fast = _forward.forward_mass(*_single_factors(n, key, lo, hi))
        assert _forward.route_count("dense") == dense_before
        ref = interval_mass(n, grid.points, lo, hi)
        assert fast == pytest.approx(ref, rel=5e-12)


def test_fast_path_declines_extreme_scales_and_fallback_runs(caplog):
    # a very coarse grid at large n concentrates so much mass per step
    # that the scaled factors leave double range; those steps run on
    # their transition matrices and the pass still answers
    n = 1000
    grid = EvaluationGrid([0.5, 1.0])
    key = _grid_key(grid)
    lo, hi = _count_bounds(_cdf_matrix(n, key), 1e-6)
    args = _single_factors(n, key, lo, hi)
    dense_before = _forward.route_count("dense")
    with caplog.at_level("DEBUG", logger="ecdf_bands"):
        got = _forward.forward_mass(*args)
    assert _forward.route_count("dense") == dense_before + 1
    assert len(caplog.records) == 1
    assert got == pytest.approx(dense_pass(*args), rel=1e-10)
    assert got == pytest.approx(interval_mass(n, grid.points, lo, hi), rel=1e-10)
    assert 0.999 < coverage_probability(n, grid, 1e-6) <= 1.0


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_both_routes_match_the_matrix_recursion_on_arbitrary_windows(data):
    # random null probabilities and windows that may shrink or move down
    n = data.draw(st.integers(1, 60), label="n")
    pts = np.unique(data.draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=8), label="pts"))
    lo, hi = [], []
    for _ in pts:
        a, b = sorted(data.draw(st.lists(st.integers(0, n), min_size=2, max_size=2), label="window"))
        lo.append(a)
        hi.append(b)
    lo, hi = np.array(lo), np.array(hi)
    want = interval_mass(n, pts, lo, hi)
    args = _single_factors(n, tuple(pts.tolist()), lo, hi)
    for got in (_forward.forward_mass(*args), dense_pass(*args)):
        assert got == pytest.approx(want, rel=1e-11, abs=1e-15)


def test_gamma_optimize_records_dense_fallbacks(monkeypatch):
    grid = default_grid(60)
    fast = gamma_optimize(60, grid, 0.05)
    assert fast.meta["dense_fallbacks"] == 0
    monkeypatch.setattr(_forward, "_EXP_GUARD", -1.0)
    dense = gamma_optimize(60, grid, 0.05)
    assert dense.meta["dense_fallbacks"] == dense.meta["passes"] > 0
    assert dense.gamma == fast.gamma
    assert dense.attained_coverage == pytest.approx(fast.attained_coverage, rel=1e-11)


def test_large_n_search_runs_its_first_steps_on_matrices_and_keeps_gamma():
    # at n = 20 000 on the default grid every pass starts from one
    # certain count whose step leaves double range; gamma is the one the
    # whole-pass matrix route found
    res = gamma_optimize(20_000, default_grid(20_000), 0.05)
    assert res.gamma == 0.0022999449832817875
    assert res.meta["dense_fallbacks"] == res.meta["passes"] > 0


def test_bounds_match_scalar_quantiles():
    n, gamma = 40, 0.013
    grid = default_grid(n, k_max=9)
    lo, hi = interior_bounds(n, grid, gamma)
    for i, z in enumerate(grid.points):
        assert lo[i] == binom_quantile(gamma / 2.0, n, float(z))
        assert hi[i] == binom_quantile(1.0 - gamma / 2.0, n, float(z))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 600),
    pts=st.one_of(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
        st.integers(1, 60).map(lambda r: [i / r for i in range(1, r + 1)]),
    ),
)
def test_vectorized_binomial_tables_match_the_per_row_oracle(n, pts):
    # each row of the (K, n + 1) table has the bits of the same row built
    # alone, and matches the per-row betainc oracle wherever a band
    # level from 1e-10 up reads it
    key = tuple(float(z) for z in pts)
    table = _cdf_matrix(n, key)
    cdf = table.cells
    assert cdf.shape == (len(key), n + 1) and not table.first.any()
    assert not cdf.flags.writeable
    alone = [_cdf_table(n, np.array([z]), 0.0).cells for z in key]
    np.testing.assert_array_equal(cdf, np.concatenate(alone))
    want = np.stack([binom_cdf_table(n, z) for z in key])
    read = 2.0 * np.minimum(want, 1.0 - want) >= 1e-10
    lower, upper = read & (want <= 0.5), read & (want > 0.5)
    assert np.all(np.abs(cdf[lower] - want[lower]) <= 1e-13 * want[lower])
    slack = 1e-13 * (1.0 - want[upper]) + 2 * np.spacing(want[upper])
    assert np.all(np.abs(cdf[upper] - want[upper]) <= slack)
    assert np.all(np.diff(cdf, axis=1) >= 0.0) and np.all(cdf[:, -1] == 1.0)


def test_bands_from_gamma_structure():
    n = 25
    grid = default_grid(n)
    bands = bands_from_gamma(n, grid, 0.01)
    assert bands.gamma == 0.01
    assert bands.gamma_info is None
    # the grid ends at 1, where the count is pinned to n
    assert bands.lower_counts[-1] == n
    assert bands.upper_counts[-1] == n
    assert np.all(bands.lower_counts <= bands.upper_counts)
    np.testing.assert_allclose(bands.lower, bands.lower_counts / n)
    res = GammaResult(0.01, 0.96, "optimization")
    via_result = bands_from_gamma(n, grid, res)
    assert via_result.gamma_info is res
    np.testing.assert_array_equal(via_result.lower_counts, bands.lower_counts)
    with pytest.raises(ValueError):
        bands_from_gamma(n, grid, 0.0)
    with pytest.raises(ValueError):
        bands_from_gamma(0, grid, 0.01)


def test_gamma_optimize_hits_the_target_coverage():
    grid = default_grid(100)
    res = gamma_optimize(100, grid, 0.05)
    assert res.method == "optimization"
    assert 0.0 < res.gamma <= 0.05
    assert res.attained_coverage == pytest.approx(0.95, abs=0.01)
    # the reported coverage is the exact coverage at the reported gamma
    assert res.attained_coverage == pytest.approx(
        coverage_probability(100, grid, res.gamma), abs=1e-12
    )


def test_gamma_optimize_smaller_alpha_gives_smaller_gamma():
    grid = default_grid(80)
    g5 = gamma_optimize(80, grid, 0.05).gamma
    g1 = gamma_optimize(80, grid, 0.01).gamma
    assert g1 < g5


def test_gamma_simulate_is_seed_deterministic_and_thread_invariant():
    grid = default_grid(50)
    a = gamma_simulate(50, grid, 0.05, m=2000, seed=11)
    b = gamma_simulate(50, grid, 0.05, m=2000, seed=11)
    c = gamma_simulate(50, grid, 0.05, m=2000, seed=11, threads=3)
    d = gamma_simulate(50, grid, 0.05, m=2000, seed=12)
    assert a.gamma == b.gamma == c.gamma
    assert a.method == "simulation"
    assert a.gamma != d.gamma
    assert 0.0 < a.gamma <= 0.05
    assert a.attained_coverage == pytest.approx(0.95, abs=0.03)


def test_gamma_simulate_rejects_tiny_replicate_counts():
    with pytest.raises(ValueError):
        gamma_simulate(50, default_grid(50), 0.05, m=50)


def test_simulated_gamma_refuses_a_zero_level():
    """A level of 0 raises RuntimeError, which the CLI reports with exit
    code 2, also under ``python -O``."""

    def levels(rng, size):
        out = rng.random(size) + 0.5
        out[0] = 0.0
        return out

    with pytest.raises(RuntimeError, match="must be positive"):
        _simulated_gamma(levels, 10, 0.05, 200, 100, 0, 1)


def test_empirical_lower_quantile_matches_sorting():
    rng = np.random.default_rng(3)
    values = rng.random(997)
    for alpha in (0.01, 0.05, 0.5):
        want = np.sort(values)[max(1, math.ceil(alpha * values.size)) - 1]
        assert _empirical_lower_quantile(values, alpha) == want


@pytest.mark.parametrize(
    "n, m, threads",
    [
        (250, 1000, 1),
        # a last chunk of 6 replicates, under one block of 65
        (250, 1030, 2),
        (40, 1000, 1),
        # rows of 3000 draws: blocks of 16 replicates, the last of 8
        (3000, 600, 2),
    ],
)
def test_gamma_simulate_matches_whole_chunk_oracle(monkeypatch, n, m, threads):
    grid = default_grid(n)
    res, levels = recorded_levels(
        monkeypatch, lambda: gamma_simulate(n, grid, 0.05, m=m, seed=11, threads=threads)
    )
    want = simulated_levels_single(n, grid, m, 11)
    np.testing.assert_array_equal(levels, want)
    assert res.gamma == simulated_gamma(want, 0.05)[0]


def test_grid_cell_counts_matches_brute_force():
    rng = np.random.default_rng(5)
    u = rng.random((7, 23))
    pts = default_grid(23, k_max=6).points
    # values on grid points count at them
    u[0, :6] = pts
    u[1, 3:9] = pts
    got = grid_cell_counts(u, pts)
    want = (u[:, :, None] <= pts[None, None, :]).sum(axis=1)
    np.testing.assert_array_equal(got, want)
    # ecdf_eval counts one sample the same way, also with values above a
    # last grid point below 1, and for a single value
    grids = (EvaluationGrid(pts), EvaluationGrid(pts[:-1]))
    for row in (*u, u[0, :1], np.array([0.95])):
        for grid in grids:
            want = (row[:, None] <= grid.points[None, :]).sum(axis=0)
            np.testing.assert_array_equal(ecdf_eval(row, grid).counts, want)


def test_band_exceedances_boundaries_count_as_inside():
    grid = EvaluationGrid([0.5, 1.0])
    bands = ConfidenceBands(grid, np.array([1, 4]), np.array([3, 4]), 4, 0.1)
    on_edge = EcdfTrajectory(grid, [1, 4], 4)
    assert band_exceedances(bands, on_edge) == []
    below = EcdfTrajectory(grid, [0, 4], 4)
    exc = band_exceedances(bands, below)
    assert len(exc) == 1
    assert exc[0].index == 0
    assert exc[0].side == "lower"
    assert exc[0].observed == 0.0
    assert exc[0].bound == 0.25
    above = EcdfTrajectory(EvaluationGrid([0.5]), [4], 4)
    bands_1pt = ConfidenceBands(EvaluationGrid([0.5]), np.array([1]), np.array([3]), 4, 0.1)
    exc = band_exceedances(bands_1pt, above)
    assert exc[0].side == "upper"


def _exceedances_loop(counts, lower, upper, n):
    """The per-point loop the vectorized scan replaced."""
    out = []
    for i in range(counts.size):
        c = int(counts[i])
        if c < lower[i]:
            out.append(Exceedance(i, c / n, float(lower[i] / n), "lower"))
        elif c > upper[i]:
            out.append(Exceedance(i, c / n, float(upper[i] / n), "upper"))
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_exceedance_scan_matches_loop(n, k, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, n + 1, (2, k))
    lower, upper = np.minimum(a, b), np.maximum(a, b)
    counts = rng.integers(0, n + 1, k)
    got = _exceedances(counts, lower, upper, n)
    want = _exceedances_loop(counts, lower, upper, n)
    assert got == want
    assert all(type(e.observed) is float and type(e.bound) is float for e in got)


def test_band_exceedances_rejects_mismatched_inputs():
    bands = bands_from_gamma(10, default_grid(10), 0.05)
    other = EcdfTrajectory(default_grid(12), np.arange(1, 13), 12)
    with pytest.raises(ValueError):
        band_exceedances(bands, other)


def test_test_single_accepts_clean_sample_and_flags_shifted_one():
    n = 60
    even = (np.arange(n) + 0.5) / n
    rep = run_single_test(even, alpha=0.05)
    assert rep.inside
    assert rep.exceedances == ()
    assert rep.bands.gamma_info.method == "optimization"
    clumped = np.full(n, 0.99)
    bad = run_single_test(clumped, alpha=0.05)
    assert not bad.inside
    assert bad.exceedances


def test_test_single_gamma_passthrough_skips_calibration():
    n = 40
    grid = default_grid(n)
    rep = run_single_test((np.arange(n) + 0.5) / n, grid=grid, gamma=0.008)
    assert rep.bands.gamma == 0.008
    assert rep.bands.gamma_info is None
    res = GammaResult(0.008, 0.95, "fixed")
    rep2 = run_single_test((np.arange(n) + 0.5) / n, grid=grid, gamma=res)
    assert rep2.bands.gamma_info is res


def test_test_single_uses_pit_resolution_for_the_default_grid():
    from ecdf_bands.transform import PitValues

    pit = PitValues(np.arange(1, 13) / 12, resolution=12)
    rep = run_single_test(pit, gamma=0.05)
    assert rep.bands.grid.size == 12
    assert rep.trajectory.counts[-1] == 12
