"""Multi-chain rank bands.

Under the null every assignment of pooled ranks to chains is equally
likely, so exact coverage has a combinatorial oracle: enumerate all
interleavings and count the ones whose per-chain trajectories stay
inside the shared bounds.  The factorized forward pass is checked
against that enumeration, and against the dense two- and three-chain
recursions kept in ``oracles`` on random shapes and windows.
"""

import itertools
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import convolve2d

from ecdf_bands import _forward, dist
from ecdf_bands.bands_multi import (
    MultiTestReport,
    _chain_cell_counts,
    _chain_factors,
    _hyper_tables,
    _pooled_counts,
    bands_from_gamma_multi,
    coverage_probability_multi,
    gamma_optimize_multi,
    gamma_simulate_multi,
)
from ecdf_bands.bands_multi import test_multi as run_multi_test
from ecdf_bands.bands_single import ConfidenceBands, GammaResult, _count_bounds
from ecdf_bands.transform import ChainSet, EvaluationGrid, default_grid
from oracles import coverage_three_chains, coverage_two_chains, hyper_quantile


def band_bounds(n: int, l: int, s, gamma: float):
    """The program's equal-tail hypergeometric count bounds per pooled count."""
    cdf, _, floor = _hyper_tables(n, l, tuple(int(si) for si in s))
    return _count_bounds(cdf, gamma, floor)


def enumerate_interleaving_coverage(n: int, l: int, grid: EvaluationGrid, gamma: float) -> float:
    """Coverage by enumerating every split of the pooled ranks."""
    s = _pooled_counts(grid, n, l)
    lo, hi = band_bounds(n, l, s, gamma)
    pool = list(range(1, l * n + 1))
    inside = total = 0

    def splits(remaining, chains_left):
        if chains_left == 1:
            yield (tuple(remaining),)
            return
        for picked in itertools.combinations(remaining, n):
            rest = [r for r in remaining if r not in picked]
            for tail in splits(rest, chains_left - 1):
                yield (picked,) + tail

    for assignment in splits(pool, l):
        total += 1
        ok = True
        for chain in assignment:
            arr = np.array(chain)
            counts = (arr[:, None] <= s[None, :]).sum(axis=0)
            if np.any(counts < lo) or np.any(counts > hi):
                ok = False
                break
        if ok:
            inside += 1
    return inside / total


def test_two_chain_coverage_matches_enumeration():
    grid = EvaluationGrid([0.25, 0.5, 0.75])
    for gamma in (0.01, 0.05, 0.2, 0.6):
        want = enumerate_interleaving_coverage(4, 2, grid, gamma)
        got = coverage_probability_multi(4, 2, grid, gamma)
        assert got == pytest.approx(want, abs=1e-13), gamma


def test_two_chain_coverage_with_endpoint_grid():
    grid = EvaluationGrid([0.25, 0.5, 0.75, 1.0])
    for gamma in (0.05, 0.3):
        want = enumerate_interleaving_coverage(4, 2, grid, gamma)
        got = coverage_probability_multi(4, 2, grid, gamma)
        assert got == pytest.approx(want, abs=1e-13), gamma


def test_three_chain_coverage_matches_enumeration():
    grid = EvaluationGrid([1 / 3, 2 / 3, 1.0])
    for gamma in (0.05, 0.3, 0.8):
        want = enumerate_interleaving_coverage(3, 3, grid, gamma)
        got = coverage_probability_multi(3, 3, grid, gamma)
        assert got == pytest.approx(want, abs=1e-13), gamma


def test_three_chain_coverage_off_lattice_grid():
    grid = EvaluationGrid([0.28, 0.77])
    for gamma in (0.1, 0.5):
        want = enumerate_interleaving_coverage(3, 3, grid, gamma)
        got = coverage_probability_multi(3, 3, grid, gamma)
        assert got == pytest.approx(want, abs=1e-13), gamma


def test_pooled_counts_guard_against_ulp_undershoot():
    # 0.3 * 1000 lands one ulp under 300 in floating point
    grid = EvaluationGrid([0.3, 1.0])
    s = _pooled_counts(grid, 100, 10)
    np.testing.assert_array_equal(s, [300, 1000])
    s2 = _pooled_counts(EvaluationGrid([1 / 3, 2 / 3, 1.0]), 3, 3)
    np.testing.assert_array_equal(s2, [3, 6, 9])


def test_band_bounds_are_hypergeometric_quantiles():
    n, l, gamma = 12, 3, 0.08
    s = np.array([5, 14, 30])
    lo, hi = band_bounds(n, l, s, gamma)
    for i, si in enumerate(s):
        assert lo[i] == hyper_quantile(gamma / 2.0, n, (l - 1) * n, int(si))
        assert hi[i] == hyper_quantile(1.0 - gamma / 2.0, n, (l - 1) * n, int(si))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 40),
    l=st.integers(2, 6),
    s=st.lists(st.integers(0, 240), min_size=1, max_size=10),
    gamma=st.floats(0.0, 1.0),
)
def test_band_bounds_match_quantiles_everywhere(n, l, s, gamma):
    s = np.array([min(si, l * n) for si in s])
    lo, hi = band_bounds(n, l, s, gamma)
    for i, si in enumerate(s):
        assert lo[i] == hyper_quantile(gamma / 2.0, n, (l - 1) * n, int(si))
        assert hi[i] == hyper_quantile(1.0 - gamma / 2.0, n, (l - 1) * n, int(si))


_ORACLES = {2: coverage_two_chains, 3: coverage_three_chains}


def _assert_both_routes_match_oracle(n, l, s, lo, hi):
    want = _ORACLES[l](n, s, lo, hi)
    args = _chain_factors(n, l, np.asarray(s), np.asarray(lo), np.asarray(hi))
    fast = _forward.fast_pass(*args)
    for got in (fast, _forward.dense_pass(*args)):
        if got is not None:
            assert got == pytest.approx(want, rel=1e-11, abs=1e-15), (got, want, fast)
    return want


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_forward_pass_matches_dense_oracles_on_band_windows(data):
    l = data.draw(st.sampled_from([2, 3]), label="l")
    n = data.draw(st.integers(1, 60 if l == 2 else 18), label="n")
    if data.draw(st.booleans(), label="default grid"):
        grid = default_grid(n, l * n, k_max=data.draw(st.integers(1, 100), label="k_max"))
    else:
        # off-lattice and often coarse: a handful of arbitrary points
        pts = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=8), label="pts")
        grid = EvaluationGrid(np.unique(pts))
    gamma = data.draw(st.floats(1e-6, 1.0), label="gamma")
    s = np.unique(_pooled_counts(grid, n, l))
    lo, hi = band_bounds(n, l, s, gamma)
    want = _assert_both_routes_match_oracle(n, l, s, lo, hi)
    got = coverage_probability_multi(n, l, grid, gamma)
    assert got == pytest.approx(want, rel=1e-11, abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_forward_pass_matches_dense_oracles_on_arbitrary_windows(data):
    # arbitrary windows per pooled count: they may shrink, move down, or
    # leave no admissible count at all
    l = data.draw(st.sampled_from([2, 3]), label="l")
    n = data.draw(st.integers(1, 30 if l == 2 else 12), label="n")
    s = sorted(set(data.draw(st.lists(st.integers(0, l * n), min_size=1, max_size=8), label="s")))
    lo, hi = [], []
    for _ in s:
        a, b = sorted(data.draw(st.lists(st.integers(0, n), min_size=2, max_size=2), label="window"))
        lo.append(a)
        hi.append(b)
    _assert_both_routes_match_oracle(n, l, s, lo, hi)


@pytest.mark.parametrize(
    "n, l, s, lo, hi",
    [
        # the first chain's window is [1, 3], then [4, 6], then moves down to [2, 10]
        (10, 2, [4, 10, 12], [1, 4, 2], [3, 6, 10]),
        # every chain at 1, then at 3, then anywhere in [2, 6]; then it shrinks to [4, 5]
        (6, 3, [3, 9, 12, 14], [1, 3, 2, 4], [1, 3, 6, 5]),
    ],
)
def test_forward_pass_on_windows_that_move_down(n, l, s, lo, hi):
    assert _assert_both_routes_match_oracle(n, l, s, lo, hi) > 0.0


@settings(max_examples=300, deadline=None)
@given(
    width=st.integers(1, 30),
    jumps=st.integers(1, 6),
    zeros=st.sampled_from([0.0, 0.3, 0.9]),
    seed=st.integers(0, 2**32 - 1),
)
def test_padded_flat_convolution_matches_convolve2d(width, jumps, zeros, seed):
    # the three-chain step's one np.convolve against the 2-D oracle, on
    # positive values spread like the scaled factors: the state over
    # 1e-250..1e250, the kernel (peak 1) over 1e-250..1
    rng = np.random.default_rng(seed)
    state = 10.0 ** rng.uniform(-250, 250, (width, width))
    kernel = 10.0 ** rng.uniform(-250, 0, (1, jumps, jumps))
    state[rng.random(state.shape) < zeros] = 0.0
    kernel[rng.random(kernel.shape) < zeros] = 0.0
    got = _forward._flat_convolution(kernel, width)(state, 0)
    want = convolve2d(state, kernel[0])
    assert got.shape == want.shape
    np.testing.assert_array_equal(got == 0.0, want == 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_dense_fallback_is_forced_recorded_and_logged(monkeypatch, caplog):
    for l, n in ((2, 30), (3, 12)):
        grid = default_grid(n, l * n)
        with caplog.at_level(logging.DEBUG, logger="ecdf_bands"):
            fast = gamma_optimize_multi(n, l, grid, 0.05)
        assert fast.meta["dense_fallbacks"] == 0
        assert not caplog.records
        # every scaled factor now counts as out of range
        monkeypatch.setattr(_forward, "_EXP_GUARD", -1.0)
        with caplog.at_level(logging.DEBUG, logger="ecdf_bands"):
            dense = gamma_optimize_multi(n, l, grid, 0.05)
        assert dense.meta["dense_fallbacks"] == dense.meta["evaluations"] > 0
        assert [r.name for r in caplog.records] == ["ecdf_bands"] * dense.meta["evaluations"]
        assert all(r.levelno == logging.DEBUG for r in caplog.records)
        assert dense.gamma == fast.gamma
        assert dense.attained_coverage == pytest.approx(fast.attained_coverage, rel=1e-11)
        s = np.unique(_pooled_counts(grid, n, l))
        lo, hi = band_bounds(n, l, s, 0.2)
        assert coverage_probability_multi(n, l, grid, 0.2) == pytest.approx(
            _ORACLES[l](n, s, lo, hi), rel=1e-11
        )
        # logging off: the fallback still runs and is counted, silently
        caplog.clear()
        assert gamma_optimize_multi(n, l, grid, 0.05).meta["dense_fallbacks"] > 0
        assert not caplog.records
        monkeypatch.undo()


def test_coverage_multi_monotone_in_gamma_and_edges():
    grid = default_grid(30, 60)
    values = [coverage_probability_multi(30, 2, grid, g) for g in (0.005, 0.05, 0.3)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert coverage_probability_multi(30, 2, grid, 0.0) == 1.0
    with pytest.raises(ValueError):
        coverage_probability_multi(30, 4, grid, 0.05)
    with pytest.raises(ValueError):
        coverage_probability_multi(30, 1, grid, 0.05)


def test_gamma_optimize_multi_two_chains_hits_target():
    grid = default_grid(50, 100)
    res = gamma_optimize_multi(50, 2, grid, 0.05)
    assert res.method == "optimization"
    assert 0.0 < res.gamma <= 0.05
    assert res.attained_coverage == pytest.approx(0.95, abs=0.01)
    assert res.attained_coverage == pytest.approx(
        coverage_probability_multi(50, 2, grid, res.gamma), abs=1e-12
    )


def test_gamma_optimize_multi_three_chains_small_sample():
    grid = default_grid(20, 60)
    res = gamma_optimize_multi(20, 3, grid, 0.1)
    assert 0.0 < res.gamma <= 0.1
    assert res.attained_coverage == pytest.approx(0.9, abs=0.03)
    with pytest.raises(ValueError):
        gamma_optimize_multi(20, 4, grid, 0.1)


def test_gamma_simulate_multi_determinism_and_exact_attained():
    grid = default_grid(40, 80)
    a = gamma_simulate_multi(40, 2, grid, 0.05, m=1500, seed=4)
    b = gamma_simulate_multi(40, 2, grid, 0.05, m=1500, seed=4)
    c = gamma_simulate_multi(40, 2, grid, 0.05, m=1500, seed=4, threads=2)
    assert a.gamma == b.gamma == c.gamma
    assert a.method == "simulation"
    assert 0.0 < a.gamma <= 0.05
    # for two chains the attained coverage is recomputed exactly
    assert a.attained_coverage == pytest.approx(
        coverage_probability_multi(40, 2, grid, a.gamma), abs=1e-12
    )
    assert "attained_estimate" not in a.meta


def test_gamma_simulate_multi_many_chains_reports_in_sample_estimate():
    grid = default_grid(25, 125)
    res = gamma_simulate_multi(25, 5, grid, 0.05, m=1200, seed=9)
    assert res.meta["attained_estimate"] == "in_sample"
    assert 0.8 <= res.attained_coverage <= 1.0


def test_gamma_simulate_multi_many_chains_thread_invariant():
    grid = default_grid(30, 120)
    a = gamma_simulate_multi(30, 4, grid, 0.05, m=1200, seed=5)
    b = gamma_simulate_multi(30, 4, grid, 0.05, m=1200, seed=5, threads=2)
    assert (a.gamma, a.attained_coverage) == (b.gamma, b.attained_coverage)


@pytest.mark.parametrize(
    "n, l, gamma",
    [(80, 4, 0.001131075141161866), (40, 8, 0.0009973242244734409)],
)
def test_gamma_simulate_multi_seeded_values_are_pinned(n, l, gamma):
    res = gamma_simulate_multi(n, l, default_grid(n, l * n), 0.05, m=10_000, seed=0)
    assert res.gamma == gamma


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_chain_cell_counts_matches_brute_force(data):
    n = data.draw(st.integers(1, 6), label="n")
    l = data.draw(st.integers(2, 8), label="l")
    rows = data.draw(st.integers(1, 4), label="rows")
    # a coarse lattice makes ties, which both routes order by the same argsort
    levels = data.draw(st.integers(2, 4 * l * n), label="levels")
    picks = st.integers(0, l * n)
    s = np.sort(data.draw(st.lists(picks, min_size=1, max_size=8), label="s"))
    if data.draw(st.booleans(), label="ends at l*n"):
        s = np.append(s, l * n)
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    u = np.random.default_rng(seed).integers(0, levels, (rows, l * n)) / levels
    got = _chain_cell_counts(u, s, n, l)
    ranks = np.argsort(np.argsort(u, axis=1), axis=1) + 1
    want = np.empty((rows, l, s.size), dtype=np.int64)
    for i in range(rows):
        for c in range(l):
            chain = ranks[i, c * n : (c + 1) * n]
            for j, sj in enumerate(s):
                want[i, c, j] = int((chain <= sj).sum())
    np.testing.assert_array_equal(got, want)


def test_multibands_structure_and_validation():
    grid = EvaluationGrid([0.5, 1.0])
    mb = ConfidenceBands(grid, np.array([1, 4]), np.array([3, 4]), 4, 0.05, n_chains=2)
    assert mb.n_chains == 2
    np.testing.assert_allclose(mb.lower, [0.25, 1.0])
    np.testing.assert_allclose(mb.upper, [0.75, 1.0])
    # the rank names read the same count bounds
    assert mb.lower_ranks is mb.lower_counts and mb.upper_ranks is mb.upper_counts
    with pytest.raises(ValueError):
        ConfidenceBands(grid, np.array([3, 4]), np.array([1, 4]), 4, 0.05, n_chains=2)
    with pytest.raises(ValueError):
        ConfidenceBands(grid, np.array([1]), np.array([3]), 4, 0.05, n_chains=2)
    # a negative bound anywhere, not only at the first grid point
    with pytest.raises(ValueError):
        ConfidenceBands(grid, np.array([1, -1]), np.array([3, 4]), 4, 0.05, n_chains=2)


def test_bands_from_gamma_multi_passthrough_and_errors():
    grid = default_grid(10, 20)
    res = GammaResult(0.02, 0.95, "optimization")
    mb = bands_from_gamma_multi(10, 2, grid, res)
    assert mb.gamma == 0.02
    assert mb.gamma_info is res
    assert mb.n_chains == 2
    with pytest.raises(ValueError):
        bands_from_gamma_multi(10, 1, grid, 0.02)
    with pytest.raises(ValueError):
        bands_from_gamma_multi(10, 2, grid, 0.0)


def test_multi_test_accepts_same_distribution_chains():
    rng = np.random.default_rng(21)
    cs = ChainSet(rng.standard_normal((4, 80)))
    rep = run_multi_test(cs, alpha=0.05, method="simulate", m=2000, seed=2)
    assert rep.inside
    assert len(rep.chains) == 4
    assert all(r.inside for r in rep.chains)
    assert rep.bands.n == 80
    # default grid uses the pooled resolution l * n
    assert rep.bands.grid.size == 80


def test_multi_test_flags_a_shifted_chain():
    rng = np.random.default_rng(22)
    draws = rng.standard_normal((3, 60))
    draws[0] += 2.5
    rep = run_multi_test(ChainSet(draws), alpha=0.05)
    assert not rep.inside
    shifted_report = rep.chains[0]
    assert not shifted_report.inside
    sides = {e.side for e in shifted_report.exceedances}
    # the shifted chain owns the top ranks, so its ECDF runs low
    assert sides == {"lower"}


def test_multi_test_gamma_passthrough_and_grid_choice():
    rng = np.random.default_rng(23)
    cs = ChainSet(rng.standard_normal((2, 30)))
    grid = default_grid(30, 60, k_max=10)
    rep = run_multi_test(cs, grid=grid, gamma=0.03)
    assert rep.bands.gamma == 0.03
    assert rep.bands.grid is grid
    counts_sum = sum(int(r.trajectory.counts[-1]) for r in rep.chains)
    assert counts_sum == 60 or grid.points[-1] < 1.0


def test_multi_report_requires_consistent_verdict():
    rng = np.random.default_rng(24)
    cs = ChainSet(rng.standard_normal((2, 25)))
    rep = run_multi_test(cs, gamma=0.05)
    with pytest.raises(ValueError):
        MultiTestReport(not rep.inside, rep.chains, rep.bands)


def test_multi_test_rejects_single_chain():
    with pytest.raises(ValueError):
        run_multi_test(ChainSet(np.arange(10.0)))
