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
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from scipy.signal import convolve2d

from ecdf_bands import _forward
from ecdf_bands.bands_multi import (
    EXACT_CHAIN_LIMIT,
    MultiTestReport,
    _PACKED_CHAIN_LIMIT,
    _chain_factors,
    _chain_labeller,
    _pooled_counts,
    _rank_cells,
    bands_from_gamma_multi,
    coverage_probability_multi,
    gamma_optimize_multi,
    gamma_simulate_multi,
)
from ecdf_bands.bands_multi import test_multi as run_multi_test
from ecdf_bands.bands_single import (
    ConfidenceBands,
    GammaResult,
    _cdf_matrix,
    _chunk_rng,
    _count_bounds,
    _grid_key,
    _single_factors,
)
from ecdf_bands.transform import (
    ChainSet,
    EvaluationGrid,
    _cell_counts,
    default_grid,
    joint_fractional_ranks,
)
from oracles import (
    assert_chain_rows_match_exact_cdfs,
    chain_cell_counts,
    chain_cell_tolerance,
    chain_table,
    coverage_three_chains,
    coverage_two_chains,
    dense_pass,
    exact_chain_mass,
    hyper_exact_cdf,
    hyper_quantile,
    hyper_support,
    recorded_levels,
    simulated_gamma,
    simulated_held_multi,
    simulated_levels_multi,
)


def band_bounds(n: int, l: int, s, gamma: float):
    """The program's equal-tail hypergeometric count bounds per pooled count."""
    cdf, floor = chain_table(n, l, s)
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
# F(13) = 1 - 1/C(70, 14) lies below 1 - 0/2; F(0) = 1/2 exactly at 1 - 1/2
@example(n=14, l=5, s=[14], gamma=0.0)
@example(n=1, l=2, s=[1], gamma=1.0)
def test_band_bounds_match_quantiles_everywhere(n, l, s, gamma):
    # each bound counts the exact CDF values below its threshold, but
    # where an exact value lies within the table's error of the threshold
    # (``chain_cell_tolerance``: at gamma = 1 a CDF of exactly 1/2 meets
    # the threshold 1/2), the count may go either way at that value
    s = np.array([min(si, l * n) for si in s])
    lo, hi = band_bounds(n, l, s, gamma)
    rest = (l - 1) * n
    for i, si in enumerate(s.tolist()):
        cdf = hyper_exact_cdf(n, rest, si)
        tol = [chain_cell_tolerance(n, l, f) for f in cdf]
        bottom = hyper_support(n, rest, si)[0]
        for got, t, floor in ((lo[i], gamma / 2.0, bottom), (hi[i], 1.0 - gamma / 2.0, 0)):
            t = Fraction(t)
            surely = max(sum(f + e < t for f, e in zip(cdf, tol)), floor)
            maybe = max(sum(f - e < t for f, e in zip(cdf, tol)), floor)
            assert surely <= got <= maybe, (si, float(t))


@st.composite
def pooled_count_keys(draw):
    """(n, l, sorted pooled counts) holding 0, l * n and a repeated count."""
    n = draw(st.integers(1, 80))
    l = draw(st.integers(2, 8))
    inner = draw(st.lists(st.integers(0, l * n), max_size=12))
    repeated = draw(st.sampled_from([0, l * n, *inner]))
    return n, l, tuple(sorted([0, l * n, repeated, *inner]))


@settings(max_examples=100, deadline=None)
@given(key=pooled_count_keys())
@example(key=(1, 2, (0, 0, 1, 2)))
@example(key=(40, 5, (0, 1, 39, 40, 41, 100, 159, 160, 161, 199, 200, 200)))
def test_hyper_table_matches_the_per_row_oracle(key):
    # one (K, n + 1) build against each row's exact CDF, summed in
    # rational arithmetic, on both tails, with its layout: 0 below each
    # support, 1 from its top on, and the support's bottom as floor
    assert_chain_rows_match_exact_cdfs(*key)


_ORACLES = {2: coverage_two_chains, 3: coverage_three_chains}


def _assert_both_routes_match_oracle(n, l, s, lo, hi):
    want = _ORACLES[l](n, s, lo, hi)
    args = _chain_factors(n, l, np.asarray(s), np.asarray(lo), np.asarray(hi))
    for got in (_forward.forward_mass(*args), dense_pass(*args)):
        assert got == pytest.approx(want, rel=1e-11, abs=1e-15), (got, want)
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


@st.composite
def band_problems(draw):
    """Chains (1 to 3), chain length, grid and gamma, over shapes whose
    steps mix both kinds: large n, coarse and custom grids, and windows
    from one count wide to nearly the whole range."""
    l = draw(st.sampled_from([1, 2, 3]), label="l")
    n = draw(st.integers(1, {1: 20_000, 2: 3000, 3: 60}[l]), label="n")
    if draw(st.booleans(), label="default grid"):
        # one column's full table has K * (n + 1) cells
        k_max = draw(st.integers(1, 1000 if l > 1 else min(1000, max(2, 200_000 // n))), label="k_max")
        grid = default_grid(n, l * n if l > 1 else None, k_max=k_max)
    else:
        pts = draw(st.lists(st.floats(1e-3, 0.999), min_size=1, max_size=8), label="pts")
        if draw(st.booleans(), label="point near 0"):
            pts.append(draw(st.floats(1e-9, 1e-5), label="near 0"))
        if draw(st.booleans(), label="point 1"):
            pts.append(1.0)
        grid = EvaluationGrid(np.unique(pts))
    gamma = draw(st.one_of(st.just(1.0), st.floats(-300.0, 0.0).map(lambda e: 10.0**e)), label="gamma")
    return l, n, grid, gamma


@settings(max_examples=200, deadline=None)
@given(band_problems())
@example((1, 20_000, default_grid(20_000), 0.9999))
@example((2, 3000, default_grid(3000, 6000, k_max=2), 1e-12))
@example((2, 3000, EvaluationGrid([1e-6, 0.5, 1.0]), 1e-3))
@example((2, 2000, default_grid(2000, 4000, k_max=250), 1.0))
@example((2, 2316, default_grid(2316, 4632, k_max=386), 1.0))
def test_forward_pass_matches_the_dense_oracle_on_band_windows_of_every_law(problem):
    # every step whose scaled factors leave double range runs on its
    # matrix; the pass must still match the all-matrix oracle, and count
    # as "dense" exactly when such a step ran
    l, n, grid, gamma = problem
    if l == 1:
        key = _grid_key(grid)
        lo, hi = _count_bounds(_cdf_matrix(n, key), gamma)
        args = _single_factors(n, key, lo, hi)
    else:
        s = np.unique(_pooled_counts(grid, n, l))
        args = _chain_factors(n, l, s, *band_bounds(n, l, s, gamma))
    # the oracle multiplies a (window cells) x (window cells) matrix per step
    cells = np.maximum(args[1] - args[0] + 1, 0) ** max(l - 1, 1)
    assume(int((cells[:-1] * cells[1:]).sum()) <= 10**7)
    dense_before = _forward.route_count("dense")
    with mock.patch.object(_forward, "_dense_step", wraps=_forward._dense_step) as dense_step:
        got = _forward.forward_mass(*args)
    event(f"L={l}, a step ran on its matrix: {dense_step.call_count > 0}")
    assert _forward.route_count("dense") - dense_before == (dense_step.call_count > 0)
    assert got == pytest.approx(dense_pass(*args), rel=1e-10, abs=1e-300)


_STEP_ULPS = 32
"""Ulps of log((l n)!) one step of a two-chain pass may move its factor
by: the 9 log-factorials it reads, each within 2 ulps, and the 8 sums
and differences that combine them, each rounded at a magnitude below
2 log((l n)!)."""


@pytest.mark.parametrize(
    "n, l, pts",
    [(4, 2, [0.25, 0.5, 0.75, 1.0]), (5, 2, [0.2, 0.4, 0.6, 0.8, 1.0]), (6, 2, [1 / 3, 2 / 3, 1.0]), (3, 3, [1 / 3, 2 / 3, 1.0])],
)
def test_exact_chain_mass_matches_enumeration(n, l, pts):
    # at gamma = 1 each window is the one median count
    grid = EvaluationGrid(pts)
    s = _pooled_counts(grid, n, l)
    lo, hi = band_bounds(n, l, s, 1.0)
    assert np.array_equal(lo, hi)
    assert float(exact_chain_mass(n, l, s, lo, hi)) == enumerate_interleaving_coverage(n, l, grid, 1.0) > 0.0


@pytest.mark.parametrize("n, k", [(2000, 250), (2316, 386)])
def test_single_count_windows_match_exact_arithmetic(n, k):
    # two chains at gamma = 1, where every window holds the median count
    # alone: draws on which the pass and the dense oracle parted by more
    # than 1e-10 while the oracle added each jump to its source first,
    # rounding at log((2n)!) the same way every step.  Each step's factor is exp of a sum of log-factorials
    # near log((2n)!) ~ 3e4, whose absolute rounding is the factor's
    # relative error, so K steps may move the mass by K * _STEP_ULPS
    # ulps of log((2n)!): 2.9e-8 and 9.0e-8 here, against errors of at
    # most 1.6e-10
    grid = default_grid(n, 2 * n, k_max=k)
    s = np.unique(_pooled_counts(grid, n, 2))
    lo, hi = band_bounds(n, 2, s, 1.0)
    assert s.size == k and np.array_equal(lo, hi)
    args = _chain_factors(n, 2, s, lo, hi)
    exact = exact_chain_mass(n, 2, s, lo, hi)
    bound = k * _STEP_ULPS * math.ulp(math.lgamma(2 * n + 1))
    for got in (_forward.forward_mass(*args), dense_pass(*args)):
        assert abs(float(Fraction(got) / exact - 1)) <= bound


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
        # every pass falls back, and logs once; probes of bands a pass
        # already ran read its coverage
        assert dense.meta["dense_fallbacks"] == dense.meta["passes"] > 0
        assert [r.name for r in caplog.records] == ["ecdf_bands"] * dense.meta["passes"]
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
    # the tail levels read the chain table summed from each tail; the
    # table summed from the left only gave 0.0011310751411618782 and
    # 0.0009973242244734409
    [(80, 4, 0.0011310751411618414), (40, 8, 0.0009973242244732947)],
)
def test_gamma_simulate_multi_seeded_values_are_pinned(n, l, gamma):
    res = gamma_simulate_multi(n, l, default_grid(n, l * n), 0.05, m=10_000, seed=0)
    assert res.gamma == gamma


@pytest.mark.parametrize("n, l", [(32, 4), (40, 4), (10, 16)])
def test_in_sample_coverage_is_the_share_the_bands_hold(n, l):
    # the reported in-sample coverage must be what the served bands do on
    # the simulator's own replicates, and it must reach 1 - alpha
    grid = default_grid(n, l * n)
    res = gamma_simulate_multi(n, l, grid, 0.05, m=10_000, seed=0)
    assert res.meta["attained_estimate"] == "in_sample"
    bands = bands_from_gamma_multi(n, l, grid, res)
    held = simulated_held_multi(n, l, grid, 10_000, 0, bands)
    assert res.attained_coverage == float(np.mean(held))
    assert res.attained_coverage > 0.95


@pytest.mark.parametrize(
    "n, l, m, threads",
    [
        (100, 2, 1000, 1),
        (30, 3, 1000, 2),
        (80, 4, 1000, 1),
        # a last chunk of 10 replicates, under one block of 51
        (80, 4, 1034, 2),
        (25, 5, 1000, 1),
        (40, 8, 1000, 2),
        # rows of 4000 draws: blocks of 16 replicates, the last of 12
        (1000, 4, 300, 1),
    ],
)
def test_gamma_simulate_multi_matches_whole_chunk_oracle(monkeypatch, n, l, m, threads):
    grid = default_grid(n, l * n)
    res, levels = recorded_levels(
        monkeypatch, lambda: gamma_simulate_multi(n, l, grid, 0.05, m=m, seed=11, threads=threads)
    )
    want = simulated_levels_multi(n, l, grid, m, 11)
    np.testing.assert_array_equal(levels, want)
    gamma, in_sample = simulated_gamma(want, 0.05)
    assert res.gamma == gamma
    if l > EXACT_CHAIN_LIMIT:
        assert res.attained_coverage == in_sample


@pytest.mark.parametrize("l", [2048, 2049])
def test_gamma_simulate_multi_at_packed_chain_limit_matches_oracle(monkeypatch, l):
    # 2048 chain labels are the most that fit below a 53-bit draw in 64 bits
    assert _PACKED_CHAIN_LIMIT == 2048
    grid = EvaluationGrid(np.array([0.25, 0.5, 0.75, 1.0]))
    res, levels = recorded_levels(
        monkeypatch, lambda: gamma_simulate_multi(1, l, grid, 0.05, m=100, seed=4)
    )
    want = simulated_levels_multi(1, l, grid, 100, 4)
    np.testing.assert_array_equal(levels, want)
    assert (res.gamma, res.attained_coverage) == simulated_gamma(want, 0.05)


@pytest.mark.parametrize("n, l", [(1, 2), (5, 3), (80, 4), (7, 100), (1, 2048), (1, 2049), (2, 2049)])
def test_chain_labeller_orders_as_argsort_of_the_draws(n, l):
    got = _chain_labeller(n, l)(_chunk_rng(6, 1), 9)
    want = np.argsort(_chunk_rng(6, 1).random((9, l * n)), axis=1) // n
    np.testing.assert_array_equal(got, want)


def test_chunk_stream_is_random_raw_top_53_bits():
    """The packed sort reads ``rng.random``'s draws from ``random_raw``;
    if numpy changes how ``Generator.random`` makes a float, this fails
    instead of every seeded gamma silently moving."""
    for seed, key in [(0, 0), (7, 3), (2**32 - 1, 12345)]:
        want = _chunk_rng(seed, key).random((5, 33))
        raw = _chunk_rng(seed, key).bit_generator.random_raw((5, 33))
        np.testing.assert_array_equal(want, (raw >> np.uint64(11)) * 2.0**-53)


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
    got = chain_cell_counts(u, s, n, l)
    # the program's counter, one row at a time, on the same pooled order
    order = np.argsort(u, axis=1)
    cells = order // n * (s.size + 1) + _rank_cells(s, l * n)
    counted = [_cell_counts(row, l, s.size) for row in cells]
    ranks = np.argsort(order, axis=1) + 1
    want = np.empty((rows, l, s.size), dtype=np.int64)
    for i in range(rows):
        for c in range(l):
            chain = ranks[i, c * n : (c + 1) * n]
            for j, sj in enumerate(s):
                want[i, c, j] = int((chain <= sj).sum())
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(counted, want)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_multi_test_counts_each_chains_joint_ranks(data):
    n = data.draw(st.integers(1, 6), label="n")
    l = data.draw(st.integers(2, 8), label="l")
    # a coarse lattice makes ties, which the tie policy breaks
    levels = data.draw(st.integers(2, 3 * l * n), label="levels")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    tie_policy = data.draw(st.sampled_from(["deterministic", "random"]), label="tie policy")
    draws = np.random.default_rng(seed).integers(0, levels, (l, n)) / levels
    grid = None
    if not data.draw(st.booleans(), label="default grid"):
        # points a/d off the pooled lattice; with small d a float rank
        # j/(l*n) is at or below a/d exactly when j*d <= a*l*n
        d = data.draw(st.integers(1, 40), label="d")
        a = data.draw(st.sets(st.integers(1, d), min_size=1, max_size=8), label="a")
        grid = EvaluationGrid(np.array(sorted(a)) / d)
    rep = run_multi_test(draws, grid=grid, gamma=0.05, tie_policy=tie_policy, seed=seed)
    fractional = joint_fractional_ranks(draws, tie_policy=tie_policy, seed=seed)
    points = rep.bands.grid.points
    for c, chain in enumerate(rep.chains):
        want = [int((fractional[c] <= z).sum()) for z in points]
        np.testing.assert_array_equal(chain.trajectory.counts, want)


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
