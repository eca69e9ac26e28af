"""Release gate: eleven end-to-end checks, one printed verdict line each.

Every test prints its PASS/FAIL line before asserting, so a failing run
still reports the measured numbers.  Seeds, sample sizes, and
tolerances are frozen; Monte Carlo margins are sized so seed noise
stays far from the thresholds.
"""

import itertools
import math
from time import perf_counter

import numpy as np

from ecdf_bands.bands_multi import (
    _pooled_counts,
    bands_from_gamma_multi,
    coverage_probability_multi,
    gamma_optimize_multi,
    gamma_simulate_multi,
    test_multi as run_multi_test,
)
from ecdf_bands.bands_single import (
    bands_from_gamma,
    coverage_probability,
    gamma_optimize,
    gamma_simulate,
)
from ecdf_bands.power import power_sweep
from ecdf_bands.thinning import ar1_simulate, ess_report, thin, thinning_factor
from ecdf_bands.transform import EvaluationGrid, default_grid

from golden_recipe import GOLDEN_PATH, golden_svg
from oracles import grid_cell_counts


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def _enumerate_discrete(n: int, support: int, grid: EvaluationGrid, gamma: float) -> float:
    """Coverage over all support**n equally likely discrete-uniform draws."""
    bands = bands_from_gamma(n, grid, gamma)
    lo, hi = bands.lower_counts, bands.upper_counts
    pts = grid.points
    values = np.arange(1, support + 1) / support
    inside = 0
    for combo in itertools.product(values, repeat=n):
        counts = (np.array(combo)[:, None] <= pts[None, :]).sum(axis=0)
        if np.all(counts >= lo) and np.all(counts <= hi):
            inside += 1
    return inside / support**n


def _enumerate_interleavings(n: int, grid: EvaluationGrid, gamma: float) -> float:
    """Two-chain coverage over all C(2n, n) equally likely rank splits."""
    s = _pooled_counts(grid, n, 2)
    bands = bands_from_gamma_multi(n, 2, grid, gamma)
    lo, hi = bands.lower_counts, bands.upper_counts
    pool = range(1, 2 * n + 1)
    inside = total = 0
    for first in itertools.combinations(pool, n):
        second = [r for r in pool if r not in first]
        total += 1
        ok = True
        for chain in (np.array(first), np.array(second)):
            counts = (chain[:, None] <= s[None, :]).sum(axis=0)
            if np.any(counts < lo) or np.any(counts > hi):
                ok = False
                break
        inside += ok
    return inside / total


def _mc_inside_rate(n: int, grid: EvaluationGrid, gamma: float, m: int) -> float:
    """Independent Monte Carlo estimate of the band retention rate."""
    bands = bands_from_gamma(n, grid, gamma)
    lo, hi = bands.lower_counts, bands.upper_counts
    pts = grid.points
    inside = 0
    for start in range(0, m, 2000):
        size = min(2000, m - start)
        rng = np.random.default_rng(np.random.SeedSequence((314, n, start)))
        counts = grid_cell_counts(rng.random((size, n)), pts)
        inside += int(np.all((counts >= lo) & (counts <= hi), axis=1).sum())
    return inside / m


def test_criterion_01_discrete_enumeration_single_sample():
    worst = 0.0
    for support in (4, 5):
        grid = EvaluationGrid(np.arange(1, support + 1) / support)
        for gamma in (0.05, 0.2):
            exact = coverage_probability(4, grid, gamma)
            enum = _enumerate_discrete(4, support, grid, gamma)
            worst = max(worst, abs(exact - enum))
    _verdict(
        1,
        worst <= 1e-12,
        f"one-sample recursion vs full discrete enumeration (n=4, 4 and 5 categories): max |diff| {worst:.2e}, tol 1e-12",
    )


def test_criterion_02_interleaving_enumeration_two_chains():
    grid = EvaluationGrid([0.25, 0.5, 0.75])
    worst = 0.0
    for gamma in (0.01, 0.05, 0.2):
        exact = coverage_probability_multi(4, 2, grid, gamma)
        enum = _enumerate_interleavings(4, grid, gamma)
        worst = max(worst, abs(exact - enum))
    _verdict(
        2,
        worst <= 1e-12,
        f"two-chain recursion vs all 70 rank interleavings (n=4, K=3): max |diff| {worst:.2e}, tol 1e-12",
    )


def test_criterion_03_calibration_coverage_and_independent_mc():
    t0 = perf_counter()
    gaps, mc_gaps = [], []
    for n in (50, 250, 1000):
        grid = default_grid(n)
        res = gamma_optimize(n, grid, 0.05)
        gaps.append(abs(res.attained_coverage - 0.95))
        mc_gaps.append(abs(_mc_inside_rate(n, grid, res.gamma, 100_000) - 0.95))
    elapsed = perf_counter() - t0
    ok = max(gaps) <= 0.01 and max(mc_gaps) <= 0.012 and elapsed <= 600.0
    _verdict(
        3,
        ok,
        f"optimized coverage within 0.01 (worst {max(gaps):.4f}) and 1e5-draw MC within 0.012 "
        f"(worst {max(mc_gaps):.4f}) for n in 50/250/1000, {elapsed:.0f}s of 600s",
    )


def test_criterion_04_simulation_agrees_with_optimization():
    t0 = perf_counter()
    diffs = []
    for n in (50, 250):
        grid = default_grid(n)
        opt = gamma_optimize(n, grid, 0.05)
        sim = gamma_simulate(n, grid, 0.05, m=10_000, seed=0)
        diffs.append(abs(opt.attained_coverage - sim.attained_coverage))
        mgrid = default_grid(n, 2 * n)
        mopt = gamma_optimize_multi(n, 2, mgrid, 0.05)
        msim = gamma_simulate_multi(n, 2, mgrid, 0.05, m=10_000, seed=0)
        diffs.append(abs(mopt.attained_coverage - msim.attained_coverage))
    elapsed = perf_counter() - t0
    ok = max(diffs) <= 0.01 and elapsed <= 300.0
    _verdict(
        4,
        ok,
        f"coverage at simulated vs optimized gamma (n=50/250, one and two chains): "
        f"worst |diff| {max(diffs):.4f} of 0.01, {elapsed:.0f}s of 300s",
    )


def test_criterion_05_null_rejection_rates_near_nominal():
    single = power_sweep(["bands"], "A", [1.0], 100, replicates=10_000, seed=0)
    multi = power_sweep(
        ["bands"], "A", [1.0], 100, replicates=10_000, seed=0, n_chains=4
    )
    s1 = single.rates["bands"][0]
    s4 = multi.rates["bands"][0]
    ok = 0.035 <= s1 <= 0.065 and 0.035 <= s4 <= 0.065
    _verdict(
        5,
        ok,
        f"null size at alpha 0.05 over 1e4 replicates: one chain {s1:.4f}, four chains {s4:.4f}, window [0.035, 0.065]",
    )


def test_criterion_06_power_grows_with_distortion_strength():
    ks = [0.2, 0.8, 1.0, 1.25, 3.0]
    curve = power_sweep(["bands"], "A", ks, 100, replicates=10_000, seed=0)
    r = dict(zip(ks, curve.rates["bands"]))
    ok = (
        r[0.2] >= r[0.8] + 0.05
        and r[3.0] >= r[1.25] + 0.05
        and 0.035 <= r[1.0] <= 0.065
    )
    _verdict(
        6,
        ok,
        f"end-tilt sweep at n=100: rates {[f'{r[k]:.3f}' for k in ks]}, "
        "strong strengths beat mild ones by 0.05 and the identity sits at size",
    )


def test_criterion_07_power_stability_across_chain_counts():
    rates = {}
    for l in (2, 4, 8):
        curve = power_sweep(
            ["bands"],
            "A",
            [1.5],
            100,
            replicates=10_000,
            seed=0,
            n_chains=l,
            m_calibration=10_000,
        )
        rates[l] = curve.rates["bands"][0]
    gaps = {
        (a, b): abs(rates[a] - rates[b])
        for a, b in ((2, 4), (2, 8), (4, 8))
    }
    ok = max(gaps.values()) <= 0.03
    _verdict(
        7,
        ok,
        f"one distorted chain among L=2/4/8 (k=1.5, n=100): rates "
        f"{rates[2]:.3f}/{rates[4]:.3f}/{rates[8]:.3f}, worst pairwise gap "
        f"{max(gaps.values()):.4f} of 0.03",
    )


def test_criterion_08_detects_autocorrelation():
    grid = default_grid(1000, 4000)
    gres = gamma_simulate_multi(1000, 4, grid, 0.05, m=10_000, seed=12)
    rates = []
    for phi in (0.0, 0.3, 0.6, 0.9):
        rej = 0
        for rep in range(1000):
            cs = ar1_simulate(phi, 1000, chains=4, seed=rep)
            if not run_multi_test(cs, grid=grid, gamma=gres).inside:
                rej += 1
        rates.append(rej / 1000)
    ok = all(a <= b for a, b in zip(rates, rates[1:])) and rates[-1] > 0.10
    _verdict(
        8,
        ok,
        f"four-chain rejection vs AR(1) strength 0/0.3/0.6/0.9: rates "
        f"{[f'{v:.3f}' for v in rates]}, nondecreasing with the last above 0.10",
    )


def test_criterion_09_thinning_restores_size_and_known_factors():
    gammas = {}
    rates = {}
    for phi in (0.5, 0.9):
        rej = 0
        reps = 10_000
        for rep in range(reps):
            cs = ar1_simulate(phi, 1000, chains=2, seed=rep)
            plan = thinning_factor(ess_report(cs), 2000, "BULK_TAIL_MIN")
            thinned = thin(cs, plan.factor)
            nd = thinned.n_draws
            if nd not in gammas:
                gammas[nd] = gamma_optimize_multi(nd, 2, default_grid(nd, 2 * nd), 0.05)
            if not run_multi_test(thinned, grid=default_grid(nd, 2 * nd), gamma=gammas[nd]).inside:
                rej += 1
        rates[phi] = rej / reps
    factors = {}
    for phi in (0.95, -0.95):
        tails = [
            ess_report(ar1_simulate(phi, 10_000, chains=1, seed=rep)).ess_tail
            for rep in range(50)
        ]
        factors[phi] = math.ceil(10_000 / float(np.mean(tails)))
    ok = (
        all(0.03 <= rates[p] <= 0.07 for p in rates)
        and abs(factors[0.95] - 18) <= 3
        and abs(factors[-0.95] - 7) <= 3
    )
    _verdict(
        9,
        ok,
        f"post-thinning rejection {rates[0.5]:.4f}/{rates[0.9]:.4f} in [0.03, 0.07]; "
        f"tail-ESS factors {factors[0.95]} (18+-3) and {factors[-0.95]} (7+-3)",
    )


def test_criterion_10_optimization_speed():
    grid250 = EvaluationGrid(np.arange(1, 251) / 250)
    t0 = perf_counter()
    gamma_optimize(250, grid250, 0.05)
    t_opt250 = perf_counter() - t0
    grid1000 = EvaluationGrid(np.arange(1, 1001) / 1000)
    t0 = perf_counter()
    gamma_optimize(1000, grid1000, 0.05)
    t_opt1000 = perf_counter() - t0
    t0 = perf_counter()
    gamma_simulate(250, grid250, 0.05, m=10_000, seed=0)
    t_sim250 = perf_counter() - t0
    ok = t_opt250 < 5.0 and t_opt1000 < 60.0 and t_sim250 >= 2.0 * t_opt250
    _verdict(
        10,
        ok,
        f"optimize n=250/K=250 {t_opt250:.2f}s (<5), n=1000/K=1000 {t_opt1000:.2f}s (<60), "
        f"simulate at 1e4 draws {t_sim250:.2f}s (>= 2x optimize)",
    )


def test_criterion_11_golden_svg_byte_identical():
    svg = golden_svg()
    fixture_ok = GOLDEN_PATH.exists() and svg.encode() == GOLDEN_PATH.read_bytes()
    structure_ok = svg.count("<polygon") == 1 and svg.count("<path ") == 4
    _verdict(
        11,
        fixture_ok and structure_ok,
        f"rendered figure matches the stored fixture byte for byte; "
        f"{svg.count('<polygon')} polygon and {svg.count('<path ')} step paths",
    )
