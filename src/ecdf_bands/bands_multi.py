"""Simultaneous confidence bands for comparing several chains' rank
ECDFs against each other.

All chains are pooled and jointly ranked; at each evaluation quantile
the pooled count is fixed, so each chain's count of small ranks follows
a hypergeometric marginal and the bands are equal-tail hypergeometric
quantile intervals shared by every chain.  Exact coverage for two or
three chains runs a forward recursion over joint count states whose
increments are multivariate hypergeometric; with two chains the state
collapses to a single count, the same shape as the one-sample
recursion.  More chains fall back to simulation.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import dist
from .bands_single import (
    DEFAULT_REPLICATES,
    Exceedance,
    GammaResult,
    TestReport,
    _check_alpha,
    _empirical_lower_quantile,
    _search_steps,
)
from .transform import (
    ChainSet,
    EcdfTrajectory,
    EvaluationGrid,
    default_grid,
    joint_fractional_ranks,
)

__all__ = [
    "MultiBands",
    "MultiTestReport",
    "bands_from_gamma_multi",
    "coverage_probability_multi",
    "gamma_optimize_multi",
    "gamma_simulate_multi",
    "test_multi",
]

EXACT_CHAIN_LIMIT = 3


@dataclass(frozen=True, eq=False)
class MultiBands:
    """Shared per-chain rank-count bounds along a grid.

    ``lower_ranks``/``upper_ranks`` hold the raw count bounds; ``lower``
    and ``upper`` scale them by the per-chain sample size for plotting
    on the ECDF axis.
    """

    grid: EvaluationGrid
    lower_ranks: np.ndarray
    upper_ranks: np.ndarray
    n: int
    n_chains: int
    gamma: float
    gamma_info: GammaResult | None = None

    def __post_init__(self):
        lo = np.array(self.lower_ranks, dtype=np.int64)
        hi = np.array(self.upper_ranks, dtype=np.int64)
        if lo.shape != hi.shape or lo.size != self.grid.size:
            raise ValueError("band bounds must match the grid length")
        if np.any(lo > hi) or np.any(lo < 0) or np.any(hi > self.n):
            raise ValueError("band bounds must satisfy 0 <= lower <= upper <= n")
        for arr in (lo, hi):
            arr.setflags(write=False)
        object.__setattr__(self, "lower_ranks", lo)
        object.__setattr__(self, "upper_ranks", hi)

    @property
    def lower(self) -> np.ndarray:
        return self.lower_ranks / self.n

    @property
    def upper(self) -> np.ndarray:
        return self.upper_ranks / self.n


@dataclass(frozen=True, eq=False)
class MultiTestReport:
    inside: bool
    chains: tuple[TestReport, ...]
    bands: MultiBands

    def __post_init__(self):
        if self.inside != all(r.inside for r in self.chains):
            raise ValueError("joint verdict must match the per-chain verdicts")


def _check_chains(l: int) -> int:
    if int(l) != l or l < 2:
        raise ValueError("at least two chains are required")
    return int(l)


def _pooled_counts(grid: EvaluationGrid, n: int, l: int) -> np.ndarray:
    """Pooled rank counts ``s_i = floor(z_i * n * l)`` per grid point.

    The epsilon guards against float products like 0.3 * 1000 landing one
    ulp under the exact integer.
    """
    total = n * l
    return np.floor(grid.points * total + 1e-9).astype(np.int64)


def _band_bounds(n: int, l: int, s: np.ndarray, gamma: float):
    """Equal-tail hypergeometric count bounds per pooled count."""
    q_lo = gamma / 2.0
    q_hi = 1.0 - gamma / 2.0
    rest = (l - 1) * n
    lo = np.empty(s.size, dtype=np.int64)
    hi = np.empty(s.size, dtype=np.int64)
    for i, si in enumerate(s):
        lo[i] = dist.hyper_quantile(q_lo, n, rest, int(si))
        hi[i] = dist.hyper_quantile(q_hi, n, rest, int(si))
    return lo, hi


def bands_from_gamma_multi(n: int, l: int, grid: EvaluationGrid, gamma) -> MultiBands:
    """Shared equal-tail hypergeometric bands at adjustment level gamma."""
    info = gamma if isinstance(gamma, GammaResult) else None
    g = float(gamma.gamma if info is not None else gamma)
    if not 0.0 < g < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if n < 1:
        raise ValueError("chain length must be positive")
    l = _check_chains(l)
    s = _pooled_counts(grid, n, l)
    lo, hi = _band_bounds(n, l, s, g)
    return MultiBands(grid, lo, hi, int(n), l, g, info)


def coverage_probability_multi(n: int, l: int, grid: EvaluationGrid, gamma: float) -> float:
    """Exact probability that every chain's rank-count trajectory stays
    inside the shared gamma-level bands at every grid point.

    Supported for two or three chains; beyond that the joint state space
    grows too quickly and simulation should be used instead.
    """
    if n < 1:
        raise ValueError("chain length must be positive")
    l = _check_chains(l)
    if l > EXACT_CHAIN_LIMIT:
        raise ValueError(
            "exact coverage supports 2 or 3 chains; use gamma_simulate_multi for more"
        )
    gamma = float(gamma)
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    if gamma == 0.0:
        return 1.0
    s_all = _pooled_counts(grid, n, l)
    # duplicate pooled counts add identity transitions; drop them
    s = np.unique(s_all)
    lo, hi = _band_bounds(n, l, s, gamma)
    if np.any(lo > hi):
        return 0.0
    if l == 2:
        return _coverage_two_chains(n, s, lo, hi)
    return _coverage_three_chains(n, s, lo, hi)


def _coverage_two_chains(n: int, s, lo, hi) -> float:
    """Forward pass over the first chain's count; the second chain's
    count is determined by the pooled total, so the state is scalar."""
    prev_s = 0
    cur_lo = cur_hi = 0
    probs = np.ones(1)
    log_scale = 0.0
    for i in range(s.size):
        si = int(s[i])
        # both chains must stay inside the same bounds
        new_lo = max(int(lo[i]), si - int(hi[i]))
        new_hi = min(int(hi[i]), si - int(lo[i]))
        if new_lo > new_hi:
            return 0.0
        ds = si - prev_s
        r_old = np.arange(cur_lo, cur_hi + 1)
        r_new = np.arange(new_lo, new_hi + 1)
        growth = r_new[:, None] - r_old[None, :]
        pool_one = n - r_old[None, :]
        pool_two = n - (prev_s - r_old[None, :])
        log_t = (
            dist.log_choose(pool_one, growth)
            + dist.log_choose(pool_two, ds - growth)
            - dist.log_choose(2 * n - prev_s, ds)
        )
        probs = np.exp(log_t) @ probs
        total = float(probs.sum())
        if total <= 0.0:
            return 0.0
        if total < 1e-250:
            probs = probs / total
            log_scale += math.log(total)
        cur_lo, cur_hi = new_lo, new_hi
        prev_s = si
    return float(min(1.0, probs.sum() * math.exp(log_scale)))


def _sorted_triple_multiplicity(r1, r2, r3) -> np.ndarray:
    """Number of distinct orderings of each (r1, r2, r3) multiset."""
    mult = np.full(r1.shape, 6, dtype=np.float64)
    pair = (r1 == r2) | (r2 == r3) | (r1 == r3)
    mult[pair] = 3.0
    mult[(r1 == r2) & (r2 == r3)] = 1.0
    return mult


def _coverage_three_chains(n: int, s, lo, hi) -> float:
    """Forward pass over two chains' counts; the third is determined.

    At the first grid point only ordered count triples are enumerated,
    weighted by their orbit size; chain exchangeability makes the
    survival probability constant on each orbit, so total mass is
    preserved while the initial state count shrinks severalfold.
    """
    first_lo, first_hi = int(lo[0]), int(hi[0])
    s0 = int(s[0])
    span = np.arange(first_lo, first_hi + 1)
    r1, r2 = np.meshgrid(span, span, indexing="ij")
    r1, r2 = r1.ravel(), r2.ravel()
    r3 = s0 - r1 - r2
    keep = (r3 >= first_lo) & (r3 <= first_hi) & (r1 <= r2) & (r2 <= r3)
    r1, r2, r3 = r1[keep], r2[keep], r3[keep]
    if r1.size == 0:
        return 0.0
    log_init = (
        dist.log_choose(n, r1)
        + dist.log_choose(n, r2)
        + dist.log_choose(n, r3)
        - dist.log_choose(3 * n, s0)
    )
    probs = _sorted_triple_multiplicity(r1, r2, r3) * np.exp(log_init)
    cur_r1, cur_r2 = r1, r2
    prev_s = s0
    log_scale = 0.0
    for i in range(1, s.size):
        si = int(s[i])
        ds = si - prev_s
        step_lo, step_hi = int(lo[i]), int(hi[i])
        span = np.arange(step_lo, step_hi + 1)
        n1, n2 = np.meshgrid(span, span, indexing="ij")
        n1, n2 = n1.ravel(), n2.ravel()
        n3 = si - n1 - n2
        keep = (n3 >= step_lo) & (n3 <= step_hi)
        n1, n2, n3 = n1[keep], n2[keep], n3[keep]
        if n1.size == 0:
            return 0.0
        cur_r3 = prev_s - cur_r1 - cur_r2
        d1 = n1[:, None] - cur_r1[None, :]
        d2 = n2[:, None] - cur_r2[None, :]
        d3 = ds - d1 - d2
        log_t = (
            dist.log_choose(n - cur_r1[None, :], d1)
            + dist.log_choose(n - cur_r2[None, :], d2)
            + dist.log_choose(n - cur_r3[None, :], d3)
            - dist.log_choose(3 * n - prev_s, ds)
        )
        probs = np.exp(log_t) @ probs
        total = float(probs.sum())
        if total <= 0.0:
            return 0.0
        if total < 1e-250:
            probs = probs / total
            log_scale += math.log(total)
        cur_r1, cur_r2 = n1, n2
        prev_s = si
    return float(min(1.0, probs.sum() * math.exp(log_scale)))


def _hyper_tail_tables(n: int, l: int, s: np.ndarray):
    """Padded (K, n + 1) CDF and tail tables over the count domain."""
    rest = (l - 1) * n
    k = s.size
    cdf = np.zeros((k, n + 1))
    sf = np.zeros((k, n + 1))
    for i, si in enumerate(s):
        si = int(si)
        lo, hi = dist.hyper_support(n, rest, si)
        cdf[i, lo : hi + 1] = dist.hyper_cdf_table(n, rest, si)
        cdf[i, hi + 1 :] = 1.0
        sf[i, lo : hi + 1] = dist.hyper_sf_table(n, rest, si)
        sf[i, :lo] = 1.0
    return cdf, sf


def _chain_cell_counts(u: np.ndarray, s: np.ndarray, n: int, l: int) -> np.ndarray:
    """Per-chain counts of pooled ranks at or below each s_i, (B, L, K).

    ``u`` has shape (B, l*n) with chains as contiguous blocks of n draws.
    Sorted position j holds pooled rank j + 1, so the chain of the draw
    sorted there is counted in the cell of rank j + 1, shared by all rows.
    """
    k = s.size
    b = u.shape[0]
    flat = np.argsort(u, axis=1) // n
    flat += (np.arange(b) * l)[:, None]
    flat *= k + 1
    flat += np.searchsorted(s, np.arange(1, l * n + 1), side="left")
    hist = np.bincount(flat.ravel(), minlength=b * l * (k + 1)).reshape(b, l, k + 1)
    return np.cumsum(hist, axis=2)[:, :, :k]


def gamma_simulate_multi(
    n: int,
    l: int,
    grid: EvaluationGrid,
    alpha: float,
    m: int = DEFAULT_REPLICATES,
    seed: int = 0,
    threads: int = 1,
) -> GammaResult:
    """Calibrate gamma for the multi-chain comparison by simulation.

    Replicates draw all chains from one continuous uniform, sort the
    pooled draws once, count each chain's draws in the first s_i sorted
    positions (``_chain_cell_counts``), and record the tightest pointwise
    two-sided hypergeometric tail level over all chains and grid points.
    With more than three chains the attained coverage is the in-sample
    fraction of replicate trajectories the calibrated bands retain, since
    the exact recursion is unavailable.
    """
    if n < 1:
        raise ValueError("chain length must be positive")
    l = _check_chains(l)
    alpha = _check_alpha(alpha)
    if m < 100:
        raise ValueError("at least 100 replicates are required")
    s = _pooled_counts(grid, n, l)
    cdf_rows, sf_rows = _hyper_tail_tables(n, l, s)
    tail_rows = np.minimum(cdf_rows, sf_rows).ravel()
    row_start = np.arange(s.size) * (n + 1)

    chunk = 256
    starts = list(range(0, m, chunk))

    def run(chunk_index: int) -> np.ndarray:
        size = min(chunk, m - starts[chunk_index])
        rng = np.random.default_rng(np.random.SeedSequence((seed, chunk_index)))
        counts = _chain_cell_counts(rng.random((size, l * n)), s, n, l)
        return 2.0 * tail_rows[counts + row_start].min(axis=(1, 2))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            pieces = list(pool.map(run, range(len(starts))))
    else:
        pieces = [run(i) for i in range(len(starts))]
    levels = np.concatenate(pieces)
    assert np.all(levels > 0.0), "tightest tail level must be positive"
    gamma = min(_empirical_lower_quantile(levels, alpha), alpha)
    meta = {"replicates": m, "alpha": alpha}
    if l <= EXACT_CHAIN_LIMIT:
        attained = coverage_probability_multi(n, l, grid, gamma)
    else:
        attained = float(np.mean(levels >= gamma))
        meta["attained_estimate"] = "in_sample"
    return GammaResult(gamma, attained, "simulation", meta)


def gamma_optimize_multi(n: int, l: int, grid: EvaluationGrid, alpha: float) -> GammaResult:
    """Calibrate gamma against the exactly computed multi-chain coverage.

    Only available for two or three chains.  The same exact step search
    as ``gamma_optimize``, with breakpoints from the hypergeometric CDF
    tables of the pooled counts; each of the l chains can leave the band
    at each grid point, so the search starts below ``alpha / (l * K)``.
    """
    if n < 1:
        raise ValueError("chain length must be positive")
    l = _check_chains(l)
    if l > EXACT_CHAIN_LIMIT:
        raise ValueError(
            "exact optimization supports 2 or 3 chains; use gamma_simulate_multi for more"
        )
    alpha = _check_alpha(alpha)
    s = np.unique(_pooled_counts(grid, n, l))
    tables = [dist.hyper_cdf_table(n, (l - 1) * n, int(si)) for si in s]
    gamma, attained, evals = _search_steps(
        lambda g: coverage_probability_multi(n, l, grid, g),
        np.concatenate(tables),
        alpha,
        alpha / (l * grid.size),
    )
    return GammaResult(gamma, attained, "optimization", {"evaluations": evals, "alpha": alpha})


def test_multi(
    chains,
    alpha: float = 0.05,
    method: str = "auto",
    grid: EvaluationGrid | None = None,
    *,
    tie_policy: str = "deterministic",
    m: int = DEFAULT_REPLICATES,
    seed: int = 0,
    threads: int = 1,
    gamma: GammaResult | float | None = None,
    cache=None,
) -> MultiTestReport:
    """Test whether all chains draw from the same distribution.

    Chains are pooled and jointly ranked; each chain's rank ECDF is
    compared against shared hypergeometric bands.  The joint verdict is
    inside exactly when every chain stays inside.
    """
    cs = chains if isinstance(chains, ChainSet) else ChainSet(chains)
    l, n = cs.n_chains, cs.n_draws
    _check_chains(l)
    alpha = _check_alpha(alpha)
    if grid is None:
        grid = default_grid(n, l * n)
    if gamma is None:
        gamma = _resolve_gamma_multi(n, l, grid, alpha, method, m, seed, cache, threads)
    bands = bands_from_gamma_multi(n, l, grid, gamma)
    fractional = joint_fractional_ranks(cs, tie_policy=tie_policy, seed=seed)
    # recover integer pooled ranks for exact count comparisons
    ranks = np.rint(fractional * (l * n)).astype(np.int64)
    s = _pooled_counts(grid, n, l)
    reports = []
    for ci in range(l):
        counts = np.searchsorted(np.sort(ranks[ci]), s, side="right").astype(np.int64)
        trajectory = EcdfTrajectory(grid, counts, n)
        exceedances = _rank_exceedances(bands, counts, n)
        reports.append(TestReport(not exceedances, tuple(exceedances), bands, trajectory))
    return MultiTestReport(all(r.inside for r in reports), tuple(reports), bands)


def _rank_exceedances(bands: MultiBands, counts: np.ndarray, n: int) -> list[Exceedance]:
    out: list[Exceedance] = []
    for i in range(counts.size):
        c = int(counts[i])
        if c < bands.lower_ranks[i]:
            out.append(Exceedance(i, c / n, float(bands.lower_ranks[i] / n), "lower"))
        elif c > bands.upper_ranks[i]:
            out.append(Exceedance(i, c / n, float(bands.upper_ranks[i] / n), "upper"))
    return out


def _resolve_gamma_multi(
    n: int,
    l: int,
    grid: EvaluationGrid,
    alpha: float,
    method: str,
    m: int,
    seed: int,
    cache,
    threads: int = 1,
) -> GammaResult:
    from .bands_single import _cache_lookup

    if method == "auto":
        if cache is not None:
            try:
                return _cache_lookup(cache, n, l, alpha)
            except (KeyError, ValueError):
                pass
        method = "optimize" if l <= EXACT_CHAIN_LIMIT else "simulate"
    if method == "optimize":
        return gamma_optimize_multi(n, l, grid, alpha)
    if method == "simulate":
        return gamma_simulate_multi(n, l, grid, alpha, m=m, seed=seed, threads=threads)
    if method == "cache":
        if cache is None:
            raise ValueError("method 'cache' requires a gamma grid or its path")
        return _cache_lookup(cache, n, l, alpha)
    raise ValueError(f"unknown method {method!r}")
