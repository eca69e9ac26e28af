"""Simultaneous confidence bands for comparing several chains' rank
ECDFs against each other.

All chains are pooled and jointly ranked; at each evaluation quantile
the pooled count is fixed, so each chain's count of small ranks follows
a hypergeometric marginal and the bands are equal-tail hypergeometric
quantile intervals shared by every chain.  Exact coverage for two or
three chains runs the shared forward pass (``_forward``) over joint
count states whose increments are multivariate hypergeometric: with two
chains the state is the first chain's count and each step is a 1-D
convolution, with three it is the first two chains' counts over the full
window and each step is a 2-D convolution.  More chains need simulation;
``gamma_cache.calibrate`` makes that choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _forward, dist
from .bands_single import (
    DEFAULT_REPLICATES,
    GammaResult,
    TestReport,
    _check_alpha,
    _exceedances,
    _search_steps,
    _simulated_gamma,
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


@lru_cache(maxsize=8)
def _tables_from_key(n: int, l: int, s_key: tuple):
    """Padded (K, n + 1) hypergeometric CDF and tail tables, read-only.

    Row i covers counts 0..n for pooled count s_i: the CDF is 0 below
    the support and 1 above it, the tail the other way round.
    """
    rest = (l - 1) * n
    cdf = np.zeros((len(s_key), n + 1))
    sf = np.zeros((len(s_key), n + 1))
    for i, si in enumerate(s_key):
        lo, hi = dist.hyper_support(n, rest, si)
        cdf[i, lo : hi + 1] = dist.hyper_cdf_table(n, rest, si)
        cdf[i, hi + 1 :] = 1.0
        sf[i, lo : hi + 1] = dist.hyper_sf_table(n, rest, si)
        sf[i, :lo] = 1.0
    for arr in (cdf, sf):
        arr.setflags(write=False)
    return cdf, sf


def _hyper_tail_tables(n: int, l: int, s: np.ndarray):
    """Padded (K, n + 1) CDF and tail tables over the count domain."""
    return _tables_from_key(int(n), int(l), tuple(int(si) for si in s))


def _band_bounds(n: int, l: int, s: np.ndarray, gamma: float):
    """Equal-tail hypergeometric count bounds per pooled count.

    Each padded CDF row is sorted and ends in exactly 1.0, so counting
    entries strictly below the level reproduces the quantile rule
    (smallest count whose CDF reaches it); the zeros below the support
    count towards the support's bottom, which a zero level returns.
    """
    cdf = _hyper_tail_tables(n, l, s)[0]
    bottom = np.maximum(np.asarray(s, dtype=np.int64) - (l - 1) * n, 0)
    lo = np.maximum((cdf < gamma / 2.0).sum(axis=1), bottom)
    hi = (cdf < 1.0 - gamma / 2.0).sum(axis=1).astype(np.int64)
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
    grows too quickly and simulation should be used instead.  Each step
    is one convolution (``_chain_factors``); when its scaled factors
    leave double range, the step matrices are built instead.
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
    # duplicate pooled counts add identity transitions; drop them
    s = np.unique(_pooled_counts(grid, n, l))
    lo, hi = _band_bounds(n, l, s, gamma)
    return _forward.forward_mass(*_chain_factors(n, l, s, lo, hi))


def _chain_factors(n: int, l: int, s, lo, hi):
    """``_forward.forward_mass`` arguments for two or three chains.

    The state is the counts r_j of the first l - 1 chains over the full
    window [lo_i, hi_i]^(l-1); the last chain holds the rest of the
    pooled count s_i and must lie in the same window.  A step from s to
    s + ds adds d_j to chain j with probability
    prod_j C(n - r_j, d_j) / C(l*n - s, ds), summing over all l chains:
    source prod_j (n - r_j)!, jump 1 / prod_j d_j! over the normalizer,
    destination 1 / prod_j (n - r'_j)!.
    """
    dims = l - 1
    along, per_step = _forward._along, _forward._per_step
    lf = dist.log_factorial_table(l * n)
    s_ext = np.concatenate(([0], s))
    lo_ext = np.concatenate(([0], lo))
    hi_ext = np.concatenate(([0], hi))
    ds = np.diff(s_ext)
    offs = np.arange(int((hi_ext - lo_ext).max()) + 1)

    def log_fact(start, total):
        """log prod_j (n - r_j)! over the box, and the last chain's count."""
        r = start[:, None] + offs[None, :]
        f = lf[np.clip(n - r, 0, n)]
        out, last = 0.0, per_step(total, dims)
        for axis in range(dims):
            out = out + along(f, axis, dims)
            last = last - along(r, axis, dims)
        return out + lf[np.clip(n - last, 0, n)], last

    src, _ = log_fact(lo_ext[:-1], s_ext[:-1])
    dst, last = log_fact(lo_ext[1:], s)
    inside = (last >= per_step(lo, dims)) & (last <= per_step(hi, dims))
    jumps = np.arange(max(int(np.minimum(ds, hi_ext[1:] - lo_ext[:-1]).max()), 0) + 1)
    ker = per_step(-dist.log_choose(l * n - s_ext[:-1], ds), dims)
    rest = per_step(ds, dims)
    for axis in range(dims):
        ker = ker - along(lf[jumps][None, :], axis, dims)
        rest = rest - along(jumps[None, :], axis, dims)
    ker = np.where(rest >= 0, ker - lf[np.maximum(rest, 0)], -np.inf)
    return lo_ext, hi_ext, src, ker, (np.where(inside, -dst, -np.inf),)


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
    s = _pooled_counts(grid, n, l)
    cdf_rows, sf_rows = _hyper_tail_tables(n, l, s)
    tail_rows = np.minimum(cdf_rows, sf_rows).ravel()
    row_start = np.arange(s.size) * (n + 1)

    def tightest(rng: np.random.Generator, size: int) -> np.ndarray:
        counts = _chain_cell_counts(rng.random((size, l * n)), s, n, l)
        return 2.0 * tail_rows[counts + row_start].min(axis=(1, 2))

    gamma, levels = _simulated_gamma(tightest, alpha, m, 256, seed, threads)
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
    ``meta`` counts evaluations and dense fallbacks as ``gamma_optimize``
    does.
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
    dense_before = _forward.dense_count()
    gamma, attained, evals = _search_steps(
        lambda g: coverage_probability_multi(n, l, grid, g),
        _hyper_tail_tables(n, l, s)[0],
        alpha,
        alpha / (l * grid.size),
    )
    meta = {
        "evaluations": evals,
        "dense_fallbacks": _forward.dense_count() - dense_before,
        "alpha": alpha,
    }
    return GammaResult(gamma, attained, "optimization", meta)


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
    inside exactly when every chain stays inside.  Unless ``gamma`` is
    given, ``method``, ``m``, ``seed``, ``threads`` and ``cache`` go to
    ``gamma_cache.calibrate``.
    """
    cs = chains if isinstance(chains, ChainSet) else ChainSet(chains)
    l, n = cs.n_chains, cs.n_draws
    _check_chains(l)
    alpha = _check_alpha(alpha)
    if grid is None:
        grid = default_grid(n, l * n)
    if gamma is None:
        from .gamma_cache import calibrate

        gamma = calibrate(n, l, grid, alpha, method, m=m, seed=seed, threads=threads, cache=cache)
    bands = bands_from_gamma_multi(n, l, grid, gamma)
    fractional = joint_fractional_ranks(cs, tie_policy=tie_policy, seed=seed)
    # recover integer pooled ranks for exact count comparisons
    ranks = np.rint(fractional * (l * n)).astype(np.int64)
    s = _pooled_counts(grid, n, l)
    reports = []
    for ci in range(l):
        counts = np.searchsorted(np.sort(ranks[ci]), s, side="right").astype(np.int64)
        trajectory = EcdfTrajectory(grid, counts, n)
        exceedances = _exceedances(counts, bands.lower_ranks, bands.upper_ranks, n)
        reports.append(TestReport(not exceedances, tuple(exceedances), bands, trajectory))
    return MultiTestReport(all(r.inside for r in reports), tuple(reports), bands)

