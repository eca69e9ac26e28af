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
window and each step is a 2-D convolution.  Reversing the pooled order
leaves the law unchanged, so where the distinct pooled counts mirror
(s_K = l n, s_i + s_{K-i} = l n) and the bounds reflect, the pass runs
half way and joins at the middle, as one sample's does
(``bands_single._half_or_full_mass``); this law supplies the middle
state's multivariate hypergeometric mass.  More chains need simulation;
``gamma_cache.calibrate`` makes that choice.

Only the hypergeometric parts live here: the pooled counts, the law
record (``_chain_law``: the pooled counts as the table's key, the bottom
of each row's support and the exact mass, ``_chain_mass``), the
forward-pass factors and the middle state's mass (``_chain_context``),
the replicates' pooled order (one sort of packed draw-and-chain keys,
``_chain_labeller``), and the cell of each pooled
rank (``_rank_cells``): a draw's cell id is its chain label times K + 1
plus the cell of its rank, which is all this law supplies to the
replicate path and to the observed-data counter.  The bands, the exact
coverage and the exact search are ``bands_single``'s ``_bands``,
``_coverage`` and ``_optimized_gamma`` over that record.  The CDF table
takes the one-sample table's path, ``bands_single._cdf_matrix`` keyed by
the pooled counts and the chain count: the same kernel, windowed at the
level asked for and kept in the same cache, one table per request.  The
search and the bands read it windowed at alpha / (l K) and at gamma;
this module's level function (``_chain_levels``, chain labels in pooled
order to tail levels), which the simulator and the power sweep's
several-chain band test both read, reads the full table.  The band type
and every law-independent step (the table, count bounds, the exact
search, the seeded block loop, the tail-level reader, the cell counter)
are shared with the one-sample bands in ``bands_single`` and
``transform``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import _forward, dist
from .bands_single import (
    DEFAULT_REPLICATES,
    ConfidenceBands,
    GammaResult,
    TestReport,
    _bands,
    _cdf_matrix,
    _check_alpha,
    _coverage,
    _exceedances,
    _half_or_full_mass,
    _Law,
    _optimized_gamma,
    _simulated_gamma,
    _tail_level_reader,
)
from .transform import (
    ChainSet,
    EcdfTrajectory,
    EvaluationGrid,
    _cell_counts,
    default_grid,
    joint_fractional_ranks,
)

__all__ = [
    "MultiTestReport",
    "bands_from_gamma_multi",
    "coverage_probability_multi",
    "gamma_optimize_multi",
    "gamma_simulate_multi",
    "test_multi",
]

EXACT_CHAIN_LIMIT = 3


@dataclass(frozen=True, eq=False)
class MultiTestReport:
    inside: bool
    chains: tuple[TestReport, ...]
    bands: ConfidenceBands

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


def _chain_law(n: int, l: int, grid: EvaluationGrid) -> _Law:
    """l chains of n draws on ``grid``: one chain's hypergeometric count
    at each pooled count, whose support starts at s - (l - 1) n, with
    an exact mass (``_chain_mass``) for up to ``EXACT_CHAIN_LIMIT``
    chains."""
    if n < 1:
        raise ValueError("chain length must be positive")
    l = _check_chains(l)
    s = _pooled_counts(grid, n, l)
    mass = partial(_chain_mass, n, l, s) if l <= EXACT_CHAIN_LIMIT else None
    return _Law(n, l, tuple(s.tolist()), np.maximum(s - (l - 1) * n, 0), mass)


def bands_from_gamma_multi(n: int, l: int, grid: EvaluationGrid, gamma) -> ConfidenceBands:
    """Shared equal-tail hypergeometric bands at adjustment level gamma."""
    return _bands(_chain_law(n, l, grid), grid, gamma)


def coverage_probability_multi(n: int, l: int, grid: EvaluationGrid, gamma: float) -> float:
    """Exact probability that every chain's rank-count trajectory stays
    inside the shared gamma-level bands at every grid point.

    Supported for two or three chains; beyond that the joint state space
    grows too quickly and simulation should be used instead.  Each step
    is one convolution (``_chain_factors``), but a step whose scaled
    factors leave double range runs on its transition matrix.  Where the
    distinct pooled counts mirror and the bounds reflect, the pass runs
    half way (``_chain_mass``).
    """
    return _coverage(_chain_law(n, l, grid), gamma)


def _chain_mass(n: int, l: int, s, lo, hi) -> float:
    """Probability that two or three chains' counts stay inside [lo, hi]
    at the nondecreasing pooled counts ``s``: the one exact mass of this
    law, as ``bands_single._band_mass`` is for one sample.  A repeated
    pooled count adds an identity step, so each is kept once.

    Reversing the pooled order maps the law onto itself when the kept
    pooled counts mirror, s_K = l n and s_i + s_{K-i} = l n: the counts
    of the top l n - s_{K-j} ranks, n - C_{K-j}, are then a copy of the
    forward counts C at s_j.  So the pass runs half way where the
    bounds reflect too (``bands_single._half_or_full_mass``), and the
    middle state's mass is multivariate hypergeometric
    (``_unweigh_chains``).
    """
    keep = np.concatenate(([True], s[1:] != s[:-1]))
    s = s[keep]
    _, middle = _chain_context(n, l, s.tobytes())
    factors = partial(_chain_factors, n, l, s)
    unweigh = None if middle is None else partial(_unweigh_chains, *middle)
    return _half_or_full_mass(n, unweigh, factors, lo[keep], hi[keep])


@lru_cache(maxsize=8)
def _chain_context(n: int, l: int, key: bytes):
    """The pieces of the chains' exact mass that do not depend on the
    bounds, at the distinct pooled counts s whose int64 bytes are
    ``key``: each step's log normalizer log C(l n - s_{i-1}, s_i -
    s_{i-1}) (``_log_choose``), and, where the counts mirror, the
    middle point's pooled count s_b, b = floor(K/2), with the log masses
    ``_unweigh_chains`` reads there, or None."""
    s = np.frombuffer(key, dtype=np.int64)
    s_prev = np.concatenate(([0], s[:-1]))
    log_steps = _log_choose(l * n - s_prev, s - s_prev)
    log_steps.setflags(write=False)
    if not (s.size >= 2 and s[-1] == l * n and np.all(s[:-1] + s[-2::-1] == l * n)):
        return log_steps, None
    sb = int(s[s.size // 2 - 1])
    q = 1.0 - sb / (l * n)
    p = 1.0 - q
    log_counts = dist.binom_log_pmf(np.append(np.arange(n + 1), sb), np.append(np.full(n + 1, n), l * n), p, q)
    log_counts.setflags(write=False)
    return log_steps, (sb, log_counts[:-1], float(log_counts[-1]))


def _unweigh_chains(sb: int, log_count, log_pooled: float, terms: np.ndarray, r: tuple) -> np.ndarray:
    """``terms`` less the log of the mass of the first l - 1 chains'
    counts ``r`` at pooled count s_b: prod_j C(n, r_j) / C(l n, s_b)
    over all l chains, the last holding s_b - sum_j r_j.  It is taken
    as ``_cdf_rows`` takes a chain row's first mass, in Loader's form:
    prod_j b(r_j; n, p) / b(s_b; l n, p) with p = s_b / (l n), which
    holds for any p, with ``log_count[k]`` = log b(k; n, p) and
    ``log_pooled`` = log b(s_b; l n, p)."""
    log_mass = log_count[sb - sum(r)]
    for rj in r:
        log_mass = log_count[rj] + log_mass
    return terms - (log_mass - log_pooled)


def _chain_factors(n: int, l: int, s, lo, hi):
    """``_forward.forward_mass`` arguments for two or three chains at the
    first ``lo.size`` pooled counts of ``s``.

    The state is the counts r_j of the first l - 1 chains over the full
    window [lo_i, hi_i]^(l-1); the last chain holds the rest of the
    pooled count s_i and must lie in the same window.  A step from s to
    s + ds adds d_j to chain j with probability
    prod_j C(n - r_j, d_j) / C(l*n - s, ds), summing over all l chains:
    source prod_j (n - r_j)!, jump 1 / prod_j d_j! over the normalizer,
    destination 1 / prod_j (n - r'_j)!.  The normalizer comes from
    Stirling's formula (``_log_choose``, by way of ``_chain_context``):
    the source and destination factorials cancel along every path, but
    a log-factorial normalizer's rounding at log((l n)!) would not.
    """
    dims = l - 1
    along, per_step = _forward._along, _forward._per_step
    lf = dist.log_factorial_table(l * n)
    s = np.asarray(s, dtype=np.int64)
    log_steps = _chain_context(n, l, s.tobytes())[0][: lo.size]
    s = s[: lo.size]
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
    ker = per_step(-log_steps, dims)
    rest = per_step(ds, dims)
    for axis in range(dims):
        ker = ker - along(lf[jumps][None, :], axis, dims)
        rest = rest - along(jumps[None, :], axis, dims)
    ker = np.where(rest >= 0, ker - lf[np.maximum(rest, 0)], -np.inf)
    return lo_ext, hi_ext, src, ker, np.where(inside, -dst, -np.inf)


def _log_choose(total, k):
    """log C(total, k) from Stirling's formula and its remainders
    (``dist.stirlerr``), as Loader's form has it at p = k / total:

        k log1p((total - k) / k) + (total - k) log1p(k / (total - k))
        - log sqrt(2 pi k (total - k) / total)
        + stirlerr(total) - stirlerr(k) - stirlerr(total - k).

    The difference of log-factorials rounds at log(total!), about 1e-13
    absolute near total = 300, and a pass adds one such normalizer per
    step without cancellation; here every term is of the size of the
    result or smaller."""
    total = np.asarray(total, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    inner = (k > 0) & (k < total)
    total, k = np.where(inner, total, 2.0), np.where(inner, k, 1.0)
    rest = total - k
    rem = dist.stirlerr(np.concatenate((total, k, rest))).reshape(3, -1)
    out = k * np.log1p(rest / k) + rest * np.log1p(k / rest) - 0.5 * np.log(2.0 * math.pi * k * (rest / total))
    out += rem[0] - rem[1] - rem[2]
    return np.where(inner, out, 0.0)


def _rank_cells(s: np.ndarray, size: int) -> np.ndarray:
    """The grid cell of each pooled rank 1..size: rank r lies in cell i
    when s_{i-1} < r <= s_i, and in cell K above s_K.

    Sorted position j of the pooled draws holds rank j + 1, so the draw
    there, of chain c, has the cell id ``c * (K + 1) + cells[j]`` that
    ``bands_single._tail_level_reader`` and ``transform._cell_counts``
    read.
    """
    return np.searchsorted(s, np.arange(1, size + 1), side="left")


def _chain_levels(n: int, l: int, grid: EvaluationGrid):
    """Tightest tail level of each replicate of l chains of n draws, as
    a function of its chain labels in pooled order, (B, l*n) int64,
    which it overwrites.

    Each label is multiplied by K + 1 in place, and
    ``bands_single._tail_level_reader`` adds the cell of each pooled
    rank (``_rank_cells``) and reads the cells against the full (level
    0) hypergeometric CDF table of the pooled counts, the build the
    bands read.  The simulator and the power sweep's several-chain band test
    both read levels here.
    """
    s = _pooled_counts(grid, n, l)
    cdf = _cdf_matrix(n, tuple(s.tolist()), 0.0, l).cells
    levels = _tail_level_reader(cdf, l, _rank_cells(s, l * n))
    width = s.size + 1

    def chain_levels(labels: np.ndarray) -> np.ndarray:
        labels *= width
        return levels(labels)

    return chain_levels


_LABEL_BITS = 11
"""Low bits of a raw 64-bit draw that ``Generator.random`` drops: it
returns ``(random_raw() >> 11) * 2**-53``."""

_PACKED_CHAIN_LIMIT = 1 << _LABEL_BITS
"""The most chains whose labels fit in those bits."""


def _chain_labeller(n: int, l: int):
    """Chain labels of replicates' pooled draws in sorted order, as a
    function ``(rng, size)`` giving (size, l*n) int64.

    Each row draws what ``rng.random((size, l*n))`` would, chains as
    contiguous blocks of n.  Up to ``_PACKED_CHAIN_LIMIT`` chains, one
    sort of packed keys orders them: each raw 64-bit draw keeps the 53
    high bits ``rng.random`` turns into the float and carries its
    chain's label in the 11 low bits, so sorting the keys sorts the
    draws, and the low bits then give the chain at each pooled position.
    Distinct draws come out in the order ``argsort`` of the floats gives;
    the two can differ only on exactly tied 53-bit draws, about 6e-12
    per replicate of 320 draws, and ``argsort``'s order among tied
    draws is unspecified anyway.  Past the limit the floats are
    argsorted.
    """
    width = l * n
    if l > _PACKED_CHAIN_LIMIT:
        return lambda rng, size: np.argsort(rng.random((size, width)), axis=1) // n
    low = np.uint64((1 << _LABEL_BITS) - 1)
    high = ~low
    chain = np.repeat(np.arange(l, dtype=np.uint64), n)

    def labels(rng: np.random.Generator, size: int) -> np.ndarray:
        keys = rng.bit_generator.random_raw((size, width))
        keys &= high
        keys |= chain
        keys.sort(axis=1)
        keys &= low
        return keys.view(np.int64)

    return labels


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
    positions, and record the tightest pointwise two-sided
    hypergeometric tail level over all chains and grid points, read by
    ``_chain_levels`` from the chain labels in pooled order, one running
    sum and one gather per block.  The sort is one sort of packed
    draw-and-chain keys (``_chain_labeller``), which gives the same
    order as argsorting the draws, and ``_simulated_gamma`` runs each
    chunk in cache-sized row blocks.  With more than three chains the
    attained coverage is the in-sample fraction of replicate
    trajectories the calibrated bands hold, since the exact recursion is
    unavailable; a replicate's level is at or above gamma exactly when
    the bands at gamma hold it.
    """
    law = _chain_law(n, l, grid)
    l = law.l
    alpha = _check_alpha(alpha)
    levels = _chain_levels(n, l, grid)
    labels = _chain_labeller(n, l)

    def tightest(rng: np.random.Generator, size: int) -> np.ndarray:
        return levels(labels(rng, size))

    def exact(g: float) -> float:
        return coverage_probability_multi(n, l, grid, g)

    return _simulated_gamma(tightest, l * n, alpha, m, 256, seed, threads, exact if law.mass else None)


def gamma_optimize_multi(n: int, l: int, grid: EvaluationGrid, alpha: float) -> GammaResult:
    """Calibrate gamma against the exactly computed multi-chain coverage.

    Only available for two or three chains.  The same exact step search
    as ``gamma_optimize``, with breakpoints from the hypergeometric CDF
    table of the pooled counts; each of the l chains can leave the band
    at each grid point, so the search starts below ``alpha / (l * K)``,
    and the table it reads is windowed there.  A breakpoint read off one
    tail of a row and its mirror read off the other tail differ in their
    last bits; the slivers between them make runs of equal coverage, and
    slivers whose bounds are equal share one pass.  ``meta`` counts
    probes, passes, steps and dense fallbacks as ``gamma_optimize``
    does.
    """
    return _optimized_gamma(_chain_law(n, l, grid), alpha)


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
    compared against shared hypergeometric bands.  The ranks are a
    permutation of 1..l n, so one scatter puts each draw's chain label
    at its pooled position, and each chain's ranks at or below the
    pooled counts s_i are counted by
    ``transform._cell_counts`` from each draw's chain label and rank
    cell (``_rank_cells``), the cells the replicates' tail levels are
    read from.
    The joint verdict is inside exactly when every chain stays inside.
    Unless ``gamma`` is given, ``method``, ``m``, ``seed``, ``threads``
    and ``cache`` go to ``gamma_cache.calibrate``.
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
    s = _pooled_counts(grid, n, l)
    # the draw of rank r (fraction r / (l n)) sits at pooled position r - 1
    ranks = joint_fractional_ranks(cs, tie_policy=tie_policy, seed=seed).ravel()
    labels = np.empty(l * n, dtype=np.int64)
    labels[np.rint(ranks * (l * n)).astype(np.int64) - 1] = np.arange(l * n) // n
    counts = _cell_counts(labels * (s.size + 1) + _rank_cells(s, l * n), l, s.size)
    reports = []
    for chain_counts in counts:
        trajectory = EcdfTrajectory(grid, chain_counts, n)
        exceedances = _exceedances(chain_counts, bands.lower_counts, bands.upper_counts, n)
        reports.append(TestReport(not exceedances, tuple(exceedances), bands, trajectory))
    return MultiTestReport(all(r.inside for r in reports), tuple(reports), bands)

