"""Simultaneous confidence bands for the ECDF of a single uniform sample.

The bands are equal-tail binomial quantile intervals at a shared
adjustment level gamma, chosen so that the whole ECDF trajectory stays
inside them with probability close to the nominal level.  Gamma can be
calibrated two ways: by simulating trajectories and taking an empirical
quantile of their tightest pointwise tail levels, or by an exact search
over the steps of the trajectory's interval-crossing probability, which
the shared forward pass in ``_forward`` computes.  Which way runs is
chosen in ``gamma_cache.calibrate`` alone.

Only the count law differs between one sample (binomial) and pooled
chains (hypergeometric, ``bands_multi``), so every step that does not
depend on the law is written once here and serves both: the band type
``ConfidenceBands``, the CDF table as a block of cells with each row's
first count (``CdfBlock``), the count-bound rule over it
(``_count_bounds``), the bands, the exact coverage and the exact step
search over one record of the law (``_Law``, built by ``_sample_law`` or
``bands_multi._chain_law``: its table key, each row's support bottom
and its exact mass; ``_bands``, ``_coverage``, ``_optimized_gamma``),
the exceedance scan, and one replicate path for the simulators and the
power sweeps.  That path is one seeded block loop
(``_replicate_blocks``: each chunk's generator, on ``_map_chunks``'s
threads, drawn in cache-sized row blocks one after another) and one
tail-level reader (``_tail_level_reader``), which reads the full table
by the bands' rule from the cell id of each draw.  A count law supplies
only those cell ids: for one sample, each draw's cell from the grid's
power-of-two bucket table and one comparison per point the fullest
bucket holds (``transform._grid_cells``, equal to ``searchsorted`` on
the grid points); for chains, the chain label times K + 1 plus the cell
of the pooled rank at each sorted position (``bands_multi._rank_cells``).
Observed data is counted from the same cell ids
(``transform._cell_counts``).

Each count law's module owns its level function: the binomial's here
(``_sample_levels``), the hypergeometric's in ``bands_multi``
(``_chain_levels``).  The simulators and the power sweep's band test
read tail levels only through those two functions, and the
rank-histogram interval reads the public ``bands_from_gamma``, so no
other module reads a law's table.

Both laws' CDF tables take one path (``_cdf_matrix``): the binomial's
rows by grid point, the chains' by pooled count.  A table is built at
one level and serves every band level at or above it: the exact search
asks for alpha / K (alpha / (l K) for l chains), the bands for gamma.
It keeps each row's window of counts, from the last whose 2 * F lies
below the level to the first whose 2 * (1 - F) does, with each cell's
true CDF.  The replicate path, which
gathers arbitrary counts, asks for the full table (level 0).  Every
table is read off one numpy kernel (``_cdf_rows``), which hands back
each row's F over the counts where the mass does not underflow: the
mass, from Loader's saddle-point form (``dist.binom_log_pmf``) in runs
linked by the ratio of neighbouring masses, summed from each tail; the
two laws differ only in the mass at a run's first count, the ratio, the
mode and the live range.  So a windowed table's cells have the full
table's bits, and a window's edges are a plain count of the cells below
each threshold (``_count_below``).  Each count law has this one table,
and the replicates' tail levels read it by the bands' own rule, so a
level and the bands never read one breakpoint with different bits.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from . import _forward, dist
from .transform import (
    EcdfTrajectory,
    EvaluationGrid,
    PitValues,
    _grid_cells,
    default_grid,
    ecdf_eval,
)

__all__ = [
    "ConfidenceBands",
    "Exceedance",
    "GammaResult",
    "TestReport",
    "band_exceedances",
    "bands_from_gamma",
    "coverage_probability",
    "gamma_optimize",
    "gamma_simulate",
    "test_single",
]

DEFAULT_REPLICATES = 10_000


@dataclass(frozen=True)
class GammaResult:
    """Calibrated adjustment level with its exactly attained coverage."""

    gamma: float
    attained_coverage: float
    method: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if not 0.0 <= self.attained_coverage <= 1.0:
            raise ValueError("attained coverage must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class ConfidenceBands:
    """Lower and upper ECDF envelopes along a grid, as count bounds and
    as fractions of the sample size.

    One sample of n draws has ``n_chains == 1``; with several chains of
    n draws each, the bounds hold every chain's count of pooled ranks at
    or below each grid point's pooled count.
    """

    grid: EvaluationGrid
    lower_counts: np.ndarray
    upper_counts: np.ndarray
    n: int
    gamma: float
    gamma_info: GammaResult | None = None
    n_chains: int = 1

    def __post_init__(self):
        lo = np.array(self.lower_counts, dtype=np.int64)
        hi = np.array(self.upper_counts, dtype=np.int64)
        if lo.shape != hi.shape or lo.size != self.grid.size:
            raise ValueError("band bounds must match the grid length")
        if np.any(lo > hi) or np.any(lo < 0) or np.any(hi > self.n):
            raise ValueError("band bounds must satisfy 0 <= lower <= upper <= n")
        for arr in (lo, hi):
            arr.setflags(write=False)
        object.__setattr__(self, "lower_counts", lo)
        object.__setattr__(self, "upper_counts", hi)

    @property
    def lower(self) -> np.ndarray:
        return self.lower_counts / self.n

    @property
    def upper(self) -> np.ndarray:
        return self.upper_counts / self.n

    @property
    def lower_ranks(self) -> np.ndarray:
        """Read-only alias of ``lower_counts``."""
        return self.lower_counts

    @property
    def upper_ranks(self) -> np.ndarray:
        """Read-only alias of ``upper_counts``."""
        return self.upper_counts


@dataclass(frozen=True)
class Exceedance:
    """One grid point where a trajectory left the band."""

    index: int
    observed: float
    bound: float
    side: str


@dataclass(frozen=True, eq=False)
class TestReport:
    inside: bool
    exceedances: tuple[Exceedance, ...]
    bands: ConfidenceBands
    trajectory: EcdfTrajectory

    def __post_init__(self):
        if self.inside != (len(self.exceedances) == 0):
            raise ValueError("verdict must match the exceedance list")


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return alpha


def _grid_key(grid: EvaluationGrid) -> tuple:
    """Hashable copy of the grid points, used as a cache key."""
    return tuple(float(z) for z in grid.points)


class CdfBlock(NamedTuple):
    """A CDF table as a read-only (K, W) block, one row per grid point
    (or pooled count), and the count of each row's first cell.

    Cell j of row i holds ``Pr(X <= first[i] + j)``, and in a windowed
    table (``_cdf_matrix``) 1.0 past the row's window; the counts below
    a row's first count lie below both its bounds at every level at or
    above the one the table was built at.  The full tables, either law's
    at level 0, have ``first`` 0 and W = n + 1.
    """

    cells: np.ndarray
    first: np.ndarray


@lru_cache(maxsize=16)
def _cdf_slot(n: int, key: tuple, l: int) -> list:
    """The cache entry of one count law's table: a one-item list holding
    ``(table, level)``, the table and the level it was built at, with no
    table until ``_cdf_matrix`` builds one."""
    return [(None, math.inf)]


_EXACT_HALF = 2.0**-1021
"""The smallest level whose half is exact.  Below it gamma / 2 rounds,
so a cell with 2 * F below gamma need not have F below gamma / 2, and
only the full table serves such a level."""


def _cdf_matrix(n: int, key: tuple, level: float = 0.0, l: int = 1) -> CdfBlock:
    """CDF table of one count law, one row per entry of ``key``, that
    serves every band level at or above ``level``; level 0, or any level
    below ``_EXACT_HALF``, gets the full table.

    With ``l`` 1, ``key`` holds the grid points and row i holds
    ``Pr(X <= k)`` for ``X ~ Binomial(n, z_i)``; with l chains it holds
    the pooled counts and row i the CDF of one chain's count among the
    s_i smallest pooled ranks, Hypergeometric(n, (l - 1) n, s_i) (see
    ``_cdf_rows``).  Each row is nondecreasing and ends in exactly 1.0.
    Level 0 gives the full (K, n + 1) block.
    Above it the block holds each row's window of counts from the row's
    first count on (``_cdf_table``), with the full table's bits, and 1.0
    past the window.  Each window edge that has counts beyond it has
    2 * min(F, 1 - F) below the level, and the counts beyond it lie
    further out, so the count bounds (``_count_bounds``) at every gamma
    above the largest edge value, and the exact search's breakpoints
    from its floor up and the largest one below its floor, are the full
    table's.

    One entry per (n, key, l) is cached with the level it was built at,
    and a lower level rebuilds it at that level.  The exact searches ask
    for their floors, alpha / K and alpha / (l K), so their evaluations,
    the bands at their gamma and a later search at a larger alpha read
    the table they built; the bands, the exact coverages and the
    rank-histogram interval (``report.rank_hist``, the bands on the
    one-point grid 1/bins) ask for gamma; ``_sample_levels`` and
    ``bands_multi._chain_levels``, which the simulators and the power
    sweeps' band tests read, gather arbitrary counts and ask for level
    0.  They all read this one CDF build of their law.
    """
    if not level >= _EXACT_HALF:
        level = 0.0
    slot = _cdf_slot(n, key, l)
    # one tuple read and one tuple write: a thread racing another on the
    # same entry returns a table that serves its own level, at worst
    # after building it twice
    table, built = slot[0]
    if level < built:
        table = _cdf_table(n, np.asarray(key), level, l)
        slot[0] = table, level
    return table


_RUN = 32
"""Counts per run of the mass recurrence in ``_cdf_rows``: each run
starts from one Loader mass and multiplies on at most 31 ratios."""

_LIVE = 760.0
"""Deviance n * D(k/n || p) beyond which a count's binomial or
hypergeometric tail lies below exp(-760) and underflows to 0.0 in
double."""

_CHUNK_CELLS = 1 << 16
"""Cells of the rows ``_cdf_table`` builds at once, 512 KB of float64,
so that each pass over them stays in cache."""


class _Rows(NamedTuple):
    """CDF rows as runs (``_cdf_rows``).  Each row has two sides,
    its mode and up (side i of R) and the counts below its mode (side
    R + i); side s owns the ``runs[s]`` runs from column ``offset[s]``
    on, run r of it covering the counts ``_RUN * r + j`` steps from the
    mode, j < ``_RUN``.  ``cells`` (``_RUN``, runs) holds each such
    count's F, and past a side's end 1.0 above the mode and 0.0 below
    it."""

    cells: np.ndarray
    mode: np.ndarray
    offset: np.ndarray
    runs: np.ndarray


def _accumulate(ufunc, rows: np.ndarray) -> None:
    """``ufunc.accumulate`` down the first axis of ``rows``, in place; on
    long rows one call per row, which numpy runs faster."""
    if rows.shape[1] < 256:
        ufunc.accumulate(rows, axis=0, out=rows)
        return
    for i in range(1, rows.shape[0]):
        ufunc(rows[i], rows[i - 1], out=rows[i])


def _live_half(n: int, pq):
    """Bernstein's bound on the distance from np past which
    n * D(k/n || p) exceeds ``_LIVE``, for variance n * pq."""
    return _LIVE / 3.0 + np.sqrt((_LIVE / 3.0) ** 2 + 2.0 * _LIVE * (n * pq))


def _cdf_rows(n: int, p: np.ndarray, q: np.ndarray, l: int = 1, s=None) -> _Rows:
    """The CDF rows of one count law, with q = 1 - p exactly, wherever
    their mass does not underflow: Binomial(n, p_i) for ``l`` 1, and for
    l chains the count of one chain's n draws among the s_i smallest of
    the l * n pooled ranks, Hypergeometric(n, (l - 1) n, s_i), with
    p_i = s_i / (l n).

    Each row is split at its mode, floor((n + 1) p) for the binomial and
    floor((n + 1)(s + 1) / (l n + 2)) for the chains.  From the mode up,
    a count's F is 1 minus the mass summed from the right; below the
    mode the mass is summed from the left, so F keeps its relative
    accuracy in the lower tail.  The lower side is the upper side of the
    mirrored row at count n - k: Binomial(n, q), or the pooled count
    l n - s, whose p is q too.  So both sides run away from the mode and
    upwards in count.  Each side is cut into runs of ``_RUN`` counts,
    one column each: the mass at a run's first count, then the ratio of
    neighbouring masses multiplied on, which keeps a run's rounding
    error below about 60 ulps.  The binomial's first mass is Loader's
    (``dist.binom_log_pmf``) and its ratio (n - k + 1) / k * p / q; the
    chains' first mass is b(k; n, p) b(s - k; (l - 1) n, p) / b(s; l n, p)
    in the same form, its denominator once per row, and its ratio
    (n - k + 1)(s - k + 1) / (k ((l - 1) n - s + k)), one division of
    exact integers.  Masses fall along each run, so an underflowed mass
    leaves the rest of its run at 0.0.  A count's tail mass adds its
    run's masses from the run's far end, then the runs beyond, and its
    cell is that sum below the mode and 1 minus the sum past it from the
    mode up.

    A side stops at the end of the support, or where n * D(k/n || p)
    passes ``_LIVE``, by Bernstein's bound more than
    760/3 + sqrt((760/3)**2 + 1520 npq) from np.  There the binomial
    tail beyond is below exp(-760) by Chernoff's bound, and so is the
    chains' tail: their count is n draws without replacement from l n
    ranks of which s are marked, and Hoeffding (1963, section 6) bounds
    such a tail by the binomial's Chernoff bound at the same n and p.
    Either way the masses beyond are 0.0 in double, so every cell has
    the bits of the sum over all counts.  A row's values depend only on
    its law, and are nondecreasing in count: each side's sums are
    monotone, and the two meet at the mode with its mass, at least
    1 / (n + 1), between them.
    """
    rows, rest = p.size, (l - 1) * n
    if l == 1:
        mode, bottom, top = np.minimum(np.floor((n + 1) * p), n).astype(np.int64), 0, n
    else:
        mode, bottom, top = (n + 1) * (s + 1) // (l * n + 2), np.maximum(s - rest, 0), np.minimum(s, n)
    half = _live_half(n, p * q)
    low = np.maximum(np.floor(n * p - half), bottom).astype(np.int64)
    high = np.minimum(np.ceil(n * p + half), top).astype(np.int64)
    # the lower side runs from count n - mode + 1 of the mirrored row,
    # count mode - 1 of the row
    start = np.concatenate((mode, n - mode + 1))
    end = np.concatenate((high, n - low))
    side_p, side_q = np.concatenate((p, q)), np.concatenate((q, p))
    runs = -(-(end - start + 1) // _RUN)
    offset = np.cumsum(runs) - runs
    side = np.repeat(np.arange(2 * rows), runs)
    run = np.arange(side.size) - offset[side]
    head = start[side] + _RUN * run
    # the (``_RUN``, runs) arrays are built with ``out=``: numpy inspects
    # the call stack before it reuses a large temporary in an expression
    sums = np.zeros((_RUN + 1, side.size))
    mass = sums[:-1]
    np.add(head.astype(np.float64), np.arange(_RUN, dtype=np.float64)[:, None], out=mass)
    with np.errstate(divide="ignore", invalid="ignore"):
        # each count's mass over the one before it
        if l == 1:
            np.divide(np.subtract(n + 1.0, mass), mass, out=mass)
            np.multiply(mass, np.where(side_q > 0.0, side_p / side_q, 0.0)[side], out=mass)
            log_head = dist.binom_log_pmf(head, n, side_p[side], side_q[side])
        else:
            side_s = np.concatenate((s, l * n - s))
            marked, m = side_s[side], head.size
            # one division of exact integers
            np.divide((n + 1.0 - mass) * (marked + 1.0 - mass), mass * (mass + (rest - marked)), out=mass)
            # b(k; n, p), b(s - k; rest, p) and, once per row, b(s; l n, p)
            sp, sq = side_p[side], side_q[side]
            terms = dist.binom_log_pmf(
                np.concatenate((head, marked - head, side_s)), np.repeat([n, rest, l * n], [m, m, 2 * rows]),
                np.concatenate((sp, sp, side_p)), np.concatenate((sq, sq, side_q)),
            )
            log_head = terms[:m] + terms[m : 2 * m] - terms[2 * m :][side]
    mass[0] = np.exp(log_head)
    # the first count past a side's end gets no mass, nor do the rest of
    # its run
    tail = np.flatnonzero(end[side] - head < _RUN - 1)
    mass[(end[side] - head + 1)[tail], tail] = 0.0
    _accumulate(np.multiply, mass)
    _accumulate(np.add, mass[::-1])
    # each side's run totals, summed from its far end: beyond[s, r] adds
    # the runs of side s from run r on
    beyond = np.zeros((2 * rows, int(runs.max(initial=0)) + 1))
    beyond[side, run] = mass[0]
    beyond = np.cumsum(beyond[:, ::-1], axis=1)[:, ::-1]
    sums += beyond[side, run + 1]
    # each count's F: below the mode its tail mass, from the mode up 1
    # minus the tail mass past it, one row down (numpy copies the
    # overlapping input)
    upper = offset[rows]
    np.subtract(1.0, sums[1:, :upper], out=mass[:, :upper])
    return _Rows(mass, mode, offset, runs)


def _read_counts(rows: _Rows, k: np.ndarray) -> np.ndarray:
    """F at counts ``k`` (R, m), each at least 0, of each row: one gather
    from the cells, with 1.0 above the mode and 0.0 below it for a count
    past its side's end, so 1.0 for every count above n."""
    mode, offset, runs, cells = rows.mode, rows.offset, rows.runs, rows.cells
    r = np.arange(mode.size)[:, None]
    steps = k - mode[:, None]
    up = steps >= 0
    side = np.where(up, r, r + mode.size)
    steps = np.where(up, steps, -1 - steps)
    run = steps // _RUN
    inside = run < runs[side]
    column = np.where(inside, offset[side] + run, 0)
    return np.where(inside, cells.ravel()[steps % _RUN * cells.shape[1] + column], up)


def _count_below(rows: _Rows, x: np.ndarray) -> np.ndarray:
    """For each threshold in ``x`` (T,), all in (0, 1], the number of
    counts k >= 0 with F(k) < x in each row, (T, R).

    Each side's cells below x are counted run by run and summed over
    the side's columns.  A lower side's cells past its end hold 0.0,
    which lies below every x, as do the counts below the side's runs.
    """
    mode, offset, runs, cells = rows.mode, rows.offset, rows.runs, rows.cells
    x = np.asarray(x, dtype=np.float64)[:, None, None]
    below = np.zeros((x.shape[0], cells.shape[1] + 1), dtype=np.int64)
    np.cumsum((cells < x).sum(axis=1), axis=1, out=below[:, 1:])
    count = below[:, offset + runs] - below[:, offset]
    # the lower side's runs reach _RUN * runs counts below the mode, some
    # of them below 0
    return count[:, : mode.size] + count[:, mode.size :] + (mode - _RUN * runs[mode.size :])


def _cdf_table(n: int, key: np.ndarray, level: float, l: int = 1) -> CdfBlock:
    """The table ``_cdf_matrix`` serves at ``level``.

    ``key`` holds the grid points, or with l chains the pooled counts,
    whose p = s / (l n) the kernel reads.  Every cell is read off
    ``_cdf_rows``, built a few rows at a time, so each has the full
    table's bits.  Row i's window runs from ``lo``,
    the last count with 2 * F < level (or 0), to ``hi``, the first with
    2 * (1 - F) < level (or n - 1), and the cells past ``hi`` hold 1.0;
    level 0 keeps the window [0, n] of every row, the full (K, n + 1)
    table.  The window edges are the counts of cells below the two
    thresholds (``_count_below``).
    """
    s = None if l == 1 else key.astype(np.int64)
    q = 1.0 - (key if l == 1 else s / (l * n))
    p = 1.0 - q  # the parameter whose complement is exact
    step = max(1, _CHUNK_CELLS // min(n + 1, 2 * int(_live_half(n, 0.25)) + 4 * _RUN))
    chunks = [slice(i, i + step) for i in range(0, p.size, step)]
    # 2 * (1 - F) >= level exactly when F < x_hi: the double after the
    # largest one at or below 1 - level / 2
    x_hi = 1.0 - level / 2.0
    if 1.0 - x_hi < level / 2.0:
        x_hi = np.nextafter(x_hi, 0.0)
    thresholds = (level / 2.0, np.nextafter(x_hi, 2.0))
    lo, hi = np.zeros(p.size, dtype=np.int64), np.full(p.size, n)
    # at level 0 every window is the whole support, so each chunk's cells
    # go straight into the block; windows are sized only once all are known
    block = np.empty((p.size, n + 1)) if level == 0.0 else None
    parts = []
    for rows in chunks:
        built = _cdf_rows(n, p[rows], q[rows], l, None if s is None else s[rows])
        if block is not None:
            block[rows] = _read_counts(built, np.arange(n + 1))
            continue
        below, above = _count_below(built, thresholds)
        lo[rows], hi[rows] = np.maximum(below - 1, 0), np.minimum(above, n - 1)
        k = lo[rows, None] + np.arange(int((hi[rows] - lo[rows]).max()) + 1)
        part = _read_counts(built, k)
        part[k > hi[rows, None]] = 1.0
        parts.append(part)
    if block is None:
        block = np.ones((p.size, int((hi - lo).max()) + 1))
        for rows, part in zip(chunks, parts):
            block[rows, : part.shape[1]] = part
    for arr in (block, lo):
        arr.setflags(write=False)
    return CdfBlock(block, lo)


def _count_bounds(table: CdfBlock, gamma: float, floor=0):
    """Equal-tail count bounds [lower, upper] from a CDF table.

    A full row is sorted and ends in exactly 1.0, so counting its cells
    strictly below the level reproduces the quantile rule (smallest
    count whose CDF reaches it).  A windowed block gives the full row's
    counts at every gamma above its window edges' largest breakpoint,
    which lies below the level it was built at: the counts below its
    first count lie below both bounds, and those past its window, which
    hold 1.0, above both in the full row too.  On full tables the zeros
    below the support count towards ``floor``, its bottom, which a zero
    level returns.
    """
    cells, first = table
    lo = np.maximum(first + (cells < gamma / 2.0).sum(axis=1), floor)
    hi = first + (cells < 1.0 - gamma / 2.0).sum(axis=1)
    return lo.astype(np.int64), hi.astype(np.int64)


class _Law(NamedTuple):
    """One count law as the bands, the exact coverage and the exact
    search read it, built by ``_sample_law`` or
    ``bands_multi._chain_law``: the chain count ``l`` (1 for one
    sample), the key of its CDF table (the grid points, or the pooled
    counts), the bottom of each row's support, which a zero level
    returns (``_count_bounds``), and ``mass(lo, hi)``, the exact
    probability that every count stays inside the bounds, or None where
    there is no exact recursion."""

    n: int
    l: int
    key: tuple
    bottom: np.ndarray | int
    mass: object


def _sample_law(n: int, grid: EvaluationGrid) -> _Law:
    """One sample of n draws on ``grid``: the binomial law, whose exact
    mass is ``_band_mass``."""
    if n < 1:
        raise ValueError("sample size must be positive")
    key = _grid_key(grid)
    return _Law(n, 1, key, 0, partial(_band_mass, n, key))


def _exact_mass(law: _Law, what: str):
    """The law's exact mass, which an exact ``what`` needs."""
    if law.mass is None:
        raise ValueError(f"exact {what} supports 2 or 3 chains; use gamma_simulate_multi for more")
    return law.mass


def _bands(law: _Law, grid: EvaluationGrid, gamma) -> ConfidenceBands:
    """The law's equal-tail bands on ``grid`` at adjustment level
    ``gamma``, a float or a ``GammaResult``."""
    info = gamma if isinstance(gamma, GammaResult) else None
    g = float(gamma.gamma if info is not None else gamma)
    if not 0.0 < g < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    lo, hi = _count_bounds(_cdf_matrix(law.n, law.key, g, law.l), g, law.bottom)
    return ConfidenceBands(grid, lo, hi, int(law.n), g, info, law.l)


def _coverage(law: _Law, gamma: float) -> float:
    """Exact coverage of the law's bands at ``gamma``; gamma 0 gives
    bands that hold every count, so coverage 1."""
    mass = _exact_mass(law, "coverage")
    gamma = float(gamma)
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    if gamma == 0.0:
        return 1.0
    return mass(*_count_bounds(_cdf_matrix(law.n, law.key, gamma, law.l), gamma, law.bottom))


def bands_from_gamma(n: int, grid: EvaluationGrid, gamma) -> ConfidenceBands:
    """Equal-tail binomial quantile bands at adjustment level gamma."""
    return _bands(_sample_law(n, grid), grid, gamma)


def coverage_probability(n: int, grid: EvaluationGrid, gamma: float) -> float:
    """Exact probability that a uniform sample's ECDF stays inside the
    gamma-level bands at every grid point.

    Runs a forward pass over the per-point count intervals: conditional
    on the count so far, the increment to the next grid point is
    binomial in the remaining draws with the renormalized step
    probability.  Each step is one convolution (``_single_factors``),
    but a step whose scaled factors leave double range runs on its
    transition matrix.  Counts follow the binomial marginals exactly
    whenever each draw satisfies ``Pr(u <= z_i) = z_i``, which holds for
    continuous uniforms at any grid and for discrete uniforms when the
    grid points sit at multiples of the category spacing.

    When the problem reflects onto itself, the pass runs only half way
    (``_band_mass``): the grid must map onto itself (z_K = 1 and
    z_i + z_{K-i} = 1 to within a few ulps) and the bounds must reflect
    (lower_i = n - upper_{K-i}), as the bands on the default grids do
    at every step of the search but the slivers between breakpoints
    that are equal in exact arithmetic.  The result then agrees with the
    full pass to about 1e-12, relative.
    """
    return _coverage(_sample_law(n, grid), gamma)


_MIRROR_ULPS = 4.0
"""How far, in ulps of 1.0, z_i + z_{K-i} may sit from 1 on a grid that
maps onto itself."""


@lru_cache(maxsize=8)
def _mirrored(cdf_key: tuple) -> bool:
    """Whether the grid maps onto itself under z -> 1 - z: at least two
    points, z_K = 1, and z_i + z_{K-i} = 1 to within ``_MIRROR_ULPS``."""
    z = np.asarray(cdf_key, dtype=np.float64)
    if z.size < 2 or z[-1] != 1.0:
        return False
    gap = np.abs(z[:-1] + z[-2::-1] - 1.0).max()
    return bool(gap <= _MIRROR_ULPS * np.finfo(np.float64).eps)


def _band_mass(n: int, cdf_key: tuple, lo: np.ndarray, hi: np.ndarray) -> float:
    """Probability that one sample's counts stay inside [lo, hi] at every
    grid point, from half a pass when the problem reflects onto itself.

    Under the null the cell counts between grid points are multinomial,
    and on a grid that maps onto itself their reversed order has the
    same law, so the counts read from z = 1 down, D_j = n - C_{K-j},
    are a copy of the forward counts.  When the bounds reflect as well,
    lo_i = n - hi_{K-i} (with hi_K = n, which C_K = n needs), the
    constraints on C at points b..K are those on D at points 0..a, where
    a = ceil(K/2) and b = floor(K/2).  Given C_b = r the two halves are
    independent, so with f_t(r) the mass of count r at point t with
    every window up to t kept,

        coverage = sum_r f_b(r) * f_a(n - r) / Binomial(n, z_b)(r),

    and one pass of a steps yields both f_b and f_a (``_join``).  Any
    other problem runs the full pass.
    """
    if not (_mirrored(cdf_key) and hi[-1] == n and np.array_equal(lo[:-1], n - hi[-2::-1])):
        _forward.count_route("full")
        return _forward.forward_mass(*_single_factors(n, cdf_key, lo, hi))
    a, b = (lo.size + 1) // 2, lo.size // 2
    _forward.count_route("half")
    states = _forward.forward_mass(*_single_factors(n, cdf_key, lo[:a], hi[:a]), keep=(b, a))
    if not states:
        return 0.0
    return _join(n, cdf_key[b - 1], states[0], states[-1])


def _join(n: int, z: float, first, second) -> float:
    """``sum_r f(r) * g(n - r) / Binomial(n, z)(r)`` in log space, from
    ``_forward.forward_mass`` states ``(probs, log_scale, lo)`` of f and g."""
    (pf, sf, f_lo), (pg, sg, g_lo) = first, second
    width = pf.size
    r = np.arange(max(f_lo, n - g_lo - width + 1), min(f_lo + width, n - g_lo + 1))
    f, g = pf[r - f_lo], pg[n - r - g_lo]
    live = (f > 0.0) & (g > 0.0)
    if not live.any():
        return 0.0
    r = r[live]
    lf = dist.log_factorial_table(n)
    log_terms = (
        np.log(f[live])
        + np.log(g[live])
        + (lf[r] + lf[n - r] - lf[n])
        - (r * math.log(z) + (n - r) * math.log1p(-z))
    )
    top = float(log_terms.max())
    return float(min(1.0, math.exp(top + sf + sg + math.log(np.exp(log_terms - top).sum()))))


@lru_cache(maxsize=8)
def _step_context(n: int, cdf_key: tuple):
    """Gamma-independent pieces of the forward recursion.

    ``cdf_key`` holds the null probability ``Pr(u <= z_i)`` of each grid
    point, which is ``z_i`` itself for uniform draws.  Treats the first
    grid point as a step from an artificial start at z = 0 where the
    count is 0 with certainty, so every grid point is reached by the
    same conditional-binomial transition.
    """
    z = np.asarray(cdf_key, dtype=np.float64)
    # the shared table can be longer than n + 1, so slice before reversing
    lf = dist.log_factorial_table(n)
    lfrev = np.ascontiguousarray(lf[n::-1])  # lfrev[r] = log((n - r)!)
    p = np.empty(z.size)
    p[0] = z[0]
    p[1:] = (z[1:] - z[:-1]) / (1.0 - z[:-1])
    # true step probabilities lie in (0, 1]; clip away last-ulp wobble
    np.clip(p, 0.0, 1.0, out=p)
    with np.errstate(divide="ignore"):
        logp = np.log(p)
        logq = np.log1p(-p)
    for arr in (lfrev, logp, logq):
        arr.setflags(write=False)
    return lf, lfrev, logp, logq


def _single_factors(n: int, cdf_key: tuple, lo: np.ndarray, hi: np.ndarray):
    """``_forward.forward_mass`` arguments for one sample's counts at the
    first ``lo.size`` grid points.

    The step to the next grid point moves the count from r to r' with
    probability C(n-r, d) p^d q^(n-r'), d = r' - r: source (n-r)!, jump
    p^d / d!, destination q^(n-r') / (n-r')!, with p and q those of the
    step.
    """
    lf, lfrev, logp, logq = _step_context(n, cdf_key)
    logp, logq = logp[: lo.size], logq[: lo.size]
    lo_ext = np.concatenate(([0], lo))
    hi_ext = np.concatenate(([0], hi))
    offs = np.arange(int((hi_ext - lo_ext).max()) + 1)
    src = lfrev[np.minimum(lo_ext[:-1, None] + offs[None, :], n)]
    jumps = np.arange(max(int((hi_ext[1:] - lo_ext[:-1]).max()) + 1, 1))
    ker = jumps[None, :] * logp[:, None] - lf[jumps][None, :]
    dst_r = np.minimum(lo_ext[1:, None] + offs[None, :], n)
    left = n - dst_r
    with np.errstate(invalid="ignore"):
        tail = np.where(left > 0, left * logq[:, None], 0.0)
    return lo_ext, hi_ext, src, ker, tail - lfrev[dst_r]


def _tail_table(cdf: np.ndarray) -> np.ndarray:
    """Each cell's two-sided tail level, a (K, n + 1) table.

    ``cdf`` holds the cells of a full (K, n + 1) CDF table (level 0, or
    the hypergeometric).  Each cell's level is the largest gamma at
    which ``_count_bounds`` on that table, with its ``floor``, holds
    that count, so a trajectory's level is at or above gamma exactly
    when the bands at gamma hold it, for every gamma in [2**-1021, 1]
    (below that, gamma / 2 rounds):

    - lower side, ``cdf[c] >= gamma / 2``: the level is ``2 * cdf[c]``;
    - upper side, ``cdf[c - 1] < 1 - gamma / 2``, where ``1 - gamma / 2``
      rounds: with q the float just above ``cdf[c - 1]``, the count stays
      inside while ``1 - gamma / 2`` rounds to q or above, that is while
      gamma / 2 <= (1 - q) + (q - prev(q)) / 2, both terms exact for
      q > 1/2, and round-half-even on q decides the tie at that point.
      Rows with ``cdf[c - 1] < 1/2`` (and count 0) hold the count at
      every gamma up to 1 and get level 2; a ``cdf[c - 1]`` that rounds
      to exactly 1.0 holds it at none and gives level 0.
    """
    below = np.zeros_like(cdf)
    below[:, 1:] = cdf[:, :-1]
    q = np.nextafter(below, 2.0)
    top = 1.0 - q + (q - np.nextafter(q, 0.0)) / 2.0
    upper = 2.0 * np.where(q.view(np.uint64) & 1, np.nextafter(top, 0.0), top)
    upper = np.where(below < 0.5, 2.0, np.where(below < 1.0, upper, 0.0))
    return np.minimum(2.0 * cdf, upper)


def _tail_level_reader(cdf: np.ndarray, groups: int = 1, position_cells=0):
    """Tightest tail level of each replicate, as a function of the cell
    ids of its draws less ``position_cells``, (B, groups * n) int64,
    which it overwrites.

    ``cdf`` holds the cells of a full (K, n + 1) CDF table, and each
    replicate holds ``groups`` groups of exactly n draws: one sample, or
    l chains.  Cell id g * (K + 1) + i puts a draw of group g in cell i,
    above grid point i - 1 and at or below point i; cell K lies above
    every point.  Where a draw's cell depends on its position in the
    row, as a chain's draw in pooled order lies in the cell of its
    pooled rank, ``position_cells`` holds that part for each position
    and the function takes the rest.  Each replicate's level is the
    minimum over its groups and grid points of the count's level in
    ``_tail_table``, so it is at or above gamma exactly when the bands
    at gamma hold every count.

    One running sum counts the cells of all (replicate, group) rows of a
    block at once.  Every row holds exactly n draws, so at cell i of row
    r the sum is r * n plus that row's count at point i.  One index
    subtracts r * n and adds the table's row offset i * (n + 1), and
    sends each row's last cell (all n draws, no grid point) to a level
    of infinity; the levels are then one gather and a minimum.  The
    position cells, with each replicate's offset into the block's cells
    added, are one array; it and the index are built for the largest
    block read so far.
    """
    k, n = cdf.shape[0], cdf.shape[1] - 1
    width = k + 1
    tails = np.append(_tail_table(cdf).ravel(), np.inf)
    col = np.arange(width)
    col_index = np.where(col < k, col * (n + 1), tails.size - 1 - n)
    # (position cells and offsets, index) for blocks of up to that many
    # replicates; one tuple read and one write, so a racing thread at
    # worst builds them twice
    built = [(np.empty((0, groups * n), dtype=np.int64), col_index[:0])]

    def levels(cells: np.ndarray) -> np.ndarray:
        b = cells.shape[0]
        base, index = built[0]
        if base.shape[0] < b:
            base = position_cells + (np.arange(b) * (groups * width))[:, None]
            base = np.ascontiguousarray(np.broadcast_to(base, (b, groups * n)))
            index = (col_index - (np.arange(b * groups) * n)[:, None]).ravel()
            built[0] = base, index
        cells += base[:b]
        flat = np.bincount(cells.ravel(), minlength=b * groups * width)
        np.cumsum(flat, out=flat)
        flat += index[: flat.size]
        return tails[flat].reshape(b, -1).min(axis=1)

    return levels


def _empirical_lower_quantile(values: np.ndarray, alpha: float) -> float:
    """The ceil(alpha * M)-th smallest value."""
    rank = max(1, math.ceil(alpha * values.size))
    return float(np.partition(values, rank - 1)[rank - 1])


def _chunk_rng(seed: int, key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, key)))


def _map_chunks(fn, total: int, chunk: int, threads: int = 1) -> list:
    """``fn(start, size)`` for each chunk of ``range(total)``, run on
    ``threads`` workers; the results come back in chunk order."""

    def run(start: int):
        return fn(start, min(chunk, total - start))

    starts = range(0, total, chunk)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run, starts))
    return [run(start) for start in starts]


_BLOCK_DRAWS = 16_384
"""Draws per replicate block, 128 KB of float64: small enough that a
block's draws, sort and counts stay in cache while it is reduced."""

_BLOCK_MIN_ROWS = 16
"""Replicates per block at the least, so that on wide rows each block
still does enough work between the short numpy calls that hand the
GIL from one worker thread to the other."""


def _block_rows(width: int) -> int:
    """Replicates of ``width`` draws in one cache-sized row block."""
    return max(_BLOCK_MIN_ROWS, _BLOCK_DRAWS // width)


def _replicate_blocks(
    fn, width: int, total: int, chunk: int, seed: int, threads: int, by_start: bool = False
) -> list:
    """``fn(rng, size)`` for each row block of ``size`` replicates of
    ``width`` draws, over ``total`` replicates; the results come back in
    replicate order.

    The replicates are cut into chunks of ``chunk``, run on ``threads``
    workers (``_map_chunks``).  Chunk i draws from
    ``SeedSequence((seed, i))``, or from ``SeedSequence((seed, start))``
    keyed by its first replicate with ``by_start``.  Each chunk is
    reduced in row blocks of about ``_BLOCK_DRAWS`` draws, and at least
    ``_BLOCK_MIN_ROWS`` rows, taken one after another from the chunk's
    generator; generators fill row-major, so the blocks see the same
    stream as one draw of the whole chunk.
    """
    rows = _block_rows(width)

    def run(start: int, size: int) -> list:
        rng = _chunk_rng(seed, start if by_start else start // chunk)
        return [fn(rng, min(rows, size - b)) for b in range(0, size, rows)]

    return [block for piece in _map_chunks(run, total, chunk, threads) for block in piece]


def _sample_levels(n: int, grid: EvaluationGrid):
    """Tightest tail level of each one-sample replicate, as a function
    of its draws, (B, n) floats in [0, 1].

    Each draw's grid cell comes from the grid's bucket table
    (``transform._grid_cells``, equal to ``searchsorted`` on the grid
    points), and ``_tail_level_reader`` reads the cells against the full
    binomial CDF table (level 0) that the bands read.  The simulator and
    the power sweep's one-sample band test both read levels here.
    """
    cells = _grid_cells(grid.points)
    levels = _tail_level_reader(_cdf_matrix(n, _grid_key(grid)).cells)

    def sample_levels(u: np.ndarray) -> np.ndarray:
        return levels(cells(u))

    return sample_levels


def _simulated_gamma(
    levels_fn, width: int, alpha: float, m: int, chunk: int, seed: int, threads: int, exact=None
) -> GammaResult:
    """Gamma from m simulated tightest tail levels.

    ``levels_fn(rng, size)`` simulates ``size`` replicates of ``width``
    draws each, in the row blocks of ``_replicate_blocks`` over chunks
    of ``chunk``.  Gamma is the empirical alpha-quantile of the levels,
    capped at alpha.  The attained coverage is ``exact(gamma)`` when an
    exact coverage is available; otherwise it is the in-sample fraction
    of levels at or above gamma, and ``meta["attained_estimate"]`` says
    ``"in_sample"``.  The levels come from ``_tail_level_reader`` on the
    table the bands read, so that fraction is the share of these
    replicates the bands at gamma hold.

    A level of 0 raises RuntimeError.  It is 0 only for a replicate that
    reaches a count whose neighbour CDF cell rounds to exactly 1.0 (an
    upper tail below about 1e-16) or whose own cell underflows to 0.0,
    which no band level holds.
    """
    if m < 100:
        raise ValueError("at least 100 replicates are required")
    levels = np.concatenate(_replicate_blocks(levels_fn, width, m, chunk, seed, threads))
    if not np.all(levels > 0.0):
        raise RuntimeError("tightest tail level must be positive")
    gamma = min(_empirical_lower_quantile(levels, alpha), alpha)
    meta = {"replicates": m, "alpha": alpha}
    if exact is not None:
        attained = exact(gamma)
    else:
        attained = float(np.mean(levels >= gamma))
        meta["attained_estimate"] = "in_sample"
    return GammaResult(gamma, attained, "simulation", meta)


def gamma_simulate(
    n: int,
    grid: EvaluationGrid,
    alpha: float,
    m: int = DEFAULT_REPLICATES,
    seed: int = 0,
    threads: int = 1,
) -> GammaResult:
    """Calibrate gamma by simulation.

    Each replicate draws n uniforms, records the tightest pointwise
    two-sided tail level its trajectory attains anywhere on the grid,
    read by ``_sample_levels``, and gamma is the empirical
    alpha-quantile of those levels.  A level is the largest gamma whose
    bands hold the trajectory, and ``_simulated_gamma`` refuses a level
    of 0.
    """
    _sample_law(n, grid)  # the bands' checks on n
    alpha = _check_alpha(alpha)
    levels = _sample_levels(n, grid)

    def tightest(rng: np.random.Generator, size: int) -> np.ndarray:
        return levels(rng.random((size, n)))

    return _simulated_gamma(
        tightest, n, alpha, m, 512, seed, threads, lambda g: coverage_probability(n, grid, g)
    )


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-D array, as ``np.unique`` gives
    them; numpy's first ``np.unique`` call imports ``numpy.ma``, some
    20 ms, which the CLI otherwise never loads."""
    values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def _step_gammas(cdf_values, alpha: float, floor: float) -> np.ndarray:
    """The gamma at which ``_search_steps`` evaluates each step, in
    increasing order: the midpoint of each step's breakpoints from the
    one holding ``floor`` up, then alpha for the top step."""
    f = np.ravel(cdf_values)
    breaks = 2.0 * np.minimum(f, 1.0 - f)
    start = breaks[breaks < floor].max(initial=0.0)
    edges = _distinct(np.append(breaks[(breaks >= floor) & (breaks < alpha)], start))
    return np.append((edges[:-1] + edges[1:]) / 2.0, alpha)


def _search_steps(coverage_fn, cdf_values, alpha: float, floor: float):
    """Gamma in (0, alpha] whose coverage is closest to ``1 - alpha``.

    The bands at level gamma count the CDF values F below gamma / 2 and
    below 1 - gamma / 2, so coverage is a nonincreasing step function of
    gamma that can only change at the breakpoints 2 * min(F, 1 - F).
    Every gamma at or below ``floor`` covers more than ``1 - alpha`` (a
    union bound over the checks the bands make), so the search runs over
    the steps from the one holding ``floor`` up to alpha.  Each step is
    evaluated strictly inside it, at the midpoint of its breakpoints or
    at alpha for the top step, so rounding cannot put the evaluation on
    a neighbouring step.

    The search keeps a bracket: step ``lo`` reaches the target, step
    ``hi`` does not.  Since 1 - coverage is close to a power of gamma,
    each probe is predicted, not bisected: log(1 - coverage) against
    log gamma should reach log alpha at the geometric middle of
    [floor, alpha] before any evaluation, on the line of slope 1 through
    the one evaluated end of the bracket, or on the line between both
    ends (an end whose coverage is 1 has no logarithm and is left out).
    The probe is the last step whose gamma is at or below the prediction,
    clamped inside the bracket, so every probe narrows it.  Once the
    search has spent ceil(log2(S + 1)) evaluations over its S steps it
    bisects, so no search needs more than 2 * ceil(log2(S + 1)) + 1.  Every search that keeps the bracket
    ends on the last step that reaches the target; it or the next step
    up is the closest, and a tie goes to the smaller gamma.

    Returns ``(gamma, coverage, probes, steps)``, where ``probes``
    counts the steps whose coverage it read.
    """
    target, goal = 1.0 - alpha, math.log(alpha)
    gammas = _step_gammas(cdf_values, alpha, floor)
    budget = gammas.size.bit_length()
    cache: dict[int, float] = {}

    def coverage(i: int) -> float:
        if i not in cache:
            cache[i] = float(coverage_fn(float(gammas[i])))
        return cache[i]

    def predicted_log_gamma(lo: int, hi: int) -> float | None:
        if not cache:
            return (math.log(floor) + goal) / 2.0
        # log(1 - coverage) is -inf where coverage is 1: such an end is left out
        ends = [
            (math.log(gammas[i]), math.log(1.0 - cache[i]))
            for i in (lo, hi)
            if cache.get(i, 1.0) < 1.0
        ]
        if len(ends) == 1:
            return ends[0][0] + goal - ends[0][1]
        if len(ends) == 2 and ends[1][1] > ends[0][1]:
            (x0, y0), (x1, y1) = ends
            return x0 + (goal - y0) * (x1 - x0) / (y1 - y0)
        return None

    lo, hi = 0, gammas.size
    while hi - lo > 1:
        probe = (lo + hi) // 2
        x = predicted_log_gamma(lo, hi) if len(cache) < budget else None
        if x is not None:
            probe = int(np.searchsorted(gammas, math.exp(min(x, 0.0)), side="right")) - 1
            probe = min(max(probe, lo + 1), hi - 1)
        if coverage(probe) >= target:
            lo = probe
        else:
            hi = probe
    best = min(range(lo, min(lo + 2, gammas.size)), key=lambda i: (abs(coverage(i) - target), i))
    return float(gammas[best]), coverage(best), len(cache), gammas.size


def _optimized_gamma(law: _Law, alpha: float) -> GammaResult:
    """The exact step search over a count law's CDF table as a
    ``GammaResult``.

    The bands at gamma are the law's count bounds and ``law.mass(lo,
    hi)`` is their exact coverage.  Each of the l chains can leave the
    bands at each of the K grid points, so every gamma at or below
    ``alpha / (l K)`` covers more than ``1 - alpha`` (a union bound);
    the search starts there, and the table it reads is built at that
    floor, which serves every step it probes.  Coverage depends on gamma
    only through the bounds, and neighbouring steps (slivers between
    breakpoints that are equal in exact arithmetic) or probes can share
    them, so within one search each distinct pair of bounds runs one
    pass and every later probe of it reads that pass's coverage.

    ``meta["evaluations"]`` counts probes: the steps whose coverage the
    search read.  ``meta["passes"]`` counts the coverage passes run, one
    per distinct pair of bounds, so the memo served
    ``evaluations - passes`` of the probes.  ``meta["steps"]`` counts
    the candidate steps and ``meta["dense_fallbacks"]`` the passes that
    built dense step matrices: passes with at least one step whose
    scaled factors left double range.
    """
    mass = _exact_mass(law, "optimization")
    alpha = _check_alpha(alpha)
    floor = alpha / (law.l * len(law.key))
    table = _cdf_matrix(law.n, law.key, floor, law.l)
    memo: dict[tuple, float] = {}

    def coverage(gamma: float) -> float:
        lo, hi = _count_bounds(table, gamma, law.bottom)
        key = (lo.tobytes(), hi.tobytes())
        if key not in memo:
            memo[key] = float(mass(lo, hi))
        return memo[key]

    dense_before = _forward.route_count("dense")
    gamma, attained, probes, steps = _search_steps(coverage, table.cells, alpha, floor)
    meta = {
        "evaluations": probes,
        "passes": len(memo),
        "steps": steps,
        "dense_fallbacks": _forward.route_count("dense") - dense_before,
        "alpha": alpha,
    }
    return GammaResult(gamma, attained, "optimization", meta)


def gamma_optimize(n: int, grid: EvaluationGrid, alpha: float) -> GammaResult:
    """Calibrate gamma so that the exact coverage of the bands is as close
    as possible to the nominal level.

    The search is exact: it runs over the steps of the coverage curve,
    whose breakpoints come from the binomial CDF tables of the grid
    points, and predicts each probe from the evaluated ones in log-log,
    so it ends on the step bisection would from fewer probes (see
    ``_search_steps``).  Each distinct band it probes costs one pass,
    half a pass where the band reflects onto itself (``_band_mass``).
    ``meta`` counts probes, passes, steps and dense fallbacks (see
    ``_optimized_gamma``).
    """
    return _optimized_gamma(_sample_law(n, grid), alpha)


def test_single(
    u,
    alpha: float = 0.05,
    method: str = "auto",
    grid: EvaluationGrid | None = None,
    *,
    m: int = DEFAULT_REPLICATES,
    seed: int = 0,
    threads: int = 1,
    gamma: GammaResult | float | None = None,
    cache=None,
) -> TestReport:
    """Test one sample of PIT values for uniformity.

    Builds simultaneous bands at the calibrated gamma and reports every
    grid point where the sample's ECDF leaves them.  Band boundaries
    count as inside.  Unless ``gamma`` is given, ``method``, ``m``,
    ``seed``, ``threads`` and ``cache`` go to ``gamma_cache.calibrate``.
    """
    alpha = _check_alpha(alpha)
    pit = u if isinstance(u, PitValues) else PitValues(np.asarray(u, dtype=np.float64))
    n = pit.size
    if grid is None:
        grid = default_grid(n, pit.resolution)
    if gamma is None:
        from .gamma_cache import calibrate

        gamma = calibrate(n, 1, grid, alpha, method, m=m, seed=seed, threads=threads, cache=cache)
    bands = bands_from_gamma(n, grid, gamma)
    trajectory = ecdf_eval(pit, grid)
    exceedances = band_exceedances(bands, trajectory)
    return TestReport(not exceedances, tuple(exceedances), bands, trajectory)


def band_exceedances(bands: ConfidenceBands, trajectory: EcdfTrajectory) -> list[Exceedance]:
    """Grid points where the trajectory leaves the bands; boundaries are
    inside."""
    if not np.array_equal(trajectory.grid.points, bands.grid.points):
        raise ValueError("trajectory and bands use different grids")
    if trajectory.n != bands.n:
        raise ValueError("trajectory and bands use different sample sizes")
    return _exceedances(trajectory.counts, bands.lower_counts, bands.upper_counts, bands.n)


def _exceedances(counts, lower, upper, n: int) -> list[Exceedance]:
    """Grid points where counts leave [lower, upper], in index order, as
    fractions of n."""
    below = counts < lower
    out = []
    for i in np.flatnonzero(below | (counts > upper)).tolist():
        bound, side = (lower[i], "lower") if below[i] else (upper[i], "upper")
        out.append(Exceedance(i, int(counts[i]) / n, int(bound) / n, side))
    return out
