"""PIT values, fractional ranks, pooled cross-chain ranks, and ECDF
evaluation on a fixed grid of quantiles."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChainSet",
    "EcdfTrajectory",
    "EvaluationGrid",
    "PitValues",
    "default_grid",
    "ecdf_eval",
    "empirical_pit",
    "joint_fractional_ranks",
]


@dataclass(frozen=True, eq=False)
class EvaluationGrid:
    """Strictly increasing evaluation quantiles ``z_1 < ... < z_K`` in (0, 1].

    ``z_0 = 0`` is an implicit anchor: every trajectory starts there with
    zero mass, so it never needs to be stored.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64)
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError("grid needs at least one point")
        if not (pts[0] > 0.0 and pts[-1] <= 1.0):
            raise ValueError("grid points must lie in (0, 1]")
        if not np.all(np.diff(pts) > 0.0):
            raise ValueError("grid points must be strictly increasing")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return int(self.points.size)


@dataclass(frozen=True, eq=False)
class ChainSet:
    """Equal-length chains of finite real draws, stored as an (L, N) array."""

    chains: np.ndarray

    def __post_init__(self):
        try:
            arr = np.array(self.chains, dtype=np.float64)
        except (ValueError, TypeError) as exc:
            raise ValueError("chains must be numeric and of equal length") from exc
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] == 0:
            raise ValueError("chains must form a nonempty (L, N) array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("chain draws must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "chains", arr)

    @property
    def n_chains(self) -> int:
        return int(self.chains.shape[0])

    @property
    def n_draws(self) -> int:
        return int(self.chains.shape[1])


_LATTICE_ULPS = 4.0
"""How far, in ulps, S * u may sit from a whole number for a PIT value u
on the 1/S lattice."""


def _resolution(res) -> int | None:
    """A resolution as a positive integer, or None when it is missing or
    infinite (continuous values)."""
    if res is None or res == math.inf:
        return None
    if not (res >= 1 and res == int(res)):
        raise ValueError("resolution must be a positive integer")
    return int(res)


@dataclass(frozen=True, eq=False)
class PitValues:
    """PIT values in [0, 1] with the resolution of the comparison sample.

    ``resolution = S`` means each value is a multiple of ``1/S``;
    ``resolution = None`` marks continuous (infinite-resolution) values.
    """

    values: np.ndarray
    resolution: int | None = None

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("PIT values must form a nonempty 1-D sequence")
        if not np.all((vals >= 0.0) & (vals <= 1.0)):
            raise ValueError("PIT values must lie in [0, 1]")
        res = _resolution(self.resolution)
        if res is not None:
            # c / S times S lands within 2 ulps of c
            scaled = vals * res
            if np.any(np.abs(scaled - np.round(scaled)) > _LATTICE_ULPS * np.spacing(scaled)):
                raise ValueError("values are not multiples of 1/resolution")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "resolution", res)

    @property
    def size(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True, eq=False)
class EcdfTrajectory:
    """Scaled ECDF counts ``r_i = N * F(z_i)`` along an evaluation grid."""

    grid: EvaluationGrid
    counts: np.ndarray
    n: int

    def __post_init__(self):
        counts = np.array(self.counts, dtype=np.int64)
        n = int(self.n)
        if counts.ndim != 1 or counts.size != self.grid.size:
            raise ValueError("counts must match the grid length")
        if n < 1:
            raise ValueError("sample size must be positive")
        if counts[0] < 0 or counts[-1] > n or np.any(np.diff(counts) < 0):
            raise ValueError("counts must be nondecreasing within [0, n]")
        if self.grid.points[-1] == 1.0 and counts[-1] != n:
            raise ValueError("count at z = 1 must equal the sample size")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "n", n)

    def fractions(self) -> np.ndarray:
        """ECDF values ``F(z_i)`` as floats."""
        return self.counts / self.n


def empirical_pit(y, comparison) -> PitValues:
    """Empirical PIT of each ``y_i`` against its comparison sample.

    ``u_i`` is the fraction of the i-th comparison sample at or below
    ``y_i``.  All comparison samples must share one length S >= 1, which
    becomes the resolution of the result, and every value must be finite.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("y must be a nonempty 1-D sequence")
    try:
        comp = np.asarray(comparison, dtype=np.float64)
    except (ValueError, TypeError) as exc:
        raise ValueError("comparison samples must share one length") from exc
    if comp.ndim != 2 or comp.shape[0] != y.size:
        raise ValueError("comparison must be an (N, S) array matching y")
    if comp.shape[1] == 0:
        raise ValueError("comparison samples must be nonempty")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(comp))):
        raise ValueError("y and comparison values must be finite")
    u = (comp <= y[:, None]).mean(axis=1)
    return PitValues(u, resolution=comp.shape[1])


def joint_fractional_ranks(
    chains, tie_policy: str = "deterministic", seed: int = 0
) -> np.ndarray:
    """Pooled fractional ranks of every draw across chains, shape (L, N).

    Ranks are assigned over the pooled L*N draws, so the flattened result
    is exactly the multiset {1/(LN), ..., 1}.  Ties are broken either
    deterministically, by (value, chain index, draw index), or uniformly
    at random under ``tie_policy="random"`` with the given seed.
    """
    cs = chains if isinstance(chains, ChainSet) else ChainSet(chains)
    if cs.n_chains < 2:
        raise ValueError("joint ranking requires at least two chains")
    flat = cs.chains.ravel()
    if tie_policy == "deterministic":
        # stable sort on the flattened row-major layout is exactly the
        # (value, chain index, draw index) ordering
        order = np.argsort(flat, kind="stable")
    elif tie_policy == "random":
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        order = np.lexsort((rng.permutation(flat.size), flat))
    else:
        raise ValueError(f"unknown tie policy {tie_policy!r}")
    ranks = np.empty(flat.size, dtype=np.int64)
    ranks[order] = np.arange(1, flat.size + 1)
    return (ranks / flat.size).reshape(cs.chains.shape)


def ecdf_eval(u, grid: EvaluationGrid) -> EcdfTrajectory:
    """Count values at or below each grid point, from each value's grid
    cell (the number of grid points below it) through ``_cell_counts``;
    the one-sample replicates read their tail levels from the same
    cells, by ``_grid_cells``."""
    vals = u.values if isinstance(u, PitValues) else np.asarray(u, dtype=np.float64)
    if vals.ndim != 1 or vals.size == 0:
        raise ValueError("values must form a nonempty 1-D sequence")
    if not np.all((vals >= 0.0) & (vals <= 1.0)):
        raise ValueError("values must lie in [0, 1]")
    cells = np.searchsorted(grid.points, vals, side="left")
    return EcdfTrajectory(grid, _cell_counts(cells, 1, grid.size)[0], vals.size)


_BUCKETS_MAX = 1 << 20
"""Most buckets in a ``_grid_cells`` table, 8 MB of counts; grids with
points closer than 1 / this share buckets and take more comparisons."""


def _grid_cells(points: np.ndarray):
    """Each value's grid cell, as a function of values in [0, 1]: the
    number of grid points below it, as int64, which is
    ``np.searchsorted(points, u, side="left")``.

    [0, 1] is cut into m buckets [b/m, (b+1)/m), m the least power of
    two >= 2K at which no bucket holds two of the K sorted points
    (doubled at most up to ``_BUCKETS_MAX``), and ``base[b]`` counts the
    points below b/m for b = 0..m; the last entry serves u = 1.0.  A
    value's cell starts at ``base[b]`` for its bucket b = floor(u * m)
    and steps up once for each of the bucket's points below it, one
    comparison with the next point per point the fullest bucket holds;
    on a grid i/K that is one.

    It equals ``searchsorted``: u * m and p * m are exact, m being a
    power of two, and ``astype`` truncates to the floor for values >= 0,
    so p < b/m exactly when floor(p * m) < b.  The points below u are
    then those of the buckets below b, ``base[b]`` of them, and those of
    bucket b below u, which are the next points in order; the points
    with an infinity appended stop each count at the first point at or
    above u, also past the last point.
    """
    pts = np.asarray(points, dtype=np.float64)
    m = 1 << (2 * pts.size - 1).bit_length()
    while True:
        fill = np.bincount((pts * m).astype(np.intp), minlength=m + 1)
        depth = int(fill.max())
        if depth == 1 or m >= _BUCKETS_MAX:
            break
        m *= 2
    base = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(fill[:m], out=base[1:])
    bounded = np.append(pts, np.inf)

    def cells(u: np.ndarray) -> np.ndarray:
        c = base[(u * m).astype(np.intp)]
        for _ in range(depth):
            c += bounded[c] < u
        return c

    return cells


def _cell_counts(cells: np.ndarray, groups: int, k: int) -> np.ndarray:
    """Each group's count of draws at or below each of K grid points,
    (groups, K), from the draws' cell ids: g * (K + 1) + i puts a draw of
    group g in cell i, above grid point i - 1 and at or below point i
    (cell K lies above every point)."""
    hist = np.bincount(cells.ravel(), minlength=groups * (k + 1)).reshape(groups, k + 1)
    return np.cumsum(hist, axis=1)[:, :k]


def default_grid(n: int, resolution: int | None = None, k_max: int = 100) -> EvaluationGrid:
    """Uniform evaluation grid ``i/K`` with ``K = min(n, resolution, k_max)``.

    With a finite resolution S, K is lowered to the largest value that
    divides S so every grid point is a multiple of 1/S.
    """
    if n < 1 or k_max < 1:
        raise ValueError("sample size and k_max must be positive")
    k = min(int(n), int(k_max))
    res = _resolution(resolution)
    if res is not None:
        k = min(k, res)
        while res % k:
            k -= 1
    return EvaluationGrid(np.arange(1, k + 1) / k)

