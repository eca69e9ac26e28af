"""The simulators' tail levels are the bands' own verdict.

``bands_single._tail_table`` gives each cell of a padded CDF table the
largest gamma at which ``_count_bounds`` holds that count, and
``_tail_level_reader`` reads each replicate's tightest one from the
cells of its draws.  The simulators take their gamma as a quantile of
these levels and report the share of replicates at or above it as
in-sample coverage, which is true only when "level >= gamma" means "the
bands at gamma hold the count".  Here that equivalence is checked cell
by cell, at each level and at its two float neighbours, on both count
laws' tables as the program builds them, and the reader is checked
against per-row counts and gathers.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecdf_bands.bands_multi import _pooled_counts, _rank_cells
from ecdf_bands.bands_single import (
    CdfBlock,
    _block_rows,
    _cdf_matrix,
    _count_bounds,
    _grid_key,
    _tail_level_reader,
)
from ecdf_bands.transform import EvaluationGrid, default_grid
from oracles import chain_cell_counts, chain_table, grid_cell_counts, tail_levels

PRIMES = (2, 3, 5, 7, 11, 13, 31, 101, 127, 199)

# gamma / 2 is exact from here up; below it the halving rounds
SMALLEST_GAMMA = 2.0**-1021


def full_table(cdf) -> CdfBlock:
    return CdfBlock(np.asarray(cdf), np.zeros(len(cdf), dtype=np.int64))


def assert_levels_are_the_band_verdict(table: CdfBlock, floor: np.ndarray) -> None:
    """For every cell (i, c) and every gamma in (0, 1] at its level or a
    float neighbour of it: level >= gamma exactly when the bounds
    ``_count_bounds`` reads from row i at gamma hold count c."""
    cdf = table.cells
    assert not table.first.any()
    counts = np.arange(cdf.shape[1])
    for i in range(cdf.shape[0]):
        row = cdf[i : i + 1]
        level = tail_levels(row)(counts[:, None])
        for gamma in (level, np.nextafter(level, 0.0), np.nextafter(level, 2.0)):
            keep = (gamma >= SMALLEST_GAMMA) & (gamma <= 1.0)
            g, c = gamma[keep], counts[keep]
            lo, hi = _count_bounds(full_table(row), g[:, None], floor[i])
            inside = (lo <= c) & (c <= hi)
            np.testing.assert_array_equal(level[keep] >= g, inside, err_msg=f"row {i}")


binomial_grids = st.one_of(
    st.just(None),
    st.sampled_from(PRIMES).map(lambda k: tuple(i / k for i in range(1, k + 1))),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12).map(lambda v: tuple(sorted(v))),
)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 600), pts=binomial_grids)
def test_binomial_tail_levels_are_the_band_verdict(n, pts):
    key = tuple(float(z) for z in (default_grid(n).points if pts is None else pts))
    assert_levels_are_the_band_verdict(_cdf_matrix(n, key), np.zeros(len(key), dtype=np.int64))


@st.composite
def pooled_counts(draw):
    """(n, l, pooled counts): the default grid's, or arbitrary ones."""
    n = draw(st.integers(1, 80))
    l = draw(st.integers(2, 8))
    if draw(st.booleans()):
        s = _pooled_counts(default_grid(n, l * n), n, l).tolist()
    else:
        s = sorted(draw(st.lists(st.integers(0, l * n), min_size=1, max_size=12)))
    return n, l, tuple(s)


@settings(max_examples=60, deadline=None)
@given(key=pooled_counts())
def test_hypergeometric_tail_levels_are_the_band_verdict(key):
    n, l, s = key
    assert_levels_are_the_band_verdict(*chain_table(n, l, s))


@st.composite
def replicate_laws(draw):
    """(n, l, grid) of one sample (l = 1) or of l chains, on the default
    grid or on an off-lattice one."""
    n = draw(st.integers(1, 40))
    l = draw(st.integers(1, 8))
    if draw(st.booleans()):
        grid = default_grid(n, l * n if l > 1 else None)
    else:
        pts = draw(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=12, unique=True))
        grid = EvaluationGrid(np.array(sorted(pts)))
    return n, l, grid


@settings(max_examples=80, deadline=None)
@given(key=replicate_laws(), seed=st.integers(0, 2**32 - 1), fill=st.floats(0.0, 1.0))
def test_flat_tail_index_reads_the_per_row_levels(key, seed, fill):
    # one running sum and the flat index over the draws' cell ids against
    # per-row counts and per-row gathers, for one sample and for chains,
    # on a part of a row block (the index is built for it), a full block
    # (the index grows) and the part again (read from the full index)
    n, l, grid = key
    rows = _block_rows(l * n)
    u = np.random.default_rng(seed).random((rows, l * n))
    if l == 1:
        cdf = _cdf_matrix(n, _grid_key(grid)).cells
        counts = grid_cell_counts(u, grid.points)
        cells, position_cells = np.searchsorted(grid.points, u, side="left"), 0
    else:
        s = _pooled_counts(grid, n, l)
        cdf = chain_table(n, l, s)[0].cells
        counts = chain_cell_counts(u, s, n, l)
        cells = np.argsort(u, axis=1) // n * (s.size + 1)
        position_cells = _rank_cells(s, l * n)
    want = tail_levels(cdf)(counts)
    reader = _tail_level_reader(cdf, l, position_cells)
    part = max(1, int(fill * rows))
    for b in (part, rows, part):
        np.testing.assert_array_equal(reader(cells[:b].copy()), want[:b])


def test_reader_shared_by_threads_reads_every_block_size():
    # worker threads share one reader, and grow its index while others
    # read through it
    n, l = 12, 3
    s = _pooled_counts(default_grid(n, l * n), n, l)
    cdf = chain_table(n, l, s)[0].cells
    u = np.random.default_rng(3).random((64, l * n))
    want = tail_levels(cdf)(chain_cell_counts(u, s, n, l))
    cells = np.argsort(u, axis=1) // n * (s.size + 1)
    reader = _tail_level_reader(cdf, l, _rank_cells(s, l * n))
    sizes = [1 + (7 * i) % 64 for i in range(300)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            got = list(pool.map(lambda b: reader(cells[:b].copy()), sizes, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert len(got) == len(sizes)
    for b, levels in zip(sizes, got):
        np.testing.assert_array_equal(levels, want[:b])


@pytest.mark.parametrize("below", [0.75, np.nextafter(0.75, 0.0)])
def test_upper_tail_level_follows_the_rounding_of_one_minus_half_gamma(below):
    # 1 - gamma / 2 rounds to a float, so the plain 2 * (1 - cdf[c - 1])
    # is not the last gamma that holds count c.  With q the float above
    # cdf[c - 1], the midpoint between q and the float below it rounds
    # to the even one: down to 0.75 when cdf[c - 1] is 0.75 (the tie
    # leaves count c out), up to q = 0.75 when cdf[c - 1] is just below
    # (the tie holds it)
    cdf = np.array([[below, 1.0]])
    level = tail_levels(cdf)(np.array([[1]]))[0]
    assert level < 2.0 * (1.0 - below)
    assert _count_bounds(full_table(cdf), level)[1][0] == 1
    assert _count_bounds(full_table(cdf), np.nextafter(level, 1.0))[1][0] == 0


def test_count_above_a_cdf_that_rounds_to_one_has_level_zero():
    # no gamma in (0, 1] holds count 1 when cdf[0] is 1.0, since
    # 1 - gamma / 2 is never above it; the simulators' positivity assert
    # fires on such a level
    cdf = np.array([[1.0, 1.0]])
    assert tail_levels(cdf)(np.array([[1], [0]])).tolist() == [0.0, 2.0]
    assert _count_bounds(full_table(cdf), 2.0**-1021)[1][0] == 0
