"""Each count law's CDF table as a block of each row's window, against
the full table.

A table built at a level, binomial or the chains' hypergeometric, holds
each row's window of counts from its first count on, with the full
table's bits in every cell, and 1.0 past the window.  Each count left
out below or above the window must lie beyond a window edge whose
2 * min(F, 1 - F) is at most the largest such edge value, which the
tests read off the block (``edge_reach``) and which must lie below the
level; then the count bounds at every gamma above that value, and the
exact search from any floor above it, are the full table's.  The full
(level-0) table is the oracle; it stays in the program because the
simulator reads it.

The cache keeps one entry per count law and rebuilds it, at the level
asked for, only for a level below the one it was built at: any sequence
of searches and bands reads the full table's bounds, a cold one-column
or chain ``test`` and a gamma build at two alphas build one table per
grid, also where grid points share a pooled count, the simulators build
only full tables, and a repeated request cycle adds no keys and no
builds.
"""

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ecdf_bands.cli as cli
from ecdf_bands import _forward, bands_single
from ecdf_bands.bands_multi import _chain_mass, _pooled_counts, gamma_simulate_multi
from ecdf_bands.bands_multi import test_multi as run_multi_test
from ecdf_bands.bands_single import (
    _EXACT_HALF,
    _cdf_matrix,
    _cdf_slot,
    _cdf_table,
    _count_bounds,
    _optimized_gamma,
    _sample_law,
    _search_steps,
    _single_factors,
    bands_from_gamma,
    gamma_optimize,
    gamma_simulate,
)
from ecdf_bands.transform import EvaluationGrid, default_grid

PRIMES = (2, 3, 5, 7, 11, 13, 31, 101, 127, 199)


def clear_program_caches():
    """Clear every functools cache in the package, as a fresh process
    starts with none."""
    for name, module in list(sys.modules.items()):
        if name.startswith("ecdf_bands") and module is not None:
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def grid_points(n, spec):
    kind, payload = spec
    if kind == "default":
        return tuple(float(z) for z in default_grid(n, None).points)
    if kind == "lattice":
        return tuple(i / payload for i in range(1, payload + 1))
    return payload


unit_floats = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
grid_specs = st.one_of(
    st.just(("default", None)),
    st.tuples(st.just("lattice"), st.sampled_from(PRIMES)),
    st.tuples(
        st.just("uniforms"),
        st.lists(unit_floats, min_size=1, max_size=60, unique=True).map(lambda v: tuple(sorted(v))),
    ),
    st.tuples(
        st.just("ends_at_one"),
        st.lists(unit_floats, max_size=8, unique=True).map(lambda v: tuple(sorted(v)) + (1.0,)),
    ),
)


def searched(n, key, table, alpha, floor, l=1):
    """The exact step search with coverage read from ``table``: one
    sample on the grid points ``key``, or two chains at the pooled
    counts ``key``."""
    s = np.asarray(key)

    def coverage(g):
        if l == 1:
            return _forward.forward_mass(*_single_factors(n, key, *_count_bounds(table, g)))
        return _chain_mass(n, l, s, *_count_bounds(table, g, np.maximum(s - n, 0)))

    return _search_steps(coverage, table.cells, alpha, floor)


ALPHAS = (0.001, 0.01, 0.05, 0.1, 0.3, 0.7)
TOP = float(np.nextafter(1.0, 0.0))


def assert_block_reads_like_the_full_table(block, full, floor):
    """Every cell of ``block`` has the full table's bits or, past the
    window, holds 1.0 for a count beyond the window edges' largest
    breakpoint, the reach, which lies below ``floor``; the counts below
    the block lie beyond it too, and the bounds at every gamma of a
    ladder from just above the reach to 1 - 2**-53 are the full
    table's."""
    cells, first = block
    k, w = cells.shape
    assert first.shape == (k,)
    assert not (cells.flags.writeable or first.flags.writeable)
    cols = first[:, None] + np.arange(w)
    inside = cols <= full.cells.shape[1] - 1
    # columns past count n hold 1.0 and map to no count
    assert np.all(cells[~inside] == 1.0)
    # each count's cell in the block, 1.0 past its last column
    col = np.arange(full.cells.shape[1]) - first[:, None]
    read = np.where(col < w, np.take_along_axis(cells, np.clip(col, 0, w - 1), axis=1), 1.0)
    flushed = (col >= 0) & (read != full.cells)
    assert np.all(read[flushed] == 1.0)
    reach = edge_reach(read, first, flushed)
    assert 0.0 <= reach < floor
    assert np.all(2.0 * (1.0 - full.cells[flushed]) <= reach)
    below = col < 0
    assert np.all(2.0 * full.cells[below] <= reach)

    lowest = np.nextafter(reach, 1.0) if reach > 0.0 else floor / 1e3
    for g in np.append(np.geomspace(lowest, TOP, 30), [floor, TOP]):
        for got, want in zip(_count_bounds(block, g), _count_bounds(full, g)):
            assert np.array_equal(got, want), g


def edge_reach(read, first, flushed) -> float:
    """The window edges' largest breakpoint 2 * min(F, 1 - F), from each
    count's cell ``read`` off a block whose rows start at ``first``: a
    row's first count where counts lie below it, and its last count where
    the counts past it, ``flushed``, read 1.0 in place of the full
    table's F (the first of them is the count after the last)."""
    rows = np.flatnonzero(flushed.any(axis=1))
    last = flushed.argmax(axis=1)[rows] - 1
    assert np.all(last >= first[rows])
    lower = read[first > 0, first[first > 0]]
    edges = np.concatenate((lower, 1.0 - read[rows, last]))
    return 2.0 * float(edges.max(initial=0.0))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 600), spec=grid_specs, alpha=st.sampled_from(ALPHAS), l=st.sampled_from([1, 1, 2, 3, 6]))
@example(n=1000, spec=("default", None), alpha=0.05, l=1)
@example(n=5000, spec=("default", None), alpha=0.05, l=1)
@example(n=341, spec=("ends_at_one", (1.0,)), alpha=0.05, l=1)
@example(n=1, spec=("lattice", 2), alpha=0.5, l=1)
@example(n=1, spec=("default", None), alpha=0.05, l=1)
# rows with an empty side: at 1e-300 the mode is 0 and no run lies below
# it; at 1 the row is a point mass at n
@example(n=1, spec=("uniforms", (1e-300,)), alpha=0.05, l=1)
@example(n=600, spec=("uniforms", (1e-300,)), alpha=0.05, l=1)
@example(n=1, spec=("ends_at_one", (1.0,)), alpha=0.05, l=1)
@example(n=600, spec=("ends_at_one", (1.0,)), alpha=0.05, l=1)
# empty lower sides followed by rows that count cells on both sides
@example(n=600, spec=("uniforms", (1e-300, 0.001, 0.5)), alpha=0.05, l=1)
# chains: pooled counts 0 and l n, exact-cold shapes, and rows cut off
# by their support
@example(n=1, spec=("lattice", 2), alpha=0.05, l=2)
@example(n=41, spec=("default", None), alpha=0.05, l=2)
@example(n=26, spec=("default", None), alpha=0.05, l=3)
@example(n=80, spec=("uniforms", (1e-300, 0.01, 0.17, 0.5, 0.83, 0.99)), alpha=0.3, l=6)
def test_windowed_table_reads_like_the_full_table(n, spec, alpha, l):
    # one sample on the grid points, or l chains at the grid's pooled
    # counts, as the exact search reads them; the search is run for one
    # sample and two chains
    key = grid_points(n, spec)
    if l > 1:
        key = tuple(_pooled_counts(EvaluationGrid(np.asarray(key)), n, l).tolist())
    p = np.asarray(key)
    floor = alpha / (l * len(key))
    full = _cdf_table(n, p, 0.0, l)
    assert full.cells.shape == (len(key), n + 1) and not full.first.any()
    clear_program_caches()
    assert np.array_equal(_cdf_matrix(n, key, 0.0, l).cells, full.cells)
    # the full table alone serves level 0
    assert _cdf_slot(n, key, l)[0][1] == 0.0
    clear_program_caches()
    block = _cdf_matrix(n, key, floor, l)
    assert _cdf_slot(n, key, l)[0] == (block, floor)
    assert_block_reads_like_the_full_table(block, full, floor)
    found = (floor,)
    if l <= 2:
        found = searched(n, key, block, alpha, floor, l)
        assert found == searched(n, key, full, alpha, floor, l)
    # every level from the floor up, among them the bands at the
    # search's gamma and any band above it, is served without a rebuild;
    # a gamma on the step that holds the floor, below it, rebuilds
    for level in (floor, alpha, TOP, found[0]):
        assert (_cdf_matrix(n, key, level, l) is block) == (level >= floor)
    # a windowed table, even one with no edges, never serves level 0
    assert np.array_equal(_cdf_matrix(n, key, 0.0, l).cells, full.cells)

    # the bands' own table, built at gamma
    assert_block_reads_like_the_full_table(_cdf_table(n, p, alpha, l), full, alpha)


requests = st.one_of(
    st.tuples(st.just("search"), st.sampled_from(ALPHAS)),
    st.tuples(st.just("bands"), unit_floats),
    st.tuples(st.just("bands"), st.floats(0.0, _EXACT_HALF, exclude_min=True, exclude_max=True)),
    st.tuples(st.just("full"), st.just(0.0)),
)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 300), spec=grid_specs, sequence=st.lists(requests, min_size=1, max_size=8))
@example(n=1, spec=("default", None), sequence=[("search", 0.05), ("full", 0.0)])
@example(n=351, spec=("default", None), sequence=[("search", 0.05), ("search", 0.1), ("search", 0.01)])
@example(
    n=6, spec=("default", None),
    sequence=[("bands", 0.9999999999999999), ("search", 0.05), ("bands", 6.626615069059857e-33), ("full", 0.0)],
)
@example(n=40, spec=("lattice", 7), sequence=[("bands", 0.5), ("bands", 1e-300), ("search", 0.3)])
@example(n=1, spec=("uniforms", (1e-300,)), sequence=[("search", 0.05), ("bands", 0.5), ("full", 0.0)])
@example(n=600, spec=("uniforms", (1e-300,)), sequence=[("search", 0.05), ("bands", 0.5), ("full", 0.0)])
@example(n=1, spec=("ends_at_one", (1.0,)), sequence=[("search", 0.05), ("bands", 0.5), ("full", 0.0)])
@example(n=600, spec=("ends_at_one", (1.0,)), sequence=[("search", 0.05), ("bands", 0.5), ("full", 0.0)])
def test_any_request_sequence_reads_the_full_table(n, spec, sequence):
    # each request rebuilds the one cached table exactly when its level
    # lies below the level the table was built at, and reads the full
    # table's search, bounds and cells
    key = grid_points(n, spec)
    grid = EvaluationGrid(np.asarray(key))
    full = _cdf_table(n, np.asarray(key), 0.0)
    clear_program_caches()
    for kind, value in sequence:
        before, built = _cdf_slot(n, key, 1)[0]
        if kind == "search":
            level = value / len(key)
            got = gamma_optimize(n, grid, value)
            # the same search reading the full table
            with mock.patch.object(bands_single, "_cdf_matrix", lambda *args: full):
                want = _optimized_gamma(_sample_law(n, grid), value)
            assert (got.gamma, got.attained_coverage, got.meta) == (want.gamma, want.attained_coverage, want.meta)
        elif kind == "bands":
            level = value if value >= _EXACT_HALF else 0.0
            bands = bands_from_gamma(n, grid, value)
            for got, want in zip((bands.lower_counts, bands.upper_counts), _count_bounds(full, value)):
                assert np.array_equal(got, want), value
        else:
            level = 0.0
            table = _cdf_matrix(n, key)
            assert np.array_equal(table.cells, full.cells) and not table.first.any()
        after, after_built = _cdf_slot(n, key, 1)[0]
        assert (after is not before) == (level < built), (kind, value, built)
        assert level >= after_built


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 400),
    spec=grid_specs,
    alpha=st.sampled_from(ALPHAS),
    above=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    gammas=st.lists(unit_floats, max_size=4),
)
@example(n=351, spec=("default", None), alpha=0.05, above=0.01, gammas=[1e-9, 1e-12, 0.9, 0.001])
@example(n=40, spec=("lattice", 7), alpha=0.1, above=0.5, gammas=[])
@example(n=3, spec=("default", None), alpha=0.01, above=0.5, gammas=[5e-324])
@example(
    n=6, spec=("default", None), alpha=0.05, above=0.9999999999999999,
    gammas=[6.626615069059857e-33, 0.9999999999999999],
)
def test_bands_at_any_gamma_read_like_the_full_table(n, spec, alpha, above, gammas):
    # the first bands above alpha come right after the search has cached
    # its table at alpha / K for the same grid
    key = grid_points(n, spec)
    grid = EvaluationGrid(np.asarray(key))
    full = _cdf_table(n, np.asarray(key), 0.0)
    clear_program_caches()
    found = gamma_optimize(n, grid, alpha).gamma
    searched_table = _cdf_slot(n, key, 1)[0][0]
    first = alpha + above * (1.0 - alpha)
    first = float(np.clip(first, np.nextafter(alpha, 1.0), np.nextafter(1.0, 0.0)))
    for i, g in enumerate([first, *gammas, found]):
        bands = bands_from_gamma(n, grid, g)
        for got, want in zip((bands.lower_counts, bands.upper_counts), _count_bounds(full, g)):
            assert np.array_equal(got, want), g
        if i == 0:
            # the search's table serves every level above its floor
            assert _cdf_slot(n, key, 1)[0][0] is searched_table


@pytest.mark.parametrize("n", [1, 7, 351, 5000])
def test_windows_at_the_extreme_levels_read_like_the_full_table(n):
    # the smallest level whose half is exact, 1/2 and a level just below
    # 1: the window edges are counted off the kernel's cells at both ends
    key = tuple(float(z) for z in default_grid(n).points)
    p = np.asarray(key)
    full = _cdf_table(n, p, 0.0)
    for level in (_EXACT_HALF, 0.5, TOP):
        assert_block_reads_like_the_full_table(_cdf_table(n, p, level), full, level)


@pytest.mark.parametrize("n, l", [(1, 2), (41, 2), (26, 3), (1000, 2)])
def test_chain_windows_at_the_extreme_levels_read_like_the_full_table(n, l):
    key = _pooled_counts(default_grid(n, l * n), n, l)
    full = _cdf_table(n, key, 0.0, l)
    for level in (_EXACT_HALF, 0.5, TOP):
        assert_block_reads_like_the_full_table(_cdf_table(n, key, level, l), full, level)


@pytest.fixture
def table_builds(monkeypatch):
    """Every table build as (n, row parameters, level, chains), from
    empty caches."""
    builds = []

    def counting(n, p, level, l=1):
        builds.append((n, tuple(p.tolist()), level, l))
        return real(n, p, level, l)

    real = bands_single._cdf_table
    monkeypatch.setattr(bands_single, "_cdf_table", counting)
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    clear_program_caches()
    yield builds
    clear_program_caches()


def _pit_file(path, u):
    path.write_text("pit\n" + "\n".join(repr(float(v)) for v in u) + "\n")
    return str(path)


def test_cold_one_column_test_builds_its_table_once(tmp_path, table_builds):
    src = _pit_file(tmp_path / "pit.csv", np.random.default_rng(12).random(341))
    assert cli.main(["test", src, "--out", str(tmp_path / "report.json")]) in (0, 1)
    key = tuple(default_grid(341, None).points)
    assert table_builds == [(341, key, 0.05 / len(key), 1)]


def test_cold_two_chain_test_builds_its_table_once(tmp_path, table_builds):
    # the bands at the searched gamma read the table the search built at
    # its floor, alpha / (l K), on the default grid's distinct pooled counts
    src = tmp_path / "chains.csv"
    x = np.random.default_rng(5).standard_normal((61, 2))
    src.write_text("a,b\n" + "\n".join(f"{a!r},{b!r}" for a, b in x.tolist()) + "\n")
    assert cli.main(["test", str(src), "--out", str(tmp_path / "report.json")]) in (0, 1)
    key = tuple(_pooled_counts(default_grid(61, 122), 61, 2).tolist())
    assert table_builds == [(61, key, 0.05 / (2 * len(key)), 2)]


@pytest.mark.parametrize(
    "n, l, gamma, coverage, lower, upper",
    [
        (30, 2, 0.021551946089373615, 0.9663326159441529, [0, 0, 5, 11, 11, 17, 24, 30], [6, 6, 13, 19, 19, 25, 30, 30]),
        (12, 3, 0.01268620907762442, 0.955971225432313, [0, 0, 0, 3, 3, 5, 8, 12], [3, 3, 7, 9, 9, 11, 12, 12]),
    ],
)
def test_cold_chain_test_builds_one_table_where_grid_points_share_a_pooled_count(
    n, l, gamma, coverage, lower, upper, table_builds
):
    # 0.1 and 0.1001, and 0.5 and 0.50001, share a pooled count at both
    # shapes: the search, its coverage and the bands read one table keyed
    # by every pooled count, and give the gamma, coverage and bands of
    # the distinct counts' table
    grid = EvaluationGrid(np.array([0.1, 0.1001, 0.3, 0.5, 0.50001, 0.7, 0.9, 1.0]))
    s = _pooled_counts(grid, n, l)
    assert s[1] == s[0] and s[4] == s[3]
    bands = run_multi_test(np.random.default_rng(n).standard_normal((l, n)), grid=grid).bands
    assert table_builds == [(n, tuple(s.tolist()), 0.05 / (l * grid.size), l)]
    assert (bands.gamma, bands.gamma_info.attained_coverage) == (gamma, coverage)
    assert (bands.lower_counts.tolist(), bands.upper_counts.tolist()) == (lower, upper)


def test_a_gamma_build_at_two_alphas_builds_one_table_per_grid(tmp_path, table_builds):
    # the search at alpha = 0.1 reads the table the search at 0.05 built
    out = str(tmp_path / "gamma.json")
    assert cli.main(["gamma", "build", "--ns", "40,90", "--ls", "1", "--alphas", "0.05,0.1", "--out", out]) == 0
    keys = [tuple(default_grid(n, None).points) for n in (40, 90)]
    assert table_builds == [(n, key, 0.05 / len(key), 1) for n, key in zip((40, 90), keys)]


def test_simulation_builds_only_full_tables(table_builds):
    grid = default_grid(250, None)
    gamma_simulate(250, grid, 0.05, m=1000, seed=3)
    gamma_simulate_multi(40, 4, default_grid(40, 160), 0.05, m=1000, seed=3)
    assert {l for *_, l in table_builds} == {1, 4}
    assert all(level == 0.0 for _, _, level, _ in table_builds)


def test_a_repeated_request_cycle_adds_no_keys_and_no_builds(tmp_path, table_builds, monkeypatch):
    cache = str(tmp_path / "gamma.json")
    assert cli.main(["gamma", "build", "--ns", "32,64", "--ls", "1", "--out", cache]) == 0
    monkeypatch.setenv(cli.CACHE_ENV, cache)
    rng = np.random.default_rng(7)
    files = {n: _pit_file(tmp_path / f"pit{n}.csv", rng.random(n)) for n in (24, 48, 64)}
    chains = tmp_path / "chains.csv"
    chains.write_text("a,b\n" + "\n".join(f"{a!r},{b!r}" for a, b in rng.standard_normal((64, 2)).tolist()) + "\n")
    out = str(tmp_path / "out")
    cycle = [
        ["test", files[64], "--out", out],
        ["test", files[64], "--grid-k", "20", "--out", out],
        ["test", files[48], "--out", out],
        ["plot", files[64], "--kind", "rank_hist", "--bins", "16", "--out", out],
        ["test", files[24], "--out", out],
        ["test", files[48], "--method", "simulate", "--m-reps", "200", "--out", out],
        ["test", str(chains), "--out", out],
        ["test", str(chains), "--grid-k", "20", "--out", out],
    ]
    for argv in cycle:
        assert cli.main(argv) in (0, 1)
    keys = _cdf_slot.cache_info().currsize
    assert keys == len({(n, key, l) for n, key, _, l in table_builds})
    misses = _cdf_slot.cache_info().misses
    table_builds.clear()
    for argv in cycle:
        assert cli.main(argv) in (0, 1)
    assert table_builds == []
    assert _cdf_slot.cache_info().misses == misses
    assert _cdf_slot.cache_info().currsize == keys
