"""The binomial CDF table as a block of each row's window, against the
full table.

A table built for [level, top] holds each row's window of counts from
its first count on, computes ``betainc`` only on the window's tail
cells (2 * min(F, 1 - F) below top) and holds 1/2 in its centre cells
and 1.0 past the window.  Each cell left out below or above the window
must lie beyond an exact window edge whose 2 * min(F, 1 - F) is at most
the table's reach, which is below the level, and each centre cell must
have 2 * min(F, 1 - F) at or above top; then the count bounds at every
gamma in (reach, top] and the exact search from floor alpha / K to
alpha are the full table's.  The full (level-0) table is the oracle; it
stays in the program because the simulator reads it.

The cache keeps one entry per (n, grid): a cold one-column ``test``
builds its table once, the simulator builds only full tables, and a
repeated request cycle adds no keys and no builds.
"""

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ecdf_bands.cli as cli
from ecdf_bands import _forward, bands_single
from ecdf_bands.bands_single import (
    _cdf_matrix,
    _cdf_slot,
    _cdf_table,
    _count_bounds,
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


def searched(n, key, table, alpha, floor):
    """The exact step search with coverage read from ``table``."""

    def coverage(g):
        lo, hi = _count_bounds(table, g)
        return _forward.forward_mass(*_single_factors(n, key, lo, hi))

    return _search_steps(coverage, table.cells, alpha, floor)


def assert_block_reads_like_the_full_table(block, reach, top, full, alpha, floor):
    """Every computed cell of ``block`` has the full table's bits, every
    flushed one lies beyond the reach or inside the bands at every level
    up to ``top``, and the bounds at every gamma of a ladder in
    (reach, top] and the search from ``floor`` are the full table's."""
    cells, first = block
    k, w = cells.shape
    assert reach < floor <= top and first.shape == (k,)
    assert not (cells.flags.writeable or first.flags.writeable)
    cols = first[:, None] + np.arange(w)
    inside = cols <= full.cells.shape[1] - 1
    # columns past count n hold 1.0 and map to no count
    assert np.all(cells[~inside] == 1.0)
    want = np.take_along_axis(full.cells, np.minimum(cols, full.cells.shape[1] - 1), axis=1)
    computed = inside & (cells != 0.5) & (cells != 1.0)
    assert np.array_equal(cells[computed], want[computed])
    centre = inside & (cells == 0.5) & (want != 0.5)
    assert np.all(2.0 * np.minimum(want[centre], 1.0 - want[centre]) >= top)
    ones = inside & (cells == 1.0) & (want != 1.0)
    assert np.all(2.0 * (1.0 - want[ones]) <= reach)
    below = np.arange(full.cells.shape[1]) < first[:, None]
    assert np.all(2.0 * full.cells[below] <= reach)

    lowest = np.nextafter(reach, 1.0) if reach > 0.0 else floor / 1e3
    ladder = np.append(np.geomspace(lowest, top, 30), [floor, top, alpha if alpha <= top else top])
    for g in ladder:
        for got, want in zip(_count_bounds(block, g), _count_bounds(full, g)):
            assert np.array_equal(got, want), g


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 600),
    spec=grid_specs,
    alpha=st.sampled_from((0.001, 0.01, 0.05, 0.1, 0.3, 0.7)),
)
@example(n=1000, spec=("default", None), alpha=0.05)
@example(n=5000, spec=("default", None), alpha=0.05)
@example(n=341, spec=("ends_at_one", (1.0,)), alpha=0.05)
@example(n=1, spec=("lattice", 2), alpha=0.5)
def test_windowed_table_reads_like_the_full_table(n, spec, alpha):
    key = grid_points(n, spec)
    p = np.asarray(key)
    floor = alpha / len(key)
    full, full_reach = _cdf_table(n, p, 0.0, 0.0)
    assert full_reach < 0.0
    assert full.cells.shape == (len(key), n + 1) and not full.first.any()
    clear_program_caches()
    assert np.array_equal(_cdf_matrix(n, key).cells, full.cells)
    clear_program_caches()
    block = _cdf_matrix(n, key, floor, alpha)
    _, reach, level, top = _cdf_slot(n, key)[0]
    assert (level, top) == (floor, alpha)
    assert_block_reads_like_the_full_table(block, reach, top, full, alpha, floor)
    found = searched(n, key, block, alpha, floor)
    assert found == searched(n, key, full, alpha, floor)
    # every level the search or the bands at its gamma read is served
    # without a rebuild
    assert _cdf_matrix(n, key, floor, alpha) is block
    assert _cdf_matrix(n, key, found[0]) is block

    # the bands' own table, built for [gamma, gamma]
    bands, bands_reach = _cdf_table(n, p, alpha, alpha)
    assert_block_reads_like_the_full_table(bands, bands_reach, alpha, full, alpha, alpha)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 400),
    spec=grid_specs,
    alpha=st.sampled_from((0.001, 0.01, 0.05, 0.1, 0.3, 0.7)),
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
    # its [alpha / K, alpha] table for the same grid
    key = grid_points(n, spec)
    grid = EvaluationGrid(np.asarray(key))
    full = _cdf_table(n, np.asarray(key), 0.0, 0.0)[0]
    clear_program_caches()
    found = gamma_optimize(n, grid, alpha).gamma
    first = alpha + above * (1.0 - alpha)
    first = float(np.clip(first, np.nextafter(alpha, 1.0), np.nextafter(1.0, 0.0)))
    for i, g in enumerate([first, *gammas, found]):
        bands = bands_from_gamma(n, grid, g)
        for got, want in zip((bands.lower_counts, bands.upper_counts), _count_bounds(full, g)):
            assert np.array_equal(got, want), g
        if i == 0:
            # the rebuild serves both ranges, so the search's own levels
            # are served again without one (a later gamma equal to first
            # may be served by a table a lower gamma widened since)
            assert _cdf_slot(n, key)[0][2:] == (alpha / len(key), first)


@pytest.mark.parametrize("n", [1, 7, 351, 5000])
def test_windows_at_the_extreme_levels_read_like_the_full_table(n):
    # the smallest level whose half is exact and a top just below 1: the
    # window edges are counted off the summed rows at both ends of the
    # range of levels
    key = tuple(float(z) for z in default_grid(n).points)
    p = np.asarray(key)
    full = _cdf_table(n, p, 0.0, 0.0)[0]
    top = float(np.nextafter(1.0, 0.0))
    for level, high in ((2.0**-1021, 2.0**-1021), (2.0**-1021, top), (0.5, top)):
        block, reach = _cdf_table(n, p, level, high)
        assert_block_reads_like_the_full_table(block, reach, high, full, high, level)


@pytest.fixture
def table_builds(monkeypatch):
    """Every table build as (n, grid points, level, top), from empty caches."""
    builds = []

    def counting(n, p, level, top):
        builds.append((n, tuple(p), level, top))
        return real(n, p, level, top)

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
    assert table_builds == [(341, key, 0.05 / len(key), 0.05)]


def test_simulation_builds_only_full_tables(table_builds):
    grid = default_grid(250, None)
    gamma_simulate(250, grid, 0.05, m=1000, seed=3)
    assert table_builds and all(level == 0.0 for _, _, level, _ in table_builds)


def test_a_repeated_request_cycle_adds_no_keys_and_no_builds(tmp_path, table_builds, monkeypatch):
    cache = str(tmp_path / "gamma.json")
    assert cli.main(["gamma", "build", "--ns", "32,64", "--ls", "1", "--out", cache]) == 0
    monkeypatch.setenv(cli.CACHE_ENV, cache)
    rng = np.random.default_rng(7)
    files = {n: _pit_file(tmp_path / f"pit{n}.csv", rng.random(n)) for n in (24, 48, 64)}
    out = str(tmp_path / "out")
    cycle = [
        ["test", files[64], "--out", out],
        ["test", files[64], "--grid-k", "20", "--out", out],
        ["test", files[48], "--out", out],
        ["plot", files[64], "--kind", "rank_hist", "--bins", "16", "--out", out],
        ["test", files[24], "--out", out],
        ["test", files[48], "--method", "simulate", "--m-reps", "200", "--out", out],
    ]
    for argv in cycle:
        assert cli.main(argv) in (0, 1)
    keys = _cdf_slot.cache_info().currsize
    assert keys == len({(n, key) for n, key, _, _ in table_builds})
    misses = _cdf_slot.cache_info().misses
    table_builds.clear()
    for argv in cycle:
        assert cli.main(argv) in (0, 1)
    assert table_builds == []
    assert _cdf_slot.cache_info().misses == misses
    assert _cdf_slot.cache_info().currsize == keys
