"""Persisted adjustment-level grids: build, save, load, interpolate."""

import json
import math

import pytest

from ecdf_bands.bands_single import gamma_optimize, test_single as run_single_test
from ecdf_bands.gamma_cache import (
    SCHEMA,
    GammaGrid,
    GridEntry,
    build_grid,
    interpolate,
    load_grid,
    save_grid,
)
from ecdf_bands.transform import default_grid

import numpy as np


@pytest.fixture(scope="module")
def small_grid():
    return build_grid([40, 80], [1], [0.05], k_policy=20)


def test_build_grid_matches_direct_optimization(small_grid):
    entries = small_grid.entries
    assert len(entries) == 2
    assert [e.n for e in entries] == [40, 80]
    for e in entries:
        assert e.l == 1
        assert e.alpha == 0.05
        assert e.k == 20
        assert e.method == "optimization"
        direct = gamma_optimize(e.n, default_grid(e.n, k_max=20), 0.05)
        assert e.gamma == direct.gamma
        assert e.coverage == direct.attained_coverage


def test_build_grid_thread_pool_gives_identical_entries(small_grid):
    threaded = build_grid([40, 80], [1], [0.05], k_policy=20, threads=2)
    assert threaded.entries == small_grid.entries


def test_build_grid_rejects_empty_axes():
    with pytest.raises(ValueError):
        build_grid([], [1], [0.05])


def test_entries_sort_and_reject_duplicates():
    a = GridEntry(50, 1, 20, 0.05, 0.005, 0.95, "optimization")
    b = GridEntry(20, 1, 20, 0.05, 0.009, 0.95, "optimization")
    grid = GammaGrid((a, b))
    assert [e.n for e in grid.entries] == [20, 50]
    with pytest.raises(ValueError):
        GammaGrid((a, a))


def test_grid_entry_validation():
    with pytest.raises(ValueError):
        GridEntry(0, 1, 10, 0.05, 0.01, 0.95, "optimization")
    with pytest.raises(ValueError):
        GridEntry(10, 1, 10, 0.05, 0.2, 0.95, "optimization")  # gamma > alpha
    with pytest.raises(ValueError):
        GridEntry(10, 1, 10, 1.5, 0.01, 0.95, "optimization")


def test_save_load_roundtrip_is_stable(tmp_path, small_grid):
    p1 = tmp_path / "grid1.json"
    p2 = tmp_path / "grid2.json"
    save_grid(small_grid, p1)
    loaded = load_grid(p1)
    assert loaded.entries == small_grid.entries
    save_grid(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    payload = json.loads(p1.read_text())
    assert payload["schema"] == SCHEMA


def test_load_rejects_unknown_schema(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"schema": "gamma-grid/999", "entries": []}))
    with pytest.raises(ValueError):
        load_grid(p)


def test_exact_lookup_returns_stored_entry(small_grid):
    res = interpolate(small_grid, 40, 1, 0.05)
    stored = small_grid.entries[0]
    assert res.gamma == stored.gamma
    assert res.attained_coverage == stored.coverage
    assert res.method == "optimization"
    assert res.meta["cache_key"] == stored.key
    assert "attained_estimate" not in res.meta


def test_interpolation_blends_on_log_log_scale(small_grid):
    lo, hi = small_grid.entries
    res = interpolate(small_grid, 60, 1, 0.05)
    w = (math.log(60) - math.log(40)) / (math.log(80) - math.log(40))
    want = math.exp((1 - w) * math.log(lo.gamma) + w * math.log(hi.gamma))
    assert res.gamma == pytest.approx(want, rel=1e-15)
    assert res.method == "interpolated"
    assert res.meta["between"] == (40, 80)
    assert res.meta["attained_estimate"] == "blend"
    want_cov = (1 - w) * lo.coverage + w * hi.coverage
    assert res.attained_coverage == pytest.approx(want_cov, rel=1e-15)
    assert min(lo.gamma, hi.gamma) <= res.gamma <= max(lo.gamma, hi.gamma)


def test_interpolated_gamma_coverage_is_close_to_nominal(small_grid):
    from ecdf_bands.bands_single import coverage_probability

    res = interpolate(small_grid, 60, 1, 0.05)
    exact = coverage_probability(60, default_grid(60, k_max=20), res.gamma)
    assert exact == pytest.approx(0.95, abs=0.01)


def test_no_extrapolation_and_missing_slices(small_grid):
    with pytest.raises(KeyError):
        interpolate(small_grid, 20, 1, 0.05)
    with pytest.raises(KeyError):
        interpolate(small_grid, 200, 1, 0.05)
    with pytest.raises(KeyError):
        interpolate(small_grid, 60, 2, 0.05)
    with pytest.raises(KeyError):
        interpolate(small_grid, 60, 1, 0.1)
    with pytest.raises(ValueError):
        interpolate(small_grid, 0, 1, 0.05)


def test_ambiguous_k_requires_disambiguation():
    a = GridEntry(50, 1, 20, 0.05, 0.0050, 0.95, "optimization")
    b = GridEntry(50, 1, 50, 0.05, 0.0048, 0.95, "optimization")
    c = GridEntry(100, 1, 50, 0.05, 0.0040, 0.95, "optimization")
    grid = GammaGrid((a, b, c))
    with pytest.raises(ValueError):
        interpolate(grid, 50, 1, 0.05)
    res = interpolate(grid, 50, 1, 0.05, k=20)
    assert res.gamma == a.gamma
    with pytest.raises(ValueError):
        interpolate(grid, 70, 1, 0.05)  # two stored sizes at n=50
    res = interpolate(grid, 70, 1, 0.05, k=50)
    assert res.method == "interpolated"


def test_cache_drives_test_single(tmp_path, small_grid):
    path = tmp_path / "grid.json"
    save_grid(small_grid, path)
    values = (np.arange(40) + 0.5) / 40
    rep = run_single_test(
        values, method="cache", grid=default_grid(40, k_max=20), cache=str(path)
    )
    assert rep.bands.gamma == small_grid.entries[0].gamma
    rep2 = run_single_test(values, method="cache", grid=default_grid(40, k_max=20), cache=small_grid)
    assert rep2.bands.gamma == rep.bands.gamma
    # auto falls back to optimization when the cache has no match
    rep3 = run_single_test(
        (np.arange(30) + 0.5) / 30, method="auto", grid=default_grid(30, k_max=20), cache=small_grid
    )
    assert rep3.bands.gamma_info.method == "optimization"
    with pytest.raises(ValueError):
        run_single_test(values, method="cache", grid=default_grid(40, k_max=20))


def test_build_grid_multi_chain_entries_use_exact_route():
    grid = build_grid([12], [2], [0.1], k_policy=8)
    e = grid.entries[0]
    assert e.l == 2
    assert e.method == "optimization"
    assert 0.0 < e.gamma <= 0.1
