"""Persisted adjustment-level grids: build, save, load, interpolate."""

import json
import logging
import math

import pytest

from ecdf_bands.bands_multi import gamma_optimize_multi, gamma_simulate_multi
from ecdf_bands.bands_single import gamma_optimize, gamma_simulate, test_single as run_single_test
from ecdf_bands.gamma_cache import (
    SCHEMA,
    GammaGrid,
    GridEntry,
    build_grid,
    calibrate,
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


PINNED_GRID_FILE = """\
{
  "entries": [
    {
      "alpha": 0.1,
      "coverage": 1.0,
      "gamma": 1e-05,
      "k": 20,
      "l": 1,
      "method": "simulation",
      "n": 40
    },
    {
      "alpha": 0.05,
      "coverage": 0.9501234567890123,
      "gamma": 0.0031415926535897933,
      "k": 80,
      "l": 2,
      "method": "optimization",
      "n": 80
    }
  ],
  "schema": "gamma-grid/1"
}
"""


def test_save_grid_writes_pinned_bytes(tmp_path):
    grid = GammaGrid(
        (
            GridEntry(80, 2, 80, 0.05, 0.0031415926535897933, 0.9501234567890123, "optimization"),
            GridEntry(40, 1, 20, 0.1, 1e-05, 1.0, "simulation"),
        )
    )
    path = tmp_path / "grid.json"
    save_grid(grid, path)
    assert path.read_bytes() == PINNED_GRID_FILE.encode("utf-8")


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


def test_cache_drives_test_single(tmp_path, small_grid, caplog):
    path = tmp_path / "grid.json"
    save_grid(small_grid, path)
    values = (np.arange(40) + 0.5) / 40
    rep = run_single_test(
        values, method="cache", grid=default_grid(40, k_max=20), cache=str(path)
    )
    assert rep.bands.gamma == small_grid.entries[0].gamma
    rep2 = run_single_test(values, method="cache", grid=default_grid(40, k_max=20), cache=small_grid)
    assert rep2.bands.gamma == rep.bands.gamma
    # auto falls back to optimization when the cache has no match, and says why
    with caplog.at_level(logging.DEBUG, logger="ecdf_bands"):
        rep3 = run_single_test(
            (np.arange(30) + 0.5) / 30, method="auto", grid=default_grid(30, k_max=20), cache=small_grid
        )
    assert rep3.bands.gamma_info.method == "optimization"
    miss = rep3.bands.gamma_info.meta["cache_miss"]
    assert "outside the stored range" in miss
    assert any(miss in r.getMessage() for r in caplog.records)
    with pytest.raises(ValueError):
        run_single_test(values, method="cache", grid=default_grid(40, k_max=20))


def test_build_grid_multi_chain_entries_use_exact_route():
    grid = build_grid([12], [2], [0.1], k_policy=8)
    e = grid.entries[0]
    assert e.l == 2
    assert e.method == "optimization"
    assert 0.0 < e.gamma <= 0.1


def _dispatch_cache():
    """Entries at n=12 for 1 and 2 chains; any other n or chain count misses."""
    return GammaGrid(
        (
            GridEntry(12, 1, 6, 0.1, 0.02, 0.9, "optimization"),
            GridEntry(12, 2, 6, 0.1, 0.03, 0.9, "optimization"),
        )
    )


def _direct(route, n, l, grid, alpha):
    if route == "optimize":
        return gamma_optimize(n, grid, alpha) if l == 1 else gamma_optimize_multi(n, l, grid, alpha)
    if route == "simulate":
        if l == 1:
            return gamma_simulate(n, grid, alpha, m=200, seed=3)
        return gamma_simulate_multi(n, l, grid, alpha, m=200, seed=3)
    return interpolate(_dispatch_cache(), n, l, alpha)


def _dispatch_cases():
    """(l, n, method, cached, route): the direct call each request stands for."""
    cases = []
    for l in (1, 2, 3, 4):
        exact = "optimize" if l <= 3 else "simulate"
        cases += [
            (l, 10, "auto", False, exact),
            (l, 10, "auto", True, exact),  # n=10 is below the stored range
            (l, 12, "auto", True, "cache" if l <= 2 else exact),
            (l, 10, "simulate", False, "simulate"),
        ]
        if l <= 3:
            cases.append((l, 10, "optimize", False, "optimize"))
        if l <= 2:
            cases.append((l, 12, "cache", True, "cache"))
    return cases


@pytest.mark.parametrize("l, n, method, cached, route", _dispatch_cases())
def test_calibrate_dispatch_matches_direct_call(l, n, method, cached, route):
    grid = default_grid(n, n * l if l > 1 else None, k_max=6)
    cache = _dispatch_cache() if cached else None
    got = calibrate(n, l, grid, 0.1, method, m=200, seed=3, cache=cache)
    want = _direct(route, n, l, grid, 0.1)
    assert (got.gamma, got.attained_coverage, got.method) == (
        want.gamma,
        want.attained_coverage,
        want.method,
    )
    meta = dict(got.meta)
    miss = meta.pop("cache_miss", None)
    assert meta == want.meta
    # only an automatic choice that passed over a given cache says why
    assert (miss is not None) == (method == "auto" and cached and route != "cache")


@pytest.mark.parametrize(
    "l, method, cache, error, match",
    [
        (1, "cache", None, ValueError, "requires a gamma grid"),
        (2, "cache", None, ValueError, "requires a gamma grid"),
        (1, "exact", None, ValueError, "unknown method"),
        (2, "exact", _dispatch_cache(), ValueError, "unknown method"),
        (4, "optimize", None, ValueError, "2 or 3 chains"),
        (3, "cache", _dispatch_cache(), KeyError, "no stored entries"),
    ],
)
def test_calibrate_dispatch_errors(l, method, cache, error, match):
    grid = default_grid(12, 12 * l if l > 1 else None, k_max=6)
    with pytest.raises(error, match=match):
        calibrate(12, l, grid, 0.1, method, cache=cache)
