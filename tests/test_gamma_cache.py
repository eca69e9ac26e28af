"""Persisted adjustment-level grids: build, save, load, interpolate."""

import json
import logging
import math

import pytest

from ecdf_bands import bands_multi, bands_single, gamma_cache
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
    gamma_cache._calibration_slot.cache_clear()
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


# ---------------------------------------------------------------------------
# the in-process calibration memo



def counting(monkeypatch, module, name):
    """Replace ``module.name`` by a spy that calls it and records the
    ``threads`` of each call; returns the record."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(kwargs.get("threads"))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_a_repeated_search_is_run_once_and_keyed_by_shape_and_alpha(monkeypatch):
    calls = counting(monkeypatch, gamma_cache, "gamma_optimize")
    grid = default_grid(40, k_max=10)
    first = calibrate(40, 1, grid, 0.1)
    again = calibrate(40, 1, default_grid(40, k_max=10), 0.1)
    assert again == first and again is not first
    # replicates, seed and threads do not enter an exact search's key
    assert calibrate(40, 1, grid, 0.1, "optimize", m=500, seed=9, threads=2) == first
    assert len(calls) == 1
    for n, points, alpha in [(41, grid, 0.1), (40, default_grid(40, k_max=11), 0.1), (40, grid, 0.05)]:
        assert calibrate(n, 1, points, alpha) == gamma_optimize(n, points, alpha)
    assert len(calls) == 4


def test_a_simulated_gamma_is_keyed_by_replicates_and_seed_not_threads(monkeypatch):
    calls = counting(monkeypatch, gamma_cache, "gamma_simulate")
    grid = default_grid(50, k_max=12)
    first = calibrate(50, 1, grid, 0.1, "simulate", m=600, seed=5, threads=2)
    assert calibrate(50, 1, grid, 0.1, "simulate", m=600, seed=5, threads=1) == first
    assert calls == [2]
    for m, seed in [(600, 6), (700, 5)]:
        got = calibrate(50, 1, grid, 0.1, "simulate", m=m, seed=seed)
        assert got == gamma_simulate(50, grid, 0.1, m=m, seed=seed)
    assert calls == [2, 1, 1]


def test_chains_share_the_memo_by_method(monkeypatch):
    searches = counting(monkeypatch, gamma_cache, "gamma_optimize_multi")
    runs = counting(monkeypatch, gamma_cache, "gamma_simulate_multi")
    grid = default_grid(20, 40, k_max=6)
    exact = calibrate(20, 2, grid, 0.1)
    simulated = calibrate(20, 2, grid, 0.1, "simulate", m=300, seed=2)
    assert calibrate(20, 2, grid, 0.1, "optimize") == exact
    assert calibrate(20, 2, grid, 0.1, "simulate", m=300, seed=2, threads=3) == simulated
    assert simulated == gamma_simulate_multi(20, 2, grid, 0.1, m=300, seed=2)
    four = default_grid(20, 80, k_max=6)
    assert calibrate(20, 4, four, 0.1, m=300) == calibrate(20, 4, four, 0.1, "simulate", m=300)
    assert (len(searches), len(runs)) == (1, 2)


def test_a_returned_meta_is_the_callers_own():
    grid = default_grid(30, k_max=8)
    first = calibrate(30, 1, grid, 0.1)
    want = dict(first.meta)
    first.meta["evaluations"] = -1
    first.meta["note"] = "changed by a caller"
    again = calibrate(30, 1, grid, 0.1)
    assert again.meta == want
    again.meta.clear()
    # a lookup that misses the stored grid adds its reason to this call only
    missed = calibrate(30, 1, grid, 0.1, cache=GammaGrid(()))
    assert missed.meta == {**want, "cache_miss": "no stored entries for 1 chains at alpha=0.1"}
    assert calibrate(30, 1, grid, 0.1).meta == want


def test_an_error_is_raised_on_every_call_and_never_stored(monkeypatch):
    calls = counting(monkeypatch, gamma_cache, "gamma_simulate")
    grid = default_grid(30, k_max=8)
    for _ in range(3):
        with pytest.raises(ValueError, match="at least 100 replicates"):
            calibrate(30, 1, grid, 0.1, "simulate", m=50)
        with pytest.raises(ValueError, match="alpha must lie"):
            calibrate(30, 1, grid, 1.5, "simulate")
    assert len(calls) == 6


def test_clearing_the_memo_computes_again(monkeypatch):
    calls = counting(monkeypatch, gamma_cache, "gamma_optimize_multi")
    grid = default_grid(20, 60, k_max=6)
    first = calibrate(20, 3, grid, 0.1)
    calibrate(20, 3, grid, 0.1)
    gamma_cache._calibration_slot.cache_clear()
    assert calibrate(20, 3, grid, 0.1) == first
    assert len(calls) == 2


def test_direct_searches_and_simulations_always_compute(monkeypatch):
    single = [counting(monkeypatch, bands_single, name) for name in ("_optimized_gamma", "_simulated_gamma")]
    multi = [counting(monkeypatch, bands_multi, name) for name in ("_optimized_gamma", "_simulated_gamma")]
    grid, chains = default_grid(30, k_max=8), default_grid(20, 80, k_max=6)
    for _ in range(2):
        calibrate(30, 1, grid, 0.1)
        gamma_optimize(30, grid, 0.1)
        gamma_optimize_multi(20, 2, default_grid(20, 40, k_max=6), 0.1)
        gamma_simulate(30, grid, 0.1, m=200)
        gamma_simulate_multi(20, 4, chains, 0.1, m=200)
    # the calibration's search ran once, every direct call each time
    assert [len(calls) for calls in single + multi] == [3, 2, 2, 2]


def test_a_stored_grid_is_read_on_every_call(tmp_path):
    path = tmp_path / "grid.json"
    grid = default_grid(50, k_max=10)
    for gamma in (0.0031, 0.0042):
        save_grid(GammaGrid((GridEntry(50, 1, 10, 0.05, gamma, 0.95, "optimization"),)), path)
        assert calibrate(50, 1, grid, 0.05, cache=path).gamma == gamma


def test_a_memo_hit_logs_one_debug_record(caplog):
    grid = default_grid(30, k_max=8)

    def hits():
        return [r for r in caplog.records if "calibration memo" in r.getMessage()]

    with caplog.at_level(logging.DEBUG, logger="ecdf_bands"):
        first = calibrate(30, 1, grid, 0.1)
        assert hits() == []
        assert calibrate(30, 1, grid, 0.1) == first
    (record,) = hits()
    assert (record.name, record.levelno) == ("ecdf_bands", logging.DEBUG)
    assert "n=30, 1 chains, K=8, alpha=0.1 by optimize" in record.getMessage()
    # the record is all a hit adds: no meta key says where the gamma came from
    assert calibrate(30, 1, grid, 0.1).meta == gamma_optimize(30, grid, 0.1).meta
