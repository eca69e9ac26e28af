"""Distortion families, classical statistics, and rejection sweeps.

The statistic implementations are pinned to hand-computed values on a
three-point sample (exact fractions), and the sweep machinery is
checked for determinism, null size, and basic power ordering.  The
shared sort, the folded B/C transform, the shared null pass and the
row-blocked sweep are checked bit for bit against the per-statistic,
masked and whole-chunk routes in ``oracles``.
"""

import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    ROW_STATS,
    masked_transform,
    sweep_rates_whole_chunks,
)
from oracles import critical_value as oracle_critical_value

from ecdf_bands import bands_multi, bands_single, gamma_cache, power
from ecdf_bands.gamma_cache import calibrate
from ecdf_bands.power import (
    FAMILIES,
    STAT_TESTS,
    PowerCurve,
    Transformation,
    _row_statistics,
    apply_transform,
    critical_value,
    power_sweep,
)
from ecdf_bands.transform import default_grid


def stat(name, u):
    """One sample's statistic, read from the batch row statistics that
    ``critical_value`` and ``power_sweep`` use."""
    return float(_row_statistics(np.asarray(u, dtype=float)[None, :], [name])[name][0])


def assert_bits_equal(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


EDGES = (0.0, 0.5, float(np.nextafter(0.5, 0.0)), float(np.nextafter(0.5, 1.0)), 1.0)

unit_values = st.one_of(st.floats(0.0, 1.0), st.sampled_from(EDGES))

strengths = st.one_of(st.floats(0.1, 5.0), st.sampled_from((0.1, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0)))
"""Any strength in [0.1, 5], and the ones numpy's ``**`` takes apart
(0.5 a square root, 1 a copy, 2 a square)."""


@st.composite
def sample_rows(draw):
    """(B, n) draws, many of them tied: each row picks from a small pool."""
    n = draw(st.integers(1, 40))
    b = draw(st.integers(1, 4))
    pool = draw(st.lists(unit_values, min_size=1, max_size=8))
    cells = draw(st.lists(st.sampled_from(pool) | unit_values, min_size=b * n, max_size=b * n))
    return np.array(cells, dtype=float).reshape(b, n)


# ---------------------------------------------------------------------------
# transformations


def test_identity_strength_for_every_family():
    x = np.linspace(0.0, 1.0, 21)
    for fam in FAMILIES:
        out = apply_transform(x, Transformation(fam, 1.0))
        np.testing.assert_allclose(out, x, atol=1e-15)


def test_family_a_hand_values():
    t = Transformation("A", 2.0)
    assert apply_transform(0.5, t) == pytest.approx(0.75)
    assert apply_transform(0.0, t) == 0.0
    assert apply_transform(1.0, t) == 1.0
    # k < 1 tilts the other way
    weak = Transformation("A", 0.5)
    assert apply_transform(0.5, weak) == pytest.approx(1.0 - 0.5**0.5)


def test_family_b_hand_values():
    t = Transformation("B", 2.0)
    assert apply_transform(0.25, t) == pytest.approx(0.125)
    assert apply_transform(0.75, t) == pytest.approx(0.875)
    assert apply_transform(0.5, t) == pytest.approx(0.5)
    assert apply_transform(0.0, t) == 0.0
    assert apply_transform(1.0, t) == 1.0


def test_family_c_hand_values():
    t = Transformation("C", 2.0)
    assert apply_transform(0.25, t) == pytest.approx(0.375)
    assert apply_transform(0.9, t) == pytest.approx(0.82)
    assert apply_transform(0.5, t) == pytest.approx(0.5)
    assert apply_transform(0.0, t) == 0.0
    assert apply_transform(1.0, t) == 1.0


def test_transforms_are_monotone_bijections():
    x = np.linspace(0.0, 1.0, 201)
    for fam in FAMILIES:
        for k in (0.3, 1.7, 4.0):
            y = apply_transform(x, Transformation(fam, k))
            assert y[0] == 0.0 and y[-1] == pytest.approx(1.0)
            assert np.all(np.diff(y) > -1e-14)
            assert np.all((y >= 0.0) & (y <= 1.0))


@settings(max_examples=200, deadline=None)
@given(x=st.lists(unit_values, min_size=1, max_size=30), fam=st.sampled_from(FAMILIES), k=strengths)
def test_transform_matches_the_masked_halves_bit_for_bit(x, fam, k):
    t = Transformation(fam, k)
    xa = np.array(x)
    assert_bits_equal(apply_transform(xa, t), masked_transform(xa, fam, k))
    row = xa.reshape(1, -1)
    assert_bits_equal(apply_transform(row, t), masked_transform(row, fam, k))
    # a column slice, as the multi-chain sweep distorts its first chain
    wide = np.column_stack([xa, xa[::-1]])
    assert_bits_equal(apply_transform(wide[:, :1], t), masked_transform(wide[:, :1], fam, k))
    got, want = apply_transform(x[0], t), masked_transform(x[0], fam, k)
    assert isinstance(got, float)
    assert_bits_equal(got, want)


def test_transform_validation():
    with pytest.raises(ValueError):
        Transformation("D", 1.0)
    with pytest.raises(ValueError):
        Transformation("A", 0.0)
    with pytest.raises(ValueError, match="finite"):
        Transformation("A", np.inf)
    with pytest.raises(ValueError):
        apply_transform([1.5], Transformation("A", 1.0))
    with pytest.raises(ValueError):
        apply_transform([0.2, np.nan], Transformation("B", 2.0))
    assert isinstance(apply_transform(0.3, Transformation("A", 2.0)), float)


# ---------------------------------------------------------------------------
# classical statistics


def test_statistics_on_three_point_sample():
    u = [0.1, 0.5, 0.9]
    assert stat("T1", u) == pytest.approx(0.1, rel=1e-12)
    assert stat("W2", u) == pytest.approx(11.0 / 300.0, rel=1e-12)
    # the sample mean is exactly one half, so the rotation correction
    # vanishes and U2 equals W2
    assert stat("U2", u) == pytest.approx(11.0 / 300.0, rel=1e-12)
    assert stat("KS", u) == pytest.approx(7.0 / 30.0, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(u=sample_rows(), picks=st.lists(st.sampled_from(STAT_TESTS), min_size=1, max_size=4))
def test_shared_sort_statistics_match_their_own_sorts_bit_for_bit(u, picks):
    values = _row_statistics(u, picks)
    assert list(values) == list(dict.fromkeys(picks))
    for name, got in values.items():
        assert_bits_equal(got, ROW_STATS[name](u))


def test_u2_reads_the_w2_computed_for_w2():
    rng = np.random.default_rng(4)
    u = rng.random((300, 57))
    calls = []
    real = power._w2

    def counted(*args):
        calls.append(1)
        return real(*args)

    with mock.patch.object(power, "_w2", counted), mock.patch.dict(power._STATS, W2=counted):
        got = power._row_statistics(u, ["U2", "T1", "W2"])
    assert len(calls) == 1
    assert list(got) == ["U2", "T1", "W2"]
    srt = np.sort(u, axis=-1)
    # the two-call route: U2 from its own W2
    two_calls = real(srt, u) - u.shape[1] * (u.mean(axis=-1) - 0.5) ** 2
    assert got["U2"].tobytes() == two_calls.tobytes() == ROW_STATS["U2"](u).tobytes()
    assert got["W2"].tobytes() == ROW_STATS["W2"](u).tobytes()


def test_statistics_are_order_invariant():
    rng = np.random.default_rng(2)
    u = rng.random(31)
    shuffled = rng.permutation(u)
    for name in ("T1", "W2", "U2", "KS"):
        assert stat(name, u) == pytest.approx(stat(name, shuffled), rel=1e-12)


def test_u2_is_rotation_invariant():
    rng = np.random.default_rng(8)
    u = rng.random(50)
    for c in (0.1, 0.37, 0.8):
        rotated = np.mod(u + c, 1.0)
        assert stat("U2", rotated) == pytest.approx(stat("U2", u), abs=1e-9)
    # W2 itself is not rotation invariant, which is the point of U2
    assert abs(stat("W2", np.mod(u + 0.37, 1.0)) - stat("W2", u)) > 1e-4


def test_critical_value_determinism_and_null_size():
    cv1 = critical_value("KS", 60, 0.1, m=2000, seed=5)
    cv2 = critical_value("KS", 60, 0.1, m=2000, seed=5)
    assert cv1 == cv2
    rng = np.random.default_rng(99)
    fresh = np.array([stat("KS", rng.random(60)) for _ in range(2000)])
    rate = float(np.mean(fresh > cv1))
    assert rate == pytest.approx(0.1, abs=0.035)


def test_shared_null_pass_gives_each_statistic_its_own_critical_value():
    # 2500 null samples: one full chunk and a part, each cut into row blocks
    want = {t: oracle_critical_value(t, 37, 0.1, 2500, 6) for t in STAT_TESTS}
    for threads in (1, 2):
        power._critical_slot.cache_clear()
        assert power._critical_values(STAT_TESTS, 37, 0.1, 2500, 6, threads) == want
    for t in STAT_TESTS:
        assert critical_value(t, 37, 0.1, m=2500, seed=6) == want[t]


def test_sweep_critical_values_are_computed_once_per_key(monkeypatch, caplog):
    calls = []
    simulated = power._simulated_critical_values

    def spy(*args):
        calls.append(args)
        return simulated(*args)

    monkeypatch.setattr(power, "_simulated_critical_values", spy)
    with caplog.at_level(logging.DEBUG, logger="ecdf_bands"):
        first = power._critical_values(["T1", "W2"], 30, 0.1, 1000, 4, 2)
        again = power._critical_values(["T1", "W2"], 30, 0.1, 1000, 4, 1)
    assert again == first and again is not first
    assert [args[-1] for args in calls] == [2]
    (hit,) = [r for r in caplog.records if "calibration memo" in r.getMessage()]
    assert hit.levelno == logging.DEBUG
    assert "critical values of T1,W2 for n=30, alpha=0.1" in hit.getMessage()
    # a caller's change to the dict it got does not reach the next caller
    again["T1"] = -1.0
    assert power._critical_values(("T1", "W2"), 30, 0.1, 1000, 4) == first
    # the statistics, n, alpha, m and seed are all part of the key
    for key in [(["W2", "T1"], 30, 0.1, 1000, 4), (["T1", "W2"], 31, 0.1, 1000, 4),
                (["T1", "W2"], 30, 0.05, 1000, 4), (["T1", "W2"], 30, 0.1, 1100, 4),
                (["T1", "W2"], 30, 0.1, 1000, 5)]:
        power._critical_values(*key)
    assert len(calls) == 6
    # errors are raised every time, the public function always computes
    for _ in range(2):
        with pytest.raises(ValueError, match="at least 1000"):
            power._critical_values(["KS"], 30, 0.1, 999, 4)
        critical_value("T1", 30, 0.1, m=1000, seed=4)
    assert len(calls) == 10
    power._critical_slot.cache_clear()
    assert power._critical_values(["T1", "W2"], 30, 0.1, 1000, 4) == first
    assert len(calls) == 11


def test_critical_value_validation():
    with pytest.raises(ValueError):
        critical_value("XX", 60, 0.1)
    with pytest.raises(ValueError):
        critical_value("KS", 60, 0.1, m=500)
    with pytest.raises(ValueError):
        critical_value("KS", 0, 0.1)


# ---------------------------------------------------------------------------
# sweeps


def test_power_sweep_single_chain_size_and_power():
    curve = power_sweep(
        ["bands", "T1"], "A", [1.0, 3.0], 60, replicates=2000, seed=1
    )
    assert curve.ks == (1.0, 3.0)
    assert set(curve.rates) == {"bands", "T1"}
    assert "gamma" in curve.meta and "cv_T1" in curve.meta
    for name in ("bands", "T1"):
        size, power = curve.rates[name]
        assert size == pytest.approx(0.05, abs=0.04)
        assert power > size + 0.2


def _distorted_cdf(family: str, k: float, z: np.ndarray) -> np.ndarray:
    """Pr(T(u) <= z) for a uniform u and the family's distortion T of
    strength k, in closed form."""
    scale = 2.0 ** (k - 1.0)
    if family == "A":
        return 1.0 - (1.0 - z) ** (1.0 / k)
    if family == "B":
        return np.where(
            z <= 0.5, (z / scale) ** (1.0 / k), 1.0 - ((1.0 - z) / scale) ** (1.0 / k)
        )
    return 0.5 + np.sign(z - 0.5) * (np.abs(z - 0.5) / scale) ** (1.0 / k)


@pytest.mark.parametrize("family, ks", [("A", (1.1, 1.5)), ("B", (0.7, 1.5)), ("C", (0.7, 1.5))])
def test_one_sample_band_power_matches_the_exact_rate(family, ks):
    # Under a distortion the counts at the grid points follow the same
    # binomial forward pass with Pr(u <= z_i) = G_k(z_i), so the exact
    # rejection rate is one minus that pass's mass inside the bands.
    from ecdf_bands import _forward, bands_single
    from ecdf_bands.transform import default_grid

    n, replicates = 100, 10_000
    grid = default_grid(n)
    assert grid.size == 100
    bands = bands_single.bands_from_gamma(n, grid, bands_single.gamma_optimize(n, grid, 0.05))
    curve = power_sweep(["bands"], family, (1.0,) + ks, n, replicates=replicates, seed=3)
    assert curve.meta["gamma"] == bands.gamma
    x = np.linspace(0.0, 1.0, 41)
    for k, rate in zip(curve.ks, curve.rates["bands"]):
        cdf = np.clip(_distorted_cdf(family, k, grid.points), 0.0, 1.0)
        cdf[-1] = 1.0
        np.testing.assert_allclose(
            _distorted_cdf(family, k, apply_transform(x, Transformation(family, k))), x, atol=1e-12
        )
        factors = bands_single._single_factors(
            n, tuple(cdf.tolist()), bands.lower_counts, bands.upper_counts
        )
        exact = 1.0 - _forward.forward_mass(*factors)
        if family == "A" and k == 1.5:
            assert exact == pytest.approx(0.9331, abs=5e-5)
        if k == 1.0:
            assert exact == pytest.approx(1.0 - bands_single.coverage_probability(n, grid, bands.gamma))
        half_width = 2.576 * np.sqrt(exact * (1.0 - exact) / replicates) + 1.0 / replicates
        assert abs(rate - exact) <= half_width, (family, k, rate, exact)


def test_power_sweep_is_seed_deterministic():
    a = power_sweep(["W2"], "B", [2.0], 40, replicates=1000, seed=7)
    b = power_sweep(["W2"], "B", [2.0], 40, replicates=1000, seed=7)
    assert a.rates == b.rates
    c = power_sweep(["W2"], "B", [2.0], 40, replicates=1000, seed=8)
    assert a.rates != c.rates


def test_power_sweep_threads_do_not_change_results(monkeypatch):
    threads_seen = []
    null_threads_seen = []
    critical_values = power._critical_values

    def spy(*args, **kwargs):
        threads_seen.append(kwargs["threads"])
        return calibrate(*args, **kwargs)

    def null_spy(*args):
        null_threads_seen.append(args[-1])
        return critical_values(*args)

    monkeypatch.setattr(power, "calibrate", spy)
    monkeypatch.setattr(power, "_critical_values", null_spy)
    # one sample with the band test and every statistic, then the
    # 4-chain band test; the calibration and the shared critical-value
    # pass are handed the sweep's threads
    for tests, family, n, l in [(["bands", *STAT_TESTS], "C", 30, 1), (["bands"], "A", 40, 4)]:
        runs = []
        for t in (1, 3):
            # each thread count calibrates and simulates afresh
            gamma_cache._calibration_slot.cache_clear()
            power._critical_slot.cache_clear()
            runs.append(power_sweep(tests, family, [1.5], n, replicates=1000, seed=4, n_chains=l, threads=t))
        assert runs[0].rates == runs[1].rates
        assert runs[0].meta == runs[1].meta
    assert threads_seen == [1, 3, 1, 3]
    assert null_threads_seen == [1, 3]


ONE_COLUMN_PINS = {
    "A": {
        "T1": (1.0, 0.4749, 0.0475, 0.4764, 0.9999),
        "W2": (1.0, 0.4696, 0.0473, 0.4545, 0.9999),
        "U2": (0.9964, 0.2373, 0.046, 0.2352, 0.9896),
        "KS": (1.0, 0.4074, 0.0474, 0.402, 0.9997),
    },
    "B": {
        "T1": (0.9836, 0.063, 0.0475, 0.1454, 0.9819),
        "W2": (0.9863, 0.0808, 0.0473, 0.133, 0.9674),
        "U2": (1.0, 0.3589, 0.046, 0.3634, 0.9998),
        "KS": (0.9351, 0.0992, 0.0474, 0.1425, 0.9265),
    },
    "C": {
        "T1": (0.9923, 0.1108, 0.0475, 0.0581, 0.9445),
        "W2": (0.9878, 0.1257, 0.0473, 0.0893, 0.9635),
        "U2": (1.0, 0.3656, 0.046, 0.3571, 0.9997),
        "KS": (0.9586, 0.1783, 0.0474, 0.1389, 0.9341),
    },
}


@pytest.mark.parametrize("family", FAMILIES)
def test_power_sweep_one_column_seeded_values_are_pinned(family):
    # recorded with each statistic sorting on its own, the masked
    # transform and whole chunks
    curve = power_sweep(list(STAT_TESTS), family, [0.5, 0.8, 1.0, 1.25, 2.0], 100)
    assert curve.rates == ONE_COLUMN_PINS[family]
    assert curve.meta == {
        "cv_T1": 0.05871245063316409,
        "cv_W2": 0.4704981226167926,
        "cv_U2": 0.18954922507565855,
        "cv_KS": 0.1347544777578646,
    }


@pytest.mark.parametrize(
    "family, n, chains, tests",
    [
        ("B", 40, 1, ["bands", "U2", "T1"]),
        ("C", 40, 4, ["bands"]),
        ("A", 33, 1, ["KS", "bands"]),
        ("B", 30, 2, ["bands"]),
        ("A", 20, 3, ["bands"]),
    ],
)
def test_row_blocked_sweep_matches_whole_chunks(family, n, chains, tests):
    # 2345 replicates: a full chunk of 2000 and one of 345, neither a
    # multiple of the row block.  The oracle compares each chain's counts
    # with the bands; the program reads several chains' tail levels.
    replicates, seed, ks = 2345, 5, [0.6, 1.0, 1.7]
    assert replicates % 2000 % bands_single._block_rows(chains * n)
    assert 2000 % bands_single._block_rows(chains * n)
    curve = power_sweep(
        tests, family, ks, n, replicates=replicates, seed=seed, n_chains=chains, m_calibration=1000
    )
    grid = default_grid(n, chains * n if chains > 1 else None)
    if chains == 1:
        bands = bands_single.bands_from_gamma(n, grid, curve.meta["gamma"])
    else:
        bands = bands_multi.bands_from_gamma_multi(n, chains, grid, curve.meta["gamma"])
    cvs = {t: oracle_critical_value(t, n, 0.05, 1000, seed + 1) for t in tests if t != "bands"}
    assert {t: curve.meta[f"cv_{t}"] for t in cvs} == cvs
    want = sweep_rates_whole_chunks(family, ks, n, chains, replicates, seed, cvs, bands)
    assert curve.rates == want


def test_power_sweep_four_chains_seeded_values_are_pinned():
    curve = power_sweep(["bands"], "A", [1.0, 1.5], 40, n_chains=4)
    assert curve.rates["bands"] == (0.0474, 0.2927)
    # read off the chain table summed from each tail; the table summed
    # from the left only gave 0.0017331094147649527
    assert curve.meta["gamma"] == 0.0017331094147646914


def test_power_sweep_multi_chain_transforms_one_chain():
    curve = power_sweep(
        ["bands"],
        "A",
        [1.0, 4.0],
        20,
        replicates=1000,
        seed=3,
        n_chains=2,
        m_calibration=1000,
    )
    assert curve.n_chains == 2
    size, power = curve.rates["bands"]
    assert size <= 0.12
    assert power > size


def test_power_sweep_validation():
    with pytest.raises(ValueError):
        power_sweep(["bands"], "Z", [1.0], 50, replicates=1000)
    with pytest.raises(ValueError):
        power_sweep(["bands"], "A", [], 50, replicates=1000)
    with pytest.raises(ValueError):
        power_sweep(["bands"], "A", [-1.0], 50, replicates=1000)
    with pytest.raises(ValueError):
        power_sweep(["bands"], "A", [1.0], 50, replicates=10)
    with pytest.raises(ValueError):
        power_sweep(["T1"], "A", [1.0], 50, replicates=1000, n_chains=2)
    with pytest.raises(ValueError):
        power_sweep(["nope"], "A", [1.0], 50, replicates=1000)
    for empty in ([], ()):
        with pytest.raises(ValueError, match="at least one test"):
            power_sweep(empty, "A", [1.0], 50, replicates=1000)


def test_power_curve_validation():
    with pytest.raises(ValueError):
        PowerCurve("A", 50, (1.0, 2.0), {"bands": (0.05,)}, 1000, 0)
    with pytest.raises(ValueError):
        PowerCurve("A", 50, (1.0,), {"bands": (1.5,)}, 1000, 0)
