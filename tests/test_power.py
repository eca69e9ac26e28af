"""Distortion families, classical statistics, and rejection sweeps.

The statistic implementations are pinned to hand-computed values on a
three-point sample (exact fractions), and the sweep machinery is
checked for determinism, null size, and basic power ordering.
"""

import numpy as np
import pytest

from ecdf_bands import power
from ecdf_bands.gamma_cache import calibrate
from ecdf_bands.power import (
    FAMILIES,
    _ROW_STATS,
    PowerCurve,
    Transformation,
    apply_transform,
    critical_value,
    power_sweep,
)


def stat(name, u):
    """One sample's statistic, read from the batch row statistics that
    ``critical_value`` and ``power_sweep`` use."""
    return float(_ROW_STATS[name](np.asarray(u, dtype=float)[None, :])[0])


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


def test_transform_validation():
    with pytest.raises(ValueError):
        Transformation("D", 1.0)
    with pytest.raises(ValueError):
        Transformation("A", 0.0)
    with pytest.raises(ValueError):
        apply_transform([1.5], Transformation("A", 1.0))
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

    def spy(*args, **kwargs):
        threads_seen.append(kwargs["threads"])
        return calibrate(*args, **kwargs)

    monkeypatch.setattr(power, "calibrate", spy)
    # one-sample KS, then the 4-chain band test, whose calibration is
    # handed the sweep's threads
    for test, family, n, chains in [("KS", "C", 30, 1), ("bands", "A", 40, 4)]:
        runs = [
            power_sweep([test], family, [1.5], n, replicates=1000, seed=4, n_chains=chains, threads=t)
            for t in (1, 3)
        ]
        assert runs[0].rates == runs[1].rates
        assert runs[0].meta == runs[1].meta
    assert threads_seen == [1, 3]


def test_power_sweep_four_chains_seeded_values_are_pinned():
    curve = power_sweep(["bands"], "A", [1.0, 1.5], 40, n_chains=4)
    assert curve.rates["bands"] == (0.0474, 0.2927)
    assert curve.meta["gamma"] == 0.0017331094147649527


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


def test_power_curve_validation():
    with pytest.raises(ValueError):
        PowerCurve("A", 50, (1.0, 2.0), {"bands": (0.05,)}, 1000, 0)
    with pytest.raises(ValueError):
        PowerCurve("A", 50, (1.0,), {"bands": (1.5,)}, 1000, 0)
