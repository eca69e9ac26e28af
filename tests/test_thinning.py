"""AR(1) generation, effective sample sizes, and thinning plans."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from ecdf_bands.thinning import (
    _QUANTILES,
    STRATEGIES,
    EssReport,
    ThinningPlan,
    _average_ranks,
    _rank_normalize,
    ar1_simulate,
    ess_report,
    thin,
    thinning_factor,
)
from ecdf_bands.transform import ChainSet


def _made_report(mean=100.0, bulk=50.0, tail=25.0, qmin=20.0, n_total=1000):
    quantiles = tuple([qmin] + [qmin + 5.0 + i for i in range(18)])
    return EssReport(mean, bulk, tail, quantiles, n_total)


# ---------------------------------------------------------------------------
# lag-sum oracle: per-lag autocovariances summed directly, then Geyer's
# initial-positive and monotone truncation

_LAG_BLOCK = 64


def _ess_core(x: np.ndarray, tie: float = 0.0) -> float:
    """ESS of the mean of possibly autocorrelated equal-length chains.

    ``tie`` is added to each pair sum before it is tested against zero,
    so a small positive or negative value resolves a pair sum that is
    zero in exact arithmetic to one side or the other.
    """
    m, n = x.shape
    total = m * n
    if x.max() == x.min():
        return float(total)
    chain_means = x.mean(axis=1)
    xc = x - chain_means[:, None]
    mean_var = float((xc * xc).sum() / (m * (n - 1)))
    var_plus = mean_var * (n - 1) / n
    if m > 1:
        var_plus += float(np.var(chain_means, ddof=1))
    if var_plus <= 0.0:
        return float(total)
    cap = n // 2
    acov = np.full(cap + 2, np.nan)

    def rho(t: int) -> float:
        if t == 0:
            return 1.0
        if t > cap:
            return 0.0
        if np.isnan(acov[t]):
            for s in range(t, min(t + _LAG_BLOCK, cap) + 1):
                if np.isnan(acov[s]):
                    acov[s] = float((xc[:, : n - s] * xc[:, s:]).sum()) / total
        return 1.0 - (mean_var - acov[t]) / var_plus

    stored = np.zeros(cap + 2)
    stored[0] = 1.0
    stored[1] = rho(1)
    rho_even, rho_odd = stored[0], stored[1]
    t = 0
    while t < cap - 4 and rho_even + rho_odd + tie > 0.0:
        t += 2
        rho_even, rho_odd = rho(t), rho(t + 1)
        if rho_even + rho_odd + tie >= 0.0:
            stored[t] = rho_even
            stored[t + 1] = rho_odd
    max_t = t
    if rho_even > 0.0:
        stored[max_t] = rho_even
    t = 0
    while t <= max_t - 4:
        t += 2
        prev = stored[t - 2] + stored[t - 1]
        if stored[t] + stored[t + 1] > prev:
            stored[t] = prev / 2.0
            stored[t + 1] = prev / 2.0
    tau = -1.0 + 2.0 * float(stored[:max_t].sum()) + float(stored[max_t])
    tau = max(tau, 1.0 / math.log10(total))
    return total / tau


def _series(x: np.ndarray) -> list[np.ndarray]:
    """The draws, their rank-normalized version and the 19 quantile
    indicators, in ``EssReport`` order."""
    qs = np.quantile(x, _QUANTILES)
    return [x, _rank_normalize(x)] + [(x <= q).astype(np.float64) for q in qs]


def _report_values(rep: EssReport) -> list[float]:
    return [rep.ess_mean, rep.ess_bulk, *rep.ess_quantiles]


# ---------------------------------------------------------------------------
# AR(1) generator


def test_ar1_shapes_and_determinism():
    a = ar1_simulate(0.5, 200, chains=3, seed=42)
    b = ar1_simulate(0.5, 200, chains=3, seed=42)
    c = ar1_simulate(0.5, 200, chains=3, seed=43)
    assert isinstance(a, ChainSet)
    assert a.chains.shape == (3, 200)
    np.testing.assert_array_equal(a.chains, b.chains)
    assert not np.array_equal(a.chains, c.chains)


def test_ar1_marginals_and_lag_one_autocorrelation():
    phi = 0.6
    x = ar1_simulate(phi, 200_000, seed=0).chains[0]
    assert np.var(x) == pytest.approx(1.0, abs=0.02)
    assert np.mean(x) == pytest.approx(0.0, abs=0.02)
    r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert r1 == pytest.approx(phi, abs=0.01)


def test_ar1_negative_phi_alternates():
    x = ar1_simulate(-0.8, 100_000, seed=1).chains[0]
    r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert r1 == pytest.approx(-0.8, abs=0.01)


def test_ar1_shares_innovations_across_phi():
    # same seed must consume the generator identically, so the recovered
    # standardized innovations agree between runs at different phi
    def innovations(phi):
        x = ar1_simulate(phi, 500, seed=9).chains[0] / math.sqrt(1.0 - phi * phi)
        return x[1:] - phi * x[:-1]

    np.testing.assert_allclose(innovations(0.2), innovations(0.85), rtol=1e-9, atol=1e-9)


def test_ar1_validation():
    with pytest.raises(ValueError):
        ar1_simulate(1.0, 100)
    with pytest.raises(ValueError):
        ar1_simulate(-1.2, 100)
    with pytest.raises(ValueError):
        ar1_simulate(0.5, 0)
    with pytest.raises(ValueError):
        ar1_simulate(0.5, 10, chains=0)


# ---------------------------------------------------------------------------
# effective sample size


def test_ess_near_total_for_independent_draws():
    rng = np.random.default_rng(3)
    cs = ChainSet(rng.standard_normal((4, 2000)))
    rep = ess_report(cs)
    assert rep.n_total == 8000
    for value in (rep.ess_mean, rep.ess_bulk, rep.ess_tail):
        assert 0.5 * 8000 < value


def test_ess_shrinks_with_positive_autocorrelation():
    phi = 0.9
    cs = ar1_simulate(phi, 5000, chains=2, seed=6)
    rep = ess_report(cs)
    total = 10_000
    # the asymptotic mean-ESS ratio is (1 - phi) / (1 + phi) = 1/19
    assert total / 40 < rep.ess_mean < total / 8
    assert rep.ess_bulk < total / 5
    assert rep.ess_tail < total / 2
    assert len(rep.ess_quantiles) == 19


def test_ess_quantile_indicators_mirror_under_negation():
    cs = ar1_simulate(0.8, 3000, chains=2, seed=12)
    flipped = ChainSet(-cs.chains)
    a = ess_report(cs)
    b = ess_report(flipped)
    np.testing.assert_allclose(a.ess_quantiles, b.ess_quantiles[::-1], rtol=1e-9)
    assert a.ess_tail == pytest.approx(b.ess_tail, rel=1e-9)
    assert a.ess_bulk == pytest.approx(b.ess_bulk, rel=0.05)


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 4),
    n=st.one_of(st.integers(8, 12), st.integers(8, 400)),
    phi=st.floats(-0.95, 0.95),
    seed=st.integers(0, 2**16),
    lattice=st.sampled_from([None, 0.5, 1.5, "constant"]),
)
@example(m=3, n=9, phi=0.0, seed=0, lattice="constant")
@example(m=1, n=8, phi=0.9, seed=1, lattice=1.5)
@example(m=3, n=10, phi=-0.125, seed=1317, lattice=None)
def test_ess_report_matches_lag_sum_oracle(m, n, phi, seed, lattice):
    # rounding to a coarse lattice makes ties and constant indicators;
    # a constant chain set has var_plus 0, where every ESS is the total
    x = ar1_simulate(phi, n, chains=m, seed=seed).chains
    if lattice == "constant":
        x = np.full_like(x, 0.5)
    elif lattice is not None:
        x = np.round(x / lattice) * lattice
    rep = ess_report(ChainSet(x))
    # Indicator series are 0/1 lattices, so a pair sum can be exactly zero
    # (the last example: the 0.75 indicator's lags 2 and 3).  Whether such a
    # pair is truncated then rests on the last rounding bit, which the FFT
    # and the lag sum set differently, and the ESS may take either value.
    for got, series in zip(_report_values(rep), _series(x)):
        sides = [_ess_core(series, tie) for tie in (0.0, 1e-12, -1e-12)]
        assert any(got == pytest.approx(v, rel=1e-9) for v in sides), (got, sides)
    assert rep.ess_tail == min(rep.ess_quantiles[0], rep.ess_quantiles[-1])
    if lattice == "constant":
        assert _report_values(rep) == [float(m * n)] * 21


@settings(max_examples=300, deadline=None)
@given(
    size=st.integers(1, 5000),
    levels=st.sampled_from([None, 1, 2, 7, 100]),
    signed_zeros=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(size=1, levels=None, signed_zeros=False, seed=0)
@example(size=5000, levels=1, signed_zeros=False, seed=0)
@example(size=9, levels=1, signed_zeros=True, seed=0)
def test_average_ranks_match_rankdata_bit_for_bit(size, levels, signed_zeros, seed):
    # few levels make long tie runs, one level an all-equal series; with
    # signed zeros, 0.0 and -0.0 share one run
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(size)
    if levels is not None:
        x = rng.integers(0, levels, size) - levels // 2 + 0.0
    if signed_zeros:
        picks = rng.random(size) < 0.5
        x[picks] = np.where(rng.random(picks.sum()) < 0.5, 0.0, -0.0)
    got = _average_ranks(x)
    want = rankdata(x, method="average")
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_constant_chains_get_the_total_as_ess():
    # ten draws of 0.3 do not average to exactly 0.3, and the demeaning
    # residue used to pass for variance (ess_mean was 3.06)
    for x in (np.full((1, 10), 0.3), np.full((3, 17), -1.7)):
        rep = ess_report(x)
        assert _report_values(rep) == [float(x.size)] * 21
        assert rep.ess_tail == float(x.size)


def test_chunked_ess_batch_matches_one_batch(monkeypatch):
    from ecdf_bands import thinning

    x = ar1_simulate(0.8, 3000, chains=3, seed=4).chains
    whole = ess_report(x)
    # a budget of two series' draws splits the 21 series into 11 passes
    monkeypatch.setattr(thinning, "_ESS_BUDGET", 2 * x.size)
    chunked = ess_report(x)
    assert _report_values(chunked) == pytest.approx(_report_values(whole), rel=1e-12)
    assert chunked.ess_tail == pytest.approx(whole.ess_tail, rel=1e-12)


@pytest.mark.parametrize("per_chunk", [1, 3, 20])
def test_ess_report_chunks_of_any_size_match_one_batch(monkeypatch, per_chunk):
    from ecdf_bands import thinning

    x = ar1_simulate(0.6, 500, chains=2, seed=8).chains
    whole = ess_report(x)
    monkeypatch.setattr(thinning, "_ESS_BUDGET", per_chunk * x.size)
    chunked = ess_report(x)
    assert _report_values(chunked) == pytest.approx(_report_values(whole), rel=1e-12)


def test_ess_report_holds_one_chunk_of_series_at_a_time():
    import tracemalloc

    x = ar1_simulate(0.0, 100_000, chains=4, seed=0)
    stack_bytes = 21 * x.chains.nbytes  # every series at once: 67 MB
    tracemalloc.start()
    try:
        ess_report(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one chunk of 2 series and its FFT buffers peak near 38 MB; holding
    # all 21 series at once adds the whole stack to that
    assert peak < 0.75 * stack_bytes


def test_ess_report_pinned_values():
    rep = ess_report(ar1_simulate(0.7, 1000, chains=2, seed=0))
    assert rep.n_total == 2000
    assert rep.ess_mean == pytest.approx(365.6118307659951, rel=1e-12)
    assert rep.ess_bulk == pytest.approx(366.0300978840636, rel=1e-12)
    assert rep.ess_tail == pytest.approx(728.3524131576319, rel=1e-12)
    want = [
        851.0440003029394, 612.8836306718969, 586.1741147393427, 551.0620966150749,
        538.7872462960298, 544.6218318870508, 552.546927297477, 525.704831930668,
        536.8483067439308, 517.4060187219343, 534.6470157208441, 511.03530517726085,
        536.7742151555352, 540.0480577626648, 530.3686672067706, 531.716830448726,
        536.6023611343554, 647.5032537891575, 728.3524131576319,
    ]
    assert list(rep.ess_quantiles) == pytest.approx(want, rel=1e-12)


# BULK_TAIL_MIN factors of 2 chains of 1000 AR(1) draws, seeds 0-199, as
# criterion 09 thins them
_FACTORS_PHI_05 = [
    3, 3, 3, 4, 3, 3, 4, 4, 4, 3, 4, 4, 3, 3, 4, 3, 3, 5, 4, 4, 4, 4, 4, 3, 3, 3, 3, 3,
    4, 4, 4, 4, 3, 3, 4, 3, 3, 3, 3, 4, 3, 4, 4, 3, 4, 4, 3, 3, 4, 4, 4, 3, 4, 4, 4, 3,
    4, 3, 3, 4, 4, 3, 4, 3, 4, 3, 4, 4, 4, 3, 3, 3, 4, 3, 4, 3, 4, 4, 5, 3, 3, 4, 4, 4,
    4, 3, 4, 3, 3, 3, 4, 3, 4, 3, 4, 3, 4, 4, 4, 3, 3, 3, 4, 3, 3, 4, 3, 3, 3, 3, 3, 4,
    4, 4, 4, 3, 4, 3, 4, 4, 3, 3, 3, 4, 3, 3, 4, 4, 4, 3, 3, 3, 4, 3, 4, 4, 4, 3, 3, 5,
    3, 4, 4, 4, 4, 3, 5, 3, 3, 4, 3, 3, 3, 4, 3, 3, 3, 4, 3, 4, 3, 3, 4, 3, 3, 4, 4, 3,
    4, 3, 3, 3, 4, 4, 3, 3, 4, 4, 4, 4, 4, 4, 3, 4, 3, 3, 3, 4, 3, 3, 3, 3, 3, 3, 3, 4,
    3, 3, 4, 3
]

_FACTORS_PHI_09 = [
    24, 25, 15, 16, 17, 20, 23, 26, 18, 13, 18, 15, 13, 20, 28, 18, 22, 20, 21, 18, 19,
    36, 15, 17, 27, 21, 17, 16, 21, 19, 15, 18, 23, 16, 15, 15, 15, 26, 18, 16, 21, 17,
    19, 20, 21, 20, 19, 18, 33, 19, 25, 19, 18, 19, 22, 23, 19, 21, 21, 16, 26, 21, 24,
    18, 32, 17, 16, 17, 19, 13, 19, 16, 18, 17, 18, 14, 20, 18, 22, 20, 17, 23, 24, 23,
    23, 15, 20, 19, 14, 22, 23, 15, 18, 18, 16, 21, 19, 22, 39, 15, 21, 29, 20, 14, 17,
    16, 17, 24, 20, 18, 16, 19, 17, 26, 18, 16, 20, 16, 18, 13, 14, 17, 22, 18, 18, 25,
    20, 24, 21, 13, 26, 17, 26, 15, 21, 19, 17, 19, 17, 25, 20, 25, 18, 16, 16, 19, 23,
    17, 14, 25, 30, 17, 29, 16, 20, 24, 15, 21, 16, 23, 19, 21, 23, 14, 26, 31, 23, 41,
    42, 16, 25, 15, 20, 17, 15, 22, 22, 17, 30, 26, 15, 17, 15, 20, 20, 20, 20, 18, 24,
    17, 22, 21, 15, 28, 15, 13, 15, 24, 23, 20
]


@pytest.mark.parametrize("phi, want", [(0.5, _FACTORS_PHI_05), (0.9, _FACTORS_PHI_09)])
def test_bulk_tail_factors_pinned(phi, want):
    reports = [ess_report(ar1_simulate(phi, 1000, chains=2, seed=s)) for s in range(200)]
    got = [thinning_factor(rep, 2000, "BULK_TAIL_MIN").factor for rep in reports]
    assert got == want


def test_ess_report_requires_enough_draws():
    with pytest.raises(ValueError):
        ess_report(ChainSet(np.arange(6.0)))


def test_ess_report_field_validation():
    with pytest.raises(ValueError):
        EssReport(10.0, 10.0, 10.0, (10.0,) * 18, 100)  # wrong arity
    with pytest.raises(ValueError):
        EssReport(0.0, 10.0, 10.0, (10.0,) * 19, 100)  # nonpositive
    with pytest.raises(ValueError):
        EssReport(1e6, 10.0, 10.0, (10.0,) * 19, 100)  # above the cap


# ---------------------------------------------------------------------------
# thinning


def test_thinning_factor_strategy_selection():
    rep = _made_report()
    assert thinning_factor(rep, 1000, "MEAN_ESS").factor == 10
    assert thinning_factor(rep, 1000, "QUANTILE_19").factor == 50
    assert thinning_factor(rep, 1000, "BULK_TAIL_MIN").factor == 40
    with pytest.raises(ValueError):
        thinning_factor(rep, 1000, "NOPE")
    with pytest.raises(ValueError):
        thinning_factor(rep, 0, "MEAN_ESS")


def test_thinning_factor_rounds_up_and_floors_at_one():
    rep = _made_report(mean=999.0, n_total=1000)
    assert thinning_factor(rep, 1000, "MEAN_ESS").factor == 2
    rep_full = _made_report(mean=1000.0, n_total=1000)
    assert thinning_factor(rep_full, 1000, "MEAN_ESS").factor == 1


def test_strategies_respect_their_defining_minima():
    cs = ar1_simulate(0.95, 4000, chains=2, seed=2)
    rep = ess_report(cs)
    q = thinning_factor(rep, rep.n_total, "QUANTILE_19").factor
    bt = thinning_factor(rep, rep.n_total, "BULK_TAIL_MIN").factor
    tail_factor = math.ceil(rep.n_total / rep.ess_tail)
    # the 19-quantile minimum includes both tail indicators, and the
    # bulk/tail minimum includes the tail, so neither can thin less
    # than the tail alone demands
    assert q >= tail_factor
    assert bt >= tail_factor
    assert min(rep.ess_quantiles) <= rep.ess_tail


def test_thinning_plan_resulting_length_rounds_up():
    assert ThinningPlan("MEAN_ESS", 3, 10).resulting_length == 4
    assert ThinningPlan("MEAN_ESS", 1, 10).resulting_length == 10
    assert ThinningPlan("MEAN_ESS", 3, 9).resulting_length == 3
    with pytest.raises(ValueError):
        ThinningPlan("MEAN_ESS", 0, 10)
    with pytest.raises(ValueError):
        ThinningPlan("NOPE", 2, 10)


def test_thin_keeps_every_factor_th_draw():
    cs = ChainSet(np.arange(20.0).reshape(2, 10))
    out = thin(cs, 3)
    assert out.n_draws == 4
    np.testing.assert_array_equal(out.chains[0], [0.0, 3.0, 6.0, 9.0])
    np.testing.assert_array_equal(out.chains[1], [10.0, 13.0, 16.0, 19.0])
    same = thin(cs, 1)
    np.testing.assert_array_equal(same.chains, cs.chains)
    with pytest.raises(ValueError):
        thin(cs, 0)


def test_thinning_restores_ess_per_draw():
    cs = ar1_simulate(0.9, 20_000, chains=2, seed=5)
    before = ess_report(cs)
    plan = thinning_factor(before, before.n_total, "MEAN_ESS")
    assert plan.factor > 5
    thinned = thin(cs, plan.factor)
    after = ess_report(thinned)
    ratio_before = before.ess_mean / before.n_total
    ratio_after = after.ess_mean / after.n_total
    assert ratio_after > 3.0 * ratio_before
    assert STRATEGIES == ("MEAN_ESS", "QUANTILE_19", "BULK_TAIL_MIN")
