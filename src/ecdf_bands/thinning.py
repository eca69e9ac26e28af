"""Autocorrelation handling for rank-based uniformity checks.

Dependent draws bias extreme order statistics towards the center, which
inflates the rejection rate of the band tests.  This module provides a
stationary AR(1) generator for experiments, effective-sample-size
estimates (plain, rank-normalized bulk, tail-indicator, and 19-quantile
indicator variants), and thinning strategies that pick a keep-every-T
factor from them.

The ESS estimator follows the multi-chain autocovariance recipe with
Geyer's initial-monotone-sequence truncation: chains are demeaned
individually, per-lag autocovariances are averaged across chains, and
correlations are accumulated in consecutive pairs until a pair sum goes
nonpositive, with pair sums additionally forced nonincreasing.

All 21 series of a report (the draws, their rank-normalized version and
the 19 quantile indicators) are stacked and handled in batched passes of
at most ``_ESS_BUDGET`` draws: one zero-padded real FFT per chain, power
spectra summed over the chains of each series, and one inverse transform
per series give the summed autocovariances at every lag up to n/2.  The
truncation then runs on each series' correlation row exactly as it would
on per-lag sums.

``scipy.fft`` and ``scipy.special.ndtri`` are imported inside the two
functions that use them, so only ESS estimates load scipy: the other
CLI commands, which import this module through the package, do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .transform import ChainSet

__all__ = [
    "STRATEGIES",
    "EssReport",
    "ThinningPlan",
    "ar1_simulate",
    "ess_report",
    "thin",
    "thinning_factor",
]

STRATEGIES = ("MEAN_ESS", "QUANTILE_19", "BULK_TAIL_MIN")
_QUANTILES = tuple(np.round(np.arange(1, 20) * 0.05, 2))


@dataclass(frozen=True)
class EssReport:
    """Effective sample sizes of one set of chains.

    ``ess_mean`` targets the plain mean, ``ess_bulk`` the rank-normalized
    draws, ``ess_tail`` the harder of the 5% and 95% tail indicators, and
    ``ess_quantiles`` the indicators at the 19 quantiles 0.05, ..., 0.95.
    """

    ess_mean: float
    ess_bulk: float
    ess_tail: float
    ess_quantiles: tuple[float, ...]
    n_total: int

    def __post_init__(self):
        values = (self.ess_mean, self.ess_bulk, self.ess_tail, *self.ess_quantiles)
        if len(self.ess_quantiles) != 19:
            raise ValueError("expected 19 quantile ESS values")
        cap = self.n_total * max(1.0, math.log10(self.n_total))
        for v in values:
            if not 0.0 < v <= cap * (1.0 + 1e-9):
                raise ValueError("ESS values must be positive and below the cap")


@dataclass(frozen=True)
class ThinningPlan:
    strategy: str
    factor: int
    n_total: int

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if self.factor < 1:
            raise ValueError("thinning factor must be at least 1")


def ar1_simulate(phi: float, n: int, chains: int = 1, seed: int = 0) -> ChainSet:
    """Stationary AR(1) chains with standard normal marginals.

    x_t = phi * x_{t-1} + eps_t with x_0 drawn from the stationary
    distribution, then scaled so every margin has unit variance.  The
    filter is ``scipy.signal.lfilter``, imported on the first call, so
    only callers of this generator load ``scipy.signal``.
    """
    from scipy.signal import lfilter

    phi = float(phi)
    if not -1.0 < phi < 1.0:
        raise ValueError("phi must lie strictly inside (-1, 1)")
    if n < 1 or chains < 1:
        raise ValueError("n and chains must be positive")
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((chains, n))
    x0 = rng.standard_normal(chains) / math.sqrt(1.0 - phi * phi)
    out, _ = lfilter([1.0], [1.0, -phi], eps, axis=1, zi=(phi * x0)[:, None])
    return ChainSet(out * math.sqrt(1.0 - phi * phi))


_ESS_BUDGET = 1 << 20
"""Most draws one ``_ess_batch`` pass transforms at once.  ``ess_report``
builds and passes its series in chunks of this size (at least one
series), which keeps each FFT buffer near 16 MB."""


def _ess_batch(x: np.ndarray) -> np.ndarray:
    """ESS of the mean for each set of equal-length chains in an
    (S, m, n) stack, in one pass.

    A constant series has no variance to estimate, and its ESS is the
    number of draws; it is detected before demeaning, whose rounding
    residue would otherwise pass for variance.
    """
    from scipy.fft import irfft, next_fast_len, rfft

    s, m, n = x.shape
    total = m * n
    varies = x.max(axis=(1, 2)) > x.min(axis=(1, 2))
    chain_means = x.mean(axis=2)
    xc = x - chain_means[..., None]
    mean_var = (xc * xc).reshape(s, total).sum(axis=1) / (m * (n - 1))
    var_plus = mean_var * (n - 1) / n
    if m > 1:
        var_plus += np.var(chain_means, axis=1, ddof=1)
    cap = n // 2
    nfft = next_fast_len(2 * n, real=True)
    spec = rfft(xc, n=nfft, axis=2)
    power = (spec.real * spec.real + spec.imag * spec.imag).sum(axis=1)
    acov = irfft(power, n=nfft, axis=1)[:, : cap + 1] / total
    out = np.full(s, float(total))
    for i in np.flatnonzero(varies & (var_plus > 0.0)):
        rho = 1.0 - (mean_var[i] - acov[i]) / var_plus[i]
        out[i] = total / _geyer_tau(rho, total)
    return out


def _geyer_tau(rho: np.ndarray, total: int) -> float:
    """Integrated autocorrelation time from the correlations at lags
    0..cap (lag 0 counts as exactly 1), truncated at the first
    nonpositive pair sum, with pair sums forced nonincreasing."""
    cap = rho.size - 1
    stored = np.zeros(cap + 2)
    stored[0] = 1.0
    stored[1] = rho[1]
    rho_even, rho_odd = stored[0], stored[1]
    t = 0
    while t < cap - 4 and rho_even + rho_odd > 0.0:
        t += 2
        rho_even, rho_odd = rho[t], rho[t + 1]
        if rho_even + rho_odd >= 0.0:
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
    return max(tau, 1.0 / math.log10(total))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a flat array, ties given the mean of their run's
    ranks; the same values as ``scipy.stats.rankdata(method="average")``.

    Every member of a tie run gets the same rank, so the sort need not be
    stable.  A run over the sorted positions ``start..end - 1`` (0-based)
    has the mean rank (start + end + 1) / 2, exact in double precision.
    """
    order = np.argsort(values)
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], values.size)
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _rank_normalize(x: np.ndarray) -> np.ndarray:
    """Average ranks over the pooled draws (``_average_ranks``, numpy
    only) mapped through the normal quantile function, using the standard
    continuity offsets."""
    from scipy.special import ndtri

    ranks = _average_ranks(x.ravel())
    z = ndtri((ranks - 0.375) / (ranks.size + 0.25))
    return z.reshape(x.shape)


def ess_report(chains) -> EssReport:
    """All ESS variants used by the thinning strategies.

    The 21 series go through ``_ess_batch`` in chunks of at most
    ``_ESS_BUDGET`` draws (at least one series), and each chunk's series
    are built just before its pass, so one call holds one chunk at a time.
    """
    cs = chains if isinstance(chains, ChainSet) else ChainSet(chains)
    x = cs.chains
    if cs.n_draws < 8:
        raise ValueError("chains must have at least 8 draws")
    qs = np.quantile(x, _QUANTILES)
    count = 2 + len(_QUANTILES)
    step = max(1, _ESS_BUDGET // x.size)
    ess = np.empty(count)
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        series = np.empty((hi - lo,) + x.shape)
        if lo == 0:
            series[0] = x
        if lo <= 1 < hi:
            series[1 - lo] = _rank_normalize(x)
        if hi > 2:  # series 2.. are the quantile indicators
            first = max(lo, 2)
            np.less_equal(x, qs[first - 2 : hi - 2, None, None], out=series[first - lo :])
        ess[lo:hi] = _ess_batch(series)
    ess_q = tuple(float(v) for v in ess[2:])
    ess_tail = min(ess_q[0], ess_q[-1])
    return EssReport(float(ess[0]), float(ess[1]), ess_tail, ess_q, x.size)


def thinning_factor(report: EssReport, n_total: int, strategy: str = "BULK_TAIL_MIN") -> ThinningPlan:
    """Keep-every-T factor from an ESS report.

    MEAN_ESS thins by the plain-mean ESS; QUANTILE_19 by the smallest of
    the 19 quantile-indicator ESS values (the largest factor); and
    BULK_TAIL_MIN by the smaller of bulk and tail ESS.  The factor
    rounds up, since thinning too little leaves inflated rejection
    rates while thinning too much only loses draws.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")
    if n_total < 1:
        raise ValueError("n_total must be positive")
    if strategy == "MEAN_ESS":
        ess = report.ess_mean
    elif strategy == "QUANTILE_19":
        ess = min(report.ess_quantiles)
    else:
        ess = min(report.ess_bulk, report.ess_tail)
    factor = max(1, math.ceil(n_total / ess))
    return ThinningPlan(strategy, factor, n_total)


def thin(chains, factor: int) -> ChainSet:
    """Keep every factor-th draw per chain, starting from the first."""
    cs = chains if isinstance(chains, ChainSet) else ChainSet(chains)
    factor = int(factor)
    if factor < 1:
        raise ValueError("thinning factor must be at least 1")
    return ChainSet(cs.chains[:, ::factor])
