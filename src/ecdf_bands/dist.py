"""Numerically robust kernels for the binomial and hypergeometric
distributions.

Probability mass is evaluated in log space through a shared, cached
log-factorial table; cumulative sums are accumulated in linear space.
The binomial CDF goes through the regularized incomplete beta function,
which sums the smaller tail internally and stays accurate far out in
either tail.  The band code builds its binomial tables for all grid
points at once (``bands_single._cdf_matrix``); the per-row table here
serves ``binom_quantile``.

``binom_quantile`` follows the convention ``smallest k in the support
with CDF(k) >= q``.  ``q = 0`` maps to the bottom of the support, so a
zero tail level always yields the full support as an interval.
"""

from __future__ import annotations

import threading
from functools import lru_cache

import numpy as np
from scipy.special import betainc, gammaln

__all__ = [
    "binom_cdf_table",
    "binom_quantile",
    "hyper_cdf_table",
    "hyper_logpmf",
    "hyper_sf_table",
    "hyper_support",
    "log_choose",
    "log_factorial_table",
]

_table_lock = threading.Lock()
_log_factorial = gammaln(np.arange(2, dtype=np.float64) + 1.0)
_log_factorial.setflags(write=False)


def log_factorial_table(n: int) -> np.ndarray:
    """Read-only array ``t`` with ``t[k] = log(k!)`` for ``k = 0..n``.

    The table is cached at module level and grown geometrically, sized to
    the largest population seen so far.
    """
    if n < 0:
        raise ValueError("table size must be nonnegative")
    global _log_factorial
    table = _log_factorial
    if n < table.shape[0]:
        return table
    with _table_lock:
        table = _log_factorial
        if n >= table.shape[0]:
            size = max(n + 1, 2 * table.shape[0])
            table = gammaln(np.arange(size, dtype=np.float64) + 1.0)
            table.setflags(write=False)
            _log_factorial = table
    return table


def log_choose(n, k) -> np.ndarray:
    """Elementwise ``log C(n, k)``; ``-inf`` outside ``0 <= k <= n``."""
    n = np.asarray(n, dtype=np.int64)
    k = np.asarray(k, dtype=np.int64)
    table = log_factorial_table(int(n.max(initial=0)))
    valid = (n >= 0) & (k >= 0) & (k <= n)
    nn = np.where(valid, n, 0)
    kk = np.where(valid, k, 0)
    out = table[nn] - table[kk] - table[nn - kk]
    return np.where(valid, out, -np.inf)


def _check_prob(value: float, name: str) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def _check_count(value: int, name: str) -> int:
    if int(value) != value or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# binomial


@lru_cache(maxsize=4096)
def binom_cdf_table(n: int, p: float) -> np.ndarray:
    """Read-only array ``c`` with ``c[k] = Pr(X <= k)`` for
    ``X ~ Binomial(n, p)``, k = 0..n."""
    n = _check_count(n, "n")
    p = _check_prob(p, "p")
    if n == 0:
        out = np.ones(1)
    else:
        k = np.arange(n, dtype=np.float64)
        cdf = betainc(n - k, k + 1.0, 1.0 - p)
        # enforce monotonicity against last-ulp wobble so that quantile
        # searches see a sorted table
        cdf = np.maximum.accumulate(np.clip(cdf, 0.0, 1.0))
        out = np.append(cdf, 1.0)
    out.setflags(write=False)
    return out


def binom_quantile(q: float, n: int, p: float) -> int:
    """Smallest ``k`` in ``{0, ..., n}`` with ``Pr(X <= k) >= q``.

    ``q = 0`` returns 0, the bottom of the support.
    """
    q = _check_prob(q, "q")
    n = _check_count(n, "n")
    p = _check_prob(p, "p")
    if q <= 0.0:
        return 0
    table = binom_cdf_table(n, p)
    return int(np.searchsorted(table, q, side="left"))


# ---------------------------------------------------------------------------
# hypergeometric


def _check_hyper(succ: int, fail: int, draws: int) -> tuple[int, int, int]:
    succ = _check_count(succ, "successes")
    fail = _check_count(fail, "failures")
    draws = _check_count(draws, "draws")
    if draws > succ + fail:
        raise ValueError("draws exceed the population size")
    return succ, fail, draws


def hyper_support(succ: int, fail: int, draws: int) -> tuple[int, int]:
    """Inclusive support bounds ``(max(0, draws - fail), min(succ, draws))``."""
    succ, fail, draws = _check_hyper(succ, fail, draws)
    return max(0, draws - fail), min(succ, draws)


def hyper_logpmf(k, succ: int, fail: int, draws: int) -> np.ndarray:
    """Elementwise log mass of Hypergeometric(succ, fail, draws) at k."""
    succ, fail, draws = _check_hyper(succ, fail, draws)
    k = np.asarray(k, dtype=np.int64)
    return (
        log_choose(succ, k)
        + log_choose(fail, draws - k)
        - log_choose(succ + fail, draws)
    )


@lru_cache(maxsize=8192)
def _hyper_tables(succ: int, fail: int, draws: int):
    lo, hi = max(0, draws - fail), min(succ, draws)
    k = np.arange(lo, hi + 1, dtype=np.int64)
    pmf = np.exp(np.asarray(hyper_logpmf(k, succ, fail, draws)))
    cdf = np.minimum(np.cumsum(pmf), 1.0)
    cdf[-1] = 1.0
    sf = np.minimum(np.cumsum(pmf[::-1])[::-1], 1.0)
    sf[0] = 1.0
    for arr in (pmf, cdf, sf):
        arr.setflags(write=False)
    return lo, hi, pmf, cdf, sf


def hyper_cdf_table(succ: int, fail: int, draws: int) -> np.ndarray:
    """Read-only CDF over the support, indexed from ``hyper_support(...)[0]``."""
    succ, fail, draws = _check_hyper(succ, fail, draws)
    return _hyper_tables(succ, fail, draws)[3]


def hyper_sf_table(succ: int, fail: int, draws: int) -> np.ndarray:
    """Read-only array of ``Pr(X >= k)`` over the support."""
    succ, fail, draws = _check_hyper(succ, fail, draws)
    return _hyper_tables(succ, fail, draws)[4]
