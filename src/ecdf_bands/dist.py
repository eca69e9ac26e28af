"""The log-factorial kernel under both count laws' tables.

``log_factorial_table`` keeps one cached, read-only table of ``log(k!)``
and ``log_choose`` reads binomial coefficients from it in log space.
The table is Cephes' ``lgam`` in numpy: ``log(k!)`` itself below 12,
then Stirling's formula with Cephes' minimax series for the remainder
(``_stirling_series``), with the same operations in the same order, so
it has the bits of ``scipy.special.gammaln(k + 1)`` on the same C
library's ``log``.

``binom_log_pmf`` is Loader's saddle-point form of the binomial log
mass ("Fast and accurate computation of binomial probabilities", 2000):
Stirling remainders (``stirlerr``: exact constants up to 15, the same
series above) and the deviance term ``_bd0``, a series where the count
is near its mean, keep it to about 1e-15 relative where the plain
difference of log-factorials loses digits at large n.

The count tables the bands and the simulators read are one CDF table
per law, a ``bands_single.CdfBlock`` of (K, W) cells and each row's
first count, both read off ``bands_single._cdf_rows``: each row's F,
from the mass summed from each tail in runs anchored on
``binom_log_pmf``, once for the binomial and as the ratio of three
binomial masses for the hypergeometric, which takes the sizes as an
array for that.  The forward passes read their log factors from the
log-factorial table.
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = ["binom_log_pmf", "log_choose", "log_factorial_table", "stirlerr"]

_LOG_SQRT_2PI = 0.91893853320467274178
"""log(sqrt(2 pi)), Cephes' ``LS2PI``."""

_STIRLING = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
"""Cephes' minimax coefficients of the Stirling remainder in 1/x**2."""

_STIRLERR_SMALL = np.array(
    [
        0.0,  # unused: k = 0 has its own mass formula
        0.08106146679532726,
        0.0413406959554093,
        0.02767792568499834,
        0.020790672103765093,
        0.016644691189821193,
        0.013876128823070748,
        0.01189670994589177,
        0.010411265261972096,
        0.009255462182712733,
        0.00833056343336287,
        0.007573675487951841,
        0.00694284010720953,
        0.006408994188004207,
        0.0059513701127588475,
        0.005554733551962801,
    ]
)
"""``stirlerr(k)`` for k = 1..15, each the double nearest the value
computed at 50 digits."""

_table_lock = threading.Lock()
_log_factorial = np.zeros(2)
_log_factorial.setflags(write=False)


def _stirling_series(x: np.ndarray, far: bool = True) -> np.ndarray:
    """``log Gamma(x) - (x - 1/2) log x + x - log sqrt(2 pi)`` for
    x >= 13 by Cephes' minimax polynomial in 1/x**2, with ``far`` its
    three terms of the series from x = 1000 on, as ``lgam`` switches.
    Either way the error is below 2e-18 at every x >= 13."""
    p = 1.0 / (x * x)
    near = _STIRLING[0]
    for c in _STIRLING[1:]:
        near = near * p + c
    if far:
        series = (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p + 0.0833333333333333333333
        near = np.where(x >= 1000.0, series, near)
    return near / x


def stirlerr(k) -> np.ndarray:
    """``log(k!) - (k + 1/2) log k + k - log sqrt(2 pi)`` for counts
    k >= 1: the constants up to 15, ``_stirling_series`` above."""
    k = np.asarray(k, dtype=np.float64)
    small = _STIRLERR_SMALL[np.minimum(k, 15.0).astype(np.int64)]
    return np.where(k <= 15.0, small, _stirling_series(np.maximum(k, 16.0), far=False))


def _two_product(a: np.ndarray, n):
    """``a * n`` rounded, and its rounding error exactly, for integers
    n below 2**26 (Dekker's product, splitting only ``a``, with no fused
    multiply-add)."""
    product = a * n
    c = 134217729.0 * a
    high = c - (c - a)
    error = high * n - product
    error += (a - high) * n
    return product, error


def _bd0(x: np.ndarray, m: np.ndarray, m_err: np.ndarray) -> np.ndarray:
    """Loader's deviance ``x log(x / m) + m - x`` for x > 0, m >= 0,
    with ``m + m_err`` the mean to more than double precision.

    Where |x - m| < (x + m) / 4 the two terms cancel, and the series
    ``(x - m) v + 2 x (v^3/3 + v^5/5 + ...)`` in v = (x - m) / (x + m)
    takes over: there x - m is exact, and 13 terms reach double
    precision.  Elsewhere ``x log1p((x - m) / m) - (x - m)`` loses at
    most about 12 ulps.
    """
    d = x - m
    d -= m_err
    with np.errstate(divide="ignore", invalid="ignore"):
        v = d / (x + m)
        v2 = v * v
        tail = np.full_like(v, 1.0 / 27.0)
        for j in range(12, 0, -1):
            tail *= v2
            tail += 1.0 / (2 * j + 1)
        tail *= 2.0 * x * v * v2
        tail += d * v
        direct = x * np.log1p(d / m)
        direct -= d
    return np.where(4.0 * np.abs(d) < x + m, tail, direct)


def binom_log_pmf(k: np.ndarray, n, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``log Pr(X = k)`` for ``X ~ Binomial(n, p)``, elementwise over 1-D
    arrays of counts k in [0, n], sizes n (one, or one per count) and
    parameters p with ``q = 1 - p`` exactly, in Loader's form; ``-inf``
    where p or q is 0 and the count is off the point mass.  n must lie
    below 2**26."""
    k, n, p, q = np.broadcast_arrays(np.asarray(k, dtype=np.float64), np.asarray(n, dtype=np.float64), p, q)
    if n.size and n.max() >= 1 << 26:
        raise ValueError("binomial sizes from 2**26 on are not supported")
    inner = (k > 0) & (k < n)
    x = np.where(inner, k, 1.0)
    # every count's terms in one array: k against np, n - k against nq,
    # then n itself
    counts = np.concatenate((x, n - x, n))
    half = x.shape[0]
    dev = _bd0(counts[: 2 * half], *_two_product(np.concatenate((p, q)), np.concatenate((n, n))))
    remainders = stirlerr(counts)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_mass = (
            (remainders[2 * half :] - remainders[:half]) - remainders[half : 2 * half] - dev[:half] - dev[half:]
            - 0.5 * (np.log(x * ((n - x) / n)) + math.log(2.0 * math.pi))
        )  # fmt: skip
        ends = ~inner
        if ends.any():
            log_mass[ends] = n[ends] * np.log(np.where(k[ends] == 0, q[ends], p[ends]))
    return log_mass


def log_factorial_table(n: int) -> np.ndarray:
    """Read-only array ``t`` with ``t[k] = log(k!)`` for ``k = 0..n``.

    The table is cached at module level and grown geometrically, sized to
    the largest population seen so far.  Every entry has the bits of
    Cephes' ``lgam(k + 1)``: ``log(k!)`` below 12, and above it
    ``(x - 1/2) log x - x + log sqrt(2 pi)`` plus ``_stirling_series``
    at x = k + 1 (the series dropped from x = 1e8 on), with ``log`` from
    ``math``, whose C library rounds as Cephes' does.
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
            table = np.empty(size)
            small = min(size, 12)
            table[:small] = [math.log(math.factorial(k)) for k in range(small)]
            x = np.arange(small, size, dtype=np.float64) + 1.0
            log_x = np.fromiter(map(math.log, x.tolist()), dtype=np.float64, count=x.size)
            body = (x - 0.5) * log_x - x + _LOG_SQRT_2PI
            table[small:] = np.where(x > 1e8, body, body + _stirling_series(x))
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
