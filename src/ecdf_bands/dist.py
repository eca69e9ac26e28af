"""The log-factorial kernel under both count laws' tables.

``log_factorial_table`` keeps one cached, read-only table of ``log(k!)``
and ``log_choose`` reads binomial coefficients from it in log space.
The count tables the bands and the simulators read are one CDF table
per law, a ``bands_single.CdfBlock`` of (K, W) cells and each row's
first count: the binomial in ``bands_single._cdf_matrix`` (incomplete
beta values on the tail cells of each row's window of counts that the
requested range of levels can read, 1/2 in the window's centre) and
the full hypergeometric in ``bands_multi._hyper_tables`` (log mass
from ``log_choose``, then a cumulative sum in linear space).
The forward passes read their log factors from the same table.
"""

from __future__ import annotations

import threading

import numpy as np
from scipy.special import gammaln

__all__ = ["log_choose", "log_factorial_table"]

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
