"""Output checks for every request the benchmark sends.

Everything here is written against the CLI's file formats and the
method's definitions, with plain numpy and scipy's log-gamma, and never
calls into ``ecdf_bands``: a change that breaks the program cannot also
break the check that is meant to catch it.

Each ``check_*`` function returns a list of failure tags (empty when the
output is right); ``check_test`` also returns, for bands with at most
three chains, the served band's coverage gap |exact coverage - (1 - alpha)|.
"""

from __future__ import annotations

import itertools
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
from scipy.special import gammaln

COVERAGE_TOL = 0.01
"""Largest allowed |exact coverage - (1 - alpha)| of a served band
(the tolerance of the repository's calibration acceptance criterion)."""

POWER_NULL_WINDOW = (0.035, 0.065)
"""Window for the rejection rate at k = 1 (the identity transformation)."""

SVG = "{http://www.w3.org/2000/svg}"


def _log_choose(lf: np.ndarray, n, k) -> np.ndarray:
    """log C(n, k) from a log-factorial table; -inf outside 0 <= k <= n."""
    n = np.asarray(n)
    k = np.asarray(k)
    ok = (k >= 0) & (k <= n) & (n >= 0)
    nn = np.where(ok, n, 0)
    kk = np.where(ok, k, 0)
    return np.where(ok, lf[nn] - lf[kk] - lf[nn - kk], -np.inf)


def coverage_one_sample(n: int, grid, lo, hi) -> float:
    """Probability that the ECDF counts of n iid U(0, 1) draws satisfy
    lo[i] <= #{u <= grid[i]} <= hi[i] at every grid point.

    Dense forward pass over the count windows: given r draws at or below
    the previous point, the increment is Binomial(n - r, step), with
    step = (z - z_prev) / (1 - z_prev).
    """
    lf = gammaln(np.arange(n + 1) + 1.0)
    probs = np.ones(1)
    cur = np.zeros(1, dtype=np.int64)
    z_prev = 0.0
    for z, a, b in zip(grid, lo, hi):
        a, b = max(int(a), 0), min(int(b), n)
        if a > b:
            return 0.0
        new = np.arange(a, b + 1)
        d = new[:, None] - cur[None, :]
        left = n - cur[None, :]
        if z >= 1.0:
            trans = (d == left).astype(np.float64)
        else:
            p = (z - z_prev) / (1.0 - z_prev)
            with np.errstate(invalid="ignore"):
                logt = _log_choose(lf, left, d) + d * math.log(p) + (left - d) * math.log1p(-p)
            trans = np.exp(np.where((d >= 0) & (d <= left), logt, -np.inf))
        probs = trans @ probs
        cur = new
        z_prev = float(z)
    return float(probs.sum())


def pooled_counts(grid, n: int, chains: int) -> np.ndarray:
    """Pooled rank thresholds floor(z * L * n) of the rank-ECDF test."""
    return np.floor(np.asarray(grid) * (chains * n) + 1e-9).astype(np.int64)


def coverage_chains(n: int, chains: int, grid, lo, hi) -> float:
    """Probability that every chain's rank count stays inside [lo, hi] at
    every pooled threshold, for L = 2 or 3 chains of n draws each.

    Under the null the pooled ranks are a uniformly random interleaving,
    so between thresholds s and s' the per-chain increments are
    multivariate hypergeometric over the draws each chain has left.  The
    state is the full count vector; the last count is fixed by s.
    """
    if chains not in (2, 3):
        raise ValueError("exact chain coverage is implemented for 2 or 3 chains")
    total = chains * n
    lf = gammaln(np.arange(total + 1) + 1.0)
    states = np.zeros((1, chains), dtype=np.int64)
    probs = np.ones(1)
    s_prev = 0
    for s, a, b in zip(pooled_counts(grid, n, chains), lo, hi):
        a, b = max(int(a), 0), min(int(b), n)
        free = np.array(list(itertools.product(range(a, b + 1), repeat=chains - 1)), dtype=np.int64)
        if free.size == 0:
            return 0.0
        last = int(s) - free.sum(axis=1)
        keep = (last >= a) & (last <= b)
        new = np.column_stack([free[keep], last[keep]])
        if new.shape[0] == 0:
            return 0.0
        ds = int(s) - s_prev
        d = new[:, None, :] - states[None, :, :]
        logt = _log_choose(lf, n - states[None, :, :], d).sum(axis=2)
        logt = logt - float(_log_choose(lf, total - s_prev, ds))
        probs = np.exp(logt) @ probs
        states = new
        s_prev = int(s)
    return float(probs.sum())


def _read_report(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _count_bounds(payload: dict, n: int):
    lo = np.rint(np.asarray(payload["bands"]["lower"], dtype=np.float64) * n).astype(np.int64)
    hi = np.rint(np.asarray(payload["bands"]["upper"], dtype=np.float64) * n).astype(np.int64)
    return lo, hi


def chain_rank_counts(x: np.ndarray, grid) -> np.ndarray:
    """(L, K) counts of each chain's pooled ranks at or below each
    threshold, ties broken by (value, chain, draw)."""
    chains, n = x.shape
    order = np.argsort(x.ravel(), kind="stable")
    ranks = np.empty(order.size, dtype=np.int64)
    ranks[order] = np.arange(1, order.size + 1)
    ranks = ranks.reshape(chains, n)
    s = pooled_counts(grid, n, chains)
    return (ranks[:, :, None] <= s[None, None, :]).sum(axis=1)


def check_test(rc: int, out_path: str, x: np.ndarray, coverage_cache: dict):
    """Check a ``test`` report against its input ``x`` of shape (L, n).

    The verdict and exceedance list are recomputed from the input and
    the served bounds; for L <= 3 the served band's exact coverage must
    lie within COVERAGE_TOL of 1 - alpha.  Returns (failures, gap), with
    gap None when there is no band or more than three chains.
    """
    if rc not in (0, 1):
        return [f"exit{rc}"], None
    payload = _read_report(out_path)
    if payload is None:
        return ["unreadable"], None
    chains, n = x.shape
    try:
        grid = np.asarray(payload["grid"], dtype=np.float64)
        lo, hi = _count_bounds(payload, n)
        alpha = float(payload["alpha"])
        inside = bool(payload["inside"])
        reported = [sorted(e["index"] for e in per) for per in payload["exceedances"]]
        shape_ok = (
            int(payload["n"]) == n
            and int(payload["chains"]) == chains
            and grid.size == lo.size == hi.size
            and len(reported) == chains
        )
    except (KeyError, TypeError, ValueError):
        return ["malformed"], None
    if not shape_ok or grid.size == 0 or np.any(np.diff(grid) <= 0) or grid[0] <= 0 or grid[-1] > 1:
        return ["malformed"], None
    if chains == 1:
        counts = (x[0][:, None] <= grid[None, :]).sum(axis=0)[None, :]
    else:
        counts = chain_rank_counts(x, grid)
    outside = (counts < lo[None, :]) | (counts > hi[None, :])
    failures = []
    expected = [np.flatnonzero(row).tolist() for row in outside]
    if inside != (not outside.any()) or rc != (0 if inside else 1) or reported != expected:
        failures.append("verdict")
    gap = None
    if chains <= 3:
        key = (chains, n, grid.tobytes(), lo.tobytes(), hi.tobytes())
        if key not in coverage_cache:
            if chains == 1:
                coverage_cache[key] = coverage_one_sample(n, grid, lo, hi)
            else:
                coverage_cache[key] = coverage_chains(n, chains, grid, lo, hi)
        gap = abs(coverage_cache[key] - (1.0 - alpha))
        if gap > COVERAGE_TOL:
            failures.append("coverage")
    return failures, gap


def check_pit(rc: int, out_path: str, y: np.ndarray, comparison: np.ndarray):
    """``pit`` output must equal the fraction of each comparison row at or
    below its draw, with the comparison length as the resolution."""
    if rc != 0:
        return [f"exit{rc}"]
    try:
        with open(out_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        resolution = int(lines[0].split(":", 1)[1])
        values = np.array([float(v) for v in lines[2:]])
    except (OSError, IndexError, ValueError):
        return ["malformed"]
    expected = (comparison <= y[:, None]).sum(axis=1) / comparison.shape[1]
    if resolution != comparison.shape[1] or values.shape != expected.shape:
        return ["pit"]
    if not np.allclose(values, expected, rtol=0.0, atol=1e-12):
        return ["pit"]
    return []


def check_thin(rc: int, out_path: str, ess_path: str, x: np.ndarray):
    """Thinned output must equal ``x[:, ::factor]`` for the reported factor."""
    if rc != 0:
        return [f"exit{rc}"]
    try:
        with open(ess_path, encoding="utf-8") as fh:
            factor = int(json.load(fh)["factor"])
        with open(out_path, encoding="utf-8") as fh:
            rows = fh.read().splitlines()[1:]
        kept = np.array([[float(c) for c in row.split(",")] for row in rows]).T
    except (OSError, KeyError, TypeError, ValueError):
        return ["malformed"]
    if factor < 1 or not np.array_equal(kept, x[:, ::factor]):
        return ["thin"]
    return []


def check_svg(rc: int, out_path: str, paths: int | None):
    """Output must parse as an SVG document; ``paths`` is the expected
    number of trajectory paths, or None to skip that count."""
    if rc != 0:
        return [f"exit{rc}"]
    try:
        root = ET.parse(out_path).getroot()
    except (OSError, ET.ParseError):
        return ["svg"]
    if root.tag != SVG + "svg":
        return ["svg"]
    if paths is not None and len(root.findall(SVG + "path")) != paths:
        return ["svg"]
    return []


def check_power(rc: int, out_path: str, ks: list[float]):
    """Power table must have one row per strength, rates in [0, 1] and the
    k = 1 rate of every test inside POWER_NULL_WINDOW."""
    if rc != 0:
        return [f"exit{rc}"]
    try:
        with open(out_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        header = lines[0].split(",")
        rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
    except (OSError, IndexError, ValueError):
        return ["malformed"]
    rate_cols = [i for i, h in enumerate(header) if h.startswith("rate_")]
    if not rate_cols or [r[0] for r in rows] != ks:
        return ["malformed"]
    lo, hi = POWER_NULL_WINDOW
    for row in rows:
        rates = [row[i] for i in rate_cols]
        if any(not 0.0 <= r <= 1.0 for r in rates):
            return ["power"]
        if row[0] == 1.0 and any(not lo <= r <= hi for r in rates):
            return ["power"]
    return []
