"""Reference routes kept only for the tests.

Dense forward recursions are the independent oracles for the exact
coverage.  Each step builds the full transition matrix between the count
windows of consecutive grid points straight from the distribution's log
mass (the binomial for one sample, the multivariate hypergeometric for
two and three chains) and multiplies it into the state.  They share no
code with the program's factorized forward pass, only the ``dist``
kernels.

Scalar and per-row distribution functions (``binom_cdf``,
``binom_logpmf``, ``binom_sf_table``, ``hyper_cdf``, ``hyper_quantile``)
check the vectorized count tables and bounds the bands are read from.

``search_steps_bisect`` is the plain bisection over the coverage steps
that the program's interpolating step search must end on.
"""

import math

import numpy as np
from scipy.special import betainc

from ecdf_bands import dist
from ecdf_bands.dist import _check_count, _check_hyper, _check_prob, _hyper_tables


def binom_logpmf(k, n, p: float) -> np.ndarray:
    """Elementwise log of the Binomial(n, p) mass at k.

    ``k`` and ``n`` broadcast; invalid counts get ``-inf``.  The edge
    rates ``p = 0`` and ``p = 1`` are handled as point masses.
    """
    p = _check_prob(p, "p")
    k = np.asarray(k, dtype=np.int64)
    n = np.asarray(n, dtype=np.int64)
    if p == 0.0:
        return np.where((k == 0) & (n >= 0), 0.0, -np.inf)
    if p == 1.0:
        return np.where((k == n) & (n >= 0), 0.0, -np.inf)
    lc = dist.log_choose(n, k)
    kk = np.where(np.isfinite(lc), k, 0)
    nn = np.where(np.isfinite(lc), n, 0)
    out = lc + kk * math.log(p) + (nn - kk) * math.log1p(-p)
    return np.where(np.isfinite(lc), out, -np.inf)


def binom_cdf(k, n: int, p: float) -> float:
    """``Pr(X <= k)`` for ``X ~ Binomial(n, p)``.

    Clamps to 0 below the support and to 1 at or above its top.
    """
    n = _check_count(n, "n")
    p = _check_prob(p, "p")
    k = math.floor(k)
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    return float(betainc(n - k, k + 1, 1.0 - p))


def binom_sf_table(n: int, p: float) -> np.ndarray:
    """Read-only array ``s`` with ``s[k] = Pr(X >= k)``, k = 0..n, one
    row at a time: the oracle for ``bands_single._sf_matrix``."""
    n = _check_count(n, "n")
    p = _check_prob(p, "p")
    if n == 0:
        out = np.ones(1)
    else:
        k = np.arange(1, n + 1, dtype=np.float64)
        sf = betainc(k, n - k + 1.0, p)
        sf = np.minimum.accumulate(np.clip(sf, 0.0, 1.0))
        out = np.concatenate(([1.0], sf))
    out.setflags(write=False)
    return out


def hyper_cdf(k, succ: int, fail: int, draws: int) -> float:
    """``Pr(X <= k)`` for ``X ~ Hypergeometric(succ, fail, draws)``.

    Clamps outside the support: 0 below it, 1 at or above its top.
    """
    succ, fail, draws = _check_hyper(succ, fail, draws)
    k = math.floor(k)
    lo, hi, _, cdf, _ = _hyper_tables(succ, fail, draws)
    if k < lo:
        return 0.0
    if k >= hi:
        return 1.0
    return float(cdf[k - lo])


def hyper_quantile(q: float, succ: int, fail: int, draws: int) -> int:
    """Smallest ``k`` in the support with ``hyper_cdf(k, ...) >= q``.

    ``q = 0`` returns the bottom of the support, which is
    ``max(0, draws - fail)`` rather than 0 when draws exceed failures.
    """
    q = _check_prob(q, "q")
    succ, fail, draws = _check_hyper(succ, fail, draws)
    lo, hi, _, cdf, _ = _hyper_tables(succ, fail, draws)
    if q <= 0.0:
        return lo
    return lo + int(np.searchsorted(cdf, q, side="left"))


def _renormalize(probs, log_scale):
    """Keep the mass in a healthy float range; the deficit is folded
    back in at the end."""
    total = float(probs.sum())
    if 0.0 < total < 1e-250:
        return probs / total, log_scale + math.log(total)
    return probs, log_scale


def interval_mass(n: int, pts: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    """One sample: forward recursion over count intervals [lo_i, hi_i]
    along the null probabilities ``pts``."""
    cur_lo = cur_hi = 0
    probs = np.ones(1)
    z_prev = 0.0
    log_scale = 0.0
    for i in range(pts.size):
        z = float(pts[i])
        step = 1.0 if z_prev >= 1.0 else (z - z_prev) / (1.0 - z_prev)
        new_lo, new_hi = int(lo[i]), int(hi[i])
        probs = _advance(probs, cur_lo, cur_hi, new_lo, new_hi, n, step)
        if float(probs.sum()) <= 0.0:
            return 0.0
        probs, log_scale = _renormalize(probs, log_scale)
        cur_lo, cur_hi = new_lo, new_hi
        z_prev = z
    return float(min(1.0, probs.sum() * math.exp(log_scale)))


def _advance(probs, old_lo, old_hi, new_lo, new_hi, n, step):
    if step >= 1.0:
        # final jump to z = 1: every remaining draw arrives at once
        out = np.zeros(new_hi - new_lo + 1)
        if new_lo <= n <= new_hi:
            out[n - new_lo] = probs.sum()
        return out
    r_old = np.arange(old_lo, old_hi + 1)
    r_new = np.arange(new_lo, new_hi + 1)
    growth = r_new[:, None] - r_old[None, :]
    remaining = n - r_old[None, :]
    log_pmf = binom_logpmf(growth, remaining, step)
    return np.exp(log_pmf) @ probs


def coverage_two_chains(n: int, s, lo, hi) -> float:
    """Two chains: forward pass over the first chain's count; the second
    chain's count is determined by the pooled total."""
    prev_s = 0
    cur_lo = cur_hi = 0
    probs = np.ones(1)
    log_scale = 0.0
    for i in range(len(s)):
        si = int(s[i])
        # both chains must stay inside the same bounds
        new_lo = max(int(lo[i]), si - int(hi[i]))
        new_hi = min(int(hi[i]), si - int(lo[i]))
        if new_lo > new_hi:
            return 0.0
        ds = si - prev_s
        r_old = np.arange(cur_lo, cur_hi + 1)
        r_new = np.arange(new_lo, new_hi + 1)
        growth = r_new[:, None] - r_old[None, :]
        log_t = (
            dist.log_choose(n - r_old[None, :], growth)
            + dist.log_choose(n - (prev_s - r_old[None, :]), ds - growth)
            - dist.log_choose(2 * n - prev_s, ds)
        )
        probs = np.exp(log_t) @ probs
        if float(probs.sum()) <= 0.0:
            return 0.0
        probs, log_scale = _renormalize(probs, log_scale)
        cur_lo, cur_hi = new_lo, new_hi
        prev_s = si
    return float(min(1.0, probs.sum() * math.exp(log_scale)))


def _sorted_triple_multiplicity(r1, r2, r3) -> np.ndarray:
    """Number of distinct orderings of each (r1, r2, r3) multiset."""
    mult = np.full(r1.shape, 6, dtype=np.float64)
    pair = (r1 == r2) | (r2 == r3) | (r1 == r3)
    mult[pair] = 3.0
    mult[(r1 == r2) & (r2 == r3)] = 1.0
    return mult


def coverage_three_chains(n: int, s, lo, hi) -> float:
    """Three chains: forward pass over two chains' counts; the third is
    determined.

    At the first grid point only ordered count triples are enumerated,
    weighted by their orbit size; chain exchangeability makes the
    survival probability constant on each orbit, so total mass is
    preserved.  This assumes the same window for every chain.
    """
    first_lo, first_hi = int(lo[0]), int(hi[0])
    s0 = int(s[0])
    span = np.arange(first_lo, first_hi + 1)
    r1, r2 = np.meshgrid(span, span, indexing="ij")
    r1, r2 = r1.ravel(), r2.ravel()
    r3 = s0 - r1 - r2
    keep = (r3 >= first_lo) & (r3 <= first_hi) & (r1 <= r2) & (r2 <= r3)
    r1, r2, r3 = r1[keep], r2[keep], r3[keep]
    if r1.size == 0:
        return 0.0
    log_init = (
        dist.log_choose(n, r1)
        + dist.log_choose(n, r2)
        + dist.log_choose(n, r3)
        - dist.log_choose(3 * n, s0)
    )
    probs = _sorted_triple_multiplicity(r1, r2, r3) * np.exp(log_init)
    cur_r1, cur_r2 = r1, r2
    prev_s = s0
    log_scale = 0.0
    for i in range(1, len(s)):
        si = int(s[i])
        ds = si - prev_s
        span = np.arange(int(lo[i]), int(hi[i]) + 1)
        n1, n2 = np.meshgrid(span, span, indexing="ij")
        n1, n2 = n1.ravel(), n2.ravel()
        n3 = si - n1 - n2
        keep = (n3 >= int(lo[i])) & (n3 <= int(hi[i]))
        n1, n2 = n1[keep], n2[keep]
        if n1.size == 0:
            return 0.0
        cur_r3 = prev_s - cur_r1 - cur_r2
        d1 = n1[:, None] - cur_r1[None, :]
        d2 = n2[:, None] - cur_r2[None, :]
        log_t = (
            dist.log_choose(n - cur_r1[None, :], d1)
            + dist.log_choose(n - cur_r2[None, :], d2)
            + dist.log_choose(n - cur_r3[None, :], ds - d1 - d2)
            - dist.log_choose(3 * n - prev_s, ds)
        )
        probs = np.exp(log_t) @ probs
        if float(probs.sum()) <= 0.0:
            return 0.0
        probs, log_scale = _renormalize(probs, log_scale)
        cur_r1, cur_r2 = n1, n2
        prev_s = si
    return float(min(1.0, probs.sum() * math.exp(log_scale)))


def search_steps_bisect(coverage_fn, cdf_values, alpha: float, floor: float):
    """The exact gamma search by bisection over the coverage steps.

    Same candidate steps, bracket invariant and final pick as
    ``bands_single._search_steps``; each probe is the bracket's middle
    step.  Returns ``(gamma, coverage, evaluations, steps)``.
    """
    target = 1.0 - alpha
    f = np.ravel(cdf_values)
    breaks = 2.0 * np.minimum(f, 1.0 - f)
    start = breaks[breaks < floor].max(initial=0.0)
    edges = np.unique(np.append(breaks[(breaks >= floor) & (breaks < alpha)], start))
    gammas = np.append((edges[:-1] + edges[1:]) / 2.0, alpha)
    cache: dict[int, float] = {}

    def coverage(i: int) -> float:
        if i not in cache:
            cache[i] = float(coverage_fn(float(gammas[i])))
        return cache[i]

    # invariant: step lo reaches the target, step hi (if any) does not
    lo, hi = 0, gammas.size
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if coverage(mid) >= target:
            lo = mid
        else:
            hi = mid
    best = min(range(lo, min(lo + 2, gammas.size)), key=lambda i: (abs(coverage(i) - target), i))
    return float(gammas[best]), coverage(best), len(cache), gammas.size
