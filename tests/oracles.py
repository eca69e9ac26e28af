"""Reference routes kept only for the tests.

Dense forward recursions are the independent oracles for the exact
coverage.  Each step builds the full transition matrix between the count
windows of consecutive grid points straight from the distribution's log
mass (the binomial for one sample, the multivariate hypergeometric for
two and three chains) and multiplies it into the state.  They share no
code with the program's factorized forward pass, only the ``dist``
kernels.  ``dense_pass`` runs every step of that pass on its transition
matrix, from the pass's own five log-factor arrays.

The program reads each count law's CDF table off one kernel, summed
from each tail in runs.  The per-row routes here check those tables and
the bounds read from them: the binomial row, scalar CDF, log mass and
quantile (``binom_cdf_table``, ``binom_cdf``, ``binom_logpmf``,
``binom_quantile``), and the hypergeometric support and exact CDF, summed
in rational arithmetic (``hyper_exact_cdf``), with its row over the
support rounded once to doubles and the scalar CDF and quantile read
from it (``hyper_support``, ``hyper_cdf``, ``hyper_quantile``).
``chain_table`` is the program's full chain table of given pooled
counts (``bands_single._cdf_matrix`` keyed by them) with the bottom of
each row's support, max(s - (l - 1) n, 0).
``chain_cell_tolerance`` is how far a chain table cell may sit from the
exact CDF, derived from the roundings of the program's kernel, and
``assert_chain_rows_match_exact_cdfs`` checks a whole table against it.

``exact_chain_mass`` is the coverage of chains whose windows hold one
count each, in rational arithmetic: every chain's count is then fixed at
each grid point, and the mass is the product of the multivariate
hypergeometric transitions between them, with no rounding at all.

``search_steps_bisect`` is the plain bisection over the coverage steps
that the program's interpolating step search must end on.

``grid_cell_counts`` counts each row's values at or below each grid
point, and ``chain_cell_counts`` each chain's pooled ranks at or below
each pooled count, from one ``argsort`` of each row's pooled draws; both
count every (row, group) on its own.  ``tail_levels`` reads each row's
tightest tail level from such counts, one gather per row in the
per-count levels of ``bands_single._tail_table``.  The program reads
levels from the draws' cell ids with one running sum over a whole row
block (``bands_single._tail_level_reader``).

``simulated_levels_single`` and ``simulated_levels_multi`` are the
simulators' whole-chunk routes: each chunk draws all its replicates in
one ``rng.random`` call, counts the one-sample cells by ``searchsorted``
or each chain's cells by argsorting the pooled draws, and reads the
tightest tail levels with ``tail_levels``.  The program reduces each
chunk in row blocks, and sorts packed draw-and-chain keys for the
chains, so its levels must equal these bit for bit.  ``simulated_held_multi`` says which of those replicates given
bands hold, and ``recorded_levels`` reads the levels a simulator reduced
to its gamma.

For the power harness: ``ROW_STATS`` computes each classical statistic
by its own sort (U2 by way of W2, a second sort), ``masked_transform``
applies each distortion family's two halves through masked scatters,
``critical_value`` draws its own null sample for each statistic, and
``sweep_rates_whole_chunks`` runs a sweep on whole chunks of 2000
replicates, each distorted sample counted and tested at once.  The
program sorts each sample once for every statistic, folds the B and C
families onto one side for a single power, shares one null pass among
the statistics and works in row blocks, so it must match these bit for
bit.

For the command line: ``parse_csv_rows`` reads a CSV table row by row,
checking each row's width and converting its cells before the next.
The program converts every cell in one pass and walks the rows only to
name a bad one, so it must give the same table, resolution and error.
"""

import csv
import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import betainc

from ecdf_bands import bands_multi, bands_single, dist


def log_choose(n, k) -> np.ndarray:
    """Elementwise ``log C(n, k)`` as a difference of log-factorials
    (``dist.log_factorial_table``); ``-inf`` outside ``0 <= k <= n``."""
    n = np.asarray(n, dtype=np.int64)
    k = np.asarray(k, dtype=np.int64)
    table = dist.log_factorial_table(int(n.max(initial=0)))
    valid = (n >= 0) & (k >= 0) & (k <= n)
    nn = np.where(valid, n, 0)
    kk = np.where(valid, k, 0)
    out = table[nn] - table[kk] - table[nn - kk]
    return np.where(valid, out, -np.inf)


def binom_logpmf(k, n, p: float) -> np.ndarray:
    """Elementwise log of the Binomial(n, p) mass at k.

    ``k`` and ``n`` broadcast; invalid counts get ``-inf``.  The edge
    rates ``p = 0`` and ``p = 1`` are handled as point masses.
    """
    k = np.asarray(k, dtype=np.int64)
    n = np.asarray(n, dtype=np.int64)
    if p == 0.0:
        return np.where((k == 0) & (n >= 0), 0.0, -np.inf)
    if p == 1.0:
        return np.where((k == n) & (n >= 0), 0.0, -np.inf)
    lc = log_choose(n, k)
    kk = np.where(np.isfinite(lc), k, 0)
    nn = np.where(np.isfinite(lc), n, 0)
    out = lc + kk * math.log(p) + (nn - kk) * math.log1p(-p)
    return np.where(np.isfinite(lc), out, -np.inf)


def binom_cdf(k, n: int, p: float) -> float:
    """``Pr(X <= k)`` for ``X ~ Binomial(n, p)``.

    Clamps to 0 below the support and to 1 at or above its top.
    """
    k = math.floor(k)
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    return float(betainc(n - k, k + 1, 1.0 - p))


def binom_cdf_table(n: int, p: float) -> np.ndarray:
    """Read-only array ``c`` with ``c[k] = Pr(X <= k)``, k = 0..n, one
    row at a time: the oracle for ``bands_single._cdf_matrix``."""
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
    if q <= 0.0:
        return 0
    return int(np.searchsorted(binom_cdf_table(n, p), q, side="left"))


def hyper_support(succ: int, fail: int, draws: int) -> tuple[int, int]:
    """Inclusive support bounds ``(max(0, draws - fail), min(succ, draws))``."""
    return max(0, draws - fail), min(succ, draws)


@lru_cache(maxsize=8192)
def hyper_exact_cdf(succ: int, fail: int, draws: int) -> tuple:
    """``Pr(X <= k)`` for k = 0..succ as Fractions, for
    ``X ~ Hypergeometric(succ, fail, draws)``: the count of the succ
    marked items among draws taken without replacement from succ + fail,
    summed in rational arithmetic."""
    total = math.comb(succ + fail, draws)
    acc, out = 0, []
    for k in range(succ + 1):
        if 0 <= draws - k <= fail:
            acc += math.comb(succ, k) * math.comb(fail, draws - k)
        out.append(Fraction(acc, total))
    return tuple(out)


@lru_cache(maxsize=8192)
def _hyper_rows(succ: int, fail: int, draws: int):
    """Support bounds and the exact CDF over the support alone, each
    value rounded once to the nearest double."""
    lo, hi = hyper_support(succ, fail, draws)
    cdf = np.array([float(f) for f in hyper_exact_cdf(succ, fail, draws)[lo : hi + 1]])
    cdf.setflags(write=False)
    return lo, hi, cdf


def hyper_cdf(k, succ: int, fail: int, draws: int) -> float:
    """``Pr(X <= k)`` for ``X ~ Hypergeometric(succ, fail, draws)``.

    Clamps outside the support: 0 below it, 1 at or above its top.
    """
    k = math.floor(k)
    lo, hi, cdf = _hyper_rows(succ, fail, draws)
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
    lo, _, cdf = _hyper_rows(succ, fail, draws)
    if q <= 0.0:
        return lo
    return lo + int(np.searchsorted(cdf, q, side="left"))


_UNIT_ROUNDOFF = Fraction(2) ** -53
"""The unit roundoff of double precision."""


def chain_cell_tolerance(n: int, l: int, want: Fraction) -> Fraction:
    """How far a chain table cell may sit from its exact CDF ``want``.

    A cell with F <= 1/2 is a sum of masses f_j <= F summed from the
    left.  The first mass of each run is exp(a + b - c), three of
    Loader's log masses, each within 4e-15 + 4e-16 |term| of its exact
    value (``test_dist.test_loader_mass_matches_exact_log_mass``), added with two
    roundings of at most u |term| each.  The pooled term c is at least
    -log(l n + 1), the least mass at a binomial's mean, and a, b <= 0,
    so |a| + |b| + |c| <= |log f_j| + 2 log(l n + 1).  exp adds one
    rounding, so a first mass is off by at most, relative,
    1.2e-14 + (4e-16 + 2u)(|log f_j| + 2 log(l n + 1)) + u.  Up to 31
    ratios follow, each one division of exact integers and one product,
    2u each; the sum takes at most 31 additions within the run and one
    per run beyond, R = ceil((n + 1) / 32) runs.  With at most n + 1
    masses, each at most F, the sum of f_j |log f_j| is at most
    F (|log F| + log(n + 1)).  So, relative to F,

        1.2e-14 + 6.2e-16 (|log F| + log(n + 1) + 2 log(l n + 1))
        + (64 + 31 + R) u.

    A cell with F > 1/2 is 1 minus its upper tail T = 1 - F, summed
    from the right the same way: T's bound, times T, plus the one
    rounding of 1 - T, at most a spacing of F.
    """
    tail = min(want, 1 - want)
    if tail == 0:
        return Fraction(0)
    runs = -(-(n + 1) // 32)
    logs = math.log(tail.denominator) - math.log(tail.numerator) + math.log(n + 1) + 2 * math.log(l * n + 1)
    rel = Fraction(1.2e-14) + Fraction(6.2e-16) * Fraction(logs) + (64 + 31 + runs) * _UNIT_ROUNDOFF
    slack = Fraction(np.spacing(float(want))) if want > Fraction(1, 2) else 0
    return rel * tail + slack


def chain_table(n: int, l: int, s):
    """The program's full CDF table of one chain's count at the pooled
    counts s, and the bottom of each row's support."""
    s = np.asarray(s, dtype=np.int64)
    return bands_single._cdf_matrix(n, tuple(s.tolist()), 0.0, l), np.maximum(s - (l - 1) * n, 0)


def assert_chain_rows_match_exact_cdfs(n: int, l: int, s):
    """Every cell of the full chain table of pooled counts s against the
    exact CDF, within ``chain_cell_tolerance``, each row nondecreasing,
    0.0 below its support and 1.0 from its top on."""
    table, floor = chain_table(n, l, s)
    cells = table.cells
    assert cells.shape == (len(s), n + 1) and not table.first.any()
    assert not (cells.flags.writeable or table.first.flags.writeable)
    rest = (l - 1) * n
    for i, si in enumerate(s):
        bottom, top = hyper_support(n, rest, si)
        assert floor[i] == bottom
        assert np.all(cells[i, :bottom] == 0.0) and np.all(cells[i, top:] == 1.0)
        assert np.all(np.diff(cells[i]) >= 0.0)
        for k, want in enumerate(hyper_exact_cdf(n, rest, si)):
            got = Fraction(float(cells[i, k]))
            assert abs(got - want) <= chain_cell_tolerance(n, l, want), (si, k, float(want))


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
            log_choose(n - r_old[None, :], growth)
            + log_choose(n - (prev_s - r_old[None, :]), ds - growth)
            - log_choose(2 * n - prev_s, ds)
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
        log_choose(n, r1)
        + log_choose(n, r2)
        + log_choose(n, r3)
        - log_choose(3 * n, s0)
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
            log_choose(n - cur_r1[None, :], d1)
            + log_choose(n - cur_r2[None, :], d2)
            + log_choose(n - cur_r3[None, :], ds - d1 - d2)
            - log_choose(3 * n - prev_s, ds)
        )
        probs = np.exp(log_t) @ probs
        if float(probs.sum()) <= 0.0:
            return 0.0
        probs, log_scale = _renormalize(probs, log_scale)
        cur_r1, cur_r2 = n1, n2
        prev_s = si
    return float(min(1.0, probs.sum() * math.exp(log_scale)))



def dense_pass(lo, hi, src, ker, dst) -> float:
    """``_forward.forward_mass`` with every step on its transition matrix
    ``exp(src[r] + ker[r' - r] + dst[r'])`` over the live counts, from
    the same five arrays.

    Source and destination are summed first: both hold log-factorials of
    nearby counts with opposite signs, so their sum is exact or nearly so,
    where adding the jump to the source first rounds at the magnitude of
    log n!.  That rounding repeats with one sign when the jumps repeat
    (windows of one count with equal pooled steps), which moved the
    matrix product by up to 2.7e-10 relative over a few hundred steps."""
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    if int((hi[1:] - lo[1:]).min()) < 0 or int((hi[1:] - lo[:-1]).min()) < 0:
        return 0.0
    dims = src.ndim - 1
    steps = src.shape[0]
    n_jumps = ker.shape[-1]
    cells = np.zeros((1, dims), dtype=np.int64)
    probs = np.ones(1)
    log_scale = 0.0
    for t in range(steps):
        width = int(hi[t + 1] - lo[t + 1]) + 1
        grid = np.indices((width,) * dims).reshape(dims, -1).T
        at = tuple(grid.T)
        log_dst = dst[t][at]
        keep = np.isfinite(log_dst)
        new_cells, log_dst = grid[keep], log_dst[keep]
        jump = (new_cells[:, None, :] + lo[t + 1]) - (cells[None, :, :] + lo[t])
        ok = np.all((jump >= 0) & (jump < n_jumps), axis=2)
        jump = np.where(ok[..., None], jump, 0)
        log_k = ker[t][tuple(np.moveaxis(jump, 2, 0))]
        log_t = (src[t][tuple(cells.T)][None, :] + log_dst[:, None]) + log_k
        probs = np.where(ok, np.exp(log_t), 0.0) @ probs
        if float(probs.sum()) <= 0.0:
            return 0.0
        probs, log_scale = _renormalize(probs, log_scale)
        cells = new_cells
    return float(min(1.0, probs.sum() * math.exp(log_scale)))


def exact_chain_mass(n: int, l: int, s, lo, hi) -> Fraction:
    """Exact probability that each of l chains of n draws holds a count
    in [lo_i, hi_i] of the s_i smallest pooled ranks at every grid point,
    for windows of one count each (lo_i = hi_i).

    The first l - 1 chains hold lo_i and the last chain the rest of s_i,
    which must be lo_i too.  A step from s to s + ds that adds d_j to
    chain j has probability prod_j C(n - r_j, d_j) / C(l * n - s, ds).
    """
    num = den = 1
    prev_s, prev = 0, [0] * l
    for si, a, b in zip(s, lo, hi):
        si, a, b = int(si), int(a), int(b)
        if a != b:
            raise ValueError("every window must hold one count")
        counts = [a] * (l - 1) + [si - (l - 1) * a]
        steps = [c - r for c, r in zip(counts, prev)]
        if counts[-1] != a or min(steps) < 0:
            return Fraction(0)
        num *= math.prod(math.comb(n - r, d) for r, d in zip(prev, steps))
        den *= math.comb(l * n - prev_s, si - prev_s)
        prev_s, prev = si, counts
    return Fraction(num, den)


def exact_chain_coverage(n: int, l: int, s, lo, hi) -> Fraction:
    """Exact probability that each of l chains of n draws holds a count
    in [lo_i, hi_i] of the s_i smallest pooled ranks at every grid
    point, for two chains and for small three-chain shapes.

    A forward recursion over the first l - 1 chains' counts in integer
    arithmetic: each state carries its mass times one common
    denominator, the product of the steps' C(l * n - s, ds), and a step
    that adds d_j to chain j (the last chain taking the rest of ds)
    multiplies it by prod_j C(n - r_j, d_j).  It shares no code with the
    program, and nothing rounds."""
    states = {(0,) * (l - 1): 1}
    den, prev_s = 1, 0
    for si, a, b in zip(s, lo, hi):
        si, a, b = int(si), int(a), int(b)
        ds = si - prev_s
        nxt = {}
        for r, weight in states.items():
            counts = r + (prev_s - sum(r),)
            for d in itertools.product(*(range(min(ds, n - c) + 1) for c in r)):
                step = d + (ds - sum(d),)
                new = tuple(c + x for c, x in zip(counts, step))
                if step[-1] < 0 or not all(a <= c <= b for c in new):
                    continue
                ways = math.prod(math.comb(n - c, x) for c, x in zip(counts, step))
                nxt[new[:-1]] = nxt.get(new[:-1], 0) + weight * ways
        den *= math.comb(l * n - prev_s, ds)
        states, prev_s = nxt, si
        if not states:
            return Fraction(0)
    return Fraction(sum(states.values()), den)


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


def grid_cell_counts(u: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Row-wise counts of values at or below each grid point, (B, K)."""
    k = pts.size
    cells = np.searchsorted(pts, u, side="left")
    rows = u.shape[0]
    flat = cells + (np.arange(rows) * (k + 1))[:, None]
    hist = np.bincount(flat.ravel(), minlength=rows * (k + 1)).reshape(rows, k + 1)
    return np.cumsum(hist, axis=1)[:, :k]


def chain_cell_counts(u: np.ndarray, s: np.ndarray, n: int, l: int) -> np.ndarray:
    """Per-chain counts of pooled ranks at or below each s_i, (B, L, K).

    ``u`` has shape (B, l*n) with chains as contiguous blocks of n
    values per row.  Their argsort is the pooled order, and the chain of
    the value sorted at each position is its column // n.  Sorted
    position j holds pooled rank j + 1, so the chain labelled there is
    counted in the cell of rank j + 1, shared by all rows.
    """
    b, k = u.shape[0], s.size
    labels = np.argsort(u, axis=1) // n
    labels += (np.arange(b) * l)[:, None]
    labels *= k + 1
    labels += np.searchsorted(s, np.arange(1, l * n + 1), side="left")
    hist = np.bincount(labels.ravel(), minlength=b * l * (k + 1)).reshape(b, l, k + 1)
    return np.cumsum(hist, axis=2)[:, :, :k]


def tail_levels(cdf: np.ndarray):
    """Each row's tightest two-sided tail level, as a function of its
    counts (B, ..., K), indexed by grid point along the last axis: the
    minimum over all its counts of their ``bands_single._tail_table``
    levels in the full CDF table ``cdf``."""
    tails = bands_single._tail_table(cdf).ravel()
    row_start = np.arange(cdf.shape[0]) * cdf.shape[1]

    def levels(counts: np.ndarray) -> np.ndarray:
        return tails[counts + row_start].reshape(counts.shape[0], -1).min(axis=1)

    return levels


def _chunked(fn, m: int, chunk: int, seed: int) -> np.ndarray:
    pieces = []
    for start in range(0, m, chunk):
        rng = bands_single._chunk_rng(seed, start // chunk)
        pieces.append(fn(rng, min(chunk, m - start)))
    return np.concatenate(pieces)


def simulated_levels_single(n: int, grid, m: int, seed: int) -> np.ndarray:
    """``gamma_simulate``'s m tightest tail levels, 512 replicates drawn
    whole per chunk."""
    key = bands_single._grid_key(grid)
    levels = tail_levels(bands_single._cdf_matrix(n, key).cells)
    return _chunked(
        lambda rng, size: levels(grid_cell_counts(rng.random((size, n)), grid.points)),
        m,
        512,
        seed,
    )


def simulated_levels_multi(n: int, l: int, grid, m: int, seed: int) -> np.ndarray:
    """``gamma_simulate_multi``'s m tightest tail levels, 256 replicates
    drawn whole per chunk and their pooled draws argsorted."""
    s = bands_multi._pooled_counts(grid, n, l)
    levels = tail_levels(chain_table(n, l, s)[0].cells)
    return _chunked(
        lambda rng, size: levels(chain_cell_counts(rng.random((size, l * n)), s, n, l)),
        m,
        256,
        seed,
    )


def simulated_held_multi(n: int, l: int, grid, m: int, seed: int, bands) -> np.ndarray:
    """Whether ``bands`` hold every chain of each of
    ``gamma_simulate_multi``'s m replicates, drawn as
    ``simulated_levels_multi`` draws them."""
    s = bands_multi._pooled_counts(grid, n, l)
    lo, hi = bands.lower_counts, bands.upper_counts

    def held(rng, size):
        counts = chain_cell_counts(rng.random((size, l * n)), s, n, l)
        return np.all((counts >= lo) & (counts <= hi), axis=(1, 2))

    return _chunked(held, m, 256, seed)


def simulated_gamma(levels: np.ndarray, alpha: float) -> tuple[float, float]:
    """Gamma from simulated levels, the ceil(alpha * M)-th smallest
    capped at alpha, and the in-sample share of levels at or above it."""
    rank = max(1, math.ceil(alpha * levels.size))
    gamma = min(float(np.sort(levels)[rank - 1]), alpha)
    return gamma, float(np.mean(levels >= gamma))


def recorded_levels(monkeypatch, simulate):
    """``simulate()``'s result and the levels it took the quantile of."""
    seen = []
    quantile = bands_single._empirical_lower_quantile

    def spy(values, alpha):
        seen.append(values.copy())
        return quantile(values, alpha)

    monkeypatch.setattr(bands_single, "_empirical_lower_quantile", spy)
    res = simulate()
    (levels,) = seen
    return res, levels


def _t1_rows(u: np.ndarray) -> np.ndarray:
    n = u.shape[-1]
    srt = np.sort(u, axis=-1)
    expected = np.arange(1, n + 1) / (n + 1)
    return np.abs(srt - expected).sum(axis=-1) / n


def _w2_rows(u: np.ndarray) -> np.ndarray:
    n = u.shape[-1]
    srt = np.sort(u, axis=-1)
    centers = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
    return ((srt - centers) ** 2).sum(axis=-1) + 1.0 / (12.0 * n)


def _u2_rows(u: np.ndarray) -> np.ndarray:
    n = u.shape[-1]
    return _w2_rows(u) - n * (u.mean(axis=-1) - 0.5) ** 2


def _ks_rows(u: np.ndarray) -> np.ndarray:
    n = u.shape[-1]
    srt = np.sort(u, axis=-1)
    steps = np.arange(1, n + 1) / n
    upper = (steps - srt).max(axis=-1)
    lower = (srt - (steps - 1.0 / n)).max(axis=-1)
    return np.maximum(upper, lower)


ROW_STATS = {"T1": _t1_rows, "W2": _w2_rows, "U2": _u2_rows, "KS": _ks_rows}


def masked_transform(x, family: str, k: float):
    """The distortion of ``power.Transformation(family, k)``, each half
    of families B and C written to its own masked cells, and family C's
    endpoints 0 and 1 written as themselves."""
    xa = np.asarray(x, dtype=float)
    if family == "A":
        out = 1.0 - (1.0 - xa) ** k
    else:
        out = np.empty_like(xa)
        left = xa <= 0.5
        right = ~left
        scale = 2.0 ** (k - 1.0)
        if family == "B":
            out[left] = scale * xa[left] ** k
            out[right] = 1.0 - scale * (1.0 - xa[right]) ** k
        else:
            # near the endpoints the bent half can pass 0.5 by an ulp; the
            # transform clamps it there
            out[left] = 0.5 - np.minimum(scale * (0.5 - xa[left]) ** k, 0.5)
            out[right] = 0.5 + np.minimum(scale * (xa[right] - 0.5) ** k, 0.5)
            # the formula can miss an endpoint by an ulp; the transform fixes both
            out[xa == 0.0] = 0.0
            out[xa == 1.0] = 1.0
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def critical_value(stat: str, n: int, alpha: float, m: int, seed: int) -> float:
    """``power._critical_values`` of one statistic from its own null pass:
    2000 samples per chunk, drawn whole from the chunk's stream keyed by
    its first replicate."""
    pieces = [
        ROW_STATS[stat](bands_single._chunk_rng(seed, start).random((min(2000, m - start), n)))
        for start in range(0, m, 2000)
    ]
    values = np.concatenate(pieces)
    rank = int(np.ceil((1.0 - alpha) * m))
    return float(np.partition(values, rank - 1)[rank - 1])


def sweep_rates_whole_chunks(family, ks, n, l, replicates, seed, cvs, bands=None) -> dict:
    """``power_sweep``'s rates from whole chunks of 2000 replicates.

    ``cvs`` maps each classical statistic to its critical value, and
    ``bands`` (if given) are the band test's bands for l chains.  Each
    distorted chunk is counted whole: by ``searchsorted`` for one chain,
    by argsorting the pooled draws for several, of which only the first
    chain is distorted.
    """
    names = (["bands"] if bands is not None else []) + list(cvs)
    counts = {t: np.zeros(len(ks), dtype=np.int64) for t in names}
    for start in range(0, replicates, 2000):
        size = min(2000, replicates - start)
        base = bands_single._chunk_rng(seed, start // 2000).random((size, l * n))
        for j, k in enumerate(ks):
            sample = base.copy()
            sample[:, :n] = masked_transform(base[:, :n], family, k)
            if bands is not None:
                if l == 1:
                    cells = grid_cell_counts(sample, bands.grid.points)[:, None, :]
                else:
                    s = bands_multi._pooled_counts(bands.grid, n, l)
                    cells = chain_cell_counts(sample, s, n, l)
                out = (cells < bands.lower_counts) | (cells > bands.upper_counts)
                counts["bands"][j] += np.count_nonzero(np.any(out, axis=(1, 2)))
            for t, cv in cvs.items():
                counts[t][j] += np.count_nonzero(ROW_STATS[t](sample) > cv)
    return {t: tuple((c / replicates).tolist()) for t, c in counts.items()}


def parse_csv_rows(text: str, path: str) -> tuple[np.ndarray, int | None]:
    """``cli._parse_csv``'s table and resolution, read one row at a time."""
    resolution = None
    lines = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            if key.strip() == "resolution":
                value = value.strip()
                if not value.isdecimal() or int(value) < 1:
                    raise ValueError(
                        f"{path}: resolution must be a positive integer, got {value!r}"
                    )
                resolution = int(value)
            line = ""  # a blank line in its place keeps the reader's line numbers
        lines.append(line)
    reader = csv.reader(lines)
    rows = [(reader.line_num, row) for row in reader if row and any(c.strip() for c in row)]
    if not rows:
        raise ValueError(f"{path}: empty input")
    start = 0
    try:
        [float(c) for c in rows[0][1]]
    except ValueError:
        start = 1
    if start == len(rows):
        raise ValueError(f"{path}: no data rows")
    width = len(rows[start][1])
    data = []
    for ln, row in rows[start:]:
        if len(row) != width:
            raise ValueError(f"{path}:{ln}: ragged row ({len(row)} cells, expected {width})")
        try:
            data.append([float(c) for c in row])
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: non-numeric cell ({exc})") from exc
    return np.array(data, dtype=np.float64), resolution
