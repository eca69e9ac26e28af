"""Exact-arithmetic oracles for the distribution kernels and tables.

Every probability here is recomputed independently with Fraction and
math.comb, so the tests check the numerics against values that carry no
floating-point error of their own.  The checks cover the log-factorial
kernel and Loader's binomial mass in ``dist``, the padded tables the
bands read (binomial in ``bands_single``, hypergeometric in
``bands_multi`` at the shapes the program builds: n successes,
(l - 1) * n failures) and the per-row reference routes in ``oracles``.

The binomial table is checked cell by cell: a cell with F <= 1/2 within
1e-13 of F, relative, and one with F > 1/2 within 1e-13 of its upper
tail 1 - F plus 2 ulps, which is "a few ulps of F" in the range the
exact search reads.  Against the exact law at n <= 40 this holds at
every cell with F >= 1e-290, with 4e-16 * |log F| more in the deep
lower tail, where a mass of about e^-x takes about x ulps from its
exponential; against ``oracles.binom_cdf_table``
(``betainc``) at large n it holds where the search reads,
2 * min(F, 1 - F) in [alpha / 2K, alpha], with a looser bound at
n = 20 000 where ``betainc`` itself is off by up to 1.5e-13.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from ecdf_bands import dist
from ecdf_bands.bands_multi import _pooled_counts
from ecdf_bands.bands_single import _cdf_matrix
from ecdf_bands.transform import default_grid
from oracles import (
    binom_cdf,
    binom_cdf_table,
    binom_logpmf,
    binom_quantile,
    hyper_cdf,
    assert_chain_rows_match_exact_cdfs,
    chain_table,
    hyper_quantile,
    hyper_support,
)


def exact_binom_pmf(k: int, n: int, p: Fraction) -> Fraction:
    if k < 0 or k > n:
        return Fraction(0)
    return math.comb(n, k) * p**k * (1 - p) ** (n - k)


def exact_binom_cdf(k: int, n: int, p: Fraction) -> Fraction:
    return sum(exact_binom_pmf(j, n, p) for j in range(0, min(k, n) + 1))


def exact_hyper_pmf(k: int, succ: int, fail: int, draws: int) -> Fraction:
    if k < 0 or k > succ or draws - k < 0 or draws - k > fail:
        return Fraction(0)
    return Fraction(
        math.comb(succ, k) * math.comb(fail, draws - k),
        math.comb(succ + fail, draws),
    )


def all_pooled_counts(n: int, l: int) -> tuple:
    """Every pooled count 0..l*n, one table row each."""
    return tuple(range(l * n + 1))


def test_log_factorial_table_matches_lgamma():
    table = dist.log_factorial_table(25)
    assert table.shape[0] >= 26
    for k in (0, 1, 2, 7, 19, 25):
        assert table[k] == pytest.approx(math.lgamma(k + 1), rel=1e-14)
    assert not table.flags.writeable


def test_log_factorial_table_matches_exact_log_factorials():
    table = dist.log_factorial_table(3000)
    assert table.shape[0] >= 3001
    assert table[0] == table[1] == 0.0
    for k in (*range(2, 40), 999, 1000, 1001, 2999, 3000):
        # math.log of the exact integer k! is correctly rounded to a few ulps
        assert table[k] == pytest.approx(math.log(math.factorial(k)), rel=4e-16, abs=0.0), k
    assert not table.flags.writeable


def test_stirling_remainder_matches_exact_log_factorials():
    # stirlerr(k) = log k! - (k + 1/2) log k + k - log sqrt(2 pi): the
    # difference of the big terms is taken in exact rational arithmetic
    # on doubles near the exact logs, which is good to about 1e-15 here
    ks = np.array([1, 2, 5, 15, 16, 17, 40, 999, 1000, 5000])
    got = dist.stirlerr(ks)
    for k, value in zip(ks.tolist(), got):
        logs = [math.log(math.factorial(k)), -(k + 0.5) * math.log(k), float(k), -0.5 * math.log(2 * math.pi)]
        want = math.fsum(logs)
        assert value == pytest.approx(want, rel=0.0, abs=2e-15 * max(1.0, math.log(math.factorial(k)))), k
        assert 0.0 < value < 1.0 / (12 * k) + 1e-17


def test_log_factorial_table_grows_and_keeps_old_values():
    small = dist.log_factorial_table(10)
    big = dist.log_factorial_table(small.shape[0] + 50)
    assert big.shape[0] > small.shape[0]
    np.testing.assert_allclose(big[: small.shape[0]], small, rtol=0, atol=0)


def test_log_choose_exact_values():
    ns = np.array([0, 1, 5, 12, 40, 40])
    ks = np.array([0, 1, 2, 12, 17, 40])
    got = dist.log_choose(ns, ks)
    want = [math.log(math.comb(int(n), int(k))) for n, k in zip(ns, ks)]
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_log_choose_out_of_range_is_minus_inf():
    got = dist.log_choose([5, 5, -1], [6, -1, 0])
    assert np.all(np.isneginf(got))


def test_binom_logpmf_against_fraction_oracle():
    p = Fraction(3, 10)
    for n in (1, 4, 9, 23):
        for k in range(n + 1):
            want = math.log(exact_binom_pmf(k, n, p))
            got = float(binom_logpmf(k, n, 0.3))
            assert got == pytest.approx(want, rel=1e-12), (n, k)


def test_binom_logpmf_point_mass_edges():
    assert float(binom_logpmf(0, 7, 0.0)) == 0.0
    assert np.isneginf(binom_logpmf(1, 7, 0.0))
    assert float(binom_logpmf(7, 7, 1.0)) == 0.0
    assert np.isneginf(binom_logpmf(6, 7, 1.0))
    assert np.isneginf(binom_logpmf(-1, 7, 0.5))
    assert np.isneginf(binom_logpmf(8, 7, 0.5))


def test_binom_cdf_against_fraction_oracle():
    p = Fraction(1, 4)
    n = 13
    for k in range(n + 1):
        want = float(exact_binom_cdf(k, n, p))
        assert binom_cdf(k, n, 0.25) == pytest.approx(want, rel=1e-12)
    assert binom_cdf(-1, n, 0.25) == 0.0
    assert binom_cdf(n + 3, n, 0.25) == 1.0
    assert binom_cdf(n, n, 0.25) == 1.0


def test_binom_cdf_deep_tail_keeps_relative_accuracy():
    # far left tail of Binomial(200, 0.7): mass around 1e-48
    want = float(exact_binom_cdf(60, 200, Fraction(7, 10)))
    got = binom_cdf(60, 200, 0.7)
    assert got == pytest.approx(want, rel=1e-9)


def test_binom_cdf_table_matches_scalar_and_ends_at_one():
    n = 37
    table = binom_cdf_table(n, 0.42)
    assert table.shape == (n + 1,)
    assert table[-1] == 1.0
    assert not table.flags.writeable
    for k in (0, 3, 18, 36):
        assert table[k] == pytest.approx(binom_cdf(k, n, 0.42), rel=1e-13)
    assert np.all(np.diff(table) >= 0.0)


def test_binom_quantile_galois_property():
    # quantile(q) is the smallest k with cdf(k) >= q, so k >= quantile(q)
    # must hold exactly when cdf(k) >= q
    n, p = 19, 0.37
    table = binom_cdf_table(n, p)
    for q in (1e-9, 0.025, 0.2, 0.5, 0.8, 0.975, 1.0 - 1e-12, 1.0):
        kq = binom_quantile(q, n, p)
        for k in range(n + 1):
            assert (table[k] >= q) == (k >= kq), (q, k)


def test_binom_quantile_zero_maps_to_bottom():
    assert binom_quantile(0.0, 11, 0.3) == 0
    assert binom_quantile(1.0, 11, 0.3) == 11
    assert binom_quantile(0.5, 0, 0.3) == 0


def test_hyper_support_bounds():
    assert hyper_support(4, 6, 3) == (0, 3)
    assert hyper_support(4, 2, 5) == (3, 4)
    assert hyper_support(0, 5, 3) == (0, 0)
    # full rows: CDF exactly 0 below the support and 1 from its top on
    for n, l in ((4, 2), (3, 3), (2, 4)):
        rest = (l - 1) * n
        s = all_pooled_counts(n, l)
        table, floor = chain_table(n, l, s)
        cdf = table.cells
        for i, si in enumerate(s):
            lo, hi = max(0, si - rest), min(n, si)
            assert floor[i] == lo
            assert np.all(cdf[i, :lo] == 0.0) and np.all(cdf[i, hi:] == 1.0)
            assert np.all(cdf[i, lo:hi] > 0.0)


def test_hyper_logpmf_against_fraction_oracle():
    # the chains' mass in the kernel's form, b(k; n, p) b(s - k; rest, p)
    # / b(s; l n, p) at p = s / (l n), from one call with an array of
    # sizes, against the exact log mass
    n, l = 6, 3
    rest = (l - 1) * n
    for si in all_pooled_counts(n, l):
        q = 1.0 - si / (l * n)
        p = 1.0 - q
        k = np.arange(max(0, si - rest), min(n, si) + 1)
        m = k.size
        terms = dist.binom_log_pmf(
            np.concatenate((k, si - k, [si])), np.repeat([n, rest, l * n], [m, m, 1]), np.full(2 * m + 1, p), np.full(2 * m + 1, q)
        )
        got = terms[:m] + terms[m : 2 * m] - terms[-1]
        for kk, g in zip(k.tolist(), got.tolist()):
            want = exact_hyper_pmf(kk, n, rest, si)
            assert g == pytest.approx(math.log(want), rel=1e-12, abs=1e-14), (si, kk)


def test_hyper_cdf_table_sums_pmf_exactly():
    n, l = 5, 3
    s = all_pooled_counts(n, l)
    cdf = chain_table(n, l, s)[0].cells
    assert cdf.shape == (len(s), n + 1)
    for i, si in enumerate(s):
        acc = Fraction(0)
        for k in range(n + 1):
            acc += exact_hyper_pmf(k, n, 2 * n, si)
            assert cdf[i, k] == pytest.approx(float(acc), rel=1e-12), (si, k)
        assert cdf[i, -1] == 1.0


@pytest.mark.parametrize("n, l", [(100, 2), (156, 2), (26, 3)])
def test_chain_table_matches_exact_cdfs_on_default_grids(n, l):
    # both tails of every row the exact-cold search reads, with the
    # support's ends
    s = _pooled_counts(default_grid(n, l * n), n, l)
    assert_chain_rows_match_exact_cdfs(n, l, [0, *s.tolist()])


def test_hyper_cdf_clamps_outside_support():
    succ, fail, draws = 4, 2, 5  # support is {3, 4}
    assert hyper_cdf(2, succ, fail, draws) == 0.0
    assert hyper_cdf(4, succ, fail, draws) == 1.0
    assert hyper_cdf(9, succ, fail, draws) == 1.0
    want = float(exact_hyper_pmf(3, succ, fail, draws))
    assert hyper_cdf(3, succ, fail, draws) == pytest.approx(want, rel=1e-12)


def test_hyper_quantile_galois_property():
    succ, fail, draws = 10, 15, 12
    lo, hi = hyper_support(succ, fail, draws)
    for q in (1e-12, 0.05, 0.31, 0.5, 0.93, 1.0):
        kq = hyper_quantile(q, succ, fail, draws)
        assert lo <= kq <= hi
        for k in range(lo, hi + 1):
            assert (hyper_cdf(k, succ, fail, draws) >= q) == (k >= kq)


def test_hyper_quantile_zero_returns_support_bottom():
    # bottom of the support is draws - fail when draws exceed failures
    assert hyper_quantile(0.0, 4, 2, 5) == 3
    assert hyper_quantile(0.0, 4, 6, 3) == 0


def _param(z: float) -> Fraction:
    """The binomial parameter of a table row at grid point z: 1 - fl(1 - z)."""
    return 1 - Fraction(1.0 - z)


def _log(x: Fraction) -> float:
    """log of a positive Fraction, however small: x = y * 2**e with y in
    [1, 2), whose float is correctly rounded."""
    e = x.numerator.bit_length() - x.denominator.bit_length()
    y = x / Fraction(2) ** e
    if y < 1:
        y, e = 2 * y, e - 1
    return math.log(float(y)) + e * math.log(2.0)


def _assert_cdf_cells_close(got: float, want: Fraction, where):
    if want <= Fraction(1, 2):
        # a mass of about e^-x takes about x ulps from its exponential
        rel = 1e-13 + 4e-16 * abs(_log(want))
        assert abs(Fraction(got) - want) <= Fraction(rel) * want, where
    else:
        tol = Fraction(1e-13) * (1 - want) + 2 * Fraction(np.spacing(float(want)))
        assert abs(Fraction(got) - want) <= tol, where


GRIDS = {
    "lattice": [tuple(i / k for i in range(1, k + 1)) for k in (1, 2, 3, 7, 10, 12, 24)],
    "primes": [tuple(i / k for i in range(1, k + 1)) for k in (5, 11, 13, 31)],
    "off lattice": [(1 / 3, 2 / 7, 0.123456789, 0.5, 0.87654321, 0.999)],
    "near 0 and 1": [(5e-324, 1e-300, 1e-9, 2.0**-40, 0.5, 1.0 - 2.0**-40, 1.0 - 1e-9, 1.0 - 2.0**-52, 1.0)],
}


@pytest.mark.parametrize("kind", list(GRIDS))
@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 17, 25, 40])
def test_binomial_table_matches_exact_cdfs(n, kind):
    for key in GRIDS[kind]:
        table = _cdf_matrix(n, key).cells
        for i, z in enumerate(key):
            p = _param(z)
            acc = Fraction(0)
            for k in range(n + 1):
                acc += exact_binom_pmf(k, n, p)
                if acc >= Fraction(1e-290):
                    _assert_cdf_cells_close(float(table[i, k]), acc, (n, z, k))
            assert table[i, n] == 1.0
            assert np.all(np.diff(table[i]) >= 0.0)


@pytest.mark.parametrize("n, q", [(40, 2.0**-25), (100, 2.0**-10), (1000, 0.5)])
def test_full_table_is_positive_where_the_exact_cdf_reaches_two_to_the_minus_1000(n, q):
    # F(0) = q**n = 2**-1000 exactly at these shapes
    z = 1.0 - q
    assert Fraction(1.0 - z) ** n == Fraction(2) ** -1000
    row = _cdf_matrix(n, (z,)).cells[0]
    assert np.all(row > 0.0)
    assert row[0] == pytest.approx(2.0**-1000, rel=1e-13)


def test_loader_mass_matches_exact_log_mass():
    for n in (1, 2, 7, 40):
        for z in (1e-9, 0.1, 1 / 3, 0.5, 0.77, 1.0 - 1e-9):
            p = _param(z)
            k = np.arange(n + 1)
            got = dist.binom_log_pmf(k, n, np.full(k.size, float(p)), np.full(k.size, float(1 - p)))
            for kk in range(n + 1):
                want = exact_binom_pmf(kk, n, p)
                assert got[kk] == pytest.approx(_log(want), rel=4e-16, abs=4e-15), (n, z, kk)
    assert np.isneginf(dist.binom_log_pmf(np.array([1]), 5, np.array([0.0]), np.array([1.0])))[0]
    assert dist.binom_log_pmf(np.array([0]), 5, np.array([0.0]), np.array([1.0]))[0] == 0.0


@pytest.mark.parametrize("n", [251, 351, 441, 1000, 5000, 20_000])
def test_binomial_table_matches_betainc_where_the_search_reads(n):
    from ecdf_bands.transform import default_grid

    alpha, key = 0.05, tuple(float(z) for z in default_grid(n).points)
    table = _cdf_matrix(n, key).cells
    want = np.stack([binom_cdf_table(n, z) for z in key])
    level = 2.0 * np.minimum(want, 1.0 - want)
    read = (level >= alpha / (2 * len(key))) & (level <= alpha)
    lower = read & (want <= 0.5)
    upper = read & (want > 0.5)
    assert lower.sum() > 100 and upper.sum() > 100
    bound = 1e-13 if n <= 5000 else 2e-13
    assert np.all(np.abs(table[lower] - want[lower]) <= bound * want[lower])
    slack = bound * (1.0 - want[upper]) + 2 * np.spacing(want[upper])
    assert np.all(np.abs(table[upper] - want[upper]) <= slack)


def test_binomial_table_beats_betainc_against_exact_sums_at_n_20000():
    # the cells where betainc and the table differ most at n = 20 000 on
    # the K = 1000 lattice: the table is within 2e-15 of the exact sums
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    n = 20_000
    for i, k in ((698, 13720), (377, 7300), (334, 6426)):
        z = (i + 1) / 1000
        got = float(_cdf_matrix(n, (z,)).cells[0, k])
        p = mpmath.mpf(float(_param(z)))
        q = 1 - p
        term = q**n
        total = term
        for j in range(1, k + 1):
            term = term * (n - j + 1) / j * p / q
            total += term
        assert abs(got / total - 1) < 2e-15, (z, k)
