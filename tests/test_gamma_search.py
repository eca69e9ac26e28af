"""The exact gamma search against a brute-force scan of every coverage step.

Coverage is a step function of gamma that can only change where gamma/2
or 1 - gamma/2 meets a value of the band's CDF tables.  The oracle here
lists those breakpoints from the distribution tables, evaluates one gamma
inside every step in (0, alpha], and keeps the smallest distance to the
target.  The search must reach that distance.  For one sample the
breakpoints come from the program's full binomial table, which
``test_dist`` checks against exact and ``betainc`` values: within those
tolerances, breakpoints that are equal in exact arithmetic can fall in
either order, and each order has its own slivers of coverage.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecdf_bands.bands_multi import _pooled_counts, coverage_probability_multi, gamma_optimize_multi
from ecdf_bands.bands_single import _cdf_matrix, coverage_probability, gamma_optimize
from ecdf_bands.transform import EvaluationGrid, default_grid
from oracles import chain_table

# exact coverage differs by a few 1e-15 between steps that are really equal
GAP_TOL = 1e-12


def cdf_values(n, l, grid):
    """Every CDF value the bands at (n, l, grid) are read from."""
    if l == 1:
        return _cdf_matrix(n, tuple(float(z) for z in grid.points)).cells.ravel()
    return chain_table(n, l, _pooled_counts(grid, n, l))[0].cells.ravel()


def brute_force_best_gap(n, l, grid, alpha, coverage):
    f = cdf_values(n, l, grid)
    breaks = np.concatenate((2.0 * f, 2.0 * (1.0 - f)))
    edges = np.unique(np.append(breaks[(breaks > 0.0) & (breaks < alpha)], 0.0))
    gammas = np.append((edges[:-1] + edges[1:]) / 2.0, alpha)
    return min(abs(coverage(float(g)) - (1.0 - alpha)) for g in gammas)


def check_search_is_exact(n, l, grid, alpha):
    if l == 1:
        res = gamma_optimize(n, grid, alpha)
        coverage = lambda g: coverage_probability(n, grid, g)  # noqa: E731
    else:
        res = gamma_optimize_multi(n, l, grid, alpha)
        coverage = lambda g: coverage_probability_multi(n, l, grid, g)  # noqa: E731
    assert 0.0 < res.gamma <= alpha
    assert res.attained_coverage == coverage(res.gamma)
    best = brute_force_best_gap(n, l, grid, alpha, coverage)
    assert abs(abs(res.attained_coverage - (1.0 - alpha)) - best) <= GAP_TOL


@st.composite
def shapes(draw, max_n):
    n = draw(st.integers(1, max_n))
    denom = draw(st.integers(1, 24))
    numerators = draw(st.sets(st.integers(1, denom), min_size=1, max_size=8))
    grid = EvaluationGrid(np.array(sorted(numerators)) / denom)
    alpha = draw(st.floats(0.01, 0.5))
    return n, grid, alpha


@settings(max_examples=200, deadline=None)
@given(shapes(max_n=40))
# betainc puts a mirrored pair of breakpoints here in the other order
@example((11, EvaluationGrid(np.arange(1, 9) / 12), 0.40625))
def test_single_sample_search_finds_the_best_step(shape):
    n, grid, alpha = shape
    check_search_is_exact(n, 1, grid, alpha)


@settings(max_examples=100, deadline=None)
@given(shapes(max_n=16))
def test_two_chain_search_finds_the_best_step(shape):
    n, grid, alpha = shape
    check_search_is_exact(n, 2, grid, alpha)


@settings(max_examples=40, deadline=None)
@given(shapes(max_n=5))
def test_three_chain_search_finds_the_best_step(shape):
    n, grid, alpha = shape
    check_search_is_exact(n, 3, grid, alpha)


@pytest.mark.parametrize("n, l", [(101, 2), (131, 2), (26, 3)])
def test_search_reaches_the_close_steps_on_default_grids(n, l):
    # the steps 0.0014, 0.0022 and 0.0006 from the target exist here
    res = gamma_optimize_multi(n, l, default_grid(n, l * n), 0.05)
    assert abs(res.attained_coverage - 0.95) <= 0.003
