"""The interpolating gamma search against the bisection it replaced.

Coverage is a nonincreasing step function of gamma, so it has one last
step that reaches the target, and every search that keeps the bracket
(step ``lo`` reaches the target, step ``hi`` does not) ends on it.  The
program's search predicts its probes; ``oracles.search_steps_bisect``
bisects.  Both must return the same gamma and coverage, and the
prediction may only cost evaluations within the stated bound.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecdf_bands import bands_single
from ecdf_bands.bands_multi import gamma_optimize_multi
from ecdf_bands.bands_single import gamma_optimize
from ecdf_bands.transform import EvaluationGrid, default_grid
from oracles import search_steps_bisect


def optimize(n, l, grid, alpha):
    if l == 1:
        return gamma_optimize(n, grid, alpha)
    return gamma_optimize_multi(n, l, grid, alpha)


def searched_both_ways(n, l, grid, alpha):
    res = optimize(n, l, grid, alpha)
    with mock.patch.object(bands_single, "_search_steps", search_steps_bisect):
        ref = optimize(n, l, grid, alpha)
    assert res.gamma == ref.gamma
    assert res.attained_coverage == ref.attained_coverage
    assert res.meta["steps"] == ref.meta["steps"]
    return res, ref


def evaluation_bound(steps):
    # 2 * ceil(log2(S + 1)) + 1
    return 2 * steps.bit_length() + 1


@st.composite
def shapes(draw):
    l = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(1, {1: 40, 2: 16, 3: 5}[l]))
    denom = draw(st.integers(1, 24))
    numerators = draw(st.sets(st.integers(1, denom), min_size=1, max_size=8))
    grid = EvaluationGrid(np.array(sorted(numerators)) / denom)
    alpha = draw(st.floats(0.01, 0.5))
    return n, l, grid, alpha


@settings(max_examples=150, deadline=None)
@given(shapes())
def test_search_matches_bisection_within_the_evaluation_bound(shape):
    res, _ = searched_both_ways(*shape)
    assert res.meta["evaluations"] <= evaluation_bound(res.meta["steps"])


@st.composite
def step_curves(draw):
    """Any nonincreasing coverage over S steps that starts at or above
    the target: runs of equal coverage, a leading run of coverage 1 (no
    logarithm), single drops past the target, and exact ties with it."""
    alpha = draw(st.floats(0.01, 0.5))
    size = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    breaks = np.unique(rng.uniform(0.0, alpha, size - 1))
    breaks = breaks[breaks > 0.0]
    moves = rng.random(breaks.size + 1) < draw(st.floats(0.01, 1.0))
    jumps = rng.exponential(size=breaks.size + 1) * moves
    jumps[: draw(st.integers(1, breaks.size + 1))] = 0.0
    miss = np.cumsum(jumps)
    if miss[-1] > 0.0:
        miss *= draw(st.floats(0.0, 4.0)) * alpha / miss[-1]
    cover = 1.0 - miss
    if draw(st.booleans()):
        cover[rng.integers(cover.size)] = 1.0 - alpha
        cover = np.sort(cover)[::-1]
    cover[0] = max(cover[0], 1.0 - alpha)
    floor = float(breaks[0]) if breaks.size else alpha / 2.0
    return breaks, cover, alpha, floor


@settings(max_examples=300, deadline=None)
@given(step_curves())
def test_search_keeps_the_bracket_on_any_monotone_curve(curve):
    breaks, cover, alpha, floor = curve
    edges = np.append(0.0, breaks)

    def coverage_fn(gamma):
        return cover[np.searchsorted(edges, gamma, side="right") - 1]

    # F = break / 2 puts each breakpoint 2 * min(F, 1 - F) back on break
    got = bands_single._search_steps(coverage_fn, breaks / 2.0, alpha, floor)
    want = search_steps_bisect(coverage_fn, breaks / 2.0, alpha, floor)
    assert got[3] == want[3] == cover.size
    assert got[:2] == want[:2]
    assert got[2] <= evaluation_bound(got[3])


EXACT_COLD_SHAPES = (
    [(n, 1) for n in range(251, 442, 10)]
    + [(n, 2) for n in range(41, 157, 5)]
    + [(n, 3) for n in range(23, 27)]
)


@pytest.mark.parametrize("n, l", EXACT_COLD_SHAPES)
def test_search_needs_no_more_evaluations_than_bisection(n, l):
    grid = default_grid(n, l * n if l > 1 else None)
    res, ref = searched_both_ways(n, l, grid, 0.05)
    assert res.meta["evaluations"] <= ref.meta["evaluations"]


def test_three_chain_search_at_n_250_is_pinned():
    # bisection takes 11 evaluations for the same gamma and coverage;
    # gamma and the step count moved when the chain table came to be
    # summed from each tail, which drops slivers the left-to-right sums'
    # rounding made.  Coverage lies within 1.3e-13 of the exact value,
    # 0.9502505358330133
    res = gamma_optimize_multi(250, 3, default_grid(250, 750), 0.05)
    assert res.gamma == 0.0011548384712834474
    assert res.attained_coverage == 0.9502505358328839
    assert res.meta["evaluations"] < 10
    assert res.meta["steps"] == 1295


@pytest.mark.parametrize(
    "n, gamma, coverage",
    [
        (23, 0.004237304389198978, 0.9497581638802636),
        (24, 0.004688941184487521, 0.9502480230303837),
        (25, 0.004461543000670475, 0.9518629265268358),
        (26, 0.004253050245395642, 0.9514617031734766),
        (50, 0.0022744128874891785, 0.9494855789744981),
        (100, 0.0014760590353728358, 0.9499933654475835),
    ],
)
def test_three_chain_search_is_pinned(n, gamma, coverage):
    # coverage as the pass gives it with each step's normalizer from
    # Stirling's formula, half a pass where the bounds reflect; a change in
    # how the pass rounds may move coverage in its last bits (it lies
    # within 4e-13 of the exact values here), never gamma.  Gamma is
    # pinned on the chain table summed from each tail: the table summed
    # from the left only put
    # breakpoints that are equal in exact arithmetic up to 3e-11 apart,
    # and at n = 25 and 26 the search stopped on such a sliver
    res = gamma_optimize_multi(n, 3, default_grid(n, 3 * n), 0.05)
    assert res.gamma == gamma
    assert res.attained_coverage == pytest.approx(coverage, rel=0.0, abs=1e-15)
