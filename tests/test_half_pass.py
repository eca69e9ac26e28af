"""Coverage from half a forward pass, for one sample and for two and
three chains.

When the problem maps onto itself under reversal and the count bounds
reflect (lower_i = n - upper_{K-i}), ``bands_single._half_or_full_mass``
runs the pass over the first ceil(K/2) points and joins its states
after floor(K/2) and ceil(K/2) steps.  For one sample the grid must map
onto itself under z -> 1 - z (``bands_single._band_mass``); for chains
the distinct pooled counts must mirror, s_K = l n and
s_i + s_{K-i} = l n (``bands_multi._chain_mass``).  Every other problem
runs the full pass, which stays the reference here: the half route must
agree with it to the convolution route's tolerance against the matrix
recursion, and each problem must take the route its grid and bounds
call for.  For chains both routes are also held to the exact coverage
in integer arithmetic (``oracles.exact_chain_coverage``).
"""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from ecdf_bands import _forward, bands_single
from ecdf_bands.bands_multi import _chain_factors, _chain_mass, _pooled_counts, gamma_optimize_multi
from ecdf_bands.bands_single import (
    _band_mass,
    _cdf_matrix,
    _count_bounds,
    _grid_key,
    _single_factors,
    _step_gammas,
    coverage_probability,
    gamma_optimize,
)
from ecdf_bands.transform import EvaluationGrid, default_grid
from oracles import exact_chain_coverage

ROUTES = ("half", "full")


def routed_mass(*args, mass=_band_mass):
    """``mass(*args)``, ``_band_mass`` by default, and the one route it
    took."""
    before = [_forward.route_count(r) for r in ROUTES]
    got = mass(*args)
    taken = [r for r, b in zip(ROUTES, before) if _forward.route_count(r) > b]
    assert len(taken) == 1
    return got, taken[0]


def full_mass(n, key, lo, hi):
    """The full pass."""
    return _forward.forward_mass(*_single_factors(n, key, lo, hi))


def reflects(n, z, lo, hi):
    """The mirror condition, stated apart from the program's check."""
    k = z.size
    ulps = 4 * np.finfo(np.float64).eps
    grid_ok = k >= 2 and z[-1] == 1.0 and all(abs(z[i] + z[k - 2 - i] - 1.0) <= ulps for i in range(k - 1))
    return grid_ok and hi[-1] == n and all(lo[i] == n - hi[k - 2 - i] for i in range(k - 1))


@st.composite
def problems(draw):
    """A sample size, a grid and a gamma from the exact search's own
    candidates (one per coverage step, slivers included)."""
    n = draw(st.integers(1, 400), label="n")
    if draw(st.booleans(), label="resolution grid"):
        grid = default_grid(n, draw(st.integers(1, 2 * n + 1), label="resolution"))
    else:
        k = draw(st.integers(1, min(n, 60)), label="K")
        pts = np.sort(draw(st.lists(st.floats(1e-3, 0.999), min_size=k, max_size=k, unique=True)))
        if draw(st.booleans(), label="nearly mirrored"):
            # a mirrored grid moved off its mirror by far more than a few ulps
            pts = np.unique(np.concatenate((pts, 1.0 - pts))) + 1e-9
        grid = EvaluationGrid(np.append(pts[pts < 1.0], 1.0) if draw(st.booleans()) else pts)
    alpha = draw(st.floats(0.01, 0.5), label="alpha")
    key = _grid_key(grid)
    gammas = _step_gammas(_cdf_matrix(n, key, alpha / grid.size).cells, alpha, alpha / grid.size)
    gamma = float(gammas[draw(st.integers(0, gammas.size - 1), label="step")])
    return n, grid, gamma


@settings(max_examples=150, deadline=None)
@given(problems())
@example((281, default_grid(281), 0.0034146416020924414))
@example((60, default_grid(60, 61), 0.01))
def test_half_route_matches_the_full_pass_and_is_taken_when_the_problem_reflects(problem):
    n, grid, gamma = problem
    key = _grid_key(grid)
    lo, hi = _count_bounds(_cdf_matrix(n, key), gamma)
    got, route = routed_mass(n, key, lo, hi)
    want = full_mass(n, key, lo, hi)
    if reflects(n, grid.points, lo, hi):
        assert route == "half"
    else:
        assert route == "full"
        assert got == want
    assert got == pytest.approx(want, rel=5e-12, abs=1e-300)


def test_resolution_grids_reflect_and_off_lattice_grids_do_not():
    n = 50
    for grid in (default_grid(n), default_grid(n, 20), default_grid(n, 7), EvaluationGrid([0.5, 1.0])):
        assert bands_single._mirrored(_grid_key(grid))
    for pts in ([0.2, 0.55, 0.8], [0.25, 0.5, 0.75], [0.25, 0.5, 0.75 + 1e-9, 1.0], [1.0]):
        assert not bands_single._mirrored(tuple(pts))


@pytest.mark.parametrize(
    "n, grid, gamma",
    [
        (4, EvaluationGrid([0.25, 0.5, 0.75, 1.0]), 0.2),
        (4, EvaluationGrid(np.arange(1, 6) / 5), 0.3),
        (5, EvaluationGrid([0.2, 0.55, 0.8]), 0.15),
    ],
)
def test_enumeration_grids_take_the_route_their_bounds_call_for(n, grid, gamma):
    # the tiny-n enumeration tests in test_bands_single check both routes
    key = _grid_key(grid)
    lo, hi = _count_bounds(_cdf_matrix(n, key), gamma)
    _, route = routed_mass(n, key, lo, hi)
    assert route == ("half" if reflects(n, grid.points, lo, hi) else "full")
    assert route == ("full" if grid.size == 3 else "half")


def test_a_half_pass_out_of_double_range_stays_half_and_counts_one_dense_pass(monkeypatch, caplog):
    n, grid = 40, default_grid(40)
    lo, hi = _count_bounds(_cdf_matrix(n, _grid_key(grid)), 0.01)
    assert reflects(n, grid.points, lo, hi)
    want = coverage_probability(n, grid, 0.01)
    monkeypatch.setattr(_forward, "_EXP_GUARD", -1.0)
    routes = (*ROUTES, "dense")
    before = [_forward.route_count(r) for r in routes]
    with caplog.at_level("DEBUG", logger="ecdf_bands"):
        got = coverage_probability(n, grid, 0.01)
    assert [_forward.route_count(r) - b for r, b in zip(routes, before)] == [1, 0, 1]
    assert len(caplog.records) == 1
    assert got == pytest.approx(want, rel=1e-11)


def test_search_runs_one_pass_per_distinct_band():
    # a shape where the memo serves two probes
    n, grid = 281, default_grid(281)
    calls = []
    real = bands_single._band_mass

    def counted(*args):
        calls.append((args[2].tobytes(), args[3].tobytes()))
        return real(*args)

    with mock.patch.object(bands_single, "_band_mass", counted):
        res = gamma_optimize(n, grid, 0.05)
    assert len(calls) == len(set(calls)) == res.meta["passes"]
    assert res.meta["evaluations"] > res.meta["passes"]


# gamma and attained coverage of the exact search on exact-cold's
# one-column shapes (default grid, alpha = 0.05), gamma from the binomial
# table summed from Loader's mass; coverage as the search before the half
# pass found it, but at 291, where the new table's breakpoints moved the
# search to another step
EXACT_COLD_ONE_COLUMN = [
    (251, 0.0034109618731166793, 0.950000803357569),
    (261, 0.003294381308867912, 0.9499482293012517),
    (271, 0.0031068881073117267, 0.9499624213284653),
    (281, 0.003414641602092431, 0.9500220046299783),
    (291, 0.0030998256741900927, 0.9499143706866511),
    (301, 0.0031475945679700877, 0.9500206743974127),
    (311, 0.0030950698411624806, 0.9500246478977752),
    (321, 0.003060413040622779, 0.9496666540869234),
    (331, 0.0030022825256787503, 0.9500432266160443),
    (341, 0.003117330419086752, 0.9499187105415245),
    (351, 0.0029982963767384296, 0.9502733916264334),
    (361, 0.00292937468487085, 0.9500085787970329),
    (371, 0.003062697138494581, 0.94993579138403),
    (381, 0.003124615814224483, 0.9500027344577068),
    (391, 0.0029239253534176775, 0.9499278402160997),
    (401, 0.0030467126389043205, 0.9500457924716944),
    (411, 0.0030343374103007654, 0.9500635676831138),
    (421, 0.002831851599116191, 0.9500328990418547),
    (431, 0.0030050257959845328, 0.9499651654094173),
    (441, 0.002886279690549296, 0.9499295585778054),
]


@pytest.mark.parametrize("n, gamma, coverage", EXACT_COLD_ONE_COLUMN)
def test_exact_cold_one_column_gamma_is_pinned(n, gamma, coverage):
    res = gamma_optimize(n, default_grid(n), 0.05)
    assert res.gamma == gamma
    assert res.attained_coverage == pytest.approx(coverage, rel=0.0, abs=1e-12)
    assert res.meta["passes"] <= res.meta["evaluations"]


def chain_bounds(n, l, s, gamma):
    """The chains' count bounds at gamma, from the full table."""
    table = _cdf_matrix(n, tuple(s.tolist()), 0.0, l)
    return _count_bounds(table, gamma, np.maximum(s - (l - 1) * n, 0))


def chain_full_mass(n, l, s, lo, hi):
    """The full pass over the distinct pooled counts."""
    keep = np.concatenate(([True], s[1:] != s[:-1]))
    return _forward.forward_mass(*_chain_factors(n, l, s[keep], lo[keep], hi[keep]))


def chain_reflects(n, l, s, lo, hi):
    """The chains' mirror condition on the distinct pooled counts, stated
    apart from the program's check."""
    keep = [0] + [i for i in range(1, s.size) if s[i] != s[i - 1]]
    s, lo, hi = s[keep], lo[keep], hi[keep]
    k = s.size
    counts_ok = k >= 2 and s[-1] == l * n and all(s[i] + s[k - 2 - i] == l * n for i in range(k - 1))
    return counts_ok and hi[-1] == n and all(lo[i] == n - hi[k - 2 - i] for i in range(k - 1))


@st.composite
def chain_problems(draw):
    """Chains, a grid whose pooled counts mirror (or are moved off their
    mirror), some of its points sharing a pooled count, and a gamma from
    the exact search's candidates."""
    l = draw(st.sampled_from([2, 3]), label="chains")
    n = draw(st.integers(1, 60 if l == 2 else 16), label="n")
    total = l * n
    if draw(st.booleans(), label="default grid"):
        points = default_grid(n, total).points
    else:
        half = draw(st.lists(st.integers(1, total // 2), min_size=1, max_size=20, unique=True), label="counts")
        counts = np.unique(np.concatenate((half, total - np.array(half, dtype=np.int64), [total])))
        if draw(st.booleans(), label="off the mirror"):
            # one more count, whose mirror is most often missing
            counts = np.unique(np.append(counts, draw(st.integers(1, total), label="extra")))
        points = counts / total
        if draw(st.booleans(), label="shared pooled count"):
            # a second point with the pooled count of the first
            points = np.unique(np.append(points, points[0] + 0.1 / total))
    grid = EvaluationGrid(points)
    s = _pooled_counts(grid, n, l)
    alpha = draw(st.floats(0.01, 0.5), label="alpha")
    floor = alpha / (l * grid.size)
    gammas = _step_gammas(_cdf_matrix(n, tuple(s.tolist()), floor, l).cells, alpha, floor)
    gamma = float(gammas[draw(st.integers(0, gammas.size - 1), label="step")])
    return n, l, s, gamma


@settings(max_examples=120, deadline=None)
@given(chain_problems())
@example((156, 2, _pooled_counts(default_grid(156, 312), 156, 2), 0.004554255509887813))
@example((26, 3, _pooled_counts(default_grid(26, 78), 26, 3), 0.004253050245395642))
def test_chain_half_route_matches_the_full_pass_and_is_taken_when_the_problem_reflects(problem):
    n, l, s, gamma = problem
    lo, hi = chain_bounds(n, l, s, gamma)
    got, route = routed_mass(n, l, s, lo, hi, mass=_chain_mass)
    want = chain_full_mass(n, l, s, lo, hi)
    event(route)
    if chain_reflects(n, l, s, lo, hi):
        assert route == "half"
    else:
        assert route == "full"
        assert got == want
    assert got == pytest.approx(want, rel=5e-12, abs=1e-300)
    if n * l <= 60:
        exact = exact_chain_coverage(n, l, s, lo, hi)
        assert got == pytest.approx(float(exact), rel=1e-12, abs=1e-300)


@pytest.mark.parametrize(
    "n, l, s, lo, hi",
    [
        (10, 2, [5, 12, 20], [1, 4, 10], [6, 9, 10]),
        (6, 3, [4, 10, 18], [0, 2, 6], [4, 6, 6]),
    ],
)
def test_chain_bounds_that_reflect_on_counts_that_do_not_mirror_take_the_full_route(n, l, s, lo, hi):
    # lo_i = n - hi_{K-i} and hi_K = n, but s_1 + s_2 != l n
    s, lo, hi = (np.array(v) for v in (s, lo, hi))
    got, route = routed_mass(n, l, s, lo, hi, mass=_chain_mass)
    assert route == "full"
    assert got == pytest.approx(float(exact_chain_coverage(n, l, s, lo, hi)), rel=1e-12)


@pytest.mark.parametrize("n, l", [(41, 2), (61, 2), (81, 2), (156, 2), (23, 3), (24, 3), (25, 3), (26, 3)])
def test_chain_half_pass_is_as_accurate_as_the_full_pass(n, l):
    # at the searched gamma of exact-cold's shapes: against the exact
    # coverage, the mass the program takes (half a pass where the bounds
    # reflect) is off by no more than the full pass is, plus 1e-12
    grid = default_grid(n, l * n)
    s = _pooled_counts(grid, n, l)
    lo, hi = chain_bounds(n, l, s, gamma_optimize_multi(n, l, grid, 0.05).gamma)
    exact = exact_chain_coverage(n, l, s, lo, hi)
    half_err = abs(float(Fraction(_chain_mass(n, l, s, lo, hi)) / exact - 1))
    full_err = abs(float(Fraction(chain_full_mass(n, l, s, lo, hi)) / exact - 1))
    assert half_err <= full_err + 1e-12


def test_exact_cold_chain_searches_take_the_half_route_on_most_passes():
    # 28 searches, 119 passes: 89 of them reflect
    before = [_forward.route_count(r) for r in ROUTES]
    for n, l in [(n, 2) for n in range(41, 157, 5)] + [(n, 3) for n in range(23, 27)]:
        gamma_optimize_multi(n, l, default_grid(n, l * n), 0.05)
    assert [_forward.route_count(r) - b for r, b in zip(ROUTES, before)] == [89, 30]
