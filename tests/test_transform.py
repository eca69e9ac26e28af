"""PIT construction, pooled ranking, and evaluation-grid behavior."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecdf_bands.transform import (
    ChainSet,
    EcdfTrajectory,
    EvaluationGrid,
    PitValues,
    _grid_cells,
    default_grid,
    ecdf_eval,
    empirical_pit,
    joint_fractional_ranks,
)


# ---------------------------------------------------------------------------
# containers


def test_grid_validation():
    g = EvaluationGrid([0.25, 0.5, 1.0])
    assert g.size == 3
    assert not g.points.flags.writeable
    with pytest.raises(ValueError):
        EvaluationGrid([])
    with pytest.raises(ValueError):
        EvaluationGrid([0.0, 0.5])
    with pytest.raises(ValueError):
        EvaluationGrid([0.5, 0.5, 1.0])
    with pytest.raises(ValueError):
        EvaluationGrid([0.5, 1.2])


def test_chainset_promotes_one_dimensional_input():
    cs = ChainSet([1.0, 2.0, 3.0])
    assert cs.n_chains == 1
    assert cs.n_draws == 3
    with pytest.raises(ValueError):
        ChainSet(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        ChainSet(np.empty((2, 0)))
    with pytest.raises(ValueError):
        ChainSet([[1.0, 2.0], [3.0]])


def test_pit_values_resolution_validation():
    ok = PitValues([0.25, 0.5, 1.0, 0.0], resolution=4)
    assert ok.resolution == 4
    assert ok.size == 4
    cont = PitValues([0.31, 0.7])
    assert cont.resolution is None
    inf_res = PitValues([0.31, 0.7], resolution=float("inf"))
    assert inf_res.resolution is None
    with pytest.raises(ValueError):
        PitValues([0.3], resolution=4)
    with pytest.raises(ValueError):
        PitValues([1.2])
    with pytest.raises(ValueError):
        PitValues([])


@pytest.mark.parametrize("value, resolution", [(0.31415926535, 10**6), (0.9000043, 10**5)])
def test_pit_values_off_a_fine_lattice_are_refused(value, resolution):
    # within a relative 1e-5 of a lattice point, but many ulps off it
    with pytest.raises(ValueError, match="multiples of 1/resolution"):
        PitValues([value], resolution)


lattice_points = st.integers(1, 2**31 - 1).flatmap(lambda s: st.tuples(st.just(s), st.integers(0, s)))


@settings(max_examples=300, deadline=None)
@given(point=lattice_points)
@example(point=(2**31 - 1, 2**31 - 2))
@example(point=(3, 1))
def test_every_lattice_value_is_accepted(point):
    # c / S anywhere on the lattice, and next to both its ends
    s, c = point
    assert PitValues([0.0, 1 / s, c / s, (s - 1) / s, 1.0], s).resolution == s


def test_a_fractional_resolution_is_refused():
    with pytest.raises(ValueError, match="positive integer"):
        PitValues([0.5], 4.5)
    with pytest.raises(ValueError, match="positive integer"):
        default_grid(10, 4.5)
    # an integral float is the integer
    assert PitValues([0.5], 4.0).resolution == 4
    assert default_grid(10, 4.0).size == 4


def test_trajectory_validation():
    g = EvaluationGrid([0.5, 1.0])
    t = EcdfTrajectory(g, [1, 3], 3)
    np.testing.assert_allclose(t.fractions(), [1 / 3, 1.0])
    with pytest.raises(ValueError):
        EcdfTrajectory(g, [2, 1], 3)  # decreasing
    with pytest.raises(ValueError):
        EcdfTrajectory(g, [1, 2], 3)  # grid ends at 1 but count != n
    with pytest.raises(ValueError):
        EcdfTrajectory(EvaluationGrid([0.5]), [4], 3)  # count above n


# ---------------------------------------------------------------------------
# PIT and ranks


def test_empirical_pit_hand_example():
    y = np.array([0.0, 2.5, 9.0])
    comparison = np.array(
        [
            [1.0, 2.0, 3.0, 4.0],  # nothing at or below 0.0
            [1.0, 2.0, 3.0, 4.0],  # two at or below 2.5
            [1.0, 2.0, 3.0, 4.0],  # all four at or below 9.0
        ]
    )
    pit = empirical_pit(y, comparison)
    np.testing.assert_allclose(pit.values, [0.0, 0.5, 1.0])
    assert pit.resolution == 4


def test_empirical_pit_ties_count_as_at_or_below():
    pit = empirical_pit([2.0], [[2.0, 2.0, 5.0]])
    np.testing.assert_allclose(pit.values, [2 / 3])


def test_empirical_pit_shape_errors():
    with pytest.raises(ValueError):
        empirical_pit([1.0, 2.0], [[1.0, 2.0]])  # row count mismatch
    with pytest.raises(ValueError):
        empirical_pit([1.0], [[]])
    with pytest.raises(ValueError):
        empirical_pit([1.0], [[1.0], [2.0]])
    # non-finite draws or comparison values have no PIT
    for y, comp in [
        ([np.nan, 0.2], [[0.0, 1.0], [0.0, 1.0]]),
        ([np.inf], [[0.0, 1.0]]),
        ([0.5, 0.2], [[0.0, np.nan], [0.0, 1.0]]),
        ([0.5], [[-np.inf, 1.0]]),
    ]:
        with pytest.raises(ValueError, match="finite"):
            empirical_pit(y, comp)


def test_joint_ranks_flatten_to_exact_multiset():
    rng = np.random.default_rng(7)
    cs = ChainSet(rng.standard_normal((3, 17)))
    ranks = joint_fractional_ranks(cs)
    total = 3 * 17
    expected = np.arange(1, total + 1) / total
    np.testing.assert_allclose(np.sort(ranks.ravel()), expected, rtol=0, atol=0)


def test_joint_ranks_deterministic_tie_order():
    # equal values must rank by (chain index, draw index)
    cs = ChainSet(np.array([[5.0, 5.0], [5.0, 1.0]]))
    ranks = joint_fractional_ranks(cs, tie_policy="deterministic")
    want = np.array([[2 / 4, 3 / 4], [4 / 4, 1 / 4]])
    np.testing.assert_allclose(ranks, want)


def test_joint_ranks_random_ties_stay_within_their_group():
    cs = ChainSet(np.array([[5.0, 5.0, 9.0], [5.0, 1.0, 5.0]]))
    seen = set()
    for seed in range(12):
        ranks = joint_fractional_ranks(cs, tie_policy="random", seed=seed)
        # untied values keep their positions regardless of the seed
        assert ranks[1, 1] == 1 / 6
        assert ranks[0, 2] == 1.0
        tied = np.sort(np.array([ranks[0, 0], ranks[0, 1], ranks[1, 0], ranks[1, 2]]))
        np.testing.assert_allclose(tied, [2 / 6, 3 / 6, 4 / 6, 5 / 6])
        seen.add(tuple(ranks.ravel()))
    # with 4! arrangements available a dozen seeds should find several
    assert len(seen) > 1
    same = joint_fractional_ranks(cs, tie_policy="random", seed=3)
    again = joint_fractional_ranks(cs, tie_policy="random", seed=3)
    np.testing.assert_array_equal(same, again)


def test_joint_ranks_input_validation():
    with pytest.raises(ValueError):
        joint_fractional_ranks(ChainSet([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        joint_fractional_ranks(np.array([[1.0, 2.0], [3.0, 4.0]]), tie_policy="bogus")


# ---------------------------------------------------------------------------
# ECDF evaluation and grids


def test_ecdf_eval_counts_at_or_below():
    g = EvaluationGrid([0.25, 0.5, 0.75, 1.0])
    t = ecdf_eval([0.25, 0.26, 0.74, 1.0], g)
    np.testing.assert_array_equal(t.counts, [1, 2, 3, 4])
    assert t.n == 4


def test_ecdf_eval_accepts_pit_values():
    pit = PitValues([0.5, 0.25, 0.75], resolution=4)
    t = ecdf_eval(pit, EvaluationGrid([0.5, 1.0]))
    np.testing.assert_array_equal(t.counts, [2, 3])


_UNIT = st.floats(0.0, 1.0, exclude_min=True)

_CELL_GRIDS = st.one_of(
    # uniform i/K
    st.integers(1, 2000).map(lambda k: np.arange(1, k + 1) / k),
    # lattice grids of PIT values: K divides the resolution S
    st.builds(lambda n, s: default_grid(n, s).points, st.integers(1, 400), st.integers(1, 800)),
    # sorted random points
    st.lists(_UNIT, min_size=1, max_size=200).map(lambda v: np.unique(v)),
    # clusters closer than 2**-20, past the bucket table's finest cut
    st.builds(
        lambda c, k, gap: np.unique(np.clip(c + np.arange(k) * gap, 2.0**-60, 1.0)),
        _UNIT,
        st.integers(2, 40),
        st.floats(1e-15, 2.0**-21),
    ),
    # the last point below 1
    st.builds(
        lambda v, top: np.unique(np.multiply(v, top)),
        st.lists(_UNIT, min_size=1, max_size=100),
        st.floats(0.01, 1.0, exclude_max=True),
    ),
    # dyadic points j / 2**e
    st.builds(
        lambda js, e: np.unique(np.minimum(js, 2**e)) / 2.0**e,
        st.lists(st.integers(1, 2**40), min_size=1, max_size=100),
        st.integers(1, 40),
    ),
).filter(lambda pts: pts[0] > 0.0)


@settings(max_examples=150, deadline=None)
@given(pts=_CELL_GRIDS, extra=st.lists(st.floats(0.0, 1.0), max_size=50))
@example(pts=0.5 + np.arange(6) * 1e-7, extra=[0.5 + 2.5e-7])
@example(pts=np.arange(1, 8) / 7, extra=[1.0])
@example(pts=np.array([0.25, 0.5]), extra=[1.0])
def test_grid_cells_match_searchsorted(pts, extra):
    """The bucket table gives each value in [0, 1] its ``searchsorted``
    cell, at 0 and 1, on every point and on both float neighbours of
    every point."""
    near = np.concatenate([np.nextafter(pts, 0.0), np.nextafter(pts, 2.0)])
    u = np.concatenate([[0.0, 1.0], pts, near[near <= 1.0], extra])
    cells = _grid_cells(pts)
    # one sample's values, and (B, n) replicate draws
    for draws in (u, np.stack([u, u[::-1]])):
        got = cells(draws)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, np.searchsorted(pts, draws, side="left"))


def test_default_grid_caps_and_divides_resolution():
    assert default_grid(30).size == 30
    assert default_grid(500).size == 100
    assert default_grid(500, k_max=64).size == 64
    # K must divide the resolution so grid points are exact multiples
    g = default_grid(7, 10)
    assert g.size == 5
    np.testing.assert_allclose(g.points, [0.2, 0.4, 0.6, 0.8, 1.0])
    g2 = default_grid(120, 240)
    assert 240 % g2.size == 0
    assert g2.points[-1] == 1.0
    g3 = default_grid(50, float("inf"))
    assert g3.size == 50


def test_default_grid_rejects_bad_sizes():
    with pytest.raises(ValueError):
        default_grid(0)
    with pytest.raises(ValueError):
        default_grid(10, 0)
    with pytest.raises(ValueError):
        default_grid(10, k_max=0)

