"""Threshold splits, seeded sampling, best-of-three and one-shot rounding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evcg_reserves.auction import ReserveGrid, revenue, zero_reserves
from evcg_reserves.baselines import BadExampleSpec, bad_example, bad_example_fractional, brute_force_opt
from evcg_reserves.lp_model import build_lp, solve_lp
from evcg_reserves.rounding import (
    DISCOUNTED_STREAM,
    RoundingParams,
    best_of_three,
    masses_matrix,
    normalise_masses,
    sample_matrix,
    simple_rounding_matrix,
    split_distributions,
)

from .conftest import desk_instances, grid_of, make_dataset

GRID_0_5_10 = ReserveGrid((0, 5, 10))


def masses(grid: ReserveGrid, rows: list[dict[int, float]]) -> np.ndarray:
    return masses_matrix(dict(enumerate(rows)), grid, len(rows))


class TestSplit:
    def test_even_split_at_half(self):
        x = masses(GRID_0_5_10, [{5: 0.5, 10: 0.5}])
        s = split_distributions(x, GRID_0_5_10, RoundingParams(boost=0.5))
        assert s.thresholds == (10,)
        assert np.allclose(s.discounted[0], [0.0, 1.0, 0.0])
        assert np.allclose(s.inflated[0], [0.0, 0.0, 1.0])

    def test_point_mass_lands_on_both_sides(self):
        x = masses(GRID_0_5_10, [{5: 1.0}])
        s = split_distributions(x, GRID_0_5_10, RoundingParams(boost=0.55))
        assert s.thresholds == (5,)
        assert np.allclose(s.discounted[0], [0.0, 1.0, 0.0])
        assert np.allclose(s.inflated[0], [0.0, 1.0, 0.0])

    def test_auxiliary_point_mass_at_zero(self):
        x = masses(GRID_0_5_10, [{0: 1.0}])
        s = split_distributions(x, GRID_0_5_10, RoundingParams(boost=0.55))
        assert s.thresholds == (0,)
        assert np.allclose(s.discounted[0], [1.0, 0.0, 0.0])
        assert np.allclose(s.inflated[0], [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("boost, below", [(1e-4, 1e-4 + 5e-13), (1e-13, 5e-13)])
    def test_small_boost_splits(self, boost, below):
        # the below-mass passes boost by less than 1e-12, which an absolute
        # slack admitted at the threshold and the discounted side then summed
        # to 1 + 5e-9 (boost 1e-4) or 5 (boost 1e-13)
        s = split_distributions(np.array([[below, 1.0 - below]]), ReserveGrid((0, 1)),
                                RoundingParams(boost=boost))
        assert s.thresholds == (0,)
        for side in (s.discounted, s.inflated):
            assert abs(side.sum() - 1.0) <= 1e-12

    def test_negative_mass_rejected(self):
        x = masses(GRID_0_5_10, [{0: 1.1, 5: -0.1}])
        with pytest.raises(ValueError):
            split_distributions(x, GRID_0_5_10, RoundingParams())

    def test_bad_sum_rejected(self):
        x = masses(GRID_0_5_10, [{0: 0.7}])
        with pytest.raises(ValueError):
            split_distributions(x, GRID_0_5_10, RoundingParams())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_mass_rejected(self, bad):
        # NaN fails both the sign and the sum comparison, so it needs its own check
        with pytest.raises(ValueError, match="finite"):
            normalise_masses(np.array([[bad, 0.0, 0.0], [1.0, 0.0, 0.0]]))

    def test_exact_split_matches_rescaled_masses(self):
        # when the below-threshold mass hits boost exactly, each side is the
        # plain rescaling of its half
        boost = 0.55
        x = masses(GRID_0_5_10, [{0: 0.55, 5: 0.25, 10: 0.20}])
        s = split_distributions(x, GRID_0_5_10, RoundingParams(boost=boost))
        assert s.thresholds == (5,)
        assert np.allclose(s.discounted[0], [1.0, 0.0, 0.0])
        assert np.allclose(s.inflated[0], [0.0, 0.25 / 0.45, 0.20 / 0.45])


@st.composite
def random_mass_rows(draw):
    size = draw(st.integers(2, 6))
    grid = ReserveGrid(tuple(range(0, size * 3, 3)))
    weights = [draw(st.floats(0.0, 1.0)) for _ in range(size)]
    if sum(weights) == 0.0:
        weights[0] = 1.0
    total = sum(weights)
    row = {grid.values[i]: w / total for i, w in enumerate(weights)}
    boost = draw(st.floats(0.05, 0.95))
    return grid, row, boost


@settings(max_examples=120, deadline=None)
@given(random_mass_rows())
def test_mixture_identity(case):
    grid, row, boost = case
    x = masses(grid, [row])
    s = split_distributions(x, grid, RoundingParams(boost=boost))
    mix = boost * s.discounted + (1.0 - boost) * s.inflated
    assert np.allclose(mix, x, atol=1e-9)
    # support constraints around the threshold
    t = s.thresholds[0]
    for i, r in enumerate(grid.values):
        if r > t:
            assert s.discounted[0, i] == 0.0
        if r < t:
            assert s.inflated[0, i] == 0.0
    # threshold is the largest grid value with below-mass <= boost
    below = 0.0
    valid = []
    for r in grid.values:
        if below <= boost + 1e-12:
            valid.append(r)
        below += x[0, grid.index(r)]
    assert t == valid[-1]


class TestSampling:
    def test_point_mass_deterministic(self):
        x = masses(GRID_0_5_10, [{5: 1.0}, {10: 1.0}])
        draws = sample_matrix(x, GRID_0_5_10.values, seed=1, stream=0, num_samples=32)
        assert np.all(draws[:, 0] == 5) and np.all(draws[:, 1] == 10)

    def test_discounted_side_of_even_split_is_deterministic(self):
        x = masses(GRID_0_5_10, [{5: 0.5, 10: 0.5}])
        s = split_distributions(x, GRID_0_5_10, RoundingParams(boost=0.5))
        draws = sample_matrix(s.discounted, GRID_0_5_10.values, 3, DISCOUNTED_STREAM, 64)
        assert np.all(draws == 5)

    def test_frequencies_converge(self):
        x = masses(GRID_0_5_10, [{5: 0.5, 10: 0.5}])
        draws = sample_matrix(x, GRID_0_5_10.values, seed=11, stream=0, num_samples=100_000)
        freq = float(np.mean(draws[:, 0] == 5))
        assert abs(freq - 0.5) <= 0.01  # > 3 sigma allowance at this sample size

    def test_reproducible_and_order_independent(self):
        x = masses(GRID_0_5_10, [{5: 0.5, 10: 0.5}, {0: 0.3, 10: 0.7}])
        a = sample_matrix(x, GRID_0_5_10.values, seed=5, stream=0, num_samples=16)
        b = sample_matrix(x, GRID_0_5_10.values, seed=5, stream=0, num_samples=16)
        assert np.array_equal(a, b)
        # longer runs extend, never reshuffle, the per-buyer streams
        c = sample_matrix(x, GRID_0_5_10.values, seed=5, stream=0, num_samples=64)
        assert np.array_equal(c[:16], a)
        d = sample_matrix(x, GRID_0_5_10.values, seed=5, stream=0, num_samples=4)
        assert np.array_equal(d[3], a[3])


class TestBestOfThree:
    def test_integral_optimum_is_recovered(self):
        ds = make_dataset(1, [(1, (10,))])
        grid = grid_of(ds)
        sol = solve_lp(build_lp(ds, grid))
        out = best_of_three(ds, sol, RoundingParams(boost=0.55, num_samples=8, rng_seed=2))
        _, best = brute_force_opt(ds, grid)
        assert out.chosen_revenue == best == 10

    def test_all_zero_dataset(self):
        ds = make_dataset(1, [(1, (0, 0))])
        sol = solve_lp(build_lp(ds, grid_of(ds)))
        out = best_of_three(ds, sol, RoundingParams(num_samples=4, rng_seed=1))
        assert out.chosen_revenue == 0

    def test_zero_vector_floor(self):
        for i, ds in enumerate(desk_instances(15, seed=61)):
            sol = solve_lp(build_lp(ds, grid_of(ds)))
            out = best_of_three(ds, sol, RoundingParams(num_samples=8, rng_seed=i))
            assert out.chosen_revenue >= out.zero_revenue
            assert out.chosen_revenue == max(
                out.discounted_revenue, out.inflated_revenue, out.zero_revenue
            )
            assert out.zero_revenue == revenue(ds, zero_reserves(ds))


class TestSimpleRounding:
    def test_integral_masses_deterministic(self, two_bidder_k1):
        grid = grid_of(two_bidder_k1)
        x = {0: {10: 1.0}, 1: {5: 1.0}, 2: {0: 1.0}, 3: {0: 1.0}}
        draw = simple_rounding_matrix(two_bidder_k1, x, grid, seed=4, num_samples=1)[0]
        assert tuple(draw) == (10, 5, 0, 0)

    def test_worst_case_point_marginals(self):
        spec = BadExampleSpec(k=3, delta=0.3)
        ds = bad_example(spec)
        grid = grid_of(ds)
        point = bad_example_fractional(spec)
        draws = simple_rounding_matrix(ds, point.x, grid, seed=17, num_samples=4000)
        k = spec.k
        assert np.all(draws[:, 0] == k**3)  # b1: always k^3
        freq_k = float(np.mean(draws[:, 1] == k))
        assert abs(freq_k - spec.delta) <= 0.025  # b2: k with prob delta
        assert set(np.unique(draws[:, 1])) <= {1, k}
        for b in range(2, k + 2):
            assert set(np.unique(draws[:, b])) <= {1, k**2}

    def test_mass_validation(self, two_bidder_k1):
        grid = grid_of(two_bidder_k1)
        bad = {0: {10: 0.5}, 1: {5: 1.0}, 2: {0: 1.0}, 3: {0: 1.0}}
        with pytest.raises(ValueError):
            simple_rounding_matrix(two_bidder_k1, bad, grid, seed=1, num_samples=1)

    def test_matrix_rejects_short_masses(self, two_bidder_k1):
        grid = grid_of(two_bidder_k1)
        short = {0: {10: 0.9}, 1: {5: 1.0}, 2: {0: 1.0}, 3: {0: 1.0}}
        with pytest.raises(ValueError, match="sum to 1"):
            simple_rounding_matrix(two_bidder_k1, short, grid, seed=1, num_samples=4)
