"""Exact search, greedy baseline, and the worst-case instance family."""

import itertools

import numpy as np
import pytest

from evcg_reserves.auction import revenue, zero_reserves
from evcg_reserves.baselines import (
    BadExampleSpec,
    bad_example,
    bad_example_fractional,
    bad_example_optimal_vectors,
    brute_force_opt,
    greedy_reserves,
)
from evcg_reserves.errors import SizeGuardError
from evcg_reserves.lp_model import build_lp

from .conftest import desk_instances, grid_of, make_dataset, naive_revenue


def full_grid_optimum(ds, grid):
    """Unpruned exhaustive search over grid^n, the independent oracle."""
    best = (-1, None)
    aux = (0,) * (ds.num_items + 1)
    for combo in itertools.product(grid.values, repeat=ds.num_real_buyers):
        rev = revenue(ds, combo + aux)
        if rev > best[0]:
            best = (rev, combo + aux)
    return best[1], best[0]


class TestBruteForce:
    def test_two_bidder(self, two_bidder_k1):
        vec, rev = brute_force_opt(two_bidder_k1, grid_of(two_bidder_k1))
        assert rev == 10
        assert vec == (10, 0, 0, 0)  # lexicographic tie-break

    def test_all_zero(self):
        ds = make_dataset(1, [(1, (0, 0))])
        vec, rev = brute_force_opt(ds, grid_of(ds))
        assert rev == 0 and vec == (0, 0, 0, 0)

    def test_bad_example_k2_exact_optimum(self):
        # asymmetric tail reserves beat both benchmark vectors: 23 > 22
        ds = bad_example(BadExampleSpec(k=2))
        grid = grid_of(ds)
        vec, rev = brute_force_opt(ds, grid)
        oracle_vec, oracle_rev = full_grid_optimum(ds, grid)
        assert rev == oracle_rev == 23
        assert vec == oracle_vec == (8, 1, 1, 2, 0, 0, 0)

    def test_pruning_matches_full_grid(self):
        for ds in desk_instances(20, seed=71):
            if len(grid_of(ds)) ** ds.num_real_buyers > 50_000:
                continue
            grid = grid_of(ds)
            _, rev = brute_force_opt(ds, grid)
            _, oracle = full_grid_optimum(ds, grid)
            assert rev == oracle

    def test_cap_refusal(self):
        ds = bad_example(BadExampleSpec(k=6))
        with pytest.raises(SizeGuardError):
            brute_force_opt(ds, grid_of(ds), max_evals=10)

    def test_exact_past_int64(self, int64_overflow):
        # int64 sums once returned a wrapped "optimum" of 9e18 here
        vec, rev = brute_force_opt(int64_overflow, grid_of(int64_overflow))
        assert rev == naive_revenue(int64_overflow, vec) == 11 * 10**18

    def test_dominates_specific_vectors(self):
        rng = np.random.Generator(np.random.Philox(3))
        for ds in desk_instances(10, seed=73):
            grid = grid_of(ds)
            _, best = brute_force_opt(ds, grid)
            for _ in range(5):
                res = tuple(int(rng.choice(grid.values)) for _ in range(ds.num_real_buyers))
                assert best >= revenue(ds, res + (0,) * (ds.num_items + 1))


class TestGreedy:
    def test_two_bidder(self, two_bidder_k1):
        vec, rev = greedy_reserves(two_bidder_k1, grid_of(two_bidder_k1))
        assert rev == 10
        assert vec[0] == 10

    def test_all_zero(self):
        ds = make_dataset(1, [(1, (0, 0))])
        vec, rev = greedy_reserves(ds, grid_of(ds))
        assert vec == (0, 0, 0, 0) and rev == 0

    def test_half_approximation_on_fixtures(self):
        fixtures = [bad_example(BadExampleSpec(k=k)) for k in (2, 3, 4)]
        fixtures += desk_instances(20, seed=79)
        for ds in fixtures:
            grid = grid_of(ds)
            _, greedy_rev = greedy_reserves(ds, grid)
            _, best = brute_force_opt(ds, grid)
            assert greedy_rev >= 0.5 * best, (greedy_rev, best)

    def test_bad_example_k2(self):
        ds = bad_example(BadExampleSpec(k=2))
        _, rev = greedy_reserves(ds, grid_of(ds))
        assert rev >= 11


class TestBadExample:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BadExampleSpec(k=1)
        with pytest.raises(ValueError):
            BadExampleSpec(k=2, delta=0.0)

    def test_layout_k2(self):
        ds = bad_example(BadExampleSpec(k=2), augmented=False)
        assert ds.num_buyers == 4
        assert [a.weight for a in ds.auctions] == [1, 1, 2, 2]
        assert ds.auctions[2].bids == (0, 2, 2, 2)
        assert ds.auctions[0].bids == (8, 0, 0, 0)
        assert ds.auctions[1].bids == (0, 0, 4, 4)
        assert ds.auctions[3].bids == (0, 1, 1, 1)

    def test_revenue_identities(self):
        for k in (2, 3, 5, 11, 25, 40):
            spec = BadExampleSpec(k=k)
            ds = bad_example(spec)
            high, ones = bad_example_optimal_vectors(spec)
            assert revenue(ds, high) == 2 * k**3 + k**2
            assert revenue(ds, zero_reserves(ds)) == k**3 + k**2
            assert revenue(ds, ones) == 2 * k**3 + k**2 + k


class TestFractionalPoint:
    def test_buyer_masses(self):
        spec = BadExampleSpec(k=4, delta=0.1)
        point = bad_example_fractional(spec)
        assert point.x[0] == {64: 1.0}
        assert point.x[1] == {4: 0.1, 1: 0.9}
        for b in range(2, 6):
            assert point.x[b] == {16: 0.1, 1: 0.9}

    def test_feasible_for_built_lp(self):
        for k in (2, 3):
            spec = BadExampleSpec(k=k, delta=0.25)
            ds = bad_example(spec)
            inst = build_lp(ds, grid_of(ds))
            vec = inst.embed(bad_example_fractional(spec))
            assert inst.violation(vec) <= 1e-9

    def test_objective_value(self):
        spec = BadExampleSpec(k=3, delta=0.2)
        point = bad_example_fractional(spec)
        k, d = 3, 0.2
        assert point.objective == pytest.approx(2 * k**3 + k**2 + (1 - d) * k)
