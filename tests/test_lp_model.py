"""Sub-profile enumeration, LP assembly/solve, and integral encoding."""

import numpy as np
import pytest

from evcg_reserves import lp_solver
from evcg_reserves.auction import add_auxiliary_buyers, revenue, zero_reserves
from evcg_reserves.baselines import BadExampleSpec, bad_example, brute_force_opt
from evcg_reserves.datasets import random_dataset
from evcg_reserves.errors import LpSolveError, SizeGuardError
from evcg_reserves.lp_model import (
    LpPoint,
    SubProfile,
    build_lp,
    encode_reserves,
    enumerate_subprofiles,
    solve_lp,
)

from .conftest import desk_instances, grid_of, make_dataset


class TestEnumeration:
    def test_pair_contribution(self, two_bidder_k1):
        grid = grid_of(two_bidder_k1)
        assert grid.values == (0, 5, 10)
        profs = enumerate_subprofiles(two_bidder_k1, 0, grid)
        pair = [p for p in profs if p.winner == 0 and p.supporter == 1]
        assert len(pair) == 6  # r1 in {0,5,10} x r2 in {0,5}
        assert all(p.revenue == max(5, p.winner_reserve) for p in pair)

    def test_reversed_pair_absent(self, two_bidder_k1):
        profs = enumerate_subprofiles(two_bidder_k1, 0, grid_of(two_bidder_k1))
        assert not any(p.winner == 1 and p.supporter == 0 for p in profs)

    def test_all_zero_bids_have_zero_revenue(self):
        ds = make_dataset(1, [(1, (0, 0))])
        profs = enumerate_subprofiles(ds, 0, grid_of(ds))
        assert profs and all(p.revenue == 0 for p in profs)

    def test_deterministic_order(self, three_bidder_k2):
        grid = grid_of(three_bidder_k2)
        a = enumerate_subprofiles(three_bidder_k2, 0, grid)
        b = enumerate_subprofiles(three_bidder_k2, 0, grid)
        assert a == b
        keys = [(p.winner, p.supporter, p.winner_reserve, p.supporter_reserve) for p in a]
        assert keys == sorted(keys)

    def test_validity_conditions(self, three_bidder_k2):
        bids = three_bidder_k2.auctions[0].bids
        for p in enumerate_subprofiles(three_bidder_k2, 0, grid_of(three_bidder_k2)):
            assert p.winner != p.supporter
            assert bids[p.winner] >= bids[p.supporter]
            assert p.winner_reserve <= bids[p.winner]
            assert p.supporter_reserve <= bids[p.supporter]
            assert p.revenue == max(bids[p.supporter], p.winner_reserve)

    def test_size_guard(self, three_bidder_k2):
        with pytest.raises(SizeGuardError):
            enumerate_subprofiles(three_bidder_k2, 0, grid_of(three_bidder_k2),
                                  max_subprofiles=5)

    def test_build_guard_counts_full_subprofiles(self):
        for ds in desk_instances(10, seed=59):
            grid = grid_of(ds)
            total = sum(len(enumerate_subprofiles(ds, a, grid))
                        for a in range(ds.num_auctions))
            build_lp(ds, grid, max_subprofiles=total)  # exactly at the budget
            for budget in (total - 1, total // 2, 0):
                with pytest.raises(SizeGuardError) as built:
                    build_lp(ds, grid, max_subprofiles=budget)
                # enumerating auction by auction refuses with the same message
                with pytest.raises(SizeGuardError) as enumerated:
                    for a in range(ds.num_auctions):
                        budget -= len(enumerate_subprofiles(ds, a, grid,
                                                            max_subprofiles=budget))
                assert str(built.value) == str(enumerated.value)


class TestBuildAndSolve:
    def test_single_buyer_optimum(self):
        ds = make_dataset(1, [(1, (10,))])
        sol = solve_lp(build_lp(ds, grid_of(ds)))
        assert sol.objective == pytest.approx(10.0, abs=1e-7)

    def test_all_zero_dataset(self):
        ds = make_dataset(1, [(1, (0, 0))])
        sol = solve_lp(build_lp(ds, grid_of(ds)))
        assert sol.objective == pytest.approx(0.0, abs=1e-9)

    def test_bad_example_lower_bound(self):
        ds = bad_example(BadExampleSpec(k=2))
        sol = solve_lp(build_lp(ds, grid_of(ds)))
        assert sol.objective >= 22 - 1e-6

    def test_three_bidder_bound(self, three_bidder_k2):
        sol = solve_lp(build_lp(three_bidder_k2, grid_of(three_bidder_k2)))
        assert sol.objective >= 18 - 1e-6  # encode (10, 8, 0, ...) pays 10 + 8

    def test_constraint_counts(self, three_bidder_k2):
        inst = build_lp(three_bidder_k2, grid_of(three_bidder_k2))
        # bids (10, 8, 5, 0, 0, 0), grid (0, 5, 8, 10): grid values clearing
        # each bid n_le = (4, 3, 2, 1, 1, 1)
        n, A = 6, 1
        y_prime = 4 + 3 + 2 + 1 + 1 + 1
        # ordered (winner, supporter) pairs with winner bid >= supporter bid:
        # 5 for the top bidder, 4, 3, and 2 for each tied auxiliary
        pairs = 5 + 4 + 3 + 3 * 2
        w = 5 * 4 + 4 * 3 + 3 * 2 + 6 * 1  # pairs x n_le[winner]
        assert inst.constraint_counts == {
            "supporter_link": A * n,
            "one_reserve_each": 3,  # aux fixed at 0
            "reserve_consistency": y_prime,
            "compatibility": pairs,
            "per_auction_cap": A,
        }
        assert inst.A_eq.shape[0] == A * n + 3
        assert inst.A_le.shape[0] == y_prime + pairs + A
        assert inst.num_vars == w + 3 * 4 + y_prime
        assert len(inst.w_auction) == w and inst.w_cols(0) == slice(0, w)

    def test_objective_matches_inner_product(self):
        for ds in desk_instances(10, seed=31):
            inst = build_lp(ds, grid_of(ds))
            sol = solve_lp(inst)
            recomputed = inst.objective_of(sol.vector)
            assert abs(sol.objective - recomputed) <= 1e-9 * max(1.0, abs(recomputed))

    def test_upper_bounds_brute_force(self):
        for ds in desk_instances(30, seed=37):
            grid = grid_of(ds)
            sol = solve_lp(build_lp(ds, grid))
            _, best = brute_force_opt(ds, grid)
            assert sol.objective >= best - 1e-6

    def test_per_buyer_grid_variant(self):
        for ds in desk_instances(10, seed=41):
            grid = grid_of(ds)
            full = solve_lp(build_lp(ds, grid)).objective
            restricted = solve_lp(build_lp(ds, grid, per_buyer_grid=True)).objective
            _, best = brute_force_opt(ds, grid)
            assert restricted <= full + 1e-6
            assert restricted >= best - 1e-6

    def test_iteration_limit_raises(self):
        ds = bad_example(BadExampleSpec(k=3))
        inst = build_lp(ds, grid_of(ds))
        with pytest.raises(LpSolveError):
            solve_lp(inst, max_iterations=1)

    def test_solver_objective_disagreeing_with_point_raises(self, monkeypatch,
                                                            two_bidder_k1):
        instance = build_lp(two_bidder_k1, grid_of(two_bidder_k1))
        real = lp_solver.linprog

        def off_by_one(*args, **kwargs):
            res = real(*args, **kwargs)
            res.fun -= 1.0
            return res

        monkeypatch.setattr(lp_solver, "linprog", off_by_one)
        with pytest.raises(LpSolveError, match="objective does not match"):
            solve_lp(instance)

    def test_float_exactness_guard(self):
        # weight x bid = 2^53 is still exact in float64
        for weight, bid in ((1, 2**53), (2, 2**52)):
            ds = make_dataset(1, [(weight, (bid, 3))])
            assert solve_lp(build_lp(ds, grid_of(ds))).objective == 2**53
        for weight, bid in ((1, 2**53 + 1), (3, 2**52)):
            ds = make_dataset(1, [(weight, (bid, 3))])
            with pytest.raises(SizeGuardError, match="2\\^53"):
                build_lp(ds, grid_of(ds))


class TestPinnedOptimum:
    """Optima of the full LP over (winner, supporter, r1, r2) sub-profiles.

    The assembled LP is its projection onto winner-side sub-profiles, so the
    optimum must not move.
    """

    @staticmethod
    def check(ds, expected, **kwargs):
        objective = solve_lp(build_lp(ds, grid_of(ds), **kwargs)).objective
        assert abs(objective - expected) <= 1e-9 * abs(expected), (objective, expected)

    def test_benchmark_instances(self):
        self.check(add_auxiliary_buyers(random_dataset(15, 30, 2, 0, max_bid=9, max_weight=1)),
                   492)
        self.check(bad_example(BadExampleSpec(k=20)), 16780)
        self.check(add_auxiliary_buyers(random_dataset(6, 40, 2, 0, max_bid=9, max_weight=5)),
                   1349.75)

    def test_bad_example(self):
        for k, expected in ((2, 70 / 3), (3, 69), (5, 295), (8, 1144), (12, 3732)):
            self.check(bad_example(BadExampleSpec(k=k)), expected)

    def test_per_buyer_grid(self):
        expected = (32, 27, 35, 35, 7, 4, 37, 18, 54, 27)
        for ds, value in zip(desk_instances(10, seed=41), expected, strict=True):
            self.check(ds, value, per_buyer_grid=True)


class TestEncode:
    def test_off_grid_reserve_rejected(self, two_bidder_k1):
        with pytest.raises(ValueError):
            encode_reserves(two_bidder_k1, grid_of(two_bidder_k1), (7, 0, 0, 0))

    def test_simple_point(self, two_bidder_k1):
        grid = grid_of(two_bidder_k1)
        pt = encode_reserves(two_bidder_k1, grid, (5, 0, 0, 0))
        assert pt.objective == 5
        assert pt.s[0] == {SubProfile(0, 1, 5, 0, 5): 1}
        inst = build_lp(two_bidder_k1, grid)
        assert inst.violation(inst.embed(pt)) <= 1e-12

    def test_bad_example_point(self):
        ds = bad_example(BadExampleSpec(k=2))
        grid = grid_of(ds)
        pt = encode_reserves(ds, grid, (8, 2, 4, 4, 0, 0, 0))
        inst = build_lp(ds, grid)
        assert inst.violation(inst.embed(pt)) <= 1e-9
        assert pt.objective == 20

    def test_soundness_on_random_pairs(self):
        rng = np.random.Generator(np.random.Philox(53))
        for ds in desk_instances(25, seed=43):
            grid = grid_of(ds)
            inst = build_lp(ds, grid)
            for _ in range(2):
                res = tuple(int(rng.choice(grid.values)) for _ in range(ds.num_real_buyers))
                res += (0,) * (ds.num_items + 1)
                pt = encode_reserves(ds, grid, res)
                vec = inst.embed(pt)
                assert inst.violation(vec) <= 1e-9
                assert pt.objective == revenue(ds, res)
                assert inst.exact_objective(pt) == revenue(ds, res)

    def test_supporter_mass_scaling(self):
        # for integral points the per-(buyer, auction) supporter mass is 0 or 1
        for ds in desk_instances(10, seed=47):
            grid = grid_of(ds)
            inst = build_lp(ds, grid)
            pt = encode_reserves(ds, grid, zero_reserves(ds))
            vec = inst.embed(pt)
            R = len(grid)
            for a in range(ds.num_auctions):
                for b in range(ds.num_buyers):
                    cols = [inst.yp_col(b, r, a) for r in range(R)]
                    total = sum(vec[c] for c in cols if c is not None)
                    assert min(abs(total), abs(total - 1.0)) <= 1e-9


class TestEmbedRejects:
    """two_bidder_k1: bids (10, 5, 0, 0), k = 1, grid (0, 5, 10); buyers 2, 3 auxiliary."""

    @staticmethod
    def embed(ds, s=None, x=None, **kwargs):
        inst = build_lp(ds, grid_of(ds), **kwargs)
        return inst.embed(LpPoint(s={0: {p: 1.0 for p in s or ()}}, x=x or {}))

    @pytest.mark.parametrize("profile", [
        SubProfile(0, 0, 5, 10, 10),  # winner == supporter
        SubProfile(1, 2, 10, 0, 10),  # winner reserve above the winner's bid
        SubProfile(0, 1, 7, 0, 7),    # winner reserve off the grid
        SubProfile(0, 1, 5, 10, 5),   # supporter reserve above the supporter's bid
        SubProfile(0, 1, 5, 0, 6),    # revenue other than max(supporter bid, r1)
        SubProfile(0, 1, 0, 0, 0),
    ])
    def test_invalid_subprofile(self, two_bidder_k1, profile):
        with pytest.raises(ValueError, match="not valid for auction 0"):
            self.embed(two_bidder_k1, s=[profile])

    def test_valid_subprofiles(self, two_bidder_k1):
        vec = self.embed(two_bidder_k1, s=[SubProfile(0, 1, 10, 5, 10),
                                           SubProfile(1, 2, 5, 0, 5)])
        assert vec.sum() == 4.0  # two w columns and two y' columns at 1 / k

    def test_auxiliary_mass_away_from_zero(self, two_bidder_k1):
        self.embed(two_bidder_k1, x={2: {0: 1.0}, 3: {5: 0.0}})
        with pytest.raises(ValueError, match="reserve 5 of buyer 2"):
            self.embed(two_bidder_k1, x={2: {5: 1.0}})

    def test_reserve_outside_per_buyer_grid(self, two_bidder_k1):
        point = {1: {10: 1.0}}  # buyer 1 bids only 5: allowed {0, 5}
        assert self.embed(two_bidder_k1, x=point).sum() == 1.0
        with pytest.raises(ValueError, match="outside the buyer's allowed set"):
            self.embed(two_bidder_k1, x=point, per_buyer_grid=True)
        assert self.embed(two_bidder_k1, x={1: {5: 1.0}}, per_buyer_grid=True).sum() == 1.0

    def test_interpret_per_buyer_grid(self):
        # buyer 2 bids 0 everywhere, so it is fixed like the auxiliary buyer 3
        ds = make_dataset(1, [(1, (10, 5, 0)), (2, (3, 5, 0))])
        inst = build_lp(ds, grid_of(ds), per_buyer_grid=True)
        vec = np.arange(inst.num_vars, dtype=float)
        _, x_masses = inst.interpret(vec)
        assert {b: sorted(m) for b, m in x_masses.items()} == {
            0: [0, 3, 10], 1: [0, 5], 2: [0], 3: [0], 4: [0]}
        assert x_masses[2] == x_masses[3] == {0: 1.0}
        # the five x columns follow the w columns
        num_w = len(inst.w_auction)
        assert [*x_masses[0].values(), *x_masses[1].values()] == list(vec[num_w: num_w + 5])
        # a fixed real buyer's mass away from 0 is revenue-equivalent: dropped
        assert not inst.embed(LpPoint(s={}, x={2: {5: 1.0}})).any()


class TestInterchangeDump:
    def test_dump_structure(self, two_bidder_k1):
        inst = build_lp(two_bidder_k1, grid_of(two_bidder_k1))
        text = inst.to_lp_text()
        assert text.startswith("Maximize")
        assert "Subject To" in text and text.rstrip().endswith("End")
        # bids (10, 5, 0, 0): 7 pairs, w columns 3*3 + 2*2 + 2*1, y' up to each bid
        assert inst.var_names() == (
            [f"w_0_{i}" for i in range(15)]
            + [f"x_{b}_{r}" for b in (0, 1) for r in (0, 5, 10)]
            + ["yp_0_0_0", "yp_0_5_0", "yp_0_10_0", "yp_1_0_0", "yp_1_5_0",
               "yp_2_0_0", "yp_3_0_0"]
        )
        lines = text.splitlines()
        assert sum(line.startswith(" e") for line in lines) == 4 + 2
        assert sum(line.startswith(" l") for line in lines) == 7 + 7 + 1
        assert [line for line in lines if line.startswith(" 0 <= ")] == [
            f" 0 <= {name}" for name in inst.var_names()]

    def test_interpret_round_trip(self, two_bidder_k1):
        inst = build_lp(two_bidder_k1, grid_of(two_bidder_k1))
        sol = solve_lp(inst)
        s_parts, x_masses = inst.interpret(sol.vector)
        assert len(s_parts) == 1
        for b, masses in x_masses.items():
            assert sum(masses.values()) == pytest.approx(1.0, abs=1e-7)
        # auxiliaries come back as point mass at zero
        assert x_masses[2] == {0: 1.0} and x_masses[3] == {0: 1.0}
