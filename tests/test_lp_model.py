"""Sub-profile enumeration, LP assembly/solve, and integral encoding."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from evcg_reserves import cli, lp_solver
from evcg_reserves.auction import (
    AuctionColumn,
    BidDataset,
    add_auxiliary_buyers,
    candidate_mask,
    revenue,
    zero_reserves,
)
from evcg_reserves.baselines import BadExampleSpec, bad_example, brute_force_opt
from evcg_reserves.datasets import correlated_dataset, random_dataset
from evcg_reserves.errors import LpSolveError, SizeGuardError
from evcg_reserves.lp_model import (
    DEFAULT_MAX_SUBPROFILES,
    LpPoint,
    SubProfile,
    buyer_orbits,
    build_lp,
    encode_reserves,
    enumerate_subprofiles,
    reduced_lp,
    solve_lp,
)

from .conftest import desk_instances, grid_of, make_dataset
from .lp_oracle import (
    as_csr,
    lp_text,
    marginal_form,
    standard_lp,
    symmetry_quotient,
    without_empty_rows,
)


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

    def test_build_guard_counts_allocated_subprofiles(self):
        """The guard counts the winner-side sub-profiles build_lp allocates."""
        for ds in desk_instances(10, seed=59):
            grid = grid_of(ds)
            instance = build_lp(ds, grid)
            total = len(instance.w_auction)
            assert len(build_lp(ds, grid, max_subprofiles=total).w_auction) == total
            # one below: the last auction with w columns is refused, with what
            # was left of the budget after the auctions before it
            last = int(instance.w_auction[-1])
            left = total - 1 - int((instance.w_auction < last).sum())
            with pytest.raises(SizeGuardError) as refused:
                build_lp(ds, grid, max_subprofiles=total - 1)
            assert str(refused.value) == (
                f"auction {last}: sub-profile count exceeds {left}; raise the budget to proceed")

    def test_build_guard_refuses_before_pair_tables(self):
        """A refused build allocates nothing of size auctions x buyers^2: on
        1,003 buyers in 5 auctions the boolean (auction, winner, supporter)
        table alone would take 5 MB, and the refusal traces under 4 MB."""
        ds = add_auxiliary_buyers(random_dataset(1000, 5, 2, 0))
        grid = grid_of(ds)
        tracemalloc.start()
        try:
            with pytest.raises(SizeGuardError, match="auction 0: sub-profile count exceeds"):
                build_lp(ds, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_wide_bid_dataset_admitted(self):
        """5.9M full sub-profiles used to be refused; its 182k w columns are not."""
        ds = add_auxiliary_buyers(random_dataset(12, 20, 3, 5, max_bid=200))
        instance = build_lp(ds, grid_of(ds))  # the default budget
        full = int(instance.n_le[instance.w_auction, instance.w_supporter].sum())
        assert len(instance.w_auction) <= DEFAULT_MAX_SUBPROFILES < full


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
            assert sol.objective == float(inst.c @ sol.vector)

    def test_upper_bounds_brute_force(self):
        for ds in desk_instances(30, seed=37):
            grid = grid_of(ds)
            sol = solve_lp(build_lp(ds, grid))
            _, best = brute_force_opt(ds, grid)
            assert sol.objective >= best - 1e-6

    def test_one_highs_configuration(self, monkeypatch):
        """One method at every item count: the HiGHS object runs dual simplex
        with Devex pricing, presolve off and output off, on either side of
        k = 8."""
        names = ("output_flag", "presolve", "simplex_dual_edge_weight_strategy")
        calls = []

        class Recording(lp_solver._Highs):
            def run(self):
                calls.append({name: self.getOptionValue(name)[1] for name in names})
                return super().run()

        monkeypatch.setattr(lp_solver, "_Highs", Recording)
        for k in (7, 8):
            ds = bad_example(BadExampleSpec(k=k))
            solve_lp(build_lp(ds, grid_of(ds)))
        options = {"output_flag": False, "presolve": "off",
                   "simplex_dual_edge_weight_strategy": 1}  # 1: Devex
        assert calls == [options, options]

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
    def check(ds, expected):
        objective = solve_lp(build_lp(ds, grid_of(ds))).objective
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

    def test_desk_instances(self):
        expected = (32, 27, 35, 35, 7, 4, 37, 18, 54, 27)
        for ds, value in zip(desk_instances(10, seed=41), expected, strict=True):
            self.check(ds, value)


def with_duplicate(ds: BidDataset, rng: np.random.Generator) -> BidDataset:
    """``ds`` (not augmented) with a copy of one buyer's bid row inserted anywhere."""
    j = int(rng.integers(ds.num_buyers))
    at = int(rng.integers(ds.num_buyers + 1))
    return BidDataset(
        num_items=ds.num_items,
        buyers=tuple(f"b{i + 1}" for i in range(ds.num_buyers + 1)),
        auctions=tuple(AuctionColumn(a.weight, a.bids[:at] + (a.bids[j],) + a.bids[at:])
                       for a in ds.auctions),
    )


def symmetric_instances(count: int, seed: int) -> list[BidDataset]:
    """Small random and correlated instances, every other one with a planted
    duplicate buyer row."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    out = []
    for i in range(count):
        nb, na, k = (int(rng.integers(lo, hi)) for lo, hi in ((2, 5), (1, 4), (1, 4)))
        ds = (random_dataset(nb, na, k, seed=seed * 1000 + i, max_bid=9, max_weight=3)
              if i % 4 < 2 else
              correlated_dataset(nb, na, k, seed=seed * 1000 + i, noise=0.3))
        out.append(add_auxiliary_buyers(with_duplicate(ds, rng) if i % 2 else ds))
    return out


def wide_bid_instances(count: int, seed: int) -> list[BidDataset]:
    """Small random instances with bids up to 40, so most grid values are no
    given buyer's bid; every other one has a planted duplicate buyer row."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    out = []
    for i in range(count):
        nb, na, k = (int(rng.integers(lo, hi)) for lo, hi in ((2, 5), (2, 5), (1, 4)))
        ds = random_dataset(nb, na, k, seed=seed * 1000 + i, max_bid=40, max_weight=3)
        out.append(add_auxiliary_buyers(with_duplicate(ds, rng) if i % 2 else ds))
    return out


def non_candidate_columns(instance) -> np.ndarray:
    """Columns at a reserve that is neither 0 nor one of the column's buyer's bids."""
    ds, values = instance.dataset, instance.grid.values
    own = [{0, *bids} for bids in zip(*(a.bids for a in ds.auctions))]
    out = np.zeros(instance.num_vars, dtype=bool)
    for col, (b, r) in enumerate(zip(instance.w_winner.tolist(), instance.w_r1.tolist())):
        out[col] = values[r] not in own[b]
    for (b, r), col in np.ndenumerate(instance.x_cols):
        if col >= 0:
            out[col] = values[r] not in own[b]
    for (a, b), first in np.ndenumerate(instance.yp_first):
        for r in range(instance.n_le[a, b]):
            out[first + r] = values[r] not in own[b]
    return out


def full_solve(instance) -> float:
    """c . x at the full LP's optimum, solved without the quotient.

    Interior point, whose crossover HiGHS runs by default, solves the
    unreduced LPs 3-4x faster than dual simplex: 1.2-1.5 s against 4.9 s on
    ``bad_example(20)``'s 11,541 columns.
    """
    lp = standard_lp(instance)
    res = linprog(-lp.c, A_ub=lp.A_le, b_ub=lp.b_le, A_eq=lp.A_eq, b_eq=lp.b_eq,
                  bounds=(0, None), method="highs-ipm")
    assert res.status == 0, res.message
    assert lp_solver.feasibility_violation(lp, res.x) <= 1e-7
    return float(lp.c @ res.x)


def test_solve_matches_public_linprog():
    """``lp_solver`` reaches HiGHS through scipy's private binding; on the
    oracle set and near k = 70-80, where presolve off is least accurate, its
    point, objective and iterations equal those of the public
    ``scipy.optimize.linprog`` with the same options, bit for bit.  The
    worst full-row violation there (1.44e-9 at k = 69) keeps a margin to
    ``tol_feas``."""
    cases = oracle_instances() + [bad_example(BadExampleSpec(k=k)) for k in (69, 77, 80)]
    for i, ds in enumerate(cases):
        instance = build_lp(ds, grid_of(ds))
        quotient = reduced_lp(instance)
        lp = quotient.lp
        public = linprog(-lp.c, A_ub=as_csr(lp.A_le), b_ub=lp.b_le, A_eq=as_csr(lp.A_eq),
                         b_eq=lp.b_eq, bounds=(0, None), method="highs",
                         options={"presolve": False, "simplex_dual_edge_weight_strategy": "devex"})
        private = lp_solver.linprog(lp)
        assert private.status == "Optimal" and public.status == 0, i
        assert np.array_equal(private.x, public.x) and private.fun == public.fun, i
        result = lp_solver.solve(instance, quotient=quotient)
        x = quotient.expand @ public.x
        assert np.array_equal(result.x, x) and result.objective == float(instance.c @ x), i
        assert result.iterations == private.nit == public.nit, i
        assert result.max_violation <= 1e-8, i


def transposition(instance, b: int, c: int) -> np.ndarray:
    """Column permutation that swapping buyers b and c induces on the instance."""
    sigma = np.arange(instance.dataset.num_buyers)
    sigma[[b, c]] = c, b
    perm = np.full(instance.num_vars, -1)
    w = np.arange(len(instance.w_auction))
    perm[w] = (instance.w_first[instance.w_auction, sigma[instance.w_winner],
                                sigma[instance.w_supporter]] + instance.w_r1)
    for (buyer, r), col in np.ndenumerate(instance.x_cols):
        if col >= 0:
            perm[col] = instance.x_cols[sigma[buyer], r]
    for (a, buyer), first in np.ndenumerate(instance.yp_first):
        for r in range(instance.n_le[a, buyer]):
            perm[first + r] = instance.yp_first[a, sigma[buyer]] + r
    assert sorted(perm) == list(range(instance.num_vars))
    return perm


class TestSymmetryQuotient:
    """solve_lp solves the buyer-orbit quotient and expands it back."""

    def test_objective_matches_full_solve(self):
        cases = symmetric_instances(60, seed=61)
        cases += [bad_example(BadExampleSpec(k=k)) for k in (2, 4, 8, 20)]
        cases += desk_instances(10, seed=41) + wide_bid_instances(12, seed=67)
        for ds in cases:
            instance = build_lp(ds, grid_of(ds))
            full = full_solve(instance)
            objective = solve_lp(instance).objective
            assert abs(objective - full) <= 1e-9 * max(1.0, abs(full)), (objective, full)

    def test_orbit_mates_carry_equal_masses(self):
        instances = symmetric_instances(20, seed=71)
        instances += [bad_example(BadExampleSpec(k=k)) for k in (3, 8)]
        for ds in instances:
            instance = build_lp(ds, grid_of(ds))
            vector = solve_lp(instance).vector
            rows = [(bids, bool((instance.x_cols[b] >= 0).any()))
                    for b, bids in enumerate(zip(*(a.bids for a in ds.auctions)))]
            for b in range(ds.num_buyers):
                for c in range(b + 1, ds.num_buyers):
                    if rows[b] == rows[c]:  # same bids, same free/fixed status
                        assert np.array_equal(vector, vector[transposition(instance, b, c)])

    def test_buyer_orbit_keys(self):
        # buyer 1 differs from buyer 0 in auction 1 only, buyer 2 copies
        # buyer 0, buyer 3 is a real buyer bidding 0; buyers 4 and 5 are the
        # auxiliaries
        ds = make_dataset(1, [(1, (4, 4, 4, 0)), (2, (3, 5, 3, 0))])
        assert buyer_orbits(build_lp(ds, grid_of(ds))).tolist() == [0, 1, 0, 2, 2, 2]
        for ds in symmetric_instances(20, seed=73):
            instance = build_lp(ds, grid_of(ds))
            orbit = buyer_orbits(instance)
            free = (instance.x_cols >= 0).any(axis=1)
            bids = list(zip(*(a.bids for a in ds.auctions)))  # per buyer
            for b in range(ds.num_buyers):
                for c in range(ds.num_buyers):
                    same = bids[b] == bids[c] and free[b] == free[c]
                    assert (orbit[b] == orbit[c]) == same

    def test_worst_case_quotient_size_is_constant(self):
        sizes = []
        for k in (20, 40, 80):
            ds = bad_example(BadExampleSpec(k=k))
            instance = build_lp(ds, grid_of(ds))
            quotient = symmetry_quotient(instance).lp
            sizes.append((len(quotient.c), quotient.A_eq.shape[0] + quotient.A_le.shape[0]))
        assert sizes == [(113, 94)] * 3
        assert instance.num_vars == 165_981  # k = 80
        solution = solve_lp(instance)  # passes lp_solver.solve's checks on the full rows
        assert solution.max_violation <= 1e-7
        assert solution.objective == float(instance.c @ solution.vector)

    def test_non_candidate_columns_dropped(self):
        dropped_total = 0
        for ds in wide_bid_instances(6, seed=79):
            instance = build_lp(ds, grid_of(ds))
            dropped = non_candidate_columns(instance)
            expand = symmetry_quotient(instance).expand
            # no quotient variable reaches a non-candidate column; every
            # other column belongs to exactly one
            assert expand[dropped].nnz == 0
            assert (expand[~dropped].getnnz(axis=1) == 1).all()
            assert not solve_lp(instance).vector[dropped].any()
            dropped_total += int(dropped.sum())
        assert dropped_total > 0

    def test_expansion_without_spread_rejected(self):
        ds = bad_example(BadExampleSpec(k=4))
        instance = build_lp(ds, grid_of(ds))
        quotient = symmetry_quotient(instance)
        lp = standard_lp(instance)
        assert lp_solver.solve(lp, quotient=quotient).max_violation <= 1e-9
        unspread = quotient.expand.copy()
        unspread.data[:] = 1.0  # every member carries its orbit's total
        with pytest.raises(LpSolveError, match="violates constraints"):
            lp_solver.solve(lp, quotient=lp_solver.Quotient(quotient.lp, unspread))


def block_columns(instance, quotient) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per quotient w column, from the full instance: its supporter sum
    (auction, winner orbit, supporter orbit), its reserve sum (auction, winner
    orbit, reserve) and whether its winner reserve exceeds its supporter's bid."""
    by_column = quotient.expand.tocsc()
    member = by_column.indices[by_column.indptr[:-1]]
    member = member[member < len(instance.w_auction)]
    orbit = buyer_orbits(instance)
    auction, r = instance.w_auction[member], instance.w_r1[member]
    supporter = instance.w_supporter[member]
    block = np.column_stack([auction, orbit[instance.w_winner[member]]])
    bids = np.array([a.bids for a in instance.dataset.auctions])
    values = np.array(instance.grid.values)
    return (np.unique(np.column_stack([block, orbit[supporter]]), axis=0, return_inverse=True)[1],
            np.unique(np.column_stack([block, r]), axis=0, return_inverse=True)[1],
            values[r] > bids[auction, supporter])


def marginal_sums(coupling, key: np.ndarray) -> np.ndarray:
    """Per marginal column of ``coupling``, the ``key`` of its w columns."""
    out = np.empty(coupling.n_p + coupling.n_u, dtype=np.int64)
    out[coupling.w_p], out[coupling.n_p + coupling.w_u] = key, key
    return out


class TestMarginalForm:
    """solve_lp solves the quotient through each block's two marginals."""

    @staticmethod
    def forms(instances):
        for ds in instances:
            instance = build_lp(ds, grid_of(ds))
            quotient = symmetry_quotient(instance)
            yield instance, quotient, marginal_form(instance, quotient)

    def test_coupling_reproduces_marginals(self):
        rng = np.random.Generator(np.random.Philox(83))
        cases = symmetric_instances(12, seed=83) + wide_bid_instances(6, seed=89)
        cases += [bad_example(BadExampleSpec(k=k)) for k in (3, 8)]
        for instance, quotient, form in self.forms(cases):
            coupling = form.expand
            high = block_columns(instance, quotient)[2]
            for density in (0.1, 0.5, 1.0):
                # the marginals of a w >= 0 on each regime's support
                w = rng.exponential(size=len(high)) * (rng.random(len(high)) < density)
                p = np.bincount(coupling.w_p, w, coupling.n_p)
                u = np.bincount(coupling.w_u, w, coupling.n_u)
                coupled = coupling.couple(np.concatenate([p, u]))
                assert coupled.min() >= 0
                assert np.abs(np.bincount(coupling.w_p, coupled, coupling.n_p) - p).max() <= 1e-12
                assert np.abs(np.bincount(coupling.w_u, coupled, coupling.n_u) - u).max() <= 1e-12
                # each regime's mass stays on that regime's (s, r) pairs
                assert abs(coupled[high].sum() - w[high].sum()) <= 1e-12
                assert abs(coupled[~high].sum() - w[~high].sum()) <= 1e-12

    def test_any_balanced_marginals_couple(self):
        """Per block and regime, any balanced marginals couple back to both
        marginals, whether or not some w on the regime's support has them; a
        piece that lands on the other regime's pair earns max(b_s, V_r), so
        the coupled objective is at least what the marginals were credited."""
        rng = np.random.Generator(np.random.Philox(97))
        cases = symmetric_instances(12, seed=97) + wide_bid_instances(6, seed=101)
        cases += [bad_example(BadExampleSpec(k=k)) for k in (3, 8)]
        gains = []
        for instance, quotient, form in self.forms(cases):
            coupling = form.expand
            n_p, n_u, groups = coupling.n_p, coupling.n_u, len(coupling.p_count)
            supporter, reserve, _ = block_columns(instance, quotient)
            p_sum = marginal_sums(coupling, supporter)[:n_p]
            u_sum = marginal_sums(coupling, reserve)[n_p:]
            for _ in range(8):
                v = rng.exponential(size=n_p + n_u) * (rng.random(n_p + n_u) < 0.6)
                # balance each group: scale its reserve marginals to the supporters' total
                p_total = np.bincount(coupling.p_group, v[:n_p], groups)
                u_total = np.bincount(coupling.u_group, v[n_p:], groups)
                scale = np.divide(p_total, u_total, out=np.zeros(groups), where=u_total > 0)
                v[n_p:] *= scale[coupling.u_group]
                v[:n_p] *= (u_total > 0)[coupling.p_group]
                coupled = coupling.couple(v)
                assert coupled.min() >= 0
                for key, marginal, sums in ((supporter, v[:n_p], p_sum),
                                            (reserve, v[n_p:], u_sum)):
                    assert np.abs(np.bincount(key, coupled)
                                  - np.bincount(sums, marginal, key.max() + 1)).max() <= 1e-12
                earned = quotient.lp.c[:len(supporter)] @ coupled
                credited = form.lp.c[:n_p + n_u] @ v
                assert earned >= credited - 1e-12 * max(1.0, credited)
                gains.append(earned - credited)
        assert max(gains) > 1e-3

    def test_worst_case_marginal_size_is_constant(self):
        sizes = []
        for k in (20, 40, 80):
            ds = bad_example(BadExampleSpec(k=k))
            instance = build_lp(ds, grid_of(ds))
            lp = marginal_form(instance, symmetry_quotient(instance)).lp
            sizes.append((len(lp.c), lp.A_eq.shape[0] + lp.A_le.shape[0]))
        assert sizes == [(126, 116)] * 3
        solution = solve_lp(instance)  # k = 80, checked on the full rows
        assert solution.max_violation <= 1e-7
        assert solution.objective == float(instance.c @ solution.vector)

    def test_row_reading_neither_marginal_rejected(self):
        """A row reading one column of a block, not a whole supporter or
        reserve sum, has no marginal form."""
        ds = bad_example(BadExampleSpec(k=4))
        instance = build_lp(ds, grid_of(ds))
        quotient = symmetry_quotient(instance)
        coupling = marginal_form(instance, quotient).expand
        # a column whose supporter sum and reserve sum both have other columns
        shared = ((np.bincount(coupling.w_p)[coupling.w_p] > 1)
                  & (np.bincount(coupling.w_u)[coupling.w_u] > 1))
        one = sp.csr_matrix(([1.0], ([0], [int(np.flatnonzero(shared)[0])])),
                            shape=(1, len(quotient.lp.c)))
        lp = quotient.lp
        widened = lp_solver.Quotient(lp_solver.StandardLp(
            c=lp.c, A_eq=lp.A_eq, b_eq=lp.b_eq, A_le=sp.vstack([lp.A_le, one], format="csr"),
            b_le=np.r_[lp.b_le, 1.0]), quotient.expand)
        with pytest.raises(ValueError, match="neither marginal"):
            marginal_form(instance, widened)

    def test_perturbed_marginal_judged_by_full_rows(self, monkeypatch):
        """A supporter marginal off by 1e-9 couples without losing the slice;
        the full-row check alone accepts or rejects the point."""
        ds = bad_example(BadExampleSpec(k=4))
        instance = build_lp(ds, grid_of(ds))
        quotient = symmetry_quotient(instance)
        coupling = marginal_form(instance, quotient).expand
        real, seen = lp_solver.linprog, {}

        def perturbed(*args, **kwargs):
            res = real(*args, **kwargs)
            # a supporter marginal at 0: no reserve of its group takes the
            # extra mass, so its slice goes to the group's lowest reserve
            j = int(np.flatnonzero(res.x[:coupling.n_p] == 0)[0])
            res.x = res.x.copy()
            res.x[j] += 1e-9
            seen.update(x=res.x)
            return res

        monkeypatch.setattr(lp_solver, "linprog", perturbed)
        solution = solve_lp(instance)
        violation = lp_solver.feasibility_violation(standard_lp(instance),
                                                    coupling @ seen["x"])
        assert solution.max_violation == violation and 0 < violation <= 1e-7
        supporter = block_columns(instance, quotient)[0]
        p_sum = marginal_sums(coupling, supporter)[:coupling.n_p]
        assert np.abs(np.bincount(supporter, coupling.couple(seen["x"]))
                      - np.bincount(p_sum, seen["x"][:coupling.n_p])).max() <= 1e-15
        with pytest.raises(LpSolveError, match="violates constraints"):
            solve_lp(instance, tol_feas=violation / 2)


def oracle_instances() -> list[BidDataset]:
    """Every instance of ``test_objective_matches_full_solve``, the three
    benchmark instances, ``bad_example(k)`` for k = 2, 4, 8, 20, 40, and 49
    copies of one buyer, where an orbit's summed objective divided by its
    size (49 / 49) is not the sum times 1 / size in the last bit."""
    cases = symmetric_instances(60, seed=61) + desk_instances(10, seed=41)
    cases += wide_bid_instances(12, seed=67)
    cases += [bad_example(BadExampleSpec(k=k)) for k in (2, 4, 8, 20, 40)]
    cases += [make_dataset(1, [(1, (1,) * 49 + (3,))])]
    cases += [add_auxiliary_buyers(random_dataset(15, 30, 2, 0, max_bid=9, max_weight=1)),
              add_auxiliary_buyers(random_dataset(6, 40, 2, 0, max_bid=9, max_weight=5))]
    return cases


def same_csr(a, b) -> bool:
    """Same shape and entries, compared in canonical (sorted-index) storage:
    in-row order does not change HiGHS's result (``test_highs_ignores_in_row_order``)."""
    a, b = as_csr(a).sorted_indices(), as_csr(b).sorted_indices()
    return a.shape == b.shape and all(np.array_equal(getattr(a, part), getattr(b, part))
                                      for part in ("data", "indices", "indptr"))


def passed_matrix(args: tuple) -> sp.csr_matrix:
    """The row-wise matrix a recorded ``passModel`` call was handed."""
    num_col, num_row, num_nz = args[:3]
    start, index, value = args[11:14]
    return sp.csr_matrix((value, index, np.r_[start, num_nz]), shape=(num_row, num_col))


def shuffle_rows(A, rng: np.random.Generator) -> lp_solver.Csr:
    """``A`` with the entries of each row in a random order."""
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    order = np.lexsort((rng.random(len(rows)), rows))
    return lp_solver.Csr(A.data[order], A.indices[order], A.indptr, A.shape)


class TestReducedLp:
    """reduced_lp emits the oracle chain's LP from buyer orbits, and the
    solve checks the full rows without assembling them."""

    def test_matches_quotient_chain(self, monkeypatch):
        """Array for array, once the chain's rows that read no column are
        gone, so HiGHS takes the same path; each of those rows reads
        0 <= rhs with rhs >= 0.  Rows may list their entries in another
        order, which does not change HiGHS's result
        (``test_highs_ignores_in_row_order``): what linprog hands passModel
        is the same matrix in column-wise form, and the costs, the column
        and row bounds are equal bit for bit.  The sizes the report gives
        are the assembled matrices' shapes."""
        passed = []

        class Recording(lp_solver._Highs):
            def passModel(self, *args):
                passed.append(args)
                return lp_solver.HighsStatus.kError  # stop before the solve

        monkeypatch.setattr(lp_solver, "_Highs", Recording)
        for i, ds in enumerate(oracle_instances()):
            instance = build_lp(ds, grid_of(ds))
            chain = marginal_form(instance, symmetry_quotient(instance))
            oracle, removed = without_empty_rows(chain)
            assert chain.lp.A_le[removed].nnz == 0
            assert (chain.lp.b_le[removed] >= 0).all()
            reduced = reduced_lp(instance)
            for name in ("c", "b_eq", "b_le"):
                assert np.array_equal(getattr(reduced.lp, name), getattr(oracle.lp, name)), name
            assert same_csr(reduced.lp.A_eq, oracle.lp.A_eq)
            assert same_csr(reduced.lp.A_le, oracle.lp.A_le)
            for lp in (reduced.lp, oracle.lp):
                assert lp_solver.linprog(lp).status == "passModel returned an error"
            assert len(passed[-2]) == len(passed[-1]) == 15, i
            for a, b in zip(passed[-2][:11] + passed[-2][14:], passed[-1][:11] + passed[-1][14:]):
                if isinstance(a, np.ndarray):
                    assert a.dtype == b.dtype and np.array_equal(a, b), i
                else:
                    assert a == b, i
            new_cols, old_cols = (passed_matrix(args).tocsc() for args in passed[-2:])
            for part in ("data", "indices", "indptr"):
                a, b = getattr(new_cols, part), getattr(old_cols, part)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (i, part)
            new, old = reduced.expand, oracle.expand
            assert same_csr(new.spread, old.spread)
            for name in ("w_p", "w_u", "p_group", "u_group", "p_count", "u_count", "p_at",
                         "u_at", "p_supporter", "u_reserve", "w_at"):
                assert np.array_equal(getattr(new, name), getattr(old, name)), name
            section = cli._lp_section(instance, SimpleNamespace(
                objective=0.0, iterations=0, max_violation=0.0))
            assert (section["variables"], section["equality_rows"], section["inequality_rows"]) \
                == (instance.A_eq.shape[1], instance.A_eq.shape[0], instance.A_le.shape[0])

    def test_no_empty_rows(self):
        """Every emitted row reads a column, and there is one (3) row per
        (auction, orbit, candidate reserve below the orbit's bid), on the
        oracle set: the benchmark instances and wide bids among them."""
        for ds in oracle_instances():
            instance = build_lp(ds, grid_of(ds))
            lp = reduced_lp(instance).lp
            assert (np.diff(lp.A_eq.indptr) > 0).all()
            assert (np.diff(lp.A_le.indptr) > 0).all()
            orbit = buyer_orbits(instance)
            first = np.unique(orbit, return_index=True)[1]
            candidate = candidate_mask(ds, instance.grid)
            n_cand = sum(int(candidate[b, :instance.n_le[a, b]].sum())
                         for a in range(ds.num_auctions) for b in first)
            pa, pw, ps = np.nonzero(instance.w_first >= 0)
            num_pairs = len(np.unique(np.column_stack([pa, orbit[pw], orbit[ps]]), axis=0))
            assert lp.A_le.shape[0] == n_cand + num_pairs + ds.num_auctions

    def test_full_row_check_matches_csr(self):
        """The check sums each full row in column order from the index arrays:
        the same floats as the CSR rows, at the optimum and at points that
        break each row family."""
        rng = np.random.Generator(np.random.Philox(113))
        cases = [bad_example(BadExampleSpec(k=4))] + symmetric_instances(6, seed=113)
        cases += wide_bid_instances(4, seed=127)
        for ds in cases:
            instance = build_lp(ds, grid_of(ds))
            csr = standard_lp(instance)
            solution = solve_lp(instance)
            x = solution.vector
            assert solution.max_violation == lp_solver.feasibility_violation(csr, x)
            assert solution.objective == float(instance.c @ x)
            counts = instance.constraint_counts
            eq2, le3 = counts["supporter_link"], counts["reserve_consistency"]
            le4 = le3 + counts["compatibility"]
            w, xc, yp = 0, int(instance.x_cols.max()), int(instance.yp_first[0, 0])
            families = {  # rows, rhs, eq?, and a perturbation breaking them
                "(2')": (csr.A_eq[:eq2], csr.b_eq[:eq2], True, w, 1e-3),
                "(6)": (csr.A_eq[eq2:], csr.b_eq[eq2:], True, xc, 1e-3),
                "(3)": (csr.A_le[:le3], csr.b_le[:le3], False, yp, 2.0),
                "(4)": (csr.A_le[le3:le4], csr.b_le[le3:le4], False, w, 5.0),
                "(5)": (csr.A_le[le4:], csr.b_le[le4:], False, w, ds.num_items + 1.0),
            }
            for family, (rows, rhs, eq, col, step) in families.items():
                point = x.copy()
                point[col] += step
                residual = rows @ point - rhs
                assert (np.abs(residual) if eq else residual).max() > 0, family
                violation = lp_solver.feasibility_violation(instance, point)
                assert violation == lp_solver.feasibility_violation(csr, point) > 0, family
            point = rng.standard_normal(instance.num_vars)
            assert (lp_solver.feasibility_violation(instance, point)
                    == lp_solver.feasibility_violation(csr, point))


    def test_highs_matrix_matches_scipy_stacking(self, monkeypatch):
        """linprog hands passModel the rows as stored, ``A_le``'s over
        ``A_eq``'s: row-wise, and, dtype and bits, what the arrays of
        ``sp.vstack((A_le, A_eq), format="csr")`` become, also with either
        block absent."""
        passed = []

        class Recording(lp_solver._Highs):
            def passModel(self, *args):
                passed.append(args)
                return lp_solver.HighsStatus.kError  # stop before the solve

        monkeypatch.setattr(lp_solver, "_Highs", Recording)
        cases = oracle_instances() + [bad_example(BadExampleSpec(k=k)) for k in (69, 77, 80)]
        for i, ds in enumerate(cases):
            lp = reduced_lp(build_lp(ds, grid_of(ds))).lp
            n = len(lp.c)
            for le, eq in ((True, True), (True, False), (False, True)):
                rows = {}
                if le:
                    rows.update(A_le=lp.A_le, b_le=lp.b_le)
                if eq:
                    rows.update(A_eq=lp.A_eq, b_eq=lp.b_eq)
                lp_solver.linprog(lp_solver.StandardLp(c=lp.c, **rows))
                A = sp.vstack([as_csr(rows[name]) if name in rows else sp.csr_matrix((0, n))
                               for name in ("A_le", "A_eq")], format="csr")
                args = passed[-1]
                assert args[1:4] == (A.shape[0], A.nnz, lp_solver._highs.MatrixFormat.kRowwise), i
                expected = (A.indptr[:-1].astype(np.int32, copy=False),
                            A.indices.astype(np.int32, copy=False),
                            A.data.astype(float, copy=False))
                for got, want in zip(args[11:14], expected):
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), i

    def test_highs_ignores_in_row_order(self):
        """HiGHS reads the rows as stored; shuffling the entries within each
        row, by a seeded permutation, leaves its point, objective and
        iteration count bit for bit as they were."""
        rng = np.random.Generator(np.random.Philox(151))
        cases = oracle_instances()[::8] + [bad_example(BadExampleSpec(k=69))]
        moved = 0
        for i, ds in enumerate(cases):
            lp = reduced_lp(build_lp(ds, grid_of(ds))).lp
            shuffled = {name: shuffle_rows(getattr(lp, name), rng) for name in ("A_eq", "A_le")}
            moved += sum(not np.array_equal(A.indices, getattr(lp, name).indices)
                         for name, A in shuffled.items())
            base = lp_solver.linprog(lp)
            other = lp_solver.linprog(lp_solver.StandardLp(
                c=lp.c, b_eq=lp.b_eq, b_le=lp.b_le, **shuffled))
            assert base.status == other.status == "Optimal", i
            assert base.x.tobytes() == other.x.tobytes(), i
            assert base.fun == other.fun and base.nit == other.nit, i
        assert moved >= len(cases)

    def test_coupling_spread_matches_csr_matvec(self):
        """The coupling spreads its columns by summing into zeros, bit for
        bit scipy's CSR product over the same label and weight arrays: a
        -0.0 in the x or y' part comes out +0.0."""
        rng = np.random.Generator(np.random.Philox(131))
        cases = [bad_example(BadExampleSpec(k=4))] + symmetric_instances(4, seed=131)
        cases += wide_bid_instances(2, seed=137)
        for ds in cases:
            quotient = reduced_lp(build_lp(ds, grid_of(ds)))
            coupling, head = quotient.expand, quotient.expand.n_p + quotient.expand.n_u
            spread = as_csr(coupling.spread)
            signed = rng.random(len(quotient.lp.c))
            signed[head::3], signed[head + 1::3] = -0.0, 0.0
            for v in (lp_solver.linprog(quotient.lp).x, signed):
                z = np.concatenate([coupling.couple(v), v[head:]])
                assert (coupling @ v).tobytes() == (spread @ z).tobytes()
            assert np.signbit(z[z == 0]).any() and not np.signbit(coupling @ signed).any()

    def test_row_sums_match_csr_products(self):
        """``StandardLp.row_sums`` adds each row's products in storage order:
        the floats of scipy's ``A @ x`` and ``|A| @ |x|``, on the solved LP's
        rows and on the full rows, at points holding -0.0 and 0."""
        rng = np.random.Generator(np.random.Philox(139))
        cases = [bad_example(BadExampleSpec(k=4))] + symmetric_instances(4, seed=139)
        cases += wide_bid_instances(2, seed=149)
        for ds in cases:
            instance = build_lp(ds, grid_of(ds))
            for lp in (reduced_lp(instance).lp, standard_lp(instance)):
                x = rng.standard_normal(len(lp.c))
                x[::5], x[1::5] = -0.0, 0.0
                for (dot, abs_dot), A in zip(lp.row_sums(x), (lp.A_eq, lp.A_le)):
                    A = as_csr(A)
                    assert dot.tobytes() == (A @ x).tobytes()
                    assert abs_dot.tobytes() == (abs(A) @ np.abs(x)).tobytes()


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
    def embed(ds, s=None, x=None):
        inst = build_lp(ds, grid_of(ds))
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

    def test_free_buyer_mass_at_any_grid_value(self, two_bidder_k1):
        # buyer 1 bids only 5, so 10 is not a candidate, yet it has an x column
        assert self.embed(two_bidder_k1, x={1: {10: 1.0}}).sum() == 1.0
        assert self.embed(two_bidder_k1, x={1: {5: 1.0}}).sum() == 1.0
        with pytest.raises(ValueError, match="reserve 10 of buyer 3 must be 0: .* auxiliary"):
            self.embed(two_bidder_k1, x={3: {10: 1.0}})

    def test_interpret_fixed_buyers(self):
        # buyer 2 bids 0 everywhere, so it is fixed like the auxiliary buyer 3
        ds = make_dataset(1, [(1, (10, 5, 0)), (2, (3, 5, 0))])
        inst = build_lp(ds, grid_of(ds))
        vec = np.arange(inst.num_vars, dtype=float)
        _, x_masses = inst.interpret(vec)
        assert {b: sorted(m) for b, m in x_masses.items()} == {
            0: [0, 3, 5, 10], 1: [0, 3, 5, 10], 2: [0], 3: [0], 4: [0]}
        assert x_masses[2] == x_masses[3] == {0: 1.0}
        # the eight x columns follow the w columns
        num_w = len(inst.w_auction)
        assert [*x_masses[0].values(), *x_masses[1].values()] == list(vec[num_w: num_w + 8])
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

    def test_dump_matches_row_by_row_formatter(self):
        """The dump, formatted from the CSR arrays at once, is byte for byte
        the one scipy's ``getrow`` formatter writes row by row."""
        cases = oracle_instances() + wide_bid_instances(6, seed=157)
        cases += [bad_example(BadExampleSpec(k=k)) for k in range(2, 9)]
        for i, ds in enumerate(cases):
            instance = build_lp(ds, grid_of(ds))
            assert instance.to_lp_text() == lp_text(instance), i

    def test_interpret_round_trip(self, two_bidder_k1):
        inst = build_lp(two_bidder_k1, grid_of(two_bidder_k1))
        sol = solve_lp(inst)
        s_parts, x_masses = inst.interpret(sol.vector)
        assert len(s_parts) == 1
        for b, masses in x_masses.items():
            assert sum(masses.values()) == pytest.approx(1.0, abs=1e-7)
        # auxiliaries come back as point mass at zero
        assert x_masses[2] == {0: 1.0} and x_masses[3] == {0: 1.0}
