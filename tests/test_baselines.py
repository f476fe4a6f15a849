"""Exact search, greedy baseline, and the worst-case instance family."""

import bisect
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evcg_reserves import auction, baselines
from evcg_reserves.auction import (
    add_auxiliary_buyers,
    batch_evaluator,
    revenue,
    zero_reserves,
)
from evcg_reserves.baselines import (
    BadExampleSpec,
    _candidate_reserves,
    bad_example,
    bad_example_fractional,
    bad_example_optimal_vectors,
    brute_force_opt,
    greedy_reserves,
)
from evcg_reserves.datasets import random_dataset
from evcg_reserves.errors import SizeGuardError
from evcg_reserves.lp_model import build_lp

from .conftest import desk_instances, grid_of, make_dataset, naive_outcome, naive_revenue


def product_order_optimum(ds, values):
    """Exhaustive search over the product of per-real-buyer ``values``.

    Enumerates in ``itertools.product`` order, evaluates chunks of vectors
    through the batch evaluator's weighted ``revenues`` and keeps the first
    maximum: the independent oracle of :func:`brute_force_opt`.
    """
    evaluator = batch_evaluator(ds)
    aux = (0,) * (ds.num_items + 1)
    best_vec, best_rev = None, -1
    combos = itertools.product(*values)
    while chunk := list(itertools.islice(combos, 4096)):
        mat = np.array([c + aux for c in chunk], dtype=evaluator.dtype)
        revs = evaluator.revenues(mat)
        i = int(np.argmax(revs))  # first max within the chunk
        if revs[i] > best_rev:  # strictly: first max across chunks
            best_vec, best_rev = tuple(int(v) for v in mat[i]), int(revs[i])
    return best_vec, best_rev


def full_grid_optimum(ds, grid):
    """Unpruned exhaustive search over grid^n."""
    return product_order_optimum(ds, [grid.values] * ds.num_real_buyers)


def oracle_instances():
    """Seeded random instances whose candidate product the oracle enumerates quickly."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(83)))
    out = []
    while len(out) < 60:
        nb, na, k = int(rng.integers(1, 7)), int(rng.integers(1, 9)), int(rng.integers(1, 4))
        max_bid, max_weight = int(rng.choice([1, 3, 9, 20])), int(rng.choice([1, 5]))
        ds = add_auxiliary_buyers(random_dataset(
            nb, na, k, seed=8300 + len(out), max_bid=max_bid, max_weight=max_weight))
        if math.prod(map(len, _candidate_reserves(ds, grid_of(ds)))) <= 20_000:
            out.append(ds)
    return out


@st.composite
def tiny_datasets(draw):
    """Up to 4 real buyers (none too), 1-4 auctions, k 1-3, bids 0-6, weights 1-3."""
    nb, k = draw(st.integers(0, 4)), draw(st.integers(1, 3))
    cols = [(draw(st.integers(1, 3)), tuple(draw(st.integers(0, 6)) for _ in range(nb)))
            for _ in range(draw(st.integers(1, 4)))]
    return make_dataset(k, cols)


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

    def test_cap_refusal(self, monkeypatch):
        small = bad_example(BadExampleSpec(k=6))
        # 15 buyers with up to 10 candidates each: ~10^15, far past any tensor
        huge = add_auxiliary_buyers(random_dataset(15, 30, 2, 0))
        # the refusal comes before any array is built: without numpy it still refuses
        monkeypatch.setattr(baselines, "np", None)
        with pytest.raises(SizeGuardError):
            brute_force_opt(small, grid_of(small), max_evals=10)
        with pytest.raises(SizeGuardError, match=r"\(cap 10000000\)$"):
            brute_force_opt(huge, grid_of(huge))

    def test_cap_boundary(self, monkeypatch):
        ds = bad_example(BadExampleSpec(k=3))
        grid = grid_of(ds)
        product = math.prod(map(len, _candidate_reserves(ds, grid)))
        assert brute_force_opt(ds, grid, max_evals=product) == full_grid_optimum(ds, grid)
        monkeypatch.setattr(baselines, "np", None)
        with pytest.raises(SizeGuardError,
                           match=rf"^brute force would need {product}\+ evaluations "
                                 rf"\(cap {product - 1}\)$"):
            brute_force_opt(ds, grid, max_evals=product - 1)

    def test_exact_past_int64(self, int64_overflow):
        # int64 sums once returned a wrapped "optimum" of 9e18 here
        vec, rev = brute_force_opt(int64_overflow, grid_of(int64_overflow))
        assert rev == naive_revenue(int64_overflow, vec) == 11 * 10**18

    def test_matches_product_order_oracle(self, int64_overflow):
        ties = make_dataset(2, [(1, (5, 5, 5, 5)), (3, (5, 5, 5, 5)), (2, (5, 5, 5, 5))])
        no_real = make_dataset(1, [(1, ())])
        # revenue bounds at the edge of 16 bits, in 32 bits and in 64 bits
        wide = [make_dataset(1, [(1, (2**16 - 1, 7, 2**16 - 2))]),
                make_dataset(1, [(1, (2**16, 7, 2**16 - 2))]),
                make_dataset(2, [(3, (9 * 10**6, 10**6, 0)), (1, (0, 5 * 10**6, 3))]),
                make_dataset(2, [(3, (4 * 10**12, 10**12, 3 * 10**12)), (1, (0, 5, 2))])]
        for ds in oracle_instances() + wide + [ties, no_real, int64_overflow]:
            grid = grid_of(ds)
            assert brute_force_opt(ds, grid) == product_order_optimum(
                ds, _candidate_reserves(ds, grid))

    @settings(max_examples=80, deadline=None)
    @given(tiny_datasets())
    @example(make_dataset(1, [(1000, (0, 0)), (1, (3, 1))]))  # a weight past the 8-bit bound
    def test_matches_product_order_oracle_on_random_tiny_datasets(self, ds):
        grid = grid_of(ds)
        assert brute_force_opt(ds, grid) == product_order_optimum(
            ds, _candidate_reserves(ds, grid))

    def test_chunk_size_does_not_matter(self, monkeypatch, int64_overflow):
        cases = oracle_instances()[-10:] + [int64_overflow]
        expected = [brute_force_opt(ds, grid_of(ds)) for ds in cases]
        monkeypatch.setattr(auction, "CHUNK", 7)
        assert [brute_force_opt(ds, grid_of(ds)) for ds in cases] == expected

    def test_matches_naive_oracle(self):
        """Brute force against the naive re-implementation alone: no batch
        evaluator scores the candidates here."""
        checked = 0
        for ds in oracle_instances():
            cands = _candidate_reserves(ds, grid_of(ds))
            if math.prod(map(len, cands)) > 2_000:
                continue
            vec, rev = brute_force_opt(ds, grid_of(ds))
            aux = (0,) * (ds.num_items + 1)
            assert rev == naive_revenue(ds, vec) == max(
                naive_revenue(ds, c + aux) for c in itertools.product(*cands))
            checked += 1
        assert checked == 51

    def test_recursion_matches_naive_outcome(self, int64_overflow):
        """The bid-order recursion's revenue on every entry of every auction's
        class product equals the naive re-implementation's, at the
        candidate standing for each class (the uncleared class is the first
        candidate above the bid)."""
        ties = make_dataset(2, [(1, (5, 5, 5, 5)), (3, (5, 5, 5, 5)), (2, (5, 5, 5, 5))])
        wide = [make_dataset(1, [(1, (2**16 - 1, 7, 2**16 - 2))]),
                make_dataset(2, [(3, (4 * 10**12, 10**12, 3 * 10**12)), (1, (0, 5, 2))])]
        zero_bidder = make_dataset(2, [(1, (0, 5, 3)), (2, (0, 1, 4)), (1, (0, 4, 4))])
        by_k = [make_dataset(k, [(1, (6, 2, 9, 2, 4)), (2, (3, 8, 0, 5, 7)), (1, (1, 1, 6, 6, 0))])
                for k in (1, 2, 3)]
        no_real = make_dataset(1, [(1, ())])
        cases = oracle_instances() + wide + by_k + [ties, zero_bidder, no_real, int64_overflow]
        assert {ds.num_items for ds in cases} == {1, 2, 3}
        for ds in cases:
            evaluator = batch_evaluator(ds)
            dtype = np.dtype(object if evaluator.dtype is object
                             else np.min_scalar_type(evaluator.bound))
            cands = _candidate_reserves(ds, grid_of(ds))
            aux = (0,) * (ds.num_items + 1)
            for a, column in enumerate(ds.auctions):
                cleared = [bisect.bisect_right(c, bid) for c, bid in zip(cands, column.bids)]
                part = [(np.array(c[:m], dtype=dtype), m < len(c)) for c, m in zip(cands, cleared)]
                revs = baselines._bid_order_revenues(evaluator, a, part, dtype)
                shape = tuple(m + unc for m, (_, unc) in zip(cleared, part))
                revs = np.broadcast_to(revs, shape)
                for entry in np.ndindex(shape):
                    reserves = tuple(c[i] for c, i in zip(cands, entry)) + aux
                    assert revs[entry] == naive_outcome(column.bids, reserves, ds.num_items)[3]

    def test_slabs_stay_within_chunk(self, monkeypatch):
        """Brute force's recursion never sees more than ``auction.CHUNK``
        reserve classes at once, and no array gathered from them takes more
        than 8 * ``auction.CHUNK`` bytes.  Besides the tensor, brute force
        then holds at most the recursion's 4k + 1 arrays, or one of them and
        a gather's two: on the largest instance, at a chunk below its largest
        class product too, tracemalloc sees no more."""
        classes, gathered = [], []
        recursion, gather = baselines._bid_order_revenues, baselines._gather
        default = auction.CHUNK

        def recording_recursion(evaluator, auction_index, part, dtype):
            classes.append(math.prod(len(r) + unc for r, unc in part))
            return recursion(evaluator, auction_index, part, dtype)

        def recording_gather(revs, *args):
            out = gather(revs, *args)
            gathered.append(out.size * out.itemsize)
            return out

        def run(ds, chunk):
            monkeypatch.setattr(auction, "CHUNK", chunk)
            classes.clear()
            gathered.clear()
            brute_force_opt(ds, grid_of(ds))
            assert max(classes) <= chunk and max(gathered) <= 8 * chunk

        monkeypatch.setattr(baselines, "_bid_order_revenues", recording_recursion)
        monkeypatch.setattr(baselines, "_gather", recording_gather)
        for ds in oracle_instances()[:20]:
            for chunk in (1, 7, 60):
                run(ds, chunk)
        # the largest class product here is 324,000 entries, past the default chunk
        largest = add_auxiliary_buyers(random_dataset(6, 40, 2, 0, max_bid=9, max_weight=5))
        # 16-bit entries: the revenue bound 2 * sum(weight * max bid) fits
        tensor = 2 * math.prod(map(len, _candidate_reserves(largest, grid_of(largest))))
        batch_evaluator(largest)  # built once per dataset, outside the measured span
        for chunk in (default, 2**14):
            tracemalloc.start()
            try:
                run(largest, chunk)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # slabs were cut, each as large as the chunk allows
            assert len(classes) > largest.num_auctions and max(classes) > chunk // 2
            assert peak - tensor <= (4 * largest.num_items + 2) * chunk * 2 + 16 * chunk

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
        for k in range(2, 9):
            ds = bad_example(BadExampleSpec(k=k))
            inst = build_lp(ds, grid_of(ds))
            for d in (0.025, 0.25, 0.5, 0.9):
                vec = inst.embed(bad_example_fractional(BadExampleSpec(k=k, delta=d)))
                assert inst.violation(vec) <= 1e-9, (k, d)

    def test_objective_value(self):
        spec = BadExampleSpec(k=3, delta=0.2)
        point = bad_example_fractional(spec)
        k, d = 3, 0.2
        assert point.objective == pytest.approx(2 * k**3 + k**2 + (1 - d) * k)
        for k in range(2, 9):
            for d in (0.025, 0.25, 0.5, 0.9):
                spec = BadExampleSpec(k=k, delta=d)
                ds = bad_example(spec)
                first, second = (revenue(ds, v) for v in bad_example_optimal_vectors(spec))
                expected = d * first + (1 - d) * second
                assert bad_example_fractional(spec).objective == pytest.approx(
                    expected, rel=1e-12, abs=0), (k, d)
