"""Auction engine: augmentation, execution, exact revenue, order statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evcg_reserves import auction
from evcg_reserves.auction import (
    AuctionColumn,
    BidDataset,
    ReserveGrid,
    add_auxiliary_buyers,
    batch_evaluator,
    kth_plus_one_bid,
    revenue,
    run_evcg,
    winners_above,
    zero_reserves,
)
from evcg_reserves.baselines import BadExampleSpec, bad_example
from evcg_reserves.lp_model import encode_reserves

from .conftest import desk_instances, make_dataset, naive_outcome, naive_revenue


class TestAugmentation:
    def test_appends_k_plus_one_zero_bidders(self):
        ds = make_dataset(1, [(1, (10, 5))], augmented=False)
        aug = add_auxiliary_buyers(ds)
        assert aug.num_buyers == 4
        assert aug.auctions[0].bids == (10, 5, 0, 0)
        assert ds.auctions[0].bids == (10, 5)  # original untouched

    def test_k2_three_buyers(self):
        aug = add_auxiliary_buyers(make_dataset(2, [(1, (10, 8, 5))], augmented=False))
        assert aug.num_buyers == 6
        assert aug.auctions[0].bids[-3:] == (0, 0, 0)

    def test_double_augmentation_rejected(self):
        aug = make_dataset(1, [(1, (10, 5))])
        with pytest.raises(ValueError):
            add_auxiliary_buyers(aug)


class TestRunEvcg:
    def test_reserve_lifts_payment(self, two_bidder_k1):
        out = run_evcg(two_bidder_k1, 0, (7, 0, 0, 0))
        assert out.winners == (0,)
        assert out.supporter == 1
        assert out.payments == {0: 7}  # max(7, 5)

    def test_zero_reserves_pay_next_bid(self, three_bidder_k2):
        out = run_evcg(three_bidder_k2, 0, zero_reserves(three_bidder_k2))
        assert out.winners == (0, 1)
        assert out.payments == {0: 5, 1: 5}
        assert out.revenue == 10

    def test_eliminated_top_bidder(self, two_bidder_k1):
        out = run_evcg(two_bidder_k1, 0, (11, 5, 0, 0))
        assert out.winners == (1,)
        assert out.payments == {1: 5}  # clears at its bid, supporter bids 0

    def test_both_real_bidders_eliminated(self, two_bidder_k1):
        # a reserve of 6 eliminates the bid of 5 too; auxiliaries win at 0
        out = run_evcg(two_bidder_k1, 0, (11, 6, 0, 0))
        assert out.winners == (2,)
        assert out.revenue == 0

    def test_requires_augmented(self):
        ds = make_dataset(1, [(1, (10, 5))], augmented=False)
        with pytest.raises(ValueError):
            run_evcg(ds, 0, (0, 0))

    def test_index_bounds(self, two_bidder_k1):
        with pytest.raises(IndexError):
            run_evcg(two_bidder_k1, 5, (0, 0, 0, 0))

    def test_auxiliary_reserve_must_be_zero(self, two_bidder_k1):
        with pytest.raises(ValueError):
            run_evcg(two_bidder_k1, 0, (0, 0, 1, 0))

    def test_ties_break_by_lower_index(self):
        ds = make_dataset(1, [(1, (7, 7, 7))])
        out = run_evcg(ds, 0, zero_reserves(ds))
        assert out.winners == (0,)
        assert out.supporter == 1

    def test_determinism(self, three_bidder_k2):
        a = run_evcg(three_bidder_k2, 0, (9, 0, 3, 0, 0, 0))
        b = run_evcg(three_bidder_k2, 0, (9, 0, 3, 0, 0, 0))
        assert a == b


class TestRevenue:
    def test_bad_example_first_vector(self):
        ds = bad_example(BadExampleSpec(k=2))
        assert revenue(ds, (8, 2, 4, 4, 0, 0, 0)) == 20

    def test_bad_example_zero_vector(self):
        ds = bad_example(BadExampleSpec(k=2))
        assert revenue(ds, zero_reserves(ds)) == 12

    def test_all_reserves_above_max_bid(self, three_bidder_k2):
        assert revenue(three_bidder_k2, (11, 11, 11, 0, 0, 0)) == 0

    def test_zero_reserves_identity(self):
        # Rev_a(0) = k * (k+1)-th highest bid, exactly, per auction
        for ds in desk_instances(25, seed=11):
            zeros = zero_reserves(ds)
            for a in range(ds.num_auctions):
                out = run_evcg(ds, a, zeros)
                assert out.revenue == ds.num_items * kth_plus_one_bid(ds, a)


class TestKthPlusOne:
    def test_three_bidders(self, three_bidder_k2):
        assert kth_plus_one_bid(three_bidder_k2, 0) == 5

    def test_auxiliary_fills_slot(self):
        ds = make_dataset(1, [(1, (10,))])
        assert kth_plus_one_bid(ds, 0) == 0

    def test_bad_example_third_column(self):
        ds = bad_example(BadExampleSpec(k=2))
        assert kth_plus_one_bid(ds, 2) == 2  # bids (0, 2, 2, 2) + aux


class TestWinnersAbove:
    def test_both_at_threshold(self, three_bidder_k2):
        zeros = zero_reserves(three_bidder_k2)
        assert winners_above(three_bidder_k2, 0, zeros, 5) == 2

    def test_above_all_payments(self, three_bidder_k2):
        zeros = zero_reserves(three_bidder_k2)
        assert winners_above(three_bidder_k2, 0, zeros, 6) == 0

    def test_reserve_payment_counts(self, two_bidder_k1):
        assert winners_above(two_bidder_k1, 0, (7, 0, 0, 0), 7) == 1

    def test_requires_positive_tau(self, two_bidder_k1):
        with pytest.raises(ValueError):
            winners_above(two_bidder_k1, 0, (0, 0, 0, 0), 0)

    def test_non_increasing_in_tau(self):
        for ds in desk_instances(10, seed=23):
            rng = np.random.Generator(np.random.Philox(5))
            grid = ReserveGrid.from_dataset(ds)
            res = tuple(int(rng.choice(grid.values)) for _ in range(ds.num_real_buyers))
            res += (0,) * (ds.num_items + 1)
            for a in range(ds.num_auctions):
                counts = [winners_above(ds, a, res, t) for t in range(1, 12)]
                assert all(x >= y for x, y in zip(counts, counts[1:]))


@st.composite
def instance_and_reserves(draw):
    nb = draw(st.integers(1, 4))
    na = draw(st.integers(1, 3))
    k = draw(st.integers(1, 2))
    cols = [
        (draw(st.integers(1, 3)),
         tuple(draw(st.integers(0, 9)) for _ in range(nb)))
        for _ in range(na)
    ]
    ds = make_dataset(k, cols)
    reserves = tuple(draw(st.integers(0, 11)) for _ in range(nb))
    reserves += (0,) * (k + 1)
    return ds, reserves


@settings(max_examples=80, deadline=None)
@given(instance_and_reserves())
def test_matches_naive_reimplementation(case):
    ds, reserves = case
    assert revenue(ds, reserves) == naive_revenue(ds, reserves)
    for a in range(ds.num_auctions):
        out = run_evcg(ds, a, reserves)
        winners, supporter, payments, rev = naive_outcome(
            ds.auctions[a].bids, reserves, ds.num_items
        )
        assert sorted(out.winners) == winners
        assert out.supporter == supporter
        assert out.payments == payments
        assert out.revenue == rev


def test_evaluator_built_once_per_dataset(monkeypatch):
    built = []
    init = auction._BatchEvaluator.__init__

    def counting_init(self, dataset):
        built.append(dataset)
        init(self, dataset)

    monkeypatch.setattr(auction._BatchEvaluator, "__init__", counting_init)
    ds = make_dataset(2, [(1, (10, 8, 5)), (3, (4, 9, 7))])
    assert revenue(ds, zero_reserves(ds)) == revenue(ds, zero_reserves(ds)) == 2 * 5 + 3 * 2 * 4
    assert len(built) == 1
    run_evcg(ds, 1, zero_reserves(ds))
    winners_above(ds, 0, zero_reserves(ds), 5)
    batch_evaluator(ds)
    encode_reserves(ds, ReserveGrid.from_dataset(ds), zero_reserves(ds))
    assert built == [ds]
    # an equal dataset is another object and builds its own
    revenue(make_dataset(2, [(1, (10, 8, 5)), (3, (4, 9, 7))]), zero_reserves(ds))
    assert len(built) == 2


@settings(max_examples=60, deadline=None)
@given(instance_and_reserves())
def test_batch_evaluator_matches_naive(case):
    ds, reserves = case
    ev = batch_evaluator(ds)
    mat = np.array([reserves, zero_reserves(ds)], dtype=np.int64)
    assert [int(v) for v in ev.revenues(mat)] == [
        naive_revenue(ds, reserves), naive_revenue(ds, zero_reserves(ds))]
    for a in range(ds.num_auctions):
        payments = naive_outcome(ds.auctions[a].bids, reserves, ds.num_items)[2]
        for tau in (1, 3, 7):
            assert int(ev.winners_above(a, mat, tau)[0]) == sum(
                p >= tau for p in payments.values())


@st.composite
def near_int64_bound(draw):
    """Datasets whose bound sum(weight * k * max bid) lies a few units from
    2^63 on either side, with reserves up to 2^64."""
    k = draw(st.integers(1, 2))
    na = draw(st.integers(1, 2))
    nb = draw(st.integers(1, 3))
    weight = draw(st.sampled_from((1, 3, 7)))
    top = 2**63 // (weight * k * na) + draw(st.integers(-2, 2))
    levels = (0, 1, top - 2, top - 1, top)
    cols = []
    for _ in range(na):
        bids = [draw(st.sampled_from(levels)) for _ in range(nb)]
        bids[draw(st.integers(0, nb - 1))] = top  # every auction reaches the bound
        cols.append((weight, tuple(bids)))
    ds = make_dataset(k, cols)
    reserves = tuple(draw(st.sampled_from(levels + (top + 1, 2**64))) for _ in range(nb))
    return ds, reserves + (0,) * (k + 1)


@settings(max_examples=80, deadline=None)
@given(near_int64_bound())
def test_exact_on_both_sides_of_int64(case):
    ds, reserves = case
    bound = sum(a.weight * ds.num_items * max(a.bids) for a in ds.auctions)
    ev = batch_evaluator(ds)
    top = max(max(a.bids) for a in ds.auctions)
    assert ev.dtype is (np.int64 if max(bound, top + 1) < 2**63 else object)
    exact = naive_revenue(ds, reserves)
    assert int(ev.revenues(ev.row(reserves))[0]) == revenue(ds, reserves) == exact
    for a in range(ds.num_auctions):
        winners, supporter, payments, rev = naive_outcome(
            ds.auctions[a].bids, reserves, ds.num_items)
        out = run_evcg(ds, a, reserves)
        assert (sorted(out.winners), out.supporter, out.payments, out.revenue) == (
            winners, supporter, payments, rev)
        assert int(ev.winners_above(a, ev.row(reserves), top)[0]) == winners_above(
            ds, a, reserves, top) == sum(p >= top for p in payments.values())


class TestBatchOverflow:
    def test_exact_past_int64(self, int64_overflow):
        best = (6 * 10**12, 5 * 10**12) + (0,) * 4
        zeros = zero_reserves(int64_overflow)
        ev = batch_evaluator(int64_overflow)
        assert ev.dtype is object  # int64 sums wrapped here to -7.4e18
        revs = ev.revenues(np.array([best, zeros], dtype=np.int64))
        assert [int(v) for v in revs] == [revenue(int64_overflow, best),
                                          revenue(int64_overflow, zeros)] == [
            naive_revenue(int64_overflow, best), naive_revenue(int64_overflow, zeros)]
        assert revs[0] == 11 * 10**18

    def test_guard_boundary(self):
        # weight * k * max bid = 2^63 - 1 = 7 * top: int64, exact at its limit
        top = (2**63 - 1) // 7
        ds = make_dataset(1, [(7, (top, top - 1))])
        rows = [zero_reserves(ds), (top, 0, 0, 0)]
        ev = batch_evaluator(ds)
        assert ev.dtype is np.int64
        assert [int(v) for v in ev.revenues(np.array(rows, dtype=np.int64))] == [
            naive_revenue(ds, r) for r in rows] == [7 * (top - 1), 2**63 - 1]
        # exactly 2^63: Python ints
        ds = make_dataset(1, [(2, (2**62, 1))])
        ev = batch_evaluator(ds)
        assert ev.dtype is object
        assert int(ev.revenues(np.array([(2**62, 0, 0, 0)]))[0]) == naive_revenue(
            ds, (2**62, 0, 0, 0)) == 2**63
        # a max bid of 2^63 - 1 leaves no int64 above it for a clipped reserve
        ds = make_dataset(1, [(1, (2**63 - 1, 5))])
        assert batch_evaluator(ds).dtype is object
        assert revenue(ds, (2**63, 0, 0, 0)) == naive_revenue(ds, (2**63, 0, 0, 0)) == 0

    def test_reserve_past_int64_on_small_dataset(self, two_bidder_k1):
        reserves = (2**70, 5, 0, 0)
        assert batch_evaluator(two_bidder_k1).dtype is np.int64
        assert revenue(two_bidder_k1, reserves) == naive_revenue(two_bidder_k1, reserves) == 5
        assert run_evcg(two_bidder_k1, 0, reserves).winners == (1,)


@settings(max_examples=50, deadline=None)
@given(instance_and_reserves(), st.integers(0, 3))
def test_overpriced_buyer_removal_is_neutral(case, victim):
    """Dropping a buyer whose reserve beats all their bids changes nothing."""
    ds, reserves = case
    nreal = ds.num_real_buyers
    victim %= nreal
    if nreal == 1:
        return
    raw_bids = [a.bids[:nreal] for a in ds.auctions]
    reserves = list(reserves)
    reserves[victim] = max(b[victim] for b in raw_bids) + 1  # never clears
    reserves = tuple(reserves)

    kept = [b for b in range(nreal) if b != victim]
    smaller = make_dataset(
        ds.num_items,
        [(a.weight, tuple(a.bids[b] for b in kept)) for a in ds.auctions],
    )
    # buyer names differ after removal; compare outcomes via bid/payment values
    small_res = tuple(reserves[b] for b in kept) + (0,) * (ds.num_items + 1)
    assert revenue(ds, reserves) == revenue(smaller, small_res)
    for a in range(ds.num_auctions):
        big = run_evcg(ds, a, reserves)
        small = run_evcg(smaller, a, small_res)
        assert big.revenue == small.revenue
        assert sorted(big.payments.values()) == sorted(small.payments.values())


class TestValidation:
    def test_negative_bid_rejected(self):
        with pytest.raises(ValueError):
            BidDataset(1, ("a",), (AuctionColumn(1, (-1,)),))

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            BidDataset(1, ("a",), (AuctionColumn(0, (1,)),))

    def test_wrong_bid_count_rejected(self):
        with pytest.raises(ValueError):
            BidDataset(1, ("a", "b"), (AuctionColumn(1, (1,)),))

    def test_grid_from_dataset(self, three_bidder_k2):
        grid = ReserveGrid.from_dataset(three_bidder_k2)
        assert grid.values == (0, 5, 8, 10)

    def test_grid_requires_zero(self):
        with pytest.raises(ValueError):
            ReserveGrid((1, 2))

    def test_grid_strictly_increasing(self):
        with pytest.raises(ValueError):
            ReserveGrid((0, 2, 2))
