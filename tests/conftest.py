"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from evcg_reserves.auction import (
    AuctionColumn,
    BidDataset,
    ReserveGrid,
    add_auxiliary_buyers,
)
from evcg_reserves.datasets import random_dataset

# reproducible builds: property tests replay the same cases every run
settings.register_profile("repro", derandomize=True)
settings.load_profile("repro")


def make_dataset(num_items: int, columns: list[tuple[int, tuple[int, ...]]],
                 *, augmented: bool = True, scale: int = 0) -> BidDataset:
    n = len(columns[0][1])
    ds = BidDataset(
        num_items=num_items,
        buyers=tuple(f"b{i + 1}" for i in range(n)),
        auctions=tuple(AuctionColumn(w, bids) for w, bids in columns),
        scale=scale,
    )
    return add_auxiliary_buyers(ds) if augmented else ds


def naive_outcome(bids: tuple[int, ...], reserves: tuple[int, ...], k: int):
    """Independent re-implementation: winner/supporter via pairwise beat counts.

    ``a`` beats ``b`` iff a's bid is higher, or equal with a lower index.
    A cleared buyer wins iff fewer than k cleared buyers beat them; the
    supporter is the cleared buyer beaten by exactly k cleared buyers.
    """
    cleared = [b for b in range(len(bids)) if bids[b] >= reserves[b]]

    def beats(a: int, b: int) -> bool:
        return bids[a] > bids[b] or (bids[a] == bids[b] and a < b)

    winners = []
    supporter = None
    for b in cleared:
        above = sum(1 for other in cleared if other != b and beats(other, b))
        if above < k:
            winners.append(b)
        elif above == k:
            supporter = b
    assert supporter is not None
    payments = {w: max(reserves[w], bids[supporter]) for w in winners}
    return sorted(winners), supporter, payments, sum(payments.values())


def naive_revenue(dataset: BidDataset, reserves: tuple[int, ...]) -> int:
    total = 0
    for a in dataset.auctions:
        total += a.weight * naive_outcome(a.bids, reserves, dataset.num_items)[3]
    return total


def desk_instances(count: int, seed: int) -> list[BidDataset]:
    """Random augmented instances: <= 4 real buyers, <= 3 auctions, k <= 2, bids 0..9."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    out = []
    for i in range(count):
        nb = int(rng.integers(1, 5))
        na = int(rng.integers(1, 4))
        k = int(rng.integers(1, 3))
        ds = random_dataset(nb, na, k, seed=seed * 1000 + i, max_bid=9, max_weight=3)
        out.append(add_auxiliary_buyers(ds))
    return out


@pytest.fixture(scope="session")
def int64_overflow() -> BidDataset:
    """k=2, one auction of weight 10^6 with bids 6e12 / 5e12 / 3e12, augmented.

    Its revenues reach 1.1e19, past int64: summed in int64 they wrap to
    negative numbers.
    """
    return make_dataset(2, [(10**6, (6 * 10**12, 5 * 10**12, 3 * 10**12))])


@pytest.fixture(scope="session")
def two_bidder_k1() -> BidDataset:
    """k=1, bids (10, 5), one auction, augmented."""
    return make_dataset(1, [(1, (10, 5))])


@pytest.fixture(scope="session")
def three_bidder_k2() -> BidDataset:
    """k=2, bids (10, 8, 5), one auction, augmented."""
    return make_dataset(2, [(1, (10, 8, 5))])


def grid_of(dataset: BidDataset) -> ReserveGrid:
    return ReserveGrid.from_dataset(dataset)
