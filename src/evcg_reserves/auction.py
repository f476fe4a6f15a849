"""Eager VCG auctions with personalized reserve prices.

All money values are integers at a fixed decimal scale declared by the
dataset, so auction execution, payments and revenues are exact.  Ties are
broken by buyer index everywhere (lower index wins), and the trailing
``num_items + 1`` auxiliary buyers of an augmented dataset bid zero, so they
lose every tie against real buyers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

AUX_PREFIX = "~aux"
# entries per slab: rows x auctions x buyers of the row kernel, and the
# reserve classes of one auction in brute force's bid-order recursion
CHUNK = 2**18


@dataclass(frozen=True)
class AuctionColumn:
    """One weighted auction: a multiplicity weight and one bid per buyer."""

    weight: int
    bids: tuple[int, ...]


@dataclass(frozen=True)
class BidDataset:
    """A weighted history of auctions over a fixed, ordered set of buyers.

    ``scale`` is the number of decimal digits carried by the integer money
    unit (bids of ``325`` at scale 2 mean 3.25).  Weights replicate identical
    auctions; revenue multiplies by the weight instead of materializing
    copies.
    """

    num_items: int
    buyers: tuple[str, ...]
    auctions: tuple[AuctionColumn, ...]
    includes_auxiliaries: bool = False
    scale: int = 0

    def __post_init__(self) -> None:
        if self.num_items < 1:
            raise ValueError("num_items must be a positive integer")
        if self.scale < 0:
            raise ValueError("scale must be non-negative")
        if len(set(self.buyers)) != len(self.buyers):
            raise ValueError("buyer ids must be unique")
        if not self.auctions:
            raise ValueError("dataset has no auctions")
        for i, auction in enumerate(self.auctions):
            if auction.weight < 1:
                raise ValueError(f"auction {i}: weight must be >= 1")
            if len(auction.bids) != len(self.buyers):
                raise ValueError(f"auction {i}: expected one bid per buyer")
            if any(b < 0 for b in auction.bids):
                raise ValueError(f"auction {i}: bids must be non-negative")
        if self.includes_auxiliaries:
            n_aux = self.num_items + 1
            if len(self.buyers) < n_aux:
                raise ValueError("augmented dataset is missing auxiliary buyers")
            for auction in self.auctions:
                if any(b != 0 for b in auction.bids[-n_aux:]):
                    raise ValueError("auxiliary buyers must bid 0 in every auction")

    @property
    def num_buyers(self) -> int:
        return len(self.buyers)

    @property
    def num_real_buyers(self) -> int:
        if self.includes_auxiliaries:
            return len(self.buyers) - (self.num_items + 1)
        return len(self.buyers)

    @property
    def num_auctions(self) -> int:
        return len(self.auctions)

    def max_bid(self, buyer: int) -> int:
        return max(a.bids[buyer] for a in self.auctions)

    @cached_property
    def _evaluator(self) -> _BatchEvaluator:
        # built once per dataset: every exact evaluation of it shares this one
        return _BatchEvaluator(self)


@dataclass(frozen=True)
class ReserveGrid:
    """The sorted, deduplicated set of admissible reserve prices.

    Equal to the set of all bids appearing in the dataset; always contains 0
    (the auxiliary buyers' reserve).
    """

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.values or self.values[0] != 0:
            raise ValueError("grid must contain 0 as its smallest value")
        if any(a >= b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("grid values must be strictly increasing")

    @classmethod
    def from_dataset(cls, dataset: BidDataset) -> "ReserveGrid":
        values = {0}
        for auction in dataset.auctions:
            values.update(auction.bids)
        return cls(tuple(sorted(values)))

    def __contains__(self, value: int) -> bool:
        return value in self.values

    def __len__(self) -> int:
        return len(self.values)

    def index(self, value: int) -> int:
        return self.values.index(value)


@dataclass(frozen=True)
class AuctionOutcome:
    """Result of one eager VCG auction (unweighted).

    A buyer clears when its bid is at least its reserve.  ``winners`` are the
    ``num_items`` highest cleared bids in tie-broken order, ``supporter`` the
    next cleared buyer, and each winner pays ``max(own reserve, supporter's
    bid)``.
    """

    winners: tuple[int, ...]
    supporter: int
    payments: dict[int, int]
    revenue: int


ReserveVector = tuple[int, ...]


def add_auxiliary_buyers(dataset: BidDataset) -> BidDataset:
    """Append num_items + 1 zero-bidding auxiliary buyers.

    Rejects an already-augmented dataset: doubling the auxiliaries would
    corrupt winner counts.
    """
    if dataset.includes_auxiliaries:
        raise ValueError("dataset already includes auxiliary buyers")
    n_aux = dataset.num_items + 1
    aux_names = tuple(f"{AUX_PREFIX}{i}" for i in range(n_aux))
    if set(aux_names) & set(dataset.buyers):
        raise ValueError("buyer ids collide with auxiliary naming")
    zeros = (0,) * n_aux
    return BidDataset(
        num_items=dataset.num_items,
        buyers=dataset.buyers + aux_names,
        auctions=tuple(
            AuctionColumn(a.weight, a.bids + zeros) for a in dataset.auctions
        ),
        includes_auxiliaries=True,
        scale=dataset.scale,
    )


def zero_reserves(dataset: BidDataset) -> ReserveVector:
    return (0,) * dataset.num_buyers


def validate_reserves(
    dataset: BidDataset,
    reserves: ReserveVector,
    grid: ReserveGrid | None = None,
) -> None:
    """Check a reserve vector against the dataset (and optionally the grid).

    Evaluation accepts arbitrary non-negative entries; pass ``grid`` to
    enforce grid membership for optimizer outputs.  Auxiliary entries must be
    exactly 0.
    """
    if len(reserves) != dataset.num_buyers:
        raise ValueError("reserve vector length does not match buyer count")
    if any(r < 0 for r in reserves):
        raise ValueError("reserves must be non-negative")
    if dataset.includes_auxiliaries:
        if any(r != 0 for r in reserves[dataset.num_real_buyers:]):
            raise ValueError("auxiliary buyers must have reserve 0")
    if grid is not None:
        for b, r in enumerate(reserves):
            if r not in grid:
                raise ValueError(f"reserve {r} of buyer {b} is not on the grid")


def candidate_mask(dataset: BidDataset, grid: ReserveGrid) -> np.ndarray:
    """Each buyer's candidate reserves, as a (buyers x grid) boolean mask.

    Buyer b's candidates are 0 and, for each of b's bids, the largest grid
    value at or below it; on a grid built by :meth:`ReserveGrid.from_dataset`
    that is 0 and b's own bids.  Raising b's reserve from r to the candidate
    below b's next bid at or above r keeps every auction b clears and never
    lowers a payment, and a reserve above all of b's bids does no better than
    b's top candidate, since a buyer who clears never lowers an auction's
    revenue.  So the best reserve vector, and the LP optimum, lie on
    candidates.
    """
    bids = np.array([a.bids for a in dataset.auctions]).reshape(dataset.num_auctions, -1)
    below = np.searchsorted(np.array(grid.values), bids, side="right") - 1
    mask = np.zeros((dataset.num_buyers, len(grid)), dtype=bool)
    mask[:, 0] = True
    mask[np.arange(dataset.num_buyers), below] = True
    return mask


def run_evcg(dataset: BidDataset, auction_index: int, reserves: ReserveVector) -> AuctionOutcome:
    """Execute one eager VCG auction; pure and deterministic.

    Requires an augmented dataset so that the supporter slot always exists.
    The returned revenue is unweighted; :func:`revenue` applies weights.
    """
    if not dataset.includes_auxiliaries:
        raise ValueError("run_evcg requires an augmented dataset")
    if not 0 <= auction_index < dataset.num_auctions:
        raise IndexError("auction index out of range")
    validate_reserves(dataset, reserves)
    return dataset._evaluator.outcome(auction_index, reserves)


def revenue(dataset: BidDataset, reserves: ReserveVector) -> int:
    """Total weighted revenue of the dataset under one reserve vector."""
    if not dataset.includes_auxiliaries:
        raise ValueError("revenue requires an augmented dataset")
    validate_reserves(dataset, reserves)
    evaluator = dataset._evaluator
    return int(evaluator.revenues(evaluator.row(reserves))[0])


def kth_plus_one_bid(dataset: BidDataset, auction_index: int) -> int:
    """The (num_items + 1)-th highest raw bid of an auction, reserves ignored."""
    if not dataset.includes_auxiliaries:
        raise ValueError("kth_plus_one_bid requires an augmented dataset")
    bids = sorted(dataset.auctions[auction_index].bids, reverse=True)
    return bids[dataset.num_items]


class _BatchEvaluator:
    """Vectorized exact revenue evaluation for batches of reserve vectors.

    Precomputes once, per auction, the buyers in tie-broken bid order
    (``order``) and their bids (``bids``), two (auctions x buyers) arrays
    that brute force's own recursion (:func:`baselines._bid_order_revenues`)
    reads too.  A reserve matrix, one row per vector, goes through the row
    kernel :meth:`_row_slabs`: it gathers every auction's reserves in bid
    order and reads winners, supporter and payments off one cumulative count
    of cleared buyers.

    A winner pays at most the auction's highest bid, so no sum can exceed
    sum(weight * k * max bid): below 2^63 the arithmetic is int64, from 2^63
    up it runs on numpy ``object`` arrays of Python ints, so every result is
    exact.
    """

    def __init__(self, dataset: BidDataset):
        if not dataset.includes_auxiliaries:
            raise ValueError("batch evaluation requires an augmented dataset")
        self.top = max(max(a.bids) for a in dataset.auctions)
        self.bound = sum(a.weight * dataset.num_items * max(a.bids) for a in dataset.auctions)
        # :meth:`row` clips reserves to top + 1, and ``weights`` holds an
        # all-zero auction's weight, which adds nothing to the bound: both must fit
        self.dtype = np.int64 if max(self.bound, self.top + 1,
                                     *(a.weight for a in dataset.auctions)) < 2**63 else object
        self.dataset = dataset
        self.k = dataset.num_items
        self.weights = np.array([a.weight for a in dataset.auctions], dtype=self.dtype)
        # a count of cleared buyers is at most the buyer count: the narrowest
        # type holding that keeps the count arrays small
        self.count_dtype = np.min_scalar_type(len(dataset.buyers))
        self.order = np.array([sorted(range(len(a.bids)), key=lambda b: (-a.bids[b], b))
                               for a in dataset.auctions])
        self.bids = np.take_along_axis(
            np.array([a.bids for a in dataset.auctions], dtype=self.dtype), self.order, axis=1)

    def row(self, reserves: ReserveVector) -> np.ndarray:
        """One reserve vector as a one-row matrix; a reserve above every bid,
        which never clears, becomes top + 1."""
        return np.array([[min(r, self.top + 1) for r in reserves]], dtype=self.dtype)

    def _row_slabs(self, reserve_matrix: np.ndarray, auctions: slice):
        """The row kernel: the ``auctions`` of every row of ``reserve_matrix``.

        Yields, per slab of rows, ``(rows, wins, supports, paid)``: the
        slab's row slice, and per row, auction and buyer in bid order
        (``order``) whether the buyer wins, whether it supports, and what it
        pays (0 unless it wins).  A slab gathers its rows' reserves into one
        (rows x auctions x buyers) array of at most :data:`CHUNK` entries (at
        least one row); one cumulative count of cleared buyers along the
        buyer axis then marks the winners (count <= k) and the supporter
        (count = k + 1), and each winner pays max(own reserve, supporter's
        bid).
        """
        matrix = np.asarray(reserve_matrix, dtype=self.dtype)
        order, bids = self.order[auctions], self.bids[auctions]
        step = max(1, CHUNK // order.size)
        for lo in range(0, len(matrix), step):
            reserves = matrix[lo : lo + step, order]
            cleared = bids >= reserves
            count = np.cumsum(cleared, axis=-1, dtype=self.count_dtype)
            wins = cleared & (count <= self.k)
            supports = cleared & (count == self.k + 1)
            support_bid = np.where(supports, bids, 0).sum(axis=-1, keepdims=True)
            paid = np.where(wins, np.maximum(reserves, support_bid), 0)
            yield slice(lo, lo + step), wins, supports, paid

    def revenues(self, reserve_matrix: np.ndarray) -> np.ndarray:
        """Weighted total revenue of each row of ``reserve_matrix``."""
        total = np.zeros(len(reserve_matrix), dtype=self.dtype)
        for rows, _, _, paid in self._row_slabs(reserve_matrix, slice(None)):
            total[rows] = paid.sum(axis=-1) @ self.weights
        return total

    def winners_above(self, auction_index: int, reserve_matrix: np.ndarray, tau: int) -> np.ndarray:
        """Per-row count of winners paying >= tau in one auction (unweighted)."""
        if tau <= 0:
            raise ValueError("tau must be positive")
        counts = np.zeros(len(reserve_matrix), dtype=np.int64)
        auction = slice(auction_index, auction_index + 1)
        for rows, _, _, paid in self._row_slabs(reserve_matrix, auction):
            counts[rows] = (paid[:, 0] >= tau).sum(axis=-1)  # a loser pays 0 < tau
        return counts

    def outcome(self, auction_index: int, reserves: ReserveVector) -> AuctionOutcome:
        """Winners, supporter and payments of one auction under one reserve vector."""
        row = self.row(reserves)
        auction = slice(auction_index, auction_index + 1)
        _, wins, supports, paid = next(self._row_slabs(row, auction))
        order = self.order[auction_index]
        wins = wins[0, 0]
        paid = dict(zip(order[wins].tolist(), (int(p) for p in paid[0, 0][wins])))
        return AuctionOutcome(
            winners=tuple(paid), supporter=int(order[supports[0, 0]][0]),
            payments=paid, revenue=sum(paid.values()))


def batch_evaluator(dataset: BidDataset) -> _BatchEvaluator:
    """The dataset's evaluator, built on first use and shared afterwards."""
    return dataset._evaluator
