"""Exact and heuristic baselines, plus the integrality-gap instance.

``brute_force_opt`` searches the product of per-buyer candidate reserves
exactly, evaluating each auction only on its distinct outcomes, by its own
recursion over the auction's bid order; ``greedy_reserves`` is a
reconstructed one-pass coordinate ascent (a baseline, not a primary
artifact), on the evaluator's row kernel.  ``bad_example`` builds the weighted
four-column dataset on which naive one-shot rounding of the fractional
optimum loses to the best reserve vector for large item counts, and
``bad_example_fractional`` the fractional LP point mixing its two benchmark
vectors.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import auction
from .auction import (
    AuctionColumn,
    BidDataset,
    ReserveGrid,
    add_auxiliary_buyers,
    batch_evaluator,
    candidate_mask,
    zero_reserves,
)
from .errors import SizeGuardError
from .lp_model import LpPoint, encode_reserves

DEFAULT_BRUTE_CAP = 10_000_000


@dataclass(frozen=True)
class BadExampleSpec:
    """Item count and the mixing probability of the fractional point."""

    k: int
    delta: float = 0.025

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie strictly between 0 and 1")


def bad_example(spec: BadExampleSpec, *, augmented: bool = True) -> BidDataset:
    """The k+2-buyer, four-column weighted instance.

    Columns carry weights (1, 1, k, k); buyer rows are
    b1 = (k^3, 0, 0, 0), b2 = (0, 0, k, 1) and b3..b_{k+2} = (0, k^2, k, 1).
    """
    k = spec.k
    tail = spec.k  # buyers b3..b_{k+2}
    columns = [
        AuctionColumn(1, (k**3,) + (0,) * (tail + 1)),
        AuctionColumn(1, (0, 0) + (k**2,) * tail),
        AuctionColumn(k, (0,) + (k,) * (tail + 1)),
        AuctionColumn(k, (0,) + (1,) * (tail + 1)),
    ]
    dataset = BidDataset(
        num_items=k,
        buyers=tuple(f"b{i + 1}" for i in range(k + 2)),
        auctions=tuple(columns),
    )
    return add_auxiliary_buyers(dataset) if augmented else dataset


def bad_example_optimal_vectors(spec: BadExampleSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two benchmark reserve vectors (real buyers then auxiliary zeros)."""
    k = spec.k
    aux = (0,) * (k + 1)
    first = (k**3, k) + (k**2,) * k + aux
    second = (k**3,) + (1,) * (k + 1) + aux
    return first, second


def bad_example_fractional(spec: BadExampleSpec) -> LpPoint:
    """The fractional point mixing the two benchmark vectors.

    Both vectors are encoded with :func:`encode_reserves`.  A sub-profile or
    reserve realised by both carries mass 1, one realised only by the first
    ``delta``, and one realised only by the second ``1 - delta``.  Each
    encoding is a feasible LP point and the rows are linear, so the mix is
    feasible for every k and delta.
    """
    d = spec.delta
    dataset = bad_example(spec)
    grid = ReserveGrid.from_dataset(dataset)
    first, second = (encode_reserves(dataset, grid, v) for v in bad_example_optimal_vectors(spec))

    def mix(p: dict, q: dict) -> dict:
        return {**dict.fromkeys(p, d), **dict.fromkeys(q, 1.0 - d),
                **dict.fromkeys(p.keys() & q.keys(), 1.0)}

    return LpPoint(
        s={a: mix(first.s[a], second.s[a]) for a in first.s},
        x={b: mix(first.x[b], second.x[b]) for b in first.x},
        objective=d * first.objective + (1.0 - d) * second.objective,
    )


def _candidate_reserves(dataset: BidDataset, grid: ReserveGrid) -> list[list[int]]:
    """Per real buyer, its candidate reserves (:func:`candidate_mask`) in increasing order."""
    mask = candidate_mask(dataset, grid)[: dataset.num_real_buyers]
    return [[v for v, keep in zip(grid.values, row) if keep] for row in mask.tolist()]


def _bid_order_revenues(evaluator, auction_index: int, classes, dtype) -> np.ndarray:
    """Revenue of one auction (unweighted) over a product of reserve classes.

    ``classes[b] = (reserves, uncleared)`` lays real buyer b's classes along
    axis b: one per reserve at or below its bid, then the uncleared one if
    set.  The buyers are visited from the last in bid order to the first,
    keeping per count c of buyers cleared before the current one the
    supporter's bid F(c) and, for c < k, the winners' payments G(c) from the
    current buyer on; past the last real buyer both are 0 (the auxiliaries
    clear at bid 0).  A cleared class with reserve r gives F(c) = F'(c + 1),
    or the own bid when c = k, and G(c) = max(r, F'(c + 1)) + G'(c + 1) with
    G'(k) = 0; the uncleared class keeps F'(c) and G'(c).  Only reachable
    counts are kept and F(0) is never read, so every array spans only the
    buyers visited.  Returns G(0), which broadcasts to the class product.
    """
    n, k = len(classes), evaluator.k
    zero = np.zeros((1,) * n, dtype=dtype)
    support, paid = [zero] * (k + 1), [zero] * k
    # in bid order, where every real buyer precedes every auxiliary one
    bids = evaluator.bids[auction_index, :n].astype(dtype)
    for pos in range(n - 1, -1, -1):
        buyer = int(evaluator.order[auction_index, pos])
        reserves, uncleared = classes[buyer]
        if not len(reserves):  # never clears: every count passes on unchanged
            continue
        r = reserves.reshape((1,) * buyer + (-1,) + (1,) * (n - 1 - buyer))
        cleared = (slice(None),) * buyer + (slice(0, len(reserves)),)
        rest = (slice(None),) * buyer + (slice(len(reserves), None),)

        def by_class(*parts):  # every axis has length 1 or the buyer's class count
            shape = list(map(max, *(x.shape for x in parts)))
            shape[buyer] = len(reserves) + uncleared
            return np.empty(shape, dtype=dtype)

        next_paid, next_support = [], [None]
        for c in range(min(pos, k - 1) + 1):
            after = paid[c + 1 : c + 2]  # empty when c + 1 = k
            out = by_class(r, support[c + 1], *after, *([paid[c]] if uncleared else []))
            np.maximum(r, support[c + 1], out=out[cleared])
            for g in after:
                np.add(out[cleared], g, out=out[cleared])
            if uncleared:
                out[rest] = paid[c]
            next_paid.append(out)
        for c in range(1, min(pos, k) + 1):
            hit = support[c + 1] if c < k else bids[pos : pos + 1].reshape((1,) * n)
            if uncleared:
                out = by_class(hit, support[c])
                out[cleared], out[rest] = hit, support[c]
                hit = out
            next_support.append(hit)
        support, paid = next_support, next_paid
    return paid[0]


def _slabs(classes: list[int], sizes: tuple[int, ...], itemsize: int):
    """``(split, slabs)``: one auction's class product cut into slabs.

    A slab is a class range per axis: one class before ``split``, a range on
    ``split``, all classes after it.  It has at most :data:`auction.CHUNK`
    classes, as the recursion holds up to 4k + 1 arrays of its size, and
    expanded to candidates after ``split`` at most 8 * :data:`auction.CHUNK`
    bytes, a row-kernel slab of int64.
    """
    limits = auction.CHUNK, 8 * auction.CHUNK // itemsize
    split = 0
    while (math.prod(classes[split + 1:]) > limits[0]
           or math.prod(sizes[split + 1:]) > limits[1]):
        split += 1
    step = min(limits[0] // math.prod(classes[split + 1:]),
               limits[1] // math.prod(sizes[split + 1:]))
    return split, ([(i, i + 1) for i in fixed] + [(lo, min(lo + step, classes[split]))]
                   + [(0, c) for c in classes[split + 1:]]
                   for fixed in itertools.product(*map(range, classes[:split]))
                   for lo in range(0, classes[split], step))


def _gather(revs: np.ndarray, cleared: list[int], sizes: tuple[int, ...], lead: int) -> np.ndarray:
    """Class revenues expanded to candidates on the axes after ``lead``, from
    the last (where the array is smallest): on axis b, candidates from
    ``cleared[b]`` on share the uncleared class."""
    for b in range(revs.ndim - 1, lead, -1):
        if revs.shape[b] < sizes[b]:
            revs = np.take(revs, np.minimum(np.arange(sizes[b]), cleared[b]), axis=b)
    return revs


def brute_force_opt(
    dataset: BidDataset,
    grid: ReserveGrid,
    *,
    max_evals: int = DEFAULT_BRUTE_CAP,
) -> tuple[tuple[int, ...], int]:
    """Exact maximizer over the candidate product; ties break lexicographically.

    In one auction a buyer's candidates above its bid all leave it
    uncleared, so they form one class and each other candidate its own.
    Each auction is evaluated on its class product, slab by slab
    (:func:`_slabs`, :func:`_bid_order_revenues`), and added into one tensor
    over the candidate product: by :func:`_gather` on the later axes, by
    slices (the uncleared class broadcast) on the axes up to two past the
    split.  The tensor's first maximum in C order is the first in
    lexicographic order.  Auxiliary reserves stay 0.  Refuses with
    :class:`SizeGuardError` when the candidate product exceeds
    ``max_evals``, before anything is allocated, so the tensor has at most
    ``max_evals`` entries of at most 8 bytes (Python ints past 2^63).
    """
    if not dataset.includes_auxiliaries:
        raise ValueError("brute_force_opt requires an augmented dataset")
    cands = _candidate_reserves(dataset, grid)
    total = 1
    for c in cands:
        total *= len(c)
        if total > max_evals:
            raise SizeGuardError(
                f"brute force would need {total}+ evaluations (cap {max_evals})"
            )
    evaluator = batch_evaluator(dataset)
    if not cands:  # no real buyer: the zero vector is the only candidate
        vec = zero_reserves(dataset)
        return vec, int(evaluator.revenues(evaluator.row(vec))[0])
    # no entry exceeds the evaluator's bound: the narrowest type holding it is exact
    dtype = np.dtype(object if evaluator.dtype is object else np.min_scalar_type(evaluator.bound))
    values = [np.array(c, dtype=dtype) for c in cands]
    sizes = tuple(len(c) for c in cands)
    tensor = np.zeros(sizes, dtype=dtype)
    for a, column in enumerate(dataset.auctions):
        if not any(column.bids):  # pays nothing; its weight may even exceed the bound
            continue
        cleared = [bisect.bisect_right(c, bid) for c, bid in zip(cands, column.bids)]
        classes = [m + (m < size) for m, size in zip(cleared, sizes)]
        split, slabs = _slabs(classes, sizes, dtype.itemsize)
        lead = min(split + 2, len(sizes) - 1)
        for ranges in slabs:
            part = [(v[lo : min(hi, m)], hi > m) for v, m, (lo, hi) in zip(values, cleared, ranges)]
            revs = _bid_order_revenues(evaluator, a, part, dtype)
            np.multiply(revs, column.weight, out=revs)
            revs = np.broadcast_to(revs, tuple(hi - lo for lo, hi in ranges))
            revs = _gather(revs, cleared, sizes, lead)
            # per axis up to lead: cleared classes onto their candidates, the
            # uncleared one onto every candidate above the bid
            pieces = [[(slice(lo, min(hi, m)), slice(0, min(hi, m) - lo))] * (lo < m)
                      + [(slice(m, None), slice(max(m - lo, 0), None))] * (hi > m)
                      for m, (lo, hi) in zip(cleared, ranges[: lead + 1])]
            for piece in itertools.product(*pieces):
                to, of = zip(*piece)
                tensor[to] += revs[of]
    best = int(np.argmax(tensor))
    index = np.unravel_index(best, tensor.shape)
    vec = tuple(c[i] for c, i in zip(cands, index)) + (0,) * (dataset.num_items + 1)
    return vec, int(tensor.reshape(-1)[best])


def greedy_reserves(
    dataset: BidDataset, grid: ReserveGrid
) -> tuple[tuple[int, ...], int]:
    """One-pass coordinate ascent baseline.

    Buyers are visited in decreasing order of their maximum bid (ties by
    index); each buyer's reserve is set to the grid value maximizing total
    revenue with all other coordinates fixed, everyone starting at 0.
    """
    if not dataset.includes_auxiliaries:
        raise ValueError("greedy_reserves requires an augmented dataset")
    evaluator = batch_evaluator(dataset)
    current = list(zero_reserves(dataset))
    order = sorted(
        range(dataset.num_real_buyers), key=lambda b: (-dataset.max_bid(b), b)
    )
    for b in order:
        trials = np.tile(np.array(current, dtype=evaluator.dtype), (len(grid), 1))
        trials[:, b] = grid.values
        revs = evaluator.revenues(trials)
        current[b] = int(grid.values[int(np.argmax(revs))])  # smallest maximizer
    vec = tuple(current)
    return vec, int(evaluator.revenues(evaluator.row(vec))[0])
