"""Exact and heuristic baselines, plus the integrality-gap instance.

``brute_force_opt`` searches the product of per-buyer candidate reserves
exactly, evaluating each auction only on its distinct outcomes;
``greedy_reserves`` is a reconstructed one-pass coordinate ascent
(a baseline, not a primary artifact).  ``bad_example`` builds the weighted
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


def _reserve_classes(cands: list[list[int]], bids: tuple[int, ...]) -> list[np.ndarray]:
    """Per real buyer, the outcome class of each candidate in one auction.

    Candidates at or below the buyer's bid each form their own class; every
    candidate above it leaves the buyer uncleared, so they share one class,
    the last.  A class is represented by its first candidate.
    """
    return [np.minimum(np.arange(len(c)), bisect.bisect_right(c, bid))
            for c, bid in zip(cands, bids)]


def _class_revenues(evaluator, auction_index: int, reps: list[np.ndarray], dtype) -> np.ndarray:
    """Weighted revenue of one auction over the product of its class
    representatives, as a tensor of ``dtype``.

    Each real buyer's representatives lie along the buyer's own axis and
    auxiliary reserves are 0, so the evaluator's arrays span only the axes of
    the buyers it has visited.  The product is evaluated in slabs of at most
    :data:`auction.CHUNK` entries: the leading axes before ``split`` are fixed
    to one class each, axis ``split`` is cut into ranges, the axes after it
    are whole.
    """
    shape = tuple(len(r) for r in reps)
    split = 0
    while math.prod(shape[split + 1:]) > auction.CHUNK:
        split += 1
    step = auction.CHUNK // math.prod(shape[split + 1:])
    # buyer b's representatives along axis b - split of a slab
    axes = [r.reshape((-1,) + (1,) * (len(shape) - 1 - b)) for b, r in enumerate(reps)]
    aux = [0] * (evaluator.k + 1)
    weight = evaluator.weights[auction_index]
    out = np.empty(shape, dtype=dtype)
    for fixed in itertools.product(*map(range, shape[:split])):
        lead = [r[i] for r, i in zip(reps, fixed)]
        for lo in range(0, shape[split], step):
            reserves = lead + [axes[split][lo : lo + step]] + axes[split + 1:] + aux
            out[fixed + (slice(lo, lo + step),)] = (
                weight * evaluator.auction_revenues(auction_index, reserves))
    return out


def brute_force_opt(
    dataset: BidDataset,
    grid: ReserveGrid,
    *,
    max_evals: int = DEFAULT_BRUTE_CAP,
) -> tuple[tuple[int, ...], int]:
    """Exact maximizer over the candidate product; ties break lexicographically.

    Each auction is evaluated only on the product of its reserve classes
    (see :func:`_reserve_classes`), and its weighted revenues are gathered
    into one tensor over the whole candidate product, whose first maximum in
    C order is the first in lexicographic order.  Auxiliary reserves stay 0.
    Refuses with :class:`SizeGuardError` when the candidate product exceeds
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
    values = [np.array(c, dtype=evaluator.dtype) for c in cands]
    # no entry exceeds the evaluator's bound: the narrowest type holding it is exact
    dtype = object if evaluator.dtype is object else np.min_scalar_type(evaluator.bound)
    tensor = np.zeros(tuple(len(c) for c in cands), dtype=dtype)
    for a, column in enumerate(dataset.auctions):
        classes = _reserve_classes(cands, column.bids)
        reps = [v[: cls[-1] + 1] for v, cls in zip(values, classes)]
        revs = _class_revenues(evaluator, a, reps, dtype)
        last = len(reps[0]) - 1
        for c0 in range(last + 1):
            slab = revs[c0]
            for axis, cls in enumerate(classes[1:]):
                slab = np.take(slab, cls, axis=axis)
            # class c0 of buyer 0 is candidate c0, or the last one and all above it
            tensor[c0 : None if c0 == last else c0 + 1] += slab
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
