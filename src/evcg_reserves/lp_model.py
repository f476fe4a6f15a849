"""Sub-profile LP: enumeration, constraint assembly, solving, and encoding.

The revenue of an auction is determined by each winner's reserve and the
supporting buyer's bid, so an auction outcome decomposes into per-winner
sub-profiles (winner, supporter, winner reserve, supporter reserve).  The LP
relaxes the integral assignment of sub-profiles subject to consistency
constraints; any integral reserve vector embeds as a feasible point whose
objective equals its exact revenue, which makes the LP optimum an upper
bound for the best reserve vector.

No row of that LP reads a sub-profile's supporter reserve except the
supporter's reserve mass, so :func:`build_lp` assembles its exact
projection: one column per winner-side sub-profile (winner, supporter,
winner reserve), carrying the sum of the full sub-profile masses over the
supporter reserve.  :class:`LpInstance` states the rows and why the optimum
does not change.

Buyers with the same bid in every auction and the same free/fixed status are
interchangeable: permuting them maps the LP onto itself.  Averaging any
optimum over that group gives an optimum in the group's fixed subspace, where
the columns of one orbit are equal and the rows of one orbit coincide, so
:func:`solve_lp` solves :func:`symmetry_quotient`, one variable per column
orbit and one row per row orbit, and expands its optimum back.  The quotient
keeps only the columns at each buyer's candidate reserves, where an optimum
always lies.  The worst-case family ``bad_example(k)`` has four buyer orbits
whatever k, so its quotient has 113 columns where the assembled LP has 11,541
at k = 20.

Every row reads a winner's (supporter x reserve) block of w columns through
one of its two marginals, so HiGHS solves the quotient's
:func:`marginal_form`, by dual simplex: the marginals and a balance row per
block and regime, 13,977 columns where the quotient of the 15 x 30 benchmark
instance has 28,392.  :class:`Coupling` turns its optimum back into w.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import lp_solver
from .auction import BidDataset, ReserveGrid, batch_evaluator, candidate_mask, validate_reserves
from .errors import SizeGuardError

DEFAULT_MAX_SUBPROFILES = 500_000


class SubProfile(NamedTuple):
    """One winner's slice of an auction outcome.

    Valid iff the winner's bid is at least the supporter's, both clear their
    reserves, and winner != supporter.  Revenue is
    ``max(supporter bid, winner reserve)``.
    """

    winner: int
    supporter: int
    winner_reserve: int
    supporter_reserve: int
    revenue: int


def make_subprofile(
    dataset: BidDataset, auction_index: int, winner: int, supporter: int,
    winner_reserve: int, supporter_reserve: int,
) -> SubProfile:
    bids = dataset.auctions[auction_index].bids
    if winner == supporter:
        raise ValueError("winner and supporter must differ")
    if bids[winner] < bids[supporter]:
        raise ValueError("winner must bid at least the supporter's bid")
    if winner_reserve > bids[winner] or supporter_reserve > bids[supporter]:
        raise ValueError("reserves must clear the respective bids")
    return SubProfile(
        winner, supporter, winner_reserve, supporter_reserve,
        max(bids[supporter], winner_reserve),
    )


def enumerate_subprofiles(
    dataset: BidDataset,
    auction_index: int,
    grid: ReserveGrid,
    *,
    max_subprofiles: int = DEFAULT_MAX_SUBPROFILES,
) -> list[SubProfile]:
    """All valid sub-profiles of one auction, ordered by (winner, supporter, r1, r2).

    Pairs violating the bid ordering and reserves above the respective bid
    are skipped up front; those tuples are invalid, so nothing is lost.
    Raises :class:`SizeGuardError` beyond ``max_subprofiles``.
    """
    if not dataset.includes_auxiliaries:
        raise ValueError("enumeration requires an augmented dataset")
    bids = dataset.auctions[auction_index].bids
    n = dataset.num_buyers
    values = grid.values
    # number of grid values clearing each bid (grid is sorted)
    n_le = [bisect.bisect_right(values, bid) for bid in bids]
    out: list[SubProfile] = []
    for b1 in range(n):
        for b2 in range(n):
            if b1 == b2 or bids[b1] < bids[b2]:
                continue
            pair_count = n_le[b1] * n_le[b2]
            if len(out) + pair_count > max_subprofiles:
                raise SizeGuardError(
                    f"auction {auction_index}: sub-profile count exceeds "
                    f"{max_subprofiles}; raise the budget to proceed"
                )
            sup_bid = bids[b2]
            for r1 in values[: n_le[b1]]:
                rev = max(sup_bid, r1)
                for r2 in values[: n_le[b2]]:
                    out.append(SubProfile(b1, b2, r1, r2, rev))
    return out


@dataclass
class LpPoint:
    """A structured LP point: sub-profile masses and per-buyer reserve masses.

    :meth:`LpInstance.embed` projects the sub-profile masses onto an
    instance's w and y' columns.
    """

    s: dict[int, dict[SubProfile, float]]
    x: dict[int, dict[int, float]]
    objective: float | int | None = None


@dataclass
class LpInstance:
    """Assembled constraint system over variables w, x, y' (columns in that order).

    Per auction a, ``w[a,b1,b2,r1]`` is the mass of winner-side sub-profile
    (b1 wins, b2 supports, b1's reserve is r1), one column whenever
    b1 != b2, bid[b1] >= bid[b2] and r1 <= bid[b1], with objective
    coefficient weight * max(bid[b2], r1).  ``y'[a,b,r]`` is b's reserve
    mass as supporter, one column for every r <= bid[b].  ``x[b,r]`` is one
    column per free buyer and allowed reserve.

    Row layout (equalities then inequalities):
      (2') k * sum_r y'[a,b,r] = sum_{b1,r1} w[a,b1,b,r1]   per (a, b)
      (6)  sum_r x[b,r] = 1                                  per free buyer
      (3)  sum_{b2} w[a,b,b2,r] + y'[a,b,r] <= x[b,r]        per y' column
      (4)  sum_{r1} w[a,b1,b2,r1] <= sum_r y'[a,b2,r]        per (a, b1, b2) with w columns
      (5)  sum of all w[a,...] <= k                          per auction
    Auxiliary and zero-everywhere buyers are fixed at reserve 0 (their x is a
    constant, so (3) has right-hand side 1 for them).  Rows that would be
    vacuous are not built: (3) above a buyer's bid, and (4) for b1 = b2 or
    for a pair without columns.

    This is the exact projection of the LP over full sub-profiles
    ``s[a,b1,b2,r1,r2]``, whose rows read the supporter reserve r2 only
    through y'[a,b2,r2] = sum s / k, and whose winner mass
    y[a,b,r] = sum_{b2} w[a,b,b2,r] only restates w.  Summing s over r2
    maps every point of that LP to a point here with the same objective;
    conversely ``s = w[a,b1,b2,r1] * y'[a,b2,r2] / sum_r y'[a,b2,r]`` is a
    point of that LP with the same objective.  The optima are equal, so
    the optimum still upper-bounds every reserve vector's revenue.

    Columns are addressed through the index arrays alone.  The w columns
    are sorted by (auction, winner, supporter, r1), so each auction's and
    each pair's columns are contiguous; r indices are grid indices.
    """

    dataset: BidDataset
    grid: ReserveGrid
    c: np.ndarray
    A_eq: sp.csr_matrix
    b_eq: np.ndarray
    A_le: sp.csr_matrix
    b_le: np.ndarray
    constraint_counts: dict[str, int]
    # per w column: auction, winner, supporter, r1 index, exact (int64) revenue
    w_auction: np.ndarray = field(repr=False)
    w_winner: np.ndarray = field(repr=False)
    w_supporter: np.ndarray = field(repr=False)
    w_r1: np.ndarray = field(repr=False)
    w_revenue: np.ndarray = field(repr=False)
    w_first: np.ndarray = field(repr=False)   # (a, b1, b2) -> first w column, -1 if none
    x_cols: np.ndarray = field(repr=False)    # (b, r) -> x column, -1 if none
    yp_first: np.ndarray = field(repr=False)  # (a, b) -> first y' column
    n_le: np.ndarray = field(repr=False)      # (a, b) -> grid values <= bid: y' columns of (a, b)

    @property
    def num_vars(self) -> int:
        return len(self.c)

    # -- variable addressing -------------------------------------------------
    def w_cols(self, auction: int) -> slice:
        """The auction's w columns."""
        lo, hi = np.searchsorted(self.w_auction, [auction, auction + 1])
        return slice(int(lo), int(hi))

    def x_col(self, buyer: int, r_index: int) -> int | None:
        """Column of x[buyer, r]; None for a fixed buyer."""
        col = int(self.x_cols[buyer, r_index])
        return col if col >= 0 else None

    def yp_col(self, buyer: int, r_index: int, auction: int) -> int | None:
        """Column of y'[auction, buyer, r]; None for a reserve above the bid."""
        if r_index >= self.n_le[auction, buyer]:
            return None
        return int(self.yp_first[auction, buyer]) + r_index

    def to_standard_lp(self) -> lp_solver.StandardLp:
        return lp_solver.StandardLp(
            c=self.c, A_eq=self.A_eq, b_eq=self.b_eq, A_le=self.A_le, b_le=self.b_le,
        )

    def violation(self, vec: np.ndarray) -> float:
        return lp_solver.feasibility_violation(self.to_standard_lp(), vec)

    # -- structured points ---------------------------------------------------
    def _project(self, auction: int, p: SubProfile) -> tuple[int, int]:
        """w and y' columns that a full sub-profile projects onto."""
        n = self.dataset.num_buyers
        w = yp = None
        if (0 <= p.winner < n and 0 <= p.supporter < n and p.winner_reserve in self.grid
                and p.supporter_reserve in self.grid):
            r1 = self.grid.index(p.winner_reserve)
            first = int(self.w_first[auction, p.winner, p.supporter])
            if (first >= 0 and r1 < self.n_le[auction, p.winner]
                    and int(self.w_revenue[first + r1]) == p.revenue):
                w = first + r1
                yp = self.yp_col(p.supporter, self.grid.index(p.supporter_reserve), auction)
        if yp is None:
            raise ValueError(f"sub-profile {p} is not valid for auction {auction}")
        return w, yp

    def embed(self, point: LpPoint) -> np.ndarray:
        """Map a structured point into the variable space.

        Each sub-profile's mass goes to its w column and, divided by k, to its
        supporter's y' column.  Raises ``ValueError`` if a sub-profile of the
        point is not valid for its auction (e.g. a reserve off the grid or
        above the bid), or if an auxiliary buyer carries mass away from 0.
        """
        k = self.dataset.num_items
        vec = np.zeros(self.num_vars)
        for a, masses in point.s.items():
            for p, mass in masses.items():
                w, yp = self._project(a, p)
                vec[w] += mass
                vec[yp] += mass / k
        for b, masses in point.x.items():
            for r, mass in masses.items():
                if r not in self.grid:
                    raise ValueError(f"reserve {r} of buyer {b} is not on the grid")
                col = self.x_col(b, self.grid.index(r))
                if col is not None:
                    vec[col] = mass
                elif r != 0 and mass != 0 and b >= self.dataset.num_real_buyers:
                    raise ValueError(f"reserve {r} of buyer {b} must be 0: the buyer is auxiliary")
                # a real buyer bidding 0 everywhere: x is the constant point
                # mass at 0, and any reserve above its zero bids is
                # revenue-equivalent and never appears in a sub-profile, so
                # the mass is dropped soundly
        return vec

    def interpret(self, vec: np.ndarray) -> tuple[list[np.ndarray], dict[int, dict[int, float]]]:
        """Split a variable vector into per-auction w arrays and x masses.

        Fixed buyers come back as a point mass at 0.
        """
        s_parts = [np.asarray(vec[self.w_cols(a)], dtype=float)
                   for a in range(self.dataset.num_auctions)]
        values = self.grid.values
        x_masses: dict[int, dict[int, float]] = {}
        for b, cols in enumerate(self.x_cols.tolist()):
            masses = {values[r]: float(vec[col]) for r, col in enumerate(cols) if col >= 0}
            x_masses[b] = masses or {0: 1.0}  # a fixed buyer has no x column
        return s_parts, x_masses

    def exact_objective(self, point: LpPoint) -> float | int:
        """Inner product of the point's masses with exact integer coefficients.

        Integer masses give an exactly-integer result.
        """
        total: float | int = 0
        for a, masses in point.s.items():
            weight = self.dataset.auctions[a].weight
            for p, mass in masses.items():
                total += weight * int(self.w_revenue[self._project(a, p)[0]]) * mass
        return total

    # -- text interchange ----------------------------------------------------
    def var_names(self) -> list[str]:
        values = self.grid.values
        w_local = np.arange(len(self.w_auction)) - np.searchsorted(self.w_auction, self.w_auction)
        names = [f"w_{a}_{i}" for a, i in zip(self.w_auction.tolist(), w_local.tolist())]
        names += [""] * (self.num_vars - len(names))
        for (b, r), col in np.ndenumerate(self.x_cols):
            if col >= 0:
                names[col] = f"x_{b}_{values[r]}"
        for (a, b), first in np.ndenumerate(self.yp_first):
            for r in range(self.n_le[a, b]):
                names[first + r] = f"yp_{b}_{values[r]}_{a}"
        return names

    def to_lp_text(self) -> str:
        """Dump in LP interchange format for cross-checking with external solvers."""
        names = self.var_names()

        def terms(row: sp.csr_matrix) -> str:
            parts = []
            for j, v in zip(row.indices, row.data):
                sign = "+" if v >= 0 else "-"
                parts.append(f"{sign} {abs(v):.12g} {names[j]}")
            return " ".join(parts) if parts else "0 " + names[0]

        lines = ["Maximize", " obj: " + terms(sp.csr_matrix(self.c))]
        lines.append("Subject To")
        for i in range(self.A_eq.shape[0]):
            lines.append(f" e{i}: {terms(self.A_eq.getrow(i))} = {self.b_eq[i]:.12g}")
        for i in range(self.A_le.shape[0]):
            lines.append(f" l{i}: {terms(self.A_le.getrow(i))} <= {self.b_le[i]:.12g}")
        lines.append("Bounds")
        lines.extend(f" 0 <= {name}" for name in names)
        lines.append("End")
        return "\n".join(lines) + "\n"


def _ranges(counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(c) for c in counts])`` without the Python loop."""
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    return np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(starts, counts)


def _csr(parts: list[tuple[np.ndarray, np.ndarray, np.ndarray | float]],
         shape: tuple[int, int]) -> sp.csr_matrix:
    """Sparse matrix from (rows, columns, values) triples."""
    rows = np.concatenate([r for r, _, _ in parts])
    cols = np.concatenate([c for _, c, _ in parts])
    data = np.concatenate([np.broadcast_to(np.asarray(v, dtype=float), r.shape)
                           for r, _, v in parts])
    return sp.csr_matrix((data, (rows, cols)), shape=shape)


def build_lp(
    dataset: BidDataset,
    grid: ReserveGrid,
    *,
    max_subprofiles: int = DEFAULT_MAX_SUBPROFILES,
) -> LpInstance:
    """Assemble the winner-side sub-profile LP for a whole dataset.

    ``max_subprofiles`` bounds the number of winner-side sub-profiles, the
    w columns this function allocates; the message names the first auction
    past the budget and what was left of it.  Every free buyer gets an x
    column at every grid value; the solve drops the non-candidate ones
    (:func:`symmetry_quotient`).  A dataset with an objective coefficient
    (weight x bid) past 2^53, where float64 stops being exact, is refused
    with :class:`SizeGuardError`.
    """
    if not dataset.includes_auxiliaries:
        raise ValueError("build_lp requires an augmented dataset")
    top = max(a.weight * max(a.bids) for a in dataset.auctions)
    if top > 2**53:
        raise SizeGuardError(
            f"objective coefficient {top} (weight x bid) exceeds 2^53, past which "
            "the float64 LP is not exact; rescale the dataset"
        )
    n = dataset.num_buyers
    k = dataset.num_items
    R = len(grid)
    A = dataset.num_auctions
    values = grid.values

    # bids and grid values as ranks in one sorted list: exact comparisons
    # whatever the size of the money values
    levels = sorted(set(values).union(*(a.bids for a in dataset.auctions)))
    rank = {v: i for i, v in enumerate(levels)}
    bid_rank = np.array([[rank[v] for v in a.bids] for a in dataset.auctions],
                        dtype=np.int64).reshape(A, n)
    value_rank = np.array([rank[v] for v in values], dtype=np.int64)
    n_le = np.searchsorted(value_rank, bid_rank, side="right")  # grid values clearing each bid

    # (winner, supporter) pairs in (auction, winner, supporter) order
    pairs = (bid_rank[:, :, None] >= bid_rank[:, None, :]) & ~np.eye(n, dtype=bool)
    pa, pw, ps = np.nonzero(pairs)
    allocated = np.cumsum(n_le[pa, pw])  # winner-side sub-profiles (w columns) so far
    if len(allocated) and allocated[-1] > max_subprofiles:
        a = int(pa[np.argmax(allocated > max_subprofiles)])
        first = int(np.searchsorted(pa, a))
        budget = max_subprofiles - (int(allocated[first - 1]) if first else 0)
        raise SizeGuardError(
            f"auction {a}: sub-profile count exceeds {budget}; raise the budget to proceed"
        )

    # w columns: one per pair and winner reserve below the winner's bid
    col_pair = np.repeat(np.arange(len(pa)), n_le[pa, pw])
    col_r1 = _ranges(n_le[pa, pw])
    col_a, col_w, col_s = pa[col_pair], pw[col_pair], ps[col_pair]
    num_w = len(col_pair)
    w_first = np.full((A, n, n), -1, dtype=np.int64)
    w_first[pa, pw, ps] = allocated - n_le[pa, pw]

    # auxiliary buyers and buyers bidding 0 everywhere stay at reserve 0
    free_buyers = [b for b in range(dataset.num_real_buyers) if dataset.max_bid(b) > 0]
    x_cols = np.full((n, R), -1, dtype=np.int64)  # (buyer, r index) -> x column
    x_cols[free_buyers] = num_w + np.arange(len(free_buyers) * R).reshape(-1, R)
    x_rows = A * n + np.repeat(np.arange(len(free_buyers)), R)  # the (6) row of each x column
    yp_offset = num_w + len(x_rows)

    # y' columns: one per (auction, buyer) and reserve below the buyer's bid
    yp_base = (np.cumsum(n_le) - n_le.ravel()).reshape(A, n)
    num_yp = int(n_le.sum())
    yp_ab = np.repeat(np.arange(A * n), n_le.ravel())
    yp_b, yp_r = yp_ab % n, _ranges(n_le.ravel())
    yp_cols = yp_offset + np.arange(num_yp)
    num_vars = yp_offset + num_yp

    weights = np.array([float(a.weight) for a in dataset.auctions])
    revenue_rank = np.maximum(bid_rank[col_a, col_s], value_rank[col_r1])
    # every revenue is at most the top bid, which is at most 2^53
    w_revenue = np.array(levels[: bid_rank.max() + 1], dtype=np.int64)[revenue_rank]
    c = np.zeros(num_vars)
    c[:num_w] = weights[col_a] * w_revenue

    w_cols = np.arange(num_w)
    # (2') supporter link, then (6) one reserve per free buyer
    A_eq = _csr([
        (yp_ab, yp_cols, k),
        (col_a * n + col_s, w_cols, -1.0),
        (x_rows, np.arange(num_w, yp_offset), 1.0),
    ], (A * n + len(free_buyers), num_vars))
    b_eq = np.concatenate([np.zeros(A * n), np.ones(len(free_buyers))])

    # (3) reserve consistency, one row per y' column
    yp_x = x_cols[yp_b, yp_r]
    has_x = yp_x >= 0
    fixed = np.ones(n, dtype=bool)
    fixed[free_buyers] = False
    # (4) compatibility, one row per pair: the supporter's y' entries
    sup_pair = np.repeat(np.arange(len(pa)), n_le[pa, ps])
    sup_cols = yp_offset + yp_base[pa[sup_pair], ps[sup_pair]] + _ranges(n_le[pa, ps])
    row4, row5 = num_yp, num_yp + len(pa)
    A_le = _csr([
        (yp_base[col_a, col_w] + col_r1, w_cols, 1.0),
        (np.arange(num_yp), yp_cols, 1.0),
        (np.flatnonzero(has_x), yp_x[has_x], -1.0),
        (row4 + col_pair, w_cols, 1.0),
        (row4 + sup_pair, sup_cols, -1.0),
        (row5 + col_a, w_cols, 1.0),  # (5) at most k sub-profiles happen
    ], (row5 + A, num_vars))
    b_le = np.concatenate([fixed[yp_b].astype(float), np.zeros(len(pa)), np.full(A, float(k))])

    return LpInstance(
        dataset=dataset, grid=grid, c=c, A_eq=A_eq, b_eq=b_eq, A_le=A_le, b_le=b_le,
        constraint_counts={
            "supporter_link": A * n,
            "one_reserve_each": len(free_buyers),
            "reserve_consistency": num_yp,
            "compatibility": len(pa),
            "per_auction_cap": A,
        },
        w_auction=col_a, w_winner=col_w, w_supporter=col_s, w_r1=col_r1,
        w_revenue=w_revenue, w_first=w_first, x_cols=x_cols,
        yp_first=yp_offset + yp_base, n_le=n_le,
    )


@dataclass
class LpSolution:
    """Verified optimal solution of an :class:`LpInstance`."""

    instance: LpInstance
    objective: float
    s: list[np.ndarray]  # per auction, the w masses in column order
    x_masses: dict[int, dict[int, float]]
    vector: np.ndarray
    iterations: int  # HiGHS's on the marginal form (see lp_solver.SolveResult)
    max_violation: float

    @property
    def dataset(self) -> BidDataset:
        return self.instance.dataset

    @property
    def grid(self) -> ReserveGrid:
        return self.instance.grid


def _orbits(*families: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orbit of every member, and the first member of every orbit.

    A family is an array of integer keys, one per member (a row per member
    for 2-d keys); members of one family with equal keys form an orbit.
    Families follow one another, and orbits are numbered by their first
    member, so both results keep the members' order.
    """
    labels, firsts = [], []
    offset = start = 0
    for keys in families:
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True,
                                      axis=0 if keys.ndim > 1 else None)
        order = np.argsort(first)
        label = np.empty_like(order)
        label[order] = np.arange(len(order))
        labels.append(label[inverse.reshape(-1)] + offset)
        firsts.append(first[order] + start)
        offset += len(order)
        start += len(keys)
    return np.concatenate(labels), np.concatenate(firsts)


def buyer_orbits(instance: LpInstance) -> np.ndarray:
    """Orbit of each buyer: same bid in every auction and same free/fixed status.

    Orbits are numbered by their first member; a real buyer bidding 0
    everywhere is fixed, so it shares the auxiliaries' orbit.
    """
    bids = np.array([a.bids for a in instance.dataset.auctions], dtype=np.int64)
    free = (instance.x_cols >= 0).any(axis=1)
    return _orbits(np.column_stack([bids.T, free]))[0]


def symmetry_quotient(instance: LpInstance) -> lp_solver.Quotient:
    """The instance's LP over buyer-orbit totals, and its expansion.

    Permuting buyers inside their orbits (:func:`buyer_orbits`) maps columns
    to columns and rows to rows with the same coefficients, objective and
    right-hand sides, so it is an automorphism of the LP.  The average of an
    optimum over that group is an optimum fixed by it, whose columns are
    equal within each column orbit: (a, O(b1), O(b2), r1) for w, (O(b), r)
    for x, (a, O(b), r) for y'.  Rows of one row orbit, (2') (a, O),
    (6) O, (3) as y', (4) (a, O1, O2), (5) a, are then the same row, and
    one representative each is kept.  The quotient variable of an orbit is
    its total mass, spread evenly on expansion: ``v = P D u`` with P the
    orbit indicator and D = diag(1 / |O|), so the quotient reads
    ``A[reps] P D`` and ``(P D)^T c``, and its optimum equals the full one.

    Only columns at a buyer's candidate reserve (:func:`candidate_mask`)
    are kept: x[b,r], w by the winner's r1 and y'[a,b,r].  Moving all of a
    buyer's mass from a reserve r to its next candidate r+ (its top one when
    r is above all its bids) keeps every column valid, leaves (2'), (4),
    (5) and (6) as they were, adds as much to the left of (3) at r+ as to
    its right, and never lowers max(bid[b2], r1).  Orbit-mates share bids,
    so whole orbits go; a dropped column is an empty row of P, so it
    expands to 0, and a row left without columns reads 0 <= 0.
    """
    ds = instance.dataset
    orbit = buyer_orbits(instance)
    m, R, n = int(orbit.max()) + 1, len(instance.grid), ds.num_buyers
    n_le = instance.n_le.ravel()
    yp_ab = np.repeat(np.arange(len(n_le)), n_le)
    yp_b, yp_r = yp_ab % n, _ranges(n_le)
    yp_key = (yp_ab // n * m + orbit[yp_b]) * R + yp_r
    xb, xr = np.nonzero(instance.x_cols >= 0)
    candidate = candidate_mask(ds, instance.grid)
    families = [  # (orbit key, kept) of the w, x and y' columns
        (((instance.w_auction * m + orbit[instance.w_winner]) * m
          + orbit[instance.w_supporter]) * R + instance.w_r1,
         candidate[instance.w_winner, instance.w_r1]),
        (orbit[xb] * R + xr, candidate[xb, xr]),
        (yp_key, candidate[yp_b, yp_r]),
    ]
    cols, _ = _orbits(*(key[kept] for key, kept in families))
    kept = np.concatenate([kept for _, kept in families])
    ab = np.arange(ds.num_auctions * n)
    _, eq_rows = _orbits(ab // n * m + orbit[ab % n], orbit[np.unique(xb)])
    pa, pw, ps = np.nonzero(instance.w_first >= 0)
    _, le_rows = _orbits(yp_key, (pa * m + orbit[pw]) * m + orbit[ps],
                         np.arange(ds.num_auctions))
    size = np.bincount(cols)
    orbit_sum = sp.csr_matrix((np.ones(len(cols)), cols, np.r_[0, np.cumsum(kept)]),
                              shape=(len(kept), len(size)))  # P
    spread = sp.diags(1.0 / size)  # D
    # sum each orbit's coefficients, then divide once: integer sums stay exact
    return lp_solver.Quotient(
        lp=lp_solver.StandardLp(
            c=(orbit_sum.T @ instance.c) / size,
            A_eq=(instance.A_eq[eq_rows] @ orbit_sum @ spread).tocsr(),
            b_eq=instance.b_eq[eq_rows],
            A_le=(instance.A_le[le_rows] @ orbit_sum @ spread).tocsr(),
            b_le=instance.b_le[le_rows],
        ),
        expand=(orbit_sum @ spread).tocsr(),
    )


def _rank_within(group: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Rank of every member within its group, by ``key`` ascending (ties by position)."""
    order = np.lexsort((key, group))
    rank = np.empty(len(group), dtype=np.int64)
    rank[order] = np.arange(len(group)) - np.searchsorted(group[order], group[order])
    return rank


def _reads_totals(row: np.ndarray, col: np.ndarray, group: np.ndarray,
                  num_rows: int) -> np.ndarray:
    """Rows that read every column of each group they read any column of.

    ``row`` and ``col`` are a pattern's entries ordered by row; ``group`` is
    the group of every column.
    """
    indptr = np.r_[0, np.cumsum(np.bincount(row, minlength=num_rows))]
    size = np.bincount(group)
    counts = sp.csr_matrix((np.ones(len(col)), group[col], indptr),
                           shape=(num_rows, len(size)))
    counts.sum_duplicates()  # one entry per (row, group): how many columns it reads
    partial = np.repeat(np.arange(num_rows), np.diff(counts.indptr))[
        counts.data != size[counts.indices]]
    out = np.ones(num_rows, dtype=bool)
    out[partial] = False
    return out


class Coupling:
    """Expansion of a :func:`marginal_form` point into the full LP: ``coupling @ v``.

    Per block (auction, winner orbit) and regime, the supporter marginal p
    (supporter orbits by bid, descending) and the reserve marginal u (winner
    reserves, descending) are laid on one line and cut at every partial sum
    of either; each piece goes to the w column of the block that pairs the
    supporter and the reserve whose intervals hold it, the north-west-corner
    (quantile) coupling.  That column may belong to the other regime: it
    then earns max(b_s, V_r), at least what the piece was credited.  Every
    supporter and every reserve keeps its total, which is all the rows
    read, so ``lp_solver.solve``'s checks judge the result.  Coupled blocks
    and the other quotient columns are then spread by the quotient's
    ``P D``.  The map is piecewise linear in ``v``, not a matrix.
    """

    def __init__(self, spread: sp.csr_matrix, w_p: np.ndarray, w_u: np.ndarray,
                 p_group: np.ndarray, p_rank: np.ndarray, p_supporter: np.ndarray,
                 u_group: np.ndarray, u_rank: np.ndarray, u_reserve: np.ndarray) -> None:
        self.spread = spread          # the quotient's P D
        self.w_p, self.w_u = w_p, w_u  # per quotient w column: its p and its u column
        self.n_p, self.n_u = len(p_group), len(u_group)
        self.p_group, self.u_group = p_group, u_group  # their (block, regime) groups
        self.p_count, self.u_count = np.bincount(p_group), np.bincount(u_group)
        shape = len(self.p_count), 1 + max(int(p_rank.max(initial=0)), int(u_rank.max(initial=0)))
        self.p_at, self.u_at = np.full(shape, -1), np.full(shape, -1)
        self.p_at[p_group, p_rank] = np.arange(self.n_p)
        self.u_at[u_group, u_rank] = np.arange(self.n_u)
        # per p its (block, supporter orbit), per u its reserve; both regimes share them
        self.p_supporter, self.u_reserve = p_supporter, u_reserve
        self.w_at = np.full((int(p_supporter.max(initial=-1)) + 1,
                             int(u_reserve.max(initial=-1)) + 1), -1)  # -1 if none
        self.w_at[p_supporter[w_p], u_reserve[w_u]] = np.arange(len(w_p))

    def couple(self, v: np.ndarray) -> np.ndarray:
        """The quotient's w columns coupled from the marginals in ``v``."""
        v = np.maximum(np.asarray(v, dtype=float)[: self.n_p + self.n_u], 0.0)
        masses = [np.where(at >= 0, part[at], 0.0) for at, part in (
            (self.p_at, v[: self.n_p]), (self.u_at, v[self.n_p:]))]
        ends = np.hstack([np.cumsum(m, axis=1) for m in masses])
        order = np.argsort(ends, axis=1, kind="stable")
        ends = np.take_along_axis(ends, order, axis=1)
        length = np.diff(ends, axis=1, prepend=0.0)
        from_p = order < self.p_at.shape[1]
        i = np.cumsum(from_p, axis=1) - from_p  # p intervals ended before each piece
        g, piece = np.nonzero(length > 0)
        i = np.minimum(i[g, piece], self.p_count[g] - 1)
        j = np.minimum(piece - i, self.u_count[g] - 1)
        w = self.w_at[self.p_supporter[self.p_at[g, i]], self.u_reserve[self.u_at[g, j]]]
        return np.bincount(w, weights=length[g, piece], minlength=len(self.w_p))

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return self.spread @ np.concatenate([self.couple(v), v[self.n_p + self.n_u:]])


def marginal_form(instance: LpInstance, quotient: lp_solver.Quotient) -> lp_solver.Quotient:
    """The quotient with each block's w columns replaced by their two marginals.

    A block is one auction and winner orbit; its w columns pair every
    supporter orbit s (bid b_s) with every candidate winner reserve r (value
    V_r) and earn weight * b_s on L = {V_r <= b_s} and weight * V_r on H =
    {V_r > b_s}.  Rows (2'), (4) and (5) read a block only through
    p[s] = sum_r w[s,r], row (3) only through u[r] = sum_s w[s,r]; each row
    is checked to read every column of such a sum or none.  So per block
    and regime the columns become p_L, p_H, u_L, u_H, with the objective on
    p_L and u_H and a balance row sum p = sum u.

    The optimum is the quotient's, for any fixed x too.  A w maps to its
    marginals with the same objective.  Conversely the :class:`Coupling` of
    balanced marginals has the same supporter and reserve totals, so it
    meets every row, and each unit of it earns max(b_s, V_r), at least what
    the marginals credited it.  Columns: p, then u, then the quotient's
    other columns; rows: the quotient's equalities, the balance rows, the
    quotient's inequalities.
    """
    lp, spread = quotient.lp, quotient.expand
    orbit = buyer_orbits(instance)
    m, R = int(orbit.max()) + 1, len(instance.grid)
    member = np.empty(spread.shape[1], dtype=np.int64)  # a full column of each quotient one
    member[spread.indices] = np.repeat(np.arange(spread.shape[0]), np.diff(spread.indptr))
    num_w = int(np.count_nonzero(member < len(instance.w_auction)))  # w orbits come first
    member = member[:num_w]
    auction, supporter = instance.w_auction[member], instance.w_supporter[member]
    block = auction * m + orbit[instance.w_winner[member]]
    r, bid = instance.w_r1[member], instance.n_le[auction, supporter]  # V_r <= b_s iff r < bid
    high = r >= bid
    sums_p, sums_u = block * m + orbit[supporter], block * R + r  # what p[s] and u[r] sum
    w_p, p_first = _orbits(sums_p * 2 + high)
    w_u, u_first = _orbits(sums_u * 2 + high)
    n_p, n_u = len(p_first), len(u_first)

    # per p and u column: its block and regime (one group, one balance row), bid or reserve
    ph, pv, uh, uv = high[p_first], bid[p_first], high[u_first], r[u_first]
    group, firsts = _orbits(np.concatenate([block[p_first] * 2 + ph, block[u_first] * 2 + uh]))
    p_group, u_group = group[:n_p], group[n_p:]

    # a row reading a marginal takes the coefficient of the marginal's first column
    first = np.full((2, num_w), -1)
    first[0, p_first], first[1, u_first] = np.arange(n_p), n_p + np.arange(n_u)
    p_supporter = _orbits(sums_p[p_first])[0]
    sums = [p_supporter[w_p], _orbits(sums_u[u_first])[0][w_u]]
    num_cols = n_p + n_u + len(lp.c) - num_w

    def marginal_rows(A: sp.csr_matrix) -> sp.csr_matrix:
        """The quotient's rows ``A`` over the marginal form's columns."""
        entries = A.tocoo()  # ordered by row
        row, col = entries.row, entries.col
        w = col < num_w
        reads_p = _reads_totals(row[w], col[w], sums[0], A.shape[0])
        by_u = ~reads_p[row[w]]
        if not _reads_totals(row[w][by_u], col[w][by_u], sums[1], A.shape[0]).all():
            raise ValueError("a quotient row reads a block through neither marginal")
        new = col - num_w + n_p + n_u
        new[w] = first[by_u.astype(np.int64), col[w]]
        kept = new >= 0
        indptr = np.r_[0, np.cumsum(np.bincount(row[kept], minlength=A.shape[0]))]
        return sp.csr_matrix((entries.data[kept], new[kept], indptr), shape=(A.shape[0], num_cols))

    balance = _csr([(p_group, np.arange(n_p), 1.0), (u_group, n_p + np.arange(n_u), -1.0)],
                   (len(firsts), num_cols))
    return lp_solver.Quotient(
        lp=lp_solver.StandardLp(
            c=np.concatenate([np.where(ph, 0.0, lp.c[p_first]),
                              np.where(uh, lp.c[u_first], 0.0), lp.c[num_w:]]),
            A_eq=sp.vstack([marginal_rows(lp.A_eq), balance], format="csr"),
            b_eq=np.concatenate([lp.b_eq, np.zeros(len(firsts))]),
            A_le=marginal_rows(lp.A_le),
            b_le=lp.b_le,
        ),
        # coupling order: supporters by bid, reserves by value, both descending
        expand=Coupling(spread, w_p, w_u, p_group, _rank_within(p_group, -pv), p_supporter,
                        u_group, _rank_within(u_group, -uv), uv),
    )


def solve_lp(instance: LpInstance, *, tol_feas: float = 1e-7) -> LpSolution:
    """Solve an assembled instance to a verified optimum.

    HiGHS solves the :func:`marginal_form` of the instance's
    :func:`symmetry_quotient`, two exact reductions in a row.  Averaging any
    optimum over the buyer-permutation group gives an optimum in the group's
    fixed subspace, which has one variable per column orbit and one distinct
    row per row orbit, and an optimum on candidate reserves exists; the
    marginal form then keeps each block's two marginals instead of its w
    columns.  The optimum is coupled back into w, expanded to the full
    columns, orbit-mates carrying equal masses and non-candidate columns 0,
    and :func:`lp_solver.solve` accepts it only after checking it against
    the full rows, or rejects the solve with :class:`LpSolveError`.
    """
    result = lp_solver.solve(instance.to_standard_lp(), tol_feas=tol_feas,
                             quotient=marginal_form(instance, symmetry_quotient(instance)))
    s_parts, x_masses = instance.interpret(result.x)
    return LpSolution(
        instance=instance,
        objective=result.objective,
        s=s_parts,
        x_masses=x_masses,
        vector=result.x,
        iterations=result.iterations,
        max_violation=result.max_violation,
    )


def encode_reserves(
    dataset: BidDataset, grid: ReserveGrid, reserves: tuple[int, ...]
) -> LpPoint:
    """Represent an integral reserve vector as a feasible LP point.

    Runs the auctions and sets mass 1 on each achieved sub-profile and on
    each buyer's actual reserve.  The point's objective equals the exact
    weighted revenue.
    """
    if not dataset.includes_auxiliaries:
        raise ValueError("encode_reserves requires an augmented dataset")
    validate_reserves(dataset, reserves, grid)
    s: dict[int, dict[SubProfile, float]] = {}
    objective = 0
    evaluator = batch_evaluator(dataset)
    for a in range(dataset.num_auctions):
        outcome = evaluator.outcome(a, reserves)
        sup = outcome.supporter
        sup_bid = dataset.auctions[a].bids[sup]
        masses: dict[SubProfile, float] = {}
        for w in outcome.winners:
            p = SubProfile(w, sup, reserves[w], reserves[sup], max(sup_bid, reserves[w]))
            masses[p] = 1
            objective += dataset.auctions[a].weight * p.revenue
        s[a] = masses
    x = {b: {reserves[b]: 1.0} for b in range(dataset.num_buyers)}
    return LpPoint(s=s, x=x, objective=objective)
