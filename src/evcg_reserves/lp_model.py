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
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import lp_solver
from .auction import BidDataset, ReserveGrid, batch_evaluator, validate_reserves
from .errors import LpSolveError, SizeGuardError

DEFAULT_MAX_SUBPROFILES = 500_000
OBJECTIVE_TOL = 1e-9  # relative gap allowed between HiGHS's objective and c . x


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
        """Column of x[buyer, r]; None for a fixed buyer or a reserve outside
        the buyer's allowed set."""
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
        above the bid), if a free buyer carries mass on a reserve outside its
        allowed set, or if an auxiliary buyer carries mass away from 0.
        """
        k = self.dataset.num_items
        vec = np.zeros(self.num_vars)
        for a, masses in point.s.items():
            for p, mass in masses.items():
                w, yp = self._project(a, p)
                vec[w] += mass
                vec[yp] += mass / k
        for b, masses in point.x.items():
            free = bool((self.x_cols[b] >= 0).any())
            for r, mass in masses.items():
                if r not in self.grid:
                    raise ValueError(f"reserve {r} of buyer {b} is not on the grid")
                col = self.x_col(b, self.grid.index(r))
                if col is not None:
                    vec[col] = mass
                elif r != 0 and mass != 0 and (free or b >= self.dataset.num_real_buyers):
                    raise ValueError(
                        f"reserve {r} of buyer {b} is outside the buyer's allowed set"
                    )
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

    def objective_of(self, vec: np.ndarray) -> float:
        return float(self.c @ vec)

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
    per_buyer_grid: bool = False,
) -> LpInstance:
    """Assemble the winner-side sub-profile LP for a whole dataset.

    ``max_subprofiles`` bounds the number of full sub-profiles, so a dataset
    is refused exactly when :func:`enumerate_subprofiles` over its auctions
    would be.  ``per_buyer_grid`` restricts each buyer's reserve support to
    their own bid values plus 0 instead of the global grid (optional
    variant; the default is the full grid).  A dataset with an objective
    coefficient (weight x bid) past 2^53, where float64 stops being exact, is
    refused with :class:`SizeGuardError`.
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
    full = np.cumsum(n_le[pa, pw] * n_le[pa, ps])  # full sub-profiles so far
    if len(full) and full[-1] > max_subprofiles:
        a = int(pa[np.argmax(full > max_subprofiles)])
        first = int(np.searchsorted(pa, a))
        budget = max_subprofiles - (int(full[first - 1]) if first else 0)
        raise SizeGuardError(
            f"auction {a}: sub-profile count exceeds {budget}; raise the budget to proceed"
        )

    # w columns: one per pair and winner reserve below the winner's bid
    col_pair = np.repeat(np.arange(len(pa)), n_le[pa, pw])
    col_r1 = _ranges(n_le[pa, pw])
    col_a, col_w, col_s = pa[col_pair], pw[col_pair], ps[col_pair]
    num_w = len(col_pair)
    w_first = np.full((A, n, n), -1, dtype=np.int64)
    w_first[pa, pw, ps] = np.cumsum(n_le[pa, pw]) - n_le[pa, pw]

    # auxiliary buyers and buyers bidding 0 everywhere stay at reserve 0
    free_buyers = tuple(
        b for b in range(dataset.num_real_buyers) if dataset.max_bid(b) > 0
    )
    x_cols = np.full((n, R), -1, dtype=np.int64)  # (buyer, r index) -> x column
    x_rows: list[int] = []  # the (6) row of each x column
    for i, b in enumerate(free_buyers):
        allowed = (sorted(grid.index(v) for v in {0, *dataset.buyer_bids(b)})
                   if per_buyer_grid else list(range(R)))
        x_cols[b, allowed] = num_w + len(x_rows) + np.arange(len(allowed))
        x_rows += [A * n + i] * len(allowed)
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
        (np.array(x_rows, dtype=np.int64), np.arange(num_w, yp_offset), 1.0),
    ], (A * n + len(free_buyers), num_vars))
    b_eq = np.concatenate([np.zeros(A * n), np.ones(len(free_buyers))])

    # (3) reserve consistency, one row per y' column
    yp_x = x_cols[yp_b, yp_r]
    has_x = yp_x >= 0
    fixed = np.ones(n, dtype=bool)
    fixed[list(free_buyers)] = False
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
    iterations: int
    max_violation: float
    complementarity: float | None = None

    @property
    def dataset(self) -> BidDataset:
        return self.instance.dataset

    @property
    def grid(self) -> ReserveGrid:
        return self.instance.grid


def solve_lp(
    instance: LpInstance,
    *,
    tol_feas: float = 1e-7,
    max_iterations: int | None = None,
) -> LpSolution:
    """Solve and independently verify an assembled instance.

    Infeasible/unbounded statuses cannot occur for well-formed instances and
    are raised as errors, as is an iteration cap; there is no silently
    suboptimal return.
    """
    result = lp_solver.solve(instance.to_standard_lp(), max_iterations=max_iterations)
    if result.status is lp_solver.SolveStatus.ITERATION_LIMIT:
        raise LpSolveError("iteration limit exceeded before optimality")
    if result.status is not lp_solver.SolveStatus.OPTIMAL:
        raise LpSolveError(f"internal error: solver status {result.status.value}")
    if result.max_violation > tol_feas:
        raise LpSolveError(
            f"returned point violates constraints by {result.max_violation:.2e}")
    recomputed = instance.objective_of(result.x)
    if abs(recomputed - result.objective) > OBJECTIVE_TOL * max(1.0, abs(recomputed)):
        raise LpSolveError("solver objective does not match the recomputed inner product")
    s_parts, x_masses = instance.interpret(result.x)
    return LpSolution(
        instance=instance,
        objective=recomputed,
        s=s_parts,
        x_masses=x_masses,
        vector=result.x,
        iterations=result.iterations,
        max_violation=result.max_violation,
        complementarity=result.complementarity,
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
