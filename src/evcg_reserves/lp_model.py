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
the columns of one orbit are equal and the rows of one orbit coincide; an
optimum also lies on each buyer's candidate reserves.  Every row then reads a
winner orbit's (supporter x reserve) block of w columns through one of its two
marginals.  So :func:`solve_lp` has HiGHS solve :func:`reduced_lp`, by dual
simplex: per block and regime the two marginals and a balance row, over one
variable per orbit of the other columns and one row per orbit of rows,
emitted from the buyer orbits without assembling the full rows.  The
worst-case family ``bad_example(k)`` has four buyer orbits whatever k, so
HiGHS solves 126 columns where the assembled LP has 11,541 at k = 20, and
13,977 columns of the 15 x 30 benchmark instance's 34,361.  :class:`Coupling`
turns the optimum back into w and spreads it over the full columns, where
:func:`lp_solver.solve` checks it against every full row.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from functools import cached_property
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
    each pair's columns are contiguous; r indices are grid indices.  The
    rows are read from the same arrays (:meth:`row_sums`); the CSR matrices
    ``A_eq`` and ``A_le`` are assembled only when first asked for.
    """

    dataset: BidDataset
    grid: ReserveGrid
    c: np.ndarray
    b_eq: np.ndarray
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

    # -- rows ----------------------------------------------------------------
    def _row_parts(self) -> tuple[list, list]:
        """(rows, columns, coefficient) triples of the equality and the inequality rows.

        Columns are an index array or a slice.  Concatenated, each row's
        entries come in column order (w, then x, then y'), the order in which
        a CSR product sums them.
        """
        n, A, k = self.dataset.num_buyers, self.dataset.num_auctions, self.dataset.num_items
        num_w, num_vars = len(self.w_auction), self.num_vars
        w = slice(0, num_w)
        pa, pw, ps = np.nonzero(self.w_first >= 0)  # the (winner, supporter) pairs
        w_pair = np.repeat(np.arange(len(pa)), self.n_le[pa, pw])
        n_le = self.n_le.ravel()
        yp_ab = np.repeat(np.arange(A * n), n_le)
        yp_offset = num_vars - len(yp_ab)
        yp_x = self.x_cols[yp_ab % n, _ranges(n_le)]
        has_x = yp_x >= 0
        num_free = (yp_offset - num_w) // len(self.grid)
        sup_pair = np.repeat(np.arange(len(pa)), self.n_le[pa, ps])
        sup_cols = self.yp_first[pa, ps][sup_pair] + _ranges(self.n_le[pa, ps])
        row4, row5 = len(yp_ab), len(yp_ab) + len(pa)
        eq = [  # (2') supporter link, (6) one reserve each
            ((pa * n + ps)[w_pair], w, -1.0),
            (yp_ab, slice(yp_offset, num_vars), float(k)),
            (A * n + np.repeat(np.arange(num_free), len(self.grid)), slice(num_w, yp_offset), 1.0),
        ]
        le = [  # (3) reserve consistency, (4) compatibility, (5) at most k sub-profiles
            ((self.yp_first[pa, pw] - yp_offset)[w_pair] + self.w_r1, w, 1.0),
            (np.flatnonzero(has_x), yp_x[has_x], -1.0),
            (np.arange(len(yp_ab)), slice(yp_offset, num_vars), 1.0),
            (row4 + w_pair, w, 1.0),
            (row4 + sup_pair, sup_cols, -1.0),
            (row5 + self.w_auction, w, 1.0),
        ]
        return eq, le

    @cached_property
    def _matrices(self) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        eq, le = self._row_parts()
        return (_csr(eq, (len(self.b_eq), self.num_vars)),
                _csr(le, (len(self.b_le), self.num_vars)))

    @property
    def A_eq(self) -> sp.csr_matrix:
        return self._matrices[0]

    @property
    def A_le(self) -> sp.csr_matrix:
        return self._matrices[1]

    def row_sums(self, vec: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """``(A @ vec, |A| @ |vec|)`` for ``A_eq`` and ``A_le``, without assembling them.

        Each row's terms are added one by one in column order from 0, as the
        CSR product adds them, so the sums are the same floats.
        """
        vec = np.asarray(vec, dtype=float)
        out = []
        for parts, size in zip(self._row_parts(), (len(self.b_eq), len(self.b_le))):
            rows = np.concatenate([r for r, _, _ in parts])
            terms = np.concatenate([coef * vec[cols] for _, cols, coef in parts])
            out.append((np.bincount(rows, terms, size), np.bincount(rows, np.abs(terms), size)))
        return tuple(out)

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
        return lp_solver.feasibility_violation(self, vec)

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


def _csr(parts: list[tuple[np.ndarray, np.ndarray | slice, np.ndarray | float]],
         shape: tuple[int, int]) -> sp.csr_matrix:
    """Sparse matrix from (rows, columns, values) triples, each row's entries in
    the order the triples give them; columns may be a slice."""
    rows = np.concatenate([r for r, _, _ in parts])
    order = np.argsort(rows, kind="stable")
    index = np.arange(shape[1])
    cols = np.concatenate([index[c] for _, c, _ in parts])[order]
    data = np.concatenate([np.broadcast_to(np.asarray(v, dtype=float), r.shape)
                           for r, _, v in parts])[order]
    indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=shape[0]))]
    return sp.csr_matrix((data, cols, indptr), shape=shape)


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
    (:func:`reduced_lp`).  No row is assembled here (see
    :class:`LpInstance`).  A dataset with an objective coefficient
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

    # every bid is at most top <= 2^53, so bids fit int64; grid values above
    # top clear no bid and compare alike once clipped to top + 1
    bids = np.array([a.bids for a in dataset.auctions], dtype=np.int64)
    values = np.array([min(v, top + 1) for v in grid.values], dtype=np.int64)
    n_le = np.searchsorted(values, bids, side="right")  # grid values clearing each bid

    # (winner, supporter) pairs in (auction, winner, supporter) order
    pairs = (bids[:, :, None] >= bids[:, None, :]) & ~np.eye(n, dtype=bool)
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
    yp_offset = num_w + len(free_buyers) * R

    # y' columns: one per (auction, buyer) and reserve below the buyer's bid
    yp_base = (np.cumsum(n_le) - n_le.ravel()).reshape(A, n)
    num_yp = int(n_le.sum())

    weights = np.array([float(a.weight) for a in dataset.auctions])
    # a w column's reserve clears the winner's bid, so it is unclipped
    w_revenue = np.maximum(bids[col_a, col_s], values[col_r1])
    c = np.zeros(yp_offset + num_yp)
    c[:num_w] = weights[col_a] * w_revenue

    # right-hand sides: (2'), (6); (3), with a fixed buyer's x the constant 1, (4), (5)
    fixed = np.ones(n, dtype=bool)
    fixed[free_buyers] = False
    b_eq = np.concatenate([np.zeros(A * n), np.ones(len(free_buyers))])
    b_le = np.concatenate([np.repeat(np.tile(fixed, A), n_le.ravel()).astype(float),
                           np.zeros(len(pa)), np.full(A, float(k))])

    return LpInstance(
        dataset=dataset, grid=grid, c=c, b_eq=b_eq, b_le=b_le,
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


def _rank_within(group: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Rank of every member within its group, by ``key`` ascending (ties by position)."""
    order = np.lexsort((key, group))
    rank = np.empty(len(group), dtype=np.int64)
    rank[order] = np.arange(len(group)) - np.searchsorted(group[order], group[order])
    return rank


class Coupling:
    """Expansion of a :func:`reduced_lp` point into the full LP: ``coupling @ v``.

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


def reduced_lp(instance: LpInstance) -> lp_solver.Quotient:
    """The LP that HiGHS solves, emitted from buyer orbits, and its expansion.

    It is the marginal form of the instance's symmetry quotient, two exact
    reductions in a row, built without the instance's rows.

    *Symmetry quotient.*  Permuting buyers inside their orbits
    (:func:`buyer_orbits`) maps columns to columns and rows to rows with the
    same coefficients, objective and right-hand sides, so it is an
    automorphism of the LP.  The average of an optimum over that group is an
    optimum fixed by it, whose columns are equal within each column orbit:
    (a, O(b1), O(b2), r1) for w, (O(b), r) for x, (a, O(b), r) for y'.  Rows
    of one row orbit, (2') (a, O), (6) O, (3) as y', (4) (a, O1, O2), (5) a,
    are then the same row, and one representative each is kept.  The
    quotient variable of an orbit is its total mass, spread evenly on
    expansion: ``v = P D u`` with P the orbit indicator and
    D = diag(1 / |O|), so a representative row's coefficient on an orbit is
    the number of its members the row reads, times its coefficient, times
    1 / |O|, and the objective is ``(P D)^T c``.  Only columns at a buyer's
    candidate reserve (:func:`candidate_mask`) are kept: x[b,r], w by the
    winner's r1 and y'[a,b,r].  Moving all of a buyer's mass from a reserve r
    to its next candidate r+ (its top one when r is above all its bids) keeps
    every column valid, leaves (2'), (4), (5) and (6) as they were, adds as
    much to the left of (3) at r+ as to its right, and never lowers
    max(bid[b2], r1).  Orbit-mates share bids, so whole orbits go; a dropped
    column expands to 0, and a row left without columns reads 0 <= rhs.

    *Marginal form.*  A block is one auction and winner orbit; its quotient
    w columns pair every supporter orbit s (bid b_s) with every candidate
    winner reserve r (value V_r) and earn weight * b_s on L = {V_r <= b_s}
    and weight * V_r on H = {V_r > b_s}.  Rows (2'), (4) and (5) read a
    block only through p[s] = sum_r w[s,r], row (3) only through
    u[r] = sum_s w[s,r] (and through p, where it is read, if the block has
    one reserve).  So per block and regime the columns become p_L, p_H,
    u_L, u_H, with the objective on p_L and u_H and a balance row
    sum p = sum u; a row reading a marginal takes the coefficient of its
    first column.
    The optimum is the quotient's, for any fixed x too.  A w maps to its
    marginals with the same objective.  Conversely the :class:`Coupling` of
    balanced marginals has the same supporter and reserve totals, so it
    meets every row, and each unit of it earns max(b_s, V_r), at least what
    the marginals credited it.

    Columns: p, then u (each numbered by first appearance over the quotient
    w columns, which run by auction, winner orbit, supporter orbit and r),
    then x by (orbit, r), then y' by (auction, orbit, r).  Rows: (2') per
    (auction, orbit), (6) per free orbit, a balance row per block and
    regime; (3) per (auction, orbit, r) below the orbit's bid, (4) per pair
    of orbits, (5) per auction.  Orbits, pairs of orbits and rows come in
    the order of their first member in the instance's columns and rows.
    """
    ds, R = instance.dataset, len(instance.grid)
    A, n, k = ds.num_auctions, ds.num_buyers, ds.num_items
    orbit = buyer_orbits(instance)
    first = np.unique(orbit, return_index=True)[1]  # each orbit's first member
    m, size = len(first), np.bincount(orbit)
    free = (instance.x_cols[first] >= 0).any(axis=1)
    n_le = instance.n_le[:, first]  # (auction, orbit) -> grid values clearing the bid
    candidate = candidate_mask(ds, instance.grid)[first]
    below = np.hstack([np.zeros((m, 1), dtype=np.int64), np.cumsum(candidate, axis=1)])
    n_cand = below[np.arange(m), n_le]  # (auction, orbit) -> candidates clearing the bid
    cand_r = np.argsort(~candidate, axis=1, kind="stable")  # (orbit, i) -> i-th candidate

    # pairs of orbits: a winner orbit's first member and the supporter orbit's
    # first member (its own second one for the same orbit), the orbit pair's
    # first member pair, ordered as the instance orders the pairs
    second = np.full(m, -1)
    by_orbit = np.argsort(orbit, kind="stable")
    second[size > 1] = by_orbit[(np.cumsum(size) - size)[size > 1] + 1]
    partner = np.where(np.eye(m, dtype=bool), second[:, None], first[None, :])
    has = partner >= 0
    valid = has & (instance.w_first[:, first[:, None], np.where(has, partner, 0)] >= 0)
    by_partner = np.argsort(np.where(has, partner, n), axis=1, kind="stable")
    pa, po1, t = np.nonzero(valid[:, np.arange(m)[:, None], by_partner])
    po2 = by_partner[po1, t]
    num_pairs = len(pa)
    pair_at = np.full((A, m, m), -1)
    pair_at[pa, po1, po2] = np.arange(num_pairs)
    pair_size = size[po1] * (size[po2] - (po1 == po2))

    # quotient columns, per family: w (pair, candidate r1), x, y'
    per_pair = n_cand[pa, po1]
    pair_start = np.cumsum(per_pair) - per_pair
    w_pair = np.repeat(np.arange(num_pairs), per_pair)
    qa, qo1, qo2 = pa[w_pair], po1[w_pair], po2[w_pair]
    qr = cand_r[qo1, _ranges(per_pair)]
    num_qw = len(w_pair)
    num_free, per_free = int(free.sum()), candidate[free].sum(axis=1)
    x_orbit = np.repeat(np.flatnonzero(free), per_free)
    num_qx = len(x_orbit)
    x_start = np.zeros(m, dtype=np.int64)
    x_start[free] = num_qw + np.cumsum(per_free) - per_free
    y_ao = np.repeat(np.arange(A * m), n_cand.ravel())
    y_a, y_o = y_ao // m, y_ao % m
    y_r = cand_r[y_o, _ranges(n_cand.ravel())]
    y_start = (num_qw + num_qx + np.cumsum(n_cand) - n_cand.ravel()).reshape(A, m)
    x_q, y_q = num_qw + np.arange(num_qx), num_qw + num_qx + np.arange(len(y_ao))
    inv = 1.0 / np.concatenate([pair_size[w_pair], size[x_orbit], size[y_o]])  # D

    # P: the quotient column of every full column (none if dropped), by table lookups
    ow = orbit[instance.w_winner]
    xb, xr = np.nonzero(instance.x_cols >= 0)
    yp_ab = np.repeat(np.arange(A * n), instance.n_le.ravel())
    yb, yr = orbit[yp_ab % n], _ranges(instance.n_le.ravel())
    w_label = (pair_start[pair_at[instance.w_auction, ow, orbit[instance.w_supporter]]]
               + below[ow, instance.w_r1])
    w_kept = candidate[ow, instance.w_r1]
    kept = np.concatenate([w_kept, candidate[orbit[xb], xr], candidate[yb, yr]])
    label = np.concatenate([w_label, x_start[orbit[xb]] + below[orbit[xb], xr],
                            y_start[yp_ab // n, yb] + below[yb, yr]])[kept]
    spread = sp.csr_matrix((inv[label], label, np.r_[0, np.cumsum(kept)]),
                           shape=(instance.num_vars, len(inv)))
    # sum each orbit's coefficients in column order, then divide once
    c_w = np.bincount(w_label[w_kept], weights=instance.c[: len(w_kept)][w_kept],
                      minlength=num_qw) / pair_size[w_pair]

    # marginal columns
    block = qa * m + qo1
    bid = n_le[qa, qo2]  # V_r <= b_s iff r < bid
    high = qr >= bid
    sums_p, sums_u = block * m + qo2, block * R + qr  # what p[s] and u[r] sum
    w_p, p_first = _orbits(sums_p * 2 + high)
    w_u, u_first = _orbits(sums_u * 2 + high)
    n_p, n_u = len(p_first), len(u_first)
    # per p and u column: its block and regime (one group, one balance row), bid or reserve
    ph, pv, uh, uv = high[p_first], bid[p_first], high[u_first], qr[u_first]
    group, firsts = _orbits(np.concatenate([block[p_first] * 2 + ph, block[u_first] * 2 + uh]))
    p_group, u_group = group[:n_p], group[n_p:]
    p_supporter = _orbits(sums_p[p_first])[0]
    p_cols, u_cols = np.arange(n_p), n_p + np.arange(n_u)
    shift = n_p + n_u - num_qw  # from a quotient x or y' column to its marginal-form one

    # rows: a representative reads the members of a w orbit that pair with it
    same = qo1 == qo2
    reads3 = (size[qo2] - same) * inv[:num_qw]  # (3)'s coefficient on each w orbit
    row3_start = (np.cumsum(n_le) - n_le.ravel()).reshape(A, m)
    num3 = int(n_le.sum())
    row3, y_row3 = row3_start[qa, qo1] + qr, row3_start[y_a, y_o] + y_r
    # a (3) row reads a block through p if the block has one reserve, else through u
    p_row3 = n_cand[qa, qo1] == 1
    u_row3 = ~p_row3[u_first]
    y_free = free[y_o]
    sup_per = n_cand[pa, po2]  # the supporter orbit's y' columns in a (4) row
    sup_pair = np.repeat(np.arange(num_pairs), sup_per)
    sup_q = y_start[pa, po2][sup_pair] + _ranges(sup_per)
    # a (2') row meets its p in the order of its winner's first member, then r
    q = p_first[np.lexsort((qr[p_first], partner[qo2, qo1][p_first]))]
    eq = [  # (2'): p, y'; (6): x; balance: p, u
        (qa[q] * m + qo2[q], w_p[q], -(size[qo1] - same)[q] * inv[q]),
        (y_a * m + y_o, shift + y_q, float(k) * inv[y_q]),
        (A * m + np.cumsum(free)[x_orbit] - 1, shift + x_q, inv[x_q]),
        (A * m + num_free + p_group, p_cols, 1.0),
        (A * m + num_free + u_group, u_cols, -1.0),
    ]
    le = [  # (3): p or u, x, y'; (4): p, y'; (5): p
        (row3[p_row3], w_p[p_row3], reads3[p_row3]),
        (row3[u_first][u_row3], u_cols[u_row3], reads3[u_first][u_row3]),
        (y_row3[y_free], shift + (x_start[y_o] + below[y_o, y_r])[y_free], -inv[y_q][y_free]),
        (y_row3, shift + y_q, inv[y_q]),
        (num3 + w_pair[p_first], p_cols, inv[p_first]),
        (num3 + sup_pair, shift + sup_q, -inv[sup_q]),
        (num3 + num_pairs + qa[p_first], p_cols, (pair_size[w_pair] * inv[:num_qw])[p_first]),
    ]
    num_cols = shift + len(inv)
    return lp_solver.Quotient(
        lp=lp_solver.StandardLp(
            c=np.concatenate([np.where(ph, 0.0, c_w[p_first]), np.where(uh, c_w[u_first], 0.0),
                              np.zeros(len(inv) - num_qw)]),
            A_eq=_csr(eq, (A * m + num_free + len(firsts), num_cols)),
            b_eq=np.concatenate([np.zeros(A * m), np.ones(num_free), np.zeros(len(firsts))]),
            A_le=_csr(le, (num3 + num_pairs + A, num_cols)),
            b_le=np.concatenate([np.repeat(np.tile(~free, A), n_le.ravel()).astype(float),
                                 np.zeros(num_pairs), np.full(A, float(k))]),
        ),
        # coupling order: supporters by bid, reserves by value, both descending
        expand=Coupling(spread, w_p, w_u, p_group, _rank_within(p_group, -pv), p_supporter,
                        u_group, _rank_within(u_group, -uv), uv),
    )


def solve_lp(instance: LpInstance, *, tol_feas: float = 1e-7) -> LpSolution:
    """Solve an assembled instance to a verified optimum.

    HiGHS solves :func:`reduced_lp`, the marginal form of the instance's
    symmetry quotient.  Its optimum is coupled back into w and expanded to
    the full columns, orbit-mates carrying equal masses and non-candidate
    columns 0, and :func:`lp_solver.solve` accepts it only after checking it
    against the instance's full rows (:meth:`LpInstance.row_sums`), or
    rejects the solve with :class:`LpSolveError`.
    """
    result = lp_solver.solve(instance, tol_feas=tol_feas, quotient=reduced_lp(instance))
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
