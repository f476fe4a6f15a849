"""The quotient -> marginal-form chain, kept as the oracle of ``lp_model.reduced_lp``.

``symmetry_quotient`` reduces an assembled instance's full CSR rows by sparse
products, ``marginal_form`` rewrites the quotient's rows over each block's two
marginals, and ``without_empty_rows`` drops the inequality rows left reading
no column.  ``reduced_lp`` emits the same LP straight from buyer orbits; the
tests check that both agree array for array, each row's entries compared in
column order, and that HiGHS is handed the same arrays from both.
``lp_text`` is the LP interchange dump formatted row by row from scipy CSR
matrices, the oracle of ``LpInstance.to_lp_text``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from evcg_reserves import lp_solver
from evcg_reserves.auction import candidate_mask
from evcg_reserves.lp_model import (
    Coupling,
    LpInstance,
    _csr,
    _orbits,
    _ranges,
    _rank_within,
    buyer_orbits,
)


def as_csr(A) -> sp.csr_matrix:
    """A scipy CSR matrix over the arrays of ``A`` (an ``lp_solver.Csr`` or a CSR matrix)."""
    return sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)


def lp_text(instance: LpInstance) -> str:
    """The instance's LP interchange dump, one scipy ``getrow`` per row."""
    names = instance.var_names()

    def terms(row: sp.csr_matrix) -> str:
        parts = []
        for j, v in zip(row.indices, row.data):
            sign = "+" if v >= 0 else "-"
            parts.append(f"{sign} {abs(v):.12g} {names[j]}")
        return " ".join(parts) if parts else "0 " + names[0]

    A_eq, A_le = as_csr(instance.A_eq), as_csr(instance.A_le)
    lines = ["Maximize", " obj: " + terms(sp.csr_matrix(instance.c))]
    lines.append("Subject To")
    for i in range(A_eq.shape[0]):
        lines.append(f" e{i}: {terms(A_eq.getrow(i))} = {instance.b_eq[i]:.12g}")
    for i in range(A_le.shape[0]):
        lines.append(f" l{i}: {terms(A_le.getrow(i))} <= {instance.b_le[i]:.12g}")
    lines.append("Bounds")
    lines.extend(f" 0 <= {name}" for name in names)
    lines.append("End")
    return "\n".join(lines) + "\n"


def standard_lp(instance: LpInstance) -> lp_solver.StandardLp:
    """The instance's full LP as assembled CSR rows."""
    return lp_solver.StandardLp(c=instance.c, A_eq=as_csr(instance.A_eq), b_eq=instance.b_eq,
                                A_le=as_csr(instance.A_le), b_le=instance.b_le)


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
    expands to 0, and a row left without columns reads 0 <= rhs.
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
            A_eq=(as_csr(instance.A_eq)[eq_rows] @ orbit_sum @ spread).tocsr(),
            b_eq=instance.b_eq[eq_rows],
            A_le=(as_csr(instance.A_le)[le_rows] @ orbit_sum @ spread).tocsr(),
            b_le=instance.b_le[le_rows],
        ),
        expand=(orbit_sum @ spread).tocsr(),
    )


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

    Columns: p, then u, then the quotient's other columns; rows: the
    quotient's equalities, the balance rows, the quotient's inequalities.
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

    balance = as_csr(_csr([(p_group, np.arange(n_p), 1.0),
                           (u_group, n_p + np.arange(n_u), -1.0)], (len(firsts), num_cols)))
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


def without_empty_rows(quotient: lp_solver.Quotient) -> tuple[lp_solver.Quotient, np.ndarray]:
    """The LP without its inequality rows that read no column, and those rows.

    A removed row reads ``0 <= rhs``; the caller checks that it constrains
    nothing.  The kept rows stay in their order.
    """
    lp = quotient.lp
    empty = lp.A_le.getnnz(axis=1) == 0
    return lp_solver.Quotient(
        lp=lp_solver.StandardLp(c=lp.c, A_eq=lp.A_eq, b_eq=lp.b_eq,
                                A_le=lp.A_le[~empty], b_le=lp.b_le[~empty]),
        expand=quotient.expand,
    ), np.flatnonzero(empty)
