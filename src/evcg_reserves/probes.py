"""Empirical probes of the rounding analysis quantities.

For one auction and a payment threshold tau, the probes measure how much
fractional mass sits on sub-profiles whose revenue reaches tau, and compare
it against the (weighted) expected number of winners paying at least tau
under the discounted and inflated draws.  The inflated side has closed-form
per-buyer marginals; the discounted side depends on joint order statistics,
so it is estimated by Monte Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .auction import batch_evaluator
from .lp_model import LpSolution
from .rounding import (
    DISCOUNTED_STREAM,
    INFLATED_STREAM,
    RoundingParams,
    SplitDistributions,
    masses_matrix,
    normalise_masses,
    sample_matrix,
    split_distributions,
)


@dataclass(frozen=True)
class ProbeContext:
    """One (auction, tau) probe against a solved LP.

    Carries the rounding splits and the per-buyer closed-form probabilities
    of clearing (discounted draw) and of landing in [tau, bid] (both draws).
    """

    lp: LpSolution
    auction_index: int
    tau: int
    boost: float
    splits: SplitDistributions
    x_matrix: np.ndarray               # renormalized per-buyer reserve masses
    clear_prob_discounted: np.ndarray  # Pr[r_b <= bid_b]
    hit_prob_discounted: np.ndarray    # Pr[tau <= r_b <= bid_b]
    hit_prob_inflated: np.ndarray      # Pr[tau <= r'_b <= bid_b]

    @property
    def bids(self) -> tuple[int, ...]:
        return self.lp.dataset.auctions[self.auction_index].bids


def _interval_prob(dist_row: np.ndarray, grid: tuple[int, ...], lo: int, hi: int) -> float:
    return float(sum(m for r, m in zip(grid, dist_row) if lo <= r <= hi))


def make_probe_context(
    lp: LpSolution, auction_index: int, tau: int, boost: float = 0.55
) -> ProbeContext:
    if tau <= 0:
        raise ValueError("tau must be positive")
    dataset = lp.dataset
    grid = lp.grid
    x = normalise_masses(masses_matrix(lp.x_masses, grid, dataset.num_buyers))
    splits = split_distributions(x, grid, RoundingParams(boost=boost))
    bids = dataset.auctions[auction_index].bids
    n = dataset.num_buyers
    clear_disc = np.array(
        [_interval_prob(splits.discounted[b], grid.values, 0, bids[b]) for b in range(n)]
    )
    hit_disc = np.array(
        [_interval_prob(splits.discounted[b], grid.values, tau, bids[b]) for b in range(n)]
    )
    hit_infl = np.array(
        [_interval_prob(splits.inflated[b], grid.values, tau, bids[b]) for b in range(n)]
    )
    return ProbeContext(
        lp=lp, auction_index=auction_index, tau=tau, boost=boost, splits=splits,
        x_matrix=x,
        clear_prob_discounted=clear_disc,
        hit_prob_discounted=hit_disc,
        hit_prob_inflated=hit_infl,
    )


def mass_above(ctx: ProbeContext) -> float:
    """Fractional mass on sub-profiles of this auction with revenue >= tau."""
    prof = ctx.lp.instance.subprofiles[ctx.auction_index]
    s = ctx.lp.s[ctx.auction_index]
    return float(sum(s[i] for i, p in enumerate(prof) if p.revenue >= ctx.tau))


class PhiEstimate(NamedTuple):
    value: float
    stderr: float
    mass_above: float
    mean_discounted: float
    mean_inflated: float


def probe_phi(ctx: ProbeContext, *, num_samples: int = 1000, seed: int = 0) -> PhiEstimate:
    """Monte-Carlo estimate of the per-auction slack

        mass_above - (1 - boost) E[W(r', tau)] - boost E[W(r, tau)],

    with W counting winners paying at least tau.  The mass term is exact;
    both expectations are estimated from ``num_samples`` independent draws,
    and the reported standard error combines the two sample means.
    """
    if num_samples < 2:
        raise ValueError("num_samples must be at least 2 for a standard error")
    dataset = ctx.lp.dataset
    evaluator = batch_evaluator(dataset)
    disc = sample_matrix(ctx.splits.discounted, ctx.splits.grid, seed,
                         DISCOUNTED_STREAM, num_samples)
    infl = sample_matrix(ctx.splits.inflated, ctx.splits.grid, seed,
                         INFLATED_STREAM, num_samples)
    w_disc = evaluator.winners_above(ctx.auction_index, disc, ctx.tau).astype(float)
    w_infl = evaluator.winners_above(ctx.auction_index, infl, ctx.tau).astype(float)
    beta = ctx.boost
    exact = mass_above(ctx)
    value = exact - (1.0 - beta) * w_infl.mean() - beta * w_disc.mean()
    var = (
        (1.0 - beta) ** 2 * w_infl.var(ddof=1)
        + beta**2 * w_disc.var(ddof=1)
    ) / num_samples
    return PhiEstimate(
        value=float(value),
        stderr=float(np.sqrt(var)),
        mass_above=exact,
        mean_discounted=float(w_disc.mean()),
        mean_inflated=float(w_infl.mean()),
    )


@dataclass(frozen=True)
class Partition:
    """T (mass >= tau) split by supporter bid and winner threshold."""

    t_indices: tuple[int, ...]
    j_plus: tuple[int, ...]
    j_minus: tuple[int, ...]
    l_indices: tuple[int, ...]
    t_mass: float
    j_plus_mass: float
    j_minus_mass: float
    l_mass: float


def subprofile_partition(ctx: ProbeContext) -> Partition:
    """Split the high-revenue sub-profiles of the auction into three classes:

    supporter bids below tau with winner reserve at/above the winner's
    threshold (j_plus), same with reserve below the threshold (j_minus), and
    supporter bids at/above tau (l).  The three are disjoint and cover T.
    """
    prof = ctx.lp.instance.subprofiles[ctx.auction_index]
    s = ctx.lp.s[ctx.auction_index]
    bids = ctx.bids
    thresholds = ctx.splits.thresholds
    t_idx, jp, jm, li = [], [], [], []
    for i, p in enumerate(prof):
        if p.revenue < ctx.tau:
            continue
        t_idx.append(i)
        if bids[p.supporter] >= ctx.tau:
            li.append(i)
        elif p.winner_reserve >= thresholds[p.winner]:
            jp.append(i)
        else:
            jm.append(i)

    def mass(idx: list[int]) -> float:
        return float(sum(s[i] for i in idx))

    return Partition(
        t_indices=tuple(t_idx), j_plus=tuple(jp), j_minus=tuple(jm),
        l_indices=tuple(li),
        t_mass=mass(t_idx), j_plus_mass=mass(jp), j_minus_mass=mass(jm),
        l_mass=mass(li),
    )


def probe_F_delta(ctx: ProbeContext) -> tuple[float, float]:
    """Closed-form (F, delta) for this auction and tau.

    F subtracts the inflated-side expectation, computed exactly from the
    per-buyer marginals and capped at num_items; delta is the per-supporter
    high-bid sub-profile mass divided by num_items.
    """
    k = ctx.lp.dataset.num_items
    inflated_sum = float(ctx.hit_prob_inflated.sum())
    f_value = mass_above(ctx) - (1.0 - ctx.boost) * min(inflated_sum, float(k))
    prof = ctx.lp.instance.subprofiles[ctx.auction_index]
    s = ctx.lp.s[ctx.auction_index]
    bids = ctx.bids
    high_bidders = {b for b in range(len(bids)) if bids[b] >= ctx.tau}
    delta = 0.0
    for b in high_bidders:
        delta += sum(
            s[i]
            for i, p in enumerate(prof)
            if p.supporter == b and p.revenue >= ctx.tau
        ) / k
    return f_value, delta


def exact_split_inflated_term(ctx: ProbeContext) -> float:
    """The analysis-side inflated term: per-buyer mass in [max(tau, t_b), bid_b].

    Under an exact threshold split this equals (1 - boost) times the inflated
    hit probabilities; with residual threshold atoms it upper-bounds them, and
    it is the quantity the high-reserve sub-profile mass is bounded by through
    the LP's reserve-consistency constraints.
    """
    bids = ctx.bids
    grid = ctx.lp.grid.values
    total = 0.0
    for b in range(len(bids)):
        lo = max(ctx.tau, ctx.splits.thresholds[b])
        total += sum(
            ctx.x_matrix[b, i] for i, r in enumerate(grid) if lo <= r <= bids[b]
        )
    return total


def payment_thresholds(lp: LpSolution) -> tuple[int, ...]:
    """All distinct positive grid values: the tau grid for pointwise probes."""
    return tuple(v for v in lp.grid.values if v > 0)
