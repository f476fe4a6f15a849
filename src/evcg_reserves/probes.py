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
from .lp_model import LpInstance, LpSolution
from .rounding import (
    RoundingParams,
    SplitDistributions,
    masses_matrix,
    normalise_masses,
    sample_splits,
    split_distributions,
)


@dataclass(frozen=True)
class ProbeContext:
    """One (auction, tau) probe against a solved LP.  The masses and their
    split depend only on the LP and ``boost``; ``dataclasses.replace`` moves a
    context to another (auction, tau) and keeps them.
    """

    lp: LpSolution
    auction_index: int
    tau: int
    boost: float
    splits: SplitDistributions
    x_matrix: np.ndarray           # renormalized per-buyer reserve masses

    @property
    def bids(self) -> tuple[int, ...]:
        return self.lp.dataset.auctions[self.auction_index].bids


def _ordered_sum(values: np.ndarray, mask) -> np.ndarray:
    """Sums of ``values`` under ``mask`` along the last axis, added left to
    right from 0.0 as a loop over the entries would add them (numpy.sum adds
    pairwise, which can move the last digits)."""
    terms = np.where(mask, values, 0.0)
    start = np.zeros(terms.shape[:-1] + (1,))
    return np.cumsum(np.concatenate([start, terms], axis=-1), axis=-1)[..., -1]


def make_probe_context(
    lp: LpSolution, auction_index: int, tau: int, boost: float = 0.55
) -> ProbeContext:
    if tau <= 0:
        raise ValueError("tau must be positive")
    if not 0 <= auction_index < lp.dataset.num_auctions:
        raise IndexError("auction index out of range")
    x = normalise_masses(masses_matrix(lp.x_masses, lp.grid, lp.dataset.num_buyers))
    return ProbeContext(
        lp=lp, auction_index=auction_index, tau=tau, boost=boost,
        splits=split_distributions(x, lp.grid, RoundingParams(boost=boost)), x_matrix=x,
    )


def _columns(ctx: ProbeContext) -> tuple[np.ndarray, LpInstance, slice]:
    """The auction's w masses, and the instance with the slice of its w columns."""
    inst = ctx.lp.instance
    return ctx.lp.s[ctx.auction_index], inst, inst.w_cols(ctx.auction_index)


def mass_above(ctx: ProbeContext) -> float:
    """Fractional mass on sub-profiles of this auction with revenue >= tau."""
    s, inst, cols = _columns(ctx)
    return float(_ordered_sum(s, inst.w_revenue[cols] >= ctx.tau))


class PhiEstimate(NamedTuple):
    value: float
    stderr: float
    mass_above: float


def estimate_phi(ctx: ProbeContext, draws: tuple[np.ndarray, np.ndarray]) -> PhiEstimate:
    """Monte-Carlo estimate of the per-auction slack

        mass_above - (1 - boost) E[W(r', tau)] - boost E[W(r, tau)],

    with W counting winners paying at least tau.  The mass term is exact;
    both expectations are sample means over ``draws``, the (discounted,
    inflated) rows of :func:`rounding.sample_splits`, at least two each, and
    the reported standard error combines the two.  The draws depend only on
    the split and the seed, so the probes of one run can share them.
    """
    evaluator = batch_evaluator(ctx.lp.dataset)
    w_disc, w_infl = (evaluator.winners_above(ctx.auction_index, rows, ctx.tau).astype(float)
                      for rows in draws)
    beta = ctx.boost
    exact = mass_above(ctx)
    value = exact - (1.0 - beta) * w_infl.mean() - beta * w_disc.mean()
    var = (
        (1.0 - beta) ** 2 * w_infl.var(ddof=1)
        + beta**2 * w_disc.var(ddof=1)
    ) / len(w_disc)
    return PhiEstimate(
        value=float(value),
        stderr=float(np.sqrt(var)),
        mass_above=exact,
    )


def probe_phi(ctx: ProbeContext, *, num_samples: int = 1000, seed: int = 0) -> PhiEstimate:
    """:func:`estimate_phi` from ``num_samples`` draws per side of the split."""
    if num_samples < 2:
        raise ValueError("num_samples must be at least 2 for a standard error")
    return estimate_phi(ctx, sample_splits(ctx.splits, seed, num_samples))


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
    s, inst, cols = _columns(ctx)
    t = inst.w_revenue[cols] >= ctx.tau
    high = np.array([bid >= ctx.tau for bid in ctx.bids])[inst.w_supporter[cols]]
    threshold = np.array([ctx.lp.grid.index(v) for v in ctx.splits.thresholds])
    reaches = inst.w_r1[cols] >= threshold[inst.w_winner[cols]]
    classes = (t, t & ~high & reaches, t & ~high & ~reaches, t & high)
    return Partition(
        *(tuple(np.flatnonzero(m).tolist()) for m in classes),
        *(float(_ordered_sum(s, m)) for m in classes),
    )


def probe_F_delta(ctx: ProbeContext) -> tuple[float, float]:
    """Closed-form (F, delta) for this auction and tau.

    F subtracts the inflated-side expectation, computed exactly from the
    per-buyer marginals and capped at num_items; delta is the per-supporter
    high-bid sub-profile mass divided by num_items.
    """
    k = ctx.lp.dataset.num_items
    values = np.array(ctx.lp.grid.values)
    hits = (values >= ctx.tau) & (values <= np.array(ctx.bids)[:, None])
    # Pr[tau <= r'_b <= bid_b] per buyer, summed
    inflated_sum = float(_ordered_sum(ctx.splits.inflated, hits).sum())
    f_value = mass_above(ctx) - (1.0 - ctx.boost) * min(inflated_sum, float(k))
    s, inst, cols = _columns(ctx)
    high = np.flatnonzero([bid >= ctx.tau for bid in ctx.bids])
    per_supporter = _ordered_sum(s, (inst.w_supporter[cols] == high[:, None])
                                 & (inst.w_revenue[cols] >= ctx.tau))
    return f_value, float(_ordered_sum(per_supporter / k, True))


def exact_split_inflated_term(ctx: ProbeContext) -> float:
    """The analysis-side inflated term: per-buyer mass in [max(tau, t_b), bid_b].

    Under an exact threshold split this equals (1 - boost) times the inflated
    hit probabilities; with residual threshold atoms it upper-bounds them, and
    it is the quantity the high-reserve sub-profile mass is bounded by through
    the LP's reserve-consistency constraints.
    """
    values = np.array(ctx.lp.grid.values)
    lo = np.maximum(ctx.tau, np.array(ctx.splits.thresholds))[:, None]
    hits = (values >= lo) & (values <= np.array(ctx.bids)[:, None])
    return float(_ordered_sum(_ordered_sum(ctx.x_matrix, hits), True))


def payment_thresholds(lp: LpSolution) -> tuple[int, ...]:
    """All distinct positive grid values: the tau grid for pointwise probes."""
    return tuple(v for v in lp.grid.values if v > 0)
