"""Randomized rounding of fractional reserve masses.

Each buyer's LP mass over the reserve grid is split at a threshold into a
discounted distribution (mass below, rescaled by 1/boost) and an inflated
one (mass above, rescaled by 1/(1-boost)), with the threshold atom carrying
the residual of each side.  Reserve vectors drawn from the two splits plus
the all-zero vector form the best-of-three candidate set.

Sampling uses a counter-based generator keyed per (seed, stream, buyer), so
per-buyer draws are independent of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .auction import BidDataset, ReserveGrid, batch_evaluator, zero_reserves

DISCOUNTED_STREAM = 0
INFLATED_STREAM = 1
SIMPLE_STREAM = 2

_MASS_TOL = 1e-7
_NEG_TOL = 1e-9


@dataclass(frozen=True)
class RoundingParams:
    """Knobs of the rounding procedure; boost is the split point in (0, 1)."""

    boost: float = 0.55
    num_samples: int = 64
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.boost < 1.0:
            raise ValueError("boost must lie strictly between 0 and 1")
        if self.num_samples < 1:
            raise ValueError("num_samples must be positive")


@dataclass(frozen=True)
class SplitDistributions:
    """Per-buyer thresholds and the discounted / inflated mass matrices.

    Rows are buyers, columns the grid values; ``discounted`` is supported on
    values <= threshold, ``inflated`` on values >= threshold, and
    ``boost * discounted + (1 - boost) * inflated`` recovers the input mass.
    """

    grid: tuple[int, ...]
    thresholds: tuple[int, ...]
    discounted: np.ndarray
    inflated: np.ndarray


def masses_matrix(
    x_masses: dict[int, dict[int, float]],
    grid: ReserveGrid,
    num_buyers: int,
) -> np.ndarray:
    """Dense (buyers x grid) matrix from sparse per-buyer masses."""
    pos = {v: i for i, v in enumerate(grid.values)}
    out = np.zeros((num_buyers, len(grid)))
    for b, masses in x_masses.items():
        for r, mass in masses.items():
            out[b, pos[r]] = mass
    return out


def normalise_masses(x: np.ndarray) -> np.ndarray:
    """Clip solver noise at 0 and divide each row by its sum; rejects
    non-finite entries, entries below -1e-9 and rows whose sum is off 1 by
    more than 1e-7."""
    if not np.all(np.isfinite(x)):
        raise ValueError("reserve masses must be finite")
    if np.any(x < -_NEG_TOL):
        raise ValueError("negative reserve mass beyond tolerance")
    x = np.clip(x, 0.0, None)
    sums = x.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > _MASS_TOL):
        raise ValueError("per-buyer masses must sum to 1 within 1e-7")
    return x / sums[:, None]


def split_distributions(
    x: np.ndarray,
    grid: ReserveGrid,
    params: RoundingParams,
) -> SplitDistributions:
    """Split per-buyer masses at each buyer's threshold.

    The threshold is the largest grid value whose strictly-below mass does
    not exceed ``boost``, after :func:`normalise_masses`.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != len(grid):
        raise ValueError("mass matrix must be (num_buyers x grid size)")
    x = normalise_masses(x)

    boost = params.boost
    n, R = x.shape
    below = np.concatenate([np.zeros((n, 1)), np.cumsum(x, axis=1)[:, :-1]], axis=1)
    # largest grid index with strictly-below mass <= boost; a relative slack
    # keeps the discounted side's sum within 1e-12 of 1 for every boost
    t_idx = (below <= boost * (1 + 1e-12)).sum(axis=1) - 1
    position = np.arange(R) - t_idx[:, None]
    f = np.where(position < 0, x / boost, 0.0)
    fp = np.where(position > 0, x / (1.0 - boost), 0.0)
    rows = np.arange(n)
    f[rows, t_idx] = np.maximum(0.0, 1.0 - f.sum(axis=1))
    fp[rows, t_idx] = np.maximum(0.0, 1.0 - fp.sum(axis=1))
    for name, mat in (("discounted", f), ("inflated", fp)):
        err = np.abs(mat.sum(axis=1) - 1.0)
        if np.any(err > 1e-9):
            raise AssertionError(f"{name} split does not sum to 1 (err {err.max():.2e})")
    f /= f.sum(axis=1, keepdims=True)
    fp /= fp.sum(axis=1, keepdims=True)
    return SplitDistributions(
        grid=grid.values,
        thresholds=tuple(int(grid.values[t]) for t in t_idx),
        discounted=f,
        inflated=fp,
    )


def _buyer_rng(seed: int, stream: int, buyer: int) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=(stream, buyer))
    return np.random.Generator(np.random.Philox(ss))


def sample_matrix(
    dist: np.ndarray,
    grid: tuple[int, ...],
    seed: int,
    stream: int,
    num_samples: int,
) -> np.ndarray:
    """Draw ``num_samples`` independent reserve vectors (rows, int64)."""
    n, R = dist.shape
    out = np.empty((num_samples, n), dtype=np.int64)
    values = np.asarray(grid, dtype=np.int64)
    for b in range(n):
        cdf = np.cumsum(dist[b])
        cdf[-1] = 1.0
        u = _buyer_rng(seed, stream, b).random(num_samples)
        out[:, b] = values[np.searchsorted(cdf, u, side="right")]
    return out


def sample_splits(
    splits: SplitDistributions, seed: int, num_samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """``num_samples`` draws from each side of the split: (discounted, inflated)."""
    return (sample_matrix(splits.discounted, splits.grid, seed, DISCOUNTED_STREAM, num_samples),
            sample_matrix(splits.inflated, splits.grid, seed, INFLATED_STREAM, num_samples))


@dataclass(frozen=True)
class RoundingOutput:
    """The three candidate vectors, their exact revenues, and the winner."""

    discounted: tuple[int, ...]
    discounted_revenue: int
    inflated: tuple[int, ...]
    inflated_revenue: int
    zero: tuple[int, ...]
    zero_revenue: int
    chosen: str

    @property
    def chosen_vector(self) -> tuple[int, ...]:
        return {"discounted": self.discounted, "inflated": self.inflated,
                "zero": self.zero}[self.chosen]

    @property
    def chosen_revenue(self) -> int:
        return {"discounted": self.discounted_revenue,
                "inflated": self.inflated_revenue,
                "zero": self.zero_revenue}[self.chosen]


def _best_row(evaluator, samples: np.ndarray) -> tuple[tuple[int, ...], int]:
    """Exact revenue of each sampled row; first row attaining the max wins."""
    revs = evaluator.revenues(samples)
    best = int(np.argmax(revs))
    return tuple(int(v) for v in samples[best]), int(revs[best])


def best_of_three(
    dataset: BidDataset,
    lp_solution,
    params: RoundingParams,
) -> RoundingOutput:
    """Sample both splits, keep each side's best draw, and compare with all-zero.

    Draws ``num_samples`` vectors per side and keeps the best realized one,
    which can only improve on a single draw; results are reproducible from
    the seed.
    """
    grid = lp_solution.grid
    x = masses_matrix(lp_solution.x_masses, grid, dataset.num_buyers)
    splits = split_distributions(x, grid, params)
    evaluator = batch_evaluator(dataset)
    disc, infl = sample_splits(splits, params.rng_seed, params.num_samples)
    best_disc, rev_disc = _best_row(evaluator, disc)
    best_infl, rev_infl = _best_row(evaluator, infl)
    zero = zero_reserves(dataset)
    rev_zero = int(evaluator.revenues(np.array([zero]))[0])
    chosen = "discounted"
    if rev_infl > rev_disc:
        chosen = "inflated"
    if rev_zero > max(rev_disc, rev_infl):
        chosen = "zero"
    return RoundingOutput(
        discounted=best_disc, discounted_revenue=rev_disc,
        inflated=best_infl, inflated_revenue=rev_infl,
        zero=zero, zero_revenue=rev_zero,
        chosen=chosen,
    )


def simple_rounding_matrix(
    dataset: BidDataset,
    x_masses: dict[int, dict[int, float]],
    grid: ReserveGrid,
    seed: int,
    num_samples: int,
) -> np.ndarray:
    """``num_samples`` independent draws per buyer directly from the fractional masses."""
    x = normalise_masses(masses_matrix(x_masses, grid, dataset.num_buyers))
    return sample_matrix(x, grid.values, seed, SIMPLE_STREAM, num_samples)
