"""Personalized reserve prices for multi-unit eager VCG auctions.

Exact auction execution over integer-scaled money, a sub-profile LP whose
optimum upper-bounds the best reserve vector, two-way randomized rounding
with best-of-three selection, exact and greedy baselines, a worst-case
instance for naive rounding, and the numeric bound tables behind the
rounding guarantee.
"""

from .auction import (
    AuctionColumn,
    AuctionOutcome,
    BidDataset,
    ReserveGrid,
    add_auxiliary_buyers,
    batch_evaluator,
    kth_plus_one_bid,
    revenue,
    run_evcg,
    zero_reserves,
)
from .baselines import (
    BadExampleSpec,
    bad_example,
    bad_example_fractional,
    brute_force_opt,
    greedy_reserves,
)
from .errors import LpSolveError, SizeGuardError
from .lp_model import (
    LpInstance,
    LpPoint,
    LpSolution,
    SubProfile,
    build_lp,
    encode_reserves,
    solve_lp,
)
from .rounding import (
    RoundingOutput,
    RoundingParams,
    SplitDistributions,
    best_of_three,
    split_distributions,
)

__version__ = "0.1.0"

__all__ = [
    "AuctionColumn",
    "AuctionOutcome",
    "BadExampleSpec",
    "BidDataset",
    "LpInstance",
    "LpPoint",
    "LpSolution",
    "LpSolveError",
    "ReserveGrid",
    "RoundingOutput",
    "RoundingParams",
    "SizeGuardError",
    "SplitDistributions",
    "SubProfile",
    "add_auxiliary_buyers",
    "bad_example",
    "bad_example_fractional",
    "batch_evaluator",
    "best_of_three",
    "brute_force_opt",
    "build_lp",
    "encode_reserves",
    "greedy_reserves",
    "kth_plus_one_bid",
    "revenue",
    "run_evcg",
    "solve_lp",
    "split_distributions",
    "zero_reserves",
]
