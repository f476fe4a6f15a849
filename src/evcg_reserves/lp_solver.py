"""General-purpose linear-program maximizer.

Thin, solver-neutral layer over scipy's HiGHS backend: maximize ``c . x``
subject to sparse equality and inequality rows with ``x >= 0``.  Feasibility
of returned points is re-verified here from the raw matrices, independent of
the solver's internal state, and solves are deterministic for identical
input.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .errors import LpSolveError


class SolveMethod(enum.Enum):
    """HiGHS algorithm; the value is scipy's ``linprog`` method name."""

    DUAL_SIMPLEX = "highs"
    INTERIOR_POINT = "highs-ipm"  # IPX, followed by crossover to a vertex


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    ITERATION_LIMIT = "iteration_limit"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class StandardLp:
    """maximize c.x  subject to  A_eq x = b_eq,  A_le x <= b_le,  x >= 0."""

    c: np.ndarray
    A_eq: sp.csr_matrix | None = None
    b_eq: np.ndarray | None = None
    A_le: sp.csr_matrix | None = None
    b_le: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.shape[0]
        if not np.all(np.isfinite(self.c)):
            raise ValueError("objective has non-finite coefficients")
        for name, A, b in (("A_eq", self.A_eq, self.b_eq), ("A_le", self.A_le, self.b_le)):
            if (A is None) != (b is None):
                raise ValueError(f"{name} and its rhs must be given together")
            if A is None:
                continue
            if A.shape[1] != n or A.shape[0] != len(b):
                raise ValueError(f"{name} dimensions are inconsistent")
            if not np.all(np.isfinite(A.data)) or not np.all(np.isfinite(b)):
                raise ValueError(f"{name} has non-finite coefficients")

    @property
    def num_vars(self) -> int:
        return self.c.shape[0]


@dataclass
class SolveResult:
    status: SolveStatus
    x: np.ndarray | None
    objective: float | None
    iterations: int = 0
    max_violation: float | None = None
    complementarity: float | None = None


def feasibility_violation(lp: StandardLp, x: np.ndarray) -> float:
    """Maximum scaled constraint violation of a point, recomputed from scratch.

    Each row's residual is divided by ``1 + |coefficients| . |x| + |rhs|`` so
    the tolerance is meaningful across money magnitudes.
    """
    x = np.asarray(x, dtype=float)
    worst = max(0.0, float(-(x.min())) if x.size else 0.0)
    if lp.A_eq is not None:
        scale = 1.0 + abs(lp.A_eq) @ np.abs(x) + np.abs(lp.b_eq)
        worst = max(worst, float(np.max(np.abs(lp.A_eq @ x - lp.b_eq) / scale, initial=0.0)))
    if lp.A_le is not None:
        scale = 1.0 + abs(lp.A_le) @ np.abs(x) + np.abs(lp.b_le)
        worst = max(worst, float(np.max((lp.A_le @ x - lp.b_le) / scale, initial=0.0)))
    return worst


def solve(
    lp: StandardLp,
    *,
    max_iterations: int | None = None,
    method: SolveMethod = SolveMethod.DUAL_SIMPLEX,
) -> SolveResult:
    """Solve to proven optimality with ``method`` or report why not.

    An iteration cap is an explicit ``ITERATION_LIMIT`` status, never a
    silently suboptimal answer; a numerical failure of the solver raises
    :class:`LpSolveError`.  ``iterations`` counts simplex iterations, or
    interior-point iterations (crossover excluded) for ``INTERIOR_POINT``.
    """
    options: dict = {"presolve": True}
    if max_iterations is not None:
        options["maxiter"] = max_iterations
    res = linprog(
        -lp.c,
        A_ub=lp.A_le,
        b_ub=lp.b_le,
        A_eq=lp.A_eq,
        b_eq=lp.b_eq,
        bounds=(0, None),
        method=method.value,
        options=options,
    )
    status_map = {
        0: SolveStatus.OPTIMAL,
        1: SolveStatus.ITERATION_LIMIT,
        2: SolveStatus.INFEASIBLE,
        3: SolveStatus.UNBOUNDED,
    }
    if res.status not in status_map:
        raise LpSolveError(f"solver reported a numerical failure: {res.message}")
    status = status_map[res.status]
    if status is not SolveStatus.OPTIMAL:
        return SolveResult(status=status, x=None, objective=None,
                           iterations=int(getattr(res, "nit", 0) or 0))
    x = np.asarray(res.x, dtype=float)
    return SolveResult(
        status=SolveStatus.OPTIMAL,
        x=x,
        objective=float(-res.fun),  # the solver's own value, checked by callers
        iterations=int(getattr(res, "nit", 0) or 0),
        max_violation=feasibility_violation(lp, x),
        complementarity=_complementarity_residual(lp, x, res),
    )


def _complementarity_residual(lp: StandardLp, x: np.ndarray, res) -> float | None:
    """max |dual_i * slack_i| over inequality rows, when duals are available."""
    ineqlin = getattr(res, "ineqlin", None)
    if lp.A_le is None or ineqlin is None or ineqlin.marginals is None:
        return None
    slack = lp.b_le - lp.A_le @ x
    scale = 1.0 + np.abs(lp.b_le)
    return float(np.max(np.abs(ineqlin.marginals * slack) / scale, initial=0.0))
