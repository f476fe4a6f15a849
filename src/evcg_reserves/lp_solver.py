"""General-purpose linear-program maximizer.

Thin layer over the HiGHS solver bundled with scipy: maximize ``c . x``
subject to sparse equality and inequality rows with ``x >= 0``.
:func:`solve` is the one place that accepts or rejects a solve: it returns a
point only when HiGHS proves it optimal, the point is feasible when
re-verified from the full rows, and HiGHS's objective agrees with ``c . x``.
Given a :class:`Quotient`, HiGHS solves the smaller LP and the checks run on
its expanded point against the full LP's rows.  HiGHS runs dual simplex with
Devex pricing and presolve off: the LP it is handed carries no empty rows
(``lp_model.reduced_lp`` does not emit them), and on that LP presolve costs
more time than its remaining reductions save.  Solves are deterministic for
identical input.

:func:`linprog` hands the LP to HiGHS through scipy's bundled binding
(``scipy.optimize._highspy._core``, as in scipy 1.17, the version floor)
as numpy arrays, skipping the per-column Python work that
``scipy.optimize.linprog`` does around the same solve.  That module is
private, so ``tests/test_lp_model.py`` pins the point, objective and
iteration count to ``scipy.optimize.linprog``'s bit for bit.

The binding is loaded from its file, not imported: importing
``scipy.optimize._highspy._core`` first runs ``scipy/optimize/__init__.py``,
which loads ``scipy.linalg``, ``scipy.fft`` and the other solvers and takes
longer than everything else the program imports, numpy included.
:func:`_load_highs` finds the extension file in scipy's
``optimize/_highspy`` directory and registers the module in ``sys.modules``
under its own name, so a later ``import scipy.optimize`` reuses it; if
``scipy.optimize`` was imported first, its module is reused instead (a
pybind11 module must not be loaded twice).  Matrices are read only through
their ``data``, ``indices``, ``indptr`` and ``shape`` (:class:`Csr`, or a
scipy CSR matrix), so no ``scipy.sparse`` is imported either.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from types import ModuleType
from typing import Any, NamedTuple

import numpy as np
import scipy

from .errors import LpSolveError

OBJECTIVE_TOL = 1e-9  # relative gap allowed between HiGHS's objective and c . x

_HIGHS_MODULE = "scipy.optimize._highspy._core"


def _load_highs(directory: str) -> ModuleType:
    """scipy's HiGHS binding, loaded from ``directory`` without its parent packages.

    An already imported binding is returned as it is.  Raises ``ImportError``
    if ``directory`` holds no ``_core`` extension file.
    """
    if _HIGHS_MODULE in sys.modules:
        return sys.modules[_HIGHS_MODULE]
    paths = [os.path.join(directory, "_core" + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"scipy {scipy.__version__} has no HiGHS binding _core in {directory}")
    spec = importlib.util.spec_from_file_location(_HIGHS_MODULE, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_HIGHS_MODULE] = module
    spec.loader.exec_module(module)
    return module


_highs = _load_highs(os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy"))
_Highs, HighsStatus = _highs._Highs, _highs.HighsStatus

_HIGHS_OPTIONS = (
    ("output_flag", False),  # else HiGHS prints its banner and log to stdout
    ("presolve", "off"),
    ("simplex_dual_edge_weight_strategy",
     _highs.simplex_constants.SimplexEdgeWeightStrategy.kSimplexEdgeWeightStrategyDevex),
)


class Csr(NamedTuple):
    """Compressed sparse rows as plain arrays; a scipy CSR matrix has the same attributes."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])


def _rows(A: Csr) -> np.ndarray:
    """The row of every stored entry of ``A``, in storage order."""
    return np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))


def matvec(A: Csr, x: np.ndarray) -> np.ndarray:
    """``A @ x``: each row's products added in storage order from +0.0, the
    same floats as scipy's CSR product."""
    return np.bincount(_rows(A), A.data * x[A.indices], A.shape[0])


@dataclass
class StandardLp:
    """maximize c.x  subject to  A_eq x = b_eq,  A_le x <= b_le,  x >= 0."""

    c: np.ndarray
    A_eq: Csr | None = None
    b_eq: np.ndarray | None = None
    A_le: Csr | None = None
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

    def row_sums(self, x: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray] | None, ...]:
        """``(A @ x, |A| @ |x|)`` for ``A_eq`` and ``A_le``; None for an absent block."""
        return tuple(None if A is None else (
            matvec(A, x), matvec(Csr(np.abs(A.data), A.indices, A.indptr, A.shape), np.abs(x)))
            for A in (self.A_eq, self.A_le))


@dataclass
class Quotient:
    """A smaller LP with the same optimum, and the map of its points into the full LP.

    ``expand`` is anything that supports ``expand @ u``, sending a point
    ``u`` of ``lp`` (a 1-d array) to a 1-d array over the full LP's columns:
    a sparse matrix for a linear reduction, or an object whose ``@`` is not
    linear, such as a coupling of marginals.  It must be deterministic.
    :func:`solve` trusts neither ``lp`` nor ``expand``: it re-verifies the
    expanded point against the full rows and the full objective.
    """

    lp: StandardLp
    expand: Any


@dataclass
class SolveResult:
    """A verified optimum; ``objective`` is ``c . x``.

    ``x``, ``objective`` and ``max_violation`` refer to the full LP;
    ``iterations`` counts HiGHS's dual simplex iterations (Devex pricing,
    presolve off) on the LP it solved, ``Quotient.lp`` with a
    :class:`Quotient` (the marginal form for ``lp_model.solve_lp``).
    """

    x: np.ndarray
    objective: float
    iterations: int
    max_violation: float


def feasibility_violation(lp: StandardLp, x: np.ndarray) -> float:
    """Maximum scaled constraint violation of a point, recomputed from scratch.

    Each row's residual is divided by ``1 + |coefficients| . |x| + |rhs|`` so
    the tolerance is meaningful across money magnitudes.  ``lp`` is a
    :class:`StandardLp` or any LP with ``b_eq``, ``b_le`` and the same
    ``row_sums``, such as ``lp_model.LpInstance``.
    """
    x = np.asarray(x, dtype=float)
    worst = max(0.0, float(-(x.min())) if x.size else 0.0)
    eq, le = lp.row_sums(x)
    if eq is not None:
        scale = 1.0 + eq[1] + np.abs(lp.b_eq)
        worst = max(worst, float(np.max(np.abs(eq[0] - lp.b_eq) / scale, initial=0.0)))
    if le is not None:
        scale = 1.0 + le[1] + np.abs(lp.b_le)
        worst = max(worst, float(np.max((le[0] - lp.b_le) / scale, initial=0.0)))
    return worst


@dataclass
class HighsResult:
    """What HiGHS returned for ``minimize -c . x``.

    ``status`` is HiGHS's model status (``"Optimal"``, ``"Unbounded"``, ...)
    or, when a HiGHS call returned an error, that call.  ``x`` and ``fun``
    are the point and its objective when the status is optimal, else None;
    ``nit`` counts simplex iterations.
    """

    status: str
    x: np.ndarray | None = None
    fun: float | None = None
    nit: int = 0


def linprog(lp: StandardLp) -> HighsResult:
    """Minimize ``-c . x`` over ``lp`` by HiGHS.

    One HiGHS object, set to ``_HIGHS_OPTIONS``, is handed the LP once as
    numpy arrays: the rows as stored, ``A_le``'s over ``A_eq``'s as
    ``scipy.optimize.linprog`` stacks them, so that HiGHS reads the same model.
    """
    n = len(lp.c)
    empty = Csr(np.zeros(0), np.zeros(0, dtype=np.int32), np.zeros(1, dtype=np.int32), (0, n))
    A_le, b_le = (empty, np.zeros(0)) if lp.A_le is None else (lp.A_le, lp.b_le)
    A_eq, b_eq = (empty, np.zeros(0)) if lp.A_eq is None else (lp.A_eq, lp.b_eq)
    highs = _Highs()
    for name, value in _HIGHS_OPTIONS:
        if highs.setOptionValue(name, value) == HighsStatus.kError:
            return HighsResult(f"setOptionValue {name} returned an error")
    if highs.passModel(
            n, len(b_le) + len(b_eq), A_le.nnz + A_eq.nnz, _highs.MatrixFormat.kRowwise,
            _highs.ObjSense.kMinimize, 0.0, -lp.c, np.zeros(n), np.full(n, np.inf),
            np.concatenate((np.full(len(b_le), -np.inf), b_eq)), np.concatenate((b_le, b_eq)),
            np.concatenate((A_le.indptr[:-1], A_le.nnz + A_eq.indptr[:-1])).astype(np.int32),
            np.concatenate((A_le.indices, A_eq.indices)).astype(np.int32),
            np.concatenate((A_le.data, A_eq.data)).astype(float, copy=False),
            np.zeros(n, dtype=np.int32),
    ) == HighsStatus.kError:
        return HighsResult("passModel returned an error")
    if highs.run() == HighsStatus.kError:
        return HighsResult("run returned an error")
    model_status = highs.getModelStatus()
    info = highs.getInfo()
    res = HighsResult(highs.modelStatusToString(model_status), nit=info.simplex_iteration_count)
    if model_status == _highs.HighsModelStatus.kOptimal:
        res.x = np.array(highs.getSolution().col_value)
        res.fun = info.objective_function_value
    return res


def solve(
    lp: StandardLp,
    *,
    tol_feas: float = 1e-7,
    quotient: Quotient | None = None,
) -> SolveResult:
    """Solve by HiGHS's dual simplex and return the optimum only once it is verified.

    HiGHS prices by Devex and runs without presolve: the marginal form
    carries no empty rows, and presolve's other reductions there save less
    time than presolve takes.
    With a ``quotient``, HiGHS solves ``quotient.lp`` and ``x`` is its point
    expanded into ``lp``'s columns; the checks below read ``lp`` alone,
    through its ``c`` and :func:`feasibility_violation`, so ``lp`` then need
    not carry matrices.

    Raises :class:`LpSolveError`, carrying HiGHS's model status, unless
    HiGHS reports optimal, :func:`feasibility_violation` of the point is at
    most ``tol_feas``, and HiGHS's objective matches ``c . x`` within
    ``OBJECTIVE_TOL``; there is no silently suboptimal return.  A negative
    or non-finite ``tol_feas`` raises ``ValueError`` before the solve.
    """
    if not 0.0 <= tol_feas < np.inf:
        raise ValueError(f"tol_feas must be a finite number >= 0, not {tol_feas!r}")
    solved = lp if quotient is None else quotient.lp
    res = linprog(solved)
    highs = f"(HiGHS: {res.status})"
    if res.x is None:
        raise LpSolveError(f"solver did not reach a proven optimum {highs}")
    u = np.asarray(res.x, dtype=float)
    x = u if quotient is None else quotient.expand @ u
    violation = feasibility_violation(lp, x)
    if violation > tol_feas:
        raise LpSolveError(f"returned point violates constraints by {violation:.2e} {highs}")
    objective = float(lp.c @ x)
    if abs(objective + res.fun) > OBJECTIVE_TOL * max(1.0, abs(objective)):
        raise LpSolveError(
            f"solver objective does not match the recomputed inner product {highs}")
    return SolveResult(
        x=x,
        objective=objective,
        iterations=int(res.nit),
        max_violation=violation,
    )
