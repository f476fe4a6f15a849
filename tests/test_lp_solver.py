"""Solver layer: trivial programs, planted optima, independent verification."""

import re

import numpy as np
import pytest
import scipy.sparse as sp

from evcg_reserves import lp_solver
from evcg_reserves.errors import LpSolveError
from evcg_reserves.lp_solver import (
    StandardLp,
    feasibility_violation,
    solve,
)


def test_single_variable_box():
    lp = StandardLp(c=np.array([1.0]), A_le=sp.csr_matrix([[1.0]]), b_le=np.array([3.0]))
    res = solve(lp)
    assert res.objective == pytest.approx(3.0, abs=1e-9)


def test_equality_constrained():
    lp = StandardLp(
        c=np.array([1.0, 1.0]),
        A_eq=sp.csr_matrix([[1.0, 1.0]]),
        b_eq=np.array([1.0]),
    )
    res = solve(lp)
    assert res.objective == pytest.approx(1.0, abs=1e-9)


def test_unbounded():
    """maximize x with -x <= 1 and x >= 0, through the real HiGHS call."""
    lp = StandardLp(c=np.array([1.0]), A_le=sp.csr_matrix([[-1.0]]), b_le=np.array([1.0]))
    with pytest.raises(LpSolveError, match=r"\(HiGHS: Unbounded\)"):
        solve(lp)


def test_infeasible():
    """x <= -1 with x >= 0, through the real HiGHS call."""
    lp = StandardLp(
        c=np.array([1.0]),
        A_le=sp.csr_matrix([[1.0]]), b_le=np.array([-1.0]),
    )
    with pytest.raises(LpSolveError, match=r"\(HiGHS: Infeasible\)"):
        solve(lp)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        StandardLp(c=np.array([1.0, 2.0]), A_le=sp.csr_matrix([[1.0]]), b_le=np.array([1.0]))


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        StandardLp(c=np.array([np.inf]))


def test_rhs_without_matrix_rejected():
    with pytest.raises(ValueError):
        StandardLp(c=np.array([1.0]), A_le=None, b_le=np.array([1.0]))


def _planted_lp(rng: np.random.Generator, n: int, m: int):
    """Random inequality LP with a known optimum, built from a dual certificate.

    Pick x* >= 0 with some zeros, mark which rows are tight, choose duals
    y >= 0 on tight rows and reduced costs z >= 0 on zero coordinates; then
    c = A^T y - z makes x* optimal with value c . x*.
    """
    A = rng.uniform(-1.0, 1.0, size=(m, n))
    x_star = np.where(rng.random(n) < 0.4, 0.0, rng.uniform(0.0, 2.0, n))
    tight = rng.random(m) < 0.5
    slack = np.where(tight, 0.0, rng.uniform(0.1, 1.0, m))
    b = A @ x_star + slack
    y = np.where(tight, rng.uniform(0.1, 1.0, m), 0.0)
    z = np.where(x_star == 0.0, rng.uniform(0.0, 1.0, n), 0.0)
    c = A.T @ y - z
    return StandardLp(c=c, A_le=sp.csr_matrix(A), b_le=b), float(c @ x_star)


def test_planted_optima():
    rng = np.random.Generator(np.random.Philox(2024))
    for _ in range(40):
        n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        lp, opt = _planted_lp(rng, n, m)
        res = solve(lp)
        assert res.objective == pytest.approx(opt, abs=1e-7)
        assert res.objective == float(lp.c @ res.x)
        # feasibility re-verified from the raw matrices, not solver state
        assert feasibility_violation(lp, res.x) <= 1e-9


def test_reported_violation_matches_recomputation():
    lp = StandardLp(
        c=np.array([1.0, 2.0]),
        A_le=sp.csr_matrix([[1.0, 1.0], [2.0, 0.5]]),
        b_le=np.array([4.0, 3.0]),
    )
    res = solve(lp)
    assert res.max_violation == feasibility_violation(lp, res.x)
    assert res.max_violation <= 1e-9


def test_numerical_failure_raises(monkeypatch):
    """Every HiGHS outcome without a point raises, carrying HiGHS's status."""
    lp = StandardLp(c=np.array([1.0]), A_le=sp.csr_matrix([[1.0]]), b_le=np.array([3.0]))
    for status in ("Iteration limit reached", "Time limit reached", "Infeasible",
                   "Unbounded", "Unknown"):
        monkeypatch.setattr(lp_solver, "linprog",
                            lambda *args, **kwargs: lp_solver.HighsResult(status))
        with pytest.raises(LpSolveError, match=re.escape(f"(HiGHS: {status})")):
            solve(lp)


def test_highs_call_error_raises(monkeypatch):
    """A HiGHS call that returns an error, here passModel refusing a
    coefficient of 1e16, raises and names the call."""
    lp = StandardLp(c=np.array([1.0]), A_le=sp.csr_matrix([[1e16]]), b_le=np.array([3.0]))
    with pytest.raises(LpSolveError, match=r"\(HiGHS: passModel returned an error\)"):
        solve(lp)
    lp = StandardLp(c=np.array([1.0]), A_le=sp.csr_matrix([[1.0]]), b_le=np.array([3.0]))
    highs = lp_solver._Highs
    for step in ("setOptionValue", "run"):
        failing = type("Failing", (highs,),
                       {step: lambda self, *args: lp_solver.HighsStatus.kError})
        monkeypatch.setattr(lp_solver, "_Highs", failing)
        with pytest.raises(LpSolveError, match=f"\\(HiGHS: {step} .*returned an error\\)"):
            solve(lp)


def test_solve_prints_nothing(capfd):
    """HiGHS logs to stdout unless told not to, and ``bench`` and ``solve``
    write their reports there."""
    rng = np.random.Generator(np.random.Philox(7))
    lp, _ = _planted_lp(rng, 8, 6)
    solve(lp)
    assert capfd.readouterr() == ("", "")


def test_infeasible_point_raises(monkeypatch):
    """An 'optimal' point past tol_feas is rejected; the bound is inclusive."""
    lp = StandardLp(c=np.array([1.0]), A_le=sp.csr_matrix([[1.0]]), b_le=np.array([3.0]))
    monkeypatch.setattr(lp_solver, "linprog", lambda *args, **kwargs: lp_solver.HighsResult(
        "Optimal", x=np.array([3.5]), fun=-3.5, nit=1))
    violation = feasibility_violation(lp, np.array([3.5]))  # 0.5 / 7.5
    with pytest.raises(LpSolveError, match="violates constraints by 6.67e-02"):
        solve(lp, tol_feas=0.06)
    res = solve(lp, tol_feas=violation)
    assert res.objective == 3.5 and res.max_violation == violation


def test_quotient_checked_on_full_rows():
    """maximize x1 + x2 subject to x1 <= 1, x2 <= 1: one column orbit, one
    row orbit, and the quotient u / 2 <= 1 over the total mass u."""
    lp = StandardLp(c=np.array([1.0, 1.0]), A_le=sp.identity(2, format="csr"),
                    b_le=np.array([1.0, 1.0]))
    quotient = StandardLp(c=np.array([1.0]), A_le=sp.csr_matrix([[0.5]]), b_le=np.array([1.0]))
    spread = sp.csr_matrix([[0.5], [0.5]])
    res = solve(lp, quotient=lp_solver.Quotient(quotient, spread))
    assert res.x.tolist() == [1.0, 1.0] and res.objective == 2.0
    # without the 1 / |O| spread each member gets the total: x = (2, 2)
    with pytest.raises(LpSolveError, match="violates constraints by 2.50e-01"):
        solve(lp, quotient=lp_solver.Quotient(quotient, spread * 2))


def test_tol_feas_must_be_finite_and_nonnegative():
    """``violation > nan`` is always False, so a NaN or infinite tol_feas
    would accept a point breaking a row by 0.25."""
    lp = StandardLp(c=np.array([1.0, 1.0]), A_le=sp.identity(2, format="csr"),
                    b_le=np.array([1.0, 1.0]))
    quotient = StandardLp(c=np.array([1.0]), A_le=sp.csr_matrix([[0.5]]), b_le=np.array([1.0]))
    doubled = lp_solver.Quotient(quotient, sp.csr_matrix([[1.0], [1.0]]))
    for tol_feas in (np.nan, np.inf, -np.inf, -1e-9):
        with pytest.raises(ValueError, match="tol_feas must be a finite number >= 0"):
            solve(lp, tol_feas=tol_feas, quotient=doubled)
    with pytest.raises(LpSolveError, match="violates constraints by 2.50e-01"):
        solve(lp, tol_feas=0.2, quotient=doubled)


def test_deterministic_repeat():
    rng = np.random.Generator(np.random.Philox(99))
    lp, _ = _planted_lp(rng, 12, 15)
    a, b = solve(lp), solve(lp)
    assert a.objective == b.objective
    assert np.array_equal(a.x, b.x)
