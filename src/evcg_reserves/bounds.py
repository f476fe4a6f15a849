"""Numeric tail bounds and the tool's bound tables.

Table 1 lower-bounds the probability that more than k high bids clear under
the discounted draw, via a minimization of Poisson upper tails over 2000
candidate rates; Table 2 lower-bounds the normalized expected number of
reserve-clearing winners; Table 3 combines the two the same way the
published tables were combined: consulting tabulated values (zero when the
difference y - x is not a tabulated Table-2 column) at their printed
precision.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate
from scipy.special import gammainc

TABLE1_Y_ROWS = (1.05, 1.1, 1.2, 1.5, 1.7, 1.8)
TABLE1_X_COLUMNS = (0.6, 0.8, 0.9, 1.0)
TABLE2_ALPHA_COLUMNS = (0.15, 0.2, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2)
TABLE1_CAP = 0.9
M_MAX = 2000


def poisson_tail(x: int, lam: float) -> float:
    """G(x, lam) = Pr[Poisson(lam) > x].

    That is the regularized lower incomplete gamma function P(x + 1, lam).
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if x < 0:
        raise ValueError("x must be a non-negative integer")
    return float(gammainc(x + 1, lam))


def lambda_value(i: int, y: float, x: float) -> float:
    """Rate of the i-th term of the overflow minimization.

    y is the normalized cleared mass above the threshold, x the normalized
    supporter mass of high-bid sub-profiles.
    """
    if i < 0:
        raise ValueError("i must be non-negative")
    if i == 0:
        return min(2.0 * y + x - 2.0, y)
    if i == 1:
        return min(2.0 * y + x - 1.0, 2.0 * y)
    return i * y + x


def table1_lower(y: float, x: float) -> float | None:
    """Lower bound for the overflow probability, or None where the bound is invalid.

    Valid only when y > 1 and every rate lambda_i (i < M_MAX) is at least
    i + 1; invalid cells correspond to the dash entries of the emitted table.
    The bound is min(0.9, min_{m < M_MAX} G(m, lambda_m)).
    """
    ms = np.arange(M_MAX, dtype=float)
    lams = ms * y + x
    lams[0] = lambda_value(0, y, x)
    lams[1] = lambda_value(1, y, x)
    if not (y > 1.0) or np.any(lams < ms + 1.0):
        return None
    return min(TABLE1_CAP, float(gammainc(ms + 1.0, lams).min()))


def table2_lower(alpha: float) -> float:
    """Lower bound 1 - (1 + alpha) e^{-2 alpha}, clamped below at 0."""
    return max(0.0, 1.0 - (1.0 + alpha) * math.exp(-2.0 * alpha))


def _floor_to(value: float, decimals: int) -> float:
    scale = 10**decimals
    return math.floor(value * scale + 1e-12) / scale


def table3_lower(
    y: float,
    *,
    alpha_columns: tuple[float, ...] = TABLE2_ALPHA_COLUMNS,
    quantize: bool = True,
) -> float:
    """Combined lower bound: max over the table-1 columns x of
    min(table1(y, x), table2(y - x)).

    Follows the published combination arithmetic: an invalid table-1 cell
    counts as 0, table-2 is consulted only at its tabulated alpha columns
    (0 elsewhere), and with ``quantize`` the inputs enter at their printed
    precision (3 decimals for table 1, 2 for table 2).
    """
    best = 0.0
    for x in TABLE1_X_COLUMNS:
        t1 = table1_lower(y, x)
        v1 = 0.0 if t1 is None else t1
        alpha = y - x
        if any(abs(alpha - col) < 1e-9 for col in alpha_columns):
            v2 = table2_lower(alpha)
        else:
            v2 = 0.0
        if quantize:
            v1 = _floor_to(v1, 3)
            v2 = _floor_to(v2, 2)
        best = max(best, min(v1, v2))
    return best


def poisson_binomial_tail(means: list[float] | np.ndarray, m: int) -> float:
    """Exact Pr[sum of independent Bernoulli(means) > m] by the convolution recurrence."""
    means = np.asarray(means, dtype=float)
    if means.size > 10_000:
        raise ValueError("means vector too long")
    if np.any((means < 0.0) | (means > 1.0)):
        raise ValueError("means must lie in [0, 1]")
    if m < 0:
        return 1.0
    pmf = np.array([1.0])
    for p in means:
        nxt = np.zeros(len(pmf) + 1)
        nxt[:-1] = pmf * (1.0 - p)
        nxt[1:] += pmf * p
        pmf = nxt
    return float(pmf[m + 1:].sum()) if m + 1 < len(pmf) else 0.0


def bernoulli_tail_lower(m: int, mu: float) -> float:
    """min_{0 <= i <= m} G(m - i, mu - i); requires m + 1 < mu.

    A valid lower bound for the tail of any independent Bernoulli sum with
    mean mu.
    """
    if m + 1 >= mu:
        raise ValueError("requires m + 1 < mu")
    return min(poisson_tail(m - i, mu - i) for i in range(m + 1))


def binomial_tail_integral(n: int, m: int, p: float) -> float:
    """Pr[Binomial(n, p) >= m] via the incomplete-beta integral identity.

    Evaluates n!/((m-1)!(n-m)!) * integral_{1-p}^{1} t^{n-m} (1-t)^{m-1} dt
    by adaptive quadrature; equals the direct binomial sum to 1e-9.
    """
    if not 1 <= m <= n:
        raise ValueError("requires 1 <= m <= n")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    coeff = m * math.comb(n, m)

    def integrand(t: float) -> float:
        return t ** (n - m) * (1.0 - t) ** (m - 1)

    value, _ = integrate.quad(integrand, 1.0 - p, 1.0, epsabs=1e-13, epsrel=1e-12)
    return coeff * value


def chernoff_tail_check(m: int, alpha: float) -> float:
    """Exact Pr[Poisson(alpha * m) >= m + 1].

    Confirms the regime claim that this is at least 0.9 for m >= 2000 and
    alpha >= 1.05.  alpha values at or below 1 are accepted so the boundary
    can be probed.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return poisson_tail(m, alpha * m)


def build_snapshot() -> dict:
    """All three tables on their published grids, for regression snapshots."""
    return {
        "table1": [{"y": y, "x": x, "value": table1_lower(y, x)}
                   for y in TABLE1_Y_ROWS for x in TABLE1_X_COLUMNS],
        "table2": [{"alpha": a, "value": table2_lower(a)} for a in TABLE2_ALPHA_COLUMNS],
        "table3": [{"y": y, "value": table3_lower(y)} for y in TABLE1_Y_ROWS],
    }


def compare_snapshot(computed: dict, stored: dict, tol: float = 0.005) -> list[str]:
    """Differences between two snapshots beyond ``tol``; empty means a match."""
    problems = []
    for table in ("table1", "table2", "table3"):
        got, want = computed.get(table, []), stored.get(table, [])
        if len(got) != len(want):
            problems.append(f"{table}: row count {len(got)} != {len(want)}")
            continue
        for g, w in zip(got, want):
            keys = {k: g[k] for k in g if k != "value"}
            gv, wv = g["value"], w["value"]
            if (gv is None) != (wv is None):
                problems.append(f"{table} {keys}: validity changed ({gv} vs {wv})")
            elif gv is not None and abs(gv - wv) > tol:
                problems.append(f"{table} {keys}: {gv:.6f} vs stored {wv:.6f}")
    return problems
