"""Poisson/Bernoulli tail machinery and the three bound tables."""

import math

import numpy as np
import pytest
from scipy import stats

from evcg_reserves.bounds import (
    TABLE1_X_COLUMNS,
    TABLE1_Y_ROWS,
    TABLE2_ALPHA_COLUMNS,
    bernoulli_tail_lower,
    binomial_tail_integral,
    build_snapshot,
    chernoff_tail_check,
    compare_snapshot,
    lambda_value,
    poisson_binomial_tail,
    poisson_tail,
    table1_lower,
    table2_lower,
    table3_lower,
)

from .printed_tables import PRINTED_TABLE1, PRINTED_TABLE2, PRINTED_TABLE3, truncates_to


class TestPoissonTail:
    def test_closed_form_values(self):
        assert poisson_tail(0, 1.0) == pytest.approx(1 - math.exp(-1), abs=1e-12)
        assert poisson_tail(2, 2.0) == pytest.approx(1 - 5 * math.exp(-2), abs=1e-12)
        assert poisson_tail(2, 3.6) == pytest.approx(0.6972531552839984, abs=1e-9)

    def test_matches_scipy_oracle(self):
        cases = [(0, 0.5), (3, 2.0), (10, 10.0), (40, 55.0), (100, 80.0),
                 (2000, 2100.0), (10_000, 9800.0), (9999, 10_000.0)]
        for x, lam in cases:
            assert poisson_tail(x, lam) == pytest.approx(
                float(stats.poisson.sf(x, lam)), rel=1e-10, abs=1e-12
            )

    def test_monotone_in_rate(self):
        lams = np.linspace(0.5, 30.0, 40)
        vals = [poisson_tail(5, lam) for lam in lams]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_monotone_in_index(self):
        vals = [poisson_tail(x, 12.0) for x in range(30)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            poisson_tail(1, 0.0)
        with pytest.raises(ValueError):
            poisson_tail(-1, 1.0)


class TestLambdaValue:
    def test_linear_regime(self):
        assert lambda_value(2, 1.5, 0.6) == pytest.approx(3.6)

    def test_first_term_min(self):
        assert lambda_value(0, 1.5, 0.6) == pytest.approx(1.5)  # min(1.6, 1.5)

    def test_second_term_min(self):
        assert lambda_value(1, 1.05, 0.9) == pytest.approx(2.0)  # min(2.0, 2.1)


class TestTable1:
    def test_spot_entry(self):
        value = table1_lower(1.5, 0.6)
        assert value == pytest.approx(0.697, abs=0.0005)

    def test_dash_entries_invalid(self):
        assert table1_lower(1.05, 0.6) is None
        assert table1_lower(1.1, 0.6) is None
        assert table1_lower(0.9, 1.0) is None  # y <= 1 gate

    def test_corner_entry_printed_as_truncation(self):
        value = table1_lower(1.8, 1.0)
        assert truncates_to(value, "0.834")
        assert abs(value - 0.834) < 1e-3  # exact 0.8347, printed floor

    def test_every_printed_entry(self):
        for (y, x), printed in PRINTED_TABLE1.items():
            value = table1_lower(y, x)
            if printed is None:
                assert value is None, (y, x, value)
            else:
                assert value is not None and truncates_to(value, printed), (y, x, value)

    def test_cap_applies(self):
        # far in the valid region the minimization exceeds 0.9 and is capped
        assert table1_lower(5.0, 1.0) == pytest.approx(0.9)


class TestTable2:
    def test_values(self):
        assert table2_lower(1.0) == pytest.approx(0.7293, abs=5e-5)
        assert table2_lower(0.0) == 0.0
        assert table2_lower(0.6) == pytest.approx(0.5181, abs=5e-5)

    def test_negative_alpha_clamped(self):
        assert table2_lower(-0.5) == 0.0

    def test_every_printed_entry(self):
        for alpha, printed in PRINTED_TABLE2.items():
            assert truncates_to(table2_lower(alpha), printed), alpha


class TestTable3:
    def test_published_rows_exact(self):
        for y, printed in PRINTED_TABLE3.items():
            assert table3_lower(y) == pytest.approx(float(printed), abs=1e-12), y

    def test_spec_tolerances(self):
        assert table3_lower(1.5) == pytest.approx(0.68, abs=0.005)
        assert table3_lower(1.05) == pytest.approx(0.14, abs=0.005)
        assert table3_lower(1.8) == pytest.approx(0.789, abs=0.005)

    def test_unquantized_combination_close(self):
        # without printing-precision quantization the y=1.5 row combines the
        # exact table-2 value at alpha=0.9
        v = table3_lower(1.5, quantize=False)
        assert v == pytest.approx(table2_lower(0.9), abs=1e-12)

    def test_off_grid_alpha_counts_as_zero(self):
        # y=1.1, x=0.8 puts alpha=0.3 off the tabulated columns; including it
        # would lift the row above its published value
        assert table3_lower(1.1) == pytest.approx(0.19, abs=1e-12)
        lifted = table3_lower(1.1, alpha_columns=TABLE2_ALPHA_COLUMNS + (0.3,))
        assert lifted > 0.25


class TestPoissonBinomial:
    def test_deterministic_sum(self):
        assert poisson_binomial_tail([1.0, 1.0], 1) == pytest.approx(1.0)

    def test_two_coins(self):
        assert poisson_binomial_tail([0.5, 0.5], 1) == pytest.approx(0.25)

    def test_three_coins(self):
        assert poisson_binomial_tail([0.5, 0.5, 0.5], 1) == pytest.approx(0.5)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.Generator(np.random.Philox(8))
        for n in (5, 10, 15):
            means = rng.random(n)
            for m in (0, n // 2, n - 1):
                exact = 0.0
                for mask in range(1 << n):
                    prob = 1.0
                    ones = 0
                    for i in range(n):
                        if mask >> i & 1:
                            prob *= means[i]
                            ones += 1
                        else:
                            prob *= 1 - means[i]
                    if ones > m:
                        exact += prob
                assert poisson_binomial_tail(means, m) == pytest.approx(exact, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_binomial_tail([1.5], 0)


class TestBernoulliTailLower:
    def test_values(self):
        expected = min(poisson_tail(1, 3.0), poisson_tail(0, 2.0))
        assert bernoulli_tail_lower(1, 3.0) == pytest.approx(expected)
        assert bernoulli_tail_lower(1, 3.0) == pytest.approx(0.8009, abs=5e-5)
        assert bernoulli_tail_lower(0, 2.0) == pytest.approx(0.8647, abs=5e-5)

    def test_precondition(self):
        with pytest.raises(ValueError):
            bernoulli_tail_lower(3, 3.5)

    def test_dominated_by_exact_tail(self):
        rng = np.random.Generator(np.random.Philox(21))
        checked = 0
        while checked < 200:
            n = int(rng.integers(4, 30))
            means = rng.random(n)
            mu = float(means.sum())
            m = int(mu) - 2
            if m < 0 or m + 1 >= mu:
                continue
            assert poisson_binomial_tail(means, m) >= bernoulli_tail_lower(m, mu) - 1e-12
            checked += 1


class TestExpectedMin2:
    """``table2_lower`` at theta in (0, 2) bounds E[min(X, 2)] / 2 for E[X] = 2 theta."""

    def test_nondecreasing(self):
        values = [table2_lower(2 * i / 2002) for i in range(1, 2002)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_small_theta_limit(self):
        assert table2_lower(1e-9) == pytest.approx(0.0, abs=1e-8)

    def test_dominated_by_exact_value(self):
        rng = np.random.Generator(np.random.Philox(34))
        checked = 0
        while checked < 200:
            n = int(rng.integers(3, 25))
            means = rng.random(n)
            theta = float(means.sum()) / 2.0
            if not 0.0 < theta < 2.0:
                continue
            # E[min(X,2)]/2 = (Pr[X=1] + 2 Pr[X>=2]) / 2
            p_ge2 = poisson_binomial_tail(means, 1)
            p_ge1 = poisson_binomial_tail(means, 0)
            exact = ((p_ge1 - p_ge2) + 2.0 * p_ge2) / 2.0
            assert exact >= table2_lower(theta) - 1e-12
            checked += 1


def direct_binomial_tail(n: int, m: int, p: float) -> float:
    return math.fsum(
        math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(m, n + 1)
    )


class TestBinomialTailIntegral:
    def test_values(self):
        assert binomial_tail_integral(2, 1, 0.5) == pytest.approx(0.75, abs=1e-11)
        for p in (0.0, 0.3, 1.0):
            assert binomial_tail_integral(1, 1, p) == pytest.approx(p, abs=1e-11)
        assert binomial_tail_integral(5, 3, 0.4) == pytest.approx(0.31744, abs=1e-9)

    def test_matches_direct_sum(self):
        for n in (1, 4, 9, 20, 33, 50):
            for m in range(1, n + 1, max(1, n // 4)):
                for p in (0.2, 0.5, 0.8):
                    assert binomial_tail_integral(n, m, p) == pytest.approx(
                        direct_binomial_tail(n, m, p), abs=1e-9
                    )

    def test_validation(self):
        with pytest.raises(ValueError):
            binomial_tail_integral(3, 0, 0.5)
        with pytest.raises(ValueError):
            binomial_tail_integral(3, 2, 1.5)


class TestChernoffCheck:
    def test_regime_claim(self):
        assert chernoff_tail_check(2000, 1.05) >= 0.9

    def test_small_case(self):
        assert chernoff_tail_check(1, 10.0) == pytest.approx(0.99950, abs=5e-6)

    def test_alpha_one_falls_short(self):
        assert chernoff_tail_check(10, 1.0) < 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            chernoff_tail_check(0, 1.05)


class TestSnapshot:
    def test_self_consistent(self):
        snap = build_snapshot()
        assert compare_snapshot(snap, snap) == []
        assert len(snap["table1"]) == len(TABLE1_Y_ROWS) * len(TABLE1_X_COLUMNS)
        assert len(snap["table2"]) == len(TABLE2_ALPHA_COLUMNS)

    def test_detects_perturbation(self):
        snap = build_snapshot()
        tampered = {k: [dict(r) for r in v] for k, v in snap.items()}
        tampered["table2"][0]["value"] += 0.01
        problems = compare_snapshot(build_snapshot(), tampered)
        assert problems and "table2" in problems[0]

    def test_detects_validity_flip(self):
        snap = build_snapshot()
        tampered = {k: [dict(r) for r in v] for k, v in snap.items()}
        row = next(r for r in tampered["table1"] if r["value"] is None)
        row["value"] = 0.5
        assert compare_snapshot(build_snapshot(), tampered)
