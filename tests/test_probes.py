"""Threshold diagnostics: partition exactness, F/delta, phi estimates."""

import numpy as np
import pytest

from evcg_reserves.auction import kth_plus_one_bid
from evcg_reserves.lp_model import build_lp, solve_lp
from evcg_reserves.probes import (
    exact_split_inflated_term,
    make_probe_context,
    mass_above,
    payment_thresholds,
    probe_F_delta,
    probe_phi,
    subprofile_partition,
)

from .conftest import desk_instances, grid_of, make_dataset


def solved(ds):
    return solve_lp(build_lp(ds, grid_of(ds)))


class TestPartition:
    def test_disjoint_cover(self):
        for ds in desk_instances(20, seed=83):
            sol = solved(ds)
            for a in range(ds.num_auctions):
                for tau in payment_thresholds(sol):
                    part = subprofile_partition(make_probe_context(sol, a, tau))
                    pieces = part.j_plus + part.j_minus + part.l_indices
                    assert sorted(pieces) == sorted(part.t_indices)
                    assert len(set(pieces)) == len(pieces)
                    assert part.t_mass == pytest.approx(
                        part.j_plus_mass + part.j_minus_mass + part.l_mass, abs=1e-9
                    )

    def test_high_supporters_go_to_l(self, three_bidder_k2):
        sol = solved(three_bidder_k2)
        ctx = make_probe_context(sol, 0, tau=5)
        supporter = sol.instance.w_supporter[sol.instance.w_cols(0)]
        part = subprofile_partition(ctx)
        bids = three_bidder_k2.auctions[0].bids
        for i in part.l_indices:
            assert bids[supporter[i]] >= 5
        for i in part.j_plus + part.j_minus:
            assert bids[supporter[i]] < 5


class TestFDelta:
    def test_zero_dataset(self):
        ds = make_dataset(1, [(1, (0, 0))])
        sol = solved(ds)
        ctx = make_probe_context(sol, 0, tau=1)
        assert probe_F_delta(ctx) == (0.0, 0.0)

    def test_tau_above_all_bids(self, three_bidder_k2):
        sol = solved(three_bidder_k2)
        ctx = make_probe_context(sol, 0, tau=11)
        f_value, delta = probe_F_delta(ctx)
        assert f_value == 0.0 and delta == 0.0
        assert mass_above(ctx) == 0.0

    def test_upper_bound_by_partition(self):
        # the high-reserve mass is bounded by the analysis-side inflated term
        # through the reserve-consistency constraints, so
        # mass(T) - term <= mass(j_minus) + mass(l) holds unconditionally.
        # (The capped marginal form of F can exceed this bound whenever a
        # buyer's threshold atom carries residual mass, e.g. integral x.)
        for ds in desk_instances(30, seed=89):
            sol = solved(ds)
            for a in range(ds.num_auctions):
                for tau in payment_thresholds(sol):
                    ctx = make_probe_context(sol, a, tau)
                    part = subprofile_partition(ctx)
                    term = exact_split_inflated_term(ctx)
                    assert part.j_plus_mass <= term + 1e-9
                    assert part.t_mass - term <= (
                        part.j_minus_mass + part.l_mass + 1e-9
                    )

    def test_delta_counts_supporter_mass(self):
        for ds in desk_instances(10, seed=97):
            sol = solved(ds)
            for a in range(ds.num_auctions):
                for tau in payment_thresholds(sol):
                    ctx = make_probe_context(sol, a, tau)
                    _, delta = probe_F_delta(ctx)
                    part = subprofile_partition(ctx)
                    assert delta == pytest.approx(part.l_mass / ds.num_items, abs=1e-9)


class TestPhi:
    def test_tau_above_all_bids_is_exactly_zero(self, three_bidder_k2):
        sol = solved(three_bidder_k2)
        ctx = make_probe_context(sol, 0, tau=11)
        est = probe_phi(ctx, num_samples=64, seed=5)
        assert est.value == 0.0 and est.stderr == 0.0

    def test_regime_bounds_on_small_batch(self):
        for i, ds in enumerate(desk_instances(25, seed=101)):
            sol = solved(ds)
            for a in range(ds.num_auctions):
                kth = kth_plus_one_bid(ds, a)
                for tau in payment_thresholds(sol):
                    ctx = make_probe_context(sol, a, tau, boost=0.55)
                    est = probe_phi(ctx, num_samples=400, seed=300 + i)
                    bound = 0.0 if tau > kth else 0.58 * ds.num_items
                    assert est.value <= bound + 3 * est.stderr + 1e-9

    def test_reproducible(self, three_bidder_k2):
        sol = solved(three_bidder_k2)
        ctx = make_probe_context(sol, 0, tau=5)
        a = probe_phi(ctx, num_samples=100, seed=9)
        b = probe_phi(ctx, num_samples=100, seed=9)
        assert a == b

    def test_rejects_nonpositive_tau(self, three_bidder_k2):
        sol = solved(three_bidder_k2)
        with pytest.raises(ValueError):
            make_probe_context(sol, 0, tau=0)
