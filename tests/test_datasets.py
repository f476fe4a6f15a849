"""File formats and generators: exact money round trips, determinism."""

import json

import pytest

from evcg_reserves.auction import add_auxiliary_buyers
from evcg_reserves.datasets import (
    correlated_dataset,
    dataset_to_dict,
    format_money,
    load_dataset,
    load_masses,
    load_reserves,
    parse_money,
    random_dataset,
    save_dataset,
    save_masses,
    save_reserves,
)

from .conftest import make_dataset


class TestMoney:
    def test_integer_scale_zero(self):
        assert parse_money("12", 0) == 12
        assert format_money(12, 0) == "12"

    def test_fractional_exact(self):
        assert parse_money("3.25", 2) == 325
        assert format_money(325, 2) == "3.25"
        assert parse_money("3.2", 2) == 320
        assert parse_money(".5", 1) == 5

    def test_too_many_digits_rejected(self):
        with pytest.raises(ValueError):
            parse_money("3.141", 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            parse_money("-1", 0)

    def test_garbage_rejected(self):
        for bad in ("", "1e3", "1.2.3", "+4", "abc"):
            with pytest.raises(ValueError):
                parse_money(bad, 2)

    def test_round_trip(self):
        for units in (0, 1, 99, 100, 12345):
            for scale in (0, 1, 2, 4):
                assert parse_money(format_money(units, scale), scale) == units


class TestDatasetFiles:
    def test_round_trip(self, tmp_path):
        ds = make_dataset(2, [(1, (10, 8, 5)), (3, (0, 2, 7))], augmented=False)
        path = tmp_path / "ds.json"
        save_dataset(ds, path)
        assert load_dataset(path) == ds

    def test_scaled_bids(self, tmp_path):
        ds = make_dataset(1, [(1, (1025, 50))], augmented=False, scale=2)
        path = tmp_path / "ds.json"
        save_dataset(ds, path)
        raw = json.loads(path.read_text())
        assert raw["auctions"][0]["bids"] == ["10.25", "0.50"]
        assert load_dataset(path) == ds

    def test_augmented_rejected_on_save(self, tmp_path):
        ds = make_dataset(1, [(1, (10, 5))])
        with pytest.raises(ValueError):
            save_dataset(ds, tmp_path / "x.json")

    def test_parse_error_names_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"num_items": 1, "buyers": ["a"]}))
        with pytest.raises(ValueError, match="auctions"):
            load_dataset(path)

    def test_no_auctions_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"num_items": 1, "buyers": ["a"], "auctions": []}))
        with pytest.raises(ValueError, match="dataset has no auctions"):
            load_dataset(path)

    def test_bid_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "num_items": 1, "buyers": ["a", "b"],
            "auctions": [{"weight": 1, "bids": ["1"]}],
        }))
        with pytest.raises(ValueError, match="auction 0"):
            load_dataset(path)


class TestReserveFiles:
    def test_round_trip_appends_auxiliaries(self, tmp_path):
        ds = make_dataset(1, [(1, (10, 5))])
        path = tmp_path / "res.json"
        save_reserves(ds, (10, 5, 0, 0), path)
        assert load_reserves(path, ds) == (10, 5, 0, 0)

    def test_scale_mismatch_rejected(self, tmp_path):
        ds = make_dataset(1, [(1, (10, 5))])
        path = tmp_path / "res.json"
        path.write_text(json.dumps({"scale": 2, "buyers": ["b1", "b2"],
                                    "reserves": ["1.00", "0.50"]}))
        with pytest.raises(ValueError):
            load_reserves(path, ds)

    def test_malformed_file_rejected(self, tmp_path):
        ds = make_dataset(1, [(1, (10, 5))])
        path = tmp_path / "res.json"
        for data, error in [([], "reserve file must be an object"),
                            ({"reserves": "10"}, "reserves must be a list"),
                            ({"scale": 0}, "reserves must be a list, not None"),
                            ({"scale": 0.5, "reserves": ["10"]}, "scale must be an integer")]:
            path.write_text(json.dumps(data))
            with pytest.raises(ValueError, match=error):
                load_reserves(path, ds)


class TestMassFiles:
    def test_round_trip(self, tmp_path):
        ds = make_dataset(1, [(1, (10, 5))])
        x = {0: {10: 0.25, 0: 0.75}, 1: {5: 1.0}, 2: {0: 1.0}, 3: {0: 1.0}}
        path = tmp_path / "mass.json"
        save_masses(ds, x, path)
        assert load_masses(path, ds) == x

    def test_unknown_buyer_rejected(self, tmp_path):
        ds = make_dataset(1, [(1, (10, 5))])
        path = tmp_path / "mass.json"
        path.write_text(json.dumps({"scale": 0, "x": {"nobody": {"0": 1.0}}}))
        with pytest.raises(ValueError):
            load_masses(path, ds)

    def test_malformed_file_rejected(self, tmp_path):
        ds = make_dataset(1, [(1, (10, 5))])
        path = tmp_path / "mass.json"
        for data, error in [([], "mass file must be an object"),
                            ({"x": []}, "x must be an object"),
                            ({"scale": 0}, "x must be an object, not None"),
                            ({"x": {"b1": [1.0]}}, "x.b1 must be an object"),
                            ({"scale": True, "x": {}}, "scale must be an integer")]:
            path.write_text(json.dumps(data))
            with pytest.raises(ValueError, match=error):
                load_masses(path, ds)


class TestGenerators:
    def test_random_deterministic(self):
        a = random_dataset(3, 3, 1, seed=7)
        b = random_dataset(3, 3, 1, seed=7)
        assert a == b
        assert a != random_dataset(3, 3, 1, seed=8)

    def test_random_respects_ranges(self):
        ds = random_dataset(4, 5, 2, seed=3, max_bid=9, max_weight=3)
        for a in ds.auctions:
            assert 1 <= a.weight <= 3
            assert all(0 <= b <= 9 for b in a.bids)

    def test_correlated_zero_noise_proportional(self):
        ds = correlated_dataset(4, 6, 1, seed=5, noise=0.0)
        base = None
        for a in ds.auctions:
            bids = a.bids
            if base is None:
                base = bids
                continue
            # columns proportional: cross ratios match exactly
            for i in range(len(bids)):
                for j in range(len(bids)):
                    assert bids[i] * base[j] == bids[j] * base[i]

    def test_correlated_deterministic(self):
        assert correlated_dataset(3, 3, 1, seed=9) == correlated_dataset(3, 3, 1, seed=9)

    def test_generated_datasets_augment_cleanly(self):
        ds = random_dataset(3, 2, 2, seed=1)
        aug = add_auxiliary_buyers(ds)
        assert aug.num_buyers == 6
        assert dataset_to_dict(ds)["num_items"] == 2
