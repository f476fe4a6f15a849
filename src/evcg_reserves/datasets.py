"""Dataset, reserve-vector and fractional-mass file formats, plus generators.

Files are JSON with money carried as decimal strings, converted exactly at
the dataset's declared scale: no binary floats ever enter or leave a money
field, so cross-run verification can compare bitwise.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from .auction import AuctionColumn, BidDataset


def parse_money(text: str, scale: int) -> int:
    """Parse a non-negative decimal string into integer units at ``scale``.

    Rejects values needing more fractional digits than the scale provides,
    so the conversion is exact by construction.
    """
    text = text.strip()
    if not text or text[0] in "+-":
        raise ValueError(f"invalid money value {text!r}")
    whole, _, frac = text.partition(".")
    if not (whole or frac) or not (whole + frac).isdigit():
        raise ValueError(f"invalid money value {text!r}")
    if len(frac) > scale:
        raise ValueError(
            f"money value {text!r} has more than {scale} fractional digits"
        )
    frac = frac.ljust(scale, "0")
    return int(whole or "0") * 10**scale + (int(frac) if frac else 0)


def format_money(units: int, scale: int) -> str:
    """Render integer units as a decimal string at ``scale``."""
    if units < 0:
        raise ValueError("money values are non-negative")
    if scale == 0:
        return str(units)
    whole, frac = divmod(units, 10**scale)
    return f"{whole}.{frac:0{scale}d}"


def dataset_to_dict(dataset: BidDataset) -> dict[str, Any]:
    if dataset.includes_auxiliaries:
        raise ValueError("serialize the raw dataset, not the augmented one")
    return {
        "num_items": dataset.num_items,
        "scale": dataset.scale,
        "buyers": list(dataset.buyers),
        "auctions": [
            {
                "weight": a.weight,
                "bids": [format_money(b, dataset.scale) for b in a.bids],
            }
            for a in dataset.auctions
        ],
    }


def _integer(value: Any, name: str) -> int:
    """``int(value)``, refusing the booleans and non-integral numbers that
    ``int`` would accept or truncate."""
    error = ValueError(f"{name} must be an integer, not {value!r}")
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise error
    try:
        return int(value)
    except (TypeError, ValueError):
        raise error from None


def expect_list(value: Any, name: str) -> list:
    """``value`` if it is a JSON list; otherwise a ``ValueError`` naming ``name``."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list, not {value!r}")
    return value


def expect_object(value: Any, name: str) -> dict:
    """``value`` if it is a JSON object; otherwise a ``ValueError`` naming ``name``."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, not {value!r}")
    return value


def dataset_from_dict(data: dict[str, Any]) -> BidDataset:
    if not isinstance(data, dict):
        raise ValueError("dataset must be a JSON object")
    try:
        scale = _integer(data.get("scale", 0), "scale")
        buyers = tuple(str(b) for b in expect_list(data["buyers"], "buyers"))
        auctions = []
        for i, a in enumerate(expect_list(data["auctions"], "auctions")):
            expect_object(a, f"auction {i}")
            bids = expect_list(a["bids"], f"auction {i}: bids")
            if len(bids) != len(buyers):
                raise ValueError(f"auction {i}: expected {len(buyers)} bids")
            auctions.append(
                AuctionColumn(
                    weight=_integer(a["weight"], f"auction {i}: weight"),
                    bids=tuple(parse_money(str(b), scale) for b in bids),
                )
            )
        return BidDataset(
            num_items=_integer(data["num_items"], "num_items"),
            buyers=buyers,
            auctions=tuple(auctions),
            scale=scale,
        )
    except KeyError as exc:
        raise ValueError(f"dataset is missing field {exc.args[0]!r}") from exc


def save_dataset(dataset: BidDataset, path: str | Path) -> None:
    Path(path).write_text(json.dumps(dataset_to_dict(dataset), indent=2) + "\n")


def load_dataset(path: str | Path) -> BidDataset:
    """Load a raw (unaugmented) dataset; errors name the offending field."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    try:
        return dataset_from_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def reserves_to_dict(dataset: BidDataset, reserves: tuple[int, ...]) -> dict[str, Any]:
    """Serialize the real buyers' reserves (auxiliary zeros are implied)."""
    n = dataset.num_real_buyers
    if len(reserves) not in (n, dataset.num_buyers):
        raise ValueError("reserve vector length does not match the dataset")
    return {
        "scale": dataset.scale,
        "buyers": list(dataset.buyers[:n]),
        "reserves": [format_money(r, dataset.scale) for r in reserves[:n]],
    }


def save_reserves(dataset: BidDataset, reserves: tuple[int, ...], path: str | Path) -> None:
    Path(path).write_text(json.dumps(reserves_to_dict(dataset, reserves), indent=2) + "\n")


def load_reserves(path: str | Path, dataset: BidDataset) -> tuple[int, ...]:
    """Load a reserve vector, re-appending auxiliary zeros if needed."""
    data = expect_object(json.loads(Path(path).read_text()), "reserve file")
    scale = _integer(data.get("scale", dataset.scale), "scale")
    if scale != dataset.scale:
        raise ValueError("reserve-vector scale does not match the dataset")
    values = tuple(parse_money(str(r), scale)
                   for r in expect_list(data.get("reserves"), "reserves"))
    if list(data.get("buyers", dataset.buyers[: len(values)])) != list(
        dataset.buyers[: len(values)]
    ):
        raise ValueError("reserve-vector buyers do not match the dataset")
    if len(values) == dataset.num_real_buyers and dataset.includes_auxiliaries:
        values = values + (0,) * (dataset.num_items + 1)
    if len(values) != dataset.num_buyers:
        raise ValueError("reserve vector length does not match the dataset")
    return values


def masses_to_dict(
    dataset: BidDataset,
    x_masses: dict[int, dict[int, float]],
    s_masses: dict[int, dict[tuple, float]] | None = None,
) -> dict[str, Any]:
    """Serialize per-buyer reserve masses (and optional sub-profile masses)."""
    out: dict[str, Any] = {
        "scale": dataset.scale,
        "x": {
            dataset.buyers[b]: {
                format_money(r, dataset.scale): mass for r, mass in sorted(masses.items())
            }
            for b, masses in sorted(x_masses.items())
        },
    }
    if s_masses is not None:
        rows = []
        for a in sorted(s_masses):
            for p, mass in sorted(s_masses[a].items()):
                rows.append(
                    {
                        "auction": a,
                        "winner": dataset.buyers[p[0]],
                        "supporter": dataset.buyers[p[1]],
                        "winner_reserve": format_money(p[2], dataset.scale),
                        "supporter_reserve": format_money(p[3], dataset.scale),
                        "mass": mass,
                    }
                )
        out["s"] = rows
    return out


def save_masses(
    dataset: BidDataset,
    x_masses: dict[int, dict[int, float]],
    path: str | Path,
    s_masses: dict[int, dict[tuple, float]] | None = None,
) -> None:
    Path(path).write_text(
        json.dumps(masses_to_dict(dataset, x_masses, s_masses), indent=2) + "\n"
    )


def load_masses(path: str | Path, dataset: BidDataset) -> dict[int, dict[int, float]]:
    """Load per-buyer reserve masses keyed by buyer index and money units."""
    data = expect_object(json.loads(Path(path).read_text()), "mass file")
    scale = _integer(data.get("scale", dataset.scale), "scale")
    if scale != dataset.scale:
        raise ValueError("mass-file scale does not match the dataset")
    buyer_index = {name: i for i, name in enumerate(dataset.buyers)}
    out: dict[int, dict[int, float]] = {}
    for name, masses in expect_object(data.get("x"), "x").items():
        if name not in buyer_index:
            raise ValueError(f"unknown buyer {name!r} in mass file")
        out[buyer_index[name]] = {
            parse_money(r, scale): float(m)
            for r, m in expect_object(masses, f"x.{name}").items()
        }
    return out


def random_dataset(
    num_buyers: int,
    num_auctions: int,
    num_items: int,
    seed: int,
    *,
    max_bid: int = 9,
    max_weight: int = 1,
    scale: int = 0,
) -> BidDataset:
    """IID-uniform integer bids in ``{0..max_bid}``; deterministic in the seed."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    auctions = []
    for _ in range(num_auctions):
        weight = int(rng.integers(1, max_weight + 1))
        bids = tuple(int(v) for v in rng.integers(0, max_bid + 1, size=num_buyers))
        auctions.append(AuctionColumn(weight, bids))
    return BidDataset(
        num_items=num_items,
        buyers=tuple(f"b{i + 1}" for i in range(num_buyers)),
        auctions=tuple(auctions),
        scale=scale,
    )


def correlated_dataset(
    num_buyers: int,
    num_auctions: int,
    num_items: int,
    seed: int,
    *,
    noise: float = 0.0,
    scale: int = 0,
) -> BidDataset:
    """Bids driven by a shared per-auction latent value scaling buyer factors.

    Buyer factors are uniform in {0..4}, each auction's latent value uniform
    in {1..5}.  With ``noise == 0`` every auction's bids are exactly
    proportional to the fixed buyer factors.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    factors = rng.integers(0, 5, size=num_buyers)
    auctions = []
    for _ in range(num_auctions):
        latent = int(rng.integers(1, 6))
        bids = latent * factors
        if noise > 0:
            jitter = rng.normal(0.0, noise, size=num_buyers)
            with np.errstate(over="ignore", invalid="ignore"):  # refused just below
                scaled = np.maximum(0, np.rint(bids * (1.0 + jitter)))
            if not np.all(scaled < 2.0**63):  # also false for inf and nan
                raise ValueError(f"noise {noise} scales a bid past the int64 range")
            bids = scaled.astype(np.int64)
        auctions.append(AuctionColumn(1, tuple(int(b) for b in bids)))
    return BidDataset(
        num_items=num_items,
        buyers=tuple(f"b{i + 1}" for i in range(num_buyers)),
        auctions=tuple(auctions),
        scale=scale,
    )
