"""Run reports: canonical JSON plus text and CSV renderings.

Reports are plain dicts with money carried as exact decimal strings.
Ratios are never stored: renderers recompute them from the reported
revenues, so a report can always be checked against its own artifacts.
Wall-clock timings are kept out of the canonical payload so fixed seeds
yield byte-identical files.
"""

from __future__ import annotations

import json
from typing import Any

from .auction import BidDataset
from .datasets import format_money, parse_money

REFERENCE_LINES = {"rounding_guarantee": 0.63, "greedy_guarantee": 0.5}


def make_report(command: str, dataset: BidDataset, config: dict[str, Any]) -> dict:
    return {
        "command": command,
        "config": dict(config),
        "dataset": {
            "num_items": dataset.num_items,
            "num_real_buyers": dataset.num_real_buyers,
            "num_auctions": dataset.num_auctions,
            "scale": dataset.scale,
        },
        "methods": {},
    }


def add_method(
    doc: dict,
    name: str,
    *,
    dataset: BidDataset,
    reserves: tuple[int, ...],
    revenue: int,
    extra: dict[str, Any] | None = None,
) -> None:
    entry: dict[str, Any] = {
        "reserves": [format_money(r, dataset.scale) for r in reserves[:dataset.num_real_buyers]],
        "revenue": format_money(revenue, dataset.scale),
    }
    if extra:
        entry.update(extra)
    doc["methods"][name] = entry


def _revenue_units(doc: dict, name: str) -> int | None:
    entry = doc.get("methods", {}).get(name, {})
    if "revenue" not in entry:
        return None
    return parse_money(entry["revenue"], doc["dataset"]["scale"])


def compute_ratios(doc: dict) -> dict[str, float]:
    """Ratios of every reported revenue against the LP bound and brute force."""
    ratios: dict[str, float] = {}
    lp_obj = doc.get("lp", {}).get("objective")
    brute = _revenue_units(doc, "brute_force")
    for name in sorted(doc.get("methods", {})):
        rev = _revenue_units(doc, name)
        if rev is None:
            continue
        if lp_obj:
            ratios[f"{name}_vs_lp"] = rev / lp_obj
        if brute:
            ratios[f"{name}_vs_brute_force"] = rev / brute
    return ratios


def to_json(doc: dict) -> str:
    rendered = dict(doc)
    ratios = compute_ratios(doc)
    if ratios:
        rendered["ratios"] = ratios
        rendered["reference_lines"] = REFERENCE_LINES
    return json.dumps(rendered, indent=2, sort_keys=True) + "\n"


def _flatten(prefix: str, value: Any, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], rows)
    else:
        rows.append((prefix, json.dumps(value)))


def to_csv(doc: dict) -> str:
    rendered = dict(doc)
    ratios = compute_ratios(doc)
    if ratios:
        rendered["ratios"] = ratios
    rows: list[tuple[str, str]] = []
    _flatten("", rendered, rows)
    lines = ["key,value"]
    lines.extend(f"{key},{val}" for key, val in rows)
    return "\n".join(lines) + "\n"


def to_text(doc: dict) -> str:
    ds = doc["dataset"]
    lines = [
        f"command: {doc['command']}",
        f"dataset: {ds['num_real_buyers']} buyers, {ds['num_auctions']} auctions, "
        f"{ds['num_items']} items (scale {ds['scale']})",
    ]
    for key in sorted(doc.get("config", {})):
        lines.append(f"config.{key}: {doc['config'][key]}")
    if "lp" in doc:
        lp = doc["lp"]
        lines.append(
            f"lp bound: {lp['objective']!r} "
            f"({lp.get('variables', '?')} vars, {lp.get('iterations', '?')} iterations)"
        )
    methods = doc.get("methods", {})
    if methods:
        lines.append("methods:")
        for name in sorted(methods):
            entry = methods[name]
            parts = [f"  {name}:"]
            if "revenue" in entry:
                parts.append(f"revenue={entry['revenue']}")
            if "reserves" in entry:
                parts.append(f"reserves=({', '.join(entry['reserves'])})")
            for key in sorted(entry):
                if key not in ("revenue", "reserves"):
                    parts.append(f"{key}={json.dumps(entry[key])}")
            lines.append(" ".join(parts))
    ratios = compute_ratios(doc)
    if ratios:
        lines.append("ratios:")
        for key in sorted(ratios):
            lines.append(f"  {key}: {ratios[key]:.6f}")
        lines.append(
            "reference lines: rounding guarantee 0.63, greedy guarantee 0.50"
        )
    if "probe_rows" in doc:
        lines.append("probe rows (auction, tau, regime, phi, stderr, F, delta):")
        for row in doc["probe_rows"]:
            lines.append(
                f"  a={row['auction']} tau={row['tau']:>8} {row['regime']:<5} "
                f"phi={row['phi']:+.4f} se={row['phi_stderr']:.4f} "
                f"F={row['f_value']:+.4f} delta={row['delta']:.4f}"
            )
    for key in sorted(doc):
        if key in ("command", "dataset", "config", "lp", "methods", "probe_rows"):
            continue
        lines.append(f"{key}: {json.dumps(doc[key], sort_keys=True)}")
    return "\n".join(lines) + "\n"


def render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return to_json(doc)
    if fmt == "csv":
        return to_csv(doc)
    if fmt == "text":
        return to_text(doc)
    raise ValueError(f"unknown format {fmt!r}")
