"""Command-line front end.

Subcommands: gen | solve | round | bench | tables | verify | probe.
Exit codes: 0 success, 2 validation error or failed LP solve, 3 size-guard
refusal, 4 tables-snapshot mismatch.  Reports are deterministic for a fixed seed;
pass --timings to append wall-clock phase durations (which naturally vary
between runs) to the written report.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from importlib import resources
from pathlib import Path

from . import baselines, bounds, datasets, lp_model, probes, report, rounding
from .auction import (
    ReserveGrid,
    add_auxiliary_buyers,
    batch_evaluator,
    kth_plus_one_bid,
    revenue,
    zero_reserves,
)
from .errors import LpSolveError, SizeGuardError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SIZE_GUARD = 3
EXIT_SNAPSHOT_MISMATCH = 4


def _write_output(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load(args) -> tuple:
    dataset = datasets.load_dataset(args.dataset)
    augmented = add_auxiliary_buyers(dataset)
    grid = ReserveGrid.from_dataset(augmented)
    return augmented, grid


def _solve(args, augmented, grid):
    instance = lp_model.build_lp(
        augmented, grid,
        max_subprofiles=args.max_subprofiles,
        per_buyer_grid=getattr(args, "per_buyer_grid", False),
    )
    solution = lp_model.solve_lp(instance, tol_feas=args.tol_feas)
    return instance, solution


def _lp_section(instance, solution) -> dict:
    return {
        "objective": solution.objective,
        "variables": instance.num_vars,
        "equality_rows": int(instance.A_eq.shape[0]),
        "inequality_rows": int(instance.A_le.shape[0]),
        "iterations": solution.iterations,
        "max_violation": solution.max_violation,
    }


def cmd_gen(args) -> int:
    if args.kind == "bad-example":
        spec = baselines.BadExampleSpec(k=args.k, delta=args.delta)
        dataset = baselines.bad_example(spec, augmented=False)
        if args.fractional_out:
            point = baselines.bad_example_fractional(spec)
            datasets.save_masses(
                baselines.bad_example(spec), point.x, args.fractional_out, point.s
            )
    elif args.kind == "random":
        dataset = datasets.random_dataset(
            args.buyers, args.auctions, args.items, args.seed,
            max_bid=args.max_bid, max_weight=args.max_weight, scale=args.scale,
        )
    else:  # correlated
        dataset = datasets.correlated_dataset(
            args.buyers, args.auctions, args.items, args.seed,
            noise=args.noise, scale=args.scale,
        )
    text = json.dumps(datasets.dataset_to_dict(dataset), indent=2) + "\n"
    _write_output(text, args.out)
    return EXIT_OK


def cmd_solve(args) -> int:
    started = time.perf_counter()
    augmented, grid = _load(args)
    instance, solution = _solve(args, augmented, grid)
    doc = report.make_report("solve", augmented, _config_section(args))
    doc["lp"] = _lp_section(instance, solution)
    if args.lp_dump:
        Path(args.lp_dump).write_text(instance.to_lp_text())
    _attach_timings(args, doc, started)
    _write_output(report.render(doc, args.format), args.out)
    return EXIT_OK


def cmd_round(args) -> int:
    started = time.perf_counter()
    augmented, grid = _load(args)
    instance, solution = _solve(args, augmented, grid)
    params = rounding.RoundingParams(
        boost=args.boost, num_samples=args.samples, rng_seed=args.seed
    )
    out = rounding.best_of_three(augmented, solution, params, threads=args.threads)
    doc = report.make_report("round", augmented, _config_section(args))
    doc["lp"] = _lp_section(instance, solution)
    report.add_method(doc, "discounted", dataset=augmented,
                      reserves=out.discounted, revenue=out.discounted_revenue)
    report.add_method(doc, "inflated", dataset=augmented,
                      reserves=out.inflated, revenue=out.inflated_revenue)
    report.add_method(doc, "zero", dataset=augmented,
                      reserves=out.zero, revenue=out.zero_revenue)
    report.add_method(doc, "chosen", dataset=augmented,
                      reserves=out.chosen_vector, revenue=out.chosen_revenue,
                      extra={"source": out.chosen})
    if args.vector_out:
        datasets.save_reserves(augmented, out.chosen_vector, args.vector_out)
    _attach_timings(args, doc, started)
    _write_output(report.render(doc, args.format), args.out)
    return EXIT_OK


def cmd_bench(args) -> int:
    started = time.perf_counter()
    augmented, grid = _load(args)
    doc = report.make_report("bench", augmented, _config_section(args))
    evaluator = batch_evaluator(augmented)

    solution = None
    try:
        instance, solution = _solve(args, augmented, grid)
        doc["lp"] = _lp_section(instance, solution)
    except SizeGuardError as exc:
        doc["lp_skipped"] = str(exc)

    zero = zero_reserves(augmented)
    report.add_method(doc, "zero", dataset=augmented, reserves=zero,
                      revenue=revenue(augmented, zero))

    greedy_vec, greedy_rev = baselines.greedy_reserves(augmented, grid)
    report.add_method(doc, "greedy", dataset=augmented,
                      reserves=greedy_vec, revenue=greedy_rev)

    try:
        brute_vec, brute_rev = baselines.brute_force_opt(
            augmented, grid, max_evals=args.brute_cap
        )
        report.add_method(doc, "brute_force", dataset=augmented,
                          reserves=brute_vec, revenue=brute_rev)
    except SizeGuardError as exc:
        doc["methods"]["brute_force"] = {"skipped": str(exc)}

    if solution is not None:
        params = rounding.RoundingParams(
            boost=args.boost, num_samples=args.samples, rng_seed=args.seed
        )
        out = rounding.best_of_three(augmented, solution, params, threads=args.threads)
        report.add_method(doc, "best_of_three", dataset=augmented,
                          reserves=out.chosen_vector, revenue=out.chosen_revenue,
                          extra={
                              "source": out.chosen,
                              "discounted_revenue": datasets.format_money(
                                  out.discounted_revenue, augmented.scale),
                              "inflated_revenue": datasets.format_money(
                                  out.inflated_revenue, augmented.scale),
                              "zero_revenue": datasets.format_money(
                                  out.zero_revenue, augmented.scale),
                          })
        draws = rounding.simple_rounding_matrix(
            augmented, solution.x_masses, grid, args.seed, args.samples
        )
        revs = evaluator.revenues(draws)
        report.add_method(doc, "simple_rounding", dataset=augmented,
                          reserves=tuple(int(v) for v in draws[0]),
                          revenue=int(revs[0]),
                          extra={"mean_revenue": float(revs.mean()),
                                 "draws": int(len(revs))})
    _attach_timings(args, doc, started)
    _write_output(report.render(doc, args.format), args.out)
    return EXIT_OK


def _format_table_text(computed: dict) -> str:
    lines = []
    xs = bounds.TABLE1_X_COLUMNS
    lines.append("table 1: overflow-probability lower bounds (rows y, columns x)")
    header = "  y\\x   " + "".join(f"{x:>8}" for x in xs)
    lines.append(header)
    rows: dict = {}
    for row in computed["table1"]:
        rows.setdefault(row["y"], {})[row["x"]] = row["value"]
    for y in sorted(rows):
        cells = "".join(
            f"{rows[y][x]:>8.3f}" if rows[y][x] is not None else f"{'-':>8}"
            for x in xs
        )
        lines.append(f"  {y:<6}" + cells)
    lines.append("")
    lines.append("table 2: min-fill lower bounds 1-(1+a)e^(-2a)")
    lines.append("  alpha  " + "".join(f"{r['alpha']:>8}" for r in computed["table2"]))
    lines.append("  value  " + "".join(f"{r['value']:>8.3f}" for r in computed["table2"]))
    lines.append("")
    lines.append("table 3: combined lower bounds")
    lines.append("  y      " + "".join(f"{r['y']:>8}" for r in computed["table3"]))
    lines.append("  value  " + "".join(f"{r['value']:>8.3f}" for r in computed["table3"]))
    return "\n".join(lines) + "\n"


def load_snapshot() -> dict:
    with resources.files("evcg_reserves.data").joinpath("tables_snapshot.json").open() as fh:
        return json.load(fh)


def cmd_tables(args) -> int:
    computed = bounds.build_snapshot()
    problems = bounds.compare_snapshot(computed, load_snapshot(), tol=args.tol)
    if args.format == "text":
        text = _format_table_text(computed)
        text += "snapshot: " + ("match" if not problems else "MISMATCH") + "\n"
        for p in problems:
            text += f"  {p}\n"
    else:
        doc = {
            "command": "tables",
            "tables": computed,
            "snapshot": {"status": "match" if not problems else "mismatch",
                         "problems": problems},
        }
        text = (json.dumps(doc, indent=2, sort_keys=True) + "\n"
                if args.format == "json" else report.to_csv(doc))
    _write_output(text, args.out)
    return EXIT_SNAPSHOT_MISMATCH if problems else EXIT_OK


def cmd_verify(args) -> int:
    doc = json.loads(Path(args.report).read_text())
    dataset_path = args.dataset or doc.get("config", {}).get("dataset")
    if not dataset_path:
        raise ValueError("report carries no dataset path; pass --dataset")
    augmented = add_auxiliary_buyers(datasets.load_dataset(dataset_path))
    scale = augmented.scale
    if doc.get("dataset", {}).get("scale", scale) != scale:
        raise ValueError("report scale does not match the dataset")
    mismatches = []
    checked = 0
    n_aux = augmented.num_items + 1
    for name in sorted(doc.get("methods", {})):
        entry = doc["methods"][name]
        if "reserves" not in entry or "revenue" not in entry:
            continue
        reserves = tuple(
            datasets.parse_money(r, scale) for r in entry["reserves"]
        ) + (0,) * n_aux
        recomputed = datasets.format_money(revenue(augmented, reserves), scale)
        checked += 1
        if recomputed != entry["revenue"]:
            mismatches.append(
                f"{name}: reported {entry['revenue']}, recomputed {recomputed}"
            )
    out_doc = {
        "command": "verify",
        "report": args.report,
        "methods_checked": checked,
        "status": "match" if not mismatches else "mismatch",
        "mismatches": mismatches,
    }
    _write_output(json.dumps(out_doc, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK if not mismatches else EXIT_VALIDATION


def cmd_probe(args) -> int:
    started = time.perf_counter()
    augmented, grid = _load(args)
    instance, solution = _solve(args, augmented, grid)
    doc = report.make_report("probe", augmented, _config_section(args))
    doc["lp"] = _lp_section(instance, solution)
    rows = []
    for a in range(augmented.num_auctions):
        kth = kth_plus_one_bid(augmented, a)
        for tau in probes.payment_thresholds(solution):
            ctx = probes.make_probe_context(solution, a, tau, boost=args.boost)
            phi = probes.probe_phi(ctx, num_samples=args.samples, seed=args.seed)
            f_value, delta = probes.probe_F_delta(ctx)
            part = probes.subprofile_partition(ctx)
            rows.append({
                "auction": a,
                "tau": datasets.format_money(tau, augmented.scale),
                "regime": "above" if tau > kth else "below",
                "phi": phi.value,
                "phi_stderr": phi.stderr,
                "mass_above": phi.mass_above,
                "f_value": f_value,
                "delta": delta,
                "t_mass": part.t_mass,
                "j_plus_mass": part.j_plus_mass,
                "j_minus_mass": part.j_minus_mass,
                "l_mass": part.l_mass,
            })
    doc["probe_rows"] = rows
    doc["phi_bound_below_regime"] = 0.58 * augmented.num_items
    _attach_timings(args, doc, started)
    _write_output(report.render(doc, args.format), args.out)
    return EXIT_OK


def _config_section(args) -> dict:
    # threads is an execution detail: reports must be byte-identical across
    # worker counts, so it stays out of the canonical payload
    keys = ("dataset", "boost", "samples", "seed",
            "max_subprofiles", "tol_feas", "brute_cap", "per_buyer_grid")
    return {k: getattr(args, k) for k in keys if hasattr(args, k)}


def _attach_timings(args, doc: dict, started: float) -> None:
    if getattr(args, "timings", False):
        doc["timings"] = {"total_seconds": time.perf_counter() - started}


def _add_common(p: argparse.ArgumentParser, *, needs_dataset: bool = True) -> None:
    if needs_dataset:
        p.add_argument("--dataset", required=True, help="dataset JSON file")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("text", "json", "csv"), default="json")
    p.add_argument("--boost", type=float, default=0.55)
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--max-subprofiles", type=int, default=lp_model.DEFAULT_MAX_SUBPROFILES)
    p.add_argument("--tol-feas", type=float, default=1e-7)
    p.add_argument("--brute-cap", type=int, default=baselines.DEFAULT_BRUTE_CAP)
    p.add_argument("--per-buyer-grid", action="store_true",
                   help="restrict each buyer's reserve support to their own bids plus 0")
    p.add_argument("--timings", action="store_true",
                   help="append wall-clock timings to the report (breaks byte determinism)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evcg-reserves",
        description="Personalized reserve prices for multi-unit eager VCG auctions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a dataset file")
    p.add_argument("kind", choices=("bad-example", "random", "correlated"))
    p.add_argument("--k", type=int, default=2, help="items (bad-example)")
    p.add_argument("--delta", type=float, default=0.025)
    p.add_argument("--fractional-out", help="also write the hand-crafted fractional point")
    p.add_argument("--buyers", type=int, default=3)
    p.add_argument("--auctions", type=int, default=3)
    p.add_argument("--items", type=int, default=1)
    p.add_argument("--max-bid", type=int, default=9)
    p.add_argument("--max-weight", type=int, default=1)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--scale", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="build and solve the LP bound")
    _add_common(p)
    p.add_argument("--lp-dump", help="write the LP in text interchange format")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("round", help="solve, then best-of-three rounding")
    _add_common(p)
    p.add_argument("--vector-out", help="write the chosen reserve vector")
    p.set_defaults(func=cmd_round)

    p = sub.add_parser("bench", help="run all methods on one dataset")
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("tables", help="regenerate bound tables and diff the snapshot")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--tol", type=float, default=0.005)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("verify", help="recompute a report's revenues from its artifacts")
    p.add_argument("--report", required=True)
    p.add_argument("--dataset", help="override the dataset path stored in the report")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("probe", help="per-auction threshold diagnostics of the LP solution")
    _add_common(p)
    p.set_defaults(func=cmd_probe)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return EXIT_SIZE_GUARD
    except (ValueError, LpSolveError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
