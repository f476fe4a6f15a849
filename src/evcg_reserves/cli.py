"""Command-line front end.

Subcommands: gen {bad-example,random,correlated} | solve | round | bench |
tables | verify | probe.  Each subcommand, and each gen kind, accepts only
the flags it reads (see :func:`build_parser`); any other flag exits 2.
Exit codes: 0 success, 2 validation error, unverified LP solve or I/O error,
3 size-guard refusal or an allocation the machine refuses, 4 tables-snapshot
mismatch.  Reports are deterministic for a fixed seed; pass --timings to
append wall-clock phase durations (which naturally vary between runs) to the
written report.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
from importlib import resources
from pathlib import Path

from . import baselines, datasets, lp_model, probes, report, rounding
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
    instance = lp_model.build_lp(augmented, grid, max_subprofiles=args.max_subprofiles)
    solution = lp_model.solve_lp(instance, tol_feas=args.tol_feas)
    return instance, solution


def _lp_section(instance, solution) -> dict:
    counts = instance.constraint_counts
    return {
        "objective": solution.objective,
        "variables": instance.num_vars,
        "equality_rows": counts["supporter_link"] + counts["one_reserve_each"],
        "inequality_rows": (counts["reserve_consistency"] + counts["compatibility"]
                            + counts["per_auction_cap"]),
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
    # checked before the LP is solved, as in bench
    params = rounding.RoundingParams(
        boost=args.boost, num_samples=args.samples, rng_seed=args.seed
    )
    instance, solution = _solve(args, augmented, grid)
    out = rounding.best_of_three(augmented, solution, params)
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
    # checked up front, so bad rounding flags fail whether or not the LP runs
    params = rounding.RoundingParams(
        boost=args.boost, num_samples=args.samples, rng_seed=args.seed
    )

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
        out = rounding.best_of_three(augmented, solution, params)
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
    from . import bounds  # the only reader of scipy.integrate and scipy.special

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
    from . import bounds

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
        text = report.render(doc, args.format)  # no methods, so no ratios are added
    _write_output(text, args.out)
    return EXIT_SNAPSHOT_MISMATCH if problems else EXIT_OK


def cmd_verify(args) -> int:
    doc = json.loads(Path(args.report).read_text())
    if not isinstance(doc, dict):
        raise ValueError("report must be a JSON object")
    config = datasets.expect_object(doc.get("config", {}), "report field config")
    dataset_path = args.dataset or config.get("dataset")
    if not dataset_path:
        raise ValueError("report carries no dataset path; pass --dataset")
    if not isinstance(dataset_path, str):
        raise ValueError(f"report field config.dataset must be a path, not {dataset_path!r}")
    augmented = add_auxiliary_buyers(datasets.load_dataset(dataset_path))
    scale = augmented.scale
    section = datasets.expect_object(doc.get("dataset", {}), "report field dataset")
    if section.get("scale", scale) != scale:
        raise ValueError("report scale does not match the dataset")
    methods = datasets.expect_object(doc.get("methods", {}), "report field methods")
    mismatches = []
    checked = 0
    n_aux = augmented.num_items + 1
    for name in sorted(methods):
        field = f"report field methods.{name}"
        entry = datasets.expect_object(methods[name], field)
        if "reserves" not in entry or "revenue" not in entry:
            continue
        reserves = tuple(
            datasets.parse_money(str(r), scale)
            for r in datasets.expect_list(entry["reserves"], f"{field}.reserves")
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
    # checked before the LP is solved, as in bench
    rounding.RoundingParams(boost=args.boost)
    if args.samples < 2:
        raise ValueError("num_samples must be at least 2 for a standard error")
    instance, solution = _solve(args, augmented, grid)
    doc = report.make_report("probe", augmented, _config_section(args))
    doc["lp"] = _lp_section(instance, solution)
    rows = []
    taus = probes.payment_thresholds(solution)
    if taus:  # one split and one pair of draws serve every (auction, tau)
        first = probes.make_probe_context(solution, 0, taus[0], boost=args.boost)
        draws = rounding.sample_splits(first.splits, args.seed, args.samples)
    for a in range(augmented.num_auctions):
        kth = kth_plus_one_bid(augmented, a)
        for tau in taus:
            ctx = dataclasses.replace(first, auction_index=a, tau=tau)
            phi = probes.estimate_phi(ctx, draws)
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
    # --threads has no effect (README), so it stays out of the canonical payload
    keys = ("dataset", "boost", "samples", "seed",
            "max_subprofiles", "tol_feas", "brute_cap")
    return {k: getattr(args, k) for k in keys if hasattr(args, k)}


def _attach_timings(args, doc: dict, started: float) -> None:
    if args.timings:
        doc["timings"] = {"total_seconds": time.perf_counter() - started}


def _at_least(kind: type, low: int):
    """argparse type: a finite ``kind`` number no smaller than ``low``."""
    def parse(text: str):
        value = kind(text)
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(f"{text!r} is not a finite number >= {low}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid ... value"
    return parse


@functools.cache  # built once per process; parsing does not change it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evcg-reserves",
        description="Personalized reserve prices for multi-unit eager VCG auctions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flag groups; each command and gen kind takes exactly the groups it reads
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output path (default: stdout)")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=_at_least(int, 0), default=0)
    lp = argparse.ArgumentParser(add_help=False, parents=[out])
    lp.add_argument("--dataset", required=True, help="dataset JSON file")
    lp.add_argument("--format", choices=("text", "json", "csv"), default="json")
    lp.add_argument("--max-subprofiles", type=_at_least(int, 0),
                    default=lp_model.DEFAULT_MAX_SUBPROFILES)
    lp.add_argument("--tol-feas", type=_at_least(float, 0), default=1e-7)
    lp.add_argument("--timings", action="store_true",
                    help="append wall-clock timings to the report (breaks byte determinism)")
    draws = argparse.ArgumentParser(add_help=False, parents=[seed])
    draws.add_argument("--boost", type=float, default=0.55)
    draws.add_argument("--samples", type=int, default=64)
    threads = argparse.ArgumentParser(add_help=False)
    threads.add_argument("--threads", type=_at_least(int, 1), default=1)
    size = argparse.ArgumentParser(add_help=False, parents=[out, seed])
    size.add_argument("--buyers", type=_at_least(int, 1), default=3)
    size.add_argument("--auctions", type=int, default=3)
    size.add_argument("--items", type=int, default=1)
    size.add_argument("--scale", type=int, default=0)

    p = sub.add_parser("gen", help="generate a dataset file")
    p.set_defaults(func=cmd_gen)
    kinds = p.add_subparsers(dest="kind", required=True)
    p = kinds.add_parser("bad-example", parents=[out], help="one-shot rounding's worst case")
    p.add_argument("--k", type=int, default=2, help="items")
    p.add_argument("--delta", type=float, default=0.025)
    p.add_argument("--fractional-out",
                   help="also write the fractional point mixing the two benchmark vectors")
    p = kinds.add_parser("random", parents=[size], help="IID-uniform integer bids")
    p.add_argument("--max-bid", type=_at_least(int, 0), default=9)
    p.add_argument("--max-weight", type=_at_least(int, 1), default=1)
    p = kinds.add_parser("correlated", parents=[size], help="per-auction value x buyer factors")
    p.add_argument("--noise", type=_at_least(float, 0), default=0.0)

    p = sub.add_parser("solve", parents=[lp], help="build and solve the LP bound")
    p.add_argument("--lp-dump", help="write the LP in text interchange format")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("round", parents=[lp, draws, threads],
                       help="solve, then best-of-three rounding")
    p.add_argument("--vector-out", help="write the chosen reserve vector")
    p.set_defaults(func=cmd_round)

    p = sub.add_parser("bench", parents=[lp, draws, threads],
                       help="run all methods on one dataset")
    p.add_argument("--brute-cap", type=_at_least(int, 0), default=baselines.DEFAULT_BRUTE_CAP)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("tables", parents=[out],
                       help="regenerate bound tables and diff the snapshot")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--tol", type=_at_least(float, 0), default=0.005)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("verify", parents=[out],
                       help="recompute a report's revenues from its artifacts")
    p.add_argument("--report", required=True)
    p.add_argument("--dataset", help="override the dataset path stored in the report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("probe", parents=[lp, draws],
                       help="per-auction threshold diagnostics of the LP solution")
    p.set_defaults(func=cmd_probe)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SizeGuardError, MemoryError) as exc:  # MemoryError: numpy refused an allocation
        print(f"size guard: {exc}", file=sys.stderr)
        return EXIT_SIZE_GUARD
    except (ValueError, LpSolveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
