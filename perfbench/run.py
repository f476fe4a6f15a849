#!/usr/bin/env python3
"""Closed-loop benchmark of the ``evcg-reserves bench`` pipeline.

One operation is one in-process call of
``evcg_reserves.cli.main(["bench", "--dataset", F, "--seed", S, "--threads",
"1", "--format", "json", "--out", R])`` with every other flag at its default,
issued by a single client: the next operation starts when the previous one
returns. Each operation's output is checked untimed (exit code, the ``verify``
subcommand on the written report, LP >= every method, LP >= brute force >=
every other method). See ``perfbench/README.md`` for the design.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload lp-many-auctions --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 0`` reports
the end-to-end metrics and ``--trace 1`` the per-layer ones. A record of the
run (environment, per-operation exact counts and report digests, and spans
when traced) is written to ``.perfbench-runs/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(".perfbench-runs")  # relative to ROOT, so reports carry no absolute path
SETUP_PROBES = 5
REL_TOL = 1e-9

# Each workload repeats one fixed instance; the workload seed sets the
# rounding draws (``bench --seed``). Random 15x30 instances range from 3 s to
# 8 s per solve, so instances drawn from the seed would make the median of a
# run's few operations measure which instances were drawn, not the code.
WORKLOADS = {
    "lp-many-auctions": lambda ds, bl: ds.random_dataset(15, 30, 2, 0, max_bid=9, max_weight=1),
    "lp-worstcase-k20": lambda ds, bl: bl.bad_example(bl.BadExampleSpec(k=20), augmented=False),
    "brute-eval": lambda ds, bl: ds.random_dataset(6, 40, 2, 0, max_bid=9, max_weight=5),
}


def import_program():
    """Import ``evcg_reserves`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "evcg_reserves" / "cli.py").is_file():
        raise SystemExit(f"error: no program source under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import evcg_reserves
    from evcg_reserves import (auction, baselines, cli, datasets, lp_model, lp_solver,
                               report, rounding)

    if Path(evcg_reserves.__file__).resolve().parent != (src / "evcg_reserves").resolve():
        raise SystemExit(f"error: evcg_reserves imported from {evcg_reserves.__file__}")
    return SimpleNamespace(auction=auction, baselines=baselines, cli=cli,
                           datasets=datasets, lp_model=lp_model, lp_solver=lp_solver,
                           report=report, rounding=rounding)


def setup(workload: str, work: Path):
    """Imports and the run's dataset file: all a fresh process does before its
    first operation. ``setup_s`` times it in child processes."""
    program = import_program()
    ds = program.datasets
    work.mkdir(parents=True, exist_ok=True)
    path = work / "dataset.json"
    ds.save_dataset(WORKLOADS[workload](ds, program.baselines), path)
    return program, path


def bench(program, dataset: Path, seed: int, out: Path) -> int:
    return program.cli.main(["bench", "--dataset", str(dataset), "--seed", str(seed),
                             "--threads", "1", "--format", "json", "--out", str(out)])


def probe_setup(args, work: Path, i: int) -> float:
    """Wall time from spawning a fresh process to its readiness for an operation."""
    probe_dir = work.with_name(work.name + f"-probe{i}")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe", str(probe_dir)]
    started = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    shutil.rmtree(probe_dir, ignore_errors=True)
    if proc.returncode != 0 or line.strip() != "ready":
        raise SystemExit(f"error: set-up probe exited with {proc.returncode}")
    return elapsed


def check_report(program, report_path: Path, verify_path: Path) -> tuple[list[str], dict]:
    """Output checks of one operation; returns problems and the exact facts."""
    problems = []
    data = report_path.read_bytes()
    doc = json.loads(data)
    methods = doc["methods"]
    scale = doc["dataset"]["scale"]
    revenue = {name: program.datasets.parse_money(entry["revenue"], scale)
               for name, entry in methods.items() if "revenue" in entry}
    facts = {"report_sha256": hashlib.sha256(data).hexdigest(),
             "brute_force": "brute_force" in revenue}
    if "lp" not in doc:
        return [f"LP skipped: {doc.get('lp_skipped')}"], facts
    lp = doc["lp"]
    facts.update(vars=lp["variables"], rows=lp["equality_rows"] + lp["inequality_rows"],
                 iterations=lp["iterations"])
    bound = lp["objective"] + REL_TOL * max(1.0, abs(lp["objective"]))
    for name, rev in sorted(revenue.items()):
        if rev > bound:
            problems.append(f"{name} revenue {rev} exceeds the LP objective {lp['objective']}")
    for name in ("zero", "greedy", "best_of_three", "simple_rounding"):
        if name not in revenue:
            problems.append(f"method {name} missing from the report")
    if "brute_force" in revenue:
        others = max((v for k, v in revenue.items() if k != "brute_force"), default=0)
        if revenue["brute_force"] < max(others, 0):
            problems.append(f"brute force {revenue['brute_force']} below another method {others}")
    if "best_of_three" in revenue and lp["objective"] > 0:
        facts["revenue_vs_lp"] = revenue["best_of_three"] / lp["objective"]
    rc = program.cli.main(["verify", "--report", str(report_path), "--out", str(verify_path)])
    status = json.loads(verify_path.read_text())["status"] if verify_path.exists() else None
    if rc != 0 or status != "match":
        problems.append(f"verify returned {rc} with status {status}")
    return problems, facts


def run_op(program, tracer, op: int, dataset: Path, seed: int, work: Path) -> dict:
    out, verify = work / f"op{op}.report.json", work / f"op{op}.verify.json"
    for path in (out, verify):
        path.unlink(missing_ok=True)
    record = {"op": op, "seed": seed, "traced": tracer is not None}
    started, cpu = time.perf_counter(), time.process_time()
    try:
        try:
            with tracer.operation(op) if tracer is not None else contextlib.nullcontext():
                rc = bench(program, dataset, seed, out)
        finally:
            record["seconds"] = time.perf_counter() - started
            record["cpu_seconds"] = time.process_time() - cpu
        record["problems"] = [] if rc == 0 else [f"bench exited with {rc}"]
        if out.exists():
            problems, facts = check_report(program, out, verify)
            record["problems"] += problems
            record.update(facts)
        elif rc == 0:
            record["problems"].append("no report written")
    except Exception:  # one failed operation must not end the run
        traceback.print_exc()
        record["problems"] = ["exception: " + traceback.format_exc(limit=1).strip()]
    return record


def unit_of(layer_metric: str) -> str:
    if layer_metric == "auction.rows_per_s":
        return "rows/s"
    if layer_metric.endswith("_s"):
        return "s"
    return "frac" if layer_metric.endswith("_frac") else "count"


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "loadavg_start": os.getloadavg()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    work = OUT_DIR / "work" / f"{args.workload}-{args.seed}"

    if args.setup_probe:
        setup(args.workload, Path(args.setup_probe))
        print("ready", flush=True)
        return 0

    program, dataset = setup(args.workload, work)
    env = environment()
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer(program)

    # Set-up is an end-to-end metric, so only the untraced run measures it.
    # The machine's speed drifts over tens of seconds; probes taken between
    # steps sample the same stretch of time as the operations do.
    setup_times: list[float] = []
    n_probes = 0 if args.trace else SETUP_PROBES
    records: list[dict] = []
    steps: list[float] = []  # one operation, or an untraced/traced pair
    while True:
        if len(setup_times) < n_probes:
            setup_times.append(probe_setup(args, work, len(setup_times)))
        step_start = time.perf_counter()
        seed = args.seed * 1000 + len(steps)
        records.append(run_op(program, None, len(records), dataset, seed, work))
        if tracer is not None:
            traced = run_op(program, tracer, len(records), dataset, seed, work)
            if traced.get("report_sha256") != records[-1].get("report_sha256"):
                traced["problems"].append("traced report differs from the untraced one")
            records.append(traced)
        steps.append(time.perf_counter() - step_start)
        # start only a step that is expected to end within the run
        if sum(steps) + max(steps) > args.seconds:
            break
    while len(setup_times) < n_probes:
        setup_times.append(probe_setup(args, work, len(setup_times)))
    env["loadavg_end"] = os.getloadavg()

    failed = sum(1 for r in records if r["problems"])
    for r in records:
        for problem in r["problems"]:
            print(f"op {r['op']}: {problem}", file=sys.stderr)
    plain = [r["seconds"] for r in records if not r["traced"]]
    if tracer is None:
        ratios = [r["revenue_vs_lp"] for r in records if "revenue_vs_lp" in r]
        values = {
            "setup_s": (statistics.median(setup_times), "s"),
            "bench_s.p50": (statistics.median(plain), "s"),
            "ops_per_s": (len(plain) / sum(plain), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_frac": ((len(records) - failed) / len(records), "frac"),
            "revenue_vs_lp": (statistics.fmean(ratios) if ratios else 0.0, "frac"),
        }
    else:
        per_op = tracer.per_op()
        for r in records:
            if r["traced"]:
                r.update({k: per_op[r["op"]][k] for k in (
                    "lp_model.nnz", "lp_model.subprofiles", "auction.eval_rows",
                    "baselines.brute_evals")})
        traced = [r["seconds"] for r in records if r["traced"]]
        values = {name: (value, unit_of(name)) for name, value in tracer.layer_metrics().items()}
        values["trace_overhead_frac"] = (
            statistics.median(traced) / statistics.median(plain) - 1.0, "frac")

    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "setup_s": setup_times, "steps_s": steps, "ops": records,
              "result": result}
    if tracer is not None:
        record["spans"] = tracer.dump()
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
