#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and agreement between two sets of runs.

    python3 perfbench/spread.py --set A --seeds 1 2 3 4 5 6 7 8 9 10
    python3 perfbench/spread.py --set B --seeds 1 2 3 4 5 6 7 8 9 10
    python3 perfbench/spread.py --compare A B

A set runs every workload of ``BENCHMARK.json`` once per seed with tracing
off, then prints each metric's median and its spread: the distance between
the first and third quartile (``statistics.quantiles``, n=4) as a share of the
median, against the metric's bound. It also makes one traced step (an
untraced and a traced operation) per seed, whose records hold the counts only
tracing sees. Records go to ``.perfbench-runs/sets/<name>/``.
``--compare`` checks that no median of the second set is worse than the
first's by more than the bound, and that every operation both sets ran has
identical exact counts and report digest.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".perfbench-runs"
EXACT = ("vars", "rows", "iterations", "report_sha256", "lp_model.nnz",
         "lp_model.subprofiles", "auction.eval_rows", "baselines.brute_evals")


def run(workload: str, seed: int, seconds: float, trace: int, out: Path) -> dict | None:
    """One benchmark run; its record is copied into ``out``."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr}",
              file=sys.stderr)
        return None
    record = f"{workload}-seed{seed}-trace{trace}.json"
    shutil.copy(RUNS / record, out / record)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: {result['attempted']} ops, "
          f"{result['failed']} failed", flush=True)
    return result


def run_set(spec: dict, name: str, seeds: list[int]) -> int:
    """Untraced runs per seed for the spread, then one traced step per seed,
    whose records carry the counts only tracing sees, for ``--compare``."""
    out = RUNS / "sets" / name
    out.mkdir(parents=True, exist_ok=True)
    summary: dict = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in seeds:
            result = run(workload, seed, spec["run_seconds"], 0, out)
            if result is None:
                return 1
            summary.setdefault(workload, []).append(
                {k: v["value"] for k, v in result["metrics"].items()}
                | {"attempted": result["attempted"], "failed": result["failed"]})
        for seed in seeds:
            if run(workload, seed, 0, 1, out) is None:
                return 1
        (out / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    worst = {}
    for workload, runs in summary.items():
        print(f"\n{workload} ({len(runs)} runs)")
        for metric in spec["end_to_end"]:
            values = [r[metric["name"]] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / median / metric["bound"]
            worst[metric["name"]] = max(worst.get(metric["name"], 0.0), share)
            print(f"  {metric['name']:<14} median {median:<12.6g} spread "
                  f"{share * metric['bound']:7.2%}  bound {metric['bound']:.0%}"
                  f"  ({share:.2f} of bound)")
    print("\nwidest spread, as a share of the bound: " + ", ".join(
        f"{name} {share:.2f}" for name, share in worst.items()))
    return 0


def compare(spec: dict, first: str, second: str) -> int:
    sets = [RUNS / "sets" / name for name in (first, second)]
    summaries = [json.loads((s / "summary.json").read_text()) for s in sets]
    problems = []
    for workload in sorted(set(summaries[0]) & set(summaries[1])):
        for metric in spec["end_to_end"]:
            m1, m2 = (statistics.median(r[metric["name"]] for r in s[workload])
                      for s in summaries)
            worse = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
            print(f"{workload:<18} {metric['name']:<14} {m1:<12.6g} {m2:<12.6g} "
                  f"worse by {worse:7.2%} (bound {metric['bound']:.0%})")
            if worse > metric["bound"]:
                problems.append(f"{workload} {metric['name']} worse by {worse:.2%}")
    compared = dict.fromkeys(EXACT, 0)
    for path in sorted(sets[0].glob("*-trace*.json")):
        other = sets[1] / path.name
        if not other.exists():
            continue
        ops = [json.loads(p.read_text())["ops"] for p in (path, other)]
        for a, b in zip(*ops):
            keys = [k for k in EXACT if k in a or k in b]
            for k in keys:
                compared[k] += 1
            diff = [k for k in keys if a.get(k) != b.get(k)]
            if diff:
                problems.append(f"{path.name} op {a['op']}: {diff} differ")
    print("operations compared exactly, per key: "
          + ", ".join(f"{k} {n}" for k, n in compared.items()))
    problems += [f"{k} compared on no operation" for k, n in compared.items() if not n]
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--set", help="name of the set of runs to make")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        return compare(spec, *args.compare)
    if not args.set:
        parser.error("give --set NAME or --compare FIRST SECOND")
    return run_set(spec, args.set, args.seeds)


if __name__ == "__main__":
    sys.exit(main())
