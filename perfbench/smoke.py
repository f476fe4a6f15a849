#!/usr/bin/env python3
"""Smoke check of the benchmark itself: one operation per workload, untraced and traced.

    python3 perfbench/smoke.py

Checks that each run exits 0, that its last line has exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, that no operation
failed, and that the metric names are the ``end_to_end`` (untraced) or
``per_layer`` (traced) names of ``BENCHMARK.json``. Exits 1 on any problem.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            expected = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", "0", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            label = f"{workload} trace={trace}"
            before = len(problems)
            result = (json.loads(proc.stdout.strip().splitlines()[-1])
                      if proc.returncode == 0 else None)
            if result is None:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            elif set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            elif not result["correct"] or result["failed"] or result["attempted"] != 1 + trace:
                problems.append(f"{label}: {result['attempted']} attempted, "
                                f"{result['failed']} failed: {proc.stderr.strip()[-500:]}")
            elif set(result["metrics"]) != expected:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(result['metrics']) ^ expected)}")
            print(f"{label}: {'ok' if len(problems) == before else 'FAIL'}", flush=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
