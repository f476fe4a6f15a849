"""Golden sha256 digests of the program's reports, for a fixed set of runs.

Each entry of ``golden.json`` is one in-process ``cli.main`` run on one
instance: ``bench`` and ``round --threads 1`` at seeds 0 and 7, and
``probe --seed 0``, on the three perfbench workload instances and
``bad_example(2..6, 40)``, and the first two on the wide-bid instance; and
``solve --lp-dump`` (report and dump) on the three workloads. Runs use
relative file names inside a scratch directory, so no report carries a
machine's path. The file also records the numpy, scipy and HiGHS versions
the digests were written with, because a different LP solver or generator
may move a report's last digits.

Rewrite the digests, from the root of a source checkout, with

    PYTHONPATH=src python -m tests.golden --write
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy
import scipy

from evcg_reserves import baselines, cli, datasets, lp_solver

GOLDEN = Path(__file__).with_name("golden.json")

# the instances perfbench/run.py repeats, wide bids, then one-shot rounding's worst case
INSTANCES = {
    "lp-many-auctions": lambda: datasets.random_dataset(15, 30, 2, 0, max_bid=9, max_weight=1),
    "lp-worstcase-k20": lambda: baselines.bad_example(baselines.BadExampleSpec(k=20),
                                                      augmented=False),
    "brute-eval": lambda: datasets.random_dataset(6, 40, 2, 0, max_bid=9, max_weight=5),
    "wide-bid": lambda: datasets.random_dataset(12, 20, 3, 5, max_bid=200),
    **{f"bad-example-{k}": (lambda k=k: baselines.bad_example(baselines.BadExampleSpec(k=k),
                                                              augmented=False))
       for k in (2, 3, 4, 5, 6, 40)},
}
WORKLOADS = ("lp-many-auctions", "lp-worstcase-k20", "brute-eval")
# probe's seconds on wide bids (~3.5 s) would dominate the test
NO_PROBE = ("wide-bid",)


def versions() -> dict[str, str]:
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "highs": lp_solver._Highs().version()}


def runs() -> dict[str, list[str]]:
    """Run name -> argv; every run reads ``<instance>.json`` and writes ``out``."""
    out: dict[str, list[str]] = {}
    for name in INSTANCES:
        common = ["--dataset", f"{name}.json", "--format", "json", "--out", "out"]
        for seed in ("0", "7"):
            out[f"bench {name} seed {seed}"] = ["bench", *common, "--seed", seed]
            out[f"round {name} seed {seed}"] = ["round", *common, "--seed", seed,
                                                "--threads", "1"]
        if name not in NO_PROBE:
            out[f"probe {name} seed 0"] = ["probe", *common, "--seed", "0"]
    for name in WORKLOADS:
        out[f"solve {name}"] = ["solve", "--dataset", f"{name}.json", "--format", "json",
                                "--out", "out", "--lp-dump", "dump"]
    return out


@contextlib.contextmanager
def _inside(directory: str):
    previous = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def digests() -> dict[str, str]:
    """Run every entry of :func:`runs` and hash what it writes."""
    found: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as work, _inside(work):
        for name, make in INSTANCES.items():
            datasets.save_dataset(make(), f"{name}.json")
        for name, argv in runs().items():
            for path in ("out", "dump"):
                Path(path).unlink(missing_ok=True)
            code = cli.main(argv)
            if code != cli.EXIT_OK:
                raise RuntimeError(f"{name} exited {code}")
            found[name] = hashlib.sha256(Path("out").read_bytes()).hexdigest()
            if Path("dump").exists():
                found[f"{name} lp-dump"] = hashlib.sha256(Path("dump").read_bytes()).hexdigest()
    return found


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {GOLDEN.name}")
    if not parser.parse_args().write:
        parser.error("pass --write to rewrite the digests")
    doc = {"versions": versions(), "digests": digests()}
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
