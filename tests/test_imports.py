"""What the program imports: HiGHS's binding without ``scipy.optimize``, and
no scipy module a command does not call.  Each check that depends on import
order runs in a fresh interpreter."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy

import evcg_reserves
from evcg_reserves import lp_solver

SRC = Path(evcg_reserves.__file__).resolve().parents[1]


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter importing this checkout's ``src``;
    its last line of output is JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


PUBLIC_LINPROG = """
from scipy.optimize import linprog
res = linprog([-1.0, -2.0], A_ub=[[1.0, 1.0]], b_ub=[3.0], bounds=(0, None), method="highs")
solved = res.status == 0 and res.x.tolist() == [0.0, 3.0]
"""


def test_loader_first_then_scipy_optimize():
    """``lp_solver`` loads the binding alone; a later ``scipy.optimize``
    finds it registered, takes that object, and its ``linprog`` solves."""
    out = run_fresh(f"""
import json, sys
from evcg_reserves import lp_solver
alone = "scipy.optimize" not in sys.modules
{PUBLIC_LINPROG}
core = sys.modules["scipy.optimize._highspy._core"]
print(json.dumps({{"alone": alone, "solved": bool(solved),
                  "same": core is lp_solver._highs and lp_solver._Highs is core._Highs}}))
""")
    assert out == {"alone": True, "solved": True, "same": True}


def test_scipy_optimize_first_is_reused():
    out = run_fresh(f"""
import json, sys
{PUBLIC_LINPROG}
core = sys.modules["scipy.optimize._highspy._core"]
from evcg_reserves import lp_solver
print(json.dumps({{"solved": bool(solved), "same": lp_solver._highs is core}}))
""")
    assert out == {"solved": True, "same": True}


def test_missing_binding_names_scipy_version(tmp_path, monkeypatch):
    monkeypatch.delitem(sys.modules, lp_solver._HIGHS_MODULE)  # restored afterwards
    with pytest.raises(ImportError) as err:
        lp_solver._load_highs(str(tmp_path))
    assert f"scipy {scipy.__version__}" in str(err.value) and str(tmp_path) in str(err.value)
    assert lp_solver._HIGHS_MODULE not in sys.modules


def test_bench_imports_no_unused_scipy(tmp_path):
    """The modules ``perfbench/run.py`` imports, and one ``bench`` run, leave
    ``scipy.optimize``, ``scipy.integrate``, ``scipy.special``, ``scipy.sparse``
    and ``concurrent.futures`` unloaded; ``tables`` still loads what it needs."""
    out = run_fresh(f"""
import json, sys
import evcg_reserves
from evcg_reserves import (auction, baselines, cli, datasets, lp_model, lp_solver,
                           report, rounding)
datasets.save_dataset(datasets.random_dataset(4, 3, 1, 5), {str(tmp_path / "ds.json")!r})
rc = cli.main(["bench", "--dataset", {str(tmp_path / "ds.json")!r}, "--seed", "1",
               "--threads", "1", "--format", "json", "--out", {str(tmp_path / "r.json")!r}])
loaded = sorted(m for m in ("scipy.optimize", "scipy.integrate", "scipy.special", "scipy.sparse",
                            "concurrent.futures") if m in sys.modules)
tables = cli.main(["tables", "--out", {str(tmp_path / "tables.txt")!r}])
print(json.dumps({{"bench": rc, "loaded": loaded, "tables": tables}}))
""")
    assert out == {"bench": 0, "loaded": [], "tables": 0}
    assert "snapshot: match" in (tmp_path / "tables.txt").read_text()


UNUSED = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.special")


def test_commands_import_no_unused_scipy(tmp_path):
    """``solve --lp-dump``, ``round``, ``probe``, ``verify`` and each ``gen``
    kind leave ``scipy.sparse``, ``scipy.optimize``, ``scipy.integrate`` and
    ``scipy.special`` unloaded; ``tables`` then loads ``integrate`` and
    ``special``."""
    ds, report = str(tmp_path / "ds.json"), str(tmp_path / "report.json")
    lp = ["--dataset", ds, "--format", "json"]
    runs = [
        ["gen", "random", "--buyers", "4", "--auctions", "3", "--out", ds],
        ["gen", "correlated", "--out", str(tmp_path / "correlated.json")],
        ["gen", "bad-example", "--k", "3", "--out", str(tmp_path / "bad.json"),
         "--fractional-out", str(tmp_path / "fractional.json")],
        ["solve", *lp, "--out", str(tmp_path / "solve.json"),
         "--lp-dump", str(tmp_path / "dump.lp")],
        ["round", *lp, "--out", report, "--vector-out", str(tmp_path / "vector.json")],
        ["probe", *lp, "--out", str(tmp_path / "probe.json")],
        ["verify", "--report", report, "--out", str(tmp_path / "verify.json")],
    ]
    out = run_fresh(f"""
import json, sys
from evcg_reserves import cli
codes = [cli.main(argv) for argv in {runs!r}]
loaded = [m for m in {UNUSED!r} if m in sys.modules]
tables = cli.main(["tables", "--out", {str(tmp_path / "tables.txt")!r}])
needed = [m for m in ("scipy.integrate", "scipy.special") if m in sys.modules]
print(json.dumps({{"codes": codes, "loaded": loaded, "tables": tables, "needed": needed}}))
""")
    assert out == {"codes": [0] * len(runs), "loaded": [], "tables": 0,
                   "needed": ["scipy.integrate", "scipy.special"]}
    assert (tmp_path / "dump.lp").read_text().startswith("Maximize")


def test_src_never_imports_scipy_sparse():
    """No module of the package imports ``scipy.sparse``, at top level or inside a function."""
    for path in sorted(Path(evcg_reserves.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            assert not any(name == "scipy.sparse" or name.startswith("scipy.sparse.")
                           for name in names), (path.name, node.lineno)
