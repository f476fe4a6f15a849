"""The traced benchmark run wraps functions by name: every name must exist."""

import importlib.util
import sys
from pathlib import Path

import evcg_reserves
from evcg_reserves import auction, cli  # noqa: F401  (cli imports every module it wraps)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_span_targets_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    # the same owners the tracer installs its wrappers on
    owners = vars(evcg_reserves) | {"evaluator": auction._BatchEvaluator}
    missing = [
        (owner, attr) for owner, attr, *_ in spans.TARGETS
        if owner not in owners or attr not in vars(owners[owner])
    ]
    assert not missing, f"perfbench/spans.py wraps names the package lacks: {missing}"
