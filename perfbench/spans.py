"""In-memory spans around the entry points of each ``evcg_reserves`` module.

The wrappers are installed by attribute (on a module, or on the batch
evaluator class) for one traced operation and removed right after it, so the
program's own code is never edited and untraced operations run without them.
A span records its name, start, end, parent span and operation id; wrappers
that know how much work a call did also attach counts to their span.

A layer's self time is its spans' duration minus the time their child spans
cover. The operation itself is the root span ``cli.bench``.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

ROOT = "cli.bench"

# counts summed per operation; s_nonzero / s_columns only feed a ratio
COUNTS = (
    "lp_solver.iterations", "lp_model.subprofiles", "lp_model.vars",
    "lp_model.rows", "lp_model.nnz", "auction.eval_rows",
    "baselines.brute_evals", "rounding.draws",
)


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _linprog_counts(res, parent):
    return {"lp_solver.iterations": int(getattr(res, "nit", 0) or 0)}


def _build_counts(inst, parent):
    return {
        "lp_model.vars": inst.num_vars,
        "lp_model.rows": inst.A_eq.shape[0] + inst.A_le.shape[0],
        "lp_model.nnz": inst.A_eq.nnz + inst.A_le.nnz,
    }


def _solve_lp_counts(sol, parent):
    return {
        "s_nonzero": sum(int((s > 1e-9).sum()) for s in sol.s),
        "s_columns": sum(len(s) for s in sol.s),
    }


def _revenues_counts(revs, parent):
    counts = {"auction.eval_rows": len(revs)}
    if parent == "baselines.brute_force_opt":
        counts["baselines.brute_evals"] = len(revs)
    return counts


def _draw_counts(out, parent):
    return {"rounding.draws": len(out)}


def _subprofile_counts(out, parent):
    return {"lp_model.subprofiles": len(out)}


# (owner, attribute, span name, self-time metric, counter) of every wrapped
# callable. The owner is a module of the program, or the batch evaluator
# class; ``cli`` owns the names it imports from ``auction``. Every span has a
# metric, so the per-layer self times of an operation add up to its duration.
# The ``baselines`` and ``rounding`` entries are the functions ``bench`` reaches.
TARGETS = [
    ("datasets", "load_dataset", "datasets.load_dataset", "datasets.load_s", None),
    ("cli", "add_auxiliary_buyers", "auction.add_auxiliary_buyers", "auction.augment_s",
     None),
    ("cli", "revenue", "auction.revenue", "auction.scalar_s", None),
    ("evaluator", "revenues", "auction.revenues", "auction.eval_s", _revenues_counts),
    ("lp_model", "enumerate_subprofiles", "lp_model.enumerate_subprofiles",
     "lp_model.enumerate_s", _subprofile_counts),
    ("lp_model", "build_lp", "lp_model.build_lp", "lp_model.assemble_s", _build_counts),
    ("lp_model", "solve_lp", "lp_model.solve_lp", "lp_model.verify_s", _solve_lp_counts),
    ("lp_solver", "solve", "lp_solver.solve", "lp_solver.check_s", None),
    ("lp_solver", "linprog", "lp_solver.linprog", "lp_solver.highs_s", _linprog_counts),
    ("baselines", "greedy_reserves", "baselines.greedy_reserves", "baselines.greedy_s",
     None),
    ("baselines", "brute_force_opt", "baselines.brute_force_opt", "baselines.brute_s",
     None),
    ("rounding", "split_distributions", "rounding.split_distributions",
     "rounding.split_s", None),
    ("rounding", "sample_matrix", "rounding.sample_matrix", "rounding.sample_s",
     _draw_counts),
    # their own time: mass matrices, evaluator construction, zero reserves, argmax
    ("rounding", "best_of_three", "rounding.best_of_three", "rounding.rest_s", None),
    ("rounding", "simple_rounding_matrix", "rounding.simple_rounding_matrix",
     "rounding.rest_s", None),
    ("rounding", "masses_matrix", "rounding.masses_matrix", "rounding.rest_s", None),
    ("report", "render", "report.render", "report.render_s", None),
]

# span name -> per-layer metric that sums the span's self time
SELF_TIME = {name: metric for _, _, name, metric, _ in TARGETS} | {ROOT: "cli.self_s"}


class Tracer:
    """Collects spans of traced operations; one instance per benchmark run."""

    def __init__(self, program):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        owners = vars(program) | {"evaluator": program.auction._BatchEvaluator}
        self._targets = [(owners[owner], attr, name, counter)
                         for owner, attr, name, _, counter in TARGETS]

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self._op, parent, time.perf_counter())
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                parent_name = self.spans[parent].name if parent is not None else None
                span.counts = counter(out, parent_name)
            return out
        return wrapper

    @contextmanager
    def operation(self, op: int):
        """Install the wrappers, open the root span, and remove them afterwards."""
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in self._targets]
        for (owner, attr, name, counter), (_, _, fn) in zip(self._targets, saved):
            setattr(owner, attr, self._wrap(fn, name, counter))
        self._op = op
        root = Span(ROOT, op, None, 0.0)
        self.spans.append(root)
        self._stack = [len(self.spans) - 1]
        try:
            root.start = time.perf_counter()
            yield
        finally:
            root.end = time.perf_counter()
            self._stack = []
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def per_op(self) -> dict[int, dict[str, float]]:
        """Self times and counts of every traced operation, keyed by op id."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        ops: dict[int, dict[str, float]] = {}
        for i, span in enumerate(self.spans):
            row = ops.setdefault(span.op, dict.fromkeys(
                list(SELF_TIME.values()) + list(COUNTS) + ["s_nonzero", "s_columns"], 0))
            row[SELF_TIME[span.name]] += span.end - span.start - child_time[i]
            for key, value in span.counts.items():
                row[key] += value
        return ops

    def layer_metrics(self) -> dict[str, float]:
        """Per-operation medians of self times and counts, plus two ratios."""
        ops = list(self.per_op().values())
        out = {m: statistics.median(op[m] for op in ops)
               for m in list(SELF_TIME.values()) + list(COUNTS)}
        out["lp_model.s_nonzero_frac"] = statistics.median(
            op["s_nonzero"] / op["s_columns"] if op["s_columns"] else 0.0 for op in ops)
        eval_s = sum(op["auction.eval_s"] for op in ops)
        out["auction.rows_per_s"] = (
            sum(op["auction.eval_rows"] for op in ops) / eval_s if eval_s else 0.0)
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": s.name, "op": s.op, "parent": s.parent,
             "start": s.start, "end": s.end, **({"counts": s.counts} if s.counts else {})}
            for s in self.spans
        ]
