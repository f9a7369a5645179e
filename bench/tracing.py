"""Span tracing of the calls the planner makes between its own modules.

The tracer swaps the module attributes listed in ``TRACED`` for timing
wrappers while a traced request runs, and puts the originals back after it.
Every wrapper records one span: the function, its parent span, start and end
on ``time.perf_counter``, and the request it belongs to, plus a few counts
read from the call's arguments and return value. Spans stay in memory until
the run writes them out.

The names are the ones each module looks up at call time: ``bhca.cli`` binds
the library functions at import, ``bhca.baseline`` binds ``solve_milp``, and
``bhca.solver`` binds ``solve_dense``, so wrapping those bindings sees every
call the product makes without touching ``src/``. The home-module names at
the end serve the benchmark's own library calls.
"""
from __future__ import annotations

import importlib
import statistics
import time
from dataclasses import dataclass, field

TRACED = (
    ("bhca.cli", "run"),
    ("bhca.cli", "generate_scenario"),
    ("bhca.cli", "adjacency_pairs"),
    ("bhca.cli", "compute_rate_table"),
    ("bhca.cli", "build_model"),
    ("bhca.cli", "export_lp"),
    ("bhca.cli", "solve_milp"),
    ("bhca.cli", "validate_solution"),
    ("bhca.cli", "decode_plan"),
    ("bhca.baseline", "solve_bh"),
    ("bhca.baseline", "build_bh_model"),
    ("bhca.baseline", "solve_milp"),
    ("bhca.metrics", "build_report"),
    ("bhca.metrics", "report_json"),
    ("bhca.metrics", "report_csv"),
    ("bhca.solver", "solve_dense"),
    ("bhca.solver", "brute_force"),
    ("bhca.model", "validate_solution"),
    ("bhca.model", "build_model"),
    ("bhca.scenario", "generate_scenario"),
    ("bhca.scenario", "adjacency_pairs"),
    ("bhca.linkbudget", "compute_rate_table"),
    ("bhca.lp_format", "export_lp"),
)

# Self time of each traced function is summed into one per-layer metric.
SELF_METRIC = {
    "run": "cli.self_s",
    "generate_scenario": "scenario.generate_s",
    "adjacency_pairs": "scenario.adjacency_s",
    "compute_rate_table": "linkbudget.rate_table_s",
    "build_model": "model.build_s",
    "validate_solution": "model.validate_s",
    "decode_plan": "model.decode_s",
    "export_lp": "lp_format.export_s",
    "solve_milp": "solver.milp_self_s",
    "brute_force": "solver.oracle_self_s",
    "solve_dense": "simplex.solve_s",
    "solve_bh": "baseline.self_s",
    "build_bh_model": "baseline.build_s",
    "build_report": "metrics.report_s",
    "report_json": "metrics.report_s",
    "report_csv": "metrics.report_s",
}

ROOT = "request"


@dataclass
class Span:
    name: str
    parent: int | None
    request: int
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _counts(name: str, args, result) -> dict:
    """Counts read from the values a traced call takes and returns."""
    if name == "solve_dense":
        m, n = args[1].shape
        return {"rows": m, "cols": n, "iterations": result.iterations, "status": result.status}
    if name == "solve_milp":
        return {"nodes": result.nodes_explored, "gap": result.gap, "status": result.status}
    if name == "build_model":
        return {"rows": result.num_rows, "cols": result.num_cols}
    if name == "export_lp":
        return {"chars": len(result)}
    return {}


class Tracer:
    """Records spans for the requests run inside ``request()``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list = []
        self._request = 0

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, self._request))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.spans[idx].info = _counts(name, args, result)
            return result

        return traced

    def request(self, call):
        """Run ``call()`` as one traced request under a root span and
        return its result."""
        self._request += 1
        for module_name, attr in TRACED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(attr, original))
        try:
            idx = self._open(ROOT)
            try:
                result = call()
            finally:
                self._close(idx)
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)
        return result

    def to_json(self) -> list[dict]:
        return [
            {"id": i, "name": s.name, "parent": s.parent, "request": s.request,
             "start": s.start, "end": s.end, **s.info}
            for i, s in enumerate(self.spans)
        ]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def _under(spans: list[Span], idx: int, name: str) -> bool:
    parent = spans[idx].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span]) -> tuple[dict, list[dict]]:
    """Per-layer metrics of the traced requests in ``spans``.

    ``_s`` metrics and counts are means per request; ``_max`` metrics are
    the largest seen; ratios are taken over all traced requests together.
    Also returns, per request, its traced wall time and how much of it the
    named layers' self times cover (the rest is the benchmark's own glue).
    """
    own = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s.name == ROOT]
    n_req = len(roots)
    sums = {metric: 0.0 for metric in SELF_METRIC.values()}
    per_request = {spans[i].request: {"wall_s": spans[i].duration, "layers_s": 0.0} for i in roots}
    calls = iterations = infeasible = rows_max = cols_max = 0
    solve_time = update_flop = tableau_bytes_max = 0.0
    milp_calls = nodes = milp_lps = oracle_lps = 0
    gaps = []
    model_rows = model_cols = export_chars = 0
    largest_model: dict[int, tuple[int, int]] = {}
    for i, s in enumerate(spans):
        if s.name == ROOT:
            continue
        sums[SELF_METRIC[s.name]] += own[i]
        per_request[s.request]["layers_s"] += own[i]
        if s.name == "solve_dense":
            m, n = s.info["rows"], s.info["cols"]
            calls += 1
            iterations += s.info["iterations"]
            infeasible += s.info["status"] == "infeasible"
            solve_time += s.duration
            rows_max = max(rows_max, m)
            cols_max = max(cols_max, n)
            # The tableau holds m rows of n structurals plus at most one
            # slack and one artificial per row; each pricing pass updates it
            # with one rank-1 product (2 flops per entry).
            update_flop += s.info["iterations"] * 2.0 * m * (n + 2 * m)
            tableau_bytes_max = max(tableau_bytes_max, 8.0 * m * (n + 2 * m))
            if _under(spans, i, "solve_milp"):
                milp_lps += 1
            if _under(spans, i, "brute_force"):
                oracle_lps += 1
        elif s.name == "solve_milp":
            milp_calls += 1
            nodes += s.info["nodes"]
            if s.info["gap"] != float("inf"):
                gaps.append(s.info["gap"])
        elif s.name == "build_model":
            prev = largest_model.get(s.request, (0, 0))
            largest_model[s.request] = max(prev, (s.info["cols"], s.info["rows"]))
        elif s.name == "export_lp":
            export_chars += s.info["chars"]
    for cols, rows in largest_model.values():
        model_cols += cols
        model_rows += rows

    per = max(n_req, 1)
    out = {metric: total / per for metric, total in sums.items()}
    out.update({
        "simplex.us_per_iteration": 1e6 * solve_time / iterations if iterations else 0.0,
        "simplex.update_gflop": update_flop / 1e9 / per,
        "simplex.calls": calls / per,
        "simplex.iterations": iterations / per,
        "simplex.iterations_per_call": iterations / calls if calls else 0.0,
        "simplex.infeasible_frac": infeasible / calls if calls else 0.0,
        "simplex.rows_max": rows_max,
        "simplex.cols_max": cols_max,
        "simplex.tableau_mb_max": tableau_bytes_max / 1e6,
        "solver.milp_calls": milp_calls / per,
        "solver.nodes": nodes / per,
        "solver.lps_per_node": milp_lps / nodes if nodes else 0.0,
        "solver.gap_mean": statistics.fmean(gaps) if gaps else 0.0,
        "solver.oracle_lps": oracle_lps / per,
        "model.cols": model_cols / per,
        "model.rows": model_rows / per,
        "lp_format.export_mb": export_chars / 1e6 / per,
    })
    return out, list(per_request.values())
