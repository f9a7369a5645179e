"""End-to-end experiment driver.

``bhca run`` generates a scenario, solves the joint scheme and/or the
conventional baseline, and writes a reproducible artifact set (scenario
snapshot, LP export, solver logs, decoded plans, metrics, comparison
summary, and a manifest with checksums of every emitted file). Identical
invocations produce byte-identical artifacts. The solver is single-threaded:
``--workers`` accepts only 1.

``bhca validate-config`` checks a configuration document and prints one
diagnostic per violated rule.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import sys
from dataclasses import dataclass, field
from importlib import resources

from . import baseline, metrics
from .linkbudget import ModcodTable, compute_rate_table
# ``validate_solution`` is not called here (``decode_plan`` and
# ``baseline.solve_bh`` audit the plans); the name stays bound because
# bench/tracing.py wraps it.
from .model import InfeasibleSolutionError, build_model, decode_plan, validate_solution  # noqa: F401
from .lp_format import export_lp
from .scenario import ConfigError, SystemConfig, adjacency_pairs, generate_scenario, load_config
from .solver import MilpSolution, SolverOptions, solve_milp

logger = logging.getLogger("bhca")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_LIMIT = 3
EXIT_SOLVER = 4

BUILTIN_CONFIGS = {
    "desk": "config_desk.json",
    "table2": "config_table2.json",
}

DEFAULT_NODE_LIMIT = 2000


def resolve_config_path(name_or_path: str) -> str:
    """Map builtin config names to their packaged files; pass paths through."""
    if name_or_path in BUILTIN_CONFIGS:
        ref = resources.files("bhca").joinpath("data").joinpath(BUILTIN_CONFIGS[name_or_path])
        return str(ref)
    return name_or_path


def _read_config(path: str) -> tuple[SystemConfig | None, list[str]]:
    """Read a config document; return it and its diagnostics (empty means
    valid). The config is ``None`` when the document cannot be read as one."""
    try:
        config = load_config(resolve_config_path(path))
    except OSError as exc:
        return None, [f"cannot read config: {exc}"]
    except UnicodeDecodeError as exc:
        return None, [f"config is not UTF-8 text: {exc.reason} at byte {exc.start}"]
    except json.JSONDecodeError as exc:
        return None, [f"config is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"]
    except ConfigError as exc:
        return None, [str(exc)]
    return config, config.validate()


def validate_config(path: str) -> list[str]:
    """Return diagnostics for a config document (empty means valid)."""
    return _read_config(path)[1]


@dataclass
class RunManifest:
    """Everything needed to reconstruct a run, plus artifact checksums."""

    config: str
    seed: int | None
    scheme: str
    out_dir: str
    node_limit: int = DEFAULT_NODE_LIMIT
    time_limit: float | None = None
    workers: int = 1   # the solver is single-threaded; only 1 is accepted
    export_lp: bool = False
    checksums: dict = field(default_factory=dict)

    def solver_options(self) -> SolverOptions:
        return SolverOptions(node_limit=self.node_limit, time_limit=self.time_limit)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _summary(report: metrics.MetricsReport, solution: MilpSolution) -> dict:
    return {
        "min_user_ratio": report.min_user_ratio,
        "min_cluster_ratio": report.min_cluster_ratio,
        "jain_user_system": metrics.json_number(report.jain_user_system),
        "jain_cluster_level": metrics.json_number(report.jain_cluster_level),
        "total_demand_bphw": report.total_demand_bphw,
        "total_supply_bphw": report.total_supply_bphw,
        "unused_bphw": report.unused_bphw,
        "total_demand_mbps": report.total_demand_mbps,
        "total_supply_mbps": report.total_supply_mbps,
        "unused_mbps": report.unused_mbps,
        "objective": solution.objective,
        "status": solution.status,
        "gap": solution.gap,
        "nodes_explored": solution.nodes_explored,
    }


def _solve(scheme: str, scenario, rates, pairs, opts: SolverOptions, export: bool, artifacts: dict):
    """Solve one scheme; return its plan, its MILP solution and its solver
    log lines. The joint scheme adds its LP export to ``artifacts`` when
    ``export`` is set."""
    log_lines: list[str] = []
    try:
        if scheme == "bhca":
            logger.info("building joint model")
            model = build_model(scenario, rates, pairs)
            if export:
                artifacts["model_bhca.lp"] = export_lp(model)
            logger.info("solving joint model (node limit %d)", opts.node_limit)
            solution = solve_milp(model, opts, log=log_lines.append)
            return decode_plan(model, solution, scenario), solution, log_lines
        logger.info("solving conventional baseline")
        plan = baseline.solve_bh(scenario, rates, pairs, opts, log=log_lines.append)
        return plan, plan.stage1, log_lines
    except InfeasibleSolutionError as exc:
        name = "joint" if scheme == "bhca" else scheme
        raise RuntimeError(f"{name} solution failed its audit: {exc.report}") from exc


def _prepare(manifest: RunManifest) -> tuple[SystemConfig | None, SolverOptions | None, list[str]]:
    """Check a run before it generates anything: return its seeded config,
    its solver options and the diagnostics that refuse it (empty if none)."""
    config, diags = _read_config(manifest.config)
    if diags:
        return None, None, diags
    if manifest.seed is not None:
        config = dataclasses.replace(config, rng_seed=manifest.seed)
        diags = config.validate()
        if diags:
            return None, None, diags
    if manifest.scheme not in ("bhca", "bh", "both"):
        return None, None, [f"unknown scheme {manifest.scheme!r}"]
    if manifest.workers != 1:
        return None, None, [f"workers must be 1, got {manifest.workers}"]
    try:
        opts = manifest.solver_options()
    except ValueError as exc:
        return None, None, [str(exc)]
    # The artifacts go to --out itself, or its nearest existing ancestor.
    path = os.path.abspath(manifest.out_dir)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        return None, None, [f"--out {manifest.out_dir}: {path} is not a directory"]
    return config, opts, []


def run(manifest: RunManifest) -> int:
    """Execute a full experiment; returns the process exit status."""
    config, opts, diags = _prepare(manifest)
    if diags:
        for d in diags:
            print(f"config error: {d}", file=sys.stderr)
        return EXIT_CONFIG

    logger.info("generating scenario (seed %d)", config.rng_seed)
    scenario = generate_scenario(config)
    modcod = ModcodTable.default()
    rates = compute_rate_table(scenario, modcod)
    pairs = adjacency_pairs(scenario)
    artifacts: dict[str, str] = {"scenario.json": scenario.snapshot_json()}
    statuses: dict[str, str] = {}
    reports: dict[str, metrics.MetricsReport] = {}
    summaries: dict[str, dict] = {}

    for scheme in ("bhca", "bh") if manifest.scheme == "both" else (manifest.scheme,):
        plan, solution, log_lines = _solve(scheme, scenario, rates, pairs, opts, manifest.export_lp, artifacts)
        statuses[scheme] = solution.status
        artifacts[f"solver_log_{scheme}.txt"] = "\n".join(log_lines) + "\n"
        artifacts[f"plan_{scheme}.json"] = _dump_json(plan.to_dict())
        report = metrics.build_report(plan, scenario)
        reports[scheme] = report
        summaries[scheme] = _summary(report, solution)
        artifacts[f"metrics_{scheme}.json"] = metrics.report_json(report)
        artifacts[f"metrics_{scheme}.csv"] = metrics.report_csv(report, scenario)

    if manifest.scheme == "both":
        artifacts["comparison.json"] = _dump_json({
            "bhca": summaries["bhca"],
            "bh": summaries["bh"],
        })
        lines = ["cluster,demand_bphw,supply_bhca_bphw,supply_bh_bphw,jain_user_bhca,jain_user_bh"]
        demand = scenario.demand_matrix()
        for cluster in scenario.clusters:
            l = cluster.id
            lines.append(",".join([
                str(l),
                repr(float(demand[l].sum())),
                repr(float(reports["bhca"].cluster_ratios[l] * demand[l].sum())),
                repr(float(reports["bh"].cluster_ratios[l] * demand[l].sum())),
                metrics.csv_number(reports["bhca"].jain_per_cluster[l]),
                metrics.csv_number(reports["bh"].jain_per_cluster[l]),
            ]))
        artifacts["comparison.csv"] = "\n".join(lines) + "\n"

    try:
        os.makedirs(manifest.out_dir, exist_ok=True)
        checksums = {}
        for name, payload in sorted(artifacts.items()):
            data = payload.encode()
            checksums[name] = hashlib.sha256(data).hexdigest()
            with open(os.path.join(manifest.out_dir, name), "wb") as fh:
                fh.write(data)
        manifest.checksums = checksums
        manifest_doc = {
            "config": manifest.config,
            "seed": config.rng_seed,
            "scheme": manifest.scheme,
            "solver": {
                "node_limit": manifest.node_limit,
                "time_limit": manifest.time_limit,
                "workers": manifest.workers,
            },
            "export_lp": manifest.export_lp,
            "statuses": statuses,
            "checksums": checksums,
        }
        with open(os.path.join(manifest.out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
            fh.write(_dump_json(manifest_doc))
    except OSError as exc:
        # --out passed the checks, yet a write failed (permissions, a full disk).
        print(f"config error: cannot write the artifacts: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    limited = any(s == "feasible" for s in statuses.values())
    logger.info("run complete: %s", statuses)
    return EXIT_LIMIT if limited else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bhca",
        description="Joint beam-hopping + carrier-aggregation planning experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="generate a scenario, solve, and emit artifacts")
    run_p.add_argument("--config", required=True,
                       help="config JSON path, or builtin name: desk, table2")
    run_p.add_argument("--seed", type=int, default=None, help="override the config rng_seed")
    run_p.add_argument("--scheme", choices=("bhca", "bh", "both"), default="both")
    run_p.add_argument("--out", required=True, help="output directory for artifacts")
    run_p.add_argument("--time-limit", type=float, default=None, help="solver seconds per scheme")
    run_p.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT)
    run_p.add_argument("--workers", type=int, default=1, help="solver threads; only 1 is supported")
    run_p.add_argument("--export-lp", action="store_true", help="emit the joint model in LP format")

    val_p = sub.add_parser("validate-config", help="check a config document")
    val_p.add_argument("--config", required=True)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("BHCA_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    if args.command == "validate-config":
        diags = validate_config(args.config)
        for d in diags:
            print(d)
        return EXIT_CONFIG if diags else EXIT_OK
    manifest = RunManifest(
        config=args.config,
        seed=args.seed,
        scheme=args.scheme,
        out_dir=args.out,
        node_limit=args.node_limit,
        time_limit=args.time_limit,
        workers=args.workers,
        export_lp=args.export_lp,
    )
    try:
        return run(manifest)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        # A numerical failure while solving (e.g. a simplex stall or a failed
        # plan audit); nothing has been written yet.
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
