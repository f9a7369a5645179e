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
from .model import build_model, decode_plan, validate_solution
from .lp_format import export_lp
from .scenario import ConfigError, adjacency_pairs, generate_scenario, load_config
from .solver import SolverOptions, solve_milp

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


def validate_config(path: str) -> list[str]:
    """Return diagnostics for a config document (empty means valid)."""
    resolved = resolve_config_path(path)
    try:
        with open(resolved, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        return [f"cannot read config: {exc}"]
    except json.JSONDecodeError as exc:
        return [f"config is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"]
    if not isinstance(doc, dict):
        return ["config document must be a JSON object"]
    try:
        from .scenario import config_from_dict

        config = config_from_dict(doc)
    except ConfigError as exc:
        return [str(exc)]
    return config.validate()


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


def _summary(report: metrics.MetricsReport, extra: dict | None = None) -> dict:
    doc = {
        "min_user_ratio": report.min_user_ratio,
        "min_cluster_ratio": report.min_cluster_ratio,
        "jain_user_system": report.jain_user_system,
        "jain_cluster_level": report.jain_cluster_level,
        "total_demand_bphw": report.total_demand_bphw,
        "total_supply_bphw": report.total_supply_bphw,
        "unused_bphw": report.unused_bphw,
        "total_demand_mbps": report.total_demand_mbps,
        "total_supply_mbps": report.total_supply_mbps,
        "unused_mbps": report.unused_mbps,
    }
    if extra:
        doc.update(extra)
    return doc


def run(manifest: RunManifest) -> int:
    """Execute a full experiment; returns the process exit status."""
    diags = validate_config(manifest.config)
    if diags:
        for d in diags:
            print(f"config error: {d}", file=sys.stderr)
        return EXIT_CONFIG

    config = load_config(resolve_config_path(manifest.config))
    if manifest.seed is not None:
        config = dataclasses.replace(config, rng_seed=manifest.seed)
    if manifest.scheme not in ("bhca", "bh", "both"):
        print(f"config error: unknown scheme {manifest.scheme!r}", file=sys.stderr)
        return EXIT_CONFIG
    if manifest.workers != 1:
        print(f"config error: workers must be 1, got {manifest.workers}", file=sys.stderr)
        return EXIT_CONFIG

    logger.info("generating scenario (seed %d)", config.rng_seed)
    scenario = generate_scenario(config)
    modcod = ModcodTable.default()
    rates = compute_rate_table(scenario, modcod)
    pairs = adjacency_pairs(scenario)
    opts = manifest.solver_options()

    artifacts: dict[str, str] = {"scenario.json": scenario.snapshot_json()}
    statuses: dict[str, str] = {}
    reports: dict[str, metrics.MetricsReport] = {}
    summaries: dict[str, dict] = {}

    if manifest.scheme in ("bhca", "both"):
        logger.info("building joint model")
        model = build_model(scenario, rates, pairs)
        if manifest.export_lp:
            artifacts["model_bhca.lp"] = export_lp(model)
        log_lines: list[str] = []
        logger.info("solving joint model (node limit %d)", opts.node_limit)
        solution = solve_milp(model, opts, log=log_lines.append)
        statuses["bhca"] = solution.status
        artifacts["solver_log_bhca.txt"] = "\n".join(log_lines) + "\n"
        audit = validate_solution(model, solution.values)
        if not audit.empty:
            raise RuntimeError(f"joint solution failed its audit: {audit}")
        plan = decode_plan(model, solution, scenario)
        artifacts["plan_bhca.json"] = _dump_json(plan.to_dict())
        report = metrics.build_report(plan, scenario)
        reports["bhca"] = report
        summaries["bhca"] = _summary(report, {
            "objective": solution.objective,
            "status": solution.status,
            "gap": solution.gap,
            "nodes_explored": solution.nodes_explored,
        })
        artifacts["metrics_bhca.json"] = metrics.report_json(report)
        artifacts["metrics_bhca.csv"] = metrics.report_csv(report, scenario)

    if manifest.scheme in ("bh", "both"):
        log_lines = []
        logger.info("solving conventional baseline")
        plan_bh = baseline.solve_bh(scenario, rates, pairs, opts, log=log_lines.append)
        statuses["bh"] = plan_bh.stage1.status
        artifacts["solver_log_bh.txt"] = "\n".join(log_lines) + "\n"
        artifacts["plan_bh.json"] = _dump_json(plan_bh.to_dict())
        report = metrics.build_report(plan_bh, scenario)
        reports["bh"] = report
        summaries["bh"] = _summary(report, {
            "objective": plan_bh.stage1.objective,
            "status": plan_bh.stage1.status,
            "gap": plan_bh.stage1.gap,
            "nodes_explored": plan_bh.stage1.nodes_explored,
        })
        artifacts["metrics_bh.json"] = metrics.report_json(report)
        artifacts["metrics_bh.csv"] = metrics.report_csv(report, scenario)

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
                repr(float(reports["bhca"].jain_per_cluster[l])),
                repr(float(reports["bh"].jain_per_cluster[l])),
            ]))
        artifacts["comparison.csv"] = "\n".join(lines) + "\n"

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
