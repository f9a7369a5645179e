"""The benchmark's workloads: scenario sets, requests and output checks.

A request goes through ``bhca.cli.run``, the function behind ``bhca run``,
plus the public library calls each workload names. Requests call the
library through module attributes (``bhca.model.build_model(...)``) so that
a traced request sees the calls; see ``tracing.py``.

Checks run after the timed pass. They read the artifacts a request wrote,
rebuild the plan's full column vector and audit it against the model rows.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import bhca.baseline
import bhca.cli
import bhca.linkbudget
import bhca.lp_format
import bhca.model
import bhca.scenario
import bhca.solver

# Objectives that differ by more than this are a drift or a mismatch.
OBJ_TOL = 1e-6

# tests/conftest.py ``tiny_config``: 2 clusters x 2 carriers x 2 users,
# 2 slots, N_T=1, 12 binaries; small enough for ``brute_force``.
TINY_CONFIG = dict(
    num_beams=4,
    num_clusters=2,
    beams_per_cluster=2,
    carriers_per_cluster=2,
    active_clusters_per_slot=1,
    slots_per_window=2,
    users_per_beam=1,
)


@dataclass
class Context:
    """What a workload's set-up leaves for its requests."""

    config_arg: str                    # --config of ``bhca run``
    config: bhca.scenario.SystemConfig
    modcod: bhca.linkbudget.ModcodTable


def setup(workload: str, run_dir: str) -> Context:
    """Load the modcod table and the workload's config, as ``bhca run`` would."""
    if workload == "tiny-oracle":
        config_arg = os.path.join(run_dir, "tiny.json")
        with open(config_arg, "w", encoding="utf-8") as fh:
            json.dump(bhca.scenario.SystemConfig(**TINY_CONFIG).to_dict(), fh)
    else:
        config_arg = WORKLOADS[workload].config
    config = bhca.scenario.load_config(bhca.cli.resolve_config_path(config_arg))
    return Context(config_arg, config, bhca.linkbudget.ModcodTable.default())


def _scenario(ctx: Context, seed: int):
    config = dataclasses.replace(ctx.config, rng_seed=seed)
    scenario = bhca.scenario.generate_scenario(config)
    rates = bhca.linkbudget.compute_rate_table(scenario, ctx.modcod)
    return scenario, rates, bhca.scenario.adjacency_pairs(scenario)


def _run(ctx: Context, seed: int, out_dir: str, scheme: str, node_limit: int, export_lp: bool) -> int:
    return bhca.cli.run(bhca.cli.RunManifest(
        config=ctx.config_arg, seed=seed, scheme=scheme, out_dir=out_dir,
        node_limit=node_limit, workers=1, export_lp=export_lp,
    ))


def tiny_request(ctx: Context, seed: int, out_dir: str) -> dict:
    rc = _run(ctx, seed, out_dir, "both", bhca.cli.DEFAULT_NODE_LIMIT, True)
    model = bhca.model.build_model(*_scenario(ctx, seed))
    oracle = bhca.solver.brute_force(model)
    return {"rc": rc, "oracle": oracle.objective}


def desk_request(ctx: Context, seed: int, out_dir: str) -> dict:
    return {"rc": _run(ctx, seed, out_dir, "both", 12, True)}


def table2_request(ctx: Context, seed: int, out_dir: str) -> dict:
    rc = _run(ctx, seed, out_dir, "bh", 300, False)
    model = bhca.model.build_model(*_scenario(ctx, seed))
    bhca.lp_format.export_lp(model)
    # The all-zero plan is feasible; auditing it stands in for the two
    # audits ``bhca run`` makes of every joint plan.
    audit = bhca.model.validate_solution(model, np.zeros(model.num_cols))
    return {"rc": rc, "zero_plan_violations": len(audit.entries)}


@dataclass(frozen=True)
class Workload:
    config: str
    seeds: tuple[int, ...]
    schemes: tuple[str, ...]
    request: Callable[[Context, int, str], dict]


WORKLOADS = {
    # Acceptance criterion 1's route: many tiny simplex calls.
    "tiny-oracle": Workload("tiny", tuple(range(1, 21)), ("bhca", "bh"), tiny_request),
    # Node LPs of 177-627 rows: dense rank-1 updates and pivots per node.
    "desk": Workload("desk", tuple(range(1, 7)), ("bhca", "bh"), desk_request),
    # Full scale: model build, LP export and audit carry weight.
    "table2": Workload("table2", (7,), ("bh",), table2_request),
}


def _read(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def joint_point(model, plan: dict) -> np.ndarray:
    """Full column vector of a decoded joint plan (``plan_bhca.json``)."""
    cat = model.catalog
    L, C, U, T = cat.num_clusters, cat.num_carriers, cat.num_users, cat.num_slots
    z = np.zeros((L, T))
    for l, slots in enumerate(plan["schedule"]):
        z[l, slots] = 1.0
    a = np.zeros((L, C, U))
    for l, per_user in enumerate(plan["carrier_sets"]):
        for u, carriers in enumerate(per_user):
            a[l, carriers, u] = 1.0
    beta = np.array(plan["fill_rate"], dtype=float)
    x = np.zeros(model.num_cols)
    x[cat.off_a:cat.off_beta] = a.ravel()
    x[cat.off_beta:cat.off_q] = beta.ravel()
    x[cat.off_q:cat.off_z] = (beta[:, :, :, None] * z[:, None, None, :]).ravel()
    x[cat.off_z:cat.off_tu] = z.ravel()
    x[cat.off_tu:cat.off_tl] = plan["user_ratio_floor"]
    x[cat.tl_col] = plan["cluster_ratio_floor"]
    x[cat.theta_col] = plan["min_ratio"]
    return x


def bh_point(model, plan: dict) -> np.ndarray:
    """Full column vector of a baseline stage-1 plan (``plan_bh.json``)."""
    cat = model.catalog
    x = np.zeros(model.num_cols)
    for l, slots in enumerate(plan["slots_per_cluster"]):
        for t in slots:
            x[cat.z_col(l, t)] = 1.0
    x[cat.theta_col] = plan["min_cluster_ratio"]
    return x


def check(name: str, ctx: Context, seed: int, outcome: dict, reference: dict | None):
    """Check one request's outputs.

    Returns ``(failures, results, drifts)``: failure messages (empty when the
    request passed), ``{scheme: {"objective", "status"}}`` read from the
    artifacts, and one message per objective that moved from ``reference``.
    """
    if "error" in outcome:
        return [f"exception: {outcome['error']}"], {}, []
    failures: list[str] = []
    workload = WORKLOADS[name]
    out_dir = outcome["out_dir"]
    statuses = _read(out_dir, "manifest.json")["statuses"]
    scenario, rates, pairs = _scenario(ctx, seed)
    results = {}
    for scheme in workload.schemes:
        if scheme == "bhca":
            model = bhca.model.build_model(scenario, rates, pairs)
            plan = _read(out_dir, "plan_bhca.json")
            x = joint_point(model, plan)
            objective = plan["objective"]
        else:
            model = bhca.baseline.build_bh_model(scenario, rates, pairs)
            plan = _read(out_dir, "plan_bh.json")
            x = bh_point(model, plan)
            objective = plan["stage1_objective"]
        status = statuses[scheme]
        results[scheme] = {"objective": objective, "status": status}
        audit = bhca.model.validate_solution(model, x)
        if not audit.empty:
            failures.append(f"{scheme} plan fails validate_solution: {audit}")
        if abs(float(model.objective @ x) - objective) > OBJ_TOL:
            failures.append(f"{scheme} plan scores {float(model.objective @ x)!r}, reported {objective!r}")
        if status not in ("optimal", "feasible"):
            failures.append(f"{scheme} status {status!r}")

    expected_rc = 3 if any(r["status"] == "feasible" for r in results.values()) else 0
    if outcome["rc"] != expected_rc:
        failures.append(f"exit status {outcome['rc']}, expected {expected_rc} for statuses {statuses}")
    if "oracle" in outcome:
        results["oracle"] = {"objective": outcome["oracle"], "status": "optimal"}
        milp = results["bhca"]["objective"]
        if not math.isfinite(outcome["oracle"]) or abs(milp - outcome["oracle"]) > OBJ_TOL:
            failures.append(f"branch-and-bound {milp!r} != brute_force {outcome['oracle']!r}")
    if outcome.get("zero_plan_violations"):
        failures.append(f"all-zero joint plan has {outcome['zero_plan_violations']} violation(s)")

    drifts = []
    for scheme, ref in (reference or {}).items():
        got = results.get(scheme)
        if got is None:
            continue
        if abs(got["objective"] - ref["objective"]) > OBJ_TOL:
            drifts.append(f"{scheme} objective {got['objective']!r} (status {got['status']}), "
                          f"reference {ref['objective']!r} (status {ref['status']})")
        if got["status"] == "optimal" and got["objective"] < ref["objective"] - OBJ_TOL:
            failures.append(f"{scheme} claims optimal at {got['objective']!r}, "
                            f"below the reference {ref['objective']!r}")
    return failures, results, drifts
