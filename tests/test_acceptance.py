"""Acceptance gate: nine criteria, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines live.
"""
import itertools
import json
import time
from dataclasses import dataclass

import numpy as np
import pytest

from bhca.baseline import build_bh_model, solve_bh
from bhca.cli import RunManifest, run
from bhca.linkbudget import compute_rate_table
from bhca.lp_format import export_lp, parse_lp, round_trip_matches
from bhca.metrics import build_report, jain_index
from bhca.model import build_model, decode_plan, validate_solution
from bhca.scenario import adjacency_pairs, generate_scenario
from bhca.solver import SolverOptions, branch_and_bound, brute_force, solve_milp

from conftest import desk_config, make_bundle, tiny_config

TINY_SEEDS = tuple(range(1, 21))
DESK_SEEDS = tuple(range(1, 31))

# Node budgets for the desk batch (one node is one LP). The count route
# proves both schemes optimal well inside them.
DESK_BHCA_NODES = 12
DESK_BH_NODES = 300


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@dataclass
class TinyCase:
    seed: int
    model: object
    milp: object
    oracle: object


@pytest.fixture(scope="module")
def tiny_batch(modcod):
    cases = []
    t0 = time.perf_counter()
    for seed in TINY_SEEDS:
        _, _, _, model = make_bundle(tiny_config(seed), modcod)
        milp = solve_milp(model)
        oracle = brute_force(model)
        cases.append(TinyCase(seed, model, milp, oracle))
    elapsed = time.perf_counter() - t0
    return cases, elapsed


@dataclass
class DeskCase:
    seed: int
    scenario: object
    pairs: object
    model: object
    solution: object
    report_bhca: object
    plan_bh: object
    report_bh: object


@pytest.fixture(scope="module")
def desk_batch(modcod):
    cases = []
    t0 = time.perf_counter()
    for seed in DESK_SEEDS:
        scenario = generate_scenario(desk_config(seed))
        rates = compute_rate_table(scenario, modcod)
        pairs = adjacency_pairs(scenario)
        model = build_model(scenario, rates, pairs)
        solution = solve_milp(model, SolverOptions(node_limit=DESK_BHCA_NODES))
        plan = decode_plan(model, solution, scenario)
        plan_bh = solve_bh(scenario, rates, pairs, SolverOptions(node_limit=DESK_BH_NODES))
        cases.append(DeskCase(
            seed=seed,
            scenario=scenario,
            pairs=pairs,
            model=model,
            solution=solution,
            report_bhca=build_report(plan, scenario),
            plan_bh=plan_bh,
            report_bh=build_report(plan_bh, scenario),
        ))
    elapsed = time.perf_counter() - t0
    return cases, elapsed


def test_criterion_1_oracle_equivalence(tiny_batch):
    cases, elapsed = tiny_batch
    worst = max(abs(c.milp.objective - c.oracle.objective) for c in cases)
    ok = worst <= 1e-6 and elapsed < 60.0 and all(
        c.milp.status == "optimal" and c.oracle.status == "optimal" for c in cases
    )
    _report(1, ok, f"20 instances, max |milp-oracle| = {worst:.2e}, batch {elapsed:.1f}s < 60s")


def test_independent_routes_agree_on_tiny(tiny_batch, modcod):
    # Count route, plain branch-and-bound on the published model, and
    # enumeration, for both schemes. The baseline stage-1 model is
    # enumerated over every illumination grid directly.
    cases, _ = tiny_batch
    for c in cases:
        bnb = branch_and_bound(c.model)
        assert bnb.status == "optimal"
        assert bnb.objective == pytest.approx(c.oracle.objective, abs=1e-6)
        assert c.milp.objective == pytest.approx(c.oracle.objective, abs=1e-6)

        scenario, rates, pairs, _ = make_bundle(tiny_config(c.seed), modcod)
        bh_model = build_bh_model(scenario, rates, pairs)
        route, bh_bnb = solve_milp(bh_model), branch_and_bound(bh_model)
        assert route.status == bh_bnb.status == "optimal"
        grids = (np.array(g, dtype=float) for g in
                 itertools.product((0.0, 1.0), repeat=bh_model.catalog.theta_col))
        best = -np.inf
        for z in grids:
            x = np.append(z, 0.0)
            x[-1] = min(bh_model.row_values(x)[:bh_model.catalog.num_clusters])
            if validate_solution(bh_model, x).empty:
                best = max(best, float(bh_model.objective @ x))
        assert route.objective == pytest.approx(best, abs=1e-6)
        assert bh_bnb.objective == pytest.approx(best, abs=1e-6)


def test_criterion_2_linearization_suite(tiny_batch, desk_batch):
    tiny_cases, _ = tiny_batch
    desk_cases, _ = desk_batch
    worst_q = 0.0
    worst_floor = 0.0
    audits_clean = True
    solutions = [(c.model, c.milp.values) for c in tiny_cases]
    solutions += [(c.model, c.oracle.values) for c in tiny_cases]
    solutions += [(c.model, c.solution.values) for c in desk_cases]
    for model, values in solutions:
        cat = model.catalog
        L, C, U, T = cat.num_clusters, cat.num_carriers, cat.num_users, cat.num_slots
        a = values[cat.off_a:cat.off_beta].reshape(L, C, U)
        beta = values[cat.off_beta:cat.off_q].reshape(L, C, U)
        q = values[cat.off_q:cat.off_z].reshape(L, C, U, T)
        z = values[cat.off_z:cat.off_tu].reshape(L, T)
        worst_q = max(worst_q, float(np.max(np.abs(
            q - beta[:, :, :, None] * z[:, None, None, :]
        ))))
        if np.any(a < 0.5):
            worst_floor = max(worst_floor, float(np.max(beta[a < 0.5])))
        if np.any(a > 0.5):
            short = model.epsilon_fill - beta[a > 0.5]
            worst_floor = max(worst_floor, float(np.max(short)))
        audits_clean &= validate_solution(model, values).empty
    ok = worst_q <= 1e-9 and worst_floor <= 1e-9 and audits_clean
    _report(
        2, ok,
        f"{len(solutions)} solutions: max |q - beta*z| = {worst_q:.1e}, "
        f"worst activation-floor slack = {worst_floor:.1e}, audits clean = {audits_clean}",
    )


def test_criterion_3_max_min_realization(tiny_batch, modcod):
    cases, _ = tiny_batch
    worst = 0.0
    for c in cases:
        cat = c.model.catalog
        theta = c.milp.values[cat.theta_col]
        floors = list(c.milp.values[cat.off_tu:cat.off_tl]) + [c.milp.values[cat.tl_col]]
        worst = max(worst, abs(theta - min(floors)))
    # Raising the tie-break weight must never pull theta down.
    regressions = 0
    for c in cases:
        scenario, rates, pairs, _ = make_bundle(tiny_config(c.seed), modcod)
        heavy = build_model(scenario, rates, pairs, epsilon_tiebreak=1e-3)
        sol = solve_milp(heavy)
        theta_heavy = sol.values[heavy.catalog.theta_col]
        theta_base = c.milp.values[c.model.catalog.theta_col]
        if theta_heavy < theta_base - 1e-9:
            regressions += 1
    ok = worst <= 1e-8 and regressions == 0
    _report(3, ok, f"max |theta - min floors| = {worst:.1e}, tie-break regressions = {regressions}/20")


def test_criterion_4_jain_unit_tests():
    cases_ok = (
        jain_index([1, 1, 1, 1]) == pytest.approx(1.0)
        and jain_index([1, 0]) == pytest.approx(0.5)
        and jain_index([1, 0.5]) == pytest.approx(0.9)
    )
    rng = np.random.default_rng(0)
    x = rng.uniform(0.05, 4.0, size=23)
    base = jain_index(x)
    scale_ok = all(abs(jain_index(k * x) - base) <= 1e-12 for k in (1e-3, 1.0, 1e6))
    bounds_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        v = rng.uniform(0.0, 10.0, size=n)
        if not np.any(v > 0):
            continue
        j = jain_index(v)
        bounds_ok &= (1.0 / n - 1e-12) <= j <= 1.0 + 1e-12
    ok = cases_ok and scale_ok and bounds_ok
    _report(4, ok, f"point cases {cases_ok}, scale invariance {scale_ok}, bounds on 1000 vectors {bounds_ok}")


def test_criterion_5_fairness_trend(desk_batch):
    cases, elapsed = desk_batch
    jain_wins = sum(
        c.report_bhca.jain_user_system >= c.report_bh.jain_user_system for c in cases
    )
    min_wins = sum(
        c.report_bhca.min_user_ratio >= c.report_bh.min_user_ratio for c in cases
    )
    n = len(cases)
    ok = jain_wins >= 0.9 * n and min_wins >= 0.9 * n and elapsed < 600.0
    _report(
        5, ok,
        f"user-level Jain wins {jain_wins}/{n}, min-ratio wins {min_wins}/{n}, "
        f"batch {elapsed:.0f}s < 600s",
    )


def test_criterion_6_unused_capacity_trend(desk_batch):
    cases, _ = desk_batch
    avg_bhca = float(np.mean([c.report_bhca.unused_bphw for c in cases]))
    avg_bh = float(np.mean([c.report_bh.unused_bphw for c in cases]))
    ok = avg_bhca <= avg_bh
    _report(6, ok, f"mean unused bphw: joint {avg_bhca:.3e} <= baseline {avg_bh:.3e}")


def test_criterion_7_feasibility_audits(desk_batch):
    cases, _ = desk_batch
    violations = 0
    for c in cases:
        cfg = c.scenario.config
        T = cfg.slots_per_window
        for plan_schedule in (
            decode_plan(c.model, c.solution, c.scenario).schedule,
            c.plan_bh.slots_per_cluster,
        ):
            active = np.zeros((cfg.num_clusters, T), dtype=bool)
            for l, slots in enumerate(plan_schedule):
                for t in slots:
                    active[l, t] = True
            violations += int(np.sum(active.sum(axis=0) > cfg.active_clusters_per_slot))
            for (a, b) in c.pairs:
                violations += int(np.sum(active[a] & active[b]))
    ok = violations == 0
    _report(7, ok, f"activation-cap / adjacency violations across 60 plans: {violations}")


def test_criterion_8_lp_export_round_trip(modcod):
    ok = True
    for seed in range(1, 6):
        _, _, _, model = make_bundle(tiny_config(seed), modcod)
        first = export_lp(model)
        ok &= first == export_lp(model)
        ok &= round_trip_matches(model, parse_lp(first))
    _report(8, ok, "5 fixture models: byte-identical repeated export, parse/rebuild identical rows")


def test_criterion_9_cli_determinism(tmp_path):
    config_path = tmp_path / "tiny.json"
    config_path.write_text(json.dumps(tiny_config(7).to_dict()))
    checksums = []
    for tag in ("a", "b"):
        manifest = RunManifest(
            config=str(config_path), seed=7, scheme="both",
            out_dir=str(tmp_path / tag), workers=1, export_lp=True,
        )
        status = run(manifest)
        assert status == 0
        checksums.append(manifest.checksums)
    ok = checksums[0] == checksums[1] and len(checksums[0]) >= 10
    _report(9, ok, f"two invocations, {len(checksums[0])} artifacts, identical checksum sets: {ok}")
