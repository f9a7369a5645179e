import dataclasses
import re
import time

import numpy as np
import pytest

from bhca.baseline import build_bh_model
from bhca.cli import resolve_config_path
from bhca.linkbudget import compute_rate_table
from bhca.model import (
    LESS,
    GREATER,
    LinearConstraint,
    ModelInstance,
    build_model,
    validate_solution,
)
from bhca.scenario import (
    Beam,
    Carrier,
    Cluster,
    Scenario,
    SystemConfig,
    User,
    adjacency_pairs,
    load_config,
)
from bhca.solver import (
    SolverOptions,
    branch_and_bound,
    brute_force,
    solve_lp,
    solve_milp,
)

from conftest import desk_config, make_bundle, tiny_config


def test_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(integrality_tol=0.0)
    with pytest.raises(ValueError):
        SolverOptions(feas_tol=1.0)
    with pytest.raises(ValueError):
        SolverOptions(node_limit=0)


def test_lp_relaxation_bounds_milp(tiny_bundle):
    _, _, _, model = tiny_bundle
    relax = solve_lp(model)
    milp = solve_milp(model)
    assert relax.status == "optimal" and milp.status == "optimal"
    assert relax.objective >= milp.objective - 1e-8


def test_solve_lp_fixings_restrict(tiny_bundle):
    _, _, _, model = tiny_bundle
    cat = model.catalog
    fixings = {cat.z_col(l, t): (0.0, 0.0)
               for l in range(cat.num_clusters) for t in range(cat.num_slots)}
    dark = solve_lp(model, fixings)
    assert dark.status == "optimal"
    assert dark.objective == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        solve_lp(model, {0: (1.0, 0.0)})


def test_oracle_equivalence_small_batch(modcod):
    for seed in (3, 4, 5):
        _, _, _, model = make_bundle(tiny_config(seed), modcod)
        milp = solve_milp(model)
        oracle = brute_force(model)
        assert milp.status == "optimal" and oracle.status == "optimal"
        assert milp.objective == pytest.approx(oracle.objective, abs=1e-6)
        assert validate_solution(model, milp.values).empty
        assert validate_solution(model, oracle.values).empty


def test_deterministic_for_fixed_options(tiny_bundle):
    _, _, _, model = tiny_bundle
    a = solve_milp(model, SolverOptions())
    b = solve_milp(model, SolverOptions())
    assert a.objective == b.objective
    assert a.nodes_explored == b.nodes_explored
    assert np.array_equal(a.values, b.values)


def test_monotone_incumbent_and_log_format(tiny_bundle):
    _, _, _, model = tiny_bundle
    lines = []
    solve_milp(model, log=lines.append)
    assert lines
    pattern = re.compile(
        r"^node=(\d+) bound=(-?[\d.e+inf-]+) incumbent=(-?[\d.e+inf-]+) gap=([\d.e+inf-]+)$"
    )
    incumbents = []
    for line in lines:
        m = pattern.match(line)
        assert m, line
        incumbents.append(float(m.group(3)))
    finite = [v for v in incumbents if np.isfinite(v)]
    assert finite == sorted(finite)


def test_theta_equals_min_ratio_floor(tiny_bundle):
    _, _, _, model = tiny_bundle
    cat = model.catalog
    sol = solve_milp(model)
    theta = sol.values[cat.theta_col]
    floors = list(sol.values[cat.off_tu:cat.off_tl]) + [sol.values[cat.tl_col]]
    assert theta == pytest.approx(min(floors), abs=1e-8)


def test_linearization_and_activation_contract(tiny_bundle):
    _, _, _, model = tiny_bundle
    cat = model.catalog
    sol = solve_milp(model)
    L, C, U, T = cat.num_clusters, cat.num_carriers, cat.num_users, cat.num_slots
    a = sol.values[cat.off_a:cat.off_beta].reshape(L, C, U)
    beta = sol.values[cat.off_beta:cat.off_q].reshape(L, C, U)
    q = sol.values[cat.off_q:cat.off_z].reshape(L, C, U, T)
    z = sol.values[cat.off_z:cat.off_tu].reshape(L, T)
    assert np.max(np.abs(q - beta[:, :, :, None] * z[:, None, None, :])) <= 1e-9
    assert np.all(beta[a < 0.5] <= 1e-9)
    assert np.all(beta[a > 0.5] >= model.epsilon_fill - 1e-9)


def test_node_limit_returns_feasible_with_incumbent(desk_bundle):
    _, _, _, model = desk_bundle
    full = solve_milp(model)
    assert full.status == "optimal"
    # Cut the route before its last LP: the packing search has left a plan.
    sol = solve_milp(model, SolverOptions(node_limit=full.nodes_explored - 1))
    assert sol.status == "feasible"
    assert sol.nodes_explored == full.nodes_explored - 1
    assert 0.0 < sol.objective <= full.objective
    assert validate_solution(model, sol.values).empty
    # The gap comes from a proven bound, so it covers the true optimum.
    assert sol.gap > 0.0
    assert sol.objective + sol.gap * max(1.0, sol.objective) >= full.objective - 1e-12


def test_time_limit_stops_before_any_lp(desk_bundle):
    _, _, _, model = desk_bundle
    sol = solve_milp(model, SolverOptions(time_limit=0.0))
    assert sol.status == "feasible" and sol.nodes_explored == 0
    assert sol.objective > 0.0 and sol.gap == np.inf
    assert validate_solution(model, sol.values).empty


def _far_apart_scenario(users_per_beam: int, demand: float):
    """Two non-adjacent single-beam clusters, both carriers on the one beam."""
    cfg = dataclasses.replace(
        SystemConfig(),
        num_beams=2, num_clusters=2, beams_per_cluster=1,
        carriers_per_cluster=2, users_per_beam=users_per_beam,
        active_clusters_per_slot=2, slots_per_window=2, beam_pitch_km=1.0,
    )
    beams = (Beam(0, 0.0, 0.0), Beam(1, 10.0, 0.0))
    carriers = tuple(
        Carrier(2 * l + c, l, l, ("LHCP", "RHCP")[c], cfg.carrier_bandwidth)
        for l in range(2) for c in range(2)
    )
    users = []
    for l in range(2):
        for _ in range(users_per_beam):
            users.append(User(len(users), l, l, beams[l].x_km, beams[l].y_km, demand, False))
    clusters = tuple(
        Cluster(l, (l,), (2 * l, 2 * l + 1),
                tuple(u.id for u in users if u.cluster_id == l))
        for l in range(2)
    )
    return Scenario(cfg, beams, clusters, carriers, tuple(users))


def test_structurally_fixed_model_solves_at_the_root(modcod):
    # No adjacency, activation cap equal to the cluster count, one user per
    # carrier: the relaxation is already integral and no branching happens.
    scenario = _far_apart_scenario(users_per_beam=1, demand=1e5)
    rates = compute_rate_table(scenario, modcod)
    pairs = adjacency_pairs(scenario)
    assert pairs == frozenset()
    model = build_model(scenario, rates, pairs)
    assert branch_and_bound(model).nodes_explored == 1
    # The count route solves each of its sub-problems at the root: one-slot
    # values, the theta bound, one packing check and the count model.
    sol = solve_milp(model)
    assert sol.status == "optimal"
    assert sol.nodes_explored == 4


def test_symmetric_users_objective_unique(modcod):
    scenario = _far_apart_scenario(users_per_beam=2, demand=2e5)
    rates = compute_rate_table(scenario, modcod)
    model = build_model(scenario, rates, frozenset())
    milp = solve_milp(model)
    oracle = brute_force(model)
    assert milp.objective == pytest.approx(oracle.objective, abs=1e-6)
    cat = model.catalog
    beta = milp.values[cat.off_beta:cat.off_q].reshape(2, 2, 2)
    # Identical users; per-carrier fill mass is determined even if the split
    # between the two users is a tie.
    assert beta[0].sum(axis=1) == pytest.approx(beta[0].sum(axis=1)[::-1], abs=1e-6)


def test_brute_force_refuses_large_models(desk_bundle):
    _, _, _, model = desk_bundle
    with pytest.raises(ValueError, match="24 binaries"):
        brute_force(model)


def test_brute_force_requires_planner_model():
    rows = (LinearConstraint((0,), (1.0,), LESS, 1.0, "R1"),)

    class MiniCatalog:
        num_cols = 1

        def col_name(self, j):
            return "x"

    model = ModelInstance(
        catalog=MiniCatalog(), constraints=rows, objective=np.ones(1),
        lower=np.zeros(1), upper=np.ones(1), binary=np.ones(1, dtype=bool),
    )
    with pytest.raises(ValueError, match="planner model"):
        brute_force(model)


def test_infeasible_generic_model_reports_infeasible():
    rows = (
        LinearConstraint((0,), (1.0,), GREATER, 0.6, "lo"),
        LinearConstraint((0,), (1.0,), LESS, 0.4, "hi"),
    )

    class MiniCatalog:
        num_cols = 1

        def col_name(self, j):
            return "x"

    model = ModelInstance(
        catalog=MiniCatalog(), constraints=rows, objective=np.ones(1),
        lower=np.zeros(1), upper=np.ones(1), binary=np.ones(1, dtype=bool),
    )
    sol = solve_milp(model)
    assert sol.status == "infeasible"


def test_incumbents_pass_model_audit_across_seeds(modcod):
    for seed in (6, 7):
        _, _, _, model = make_bundle(tiny_config(seed), modcod)
        sol = solve_milp(model)
        assert validate_solution(model, sol.values).empty


# Optimal objectives of the joint model and of the baseline stage-1 model,
# cross-checked by enumerating maximal count vectors (desk) and by an
# external MILP solver on the pattern reformulation.
DESK_JOINT = (0.4474580297, 0.3536104108, 0.3292644419, 0.3672327100, 0.3250598476, 0.3315564280)
DESK_BH = (0.4559490733, 0.4012235969, 0.3955740041, 0.4272978056, 0.3752438604, 0.3564143894)


@pytest.mark.parametrize("seed", range(1, 7))
def test_desk_plans_are_proven_optimal(modcod, seed):
    scenario, rates, pairs, model = make_bundle(desk_config(seed), modcod)
    joint = solve_milp(model)
    bh_model = build_bh_model(scenario, rates, pairs)
    bh = solve_milp(bh_model)
    assert joint.status == bh.status == "optimal"
    assert joint.objective == pytest.approx(DESK_JOINT[seed - 1], abs=1e-6)
    assert bh.objective == pytest.approx(DESK_BH[seed - 1], abs=1e-6)
    assert validate_solution(model, joint.values).empty
    assert validate_solution(bh_model, bh.values).empty


@pytest.fixture(scope="module")
def table2_bundle(modcod):
    config = dataclasses.replace(load_config(resolve_config_path("table2")), rng_seed=7)
    scenario, rates, pairs, model = make_bundle(config, modcod)
    return scenario, rates, pairs, model


def test_table2_seed7_regression(table2_bundle):
    scenario, rates, pairs, model = table2_bundle
    joint = solve_milp(model)
    assert joint.status == "optimal"
    assert joint.objective == pytest.approx(0.7435024520, abs=1e-6)
    assert joint.values[model.catalog.theta_col] == pytest.approx(0.7428181114, abs=1e-6)
    assert validate_solution(model, joint.values).empty
    bh_model = build_bh_model(scenario, rates, pairs)
    bh = solve_milp(bh_model)
    assert bh.status == "optimal"
    assert bh.objective == pytest.approx(0.7599464597, abs=1e-6)
    assert validate_solution(bh_model, bh.values).empty


def test_table2_limits_are_honoured(table2_bundle):
    _, _, _, model = table2_bundle
    t0 = time.perf_counter()
    sol = solve_milp(model, SolverOptions(node_limit=1, time_limit=5))
    assert time.perf_counter() - t0 < 30.0
    assert sol.status == "feasible" and sol.nodes_explored == 1
    assert 0.0 < sol.gap < np.inf
    assert validate_solution(model, sol.values).empty
