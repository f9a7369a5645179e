import dataclasses
import hashlib
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
    GridNames,
    ModelInstance,
    RowBuilder,
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
from bhca.simplex import solve_dense, solve_dense_batch
from bhca.solver import (
    SolverOptions,
    branch_and_bound,
    brute_force,
    solve_lp,
    solve_milp,
)

from conftest import desk_config, make_bundle, tiny_config


def test_options_validation():
    assert [f.name for f in dataclasses.fields(SolverOptions)] == ["node_limit", "time_limit"]
    with pytest.raises(ValueError):
        SolverOptions(node_limit=0)
    # A NaN limit never stopped the search, 2.5 acted as 3 and True as 1.
    for limit in (float("nan"), float("inf"), 2.5, 3.0, True, None, "3"):
        with pytest.raises(ValueError, match="node_limit must be an integer >= 1"):
            SolverOptions(node_limit=limit)
    # NaN and inf used to switch the limit off, and a negative limit stopped
    # the search before its first LP.
    for limit in (float("nan"), float("inf"), -float("inf"), -1.0, -1e-9):
        with pytest.raises(ValueError, match="time_limit must be a finite number of seconds >= 0"):
            SolverOptions(time_limit=limit)
    assert SolverOptions(time_limit=0.0).time_limit == 0.0


def test_lp_relaxation_bounds_milp(tiny_bundle):
    _, _, _, model = tiny_bundle
    relax = solve_lp(model)
    milp = solve_milp(model)
    assert relax.status == "optimal" and milp.status == "optimal"
    assert relax.objective >= milp.objective - 1e-8


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
    floors = list(sol.values[cat.tu]) + [sol.values[cat.tl_col]]
    assert theta == pytest.approx(min(floors), abs=1e-8)


def test_linearization_and_activation_contract(tiny_bundle):
    _, _, _, model = tiny_bundle
    cat = model.catalog
    sol = solve_milp(model)
    a = sol.values[cat.a]
    beta = sol.values[cat.beta]
    q = sol.values[cat.q]
    z = sol.values[cat.z]
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


# Nodes of the full desk_bundle solves: every smaller limit stops one step
# of the count route, the theta search's packing checks among them.
FULL_NODES = {"joint": 8, "bh": 3}


@pytest.fixture(scope="module")
def desk_solves(desk_bundle):
    scenario, rates, pairs, model = desk_bundle
    models = {"joint": model, "bh": build_bh_model(scenario, rates, pairs)}
    return {name: (m, solve_milp(m)) for name, m in models.items()}


@pytest.mark.parametrize("name, limit", [(name, limit) for name, full in FULL_NODES.items()
                                         for limit in range(1, full)])
def test_every_node_limit_returns_a_bracketing_incumbent(desk_solves, name, limit):
    model, full = desk_solves[name]
    assert full.status == "optimal" and full.nodes_explored == FULL_NODES[name]
    sol = solve_milp(model, SolverOptions(node_limit=limit))
    assert sol.status == "feasible"
    assert sol.nodes_explored == limit
    assert validate_solution(model, sol.values).empty
    assert 0.0 < sol.objective <= full.objective <= sol.objective + sol.gap * max(1.0, sol.objective)


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
    beta = milp.values[cat.beta]
    # Identical users; per-carrier fill mass is determined even if the split
    # between the two users is a tie.
    assert beta[0].sum(axis=1) == pytest.approx(beta[0].sum(axis=1)[::-1], abs=1e-6)


# sha256 of brute_force(model).values.tobytes() on tiny seeds 1-5, pinned
# from the one-LP-at-a-time oracle; the batched oracle returns the same plan.
ORACLE_PLAN_SHA256 = {
    1: "0328899be1ec233c43ee6e3f2df502a6875fabd4fbd75f2d613756714b877c63",
    2: "76c03124c3cf9274f6edb91a2f1e7abf425ba5bc57f6df6e65231894cf66cbc4",
    3: "1aed6ea64349689f8924d50ac6bba59e8f809e4c443f0682728d77ab5cad1a1e",
    4: "333d16dd50731ea4b32b1ab71822b72920e3011f3e8f50a83f3bcaa7d354e17a",
    5: "4406622dc7f346d7893ac7a80f451c42bd2d994473b9639555297cb268ab90f4",
}


@pytest.mark.parametrize("seed", sorted(ORACLE_PLAN_SHA256))
def test_oracle_plan_is_pinned(modcod, seed):
    _, _, _, model = make_bundle(tiny_config(seed), modcod)
    oracle = brute_force(model)
    assert oracle.nodes_explored == 1536
    assert hashlib.sha256(oracle.values.tobytes()).hexdigest() == ORACLE_PLAN_SHA256[seed]


# Batch sizes the bounded oracle hands to the simplex on tiny seeds 1 and 2:
# the highest-bound LP alone, then the LPs of the one count vector whose
# bounds reach that incumbent.
ORACLE_BATCHES = {1: [1, 17], 2: [1, 11]}


@pytest.mark.parametrize("seed", [1, 2])
def test_oracle_batch_cap_keeps_the_plan(modcod, seed, monkeypatch):
    # A tiny model bounds each slot-count vector's 256 assignment LPs in one
    # chunk and solves the ones that can still win in one batch. A smaller
    # cap splits them over several chunks and batches, and must not change
    # what the oracle returns. A cap of 1 byte gives one LP per batch;
    # 30,000 bytes gives at most 7 LPs of 13 rows and 12 columns per batch.
    _, _, _, model = make_bundle(tiny_config(seed), modcod)
    sizes = []

    def counting(c, A, senses, b, lowers, uppers):
        sizes.append(len(lowers))
        return solve_dense_batch(c, A, senses, b, lowers, uppers)

    monkeypatch.setattr("bhca.solver.solve_dense_batch", counting)
    want = brute_force(model)
    assert sizes == ORACLE_BATCHES[seed]
    for cap in (1, 30_000):
        monkeypatch.setattr("bhca.solver.ORACLE_BATCH_BYTES", cap)
        got = brute_force(model)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.objective == want.objective
        assert got.nodes_explored == want.nodes_explored == 1536


def _lp_stream(monkeypatch, solve):
    """Number of LPs ``solve()`` hands to the simplex and one sha256 over
    all of them in call order: ``c, A, senses, b`` and the bounds."""
    digest, count = hashlib.sha256(), [0]

    def record(solver):
        def recorded(c, A, senses, b, lo, hi):
            count[0] += 1
            for part in (c, np.asarray(A) + 0.0, np.asarray(senses, dtype="<U2"), b, lo, hi):
                part = np.ascontiguousarray(part)
                digest.update(repr((part.shape, part.dtype.str)).encode() + part.tobytes())
            return solver(c, A, senses, b, lo, hi)
        return recorded

    monkeypatch.setattr("bhca.solver.solve_dense", record(solve_dense))
    monkeypatch.setattr("bhca.solver.solve_dense_batch", record(solve_dense_batch))
    solve()
    return count[0], digest.hexdigest()


# Simplex call count and stream sha256 of each route, pinned from the solver
# that wrote its LPs row by row: a refactor of the LP builders must hand the
# simplex the same LPs in the same order. The oracle's pin comes from the
# bounded oracle, which hands over only the LPs that can still win, each one
# an LP of the exhaustive loop (``test_oracle.py`` checks that).
LP_STREAMS = {
    "desk1-joint": (7, "00336df8a1c75e6a5e52928d62d73f7954ea470b8b45da5d729cd98cd0b1c2a9"),
    "desk1-bh": (3, "fcd9fc32119e2922b68851b3ed012630639df83e99d0f7795ceb2486cdc600a4"),
    "tiny1-oracle": (2, "9d19c20a958c67a07693bcf3b3c75649eed2ae3b63d8a310d73520f7e88a361a"),
}


@pytest.mark.parametrize("case", sorted(LP_STREAMS))
def test_lp_stream_is_pinned(modcod, monkeypatch, case):
    config = tiny_config(1) if case == "tiny1-oracle" else desk_config(1)
    scenario, rates, pairs, model = make_bundle(config, modcod)
    if case == "tiny1-oracle":
        got = _lp_stream(monkeypatch, lambda: brute_force(model))
    elif case == "desk1-bh":
        got = _lp_stream(monkeypatch, lambda: solve_milp(build_bh_model(scenario, rates, pairs)))
    else:
        got = _lp_stream(monkeypatch, lambda: solve_milp(model))
    assert got == LP_STREAMS[case]


def test_brute_force_refuses_large_models(desk_bundle):
    _, _, _, model = desk_bundle
    with pytest.raises(ValueError, match="24 binaries"):
        brute_force(model)


def test_brute_force_requires_planner_model():
    rows = RowBuilder()
    rows.add("R1", (), [0], 1.0, LESS, 1.0)

    class MiniCatalog:
        num_cols = 1
        names = GridNames([("x", ())])

    model = ModelInstance(
        catalog=MiniCatalog(), **rows.arrays(), objective=np.ones(1),
        lower=np.zeros(1), upper=np.ones(1), binary=np.ones(1, dtype=bool),
    )
    with pytest.raises(ValueError, match="planner model"):
        brute_force(model)


def test_infeasible_generic_model_reports_infeasible():
    rows = RowBuilder()
    rows.add("lo", (), [0], 1.0, GREATER, 0.6)
    rows.add("hi", (), [0], 1.0, LESS, 0.4)

    class MiniCatalog:
        num_cols = 1
        names = GridNames([("x", ())])

    model = ModelInstance(
        catalog=MiniCatalog(), **rows.arrays(), objective=np.ones(1),
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


def test_desk_single_carrier_plan_is_proven_optimal(modcod):
    # delta_max = 1 is below the 2 carriers per cluster, so the count model
    # carries the assignment binaries with the C1 and C7 rows. HiGHS gave
    # 0.311804 on this model.
    _, _, _, model = make_bundle(desk_config(2, delta_max=1), modcod)
    sol = solve_milp(model)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.3118039126, abs=1e-9)
    assert sol.nodes_explored == 134
    assert validate_solution(model, sol.values).empty


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


def _highs(model):
    """HiGHS's incumbent objective and dual bound on the model's own rows."""
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    A = sparse.csr_array((model.coefs, model.cols, model.indptr), shape=(model.num_rows, model.num_cols))
    res = optimize.milp(
        -model.objective,
        constraints=(
            A, np.where(model.senses == LESS, -np.inf, model.rhs),
            np.where(model.senses == GREATER, np.inf, model.rhs),
        ),
        integrality=model.binary.astype(int),
        bounds=optimize.Bounds(model.lower, model.upper),
    )
    assert res.status == 0, res.message
    return -res.fun, -res.mip_dual_bound


def test_highs_finds_the_same_bh_optimum(modcod, table2_bundle):
    desk = make_bundle(desk_config(1), modcod)[:3]
    for scenario, rates, pairs in (desk, table2_bundle[:3]):
        model = build_bh_model(scenario, rates, pairs)
        incumbent, _ = _highs(model)
        assert solve_milp(model).objective == pytest.approx(incumbent, abs=1e-6)


def test_highs_brackets_the_joint_desk_optimum(modcod):
    # The default C7b fill floor, 1e-6, is HiGHS's default feasibility
    # tolerance, and HiGHS stops with a solve error on this model at that
    # floor; at 1e-3 it solves.
    scenario, rates, pairs, _ = make_bundle(desk_config(1), modcod)
    model = build_model(scenario, rates, pairs, epsilon_fill=1e-3)
    incumbent, bound = _highs(model)
    ours = solve_milp(model)
    assert ours.status == "optimal"
    assert incumbent - 1e-6 <= ours.objective <= bound + 1e-6


def test_table2_limits_are_honoured(table2_bundle):
    _, _, _, model = table2_bundle
    t0 = time.perf_counter()
    sol = solve_milp(model, SolverOptions(node_limit=1, time_limit=5))
    assert time.perf_counter() - t0 < 30.0
    assert sol.status == "feasible" and sol.nodes_explored == 1
    assert 0.0 < sol.gap < np.inf
    assert validate_solution(model, sol.values).empty


@pytest.mark.xfail(strict=True, raises=RuntimeError, reason=(
    "known fault: the joint solve of this valid config raises 'simplex returned an infeasible optimum "
    "(max violation 2.217e+00)', and bhca run exits 4; a degenerate phase-2 pivot in _iterate "
    "(src/bhca/simplex.py) on a 2.75e-7 element of a 166x110 node LP"))
def test_joint_solve_of_a_small_three_beam_config(modcod):
    cfg = SystemConfig(num_beams=12, num_clusters=4, beams_per_cluster=3, carriers_per_cluster=2,
                       active_clusters_per_slot=1, slots_per_window=1, users_per_beam=2, delta_max=1,
                       rng_seed=1)
    _, _, _, model = make_bundle(cfg, modcod)
    sol = solve_milp(model)
    assert sol.status == "optimal"
    assert validate_solution(model, sol.values).empty
