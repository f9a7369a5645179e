"""Property tests on configurations the shipped configs never exercise.

The count route is checked against an independent oracle: ``brute_force``
where a joint model fits in its 24 binaries, plain branch-and-bound on the
published model otherwise.
"""
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from bhca.baseline import build_bh_model
from bhca.model import VariableCatalog, build_model, validate_solution
from bhca.scenario import SystemConfig
from bhca.solver import MAX_ORACLE_BINARIES, branch_and_bound, brute_force, solve_milp

from conftest import make_bundle, tiny_config

SEEDS = st.integers(min_value=1, max_value=10_000)


def _oracle(model):
    if isinstance(model.catalog, VariableCatalog) and model.binary.sum() <= MAX_ORACLE_BINARIES:
        return brute_force(model)
    return branch_and_bound(model)


def _check(model):
    route = solve_milp(model)
    oracle = _oracle(model)
    assert route.status == oracle.status == "optimal"
    assert route.objective == pytest.approx(oracle.objective, abs=1e-6)
    assert validate_solution(model, route.values).empty


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(seed=SEEDS)
def test_carrier_cap_binds(modcod, seed):
    # delta_max < carriers_per_cluster: C1 limits each user to one carrier.
    scenario, rates, pairs, model = make_bundle(tiny_config(seed, delta_max=1), modcod)
    assert model.binary.sum() <= MAX_ORACLE_BINARIES
    _check(model)
    cat = model.catalog
    a = solve_milp(model).values[cat.off_a:cat.off_beta].reshape(
        cat.num_clusters, cat.num_carriers, cat.num_users)
    assert a.sum(axis=1).max() <= 1.0
    _check(build_bh_model(scenario, rates, pairs))


# Ten beams in five two-beam clusters: the lattice leaves independent sets of
# three clusters, so N_T = 3 can light three clusters in one slot.
THREE_ACTIVE = dict(
    num_beams=10, num_clusters=5, beams_per_cluster=2, carriers_per_cluster=1,
    active_clusters_per_slot=3, slots_per_window=3, users_per_beam=1, delta_max=1,
)


@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(seed=SEEDS)
def test_three_active_clusters_per_slot(modcod, seed):
    scenario, rates, pairs, model = make_bundle(SystemConfig(rng_seed=seed, **THREE_ACTIVE), modcod)
    assert any(
        not any(p in pairs for p in itertools.combinations(s, 2))
        for s in itertools.combinations(range(5), 3)
    )
    _check(model)
    _check(build_bh_model(scenario, rates, pairs))


# Three carriers per cluster and one user per cluster: brute_force stays at
# 6 count vectors x 7^2 carrier sets (delta_max = 2).
THREE_CARRIERS = dict(
    num_beams=2, num_clusters=2, beams_per_cluster=1, carriers_per_cluster=3,
    active_clusters_per_slot=1, slots_per_window=2, users_per_beam=1,
)


@pytest.mark.parametrize("delta_max", [1, 2])
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(seed=SEEDS)
def test_three_carriers_per_cluster(modcod, seed, delta_max):
    config = SystemConfig(rng_seed=seed, delta_max=delta_max, **THREE_CARRIERS)
    scenario, rates, pairs, model = make_bundle(config, modcod)
    assert model.catalog.num_carriers == 3
    _check(model)
    cat = model.catalog
    a = solve_milp(model).values[cat.off_a:cat.off_beta].reshape(
        cat.num_clusters, cat.num_carriers, cat.num_users)
    assert a.sum(axis=1).max() <= delta_max
    _check(build_bh_model(scenario, rates, pairs))


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(seed=SEEDS)
def test_large_fill_floor(modcod, seed):
    # A floor this large makes relaxed fills land inside (0, epsilon_fill),
    # so the route solves again with the assignment binaries and the floor.
    scenario, rates, pairs, _ = make_bundle(tiny_config(seed), modcod)
    _check(build_model(scenario, rates, pairs, epsilon_fill=0.3))
