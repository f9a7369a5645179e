import itertools

import numpy as np
import pytest

from bhca.baseline import (
    cluster_slot_capacity,
    distribute_slots,
    solve_bh,
)
from bhca.linkbudget import compute_rate_table
from bhca.scenario import SystemConfig, adjacency_pairs, generate_scenario
from bhca.solver import SolverOptions

from conftest import desk_config


def test_equal_demands_split_slots_evenly():
    assert distribute_slots(8, [1.0, 1.0, 1.0, 1.0]) == [2, 2, 2, 2]


def test_fewer_slots_than_users_serves_top_demands():
    assert distribute_slots(2, [5.0, 9.0, 7.0]) == [0, 1, 1]


def test_equal_slots_and_users_one_each():
    assert distribute_slots(3, [5.0, 9.0, 7.0]) == [1, 1, 1]


def test_largest_remainder_ties_to_lower_index():
    # Quotas 1.5 / 1.5 / 1.0 with 4 slots: the tie goes to user 0.
    assert distribute_slots(4, [1.5, 1.5, 1.0]) == [2, 1, 1]


def test_proportional_distribution_conserves_slots():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n_users = int(rng.integers(1, 9))
        n_slots = int(rng.integers(0, 30))
        demands = rng.uniform(0.1, 5.0, size=n_users)
        counts = distribute_slots(n_slots, demands)
        assert sum(counts) == n_slots
        assert all(c >= 0 for c in counts)
        if n_slots <= n_users:
            assert max(counts) <= 1


def test_plan_respects_activation_cap_and_adjacency(modcod):
    scenario = generate_scenario(desk_config(2))
    rates = compute_rate_table(scenario, modcod)
    pairs = adjacency_pairs(scenario)
    plan = solve_bh(scenario, rates, pairs, SolverOptions(node_limit=300))
    T = scenario.config.slots_per_window
    active = np.zeros((scenario.config.num_clusters, T), dtype=bool)
    for l, slots in enumerate(plan.slots_per_cluster):
        for t in slots:
            active[l, t] = True
    assert np.all(active.sum(axis=0) <= scenario.config.active_clusters_per_slot)
    for (a, b) in pairs:
        assert not np.any(active[a] & active[b])


def test_slot_conservation_per_cluster(modcod):
    scenario = generate_scenario(desk_config(4))
    rates = compute_rate_table(scenario, modcod)
    plan = solve_bh(scenario, rates, adjacency_pairs(scenario), SolverOptions(node_limit=300))
    for l, slots in enumerate(plan.slots_per_cluster):
        assert plan.user_slots[l].sum() == len(slots)
        assert np.all(plan.user_slots[l] >= 0)


def test_supply_uses_exactly_the_own_beam_carrier(modcod):
    scenario = generate_scenario(desk_config(6))
    rates = compute_rate_table(scenario, modcod)
    plan = solve_bh(scenario, rates, adjacency_pairs(scenario), SolverOptions(node_limit=300))
    R = rates.rate_per_slot
    for cluster in scenario.clusters:
        l = cluster.id
        users = scenario.users_of_cluster(l)
        carriers = scenario.carriers_of_cluster(l)
        for ui, user in enumerate(users):
            own = [ci for ci, c in enumerate(carriers) if c.beam_id == user.beam_id]
            ci = own[0] if own else 0
            assert plan.user_supply[l, ui] == pytest.approx(
                plan.user_slots[l, ui] * R[l, ci, ui], rel=1e-12
            )


def _enumerate_best_min_ratio(scenario, rates, pairs):
    """Exhaustive max-min cluster ratio over all feasible illumination grids."""
    cfg = scenario.config
    L, T = cfg.num_clusters, cfg.slots_per_window
    caps = cluster_slot_capacity(scenario, rates)
    demand = scenario.demand_matrix().sum(axis=1)
    patterns = []
    for mask in range(2 ** L):
        active = [l for l in range(L) if mask >> l & 1]
        if len(active) > cfg.active_clusters_per_slot:
            continue
        if any((a, b) in pairs for a in active for b in active if a < b):
            continue
        vec = np.zeros(L)
        vec[active] = 1.0
        patterns.append(vec)
    patterns = np.array(patterns)
    best = -np.inf
    ratio = caps / demand
    for combo in itertools.product(range(len(patterns)), repeat=T):
        counts = patterns[list(combo)].sum(axis=0)
        best = max(best, float(np.min(counts * ratio)))
    return best


def test_stage1_matches_z_enumeration_on_eight_clusters(modcod):
    # 8-cluster geometry with a short window keeps enumeration tractable.
    cfg = SystemConfig(rng_seed=1, slots_per_window=4, users_per_beam=2,
                       active_clusters_per_slot=2)
    scenario = generate_scenario(cfg)
    rates = compute_rate_table(scenario, modcod)
    pairs = adjacency_pairs(scenario)
    plan = solve_bh(scenario, rates, pairs, SolverOptions(node_limit=4000))
    want = _enumerate_best_min_ratio(scenario, rates, pairs)
    assert plan.min_cluster_ratio == pytest.approx(want, abs=1e-6)

