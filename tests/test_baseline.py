import hashlib
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

from conftest import beam3_config, carrier3_config, desk_config, tiny_config


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


@pytest.mark.parametrize("config, own_count", [
    (desk_config(6), 1),
    # Seed 19 gives slots to users on a beam without a carrier, where the
    # rates of carriers 0 and 1 differ.
    (beam3_config(19), 0),
    # Seed 3 gives slots to users whose beam holds two carriers.
    (carrier3_config(3), 2),
], ids=["desk-6", "beam3-19", "carrier3-3"])
def test_supply_uses_exactly_the_own_beam_carrier(modcod, config, own_count):
    scenario = generate_scenario(config)
    rates = compute_rate_table(scenario, modcod)
    plan = solve_bh(scenario, rates, adjacency_pairs(scenario), SolverOptions(node_limit=300))
    R = rates.rate_per_slot
    served = set()
    for cluster in scenario.clusters:
        l = cluster.id
        carriers = scenario.carriers_of_cluster(l)
        for ui, user in enumerate(scenario.users_of_cluster(l)):
            own = [ci for ci, c in enumerate(carriers) if c.beam_id == user.beam_id]
            ci = own[0] if own else 0
            if plan.user_slots[l, ui]:
                served.add(len(own))
            assert plan.user_supply[l, ui] == pytest.approx(
                plan.user_slots[l, ui] * R[l, ci, ui], rel=1e-12
            )
    # Some user with slots has ``own_count`` carriers on its beam.
    assert own_count in served


def _record_walk_capacity(scenario, rates):
    """Each carrier's mean rate over its beam's users, or over the whole
    cluster when its beam has none, summed per cluster, one record at a time."""
    caps = np.zeros(scenario.config.num_clusters)
    R = rates.rate_per_slot
    for cluster in scenario.clusters:
        users = scenario.users_of_cluster(cluster.id)
        for ci, carrier in enumerate(scenario.carriers_of_cluster(cluster.id)):
            own = [ui for ui, u in enumerate(users) if u.beam_id == carrier.beam_id]
            pool = own if own else range(len(users))
            caps[cluster.id] += float(np.mean([R[cluster.id, ci, ui] for ui in pool]))
    return caps


@pytest.mark.parametrize("make_config, empty_beams", [
    (tiny_config, 22),
    (carrier3_config, 40),
], ids=["tiny", "carrier3"])
def test_capacity_matches_record_walk_when_a_beam_is_empty(modcod, make_config, empty_beams):
    empty = 0
    for seed in range(1, 21):
        scenario = generate_scenario(make_config(seed))
        rates = compute_rate_table(scenario, modcod)
        assert cluster_slot_capacity(scenario, rates).tobytes() == _record_walk_capacity(scenario, rates).tobytes()
        user_beams = {u.beam_id for u in scenario.users}
        empty += sum(c.beam_id not in user_beams for c in scenario.carriers)
    assert empty == empty_beams


# sha256 over seeds 1-20 of each shape: sinr_db, rate_per_slot, the cluster
# capacities, the sorted adjacency pairs and the baseline's user_supply.
OWN_BEAM_SHA256 = {
    "beam3": "de35fda1284aed8a9ca8a782448c882f7d52ac85b3e01fbe50149333eae9e043",
    "carrier3": "24510aee7df69e34b56fcdd79f7431da91222eb8b6d66d35b1e2f8447df25ffb",
    "tiny": "64f3c6e0ff9d6453da516b074772f6cad655a96e7866e4714a1d17b93e0714ec",
}


@pytest.mark.parametrize("shape", sorted(OWN_BEAM_SHA256))
def test_own_beam_outputs_are_pinned(modcod, shape):
    make_config = {"tiny": tiny_config, "beam3": beam3_config, "carrier3": carrier3_config}[shape]
    digest = hashlib.sha256()
    for seed in range(1, 21):
        scenario = generate_scenario(make_config(seed))
        rates = compute_rate_table(scenario, modcod)
        pairs = adjacency_pairs(scenario)
        plan = solve_bh(scenario, rates, pairs, SolverOptions(node_limit=300))
        for arr in (rates.sinr_db, rates.rate_per_slot, cluster_slot_capacity(scenario, rates), plan.user_supply):
            digest.update(arr.tobytes())
        digest.update(repr(sorted(pairs)).encode())
    assert digest.hexdigest() == OWN_BEAM_SHA256[shape]


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

