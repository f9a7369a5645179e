import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest

from bhca.cli import resolve_config_path
from bhca.scenario import (
    ADJACENCY_FACTOR,
    Beam,
    Cluster,
    ConfigError,
    Scenario,
    SystemConfig,
    adjacency_pairs,
    config_from_dict,
    generate_scenario,
    load_config,
)

from conftest import beam3_config, carrier3_config, desk_config, tiny_config


def test_seeded_generation_is_byte_identical():
    cfg = tiny_config(seed=7)
    a = generate_scenario(cfg)
    b = generate_scenario(cfg)
    assert a.snapshot_json() == b.snapshot_json()


# sha256 of ``scenario.json`` for the shipped configs, pinned from the
# ``dataclasses.asdict`` serializer; the snapshot must keep its bytes.
SNAPSHOT_SHA256 = {
    ("desk", 1): "a0764ff20879d65664a6d8d882d1746884a93169a7d721338b8861f145aea685",
    ("table2", 7): "925b04e42bcc7edb357474c67c73f4e2ea76c51dcd49a7db00055d037dae0b20",
}


@pytest.mark.parametrize("config,seed", sorted(SNAPSHOT_SHA256))
def test_snapshot_json_is_pinned(config, seed):
    cfg = dataclasses.replace(load_config(resolve_config_path(config)), rng_seed=seed)
    text = generate_scenario(cfg).snapshot_json()
    assert hashlib.sha256(text.encode()).hexdigest() == SNAPSHOT_SHA256[config, seed]


def test_sixteen_beams_two_per_cluster_gives_eight_clusters():
    cfg = SystemConfig(rng_seed=1)
    assert cfg.num_beams == 16
    scenario = generate_scenario(cfg)
    assert len(scenario.clusters) == 8


def test_high_demand_count_rounds_to_nearest():
    # 4 beams x 10 users = 40 users; 30% -> exactly 12 flagged high.
    cfg = tiny_config(seed=5, users_per_beam=10)
    scenario = generate_scenario(cfg)
    assert len(scenario.users) == 40
    assert sum(u.high_demand for u in scenario.users) == 12


def test_demands_are_positive_and_high_band_separated():
    scenario = generate_scenario(desk_config(seed=2))
    demands = np.array([u.demand_bphw for u in scenario.users])
    assert np.all(demands > 0)
    high = np.array([u.high_demand for u in scenario.users])
    # Band edges: high multipliers start at 2x the share, low stop at 1x.
    assert demands[high].min() > demands[~high].max()


def test_clusters_partition_beams():
    for seed in (1, 2, 9):
        scenario = generate_scenario(desk_config(seed=seed))
        seen = [b for cl in scenario.clusters for b in cl.beam_ids]
        assert sorted(seen) == list(range(scenario.config.num_beams))


def test_users_belong_to_exactly_one_cluster():
    scenario = generate_scenario(tiny_config(4))
    owners = {}
    for cl in scenario.clusters:
        for u in cl.user_ids:
            assert u not in owners
            owners[u] = cl.id
    assert sorted(owners) == [u.id for u in scenario.users]
    for user in scenario.users:
        assert owners[user.id] == user.cluster_id


def test_carriers_have_opposite_polarization():
    scenario = generate_scenario(tiny_config(3))
    for cl in scenario.clusters:
        pols = [scenario.carriers[c].polarization for c in cl.carrier_ids]
        assert sorted(pols) == ["LHCP", "RHCP"]


def test_invalid_config_raises_naming_invariant():
    cfg = tiny_config(3, active_clusters_per_slot=2)  # N_T == L
    with pytest.raises(ConfigError, match="active_clusters_per_slot must be < num_clusters"):
        generate_scenario(cfg)


def test_config_from_dict_rejects_missing_and_unknown_keys():
    doc = SystemConfig().to_dict()
    del doc["carrier_bandwidth"]
    with pytest.raises(ConfigError, match="carrier_bandwidth"):
        config_from_dict(doc)
    doc = SystemConfig().to_dict()
    doc["no_such_knob"] = 1
    with pytest.raises(ConfigError, match="no_such_knob"):
        config_from_dict(doc)


def _hand_scenario(cluster_beams, pitch=1.0):
    """Build a bare scenario with the given beam positions per cluster."""
    beams = []
    clusters = []
    for l, coords in enumerate(cluster_beams):
        ids = []
        for (x, y) in coords:
            beams.append(Beam(len(beams), x, y))
            ids.append(beams[-1].id)
        clusters.append(Cluster(id=l, beam_ids=tuple(ids), carrier_ids=(), user_ids=()))
    cfg = dataclasses.replace(SystemConfig(), beam_pitch_km=pitch)
    return Scenario(config=cfg, beams=tuple(beams), clusters=tuple(clusters),
                    carriers=(), users=())


def test_adjacency_single_cluster_is_empty():
    scenario = _hand_scenario([[(0.0, 0.0), (1.0, 0.0)]])
    assert adjacency_pairs(scenario) == frozenset()


def test_adjacency_two_bordering_clusters():
    scenario = _hand_scenario([
        [(0.0, 0.0), (1.0, 0.0)],
        [(2.0, 0.0), (3.0, 0.0)],
    ])
    assert adjacency_pairs(scenario) == frozenset({(0, 1)})


def test_adjacency_is_symmetric_and_canonical():
    scenario = generate_scenario(desk_config(1))
    pairs = adjacency_pairs(scenario)
    for (a, b) in pairs:
        assert a < b


# Hand-derived from the 4x4 hex lattice with 50 km pitch: horizontal pair
# clusters per row; a pair is adjacent iff some beams sit one pitch apart
# (the second ring is at sqrt(3) x pitch = 86.6 km > 75 km threshold).
SIXTEEN_BEAM_ADJACENCY = [
    (0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (2, 5),
    (3, 5), (4, 5), (4, 6), (5, 6), (5, 7), (6, 7),
]


def test_adjacency_sixteen_beam_fixture():
    scenario = generate_scenario(SystemConfig(rng_seed=1))
    assert sorted(adjacency_pairs(scenario)) == SIXTEEN_BEAM_ADJACENCY


def _record_walk_pairs(scenario):
    """Cluster pairs whose closest beams sit within the radius, pair by pair."""
    xy = {b.id: (b.x_km, b.y_km) for b in scenario.beams}
    threshold = ADJACENCY_FACTOR * scenario.config.beam_pitch_km
    return {
        (a.id, b.id)
        for a, b in itertools.combinations(scenario.clusters, 2)
        if min(math.hypot(xy[i][0] - xy[j][0], xy[i][1] - xy[j][1])
               for i in a.beam_ids for j in b.beam_ids) < threshold
    }


@pytest.mark.parametrize("config", [
    tiny_config(), desk_config(), beam3_config(), carrier3_config(), SystemConfig(),
    SystemConfig(num_beams=18, num_clusters=6, beams_per_cluster=3),
])
def test_adjacency_matches_record_walk(config):
    scenario = generate_scenario(config)
    assert adjacency_pairs(scenario) == _record_walk_pairs(scenario)


def test_users_inside_cluster_footprint():
    scenario = generate_scenario(desk_config(3))
    xy = {b.id: (b.x_km, b.y_km) for b in scenario.beams}
    radius = scenario.config.beam_pitch_km / math.sqrt(3.0) + 1e-9
    for user in scenario.users:
        cluster = scenario.clusters[user.cluster_id]
        dist = min(
            math.hypot(user.x_km - xy[b][0], user.y_km - xy[b][1])
            for b in cluster.beam_ids
        )
        assert dist <= radius
        assert user.beam_id in cluster.beam_ids
