import pytest

from bhca.linkbudget import ModcodTable, compute_rate_table
from bhca.model import build_model
from bhca.scenario import SystemConfig, adjacency_pairs, generate_scenario


def tiny_config(seed: int = 3, **overrides) -> SystemConfig:
    """2 clusters x 2 carriers x 2 users, 2 slots, N_T=1: 12 binaries."""
    base = dict(
        num_beams=4,
        num_clusters=2,
        beams_per_cluster=2,
        carriers_per_cluster=2,
        active_clusters_per_slot=1,
        slots_per_window=2,
        users_per_beam=1,
        rng_seed=seed,
    )
    base.update(overrides)
    return SystemConfig(**base)


def desk_config(seed: int = 11, **overrides) -> SystemConfig:
    base = dict(
        num_beams=8,
        num_clusters=4,
        beams_per_cluster=2,
        carriers_per_cluster=2,
        active_clusters_per_slot=2,
        slots_per_window=8,
        users_per_beam=4,
        rng_seed=seed,
    )
    base.update(overrides)
    return SystemConfig(**base)


def beam3_config(seed: int = 1, **overrides) -> SystemConfig:
    """Clusters of 3 beams and 2 carriers: one beam of each has no carrier."""
    base = dict(num_beams=9, num_clusters=3, beams_per_cluster=3, carriers_per_cluster=2,
                active_clusters_per_slot=1, slots_per_window=3, users_per_beam=1,
                num_transponders=8, rng_seed=seed)
    base.update(overrides)
    return SystemConfig(**base)


def carrier3_config(seed: int = 1, **overrides) -> SystemConfig:
    """Clusters of 2 beams and 3 carriers: one beam of each has two carriers."""
    base = dict(num_beams=6, num_clusters=3, beams_per_cluster=2, carriers_per_cluster=3,
                active_clusters_per_slot=2, slots_per_window=4, users_per_beam=1,
                num_transponders=8, rng_seed=seed)
    base.update(overrides)
    return SystemConfig(**base)


@pytest.fixture(scope="session")
def modcod() -> ModcodTable:
    return ModcodTable.default()


@pytest.fixture(scope="session")
def toy_modcod() -> ModcodTable:
    return ModcodTable.from_rows([(0.0, 1.0), (5.0, 2.0), (10.0, 4.0)])


def make_bundle(config: SystemConfig, modcod: ModcodTable):
    scenario = generate_scenario(config)
    rates = compute_rate_table(scenario, modcod)
    pairs = adjacency_pairs(scenario)
    model = build_model(scenario, rates, pairs)
    return scenario, rates, pairs, model


@pytest.fixture(scope="session")
def tiny_bundle(modcod):
    return make_bundle(tiny_config(3), modcod)


@pytest.fixture(scope="session")
def desk_bundle(modcod):
    return make_bundle(desk_config(11), modcod)
