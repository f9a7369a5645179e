"""Conventional beam-hopping comparator: slot allocation without carrier
aggregation, then per-cluster distribution of whole slots to users.

Stage 1 solves a reduced MILP over the illumination binaries only, with the
same max-min ratio objective restricted to cluster level. Stage 2 hands each
allocated slot wholly to one user on its own beam's carrier, so unused
per-slot capacity is never shared across users.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as _model
from .linkbudget import RateTable
from .model import (
    DEFAULT_EPSILON_TIEBREAK,
    GREATER,
    LESS,
    BaselineCatalog,
    InfeasibleSolutionError,
    ModelInstance,
    RowBuilder,
    index_labels,
)
from .scenario import Scenario
from .solver import MilpSolution, SolverOptions, solve_milp


def cluster_slot_capacity(scenario: Scenario, rates: RateTable) -> np.ndarray:
    """Per-slot capacity of each cluster with every carrier serving its beam.

    A carrier's contribution is the mean rate over its beam's users (cluster
    mean when the nearest-beam assignment left a beam empty).
    """
    L = scenario.config.num_clusters
    caps = np.zeros(L)
    R = rates.rate_per_slot
    for cluster in scenario.clusters:
        users = scenario.users_of_cluster(cluster.id)
        for ci, carrier in enumerate(scenario.carriers_of_cluster(cluster.id)):
            own = [ui for ui, u in enumerate(users) if u.beam_id == carrier.beam_id]
            pool = own if own else range(len(users))
            caps[cluster.id] += float(np.mean([R[cluster.id, ci, ui] for ui in pool]))
    return caps


def build_bh_model(scenario: Scenario, rates: RateTable, pairs) -> ModelInstance:
    """Stage-1 model: maximize the worst cluster ratio over illumination only.

    Rows: per-cluster ratio floors, the per-slot activation cap, and pairwise
    non-adjacency. The model carries the per-slot cluster capacities and
    cluster demands as its rate and demand data.
    """
    cfg = scenario.config
    L, T = cfg.num_clusters, cfg.slots_per_window
    cat = BaselineCatalog(L, T)
    caps = cluster_slot_capacity(scenario, rates)
    demand = scenario.demand_matrix().sum(axis=1)

    ratio = caps / demand
    z = cat.z
    ls, ts = index_labels("l", L), index_labels("t", T)
    rows = RowBuilder()
    rows.add(
        "RATIO", (ls,),
        np.concatenate([z, np.full((L, 1), cat.theta_col)], axis=1),
        np.concatenate([np.repeat(ratio[:, None], T, axis=1), np.full((L, 1), -1.0)], axis=1),
        GREATER, 0.0,
    )
    rows.add("C3", (ts,), z.T, 1.0, LESS, cfg.active_clusters_per_slot)
    sorted_pairs = sorted(tuple(p) for p in pairs)
    rows.add_exclusions(sorted_pairs, z, ts)

    objective = np.zeros(cat.num_cols)
    objective[cat.theta_col] = 1.0
    objective[z] = DEFAULT_EPSILON_TIEBREAK * ratio[:, None]

    lower = np.zeros(cat.num_cols)
    upper = np.ones(cat.num_cols)
    upper[cat.theta_col] = np.inf
    binary = np.zeros(cat.num_cols, dtype=bool)
    binary[z] = True

    return ModelInstance(
        catalog=cat,
        **rows.arrays(),
        objective=objective,
        lower=lower,
        upper=upper,
        binary=binary,
        rate_per_slot=caps,
        demand=demand,
        pairs=frozenset(sorted_pairs),
        active_clusters_per_slot=cfg.active_clusters_per_slot,
    )


def distribute_slots(n_slots: int, demands) -> list[int]:
    """Split a cluster's slot count across its users.

    More slots than users: proportional to demand with largest-remainder
    rounding, remainder ties to the lower user index. Otherwise one slot each
    to the highest-demand users until slots run out.
    """
    demands = [float(d) for d in demands]
    n_users = len(demands)
    counts = [0] * n_users
    if n_slots > n_users:
        total = sum(demands)
        quotas = [n_slots * d / total for d in demands]
        counts = [int(np.floor(q)) for q in quotas]
        leftover = n_slots - sum(counts)
        order = sorted(range(n_users), key=lambda u: (-(quotas[u] - counts[u]), u))
        for u in order[:leftover]:
            counts[u] += 1
    else:
        order = sorted(range(n_users), key=lambda u: (-demands[u], u))
        for u in order[:n_slots]:
            counts[u] = 1
    return counts


@dataclass(frozen=True)
class BhPlan:
    """Decoded conventional beam-hopping plan."""

    slots_per_cluster: tuple[tuple[int, ...], ...]
    user_slots: np.ndarray       # (L, U) slot counts
    user_supply: np.ndarray      # (L, U) bits per hopping window
    cluster_supply: np.ndarray   # (L,)
    min_cluster_ratio: float     # stage-1 theta
    stage1: MilpSolution

    def to_dict(self) -> dict:
        return {
            "slots_per_cluster": [list(s) for s in self.slots_per_cluster],
            "user_slots": self.user_slots.tolist(),
            "user_supply_bphw": self.user_supply.tolist(),
            "cluster_supply_bphw": self.cluster_supply.tolist(),
            "min_cluster_ratio": self.min_cluster_ratio,
            "stage1_objective": self.stage1.objective,
            "stage1_status": self.stage1.status,
        }


def user_carrier_index(scenario: Scenario, cluster_id: int, local_user: int) -> int:
    """Local index of the carrier on the user's own beam (lowest id wins)."""
    user = scenario.users_of_cluster(cluster_id)[local_user]
    for ci, carrier in enumerate(scenario.carriers_of_cluster(cluster_id)):
        if carrier.beam_id == user.beam_id:
            return ci
    return 0


def solve_bh(
    scenario: Scenario,
    rates: RateTable,
    pairs,
    options: SolverOptions | None = None,
    log=None,
) -> BhPlan:
    """Run both baseline stages and decode the resulting plan; raise
    ``InfeasibleSolutionError`` if the stage-1 point fails its rows."""
    cfg = scenario.config
    L, U = cfg.num_clusters, cfg.users_per_cluster
    model = build_bh_model(scenario, rates, pairs)
    stage1 = solve_milp(model, options, log=log)
    # Looked up on the module at call time, as ``decode_plan`` does, so
    # bench/tracing.py counts the audit under ``model.validate_s``.
    report = _model.validate_solution(model, stage1.values)
    if not report.empty:
        raise InfeasibleSolutionError(report)
    cat = model.catalog
    z = stage1.values[cat.z] > 0.5

    demand = scenario.demand_matrix()
    R = rates.rate_per_slot
    slots_per_cluster = tuple(tuple(int(t) for t in np.nonzero(z[l])[0]) for l in range(L))
    user_slots = np.zeros((L, U), dtype=np.int64)
    user_supply = np.zeros((L, U))
    for l in range(L):
        counts = distribute_slots(len(slots_per_cluster[l]), demand[l])
        for u in range(U):
            user_slots[l, u] = counts[u]
            ci = user_carrier_index(scenario, l, u)
            user_supply[l, u] = counts[u] * R[l, ci, u]
    cluster_supply = user_supply.sum(axis=1)
    for arr in (user_slots, user_supply, cluster_supply):
        arr.flags.writeable = False
    return BhPlan(
        slots_per_cluster=slots_per_cluster,
        user_slots=user_slots,
        user_supply=user_supply,
        cluster_supply=cluster_supply,
        min_cluster_ratio=float(stage1.values[cat.theta_col]),
        stage1=stage1,
    )
