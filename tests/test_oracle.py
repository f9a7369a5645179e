"""The bounded enumeration oracle against the exhaustive loop it replaces.

``exhaustive_oracle`` solves the inner LP of every (slot-count vector,
carrier assignment) pair. ``brute_force`` must return its plan byte for byte
and hand the simplex only LPs of its stream, and no LP may report more than
the bound ``brute_force`` prunes it by.
"""
import dataclasses
import hashlib
import itertools
import time
import tracemalloc

import numpy as np
import pytest

from bhca.linkbudget import compute_rate_table
from bhca.model import LESS, RowBuilder, VariableCatalog, block_grids, build_model, index_labels
from bhca.scenario import SystemConfig, adjacency_pairs, generate_scenario
from bhca.simplex import solve_dense_batch
from bhca.solver import (ORACLE_BATCH_BYTES, MilpSolution, _dense, _floor_rows, _oracle_bounds, brute_force,
                         solve_milp)

from conftest import make_bundle, tiny_config
from test_properties import THREE_CARRIERS


def exhaustive_oracle(model, solve_batch=solve_dense_batch, record=None):
    """``brute_force`` without bounds: every pair's LP is solved, each count
    vector's assignments in batches of at most ``ORACLE_BATCH_BYTES`` of
    tableau, and the first LP in enumeration order with the highest
    objective wins. ``record(n_active, mask, sol)`` sees every LP's count
    vector, carrier mask (L, C, U) and solution."""
    cat = model.catalog
    assert isinstance(cat, VariableCatalog)
    L, C, U, T = cat.num_clusters, cat.num_carriers, cat.num_users, cat.num_slots
    subsets = lambda k: (np.arange(2 ** k)[:, None] >> np.arange(k)) & 1
    slot_masks = subsets(L)
    keep = slot_masks.sum(axis=1) <= model.active_clusters_per_slot
    for l1, l2 in model.pairs:
        keep &= (slot_masks[:, l1] & slot_masks[:, l2]) == 0
    slot_masks = slot_masks[keep].astype(float)
    set_masks = subsets(C)
    set_masks = set_masks[set_masks.sum(axis=1) <= model.delta_max].astype(bool)
    n_assign = len(set_masks) ** (L * U)

    beta, tu, tl, th = block_grids([(L, C, U), (L,), (), ()])
    n_cols = th + 1
    axes = tuple(index_labels(p, k) for p, k in (("l", L), ("c", C), ("u", U)))
    user_coef = model.rate_per_slot / model.demand[:, None, :]
    cluster_coef = model.rate_per_slot / model.demand.sum(axis=1)[:, None, None]
    c_obj = np.zeros(n_cols)
    c_obj[th] = 1.0
    c_obj[tu] = model.epsilon_tiebreak
    c_obj[tl] = model.epsilon_tiebreak

    best_obj, best, evaluated, counts_seen = -np.inf, None, 0, set()
    for schedule in itertools.product(range(len(slot_masks)), repeat=T):
        z = slot_masks[list(schedule)].T
        n_active = z.sum(axis=1)
        if tuple(n_active) in counts_seen:
            continue
        counts_seen.add(tuple(n_active))
        rows = RowBuilder()
        rows.add("C2", axes[:2], beta, 1.0, LESS, 1.0)
        scale = n_active[:, None, None]
        _floor_rows(rows, axes, beta, tu, tl, th, user_coef * scale, cluster_coef * scale)
        A, senses, b = _dense(rows.arrays(), n_cols)
        lps_per_batch = max(1, ORACLE_BATCH_BYTES // (8 * len(b) * (n_cols + 2 * len(b))))
        for start in range(0, n_assign, lps_per_batch):
            digits = np.stack(np.unravel_index(
                np.arange(start, min(start + lps_per_batch, n_assign)),
                (len(set_masks),) * (L * U)), axis=1)
            assigned = set_masks[digits].reshape(-1, L, U, C).transpose(0, 1, 3, 2).reshape(-1, beta.size)
            lo = np.zeros((len(digits), n_cols))
            lo[:, beta.ravel()] = np.where(assigned, model.epsilon_fill, 0.0)
            hi = np.full((len(digits), n_cols), np.inf)
            hi[:, beta.ravel()] = assigned
            for mask, sol in zip(assigned, solve_batch(c_obj, A, senses, b, lo, hi)):
                evaluated += 1
                if record is not None:
                    record(n_active, mask.reshape(L, C, U), sol)
                if sol.status == "optimal" and sol.objective > best_obj:
                    best_obj, best = sol.objective, (z, mask, sol.values)

    if best is None:
        return MilpSolution(np.zeros(model.num_cols), -np.inf, "infeasible", evaluated, 0.0, np.inf)
    z, mask, inner = best
    x = np.zeros(model.num_cols)
    fills = inner[beta]
    x[cat.a] = mask.reshape(L, C, U)
    x[cat.beta] = fills
    x[cat.q] = fills[:, :, :, None] * z[:, None, None, :]
    x[cat.z] = z
    x[cat.tu] = inner[tu]
    x[cat.tl_col] = inner[tl]
    x[cat.theta_col] = inner[th]
    return MilpSolution(x, float(best_obj), "optimal", evaluated, 0.0, 0.0)


def _zero_rate_model(seed, modcod):
    """A tiny model whose first user of cluster 1 has rate 0 on every
    carrier: every LP has theta = 0 and only the tie-break tells them apart."""
    scenario = generate_scenario(tiny_config(seed))
    rates = compute_rate_table(scenario, modcod)
    rate = rates.rate_per_slot.copy()
    rate[0, :, 0] = 0.0
    rates = dataclasses.replace(rates, rate_per_slot=rate)
    return build_model(scenario, rates, adjacency_pairs(scenario))


CASES = (
    [("tiny", seed) for seed in range(1, 41)]
    + [("tiny-delta1", seed) for seed in range(1, 21)]
    + [(f"three-carriers-delta{d}", seed) for d in (1, 2) for seed in range(1, 11)]
    + [("zero-rate", seed) for seed in range(1, 6)]
)


def _case_model(modcod, family, seed):
    if family == "zero-rate":
        return _zero_rate_model(seed, modcod)
    if family.startswith("three-carriers"):
        config = SystemConfig(rng_seed=seed, delta_max=int(family[-1]), **THREE_CARRIERS)
    else:
        config = tiny_config(seed, delta_max=1) if family == "tiny-delta1" else tiny_config(seed)
    return make_bundle(config, modcod)[3]


@pytest.mark.parametrize("family,seed", CASES, ids=[f"{f}-{s}" for f, s in CASES])
def test_bounded_oracle_returns_the_exhaustive_plan(modcod, family, seed):
    model = _case_model(modcod, family, seed)
    got, want = brute_force(model), exhaustive_oracle(model)
    assert got.status == want.status == "optimal"
    assert got.values.tobytes() == want.values.tobytes()
    assert got.objective == want.objective
    assert got.nodes_explored == want.nodes_explored


@pytest.mark.parametrize("seed", range(1, 6))
def test_no_lp_reports_more_than_its_bound(modcod, seed):
    model = make_bundle(tiny_config(seed), modcod)[3]
    user_coef = model.rate_per_slot / model.demand[:, None, :]
    cluster_coef = model.rate_per_slot / model.demand.sum(axis=1)[:, None, None]
    seen = []

    def record(n_active, mask, sol):
        # Supplies at full fill, from the mask alone.
        user = np.where(mask, user_coef, 0.0).sum(axis=1).min(axis=1)
        cluster = np.where(mask, cluster_coef, 0.0).max(axis=2).sum(axis=1)
        bound = _oracle_bounds(user[:, None], cluster[:, None], n_active[None], model.epsilon_tiebreak)
        seen.append((sol.status, sol.objective, float(bound[0, 0])))

    exhaustive_oracle(model, record=record)
    assert len(seen) == 1536
    for status, objective, bound in seen:
        assert status != "optimal" or objective <= bound


def _lp_digests(solve_batch, digests):
    """``solve_batch`` that adds one sha256 per LP it solves to ``digests``:
    ``c, A, senses, b`` and the LP's lower and upper bound rows."""
    def recorded(c, A, senses, b, lowers, uppers):
        shared = b"".join(np.ascontiguousarray(part).tobytes()
                          for part in (c, A, np.asarray(senses, dtype="<U2"), b))
        for lo, hi in zip(lowers, uppers):
            digests.append(hashlib.sha256(shared + lo.tobytes() + hi.tobytes()).hexdigest())
        return solve_batch(c, A, senses, b, lowers, uppers)
    return recorded


@pytest.mark.parametrize("family,seed", [("tiny", 1), ("tiny", 2), ("tiny-delta1", 1), ("three-carriers-delta2", 1),
                                         ("zero-rate", 1)])
def test_oracle_hands_over_only_lps_of_the_exhaustive_stream(modcod, monkeypatch, family, seed):
    model = _case_model(modcod, family, seed)
    every, handed = [], []
    exhaustive_oracle(model, solve_batch=_lp_digests(solve_dense_batch, every))
    monkeypatch.setattr("bhca.solver.solve_dense_batch", _lp_digests(solve_dense_batch, handed))
    monkeypatch.setattr("bhca.solver.solve_dense", None)   # the oracle solves in batches only
    brute_force(model)
    assert len(set(every)) == len(every)
    assert handed and len(set(handed)) == len(handed)
    assert set(handed) <= set(every)


def test_oracle_matches_the_count_route_on_twenty_binaries(modcod):
    # Two users per beam: 20 binaries and 393,216 patterns, which the
    # exhaustive loop needs ~16 s for. The bounded oracle spends ~1.5 s of
    # CPU time on the three seeds; the gate leaves room for a loaded machine.
    spent = 0.0
    for seed in (1, 2, 3):
        model = make_bundle(tiny_config(seed, users_per_beam=2), modcod)[3]
        assert model.binary.sum() == 20
        t0 = time.process_time()
        oracle = brute_force(model)
        spent += time.process_time() - t0
        route = solve_milp(model)
        assert oracle.status == route.status == "optimal"
        assert oracle.objective == pytest.approx(route.objective, abs=1e-6)
        assert oracle.nodes_explored == 393_216
    assert spent < 4.0


def test_oracle_bounds_twenty_binaries_in_little_memory(modcod):
    # The bounds go a batch of assignments at a time: bounding all 65,536
    # assignments of the 6 count vectors at once would hold (6, 2, 65,536)
    # temporaries of 6 MiB each. The peak hardly depends on the seed (0.3-0.4
    # MiB on seeds 1-3), and tracing makes the solve ~10x slower.
    model = make_bundle(tiny_config(2, users_per_beam=2), modcod)[3]
    tracemalloc.start()
    try:
        brute_force(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
