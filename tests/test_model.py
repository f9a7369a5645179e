import dataclasses
import hashlib
import re

import numpy as np
import pytest

import bhca
from bhca.baseline import build_bh_model
from bhca.cli import resolve_config_path
from bhca.linkbudget import compute_rate_table
from bhca.lp_format import export_lp
from bhca.model import (
    EQUAL,
    GREATER,
    LESS,
    SENSES,
    BaselineCatalog,
    GridNames,
    InfeasibleSolutionError,
    ModelInstance,
    RowBuilder,
    StructuralError,
    VariableCatalog,
    ViolationReport,
    block_grids,
    build_model,
    chain_terms,
    decode_plan,
    stack_terms,
    validate_solution,
)
from bhca.scenario import adjacency_pairs, generate_scenario, load_config
from bhca.solver import _dense, brute_force, solve_milp

from conftest import make_bundle, tiny_config

# sha256 of export_lp of the tiny fixture model (seed 3); catches any silent
# change to column order, coefficients, bounds or tags.
TINY_MODEL_HASH = "03fb7d2a6a233977a7bf3aef94066685ca2e98ff5f48016a4304dfb2960b4bd4"


def test_every_public_name_resolves():
    # A stale __all__ entry would break `from bhca import *`.
    for name in bhca.__all__:
        assert getattr(bhca, name, None) is not None, name


def _family_counts(model):
    counts = {}
    for tag in model.tags:
        fam = tag.split("_")[0]
        counts[fam] = counts.get(fam, 0) + 1
    return counts


def test_constraint_family_counts(tiny_bundle):
    scenario, rates, pairs, model = tiny_bundle
    counts = _family_counts(model)
    # L=2, C=2, U=2, T=2 index spaces.
    assert counts["C1"] == 4
    assert counts["C2"] == 4
    assert counts["C3"] == 2
    assert counts["C4"] == 4
    assert counts["C5"] == 2
    assert counts["C6"] == 2 * len(pairs)
    assert counts["C7a"] == 8 and counts["C7b"] == 8
    assert counts["C8a"] == 2 and counts["C8b"] == 1
    assert counts["C9a"] == counts["C9b"] == counts["C9c"] == counts["C9d"] == 16
    assert counts["C9a"] * 4 == 64


def test_exactly_one_tl_column_and_c8b_row(tiny_bundle):
    _, _, _, model = tiny_bundle
    cat = model.catalog
    assert cat.names[cat.tl_col] == "tL"
    assert list(model.tags).count("C8b") == 1
    names = list(cat.names)
    assert names.count("tL") == 1 and names.count("theta") == 1


def test_row_tags_read_by_index_match_their_order(tiny_bundle):
    _, _, _, model = tiny_bundle
    tags = model.tags
    assert len(tags) == model.num_rows
    assert [tags[i] for i in range(len(tags))] == list(tags)
    assert tags[0] == "C1_l1_u1" and tags[-1] == "C9d_l2_c2_u2_t2"
    with pytest.raises(IndexError):
        tags[len(tags)]


def test_tags_iterate_as_read_by_index(modcod):
    cfg = dataclasses.replace(load_config(resolve_config_path("desk")), rng_seed=1)
    _, _, _, desk = make_bundle(cfg, modcod)
    rows = RowBuilder()
    rows.add("a", (), [0], 1.0, LESS, 1.0)
    rows.add("b_1", (), [], 1.0, LESS, 0.0)
    hand_built = ModelInstance(
        catalog=_NamedColumns(), **rows.arrays(),
        objective=np.zeros(1), lower=np.zeros(1), upper=np.ones(1), binary=np.zeros(1, dtype=bool),
    )
    # Column names come from the same renderer; table2 has two-digit user
    # and slot indices.
    big = load_config(resolve_config_path("table2"))
    L, T = big.num_clusters, big.slots_per_window
    C, U = big.carriers_per_cluster, big.users_per_cluster
    table2 = VariableCatalog(L, C, U, T)
    for names in (desk.tags, hand_built.tags, desk.catalog.names, table2.names,
                  BaselineCatalog(L, T).names):
        assert list(names) == [names[i] for i in range(len(names))]
    assert table2.names[table2.q[L - 1, C - 1, U - 1, T - 1]] == f"q_{L}_{C}_{U}_{T}"


def _catalog(case):
    config = tiny_config(3) if case == "tiny" else load_config(resolve_config_path(case.split("-")[0]))
    L, T = config.num_clusters, config.slots_per_window
    if case.endswith("-bh"):
        return BaselineCatalog(L, T)
    return VariableCatalog(L, config.carriers_per_cluster, config.users_per_cluster, T)


@pytest.mark.parametrize("case", ["tiny", "desk", "table2", "table2-bh"])
def test_column_grids_tile_the_names(case):
    cat = _catalog(case)
    if isinstance(cat, BaselineCatalog):
        grids = {"z": cat.z, "theta": cat.theta_col}
    else:
        grids = {"a": cat.a, "beta": cat.beta, "q": cat.q, "z": cat.z, "tU": cat.tu,
                 "tL": cat.tl_col, "theta": cat.theta_col}
        starts = [cat.off_a, cat.off_beta, cat.off_q, cat.off_z, cat.off_tu, cat.off_tl]
        assert starts == [int(np.min(grid)) for grid in list(grids.values())[:6]]
    assert isinstance(cat.theta_col, int)
    every = np.concatenate([np.ravel(grid) for grid in grids.values()])
    assert np.array_equal(np.sort(every), np.arange(cat.num_cols))
    for head, grid in grids.items():
        grid = np.asarray(grid)
        for cell in (tuple(0 for _ in grid.shape), tuple(n - 1 for n in grid.shape),
                     tuple(n // 2 for n in grid.shape)):
            assert cat.names[grid[cell]] == "_".join([head, *(str(k + 1) for k in cell)])
    if isinstance(cat, BaselineCatalog):
        assert cat.z_col(cat.num_clusters - 1, 1) == cat.z[-1, 1]


def _families(cat, x):
    """The families of the point ``x``, read through the grids, as ``encode`` takes them."""
    if isinstance(cat, BaselineCatalog):
        return x[cat.z], x[cat.theta_col]
    return x[cat.a], x[cat.beta], x[cat.z], x[cat.tu], x[cat.tl_col], x[cat.theta_col]


@pytest.mark.parametrize("config, seed, route", [
    *(("tiny", seed, route) for seed in (1, 2, 3) for route in ("joint", "bh", "oracle")),
    ("desk", 1, "joint"), ("desk", 1, "bh"), ("table2", 7, "bh"),
], ids=str)
def test_encode_gives_back_the_solvers_points(config, seed, route, modcod):
    if config == "tiny":
        config = tiny_config(seed)
    else:
        config = dataclasses.replace(load_config(resolve_config_path(config)), rng_seed=seed)
    scenario, rates, pairs, model = make_bundle(config, modcod)
    if route == "bh":
        model = build_bh_model(scenario, rates, pairs)
    x = (brute_force if route == "oracle" else solve_milp)(model).values
    encoded = model.catalog.encode(*_families(model.catalog, x))
    assert encoded.view(np.uint64).tolist() == x.view(np.uint64).tolist()


def test_encode_puts_each_family_on_its_named_columns():
    L, C, U, T = 2, 3, 4, 5
    cat = VariableCatalog(L, C, U, T)

    def encoded_names(**ones):
        """Names of the nonzero columns when each family in ``ones`` holds a 1 at its cell."""
        families = dict(a=np.zeros((L, C, U)), beta=np.zeros((L, C, U)), z=np.zeros((L, T)),
                        tu=np.zeros(L), tl=0.0, theta=0.0)
        for family, cell in ones.items():
            if cell == ():
                families[family] = 1.0
            else:
                families[family][cell] = 1.0
        return [cat.names[j] for j in np.flatnonzero(cat.encode(**families))]

    assert encoded_names(a=(1, 2, 3)) == ["a_2_3_4"]
    assert encoded_names(beta=(1, 2, 3)) == ["beta_2_3_4"]
    assert encoded_names(z=(1, 4)) == ["z_2_5"]
    assert encoded_names(tu=1) == ["tU_2"]
    assert encoded_names(tl=()) == ["tL"]
    assert encoded_names(theta=()) == ["theta"]
    # A lit fill makes its product: q = beta * z.
    assert encoded_names(beta=(1, 2, 3), z=(1, 4)) == ["beta_2_3_4", "q_2_3_4_5", "z_2_5"]
    assert encoded_names(beta=(1, 2, 3), z=(0, 4)) == ["beta_2_3_4", "z_1_5"]

    bh = BaselineCatalog(3, 4)
    z = np.zeros((3, 4))
    z[2, 1] = 1.0
    assert [bh.names[j] for j in np.flatnonzero(bh.encode(z, 0.0))] == ["z_3_2"]
    assert [bh.names[j] for j in np.flatnonzero(bh.encode(np.zeros((3, 4)), 1.0))] == ["theta"]


def test_assignment_and_fill_carry_no_time_axis(tiny_bundle):
    _, _, _, model = tiny_bundle
    cat = model.catalog
    lcu = cat.num_clusters * cat.num_carriers * cat.num_users
    assert cat.off_beta - cat.off_a == lcu
    assert cat.off_q - cat.off_beta == lcu
    assert cat.off_z - cat.off_q == lcu * cat.num_slots


def test_model_hash_matches_golden(tiny_bundle):
    _, _, _, model = tiny_bundle
    assert hashlib.sha256(export_lp(model).encode()).hexdigest() == TINY_MODEL_HASH


def test_rate_shape_mismatch_raises(tiny_bundle, modcod):
    scenario, _, pairs, _ = tiny_bundle
    other = generate_scenario(tiny_config(3, users_per_beam=2))
    rates = compute_rate_table(other, modcod)
    with pytest.raises(StructuralError):
        build_model(scenario, rates, pairs)


def test_nonpositive_demand_raises(modcod):
    cfg = dataclasses.replace(load_config(resolve_config_path("desk")), rng_seed=1)
    scenario = generate_scenario(cfg)
    users = list(scenario.users)
    users[3] = dataclasses.replace(users[3], demand_bphw=0.0)
    scenario = dataclasses.replace(scenario, users=tuple(users))
    rates = compute_rate_table(scenario, modcod)
    with pytest.raises(StructuralError, match=re.escape("user demand must be positive (cluster 0, user 3)")):
        build_model(scenario, rates, adjacency_pairs(scenario))


def test_all_zeros_assignment_is_feasible(tiny_bundle):
    _, _, _, model = tiny_bundle
    report = validate_solution(model, np.zeros(model.num_cols))
    assert report.empty


def test_fill_without_assignment_reports_c7a(tiny_bundle):
    _, _, _, model = tiny_bundle
    cat = model.catalog
    x = np.zeros(model.num_cols)
    x[cat.beta[0, 0, 0]] = 0.5
    report = validate_solution(model, x)
    tags = {tag for tag, _ in report.entries}
    assert "C7a_l1_c1_u1" in tags


def test_wrong_assignment_length_raises(tiny_bundle):
    _, _, _, model = tiny_bundle
    with pytest.raises(StructuralError):
        validate_solution(model, np.zeros(model.num_cols - 1))


def test_integrality_violations_reported(tiny_bundle):
    _, _, _, model = tiny_bundle
    cat = model.catalog
    x = np.zeros(model.num_cols)
    x[cat.z[0, 0]] = 0.4
    report = validate_solution(model, x)
    assert any(tag.startswith("integrality_z_1_1") for tag, _ in report.entries)


def test_empty_report_reads_no_violations():
    assert str(ViolationReport(())) == "no violations"


def test_bound_violations_name_their_columns(tiny_bundle):
    _, _, _, model = tiny_bundle
    cat = model.catalog
    x = np.zeros(model.num_cols)
    x[cat.beta[0, 0, 0]] = 1.5
    x[cat.tl_col] = -1.0
    report = validate_solution(model, x)
    bounds = [(tag, v) for tag, v in report.entries if tag.startswith("bound_")]
    assert bounds == [("bound_tL", 1.0), ("bound_beta_1_1_1", 0.5)]


class _NamedColumns:
    names = GridNames([("x0", ()), ("x1", ())])


@pytest.mark.parametrize("position", [0, 1, 2])
def test_empty_row_in_any_position_reads_zero(position):
    blocks = [("pair", (), [0, 1], [1.0, 2.0], LESS, 3.0), ("single", (), [1], 1.0, GREATER, 0.5)]
    blocks.insert(position, ("empty", (), [], 1.0, GREATER, 1.0))
    rows = RowBuilder()
    for block in blocks:
        rows.add(*block)
    model = ModelInstance(
        catalog=_NamedColumns(), **rows.arrays(), objective=np.zeros(2),
        lower=np.zeros(2), upper=np.ones(2), binary=np.zeros(2, dtype=bool),
    )
    x = np.array([1.0, 1.0])
    expected = [3.0, 1.0]
    expected.insert(position, 0.0)
    assert model.row_values(x).tolist() == expected
    assert validate_solution(model, x).entries == (("empty", 1.0),)


@pytest.mark.parametrize("sense", ["<==", ">=x", "=<", "==", "<", ""])
def test_unknown_sense_is_refused(sense):
    # Senses used to be stored as two-character strings: "<==" read "<=".
    with pytest.raises(ValueError, match=re.escape(f"block x has sense {sense!r}")):
        RowBuilder().add("x", (), [0], 1.0, sense, 1.0)
    with pytest.raises(ValueError, match=re.escape(f"block y has sense {sense!r}")):
        RowBuilder().add("y", (("1", "2"),), [[0], [1]], 1.0, np.array(["<=", sense]), 1.0)


def test_every_known_sense_is_kept():
    rows = RowBuilder()
    rows.add("x", (("1", "2", "3"),), [[0], [1], [0]], 1.0, [LESS, GREATER, EQUAL], 1.0)
    assert rows.arrays()["senses"].tolist() == [LESS, GREATER, EQUAL]


def test_senses_are_int8_codes_into_the_sense_table(modcod):
    _, _, _, model = make_bundle(tiny_config(1), modcod)
    assert model.senses.dtype == np.int8
    assert [SENSES[code] for code in (LESS, GREATER, EQUAL)] == ["<=", ">=", "="]
    rows = RowBuilder()
    rows.add("x", (("1", "2", "3"),), [[0], [1], [0]], 1.0, ["=", "<=", ">="], 1.0)
    assert rows.arrays()["senses"].tolist() == [EQUAL, LESS, GREATER]


class _FakeSolution:
    def __init__(self, values, objective=0.0):
        self.values = values
        self.objective = objective


def test_decode_zero_illumination_gives_zero_supplies(tiny_bundle):
    scenario, _, _, model = tiny_bundle
    plan = decode_plan(model, _FakeSolution(np.zeros(model.num_cols)), scenario)
    assert np.all(plan.user_supply == 0.0)
    assert np.all(plan.cluster_supply == 0.0)
    assert plan.schedule == ((), ())


def test_decode_single_user_full_fill_supplies_nts_times_rate(tiny_bundle):
    scenario, rates, _, model = tiny_bundle
    cat = model.catalog
    x = np.zeros(model.num_cols)
    # Cluster 0, carrier 0, user 0 fully served in every slot.
    x[cat.a[0, 0, 0]] = 1.0
    x[cat.beta[0, 0, 0]] = 1.0
    x[cat.z[0]] = 1.0
    x[cat.q[0, 0, 0]] = 1.0
    plan = decode_plan(model, _FakeSolution(x), scenario)
    expected = cat.num_slots * rates.rate_per_slot[0, 0, 0]
    assert plan.user_supply[0, 0] == pytest.approx(expected, rel=1e-12)
    assert plan.schedule[0] == tuple(range(cat.num_slots))
    assert plan.carrier_sets[0][0] == (0,)


def test_decode_refuses_infeasible_with_report(tiny_bundle):
    scenario, _, _, model = tiny_bundle
    cat = model.catalog
    x = np.zeros(model.num_cols)
    x[cat.beta[0, 0, 0]] = 0.7  # violates C7a
    with pytest.raises(InfeasibleSolutionError) as err:
        decode_plan(model, _FakeSolution(x), scenario)
    assert not err.value.report.empty


def test_nonfinite_entries_are_reported(tiny_bundle):
    scenario, _, _, model = tiny_bundle
    cat = model.catalog
    x = np.zeros(model.num_cols)
    x[cat.beta[0, 0, 0]] = np.nan
    x[cat.theta_col] = np.inf
    report = validate_solution(model, x)
    assert [tag for tag, _ in report.entries] == ["nonfinite_beta_1_1_1", "nonfinite_theta"]
    assert len(validate_solution(model, np.full(model.num_cols, np.nan)).entries) == model.num_cols
    with pytest.raises(InfeasibleSolutionError, match="nonfinite_beta_1_1_1"):
        decode_plan(model, _FakeSolution(x), scenario)


def test_decode_supplies_match_beta_z_recomputation(tiny_bundle):
    # Supplies decoded from q must equal the direct beta*z*rate product.
    scenario, rates, _, model = tiny_bundle
    solution = solve_milp(model)
    plan = decode_plan(model, solution, scenario)
    cat = model.catalog
    beta = solution.values[cat.beta]
    z = solution.values[cat.z]
    direct = np.einsum("lcu,lt,lcu->lu", beta, z, rates.rate_per_slot)
    assert np.allclose(plan.user_supply, direct, rtol=0, atol=1e-6)
    assert np.allclose(plan.cluster_supply, direct.sum(axis=1), rtol=0, atol=1e-6)


def test_objective_is_theta_plus_tiebreak(tiny_bundle):
    _, _, _, model = tiny_bundle
    cat = model.catalog
    obj = model.objective
    assert obj[cat.theta_col] == 1.0
    assert obj[cat.tl_col] == model.epsilon_tiebreak
    for l in range(cat.num_clusters):
        assert obj[cat.tu[l]] == model.epsilon_tiebreak
    assert np.count_nonzero(obj) == cat.num_clusters + 2


def test_row_block_interleaves_senses_along_its_last_axis():
    x = block_grids([(2, 3)])[0]
    rows = RowBuilder()
    rows.add("P", (("l1", "l2"), ("c1", "c2", "c3"), ("lo", "hi")), x[..., None, None],
             [[1.0], [2.0]], [LESS, GREATER], [5.0, -5.0])
    arrays = rows.arrays()
    assert list(arrays["tags"]) == [
        f"P_{l}_{c}_{s}" for l in ("l1", "l2") for c in ("c1", "c2", "c3") for s in ("lo", "hi")
    ]
    assert arrays["senses"].tolist() == [LESS, GREATER] * 6
    assert arrays["rhs"].tolist() == [5.0, -5.0] * 6
    assert arrays["cols"].tolist() == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
    assert arrays["coefs"].tolist() == [1.0, 2.0] * 6
    assert arrays["indptr"].tolist() == list(range(13))


def test_dense_rows_match_row_values():
    rng = np.random.default_rng(7)
    L, C, U = 2, 3, 4
    w, n, tu, tl = block_grids([(L, C, U), (L,), (L,), ()])
    ls, cs, us = (tuple(f"{p}{k}" for k in range(size)) for p, size in (("l", L), ("c", C), ("u", U)))
    coef = rng.uniform(-1.0, 1.0, (L, C, U))
    coef[0, 1, 2] = 0.0   # dropped, so that row holds one term fewer
    rows = RowBuilder()
    rows.add("A", (ls, us), chain_terms(w.transpose(0, 2, 1), tu[:, None, None]),
             chain_terms(coef.transpose(0, 2, 1), [-1.0]), GREATER, 0.0)
    rows.add("B", (ls, cs, us, ("a", "b")), stack_terms(w, n[:, None, None])[..., None, :],
             [[1.0, 0.0], [1.0, -0.5]], [LESS, GREATER], [0.0, -1.0])
    rows.add("C", (), [tl, n[1]], [2.0, 3.0], EQUAL, 1.0)
    arrays = rows.arrays()
    num_cols = tl + 1
    model = ModelInstance(
        catalog=None, **arrays, objective=np.zeros(num_cols), lower=np.zeros(num_cols),
        upper=np.ones(num_cols), binary=np.zeros(num_cols, dtype=bool),
    )
    A, senses, b = _dense(arrays, num_cols)
    assert A.shape == (model.num_rows, num_cols) == (L * U + 2 * L * C * U + 1, num_cols)
    assert np.count_nonzero(A) == model.cols.size == L * U * (C + 1) - 1 + 3 * L * C * U + 2
    point = rng.uniform(0.0, 1.0, num_cols)
    assert np.allclose(A @ point, model.row_values(point), rtol=1e-14, atol=1e-14)
    assert senses is arrays["senses"] and b is arrays["rhs"]
