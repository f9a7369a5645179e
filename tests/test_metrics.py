import json
import re

import numpy as np
import pytest

from bhca.metrics import build_report, jain_index, report_csv, report_json, report_rows
from bhca.cli import resolve_config_path
from bhca.scenario import ConfigError, generate_scenario, load_config

from conftest import desk_config


def test_jain_all_equal_is_one():
    assert jain_index([1.0, 1.0, 1.0, 1.0]) == pytest.approx(1.0)


def test_jain_lower_bound_two_users():
    assert jain_index([1.0, 0.0]) == pytest.approx(0.5)


def test_jain_direct_evaluation():
    assert jain_index([1.0, 0.5]) == pytest.approx(0.9)


def test_jain_scale_invariance():
    rng = np.random.default_rng(0)
    x = rng.uniform(0.1, 3.0, size=17)
    base = jain_index(x)
    for k in (1e-3, 1.0, 1e6):
        assert abs(jain_index(k * x) - base) <= 1e-12


def test_jain_bounds_on_random_vectors():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        x = rng.uniform(0.0, 5.0, size=n)
        if not np.any(x > 0):
            continue
        j = jain_index(x)
        assert 1.0 / n - 1e-12 <= j <= 1.0 + 1e-12


def test_jain_rejects_bad_input():
    with pytest.raises(ValueError):
        jain_index([])
    with pytest.raises(ValueError):
        jain_index([0.0, 0.0])
    with pytest.raises(ValueError):
        jain_index([1.0, -0.5])
    with pytest.raises(ValueError):
        jain_index([1.0, np.inf])


class _StubPlan:
    def __init__(self, user_supply):
        self.user_supply = user_supply
        self.cluster_supply = user_supply.sum(axis=1)


def test_perfect_matching_report(modcod):
    scenario = generate_scenario(desk_config(3))
    demand = scenario.demand_matrix()
    report = build_report(_StubPlan(demand.copy()), scenario)
    assert np.allclose(report.user_ratios, 1.0)
    assert np.allclose(report.jain_per_cluster, 1.0)
    assert report.jain_user_system == pytest.approx(1.0)
    assert report.unused_bphw == 0.0
    assert report.min_user_ratio == pytest.approx(1.0)


def test_report_additivity_exact(modcod):
    scenario = generate_scenario(desk_config(5))
    rng = np.random.default_rng(2)
    supply = scenario.demand_matrix() * rng.uniform(0.2, 1.5, scenario.demand_matrix().shape)
    report = build_report(_StubPlan(supply), scenario)
    assert report.total_supply_bphw == float(supply.sum())
    assert report.total_demand_bphw == float(scenario.demand_matrix().sum())


def test_all_zero_ratios_give_an_undefined_jain_index(modcod):
    # Cluster 0 is unlit; the all-zero plan leaves every index undefined.
    scenario = generate_scenario(desk_config(3))
    supply = scenario.demand_matrix().copy()
    supply[0] = 0.0
    report = build_report(_StubPlan(supply), scenario)
    assert np.isnan(report.jain_per_cluster[0]) and not np.isnan(report.jain_per_cluster[1:]).any()
    assert json.loads(report_json(report))["jain_per_cluster"][0] is None
    empty = build_report(_StubPlan(np.zeros_like(supply)), scenario)
    doc = json.loads(report_json(empty))
    assert doc["jain_per_cluster"] == [None] * 4
    assert doc["jain_user_system"] is None and doc["jain_cluster_level"] is None
    assert {row["jain"] for row in report_rows(empty, scenario) if row["scope"] != "user"} == {""}


def test_zero_demand_is_a_configuration_error(modcod):
    scenario = generate_scenario(desk_config(3))

    class BadScenario:
        config = scenario.config
        clusters = scenario.clusters

        @staticmethod
        def demand_matrix():
            d = scenario.demand_matrix().copy()
            d[0, 0] = 0.0
            return d

    with pytest.raises(ConfigError):
        build_report(_StubPlan(scenario.demand_matrix().copy()), BadScenario())


def test_supplies_of_another_shape_are_refused():
    scenario = generate_scenario(load_config(resolve_config_path("desk")))
    with pytest.raises(ValueError, match=re.escape("plan supplies (2, 2) do not match demands (4, 8)")):
        build_report(_StubPlan(np.ones((2, 2))), scenario)


def test_unused_counts_only_oversupply(modcod):
    scenario = generate_scenario(desk_config(7))
    demand = scenario.demand_matrix()
    supply = demand.copy()
    supply[0, 0] += 100.0
    supply[1, 1] = max(supply[1, 1] - 50.0, 0.0)
    report = build_report(_StubPlan(supply), scenario)
    assert report.unused_bphw == pytest.approx(100.0)


def test_csv_rows_shape_and_columns(modcod):
    scenario = generate_scenario(desk_config(1))
    demand = scenario.demand_matrix()
    report = build_report(_StubPlan(demand.copy()), scenario)
    rows = report_rows(report, scenario)
    n_users = len(scenario.users)
    n_clusters = len(scenario.clusters)
    assert len(rows) == n_users + n_clusters + 1
    text = report_csv(report, scenario)
    lines = text.strip().split("\n")
    assert lines[0] == "scope,id,demand_bphw,supply_bphw,ratio,jain"
    assert len(lines) == 1 + n_users + n_clusters + 1


def test_mbps_conversion(modcod):
    scenario = generate_scenario(desk_config(1))
    demand = scenario.demand_matrix()
    report = build_report(_StubPlan(demand.copy()), scenario)
    window = scenario.config.hopping_window_duration
    assert report.total_demand_mbps == pytest.approx(report.total_demand_bphw / window / 1e6)
    doc = report_json(report)
    assert "total_demand_mbps" in doc
