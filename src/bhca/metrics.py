"""Demand-matching metrics: supply/demand ratios, Jain fairness indices,
unused capacity, and serialization to JSON/CSV rows.

Works on any plan object exposing ``user_supply`` (L, U) and
``cluster_supply`` (L,) in bits per hopping window. A plan may leave a
cluster unlit, so every ratio it holds is 0 and its Jain index is
undefined: the report holds NaN there, written as ``null`` in JSON and as
an empty CSV cell.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .scenario import ConfigError, Scenario


def jain_index(ratios) -> float:
    """Jain's fairness index (sum x)^2 / (n * sum x^2) of nonnegative ratios.

    1.0 means perfectly proportional allocations; the value is bounded below
    by 1/n. All-zero input leaves the index undefined (0/0) and raises.
    """
    x = np.asarray(ratios, dtype=float)
    if x.size == 0:
        raise ValueError("jain_index needs at least one ratio")
    if not np.all(np.isfinite(x)):
        raise ValueError("jain_index needs finite ratios")
    if np.any(x < 0.0):
        raise ValueError("jain_index needs nonnegative ratios")
    square_sum = float(np.sum(x) ** 2)
    sum_square = float(x.size * np.sum(x * x))
    if sum_square == 0.0:
        raise ValueError("jain_index is undefined for all-zero ratios (0/0)")
    return square_sum / sum_square


def _jain_or_nan(ratios) -> float:
    """``jain_index``, or NaN where it is undefined: every ratio is 0."""
    return jain_index(ratios) if np.any(ratios) else math.nan


def json_number(value: float) -> float | None:
    """``value`` for a JSON document: ``None`` where it is NaN (undefined)."""
    return None if math.isnan(value) else value


def csv_number(value: float) -> str:
    """``value`` for a CSV cell: empty where it is NaN (undefined)."""
    return "" if math.isnan(value) else repr(float(value))


@dataclass(frozen=True)
class MetricsReport:
    """Supply/demand matching summary for one plan."""

    user_ratios: np.ndarray        # (L, U)
    cluster_ratios: np.ndarray     # (L,)
    jain_per_cluster: np.ndarray   # (L,) over that cluster's user ratios; NaN if all are 0
    jain_user_system: float        # pooled user ratios across all clusters; NaN if all are 0
    jain_cluster_level: float      # over cluster ratios; NaN if all are 0
    min_user_ratio: float
    min_cluster_ratio: float
    total_demand_bphw: float
    total_supply_bphw: float
    unused_bphw: float             # sum of per-user oversupply
    cluster_overshoot_bphw: float  # sum of per-cluster oversupply
    window_duration_s: float

    def mbps(self, bphw: float) -> float:
        return bphw / self.window_duration_s / 1e6

    @property
    def total_demand_mbps(self) -> float:
        return self.mbps(self.total_demand_bphw)

    @property
    def total_supply_mbps(self) -> float:
        return self.mbps(self.total_supply_bphw)

    @property
    def unused_mbps(self) -> float:
        return self.mbps(self.unused_bphw)

    def to_dict(self) -> dict:
        return {
            "user_ratios": self.user_ratios.tolist(),
            "cluster_ratios": self.cluster_ratios.tolist(),
            "jain_per_cluster": [json_number(j) for j in self.jain_per_cluster.tolist()],
            "jain_user_system": json_number(self.jain_user_system),
            "jain_cluster_level": json_number(self.jain_cluster_level),
            "min_user_ratio": self.min_user_ratio,
            "min_cluster_ratio": self.min_cluster_ratio,
            "total_demand_bphw": self.total_demand_bphw,
            "total_supply_bphw": self.total_supply_bphw,
            "unused_bphw": self.unused_bphw,
            "cluster_overshoot_bphw": self.cluster_overshoot_bphw,
            "total_demand_mbps": self.total_demand_mbps,
            "total_supply_mbps": self.total_supply_mbps,
            "unused_mbps": self.unused_mbps,
        }


def build_report(plan, scenario: Scenario) -> MetricsReport:
    """Evaluate a decoded plan against the scenario's demands."""
    demand = scenario.demand_matrix()
    if np.any(demand <= 0.0):
        raise ConfigError("ratios are undefined: every user demand must be positive")
    supply = np.asarray(plan.user_supply, dtype=float)
    if supply.shape != demand.shape:
        raise ValueError(f"plan supplies {supply.shape} do not match demands {demand.shape}")
    cluster_supply = np.asarray(plan.cluster_supply, dtype=float)

    user_ratios = supply / demand
    cluster_demand = demand.sum(axis=1)
    cluster_ratios = cluster_supply / cluster_demand
    jain_per_cluster = np.array([_jain_or_nan(user_ratios[l]) for l in range(demand.shape[0])])
    return MetricsReport(
        user_ratios=user_ratios,
        cluster_ratios=cluster_ratios,
        jain_per_cluster=jain_per_cluster,
        jain_user_system=_jain_or_nan(user_ratios.ravel()),
        jain_cluster_level=_jain_or_nan(cluster_ratios),
        min_user_ratio=float(user_ratios.min()),
        min_cluster_ratio=float(cluster_ratios.min()),
        total_demand_bphw=float(demand.sum()),
        total_supply_bphw=float(supply.sum()),
        unused_bphw=float(np.maximum(supply - demand, 0.0).sum()),
        cluster_overshoot_bphw=float(np.maximum(cluster_supply - cluster_demand, 0.0).sum()),
        window_duration_s=scenario.config.hopping_window_duration,
    )


CSV_COLUMNS = ("scope", "id", "demand_bphw", "supply_bphw", "ratio", "jain")


def report_rows(report: MetricsReport, scenario: Scenario) -> list[dict]:
    """Flatten the report to CSV-ready rows: one per user, per cluster, plus
    a system row."""
    demand = scenario.demand_matrix()
    supply = report.user_ratios * demand
    rows = []
    for cluster in scenario.clusters:
        l = cluster.id
        for ui, uid in enumerate(cluster.user_ids):
            rows.append({
                "scope": "user",
                "id": str(uid),
                "demand_bphw": repr(float(demand[l, ui])),
                "supply_bphw": repr(float(supply[l, ui])),
                "ratio": repr(float(report.user_ratios[l, ui])),
                "jain": "",
            })
    for cluster in scenario.clusters:
        l = cluster.id
        rows.append({
            "scope": "cluster",
            "id": str(l),
            "demand_bphw": repr(float(demand[l].sum())),
            "supply_bphw": repr(float(supply[l].sum())),
            "ratio": repr(float(report.cluster_ratios[l])),
            "jain": csv_number(report.jain_per_cluster[l]),
        })
    rows.append({
        "scope": "system",
        "id": "all",
        "demand_bphw": repr(report.total_demand_bphw),
        "supply_bphw": repr(report.total_supply_bphw),
        "ratio": repr(report.total_supply_bphw / report.total_demand_bphw),
        "jain": csv_number(report.jain_user_system),
    })
    return rows


def report_csv(report: MetricsReport, scenario: Scenario) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(report_rows(report, scenario))
    return buf.getvalue()


def report_json(report: MetricsReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
