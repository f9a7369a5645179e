#!/usr/bin/env python3
"""Joint scheme versus conventional beam hopping on one desk-scale scenario.

Solves both schemes on the same seeded 8-beam system and prints the
rate-matching story: cluster-level supplies track demand similarly, but only
carrier aggregation equalizes users inside each cluster, which shows up in
the user-level fairness index, the worst user ratio, and the unused capacity.
"""
from bhca import (
    ModcodTable,
    adjacency_pairs,
    build_model,
    build_report,
    compute_rate_table,
    decode_plan,
    generate_scenario,
    solve_bh,
    solve_milp,
)
from bhca.cli import resolve_config_path
from bhca.scenario import load_config

config = load_config(resolve_config_path("desk"))
scenario = generate_scenario(config)
rates = compute_rate_table(scenario, ModcodTable.default())
pairs = adjacency_pairs(scenario)

model = build_model(scenario, rates, pairs)
solution = solve_milp(model)
plan = decode_plan(model, solution, scenario)
joint = build_report(plan, scenario)

bh_plan = solve_bh(scenario, rates, pairs)
bh = build_report(bh_plan, scenario)

window = config.hopping_window_duration
demand = scenario.demand_matrix()

print(f"scenario seed {config.rng_seed}: total demand {joint.total_demand_mbps:.1f} Mbps")
print()
print(f"{'cluster':>7} {'demand':>8} {'joint':>8} {'bh':>8} {'jain joint':>11} {'jain bh':>8}")
for cluster in scenario.clusters:
    l = cluster.id
    d = demand[l].sum() / window / 1e6
    sj = joint.cluster_ratios[l] * demand[l].sum() / window / 1e6
    sb = bh.cluster_ratios[l] * demand[l].sum() / window / 1e6
    print(f"{l:7d} {d:8.1f} {sj:8.1f} {sb:8.1f} {joint.jain_per_cluster[l]:11.3f} "
          f"{bh.jain_per_cluster[l]:8.3f}")

print()
print(f"{'':24}{'joint':>10} {'baseline':>10}")
print(f"{'supply (Mbps)':24}{joint.total_supply_mbps:10.1f} {bh.total_supply_mbps:10.1f}")
print(f"{'user-level Jain':24}{joint.jain_user_system:10.3f} {bh.jain_user_system:10.3f}")
print(f"{'worst user ratio':24}{joint.min_user_ratio:10.3f} {bh.min_user_ratio:10.3f}")
print(f"{'unused (Mbps)':24}{joint.unused_mbps:10.2f} {bh.unused_mbps:10.2f}")
print()
print("illumination schedules (active slots per cluster):")
for l in range(config.num_clusters):
    print(f"  cluster {l}: joint {list(plan.schedule[l])}  baseline {list(bh_plan.slots_per_cluster[l])}")
print()

served_zero = int((bh_plan.user_slots == 0).sum())
print(f"the baseline hands whole slots to one user at a time: {served_zero} of "
      f"{demand.size} users get no slot at all, while carrier aggregation")
print("splits both carriers continuously and lifts every user to the cluster floor.")
