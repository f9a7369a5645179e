#!/usr/bin/env python3
"""Anatomy of the joint planning MILP.

Assembles the model for a small scenario and walks its pieces: variable
blocks, the constraint families with their counts, the scalarized objective,
and a peek at the LP-format export.
"""
from collections import Counter

from bhca import ModcodTable, adjacency_pairs, build_model, compute_rate_table, export_lp, generate_scenario
from bhca.scenario import SystemConfig

config = SystemConfig(
    num_beams=4, num_clusters=2, beams_per_cluster=2, carriers_per_cluster=2,
    active_clusters_per_slot=1, slots_per_window=2, users_per_beam=1, rng_seed=3,
)
scenario = generate_scenario(config)
rates = compute_rate_table(scenario, ModcodTable.default())
pairs = adjacency_pairs(scenario)
model = build_model(scenario, rates, pairs)
cat = model.catalog

print("variable blocks (flat column ranges):")
print(f"  a      [{cat.off_a:3d}..{cat.off_beta:3d})  carrier-user assignment, binary")
print(f"  beta   [{cat.off_beta:3d}..{cat.off_q:3d})  fill-rates in [0,1]")
print(f"  q      [{cat.off_q:3d}..{cat.off_z:3d})  beta*z products, per slot")
print(f"  z      [{cat.off_z:3d}..{cat.off_tu:3d})  illumination, binary")
print(f"  tU     [{cat.off_tu:3d}..{cat.off_tl:3d})  per-cluster user-ratio floors")
print(f"  tL,theta                 cluster-ratio floor and the min floor")
print(f"total: {model.num_cols} columns, {model.num_rows} rows")
print()

families = Counter(tag.split("_")[0] for tag in model.tags)
meanings = {
    "C1": "carriers per user capped by delta_max",
    "C2": "fill-rates on a carrier sum to <= 1",
    "C3": "active clusters per slot capped",
    "C4": "per-user supply covers the cluster floor",
    "C5": "per-cluster supply covers the system floor",
    "C6": "adjacent clusters never co-illuminated",
    "C7a": "fill only on assigned carriers (big-M = 1)",
    "C7b": "assigned carriers get at least the activation floor",
    "C8a": "theta below every per-cluster floor",
    "C8b": "theta below the cluster-level floor",
    "C9a": "q >= 0",
    "C9b": "q <= z",
    "C9c": "q <= beta",
    "C9d": "q >= beta - (1 - z)",
}
print("constraint families:")
for fam in sorted(families):
    print(f"  {fam:4s} x{families[fam]:3d}  {meanings.get(fam, '')}")
print()

nz = [(cat.col_name(j), model.objective[j]) for j in range(model.num_cols) if model.objective[j]]
print("objective (maximize):", " + ".join(f"{v:g} {n}" for n, v in nz))
print()

text = export_lp(model)
print("LP export, first 16 lines:")
for line in text.splitlines()[:16]:
    print(" ", line)
print(f"  ... ({len(text.splitlines())} lines total)")
