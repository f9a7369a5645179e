#!/usr/bin/env python3
"""Three independent routes to the same optimum on tiny instances.

For a handful of seeded 12-binary instances, solves the joint model by slot
counts (``solve_milp``), by plain branch-and-bound on the published model,
and by exhaustive enumeration, and shows that all three land on the same
optimum. The count route needs a handful of LPs; branch-and-bound and
enumeration need many more.
"""
from bhca import (
    ModcodTable,
    adjacency_pairs,
    branch_and_bound,
    brute_force,
    build_model,
    compute_rate_table,
    generate_scenario,
    solve_lp,
    solve_milp,
    validate_solution,
)
from bhca.scenario import SystemConfig

modcod = ModcodTable.default()
print(f"{'seed':>4} {'LP bound':>10} {'counts':>10} {'B&B':>10} {'oracle':>10} {'max diff':>9} "
      f"{'LPs':>4} {'nodes':>5} {'patterns':>8}")
for seed in range(1, 9):
    config = SystemConfig(
        num_beams=4, num_clusters=2, beams_per_cluster=2, carriers_per_cluster=2,
        active_clusters_per_slot=1, slots_per_window=2, users_per_beam=1, rng_seed=seed,
    )
    scenario = generate_scenario(config)
    rates = compute_rate_table(scenario, modcod)
    model = build_model(scenario, rates, adjacency_pairs(scenario))

    relaxation = solve_lp(model)
    counts = solve_milp(model)
    tree = branch_and_bound(model)
    oracle = brute_force(model)
    for solution in (counts, tree):
        audit = validate_solution(model, solution.values)
        assert audit.empty, audit
    diff = max(abs(counts.objective - oracle.objective), abs(tree.objective - oracle.objective))
    print(f"{seed:4d} {relaxation.objective:10.6f} {counts.objective:10.6f} {tree.objective:10.6f} "
          f"{oracle.objective:10.6f} {diff:9.1e} {counts.nodes_explored:4d} "
          f"{tree.nodes_explored:5d} {oracle.nodes_explored:8d}")

print()
print("every row: relaxation >= the optimum, the three routes agree to float")
print("precision, and both solver plans pass the full feasibility audit.")
