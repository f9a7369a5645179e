"""The library names the benchmark reads (``bench/tracing.py`` swaps them,
``bench/workloads.py`` calls them) still exist, so a rename in ``bhca``
cannot break the benchmark unnoticed."""
import dataclasses
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from bhca.baseline import build_bh_model
from bhca.cli import DEFAULT_NODE_LIMIT, RunManifest, resolve_config_path, run
from bhca.model import BaselineCatalog, VariableCatalog
from bhca.scenario import load_config
from bhca.solver import solve_milp

from conftest import make_bundle

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Registered first: the dataclasses in these modules look themselves up.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


TRACED = _load("tracing").TRACED


@pytest.mark.parametrize("module, attr", TRACED, ids=[f"{m}.{a}" for m, a in TRACED])
def test_every_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_workloads_build_their_run_manifest(tmp_path):
    workloads = _load("workloads")
    manifest = workloads.bhca.cli.RunManifest(
        config="desk", seed=1, scheme="both", out_dir=str(tmp_path),
        node_limit=workloads.bhca.cli.DEFAULT_NODE_LIMIT, workers=1, export_lp=True,
    )
    assert manifest.solver_options().node_limit == workloads.bhca.cli.DEFAULT_NODE_LIMIT


def test_catalog_names_the_workloads_read():
    cat = VariableCatalog(2, 2, 2, 2)
    offsets = [getattr(cat, f"off_{family}") for family in ("a", "beta", "q", "z", "tu", "tl")]
    assert offsets == sorted(offsets) and offsets[0] == 0
    assert BaselineCatalog(2, 2).z_col(1, 1) == 3


def _bits(x):
    return np.asarray(x).view(np.uint64).tolist()


def test_bench_points_equal_the_catalog_encodings(tmp_path, modcod):
    # The plans ``bhca run`` writes, rebuilt by the bench's ``joint_point``
    # and ``bh_point`` and by the catalogs' ``encode``, are the solver's
    # points bit for bit: the bench can take ``encode`` in their place.
    workloads = _load("workloads")
    manifest = RunManifest(config="desk", seed=1, scheme="both", out_dir=str(tmp_path),
                           node_limit=DEFAULT_NODE_LIMIT, workers=1)
    assert run(manifest) == 0
    plan = json.loads((tmp_path / "plan_bhca.json").read_text())
    bh_plan = json.loads((tmp_path / "plan_bh.json").read_text())
    config = dataclasses.replace(load_config(resolve_config_path("desk")), rng_seed=1)
    scenario, rates, pairs, joint = make_bundle(config, modcod)
    bh = build_bh_model(scenario, rates, pairs)
    options = manifest.solver_options()

    cat = joint.catalog
    z = np.zeros((cat.num_clusters, cat.num_slots))
    for l, slots in enumerate(plan["schedule"]):
        z[l, slots] = 1.0
    a = np.zeros(cat.beta.shape)
    for l, per_user in enumerate(plan["carrier_sets"]):
        for u, carriers in enumerate(per_user):
            a[l, carriers, u] = 1.0
    want = _bits(solve_milp(joint, options).values)
    assert _bits(workloads.joint_point(joint, plan)) == want
    assert _bits(cat.encode(a, np.array(plan["fill_rate"]), z, np.array(plan["user_ratio_floor"]),
                            plan["cluster_ratio_floor"], plan["min_ratio"])) == want

    z = np.zeros(bh.catalog.z.shape)
    for l, slots in enumerate(bh_plan["slots_per_cluster"]):
        z[l, slots] = 1.0
    want = _bits(solve_milp(bh, options).values)
    assert _bits(workloads.bh_point(bh, bh_plan)) == want
    assert _bits(bh.catalog.encode(z, bh_plan["min_cluster_ratio"])) == want
