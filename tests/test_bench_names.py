"""The library names the benchmark reads (``bench/tracing.py`` swaps them,
``bench/workloads.py`` calls them) still exist, so a rename in ``bhca``
cannot break the benchmark unnoticed."""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from bhca.model import BaselineCatalog, VariableCatalog

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
