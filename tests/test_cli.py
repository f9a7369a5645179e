import json
import os

import numpy as np
import pytest

import bhca.cli
import bhca.model
from bhca.cli import (
    EXIT_CONFIG,
    EXIT_LIMIT,
    EXIT_OK,
    EXIT_SOLVER,
    RunManifest,
    main,
    resolve_config_path,
    run,
    validate_config,
)
from bhca.scenario import SystemConfig
from bhca.solver import MilpSolution

from conftest import tiny_config


@pytest.fixture()
def tiny_config_file(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(tiny_config(7).to_dict(), indent=2))
    return str(path)


def test_builtin_configs_resolve_and_validate():
    for name in ("desk", "table2"):
        assert os.path.exists(resolve_config_path(name))
        assert validate_config(name) == []


def test_validate_config_reports_nt_rule(tmp_path):
    doc = tiny_config(1, active_clusters_per_slot=2).to_dict()  # N_T == L
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    diags = validate_config(str(path))
    assert diags == ["active_clusters_per_slot must be < num_clusters"]


def test_validate_config_reports_missing_key(tmp_path):
    doc = SystemConfig().to_dict()
    del doc["carrier_bandwidth"]
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(doc))
    diags = validate_config(str(path))
    assert len(diags) == 1 and "carrier_bandwidth" in diags[0]


def test_validate_config_reports_parse_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    diags = validate_config(str(path))
    assert len(diags) == 1 and "line 1" in diags[0]


def test_run_both_schemes_emits_full_artifact_set(tmp_path, tiny_config_file):
    out = tmp_path / "out"
    manifest = RunManifest(config=tiny_config_file, seed=7, scheme="both",
                           out_dir=str(out), export_lp=True)
    status = run(manifest)
    assert status == EXIT_OK
    names = sorted(os.listdir(out))
    assert names == [
        "comparison.csv", "comparison.json", "manifest.json", "metrics_bh.csv",
        "metrics_bh.json", "metrics_bhca.csv", "metrics_bhca.json", "model_bhca.lp",
        "plan_bh.json", "plan_bhca.json", "scenario.json", "solver_log_bh.txt",
        "solver_log_bhca.txt",
    ]
    doc = json.loads((out / "manifest.json").read_text())
    assert set(doc["checksums"]) == set(names) - {"manifest.json"}
    assert doc["statuses"] == {"bhca": "optimal", "bh": "optimal"}


def test_run_is_deterministic(tmp_path, tiny_config_file):
    m1 = RunManifest(config=tiny_config_file, seed=7, scheme="both",
                     out_dir=str(tmp_path / "a"), export_lp=True)
    m2 = RunManifest(config=tiny_config_file, seed=7, scheme="both",
                     out_dir=str(tmp_path / "b"), export_lp=True)
    assert run(m1) == EXIT_OK
    assert run(m2) == EXIT_OK
    assert m1.checksums == m2.checksums


def test_metrics_csv_row_count(tmp_path, tiny_config_file):
    out = tmp_path / "out"
    manifest = RunManifest(config=tiny_config_file, seed=7, scheme="bhca", out_dir=str(out))
    assert run(manifest) == EXIT_OK
    lines = (out / "metrics_bhca.csv").read_text().strip().split("\n")
    users = 4
    clusters = 2
    assert len(lines) == 1 + users + clusters + 1


def test_limit_hit_exits_distinct_and_still_emits(tmp_path, tiny_config_file):
    out = tmp_path / "limited"
    manifest = RunManifest(config=tiny_config_file, seed=7, scheme="bhca",
                           out_dir=str(out), node_limit=1)
    status = run(manifest)
    assert status == EXIT_LIMIT
    assert (out / "plan_bhca.json").exists()
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["statuses"]["bhca"] == "feasible"


def test_config_error_emits_nothing(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(tiny_config(1, active_clusters_per_slot=2).to_dict()))
    out = tmp_path / "never"
    manifest = RunManifest(config=str(bad), seed=1, scheme="both", out_dir=str(out))
    assert run(manifest) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("key,value", [
    ("num_clusters", "x"),
    ("num_clusters", None),
    ("num_clusters", True),
    ("slot_duration", "fast"),
    ("slot_duration", float("nan")),
    ("rng_seed", 1.9),
])
def test_config_value_of_wrong_type_is_a_config_error(tmp_path, capsys, key, value):
    doc = tiny_config(7).to_dict()
    doc[key] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "never"
    assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG
    diags = capsys.readouterr().out.splitlines()
    assert len(diags) == 1 and key in diags[0]
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and key in err[0]
    assert not out.exists()


def test_main_validate_config_subcommand(tmp_path, capsys):
    doc = tiny_config(1, active_clusters_per_slot=2).to_dict()
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "active_clusters_per_slot must be < num_clusters" in captured.out
    assert main(["validate-config", "--config", "table2"]) == EXIT_OK


def test_main_run_subcommand(tmp_path, tiny_config_file):
    out = tmp_path / "cli_out"
    status = main([
        "run", "--config", tiny_config_file, "--seed", "7",
        "--scheme", "bh", "--out", str(out), "--workers", "1",
    ])
    assert status == EXIT_OK
    assert (out / "plan_bh.json").exists()


def test_workers_other_than_one_is_a_config_error(tmp_path, tiny_config_file, capsys):
    out = tmp_path / "never"
    manifest = RunManifest(config=tiny_config_file, seed=7, scheme="bh", out_dir=str(out), workers=2)
    assert run(manifest) == EXIT_CONFIG
    assert not out.exists()
    assert "workers must be 1" in capsys.readouterr().err


def test_solver_error_exits_distinct_without_traceback(tmp_path, tiny_config_file, capsys, monkeypatch):
    def stalled(*args, **kwargs):
        raise RuntimeError("simplex stalled after 10 iterations")

    monkeypatch.setattr(bhca.cli, "solve_milp", stalled)
    out = tmp_path / "never"
    status = main(["run", "--config", tiny_config_file, "--seed", "7",
                   "--scheme", "bhca", "--out", str(out)])
    assert status == EXIT_SOLVER == 4
    err = capsys.readouterr().err
    assert err == "solver error: simplex stalled after 10 iterations\n"
    assert not out.exists()


def test_joint_plan_is_audited_once(tmp_path, tiny_config_file, monkeypatch):
    audits = []
    audit = bhca.model.validate_solution

    def counted(*args, **kwargs):
        audits.append(1)
        return audit(*args, **kwargs)

    monkeypatch.setattr(bhca.model, "validate_solution", counted)
    monkeypatch.setattr(bhca.cli, "validate_solution", counted)
    manifest = RunManifest(config=tiny_config_file, seed=7, scheme="bhca", out_dir=str(tmp_path / "out"))
    assert run(manifest) == EXIT_OK
    assert len(audits) == 1


def test_infeasible_joint_plan_exits_solver_error(tmp_path, tiny_config_file, capsys, monkeypatch):
    def infeasible(model, *args, **kwargs):
        # Half-set binaries break integrality and C9 at once.
        return MilpSolution(np.full(model.num_cols, 0.5), 0.0, "optimal", 1, 0.0, 0.0)

    monkeypatch.setattr(bhca.cli, "solve_milp", infeasible)
    out = tmp_path / "never"
    status = main(["run", "--config", tiny_config_file, "--seed", "7",
                   "--scheme", "bhca", "--out", str(out)])
    assert status == EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.startswith("solver error: joint solution failed its audit: ")
    assert "violation(s): " in err and err.count("\n") == 1
    assert not out.exists()
