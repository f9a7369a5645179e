import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

import bhca.baseline
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

# sha256 of every artifact of `bhca run --config desk --seed 1 --scheme both
# --export-lp`, and of its manifest.json.
DESK_1_CHECKSUMS = {
    "comparison.csv": "d26ebd6e244c62d4bac248ab77aeb6b1232856aef7ad1285e57db54b4cd21781",
    "comparison.json": "b2493926c1528d0b5def4983295503b3e2dde0128bbddab86b619daf44e67f66",
    "metrics_bh.csv": "51d3559b013bdd16db987ff12f2710407321337820b6a8b14fdafdbbc4e57979",
    "metrics_bh.json": "d2d4d28bf2ba8275370bb974d31f374a42894973b76f3ec68e8f4d64e9c7ae9b",
    "metrics_bhca.csv": "f6885f72e08c7970642ba500f1d57c07cdd6d14a03d17f6eac39b37f44e31141",
    "metrics_bhca.json": "7f1fda3d9019d2dab9e44d13d83e028f739184334533e5ed58dbdcfd6e57c393",
    "model_bhca.lp": "1263e09e75c0ad0617725f1a0c22b6fcb6992872da80c4b5dab71a550dbccbf2",
    "plan_bh.json": "acbd84d65449c83ac4d31bed2cec92f68dcb745258516bee9a89f25154842f3e",
    "plan_bhca.json": "0a5963d965adfae0a8685be257f47857e3a0688706bf94226246536129422fb8",
    "scenario.json": "a0764ff20879d65664a6d8d882d1746884a93169a7d721338b8861f145aea685",
    "solver_log_bh.txt": "e7a61069b4bb7f9273da060e952bc292f96ed7be7dbcf575def6588513cf8aef",
    "solver_log_bhca.txt": "c924ca694e9989ecce58e9884cbd88faa2cd0b378c8db59f21860a267e074965",
}
DESK_1_MANIFEST = "d998cbfd1ee342ac91f95ecd2a829b53c42a84d1efc46dfbe6a18e6e355cf6fa"


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


def test_desk_artifacts_are_pinned(tmp_path):
    manifest = RunManifest(config="desk", seed=1, scheme="both", out_dir=str(tmp_path), export_lp=True)
    assert run(manifest) == EXIT_OK
    assert manifest.checksums == DESK_1_CHECKSUMS
    assert hashlib.sha256((tmp_path / "manifest.json").read_bytes()).hexdigest() == DESK_1_MANIFEST


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


def test_config_with_the_deleted_power_per_beam_key_is_a_config_error(tmp_path, capsys):
    # No code read power_per_beam_watts; configs written before its deletion
    # carry it and are now refused rather than read with a dead key.
    doc = tiny_config(7).to_dict() | {"power_per_beam_watts": 12.0}
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc))
    assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().out == "unknown config key: power_per_beam_watts\n"
    out = tmp_path / "never"
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: unknown config key: power_per_beam_watts\n"
    assert not out.exists()


@pytest.mark.parametrize("doc, message", [
    (None, "cannot read config: [Errno 2] No such file or directory: '{path}'"),
    (b"[1, 2]", "config document must be a JSON object"),
    (b"\xff\xfe{}", "config is not UTF-8 text: invalid start byte at byte 0"),
    # json.load keeps the last of two equal keys, so this desk config used
    # to validate clean and run with delta_max 1.
    (Path(resolve_config_path("desk")).read_bytes().replace(b'"rng_seed"', b'"delta_max": 1, "rng_seed"'),
     "repeated config key: delta_max"),
], ids=["missing-file", "not-an-object", "not-utf8", "repeated-key"])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, doc, message):
    path = tmp_path / "config.json"
    if doc is not None:
        path.write_bytes(doc)
    message = message.format(path=path)
    out = tmp_path / "never"
    assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().out == message + "\n"
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_main_validate_config_subcommand(tmp_path, capsys):
    doc = tiny_config(1, active_clusters_per_slot=2).to_dict()
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "active_clusters_per_slot must be < num_clusters" in captured.out
    assert main(["validate-config", "--config", "table2"]) == EXIT_OK


# Each case breaks one rule of SystemConfig.validate on the (valid) defaults.
@pytest.mark.parametrize("change, message", [
    (dict(users_per_beam=0), "users_per_beam must be an integer >= 1"),
    (dict(num_beams=15), "num_beams must equal num_clusters * beams_per_cluster"),
    (dict(active_clusters_per_slot=8, num_transponders=16),
     "active_clusters_per_slot must be < num_clusters"),
    (dict(num_transponders=3),
     "active_clusters_per_slot * carriers_per_cluster must be <= num_transponders"),
    (dict(carrier_bandwidth=0.0), "carrier_bandwidth must be > 0"),
    (dict(carrier_bandwidth=600e6), "carrier_bandwidth must be <= system_bandwidth"),
    (dict(roll_off=1.0), "roll_off must be in [0, 1)"),
    (dict(slot_duration=0.0), "slot_duration must be > 0"),
    (dict(high_demand_fraction=1.5), "high_demand_fraction must be in [0, 1]"),
    (dict(beam_pitch_km=0.0), "beam_pitch_km must be > 0"),
    (dict(rng_seed=-1), "rng_seed must be an integer >= 0"),
    # Demands scale with this factor; 0 or less used to pass validation and
    # then end the run in build_model with a StructuralError traceback.
    (dict(reference_spectral_efficiency=0.0), "reference_spectral_efficiency must be > 0"),
    (dict(reference_spectral_efficiency=-1.0), "reference_spectral_efficiency must be > 0"),
])
def test_each_config_rule_reports_its_message(tmp_path, capsys, change, message):
    config = SystemConfig(**change)
    assert config.validate() == [message]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config.to_dict()))
    assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().out == message + "\n"
    out = tmp_path / "never"
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


INT_FIELDS = ("num_beams", "num_clusters", "beams_per_cluster", "carriers_per_cluster",
              "num_transponders", "active_clusters_per_slot", "slots_per_window", "delta_max",
              "rng_seed", "users_per_beam")
BAD_VALUES = (float("nan"), float("inf"), -float("inf"), True, None, "x")
BEYOND_FLOAT = 10**400


# A config built in code used to pass NaN, infinities and True; a JSON
# integer beyond float range ended the JSON route in an OverflowError.
@pytest.mark.parametrize("field, value", [
    (f.name, value)
    for f in dataclasses.fields(SystemConfig)
    for value in BAD_VALUES + ((2.5,) if f.name in INT_FIELDS else (BEYOND_FLOAT,))
], ids=lambda v: "10**400" if v == BEYOND_FLOAT else None)
def test_each_bad_config_value_gives_one_diagnostic(tmp_path, capsys, field, value):
    if field not in INT_FIELDS:
        message = f"{field} must be a finite number"
    else:
        message = f"{field} must be an integer >= {0 if field == 'rng_seed' else 1}"
    config = SystemConfig(**{field: value})
    assert config.validate() == [message]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config.to_dict()))
    assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().out == message + "\n"
    out = tmp_path / "never"
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


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


def test_unknown_scheme_is_a_config_error(tmp_path, capsys):
    # The command line offers only the three schemes; a library caller can
    # name any other.
    out = tmp_path / "never"
    manifest = RunManifest(config="desk", seed=1, scheme="x", out_dir=str(out))
    assert run(manifest) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: unknown scheme 'x'\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--node-limit", "0"], "node_limit must be >= 1"),
    (["--time-limit", "nan"], "time_limit must be a finite number of seconds >= 0, got nan"),
    (["--time-limit", "inf"], "time_limit must be a finite number of seconds >= 0, got inf"),
    (["--time-limit", "-1"], "time_limit must be a finite number of seconds >= 0, got -1.0"),
], ids=["zero-nodes", "nan-seconds", "inf-seconds", "negative-seconds"])
def test_bad_solver_limit_is_a_config_error(tmp_path, tiny_config_file, capsys, flags, message):
    # These used to end in a traceback, write NaN or Infinity into
    # manifest.json, or stop before the first LP.
    out = tmp_path / "never"
    assert main(["run", "--config", tiny_config_file, "--out", str(out), *flags]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def _refuse_constants(name):
    raise ValueError(f"{name} in a JSON artifact")


def test_unlit_cluster_gets_an_undefined_jain_index(tmp_path):
    # With two slots per window both desk plans leave clusters unlit; an
    # unlit cluster's users all have ratio 0, so its Jain index is 0/0.
    with open(resolve_config_path("desk"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["slots_per_window"] = 2
    path = tmp_path / "unlit.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
    for name in os.listdir(out):
        if name.endswith(".json"):
            json.loads((out / name).read_text(), parse_constant=_refuse_constants)
    unlit = [l for l, j in enumerate(json.loads((out / "metrics_bh.json").read_text())["jain_per_cluster"])
             if j is None]
    assert unlit
    comparison = (out / "comparison.csv").read_text().splitlines()[1:]
    metrics_csv = [row for row in (out / "metrics_bh.csv").read_text().splitlines()
                   if row.startswith("cluster,")]
    for l in unlit:
        assert comparison[l].split(",")[-1] == metrics_csv[l].split(",")[-1] == ""


def test_negative_seed_is_a_config_error(tmp_path, tiny_config_file, capsys):
    out = tmp_path / "never"
    assert main(["run", "--config", tiny_config_file, "--seed", "-3", "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: rng_seed must be an integer >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
def test_out_that_is_not_a_directory_is_a_config_error(tmp_path, tiny_config_file, capsys, under):
    taken = tmp_path / "taken"
    taken.write_bytes(b"keep me")
    out = taken / "sub" if under else taken
    assert main(["run", "--config", tiny_config_file, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: --out {out}: {taken} is not a directory\n"
    assert taken.read_bytes() == b"keep me"


def test_artifact_that_cannot_be_written_is_a_config_error(tmp_path, tiny_config_file, capsys):
    out = tmp_path / "out"
    (out / "plan_bh.json").mkdir(parents=True)
    assert main(["run", "--config", tiny_config_file, "--scheme", "bh", "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write the artifacts: ") and err.count("\n") == 1
    assert "plan_bh.json" in err


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


def test_infeasible_bh_plan_exits_solver_error(tmp_path, tiny_config_file, capsys, monkeypatch):
    def infeasible(model, *args, **kwargs):
        # Every cluster lit in every slot breaks the per-slot cap C3.
        values = np.zeros(model.num_cols)
        values[model.binary] = 1.0
        return MilpSolution(values, 0.0, "optimal", 1, 0.0, 0.0)

    monkeypatch.setattr(bhca.baseline, "solve_milp", infeasible)
    out = tmp_path / "never"
    status = main(["run", "--config", tiny_config_file, "--seed", "7",
                   "--scheme", "both", "--out", str(out)])
    assert status == EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.startswith("solver error: bh solution failed its audit: ")
    assert "C3_t1 by 1" in err and err.count("\n") == 1
    assert not out.exists()
