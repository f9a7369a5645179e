import re

import numpy as np
import pytest

from bhca.linkbudget import BOLTZMANN_DB, ModcodTable, compute_rate_table
from bhca.scenario import generate_scenario

from conftest import beam3_config, carrier3_config, desk_config, tiny_config


def test_modcod_requires_strictly_increasing_rows():
    with pytest.raises(ValueError):
        ModcodTable.from_rows([(0.0, 1.0), (0.0, 2.0)])
    with pytest.raises(ValueError):
        ModcodTable.from_rows([(0.0, 2.0), (5.0, 1.0)])
    with pytest.raises(ValueError):
        ModcodTable.from_rows([])


def test_empty_modcod_table_is_refused():
    with pytest.raises(ValueError, match=re.escape(
            "modcod table must be a nonempty list of (threshold, efficiency) rows")):
        ModcodTable((), ())


def test_nonfinite_modcod_rows_are_refused():
    # An infinite efficiency used to be accepted, and looked up above its
    # threshold; a NaN threshold was refused as not strictly increasing.
    for rows in ([(0.0, 1.0), (5.0, np.inf)], [(0.0, 1.0), (np.nan, 2.0)], [(-np.inf, 1.0), (5.0, 2.0)]):
        with pytest.raises(ValueError, match="modcod thresholds and efficiencies must be finite"):
            ModcodTable.from_rows(rows)


def test_efficiency_of_nan_is_refused(modcod, toy_modcod):
    # NaN used to look up the top row, so a NaN link budget planned every
    # user at the top MODCOD.
    with pytest.raises(ValueError, match="Es/N0 must not be NaN"):
        modcod.efficiency(np.nan)
    with pytest.raises(ValueError, match="Es/N0 must not be NaN"):
        toy_modcod.efficiency(np.array([0.0, np.nan]))
    assert toy_modcod.efficiency(-np.inf) == 0.0


def test_efficiency_below_floor_is_zero(toy_modcod):
    assert toy_modcod.efficiency(-0.001) == 0.0
    assert toy_modcod.efficiency(-50.0) == 0.0


def test_efficiency_at_infinite_sinr_is_table_max(toy_modcod):
    assert toy_modcod.efficiency(np.inf) == 4.0


def test_efficiency_step_behavior(toy_modcod):
    assert toy_modcod.efficiency(0.0) == 1.0
    assert toy_modcod.efficiency(4.999) == 1.0
    assert toy_modcod.efficiency(5.0) == 2.0
    assert toy_modcod.efficiency(12.0) == 4.0


def test_efficiency_is_monotone(modcod):
    rng = np.random.default_rng(0)
    gammas = np.sort(rng.uniform(-10.0, 30.0, size=500))
    eff = modcod.efficiency(gammas)
    assert np.all(np.diff(eff) >= 0.0)


def test_default_table_span(modcod):
    assert modcod.efficiencies[0] == pytest.approx(0.434841)
    assert modcod.efficiencies[-1] == pytest.approx(5.900855)


def test_zero_rate_below_lowest_threshold(toy_modcod):
    # Crank the path loss until every link falls below the toy table floor.
    cfg = tiny_config(3, path_loss_db=400.0)
    scenario = generate_scenario(cfg)
    rates = compute_rate_table(scenario, toy_modcod)
    assert np.all(rates.rate_bps == 0.0)
    assert np.all(rates.sinr_db < 0.0)


def test_rate_formula_uses_symbol_bandwidth(modcod):
    cfg = desk_config(1)
    scenario = generate_scenario(cfg)
    rates = compute_rate_table(scenario, modcod)
    symbol_rate = cfg.carrier_bandwidth / (1.0 + cfg.roll_off)
    eff = modcod.efficiency(rates.sinr_db)
    assert np.allclose(rates.rate_bps, symbol_rate * eff, rtol=0, atol=1e-9)


def test_slot_and_second_rates_consistent(modcod):
    scenario = generate_scenario(desk_config(2))
    rates = compute_rate_table(scenario, modcod)
    assert np.allclose(
        rates.rate_per_slot,
        rates.rate_bps * scenario.config.slot_duration,
        rtol=1e-15,
        atol=0.0,
    )
    assert np.all(rates.rate_per_slot >= 0.0)


def test_rate_monotone_in_offaxis_distance(modcod):
    # Sweep a user from beam center outward: the own-carrier rate never rises.
    import dataclasses

    from bhca.scenario import Beam, Carrier, Cluster, Scenario, SystemConfig, User

    cfg = dataclasses.replace(SystemConfig(), num_beams=2, num_clusters=1,
                              beams_per_cluster=2, users_per_beam=1)
    beams = (Beam(0, 0.0, 0.0), Beam(1, cfg.beam_pitch_km, 0.0))
    carriers = (
        Carrier(0, 0, 0, "LHCP", cfg.carrier_bandwidth),
        Carrier(1, 0, 1, "RHCP", cfg.carrier_bandwidth),
    )
    last = np.inf
    for dist in np.linspace(0.0, cfg.beam_pitch_km, 12):
        users = (
            User(0, 0, 0, dist, 0.0, 1.0, False),
            User(1, 0, 1, cfg.beam_pitch_km, 0.0, 1.0, False),
        )
        cluster = Cluster(0, (0, 1), (0, 1), (0, 1))
        scenario = Scenario(cfg, beams, (cluster,), carriers, users)
        rates = compute_rate_table(scenario, modcod)
        rate = rates.rate_bps[0, 0, 0]
        assert rate <= last + 1e-9
        last = rate


def test_rate_table_deterministic(modcod):
    cfg = desk_config(4)
    a = compute_rate_table(generate_scenario(cfg), modcod)
    b = compute_rate_table(generate_scenario(cfg), modcod)
    assert np.array_equal(a.sinr_db, b.sinr_db)
    assert np.array_equal(a.rate_per_slot, b.rate_per_slot)


def _record_walk_sinr(scenario):
    """The link budget one (cluster, carrier, user) record at a time."""
    cfg = scenario.config
    beam_xy = {b.id: (b.x_km, b.y_km) for b in scenario.beams}
    power = cfg.power_per_transponder - 10.0 * np.log10(cfg.carriers_per_transponder)
    noise = BOLTZMANN_DB + 10.0 * np.log10(cfg.carrier_bandwidth)
    r3 = cfg.beam_pitch_km / 2.0
    sinr = np.empty((cfg.num_clusters, cfg.carriers_per_cluster, cfg.users_per_cluster))
    for cluster in scenario.clusters:
        for ci, carrier in enumerate(scenario.carriers_of_cluster(cluster.id)):
            bx, by = beam_xy[carrier.beam_id]
            for ui, user in enumerate(scenario.users_of_cluster(cluster.id)):
                gain = cfg.tx_peak_gain_dbi - 3.0 * (np.hypot(user.x_km - bx, user.y_km - by) / r3) ** 2
                sinr[cluster.id, ci, ui] = (
                    power + gain + cfg.rx_gain_over_temp_db_per_k - cfg.path_loss_db - noise
                )
    return sinr


@pytest.mark.parametrize("make_config", [tiny_config, desk_config, beam3_config, carrier3_config])
def test_rate_table_matches_record_walk(modcod, make_config):
    for seed in range(1, 6):
        scenario = generate_scenario(make_config(seed))
        rates = compute_rate_table(scenario, modcod)
        assert rates.sinr_db.tobytes() == _record_walk_sinr(scenario).tobytes()


def test_csv_loader_matches_default(tmp_path, modcod):
    path = tmp_path / "table.csv"
    rows = ["es_n0_threshold_db,spectral_efficiency"]
    rows += [f"{t},{e}" for t, e in zip(modcod.thresholds_db, modcod.efficiencies)]
    path.write_text("\n".join(rows) + "\n")
    loaded = ModcodTable.from_csv(path)
    assert loaded.thresholds_db == modcod.thresholds_db
    assert loaded.efficiencies == modcod.efficiencies
