"""Carrier link budget and the SINR -> spectral-efficiency step table.

The budget is deliberately simple: per-carrier EIRP from the transponder
power split across its carriers, a Gaussian beam-gain rolloff whose 3 dB
width equals the lattice pitch, thermal noise kTB over the carrier
bandwidth, and no co-channel interference (simultaneously illuminated
clusters are non-adjacent and dual-polarized).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .scenario import Scenario

BOLTZMANN_DB = -228.6  # 10*log10(k), dBW / K / Hz

_DEFAULT_TABLE_RESOURCE = "dvbs2x_modcods.csv"


@dataclass(frozen=True)
class ModcodTable:
    """Ordered step table mapping Es/N0 thresholds to spectral efficiency.

    Thresholds and efficiencies must both be finite and strictly increasing;
    lookup picks the highest row whose threshold is met, and returns 0 below
    the first row. An Es/N0 of NaN meets no row and is refused.
    """

    thresholds_db: tuple[float, ...]
    efficiencies: tuple[float, ...]

    def __post_init__(self):
        if len(self.thresholds_db) == 0 or len(self.thresholds_db) != len(self.efficiencies):
            raise ValueError("modcod table must be a nonempty list of (threshold, efficiency) rows")
        thr = np.asarray(self.thresholds_db)
        eff = np.asarray(self.efficiencies)
        if not (np.isfinite(thr).all() and np.isfinite(eff).all()):
            raise ValueError("modcod thresholds and efficiencies must be finite")
        if not np.all(np.diff(thr) > 0):
            raise ValueError("modcod thresholds must be strictly increasing")
        if not np.all(np.diff(eff) > 0):
            raise ValueError("modcod efficiencies must be strictly increasing")

    def efficiency(self, es_n0_db):
        """Spectral efficiency in bits/symbol for the given Es/N0 (dB), vectorized."""
        gamma = np.asarray(es_n0_db, dtype=float)
        if np.isnan(gamma).any():
            raise ValueError("Es/N0 must not be NaN")
        thr = np.asarray(self.thresholds_db)
        eff = np.concatenate([[0.0], np.asarray(self.efficiencies)])
        idx = np.searchsorted(thr, gamma, side="right")
        return eff[idx] if gamma.ndim else float(eff[idx])

    @classmethod
    def from_rows(cls, rows) -> "ModcodTable":
        thr, eff = zip(*rows)
        return cls(tuple(float(t) for t in thr), tuple(float(e) for e in eff))

    @classmethod
    def from_csv(cls, path) -> "ModcodTable":
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return cls._from_reader(csv.DictReader(fh))

    @classmethod
    def _from_reader(cls, reader) -> "ModcodTable":
        rows = [(float(r["es_n0_threshold_db"]), float(r["spectral_efficiency"])) for r in reader]
        return cls.from_rows(rows)

    @classmethod
    def default(cls) -> "ModcodTable":
        ref = resources.files("bhca").joinpath("data").joinpath(_DEFAULT_TABLE_RESOURCE)
        with ref.open("r", encoding="utf-8") as fh:
            return cls._from_reader(csv.DictReader(fh))


@dataclass(frozen=True)
class RateTable:
    """Per-(cluster, carrier, user) SINR and achievable rate.

    ``rate_per_slot`` is bits per time-slot, ``rate_bps`` bits per second;
    rates carry no time axis because the channel is static over the window.
    """

    sinr_db: np.ndarray        # (L, C, U), dB
    rate_bps: np.ndarray       # (L, C, U), bits/s
    rate_per_slot: np.ndarray  # (L, C, U), bits/slot


def compute_rate_table(scenario: Scenario, modcod: ModcodTable) -> RateTable:
    """Evaluate the link budget for every (cluster, carrier, user) triple.

    SINR below the lowest MODCOD threshold maps to rate 0 rather than an
    error; rate = symbol_rate * f_SE(sinr), with symbol rate B/(1+roll_off).
    """
    cfg = scenario.config
    beam_xy = np.array([[b.x_km, b.y_km] for b in scenario.beams])
    carrier_beam = [[scenario.carriers[c].beam_id for c in cl.carrier_ids] for cl in scenario.clusters]
    carrier_xy = beam_xy[carrier_beam]
    user_xy = np.array([[(scenario.users[u].x_km, scenario.users[u].y_km) for u in cl.user_ids]
                        for cl in scenario.clusters])
    per_carrier_power_dbw = cfg.power_per_transponder - 10.0 * np.log10(
        cfg.carriers_per_transponder
    )
    noise_dbw = BOLTZMANN_DB + 10.0 * np.log10(cfg.carrier_bandwidth)
    # Gaussian rolloff: -3 dB at half the pitch from boresight.
    r3 = cfg.beam_pitch_km / 2.0

    # (L, C, U): carrier c's beam center against user u, both of cluster l.
    offset = user_xy[:, None, :, :] - carrier_xy[:, :, None, :]
    dist = np.hypot(offset[..., 0], offset[..., 1])
    gain = cfg.tx_peak_gain_dbi - 3.0 * (dist / r3) ** 2
    sinr = (
        per_carrier_power_dbw
        + gain
        + cfg.rx_gain_over_temp_db_per_k
        - cfg.path_loss_db
        - noise_dbw
    )

    efficiency = modcod.efficiency(sinr)
    rate_bps = cfg.symbol_rate * efficiency
    rate_per_slot = rate_bps * cfg.slot_duration
    for arr in (sinr, rate_bps, rate_per_slot):
        arr.flags.writeable = False
    return RateTable(sinr_db=sinr, rate_bps=rate_bps, rate_per_slot=rate_per_slot)
