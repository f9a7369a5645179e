"""Deterministic multi-beam scenario synthesis.

Builds the geometry (hexagonal beam lattice, clusters of adjacent beams with
dual-polarization carriers), places seeded users inside their cluster
footprint, and draws heterogeneous traffic demands. Everything downstream
(rate tables, planner models, baselines) consumes the immutable ``Scenario``
produced here.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

# Clusters count as adjacent when their closest beam centers sit within this
# multiple of the lattice pitch (captures the six hex neighbors, excludes the
# second ring at sqrt(3) x pitch).
ADJACENCY_FACTOR = 1.5

POLARIZATIONS = ("LHCP", "RHCP")

# Demand heterogeneity: multipliers applied to the per-user fair share.
HIGH_DEMAND_RANGE = (2.0, 4.0)
LOW_DEMAND_RANGE = (0.2, 1.0)


class ConfigError(ValueError):
    """Raised when a system configuration violates one of its invariants."""


@dataclass(frozen=True)
class SystemConfig:
    """Static description of the satellite system and synthesis knobs.

    Counts and SI-unit fields mirror the JSON config schema one-to-one
    (snake_case keys). ``power_per_beam_watts`` is carried as an independent
    field and is not folded into the carrier link budget, which works from
    ``power_per_transponder``.
    """

    num_beams: int = 16
    num_clusters: int = 8
    beams_per_cluster: int = 2
    carriers_per_cluster: int = 2
    carrier_bandwidth: float = 54e6          # Hz
    system_bandwidth: float = 500e6          # Hz
    roll_off: float = 0.2
    power_per_transponder: float = 15.0      # dBW
    num_transponders: int = 8
    active_clusters_per_slot: int = 2
    slots_per_window: int = 64
    slot_duration: float = 1.3e-3            # s
    delta_max: int = 2
    rng_seed: int = 1
    # Synthesis knobs (optional in config files).
    users_per_beam: int = 12
    high_demand_fraction: float = 0.3
    power_per_beam_watts: float = 12.0
    beam_pitch_km: float = 50.0
    tx_peak_gain_dbi: float = 51.0
    rx_gain_over_temp_db_per_k: float = 12.0
    path_loss_db: float = 210.0
    # Reference efficiency used only to scale synthesized demands; the
    # default matches the mean own-carrier efficiency under the default
    # link budget and MODCOD table, so demand roughly balances capacity.
    reference_spectral_efficiency: float = 4.5

    @property
    def hopping_window_duration(self) -> float:
        return self.slots_per_window * self.slot_duration

    @property
    def users_per_cluster(self) -> int:
        return self.users_per_beam * self.beams_per_cluster

    @property
    def symbol_rate(self) -> float:
        return self.carrier_bandwidth / (1.0 + self.roll_off)

    @property
    def carriers_per_transponder(self) -> int:
        return max(1, math.ceil(self.carriers_per_cluster / len(POLARIZATIONS)))

    def validate(self) -> list[str]:
        """Return a list of human-readable invariant violations (empty if valid).

        The one judge of every config, read from JSON or built in code: an
        ``int`` field takes an ``int``, any other a real number a float holds
        finitely, and a ``bool`` neither. The rules after the per-field ones
        compare numbers, so they run only once every field has its type.
        """
        diags, typed = [], True
        for f in fields(self):
            value, integer = getattr(self, f.name), f.name in _INT_FIELDS
            least = 0 if f.name == "rng_seed" else 1
            right = isinstance(value, int if integer else (int, float)) and not isinstance(value, bool)
            right = right and (integer or abs(value) <= sys.float_info.max)
            typed &= right
            if not integer and not right:
                diags.append(f"{f.name} must be a finite number")
            elif integer and not (right and value >= least):
                diags.append(f"{f.name} must be an integer >= {least}")
        if not typed:
            return diags
        if self.num_beams != self.num_clusters * self.beams_per_cluster:
            diags.append("num_beams must equal num_clusters * beams_per_cluster")
        if self.active_clusters_per_slot >= self.num_clusters:
            diags.append("active_clusters_per_slot must be < num_clusters")
        if self.active_clusters_per_slot * self.carriers_per_cluster > self.num_transponders:
            diags.append(
                "active_clusters_per_slot * carriers_per_cluster must be <= num_transponders"
            )
        if self.carrier_bandwidth <= 0:
            diags.append("carrier_bandwidth must be > 0")
        if self.carrier_bandwidth > self.system_bandwidth:
            diags.append("carrier_bandwidth must be <= system_bandwidth")
        if not 0.0 <= self.roll_off < 1.0:
            diags.append("roll_off must be in [0, 1)")
        if self.slot_duration <= 0:
            diags.append("slot_duration must be > 0")
        if not 0.0 <= self.high_demand_fraction <= 1.0:
            diags.append("high_demand_fraction must be in [0, 1]")
        if self.beam_pitch_km <= 0:
            diags.append("beam_pitch_km must be > 0")
        if self.reference_spectral_efficiency <= 0:
            diags.append("reference_spectral_efficiency must be > 0")
        return diags

    def require_valid(self) -> None:
        diags = self.validate()
        if diags:
            raise ConfigError("; ".join(diags))

    def to_dict(self) -> dict:
        return _record(self)


# Keys that must be present in a JSON config document; the synthesis knobs
# after them may be omitted and fall back to defaults.
REQUIRED_CONFIG_KEYS = (
    "num_beams",
    "num_clusters",
    "beams_per_cluster",
    "carriers_per_cluster",
    "carrier_bandwidth",
    "system_bandwidth",
    "roll_off",
    "power_per_transponder",
    "num_transponders",
    "active_clusters_per_slot",
    "slots_per_window",
    "slot_duration",
    "delta_max",
    "rng_seed",
)


# SystemConfig's integer fields; every other field is a float. The
# annotations are strings under ``from __future__ import annotations``.
_INT_FIELDS = frozenset(f.name for f in fields(SystemConfig) if f.type in ("int", int))


def config_from_dict(doc: dict) -> SystemConfig:
    """Build a SystemConfig from a parsed JSON document.

    Raises ConfigError naming the offending key when a required key is
    missing or an unknown key is present; ``SystemConfig.validate`` judges the
    values, as for a config built in code. A JSON integer of a float field is
    read as a float when a float holds it.
    """
    known = {f.name for f in fields(SystemConfig)}
    missing = [k for k in REQUIRED_CONFIG_KEYS if k not in doc]
    if missing:
        raise ConfigError("missing required config key: " + ", ".join(missing))
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigError("unknown config key: " + ", ".join(unknown))
    return SystemConfig(**{
        k: float(v) if k not in _INT_FIELDS and type(v) is int and abs(v) <= sys.float_info.max else v
        for k, v in doc.items()
    })


def _unique_keys(pairs) -> dict:
    """A JSON object from its members; a key given twice raises ConfigError."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"repeated config key: {key}")
        doc[key] = value
    return doc


def load_config(path) -> SystemConfig:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh, object_pairs_hook=_unique_keys)
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    return config_from_dict(doc)


def _record(obj) -> dict:
    """A flat record's fields by name; unlike ``asdict``, copies no value."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


@dataclass(frozen=True)
class Beam:
    id: int
    x_km: float
    y_km: float


@dataclass(frozen=True)
class Carrier:
    id: int
    cluster_id: int
    beam_id: int
    polarization: str
    bandwidth: float


@dataclass(frozen=True)
class Cluster:
    id: int
    beam_ids: tuple[int, ...]
    carrier_ids: tuple[int, ...]
    user_ids: tuple[int, ...]


@dataclass(frozen=True)
class User:
    id: int
    cluster_id: int
    beam_id: int            # nearest beam center within the cluster
    x_km: float
    y_km: float
    demand_bphw: float      # bits per hopping window
    high_demand: bool


@dataclass(frozen=True)
class Scenario:
    """Immutable system snapshot: geometry, clusters, carriers, users, demands."""

    config: SystemConfig
    beams: tuple[Beam, ...]
    clusters: tuple[Cluster, ...]
    carriers: tuple[Carrier, ...]
    users: tuple[User, ...]

    def users_of_cluster(self, cluster_id: int) -> tuple[User, ...]:
        return tuple(self.users[u] for u in self.clusters[cluster_id].user_ids)

    def carriers_of_cluster(self, cluster_id: int) -> tuple[Carrier, ...]:
        return tuple(self.carriers[c] for c in self.clusters[cluster_id].carrier_ids)

    def demand_matrix(self) -> np.ndarray:
        """Demands as an (L, users_per_cluster) array in bits per hopping window."""
        demands = np.array(
            [[self.users[u].demand_bphw for u in cl.user_ids] for cl in self.clusters]
        )
        demands.flags.writeable = False
        return demands

    def snapshot(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "beams": [_record(b) for b in self.beams],
            "clusters": [_record(c) for c in self.clusters],
            "carriers": [_record(c) for c in self.carriers],
            "users": [_record(u) for u in self.users],
        }

    def snapshot_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=True) + "\n"


def _beam_positions(config: SystemConfig) -> np.ndarray:
    """Hexagonal lattice positions, row-major, odd rows offset by half a pitch."""
    pitch = config.beam_pitch_km
    cols = math.ceil(math.sqrt(config.num_beams))
    xy = np.empty((config.num_beams, 2))
    for b in range(config.num_beams):
        row, col = divmod(b, cols)
        xy[b, 0] = (col + 0.5 * (row % 2)) * pitch
        xy[b, 1] = row * pitch * math.sqrt(3.0) / 2.0
    return xy


def _pair_beams(xy: np.ndarray, beams_per_cluster: int) -> list[list[int]]:
    """Greedy nearest-neighbor grouping of beams into clusters."""
    remaining = list(range(xy.shape[0]))
    groups = []
    while remaining:
        b0 = remaining.pop(0)
        by_distance = sorted(
            remaining,
            key=lambda b: (float(np.hypot(*(xy[b] - xy[b0]))), b),
        )
        mates = by_distance[: beams_per_cluster - 1]
        for b in mates:
            remaining.remove(b)
        groups.append([b0] + mates)
    return groups


def generate_scenario(config: SystemConfig) -> Scenario:
    """Synthesize a deterministic scenario from a validated configuration.

    A fixed ``rng_seed`` fully determines the output: beam lattice, cluster
    pairing, user placement inside the cluster footprint, the high-demand user
    subset (``high_demand_fraction`` of all users, rounded to nearest), and the
    per-user demands drawn around the per-user fair share of a beam's capacity.
    """
    config.require_valid()
    rng = np.random.default_rng(config.rng_seed)

    xy = _beam_positions(config)
    beams = tuple(Beam(b, float(xy[b, 0]), float(xy[b, 1])) for b in range(config.num_beams))
    groups = _pair_beams(xy, config.beams_per_cluster)
    if len(groups) != config.num_clusters:
        raise ConfigError(
            f"beam grouping produced {len(groups)} clusters, expected {config.num_clusters}"
        )

    carriers = []
    for l, group in enumerate(groups):
        for c in range(config.carriers_per_cluster):
            carriers.append(
                Carrier(
                    id=len(carriers),
                    cluster_id=l,
                    beam_id=group[c % len(group)],
                    polarization=POLARIZATIONS[c % len(POLARIZATIONS)],
                    bandwidth=config.carrier_bandwidth,
                )
            )

    # Place users: per cluster, uniform over the footprint (pick a beam, then a
    # uniform point in its disk).
    disk_radius = config.beam_pitch_km / math.sqrt(3.0)
    positions = []
    home_cluster = []
    for l, group in enumerate(groups):
        for _ in range(config.users_per_cluster):
            pick = int(rng.integers(0, len(group)))
            radius = disk_radius * math.sqrt(float(rng.random()))
            angle = 2.0 * math.pi * float(rng.random())
            center = xy[group[pick]]
            positions.append(
                (center[0] + radius * math.cos(angle), center[1] + radius * math.sin(angle))
            )
            home_cluster.append(l)

    total_users = len(positions)
    n_high = int(math.floor(config.high_demand_fraction * total_users + 0.5))
    high_ids = set(int(u) for u in rng.permutation(total_users)[:n_high])

    # Fair share of a beam's capacity per user, in bits per hopping window:
    # one carrier at the reference efficiency, scaled by the illumination duty
    # cycle and split across the beam's users.
    duty = config.active_clusters_per_slot / config.num_clusters
    share_bphw = (
        config.symbol_rate
        * config.reference_spectral_efficiency
        * config.slot_duration
        * config.slots_per_window
        * duty
        / config.users_per_beam
    )

    users = []
    for uid in range(total_users):
        l = home_cluster[uid]
        x, y = positions[uid]
        group = groups[l]
        nearest = min(group, key=lambda b: (float(np.hypot(xy[b, 0] - x, xy[b, 1] - y)), b))
        high = uid in high_ids
        lo, hi = HIGH_DEMAND_RANGE if high else LOW_DEMAND_RANGE
        demand = share_bphw * float(rng.uniform(lo, hi))
        users.append(
            User(
                id=uid,
                cluster_id=l,
                beam_id=nearest,
                x_km=float(x),
                y_km=float(y),
                demand_bphw=demand,
                high_demand=high,
            )
        )

    clusters = []
    uid = 0
    for l, group in enumerate(groups):
        user_ids = tuple(range(uid, uid + config.users_per_cluster))
        uid += config.users_per_cluster
        carrier_ids = tuple(
            c.id for c in carriers if c.cluster_id == l
        )
        clusters.append(Cluster(id=l, beam_ids=tuple(group), carrier_ids=carrier_ids, user_ids=user_ids))

    return Scenario(
        config=config,
        beams=beams,
        clusters=tuple(clusters),
        carriers=tuple(carriers),
        users=tuple(users),
    )


def adjacency_pairs(scenario: Scenario) -> frozenset[tuple[int, int]]:
    """Cluster pairs whose closest beam centers sit within the adjacency radius.

    Pairs are stored canonically as (low, high); the relation is symmetric and
    irreflexive by construction.
    """
    xy = np.array([[b.x_km, b.y_km] for b in scenario.beams])
    offset = xy[:, None, :] - xy[None, :, :]
    beam_dist = np.hypot(offset[..., 0], offset[..., 1])
    groups = np.array([cluster.beam_ids for cluster in scenario.clusters])
    closest = beam_dist[groups[:, None, :, None], groups[None, :, None, :]].min(axis=(2, 3))
    close = np.triu(closest < ADJACENCY_FACTOR * scenario.config.beam_pitch_km, k=1)
    return frozenset((int(i), int(j)) for i, j in zip(*np.nonzero(close)))
