"""Assembly of the single-objective planning MILP and solution auditing.

The model couples carrier-user assignment (binary ``a``), carrier fill-rates
(continuous ``beta``), cluster illumination per slot (binary ``z``), and the
``q = beta * z`` linearization products, under the max-min scalarized
objective ``theta + eps_obj * (sum tU + tL)``. Constraint families carry
stable ``C1..C9`` tags so audits and the LP export can name every row.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linkbudget import RateTable
from .scenario import Scenario

LESS = "<="
GREATER = ">="
EQUAL = "="

DEFAULT_EPSILON_FILL = 1e-6
DEFAULT_EPSILON_TIEBREAK = 1e-4

VALIDATION_TOL = 1e-6


class StructuralError(ValueError):
    """Model inputs are inconsistent (index spaces do not line up)."""


class InfeasibleSolutionError(ValueError):
    """A solution failed the feasibility audit; carries the violation report."""

    def __init__(self, report: "ViolationReport"):
        super().__init__(f"solution is infeasible: {report}")
        self.report = report


class VariableCatalog:
    """Flat column layout for the planner model.

    Column order is fixed: ``a`` (l,c,u), ``beta`` (l,c,u), ``q`` (l,c,u,t),
    ``z`` (l,t), ``tU`` (l), ``tL``, ``theta``, each family lexicographic by
    its index tuple. ``a`` and ``beta`` share an index space and carry no time
    axis: assignments and fill-rates hold for the whole hopping window.
    """

    def __init__(self, num_clusters: int, num_carriers: int, num_users: int, num_slots: int):
        self.num_clusters = num_clusters
        self.num_carriers = num_carriers
        self.num_users = num_users
        self.num_slots = num_slots
        lcu = num_clusters * num_carriers * num_users
        self.off_a = 0
        self.off_beta = lcu
        self.off_q = 2 * lcu
        self.off_z = 2 * lcu + lcu * num_slots
        self.off_tu = self.off_z + num_clusters * num_slots
        self.off_tl = self.off_tu + num_clusters
        self.off_theta = self.off_tl + 1
        self.num_cols = self.off_theta + 1

    def a_col(self, l: int, c: int, u: int) -> int:
        return self.off_a + (l * self.num_carriers + c) * self.num_users + u

    def beta_col(self, l: int, c: int, u: int) -> int:
        return self.off_beta + (l * self.num_carriers + c) * self.num_users + u

    def q_col(self, l: int, c: int, u: int, t: int) -> int:
        return self.off_q + ((l * self.num_carriers + c) * self.num_users + u) * self.num_slots + t

    def z_col(self, l: int, t: int) -> int:
        return self.off_z + l * self.num_slots + t

    def tu_col(self, l: int) -> int:
        return self.off_tu + l

    @property
    def tl_col(self) -> int:
        return self.off_tl

    @property
    def theta_col(self) -> int:
        return self.off_theta

    def col_name(self, j: int) -> str:
        """Wire name with 1-based indices: a_l_c_u, beta_l_c_u, q_l_c_u_t, z_l_t, tU_l, tL, theta."""
        C, U, T = self.num_carriers, self.num_users, self.num_slots
        if j < self.off_beta:
            l, rem = divmod(j - self.off_a, C * U)
            c, u = divmod(rem, U)
            return f"a_{l + 1}_{c + 1}_{u + 1}"
        if j < self.off_q:
            l, rem = divmod(j - self.off_beta, C * U)
            c, u = divmod(rem, U)
            return f"beta_{l + 1}_{c + 1}_{u + 1}"
        if j < self.off_z:
            l, rem = divmod(j - self.off_q, C * U * T)
            c, rem = divmod(rem, U * T)
            u, t = divmod(rem, T)
            return f"q_{l + 1}_{c + 1}_{u + 1}_{t + 1}"
        if j < self.off_tu:
            l, t = divmod(j - self.off_z, T)
            return f"z_{l + 1}_{t + 1}"
        if j < self.off_tl:
            return f"tU_{j - self.off_tu + 1}"
        if j == self.off_tl:
            return "tL"
        if j == self.off_theta:
            return "theta"
        raise IndexError(j)

    def lower(self) -> np.ndarray:
        return np.zeros(self.num_cols)

    def upper(self) -> np.ndarray:
        up = np.ones(self.num_cols)
        up[self.off_tu:] = np.inf
        return up

    def binary_mask(self) -> np.ndarray:
        mask = np.zeros(self.num_cols, dtype=bool)
        mask[self.off_a:self.off_beta] = True
        mask[self.off_z:self.off_tu] = True
        return mask


class BaselineCatalog:
    """Column layout of the baseline stage-1 model: z (l, t) blocks, then theta."""

    def __init__(self, num_clusters: int, num_slots: int):
        self.num_clusters = num_clusters
        self.num_slots = num_slots
        self.off_z = 0
        self.theta_col = num_clusters * num_slots
        self.num_cols = self.theta_col + 1

    def z_col(self, l: int, t: int) -> int:
        return l * self.num_slots + t

    def col_name(self, j: int) -> str:
        if j < self.theta_col:
            l, t = divmod(j, self.num_slots)
            return f"z_{l + 1}_{t + 1}"
        return "theta"


@dataclass(frozen=True)
class LinearConstraint:
    """One sparse row: sum(coefs * x[cols]) <sense> rhs. Zero coefficients are never stored."""

    cols: tuple[int, ...]
    coefs: tuple[float, ...]
    sense: str
    rhs: float
    tag: str

    @property
    def coefficients(self) -> dict[int, float]:
        return dict(zip(self.cols, self.coefs))


@dataclass(eq=False)
class ModelInstance:
    """Immutable assembled model: catalog, rows, scalarized objective, bounds."""

    catalog: object
    constraints: tuple[LinearConstraint, ...]
    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    binary: np.ndarray
    epsilon_fill: float = DEFAULT_EPSILON_FILL
    epsilon_tiebreak: float = DEFAULT_EPSILON_TIEBREAK
    big_m: float = 1.0
    # Provenance data for decoding, solving and the oracle (per cluster in baseline models).
    rate_per_slot: np.ndarray | None = None
    demand: np.ndarray | None = None
    pairs: frozenset | None = None
    active_clusters_per_slot: int | None = None
    delta_max: int | None = None

    @property
    def num_cols(self) -> int:
        return self.objective.shape[0]

    @property
    def num_rows(self) -> int:
        return len(self.constraints)

    @cached_property
    def row_arrays(self):
        """CSR-style arrays (indptr, cols, coefs, senses, rhs) for fast evaluation."""
        indptr = np.zeros(len(self.constraints) + 1, dtype=np.int64)
        cols = []
        coefs = []
        senses = np.empty(len(self.constraints), dtype="<U2")
        rhs = np.empty(len(self.constraints))
        for i, row in enumerate(self.constraints):
            cols.append(np.asarray(row.cols, dtype=np.int64))
            coefs.append(np.asarray(row.coefs))
            indptr[i + 1] = indptr[i] + len(row.cols)
            senses[i] = row.sense
            rhs[i] = row.rhs
        cols = np.concatenate(cols) if cols else np.empty(0, dtype=np.int64)
        coefs = np.concatenate(coefs) if coefs else np.empty(0)
        return indptr, cols, coefs, senses, rhs

    def row_values(self, x: np.ndarray) -> np.ndarray:
        indptr, cols, coefs, _, _ = self.row_arrays
        prods = coefs * x[cols]
        out = np.add.reduceat(prods, indptr[:-1]) if len(cols) else np.zeros(len(self.constraints))
        out[indptr[:-1] == indptr[1:]] = 0.0
        return out

    def canonical_text(self) -> str:
        """Stable text rendering of the whole model, used for golden hashes."""
        lines = []
        obj_terms = ",".join(
            f"{j}:{self.objective[j]!r}" for j in np.nonzero(self.objective)[0]
        )
        lines.append(f"obj|{obj_terms}")
        for row in self.constraints:
            terms = ",".join(f"{c}:{v!r}" for c, v in zip(row.cols, row.coefs))
            lines.append(f"{row.tag}|{row.sense}|{row.rhs!r}|{terms}")
        bounds = ",".join(
            f"{j}:{self.lower[j]!r}:{self.upper[j]!r}:{int(self.binary[j])}"
            for j in range(self.num_cols)
        )
        lines.append(f"bounds|{bounds}")
        return "\n".join(lines) + "\n"

    def matrix_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def build_model(
    scenario: Scenario,
    rates: RateTable,
    pairs,
    epsilon_fill: float = DEFAULT_EPSILON_FILL,
    epsilon_tiebreak: float = DEFAULT_EPSILON_TIEBREAK,
) -> ModelInstance:
    """Assemble the full planner MILP from a scenario and its rate table.

    Emits, in fixed order: C1 carrier-count caps, C2 per-carrier fill budgets,
    C3 per-slot activation caps, C4/C5 supply-vs-ratio floors, C6 adjacency
    exclusions, C7 assignment/fill coupling (big-M = 1), C8 min-ratio bounds,
    and the four C9 product-envelope rows per (l,c,u,t).
    """
    cfg = scenario.config
    L, C, U = cfg.num_clusters, cfg.carriers_per_cluster, cfg.users_per_cluster
    T = cfg.slots_per_window
    if tuple(rates.rate_per_slot.shape) != (L, C, U):
        raise StructuralError(
            f"rate table shape {rates.rate_per_slot.shape} does not match scenario ({L}, {C}, {U})"
        )
    R = rates.rate_per_slot
    demand = scenario.demand_matrix()
    cat = VariableCatalog(L, C, U, T)

    rows: list[LinearConstraint] = []

    def add(cols, coefs, sense, rhs, tag):
        kept = [(c, v) for c, v in zip(cols, coefs) if v != 0.0]
        rows.append(
            LinearConstraint(
                cols=tuple(c for c, _ in kept),
                coefs=tuple(float(v) for _, v in kept),
                sense=sense,
                rhs=float(rhs),
                tag=tag,
            )
        )

    # C1: each user aggregates at most delta_max carriers.
    for l in range(L):
        for u in range(U):
            add(
                [cat.a_col(l, c, u) for c in range(C)],
                [1.0] * C,
                LESS,
                cfg.delta_max,
                f"C1_l{l + 1}_u{u + 1}",
            )
    # C2: fill-rates on one carrier sum to at most 1.
    for l in range(L):
        for c in range(C):
            add(
                [cat.beta_col(l, c, u) for u in range(U)],
                [1.0] * U,
                LESS,
                1.0,
                f"C2_l{l + 1}_c{c + 1}",
            )
    # C3: at most N_T clusters active per slot.
    for t in range(T):
        add(
            [cat.z_col(l, t) for l in range(L)],
            [1.0] * L,
            LESS,
            cfg.active_clusters_per_slot,
            f"C3_t{t + 1}",
        )
    # C4: per-user supply covers the cluster ratio floor. Rows are divided
    # through by the (positive) demand so coefficients stay O(1).
    for l in range(L):
        for u in range(U):
            if demand[l, u] <= 0.0:
                raise StructuralError(f"user demand must be positive (cluster {l}, user {u})")
            cols = []
            coefs = []
            for c in range(C):
                for t in range(T):
                    cols.append(cat.q_col(l, c, u, t))
                    coefs.append(R[l, c, u] / demand[l, u])
            cols.append(cat.tu_col(l))
            coefs.append(-1.0)
            add(cols, coefs, GREATER, 0.0, f"C4_l{l + 1}_u{u + 1}")
    # C5: per-cluster supply covers the system ratio floor, same normalization.
    for l in range(L):
        d_l = float(demand[l].sum())
        cols = []
        coefs = []
        for c in range(C):
            for u in range(U):
                for t in range(T):
                    cols.append(cat.q_col(l, c, u, t))
                    coefs.append(R[l, c, u] / d_l)
        cols.append(cat.tl_col)
        coefs.append(-1.0)
        add(cols, coefs, GREATER, 0.0, f"C5_l{l + 1}")
    # C6: adjacent clusters never co-illuminated.
    sorted_pairs = sorted(tuple(p) for p in pairs)
    for (n1, n2) in sorted_pairs:
        for t in range(T):
            add(
                [cat.z_col(n1, t), cat.z_col(n2, t)],
                [1.0, 1.0],
                LESS,
                1.0,
                f"C6_l{n1 + 1}_l{n2 + 1}_t{t + 1}",
            )
    # C7: fill-rate active exactly when the carrier is assigned (big-M = 1).
    big_m = 1.0
    for l in range(L):
        for c in range(C):
            for u in range(U):
                add(
                    [cat.beta_col(l, c, u), cat.a_col(l, c, u)],
                    [1.0, -big_m],
                    LESS,
                    0.0,
                    f"C7a_l{l + 1}_c{c + 1}_u{u + 1}",
                )
    for l in range(L):
        for c in range(C):
            for u in range(U):
                add(
                    [cat.beta_col(l, c, u), cat.a_col(l, c, u)],
                    [1.0, -1.0],
                    GREATER,
                    epsilon_fill - 1.0,
                    f"C7b_l{l + 1}_c{c + 1}_u{u + 1}",
                )
    # C8: theta sits below every ratio floor.
    for l in range(L):
        add(
            [cat.theta_col, cat.tu_col(l)],
            [1.0, -1.0],
            LESS,
            0.0,
            f"C8a_l{l + 1}",
        )
    add([cat.theta_col, cat.tl_col], [1.0, -1.0], LESS, 0.0, "C8b")
    # C9: envelope forcing q = beta * z at binary z.
    for l in range(L):
        for c in range(C):
            for u in range(U):
                for t in range(T):
                    add(
                        [cat.q_col(l, c, u, t)],
                        [1.0],
                        GREATER,
                        0.0,
                        f"C9a_l{l + 1}_c{c + 1}_u{u + 1}_t{t + 1}",
                    )
    for l in range(L):
        for c in range(C):
            for u in range(U):
                for t in range(T):
                    add(
                        [cat.q_col(l, c, u, t), cat.z_col(l, t)],
                        [1.0, -1.0],
                        LESS,
                        0.0,
                        f"C9b_l{l + 1}_c{c + 1}_u{u + 1}_t{t + 1}",
                    )
    for l in range(L):
        for c in range(C):
            for u in range(U):
                for t in range(T):
                    add(
                        [cat.q_col(l, c, u, t), cat.beta_col(l, c, u)],
                        [1.0, -1.0],
                        LESS,
                        0.0,
                        f"C9c_l{l + 1}_c{c + 1}_u{u + 1}_t{t + 1}",
                    )
    for l in range(L):
        for c in range(C):
            for u in range(U):
                for t in range(T):
                    add(
                        [cat.q_col(l, c, u, t), cat.beta_col(l, c, u), cat.z_col(l, t)],
                        [1.0, -1.0, -1.0],
                        GREATER,
                        -1.0,
                        f"C9d_l{l + 1}_c{c + 1}_u{u + 1}_t{t + 1}",
                    )

    objective = np.zeros(cat.num_cols)
    objective[cat.theta_col] = 1.0
    for l in range(L):
        objective[cat.tu_col(l)] = epsilon_tiebreak
    objective[cat.tl_col] = epsilon_tiebreak

    return ModelInstance(
        catalog=cat,
        constraints=tuple(rows),
        objective=objective,
        lower=cat.lower(),
        upper=cat.upper(),
        binary=cat.binary_mask(),
        epsilon_fill=epsilon_fill,
        epsilon_tiebreak=epsilon_tiebreak,
        big_m=big_m,
        rate_per_slot=R,
        demand=demand,
        pairs=frozenset(tuple(p) for p in sorted_pairs),
        active_clusters_per_slot=cfg.active_clusters_per_slot,
        delta_max=cfg.delta_max,
    )


@dataclass(frozen=True)
class ViolationReport:
    """Every constraint, bound, or integrality violation above the audit tolerance."""

    entries: tuple[tuple[str, float], ...]

    @property
    def empty(self) -> bool:
        return not self.entries

    @property
    def max_violation(self) -> float:
        return max((v for _, v in self.entries), default=0.0)

    def __str__(self) -> str:
        if self.empty:
            return "no violations"
        worst = sorted(self.entries, key=lambda e: -e[1])[:5]
        head = ", ".join(f"{tag} by {v:.3g}" for tag, v in worst)
        return f"{len(self.entries)} violation(s): {head}"


def validate_solution(model: ModelInstance, assignment: np.ndarray, tol: float = VALIDATION_TOL) -> ViolationReport:
    """Audit an assignment against every row, bound, and binary of the model."""
    x = np.asarray(assignment, dtype=float)
    if x.shape != (model.num_cols,):
        raise StructuralError(
            f"assignment covers {x.shape} columns, model has {model.num_cols}"
        )
    entries = []
    lhs = model.row_values(x)
    for i, row in enumerate(model.constraints):
        if row.sense == LESS:
            violation = lhs[i] - row.rhs
        elif row.sense == GREATER:
            violation = row.rhs - lhs[i]
        else:
            violation = abs(lhs[i] - row.rhs)
        if violation > tol:
            entries.append((row.tag, float(violation)))
    low_viol = model.lower - x
    up_viol = x - model.upper
    for j in np.nonzero(low_viol > tol)[0]:
        entries.append((f"bound_{model.catalog.col_name(int(j))}", float(low_viol[j])))
    for j in np.nonzero(up_viol > tol)[0]:
        entries.append((f"bound_{model.catalog.col_name(int(j))}", float(up_viol[j])))
    frac = np.abs(x - np.round(x))
    for j in np.nonzero(model.binary & (frac > tol))[0]:
        entries.append((f"integrality_{model.catalog.col_name(int(j))}", float(frac[j])))
    return ViolationReport(entries=tuple(entries))


@dataclass(frozen=True)
class AllocationPlan:
    """Decoded, human-meaningful plan for the joint scheme."""

    schedule: tuple[tuple[int, ...], ...]          # per cluster: active slot indices
    carrier_sets: tuple[tuple[tuple[int, ...], ...], ...]  # [l][u] -> assigned carriers
    fill_rate: np.ndarray                          # (L, C, U)
    user_supply: np.ndarray                        # (L, U) bits per hopping window
    cluster_supply: np.ndarray                     # (L,)
    user_ratio_floor: np.ndarray                   # (L,) tU values
    cluster_ratio_floor: float                     # tL value
    min_ratio: float                               # theta value
    objective: float

    def to_dict(self) -> dict:
        return {
            "schedule": [list(s) for s in self.schedule],
            "carrier_sets": [[list(cs) for cs in per_user] for per_user in self.carrier_sets],
            "fill_rate": self.fill_rate.tolist(),
            "user_supply_bphw": self.user_supply.tolist(),
            "cluster_supply_bphw": self.cluster_supply.tolist(),
            "user_ratio_floor": self.user_ratio_floor.tolist(),
            "cluster_ratio_floor": self.cluster_ratio_floor,
            "min_ratio": self.min_ratio,
            "objective": self.objective,
        }


def decode_plan(model: ModelInstance, solution, scenario: Scenario) -> AllocationPlan:
    """Turn a feasible solution into schedules, carrier sets, and supplies.

    Refuses infeasible input, attaching the violation report. Supplies are
    computed from the q columns so plan totals equal the model's own supply
    terms exactly.
    """
    report = validate_solution(model, solution.values)
    if not report.empty:
        raise InfeasibleSolutionError(report)
    cat = model.catalog
    L, C, U, T = cat.num_clusters, cat.num_carriers, cat.num_users, cat.num_slots
    x = solution.values
    q = x[cat.off_q:cat.off_z].reshape(L, C, U, T)
    z = x[cat.off_z:cat.off_tu].reshape(L, T)
    a = x[cat.off_a:cat.off_beta].reshape(L, C, U)
    beta = x[cat.off_beta:cat.off_q].reshape(L, C, U)

    rate = model.rate_per_slot
    if rate is None:
        raise StructuralError("model carries no rate data; was it built by build_model?")
    user_supply = np.einsum("lcut,lcu->lu", q, rate)
    cluster_supply = user_supply.sum(axis=1)
    schedule = tuple(tuple(int(t) for t in np.nonzero(z[l] > 0.5)[0]) for l in range(L))
    carrier_sets = tuple(
        tuple(tuple(int(c) for c in np.nonzero(a[l, :, u] > 0.5)[0]) for u in range(U))
        for l in range(L)
    )
    user_supply.flags.writeable = False
    cluster_supply.flags.writeable = False
    return AllocationPlan(
        schedule=schedule,
        carrier_sets=carrier_sets,
        fill_rate=beta,
        user_supply=user_supply,
        cluster_supply=cluster_supply,
        user_ratio_floor=x[cat.off_tu:cat.off_tl].copy(),
        cluster_ratio_floor=float(x[cat.tl_col]),
        min_ratio=float(x[cat.theta_col]),
        objective=float(solution.objective),
    )
