"""Assembly of the single-objective planning MILP and solution auditing.

The model couples carrier-user assignment (binary ``a``), carrier fill-rates
(continuous ``beta``), cluster illumination per slot (binary ``z``), and the
``q = beta * z`` linearization products, under the max-min scalarized
objective ``theta + eps_obj * (sum tU + tL)``. Every model's rows come from
``RowBuilder`` blocks, whose ``GridNames`` tags (``C1..C9`` here) let audits
and the LP export name every row; a hand-written row is a block without
axes, ``rows.add(tag, (), cols, coefs, sense, rhs)``.
"""
from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .linkbudget import RateTable
from .scenario import Scenario
from .simplex import EQUAL, GREATER, LESS, SENSES, row_excess, sense_codes

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
    """Flat column layout for the planner model, declared once by ``names``.

    Column order is fixed: ``a`` (l,c,u), ``beta`` (l,c,u), ``q`` (l,c,u,t),
    ``z`` (l,t), ``tU`` (l), ``tL``, ``theta``, each family lexicographic by
    its index tuple. ``a`` and ``beta`` share an index space and carry no time
    axis: assignments and fill-rates hold for the whole hopping window.
    ``names`` holds the wire names, with 1-based indices: ``a_l_c_u``,
    ``beta_l_c_u``, ``q_l_c_u_t``, ``z_l_t``, ``tU_l``, ``tL``, ``theta``.
    The rest is derived from it: the column grids ``a``, ``beta``, ``q``,
    ``z`` and ``tu`` are index arrays shaped by their axes (``q[l, c, u, t]``
    is a column), ``tl_col`` and ``theta_col`` are ints, and ``off_a`` ..
    ``off_tl`` are the first columns of the families.
    """

    def __init__(self, num_clusters: int, num_carriers: int, num_users: int, num_slots: int):
        self.num_clusters = num_clusters
        self.num_carriers = num_carriers
        self.num_users = num_users
        self.num_slots = num_slots
        ls, cs, us, ts = (
            index_labels("", n) for n in (num_clusters, num_carriers, num_users, num_slots)
        )
        self.names = GridNames([
            ("a", (ls, cs, us)), ("beta", (ls, cs, us)), ("q", (ls, cs, us, ts)),
            ("z", (ls, ts)), ("tU", (ls,)), ("tL", ()), ("theta", ()),
        ])
        self.a, self.beta, self.q, self.z, self.tu, self.tl_col, self.theta_col = self.names.grids()
        self.off_a, self.off_beta, self.off_q, self.off_z, self.off_tu, self.off_tl = (
            int(np.ravel(grid)[0]) for grid in (self.a, self.beta, self.q, self.z, self.tu, self.tl_col)
        )
        self.num_cols = len(self.names)

    def encode(self, a, beta, z, tu, tl, theta) -> np.ndarray:
        """Column vector of the families, arrays shaped as their grids; the
        products are ``q = beta * z``, as the C9 rows force at binary ``z``."""
        x = np.zeros(self.num_cols)
        x[self.a] = a
        x[self.beta] = beta
        x[self.q] = beta[..., None] * z[:, None, None, :]
        x[self.z] = z
        x[self.tu] = tu
        x[self.tl_col] = tl
        x[self.theta_col] = theta
        return x


class BaselineCatalog:
    """Column layout of the baseline stage-1 model: z (l, t) blocks, then
    theta; the grids come from ``names`` as in ``VariableCatalog``."""

    def __init__(self, num_clusters: int, num_slots: int):
        self.num_clusters = num_clusters
        self.num_slots = num_slots
        self.names = GridNames([
            ("z", (index_labels("", num_clusters), index_labels("", num_slots))), ("theta", ()),
        ])
        self.z, self.theta_col = self.names.grids()
        self.num_cols = len(self.names)

    def encode(self, z, theta) -> np.ndarray:
        """Column vector of the illumination grid ``z`` (l, t) and ``theta``."""
        x = np.zeros(self.num_cols)
        x[self.z] = z
        x[self.theta_col] = theta
        return x

    def z_col(self, l: int, t: int) -> int:
        return int(self.z[l, t])


def index_labels(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{k + 1}" for k in range(n))


def label_product(head: str, axes) -> np.ndarray:
    """``head_<label>_<label>...`` for every cell of the grid spanned by
    ``axes`` (tuples of labels), in row-major order, as an object array.

    Each axis appends its labels to every name built so far, so no name
    is joined from its parts one by one.
    """
    names = np.array([head], dtype=object)
    for axis in axes:
        labels = np.array(["_" + label for label in axis], dtype=object)
        names = (names[:, None] + labels).ravel()
    return names


def ratio_coefficients(rate: np.ndarray, demand: np.ndarray):
    """C4 and C5 coefficients of the (l, c, u) fills: a slot's rate per unit of user and of cluster demand."""
    return rate / demand[:, None, :], rate / demand.sum(axis=1)[:, None, None]


def block_grids(shapes) -> list:
    """Indices of consecutive blocks of one flat axis, one block per shape:
    an int64 array of that shape, row-major, or an int for the shape ``()``."""
    grids, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        grids.append(start + np.arange(size, dtype=np.int64).reshape(shape) if shape else start)
        start += size
    return grids


class GridNames(Sequence):
    """Names of a model's rows or columns, rendered on demand.

    Each block names a run of entries ``head_<label>_<label>...``, one label
    per axis, in row-major order over the axes; an axis is a tuple of label
    strings, and a block without axes is one entry named ``head``. Names are
    built only when read: one at a time by index, a block at a time by
    iteration. ``grids`` gives each block's entry indices, so a layout
    declared as names needs no offsets of its own; ``blocks`` walks the
    blocks with their entry ranges.
    """

    def __init__(self, blocks):
        self._blocks = tuple((head, tuple(axes)) for head, axes in blocks)
        sizes = [math.prod(len(axis) for axis in axes) for _, axes in self._blocks]
        self._starts = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])

    def grids(self) -> list:
        """Each block's entry indices, shaped by its axes (see ``block_grids``)."""
        return block_grids(tuple(len(axis) for axis in axes) for _, axes in self._blocks)

    def blocks(self) -> list:
        """``(start, stop, head, axes)`` of each block, in order: the block
        names entries ``start`` to ``stop - 1``, as ``label_product(head, axes)``."""
        bounds = self._starts.tolist()
        return [(a, b, head, axes) for (head, axes), a, b in zip(self._blocks, bounds, bounds[1:])]

    def __len__(self) -> int:
        return int(self._starts[-1])

    def __getitem__(self, i: int) -> str:
        i = operator.index(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(i)
        b = int(np.searchsorted(self._starts, i, side="right")) - 1
        head, axes = self._blocks[b]
        idx = np.unravel_index(i - int(self._starts[b]), [len(axis) for axis in axes])
        return "_".join([head, *(axis[k] for axis, k in zip(axes, idx))])

    def __iter__(self):
        return itertools.chain.from_iterable(
            label_product(head, axes).tolist() for head, axes in self._blocks
        )


class RowBuilder:
    """Collects constraint families as blocks of CSR rows."""

    def __init__(self):
        self.counts, self.cols, self.coefs, self.senses, self.rhs, self.blocks = [], [], [], [], [], []

    def add(self, family, axes, cols, coefs, sense, rhs):
        """One row per cell of the grid spanned by ``axes``, in row-major order.

        ``cols`` holds each row's k terms in order along its last axis, and
        its other axes broadcast to the grid; ``coefs`` broadcasts to the
        grid's terms, ``sense`` (a code into ``SENSES`` or its text, stored
        as the code) and ``rhs`` to the grid. A block whose sense and rhs
        vary along its last axis interleaves rows of both kinds. Zero
        coefficients are dropped. An unknown sense raises ``ValueError``
        naming the block.
        """
        codes = sense_codes(sense, f"block {family} has sense")
        shape = tuple(len(axis) for axis in axes)
        terms = shape + np.shape(cols)[-1:]
        cols = _filled(terms, np.int64, cols).reshape(math.prod(shape), terms[-1])
        coefs = _filled(terms, float, coefs).reshape(cols.shape)
        keep = coefs != 0.0
        self.counts.append(keep.sum(axis=1))
        self.cols.append(cols[keep])
        self.coefs.append(coefs[keep])
        self.senses.append(_filled(shape, np.int8, codes).ravel())
        self.rhs.append(_filled(shape, float, rhs).ravel())
        self.blocks.append((family, axes))

    def add_exclusions(self, sorted_pairs, z, slot_labels):
        """C6: the two clusters of each adjacent pair are never lit in the
        same slot; ``z`` is the (cluster, slot) column grid."""
        first, second = np.array(sorted_pairs, dtype=np.int64).reshape(-1, 2).T
        pair_labels = tuple(f"l{n1 + 1}_l{n2 + 1}" for n1, n2 in sorted_pairs)
        self.add("C6", (pair_labels, slot_labels), stack_terms(z[first], z[second]), 1.0, LESS, 1.0)

    def arrays(self) -> dict:
        """The ``ModelInstance`` row fields; a builder without blocks gives no rows."""
        def joined(parts, dtype):
            return np.concatenate([np.empty(0, dtype=dtype), *parts])

        return dict(
            indptr=np.concatenate([[0], np.cumsum(joined(self.counts, np.int64), dtype=np.int64)]),
            cols=joined(self.cols, np.int64),
            coefs=joined(self.coefs, float),
            senses=joined(self.senses, np.int8),
            rhs=joined(self.rhs, float),
            tags=GridNames(self.blocks),
        )


def _filled(shape, dtype, values) -> np.ndarray:
    """A new array of ``shape`` holding ``values`` broadcast to it."""
    out = np.empty(shape, dtype=dtype)
    out[...] = values
    return out


def stack_terms(*grids) -> np.ndarray:
    """Stack column grids into per-row term lists (last axis)."""
    return chain_terms(*(np.asarray(grid)[..., None] for grid in grids))


def chain_terms(*parts) -> np.ndarray:
    """Per-row term lists (last axis) holding each part's terms in turn:
    these terms, then those. The parts' other axes broadcast over the grid."""
    parts = [np.asarray(part) for part in parts]
    grid = np.broadcast(*(part[..., :1] for part in parts)).shape[:-1]
    return np.concatenate([_filled(grid + part.shape[-1:], part.dtype, part) for part in parts], axis=-1)


@dataclass(eq=False)
class ModelInstance:
    """Immutable assembled model: catalog, rows, scalarized objective, bounds.

    Rows are stored CSR-style: row ``i`` reads
    ``sum(coefs[k] * x[cols[k]] for k in range(indptr[i], indptr[i + 1]))
    SENSES[senses[i]] rhs[i]`` (``senses`` holds int8 codes) and is named
    ``tags[i]``. The rows come from ``RowBuilder.arrays``: zero coefficients
    are never stored, and ``tags`` is a ``GridNames``, as the catalog's
    ``names`` is.
    """

    catalog: object
    indptr: np.ndarray
    cols: np.ndarray
    coefs: np.ndarray
    senses: np.ndarray
    rhs: np.ndarray
    tags: GridNames
    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    binary: np.ndarray
    epsilon_fill: float = DEFAULT_EPSILON_FILL
    epsilon_tiebreak: float = DEFAULT_EPSILON_TIEBREAK
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
        return self.rhs.shape[0]

    def row_values(self, x: np.ndarray) -> np.ndarray:
        """Left-hand side of every row at ``x``."""
        # The trailing zero keeps every row start a valid index, so an empty
        # row in last place reads 0 like an empty row anywhere else.
        prods = np.append(self.coefs * x[self.cols], 0.0)
        out = np.add.reduceat(prods, self.indptr[:-1])
        out[self.indptr[:-1] == self.indptr[1:]] = 0.0
        return out


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

    a, beta, q, z, tu = cat.a, cat.beta, cat.q, cat.z, cat.tu
    q_z = z[:, None, None, :]
    q_beta = beta[..., None]
    ls, cs, us, ts = (index_labels(p, n) for p, n in (("l", L), ("c", C), ("u", U), ("t", T)))

    rows = RowBuilder()
    # C1: each user aggregates at most delta_max carriers.
    rows.add("C1", (ls, us), a.transpose(0, 2, 1), 1.0, LESS, cfg.delta_max)
    # C2: fill-rates on one carrier sum to at most 1.
    rows.add("C2", (ls, cs), beta, 1.0, LESS, 1.0)
    # C3: at most N_T clusters active per slot.
    rows.add("C3", (ts,), z.T, 1.0, LESS, cfg.active_clusters_per_slot)
    # C4: per-user supply covers the cluster ratio floor. Rows are divided
    # through by the (positive) demand so coefficients stay O(1).
    bad = np.argwhere(demand <= 0.0)
    if bad.size:
        l, u = bad[0]
        raise StructuralError(f"user demand must be positive (cluster {l}, user {u})")
    user_coef, cluster_coef = ratio_coefficients(R, demand)
    rows.add(
        "C4", (ls, us),
        chain_terms(q.transpose(0, 2, 1, 3).reshape(L, U, C * T), tu[:, None, None]),
        chain_terms(np.repeat(user_coef.transpose(0, 2, 1), T, axis=2), [-1.0]),
        GREATER, 0.0,
    )
    # C5: per-cluster supply covers the system ratio floor, same normalization.
    rows.add(
        "C5", (ls,),
        chain_terms(q.reshape(L, C * U * T), [cat.tl_col]),
        chain_terms(np.repeat(cluster_coef.reshape(L, C * U), T, axis=1), [-1.0]),
        GREATER, 0.0,
    )
    # C6: adjacent clusters never co-illuminated.
    sorted_pairs = sorted(tuple(p) for p in pairs)
    rows.add_exclusions(sorted_pairs, z, ts)
    # C7: fill-rate active exactly when the carrier is assigned (big-M = 1).
    rows.add("C7a", (ls, cs, us), stack_terms(beta, a), [1.0, -1.0], LESS, 0.0)
    rows.add("C7b", (ls, cs, us), stack_terms(beta, a), [1.0, -1.0], GREATER, epsilon_fill - 1.0)
    # C8: theta sits below every ratio floor.
    rows.add("C8a", (ls,), stack_terms(cat.theta_col, tu), [1.0, -1.0], LESS, 0.0)
    rows.add("C8b", (), [cat.theta_col, cat.tl_col], [1.0, -1.0], LESS, 0.0)
    # C9: envelope forcing q = beta * z at binary z.
    lcut = (ls, cs, us, ts)
    rows.add("C9a", lcut, q[..., None], 1.0, GREATER, 0.0)
    rows.add("C9b", lcut, stack_terms(q, q_z), [1.0, -1.0], LESS, 0.0)
    rows.add("C9c", lcut, stack_terms(q, q_beta), [1.0, -1.0], LESS, 0.0)
    rows.add("C9d", lcut, stack_terms(q, q_beta, q_z), [1.0, -1.0, -1.0], GREATER, -1.0)

    objective = np.zeros(cat.num_cols)
    objective[cat.theta_col] = 1.0
    objective[tu] = epsilon_tiebreak
    objective[cat.tl_col] = epsilon_tiebreak

    upper = np.ones(cat.num_cols)
    upper[tu] = np.inf
    upper[[cat.tl_col, cat.theta_col]] = np.inf
    binary = np.zeros(cat.num_cols, dtype=bool)
    binary[a] = True
    binary[z] = True

    return ModelInstance(
        catalog=cat,
        **rows.arrays(),
        objective=objective,
        lower=np.zeros(cat.num_cols),
        upper=upper,
        binary=binary,
        epsilon_fill=epsilon_fill,
        epsilon_tiebreak=epsilon_tiebreak,
        rate_per_slot=R,
        demand=demand,
        pairs=frozenset(sorted_pairs),
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

    def __str__(self) -> str:
        if self.empty:
            return "no violations"
        worst = sorted(self.entries, key=lambda e: -e[1])[:5]
        head = ", ".join(f"{tag} by {v:.3g}" for tag, v in worst)
        return f"{len(self.entries)} violation(s): {head}"


def validate_solution(model: ModelInstance, assignment: np.ndarray) -> ViolationReport:
    """Audit an assignment against every row, bound, and binary of the model.

    An assignment with non-finite entries is reported by those entries alone.
    """
    x = np.asarray(assignment, dtype=float)
    if x.shape != (model.num_cols,):
        raise StructuralError(
            f"assignment covers {x.shape} columns, model has {model.num_cols}"
        )
    names = model.catalog.names
    nonfinite = np.nonzero(~np.isfinite(x))[0]
    if nonfinite.size:
        return ViolationReport(entries=tuple(
            (f"nonfinite_{names[j]}", math.inf) for j in nonfinite.tolist()
        ))
    excess = row_excess(model.row_values(x), model.senses, model.rhs)
    violated = np.nonzero(excess > VALIDATION_TOL)[0]
    entries = [(model.tags[i], v) for i, v in zip(violated.tolist(), excess[violated].tolist())]
    low_viol = model.lower - x
    up_viol = x - model.upper
    for j in np.nonzero(low_viol > VALIDATION_TOL)[0]:
        entries.append((f"bound_{names[j]}", float(low_viol[j])))
    for j in np.nonzero(up_viol > VALIDATION_TOL)[0]:
        entries.append((f"bound_{names[j]}", float(up_viol[j])))
    frac = np.abs(x - np.round(x))
    for j in np.nonzero(model.binary & (frac > VALIDATION_TOL))[0]:
        entries.append((f"integrality_{names[j]}", float(frac[j])))
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
    x = solution.values
    q, z, a, beta = x[cat.q], x[cat.z], x[cat.a], x[cat.beta]

    rate = model.rate_per_slot
    if rate is None:
        raise StructuralError("model carries no rate data; was it built by build_model?")
    user_supply = np.einsum("lcut,lcu->lu", q, rate)
    cluster_supply = user_supply.sum(axis=1)
    schedule = tuple(tuple(np.flatnonzero(slots > 0.5).tolist()) for slots in z)
    carrier_sets = tuple(
        tuple(tuple(np.flatnonzero(carriers > 0.5).tolist()) for carriers in per_user)
        for per_user in a.transpose(0, 2, 1)
    )
    user_supply.flags.writeable = False
    cluster_supply.flags.writeable = False
    return AllocationPlan(
        schedule=schedule,
        carrier_sets=carrier_sets,
        fill_rate=beta,
        user_supply=user_supply,
        cluster_supply=cluster_supply,
        user_ratio_floor=x[cat.tu],
        cluster_ratio_floor=float(x[cat.tl_col]),
        min_ratio=float(x[cat.theta_col]),
        objective=float(solution.objective),
    )
