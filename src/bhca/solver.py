"""Exact solving of the planner models, plain branch-and-bound, and an
enumeration oracle for tiny instances.

Both planner models depend on the illumination schedule only through how
many slots each cluster gets: ``a`` and ``beta`` carry no time axis, and at
binary ``z`` the product rows force ``sum_t q[l,c,u,t] = beta[l,c,u] * n_l``.
``solve_milp`` therefore solves the joint model (``build_model``) and the
baseline stage-1 model (``build_bh_model``) by slot counts:

1. A *pattern* is an independent set of the adjacency graph with at most
   N_T clusters. A count vector ``n`` is packable when integer pattern
   counts ``y`` with ``sum y <= T`` cover it.
2. ``g_l`` is cluster ``l``'s best ratio in one slot (one LP for the joint
   model, the per-slot cluster ratio for the baseline); ``n_l`` slots reach
   exactly ``n_l * g_l``.
3. ``theta* = max`` over packable ``n`` of ``min_l n_l * g_l``, found by a
   search over the candidates ``k * g_l`` with one packing check each.
4. The epsilon tie-break is settled exactly by an aggregated count model
   over ``y`` and the fills ``w = beta * n_l``, restricted to the counts that
   can still beat ``theta*``.
5. The winning counts expand to a schedule and a full column vector.

Every LP is one node against the node limit, and the limits are checked
before each one. ``branch_and_bound`` is a plain best-bound integer search
over a model's full dense LP; the count route runs its sub-problems through
the same search, and tests use it on the published models as an
independent cross-check.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from heapq import heappush, heappop

import numpy as np

from .model import BaselineCatalog, ModelInstance, VariableCatalog
from .simplex import LpSolution, solve_dense


@dataclass
class SolverOptions:
    integrality_tol: float = 1e-6
    feas_tol: float = 1e-8
    node_limit: int = 1_000_000
    time_limit: float | None = None

    def __post_init__(self):
        if not 0.0 < self.integrality_tol <= 1e-3:
            raise ValueError("integrality_tol must be in (0, 1e-3]")
        if not 0.0 < self.feas_tol <= 1e-3:
            raise ValueError("feas_tol must be in (0, 1e-3]")
        if self.node_limit < 1:
            raise ValueError("node_limit must be >= 1")


@dataclass
class MilpSolution:
    values: np.ndarray
    objective: float
    status: str          # optimal | feasible | infeasible
    nodes_explored: int
    wall_time: float
    gap: float


class _Search:
    """Node count, deadline, proven bound and incumbent of one solve."""

    def __init__(self, opts: SolverOptions, log):
        self.opts = opts
        self.emit = log if log is not None else (lambda line: None)
        self.start = time.perf_counter()
        self.nodes = 0
        self.bound = np.inf
        self.incumbent = -np.inf

    def exhausted(self) -> bool:
        limit = self.opts.time_limit
        return self.nodes >= self.opts.node_limit or (
            limit is not None and time.perf_counter() - self.start > limit
        )

    def lp(self, c, A, senses, b, lo, hi) -> LpSolution:
        sol = solve_dense(c, A, senses, b, lo, hi, feas_tol=self.opts.feas_tol)
        if sol.status == "unbounded":
            raise RuntimeError("LP relaxation unbounded: the model is malformed")
        self.nodes += 1
        return sol

    def gap(self, objective: float) -> float:
        if objective == -np.inf:
            return np.inf
        return max(0.0, (self.bound - objective) / max(1.0, abs(objective)))

    def log_node(self) -> None:
        self.emit(f"node={self.nodes} bound={float(self.bound)!r} incumbent={float(self.incumbent)!r} "
                  f"gap={float(self.gap(self.incumbent))!r}")

    def result(self, x, objective: float, complete: bool) -> MilpSolution:
        wall = time.perf_counter() - self.start
        if objective == -np.inf:
            return MilpSolution(x, -np.inf, "infeasible", self.nodes, wall, np.inf)
        tol = self.opts.integrality_tol
        gap = self.gap(objective)
        if complete or gap <= tol:
            return MilpSolution(x, float(objective), "optimal", self.nodes, wall, min(gap, tol))
        return MilpSolution(x, float(objective), "feasible", self.nodes, wall, gap)


def _branch_and_bound(search: _Search, c, A, senses, b, lo, hi, tiers,
                      incumbent: float = -np.inf, publish: bool = False):
    """Best-bound search over dense LPs; returns ``(x, objective, complete)``.

    ``tiers`` lists the integer columns in groups of falling branching
    priority: the most fractional column of the first group that has one
    splits into floor and ceiling children, newest first among equal
    bounds. Only points better than ``incumbent`` are returned (``x`` is None
    otherwise). ``complete`` is False when a limit stopped the search. With
    ``publish`` the objective is the solve's own, so the search's bounds and
    incumbents feed the node log.
    """
    tol = search.opts.integrality_tol
    integer = np.concatenate([np.zeros(0, dtype=np.int64), *tiers])
    best_x, best = None, incumbent
    order = itertools.count(1)
    heap = [(-np.inf, 0, lo, hi)]
    while heap and -heap[0][0] > best + tol:
        if search.exhausted():
            return best_x, best, False
        _, _, nlo, nhi = heappop(heap)
        sol = search.lp(c, A, senses, b, nlo, nhi)
        if sol.status == "optimal":
            x = sol.values
            if np.all(np.abs(x[integer] - np.round(x[integer])) <= tol):
                if sol.objective > best:
                    best_x = x.copy()
                    best_x[integer] = np.round(x[integer])
                    best = sol.objective
            elif sol.objective > best + tol:
                for tier in tiers:
                    frac = np.abs(x[tier] - np.round(x[tier]))
                    if frac.size and frac.max() > tol:
                        j = tier[int(np.argmax(frac))]
                        break
                down, up = nhi.copy(), nlo.copy()
                down[j] = np.floor(x[j])
                up[j] = np.ceil(x[j])
                heappush(heap, (-sol.objective, -next(order), nlo, down))
                heappush(heap, (-sol.objective, -next(order), up, nhi))
        if publish:
            search.incumbent = max(search.incumbent, best)
            search.bound = min(search.bound, max(best, -heap[0][0]) if heap else best)
        search.log_node()
    return best_x, best, True


def _dense(model: ModelInstance):
    indptr, cols, coefs, senses, rhs = model.row_arrays
    A = np.zeros((model.num_rows, model.num_cols))
    A[np.repeat(np.arange(model.num_rows), np.diff(indptr)), cols] = coefs
    return A, list(senses), rhs


def solve_lp(model: ModelInstance, fixings: dict[int, tuple[float, float]] | None = None) -> LpSolution:
    """Solve the model's LP relaxation (binaries relaxed to [0,1]).
    ``fixings`` narrows column bounds, e.g. ``{j: (1.0, 1.0)}``."""
    lo = model.lower.copy()
    hi = model.upper.copy()
    if fixings:
        for j, (l, h) in fixings.items():
            if l > h:
                raise ValueError(f"fixing for column {j} has lo > hi")
            lo[j] = max(lo[j], l)
            hi[j] = min(hi[j], h)
    A, senses, b = _dense(model)
    return solve_dense(model.objective, A, senses, b, lo, hi)


def branch_and_bound(model: ModelInstance, options: SolverOptions | None = None, log=None) -> MilpSolution:
    """Plain branch-and-bound over the model's binaries on its full dense LP."""
    search = _Search(options or SolverOptions(), log)
    A, senses, b = _dense(model)
    x, _, complete = _branch_and_bound(
        search, model.objective, A, senses, b, model.lower.copy(), model.upper.copy(),
        [np.nonzero(model.binary)[0]], publish=True,
    )
    if x is None:
        return search.result(np.zeros(model.num_cols), -np.inf, complete)
    return search.result(x, float(model.objective @ x), complete)


def solve_milp(model: ModelInstance, options: SolverOptions | None = None, log=None) -> MilpSolution:
    """Solve a model exactly: planner models by slot counts, others by
    ``branch_and_bound``.

    Hitting the node or time limit returns the best valid plan found (for a
    planner model at least one built before the first LP) with status
    ``feasible`` and the gap to a proven upper bound. The logged incumbent
    never decreases. Deterministic for fixed options.
    """
    cat = model.catalog
    if isinstance(cat, VariableCatalog) and model.rate_per_slot is not None:
        counts = _JointCounts(model, fills=model.delta_max < cat.num_carriers)
    elif isinstance(cat, BaselineCatalog):
        counts = _BhCounts(model)
    else:
        return branch_and_bound(model, options, log)
    search = _Search(options or SolverOptions(), log)
    x, complete = _solve_counts(model, counts, search)
    if counts.floor_missed:
        # A relaxed fill fell strictly inside (0, epsilon_fill): solve again
        # with the assignment binaries and the fill floor in the count model.
        x, complete = _solve_counts(model, _JointCounts(model, fills=True), search)
    return search.result(x, float(model.objective @ x), complete)


def _patterns(num_clusters: int, cap: int, pairs) -> np.ndarray:
    """Cluster-by-pattern incidence of the non-empty independent sets of at
    most ``cap`` clusters."""
    sets = [
        s for k in range(1, cap + 1) for s in itertools.combinations(range(num_clusters), k)
        if not any(p in pairs for p in itertools.combinations(s, 2))
    ]
    M = np.zeros((num_clusters, len(sets)))
    for p, s in enumerate(sets):
        M[list(s), p] = 1.0
    return M


def _schedule(M: np.ndarray, y: np.ndarray, num_slots: int) -> np.ndarray:
    """Illumination grid ``z`` (L, T): pattern ``p`` fills ``y[p]`` consecutive slots."""
    z = np.zeros((M.shape[0], num_slots))
    t = 0
    for p, k in enumerate(np.round(y).astype(int)):
        z[:, t:t + k] = M[:, p:p + 1]
        t += k
    return z


def _ratio_model(g, M, num_slots, lb, eps):
    """Dense model over columns ``n | y | theta``: at most ``num_slots``
    patterns, ``n = M y >= lb`` and ``theta <= g_l n_l``; the objective is
    ``theta + eps * g . n``. It is the baseline count model, and with
    ``eps = 0`` the theta bound and the packing checks of the joint one."""
    L, P = M.shape
    c = np.concatenate([eps * g, np.zeros(P), [1.0]])
    A = np.zeros((1 + 2 * L, L + P + 1))
    A[0, L:L + P] = 1.0
    A[1:L + 1, :L] = np.eye(L)
    A[1:L + 1, L:L + P] = -M
    A[L + 1:, :L] = -np.diag(g)
    A[L + 1:, -1] = 1.0
    senses = ["<="] + ["="] * L + ["<="] * L
    b = np.append(float(num_slots), np.zeros(2 * L))
    lo = np.concatenate([lb, np.zeros(P + 1)])
    hi = np.append(np.full(L + P, float(num_slots)), np.inf)
    return c, A, senses, b, lo, hi, [np.arange(L), L + np.arange(P)]


def _solve_counts(model: ModelInstance, counts, search: _Search):
    """Steps 2-5 of the count route; returns ``(x, complete)``."""
    M, T = counts.M, counts.T
    L, P = M.shape
    best_x, best = None, -np.inf

    def take(x):
        nonlocal best_x, best
        obj = float(model.objective @ x)
        if obj > best:
            best_x, best = x, obj
        search.incumbent = max(search.incumbent, best)

    # A valid plan before any LP: the singleton patterns (the first L) take
    # turns over the slots.
    take(counts.plan(np.append([len(range(l, T, L)) for l in range(L)], np.zeros(P - L))))
    g = counts.slot_values(search)
    if g is None:
        return best_x, False
    eps_b = model.epsilon_tiebreak * counts.tiebreak_bound(g)
    search.bound = min(search.bound, T * float(g.min()) + eps_b)

    # Upper bound on theta*: the packing with fractional pattern counts.
    c, A, senses, b, lo, hi, _ = _ratio_model(g, M, T, np.zeros(L), 0.0)
    _, theta_lp, complete = _branch_and_bound(search, c, A, senses, b, lo, hi, ())
    if not complete:
        return best_x, False
    search.bound = min(search.bound, theta_lp + eps_b)

    def packing(theta):
        """Integer pattern counts reaching ``theta``: ``(y, complete)``. Only
        candidates below ``theta_lp`` are checked, so every ``g_l`` is positive."""
        c, A, senses, b, lo, hi, tiers = _ratio_model(g, M, T, np.ceil(theta / g - 1e-9), 0.0)
        hi[-1] = 0.0   # a feasibility check: nothing to maximise
        v, _, complete = _branch_and_bound(search, c, A, senses, b, lo, hi, tiers)
        return (None if v is None else v[L:L + P]), complete

    # Search the candidates k * g_l: the top one first, then bisection.
    cands = np.unique(np.outer(g, np.arange(1, T + 1)))
    cands = cands[(cands > 0) & (cands <= theta_lp * (1 + 1e-9))]
    low, high = -1, cands.size   # cands[low] is packable (-1: theta 0), cands[high] is not
    probe = high - 1
    while high - low > 1:
        y, complete = packing(cands[probe])
        if not complete:
            return best_x, False
        if y is None:
            high = probe
            search.bound = min(search.bound, cands[probe] + eps_b)
        else:
            low = probe
            take(counts.plan(y))
        probe = (low + high) // 2
    theta_star = cands[low] if low >= 0 else 0.0
    search.bound = min(search.bound, theta_star + eps_b)

    # Tie-break: counts below ``lb`` leave theta under theta* - eps * B, where
    # no tie-break term can make up the difference; and no packing lifts
    # theta above theta*.
    with np.errstate(divide="ignore", invalid="ignore"):
        lb = np.where(g > 0, np.maximum(np.ceil((theta_star - eps_b) / g - 1e-9), 0.0), 0.0)
    c, A, senses, b, lo, hi, tiers = counts.count_model(lb)
    hi[-1] = theta_star
    v, _, complete = _branch_and_bound(search, c, A, senses, b, lo, hi, tiers,
                                       incumbent=best, publish=True)
    if v is not None:
        x = counts.expand(v)
        if x is not None:
            take(x)
    return best_x, complete


class _BhCounts:
    """Count view of the baseline stage-1 model: a fixed ratio per slot and
    no fill block."""

    floor_missed = False

    def __init__(self, model: ModelInstance):
        self.T = model.catalog.num_slots
        self.ratio = model.rate_per_slot / model.demand
        self.eps = model.epsilon_tiebreak
        self.M = _patterns(model.catalog.num_clusters, model.active_clusters_per_slot, model.pairs)

    def slot_values(self, search):
        return self.ratio

    def tiebreak_bound(self, g):
        return self.T * float(g.sum())

    def count_model(self, lb):
        return _ratio_model(self.ratio, self.M, self.T, lb, self.eps)

    def plan(self, y):
        z = _schedule(self.M, y, self.T)
        theta = float((self.ratio[:, None] * z).sum(axis=1).min())
        return np.append(z.ravel(), theta)

    def expand(self, v):
        L, P = self.M.shape
        return self.plan(v[L:L + P])


class _JointCounts:
    """Count view of the joint model: a cluster's fills, supplies and ratio
    floors scale with its slot count ``n_l``.

    With ``fills`` the count model carries the assignment binaries ``a`` and
    the fill floor; without, fills are continuous in [0, n_l] and a fill that
    lands strictly inside (0, epsilon_fill) sets ``floor_missed``.
    """

    def __init__(self, model: ModelInstance, fills: bool):
        cat = model.catalog
        self.model = model
        self.fills = fills
        self.floor_missed = False
        self.L, self.C, self.U, self.T = cat.num_clusters, cat.num_carriers, cat.num_users, cat.num_slots
        demand = model.demand
        self.user_coef = model.rate_per_slot / demand[:, None, :]                    # C4
        self.cluster_coef = model.rate_per_slot / demand.sum(axis=1)[:, None, None]  # C5
        self.M = _patterns(self.L, model.active_clusters_per_slot, model.pairs)
        self.k = self.L * self.C * self.U
        # Even fills on delta_max carriers per user, until ``slot_values``
        # finds the best ones.
        spread = (np.subtract.outer(np.arange(self.C), np.arange(self.U)) % self.C) < model.delta_max
        self.beta_one_slot = np.broadcast_to(spread / self.U, (self.L, self.C, self.U))

    def _offsets(self, P):
        """First columns of ``w`` and ``tU`` for ``P`` patterns."""
        ow = self.L + P
        return ow, ow + self.k * (2 if self.fills else 1)

    def _lp(self, M, n_lo, n_hi, slots, weights):
        """Dense count model over columns ``n | y | w | [a] | tU | tL | theta``.

        ``n = M y`` and ``w[l,c,u] = beta * n_l``; ``n_hi`` caps every count
        and ``weights`` are the objective weights of ``(tU, tL, theta)``.
        """
        L, C, U, k = self.L, self.C, self.U, self.k
        P = M.shape[1]
        ow, ou = self._offsets(P)
        otl = ou + L
        oth = otl + 1
        n = oth + 1
        ys = L + np.arange(P)
        w = ow + np.arange(k).reshape(L, C, U)
        a = ow + k + np.arange(k).reshape(L, C, U)
        rows, senses, b = [], [], []

        def row(cols, coefs, sense, rhs):
            r = np.zeros(n)
            np.add.at(r, np.asarray(cols).ravel(), np.broadcast_to(coefs, np.shape(cols)).ravel())
            rows.append(r)
            senses.append(sense)
            b.append(rhs)

        row(ys, 1.0, "<=", slots)
        for l in range(L):                                      # n = M y
            row(np.append(l, ys), np.append(1.0, -M[l]), "=", 0.0)
        for l in range(L):
            for c in range(C):                                  # C2: fills within n_l
                row(np.append(w[l, c], l), np.append(np.ones(U), -1.0), "<=", 0.0)
        for l in range(L):
            for u in range(U):                                  # C4
                row(np.append(w[l, :, u], ou + l), np.append(self.user_coef[l, :, u], -1.0), ">=", 0.0)
        for l in range(L):                                      # C5
            row(np.append(w[l].ravel(), otl), np.append(self.cluster_coef[l].ravel(), -1.0), ">=", 0.0)
        for l in range(L):                                      # C8
            row([oth, ou + l], [1.0, -1.0], "<=", 0.0)
        row([oth, otl], [1.0, -1.0], "<=", 0.0)
        if self.fills:
            eps = self.model.epsilon_fill
            for l in range(L):
                for u in range(U):                              # C1
                    row(a[l, :, u], 1.0, "<=", float(self.model.delta_max))
            for l, c, u in np.ndindex(L, C, U):                 # C7: w <= n_hi a, w >= eps n a
                row([w[l, c, u], a[l, c, u]], [1.0, -n_hi], "<=", 0.0)
                row([w[l, c, u], l, a[l, c, u]], [1.0, -eps, -eps * n_hi], ">=", -eps * n_hi)
        c = np.zeros(n)
        c[ou:otl], c[otl], c[oth] = weights
        lo = np.zeros(n)
        hi = np.full(n, np.inf)
        lo[:L], hi[:L] = n_lo, n_hi
        hi[ys] = slots
        hi[ow:ow + k] = n_hi
        hi[ow + k:ou] = 1.0
        tiers = [np.arange(L), a.ravel(), ys] if self.fills else [np.arange(L), ys]
        return c, np.array(rows), senses, np.array(b), lo, hi, tiers

    def slot_values(self, search):
        """``g_l`` for every cluster from one block-separable LP (or MILP in
        ``a``) with every cluster lit for exactly one slot."""
        L = self.L
        c, A, senses, b, lo, hi, tiers = self._lp(np.eye(L), 1.0, 1.0, float(L), (1.0, 0.0, 0.0))
        v, _, complete = _branch_and_bound(search, c, A, senses, b, lo, hi, tiers)
        if not complete:
            return None
        ow, ou = self._offsets(L)
        beta = v[ow:ow + self.k].reshape(L, self.C, self.U)
        self.beta_one_slot = np.where(beta >= self.model.epsilon_fill, beta, 0.0)
        return v[ou:ou + L]

    def tiebreak_bound(self, g):
        # tU_l <= T g_l, and tL is at most any cluster's best cluster ratio.
        return self.T * (float(g.sum()) + float(self.cluster_coef.max(axis=2).sum(axis=1).min()))

    def count_model(self, lb):
        eps = self.model.epsilon_tiebreak
        return self._lp(self.M, lb, float(self.T), float(self.T), (eps, eps, 1.0))

    def plan(self, y):
        """Full point for a packing, with every cluster's one-slot fills."""
        return self._point(_schedule(self.M, y, self.T), self.beta_one_slot)

    def expand(self, v):
        L, P = self.M.shape
        n = v[:L]
        ow, _ = self._offsets(P)
        w = v[ow:ow + self.k].reshape(L, self.C, self.U)
        beta = np.divide(w, n[:, None, None], out=np.zeros_like(w), where=n[:, None, None] > 0)
        beta[beta < self.model.epsilon_fill * 1e-2] = 0.0   # LP round-off of a zero fill
        if not self.fills and np.any((beta > 0) & (beta < self.model.epsilon_fill)):
            self.floor_missed = True
            return None
        return self._point(_schedule(self.M, v[L:L + P], self.T), beta)

    def _point(self, z, beta):
        """Full column vector: ``a`` marks the nonzero fills of lit clusters,
        ``q = beta * z``, and the ratio floors are the realised minima."""
        model, cat = self.model, self.model.catalog
        beta = beta * (z.sum(axis=1) > 0)[:, None, None]
        q = beta[:, :, :, None] * z[:, None, None, :]
        x = np.zeros(model.num_cols)
        x[cat.off_a:cat.off_beta] = (beta > 0).ravel()
        x[cat.off_beta:cat.off_q] = beta.ravel()
        x[cat.off_q:cat.off_z] = q.ravel()
        x[cat.off_z:cat.off_tu] = z.ravel()
        served = q.sum(axis=3)
        t_user = np.einsum("lcu,lcu->lu", served, self.user_coef).min(axis=1)
        t_cluster = float(np.einsum("lcu,lcu->l", served, self.cluster_coef).min())
        x[cat.off_tu:cat.off_tl] = t_user
        x[cat.tl_col] = t_cluster
        x[cat.theta_col] = min(float(t_user.min()), t_cluster)
        return x


MAX_ORACLE_BINARIES = 24
MAX_ORACLE_PATTERNS = 2_000_000


def brute_force(model: ModelInstance) -> MilpSolution:
    """Enumeration oracle for tiny planner models.

    Enumerates every (assignment, illumination) pattern that passes the cheap
    carrier-count / activation-cap / adjacency filters, solves the continuous
    (fill-rate, floors) LP for each, and returns the best. Exact up to LP
    tolerance; refuses models with more than 24 binaries.
    """
    cat = model.catalog
    if not isinstance(cat, VariableCatalog) or model.rate_per_slot is None:
        raise ValueError("brute_force requires a planner model built by build_model")
    n_bin = int(model.binary.sum())
    if n_bin > MAX_ORACLE_BINARIES:
        raise ValueError(f"brute_force caps at {MAX_ORACLE_BINARIES} binaries, model has {n_bin}")
    L, C, U, T = cat.num_clusters, cat.num_carriers, cat.num_users, cat.num_slots
    R = model.rate_per_slot
    demand = model.demand
    d_cluster = demand.sum(axis=1)
    eps_fill = model.epsilon_fill
    eps_obj = model.epsilon_tiebreak
    n_t = model.active_clusters_per_slot
    pairs = model.pairs

    slot_patterns = []
    for mask in range(2 ** L):
        active = [l for l in range(L) if mask >> l & 1]
        if len(active) > n_t:
            continue
        if any((a, b) in pairs for a in active for b in active if a < b):
            continue
        slot_patterns.append(tuple(active))

    carrier_sets = [
        tuple(c for c in range(C) if mask >> c & 1)
        for mask in range(2 ** C)
        if bin(mask).count("1") <= model.delta_max
    ]

    total = len(slot_patterns) ** T * len(carrier_sets) ** (L * U)
    if total > MAX_ORACLE_PATTERNS:
        raise ValueError(f"oracle enumeration would visit {total} patterns")

    # Inner LP columns: beta (L*C*U), tU (L), tL, theta.
    n_beta = L * C * U
    n_cols = n_beta + L + 2
    tu0 = n_beta
    tl_col = n_beta + L
    th_col = n_beta + L + 1

    def beta_idx(l, c, u):
        return (l * C + c) * U + u

    c_obj = np.zeros(n_cols)
    c_obj[th_col] = 1.0
    c_obj[tu0:tu0 + L] = eps_obj
    c_obj[tl_col] = eps_obj

    rows_c2 = np.zeros((L * C, n_cols))
    for l in range(L):
        for c in range(C):
            for u in range(U):
                rows_c2[l * C + c, beta_idx(l, c, u)] = 1.0
    template_c4 = np.zeros((L * U, n_cols))
    for l in range(L):
        for u in range(U):
            for c in range(C):
                template_c4[l * U + u, beta_idx(l, c, u)] = R[l, c, u] / demand[l, u]
            template_c4[l * U + u, tu0 + l] = -1.0
    template_c5 = np.zeros((L, n_cols))
    for l in range(L):
        for c in range(C):
            for u in range(U):
                template_c5[l, beta_idx(l, c, u)] = R[l, c, u] / d_cluster[l]
        template_c5[l, tl_col] = -1.0
    rows_c8 = np.zeros((L + 1, n_cols))
    for l in range(L):
        rows_c8[l, th_col] = 1.0
        rows_c8[l, tu0 + l] = -1.0
    rows_c8[L, th_col] = 1.0
    rows_c8[L, tl_col] = -1.0

    senses = ["<="] * (L * C) + [">="] * (L * U) + [">="] * L + ["<="] * (L + 1)
    b = np.zeros(L * C + L * U + L + L + 1)
    b[:L * C] = 1.0

    t_start = time.perf_counter()
    best_obj = -np.inf
    best = None
    evaluated = 0
    for z_pattern in itertools.product(slot_patterns, repeat=T):
        n_active = np.zeros(L)
        for active in z_pattern:
            for l in active:
                n_active[l] += 1.0
        A = np.vstack([
            rows_c2,
            template_c4 * np.repeat(n_active, U)[:, None],
            template_c5 * n_active[:, None],
            rows_c8,
        ])
        # Slot scaling must leave the floor columns intact.
        A[L * C:L * C + L * U, tu0:] = template_c4[:, tu0:]
        A[L * C + L * U:L * C + L * U + L, tu0:] = template_c5[:, tu0:]
        for a_pattern in itertools.product(carrier_sets, repeat=L * U):
            lo = np.zeros(n_cols)
            hi = np.concatenate([np.zeros(n_beta), np.full(L + 2, np.inf)])
            for l in range(L):
                for u in range(U):
                    assigned = a_pattern[l * U + u]
                    for c in assigned:
                        j = beta_idx(l, c, u)
                        lo[j] = eps_fill
                        hi[j] = 1.0
            sol = solve_dense(c_obj, A, senses, b, lo, hi)
            evaluated += 1
            if sol.status != "optimal":
                continue
            if sol.objective > best_obj:
                best_obj = sol.objective
                best = (z_pattern, a_pattern, sol.values.copy())

    if best is None:
        return MilpSolution(
            values=np.zeros(model.num_cols), objective=-np.inf, status="infeasible",
            nodes_explored=evaluated, wall_time=time.perf_counter() - t_start, gap=np.inf,
        )

    z_pattern, a_pattern, inner = best
    x = np.zeros(model.num_cols)
    beta = inner[:n_beta].reshape(L, C, U)
    z = np.zeros((L, T))
    for t, active in enumerate(z_pattern):
        for l in active:
            z[l, t] = 1.0
    for l in range(L):
        for u in range(U):
            for c in a_pattern[l * U + u]:
                x[cat.a_col(l, c, u)] = 1.0
    x[cat.off_beta:cat.off_q] = beta.ravel()
    q = beta[:, :, :, None] * z[:, None, None, :]
    x[cat.off_q:cat.off_z] = q.ravel()
    x[cat.off_z:cat.off_tu] = z.ravel()
    x[cat.off_tu:cat.off_tl] = inner[tu0:tu0 + L]
    x[cat.tl_col] = inner[tl_col]
    x[cat.theta_col] = inner[th_col]
    return MilpSolution(
        values=x, objective=float(best_obj), status="optimal",
        nodes_explored=evaluated, wall_time=time.perf_counter() - t_start, gap=0.0,
    )
