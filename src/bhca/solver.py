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

Every LP is written as ``RowBuilder`` row blocks over ``block_grids``
column grids, as the published models are, and densified by ``_dense``.
Every LP is one node against the node limit, and the limits are checked
before each one. ``branch_and_bound`` is a plain best-bound integer search
over a model's full dense LP; the count route runs its sub-problems through
the same search, and tests use it on the published models as an
independent cross-check.

``brute_force``, the other cross-check, settles every (slot-count vector,
carrier assignment) pair of a tiny joint model. An upper bound on each
pair's LP objective, from the inner rows with every assigned fill at its
cap 1 and each row widened by the violation the simplex accepts, lets it
solve only the LPs that can still win; its plan is byte-identical to
solving all of them, and ``nodes_explored`` counts every pair it settled.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from heapq import heappush, heappop

import numpy as np

from .model import (EQUAL, GREATER, LESS, BaselineCatalog, ModelInstance, RowBuilder, VariableCatalog,
                    block_grids, chain_terms, index_labels, ratio_coefficients, stack_terms)
from .simplex import RESIDUAL_TOL, LpSolution, solve_dense, solve_dense_batch

# An integer column within this distance of an integer counts as integral,
# and a gap this small counts as closed.
INTEGRALITY_TOL = 1e-6


@dataclass
class SolverOptions:
    node_limit: int = 1_000_000
    time_limit: float | None = None

    def __post_init__(self):
        # The limit is compared with a node count: a NaN one never stops the
        # search, and a fractional one stops at the next integer.
        if isinstance(self.node_limit, bool) or not isinstance(self.node_limit, int):
            raise ValueError("node_limit must be an integer >= 1")
        if self.node_limit < 1:
            raise ValueError("node_limit must be >= 1")
        # NaN fails every comparison and is refused with inf, negatives, bools and texts.
        t = self.time_limit
        if t is not None and (isinstance(t, bool) or not isinstance(t, (int, float)) or not 0.0 <= t < np.inf):
            raise ValueError(f"time_limit must be a finite number of seconds >= 0, got {t!r}")


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
        sol = solve_dense(c, A, senses, b, lo, hi)
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
        gap = self.gap(objective)
        if complete or gap <= INTEGRALITY_TOL:
            return MilpSolution(x, float(objective), "optimal", self.nodes, wall, min(gap, INTEGRALITY_TOL))
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
    tol = INTEGRALITY_TOL
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


def _dense(rows, num_cols: int):
    """``A, senses, b`` of CSR rows over ``num_cols`` columns; ``rows`` maps
    the ``ModelInstance`` row fields (``RowBuilder.arrays``) to arrays."""
    indptr = rows["indptr"]
    A = np.zeros((indptr.size - 1, num_cols))
    A[np.repeat(np.arange(indptr.size - 1), np.diff(indptr)), rows["cols"]] = rows["coefs"]
    return A, rows["senses"], rows["rhs"]


def solve_lp(model: ModelInstance) -> LpSolution:
    """Solve the model's LP relaxation (binaries relaxed to [0,1])."""
    A, senses, b = _dense(vars(model), model.num_cols)
    return solve_dense(model.objective, A, senses, b, model.lower, model.upper)


def branch_and_bound(model: ModelInstance, options: SolverOptions | None = None, log=None) -> MilpSolution:
    """Plain branch-and-bound over the model's binaries on its full dense LP."""
    search = _Search(options or SolverOptions(), log)
    A, senses, b = _dense(vars(model), model.num_cols)
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


def _pattern_rows(M, n, y, slots) -> RowBuilder:
    """Rows shared by the count models: at most ``slots`` patterns, and the
    slot counts ``n = M y``."""
    rows = RowBuilder()
    rows.add("slots", (), y, 1.0, LESS, slots)
    rows.add("n", (index_labels("l", M.shape[0]),), chain_terms(n[:, None], y), chain_terms([1.0], -M), EQUAL, 0.0)
    return rows


def _floor_rows(rows: RowBuilder, axes, fills, tu, tl, th, user_coef, cluster_coef) -> None:
    """C4, C5 and C8 over the fill columns ``fills`` (l, c, u): the supplies
    ``user_coef . fills`` and ``cluster_coef . fills`` cover ``tU_l`` and
    ``tL``, and theta sits below every floor."""
    ls, _, us = axes
    rows.add("C4", (ls, us), chain_terms(fills.transpose(0, 2, 1), tu[:, None, None]),
             chain_terms(user_coef.transpose(0, 2, 1), [-1.0]), GREATER, 0.0)
    rows.add("C5", (ls,), chain_terms(fills.reshape(len(ls), -1), [tl]),
             chain_terms(cluster_coef.reshape(len(ls), -1), [-1.0]), GREATER, 0.0)
    rows.add("C8a", (ls,), stack_terms(th, tu), [1.0, -1.0], LESS, 0.0)
    rows.add("C8b", (), [th, tl], [1.0, -1.0], LESS, 0.0)


def _ratio_columns(M):
    """Grids of the ratio model's columns ``n | y | theta``."""
    return block_grids([(M.shape[0],), (M.shape[1],), ()])


def _ratio_model(g, M, num_slots, lb, eps):
    """Dense model over columns ``n | y | theta``: at most ``num_slots``
    patterns, ``n = M y >= lb`` and ``theta <= g_l n_l``; the objective is
    ``theta + eps * g . n``. It is the baseline count model, and with
    ``eps = 0`` the theta bound and the packing checks of the joint one."""
    n, y, theta = _ratio_columns(M)
    rows = _pattern_rows(M, n, y, float(num_slots))
    rows.add("theta", (index_labels("l", M.shape[0]),), stack_terms(n, theta), stack_terms(-g, 1.0), LESS, 0.0)
    c = np.zeros(theta + 1)
    c[n], c[theta] = eps * g, 1.0
    lo = np.zeros(theta + 1)
    lo[n] = lb
    hi = np.full(theta + 1, float(num_slots))
    hi[theta] = np.inf
    return (c, *_dense(rows.arrays(), theta + 1), lo, hi, [n, y])


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

    # Upper bound on theta*: the packing with fractional pattern counts. The
    # packing checks solve the same LP under other bounds.
    c, A, senses, b, lo, hi, tiers = _ratio_model(g, M, T, np.zeros(L), 0.0)
    n_grid, y_grid = tiers
    _, theta_lp, complete = _branch_and_bound(search, c, A, senses, b, lo, hi, ())
    if not complete:
        return best_x, False
    search.bound = min(search.bound, theta_lp + eps_b)

    def packing(theta):
        """Integer pattern counts reaching ``theta``: ``(y, complete)``. Only
        candidates below ``theta_lp`` are checked, so every ``g_l`` is positive."""
        n_lo, check_hi = lo.copy(), hi.copy()
        n_lo[n_grid] = np.ceil(theta / g - 1e-9)
        check_hi[-1] = 0.0   # a feasibility check: nothing to maximise
        v, _, complete = _branch_and_bound(search, c, A, senses, b, n_lo, check_hi, tiers)
        return (None if v is None else v[y_grid]), complete

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
        self.cat = model.catalog
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
        return self.cat.encode(z, float((self.ratio[:, None] * z).sum(axis=1).min()))

    def expand(self, v):
        return self.plan(v[_ratio_columns(self.M)[1]])


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
        self.user_coef, self.cluster_coef = ratio_coefficients(model.rate_per_slot, model.demand)
        self.M = _patterns(self.L, model.active_clusters_per_slot, model.pairs)
        self.axes = tuple(index_labels(p, k) for p, k in (("l", self.L), ("c", self.C), ("u", self.U)))
        # Even fills on delta_max carriers per user, until ``slot_values``
        # finds the best ones.
        spread = (np.subtract.outer(np.arange(self.C), np.arange(self.U)) % self.C) < model.delta_max
        self.beta_one_slot = np.broadcast_to(spread / self.U, (self.L, self.C, self.U))

    def _columns(self, P):
        """Grids of the count model's columns ``n | y | w | [a] | tU | tL |
        theta`` for ``P`` patterns; without ``fills`` the ``a`` grid is empty."""
        L, C, U = self.L, self.C, self.U
        return block_grids([(L,), (P,), (L, C, U), (L, C, U if self.fills else 0), (L,), (), ()])

    def _lp(self, M, n_lo, n_hi, slots, weights):
        """Dense count model over the columns of ``_columns``.

        ``n = M y`` and ``w[l,c,u] = beta * n_l``; ``n_hi`` caps every count
        and ``weights`` are the objective weights of ``(tU, tL, theta)``.
        """
        ls, cs, us = self.axes
        ns, ys, w, a, tu, tl, th = self._columns(M.shape[1])
        n = th + 1
        rows = _pattern_rows(M, ns, ys, slots)
        # C2: fills within n_l.
        rows.add("C2", (ls, cs), chain_terms(w, ns[:, None, None]), chain_terms(np.ones(self.U), [-1.0]),
                 LESS, 0.0)
        _floor_rows(rows, self.axes, w, tu, tl, th, self.user_coef, self.cluster_coef)
        if self.fills:
            eps = self.model.epsilon_fill
            rows.add("C1", (ls, us), a.transpose(0, 2, 1), 1.0, LESS, float(self.model.delta_max))
            # C7: w <= n_hi a and w >= eps n a, the two rows of each fill in turn.
            rows.add("C7", (ls, cs, us, ("a", "b")), stack_terms(w, ns[:, None, None], a)[..., None, :],
                     [[1.0, 0.0, -n_hi], [1.0, -eps, -eps * n_hi]], [LESS, GREATER], [0.0, -eps * n_hi])
        c = np.zeros(n)
        c[tu], c[tl], c[th] = weights
        lo = np.zeros(n)
        hi = np.full(n, np.inf)
        lo[ns], hi[ns] = n_lo, n_hi
        hi[ys] = slots
        hi[w] = n_hi
        hi[a] = 1.0
        return (c, *_dense(rows.arrays(), n), lo, hi, [ns, a.ravel(), ys])

    def slot_values(self, search):
        """``g_l`` for every cluster from one block-separable LP (or MILP in
        ``a``) with every cluster lit for exactly one slot."""
        L = self.L
        c, A, senses, b, lo, hi, tiers = self._lp(np.eye(L), 1.0, 1.0, float(L), (1.0, 0.0, 0.0))
        v, _, complete = _branch_and_bound(search, c, A, senses, b, lo, hi, tiers)
        if not complete:
            return None
        _, _, w, _, tu, _, _ = self._columns(L)
        beta = v[w]
        self.beta_one_slot = np.where(beta >= self.model.epsilon_fill, beta, 0.0)
        return v[tu]

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
        ns, ys, w, *_ = self._columns(self.M.shape[1])
        n, w = v[ns], v[w]
        beta = np.divide(w, n[:, None, None], out=np.zeros_like(w), where=n[:, None, None] > 0)
        beta[beta < self.model.epsilon_fill * 1e-2] = 0.0   # LP round-off of a zero fill
        if not self.fills and np.any((beta > 0) & (beta < self.model.epsilon_fill)):
            self.floor_missed = True
            return None
        return self._point(_schedule(self.M, v[ys], self.T), beta)

    def _point(self, z, beta):
        """Full column vector: ``a`` marks the nonzero fills of lit clusters,
        and the ratio floors are the realised minima of the supplies, which
        sum the products ``q = beta * z`` over the slots."""
        beta = beta * (z.sum(axis=1) > 0)[:, None, None]
        served = (beta[..., None] * z[:, None, None, :]).sum(axis=3)
        t_user = np.einsum("lcu,lcu->lu", served, self.user_coef).min(axis=1)
        t_cluster = float(np.einsum("lcu,lcu->l", served, self.cluster_coef).min())
        theta = min(float(t_user.min()), t_cluster)
        return self.model.catalog.encode(beta > 0, beta, z, t_user, t_cluster, theta)


MAX_ORACLE_BINARIES = 24
MAX_ORACLE_PATTERNS = 2_000_000
# Tableau bytes of one batch of oracle LPs. The batch's working set is about
# 1.25 times this: the tableaux and a rank-1 update buffer of a quarter of
# their size.
ORACLE_BATCH_BYTES = 1024 * 1024


def brute_force(model: ModelInstance) -> MilpSolution:
    """Enumeration oracle for tiny planner models.

    Settles every (assignment, illumination) pattern that passes the cheap
    carrier-count / activation-cap / adjacency filters and returns the best
    one: the inner (fill-rate, floors) LP of each pattern is either solved or
    proven unable to win by an upper bound. Illumination patterns with equal
    per-cluster slot counts share one set of LPs, which differ only in their
    bounds, so a pair (slot-count vector, carrier assignment) is one LP.

    The bound holds every assigned fill at its cap 1: C4 gives
    ``tU_l <= n_l min_u sum_{c in S_lu} user_coef``, C5 with C2 gives
    ``tL <= min_l n_l sum_c max_{u: c in S_lu} cluster_coef``, C8 caps theta
    by both, and the objective by ``theta + eps (sum tU + tL)``, each step
    widened by the row violation the simplex accepts (``_oracle_bounds``).
    The highest-bound LP is solved first for an incumbent; then the slot-count
    vectors are walked in enumeration order and only the LPs whose bound
    reaches the incumbent go to ``solve_dense_batch``, in batches of at most
    ``ORACLE_BATCH_BYTES`` of tableau. A pruned LP cannot reach the final
    objective, so it cannot win or tie. A solved LP gets the rows and bounds
    the exhaustive loop gives it and is solved from scratch, and the winner
    is the first in enumeration order with the highest objective, so the
    plan is the one solving every pair returns.
    ``nodes_explored`` counts every pair settled, solved or bounded. Exact
    up to LP tolerance; refuses models with more than 24 binaries.
    """
    cat = model.catalog
    if not isinstance(cat, VariableCatalog) or model.rate_per_slot is None:
        raise ValueError("brute_force requires a planner model built by build_model")
    n_bin = int(model.binary.sum())
    if n_bin > MAX_ORACLE_BINARIES:
        raise ValueError(f"brute_force caps at {MAX_ORACLE_BINARIES} binaries, model has {n_bin}")
    L, C, U, T = cat.num_clusters, cat.num_carriers, cat.num_users, cat.num_slots
    eps_fill = model.epsilon_fill
    eps_obj = model.epsilon_tiebreak

    def subsets(k):
        """Every subset of ``range(k)`` as a 0/1 row, in bitmask order."""
        return (np.arange(2 ** k)[:, None] >> np.arange(k)) & 1

    # The clusters one slot may light, and the carriers one user may hold.
    slot_masks = subsets(L)
    keep = slot_masks.sum(axis=1) <= model.active_clusters_per_slot
    for l1, l2 in model.pairs:
        keep &= (slot_masks[:, l1] & slot_masks[:, l2]) == 0
    slot_masks = slot_masks[keep].astype(float)
    set_masks = subsets(C)
    set_masks = set_masks[set_masks.sum(axis=1) <= model.delta_max].astype(bool)

    n_assign = len(set_masks) ** (L * U)
    total = len(slot_masks) ** T * n_assign
    if total > MAX_ORACLE_PATTERNS:
        raise ValueError(f"oracle enumeration would visit {total} patterns")

    # Inner LP columns: beta (L, C, U), tU (L), tL, theta; the rows are
    # build_model's C2, C4, C5 and C8 with the q terms of cluster l summed
    # into n_l times its fills.
    beta, tu, tl, th = block_grids([(L, C, U), (L,), (), ()])
    n_cols = th + 1
    axes = tuple(index_labels(p, k) for p, k in (("l", L), ("c", C), ("u", U)))
    user_coef, cluster_coef = ratio_coefficients(model.rate_per_slot, model.demand)

    def inner_rows(n_active):
        rows = RowBuilder()
        rows.add("C2", axes[:2], beta, 1.0, LESS, 1.0)
        scale = n_active[:, None, None]
        _floor_rows(rows, axes, beta, tu, tl, th, user_coef * scale, cluster_coef * scale)
        return _dense(rows.arrays(), n_cols)

    c_obj = np.zeros(n_cols)
    c_obj[th] = 1.0
    c_obj[tu] = eps_obj
    c_obj[tl] = eps_obj

    t_start = time.perf_counter()
    # Each user's supply at full fill under each carrier set d: its C4 sum
    # over the set, and per carrier its C5 coefficient (0 off the set).
    # ``take`` gathers them flat: entry d of row (l, u[, c]) sits at row * K + d.
    K = len(set_masks)
    user_one = np.einsum("dc,lcu->lud", set_masks, user_coef)            # (L, U, K)
    cluster_one = np.einsum("dc,lcu->lucd", set_masks, cluster_coef)     # (L, U, C, K)
    user_at = K * np.arange(L * U).reshape(L, U, 1)
    cluster_at = K * np.arange(L * U * C).reshape(L, U, C, 1)
    place = K ** np.arange(L * U - 1, -1, -1)

    def digits(ks):
        """Carrier-set index (L, U, k) of every user under the assignments
        ``ks``, numbered in itertools.product order over the users' sets."""
        return (ks // place[:, None] % K).reshape(L, U, -1)

    def bounds(ks, ns):
        """``_oracle_bounds`` of the assignments ``ks`` under the count vectors ``ns``."""
        d = digits(ks)
        user = user_one.take(user_at + d).min(axis=1)
        cluster = cluster_one.take(cluster_at + d[:, :, None]).max(axis=1).sum(axis=1)
        return _oracle_bounds(user, cluster, ns, eps_obj)

    # The inner LPs read a schedule only through its slot counts: each
    # distinct count vector, with the first schedule that has it.
    schedules = {}
    for schedule in itertools.product(range(len(slot_masks)), repeat=T):
        z = slot_masks[list(schedule)].T
        schedules.setdefault(tuple(z.sum(axis=1)), z)
    counts = np.array(list(schedules), dtype=float).reshape(-1, L)
    # Every count vector's LP has the same rows, so one batch size serves
    # all, and the bounds go a batch of assignments at a time.
    m = len(inner_rows(counts[0])[2])
    lps_per_batch = max(1, ORACLE_BATCH_BYTES // (8 * m * (n_cols + 2 * m)))

    def chunks():
        for start in range(0, n_assign, lps_per_batch):
            yield np.arange(start, min(start + lps_per_batch, n_assign))

    best_obj, best_at, best = -np.inf, None, None

    def solve(v, ks, A, senses, b):
        """Solve the LPs of count vector ``v`` and assignments ``ks`` as one
        batch; keep the first LP in enumeration order with the best objective."""
        nonlocal best_obj, best_at, best
        assigned = set_masks[digits(ks)].transpose(2, 0, 3, 1).reshape(len(ks), -1)
        lo = np.zeros((len(ks), n_cols))
        lo[:, beta.ravel()] = np.where(assigned, eps_fill, 0.0)
        hi = np.full((len(ks), n_cols), np.inf)
        hi[:, beta.ravel()] = assigned
        for k, mask, sol in zip(ks.tolist(), assigned, solve_dense_batch(c_obj, A, senses, b, lo, hi)):
            if sol.status == "optimal" and (sol.objective > best_obj or (
                    sol.objective == best_obj and (v, k) < best_at)):
                best_obj, best_at, best = sol.objective, (v, k), (mask, sol.values)

    # The incumbent: the LP of the highest bound over all pairs.
    top, first = -np.inf, (0, 0)
    for ks in chunks():
        ub = bounds(ks, counts)
        v, k = np.unravel_index(int(ub.argmax()), ub.shape)
        if ub[v, k] > top:
            top, first = ub[v, k], (int(v), int(ks[k]))
    v0, k0 = first
    solve(v0, np.array([k0]), *inner_rows(counts[v0]))

    # The walk: only an LP whose bound reaches the incumbent can still win.
    for v, n_active in enumerate(counts):
        rows = None
        for ks in chunks():
            live = bounds(ks, n_active[None])[0] >= best_obj
            if v == v0:
                live &= ks != k0
            if live.any():
                if rows is None:
                    rows = inner_rows(n_active)
                solve(v, ks[live], *rows)
    evaluated = len(counts) * n_assign

    if best is None:
        return MilpSolution(
            values=np.zeros(model.num_cols), objective=-np.inf, status="infeasible",
            nodes_explored=evaluated, wall_time=time.perf_counter() - t_start, gap=np.inf,
        )

    mask, inner = best
    z = list(schedules.values())[best_at[0]]
    return MilpSolution(
        values=cat.encode(mask.reshape(L, C, U), inner[beta], z, inner[tu], inner[tl], inner[th]),
        objective=float(best_obj), status="optimal",
        nodes_explored=evaluated, wall_time=time.perf_counter() - t_start, gap=0.0,
    )


def _oracle_bounds(user, cluster, counts, eps_obj):
    """Upper bound on the objective ``brute_force``'s inner LP can report,
    for each count vector of ``counts`` (V, L) and each carrier assignment
    ``S``: a (V, B) array. ``user`` and ``cluster`` (L, B) are each
    assignment's supplies at full fill, ``min_u sum_{c in S_lu} user_coef``
    and ``sum_c max_{u: c in S_lu} cluster_coef``.

    Every fill is capped at 1, and exactly so in a reported point, which
    the simplex clips to its bounds; each row may be violated by up to
    ``RESIDUAL_TOL``, beyond which the simplex raises. So C4 caps ``tU_l``
    at ``n_l user_l + r``; C2 (``sum_u beta <= 1 + r``) and C5 cap ``tL`` at
    ``min_l n_l cluster_l (1 + r) + r``; C8 caps theta at the smaller of
    them plus ``r``; and the objective is ``theta + eps (sum tU + tL)``.
    Here ``r`` is twice ``RESIDUAL_TOL``: the second half covers the
    rounding of these sums and of the LP's own, of order 1e-16 of the terms,
    which stays far below it while ratios and counts stay below ~1e6.
    An LP whose bound is below an objective some LP reported therefore
    reports less than it, and can neither win nor tie.
    """
    r = 2 * RESIDUAL_TOL
    t_user = counts[:, :, None] * user + r                                 # (V, L, B)
    t_cluster = (counts[:, :, None] * cluster).min(axis=1) * (1 + r) + r   # (V, B)
    theta = np.minimum(t_user.min(axis=1), t_cluster) + r
    return theta + eps_obj * (t_user.sum(axis=1) + t_cluster)
