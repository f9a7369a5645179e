"""Dense two-phase primal simplex with native variable bounds.

Works on the standard row form ``A x {<=,>=,=} b`` with finite lower bounds
and possibly infinite upper bounds; a row's sense is an int8 code into
``SENSES``, the package's one sense table. Nonbasic variables may rest at
either bound; bound flips avoid basis changes when the entering variable
hits its opposite bound first. Rows are equilibrated by their max-abs
coefficient before pivoting and all reporting happens in the original units.

Pricing is Dantzig by default; a stall counter switches to Bland's rule
permanently once the objective stops improving for too long, which guarantees
termination on degenerate models.

``solve_dense_batch`` solves LPs that share ``c, A, senses, b`` and differ
only in their bounds: their tableaux live in one ``(B, m, N)`` array and
pivot in lockstep, and a phase that starts with one LP runs the scalar
pivot loop ``_iterate``; ``solve_dense`` is a batch of one. Every LP starts
each phase from the pricing row ``z = cost - cost_B T``, with cost -1 on
the artificials in phase 1 and ``c`` in phase 2. That row adds the tableau
rows in order, column by column, so it does not depend on the other LPs of
a batch or on the artificial slots an LP does not use, and a batch
member's result is bit-identical to ``solve_dense`` on the same LP.

The batch path works in place, and each LP keeps its own slot of the batch
axis from set-up to finish. A pivot step covers the whole batch but writes
only the LPs that have not finished, and the rank-1 update goes through one
reused buffer a quarter the size of the tableaux. The set-up allocates no
other ``(B, m, N)`` array, so in either phase a batch holds about 1.25 times
its tableaux, plus ``(B, N)`` and ``(B, m)`` rows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-9
# A reported optimum whose worst row or bound violation exceeds this is a bug.
RESIDUAL_TOL = 1e-7

SENSES = ("<=", ">=", "=")
LESS, GREATER, EQUAL = range(len(SENSES))


@dataclass
class LpSolution:
    values: np.ndarray
    objective: float
    status: str  # optimal | infeasible | unbounded
    iterations: int = 0


def solve_dense(c, A, senses, b, lower, upper) -> LpSolution:
    """Solve max c.x s.t. A x (senses) b, lower <= x <= upper: a batch of one."""
    return solve_dense_batch(c, A, senses, b, np.asarray(lower)[None], np.asarray(upper)[None])[0]


def solve_dense_batch(c, A, senses, b, lowers, uppers) -> list[LpSolution]:
    """Solve ``B`` LPs ``max c.x s.t. A x (senses) b, lowers[k] <= x <= uppers[k]``.

    ``lowers`` and ``uppers`` have shape ``(B, n)``. Entry ``k`` of the result
    equals ``solve_dense(c, A, senses, b, lowers[k], uppers[k])`` bit for bit.
    """
    tab = _Tableaux(c, A, senses, b, np.asarray(lowers, dtype=float),
                    np.asarray(uppers, dtype=float))
    _iterate_batch(tab, (tab.alive & tab.art.any(axis=1)).nonzero()[0], phase=1)
    tab.phase_two()
    _iterate_batch(tab, tab.alive.nonzero()[0], phase=2)
    return tab.finish()


class _Tableaux:
    """Set-up, phase change and finish of ``B`` LPs over one column layout.

    Columns are the ``n`` structural ones, one slack per inequality row and
    one artificial slot per row that needs an artificial in any of the LPs,
    in that order. A slot an LP does not use is all zero with upper bound 0,
    so it never enters, and the pivot order matches the LP's own layout.
    ``sign`` is +1 for a nonbasic column at its lower bound, -1 at its upper
    bound and 0 for a basic column.
    """

    def __init__(self, c, A, senses, b, lo, up):
        c = np.asarray(c, dtype=float)
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        codes = sense_codes(senses)
        if c.ndim != 1 or b.ndim != 1 or A.shape != (b.size, c.size) or codes.shape != b.shape:
            raise ValueError(f"expected shapes c (n,), A (m, n), b (m,) and senses (m,); got {c.shape}, "
                             f"{A.shape}, {b.shape} and {codes.shape}")
        m, n = A.shape
        if lo.ndim != 2 or lo.shape[1] != n or up.shape != lo.shape:
            raise ValueError(f"bounds have shapes {lo.shape} and {up.shape}, expected (B, {n})")
        if not (np.isfinite(c).all() and np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("c, A and b must be finite")
        if not np.isfinite(lo).all():
            raise ValueError("lower bounds must be finite")
        if np.isnan(up).any():
            raise ValueError("upper bounds must not be NaN")
        B = lo.shape[0]
        self.c, self.A, self.b, self.codes, self.lo, self.up = c, A, b, codes, lo, up
        self.status = ["infeasible"] * B
        self.iterations = np.zeros(B, dtype=np.int64)
        self.alive = ~(up < lo - 1e-12).any(axis=1)

        # Shift to zero lower bounds and equilibrate rows.
        b_shift = b - np.matmul(A, lo[:, :, None])[:, :, 0]
        scale = np.abs(A).max(axis=1) if n else np.ones(m)
        scale = np.where(scale > 1e-12, scale, 1.0)
        As = A / scale[:, None]
        bs = b_shift / scale
        # Orient rows so rhs >= 0; flipping >= rows with zero rhs as well keeps
        # them slack-basic and avoids needless phase-1 artificials.
        flip = (bs < 0) | ((bs == 0.0) & (codes == GREATER))
        bs = np.where(flip, -bs, bs)
        bs[bs == 0.0] = 0.0
        # A row needs an artificial unless it is a <= row once oriented.
        art = np.where(flip, codes != GREATER, codes != LESS) & self.alive[:, None]

        slack_rows = (codes != EQUAL).nonzero()[0]
        art_rows = art.any(axis=0).nonzero()[0]
        self.core = core = n + slack_rows.size
        N = core + art_rows.size
        slack_col = np.full(m, -1)
        slack_col[slack_rows] = n + np.arange(slack_rows.size)
        art_col = np.full(m, -1)
        art_col[art_rows] = core + np.arange(art_rows.size)

        T = np.zeros((B, m, N))
        T[:, :, :n] = As
        np.negative(T[:, :, :n], out=T[:, :, :n], where=flip[:, :, None])
        T[:, slack_rows, slack_col[slack_rows]] = np.where(art[:, slack_rows], -1.0, 1.0)
        T[:, art_rows, art_col[art_rows]] = art[:, art_rows]
        ub = np.full((B, N), np.inf)
        ub[:, :n] = np.maximum(up - lo, 0.0)
        ub[:, core:] = np.where(art[:, art_rows], np.inf, 0.0)
        basis = np.where(art, art_col, slack_col)
        lps = np.arange(B)[:, None]
        sign = np.ones((B, N))
        sign[lps, basis] = 0.0

        self.T, self.rhs, self.basis, self.sign, self.ub, self.art = T, bs, basis, sign, ub, art
        self.z = np.zeros((B, N))
        if art_rows.size:
            # Phase 1 maximises minus the sum of the artificials.
            cost = np.zeros(N)
            cost[core:] = -1.0
            self.price(cost)
        self.infeasible_tol = 1e-7 * np.maximum(1.0, np.abs(bs).max(axis=1, initial=0.0))
        # Caps follow each LP's own column count, without unused slots.
        width = m + core + art.sum(axis=1)
        self.max_iter = 200 * width + 20_000
        self.bland_after = 2 * width + 200

    def settle(self, lps, status: str, iterations: int, phase: int) -> None:
        """Record that the LPs ``lps`` ended a phase in ``status``."""
        self.iterations[lps] += iterations
        if status == "unbounded":
            if phase == 1:
                raise RuntimeError("phase-1 simplex reported unbounded; preprocessing bug")
            self.alive[lps] = False
            for k in lps:
                self.status[k] = status

    def phase_two(self) -> None:
        """Drop the LPs phase 1 left infeasible; price on ``c``."""
        _, m, N = self.T.shape
        self.ub[:, self.core:] = 0.0
        if N > self.core and m:
            k = self.alive.nonzero()[0]
            left = np.where(self.basis[k] >= self.core, np.maximum(self.rhs[k], 0.0), 0.0)
            feasible = np.add.accumulate(left, axis=1)[:, -1] <= self.infeasible_tol[k]
            self.alive[k[~feasible]] = False
        cost = np.zeros(N)
        cost[:self.c.size] = self.c
        self.price(cost)

    def price(self, cost: np.ndarray) -> None:
        """Set every LP's pricing row to ``z = cost - cost_B T``.

        ``einsum`` loops over the columns innermost and adds the rows in
        order, so an entry does not depend on the other LPs or on the
        number of columns, as a BLAS product's rounding would: a batch
        member prices as the same LP alone.
        """
        np.einsum("km,kmn->kn", cost[self.basis], self.T, out=self.z)
        np.subtract(cost, self.z, out=self.z)
        self.z[np.arange(self.z.shape[0])[:, None], self.basis] = 0.0

    def finish(self) -> list[LpSolution]:
        """Recover each optimal LP's point and check it against the rows and bounds."""
        n = self.c.size
        x = np.zeros((len(self.status), n))
        k = self.alive.nonzero()[0]
        if k.size:
            lo, up = self.lo[k], self.up[k]
            x_ext = np.where(self.sign[k] < 0, self.ub[k], 0.0)
            x_ext[np.arange(k.size)[:, None], self.basis[k]] = self.rhs[k]
            x[k] = np.clip(x_ext[:, :n] + lo, lo, up)
            residual = _max_violation(self.A, self.codes, self.b, lo, up, x[k])
            if (residual > RESIDUAL_TOL).any():
                raise RuntimeError(
                    f"simplex returned an infeasible optimum (max violation {residual.max():.3e})"
                )
        # Each LP owns its point. The objective is one dot product per LP, as
        # a lone LP computes it.
        return [LpSolution(values, float(self.c @ values), "optimal", int(iters)) if alive
                else LpSolution(values, 0.0, status, int(iters))
                for values, alive, status, iters
                in zip(map(np.ndarray.copy, x), self.alive.tolist(), self.status, self.iterations)]


def sense_codes(senses, unknown: str = "unknown sense") -> np.ndarray:
    """``senses`` as int8 codes into ``SENSES``: a code in range passes, a text
    maps to its index, and any other entry raises ``ValueError`` (``unknown``
    and the first such entry)."""
    s = np.asarray(senses)
    codes = s if s.dtype.kind in "iu" else np.select([s == text for text in SENSES], range(len(SENSES)), -1)
    bad = (codes < 0) | (codes >= len(SENSES))
    if bad.any():
        raise ValueError(f"{unknown} {s[bad].tolist()[0]!r}; expected one of {SENSES}")
    return codes.astype(np.int8, copy=False)


def row_excess(lhs, senses, rhs) -> np.ndarray:
    """How far each row's ``lhs`` passes its ``rhs`` where its sense forbids; 0 or less if it holds."""
    return np.where(senses == LESS, lhs - rhs, np.where(senses == GREATER, rhs - lhs, np.abs(lhs - rhs)))


def _max_violation(A, codes, b, lo, up, x) -> np.ndarray:
    """Worst row or bound violation of each point in ``x`` (B, n); NaN counts as inf."""
    lhs = np.matmul(A, x[:, :, None])[:, :, 0]
    worst = np.maximum(row_excess(lhs, codes, b).max(axis=1, initial=0.0),
                       np.maximum(lo - x, x - up).max(axis=1, initial=0.0))
    return np.where(np.isnan(worst), np.inf, worst)


def _iterate(T, rhs, z, basis, sign, ub, max_iter, bland_after):
    """Run primal pivots on one tableau until optimal or unbounded.

    Mutates all array arguments; returns the status and the pricing passes.
    """
    m = rhs.shape[0]
    stall = 0
    bland = False
    ratios = np.empty(m)
    for it in range(1, max_iter + 1):
        cand = ((ub > 0.0) & (sign * z > PIVOT_TOL)).nonzero()[0]
        if cand.size == 0:
            return "optimal", it
        e = int(cand[0]) if bland else int(cand[np.abs(z[cand]).argmax()])
        d = sign[e]
        col = d * T[:, e]

        t_best = ub[e]
        leave = -1
        if m:
            ub_basis = ub[basis]
            ratios.fill(np.inf)
            np.divide(np.maximum(rhs, 0.0), col, out=ratios, where=col > PIVOT_TOL)
            np.divide(ub_basis - np.minimum(rhs, ub_basis), -col, out=ratios,
                      where=(col < -PIVOT_TOL) & (ub_basis < np.inf))
            rmin = ratios.min()
            if rmin < t_best:
                ties = (ratios == rmin).nonzero()[0]
                leave = int(ties[basis[ties].argmin()])
                t_best = rmin
        if not np.isfinite(t_best):
            return "unbounded", it

        gain = abs(z[e]) * t_best
        stall = 0 if gain > 1e-12 else stall + 1
        if not bland and stall > bland_after:
            bland = True

        rhs -= t_best * col
        if leave < 0:
            sign[e] = -d
            continue
        sign[basis[leave]] = -1.0 if col[leave] < 0.0 else 1.0
        enter_val = t_best if d > 0 else ub[e] - t_best
        prow = T[leave] / T[leave, e]
        T[leave] = prow
        colv = T[:, e].copy()
        colv[leave] = 0.0
        T -= colv[:, None] * prow
        z -= z[e] * prow
        rhs[leave] = enter_val
        basis[leave] = e
        sign[e] = 0.0
    raise RuntimeError(f"simplex stalled after {max_iter} iterations")


def _iterate_batch(tab: _Tableaux, lps: np.ndarray, phase: int) -> None:
    """Pivot the tableaux ``lps`` of ``tab`` in lockstep, each as ``_iterate`` would.

    Works in place on ``tab``'s arrays, and every LP keeps its own slot of
    the batch axis. The ``live`` mask starts as ``lps`` and loses each LP as
    it finishes. A step reads every slot and writes only the live ones,
    through ``where=`` masks; a finished LP takes a zero step, so its
    numbers raise no warning. The rank-1 update runs in quarters of the
    batch through one reused buffer: the working set is 1.25 times the
    tableaux. A phase that starts with one LP pivots it with ``_iterate``.
    """
    if not lps.size:
        return
    if lps.size == 1:
        k = int(lps[0])
        tab.settle(lps, *_iterate(tab.T[k], tab.rhs[k], tab.z[k], tab.basis[k], tab.sign[k], tab.ub[k],
                                  int(tab.max_iter[k]), int(tab.bland_after[k])), phase=phase)
        return
    T, rhs, z, basis, sign, ub = tab.T, tab.rhs, tab.z, tab.basis, tab.sign, tab.ub
    r = np.arange(T.shape[0])
    live = np.zeros(r.size, dtype=bool)
    live[lps] = True
    stall = np.zeros(r.size, dtype=np.int64)
    bland = np.zeros(r.size, dtype=bool)
    update = np.empty(((r.size + 3) // 4,) + T.shape[1:])
    it = 0

    def settle(done, status) -> bool:
        """Record that the live LPs ``done`` ended in ``status``; say if any LP is left."""
        if done.any():
            tab.settle(done.nonzero()[0], status, it, phase)
            live[done] = False
        return live.any()

    while True:
        it += 1
        if (it > tab.max_iter[live]).any():
            raise RuntimeError(f"simplex stalled after {it - 1} iterations")
        improving = (ub > 0.0) & (sign * z > PIVOT_TOL)
        if not settle(live & ~improving.any(axis=1), "optimal"):
            return
        e = np.where(bland, improving.argmax(axis=1),
                     np.where(improving, np.abs(z), -1.0).argmax(axis=1))
        d = sign[r, e]
        col = d[:, None] * T[r, :, e]

        leave, t_best = _ratio_test(rhs, col, basis, ub, ub[r, e])
        if not settle(live & ~np.isfinite(t_best), "unbounded"):
            return
        t_best[~live] = 0.0

        gain = np.abs(z[r, e]) * t_best
        stall = np.where(gain > 1e-12, 0, stall + 1)
        bland |= stall > tab.bland_after

        np.subtract(rhs, t_best[:, None] * col, out=rhs, where=live[:, None])
        flips = live & (leave < 0)
        sign[r[flips], e[flips]] = -d[flips]
        # Pivot the live LPs that did not flip a bound; the others' rows take
        # no part (zero column, unit divisor) and stay untouched.
        pivots = live & ~flips
        if not pivots.any():
            continue
        p, lv, ep = r[pivots], leave[pivots], e[pivots]
        sign[p, basis[p, lv]] = np.where(col[p, lv] < 0.0, -1.0, 1.0)
        enter_val = np.where(d[p] > 0, t_best[p], ub[p, ep] - t_best[p])
        row = np.where(pivots, leave, 0)
        prow = T[r, row]
        prow /= np.where(pivots, T[r, row, e], 1.0)[:, None]
        T[p, lv] = prow[p]
        colv = T[r, :, e]
        colv[r, row] = 0.0
        colv[~pivots] = 0.0
        h = update.shape[0]
        for i in range(0, r.size, h):
            j = min(i + h, r.size)
            np.multiply(colv[i:j, :, None], prow[i:j, None, :], out=update[:j - i])
            np.subtract(T[i:j], update[:j - i], out=T[i:j], where=pivots[i:j, None, None])
        np.subtract(z, z[r, e][:, None] * prow, out=z, where=pivots[:, None])
        rhs[p, lv] = enter_val
        basis[p, lv] = ep
        sign[p, ep] = 0.0


def _ratio_test(rhs, col, basis, ub, t_best):
    """Leaving row (-1 for a bound flip) and step of each LP in a batch."""
    if not rhs.shape[1]:
        return np.full(rhs.shape[0], -1), t_best
    ub_basis = np.take_along_axis(ub, basis, axis=1)
    ratios = np.full(rhs.shape, np.inf)
    np.divide(np.maximum(rhs, 0.0), col, out=ratios, where=col > PIVOT_TOL)
    np.divide(ub_basis - np.minimum(rhs, ub_basis), -col, out=ratios,
              where=(col < -PIVOT_TOL) & (ub_basis < np.inf))
    rmin = ratios.min(axis=1)
    by_row = rmin < t_best
    ties = np.where(ratios == rmin[:, None], basis, ub.shape[1])
    return np.where(by_row, ties.argmin(axis=1), -1), np.where(by_row, rmin, t_best)
