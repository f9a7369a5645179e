"""Dense two-phase primal simplex with native variable bounds.

Works on the standard row form ``A x {<=,>=,=} b`` with finite lower bounds
and possibly infinite upper bounds. Nonbasic variables may rest at either
bound; bound flips avoid basis changes when the entering variable hits its
opposite bound first. Rows are equilibrated by their max-abs coefficient
before pivoting and all reporting happens in the original units.

Pricing is Dantzig by default; a stall counter switches to Bland's rule
permanently once the objective stops improving for too long, which guarantees
termination on degenerate models.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

AT_LOWER = 0
AT_UPPER = 1
BASIC = 2

PIVOT_TOL = 1e-9
# A reported optimum whose worst row or bound violation exceeds this is a bug.
RESIDUAL_TOL = 1e-7


@dataclass
class LpSolution:
    values: np.ndarray
    objective: float
    status: str  # optimal | infeasible | unbounded
    iterations: int = 0


def solve_dense(c, A, senses, b, lower, upper) -> LpSolution:
    """Solve max c.x s.t. A x (senses) b, lower <= x <= upper."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    lo = np.asarray(lower, dtype=float)
    up = np.asarray(upper, dtype=float)
    n = c.shape[0]
    m = b.shape[0]
    if A.shape != (m, n):
        raise ValueError(f"A has shape {A.shape}, expected ({m}, {n})")
    if np.any(up < lo - 1e-12):
        return LpSolution(np.zeros(n), 0.0, "infeasible")

    # Shift to zero lower bounds.
    shift = lo.copy()
    rng_up = np.maximum(up - lo, 0.0)
    b_shift = b - A @ shift

    # Row equilibration.
    scale = np.abs(A).max(axis=1) if n else np.ones(m)
    scale = np.where(scale > 1e-12, scale, 1.0)
    As = A / scale[:, None]
    bs = b_shift / scale

    sense_codes = np.array([{"<=": 0, ">=": 1, "=": 2}[s] for s in senses], dtype=np.int8)
    # Orient rows so rhs >= 0; flipping >= rows with zero rhs as well keeps
    # them slack-basic and avoids needless phase-1 artificials.
    flip = (bs < 0) | ((bs == 0.0) & (sense_codes == 1))
    As[flip] *= -1.0
    bs[flip] *= -1.0
    bs[bs == 0.0] = 0.0
    swap = {0: 1, 1: 0, 2: 2}
    for i in np.nonzero(flip)[0]:
        sense_codes[i] = swap[int(sense_codes[i])]

    slack_rows = np.nonzero(sense_codes != 2)[0]
    art_rows = np.nonzero(sense_codes != 0)[0]
    n_slack = slack_rows.size
    n_art = art_rows.size
    total = n + n_slack + n_art

    T = np.zeros((m, total))
    T[:, :n] = As
    ub_ext = np.full(total, np.inf)
    ub_ext[:n] = rng_up
    basis = np.full(m, -1, dtype=np.int64)
    for k, i in enumerate(slack_rows):
        T[i, n + k] = 1.0 if sense_codes[i] == 0 else -1.0
        if sense_codes[i] == 0:
            basis[i] = n + k
    for k, i in enumerate(art_rows):
        T[i, n + n_slack + k] = 1.0
        basis[i] = n + n_slack + k

    vstat = np.full(total, AT_LOWER, dtype=np.int8)
    vstat[basis] = BASIC
    rhs = bs.copy()
    iterations = 0

    if n_art:
        z1 = np.zeros(total)
        z1[n + n_slack:] = -1.0
        for i in np.nonzero(basis >= n + n_slack)[0]:
            z1 += T[i]
        z1[basis] = 0.0
        status, iters = _iterate(T, rhs, z1, basis, vstat, ub_ext)
        iterations += iters
        if status == "unbounded":
            raise RuntimeError("phase-1 simplex reported unbounded; preprocessing bug")
        art_total = 0.0
        for i in range(m):
            if basis[i] >= n + n_slack:
                art_total += max(rhs[i], 0.0)
        if art_total > 1e-7 * max(1.0, float(np.abs(bs).max(initial=0.0))):
            return LpSolution(np.zeros(n), 0.0, "infeasible", iterations)
        ub_ext[n + n_slack:] = 0.0

    c_ext = np.zeros(total)
    c_ext[:n] = c
    zrow = c_ext - c_ext[basis] @ T
    zrow[basis] = 0.0
    status, iters = _iterate(T, rhs, zrow, basis, vstat, ub_ext)
    iterations += iters
    if status == "unbounded":
        return LpSolution(np.zeros(n), 0.0, "unbounded", iterations)

    x_ext = np.zeros(total)
    upper_cols = np.nonzero(vstat == AT_UPPER)[0]
    x_ext[upper_cols] = ub_ext[upper_cols]
    x_ext[basis] = rhs
    x = np.clip(x_ext[:n] + shift, lo, up)
    objective = float(c @ x)

    residual = _max_violation(A, senses, b, lo, up, x)
    if residual > RESIDUAL_TOL:
        raise RuntimeError(
            f"simplex returned an infeasible optimum (max violation {residual:.3e})"
        )
    return LpSolution(values=x, objective=objective, status="optimal", iterations=iterations)


def _max_violation(A, senses, b, lo, up, x) -> float:
    lhs = A @ x
    worst = 0.0
    for i, s in enumerate(senses):
        if s == "<=":
            worst = max(worst, lhs[i] - b[i])
        elif s == ">=":
            worst = max(worst, b[i] - lhs[i])
        else:
            worst = max(worst, abs(lhs[i] - b[i]))
    finite_lo = np.isfinite(lo)
    finite_up = np.isfinite(up)
    if np.any(finite_lo):
        worst = max(worst, float((lo[finite_lo] - x[finite_lo]).max(initial=0.0)))
    if np.any(finite_up):
        worst = max(worst, float((x[finite_up] - up[finite_up]).max(initial=0.0)))
    return worst


def _iterate(T, rhs, zrow, basis, vstat, ub_ext):
    """Run primal pivots until optimal or unbounded. Mutates all arguments."""
    m, total = T.shape
    max_iter = 200 * (m + total) + 20_000
    bland_after = 2 * (m + total) + 200
    stall = 0
    bland = False
    for it in range(1, max_iter + 1):
        improving = (
            (ub_ext > 0.0)
            & (
                ((vstat == AT_LOWER) & (zrow > PIVOT_TOL))
                | ((vstat == AT_UPPER) & (zrow < -PIVOT_TOL))
            )
        )
        cand = np.nonzero(improving)[0]
        if cand.size == 0:
            return "optimal", it
        if bland:
            e = int(cand[0])
        else:
            e = int(cand[np.argmax(np.abs(zrow[cand]))])
        entering_low = vstat[e] == AT_LOWER
        d = 1.0 if entering_low else -1.0
        col = d * T[:, e]

        t_best = ub_ext[e]
        leave = -1
        if m:
            ub_basis = ub_ext[basis]
            pos = col > PIVOT_TOL
            neg = (col < -PIVOT_TOL) & np.isfinite(ub_basis)
            ratios = np.full(m, np.inf)
            if np.any(pos):
                ratios[pos] = np.maximum(rhs[pos], 0.0) / col[pos]
            if np.any(neg):
                ratios[neg] = (ub_basis[neg] - np.minimum(rhs[neg], ub_basis[neg])) / (-col[neg])
            rmin = float(ratios.min(initial=np.inf))
            if rmin < t_best:
                ties = np.nonzero(ratios == rmin)[0]
                leave = int(ties[np.argmin(basis[ties])])
                t_best = rmin
        if not np.isfinite(t_best):
            return "unbounded", it

        gain = abs(zrow[e]) * t_best
        stall = 0 if gain > 1e-12 else stall + 1
        if not bland and stall > bland_after:
            bland = True

        rhs -= t_best * col
        if leave < 0:
            vstat[e] = AT_UPPER if entering_low else AT_LOWER
            continue
        k = int(basis[leave])
        vstat[k] = AT_UPPER if col[leave] < 0.0 else AT_LOWER
        enter_val = t_best if entering_low else ub_ext[e] - t_best
        prow = T[leave] / T[leave, e]
        T[leave] = prow
        colv = T[:, e].copy()
        colv[leave] = 0.0
        T -= np.outer(colv, prow)
        zrow -= zrow[e] * prow
        rhs[leave] = enter_val
        basis[leave] = e
        vstat[e] = BASIC
    raise RuntimeError(f"simplex stalled after {max_iter} iterations")
