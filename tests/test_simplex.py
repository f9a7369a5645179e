import numpy as np
import pytest

from bhca.simplex import solve_dense

INF = float("inf")


def lp(c, A, senses, b, lower=None, upper=None, maximize=True):
    """solve_dense always maximises; a minimisation maximises -c."""
    sign = 1.0 if maximize else -1.0
    c = sign * np.asarray(c, dtype=float)
    n = c.size
    lower = np.zeros(n) if lower is None else np.asarray(lower, dtype=float)
    upper = np.full(n, INF) if upper is None else np.asarray(upper, dtype=float)
    sol = solve_dense(c, np.asarray(A, dtype=float), senses, np.asarray(b, dtype=float),
                      lower, upper)
    sol.objective *= sign
    return sol


def test_single_row_maximum():
    sol = lp([1.0], [[1.0]], ["<="], [3.0])
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0)
    assert sol.values[0] == pytest.approx(3.0)


def test_contradictory_rows_infeasible():
    sol = lp([1.0], [[1.0], [1.0]], ["<=", ">="], [1.0, 2.0])
    assert sol.status == "infeasible"


def test_unbounded_detection():
    sol = lp([1.0], [[-1.0]], ["<="], [0.0])
    assert sol.status == "unbounded"


def test_equality_rows():
    # max x + y s.t. x + y = 2, x - y = 0
    sol = lp([1.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], ["=", "="], [2.0, 0.0])
    assert sol.status == "optimal"
    assert sol.values == pytest.approx([1.0, 1.0])


def test_upper_bounds_via_bound_flips():
    # max x + y with x,y <= 1 and x + y <= 1.5
    sol = lp([2.0, 1.0], [[1.0, 1.0]], ["<="], [1.5], upper=[1.0, 1.0])
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.5)
    assert sol.values == pytest.approx([1.0, 0.5])


def test_nonzero_lower_bounds_shifted():
    # min x + y with x >= 2, y in [1, 5], x + y >= 4
    sol = lp([1.0, 1.0], [[1.0, 1.0]], [">="], [4.0],
             lower=[2.0, 1.0], upper=[INF, 5.0], maximize=False)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(4.0)


def test_fixed_variables_are_respected():
    sol = lp([1.0, 1.0], [[1.0, 1.0]], ["<="], [10.0],
             lower=[2.0, 0.0], upper=[2.0, 3.0])
    assert sol.status == "optimal"
    assert sol.values[0] == pytest.approx(2.0)
    assert sol.objective == pytest.approx(5.0)


def test_crossed_bounds_infeasible():
    sol = lp([1.0], [[1.0]], ["<="], [1.0], lower=[2.0], upper=[1.0])
    assert sol.status == "infeasible"


def test_degenerate_cycling_model_terminates():
    # Classic cycling-prone construction (Beale); Bland fallback must finish.
    c = [0.75, -150.0, 0.02, -6.0]
    A = [
        [0.25, -60.0, -1.0 / 25.0, 9.0],
        [0.5, -90.0, -1.0 / 50.0, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
    sol = lp(c, A, ["<=", "<=", "<="], [0.0, 0.0, 1.0])
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.05)


def test_negative_rhs_rows_normalize():
    # -x <= -2 means x >= 2.
    sol = lp([-1.0], [[-1.0]], ["<="], [-2.0])
    assert sol.status == "optimal"
    assert sol.values[0] == pytest.approx(2.0)


def test_random_lps_match_scipy():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(42)
    agree = 0
    for trial in range(60):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 7))
        A = np.round(rng.normal(size=(m, n)), 3)
        b = np.round(rng.uniform(-1.0, 3.0, size=m), 3)
        c = np.round(rng.normal(size=n), 3)
        senses = [str(rng.choice(["<=", ">=", "="]))for _ in range(m)]
        upper = np.where(rng.random(n) < 0.5, rng.uniform(0.5, 3.0, n), INF)
        sol = solve_dense(c, A, senses, b, np.zeros(n), upper)

        A_ub, b_ub, A_eq, b_eq = [], [], [], []
        for i, s in enumerate(senses):
            if s == "<=":
                A_ub.append(A[i]); b_ub.append(b[i])
            elif s == ">=":
                A_ub.append(-A[i]); b_ub.append(-b[i])
            else:
                A_eq.append(A[i]); b_eq.append(b[i])
        ref = linprog(
            -c,
            A_ub=np.array(A_ub) if A_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(A_eq) if A_eq else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=[(0.0, None if not np.isfinite(u) else u) for u in upper],
            method="highs",
        )
        if ref.status == 0:
            assert sol.status == "optimal", f"trial {trial}: scipy optimal, got {sol.status}"
            assert sol.objective == pytest.approx(-ref.fun, abs=1e-7), f"trial {trial}"
            agree += 1
        elif ref.status == 2:
            assert sol.status == "infeasible", f"trial {trial}"
        elif ref.status == 3:
            assert sol.status == "unbounded", f"trial {trial}"
    assert agree >= 15  # a healthy share of feasible bounded instances


def test_reported_point_is_primal_feasible():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 5))
        A = rng.normal(size=(m, n))
        b = rng.uniform(0.0, 2.0, size=m)
        c = rng.normal(size=n)
        senses = [str(rng.choice(["<=", ">="])) for _ in range(m)]
        upper = rng.uniform(0.5, 2.0, size=n)
        sol = solve_dense(c, A, senses, b, np.zeros(n), upper)
        if sol.status != "optimal":
            continue
        lhs = A @ sol.values
        for i, s in enumerate(senses):
            if s == "<=":
                assert lhs[i] <= b[i] + 1e-8
            else:
                assert lhs[i] >= b[i] - 1e-8
        assert np.all(sol.values >= -1e-9)
        assert np.all(sol.values <= upper + 1e-9)


def test_deterministic_pivoting():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(6, 5))
    b = rng.uniform(0.5, 2.0, size=6)
    c = rng.normal(size=5)
    senses = ["<="] * 6
    a = solve_dense(c, A, senses, b, np.zeros(5), np.full(5, INF))
    b2 = solve_dense(c, A, senses, b, np.zeros(5), np.full(5, INF))
    assert a.status == b2.status
    assert np.array_equal(a.values, b2.values)
    assert a.iterations == b2.iterations
