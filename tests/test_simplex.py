import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bhca import simplex
from bhca.simplex import solve_dense, solve_dense_batch

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


def _random_lps():
    """60 seeded LPs ``(c, A, senses, b, lower, upper)`` of 1-6 rows of any
    sense and 2-6 columns, about half of them capped."""
    rng = np.random.default_rng(42)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 7))
        A = np.round(rng.normal(size=(m, n)), 3)
        b = np.round(rng.uniform(-1.0, 3.0, size=m), 3)
        c = np.round(rng.normal(size=n), 3)
        senses = [str(rng.choice(["<=", ">=", "="]))for _ in range(m)]
        upper = np.where(rng.random(n) < 0.5, rng.uniform(0.5, 3.0, n), INF)
        yield c, A, senses, b, np.zeros(n), upper


def test_random_lps_match_scipy():
    linprog = pytest.importorskip("scipy.optimize").linprog
    agree = 0
    for trial, (c, A, senses, b, lower, upper) in enumerate(_random_lps()):
        sol = solve_dense(c, A, senses, b, lower, upper)

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


BEALE_C = [0.75, -150.0, 0.02, -6.0]
BEALE_A = [
    [0.25, -60.0, -1.0 / 25.0, 9.0],
    [0.5, -90.0, -1.0 / 50.0, 3.0],
    [0.0, 0.0, 1.0, 0.0],
]


def _single(c, A, senses, b, lowers, uppers):
    return [solve_dense(c, A, senses, b, lo, up) for lo, up in zip(lowers, uppers)]


def _assert_bit_identical(batch, single):
    assert len(batch) == len(single)
    for got, want in zip(batch, single):
        assert got.values.tobytes() == want.values.tobytes()
        assert np.float64(got.objective).tobytes() == np.float64(want.objective).tobytes()
        assert (got.status, got.iterations) == (want.status, want.iterations)


def _both(c, A, senses, b, lowers, uppers):
    lowers, uppers = np.asarray(lowers, dtype=float), np.asarray(uppers, dtype=float)
    single = _single(c, A, senses, b, lowers, uppers)
    batch = solve_dense_batch(c, A, senses, b, lowers, uppers)
    _assert_bit_identical(batch, single)
    return batch


def test_batch_mixes_every_outcome():
    # max x + y s.t. x + y >= 1, x - y = 0.
    c, A, senses, b = [1.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], [">=", "="], [1.0, 0.0]
    lowers = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.25, 0.5]]
    uppers = [[2.0, 2.0], [INF, INF], [0.2, 0.2], [0.0, 1.0], [3.0, 1.5]]
    sols = _both(c, A, senses, b, lowers, uppers)
    assert [s.status for s in sols] == ["optimal", "unbounded", "infeasible", "infeasible", "optimal"]
    assert sols[0].values.tolist() == [2.0, 2.0]
    assert sols[4].values.tolist() == [1.5, 1.5]
    assert sols[3].iterations == 0  # crossed bounds: no pivot at all
    assert sols[2].iterations > 0   # phase 1 proves the infeasibility


def test_batch_runs_blands_rule_per_lp():
    # At the degenerate vertex x = 0 Dantzig pricing cycles on this LP until
    # the stall counter passes 2 * (4 rows + 10 columns) + 200 = 228 and
    # switches the LP to Bland's rule. Its batch mates never switch.
    c = [-7.0, 8.0, 9.0, -4.0, 6.0, -2.0]
    A = [[-8.0, -40.0, -6.0, 3.5, 4.0, -70.0], [-0.8, 9.0, 40.0, 3.0, -1.0, 90.0],
         [4.0, 1.0, -0.5, 60.0, 20.0, -1.0], [1.0] * 6]
    lowers = [[0.0] * 6, [0.01] * 6, [0.0] * 6, [0.3] * 6]
    uppers = [[INF] * 6, [INF] * 6, [1.0] * 6, [INF] * 6]
    sols = _both(c, A, ["<="] * 4, [0.0, 0.0, 0.0, 1.0], lowers, uppers)
    assert [s.status for s in sols] == ["optimal", "infeasible", "optimal", "infeasible"]
    assert sols[0].iterations == sols[2].iterations == 236
    assert max(sols[1].iterations, sols[3].iterations) < 228


def test_beale_lp_in_a_batch():
    lowers = [[0.0] * 4, [0.0] * 4, [0.0, 0.0, 0.5, 0.0]]
    uppers = [[INF] * 4, [1.0] * 4, [INF, INF, 0.75, INF]]
    sols = _both(BEALE_C, BEALE_A, ["<="] * 3, [0.0, 0.0, 1.0], lowers, uppers)
    assert [s.status for s in sols] == ["optimal"] * 3
    assert sols[0].objective == pytest.approx(0.05)


def test_batch_of_one_and_of_none():
    c, A, senses, b = [2.0, 1.0], [[1.0, 1.0]], ["<="], [1.5]
    sols = _both(c, A, senses, b, [[0.0, 0.0]], [[1.0, 1.0]])
    assert sols[0].objective == pytest.approx(2.5)
    assert solve_dense_batch(c, A, senses, b, np.zeros((0, 2)), np.zeros((0, 2))) == []


def test_large_batch_equals_single_bit_for_bit():
    # 256 LPs over one set of rows. The >= and = rows need artificials, so
    # phase 1 runs; x6 is unbounded above unless its upper bound is finite.
    # The bounds spread the members' finishing iterations, and about 5% of
    # the members get crossed bounds.
    c = [1.0, 2.0, 1.0, -1.0, 1.5, 0.5, 1.0]
    A = [[1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0],
         [1.0, 2.0, 0.0, 0.0, -1.0, 0.0, -1.0],
         [0.0, 1.0, -1.0, 0.0, 0.0, 1.0, 0.0],
         [0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0],
         [1.0, 0.0, 0.0, -1.0, 0.0, 0.0, 1.0]]
    senses, b = [">=", "<=", "=", "<=", ">="], [1.0, 4.0, 1.0, 5.0, -2.0]
    rng = np.random.default_rng(0)
    lowers = rng.choice([0.0, 0.0, 0.5, 1.0, 2.0], (256, 7))
    uppers = lowers + rng.choice([INF, 0.25, 0.5, 1.0, 2.0, 3.0], (256, 7))
    crossed = rng.random(256) < 0.05
    uppers[crossed, rng.integers(0, 7, crossed.sum())] = -1.0
    sols = _both(c, A, senses, b, lowers, uppers)
    statuses = [s.status for s in sols]
    assert min(statuses.count(status) for status in ("optimal", "infeasible", "unbounded")) >= 30
    assert [s.iterations == 0 for s in sols] == crossed.tolist()
    assert len({s.iterations for s in sols}) >= 8


def test_phase_one_needs_no_more_memory_than_phase_two(monkeypatch):
    # 300 LPs of 20 rows, 10 of them >= rows that need artificials, over 30
    # columns. Each LP pivots in its own slot, and the phase change copies no
    # tableau, so both phases hold the tableaux and one quarter-size buffer.
    rng = np.random.default_rng(5)
    m, n, B = 20, 30, 300
    A = rng.uniform(0.1, 1.0, (m, n))
    senses, b = ["<="] * 10 + [">="] * 10, np.repeat([20.0, 1.0], 10)
    uppers = rng.uniform(0.5, 2.0, (B, n))
    iterate, peaks = simplex._iterate_batch, {}

    def traced(tab, lps, phase):
        tracemalloc.reset_peak()
        iterate(tab, lps, phase)
        peaks[phase] = tracemalloc.get_traced_memory()[1] / tab.T.nbytes

    monkeypatch.setattr(simplex, "_iterate_batch", traced)
    tracemalloc.start()
    try:
        sols = solve_dense_batch(rng.uniform(-1.0, 1.0, n), A, senses, b, np.zeros((B, n)), uppers)
    finally:
        tracemalloc.stop()
    assert {s.status for s in sols} == {"optimal"}
    assert len({s.iterations for s in sols}) >= 8  # members finish apart, so most steps mask some out
    assert peaks[1] <= peaks[2] < 2.0


def test_one_lp_batch_pivots_in_the_scalar_loop(monkeypatch):
    # Two copies of an LP pivot in lockstep, through the batch ratio test; a
    # lone LP never reaches it, and all three give the same bits.
    lps = list(_random_lps())
    lockstep = [solve_dense_batch(c, A, senses, b, np.stack([lo, lo]), np.stack([up, up]))
                for c, A, senses, b, lo, up in lps]

    def refuse(*args):
        raise AssertionError("a one-LP batch reached the batch ratio test")

    monkeypatch.setattr(simplex, "_ratio_test", refuse)
    for (c, A, senses, b, lo, up), pair in zip(lps, lockstep):
        one = solve_dense_batch(c, A, senses, b, lo[None], up[None])
        _assert_bit_identical(one, [solve_dense(c, A, senses, b, lo, up)])
        _assert_bit_identical(pair, one * 2)


_VALUES = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.0, 0.25, 1.0, 1.5, 3.0])
_LOWERS = st.sampled_from([0.0, 0.0, 0.5, 1.0, -1.0])
_UPPERS = st.sampled_from([INF, INF, 0.0, 0.5, 1.0, 2.0, -0.5])


@st.composite
def _lp_batches(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 4))
    B = draw(st.integers(0, 6))
    values = lambda *shape: np.array(draw(st.lists(_VALUES, min_size=int(np.prod(shape)),
                                                   max_size=int(np.prod(shape))))).reshape(shape)
    senses = draw(st.lists(st.sampled_from(["<=", ">=", "="]), min_size=m, max_size=m))
    lowers = np.array(draw(st.lists(_LOWERS, min_size=B * n, max_size=B * n))).reshape(B, n)
    uppers = np.array(draw(st.lists(_UPPERS, min_size=B * n, max_size=B * n))).reshape(B, n)
    return values(n), values(m, n), senses, values(m), lowers, uppers


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lp=_lp_batches())
def test_batch_equals_single_bit_for_bit(lp):
    _both(*lp)


_OK = ([1.0, 1.0], [[1.0, 1.0]], ["<="], [1.0], [0.0, 0.0], [INF, INF])


def _with(**change):
    args = dict(zip(("c", "A", "senses", "b", "lower", "upper"), _OK))
    args.update(change)
    return tuple(args.values())


def _solve_both(c, A, senses, b, lower, upper):
    """Call both entry points; each must raise on its own."""
    with pytest.raises(ValueError) as single:
        solve_dense(c, A, senses, b, lower, upper)
    with pytest.raises(ValueError) as batch:
        solve_dense_batch(c, A, senses, b, np.atleast_2d(lower), np.atleast_2d(upper))
    return str(single.value), str(batch.value)


@pytest.mark.parametrize("change", [
    dict(c=[1.0, np.nan]), dict(A=[[1.0, np.inf]]), dict(b=[np.nan]),
], ids=["nan-c", "inf-A", "nan-b"])
def test_rejects_numbers_that_are_not_finite(change):
    assert all("finite" in msg for msg in _solve_both(*_with(**change)))


def test_rejects_a_lower_bound_that_is_not_finite():
    # The LP is bounded, yet the -inf lower bound used to return "unbounded".
    assert all("lower" in msg for msg in _solve_both(*_with(lower=[-INF, 0.0])))


def test_rejects_a_nan_upper_bound():
    assert all("NaN" in msg for msg in _solve_both(*_with(upper=[np.nan, 1.0])))


def test_rejects_an_unknown_sense():
    assert all("'<'" in msg for msg in _solve_both(*_with(senses=["<"])))
    # The message shows the sense as written, not as a NumPy scalar.
    want = "unknown sense '=<'; expected one of ('<=', '>=', '=')"
    assert _solve_both(*_with(senses=["=<"])) == (want, want)


@pytest.mark.parametrize("change", [
    dict(senses=["<=", "<="]), dict(A=[[1.0, 1.0], [1.0, 0.0]], b=[1.0, 1.0]), dict(upper=[2.0]),
], ids=["senses", "senses-short", "upper"])
def test_rejects_a_shape_mismatch(change):
    assert all("shape" in msg for msg in _solve_both(*_with(**change)))


def test_batch_rejects_bounds_of_different_shapes():
    c, A, senses, b, lower, upper = _OK
    with pytest.raises(ValueError, match="shape"):
        solve_dense_batch(c, A, senses, b, np.zeros((2, 2)), np.full((3, 2), INF))
