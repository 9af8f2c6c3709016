"""LP layer tests: golden cases, brute-force oracle sweeps, backend agreement."""

import dataclasses
import subprocess
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from rtdispatch import lp as lpmod
from rtdispatch.benders import Cut, run_benders
from rtdispatch.formulation import (
    append_rows,
    build_benders_master,
    build_benders_subproblem,
    build_lad,
    build_sced,
    first_stage_keys,
    ModelSlots,
    flow_limit_rows,
    structure_key,
)
from rtdispatch.lp import LinearProgram, LPOptions, extend_warm_start, solve_lp, verify_kkt
from rtdispatch.model import validate_case

import conftest
from helpers import (
    DATA,
    assert_solution_clean,
    child_env,
    enumerate_optimum,
    pinned_rhs,
    random_box_lp,
    replaced,
    row_entries,
    stage_vector,
)

BACKENDS = ["simplex", "highs"]


def two_var_example():
    lp = LinearProgram()
    a = lp.add_var(0.0, 20.0, cost=10.0)
    b = lp.add_var(0.0, 30.0, cost=20.0)
    lp.add_row([a, b], [1.0, 1.0], ">=", 10.0)
    return lp


def append_and_resolve(lp, sol, rows, opts=None):
    """Solve ``lp`` with ``rows`` appended, warm-started from ``sol``."""
    ext = lp.with_rows(rows)
    return solve_lp(ext, opts, warm=extend_warm_start(lp, sol, ext))


def assert_same_model(a, b):
    """``a`` and ``b`` hold the same model, bit for bit."""
    for x, y in zip((a.cost, a.lower, a.upper, *a.coo(), a.rhs),
                    (b.cost, b.lower, b.upper, *b.coo(), b.rhs)):
        assert (x.dtype, x.tobytes()) == (y.dtype, y.tobytes())
    assert (list(a.senses), repr(a.obj_const)) == (list(b.senses), repr(b.obj_const))


@pytest.mark.parametrize("backend", BACKENDS)
def test_two_var_golden(backend):
    lp = two_var_example()
    sol = solve_lp(lp, LPOptions(backend=backend))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(100.0, abs=1e-9)
    assert sol.x == pytest.approx([10.0, 0.0], abs=1e-9)
    assert sol.duals == pytest.approx([10.0], abs=1e-8)
    assert sol.reduced_costs == pytest.approx([0.0, 10.0], abs=1e-8)
    assert_solution_clean(lp, sol)


@pytest.mark.parametrize("backend", BACKENDS)
def test_two_var_append_row(backend):
    lp = two_var_example()
    opts = LPOptions(backend=backend)
    sol = solve_lp(lp, opts)
    sol2 = append_and_resolve(lp, sol, [([0], [1.0], "<=", 5.0)], opts)
    assert sol2.status == "optimal"
    assert sol2.objective == pytest.approx(150.0, abs=1e-9)
    assert sol2.x == pytest.approx([5.0, 5.0], abs=1e-9)
    # oracle agrees on the augmented model
    aug = lp.with_rows([([0], [1.0], "<=", 5.0)])
    obj, _ = enumerate_optimum(aug)
    assert obj == pytest.approx(150.0, abs=1e-9)
    assert_solution_clean(aug, sol2)


def test_append_row_keeps_warm_start_past_an_empty_row():
    # the vacuous row keeps its slack in the basis, so the warm basis counts it
    lp = two_var_example()
    lp.add_row([], [], "<=", 5.0)
    sol = solve_lp(lp)
    sol2 = append_and_resolve(lp, sol, [([0], [1.0], "<=", 5.0)])
    plain = two_var_example()
    plain_sol = append_and_resolve(plain, solve_lp(plain), [([0], [1.0], "<=", 5.0)])
    assert sol2.status == "optimal"
    assert sol2.objective == pytest.approx(150.0, abs=1e-9)
    assert sol2.iterations == plain_sol.iterations == 1
    assert_solution_clean(lp.with_rows([([0], [1.0], "<=", 5.0)]), sol2)


def _three_rows(empty=None):
    lp = LinearProgram()
    a = lp.add_var(0.0, 20.0, cost=10.0)
    b = lp.add_var(0.0, 30.0, cost=20.0)
    c = lp.add_var(0.0, 5.0, cost=-4.0)
    lp.add_row([a, b], [1.0, 1.0], ">=", 10.0)
    if empty is not None:
        lp.add_row([], [], *empty)
    lp.add_row([a, c], [1.0, -1.0], "<=", 8.0)
    lp.add_row([b, c], [1.0, 1.0], "=", 6.0)
    return lp


@pytest.mark.parametrize("empty", [("<=", 5.0), (">=", -1.0), ("=", 0.0)])
def test_empty_row_in_the_middle_changes_nothing(empty, monkeypatch):
    plain, lp = _three_rows(), _three_rows(empty)
    ref, sol = solve_lp(plain), solve_lp(lp)
    assert ref.status == sol.status == "optimal"
    assert np.array_equal(sol.x, ref.x)
    assert sol.objective == ref.objective
    assert np.array_equal(np.delete(sol.duals, 1), ref.duals)
    assert sol.duals[1] == 0.0
    assert np.any(ref.duals != 0.0)

    accepted = []
    init_basis = lpmod._Simplex._init_basis

    def recorded(self, warm):
        init_basis(self, warm)
        if warm is not None:
            accepted.append(np.array_equal(self.basis, warm[0]))

    monkeypatch.setattr(lpmod._Simplex, "_init_basis", recorded)
    cut = [([0], [1.0], "<=", 7.0)]
    ref2 = append_and_resolve(plain, ref, cut)
    sol2 = append_and_resolve(lp, sol, cut)
    assert accepted == [True, True]
    assert np.array_equal(sol2.x, ref2.x)
    assert sol2.objective == ref2.objective
    assert sol2.iterations == ref2.iterations
    assert np.array_equal(np.delete(sol2.duals, 1), ref2.duals)


def test_single_var_dual():
    lp = LinearProgram()
    x = lp.add_var(0.0, 10.0, cost=1.0)
    lp.add_row([x], [1.0], ">=", 1.0)
    sol = solve_lp(lp)
    assert sol.x == pytest.approx([1.0])
    assert sol.duals == pytest.approx([1.0])


def test_unbounded():
    lp = LinearProgram()
    lp.add_var(0.0, np.inf, cost=-1.0)
    assert solve_lp(lp).status == "unbounded"
    lp2 = LinearProgram()
    lp2.add_var(-np.inf, np.inf, cost=1.0)  # free, pushes to -inf
    assert solve_lp(lp2).status == "unbounded"


@pytest.mark.parametrize("backend", BACKENDS)
def test_infeasible(backend):
    lp = LinearProgram()
    x = lp.add_var(0.0, 10.0)
    lp.add_row([x], [1.0], ">=", 5.0)
    lp.add_row([x], [1.0], "<=", 2.0)
    assert solve_lp(lp, LPOptions(backend=backend)).status == "infeasible"


def _one_var(cost=1.0, lo=0.0, hi=10.0, row=None):
    """min cost * x over [lo, hi], with ``row`` a (sense, rhs) on x."""
    lp = LinearProgram()
    x = lp.add_var(lo, hi, cost=cost)
    if row is not None:
        lp.add_row([x], [1.0], *row)
    return lp.freeze()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("model, message", [
    (dict(row=(">=", np.nan)), "right-hand side 0 is nan"),
    (dict(row=(">=", np.inf)), "right-hand side 0 is inf"),
    (dict(row=("<=", -np.inf)), "right-hand side 0 is -inf"),
    (dict(lo=np.nan), "lower bound 0 is nan"),
    (dict(hi=np.nan), "upper bound 0 is nan"),
    (dict(cost=np.inf), "cost 0 is inf"),
    (dict(cost=np.nan), "cost 0 is nan"),
])
def test_a_number_no_solve_can_read_is_rejected(backend, model, message):
    # the simplex called each of these optimal, HiGHS most of them infeasible
    with pytest.raises(ValueError, match=f"^{message}: "):
        solve_lp(_one_var(**model), LPOptions(backend=backend))


@pytest.mark.parametrize("backend", BACKENDS)
def test_infinite_bounds_stay_legal_and_a_layout_placeholder_does_not(backend, toy):
    opts = LPOptions(backend=backend)
    sol = solve_lp(_one_var(lo=-np.inf, hi=np.inf, row=(">=", 2.0)), opts)
    assert (sol.status, sol.objective) == ("optimal", 2.0)
    # a layout's numbers are NaN until a fill writes them
    layout = build_lad(toy, conftest.toy_state(), conftest.make_toy_day())[1].layout
    with pytest.raises(ValueError, match="^cost 0 is nan: "):
        solve_lp(layout.lp, opts)


def test_empty_row_consistency():
    lp = LinearProgram()
    lp.add_var(0.0, 1.0, cost=1.0)
    lp.add_row([], [], ">=", 5.0)  # 0 >= 5 can never hold
    assert solve_lp(lp).status == "infeasible"
    lp2 = LinearProgram()
    lp2.add_var(0.0, 1.0, cost=1.0)
    lp2.add_row([], [], "<=", 5.0)  # vacuous
    sol = solve_lp(lp2)
    assert sol.status == "optimal" and sol.objective == pytest.approx(0.0)


def test_equality_and_fixed_vars():
    lp = LinearProgram()
    x = lp.add_var(3.0, 3.0, cost=-1.0)  # pinned by bounds
    y = lp.add_var(0.0, 10.0, cost=1.0)
    lp.add_row([x, y], [1.0, 1.0], ">=", 5.0)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.x == pytest.approx([3.0, 2.0])
    assert sol.objective == pytest.approx(-1.0)
    assert_solution_clean(lp, sol)


def test_free_variable():
    lp = LinearProgram()
    x = lp.add_var(-np.inf, np.inf, cost=1.0)
    lp.add_row([x], [1.0], ">=", -4.0)
    sol = solve_lp(lp)
    assert sol.x == pytest.approx([-4.0])
    assert sol.duals == pytest.approx([1.0])


def test_no_rows_box_minimum():
    lp = LinearProgram()
    lp.add_var(-2.0, 5.0, cost=3.0)
    lp.add_var(-2.0, 5.0, cost=-3.0)
    lp.add_var(-1.0, 1.0, cost=0.0)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-21.0)


def test_beale_degenerate_cycling_guard():
    # classic cycling example for Dantzig pricing; Bland fallback must finish
    lp = LinearProgram()
    x = [lp.add_var(0.0, np.inf, cost=c) for c in (-0.75, 150.0, -0.02, 6.0)]
    lp.add_row(x, [0.25, -60.0, -0.04, 9.0], "<=", 0.0)
    lp.add_row(x, [0.5, -90.0, -0.02, 3.0], "<=", 0.0)
    lp.add_row([x[2]], [1.0], "<=", 1.0)
    sol = solve_lp(lp)
    ref = solve_lp(lp, LPOptions(backend="highs"))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(ref.objective, abs=1e-9)
    assert sol.objective == pytest.approx(-0.05, abs=1e-9)


def test_iteration_limit_status():
    lp = two_var_example()
    sol = solve_lp(lp, LPOptions(max_iters=0))
    assert sol.status == "iteration_limit"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("max_iters", [-1, 2.5, True, False, "5", None, np.float64(3.0)])
def test_a_bad_iteration_limit_is_rejected(backend, max_iters):
    with pytest.raises(ValueError, match="max_iters must be an integer >= 0"):
        LPOptions(max_iters=max_iters, backend=backend)


@pytest.mark.parametrize("backend", ["", "HiGHS", "linprog", None])
def test_an_unknown_backend_is_rejected(backend):
    with pytest.raises(ValueError, match="unknown LP backend"):
        LPOptions(backend=backend)
    with pytest.raises(ValueError, match="unknown LP backend"):
        dataclasses.replace(LPOptions(), backend=backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("max_iters", [0, np.int64(0), 2**40])
def test_any_iteration_limit_from_zero_up_solves(backend, max_iters):
    # HiGHS counts iterations in 32 bits; a larger limit means no limit
    sol = solve_lp(two_var_example(), LPOptions(max_iters=max_iters, backend=backend))
    assert sol.status == ("iteration_limit" if max_iters == 0 else "optimal")


def test_determinism_bitwise():
    rng = np.random.default_rng(7)
    lp = random_box_lp(rng, n_max=6, m_max=8)
    s1 = solve_lp(lp)
    s2 = solve_lp(lp)
    assert s1.status == s2.status
    assert np.array_equal(s1.x, s2.x)
    assert np.array_equal(s1.duals, s2.duals)
    assert s1.iterations == s2.iterations


@pytest.mark.parametrize("seed", range(60))
def test_random_small_vs_vertex_oracle(seed):
    rng = np.random.default_rng(1000 + seed)
    lp = random_box_lp(rng)
    sol = solve_lp(lp)
    obj, _ = enumerate_optimum(lp)
    if obj is None:
        assert sol.status == "infeasible"
    else:
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(obj, abs=1e-7 * (1 + abs(obj)))
        assert_solution_clean(lp, sol)


def random_medium_lp(seed):
    rng = np.random.default_rng(2000 + seed)
    n = int(rng.integers(5, 31))
    m = int(rng.integers(3, 31))
    lp = LinearProgram()
    for _ in range(n):
        lo = rng.uniform(-10, 0)
        hi = lo + rng.uniform(0, 20)
        if rng.uniform() < 0.1:
            hi = np.inf
        lp.add_var(lo, hi, cost=rng.uniform(-5, 15))
    for _ in range(m):
        k = int(rng.integers(1, min(n, 6) + 1))
        cols = np.sort(rng.choice(n, size=k, replace=False))
        vals = rng.uniform(-4, 4, size=k)
        sense = ("<=", ">=", "=")[int(rng.integers(0, 3))] if rng.uniform() < 0.2 else (
            "<=" if rng.uniform() < 0.5 else ">="
        )
        lp.add_row(cols, vals, sense, rng.uniform(-8, 8))
    return lp


@pytest.mark.parametrize("seed", range(40))
def test_random_medium_vs_highs(seed):
    lp = random_medium_lp(seed)
    ours = solve_lp(lp)
    ref = solve_lp(lp, LPOptions(backend="highs"))
    assert ours.status == ref.status, (ours.status, ref.status)
    if ours.status == "optimal":
        assert ours.objective == pytest.approx(ref.objective, rel=1e-8, abs=1e-8)
        assert_solution_clean(lp, ours)
        assert_solution_clean(lp, ref)


@pytest.mark.parametrize("seed", range(25))
def test_append_rows_matches_cold_solve(seed):
    rng = np.random.default_rng(3000 + seed)
    lp = random_box_lp(rng, n_max=6, m_max=6)
    sol = solve_lp(lp)
    if sol.status != "optimal":
        return
    extra = []
    for _ in range(int(rng.integers(1, 4))):
        k = int(rng.integers(1, lp.n_vars + 1))
        cols = np.sort(rng.choice(lp.n_vars, size=k, replace=False))
        vals = rng.uniform(-3, 3, size=k)
        extra.append((cols, vals, "<=" if rng.uniform() < 0.5 else ">=", rng.uniform(-5, 5)))
    warm = append_and_resolve(lp, sol, extra)
    cold = solve_lp(lp.with_rows(extra))
    assert warm.status == cold.status
    if warm.status == "optimal":
        assert warm.objective == pytest.approx(cold.objective, rel=1e-8, abs=1e-8)
        obj, _ = enumerate_optimum(lp.with_rows(extra))
        assert obj == pytest.approx(warm.objective, abs=1e-7 * (1 + abs(obj)))


@pytest.mark.parametrize("seed", range(15))
def test_rhs_update_warm_matches_cold(seed):
    rng = np.random.default_rng(4000 + seed)
    lp = random_box_lp(rng, n_max=6, m_max=6)
    sol = solve_lp(lp)
    if sol.status != "optimal":
        return
    updates = {int(rng.integers(0, lp.n_rows)): float(rng.uniform(-6, 6))}
    lp2 = lp.with_rhs(replaced(lp.rhs, updates))
    warm = solve_lp(lp2, warm=sol.basis)
    cold = solve_lp(lp2)
    assert warm.status == cold.status
    if warm.status == "optimal":
        assert warm.objective == pytest.approx(cold.objective, rel=1e-8, abs=1e-8)


def test_kkt_detects_corruption():
    lp = two_var_example()
    sol = solve_lp(lp)
    assert verify_kkt(lp, sol, tol=1e-6).passed
    sol.duals = sol.duals + 1.0
    assert not verify_kkt(lp, sol, tol=1e-6).passed


def test_strong_duality_gap_bound():
    rng = np.random.default_rng(99)
    for _ in range(20):
        lp = random_box_lp(rng)
        sol = solve_lp(lp)
        if sol.status != "optimal":
            continue
        rep = verify_kkt(lp, sol, tol=1.0)
        assert rep.duality_gap <= 1e-6 * (1.0 + abs(sol.objective))


def test_row_validation():
    lp = LinearProgram()
    lp.add_var(0, 1)
    with pytest.raises(ValueError):
        lp.add_row([0, 0], [1.0, 2.0], "<=", 1.0)  # duplicate column
    with pytest.raises(ValueError):
        lp.add_row([3], [1.0], "<=", 1.0)  # unknown variable



# ---------------------------------------------------------------------------
# bulk construction


def test_add_rows_validation():
    lp = LinearProgram()
    assert lp.add_vars([0.0, 0.0], [1.0, 1.0], [0.0, 0.0]) == 0
    with pytest.raises(ValueError, match="differ in length"):
        lp.add_vars([0.0], [1.0, 1.0], [0.0])
    assert lp.n_vars == 2
    with pytest.raises(ValueError, match="differ in length"):
        lp.add_rows([0, 1], [1.0], [2], [lpmod.LE], [1.0])
    with pytest.raises(ValueError, match="differ in length"):
        lp.add_rows([0, 1], [1.0, 1.0], [1], [lpmod.LE], [1.0])
    with pytest.raises(ValueError, match="differ in length"):
        lp.add_rows([0], [1.0], [1], [lpmod.LE] * 2, [1.0] * 2)
    with pytest.raises(ValueError, match="does not exist"):
        lp.add_rows([0, 2], [1.0, 1.0], [1, 1], [lpmod.LE] * 2, [1.0] * 2)
    with pytest.raises(ValueError, match="duplicate"):
        lp.add_rows([1, 0, 0], [1.0] * 3, [1, 2], [lpmod.LE] * 2, [1.0] * 2)
    assert lp.n_rows == 0  # a refused block leaves nothing behind
    # one column in two different rows is fine
    assert lp.add_rows([0, 1, 0], [1.0, 2.0, 3.0], [2, 1], [lpmod.LE, lpmod.GE],
                       [4.0, 1.0]) == 0
    assert [c.tolist() for c, _ in row_entries(lp)] == [[0, 1], [0]]
    lp.freeze()
    with pytest.raises(RuntimeError, match="frozen"):
        lp.add_rows([0], [1.0], [1], [lpmod.LE], [1.0])
    with pytest.raises(RuntimeError, match="frozen"):
        lp.add_vars([0.0], [1.0], [0.0])


@pytest.mark.parametrize("seed", range(8))
def test_a_bulk_built_model_equals_its_row_by_row_twin(seed):
    one = random_medium_lp(seed).freeze()
    bulk = LinearProgram()
    bulk.add_vars(one.lower, one.upper, one.cost)
    cut = one.n_rows // 2  # two blocks: rows [0, cut) and [cut, m)
    for lo, hi in ((0, cut), (cut, one.n_rows)):
        cols, vals = zip(*row_entries(one)[lo:hi])
        bulk.add_rows(np.concatenate(cols), np.concatenate(vals), [len(c) for c in cols],
                      one.senses[lo:hi], one.rhs[lo:hi])
    bulk.freeze()
    assert_same_model(bulk, one)
    for backend in BACKENDS:
        a, b = (solve_lp(m, LPOptions(backend=backend)) for m in (bulk, one))
        assert (a.status, repr(a.objective), a.iterations) == (
            b.status, repr(b.objective), b.iterations)
        for field in ("x", "duals", "reduced_costs"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()


def test_with_rows_appends_as_add_row_would():
    lp = two_var_example().freeze()
    rows = [([0], [1.0], "<=", 5.0), ([1, 0], [2.0, 1.0], ">=", 1.0)]
    ext = lp.with_rows(rows)
    twin = two_var_example()
    for row in rows:
        twin.add_row(*row)
    assert_same_model(ext, twin)
    with pytest.raises(ValueError, match="differ in length"):
        lp.with_rows([([0, 1], [1.0], "<=", 5.0)])
    # a row spec is exactly (cols, vals, sense, rhs): a fifth field raises
    for stale in ([rows[0] + ("cap",)], [rows[0], rows[1] + ("cap",)]):
        with pytest.raises(ValueError):
            lp.with_rows(stale)
    assert_same_model(lp.with_rows([]), lp)


def test_a_number_swap_takes_only_whole_float64_arrays():
    lp = two_var_example()
    lp.add_row([0], [1.0], "<=", 4.0)
    lp.freeze()
    # a map of entries is refused like a list or an array of another
    # dtype or length
    for field in ("cost", "upper", "rhs"):
        for bad in (np.zeros(3), np.zeros(1), np.zeros(2, dtype=np.int64), [0.0, 0.0],
                    {0: 7.0}):
            with pytest.raises(ValueError, match="float64 array"):
                lp.with_numbers(**{field: bad})
    # no caller swaps lower bounds: a copy keeps its model's
    with pytest.raises(TypeError):
        lp.with_numbers(lower=np.zeros(2))
    assert lp.with_rhs(np.array([3.0, 7.0])).rhs.tolist() == [3.0, 7.0]
    cost = np.array([1.0, 2.0])
    swapped = lp.with_numbers(cost=cost, upper=np.array([20.0, 5.0]))
    cost[0] = 9.0  # the copy keeps the numbers it was given
    assert (swapped.cost.tolist(), swapped.upper.tolist()) == ([1.0, 2.0], [20.0, 5.0])
    assert swapped.lower is lp.lower and swapped.coo() is lp.coo()
    assert (lp.cost.tolist(), lp.upper.tolist()) == ([10.0, 20.0], [20.0, 30.0])


def _row_by_row(lp):
    """``lp`` built afresh a row at a time, then compiled."""
    twin = LinearProgram()
    twin.add_vars(lp.lower, lp.upper, lp.cost)
    for (cols, vals), sense, rhs in zip(row_entries(lp), lp.senses.tolist(),
                                        lp.rhs.tolist()):
        twin.add_row(cols, vals, sense, rhs)
    twin.obj_const = lp.obj_const
    return twin.freeze()


def test_appended_rows_extend_the_compiled_arrays(monkeypatch):
    # cut rows on a master and lazy flowgate rows on a look-ahead: the
    # copy's structure is its parent's arrays plus the new rows, made
    # without compiling a row list, and a row-by-row build's bytes
    vc = validate_case(conftest.make_case3())
    st = conftest.case3_state()
    scen = conftest.case3_scenarios(seed=13, horizon=3, n=2)
    n = len(first_stage_keys(vc))
    rng = np.random.default_rng(5)
    floors = [Cut(scenario=s, coef_x1=np.zeros(n), rhs_const=-1e12) for s in (0, 1)]
    master, mvm = build_benders_master(vc, st, scen, floors)
    cuts = [Cut(scenario=s, coef_x1=np.where(rng.uniform(size=n) < 0.3, rng.normal(size=n), 0.0),
                rhs_const=float(rng.normal())) for s in (1, 0, 1)]
    lazy, lvm = build_lad(vc, st, conftest.case3_scenarios(seed=13, horizon=3, n=1),
                          flows="lazy")
    flowgates = [spec for e in vc.case.branches for t in range(3)
                 for spec in flow_limit_rows(lvm, e, t, 0)]
    compile_, compiled = lpmod._compile, []
    monkeypatch.setattr(lpmod, "_compile", lambda lp: compiled.append(lp) or compile_(lp))
    for lp, vm, specs in ((master, mvm, mvm.layout.cut_rows(mvm, cuts)),
                          (lazy, lvm, flowgates)):
        ext = append_rows(lp, vm, specs)
        assert not compiled and ext.n_rows == lp.n_rows + len(specs) > lp.n_rows
        assert_same_model(ext, _row_by_row(ext))
        assert_same_model(ext.with_rows([]), ext)
        compiled.clear()


# ---------------------------------------------------------------------------
# the HiGHS backend against the scipy.optimize.linprog call it replaced


def linprog_reference(lp, opts):
    """solve_lp(backend="highs") as it was when it went through linprog."""
    n, m = lp.n_vars, lp.n_rows
    senses = np.asarray(lp.senses, dtype=np.int8)
    rhs = lp.rhs
    A = lp.matrix().tocsr()
    ub_rows = np.nonzero(senses != lpmod.EQ)[0]
    eq_rows = np.nonzero(senses == lpmod.EQ)[0]
    sign = np.where(senses[ub_rows] == lpmod.GE, -1.0, 1.0)
    res = linprog(
        lp.cost,
        A_ub=sp.diags(sign) @ A[ub_rows] if len(ub_rows) else None,
        b_ub=sign * rhs[ub_rows] if len(ub_rows) else None,
        A_eq=A[eq_rows] if len(eq_rows) else None,
        b_eq=rhs[eq_rows] if len(eq_rows) else None,
        bounds=np.column_stack([lp.lower, lp.upper]),
        method="highs",
        options={"maxiter": opts.max_iters, "dual_feasibility_tolerance": lpmod.OPT_TOL,
                 "primal_feasibility_tolerance": lpmod.FEAS_TOL},
    )
    status = {0: "optimal", 1: "iteration_limit", 2: "infeasible", 3: "unbounded"}.get(res.status)
    if status is None:
        raise lpmod.LPNumericalError(f"HiGHS backend failed: {res.message}")
    x = np.asarray(res.x) if res.x is not None else np.zeros(n)
    duals = np.zeros(m)
    rc = np.zeros(n)
    if status == "optimal":
        if len(ub_rows):
            duals[ub_rows] = sign * np.asarray(res.ineqlin.marginals)
        if len(eq_rows):
            duals[eq_rows] = np.asarray(res.eqlin.marginals)
        rc = np.asarray(res.lower.marginals) + np.asarray(res.upper.marginals)
    if status in ("optimal", "iteration_limit") and res.fun is not None:
        obj = float(res.fun + lp.obj_const)
    else:
        obj = np.inf if status == "infeasible" else -np.inf
    return lpmod.LPSolution(status=status, objective=obj, x=x, duals=duals,
                            reduced_costs=rc, iterations=int(getattr(res, "nit", 0)))


def assert_same_bytes(sol, ref):
    assert (sol.status, sol.iterations, repr(sol.objective)) == (
        ref.status, ref.iterations, repr(ref.objective)
    )
    for field in ("x", "duals", "reduced_costs"):
        a, b = getattr(sol, field), getattr(ref, field)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field
    assert sol.basis is None


def assert_highs_matches_linprog(lp, opts=None):
    opts = dataclasses.replace(opts or LPOptions(), backend="highs")
    sol = solve_lp(lp, opts)
    assert_same_bytes(sol, linprog_reference(lp, opts))
    return sol


@pytest.mark.parametrize("seed", range(40))
def test_highs_matches_linprog_on_random_lps(seed):
    assert_highs_matches_linprog(random_medium_lp(seed))


def _fixed_and_free():
    lp = LinearProgram()
    x = lp.add_var(3.0, 3.0, cost=-1.0)
    y = lp.add_var(-np.inf, np.inf, cost=1.0)
    z = lp.add_var(-np.inf, 4.0, cost=-2.0)
    lp.add_row([x, y, z], [1.0, 1.0, 0.0], ">=", 5.0)  # explicit zeros too
    lp.add_row([x, y, z], [0.0, 1.0, -1.0], "=", 1.0)
    lp.add_row([x, z], [2.0, 1.0], "<=", 12.0)
    lp.obj_const = 2.5
    return lp


def _infeasible():
    lp = LinearProgram()
    x = lp.add_var(0.0, 10.0)
    lp.add_row([x], [1.0], ">=", 5.0)
    lp.add_row([x], [1.0], "<=", 2.0)
    return lp


def _unbounded():
    lp = LinearProgram()
    x = lp.add_var(0.0, np.inf, cost=-1.0)
    y = lp.add_var(0.0, 1.0, cost=1.0)
    lp.add_row([x, y], [1.0, -1.0], ">=", 0.0)
    return lp


def _empty_row():
    lp = two_var_example()
    lp.add_row([], [], "<=", 5.0)
    return lp


def _no_rows():
    lp = LinearProgram()
    lp.add_var(-2.0, 5.0, cost=3.0)
    lp.add_var(-2.0, 5.0, cost=-3.0)
    lp.add_var(-1.0, 1.0, cost=-0.0)  # HiGHS reports its dual as -0.0
    return lp


def _free_nonbasic():
    # a free column with a cost inside the dual tolerance stays nonbasic at
    # zero (HiGHS' kZero) with a nonzero dual; it is at no bound
    lp = LinearProgram()
    a = lp.add_var(0.0, 20.0, cost=10.0)
    lp.add_var(-np.inf, np.inf, cost=-1e-9)
    g = lp.add_var(-np.inf, np.inf, cost=-1e-9)
    lp.add_row([a], [1.0], ">=", 10.0)
    lp.add_row([a, g], [1.0, 1e-3], "<=", 15.0)
    return lp


def _unloadable():
    # a coefficient past HiGHS' large_matrix_value: the model does not load,
    # which linprog reports as infeasible
    lp = LinearProgram()
    x = lp.add_var(0.0, 1.0, cost=1.0)
    lp.add_row([x], [1e20], ">=", 1.0)
    return lp


def _empty_rows():
    # rows with no entries at all: HiGHS gets a matrix of zero nonzeros
    lp = LinearProgram()
    lp.add_var(-1.0, 4.0, cost=2.0)
    lp.add_var(0.0, np.inf, cost=1.0)
    lp.add_var(0.0, 3.0, cost=-1.0)
    lp.add_var(-np.inf, np.inf, cost=0.0)
    lp.add_row([], [], "<=", 5.0)
    lp.add_row([], [], ">=", -3.0)
    lp.add_row([], [], "=", 0.0)
    return lp


def _all_equal():
    # = rows alone: no <= or >= row comes first in HiGHS' layout
    lp = LinearProgram()
    x = lp.add_var(0.0, 10.0, cost=1.0)
    y = lp.add_var(-5.0, 5.0, cost=-2.0)
    z = lp.add_var(-np.inf, np.inf, cost=0.5)
    lp.add_row([x, y], [1.0, 1.0], "=", 4.0)
    lp.add_row([x, z], [1.0, -1.0], "=", 1.0)
    return lp


@pytest.mark.parametrize("build,status", [
    (_unloadable, "infeasible"),
    (_empty_row, "optimal"),
    (_empty_rows, "optimal"),
    (_all_equal, "optimal"),
    (_no_rows, "optimal"),
    (_fixed_and_free, "optimal"),
    (_free_nonbasic, "optimal"),
    (_infeasible, "infeasible"),
    (_unbounded, "unbounded"),
])
def test_highs_matches_linprog_on_edge_cases(build, status):
    assert assert_highs_matches_linprog(build()).status == status


def test_a_highs_form_is_read_only_arrays():
    # a solve writes nothing the structure holds, so copies solved on many
    # threads share the form without a lock
    lp = _fixed_and_free().freeze()
    form = lp._view()[0].form(lpmod._HighsForm)
    held = vars(form).values()
    assert all(isinstance(a, (np.ndarray, int)) for a in held)
    for arr in (a for a in held if isinstance(a, np.ndarray)):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]
    assert [(a.dtype, a.size) for a in (form.start, form.integrality)] == [(np.int32, 3)] * 2
    assert (form.index.dtype, form.value.dtype) == (np.int32, np.float64)
    assert not form.integrality.any()


def test_highs_iteration_limit_matches_linprog():
    sol = assert_highs_matches_linprog(two_var_example(), LPOptions(max_iters=0))
    assert sol.status == "iteration_limit"
    assert sol.objective == -np.inf


def test_highs_unknown_status_raises_like_linprog():
    lp = LinearProgram()
    x = lp.add_var(0.0, 1.0, cost=1e300)
    lp.add_row([x], [1.0], ">=", 0.5)
    opts = LPOptions(backend="highs")
    with pytest.raises(lpmod.LPNumericalError, match="HiGHS backend failed"):
        linprog_reference(lp, opts)
    with pytest.raises(lpmod.LPNumericalError, match="HiGHS backend failed"):
        solve_lp(lp, opts)


def test_only_a_highs_solve_loads_scipy_optimize():
    # the HiGHS core is loaded on the first HiGHS solve, from its extension
    # file alone: the scipy.optimize package around it would add most of a
    # one-shot HiGHS run's start-up time
    code = (
        "import sys\n"
        "from rtdispatch.lp import LinearProgram, LPOptions, solve_lp\n"
        "core = 'scipy.optimize._highspy._core'\n"
        "lp = LinearProgram()\n"
        "lp.add_row([lp.add_var(0.0, 1.0, cost=1.0)], [1.0], '>=', 0.5)\n"
        "solve_lp(lp)\n"
        "print(core in sys.modules)\n"
        "solve_lp(lp, LPOptions(backend='highs'))\n"
        "print(core in sys.modules, 'scipy.optimize' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "False"]


def _highs_child(prelude):
    """stdout of a child that runs ``prelude``, solves a one-row model on
    HiGHS, then imports scipy.optimize and solves it with linprog."""
    code = (
        "import sys\n"
        "from rtdispatch import lp as lpmod\n"
        f"{prelude}\n"
        "lp = lpmod.LinearProgram()\n"
        "lp.add_row([lp.add_var(0.0, 1.0, cost=1.0)], [1.0], '>=', 0.5)\n"
        "sol = lpmod.solve_lp(lp, lpmod.LPOptions(backend='highs'))\n"
        "print(sol.status, sol.x.tolist(), 'scipy.optimize' in sys.modules)\n"
        "import scipy.optimize\n"
        "from scipy.optimize._highspy import _core\n"
        "print(_core is lpmod._hc(), _core is sys.modules['scipy.optimize._highspy._core'])\n"
        "print(scipy.optimize.linprog([1.0], A_ub=[[-1.0]], b_ub=[-0.5], bounds=[(0, 1)]).x)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_a_later_scipy_optimize_import_reuses_the_loaded_core():
    # the core is registered under its own name, so the package import
    # finds it and never loads a second copy; linprog works on it
    assert _highs_child("") == ["optimal [0.5] False", "True True", "[0.5]"]


def test_threads_racing_to_the_first_highs_solve_load_one_core():
    # Benders oracle threads may make the first HiGHS solve together
    code = (
        "import sys, threading\n"
        "from rtdispatch import lp as lpmod\n"
        "sys.setswitchinterval(1e-6)\n"
        "loads, got, load = [], [], lpmod._load_core\n"
        "lpmod._load_core = lambda: loads.append(1) or load()\n"
        "barrier = threading.Barrier(8)\n"
        "def first():\n"
        "    barrier.wait(timeout=60)\n"
        "    got.append(lpmod._hc())\n"
        "threads = [threading.Thread(target=first) for _ in range(8)]\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join(timeout=60)\n"
        "print(len(got), len({id(c) for c in got}), len(loads),\n"
        "      any(t.is_alive() for t in threads))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["8", "1", "1", "False"]


def test_the_core_is_imported_the_usual_way_where_its_file_is_absent():
    # another scipy layout: the core comes in through its package
    assert _highs_child("lpmod._core_file = lambda: None") == [
        "optimal [0.5] True", "True True", "[0.5]"]


def test_the_simplex_path_imports_no_scipy():
    # the reference simplex, its warm starts, the KKT check and default CLI
    # runs need only numpy; scipy comes in with the first HiGHS solve
    days = {
        "toy": ["--case", f"{DATA}/toy_case.json", "--actuals", f"{DATA}/toy_day.csv",
                "--scenarios", f"{DATA}/toy_scenarios.csv"],
        "network": ["--case", f"{DATA}/network_case.json", "--actuals",
                    f"{DATA}/network_day.csv", "--history", f"{DATA}/network_history.csv",
                    "--knn-k", "3", "--horizon", "4"],
    }
    runs = [[command, *args, *extra] for args in days.values() for command, extra in (
        ("simulate", ["--policy", "sced"]),
        ("compare", ["--policies", "sced,lad,slad,plad,pd"]))]
    code = (
        "import contextlib, io, sys\n"
        "from rtdispatch import cli\n"
        "from rtdispatch.lp import (LinearProgram, LPOptions, extend_warm_start, solve_lp,\n"
        "                           verify_kkt)\n"
        "lp = LinearProgram()\n"
        "x = lp.add_var(0.0, 1.0, cost=1.0)\n"
        "lp.add_row([x], [1.0], '>=', 0.5)\n"
        "lp.freeze()\n"
        "sol = solve_lp(lp)\n"
        "ext = lp.with_rows([([x], [1.0], '>=', 0.75)])\n"
        "warm = solve_lp(ext, warm=extend_warm_start(lp, sol, ext))\n"
        "assert sol.status == warm.status == 'optimal' and warm.x[0] == 0.75\n"
        "assert verify_kkt(lp, sol).passed and verify_kkt(ext, warm).passed\n"
        f"for args in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(args) == 0, args\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "solve_lp(lp, LPOptions(backend='highs'))\n"
        "print('scipy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "True"]


def _sparse_models():
    """Random models with -0.0 and 0.0 coefficients, empty rows and empty
    columns, plus one with no rows and one whose rows have no entries."""
    rng = np.random.default_rng(20)
    models = []
    for _ in range(8):
        n, m = (int(v) for v in rng.integers(1, 15, size=2))
        lp = LinearProgram()
        lp.add_vars(np.zeros(n), np.full(n, np.inf), rng.normal(size=n))
        for _ in range(m):
            cols = np.flatnonzero(rng.random(n) < 0.3)
            vals = rng.choice([-0.0, 0.0, -1.0, 2.5, 1e-3, rng.normal()], size=cols.size)
            lp.add_row(cols, vals, rng.choice(["<=", "=", ">="]), 1.0)
        models.append(lp.freeze())
    rowless = LinearProgram()
    rowless.add_vars([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [1.0, -1.0, 0.0])
    models.append(rowless.freeze())
    empty = LinearProgram()
    empty.add_vars([0.0, 0.0], [1.0, 1.0], [1.0, -1.0])
    for _ in range(3):
        empty.add_row([], [], "<=", 1.0)
    return models + [empty.freeze()]


@pytest.mark.parametrize("lp", _sparse_models())
def test_the_slack_form_and_its_products_are_scipys_bytes(lp):
    # [A I] as numpy arrays, and A x and A'y by np.bincount over them, give
    # the bytes of scipy's CSC matrix and its matvec kernels
    n, m = lp.n_vars, lp.n_rows
    rows, cols, data = lp.coo()
    slack = np.arange(m)
    ref = sp.csc_matrix(
        (np.concatenate([data, np.ones(m)]),
         (np.concatenate([rows, slack]), np.concatenate([cols, n + slack]))),
        shape=(m, n + m))
    f = lp._view()[0].form(lpmod._SlackForm)
    assert f.indptr.tolist() == ref.indptr.tolist()
    assert f.indices.tolist() == ref.indices.tolist()
    assert f.data.dtype == np.float64 and f.data.tobytes() == ref.data.tobytes()
    assert f.col.tolist() == np.repeat(np.arange(n + m), np.diff(ref.indptr)).tolist()

    rng = np.random.default_rng(n * 100 + m)
    x, y = rng.normal(size=n + m), rng.normal(size=m)
    x[rng.random(n + m) < 0.3], y[rng.random(m) < 0.3] = -0.0, -0.0
    x[rng.random(n + m) < 0.2], y[rng.random(m) < 0.2] = 0.0, 0.0
    ax = lpmod._sums(f.indices, f.data * x[f.col], m)
    aty = lpmod._sums(f.col, f.data * y[f.indices], n + m)
    assert ax.dtype == aty.dtype == np.float64
    assert ax.tobytes() == (ref @ x).tobytes()
    assert aty.tobytes() == (ref.T @ y).tobytes()
    # the simplex prices with the same product
    simplex = lpmod._Simplex(lp, LPOptions())
    y, g = simplex._duals(rng.normal(size=m))
    assert g.dtype == np.float64 and g.tobytes() == (ref.T @ y).tobytes()


@pytest.mark.parametrize("system", ["toy", "network"])
def test_highs_matches_linprog_on_dispatch_models(system, monkeypatch):
    solve = lpmod._solve_highs
    solved = []

    def compared(lp, opts):
        sol = solve(lp, opts)
        assert_same_bytes(sol, linprog_reference(lp, opts))
        solved.append(sol.status)
        return sol

    monkeypatch.setattr(lpmod, "_solve_highs", compared)
    if system == "toy":
        vc = validate_case(conftest.make_toy_case())
        state, day, scen = conftest.toy_state(), conftest.make_toy_day(), conftest.make_toy_scenarios()
    else:
        vc = validate_case(conftest.make_case3())
        state = conftest.case3_state()
        day = conftest.case3_actual_day(horizon=4)
        scen = conftest.case3_scenarios(horizon=4, n=3)
    demand = {b: v[0] for b, v in day.scenarios[0].load.items()}
    highs = LPOptions(backend="highs")
    solve_lp(build_sced(vc, state, demand)[0], highs)
    solve_lp(build_lad(vc, state, day)[0], highs)
    res = run_benders(vc, state, scen, lp=highs)
    assert res.status == "optimal"
    assert len(solved) > 2 + res.iterations and set(solved) == {"optimal"}


# ---------------------------------------------------------------------------
# the compiled structure


@pytest.mark.parametrize("backend", BACKENDS)
def test_an_unfrozen_model_solves_as_extended(backend):
    opts = LPOptions(backend=backend)
    lp = two_var_example()
    assert solve_lp(lp, opts).objective == pytest.approx(100.0, abs=1e-9)
    lp.add_row([0], [1.0], "<=", 5.0)
    lp.add_var(0.0, 1.0, cost=-1.0)
    sol = solve_lp(lp, opts)
    assert sol.objective == pytest.approx(149.0, abs=1e-9)
    assert sol.x == pytest.approx([5.0, 5.0, 1.0], abs=1e-9)
    assert len(sol.duals) == 2 and lp.matrix().shape == (2, 3)
    assert_solution_clean(lp, sol)


def test_compiled_arrays_are_read_only():
    lp = two_var_example().freeze()
    copy = lp.with_rhs(replaced(lp.rhs, {0: 12.0}))
    for arr in (lp.cost, lp.lower, lp.upper, *lp.coo(), lp.matrix().data,
                copy.cost, *copy.coo()):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    with pytest.raises(RuntimeError, match="frozen"):
        lp.add_row([0], [1.0], "<=", 5.0)
    # a copy with new rhs shares its parent's arrays; one with new rows not
    assert copy.coo() is lp.coo() and copy.cost is lp.cost
    assert lp.with_rows([([0], [1.0], "<=", 5.0)]).coo() is not lp.coo()


def test_concurrent_highs_solves_of_one_structure_match_serial():
    # threads (more than this box's cores) solve copies of one Benders
    # subproblem layout, filled for two scenarios, each with its own pins
    # and costs; every solve reads the same HiGHS layout, and with a tiny
    # switch interval they interleave between every few bytecodes
    vc = validate_case(conftest.make_case3())
    scen = conftest.case3_scenarios(seed=59, horizon=3, n=2)
    slots = ModelSlots()
    filled = [slots.model("subproblem", structure_key(vc, "full", 0, 3, start=1),
                          lambda: build_benders_subproblem(vc, scen, s),
                          lambda layout: layout.subproblem(scen, s, None, 0)) for s in (0, 1)]
    assert filled[0][0].coo() is filled[1][0].coo()
    assert filled[0][0].rhs.tobytes() != filled[1][0].rhs.tobytes()
    rng = np.random.default_rng(11)
    copies = []
    for k in range(6):
        lp, vm = filled[k % 2]
        x1 = {("pg", g.id): float(rng.uniform(g.pmin, g.pmax)) for g in vc.case.generators}
        copies.append(lp.with_numbers(cost=lp.cost * (1.0 + 0.1 * k),
                                      rhs=pinned_rhs(lp, vm, stage_vector(vc, x1))))
    opts = LPOptions(backend="highs")
    serial = [solve_lp(c, opts) for c in copies]
    assert {s.status for s in serial} == {"optimal"}
    orders = [list(range(6)) * 20, list(range(6))[::-1] * 20, [1, 4, 0, 3, 5, 2] * 20]
    barrier = threading.Barrier(len(orders), timeout=60)
    got = [None] * len(orders)

    def work(k):
        barrier.wait()
        got[k] = [solve_lp(copies[i], opts) for i in orders[k]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(orders))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for order, sols in zip(orders, got, strict=True):
        for i, sol in zip(order, sols, strict=True):
            assert_same_bytes(sol, serial[i])


# ---------------------------------------------------------------------------
# one kept HiGHS instance per thread


def _fresh_highs_solve(lp, opts):
    """solve_lp on a HiGHS instance made for this solve alone: a new thread
    starts without a kept instance."""
    out = []
    t = threading.Thread(target=lambda: out.append(solve_lp(lp, opts)))
    t.start()
    t.join(timeout=60)
    assert not t.is_alive()
    return out[0]


def test_copies_of_one_structure_solve_as_fresh_instances():
    # copies of one structure: a new rhs, a new upper bound, and the first
    # model again; each solve gives a fresh instance's bytes
    lp = two_var_example().freeze()
    highs = LPOptions(backend="highs")
    copies = [lp, lp.with_rhs(replaced(lp.rhs, {0: 12.0})),
              lp.with_numbers(upper=replaced(lp.upper, {1: 25.0})), lp]
    for c in copies:
        assert_same_bytes(solve_lp(c, highs), _fresh_highs_solve(c, highs))


def _kept_instance_sequence():
    """(model, options) pairs that take one instance through every outcome:
    optimal, infeasible, unbounded, an iteration limit, optimal again, then
    another structure and a model that does not load."""
    highs = LPOptions(backend="highs")
    return [
        (two_var_example().freeze(), highs),
        (_infeasible(), highs),
        (_unbounded(), highs),
        (two_var_example(), LPOptions(max_iters=0, backend="highs")),
        (two_var_example().freeze().with_rhs(np.array([12.0])), highs),
        (_fixed_and_free(), highs),
        (_unloadable(), highs),
        (_no_rows(), highs),
        (build_lad(validate_case(conftest.make_toy_case()), conftest.toy_state(),
                   conftest.make_toy_day())[0], highs),
    ]


def test_a_kept_highs_instance_solves_as_a_fresh_one():
    steps = _kept_instance_sequence()
    want = [_fresh_highs_solve(lp, opts) for lp, opts in steps]
    got = [solve_lp(lp, opts) for lp, opts in steps]
    kept = lpmod._kept.highs
    got += [solve_lp(lp, opts) for lp, opts in steps]
    assert lpmod._kept.highs is kept  # one instance took every solve
    assert [s.status for s in want] == ["optimal", "infeasible", "unbounded",
                                        "iteration_limit", "optimal", "optimal",
                                        "infeasible", "optimal", "optimal"]
    for sol, ref in zip(got, want * 2, strict=True):
        assert_same_bytes(sol, ref)


def test_kept_highs_instances_on_two_threads_solve_as_fresh_ones():
    from concurrent.futures import ThreadPoolExecutor

    steps = _kept_instance_sequence()
    want = [_fresh_highs_solve(lp, opts) for lp, opts in steps]
    orders = [list(range(len(steps))) * 3, list(range(len(steps)))[::-1] * 3]
    with ThreadPoolExecutor(2) as pool:
        got = list(pool.map(lambda order: [solve_lp(*steps[i]) for i in order], orders))
    for order, sols in zip(orders, got, strict=True):
        for i, sol in zip(order, sols, strict=True):
            assert_same_bytes(sol, want[i])


@pytest.mark.parametrize("flows", ["full", "lazy"])
@pytest.mark.parametrize("day", ["toy", "network"])
def test_highs_reduced_costs_match_a_basis_status_read(day, flows, monkeypatch):
    # the backend reads which columns are basic; a status enum per column
    # (kLower or kUpper: at a bound) must give the same reduced costs
    from helpers import bundled_day

    solve = lpmod._solve_highs
    checked = []

    def compared(lp, opts):
        sol = solve(lp, opts)
        if sol.status == "optimal":
            highs = lpmod._kept.highs
            status = highs.getBasis().col_status
            hbs = lpmod._hc().HighsBasisStatus
            at_bound = np.array([v in (hbs.kLower, hbs.kUpper) for v in status])
            rc = np.where(at_bound, np.array(highs.getSolution().col_dual), 0.0) + 0.0
            assert rc.tobytes() == sol.reduced_costs.tobytes()
            checked.append(lp.n_vars)
        return sol

    monkeypatch.setattr(lpmod, "_solve_highs", compared)
    b = bundled_day(day)
    res = run_benders(b.vc, b.state, b.scenarios, lp=LPOptions(backend="highs"),
                      flows=flows)
    assert res.status == "optimal"
    assert len(checked) > res.iterations
