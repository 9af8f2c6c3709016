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
from rtdispatch.benders import BendersConfig, run_benders
from rtdispatch.formulation import (
    build_benders_subproblem,
    build_lad,
    build_sced,
    pin_rhs_updates,
)
from rtdispatch.lp import (
    LinearProgram,
    LPOptions,
    append_rows_and_resolve,
    solve_lp,
    verify_kkt,
    write_lp_format,
)
from rtdispatch.model import validate_case

import conftest
from helpers import assert_solution_clean, child_env, enumerate_optimum, random_box_lp

BACKENDS = ["simplex", "highs"]


def two_var_example():
    lp = LinearProgram()
    a = lp.add_var(0.0, 20.0, cost=10.0, name="a")
    b = lp.add_var(0.0, 30.0, cost=20.0, name="b")
    lp.add_row([a, b], [1.0, 1.0], ">=", 10.0, name="demand")
    return lp


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
    sol2 = append_rows_and_resolve(lp, sol, [([0], [1.0], "<=", 5.0)], opts)
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
    lp.add_row([], [], "<=", 5.0, name="vacuous")
    sol = solve_lp(lp)
    sol2 = append_rows_and_resolve(lp, sol, [([0], [1.0], "<=", 5.0)])
    plain = two_var_example()
    plain_sol = append_rows_and_resolve(
        plain, solve_lp(plain), [([0], [1.0], "<=", 5.0)]
    )
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
        lp.add_row([], [], *empty, name="empty")
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
    ref2 = append_rows_and_resolve(plain, ref, cut)
    sol2 = append_rows_and_resolve(lp, sol, cut)
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
    warm = append_rows_and_resolve(lp, sol, extra)
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
    lp2 = lp.with_rhs(updates)
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


def test_lp_format_export():
    lp = LinearProgram()
    a = lp.add_var(0.0, 20.0, cost=10.0, name="a")
    b = lp.add_var(-np.inf, np.inf, cost=-2.5, name="b")
    lp.add_row([a, b], [1.0, -1.0], ">=", 10.0, name="bal")
    lp.obj_const = 4.0
    text = write_lp_format(lp)
    assert text == (
        "Minimize\n"
        " obj: 10 a - 2.5 b + 4\n"
        "Subject To\n"
        " bal: 1 a - 1 b >= 10\n"
        "Bounds\n"
        " 0 <= a <= 20\n"
        " b free\n"
        "End\n"
    )


def test_row_validation():
    lp = LinearProgram()
    lp.add_var(0, 1)
    with pytest.raises(ValueError):
        lp.add_row([0, 0], [1.0, 2.0], "<=", 1.0)  # duplicate column
    with pytest.raises(ValueError):
        lp.add_row([3], [1.0], "<=", 1.0)  # unknown variable


# ---------------------------------------------------------------------------
# the HiGHS backend against the scipy.optimize.linprog call it replaced


def linprog_reference(lp, opts):
    """solve_lp(backend="highs") as it was when it went through linprog."""
    n, m = lp.n_vars, lp.n_rows
    senses = np.asarray(lp.senses, dtype=np.int8)
    rhs = lp.rhs_array()
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
    lp.add_row([], [], "<=", 5.0, name="vacuous")
    return lp


def _no_rows():
    lp = LinearProgram()
    lp.add_var(-2.0, 5.0, cost=3.0)
    lp.add_var(-2.0, 5.0, cost=-3.0)
    lp.add_var(-1.0, 1.0, cost=-0.0)  # HiGHS reports its dual as -0.0
    return lp


def _unloadable():
    # a coefficient past HiGHS' large_matrix_value: the model does not load,
    # which linprog reports as infeasible
    lp = LinearProgram()
    x = lp.add_var(0.0, 1.0, cost=1.0)
    lp.add_row([x], [1e20], ">=", 1.0)
    return lp


@pytest.mark.parametrize("build,status", [
    (_unloadable, "infeasible"),
    (_empty_row, "optimal"),
    (_no_rows, "optimal"),
    (_fixed_and_free, "optimal"),
    (_infeasible, "infeasible"),
    (_unbounded, "unbounded"),
])
def test_highs_matches_linprog_on_edge_cases(build, status):
    assert assert_highs_matches_linprog(build()).status == status


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
    # the HiGHS core is imported on the first HiGHS solve; importing it loads
    # scipy.optimize, which would add to a simplex-only run's start-up time
    code = (
        "import sys\n"
        "from rtdispatch.lp import LinearProgram, LPOptions, solve_lp\n"
        "lp = LinearProgram()\n"
        "lp.add_row([lp.add_var(0.0, 1.0, cost=1.0)], [1.0], '>=', 0.5)\n"
        "solve_lp(lp)\n"
        "print('scipy.optimize' in sys.modules)\n"
        "solve_lp(lp, LPOptions(backend='highs'))\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


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
    res = run_benders(vc, state, scen, BendersConfig(lp=highs))
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
    copy = lp.with_rhs({0: 12.0})
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
    # threads (more than this box's cores) solve pin copies of one Benders
    # subproblem, each loading the same kept HiGHS model; with a tiny switch
    # interval they interleave between every few bytecodes
    vc = validate_case(conftest.make_case3())
    lp, vm = build_benders_subproblem(vc, conftest.case3_scenarios(seed=59, horizon=3, n=2), 0)
    rng = np.random.default_rng(11)
    copies = []
    for _ in range(6):
        x1 = {("pg", g.id): float(rng.uniform(g.pmin, g.pmax)) for g in vc.case.generators}
        copies.append(lp.with_rhs(pin_rhs_updates(vm, x1)))
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
