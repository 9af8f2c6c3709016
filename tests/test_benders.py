"""Decomposition tests: convergence, bounds, cut validity, determinism."""

import dataclasses

import numpy as np
import pytest

from rtdispatch.benders import (
    BendersConfig,
    Cut,
    CutPool,
    _ScenarioOracle,
    flow_violations,
    in_out_candidate,
    run_benders,
    solve_with_lazy_flows,
)
from rtdispatch.formulation import (
    build_benders_master,
    build_benders_subproblem,
    build_slad_extensive,
    first_stage_keys,
    pin_rhs_updates,
)
from rtdispatch import lp as lpmod
from rtdispatch.lp import LPNumericalError, LPOptions, solve_lp
from rtdispatch.model import ValidationError, initial_state

from conftest import case3_scenarios, case3_state, make_case3, toy_state


def _extensive_objective(vc, state, scen, backend="simplex"):
    lp, _vm = build_slad_extensive(vc, state, scen)
    sol = solve_lp(lp, LPOptions(backend=backend))
    assert sol.status == "optimal"
    return sol.objective


# ---------------------------------------------------------------------------
# the two-generator system, step by step


def test_toy_converges_in_three_iterations(toy, toy_scenarios):
    res = run_benders(toy, toy_state(), toy_scenarios, BendersConfig())
    assert res.status == "optimal"
    assert res.objective == pytest.approx(630.0, abs=1e-5)
    assert res.lower == pytest.approx(630.0, abs=1e-5)
    assert res.iterations == 3
    assert res.x1[("pg", "G1")] == pytest.approx(3.0, abs=1e-6)
    assert res.x1[("pg", "G2")] == pytest.approx(7.0, abs=1e-6)
    assert res.scenario_values["lo"] == pytest.approx(380.0, abs=1e-6)
    assert res.scenario_values["hi"] == pytest.approx(540.0, abs=1e-6)

    tr = res.trace
    assert [r.cuts_added for r in tr] == [2, 1, 0]
    assert tr[0].upper == pytest.approx(3990.0, abs=1e-6)
    assert tr[1].lower == pytest.approx(-810.0, abs=1e-6)
    assert tr[1].upper == pytest.approx(660.0, abs=1e-6)
    assert tr[2].lower == pytest.approx(630.0, abs=1e-6)
    assert tr[2].gap <= 1e-9

    # the discovered pool: two floors plus the three real cuts
    real = [c for c in res.cuts if c.origin[1] != "floor"]
    assert len(real) == 3
    assert real[0].scenario == 0 and real[0].rhs_const == pytest.approx(380.0, abs=1e-6)
    assert real[1].scenario == 1 and real[1].rhs_const == pytest.approx(7400.0, abs=1e-6)
    assert real[1].coef_x1[("pg", "G2")] == pytest.approx(-980.0, abs=1e-6)
    assert real[2].scenario == 1 and real[2].rhs_const == pytest.approx(540.0, abs=1e-6)


def test_matches_extensive_on_toy(toy, toy_scenarios):
    res = run_benders(toy, toy_state(), toy_scenarios)
    ext = _extensive_objective(toy, toy_state(), toy_scenarios)
    assert res.objective == pytest.approx(ext, rel=1e-6)


# ---------------------------------------------------------------------------
# bound behavior on the richer system


def test_bounds_are_monotone_and_bracket(case3):
    scen = case3_scenarios(seed=41, horizon=3, n=3)
    res = run_benders(case3, case3_state(), scen, BendersConfig(max_iter=60))
    assert res.status == "optimal"
    tr = res.trace
    for a, b in zip(tr, tr[1:]):
        scale = max(1.0, abs(b.lower))
        assert b.lower >= a.lower - 1e-6 * scale      # cuts only accumulate
        assert b.upper <= a.upper + 1e-6 * scale      # incumbent only improves
    for r in tr:
        assert r.lower <= r.upper + 1e-6 * max(1.0, abs(r.upper))
    assert tr[-1].gap <= 1e-5


def test_matches_extensive_on_case3(case3):
    for seed, horizon, n in ((43, 3, 3), (47, 4, 2)):
        scen = case3_scenarios(seed=seed, horizon=horizon, n=n)
        res = run_benders(case3, case3_state(), scen)
        ext = _extensive_objective(case3, case3_state(), scen)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(ext, rel=1e-5), (seed, horizon, n)


def test_alpha_settings_agree(toy, toy_scenarios):
    values = {}
    for alpha in (0.0, 0.25, 0.9):
        res = run_benders(
            toy, toy_state(), toy_scenarios, BendersConfig(alpha=alpha)
        )
        assert res.status == "optimal"
        values[alpha] = res.objective
    for v in values.values():
        assert v == pytest.approx(630.0, abs=1e-5)


def test_worker_count_does_not_change_the_run(case3):
    scen = case3_scenarios(seed=53, horizon=3, n=4)
    runs = [
        run_benders(case3, case3_state(), scen, BendersConfig(workers=w))
        for w in (1, 4)
    ]
    a, b = runs
    assert a.objective == b.objective  # bit-identical
    assert a.iterations == b.iterations
    assert a.x1 == b.x1
    for ra, rb in zip(a.trace, b.trace):
        assert (ra.lower, ra.upper, ra.gap, ra.cuts_added) == (
            rb.lower, rb.upper, rb.gap, rb.cuts_added
        )
    assert [c._signature() for c in a.cuts] == [c._signature() for c in b.cuts]


# ---------------------------------------------------------------------------
# cut validity: every pooled cut underestimates its scenario's future cost


def test_cuts_underestimate_future_cost(case3):
    scen = case3_scenarios(seed=59, horizon=3, n=3)
    res = run_benders(case3, case3_state(), scen)
    case = case3.case
    rng = np.random.default_rng(59)
    subs = {}
    for s in range(scen.n_scenarios):
        subs[s] = build_benders_subproblem(case3, scen, s, x1=None)
    for _ in range(20):
        x = {}
        for g in case.generators:
            pmax0 = scen.scenarios[0].pmax_override.get(g.id, (g.pmax,))[0]
            x[("pg", g.id)] = float(rng.uniform(g.pmin, pmax0))
            for kind in ("reg", "spin", "supp_on", "supp_off"):
                x[(kind, g.id)] = float(rng.uniform(0.0, g.cap(kind)))
        for s in range(scen.n_scenarios):
            lp, vm = subs[s]
            sol = solve_lp(lp.with_rhs(pin_rhs_updates(vm, x)))
            assert sol.status == "optimal"
            for cut in res.cuts:
                if cut.scenario == s:
                    assert cut.value_at(x) <= sol.objective + 1e-6 * max(
                        1.0, abs(sol.objective)
                    )


# ---------------------------------------------------------------------------
# termination and guardrails


def test_iteration_limit_reports_honestly(toy, toy_scenarios):
    res = run_benders(toy, toy_state(), toy_scenarios, BendersConfig(max_iter=1))
    assert res.status == "iteration_limit"
    assert res.iterations == 1
    # the reported objective is still a true cost of a feasible first stage
    assert res.objective == pytest.approx(3990.0, abs=1e-6)
    assert res.x1[("pg", "G1")] == pytest.approx(10.0, abs=1e-6)
    assert res.lower < res.objective


def test_single_period_window_is_rejected(toy, toy_day):
    with pytest.raises(ValidationError, match="two periods"):
        run_benders(toy, toy_state(), toy_day.window(0, 1))


def test_bad_alpha_is_rejected(toy, toy_scenarios):
    with pytest.raises(ValidationError, match="alpha"):
        run_benders(toy, toy_state(), toy_scenarios, BendersConfig(alpha=1.0))


def test_cut_pool_deduplicates():
    pool = CutPool()
    c1 = Cut(scenario=0, coef_x1={("pg", "G1"): -2.0}, rhs_const=10.0)
    c2 = Cut(scenario=0, coef_x1={("pg", "G1"): -2.0}, rhs_const=10.0, origin=(3, "x"))
    c3 = Cut(scenario=1, coef_x1={("pg", "G1"): -2.0}, rhs_const=10.0)
    assert pool.add(c1) is True
    assert pool.add(c2) is False  # same content, different origin
    assert pool.add(c3) is True   # same content, different scenario
    assert len(pool) == 2
    assert c1.value_at({("pg", "G1"): 4.0}) == pytest.approx(2.0)


def test_in_out_candidate_blends():
    a = {("pg", "G1"): 10.0}
    b = {("pg", "G1"): 0.0, ("pg", "G2"): 8.0}
    mid = in_out_candidate(a, b, 0.25)
    assert mid[("pg", "G1")] == pytest.approx(2.5)
    assert mid[("pg", "G2")] == pytest.approx(6.0)


def test_cut_constant_check_prices_every_non_pin_row(case3):
    scen = case3_scenarios(seed=59, horizon=3, n=2)
    x1 = run_benders(case3, case3_state(), scen).x1
    oracle = _ScenarioOracle(case3, scen, 0, 0, BendersConfig())
    _q, sigma, rhs_const = oracle.query(x1)
    lp = oracle.lp.with_rhs(pin_rhs_updates(oracle.vmap, x1))
    sol = oracle._last
    pins = set(oracle.vmap.meta["pin_rows"])
    rhs = lp.rhs_array()
    other = next(r for r in range(lp.n_rows) if r not in pins and abs(rhs[r]) > 1.0)
    pin = next(iter(pins))

    def check(row, shift):
        duals = sol.duals.copy()
        duals[row] += shift
        oracle._check_cut_constant(
            lp, dataclasses.replace(sol, duals=duals), x1, sigma, rhs_const
        )

    check(pin, 0.0)
    check(pin, 1e3)  # pin rows are priced through sigma, not the dual route
    with pytest.raises(LPNumericalError, match="disagrees"):
        check(other, 1e3)


# ---------------------------------------------------------------------------
# lazy flowgate generation


def _congested_setup(load_scale=1.3, limit_shift=-6.0):
    import conftest

    case = conftest.make_case3(limit_shift=limit_shift)
    from rtdispatch.model import validate_case

    vc = validate_case(case)
    scen = case3_scenarios(seed=61, horizon=3, n=2, load_scale=load_scale)
    return vc, scen


def test_lazy_generation_reaches_the_full_model():
    vc, scen = _congested_setup()
    st = case3_state()
    full_lp, _ = build_slad_extensive(vc, st, scen, flows="full")
    full = solve_lp(full_lp)

    lazy_lp, lazy_vm = build_slad_extensive(vc, st, scen, flows="lazy")
    n0 = lazy_lp.n_rows
    sol, final_lp = solve_with_lazy_flows(lazy_lp, lazy_vm, tol=1e-6)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(full.objective, abs=1e-8 * (1 + abs(full.objective)))
    assert final_lp.n_rows > n0  # congestion actually forced generation
    # and the fixed point certifies feasibility of every monitored limit
    assert flow_violations(lazy_vm, sol, 1e-6) == []


def test_lazy_rounds_keep_warm_start_past_an_empty_row(monkeypatch):
    # the vacuous row keeps its slack in the basis, so each round's warm basis counts it
    vc, scen = _congested_setup()
    lazy_lp, lazy_vm = build_slad_extensive(vc, case3_state(), scen, flows="lazy")
    lazy_lp = lazy_lp.with_rows([([], [], "<=", 1.0, "vacuous")])
    accepted = []
    init_basis = lpmod._Simplex._init_basis

    def recorded(self, warm):
        init_basis(self, warm)
        if warm is not None:
            accepted.append(np.array_equal(self.basis, warm[0]))

    monkeypatch.setattr(lpmod._Simplex, "_init_basis", recorded)
    sol, final_lp = solve_with_lazy_flows(lazy_lp, lazy_vm, tol=1e-6)
    assert sol.status == "optimal"
    assert final_lp.n_rows > lazy_lp.n_rows
    assert accepted and all(accepted), accepted


def test_lazy_benders_solves_each_model_once(monkeypatch):
    # every master and oracle model is solved once, then only its extensions
    from rtdispatch import benders

    vc, scen = _congested_setup()
    handed = []

    def recorded(lp, *args, **kwargs):
        handed.append(lp)
        return solve_lp(lp, *args, **kwargs)

    monkeypatch.setattr(benders, "solve_lp", recorded)
    res = run_benders(vc, case3_state(), scen, BendersConfig(flows="lazy"))
    assert res.status == "optimal"
    assert len(handed) > 1
    assert all(a is not b for a, b in zip(handed, handed[1:]))


def test_benders_with_lazy_flows_matches_full():
    vc, scen = _congested_setup()
    st = case3_state()
    res_full = run_benders(vc, st, scen, BendersConfig(flows="full"))
    res_lazy = run_benders(vc, st, scen, BendersConfig(flows="lazy"))
    assert res_full.status == res_lazy.status == "optimal"
    assert res_lazy.objective == pytest.approx(
        res_full.objective, rel=1e-6
    )
    ext = _extensive_objective(vc, st, scen)
    assert res_full.objective == pytest.approx(ext, rel=1e-5)


@pytest.mark.parametrize("flows", ["full", "lazy"])
def test_the_kept_master_is_a_fresh_build_at_every_iteration(flows, monkeypatch):
    # one master per run gains each iteration's cuts; lazy flowgate rows
    # stay out of it, so each master is built afresh row for row
    from rtdispatch import benders

    vc, scen = _congested_setup()
    st = case3_state()
    handed = []
    solve = benders._solve

    def recorded(lp, vmap, cfg, warm=None):
        if vmap.get(("theta", 0)) is not None:
            handed.append((lp, dict(vmap.rows())))
        return solve(lp, vmap, cfg, warm)

    monkeypatch.setattr(benders, "_solve", recorded)
    res = run_benders(vc, st, scen, BendersConfig(flows=flows))
    assert res.status == "optimal"
    assert len(handed) == res.iterations > 1
    for lp, rows in handed:
        n_cuts = sum(name.startswith("cut(") for name in lp.row_names)
        want, want_vm = build_benders_master(vc, st, scen, res.cuts[:n_cuts], flows=flows)
        for got, exp in zip(lp.coo() + (lp.cost, lp.lower, lp.upper),
                            want.coo() + (want.cost, want.lower, want.upper)):
            assert got.tobytes() == exp.tobytes()
        assert (lp.senses, lp.rhs, lp.row_names, lp.obj_const) == (
            want.senses, want.rhs, want.row_names, want.obj_const)
        assert rows == dict(want_vm.rows())
    assert n_cuts == len(res.cuts)


@pytest.mark.parametrize("flows", ["full", "lazy"])
def test_each_structure_compiles_once_per_run(flows, monkeypatch):
    from rtdispatch import benders

    vc, scen = _congested_setup()
    compiled, solved = [], []  # each model's row-name list: its structure

    class Counted(lpmod._Structure):
        def __init__(self, lp):
            super().__init__(lp)
            compiled.append(lp.row_names)

    def recorded(lp, *args, **kwargs):
        solved.append(lp.row_names)
        return solve_lp(lp, *args, **kwargs)

    monkeypatch.setattr(lpmod, "_Structure", Counted)
    monkeypatch.setattr(benders, "solve_lp", recorded)
    cfg = BendersConfig(flows=flows, lp=LPOptions(backend="highs"))
    res = run_benders(vc, case3_state(), scen, cfg)
    assert res.status == "optimal"
    ids = [id(r) for r in compiled]
    assert len(set(ids)) == len(ids)  # no structure compiled twice
    assert set(ids) == {id(r) for r in solved}
    oracles = [r for r in compiled if any(n.startswith("pin_") for n in r)]
    if flows == "full":
        assert len(oracles) == scen.n_scenarios < res.subproblem_solves
    else:
        assert len(oracles) > scen.n_scenarios  # generated rows make new ones
