"""Model-builder tests: golden objectives, reductions, registry audits.

Expected numbers for the two-generator system are derived by hand (the
LPs are small enough to solve on paper) and cross-checked against an
independent LP solver; see the inline derivations.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from rtdispatch.formulation import (
    FIRST_STAGE_KINDS,
    VariableMap,
    build_benders_master,
    build_benders_subproblem,
    build_lad,
    build_sced,
    build_slad_extensive,
    extract_dispatch,
    first_stage_keys,
    first_stage_values,
    flow_limit_rows,
    itemize_costs,
    pin_duals,
    require_common_first_period,
)
from rtdispatch.lp import LPOptions, extend_warm_start, solve_lp, verify_kkt
from rtdispatch.model import (
    RESERVE_PRODUCTS,
    Scenario,
    ScenarioSet,
    SystemState,
    ValidationError,
    initial_state,
    parse_case,
    parse_timeseries,
    validate_case,
)

from conftest import (
    case3_scenarios,
    case3_state,
    make_case3,
    make_toy_case,
    make_toy_day,
    make_toy_scenarios,
    toy_state,
)
from helpers import (
    DATA,
    bundled_day,
    model_digest,
    pinned_rhs,
    row_entries,
    serialize_case,
    stage_dict,
    stage_vector,
)


def _solve(lp, vmap, backend="simplex"):
    sol = solve_lp(lp, LPOptions(backend=backend))
    assert sol.status == "optimal", sol.status
    rep = verify_kkt(lp, sol, tol=1e-6 * (1.0 + float(np.abs(lp.cost).max(initial=0.0))))
    assert rep.passed, rep
    return sol, extract_dispatch(sol, vmap)


def _cut(vc, s, rhs, coefs=None):
    return SimpleNamespace(scenario=s, coef_x1=stage_vector(vc, coefs or {}), rhs_const=rhs)


def _floor_cuts(vc, n, M=-1e12):
    return [_cut(vc, s, M) for s in range(n)]


# ---------------------------------------------------------------------------
# two-generator system: hand-solvable goldens


def test_single_period_golden(toy):
    # demand 10 from cold start: the cheap unit alone, 10 MW for 5 min at
    # 120 $/MWh = 100 $.
    lp, vmap = build_sced(toy, toy_state(), {"B1": 10.0})
    sol, d = _solve(lp, vmap)
    assert sol.objective == pytest.approx(100.0, abs=1e-8)
    assert d.pg_at("G1", 0) == pytest.approx(10.0, abs=1e-9)
    assert d.pg_at("G2", 0) == pytest.approx(0.0, abs=1e-9)
    assert d.shortage[(0, 0)] == 0.0
    costs = itemize_costs(d, toy)
    assert costs.total == pytest.approx(sol.objective, rel=1e-9)
    assert costs.energy == pytest.approx(100.0, rel=1e-9)
    assert costs.penalty_balance == 0.0


def test_single_period_shortage_golden(toy):
    # After a greedy first period at (10, 0), demand 35 is out of reach:
    # ramp windows allow 20 + 10, so 5 MW shed at 12000 $/MWh.
    st = SystemState(prev_dispatch={"G1": 10.0, "G2": 0.0}, wall_clock=1)
    lp, vmap = build_sced(toy, st, {"B1": 35.0})
    sol, d = _solve(lp, vmap)
    assert sol.objective == pytest.approx(5400.0, abs=1e-8)
    assert d.pg_at("G1", 0) == pytest.approx(20.0, abs=1e-9)
    assert d.pg_at("G2", 0) == pytest.approx(10.0, abs=1e-9)
    assert d.shortage[(0, 0)] == pytest.approx(5.0, abs=1e-9)
    costs = itemize_costs(d, toy)
    assert costs.penalty_balance == pytest.approx(5000.0, rel=1e-9)
    assert costs.total == pytest.approx(5400.0, rel=1e-9)


def test_look_ahead_golden(toy):
    # Point forecast (10, 33): period 2 needs the slow unit at 13, which
    # forces it to 3 now.  Period-1 cost 130, period-2 cost 460.
    fc = ScenarioSet(
        scenarios=(Scenario(id="mean", prob=1.0, load={"B1": (10.0, 33.0)}),),
        horizon=2,
    )
    lp, vmap = build_lad(toy, toy_state(), fc)
    sol, d = _solve(lp, vmap)
    assert sol.objective == pytest.approx(590.0, abs=1e-8)
    assert d.pg_at("G1", 0) == pytest.approx(7.0, abs=1e-8)
    assert d.pg_at("G2", 0) == pytest.approx(3.0, abs=1e-8)
    first = itemize_costs(d, toy, period=0)
    assert first.total == pytest.approx(130.0, rel=1e-9)
    assert itemize_costs(d, toy).total == pytest.approx(sol.objective, rel=1e-9)


def test_perfect_day_golden(toy, toy_day):
    # Full-day look-ahead on the realized day (10, 35): hedge to (5, 5),
    # then (20, 15); total 650.
    lp, vmap = build_lad(toy, toy_state(), toy_day)
    sol, d = _solve(lp, vmap)
    assert sol.objective == pytest.approx(650.0, abs=1e-8)
    assert d.pg_at("G1", 0) == pytest.approx(5.0, abs=1e-8)
    assert d.pg_at("G2", 0) == pytest.approx(5.0, abs=1e-8)
    assert all(v == 0.0 for v in d.shortage.values())


def test_extensive_golden(toy, toy_scenarios):
    # Two futures (29 | 37, equal odds).  Hedging at (3, 7) costs 170 now
    # and expects 0.5*380 + 0.5*540 later: 630 total.
    lp, vmap = build_slad_extensive(toy, toy_state(), toy_scenarios)
    sol, d = _solve(lp, vmap)
    assert sol.objective == pytest.approx(630.0, abs=1e-8)
    x1 = stage_dict(toy, first_stage_values(sol, vmap))
    assert x1[("pg", "G1")] == pytest.approx(3.0, abs=1e-8)
    assert x1[("pg", "G2")] == pytest.approx(7.0, abs=1e-8)
    # the same first stage appears in every scenario copy
    assert d.pg_at("G2", 0, 0) == pytest.approx(d.pg_at("G2", 0, 1), abs=1e-10)
    assert itemize_costs(d, toy).total == pytest.approx(630.0, rel=1e-9)


def test_extensive_beats_point_forecast_plan(toy, toy_scenarios):
    # Planning against the mean (33) and paying the scenario costs is
    # dominated by the stochastic plan; check the expected-cost gap by
    # pinning the mean plan into the extensive model.
    lp, vmap = build_slad_extensive(toy, toy_state(), toy_scenarios)
    g1 = vmap.col(("pg", "G1", 0, 0))
    g2 = vmap.col(("pg", "G2", 0, 0))
    pinned = lp.with_rows([([g1], [1.0], "=", 7.0), ([g2], [1.0], "=", 3.0)])
    sol_pinned = solve_lp(pinned)
    sol_free = solve_lp(lp)
    assert sol_pinned.status == "optimal"
    # mean plan: 130 now, lo future 0.5*420, hi future 0.5*(2400+3120+4*1000)... see
    # subproblem goldens; all that matters here is strict dominance.
    assert sol_free.objective < sol_pinned.objective - 1e-6


# ---------------------------------------------------------------------------
# reductions: the three builders agree where their scopes overlap


def test_single_scenario_reductions(case3):
    st = case3_state()
    scen = case3_scenarios(seed=7, horizon=3, n=1)
    lad_lp, lad_vm = build_lad(case3, st, scen)
    ext_lp, ext_vm = build_slad_extensive(case3, st, scen)
    s1, _ = _solve(lad_lp, lad_vm)
    s2, _ = _solve(ext_lp, ext_vm)
    assert s1.objective == pytest.approx(s2.objective, abs=1e-8 * (1 + abs(s1.objective)))

    one = scen.window(0, 1)
    sced_lp, sced_vm = build_sced(
        case3, st,
        {b: v[0] for b, v in one.scenarios[0].load.items()},
        pmax={g: v[0] for g, v in one.scenarios[0].pmax_override.items()},
    )
    lad1_lp, lad1_vm = build_lad(case3, st, one)
    s3, _ = _solve(sced_lp, sced_vm)
    s4, _ = _solve(lad1_lp, lad1_vm)
    assert s3.objective == pytest.approx(s4.objective, abs=1e-8 * (1 + abs(s3.objective)))


def test_sced_demand_is_first_period_slice(case3):
    # build_sced takes a {bus: MW} map; equal to a 1-period window of the set
    st = case3_state()
    scen = case3_scenarios(seed=9, horizon=2, n=1)
    demand = {b: scen.scenarios[0].load[b][0] for b in case3.case.buses}
    lp, vm = build_sced(case3, st, demand)
    sol, d = _solve(lp, vm)
    assert d.periods == 1 and d.scenario_ids == ("now",)
    assert itemize_costs(d, case3).total == pytest.approx(sol.objective, rel=1e-6)


def test_look_ahead_rejects_multiscenario(case3, toy_scenarios):
    with pytest.raises(ValidationError, match="single-scenario"):
        build_lad(case3, case3_state(), case3_scenarios(seed=1, horizon=3, n=2))


# ---------------------------------------------------------------------------
# registry audits: every row and column is owned by a named family


def _audit(lp, vmap):
    row_keys = dict(vmap.rows())
    assert len(row_keys) == lp.n_rows
    assert sorted(row_keys.values()) == list(range(lp.n_rows))
    col_keys = dict(vmap.columns())
    assert len(col_keys) == lp.n_vars
    assert sorted(col_keys.values()) == list(range(lp.n_vars))
    return {k[0] for k in row_keys}


def test_registry_covers_every_row_and_column():
    # G3 offers reserves up to caps its derated band often falls below
    case = make_case3()
    gens = list(case.generators)
    products = {"reg": 30.0, "spin": 25.0, "supp_on": 25.0}
    gens[2] = dataclasses.replace(gens[2], reserve_caps=products,
                                  reserve_prices=dict.fromkeys(products, 1.0))
    vc = validate_case(dataclasses.replace(case, generators=tuple(gens)))
    st = case3_state()
    scen = case3_scenarios(seed=11, horizon=4, n=3)
    lp, vm = build_slad_extensive(vc, st, scen, flows="full")
    assert {
        "dispatch_blocks", "floor_with_regulation", "ceiling_with_reserves",
        "contingency_deploy", "ramp_up", "ramp_down", "injection_def",
        "system_balance", "req_regulation", "req_reg_spin", "req_operating",
        "flow_upper", "flow_lower", "anticipativity_pg",
    } <= _audit(lp, vm)
    # single-column limits are bounds: segment widths, reserve caps, the
    # capability band and five-minute regulation deployability
    by_id = {g.id: g for g in vc.case.generators}
    checked = set()
    for key, c in vm.columns():
        kind, (t, s) = key[0], key[-2:]
        if kind not in ("seg", *RESERVE_PRODUCTS):
            continue
        g = by_id[key[1]]
        if kind == "seg":
            want = g.segments[key[2]][0]
        else:
            pmax = scen.scenarios[s].pmax_override.get(g.id, [g.pmax] * scen.horizon)[t]
            cap, band = g.cap(kind), pmax - g.pmin
            want = {"reg": min(cap, 5.0 * g.ramp_up, 0.5 * band), "spin": min(cap, band),
                    "supp_on": min(cap, band), "supp_off": cap}[kind]
        assert lp.upper[c] == want, key
        checked.add(kind)
    assert checked >= {"seg", "reg", "spin", "supp_on"}


def test_registry_in_lazy_mode_defers_flow_rows(case3):
    st = case3_state()
    scen = case3_scenarios(seed=11, horizon=2, n=2)
    full_lp, full_vm = build_slad_extensive(case3, st, scen, flows="full")
    lazy_lp, lazy_vm = build_slad_extensive(case3, st, scen, flows="lazy")
    fams_full = _audit(full_lp, full_vm)
    fams_lazy = _audit(lazy_lp, lazy_vm)
    assert "flow_upper" in fams_full and "flow_upper" not in fams_lazy
    n_cells = 2 * 2  # periods x scenarios
    assert full_lp.n_rows - lazy_lp.n_rows == 2 * len(case3.case.branches) * n_cells
    # flow-excess columns exist either way (they carry the violation price)
    assert lazy_vm.get(("flow_excess", "E1", 1, 1)) is not None


def test_lazy_flow_rows_are_the_full_models_rows(case3):
    # the rows lazy generation appends are, entry for entry, the rows a
    # full-flow build lays out in each cell
    st = case3_state()
    scen = case3_scenarios(seed=13, horizon=3, n=2)
    full_lp, full_vm = build_slad_extensive(case3, st, scen, flows="full")
    _, lazy_vm = build_slad_extensive(case3, st, scen, flows="lazy")
    entries = row_entries(full_lp)
    checked = 0
    for e in case3.case.branches:
        for s in range(scen.n_scenarios):
            for t in range(scen.horizon):
                for key, c, v, sense, rhs in flow_limit_rows(lazy_vm, e, t, s):
                    r = full_vm.row(key)
                    cols, vals = entries[r]
                    assert (cols.tolist(), vals.tolist(), full_lp.senses[r],
                            full_lp.rhs[r]) == (c, v, sense, rhs)
                    checked += 1
    assert checked == 2 * len(case3.case.branches) * scen.n_scenarios * scen.horizon


def test_appending_flow_rows_reproduces_full_model(case3):
    st = case3_state()
    scen = case3_scenarios(seed=13, horizon=2, n=2, load_scale=1.35)
    full_lp, full_vm = build_slad_extensive(case3, st, scen, flows="full")
    lazy_lp, lazy_vm = build_slad_extensive(case3, st, scen, flows="lazy")
    sol_full = solve_lp(full_lp)
    sol_lazy = solve_lp(lazy_lp)
    assert sol_lazy.objective <= sol_full.objective + 1e-7  # relaxation
    specs = []
    for e in case3.case.branches:
        for s in range(scen.n_scenarios):
            for t in range(scen.horizon):
                specs.extend(flow_limit_rows(lazy_vm, e, t, s))
    ext = lazy_lp.with_rows([spec[1:] for spec in specs])
    sol_ext = solve_lp(ext, warm=extend_warm_start(lazy_lp, sol_lazy, ext))
    assert sol_ext.status == "optimal"
    assert sol_ext.objective == pytest.approx(
        sol_full.objective, abs=1e-7 * (1 + abs(sol_full.objective))
    )


def test_commitment_flags_shape_the_model(case3):
    # decommit G2 for the whole window: no bid columns, no rows, pg fixed 0
    case = make_case3()
    gens = list(case.generators)
    gens[1] = dataclasses.replace(
        gens[1], commit=(False,), reserve_caps={**gens[1].reserve_caps, "supp_off": 12.0},
        reserve_prices={**gens[1].reserve_prices, "supp_off": 0.8},
    )
    vc = validate_case(dataclasses.replace(case, generators=tuple(gens)))
    st = case3_state()
    scen = case3_scenarios(seed=17, horizon=2, n=1)
    lp, vm = build_lad(vc, st, scen)
    _audit(lp, vm)
    assert vm.get(("seg", "G2", 0, 0, 0)) is None
    assert vm.get(("spin", "G2", 0, 0)) is None
    off = vm.get(("supp_off", "G2", 0, 0))
    assert off is not None and lp.upper[off] == 12.0
    pgcol = vm.col(("pg", "G2", 0, 0))
    assert lp.lower[pgcol] == 0.0 and lp.upper[pgcol] == 0.0
    # no ramp rows for a unit that is off on both sides of the step
    assert vm._row.get(("ramp_up", "G2", 1, 0)) is None
    sol, d = _solve(lp, vm)
    assert d.pg_at("G2", 0) == 0.0
    # the off-line reserve still counts toward the operating tier
    assert ("supp_off", "G2", 0, 0) in d.reserve


def test_regulation_deployability_bounds_the_award():
    # slow the unit down until 5x ramp-rate, not the cap, binds the award
    case = make_case3()
    gens = list(case.generators)
    gens[0] = dataclasses.replace(gens[0], ramp_up=1.0)
    vc = validate_case(dataclasses.replace(case, generators=tuple(gens)))
    scen = case3_scenarios(seed=19, horizon=1, n=1)
    lp, vm = build_lad(vc, case3_state(), scen)
    reg = vm.col(("reg", "G1", 0, 0))
    assert lp.upper[reg] == pytest.approx(5.0)  # min(cap 6, band 25, 5*ramp 5)


def test_contingency_deployability_binds(case3):
    # ask for more operating reserve than the 10-minute windows allow and
    # check the award saturates at 10x ramp-rate per unit
    case = make_case3()
    gens = list(case.generators)
    gens[1] = dataclasses.replace(gens[1], ramp_up=2.0)  # spin+supp_on <= 20 < 25
    vc = validate_case(dataclasses.replace(case, generators=tuple(gens)))
    scen = case3_scenarios(seed=23, horizon=1, n=1)
    lp, vm = build_lad(vc, case3_state(), scen)
    row = vm.row(("contingency_deploy", "G2", 0, 0))
    assert lp.rhs[row] == pytest.approx(20.0)
    sol, d = _solve(lp, vm)
    award = sum(d.reserve.get((p, "G2", 0, 0), 0.0) for p in ("spin", "supp_on"))
    assert award <= 20.0 + 1e-8


# ---------------------------------------------------------------------------
# decomposition pieces


def test_subproblem_goldens(toy, toy_scenarios):
    at_hedge = stage_vector(toy, {("pg", "G1"): 3.0, ("pg", "G2"): 7.0})
    # low scenario at the hedge point: demand 29 from (3,7); windows 23/17
    # leave the 20 MW cap and the 17 MW window slack: future cost 380, no
    # sensitivity to the first stage.
    lp, vm = build_benders_subproblem(toy, toy_scenarios, 0, x1=at_hedge)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(380.0, abs=1e-8)
    sig = stage_dict(toy, pin_duals(vm, sol))
    assert sig[("pg", "G1")] == pytest.approx(0.0, abs=1e-8)
    assert sig[("pg", "G2")] == pytest.approx(0.0, abs=1e-8)
    assert all(abs(v) < 1e-8 for (k, _g), v in sig.items() if k != "pg")

    # high scenario at the hedge point: 37 = 20 + 17 exactly; cost 540.
    # The vertex is degenerate: any subgradient in [-980, 0] is valid.
    lp, vm = build_benders_subproblem(toy, toy_scenarios, 1, x1=at_hedge)
    sol = solve_lp(lp)
    assert sol.objective == pytest.approx(540.0, abs=1e-8)
    sig = stage_dict(toy, pin_duals(vm, sol))
    assert -980.0 - 1e-6 <= sig[("pg", "G2")] <= 1e-6

    # high scenario at the greedy point (10, 0): 5 + 2 MW short after both
    # windows max out; cost 7400, and one more MW of G2 now is worth 980.
    greedy = stage_vector(toy, {("pg", "G1"): 10.0, ("pg", "G2"): 0.0})
    lp, vm = build_benders_subproblem(toy, toy_scenarios, 1, x1=greedy)
    sol = solve_lp(lp)
    assert sol.objective == pytest.approx(7400.0, abs=1e-8)
    sig = stage_dict(toy, pin_duals(vm, sol))
    assert sig[("pg", "G2")] == pytest.approx(-980.0, abs=1e-6)
    assert sig[("pg", "G1")] == pytest.approx(0.0, abs=1e-8)


def test_subproblem_cut_is_a_valid_underestimate(toy, toy_scenarios):
    # theta >= Q(xbar) + sigma'(x - xbar) must hold with Q convex; probe the
    # high scenario's cut from (10, 0) across the reachable first stages.
    greedy = stage_vector(toy, {("pg", "G1"): 10.0, ("pg", "G2"): 0.0})
    lp, vm = build_benders_subproblem(toy, toy_scenarios, 1, x1=greedy)
    sol = solve_lp(lp)
    q0, sig = sol.objective, pin_duals(vm, sol)
    for g2 in (0.0, 3.0, 5.0, 7.0, 10.0):
        probe = stage_vector(toy, {("pg", "G1"): 10.0 - g2, ("pg", "G2"): g2})
        lp2 = lp.with_rhs(pinned_rhs(lp, vm, probe))
        s2 = solve_lp(lp2, warm=sol.basis)
        predicted = q0 + float(sig @ (probe - greedy))
        assert s2.objective >= predicted - 1e-6


def test_subproblem_repin_matches_fresh_build(toy, toy_scenarios):
    lp0, vm = build_benders_subproblem(toy, toy_scenarios, 1)  # pins at zero
    sol0 = solve_lp(lp0)
    hedge = stage_vector(toy, {("pg", "G1"): 3.0, ("pg", "G2"): 7.0})
    lp1 = lp0.with_rhs(pinned_rhs(lp0, vm, hedge))
    warm = solve_lp(lp1, warm=sol0.basis)
    cold_lp, _ = build_benders_subproblem(toy, toy_scenarios, 1, x1=hedge)
    cold = solve_lp(cold_lp)
    assert warm.status == cold.status == "optimal"
    assert warm.objective == pytest.approx(cold.objective, abs=1e-8)
    assert warm.objective == pytest.approx(540.0, abs=1e-8)


def test_subproblem_requires_a_future(toy):
    with pytest.raises(ValidationError, match="at least two periods"):
        build_benders_subproblem(toy, make_toy_day().window(0, 1), 0)
    with pytest.raises(ValueError, match=r"first-stage vector of shape \(3,\), expected \(10,\)"):
        build_benders_subproblem(toy, make_toy_day(), 0, x1=np.zeros(3))


def test_a_model_needs_every_previous_dispatch(toy):
    state = SystemState(prev_dispatch={"G1": 0.0})
    with pytest.raises(ValidationError, match="no previous dispatch for generator 'G2'"):
        build_sced(toy, state, {"B1": 10.0})


def test_only_an_optimal_solution_is_extracted(toy):
    lp, vm = build_sced(toy, toy_state(), {"B1": 10.0})
    sol = solve_lp(lp, LPOptions(max_iters=0))
    assert sol.status == "iteration_limit"
    with pytest.raises(RuntimeError, match="cannot extract dispatch from a 'iteration_limit'"):
        extract_dispatch(sol, vm)


def test_extensive_equals_master_cost_plus_expected_recourse(case3):
    # decomposition algebra on the richer system: fix the extensive
    # optimum's first stage, re-solve each scenario future, reassemble.
    st = case3_state()
    scen = case3_scenarios(seed=29, horizon=3, n=3)
    lp, vm = build_slad_extensive(case3, st, scen)
    sol, d = _solve(lp, vm, backend="highs")
    x1 = first_stage_values(sol, vm)
    now = itemize_costs(d, case3, period=0).total
    future = 0.0
    for s, sc in enumerate(scen.scenarios):
        sub_lp, sub_vm = build_benders_subproblem(case3, scen, s, x1=x1)
        sub = solve_lp(sub_lp, LPOptions(backend="highs"))
        assert sub.status == "optimal"
        future += sc.prob * sub.objective
    assert now + future == pytest.approx(sol.objective, rel=1e-6)


def test_master_with_floor_cuts_is_myopic(toy, toy_scenarios):
    M = -1e9
    lp, vm = build_benders_master(toy, toy_state(), toy_scenarios, _floor_cuts(toy, 2, M))
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    # future looks free, so the first period is dispatched greedily (100 $)
    assert sol.objective == pytest.approx(100.0 + M, rel=1e-12)
    x1 = stage_dict(toy, first_stage_values(sol, vm))
    assert x1[("pg", "G1")] == pytest.approx(10.0, abs=1e-8)
    assert x1[("pg", "G2")] == pytest.approx(0.0, abs=1e-8)


def test_master_with_hand_cuts_recovers_the_hedge(toy, toy_scenarios):
    # the three cuts the decomposition discovers on this system
    cuts = _floor_cuts(toy, 2) + [
        _cut(toy, 0, 380.0),
        _cut(toy, 1, 7400.0, {("pg", "G2"): -980.0}),
        _cut(toy, 1, 540.0),
    ]
    lp, vm = build_benders_master(toy, toy_state(), toy_scenarios, cuts)
    sol = solve_lp(lp)
    assert sol.objective == pytest.approx(630.0, abs=1e-8)
    x1 = stage_dict(toy, first_stage_values(sol, vm))
    assert x1[("pg", "G2")] == pytest.approx(7.0, abs=1e-8)
    theta_lo = sol.x[vm.col(("theta", 0))]
    theta_hi = sol.x[vm.col(("theta", 1))]
    assert theta_lo == pytest.approx(380.0, abs=1e-8)
    assert theta_hi == pytest.approx(540.0, abs=1e-8)


def test_master_requires_a_cut_per_scenario(toy, toy_scenarios):
    with pytest.raises(ValidationError, match="no cuts"):
        build_benders_master(toy, toy_state(), toy_scenarios, _floor_cuts(toy, 1))


def test_master_requires_common_first_period(toy):
    skew = ScenarioSet(
        scenarios=(
            Scenario(id="a", prob=0.5, load={"B1": (10.0, 29.0)}),
            Scenario(id="b", prob=0.5, load={"B1": (11.0, 37.0)}),
        ),
        horizon=2,
    )
    with pytest.raises(ValidationError, match="disagrees"):
        require_common_first_period(skew)
    with pytest.raises(ValidationError, match="disagrees"):
        build_benders_master(toy, toy_state(), skew, _floor_cuts(toy, 2))
    load = {"B1": (10.0, 29.0)}
    for b_pmax, error in (({}, "disagree on which generators are derated"),
                          ({"G1": (15.0, 20.0)}, "disagrees with 'a' on period-1 pmax of 'G1'")):
        derated = ScenarioSet(scenarios=(
            Scenario(id="a", prob=0.5, load=load, pmax_override={"G1": (12.0, 20.0)}),
            Scenario(id="b", prob=0.5, load=load, pmax_override=b_pmax)), horizon=2)
        with pytest.raises(ValidationError, match=error):
            require_common_first_period(derated)


# ---------------------------------------------------------------------------
# costing details


def test_itemization_matches_objective_on_stochastic_model(case3):
    st = case3_state()
    scen = case3_scenarios(seed=31, horizon=4, n=5)
    lp, vm = build_slad_extensive(case3, st, scen)
    sol = solve_lp(lp, LPOptions(backend="highs"))
    d = extract_dispatch(sol, vm)
    costs = itemize_costs(d, case3)
    assert costs.total == pytest.approx(sol.objective, rel=1e-6)
    # per-period slices add back up to the whole
    parts = [itemize_costs(d, case3, period=t) for t in range(d.periods)]
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    assert total.total == pytest.approx(costs.total, rel=1e-9)
    assert costs.no_load > 0.0  # both committed thermal units carry no-load cost


def test_import_energy_is_itemized_separately(case3):
    # make imports attractive by scaling load beyond domestic capability
    st = case3_state()
    scen = case3_scenarios(seed=37, horizon=1, n=1, load_scale=1.6)
    lp, vm = build_lad(case3, st, scen)
    sol, d = _solve(lp, vm, backend="highs")
    costs = itemize_costs(d, case3)
    if d.pg_at("GI", 0) > 1e-6:
        assert costs.imports > 0.0
    assert costs.total == pytest.approx(sol.objective, rel=1e-6)


def test_first_period_flags_follow_wall_clock(toy):
    # commit G2 only from period 2 onward; a window starting at period 2
    # must see it available even though its window-local index is 0
    case = make_toy_case()
    gens = list(case.generators)
    gens[1] = dataclasses.replace(gens[1], commit=(False, False, True))
    vc = validate_case(dataclasses.replace(case, generators=tuple(gens)))
    st = SystemState(prev_dispatch={"G1": 0.0, "G2": 0.0}, wall_clock=2)
    lp, vm = build_sced(vc, st, {"B1": 25.0})
    sol, d = _solve(lp, vm)
    assert d.pg_at("G2", 0) == pytest.approx(5.0, abs=1e-8)

    early = SystemState(prev_dispatch={"G1": 0.0, "G2": 0.0}, wall_clock=0)
    lp, vm = build_sced(vc, early, {"B1": 25.0})
    sol, d = _solve(lp, vm)
    assert d.pg_at("G2", 0) == 0.0
    assert d.shortage[(0, 0)] == pytest.approx(5.0, abs=1e-8)


# ---------------------------------------------------------------------------
# every builder's model, pinned byte for byte


def _bundled_models(flows):
    """(label, build) pairs over the bundled toy day (its scenario file) and
    network day (history, k=3, horizon 4) at period 1."""
    for day in ("toy", "network"):
        b = bundled_day(day)
        vc, actuals, st, scen, load, pmax = (
            b.vc, b.actuals, b.state, b.scenarios, b.load, b.pmax)
        x1 = 2.0 + 0.25 * np.arange(len(first_stage_keys(vc)))
        yield f"{day}/sced", lambda: build_sced(vc, st, load, pmax=pmax, flows=flows)
        for n in (1, 4):
            win = actuals.window(1, n)
            yield f"{day}/lad{n}", lambda: build_lad(vc, st, win, flows=flows)
        yield f"{day}/day", lambda: build_lad(vc, initial_state(vc), actuals, flows=flows)
        yield f"{day}/extensive", lambda: build_slad_extensive(vc, st, scen, flows=flows)
        yield f"{day}/master", lambda: build_benders_master(
            vc, st, scen, _floor_cuts(vc, scen.n_scenarios), flows=flows)
        for s in range(scen.n_scenarios):
            yield f"{day}/sub{s}", lambda: build_benders_subproblem(
                vc, scen, s, x1=x1, first_period=1, flows=flows)


# sha256 of model_digest per (flows, label); a change to any model's
# columns, rows, entry order or registry moves it
BUILT_MODELS = {
    "full": {
        "toy/sced":
            "4a6e20ceff34a0b1a86fc5bd5a06025206af6a7f3d25ce803bdf6dcbb62ef191",
        "toy/lad1":
            "0788d104cd0c127005969fa12469b1317918bd7aa705023d2e137a84196bc3af",
        "toy/lad4":
            "0788d104cd0c127005969fa12469b1317918bd7aa705023d2e137a84196bc3af",
        "toy/day":
            "0bed5e538b696821a6f87dcf080a335c03a39f0ca3ad3cbf3cf9a4ff62ffe85e",
        "toy/extensive":
            "1431873197ce35676e33ca2bb21ddbbba724fffa4f415dff0e0bba665b385aa2",
        "toy/master":
            "9f98c8b3a0ae2e693b6c3c8789c27ed125cafb5205bc3d0b52e32e5a01126f42",
        "toy/sub0":
            "ba5b8f6162f3c9aba1efcad9bfc08ebc26c568426b0ab1c898975767f1b7270a",
        "toy/sub1":
            "56ae2c7485cb0d1a58b173dc8a80d5abeb2459b1fe1355bc63bb2b5b20155f96",
        "network/sced":
            "e1e018eb36796a6cd04680111c9340b74cd81373c8f950c9f84c46fd259801d3",
        "network/lad1":
            "da0bf62673b2689d5368ddbd9f9db8412ea38e619ebf016b7c853c0a0b620e27",
        "network/lad4":
            "d62607734a29aa09920ee766f9d665a161326940367d9fd5d1c75f91923eb328",
        "network/day":
            "08805dd12e90f950305bb907908ddfe22b65a5f3382b3a1697b399050536561d",
        "network/extensive":
            "fe8723c442ef0488690943127b89819e573ad76bbf909c53bd0ebc3d61c0ce8f",
        "network/master":
            "519bd522f1d76f42f39529e6096ad3c6a1a2c33e603f87989825a2804bb87cbe",
        "network/sub0":
            "f5219700364c8f3847e9467ba1d6a21e14e365a97ddcb5ce5964f7d8fb043c7e",
        "network/sub1":
            "1289f0d1a7894e22f61aabd499b3b182b41df346bea3ca1a99edf0fe14b4dd81",
        "network/sub2":
            "55f229a1f44fb365482ef2e2da0f43867638a63a0e747673d6ddd0115a560e3d",
    },
    "lazy": {
        "toy/sced":
            "4a6e20ceff34a0b1a86fc5bd5a06025206af6a7f3d25ce803bdf6dcbb62ef191",
        "toy/lad1":
            "0788d104cd0c127005969fa12469b1317918bd7aa705023d2e137a84196bc3af",
        "toy/lad4":
            "0788d104cd0c127005969fa12469b1317918bd7aa705023d2e137a84196bc3af",
        "toy/day":
            "0bed5e538b696821a6f87dcf080a335c03a39f0ca3ad3cbf3cf9a4ff62ffe85e",
        "toy/extensive":
            "1431873197ce35676e33ca2bb21ddbbba724fffa4f415dff0e0bba665b385aa2",
        "toy/master":
            "9f98c8b3a0ae2e693b6c3c8789c27ed125cafb5205bc3d0b52e32e5a01126f42",
        "toy/sub0":
            "ba5b8f6162f3c9aba1efcad9bfc08ebc26c568426b0ab1c898975767f1b7270a",
        "toy/sub1":
            "56ae2c7485cb0d1a58b173dc8a80d5abeb2459b1fe1355bc63bb2b5b20155f96",
        "network/sced":
            "ebe06100bcd920062e302723fc503842a6dc489d76707018ee4db31023337ac9",
        "network/lad1":
            "c8546d23c5f7b17e3b608748c0a43a0ceb8305c281441da584fadc9efb2c7faa",
        "network/lad4":
            "4848af891d31459ed90ca43cd42faec35d5decfe8d091a24e2470f69659795f3",
        "network/day":
            "ba459e94e85c53adba607c553fabcb095d3a30e279fbac5f1dc2d93c9964353a",
        "network/extensive":
            "f767c7d4db3d683000e3e93b1e15729152fd8c368338183a44430fb5ad4848c4",
        "network/master":
            "152238d5cda269249e4f37fb5325f6c7658643ca4a2ccfbe4fa8e93a5026363a",
        "network/sub0":
            "40c21eefd4d56d7f9bc077f3a6040f688ae151a73f3f332c9028f83b4ba3ba21",
        "network/sub1":
            "70d35dee3c14721efa81c88b30fd1a3fa185f0945e43d295ea2d1eeb142af5cb",
        "network/sub2":
            "02a0145ac3a82253c09ca6be93088aca2a33017190db441aa67352cd1cb815c2",
    },
}


@pytest.mark.parametrize("flows", ["full", "lazy"])
def test_built_models_are_pinned(flows):
    got = {label: model_digest(*build()) for label, build in _bundled_models(flows)}
    assert got == BUILT_MODELS[flows]


def test_cell_templates_stay_with_their_case():
    # two cases that differ only in G2's commit profile, built alternately
    # under both flow modes: each model must be what a fresh case gives
    text = (DATA / "network_case.json").read_text()
    base = parse_case(text)
    gens = list(base.generators)
    gens[1] = dataclasses.replace(gens[1], commit=(True, False, False, True))
    texts = [text, serialize_case(dataclasses.replace(base, generators=tuple(gens)))]
    cases = [validate_case(parse_case(t)) for t in texts]
    actuals = parse_timeseries((DATA / "network_day.csv").read_text(), cases[0])
    st = SystemState(prev_dispatch={g.id: g.initial_output for g in base.generators},
                     wall_clock=1)
    got = {}
    for _ in range(2):
        for flows in ("full", "lazy"):
            for i, vc in enumerate(cases):
                got.setdefault((i, flows), set()).add(
                    model_digest(*build_lad(vc, st, actuals.window(1, 4), flows=flows)))
    for (i, flows), digests in got.items():
        fresh = validate_case(parse_case(texts[i]))
        assert digests == {
            model_digest(*build_lad(fresh, st, actuals.window(1, 4), flows=flows))}
    assert len({d for ds in got.values() for d in ds}) == 4


def test_bulk_registry_keeps_duplicate_keys_out():
    vm = VariableMap()
    vm.add_cols([("a", 0), ("b", 0)], 0)
    vm.add_rows([("r", 0)], 0)
    for add in (vm.add_cols, vm.add_rows):
        with pytest.raises(ValueError, match="duplicate"):
            add([("c", 0), ("c", 0)], 5)
    with pytest.raises(ValueError, match=r"duplicate column key \('b', 0\)"):
        vm.add_cols([("c", 0), ("b", 0)], 2)
    with pytest.raises(ValueError, match="duplicate row key"):
        vm.add_rows([("r", 0)], 1)
    assert list(vm.columns()) == [(("a", 0), 0), (("b", 0), 1)]
    assert list(vm.rows()) == [(("r", 0), 0)]
