"""Rolling-simulation tests: policy goldens, fairness, dominance, summaries."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from rtdispatch import lp as lpmod
from rtdispatch import simulator
from rtdispatch.benders import BendersConfig
from rtdispatch.forecast import HistoryDay, HistoryStore, load_history
from rtdispatch.formulation import (
    build_lad,
    build_slad_extensive,
    extract_dispatch,
    first_stage_keys,
    first_stage_values,
)
from rtdispatch.lp import LPOptions
from rtdispatch.model import (
    SystemState,
    ValidationError,
    initial_state,
    parse_case,
    parse_timeseries,
    validate_case,
)
from rtdispatch.simulator import (
    PolicySpec,
    SimulationError,
    available_capacity,
    daily_savings,
    log_rows,
    log_summary,
    run_perfect_dispatch,
    run_simulation,
    settle_first_period,
)

from conftest import (
    case3_actual_day,
    case3_scenarios,
    case3_state,
    make_case3,
    make_case3_unmonitored,
    make_toy_case,
    make_toy_day,
    make_toy_scenarios,
    toy_state,
)
from helpers import stage_vector


def _costs(log):
    return [s.cost for s in log.steps]


# ---------------------------------------------------------------------------
# the two-generator day, policy by policy


def test_no_lookahead_day(toy, toy_day):
    log = run_simulation(toy, toy_day, PolicySpec(kind="sced"))
    assert _costs(log) == [pytest.approx(100.0, abs=1e-6), pytest.approx(5400.0, abs=1e-6)]
    assert log.total_cost == pytest.approx(5500.0, abs=1e-6)
    assert log.steps[0].pg == {"G1": pytest.approx(10.0), "G2": pytest.approx(0.0)}
    assert log.steps[1].shortage == pytest.approx(5.0, abs=1e-8)


def test_point_forecast_day(toy, toy_day, toy_scenarios):
    log = run_simulation(
        toy, toy_day, PolicySpec(kind="lad", horizon=12, scenarios=toy_scenarios)
    )
    assert _costs(log) == [pytest.approx(130.0, abs=1e-6), pytest.approx(2460.0, abs=1e-6)]
    assert log.total_cost == pytest.approx(2590.0, abs=1e-6)
    assert log.steps[0].pg["G2"] == pytest.approx(3.0, abs=1e-6)
    assert log.steps[1].shortage == pytest.approx(2.0, abs=1e-8)


def test_stochastic_day(toy, toy_day, toy_scenarios):
    log = run_simulation(
        toy, toy_day, PolicySpec(kind="slad", horizon=12, scenarios=toy_scenarios)
    )
    assert _costs(log) == [pytest.approx(170.0, abs=1e-5), pytest.approx(500.0, abs=1e-5)]
    assert log.total_cost == pytest.approx(670.0, abs=1e-5)
    assert log.steps[0].pg["G2"] == pytest.approx(7.0, abs=1e-6)
    assert log.steps[0].benders_iterations == 3
    assert log.steps[1].benders_iterations == 0  # one-period tail needs no cuts
    assert all(s.shortage == 0.0 for s in log.steps)


def test_hindsight_benchmark_day(toy, toy_day):
    log = run_perfect_dispatch(toy, toy_day)
    assert _costs(log) == [pytest.approx(150.0, abs=1e-6), pytest.approx(500.0, abs=1e-6)]
    assert log.total_cost == pytest.approx(650.0, abs=1e-6)
    assert log.steps[0].pg == {"G1": pytest.approx(5.0), "G2": pytest.approx(5.0)}


def test_clairvoyant_lookahead_matches_benchmark_here(toy, toy_day):
    # with the window covering the whole day, truncated perfect look-ahead
    # and the full-day benchmark coincide
    log = run_simulation(toy, toy_day, PolicySpec(kind="plad", horizon=12))
    assert log.total_cost == pytest.approx(650.0, abs=1e-6)


def test_policy_ordering_and_savings(toy, toy_day, toy_scenarios):
    totals = {}
    for kind in ("sced", "lad", "slad", "pd"):
        spec = PolicySpec(kind=kind, horizon=12, scenarios=toy_scenarios)
        totals[kind] = run_simulation(toy, toy_day, spec).total_cost
    assert totals["pd"] <= totals["slad"] <= totals["lad"] <= totals["sced"]
    saving = daily_savings(totals["sced"], totals["slad"])
    assert 100.0 * saving == pytest.approx(87.82, abs=0.01)
    assert daily_savings(totals["sced"], totals["sced"]) == 0.0
    with pytest.raises(ValidationError, match="positive"):
        daily_savings(0.0, 1.0)


# ---------------------------------------------------------------------------
# settlement fairness


def test_settlement_reprices_a_corrupted_plan(toy):
    # over-commit the cheap unit by 2 MW: settlement must charge the real
    # surplus penalty instead of taking the plan's word for it
    good = stage_vector(toy, {("pg", "G1"): 5.0, ("pg", "G2"): 5.0})
    bad = stage_vector(toy, {("pg", "G1"): 7.0, ("pg", "G2"): 5.0})
    d, costs = settle_first_period(toy, toy_state(), {"B1": 10.0}, {}, good)
    assert costs.total == pytest.approx(150.0, abs=1e-8)
    d2, costs2 = settle_first_period(toy, toy_state(), {"B1": 10.0}, {}, bad)
    assert d2.surplus[(0, 0)] == pytest.approx(2.0, abs=1e-9)
    assert costs2.total == pytest.approx(2170.0, abs=1e-6)


def test_settlement_rejects_impossible_commitments(toy):
    case = make_toy_case()
    gens = list(case.generators)
    gens[1] = dataclasses.replace(gens[1], commit=(False,))
    vc = validate_case(dataclasses.replace(case, generators=tuple(gens)))
    with pytest.raises(SimulationError, match="off-line"):
        settle_first_period(
            vc, toy_state(), {"B1": 10.0}, {}, stage_vector(vc, {("pg", "G2"): 3.0})
        )
    with pytest.raises(SimulationError, match="not eligible"):
        settle_first_period(
            toy, toy_state(), {"B1": 10.0}, {}, stage_vector(toy, {("reg", "G1"): 1.0})
        )


def test_settlement_pins_a_negative_zero_commitment_at_positive_zero(toy, monkeypatch):
    # a plan may carry -0.0 or a tiny negative; each is pinned as the +0.0
    # that max(0.0, v) gives, so the settlement model's bytes do not follow it
    from rtdispatch import simulator

    handed, solve = [], simulator._solve_checked

    def recorded(lp, *args):
        handed.append(lp)
        return solve(lp, *args)

    monkeypatch.setattr(simulator, "_solve_checked", recorded)
    x1 = stage_vector(toy, {("pg", "G1"): -1e-9, ("pg", "G2"): -0.0})
    assert np.signbit(x1).any()
    settle_first_period(toy, toy_state(), {"B1": 10.0}, {}, x1)
    rhs = handed[0].rhs
    assert not np.signbit(rhs[rhs == 0.0]).any()


def test_policies_share_the_settlement_path(case3):
    # same commitment, same realized period => same settled dollars,
    # regardless of which policy produced it
    day = case3_actual_day(seed=5, horizon=4)
    load = {b: day.scenarios[0].load[b][0] for b in case3.case.buses}
    pmax = {"G3": day.scenarios[0].pmax_override["G3"][0]}
    x1 = stage_vector(case3, {("pg", "G1"): 30.0, ("pg", "G2"): 22.0, ("pg", "G3"): 20.0,
                              ("pg", "GI"): 0.0, ("spin", "G2"): 5.0})
    from rtdispatch.model import SystemState

    st = SystemState(prev_dispatch={"G1": 30.0, "G2": 20.0, "G3": 15.0, "GI": 0.0},
                     wall_clock=0)
    a = settle_first_period(case3, st, load, pmax, x1)
    b = settle_first_period(case3, st, load, pmax, x1.copy())
    assert a[1].as_dict() == b[1].as_dict()


# ---------------------------------------------------------------------------
# the richer system with data-driven forecasts


def _case3_history(horizon=8, n_days=10):
    rng = np.random.default_rng(77)
    base = case3_actual_day(seed=99, horizon=horizon)
    days = []
    for i in range(n_days):
        sc = base.scenarios[0]
        load = {
            b: tuple(max(0.0, v * rng.uniform(0.92, 1.08)) for v in sc.load[b])
            for b in sc.load
        }
        pmax = {
            "G3": tuple(
                float(np.clip(v + rng.normal(0, 2.0), 0.0, 40.0))
                for v in sc.pmax_override["G3"]
            )
        }
        days.append(HistoryDay(date=f"d{i:02d}", load=load, pmax=pmax))
    return HistoryStore(days)


def test_data_driven_day_on_the_network(case3):
    day = case3_actual_day(seed=2, horizon=8)
    hist = _case3_history(horizon=8)
    logs = {}
    for kind in ("sced", "lad", "slad"):
        spec = PolicySpec(
            kind=kind, horizon=3, history=hist, knn_k=3,
            benders=BendersConfig(max_iter=60),
        )
        logs[kind] = run_simulation(case3, day, spec)
    pd_log = run_perfect_dispatch(case3, day)
    for kind, log in logs.items():
        assert log.periods == 8 and len(log.steps) == 8
        # totals are the exact sum of the settled slices
        assert log.total_cost == pytest.approx(
            sum(s.cost for s in log.steps), rel=1e-9
        )
        # hindsight dominates every policy
        assert pd_log.total_cost <= log.total_cost * (1 + 1e-9) + 1e-6
    # the stochastic policy actually exercised the decomposition
    assert any(s.benders_iterations > 0 for s in logs["slad"].steps)


def test_state_threads_through_the_day(case3):
    day = case3_actual_day(seed=3, horizon=4)
    log = run_simulation(case3, day, PolicySpec(kind="sced"))
    dt = case3.case.step_minutes
    for prev, cur in zip(log.steps, log.steps[1:]):
        for g in case3.case.generators:
            delta = cur.pg[g.id] - prev.pg[g.id]
            assert delta <= g.ramp_up * dt + 1e-7
            assert -delta <= g.ramp_down * dt + 1e-7


# ---------------------------------------------------------------------------
# validation and summaries


def test_input_validation(toy, toy_day, toy_scenarios):
    with pytest.raises(ValidationError, match="unknown policy"):
        PolicySpec(kind="magic")
    with pytest.raises(ValidationError, match="horizon"):
        PolicySpec(kind="lad", horizon=0)
    short = toy_scenarios.window(0, 1)
    with pytest.raises(ValidationError, match="covers 1 period"):
        run_simulation(toy, toy_day, PolicySpec(kind="slad", scenarios=short))
    with pytest.raises(ValidationError, match="single-scenario"):
        run_simulation(toy, toy_scenarios, PolicySpec(kind="sced"))
    hist = _case3_history(horizon=6)
    with pytest.raises(ValidationError, match="history has 6"):
        run_simulation(
            validate_case(make_case3()),
            case3_actual_day(seed=1, horizon=8),
            PolicySpec(kind="lad", history=hist),
        )


def _alone(vc, gid):
    """The case of ``vc`` with generator ``gid`` as its only generator."""
    return dataclasses.replace(vc.case, generators=tuple(
        g for g in vc.case.generators if g.id == gid))


def test_available_capacity_summary(toy):
    st = SystemState(prev_dispatch={"G1": 3.0, "G2": 7.0}, wall_clock=1)
    # each unit alone: the lesser of its capacity and prev + ramp_up * step
    for gid, mw in (("G1", 20.0), ("G2", 17.0)):
        one = available_capacity(_alone(toy, gid), st)
        assert one.total == pytest.approx(mw) and one.fast == pytest.approx(mw)
    cap = available_capacity(toy, st)
    assert cap.total == pytest.approx(37.0)
    # both units can move at least 1% of capacity per minute
    assert cap.fast == pytest.approx(37.0)

    case = make_toy_case()
    gens = list(case.generators)
    gens[1] = dataclasses.replace(gens[1], commit=(False,))
    vc = validate_case(dataclasses.replace(case, generators=tuple(gens)))
    cap2 = available_capacity(vc, st)
    assert cap2.total == pytest.approx(20.0)  # G1 alone: G2 is not committed

    sluggish = dataclasses.replace(
        make_toy_case().generators[0], ramp_up=0.15  # 0.75%/min of 20 MW
    )
    vc3 = validate_case(
        dataclasses.replace(case, generators=(sluggish, case.generators[1]))
    )
    cap3 = available_capacity(vc3, SystemState(prev_dispatch={"G1": 3.0, "G2": 7.0},
                                               wall_clock=0))
    assert cap3.fast == pytest.approx(17.0)  # G2 alone
    assert cap3.total == pytest.approx(17.0 + min(20.0, 3.0 + 0.15 * 5))


def test_capacity_respects_realized_derate(case3):
    st = initial_state(case3)
    g3 = _alone(case3, "G3")
    assert available_capacity(g3, st).total == pytest.approx(40.0)  # 15 + 8 * 5 > pmax
    cap = available_capacity(g3, st, pmax_now={"G3": 22.0})
    assert cap.total == pytest.approx(22.0)  # derate binds before ramp
    assert cap.fast == pytest.approx(22.0)


def test_log_rows_and_summary(toy, toy_day, toy_scenarios):
    log = run_simulation(
        toy, toy_day, PolicySpec(kind="slad", horizon=12, scenarios=toy_scenarios)
    )
    header, rows = log_rows(log)
    assert header[:2] == ["period", "cost"]
    assert "solve_ms" not in header
    assert len(rows) == 2 and rows[0][0] == 1
    assert rows[0][header.index("cost")] == pytest.approx(170.0, abs=1e-5)

    header_t, rows_t = log_rows(log, timings=True)
    assert header_t[-1] == "solve_ms"
    assert rows_t[0][-1] > 0.0

    summary = log_summary(log)
    assert summary["policy"] == "slad"
    assert summary["total_cost"] == pytest.approx(670.0, abs=1e-5)
    assert summary["total_shortage_mw"] == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# the pivot path of the reference simplex on the bundled days

DATA = Path(__file__).resolve().parent.parent / "data"

# Settled total (exact repr) and simplex pivots summed over every solve of
# the day.  Reworking the simplex must leave these bit for bit: a different
# pivot sequence moves the pivot count, different arithmetic the totals.
# The network day runs as in the README: history forecasts, k=3, horizon 4.
# Recorded with numpy 2.4 / scipy 1.17; a BLAS that sums its dense products
# in another order can move the last digits of the network totals.
PIVOT_PATH = {
    ("toy", "sced"): ("5500.0", 20),
    ("toy", "lad"): ("2590.0", 27),
    ("toy", "slad"): ("670.0", 52),
    ("toy", "plad"): ("650.0", 25),
    ("toy", "pd"): ("650.0", 20),
    ("network", "sced"): ("9280.960557239941", 350),
    ("network", "lad"): ("9280.960557239938", 786),
    ("network", "slad"): ("9280.960557239941", 2057),
    ("network", "plad"): ("9280.960557239941", 805),
    ("network", "pd"): ("9280.960557239941", 350),
}


@pytest.mark.parametrize("day,kind", list(PIVOT_PATH))
def test_pivot_path_snapshot(day, kind, monkeypatch):
    vc = validate_case(parse_case((DATA / f"{day}_case.json").read_text()))
    actuals = parse_timeseries((DATA / f"{day}_day.csv").read_text(), vc)
    if day == "toy":
        scen = parse_timeseries((DATA / "toy_scenarios.csv").read_text(), vc)
        policy = PolicySpec(kind=kind, scenarios=scen)
    else:
        hist = load_history((DATA / "network_history.csv").read_text(), vc)
        policy = PolicySpec(kind=kind, horizon=4, knn_k=3, history=hist)
    pivots = []
    solve = lpmod._Simplex.solve

    def counted(self):
        sol = solve(self)
        pivots.append(sol.iterations)
        return sol

    monkeypatch.setattr(lpmod._Simplex, "solve", counted)
    log = run_simulation(vc, actuals, policy)
    assert (repr(log.total_cost), sum(pivots)) == PIVOT_PATH[(day, kind)]


def test_a_policy_hands_its_lp_options_and_flow_mode_to_the_decomposition(
        toy, toy_day, toy_scenarios, monkeypatch):
    handed, run = [], simulator.run_benders

    def recorded(*args, **kwargs):
        handed.append((kwargs["lp"], kwargs["flows"]))
        return run(*args, **kwargs)

    monkeypatch.setattr(simulator, "run_benders", recorded)
    opts = LPOptions(backend="highs")
    run_simulation(toy, toy_day, PolicySpec(kind="slad", scenarios=toy_scenarios,
                                            flows="lazy", lp=opts))
    assert handed and all(lp is opts and flows == "lazy" for lp, flows in handed)


# ---------------------------------------------------------------------------
# period 0 of a forecast window is telemetry for every generator


def _without_g3(name):
    """A bundled CSV file's text without its ``pmax:G3`` column."""
    rows = [line.split(",") for line in (DATA / name).read_text().splitlines()]
    i = rows[0].index("pmax:G3")
    return "".join(",".join(r[:i] + r[i + 1:]) + "\n" for r in rows)


def _network_g3(vc):
    return next(g.pmax for g in vc.case.generators if g.id == "G3")


@pytest.mark.parametrize("kind", ["lad", "slad"])
def test_a_derate_the_source_does_not_track_reaches_period_0(kind):
    # the day derates G3 and the history has no G3 column: the plan sees
    # G3's realized derate at period 0 and its nameplate after it
    vc = validate_case(parse_case((DATA / "network_case.json").read_text()))
    actuals = parse_timeseries((DATA / "network_day.csv").read_text(), vc)
    hist = load_history(_without_g3("network_history.csv"), vc)
    policy = PolicySpec(kind=kind, horizon=4, knn_k=3, history=hist)
    realized = actuals.scenarios[0].pmax_override["G3"]
    win = simulator._forecast_window(vc, policy, actuals, 2, 4)
    assert {s.pmax_override["G3"] for s in win.scenarios} == {
        (realized[2],) + (_network_g3(vc),) * 3}
    log = run_simulation(vc, actuals, policy)
    assert log.total_cost == pytest.approx(float(PIVOT_PATH[("network", "sced")][0]), rel=1e-9)


def test_a_generator_the_day_does_not_derate_is_at_nameplate_in_period_0():
    # the history tracks G3 and the day does not derate it: every scenario
    # opens at G3's nameplate, so the scenarios agree on period 0 and the
    # plans price the realized day as sced does
    vc = validate_case(parse_case((DATA / "network_case.json").read_text()))
    actuals = parse_timeseries(_without_g3("network_day.csv"), vc)
    hist = load_history((DATA / "network_history.csv").read_text(), vc)
    policies = {kind: PolicySpec(kind=kind, horizon=4, knn_k=3, history=hist)
                for kind in ("sced", "lad", "slad")}
    win = simulator._forecast_window(vc, policies["slad"], actuals, 2, 4)
    assert {s.pmax_override["G3"][0] for s in win.scenarios} == {_network_g3(vc)}
    totals = {kind: run_simulation(vc, actuals, p).total_cost for kind, p in policies.items()}
    assert totals["lad"] == pytest.approx(totals["sced"], rel=1e-9)
    assert totals["slad"] == pytest.approx(totals["sced"], rel=1e-9)


# ---------------------------------------------------------------------------
# the hindsight benchmark through the shared rolling loop


def _bundled_day(day):
    vc = validate_case(parse_case((DATA / f"{day}_case.json").read_text()))
    return vc, parse_timeseries((DATA / f"{day}_day.csv").read_text(), vc)


@pytest.mark.parametrize("day", ["toy", "network"])
def test_perfect_dispatch_is_the_pd_policy(day):
    vc, actuals = _bundled_day(day)
    wrapped = run_perfect_dispatch(vc, actuals)
    # the planning horizon and any forecast source are ignored by pd; a
    # scenario set of the wrong length is not even checked
    wrong = make_toy_scenarios() if day == "network" else None
    rolled = run_simulation(vc, actuals, PolicySpec(kind="pd", horizon=4,
                                                    scenarios=wrong))
    assert wrapped.horizon == rolled.horizon == actuals.horizon
    assert wrapped.policy == rolled.policy == "pd"
    assert wrapped.totals == rolled.totals
    assert len(wrapped.steps) == len(rolled.steps) == actuals.horizon
    for a, b in zip(wrapped.steps, rolled.steps):
        for f in dataclasses.fields(a):
            if f.name != "solve_ms":
                assert getattr(a, f.name) == getattr(b, f.name), f.name
    # one plan: its objective on every slice, no decomposition
    assert len({s.planning_objective for s in rolled.steps}) == 1
    assert all(s.benders_iterations == 0 for s in rolled.steps)


@pytest.mark.parametrize("day", ["toy", "network"])
def test_first_stage_slice_of_the_full_day_plan(day):
    """``pd`` commits slice t of its plan: first_stage_values at t reads
    what the extracted full-day dispatch holds there."""
    vc, actuals = _bundled_day(day)
    lp, vmap = build_lad(vc, initial_state(vc), actuals)
    sol = lpmod.solve_lp(lp)
    d = extract_dispatch(sol, vmap)
    for t in range(actuals.horizon):
        want = [d.pg_at(gid, t) if kind == "pg" else d.reserve.get((kind, gid, t, 0), 0.0)
                for kind, gid in first_stage_keys(vc)]
        assert first_stage_values(sol, vmap, t).tolist() == want


#: where the third solve of a stage on the network day falls: lad plans
#: and settles once a period, slad's decomposition solves more than three
#: LPs at period 0
FAILING_SOLVE = {
    ("lad", "plan"): "period 2: plan: ",
    ("lad", "settlement"): "period 2: settlement: ",
    ("slad", "plan"): "period 0: decomposition: ",
    ("slad", "settlement"): "period 2: settlement: ",
}


@pytest.mark.parametrize("kind,stage", list(FAILING_SOLVE))
def test_a_numerical_failure_names_its_period_and_stage(kind, stage, monkeypatch):
    from rtdispatch import simulator

    vc, actuals = _bundled_day("network")
    hist = load_history((DATA / "network_history.csv").read_text(), vc)
    policy = PolicySpec(kind=kind, horizon=4, knn_k=3, history=hist,
                        lp=lpmod.LPOptions(backend="highs"))
    settling, counted = [False], [0]
    settle, solve = simulator.settle_first_period, lpmod._solve_highs

    def flagged(*args, **kwargs):
        settling[0] = True
        try:
            return settle(*args, **kwargs)
        finally:
            settling[0] = False

    def failing(lp, opts):
        counted[0] += settling[0] == (stage == "settlement")
        if counted[0] == 3:
            raise lpmod.LPNumericalError("HiGHS backend failed: injected")
        return solve(lp, opts)

    monkeypatch.setattr(simulator, "settle_first_period", flagged)
    monkeypatch.setattr(lpmod, "_solve_highs", failing)
    with pytest.raises(lpmod.LPNumericalError) as err:
        run_simulation(vc, actuals, policy)
    assert str(err.value) == FAILING_SOLVE[(kind, stage)] + "HiGHS backend failed: injected"
    assert isinstance(err.value.__cause__, lpmod.LPNumericalError)


# settled totals (exact repr) of case3 with E1 binding and E2 unmonitored;
# recorded with numpy 2.4 / scipy 1.17, like PIVOT_PATH
UNMONITORED_TOTALS = {
    "sced": "12724.084216207582",
    "lad": "12724.084216207586",
    "slad": "12724.084216207582",
    "pd": "12724.084216207582",
}


def test_unmonitored_branch_reads_zero_flow_excess():
    vc = validate_case(make_case3_unmonitored())
    scen = case3_scenarios(seed=0, horizon=4, n=3)
    lp, vmap = build_slad_extensive(vc, case3_state(), scen)
    d = extract_dispatch(lpmod.solve_lp(lp), vmap)
    # E1's columns in build order (scenario by scenario), then a zero for E2
    # in every cell
    cells = [(t, s) for s in range(3) for t in range(4)]
    assert list(d.flow_excess) == (
        [("E1", t, s) for t, s in cells] + [("E2", t, s) for t, s in sorted(cells)])
    assert all(d.flow_excess[("E2", t, s)] == 0.0 for t, s in cells)

    day = case3_actual_day(horizon=8)
    scen = case3_scenarios(seed=0, horizon=8, n=5)
    for kind, total in UNMONITORED_TOTALS.items():
        log = run_simulation(vc, day, PolicySpec(kind=kind, horizon=4, scenarios=scen))
        assert repr(log.total_cost) == total, kind
        assert log.totals.penalty_flow > 0.0


def test_public_and_traced_names_resolve(monkeypatch):
    """Every exported name exists, and so does every attribute the
    benchmark's tracer wraps (perfbench/run.py, wrap_layers)."""
    import importlib.util
    import os
    import sys

    import rtdispatch

    for name in rtdispatch.__all__:
        assert getattr(rtdispatch, name, None) is not None, name
    bench = DATA.parent / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    env = dict(os.environ)
    try:  # run.py imports its siblings and pins thread counts on import
        spec = importlib.util.spec_from_file_location("perfbench_run",
                                                      bench / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        os.environ.clear()
        os.environ.update(env)
        for mod in ("gen", "spans"):
            sys.modules.pop(mod, None)

    class Recorder:
        def __init__(self):
            self.wrapped = []

        def wrap(self, owner, attr, name, summarize=None):
            self.wrapped.append((owner, attr))

    rec = Recorder()
    run.wrap_layers(rec)
    assert len(rec.wrapped) > 20
    for owner, attr in rec.wrapped:
        assert callable(getattr(owner, attr, None)), (owner, attr)
