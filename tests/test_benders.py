"""Decomposition tests: convergence, bounds, cut validity, determinism."""

import dataclasses
import os
import signal
import threading
import time
import types
import warnings
from pathlib import Path

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
    build_lad,
    build_slad_extensive,
    first_stage_keys,
    first_stage_values,
    flow_limit_rows,
)
from rtdispatch import lp as lpmod
from rtdispatch.forecast import load_history
from rtdispatch.lp import LPNumericalError, LPOptions, solve_lp
from rtdispatch.model import (
    ValidationError,
    initial_state,
    parse_case,
    parse_timeseries,
    validate_case,
)
from rtdispatch.simulator import PolicySpec, run_simulation

from conftest import case3_scenarios, case3_state, make_case3, toy_state
from helpers import (
    DATA,
    benders_digest,
    bundled_day,
    pinned_rhs,
    stage_dict,
    stage_vector,
    walked_first_stage_values,
    walked_pin_duals,
)


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
    x1 = stage_dict(toy, res.x1)
    assert x1[("pg", "G1")] == pytest.approx(3.0, abs=1e-6)
    assert x1[("pg", "G2")] == pytest.approx(7.0, abs=1e-6)
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
    assert stage_dict(toy, real[1].coef_x1)[("pg", "G2")] == pytest.approx(-980.0, abs=1e-6)
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
    assert a.x1.tobytes() == b.x1.tobytes()
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
        x = stage_vector(case3, x)
        for s in range(scen.n_scenarios):
            lp, vm = subs[s]
            sol = solve_lp(lp.with_rhs(pinned_rhs(lp, vm, x)))
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
    assert stage_dict(toy, res.x1)[("pg", "G1")] == pytest.approx(10.0, abs=1e-6)
    assert res.lower < res.objective


def test_single_period_window_is_rejected(toy, toy_day):
    with pytest.raises(ValidationError, match="two periods"):
        run_benders(toy, toy_state(), toy_day.window(0, 1))


def test_bad_alpha_is_rejected(toy, toy_scenarios):
    with pytest.raises(ValidationError, match="alpha"):
        run_benders(toy, toy_state(), toy_scenarios, BendersConfig(alpha=1.0))


def test_the_config_holds_only_the_decompositions_own_settings():
    # the LP options and the flow mode are run_benders' arguments, so a
    # policy's settings cannot be shadowed by a second copy in the config
    assert [f.name for f in dataclasses.fields(BendersConfig)] == [
        "epsilon", "max_iter", "alpha", "workers"]
    for setting in ({"flows": "lazy"}, {"lp": LPOptions(backend="highs")}):
        with pytest.raises(TypeError):
            BendersConfig(**setting)


@pytest.mark.parametrize("setting", [
    {"alpha": 1.0}, {"alpha": -0.1}, {"max_iter": 0}, {"workers": 0},
    {"epsilon": -1.0}, {"epsilon": float("nan")}, {"epsilon": float("inf")},
    # a count that is not a whole number never reaches range() or the pool
    {"workers": 2.5}, {"workers": True}, {"workers": 2.0}, {"max_iter": 2.5},
    {"max_iter": float("nan")}, {"max_iter": False}, {"max_iter": "3"}])
def test_the_config_is_checked_when_made(setting):
    # a bad setting fails before any model is built, whatever the policy
    with pytest.raises(ValidationError, match=next(iter(setting))):
        BendersConfig(**setting)
    with pytest.raises(dataclasses.FrozenInstanceError):
        BendersConfig().workers = 2


def _network_slad_day(workers):
    vc = validate_case(parse_case((DATA / "network_case.json").read_text()))
    day = parse_timeseries((DATA / "network_day.csv").read_text(), vc)
    history = load_history((DATA / "network_history.csv").read_text(), vc)
    return run_simulation(vc, day, PolicySpec(kind="slad", horizon=4, knn_k=3, history=history,
                                              benders=BendersConfig(workers=workers)))


def test_oracle_threads_are_kept_across_decisions_and_days(monkeypatch):
    started = []
    start = threading.Thread.start

    def counted(self):
        started.append(self.name)
        return start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    logs = [_network_slad_day(workers=2) for _ in range(2)]
    assert sum(s.benders_iterations > 0 for s in logs[0].steps) > 1
    assert len(started) <= 1  # the pool's one thread, unless an earlier run made it


def test_worker_count_does_not_change_a_rolling_day(case3):
    logs = [_network_slad_day(workers=w) for w in (1, 2, 3)]
    for log in logs[1:]:
        assert log.total_cost == logs[0].total_cost
        assert [s.pg for s in log.steps] == [s.pg for s in logs[0].steps]
        assert ([s.benders_iterations for s in log.steps]
                == [s.benders_iterations for s in logs[0].steps])
    # three scenarios on two threads: the caller answers two of them
    scen = case3_scenarios(seed=53, horizon=3, n=3)
    serial, strided = (run_benders(case3, case3_state(), scen, BendersConfig(workers=w))
                       for w in (1, 2))
    assert benders_digest(serial, case3) == benders_digest(strided, case3)
    assert [c.origin for c in serial.cuts] == [c.origin for c in strided.cuts]
    assert serial.subproblem_solves == strided.subproblem_solves


@pytest.mark.parametrize("workers", [2, 3])
def test_an_oracle_error_under_threads_is_the_serial_one(case3, workers, monkeypatch):
    from rtdispatch import benders

    scen = case3_scenarios(seed=53, horizon=3, n=4)
    ids = [s.id for s in scen.scenarios]
    solve_at = benders._ScenarioOracle._solve_at
    lock, running = threading.Lock(), [0]

    def failing(self, x1, warm):
        s = ids.index(self.scenario_id)
        with lock:
            running[0] += 1
        try:
            if s == 1:
                raise LPNumericalError(f"scenario '{self.scenario_id}' failed on purpose")
            if s == 2:
                time.sleep(0.2)  # still solving when scenario 1 has failed
            return solve_at(self, x1, warm)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(benders._ScenarioOracle, "_solve_at", failing)
    messages = []
    for w in (1, workers):
        with pytest.raises(LPNumericalError) as err:
            run_benders(case3, case3_state(), scen, BendersConfig(workers=w))
        assert running[0] == 0  # every share was done before the error left
        messages.append(str(err.value))
    assert messages[0] == messages[1] == f"scenario '{ids[1]}' failed on purpose"
    monkeypatch.undo()
    assert run_benders(case3, case3_state(), scen,
                       BendersConfig(workers=workers)).status == "optimal"


def test_an_error_at_the_interior_point_wins_over_a_lower_scenarios_at_the_argmin(
        case3, monkeypatch):
    # one round asks every oracle the interior point, then the argmin point:
    # scenario 2 failing at iteration 2's interior point is met before
    # scenario 0 failing at its argmin point, serially and on two threads
    from rtdispatch import benders

    scen = case3_scenarios(seed=53, horizon=3, n=4)
    ids = [s.id for s in scen.scenarios]
    query = benders._ScenarioOracle.query
    asked = {}  # scenario -> queries so far; one thread asks each oracle

    def failing(self, x1):
        s = ids.index(self.scenario_id)
        asked[s] = n = asked.get(s, 0) + 1
        if (s, n) in ((2, 3), (0, 4)):  # iteration 2's interior, its argmin
            raise LPNumericalError(f"scenario '{self.scenario_id}' failed at query {n}")
        return query(self, x1)

    assert run_benders(case3, case3_state(), scen).iterations >= 2
    monkeypatch.setattr(benders._ScenarioOracle, "query", failing)
    for w in (1, 2):
        asked.clear()
        with pytest.raises(LPNumericalError) as err:
            run_benders(case3, case3_state(), scen, BendersConfig(workers=w))
        assert str(err.value) == f"scenario '{ids[2]}' failed at query 3"


def test_an_interrupt_in_the_callers_share_waits_for_the_pool(case3, monkeypatch):
    # a BaseException, as KeyboardInterrupt is, raised in the calling
    # thread's share while a pool thread still solves its own
    from rtdispatch import benders

    class Interrupt(BaseException):
        pass

    scen = case3_scenarios(seed=53, horizon=3, n=4)
    ids = [s.id for s in scen.scenarios]
    solve_at = benders._ScenarioOracle._solve_at
    lock, running = threading.Lock(), [0]

    def interrupted(self, x1, warm):
        s = ids.index(self.scenario_id)
        with lock:
            running[0] += 1
        try:
            if s == 0:
                raise Interrupt
            time.sleep(0.2)
            return solve_at(self, x1, warm)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(benders._ScenarioOracle, "_solve_at", interrupted)
    with pytest.raises(Interrupt):
        run_benders(case3, case3_state(), scen, BendersConfig(workers=2))
    assert running[0] == 0
    monkeypatch.undo()
    assert run_benders(case3, case3_state(), scen,
                       BendersConfig(workers=2)).status == "optimal"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_makes_its_own_oracle_threads(case3):
    # the parent's kept pool exists after this run; a child that used it
    # would wait forever on threads it does not have
    scen = case3_scenarios(seed=53, horizon=3, n=4)
    cfg = BendersConfig(workers=2)
    want = benders_digest(run_benders(case3, case3_state(), scen, cfg), case3)
    r, w = os.pipe()
    with warnings.catch_warnings():  # newer Pythons warn on forking with threads
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # the child: report its run's digest, then leave at once
        try:
            os.write(w, benders_digest(run_benders(case3, case3_state(), scen, cfg),
                                       case3).encode())
        finally:
            os._exit(0)
    os.close(w)
    deadline = time.monotonic() + 60.0
    while os.waitpid(pid, os.WNOHANG)[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's run did not finish")
        time.sleep(0.02)
    with os.fdopen(r) as fh:
        assert fh.read() == want


def test_iterations_split_master_time_from_oracle_time(case3):
    res = run_benders(case3, case3_state(), case3_scenarios(seed=53, horizon=3, n=4))
    for r in res.trace:
        assert r.master_ms > 0.0 and r.oracle_ms > 0.0
        assert r.master_ms + r.oracle_ms <= r.wall_ms


@pytest.mark.parametrize("workers", [0, -3])
def test_bad_worker_count_is_rejected(toy, toy_scenarios, workers):
    with pytest.raises(ValidationError, match="workers"):
        run_benders(toy, toy_state(), toy_scenarios, BendersConfig(workers=workers))


@pytest.mark.parametrize("epsilon", [float("nan"), -1.0, float("inf")])
def test_bad_epsilon_is_rejected(toy, toy_scenarios, epsilon):
    with pytest.raises(ValidationError, match="epsilon"):
        run_benders(toy, toy_state(), toy_scenarios, BendersConfig(epsilon=epsilon))


def test_a_scenario_set_whose_probabilities_miss_1_is_rejected(toy, toy_day, toy_scenarios):
    # each subproblem and the master see one scenario at probability 1, so
    # the whole set is checked once, as the extensive form checks it
    scen = dataclasses.replace(toy_scenarios, scenarios=tuple(
        dataclasses.replace(s, prob=0.3) for s in toy_scenarios.scenarios))
    with pytest.raises(ValidationError, match="probabilities sum to 0.6, expected 1"):
        build_slad_extensive(toy, toy_state(), scen)
    with pytest.raises(ValidationError, match="probabilities sum to 0.6, expected 1"):
        run_benders(toy, toy_state(), scen)
    with pytest.raises(ValidationError, match="probabilities sum to 0.6, expected 1"):
        run_simulation(toy, toy_day, PolicySpec(kind="slad", scenarios=scen))


def test_cut_pool_deduplicates():
    pool = CutPool()
    c1 = Cut(scenario=0, coef_x1=np.array([-2.0, 0.0]), rhs_const=10.0)
    c2 = Cut(scenario=0, coef_x1=np.array([-2.0, -0.0]), rhs_const=10.0, origin=(3, "x"))
    c3 = Cut(scenario=1, coef_x1=np.array([-2.0, 0.0]), rhs_const=10.0)
    assert pool.add(c1) is True
    assert pool.add(c2) is False  # same content, different origin
    assert pool.add(c3) is True   # same content, different scenario
    assert len(pool) == 2
    assert c1.value_at(np.array([4.0, 1.0])) == pytest.approx(2.0)


def test_in_out_candidate_blends():
    a = np.array([10.0, 0.0])
    b = np.array([0.0, 8.0])
    assert in_out_candidate(a, b, 0.25).tolist() == [2.5, 6.0]


def test_cut_constant_check_prices_every_non_pin_row(case3):
    scen = case3_scenarios(seed=59, horizon=3, n=2)
    x1 = run_benders(case3, case3_state(), scen).x1
    oracle = _ScenarioOracle(case3, scen, 0, 0)
    _q, _sigma, rhs_const = oracle.query(x1)
    lp = oracle.lp.with_rhs(pinned_rhs(oracle.lp, oracle.vmap, x1))
    sol = oracle._last
    pins = set(oracle.vmap.meta["pin_rows"])
    rhs = lp.rhs
    other = next(r for r in range(lp.n_rows) if r not in pins and abs(rhs[r]) > 1.0)
    pin = next(iter(pins))

    def check(row, shift):
        duals = sol.duals.copy()
        duals[row] += shift
        oracle._check_cut_constant(lp, dataclasses.replace(sol, duals=duals), rhs_const)

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


def _moving_argmin_state():
    """case3_state with G1 at 45 MW: under _congested_setup the master's
    first stage moves between iterations (three of them), where from
    case3_state it stays at the first iteration's argmin."""
    st = case3_state()
    return dataclasses.replace(st, prev_dispatch={**st.prev_dispatch, "G1": 45.0})


def test_lazy_generation_reaches_the_full_model():
    vc, scen = _congested_setup()
    st = case3_state()
    full_lp, _ = build_slad_extensive(vc, st, scen, flows="full")
    full = solve_lp(full_lp)

    lazy_lp, lazy_vm = build_slad_extensive(vc, st, scen, flows="lazy")
    n0 = lazy_lp.n_rows
    sol, final_lp = solve_with_lazy_flows(lazy_lp, lazy_vm)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(full.objective, abs=1e-8 * (1 + abs(full.objective)))
    assert final_lp.n_rows > n0  # congestion actually forced generation
    # and the fixed point certifies feasibility of every monitored limit
    assert flow_violations(lazy_vm, sol, 1e-6) == []


def _ptdf_loop_violations(vmap, sol, tol):
    """``flow_violations`` as a loop over ``Branch.ptdf``: each cell's flow
    summed from its injection columns, less or plus its flow excess."""
    cells = sorted({(k[2], k[3]) for k, _ in vmap.columns() if k[0] == "inj"})
    present = {k for k, _ in vmap.rows()}
    specs = []
    for e in vmap.meta["case"].case.branches:
        for t, s in cells if e.monitored else ():
            if ("flow_upper", e.id, t, s) in present:
                continue
            flow = sum(coef * sol.x[vmap.col(("inj", bus, t, s))]
                       for bus, coef in e.ptdf.items()
                       if vmap.get(("inj", bus, t, s)) is not None)
            df = sol.x[vmap.col(("flow_excess", e.id, t, s))]
            if flow - df > e.limit_hi + tol or flow + df < e.limit_lo - tol:
                specs.extend(flow_limit_rows(vmap, e, t, s))
    return specs


def test_flow_violations_agree_with_the_ptdf_loop_at_the_limits():
    # lazy separation evaluates the rows it would add; on drawn points it
    # picks what the PTDF loop picked, at a limit plus or minus tol too,
    # with a zero PTDF entry that enters the loop's sum but no row
    case = make_case3()
    e1, e2 = case.branches
    case = dataclasses.replace(case, branches=(
        dataclasses.replace(e1, ptdf={**e1.ptdf, "B2": 0.0}), e2))
    vc = validate_case(case)
    lp, vm = build_slad_extensive(vc, case3_state(), case3_scenarios(seed=61, horizon=3, n=2),
                                  flows="lazy")
    cells = sorted({(k[2], k[3]) for k, _ in vm.columns() if k[0] == "inj"})
    rng = np.random.default_rng(23)
    for draw in range(48):
        e = case.branches[draw % 2]
        t, s = cells[draw // 2 % len(cells)]
        x = rng.uniform(-50.0, 50.0, lp.n_vars)
        sol = types.SimpleNamespace(x=x)
        inj = [(coef, c) for bus, coef in e.ptdf.items()
               if (c := vm.get(("inj", bus, t, s))) is not None]
        # put the cell's upper or lower flow about 1e-6 past its limit, on
        # the side of zero that keeps the other row satisfied, and tol where
        # the limit plus or minus tol is exactly that flow, and a step either
        # side of it
        upper = draw % 4 < 2
        if (sum(coef * x[c] for coef, c in inj) < 0.0) == upper:
            x[[c for _, c in inj]] *= -1.0
        flow = sum(coef * x[c] for coef, c in inj)
        df = vm.col(("flow_excess", e.id, t, s))
        x[df] = flow - e.limit_hi - 1e-6 if upper else e.limit_lo - 1e-6 - flow
        value, limit = (flow - x[df], e.limit_hi) if upper else (flow + x[df], e.limit_lo)
        tol = abs(value - limit)  # exact: value and limit are within a factor of 2
        assert (limit + tol if upper else limit - tol) == value
        key = ("flow_upper" if upper else "flow_lower", e.id, t, s)
        step = 2 * np.spacing(abs(value))
        for at, violated in ((tol, False), (tol - step, True), (tol + step, False)):
            got = flow_violations(vm, sol, at)
            assert got == _ptdf_loop_violations(vm, sol, at)
            assert (key in [spec[0] for spec in got]) == violated
    assert flow_violations(vm, types.SimpleNamespace(x=np.zeros(lp.n_vars)), 1e-6) == []


def test_lazy_rounds_keep_warm_start_past_an_empty_row(monkeypatch):
    # the vacuous row keeps its slack in the basis, so each round's warm basis counts it
    vc, scen = _congested_setup()
    lazy_lp, lazy_vm = build_slad_extensive(vc, case3_state(), scen, flows="lazy")
    lazy_lp = lazy_lp.with_rows([([], [], "<=", 1.0)])
    accepted = []
    init_basis = lpmod._Simplex._init_basis

    def recorded(self, warm):
        init_basis(self, warm)
        if warm is not None:
            accepted.append(np.array_equal(self.basis, warm[0]))

    monkeypatch.setattr(lpmod._Simplex, "_init_basis", recorded)
    sol, final_lp = solve_with_lazy_flows(lazy_lp, lazy_vm)
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
    res = run_benders(vc, case3_state(), scen, flows="lazy")
    assert res.status == "optimal"
    assert len(handed) > 1
    assert all(a is not b for a, b in zip(handed, handed[1:]))


def test_benders_with_lazy_flows_matches_full():
    vc, scen = _congested_setup()
    st = case3_state()
    res_full = run_benders(vc, st, scen, flows="full")
    res_lazy = run_benders(vc, st, scen, flows="lazy")
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

    def recorded(lp, vmap, opts, flows, warm=None):
        if vmap.get(("theta", 0)) is not None:
            handed.append((lp, dict(vmap.rows())))
        return solve(lp, vmap, opts, flows, warm)

    monkeypatch.setattr(benders, "_solve", recorded)
    res = run_benders(vc, st, scen, flows=flows)
    assert res.status == "optimal"
    assert len(handed) == res.iterations > 1
    for lp, rows in handed:
        n_cuts = sum(key[0] == "optimality_cut" for key in rows)
        want, want_vm = build_benders_master(vc, st, scen, res.cuts[:n_cuts], flows=flows)
        for got, exp in zip(lp.coo() + (lp.cost, lp.lower, lp.upper),
                            want.coo() + (want.cost, want.lower, want.upper)):
            assert got.tobytes() == exp.tobytes()
        assert (lp.senses.tolist(), lp.rhs.tolist(), lp.obj_const) == (
            want.senses.tolist(), want.rhs.tolist(), want.obj_const)
        assert rows == dict(want_vm.rows())
    assert n_cuts == len(res.cuts)


@pytest.mark.parametrize("flows", ["full", "lazy"])
def test_each_structure_compiles_once_per_run(flows, monkeypatch):
    from rtdispatch import benders

    vc, scen = _congested_setup()
    # a model's senses array is its structure's: with_rhs copies share it
    compiled, solved, owned = [], [], []  # senses, senses, (senses, registry)
    solve, append = benders._solve, benders.append_rows

    class Counted(lpmod._Structure):
        def __init__(self, *args):
            super().__init__(*args)
            compiled.append(self.senses)

    def recorded(lp, *args, **kwargs):
        solved.append(lp.senses)
        return solve_lp(lp, *args, **kwargs)

    def handed(lp, vmap, opts, flows, warm=None):
        owned.append((lp.senses, vmap))
        return solve(lp, vmap, opts, flows, warm)

    def extended(lp, vmap, specs):
        out = append(lp, vmap, specs)
        owned.append((out.senses, vmap))
        return out

    monkeypatch.setattr(lpmod, "_Structure", Counted)
    monkeypatch.setattr(benders, "solve_lp", recorded)
    monkeypatch.setattr(benders, "_solve", handed)
    monkeypatch.setattr(benders, "append_rows", extended)
    res = run_benders(vc, _moving_argmin_state(), scen, lp=LPOptions(backend="highs"),
                      flows=flows)
    assert res.status == "optimal"
    ids = [id(r) for r in compiled]
    assert len(set(ids)) == len(ids)  # no structure compiled twice
    assert set(ids) == {id(r) for r in solved} <= {id(r) for r, _ in owned}
    # an oracle is a model whose registry pins the first stage
    pinned = {id(r) for r, vmap in owned if "pin_rows" in vmap.meta}
    oracles = [r for r in compiled if id(r) in pinned]
    if flows == "full":  # the oracles fill one subproblem layout
        assert len(oracles) == 1 < scen.n_scenarios < res.subproblem_solves
    else:
        assert len(oracles) > scen.n_scenarios  # generated rows make new ones


# ---------------------------------------------------------------------------
# an oracle asked about a point again answers from what it remembers


def _oracle_at_optimum(backend):
    vc, scen = _congested_setup()
    x1 = run_benders(vc, _moving_argmin_state(), scen).x1
    return _ScenarioOracle(vc, scen, 0, 0, LPOptions(backend=backend)), x1


@pytest.mark.parametrize("backend", ["simplex", "highs"])
def test_a_repeated_query_solves_nothing(backend):
    oracle, x1 = _oracle_at_optimum(backend)
    first = oracle.query(x1)
    assert oracle.query(x1.copy()) is first
    # a vector built afresh with the same floats names the same point
    assert oracle.query(np.array(x1.tolist())) is first
    assert oracle.solves == 1


@pytest.mark.parametrize("backend", ["simplex", "highs"])
def test_a_point_one_bit_away_solves_afresh(backend):
    oracle, x1 = _oracle_at_optimum(backend)
    values = x1.tolist()
    zero = next(i for i, v in enumerate(values) if v == 0.0 and np.signbit(v) == 0)
    moved = next(i for i, v in enumerate(values) if v > 0.0)
    first = oracle.query(x1)
    points = [x1.copy(), x1.copy()]
    points[0][zero] = -0.0
    points[1][moved] = np.nextafter(x1[moved], np.inf)
    for n, x in enumerate(points, 2):
        oracle.query(x)
        assert oracle.solves == n
    # back at x1: HiGHS starts cold, so its first answer stands; on the
    # simplex the last point's optimal basis is x1's own, under which x1's
    # solve was also filed
    again = oracle.query(x1)
    assert again is first and oracle.solves == 3


def _forget(oracle):
    oracle._memo.clear()


@pytest.mark.parametrize("flows", ["full", "lazy"])
@pytest.mark.parametrize("backend", ["simplex", "highs"])
def test_an_earlier_answer_is_the_one_a_re_solve_gives(backend, flows):
    vc, scen = _congested_setup()
    x1 = run_benders(vc, _moving_argmin_state(), scen).x1
    moved = next(i for i, v in enumerate(x1.tolist()) if v > 0.0)
    y, z = x1.copy(), x1.copy()
    y[moved] *= 0.9
    z[moved] *= 0.8
    points = [x1, y] * 3 + [z, x1, y]  # no point repeats the one before it
    kept, fresh = (_ScenarioOracle(vc, scen, 0, 0, LPOptions(backend=backend), flows)
                   for _ in range(2))
    hits, seen = 0, {}  # point -> the row counts it was asked at or solved to
    for x in points:
        _forget(fresh)
        solves, rows = kept.solves, kept.lp.n_rows
        got, want = kept.query(x), fresh.query(x)
        counts = seen.setdefault(x.tobytes(), set())
        if kept.solves == solves:
            hits += 1
            assert rows in counts  # rows generated since make another model
        counts |= {rows, kept.lp.n_rows}
        assert repr(got) == repr(want)
        # the next warm start is the one a re-solve would have left
        a, b = kept._last, fresh._last
        for field in ("x", "duals", "reduced_costs"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        if backend == "highs":
            assert a.basis is b.basis is None
        else:
            assert [v.tobytes() for v in a.basis] == [v.tobytes() for v in b.basis]
        assert kept.lp.n_rows == fresh.lp.n_rows
    assert hits == len(points) - kept.solves > 0
    assert fresh.solves == len(points)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("flows", ["full", "lazy"])
@pytest.mark.parametrize("backend", ["simplex", "highs"])
def test_answer_reuse_leaves_the_run_unchanged(backend, flows, workers, monkeypatch):
    from rtdispatch import benders

    vc, scen = _congested_setup()
    cfg = BendersConfig(workers=workers)
    opts = {"lp": LPOptions(backend=backend), "flows": flows}
    reused = run_benders(vc, _moving_argmin_state(), scen, cfg, **opts)
    query = benders._ScenarioOracle.query

    def forgetful(self, x1):
        _forget(self)
        return query(self, x1)

    monkeypatch.setattr(benders._ScenarioOracle, "query", forgetful)
    solved = run_benders(vc, _moving_argmin_state(), scen, cfg, **opts)
    assert benders_digest(reused, vc) == benders_digest(solved, vc)
    assert [c.origin for c in reused.cuts] == [c.origin for c in solved.cuts]
    assert (reused.status, reused.iterations) == (solved.status, solved.iterations)
    assert reused.subproblem_solves < solved.subproblem_solves


@pytest.mark.parametrize("flows", ["full", "lazy"])
def test_remembered_answers_leave_a_slad_day_unchanged(flows, tmp_path, monkeypatch):
    # the bench's mid rung repeats earlier, non-consecutive oracle points on
    # HiGHS; every decision's run must be the one that solves them again
    import rtdispatch as rd
    from rtdispatch import benders, simulator

    monkeypatch.syspath_prepend(str(DATA.parent / "perfbench"))
    import gen

    paths = gen.write_inputs(tmp_path, gen.RUNGS["mid"], seed=3, instance=0)
    texts = {k: Path(p).read_text() for k, p in paths.items()}
    vc = rd.validate_case(rd.parse_case(texts["case"]))
    day = rd.parse_timeseries(texts["day"], vc)
    spec = rd.PolicySpec(kind="slad", horizon=4, history=rd.load_history(texts["history"], vc),
                         knn_k=2, lp=LPOptions(backend="highs"), flows=flows)
    query, run = benders._ScenarioOracle.query, simulator.run_benders
    hits, digests, last = [0], [], {}  # last: oracle -> the point asked before

    def counted(self, x1):
        solves, point = self.solves, x1.tobytes()
        out = query(self, x1)
        hits[0] += self.solves == solves and last.get(self) != point
        last[self] = point
        return out

    def digested(*args, **kwargs):
        res = run(*args, **kwargs)
        digests.append(benders_digest(res, args[0]))
        return res

    monkeypatch.setattr(simulator, "run_benders", digested)
    monkeypatch.setattr(benders._ScenarioOracle, "query", counted)
    reused = rd.run_simulation(vc, day, spec)
    assert hits[0] > 0
    remembered, digests[:] = list(digests), []
    monkeypatch.setattr(benders._ScenarioOracle, "query",
                        lambda self, x1: (_forget(self), query(self, x1))[1])
    solved = rd.run_simulation(vc, day, spec)
    assert digests == remembered
    assert repr(reused.total_cost) == repr(solved.total_cost)


# ---------------------------------------------------------------------------
# slad on the bundled days, pinned bit for bit

# sha256 of benders_digest per (day, backend, flows) at period 1; a change
# to any bound, cut, trace record or first-stage value moves it
BENDERS_RUNS = {
    "toy": {
        ("simplex", "full"):
            "147a6657ddc7ccb28533726edaa1b39a02512970dc0ca6a4cd09c4c8ac65d76d",
        ("simplex", "lazy"):
            "147a6657ddc7ccb28533726edaa1b39a02512970dc0ca6a4cd09c4c8ac65d76d",
        ("highs", "full"):
            "5d62c4f0d27f5248b0cd5480673fcdd96fb3cceb306c6153f832fc3ee0cf87b5",
        ("highs", "lazy"):
            "5d62c4f0d27f5248b0cd5480673fcdd96fb3cceb306c6153f832fc3ee0cf87b5",
    },
    "network": {
        ("simplex", "full"):
            "1a24ccfddb649bd8dbf575d37031a017eda1f490644b96f3eca43060ec20074f",
        ("simplex", "lazy"):
            "1a24ccfddb649bd8dbf575d37031a017eda1f490644b96f3eca43060ec20074f",
        ("highs", "full"):
            "b706fadb41a2db67be407824768ca7df45097984bf4f5c29615e24a1670d18a8",
        ("highs", "lazy"):
            "b706fadb41a2db67be407824768ca7df45097984bf4f5c29615e24a1670d18a8",
    },
}


@pytest.mark.parametrize("day", ["toy", "network"])
def test_benders_runs_are_pinned(day):
    b = bundled_day(day)
    got = {
        (backend, flows): benders_digest(run_benders(
            b.vc, b.state, b.scenarios, lp=LPOptions(backend=backend), flows=flows), b.vc)
        for backend in ("simplex", "highs") for flows in ("full", "lazy")
    }
    assert got == BENDERS_RUNS[day]


# ---------------------------------------------------------------------------
# the first stage travels as one vector


@pytest.mark.parametrize("flows", ["full", "lazy"])
@pytest.mark.parametrize("backend", ["simplex", "highs"])
@pytest.mark.parametrize("day", ["toy", "network"])
def test_the_first_stage_is_one_vector_from_plan_to_result(day, backend, flows, monkeypatch):
    # every reader of a solved model gives a read-only float64 vector in
    # first_stage_keys order, equal bit for bit to a walk of the keys
    from rtdispatch import benders

    b = bundled_day(day)
    opts = LPOptions(backend=backend)
    n = len(first_stage_keys(b.vc))

    def same(got, walked):
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        assert got.shape == (n,) and not got.flags.writeable
        assert got.tobytes() == np.array(walked, dtype=np.float64).tobytes()
        return got.tobytes()

    lp, vmap = build_lad(b.vc, initial_state(b.vc), b.actuals, flows=flows)
    sol = solve_lp(lp, opts)
    for t in range(b.actuals.horizon):  # the pd plan's slice at every period
        same(first_stage_values(sol, vmap, t), walked_first_stage_values(sol, vmap, t))

    def checked(name, walk):
        """Check every vector the decomposition reads through ``name``;
        returns the set of their bytes."""
        read, seen = getattr(benders, name), set()

        def wrapped(a, b):
            out = read(a, b)
            seen.add(same(out, walk(a, b)))
            return out

        monkeypatch.setattr(benders, name, wrapped)
        return seen

    slopes = checked("pin_duals", walked_pin_duals)
    points = checked("first_stage_values", walked_first_stage_values)
    res = run_benders(b.vc, b.state, b.scenarios, lp=opts, flows=flows)
    assert res.status == "optimal" and slopes and points
    assert same(res.x1, res.x1.tolist()) in points  # an argmin of the master
    for cut in res.cuts:
        if cut.origin[1] == "floor":
            same(cut.coef_x1, [0.0] * n)
        else:
            assert same(cut.coef_x1, cut.coef_x1.tolist()) in slopes
