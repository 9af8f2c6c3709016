"""Rolling five-minute dispatch simulation over one realized day.

Every policy, the hindsight benchmark included, is run through the same
loop: at each period the policy sees current telemetry plus whatever
forecast it is entitled to, commits its first-period dispatch, and that
commitment is settled against the realized demand through one shared
settlement model.  Costs are only ever accumulated from settled slices,
so policies differ in nothing but the information they use — the
comparisons stay fair by construction.  ``rtdispatch solve`` decides
through the same planning step, and every dispatch LP is solved through
one status check.  A commitment is a first-stage vector in
``first_stage_keys`` order, from any plan through to settlement.  A day
keeps one model layout per role (``ModelSlots``): a period whose model has
the structure of the one before swaps only its numbers.  A numerical
failure names its period and stage.

Policies:

* ``sced``  — single-period dispatch, no look-ahead;
* ``lad``   — deterministic look-ahead on a point forecast;
* ``slad``  — stochastic look-ahead solved by decomposition;
* ``plad``  — look-ahead on the realized future (clairvoyant, truncated);
* ``pd``    — one full-day plan on the realized day, made at the first
  period and committed slice by slice: the hindsight-optimal benchmark.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time

from .benders import BendersConfig, run_benders
from .forecast import HistoryStore, knn_scenarios, mean_forecast
from .formulation import (
    CostBreakdown,
    ModelSlots,
    build_lad,
    build_sced,
    check_commitment,
    extract_dispatch,
    first_stage_values,
    itemize_costs,
    structure_key,
)
from .lp import LPNumericalError, LPOptions, solve_lp
from .model import (
    ScenarioSet,
    SystemState,
    ValidatedCase,
    ValidationError,
    initial_state,
)

POLICY_KINDS = ("sced", "lad", "slad", "plad", "pd")


class SimulationError(RuntimeError):
    """A dispatch model failed mid-day; the message names the period."""


class IterationLimit(SimulationError):
    """The decomposition ran out of iterations before closing its gap."""


@dataclasses.dataclass
class PolicySpec:
    """What a policy is allowed to know and how it plans.

    ``scenarios`` is a day-long scenario set aligned with the actual day
    (same horizon); ``history`` generates scenarios by nearest neighbors
    on the observed prefix instead.  With neither, look-ahead policies
    fall back to a persistence forecast (current telemetry held flat).
    Period 0 of a window is telemetry, every generator at its realized
    capacity; later derates are forecast only for the generators the
    source tracks, the others at nameplate.  ``lp`` and ``flows`` apply to
    every model the policy solves, ``benders`` to the decomposition.
    """

    kind: str
    horizon: int = 12
    scenarios: ScenarioSet | None = None
    history: HistoryStore | None = None
    knn_k: int = 10
    benders: BendersConfig = dataclasses.field(default_factory=BendersConfig)
    lp: LPOptions = dataclasses.field(default_factory=LPOptions)
    flows: str = "full"

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValidationError(
                f"unknown policy '{self.kind}'; expected one of {POLICY_KINDS}"
            )
        if self.kind == "sced":
            self.horizon = 1
        if self.horizon < 1:
            raise ValidationError(f"horizon must be positive, got {self.horizon}")


@dataclasses.dataclass(frozen=True)
class StepRecord:
    period: int                 # absolute day period, 0-based
    cost: float                 # settled cost of this slice, $
    breakdown: CostBreakdown
    pg: dict                    # gen id -> committed MW
    reserve: dict               # (product, gen id) -> committed MW
    shortage: float             # settled unserved energy, MW
    surplus: float
    flow_excess: float          # total settled flowgate excess, MW
    available_mw: float         # deliverable headroom entering the period
    available_fast_mw: float
    planning_objective: float   # the look-ahead model's objective
    solve_ms: float
    benders_iterations: int = 0


@dataclasses.dataclass
class SimulationLog:
    case_name: str
    policy: str
    horizon: int
    periods: int
    steps: tuple
    totals: CostBreakdown

    @property
    def total_cost(self):
        return self.totals.total


def _check_actuals(actuals):
    if actuals.n_scenarios != 1:
        raise ValidationError("the realized day must be a single-scenario set")
    return actuals


def _realized_at(actuals, t):
    sc = actuals.scenarios[0]
    load = {b: float(v[t]) for b, v in sc.load.items()}
    pmax = {g: float(v[t]) for g, v in sc.pmax_override.items()}
    return load, pmax


def settle_first_period(vc, state, load, pmax, x1, lp_opts=None, flows="full", slots=None):
    """Price a committed first stage against the realized period.

    The commitment ``x1``, a first-stage vector, is pinned into a
    single-period model; demand imbalance and reserve shortfalls land on
    the priced slacks.  ``slots`` (a day's ``ModelSlots``) lets the
    settlements of a day share one model structure.  Returns the extracted
    dispatch and its cost breakdown."""
    def build():
        lp, vmap = build_sced(vc, state, load, pmax=pmax, flows=flows)
        return vmap.layout.settlement().sced(state, load, pmax, x1)

    lp, vmap = (slots or ModelSlots()).model(
        "settlement", structure_key(vc, flows, state.wall_clock, 1), build,
        lambda layout: layout.sced(state, load, pmax, x1))
    try:
        check_commitment(vmap, x1)
    except ValidationError as e:
        raise SimulationError(f"period {state.wall_clock}: {e}") from None
    sol = _solve_checked(lp, lp_opts, f"period {state.wall_clock}: settlement")
    d = extract_dispatch(sol, vmap)
    return d, itemize_costs(d, vc.case)


def _forecast_window(vc, policy, actuals, t, length):
    """The scenario window a policy sees at period t (period 0 realized)."""
    case = vc.case
    load, pmax = _realized_at(actuals, t)
    if policy.scenarios is not None:
        win = policy.scenarios.window(t, length)
    elif policy.history is not None:
        sc = actuals.scenarios[0]
        obs_load = {b: sc.load[b][: t + 1] for b in case.buses}
        obs_pmax = {
            g: vals[: t + 1]
            for g, vals in sc.pmax_override.items()
            if g in policy.history.gens
        }
        full = knn_scenarios(
            policy.history, obs_load, k=policy.knn_k, observed_pmax=obs_pmax
        )
        win = full.window(t, length)
    else:
        win = ScenarioSet.flat("hold", load, pmax, length)
    tracked = set(win.scenarios[0].pmax_override)
    if tracked != set(pmax):
        # period 0 is telemetry for every generator (its derate, else its
        # nameplate); after it, one the source does not track is at nameplate
        cap = {g.id: float(g.pmax) for g in case.generators if g.id in tracked | set(pmax)}
        pmax = {g: pmax.get(g, v) for g, v in cap.items()}
        win = dataclasses.replace(win, scenarios=tuple(dataclasses.replace(s, pmax_override={
            g: s.pmax_override.get(g, (v,) * win.horizon) for g, v in cap.items()})
            for s in win.scenarios))
    return win.with_period_data(0, load, pmax)


def _full_day_plan(vc, state, actuals, policy):
    """The ``pd`` plan: the look-ahead model over the entire realized day,
    solved; returns (solution, registry)."""
    lp, vmap = build_lad(vc, state, actuals, flows=policy.flows)
    sol = _solve_checked(lp, policy.lp, f"period {state.wall_clock}: full-day plan")
    return sol, vmap


def _plan_window(vc, policy, actuals, t, length):
    """The window a policy plans period t on: the realized one for ``sced``
    and ``plad`` and at the day's last period, else its forecast (its mean
    for ``lad``)."""
    if policy.kind in ("sced", "plad") or length == 1:
        return actuals.window(t, length)
    win = _forecast_window(vc, policy, actuals, t, length)
    if policy.kind == "lad" and win.n_scenarios > 1:
        win = mean_forecast(win)
    return win


def _plan_step(vc, state, policy, win, t, slots=None):
    """Choose the period-t commitment on window ``win``; returns (x1,
    objective, trace).

    A single-scenario window is one look-ahead LP (empty ``trace``); more
    go to the decomposition.  ``slots`` holds the day's model layouts."""
    slots = slots or ModelSlots()
    if win.n_scenarios == 1:
        lp, vmap = slots.model(
            "window", structure_key(vc, policy.flows, state.wall_clock, win.horizon),
            lambda: build_lad(vc, state, win, flows=policy.flows),
            lambda layout: layout.lad(state, win))
        sol = _solve_checked(lp, policy.lp, f"period {t}: dispatch")
        return first_stage_values(sol, vmap), float(sol.objective), ()

    res = run_benders(vc, state, win, policy.benders, lp=policy.lp, flows=policy.flows,
                      slots=slots)
    if res.status == "iteration_limit":
        raise IterationLimit(
            f"period {t}: decomposition used all {policy.benders.max_iter} iterations "
            f"with relative gap {res.trace[-1].gap:.3g}"
        )
    return res.x1, float(res.objective), res.trace


@contextlib.contextmanager
def _stage(t, name):
    """A numerical failure inside names period t and the stage."""
    try:
        yield
    except LPNumericalError as e:
        raise LPNumericalError(f"period {t}: {name}: {e}") from e


def _solve_checked(lp, opts, what):
    """Solve a dispatch model; any status but optimal is a SimulationError
    whose message starts with ``what``."""
    sol = solve_lp(lp, opts)
    if sol.status != "optimal":
        raise SimulationError(f"{what} came back '{sol.status}'")
    return sol


def run_simulation(vc, actuals, policy: PolicySpec) -> SimulationLog:
    """Roll a policy through the realized day, settling every slice.

    ``pd`` plans the whole realized day at the first slice, whose
    ``solve_ms`` carries the plan's time, and needs no forecast source."""
    if not isinstance(vc, ValidatedCase):
        raise TypeError("run_simulation requires a ValidatedCase")
    _check_actuals(actuals)
    pd = policy.kind == "pd"
    scen, hist = (None, None) if pd else (policy.scenarios, policy.history)
    if scen is not None and scen.horizon != actuals.horizon:
        raise ValidationError(
            f"scenario file covers {scen.horizon} periods but the "
            f"day has {actuals.horizon}"
        )
    if hist is not None and hist.horizon != actuals.horizon:
        raise ValidationError(
            f"history has {hist.horizon}-period days but the day "
            f"has {actuals.horizon}"
        )
    state = initial_state(vc)
    steps = []
    totals = CostBreakdown()
    T = actuals.horizon
    plan = None
    slots = ModelSlots()  # this day's model layouts, one per role
    for t in range(T):
        t0 = time.perf_counter()
        length = min(policy.horizon, T - t)
        load, pmax = _realized_at(actuals, t)
        avail = available_capacity(vc, state, pmax_now=pmax)
        if pd:
            if t == 0:
                with _stage(t, "plan"):
                    plan = _full_day_plan(vc, state, actuals, policy)
            sol, vmap = plan
            x1, objective, trace = first_stage_values(sol, vmap, t), float(sol.objective), ()
        else:
            win = _plan_window(vc, policy, actuals, t, length)
            with _stage(t, "decomposition" if win.n_scenarios > 1 else "plan"):
                x1, objective, trace = _plan_step(vc, state, policy, win, t, slots)
        with _stage(t, "settlement"):
            d, costs = settle_first_period(
                vc, state, load, pmax, x1, policy.lp, policy.flows, slots=slots
            )
        steps.append(
            _record(t, d, costs, avail, objective,
                    (time.perf_counter() - t0) * 1e3, len(trace))
        )
        totals = totals + costs
        state = SystemState(
            prev_dispatch={g.id: d.pg_at(g.id, 0) for g in vc.case.generators},
            wall_clock=t + 1,
        )
    return SimulationLog(
        case_name=vc.case.name,
        policy=policy.kind,
        horizon=T if pd else policy.horizon,
        periods=T,
        steps=tuple(steps),
        totals=totals,
    )


def _record(t, d, costs, avail, objective, ms, iters):
    # d is a settlement dispatch: one period, one scenario
    return StepRecord(
        period=t,
        cost=costs.total,
        breakdown=costs,
        pg={g: v for (g, _t, _s), v in d.pg.items()},
        reserve={(p, g): v for (p, g, _t, _s), v in d.reserve.items()},
        shortage=d.shortage.get((0, 0), 0.0),
        surplus=d.surplus.get((0, 0), 0.0),
        flow_excess=sum(d.flow_excess.values()),
        available_mw=avail.total,
        available_fast_mw=avail.fast,
        planning_objective=objective,
        solve_ms=ms,
        benders_iterations=iters,
    )


def run_perfect_dispatch(vc, actuals, lp_opts=None) -> SimulationLog:
    """The hindsight benchmark: ``run_simulation`` with the ``pd`` policy.

    One look-ahead plan over the entire realized day, each period's slice
    settled exactly like any policy's commitments, so the benchmark total
    is comparable dollar for dollar."""
    return run_simulation(vc, actuals, PolicySpec(kind="pd", lp=lp_opts or LPOptions()))


# ---------------------------------------------------------------------------
# operational summaries


@dataclasses.dataclass(frozen=True)
class AvailableCapacity:
    """Deliverable headroom over the next period: in all, and on the units
    able to move at least 1% of their capacity per minute."""

    total: float
    fast: float


def available_capacity(vc, state, pmax_now=None) -> AvailableCapacity:
    """How much output could be online one period from now.

    Per committed generator: the lesser of available capacity and the
    reachable level ``prev + ramp_up * step``, summed over all of them and
    over the fast ones."""
    case = vc.case if isinstance(vc, ValidatedCase) else vc
    pmax_now = pmax_now or {}
    fast = slow = 0.0
    for g in case.generators:
        if not g.committed(state.wall_clock):
            continue
        cap = float(pmax_now.get(g.id, g.pmax))
        prev = float(state.prev_dispatch.get(g.id, g.initial_output))
        avail = min(cap, prev + g.ramp_up * case.step_minutes)
        if g.pmax > 0 and g.ramp_up >= 0.01 * g.pmax:
            fast += avail
        else:
            slow += avail
    return AvailableCapacity(total=fast + slow, fast=fast)


def daily_savings(sced_cost, policy_cost):
    """Fractional cost reduction relative to the no-look-ahead baseline."""
    if sced_cost <= 0:
        raise ValidationError(
            f"baseline cost must be positive to compare against, got {sced_cost}"
        )
    return (sced_cost - policy_cost) / sced_cost


# ---------------------------------------------------------------------------
# log export

#: column order for step tables; stable across runs for byte-identical output
STEP_COLUMNS = (
    "period", "cost", "energy", "imports", "no_load", "reserves",
    "penalty_balance", "penalty_reserves", "penalty_flow",
    "shortage_mw", "surplus_mw", "flow_excess_mw",
    "available_mw", "available_fast_mw",
    "planning_objective", "benders_iterations",
)
TIMING_COLUMNS = ("solve_ms",)


def log_rows(log: SimulationLog, timings=False):
    """Step table as (header, rows of floats/ints) in documented order."""
    cols = STEP_COLUMNS + (TIMING_COLUMNS if timings else ())
    rows = []
    for s in log.steps:
        b = s.breakdown
        row = {
            "period": s.period + 1,
            "cost": s.cost,
            "energy": b.energy,
            "imports": b.imports,
            "no_load": b.no_load,
            "reserves": b.reserves,
            "penalty_balance": b.penalty_balance,
            "penalty_reserves": b.penalty_reserves,
            "penalty_flow": b.penalty_flow,
            "shortage_mw": s.shortage,
            "surplus_mw": s.surplus,
            "flow_excess_mw": s.flow_excess,
            "available_mw": s.available_mw,
            "available_fast_mw": s.available_fast_mw,
            "planning_objective": s.planning_objective,
            "benders_iterations": s.benders_iterations,
            "solve_ms": s.solve_ms,
        }
        rows.append([row[c] for c in cols])
    return list(cols), rows


def log_summary(log: SimulationLog):
    """Aggregate view of one day: totals plus the breakdown."""
    out = {
        "case": log.case_name,
        "policy": log.policy,
        "periods": log.periods,
        "horizon": log.horizon,
        "total_cost": log.total_cost,
    }
    out.update({k: v for k, v in log.totals.as_dict().items() if k != "total"})
    out["total_shortage_mw"] = sum(s.shortage for s in log.steps)
    out["total_surplus_mw"] = sum(s.surplus for s in log.steps)
    return out
