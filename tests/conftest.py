"""Fixtures: a two-generator textbook system and a 3-bus congested system."""

import dataclasses

import numpy as np
import pytest

from rtdispatch.model import (
    Branch,
    Generator,
    PenaltyPrices,
    ReserveRequirements,
    Scenario,
    ScenarioSet,
    SystemCase,
    SystemState,
    check_scenarios,
    validate_case,
)

# ---------------------------------------------------------------------------
# two-generator system: one bus, no network, no reserves.  Prices are
# $/MWh so that a 5-minute period prices energy at 10 and 20 $/MW-period
# and shortage at 1000 $/MW-period.


def make_toy_case():
    return SystemCase(
        name="toy2",
        buses=("B1",),
        generators=(
            Generator(
                id="G1", bus="B1", pmin=0.0, pmax=20.0, initial_output=0.0,
                ramp_up=4.0, ramp_down=4.0, segments=((20.0, 120.0),),
            ),
            Generator(
                id="G2", bus="B1", pmin=0.0, pmax=30.0, initial_output=0.0,
                ramp_up=2.0, ramp_down=2.0, segments=((30.0, 240.0),),
            ),
        ),
        branches=(),
        reserve_req=ReserveRequirements(reg=0.0, rspin=0.0, op=0.0),
        penalties=PenaltyPrices(
            shortage=12000.0, surplus=12000.0, reg=55000.0, rspin=52500.0, op=50000.0
        ),
        step_minutes=5.0,
    )


@pytest.fixture(scope="session")
def toy():
    return validate_case(make_toy_case())


def toy_state():
    return SystemState(prev_dispatch={"G1": 0.0, "G2": 0.0}, wall_clock=0)


def make_toy_day():
    """The realized day: demand 10 then 35."""
    return ScenarioSet(
        scenarios=(Scenario(id="actual", prob=1.0, load={"B1": (10.0, 35.0)}),),
        horizon=2,
    )


def make_toy_scenarios():
    """Two equiprobable demand futures (29 or 37) after an observed 10."""
    return ScenarioSet(
        scenarios=(
            Scenario(id="lo", prob=0.5, load={"B1": (10.0, 29.0)}),
            Scenario(id="hi", prob=0.5, load={"B1": (10.0, 37.0)}),
        ),
        horizon=2,
    )


@pytest.fixture
def toy_day():
    return make_toy_day()


@pytest.fixture
def toy_scenarios():
    return make_toy_scenarios()


# ---------------------------------------------------------------------------
# 3-bus system: two bid segments on G1, an import resource, two monitored
# flowgates, nonzero reserve requirements.  Sized so every ramp window
# intersects [pmin, pmax] regardless of the trial first stage, keeping
# recourse feasible for any master point.

_BASE_LOAD = {
    "B1": (38.0, 40.0, 43.0, 45.0, 44.0, 42.0, 41.0, 39.0),
    "B2": (50.0, 53.0, 56.0, 58.0, 57.0, 54.0, 52.0, 50.0),
    "B3": (22.0, 24.0, 26.0, 27.0, 26.0, 25.0, 24.0, 23.0),
}
_BASE_G3 = (28.0, 26.0, 22.0, 20.0, 24.0, 27.0, 30.0, 32.0)


def make_case3(reserve_scale=1.0, limit_shift=0.0, price_jitter=None):
    jit = price_jitter if price_jitter is not None else (lambda x: x)
    return SystemCase(
        name="case3",
        buses=("B1", "B2", "B3"),
        generators=(
            Generator(
                id="G1", bus="B1", pmin=10.0, pmax=60.0, initial_output=30.0,
                ramp_up=1.5, ramp_down=1.5,
                segments=((20.0, jit(18.0)), (30.0, jit(26.0))),
                no_load_cost=80.0,
                reserve_caps={"reg": 6.0, "spin": 12.0},
                reserve_prices={"reg": 4.0, "spin": 2.5},
            ),
            Generator(
                id="G2", bus="B2", pmin=0.0, pmax=45.0, initial_output=20.0,
                ramp_up=3.0, ramp_down=3.0, segments=((45.0, jit(32.0)),),
                no_load_cost=40.0,
                reserve_caps={"spin": 10.0, "supp_on": 15.0},
                reserve_prices={"spin": 2.0, "supp_on": 1.2},
            ),
            Generator(
                id="G3", bus="B3", pmin=0.0, pmax=40.0, initial_output=15.0,
                ramp_up=8.0, ramp_down=8.0, segments=((40.0, 5.0),),
            ),
            Generator(
                id="GI", bus="B1", pmin=0.0, pmax=300.0, initial_output=0.0,
                ramp_up=60.0, ramp_down=60.0, segments=((300.0, 1000.0),),
                is_import=True,
            ),
        ),
        branches=(
            Branch(
                id="E1", ptdf={"B1": 0.4, "B2": -0.3, "B3": 0.1},
                limit_lo=-18.0 - limit_shift, limit_hi=18.0 + limit_shift,
                violation_price=1500.0,
            ),
            Branch(
                id="E2", ptdf={"B1": 0.1, "B2": 0.25, "B3": -0.35},
                limit_lo=-22.0 - limit_shift, limit_hi=22.0 + limit_shift,
                violation_price=1500.0,
            ),
        ),
        reserve_req=ReserveRequirements(
            reg=5.0 * reserve_scale, rspin=12.0 * reserve_scale, op=20.0 * reserve_scale
        ),
        penalties=PenaltyPrices(
            shortage=100000.0, surplus=100000.0, reg=55000.0, rspin=52500.0, op=50000.0
        ),
        step_minutes=5.0,
    )


def make_case3_unmonitored():
    """case3 with E1's limits 14 MW tighter, so its excess is priced, and E2
    unmonitored: no flow-excess column and no flowgate rows for E2."""
    case = make_case3(limit_shift=-14.0)
    e1, e2 = case.branches
    return dataclasses.replace(case, branches=(e1, dataclasses.replace(e2, monitored=False)))


@pytest.fixture(scope="session")
def case3():
    return validate_case(make_case3())


def case3_state(case=None):
    prev = {"G1": 30.0, "G2": 20.0, "G3": 15.0, "GI": 0.0}
    return SystemState(prev_dispatch=prev, wall_clock=0)


def case3_scenarios(seed=0, horizon=6, n=5, load_scale=1.0):
    """Stochastic window: common first period, drifting noisy futures."""
    rng = np.random.default_rng(seed)
    scens = []
    for i in range(n):
        drift = rng.normal(0.0, 0.05)
        load = {}
        for b, base in _BASE_LOAD.items():
            vals = [base[0] * load_scale]
            for t in range(1, horizon):
                v = base[t % len(base)] * load_scale * (1.0 + drift * t / horizon)
                vals.append(max(0.0, v + rng.normal(0.0, 1.2)))
            load[b] = tuple(vals)
        g3 = [_BASE_G3[0]]
        for t in range(1, horizon):
            g3.append(float(np.clip(_BASE_G3[t % 8] + rng.normal(0.0, 2.5), 0.0, 40.0)))
        scens.append(
            Scenario(id=f"s{i + 1}", prob=1.0 / n, load=load, pmax_override={"G3": tuple(g3)})
        )
    ss = ScenarioSet(scenarios=tuple(scens), horizon=horizon)
    return check_scenarios(ss)


def case3_actual_day(seed=0, horizon=8, load_scale=1.0):
    """One realized day: base profiles plus noise, deterministic set."""
    rng = np.random.default_rng(10_000 + seed)
    load = {
        b: tuple(
            max(0.0, base[t % len(base)] * load_scale + rng.normal(0.0, 1.5))
            for t in range(horizon)
        )
        for b, base in _BASE_LOAD.items()
    }
    g3 = tuple(
        float(np.clip(_BASE_G3[t % 8] + rng.normal(0.0, 2.0), 0.0, 40.0))
        for t in range(horizon)
    )
    ss = ScenarioSet(
        scenarios=(Scenario(id="actual", prob=1.0, load=load, pmax_override={"G3": g3}),),
        horizon=horizon,
    )
    return check_scenarios(ss)


def case3_variant(seed):
    """A randomized clone of the 3-bus system and a matching window."""
    rng = np.random.default_rng(20_000 + seed)
    case = make_case3(
        reserve_scale=float(rng.uniform(0.6, 1.4)),
        limit_shift=float(rng.uniform(-4.0, 6.0)),
        price_jitter=lambda x: x * float(rng.uniform(0.85, 1.2)),
    )
    vc = validate_case(case)
    scen = case3_scenarios(seed=int(rng.integers(0, 2**31)), horizon=6, n=5,
                           load_scale=float(rng.uniform(0.85, 1.1)))
    return vc, scen
