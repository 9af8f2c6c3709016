"""A rolling day's model slots: one layout per role, refilled with numbers.

Every model a day hands out must be, byte for byte and registry for
registry, what a fresh public-builder call gives; a day holds at most one
layout per role and makes each structure once: a shorter window's layout
is derived from the one the role holds, any other is built."""

import dataclasses
import gc
import hashlib
import json
import weakref

import numpy as np
import pytest

from rtdispatch import benders, simulator
from rtdispatch.forecast import load_history
from rtdispatch.formulation import (
    _FILLED, ModelSlots, _Layout, build_benders_master, build_benders_subproblem, build_lad,
    build_sced, build_slad_extensive, first_stage_columns, first_stage_keys)
from rtdispatch.lp import LPOptions
from rtdispatch.model import initial_state, parse_case, parse_timeseries, validate_case
from rtdispatch.simulator import PolicySpec, run_simulation

from helpers import DATA

POLICIES = ("sced", "lad", "slad", "plad", "pd")
#: the builders a slot calls on a miss, where the benchmark wraps them
BUILDERS = ((simulator, "build_lad"), (simulator, "build_sced"),
            (benders, "build_benders_master"), (benders, "build_benders_subproblem"))


def _day(name, kind, backend="simplex", flows="full"):
    """(case, realized day, policy) on a bundled day.  "switching" is the
    network day with G3 committed at period 0 and from period 3 on only,
    so its models change structure mid-day and back."""
    case = parse_case((DATA / f"{'toy' if name == 'toy' else 'network'}_case.json").read_text())
    if name == "switching":
        gens = list(case.generators)
        gens[2] = dataclasses.replace(gens[2], commit=(True, False, False, True))
        case = dataclasses.replace(case, generators=tuple(gens))
    vc = validate_case(case)
    actuals = parse_timeseries((DATA / f"{'toy' if name == 'toy' else 'network'}_day.csv")
                               .read_text(), vc)
    opts = dict(kind=kind, lp=LPOptions(backend=backend), flows=flows)
    if name == "toy":
        scen = parse_timeseries((DATA / "toy_scenarios.csv").read_text(), vc)
        return vc, actuals, PolicySpec(scenarios=scen, **opts)
    hist = load_history((DATA / "network_history.csv").read_text(), vc)
    return vc, actuals, PolicySpec(horizon=4, knn_k=3, history=hist, **opts)


def _numbers(lp):
    return (lp.cost, lp.lower, lp.upper, lp.rhs)


def _same_model(got, want):
    (lp, vm), (lp2, vm2) = got, want
    for a, b in zip((*lp.coo(), lp.senses, *_numbers(lp)),
                    (*lp2.coo(), lp2.senses, *_numbers(lp2)), strict=True):
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())
    assert repr(lp.obj_const) == repr(lp2.obj_const)
    assert list(vm.columns()) == list(vm2.columns())
    assert list(vm.rows()) == list(vm2.rows())
    assert vm.meta == vm2.meta and vm.meta is not vm2.meta


@pytest.mark.parametrize("flows", ["full", "lazy"])
@pytest.mark.parametrize("backend", ["simplex", "highs"])
@pytest.mark.parametrize("kind", POLICIES)
@pytest.mark.parametrize("day", ["toy", "network", "switching"])
def test_every_model_a_day_hands_out_is_a_fresh_build(day, kind, backend, flows,
                                                      monkeypatch):
    model, handed, misses = ModelSlots.model, [], []

    def checked(self, role, key, build, fill):
        before = self._held.get(role)
        out = model(self, role, key, build, fill)
        if self._held[role] is not before:
            misses.append((role, _structure(*out)))
        fresh = build()  # the public builder, on a layout of its own
        assert fresh[1].layout is not out[1].layout
        _same_model(out, fresh)
        # every number is the fill's: no layout placeholder is left
        assert not any(np.isnan(a).any() for a in _numbers(out[0]))
        handed.append(role)
        return out

    monkeypatch.setattr(ModelSlots, "model", checked)
    vc, actuals, policy = _day(day, kind, backend, flows)
    log = run_simulation(vc, actuals, policy)
    settled = actuals.horizon
    assert handed.count("settlement") == settled == len(log.steps)
    assert ("subproblem" in handed) == ("master" in handed) == (kind == "slad")
    # a structure is built twice only where the commitment moves and back
    assert (len(set(misses)) < len(misses)) == (day == "switching")


def _system(name):
    """(case, realized day) of a bundled day or of a bench rung at seed 3.
    "cycling" is the network day with G1, which has a no-load cost, off at
    every third period from period 1, so its no-load cost differs by
    period."""
    if name in ("toy", "network", "switching"):
        return _day(name, "lad")[:2]
    if name == "cycling":
        vc, actuals = _system("network")
        gens = list(vc.case.generators)
        gens[0] = dataclasses.replace(gens[0], commit=tuple(
            t % 3 != 1 for t in range(actuals.horizon)))
        return validate_case(dataclasses.replace(vc.case, generators=tuple(gens))), actuals
    import gen  # the bench's generator, from perfbench/

    case, day, _ = gen.make_system(gen.RUNGS[name], 3)
    vc = validate_case(parse_case(json.dumps(case)))
    return vc, parse_timeseries(gen.day_csv(day, gen.RUNGS[name].periods), vc)


def _same_layout(got, want):
    """The layouts agree on their placeholder models, registries, fill index
    arrays, cut points and first-stage columns."""
    _same_model((got.lp, got.vmap), (want.lp, want.vmap))
    for name in _FILLED:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name
    assert (got.cells, got.ramp_ends) == (want.cells, want.ramp_ends)
    for t in range(len(want.tpls)):
        assert first_stage_columns(got, t).tobytes() == first_stage_columns(want, t).tobytes()


@pytest.mark.parametrize("start", [0, 1])
@pytest.mark.parametrize("name", ["toy", "network", "switching", "cycling", "small", "mid",
                                  "large"])
def test_a_shrunk_layout_is_a_fresh_build(name, start, monkeypatch):
    monkeypatch.syspath_prepend(str(DATA.parent / "perfbench"))
    vc, actuals = _system(name)
    state = initial_state(vc)

    def layout(horizon):
        """The fresh layout over ``horizon`` periods and the fill that gives
        its model."""
        win = actuals.window(0, horizon)
        if start:
            model = build_benders_subproblem(vc, win, 0)
            fill = lambda held: held.subproblem(win, 0, None, 0)  # noqa: E731
        else:
            model = build_lad(vc, state, win)
            fill = lambda held: held.lad(state, win)  # noqa: E731
        return model[1].layout, fill

    shortest = 1 + start
    for horizon in range(shortest + 1, min(6, actuals.horizon) + 1):
        held, chained = layout(horizon)[0], None
        for length in range(horizon - 1, shortest - 1, -1):
            want, fill = layout(length)
            chained = (chained or held).truncated(length)
            for got in (held.truncated(length), chained):
                _same_layout(got, want)
                _same_model(fill(got), fill(want))


def _structure(lp, vm):
    h = hashlib.sha256()
    for a in (*lp.coo(), lp.senses, lp.lower):
        h.update(a.tobytes())
    h.update(repr((list(vm.columns()), list(vm.rows()))).encode())
    return h.hexdigest()


@pytest.mark.parametrize("kind", POLICIES)
@pytest.mark.parametrize("day", ["toy", "network"])
def test_a_day_builds_one_layout_per_structure_and_holds_one_per_role(day, kind,
                                                                     monkeypatch):
    built, derived, structures, held = [0], [0], set(), []
    for owner, name in BUILDERS:
        def counted(*args, _build=getattr(owner, name), **kwargs):
            built[0] += 1
            return _build(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    truncated = _Layout.truncated

    def cut(self, horizon):
        derived[0] += 1
        return truncated(self, horizon)

    monkeypatch.setattr(_Layout, "truncated", cut)
    model, asked, shrinks = ModelSlots.model, {}, [0]

    def recorded(self, role, key, build, fill):
        shrinks[0] += role in asked and key[2] < asked[role]
        asked[role] = key[2]
        out = model(self, role, key, build, fill)
        structures.add((role, _structure(*out)))
        assert self._held[role][1] is out[1].layout
        held.append(weakref.ref(out[1].layout))
        return out

    settle = simulator.settle_first_period

    def settled(*args, **kwargs):
        out = settle(*args, **kwargs)
        gc.collect()
        # a layout a slot let go of is freed: the day holds one per role
        assert len({id(r()) for r in held if r() is not None}) <= 4
        return out

    monkeypatch.setattr(ModelSlots, "model", recorded)
    monkeypatch.setattr(simulator, "settle_first_period", settled)
    vc, actuals, policy = _day(day, kind, "highs")
    run_simulation(vc, actuals, policy)
    # the day's windows only shrink and its commitment is fixed, so each
    # role builds one layout and derives each shorter one from the last;
    # pd builds its plan once
    roles = 4 if kind == "slad" else 2 - (kind == "pd")
    assert len({role for role, _ in structures}) == roles
    assert built[0] == roles + (kind == "pd")
    assert derived[0] == shrinks[0] == len(structures) - roles
    # the day's last windows shrink a period at a time, to one period (a
    # subproblem's to two)
    n = min(policy.horizon, actuals.horizon)
    assert shrinks[0] == {"lad": n - 1, "plad": n - 1, "slad": n - 2}.get(kind, 0)


def test_a_dropped_layout_is_freed_without_the_cyclic_collector(toy, toy_scenarios):
    # a layout that its own registry pointed back at would wait, with every
    # array it holds, for the cyclic collector; the test above collects
    # first, so it cannot see such a cycle
    from conftest import make_toy_day, toy_state

    state, day = toy_state(), make_toy_day()
    floors = [benders.Cut(scenario=s, coef_x1=np.zeros(len(first_stage_keys(toy))),
                          rhs_const=benders.INIT_FLOOR) for s in range(2)]

    def cut(layout):
        return layout, layout.truncated(1)

    def settled(layout):
        return layout, layout.settlement()

    builds = {
        "lad": lambda: cut(build_lad(toy, state, day)[1].layout),
        "subproblem": lambda: (build_benders_subproblem(toy, toy_scenarios, 0)[1].layout,),
        "master": lambda: (build_benders_master(toy, state, toy_scenarios, floors)[1].layout,),
        "settlement": lambda: settled(build_sced(toy, state, {"B1": 10.0})[1].layout),
        "extensive": lambda: (build_slad_extensive(toy, state, toy_scenarios)[1].layout,),
    }
    enabled = gc.isenabled()
    gc.disable()
    try:
        for name, build in builds.items():
            refs = [weakref.ref(layout) for layout in build()]
            assert [r() for r in refs] == [None] * len(refs), name
    finally:
        if enabled:
            gc.enable()


def test_a_highs_refill_solves_as_a_fresh_build():
    # a refill on the held layout, with new or equal numbers, whether its
    # arrays are the held model's or copies, solves as a fresh build does
    from rtdispatch.formulation import build_lad
    from rtdispatch.lp import solve_lp
    from rtdispatch.model import initial_state

    highs = LPOptions(backend="highs")
    vc, actuals, _ = _day("network", "lad")
    state = initial_state(vc)
    nudged = dataclasses.replace(state, prev_dispatch={
        g: v + 1.0 for g, v in state.prev_dispatch.items()})
    lp, vmap = build_lad(vc, state, actuals.window(0, 4))
    solve_lp(lp, highs)
    layout = vmap.layout
    again = layout.lad(state, actuals.window(0, 4))[0]
    for refill, at in (
            (layout.lad(nudged, actuals.window(0, 4))[0], nudged),
            (again, state),
            (again.with_numbers(cost=again.cost.copy(), upper=again.upper.copy()), state),
            (layout.lad(state, actuals.window(0, 4))[0], state)):
        got = solve_lp(refill, highs)
        want = solve_lp(build_lad(vc, at, actuals.window(0, 4))[0], highs)
        assert repr(got.objective) == repr(want.objective)
        for field in ("x", "duals", "reduced_costs"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
    # other loads and derates: the numbers of a fresh build
    moved = layout.lad(state, actuals.window(4, 4))[0]
    for a, b in zip(_numbers(moved), _numbers(build_lad(vc, state, actuals.window(4, 4))[0])):
        assert a.tobytes() == b.tobytes()
