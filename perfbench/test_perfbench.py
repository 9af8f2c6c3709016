"""Self-tests of the benchmark: generator, span accounting, a known defect.

    python3 -m pytest perfbench -q

The repository's own suite (``tests/``) does not collect this file.
"""

import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import rtdispatch as rd  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from spans import Span, Tracer, inclusive_times, self_times  # noqa: E402


def _texts(rung, seed, instance=0):
    case, day, history = gen.make_system(rung, seed, instance)
    return (json.dumps(case), gen.day_csv(day, rung.periods),
            gen.history_csv(history, rung.periods))


def test_generator_is_a_function_of_seed_and_instance():
    rung = gen.RUNGS["small"]
    assert _texts(rung, 3) == _texts(rung, 3)
    assert _texts(rung, 3) != _texts(rung, 4)
    assert _texts(rung, 3, 0) != _texts(rung, 3, 1)


@pytest.mark.parametrize("name", sorted(gen.RUNGS))
def test_generated_files_read_back_through_the_public_parsers(tmp_path, name):
    rung = gen.RUNGS[name]
    paths = gen.write_inputs(tmp_path, rung, seed=7)
    with open(paths["case"]) as fh:
        vc = rd.validate_case(rd.parse_case(fh.read()))
    with open(paths["day"]) as fh:
        day = rd.parse_timeseries(fh.read(), vc)
    with open(paths["history"]) as fh:
        history = rd.load_history(fh.read(), vc)
    case = vc.case
    assert (len(case.buses), len(case.generators), len(case.branches)) == (
        rung.buses, rung.gens, rung.branches)
    assert day.horizon == history.horizon == rung.periods
    assert len(history) == rung.history_days


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_one_pass_times_enough_decisions_for_p90(name):
    w = run.WORKLOADS[name]
    rolling = [k for k in w.policies if k != "pd"]
    assert w.instances * len(rolling) * gen.RUNGS[w.rung].periods >= run.MIN_DECISIONS


def test_replay_times_are_rescaled_to_the_reference_pace():
    ref = run.REFERENCE_PROBE_S
    reps = types.SimpleNamespace(replays={
        (0, "lad"): [(2.0, [500.0, 1500.0], (2 * ref, 0.0))],   # half pace
        (0, "pd"): [(2.0, [1500.0, 500.0], (ref, 1.0))],        # 1 s stolen
    })
    periods_per_s, lat = run.replay_metrics(reps)
    assert periods_per_s == pytest.approx(4 / (1.0 + 1.0))
    assert lat == pytest.approx([250.0, 750.0])   # pd's plan charge left out
    periods_per_s, lat = run.replay_metrics(reps, scaled=False)
    assert periods_per_s == pytest.approx(4 / (2.0 + 2.0))
    assert lat == [500.0, 1500.0]


def _span(name, start, end, parent=None):
    s = Span(name, start, parent)
    s.end = end
    return s


def test_self_time_is_duration_minus_children():
    root = _span("root", 0.0, 10.0)
    child = _span("child", 2.0, 5.0, root)
    leaf = _span("leaf", 3.0, 4.0, child)
    spans = [root, child, leaf]
    own = self_times(spans)
    assert own[id(root)] == pytest.approx(7.0)
    assert own[id(child)] == pytest.approx(2.0)
    assert own[id(leaf)] == pytest.approx(1.0)
    assert inclusive_times(spans, own)[id(root)] == pytest.approx(10.0)


def test_concurrent_spans_split_the_instants_they_share():
    root = _span("root", 0.0, 10.0)
    a = _span("a", 1.0, 5.0, root)   # two workers, overlapping on [3, 5]
    b = _span("b", 3.0, 7.0, root)
    own = self_times([root, a, b])
    assert own[id(a)] == pytest.approx(3.0)
    assert own[id(b)] == pytest.approx(3.0)
    assert own[id(root)] == pytest.approx(4.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_tracer_records_parents_and_restores_originals():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2
    original = ns.inner
    tracer = Tracer()
    tracer.wrap(ns, "outer", "outer")
    tracer.wrap(ns, "inner", "inner", summarize=lambda a, k, r: r)
    assert ns.outer(1) == 4
    tracer.restore()
    assert ns.inner is original
    outer, inner = tracer.spans
    assert inner.parent is outer and outer.parent is None
    assert inner.info == 2


@pytest.mark.xfail(strict=True, reason=(
    "known defect: with flows='lazy' the simulator calls solve_lp directly, so "
    "sced/lad/plad/pd plans and settlement never get flowgate rows"))
def test_lazy_flowgates_settle_like_full_flowgates():
    data = os.path.join(ROOT, "data")
    with open(os.path.join(data, "network_case.json")) as fh:
        vc = rd.validate_case(rd.parse_case(fh.read()))
    with open(os.path.join(data, "network_day.csv")) as fh:
        day = rd.parse_timeseries(fh.read(), vc)
    totals = {
        flows: rd.run_simulation(vc, day, rd.PolicySpec(kind="sced", flows=flows)).total_cost
        for flows in ("full", "lazy")
    }
    assert totals["lazy"] == pytest.approx(totals["full"], rel=1e-9)


@pytest.mark.xfail(strict=True, raises=rd.SimulationError, reason=(
    "known defect: the reference simplex treats a basis as feasible while its "
    "summed bound violation is below feas_tol * (1 + sum|b|); the decomposition's "
    "-1e12 theta floor cuts stretch that to ~1e4, so a slad first stage can break "
    "a ramp limit by ~5e-5 MW and its settlement comes back infeasible"))
def test_slad_on_the_simplex_commits_a_first_stage_that_settles(tmp_path):
    paths = gen.write_inputs(tmp_path, gen.RUNGS["small"], seed=12, instance=3)
    with open(paths["case"]) as fh:
        vc = rd.validate_case(rd.parse_case(fh.read()))
    with open(paths["day"]) as fh:
        day = rd.parse_timeseries(fh.read(), vc)
    with open(paths["history"]) as fh:
        history = rd.load_history(fh.read(), vc)
    spec = rd.PolicySpec(kind="slad", horizon=4, history=history, knn_k=4)
    rd.run_simulation(vc, day, spec)
