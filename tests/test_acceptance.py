"""Acceptance suite: the end-to-end guarantees this package makes.

One test per numbered criterion.  Each test prints a single summary line
(visible with ``pytest -s`` or on failure); the pass/fail verdict is the
test outcome itself.  Criteria 1, 2, 4 and 5 run on the bundled reference
simplex; the bulk statistical criteria use the HiGHS backend for every
route of each comparison, so no check ever mixes engines.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from rtdispatch.benders import BendersConfig, run_benders, solve_with_lazy_flows
from rtdispatch.forecast import HistoryDay, HistoryStore
from rtdispatch.formulation import (
    build_benders_subproblem,
    build_lad,
    build_sced,
    build_slad_extensive,
    extract_dispatch,
    itemize_costs,
)
from rtdispatch.lp import LPOptions, solve_lp
from rtdispatch.model import ScenarioSet, validate_case
from rtdispatch.simulator import (
    PolicySpec,
    daily_savings,
    run_perfect_dispatch,
    run_simulation,
)

from conftest import (
    case3_actual_day,
    case3_scenarios,
    case3_state,
    case3_variant,
    make_case3,
    make_toy_case,
    make_toy_day,
    make_toy_scenarios,
    toy_state,
)
from helpers import pinned_rhs, stage_vector

HIGHS = LPOptions(backend="highs")


def _ok(n, detail):
    print(f"criterion {n:2d}: PASS — {detail}")


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


def _unlimited_ramps(case):
    gens = tuple(
        dataclasses.replace(g, ramp_up=1e4, ramp_down=1e4) for g in case.generators
    )
    return validate_case(dataclasses.replace(case, generators=gens))


# ---------------------------------------------------------------------------
# 1. the two-generator day, slice by slice


def test_criterion_01_two_generator_day_reproduced_exactly(toy):
    t0 = time.perf_counter()
    day, scen = make_toy_day(), make_toy_scenarios()
    # per policy: (G1, G2) MW per period, settled $ per period, shortage MW
    expected = {
        "sced": ([(10.0, 0.0), (20.0, 10.0)], [100.0, 5400.0], [0.0, 5.0]),
        "lad": ([(7.0, 3.0), (20.0, 13.0)], [130.0, 2460.0], [0.0, 2.0]),
        "slad": ([(3.0, 7.0), (20.0, 15.0)], [170.0, 500.0], [0.0, 0.0]),
    }
    for kind, (pg, cost, short) in expected.items():
        spec = PolicySpec(
            kind=kind, horizon=12, scenarios=None if kind == "sced" else scen
        )
        log = run_simulation(toy, day, spec)
        for t in range(2):
            assert abs(log.steps[t].pg["G1"] - pg[t][0]) <= 1e-6
            assert abs(log.steps[t].pg["G2"] - pg[t][1]) <= 1e-6
            assert abs(log.steps[t].cost - cost[t]) <= 1e-6
            assert abs(log.steps[t].shortage - short[t]) <= 1e-6
    wall = time.perf_counter() - t0
    assert wall < 1.0
    _ok(1, f"18 table cells within 1e-6; wall {wall * 1e3:.0f} ms")


# ---------------------------------------------------------------------------
# 2. decomposition agrees with the extensive form


def test_criterion_02_decomposition_matches_extensive_form(toy, case3):
    t0 = time.perf_counter()
    fixtures = [
        ("toy", toy, toy_state(), make_toy_scenarios()),
        ("case3", case3, case3_state(), case3_scenarios(seed=43, horizon=6, n=5)),
    ]
    rels = {}
    for name, vc, st, scen in fixtures:
        res = run_benders(vc, st, scen, BendersConfig())
        assert res.status == "optimal"
        ext = solve_lp(build_slad_extensive(vc, st, scen)[0])
        assert ext.status == "optimal"
        rels[name] = _rel(res.objective, ext.objective)
        assert rels[name] <= 1e-5
    wall = time.perf_counter() - t0
    assert wall < 30.0
    _ok(2, "relative error " + ", ".join(f"{k} {v:.2e}" for k, v in rels.items())
        + f"; wall {wall:.1f} s")


# ---------------------------------------------------------------------------
# 3. bound invariants across randomized systems


def test_criterion_03_bound_invariants_on_random_variants():
    st = case3_state()
    cfg = BendersConfig(max_iter=80)
    optimal = 0
    worst_rel = 0.0
    for i in range(50):
        vc, scen = case3_variant(i)
        res = run_benders(vc, st, scen, cfg, lp=HIGHS)
        tr = res.trace
        for a, b in zip(tr, tr[1:]):
            scale = max(1.0, abs(b.lower))
            assert b.lower >= a.lower - 1e-6 * scale, f"variant {i}: LB decreased"
            assert b.upper <= a.upper + 1e-6 * scale, f"variant {i}: UB increased"
        for r in tr:
            assert r.lower <= r.upper + 1e-6 * max(1.0, abs(r.upper)), (
                f"variant {i}: bounds crossed"
            )
        if res.status == "optimal":
            optimal += 1
            ext = solve_lp(build_slad_extensive(vc, st, scen)[0], HIGHS)
            rel = _rel(res.objective, ext.objective)
            worst_rel = max(worst_rel, rel)
            assert rel <= 1e-5, f"variant {i}: off the oracle by {rel:.2e}"
    assert optimal == 50
    _ok(3, f"50/50 variants optimal, monotone bounds, worst oracle error "
           f"{worst_rel:.2e}")


# ---------------------------------------------------------------------------
# 4. reduction identities


def test_criterion_04_reduction_identities(toy, case3):
    rels = []

    # one scenario: the stochastic model is the deterministic look-ahead
    toy_one = ScenarioSet(
        scenarios=(dataclasses.replace(make_toy_scenarios().scenarios[1], prob=1.0),),
        horizon=2,
    )
    for vc, st, scen in (
        (toy, toy_state(), toy_one),
        (case3, case3_state(), case3_scenarios(seed=9, horizon=6, n=1)),
    ):
        two_stage = solve_lp(build_slad_extensive(vc, st, scen)[0])
        flat = solve_lp(build_lad(vc, st, scen)[0])
        rels.append(_rel(two_stage.objective, flat.objective))
        assert rels[-1] <= 1e-8

    # one period: the look-ahead is the single-period dispatch
    for vc, st, day in (
        (toy, toy_state(), make_toy_day()),
        (case3, case3_state(), case3_actual_day(seed=2)),
    ):
        win = day.window(0, 1)
        sc = win.scenarios[0]
        one = solve_lp(build_lad(vc, st, win)[0])
        sced = solve_lp(
            build_sced(
                vc, st, {b: v[0] for b, v in sc.load.items()},
                pmax={g: v[0] for g, v in sc.pmax_override.items()},
            )[0]
        )
        rels.append(_rel(one.objective, sced.objective))
        assert rels[-1] <= 1e-8

    # non-binding ramps: each period prices independently, so the first
    # slice of the look-ahead equals the standalone dispatch optimum
    for base_case, st, day in (
        (make_toy_case(), toy_state(), make_toy_day()),
        (make_case3(), case3_state(), case3_actual_day(seed=2, horizon=4)),
    ):
        vc = _unlimited_ramps(base_case)
        lp, vm = build_lad(vc, st, day)
        sol = solve_lp(lp)
        slice0 = itemize_costs(extract_dispatch(sol, vm), vc, period=0).total
        sc = day.scenarios[0]
        sced = solve_lp(
            build_sced(
                vc, st, {b: v[0] for b, v in sc.load.items()},
                pmax={g: v[0] for g, v in sc.pmax_override.items()},
            )[0]
        )
        rels.append(_rel(slice0, sced.objective))
        assert rels[-1] <= 1e-8

    _ok(4, f"6 identities, worst relative error {max(rels):.2e}")


# ---------------------------------------------------------------------------
# 5. on-demand flowgate rows change nothing but the row count


def test_criterion_05_lazy_flowgates_match_full_model():
    vc = validate_case(make_case3(limit_shift=-6.0))
    scen = case3_scenarios(seed=61, horizon=3, n=2, load_scale=1.3)
    st = case3_state()

    full = solve_lp(build_slad_extensive(vc, st, scen, flows="full")[0])
    lazy_lp, lazy_vm = build_slad_extensive(vc, st, scen, flows="lazy")
    rows_before = lazy_lp.n_rows
    lazy_sol, final_lp = solve_with_lazy_flows(lazy_lp, lazy_vm)
    assert final_lp.n_rows > rows_before          # congestion was real
    rel = _rel(lazy_sol.objective, full.objective)
    assert rel <= 1e-8

    # and the decomposition built on lazy subproblems lands on the same value
    res_full = run_benders(vc, st, scen, flows="full")
    res_lazy = run_benders(vc, st, scen, flows="lazy")
    assert res_full.status == res_lazy.status == "optimal"
    assert _rel(res_lazy.objective, full.objective) <= 1e-5
    assert _rel(res_full.objective, full.objective) <= 1e-5
    _ok(5, f"{final_lp.n_rows - rows_before} rows generated on demand; "
           f"objective error {rel:.2e}")


# ---------------------------------------------------------------------------
# 6 & 7. cut validity and recourse feasibility at sampled first stages


def _feasible_points(vc, state, scen, n, seed):
    """Random first-stage vectors inside bounds and the opening ramp window."""
    case = vc.case
    rng = np.random.default_rng(seed)
    dt = case.step_minutes
    pts = []
    for _ in range(n):
        x = {}
        for g in case.generators:
            pmax0 = scen.scenarios[0].pmax_override.get(g.id, (g.pmax,))[0]
            prev = state.prev_dispatch.get(g.id, g.initial_output)
            lo = max(g.pmin, prev - g.ramp_down * dt)
            hi = min(pmax0, prev + g.ramp_up * dt)
            x[("pg", g.id)] = float(rng.uniform(lo, max(lo, hi)))
            for kind in ("reg", "spin", "supp_on", "supp_off"):
                x[(kind, g.id)] = float(rng.uniform(0.0, g.cap(kind)))
        pts.append(stage_vector(vc, x))
    return pts


def _probe(vc, state, scen, seed, n_points=100):
    """Cuts from one run plus oracle values/statuses at sampled points."""
    res = run_benders(vc, state, scen, lp=HIGHS)
    assert res.status == "optimal"
    points = _feasible_points(vc, state, scen, n_points, seed)
    values, statuses = [], []
    for s in range(scen.n_scenarios):
        lp, vm = build_benders_subproblem(vc, scen, s, x1=None)
        qs, st = [], []
        for x in points:
            sol = solve_lp(lp.with_rhs(pinned_rhs(lp, vm, x)), HIGHS)
            st.append(sol.status)
            qs.append(float(sol.objective))
        values.append(qs)
        statuses.append(st)
    return {"cuts": list(res.cuts), "points": points, "values": values,
            "statuses": statuses, "n_scen": scen.n_scenarios}


@pytest.fixture(scope="module")
def toy_probe(toy):
    return _probe(toy, toy_state(), make_toy_scenarios(), seed=11)


@pytest.fixture(scope="module")
def case3_probe(case3):
    return _probe(
        case3, case3_state(), case3_scenarios(seed=43, horizon=6, n=5), seed=13
    )


def test_criterion_06_cuts_underestimate_the_oracle(toy_probe, case3_probe):
    checked = 0
    worst = np.inf
    for probe in (toy_probe, case3_probe):
        for cut in probe["cuts"]:
            qs = probe["values"][cut.scenario]
            for x, q in zip(probe["points"], qs):
                slack = q - cut.value_at(x)
                worst = min(worst, slack)
                assert slack >= -1e-6
                checked += 1
    _ok(6, f"{checked} cut evaluations, tightest slack {worst:.3e}")


def test_criterion_07_recourse_always_feasible(toy_probe, case3_probe):
    solves = 0
    for probe in (toy_probe, case3_probe):
        for st in probe["statuses"]:
            assert all(s == "optimal" for s in st)
            solves += len(st)
    _ok(7, f"{solves} pinned subproblem solves, all optimal")


# ---------------------------------------------------------------------------
# 8. the headline savings number


def test_criterion_08_toy_day_savings(toy):
    day, scen = make_toy_day(), make_toy_scenarios()
    base = run_simulation(toy, day, PolicySpec(kind="sced"))
    hedged = run_simulation(toy, day, PolicySpec(kind="slad", scenarios=scen))
    pct = 100.0 * daily_savings(base.total_cost, hedged.total_cost)
    assert abs(pct - 87.82) <= 0.01
    _ok(8, f"savings {pct:.4f}% (baseline {base.total_cost:.0f}, "
           f"hedged {hedged.total_cost:.0f})")


# ---------------------------------------------------------------------------
# 9. the hindsight benchmark is never beaten


def _noisy_history(day, rng, n_days=8):
    sc = day.scenarios[0]
    days = []
    for i in range(n_days):
        load = {
            b: tuple(max(0.0, v * rng.uniform(0.9, 1.1)) for v in sc.load[b])
            for b in sc.load
        }
        pmax = {
            g: tuple(float(np.clip(v + rng.normal(0.0, 2.0), 0.0, 40.0))
                     for v in vals)
            for g, vals in sc.pmax_override.items()
        }
        days.append(HistoryDay(date=f"d{i:02d}", load=load, pmax=pmax))
    return HistoryStore(days)


def test_criterion_09_hindsight_dominates_every_policy(toy, case3):
    day, scen = make_toy_day(), make_toy_scenarios()
    pd_toy = run_perfect_dispatch(toy, day)
    for kind in ("sced", "lad", "slad"):
        log = run_simulation(
            toy, day,
            PolicySpec(kind=kind, scenarios=None if kind == "sced" else scen),
        )
        assert pd_toy.total_cost <= log.total_cost * (1 + 1e-6) + 1e-9

    margins = []
    for i in range(20):
        day = case3_actual_day(seed=100 + i)
        hist = _noisy_history(day, np.random.default_rng(3000 + i))
        pd_log = run_perfect_dispatch(case3, day, lp_opts=HIGHS)
        for kind in ("sced", "lad", "slad"):
            log = run_simulation(
                case3, day,
                PolicySpec(
                    kind=kind, horizon=4, history=hist, knn_k=3,
                    benders=BendersConfig(max_iter=60), lp=HIGHS,
                ),
            )
            assert pd_log.total_cost <= log.total_cost * (1 + 1e-6), (
                f"day {i}: hindsight {pd_log.total_cost} beaten by "
                f"{kind} {log.total_cost}"
            )
            margins.append(log.total_cost / pd_log.total_cost - 1.0)
    _ok(9, f"toy day + 20 sampled days x 3 policies; policy cost exceeds "
           f"hindsight by {min(margins):.2%} to {max(margins):.2%}")


# ---------------------------------------------------------------------------
# 10. separation-point blending does not move the answer


def test_criterion_10_separation_blend_invariance(case3):
    st = case3_state()
    scen = case3_scenarios(seed=47, horizon=6, n=5)
    ext = solve_lp(build_slad_extensive(vc=case3, state=st, scenarios=scen)[0], HIGHS)
    objs, iters = {}, {}
    for a in (0.0, 0.25, 0.5, 0.9):
        res = run_benders(case3, st, scen, BendersConfig(alpha=a), lp=HIGHS)
        assert res.status == "optimal"
        objs[a] = res.objective
        iters[a] = res.iterations
        assert _rel(res.objective, ext.objective) <= 1e-5
    spread = max(objs.values()) - min(objs.values())
    assert spread <= 1e-5 * max(1.0, abs(ext.objective))
    _ok(10, "iterations " + ", ".join(f"a={a}: {n}" for a, n in iters.items())
        + f"; objective spread {spread:.2e}")


# ---------------------------------------------------------------------------
# 11. what this repository deliberately does not claim


def test_criterion_11_field_scale_results_out_of_scope():
    """Year-long runs on real multi-thousand-bus systems are not reproduced
    here: they require proprietary network and market data that cannot ship
    with the repository.  In their place this suite pins down the small-system
    behaviors above, and the module suites carry the structural properties:
    first-order optimality checks on every solver path, monotone decomposition
    bounds, thread-count determinism, and a brute-force match for the
    nearest-neighbor forecaster."""
    here = Path(__file__).parent
    required = {
        "test_lp.py": ("verify_kkt",),
        "test_benders.py": ("monotone", "worker_count"),
        "test_forecast.py": ("brute_force",),
    }
    for fname, needles in required.items():
        text = (here / fname).read_text()
        for needle in needles:
            assert needle in text, f"{fname} lost its '{needle}' property test"
    _ok(11, "field-scale results out of scope; substitute property suites "
            "present")
