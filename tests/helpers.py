"""Shared test utilities: brute-force LP oracle, solution checks, model and
Benders digests, the bundled days' look-ahead inputs, and writers of the
case, day and history file formats."""

import hashlib
import itertools
import json
import math
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import rtdispatch
from rtdispatch import lp as lpmod
from rtdispatch.forecast import HistoryStore, knn_scenarios, load_history
from rtdispatch.formulation import first_stage_keys
from rtdispatch.model import (
    ScenarioSet,
    SystemCase,
    SystemState,
    parse_case,
    parse_timeseries,
    validate_case,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def child_env():
    """Environment for a child interpreter: it imports the rtdispatch this
    process imported, however pytest put it on the path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(rtdispatch.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def compensated_sum(iterable, /, start=0):
    """The builtin ``sum`` of Python 3.12, on any interpreter, as CPython's
    ``builtin_sum_impl`` adds: ints exactly; once the total is a float,
    floats with Neumaier's compensation and ints that fit a C long plainly,
    the compensation added at the end if it is finite and nonzero; anything
    else, and everything after it, with ``+``."""
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            result = result + item
            if type(item) not in (int, bool):
                break
    if type(result) is float:
        f, c = result, 0.0
        for item in items:
            if type(item) is float:
                t = f + item
                c += (f - t) + item if abs(f) >= abs(item) else (item - t) + f
                f = t
            elif isinstance(item, int) and -2**63 <= item < 2**63:
                f += float(item)
            else:
                result = (f + c if c and math.isfinite(c) else f) + item
                break
        else:
            return f + c if c and math.isfinite(c) else f
    for item in items:
        result = result + item
    return result


def replaced(a, updates):
    """A float64 copy of ``a`` with the ``{index: value}`` entries swapped
    in: a whole array for ``LinearProgram.with_numbers``."""
    out = np.array(a, dtype=np.float64)
    out[list(updates)] = [float(v) for v in updates.values()]
    return out


def pinned_rhs(lp, vmap, x1):
    """The rhs of subproblem ``lp`` with its pins repointed at first stage
    ``x1``."""
    return replaced(lp.rhs, dict(zip(vmap.meta["pin_rows"], x1.tolist(), strict=True)))


def enumerate_optimum(lp, tol=1e-9):
    """Brute-force oracle: minimum over all vertices of the feasible box-polytope.

    Only safe for small models whose variables all have finite bounds (the
    feasible set is then bounded, so if it is nonempty the LP optimum is
    attained at some vertex).  Returns (objective, x) or (None, None) when
    no feasible vertex exists.
    """
    n = lp.n_vars
    lo, hi, c = lp.lower, lp.upper, lp.cost
    assert np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)), "oracle needs a box"
    A = lp.matrix().toarray() if lp.n_rows else np.zeros((0, n))
    senses = np.asarray(lp.senses)
    rhs = lp.rhs

    # candidate tight hyperplanes: every row as equality + every bound
    planes = [(A[i], rhs[i]) for i in range(lp.n_rows)]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        planes.append((e, lo[j]))
        if hi[j] != lo[j]:
            planes.append((e, hi[j]))

    def feasible(x):
        if np.any(x < lo - 1e-7) or np.any(x > hi + 1e-7):
            return False
        ax = A @ x
        for i in range(lp.n_rows):
            if senses[i] == lpmod.LE and ax[i] > rhs[i] + 1e-7:
                return False
            if senses[i] == lpmod.GE and ax[i] < rhs[i] - 1e-7:
                return False
            if senses[i] == lpmod.EQ and abs(ax[i] - rhs[i]) > 1e-7:
                return False
        return True

    best, best_x = None, None
    for combo in itertools.combinations(range(len(planes)), n):
        M = np.array([planes[i][0] for i in combo])
        d = np.array([planes[i][1] for i in combo])
        if abs(np.linalg.det(M)) < tol:
            continue
        x = np.linalg.solve(M, d)
        if feasible(x):
            obj = float(c @ x + lp.obj_const)
            if best is None or obj < best - 1e-12:
                best, best_x = obj, x
    return best, best_x


def assert_solution_clean(lp, sol, tol_scale=1.0):
    """Every optimal solution must satisfy KKT and strong duality."""
    assert sol.status == lpmod.OPTIMAL, sol.status
    scale = tol_scale * (1.0 + float(np.abs(lp.cost).max(initial=0.0)))
    rep = lpmod.verify_kkt(lp, sol, tol=1e-6 * scale)
    assert rep.passed, (
        f"KKT: primal={rep.max_primal_residual:.2e} dual={rep.max_dual_residual:.2e} "
        f"comp={rep.max_complementarity:.2e} (tol {1e-6 * scale:.2e})"
    )
    assert rep.duality_gap <= 1e-6 * (1.0 + abs(sol.objective)) * tol_scale, rep.duality_gap


def random_box_lp(rng, n_max=6, m_max=8):
    """A random bounded LP (finite box), possibly infeasible."""
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    lp = lpmod.LinearProgram()
    for _ in range(n):
        lo = rng.uniform(-5, 2)
        hi = lo + rng.uniform(0, 8)
        lp.add_var(lo, hi, cost=rng.uniform(-10, 10))
    for _ in range(m):
        k = int(rng.integers(1, n + 1))
        cols = rng.choice(n, size=k, replace=False)
        vals = rng.uniform(-3, 3, size=k)
        sense = ("<=", ">=", "=")[int(rng.integers(0, 3 if rng.uniform() < 0.3 else 2))]
        lp.add_row(np.sort(cols), vals[np.argsort(cols)], sense, rng.uniform(-6, 6))
    lp.obj_const = float(rng.uniform(-3, 3))
    return lp


def solution_digest(sol):
    """sha256 over a solution's fields (arrays by dtype and bytes)."""
    h = hashlib.sha256()
    for p in (sol.status, sol.iterations, sol.objective, sol.x, sol.duals,
              sol.reduced_costs, *(sol.basis or ("no basis",))):
        if isinstance(p, np.ndarray):
            h.update(str(p.dtype).encode())
            h.update(p.tobytes())
        else:
            h.update(repr(p).encode())
        h.update(b"|")
    return h.hexdigest()


class FullRowSimplex(lpmod._Simplex):
    """The reference simplex with its pivot kernels as they were before they
    touched only the entries a pivot can change: pricing on masks of the
    columns that may rise and fall, a ratio test over every basis position,
    and a product-form update of whole rows of the inverse.  It takes the
    same pivots; its inverse may hold a 0.0 where the simplex's holds -0.0."""

    def _pick_entering(self, p, dtol, bland):
        vs = self.vstat
        rise = (vs == lpmod.NB_LO) | (vs == lpmod.NB_FREE)
        fall = (vs == lpmod.NB_UP) | (vs == lpmod.NB_FREE)
        score = np.maximum(np.where(rise, p, -np.inf), np.where(fall, -p, -np.inf))
        j = int((score > dtol if bland else score).argmax())
        if not score[j] > dtol:
            if not np.isnan(score[j]):
                return -1, 0
            score[np.isnan(score)] = -np.inf
            j = int(score.argmax())
            if not score[j] > dtol:
                return -1, 0
        return j, (1 if rise[j] and p[j] > dtol else -1)

    def _ratio_test(self, j, sigma, w, below, above):
        xB, loB, hiB = self.xB, self.loB, self.hiB
        absw = np.abs(w)
        down = w > 0 if sigma > 0 else w < 0
        if below is not None:
            loB, hiB = (np.where(below, -np.inf, np.where(above, hiB, loB)),
                        np.where(above, np.inf, np.where(below, loB, hiB)))
        t = np.full(self.m, np.inf)
        np.divide(np.where(down, xB, hiB) - np.where(down, loB, xB), absw, out=t,
                  where=absw > 1e-10)
        np.putmask(t, ~np.isfinite(t), np.inf)
        np.maximum(t, 0.0, out=t)
        span = self.hi[j] - self.lo[j]
        bounded = self.vstat[j] in (lpmod.NB_LO, lpmod.NB_UP) and np.isfinite(span)
        flip_limit = span if bounded else np.inf
        rmin = t.min() if self.m else np.inf
        if flip_limit <= rmin:
            if not np.isfinite(flip_limit):
                return np.inf, "unbounded", -1, 0
            return flip_limit, "flip", -1, 0
        if not np.isfinite(rmin):
            return np.inf, "unbounded", -1, 0
        ties = (t <= rmin + 1e-12 * (1.0 + rmin)).nonzero()[0]
        if len(ties) == 1:
            k = int(ties[0])
        elif self._degen_streak >= lpmod.DEGEN_STREAK:
            k = int(ties[np.argmin(self.basis[ties])])
        else:
            mags = absw[ties]
            strong = ties[mags >= mags.max() * (1.0 - 1e-9)]
            k = int(strong[np.argmin(self.basis[strong])])
        if down[k]:
            side = lpmod.NB_UP if below is not None and above[k] else lpmod.NB_LO
        else:
            side = lpmod.NB_LO if below is not None and below[k] else lpmod.NB_UP
        return rmin, "pivot", k, side

    def _update_inverse(self, r, w, piv):
        Br = self.Binv[r, :] / piv
        rows = w.nonzero()[0]
        rows = rows[rows != r]
        self.Binv[rows] -= w[rows, None] * Br
        self.Binv[r, :] = Br


def array_ratio_test(self, j, sigma, w, below, above):
    """The simplex's ratio test as numpy array operations over the moving
    rows, as it was before it stepped over them in Python floats: the
    reference the float kernel must match bit for bit.  Called as
    ``array_ratio_test(simplex, j, sigma, w, below, above)``."""
    NB_LO, NB_UP, DEGEN_STREAK = lpmod.NB_LO, lpmod.NB_UP, lpmod.DEGEN_STREAK
    piv_tol = 1e-10
    absw = np.abs(w)
    at = (absw > piv_tol).nonzero()[0]
    w, absw, xB, loB, hiB = w[at], absw[at], self.xB[at], self.loB[at], self.hiB[at]
    down = w > 0 if sigma > 0 else w < 0  # x_B changes by -sigma * w * t
    # a basic moving down stops at its lower bound, one moving up at its
    # upper bound; in phase 1 one outside its bounds stops where it
    # re-enters them, and never blocks while moving further away
    if below is not None:
        below, above = below[at], above[at]
        loB, hiB = (np.where(below, -np.inf, np.where(above, hiB, loB)),
                    np.where(above, np.inf, np.where(below, loB, hiB)))
    t = (np.where(down, xB, hiB) - np.where(down, loB, xB)) / absw
    np.putmask(t, ~np.isfinite(t), np.inf)
    # t holds no -0.0 from here on, so its minimum's bits do not depend
    # on where in t the zeros sit
    np.maximum(t, 0.0, out=t)

    span = self.hi[j] - self.lo[j]
    flip_limit = span if self.vstat[j] in (NB_LO, NB_UP) and math.isfinite(span) else np.inf

    rmin = t.min() if at.size else np.inf
    if flip_limit <= rmin:
        if not math.isfinite(flip_limit):
            return np.inf, "unbounded", -1, 0
        return flip_limit, "flip", -1, 0
    if not math.isfinite(rmin):
        return np.inf, "unbounded", -1, 0
    ties = (t <= rmin + 1e-12 * (1.0 + rmin)).nonzero()[0]
    if len(ties) == 1:
        k = ties[0]
    elif self._degen_streak >= DEGEN_STREAK:
        # Bland: smallest leaving variable index
        k = ties[self.basis[at[ties]].argmin()]
    else:
        # stability: largest pivot magnitude, then smallest index
        mags = absw[ties]
        strong = ties[mags >= mags.max() * (1.0 - 1e-9)]
        k = strong[self.basis[at[strong]].argmin()]
    if down[k]:
        side = NB_UP if below is not None and above[k] else NB_LO
    else:
        side = NB_LO if below is not None and below[k] else NB_UP
    return rmin, "pivot", int(at[k]), side


def row_entries(lp):
    """Per row of ``lp``, its (column indices, coefficients) arrays."""
    rows, cols, vals = lp.coo()
    ends = np.searchsorted(rows, np.arange(lp.n_rows + 1))
    return [(cols[a:b], vals[a:b]) for a, b in zip(ends[:-1], ends[1:])]


def model_digest(lp, vmap):
    """A hash of everything a built model holds, in order.

    Covers the cost, bound and ``coo()`` arrays (dtype and bytes), senses,
    rhs, ``obj_const``, the registry's columns and rows in insertion order,
    and its meta without the case.  Two builds hash equal exactly when
    every solver sees the same model and every reader of the registry the
    same keys."""
    h = hashlib.sha256()

    def put(x):
        h.update(repr(x).encode())

    for a in (lp.cost, lp.lower, lp.upper, *lp.coo(),
              np.asarray(lp.senses, dtype=np.int8), lp.rhs):
        put(str(a.dtype))
        h.update(a.tobytes())
    put(lp.obj_const)
    put((list(vmap.columns()), list(vmap.rows())))
    put({k: v for k, v in vmap.meta.items() if k != "case"})
    return h.hexdigest()


def bundled_day(day):
    """Look-ahead inputs at period 1 of a bundled day ("toy" or "network"):
    the case, the realized day, a state off the initial outputs, that
    period's realized load and pmax, and the scenarios (the toy day's
    scenario file; the network day's history, k=3, horizon 4) with period
    0 set to the realization."""
    vc = validate_case(parse_case((DATA / f"{day}_case.json").read_text()))
    actuals = parse_timeseries((DATA / f"{day}_day.csv").read_text(), vc)
    sc = actuals.scenarios[0]
    load = {b: v[1] for b, v in sc.load.items()}
    pmax = {g: v[1] for g, v in sc.pmax_override.items()}
    if day == "toy":
        scen = parse_timeseries((DATA / "toy_scenarios.csv").read_text(), vc)
        scen = scen.with_period_data(0, load, pmax)
    else:
        hist = load_history((DATA / "network_history.csv").read_text(), vc)
        obs = {b: v[:2] for b, v in sc.load.items()}
        scen = knn_scenarios(hist, obs, k=3).window(1, 4).with_period_data(0, load, pmax)
    st = SystemState(prev_dispatch={g.id: g.initial_output + 1.5
                                    for g in vc.case.generators}, wall_clock=1)
    return SimpleNamespace(vc=vc, actuals=actuals, load=load, pmax=pmax,
                           scenarios=scen, state=st)


def benders_digest(res, vc):
    """A hash of a Benders run's answer, in order.

    Covers ``x1``, the objective and bounds, every pooled cut's
    ``coef_x1`` and ``rhs_const`` in pool order, each trace record's
    ``lower``/``upper``/``gap``/``cuts_added`` (not its wall time) and
    ``scenario_values``.  A first-stage vector enters as a list of floats
    in ``first_stage_keys(vc)`` order.  Floats enter through ``repr``,
    which round-trips every bit, a zero's sign included."""
    n = len(first_stage_keys(vc))

    def stage(x):
        assert x.dtype == np.float64 and x.shape == (n,)
        return x.tolist()

    h = hashlib.sha256()
    h.update(repr((
        stage(res.x1), res.objective, res.lower, res.upper,
        [(stage(c.coef_x1), c.rhs_const) for c in res.cuts],
        [(r.lower, r.upper, r.gap, r.cuts_added) for r in res.trace],
        list(res.scenario_values.items()),
    )).encode())
    return h.hexdigest()


def stage_vector(vc, values):
    """The first-stage vector holding ``values`` ({(kind, gid): MW}) and
    0.0 at every other key."""
    return np.array([float(values.get(k, 0.0)) for k in first_stage_keys(vc)])


def stage_dict(vc, x):
    """A first-stage vector as {(kind, gid): value}."""
    return dict(zip(first_stage_keys(vc), x.tolist(), strict=True))


def walked_first_stage_values(sol, vmap, t=0):
    """first_stage_values made by walking the keys through the registry,
    0.0 for a key without a column: the reference for the vector read."""
    vc = vmap.meta["case"]
    out = []
    for kind, gid in first_stage_keys(vc):
        c = vmap.get((kind, gid, t, 0))
        out.append(float(sol.x[c]) if c is not None else 0.0)
    return out


def walked_pin_duals(vmap, sol):
    """pin_duals made by walking the keys through the pin rows."""
    return [float(sol.duals[vmap.row(("pin_first_stage", kind, gid))])
            for kind, gid in first_stage_keys(vmap.meta["case"])]


def serialize_case(case: SystemCase) -> str:
    """Render a SystemCase back to its JSON document form.

    parse_case(serialize_case(c)) == c for any valid case; flag profiles
    serialize as a scalar when constant.
    """

    def flag_out(profile):
        return profile[0] if len(profile) == 1 else list(profile)

    doc = {
        "name": case.name,
        "step_minutes": case.step_minutes,
        "buses": list(case.buses),
        "reserve_req": {
            "reg": case.reserve_req.reg,
            "rspin": case.reserve_req.rspin,
            "op": case.reserve_req.op,
        },
        "penalties": {
            "shortage": case.penalties.shortage,
            "surplus": case.penalties.surplus,
            "reg": case.penalties.reg,
            "rspin": case.penalties.rspin,
            "op": case.penalties.op,
        },
        "generators": [
            {
                "id": g.id,
                "bus": g.bus,
                "pmin": g.pmin,
                "pmax": g.pmax,
                "initial_output": g.initial_output,
                "ramp_up": g.ramp_up,
                "ramp_down": g.ramp_down,
                "segments": [{"width": w, "price": p} for w, p in g.segments],
                "no_load_cost": g.no_load_cost,
                "reserve_caps": dict(g.reserve_caps),
                "reserve_prices": dict(g.reserve_prices),
                "flags": {
                    "commit": flag_out(g.commit),
                    "regulation": flag_out(g.regulation),
                    "ra_reg": flag_out(g.ra_reg),
                    "ra_spin": flag_out(g.ra_spin),
                    "ra_s_on": flag_out(g.ra_s_on),
                    "ra_s_off": flag_out(g.ra_s_off),
                },
                "is_import": g.is_import,
            }
            for g in case.generators
        ],
        "branches": [
            {
                "id": e.id,
                "ptdf": dict(e.ptdf),
                "limit_lo": e.limit_lo,
                "limit_hi": e.limit_hi,
                "violation_price": e.violation_price,
                "monitored": e.monitored,
            }
            for e in case.branches
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def format_timeseries(ss: ScenarioSet, precision=10) -> str:
    """Render a ScenarioSet back to the delimited day-file layout."""
    buses = sorted({b for s in ss.scenarios for b in s.load})
    gens = sorted({g for s in ss.scenarios for g in s.pmax_override})
    single = len(ss.scenarios) == 1 and ss.scenarios[0].prob == 1.0
    header = ["period"] + ([] if single else ["scenario", "prob"])
    header += [f"load:{b}" for b in buses] + [f"pmax:{g}" for g in gens]
    out = [",".join(header)]

    def fmt(x):
        return format(float(x), f".{precision}g")

    for s in ss.scenarios:
        for t in range(ss.horizon):
            row = [str(t + 1)] + ([] if single else [s.id, fmt(s.prob)])
            row += [fmt(s.load[b][t]) for b in buses]
            row += [fmt(s.pmax_override[g][t]) for g in gens]
            out.append(",".join(row))
    return "\n".join(out) + "\n"


def format_history(store: HistoryStore, precision=10) -> str:
    """Render a history back to its file layout."""
    header = (
        ["date", "period"]
        + [f"load:{b}" for b in store.buses]
        + [f"pmax:{g}" for g in store.gens]
    )
    out = [",".join(header)]

    def fmt(x):
        return format(float(x), f".{precision}g")

    for d in store.days:
        for t in range(store.horizon):
            row = [d.date, str(t + 1)]
            row += [fmt(d.load[b][t]) for b in store.buses]
            row += [fmt(d.pmax[g][t]) for g in store.gens]
            out.append(",".join(row))
    return "\n".join(out) + "\n"
