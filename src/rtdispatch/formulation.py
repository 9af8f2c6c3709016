"""Dispatch LP builders: single-period, look-ahead, stochastic, Benders pieces.

All builders assemble the same period/scenario grid of variables:

* per generator-period-scenario: total output ``pg``, one column per
  incremental bid segment (``seg``), and the four reserve products
  ``reg`` / ``spin`` / ``supp_on`` / ``supp_off``;
* per bus-period-scenario: a free nodal injection column tied to
  generation minus demand by an equality row;
* per period-scenario: system balance with priced ``surplus`` and
  ``shortage`` slack, tiered reserve requirements with priced shortfall
  slack, and (for monitored branches) a priced flow-excess column with
  upper/lower flowgate rows.

Single-variable limits (bid-segment widths, reserve capability bands and
caps, five-minute regulation deployability) are encoded as variable
bounds and recorded in the registry next to the multi-variable rows, so
tests can audit exactly which constraint families a model contains.

Period indices inside a model are window-local (0-based); the absolute
day period of window period 0 is carried along so per-period commitment
and availability flags resolve correctly.
"""

from __future__ import annotations

import dataclasses
import functools
import operator

import numpy as np

from .lp import LinearProgram
from .model import (
    RESERVE_PRODUCTS,
    DispatchSolution,
    Scenario,
    ScenarioSet,
    SystemState,
    ValidatedCase,
    ValidationError,
    check_scenarios,
)

#: the per-generator quantities shared across scenarios at the binding period
FIRST_STAGE_KINDS = ("pg",) + RESERVE_PRODUCTS


def first_stage_keys(case):
    """Ordered (kind, generator id) pairs defining the first-stage vector."""
    case = case.case if isinstance(case, ValidatedCase) else case
    return [(kind, g.id) for g in case.generators for kind in FIRST_STAGE_KINDS]


class VariableMap:
    """Bijective registry between model coordinates and LP columns/rows.

    Column keys are tuples ``(kind, *ids, t, s)``; row keys are
    ``(family, *ids)``.  Bound-encoded constraint families are recorded in
    ``bound_records`` with the bound value they imposed, so the registry
    covers every materialized constraint family, row-shaped or not.
    """

    def __init__(self):
        self._col = {}
        self._row = {}
        self.bound_records = {}  # family -> list of (key, value)
        self.meta = {}

    def add_col(self, key, idx):
        if key in self._col:
            raise ValueError(f"duplicate column key {key}")
        self._col[key] = idx

    def col(self, key):
        return self._col[key]

    def get(self, key):
        return self._col.get(key)

    def add_row(self, key, idx):
        if key in self._row:
            raise ValueError(f"duplicate row key {key}")
        self._row[key] = idx

    def row(self, key):
        return self._row[key]

    def add_bound_record(self, family, key, value):
        self.bound_records.setdefault(family, []).append((key, value))

    def copy(self):
        """A registry whose rows extend without touching this one's; the
        columns, bound records and meta are shared."""
        out = VariableMap()
        out._col, out._row = self._col, dict(self._row)
        out.bound_records, out.meta = self.bound_records, self.meta
        return out

    def columns(self):
        return self._col.items()

    def rows(self):
        return self._row.items()


@dataclasses.dataclass
class CostBreakdown:
    """Dollar cost of a dispatch, itemized by the model's objective terms."""

    energy: float = 0.0
    imports: float = 0.0
    no_load: float = 0.0
    reserves: float = 0.0
    penalty_balance: float = 0.0
    penalty_reserves: float = 0.0
    penalty_flow: float = 0.0
    total: float = 0.0

    @classmethod
    def build(cls, **parts):
        """The breakdown with ``total`` summed over the parts in field order."""
        out = cls(**parts)
        out.total = functools.reduce(operator.add, (getattr(out, p) for p in _COST_PARTS))
        return out

    def __add__(self, other):
        return CostBreakdown.build(
            **{p: getattr(self, p) + getattr(other, p) for p in _COST_PARTS}
        )

    def as_dict(self):
        return dataclasses.asdict(self)


#: the summed parts of a CostBreakdown: every field but ``total``
_COST_PARTS = tuple(f.name for f in dataclasses.fields(CostBreakdown))[:-1]


# ---------------------------------------------------------------------------
# assembler


class _Assembler:
    def __init__(self, vc, scen, first_abs, flows):
        if not isinstance(vc, ValidatedCase):
            raise TypeError("model builders require a ValidatedCase (run validate_case)")
        if flows not in ("full", "lazy"):
            raise ValueError(f"unknown flow mode '{flows}'")
        check_scenarios(scen, vc)
        for s in scen.scenarios:
            missing = [b for b in vc.case.buses if b not in s.load]
            if missing:
                raise ValidationError(
                    f"scenario '{s.id}' lacks load data for bus '{missing[0]}'"
                )
        self.vc = vc
        self.case = vc.case
        self.scen = scen
        self.first_abs = first_abs
        self.flows = flows
        self.h = self.case.step_minutes / 60.0
        self.lp = LinearProgram()
        self.vmap = VariableMap()
        self.vmap.meta.update(
            {
                "periods": scen.horizon,
                "scenario_ids": tuple(s.id for s in scen.scenarios),
                "probs": tuple(s.prob for s in scen.scenarios),
                "first_period": first_abs,
                "case": vc,
            }
        )

    def abs_t(self, t):
        return self.first_abs + t

    def pmax_at(self, g, t, s):
        ov = self.scen.scenarios[s].pmax_override.get(g.id)
        return float(ov[t]) if ov is not None else g.pmax

    # -- per-generator block ---------------------------------------------

    def gen_block(self, g, t, s, w):
        """Columns and rows for one generator in one (period, scenario) cell.

        ``w`` is the dollar weight on this cell's hourly prices (probability
        times hours for stochastic models, zero to keep a cell out of the
        objective)."""
        lp, vm = self.lp, self.vmap
        ta = self.abs_t(t)
        committed = g.committed(ta)
        pmax_ts = self.pmax_at(g, t, s)

        if not committed:
            pg = lp.add_var(0.0, 0.0, 0.0, name=f"pg({g.id},{t},{s})")
            vm.add_col(("pg", g.id, t, s), pg)
            if g.supp_off_eligible(ta):
                self.reserve_col(g, "supp_off", t, s, w,
                                 {"supp_off_limit": g.cap("supp_off")})
            return

        pg = lp.add_var(0.0, np.inf, 0.0, name=f"pg({g.id},{t},{s})")
        vm.add_col(("pg", g.id, t, s), pg)
        seg_cols = []
        for k, (width, price) in enumerate(g.segments):
            col = lp.add_var(0.0, width, w * price, name=f"seg{k}({g.id},{t},{s})")
            vm.add_col(("seg", g.id, k, t, s), col)
            vm.add_bound_record("segment_limit", (g.id, k, t, s), width)
            seg_cols.append(col)
        r = lp.add_row(
            [pg] + seg_cols,
            [1.0] + [-1.0] * len(seg_cols),
            "=",
            g.pmin,
            name=f"blocks({g.id},{t},{s})",
        )
        vm.add_row(("dispatch_blocks", g.id, t, s), r)

        band = pmax_ts - g.pmin
        reg = spin = supp_on = None
        if g.reg_eligible(ta):
            reg = self.reserve_col(g, "reg", t, s, w, {
                "regulation_band": 0.5 * band, "regulation_deploy": 5.0 * g.ramp_up})
        if g.spin_eligible(ta):
            spin = self.reserve_col(g, "spin", t, s, w, {"spinning_band": band})
        if g.supp_on_eligible(ta):
            supp_on = self.reserve_col(g, "supp_on", t, s, w, {"supp_on_band": band})

        floor_cols, floor_vals = [pg], [1.0]
        if reg is not None:
            floor_cols.append(reg)
            floor_vals.append(-1.0)
        r = lp.add_row(floor_cols, floor_vals, ">=", g.pmin, name=f"floor({g.id},{t},{s})")
        vm.add_row(("floor_with_regulation", g.id, t, s), r)

        ceil_cols = [pg] + [c for c in (reg, spin, supp_on) if c is not None]
        r = lp.add_row(
            ceil_cols, [1.0] * len(ceil_cols), "<=", pmax_ts, name=f"ceiling({g.id},{t},{s})"
        )
        vm.add_row(("ceiling_with_reserves", g.id, t, s), r)

        cont = [c for c in (spin, supp_on) if c is not None]
        if cont:
            r = lp.add_row(
                cont, [1.0] * len(cont), "<=", 10.0 * g.ramp_up,
                name=f"contingency({g.id},{t},{s})",
            )
            vm.add_row(("contingency_deploy", g.id, t, s), r)

    def reserve_col(self, g, product, t, s, w, limits):
        """One reserve column, bounded above by the product's cap and each
        of ``limits`` ({bound family: value}), all of them recorded."""
        cap = g.cap(product)
        col = self.lp.add_var(0.0, min(cap, *limits.values()), w * g.price(product),
                              name=f"{product}({g.id},{t},{s})")
        self.vmap.add_col((product, g.id, t, s), col)
        for family, value in limits.items():
            self.vmap.add_bound_record(family, (g.id, t, s), value)
        self.vmap.add_bound_record("reserve_cap", (product, g.id, t, s), cap)
        return col

    def ramp_rows(self, g, t, s, prev_col=None, prev_const=None):
        """Couple pg at window period t to period t-1 (column or constant)."""
        lp, vm = self.lp, self.vmap
        dt = self.case.step_minutes
        up, dn = g.ramp_up * dt, g.ramp_down * dt
        cur = vm.get(("pg", g.id, t, s))
        if prev_col is not None:
            r = lp.add_row([cur, prev_col], [1.0, -1.0], "<=", up,
                           name=f"rampup({g.id},{t},{s})")
            vm.add_row(("ramp_up", g.id, t, s), r)
            r = lp.add_row([prev_col, cur], [1.0, -1.0], "<=", dn,
                           name=f"rampdn({g.id},{t},{s})")
            vm.add_row(("ramp_down", g.id, t, s), r)
        else:
            r = lp.add_row([cur], [1.0], "<=", prev_const + up,
                           name=f"rampup({g.id},{t},{s})")
            vm.add_row(("ramp_up", g.id, t, s), r)
            r = lp.add_row([cur], [1.0], ">=", prev_const - dn,
                           name=f"rampdn({g.id},{t},{s})")
            vm.add_row(("ramp_down", g.id, t, s), r)

    # -- per-cell system block -------------------------------------------

    def system_block(self, t, s, w):
        lp, vm, case = self.lp, self.vmap, self.case
        pen = case.penalties
        loads = self.scen.period_load(s, t)

        inj_cols = {}
        for bus in case.buses:
            inj = lp.add_var(-np.inf, np.inf, 0.0, name=f"inj({bus},{t},{s})")
            vm.add_col(("inj", bus, t, s), inj)
            inj_cols[bus] = inj
            gen_cols = [
                vm.col(("pg", g.id, t, s)) for g in case.generators if g.bus == bus
            ]
            r = lp.add_row(
                gen_cols + [inj],
                [1.0] * len(gen_cols) + [-1.0],
                "=",
                loads[bus],
                name=f"inj_def({bus},{t},{s})",
            )
            vm.add_row(("injection_def", bus, t, s), r)

        surplus = lp.add_var(0.0, np.inf, w * pen.surplus, name=f"surplus({t},{s})")
        shortage = lp.add_var(0.0, np.inf, w * pen.shortage, name=f"shortage({t},{s})")
        vm.add_col(("surplus", t, s), surplus)
        vm.add_col(("shortage", t, s), shortage)
        r = lp.add_row(
            list(inj_cols.values()) + [surplus, shortage],
            [1.0] * len(inj_cols) + [-1.0, 1.0],
            "=",
            0.0,
            name=f"balance({t},{s})",
        )
        vm.add_row(("system_balance", t, s), r)

        req = case.reserve_req
        tiers = (
            ("req_regulation", "short_reg", req.reg, pen.reg, ("reg",)),
            ("req_reg_spin", "short_rspin", req.rspin, pen.rspin, ("reg", "spin")),
            ("req_operating", "short_op", req.op, pen.op, RESERVE_PRODUCTS),
        )
        for family, slack_kind, target, price, products in tiers:
            slack = lp.add_var(0.0, np.inf, w * price, name=f"{slack_kind}({t},{s})")
            vm.add_col((slack_kind, t, s), slack)
            cols = [slack]
            for g in case.generators:
                for p in products:
                    c = vm.get((p, g.id, t, s))
                    if c is not None:
                        cols.append(c)
            r = lp.add_row(cols, [1.0] * len(cols), ">=", target, name=f"{family}({t},{s})")
            vm.add_row((family, t, s), r)

        for e in case.branches:
            if not e.monitored:
                continue
            df = lp.add_var(0.0, np.inf, w * e.violation_price,
                            name=f"flow_excess({e.id},{t},{s})")
            vm.add_col(("flow_excess", e.id, t, s), df)
            if self.flows == "full":
                for key, cols, vals, sense, rhs, name in flow_limit_rows(vm, e, t, s):
                    vm.add_row(key, lp.add_row(cols, vals, sense, rhs, name=name))

    # -- first-stage pins (Benders subproblems) ---------------------------

    def pin_columns(self, x1):
        """Free period-0 columns fixed by equality rows to the master trial.

        Reserve pins never feed later periods (reserves do not couple in
        time) so their duals vanish; they are kept so the pin-row dual
        vector lines up with the full first-stage vector."""
        lp, vm = self.lp, self.vmap
        pin_rows = []
        keys = first_stage_keys(self.case)
        vals = dict(x1 or {})
        for kind, gid in keys:
            col = lp.add_var(-np.inf, np.inf, 0.0, name=f"{kind}({gid},0,0)")
            vm.add_col((kind, gid, 0, 0), col)
            r = lp.add_row(
                [col], [1.0], "=", float(vals.get((kind, gid), 0.0)),
                name=f"pin_{kind}({gid})",
            )
            vm.add_row(("pin_first_stage", kind, gid), r)
            pin_rows.append(r)
        vm.meta["pin_rows"] = tuple(pin_rows)

    # -- whole grid -------------------------------------------------------

    def grid(self, weights, prev_dispatch=None, anticipativity=False, start_period=0):
        case, scen = self.case, self.scen
        for s in range(scen.n_scenarios):
            for t in range(start_period, scen.horizon):
                w = weights[s] * self.h
                for g in case.generators:
                    self.gen_block(g, t, s, w)
                self.system_block(t, s, w)
            for t in range(start_period, scen.horizon):
                for g in case.generators:
                    ta = self.abs_t(t)
                    if t == 0:
                        if not g.committed(ta):
                            continue
                        try:
                            prev = float(prev_dispatch[g.id])
                        except KeyError:
                            raise ValidationError(
                                f"state has no previous dispatch for generator '{g.id}'"
                            ) from None
                        self.ramp_rows(g, t, s, prev_const=prev)
                    else:
                        was = g.committed(ta - 1)
                        if not (g.committed(ta) or was):
                            continue
                        self.ramp_rows(g, t, s, prev_col=self.vmap.col(("pg", g.id, t - 1, s)))
        noload = 0.0
        for t in range(start_period, scen.horizon):
            ta = self.abs_t(t)
            noload += sum(
                self.h * g.no_load_cost for g in case.generators if g.committed(ta)
            )
        self.lp.obj_const += noload
        if anticipativity:
            self.anticipativity_rows()
        return self

    def anticipativity_rows(self):
        lp, vm = self.lp, self.vmap
        for s in range(1, self.scen.n_scenarios):
            for g in self.case.generators:
                for kind in FIRST_STAGE_KINDS:
                    a = vm.get((kind, g.id, 0, s))
                    b = vm.get((kind, g.id, 0, 0))
                    if a is None or b is None:
                        continue
                    r = lp.add_row([a, b], [1.0, -1.0], "=", 0.0,
                                   name=f"na_{kind}({g.id},{s})")
                    vm.add_row((f"anticipativity_{kind}", g.id, s), r)


def flow_limit_rows(vmap, branch, t, s):
    """Row specs limiting one branch's flow in one cell (both directions).

    Returns (key, cols, vals, sense, rhs, name) tuples referencing the
    cell's injection and flow-excess columns; usable both for upfront
    construction and for lazy appending."""
    cols, vals = [], []
    for bus, coef in branch.ptdf.items():
        c = vmap.get(("inj", bus, t, s))
        if c is not None and coef != 0.0:
            cols.append(c)
            vals.append(float(coef))
    df = vmap.col(("flow_excess", branch.id, t, s))
    up = (
        ("flow_upper", branch.id, t, s),
        cols + [df],
        vals + [-1.0],
        "<=",
        branch.limit_hi,
        f"flow_hi({branch.id},{t},{s})",
    )
    dn = (
        ("flow_lower", branch.id, t, s),
        cols + [df],
        vals + [1.0],
        ">=",
        branch.limit_lo,
        f"flow_lo({branch.id},{t},{s})",
    )
    return [up, dn]


def append_rows(lp, vmap, specs):
    """``lp`` with (key, cols, vals, sense, rhs, name) row specs appended;
    the registry is extended in place."""
    for i, spec in enumerate(specs):
        vmap.add_row(spec[0], lp.n_rows + i)
    return lp.with_rows([spec[1:] for spec in specs])


# ---------------------------------------------------------------------------
# public builders


def _as_state(state):
    if isinstance(state, SystemState):
        return state
    raise TypeError("expected a SystemState")


def build_sced(vc, state, demand, pmax=None, flows="full"):
    """Single-period security-constrained dispatch at the current period.

    ``demand`` maps every bus to its realized MW load; ``pmax`` optionally
    maps generator ids to their currently available capacity."""
    state = _as_state(state)
    case = vc.case if isinstance(vc, ValidatedCase) else vc
    scen = ScenarioSet(
        scenarios=(
            Scenario(
                id="now",
                prob=1.0,
                load={b: (float(demand[b]),) for b in case.buses},
                pmax_override={g: (float(v),) for g, v in (pmax or {}).items()},
            ),
        ),
        horizon=1,
    )
    asm = _Assembler(vc, scen, state.wall_clock, flows)
    asm.grid(weights=[1.0], prev_dispatch=state.prev_dispatch)
    return asm.lp.freeze(), asm.vmap


def build_lad(vc, state, forecast: ScenarioSet, periods=None, flows="full"):
    """Deterministic look-ahead dispatch over the forecast window.

    The forecast must be a single-scenario set whose first period is the
    current telemetry."""
    state = _as_state(state)
    if forecast.n_scenarios != 1:
        raise ValidationError("look-ahead dispatch expects a single-scenario forecast")
    if periods is not None and periods != forecast.horizon:
        raise ValidationError(
            f"window of {periods} periods does not match forecast horizon {forecast.horizon}"
        )
    asm = _Assembler(vc, forecast, state.wall_clock, flows)
    asm.grid(weights=[1.0], prev_dispatch=state.prev_dispatch)
    return asm.lp.freeze(), asm.vmap


def build_slad_extensive(vc, state, scenarios: ScenarioSet, flows="full"):
    """Extensive (deterministic-equivalent) form of the two-stage model.

    Every scenario gets its own copy of all periods; first-period columns
    are equalized across scenarios by anticipativity rows."""
    state = _as_state(state)
    weights = [s.prob for s in scenarios.scenarios]
    asm = _Assembler(vc, scenarios, state.wall_clock, flows)
    asm.grid(weights=weights, prev_dispatch=state.prev_dispatch, anticipativity=True)
    return asm.lp.freeze(), asm.vmap


def require_common_first_period(scenarios: ScenarioSet):
    """Benders needs identical period-0 data in every scenario."""
    first = scenarios.scenarios[0]
    for s in scenarios.scenarios[1:]:
        for b, v in first.load.items():
            if abs(s.load[b][0] - v[0]) > 1e-9:
                raise ValidationError(
                    f"scenario '{s.id}' disagrees with '{first.id}' on period-1 load at '{b}'"
                )
        if set(s.pmax_override) != set(first.pmax_override):
            raise ValidationError("scenarios disagree on which generators are derated")
        for g, v in first.pmax_override.items():
            if abs(s.pmax_override[g][0] - v[0]) > 1e-9:
                raise ValidationError(
                    f"scenario '{s.id}' disagrees with '{first.id}' on period-1 pmax of '{g}'"
                )


def build_benders_master(vc, state, scenarios: ScenarioSet, cuts, flows="full"):
    """First-period dispatch plus one value-function variable per scenario.

    The first-period cost is unweighted (it is common to all scenarios);
    each scenario's future cost enters through a free column priced at the
    scenario probability and bounded below by its cuts.  ``cuts`` must
    contain at least one cut per scenario — the initialization floor —
    or the model would be unbounded by construction."""
    state = _as_state(state)
    require_common_first_period(scenarios)
    first = scenarios.window(0, 1)
    master_scen = ScenarioSet(
        scenarios=(dataclasses.replace(first.scenarios[0], id="now", prob=1.0),), horizon=1
    )
    asm = _Assembler(vc, master_scen, state.wall_clock, flows)
    asm.grid(weights=[1.0], prev_dispatch=state.prev_dispatch)
    lp, vm = asm.lp, asm.vmap

    for s, sc in enumerate(scenarios.scenarios):
        vm.add_col(("theta", s), lp.add_var(-np.inf, np.inf, sc.prob, name=f"theta({s})"))
    vm.meta["cut_counts"] = [0] * scenarios.n_scenarios
    for key, cols, vals, sense, rhs, name in benders_cut_rows(vm, cuts):
        vm.add_row(key, lp.add_row(cols, vals, sense, rhs, name=name))
    for s, count in enumerate(vm.meta["cut_counts"]):
        if count == 0:
            raise ValidationError(
                f"scenario {s} has no cuts; seed the pool with the initialization floor"
            )
    return lp.freeze(), vm


def benders_cut_rows(vmap, cuts):
    """Row specs theta_s - coef_x1' x1 >= rhs_const for a master's registry,
    each scenario's cuts numbered on from its count (kept in the meta), so
    appending them gives the rows a build with every cut would have."""
    counts = vmap.meta["cut_counts"]
    specs = []
    for cut in cuts:
        s, k = cut.scenario, counts[cut.scenario]
        cols = [vmap.col(("theta", s))]
        vals = [1.0]
        for (kind, gid), coef in cut.coef_x1.items():
            c = vmap.get((kind, gid, 0, 0))
            if c is not None and coef != 0.0:
                cols.append(c)
                vals.append(-float(coef))
        specs.append((("optimality_cut", s, k), cols, vals, ">=", cut.rhs_const,
                      f"cut({s},{k})"))
        counts[s] += 1
    return specs


def build_benders_subproblem(vc, scenarios: ScenarioSet, s, x1=None, first_period=0,
                             flows="full"):
    """Scenario ``s``'s future periods with the first stage pinned.

    Period 0 appears only as pinned columns: the pin-row duals are the
    sensitivity of this scenario's future cost to the master trial point,
    which is exactly what an optimality cut needs.  The objective covers
    periods 1..T-1, unweighted by probability."""
    if scenarios.horizon < 2:
        raise ValidationError("a subproblem needs at least two periods in the window")
    sub_scen = ScenarioSet(
        scenarios=(
            dataclasses.replace(scenarios.scenarios[s], id=scenarios.scenarios[s].id,
                                prob=1.0),
        ),
        horizon=scenarios.horizon,
    )
    asm = _Assembler(vc, sub_scen, first_period, flows)
    asm.pin_columns(x1)
    asm.grid(weights=[1.0], start_period=1)
    return asm.lp.freeze(), asm.vmap


def pin_rhs_updates(vmap, x1):
    """rhs update map repointing a subproblem's pins at a new trial point."""
    case = vmap.meta["case"].case
    rows = vmap.meta["pin_rows"]
    keys = first_stage_keys(case)
    return {rows[i]: float(x1.get(k, 0.0)) for i, k in enumerate(keys)}


def pin_duals(vmap, sol):
    """Pin-row duals as a {(kind, gid): sigma} map (the cut slope)."""
    case = vmap.meta["case"].case
    rows = vmap.meta["pin_rows"]
    keys = first_stage_keys(case)
    return {k: float(sol.duals[rows[i]]) for i, k in enumerate(keys)}


# ---------------------------------------------------------------------------
# extraction and costing


def first_stage_values(sol, vmap, t=0):
    """First-stage quantities {(kind, gid): value} from any solved model;
    ``t`` reads window period t instead (a full-day plan's slice)."""
    case = vmap.meta["case"].case
    out = {}
    for kind, gid in first_stage_keys(case):
        c = vmap.get((kind, gid, t, 0))
        out[(kind, gid)] = float(sol.x[c]) if c is not None else 0.0
    return out


_CLAMP_KINDS = {"surplus", "shortage", "short_reg", "short_rspin", "short_op",
                "flow_excess"}
_SLACK_CLAMP = 1e-9
#: column kind -> the DispatchSolution field it is copied into; a reserve
#: keeps its product in the key, every other kind drops it
_FIELD_OF = {
    **{kind: kind for kind in ("pg", "surplus", "shortage", "short_reg",
                               "short_rspin", "short_op", "flow_excess")},
    **{p: "reserve" for p in RESERVE_PRODUCTS},
}


def extract_dispatch(sol, vmap):
    """Copy a solved model into a DispatchSolution.

    Only optimal solutions are extractable; penalty slacks below 1e-9 are
    clamped to exact zero.  A branch without a flow-excess column
    (unmonitored) reads zero excess in every cell.  No branch flows are
    computed."""
    if sol.status != "optimal":
        raise RuntimeError(f"cannot extract dispatch from a '{sol.status}' solution")
    meta = vmap.meta
    fields = {f: {} for f in _FIELD_OF.values()}
    for key, idx in vmap.columns():
        field = _FIELD_OF.get(key[0])
        if field is None:
            continue
        v = float(sol.x[idx])
        if key[0] in _CLAMP_KINDS and abs(v) < _SLACK_CLAMP:
            v = 0.0
        fields[field][key if field == "reserve" else key[1:]] = v
    cells = sorted(fields["surplus"])  # every cell has a surplus column
    for e in meta["case"].case.branches:
        for t, s in cells:
            fields["flow_excess"].setdefault((e.id, t, s), 0.0)
    return DispatchSolution(
        periods=meta["periods"],
        scenario_ids=meta["scenario_ids"],
        probs=meta["probs"],
        first_period=meta["first_period"],
        objective=float(sol.objective),
        **fields,
    )


def itemize_costs(d, case, period=None):
    """Re-derive the dollar cost of a dispatch from prices and quantities.

    Bid energy is priced by merit-order fill of the segment curve, which
    matches any cost-minimal segment split.  For models whose objective
    covers every period (single-period, look-ahead, extensive) the total
    reproduces the LP objective to within rounding.  ``period`` restricts
    the breakdown to one window period."""
    case = case.case if isinstance(case, ValidatedCase) else case
    h = case.hours_per_step
    periods = range(d.periods) if period is None else [period]
    energy = imports = no_load = reserves = 0.0
    pen_bal = pen_res = pen_flow = 0.0
    branch_price = {e.id: e.violation_price for e in case.branches}
    # each cell's flow excess, in the dispatch's item order
    flow_cells = {}
    for (e, t, s), v in d.flow_excess.items():
        flow_cells.setdefault((t, s), []).append(branch_price[e] * v)
    for t in periods:
        ta = d.first_period + t
        no_load += sum(
            h * g.no_load_cost for g in case.generators if g.committed(ta)
        )
        for s, prob in enumerate(d.probs):
            wh = prob * h
            for g in case.generators:
                out = d.pg.get((g.id, t, s))
                if out is not None and g.committed(ta):
                    c = wh * g.energy_cost(out, ta)
                    if g.is_import:
                        imports += c
                    else:
                        energy += c
                for p in RESERVE_PRODUCTS:
                    r = d.reserve.get((p, g.id, t, s))
                    if r:
                        reserves += wh * g.price(p) * r
            pen_bal += wh * (
                case.penalties.shortage * d.shortage.get((t, s), 0.0)
                + case.penalties.surplus * d.surplus.get((t, s), 0.0)
            )
            pen_res += wh * (
                case.penalties.reg * d.short_reg.get((t, s), 0.0)
                + case.penalties.rspin * d.short_rspin.get((t, s), 0.0)
                + case.penalties.op * d.short_op.get((t, s), 0.0)
            )
            pen_flow += wh * sum(flow_cells.get((t, s), ()))
    return CostBreakdown.build(
        energy=energy,
        imports=imports,
        no_load=no_load,
        reserves=reserves,
        penalty_balance=pen_bal,
        penalty_reserves=pen_res,
        penalty_flow=pen_flow,
    )
