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

import numpy as np

from .lp import LinearProgram
from .model import (
    ScenarioSet,
    SystemState,
    ValidatedCase,
    ValidationError,
    check_scenarios,
)

#: reserve products in model order (regulating, spinning, supplemental on/off)
PRODUCTS = ("reg", "spin", "supp_on", "supp_off")
#: the per-generator quantities shared across scenarios at the binding period
FIRST_STAGE_KINDS = ("pg",) + PRODUCTS


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
        self._col_rev = {}
        self._row = {}
        self._row_rev = {}
        self.bound_records = {}  # family -> list of (key, value)
        self.meta = {}

    def add_col(self, key, idx):
        if key in self._col:
            raise ValueError(f"duplicate column key {key}")
        self._col[key] = idx
        self._col_rev[idx] = key

    def col(self, key):
        return self._col[key]

    def get(self, key):
        return self._col.get(key)

    def col_key(self, idx):
        return self._col_rev[idx]

    def add_row(self, key, idx):
        if key in self._row:
            raise ValueError(f"duplicate row key {key}")
        self._row[key] = idx
        self._row_rev[idx] = key

    def row(self, key):
        return self._row[key]

    def row_key(self, idx):
        return self._row_rev[idx]

    def add_bound_record(self, family, key, value):
        self.bound_records.setdefault(family, []).append((key, value))

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
        out = cls(**parts)
        out.total = (
            out.energy
            + out.imports
            + out.no_load
            + out.reserves
            + out.penalty_balance
            + out.penalty_reserves
            + out.penalty_flow
        )
        return out

    def __add__(self, other):
        return CostBreakdown.build(
            energy=self.energy + other.energy,
            imports=self.imports + other.imports,
            no_load=self.no_load + other.no_load,
            reserves=self.reserves + other.reserves,
            penalty_balance=self.penalty_balance + other.penalty_balance,
            penalty_reserves=self.penalty_reserves + other.penalty_reserves,
            penalty_flow=self.penalty_flow + other.penalty_flow,
        )

    def as_dict(self):
        return dataclasses.asdict(self)


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
                ub = g.cap("supp_off")
                col = lp.add_var(0.0, ub, w * g.price("supp_off"),
                                 name=f"supp_off({g.id},{t},{s})")
                vm.add_col(("supp_off", g.id, t, s), col)
                vm.add_bound_record("supp_off_limit", (g.id, t, s), ub)
                vm.add_bound_record("reserve_cap", ("supp_off", g.id, t, s), ub)
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

        reg = spin = supp_on = None
        if g.reg_eligible(ta):
            band = 0.5 * (pmax_ts - g.pmin)
            deploy = 5.0 * g.ramp_up
            ub = min(g.cap("reg"), band, deploy)
            reg = lp.add_var(0.0, ub, w * g.price("reg"), name=f"reg({g.id},{t},{s})")
            vm.add_col(("reg", g.id, t, s), reg)
            vm.add_bound_record("regulation_band", (g.id, t, s), band)
            vm.add_bound_record("regulation_deploy", (g.id, t, s), deploy)
            vm.add_bound_record("reserve_cap", ("reg", g.id, t, s), g.cap("reg"))
        if g.spin_eligible(ta):
            band = pmax_ts - g.pmin
            ub = min(g.cap("spin"), band)
            spin = lp.add_var(0.0, ub, w * g.price("spin"), name=f"spin({g.id},{t},{s})")
            vm.add_col(("spin", g.id, t, s), spin)
            vm.add_bound_record("spinning_band", (g.id, t, s), band)
            vm.add_bound_record("reserve_cap", ("spin", g.id, t, s), g.cap("spin"))
        if g.supp_on_eligible(ta):
            band = pmax_ts - g.pmin
            ub = min(g.cap("supp_on"), band)
            supp_on = lp.add_var(0.0, ub, w * g.price("supp_on"),
                                 name=f"supp_on({g.id},{t},{s})")
            vm.add_col(("supp_on", g.id, t, s), supp_on)
            vm.add_bound_record("supp_on_band", (g.id, t, s), band)
            vm.add_bound_record("reserve_cap", ("supp_on", g.id, t, s), g.cap("supp_on"))

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
            ("req_operating", "short_op", req.op, pen.op, PRODUCTS),
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
        fam = {"pg": "anticipativity_pg", "reg": "anticipativity_reg",
               "spin": "anticipativity_spin", "supp_on": "anticipativity_supp_on",
               "supp_off": "anticipativity_supp_off"}
        for s in range(1, self.scen.n_scenarios):
            for g in self.case.generators:
                for kind in FIRST_STAGE_KINDS:
                    a = vm.get((kind, g.id, 0, s))
                    b = vm.get((kind, g.id, 0, 0))
                    if a is None or b is None:
                        continue
                    r = lp.add_row([a, b], [1.0, -1.0], "=", 0.0,
                                   name=f"na_{kind}({g.id},{s})")
                    vm.add_row((fam[kind], g.id, s), r)


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
    from .model import Scenario

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

    probs = [s.prob for s in scenarios.scenarios]
    theta_cols = []
    for s, p in enumerate(probs):
        col = lp.add_var(-np.inf, np.inf, p, name=f"theta({s})")
        vm.add_col(("theta", s), col)
        theta_cols.append(col)

    per_scenario = [0] * len(probs)
    for cut in cuts:
        s = cut.scenario
        cols = [theta_cols[s]]
        vals = [1.0]
        for (kind, gid), coef in cut.coef_x1.items():
            c = vm.get((kind, gid, 0, 0))
            if c is not None and coef != 0.0:
                cols.append(c)
                vals.append(-float(coef))
        r = lp.add_row(cols, vals, ">=", cut.rhs_const,
                       name=f"cut({s},{per_scenario[s]})")
        vm.add_row(("optimality_cut", s, per_scenario[s]), r)
        per_scenario[s] += 1
    for s, count in enumerate(per_scenario):
        if count == 0:
            raise ValidationError(
                f"scenario {s} has no cuts; seed the pool with the initialization floor"
            )
    return lp.freeze(), vm


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


def first_stage_values(sol, vmap):
    """First-stage quantities {(kind, gid): value} from any solved model."""
    case = vmap.meta["case"].case
    out = {}
    for kind, gid in first_stage_keys(case):
        c = vmap.get((kind, gid, 0, 0))
        out[(kind, gid)] = float(sol.x[c]) if c is not None else 0.0
    return out


_CLAMP_KINDS = {"surplus", "shortage", "short_reg", "short_rspin", "short_op",
                "flow_excess"}
_SLACK_CLAMP = 1e-9


def extract_dispatch(sol, vmap):
    """Copy a solved model into a DispatchSolution.

    Only optimal solutions are extractable; penalty slacks below 1e-9 are
    clamped to exact zero; branch flows are recomputed from the nodal
    injections (they are well-defined whether or not any flowgate rows
    were materialized)."""
    from .model import DispatchSolution

    if sol.status != "optimal":
        raise RuntimeError(f"cannot extract dispatch from a '{sol.status}' solution")
    meta = vmap.meta
    case = meta["case"].case
    pg, reserve = {}, {}
    shortage, surplus = {}, {}
    short_reg, short_rspin, short_op = {}, {}, {}
    flow, flow_excess = {}, {}
    inj = {}
    for key, idx in vmap.columns():
        kind = key[0]
        v = float(sol.x[idx])
        if kind in _CLAMP_KINDS and abs(v) < _SLACK_CLAMP:
            v = 0.0
        if kind == "pg":
            pg[(key[1], key[2], key[3])] = v
        elif kind in PRODUCTS:
            reserve[(kind, key[1], key[2], key[3])] = v
        elif kind == "surplus":
            surplus[(key[1], key[2])] = v
        elif kind == "shortage":
            shortage[(key[1], key[2])] = v
        elif kind == "short_reg":
            short_reg[(key[1], key[2])] = v
        elif kind == "short_rspin":
            short_rspin[(key[1], key[2])] = v
        elif kind == "short_op":
            short_op[(key[1], key[2])] = v
        elif kind == "flow_excess":
            flow_excess[(key[1], key[2], key[3])] = v
        elif kind == "inj":
            inj[(key[1], key[2], key[3])] = v
    cells = sorted({(t, s) for (_b, t, s) in inj})
    for e in case.branches:
        for t, s in cells:
            pf = sum(coef * inj.get((bus, t, s), 0.0) for bus, coef in e.ptdf.items())
            flow[(e.id, t, s)] = pf
            if (e.id, t, s) not in flow_excess:
                flow_excess[(e.id, t, s)] = 0.0
    return DispatchSolution(
        periods=meta["periods"],
        scenario_ids=meta["scenario_ids"],
        probs=meta["probs"],
        first_period=meta["first_period"],
        pg=pg,
        reserve=reserve,
        shortage=shortage,
        surplus=surplus,
        short_reg=short_reg,
        short_rspin=short_rspin,
        short_op=short_op,
        flow=flow,
        flow_excess=flow_excess,
        objective=float(sol.objective),
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
                for p in PRODUCTS:
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
            pen_flow += wh * sum(
                branch_price[e] * v
                for (e, tt, ss), v in d.flow_excess.items()
                if tt == t and ss == s
            )
    return CostBreakdown.build(
        energy=energy,
        imports=imports,
        no_load=no_load,
        reserves=reserves,
        penalty_balance=pen_bal,
        penalty_reserves=pen_res,
        penalty_flow=pen_flow,
    )
