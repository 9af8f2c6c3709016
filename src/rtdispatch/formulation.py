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
caps, five-minute regulation deployability) are encoded as column bounds,
not rows.  The registry (``VariableMap``) is a model's one naming: it keys
every column and row, and the LP itself carries no names.

The first stage (each generator's ``pg`` and reserves at the binding
period) is a float64 vector in ``first_stage_keys`` order wherever it
travels; only this module maps its positions to a model's columns.

Period indices inside a model are window-local (0-based); the absolute
day period of window period 0 is carried along so per-period commitment
and availability flags resolve correctly.

A model is built in two steps, a layout and a fill.  The columns and rows
of one (period, scenario) cell depend only on the case, the flow mode and
which generators are committed and eligible for each reserve at that
period, so their layout is worked out once, as a ``_CellTemplate`` cached
on the ``ValidatedCase``.  A model's ``_Layout`` adds each cell as one bulk
add of columns and one of rows (``LinearProgram.add_vars`` / ``add_rows``),
each scenario's ramp rows as one more block, and freezes the result: the
matrix, senses and registry, plus index arrays that say where each number
that varies goes.  Its fill writes only those numbers (cell costs,
capacity-dependent bounds, loads, ramps to the previous dispatch, pins)
into a copy on the same structure, with its own registry.  Every public
builder is a layout and a fill; ``ModelSlots`` refills a rolling day's
layout while its ``structure_key`` holds.  The result is the model a
row-by-row build gives, entry for entry.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import operator

import numpy as np

from .lp import EQ, GE, LE, LinearProgram
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
    """Ordered (kind, generator id) labels of the first-stage vector."""
    case = case.case if isinstance(case, ValidatedCase) else case
    return [(kind, g.id) for g in case.generators for kind in FIRST_STAGE_KINDS]


def first_stage_columns(vmap, t=0, s=0):
    """Each first-stage position's column at window period ``t`` of
    scenario ``s``, -1 where the model has none, read-only; a filled
    model's layout keeps them."""
    kept = {} if vmap.layout is None else vmap.layout.stage_columns
    if (t, s) not in kept:
        kept[t, s] = np.array([-1 if (c := vmap.get((kind, gid, t, s))) is None else c
                               for kind, gid in first_stage_keys(vmap.meta["case"])], np.int64)
        kept[t, s].flags.writeable = False
    return kept[t, s]


class VariableMap:
    """Bijective registry between model coordinates and LP columns/rows.

    Column keys are tuples ``(kind, *ids, t, s)``; row keys are
    ``(family, *ids)``.  Limits on a single column are its bounds in the
    LP and have no key here.
    """

    def __init__(self):
        self._col = {}
        self._row = {}
        self.meta = {}
        self.layout = None  # the layout a builder filled this registry from

    def add_cols(self, keys, start):
        """Register ``keys`` as the columns from ``start`` on, in order."""
        _register(self._col, keys, start, "column")

    def col(self, key):
        return self._col[key]

    def get(self, key):
        return self._col.get(key)

    def add_rows(self, keys, start):
        """Register ``keys`` as the rows from ``start`` on, in order."""
        _register(self._row, keys, start, "row")

    def row(self, key):
        return self._row[key]

    def copy(self, meta=None):
        """A registry whose rows extend without touching this one's; the
        columns are shared, and so is the meta unless ``meta`` is given."""
        out = VariableMap()
        out._col, out._row = self._col, dict(self._row)
        out.meta = self.meta if meta is None else meta
        return out

    def columns(self):
        return self._col.items()

    def rows(self):
        return self._row.items()


def _register(table, keys, start, what):
    new = dict(zip(keys, range(start, start + len(keys))))
    if len(new) != len(keys) or not table.keys().isdisjoint(new):
        dup = next(k for i, k in enumerate(keys) if k in table or k in keys[:i])
        raise ValueError(f"duplicate {what} key {dup}")
    table.update(new)


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


class _CellTemplate:
    """The layout of one (period, scenario) cell for one case, flow mode and
    commitment/eligibility pattern.

    Its columns and rows come in assembly order: per generator its output,
    bid segments and reserves with their block, floor, ceiling and
    contingency rows; then the system block (injections, balance, reserve
    tiers, flow excess and, under full flows, the flowgate rows).  Indices
    are local to the cell, and keys lack their ``(t, s)`` tail.  What varies
    by cell is listed by position: the reserve bounds that follow the
    available band, and the ceiling and ``inj_def`` right-hand sides.  The
    per-generator arrays at the end serve the ramp rows."""

    def __init__(self, vc, flows, ta):
        case, gens = vc.case, vc.case.generators
        columns, rows, cols, vals = [], [], [], []
        banded, reserves, pg, ceilings, inj_rows = [], {}, [], [], []

        def col(key, lo, hi, price):
            columns.append((key, lo, hi, price))
            return len(columns) - 1

        def row(key, rcols, rvals, sense, rhs):
            rows.append((key, len(rcols), sense, rhs))
            cols.extend(rcols)
            vals.extend(rvals)
            return len(rows) - 1

        def reserve(i, g, product, scale=None, limit=np.inf):
            """A reserve column capped by the product's cap, ``limit`` and,
            with a ``scale``, ``scale`` times the cell's band."""
            static = min(g.cap(product), limit)
            c = reserves[(product, i)] = col((product, g.id), 0.0, static, g.price(product))
            if scale is not None:
                banded.append((c, i, scale, static))
            return c

        for i, g in enumerate(gens):
            if not g.committed(ta):
                pg.append(col(("pg", g.id), 0.0, 0.0, 0.0))
                if g.supp_off_eligible(ta):
                    reserve(i, g, "supp_off")
                continue
            pg.append(col(("pg", g.id), 0.0, np.inf, 0.0))
            segs = [col(("seg", g.id, k), 0.0, width, price)
                    for k, (width, price) in enumerate(g.segments)]
            row(("dispatch_blocks", g.id), [pg[i]] + segs,
                [1.0] + [-1.0] * len(segs), EQ, g.pmin)
            reg = spin = supp_on = None
            if g.reg_eligible(ta):
                reg = reserve(i, g, "reg", 0.5, 5.0 * g.ramp_up)
            if g.spin_eligible(ta):
                spin = reserve(i, g, "spin", 1.0)
            if g.supp_on_eligible(ta):
                supp_on = reserve(i, g, "supp_on", 1.0)
            floor = [pg[i]] + ([reg] if reg is not None else [])
            row(("floor_with_regulation", g.id), floor, [1.0, -1.0][: len(floor)], GE, g.pmin)
            ceil = [pg[i]] + [c for c in (reg, spin, supp_on) if c is not None]
            ceilings.append((row(("ceiling_with_reserves", g.id), ceil,
                                 [1.0] * len(ceil), LE, g.pmax), i))
            cont = [c for c in (spin, supp_on) if c is not None]
            if cont:
                row(("contingency_deploy", g.id), cont, [1.0] * len(cont), LE,
                    10.0 * g.ramp_up)

        inj = {}
        for bus in case.buses:
            inj[bus] = col(("inj", bus), -np.inf, np.inf, 0.0)
            at_bus = [pg[i] for i, g in enumerate(gens) if g.bus == bus]
            inj_rows.append(row(("injection_def", bus), at_bus + [inj[bus]],
                                [1.0] * len(at_bus) + [-1.0], EQ, 0.0))
        pen, req = case.penalties, case.reserve_req
        slacks = [col(("surplus",), 0.0, np.inf, pen.surplus),
                  col(("shortage",), 0.0, np.inf, pen.shortage)]
        row(("system_balance",), [*inj.values(), *slacks],
            [1.0] * len(inj) + [-1.0, 1.0], EQ, 0.0)
        tiers = (
            ("req_regulation", "short_reg", req.reg, pen.reg, ("reg",)),
            ("req_reg_spin", "short_rspin", req.rspin, pen.rspin, ("reg", "spin")),
            ("req_operating", "short_op", req.op, pen.op, RESERVE_PRODUCTS),
        )
        for family, slack_kind, target, price, products in tiers:
            tier = [col((slack_kind,), 0.0, np.inf, price)]
            tier += [reserves[(p, i)] for i in range(len(gens)) for p in products
                     if (p, i) in reserves]
            row((family,), tier, [1.0] * len(tier), GE, target)
        for e in case.branches:
            if not e.monitored:
                continue
            df = col(("flow_excess", e.id), 0.0, np.inf, e.violation_price)
            if flows == "full":
                for family, spec in zip(_FLOWGATE_ROWS, _flowgate_rows(e, inj, df)):
                    row((family, e.id), *spec)

        self.col_keys, lo, hi, price = zip(*columns)
        self.row_keys, counts, self.senses, rhs = zip(*rows)
        self.lo, self.hi, self.price, self.vals, self.rhs = (
            np.array(v, dtype=np.float64) for v in (lo, hi, price, vals, rhs))
        self.cols, self.counts, self.pg, self.inj_rows = (
            np.array(v, dtype=np.int64) for v in (cols, counts, pg, inj_rows))
        banded = np.array(banded, dtype=np.float64).reshape(-1, 4).T
        self.banded, self.banded_gens = banded[:2].astype(np.int64)
        self.banded_scale, self.banded_caps = banded[2:]
        self.ceil_rows, self.ceil_gens = np.array(ceilings, dtype=np.int64).reshape(-1, 2).T
        # per generator, for the ramp rows and the no-load cost
        self.on = np.array([g.committed(ta) for g in gens])
        self.no_load = [g.no_load_cost for g in gens if g.committed(ta)]
        self.pmin, self.pmax, up, dn = np.array(
            [(g.pmin, g.pmax, g.ramp_up, g.ramp_down) for g in gens], dtype=np.float64).T
        self.up, self.dn = up * case.step_minutes, dn * case.step_minutes
        self.ramp_keys = [(("ramp_up", g.id), ("ramp_down", g.id)) for g in gens]
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.flags.writeable = False


def _check_inputs(vc, flows):
    if not isinstance(vc, ValidatedCase):
        raise TypeError("model builders require a ValidatedCase (run validate_case)")
    if flows not in ("full", "lazy"):
        raise ValueError(f"unknown flow mode '{flows}'")


def _template(vc, flows, ta):
    """Absolute period ta's cell template, cached on the case by flow mode
    and period and shared by the periods of one pattern.  Builders on two
    threads may both make a missing template; setdefault keeps one, and
    both are the same layout."""
    cache = vc.__dict__.setdefault("_cell_templates", {})
    out = cache.get((flows, ta))
    if out is None:
        pattern = (flows, tuple(
            (g.committed(ta), g.reg_eligible(ta), g.spin_eligible(ta),
             g.supp_on_eligible(ta), g.supp_off_eligible(ta)) for g in vc.case.generators))
        out = cache.get(pattern) or cache.setdefault(pattern, _CellTemplate(vc, flows, ta))
        cache[(flows, ta)] = out
    return out


def structure_key(vc, flows, first_abs, horizon, start=0):
    """What the structure of a one-scenario model over ``horizon`` periods
    from absolute period ``first_abs`` depends on: the flow mode, each
    period's cell template (one per commitment/eligibility pattern), the
    window length and the first period assembled as cells (1 for a Benders
    subproblem).  Two such models with equal keys differ only in their
    numbers; a master's key also needs its cuts' pattern, which gives its
    scenario count."""
    _check_inputs(vc, flows)
    return (flows, tuple(_template(vc, flows, first_abs + t) for t in range(horizon)),
            horizon, start)


class _Layout:
    """A model's structure, built once, and where its numbers go.

    ``lp`` and ``vmap`` are the frozen matrix, senses and registry, with
    each number a fill writes at a placeholder.  The index arrays say
    where those numbers go: every cell column's cost (the cell weight times
    its unit price), the reserve upper bounds that follow the available
    band, the ceiling and ``inj_def`` right-hand sides (capacity, load),
    the period-0 ramp right-hand sides (the previous dispatch), and pin,
    theta and cut numbers where the model has them.

    ``fill`` writes only numbers and hands out a copy of ``lp`` on the same
    structure and a copy of the registry with its own meta, so a fresh
    build (layout, then fill) and a refilled layout run the same code.
    The role methods (``sced``, ``lad``, ...) take a builder's inputs."""

    def __init__(self, vc, flows, first_abs, horizon, n_scen=1):
        _check_inputs(vc, flows)
        self.vc, self.case, self.n_scen = vc, vc.case, n_scen
        self.h = self.case.step_minutes / 60.0
        self.tpls = [_template(vc, flows, first_abs + t) for t in range(horizon)]
        self.lp, self.vmap = LinearProgram(), VariableMap()
        self.vmap.meta["case"] = vc
        # index chunks per cell and block, concatenated by freeze()
        self._at = {k: [] for k in _FILLED}
        self.pinned_pg = None

    # -- assembly ---------------------------------------------------------

    def cell(self, tpl, t, s):
        """Append cell (t, s) at the template's own numbers; returns its pg
        columns."""
        lp, vm, ts, at = self.lp, self.vmap, (t, s), self._at
        c0 = lp.add_vars(tpl.lo, tpl.hi, tpl.price)
        vm.add_cols([k + ts for k in tpl.col_keys], c0)
        r0 = lp.add_rows(tpl.cols + c0, tpl.vals, tpl.counts, tpl.senses, tpl.rhs)
        vm.add_rows([k + ts for k in tpl.row_keys], r0)
        n_gens, n_buses = tpl.pmin.size, tpl.inj_rows.size
        cell = s * len(self.tpls) + t  # position in a fill's (scenario, period) grid
        at["priced"].append(np.arange(c0, c0 + tpl.price.size))
        at["price"].append(tpl.price)
        at["priced_scen"].append(np.full(tpl.price.size, s))
        at["banded"].append(tpl.banded + c0)
        at["banded_at"].append(tpl.banded_gens + cell * n_gens)
        at["banded_pmin"].append(tpl.pmin[tpl.banded_gens])
        at["banded_scale"].append(tpl.banded_scale)
        at["banded_caps"].append(tpl.banded_caps)
        at["ceil"].append(tpl.ceil_rows + r0)
        at["ceil_at"].append(tpl.ceil_gens + cell * n_gens)
        at["inj"].append(tpl.inj_rows + r0)
        at["inj_at"].append(np.arange(n_buses) + cell * n_buses)
        return tpl.pg + c0

    def ramp_block(self, pg, s, start):
        """Couple pg at each window period t >= start to period t-1: to its
        pg columns ``pg[t-1]`` or, at t = 0, to the previous dispatch,
        whose right-hand sides the fill writes."""
        tpls, blocks, keys = self.tpls, [], []
        for t in range(start, len(tpls)):
            tpl, cur = tpls[t], pg[t]
            if t == 0:
                on = np.flatnonzero(tpl.on)
                # [cur] <= prev + up, [cur] >= prev - dn
                blocks.append((np.repeat(cur[on], 2), np.ones(2 * len(on)),
                               np.full(2 * len(on), 1), np.tile([LE, GE], len(on)),
                               (np.zeros(len(on)), np.zeros(len(on)))))
            else:
                on = np.flatnonzero(tpl.on | tpls[t - 1].on)
                c, p = cur[on], pg[t - 1][on]
                # [cur, prev] <= up, [prev, cur] <= dn
                blocks.append((np.column_stack((c, p, p, c)).ravel(),
                               np.tile([1.0, -1.0], 2 * len(on)), np.full(2 * len(on), 2),
                               np.full(2 * len(on), LE), (tpl.up[on], tpl.dn[on])))
            keys += [k + (t, s) for i in on.tolist() for k in tpl.ramp_keys[i]]
        if blocks:
            cols, vals, counts, senses, rhs = zip(*blocks)
            rhs = np.concatenate([np.column_stack(r).ravel() for r in rhs])
            r0 = self.lp.add_rows(np.concatenate(cols), np.concatenate(vals),
                                  np.concatenate(counts), np.concatenate(senses), rhs)
            self.vmap.add_rows(keys, r0)
            if start == 0:
                n_on = np.count_nonzero(tpls[0].on)
                self._at["ramp_up"].append(np.arange(r0, r0 + 2 * n_on, 2))
                self._at["ramp_dn"].append(np.arange(r0 + 1, r0 + 2 * n_on, 2))

    def pins(self):
        """Free period-0 columns fixed by equality rows to the first stage.

        Reserve pins never feed later periods (reserves do not couple in
        time) so their duals vanish; they are kept so the pin-row dual
        vector lines up with the full first-stage vector."""
        lp, vm = self.lp, self.vmap
        keys = first_stage_keys(self.case)
        n = len(keys)
        c0 = lp.add_vars(np.full(n, -np.inf), np.full(n, np.inf), np.zeros(n))
        vm.add_cols([(kind, gid, 0, 0) for kind, gid in keys], c0)
        r0 = lp.add_rows(np.arange(c0, c0 + n), np.ones(n), [1] * n, [EQ] * n, np.zeros(n))
        vm.add_rows([("pin_first_stage", kind, gid) for kind, gid in keys], r0)
        vm.meta["pin_rows"] = tuple(range(r0, r0 + n))
        self._at["pins"].append(np.arange(r0, r0 + n))
        self._at["pins_at"].append(np.arange(n))
        # the pinned pg columns: each generator's first key
        self.pinned_pg = np.arange(c0, c0 + n, len(FIRST_STAGE_KINDS))
        return self

    def grid(self, start=0, anticipativity=False):
        """Every scenario's cells from window period ``start`` on, each
        followed by its ramp rows; a subproblem's period 0 is its pins."""
        tpls = self.tpls
        for s in range(self.n_scen):
            pg = [self.pinned_pg] if start else []
            pg += [self.cell(tpls[t], t, s) for t in range(start, len(tpls))]
            self.ramp_block(pg, s, start)
        noload = 0.0
        for t in range(start, len(tpls)):
            noload += sum(self.h * c for c in tpls[t].no_load)
        self.lp.obj_const += noload
        if anticipativity:
            self.anticipativity_rows()
        return self

    def anticipativity_rows(self):
        base = first_stage_columns(self.vmap).tolist()
        for s in range(1, self.n_scen):
            cols = first_stage_columns(self.vmap, s=s).tolist()
            for (kind, gid), a, b in zip(first_stage_keys(self.case), cols, base):
                if a >= 0 and b >= 0:
                    self.add_rows([((f"anticipativity_{kind}", gid, s), [a, b], [1.0, -1.0],
                                    "=", 0.0)])

    def add_rows(self, specs):
        """Append (key, cols, vals, sense, rhs) row specs."""
        for key, *row in specs:
            self.vmap.add_rows([key], self.lp.add_row(*row))

    def thetas_and_cuts(self, probs, cuts):
        """A master's value-function columns, one per scenario, and its
        cut rows."""
        lp, vm = self.lp, self.vmap
        c0 = lp.add_vars(np.full(len(probs), -np.inf), np.full(len(probs), np.inf), probs)
        vm.add_cols([("theta", s) for s in range(len(probs))], c0)
        self._at["thetas"].append(np.arange(c0, c0 + len(probs)))
        vm.meta["cut_counts"] = [0] * len(probs)
        r0 = lp.n_rows
        self.add_rows(benders_cut_rows(vm, cuts))
        self._at["cut_rows"].append(np.arange(r0, lp.n_rows))
        for s, count in enumerate(vm.meta["cut_counts"]):
            if count == 0:
                raise ValidationError(
                    f"scenario {s} has no cuts; seed the pool with the initialization floor")
        return self

    def freeze(self):
        self.stage_columns = {}  # (t, s) -> first_stage_columns
        for k, chunks in self._at.items():
            v = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
            setattr(self, k, v)
            v.flags.writeable = False
        del self._at
        # each number a fill writes is NaN until it does, so one it missed
        # cannot pass for a number
        lp = self.lp.freeze()
        self.lp = lp.with_numbers(
            cost=_nan_at(lp.cost, self.priced, self.thetas),
            upper=_nan_at(lp.upper, self.banded),
            rhs=_nan_at(lp.rhs, self.ceil, self.inj, self.ramp_up, self.ramp_dn, self.pins,
                        self.cut_rows))
        return self

    def settlement(self):
        """This one-period layout with each first-stage position that can
        be pinned pinned by an equality row: all but an off-line
        generator's output and a column the period lacks."""
        cols = first_stage_columns(self.vmap)
        out = copy.copy(self)
        out.off = np.zeros(cols.size, dtype=bool)
        out.off[::len(FIRST_STAGE_KINDS)] = ~self.tpls[0].on
        out.unpinned = out.off | (cols < 0)
        out.pins_at = np.flatnonzero(~out.unpinned)
        n = self.lp.n_rows
        out.lp = self.lp.with_rows([([int(c)], [1.0], "=", np.nan) for c in cols[out.pins_at]])
        out.pins = np.arange(n, out.lp.n_rows)
        return out

    # -- numbers ----------------------------------------------------------

    def fill(self, scen, first_abs, weights, prev_dispatch=None, pins=None, thetas=None,
             cuts=()):
        """The model with the numbers of scenarios ``scen`` at window
        weights ``weights``, and its own registry.

        ``prev_dispatch`` maps generator ids to the previous period's
        output (the period-0 ramp rows); ``pins`` is the first-stage vector
        pinned, ``thetas`` a master's scenario probabilities and ``cuts``
        its cuts."""
        check_scenarios(scen, self.vc)
        case, n_scen, horizon = self.case, scen.n_scenarios, scen.horizon
        loads = np.array([[sc.load[b] for b in case.buses] for sc in scen.scenarios],
                         dtype=np.float64).transpose(0, 2, 1).ravel()
        pmax = np.tile(self.tpls[0].pmax, (n_scen, horizon, 1))
        for s, sc in enumerate(scen.scenarios):
            for gid, v in sc.pmax_override.items():
                pmax[s, :, self.vc.gen_index[gid]] = v
        pmax = pmax.ravel()
        cost, upper, rhs = (a.copy() for a in (self.lp.cost, self.lp.upper, self.lp.rhs))
        cost[self.priced] = (np.asarray(weights, dtype=np.float64) * self.h)[
            self.priced_scen] * self.price
        upper[self.banded] = np.minimum(
            self.banded_caps, self.banded_scale * (pmax[self.banded_at] - self.banded_pmin))
        rhs[self.ceil] = pmax[self.ceil_at]
        rhs[self.inj] = loads[self.inj_at]
        if self.ramp_up.size:
            on = np.flatnonzero(self.tpls[0].on)
            try:
                prev = np.array([float(prev_dispatch[case.generators[i].id]) for i in on])
            except KeyError as e:
                raise ValidationError(
                    f"state has no previous dispatch for generator '{e.args[0]}'"
                ) from None
            rhs[self.ramp_up] = np.tile(prev + self.tpls[0].up[on], n_scen)
            rhs[self.ramp_dn] = np.tile(prev - self.tpls[0].dn[on], n_scen)
        if pins is not None:
            n = len(case.generators) * len(FIRST_STAGE_KINDS)
            if pins.shape != (n,):
                raise ValueError(f"first-stage vector of shape {pins.shape}, expected ({n},)")
            rhs[self.pins] = pins[self.pins_at]
        if thetas is not None:
            cost[self.thetas] = thetas
            rhs[self.cut_rows] = [cut.rhs_const for cut in cuts]
        vm = self.vmap.copy(meta={
            "periods": horizon,
            "scenario_ids": tuple(s.id for s in scen.scenarios),
            "probs": tuple(s.prob for s in scen.scenarios),
            "first_period": first_abs,
            "case": self.vc,
            **{k: copy.copy(v) for k, v in self.vmap.meta.items() if k != "case"},
        })
        vm.layout = self
        return self.lp.with_numbers(cost=cost, upper=upper, rhs=rhs), vm

    def sced(self, state, demand, pmax=None, x1=None):
        """``build_sced``'s model; with ``x1``, a settlement layout's pins
        at ``x1`` clipped at zero."""
        scen = ScenarioSet(
            scenarios=(
                Scenario(
                    id="now",
                    prob=1.0,
                    load={b: (float(v),) for b, v in demand.items()},
                    pmax_override={g: (float(v),) for g, v in (pmax or {}).items()},
                ),
            ),
            horizon=1,
        )
        return self.fill(scen, state.wall_clock, [1.0], state.prev_dispatch,
                         pins=None if x1 is None else np.maximum(x1, 0.0))

    def lad(self, state, forecast):
        """``build_lad``'s model."""
        return self.fill(forecast, state.wall_clock, [1.0], state.prev_dispatch)

    def extensive(self, state, scenarios):
        """``build_slad_extensive``'s model."""
        return self.fill(scenarios, state.wall_clock, [s.prob for s in scenarios.scenarios],
                         state.prev_dispatch)

    def master(self, state, scenarios, cuts):
        """``build_benders_master``'s model."""
        require_common_first_period(scenarios)
        first = scenarios.window(0, 1)
        master_scen = ScenarioSet(
            scenarios=(dataclasses.replace(first.scenarios[0], id="now", prob=1.0),), horizon=1
        )
        return self.fill(master_scen, state.wall_clock, [1.0], state.prev_dispatch,
                         thetas=[s.prob for s in scenarios.scenarios], cuts=cuts)

    def subproblem(self, scenarios, s, x1, first_period):
        """``build_benders_subproblem``'s model."""
        sub_scen = ScenarioSet(
            scenarios=(dataclasses.replace(scenarios.scenarios[s], prob=1.0),),
            horizon=scenarios.horizon,
        )
        return self.fill(sub_scen, first_period, [1.0],
                         pins=np.zeros(len(self.pins)) if x1 is None else x1)


def _nan_at(a, *where):
    out = a.copy()
    for i in where:
        out[i] = np.nan
    return out


#: the index arrays a layout keeps for its fills
_FILLED = ("priced", "price", "priced_scen", "banded", "banded_at", "banded_pmin",
           "banded_scale", "banded_caps", "ceil", "ceil_at", "inj", "inj_at", "ramp_up",
           "ramp_dn", "pins", "pins_at", "thetas", "cut_rows")


class ModelSlots:
    """One model layout per role for one rolling day.

    ``model(role, key, build, fill)`` gives the role's model: ``fill`` of
    the layout held when its key equals ``key`` (see ``structure_key``),
    else ``build()``, a public builder, whose layout it then holds.  In a
    rolling day the models of one structure come one after another, so one
    layout per role finds them, and a day never holds more.  Used on one
    thread."""

    def __init__(self):
        self._held = {}  # role -> (key, layout)

    def model(self, role, key, build, fill):
        held = self._held.get(role)
        if held is not None and held[0] == key:
            return fill(held[1])
        lp, vmap = build()
        self._held[role] = (key, vmap.layout)
        return lp, vmap


#: the row families of a branch's upper and lower flowgate rows
_FLOWGATE_ROWS = ("flow_upper", "flow_lower")


def _flowgate_rows(branch, inj, df):
    """The (cols, vals, sense, rhs) of one cell's two flowgate rows: the
    flow over the injection columns ``inj`` (bus -> column), less or plus
    the flow-excess column ``df``, within the branch's limits."""
    ptdf = [(inj[b], float(c)) for b, c in branch.ptdf.items() if b in inj and c != 0.0]
    cols, vals = [c for c, _ in ptdf] + [df], [v for _, v in ptdf]
    return [(cols, vals + [-1.0], LE, branch.limit_hi),
            (cols, vals + [1.0], GE, branch.limit_lo)]


def flow_limit_rows(vmap, branch, t, s):
    """Row specs limiting one branch's flow in one cell (both directions).

    Returns (key, cols, vals, sense, rhs) tuples referencing the cell's
    injection and flow-excess columns, for lazy appending: the same rows a
    full-flow cell template builds upfront."""
    inj = {b: c for b in branch.ptdf if (c := vmap.get(("inj", b, t, s))) is not None}
    df = vmap.col(("flow_excess", branch.id, t, s))
    return [((family, branch.id, t, s), *spec)
            for family, spec in zip(_FLOWGATE_ROWS, _flowgate_rows(branch, inj, df))]


def append_rows(lp, vmap, specs):
    """``lp`` with (key, cols, vals, sense, rhs) row specs appended; the
    registry is extended in place."""
    vmap.add_rows([spec[0] for spec in specs], lp.n_rows)
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
    maps generator ids to their currently available capacity.  Both are
    checked against the case as the one-period scenario ``now``."""
    state = _as_state(state)
    return _Layout(vc, flows, state.wall_clock, 1).grid().freeze().sced(state, demand, pmax)


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
    layout = _Layout(vc, flows, state.wall_clock, forecast.horizon)
    return layout.grid().freeze().lad(state, forecast)


def build_slad_extensive(vc, state, scenarios: ScenarioSet, flows="full"):
    """Extensive (deterministic-equivalent) form of the two-stage model.

    Every scenario gets its own copy of all periods; first-period columns
    are equalized across scenarios by anticipativity rows."""
    state = _as_state(state)
    layout = _Layout(vc, flows, state.wall_clock, scenarios.horizon, scenarios.n_scenarios)
    return layout.grid(anticipativity=True).freeze().extensive(state, scenarios)


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
    layout = _Layout(vc, flows, state.wall_clock, 1).grid()
    layout.thetas_and_cuts([s.prob for s in scenarios.scenarios], cuts)
    return layout.freeze().master(state, scenarios, cuts)


def benders_cut_rows(vmap, cuts):
    """Row specs theta_s - coef_x1' x1 >= rhs_const for a master's registry,
    each scenario's cuts numbered on from its count (kept in the meta), so
    appending them gives the rows a build with every cut would have."""
    counts = vmap.meta["cut_counts"]
    stage = first_stage_columns(vmap)
    specs = []
    for cut in cuts:
        s, k = cut.scenario, counts[cut.scenario]
        on = np.flatnonzero((stage >= 0) & (cut.coef_x1 != 0.0))
        specs.append((("optimality_cut", s, k), [vmap.col(("theta", s))] + stage[on].tolist(),
                      [1.0] + (-cut.coef_x1[on]).tolist(), ">=", cut.rhs_const))
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
    layout = _Layout(vc, flows, first_period, scenarios.horizon).pins().grid(start=1)
    return layout.freeze().subproblem(scenarios, s, x1, first_period)


def pin_rhs_updates(vmap, x1):
    """rhs update map repointing a subproblem's pins at first stage ``x1``."""
    return dict(zip(vmap.meta["pin_rows"], x1.tolist(), strict=True))


def pin_duals(vmap, sol):
    """Pin-row duals as a read-only first-stage vector (the cut slope)."""
    out = sol.duals[list(vmap.meta["pin_rows"])]
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# extraction and costing


def first_stage_values(sol, vmap, t=0):
    """The read-only first-stage vector of any solved model, 0.0 where it
    has no column; ``t`` reads window period t (a full-day plan's slice)."""
    cols = first_stage_columns(vmap, t)
    out = np.where(cols >= 0, sol.x[cols], 0.0)
    out.flags.writeable = False
    return out


def check_commitment(vmap, x1):
    """Raise ValidationError where a settlement model cannot pin ``x1``
    clipped at zero: more than 1e-7 MW on an off-line generator, or of a
    reserve the generator is not eligible for this period."""
    layout = vmap.layout
    want = np.maximum(x1, 0.0)
    bad = np.flatnonzero(layout.unpinned & (want > 1e-7))
    if bad.size:
        i = int(bad[0])
        kind, gid = first_stage_keys(layout.vc)[i]
        raise ValidationError(f"committed {want[i]:.4g} MW " + (
            f"on '{gid}', which is off-line" if layout.off[i]
            else f"of '{kind}' on '{gid}', which is not eligible") + " this period")


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
