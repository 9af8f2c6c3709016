"""Core data model: system cases, scenario sets, dispatch state and solutions.

A SystemCase is the static description of the market footprint (buses,
generators with piecewise-linear bids, transmission sensitivities, reserve
requirements, penalty prices).  Time-varying data — per-bus demand and
per-generator capacity derates — lives in ScenarioSet objects parsed from
delimited day files.  Everything downstream (model builders, the rolling
simulator, the CLI) consumes only these types.

Monetary convention: every price in the model is $/MWh and a period of
``step_minutes`` minutes contributes ``price * step_minutes / 60`` dollars
per MW, so costs are exact dollar amounts per period.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import numbers
import operator
from dataclasses import dataclass, field, replace

RESERVE_PRODUCTS = ("reg", "spin", "supp_on", "supp_off")

#: tolerance used when checking that bid segments tile [pmin, pmax]
SEGMENT_WIDTH_TOL = 1e-6
#: PTDF entries may slightly exceed 1 in magnitude due to upstream rounding
PTDF_MAG_TOL = 1e-6
PROB_SUM_TOL = 1e-9


class CaseFormatError(ValueError):
    """Raised when a case or day file is structurally malformed.

    The message always names the offending path or column so the file can
    be fixed without reading the parser.
    """


class ValidationError(ValueError):
    """Raised when well-formed input violates a model invariant."""


def ordered_sum(values):
    """The sum of ``values`` added left to right from the int 0, as the
    builtin ``sum`` adds floats up to Python 3.11; from 3.12 on the builtin
    compensates its rounding, and sums that reach the outputs must not
    depend on the interpreter."""
    return functools.reduce(operator.add, values, 0)


def check_count(name, value):
    """Raise ValidationError unless ``value`` is an integer of at least 1
    (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValidationError(f"{name} must be an integer of at least 1, got {value!r}")


def _flag_at(profile, t):
    return profile[min(t, len(profile) - 1)]


@dataclass(frozen=True)
class Generator:
    """One dispatchable resource (or a priced import injection).

    ``segments`` is the incremental energy bid: (width MW, price $/MWh)
    blocks above ``pmin``, nondecreasing in price, tiling [pmin, pmax].
    Ramp rates are MW per minute.  ``reserve_caps`` / ``reserve_prices``
    cover regulating, spinning, supplemental-online and supplemental-
    offline products; a zero cap disables the product.  Flag profiles are
    per-period (scalar bool means constant for the day).
    """

    id: str
    bus: str
    pmin: float
    pmax: float
    initial_output: float
    ramp_up: float
    ramp_down: float
    segments: tuple[tuple[float, float], ...]
    no_load_cost: float = 0.0
    reserve_caps: dict = field(default_factory=dict)
    reserve_prices: dict = field(default_factory=dict)
    commit: tuple = (True,)
    regulation: tuple = (True,)
    ra_reg: tuple = (True,)
    ra_spin: tuple = (True,)
    ra_s_on: tuple = (True,)
    ra_s_off: tuple = (True,)
    is_import: bool = False

    def cap(self, product):
        return float(self.reserve_caps.get(product, 0.0))

    def price(self, product):
        return float(self.reserve_prices.get(product, 0.0))

    def committed(self, t):
        return _flag_at(self.commit, t)

    def reg_eligible(self, t):
        """Regulation needs the product flag, availability and commitment."""
        return (
            self.committed(t)
            and _flag_at(self.regulation, t)
            and _flag_at(self.ra_reg, t)
            and self.cap("reg") > 0.0
        )

    def spin_eligible(self, t):
        return self.committed(t) and _flag_at(self.ra_spin, t) and self.cap("spin") > 0.0

    def supp_on_eligible(self, t):
        return self.committed(t) and _flag_at(self.ra_s_on, t) and self.cap("supp_on") > 0.0

    def supp_off_eligible(self, t):
        """Supplemental-offline is carried by resources that are NOT committed."""
        return (
            not self.committed(t)
            and _flag_at(self.ra_s_off, t)
            and self.cap("supp_off") > 0.0
        )

    def energy_cost(self, mw):
        """Dollar-per-hour bid cost of producing ``mw`` on-line, merit-order fill.

        Output below pmin is priced at the first segment's rate (only
        reachable transiently through penalized slack, never at optimum).
        """
        above = mw - self.pmin
        cost = 0.0
        if above < 0.0:
            return above * self.segments[0][1] if self.segments else 0.0
        for width, price in self.segments:
            take = min(above, width)
            if take <= 0.0:
                break
            cost += take * price
            above -= take
        if above > 0.0 and self.segments:
            cost += above * self.segments[-1][1]
        return cost


@dataclass(frozen=True)
class Branch:
    """A monitored flowgate: linear injection sensitivities and MW limits."""

    id: str
    ptdf: dict
    limit_lo: float
    limit_hi: float
    violation_price: float
    monitored: bool = True


@dataclass(frozen=True)
class PenaltyPrices:
    """$/MWh prices on constraint-relaxation slack.

    ``shortage``/``surplus`` price the system energy-balance slack,
    the rest price reserve-requirement shortfall by product tier.
    """

    shortage: float
    surplus: float
    reg: float
    rspin: float
    op: float


@dataclass(frozen=True)
class ReserveRequirements:
    """System-wide MW requirements; constant across the day by construction."""

    reg: float
    rspin: float
    op: float


@dataclass(frozen=True)
class SystemCase:
    name: str
    buses: tuple
    generators: tuple
    branches: tuple
    reserve_req: ReserveRequirements
    penalties: PenaltyPrices
    step_minutes: float = 5.0

    @property
    def hours_per_step(self):
        return self.step_minutes / 60.0


class ValidatedCase:
    """A SystemCase whose invariants have been checked.

    Model builders require this wrapper so an unvalidated case cannot reach
    the LP layer.  It also carries the generator index, each id's position
    in the case-file order.
    """

    def __init__(self, case: SystemCase):
        self.case = case
        self.gen_index = {g.id: i for i, g in enumerate(case.generators)}

    def __repr__(self):
        return f"ValidatedCase({self.case.name!r})"


@dataclass(frozen=True)
class Scenario:
    """One probability-weighted trajectory of demand and capacity derates."""

    id: str
    prob: float
    load: dict  # bus -> tuple of MW, one entry per period
    pmax_override: dict = field(default_factory=dict)  # gen -> tuple of MW


@dataclass(frozen=True)
class ScenarioSet:
    scenarios: tuple
    horizon: int

    @property
    def n_scenarios(self):
        return len(self.scenarios)

    @classmethod
    def flat(cls, sid, load, pmax, length):
        """One scenario ``sid`` at probability 1 that holds each bus's MW in
        ``load`` and each generator's in ``pmax`` over ``length`` periods."""
        return cls(scenarios=(Scenario(
            id=sid, prob=1.0, load={b: (float(v),) * length for b, v in load.items()},
            pmax_override={g: (float(v),) * length for g, v in pmax.items()}),), horizon=length)

    def alone(self, s, sid=None):
        """Scenario ``s`` by itself at probability 1 (renamed ``sid`` if
        given), over the same periods."""
        sc = self.scenarios[s]
        return ScenarioSet(scenarios=(replace(sc, id=sid or sc.id, prob=1.0),),
                           horizon=self.horizon)

    def window(self, start, length):
        """Slice periods [start, start+length) out of every scenario.

        The window is truncated at the horizon; at least one period must
        remain.
        """
        if not 0 <= start < self.horizon:
            raise ValueError(f"window start {start} outside horizon {self.horizon}")
        if length < 1:
            raise ValueError(f"window length {length} is below 1")
        length = min(length, self.horizon - start)
        sliced = tuple(
            replace(
                s,
                load={b: v[start : start + length] for b, v in s.load.items()},
                pmax_override={
                    g: v[start : start + length] for g, v in s.pmax_override.items()
                },
            )
            for s in self.scenarios
        )
        return ScenarioSet(scenarios=sliced, horizon=length)

    def with_period_data(self, t, load_map, pmax_map):
        """Overwrite period ``t`` of every scenario with common realized data:
        ``load_map`` gives every bus's load, ``pmax_map`` every derated
        generator's capacity.

        Used by the rolling simulator: the first period of any look-ahead
        window is current telemetry, identical across scenarios.
        """
        def put(series, values):
            return {k: v[:t] + (float(values[k]),) + v[t + 1 :] for k, v in series.items()}

        return ScenarioSet(scenarios=tuple(
            replace(s, load=put(s.load, load_map), pmax_override=put(s.pmax_override, pmax_map))
            for s in self.scenarios), horizon=self.horizon)


@dataclass(frozen=True)
class SystemState:
    """Coupling state between consecutive dispatch intervals."""

    prev_dispatch: dict  # gen id -> MW at the end of the previous period
    wall_clock: int = 0  # 0-based index of the period about to be dispatched


def initial_state(case) -> SystemState:
    case = case.case if isinstance(case, ValidatedCase) else case
    return SystemState(
        prev_dispatch={g.id: g.initial_output for g in case.generators}, wall_clock=0
    )


@dataclass
class DispatchSolution:
    """Solved dispatch over a (periods x scenarios) window.

    Keys are (gen_id, t, s) with t a window-local 0-based period and s the
    scenario position; slack fields are keyed (t, s) and ``flow_excess``
    (branch_id, t, s).  ``first_period`` records the absolute day period of
    window period 0 so costs can be itemized with the right flags.
    """

    periods: int
    scenario_ids: tuple
    probs: tuple
    first_period: int
    pg: dict
    reserve: dict  # (product, gen_id, t, s) -> MW
    shortage: dict
    surplus: dict
    short_reg: dict
    short_rspin: dict
    short_op: dict
    flow_excess: dict
    objective: float

    def pg_at(self, gid, t, s=0):
        return self.pg.get((gid, t, s), 0.0)


# ---------------------------------------------------------------------------
# case parsing


_MISSING = object()


def _number(val, path):
    """A JSON number as a float; NaN, infinities and integers too large
    for a float are rejected."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise CaseFormatError(f"{path}: expected number, got {type(val).__name__}")
    try:
        out = float(val)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise CaseFormatError(f"{path}: expected a finite number, got {out}")
    return out


def finite_float(text):
    """``float(text)`` if that is a finite number, else None."""
    try:
        val = float(text)
    except ValueError:
        return None
    return val if math.isfinite(val) else None


def _want(mapping, key, kind, path, default=_MISSING):
    if key not in mapping:
        if default is not _MISSING:
            return default
        raise CaseFormatError(f"{path}: missing required field '{key}'")
    val = mapping[key]
    if kind is float:
        return _number(val, f"{path}.{key}")
    if kind is not None and not isinstance(val, kind):
        raise CaseFormatError(
            f"{path}.{key}: expected {getattr(kind, '__name__', kind)}, got {type(val).__name__}"
        )
    return val


#: a generator's per-period flags, in the order they are parsed
FLAGS = ("commit", "regulation", "ra_reg", "ra_spin", "ra_s_on", "ra_s_off")


def _parse_flag(raw, path):
    if isinstance(raw, bool):
        return (raw,)
    if isinstance(raw, list):
        if not raw or not all(isinstance(v, bool) for v in raw):
            raise CaseFormatError(f"{path}: expected bool or list of bool")
        return tuple(raw)
    raise CaseFormatError(f"{path}: expected bool or list of bool")


def _parse_generator(raw, i):
    path = f"generators[{i}]"
    if not isinstance(raw, dict):
        raise CaseFormatError(f"{path}: expected object")
    segments = _want(raw, "segments", list, path)
    segs = []
    for k, seg in enumerate(segments):
        spath = f"{path}.segments[{k}]"
        if not isinstance(seg, dict):
            raise CaseFormatError(f"{spath}: expected object")
        segs.append((_want(seg, "width", float, spath), _want(seg, "price", float, spath)))
    caps = _want(raw, "reserve_caps", dict, path, default={})
    prices = _want(raw, "reserve_prices", dict, path, default={})
    for d, dpath in ((caps, "reserve_caps"), (prices, "reserve_prices")):
        for key in d:
            if key not in RESERVE_PRODUCTS:
                raise CaseFormatError(f"{path}.{dpath}.{key}: unknown reserve product")
    flags = _want(raw, "flags", dict, path, default={})
    for key in flags:
        if key not in FLAGS:
            raise CaseFormatError(f"{path}.flags.{key}: unknown flag")
    return Generator(
        id=_want(raw, "id", str, path),
        bus=_want(raw, "bus", str, path),
        pmin=_want(raw, "pmin", float, path),
        pmax=_want(raw, "pmax", float, path),
        initial_output=_want(raw, "initial_output", float, path, default=0.0),
        ramp_up=_want(raw, "ramp_up", float, path),
        ramp_down=_want(raw, "ramp_down", float, path),
        segments=tuple(segs),
        no_load_cost=_want(raw, "no_load_cost", float, path, default=0.0),
        reserve_caps={k: _number(v, f"{path}.reserve_caps.{k}") for k, v in caps.items()},
        reserve_prices={k: _number(v, f"{path}.reserve_prices.{k}")
                        for k, v in prices.items()},
        **{name: _parse_flag(flags[name], f"{path}.flags.{name}") if name in flags else (True,)
           for name in FLAGS},
        is_import=_want(raw, "is_import", bool, path, default=False),
    )


def _parse_branch(raw, i):
    path = f"branches[{i}]"
    if not isinstance(raw, dict):
        raise CaseFormatError(f"{path}: expected object")
    ptdf_raw = _want(raw, "ptdf", dict, path)
    ptdf = {bus: _number(coef, f"{path}.ptdf.{bus}") for bus, coef in ptdf_raw.items()}
    return Branch(
        id=_want(raw, "id", str, path),
        ptdf=ptdf,
        limit_lo=_want(raw, "limit_lo", float, path),
        limit_hi=_want(raw, "limit_hi", float, path),
        violation_price=_want(raw, "violation_price", float, path),
        monitored=_want(raw, "monitored", bool, path, default=True),
    )


def parse_case(text: str) -> SystemCase:
    """Parse a JSON case document into a SystemCase.

    Structural problems raise CaseFormatError naming the offending path;
    semantic problems (duplicate ids, unknown bus references) raise
    ValidationError.  The returned case is not yet validated — run it
    through validate_case before building models.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseFormatError(f"<root>: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise CaseFormatError("<root>: expected object")
    buses = _want(doc, "buses", list, "<root>")
    for i, b in enumerate(buses):
        if not isinstance(b, str):
            raise CaseFormatError(f"buses[{i}]: expected string")
    gens = tuple(
        _parse_generator(raw, i) for i, raw in enumerate(_want(doc, "generators", list, "<root>"))
    )
    branches = tuple(
        _parse_branch(raw, i)
        for i, raw in enumerate(_want(doc, "branches", list, "<root>", default=[]))
    )
    req_raw = _want(doc, "reserve_req", dict, "<root>", default={})
    for key in req_raw:
        if key not in ("reg", "rspin", "op"):
            raise CaseFormatError(f"reserve_req.{key}: unknown reserve tier")
    req = ReserveRequirements(
        reg=_want(req_raw, "reg", float, "reserve_req", default=0.0),
        rspin=_want(req_raw, "rspin", float, "reserve_req", default=0.0),
        op=_want(req_raw, "op", float, "reserve_req", default=0.0),
    )
    pen_raw = _want(doc, "penalties", dict, "<root>")
    shortage = _want(pen_raw, "shortage", float, "penalties")
    penalties = PenaltyPrices(
        shortage=shortage,
        surplus=_want(pen_raw, "surplus", float, "penalties", default=shortage),
        reg=_want(pen_raw, "reg", float, "penalties", default=0.0),
        rspin=_want(pen_raw, "rspin", float, "penalties", default=0.0),
        op=_want(pen_raw, "op", float, "penalties", default=0.0),
    )
    case = SystemCase(
        name=_want(doc, "name", str, "<root>", default="case"),
        buses=tuple(buses),
        generators=gens,
        branches=branches,
        reserve_req=req,
        penalties=penalties,
        step_minutes=_want(doc, "step_minutes", float, "<root>", default=5.0),
    )
    _check_ids(case)
    return case


def _check_ids(case):
    """Duplicate-id and dangling-reference checks shared by parse and validate."""
    seen = set()
    for b in case.buses:
        if b in seen:
            raise ValidationError(f"duplicate bus id '{b}'")
        seen.add(b)
    seen = set()
    for g in case.generators:
        if g.id in seen:
            raise ValidationError(f"duplicate generator id '{g.id}'")
        seen.add(g.id)
        if g.bus not in case.buses:
            raise ValidationError(f"generator '{g.id}' references unknown bus '{g.bus}'")
    seen = set()
    for e in case.branches:
        if e.id in seen:
            raise ValidationError(f"duplicate branch id '{e.id}'")
        seen.add(e.id)
        for bus in e.ptdf:
            if bus not in case.buses:
                raise ValidationError(f"branch '{e.id}' references unknown bus '{bus}'")


def validate_case(case: SystemCase) -> ValidatedCase:
    """Check every model invariant; raise ValidationError listing all failures."""
    problems = []
    _collect = problems.append
    try:
        _check_ids(case)
    except ValidationError as exc:
        _collect(str(exc))
    if case.step_minutes <= 0:
        _collect(f"step_minutes must be positive, got {case.step_minutes}")
    if not case.buses:
        _collect("case has no buses")
    for g in case.generators:
        gid = g.id
        if not 0.0 <= g.pmin <= g.pmax:
            _collect(f"generator '{gid}': need 0 <= pmin <= pmax, got [{g.pmin}, {g.pmax}]")
        if not 0.0 <= g.initial_output <= g.pmax + 1e-9:
            _collect(f"generator '{gid}': initial_output {g.initial_output} outside [0, pmax]")
        if g.ramp_up <= 0 or g.ramp_down <= 0:
            _collect(f"generator '{gid}': ramp rates must be positive")
        if g.no_load_cost < 0:
            _collect(f"generator '{gid}': no_load_cost must be nonnegative")
        widths = ordered_sum(w for w, _ in g.segments)
        span = g.pmax - g.pmin
        if abs(widths - span) > SEGMENT_WIDTH_TOL * max(1.0, span):
            _collect(
                f"generator '{gid}': segment widths sum to {widths}, expected pmax-pmin={span}"
            )
        last = -math.inf
        for k, (w, p) in enumerate(g.segments):
            if w < 0:
                _collect(f"generator '{gid}': segment[{k}] width {w} negative")
            if p < last:
                _collect(f"generator '{gid}': segment prices must be nondecreasing")
            last = max(last, p)
        for product in RESERVE_PRODUCTS:
            if g.cap(product) < 0:
                _collect(f"generator '{gid}': reserve cap '{product}' negative")
            if g.price(product) < 0:
                _collect(f"generator '{gid}': reserve price '{product}' negative")
    for e in case.branches:
        if e.limit_lo > e.limit_hi:
            _collect(f"branch '{e.id}': limit_lo {e.limit_lo} > limit_hi {e.limit_hi}")
        if e.violation_price < 0:
            _collect(f"branch '{e.id}': violation_price must be nonnegative")
        for bus, coef in e.ptdf.items():
            if abs(coef) > 1.0 + PTDF_MAG_TOL:
                _collect(f"branch '{e.id}': |ptdf[{bus}]| = {abs(coef)} exceeds 1")
    for tier in ("reg", "rspin", "op"):
        if getattr(case.reserve_req, tier) < 0:
            _collect(f"reserve_req.{tier} must be nonnegative")
    for fieldname in ("shortage", "surplus", "reg", "rspin", "op"):
        if getattr(case.penalties, fieldname) < 0:
            _collect(f"penalties.{fieldname} must be nonnegative")
    if problems:
        raise ValidationError("; ".join(problems))
    return ValidatedCase(case)


# ---------------------------------------------------------------------------
# day / scenario files


def _read_series(text, label, case, required, optional=(), group="scenario",
                 buses=None):
    """The reader shared by day and history files.

    Skips ``#`` comment lines; the header names each column once, needs
    the ``required`` columns and may carry the ``optional`` ones
    (``scenario`` and ``prob`` only together); every other column is
    ``load:<bus>`` or ``pmax:<gen>``, named in ``case``.  ``buses`` lists
    the buses that need a load column (None: at least one).  Rows are
    grouped by the ``group`` column (one group ``s1`` without it) and
    period; each group's periods must be exactly 1..N.  Returns {group:
    [(prob, loads, pmaxes) per period]} in file order, prob 1 without a
    ``prob`` column."""
    # (file line, fields): numbered before comment and blank lines go
    rows = [(i, r) for i, r in enumerate(csv.reader(io.StringIO(text)), start=1)
            if r and not r[0].lstrip().startswith("#")]
    if not rows:
        raise CaseFormatError(f"{label}: empty")
    header = [h.strip() for h in rows[0][1]]
    if len(set(header)) != len(header):
        dup = next(h for i, h in enumerate(header) if h in header[:i])
        raise CaseFormatError(f"{label}: column '{dup}' appears more than once")
    for name in required:
        if name not in header:
            raise CaseFormatError(f"{label}: missing '{name}' column")
    if "prob" in optional and ("scenario" in header) != ("prob" in header):
        raise CaseFormatError(f"{label}: 'scenario' and 'prob' columns must appear together")
    col = {h: header.index(h) for h in required + optional if h in header}
    load_cols, pmax_cols = {}, {}
    gens = {g.id for g in case.generators}
    for i, h in enumerate(header):
        if h in col:
            continue
        if h.startswith("load:"):
            if h[5:] not in case.buses:
                raise CaseFormatError(f"{label}: column '{h}' names unknown bus")
            load_cols[h[5:]] = i
        elif h.startswith("pmax:"):
            if h[5:] not in gens:
                raise CaseFormatError(f"{label}: column '{h}' names unknown generator")
            pmax_cols[h[5:]] = i
        else:
            raise CaseFormatError(f"{label}: unrecognized column '{h}'")
    missing = [b for b in buses if b not in load_cols] if buses is not None else []
    if missing:
        raise CaseFormatError(f"{label}: no load column for bus '{missing[0]}'")
    if buses is None and not load_cols:
        raise CaseFormatError(f"{label}: no load columns")

    groups = {}  # group -> {period -> (prob, loads, pmaxes)}
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise CaseFormatError(f"{label} line {lineno}: expected {len(header)} fields")
        try:
            period = int(row[col["period"]])
        except ValueError:
            raise CaseFormatError(
                f"{label} line {lineno}: bad period '{row[col['period']]}'"
            ) from None

        def num(i, what):
            val = finite_float(row[i])
            if val is None:
                raise CaseFormatError(f"{label} line {lineno}: bad {what} value '{row[i]}'")
            return val

        key = row[col[group]].strip() if group in col else "s1"
        prob = num(col["prob"], "prob") if "prob" in col else 1.0
        loads = {b: num(i, f"load:{b}") for b, i in load_cols.items()}
        pmaxes = {g: num(i, f"pmax:{g}") for g, i in pmax_cols.items()}
        bucket = groups.setdefault(key, {})
        if period in bucket:
            raise CaseFormatError(
                f"{label} line {lineno}: duplicate period {period} in {group} '{key}'"
            )
        bucket[period] = (prob, loads, pmaxes)
    for key, bucket in groups.items():
        if sorted(bucket) != list(range(1, len(bucket) + 1)):
            raise CaseFormatError(
                f"{label}: {group} '{key}' periods {sorted(bucket)} are not "
                f"1..{len(bucket)}"
            )
    return {key: [bucket[p] for p in sorted(bucket)] for key, bucket in groups.items()}


def _series(records, field):
    """Per-name value tuples of one field of the reader's records."""
    return {k: tuple(r[field][k] for r in records) for k in records[0][field]}


def parse_timeseries(text: str, case) -> ScenarioSet:
    """Parse a delimited day file into a ScenarioSet.

    Layout: header ``period,scenario,prob,load:<bus>,...,pmax:<gen>,...``
    then one row per (period, scenario).  The scenario and prob columns may
    be omitted for deterministic files (single scenario, probability 1); a
    ``date`` column is ignored.  Every bus in the case needs a load column;
    pmax columns are optional and name the generators they derate.
    """
    case = case.case if isinstance(case, ValidatedCase) else case
    groups = _read_series(text, "day file", case, ("period",),
                          ("scenario", "prob", "date"), buses=case.buses)
    horizons = {len(records) for records in groups.values()}
    if len(horizons) != 1:
        raise CaseFormatError("day file: scenarios cover different numbers of periods")
    scenarios = []
    for sid, records in groups.items():
        probs = {r[0] for r in records}
        if len(probs) != 1:
            raise CaseFormatError(f"day file: scenario '{sid}' rows disagree on prob")
        scenarios.append(Scenario(
            id=sid, prob=probs.pop(),
            load=_series(records, 1), pmax_override=_series(records, 2),
        ))
    ss = ScenarioSet(scenarios=tuple(scenarios), horizon=horizons.pop())
    check_scenarios(ss, case)
    return ss


def check_scenarios(ss: ScenarioSet, case=None):
    """Validate scenario-set invariants (positive probabilities summing to
    1, finite loads that are not negative and finite pmax overrides, one per
    period) and, given a case, cross-check the set against it: a load for
    every bus and at no other, and pmax overrides only of the case's
    generators and not below their pmin."""
    if not ss.scenarios:
        raise ValidationError("scenario set is empty")
    for s in ss.scenarios:
        if not s.prob > 0:
            raise ValidationError(f"scenario '{s.id}' has nonpositive or NaN probability {s.prob}")
    total = ordered_sum(s.prob for s in ss.scenarios)
    if not abs(total - 1.0) <= PROB_SUM_TOL:
        raise ValidationError(f"scenario probabilities sum to {total}, expected 1")
    for s in ss.scenarios:
        for b, vals in s.load.items():
            if len(vals) != ss.horizon:
                raise ValidationError(f"scenario '{s.id}' load for '{b}' has wrong length")
            for t, v in enumerate(vals):
                if not 0 <= v < math.inf:
                    raise ValidationError(
                        f"scenario '{s.id}' has {'negative' if v < 0 else 'non-finite'} load "
                        f"at bus '{b}' at period {t + 1}: {v}")
        for g, vals in s.pmax_override.items():
            if len(vals) != ss.horizon:
                raise ValidationError(f"scenario '{s.id}' pmax for '{g}' has wrong length")
            for t, v in enumerate(vals):
                if not -math.inf < v < math.inf:
                    raise ValidationError(
                        f"scenario '{s.id}' pmax override for '{g}' at period {t + 1} is {v}, "
                        "not finite")
    if case is not None:
        case = case.case if isinstance(case, ValidatedCase) else case
        buses = set(case.buses)
        gens = {g.id: g for g in case.generators}
        for s in ss.scenarios:
            unknown = [b for b in s.load if b not in buses]
            if unknown:
                raise ValidationError(
                    f"scenario '{s.id}' has load at unknown bus '{unknown[0]}'")
            missing = [b for b in case.buses if b not in s.load]
            if missing:
                raise ValidationError(
                    f"scenario '{s.id}' lacks load data for bus '{missing[0]}'")
            for gid, vals in s.pmax_override.items():
                g = gens.get(gid)
                if g is None:
                    raise ValidationError(
                        f"scenario '{s.id}' pmax override names unknown generator '{gid}'")
                for t, v in enumerate(vals):
                    if v < g.pmin - 1e-9:
                        raise ValidationError(
                            f"scenario '{s.id}' pmax override for '{gid}' at period {t + 1} "
                            f"is {v}, below pmin {g.pmin}"
                        )
    return ss
