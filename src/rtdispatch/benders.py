"""Benders decomposition of the two-stage stochastic dispatch.

The extensive form is split into a first-period master and one future
subproblem per scenario.  Each master iteration prices the scenarios'
value functions through cuts built from the subproblems' first-stage
pin duals.  The first stage (the binding period's dispatch and reserves)
is one float64 vector in ``first_stage_keys`` order throughout.
Separation runs at an interior candidate between the current
stabilization point and the master argmin; when the interior pass
yields nothing, separation re-seeds at the argmin itself, and if that
also yields nothing the bound is tight.

An upper bound is evaluated at the master argmin every iteration, so
the incumbent is always a genuinely feasible first stage with its true
expected cost — the reported objective never relies on the cut model
being complete.

One master is built per decision (or refilled from a rolling day's
``ModelSlots``); each iteration appends the pool's new cuts, which gives
the rows a fresh build from the whole pool would.  Its lazy flowgate rows
are generated afresh each iteration.  The oracles fill one subproblem
layout, so they and the rhs copies they re-solve share one compiled
structure; each answers any query whose solve it has made before without
solving again.  Each iteration asks them in one round, every oracle the
interior point and then the argmin point.  With ``workers`` above 1 the
calling thread answers a share of the scenarios and a pool of
``workers - 1`` threads, kept for the whole process, the rest.
``run_benders`` takes the LP options and the flow mode as arguments,
apart from its ``BendersConfig``.
"""

from __future__ import annotations

import dataclasses
import os
import time
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .formulation import (
    ModelSlots,
    append_rows,
    benders_cut_rows,
    build_benders_master,
    build_benders_subproblem,
    first_stage_values,
    flow_limit_rows,
    pin_duals,
    structure_key,
)
from .lp import LPNumericalError, extend_warm_start, solve_lp
from .model import ValidationError, check_count, check_scenarios, ordered_sum

#: initial theta floor per scenario
INIT_FLOOR = -1e12
#: violation threshold for adding a cut, relative to max(1, |future cost|)
CUT_TOL = 1e-7
#: lazy flowgate generation: violation tolerance (MW) and round limit
LAZY_TOL = 1e-6
LAZY_MAX_ROUNDS = 50


@dataclasses.dataclass(frozen=True, eq=False)
class Cut:
    """One optimality cut: theta_s - coef_x1' x1 >= rhs_const, with
    ``coef_x1`` a first-stage vector (all zeros for a floor cut)."""

    scenario: int
    coef_x1: np.ndarray
    rhs_const: float
    origin: tuple = ()  # (iteration, seed) for the record; not identity

    def value_at(self, x1):
        """The cut's lower bound on theta_s at a first-stage point."""
        return self.rhs_const + _dot(self.coef_x1, x1)

    def _signature(self):
        coefs = tuple((i, round(v, 9)) for i, v in enumerate(self.coef_x1.tolist()) if v != 0.0)
        return (self.scenario, coefs, round(self.rhs_const, 6))


def _dot(a, b):
    """a'b added left to right in Python floats (``ordered_sum``) on every
    interpreter: cut values and constants reach the outputs."""
    return ordered_sum((a * b).tolist())


class CutPool:
    """Ordered, duplicate-free cut collection."""

    def __init__(self, cuts=()):
        self._cuts = []
        self._seen = set()
        for c in cuts:
            self.add(c)

    def add(self, cut) -> bool:
        sig = cut._signature()
        if sig in self._seen:
            return False
        self._seen.add(sig)
        self._cuts.append(cut)
        return True

    def __iter__(self):
        return iter(self._cuts)

    def __len__(self):
        return len(self._cuts)


@dataclasses.dataclass(frozen=True)
class BendersConfig:
    """The decomposition's settings, checked when made, and frozen, so a
    bad one fails before any policy is rolled."""

    epsilon: float = 1e-5        # relative UB-LB gap at termination
    max_iter: int = 100
    alpha: float = 0.5           # weight on the stabilization point
    workers: int = 1

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValidationError(f"alpha must be in [0, 1), got {self.alpha}")
        check_count("max_iter", self.max_iter)
        check_count("workers", self.workers)
        if not 0.0 <= self.epsilon < np.inf:
            raise ValidationError(f"epsilon must be finite and nonnegative, got {self.epsilon}")


@dataclasses.dataclass(frozen=True)
class IterationRecord:
    iteration: int
    lower: float
    upper: float
    gap: float
    cuts_added: int
    wall_ms: float
    master_ms: float = 0.0       # appending cuts, solving and reading the master
    oracle_ms: float = 0.0       # querying the scenario oracles


@dataclasses.dataclass(eq=False)
class BendersResult:
    status: str                  # "optimal" | "iteration_limit"
    objective: float             # best upper bound (true cost of x1)
    x1: np.ndarray               # incumbent first stage (read-only vector)
    lower: float
    upper: float
    iterations: int
    cuts: tuple
    trace: tuple                 # IterationRecord per iteration
    scenario_values: dict        # scenario id -> future cost at x1
    subproblem_solves: int = 0


def in_out_candidate(x_hat, x_rmp, alpha):
    """Convex combination of the stabilization point and the master argmin."""
    return alpha * x_hat + (1.0 - alpha) * x_rmp


def relative_gap(upper, lower):
    return (upper - lower) / max(1.0, abs(upper))


# ---------------------------------------------------------------------------
# lazy flowgate separation


def flow_violations(vmap, sol, tol):
    """Flowgate rows violated by a solution but absent from the model.

    Returns (key, cols, vals, sense, rhs) row specs; an empty list
    certifies that every monitored limit holds within ``tol`` net of the
    priced excess already carried by the flow-excess column."""
    case = vmap.meta["case"].case
    cells = sorted({(k[2], k[3]) for k, _ in vmap.columns() if k[0] == "inj"})
    present = {k for k, _ in vmap.rows()}
    specs = []
    for e in case.branches:
        if not e.monitored:
            continue
        for t, s in cells:
            if ("flow_upper", e.id, t, s) in present:
                continue
            rows = flow_limit_rows(vmap, e, t, s)
            (_, cols, hi_vals, _, hi), (_, _, lo_vals, _, lo) = rows
            x = sol.x[cols]
            if _dot(np.array(hi_vals), x) > hi + tol or _dot(np.array(lo_vals), x) < lo - tol:
                specs.extend(rows)
    return specs


def solve_with_lazy_flows(lp, vmap, opts=None, warm=None):
    """Solve, generating violated flowgate rows until none remain.

    ``warm`` seeds the first solve.  Returns (solution, final_lp); the
    registry is extended in place with every appended row.  The fixed
    point satisfies exactly the same constraints as the fully
    materialized model."""
    sol = solve_lp(lp, opts, warm=warm)
    for _ in range(LAZY_MAX_ROUNDS):
        if sol.status != "optimal":
            return sol, lp
        specs = flow_violations(vmap, sol, LAZY_TOL)
        if not specs:
            return sol, lp
        ext = append_rows(lp, vmap, specs)
        lp, sol = ext, solve_lp(ext, opts, warm=extend_warm_start(lp, sol, ext))
    raise LPNumericalError(
        f"flowgate generation did not settle within {LAZY_MAX_ROUNDS} rounds"
    )


def _solve(lp, vmap, opts, flows, warm=None):
    """Solve; under lazy flows, generating the violated flowgate rows.

    Returns (solution, the model solved last)."""
    if flows == "lazy":
        return solve_with_lazy_flows(lp, vmap, opts, warm=warm)
    return solve_lp(lp, opts, warm=warm), lp


# ---------------------------------------------------------------------------
# scenario subproblems


class _ScenarioOracle:
    """One scenario's future-cost oracle: value and subgradient at a point.

    The subproblem LP is built once with zero pins; each query rewrites
    the pin right-hand sides and warm-starts from the previous basis.

    Answers are remembered, so a query solves only what no earlier solve
    has seen.  A query is keyed on its point's bytes, its warm basis bytes
    (None on HiGHS, which starts cold) and the model's row count; an equal
    key means the same LP from the same start, so the remembered solve is
    the one a re-solve would make.  Each solve is also filed under the key
    the next query at its point carries: its own basis and the final row
    count, the same LP from its own optimal basis.  A hit restores its
    solve as the source of the next warm start.
    """

    def __init__(self, vc, scenarios, s, first_period, opts=None, flows="full", slots=None):
        self.lp, self.vmap = (slots or ModelSlots()).model(
            "subproblem", structure_key(vc, flows, first_period, scenarios.horizon, start=1),
            lambda: build_benders_subproblem(vc, scenarios, s, first_period=first_period,
                                             flows=flows),
            lambda layout: layout.subproblem(scenarios, s, None, first_period))
        self.opts, self.flows = opts, flows
        self._pin_rows = np.asarray(self.vmap.meta["pin_rows"], dtype=np.int64)
        self._other_rows = np.zeros(0, dtype=bool)  # the non-pin rows
        # the finite-bound masks: every query's model has these bounds
        self._finite = np.isfinite(self.lp.lower), np.isfinite(self.lp.upper)
        self.scenario_id = scenarios.scenarios[s].id
        self._last = None
        self._memo = {}  # (x1 bytes, warm basis bytes, rows) -> (solution, answer)
        self.solves = 0

    def query(self, x1):
        """Future cost, pin-dual subgradient, and cut constant at ``x1``."""
        point = x1.tobytes()
        warm = self._last.basis if self._last is not None else None
        key = (point, _basis_bytes(warm), self.lp.n_rows)
        known = self._memo.get(key)
        if known is None:
            known = self._memo[key] = self._solve_at(x1, warm)
            self._memo.setdefault((point, _basis_bytes(known[0].basis), self.lp.n_rows), known)
        self._last = known[0]
        return known[1]

    def _solve_at(self, x1, warm):
        """Solve at ``x1`` from ``warm``; returns (solution, answer)."""
        rhs = self.lp.rhs.copy()  # the pins, as one vector
        rhs[self._pin_rows] = x1
        sol, lp = _solve(self.lp.with_rhs(rhs), self.vmap, self.opts, self.flows, warm)
        if self.flows == "lazy":
            self.lp = lp  # keep generated rows for later queries
        self.solves += 1
        if sol.status != "optimal":
            raise LPNumericalError(
                f"scenario '{self.scenario_id}' subproblem came back "
                f"'{sol.status}' — the future is expected to be feasible "
                "and bounded from every reachable first stage"
            )
        sigma = pin_duals(self.vmap, sol)
        q = float(sol.objective)
        rhs_const = q - _dot(sigma, x1)
        self._check_cut_constant(lp, sol, rhs_const)
        return sol, (q, sigma, rhs_const)

    def _check_cut_constant(self, lp, sol, rhs_const):
        """Recompute the cut constant through the dual objective.

        The primal route is Q - sigma'x; the dual route sums y'b over the
        non-pin rows plus the bound terms.  They agree iff strong duality
        held at the solve, so a disagreement flags a numerical failure
        rather than being absorbed into the cut pool."""
        other = self._other_rows
        if other.size != lp.n_rows:  # lazy flows append non-pin rows
            other = self._other_rows = np.ones(lp.n_rows, dtype=bool)
            other[self._pin_rows] = False
        dual_obj = lp.obj_const + float(sol.duals[other] @ lp.rhs[other])
        z = sol.reduced_costs
        lo, hi = lp.lower, lp.upper
        finite_lo, finite_hi = self._finite
        # a meaningful reduced cost on an infinite bound is dual infeasibility;
        # a NUMERICALLY tiny one contributes exactly zero
        pos = (z > 0) & finite_lo
        neg = (z < 0) & finite_hi
        if ((z > 1e-6) & ~finite_lo).any() or ((z < -1e-6) & ~finite_hi).any():
            raise LPNumericalError(
                f"scenario '{self.scenario_id}': reduced cost on an unbounded "
                "column — the dual certificate is inconsistent"
            )
        dual_obj += float(np.sum(z[pos] * lo[pos]))
        dual_obj += float(np.sum(z[neg] * hi[neg]))
        scale = max(1.0, abs(rhs_const))
        if not np.isfinite(dual_obj) or abs(dual_obj - rhs_const) > 1e-5 * scale:
            raise LPNumericalError(
                f"scenario '{self.scenario_id}': cut constant {rhs_const:.6g} "
                f"disagrees with the dual-route value {dual_obj:.6g}"
            )


def _basis_bytes(basis):
    return None if basis is None else (basis[0].tobytes(), basis[1].tobytes())


def _add_cuts(pool, results, x_rmp, theta, origin):
    """Pool the cuts from oracle results that the master argmin violates;
    returns how many were new."""
    added = 0
    for s, (q, sigma, rhs_const) in enumerate(results):
        cut = Cut(scenario=s, coef_x1=sigma, rhs_const=rhs_const, origin=origin)
        if cut.value_at(x_rmp) - theta[s] > CUT_TOL * max(1.0, abs(q)):
            if pool.add(cut):
                added += 1
    return added


_pools = {}  # (process id, workers) -> executor of workers - 1 threads


def _pool(workers):
    """This process's kept executor of ``workers - 1`` threads.  A forked
    child, which has none of its parent's threads, makes its own; threads
    making one at once get the one ``setdefault`` keeps (an executor starts
    no thread before its first task)."""
    key = (os.getpid(), workers)
    return _pools.get(key) or _pools.setdefault(key, ThreadPoolExecutor(workers - 1))


def _query_all(oracles, points, workers):
    """Every scenario oracle's answers at each of ``points``, per point in
    scenario order, in one round: the calling thread answers oracles
    ``0::workers`` and pool thread k oracles ``k::workers``, each share
    point by point, so every oracle is asked the points in order.  A share
    stops at its first error, and once all are done the error of the
    earliest point, then the lowest-numbered scenario, is raised, as
    serially."""
    def share(k):  # (answers per point, ((point, scenario), error) or None)
        out = []
        for p, x1 in enumerate(points):
            out.append([])
            for s in range(k, len(oracles), workers):
                try:
                    out[p].append(oracles[s].query(x1))
                except Exception as exc:
                    return out, ((p, s), exc)
        return out, None

    futures = [_pool(workers).submit(share, k) for k in range(1, min(workers, len(oracles)))]
    try:
        parts = [share(0)] + [f.result() for f in futures]
    finally:  # even an interrupt leaves no share running
        wait(futures)
    errors = [e for _, e in parts if e]
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return [[parts[s % workers][0][p][s // workers] for s in range(len(oracles))]
            for p in range(len(points))]


# ---------------------------------------------------------------------------
# the decomposition loop


def run_benders(vc, state, scenarios, config: BendersConfig | None = None, lp=None,
                flows="full", slots=None):
    """Solve the two-stage dispatch by cutting-plane decomposition.

    ``config`` (BendersConfig, checked when it was made) holds the
    decomposition's settings; ``lp`` (LPOptions) and ``flows`` ("full" |
    "lazy" flowgate rows) apply to the master and every subproblem.
    Deterministic for a fixed model and configuration, including under
    ``workers > 1``: the calling thread and the kept pool's threads each
    answer a stride of the scenarios at both of an iteration's points, and
    the answers are aggregated in scenario order.  The oracles fill one
    subproblem layout, and the master is refilled from ``slots`` (a rolling
    day's ``ModelSlots``) when it holds one of the same structure."""
    cfg = config or BendersConfig()
    check_scenarios(scenarios, vc)
    if scenarios.horizon < 2:
        raise ValidationError(
            "decomposition needs a look-ahead of at least two periods; "
            "dispatch a single period directly instead"
        )
    S = scenarios.n_scenarios
    probs = [s.prob for s in scenarios.scenarios]
    slots = slots or ModelSlots()
    oracles = [
        _ScenarioOracle(vc, scenarios, s, state.wall_clock, lp, flows, slots) for s in range(S)
    ]
    flat = np.zeros(oracles[0]._pin_rows.size)  # a floor cut's slope
    flat.flags.writeable = False
    pool = CutPool(
        Cut(scenario=s, coef_x1=flat, rhs_const=INIT_FLOOR, origin=(0, "floor"))
        for s in range(S)
    )

    x_hat = None
    best_upper = np.inf
    best_x1 = None
    best_values = {}
    lower = -np.inf
    trace = []
    status = "iteration_limit"

    # one master for the run, extended by each iteration's new cuts
    floors = list(pool)
    master, vm = slots.model(
        "master", structure_key(vc, flows, state.wall_clock, 1) + (S,),
        lambda: build_benders_master(vc, state, scenarios, floors, flows=flows),
        lambda layout: layout.master(state, scenarios))
    in_master = len(pool)
    for it in range(1, cfg.max_iter + 1):
        t0 = time.perf_counter()
        new_cuts = list(pool)[in_master:]
        if new_cuts:
            master = append_rows(master, vm, benders_cut_rows(vm, new_cuts))
            in_master += len(new_cuts)
        # lazy flowgate rows extend a copy of the registry: they are
        # generated afresh for every master
        sol, _ = _solve(master, vm.copy(), lp, flows)
        if sol.status != "optimal":
            raise LPNumericalError(f"master came back '{sol.status}'")
        lower = float(sol.objective)
        x_rmp = first_stage_values(sol, vm)
        theta = [float(sol.x[vm.col(("theta", s))]) for s in range(S)]
        stage_cost = lower - ordered_sum(p * th for p, th in zip(probs, theta))
        if x_hat is None:
            x_hat = x_rmp

        # separate at the interior candidate, then bound at the master
        # argmin (pass 2 separates there when pass 1 found nothing)
        x_tilde = in_out_candidate(x_hat, x_rmp, cfg.alpha)
        t1 = time.perf_counter()
        interior, results = _query_all(oracles, (x_tilde, x_rmp), cfg.workers)
        t2 = time.perf_counter()
        added = _add_cuts(pool, interior, x_rmp, theta, (it, "interior"))
        interior_hit = added > 0
        upper = stage_cost + ordered_sum(p * q for p, (q, _s, _r) in zip(probs, results))
        if upper < best_upper:
            best_upper = upper
            best_x1 = x_rmp
            best_values = {scenarios.scenarios[s].id: q for s, (q, _s, _r) in enumerate(results)}
        if not interior_hit:
            added = _add_cuts(pool, results, x_rmp, theta, (it, "argmin"))

        x_hat = x_tilde if interior_hit else x_rmp
        gap = relative_gap(best_upper, lower)
        trace.append(IterationRecord(
            iteration=it, lower=lower, upper=best_upper, gap=gap, cuts_added=added,
            wall_ms=(time.perf_counter() - t0) * 1e3, master_ms=(t1 - t0) * 1e3,
            oracle_ms=(t2 - t1) * 1e3))
        if gap <= cfg.epsilon or added == 0:
            status = "optimal"
            break

    return BendersResult(
        status=status,
        objective=best_upper,
        x1=best_x1,
        lower=lower,
        upper=best_upper,
        iterations=len(trace),
        cuts=tuple(pool),
        trace=tuple(trace),
        scenario_values=best_values,
        subproblem_solves=ordered_sum(o.solves for o in oracles),
    )
