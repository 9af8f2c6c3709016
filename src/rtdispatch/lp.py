"""Self-contained LP layer: model container, reference simplex, KKT checks.

The reference solver is a bounded-variable revised primal simplex with a
dense product-form basis inverse, periodic refactorization, Dantzig
pricing (lowest-index tie breaks) and a switch to Bland's rule after a
run of degenerate pivots.  Feasibility is reached with a composite
phase 1 that drives the summed bound violations of the basic variables
to zero, so no artificial columns are ever added and any basis — cold
slack basis or a warm start from a previous solution — is a legal entry
point.

The work outside pricing and FTRAN touches only nonzeros: the slack-
augmented matrix [A I] is assembled once per model structure from its
``coo()`` entries, one slack per model row (an empty row is kept, its
slack basic, so the basis and the duals index model rows one to one),
the entering column is read from its CSC arrays, the ratio test scans
only rows whose basic variable moves, and the product-form update
rewrites only the rows where the entering column's FTRAN is nonzero.
The cold slack basis starts from the identity, with no factorization.
Pricing (c_B B^-1, then A'y), FTRAN (a dense B^-1 a_j) and
refactorization (a dense inverse) keep their dense arithmetic.  Every
skipped operation would have added or subtracted a zero or filled a row
the ratio test cannot choose, so the pivot sequence and every
floating-point value are those of the all-dense kernel.

Dual sign conventions (minimization): duals of >= rows are nonnegative,
of <= rows nonpositive, of = rows free.  Reduced costs are nonnegative
at a lower bound and nonpositive at an upper bound.

A second backend hands the model to HiGHS through the binding scipy
bundles (scipy.optimize._highspy), in exactly the form
scipy.optimize.linprog(method="highs") would, so its solutions are
linprog's bit for bit without linprog's per-call overhead.  Both backends
feed the same KKT verifier and share one primal feasibility and one dual
optimality tolerance, the constants ``FEAS_TOL`` and ``OPT_TOL``;
``LPOptions`` sets only the iteration limit and the backend.

A frozen model compiles its structure (``_Structure``) once, and its
``with_rhs`` copies share it: read-only arrays, ``matrix()``, the
simplex's [A I], and linprog's layout in a kept ``HighsLp`` that lacks
only the row bounds.  A HiGHS solve writes those and ``passModel`` copies
the model, both under a per-structure lock; ``run`` stays outside it.  An
unfrozen model compiles on every query, so nothing cached goes stale.
"""

from __future__ import annotations

import dataclasses
import functools
import threading

import numpy as np
import scipy.sparse as sp

LE, EQ, GE = -1, 0, 1
_SENSES = {"<=": LE, "=": EQ, ">=": GE}

# variable status codes
NB_LO, NB_UP, NB_FREE, BASIC, FIXED = 0, 1, 2, 3, 4

#: product-form updates between refactorizations of the basis inverse
REFACTOR_EVERY = 150
#: primal feasibility and dual optimality tolerances of both backends
FEAS_TOL = OPT_TOL = 1e-8
#: degenerate pivots in a row before Bland's rule engages
DEGEN_STREAK = 50

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"


class LPNumericalError(RuntimeError):
    """Basis handling broke down (singular or hopelessly ill-conditioned)."""


@dataclasses.dataclass
class LPOptions:
    max_iters: int = 200_000
    backend: str = "simplex"  # or "highs"


class LinearProgram:
    """Sparse LP container: min c'x + k s.t. rows, lo <= x <= hi.

    Built incrementally (add_var / add_row) by the model builders and then
    treated as immutable: extension happens through with_rows / with_rhs,
    which share storage with the parent.  Solving never mutates the model.
    """

    def __init__(self):
        self._cost = []
        self._lo = []
        self._hi = []
        self.var_names = []
        self.obj_const = 0.0
        self.row_cols = []  # per row: int array of column indices
        self.row_vals = []  # per row: float array of coefficients
        self.senses = []  # per row: LE | EQ | GE
        self.rhs = []
        self.row_names = []
        self._frozen = False
        self._compiled = None

    # -- construction -----------------------------------------------------

    @property
    def n_vars(self):
        return len(self._cost)

    @property
    def n_rows(self):
        return len(self.row_cols)

    def add_var(self, lo=0.0, hi=np.inf, cost=0.0, name=None):
        if self._frozen:
            raise RuntimeError("LinearProgram is frozen; use with_rows/with_rhs")
        self._cost.append(float(cost))
        self._lo.append(float(lo))
        self._hi.append(float(hi))
        self.var_names.append(name if name is not None else f"x{len(self._cost) - 1}")
        return len(self._cost) - 1

    def add_row(self, cols, vals, sense, rhs, name=None):
        if self._frozen:
            raise RuntimeError("LinearProgram is frozen; use with_rows/with_rhs")
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if cols.shape != vals.shape:
            raise ValueError("row indices and values differ in length")
        # checks on a plain list: numpy reductions cost more on short rows
        idx = cols.tolist()
        if idx and (min(idx) < 0 or max(idx) >= self.n_vars):
            raise ValueError("row references a variable that does not exist")
        if len(set(idx)) != len(idx):
            raise ValueError("row has duplicate column indices")
        self.row_cols.append(cols)
        self.row_vals.append(vals)
        self.senses.append(_SENSES[sense] if isinstance(sense, str) else int(sense))
        self.rhs.append(float(rhs))
        self.row_names.append(name if name is not None else f"r{len(self.rhs) - 1}")
        return len(self.rhs) - 1

    def freeze(self):
        """Mark construction finished; afterwards only functional extension."""
        self._frozen = True
        return self

    def _structure(self):
        """The compiled structure, kept only once frozen."""
        out = self._compiled
        if out is None:
            out = _Structure(self)
            if self._frozen:
                self._compiled = out
        return out

    # -- frozen views -----------------------------------------------------

    @property
    def cost(self):
        return self._structure().cost

    @property
    def lower(self):
        return self._structure().lower

    @property
    def upper(self):
        return self._structure().upper

    def rhs_array(self):
        return np.asarray(self.rhs, dtype=np.float64)

    def coo(self):
        """The constraint entries as (row, col, value) arrays, in row order."""
        return self._structure().coo

    def matrix(self):
        """Constraint matrix as CSC (rows x vars)."""
        return self._structure().form(_csc)

    def with_rows(self, extra_rows):
        """A new LinearProgram with ``extra_rows`` appended; storage shared.

        ``extra_rows`` entries are (cols, vals, sense, rhs[, name]) tuples.
        """
        out = self._share_columns(copy_rows=True)
        for row in extra_rows:
            out.add_row(*row)
        return out.freeze()

    def with_rhs(self, updates):
        """A new LinearProgram with rhs entries replaced ({row_index: value}).

        A frozen model's copies share its compiled structure."""
        out = self._share_columns(copy_rows=False)
        for i, v in updates.items():
            out.rhs[i] = float(v)
        if self._frozen:
            out._compiled = self._structure()
        return out.freeze()

    def _share_columns(self, copy_rows):
        """An unfrozen LinearProgram sharing this one's columns and a copy
        of its rhs; the other row lists are copied or shared."""
        out = LinearProgram()
        out._cost, out._lo, out._hi = self._cost, self._lo, self._hi
        out.var_names, out.obj_const = self.var_names, self.obj_const
        for name in ("row_cols", "row_vals", "senses", "row_names"):
            rows = getattr(self, name)
            setattr(out, name, list(rows) if copy_rows else rows)
        out.rhs = list(self.rhs)
        return out


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False


class _Structure:
    """Everything of a model but its rhs, as read-only arrays, and each
    consumer's form of them, built on first use."""

    def __init__(self, lp):
        self.n, self.m = lp.n_vars, lp.n_rows
        self.cost, self.lower, self.upper = (
            np.array(v, dtype=np.float64) for v in (lp._cost, lp._lo, lp._hi))
        self.senses = np.array(lp.senses, dtype=np.int8)
        if self.m == 0:
            self.coo = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)
        else:
            nnz = np.fromiter(map(len, lp.row_cols), dtype=np.int64, count=self.m)
            rows = np.repeat(np.arange(self.m, dtype=np.int64), nnz)
            self.coo = rows, np.concatenate(lp.row_cols), np.concatenate(lp.row_vals)
        _read_only(self.cost, self.lower, self.upper, self.senses, *self.coo)
        self.lock = threading.Lock()
        self._forms = {}

    def form(self, build):
        """``build(self)``, made on the first call and kept."""
        with self.lock:
            out = self._forms.get(build)
            if out is None:
                out = self._forms[build] = build(self)
        return out


def _csc(s):
    rows, cols, data = s.coo
    A = sp.csc_matrix((data, (rows, cols)), shape=(s.m, s.n))
    _read_only(A.data, A.indices, A.indptr)
    return A


@dataclasses.dataclass
class LPSolution:
    status: str
    objective: float
    x: np.ndarray
    duals: np.ndarray
    reduced_costs: np.ndarray
    iterations: int = 0
    basis: tuple | None = None  # (basis row->var array, var status array)


@dataclasses.dataclass
class KKTReport:
    max_primal_residual: float
    max_dual_residual: float
    max_complementarity: float
    duality_gap: float
    passed: bool


def solve_lp(lp: LinearProgram, opts: LPOptions | None = None, warm=None) -> LPSolution:
    """Solve min c'x subject to the model's rows and bounds.

    Deterministic: identical models produce identical solutions, pivot for
    pivot.  ``warm`` takes the ``basis`` field of a previous LPSolution for
    the same (or row-wise extended) model.
    """
    opts = opts or LPOptions()
    if opts.backend == "highs":
        return _solve_highs(lp, opts)
    if opts.backend != "simplex":
        raise ValueError(f"unknown LP backend '{opts.backend}'")
    return _Simplex(lp, opts, warm).solve()


def append_rows_and_resolve(lp, sol, new_rows, opts=None):
    """Solve lp with ``new_rows`` appended, warm-starting from ``sol``.

    Contract: the result equals solve_lp on the extended model; the warm
    start is purely a speed device.
    """
    ext = lp.with_rows(new_rows)
    return solve_lp(ext, opts, warm=extend_warm_start(lp, sol, ext))


def extend_warm_start(lp, sol, ext):
    """The warm start for ``ext`` (``lp`` with rows appended) from ``sol``.

    None when ``sol`` carries no basis.
    """
    if sol is None or sol.basis is None:
        return None
    basis, vstat = sol.basis
    # old slack indices keep their positions; the new rows' slacks join
    # the basis after them
    start, stop = lp.n_vars + lp.n_rows, ext.n_vars + ext.n_rows
    return (
        np.concatenate([basis, np.arange(start, stop, dtype=np.int64)]),
        np.concatenate([vstat, np.full(stop - start, BASIC, dtype=np.int8)]),
    )


# ---------------------------------------------------------------------------
# reference simplex


class _SlackForm:
    """[A I] with the slacks' costs and bounds.  Equality rows get a fixed
    zero slack; it may sit in a basis but can never enter one.  A row with
    no coefficients stays, its slack fixed at the rhs."""

    def __init__(self, s):
        n, m = s.n, s.m
        rows, cols, data = s.coo
        self.empty = np.bincount(rows, minlength=m) == 0
        self.slack_lo = np.where(s.senses == GE, -np.inf, 0.0)
        self.slack_hi = np.where(s.senses == LE, np.inf, 0.0)
        # entries of each column are in row order, so every sparse product
        # sums in a fixed order
        slack = np.arange(m, dtype=np.int64)
        self.A = A = sp.csc_matrix(
            (np.concatenate([data, np.ones(m)]),
             (np.concatenate([rows, slack]), np.concatenate([cols, n + slack]))),
            shape=(m, n + m),
        )
        self.AT = A.T
        self.c = np.concatenate([s.cost, np.zeros(m)])
        self.lo = np.concatenate([s.lower, self.slack_lo])
        self.hi = np.concatenate([s.upper, self.slack_hi])
        _read_only(A.data, A.indices, A.indptr, self.c, self.lo, self.hi)


class _Simplex:
    def __init__(self, lp, opts, warm=None):
        self.lp = lp
        self.opts = opts
        f = lp._structure().form(_SlackForm)
        rhs = lp.rhs_array()
        # an empty row is infeasible if its rhs is outside the slack's bounds
        self.empty_row_infeasible = bool(np.any(
            f.empty & ((rhs < f.slack_lo - FEAS_TOL) | (rhs > f.slack_hi + FEAS_TOL))
        ))
        self.n, self.m = lp.n_vars, lp.n_rows
        self.N = self.n + self.m
        self.A, self.AT, self.c, self.lo, self.hi = f.A, f.AT, f.c, f.lo, f.hi
        self.b = rhs
        self.x = np.zeros(self.N)
        self.iterations = 0
        self._since_refactor = 0
        self._degen_streak = 0
        self._init_basis(warm)

    # -- basis bookkeeping ------------------------------------------------

    def _cold_basis(self):
        n, m = self.n, self.m
        lo, hi = self.lo[:n], self.hi[:n]
        vstat = np.full(self.N, BASIC, dtype=np.int8)
        vstat[:n] = np.select(
            [lo == hi, np.isfinite(lo), np.isfinite(hi)], [FIXED, NB_LO, NB_UP], NB_FREE
        )
        basis = np.arange(n, n + m, dtype=np.int64)
        return basis, vstat

    def _init_basis(self, warm):
        if warm is not None:
            basis, vstat = warm
            basis = np.asarray(basis, dtype=np.int64)
            vstat = np.asarray(vstat, dtype=np.int8)
            ok = (
                len(vstat) == self.N
                and len(basis) == self.m
                and len(np.unique(basis)) == self.m
                and (len(basis) == 0 or basis.max() < self.N)
                and int((vstat == BASIC).sum()) == self.m
                and bool(np.all(vstat[basis] == BASIC))
            )
            if ok:
                self.basis = np.array(basis, dtype=np.int64)
                self.vstat = np.array(vstat, dtype=np.int8)
                if self._try_refactor():
                    return
        self.basis, self.vstat = self._cold_basis()
        # the slack columns are the identity, and so is their inverse
        self.Binv = np.eye(self.m)
        self._refresh()

    def _try_refactor(self):
        if self.m:
            B = self.A[:, self.basis].toarray()
            try:
                Binv = np.linalg.inv(B)
            except np.linalg.LinAlgError:
                return False
            if not np.all(np.isfinite(Binv)):
                return False
            self.Binv = Binv
        else:
            self.Binv = np.zeros((0, 0))
        self._refresh()
        return True

    def _refresh(self):
        """Recompute the iterate from the current basis inverse."""
        self._set_nonbasic_values()
        self._recompute_basics()
        self._since_refactor = 0

    def _set_nonbasic_values(self):
        vs = self.vstat
        self.x[vs == NB_LO] = self.lo[vs == NB_LO]
        self.x[vs == NB_UP] = self.hi[vs == NB_UP]
        self.x[vs == FIXED] = self.lo[vs == FIXED]
        self.x[vs == NB_FREE] = 0.0

    def _recompute_basics(self):
        if self.m == 0:
            return
        xn = self.x.copy()
        xn[self.basis] = 0.0
        r = self.b - self.A @ xn
        self.x[self.basis] = self.Binv @ r

    # -- pricing ----------------------------------------------------------

    def _reduced_costs(self, c_work):
        if self.m:
            y = c_work[self.basis] @ self.Binv
            d = c_work - self.AT @ y
        else:
            y = np.zeros(0)
            d = c_work.copy()
        return y, d

    def _pick_entering(self, d, dtol, bland):
        vs = self.vstat
        up = ((vs == NB_LO) | (vs == NB_FREE)) & (d < -dtol)
        dn = ((vs == NB_UP) | (vs == NB_FREE)) & (d > dtol)
        cand = up | dn
        if not cand.any():
            return -1, 0
        if bland:
            j = int(np.nonzero(cand)[0][0])
        else:
            j = int(np.argmax(np.where(cand, np.abs(d), -1.0)))
        return j, (1 if up[j] else -1)

    # -- ratio test -------------------------------------------------------

    def _ratio_test(self, j, sigma, w, ftol):
        """Blocking step length; honours phase-1 infeasible basics.

        Returns (t, kind, row, side): kind 'flip' | 'pivot' | 'unbounded';
        side is the bound the leaving variable lands on (NB_LO/NB_UP).
        Only rows whose basic variable moves (|delta| > piv_tol) can block.
        """
        piv_tol = 1e-10
        delta = sigma * w  # x_B changes by -delta * t
        rows = np.flatnonzero(np.abs(delta) > piv_tol)
        delta = delta[rows]
        basic = self.basis[rows]
        xB = self.x[basic]
        loB = self.lo[basic]
        hiB = self.hi[basic]
        below = xB < loB - ftol
        above = xB > hiB + ftol
        down = delta > 0
        # a basic moving down stops at its lower bound, one moving up at its
        # upper bound; in phase 1 one outside its bounds stops where it
        # re-enters them, and never blocks while moving further away
        t_rows = np.where(down, xB - loB, hiB - xB)
        if below.any() or above.any():
            back = down & above
            t_rows[back] = xB[back] - hiB[back]
            back = ~down & below
            t_rows[back] = loB[back] - xB[back]
            t_rows[(down & below) | (~down & above)] = np.inf
        # |delta| is delta moving down and -delta moving up: same quotients
        t_rows /= np.abs(delta)
        t_rows[~np.isfinite(t_rows)] = np.inf
        np.maximum(t_rows, 0.0, out=t_rows)

        span = self.hi[j] - self.lo[j]
        flip_limit = span if self.vstat[j] in (NB_LO, NB_UP) and np.isfinite(span) else np.inf

        rmin = t_rows.min() if len(rows) else np.inf
        if flip_limit <= rmin:
            if not np.isfinite(flip_limit):
                return np.inf, "unbounded", -1, 0
            return flip_limit, "flip", -1, 0
        if not np.isfinite(rmin):
            return np.inf, "unbounded", -1, 0
        ties = np.nonzero(t_rows <= rmin + 1e-12 * (1.0 + rmin))[0]
        if self._degen_streak >= DEGEN_STREAK:
            # Bland: smallest leaving variable index
            k = int(ties[np.argmin(basic[ties])])
        else:
            # stability: largest pivot magnitude, then smallest index
            mags = np.abs(w[rows[ties]])
            best = mags.max()
            strong = ties[mags >= best * (1.0 - 1e-9)]
            k = int(strong[np.argmin(basic[strong])])
        if down[k]:
            side = NB_UP if above[k] else NB_LO
        else:
            side = NB_LO if below[k] else NB_UP
        return rmin, "pivot", int(rows[k]), side

    # -- pivoting ---------------------------------------------------------

    def _apply_pivot(self, j, sigma, w, t, kind, r, land_side):
        if kind == "flip":
            self.x[self.basis] -= (sigma * t) * w
            self.x[j] = self.hi[j] if self.vstat[j] == NB_LO else self.lo[j]
            self.vstat[j] = NB_UP if self.vstat[j] == NB_LO else NB_LO
            return True
        piv = w[r]
        if abs(piv) < 1e-9:
            return False  # caller refactors and retries
        self.x[self.basis] -= (sigma * t) * w
        leaving = self.basis[r]
        self.x[leaving] = self.lo[leaving] if land_side == NB_LO else self.hi[leaving]
        self.x[j] = self.x[j] + sigma * t
        if self.lo[leaving] == self.hi[leaving]:
            self.vstat[leaving] = FIXED
        else:
            self.vstat[leaving] = land_side
        self.vstat[j] = BASIC
        self.basis[r] = j
        # product-form update of the dense inverse; rows where w is zero
        # are unchanged by it, so only the others are touched
        Br = self.Binv[r, :] / piv
        rows = np.flatnonzero(w)
        rows = rows[rows != r]
        self.Binv[rows] -= np.outer(w[rows], Br)
        self.Binv[r, :] = Br
        self._since_refactor += 1
        if self._since_refactor >= REFACTOR_EVERY:
            if not self._try_refactor():
                raise LPNumericalError("basis refactorization failed")
        return True

    def _column(self, j):
        """Column j of [A I] as a dense vector, read from the CSC arrays."""
        A = self.A
        lo, hi = A.indptr[j], A.indptr[j + 1]
        col = np.zeros(self.m)
        col[A.indices[lo:hi]] = A.data[lo:hi]
        return col

    # -- phases -----------------------------------------------------------

    def _infeasibility(self):
        xB = self.x[self.basis]
        loB = self.lo[self.basis]
        hiB = self.hi[self.basis]
        lo_gap = np.maximum(loB - xB, 0.0)
        hi_gap = np.maximum(xB - hiB, 0.0)
        return float(lo_gap.sum() + hi_gap.sum())

    def _phase1_costs(self, ftol):
        c1 = np.zeros(self.N)
        xB = self.x[self.basis]
        below = xB < self.lo[self.basis] - ftol
        above = xB > self.hi[self.basis] + ftol
        c1[self.basis[below]] = -1.0
        c1[self.basis[above]] = 1.0
        return c1, bool(below.any() or above.any())

    def _run(self, phase):
        """Shared pivot loop; phase 1 minimizes basic bound violations."""
        ftol = FEAS_TOL
        stall_guard = 0
        while True:
            if self.iterations >= self.opts.max_iters:
                return ITERATION_LIMIT
            if phase == 1:
                c_work, any_inf = self._phase1_costs(ftol)
                if not any_inf:
                    return "feasible"
                dtol = 1e-9
            else:
                c_work = self.c
                dtol = OPT_TOL
            y, d = self._reduced_costs(c_work)
            bland = self._degen_streak >= DEGEN_STREAK
            j, sigma = self._pick_entering(d, dtol, bland)
            if j < 0:
                if phase == 1:
                    return INFEASIBLE if self._infeasibility() > ftol * (1 + abs(self.b).sum()) else "feasible"
                return OPTIMAL
            w = self.Binv @ self._column(j) if self.m else np.zeros(0)
            t, kind, r, land = self._ratio_test(j, sigma, w, ftol)
            if kind == "unbounded":
                if phase == 1:
                    # cannot legitimately happen: retry once after refactor
                    stall_guard += 1
                    if stall_guard > 2 or not self._try_refactor():
                        raise LPNumericalError("phase-1 ray detected")
                    continue
                return UNBOUNDED
            if not self._apply_pivot(j, sigma, w, t, kind, r, land):
                stall_guard += 1
                if stall_guard > 2 or not self._try_refactor():
                    raise LPNumericalError("pivot element vanished")
                continue
            stall_guard = 0
            self.iterations += 1
            if t <= 1e-9:
                self._degen_streak += 1
            else:
                self._degen_streak = 0

    def solve(self):
        if self.empty_row_infeasible:
            return self._package(INFEASIBLE)
        status = self._run(1)
        if status in (INFEASIBLE, ITERATION_LIMIT):
            return self._package(status)
        # phase 2 with optimality re-check after a fresh factorization:
        # product-form drift can fake convergence near degenerate vertices
        for _ in range(5):
            status = self._run(2)
            if status != OPTIMAL:
                return self._package(status)
            if not self._try_refactor():
                raise LPNumericalError("basis refactorization failed")
            _, d = self._reduced_costs(self.c)
            j, _sig = self._pick_entering(d, OPT_TOL, False)
            if j < 0 and self._infeasibility() <= FEAS_TOL * (1 + abs(self.b).sum()):
                break
            if self._infeasibility() > FEAS_TOL * (1 + abs(self.b).sum()):
                status = self._run(1)
                if status in (INFEASIBLE, ITERATION_LIMIT):
                    return self._package(status)
        return self._package(OPTIMAL)

    def _package(self, status):
        n = self.n
        x = self.x[:n].copy()
        duals = np.zeros(self.m)
        rc = np.zeros(n)
        if status == OPTIMAL:
            duals, d = self._reduced_costs(self.c)
            rc = d[:n]
            rc[self.vstat[:n] == BASIC] = 0.0
        obj = float(self.c[:n] @ x + self.lp.obj_const) if status in (OPTIMAL, ITERATION_LIMIT) else (
            np.inf if status == INFEASIBLE else -np.inf
        )
        return LPSolution(
            status=status,
            objective=obj,
            x=x,
            duals=duals,
            reduced_costs=rc,
            iterations=self.iterations,
            basis=(self.basis.copy(), self.vstat.copy()) if status == OPTIMAL else None,
        )


# ---------------------------------------------------------------------------
# HiGHS backend (the HiGHS core bundled with scipy)


def _hc():
    # imported on first use: loading it loads scipy.optimize, which the
    # reference simplex never needs
    from scipy.optimize._highspy import _core

    return _core


def _highs_inf(v):
    return np.where(np.isinf(v), np.copysign(_hc().kHighsInf, v), v)


class _HighsForm:
    """linprog's layout in a kept ``HighsLp`` that lacks the row bounds:
    the <= and >= rows in model order, >= rows negated (their duals flip
    back after the solve), then the = rows; HiGHS reads each row as
    lhs <= a'x <= rhs."""

    def __init__(self, s):
        hc = _hc()
        n, m = s.n, s.m
        self.ub_rows = np.flatnonzero(s.senses != EQ)
        self.eq_rows = np.flatnonzero(s.senses == EQ)
        self.n_ub = n_ub = len(self.ub_rows)
        sign = np.where(s.senses == GE, -1.0, 1.0)
        self.ub_sign = sign[self.ub_rows]
        position = np.empty(m, dtype=np.int64)
        position[self.ub_rows] = np.arange(n_ub)
        position[self.eq_rows] = np.arange(n_ub, m)

        # CSC with sorted row indices; HiGHS drops explicit zeros itself
        rows, cols, vals = s.coo
        vals = vals * sign[rows]
        rows = position[rows]
        order = np.argsort(cols * m + rows)
        start = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=n), out=start[1:])

        model = self.model = hc.HighsLp()
        model.num_col_ = model.a_matrix_.num_col_ = n
        model.num_row_ = model.a_matrix_.num_row_ = m
        model.a_matrix_.format_ = hc.MatrixFormat.kColwise
        # the binding copies a float64 array in one piece but converts
        # integer arrays element by element, which a list does faster
        model.a_matrix_.start_ = start.tolist()
        model.a_matrix_.index_ = rows[order].tolist()
        model.a_matrix_.value_ = vals[order]
        model.col_cost_ = s.cost
        model.col_lower_ = _highs_inf(s.lower)
        model.col_upper_ = _highs_inf(s.upper)


@functools.lru_cache(maxsize=16)
def _highs_options(max_iters):
    hc = _hc()
    options = hc.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = hc.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = hc.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = False
    options.log_to_console = False
    options.primal_feasibility_tolerance = FEAS_TOL
    options.dual_feasibility_tolerance = OPT_TOL
    options.simplex_iteration_limit = max_iters
    options.ipm_iteration_limit = max_iters
    return options


def _solve_highs(lp, opts):
    """Solve on HiGHS, handing it the model and options linprog would.

    The call mirrors ``scipy.optimize.linprog(method="highs")`` step for
    step (row layout, matrix, options, read-back and post-solve check), so
    every solution is bit for bit the one linprog returns, without its
    input cleaning, option round trips and per-column loops.
    """
    hc = _hc()
    n, m = lp.n_vars, lp.n_rows
    s = lp._structure()
    f = s.form(_HighsForm)
    rhs = lp.rhs_array()
    b_eq = rhs[f.eq_rows]
    row_upper = np.concatenate([f.ub_sign * rhs[f.ub_rows], b_eq])
    row_lower = np.concatenate([np.full(f.n_ub, -np.inf), b_eq])
    n_ub, lower, upper = f.n_ub, s.lower, s.upper

    highs = hc._Highs()
    error = hc.HighsStatus.kError
    if highs.passOptions(_highs_options(opts.max_iters)) == error:
        raise LPNumericalError("HiGHS backend failed: options rejected")
    info = None  # stays None, as linprog's counts stay 0, if HiGHS did not run
    with s.lock:  # passModel copies the model, then it is free again
        f.model.row_lower_ = _highs_inf(row_lower)
        f.model.row_upper_ = _highs_inf(row_upper)
        passed = highs.passModel(f.model)
    if passed == error:
        model_status = hc.HighsModelStatus.kModelError
    else:
        if highs.run() != error:
            info = highs.getInfo()
        model_status = highs.getModelStatus()
    ms = hc.HighsModelStatus
    status = {
        ms.kOptimal: OPTIMAL,
        ms.kTimeLimit: ITERATION_LIMIT,
        ms.kIterationLimit: ITERATION_LIMIT,
        ms.kInfeasible: INFEASIBLE,
        ms.kModelError: INFEASIBLE,
        ms.kUnbounded: UNBOUNDED,
    }.get(model_status)
    if status is None or (status == OPTIMAL and info is None):
        raise LPNumericalError(
            f"HiGHS backend failed: {highs.modelStatusToString(model_status)}"
        )
    iterations = 0 if info is None else info.simplex_iteration_count or info.ipm_iteration_count
    if status != OPTIMAL:
        return LPSolution(
            status=status,
            objective=np.inf if status == INFEASIBLE else -np.inf,
            x=np.zeros(n),
            duals=np.zeros(m),
            reduced_costs=np.zeros(n),
            iterations=iterations,
        )

    solution = highs.getSolution()
    x = np.array(solution.col_value)
    fun = info.objective_function_value
    # linprog's post-solve check: an "optimal" point outside the bounds,
    # a negative <= slack or an = residual beyond sqrt(1e-9) * 10 is an error
    slack = row_upper - np.array(solution.row_value)
    tol = np.sqrt(1e-9) * 10
    if (
        np.isnan(x).any()
        or np.isnan(fun)
        or np.isnan(slack).any()
        or not np.all((x >= lower - tol) & (x <= upper + tol))
        or (slack[:n_ub] < -tol).any()
        or (np.abs(slack[n_ub:]) > tol).any()
    ):
        raise LPNumericalError(
            "HiGHS backend failed: the solution does not satisfy the "
            f"constraints within {tol:.2E}"
        )
    row_dual = np.array(solution.row_dual)
    duals = np.zeros(m)
    duals[f.ub_rows] = f.ub_sign * row_dual[:n_ub]
    duals[f.eq_rows] = row_dual[n_ub:]
    # a column's reduced cost is its dual at a bound and 0 otherwise;
    # linprog summed a lower and an upper part, which turns -0.0 into 0.0
    col_status = np.fromiter(map(int, highs.getBasis().col_status), dtype=np.int8, count=n)
    at_bound = (col_status == int(hc.HighsBasisStatus.kLower)) | (
        col_status == int(hc.HighsBasisStatus.kUpper)
    )
    rc = np.where(at_bound, np.array(solution.col_dual), 0.0) + 0.0
    return LPSolution(
        status=status,
        objective=float(fun + lp.obj_const),
        x=x,
        duals=duals,
        reduced_costs=rc,
        iterations=iterations,
    )


# ---------------------------------------------------------------------------
# verification


def verify_kkt(lp: LinearProgram, sol: LPSolution, tol=1e-6) -> KKTReport:
    """Mechanical first-order optimality check for a claimed-optimal solution.

    Reports the worst primal residual, dual residual (stationarity plus
    sign-convention violations) and complementarity product; passes iff all
    three are within ``tol``.
    """
    x = np.asarray(sol.x)
    y = np.asarray(sol.duals)
    z = np.asarray(sol.reduced_costs)
    A = lp.matrix()
    senses = np.asarray(lp.senses, dtype=np.int8)
    rhs = lp.rhs_array()
    lo, hi, c = lp.lower, lp.upper, lp.cost

    ax = A @ x if lp.n_rows else np.zeros(0)
    row_viol = np.zeros(lp.n_rows)
    row_viol[senses == LE] = np.maximum(0.0, (ax - rhs)[senses == LE])
    row_viol[senses == GE] = np.maximum(0.0, (rhs - ax)[senses == GE])
    row_viol[senses == EQ] = np.abs((ax - rhs)[senses == EQ])
    bound_viol = np.maximum.reduce(
        [np.maximum(lo - x, 0.0), np.maximum(x - hi, 0.0), np.zeros(lp.n_vars)]
    )
    max_primal = float(max(row_viol.max() if lp.n_rows else 0.0,
                           bound_viol.max() if lp.n_vars else 0.0))

    stat = c - (A.T @ y if lp.n_rows else 0.0) - z
    sign_viol = 0.0
    if lp.n_rows:
        sign_viol = max(
            sign_viol,
            float(np.maximum(0.0, y[senses == LE]).max(initial=0.0)),
            float(np.maximum(0.0, -y[senses == GE]).max(initial=0.0)),
        )
    zp = np.maximum(z, 0.0)
    zn = np.maximum(-z, 0.0)
    # a positive reduced cost needs a finite lower bound to push against
    sign_viol = max(
        sign_viol,
        float(zp[np.isinf(lo)].max(initial=0.0)),
        float(zn[np.isinf(hi)].max(initial=0.0)),
    )
    max_dual = float(max(np.abs(stat).max(initial=0.0), sign_viol))

    comp = 0.0
    if lp.n_rows:
        slack = ax - rhs
        ineq = senses != EQ
        comp = float(np.abs(y[ineq] * slack[ineq]).max(initial=0.0))
    fin_lo = np.isfinite(lo)
    fin_hi = np.isfinite(hi)
    comp = max(
        comp,
        float(np.abs(zp[fin_lo] * (x - lo)[fin_lo]).max(initial=0.0)),
        float(np.abs(zn[fin_hi] * (hi - x)[fin_hi]).max(initial=0.0)),
    )

    dual_obj = float(
        (y @ rhs if lp.n_rows else 0.0)
        + zp[fin_lo] @ lo[fin_lo]
        - zn[fin_hi] @ hi[fin_hi]
        + lp.obj_const
    )
    gap = abs(sol.objective - dual_obj)
    return KKTReport(
        max_primal_residual=max_primal,
        max_dual_residual=max_dual,
        max_complementarity=comp,
        duality_gap=gap,
        passed=(max_primal <= tol and max_dual <= tol and comp <= tol),
    )


# ---------------------------------------------------------------------------
# text export (interchange format, used by tests and for debugging)


def write_lp_format(lp: LinearProgram) -> str:
    """Render the model in CPLEX LP text format."""

    def term(coef, name, lead):
        if coef >= 0:
            return f"{'' if lead else '+ '}{_num(coef)} {name}"
        return f"- {_num(-coef)} {name}"

    def _num(v):
        return format(v, ".12g")

    out = ["Minimize"]
    parts = []
    for j, coef in enumerate(lp.cost):
        if coef != 0.0:
            parts.append(term(coef, lp.var_names[j], not parts))
    if lp.obj_const:
        parts.append(term(lp.obj_const, "", not parts).rstrip())
    out.append(" obj: " + (" ".join(parts) if parts else "0"))
    out.append("Subject To")
    rel = {LE: "<=", EQ: "=", GE: ">="}
    for i in range(lp.n_rows):
        parts = []
        for c, v in zip(lp.row_cols[i], lp.row_vals[i]):
            parts.append(term(v, lp.var_names[c], not parts))
        out.append(
            f" {lp.row_names[i]}: " + " ".join(parts) + f" {rel[lp.senses[i]]} {_num(lp.rhs[i])}"
        )
    out.append("Bounds")
    for lo, hi, name in zip(lp.lower, lp.upper, lp.var_names):
        if lo == hi:
            out.append(f" {name} = {_num(lo)}")
        elif np.isinf(-lo) and np.isinf(hi):
            out.append(f" {name} free")
        elif np.isinf(hi):
            out.append(f" {_num(lo)} <= {name}")
        elif np.isinf(-lo):
            out.append(f" -inf <= {name} <= {_num(hi)}")
        else:
            out.append(f" {_num(lo)} <= {name} <= {_num(hi)}")
    out.append("End")
    return "\n".join(out) + "\n"
