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
augmented matrix [A I] is assembled once per solve from the row lists,
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

A second backend wraps scipy.optimize.linprog's HiGHS method behind the
same interface; both backends feed the same KKT verifier.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.sparse as sp

LE, EQ, GE = -1, 0, 1
_SENSES = {"<=": LE, "=": EQ, ">=": GE}

# variable status codes
NB_LO, NB_UP, NB_FREE, BASIC, FIXED = 0, 1, 2, 3, 4

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"


class LPNumericalError(RuntimeError):
    """Basis handling broke down (singular or hopelessly ill-conditioned)."""


@dataclasses.dataclass
class LPOptions:
    feas_tol: float = 1e-8
    opt_tol: float = 1e-8
    max_iters: int = 200_000
    backend: str = "simplex"  # or "highs"
    refactor_every: int = 150
    degen_streak: int = 50  # pivots before Bland's rule engages


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

    # -- frozen views -----------------------------------------------------

    @property
    def cost(self):
        return np.asarray(self._cost, dtype=np.float64)

    @property
    def lower(self):
        return np.asarray(self._lo, dtype=np.float64)

    @property
    def upper(self):
        return np.asarray(self._hi, dtype=np.float64)

    def rhs_array(self):
        return np.asarray(self.rhs, dtype=np.float64)

    def matrix(self):
        """Constraint matrix as CSC (rows x vars)."""
        if self.n_rows == 0:
            return sp.csc_matrix((0, self.n_vars))
        data = np.concatenate(self.row_vals) if self.row_vals else np.empty(0)
        cols = np.concatenate(self.row_cols) if self.row_cols else np.empty(0, dtype=np.int64)
        rows = np.repeat(
            np.arange(self.n_rows, dtype=np.int64),
            [len(c) for c in self.row_cols],
        )
        return sp.csc_matrix((data, (rows, cols)), shape=(self.n_rows, self.n_vars))

    def with_rows(self, extra_rows):
        """A new LinearProgram with ``extra_rows`` appended; storage shared.

        ``extra_rows`` entries are (cols, vals, sense, rhs[, name]) tuples.
        """
        out = LinearProgram()
        out._cost = self._cost
        out._lo = self._lo
        out._hi = self._hi
        out.var_names = self.var_names
        out.obj_const = self.obj_const
        out.row_cols = list(self.row_cols)
        out.row_vals = list(self.row_vals)
        out.senses = list(self.senses)
        out.rhs = list(self.rhs)
        out.row_names = list(self.row_names)
        for row in extra_rows:
            out.add_row(*row)
        out._frozen = True
        return out

    def with_rhs(self, updates):
        """A new LinearProgram with rhs entries replaced ({row_index: value})."""
        out = LinearProgram()
        out._cost = self._cost
        out._lo = self._lo
        out._hi = self._hi
        out.var_names = self.var_names
        out.obj_const = self.obj_const
        out.row_cols = self.row_cols
        out.row_vals = self.row_vals
        out.senses = self.senses
        out.row_names = self.row_names
        out.rhs = list(self.rhs)
        for i, v in updates.items():
            out.rhs[i] = float(v)
        out._frozen = True
        return out


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
    warm = None
    if sol is not None and sol.basis is not None:
        basis, vstat = sol.basis
        # the basis covers only the rows the simplex kept (presolve drops
        # empty ones): old slack indices keep their positions, and the
        # slacks of the kept new rows join the basis after them
        n, m_old = lp.n_vars, len(basis)
        added = sum(len(cols) > 0 for cols in ext.row_cols[lp.n_rows:])
        new_basis = np.concatenate(
            [basis, np.arange(n + m_old, n + m_old + added, dtype=np.int64)]
        )
        new_vstat = np.concatenate([vstat, np.full(added, BASIC, dtype=np.int8)])
        warm = (new_basis, new_vstat)
    return solve_lp(ext, opts, warm=warm)


# ---------------------------------------------------------------------------
# reference simplex


class _Simplex:
    def __init__(self, lp, opts, warm=None):
        self.lp = lp
        self.opts = opts
        n = lp.n_vars
        senses = np.asarray(lp.senses, dtype=np.int8)
        rhs = lp.rhs_array()

        # presolve: drop rows with no coefficients after checking consistency
        nnz_per_row = np.array([len(c) for c in lp.row_cols], dtype=np.int64)
        keep = nnz_per_row > 0
        self.empty_row_infeasible = False
        for i in np.nonzero(~keep)[0]:
            r, s = rhs[i], senses[i]
            bad = (s == LE and r < -opts.feas_tol) or (
                s == GE and r > opts.feas_tol
            ) or (s == EQ and abs(r) > opts.feas_tol)
            if bad:
                self.empty_row_infeasible = True
        self.row_map = np.nonzero(keep)[0]
        self.full_m = lp.n_rows
        senses = senses[keep]
        rhs = rhs[keep]
        m = len(self.row_map)

        slack_lo = np.where(senses == GE, -np.inf, 0.0)
        slack_hi = np.where(senses == LE, np.inf, 0.0)
        # equality rows get a fixed zero slack; it may sit in a basis but
        # can never enter one
        self.n, self.m = n, m
        self.N = n + m
        # [A I] over the kept rows, assembled once; entries of each column
        # are in row order, so every sparse product sums in a fixed order
        rows = np.concatenate(
            [np.repeat(np.arange(m, dtype=np.int64), nnz_per_row[keep]),
             np.arange(m, dtype=np.int64)]
        )
        cols = np.concatenate(lp.row_cols + [np.arange(n, n + m, dtype=np.int64)])
        data = np.concatenate(lp.row_vals + [np.ones(m)])
        self.A = sp.csc_matrix((data, (rows, cols)), shape=(m, self.N))
        self.AT = self.A.T
        self.c = np.concatenate([lp.cost, np.zeros(m)])
        self.lo = np.concatenate([lp.lower, slack_lo])
        self.hi = np.concatenate([lp.upper, slack_hi])
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
        if self._degen_streak >= self.opts.degen_streak:
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
        if self._since_refactor >= self.opts.refactor_every:
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

    def _infeasibility(self, ftol):
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
        opts = self.opts
        ftol = opts.feas_tol
        stall_guard = 0
        while True:
            if self.iterations >= opts.max_iters:
                return ITERATION_LIMIT
            if phase == 1:
                c_work, any_inf = self._phase1_costs(ftol)
                if not any_inf:
                    return "feasible"
                dtol = 1e-9
            else:
                c_work = self.c
                dtol = opts.opt_tol
            y, d = self._reduced_costs(c_work)
            bland = self._degen_streak >= opts.degen_streak
            j, sigma = self._pick_entering(d, dtol, bland)
            if j < 0:
                if phase == 1:
                    return INFEASIBLE if self._infeasibility(ftol) > ftol * (1 + abs(self.b).sum()) else "feasible"
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
        lp, opts = self.lp, self.opts
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
            j, _sig = self._pick_entering(d, opts.opt_tol, False)
            if j < 0 and self._infeasibility(opts.feas_tol) <= opts.feas_tol * (
                1 + abs(self.b).sum()
            ):
                break
            if self._infeasibility(opts.feas_tol) > opts.feas_tol * (1 + abs(self.b).sum()):
                status = self._run(1)
                if status in (INFEASIBLE, ITERATION_LIMIT):
                    return self._package(status)
        return self._package(OPTIMAL)

    def _package(self, status):
        n, m = self.n, self.m
        x = self.x[:n].copy()
        duals_red = np.zeros(m)
        rc = np.zeros(n)
        if status == OPTIMAL:
            y, d = self._reduced_costs(self.c)
            duals_red = y
            rc = d[:n]
            rc[self.vstat[:n] == BASIC] = 0.0
        duals = np.zeros(self.full_m)
        if m:
            duals[self.row_map] = duals_red
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
# HiGHS backend (scipy wrapper)


def _solve_highs(lp, opts):
    from scipy.optimize import linprog

    n, m = lp.n_vars, lp.n_rows
    senses = np.asarray(lp.senses, dtype=np.int8)
    rhs = lp.rhs_array()
    A = lp.matrix().tocsr()

    ub_rows = np.nonzero(senses != EQ)[0]
    eq_rows = np.nonzero(senses == EQ)[0]
    # >= rows are negated into <= form; their duals flip sign back below
    sign = np.where(senses[ub_rows] == GE, -1.0, 1.0)
    A_ub = sp.diags(sign) @ A[ub_rows] if len(ub_rows) else None
    b_ub = sign * rhs[ub_rows] if len(ub_rows) else None
    A_eq = A[eq_rows] if len(eq_rows) else None
    b_eq = rhs[eq_rows] if len(eq_rows) else None

    res = linprog(
        lp.cost,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=np.column_stack([lp.lower, lp.upper]),
        method="highs",
        options={"maxiter": opts.max_iters, "dual_feasibility_tolerance": opts.opt_tol,
                 "primal_feasibility_tolerance": opts.feas_tol},
    )
    status = {0: OPTIMAL, 1: ITERATION_LIMIT, 2: INFEASIBLE, 3: UNBOUNDED}.get(res.status)
    if status is None:
        raise LPNumericalError(f"HiGHS backend failed: {res.message}")
    x = np.asarray(res.x) if res.x is not None else np.zeros(n)
    duals = np.zeros(m)
    rc = np.zeros(n)
    if status == OPTIMAL:
        if len(ub_rows):
            duals[ub_rows] = sign * np.asarray(res.ineqlin.marginals)
        if len(eq_rows):
            duals[eq_rows] = np.asarray(res.eqlin.marginals)
        rc = np.asarray(res.lower.marginals) + np.asarray(res.upper.marginals)
    obj = float(res.fun + lp.obj_const) if status in (OPTIMAL, ITERATION_LIMIT) and res.fun is not None else (
        np.inf if status == INFEASIBLE else -np.inf
    )
    return LPSolution(
        status=status,
        objective=obj,
        x=x,
        duals=duals,
        reduced_costs=rc,
        iterations=int(getattr(res, "nit", 0)),
        basis=None,
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
