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
``LPOptions`` sets only the iteration limit and the backend, and checks
both when it is made.

A frozen model is a compiled structure (``_Structure``: the matrix and
row senses as read-only arrays, the simplex's [A I], and linprog's layout
of the matrix in a kept ``HighsLp``) plus its own float64 costs, bounds
and right-hand sides.  ``with_numbers`` swaps numbers on the same
structure (``with_rhs`` is one use of it), and ``with_rows`` extends the
parent's arrays.  A HiGHS solve writes into the kept ``HighsLp`` only
the costs, column bounds and row bounds that are not the arrays it last
wrote (a ``with_rhs`` copy sends only row bounds), and ``passModel``
copies it, both under a per-structure lock; ``run`` stays outside it.  An
unfrozen model compiles on every query, so nothing cached goes stale.
Each thread keeps one HiGHS instance and passes it options only when the
iteration limit changes; ``passModel`` clears the previous solve, so the
kept instance gives a fresh one's bytes.  Each solution vector is read
back once.  Reduced costs are read off the basic-variable list and the
model's finite bounds, not a basis status object per column.

Models are built a column or row at a time or a block at a time
(``add_vars`` / ``add_rows``, which check a block on its arrays).  Row
entries are kept as the chunks they arrived in plus one entry count per
row, so a block costs a few list appends however many rows it holds;
freezing concatenates the chunks once.
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


@dataclasses.dataclass(frozen=True)
class LPOptions:
    """Checked when made, and frozen, so every solve sees valid options."""

    max_iters: int = 200_000
    backend: str = "simplex"  # or "highs"

    def __post_init__(self):
        n = self.max_iters
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
            raise ValueError(f"max_iters must be an integer >= 0, got {n!r}")
        if self.backend not in ("simplex", "highs"):
            raise ValueError(f"unknown LP backend '{self.backend}'")


class LinearProgram:
    """Sparse LP container: min c'x + k s.t. rows, lo <= x <= hi.

    A model is open while the builders add to it (add_var / add_vars,
    add_row / add_rows) and is then frozen.  A frozen model is a compiled
    ``_Structure`` (its matrix and row senses) plus its own read-only
    float64 numbers ``cost``, ``lower``, ``upper`` and ``rhs``.  It never
    changes: ``with_numbers`` (and ``with_rhs``, one use of it) gives a
    copy on the same structure with other numbers, and ``with_rows`` one
    whose structure is this one's arrays plus the new rows.  An open model
    is compiled afresh on every query.  Solving never mutates the model.
    """

    def __init__(self):
        self.obj_const = 0.0
        # an open model's lists, dropped when it is frozen
        self._cost, self._lo, self._hi, self._rhs = [], [], [], []
        self._cols = []  # chunks of column indices (int64), rows in order
        self._vals = []  # chunks of coefficients (float64)
        self._nnz = []  # per row: its number of entries
        self._senses = []  # per row: LE | EQ | GE
        # a frozen model's structure and (cost, lower, upper, rhs)
        self._s = self._numbers = None

    # -- construction -----------------------------------------------------

    @property
    def n_vars(self):
        return len(self._cost) if self._s is None else self._s.n

    @property
    def n_rows(self):
        return len(self._nnz) if self._s is None else self._s.m

    def _check_open(self):
        if self._s is not None:
            raise RuntimeError("LinearProgram is frozen; use with_rows/with_numbers")

    def add_var(self, lo=0.0, hi=np.inf, cost=0.0):
        return self.add_vars([lo], [hi], [cost])

    def add_vars(self, lo, hi, cost):
        """Append one column per entry; returns the first one's index."""
        self._check_open()
        arrays = [np.asarray(v, dtype=np.float64) for v in (lo, hi, cost)]
        if any(a.ndim != 1 or a.shape != arrays[0].shape for a in arrays):
            raise ValueError("column bounds and costs differ in length")
        start = self.n_vars
        for dst, a in zip((self._lo, self._hi, self._cost), arrays):
            dst.extend(a.tolist())
        return start

    def add_row(self, cols, vals, sense, rhs):
        cols = np.asarray(cols, dtype=np.int64)
        return self.add_rows(cols, vals, [cols.size], [_sense(sense)], [rhs])

    def add_rows(self, cols, vals, counts, senses, rhs):
        """Append one row per count; returns the first one's index.

        Row i takes the next ``counts[i]`` entries of ``cols`` / ``vals``;
        ``senses`` are codes (LE, EQ, GE).  The block is checked on its
        arrays (``_checked_rows``)."""
        self._check_open()
        cols, vals, counts, senses, rhs = _checked_rows(self.n_vars, cols, vals, counts,
                                                        senses, rhs)
        start = self.n_rows
        self._cols.append(cols)
        self._vals.append(vals)
        self._nnz.extend(counts.tolist())
        self._senses.extend(senses.tolist())
        self._rhs.extend(rhs.tolist())
        return start

    def freeze(self):
        """Compile the model; afterwards only functional extension."""
        if self._s is None:
            self._set_frozen(*_compile(self))
        return self

    def _view(self):
        """(structure, (cost, lower, upper, rhs)): a frozen model's own, an
        open model's compiled afresh, so nothing cached goes stale."""
        return _compile(self) if self._s is None else (self._s, self._numbers)

    # -- frozen views -----------------------------------------------------

    @property
    def cost(self):
        return self._view()[1][0]

    @property
    def lower(self):
        return self._view()[1][1]

    @property
    def upper(self):
        return self._view()[1][2]

    @property
    def rhs(self):
        return self._view()[1][3]

    def rhs_array(self):
        return self.rhs

    @property
    def senses(self):
        """Per row its sense code (LE, EQ, GE), as an int8 array."""
        return self._view()[0].senses

    def coo(self):
        """The constraint entries as (row, col, value) arrays, in row order."""
        return self._view()[0].coo

    def matrix(self):
        """Constraint matrix as CSC (rows x vars)."""
        return self._view()[0].form(_csc)

    def with_numbers(self, cost=None, lower=None, upper=None, rhs=None):
        """A frozen copy on this model's structure with numbers replaced.

        Each argument is None (keep this model's), a full float64 array of
        the model's length, or a ``{index: value}`` map of the entries to
        replace, every index an integer in range; anything else raises
        ValueError.  The copy shares the structure and the arrays it keeps.
        """
        s, numbers = self._view()
        return LinearProgram._frozen(s, tuple(
            _replaced(old, new, name) for old, new, name in zip(
                numbers, (cost, lower, upper, rhs), ("cost", "lower", "upper", "rhs"))),
            self.obj_const)

    def with_rhs(self, updates):
        """A frozen copy with rhs entries replaced ({row_index: value})."""
        return self.with_numbers(rhs=updates)

    def with_rows(self, extra_rows):
        """A frozen copy with ``extra_rows`` appended.

        ``extra_rows`` entries are (cols, vals, sense, rhs) tuples, checked
        as add_rows checks a block.  The copy's structure is this one's
        arrays with the new entries concatenated, equal to a row-by-row
        build's; its columns' numbers are shared."""
        s, (cost, lower, upper, rhs) = self._view()
        rows = list(extra_rows)
        if not rows:
            return self.with_numbers()
        cols, vals, senses, extra = zip(*rows, strict=True)
        cols = [np.asarray(c, dtype=np.int64) for c in cols]
        vals = [np.asarray(v, dtype=np.float64) for v in vals]
        if [c.shape for c in cols] != [v.shape for v in vals]:
            raise ValueError("row indices and values differ in length")
        cols, vals, counts, senses, extra = _checked_rows(
            s.n, np.concatenate(cols), np.concatenate(vals), [c.size for c in cols],
            [_sense(x) for x in senses], extra)
        coo = (np.concatenate([s.coo[0], np.repeat(np.arange(s.m, s.m + counts.size), counts)]),
               np.concatenate([s.coo[1], cols]), np.concatenate([s.coo[2], vals]))
        structure = _Structure(s.n, coo, np.concatenate([s.senses, senses.astype(np.int8)]))
        return LinearProgram._frozen(
            structure, (cost, lower, upper, _read_only(np.concatenate([rhs, extra]))),
            self.obj_const)

    def _set_frozen(self, structure, numbers):
        self._s, self._numbers = structure, numbers
        self._cost = self._lo = self._hi = self._rhs = None
        self._cols = self._vals = self._nnz = self._senses = None

    @classmethod
    def _frozen(cls, structure, numbers, obj_const):
        """The frozen model made of these parts."""
        out = cls()
        out.obj_const = obj_const
        out._set_frozen(structure, numbers)
        return out


def _sense(sense):
    return _SENSES[sense] if isinstance(sense, str) else int(sense)


def _read_only(a):
    a.flags.writeable = False
    return a


def _checked_rows(n, cols, vals, counts, senses, rhs):
    """A block of rows as arrays, checked: the lengths agree, every column
    exists among ``n``, and no row names a column twice."""
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    m = counts.size
    if (cols.shape != vals.shape or cols.shape != (counts.sum(),)
            or not counts.shape == np.shape(senses) == np.shape(rhs) == (m,)):
        raise ValueError("row indices and values differ in length")
    if cols.size:
        if cols.min() < 0 or cols.max() >= n:
            raise ValueError("row references a variable that does not exist")
        cells = np.sort(np.repeat(np.arange(m) * n, counts) + cols)
        if (cells[1:] == cells[:-1]).any():
            raise ValueError("row has duplicate column indices")
    return (cols, vals, counts, np.asarray(senses, dtype=np.int64),
            np.asarray(rhs, dtype=np.float64))


def _replaced(old, new, what):
    """``old`` with ``new`` swapped in, read-only: see ``with_numbers``."""
    if new is None:
        return old
    if isinstance(new, np.ndarray):
        if new.dtype != np.float64 or new.shape != old.shape:
            raise ValueError(f"{what} must be a float64 array of length {old.size}, "
                             f"got {new.dtype} of shape {new.shape}")
        return _read_only(new.copy())
    if not isinstance(new, dict):
        raise ValueError(f"{what} must be a float64 array or an {{index: value}} map")
    for i in new:
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < old.size:
            raise ValueError(f"{what} index {i!r} is not an integer in [0, {old.size})")
    out = old.copy()
    out[list(new)] = [float(v) for v in new.values()]
    return _read_only(out)


def _compile(lp):
    """An open model's (structure, numbers)."""
    numbers = tuple(_read_only(np.array(v, dtype=np.float64))
                    for v in (lp._cost, lp._lo, lp._hi, lp._rhs))
    rows = np.repeat(np.arange(len(lp._nnz), dtype=np.int64), np.array(lp._nnz, dtype=np.int64))
    coo = (rows, np.concatenate(lp._cols or [np.zeros(0, dtype=np.int64)]),
           np.concatenate(lp._vals or [np.zeros(0)]))
    return _Structure(len(lp._cost), coo, np.array(lp._senses, dtype=np.int8)), numbers


class _Structure:
    """A frozen model's matrix (``coo``, in row order) and row senses as
    read-only arrays, shared by its copies with other numbers, and each
    consumer's form of them, built on first use."""

    def __init__(self, n, coo, senses):
        self.n, self.m = n, senses.size
        self.coo, self.senses = coo, senses
        for a in (*coo, senses):
            _read_only(a)
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
    for a in (A.data, A.indices, A.indptr):
        _read_only(a)
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
    return _Simplex(lp, opts, warm).solve()


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
    """[A I] and the slacks' bounds.  Equality rows get a fixed zero slack;
    it may sit in a basis but can never enter one.  A row with no
    coefficients stays, its slack fixed at the rhs.  The columns' costs and
    bounds are the solved model's own."""

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
        for a in (A.data, A.indices, A.indptr, self.slack_lo, self.slack_hi):
            _read_only(a)


class _Simplex:
    def __init__(self, lp, opts, warm=None):
        self.lp = lp
        self.opts = opts
        s, (cost, lower, upper, rhs) = lp._view()
        f = s.form(_SlackForm)
        # an empty row is infeasible if its rhs is outside the slack's bounds
        self.empty_row_infeasible = bool(np.any(
            f.empty & ((rhs < f.slack_lo - FEAS_TOL) | (rhs > f.slack_hi + FEAS_TOL))
        ))
        self.n, self.m = s.n, s.m
        self.N = self.n + self.m
        self.A, self.AT, self.b = f.A, f.AT, rhs
        self.c = np.concatenate([cost, np.zeros(self.m)])
        self.lo = np.concatenate([lower, f.slack_lo])
        self.hi = np.concatenate([upper, f.slack_hi])
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


class _HighsForm:
    """linprog's layout of a structure in a kept ``HighsLp``: the <= and >=
    rows in model order, >= rows negated (their duals flip back after the
    solve), then the = rows; HiGHS reads each row as lhs <= a'x <= rhs.
    ``rows`` lists each HiGHS row's model row and ``position`` the reverse.
    ``load`` writes a model's numbers; it runs under the structure lock."""

    def __init__(self, s):
        hc = _hc()
        n, m = s.n, s.m
        ub = s.senses != EQ
        self.rows = np.concatenate([np.flatnonzero(ub), np.flatnonzero(~ub)])
        self.n_ub = n_ub = int(np.count_nonzero(ub))
        self.position = np.empty(m, dtype=np.int64)
        self.position[self.rows] = np.arange(m)
        self.sign = np.where(s.senses == GE, -1.0, 1.0)
        self.row_sign = self.sign[self.rows]
        self.free_lower = [-np.inf] * n_ub  # the <= and >= rows' row_lower_
        # the post-solve check's slack limits: -tol, and +tol on an = row
        self.slack_lo = np.full(m, -_HIGHS_TOL)
        self.slack_hi = np.where(np.arange(m) < n_ub, np.inf, _HIGHS_TOL)
        self.loaded = (None,) * 4  # the (cost, lower, upper, rhs) the model holds

        # CSC with sorted row indices; HiGHS drops explicit zeros itself
        rows, cols, vals = s.coo
        vals = vals * self.sign[rows]
        rows = self.position[rows]
        order = np.argsort(cols * m + rows)
        start = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=n), out=start[1:])

        model = self.model = hc.HighsLp()
        model.num_col_ = model.a_matrix_.num_col_ = n
        model.num_row_ = model.a_matrix_.num_row_ = m
        model.a_matrix_.format_ = hc.MatrixFormat.kColwise
        # the binding converts every vector but col_cost_ element by
        # element, which a list does faster
        model.a_matrix_.start_ = start.tolist()
        model.a_matrix_.index_ = rows[order].tolist()
        model.a_matrix_.value_ = vals[order].tolist()

    def load(self, numbers):
        """Write into the model each of ``numbers`` (cost, lower, upper,
        rhs) that is not the read-only array it holds.  Returns the row
        upper bounds, the post-solve check's (lower, upper) limits on x and
        the slacks, and the columns with a finite bound."""
        (cost, lower, upper, rhs), model, last = numbers, self.model, self.loaded
        if cost is not last[0]:
            model.col_cost_ = cost
        if lower is not last[1] or upper is not last[2]:
            model.col_lower_, model.col_upper_ = lower.tolist(), upper.tolist()
            self.limits = (np.concatenate([lower - _HIGHS_TOL, self.slack_lo]),
                           np.concatenate([upper + _HIGHS_TOL, self.slack_hi]))
            self.bounded = np.isfinite(lower) | np.isfinite(upper)
        if rhs is not last[3]:
            self.row_upper = self.row_sign * rhs[self.rows]
            model.row_upper_ = row_upper = self.row_upper.tolist()
            model.row_lower_ = self.free_lower + row_upper[self.n_ub:]
        self.loaded = numbers
        return self.row_upper, self.limits, self.bounded


#: linprog's post-solve tolerance on bounds and row residuals
_HIGHS_TOL = np.sqrt(1e-9) * 10


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


@functools.cache
def _model_status():
    """HiGHS model status -> solve_lp status, as linprog maps them."""
    ms = _hc().HighsModelStatus
    return {
        ms.kOptimal: OPTIMAL,
        ms.kTimeLimit: ITERATION_LIMIT,
        ms.kIterationLimit: ITERATION_LIMIT,
        ms.kInfeasible: INFEASIBLE,
        ms.kModelError: INFEASIBLE,
        ms.kUnbounded: UNBOUNDED,
    }


_kept = threading.local()


def _kept_highs(max_iters):
    """This thread's HiGHS instance, its options set for ``max_iters``.

    ``passModel`` replaces the model and clears the last run's basis,
    solution and info, so each solve on a kept instance is the one a fresh
    instance makes.  Options are passed again only when the limit changes.
    """
    hc = _hc()
    max_iters = min(max_iters, hc.kHighsIInf)  # HiGHS counts in 32 bits
    if not hasattr(_kept, "highs"):
        _kept.highs, _kept.max_iters = hc._Highs(), None
    highs = _kept.highs
    if _kept.max_iters != max_iters:
        _kept.max_iters = None  # unknown until HiGHS accepts the new ones
        if highs.passOptions(_highs_options(max_iters)) == hc.HighsStatus.kError:
            raise LPNumericalError("HiGHS backend failed: options rejected")
        _kept.max_iters = max_iters
    return highs


def _solve_highs(lp, opts):
    """Solve on HiGHS, handing it the model and options linprog would.

    The call mirrors ``scipy.optimize.linprog(method="highs")`` step for
    step (row layout, matrix, options, read-back and post-solve check), so
    every solution is bit for bit the one linprog returns, without its
    input cleaning, option round trips and per-column loops (see the
    module docstring).
    """
    hc = _hc()
    s, numbers = lp._view()
    f = s.form(_HighsForm)
    highs = _kept_highs(opts.max_iters)
    error = hc.HighsStatus.kError
    ran = False  # linprog's counts stay 0 if HiGHS did not run
    with s.lock:  # passModel copies the model, then it is free again
        row_upper, (lo_tol, hi_tol), bounded = f.load(numbers)
        passed = highs.passModel(f.model)
    if passed == error:
        model_status = hc.HighsModelStatus.kModelError
    else:
        ran = highs.run() != error
        model_status = highs.getModelStatus()
    status = _model_status().get(model_status)
    if status is None or (status == OPTIMAL and not ran):
        raise LPNumericalError(
            f"HiGHS backend failed: {highs.modelStatusToString(model_status)}"
        )
    iterations = 0 if not ran else (highs.getInfoValue("simplex_iteration_count")[1]
                                    or highs.getInfoValue("ipm_iteration_count")[1])
    if status != OPTIMAL:
        return LPSolution(status=status, objective=np.inf if status == INFEASIBLE else -np.inf,
                          x=np.zeros(s.n), duals=np.zeros(s.m), reduced_costs=np.zeros(s.n),
                          iterations=iterations)

    solution = highs.getSolution()
    x, row_value, col_dual, row_dual = (
        np.array(v, dtype=np.float64) for v in (
            solution.col_value, solution.row_value, solution.col_dual, solution.row_dual))
    fun = highs.getObjectiveValue()
    # linprog's post-solve check: an "optimal" point outside the bounds,
    # a negative <= slack or an = residual beyond sqrt(1e-9) * 10 is an
    # error; a NaN fails every comparison
    checked = np.concatenate([x, row_upper - row_value])
    if not (fun == fun and ((checked >= lo_tol) & (checked <= hi_tol)).all()):
        raise LPNumericalError(
            "HiGHS backend failed: the solution does not satisfy the "
            f"constraints within {_HIGHS_TOL:.2E}"
        )
    read, basic = highs.getBasicVariables()
    if read == error:
        raise LPNumericalError("HiGHS backend failed: no basis after an optimal solve")
    # a column's reduced cost is its dual at a bound and 0 otherwise; a
    # nonbasic column is at a bound unless both of its bounds are infinite
    # (HiGHS' kZero).  linprog summed a lower and an upper part, which
    # turns -0.0 into 0.0
    rc = np.where(bounded, col_dual + 0.0, 0.0)
    rc[basic[basic >= 0]] = 0.0
    return LPSolution(
        status=status,
        objective=float(fun + lp.obj_const),
        x=x,
        duals=f.sign * row_dual[f.position],
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
