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
and the entering column is read from its CSC arrays.  The cold slack
basis starts from the identity, with no factorization.  Pricing (c_B
B^-1, then A'y), FTRAN (a dense B^-1 a_j) and refactorization (a dense
inverse of B laid out as scipy's ``toarray`` lays it out, on one
OpenBLAS thread: see ``_inverse``) keep their dense arithmetic.

The product-form update of a pivot on row r rewrites only the block of
B^-1 in the rows where the entering column's FTRAN w is nonzero and the
columns where row r is, then overwrites row r.  In a skipped column the
whole-row update would compute B^-1[i,k] - w_i * (+-0.0), which can only
turn a -0.0 into a 0.0.  An updated B^-1 reaches decisions and outputs
only through the BLAS products c_B B^-1 and B^-1 a_j (B^-1 times the
right-hand side is taken only after a refactorization, which replaces
B^-1); they sum into a zeroed output, so the sign of a zero in B^-1 never
reaches their bits.  Where w has a non-finite entry, whole rows are
updated, since 0 * inf is NaN.  Every other skipped operation would have
added or subtracted a zero, so the pivot sequence and every
floating-point value that leaves the loop are those of the all-dense
kernel.

A pivot makes few numpy calls, because the state it reads is kept by
basis position: the basic values ``xB`` (``x`` holds 0 at basic
columns), their bounds and those bounds widened by the feasibility
tolerance, and ``c_B``; plus one pricing direction per column (+1 where
a nonbasic column may only rise, -1 only fall, 0 neither) and the
nonbasic free columns, which may do both.  A pivot or a bound flip
updates these in place; a refactorization recomputes them.  Each number
is the one the gather-per-pivot kernel computed, from the same operands
in the same order: ``c_B`` is the same contiguous vector in the same BLAS
product; and pricing scores p * direction, |p| at the free columns,
which is the old masked maximum wherever a score can beat the tolerance
(the direction is +1 exactly when p_j > dtol).  Phase 1's c_B is +1
above, -1 below and 0 elsewhere; every nonbasic column costs 0 in phase
1, so its reduced cost is -(A'y), and the loop prices on A'y with the
comparisons turned round.  Only the sign of a zero can differ, which no
comparison sees, and phase-1 reduced costs never leave the loop.  The
closing optimality check prices the fresh inverse once, and an optimal
solution takes its duals and reduced costs from that pricing.

The ratio test gathers the rows where |w| > 1e-10 (no other row can
block) once, as Python floats, and steps over them with the IEEE
operations of the numpy array kernel it replaced, so it picks the same
row and the same step bits at less call overhead on the 10 to 50 moving
rows of these models.  In phase 1 a row below its bounds takes the
bounds (-inf, lo) and one above (hi, inf).  |w| is exactly w or -w, so a
falling basic's step is (x - lo) / |w| and a rising one's (hi - x) /
|w|, the array kernel's quotients.  ``t if t > 0 else 0.0 if t > -inf
else inf`` is its clamp, non-finite to inf and then ``np.maximum(t,
0.0)``, which gives 0.0 for -0.0.  The steps then hold no NaN and no
-0.0, so min() is the array minimum, and the tie cut, the magnitude
floor and the smallest basis index compare the same doubles.

The simplex needs only numpy: [A I] is kept as CSC arrays, each
column's entries in row order, and A'y (pricing) and A x (the iterate)
are ``np.bincount`` over them.  Each product is taken on its own, not
fused into an add, and each bin adds its products one at a time in
storage order from 0.0, as scipy's ``csr_matvec`` and ``csc_matvec`` do
in the x86-64 build the pinned outputs were recorded with, so every sum
keeps its bits.

Dual sign conventions (minimization): duals of >= rows are nonnegative,
of <= rows nonpositive, of = rows free.  Reduced costs are nonnegative
at a lower bound and nonpositive at an upper bound.

A second backend hands the model to HiGHS through the binding scipy
bundles (scipy.optimize._highspy), in exactly the form
scipy.optimize.linprog(method="highs") would, so its solutions are
linprog's bit for bit without linprog's per-call overhead.  The
binding's extension module is loaded on the first HiGHS solve from its
file alone, without the ``scipy.optimize`` package import around it
(``_hc``), and registered under its own name, so a later import of the
package reuses it.  Both backends feed the same KKT verifier and share
one primal feasibility and one dual optimality tolerance, the constants
``FEAS_TOL`` and ``OPT_TOL``; ``LPOptions`` sets only the iteration
limit and the backend, and checks both when it is made.  ``solve_lp``
checks the numbers before either backend sees them: a cost or right-hand
side that is not finite, or a NaN bound, raises ValueError.

A frozen model is a compiled structure (``_Structure``: the matrix and
row senses as read-only arrays, the simplex's [A I], and linprog's layout
of the matrix as read-only arrays, ``_HighsForm``) plus its own float64
costs, bounds and right-hand sides.  ``with_numbers`` swaps whole float64
arrays of numbers on the same structure (``with_rhs`` is one use of it),
``with_rows`` extends the parent's arrays, and ``cut_to`` keeps slices of
them.  A HiGHS solve works out its row bounds from its own right-hand
sides and hands them, its costs and column bounds and the layout's
matrix to the ``passModel`` overload that reads numpy arrays, which
copies them into HiGHS; nothing the structure holds is written, so
solves of one structure on many threads take no lock.  An unfrozen model
compiles on every query, so nothing cached goes stale.  Each thread
keeps one HiGHS instance and passes it options only when the iteration
limit changes; ``passModel`` clears the previous solve, so the kept
instance gives a fresh one's bytes.  Each solution vector is read
back once, and linprog's post-solve check compares it with the solve's
own bounds and tolerance.  Reduced costs are read off the basic-variable
list and the model's finite bounds, not a basis status object per column.

Models are built a column or row at a time or a block at a time
(``add_vars`` / ``add_rows``, which check a block on its arrays).  Row
entries are kept as the chunks they arrived in plus one entry count per
row, so a block costs a few list appends however many rows it holds;
freezing concatenates the chunks once.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
import threading

import numpy as np

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
    copy on the same structure with other whole arrays, ``with_rows``
    one whose structure is this one's arrays plus the new rows, and
    ``cut_to`` one of its leading columns and some of its rows.  An open
    model is compiled afresh on every query.  Solving never mutates it.
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

    @property
    def senses(self):
        """Per row its sense code (LE, EQ, GE), as an int8 array."""
        return self._view()[0].senses

    def coo(self):
        """The constraint entries as (row, col, value) arrays, in row order."""
        return self._view()[0].coo

    def matrix(self):
        """Constraint matrix as a scipy CSC matrix (rows x vars); solving
        never needs it."""
        return self._view()[0].form(_csc)

    def with_numbers(self, cost=None, upper=None, rhs=None):
        """A frozen copy on this model's structure with numbers replaced.

        Each argument is None (keep this model's) or a whole float64 array
        of the model's length; anything else raises ValueError.  The copy
        shares the structure (and each backend's form of it), the lower
        bounds and the arrays it keeps; a solve reads the copy's numbers
        and writes nothing shared.
        """
        s, numbers = self._view()
        return LinearProgram._frozen(s, tuple(
            _replaced(old, new, name) for old, new, name in zip(
                numbers, (cost, None, upper, rhs), ("cost", "lower", "upper", "rhs"))),
            self.obj_const)

    def with_rhs(self, rhs):
        """A frozen copy with the right-hand sides ``rhs`` (a float64 array)."""
        return self.with_numbers(rhs=rhs)

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

    def cut_to(self, n_vars, spans):
        """A frozen model of this one's first ``n_vars`` columns and the rows
        of ``spans``, (first, stop) pairs in row order, renumbered from 0;
        those rows must name only the kept columns.  Its structure is new
        and its ``obj_const`` 0.0."""
        s, (cost, lower, upper, rhs) = self._view()
        rows, cols, vals = s.coo
        kept = [slice(a, b) for a, b in spans]
        entries = [slice(*e) for e in np.searchsorted(rows, spans).tolist()]
        firsts = np.cumsum([0] + [b - a for a, b in spans])  # each span's new first row
        coo = (np.concatenate([rows[e] + (f - r.start) for e, f, r in zip(entries, firsts, kept)]),
               np.concatenate([cols[e] for e in entries]),
               np.concatenate([vals[e] for e in entries]))
        return LinearProgram._frozen(
            _Structure(n_vars, coo, np.concatenate([s.senses[r] for r in kept])),
            (cost[:n_vars], lower[:n_vars], upper[:n_vars],
             _read_only(np.concatenate([rhs[r] for r in kept]))), 0.0)

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
    if not isinstance(new, np.ndarray) or new.dtype != np.float64 or new.shape != old.shape:
        raise ValueError(f"{what} must be a float64 array of length {old.size}, "
                         f"got {getattr(new, 'dtype', type(new).__name__)} "
                         f"of shape {np.shape(new)}")
    return _read_only(new.copy())


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
    import scipy.sparse as sp  # only matrix() needs it; the simplex never does

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
    the same (or row-wise extended) model.  A cost or right-hand side that
    is not finite, or a NaN bound, raises ValueError on either backend; an
    infinite bound is legal.
    """
    opts = opts or LPOptions()
    _check_numbers(lp)
    if opts.backend == "highs":
        return _solve_highs(lp, opts)
    return _Simplex(lp, opts, warm).solve()


def _check_numbers(lp):
    """Raise ValueError naming the first number no solve can read."""
    cost, lower, upper, rhs = lp._view()[1]
    if (np.isfinite(cost).all() and np.isfinite(rhs).all()
            and not (np.isnan(lower).any() or np.isnan(upper).any())):
        return
    for name, a, bad in (("cost", cost, ~np.isfinite(cost)),
                         ("lower bound", lower, np.isnan(lower)),
                         ("upper bound", upper, np.isnan(upper)),
                         ("right-hand side", rhs, ~np.isfinite(rhs))):
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise ValueError(f"{name} {i} is {a[i]}: a model's costs and right-hand sides "
                             "must be finite and its bounds numbers")


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
    """[A I] as CSC arrays (``indptr``, ``indices``, ``data`` and each
    entry's column ``col``) and the slacks' bounds.  Equality rows get a
    fixed zero slack; it may sit in a basis but can never enter one.  A row
    with no coefficients stays, its slack fixed at the rhs.  The columns'
    costs and bounds are the solved model's own."""

    def __init__(self, s):
        n, m = s.n, s.m
        rows, cols, data = s.coo
        self.empty = np.bincount(rows, minlength=m) == 0
        self.slack_lo = np.where(s.senses == GE, -np.inf, 0.0)
        self.slack_hi = np.where(s.senses == LE, np.inf, 0.0)
        # a stable sort keeps each column's entries in row order, so every
        # sparse product sums in a fixed order
        slack = np.arange(m, dtype=np.int64)
        col = np.concatenate([cols, n + slack])
        order = np.argsort(col, kind="stable")
        self.col = col[order]
        self.indices = np.concatenate([rows, slack])[order]
        self.data = np.concatenate([data, np.ones(m)])[order]
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(col, minlength=n + m))])
        for a in (self.col, self.indices, self.data, self.indptr, self.slack_lo,
                  self.slack_hi):
            _read_only(a)


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS,
    found on first use; None where that library or its symbols are absent."""
    import ctypes
    import glob
    import os

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


#: held across setting OpenBLAS to one thread, an inverse and the restore:
#: the thread count is process-wide and oracle threads may refactor at once
_one_thread = threading.Lock()


def _inverse(B):
    """``np.linalg.inv(B)`` on one OpenBLAS thread, so its bytes do not
    depend on the host's thread count (LAPACK's inverse of a few hundred
    rows groups its sums by thread); the count is restored after.  Where
    the count cannot be set, it is left as it is."""
    threads = _openblas_threads()
    if threads is None:
        return np.linalg.inv(B)
    get, set_ = threads
    with _one_thread:
        count = get()
        set_(1)
        try:
            return np.linalg.inv(B)
        finally:
            set_(count)


def _sums(bins, weights, length):
    """Each bin's weights added one at a time in storage order from 0.0, as
    scipy's ``csr_matvec`` and ``csc_matvec`` add a row's or a column's
    products; float64 also when there are no weights."""
    return np.bincount(bins, weights, length).astype(np.float64, copy=False)


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
        self.indptr, self.indices, self.data, self.col = f.indptr, f.indices, f.data, f.col
        self.b = rhs
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

    def _basis_matrix(self):
        """B = [A I][:, basis], dense, with the bytes and layout that scipy's
        ``A[:, basis].toarray()`` gives (column-major, each entry 0.0 + a)."""
        indptr, m = self.indptr, self.m
        starts = indptr[self.basis]
        counts = indptr[self.basis + 1] - starts
        at = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        BT = np.zeros((m, m))
        BT[np.repeat(np.arange(m), counts), self.indices[at]] = 0.0 + self.data[at]
        return BT.T

    def _try_refactor(self):
        # the old inverse is released first, so two never coexist; a failed
        # refactorization is never followed by a pivot
        self.Binv = None
        try:
            self.Binv = _inverse(self._basis_matrix())
        except np.linalg.LinAlgError:
            return False
        if not np.all(np.isfinite(self.Binv)):
            return False
        self._refresh()
        return True

    def _refresh(self):
        """Recompute the iterate and the per-position state from the
        current basis and statuses."""
        vs, basis = self.vstat, self.basis
        self.x = np.where(vs == NB_UP, self.hi, self.lo)
        self.x[(vs == NB_FREE) | (vs == BASIC)] = 0.0
        self.xB = self.Binv @ (self.b - _sums(self.indices, self.data * self.x[self.col], self.m))
        self.loB, self.hiB, self.cB = self.lo[basis], self.hi[basis], self.c[basis]
        self.loB_tol, self.hiB_tol = self.loB - FEAS_TOL, self.hiB + FEAS_TOL
        # +1 where a nonbasic column may only rise, -1 only fall, 0 neither;
        # the nonbasic free columns may do both
        self.dir = np.subtract(vs == NB_LO, vs == NB_UP, dtype=np.float64)
        self.free = (vs == NB_FREE).nonzero()[0]
        self._since_refactor = 0

    # -- pricing ----------------------------------------------------------

    def _duals(self, cB):
        """y' = c_B' B^-1 and A'y, summed as scipy's ``A.T @ y`` sums it."""
        y = cB @ self.Binv
        return y, _sums(self.col, self.data * y[self.indices], self.N)

    def _pick_entering(self, p, dtol, bland):
        """The entering column and its direction (+1 up, -1 down) from p,
        the objective's fall per unit rise (the reduced cost negated);
        (-1, 0) when no column improves by more than dtol."""
        # p at a rising column, -p at a falling one, |p| at a free one and
        # 0 (or NaN) at the others, none of which beats dtol
        score = p * self.dir
        if self.free.size:
            score[self.free] = np.abs(p[self.free])
        j = int((score > dtol if bland else score).argmax())
        if not score[j] > dtol:
            if not math.isnan(score[j]):
                return -1, 0
            # argmax stops at the first NaN, which is never a candidate
            score[np.isnan(score)] = -np.inf
            j = int(score.argmax())
            if not score[j] > dtol:
                return -1, 0
        return j, (1 if p[j] > dtol else -1)

    # -- ratio test -------------------------------------------------------

    def _ratio_test(self, j, sigma, w, below, above):
        """Blocking step length; honours phase-1 infeasible basics.

        Returns (t, kind, row, side): kind 'flip' | 'pivot' | 'unbounded';
        side is the bound the leaving variable lands on (NB_LO/NB_UP).
        Only rows whose basic variable moves (|w| > 1e-10) can block, so
        only those are gathered, as floats (see the module docstring).
        """
        at = (np.abs(w) > 1e-10).nonzero()[0]
        rows, ws = at.tolist(), w[at].tolist()
        xs, los, his = self.xB[at].tolist(), self.loB[at].tolist(), self.hiB[at].tolist()
        phase1 = below is not None
        if phase1:
            bs, as_ = below[at].tolist(), above[at].tolist()
        inf = math.inf
        steps = []
        for i, wi in enumerate(ws):
            x, lo, hi = xs[i], los[i], his[i]
            # a basic moving down stops at its lower bound, one moving up at
            # its upper bound; in phase 1 one outside its bounds stops where
            # it re-enters them, and never blocks while moving further away
            if phase1:
                b, a = bs[i], as_[i]
                lo, hi = (-inf if b else hi if a else lo), (inf if a else lo if b else hi)
            # x_B changes by -sigma * w * t, and |w| is exactly w or -w
            if sigma > 0:
                t = (x - lo) / wi if wi > 0 else (hi - x) / -wi
            else:
                t = (x - lo) / -wi if wi < 0 else (hi - x) / wi
            # a non-finite step never blocks, a negative one blocks at once;
            # no step is -0.0, so the minimum's bits do not depend on where
            # the zeros sit
            steps.append(t if t > 0.0 else 0.0 if t > -inf else inf)

        span = float(self.hi[j] - self.lo[j])
        flip_limit = span if self.vstat[j] in (NB_LO, NB_UP) and math.isfinite(span) else inf

        rmin = min(steps) if steps else inf
        if flip_limit <= rmin:  # always so when no row blocks (rmin is inf)
            if flip_limit == inf:
                return inf, "unbounded", -1, 0
            return flip_limit, "flip", -1, 0
        cut = rmin + 1e-12 * (1.0 + rmin)
        ties = [i for i, t in enumerate(steps) if t <= cut]
        if len(ties) == 1:
            k = ties[0]
        else:
            if self._degen_streak < DEGEN_STREAK:
                # stability: the largest pivot magnitudes (Bland's rule
                # skips this), then the smallest leaving variable index
                floor = max(abs(ws[i]) for i in ties) * (1.0 - 1e-9)
                ties = [i for i in ties if abs(ws[i]) >= floor]
            basis = self.basis
            k = min(ties, key=lambda i: basis[rows[i]])
        if (ws[k] > 0) if sigma > 0 else (ws[k] < 0):  # moving down
            side = NB_UP if phase1 and as_[k] else NB_LO
        else:
            side = NB_LO if phase1 and bs[k] else NB_UP
        return rmin, "pivot", rows[k], side

    # -- pivoting ---------------------------------------------------------

    def _apply_pivot(self, j, sigma, w, t, kind, r, land_side):
        if kind == "flip":
            self.xB -= (sigma * t) * w
            self.x[j] = self.hi[j] if self.vstat[j] == NB_LO else self.lo[j]
            self.vstat[j] = NB_UP if self.vstat[j] == NB_LO else NB_LO
            self.dir[j] = -self.dir[j]
            return True
        piv = w[r]
        if abs(piv) < 1e-9:
            return False  # caller refactors and retries
        self.xB -= (sigma * t) * w
        leaving = self.basis[r]
        lo, hi = self.lo, self.hi
        self.x[leaving] = lo[leaving] if land_side == NB_LO else hi[leaving]
        self.xB[r] = self.x[j] + sigma * t
        self.x[j] = 0.0
        side = FIXED if lo[leaving] == hi[leaving] else land_side
        self.vstat[leaving] = side
        self.dir[leaving] = 1.0 if side == NB_LO else -1.0 if side == NB_UP else 0.0
        if self.vstat[j] == NB_FREE:
            self.free = self.free[self.free != j]
        self.vstat[j] = BASIC
        self.dir[j] = 0.0
        self.basis[r] = j
        self.loB[r], self.hiB[r], self.cB[r] = lo[j], hi[j], self.c[j]
        self.loB_tol[r], self.hiB_tol[r] = lo[j] - FEAS_TOL, hi[j] + FEAS_TOL
        self._update_inverse(r, w, piv)
        self._since_refactor += 1
        if self._since_refactor >= REFACTOR_EVERY:
            if not self._try_refactor():
                raise LPNumericalError("basis refactorization failed")
        return True

    def _update_inverse(self, r, w, piv):
        """The product-form update of B^-1 for a pivot on row r, on the block
        where w and row r are nonzero (see the module docstring); a w whose
        nonzeros do not sum to a finite number updates whole rows, since
        0 * inf is NaN."""
        Br = self.Binv[r] / piv
        rows = w.nonzero()[0]
        wr = w[rows]
        # a NaN or an infinity makes the sum non-finite, and so may an
        # overflow of finite entries, which the whole-row update also
        # serves; Python's sum, unlike numpy's, warns on neither
        if math.isfinite(sum(wr.tolist())):
            cols = Br.nonzero()[0]
            self.Binv[rows[:, None], cols] -= np.multiply.outer(wr, Br[cols])
        else:
            rows = rows[rows != r]
            self.Binv[rows] -= w[rows, None] * Br
        self.Binv[r] = Br

    def _column(self, j):
        """Column j of [A I] as a dense vector, read from the CSC arrays."""
        lo, hi = self.indptr[j], self.indptr[j + 1]
        col = np.zeros(self.m)
        col[self.indices[lo:hi]] = self.data[lo:hi]
        return col

    # -- phases -----------------------------------------------------------

    def _infeasible(self):
        """Whether the basic bound violations sum above FEAS_TOL * (1 + sum|b|)."""
        lo_gap = np.maximum(self.loB - self.xB, 0.0)
        hi_gap = np.maximum(self.xB - self.hiB, 0.0)
        return float(lo_gap.sum() + hi_gap.sum()) > FEAS_TOL * (1 + abs(self.b).sum())

    def _run(self, phase):
        """Shared pivot loop; phase 1 minimizes basic bound violations."""
        dtol = 1e-9 if phase == 1 else OPT_TOL
        stall_guard = 0
        while True:
            if self.iterations >= self.opts.max_iters:
                return ITERATION_LIMIT
            below = self.xB < self.loB_tol
            above = self.xB > self.hiB_tol
            if not (np.count_nonzero(below) or np.count_nonzero(above)):
                if phase == 1:
                    return "feasible"
                below = above = None
            if phase == 1:
                # cost -1 below, +1 above, 0 elsewhere; every nonbasic costs
                # 0, so its reduced cost is -(A'y)
                p = self._duals(np.subtract(above, below, dtype=np.float64))[1]
            else:
                p = self._duals(self.cB)[1]
                np.subtract(p, self.c, out=p)
            bland = self._degen_streak >= DEGEN_STREAK
            j, sigma = self._pick_entering(p, dtol, bland)
            if j < 0:
                if phase == 1:
                    return INFEASIBLE if self._infeasible() else "feasible"
                return OPTIMAL
            w = self.Binv @ self._column(j)
            t, kind, r, land = self._ratio_test(j, sigma, w, below, above)
            if kind == "unbounded" and phase == 2:
                return UNBOUNDED
            if kind == "unbounded" or not self._apply_pivot(j, sigma, w, t, kind, r, land):
                # neither can legitimately happen: refactor and retry, twice at most
                stall_guard += 1
                if stall_guard > 2 or not self._try_refactor():
                    raise LPNumericalError("phase-1 ray detected" if kind == "unbounded"
                                           else "pivot element vanished")
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
            priced = self._duals(self.cB)
            j, _sig = self._pick_entering(priced[1] - self.c, OPT_TOL, False)
            if self._infeasible():
                status = self._run(1)
                if status in (INFEASIBLE, ITERATION_LIMIT):
                    return self._package(status)
            elif j < 0:
                # the check priced this basis on this inverse already
                return self._package(OPTIMAL, priced)
        return self._package(OPTIMAL)

    def _package(self, status, priced=None):
        """The solution; an optimal one takes its duals and reduced costs
        from ``priced``, the (y, A'y) of the current basis, when given."""
        n = self.n
        x = self.x.copy()
        x[self.basis] = self.xB
        x = x[:n].copy()
        duals = np.zeros(self.m)
        rc = np.zeros(n)
        if status == OPTIMAL:
            duals, g = priced or self._duals(self.cB)
            rc = (self.c - g)[:n]
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


_CORE = "scipy.optimize._highspy._core"
_core_lock = threading.Lock()


def _hc():
    """The HiGHS core, loaded on first use (the reference simplex never
    needs it) and registered under its own name in ``sys.modules``."""
    core = sys.modules.get(_CORE)
    if core is None:
        with _core_lock:
            core = sys.modules.get(_CORE) or _load_core()
    return core


def _core_file():
    """The core's extension file where scipy puts it; None if absent."""
    import importlib.machinery
    import os

    import scipy

    folder = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_core" + suffix)
        if os.path.isfile(path):
            return path
    return None


def _load_core():
    """Load the core's extension file alone, without the ``scipy.optimize``
    package import around it (most of a one-shot HiGHS run's start-up); a
    later import of that package finds it in ``sys.modules`` and uses the
    same module.  Where the file is not found, import it the usual way."""
    import importlib
    import importlib.machinery
    import importlib.util

    path = _core_file()
    if path is None:
        return importlib.import_module(_CORE)
    loader = importlib.machinery.ExtensionFileLoader(_CORE, path)
    core = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(_CORE, path, loader=loader))
    loader.exec_module(core)
    # registered once whole, so no other thread sees it half made
    sys.modules[_CORE] = core
    return core


class _HighsForm:
    """linprog's layout of a structure as read-only arrays, built once and
    handed to ``passModel`` on every solve: the <= and >= rows in model
    order, >= rows negated (their duals flip back after the solve), then
    the = rows; HiGHS reads each row as lhs <= a'x <= rhs.  ``rows`` lists
    each HiGHS row's model row and ``position`` the reverse.  The matrix is
    CSC: ``start`` holds each column's first entry (HiGHS appends the entry
    count itself), then int32 ``index`` and float64 ``value``; the all-zero
    ``integrality`` marks every column continuous, as the call needs one
    entry per column.  A solve writes none of them."""

    def __init__(self, s):
        n, m = s.n, s.m
        ub = s.senses != EQ
        self.rows = np.concatenate([np.flatnonzero(ub), np.flatnonzero(~ub)])
        self.n_ub = int(np.count_nonzero(ub))
        self.position = np.empty(m, dtype=np.int64)
        self.position[self.rows] = np.arange(m)
        self.sign = np.where(s.senses == GE, -1.0, 1.0)
        self.row_sign = self.sign[self.rows]

        # CSC with sorted row indices; HiGHS drops explicit zeros itself
        rows, cols, vals = s.coo
        vals = vals * self.sign[rows]
        rows = self.position[rows]
        order = np.argsort(cols * m + rows)
        self.start = np.zeros(n, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=n)[:-1], out=self.start[1:])
        self.index, self.value = rows[order].astype(np.int32), vals[order]
        self.integrality = np.zeros(n, dtype=np.int32)
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                _read_only(a)


#: linprog's post-solve tolerance on bounds and row residuals
_HIGHS_TOL = np.sqrt(1e-9) * 10


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
    cost, lower, upper, rhs = numbers
    row_upper = f.row_sign * rhs[f.rows]
    row_lower = row_upper.copy()
    row_lower[:f.n_ub] = -np.inf
    passed = highs.passModel(s.n, s.m, f.index.size, hc.MatrixFormat.kColwise,
                             hc.ObjSense.kMinimize, 0.0, cost, lower, upper, row_lower,
                             row_upper, f.start, f.index, f.value, f.integrality)
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
    slack = row_upper - row_value
    if not (fun == fun and (x >= lower - _HIGHS_TOL).all() and (x <= upper + _HIGHS_TOL).all()
            and (slack >= -_HIGHS_TOL).all() and (slack[f.n_ub:] <= _HIGHS_TOL).all()):
        raise LPNumericalError(
            "HiGHS backend failed: the solution does not satisfy the "
            f"constraints within {_HIGHS_TOL:.2E}"
        )
    # a column's reduced cost is its dual at a bound and 0 otherwise; a
    # nonbasic column is at a bound unless both of its bounds are infinite
    # (HiGHS' kZero).  linprog summed a lower and an upper part, which
    # turns -0.0 into 0.0
    rc = np.where(np.isfinite(lower) | np.isfinite(upper), col_dual + 0.0, 0.0)
    # with no entries no column can be basic (a zero column would make the
    # basis singular), and HiGHS crashes listing the basics of such a model
    if f.index.size:
        read, basic = highs.getBasicVariables()
        if read == error:
            raise LPNumericalError("HiGHS backend failed: no basis after an optimal solve")
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
    s, (c, lo, hi, rhs) = lp._view()
    f, senses = s.form(_SlackForm), s.senses
    k = f.indptr[s.n]  # the model's own entries come before the slacks'
    rows, cols, vals = f.indices[:k], f.col[:k], f.data[:k]

    ax = _sums(rows, vals * x[cols], s.m)
    row_viol = np.zeros(lp.n_rows)
    row_viol[senses == LE] = np.maximum(0.0, (ax - rhs)[senses == LE])
    row_viol[senses == GE] = np.maximum(0.0, (rhs - ax)[senses == GE])
    row_viol[senses == EQ] = np.abs((ax - rhs)[senses == EQ])
    bound_viol = np.maximum.reduce(
        [np.maximum(lo - x, 0.0), np.maximum(x - hi, 0.0), np.zeros(lp.n_vars)]
    )
    max_primal = float(max(row_viol.max() if lp.n_rows else 0.0,
                           bound_viol.max() if lp.n_vars else 0.0))

    stat = c - _sums(cols, vals * y[rows], s.n) - z
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
