"""Shared test utilities: brute-force LP oracle, solution checks, model digests."""

import hashlib
import itertools
import os

import numpy as np

import rtdispatch
from rtdispatch import lp as lpmod


def child_env():
    """Environment for a child interpreter: it imports the rtdispatch this
    process imported, however pytest put it on the path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(rtdispatch.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


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
    rhs = lp.rhs_array()

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


def model_digest(lp, vmap):
    """A hash of everything a built model holds, in order.

    Covers the cost, bound and ``coo()`` arrays (dtype and bytes), senses,
    rhs, column and row names, ``obj_const``, the registry's columns and
    rows in insertion order, its bound records family by family, and its
    meta without the case.  Two builds hash equal exactly when every solver
    sees the same model and every reader of the registry the same keys."""
    h = hashlib.sha256()

    def put(x):
        h.update(repr(x).encode())

    for a in (lp.cost, lp.lower, lp.upper, *lp.coo(),
              np.asarray(lp.senses, dtype=np.int8), lp.rhs_array()):
        put(str(a.dtype))
        h.update(a.tobytes())
    put((lp.var_names, lp.row_names, lp.obj_const))
    put((list(vmap.columns()), list(vmap.rows())))
    put([(family, [(key, float(v)) for key, v in recs])
         for family, recs in vmap.bound_records.items()])
    put({k: v for k, v in vmap.meta.items() if k != "case"})
    return h.hexdigest()
