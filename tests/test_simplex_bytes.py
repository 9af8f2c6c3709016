"""The reference simplex's bytes, pinned on the branches a rolling day
never takes.

A rolling bench day on the small rung makes bound flips, free-column
entries and mid-solve refactorizations, and ``tests/lp_capture.py`` pins
those through the solutions it hashes.  It never engages Bland's rule and
never ends a solve infeasible, unbounded or at the iteration limit.  Each
case below reaches one of those branches (or a warm start, or a seeded
bench-style model) and pins the sha256 of the solution's status,
iterations, ``repr(objective)``, x, duals, reduced costs and basis, so a
change to the pivot loop that moves any bit on any branch fails here.

The cases run in one child interpreter with the BLAS pools pinned to one
thread, as the bench runs them.  The simplex runs its LAPACK inverse on
one thread itself, so the cases that a threaded inverse rounded
differently also give the pinned bytes on two threads; and the full-row
reference kernels (``helpers.FullRowSimplex``) give them in this
process.  Regenerate after a deliberate change of the simplex's
arithmetic with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tests/test_simplex_bytes.py

and paste its output over ``PINNED``.
"""

import ast
import json
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "perfbench") not in sys.path:
    sys.path.append(str(ROOT / "perfbench"))

import gen  # noqa: E402
from rtdispatch import LPOptions, lp as lpmod  # noqa: E402
from rtdispatch.formulation import build_lad  # noqa: E402
from rtdispatch.lp import LinearProgram, extend_warm_start, solve_lp  # noqa: E402
from rtdispatch.model import (  # noqa: E402
    initial_state, parse_case, parse_timeseries, validate_case)

from helpers import FullRowSimplex, child_env, solution_digest as digest  # noqa: E402


# ---------------------------------------------------------------------------
# the models


def beale():
    """Beale's (1955) cycling example.  Plain Dantzig pricing cycles on it;
    the largest-pivot tie rule leaves it in two pivots, so
    ``degenerate_cone`` is the case that engages Bland's rule."""
    lp = LinearProgram()
    x = [lp.add_var(0.0, np.inf, cost=c) for c in (-0.75, 150.0, -0.02, 6.0)]
    lp.add_row(x, [0.25, -60.0, -0.04, 9.0], "<=", 0.0)
    lp.add_row(x, [0.5, -90.0, -0.02, 3.0], "<=", 0.0)
    lp.add_row([x[2]], [1.0], "<=", 1.0)
    return lp


def degenerate_cone(seed, n=50, m=100):
    """Many rows through the origin, all tight at the cold basis: a long run
    of degenerate pivots, so Bland's rule engages."""
    rng = np.random.default_rng(seed)
    lp = LinearProgram()
    cols = lp.add_vars(np.zeros(n), np.full(n, np.inf), -rng.uniform(0.5, 1.5, n)) + np.arange(n)
    for _ in range(m):
        lp.add_row(cols, rng.integers(-3, 4, n).astype(float), "<=", 0.0)
    lp.add_row(cols, np.ones(n), "<=", 1.0)
    return lp


def infeasible():
    """Rows no point satisfies, with basics starting both below and above
    their bounds, so phase 1 ends infeasible."""
    lp = LinearProgram()
    x = [lp.add_var(0.0, 20.0, cost=1.0), lp.add_var(-5.0, 20.0, cost=2.0),
         lp.add_var(-np.inf, np.inf, cost=0.5)]
    lp.add_row(x[:2], [1.0, 1.0], ">=", 10.0)
    lp.add_row(x[:2], [1.0, 1.0], "<=", 5.0)
    lp.add_row(x, [1.0, -1.0, 1.0], "=", 3.0)
    lp.add_row([x[2]], [1.0], ">=", 2.0)
    return lp


def unbounded():
    """Feasible after phase 1, with a ray along which phase 2 improves."""
    lp = LinearProgram()
    x = [lp.add_var(0.0, np.inf, cost=-1.0), lp.add_var(0.0, 4.0, cost=1.0),
         lp.add_var(-np.inf, np.inf, cost=0.0)]
    lp.add_row(x[:2], [1.0, -1.0], ">=", 2.0)
    lp.add_row([x[1], x[2]], [1.0, 1.0], "=", 1.0)
    lp.add_row(x, [1.0, -2.0, 1.0], ">=", -3.0)
    return lp


def random_lp(seed, n, m, density=0.3):
    """A random feasible LP with boxed, one-sided, free and fixed columns
    and rows of all three senses around a known point."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-10.0, 0.0, n)
    hi = lo + rng.uniform(0.0, 20.0, n)
    kind = rng.uniform(size=n)
    lo[kind < 0.1] = -np.inf
    hi[(kind >= 0.1) & (kind < 0.25)] = np.inf
    hi[(kind >= 0.25) & (kind < 0.3)] = lo[(kind >= 0.25) & (kind < 0.3)]
    point = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
    point = point + np.minimum(rng.uniform(0.0, 5.0, n), hi - point)
    lp = LinearProgram()
    cols = lp.add_vars(lo, hi, rng.uniform(-5.0, 15.0, n)) + np.arange(n)
    for i in range(m):
        mask = rng.uniform(size=n) < density
        mask[rng.integers(0, n)] = True
        vals = rng.uniform(-3.0, 3.0, n)[mask]
        act = float(vals @ point[mask])
        sense = ("<=", ">=", "=")[i % 3 if i % 7 else 2]
        rhs = act + {"<=": 1.0, ">=": -1.0, "=": 0.0}[sense] * rng.uniform(0.0, 4.0)
        lp.add_row(cols[mask], vals, sense, rhs)
    return lp


def bench_models(seed):
    """A look-ahead window mid-day and the full-day plan of ``gen``'s small
    rung at ``seed``: the two model shapes ``rolling-simplex`` solves most."""
    case, day, history = gen.make_system(gen.RUNGS["small"], seed)
    vc = validate_case(parse_case(json.dumps(case)))
    periods = gen.RUNGS["small"].periods
    actuals = parse_timeseries(gen.day_csv(day, periods), vc)
    state = initial_state(vc)
    window = build_lad(vc, state, actuals.window(5, 4))[0]
    plan = build_lad(vc, state, actuals)[0]
    return window, plan


def warm_with_rhs():
    """A warm start whose right-hand sides moved: phase 1 from the old basis."""
    lp = random_lp(11, 30, 24)
    sol = solve_lp(lp)
    moved = lp.rhs + np.where(np.arange(lp.n_rows) % 2, 1.5, -2.0)
    return solve_lp(lp.with_rhs(moved), warm=sol.basis)


def warm_with_rows():
    """A warm start after appending rows that cut off the old optimum."""
    lp = random_lp(12, 30, 24)
    sol = solve_lp(lp)
    cols = np.flatnonzero(np.isfinite(lp.lower))[:6]
    rows = [(cols, np.ones(cols.size), "<=", float(sol.x[cols].sum()) - 3.0),
            (cols[:3], np.array([1.0, -1.0, 2.0]), ">=", float(sol.x[cols[:3]] @ [1.0, -1.0, 2.0]) + 1.0)]
    ext = lp.with_rows(rows)
    return solve_lp(ext, warm=extend_warm_start(lp, sol, ext))


def warm_singular():
    """A warm basis of two parallel columns cannot be factored; the solve
    starts cold."""
    lp = LinearProgram()
    x = lp.add_vars(np.zeros(3), np.full(3, 10.0), np.array([-1.0, -2.0, 1.0])) + np.arange(3)
    lp.add_row(x, [1.0, 2.0, 1.0], "<=", 8.0)
    lp.add_row(x, [2.0, 4.0, -1.0], "<=", 9.0)
    vstat = np.array([lpmod.BASIC, lpmod.BASIC, lpmod.NB_LO, lpmod.NB_LO, lpmod.NB_LO],
                     dtype=np.int8)
    return solve_lp(lp, warm=(np.array([0, 1]), vstat))


CASES = {
    "beale": lambda: solve_lp(beale()),
    "degenerate_cone": lambda: solve_lp(degenerate_cone(0)),
    "infeasible": lambda: solve_lp(infeasible()),
    "unbounded": lambda: solve_lp(unbounded()),
    "iteration_limit_phase1": lambda: solve_lp(random_lp(21, 40, 30), LPOptions(max_iters=7)),
    "iteration_limit_phase2": lambda: solve_lp(random_lp(21, 40, 30), LPOptions(max_iters=70)),
    "over_150_pivots": lambda: solve_lp(random_lp(31, 160, 120, density=0.1)),
    "warm_with_rhs": warm_with_rhs,
    "warm_with_rows": warm_with_rows,
    "warm_singular": warm_singular,
    **{f"bench_{seed}_{which}": (lambda seed=seed, k=k: solve_lp(bench_models(seed)[k]))
       for seed in range(1, 11) for k, which in enumerate(("window", "plan"))},
}

PINNED = {
    'beale': ('optimal', 2, 'e3c52b69595ee9076ac2abceed25e005df4a34a66290f6c701b704a9a52a2eac'),
    'bench_10_plan': ('optimal', 427, '7e52895dbaecdfd3d3d797390b3735d20e17875680f66930a4761ec231ebb0d3'),
    'bench_10_window': ('optimal', 133, 'f797832f8dd4b8217d11248f5265835fab3548e2a48bae9dbccee24cddbb0042'),
    'bench_1_plan': ('optimal', 383, 'c75a472fc0975e20f8a9557c8d8c0611fbf036e4026be0b3b42e40f26ab46b23'),
    'bench_1_window': ('optimal', 127, '66c2d84d5e0722ec61a5b75e25b117743ebbee59503a7c1cbe4e99be31e901cb'),
    'bench_2_plan': ('optimal', 400, 'b8bc6468635294b9caec0ac614d4d4d03eedeb446c364257460a399243e73632'),
    'bench_2_window': ('optimal', 120, 'e75ee0d8ec45dfaf4e072cda406302ed0f9d561a4436e96b1dff04b65c017681'),
    'bench_3_plan': ('optimal', 295, 'c48bf149258dd612cbfe64062a7163e501f32257a322e00201c56022b690d332'),
    'bench_3_window': ('optimal', 100, '4cb5f5e89b14a97811aea193fd918c2ce5c54e82ec1c08ea65089b9fb11c2812'),
    'bench_4_plan': ('optimal', 386, '4b6a354c725e8e71f9fdca2bd75647917b373d6667b4f7eade39641c3d596a82'),
    'bench_4_window': ('optimal', 118, '4156dd76a0b3530c662425e32804ed333a98c540aa66938f4a7a8f6fe296f859'),
    'bench_5_plan': ('optimal', 395, '55d35fee508fbc72e3a826136ce6b831d725923c0662b4c0a24c72d2d6174d64'),
    'bench_5_window': ('optimal', 131, 'fba9e64e35934799ee2ac05972a29bb21fc7f5e4b59b8a5db89eefc2994432ef'),
    'bench_6_plan': ('optimal', 428, '9c6e04ce8c68e1063e3c10b2b8abdeb429952ec02967b2ca325960ebb9b88124'),
    'bench_6_window': ('optimal', 123, 'fcceb4560ca30909a0d4874ac59f44b48ed41481d2976a9b9f8d1f769a4d8674'),
    'bench_7_plan': ('optimal', 405, 'e497f05f54881f72ad6a40e3e4fa870e73a4bd2e90ef2f06924cedbe8f445cf8'),
    'bench_7_window': ('optimal', 127, '70b86652738f835e385b2db98df9affb59f725fb0b2299d4889cfe20ee148f51'),
    'bench_8_plan': ('optimal', 379, '643b0563a8dfde370b35ae3be3cd3bb9984f80ec806b82057ecf1b19a6072776'),
    'bench_8_window': ('optimal', 120, '4f0c11024bb51d76edee1fc0f79f470fa73660c11070beeb79ae4f20faa5f28a'),
    'bench_9_plan': ('optimal', 378, '8a0ccb39b5d14d94e2562115efec41c30fcfb86f3a0891babf14c74c35a4b18b'),
    'bench_9_window': ('optimal', 121, 'b2d5e3f468c818f08e4d5b83a99044222e7fe335c8701cafac3b6477d30cc439'),
    'degenerate_cone': ('optimal', 197, '6b1dbcbfcc93903f310e0de863564f616e41a3c6fdae59ce7fcf86036fa3db00'),
    'infeasible': ('infeasible', 3, 'e6e8aec78e82b76a314f3d2d1589c2404aa3e43b47533b94e67bec4d6bd2681d'),
    'iteration_limit_phase1': ('iteration_limit', 7, '623e16996ef21edee98fab1f1da70c19eba9282d47ba258f3137633d1186e3f8'),
    'iteration_limit_phase2': ('iteration_limit', 70, '9f69d23faecfc785ea1c18ce822728f212bdf6ef0c4b77492631e5503c36bbaa'),
    'over_150_pivots': ('optimal', 766, '628c0c9d764b575e65c2dddb987896037c34b3766be241d15a87e68e86043126'),
    'unbounded': ('unbounded', 2, '7d7a67201027857956927d35ba17f22b7abd37ca04110fe2ecd2d4484376708f'),
    'warm_singular': ('optimal', 1, '4034574b60adcf49be74bd68b17590dbac65dd4f18db46c3e2af40eb42786825'),
    'warm_with_rhs': ('optimal', 2, '63f2fac44951c42abda5707c6cdbe04e81a45334a6e1b40d23d5b40123724261'),
    'warm_with_rows': ('optimal', 15, '2c5840763b015d21f63c8367f2a8e406197d15dcfcbf7a60a61088e988a2b80b'),
}


@pytest.fixture(scope="module")
def solved():
    env = child_env()
    env.update({v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    out = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                         text=True, check=True, timeout=300).stdout
    return ast.literal_eval("{" + out + "}")


def test_every_case_is_pinned(solved):
    assert sorted(solved) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_simplex_solution_bytes_are_pinned(solved, name):
    assert solved[name] == PINNED[name]


def test_the_dense_basis_has_scipys_bytes_and_layout():
    # a refactorization inverts B; its bits follow B's bytes and layout
    rng = np.random.default_rng(4)
    lp = random_lp(41, 30, 20)
    signed = lp.with_rows([(np.arange(4), np.array([-0.0, 0.0, 2.5, -1.0]), "<=", 3.0)])
    simplex = lpmod._Simplex(signed, LPOptions())
    mixed = np.concatenate([np.arange(4), 4 + rng.permutation(signed.n_vars + signed.n_rows - 4)])
    # scipy's [A I], made from the slack form's own CSC arrays
    A = sp.csc_matrix((simplex.data, simplex.indices, simplex.indptr),
                      shape=(signed.n_rows, signed.n_vars + signed.n_rows))
    for basis in (simplex.basis, mixed[:signed.n_rows]):
        simplex.basis = basis
        ref, mine = A[:, basis].toarray(), simplex._basis_matrix()
        assert (mine.strides, mine.tobytes(order="A")) == (ref.strides, ref.tobytes(order="A"))


#: the cases whose bytes the host's BLAS thread count changed when the
#: refactorization's inverse ran on every thread
THREAD_SENSITIVE = ("bench_6_plan", "degenerate_cone", "over_150_pivots")


def test_two_blas_threads_give_the_pinned_bytes():
    # the inverse runs on one OpenBLAS thread whatever the host sets
    env = child_env()
    env.update({v: "2" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    out = subprocess.run([sys.executable, __file__, *THREAD_SENSITIVE], env=env,
                         capture_output=True, text=True, check=True, timeout=300).stdout
    assert ast.literal_eval("{" + out + "}") == {k: PINNED[k] for k in THREAD_SENSITIVE}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_the_full_row_kernels_give_the_pinned_bytes(name, monkeypatch):
    # whole-row inverse updates, a ratio test over every position and
    # rise/fall masks take the same pivots to the same bytes
    monkeypatch.setattr(lpmod, "_Simplex", FullRowSimplex)
    sol = CASES[name]()
    assert (sol.status, sol.iterations, digest(sol)) == PINNED[name]


def _two_kernels(m, seed):
    """The simplex of a random ``m``-row model and the full-row reference on
    the same model, each holding a copy of one random inverse with +-0.0
    entries."""
    rng = np.random.default_rng(seed)
    lp = random_lp(seed, 5, m)
    Binv = rng.normal(size=(m, m))
    Binv[rng.random((m, m)) < 0.6] = 0.0
    Binv[rng.random((m, m)) < 0.5] *= -1.0
    pair = lpmod._Simplex(lp, LPOptions()), FullRowSimplex(lp, LPOptions())
    for simplex in pair:
        simplex.Binv = Binv.copy()
    return rng, pair


@pytest.mark.parametrize("m", [7, 60, 200])
def test_a_block_update_moves_only_the_signs_of_zeros(m):
    rng, (simplex, ref) = _two_kernels(m, m)
    r = m // 2
    # row r is zero, of both signs, in most columns, and some whole columns
    # of the inverse are zeros there too
    zero_cols = rng.random(m) < 0.7
    zeros = np.where(rng.random(zero_cols.sum()) < 0.5, -0.0, 0.0)
    for a in (simplex.Binv, ref.Binv):
        a[r, zero_cols] = zeros
        a[r, 0] = 1.5
        a[:, 1] = -0.0
    w = rng.normal(size=m)
    w[rng.random(m) < 0.4] = 0.0
    w[r] = 1.7
    for kernel in (simplex, ref):
        kernel._update_inverse(r, w, w[r])
    block, full = simplex.Binv, ref.Binv
    # equal numbers; where the bits differ, the block update kept a -0.0
    # the whole-row update made 0.0
    assert np.array_equal(block, full)
    differ = block.view(np.int64) != full.view(np.int64)
    assert differ.any()
    assert (block[differ] == 0).all() and np.signbit(block[differ]).all()
    assert not np.signbit(full[differ]).any()
    # the products that read the inverse give the same bytes: they sum
    # into a zeroed output, so the sign of a zero term never shows
    for v in (rng.normal(size=m), np.where(rng.random(m) < 0.5, rng.normal(size=m), -0.0),
              np.eye(m)[1], np.eye(m)[r]):
        assert (v @ block).tobytes() == (v @ full).tobytes()
        assert (block @ v).tobytes() == (full @ v).tobytes()


def test_a_non_finite_w_updates_whole_rows():
    # 0 * inf is NaN, so the block update would skip entries the whole-row
    # update turns into NaN
    rng, (simplex, ref) = _two_kernels(9, 3)
    for a in (simplex.Binv, ref.Binv):
        a[4, ::2] = 0.0
    w = rng.normal(size=9)
    w[6], w[2] = np.inf, 0.0
    with np.errstate(invalid="ignore"):
        for kernel in (simplex, ref):
            kernel._update_inverse(4, w, w[4])
    assert np.isnan(simplex.Binv[6]).any()
    assert simplex.Binv.tobytes() == ref.Binv.tobytes()


def _tied_ratio_test(kernel, streak, phase1):
    """The ratio test of ``kernel`` on a four-row basis where rows 1 and 2
    tie at step 1: row 1's basic has the smaller index, row 2's the larger
    pivot.  Row 0 does not move (|w| <= 1e-10) and would block at 0; row 3
    blocks later."""
    lp = LinearProgram()
    x = lp.add_vars(np.zeros(6), np.full(6, np.inf), np.ones(6)) + np.arange(6)
    for i in range(4):
        lp.add_row(x, np.ones(6), "<=", 10.0 + i)
    simplex = kernel(lp, LPOptions())
    simplex.basis = np.array([9, 2, 8, 5])
    simplex.xB = np.array([0.0, 1.0, 2.0, 3.0])
    simplex.loB, simplex.hiB = np.zeros(4), np.full(4, np.inf)
    simplex._degen_streak = streak
    w = np.array([1e-12, 1.0, 2.0, 1.0])
    below = above = None
    if phase1:
        # row 3 sits above its upper bound: moving down it blocks only on
        # re-entering at 2, after the tie
        simplex.hiB = np.array([np.inf, np.inf, np.inf, 1.0])
        simplex.xB[3] = 4.0
        below, above = np.zeros(4, dtype=bool), np.array([False, False, False, True])
    return simplex._ratio_test(1, 1, w, below, above)


@pytest.mark.parametrize("phase1", [False, True])
@pytest.mark.parametrize("streak,row", [(0, 2), (lpmod.DEGEN_STREAK, 1)])
def test_a_tie_goes_to_the_larger_pivot_or_under_blands_rule_the_smaller_index(
        streak, row, phase1):
    got = _tied_ratio_test(lpmod._Simplex, streak, phase1)
    assert got == _tied_ratio_test(FullRowSimplex, streak, phase1)
    assert got == (1.0, "pivot", row, lpmod.NB_LO)


def free_columns(seed, n=24, m=16):
    """A model with free columns, each held in [-5, 5] by two rows, so they
    start nonbasic free and enter the basis as the solve goes."""
    rng = np.random.default_rng(seed)
    free = np.arange(n) % 3 == 0
    lp = LinearProgram()
    x = lp.add_vars(np.where(free, -np.inf, 0.0), np.where(free, np.inf, 10.0),
                    rng.uniform(-5.0, 5.0, n)) + np.arange(n)
    for _ in range(m):
        cols = np.flatnonzero(rng.random(n) < 0.4)
        lp.add_row(x[cols], rng.uniform(-3.0, 3.0, cols.size), rng.choice(["<=", ">="]),
                   rng.uniform(-5.0, 5.0))
    for j in np.flatnonzero(free):
        lp.add_row([j], [1.0], "<=", 5.0)
        lp.add_row([j], [1.0], ">=", -5.0)
    return lp


@pytest.mark.parametrize("seed", range(4))
def test_a_pivot_keeps_the_state_a_refresh_would_compute(seed, monkeypatch):
    # the per-position state a pivot or a bound flip updates in place is
    # what a refactorization would recompute from the basis and statuses
    entered_free = []
    apply = lpmod._Simplex._apply_pivot

    def checked(self, j, *args):
        was_free = self.vstat[j] == lpmod.NB_FREE
        done = apply(self, j, *args)
        vs = self.vstat
        if done and vs[j] == lpmod.BASIC:
            entered_free.append(was_free)
        assert self.dir.tolist() == np.subtract(vs == lpmod.NB_LO, vs == lpmod.NB_UP,
                                                dtype=np.float64).tolist()
        assert self.free.tolist() == np.flatnonzero(vs == lpmod.NB_FREE).tolist()
        for name, values in (("loB", self.lo), ("hiB", self.hi), ("cB", self.c)):
            assert getattr(self, name).tobytes() == values[self.basis].tobytes(), name
        return done

    monkeypatch.setattr(lpmod._Simplex, "_apply_pivot", checked)
    sol = solve_lp(free_columns(seed))
    assert sol.status == lpmod.OPTIMAL
    assert any(entered_free) and not all(entered_free)


def test_the_old_inverse_is_released_before_a_refactorization(monkeypatch):
    # the previous inverse is unreachable while the next one is made, so
    # two never coexist; over_150_pivots refactorizes mid-solve
    before = []
    refactor, inverse = lpmod._Simplex._try_refactor, np.linalg.inv

    def tracked(self):
        held = getattr(self, "Binv", None)
        before.append(None if held is None else weakref.ref(held))
        del held
        return refactor(self)

    released = []

    def checked(B):
        released.append(before[-1] is None or before[-1]() is None)
        return inverse(B)

    monkeypatch.setattr(lpmod._Simplex, "_try_refactor", tracked)
    monkeypatch.setattr(np.linalg, "inv", checked)
    sol = CASES["over_150_pivots"]()
    assert sol.status == lpmod.OPTIMAL
    assert len(released) >= 5 and all(released)
    assert sum(ref is not None for ref in before) == len(released)


if __name__ == "__main__":
    for name in sorted(sys.argv[1:] or CASES):
        sol = CASES[name]()
        print(f"    {name!r}: ({sol.status!r}, {sol.iterations}, {digest(sol)!r}),")
