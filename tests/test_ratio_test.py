"""The simplex's ratio test, which steps over the moving rows in Python
floats, against the numpy array kernel it replaced
(``helpers.array_ratio_test``): the same step bits, kind, row and side on
drawn states and on named edge cases; and the inverse update's finiteness
guard.

Hypothesis runs are derandomized and keep no example database, so every
run draws the same states.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtdispatch import lp as lpmod
from rtdispatch.lp import DEGEN_STREAK, NB_FREE, NB_LO, NB_UP

from helpers import FullRowSimplex, array_ratio_test

pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

TINY = 1e-10  # a row moves when |w| exceeds this
INF = float("inf")
#: w entries at and around the moving threshold, of both signs, zeros of
#: both signs, non-finite ones, and a few that tie in magnitude
W_SPECIAL = (0.0, -0.0, TINY, -TINY, float(np.nextafter(TINY, 1.0)),
             -float(np.nextafter(TINY, 1.0)), 1e-11, INF, -INF, float("nan"), 1.0, -1.0,
             2.0, -2.0, 2.0 * (1.0 - 5e-10), 0.5, 3e300, -3e300, 1e-300)
#: basic values and lower bounds: small integers tie often, and 1e300
#: overflows a step
X_SPECIAL = (0.0, -0.0, 1.0, -1.0, 2.0, 3.0, 1e-9, -1e-9, 1e300)


def both(state, j, sigma, w, below=None, above=None):
    """The float kernel's (repr(t), kind, row, side), checked against the
    array kernel's; its step is a Python float."""
    t, *rest = lpmod._Simplex._ratio_test(state, j, sigma, w, below, above)
    assert type(t) is float
    with np.errstate(all="ignore"):
        ref, *ref_rest = array_ratio_test(state, j, sigma, w, below, above)
    assert (repr(t), *rest) == (repr(float(ref)), *ref_rest)
    return (repr(t), *rest)


def simplex_state(xB, loB, hiB, basis=None, streak=0, span=INF, entering=NB_LO):
    """What the ratio test reads of a simplex: the basic values and bounds,
    the basis, the degenerate streak, and the entering column's bounds
    (column ``m``, [0, span]) and status."""
    m = len(xB)
    vstat = np.full(m + 1, lpmod.BASIC, dtype=np.int8)
    vstat[m] = entering
    return SimpleNamespace(
        m=m, xB=np.array(xB, dtype=np.float64), loB=np.array(loB, dtype=np.float64),
        hiB=np.array(hiB, dtype=np.float64),
        basis=np.array(range(m) if basis is None else basis, dtype=np.int64),
        lo=np.zeros(m + 1), hi=np.full(m + 1, float(span)), vstat=vstat,
        _degen_streak=streak)


floats = st.one_of(st.sampled_from(X_SPECIAL), st.integers(-4, 4).map(float),
                   st.floats(-1e3, 1e3))


@st.composite
def states(draw):
    m = draw(st.integers(0, 9))
    w = np.array(draw(st.lists(st.one_of(st.sampled_from(W_SPECIAL),
                                         st.floats(-1e3, 1e3)), min_size=m, max_size=m)))
    lo = np.array(draw(st.lists(st.one_of(floats, st.just(-INF)), min_size=m, max_size=m)))
    span = np.array(draw(st.lists(st.sampled_from((0.0, 1.0, 2.0, 0.5, INF)),
                                  min_size=m, max_size=m)))
    with np.errstate(invalid="ignore"):
        hi = lo + span  # -inf + inf: a NaN bound, which never blocks
    mode = draw(st.sampled_from(("inside", "drift", "phase1", "any")))
    if mode in ("inside", "drift"):
        # phase 2: inside the bounds, or past one by less than the tolerance
        x = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
        x = x + np.array(draw(st.lists(st.sampled_from((0.0, -0.0, 0.5, 1.0)),
                                       min_size=m, max_size=m)))
        if mode == "drift":
            x = x + np.array(draw(st.lists(st.sampled_from((0.0, -5e-9, 5e-9)),
                                           min_size=m, max_size=m)))
        below = above = None
    else:
        x = np.array(draw(st.lists(floats, min_size=m, max_size=m)))
        if mode == "phase1":
            below, above = x < lo - lpmod.FEAS_TOL, x > hi + lpmod.FEAS_TOL
        else:
            # any statuses, both at once included (a row whose bounds cross)
            below = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
            above = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    # a zero value or bound of either sign: a gap of -0.0 - 0.0 is -0.0
    signs = st.lists(st.sampled_from((0.0, -0.0)), min_size=m, max_size=m)
    x = np.where(x == 0.0, np.array(draw(signs)), x)
    lo = np.where(lo == 0.0, np.array(draw(signs)), lo)
    basis = draw(st.permutations(range(m + 4)))[:m]
    state = simplex_state(
        x, lo, hi, basis=basis,
        streak=draw(st.sampled_from((0, DEGEN_STREAK - 1, DEGEN_STREAK, DEGEN_STREAK + 3))),
        span=draw(st.sampled_from((0.0, 0.5, 1.0, 2.0, 1e-9, INF))),
        entering=draw(st.sampled_from((NB_LO, NB_UP, NB_FREE))))
    return state, draw(st.sampled_from((1, -1))), w, below, above


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(states())
def test_the_float_ratio_test_gives_the_array_kernels_answer(drawn):
    state, sigma, w, below, above = drawn
    both(state, state.m, sigma, w, below, above)


def test_a_negative_zero_gap_gives_a_positive_zero_step():
    # -0.0 - 0.0 is -0.0; the clamp makes it 0.0, as np.maximum does
    state = simplex_state([-0.0, 5.0], [0.0, 0.0], [INF, INF])
    assert both(state, 2, 1, np.array([1.0, 1.0])) == ("0.0", "pivot", 0, NB_LO)
    assert both(state, 2, -1, np.array([-1.0, 1.0])) == ("0.0", "pivot", 0, NB_LO)


def test_a_basic_at_its_bound_blocks_at_once():
    state = simplex_state([1.0, 3.0, 2.0], [0.0, 0.0, 0.0], [1.0, 9.0, 9.0])
    assert both(state, 3, 1, np.array([-2.0, 1.0, 0.5])) == ("0.0", "pivot", 0, NB_UP)


def test_a_basic_past_its_bound_by_drift_blocks_at_once():
    state = simplex_state([-5e-9, 3.0], [0.0, 0.0], [1.0, 9.0])
    assert both(state, 2, 1, np.array([1.0, 1.0])) == ("0.0", "pivot", 0, NB_LO)


@pytest.mark.parametrize("entering,span,expected", [
    (NB_LO, 2.5, ("2.5", "flip", -1, 0)),
    (NB_UP, 2.5, ("2.5", "flip", -1, 0)),
    (NB_LO, INF, ("inf", "unbounded", -1, 0)),
    (NB_FREE, 2.5, ("inf", "unbounded", -1, 0)),
])
def test_with_no_moving_row_the_entering_column_flips_or_runs_away(entering, span, expected):
    # every |w| is at most 1e-10, or NaN, so no basic blocks
    state = simplex_state([0.0, 0.0, 0.0, 0.0], [0.0] * 4, [1.0] * 4, span=span,
                          entering=entering)
    w = np.array([TINY, -TINY, -0.0, np.nan])
    assert both(state, 4, 1, w) == expected


def test_a_flip_wins_a_tie_with_a_blocking_row():
    state = simplex_state([1.0], [0.0], [INF], span=1.0)
    assert both(state, 1, 1, np.array([1.0])) == ("1.0", "flip", -1, 0)


@pytest.mark.parametrize("streak,row", [(0, 1), (DEGEN_STREAK, 2)])
def test_ties_go_to_the_larger_pivots_then_the_smaller_index(streak, row):
    # rows 0, 1 and 2 tie at step 1.0; rows 0 and 1 pivot within 1e-9 of
    # each other and row 1's basic has the smaller index; under Bland's
    # rule row 2's, smaller still, wins
    state = simplex_state([2.0, 2.0 * (1.0 - 5e-10), 1.0, 5.0], [0.0] * 4, [INF] * 4,
                          basis=[7, 4, 1, 0], streak=streak)
    w = np.array([2.0, 2.0 * (1.0 - 5e-10), 1.0, 1.0])
    t, kind, got, side = both(state, 4, 1, w)
    assert (kind, got, side) == ("pivot", row, NB_LO)


def test_a_step_at_the_tie_cut_ties():
    # the cut is rmin + 1e-12 * (1 + rmin): 1e-12 here, which row 1's step
    # equals exactly; its larger pivot then wins
    state = simplex_state([0.0, 2e-12], [0.0, 0.0], [INF, INF])
    assert both(state, 2, 1, np.array([1.0, 2.0])) == ("0.0", "pivot", 1, NB_LO)


def test_phase_one_rows_outside_their_bounds_block_where_they_reenter():
    # row 0 is below its bounds and rises back in at step 2; row 1 is above
    # and falls further, so it never blocks; row 2 crosses its own bounds
    state = simplex_state([-2.0, 9.0, 0.0, 50.0], [0.0, 0.0, 5.0, 0.0],
                          [1.0, 1.0, 1.0, 100.0])
    below, above = np.array([True, False, True, False]), np.array([False, True, True, False])
    w = np.array([-1.0, -1.0, 1.0, 10.0])
    assert both(state, 4, 1, w, below, above) == ("2.0", "pivot", 0, NB_LO)


class BlockOnly(lpmod._Simplex):
    """The block update without its guard."""

    def _update_inverse(self, r, w, piv):
        Br = self.Binv[r] / piv
        rows, cols = w.nonzero()[0], Br.nonzero()[0]
        self.Binv[rows[:, None], cols] -= np.multiply.outer(w[rows], Br[cols])
        self.Binv[r] = Br


@pytest.mark.parametrize("bad", [np.nan, np.inf, "overflow"])
def test_a_non_finite_or_overflowing_w_sum_updates_whole_rows(bad):
    # the guard sums w's nonzeros: a NaN, an infinity or finite entries
    # whose sum overflows send the pivot to the whole-row update, whose
    # bytes are FullRowSimplex's
    rng = np.random.default_rng(11)
    m, r = 8, 3
    Binv = rng.normal(size=(m, m))
    Binv[:, ::2] = -0.0  # the whole-row update turns some of these to 0.0
    w = rng.normal(size=m)
    w[1], w[0] = 0.0, -0.5  # a negative w turns some -0.0 into 0.0 there
    if bad == "overflow":
        w[5] = w[6] = 1.7e308
    else:
        w[5] = bad
    pair = []
    for kernel in (lpmod._Simplex, FullRowSimplex, BlockOnly):
        simplex = object.__new__(kernel)
        simplex.Binv = Binv.copy()
        with np.errstate(all="ignore"):
            simplex._update_inverse(r, w, w[r])
        pair.append(simplex.Binv)
    assert pair[0].tobytes() == pair[1].tobytes() != pair[2].tobytes()

