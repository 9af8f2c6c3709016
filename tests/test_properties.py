"""Generated dispatch models: the two LP backends agree, and both pass KKT;
the simplex's pivot kernels give the bytes of their full-row reference.

Hypothesis draws small cases (at most 3 buses, 4 generators and one
monitored flowgate) with a two-scenario, three-period day whose first
period every scenario shares.  Runs are derandomized and keep no example
database, so every run draws the same cases.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtdispatch.formulation import build_lad, build_slad_extensive
from rtdispatch.lp import OPTIMAL, LPOptions, solve_lp, verify_kkt
from rtdispatch.model import (
    RESERVE_PRODUCTS,
    Branch,
    Generator,
    PenaltyPrices,
    ReserveRequirements,
    Scenario,
    ScenarioSet,
    SystemCase,
    initial_state,
    validate_case,
)

from helpers import FullRowSimplex, solution_digest

# On a failure the hypothesis plugin imports libcst to suggest a patch, and
# some installed versions of its dependencies warn on import; the suite's
# warnings-as-errors would turn that report into a pytest internal error.
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

HORIZON = 3
BACKENDS = (LPOptions(), LPOptions(backend="highs"))


@st.composite
def generators(draw, i, buses):
    pmin = draw(st.integers(0, 20))
    span = draw(st.integers(1, 60))
    split = draw(st.integers(0, span))
    price = draw(st.integers(5, 60))
    widths_prices = ((split, price), (span - split, price + draw(st.integers(0, 40))))
    return Generator(
        id=f"G{i + 1}", bus=draw(st.sampled_from(buses)), pmin=float(pmin),
        pmax=float(pmin + span), initial_output=float(pmin + draw(st.integers(0, span))),
        ramp_up=float(draw(st.integers(1, 10))), ramp_down=float(draw(st.integers(1, 10))),
        segments=tuple((float(w), float(p)) for w, p in widths_prices if w > 0),
        no_load_cost=float(draw(st.integers(0, 50))),
        reserve_caps={p: float(draw(st.integers(0, 10))) for p in RESERVE_PRODUCTS},
        reserve_prices={p: float(draw(st.integers(0, 10))) for p in RESERVE_PRODUCTS},
    )


@st.composite
def dispatch_days(draw):
    """A validated case and a two-scenario day on it."""
    buses = tuple(f"B{i + 1}" for i in range(draw(st.integers(1, 3))))
    limit = float(draw(st.integers(5, 60)))
    case = SystemCase(
        name="drawn",
        buses=buses,
        generators=tuple(draw(generators(i, buses)) for i in range(draw(st.integers(1, 4)))),
        branches=(Branch(id="E1", ptdf={b: draw(st.integers(-5, 5)) / 10 for b in buses},
                         limit_lo=-limit, limit_hi=limit,
                         violation_price=float(draw(st.integers(100, 2000)))),),
        reserve_req=ReserveRequirements(*(float(draw(st.integers(0, 10))) for _ in range(3))),
        penalties=PenaltyPrices(shortage=12000.0, surplus=12000.0, reg=55000.0,
                                rspin=52500.0, op=50000.0),
    )
    now = {b: float(draw(st.integers(0, 60))) for b in buses}
    prob = draw(st.integers(1, 9)) / 10
    scenarios = tuple(
        Scenario(id=f"s{k + 1}", prob=p, load={
            b: (now[b],) + tuple(float(draw(st.integers(0, 80))) for _ in range(HORIZON - 1))
            for b in buses})
        for k, p in enumerate((prob, 1.0 - prob)))
    return validate_case(case), ScenarioSet(scenarios=scenarios, horizon=HORIZON)


def _solved_on_both_backends(lp):
    sols = [solve_lp(lp, opts) for opts in BACKENDS]
    for opts, sol in zip(BACKENDS, sols):
        assert sol.status == OPTIMAL, (opts.backend, sol.status)
        rep = verify_kkt(lp, sol)
        assert rep.passed, (opts.backend, rep)
    simplex, highs = (sol.objective for sol in sols)
    assert abs(simplex - highs) <= 1e-6 * max(1.0, abs(highs)), (simplex, highs)


def _built(build, day):
    vc, scen = day
    state = initial_state(vc)
    if build == "lad":
        return build_lad(vc, state, scen.alone(0))[0]
    return build_slad_extensive(vc, state, scen)[0]


@pytest.mark.parametrize("build", ["lad", "slad_extensive"])
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(day=dispatch_days())
def test_both_backends_agree_and_pass_kkt(build, day):
    _solved_on_both_backends(_built(build, day))


@pytest.mark.parametrize("build", ["lad", "slad_extensive"])
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(day=dispatch_days())
def test_the_pivot_kernels_give_their_full_row_references_bytes(build, day):
    # block updates of the inverse, a ratio test on the moving rows and a
    # direction vector in pricing: the same pivots and solution bytes as
    # whole-row updates, a pass over every position and rise/fall masks
    lp = _built(build, day)
    ref = FullRowSimplex(lp, LPOptions()).solve()
    assert solution_digest(solve_lp(lp)) == solution_digest(ref)
