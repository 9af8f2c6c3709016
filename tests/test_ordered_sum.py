"""Sums that reach the outputs add left to right on every interpreter
(``model.ordered_sum``), so no output byte depends on whether the builtin
``sum`` compensates its rounding, as it does from Python 3.12 on."""

import ast
import importlib
import json
import pkgutil
import sys
from pathlib import Path

import pytest

import rtdispatch
from rtdispatch.formulation import build_lad
from rtdispatch.model import (
    initial_state,
    ordered_sum,
    parse_case,
    parse_timeseries,
    validate_case,
)

import test_benders
from helpers import compensated_sum

SRC = Path(rtdispatch.__file__).resolve().parent


@pytest.fixture
def compensated_builtin_sum(monkeypatch):
    """Every rtdispatch module adds through 3.12's compensated ``sum``."""
    for info in pkgutil.iter_modules(rtdispatch.__path__):
        module = importlib.import_module(f"rtdispatch.{info.name}")
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    monkeypatch.setattr(rtdispatch, "sum", compensated_sum, raising=False)


def test_the_emulated_sum_compensates_where_a_left_to_right_sum_does_not():
    parts = [1e16, 1.0, -1e16]
    assert ordered_sum(parts) == 0.0 and compensated_sum(parts) == 1.0
    # the interpreter's own sum compensates from 3.12 on
    assert sum(parts) == (compensated_sum(parts) if sys.version_info >= (3, 12) else 0.0)
    assert compensated_sum([0.1] * 10) == 1.0 != ordered_sum([0.1] * 10)
    assert compensated_sum([2, 3]) == 5 and type(compensated_sum([])) is int


def test_ordered_sum_adds_left_to_right_from_the_int_0():
    assert ordered_sum([]) == 0 and type(ordered_sum([])) is int
    assert ordered_sum(iter([0.1] * 10)) == 0.9999999999999999
    assert repr(ordered_sum([-0.0])) == "0.0"


def _large_rung_window_obj_const():
    import gen

    case, day, _history = gen.make_system(gen.RUNGS["large"], 3)
    vc = validate_case(parse_case(json.dumps(case)))  # templates cached per case
    actuals = parse_timeseries(gen.day_csv(day, gen.RUNGS["large"].periods), vc)
    return build_lad(vc, initial_state(vc), actuals.window(0, 6))[0].obj_const


def test_no_load_constant_is_the_same_under_a_compensated_sum(monkeypatch, request):
    # the large rung's seed-3 window 0-5 sums its no-load costs to a
    # constant whose last bit a compensated sum moves
    monkeypatch.syspath_prepend(str(SRC.parent.parent / "perfbench"))
    plain = _large_rung_window_obj_const()
    assert plain == 1439.6192686866211
    request.getfixturevalue("compensated_builtin_sum")
    assert _large_rung_window_obj_const() == plain


def test_flow_violations_at_the_limits_hold_under_a_compensated_sum(compensated_builtin_sum):
    # the check's reference loop adds numpy floats, which no sum compensates
    test_benders.test_flow_violations_agree_with_the_ptdf_loop_at_the_limits()


def test_only_the_simplex_finiteness_test_calls_the_builtin_sum():
    # its verdict (is the sum finite?) is the same on every interpreter
    calls = {path.name: sum(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                            and n.func.id == "sum" for n in ast.walk(ast.parse(path.read_text())))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: n for name, n in calls.items() if n} == {"lp.py": 1}
