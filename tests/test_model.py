"""Data-model tests: parsing, validation, serialization, scenario files."""

import dataclasses

import numpy as np
import pytest

from rtdispatch.forecast import load_history
from rtdispatch.formulation import build_lad, build_sced, build_slad_extensive
from rtdispatch.model import (
    CaseFormatError,
    Generator,
    Scenario,
    ScenarioSet,
    SystemState,
    ValidationError,
    check_scenarios,
    initial_state,
    parse_case,
    parse_timeseries,
    validate_case,
)

from conftest import case3_scenarios, make_case3, make_toy_case
from helpers import format_timeseries, serialize_case


# ---------------------------------------------------------------------------
# case round-trip


def test_case_round_trip_is_exact():
    for case in (make_toy_case(), make_case3()):
        text = serialize_case(case)
        back = parse_case(text)
        assert back == case
        assert serialize_case(back) == text


def test_parse_case_reports_field_paths():
    case = make_case3()
    import json

    raw = json.loads(serialize_case(case))
    del raw["generators"][1]["pmax"]
    with pytest.raises(CaseFormatError, match=r"generators\[1\].*pmax"):
        parse_case(json.dumps(raw))

    raw = json.loads(serialize_case(case))
    raw["penalties"]["shortage"] = "lots"
    with pytest.raises(CaseFormatError, match="penalties"):
        parse_case(json.dumps(raw))

    with pytest.raises(CaseFormatError):
        parse_case("not json {")


@pytest.mark.parametrize("path,value", [
    (("generators", 0, "segments", 0, "price"), "NaN"),
    (("generators", 1, "pmax"), "Infinity"),
    (("generators", 0, "reserve_caps", "reg"), "-Infinity"),
    (("branches", 0, "ptdf", "B2"), "1e400"),
    (("penalties", "shortage"), "NaN"),
    (("generators", 2, "pmin"), "1" + "0" * 400),  # no float holds it
], ids=["price-nan", "pmax-inf", "cap-minus-inf", "ptdf-1e400", "penalty-nan",
        "pmin-huge-int"])
def test_parse_case_rejects_non_finite_numbers(path, value):
    import json

    raw = json.loads(serialize_case(make_case3()))
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "@"
    text = json.dumps(raw).replace('"@"', value)
    with pytest.raises(CaseFormatError, match=r"expected a finite number"):
        parse_case(text)


def test_parse_case_rejects_dangling_references():
    import json

    raw = json.loads(serialize_case(make_case3()))
    raw["generators"][0]["bus"] = "B9"
    with pytest.raises((CaseFormatError, ValidationError), match="B9"):
        validate_case(parse_case(json.dumps(raw)))

    raw = json.loads(serialize_case(make_case3()))
    raw["generators"][1]["id"] = "G1"
    with pytest.raises((CaseFormatError, ValidationError), match="G1"):
        validate_case(parse_case(json.dumps(raw)))


def test_validate_collects_every_problem():
    bad = dataclasses.replace(
        make_toy_case(),
        generators=(
            dataclasses.replace(
                make_toy_case().generators[0], pmin=25.0, ramp_up=-1.0
            ),
            make_toy_case().generators[1],
        ),
    )
    with pytest.raises(ValidationError) as err:
        validate_case(bad)
    msg = str(err.value)
    assert "pmin" in msg and "ramp" in msg and "G1" in msg


def test_validate_checks_segment_widths_and_prices():
    g = dataclasses.replace(
        make_toy_case().generators[0], segments=((5.0, 120.0), (5.0, 100.0))
    )
    bad = dataclasses.replace(make_toy_case(), generators=(g, make_toy_case().generators[1]))
    with pytest.raises(ValidationError) as err:
        validate_case(bad)
    msg = str(err.value)
    assert "widths" in msg and "nondecreasing" in msg


def test_validate_checks_branches_and_penalties():
    case = make_case3()
    bad = dataclasses.replace(
        case,
        branches=(
            dataclasses.replace(case.branches[0], limit_lo=5.0, limit_hi=-5.0),
            dataclasses.replace(case.branches[1], ptdf={"B1": 1.5}),
        ),
    )
    with pytest.raises(ValidationError) as err:
        validate_case(bad)
    msg = str(err.value)
    assert "limit_lo" in msg and "ptdf" in msg


def test_validate_lists_every_fault_of_one_case():
    # one of each check, the id check through its own error, in one message
    case = make_case3()
    g1 = dataclasses.replace(
        case.generators[0], initial_output=70.0, no_load_cost=-1.0,
        segments=((55.0, 18.0), (-5.0, 26.0)),
        reserve_caps={"reg": -1.0}, reserve_prices={"spin": -2.0})
    bad = dataclasses.replace(
        case, step_minutes=0.0, buses=(), generators=(g1,) + case.generators[1:],
        branches=(dataclasses.replace(case.branches[0], violation_price=-3.0),),
        reserve_req=dataclasses.replace(case.reserve_req, rspin=-4.0),
        penalties=dataclasses.replace(case.penalties, op=-5.0))
    with pytest.raises(ValidationError) as err:
        validate_case(bad)
    assert str(err.value).split("; ") == [
        "generator 'G1' references unknown bus 'B1'",
        "step_minutes must be positive, got 0.0",
        "case has no buses",
        "generator 'G1': initial_output 70.0 outside [0, pmax]",
        "generator 'G1': no_load_cost must be nonnegative",
        "generator 'G1': segment[1] width -5.0 negative",
        "generator 'G1': reserve cap 'reg' negative",
        "generator 'G1': reserve price 'spin' negative",
        "branch 'E1': violation_price must be nonnegative",
        "reserve_req.rspin must be nonnegative",
        "penalties.op must be nonnegative",
    ]


def test_validated_case_indexes():
    vc = validate_case(make_case3())
    assert vc.gen_index["G2"] == 1
    assert vc.case.name == "case3"


def test_flag_profiles_clamp_to_last_value():
    g = Generator(
        id="X", bus="B1", pmin=0.0, pmax=10.0, initial_output=0.0,
        ramp_up=1.0, ramp_down=1.0, segments=((10.0, 50.0),),
        commit=(True, False),
    )
    assert g.committed(0) is True
    assert g.committed(1) is False
    assert g.committed(7) is False  # past the profile end: last value holds


def test_initial_state_uses_initial_output():
    st = initial_state(validate_case(make_case3()))
    assert st.prev_dispatch == {"G1": 30.0, "G2": 20.0, "G3": 15.0, "GI": 0.0}
    assert st.wall_clock == 0


# ---------------------------------------------------------------------------
# day / scenario files


def test_timeseries_round_trip():
    case = validate_case(make_case3())
    ss = case3_scenarios(seed=3, horizon=4, n=3)
    text = format_timeseries(ss)
    back = parse_timeseries(text, case)
    assert back.horizon == ss.horizon
    assert [s.id for s in back.scenarios] == [s.id for s in ss.scenarios]
    for a, b in zip(back.scenarios, ss.scenarios):
        assert a.prob == pytest.approx(b.prob, rel=1e-9)
        for bus in a.load:
            np.testing.assert_allclose(a.load[bus], b.load[bus], rtol=1e-9)
        for g in a.pmax_override:
            np.testing.assert_allclose(a.pmax_override[g], b.pmax_override[g], rtol=1e-9)


def test_deterministic_file_omits_scenario_columns():
    case = validate_case(make_toy_case())
    text = "period,load:B1\n1,10\n2,35\n"
    ss = parse_timeseries(text, case)
    assert ss.n_scenarios == 1
    assert ss.scenarios[0].prob == 1.0
    assert ss.scenarios[0].load["B1"] == (10.0, 35.0)
    assert "scenario" not in format_timeseries(ss).splitlines()[0]


def test_timeseries_rejects_bad_layout():
    case = validate_case(make_toy_case())
    with pytest.raises(CaseFormatError, match="period"):
        parse_timeseries("load:B1\n10\n", case)
    with pytest.raises(CaseFormatError, match="unknown bus"):
        parse_timeseries("period,load:B9\n1,10\n", case)
    with pytest.raises(CaseFormatError, match="unrecognized column"):
        parse_timeseries("period,load:B1,temp\n1,10,4\n", case)
    with pytest.raises(CaseFormatError, match="duplicate period"):
        parse_timeseries("period,load:B1\n1,10\n1,11\n", case)
    with pytest.raises(CaseFormatError, match="not 1..2"):
        parse_timeseries("period,load:B1\n1,10\n3,11\n", case)
    with pytest.raises(CaseFormatError, match="appear together"):
        parse_timeseries("period,scenario,load:B1\n1,a,10\n", case)
    with pytest.raises(CaseFormatError, match="no load column"):
        parse_timeseries("period,pmax:G1\n1,10\n", case)
    with pytest.raises(CaseFormatError, match="different numbers of periods"):
        parse_timeseries(
            "period,scenario,prob,load:B1\n1,a,0.5,10\n2,a,0.5,11\n1,b,0.5,10\n",
            case,
        )


def test_timeseries_comment_lines_are_skipped():
    case = validate_case(make_toy_case())
    text = "# schema_version=1\nperiod,load:B1\n1,10\n2,35\n"
    assert parse_timeseries(text, case).horizon == 2


# (parser, text, error pattern or None for a clean parse); day and history
# files are read against the toy case (bus B1, generators G1/G2)
READER_CASES = {
    "day-empty": ("day", "", r"^day file: empty$"),
    "day-only-comments": ("day", "# schema_version=1\n", r"^day file: empty$"),
    "history-empty": ("history", "", r"^history file: empty$"),
    "day-field-count": ("day", "period,load:B1\n1,10\n2,35,1\n",
                        r"^day file line 3: expected 2 fields$"),
    "history-field-count": ("history", "date,period,load:B1\nd1,1\n",
                            r"^history file line 2: expected 3 fields$"),
    "history-below-comments": ("history", "# a\n# b\ndate,period,load:B1\nd1,1,x\n",
                               r"^history file line 4: bad load:B1 value 'x'$"),
    "day-period": ("day", "period,load:B1\n1.5,10\n",
                   r"^day file line 2: bad period '1.5'$"),
    "history-period": ("history", "date,period,load:B1\nd1,1,10\nd1,two,11\n",
                       r"^history file line 3: bad period 'two'$"),
    "day-load": ("day", "period,load:B1\n1,ten\n",
                 r"^day file line 2: bad load:B1 value 'ten'$"),
    "history-load": ("history", "date,period,load:B1\nd1,1,-\n",
                     r"^history file line 2: bad load:B1 value '-'$"),
    "day-pmax": ("day", "period,load:B1,pmax:G1\n1,10,x\n",
                 r"^day file line 2: bad pmax:G1 value 'x'$"),
    "history-pmax": ("history", "date,period,load:B1,pmax:G1\nd1,1,10,\n",
                     r"^history file line 2: bad pmax:G1 value ''$"),
    "day-prob": ("day", "period,scenario,prob,load:B1\n1,a,half,10\n",
                 r"^day file line 2: bad prob"),
    "day-prob-disagrees": (
        "day",
        "period,scenario,prob,load:B1\n1,a,0.5,10\n2,a,0.4,11\n"
        "1,b,0.5,10\n2,b,0.5,11\n",
        r"^day file: scenario 'a' rows disagree on prob$",
    ),
    "history-comments": (
        "history", "# from the archive\ndate,period,load:B1\n# day one\nd1,1,10\n"
        "  # indented\nd1,2,11\n", None,
    ),
    "day-date-skipped": ("day", "date,period,load:B1\nx,1,10\ny,2,35\n", None),
    "history-scenario": ("history", "date,period,scenario,load:B1\nd1,1,a,10\n",
                         r"^history file: unrecognized column 'scenario'$"),
    "history-prob": ("history", "date,period,prob,load:B1\nd1,1,1,10\n",
                     r"^history file: unrecognized column 'prob'$"),
    "day-load-nan": ("day", "period,load:B1\n1,nan\n2,35\n",
                     r"^day file line 2: bad load:B1 value 'nan'$"),
    "history-load-inf": ("history", "date,period,load:B1\nd1,1,10\nd1,2,-inf\n",
                         r"^history file line 3: bad load:B1 value '-inf'$"),
    "day-pmax-overflow": ("day", "period,load:B1,pmax:G1\n1,10,1e400\n",
                          r"^day file line 2: bad pmax:G1 value '1e400'$"),
    "day-prob-nan": ("day", "period,scenario,prob,load:B1\n1,a,NaN,10\n",
                     r"^day file line 2: bad prob value 'NaN'$"),
}


@pytest.mark.parametrize("name", list(READER_CASES))
def test_day_and_history_reader_paths(name):
    kind, text, error = READER_CASES[name]
    case = validate_case(make_toy_case())
    if kind == "day":
        parse = lambda: parse_timeseries(text, case)
    else:
        parse = lambda: load_history(text, case)
    if error is not None:
        with pytest.raises(CaseFormatError, match=error):
            parse()
        return
    out = parse()
    if kind == "day":
        assert out.horizon == 2 and out.n_scenarios == 1
        assert out.scenarios[0].load == {"B1": (10.0, 35.0)}
    else:
        assert [d.date for d in out.days] == ["d1"]
        assert out.days[0].load == {"B1": (10.0, 11.0)}


def test_history_names_are_checked_against_the_case():
    text = "date,period,load:B7,pmax:G9\nd1,1,10,5\n"
    with pytest.raises(TypeError):
        load_history(text)  # there is no reading without a case
    with pytest.raises(CaseFormatError, match="unknown bus"):
        load_history(text, validate_case(make_case3()))
    with pytest.raises(CaseFormatError, match="unknown generator"):
        load_history("date,period,load:B1,pmax:G9\nd1,1,10,5\n",
                     validate_case(make_case3()))


def test_check_scenarios_probability_and_bounds():
    mk = lambda prob: ScenarioSet(
        scenarios=(
            Scenario(id="a", prob=prob, load={"B1": (1.0,)}),
            Scenario(id="b", prob=0.5, load={"B1": (1.0,)}),
        ),
        horizon=1,
    )
    check_scenarios(mk(0.5))
    with pytest.raises(ValidationError, match="sum"):
        check_scenarios(mk(0.4))
    zero = ScenarioSet(
        scenarios=(
            Scenario(id="a", prob=0.0, load={"B1": (1.0,)}),
            Scenario(id="b", prob=1.0, load={"B1": (1.0,)}),
        ),
        horizon=1,
    )
    with pytest.raises(ValidationError, match="nonpositive"):
        check_scenarios(zero)
    bad_len = ScenarioSet(
        scenarios=(Scenario(id="a", prob=1.0, load={"B1": (1.0,)}),), horizon=2
    )
    with pytest.raises(ValidationError, match="wrong length"):
        check_scenarios(bad_len)
    neg = ScenarioSet(
        scenarios=(Scenario(id="a", prob=1.0, load={"B1": (-1.0,)}),), horizon=1
    )
    with pytest.raises(ValidationError, match="negative load"):
        check_scenarios(neg)


def test_check_scenarios_override_against_pmin():
    case = validate_case(make_case3())
    ss = ScenarioSet(
        scenarios=(
            Scenario(
                id="a", prob=1.0,
                load={b: (30.0,) for b in case.case.buses},
                pmax_override={"G1": (4.0,)},  # below G1's pmin of 10
            ),
        ),
        horizon=1,
    )
    with pytest.raises(ValidationError, match="below pmin"):
        check_scenarios(ss, case)


def test_check_scenarios_rejects_an_unknown_generator():
    vc = validate_case(make_toy_case())
    ss = ScenarioSet(
        scenarios=(Scenario(id="day", prob=1.0, load={"B1": (10.0,)},
                            pmax_override={"GX": (5.0,)}),),
        horizon=1,
    )
    st = SystemState(prev_dispatch={"G1": 0.0, "G2": 0.0}, wall_clock=0)
    for check in (lambda: check_scenarios(ss, vc),
                  lambda: build_lad(vc, st, ss),
                  lambda: build_sced(vc, st, {"B1": 10.0}, pmax={"GX": 5.0}),
                  lambda: build_slad_extensive(vc, st, ss)):
        with pytest.raises(ValidationError,
                           match="scenario '.*' pmax override names unknown generator 'GX'"):
            check()


def test_check_scenarios_rejects_a_load_at_an_unknown_bus():
    # the builders read only the case's buses, so BX's 3 MW would go unserved
    vc = validate_case(make_toy_case())
    ss = ScenarioSet(
        scenarios=(Scenario(id="day", prob=1.0, load={"B1": (10.0,), "BX": (3.0,)}),),
        horizon=1,
    )
    st = SystemState(prev_dispatch={"G1": 0.0, "G2": 0.0}, wall_clock=0)
    for check in (lambda: check_scenarios(ss, vc),
                  lambda: build_lad(vc, st, ss),
                  lambda: build_slad_extensive(vc, st, ss)):
        with pytest.raises(ValidationError, match="scenario 'day' has load at unknown bus 'BX'"):
            check()


def test_check_scenarios_rejects_a_bus_without_load():
    vc = validate_case(make_case3())
    ss = ScenarioSet(
        scenarios=(Scenario(id="day", prob=1.0, load={"B1": (10.0,), "B3": (5.0,)}),),
        horizon=1,
    )
    with pytest.raises(ValidationError, match="scenario 'day' lacks load data for bus 'B2'"):
        check_scenarios(ss, vc)
    assert check_scenarios(ss) is ss  # without a case no bus is required


def test_build_sced_checks_its_demand_against_the_case():
    # BX's 3 MW would go unserved; a missing bus's load cannot be read
    vc = validate_case(make_case3())
    st = SystemState(prev_dispatch={g.id: 0.0 for g in vc.case.generators}, wall_clock=0)
    with pytest.raises(ValidationError, match="scenario 'now' has load at unknown bus 'BX'"):
        build_sced(vc, st, {"B1": 10.0, "B2": 0.0, "B3": 0.0, "BX": 3.0})
    with pytest.raises(ValidationError, match="scenario 'now' lacks load data for bus 'B2'"):
        build_sced(vc, st, {"B1": 10.0, "B3": 0.0})


def test_window_and_with_period_data():
    ss = case3_scenarios(seed=1, horizon=6, n=2)
    w = ss.window(2, 3)
    assert w.horizon == 3
    assert w.scenarios[0].load["B1"] == ss.scenarios[0].load["B1"][2:5]
    # truncation at the end of the horizon
    assert ss.window(4, 10).horizon == 2
    with pytest.raises(ValueError):
        ss.window(6, 1)

    upd = ss.with_period_data(0, {"B1": 99.0, "B2": 98.0, "B3": 97.0}, {"G3": 33.0})
    for s in upd.scenarios:
        assert s.load["B1"][0] == 99.0
        assert s.pmax_override["G3"][0] == 33.0
    # untouched periods survive
    assert upd.scenarios[1].load["B2"][3] == ss.scenarios[1].load["B2"][3]
