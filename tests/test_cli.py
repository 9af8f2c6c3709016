"""End-to-end command-line checks driven through main()."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from rtdispatch.cli import SCHEMA_VERSION, main
from rtdispatch.simulator import STEP_COLUMNS

from conftest import make_toy_case, make_toy_day, make_toy_scenarios
from helpers import DATA, child_env, format_timeseries, serialize_case


@pytest.fixture
def files(tmp_path):
    case = tmp_path / "toy.json"
    case.write_text(serialize_case(make_toy_case()))
    day = tmp_path / "day.csv"
    day.write_text(format_timeseries(make_toy_day()))
    scen = tmp_path / "scenarios.csv"
    scen.write_text(format_timeseries(make_toy_scenarios()))
    return {"case": str(case), "day": str(day), "scenarios": str(scen),
            "dir": tmp_path}


def _solve_args(files, *extra):
    return ["solve", "--case", files["case"],
            "--scenarios", files["scenarios"], *extra]


# ---------------------------------------------------------------------------
# solve


def test_solve_hedged_decision(files, capsys):
    rc = main(_solve_args(files, "--policy", "slad"))
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["objective"] == pytest.approx(630.0, abs=1e-5)
    assert doc["benders_iterations"] == 3
    assert doc["first_stage"]["pg"]["G1"] == pytest.approx(3.0, abs=1e-6)
    assert doc["first_stage"]["pg"]["G2"] == pytest.approx(7.0, abs=1e-6)


def test_solve_trace(files, capsys):
    rc = main(_solve_args(files, "--policy", "slad", "--trace"))
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["trace_columns"] == ["iteration", "lower", "upper", "gap",
                                    "cuts_added"]
    cuts = [row[4] for row in doc["trace"]]
    assert cuts == [2, 1, 0]
    last = doc["trace"][-1]
    assert last[1] == pytest.approx(last[2], abs=1e-5)    # lower meets upper


def test_solve_trace_timings_split_master_from_oracles(files, capsys):
    rc = main(_solve_args(files, "--policy", "slad", "--trace", "--timings"))
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["trace_columns"][5:] == ["wall_ms", "master_ms", "oracle_ms"]
    for row in doc["trace"]:
        wall, master, oracle = row[5:]
        assert master > 0.0 and oracle > 0.0 and master + oracle <= wall


def test_solve_point_forecast(files, capsys):
    rc = main(_solve_args(files, "--policy", "lad"))
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["objective"] == pytest.approx(590.0, abs=1e-6)
    assert doc["benders_iterations"] == 0
    assert doc["first_stage"]["pg"] == {
        "G1": pytest.approx(7.0, abs=1e-6),
        "G2": pytest.approx(3.0, abs=1e-6),
    }


def test_solve_demand_snapshot(files, capsys):
    rc = main(["solve", "--case", files["case"], "--policy", "sced",
               "--demand", "B1=10"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["objective"] == pytest.approx(100.0, abs=1e-6)
    assert doc["first_stage"]["pg"]["G1"] == pytest.approx(10.0, abs=1e-6)
    assert doc["benders_iterations"] == 0


def test_solve_demand_is_a_one_period_day(files, tmp_path, capsys):
    one = tmp_path / "one.csv"
    one.write_text("period,load:B1\n1,10\n")
    base = ["solve", "--case", files["case"], "--policy", "sced"]
    assert main([*base, "--demand", "B1=10"]) == 0
    from_demand = capsys.readouterr().out
    assert main([*base, "--scenarios", str(one)]) == 0
    assert capsys.readouterr().out == from_demand


@pytest.mark.parametrize("kind", ["sced", "lad", "slad", "plad"])
def test_solve_rejects_scenarios_that_disagree_now(files, tmp_path, capsys, kind):
    split = tmp_path / "split.csv"
    split.write_text("period,scenario,prob,load:B1\n"
                     "1,lo,0.5,10\n2,lo,0.5,29\n1,hi,0.5,12\n2,hi,0.5,37\n")
    rc = main(["solve", "--case", files["case"], "--scenarios", str(split),
               "--policy", kind])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "scenario 'hi'" in captured.err


def test_solve_demand_validation(files, capsys):
    # the one-shot path is single-period only
    rc = main(["solve", "--case", files["case"], "--demand", "B1=10"])
    assert rc == 1
    # unknown bus and missing bus both name the problem
    rc = main(["solve", "--case", files["case"], "--policy", "sced",
               "--demand", "B9=10"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "B9" in err
    # a bus given twice is named, not overwritten
    rc = main(["solve", "--case", files["case"], "--policy", "sced",
               "--demand", "B1=10,B1=20"])
    assert rc == 1
    assert "bus 'B1' is assigned twice" in capsys.readouterr().err


def test_solve_csv_output(files, tmp_path):
    out = tmp_path / "decision.csv"
    rc = main(_solve_args(files, "--policy", "slad",
                          "--format", "csv", "--out", str(out)))
    assert rc == 0
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == f"# schema_version={SCHEMA_VERSION}"
    assert "# objective=630" in text
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "product,generator,mw"
    assert body[1] == "pg,G1,3"
    assert body[2] == "pg,G2,7"


def test_outputs_are_byte_identical(files, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        rc = main(_solve_args(files, "--policy", "slad", "--out", str(p)))
        assert rc == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_solve_iteration_limit_exit_code(files, capsys):
    rc = main(_solve_args(files, "--policy", "slad", "--max-iter", "1"))
    assert rc == 3
    assert "iteration" in capsys.readouterr().err


def test_solve_error_exit_codes(files, tmp_path, capsys):
    # missing file
    rc = main(["solve", "--case", str(tmp_path / "nope.json"),
               "--scenarios", files["scenarios"]])
    assert rc == 1
    # malformed case document
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    rc = main(["solve", "--case", str(bad), "--scenarios", files["scenarios"]])
    assert rc == 1
    # whole-day benchmark is not a single decision
    rc = main(_solve_args(files, "--policy", "pd"))
    assert rc == 1
    # no scenario window at all
    rc = main(["solve", "--case", files["case"]])
    assert rc == 1
    capsys.readouterr()


def _nan_day(files):
    path = files["dir"] / "nan_day.csv"
    path.write_text("period,load:B1\n1,nan\n2,35\n")
    return str(path)


def _nan_price_case(files):
    raw = json.loads(Path(files["case"]).read_text())
    raw["generators"][0]["segments"][0]["price"] = float("nan")  # dumped as NaN
    path = files["dir"] / "nan_price.json"
    path.write_text(json.dumps(raw))
    return str(path)


def _summary(**values):
    summary = {"case": "c", "policy": "sced", "periods": 2, "total_cost": 10.0, **values}
    return json.dumps({"summary": summary, "columns": [], "steps": []})


#: report inputs that are not simulate outputs, by test name
_MALFORMED_REPORTS = {"number": "5", "summary-not-an-object": '{"summary": 1, "steps": []}',
                      "not-json": "not json",
                      "total-cost-string": _summary(total_cost="x"),
                      "total-cost-bool": _summary(total_cost=True),
                      "total-cost-nan": _summary(total_cost=float("nan")),
                      "periods-float": _summary(periods=2.0),
                      "periods-bool": _summary(periods=True),
                      "case-not-a-string": _summary(case=["c"])}


def _not_utf8_case(files):
    path = files["dir"] / "not_utf8.json"
    path.write_bytes(bytes([0xFF, 0xFE, 0x00, 0x62, 0x61, 0x64]))
    return str(path)


def _report_input(files, text):
    path = files["dir"] / "malformed.json"
    path.write_text(text)
    return str(path)


def _toy_history(files):
    path = files["dir"] / "history.csv"
    path.write_text("date,period,load:B1\nd1,1,10\nd1,2,35\n")
    return str(path)


BAD_CALLS = {
    "max-iter-0": lambda f: _solve_args(f, "--policy", "slad", "--max-iter", "0"),
    "max-iter-negative": lambda f: [
        "simulate", "--case", f["case"], "--actuals", f["day"],
        "--scenarios", f["scenarios"], "--policy", "slad", "--max-iter", "-1"],
    "workers-0": lambda f: _solve_args(f, "--workers", "0", "--backend", "highs"),
    "workers-negative": lambda f: _solve_args(f, "--policy", "slad", "--workers", "-3"),
    **{f"demand-{v}": (lambda f, v=v: ["solve", "--case", f["case"], "--policy", "sced",
                                        "--demand", f"B1={v}"])
       for v in ("nan", "inf", "abc")},
    "demand-bus-twice": lambda f: ["solve", "--case", f["case"], "--policy", "sced",
                                   "--demand", "B1=10,B1=20"],
    **{f"epsilon-{v}": (lambda f, v=v: _solve_args(f, "--policy", "slad", "--epsilon", v))
       for v in ("nan", "-1")},
    "day-load-nan": lambda f: ["simulate", "--case", f["case"],
                               "--actuals", _nan_day(f), "--policy", "sced"],
    "case-price-nan": lambda f: ["simulate", "--case", _nan_price_case(f),
                                 "--actuals", f["day"], "--policy", "sced"],
    "scenarios-and-history": lambda f: _solve_args(f, "--policy", "slad",
                                                   "--history", _toy_history(f)),
    "demand-misses-a-bus": lambda f: ["solve", "--case", str(DATA / "network_case.json"),
                                      "--policy", "sced", "--demand", "B1=10"],
    "policies-empty": lambda f: ["compare", "--case", f["case"], "--actuals", f["day"],
                                 "--policies", " , "],
    "case-not-utf8": lambda f: ["simulate", "--case", _not_utf8_case(f),
                                "--actuals", f["day"], "--policy", "sced"],
    # the Benders settings are checked for every policy, not only slad's
    **{f"sced-{flag[2:]}-{v}": (lambda f, flag=flag, v=v: [
        "simulate", "--case", f["case"], "--actuals", f["day"], "--policy", "sced", flag, v])
       for flag, v in (("--workers", "0"), ("--max-iter", "0"), ("--epsilon", "-1"),
                       ("--alpha", "2"))},
    "compare-sced-workers-0": lambda f: ["compare", "--case", f["case"], "--actuals", f["day"],
                                         "--policies", "sced", "--workers", "0"],
    **{f"report-{name}": (lambda f, text=text: ["report", "--inputs", _report_input(f, text)])
       for name, text in _MALFORMED_REPORTS.items()},
}


@pytest.mark.parametrize("name", list(BAD_CALLS))
def test_bad_calls_exit_1_with_one_message(name, files, capsys):
    """Bad data exits 1 with one ``rtdispatch:`` line; an exception that
    escaped main (a traceback on the command line) fails the test."""
    assert main(BAD_CALLS[name](files)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("rtdispatch: ") and captured.err.count("\n") == 1


def test_a_file_that_is_not_utf8_is_named(files, capsys):
    path = _not_utf8_case(files)
    assert main(["simulate", "--case", path, "--actuals", files["day"], "--policy", "sced"]) == 1
    assert capsys.readouterr().err == f"rtdispatch: {path}: not UTF-8 text\n"


def test_a_report_of_well_formed_summaries_still_runs(files, capsys):
    paths = []
    for policy, cost in (("sced", 10), ("lad", 9.0)):
        paths.append(_report_input(files, _summary(policy=policy, total_cost=cost)))
        paths[-1] = str(Path(paths[-1]).rename(files["dir"] / f"{policy}.json"))
    assert main(["report", "--inputs", *paths, "--format", "json"]) == 0
    runs = json.loads(capsys.readouterr().out)["runs"]
    assert [r["savings_pct"] for r in runs] == [0.0, 10.0]


def test_numerical_failure_exits_1(files, capsys, monkeypatch):
    from rtdispatch import simulator
    from rtdispatch.lp import LPNumericalError

    def broken(lp, opts=None, warm=None):
        raise LPNumericalError("pivot element vanished")

    monkeypatch.setattr(simulator, "solve_lp", broken)
    assert main(["solve", "--case", files["case"], "--policy", "sced",
                 "--demand", "B1=10"]) == 1
    assert capsys.readouterr().err == "rtdispatch: period 0: plan: pivot element vanished\n"


def test_a_failing_oracle_in_solve_names_the_decomposition(files, capsys, monkeypatch):
    from rtdispatch import benders
    from rtdispatch.lp import LPNumericalError

    def broken(self, x1):
        raise LPNumericalError(f"scenario '{self.scenario_id}' subproblem failed")

    monkeypatch.setattr(benders._ScenarioOracle, "query", broken)
    assert main(_solve_args(files, "--policy", "slad")) == 1
    assert capsys.readouterr().err == (
        "rtdispatch: period 0: decomposition: scenario 'lo' subproblem failed\n")


def test_usage_errors_exit_2(files):
    with pytest.raises(SystemExit) as ei:
        main(_solve_args(files, "--policy", "nope"))
    assert ei.value.code == 2
    with pytest.raises(SystemExit) as ei:
        main(["frobnicate"])
    assert ei.value.code == 2


# ---------------------------------------------------------------------------
# simulate


def test_simulate_json(files, capsys):
    rc = main(["simulate", "--case", files["case"], "--actuals", files["day"],
               "--policy", "sced"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["policy"] == "sced"
    assert doc["summary"]["periods"] == 2
    assert doc["summary"]["total_cost"] == pytest.approx(5500.0, abs=1e-6)
    assert doc["columns"] == list(STEP_COLUMNS)
    cost = doc["columns"].index("cost")
    assert [row[cost] for row in doc["steps"]] == [
        pytest.approx(100.0, abs=1e-6),
        pytest.approx(5400.0, abs=1e-6),
    ]


def test_simulate_csv_byte_identity(files, tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        rc = main(["simulate", "--case", files["case"],
                   "--actuals", files["day"],
                   "--scenarios", files["scenarios"], "--policy", "slad",
                   "--format", "csv", "--out", str(p)])
        assert rc == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    text = paths[0].read_text()
    assert "# total_cost=670" in text
    assert "# policy=slad" in text


def test_simulate_timings_column(files, capsys):
    rc = main(["simulate", "--case", files["case"], "--actuals", files["day"],
               "--policy", "sced", "--timings"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["columns"][-1] == "solve_ms"
    ms = doc["columns"].index("solve_ms")
    assert all(row[ms] > 0.0 for row in doc["steps"])


# ---------------------------------------------------------------------------
# compare


def test_compare_policy_table(files, capsys):
    rc = main(["compare", "--case", files["case"], "--actuals", files["day"],
               "--scenarios", files["scenarios"],
               "--policies", "sced,lad,slad,pd"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["baseline"] == "sced"
    by = {r["policy"]: r for r in doc["policies"]}
    assert by["sced"]["total_cost"] == pytest.approx(5500.0, abs=1e-6)
    assert by["sced"]["savings_pct"] == pytest.approx(0.0, abs=1e-9)
    assert by["lad"]["total_cost"] == pytest.approx(2590.0, abs=1e-6)
    assert by["slad"]["total_cost"] == pytest.approx(670.0, abs=1e-6)
    assert by["slad"]["savings_pct"] == pytest.approx(87.82, abs=0.01)
    assert by["pd"]["total_cost"] == pytest.approx(650.0, abs=1e-6)
    assert by["pd"]["total_cost"] <= by["slad"]["total_cost"] + 1e-9


def test_compare_csv(files, tmp_path):
    out = tmp_path / "table.csv"
    rc = main(["compare", "--case", files["case"], "--actuals", files["day"],
               "--scenarios", files["scenarios"], "--policies", "sced,slad",
               "--format", "csv", "--out", str(out)])
    assert rc == 0
    body = [ln for ln in out.read_text().splitlines()
            if not ln.startswith("#")]
    assert body[0] == "policy,total_cost,savings_pct"
    assert body[1].startswith("sced,5500,")
    assert body[2].startswith("slad,670,87.81")


# ---------------------------------------------------------------------------
# report


def _simulated(files, tmp_path, kind):
    out = tmp_path / f"run_{kind}.json"
    args = ["simulate", "--case", files["case"], "--actuals", files["day"],
            "--policy", kind, "--out", str(out)]
    if kind in ("lad", "slad", "plad"):
        args += ["--scenarios", files["scenarios"]]
    assert main(args) == 0
    return str(out)


def test_report_aggregates_runs(files, tmp_path, capsys):
    runs = [_simulated(files, tmp_path, k) for k in ("sced", "slad")]
    rc = main(["report", "--inputs", *runs])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    by = {r["policy"]: r for r in doc["runs"]}
    assert by["sced"]["savings_pct"] == pytest.approx(0.0, abs=1e-9)
    assert by["slad"]["total_cost"] == pytest.approx(670.0, abs=1e-6)
    assert by["slad"]["savings_pct"] == pytest.approx(87.82, abs=0.01)


def test_report_without_baseline(files, tmp_path, capsys):
    runs = [_simulated(files, tmp_path, "slad")]
    rc = main(["report", "--inputs", *runs])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["runs"][0]["savings_pct"] is None


def test_report_plot_data(files, tmp_path, capsys):
    runs = [_simulated(files, tmp_path, k) for k in ("sced", "slad")]
    prefix = str(tmp_path / "fig")
    rc = main(["report", "--inputs", *runs, "--plot-data", prefix,
               "--out", str(tmp_path / "report.json")])
    assert rc == 0
    cost = (tmp_path / "fig_cost.csv").read_text().splitlines()
    cap = (tmp_path / "fig_capacity.csv").read_text().splitlines()
    header = [ln for ln in cost if not ln.startswith("#")][0]
    assert header.startswith("period,sced:")
    first = [ln for ln in cost if not ln.startswith("#")][1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(100.0, abs=1e-6)
    cap_header = [ln for ln in cap if not ln.startswith("#")][0]
    assert cap_header.count(",") == 2           # period + two series


def test_report_csv_holds_the_json_reports_runs(files, tmp_path, capsys):
    runs = [_simulated(files, tmp_path, k) for k in ("sced", "slad", "lad")]
    assert main(["report", "--inputs", *runs, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert main(["report", "--inputs", *runs, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [f"# schema_version={SCHEMA_VERSION}", "# command=report"]
    assert lines[2].split(",") == list(doc["runs"][0])
    # a float with 10 significant digits and an int as it is
    assert lines[3:] == [",".join(
        "" if v is None else format(v, ".10g") if isinstance(v, float) else str(v)
        for v in run.values()) for run in doc["runs"]]
    assert lines[3].split(",")[1:] == ["toy2", "sced", "2", "5500", "0"]


def test_report_rejects_foreign_json(tmp_path, capsys):
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"hello": 1}))
    rc = main(["report", "--inputs", str(other)])
    assert rc == 1
    assert "not a simulate output" in capsys.readouterr().err


@pytest.mark.parametrize("text", list(_MALFORMED_REPORTS.values()),
                         ids=list(_MALFORMED_REPORTS))
def test_a_malformed_report_input_is_named(files, capsys, text):
    path = _report_input(files, text)
    assert main(["report", "--inputs", path]) == 1
    assert capsys.readouterr().err == f"rtdispatch: {path}: not a simulate output\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_compare_leaves_savings_blank_against_a_zero_cost_baseline(files, capsys, fmt):
    # as report does: a day with no load settles sced at $0, and no policy
    # has a savings percentage against it
    zero = files["dir"] / "zero.csv"
    zero.write_text("period,load:B1\n1,0\n2,0\n")
    rc = main(["compare", "--case", files["case"], "--actuals", str(zero),
               "--policies", "sced,lad,pd", "--format", fmt])
    assert rc == 0
    out = capsys.readouterr().out
    if fmt == "json":
        doc = json.loads(out)
        assert doc["baseline"] == "sced"
        assert [(p["total_cost"], p["savings_pct"]) for p in doc["policies"]] == [
            (0.0, None)] * 3
    else:
        body = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert body == ["policy,total_cost,savings_pct", "sced,0,", "lad,0,", "pd,0,"]


# ---------------------------------------------------------------------------
# module execution


def test_module_help_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "rtdispatch.cli", "--help"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    for word in ("solve", "simulate", "compare", "report"):
        assert word in proc.stdout


# ---------------------------------------------------------------------------
# pinned outputs of the bundled data

DATA = Path(__file__).resolve().parent.parent / "data"
_TOY = ["--case", str(DATA / "toy_case.json")]
_TOY_DAY = [*_TOY, "--actuals", str(DATA / "toy_day.csv"),
            "--scenarios", str(DATA / "toy_scenarios.csv")]
_NET_DAY = ["--case", str(DATA / "network_case.json"),
            "--actuals", str(DATA / "network_day.csv"),
            "--history", str(DATA / "network_history.csv"),
            "--knn-k", "3", "--horizon", "4"]
_ALL = ["--policies", "sced,lad,slad,plad,pd"]

_TOY_SOLVE = ["solve", *_TOY, "--scenarios", str(DATA / "toy_scenarios.csv")]
_DEMAND = ["solve", *_TOY, "--policy", "sced", "--demand", "B1=10"]

BUNDLED_RUNS = {
    "compare-toy-json": ["compare", *_TOY_DAY, *_ALL],
    "compare-toy-csv": ["compare", *_TOY_DAY, *_ALL, "--format", "csv"],
    "compare-network-simplex": ["compare", *_NET_DAY, *_ALL],
    "compare-network-highs": ["compare", *_NET_DAY, *_ALL, "--backend", "highs"],
    "compare-network-highs-lazy": ["compare", *_NET_DAY, *_ALL, "--backend", "highs",
                                   "--flows", "lazy", "--workers", "2"],
    **{f"solve-{kind}-trace": [*_TOY_SOLVE, "--policy", kind, "--trace"]
       for kind in ("sced", "lad", "slad", "plad")},
    "solve-slad-trace-csv": [*_TOY_SOLVE, "--policy", "slad", "--trace",
                             "--format", "csv"],
    "solve-demand-json": _DEMAND,
    "solve-demand-csv": [*_DEMAND, "--format", "csv"],
    # simulate's per-period step tables, which compare's totals can hide
    "simulate-toy-slad-csv": ["simulate", *_TOY_DAY, "--policy", "slad", "--format", "csv"],
    "simulate-network-lad-json": ["simulate", *_NET_DAY, "--policy", "lad"],
    "simulate-network-slad-highs-csv": ["simulate", *_NET_DAY, "--policy", "slad",
                                        "--backend", "highs", "--workers", "2",
                                        "--format", "csv"],
}

# sha256 of each run's stdout; a change to any settled dollar, plan, trace
# or formatting moves its digest.  Recorded with numpy 2.4 / scipy 1.17; as
# with PIVOT_PATH in test_simulator.py, another BLAS can move the network
# totals' last digits
BUNDLED_SHA256 = {
    "compare-toy-json":
        "77248028ea5f47b18de18bb0ed2cdfb73442826210706b3d402296244f95e0bc",
    "compare-toy-csv":
        "755001ecca1b8c15055e76327e1e3bb20f446b7935bee27344511a3252318f38",
    "compare-network-simplex":
        "a1cef7cdf0e605c63f1a3b9fda9783168d672538db8fab3262ab1fc18665ef7f",
    "compare-network-highs":
        "209ee57c97f530a22cb843b6efc4f0008787dd0ef2ec0b731323ed39c055e03b",
    "compare-network-highs-lazy":
        "d2fb013ec10890e5a46951c8d61af9b4479b59f676455e97607b00da79f46aac",
    "solve-sced-trace":
        "c1d905a919306065633aa59488a23c9ff6c54464840e504805b43c6ca03fd041",
    "solve-lad-trace":
        "2b0eef4e63e520c98ad4b673c4d05432d79c2951334e35f2ea2054e58f406eed",
    "solve-slad-trace":
        "1db18eb386bd2a231b2ca601f0206f6fcc41520376908b910707c89f8595b392",
    "solve-plad-trace":
        "d4be16298b88eac848423e725253a162fdcdc2fca79f50aa40269fcba0afc174",
    "solve-slad-trace-csv":
        "ca3f57a37e3830d4116b0577977714ea3822014433ae5de1972f06d8648092a4",
    "solve-demand-json":
        "c1d905a919306065633aa59488a23c9ff6c54464840e504805b43c6ca03fd041",
    "solve-demand-csv":
        "5e0a0cbd7ae3bfe0f68da8b05d2172a0014f008a1fdb6a8e9fc87cbe00134a7a",
    "simulate-toy-slad-csv":
        "aa8d5819e63858eb7c05ccf2f3be2930823f076a0a553929e01b42e5a75c7cd8",
    "simulate-network-lad-json":
        "1f949dfa95fbab8eb685fd62f0b8b57b242dcc67eccd6c4b92f0b6bf82f96c49",
    "simulate-network-slad-highs-csv":
        "b95d93e24497dc42b8ce49cc91e2e5b93250a76416d0dbc3fff51ffe7daba073",
}


@pytest.mark.parametrize("name", list(BUNDLED_RUNS))
def test_bundled_cli_outputs_are_pinned(name, capsys):
    assert main(BUNDLED_RUNS[name]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == BUNDLED_SHA256[name]
