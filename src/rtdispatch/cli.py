"""Command-line interface: solve one decision, simulate days, compare, report.

Outputs are deterministic: the same inputs and flags produce byte-identical
files, as long as ``--timings`` is off (timing columns are measured, not
derived).  Exit codes: 0 success; 1 bad data; 2 bad usage; 3 the
decomposition hit its iteration limit.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .benders import BendersConfig
from .forecast import load_history
from .formulation import FIRST_STAGE_KINDS, first_stage_keys, require_common_first_period
from .lp import LPNumericalError, LPOptions
from .model import (
    CaseFormatError,
    ScenarioSet,
    ValidationError,
    finite_float,
    initial_state,
    parse_case,
    parse_timeseries,
    validate_case,
)
from .simulator import (
    STEP_COLUMNS,
    TIMING_COLUMNS,
    IterationLimit,
    PolicySpec,
    SimulationError,
    _plan_step,
    _plan_window,
    daily_savings,
    log_rows,
    log_summary,
    run_simulation,
)

SCHEMA_VERSION = 1

_EPILOG = """\
file formats:
  case        JSON system description (buses, generators, branches,
              reserve requirements, penalty prices)
  day/scenarios
              CSV: period,load:<bus>,...  with optional scenario,prob
              and pmax:<gen> columns; periods are 1-based
  history     CSV: date,period,load:<bus>,...[,pmax:<gen>,...]

step-table column order (simulate):
  {steps}
  --timings appends: {timing}

compare column order: policy,total_cost,savings_pct
report column order:  label,case,policy,periods,total_cost,savings_pct
""".format(
    steps="\n  ".join(
        ", ".join(STEP_COLUMNS[i : i + 6]) for i in range(0, len(STEP_COLUMNS), 6)
    ),
    timing=", ".join(TIMING_COLUMNS),
)


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format(v, ".10g")
    return str(v)


def _emit(text, out_path):
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _csv_lines(comments, header, rows):
    lines = [f"# schema_version={SCHEMA_VERSION}"]
    lines += [f"# {k}={_fmt(v)}" for k, v in comments]
    lines.append(",".join(header))
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _json_doc(payload):
    doc = {"schema_version": SCHEMA_VERSION}
    doc.update(payload)
    return json.dumps(doc, indent=2) + "\n"


def _read(path):
    with open(path) as fh:
        return fh.read()


def _load_case(args):
    return validate_case(parse_case(_read(args.case)))


def _policy_from_args(args, vc):
    scen = hist = None
    if getattr(args, "scenarios", None):
        scen = parse_timeseries(_read(args.scenarios), vc)
    if getattr(args, "history", None):
        hist = load_history(_read(args.history), vc)
    if scen is not None and hist is not None:
        raise ValidationError("give either a scenario file or a history, not both")
    benders = BendersConfig(
        epsilon=args.epsilon,
        max_iter=args.max_iter,
        alpha=args.alpha,
        workers=args.workers,
    )
    return PolicySpec(
        kind=args.policy,
        horizon=args.horizon,
        scenarios=scen,
        history=hist,
        knn_k=args.knn_k,
        benders=benders,
        lp=LPOptions(backend=args.backend),
        flows=args.flows,
    )


def _trace_rows(res_trace, timings):
    header = ["iteration", "lower", "upper", "gap", "cuts_added"]
    if timings:
        header += ["wall_ms", "master_ms", "oracle_ms"]
    return header, [[getattr(r, field) for field in header] for r in res_trace]


# ---------------------------------------------------------------------------
# commands


def _parse_demand(text, case):
    """``B1=10,B2=20`` into a full per-bus MW map."""
    out = {}
    for part in text.split(","):
        bus, _, val = part.partition("=")
        bus = bus.strip()
        if not _ or bus not in case.buses:
            raise ValidationError(f"--demand: unknown bus assignment '{part}'")
        if bus in out:
            raise ValidationError(f"--demand: bus '{bus}' is assigned twice")
        out[bus] = finite_float(val)
        if out[bus] is None:
            raise ValidationError(f"--demand: bad MW value '{val}' for bus '{bus}'")
    missing = [b for b in case.buses if b not in out]
    if missing:
        raise ValidationError(f"--demand misses buses: {', '.join(missing)}")
    return out


def cmd_solve(args):
    """One dispatch decision: a demand snapshot or a scenario window.

    The decision is the first period of a rolling simulation whose
    realized day is the demand snapshot or the file's first scenario."""
    vc = _load_case(args)
    policy = _policy_from_args(args, vc)
    if args.demand is not None:
        if policy.kind != "sced":
            raise ValidationError(
                "--demand gives a single period, which only the no-look-ahead "
                "policy can use; pass --policy sced or a --scenarios window"
            )
        actuals = ScenarioSet.flat("now", _parse_demand(args.demand, vc.case), {}, 1)
    elif policy.kind == "pd":
        raise ValidationError(
            "the hindsight benchmark is a whole-day policy; use 'simulate'"
        )
    elif policy.scenarios is None:
        raise ValidationError(
            "solve needs --scenarios for the current window (or --demand)"
        )
    else:
        # the plan overwrites period 1 with the realized day's, so a file
        # whose scenarios disagree there is rejected up front
        require_common_first_period(policy.scenarios)
        actuals = policy.scenarios.alone(0)
    length = min(policy.horizon, actuals.horizon)
    win = _plan_window(vc, policy, actuals, 0, length)
    x1, objective, trace = _plan_step(vc, initial_state(vc), policy, win, 0)

    labelled = sorted(zip(first_stage_keys(vc), x1.tolist()))
    stage = {}
    for kind in FIRST_STAGE_KINDS:
        vals = {gid: round(v, 9) for (k, gid), v in labelled if k == kind and abs(v) > 1e-9}
        if kind == "pg" or vals:
            stage[kind] = vals

    if args.format == "json":
        payload = {
            "command": "solve",
            "case": vc.case.name,
            "policy": policy.kind,
            "horizon": length,
            "seed": args.seed,
            "objective": objective,
            "benders_iterations": len(trace),
            "first_stage": stage,
        }
        if args.trace and trace:
            th, tr = _trace_rows(trace, args.timings)
            payload["trace_columns"] = th
            payload["trace"] = tr
        _emit(_json_doc(payload), args.out)
    else:
        comments = [
            ("command", "solve"), ("case", vc.case.name),
            ("policy", policy.kind), ("horizon", length),
            ("objective", objective), ("benders_iterations", len(trace)),
        ]
        rows = [
            (kind, gid, v)
            for kind in FIRST_STAGE_KINDS
            for gid, v in stage.get(kind, {}).items()
        ]
        text = _csv_lines(comments, ["product", "generator", "mw"], rows)
        if args.trace and trace:
            th, tr = _trace_rows(trace, args.timings)
            text += _csv_lines([("table", "trace")], th, tr)
        _emit(text, args.out)
    return 0


def cmd_simulate(args):
    vc = _load_case(args)
    actuals = parse_timeseries(_read(args.actuals), vc)
    log = run_simulation(vc, actuals, _policy_from_args(args, vc))
    header, rows = log_rows(log, timings=args.timings)
    summary = log_summary(log)
    if args.format == "json":
        payload = {
            "command": "simulate",
            "seed": args.seed,
            "summary": summary,
            "columns": header,
            "steps": rows,
        }
        _emit(_json_doc(payload), args.out)
    else:
        comments = [("command", "simulate"), ("seed", args.seed)]
        comments += list(summary.items())
        _emit(_csv_lines(comments, header, rows), args.out)
    return 0


def cmd_compare(args):
    vc = _load_case(args)
    actuals = parse_timeseries(_read(args.actuals), vc)
    kinds = [p.strip() for p in args.policies.split(",") if p.strip()]
    if not kinds:
        raise ValidationError("no policies to compare")
    policy = _policy_from_args(args, vc)
    logs = {
        kind: run_simulation(
            vc, actuals, dataclasses.replace(policy, kind=kind, horizon=args.horizon)
        )
        for kind in kinds
    }
    # as in report: no savings against a missing or zero-cost baseline
    base = logs["sced"].total_cost if "sced" in logs else None
    rows = []
    for kind in kinds:
        total = logs[kind].total_cost
        pct = 100.0 * daily_savings(base, total) if base else None
        rows.append([kind, total, pct])
    if args.format == "json":
        payload = {
            "command": "compare",
            "case": vc.case.name,
            "seed": args.seed,
            "baseline": "sced" if "sced" in logs else None,
            "policies": [
                {"policy": k, "total_cost": t, "savings_pct": p} for k, t, p in rows
            ],
        }
        _emit(_json_doc(payload), args.out)
    else:
        comments = [("command", "compare"), ("case", vc.case.name),
                    ("seed", args.seed)]
        _emit(
            _csv_lines(comments, ["policy", "total_cost", "savings_pct"], rows),
            args.out,
        )
    return 0


def cmd_report(args):
    """Aggregate simulate outputs (JSON) into one table, plus plot data."""
    docs = []
    for path in args.inputs:
        try:
            doc = json.loads(_read(path))
        except ValueError:  # not JSON, or not text
            doc = None
        if not (isinstance(doc, dict) and isinstance(doc.get("summary"), dict)
                and {"case", "policy", "periods", "total_cost"} <= doc["summary"].keys()
                and isinstance(doc.get("columns"), list) and isinstance(doc.get("steps"), list)):
            raise CaseFormatError(f"{path}: not a simulate output")
        docs.append((path, doc))
    # savings against a no-look-ahead run of the same case and day length
    base_costs = {}
    for _path, doc in docs:
        s = doc["summary"]
        if s["policy"] == "sced":
            base_costs[(s["case"], s["periods"])] = s["total_cost"]
    rows = []
    for path, doc in docs:
        s = doc["summary"]
        base = base_costs.get((s["case"], s["periods"]))
        pct = 100.0 * daily_savings(base, s["total_cost"]) if base else None
        rows.append([path, s["case"], s["policy"], s["periods"], s["total_cost"], pct])

    if args.plot_data:
        _write_plot_data(args.plot_data, docs)
    header = ["label", "case", "policy", "periods", "total_cost", "savings_pct"]
    if args.format == "json":
        payload = {
            "command": "report",
            "runs": [dict(zip(header, row)) for row in rows],
        }
        _emit(_json_doc(payload), args.out)
    else:
        _emit(_csv_lines([("command", "report")], header, rows), args.out)
    return 0


def _write_plot_data(prefix, docs):
    """Per-period series ready for plotting: settled cost and headroom."""
    for stem, column in (("cost", "cost"), ("capacity", "available_mw")):
        series = {}
        periods = 0
        for path, doc in docs:
            cols = doc["columns"]
            idx = cols.index(column)
            label = f"{doc['summary']['policy']}:{path}"
            series[label] = [row[idx] for row in doc["steps"]]
            periods = max(periods, len(series[label]))
        header = ["period"] + list(series)
        rows = []
        for t in range(periods):
            rows.append(
                [t + 1] + [s[t] if t < len(s) else "" for s in series.values()]
            )
        with open(f"{prefix}_{stem}.csv", "w") as fh:
            fh.write(_csv_lines([("table", stem)], header, rows))


# ---------------------------------------------------------------------------
# argument plumbing


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rtdispatch",
        description="Rolling five-minute dispatch: solve, simulate, compare.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    io_p = argparse.ArgumentParser(add_help=False)
    io_p.add_argument("--out", default="-", help="output path (default stdout)")
    io_p.add_argument("--format", choices=("json", "csv"), default="json")
    io_p.add_argument("--timings", action="store_true",
                      help="include measured wall-clock columns (breaks "
                           "byte-for-byte reproducibility)")
    io_p.add_argument("--trace", action="store_true",
                      help="include the decomposition's per-iteration bounds")

    model_p = argparse.ArgumentParser(add_help=False)
    model_p.add_argument("--case", required=True, help="system JSON file")
    model_p.add_argument("--flows", choices=("full", "lazy"), default="full",
                         help="materialize flowgate rows upfront or on demand")
    model_p.add_argument("--backend", choices=("simplex", "highs"),
                         default="simplex", help="LP engine")

    pol_p = argparse.ArgumentParser(add_help=False)
    pol_p.add_argument("--policy", choices=("sced", "lad", "slad", "plad", "pd"),
                       default="slad")
    pol_p.add_argument("--horizon", type=int, default=12,
                       help="look-ahead length in periods")
    pol_p.add_argument("--scenarios", help="day scenario CSV for the policy")
    pol_p.add_argument("--history", help="history CSV for nearest-neighbor scenarios")
    pol_p.add_argument("--knn-k", type=int, default=10,
                       help="neighbors per forecast (with --history)")
    pol_p.add_argument("--alpha", type=float, default=0.5,
                       help="separation point weight toward the stabilizer")
    pol_p.add_argument("--epsilon", type=float, default=1e-5,
                       help="relative optimality gap for the decomposition")
    pol_p.add_argument("--max-iter", type=int, default=100)
    pol_p.add_argument("--workers", type=int, default=1,
                       help="scenario subproblems solved concurrently")
    pol_p.add_argument("--seed", type=int, default=0,
                       help="recorded in outputs; reserved for sampled sources")

    p = sub.add_parser("solve", parents=[model_p, pol_p, io_p],
                       help="one dispatch decision at the window's first period")
    p.add_argument("--demand", metavar="BUS=MW[,BUS=MW...]",
                   help="clear a single period at this demand instead of "
                        "reading a scenario window (with --policy sced)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", parents=[model_p, pol_p, io_p],
                       help="roll one policy through a realized day")
    p.add_argument("--actuals", required=True, help="realized day CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", parents=[model_p, pol_p, io_p],
                       help="run several policies on the same day")
    p.add_argument("--actuals", required=True, help="realized day CSV")
    p.add_argument("--policies", default="sced,lad,slad,pd",
                   help="comma-separated policy list")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report", parents=[io_p],
                       help="aggregate simulate outputs into tables")
    p.add_argument("--inputs", nargs="+", required=True,
                   help="simulate JSON outputs")
    p.add_argument("--plot-data", metavar="PREFIX",
                   help="also write PREFIX_cost.csv and PREFIX_capacity.csv")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IterationLimit as exc:
        print(f"rtdispatch: {exc}", file=sys.stderr)
        return 3
    except (CaseFormatError, ValidationError, SimulationError, LPNumericalError,
            OSError) as exc:
        print(f"rtdispatch: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
