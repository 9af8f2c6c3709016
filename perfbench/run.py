#!/usr/bin/env python3
"""Rolling-day dispatch benchmark for rtdispatch.

    python3 perfbench/run.py --workload slad-highs --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One run:

1. sets up: imports, generates the seeded systems (``gen.py``) into
   ``.perfbench_work/`` and reads them back through the public parsers;
2. rolls the workload's policies through instance 0's day once, untimed,
   checking every claimed-optimal LP with ``verify_kkt`` (the gate day);
3. ``--trace 0``: rolls every policy through every instance's day in whole
   passes, for about ``--seconds``, and reports the end-to-end metrics over
   all of them, each day's times rescaled to a reference host pace by a host
   probe around the day; then times fresh set-ups in child processes;
   ``--trace 1``: rolls instance 0's day in pairs, one pass plain and one
   with every layer wrapped (``spans.py``), and reports per-layer metrics;
4. prints the human-readable report, then one JSON line with ``correct``,
   ``attempted``, ``failed`` and ``metrics``.

``--record-reference`` runs steps 1 and 2 and stores instance 0's settled
totals in ``reference.json``.  See README.md for the metrics and workloads.
"""

import os
import sys
import time

_START = time.perf_counter()
#: BLAS/OpenMP pools pinned to one thread; set before numpy is imported
THREAD_ENV = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import gen  # noqa: E402
from spans import Tracer, inclusive_times, self_times  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(HERE, "reference.json")

MIN_DECISIONS = 100      # per pass, so that ten decisions lie beyond p90
SETUP_PROBES = 5
PROBE_LOOPS = 300_000
#: host probe seconds at the reference pace that timings are rescaled to
REFERENCE_PROBE_S = 0.020
#: steal is summed over CPUs, so with two threads busy it can exceed the
#: wall time the two shared; never take more than this share of a wall time
MAX_STOLEN_SHARE = 0.5
SOLVE_MS_SHARE = 0.9     # StepRecord.solve_ms must cover this much of a call
PD_REL_TOL = 1e-6
REFERENCE_REL_TOL = 1e-9


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    rung: str
    backend: str
    policies: tuple
    horizon: int
    knn_k: int
    workers: int
    instances: int       # independent systems set up and timed per run
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rolling-simplex", "small", "simplex",
                 ("sced", "lad", "plad", "pd"), horizon=4, knn_k=4,
                 workers=1, instances=10,
                 why="the deterministic policies on the reference simplex, "
                     "settlement included; HiGHS bypassed"),
        Workload("slad-highs", "mid", "highs", ("slad",), horizon=4, knn_k=2,
                 workers=2, instances=24,
                 why="stochastic look-ahead on HiGHS: decomposition and many "
                     "small re-solves dominate; the simplex kernel is absent"),
        Workload("deterministic-highs-large", "large", "highs",
                 ("sced", "lad", "plad", "pd"), horizon=6, knn_k=6,
                 workers=1, instances=6,
                 why="few large cold LPs on HiGHS, incl. the full-day pd plan: "
                     "model assembly and matrix compile at scale"),
    )
}


@dataclasses.dataclass
class Instance:
    vc: object
    day: object
    history: object


def _read(path):
    with open(path) as fh:
        return fh.read()


def import_program(workload):
    """Import rtdispatch from this checkout's src/ (never an installed copy)."""
    if not os.path.isfile(os.path.join(SRC, "rtdispatch", "__init__.py")):
        raise SystemExit(f"error: no rtdispatch sources under {SRC}")
    sys.path.insert(0, SRC)
    import rtdispatch

    if not os.path.abspath(rtdispatch.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: rtdispatch imported from {rtdispatch.__file__}")
    if workload.backend == "highs":
        import scipy.optimize  # noqa: F401  the HiGHS backend's first solve needs it
    return rtdispatch


def set_up(rd, workload, seed, work_dir):
    """Generate every instance and parse it; returns (instances, parse seconds)."""
    rung = gen.RUNGS[workload.rung]
    instances, parse_s = [], 0.0
    for i in range(workload.instances):
        paths = gen.write_inputs(os.path.join(work_dir, f"i{i}"), rung, seed, i)
        texts = {k: _read(p) for k, p in paths.items()}
        t = time.perf_counter()
        vc = rd.validate_case(rd.parse_case(texts["case"]))
        day = rd.parse_timeseries(texts["day"], vc)
        history = rd.load_history(texts["history"], vc)
        parse_s += time.perf_counter() - t
        instances.append(Instance(vc, day, history))
    return instances, parse_s


# ---------------------------------------------------------------------------
# rolling days


def host_probe_s():
    """CPU seconds a fixed pure-Python loop takes now: the host's pace.  CPU
    time leaves out the time the hypervisor steals."""
    t = time.thread_time()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i
    return time.thread_time() - t


def steal_s():
    """Seconds this guest's CPUs have waited while the hypervisor ran other
    guests: the steal column of /proc/stat, summed over CPUs (0 without it)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def unstolen(wall, stolen):
    """The share of a wall time the hypervisor did not steal."""
    return 1.0 - min(stolen / wall, MAX_STOLEN_SHARE)


def to_reference(wall, pace, stolen):
    """Factor that takes a wall time on this host to the reference host: the
    stolen time removed, the rest rescaled from the probed pace."""
    return unstolen(wall, stolen) * REFERENCE_PROBE_S / pace


class Replays:
    """Runs days and keeps what the gate needs: totals, latencies, failures."""

    def __init__(self, rd, workload):
        from rtdispatch.lp import LPNumericalError

        self.rd = rd
        self.w = workload
        self.failures = (rd.SimulationError, LPNumericalError)
        self.totals = {}          # (instance, policy) -> first settled total
        self.problems = []
        self.attempted = self.failed = self.settled = 0
        #: (instance, policy) -> [(day wall, solve_ms, host)], where host is
        #: (probe seconds, stolen seconds) around a timed day, else None
        self.replays = {}
        self.min_solve_share = 1.0
        self.probing = False      # probe the host's pace around every day
        self._probe = None        # the host probe that ended the previous day

    def spec(self, inst, kind):
        rd, w = self.rd, self.w
        return rd.PolicySpec(
            kind=kind, horizon=w.horizon, history=inst.history, knn_k=w.knn_k,
            lp=rd.LPOptions(backend=w.backend),
            benders=rd.BendersConfig(workers=w.workers), flows="full",
        )

    def day(self, instances, i, kind):
        """Roll one policy through instance i's day; returns its settled total."""
        inst = instances[i]
        periods = inst.day.horizon
        self.attempted += periods
        if self.probing and self._probe is None:
            self._probe = host_probe_s()
        steal0 = steal_s()
        t = time.perf_counter()
        try:
            log = self.rd.run_simulation(inst.vc, inst.day, self.spec(inst, kind))
        except self.failures as exc:
            m = re.search(r"period (\d+)", str(exc))
            lost = periods - int(m.group(1)) if m else periods
            self.failed += lost
            self.settled += periods - lost
            self.problems.append(f"instance {i} {kind}: {type(exc).__name__}: {exc}")
            self._probe = None
            return None
        outside = time.perf_counter() - t
        stolen = steal_s() - steal0
        self.settled += periods
        ms = [s.solve_ms for s in log.steps]
        self.min_solve_share = min(self.min_solve_share,
                                   sum(ms) / 1e3 / (outside * unstolen(outside, stolen)))
        host = None
        if self.probing:
            before, self._probe = self._probe, host_probe_s()
            host = ((before + self._probe) / 2, stolen)
        self.replays.setdefault((i, kind), []).append((outside, ms, host))
        total = log.total_cost
        first = self.totals.setdefault((i, kind), total)
        if total != first:
            self.problems.append(
                f"instance {i} {kind}: replay settled {total!r}, earlier {first!r}")
        return total

    def sweep(self, instances, i, kinds=None):
        """All of the workload's policies on one instance."""
        return {k: self.day(instances, i, k) for k in kinds or self.w.policies}

    def check_hindsight(self, totals, where):
        pd = totals.get("pd")
        if pd is None:
            return
        for kind, v in totals.items():
            if kind != "pd" and v is not None and pd > v * (1 + PD_REL_TOL) + PD_REL_TOL:
                self.problems.append(f"{where}: pd settled {pd!r} above {kind} {v!r}")


def gate_day(rd, reps, instances):
    """Instance 0 rolled once, untimed, with every claimed optimum KKT-checked."""
    import numpy as np
    from rtdispatch import benders, simulator

    checks, largest = [], [0, 0]

    def check(args, kwargs, sol):
        lp = args[0]
        if lp.n_vars * lp.n_rows > largest[0] * largest[1]:
            largest[:] = [lp.n_vars, lp.n_rows]
        if sol.status == "optimal":
            tol = 1e-6 * (1.0 + float(np.abs(lp.cost).max(initial=0.0)))
            checks.append(rd.verify_kkt(lp, sol, tol=tol).passed)

    tracer = Tracer()
    for mod in (simulator, benders):
        tracer.wrap(mod, "solve_lp", "gate.solve_lp", summarize=check)
    kinds = reps.w.policies + (() if "pd" in reps.w.policies else ("pd",))
    try:
        totals = reps.sweep(instances, 0, kinds)
    finally:
        tracer.restore()
    reps.check_hindsight(totals, "gate day")
    if not checks:
        reps.problems.append("gate day: no LP was checked")
    if not all(checks):
        reps.problems.append(
            f"gate day: verify_kkt failed on {checks.count(False)} of {len(checks)} LPs")
    return totals, len(checks), tuple(largest)


def load_reference():
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE) as fh:
        return json.load(fh)


def check_reference(reps, seed, totals):
    ref = load_reference().get(reps.w.name, {}).get(str(seed))
    if ref is None:
        return f"none stored for seed {seed}"
    for kind, want in ref.items():
        got = totals.get(kind)
        if got is None or abs(got - want) > REFERENCE_REL_TOL * max(1.0, abs(want)):
            reps.problems.append(f"reference: {kind} settled {got!r}, stored {want!r}")
    return f"seed {seed} compared ({len(ref)} policies)"


# ---------------------------------------------------------------------------
# tracing


def wrap_layers(tracer):
    """Wrap the program's public functions where their callers look them up."""
    import scipy.optimize

    import rtdispatch
    from rtdispatch import benders, lp, simulator

    def lp_info(args, kwargs, sol):
        opts = args[1] if len(args) > 1 else kwargs.get("opts")
        warm = args[2] if len(args) > 2 else kwargs.get("warm")
        backend = opts.backend if opts is not None else "simplex"
        return (backend, warm is not None, sol.iterations, sol.status)

    def built(args, kwargs, out):
        return (out[0].n_vars, out[0].n_rows)

    def benders_info(args, kwargs, res):
        return (res.iterations, res.subproblem_solves,
                sum(r.cuts_added for r in res.trace))

    tracer.wrap(rtdispatch, "run_simulation", "rtdispatch.run_simulation")
    for name in ("run_perfect_dispatch", "settle_first_period", "extract_dispatch",
                 "itemize_costs", "first_stage_values", "knn_scenarios",
                 "mean_forecast"):
        tracer.wrap(simulator, name, f"rtdispatch.simulator.{name}")
    for name in ("build_sced", "build_lad"):
        tracer.wrap(simulator, name, f"rtdispatch.simulator.{name}", summarize=built)
    tracer.wrap(simulator, "run_benders", "rtdispatch.simulator.run_benders",
                summarize=benders_info)
    for mod in (simulator, benders):
        tracer.wrap(mod, "solve_lp", f"{mod.__name__}.solve_lp", summarize=lp_info)
    for name in ("build_benders_master", "build_benders_subproblem"):
        tracer.wrap(benders, name, f"rtdispatch.benders.{name}", summarize=built)
    tracer.wrap(benders, "first_stage_values", "rtdispatch.benders.first_stage_values")
    tracer.wrap(benders, "_query_all", "rtdispatch.benders._query_all")
    for name in ("matrix", "with_rows", "with_rhs"):
        tracer.wrap(lp.LinearProgram, name, f"rtdispatch.lp.LinearProgram.{name}")
    tracer.wrap(scipy.optimize, "linprog", "scipy.optimize.linprog")


def _short(name):
    return name.rsplit(".", 1)[-1]


#: span short name -> module its self time is charged to
MODULE_OF = {
    "run_simulation": "simulator", "run_perfect_dispatch": "simulator",
    "settle_first_period": "simulator",
    "knn_scenarios": "forecast", "mean_forecast": "forecast",
    "build_sced": "formulation", "build_lad": "formulation",
    "build_benders_master": "formulation", "build_benders_subproblem": "formulation",
    "extract_dispatch": "formulation", "itemize_costs": "formulation",
    "first_stage_values": "formulation",
    "solve_lp": "lp", "matrix": "lp", "with_rows": "lp", "with_rhs": "lp",
    "linprog": "highs",
    "run_benders": "benders", "_query_all": "benders",
}


COUNTS = {
    "forecast.knn_calls", "formulation.builds", "formulation.cols",
    "formulation.rows", "lp.solves", "lp.matrix_calls", "lp.pivots",
    "lp.warm_solves", "lp.warm_pivots", "lp.cold_pivots", "lp.nonoptimal",
    "benders.runs", "benders.iterations", "benders.subproblem_solves",
    "benders.cuts",
}


def layer_metrics(spans, passes, traced_wall):
    """Per-layer numbers per traced pass, from the recorded spans."""
    own = self_times(spans)
    incl = inclusive_times(spans, own)
    m = {k: 0.0 for k in (
        "forecast.knn_calls", "forecast.knn_s", "formulation.builds",
        "formulation.build_s", "formulation.extract_s", "lp.solves", "lp.solve_s",
        "lp.matrix_calls", "lp.matrix_s", "lp.extend_s", "lp.highs_s", "lp.pivots",
        "lp.warm_solves", "lp.warm_pivots", "lp.cold_pivots", "lp.nonoptimal",
        "benders.runs", "benders.iterations", "benders.subproblem_solves",
        "benders.cuts", "benders.master_s", "benders.oracle_s", "benders.self_s",
        "simulator.settle_s", "simulator.self_s")}
    cols = rows = 0
    modules = {}
    for s in spans:
        short = _short(s.name)
        parent = _short(s.parent.name) if s.parent is not None else None
        mod = MODULE_OF[short]
        modules[mod] = modules.get(mod, 0.0) + own[id(s)]
        if mod == "simulator":
            m["simulator.self_s"] += own[id(s)]
        if short == "settle_first_period":
            m["simulator.settle_s"] += incl[id(s)]
        elif short == "knn_scenarios":
            m["forecast.knn_calls"] += 1
            m["forecast.knn_s"] += own[id(s)]
        elif short.startswith("build_"):
            m["formulation.builds"] += 1
            m["formulation.build_s"] += own[id(s)]
            cols, rows = max((cols, rows), s.info, key=lambda cr: cr[0] * cr[1])
            if short == "build_benders_master":
                m["benders.master_s"] += incl[id(s)]
            elif short == "build_benders_subproblem":
                m["benders.oracle_s"] += incl[id(s)]
        elif short in ("extract_dispatch", "itemize_costs", "first_stage_values"):
            m["formulation.extract_s"] += own[id(s)]
        elif short == "solve_lp":
            backend, warm, iters, status = s.info
            m["lp.solves"] += 1
            m["lp.solve_s"] += own[id(s)]
            m["lp.nonoptimal"] += status != "optimal"
            if backend == "simplex":
                m["lp.pivots"] += iters
                m["lp.warm_solves"] += warm
                m["lp.warm_pivots" if warm else "lp.cold_pivots"] += iters
            if parent == "run_benders":
                m["benders.master_s"] += incl[id(s)]
            elif parent == "_query_all":
                m["benders.oracle_s"] += incl[id(s)]
        elif short == "linprog":
            m["lp.highs_s"] += own[id(s)]
            m["lp.solve_s"] += own[id(s)]   # glue = lp.solve_s - lp.highs_s
        elif short == "matrix":
            m["lp.matrix_calls"] += 1
            m["lp.matrix_s"] += own[id(s)]
        elif short in ("with_rows", "with_rhs"):
            m["lp.extend_s"] += own[id(s)]
        elif short == "run_benders":
            iters, solves, cuts = s.info
            m["benders.runs"] += 1
            m["benders.iterations"] += iters
            m["benders.subproblem_solves"] += solves
            m["benders.cuts"] += cuts
            m["benders.self_s"] += own[id(s)]
        elif short == "_query_all":
            m["benders.self_s"] += own[id(s)]
    m = {k: v / passes for k, v in m.items()}
    m["formulation.cols"] = cols
    m["formulation.rows"] = rows
    coverage = sum(modules.values()) / traced_wall
    return m, {k: v / passes for k, v in modules.items()}, coverage


# ---------------------------------------------------------------------------
# the run


def probe_setup(workload, seed):
    """Seconds from starting a fresh interpreter to its 'ready' line, and the
    host probe seconds around it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload.name,
           "--seed", str(seed), "--setup-only"]
    before = host_probe_s()
    steal0 = steal_s()
    t = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t
        stolen = steal_s() - steal0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return ready, ((before + host_probe_s()) / 2, stolen)


def environment():
    import numpy
    import scipy

    def blas(mod):
        try:
            return mod.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    return {
        "threads": {v: os.environ.get(v) for v in THREAD_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy),
        "scipy_openblas": blas(scipy),
    }


def timed_section(reps, instances, seconds):
    """Whole passes over every instance; the run ends at the pass end nearest
    to ``seconds``, so every run times the same days."""
    reps.probing = True
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    passes = 0
    while True:
        for i in range(len(instances)):
            reps.check_hindsight(reps.sweep(instances, i), f"instance {i}")
        passes += 1
        wall = time.perf_counter() - t0
        if wall * (1 + 0.5 / passes) >= seconds:
            return wall, time.process_time() - cpu0, passes


def replay_metrics(reps, scaled=True):
    """Throughput and decision latencies over every timed replay, each day's
    times taken to the reference host (``to_reference``).

    pd replays one hindsight plan: its per-period times are a plan charge and
    settlements, not decisions, so they count towards throughput only.
    """
    periods = seconds = 0.0
    latencies = []
    for (_, kind), days in reps.replays.items():
        for wall, ms, host in days:
            scale = to_reference(wall, *host) if scaled else 1.0
            periods += len(ms)
            seconds += wall * scale
            if kind != "pd":
                latencies.extend(x * scale for x in ms)
    return periods / seconds, latencies


def traced_section(reps, instances, seconds):
    """Pairs of passes over instance 0, one plain and one traced."""
    tracer = Tracer()
    plain = traced = 0.0
    pairs = 0
    t0 = time.perf_counter()
    # whole pairs; stop before one that would end well past ``seconds``
    while pairs == 0 or (time.perf_counter() - t0) * (pairs + 1) / pairs <= seconds:
        order = (False, True) if pairs % 2 == 0 else (True, False)
        for with_trace in order:
            if with_trace:
                wrap_layers(tracer)
            t = time.perf_counter()
            try:
                reps.sweep(instances, 0)
            finally:
                dt = time.perf_counter() - t
                tracer.restore()
            if with_trace:
                traced += dt
            else:
                plain += dt
        pairs += 1
    return tracer.spans, pairs, plain, traced


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="rtdispatch rolling-day benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record-reference", action="store_true",
                    help="store instance 0's settled totals in reference.json")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    w = WORKLOADS[args.workload]
    rd = import_program(w)
    work_dir = os.path.join(WORK, f"{w.name}-s{args.seed}-p{os.getpid()}")
    try:
        instances, parse_s = set_up(rd, w, args.seed, work_dir)
        setup_main = time.perf_counter() - _START
        if args.setup_only:
            print("ready", flush=True)
            return 0
        return run(args, rd, w, instances, parse_s, setup_main)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK)  # only once no other run is using it
        except OSError:
            pass


def run(args, rd, w, instances, parse_s, setup_main):
    reps = Replays(rd, w)
    gate_totals, kkt_checked, largest = gate_day(rd, reps, instances)
    if args.record_reference:
        if reps.problems:
            raise SystemExit("gate failed, nothing recorded:\n" + "\n".join(reps.problems))
        ref = load_reference()
        ref.setdefault(w.name, {})[str(args.seed)] = gate_totals
        with open(REFERENCE, "w") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(json.dumps({w.name: {str(args.seed): gate_totals}}))
        return 0
    ref_note = check_reference(reps, args.seed, gate_totals)
    gate_attempted, gate_failed = reps.attempted, reps.failed
    reps.attempted = reps.failed = reps.settled = 0
    reps.replays.clear()
    reps.min_solve_share = 1.0

    rung = gen.RUNGS[w.rung]
    print(f"workload {w.name}: {w.why}")
    print(f"system: {rung.buses} buses, {rung.gens} generators, {rung.branches} "
          f"flowgates, {rung.periods}-period day, {rung.history_days}-day history; "
          f"policies {','.join(w.policies)} on {w.backend}, horizon {w.horizon}, "
          f"k={w.knn_k}, workers={w.workers}, {w.instances} instances")
    print(f"largest LP: {largest[0]} cols x {largest[1]} rows")
    print("env: " + json.dumps(environment(), sort_keys=True))
    print(f"gate day: {kkt_checked} LPs KKT-checked, {gate_attempted} decisions, "
          f"{gate_failed} failed; reference: {ref_note}")

    if args.trace:
        spans, pairs, plain, traced = traced_section(reps, instances, args.seconds)
        metrics, modules, coverage = layer_metrics(spans, pairs, traced)
        metrics["model.parse_s"] = parse_s / len(instances)
        metrics["trace.overhead_s"] = (traced - plain) / pairs
        metrics["trace.coverage"] = coverage
        units = {k: "count" if k in COUNTS else "s" for k in metrics}
        units["trace.coverage"] = "ratio"
        print(f"traced: {pairs} pairs of passes over instance 0, "
              f"{len(spans)} spans; per pass, plain {plain / pairs:.4f} s, "
              f"traced {traced / pairs:.4f} s")
        print("module self time per pass: " + ", ".join(
            f"{k} {v:.4f} s" for k, v in sorted(modules.items()))
              + f"; sum / traced wall = {coverage:.4f}")
    else:
        wall, cpu, passes = timed_section(reps, instances, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        periods_per_s, lat = replay_metrics(reps)
        raw_pps, raw_lat = replay_metrics(reps, scaled=False)
        hosts = [host for days in reps.replays.values() for _, _, host in days]
        setups = [probe_setup(w, args.seed) for _ in range(SETUP_PROBES)]
        metrics = {
            "periods_per_s": periods_per_s,
            "decision_ms_p50": statistics.median(lat),
            "decision_ms_p90": statistics.quantiles(lat, n=10, method="inclusive")[-1],
            "cpu_s": cpu * args.seconds / wall,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(
                ready * to_reference(ready, *host) for ready, host in setups),
        }
        units = {"periods_per_s": "1/s", "decision_ms_p50": "ms",
                 "decision_ms_p90": "ms", "cpu_s": "s", "peak_rss_mb": "MB",
                 "setup_s": "s"}
        print(f"timed: {passes} passes over {len(instances)} instances in {wall:.3f} s "
              f"wall, {cpu:.3f} s CPU; {len(lat)} decisions, "
              f"{sum(x > metrics['decision_ms_p90'] for x in lat)} beyond p90; "
              f"StepRecord.solve_ms covers >= {reps.min_solve_share:.4f} of each "
              "run_simulation call")
        print(f"host: probe median {statistics.median(p for p, _ in hosts) * 1e3:.2f} ms "
              f"over {len(hosts)} days (reference {REFERENCE_PROBE_S * 1e3:.0f} ms), "
              f"{sum(s for _, s in hosts):.2f} s stolen in {wall:.2f} s; "
              f"unscaled: {raw_pps:.4f} periods/s, decision p50 "
              f"{statistics.median(raw_lat):.4f} ms")
        print(f"setup probes: {', '.join(f'{r:.3f}' for r, _ in setups)} s unscaled "
              f"(this process: {setup_main:.3f} s, parsing {parse_s:.3f} s)")
        print(f"failed_share {reps.failed / reps.attempted:.6g} "
              f"({reps.failed} of {reps.attempted} decisions)")
    if reps.min_solve_share < SOLVE_MS_SHARE:
        reps.problems.append(
            f"StepRecord.solve_ms covers only {reps.min_solve_share:.3f} of a "
            "run_simulation call's wall time")
    for name in sorted(metrics):
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    for p in reps.problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({
        "correct": not reps.problems,
        "attempted": reps.attempted,
        "failed": reps.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
