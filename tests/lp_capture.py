#!/usr/bin/env python3
"""Print a hash of every LP a bench workload hands to a solver, and of
every solution it gets back.

    python3 tests/lp_capture.py --workload slad-highs --seed 3 > a.txt

Rolls each of the workload's policies, and ``pd``, through instance 0's day
of ``perfbench/run.py``'s workload at ``--seed``, as its gate day does, with
the workload's Benders worker count unless ``--workers`` gives another.  The
inputs come from ``perfbench/gen.py``, written to a temporary directory.
Prints one line per LP handed to ``solve_lp`` (the sha256 of its cost,
bounds, ``coo()`` arrays, senses, rhs and ``repr(obj_const)``) and one per
``LPSolution`` (status, iterations, ``repr(objective)``, x, duals, reduced
costs and basis), sorted, so the lines are a multiset whatever the thread
order.  Run it in two checkouts and diff the outputs: no difference means
every solver saw and returned the same bytes.  The package is imported from
the ``src/`` next to this file.
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from run import WORKLOADS  # noqa: E402  (pins the BLAS pools to one thread, so first)
import gen  # noqa: E402

import numpy as np  # noqa: E402


def digest(*parts):
    """sha256 over arrays (dtype and bytes) and other values (``repr``)."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(str(p.dtype).encode())
            h.update(p.tobytes())
        else:
            h.update(repr(p).encode())
        h.update(b"|")
    return h.hexdigest()


def lp_digest(lp):
    return digest(lp.cost, lp.lower, lp.upper, *lp.coo(),
                  np.asarray(lp.senses, dtype=np.int8), lp.rhs, lp.obj_const)


def solution_digest(sol):
    return digest(sol.status, sol.iterations, sol.objective, sol.x, sol.duals,
                  sol.reduced_costs, *(sol.basis or ("no basis",)))


def capture(workload, seed, workers=None):
    """The sorted (kind, sha256) lines of instance 0's day."""
    import rtdispatch as rd
    from rtdispatch import benders, simulator

    w = WORKLOADS[workload]
    with tempfile.TemporaryDirectory() as tmp:
        paths = gen.write_inputs(tmp, gen.RUNGS[w.rung], seed, 0)
        texts = {k: Path(p).read_text() for k, p in paths.items()}
    vc = rd.validate_case(rd.parse_case(texts["case"]))
    day = rd.parse_timeseries(texts["day"], vc)
    history = rd.load_history(texts["history"], vc)

    lines = []  # list.append is atomic, so worker threads may share it

    def wrap(solve):
        def recorded(lp, *args, **kwargs):
            sol = solve(lp, *args, **kwargs)
            lines.append(f"lp {lp_digest(lp)}")
            lines.append(f"solution {solution_digest(sol)}")
            return sol
        return recorded

    modules = (simulator, benders)
    originals = [m.solve_lp for m in modules]
    for m, solve in zip(modules, originals):
        m.solve_lp = wrap(solve)
    try:
        for kind in w.policies + (() if "pd" in w.policies else ("pd",)):
            spec = rd.PolicySpec(
                kind=kind, horizon=w.horizon, history=history, knn_k=w.knn_k,
                lp=rd.LPOptions(backend=w.backend),
                benders=rd.BendersConfig(workers=workers or w.workers), flows="full")
            rd.run_simulation(vc, day, spec)
    finally:
        for m, solve in zip(modules, originals):
            m.solve_lp = solve
    return sorted(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workers", type=int, default=None,
                    help="Benders worker count (default: the workload's)")
    args = ap.parse_args(argv)
    for line in capture(args.workload, args.seed, args.workers):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
