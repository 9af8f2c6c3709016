#!/usr/bin/env python3
"""Time the LP backend of two checkouts on the LPs a bench workload hands
it, and check that both return the same solutions.

    python3 tests/simplex_ab.py --base ../other --workload rolling-simplex --seed 3

Rolls ``--instances`` of the workload's days (all of a bench pass by
default) as ``tests/lp_capture.py`` rolls instance 0's, and keeps every LP
handed to ``solve_lp``, with its warm start on the reference simplex.  A
HiGHS workload's LPs are solved on HiGHS, which takes no warm start.
Loads ``src/rtdispatch/lp.py`` of the checkout at ``--base`` and of this
one under distinct module names.  In each it rebuilds one frozen model per
distinct structure among the LPs (their ``coo()`` arrays, senses and lower
bounds) and makes each LP a ``with_numbers`` copy on its structure, as a
day's models of one layout share one, so a backend that keeps state per
structure meets the numbers a day hands it.  Each side replays the LPs in
capture order once untimed, then ``--repeats`` times, alternating which
side goes first; each LP keeps each side's best thread CPU time.  Prints,
per row band, the LPs, their pivots (HiGHS' simplex iterations), both
sides' summed times, change/base and the time per pivot, then whether every
solution digest matched.  Exits 1 if one did not; timing never fails a
run.  Interleaving the two backends in one process compares them under the
same host load, which whole bench runs on a shared host cannot.
"""

import argparse
import importlib.util
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from lp_capture import WORKLOADS, roll, solution_digest  # noqa: E402  (pins BLAS first)

import numpy as np  # noqa: E402

#: (lowest rows, label) of each row band, in order
BANDS = ((0, "under 100"), (100, "100-399"), (400, "400 and up"))


def load_lp_module(checkout, name):
    """``src/rtdispatch/lp.py`` of ``checkout``, imported as module ``name``."""
    path = Path(checkout) / "src" / "rtdispatch" / "lp.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def captured(workload, seed, instances):
    """(lp, max_iters, warm) of every ``solve_lp`` call on the days; warm is
    None on HiGHS."""
    out = []

    def record(lp, args, kwargs, sol):
        opts = kwargs.get("opts", args[0] if args else None)
        warm = kwargs.get("warm", args[1] if len(args) > 1 else None)
        out.append((lp, opts.max_iters, warm if opts.backend == "simplex" else None))

    for instance in range(instances):
        roll(workload, seed, instance, record)
    return out


def rebuilt(module, lps):
    """Each of ``lps`` as a frozen model of ``module``: a ``with_numbers``
    copy on the one model rebuilt from its arrays per distinct structure
    (``coo()`` arrays, senses and lower bounds)."""
    structures, out = {}, []
    for lp in lps:
        rows, cols, vals = lp.coo()
        key = tuple(a.tobytes() for a in (rows, cols, vals, lp.senses, lp.lower))
        if key not in structures:
            model = module.LinearProgram()
            model.add_vars(lp.lower, lp.upper, lp.cost)
            model.add_rows(cols, vals, np.bincount(rows, minlength=lp.n_rows), lp.senses, lp.rhs)
            structures[key] = model.freeze()
        model = structures[key].with_numbers(cost=lp.cost, upper=lp.upper, rhs=lp.rhs)
        model.obj_const = lp.obj_const
        out.append(model)
    return out


def band_of(rows):
    return max(i for i, (low, _) in enumerate(BANDS) if rows >= low)


def compare(modules, cases, repeats, backend):
    """Per LP: (rows, pivots, best base seconds, best change seconds, whether
    every solution of both sides had one digest), solved on ``backend``."""
    digests = [set() for _ in cases]
    best = [[math.inf, math.inf] for _ in cases]
    pivots = [0] * len(cases)

    def replay(side, timed):
        module, models = sides[side]
        for k, (model, (_lp, max_iters, warm)) in enumerate(zip(models, cases)):
            opts = module.LPOptions(max_iters=max_iters, backend=backend)
            start = time.thread_time()
            sol = module.solve_lp(model, opts, warm)
            if timed:
                best[k][side] = min(best[k][side], time.thread_time() - start)
            digests[k].add(solution_digest(sol))
            pivots[k] = sol.iterations

    sides = [(module, rebuilt(module, [lp for lp, _, _ in cases])) for module in modules]
    for side in (0, 1):  # also builds each structure's solver form
        replay(side, timed=False)
    for rep in range(repeats):
        for side in ((0, 1) if rep % 2 == 0 else (1, 0)):
            replay(side, timed=True)
    return [(lp.n_rows, pivots[k], *best[k], len(digests[k]) == 1)
            for k, (lp, _, _) in enumerate(cases)]


def report(results):
    """The per-band table and the digest verdict, as lines."""
    lines = [f"{'rows':<11} {'LPs':>5} {'pivots':>7} {'base s':>8} {'change s':>8} "
             f"{'change/base':>11} {'base us/pivot':>13} {'change us/pivot':>15}"]
    bands = [(label, [r for r in results if band_of(r[0]) == i])
             for i, (_, label) in enumerate(BANDS)]
    for label, band in bands + [("all", results)]:
        if not band:
            continue
        pivots = sum(r[1] for r in band)
        base, change = sum(r[2] for r in band), sum(r[3] for r in band)
        per = [f"{1e6 * s / pivots:.1f}" if pivots else "-" for s in (base, change)]
        lines.append(f"{label:<11} {len(band):>5} {pivots:>7} {base:>8.3f} {change:>8.3f} "
                     f"{change / base:>11.3f} {per[0]:>13} {per[1]:>15}")
    bad = [k for k, r in enumerate(results) if not r[4]]
    lines.append("every solution digest matched" if not bad else
                 f"solution digests differ on {len(bad)} of {len(results)} LPs "
                 f"(first: LP {bad[0]}, {results[bad[0]][0]} rows)")
    return lines, not bad


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="root of the checkout to compare against")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--instances", type=int, default=None,
                    help="instances rolled (default: all of the workload's)")
    ap.add_argument("--repeats", type=int, default=5, help="timed solves per LP and side")
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    instances = w.instances if args.instances is None else args.instances
    if not 1 <= instances <= w.instances or args.repeats < 1:
        ap.error(f"--instances must be in 1..{w.instances} and --repeats at least 1")
    modules = (load_lp_module(args.base, "simplex_ab_base"),
               load_lp_module(HERE.parent, "simplex_ab_change"))
    cases = captured(args.workload, args.seed, instances)
    lines, same = report(compare(modules, cases, args.repeats, w.backend))
    print(f"{args.workload} seed {args.seed}: {instances} instances, {len(cases)} LPs "
          f"on {w.backend}, best of {args.repeats} thread CPU times per LP and side")
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
