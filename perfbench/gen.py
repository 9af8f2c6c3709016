"""Seeded synthetic dispatch systems, written in rtdispatch's own file formats.

A ``Rung`` fixes the size of a system; the seed fixes every number in it.
``write_inputs`` emits three files that the public parsers read back:

* ``case.json``    -- the case document ``parse_case`` reads;
* ``day.csv``      -- the realized day ``parse_timeseries`` reads;
* ``history.csv``  -- past days ``load_history`` reads (same day process).

Every system has one priced import at the first bus, a few renewables
whose availability comes from ``pmax:`` columns, cheap slow base units and
dearer fast peakers.  Each day's load climbs steeply part-way through,
faster than the base fleet can follow period by period: a policy that
does not look ahead leans on the import, so the policies settle to
different totals.

Run ``python3 perfbench/gen.py --rung small --seed 1 --out DIR`` to write
one system for inspection.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os

import numpy as np


@dataclasses.dataclass(frozen=True)
class Rung:
    name: str
    buses: int
    gens: int            # every resource: import, renewables, thermal units
    branches: int
    periods: int
    history_days: int
    renewables: int = 1


RUNGS = {
    r.name: r
    for r in (
        Rung("small", buses=3, gens=6, branches=2, periods=12, history_days=20),
        Rung("mid", buses=4, gens=9, branches=3, periods=12, history_days=20),
        Rung("large", buses=30, gens=90, branches=20, periods=12,
             history_days=20, renewables=6),
    )
}


def _num(x):
    return format(float(x), ".6f")


def _day_profile(rng, rung, base_load, shares, ren_caps, ren_level):
    """One day: per-bus load and per-renewable availability, period by period."""
    P = rung.periods
    level = base_load * rng.uniform(0.97, 1.03)
    amp = rng.uniform(0.30, 0.45)
    start = rng.uniform(0.15, 0.35) * P
    width = rng.uniform(0.30, 0.45) * P
    t = np.arange(P, dtype=float)
    x = np.clip((t - start) / width, 0.0, 1.0)
    system = level * (1.0 + amp * x * x * (3.0 - 2.0 * x))
    system *= 1.0 + rng.normal(0.0, 0.01, P)
    load = {}
    for b, share in shares.items():
        noise = 1.0 + rng.normal(0.0, 0.02, P)
        load[b] = np.maximum(0.0, system * share * noise)
    pmax = {}
    for gid, cap in ren_caps.items():
        walk = ren_level[gid] + np.cumsum(rng.normal(0.0, 0.04, P))
        pmax[gid] = cap * np.clip(walk, 0.1, 1.0)
    return load, pmax


def make_system(rung: Rung, seed: int, instance: int = 0):
    """The case document plus the realized day and the history.

    ``instance`` numbers independent systems drawn for the same seed."""
    rng = np.random.default_rng([seed, instance, rung.buses, rung.gens, rung.periods])
    buses = [f"B{i + 1}" for i in range(rung.buses)]
    n_thermal = rung.gens - 1 - rung.renewables
    if n_thermal < 2:
        raise ValueError(f"rung '{rung.name}' leaves fewer than two thermal units")
    n_slow = max(1, int(round(0.7 * n_thermal)))

    thermal = []
    for i in range(n_thermal):
        slow = i < n_slow
        pmax = rng.uniform(40.0, 120.0) if slow else rng.uniform(15.0, 40.0)
        pmin = pmax * rng.uniform(0.15, 0.30) if slow else 0.0
        # ramp rates are MW per minute; base units move under 1% of capacity
        ramp = pmax * (rng.uniform(0.003, 0.006) if slow else rng.uniform(0.04, 0.08))
        n_seg = int(rng.integers(1, 4))
        cuts = np.sort(rng.uniform(0.0, 1.0, n_seg - 1))
        widths = np.diff(np.concatenate([[0.0], cuts, [1.0]])) * (pmax - pmin)
        p0 = rng.uniform(15.0, 30.0) if slow else rng.uniform(45.0, 90.0)
        prices = p0 + np.cumsum(np.concatenate([[0.0], rng.uniform(1.0, 6.0, n_seg - 1)]))
        if slow:
            caps = {"reg": 0.10 * pmax, "spin": 0.15 * pmax}
            cprices = {"reg": rng.uniform(3.0, 6.0), "spin": rng.uniform(1.5, 3.0)}
        else:
            caps = {"spin": 0.30 * pmax, "supp_on": 0.30 * pmax}
            cprices = {"spin": rng.uniform(1.5, 3.0), "supp_on": rng.uniform(0.8, 1.6)}
        thermal.append({
            "id": f"G{i + 1}",
            "bus": buses[int(rng.integers(0, len(buses)))],
            "pmin": pmin, "pmax": pmax, "ramp": ramp, "slow": slow,
            "segments": [{"width": float(w), "price": float(p)}
                         for w, p in zip(widths, prices)],
            "no_load_cost": float(rng.uniform(20.0, 80.0)) if slow else 0.0,
            "reserve_caps": {k: float(v) for k, v in caps.items()},
            "reserve_prices": {k: float(v) for k, v in cprices.items()},
        })

    ren_caps = {f"R{i + 1}": float(rng.uniform(15.0, 40.0)) for i in range(rung.renewables)}
    ren_bus = {gid: buses[int(rng.integers(0, len(buses)))] for gid in ren_caps}
    ren_level = {gid: float(rng.uniform(0.4, 0.8)) for gid in ren_caps}

    slow_cap = sum(g["pmax"] for g in thermal if g["slow"])
    base_load = 0.55 * slow_cap
    shares = dict(zip(buses, rng.dirichlet(np.full(len(buses), 4.0))))

    # start the base fleet near the morning level, pro rata to capacity
    for g in thermal:
        if g["slow"]:
            want = base_load * 0.85 * g["pmax"] / slow_cap
            g["initial_output"] = float(min(g["pmax"], max(g["pmin"], want)))
        else:
            g["initial_output"] = 0.0

    peak = base_load * 1.45
    generators = [{
        "id": "GI", "bus": buses[0], "pmin": 0.0, "pmax": float(peak),
        "initial_output": 0.0, "ramp_up": float(peak), "ramp_down": float(peak),
        "segments": [{"width": float(peak), "price": 1000.0}],
        "no_load_cost": 0.0, "reserve_caps": {}, "reserve_prices": {},
        "is_import": True,
    }]
    for gid, cap in ren_caps.items():
        generators.append({
            "id": gid, "bus": ren_bus[gid], "pmin": 0.0, "pmax": cap,
            "initial_output": 0.0, "ramp_up": cap, "ramp_down": cap,
            "segments": [{"width": cap, "price": float(rng.uniform(0.0, 3.0))}],
            "no_load_cost": 0.0, "reserve_caps": {}, "reserve_prices": {},
            "is_import": False,
        })
    for g in thermal:
        generators.append({
            "id": g["id"], "bus": g["bus"], "pmin": float(g["pmin"]),
            "pmax": float(g["pmax"]), "initial_output": g["initial_output"],
            "ramp_up": float(g["ramp"]), "ramp_down": float(g["ramp"]),
            "segments": g["segments"], "no_load_cost": g["no_load_cost"],
            "reserve_caps": g["reserve_caps"], "reserve_prices": g["reserve_prices"],
            "is_import": False,
        })

    # flowgate limits sit near the flow of a pro-rata dispatch at peak, so
    # some of them bind once the load has climbed
    inj = {b: -peak * shares[b] for b in buses}
    for g in thermal:
        inj[g["bus"]] += peak * g["pmax"] / slow_cap * 0.8
    branches = []
    for k in range(rung.branches):
        members = rng.choice(len(buses), size=min(len(buses), int(rng.integers(2, 5))),
                             replace=False)
        ptdf = {buses[int(i)]: float(rng.uniform(-0.45, 0.45)) for i in sorted(members)}
        flow = abs(sum(c * inj[b] for b, c in ptdf.items()))
        limit = max(5.0, flow * rng.uniform(0.8, 1.3))
        branches.append({
            "id": f"E{k + 1}", "ptdf": ptdf, "limit_lo": -limit, "limit_hi": limit,
            "violation_price": 1500.0, "monitored": True,
        })

    case = {
        "name": f"{rung.name}-{seed}-{instance}",
        "step_minutes": 5.0,
        "base_mva": 100.0,
        "buses": buses,
        "reserve_req": {"reg": 0.03 * base_load, "rspin": 0.06 * base_load,
                        "op": 0.10 * base_load},
        "penalties": {"shortage": 100000.0, "surplus": 100000.0, "reg": 55000.0,
                      "rspin": 52500.0, "op": 50000.0},
        "generators": generators,
        "branches": branches,
    }
    days = [_day_profile(rng, rung, base_load, shares, ren_caps, ren_level)
            for _ in range(rung.history_days + 1)]
    return case, days[-1], days[:-1]


def _rows(load, pmax, periods):
    for t in range(periods):
        yield [str(t + 1)] + [_num(v[t]) for v in load.values()] + \
            [_num(v[t]) for v in pmax.values()]


def day_csv(day, periods):
    load, pmax = day
    header = ["period"] + [f"load:{b}" for b in load] + [f"pmax:{g}" for g in pmax]
    lines = [",".join(header)]
    lines += [",".join(r) for r in _rows(load, pmax, periods)]
    return "\n".join(lines) + "\n"


def history_csv(days, periods):
    load, pmax = days[0]
    header = ["date", "period"] + [f"load:{b}" for b in load] + \
        [f"pmax:{g}" for g in pmax]
    lines = [",".join(header)]
    for d, (load, pmax) in enumerate(days):
        date = f"day{d + 1:03d}"
        lines += [",".join([date] + r) for r in _rows(load, pmax, periods)]
    return "\n".join(lines) + "\n"


def write_inputs(out_dir, rung: Rung, seed: int, instance: int = 0):
    """Write case.json, day.csv and history.csv; returns their paths."""
    case, day, history = make_system(rung, seed, instance)
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "case": os.path.join(out_dir, "case.json"),
        "day": os.path.join(out_dir, "day.csv"),
        "history": os.path.join(out_dir, "history.csv"),
    }
    texts = {
        "case": json.dumps(case, indent=2) + "\n",
        "day": day_csv(day, rung.periods),
        "history": history_csv(history, rung.periods),
    }
    for key, path in paths.items():
        with open(path, "w") as fh:
            fh.write(texts[key])
    return paths


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rung", choices=sorted(RUNGS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--instance", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    paths = write_inputs(args.out, RUNGS[args.rung], args.seed, args.instance)
    for path in paths.values():
        print(path)


if __name__ == "__main__":
    main()
