"""Day-ahead histories and data-driven scenario generation.

A history is a collection of fully observed past days (per-period bus
loads plus any capacity derates).  Forecasts for a partially observed
day are built by analogy: the k historical days closest to today's
observed prefix — standardized Euclidean distance, channel by channel —
become equiprobable scenarios for the remainder of the day.
"""

from __future__ import annotations

import dataclasses
import types

import numpy as np

from .model import (
    Scenario,
    ScenarioSet,
    ValidatedCase,
    ValidationError,
    _read_series,
    _series,
    check_scenarios,
)


@dataclasses.dataclass(frozen=True)
class HistoryDay:
    """One fully observed day."""

    date: str
    load: dict       # bus -> tuple of MW, one per period
    pmax: dict       # gen -> tuple of MW, one per period

    def period_count(self):
        return len(next(iter(self.load.values())))


class HistoryStore:
    """Equal-length observed days, ordered as loaded, with one read-only
    (days x periods) array per channel, ``("load", bus)`` or ``("pmax", gen)``."""

    def __init__(self, days):
        days = tuple(days)
        if not days:
            raise ValidationError("history has no days")
        counts = {d.period_count() for d in days}
        if len(counts) != 1:
            raise ValidationError(
                f"history days disagree on period count: {sorted(counts)}"
            )
        buses = {tuple(sorted(d.load)) for d in days}
        gens = {tuple(sorted(d.pmax)) for d in days}
        if len(buses) != 1 or len(gens) != 1:
            raise ValidationError("history days disagree on buses or generators")
        seen = set()
        for d in days:
            if d.date in seen:
                raise ValidationError(f"duplicate history date '{d.date}'")
            seen.add(d.date)
            for b, vals in d.load.items():
                if any(v < 0 for v in vals):
                    raise ValidationError(
                        f"history day '{d.date}' has negative load at '{b}'"
                    )
        self.days = days
        self.horizon = days[0].period_count()
        self.buses = tuple(sorted(days[0].load))
        self.gens = tuple(sorted(days[0].pmax))
        self.channels = {(kind, name): np.array([getattr(d, kind)[name] for d in days], float)
                         for kind, names in (("load", self.buses), ("pmax", self.gens))
                         for name in names}
        for a in self.channels.values():
            a.flags.writeable = False
        self._scales = None

    def __len__(self):
        return len(self.days)

    def channel_scales(self):
        """Per-channel standard deviations over the whole history, worked
        out on the first call and kept (a read-only view).

        Channels with no variation scale to 1 so they drop out of the
        distance without dividing by zero."""
        if self._scales is None:
            self._scales = types.MappingProxyType({
                ch: s if (s := float(a.std())) > 1e-12 else 1.0 for ch, a in self.channels.items()})
        return self._scales


def load_history(text: str, case) -> HistoryStore:
    """Parse a history file: day files stacked with a leading date column.

    Layout: ``date,period,load:<bus>,...[,pmax:<gen>,...]`` with one row
    per (date, period).  Periods within each date must be 1..N.  Column
    names are checked against ``case``."""
    case = case.case if isinstance(case, ValidatedCase) else case
    groups = _read_series(text, "history file", case, ("date", "period"), group="date")
    return HistoryStore(
        HistoryDay(date=date, load=_series(records, 1), pmax=_series(records, 2))
        for date, records in groups.items()
    )


# ---------------------------------------------------------------------------
# forecasts


def mean_forecast(scenarios: ScenarioSet) -> ScenarioSet:
    """Collapse a scenario set to its probability-weighted point forecast."""
    check_scenarios(scenarios)
    mean = {}
    for field in ("load", "pmax_override"):
        series = [getattr(s, field) for s in scenarios.scenarios]
        mean[field] = {}
        for k in sorted({k for d in series for k in d}):
            acc = np.zeros(scenarios.horizon)
            for s, d in zip(scenarios.scenarios, series):
                acc += s.prob * np.asarray(d[k], dtype=float)
            mean[field][k] = tuple(float(v) for v in acc)
    return ScenarioSet(scenarios=(Scenario(id="mean", prob=1.0, **mean),),
                       horizon=scenarios.horizon)


def knn_scenarios(store: HistoryStore, observed_load, k=10,
                  observed_pmax=None) -> ScenarioSet:
    """Scenario set from the k nearest historical days.

    ``observed_load`` maps each bus to today's observed prefix (equal
    lengths, at least one period).  Distance is Euclidean over the
    prefix after dividing each channel by its whole-history standard
    deviation; ties break toward the earlier day in the history.  The
    selected days' *full* trajectories become scenarios with probability
    1/k, so the future inherits realistic intra-day shape."""
    if k <= 0:
        raise ValidationError(f"k must be positive, got {k}")
    if k > len(store):
        raise ValidationError(
            f"k={k} exceeds the {len(store)} days of history"
        )
    if set(observed_load) != set(store.buses):
        raise ValidationError("observed prefix does not cover the history's buses")
    lengths = {len(v) for v in observed_load.values()}
    if len(lengths) != 1:
        raise ValidationError("observed prefix has ragged lengths")
    n_obs = lengths.pop()
    if n_obs < 1:
        raise ValidationError("observed prefix is empty")
    if n_obs > store.horizon:
        raise ValidationError(
            f"observed prefix of {n_obs} periods exceeds the history horizon "
            f"{store.horizon}"
        )
    observed_pmax = observed_pmax or {}
    for g in observed_pmax:
        if g not in store.gens:
            raise ValidationError(f"observed pmax for '{g}' not tracked by the history")

    # added channel by channel: the order of the additions decides ties
    scales = store.channel_scales()
    prefix = [(("load", b), observed_load[b]) for b in store.buses]
    prefix += [(("pmax", g), vals) for g, vals in observed_pmax.items()]
    dist2 = np.zeros(len(store))
    for ch, obs in prefix:
        hist = store.channels[ch][:, : len(obs)]
        dist2 += np.sum(((hist - np.asarray(obs, dtype=float)) / scales[ch]) ** 2, axis=1)
    order = np.argsort(dist2, kind="stable")  # stable: ties keep history order
    chosen = order[:k]
    prob = 1.0 / k
    scens = tuple(
        Scenario(
            id=store.days[i].date,
            prob=prob,
            load=dict(store.days[i].load),
            pmax_override=dict(store.days[i].pmax),
        )
        for i in chosen
    )
    return ScenarioSet(scenarios=scens, horizon=store.horizon)
