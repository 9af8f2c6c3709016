"""Forecast tests: history files, mean collapse, nearest-neighbor scenarios."""

import numpy as np
import pytest

from rtdispatch.forecast import (
    HistoryDay,
    HistoryStore,
    knn_scenarios,
    load_history,
    mean_forecast,
)
from rtdispatch.model import (
    CaseFormatError,
    Scenario,
    ScenarioSet,
    ValidationError,
    check_scenarios,
    parse_case,
    validate_case,
)

from conftest import make_case3, make_toy_scenarios
from helpers import DATA, format_history


def _toy_store(seed=0, n_days=9, horizon=6):
    rng = np.random.default_rng(seed)
    days = []
    for i in range(n_days):
        base = 20.0 + 4.0 * np.sin(np.linspace(0.0, 2.5, horizon) + 0.3 * i)
        days.append(
            HistoryDay(
                date=f"d{i:02d}",
                load={"B1": tuple(float(v) for v in base + rng.normal(0, 1.0, horizon))},
                pmax={},
            )
        )
    return HistoryStore(days)


def _case3_store(seed=0, n_days=7, horizon=5):
    rng = np.random.default_rng(100 + seed)
    days = []
    for i in range(n_days):
        load = {
            b: tuple(float(v) for v in rng.uniform(15, 60, horizon))
            for b in ("B1", "B2", "B3")
        }
        pmax = {"G3": tuple(float(v) for v in rng.uniform(18, 40, horizon))}
        days.append(HistoryDay(date=f"2024-01-{i + 1:02d}", load=load, pmax=pmax))
    return HistoryStore(days)


# ---------------------------------------------------------------------------
# store and file format


def test_history_round_trip():
    store = _case3_store()
    text = format_history(store)
    back = load_history(text, validate_case(make_case3()))
    assert len(back) == len(store)
    assert back.horizon == store.horizon
    for a, b in zip(back.days, store.days):
        assert a.date == b.date
        for bus in a.load:
            np.testing.assert_allclose(a.load[bus], b.load[bus], rtol=1e-9)
        np.testing.assert_allclose(a.pmax["G3"], b.pmax["G3"], rtol=1e-9)


def test_history_file_errors():
    case = validate_case(make_case3())
    with pytest.raises(CaseFormatError, match="missing 'date'"):
        load_history("period,load:B1\n1,10\n", case)
    with pytest.raises(CaseFormatError, match="unknown bus"):
        load_history("date,period,load:BX\nd1,1,10\n", case)
    with pytest.raises(CaseFormatError, match="unrecognized column"):
        load_history("date,period,load:B1,w\nd1,1,10,2\n", case)
    with pytest.raises(CaseFormatError, match="duplicate period"):
        load_history(
            "date,period,load:B1,load:B2,load:B3\nd1,1,1,1,1\nd1,1,2,2,2\n", case
        )
    with pytest.raises(CaseFormatError, match="not 1..2"):
        load_history(
            "date,period,load:B1,load:B2,load:B3\nd1,1,1,1,1\nd1,3,2,2,2\n", case
        )
    with pytest.raises(CaseFormatError, match="no load columns"):
        load_history("date,period\nd1,1\n", case)


def test_store_invariants():
    with pytest.raises(ValidationError, match="no days"):
        HistoryStore([])
    a = HistoryDay(date="a", load={"B1": (1.0, 2.0)}, pmax={})
    b = HistoryDay(date="b", load={"B1": (1.0,)}, pmax={})
    with pytest.raises(ValidationError, match="period count"):
        HistoryStore([a, b])
    c = HistoryDay(date="a", load={"B1": (3.0, 4.0)}, pmax={})
    with pytest.raises(ValidationError, match="duplicate"):
        HistoryStore([a, c])
    neg = HistoryDay(date="n", load={"B1": (-1.0, 2.0)}, pmax={})
    with pytest.raises(ValidationError, match="negative load"):
        HistoryStore([neg])
    # a NaN load or an infinite pmax was accepted
    for day, message in (
            (HistoryDay(date="n", load={"B1": (1.0, float("nan"))}, pmax={"G1": (5.0, 5.0)}),
             "^history day 'n' has non-finite load for 'B1' at period 2: nan$"),
            (HistoryDay(date="n", load={"B1": (1.0, 2.0)}, pmax={"G1": (float("inf"), 5.0)}),
             "^history day 'n' has non-finite pmax for 'G1' at period 1: inf$")):
        with pytest.raises(ValidationError, match=message):
            HistoryStore([HistoryDay(date="a", load={"B1": (1.0, 2.0)}, pmax={"G1": (5.0, 5.0)}),
                          day])
    for other in (HistoryDay(date="o", load={"B2": (1.0, 2.0)}, pmax={}),
                  HistoryDay(date="o", load={"B1": (1.0, 2.0)}, pmax={"G1": (5.0, 5.0)})):
        with pytest.raises(ValidationError, match="disagree on buses or generators"):
            HistoryStore([a, other])


# ---------------------------------------------------------------------------
# mean forecast


def test_mean_forecast_golden():
    mean = mean_forecast(make_toy_scenarios())
    assert mean.n_scenarios == 1
    assert mean.scenarios[0].prob == 1.0
    assert mean.scenarios[0].load["B1"] == pytest.approx((10.0, 33.0))


def test_mean_forecast_weighs_probabilities():
    ss = ScenarioSet(
        scenarios=(
            Scenario(id="a", prob=0.75, load={"B1": (8.0,)}, pmax_override={"G": (40.0,)}),
            Scenario(id="b", prob=0.25, load={"B1": (16.0,)}, pmax_override={"G": (20.0,)}),
        ),
        horizon=1,
    )
    mean = mean_forecast(ss)
    assert mean.scenarios[0].load["B1"][0] == pytest.approx(10.0)
    assert mean.scenarios[0].pmax_override["G"][0] == pytest.approx(35.0)


# ---------------------------------------------------------------------------
# nearest neighbors


def test_knn_matches_brute_force():
    store = _toy_store(seed=7)
    rng = np.random.default_rng(7)
    for n_obs in (1, 3, 6):
        obs = {"B1": tuple(float(v) for v in rng.uniform(15, 28, n_obs))}
        got = knn_scenarios(store, obs, k=4)

        # independent re-derivation: plain loops, same standardization
        scale = np.array([d.load["B1"] for d in store.days]).std()
        dists = []
        for i, day in enumerate(store.days):
            acc = sum(
                ((day.load["B1"][t] - obs["B1"][t]) / scale) ** 2
                for t in range(n_obs)
            )
            dists.append((acc, i))
        expect = [store.days[i].date for _d, i in sorted(dists)[:4]]
        assert [s.id for s in got.scenarios] == expect
        assert all(s.prob == pytest.approx(0.25) for s in got.scenarios)
        check_scenarios(got)


def test_channel_scales_are_kept_and_equal_a_recomputation():
    store = _case3_store()
    flat = HistoryStore([HistoryDay(date=f"d{i}", load={"B1": (5.0, 5.0)}, pmax={})
                         for i in range(3)])
    for st in (store, flat):
        scales = st.channel_scales()
        assert st.channel_scales() is scales  # worked out once per store
        want = {}
        for kind, names, field in (("load", st.buses, "load"), ("pmax", st.gens, "pmax")):
            for name in names:
                std = float(np.array([getattr(d, field)[name] for d in st.days]).std())
                want[(kind, name)] = std if std > 1e-12 else 1.0
        assert list(scales.items()) == list(want.items())
        assert [repr(v) for v in scales.values()] == [repr(v) for v in want.values()]
        with pytest.raises(TypeError):
            scales[("load", "B1")] = 2.0
    assert flat.channel_scales() == {("load", "B1"): 1.0}


def _per_day_nearest(store, obs_load, obs_pmax, k):
    """The k nearest days by a distance summed day by day, channel by
    channel: the per-day loop knn_scenarios must agree with."""
    scales = store.channel_scales()
    dist2 = np.zeros(len(store))
    for i, day in enumerate(store.days):
        acc = 0.0
        for b in store.buses:
            hist = np.asarray(day.load[b][: len(obs_load[b])], dtype=float)
            acc += float(np.sum(((hist - np.asarray(obs_load[b])) / scales[("load", b)]) ** 2))
        for g, vals in obs_pmax.items():
            hist = np.asarray(day.pmax[g][: len(vals)], dtype=float)
            acc += float(np.sum(((hist - np.asarray(vals)) / scales[("pmax", g)]) ** 2))
        dist2[i] = acc
    return [store.days[i].date for i in np.argsort(dist2, kind="stable")[:k]]


@pytest.mark.parametrize("rung", ["small", "mid", "large"])
def test_knn_picks_the_days_a_per_day_loop_picks(rung, tmp_path, monkeypatch):
    # each bench rung's history, with two days repeated under later dates so
    # that ties occur; every prefix of the rung's own day, with and without
    # the tracked derates
    from pathlib import Path

    from rtdispatch.model import parse_case, parse_timeseries

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import gen

    paths = gen.write_inputs(tmp_path, gen.RUNGS[rung], seed=3, instance=0)
    vc = validate_case(parse_case(Path(paths["case"]).read_text()))
    day = parse_timeseries(Path(paths["day"]).read_text(), vc).scenarios[0]
    hist = load_history(Path(paths["history"]).read_text(), vc)
    repeats = [HistoryDay(date=f"z{i}", load=d.load, pmax=d.pmax)
               for i, d in enumerate(hist.days[3:5])]
    store = HistoryStore(hist.days + tuple(repeats))
    for n_obs in range(1, store.horizon + 1):
        obs_load = {b: day.load[b][:n_obs] for b in store.buses}
        for obs_pmax in ({}, {g: day.pmax_override[g][:n_obs] for g in store.gens}):
            for k in (1, 4, len(store)):
                got = knn_scenarios(store, obs_load, k=k, observed_pmax=obs_pmax)
                want = _per_day_nearest(store, obs_load, obs_pmax, k)
                assert [s.id for s in got.scenarios] == want


def test_knn_returns_full_trajectories():
    store = _case3_store()
    obs = {b: store.days[3].load[b][:2] for b in store.buses}
    got = knn_scenarios(store, obs, k=2, observed_pmax={"G3": store.days[3].pmax["G3"][:2]})
    assert got.horizon == store.horizon
    assert got.scenarios[0].id == store.days[3].date  # exact prefix match wins
    assert got.scenarios[0].load["B2"] == store.days[3].load["B2"]
    assert got.scenarios[0].pmax_override["G3"] == store.days[3].pmax["G3"]


def test_knn_is_invariant_to_channel_rescaling():
    store = _toy_store(seed=11)
    obs = {"B1": (22.0, 19.5)}
    base = [s.id for s in knn_scenarios(store, obs, k=3).scenarios]

    scaled_days = [
        HistoryDay(
            date=d.date,
            load={"B1": tuple(40.0 * v for v in d.load["B1"])},
            pmax={},
        )
        for d in store.days
    ]
    scaled_obs = {"B1": tuple(40.0 * v for v in obs["B1"])}
    scaled = [
        s.id
        for s in knn_scenarios(HistoryStore(scaled_days), scaled_obs, k=3).scenarios
    ]
    assert scaled == base


def test_knn_ties_break_toward_earlier_days():
    twin = HistoryDay(date="later", load={"B1": (5.0, 6.0)}, pmax={})
    first = HistoryDay(date="first", load={"B1": (5.0, 6.0)}, pmax={})
    other = HistoryDay(date="other", load={"B1": (9.0, 1.0)}, pmax={})
    store = HistoryStore([first, other, twin])
    got = knn_scenarios(store, {"B1": (5.0,)}, k=1)
    assert got.scenarios[0].id == "first"


def test_knn_argument_errors():
    store = _toy_store()
    obs = {"B1": (20.0,)}
    with pytest.raises(ValidationError, match="exceeds the"):
        knn_scenarios(store, obs, k=len(store) + 1)
    with pytest.raises(ValidationError, match="positive"):
        knn_scenarios(store, obs, k=0)
    with pytest.raises(ValidationError, match="cover"):
        knn_scenarios(store, {"B9": (20.0,)}, k=2)
    with pytest.raises(ValidationError, match="exceeds the history horizon"):
        knn_scenarios(store, {"B1": tuple(range(10))}, k=2)
    with pytest.raises(ValidationError, match="empty"):
        knn_scenarios(store, {"B1": ()}, k=2)
    with pytest.raises(ValidationError, match="not tracked"):
        knn_scenarios(store, obs, k=2, observed_pmax={"GX": (1.0,)})
    two_bus = HistoryStore([HistoryDay(date="d", load={"B1": (1.0, 2.0), "B2": (3.0, 4.0)},
                                       pmax={})])
    with pytest.raises(ValidationError, match="ragged"):
        knn_scenarios(two_bus, {"B1": (1.0,), "B2": (3.0, 4.0)}, k=1)


def test_knn_rejects_a_prefix_of_another_length_or_not_finite():
    # a short or long pmax prefix was accepted, so distances used another
    # prefix (or numpy failed to broadcast one longer than the day), and
    # all-NaN observations silently picked the first days
    vc = validate_case(parse_case((DATA / "network_case.json").read_text()))
    store = load_history((DATA / "network_history.csv").read_text(), vc)
    obs = {b: store.channels[("load", b)][0, :2].tolist() for b in store.buses}
    for n in (1, 3, 11):
        with pytest.raises(ValidationError,
                           match=f"^observed pmax for 'G3' has {n} periods, the load prefix 2$"):
            knn_scenarios(store, obs, k=2, observed_pmax={"G3": [50.0] * n})
    with pytest.raises(ValidationError, match="^observed load for 'B1' is not finite"):
        knn_scenarios(store, {b: [float("nan")] * 2 for b in obs}, k=2)
    with pytest.raises(ValidationError, match="^observed pmax for 'G3' is not finite"):
        knn_scenarios(store, obs, k=2, observed_pmax={"G3": [50.0, float("inf")]})
    assert len(knn_scenarios(store, obs, k=2, observed_pmax={"G3": [50.0] * 2}).scenarios) == 2
