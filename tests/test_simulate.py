"""Synthetic market: arrivals, purchases, delivery-day auctions, evaluation.

Why purchases are capped by remaining supply only, not by the plan's per-step
quota: the posted price is chosen so that the EXPECTED number of buyers equals
the planned sales, so the realized count straddles the plan value. Capping at
the plan value would keep the downside and cut the upside, biasing realized
sales low by E[q - min(X, q)], roughly 0.4 standard deviations per step. The
mean-unbiased semantics is what lets realized per-step sales track the plan
within Monte Carlo error, which is asserted here and, harder, in the
acceptance suite.
"""

import dataclasses
import math
import re
from datetime import datetime, timedelta, timezone
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pgrtb.auction import BidModel
from pgrtb import logs
from pgrtb.logs import summarize_auctions
from pgrtb.market import MarketConfig, StepTerms, TimeGrid
from pgrtb.market import reference_config
from pgrtb.simulate import _BLOCK, _auctions, evaluate_plan, generate_log
from pgrtb.solver import PricePlan, _MarketTables, _solve, optimal_plan

from oracles import (arrivals, loop_auctions, loop_simulate_rtb, market_once, purchases,
                     sorted_auctions)

UTC = timezone.utc


def sim_config():
    return MarketConfig(
        supply_S=30, demand_Q=120, horizon_T=10.0, steps_N=10,
        arrival_rate_lambda=6.0, initial_arrival_mass=0.25,
        price_effect_alpha=1.8, time_effect_beta=0.05,
        risk_level_zeta=5.0, risk_decay_v=0.15,
        miss_prob_omega=0.04, penalty_size_varpi=0.5,
        max_value_pi=0.55,
    )


def test_generate_arrivals_seeded():
    cfg = sim_config()
    grid = TimeGrid.from_config(cfg)
    a = arrivals(StepTerms(cfg, grid), seed=1)
    b = arrivals(StepTerms(cfg, grid), seed=1)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (cfg.steps_N + 1,)
    # the opening block is deterministic and sits on top of the Poisson draw
    assert a[0] >= math.floor(cfg.initial_arrival_mass * cfg.demand_Q)


def test_generate_arrivals_mean():
    cfg = sim_config()
    grid = TimeGrid.from_config(cfg)
    draws = np.array([arrivals(StepTerms(cfg, grid), seed=s)[1:].sum()
                      for s in range(400)])
    lam_total = cfg.arrival_rate_lambda * cfg.delta_t * cfg.steps_N
    assert abs(draws.mean() - lam_total) < 5 * math.sqrt(lam_total / 400)


def test_simulate_purchases_closed_plan_sells_nothing():
    cfg = sim_config()
    grid = TimeGrid.from_config(cfg)
    plan = PricePlan(
        prices=np.full(11, 0.5), sales=np.zeros(11, dtype=int),
        bounds=np.full(11, 0.5), gamma=0.0, revenue_pg=0.0,
        revenue_rtb=0.0, revenue_total=0.0, xi_terminal=4.0)
    sold, revenue = purchases(plan, cfg, StepTerms(cfg, grid), seed=3)
    assert sold.sum() == 0 and revenue == 0.0


def test_simulate_purchases_respects_supply_cap():
    cfg = sim_config()
    grid = TimeGrid.from_config(cfg)
    # a giveaway price: everyone waiting buys, which must still stop at S
    sales = np.zeros(11, dtype=int)
    sales[0] = cfg.supply_S
    plan = PricePlan(
        prices=np.full(11, 1e-9), sales=sales,
        bounds=np.full(11, 1.0), gamma=1.0, revenue_pg=0.0,
        revenue_rtb=0.0, revenue_total=0.0, xi_terminal=math.inf)
    for seed in range(5):
        sold, _ = purchases(plan, cfg, StepTerms(cfg, grid), seed=seed)
        assert sold.sum() <= cfg.supply_S


def test_simulate_purchases_tracks_plan_means():
    cfg = sim_config()
    grid = TimeGrid.from_config(cfg)
    plan, _ = optimal_plan(cfg, grid, BidModel.uniform(0.0, 1.0))
    runs = 300
    sold = np.vstack([purchases(plan, cfg, StepTerms(cfg, grid), seed=s)[0]
                      for s in range(runs)])
    mean = sold.mean(axis=0)
    se = sold.std(axis=0, ddof=0) / math.sqrt(runs)
    for n in range(cfg.steps_N + 1):
        if plan.sales[n] == 0:
            assert mean[n] == 0.0
        else:
            assert abs(mean[n] - plan.sales[n]) < 5 * se[n]


def test_simulate_purchases_rejects_tail_plans():
    cfg = sim_config()
    grid = TimeGrid.from_config(cfg)
    tables = _MarketTables(cfg, grid).set_demand(BidModel.uniform(0.0, 1.0), None)
    plan, _ = _solve(tables, 2, 0)  # a tail solve from step 2
    with pytest.raises(ValueError):
        purchases(plan, cfg, StepTerms(cfg, grid), seed=0)


def block_rtb(supply, demand, model, seed, reserve=0.0):
    """``_auctions`` on one market, from ``seed``'s stream."""
    return float(_auctions(np.array([supply]), np.array([demand]), model,
                           np.random.default_rng(seed), reserve)[0])


def test_simulate_rtb_edges():
    model = BidModel.uniform(0.0, 1.0)
    assert loop_simulate_rtb(0, 50, model, seed=1)[0] == 0.0
    assert loop_simulate_rtb(5, 0, model, seed=1, reserve=0.2)[0] == 1.0
    with pytest.raises(ValueError):
        loop_simulate_rtb(-1, 5, model, seed=1)


def test_simulate_rtb_log_reconciles_with_revenue():
    """Summarizing the per-impression oracle's log must reproduce the revenue
    bookkeeping."""
    model = BidModel.uniform(0.1, 1.0)
    supply, demand, reserve = 40, 130, 0.05
    revenue, log = loop_simulate_rtb(supply, demand, model, seed=8, reserve=reserve)
    assert revenue == block_rtb(supply, demand, model, seed=8, reserve=reserve)
    assert len(log) == demand  # every bid lands on exactly one impression
    table = summarize_auctions(log)
    covered = sum(table.bids[table.offsets[:-1][table.xi_observed >= 2] + 1].tolist())
    thin = int(np.sum(table.xi_observed == 1))
    empty = supply - len(table)
    assert revenue == pytest.approx(covered + reserve * (thin + empty), abs=1e-9)
    assert all(ts is not None for ts in log.timestamp)


_BID_LAWS = {
    "uniform": BidModel.uniform(0.1, 1.0),
    "lognormal": BidModel.lognormal(-0.5, 0.8),
    "empirical": BidModel.empirical(np.random.default_rng(3).uniform(0.2, 1.4, 50)),
    "point mass": BidModel.empirical([0.4, 0.4]),  # every bid ties
}


@given(supply=st.integers(1, 40), demand=st.integers(0, 160),
       law=st.sampled_from(sorted(_BID_LAWS)), reserve=st.sampled_from([0.0, 0.05, 0.7]),
       seed=st.integers(0, 2**32 - 1))
@example(supply=7, demand=0, law="uniform", reserve=0.05, seed=1)
@example(supply=30, demand=12, law="lognormal", reserve=0.05, seed=2)
@example(supply=1, demand=9, law="empirical", reserve=0.0, seed=3)
@example(supply=1, demand=1, law="uniform", reserve=0.7, seed=4)
@example(supply=15, demand=60, law="point mass", reserve=0.05, seed=5)
def test_simulate_rtb_matches_per_impression_oracle(supply, demand, law, reserve, seed):
    """The grouped auction's revenue equals the impression-by-impression
    loop's bit for bit: no bidders, fewer bidders than impressions, one
    impression, ties and a reserve included."""
    model = _BID_LAWS[law]
    want, _ = loop_simulate_rtb(supply, demand, model, seed, reserve=reserve)
    assert block_rtb(supply, demand, model, seed, reserve=reserve) == want


@given(markets=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 40)), min_size=1,
                        max_size=6),
       law=st.sampled_from(sorted(_BID_LAWS)), reserve=st.sampled_from([0.0, 0.3]),
       seed=st.integers(0, 2**32 - 1))
@example(markets=[(0, 9), (3, 0), (1, 4), (0, 0)], law="uniform", reserve=0.3, seed=6)
def test_block_auctions_match_per_impression_oracle(markets, law, reserve, seed):
    """Several markets' auctions at once, markets without impressions or
    without bidders among them: each market's revenue is the loop's, bit for
    bit, from the same stream."""
    supply, demand = (np.array(column) for column in zip(*markets))
    got = _auctions(supply, demand, _BID_LAWS[law], np.random.default_rng(seed), reserve)
    want, _ = loop_auctions(supply, demand, _BID_LAWS[law], np.random.default_rng(seed),
                            reserve=reserve)
    assert got.tolist() == want


# laws whose bids tie: every bid, and the atoms at 0.5 and at the top 0.9
_TIED_LAWS = {**_BID_LAWS, "repeated bids": BidModel(
    "empirical", edges=[0.2, 0.5, 0.5, 0.9, 0.9], counts=[1, 3, 1, 2])}


@given(markets=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 40)), min_size=1,
                        max_size=6),
       law=st.sampled_from(sorted(_TIED_LAWS)), reserve=st.sampled_from([0.0, 0.3, 2.0]),
       seed=st.integers(0, 2**32 - 1))
@example(markets=[(0, 9), (3, 0), (1, 4), (0, 0)], law="repeated bids", reserve=0.3, seed=6)
@example(markets=[(2, 40), (5, 1)], law="point mass", reserve=2.0, seed=7)
@example(markets=[(1, 30), (4, 25)], law="repeated bids", reserve=2.0, seed=8)
def test_auctions_match_the_sorted_oracle_byte_for_byte(markets, law, reserve, seed):
    """Each impression's top two bids as scatter maxima pay what sorting every
    bid pays, byte for byte: ties at the top and below it, a reserve above every
    bid, and markets without impressions or without bidders included."""
    supply, demand = (np.array(column) for column in zip(*markets))
    got, want = (run(supply, demand, _TIED_LAWS[law], np.random.default_rng(seed), reserve)
                 for run in (_auctions, sorted_auctions))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("law", ["uniform", "point mass", "repeated bids"])
def test_evaluate_plan_matches_the_sorted_oracle(law, monkeypatch):
    """A plan's summary and per-market array are those of the sorted auctions."""
    cfg = sim_config()
    grid = TimeGrid.from_config(cfg)
    model = _TIED_LAWS[law]
    plan, _ = optimal_plan(cfg, grid, BidModel.uniform(0.0, 1.0))
    got = evaluate_plan(plan, cfg, grid, model, n_runs=70, seed=4)
    monkeypatch.setattr("pgrtb.simulate._auctions", sorted_auctions)
    want = evaluate_plan(plan, cfg, grid, model, n_runs=70, seed=4)
    assert got[0] == want[0]
    assert got[1].tobytes() == want[1].tobytes()


def test_auctions_sort_nothing(monkeypatch):
    """No sort creeps back into the auctions: with numpy's sorts refusing, every
    law's auctions still run, and the sorted oracle is refused."""
    def refuse(*args, **kwargs):
        raise AssertionError("the auctions sorted their bids")

    for name in ("lexsort", "argsort", "sort"):
        monkeypatch.setattr(np, name, refuse)
    supply, demand = np.array([5, 0, 3, 1]), np.array([30, 4, 9, 1])
    for model in _TIED_LAWS.values():
        _auctions(supply, demand, model, np.random.default_rng(1), 0.1)
    with pytest.raises(AssertionError, match="sorted"):
        sorted_auctions(supply, demand, _BID_LAWS["uniform"], np.random.default_rng(1), 0.1)


def test_simulate_rtb_deterministic():
    model = BidModel.lognormal(0.0, 0.5)
    a = loop_simulate_rtb(20, 60, model, seed=12)[0]
    b = loop_simulate_rtb(20, 60, model, seed=12)[0]
    assert a == b
    assert loop_simulate_rtb(20, 60, model, seed=13)[0] != a


def test_run_market_once_accounting():
    cfg = sim_config()
    grid = TimeGrid.from_config(cfg)
    model = BidModel.uniform(0.0, 1.0)
    plan, _ = optimal_plan(cfg, grid, model)
    out = market_once(plan, cfg, StepTerms(cfg, grid), model, seed=4)
    assert 0.0 <= out["delivered_fraction"] <= 1.0
    assert out["pg_sold"].sum() <= cfg.supply_S
    # without delivery failures the realized gross revenue is untouched
    sure = dataclasses.replace(cfg, miss_prob_omega=0.0)
    plan2, _ = optimal_plan(sure, grid, model)
    out2 = market_once(plan2, sure, StepTerms(sure, grid), model, seed=4)
    assert out2["delivered_fraction"] == 1.0
    assert out2["pg_revenue"] == pytest.approx(
        float(np.sum(np.asarray(plan2.prices) * out2["pg_sold"])))


def test_evaluate_plan_summary():
    """The summary and the per-market array repeat per seed, and the
    summary's means are those of the array's fields."""
    cfg = sim_config()
    grid = TimeGrid.from_config(cfg)
    model = BidModel.uniform(0.0, 1.0)
    plan, _ = optimal_plan(cfg, grid, model)
    s1, o1 = evaluate_plan(plan, cfg, grid, model, n_runs=40, seed=9)
    s2, o2 = evaluate_plan(plan, cfg, grid, model, n_runs=40, seed=9)
    assert s1 == s2
    assert o1.tobytes() == o2.tobytes()
    assert o1.shape == (40,) and o1.dtype.names == (
        "pg_sold", "pg_revenue", "rtb_revenue", "delivered_fraction")
    assert o1["pg_sold"].shape == (40, cfg.steps_N + 1)
    assert o1["pg_sold"].dtype.kind == "i"
    assert s1["mean_total"] == float((o1["pg_revenue"] + o1["rtb_revenue"]).mean())
    assert (s1["mean_pg"], s1["mean_rtb"], s1["mean_delivered_fraction"]) == (
        float(o1["pg_revenue"].mean()), float(o1["rtb_revenue"].mean()),
        float(o1["delivered_fraction"].mean()))
    assert s1["mean_sold_per_step"] == o1["pg_sold"].mean(axis=0).tolist()
    assert s1["se_total"] == pytest.approx(s1["std_total"] / math.sqrt(40))
    assert set(s1["quantiles"]) == {"q05", "q25", "q50", "q75", "q95"}
    assert len(s1["mean_sold_per_step"]) == cfg.steps_N + 1
    with pytest.raises(ValueError):
        evaluate_plan(plan, cfg, grid, model, n_runs=0, seed=1)


def test_a_seed_sequence_draws_the_same_markets_every_call():
    """Block seeds derive from a passed SeedSequence without spawning from it,
    so it is not advanced: every call draws the markets of its int seed. A
    spawned child's blocks hang below its own spawn key."""
    cfg = reference_config()
    grid = TimeGrid.from_config(cfg)
    model = BidModel.uniform(0.0, 1.0)
    plan, _ = optimal_plan(cfg, grid, model)
    root = np.random.SeedSequence(5)
    first, _ = evaluate_plan(plan, cfg, grid, model, n_runs=40, seed=root)
    again, _ = evaluate_plan(plan, cfg, grid, model, n_runs=40, seed=root)
    by_int, _ = evaluate_plan(plan, cfg, grid, model, n_runs=40, seed=5)
    assert first == again == by_int
    assert root.n_children_spawned == 0
    child = np.random.SeedSequence(5).spawn(2)[1]
    by_child, _ = evaluate_plan(plan, cfg, grid, model, n_runs=40, seed=child)
    assert by_child != by_int
    assert by_child == evaluate_plan(plan, cfg, grid, model, n_runs=40,
                                     seed=np.random.SeedSequence(5, spawn_key=(1,)))[0]


def test_block_markets_follow_the_plan():
    """Simulated markets sell nothing at closed steps, never more than the
    supply, book a failure-free market's contract revenue at the posted
    prices, and refuse tail plans and negative open prices."""
    cfg = sim_config()
    grid = TimeGrid.from_config(cfg)
    model = BidModel.uniform(0.0, 1.0)
    closed = PricePlan(
        prices=np.full(11, 0.5), sales=np.zeros(11, dtype=int),
        bounds=np.full(11, 0.5), gamma=0.0, revenue_pg=0.0,
        revenue_rtb=0.0, revenue_total=0.0, xi_terminal=4.0)
    _, markets = evaluate_plan(closed, cfg, grid, model, n_runs=40, seed=3)
    assert (markets["pg_sold"] == 0).all() and (markets["pg_revenue"] == 0.0).all()
    sales = np.zeros(11, dtype=int)
    sales[0] = cfg.supply_S  # a giveaway price: everyone waiting buys, which must stop at S
    giveaway = dataclasses.replace(closed, prices=np.full(11, 1e-9), sales=sales)
    _, markets = evaluate_plan(giveaway, cfg, grid, model, n_runs=40, seed=3)
    assert markets["pg_sold"].sum(axis=1).max() == cfg.supply_S
    sure = dataclasses.replace(cfg, miss_prob_omega=0.0)
    plan, _ = optimal_plan(sure, grid, model)
    _, markets = evaluate_plan(plan, sure, grid, model, n_runs=40, seed=4)
    for out in markets:
        assert out["delivered_fraction"] == 1.0
        assert out["pg_revenue"] == pytest.approx(float(np.sum(plan.prices * out["pg_sold"])))
    tables = _MarketTables(cfg, grid).set_demand(model, None)
    tail, _ = _solve(tables, 2, 0)  # a tail solve from step 2
    with pytest.raises(ValueError, match="full-horizon"):
        evaluate_plan(tail, cfg, grid, model, n_runs=1, seed=0)
    negative = dataclasses.replace(giveaway, prices=np.full(11, -0.1))
    with pytest.raises(ValueError, match="non-negative"):
        evaluate_plan(negative, cfg, grid, model, n_runs=1, seed=0)


def test_outcomes_keep_the_n_runs_prefix():
    """Market k is drawn from its block's stream alone, and a block always
    draws all its markets: any run count's outcomes are the first of a
    larger count's, across block ends too."""
    cfg = sim_config()
    grid = TimeGrid.from_config(cfg)
    model = BidModel.lognormal(-0.5, 0.5)
    plan, _ = optimal_plan(cfg, grid, model)
    _, full = evaluate_plan(plan, cfg, grid, model, n_runs=4 * _BLOCK + 5, seed=21)
    for n_runs in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7):
        _, some = evaluate_plan(plan, cfg, grid, model, n_runs=n_runs, seed=21)
        assert len(some) == n_runs
        assert some.tobytes() == full[:n_runs].tobytes()


def test_block_streams_agree_with_the_per_market_oracle():
    """Over 4,000 reference markets, the block draws and the one-market-at-a-
    time replay agree within 3 standard errors of their difference on the
    mean total revenue, on every step's mean sales and on the delivery rate."""
    cfg = reference_config()
    grid = TimeGrid.from_config(cfg)
    model = BidModel.uniform(0.0, 1.0)
    plan, _ = optimal_plan(cfg, grid, model)
    runs = 4000
    _, blocks = evaluate_plan(plan, cfg, grid, model, n_runs=runs, seed=2024)
    terms = StepTerms(cfg, grid)
    replay = [market_once(plan, cfg, terms, model, child)
              for child in np.random.SeedSequence(2025).spawn(runs)]

    def agree(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        se = np.sqrt((a.var(axis=0) + b.var(axis=0)) / runs)
        dev = np.abs(a.mean(axis=0) - b.mean(axis=0))
        return np.all((dev <= 3 * se) | ((se == 0) & (dev == 0)))

    def field(name):
        return blocks[name], [out[name] for out in replay]

    total = blocks["pg_revenue"] + blocks["rtb_revenue"]
    assert agree(total, [out["pg_revenue"] + out["rtb_revenue"] for out in replay])
    assert agree(*field("pg_sold"))
    assert agree(*field("delivered_fraction"))


def test_generate_log_structure():
    model = BidModel.uniform(0.2, 0.9)
    log, truth = generate_log(model, hours=5, auctions_per_hour=4,
                              bidders_per_hour=[2, 3], seed=21)
    assert truth["bidders_per_hour"] == [2, 3]
    assert truth["bid_model"] == {"kind": "uniform", "low": 0.2, "high": 0.9}
    table = summarize_auctions(log)
    assert len(table) == 20
    by_hour = {}  # hour keys count microseconds from a midnight
    for hour, xi in zip(table.hour.tolist(), table.xi_observed.tolist()):
        by_hour.setdefault(hour // 3_600_000_000 % 24, set()).add(xi)
    # the planted pattern alternates bidder counts by hour
    assert by_hour == {0: {2}, 1: {3}, 2: {2}, 3: {3}, 4: {2}}
    again, _ = generate_log(model, hours=5, auctions_per_hour=4,
                            bidders_per_hour=[2, 3], seed=21)
    assert again == log
    with pytest.raises(ValueError):
        generate_log(model, hours=0, auctions_per_hour=4,
                     bidders_per_hour=[2], seed=0)
    with pytest.raises(ValueError):
        generate_log(model, hours=2, auctions_per_hour=1,
                     bidders_per_hour=[], seed=0)


@pytest.mark.parametrize("sizes, field", [
    (dict(hours=2.0), "hours"), (dict(hours=True), "hours"),
    (dict(auctions_per_hour=3.5), "auctions_per_hour"),
    (dict(bidders_per_hour=[2.7, 3]), "bidders_per_hour[0]"),
    (dict(bidders_per_hour=[2, False]), "bidders_per_hour[1]")],
    ids=["hours-float", "hours-bool", "auctions-float", "bidders-float", "bidders-bool"])
def test_generate_log_refuses_non_integer_sizes(sizes, field):
    """Sizes are counts: a float or a bool raises, naming the field, and
    numpy integers count as integers."""
    args = dict(hours=2, auctions_per_hour=3, bidders_per_hour=[2, 3], seed=0)
    with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer")):
        generate_log(BidModel.uniform(0.0, 1.0), **{**args, **sizes})
    log, truth = generate_log(BidModel.uniform(0.0, 1.0), hours=np.int64(2),
                              auctions_per_hour=3, bidders_per_hour=np.array([2, 3]), seed=0)
    assert truth["bidders_per_hour"] == [2, 3] and len(log) == 15


@pytest.mark.parametrize("slot_id", ["", " ", "\t"])
def test_generate_log_refuses_a_blank_slot_id(slot_id):
    """A log reader refuses a blank id, so the generator does not write one."""
    with pytest.raises(ValueError, match=re.escape(f"slot_id {slot_id!r} is blank")):
        generate_log(BidModel.uniform(0.0, 1.0), hours=1, auctions_per_hour=2,
                     bidders_per_hour=[2], seed=0, slot_id=slot_id)


def test_generate_log_custom_start():
    model = BidModel.uniform(0.0, 1.0)
    start = datetime(2023, 7, 1, 12, tzinfo=UTC)
    log, truth = generate_log(model, hours=1, auctions_per_hour=2,
                              bidders_per_hour=[2], seed=0, start_time=start)
    assert log.timestamp[0] == start
    assert truth["start_time"] == start.isoformat()


BERLIN = ZoneInfo("Europe/Berlin")


@pytest.mark.parametrize("start", [
    datetime(2024, 3, 30, 23, tzinfo=BERLIN), datetime(2024, 10, 26, 23, 30, tzinfo=BERLIN),
    datetime(1969, 12, 31, 22, 0, 0, 7, tzinfo=timezone(-timedelta(hours=3, seconds=15))),
    datetime(1969, 12, 31, 23, 59, 59, 999_999)],
    ids=["berlin-spring", "berlin-autumn", "fixed-offset-before-1970", "naive"])
def test_generate_log_stamps_are_the_datetime_arithmetic(start):
    """Auction ``a`` of hour ``h`` is stamped ``start + timedelta(hours=h) +
    step``: the same numbers and, rebuilt, the same stamps with the same
    offsets, across a zone's daylight-saving changes (its offset differs
    between auctions) as at a fixed offset or none, hours without bidders
    skipped."""
    pattern = [1, 0, 2]
    log, _ = generate_log(BidModel.uniform(0.0, 1.0), hours=6, auctions_per_hour=7,
                          bidders_per_hour=pattern, seed=3, start_time=start)
    steps = [timedelta(seconds=3600.0 * a / 7) for a in range(7)]
    want = [start + timedelta(hours=h) + step for h in range(6) if pattern[h % 3]
            for step in steps]
    epoch = datetime(1970, 1, 1, tzinfo=start.tzinfo and timezone.utc)
    us = timedelta(microseconds=1)
    assert log._instant.tolist() == [(t - epoch) // us for t in want]
    assert log._offset.tolist() == [logs._NAIVE if t.tzinfo is None else t.utcoffset() // us
                                    for t in want]
    # not ==: a zone's wall time in a gap equals no time at another zone (PEP 495)
    got = [log.timestamp[i] for i in log._starts.tolist()]
    assert [(t.isoformat(), t.utcoffset()) for t in got] == \
        [(t.isoformat(), t.utcoffset()) for t in want]
    if start.tzinfo is BERLIN:
        assert len({t.utcoffset() for t in want}) == 2


@pytest.mark.parametrize("law", sorted(_BID_LAWS))
def test_generate_log_draws_like_one_auction_at_a_time(law):
    """One draw per hour gives the bits of one draw per auction, in order,
    also across hours without bidders."""
    model, pattern = _BID_LAWS[law], [3, 0, 1, 5]
    log, _ = generate_log(model, hours=6, auctions_per_hour=7,
                          bidders_per_hour=pattern, seed=44)
    rng = np.random.default_rng(44)
    per_auction = [model.sample_bids(rng, pattern[h % 4])
                   for h in range(6) for _ in range(7)]
    assert log.bid_cpm.tobytes() == np.concatenate(per_auction).tobytes()
    assert len(log) == 7 * (3 + 0 + 1 + 5 + 3 + 0)
