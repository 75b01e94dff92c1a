"""Splitting mixed bid landscapes in two and solving each slice on its own curves."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pgrtb.auction import BidModel, reference_bid_model
from pgrtb.logs import BidLog, summarize_auctions
from pgrtb.market import MarketConfig, TimeGrid, reference_config
from pgrtb.segmentation import _rtb_only_plan, kmeans_1d, segment_and_optimize
from pgrtb.simulate import generate_log
from pgrtb.solver import _MarketTables, competition_level, optimal_plan

from oracles import best_two_split, moments_at, within_sum_of_squares


def seg_config():
    return MarketConfig(
        supply_S=10, demand_Q=40, horizon_T=5.0, steps_N=5,
        arrival_rate_lambda=1.2, initial_arrival_mass=0.25,
        price_effect_alpha=1.0, time_effect_beta=0.1,
        risk_level_zeta=4.0, risk_decay_v=0.2,
        miss_prob_omega=0.02, penalty_size_varpi=0.5,
        max_value_pi=0.8,
    )


def two_population_summaries(seed=5):
    """150 high-bid auctions (uniform [2, 3]) mixed with 150 low ones."""
    high, _ = generate_log(BidModel.uniform(2.0, 3.0), hours=30,
                           auctions_per_hour=5, bidders_per_hour=[2, 3, 4],
                           seed=seed, slot_id="slot-high")
    low, _ = generate_log(BidModel.uniform(0.2, 0.7), hours=30,
                          auctions_per_hour=5, bidders_per_hour=[2, 3, 4],
                          seed=seed + 1, slot_id="slot-low")
    return summarize_auctions(BidLog(
        high.slot_id + low.slot_id, high.auction_id + low.auction_id,
        high.timestamp + low.timestamp, np.concatenate([high.bid_cpm, low.bid_cpm])))


# -- the exact two-group split ---------------------------------------------


def test_kmeans_recovers_planted_clusters():
    rng = np.random.default_rng(0)
    vals = np.concatenate([rng.normal(1.0, 0.05, 80), rng.normal(4.0, 0.05, 40)])
    high = kmeans_1d(vals)
    assert vals[high].mean() == pytest.approx(4.0, abs=0.05)
    assert vals[~high].mean() == pytest.approx(1.0, abs=0.05)
    assert high.tolist() == [False] * 80 + [True] * 40
    assert vals[high].min() > vals[~high].max()


def test_kmeans_rejects_unclusterable_input():
    for values in ([2.0, 2.0, 2.0], [7.5], []):
        with pytest.raises(ValueError, match="distinct"):
            kmeans_1d(values)


def test_kmeans_ties_take_the_lowest_split():
    """Both cuts of 0, 1, 1, 2 leave a sum of squares of 2/3; the lower wins."""
    vals = np.array([0.0, 1.0, 1.0, 2.0])
    high = kmeans_1d(vals)
    assert high.tolist() == [False, True, True, True]
    assert [vals[high].mean(), vals[~high].mean()] == [4.0 / 3.0, 0.0]


def test_kmeans_never_separates_equal_values():
    rng = np.random.default_rng(4)
    for _ in range(50):
        vals = rng.integers(0, 6, size=int(rng.integers(2, 40))).astype(float)
        if np.unique(vals).size < 2:
            continue
        high = kmeans_1d(vals)
        for v in np.unique(vals):
            assert np.unique(high[vals == v]).size == 1


def test_kmeans_follows_a_permutation_of_its_input():
    rng = np.random.default_rng(6)
    vals = np.round(np.concatenate([rng.normal(1.0, 0.4, 70), rng.normal(2.5, 0.6, 50)]), 2)
    high = kmeans_1d(vals)
    for _ in range(5):
        order = rng.permutation(vals.size)
        assert np.array_equal(kmeans_1d(vals[order]), high[order])


def _assert_matches_oracle(vals):
    """The split's sum of squares is the exhaustive minimum within 1e-12
    relative, and the partition is the oracle's wherever its best cut wins
    by more than 1e-9 relative."""
    high = kmeans_1d(vals)
    best, runner_up, oracle_high = best_two_split(vals)
    chosen = within_sum_of_squares(vals, high)
    assert chosen <= best * (1.0 + 1e-12)
    if runner_up > best * (1.0 + 1e-9):
        assert np.array_equal(high, oracle_high)


@settings(max_examples=300)
@given(st.lists(st.one_of(st.floats(-1e3, 1e3, allow_subnormal=False),
                          st.integers(-5, 5).map(float)),
                min_size=2, max_size=300))
def test_kmeans_matches_the_exhaustive_oracle(values):
    vals = np.array(values)
    assume(np.unique(vals).size >= 2)
    _assert_matches_oracle(vals)


def test_kmeans_matches_the_exhaustive_oracle_on_two_populations():
    """5,760 values, the size of a long log's winning bids."""
    rng = np.random.default_rng(12)
    vals = np.concatenate([rng.uniform(2.0, 3.0, 2880), rng.uniform(0.0, 1.0, 2880)])
    _assert_matches_oracle(rng.permutation(vals))


# -- segment_and_optimize -------------------------------------------------


def test_two_population_split():
    summaries = two_population_summaries()
    cfg = seg_config()
    market = segment_and_optimize(summaries, cfg)
    assert not market.fallback
    assert [sp.label for sp in market.segments] == ["group1_high", "group2_low"]
    hi, lo = market.segments
    # the clusters are far apart, so the split must be exact
    assert hi.auction_count == 150 and lo.auction_count == 150
    assert hi.supply == lo.supply == 5
    assert hi.demand == lo.demand == 20
    assert hi.mean_competition == pytest.approx(3.0)
    assert lo.mean_competition == pytest.approx(3.0)
    assert 2.0 <= hi.max_value <= 3.0
    assert 0.2 <= lo.max_value <= 0.7
    assert market.combined_revenue == sum(sp.plan.revenue_total
                                          for sp in market.segments)
    for sp in market.segments:
        assert not sp.rtb_only
        assert sp.plan.total_sold <= sp.supply
        assert np.all(np.asarray(sp.plan.prices) >= 0.0)
        assert np.all(np.asarray(sp.plan.prices)
                      <= np.asarray(sp.plan.bounds) + 1e-12)
    assert hi.plan.revenue_total > lo.plan.revenue_total


def test_thin_competition_goes_auction_only():
    # every auction has one bid, so no payment curve can be certified
    rng = np.random.default_rng(9)
    bids = np.concatenate([
        0.3 + 0.01 * rng.standard_normal(60),
        0.9 + 0.01 * rng.standard_normal(60),
    ])
    log = BidLog(["s"] * 120, [f"a{i:03d}" for i in range(120)], [None] * 120, bids)
    table = summarize_auctions(log)
    market = segment_and_optimize(table, seg_config())
    assert not market.fallback
    # each segment's own bids, split as segment_and_optimize splits them
    high = kmeans_1d(table.winning_bid)
    bids = {"group1_high": table.take(high).bids, "group2_low": table.take(~high).bids}
    for sp in market.segments:
        assert sp.rtb_only
        assert sp.curves is None
        assert sp.plan.gamma == 0.0
        assert int(np.sum(sp.plan.sales)) == 0
        xi0 = competition_level(sp.demand, sp.supply, 0)
        want = sp.supply * moments_at(BidModel.empirical(bids[sp.label]), xi0, reserve=0.0)[0]
        assert sp.plan.revenue_total == pytest.approx(want)
        assert sp.plan.revenue_pg == 0.0
        np.testing.assert_array_equal(sp.plan.prices, sp.plan.bounds)


def test_auction_only_bounds_equal_the_dp_bounds():
    """An auction-only plan shows the DP's own ceiling at zero sales, bit for
    bit: both read the market's step terms. The first risk setting is one
    where a scalar math.exp risk weight put them an ulp apart."""
    rng = np.random.default_rng(2024)
    risks = [(34.296171063502776, 0.08190629654019113)]
    risks += [(float(rng.uniform(0.0, 60.0)), float(rng.uniform(0.01, 1.0)))
              for _ in range(6)]
    model = reference_bid_model()
    for zeta, v in risks:
        cfg = dataclasses.replace(reference_config(), max_value_pi=100.0,
                                  risk_level_zeta=zeta, risk_decay_v=v)
        grid = TimeGrid.from_config(cfg)
        plan = _rtb_only_plan(cfg, grid, model)
        dp = _MarketTables(cfg, grid).set_demand(model, None)
        assert plan.bounds.tolist() == dp.bound(np.arange(cfg.steps_N + 1), 0).tolist()


def test_degenerate_bids_fall_back_to_one_group():
    log = BidLog(["s"] * 80, [f"a{i // 2:03d}" for i in range(80)], [None] * 80,
                 [0.5] * 80)
    cfg = seg_config()
    with pytest.warns(RuntimeWarning, match="cannot support two clusters"):
        market = segment_and_optimize(summarize_auctions(log), cfg)
    assert market.fallback
    assert len(market.segments) == 1
    only = market.segments[0]
    assert only.label == "all"
    assert only.supply == cfg.supply_S and only.demand == cfg.demand_Q
    assert only.max_value == pytest.approx(0.5)
    # the one group's share of 1 leaves the market itself, arrival rate included
    alone = optimal_plan(dataclasses.replace(cfg, max_value_pi=only.max_value),
                         TimeGrid.from_config(cfg), only.curves)[0]
    assert not only.rtb_only and only.plan.to_dict() == alone.to_dict()


def test_empty_input_raises():
    with pytest.raises(ValueError, match="no auctions"):
        segment_and_optimize(summarize_auctions(BidLog([], [], [], [])), seg_config())
