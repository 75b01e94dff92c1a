"""Rolling-horizon replanning under demand shocks."""

import dataclasses
import hashlib
import json
import math
import sys

import numpy as np
import pytest

from pgrtb.auction import BidModel
from pgrtb.market import MarketConfig, TimeGrid, reference_config
from pgrtb.replan import UncertaintySpec, _update_demand, replan
from pgrtb import solver
from pgrtb.solver import optimal_plan, replay_revenue

from oracles import EagerTables


def mid_config():
    return MarketConfig(
        supply_S=12, demand_Q=40, horizon_T=6.0, steps_N=6,
        arrival_rate_lambda=4.0, initial_arrival_mass=0.3,
        price_effect_alpha=1.5, time_effect_beta=0.08,
        risk_level_zeta=6.0, risk_decay_v=0.2,
        miss_prob_omega=0.03, penalty_size_varpi=0.4,
        max_value_pi=0.65,
    )


def test_spec_validation():
    with pytest.raises(ValueError):
        UncertaintySpec(epsilon=-0.1)
    with pytest.raises(ValueError):
        UncertaintySpec(epsilon=math.nan)
    with pytest.raises(ValueError):
        UncertaintySpec(epsilon=0.1, noise_seed=-1)
    with pytest.raises(ValueError):
        UncertaintySpec(epsilon=0.1, noise_kind="cauchy")


def test_draws_are_keyed_by_step():
    """Step k's shock is a pure function of (seed, k), not of draw order."""
    spec = UncertaintySpec(epsilon=0.2, noise_seed=42)
    first = [spec.draw(k) for k in range(5)]
    again = [spec.draw(k) for k in reversed(range(5))]
    assert first == again[::-1]
    assert len(set(first)) == 5
    other = UncertaintySpec(epsilon=0.2, noise_seed=43)
    assert other.draw(0) != spec.draw(0)
    coin = UncertaintySpec(epsilon=1.0, noise_seed=7, noise_kind="rademacher")
    flips = {coin.draw(k) for k in range(32)}
    assert flips == {-1.0, 1.0}


def test_update_demand():
    calm = UncertaintySpec(epsilon=0.0)
    assert _update_demand(37, calm, 3, remaining_supply=10) == 37
    # a crushing negative shock floors at remaining supply + 1
    crash = UncertaintySpec(epsilon=10.0, noise_kind="rademacher", noise_seed=1)
    step_down = next(k for k in range(50) if crash.draw(k) < 0)
    assert _update_demand(30, crash, step_down, remaining_supply=8) == 9
    with pytest.raises(ValueError):
        _update_demand(0, calm, 0, remaining_supply=5)
    with pytest.raises(ValueError):
        _update_demand(10, calm, 0, remaining_supply=-1)


def test_update_demand_rounds_to_nearest():
    up = UncertaintySpec(epsilon=0.5, noise_kind="rademacher", noise_seed=1)
    step_up = next(k for k in range(50) if up.draw(k) > 0)
    # 11 * 1.5 = 16.5 rounds bankers-style to 16
    assert _update_demand(11, up, step_up, remaining_supply=0) == 16
    assert _update_demand(10, up, step_up, remaining_supply=0) == 15


def test_zero_noise_reproduces_static_plan():
    cfg = mid_config()
    grid = TimeGrid.from_config(cfg)
    model = BidModel.uniform(0.0, 1.0)
    static, _ = optimal_plan(cfg, grid, model)
    dynamic, trace = replan(cfg, grid, model, UncertaintySpec(epsilon=0.0))
    np.testing.assert_array_equal(dynamic.prices, static.prices)
    np.testing.assert_array_equal(dynamic.sales, static.sales)
    np.testing.assert_array_equal(dynamic.bounds, static.bounds)
    assert dynamic.revenue_pg == static.revenue_pg
    assert dynamic.revenue_rtb == static.revenue_rtb
    assert dynamic.revenue_total == static.revenue_total
    assert dynamic.gamma == static.gamma
    assert dynamic.xi_terminal == static.xi_terminal
    # with zero noise the demand view only shrinks by the committed sales
    for row in trace:
        before = cfg.demand_Q - sum(t.sell_now for t in trace[:row.step])
        assert row.demand_before == before
        assert row.demand_after == before - row.sell_now


def test_replan_trace_bookkeeping():
    cfg = mid_config()
    grid = TimeGrid.from_config(cfg)
    model = BidModel.uniform(0.0, 1.0)
    spec = UncertaintySpec(epsilon=0.25, noise_seed=11)
    plan, trace = replan(cfg, grid, model, spec)
    assert len(trace) == cfg.steps_N + 1
    sold = 0
    for row, nxt in zip(trace, trace[1:]):
        sold += row.sell_now
        assert row.remaining_supply == cfg.supply_S - sold
        # the shocked view entering the next round is this round's exit view
        assert nxt.demand_before == row.demand_after
    assert plan.total_sold == sum(r.sell_now for r in trace)
    np.testing.assert_array_equal(plan.sales, [r.sell_now for r in trace])
    np.testing.assert_array_equal(plan.prices, [r.price for r in trace])
    # forecast at the last round covers exactly the realized tail value
    assert trace[-1].forecast_revenue == pytest.approx(
        (1.0 - cfg.miss_prob_omega * cfg.penalty_size_varpi)
        * trace[-1].price * trace[-1].sell_now + plan.revenue_rtb)


def test_replan_revenue_split_replays_exactly():
    """The realized plan's revenue must replay from prices and sales alone."""
    cfg = mid_config()
    grid = TimeGrid.from_config(cfg)
    model = BidModel.uniform(0.0, 1.0)
    plan, trace = replan(cfg, grid, model, UncertaintySpec(epsilon=0.3, noise_seed=5))
    final_presold = cfg.supply_S - trace[-1].remaining_supply
    final_demand = trace[-1].demand_after + final_presold
    pg, rtb, total = replay_revenue(plan, cfg, grid, model,
                                    demand_total=final_demand)
    assert pg == plan.revenue_pg
    assert rtb == plan.revenue_rtb
    assert total == plan.revenue_total


def test_replan_determinism():
    cfg = mid_config()
    grid = TimeGrid.from_config(cfg)
    model = BidModel.uniform(0.0, 1.0)
    spec = UncertaintySpec(epsilon=0.4, noise_seed=99)
    a, _ = replan(cfg, grid, model, spec)
    b, _ = replan(cfg, grid, model, spec)
    np.testing.assert_array_equal(a.prices, b.prices)
    assert a.revenue_total == b.revenue_total
    c, _ = replan(cfg, grid, model, UncertaintySpec(epsilon=0.4, noise_seed=100))
    assert not np.array_equal(a.sales, c.sales) or a.revenue_total != c.revenue_total


def test_walk_builds_market_tables_once(monkeypatch):
    """The demand-independent tables are built once per walk; each round
    only re-prices them for its demand."""
    cfg = mid_config()
    grid = TimeGrid.from_config(cfg)
    built, priced = [], []
    init, set_demand = solver._MarketTables.__init__, solver._MarketTables.set_demand
    monkeypatch.setattr(solver._MarketTables, "__init__",
                        lambda self, *a: (built.append(1), init(self, *a))[1])
    monkeypatch.setattr(solver._MarketTables, "set_demand",
                        lambda self, *a: (priced.append(1), set_demand(self, *a))[1])
    replan(cfg, grid, BidModel.uniform(0.0, 1.0), UncertaintySpec(epsilon=0.1))
    assert len(built) == 1
    assert len(priced) == cfg.steps_N + 1


# SHA-256 of each walk's plan ``to_dict()`` JSON and of its trace (sorted
# keys) on the reference market with lognormal bids, recorded before the
# payment spreads were capped at the value ceiling and the rows below the
# presold count left unpriced.
GOLDEN_WALKS = {
    (0.0, 3): ("0c2750ca4526f740a539cf7fc9ee31a4d2e986daa0f43135d9f23a0b97399b03",
               "427869b5e8c3d841ebe37b0b91cd2b4c4ca29e8a5ba37308ddfb7c92a4ae1041"),
    (0.0, 11): ("0c2750ca4526f740a539cf7fc9ee31a4d2e986daa0f43135d9f23a0b97399b03",
                "427869b5e8c3d841ebe37b0b91cd2b4c4ca29e8a5ba37308ddfb7c92a4ae1041"),
    (0.1, 3): ("35e3b57651e2fc23e555395531015d64d3a62d2f47901ff276a88d9f2a864594",
               "94a44f6d5feff2ebfbab4eff17ff0c5b568c3947b1e842bb6daaf290da4559a3"),
    (0.1, 11): ("9104cf7d3536d0aed005c461bf391ff8dd9f763d10e4921c5a22e577d819279d",
                "0726a7058e9fb4db469c6b7f3e35959c7db1c505aba9657360f03dc7c2e59eb4"),
}


def _digest(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("epsilon, seed", sorted(GOLDEN_WALKS))
def test_reference_walks_are_golden(epsilon, seed):
    cfg = reference_config()
    plan, trace = replan(cfg, TimeGrid.from_config(cfg), BidModel.lognormal(-0.5, 0.5),
                         UncertaintySpec(epsilon, seed))
    assert (_digest(plan.to_dict()), _digest([dataclasses.asdict(s) for s in trace])) == \
        GOLDEN_WALKS[epsilon, seed]


def test_rows_below_presold_are_never_read(monkeypatch):
    """A round's tail solve reads no table row below its presold count: with
    those rows' means and bound moments set to nan the walk is unchanged."""
    cfg = reference_config()
    grid = TimeGrid.from_config(cfg)
    spec = UncertaintySpec(0.1, 5)
    want = replan(cfg, grid, BidModel.lognormal(-0.5, 0.5), spec)
    set_demand = solver._MarketTables.set_demand
    blanked = []

    def blanking(self, model, demand_total, presold=0):
        set_demand(self, model, demand_total, presold)
        self._means[:presold] = np.nan
        self.bound_means[:presold] = np.nan
        self.bound_stds[:presold] = np.nan
        blanked.append(presold)
        return self

    monkeypatch.setattr(solver._MarketTables, "set_demand", blanking)
    plan, trace = replan(cfg, grid, BidModel.lognormal(-0.5, 0.5), spec)
    assert max(blanked) > 0
    assert plan.to_dict() == want[0].to_dict()
    assert trace == want[1]


WALK_LAWS = {"uniform": lambda: BidModel.uniform(0.0, 1.0),
             "lognormal": lambda: BidModel.lognormal(-0.5, 0.5)}


@pytest.mark.parametrize("kind", ["gaussian", "rademacher"])
@pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.3])
@pytest.mark.parametrize("law", sorted(WALK_LAWS))
def test_walks_match_eager_tables(monkeypatch, law, epsilon, kind):
    """A walk whose rounds price only the rows they read commits the plan
    and trace of one whose rounds price every row up front."""
    cfg = reference_config()
    grid = TimeGrid.from_config(cfg)
    spec = UncertaintySpec(epsilon, 13, kind)
    plan, trace = replan(cfg, grid, WALK_LAWS[law](), spec)
    monkeypatch.setattr(sys.modules["pgrtb.replan"], "_MarketTables", EagerTables)
    ref_plan, ref_trace = replan(cfg, grid, WALK_LAWS[law](), spec)
    assert json.dumps(plan.to_dict()) == json.dumps(ref_plan.to_dict())
    assert trace == ref_trace


def test_reference_walk_prices_few_payment_levels():
    """The reference walk (noise seed 7, epsilon 0.1, gaussian) leaves at
    most 1,100 levels in a fresh lognormal model's caches; pricing every row
    of every round took 2,327."""
    cfg = reference_config()
    model = BidModel.lognormal(-0.5, 0.5)
    replan(cfg, TimeGrid.from_config(cfg), model, UncertaintySpec(0.1, 7, "gaussian"))
    assert len(model._moments) <= 1100
