"""Optimal plan solver: pricing identities, DP internals, exhaustive oracle.

The heavyweight check here is DP versus exhaustive search on seeded random
tiny instances. The two share their market tables on purpose (documented in
the solver module); independence comes from the exhaustive path enumeration,
so agreement is asserted bit for bit, not within a tolerance.
"""

import math
import warnings

import numpy as np
import pytest

from pgrtb.auction import BidModel
from pgrtb.market import (
    MarketConfig,
    TimeGrid,
    backlog_demand,
    censored_bound,
    purchase_ratio,
    reference_config,
)
from pgrtb.solver import (
    PricePlan,
    brute_force_optimum,
    competition_level,
    optimal_pg_revenue,
    optimal_plan,
    replay_revenue,
)


def random_tiny_config(rng):
    S = int(rng.integers(2, 9))
    Q = int(rng.integers(S + 1, 17))
    T = float(rng.uniform(2.0, 20.0))
    N = int(rng.integers(1, 5))
    return MarketConfig(
        supply_S=S, demand_Q=Q, horizon_T=T, steps_N=N,
        arrival_rate_lambda=float(rng.uniform(0.1, 0.95)) * Q / T,
        initial_arrival_mass=float(rng.uniform(0.0, 0.5)),
        price_effect_alpha=float(rng.uniform(0.5, 3.0)),
        time_effect_beta=float(rng.uniform(0.0, 0.2)),
        risk_level_zeta=float(rng.uniform(0.0, 40.0)),
        risk_decay_v=float(rng.uniform(0.05, 1.0)),
        miss_prob_omega=float(rng.uniform(0.0, 0.1)),
        penalty_size_varpi=float(rng.uniform(0.0, 1.0)),
        max_value_pi=float(rng.uniform(0.4, 1.2)),
        reserve_price_r0=float(rng.choice([0.0, 0.0, 0.05])),
    )


MODELS = [
    BidModel.uniform(0.0, 1.0),
    BidModel.lognormal(0.0, 0.5),
    BidModel.empirical(np.random.default_rng(77).uniform(0.2, 1.4, size=400)),
]


def test_competition_level():
    assert competition_level(12, 5, 0) == 12 / 5
    assert competition_level(12, 5, 3) == (12 - 3) / (5 - 3)
    with pytest.raises(ValueError):
        competition_level(12, 5, 5)
    with pytest.raises(ValueError):
        competition_level(4, 5, 4)
    with pytest.raises(ValueError):
        competition_level(12, 5, -1)


def test_open_steps_sell_purchase_ratio_of_backlog():
    """The DP's waiting pool is the backlog: every open step sells exactly
    purchase_ratio(n, price) * backlog_demand(n, prior prices)."""
    rng = np.random.default_rng(6061)
    cases = [(random_tiny_config(rng), MODELS[trial % 3]) for trial in range(30)]
    cases += [(reference_config(), BidModel.uniform(0.0, 1.0)),
              (reference_config(), BidModel.lognormal(0.0, 0.5))]
    open_steps = 0
    for cfg, model in cases:
        grid = TimeGrid.from_config(cfg)
        plan, _ = optimal_plan(cfg, grid, model)
        # a closed step posts no offer, so nobody leaves the pool there
        posted = [float(p) if z else math.inf for p, z in zip(plan.prices, plan.sales)]
        for n, z in enumerate(plan.sales):
            if z == 0:
                continue
            open_steps += 1
            moved = purchase_ratio(n, posted[n], cfg, grid) * backlog_demand(
                n, posted[:n], cfg, grid)
            assert moved == pytest.approx(float(z), rel=1e-9, abs=0.0)
    assert open_steps >= 20


def test_scalar_recursion_matches_dp_tables():
    """optimal_pg_revenue re-derives every H[n][y] cell of the vectorized DP."""
    rng = np.random.default_rng(5150)
    for trial in range(5):
        cfg = random_tiny_config(rng)
        grid = TimeGrid.from_config(cfg)
        model = MODELS[trial % 3]
        plan, tables = optimal_plan(cfg, grid, model)
        h_prev = {}
        for i, y_set in enumerate(tables.sale_sets):
            h_here = {}
            for j, y in enumerate(y_set):
                value, pick = optimal_pg_revenue(i, int(y), h_prev, cfg, grid, model)
                stored = tables.H[i][j]
                if math.isfinite(stored):
                    # the scalar route recomputes the ceiling through math.exp
                    # while the tables use np.exp, so allow the last ulps
                    assert value == pytest.approx(stored, abs=1e-12), (trial, i, y)
                else:
                    assert value == -math.inf
                h_here[int(y)] = value
            h_prev = h_here


def test_dp_matches_exhaustive_search():
    rng = np.random.default_rng(90125)
    for trial in range(40):
        cfg = random_tiny_config(rng)
        grid = TimeGrid.from_config(cfg)
        model = MODELS[trial % 3]
        plan, _ = optimal_plan(cfg, grid, model)
        ref = brute_force_optimum(cfg, grid, model)
        assert plan.revenue_total == ref.revenue_total, trial
        assert plan.revenue_pg == ref.revenue_pg, trial
        np.testing.assert_array_equal(plan.sales, ref.sales, err_msg=str(trial))
        np.testing.assert_array_equal(plan.prices, ref.prices, err_msg=str(trial))
        np.testing.assert_array_equal(plan.bounds, ref.bounds, err_msg=str(trial))


def test_plan_invariants_and_replay():
    rng = np.random.default_rng(2112)
    for trial in range(15):
        cfg = random_tiny_config(rng)
        grid = TimeGrid.from_config(cfg)
        model = MODELS[trial % 3]
        plan, _ = optimal_plan(cfg, grid, model)
        assert plan.prices.shape == (cfg.steps_N + 1,)
        assert np.all(plan.sales >= 0)
        assert plan.total_sold <= cfg.supply_S
        assert np.all(plan.prices >= 0.0)
        assert np.all(plan.prices <= plan.bounds)
        assert plan.gamma == plan.total_sold / cfg.supply_S
        assert plan.revenue_total == plan.revenue_pg + plan.revenue_rtb
        if plan.total_sold < cfg.supply_S:
            assert plan.xi_terminal == competition_level(
                cfg.demand_Q, cfg.supply_S, plan.total_sold)
        else:
            assert math.isinf(plan.xi_terminal)
        # independent bookkeeping walk reproduces the split bit for bit
        pg, rtb, total = replay_revenue(plan, cfg, grid, model)
        assert pg == plan.revenue_pg
        assert rtb == plan.revenue_rtb
        assert total == plan.revenue_total


def test_bounds_follow_the_state_path():
    """plan.bounds must equal the ceiling at each step's post-sale state."""
    cfg = MarketConfig(supply_S=20, demand_Q=70, horizon_T=10.0, steps_N=8,
                       arrival_rate_lambda=4.0, initial_arrival_mass=0.4,
                       price_effect_alpha=1.2, time_effect_beta=0.08,
                       risk_level_zeta=8.0, risk_decay_v=0.25,
                       max_value_pi=0.8)
    grid = TimeGrid.from_config(cfg)
    model = BidModel.uniform(0.0, 1.0)
    plan, _ = optimal_plan(cfg, grid, model)
    sold = 0
    for n in range(cfg.steps_N + 1):
        sold += int(plan.sales[n])
        if sold == cfg.supply_S:
            xi = math.inf
        else:
            xi = competition_level(cfg.demand_Q, cfg.supply_S, sold)
        assert plan.bounds[n] == pytest.approx(
            censored_bound(n, xi, cfg, grid, model), abs=1e-9)


def test_fully_censored_market_sells_nothing():
    """A ceiling below any feasible price forces the pure-auction plan."""
    cfg = MarketConfig(supply_S=4, demand_Q=12, horizon_T=4.0, steps_N=2,
                       arrival_rate_lambda=2.0, initial_arrival_mass=0.5,
                       price_effect_alpha=1.0, max_value_pi=1e-9)
    grid = TimeGrid.from_config(cfg)
    model = BidModel.uniform(0.0, 1.0)
    plan, _ = optimal_plan(cfg, grid, model)
    assert plan.total_sold == 0
    assert plan.gamma == 0.0
    assert plan.revenue_pg == 0.0
    assert plan.revenue_rtb == cfg.supply_S * model.payment_mean(12 / 4)
    np.testing.assert_array_equal(plan.prices, plan.bounds)


def test_presold_supply_yields_empty_plan():
    cfg = MarketConfig(supply_S=3, demand_Q=10, horizon_T=3.0, steps_N=3,
                       arrival_rate_lambda=1.0, initial_arrival_mass=0.6)
    grid = TimeGrid.from_config(cfg)
    model = BidModel.uniform(0.0, 1.0)
    plan, _ = optimal_plan(cfg, grid, model, start_step=1, presold=3)
    assert plan.start_step == 1 and plan.presold == 3
    assert plan.total_sold == 3
    assert np.all(plan.sales == 0)
    assert plan.revenue_pg == 0.0 and plan.revenue_rtb == 0.0
    assert math.isinf(plan.xi_terminal)


def test_tail_solve_agrees_with_static_suffix():
    """Re-solving from a mid-horizon state on the static path changes nothing."""
    cfg = MarketConfig(supply_S=15, demand_Q=60, horizon_T=12.0, steps_N=6,
                       arrival_rate_lambda=3.5, initial_arrival_mass=0.35,
                       price_effect_alpha=1.5, time_effect_beta=0.1,
                       risk_level_zeta=5.0, risk_decay_v=0.2, max_value_pi=0.7)
    grid = TimeGrid.from_config(cfg)
    model = BidModel.uniform(0.0, 1.0)
    static, _ = optimal_plan(cfg, grid, model)
    k = 3
    presold = int(static.cumulative_sales[k - 1])
    tail, _ = optimal_plan(cfg, grid, model, start_step=k, presold=presold)
    np.testing.assert_array_equal(tail.sales, static.sales[k:])
    np.testing.assert_array_equal(tail.prices, static.prices[k:])
    assert tail.revenue_rtb == static.revenue_rtb


def test_optimal_plan_validation():
    cfg = MarketConfig(supply_S=5, demand_Q=20, horizon_T=5.0, steps_N=5,
                       arrival_rate_lambda=2.0)
    grid = TimeGrid.from_config(cfg)
    model = BidModel.uniform(0.0, 1.0)
    other_grid = TimeGrid(np.linspace(0.0, 5.0, 4))
    with pytest.raises(ValueError):
        optimal_plan(cfg, other_grid, model)
    with pytest.raises(ValueError):
        optimal_plan(cfg, grid, model, start_step=9)
    with pytest.raises(ValueError):
        optimal_plan(cfg, grid, model, presold=-1)
    with pytest.raises(ValueError):
        optimal_plan(cfg, grid, model, presold=6)  # exceeds supply
    with pytest.raises(ValueError):
        # exceeds the (zero) arrivals available at the start step
        optimal_plan(cfg, grid, model, arrivals=np.zeros(6), presold=1)
    with pytest.raises(ValueError):
        optimal_plan(cfg, grid, model, demand_total=5)
    with pytest.raises(ValueError):
        optimal_plan(cfg, grid, model, arrivals=np.ones(3))
    with pytest.raises(ValueError):
        optimal_plan(cfg, grid, model, arrivals=-np.ones(6))


def test_brute_force_guard():
    cfg = MarketConfig(supply_S=50, demand_Q=200, horizon_T=10.0, steps_N=10,
                       arrival_rate_lambda=10.0)
    grid = TimeGrid.from_config(cfg)
    with pytest.raises(ValueError, match="guarded"):
        brute_force_optimum(cfg, grid, BidModel.uniform(0.0, 1.0))


def test_solver_emits_no_numeric_warnings():
    """Integer-exact arrival pools hit log(0); the kernel must stay silent."""
    cfg = MarketConfig(supply_S=3, demand_Q=12, horizon_T=2.0, steps_N=2,
                       arrival_rate_lambda=0.0, initial_arrival_mass=0.25)
    grid = TimeGrid.from_config(cfg)
    model = BidModel.uniform(0.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plan, _ = optimal_plan(cfg, grid, model)
        ref = brute_force_optimum(cfg, grid, model)
    assert plan.revenue_total == ref.revenue_total


def test_price_plan_serialization():
    cfg = MarketConfig(supply_S=6, demand_Q=18, horizon_T=4.0, steps_N=4,
                       arrival_rate_lambda=2.0, initial_arrival_mass=0.4,
                       max_value_pi=0.9)
    grid = TimeGrid.from_config(cfg)
    plan, _ = optimal_plan(cfg, grid, BidModel.uniform(0.0, 1.0))
    clone = PricePlan.from_dict(plan.to_dict())
    np.testing.assert_array_equal(clone.prices, plan.prices)
    np.testing.assert_array_equal(clone.sales, plan.sales)
    assert clone.revenue_total == plan.revenue_total
    assert clone.xi_terminal == plan.xi_terminal
    # a sold-out plan's infinite terminal competition survives the round trip
    payload = plan.to_dict()
    payload["xi_terminal"] = None
    assert math.isinf(PricePlan.from_dict(payload).xi_terminal)


def test_replay_revenue_with_demand_override():
    cfg = MarketConfig(supply_S=8, demand_Q=30, horizon_T=6.0, steps_N=3,
                       arrival_rate_lambda=3.0, initial_arrival_mass=0.3,
                       max_value_pi=0.8)
    grid = TimeGrid.from_config(cfg)
    model = BidModel.uniform(0.0, 1.0)
    plan, _ = optimal_plan(cfg, grid, model, demand_total=24)
    pg, rtb, total = replay_revenue(plan, cfg, grid, model, demand_total=24)
    assert total == plan.revenue_total
