"""Market primitives: arrivals, purchase ratio, backlog, risk, price ceiling."""

import dataclasses
import math
import re

import numpy as np
import pytest

from pgrtb.auction import BidModel
from pgrtb.market import MarketConfig, StepTerms, TimeGrid, reference_config
from pgrtb.replan import UncertaintySpec, replan
from pgrtb.simulate import evaluate_plan
from pgrtb.solver import PricePlan, optimal_plan

from oracles import backlog_demand, expected_arrivals, moments_at, purchases


def small_config(**overrides):
    base = dict(
        supply_S=5, demand_Q=12, horizon_T=2.0, steps_N=2,
        arrival_rate_lambda=3.0, initial_arrival_mass=0.25,
        price_effect_alpha=1.0, time_effect_beta=0.5,
    )
    base.update(overrides)
    return MarketConfig(**base)


def test_config_accepts_valid_values():
    cfg = small_config()
    assert cfg.delta_t == 1.0
    assert cfg.miss_prob_omega == 0.0


@pytest.mark.parametrize("field,value", [
    ("supply_S", 0),
    ("supply_S", 5.0),
    ("demand_Q", 5),
    ("demand_Q", 4),
    ("horizon_T", 0.0),
    ("steps_N", 0),
    ("arrival_rate_lambda", -1.0),
    ("initial_arrival_mass", 1.5),
    ("price_effect_alpha", 0.0),
    ("time_effect_beta", -0.1),
    ("risk_level_zeta", -2.0),
    ("risk_decay_v", -0.5),
    ("miss_prob_omega", 1.2),
    ("penalty_size_varpi", -1.0),
    ("max_value_pi", 0.0),
    ("reserve_price_r0", -0.01),
    ("horizon_T", math.inf),
    ("arrival_rate_lambda", math.nan),
    ("initial_arrival_mass", math.nan),
    ("price_effect_alpha", math.inf),
    ("time_effect_beta", math.nan),
    ("risk_level_zeta", math.nan),
    ("risk_level_zeta", math.inf),
    ("risk_decay_v", math.inf),
    ("miss_prob_omega", math.nan),
    ("penalty_size_varpi", math.nan),
    ("max_value_pi", math.nan),
    ("max_value_pi", math.inf),
    ("reserve_price_r0", math.nan),
    ("reserve_price_r0", math.inf),
])
def test_config_rejects_bad_field(field, value):
    with pytest.raises(ValueError):
        small_config(**{field: value})


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(MarketConfig)])
def test_config_refuses_booleans(field):
    """A boolean is not a number: supply_S, horizon_T and steps_N of true
    once solved a one-impression, one-step market."""
    for flag in (True, np.True_):
        with pytest.raises(ValueError, match=f"{field} must be a number, not "):
            small_config(**{field: flag})


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(MarketConfig)])
def test_config_refuses_strings_nulls_and_lists(field):
    """A JSON string, null or list is not a number: a horizon_T of "30" once
    failed comparing a str with an int, naming no field."""
    for value in ("1", None, [1]):
        message = f"{field} must be a number, not {re.escape(repr(value))}"
        with pytest.raises(ValueError, match=message):
            small_config(**{field: value})


def test_config_rejects_arrivals_exceeding_demand():
    # lambda * T must not exceed Q
    with pytest.raises(ValueError, match="arrival_rate_lambda too large"):
        small_config(arrival_rate_lambda=6.5)


def test_config_rejects_penalty_worse_than_disposal():
    with pytest.raises(ValueError, match="must not exceed 1"):
        small_config(miss_prob_omega=0.8, penalty_size_varpi=2.0)


def test_grid_from_config():
    cfg = small_config()
    grid = TimeGrid.from_config(cfg)
    assert grid.n_steps == 2
    np.testing.assert_allclose(grid.points, [0.0, 1.0, 2.0])


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 1.0, 0.5]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 1.0, 3.0]))  # non-uniform


def test_expected_arrivals():
    cfg = small_config()
    terms = StepTerms(cfg, TimeGrid.from_config(cfg))
    # opening step carries the waiting block plus one step of the rate
    assert terms.rate == 3.0
    assert np.diff(terms.cum, prepend=0.0).tolist() == [0.25 * 12 + 3.0, 3.0, 3.0]
    # one entry per step 0..N
    assert terms.cum.shape == terms.risk.shape == terms.price_scale.shape == (3,)


def test_purchase_ratio_shape():
    """Price 0 moves everyone; higher prices move fewer; early steps move fewer."""
    cfg = small_config()
    grid = TimeGrid.from_config(cfg)
    scale = StepTerms(cfg, grid).price_scale
    assert math.exp(-scale[1] * 0.0) == 1.0
    lo = math.exp(-scale[1] * 0.2)
    hi = math.exp(-scale[1] * 0.8)
    assert 0.0 < hi < lo < 1.0
    # more time remaining inflates the price effect (beta > 0)
    assert math.exp(-scale[0] * 0.5) < math.exp(-scale[2] * 0.5)
    # the simulated market refuses a negative posted price
    plan = PricePlan.from_path([-0.1, 0.3, 0.3], [1, 1, 1], [0.5] * 3, 0.0, 0.0,
                               supply=cfg.supply_S, demand=cfg.demand_Q)
    with pytest.raises(ValueError, match="non-negative"):
        purchases(plan, cfg, StepTerms(cfg, grid), seed=0)


def test_purchase_ratio_value():
    cfg = small_config()
    grid = TimeGrid.from_config(cfg)
    # alpha=1, beta=0.5, t=0 of T=2: scale 2.0
    scale = StepTerms(cfg, grid).price_scale
    assert scale[0] == 2.0
    assert math.exp(-scale[0] * 0.4) == pytest.approx(0.44932896411722156, abs=1e-15)


def test_backlog_demand_frozen_values():
    """Hand-folded survivor arithmetic for prices [0.4, 0.3]."""
    cfg = small_config()
    grid = TimeGrid.from_config(cfg)
    assert backlog_demand(0, [], cfg, grid) == expected_arrivals(0, cfg)
    assert backlog_demand(1, [0.4], cfg, grid) == pytest.approx(6.304026215296671, abs=1e-12)
    assert backlog_demand(2, [0.4, 0.3], cfg, grid) == pytest.approx(5.284401631861851, abs=1e-12)


def test_backlog_demand_extremes():
    cfg = small_config()
    grid = TimeGrid.from_config(cfg)
    # a free price clears the pool, so only fresh arrivals remain
    assert backlog_demand(1, [0.0], cfg, grid) == expected_arrivals(1, cfg)
    # an unpayable price keeps everyone waiting
    assert backlog_demand(1, [1e9], cfg, grid) == pytest.approx(
        expected_arrivals(0, cfg) + expected_arrivals(1, cfg))
    with pytest.raises(ValueError):
        backlog_demand(2, [0.4], cfg, grid)


def test_risk_preference():
    cfg = small_config(risk_level_zeta=7.5, risk_decay_v=0.3)
    grid = TimeGrid.from_config(cfg)
    risk = StepTerms(cfg, grid).risk
    assert risk[0] == 7.5
    assert risk[1] == pytest.approx(5.556136655112884, abs=1e-12)
    flat = small_config()
    assert StepTerms(flat, grid).risk[2] == 0.0


def test_censored_bound_reserve_below_two_bidders():
    cfg = small_config(reserve_price_r0=0.15)
    grid = TimeGrid.from_config(cfg)
    model = BidModel.uniform(0.0, 1.0)
    moments = model.payment_moments(np.array([1.0, 0.3]), cfg.reserve_price_r0)
    terms = StepTerms(cfg, grid)
    bounds = terms.bound(np.arange(3)[:, None], *moments)
    assert bounds.shape == (3, 2)
    assert bounds[1].tolist() == [0.15, 0.15]
    assert terms.bound(1, *moments).tolist() == [0.15, 0.15]


def test_censored_bound_censors_at_ceiling():
    cfg = small_config(max_value_pi=0.2, risk_level_zeta=50.0)
    grid = TimeGrid.from_config(cfg)
    model = BidModel.uniform(0.0, 1.0)
    assert StepTerms(cfg, grid).bound(0, *model.payment_moments(np.array([6.0])))[0] == 0.2


def test_censored_bound_adds_risk_premium():
    cfg0 = small_config(risk_level_zeta=0.0, max_value_pi=10.0)
    cfg1 = small_config(risk_level_zeta=4.0, max_value_pi=10.0)
    grid = TimeGrid.from_config(cfg0)
    model = BidModel.uniform(0.0, 1.0)
    moments = model.payment_moments(np.array([3.0]))
    base = StepTerms(cfg0, grid).bound(1, *moments)[0]
    assert base == pytest.approx(moments_at(model, 3.0)[0], abs=1e-12)
    terms = StepTerms(cfg1, grid)
    lifted = terms.bound(1, *moments)[0]
    assert lifted == pytest.approx(base + terms.risk[1] * moments_at(model, 3.0)[1], abs=1e-12)


@pytest.mark.parametrize("points", [
    np.linspace(0.0, 5.0, 31),   # right step count, wrong horizon
    np.linspace(0.0, 30.0, 11),  # right horizon, wrong step count
])
def test_grids_that_do_not_match_the_config_are_refused(points):
    """Arrivals follow the config while risk and price scale follow the grid's
    times, so a grid off the config's steps or horizon mixes two markets."""
    cfg = reference_config()
    good = TimeGrid.from_config(cfg)
    bad = TimeGrid(points)
    model = BidModel.uniform(0.0, 1.0)
    plan, _ = optimal_plan(cfg, good, model)
    with pytest.raises(ValueError, match="does not match"):
        optimal_plan(cfg, bad, model)
    with pytest.raises(ValueError, match="does not match"):
        replan(cfg, bad, model, UncertaintySpec(epsilon=0.1))
    with pytest.raises(ValueError, match="does not match"):
        evaluate_plan(plan, cfg, bad, model, n_runs=5, seed=0)


def test_reference_config_is_valid_and_frozen():
    cfg = reference_config()
    assert cfg.supply_S == 100
    assert cfg.demand_Q == 400
    assert cfg.steps_N == 30
    assert cfg.max_value_pi == 0.6
    assert cfg.arrival_rate_lambda <= cfg.demand_Q / cfg.horizon_T
    grid = TimeGrid.from_config(cfg)
    assert grid.n_steps == cfg.steps_N
