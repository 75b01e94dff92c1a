"""Optimal plan solver: pricing identities, DP internals, exhaustive oracle.

The heavyweight checks here are DP versus exhaustive search on seeded random
tiny instances and both row schedules of the DP transition (the blocked
prefix scan and the monotone divide and conquer) versus the dense-scan DP.
They share their market tables on purpose (documented in ``oracles``);
independence comes from the path enumeration and the full scan, so
agreement is asserted bit for bit, not within a tolerance.
"""

import dataclasses
import hashlib
import json
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgrtb import auction, solver
from pgrtb.auction import (
    BidModel,
    RevenueCurves,
    fit_polynomial,
    lowess,
    reference_bid_model,
)
from pgrtb.market import MarketConfig, TimeGrid, reference_config
from pgrtb.replan import UncertaintySpec, replan
from pgrtb.solver import (
    PricePlan,
    competition_level,
    optimal_plan,
    replay_revenue,
)

from oracles import (
    EagerTables,
    all_means,
    backlog_demand,
    bound_table,
    brute_force_optimum,
    censored_bound,
    dense_optimal_plan,
    moments_at,
    optimal_pg_revenue,
    purchase_ratio,
    solve_with_values,
    state_prices,
)
from test_acceptance import random_market


def tail_solve(cfg, grid, model, start_step=0, presold=0, demand_total=None):
    """A solve from ``(start_step, presold)`` at ``demand_total`` (the config's
    when None), run the way the replanner runs its tail solves."""
    tables = solver._MarketTables(cfg, grid).set_demand(model, demand_total, presold)
    return solver._solve(tables, start_step, presold)


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
        plan, tables, H = solve_with_values(optimal_plan, cfg, grid, model)
        assert H[-1] is tables.h_final
        h_prev = {}
        for i, y_set in enumerate(tables.sale_sets):
            h_here = {}
            for j, y in enumerate(y_set):
                value, pick = optimal_pg_revenue(i, int(y), h_prev, cfg, grid, model)
                stored = H[i][j]
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
    assert plan.revenue_rtb == cfg.supply_S * moments_at(model, 12 / 4)[0]
    np.testing.assert_array_equal(plan.prices, plan.bounds)


def test_presold_supply_yields_empty_plan():
    cfg = MarketConfig(supply_S=3, demand_Q=10, horizon_T=3.0, steps_N=3,
                       arrival_rate_lambda=1.0, initial_arrival_mass=0.6)
    grid = TimeGrid.from_config(cfg)
    model = BidModel.uniform(0.0, 1.0)
    plan, _ = tail_solve(cfg, grid, model, start_step=1, presold=3)
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
    presold = int(static.presold + np.cumsum(static.sales)[k - 1])
    tail, _ = tail_solve(cfg, grid, model, start_step=k, presold=presold)
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
    with pytest.raises(ValueError, match="total demand must exceed supply"):
        solver._MarketTables(cfg, grid).set_demand(model, 5)


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
    plan, _ = tail_solve(cfg, grid, model, demand_total=24)
    pg, rtb, total = replay_revenue(plan, cfg, grid, model, demand_total=24)
    assert total == plan.revenue_total


def _fitted_curves(fit):
    """Payment curves fitted to the uniform(0, 1) closed forms on xi = 2..12."""
    xi = np.linspace(2.0, 12.0, 21)
    mean = (xi - 1.0) / (xi + 1.0)
    std = np.sqrt(2.0 * (xi - 1.0) / ((xi + 1.0) ** 2 * (xi + 2.0)))
    return RevenueCurves(fit(np.column_stack([xi, mean])),
                         fit(np.column_stack([xi, std])))


def _assert_same_as_dense(cfg, make_model, **kwargs):
    """The blocked solve equals the dense oracle bit for bit: the plan's JSON
    bytes, every step's states, values (as each step computed them) and
    backpointers, the final values the solve keeps, and every state's price
    derived from its backpointer."""
    grid = TimeGrid.from_config(cfg)
    solve = tail_solve if kwargs else optimal_plan
    plan, tables, H = solve_with_values(solve, cfg, grid, make_model(), **kwargs)
    ref_plan, ref = dense_optimal_plan(cfg, grid, make_model(), **kwargs)
    assert json.dumps(plan.to_dict()) == json.dumps(ref_plan.to_dict())
    assert len(H) == len(tables.sale_sets) == len(tables.back_prev) == len(ref.H)
    assert tables.h_final.tobytes() == ref.h_final.tobytes()
    prices = state_prices(cfg, grid, tables)
    for i in range(len(ref.H)):
        np.testing.assert_array_equal(tables.sale_sets[i], ref.sale_sets[i])
        np.testing.assert_array_equal(H[i], ref.H[i])
        live = np.isfinite(ref.H[i])
        np.testing.assert_array_equal(tables.back_prev[i][live], ref.back_prev[i][live])
        assert prices[i][live].tobytes() == ref.back_price[i][live].tobytes()
        np.testing.assert_array_equal(tables.back_prev[i][~live], -1)
        assert np.all(np.isnan(prices[i][~live]))


def _edge_configs():
    """Markets on the edges of the prefix window's closed form.

    With lambda * dt and the opening mass integral, every cumulative pool is
    an integer, so some targets y equal it and their price ratio is exactly
    1. Demand of S + 1 keeps xi below 2 almost everywhere, so the bound is
    the reserve and exp(bound * scale) sits at or near 1; a tiny value cap
    does the same from above.
    """
    base = MarketConfig(supply_S=24, demand_Q=50, horizon_T=10.0, steps_N=10,
                        arrival_rate_lambda=2.0, initial_arrival_mass=0.2,
                        price_effect_alpha=1.3, time_effect_beta=0.1,
                        risk_level_zeta=6.0, risk_decay_v=0.3,
                        miss_prob_omega=0.05, penalty_size_varpi=0.5)
    configs = [base]
    for r0 in (0.0, 1e-12, 1e-7, 1e-5, 1e-3):
        configs.append(dataclasses.replace(base, demand_Q=25, reserve_price_r0=r0))
    for pi in (1e-12, 1e-7, 1e-4, 0.02):
        configs.append(dataclasses.replace(base, max_value_pi=pi))
    configs.append(dataclasses.replace(base, miss_prob_omega=1.0, penalty_size_varpi=1.0))
    return configs


@pytest.mark.parametrize("block_cells", [1, 5, 48])
def test_blocked_dp_matches_dense_oracle(monkeypatch, block_cells):
    """Small blocks split each step's rows over many blocks and cut the
    prefix windows mid-row; random, reference and edge markets all solve
    exactly as the dense scan does."""
    monkeypatch.setattr(solver, "_BLOCK_CELLS", block_cells)
    makers = [lambda: BidModel.uniform(0.0, 1.0),
              lambda: BidModel.lognormal(0.0, 0.5),
              lambda: BidModel.empirical(np.random.default_rng(77).uniform(0.2, 1.4, 400))]
    rng = np.random.default_rng(4040 + block_cells)
    for trial in range(12):
        _assert_same_as_dense(random_tiny_config(rng), makers[trial % 3])
        _assert_same_as_dense(random_market(rng, tiny=False), makers[trial % 3])
    for cfg in _edge_configs():
        _assert_same_as_dense(cfg, makers[0])
        _assert_same_as_dense(cfg, makers[1])


def test_blocked_dp_matches_dense_oracle_on_tail_solves():
    """Full and tail solves (start step, presold, shocked demand) on the
    reference market with every kind of payment model."""
    cfg = reference_config()
    makers = [lambda: BidModel.uniform(0.0, 1.0),
              lambda: BidModel.lognormal(-0.5, 0.5),
              lambda: BidModel.empirical(np.random.default_rng(5).lognormal(0.0, 0.4, 2000)),
              lambda: _fitted_curves(lowess),
              lambda: _fitted_curves(fit_polynomial)]
    for make in makers:
        _assert_same_as_dense(cfg, make)
        _assert_same_as_dense(cfg, make, start_step=9, presold=14)
        _assert_same_as_dense(cfg, make, start_step=17, presold=20, demand_total=330)
        _assert_same_as_dense(cfg, make, start_step=30, presold=33, demand_total=560)


def test_blocked_dp_matches_dense_oracle_at_scale():
    """One S=800 market at the real block size, where blocks hold a few
    dozen rows of a few hundred columns."""
    cfg = dataclasses.replace(reference_config(), supply_S=800, demand_Q=3000,
                              arrival_rate_lambda=0.2 * 3000 / 30.0)
    _assert_same_as_dense(cfg, lambda: BidModel.uniform(0.0, 1.0))


def test_solve_memory_stays_bounded():
    """A fresh-model S=1600 solve peaks far below the dense scan's ~125 MiB,
    under 1 MiB: the tables keep 4 bytes per state, each step builds its own
    bound row and each transition block is O(_BLOCK_CELLS)."""
    cfg = dataclasses.replace(reference_config(), supply_S=1600, demand_Q=6400,
                              arrival_rate_lambda=0.2 * 6400 / 30.0)
    grid = TimeGrid.from_config(cfg)
    model = BidModel.uniform(0.0, 1.0)
    tracemalloc.start()
    try:
        plan, _ = optimal_plan(cfg, grid, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.total_sold <= cfg.supply_S
    assert peak < 2**20, f"traced peak {peak / 2**20:.2f} MiB"


def test_solve_stores_an_int32_backpointer_per_state():
    """An S=1600 solve keeps 4 bytes per state and one float64 row of final
    values: every step's state set is a read-only view of one shared
    buffer, and back_prev is int32."""
    cfg = _large_market(1600, 6400)
    _, tables = optimal_plan(cfg, TimeGrid.from_config(cfg), BidModel.uniform(0.0, 1.0))
    base = tables.sale_sets[0]
    for ys in tables.sale_sets:
        assert np.shares_memory(ys, base) and not ys.flags.writeable
    assert all(b.dtype == np.int32 for b in tables.back_prev)
    assert tables.h_final.dtype == np.float64
    assert tables.h_final.shape == tables.sale_sets[-1].shape
    states = sum(ys.size for ys in tables.sale_sets)
    assert states > 20 * cfg.supply_S
    assert sum(b.nbytes for b in tables.back_prev) == 4 * states


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), law=st.integers(0, 2),
       block_cells=st.sampled_from([1, 4, 30]))
def test_monotone_schedule_properties(seed, law, block_cells):
    """Random markets with blocks so small that nearly every step takes the
    divide and conquer: plans and tables equal the dense oracle bit for bit,
    prices stay under their bounds, the split replays, and a tail solve from
    a state on the plan's path reproduces its suffix."""
    makers = [lambda: BidModel.uniform(0.0, 1.0),
              lambda: BidModel.lognormal(0.0, 0.5),
              lambda: BidModel.empirical(np.random.default_rng(77).uniform(0.2, 1.4, 400))]
    rng = np.random.default_rng(seed)
    cfg = random_market(rng, tiny=seed % 4 == 0)
    grid = TimeGrid.from_config(cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_BLOCK_CELLS", block_cells)
        _assert_same_as_dense(cfg, makers[law])
        model = makers[law]()
        plan, _ = optimal_plan(cfg, grid, model)
        k = 1 + seed % cfg.steps_N
        presold = int(np.cumsum(plan.sales)[k - 1])
        tail, _ = tail_solve(cfg, grid, model, start_step=k, presold=presold)
    assert np.all(plan.prices <= plan.bounds)
    pg, rtb, total = replay_revenue(plan, cfg, grid, model)
    assert pg == pytest.approx(plan.revenue_pg, rel=0.0, abs=1e-9)
    assert rtb == pytest.approx(plan.revenue_rtb, rel=0.0, abs=1e-9)
    assert total == pytest.approx(plan.revenue_total, rel=0.0, abs=1e-9)
    np.testing.assert_array_equal(tail.sales, plan.sales[k:])
    np.testing.assert_array_equal(tail.prices, plan.prices[k:])
    assert tail.revenue_rtb == plan.revenue_rtb


def _large_market(supply, demand):
    return dataclasses.replace(reference_config(), supply_S=supply, demand_Q=demand,
                               arrival_rate_lambda=0.2 * demand / 30.0)


def test_monotone_schedule_matches_blocked_scan_at_scale(monkeypatch):
    """An S=6400 solve writes the same plan bytes as the blocked scan, which
    every step takes when the divide and conquer is swapped out for it."""
    cfg = _large_market(6400, 25600)
    grid = TimeGrid.from_config(cfg)
    plan, _ = optimal_plan(cfg, grid, BidModel.uniform(0.0, 1.0))
    monkeypatch.setattr(solver, "_scan_monotone", solver._scan_blocks)
    ref, _ = optimal_plan(cfg, grid, BidModel.uniform(0.0, 1.0))
    assert json.dumps(plan.to_dict()).encode() == json.dumps(ref.to_dict()).encode()


def test_large_steps_take_the_monotone_schedule(monkeypatch):
    """At S=1600, Q=4S at least 90% of the steps run the divide and conquer,
    so the blocked scan cannot silently take them all."""
    calls = {"monotone": 0, "blocks": 0}

    def counting(name, scan):
        def wrapped(*args):
            calls[name] += 1
            return scan(*args)
        return wrapped

    monkeypatch.setattr(solver, "_scan_monotone",
                        counting("monotone", solver._scan_monotone))
    monkeypatch.setattr(solver, "_scan_blocks", counting("blocks", solver._scan_blocks))
    cfg = _large_market(1600, 6400)
    optimal_plan(cfg, TimeGrid.from_config(cfg), BidModel.uniform(0.0, 1.0))
    assert calls["monotone"] + calls["blocks"] == cfg.steps_N + 1
    assert calls["monotone"] >= 0.9 * (cfg.steps_N + 1), calls


def _dense_row_picks(t, n, h_prev, ln_avail, bound):
    """Each row's best cell over every column and the largest column that
    reaches it, by the dense oracle's float expression: -inf (and pick 0)
    where no cell passes its bound."""
    i, j = np.meshgrid(np.arange(bound.size), np.arange(h_prev.size), indexing="ij")
    z2 = np.maximum(i - j, 1)
    price = (ln_avail[j] - t.log_k[z2]) / t.price_scale[n]
    vals = h_prev[j] + (t.coef * price) * z2
    ok = (i - j >= 1) & (price <= bound[:, None]) & np.isfinite(h_prev)[j]
    vals = np.where(ok, vals, -np.inf)[:, ::-1]
    return vals.max(axis=1), h_prev.size - 1 - vals.argmax(axis=1)


def _flat_row(t, n, h_prev, ln_avail, bound, row, rng):
    """``h_prev`` reshaped so every feasible cell of ``row`` is worth ``coef
    S pi`` (the most guaranteed revenue the ceiling allows) up to rounding,
    then the columns around the row's best moved by 1-3 ulps each."""
    j = np.arange(h_prev.size)
    z2 = np.maximum(row - j, 1)
    price = (ln_avail - t.log_k[z2]) / t.price_scale[n]
    gain = (t.coef * price) * z2
    feasible = (row - j >= 1) & (price <= bound[row])
    top = t.coef * t.S * t.cfg.max_value_pi
    h = np.where(feasible, top - gain, h_prev)
    vals = np.where(feasible, h + gain, -np.inf)
    best = int(np.flatnonzero(vals == vals.max())[-1])
    for col in np.flatnonzero(feasible[max(0, best - 4):best + 5]) + max(0, best - 4):
        for _ in range(int(rng.integers(1, 4))):
            h[col] = np.nextafter(h[col], math.inf if rng.random() < 0.5 else -math.inf)
    return h


def _scan_markets():
    """``(name, tables, step, h_prev)``: step 20 of an S=300 reference market,
    whose ``h_prev`` is the solve's own, and step 1 of S=300 markets with
    10^10 advertisers waiting, ``ny cum`` a part in 10^9 either side of
    2^40. Each also comes with a ceiling of several 10^12: next to prices of
    a few units, cells worth about ``coef S pi`` lie within a few ulps of
    each other. No bound falls in ``y``."""
    for pi in (0.6, 6e12):
        cfg = dataclasses.replace(_large_market(300, 1200), risk_level_zeta=0.0,
                                  max_value_pi=pi)
        t = solver._MarketTables(cfg, TimeGrid.from_config(cfg)).set_demand(
            BidModel.uniform(0.0, pi / 0.6), None)
        _, _, H = solve_with_values(solver._solve, t, 0, 0)
        yield f"reference pi={pi}", t, 20, H[19]
    for side in (-1, 1):
        for pi in (0.5, 5e12):
            cum = 2.0 ** 40 * (1.0 + side * 1e-9) / 301
            cfg = MarketConfig(supply_S=300, demand_Q=10**10, horizon_T=1.0, steps_N=1,
                               arrival_rate_lambda=0.0, initial_arrival_mass=cum / 1e10,
                               price_effect_alpha=40.0, max_value_pi=pi)
            t = solver._MarketTables(cfg, TimeGrid.from_config(cfg)).set_demand(
                BidModel.uniform(0.0, 2.0 * pi), None)
            yield (f"2^40 {'+-'[side < 0]} pi={pi}", t, 1,
                   0.4 * t.coef * pi * np.arange(301.0))


def test_monotone_scan_picks_the_dense_argmax_on_near_ties(monkeypatch):
    """``_scan_monotone`` called directly gives every row the dense scan's
    best value and largest best column, and ``_step`` gives the dense
    transition's, on adversarial predecessor values: a solve's own, exact
    ties (plateaus of equal values, some dead), and rows made flat at the
    largest ``|h|`` the ceiling allows with columns a few ulps apart. Steps
    with ``ny cum`` just under 2^40 take the monotone scan and compute their
    row floor; just over, ``_step`` falls back to the blocked scan, and the
    floor returns row 1 early."""
    rng = np.random.default_rng(40)
    taken = []

    def spying(name, scan):
        def wrapped(*args):
            taken.append(name)
            return scan(*args)
        return wrapped

    monkeypatch.setattr(solver, "_scan_blocks", spying("blocks", solver._scan_blocks))
    monkeypatch.setattr(solver, "_scan_monotone", spying("monotone", solver._scan_monotone))
    floors, sides = set(), set()
    with np.errstate(divide="ignore", invalid="ignore"):
        for name, t, n, base in _scan_markets():
            ny = nz = 301
            ln_avail = np.log(t.cum[n] - np.arange(nz))
            bound = t.bound(n, slice(0, ny))
            assert not np.any(np.diff(bound) < 0), name
            floor = solver._row_floor(t, n, ln_avail, bound, 0)
            floors.add(floor)
            ties = np.repeat(base[::7], 7)[:nz]
            ties[3::11] = -np.inf
            cases = {"own": base, "ties": ties}
            for row in (ny - 1, (ny + floor) // 2, max(floor, 40)):
                cases[f"flat row {row}"] = _flat_row(t, n, base, ln_avail, bound, row, rng)
            for case, h_prev in cases.items():
                best, pick = _dense_row_picks(t, n, h_prev, ln_avail, bound)
                h_n = np.full(ny, -np.inf)
                prev_pick = np.zeros(ny, dtype=np.int32)
                solver._scan_monotone(t, n, h_prev, ln_avail, bound, 0, h_n, prev_pick)
                live = np.isfinite(best)
                assert h_n.tobytes() == best.tobytes(), (name, case)
                assert np.array_equal(prev_pick[live], pick[live]), (name, case)

                taken.clear()
                _, h_step, back = solver._step(t, n, h_prev, 0, nz - 1)
                above = ny * t.cum[n] > 2.0 ** 40
                sides.add(above)
                assert taken == ["blocks" if above else "monotone"], (name, case)
                carry = h_prev >= best
                best = np.where(carry, h_prev, best)
                pick = np.where(np.isfinite(best), np.where(carry, np.arange(ny), pick), -1)
                assert h_step.tobytes() == best.tobytes(), (name, case)
                assert np.array_equal(back, pick), (name, case)
    assert 1 in floors and max(floors) > 1 and sides == {False, True}


def test_solves_restore_the_callers_buffer_size(monkeypatch):
    """A solve and a walk run with numpy's iterator buffers at
    ``_BUFSIZE`` elements and hand back the caller's size, also when the
    DP raises part-way."""
    cfg = reference_config()
    grid = TimeGrid.from_config(cfg)
    model = BidModel.lognormal(-0.5, 0.5)
    seen, step = [], solver._step

    def failing(*args):
        seen.append(np.getbufsize())
        if len(seen) == 3:
            raise RuntimeError("step 2 failed")
        return step(*args)

    old = np.setbufsize(4096)
    try:
        optimal_plan(cfg, grid, model)
        assert np.getbufsize() == 4096
        replan(cfg, grid, model, UncertaintySpec(0.1, 7))
        assert np.getbufsize() == 4096
        monkeypatch.setattr(solver, "_step", failing)
        with pytest.raises(RuntimeError, match="step 2 failed"):
            optimal_plan(cfg, grid, model)
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(old)
    assert seen == [solver._BUFSIZE] * 3


def test_oversized_problems_are_refused():
    """More table cells than the budget fail before any table is built,
    per-step terms included, whether supply or the step count is large;
    the largest sizes the suite and the benchmark solve stay inside it."""
    model = BidModel.uniform(0.0, 1.0)
    cfg = _large_market(200_000, 800_000)
    assert (cfg.steps_N + 1) * (cfg.supply_S + 1) > solver._MAX_TABLE_CELLS
    with pytest.raises(ValueError, match="problem too large.*budget of 4,194,304"):
        optimal_plan(cfg, TimeGrid.from_config(cfg), model)
    long = dataclasses.replace(reference_config(), supply_S=4, demand_Q=20,
                               steps_N=1_000_000, arrival_rate_lambda=0.1)
    grid = TimeGrid.from_config(long)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="problem too large.*5,000,005 DP table cells"):
            optimal_plan(long, grid, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"traced peak {peak / 2**20:.2f} MiB before the refusal"
    assert (31 * 6401) <= solver._MAX_TABLE_CELLS


def test_forward_share_falls_with_risk_when_the_premium_binds():
    """Criterion 06's companion: with the value cap raised to 2 the risk
    premium, not the cap, bounds open steps, and the forward-sold share
    still does not rise over the risk levels 10/30/60/90."""
    cfg = dataclasses.replace(reference_config(), max_value_pi=2.0)
    grid = TimeGrid.from_config(cfg)
    model = reference_bid_model()
    gammas = []
    for zeta in (10.0, 30.0, 60.0, 90.0):
        plan, _ = optimal_plan(dataclasses.replace(cfg, risk_level_zeta=zeta), grid, model)
        assert np.any(plan.bounds[plan.sales > 0] < cfg.max_value_pi), zeta
        gammas.append(plan.gamma)
    assert all(a >= b for a, b in zip(gammas, gammas[1:])), gammas
    assert gammas[0] > gammas[-1]


def test_scanned_cells_scale_near_linearly_in_supply():
    """A deterministic scaling measure beside criterion 10's wall clock: the
    cells the DP scans, counted at the cell kernel, on the reference market
    with Q=4S. Each doubling of S multiplies them by about 2.15 (a quadratic
    scan would give 4); the bound 2.4 leaves room for the log factor."""
    counts = []
    for supply in (800, 1600, 3200, 6400):
        cells = [0]

        def counting(*args, kernel=solver._cells):
            vals = kernel(*args)
            cells[0] += vals.size
            return vals

        cfg = _large_market(supply, 4 * supply)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_cells", counting)
            optimal_plan(cfg, TimeGrid.from_config(cfg), BidModel.uniform(0.0, 1.0))
        counts.append(cells[0])
    factors = [b / a for a, b in zip(counts, counts[1:])]
    assert all(f <= 2.4 for f in factors), (counts, factors)


# SHA-256 of each plan's ``to_dict()`` JSON (sorted keys), recorded before the
# payment spreads were capped at the value ceiling.
GOLDEN_LARGE_PLANS = {
    4800: "0ad16d14076402d93ba27b1ed46b3347da6ff950e5ea576191a7787d0049aa75",
    6400: "40ed59f06ccfb28a67c0221319ec79b5e1aa6fb01b8c25b957f0c7cdf5c3282d",
    7999: "a7f5aa13ca90ca79793deffafade986bb0326d1464c83ba10842b594ee8253f7",
}


def _plan_digest(plan):
    return hashlib.sha256(json.dumps(plan.to_dict(), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("demand", sorted(GOLDEN_LARGE_PLANS))
def test_large_plans_are_golden(demand):
    cfg = _large_market(1600, demand)
    plan, _ = optimal_plan(cfg, TimeGrid.from_config(cfg), BidModel.uniform(0.0, 1.0))
    assert _plan_digest(plan) == GOLDEN_LARGE_PLANS[demand]


_SPREAD_MODELS = [
    lambda rng: BidModel.uniform(0.0, float(rng.uniform(0.5, 2.0))),
    lambda rng: BidModel.lognormal(float(rng.uniform(-1.0, 0.3)), float(rng.uniform(0.2, 1.0))),
    lambda rng: BidModel.empirical(rng.gamma(2.0, 0.3, size=int(rng.integers(50, 300)))),
    lambda rng: RevenueCurves(
        fit_polynomial([(x, 0.3 + 0.04 * x + 0.02 * rng.standard_normal())
                        for x in np.linspace(1.5, 15.0, 25)], 2),
        lowess([(x, 0.1 + 0.01 * x + 0.01 * rng.standard_normal())
                for x in np.linspace(1.5, 15.0, 25)])),
]


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), law=st.integers(0, 3),
       ceiling=st.sampled_from(["below", "straddling", "above"]), riskless=st.booleans())
def test_capped_spreads_leave_bounds_and_plans_unchanged(seed, law, ceiling, riskless):
    """The tables price spreads only below their cap row; their means, bounds
    and plan equal those built from every level's full spread, with pi below,
    among or above the payment means and with zero risk weight too."""
    rng = np.random.default_rng(seed)
    cfg = random_market(rng, tiny=False)
    model_seed = int(rng.integers(2**32))
    make = lambda: _SPREAD_MODELS[law](np.random.default_rng(model_seed))  # noqa: E731
    S, D = cfg.supply_S, cfg.demand_Q
    xi = np.append((D - np.arange(S)) / (S - np.arange(S)), math.inf)
    means, stds = make().payment_moments(xi, cfg.reserve_price_r0)
    finite = means[np.isfinite(means)]
    pi = {"below": 0.5 * finite.min(), "straddling": float(np.median(finite)),
          "above": 2.0 * finite.max()}[ceiling]
    cfg = dataclasses.replace(cfg, max_value_pi=max(pi, 1e-3),
                              risk_level_zeta=0.0 if riskless else cfg.risk_level_zeta)
    grid = TimeGrid.from_config(cfg)
    capped = solver._MarketTables(cfg, grid).set_demand(make(), None)
    full = solver._MarketTables(cfg, grid)
    full.D, full._means, full._priced = D, means, np.ones(S + 1, dtype=bool)
    full.bound_means, full.bound_stds = means.copy(), stds
    assert all_means(capped).tobytes() == means.tobytes()
    assert bound_table(capped).tobytes() == bound_table(full).tobytes()
    plan, tables, H = solve_with_values(solver._solve, capped, 0, 0)
    ref_plan, ref_tables, ref_H = solve_with_values(solver._solve, full, 0, 0)
    assert plan.to_dict() == ref_plan.to_dict()
    for ours, ref in zip((tables.sale_sets, H, tables.back_prev),
                         (ref_tables.sale_sets, ref_H, ref_tables.back_prev)):
        assert len(ours) == len(ref)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(ours, ref))


def _lazy_scenarios():
    """Markets and bid laws on the edges of the lazy pricing, each with what
    its lazy tables must show: how many of rows 0..S-1 are left capped."""
    ref = reference_config()
    thin = dataclasses.replace(ref, demand_Q=150, arrival_rate_lambda=0.2 * 150 / 30.0,
                               reserve_price_r0=0.1)  # xi < 2 on rows below 50
    uniform = lambda: BidModel.uniform(0.0, 1.0)  # noqa: E731
    lognormal = lambda: BidModel.lognormal(-0.5, 0.5)  # noqa: E731
    point = lambda: BidModel.empirical([0.7] * 20)  # noqa: E731
    return {
        "reserve, xi below 2, uniform": (thin, uniform, lambda capped: 0 < capped < 50),
        "reserve, xi below 2, lognormal": (thin, lognormal, lambda capped: 0 < capped <= 50),
        "pi above every mean, uniform": (dataclasses.replace(ref, max_value_pi=2.0), uniform,
                                         lambda capped: capped == 0),
        "pi above every mean, lognormal": (dataclasses.replace(ref, max_value_pi=5.0), lognormal,
                                           lambda capped: capped == 0),
        "pi below every mean, uniform": (dataclasses.replace(ref, max_value_pi=0.1), uniform,
                                         lambda capped: capped == 100),
        "pi below every mean, lognormal": (dataclasses.replace(ref, max_value_pi=0.1), lognormal,
                                           lambda capped: capped == 100),
        "point mass, capped": (ref, point, lambda capped: capped == 100),
        "point mass, uncapped": (dataclasses.replace(ref, max_value_pi=1.0), point,
                                 lambda capped: capped == 0),
        "reference, uniform": (ref, uniform, lambda capped: capped == 99),
        "reference, lognormal": (ref, lognormal, lambda capped: capped == 100),
    }


LAZY_SCENARIOS = _lazy_scenarios()


@pytest.mark.parametrize("name", sorted(LAZY_SCENARIOS))
def test_lazy_pricing_matches_eager_tables(monkeypatch, name):
    """Tables that price only the rows a solve reads give the plan, every
    DP table and every walk of tables that price every row up front (the
    dense oracle's): full and tail solves, and a replan walk."""
    cfg, make, expect = LAZY_SCENARIOS[name]
    grid = TimeGrid.from_config(cfg)
    t = solver._MarketTables(cfg, grid).set_demand(make(), None)
    assert expect(int((~t._priced[:cfg.supply_S]).sum()))
    eager = EagerTables(cfg, grid).set_demand(make(), None)
    assert bound_table(t).tobytes() == eager.bounds.tobytes()
    _assert_same_as_dense(cfg, make)
    _assert_same_as_dense(cfg, make, start_step=9, presold=14)
    _assert_same_as_dense(cfg, make, start_step=20, presold=30, demand_total=cfg.demand_Q + 60)
    spec = UncertaintySpec(0.1, 5)
    plan, trace = replan(cfg, grid, make(), spec)
    monkeypatch.setattr(sys.modules["pgrtb.replan"], "_MarketTables", EagerTables)
    ref_plan, ref_trace = replan(cfg, grid, make(), spec)
    assert json.dumps(plan.to_dict()) == json.dumps(ref_plan.to_dict())
    assert trace == ref_trace


def test_row_floor_leaves_only_rows_without_a_feasible_split(monkeypatch):
    """No row below a step's floor has a split within its bound (a dense
    scan of every step checks it), and with the floor patched out every plan
    and DP table is the same: random markets, bounds that fall somewhere in
    y, and tail solves."""
    rng = np.random.default_rng(8181)
    cases = [(random_market(rng, tiny=False), MODELS[k % 3], 0, 0) for k in range(24)]
    falling = dataclasses.replace(reference_config(), risk_level_zeta=40.0, max_value_pi=5.0)
    cases += [(falling, BidModel.uniform(0.0, 1.0), 0, 0),
              (falling, BidModel.uniform(0.0, 1.0), 9, 14),
              (reference_config(), BidModel.lognormal(-0.5, 0.5), 12, 20)]
    raised = falls = 0
    for k, (cfg, model, start, presold) in enumerate(cases):
        grid = TimeGrid.from_config(cfg)
        t = solver._MarketTables(cfg, grid).set_demand(model, None, presold)
        u_prev = presold
        for n in range(start, cfg.steps_N + 1):
            un = int(t.u[n])
            ln_avail = np.log(t.cum[n] - np.arange(presold, u_prev + 1))
            bound = t.bound(n, slice(presold, un + 1))
            floor = solver._row_floor(t, n, ln_avail, bound, presold)
            i, j = np.meshgrid(np.arange(un - presold + 1), np.arange(u_prev - presold + 1),
                               indexing="ij")
            with np.errstate(divide="ignore", invalid="ignore"):
                price = (ln_avail[j] - t.log_k[np.maximum(i - j, 1)]) / t.price_scale[n]
            feasible = (i - j >= 1) & (price <= bound[:, None])
            assert not feasible[:floor].any(), (k, n, floor)
            raised += floor > 1
            falls += bool(np.any(np.diff(bound) < 0))
            u_prev = un
        plan, tables, H = solve_with_values(solver._solve, t, start, presold)
        with monkeypatch.context() as m:
            m.setattr(solver, "_row_floor", lambda *args: 1)
            ref_plan, ref, ref_H = solve_with_values(
                solver._solve, solver._MarketTables(cfg, grid).set_demand(model, None, presold),
                start, presold)
        assert json.dumps(plan.to_dict()) == json.dumps(ref_plan.to_dict()), k
        for ours, theirs in zip((tables.sale_sets, H, tables.back_prev),
                                (ref.sale_sets, ref_H, ref.back_prev)):
            assert len(ours) == len(theirs), k
            assert all(a.tobytes() == b.tobytes() for a, b in zip(ours, theirs)), k
    assert raised and falls


def test_solves_price_each_level_once_through_payment_moments(monkeypatch):
    """The reference walk (noise seed 7) and an S=400 solve on a fresh
    lognormal model price every level through ``payment_moments``, the cap
    probes and terminal means included, so every cached level has a finite
    spread."""
    callers = []
    batch = auction._payment_points_batch

    def spy(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return batch(*args)

    monkeypatch.setattr(auction, "_payment_points_batch", spy)
    model = BidModel.lognormal(-0.5, 0.5)
    cfg = reference_config()
    replan(cfg, TimeGrid.from_config(cfg), model, UncertaintySpec(0.1, 7, "gaussian"))
    cfg = _large_market(400, 1600)
    optimal_plan(cfg, TimeGrid.from_config(cfg), model)
    assert callers and set(callers) == {"payment_moments"}
    assert all(math.isfinite(std) for _, std in model._moments.values())


def test_large_uniform_solve_prices_few_payment_levels():
    """An S=1600, Q=6400 solve leaves at most 800 levels in a fresh model's
    caches; pricing every row took 1,600."""
    model = BidModel.uniform(0.0, 1.0)
    cfg = _large_market(1600, 6400)
    optimal_plan(cfg, TimeGrid.from_config(cfg), model)
    assert len(model._moments) <= 800
