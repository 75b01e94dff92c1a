"""Rolling-horizon replanning under demand shocks."""

import dataclasses
import hashlib
import json
import math
import sys
from collections import Counter

import numpy as np
import pytest

from pgrtb.auction import BidModel, RevenueCurves, fit_payment_curves
from pgrtb.logs import summarize_auctions
from pgrtb.market import MarketConfig, TimeGrid, reference_config
from pgrtb.replan import UncertaintySpec, _update_demand, replan
from pgrtb import solver
from pgrtb.simulate import generate_log
from pgrtb.solver import optimal_plan, replay_revenue

from oracles import EagerTables, replan_walk

replan_module = sys.modules["pgrtb.replan"]


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
    with pytest.raises(ValueError, match="noise_kind must be 'gaussian'"):
        UncertaintySpec(epsilon=0.1, noise_kind="rademacher")
    # an epsilon of true once replanned at 100% noise; an int is a number
    for flag in (True, False, np.True_):
        with pytest.raises(ValueError, match="epsilon must be finite and non-negative, not"):
            UncertaintySpec(epsilon=flag)
    assert UncertaintySpec(epsilon=1).epsilon == 1
    # nor is a string, a null or a list: "0.1" once failed in np.isfinite, naming nothing
    for value in ("0.1", None, [0.1]):
        with pytest.raises(ValueError, match="epsilon must be finite and non-negative, not"):
            UncertaintySpec(epsilon=value)


def coin_draw(spec, step):
    """A fair +/-1 coin keyed like :meth:`UncertaintySpec.draw`: patched in
    for it, its whole steps keep a shock's arithmetic exact."""
    rng = np.random.default_rng(np.random.SeedSequence((int(spec.noise_seed), int(step))))
    return 1.0 if rng.random() < 0.5 else -1.0


def test_draws_are_keyed_by_step():
    """Step k's shock is a pure function of (seed, k), not of draw order:
    a standard normal from the seed sequence keyed ``(seed, k)``."""
    spec = UncertaintySpec(epsilon=0.2, noise_seed=42)
    first = [spec.draw(k) for k in range(5)]
    again = [spec.draw(k) for k in reversed(range(5))]
    assert first == again[::-1]
    assert len(set(first)) == 5
    other = UncertaintySpec(epsilon=0.2, noise_seed=43)
    assert other.draw(0) != spec.draw(0)
    keyed = np.random.default_rng(np.random.SeedSequence((42, 3)))
    assert spec.draw(3) == float(keyed.standard_normal())


def test_update_demand(monkeypatch):
    calm = UncertaintySpec(epsilon=0.0)
    assert _update_demand(37, calm, 3, remaining_supply=10) == 37
    # a crushing negative shock floors at remaining supply + 1
    monkeypatch.setattr(UncertaintySpec, "draw", coin_draw)
    crash = UncertaintySpec(epsilon=10.0, noise_seed=1)
    step_down = next(k for k in range(50) if crash.draw(k) < 0)
    assert _update_demand(30, crash, step_down, remaining_supply=8) == 9


def test_update_demand_rounds_to_nearest(monkeypatch):
    monkeypatch.setattr(UncertaintySpec, "draw", coin_draw)
    up = UncertaintySpec(epsilon=0.5, noise_seed=1)
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
    """The demand-independent tables are built once per walk. Every round
    re-prices them for its demand once, and so does each round a pass
    prices and then discards: at most ``_PASS_ROUNDS - 1`` of those for
    each round that sells."""
    cfg = mid_config()
    grid = TimeGrid.from_config(cfg)
    built, priced = [], []
    init, set_demand = solver._MarketTables.__init__, solver._MarketTables.set_demand
    monkeypatch.setattr(solver._MarketTables, "__init__",
                        lambda self, *a: (built.append(1), init(self, *a))[1])
    monkeypatch.setattr(solver._MarketTables, "set_demand",
                        lambda self, *a: (priced.append(a[1:]), set_demand(self, *a))[1])
    _, trace = replan(cfg, grid, BidModel.uniform(0.0, 1.0), UncertaintySpec(epsilon=0.1))
    assert len(built) == 1
    committed = []
    for row in trace:  # (demand, presold) of each committed round
        presold = cfg.supply_S - row.remaining_supply - row.sell_now
        committed.append((row.demand_before + presold, presold))
    discarded = Counter(priced) - Counter(committed)
    assert not Counter(committed) - Counter(priced)
    assert len(priced) == len(committed) + discarded.total()
    sellers = sum(row.sell_now > 0 for row in trace)
    assert sellers and discarded.total() <= (replan_module._PASS_ROUNDS - 1) * sellers


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


def _noise(monkeypatch, kind, epsilon):
    """The spec of a walk under ``kind`` noise: a ``"rademacher"`` walk draws
    :func:`coin_draw`'s whole +/-1 steps in place of the gaussian."""
    if kind == "rademacher":
        monkeypatch.setattr(UncertaintySpec, "draw", coin_draw)
    return UncertaintySpec(epsilon, 13)


@pytest.mark.parametrize("kind", ["gaussian", "rademacher"])
@pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.3])
@pytest.mark.parametrize("law", sorted(WALK_LAWS))
def test_walks_match_eager_tables(monkeypatch, law, epsilon, kind):
    """A walk whose rounds price only the rows they read commits the plan
    and trace of one whose rounds price every row up front."""
    cfg = reference_config()
    grid = TimeGrid.from_config(cfg)
    spec = _noise(monkeypatch, kind, epsilon)
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


def fitted_curves():
    """Revenue curves fitted to a small generated log of uniform bids."""
    log, _ = generate_log(BidModel.uniform(0.0, 1.0), hours=40, auctions_per_hour=30,
                          bidders_per_hour=[2, 3, 4, 5, 6, 7, 8], seed=5)
    return RevenueCurves(*fit_payment_curves(summarize_auctions(log)))


PASS_MODELS = dict(WALK_LAWS, fitted=fitted_curves)


def _walks(monkeypatch, cfg, make_model, spec):
    """``replan`` and the one-solve-per-round oracle walk on fresh models,
    the JSON bytes of each plan and trace, and what the passes did: the
    rounds each pass solved against the plans it kept, and whether any
    blocked step scanned for more than one round."""
    passes, shared = [], []
    solve_rounds, scan_blocks = solver._solve_rounds, solver._scan_blocks

    def solving(rounds, *args):
        out = solve_rounds(rounds, *args)
        passes.append((len(rounds), len(out[0])))
        return out

    def scanning(t, n, h_prev, *args):
        shared.append(h_prev.ndim > 1)
        return scan_blocks(t, n, h_prev, *args)

    with monkeypatch.context() as mp:
        mp.setattr(replan_module, "_solve_rounds", solving)
        mp.setattr(solver, "_scan_blocks", scanning)
        walks = [replan(cfg, TimeGrid.from_config(cfg), make_model(), spec)]
    walks.append(replan_walk(cfg, TimeGrid.from_config(cfg), make_model(), spec))
    docs = [(json.dumps(plan.to_dict()), json.dumps([dataclasses.asdict(s) for s in trace]))
            for plan, trace in walks]
    return docs, passes, any(shared)


@pytest.mark.parametrize("kind", ["gaussian", "rademacher"])
@pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.3])
@pytest.mark.parametrize("law", sorted(PASS_MODELS))
def test_passes_match_one_solve_per_round(monkeypatch, law, epsilon, kind):
    """Solving rounds in passes commits the plan and trace bytes of a walk
    that prices and solves every round on its own; on lognormal bids some
    cell blocks are shared by several rounds."""
    docs, passes, shared = _walks(monkeypatch, reference_config(), PASS_MODELS[law],
                                  _noise(monkeypatch, kind, epsilon))
    assert docs[0] == docs[1]
    assert sum(kept for _, kept in passes) == reference_config().steps_N + 1
    if law == "lognormal":
        assert shared


def test_passes_discard_rounds_after_a_sale(monkeypatch):
    """A walk whose passes hold rounds after one that sells discards them
    and still commits the oracle walk's bytes."""
    docs, passes, shared = _walks(monkeypatch, mid_config(), WALK_LAWS["lognormal"],
                                  UncertaintySpec(0.1, 3))
    assert docs[0] == docs[1]
    assert shared and any(kept < solved for solved, kept in passes)


def test_passes_hold_one_round_when_bounds_differ(monkeypatch):
    """With a ceiling far above every payment mean no bound is capped, so
    each round's bound moments follow its own demand: every pass holds one
    round, and the walk still commits the oracle walk's bytes."""
    cfg = dataclasses.replace(reference_config(), max_value_pi=50.0)
    docs, passes, shared = _walks(monkeypatch, cfg, WALK_LAWS["lognormal"],
                                  UncertaintySpec(0.1, 13))
    assert docs[0] == docs[1]
    assert not shared and all(solved == 1 for solved, _ in passes)
