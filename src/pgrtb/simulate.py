"""Synthetic market: sampled arrivals, posted-price purchases, delivery-day
auctions, and synthetic auction logs (a :class:`~pgrtb.logs.BidLog`).

The simulator is the plan's reality check. Arrivals are Poisson draws around
the expected schedule, purchases are binomial thinning of the waiting pool at
the posted price, sold contracts fail independently at delivery (costing the
penalty), and the leftover impressions run second-price auctions against the
leftover demand, all at once through the log summaries' grouping kernel. Each
randomized piece takes an explicit seed, so a root seed pins the experiment.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np
# imported by name, so that numpy.random loads with the package and not on a
# process's first draw (numpy loads some submodules on first attribute use)
from numpy.random import SeedSequence, default_rng

from .logs import BidLog
from .market import MarketConfig, StepTerms, TimeGrid
from .solver import PricePlan

__all__ = [
    "SimOutcome",
    "evaluate_plan",
    "generate_log",
]

_EPOCH = datetime(2024, 1, 1, tzinfo=timezone.utc)


def _seed_sequence(seed):
    if isinstance(seed, SeedSequence):
        return seed
    return SeedSequence(seed)


def _arrivals(terms: StepTerms, seed):
    """Sampled contender arrivals per step.

    Poisson(``rate`` = lambda * dt) at every step, plus the deterministic
    opening block floor(``waiting`` = mass * Q) at step 0.
    """
    rng = default_rng(_seed_sequence(seed))
    arrivals = rng.poisson(terms.rate, terms.cum.size)
    arrivals[0] += int(math.floor(terms.waiting))
    return arrivals


def _purchases(plan: PricePlan, cfg: MarketConfig, terms: StepTerms, seed):
    """Posted-price sales for one arrival realization.

    Contenders accumulate in a waiting pool. At each step the plan leaves
    open, every waiting contender buys independently with the purchase ratio
    ``exp(-price_scale[n] * price)`` of :class:`~pgrtb.market.StepTerms`, the
    ratio the solver inverts; sales are capped by remaining supply. Steps the
    plan closes sell nothing. Returns ``(sold per step, gross contract
    revenue)``. Only a full-horizon plan can be simulated.
    """
    if plan.start_step != 0:
        raise ValueError("simulation needs a full-horizon plan")
    price_scale = terms.price_scale.tolist()
    arrivals_seed, buy_seed = _seed_sequence(seed).spawn(2)
    arrivals = _arrivals(terms, arrivals_seed)
    rng = default_rng(buy_seed)
    remaining = cfg.supply_S - plan.presold
    pool = 0
    sold = np.zeros(len(price_scale), dtype=int)
    revenue = 0.0
    for n in range(len(price_scale)):
        pool += int(arrivals[n])
        if plan.sales[n] == 0 or remaining == 0 or pool == 0:
            continue
        price = float(plan.prices[n])
        if price < 0:
            raise ValueError("price must be non-negative")
        want = int(rng.binomial(pool, math.exp(-price_scale[n] * price)))
        take = min(want, remaining)
        sold[n] = take
        pool -= take
        remaining -= take
        revenue += price * take
    return sold, revenue


def _simulate_rtb(remaining_supply, remaining_demand, bid_model, seed, *, reserve=0.0):
    """Delivery-day second-price auctions over the leftover inventory.

    Each remaining contender lands on a uniformly random impression and bids
    a fresh draw from ``bid_model``. An impression with two or more bidders
    pays its second-highest bid, otherwise the reserve. Returns the revenue,
    summed impression by impression.
    """
    supply, demand = int(remaining_supply), int(remaining_demand)
    if supply < 0 or demand < 0:
        raise ValueError("supply and demand must be non-negative")
    if supply == 0:
        return 0.0
    rng = default_rng(_seed_sequence(seed))
    if demand == 0:
        return float(reserve) * supply
    placement = rng.integers(0, supply, size=demand)
    bids = bid_model.sample_bids(rng, demand)
    order = np.lexsort((-bids, placement))  # by impression, then descending (ties in draw order)
    starts = np.flatnonzero(np.diff(placement[order], prepend=-1))
    contested = starts[np.diff(starts, append=demand) >= 2]
    pay = np.full(supply, float(reserve))
    pay[placement[order[contested]]] = bids[order[contested + 1]]
    revenue = 0.0
    for p in pay.tolist():  # a running total, in impression order
        revenue += p
    return revenue


@dataclass
class SimOutcome:
    """One market realization: sales path, net revenues, delivery rate."""

    pg_sold: np.ndarray
    pg_revenue: float
    rtb_revenue: float
    delivered_fraction: float

    @property
    def total_revenue(self) -> float:
        return self.pg_revenue + self.rtb_revenue


def _market_once(plan: PricePlan, cfg: MarketConfig, terms: StepTerms, bid_model, seed):
    """One full market realization against a plan.

    Purchases first; then each sold contract independently fails to deliver
    with probability omega, costing ``varpi * price`` and releasing the
    impression; the leftover supply then runs auctions against the leftover
    demand (failed buyers rejoin the demand side).
    """
    purchase_seed, failure_seed, rtb_seed = _seed_sequence(seed).spawn(3)
    sold, gross = _purchases(plan, cfg, terms, purchase_seed)
    rng = default_rng(failure_seed)
    failures = rng.binomial(sold, cfg.miss_prob_omega)
    penalty = cfg.penalty_size_varpi * float(np.sum(np.asarray(plan.prices) * failures))
    delivered = int(sold.sum() - failures.sum())
    rtb_revenue = _simulate_rtb(
        cfg.supply_S - delivered, cfg.demand_Q - delivered, bid_model, rtb_seed,
        reserve=cfg.reserve_price_r0)
    total_sold = int(sold.sum())
    return SimOutcome(
        pg_sold=sold,
        pg_revenue=gross - penalty,
        rtb_revenue=rtb_revenue,
        delivered_fraction=delivered / total_sold if total_sold else 1.0,
    )


def evaluate_plan(plan: PricePlan, cfg: MarketConfig, grid: TimeGrid, bid_model,
                  n_runs, seed):
    """Monte Carlo summary of a plan over ``n_runs`` independent markets.

    Deterministic for a given seed: run k always uses the k-th spawned child
    stream.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be at least 1")
    terms = StepTerms(cfg, grid)  # built once for every run
    outcomes = [_market_once(plan, cfg, terms, bid_model, child)
                for child in _seed_sequence(seed).spawn(n_runs)]

    totals = np.array([o.total_revenue for o in outcomes])
    pg = np.array([o.pg_revenue for o in outcomes])
    rtb = np.array([o.rtb_revenue for o in outcomes])
    sold = np.vstack([o.pg_sold for o in outcomes])
    delivered = np.array([o.delivered_fraction for o in outcomes])
    qlevels = (0.05, 0.25, 0.5, 0.75, 0.95)
    qvals = np.quantile(totals, qlevels)
    summary = {
        "n_runs": int(n_runs),
        "plan_revenue": float(plan.revenue_total),
        "mean_total": float(totals.mean()),
        "std_total": float(totals.std(ddof=0)),
        "se_total": float(totals.std(ddof=0) / math.sqrt(n_runs)),
        "mean_pg": float(pg.mean()),
        "mean_rtb": float(rtb.mean()),
        "mean_delivered_fraction": float(delivered.mean()),
        "quantiles": {f"q{int(100 * q):02d}": float(v)
                      for q, v in zip(qlevels, qvals)},
        "mean_sold_per_step": [float(v) for v in sold.mean(axis=0)],
        "se_sold_per_step": [float(v) for v in
                             sold.std(axis=0, ddof=0) / math.sqrt(n_runs)],
    }
    return summary, outcomes


def generate_log(bid_model, *, hours, auctions_per_hour, bidders_per_hour,
                 seed, slot_id="slot-0", start_time=None):
    """Synthetic auction log with a planted hourly competition pattern.

    Hour ``h`` runs ``auctions_per_hour`` auctions, each with
    ``bidders_per_hour[h mod len]`` independent bids from ``bid_model``.
    Returns ``(log, truth)``: a :class:`~pgrtb.logs.BidLog` with one row per
    bid, and everything needed to check an estimator against the generator.
    """
    # sizes are counts: a float or a bool is refused, never truncated
    sizes = [("hours", hours), ("auctions_per_hour", auctions_per_hour),
             *((f"bidders_per_hour[{i}]", b) for i, b in enumerate(bidders_per_hour))]
    for name, value in sizes:
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, not {value!r}")
    if hours < 1 or auctions_per_hour < 1:
        raise ValueError("hours and auctions_per_hour must be positive")
    bidders = [int(b) for b in bidders_per_hour]
    if not bidders or any(b < 0 for b in bidders):
        raise ValueError("bidders_per_hour must be non-empty, non-negative ints")
    rng = default_rng(_seed_sequence(seed))
    start = _EPOCH if start_time is None else start_time
    rows, starts, auction_ids, stamps, bids = 0, [], [], [], []  # one run per auction
    for h in range(hours):
        k = bidders[h % len(bidders)]
        hour_start = start + timedelta(hours=h)
        for a in range(auctions_per_hour if k else 0):  # an auction without bids has no rows
            starts.append(rows + a * k)
            auction_ids.append(f"{slot_id}-h{h:04d}-a{a:05d}")
            stamps.append(hour_start + timedelta(seconds=3600.0 * a / auctions_per_hour))
        rows += auctions_per_hour * k
        # the hour's auctions draw their bids in turn from one stream
        bids.append(bid_model.sample_bids(rng, auctions_per_hour * k))
    truth = {
        "slot_id": slot_id,
        "hours": int(hours),
        "auctions_per_hour": int(auctions_per_hour),
        "bidders_per_hour": bidders,
        "seed": int(seed) if np.isscalar(seed) else None,
        "bid_model": bid_model.to_dict(),
        "start_time": (start.isoformat()),
    }
    return BidLog._of_runs(np.array(starts, dtype=np.int64), [slot_id] * len(starts),
                           auction_ids, stamps, np.concatenate(bids)), truth
