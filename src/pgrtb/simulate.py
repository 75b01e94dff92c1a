"""Synthetic market: sampled arrivals, posted-price purchases, delivery-day
auctions, and synthetic auction logs (a :class:`~pgrtb.logs.BidLog`).

The simulator is the plan's reality check. Arrivals are Poisson draws around
the expected schedule, purchases are binomial thinning of the waiting pool at
the posted price, sold contracts fail independently at delivery (costing the
penalty), and the leftover impressions run second-price auctions against the
leftover demand. Markets are drawn in fixed blocks, each block's arrivals,
purchases, failures and auctions in a few vector draws from its own stream,
so a root seed pins the experiment.
"""

from __future__ import annotations

import math
import numbers
from datetime import datetime, timedelta, timezone

import numpy as np
# imported by name, so that numpy.random loads with the package and not on a
# process's first draw (numpy loads some submodules on first attribute use)
from numpy.random import SeedSequence, default_rng

from .logs import _HOUR, _US, BidLog, _stamp_numbers
from .market import MarketConfig, StepTerms, TimeGrid
from .solver import PricePlan

__all__ = [
    "evaluate_plan",
    "generate_log",
]

_EPOCH = datetime(2024, 1, 1, tzinfo=timezone.utc)
_BLOCK = 32  # markets per block: a reference-market block holds ~11k bids, 0.1 MiB an array


def _auctions(supply, demand, bid_model, rng, reserve):
    """Delivery-day second-price auctions over each market's leftover inventory.

    Market ``i``'s ``demand[i]`` contenders each land on a uniformly random one
    of its ``supply[i]`` impressions (the integer part of a uniform draw times
    ``supply[i]``) and bid a fresh draw from ``bid_model``; all markets' places
    are drawn first, then all bids. An impression with two or more bidders pays
    its second-highest bid (its top bid when two tie there), otherwise the
    reserve, and a market without impressions has no auctions. Returns each
    market's revenue, summed impression by impression.
    """
    demand = np.where(supply > 0, demand, 0)
    first = np.cumsum(supply) - supply  # each market's first impression
    u = rng.random(int(demand.sum()))
    bids = bid_model.sample_bids(rng, u.size)
    place = np.repeat(first, demand) + (u * np.repeat(supply, demand)).astype(np.int64)
    pay = np.full(int(supply.sum()), float(reserve))
    top, below = np.full((2, pay.size), -np.inf)
    np.maximum.at(top, place, bids)  # scatter maxima: top and runner-up, no sort
    tied = bids == top[place]  # each impression's top bid, and any bid equal to it
    np.maximum.at(below, place, np.where(tied, -np.inf, bids))
    np.copyto(below, top, where=np.bincount(place[tied], minlength=pay.size) >= 2)
    np.copyto(pay, below, where=np.bincount(place, minlength=pay.size) >= 2)
    return np.bincount(np.repeat(np.arange(supply.size), supply), pay, supply.size)


def _block(plan: PricePlan, cfg: MarketConfig, terms: StepTerms, bid_model, seed):
    """``_BLOCK`` market realizations against a plan, all from one stream.

    Per market: contenders arrive by Poisson(``rate`` = lambda * dt) each
    step, plus the opening block floor(``waiting`` = mass * Q) at step 0, and
    wait in a pool. At each step the plan leaves open, every waiting
    contender buys independently with the purchase ratio
    ``exp(-price_scale[n] * price)`` of :class:`~pgrtb.market.StepTerms`,
    the ratio the solver inverts; sales are capped by remaining supply.
    Each sold contract then fails to deliver with probability omega,
    costing ``varpi * price`` and releasing its impression, and the
    leftover supply runs :func:`_auctions` against the leftover demand
    (failed buyers rejoin the demand side). The block draws its arrivals,
    then one binomial per open step across its markets, its failures and
    its auctions. Returns per market the sales per step, the net contract
    revenue, the auction revenue and the delivered count.
    """
    rng = default_rng(seed)
    prices = np.asarray(plan.prices, dtype=float)
    arrived = rng.poisson(terms.rate, (_BLOCK, terms.cum.size))
    arrived[:, 0] += int(math.floor(terms.waiting))
    np.cumsum(arrived, axis=1, out=arrived)  # by the end of each step
    sold = np.zeros_like(arrived)
    taken, supply = np.zeros(_BLOCK, dtype=arrived.dtype), cfg.supply_S - plan.presold
    for n in np.flatnonzero(plan.sales).tolist():  # the pool waiting is arrived - taken
        want = rng.binomial(arrived[:, n] - taken, math.exp(-terms.price_scale[n] * prices[n]))
        sold[:, n] = np.minimum(want, supply - taken)
        taken += sold[:, n]
    failures = rng.binomial(sold, cfg.miss_prob_omega)
    pg = (sold * prices).sum(axis=1) - cfg.penalty_size_varpi * (failures * prices).sum(axis=1)
    delivered = taken - failures.sum(axis=1)
    rtb = _auctions(cfg.supply_S - delivered, cfg.demand_Q - delivered, bid_model, rng,
                    cfg.reserve_price_r0)
    return sold, pg, rtb, delivered


def evaluate_plan(plan: PricePlan, cfg: MarketConfig, grid: TimeGrid, bid_model,
                  n_runs, seed):
    """Monte Carlo summary of a plan over ``n_runs`` independent markets.

    Markets are drawn in blocks of ``_BLOCK`` (see :func:`_block`): block
    ``b`` holds markets ``b * _BLOCK`` onwards and draws from child ``b`` of
    ``seed`` (as a fresh ``spawn`` makes it; a ``SeedSequence`` passed in is
    not advanced), and it always draws all its markets. So market ``k``'s
    outcome depends on the seed and ``k`` alone, and the outcomes of
    ``n_runs`` markets are the first ``n_runs`` of those of any larger count.
    Only a full-horizon plan with a price, a sale count and a bound at each
    of the market's N + 1 steps can be simulated, and a step it leaves open
    must post a non-negative price. Returns ``(summary, markets)``, ``markets`` a
    structured array of each market's sales per step ``pg_sold`` (N + 1 ints),
    net contract revenue ``pg_revenue``, auction revenue ``rtb_revenue`` and
    ``delivered_fraction`` (1 if it sold none).
    """
    if n_runs < 1:
        raise ValueError("n_runs must be at least 1")
    if plan.start_step != 0:
        raise ValueError("simulation needs a full-horizon plan")
    sizes = (len(plan.prices), len(plan.sales), len(plan.bounds))
    if sizes != (cfg.steps_N + 1,) * 3:
        raise ValueError("plan holds {} prices, {} sales and {} bounds; the market has "
                         "{} steps (steps_N={})".format(*sizes, cfg.steps_N + 1, cfg.steps_N))
    if (np.asarray(plan.prices)[np.asarray(plan.sales) != 0] < 0).any():
        raise ValueError("price must be non-negative")
    terms = StepTerms(cfg, grid)  # built once for every block
    root = seed if isinstance(seed, SeedSequence) else SeedSequence(seed)
    children = [SeedSequence(root.entropy, spawn_key=root.spawn_key + (b,),
                             pool_size=root.pool_size) for b in range(-(-n_runs // _BLOCK))]
    blocks = [_block(plan, cfg, terms, bid_model, child) for child in children]
    sold, pg, rtb, delivered = (np.concatenate(parts)[:n_runs] for parts in zip(*blocks))
    total_sold = sold.sum(axis=1)
    fraction = np.divide(delivered, total_sold, out=np.ones(n_runs), where=total_sold > 0)
    markets = np.empty(n_runs, [("pg_sold", sold.dtype, sold.shape[1]), ("pg_revenue", float),
                                ("rtb_revenue", float), ("delivered_fraction", float)])
    for name, column in zip(markets.dtype.names, (sold, pg, rtb, fraction)):
        markets[name] = column

    totals = pg + rtb
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
        "mean_delivered_fraction": float(fraction.mean()),
        "quantiles": {f"q{int(100 * q):02d}": float(v)
                      for q, v in zip(qlevels, qvals)},
        "mean_sold_per_step": [float(v) for v in sold.mean(axis=0)],
        "se_sold_per_step": [float(v) for v in
                             sold.std(axis=0, ddof=0) / math.sqrt(n_runs)],
    }
    return summary, markets


def generate_log(bid_model, *, hours, auctions_per_hour, bidders_per_hour,
                 seed, slot_id="slot-0", start_time=None):
    """Synthetic auction log with a planted hourly competition pattern.

    Hour ``h`` runs ``auctions_per_hour`` auctions, each with
    ``bidders_per_hour[h mod len]`` independent bids from ``bid_model``.
    Auction ``a`` of hour ``h`` is stamped ``start_time + timedelta(hours=h) +
    timedelta(seconds=3600 a / auctions_per_hour)``, kept as the log's two numbers:
    one vector sum when ``start_time`` is naive or at a fixed offset, and per stamp
    when its zone's offset may change (one run per auction). Returns ``(log,
    truth)``: a :class:`~pgrtb.logs.BidLog` with one row per bid, and everything
    needed to check an estimator against the generator.
    """
    # sizes are counts: a float or a bool is refused, never truncated
    sizes = [("hours", hours), ("auctions_per_hour", auctions_per_hour),
             *((f"bidders_per_hour[{i}]", b) for i, b in enumerate(bidders_per_hour))]
    for name, value in sizes:
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, not {value!r}")
    if not str(slot_id).strip():  # a log reader refuses a blank id
        raise ValueError(f"slot_id {slot_id!r} is blank")
    if hours < 1 or auctions_per_hour < 1:
        raise ValueError("hours and auctions_per_hour must be positive")
    bidders = [int(b) for b in bidders_per_hour]
    if not bidders or any(b < 0 for b in bidders):
        raise ValueError("bidders_per_hour must be non-empty, non-negative ints")
    rng = default_rng(seed)
    start = _EPOCH if start_time is None else start_time
    per_hour = np.resize(np.array(bidders, dtype=np.int64), hours)  # each hour's bidders
    bids = np.empty(int(per_hour.sum()) * auctions_per_hour)
    for part in np.split(bids, np.cumsum(per_hour)[:-1] * auctions_per_hour):
        part[:] = bid_model.sample_bids(rng, part.size)  # hour by hour, from one stream
    starts = np.repeat(per_hour[per_hour > 0], auctions_per_hour)  # one run per auction
    starts = np.cumsum(starts) - starts
    steps = [timedelta(seconds=3600.0 * a / auctions_per_hour) for a in range(auctions_per_hour)]
    stamped = np.flatnonzero(per_hour).tolist()  # an auction without bids has no rows
    auction_ids = [f"{slot_id}-h{h:04d}-a{a:05d}" for h in stamped for a in range(auctions_per_hour)]
    if start.tzinfo is None or isinstance(start.tzinfo, timezone):  # one offset for all
        if stamped:  # past year 9999 this raises, as the datetime arithmetic does
            start + timedelta(hours=stamped[-1]) + steps[-1]
        instant, offset = _stamp_numbers(start)
        instants = (np.array(stamped, dtype=np.int64)[:, None] * _HOUR + instant
                    + np.array([step // _US for step in steps], dtype=np.int64)).ravel()
        offsets = np.full(instants.size, offset)
    else:  # a zone's offset changes with its wall clock
        instants, offsets = np.array(
            [_stamp_numbers(start + timedelta(hours=h) + step) for h in stamped for step in steps],
            dtype=np.int64).reshape(-1, 2).T.copy()
    truth = {
        "slot_id": slot_id,
        "hours": int(hours),
        "auctions_per_hour": int(auctions_per_hour),
        "bidders_per_hour": bidders,
        "seed": int(seed) if np.isscalar(seed) else None,
        "bid_model": bid_model.to_dict(),
        "start_time": (start.isoformat()),
    }
    return BidLog._of_runs(starts, [slot_id] * len(starts), auction_ids, instants, offsets,
                           bids), truth
