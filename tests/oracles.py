"""Reference implementations the tests check the solver and simulator against.

``expected_arrivals``, ``purchase_ratio``, ``risk_preference`` and
``censored_bound`` are the market's per-step terms as scalar ``math.exp``
formulas, one step at a time: independent references for the arrays of
:class:`pgrtb.market.StepTerms`, which are the only copy the program uses.

``dense_optimal_plan`` is the dynamic program with every step built as a
dense ``(ny x nz)`` scan: the bit-identity oracle for the solver's blocked
transition. Its ``DenseTables`` also keep every step's values and every
state's chosen price, which a solve does not: ``solve_with_values`` captures
a solve's values step by step, and ``state_prices`` re-derives its prices
from its backpointers.
``optimal_pg_revenue`` re-derives one DP cell by a scalar scan, and
``brute_force_optimum`` enumerates every sales path of tiny markets.
``replan_walk`` is the replan walk with one tail solve per round, each
priced and run on its own: the reference for ``replan``'s passes, which
solve several rounds together.

The dense DP and the exhaustive search share the solver's precomputed market
tables (cumulative arrivals, log tables) and mirror its float expressions
operation for operation; their independence is the scan or the exhaustive
path enumeration, not a re-derivation of the market primitives. That is
what lets equality tests compare them bit for bit. They price those tables
through ``EagerTables``, every row's payment mean and bound up front,
so they are also the reference for the solver's pricing of only the rows a
solve reads; ``all_means`` completes a lazy table's means and
``bound_table`` builds its full bound table for comparison.
``optimal_pg_revenue`` prices its cells from the scalar references.

``backlog_demand`` folds the expected waiting pool step by step from posted
prices, the reference for the pool the DP prices against.
``scalar_payment_moments`` is one payment level's mean and spread by cases,
the reference for ``BidModel.payment_moments``, and ``mc_second_price``
estimates the same moments by Monte Carlo. ``moments_at`` reads one level's
mean and spread off a model's ``payment_moments`` as two floats. ``pdf``
and ``cdf`` are a bid model's density and distribution function in value
space (closed forms, and the histogram of the smoothed empirical law), which
the quadrature tests integrate as the untransformed order-statistic
integral; the package itself works in quantile space and needs neither. ``loop_auctions`` is the
delivery-day auctions run impression by impression, the reference for the
simulator's grouped ``_auctions``, and can also return the auctions as bid
logs; ``loop_simulate_rtb`` is one market's. ``sorted_auctions`` is the
grouped auctions by one sort of every bid, which ``_auctions``, taking each
impression's top two bids as scatter maxima, must match byte for byte.
``arrivals``, ``purchases`` and ``market_once`` are one market at a time from
its own spawned streams, step by step: the independent replay that
``evaluate_plan``'s block draws must agree with in distribution.

``max_value_by_take`` is the value ceiling with every bucket's auctions
gathered by ``AuctionTable.take``, the reference that
``auction.estimate_max_value`` must match bit for bit while it gathers only
the bids it averages. ``dense_lowess`` is LOWESS with every knot's weights in
one n x n array, the reference that ``auction.lowess``, which weighs a block
of knots at a time, must match bit for bit. ``isoformat_log_bytes`` is a
log's CSV as the csv module writes its rows, each stamp printed by
``datetime.isoformat``: the byte-for-byte reference for ``write_log_csv``,
which prints a chunk's stamps from their numbers in one numpy call.

``best_two_split`` tries every cut of the sorted values and scores each
group by its mean first, then its squared deviations:
``segmentation.kmeans_1d`` picks its cut from prefix sums instead, and must
reach the same least within-group sum of squares.
"""

import csv
import io
import math
from dataclasses import dataclass, field
from datetime import timedelta

import numpy as np
from scipy.special import ndtr

from pgrtb import solver
from pgrtb.auction import FittedCurve, _as_xy, _payment_points_batch
from pgrtb.logs import LOG_HEADER, BidLog
from pgrtb.market import MarketConfig, StepTerms, TimeGrid
from pgrtb.replan import ReplanStep, UncertaintySpec, _update_demand
from pgrtb.simulate import _EPOCH
from pgrtb.solver import DPTables, PricePlan, _MarketTables


def _seed_sequence(seed):
    return seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)


def _check_step(n, last):
    if not isinstance(n, (int, np.integer)) or not 0 <= n <= last:
        raise IndexError(f"step {n} outside 0..{last}")


def expected_arrivals(n, cfg: MarketConfig) -> float:
    """Expected new advertiser arrivals at step ``n``: ``lambda * dt``, plus
    ``initial_arrival_mass * demand_Q`` at the first step."""
    _check_step(n, cfg.steps_N)
    base = cfg.arrival_rate_lambda * cfg.delta_t
    if n == 0:
        return cfg.initial_arrival_mass * cfg.demand_Q + base
    return base


def purchase_ratio(n, price, cfg: MarketConfig, grid: TimeGrid) -> float:
    """Share of waiting advertisers that buys at ``price`` posted at step ``n``:
    ``exp(-alpha * price * (1 + beta * (t_N - t_n)))``."""
    _check_step(n, grid.n_steps)
    if price < 0:
        raise ValueError("price must be non-negative")
    remaining = grid.points[-1] - grid.points[n]
    return math.exp(
        -cfg.price_effect_alpha * price * (1.0 + cfg.time_effect_beta * remaining))


def risk_preference(n, cfg: MarketConfig, grid: TimeGrid) -> float:
    """Risk-aversion weight ``zeta * exp(-v * t_n)`` at step ``n``."""
    _check_step(n, grid.n_steps)
    return cfg.risk_level_zeta * math.exp(-cfg.risk_decay_v * grid.points[n])


def moments_at(model, xi, reserve=0.0):
    """``(mean, spread)`` of the payment at the one level ``xi``, as floats."""
    return tuple(float(m) for m in model.payment_moments(xi, reserve))


def censored_bound(n, xi, cfg: MarketConfig, grid: TimeGrid, model) -> float:
    """Price ceiling at step ``n`` and level ``xi``: the reserve at or below
    one bidder, else ``min(mean + risk * spread, max_value_pi)`` of the payment."""
    _check_step(n, grid.n_steps)
    if xi <= 1.0:
        return cfg.reserve_price_r0
    mean, spread = moments_at(model, xi, cfg.reserve_price_r0)
    return min(mean + risk_preference(n, cfg, grid) * spread, cfg.max_value_pi)


class EagerTables(_MarketTables):
    """The solver's market tables with every row priced at once: every
    level's payment mean and spread, from one ``payment_moments`` call, and
    the full (step, row) table ``bounds`` from them."""

    def set_demand(self, model, demand_total, presold=0):
        cfg, S = self.cfg, self.S
        self.D = int(demand_total) if demand_total is not None else cfg.demand_Q
        if self.D <= S:
            raise ValueError("total demand must exceed supply")
        y = np.arange(S)
        xi = np.append((self.D - y) / (S - y), math.inf)
        xi[:presold] = 0.0
        self._means, stds = model.payment_moments(xi, cfg.reserve_price_r0)
        self._priced = np.ones(S + 1, dtype=bool)
        self.bound_means, self.bound_stds = self._means.copy(), stds
        self.bounds = bound_table(self)
        return self


def bound_table(t: _MarketTables):
    """The full (step, row) table of price bounds from tables' moments."""
    return t.terms.bound(np.arange(len(t.u))[:, None], t.bound_means, t.bound_stds)


def all_means(t: _MarketTables):
    """Every row's payment mean in solver tables, pricing the rows a solve
    left unpriced first."""
    t._price(np.flatnonzero(~t._priced))
    return t._means


@dataclass
class DenseTables(DPTables):
    """The dense DP's tables: the solver's, plus ``H``, every step's values,
    and ``back_price``, each state's chosen price (nan on no-sale carries
    and unreachable states)."""

    H: list = field(default_factory=list)
    back_price: list = field(default_factory=list)


def solve_with_values(solve, *args, **kwargs):
    """``solve(*args, **kwargs)``, a solver route that returns ``(plan,
    tables)``, with every DP step's values ``h_n`` in step order, which a
    solve does not keep: ``(plan, tables, H)``. The values are captured by
    wrapping ``solver._step``."""
    H, step = [], solver._step

    def capturing(*step_args):
        out = step(*step_args)
        H.append(out[1])
        return out

    solver._step = capturing
    try:
        plan, tables = solve(*args, **kwargs)
    finally:
        solver._step = step
    return plan, tables, H


def state_prices(cfg: MarketConfig, grid: TimeGrid, tables: DPTables):
    """Every state's chosen price, derived from its backpointer by the
    scan's float operations, ``(ln(cum_n - z1) - ln z2) / scale_n``: nan on
    no-sale carries and unreachable states, as the dense oracle stores it."""
    t = _MarketTables(cfg, grid)
    prices = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for i, (y, z1) in enumerate(zip(tables.sale_sets, tables.back_prev)):
            n = tables.start_step + i
            z2 = np.where(z1 >= 0, y - z1, 0)
            price = (np.log(t.cum[n] - z1) - t.log_k[z2]) / t.price_scale[n]
            prices.append(np.where(z2 >= 1, price, np.nan))
    return prices


def dense_optimal_plan(cfg: MarketConfig, grid: TimeGrid, model, *,
                       start_step=0, presold=0, demand_total=None):
    """The dense DP: ``optimal_plan`` with every step a full (ny x nz) scan.

    Same arguments and results as :func:`pgrtb.solver.optimal_plan`, whose
    blocked prefix-window transition must reproduce this one bit for bit;
    it is also what the solver-scaling criterion times.
    """
    N = cfg.steps_N
    if not 0 <= start_step <= N:
        raise ValueError(f"start_step outside 0..{N}")
    if not 0 <= presold <= cfg.supply_S:
        raise ValueError("presold outside 0..supply_S")
    t = EagerTables(cfg, grid).set_demand(model, demand_total)
    if presold > t.u[start_step]:
        raise ValueError("presold exceeds cumulative arrivals at start_step")

    tables = DenseTables(start_step=start_step, presold=presold)
    h_prev = np.array([0.0])
    u_prev = presold
    with np.errstate(divide="ignore", invalid="ignore"):
        for n in range(start_step, N + 1):
            un = int(t.u[n])
            ny = un - presold + 1
            nz = u_prev - presold + 1
            y_abs = np.arange(presold, un + 1)
            z1_abs = np.arange(presold, u_prev + 1)
            ln_avail = np.log(t.cum[n] - z1_abs)
            z2 = np.arange(ny)[:, None] - np.arange(nz)[None, :]
            selling = z2 >= 1
            z2c = np.where(selling, z2, 1)
            price = (ln_avail[None, :] - t.log_k[z2c]) / t.price_scale[n]
            vals = h_prev[None, :] + (t.coef * price) * z2c
            ok = selling & (price <= t.bounds[n, y_abs][:, None]) \
                & np.isfinite(h_prev)[None, :]
            vals = np.where(ok, vals, -np.inf)
            rev = vals[:, ::-1]
            idx_rev = np.argmax(rev, axis=1)
            h_n = rev[np.arange(ny), idx_rev]
            z1_pick = nz - 1 - idx_rev
            prev_pick = z1_abs[z1_pick]
            price_pick = price[np.arange(ny), z1_pick]
            m = min(ny, nz)
            carry = h_prev[:m] >= h_n[:m]
            h_n[:m] = np.where(carry, h_prev[:m], h_n[:m])
            prev_pick[:m] = np.where(carry, y_abs[:m], prev_pick[:m])
            price_pick[:m] = np.where(carry, np.nan, price_pick[:m])
            dead = ~np.isfinite(h_n)
            prev_pick[dead] = -1
            price_pick[dead] = np.nan
            tables.sale_sets.append(y_abs)
            tables.H.append(h_n)
            tables.back_prev.append(prev_pick)
            tables.back_price.append(price_pick)
            h_prev = h_n
            u_prev = un

        y_abs = tables.sale_sets[-1]
        rtb = np.where(y_abs < t.S, (t.S - y_abs) * t._means[y_abs], 0.0)
    h_final = tables.h_final = tables.H[-1]
    total = np.where(np.isfinite(h_final), h_final + rtb, -np.inf)
    i_star = int(np.argmax(total))
    y_star = int(y_abs[i_star])

    steps = N - start_step + 1
    prices = np.empty(steps)
    sales = np.empty(steps, dtype=int)
    bnds = np.empty(steps)
    y = y_star
    for i in range(steps - 1, -1, -1):
        j = y - presold
        z1 = int(tables.back_prev[i][j])
        sales[i] = y - z1
        bnds[i] = t.bounds[start_step + i, y]
        prices[i] = tables.back_price[i][j]
        y = z1
    if y != presold:
        raise AssertionError("backpointer chain did not return to the start state")

    plan = PricePlan.from_path(prices, sales, bnds, h_final[i_star], rtb[i_star],
                               supply=t.S, demand=t.D, start_step=start_step,
                               presold=presold)
    return plan, tables


def replan_walk(cfg: MarketConfig, grid: TimeGrid, model, spec: UncertaintySpec):
    """``replan``'s ``(PricePlan, trace)`` by one tail solve per round: each
    round prices the tables at its own demand and presold count and solves
    from its step alone."""
    N, S = cfg.steps_N, cfg.supply_S
    presold, demand_abs = 0, cfg.demand_Q
    prices, sales, bnds = np.empty(N + 1), np.empty(N + 1, dtype=int), np.empty(N + 1)
    pg = 0.0
    trace = []
    tables = _MarketTables(cfg, grid)
    for n in range(N + 1):
        demand_before = demand_abs - presold
        tail = solver._solve(tables.set_demand(model, demand_abs, presold), n, presold)[0]
        z_now = int(tail.sales[0])
        p_now = float(tail.prices[0])
        prices[n], sales[n], bnds[n] = p_now, z_now, float(tail.bounds[0])
        if z_now > 0:
            pg = pg + (tables.coef * p_now) * z_now
        presold += z_now
        if n < N:
            demand_abs = presold + _update_demand(demand_abs - presold, spec, n, S - presold)
        trace.append(ReplanStep(step=n, sell_now=z_now, price=p_now,
                                demand_before=demand_before,
                                demand_after=demand_abs - presold,
                                remaining_supply=S - presold,
                                forecast_revenue=float(tail.revenue_total)))
    realized = PricePlan.from_path(prices, sales, bnds, pg, tail.revenue_rtb,
                                   supply=S, demand=demand_abs)
    return realized, trace


def optimal_pg_revenue(n, y, h_prev, cfg: MarketConfig, grid: TimeGrid, model):
    """Best guaranteed revenue through step ``n`` ending at ``y`` cumulative sales.

    Reference implementation of the DP transition: scans the splits
    ``y = z1 + z2`` with ``z1`` in the previous step's state set (``h_prev``
    maps those states to their values; ignored at ``n = 0``), prices each
    positive ``z2`` off the expected pool, discards prices above the censored
    bound, and keeps the best value. Returns ``(value, (z1, z2, price))``,
    with value ``-inf`` and pick ``None`` when no bounded split exists.

    Smaller ``z2`` wins ties, so a no-sale carry beats any sale it ties with.
    """
    if not 0 <= n <= grid.n_steps:
        raise IndexError(f"step {n} outside 0..{grid.n_steps}")
    f = np.array([expected_arrivals(i, cfg) for i in range(n + 1)], dtype=float)
    cum_n = float(np.cumsum(f)[n])
    u_n = min(cfg.supply_S, math.floor(cum_n))
    if not 0 <= y <= u_n:
        raise ValueError(f"y={y} outside the step's feasible sales 0..{u_n}")
    table = {0: 0.0} if n == 0 else dict(h_prev)
    S, Q = cfg.supply_S, cfg.demand_Q
    xi = math.inf if y == S else (Q - y) / (S - y)
    bound = censored_bound(n, xi, cfg, grid, model)
    scale = cfg.price_effect_alpha * (
        1.0 + cfg.time_effect_beta * (grid.points[-1] - grid.points[n]))
    coef = 1.0 - cfg.miss_prob_omega * cfg.penalty_size_varpi
    best = -math.inf
    pick = None
    for z2 in range(0, y + 1):
        z1 = y - z2
        if z1 not in table:
            continue
        hv = table[z1]
        if z2 == 0:
            val, price = hv, None
        else:
            if not math.isfinite(hv):
                continue
            price = float((np.log(cum_n - z1) - np.log(float(z2))) / scale)
            if price > bound:
                continue
            val = hv + (coef * price) * z2
        if val > best:
            best, pick = val, (z1, z2, price)
    return best, pick


def brute_force_optimum(cfg: MarketConfig, grid: TimeGrid, model):
    """Exhaustive search over every feasible sales path (tiny instances only).

    Enumerates all cumulative-sales trajectories, prices each step off the
    shared market tables, filters bound violations, and picks the maximal
    revenue with the documented tie-break key. Guarded to ``steps_N <= 5``
    and ``supply_S <= 10``; anything larger explodes combinatorially.
    """
    if cfg.steps_N > 5 or cfg.supply_S > 10:
        raise ValueError("exhaustive search is guarded to steps_N <= 5, supply_S <= 10")
    t = EagerTables(cfg, grid).set_demand(model, None)
    N = cfg.steps_N
    ln_avail = []
    prev_top = 0
    with np.errstate(divide="ignore"):
        for n in range(N + 1):
            z1_abs = np.arange(0, prev_top + 1)
            ln_avail.append(np.log(t.cum[n] - z1_abs))
            prev_top = int(t.u[n])

    best = {"rev": -math.inf, "key": None}

    def visit(n, y, pg, path):
        if n > N:
            rtb = 0.0 if y == t.S else (t.S - y) * t._means[y]
            total = pg + rtb
            key = (y,) + tuple(z for z, _ in reversed(path))
            if total > best["rev"] or (total == best["rev"] and key < best["key"]):
                best.update(rev=total, key=key, path=list(path), pg=pg, rtb=rtb)
            return
        top = int(t.u[n])
        bound_row = t.bounds[n]
        for z2 in range(0, top - y + 1):
            if z2 == 0:
                path.append((0, math.nan))
                visit(n + 1, y, pg, path)
                path.pop()
                continue
            price = (ln_avail[n][y] - t.log_k[z2]) / t.price_scale[n]
            if price <= bound_row[y + z2]:
                path.append((z2, float(price)))
                visit(n + 1, y + z2, pg + (t.coef * price) * z2, path)
                path.pop()

    visit(0, 0, 0.0, [])
    sales = np.array([z for z, _ in best["path"]], dtype=int)
    prices = np.array([p for _, p in best["path"]])
    bnds = t.bounds[np.arange(N + 1), np.cumsum(sales)]
    return PricePlan.from_path(prices, sales, bnds, best["pg"], best["rtb"],
                               supply=t.S, demand=t.D)


def backlog_demand(n, prior_prices, cfg: MarketConfig, grid: TimeGrid) -> float:
    """Expected advertisers waiting at step ``n`` given posted price history.

    Arrivals at earlier steps survive into step ``n`` with probability
    ``prod (1 - theta)`` over the prices they declined; arrivals at ``n``
    itself are all present. ``prior_prices`` must have length ``n``.
    """
    _check_step(n, grid.n_steps)
    prior_prices = list(prior_prices)
    if len(prior_prices) != n:
        raise ValueError(f"expected {n} prior prices, got {len(prior_prices)}")
    total = expected_arrivals(n, cfg)
    survive = 1.0
    for i in range(n - 1, -1, -1):
        survive *= 1.0 - purchase_ratio(i, prior_prices[i], cfg, grid)
        total += expected_arrivals(i, cfg) * survive
    return total


def scalar_payment_moments(model, xi, reserve=0.0):
    """``(mean, std)`` of the second-price payment at one level ``xi``.

    The reserve below two bidders, the support's top at infinite
    competition, the point of a point mass, else the model's cached moments,
    filled by the quadrature as a one-level batch on a miss.
    """
    if xi < 2.0:
        return float(reserve), 0.0
    if math.isinf(xi):
        return model.support()[1], 0.0
    if model.kind == "empirical" and model._point is not None:
        return model._point, 0.0
    _payment_points_batch(model, [float(xi)])
    return model._moments[float(xi)]


def pdf(model, x):
    """A bid model's density at ``x``: the uniform and lognormal closed forms,
    the smoothed empirical law's histogram density, 0 for a point mass."""
    x = np.asarray(x, dtype=float)
    if model.kind == "uniform":
        inside = (x >= model.low) & (x <= model.high)
        return np.where(inside, 1.0 / (model.high - model.low), 0.0)
    if model.kind == "lognormal":
        out = np.zeros_like(x)
        pos = x > 0
        xp = x[pos]
        z = (np.log(xp) - model.mu) / model.sigma
        out[pos] = np.exp(-0.5 * z * z) / (xp * model.sigma * math.sqrt(2 * math.pi))
        return out
    if model._point is not None:
        return np.zeros_like(x)
    edges = model._edges
    counts = model._counts
    densities = counts / (counts.sum() * np.diff(edges))
    idx = np.searchsorted(edges, x, side="right") - 1
    valid = (idx >= 0) & (idx < densities.size) & (x <= edges[-1])
    return np.where(valid, densities[np.clip(idx, 0, densities.size - 1)], 0.0)


def cdf(model, x):
    """A bid model's distribution function at ``x``: the uniform and lognormal
    closed forms, the smoothed empirical law's piecewise-linear CDF, a step
    for a point mass."""
    x = np.asarray(x, dtype=float)
    if model.kind == "uniform":
        return np.clip((x - model.low) / (model.high - model.low), 0.0, 1.0)
    if model.kind == "lognormal":
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = ndtr((np.log(x[pos]) - model.mu) / model.sigma)
        return out
    if model._point is not None:
        return (x >= model._point).astype(float)
    return np.interp(x, model._edges, model._cdf_at_edges)


def loop_auctions(supply, demand, bid_model, rng, *, reserve=0.0, slot_id="slot-0",
                  start_time=None):
    """``pgrtb.simulate._auctions`` one impression at a time: ``(revenues, logs)``.

    The same draws: every market's places (the integer part of a uniform
    draw times its supply), then every bid, in market order, and none for a
    market without impressions. Each market's revenue is summed impression
    by impression from 0.0; its log holds one row per bid, each impression
    an auction stamped at its share of a day from ``start_time``.
    """
    supply, demand = [int(s) for s in supply], [int(d) for d in demand]
    if min(supply + demand, default=0) < 0:
        raise ValueError("supply and demand must be non-negative")
    demand = [d if s else 0 for s, d in zip(supply, demand)]
    u = rng.random(sum(demand))
    bids = bid_model.sample_bids(rng, u.size)
    start = _EPOCH if start_time is None else start_time
    revenues, logs, lo = [], [], 0
    for s, d in zip(supply, demand):
        place = (u[lo:lo + d] * s).astype(np.int64).tolist()
        mine = bids[lo:lo + d].tolist()
        lo += d
        by_impression, revenue, rows = {}, 0.0, []
        for p, b in zip(place, mine):
            by_impression.setdefault(p, []).append(b)
        for i in range(s):
            seg = by_impression.get(i, [])
            revenue += sorted(seg)[-2] if len(seg) >= 2 else float(reserve)
            ts = start + timedelta(hours=24.0 * i / s)
            rows.extend((slot_id, f"{slot_id}-rtb-{i:06d}", ts, b) for b in seg)
        revenues.append(revenue)
        logs.append(BidLog(*zip(*rows)) if rows else BidLog([], [], [], []))
    return revenues, logs


def sorted_auctions(supply, demand, bid_model, rng, reserve):
    """``pgrtb.simulate._auctions`` by one sort: the same draws, then every bid
    ordered by impression and, within one, from the highest down (ties in draw
    order), so each impression's second bid in that order is its payment."""
    demand = np.where(supply > 0, demand, 0)
    first = np.cumsum(supply) - supply
    u = rng.random(int(demand.sum()))
    bids = bid_model.sample_bids(rng, u.size)
    place = np.repeat(first, demand) + (u * np.repeat(supply, demand)).astype(np.int64)
    order = np.lexsort((-bids, place))
    starts = np.flatnonzero(np.diff(place[order], prepend=-1))
    contested = starts[np.diff(starts, append=u.size) >= 2]
    pay = np.full(int(supply.sum()), float(reserve))
    pay[place[order[contested]]] = bids[order[contested + 1]]
    return np.bincount(np.repeat(np.arange(supply.size), supply), pay, supply.size)


def loop_simulate_rtb(remaining_supply, remaining_demand, bid_model, seed, *,
                      reserve=0.0, slot_id="slot-0", start_time=None):
    """One market's :func:`loop_auctions` from ``seed``: ``(revenue, log)``."""
    (revenue,), (log,) = loop_auctions(
        [remaining_supply], [remaining_demand], bid_model,
        np.random.default_rng(_seed_sequence(seed)), reserve=reserve, slot_id=slot_id,
        start_time=start_time)
    return revenue, log


def arrivals(terms: StepTerms, seed):
    """One market's sampled contender arrivals per step: Poisson(``rate`` =
    lambda * dt) at every step, plus the deterministic opening block
    floor(``waiting`` = mass * Q) at step 0."""
    rng = np.random.default_rng(_seed_sequence(seed))
    out = rng.poisson(terms.rate, terms.cum.size)
    out[0] += int(math.floor(terms.waiting))
    return out


def purchases(plan: PricePlan, cfg: MarketConfig, terms: StepTerms, seed):
    """One market's posted-price sales, step by step: ``(sold per step, gross
    contract revenue)``.

    Contenders accumulate in a waiting pool. At each step the plan leaves
    open, every waiting contender buys independently with the purchase ratio
    ``exp(-price_scale[n] * price)``; sales are capped by remaining supply.
    Steps the plan closes sell nothing. Only a full-horizon plan can be
    simulated, and an open step's price must be non-negative.
    """
    if plan.start_step != 0:
        raise ValueError("simulation needs a full-horizon plan")
    price_scale = terms.price_scale.tolist()
    arrivals_seed, buy_seed = _seed_sequence(seed).spawn(2)
    arrived = arrivals(terms, arrivals_seed)
    rng = np.random.default_rng(buy_seed)
    remaining = cfg.supply_S - plan.presold
    pool = 0
    sold = np.zeros(len(price_scale), dtype=int)
    revenue = 0.0
    for n in range(len(price_scale)):
        pool += int(arrived[n])
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


def market_once(plan: PricePlan, cfg: MarketConfig, terms: StepTerms, bid_model, seed):
    """One full market realization against a plan, from its own streams: the
    independent replay of ``pgrtb.simulate.evaluate_plan``'s markets, as a
    dict holding the fields of one of its entries.

    Purchases first; then each sold contract independently fails to deliver
    with probability omega, costing ``varpi * price`` and releasing the
    impression; the leftover supply then runs auctions against the leftover
    demand (failed buyers rejoin the demand side).
    """
    purchase_seed, failure_seed, rtb_seed = _seed_sequence(seed).spawn(3)
    sold, gross = purchases(plan, cfg, terms, purchase_seed)
    rng = np.random.default_rng(failure_seed)
    failures = rng.binomial(sold, cfg.miss_prob_omega)
    penalty = cfg.penalty_size_varpi * float(np.sum(np.asarray(plan.prices) * failures))
    delivered = int(sold.sum() - failures.sum())
    rtb_revenue, _ = loop_simulate_rtb(
        cfg.supply_S - delivered, cfg.demand_Q - delivered, bid_model, rtb_seed,
        reserve=cfg.reserve_price_r0)
    total_sold = int(sold.sum())
    return {"pg_sold": sold, "pg_revenue": gross - penalty, "rtb_revenue": rtb_revenue,
            "delivered_fraction": delivered / total_sold if total_sold else 1.0}


def mc_second_price(xi, bid_model, trials, seed):
    """Monte Carlo estimate of the second-price payment moments.

    Simulates ``trials`` auctions of ``ceil(xi)`` i.i.d. bids each and
    returns ``(mean, std, std_error)`` of the second-highest bid, where
    ``std_error`` is the standard error of the mean. Deterministic per seed.
    """
    if xi < 2:
        raise ValueError("need at least two bidders for a second price")
    if not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ValueError("trials must be a positive integer")
    m = int(math.ceil(xi))
    rng = np.random.default_rng(seed)
    chunk = max(1, int(5_000_000 // m))
    payments = np.empty(trials)
    done = 0
    while done < trials:
        k = min(chunk, trials - done)
        draws = bid_model.sample_bids(rng, (k, m))
        payments[done:done + k] = np.partition(draws, m - 2, axis=1)[:, m - 2]
        done += k
    mean = float(payments.mean())
    std = float(payments.std(ddof=0))
    return mean, std, std / math.sqrt(trials)


def max_value_by_take(table):
    """The largest hourly mean bid, each bucket's bids gathered by ``take``;
    buckets merge in first-seen order when some auction has no stamp."""
    hours, first, inverse, counts = np.unique(
        table.hour, return_index=True, return_inverse=True, return_counts=True)
    seen = np.argsort(first)
    picked = table.take(np.argsort(first[inverse], kind="stable"))
    if hours[-1] == table.UNSTAMPED:
        return float(np.mean(picked.bids))
    bounds = picked.offsets[np.cumsum(counts[seen])].tolist()
    return max(float(picked.bids[lo:hi].mean()) for lo, hi in zip([0] + bounds[:-1], bounds))


def dense_lowess(points, fraction=0.3, iterations=3):
    """``auction.lowess`` with every knot's distances, weights and weighted
    terms in n x n arrays: each row sum is one knot's, over the same values."""
    x, y = _as_xy(points)
    n = x.size
    r = min(max(int(math.ceil(fraction * n)), 2), n - 1)
    dx = x[None, :] - x[:, None]  # row i holds x - x[i]
    dist = np.abs(dx)
    h = np.sort(dist, axis=1)[:, r]
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(h[:, None] > 0, dist / h[:, None], np.where(dist > 0, 2.0, 0.0))
    w = (1.0 - np.clip(scaled, 0.0, 1.0) ** 3) ** 3
    delta = np.ones(n)
    for _ in range(iterations + 1):
        wi = w * delta
        sw = wi.sum(axis=1)
        wdx = wi * dx
        swx = wdx.sum(axis=1)
        swy = (wi * y).sum(axis=1)
        swxy = (wdx * y).sum(axis=1)
        swxx = (wdx * dx).sum(axis=1)
        denom = sw * swxx - swx * swx
        with np.errstate(divide="ignore", invalid="ignore"):
            yest = np.where(sw <= 0.0, y, np.where(
                denom <= 1e-13 * np.maximum(np.abs(sw * swxx), 1e-30),
                swy / sw, (swxx * swy - swx * swxy) / denom))
        res = y - yest
        s = float(np.median(np.abs(res)))
        if s <= 0.0:
            break
        delta = np.clip(res / (6.0 * s), -1.0, 1.0)
        delta = (1.0 - delta * delta) ** 2
    rmse = float(np.sqrt(np.mean((yest - y) ** 2)))
    return FittedCurve(method="lowess", x_range=(float(x[0]), float(x[-1])),
                       knot_x=x, knot_y=yest, rmse=rmse)


def isoformat_log_bytes(rows):
    """The CSV bytes of ``(slot_id, auction_id, timestamp, bid)`` rows, one
    ``writerow`` each: a stamp as its ``isoformat()``, None as an empty field."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(LOG_HEADER)
    for slot_id, auction_id, stamp, bid in rows:
        writer.writerow([slot_id, auction_id, "" if stamp is None else stamp.isoformat(),
                         repr(float(bid))])
    return buf.getvalue().encode()


def within_sum_of_squares(values, high):
    """The two groups' squared deviations from their own means, each mean
    taken first over the group's sorted values, so that a group scores the
    same in any order; ``high`` masks one group."""
    vals = np.asarray(values, dtype=float)
    parts = (np.sort(vals[high]), np.sort(vals[~high]))
    return sum(float(np.sum((part - part.mean()) ** 2)) for part in parts)


def best_two_split(values):
    """Every cut between distinct sorted values, scored directly:
    ``(least, runner_up, high)``, the least within-group sum of squares, the
    least among the other cuts (inf with one cut), and the high group's mask
    at the lowest cut reaching the least."""
    vals = np.asarray(values, dtype=float)
    ordered = np.sort(vals)
    cuts = [i for i in range(1, ordered.size) if ordered[i] != ordered[i - 1]]
    scores = np.array([within_sum_of_squares(ordered, np.arange(ordered.size) >= i)
                       for i in cuts])
    best = int(np.argmin(scores))
    rest = np.delete(scores, best)
    return (float(scores[best]), float(rest.min(initial=math.inf)),
            vals > ordered[cuts[best] - 1])
