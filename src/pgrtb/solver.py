"""Revenue-optimal pricing and allocation across the two selling channels.

The seller chooses, at every posting step, how many guaranteed contracts to
sell; the posted price follows from the sales target by inverting the
purchase ratio against the expected waiting pool. Whatever is unsold at the
end earns the delivery-day auction's expected payment at the then-current
competition level. Integer cumulative sales make the problem a dynamic
program over states ``(step, cumulative sold)``:

    H[n][y] = best guaranteed revenue through step n ending at y cumulative
    H[n][y] = max over y = z1 + z2 of  H[n-1][z1] + (1 - omega*varpi) * p * z2

with the split infeasible whenever its implied price exceeds the censored
bound at ``(n, y)``. Terminal value adds ``(S - y) * payment_mean(xi(y))``.
Cumulative sales can never exceed cumulative expected arrivals, which caps
each step's state set and keeps the table O(N * S).

Tie-breaks are deterministic and documented: among equal-revenue terminal
states the smallest cumulative sale wins; within a step, the smaller
sell-now wins equal values (so no-sale beats any sale it ties with). The
exhaustive oracle below ranks equal-revenue paths by the key
``(y_N, z2_N, z2_{N-1}, ..., z2_0)`` ascending, which reproduces exactly the
plan the backward reconstruction picks: a co-optimal path must make every
prefix optimal, and from the terminal state backwards the reconstruction
prefers the smallest sell-now at each node.

The oracle shares the precomputed market tables (cumulative arrivals, price
bounds, payment moments, log tables) with the DP and mirrors its float
expressions operation for operation; its independence is the exhaustive path
enumeration, not a re-derivation of the market primitives. That is what lets
equality tests compare the two bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .market import MarketConfig, TimeGrid, expected_arrivals

__all__ = [
    "PricePlan",
    "DPTables",
    "competition_level",
    "optimal_pg_revenue",
    "optimal_plan",
    "brute_force_optimum",
    "replay_revenue",
]


def competition_level(demand_Q, supply_S, sold):
    """Expected bidders per remaining impression after ``sold`` contract sales.

    ``(demand_Q - sold) / (supply_S - sold)``; rises as guaranteed sales eat
    into supply because demand exceeds supply.
    """
    if sold < 0:
        raise ValueError("sold must be non-negative")
    if sold >= supply_S:
        raise ValueError("supply exhausted: competition level undefined")
    if sold >= demand_Q:
        raise ValueError("sold cannot reach total demand")
    return (demand_Q - sold) / (supply_S - sold)


@dataclass
class PricePlan:
    """A posted-price schedule with its planned sales and revenue split.

    ``prices[i]`` is the price posted at step ``start_step + i``; steps the
    plan closes (``sales[i] = 0``) display the price ceiling, so the
    schedule is always a valid posting. ``bounds`` is the ceiling along the
    chosen state path, ``gamma`` the fraction of supply committed to
    contracts, and ``xi_terminal`` the delivery-day competition level
    (infinite when everything sold forward).
    """

    prices: np.ndarray
    sales: np.ndarray
    bounds: np.ndarray
    gamma: float
    revenue_pg: float
    revenue_rtb: float
    revenue_total: float
    xi_terminal: float
    start_step: int = 0
    presold: int = 0

    @property
    def cumulative_sales(self) -> np.ndarray:
        return self.presold + np.cumsum(self.sales)

    @property
    def total_sold(self) -> int:
        return int(self.presold + self.sales.sum())

    def to_dict(self):
        return {
            "prices": [float(p) for p in self.prices],
            "sales": [int(s) for s in self.sales],
            "bounds": [float(b) for b in self.bounds],
            "gamma": float(self.gamma),
            "revenue_pg": float(self.revenue_pg),
            "revenue_rtb": float(self.revenue_rtb),
            "revenue_total": float(self.revenue_total),
            "xi_terminal": (float(self.xi_terminal)
                            if math.isfinite(self.xi_terminal) else None),
            "start_step": int(self.start_step),
            "presold": int(self.presold),
        }

    @classmethod
    def from_dict(cls, d):
        xi = d.get("xi_terminal")
        return cls(
            prices=np.asarray(d["prices"], dtype=float),
            sales=np.asarray(d["sales"], dtype=int),
            bounds=np.asarray(d["bounds"], dtype=float),
            gamma=float(d["gamma"]),
            revenue_pg=float(d["revenue_pg"]),
            revenue_rtb=float(d["revenue_rtb"]),
            revenue_total=float(d["revenue_total"]),
            xi_terminal=(float(xi) if xi is not None else math.inf),
            start_step=int(d.get("start_step", 0)),
            presold=int(d.get("presold", 0)),
        )

    @classmethod
    def from_path(cls, prices, sales, bounds, revenue_pg, revenue_rtb, *,
                  supply, demand, start_step=0, presold=0):
        """Assemble a plan from a chosen sales path and its revenue split.

        Every solver route builds its plan here, so the plan rules live in
        one place: closed steps display the ceiling whatever ``prices`` holds
        there, ``gamma`` is the share of ``supply`` sold forward, the total
        is ``revenue_pg + revenue_rtb``, and the terminal competition level
        is ``(demand - sold) / (supply - sold)``, infinite at sell-out.
        """
        sales = np.asarray(sales, dtype=int)
        bounds = np.asarray(bounds, dtype=float)
        sold = presold + int(sales.sum())
        pg, rtb = float(revenue_pg), float(revenue_rtb)
        return cls(
            prices=np.where(sales == 0, bounds, np.asarray(prices, dtype=float)),
            sales=sales,
            bounds=bounds,
            gamma=sold / supply,
            revenue_pg=pg,
            revenue_rtb=rtb,
            revenue_total=pg + rtb,
            xi_terminal=(math.inf if sold == supply
                         else (demand - sold) / (supply - sold)),
            start_step=start_step,
            presold=presold,
        )


@dataclass
class DPTables:
    """The dynamic program's internals, for inspection and reconstruction.

    Lists are indexed by step offset from ``start_step``. ``sale_sets[i]``
    holds the feasible cumulative sales at that step; ``H[i]`` the best
    guaranteed revenue per state (-inf marks states no bounded price can
    reach); ``back_prev``/``back_price`` the chosen predecessor state and
    price (nan on no-sale carries).
    """

    start_step: int
    presold: int
    sale_sets: list = field(default_factory=list)
    H: list = field(default_factory=list)
    back_prev: list = field(default_factory=list)
    back_price: list = field(default_factory=list)


class _MarketTables:
    """Shared float-exact precomputation for the DP and the exhaustive oracle."""

    def __init__(self, cfg: MarketConfig, grid: TimeGrid, model, demand_total):
        f = np.array([expected_arrivals(n, cfg) for n in range(grid.n_steps + 1)],
                     dtype=float)
        S = cfg.supply_S
        D = int(demand_total) if demand_total is not None else cfg.demand_Q
        if D <= S:
            raise ValueError("total demand must exceed supply")
        self.f = f
        self.cum = np.cumsum(f)
        self.u = np.minimum(S, np.floor(self.cum)).astype(int)
        y = np.arange(S + 1)
        xi = np.empty(S + 1)
        xi[:S] = (D - y[:S]) / (S - y[:S])
        xi[S] = math.inf
        self.means, self.stds = model.payment_moments(xi, cfg.reserve_price_r0)
        risk = cfg.risk_level_zeta * np.exp(-cfg.risk_decay_v * grid.points)
        self.bounds = np.minimum(self.means[None, :] + risk[:, None] * self.stds[None, :],
                                 cfg.max_value_pi)
        self.price_scale = cfg.price_effect_alpha * (
            1.0 + cfg.time_effect_beta * (grid.points[-1] - grid.points))
        self.coef = 1.0 - cfg.miss_prob_omega * cfg.penalty_size_varpi
        with np.errstate(divide="ignore"):
            self.log_k = np.log(np.arange(S + 1, dtype=float))
        self.S = S
        self.D = D
        self.xi = xi


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
    from .market import censored_bound  # local import keeps module load cheap

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


def optimal_plan(cfg: MarketConfig, grid: TimeGrid, model, *,
                 start_step=0, presold=0, demand_total=None):
    """Revenue-maximizing price schedule and allocation.

    Runs the dynamic program over steps ``start_step..N`` starting from
    ``presold`` cumulative sales (both default to a fresh full horizon) and
    returns ``(PricePlan, DPTables)``. ``demand_total`` overrides the
    config's demand, which is how the replanner re-solves tails after demand
    shocks without leaving the original time/arrival coordinates.

    ``model`` is a bid distribution or fitted revenue curves; anything with
    ``payment_moments``.
    """
    if grid.n_steps != cfg.steps_N:
        raise ValueError("grid does not match config steps_N")
    N = cfg.steps_N
    if not 0 <= start_step <= N:
        raise ValueError(f"start_step outside 0..{N}")
    if not 0 <= presold <= cfg.supply_S:
        raise ValueError("presold outside 0..supply_S")
    t = _MarketTables(cfg, grid, model, demand_total)
    if presold > t.u[start_step]:
        raise ValueError("presold exceeds cumulative arrivals at start_step")

    tables = DPTables(start_step=start_step, presold=presold)
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
        rtb = np.where(y_abs < t.S, (t.S - y_abs) * t.means[y_abs], 0.0)
    h_final = tables.H[-1]
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


def brute_force_optimum(cfg: MarketConfig, grid: TimeGrid, model):
    """Exhaustive search over every feasible sales path (tiny instances only).

    Enumerates all cumulative-sales trajectories, prices each step off the
    shared market tables, filters bound violations, and picks the maximal
    revenue with the documented tie-break key. Guarded to ``steps_N <= 5``
    and ``supply_S <= 10``; anything larger explodes combinatorially.
    """
    if cfg.steps_N > 5 or cfg.supply_S > 10:
        raise ValueError("exhaustive search is guarded to steps_N <= 5, supply_S <= 10")
    if grid.n_steps != cfg.steps_N:
        raise ValueError("grid does not match config steps_N")
    t = _MarketTables(cfg, grid, model, None)
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
            rtb = 0.0 if y == t.S else (t.S - y) * t.means[y]
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


def replay_revenue(plan: PricePlan, cfg: MarketConfig, grid: TimeGrid, model, *,
                   demand_total=None):
    """Recompute a plan's revenue split from its prices and sales alone.

    Independent bookkeeping check: folds the per-step contract revenue in
    step order and re-prices the leftover supply at the terminal competition
    level. Returns ``(pg, rtb, total)``.
    """
    coef = 1.0 - cfg.miss_prob_omega * cfg.penalty_size_varpi
    pg = 0.0
    for price, z2 in zip(plan.prices, plan.sales):
        if z2:
            pg = pg + (coef * float(price)) * int(z2)
    y = plan.total_sold
    S = cfg.supply_S
    D = int(demand_total) if demand_total is not None else cfg.demand_Q
    if y == S:
        rtb = 0.0
    else:
        xi = (D - y) / (S - y)
        rtb = (S - y) * model.payment_mean(xi, reserve=cfg.reserve_price_r0)
    return pg, rtb, pg + rtb
