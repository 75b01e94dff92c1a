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
bound at ``(n, y)``. Terminal value adds ``(S - y) * mean_payment(xi(y))``.
Cumulative sales can never exceed cumulative expected arrivals, which caps
each step's state set and keeps the table O(N * S).

:func:`optimal_plan` solves the full horizon. The replanner's rounds price
copies of the same tables with ``_MarketTables.set_demand``, and
``_solve_rounds`` runs several of them in one pass over the steps.

A solve prices only the payment levels it reads. Row ``y``'s competition
level ``xi = (D - y) / (S - y)`` rises with ``y``, and the second price of
``xi`` draws, ``ppf`` at a Beta(xi - 1, 2) draw, is stochastically
increasing in ``xi``, so a bid law's mean payment rises with ``y`` wherever
``xi >= 2``. The bound rows from the first whose mean clears the cap ``pi``
are all ``pi``: ``set_demand`` finds that row with a few probes and prices
the rows below it. Every level, a probe's too, is priced once through the
model's ``payment_moments``, mean and spread together. The terminal choice
reads means only where they can decide the argmax: each priced level bounds
the means of the levels above and below it, rows whose total cannot reach
the best one are dropped, and only the rest are priced. A row counts as
capped, or as dropped, only when it clears its priced neighbour by a
relative margin ``_MARGIN`` of three times the quadrature tolerance; any
level whose error estimate is larger warns. So plans, tables,
``revenue_rtb`` and ``xi_terminal`` are those of a full table of means. Rows
below ``xi = 2`` and row ``S`` keep their closed forms, and fitted curves,
whose mean need not rise with ``xi`` and which cost little, are evaluated at
every row.

A split's price ``ln((cum_n - z1) / (y - z1)) / scale`` rises with ``z1``,
so each row's feasible predecessors are a prefix, and while those prefixes
nest a row's best split never moves down as ``y`` rises: large steps find
their row maxima by divide and conquer in O(S log S) cells, the rest scan
their rows in blocks. Every cell repeats a dense scan's float operations in
order, so plans are bit-identical to one. Time is O(N * S log S) on large
steps. A solve stores 4 bytes per state, an int32 backpointer, within
``_MAX_TABLE_CELLS``, plus O(S) vectors and O(_BLOCK_CELLS + S) per step:
a step builds its bound row from the payment moments, and the path's prices
and bounds are re-derived from its backpointers. numpy buffers a block's
strided operands, 64 KiB each by default; ``optimal_plan`` and ``replan``
hold each to ``_BUFSIZE`` elements, 8 KiB. ``R`` rounds keep ``R``
backpointers per state.

Tie-breaks are deterministic and documented: among equal-revenue terminal
states the smallest cumulative sale wins; within a step, the smaller
sell-now wins equal values (so no-sale beats any sale it ties with). An
exhaustive search over sales paths reproduces exactly the plan the backward
reconstruction picks when it ranks equal-revenue paths by the key
``(y_N, z2_N, z2_{N-1}, ..., z2_0)`` ascending: a co-optimal path must make
every prefix optimal, and from the terminal state backwards the
reconstruction prefers the smallest sell-now at each node.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .auction import _RTOL, BidModel
from .market import MarketConfig, StepTerms, TimeGrid, _numbers

__all__ = [
    "PricePlan",
    "DPTables",
    "competition_level",
    "optimal_plan",
    "replay_revenue",
]

# Budget on the DP's stored cells, (N + 1) * (S + 1): a solve keeps back_prev
# (4 B) per cell, so this caps it at 16 MiB, and S + 1 <= 2^22 keeps every
# backpointer within int32.
_MAX_TABLE_CELLS = 1 << 22
# Cells (rows x columns) of one transition block; rows per block follow
# from the previous step's state count.
_BLOCK_CELLS = 1 << 16
# numpy's iterator buffer size while pricing and solving: 8 KiB, not 64 KiB.
_BUFSIZE = 1024
# A row counts as capped, or as pruned from the terminal choice, only when it
# clears its priced neighbour by this relative margin: more than the two
# quadrature errors, each at most _RTOL on a level that does not warn.
_MARGIN = 3 * _RTOL
# Levels per probe round of the cap search, and the stride of the terminal
# choice's grid of exact means when many rows survive its first bounds.
_PROBES = 12
_STRIDE = 8


@contextlib.contextmanager
def _small_buffers():
    """numpy's iterator buffers at ``_BUFSIZE`` elements, restored on exit."""
    bufsize = np.setbufsize(_BUFSIZE)
    try:
        yield
    finally:
        np.setbufsize(bufsize)


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
        """The plan of :meth:`to_dict`'s dict. A sale count that is a bool, a
        float (even a whole one) or negative is refused, never truncated, and
        prices and bounds must be numbers, not strings."""
        for s in d["sales"]:
            if isinstance(s, bool) or not isinstance(s, (int, np.integer)) or s < 0:
                raise ValueError(f"sales must be non-negative integers, not {s!r}")
        xi = d.get("xi_terminal")
        return cls(
            prices=np.asarray(_numbers(d["prices"], "prices", many=True), dtype=float),
            sales=np.asarray(d["sales"], dtype=int),
            bounds=np.asarray(_numbers(d["bounds"], "bounds", many=True), dtype=float),
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
    holds the feasible cumulative sales at that step, a read-only view of
    one ``arange(S + 1)`` shared by every step; ``back_prev[i]`` the chosen
    predecessor state as int32 (the state itself on a no-sale carry, -1 on
    unreachable states), all a solve keeps per state; ``h_final`` the last
    step's best guaranteed revenue per state (-inf: no bounded price).
    """

    start_step: int
    presold: int
    sale_sets: list = field(default_factory=list)
    back_prev: list = field(default_factory=list)
    h_final: np.ndarray | None = None


class _MarketTables:
    """The DP's tables, shared with the test oracles: the market's step terms
    ``cum``, ``price_scale`` and ``coef``, plus what only the DP
    needs, the integer cap ``u`` on cumulative sales, the log tables and the
    read-only ``states`` ``arange(S + 1)`` that every step's state set views.
    ``set_demand`` adds what total demand changes, the payment means and the
    bounds' moments (:meth:`bound`), so a replan walk builds the rest once.
    """

    def __init__(self, cfg: MarketConfig, grid: TimeGrid):
        cells = (cfg.steps_N + 1) * (cfg.supply_S + 1)
        if cells > _MAX_TABLE_CELLS:
            raise ValueError(
                f"problem too large: {cfg.steps_N + 1} steps x {cfg.supply_S + 1} "
                f"states = {cells:,} DP table cells, above the budget of "
                f"{_MAX_TABLE_CELLS:,}")
        self.terms = StepTerms(cfg, grid)
        S = self.S = cfg.supply_S
        self.cfg = cfg
        self.cum = self.terms.cum
        self.price_scale, self.coef = self.terms.price_scale, self.terms.coef
        self.u = np.minimum(S, np.floor(self.cum)).astype(int)
        with np.errstate(divide="ignore"):
            self.log_k = np.log(np.arange(S + 1, dtype=float))
        self.states = np.arange(S + 1)
        self.states.flags.writeable = False
        # Entry S + 1 + d of the flat arrays is z2 = d and its log (nan for
        # z2 < 1, failing every bound test). Row a of the views holds
        # z2 = a - S - 1 + k at column k: one row slice is a block row's
        # sell-now over its columns from the largest z1 down.
        self.z2 = np.arange(-S - 1, 2 * S + 2, dtype=float)
        self.log_z2 = np.full(self.z2.size, np.nan)
        self.log_z2[S + 2:2 * S + 2] = self.log_k[1:]
        self.z2_rows = sliding_window_view(self.z2, S + 1)
        self.log_z2_rows = sliding_window_view(self.log_z2, S + 1)
        self.model = None

    def set_demand(self, model, demand_total, presold=0):
        """Price the tables for ``demand_total`` (the config's when None) on
        the rows a solve from ``presold`` reads, ``y >= presold``; the rows
        below get the reserve level and no quadrature.

        Fitted curves are evaluated at every row. A bid law's mean rises
        with ``y`` over the rows with ``xi >= 2``, so rows from the first
        whose mean clears the cap ``pi`` (:meth:`_cap_row`) get the bound
        ``pi`` and no quadrature, and only the rows below it are priced,
        means and spreads. Rows below ``xi = 2`` and row ``S`` keep their
        closed forms.
        """
        cfg, S = self.cfg, self.S
        self.D = int(demand_total) if demand_total is not None else cfg.demand_Q
        if self.D <= S:
            raise ValueError("total demand must exceed supply")
        y = np.arange(S)
        xi = np.append((self.D - y) / (S - y), math.inf)
        xi[:presold] = 0.0
        if model is not self.model:  # the levels known so far, shared by copies
            self.model = model
            self._known = {"xi": np.empty(0), "mean": np.empty(0), "clear": math.inf}
        self.xi = xi
        self._priced = np.ones(S + 1, dtype=bool)
        if isinstance(model, BidModel):
            self._priced[self._cap_row():S] = False
        self._means, self.bound_stds = np.full(S + 1, np.nan), np.zeros(S + 1)
        self._means[self._priced], self.bound_stds[self._priced] = model.payment_moments(
            xi[self._priced], cfg.reserve_price_r0)
        self.bound_means = np.where(self._priced, self._means, cfg.max_value_pi)
        return self

    def bound(self, n, y):
        """Bounds at steps ``n`` and rows ``y``, from moments fixed by ``set_demand``."""
        return self.terms.bound(n, self.bound_means[y], self.bound_stds[y])

    def _price(self, rows):
        """Price the means of ``rows`` not priced yet, in one call."""
        rows = rows[~self._priced[rows]]
        if rows.size:
            self._means[rows] = self._mean_only(self.xi[rows])
            self._priced[rows] = True

    def _mean_only(self, xi):
        """The model's means at levels ``xi >= 2``, kept sorted by level as
        bounds for other levels, with the lowest level whose mean clears
        ``pi`` by ``_MARGIN``."""
        means, known = self.model.payment_moments(xi)[0], self._known
        levels = np.concatenate((known["xi"], xi))
        order = np.argsort(levels, kind="stable")
        known["xi"], known["mean"] = levels[order], np.concatenate((known["mean"], means))[order]
        clear = xi[means * (1.0 - _MARGIN) >= self.cfg.max_value_pi]
        known["clear"] = min(known["clear"], clear.min(initial=math.inf))
        return means

    def _mean_bounds(self, xi):
        """Means at the nearest known levels at or above and at or below each
        of ``xi >= 2``: inf and 0 (payments are non-negative) where there is
        none."""
        k, m = self._known["xi"], self._known["mean"]
        return (np.append(m, math.inf)[np.searchsorted(k, xi)],
                np.append(0.0, m)[np.searchsorted(k, xi, side="right")])

    def _cap_row(self):
        """First row from which every mean up to row ``S - 1`` reaches ``pi``.

        ``xi`` rises with ``y``, and the second price of ``xi`` draws is
        ``ppf`` at a Beta(xi - 1, 2) draw, stochastically increasing in
        ``xi``: so means rise with ``y`` over the rows with ``xi >= 2``.
        Rows at or above the lowest level known to clear ``pi`` by
        ``_MARGIN`` need no probe; below it, rounds of up to ``_PROBES``
        probes, the first at the lowest such row alone, bisect
        for the first row that clears; ``S`` when none does. Every row
        above it then has a mean of at least ``pi`` in floats too, since
        each level's quadrature error is below ``_RTOL`` or warns.
        """
        S, xi = self.S, self.xi
        lo = int(np.searchsorted(xi[:S], 2.0))
        hi = int(np.searchsorted(xi[:S], self._known["clear"]))
        probes = np.arange(lo, min(lo + 1, hi))
        while probes.size:
            self._mean_only(xi[probes])
            hi = int(np.searchsorted(xi[:S], self._known["clear"]))
            lo = int(probes[probes < hi].max(initial=lo - 1)) + 1  # past those that fail
            probes = np.unique(np.linspace(lo, hi - 1, min(_PROBES, hi - lo)).round().astype(int))
        return hi


@_small_buffers()
def optimal_plan(cfg: MarketConfig, grid: TimeGrid, model):
    """Revenue-maximizing price schedule and allocation over the full horizon.

    Runs the dynamic program over steps ``0..N`` from no sales at the
    config's demand and returns ``(PricePlan, DPTables)``. ``model`` is a
    bid distribution or fitted revenue curves; anything with
    ``payment_moments``. Problems with more than ``_MAX_TABLE_CELLS`` = 2^22
    table cells ``(N + 1) * (S + 1)`` are refused with a ``ValueError``
    before anything is allocated.
    """
    return _solve(_MarketTables(cfg, grid).set_demand(model, None), 0, 0)


def _solve(t: _MarketTables, start_step, presold):
    """The DP on tables priced from ``presold`` on, from ``(start_step,
    presold)`` with ``presold <= u[start_step]``, and its plan."""
    plans, tables = _solve_rounds([t], start_step, presold)
    return plans[0], tables


def _solve_rounds(rounds, start_step, presold):
    """The plans of rounds ``k = 0, 1, ...`` from ``(start_step + k, presold)``
    on ``rounds[k]``, up to the first that sells in its first step, and its
    DPTables. Their bound moments agree from row ``presold`` on, so one pass
    builds each step's bounds, row floor and cells for all rounds in flight;
    a round's first step and monotone-scan steps run per round."""
    t, N = rounds[0], len(rounds[0].u) - 1
    sale_sets, firsts, shared = [], [], []  # backpointers: first steps, then the rest
    h = None  # the values of the rounds in flight, one row each past the first
    u_prev = presold
    with np.errstate(divide="ignore", invalid="ignore"):
        for n in range(start_step, N + 1):
            if h is not None:
                y_abs, h, picks = _step(t, n, h, presold, u_prev)
                shared.append(picks)
            if n - start_step < len(rounds):  # a round starts at this step
                y_abs, h_first, pick = _step(t, n, np.zeros(1), presold, presold)
                firsts.append(pick)
                h = h_first if h is None else np.vstack((h, h_first))
            sale_sets.append(y_abs)
            u_prev = int(t.u[n])
        plans = []
        for k, (r, h_final) in enumerate(zip(rounds, h if len(rounds) > 1 else [h])):
            tables = DPTables(start_step + k, presold, sale_sets[k:], h_final=h_final)
            i_star, rtb_star = _terminal(r, sale_sets[-1], h_final)
            tables.back_prev = [firsts[k]] + [p[k] if p.ndim > 1 else p for p in shared[k:]]
            plans.append(_plan(r, tables, i_star, rtb_star))
            if plans[-1].sales[0]:
                break
    return plans, tables


def _plan(t: _MarketTables, tables: DPTables, i_star, rtb_star):
    """A round's plan from its terminal choice and backpointers."""
    start_step, presold, h_final = tables.start_step, tables.presold, tables.h_final
    N = len(t.u) - 1
    path = np.empty(N - start_step + 2, dtype=int)  # path[i + 1]: after step i
    path[-1] = tables.sale_sets[-1][i_star]
    for i in range(N - start_step, -1, -1):
        path[i] = tables.back_prev[i][path[i + 1] - presold]
    if path[0] != presold:
        raise AssertionError("backpointer chain did not return to the start state")
    n = np.arange(start_step, N + 1)
    z1, y = path[:-1], path[1:]
    # the scan's float operations on each step's split; closed steps
    # display their bound
    prices = (np.log(t.cum[n] - z1) - t.log_k[y - z1]) / t.price_scale[n]
    return PricePlan.from_path(prices, y - z1, t.bound(n, y), h_final[i_star], rtb_star,
                               supply=t.S, demand=t.D, start_step=start_step,
                               presold=presold)


def _terminal(t: _MarketTables, y_abs, h):
    """The best terminal state, as its index in ``y_abs``, and its auction
    revenue: the largest ``h + (S - y) * mean(y)``, the smallest ``y``
    among equals, with the floats of a full table of means.

    Rows whose mean the tables left unpriced are chosen among by branch and
    bound. Means rise with the level, so the nearest levels the tables have
    priced above and below a row's bound its total; a row whose upper
    bound, widened by ``_MARGIN`` and float rounding, stays below the best
    exact total or lower bound can neither win nor tie. When more than
    ``_STRIDE`` rows survive, exact means on every ``_STRIDE``-th of them
    and the top one come first and tighten the bounds; the survivors are
    then priced in one call.
    """
    rest = t.S - y_abs
    live = np.isfinite(h)

    def totals():
        with np.errstate(invalid="ignore"):
            rtb = np.where(rest > 0, rest * t._means[y_abs], 0.0)
        return rtb, np.where(live, h + rtb, -np.inf)

    def survivors(rows):
        ceiling, floor = t._mean_bounds(t.xi[y_abs[rows]])
        # h, the sales and the means are non-negative, so rounding moves
        # each sum by under 2^-49 of itself
        upper = (h[rows] + rest[rows] * ceiling * (1.0 + _MARGIN)) * (1.0 + 2.0 ** -49)
        lower = (h[rows] + rest[rows] * floor * (1.0 - _MARGIN)) * (1.0 - 2.0 ** -49)
        best = max(totals()[1][t._priced[y_abs]].max(initial=-np.inf), lower.max())
        return rows[~(upper < best)]  # a nan bound keeps its row

    rows = np.flatnonzero(live & ~t._priced[y_abs])
    if rows.size:
        rows = survivors(rows)
        if rows.size > _STRIDE:
            t._price(y_abs[np.append(rows[::_STRIDE], rows[-1])])
            rows = survivors(rows[~t._priced[y_abs[rows]]])
        t._price(y_abs[rows])
    rtb, total = totals()
    np.copyto(total, -np.inf, where=~t._priced[y_abs])
    i_star = int(np.argmax(total))
    return i_star, rtb[i_star]


def _step(t: _MarketTables, n, h_prev, presold, u_prev):
    """One DP transition into step ``n``: ``(y_abs, H, back_prev)``.
    ``h_prev``, and then ``H`` and ``back_prev``, may hold one row per round.

    Rows ``i`` are the targets ``y = presold + i``, columns ``j`` the
    predecessors ``z1 = presold + j``. Each row keeps its largest maximising
    column (the smallest sell-now) over cells priced by :func:`_cells`, then
    the no-sale carry; two row schedules feed that one kernel. A step that
    fits in one block (``ny * nz <= _BLOCK_CELLS``), whose bound falls
    somewhere in ``y`` or whose ``ny * cum_n`` exceeds 2^40 takes
    :func:`_scan_blocks`; every other step :func:`_scan_monotone`.

    Why the divide and conquer is exact. With ``c = coef / scale`` a cell is
    worth ``f(y, z1) = h(z1) + c z2 ln((cum - z1) / z2)``, whose mixed
    difference ``c (1/(y - z1) - 1/(cum - z1))`` is >= 0. So while the
    feasible sets nest (live prefixes whose end rises with ``y``) the
    largest maximiser never falls as ``y`` rises (Aggarwal et al. 1987;
    Galil & Park 1992). In floats, a price falls as ``y`` rises (``ln k``
    rises, rounding is monotone), so under a bound that never falls the sets
    nest; below the top row ``cum - y >= 1``, so two columns' prices differ
    by more than ``1 / (ny cum scale)``, beyond their errors while ``ny cum
    <= 2^40`` (``np.log`` within 4 ulp), and each set is a prefix. A
    feasible cell's float value is within ``E = 20 u M`` of its exact one
    (``u = 2^-53``, ``M`` the largest ``|h|`` plus ``coef ny (max bound + (1
    + ln(cum + 1)) / scale)``). For rows ``l < i`` and columns ``b < a`` the
    exchange ``f(l, b) - f(l, a) >= f(i, b) - f(i, a)``, and its mirror,
    put every column within ``d`` of row ``i``'s float best within ``d + 4
    E`` of its bracket row's best. Brackets reach out to every column within
    ``tol = 2^-40 M`` of a bracket row's best, which covers ``4 E`` per depth
    for 40 depths, so a float near-tie can widen a bracket but cannot put
    the dense scan's pick outside it.
    """
    un = int(t.u[n])
    ny = un - presold + 1
    nz = u_prev - presold + 1
    y_abs = t.states[presold:un + 1]
    bound = t.bound(n, slice(presold, un + 1))
    # rows the scan leaves are worth -inf, so the carry or the dead rule
    # below sets their picks
    h_n = np.empty(h_prev.shape[:-1] + (ny,))
    h_n.fill(-np.inf)
    prev_pick = np.empty(h_n.shape, dtype=np.int32)
    ln_avail = np.log(t.cum[n] - np.arange(presold, u_prev + 1))
    if ny * nz <= _BLOCK_CELLS or np.any(np.diff(bound) < 0) or ny * t.cum[n] > 2.0 ** 40:
        _scan_blocks(t, n, h_prev, ln_avail, bound, presold, h_n, prev_pick)
    else:
        for h, out, pick in zip(*(a.reshape(-1, a.shape[-1]) for a in (h_prev, h_n, prev_pick))):
            _scan_monotone(t, n, h, ln_avail, bound, presold, out, pick)
    m = min(ny, nz)
    carry = h_prev[..., :m] >= h_n[..., :m]
    np.copyto(h_n[..., :m], h_prev[..., :m], where=carry)
    np.copyto(prev_pick[..., :m], y_abs[:m], where=carry)
    dead = np.isfinite(h_n)
    np.logical_not(dead, out=dead)
    np.copyto(prev_pick, -1, where=dead)
    return y_abs, h_n, prev_pick


def _cells(t: _MarketTables, ln_avail, log_z2, z2, bound, scale, out=None):
    """Sales revenue ``(coef * price) * z2`` of cells, in the dense scan's
    float order; callers add the predecessor's value (``h + g == g + h``).

    The arguments broadcast: ``ln(cum_n - z1)``, ``ln z2`` (nan where nothing
    is sold), ``z2`` and the target's bound. A cell that fails ``price <=
    bound`` is worth -inf, with any ``h``, and so is one that leaves a dead
    state, through its sum with ``h = -inf``. ``out``, when given, is the
    array the values are computed in (it may be ``ln_avail`` itself).
    """
    price = np.subtract(ln_avail, log_z2, out=out)
    price /= scale
    fail = price <= bound
    np.logical_not(fail, out=fail)
    vals = np.multiply(t.coef, price, out=price)
    vals *= z2
    np.copyto(vals, -np.inf, where=fail)
    return vals


def _scan_blocks(t: _MarketTables, n, h_prev, ln_avail, bound, presold, h_n, prev_pick):
    """Fill the sale rows from :func:`_row_floor` up in blocks, each over
    the columns up to its top row's last sale.

    Columns run from the largest ``z1`` down, so ``argmax`` (first maximum)
    keeps the smallest sell-now among equal values. One row per round: each
    block's cells are built once, and each round adds its values to them.
    """
    ny, nz = h_n.shape[-1], h_prev.shape[-1]
    h_n, prev_pick = h_n.reshape(-1, ny), prev_pick.reshape(-1, ny)
    ln_desc = ln_avail[::-1].copy()
    h_desc = h_prev.reshape(-1, nz)[:, ::-1].copy()
    rows = max(1, _BLOCK_CELLS // nz)
    for lo in range(_row_floor(t, n, ln_avail, bound, presold), ny, rows):
        hi = min(lo + rows, ny)
        top = min(nz - 1, hi - 2)
        if top < 0:  # a floor of 0 on a one-row step: nothing to sell
            continue
        cols = slice(nz - 1 - top, nz)
        # view row S + 1 + i - top starts at row i's sell-now for z1 = presold + top
        window = slice(t.S + 1 + lo - top, t.S + 1 + hi - top), slice(0, top + 1)
        cells = _cells(t, ln_desc[cols], t.log_z2_rows[window], t.z2_rows[window],
                       bound[lo:hi, None], t.price_scale[n])
        flat = np.arange(0, cells.size, top + 1)  # flat index of each row's first cell
        vals = None  # one block for every round but the last, which adds in place
        for r, h in enumerate(h_desc):
            vals = np.add(cells, h[cols], out=cells if r == len(h_desc) - 1 else vals)
            pick = vals.argmax(axis=1)
            prev_pick[r, lo:hi] = presold + top - pick
            pick += flat
            h_n[r, lo:hi] = vals.take(pick)


def _scan_monotone(t: _MarketTables, n, h_prev, ln_avail, bound, presold, h_n, prev_pick):
    """Fill the sale rows from :func:`_row_floor` up by divide and conquer
    over the monotone argmax.

    The top row scans every column; each lower row then scans only its
    bracket, from the pick of the row below it to that of the row above
    (widened by near-ties, see :func:`_step`), one recursion depth per numpy
    pass over all of the depth's segments: about log2(S) passes of O(S)
    cells. A segment's columns lie below its row (the first column of a
    range is below its lowest row), so each cell sells ``z2 = row - col >= 1``.
    """
    ny, nz = h_n.size, h_prev.size
    scale = t.price_scale[n]
    live = np.isfinite(h_prev)
    tol = 2.0 ** -40 * (np.abs(h_prev[live]).max(initial=0.0) + t.coef * ny * (
        bound.max() + (1.0 + math.log(t.cum[n] + 1.0)) / scale))
    # pending row ranges [lo, hi] whose picks lie in columns [first, last]
    lo, hi = np.array([max(1, _row_floor(t, n, ln_avail, bound, presold))]), np.array([ny - 1])
    first, last = np.array([0]), np.array([nz - 1])
    mid = hi[lo <= hi]  # the top row first, over every column
    while mid.size:
        end = np.maximum(first, np.minimum(last, mid - 1))
        width = end - first + 1
        starts = np.cumsum(width) - width
        rows = np.repeat(mid, width)
        cols = np.arange(starts[-1] + width[-1]) + np.repeat(first - starts, width)
        z2 = rows - cols
        vals = ln_avail[cols]
        _cells(t, vals, t.log_k[z2], z2, bound[rows], scale, vals)
        vals += h_prev[cols]
        best = np.maximum.reduceat(vals, starts)
        rep = np.repeat(best, width)
        near = vals >= rep - tol
        pick = np.maximum.reduceat(np.where(vals == rep, cols, -1), starts)
        if np.count_nonzero(near) == best.size:  # each segment's pick is its one near cell
            left = right = pick
        else:
            left = np.minimum.reduceat(np.where(near, cols, nz), starts)
            right = np.maximum.reduceat(np.where(near, cols, -1), starts)
        h_n[mid] = best
        prev_pick[mid] = presold + pick
        lo, hi = np.concatenate((lo, mid + 1)), np.concatenate((mid - 1, hi))
        first, last = np.concatenate((first, left)), np.concatenate((right, last))
        keep = lo <= hi
        keep[:best.size] &= best > -np.inf  # rows below a dead row are dead too
        lo, hi, first, last = lo[keep], hi[keep], first[keep], last[keep]
        mid = (lo + hi) // 2


def _row_floor(t: _MarketTables, n, ln_avail, bound, presold):
    """First row of step ``n`` whose cheapest split, ``z1 = presold``, passes
    its bound. A split's float price rises with ``z1`` on rows with ``cum -
    y >= 1`` while ``ny cum <= 2^40`` (see :func:`_step`), so no row below
    the floor has a split within its bound, and the carry alone fills them.
    A top row within 1 of ``cum`` is always scanned, and a step past 2^40
    scans from row 1 (row 0 sells nothing).
    """
    ny = bound.size
    if ny * t.cum[n] > 2.0 ** 40:
        return 1
    price = ln_avail[0] - t.log_k[1:ny]
    price /= t.price_scale[n]
    ok = price <= bound[1:]
    floor = int(ok.argmax()) + 1 if ok.any() else ny
    if t.cum[n] - (presold + ny - 1) < 1.0:
        floor = min(floor, ny - 1)
    return floor


def replay_revenue(plan: PricePlan, cfg: MarketConfig, grid: TimeGrid, model, *,
                   demand_total=None):
    """Recompute a plan's revenue split from its prices and sales alone.

    Independent bookkeeping check: folds the per-step contract revenue in
    step order and re-prices the leftover supply at the terminal competition
    level. Returns ``(pg, rtb, total)``.
    """
    coef = StepTerms(cfg, grid).coef
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
        rtb = (S - y) * float(model.payment_moments(xi, cfg.reserve_price_r0)[0])
    return pg, rtb, pg + rtb
