"""Rolling-horizon replanning under demand uncertainty.

Total demand is only a forecast. The replanner walks the posting window one
step at a time: solve the remaining horizon, commit the first step's price
and sales, shock the remaining demand by a relative Gaussian noise term,
and repeat. Each shock redraws the tail solve's competition levels and
price bounds; everything else (arrivals, time grid, bid distribution) stays
fixed.

Each round is one tail solve, on tables priced at its demand and presold
count (``_MarketTables.set_demand``); up to ``_PASS_ROUNDS`` are solved in
one pass. The rounds after its first assume no sale: they keep its presold
count, and one joins only if its bound moments equal the first's from that
row on. Every step's bounds and cell blocks are then the same for all, and
``_solve_rounds`` builds them once; each round adds its own values, and as
``h + g`` is the float ``g + h`` its plan is bit for bit its own solve's. A
pass stops at the first round that sells, discarding the rest.

A round prices only the payment levels it reads (see :mod:`pgrtb.solver`):
the rows below the first whose mean clears the cap ``pi``, and the terminal
rows whose total can still be the best. The walk's tables keep the levels
they priced, and the lowest one seen to clear ``pi``, as bounds for the
levels of later rounds, so most rounds need no probe and few terminal
means.

With ``epsilon = 0`` the committed path reproduces the static plan's floats
bit for bit. The walk builds the demand-independent market tables once and
re-prices only the demand-dependent ones per round; the unchanged demand
gives the same competition levels, and the model returns the same payment
moments for them (a bid model from its per-level cache, fitted curves by
evaluating the same function), so every round's tables hold the static
solve's floats. Prefix-revenue shifts cannot reorder tail comparisons
except on ties closer than one ulp of the accumulated revenue, and the
tie-break rules coincide.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .market import MarketConfig, TimeGrid
from .solver import PricePlan, _MarketTables, _small_buffers, _solve_rounds

__all__ = ["UncertaintySpec", "ReplanStep", "replan"]

_PASS_ROUNDS = 4  # rounds solved in one pass over the DP's steps


@dataclass(frozen=True)
class UncertaintySpec:
    """Relative demand noise: one draw per step, reproducible per seed.

    ``epsilon`` scales a standard normal draw; ``noise_kind`` names that law
    and ``"gaussian"`` is the one it accepts. Each step's draw comes from its
    own seed sequence keyed ``(noise_seed, step)``, so step k's shock does
    not depend on how many draws earlier steps consumed.
    """

    epsilon: float
    noise_seed: int = 0
    noise_kind: str = "gaussian"

    def __post_init__(self):
        if isinstance(self.epsilon, (bool, np.bool_)) or not (
                np.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be finite and non-negative, not {self.epsilon!r}")
        seed = self.noise_seed
        if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
            raise ValueError(f"noise_seed must be a non-negative integer, not {seed!r}")
        if self.noise_kind != "gaussian":
            raise ValueError(f"noise_kind must be 'gaussian', not {self.noise_kind!r}")

    def draw(self, step):
        seq = np.random.SeedSequence((int(self.noise_seed), int(step)))
        return float(np.random.default_rng(seq).standard_normal())


def _update_demand(demand, spec: UncertaintySpec, step, remaining_supply):
    """One multiplicative shock to the remaining demand forecast.

    Rounds to the nearest integer and floors at ``remaining_supply + 1`` so
    demand keeps exceeding supply (the market model needs more contenders
    than impressions). The walk keeps ``demand > remaining_supply >= 0``.
    """
    shocked = demand * (1.0 + spec.epsilon * spec.draw(step))
    return max(int(round(shocked)), int(remaining_supply) + 1)


@dataclass
class ReplanStep:
    """What one replanning round committed and what it believed afterwards."""

    step: int
    sell_now: int
    price: float
    demand_before: int
    demand_after: int
    remaining_supply: int
    forecast_revenue: float


@_small_buffers()
def replan(cfg: MarketConfig, grid: TimeGrid, model, spec: UncertaintySpec):
    """Walk the horizon committing one step per tail solve.

    Returns ``(PricePlan, trace)``: the realized schedule with its revenue
    split (contract revenue folded over the committed steps; the auction
    term from the final tail solve), and one ReplanStep per round.
    ``forecast_revenue`` in the trace is that round's view of the revenue
    still to come, so it excludes revenue already committed.
    """
    N = cfg.steps_N
    S = cfg.supply_S
    presold = 0
    demand_abs = cfg.demand_Q
    prices = np.empty(N + 1)
    sales = np.empty(N + 1, dtype=int)
    bnds = np.empty(N + 1)
    pg = 0.0
    trace = []
    tables = _MarketTables(cfg, grid)
    ahead = []  # tables priced for rounds n, n + 1, ... if none of them sells
    n = 0
    while n <= N:
        if not ahead:
            ahead.append(copy.copy(tables.set_demand(model, demand_abs, presold)))
        joined = 1  # the first rounds ahead, whose cells are the same
        while joined == len(ahead) < _PASS_ROUNDS and n + joined <= N:
            shocked = _update_demand(ahead[-1].D - presold, spec, n + joined - 1, S - presold)
            ahead.append(copy.copy(tables.set_demand(model, presold + shocked, presold)))
            rows = slice(presold, None)
            joined += (np.array_equal(ahead[0].bound_means[rows], ahead[-1].bound_means[rows])
                       and np.array_equal(ahead[0].bound_stds[rows], ahead[-1].bound_stds[rows]))
        for tail in _solve_rounds(ahead[:joined], n, presold)[0]:
            del ahead[0]
            demand_before = demand_abs - presold
            z_now = int(tail.sales[0])
            p_now = float(tail.prices[0])
            prices[n], sales[n], bnds[n] = p_now, z_now, float(tail.bounds[0])
            if z_now > 0:
                pg = pg + (tables.coef * p_now) * z_now
                ahead.clear()  # priced for a presold count that has passed
            presold += z_now
            if ahead:  # the next round's demand, already drawn
                demand_abs = ahead[0].D
            elif n < N:
                demand_abs = presold + _update_demand(demand_abs - presold, spec, n, S - presold)
            trace.append(ReplanStep(step=n, sell_now=z_now, price=p_now,
                                    demand_before=demand_before,
                                    demand_after=demand_abs - presold,
                                    remaining_supply=S - presold,
                                    forecast_revenue=float(tail.revenue_total)))
            n += 1
    realized = PricePlan.from_path(prices, sales, bnds, pg, tail.revenue_rtb,
                                   supply=S, demand=demand_abs)
    return realized, trace
