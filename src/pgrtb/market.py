"""Demand-side primitives of a dual-channel ad impression market.

A publisher owns a fixed inventory of ``supply_S`` impressions that will be
shown during a future delivery period. Before that period there is a selling
window of length ``horizon_T``, discretized into ``steps_N`` posting steps, in
which advertisers can buy guaranteed contracts at posted prices. Whatever is
left unsold (or undelivered) is cleared on the delivery day through
second-price auctions.

This module holds everything about the buyers. :class:`StepTerms` is the one
place that computes their per-step terms: how many arrive at each step, the
fraction of waiting buyers that accepts a posted price, how much buyers value
certainty over the auction lottery, what a contract nets after delivery
penalties, and the resulting ceiling on the posted price. The solver, the
simulator, the replanner and the segmentation all read those arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "MarketConfig",
    "StepTerms",
    "TimeGrid",
    "reference_config",
]


@dataclass(frozen=True)
class MarketConfig:
    """Exogenous scalars describing one slot's market.

    Attributes
    ----------
    supply_S : int
        Impressions available in the delivery period.
    demand_Q : int
        Advertisers with unit demand for this slot. Must exceed ``supply_S``;
        excess demand is what keeps the delivery-day auction competitive.
    horizon_T : float
        Length of the posted-price selling window.
    steps_N : int
        Number of posting steps; step width is ``horizon_T / steps_N``.
    arrival_rate_lambda : float
        Expected advertiser arrivals per unit time during the window.
    initial_arrival_mass : float
        Fraction of ``demand_Q`` already present at the first step.
    price_effect_alpha : float
        Price sensitivity of the purchase ratio (larger = fewer buyers).
    time_effect_beta : float
        Early-window reluctance: scales price sensitivity by the time still
        remaining until delivery.
    risk_level_zeta : float
        Scale of buyer risk aversion toward the auction lottery.
    risk_decay_v : float
        Exponential decay rate of risk aversion over the window.
    miss_prob_omega : float
        Probability a sold impression is not delivered.
    penalty_size_varpi : float
        Penalty paid on a miss, as a multiple of the contract price.
    max_value_pi : float
        Expected maximum value a single impression can fetch; posted prices
        above it cannot clear and are censored.
    reserve_price_r0 : float
        Auction reserve; also the payment fallback when fewer than two
        bidders show up.

    Every field must be a number, not a boolean, and every float field finite.
    """

    supply_S: int
    demand_Q: int
    horizon_T: float
    steps_N: int
    arrival_rate_lambda: float
    initial_arrival_mass: float = 0.2
    price_effect_alpha: float = 1.0
    time_effect_beta: float = 0.0
    risk_level_zeta: float = 0.0
    risk_decay_v: float = 0.0
    miss_prob_omega: float = 0.0
    penalty_size_varpi: float = 0.0
    max_value_pi: float = 1.0
    reserve_price_r0: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (bool, np.bool_)):  # never read as 0 or 1
                raise ValueError(f"{f.name} must be a number, not {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite")
        if not isinstance(self.supply_S, (int, np.integer)) or self.supply_S <= 0:
            raise ValueError("supply_S must be a positive integer")
        if not isinstance(self.demand_Q, (int, np.integer)) or self.demand_Q <= self.supply_S:
            raise ValueError("demand_Q must be an integer exceeding supply_S")
        if self.horizon_T <= 0:
            raise ValueError("horizon_T must be positive")
        if not isinstance(self.steps_N, (int, np.integer)) or self.steps_N < 1:
            raise ValueError("steps_N must be a positive integer")
        if self.arrival_rate_lambda < 0:
            raise ValueError("arrival_rate_lambda must be non-negative")
        if self.arrival_rate_lambda > self.demand_Q / self.horizon_T:
            raise ValueError(
                "arrival_rate_lambda too large: cumulative arrivals would "
                "exceed total demand"
            )
        if not 0.0 <= self.initial_arrival_mass <= 1.0:
            raise ValueError("initial_arrival_mass must lie in [0, 1]")
        if self.price_effect_alpha <= 0:
            raise ValueError("price_effect_alpha must be positive")
        if self.time_effect_beta < 0:
            raise ValueError("time_effect_beta must be non-negative")
        if self.risk_level_zeta < 0:
            raise ValueError("risk_level_zeta must be non-negative")
        if self.risk_decay_v < 0:
            raise ValueError("risk_decay_v must be non-negative")
        if not 0.0 <= self.miss_prob_omega <= 1.0:
            raise ValueError("miss_prob_omega must lie in [0, 1]")
        if self.penalty_size_varpi < 0:
            raise ValueError("penalty_size_varpi must be non-negative")
        if self.miss_prob_omega * self.penalty_size_varpi > 1.0:
            raise ValueError(
                "miss_prob_omega * penalty_size_varpi must not exceed 1 "
                "(selling would be worse than free disposal)"
            )
        if self.max_value_pi <= 0:
            raise ValueError("max_value_pi must be positive")
        if self.reserve_price_r0 < 0:
            raise ValueError("reserve_price_r0 must be non-negative")

    @property
    def delta_t(self) -> float:
        return self.horizon_T / self.steps_N


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Uniform posting times t_0 = 0 < t_1 < ... < t_N = horizon_T."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("grid needs at least two time points")
        if pts[0] != 0.0:
            raise ValueError("grid must start at t = 0")
        steps = np.diff(pts)
        if np.any(steps <= 0):
            raise ValueError("grid points must be strictly increasing")
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValueError("grid must be uniform")
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_config(cls, cfg: MarketConfig) -> "TimeGrid":
        return cls(np.linspace(0.0, cfg.horizon_T, cfg.steps_N + 1))

    @property
    def n_steps(self) -> int:
        return self.points.size - 1


class StepTerms:
    """The market's per-step terms on one grid, as arrays over steps 0..N.

    ``rate`` is every step's arrival mass ``lambda * dt``, ``waiting`` the
    advertisers present when the window opens (``initial_arrival_mass *
    demand_Q``) and ``cum`` the running expected arrivals, ``waiting`` among
    them. ``risk`` is the weight ``zeta * exp(-v * t_n)`` on the auction's
    spread. ``price_scale`` is ``alpha * (1 + beta * (t_N - t_n))``: a price
    ``p`` posted at step ``n`` sells to the share ``exp(-price_scale[n] *
    p)`` of the pool. ``coef = 1 - omega * varpi`` is what a contract nets
    per unit price after expected penalties. Grids off the config's step
    count or horizon are refused.
    """

    def __init__(self, cfg: MarketConfig, grid: TimeGrid):
        if grid.n_steps != cfg.steps_N or grid.points[-1] != cfg.horizon_T:
            raise ValueError(f"grid ({grid.n_steps} steps to {float(grid.points[-1])!r}) does "
                             f"not match the config ({cfg.steps_N} steps to {cfg.horizon_T!r})")
        self.max_value_pi = cfg.max_value_pi
        self.rate = cfg.arrival_rate_lambda * cfg.delta_t
        self.waiting = cfg.initial_arrival_mass * cfg.demand_Q
        arrivals = np.full(grid.n_steps + 1, self.rate)
        arrivals[0] = self.waiting + self.rate
        self.cum = np.cumsum(arrivals)
        self.risk = cfg.risk_level_zeta * np.exp(-cfg.risk_decay_v * grid.points)
        self.price_scale = cfg.price_effect_alpha * (
            1.0 + cfg.time_effect_beta * (grid.points[-1] - grid.points))
        self.coef = 1.0 - cfg.miss_prob_omega * cfg.penalty_size_varpi

    def bound(self, n, means, stds):
        """Price bounds ``min(mean + risk[n] * std, pi)`` from payment moments;
        ``n`` broadcasts against them: a step gives its row, steps paired
        with levels a path's bounds, a column of steps the full table."""
        return np.minimum(means + self.risk[n] * stds, self.max_value_pi)


def reference_config() -> MarketConfig:
    """Reference synthetic slot used by the demos and the validation suite.

    A mid-size slot with fourfold excess demand, a 31-day posting window
    (t_0 plus 30 daily steps), 20% of demand waiting at the window open and
    another 20% trickling in over the window. Bids are uniform on [0, 1]
    CPM in the companion demos/tests, so prices are on that scale and the
    value ceiling sits at the all-auction expected payment, 0.6 CPM.

    The constants are tuned so the slot is well-behaved end to end: the
    optimizer sells just over half the supply forward (leaving enough slack
    that simulated sales never pile into the supply cap), both channels
    contribute comparably to revenue, and the risk-preference sweeps in the
    validation suite respond flat because the value ceiling censors the
    risk premium across the swept range.
    """
    return MarketConfig(
        supply_S=100,
        demand_Q=400,
        horizon_T=30.0,
        steps_N=30,
        arrival_rate_lambda=0.2 * 400 / 30.0,
        initial_arrival_mass=0.2,
        price_effect_alpha=2.0,
        time_effect_beta=0.05,
        risk_level_zeta=10.0,
        risk_decay_v=0.1,
        miss_prob_omega=0.02,
        penalty_size_varpi=0.5,
        max_value_pi=0.6,
        reserve_price_r0=0.0,
    )
