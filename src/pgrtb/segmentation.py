"""Bid-landscape segmentation: split a mixed slot into homogeneous groups
and optimize each separately.

A slot whose auctions mix two bidder populations (say, retargeting campaigns
against run-of-network filler) has a bimodal bid landscape; a single fitted
payment curve splits the difference and misprices both. Splitting the
auctions at the exact two-group cut of their winning bids, splitting supply
and demand proportionally, and solving each group on its own fitted curves
recovers a coherent plan per group.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .auction import BidModel, RevenueCurves, estimate_max_value, fit_payment_curves
from .market import MarketConfig, StepTerms, TimeGrid
from .solver import PricePlan, competition_level, optimal_plan

__all__ = [
    "SegmentPlan",
    "SegmentedMarket",
    "kmeans_1d",
    "segment_and_optimize",
]


def kmeans_1d(values):
    """The exact two-group split of scalars: the mask of the high group.

    An optimal 2-means partition of scalars is contiguous in sorted order,
    so one scan finds it: of the cuts between distinct values, the one with
    the largest ``S_lo^2 / n_lo + S_hi^2 / n_hi`` (sums of the values less
    their mean) has the least within-group sum of squares; on a tie the
    lowest cut wins. The split depends on the values alone, not on their
    order, and never separates equal values. Raises ValueError when there
    are fewer than two distinct values.
    """
    vals = np.asarray(values, dtype=float).ravel()
    ordered = np.sort(vals)
    cuts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1  # low group sizes
    if not cuts.size:
        raise ValueError("need at least 2 distinct values to split in two")
    centred = np.cumsum(ordered - ordered.mean())
    low, total = centred[cuts - 1], centred[-1]
    cut = int(cuts[np.argmax(low**2 / cuts + (total - low)**2 / (vals.size - cuts))])
    return vals > ordered[cut - 1]


@dataclass
class SegmentPlan:
    """One segment's market slice and its optimal plan."""

    label: str
    auction_count: int
    supply: int
    demand: int
    mean_competition: float
    max_value: float
    curves: RevenueCurves
    plan: PricePlan
    rtb_only: bool


@dataclass
class SegmentedMarket:
    """Per-segment plans plus the combined expected revenue."""

    segments: list
    combined_revenue: float
    fallback: bool


def segment_and_optimize(table, cfg: MarketConfig):
    """Split an auction table into two bid-level groups and solve each market slice.

    The groups are :func:`kmeans_1d`'s split of the winning bids, high bids
    first; the same auctions in any order form the same groups. Supply,
    demand, and arrival rate are split proportionally to each group's auction
    share (demand floored at supply + 1 to keep every slice oversubscribed);
    each group gets its own fitted payment curves and value ceiling. A group
    whose mean observed competition is below 2 gets no guaranteed sales (its
    payment curves are censored there) and is priced as auction-only
    inventory.

    When the winning bids cannot be split (a single distinct level), a
    warning is issued and the whole market is solved as one segment, whose
    share of 1 leaves the config's supply, demand and arrival rate as they
    are.
    """
    if not len(table):
        raise ValueError("no auctions to segment")
    try:
        high = kmeans_1d(table.winning_bid)
        groups = [("group1_high", np.flatnonzero(high)), ("group2_low", np.flatnonzero(~high))]
    except ValueError:
        warnings.warn("bid values cannot support two clusters; keeping one group",
                      RuntimeWarning, stacklevel=2)
        groups = [("all", np.arange(len(table)))]

    grid = TimeGrid.from_config(cfg)
    plans = []
    combined = 0.0
    for label, members in groups:
        subs = table.take(members)
        share = len(subs) / len(table)
        supply = max(1, int(round(cfg.supply_S * share)))
        demand = max(int(round(cfg.demand_Q * share)), supply + 1)
        lam = cfg.arrival_rate_lambda * (demand / cfg.demand_Q)
        ceiling = estimate_max_value(subs)
        try:
            sub_cfg = replace(cfg, supply_S=supply, demand_Q=demand,
                              arrival_rate_lambda=lam, max_value_pi=ceiling)
        except ValueError as exc:  # a group bidding only 0 has no value ceiling
            raise ValueError(f"segment {label}: {exc}") from exc
        mean_xi = float(np.mean(subs.xi_observed))
        curves = None
        if (subs.xi_observed >= 2).any():  # some auction has a second price to fit
            curves = RevenueCurves(*fit_payment_curves(subs))
        # without a fitted curve the auction is priced from the bids themselves
        model = curves if curves is not None else BidModel.empirical(subs.bids)
        rtb_only = mean_xi < 2.0 or curves is None
        plan = (_rtb_only_plan(sub_cfg, grid, model) if rtb_only
                else optimal_plan(sub_cfg, grid, curves)[0])
        plans.append(SegmentPlan(
            label=label, auction_count=len(subs), supply=supply, demand=demand,
            mean_competition=mean_xi, max_value=ceiling, curves=curves,
            plan=plan, rtb_only=rtb_only))
        combined += plan.revenue_total
    return SegmentedMarket(segments=plans, combined_revenue=combined,
                           fallback=len(groups) == 1)


def _rtb_only_plan(cfg, grid, model):
    """All supply to the delivery-day auction; posted steps stay closed.

    Used when observed competition is too thin to certify guaranteed prices.
    The auction revenue still needs a payment estimate from ``model``.
    """
    xi0 = competition_level(cfg.demand_Q, cfg.supply_S, 0)
    means, stds = model.payment_moments(np.array([xi0]), cfg.reserve_price_r0)
    bounds = StepTerms(cfg, grid).bound(np.arange(grid.n_steps + 1), means[0], stds[0])
    revenue = cfg.supply_S * float(means[0])
    return PricePlan.from_path(bounds, np.zeros(grid.n_steps + 1, dtype=int), bounds,
                               0.0, revenue, supply=cfg.supply_S, demand=cfg.demand_Q)
