"""Bid-landscape segmentation: split a mixed slot into homogeneous groups
and optimize each separately.

A slot whose auctions mix two bidder populations (say, retargeting campaigns
against run-of-network filler) has a bimodal bid landscape; a single fitted
payment curve splits the difference and misprices both. Clustering the
observed bids into two groups, splitting supply and demand proportionally,
and solving each group on its own fitted curves recovers a coherent plan per
group.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .auction import BidModel, RevenueCurves, estimate_max_value, fit_payment_curves
from .market import MarketConfig, StepTerms, TimeGrid
from .solver import PricePlan, competition_level, optimal_plan

__all__ = [
    "Segment",
    "SegmentPlan",
    "SegmentedMarket",
    "kmeans_1d",
    "segment_and_optimize",
]


@dataclass
class Segment:
    """One cluster of observations: its indices into the input and its centroid."""

    label: str
    members: list
    centroid: float


def kmeans_1d(values, k=2, seed=0, max_iters=100):
    """Seeded k-means on scalars: k-means++ start, Lloyd iterations.

    Deterministic for a given seed. Clusters that empty out are refilled
    with the point farthest from its current centroid. Raises ValueError
    when the data cannot support k clusters (fewer than k distinct values).
    Segments come back ordered by descending centroid, labelled
    ``group1_high``/``group2_low`` for k = 2 and ``group<i>`` otherwise.
    """
    vals = np.asarray(values, dtype=float).ravel()
    if vals.size == 0:
        raise ValueError("no values to cluster")
    if k < 1:
        raise ValueError("k must be positive")
    if np.unique(vals).size < k:
        raise ValueError(f"need at least {k} distinct values to form {k} clusters")
    rng = np.random.default_rng(seed)

    centroids = [float(vals[rng.integers(vals.size)])]
    while len(centroids) < k:
        d2 = np.min(np.abs(vals[:, None] - np.array(centroids)[None, :]), axis=1) ** 2
        centroids.append(float(vals[rng.choice(vals.size, p=d2 / d2.sum())]))
    centroids = np.array(centroids)

    assign = None
    for _ in range(max_iters):
        dist = np.abs(vals[:, None] - centroids[None, :])
        new_assign = np.argmin(dist, axis=1)
        for j in range(k):
            if not np.any(new_assign == j):
                spread = np.abs(vals - centroids[new_assign])
                new_assign[int(np.argmax(spread))] = j
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            centroids[j] = vals[assign == j].mean()

    order = np.argsort(-centroids, kind="stable")
    segments = []
    for rank, j in enumerate(order):
        members = np.nonzero(assign == j)[0]
        label = ("group1_high", "group2_low")[rank] if k == 2 else f"group{rank + 1}"
        segments.append(Segment(label=label, members=[int(i) for i in members],
                                centroid=float(centroids[j])))
    return segments


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


def _auction_groups(table, feature, seed):
    """Cluster auctions into two groups by the chosen bid feature.

    Returns ``(groups, fallback)`` where groups is a list of
    ``(label, indices)`` ordered high bids first.
    """
    if feature not in ("winning_bid", "all_bids"):
        raise ValueError(f"unknown feature {feature!r}; use winning_bid or all_bids")
    everything = [("all", np.arange(len(table)))], True
    try:
        segs = kmeans_1d(table.winning_bid if feature == "winning_bid" else table.bids,
                         k=2, seed=seed)
    except ValueError:
        return everything
    if feature == "winning_bid":  # members as arrays: a list holds an int object per auction
        return [(s.label, np.array(s.members)) for s in segs], False
    # each auction joins the bid cluster nearest its winning bid
    centroids = np.array([s.centroid for s in segs])
    nearest = np.argmin(np.abs(centroids[None, :] - table.winning_bid[:, None]), axis=1)
    groups = [(s.label, np.flatnonzero(nearest == j)) for j, s in enumerate(segs)]
    groups = [(label, members) for label, members in groups if members.size]
    return (groups, False) if len(groups) == 2 else everything


def segment_and_optimize(table, cfg: MarketConfig, *, feature="winning_bid",
                         seed=0):
    """Split an auction table into two bid-level groups and solve each market slice.

    Supply, demand, and arrival rate are split proportionally to each
    group's auction share (demand floored at supply + 1 to keep every slice
    oversubscribed); each group gets its own fitted payment curves and value
    ceiling. A group whose mean observed competition is below 2 gets no
    guaranteed sales (its payment curves are censored there) and is priced
    as auction-only inventory.

    When the bids carry no usable structure (a single distinct level), the
    clusterer cannot split them; a warning is issued and the whole market is
    solved as one segment.
    """
    if not len(table):
        raise ValueError("no auctions to segment")
    groups, fallback = _auction_groups(table, feature, seed)
    if fallback:
        warnings.warn("bid values cannot support two clusters; keeping one group",
                      RuntimeWarning, stacklevel=2)

    grid = TimeGrid.from_config(cfg)
    plans = []
    combined = 0.0
    for label, members in groups:
        subs = table.take(members)
        share = len(subs) / len(table)
        if len(groups) == 1:
            supply, demand = cfg.supply_S, cfg.demand_Q
        else:
            supply = max(1, int(round(cfg.supply_S * share)))
            demand = max(int(round(cfg.demand_Q * share)), supply + 1)
        lam = cfg.arrival_rate_lambda * (demand / cfg.demand_Q)
        ceiling = estimate_max_value(subs)
        sub_cfg = replace(cfg, supply_S=supply, demand_Q=demand,
                          arrival_rate_lambda=lam, max_value_pi=ceiling)
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
                           fallback=fallback)


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
