"""Joint pricing of guaranteed ad contracts and auction inventory.

A publisher sells the same impressions two ways: programmatic-guaranteed
contracts posted at a price per step of a booking window, and delivery-day
second-price auctions for whatever remains. This package computes the
revenue-maximizing price schedule and split between the channels, estimates
the market primitives from auction logs, replans under demand uncertainty,
and stress-tests plans against a synthetic market.
"""

from .auction import (
    BidModel,
    FittedCurve,
    RevenueCurves,
    aggregate_payment_points,
    estimate_max_value,
    fit_payment_curves,
    lowess,
    mc_second_price,
    reference_bid_model,
)
from .logs import (
    AuctionLogRecord,
    AuctionSummary,
    read_log_csv,
    summarize_auctions,
    write_log_csv,
)
from .market import (
    MarketConfig,
    TimeGrid,
    backlog_demand,
    censored_bound,
    expected_arrivals,
    purchase_ratio,
    reference_config,
    risk_preference,
)
from .replan import ReplanStep, UncertaintySpec, replan, update_demand
from .segmentation import (
    Segment,
    SegmentedMarket,
    SegmentPlan,
    kmeans_1d,
    segment_and_optimize,
)
from .simulate import (
    SimOutcome,
    evaluate_plan,
    generate_arrivals,
    generate_log,
    run_market_once,
    simulate_purchases,
    simulate_rtb,
)
from .solver import (
    DPTables,
    PricePlan,
    brute_force_optimum,
    competition_level,
    optimal_pg_revenue,
    optimal_plan,
    replay_revenue,
)

__version__ = "0.1.0"

__all__ = [
    "AuctionLogRecord",
    "AuctionSummary",
    "BidModel",
    "DPTables",
    "FittedCurve",
    "MarketConfig",
    "PricePlan",
    "ReplanStep",
    "RevenueCurves",
    "Segment",
    "SegmentPlan",
    "SegmentedMarket",
    "SimOutcome",
    "TimeGrid",
    "UncertaintySpec",
    "aggregate_payment_points",
    "backlog_demand",
    "brute_force_optimum",
    "censored_bound",
    "competition_level",
    "estimate_max_value",
    "evaluate_plan",
    "expected_arrivals",
    "fit_payment_curves",
    "generate_arrivals",
    "generate_log",
    "kmeans_1d",
    "lowess",
    "mc_second_price",
    "optimal_pg_revenue",
    "optimal_plan",
    "purchase_ratio",
    "read_log_csv",
    "reference_bid_model",
    "reference_config",
    "replan",
    "replay_revenue",
    "risk_preference",
    "run_market_once",
    "segment_and_optimize",
    "simulate_purchases",
    "simulate_rtb",
    "summarize_auctions",
    "update_demand",
    "write_log_csv",
]
