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
    estimate_max_value,
    fit_payment_curves,
    lowess,
    reference_bid_model,
)
from .logs import (
    AuctionTable,
    BidLog,
    read_log_csv,
    summarize_auctions,
    write_log_csv,
)
from .market import (
    MarketConfig,
    StepTerms,
    TimeGrid,
    reference_config,
)
from .replan import ReplanStep, UncertaintySpec, replan
from .segmentation import (
    SegmentedMarket,
    SegmentPlan,
    kmeans_1d,
    segment_and_optimize,
)
from .simulate import (
    evaluate_plan,
    generate_log,
)
from .solver import (
    PricePlan,
    competition_level,
    optimal_plan,
    replay_revenue,
)

__version__ = "0.1.0"

__all__ = [
    "AuctionTable",
    "BidLog",
    "BidModel",
    "FittedCurve",
    "MarketConfig",
    "PricePlan",
    "ReplanStep",
    "RevenueCurves",
    "SegmentPlan",
    "SegmentedMarket",
    "StepTerms",
    "TimeGrid",
    "UncertaintySpec",
    "competition_level",
    "estimate_max_value",
    "evaluate_plan",
    "fit_payment_curves",
    "generate_log",
    "kmeans_1d",
    "lowess",
    "optimal_plan",
    "read_log_csv",
    "reference_bid_model",
    "reference_config",
    "replan",
    "replay_revenue",
    "segment_and_optimize",
    "summarize_auctions",
    "write_log_csv",
]
