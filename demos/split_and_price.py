"""One slot, two advertiser populations: price each on its own curve.

Builds a log that mixes premium retargeting bids (uniform on [2, 3]) with
run-of-network filler (uniform on [0, 1]), splits the auctions in two by
winning bid, and solves a separate guaranteed-price schedule for each slice.
"""

import numpy as np

from pgrtb.auction import BidModel
from pgrtb.logs import BidLog, summarize_auctions
from pgrtb.market import MarketConfig
from pgrtb.segmentation import segment_and_optimize
from pgrtb.simulate import generate_log


def main():
    cycle = [2, 3, 4, 5]
    premium, _ = generate_log(BidModel.uniform(2.0, 3.0), hours=48,
                              auctions_per_hour=8, bidders_per_hour=cycle,
                              seed=10, slot_id="premium")
    filler, _ = generate_log(BidModel.uniform(0.0, 1.0), hours=48,
                             auctions_per_hour=8, bidders_per_hour=cycle,
                             seed=11, slot_id="filler")
    mixed = BidLog(premium.slot_id + filler.slot_id, premium.auction_id + filler.auction_id,
                   premium.timestamp + filler.timestamp,
                   np.concatenate([premium.bid_cpm, filler.bid_cpm]))
    summaries = summarize_auctions(mixed)
    print(f"mixed log: {len(summaries)} auctions from two populations")

    cfg = MarketConfig(
        supply_S=30, demand_Q=120, horizon_T=15.0, steps_N=15,
        arrival_rate_lambda=1.8, initial_arrival_mass=0.2,
        price_effect_alpha=1.2, time_effect_beta=0.08,
        risk_level_zeta=6.0, risk_decay_v=0.2,
        miss_prob_omega=0.02, penalty_size_varpi=0.5,
        max_value_pi=1.0,
    )
    market = segment_and_optimize(summaries, cfg)

    for seg in market.segments:
        plan = seg.plan
        print(f"\n{seg.label}: {seg.auction_count} auctions, "
              f"mean competition {seg.mean_competition:.1f}")
        print(f"  slice of the market: {seg.supply} impressions "
              f"for {seg.demand} advertisers, value ceiling {seg.max_value:.3f}")
        if seg.rtb_only:
            print("  too thin to certify posted prices; all inventory "
                  "kept for the auction")
        open_steps = [(n, float(plan.prices[n]), int(plan.sales[n]))
                      for n in range(len(plan.sales)) if plan.sales[n]]
        for n, price, z in open_steps:
            print(f"  step {n:>2}: sell {z:>2} at {price:.3f}")
        print(f"  revenue {plan.revenue_total:.3f} "
              f"(contracts {plan.revenue_pg:.3f}, auction {plan.revenue_rtb:.3f})")

    print(f"\ncombined expected revenue: {market.combined_revenue:.3f}")


if __name__ == "__main__":
    main()
