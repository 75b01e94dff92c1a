"""Price a season of guaranteed contracts against keeping inventory for auction.

Solves one oversubscribed market, prints the step-by-step schedule (posted
price, price ceiling, planned sales), and compares the joint revenue with
selling everything in the delivery-day auction. Then sweeps the buyers'
risk parameters: more risk-averse buyers tolerate a bigger premium over the
auction, so revenue climbs, while the forward-sold share itself can move
either way once the value ceiling starts censoring prices.
"""

import dataclasses

from pgrtb.auction import BidModel
from pgrtb.market import MarketConfig, TimeGrid
from pgrtb.solver import competition_level, optimal_plan


def demo_market():
    # 40 impressions, 160 interested advertisers, 20 selling steps
    return MarketConfig(
        supply_S=40, demand_Q=160, horizon_T=20.0, steps_N=20,
        arrival_rate_lambda=1.2, initial_arrival_mass=0.2,
        price_effect_alpha=1.5, time_effect_beta=0.08,
        risk_level_zeta=8.0, risk_decay_v=0.15,
        miss_prob_omega=0.03, penalty_size_varpi=0.5,
        max_value_pi=0.9,
    )


def main():
    cfg = demo_market()
    grid = TimeGrid.from_config(cfg)
    model = BidModel.uniform(0.0, 1.0)
    plan, _ = optimal_plan(cfg, grid, model)

    print(f"{'step':>4} {'time':>6} {'price':>7} {'ceiling':>8} {'sell':>5} {'cum':>4}")
    cum = 0
    for n in range(cfg.steps_N + 1):
        cum += int(plan.sales[n])
        marker = "" if plan.sales[n] else "  (closed)"
        print(f"{n:>4} {grid.points[n]:>6.1f} {plan.prices[n]:>7.3f} "
              f"{plan.bounds[n]:>8.3f} {int(plan.sales[n]):>5} {cum:>4}{marker}")

    xi0 = competition_level(cfg.demand_Q, cfg.supply_S, 0)
    auction_only = cfg.supply_S * float(model.payment_moments(xi0)[0])
    print(f"\nforward-sold share     {plan.gamma:.2f}")
    print(f"contract revenue       {plan.revenue_pg:.3f}")
    print(f"auction revenue        {plan.revenue_rtb:.3f}")
    print(f"total                  {plan.revenue_total:.3f}")
    print(f"auction-only baseline  {auction_only:.3f} "
          f"(+{plan.revenue_total - auction_only:.3f} from the joint sale)")

    print("\nrisk sweep (higher zeta = more risk-averse buyers):")
    for zeta in (2.0, 8.0, 20.0, 50.0):
        p, _ = optimal_plan(dataclasses.replace(cfg, risk_level_zeta=zeta),
                            grid, model)
        print(f"  zeta {zeta:>5.1f} -> share {p.gamma:.2f}, "
              f"revenue {p.revenue_total:.3f}")
    for v in (0.1, 0.4, 0.8):
        p, _ = optimal_plan(dataclasses.replace(cfg, risk_decay_v=v),
                            grid, model)
        print(f"  decay {v:>4.1f} -> share {p.gamma:.2f}, "
              f"revenue {p.revenue_total:.3f}")


if __name__ == "__main__":
    main()
