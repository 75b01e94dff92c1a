"""Round trip: log -> fitted payment curves -> plan, judged against the truth.

Generates an auction log from a known bid law, fits the payment curves from
the log alone, then optimizes the same market twice (true law vs fitted
curves). The punchline is the last line: what the fitted plan actually
earns when replayed under the true law.
"""

from pgrtb.auction import RevenueCurves, fit_payment_curves, reference_bid_model
from pgrtb.logs import summarize_auctions
from pgrtb.market import TimeGrid, reference_config
from pgrtb.simulate import generate_log
from pgrtb.solver import optimal_plan, replay_revenue


def main():
    true_model = reference_bid_model()
    records, truth = generate_log(true_model, hours=98, auctions_per_hour=30,
                                  bidders_per_hour=[2, 3, 4, 5, 6, 7, 8],
                                  seed=42)
    table = summarize_auctions(records)
    print(f"log: {len(table)} auctions, {len(records)} bids, "
          f"bidder pattern {truth['bidders_per_hour']} by hour")

    mean_curve, std_curve = fit_payment_curves(table)
    print(f"\nfitted curves: mean {mean_curve.method} "
          f"(rmse {mean_curve.rmse:.4f}), spread {std_curve.method} "
          f"(rmse {std_curve.rmse:.4f})")
    print(f"{'xi':>4} {'true payment':>13} {'fitted':>8} {'error':>8}")
    for xi in range(2, 9):
        true_phi = float(true_model.payment_moments(xi)[0])
        fit_phi = float(mean_curve(float(xi)))
        print(f"{xi:>4} {true_phi:>13.4f} {fit_phi:>8.4f} "
              f"{fit_phi - true_phi:>+8.4f}")

    cfg = reference_config()
    grid = TimeGrid.from_config(cfg)
    oracle_plan, _ = optimal_plan(cfg, grid, true_model)
    fitted_plan, _ = optimal_plan(cfg, grid,
                                  RevenueCurves(mean_curve, std_curve))
    realized = replay_revenue(fitted_plan, cfg, grid, true_model)[2]
    print(f"\ntrue-model optimum      {oracle_plan.revenue_total:.4f}")
    print(f"fitted plan, claimed    {fitted_plan.revenue_total:.4f}")
    print(f"fitted plan, realized   {realized:.4f} under the true law")
    gap = abs(realized - oracle_plan.revenue_total) / oracle_plan.revenue_total
    print(f"optimality gap from estimation error: {100 * gap:.2f}%")


if __name__ == "__main__":
    main()
