"""What does one more bidder earn the seller?

Tabulates the expected second-price payment (and its spread) as the
competition level rises, for three bid laws. For uniform bids the exact
answer is (xi - 1) / (xi + 1), so the quadrature column can be checked by
eye, and the demo prints the largest deviation from it.
"""

import numpy as np

from pgrtb.auction import BidModel


def main():
    rng = np.random.default_rng(7)
    models = {
        "uniform[0,1]": BidModel.uniform(0.0, 1.0),
        "lognormal(0,0.5)": BidModel.lognormal(0.0, 0.5),
        "empirical (5k draws)": BidModel.empirical(rng.lognormal(0.0, 0.4, 5000)),
    }
    xis = np.arange(2.0, 9.0)
    for name, model in models.items():
        print(f"\n{name}")
        print(f"{'xi':>4} {'payment':>9} {'spread':>8}")
        means, stds = model.payment_moments(xis)
        for xi, mean, std in zip(xis, means, stds):
            print(f"{int(xi):>4} {mean:>9.4f} {std:>8.4f}")
        if name == "uniform[0,1]":
            worst = np.max(np.abs(means - (xis - 1) / (xis + 1)))
            print(f"   closed-form check: max deviation {worst:.1e}")


if __name__ == "__main__":
    main()
