"""Second-price payment moments, their estimators, and curve fitting.

The quadrature is checked against three independent routes: closed forms for
uniform bids, scipy.integrate.quad on the untransformed integrand, and the
Monte Carlo estimator. None of these share code with the production path.
"""

import math
import warnings
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from scipy.integrate import quad

from pgrtb.auction import (
    BidModel,
    FittedCurve,
    RevenueCurves,
    aggregate_payment_points,
    estimate_max_value,
    fit_payment_curves,
    fit_polynomial,
    fit_sigmoid,
    lowess,
    mc_second_price,
)
from pgrtb import auction
from pgrtb.logs import AuctionLogRecord, summarize_auctions

UTC = timezone.utc

# Closed forms for uniform bids on [lo, hi]: the second-highest of xi draws
# is lo + (hi - lo) * Beta(xi - 1, 2), so its mean is lo + (hi - lo)(xi-1)/(xi+1)
# and E[Beta^2] = (xi-1) xi / ((xi+1)(xi+2)).


def uniform_mean(lo, hi, xi):
    return lo + (hi - lo) * (xi - 1.0) / (xi + 1.0)


def uniform_std(lo, hi, xi):
    m1 = (xi - 1.0) / (xi + 1.0)
    m2 = (xi - 1.0) * xi / ((xi + 1.0) * (xi + 2.0))
    return (hi - lo) * math.sqrt(m2 - m1 * m1)


def test_uniform_closed_form_mean():
    model = BidModel.uniform(0.0, 1.0)
    for xi in range(2, 11):
        assert abs(model.payment_mean(xi) - uniform_mean(0.0, 1.0, xi)) < 1e-9


def test_uniform_closed_form_general_interval():
    model = BidModel.uniform(0.5, 2.0)
    assert model.payment_mean(4.0) == pytest.approx(1.4, abs=1e-9)
    for xi in (2.0, 3.5, 7.0, 25.0):
        assert model.payment_mean(xi) == pytest.approx(uniform_mean(0.5, 2.0, xi), abs=1e-9)
        assert model.payment_std(xi) == pytest.approx(uniform_std(0.5, 2.0, xi), abs=1e-9)
    # deep in the boundary layer near the top of the support the payment
    # spread is tiny next to its mean, so it is checked relative to itself
    for lo, hi in ((0.0, 1.0), (0.5, 2.0)):
        model = BidModel.uniform(lo, hi)
        for xi in (1000.0, 3000.0, 6400.0, 1e5):
            assert abs(model.payment_mean(xi) - uniform_mean(lo, hi, xi)) < 1e-11
            if xi <= 6400.0:
                assert model.payment_std(xi) == pytest.approx(
                    uniform_std(lo, hi, xi), rel=1e-6)


def test_uniform_closed_form_std_frozen():
    model = BidModel.uniform(0.0, 1.0)
    assert model.payment_std(2.0) == pytest.approx(0.23570226039551584, abs=1e-9)
    assert model.payment_std(3.0) == pytest.approx(0.22360679774997896, abs=1e-9)


def test_fractional_xi_monotone():
    """More competition pushes the expected payment up toward the support top."""
    model = BidModel.uniform(0.0, 1.0)
    values = [model.payment_mean(xi) for xi in (2.0, 2.5, 3.25, 6.0, 40.0, 400.0)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] < 1.0
    assert model.payment_mean(math.inf) == 1.0
    assert model.payment_std(math.inf) == 0.0


def test_below_two_bidders_pays_reserve():
    model = BidModel.uniform(0.0, 1.0)
    assert model.payment_mean(1.5, reserve=0.3) == 0.3
    assert model.payment_mean(0.0) == 0.0
    assert model.payment_std(1.9) == 0.0


def quad_reference(model, xi, top):
    """Mean of the second-highest order statistic, integrated in value space.

    Density of the second-highest of xi draws: xi (xi-1) F^(xi-2) (1-F) f.
    This is the untransformed integral the production code avoids, so it is
    an independent oracle.
    """

    def integrand(x):
        F = float(model.cdf(x))
        f = float(model.pdf(x))
        return x * xi * (xi - 1.0) * F ** (xi - 2.0) * (1.0 - F) * f

    lo = model.support()[0]
    val, err = quad(integrand, lo, top, limit=200)
    assert err < 1e-8
    return val


def test_quadrature_against_scipy_uniform():
    model = BidModel.uniform(0.2, 1.1)
    for xi in (2.0, 3.7, 9.0):
        assert model.payment_mean(xi) == pytest.approx(
            quad_reference(model, xi, 1.1), abs=1e-7)


def test_quadrature_against_scipy_lognormal():
    model = BidModel.lognormal(0.0, 0.5)
    for xi in (2.0, 2.7, 5.3):
        assert model.payment_mean(xi) == pytest.approx(
            quad_reference(model, xi, 60.0), abs=1e-6)


def test_mc_agrees_with_quadrature():
    # MC rounds xi up to a whole bidder count, so compare at an integer
    model = BidModel.lognormal(0.1, 0.4)
    mean, std, se = mc_second_price(4.0, model, 200_000, seed=11)
    assert abs(model.payment_mean(4.0) - mean) < 5 * se
    # the std of the payment is also in the MC return
    assert abs(model.payment_std(4.0) - std) < 0.01


def test_mc_determinism_and_edges():
    model = BidModel.uniform(0.0, 1.0)
    a = mc_second_price(4.0, model, 5000, seed=3)
    b = mc_second_price(4.0, model, 5000, seed=3)
    assert a == b
    c = mc_second_price(4.0, model, 5000, seed=4)
    assert a != c
    mean, std, se = mc_second_price(2.0, model, 1, seed=0)
    assert std == 0.0 and se == 0.0
    assert a[2] == pytest.approx(a[1] / math.sqrt(5000))
    with pytest.raises(ValueError):
        mc_second_price(1.5, model, 100, seed=0)
    with pytest.raises(ValueError):
        mc_second_price(3.0, model, 0, seed=0)


def test_payment_moments_matches_scalar_calls():
    xis = np.array([2.0, 2.5, 17.0, 33.3, 1.0, math.inf])
    batch_model = BidModel.lognormal(0.0, 0.5)
    means, stds = batch_model.payment_moments(xis, reserve=0.25)
    scalar_model = BidModel.lognormal(0.0, 0.5)
    for i, xi in enumerate(xis):
        assert means[i] == scalar_model.payment_mean(float(xi), reserve=0.25)
        assert stds[i] == scalar_model.payment_std(float(xi))
    # within one instance the cache makes repeat lookups bit-identical
    assert batch_model.payment_mean(2.5, reserve=0.25) == means[1]
    assert batch_model.payment_std(33.3) == stds[3]
    # a level's floats depend on xi alone: scalar calls on a fresh model are
    # the reference, and shuffled batches of random sizes on other fresh
    # models, in any order and mix, must reproduce them exactly
    rng = np.random.default_rng(17)
    S, D = 120, 480
    levels = np.concatenate([
        xis[np.isfinite(xis) & (xis >= 2.0)],
        (D - np.arange(S)) / (S - np.arange(S)),
        rng.uniform(2.0, 60.0, 40),
        [1000.0, 3000.0, 6400.0, 1e5],
    ])
    fresh = [lambda: BidModel.uniform(0.1, 0.9),
             lambda: BidModel.lognormal(0.0, 0.5),
             lambda: BidModel.empirical(np.random.default_rng(3).uniform(0.2, 1.4, 300))]
    for make in fresh:
        scalar = make()
        ref = {float(xi): (scalar.payment_mean(float(xi)), scalar.payment_std(float(xi)))
               for xi in levels}
        for _ in range(6):
            model = make()
            order = rng.permutation(levels)
            cuts = np.sort(rng.choice(np.arange(1, order.size), 5, replace=False))
            for part in np.split(order, cuts):
                part_means, part_stds = model.payment_moments(part)
                for xi, mean, std in zip(part, part_means, part_stds):
                    assert (mean, std) == ref[float(xi)]


def test_payment_quadrature_warns_past_its_tolerance(monkeypatch):
    monkeypatch.setattr(auction, "_RTOL", 1e-20)
    with pytest.warns(RuntimeWarning, match="payment quadrature error .* exceeds"):
        BidModel.lognormal(0.0, 1.0).payment_moments(np.array([2.0, 40.0]))
    with pytest.warns(RuntimeWarning, match="payment quadrature error"):
        BidModel.uniform(0.0, 1.0).payment_mean(3.0)


def test_payment_quadrature_silent_on_supported_laws():
    levels = np.concatenate([np.linspace(2.0, 40.0, 77), [100.0, 1000.0, 3000.0, 6400.0]])
    models = [BidModel.uniform(0.0, 1.0), BidModel.uniform(0.5, 2.0)]
    models += [BidModel.lognormal(mu, sigma)
               for mu in (-0.5, 0.0) for sigma in (0.25, 0.5, 1.0, 2.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for model in models:
            model.payment_moments(levels)


def test_empirical_model_smoothed_law():
    rng = np.random.default_rng(99)
    sample = rng.uniform(0.1, 2.0, size=2000)
    model = BidModel.empirical(sample)
    lo, hi = model.support()
    assert lo <= sample.min() and hi >= sample.max()
    u = np.linspace(0.01, 0.99, 41)
    # the smoothed CDF is continuous and strictly increasing where mass sits
    np.testing.assert_allclose(model.cdf(model.ppf(u)), u, atol=1e-9)
    xs = np.linspace(lo, hi, 101)
    cdf = model.cdf(xs)
    assert np.all(np.diff(cdf) >= -1e-12)
    assert model.cdf(lo) == 0.0 and model.cdf(hi) == 1.0
    # quadrature moments on the smoothed law agree with MC on the same law
    mean, std, se = mc_second_price(4.0, model, 400_000, seed=5)
    assert abs(model.payment_mean(4.0) - mean) < 4 * se


def test_empirical_point_mass():
    model = BidModel.empirical([0.7, 0.7, 0.7])
    assert model.payment_mean(5.0) == 0.7
    assert model.payment_std(5.0) == 0.0
    assert model.payment_mean(1.0, reserve=0.2) == 0.2
    rng = np.random.default_rng(0)
    assert np.all(model.sample_bids(rng, 10) == 0.7)


def test_bid_model_validation():
    with pytest.raises(ValueError):
        BidModel.uniform(1.0, 0.5)
    with pytest.raises(ValueError):
        BidModel.uniform(-0.5, 1.0)
    with pytest.raises(ValueError):
        BidModel.lognormal(0.0, 0.0)
    with pytest.raises(ValueError):
        BidModel.empirical([])
    with pytest.raises(ValueError):
        BidModel.empirical([0.5, -0.1])
    with pytest.raises(ValueError):
        BidModel("triangular", a=0, b=1)


def test_bid_model_serialization_round_trip():
    for model in (BidModel.uniform(0.1, 1.5),
                  BidModel.lognormal(-0.2, 0.6),
                  BidModel.empirical([0.3, 0.9, 0.9, 1.4])):
        clone = BidModel.from_dict(model.to_dict())
        assert clone.kind == model.kind
        assert clone.payment_mean(3.0) == model.payment_mean(3.0)
    with pytest.raises(ValueError):
        BidModel.from_dict({"kind": "cauchy"})


def test_sample_bids_deterministic():
    model = BidModel.empirical(np.linspace(0.2, 1.0, 50))
    a = model.sample_bids(np.random.default_rng(7), 100)
    b = model.sample_bids(np.random.default_rng(7), 100)
    np.testing.assert_array_equal(a, b)
    assert a.min() >= model.support()[0] and a.max() <= model.support()[1]


# -- curve fitting ----------------------------------------------------------


def test_lowess_reproduces_a_line():
    rng = np.random.default_rng(21)
    x = np.sort(rng.uniform(0.0, 10.0, 40))
    y = 1.5 + 0.75 * x
    curve = lowess(np.column_stack([x, y]), fraction=0.4)
    assert curve.method == "lowess"
    np.testing.assert_allclose(curve(x), y, atol=1e-8)
    assert curve.rmse < 1e-8
    # clamped extrapolation holds the boundary values
    assert curve(-5.0) == pytest.approx(y[0], abs=1e-8)
    assert curve(99.0) == pytest.approx(y[-1], abs=1e-8)


def test_lowess_shrugs_off_an_outlier():
    rng = np.random.default_rng(22)
    x = np.linspace(0.0, 10.0, 60)
    y = 2.0 - 0.1 * x + rng.normal(0.0, 0.01, 60)
    y[30] += 10.0
    curve = lowess(np.column_stack([x, y]), fraction=0.3, iterations=3)
    clean = 2.0 - 0.1 * x
    keep = np.ones(60, dtype=bool)
    keep[30] = False
    assert np.max(np.abs(curve(x[keep]) - clean[keep])) < 0.05


def test_lowess_validation():
    with pytest.raises(ValueError):
        lowess([(0.0, 1.0), (1.0, 2.0)])
    with pytest.raises(ValueError):
        lowess([(0.0, 1.0), (1.0, 2.0), (2.0, 1.0)], fraction=0.0)
    with pytest.raises(ValueError):
        lowess([(1.0, 1.0), (1.0, 2.0), (1.0, 3.0)])
    with pytest.raises(ValueError):
        lowess([(0.0, 1.0), (1.0, 2.0), (2.0, 1.0)], iterations=-1)


def test_fit_polynomial_recovers_quadratic():
    x = np.linspace(1.0, 5.0, 25)
    y = 0.3 + 0.2 * x - 0.05 * x * x
    curve = fit_polynomial(np.column_stack([x, y]), degree=2)
    np.testing.assert_allclose(curve.coeffs, [0.3, 0.2, -0.05], atol=1e-10)
    assert curve.rmse < 1e-10
    # degree clamps to the data
    tiny = fit_polynomial([(0.0, 1.0), (1.0, 3.0)], degree=5)
    assert tiny.coeffs.size == 2


def test_fit_sigmoid_recovers_planted_curve():
    x = np.linspace(0.0, 10.0, 80)
    y = 0.2 + 0.6 / (1.0 + np.exp(-1.3 * (x - 4.0)))
    curve = fit_sigmoid(np.column_stack([x, y]))
    assert curve.rmse < 1e-6
    np.testing.assert_allclose(curve(x), y, atol=1e-4)


def test_fit_sigmoid_degrades_gracefully():
    curve = fit_sigmoid([(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)])
    assert math.isinf(curve.rmse)


def test_fitted_curve_serialization():
    x = np.linspace(2.0, 8.0, 12)
    y = np.sqrt(x)
    for curve in (lowess(np.column_stack([x, y])),
                  fit_polynomial(np.column_stack([x, y])),
                  fit_sigmoid(np.column_stack([x, y]))):
        clone = FittedCurve.from_dict(curve.to_dict())
        probe = np.linspace(1.0, 9.0, 17)
        np.testing.assert_allclose(clone(probe), curve(probe), rtol=0, atol=0)
    with pytest.raises(ValueError):
        FittedCurve(method="spline", x_range=(0.0, 1.0))(0.5)


def _records_for(payments_by_hour, bids_per_auction=3, auctions=8):
    """Craft a bid log whose hourly second prices are exactly controlled."""
    records = []
    base = datetime(2024, 3, 1, tzinfo=UTC)
    for h, second in enumerate(payments_by_hour):
        for a in range(auctions):
            aid = f"a-{h}-{a}"
            ts = base + timedelta(hours=h, minutes=a)
            bids = [second + 1.0, second] + [second / 2.0] * (bids_per_auction - 2)
            for b in bids:
                records.append(AuctionLogRecord("s", aid, ts, b))
    return records


def test_aggregate_payment_points_hourly():
    records = _records_for([0.4, 0.6, 0.8])
    summaries = summarize_auctions(records)
    xi, mean, std = aggregate_payment_points(summaries)
    assert xi.shape == (3,)
    np.testing.assert_allclose(xi, 3.0)
    np.testing.assert_allclose(mean, [0.4, 0.6, 0.8], atol=1e-12)
    np.testing.assert_allclose(std, 0.0, atol=1e-12)


def test_aggregate_payment_points_by_count():
    # without timestamps auctions group by their exact bidder count
    records = []
    for a in range(6):
        k = 2 + (a % 2)
        for b in range(k):
            records.append(AuctionLogRecord("s", f"a{a}", None, 0.1 * (b + 1)))
    summaries = summarize_auctions(records)
    xi, mean, std = aggregate_payment_points(summaries)
    np.testing.assert_array_equal(xi, [2.0, 3.0])
    np.testing.assert_allclose(mean, [0.1, 0.2], atol=1e-12)
    with pytest.raises(ValueError):
        aggregate_payment_points([])


def test_fit_payment_curves_rejects_thin_auctions():
    records = [AuctionLogRecord("s", "solo", None, 0.5)]
    with pytest.raises(ValueError, match="solo"):
        fit_payment_curves(summarize_auctions(records))
    with pytest.raises(ValueError):
        fit_payment_curves([])


def test_fit_payment_curves_on_planted_shape():
    """The winning candidate must sit close to a noiseless planted curve."""
    rng = np.random.default_rng(31)
    records = []
    base = datetime(2024, 3, 1, tzinfo=UTC)
    for h in range(48):
        k = 2 + (h % 5)
        target = 0.2 + 0.08 * k
        for a in range(6):
            aid = f"h{h}-a{a}"
            ts = base + timedelta(hours=h, minutes=a)
            noise = rng.normal(0.0, 0.002)
            bids = [target + 0.5, target + noise] + [0.05] * (k - 2)
            for b in bids:
                records.append(AuctionLogRecord("s", aid, ts, max(b, 0.0)))
    mean_curve, std_curve = fit_payment_curves(summarize_auctions(records))
    for k in range(2, 7):
        assert mean_curve(float(k)) == pytest.approx(0.2 + 0.08 * k, abs=0.01)
    assert std_curve(4.0) < 0.01


def test_estimate_max_value():
    records = _records_for([0.4, 1.0, 0.6])
    # peak hourly mean of all bids: hour with second=1.0 has bids 2.0/1.0/0.5
    est = estimate_max_value(summarize_auctions(records))
    assert est == pytest.approx((2.0 + 1.0 + 0.5) / 3.0, abs=1e-12)
    flat = [AuctionLogRecord("s", "a1", None, 0.3),
            AuctionLogRecord("s", "a1", None, 0.9)]
    assert estimate_max_value(summarize_auctions(flat)) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        estimate_max_value([])


def test_estimate_max_value_merges_unstamped_rows():
    ts = datetime(2024, 3, 1, tzinfo=UTC)
    records = [AuctionLogRecord("s", "a1", ts, 2.0),
               AuctionLogRecord("s", "a1", ts, 1.0),
               AuctionLogRecord("s", "a2", None, 0.1),
               AuctionLogRecord("s", "a2", None, 0.1)]
    # a mixed log cannot be bucketed by hour, so everything pools
    assert estimate_max_value(summarize_auctions(records)) == pytest.approx(0.8)


def test_revenue_curves_surface():
    x = np.linspace(2.0, 9.0, 15)
    curves = RevenueCurves(
        mean_curve=fit_polynomial(np.column_stack([x, 0.1 + 0.05 * x]), degree=1),
        std_curve=fit_polynomial(np.column_stack([x, 0.02 * np.ones_like(x)]), degree=0),
    )
    assert curves.payment_mean(1.2, reserve=0.33) == 0.33
    assert curves.payment_std(1.2) == 0.0
    assert curves.payment_mean(4.0) == pytest.approx(0.3, abs=1e-10)
    means, stds = curves.payment_moments(np.array([1.0, 4.0, 20.0]), reserve=0.33)
    assert means[0] == 0.33
    assert means[1] == curves.payment_mean(4.0)
    # clamped beyond the training range
    assert means[2] == curves.payment_mean(9.0)
    # the array path agrees with the scalar calls bit for bit, for every fit
    pts_x = np.linspace(2.0, 12.0, 30)
    pts = np.column_stack([pts_x, 0.2 + 0.6 / (1.0 + np.exp(-(pts_x - 6.0)))])
    spread = np.column_stack([pts_x, 0.05 + 0.01 * np.sin(pts_x)])
    xis = np.concatenate([np.linspace(0.5, 15.0, 59), [1.999, 2.0, math.inf]])
    for fit in (lowess, fit_polynomial, fit_sigmoid):
        fitted = RevenueCurves(fit(pts), fit(spread))
        means, stds = fitted.payment_moments(xis, reserve=0.33)
        assert means.tolist() == [fitted.payment_mean(float(x), reserve=0.33) for x in xis]
        assert stds.tolist() == [fitted.payment_std(float(x)) for x in xis]
    clone = RevenueCurves.from_dict(curves.to_dict())
    assert clone.payment_mean(5.5) == curves.payment_mean(5.5)
