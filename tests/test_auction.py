"""Second-price payment moments, their estimators, and curve fitting.

The quadrature is checked against three independent routes: closed forms for
uniform bids, scipy.integrate.quad on the untransformed integrand, and the
Monte Carlo oracle. None of these share code with the production path.
"""

import json
import math
import tracemalloc
import warnings
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from scipy.integrate import quad

from pgrtb.auction import (
    BidModel,
    FittedCurve,
    RevenueCurves,
    _aggregate_payment_points,
    estimate_max_value,
    fit_payment_curves,
    fit_polynomial,
    lowess,
)
from pgrtb import auction
from pgrtb.logs import BidLog, summarize_auctions
from pgrtb.simulate import generate_log

from oracles import (cdf, dense_lowess, max_value_by_take, mc_second_price, moments_at, pdf,
                     scalar_payment_moments)

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
        assert abs(moments_at(model, xi)[0] - uniform_mean(0.0, 1.0, xi)) < 1e-9


def test_uniform_closed_form_general_interval():
    model = BidModel.uniform(0.5, 2.0)
    assert moments_at(model, 4.0)[0] == pytest.approx(1.4, abs=1e-9)
    for xi in (2.0, 3.5, 7.0, 25.0):
        assert moments_at(model, xi)[0] == pytest.approx(uniform_mean(0.5, 2.0, xi), abs=1e-9)
        assert moments_at(model, xi)[1] == pytest.approx(uniform_std(0.5, 2.0, xi), abs=1e-9)
    # deep in the boundary layer near the top of the support the payment
    # spread is tiny next to its mean, so it is checked relative to itself
    for lo, hi in ((0.0, 1.0), (0.5, 2.0)):
        model = BidModel.uniform(lo, hi)
        for xi in (1000.0, 3000.0, 6400.0, 1e5):
            assert abs(moments_at(model, xi)[0] - uniform_mean(lo, hi, xi)) < 1e-11
            if xi <= 6400.0:
                assert moments_at(model, xi)[1] == pytest.approx(
                    uniform_std(lo, hi, xi), rel=1e-6)


def test_uniform_closed_form_std_frozen():
    model = BidModel.uniform(0.0, 1.0)
    assert moments_at(model, 2.0)[1] == pytest.approx(0.23570226039551584, abs=1e-9)
    assert moments_at(model, 3.0)[1] == pytest.approx(0.22360679774997896, abs=1e-9)


def test_fractional_xi_monotone():
    """More competition pushes the expected payment up toward the support top."""
    model = BidModel.uniform(0.0, 1.0)
    values = [moments_at(model, xi)[0] for xi in (2.0, 2.5, 3.25, 6.0, 40.0, 400.0)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] < 1.0
    assert moments_at(model, math.inf)[0] == 1.0
    assert moments_at(model, math.inf)[1] == 0.0


def test_below_two_bidders_pays_reserve():
    model = BidModel.uniform(0.0, 1.0)
    assert moments_at(model, 1.5, reserve=0.3)[0] == 0.3
    assert moments_at(model, 0.0)[0] == 0.0
    assert moments_at(model, 1.9)[1] == 0.0


def quad_reference(model, xi, top):
    """Mean of the second-highest order statistic, integrated in value space.

    Density of the second-highest of xi draws: xi (xi-1) F^(xi-2) (1-F) f.
    This is the untransformed integral the production code avoids, so it is
    an independent oracle.
    """

    def integrand(x):
        F = float(cdf(model, x))
        f = float(pdf(model, x))
        return x * xi * (xi - 1.0) * F ** (xi - 2.0) * (1.0 - F) * f

    lo = model.support()[0]
    val, err = quad(integrand, lo, top, limit=200)
    assert err < 1e-8
    return val


def test_quadrature_against_scipy_uniform():
    model = BidModel.uniform(0.2, 1.1)
    for xi in (2.0, 3.7, 9.0):
        assert moments_at(model, xi)[0] == pytest.approx(
            quad_reference(model, xi, 1.1), abs=1e-7)


def test_quadrature_against_scipy_lognormal():
    model = BidModel.lognormal(0.0, 0.5)
    for xi in (2.0, 2.7, 5.3):
        assert moments_at(model, xi)[0] == pytest.approx(
            quad_reference(model, xi, 60.0), abs=1e-6)


def test_ndtri_is_scipys_on_the_quadrature_nodes(monkeypatch):
    """The lognormal quantiles read the in-repo Cephes ndtri: on every node
    of the quadrature its floats are scipy's, so lognormal plans are too."""
    from scipy.special import ndtri
    seen, ours = [], auction._ndtri
    monkeypatch.setattr(auction, "_ndtri", lambda u: seen.append(u) or ours(u))
    auction._quadrature_nodes(BidModel.lognormal(-0.5, 0.5))
    (u,) = seen
    assert u.size == 1200
    assert ours(u).tobytes() == ndtri(u).tobytes()


def test_ndtri_against_scipy_and_at_the_edges():
    from scipy.special import ndtri
    rng = np.random.default_rng(12)
    u = np.concatenate([rng.random(60_000), 10.0 ** -rng.uniform(0.0, 300.0, 20_000),
                        1.0 - 10.0 ** -rng.uniform(1.0, 16.0, 20_000)])
    got, want = auction._ndtri(u), ndtri(u)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-15
    edges = auction._ndtri([0.0, 1.0, -1e-300, 1.0 + 1e-15, math.nan, 0.5])
    assert edges[0] == -math.inf and edges[1] == math.inf
    assert np.isnan(edges[2:5]).all() and edges[5] == 0.0


def test_mc_agrees_with_quadrature():
    # MC rounds xi up to a whole bidder count, so compare at an integer
    model = BidModel.lognormal(0.1, 0.4)
    mean, std, se = mc_second_price(4.0, model, 200_000, seed=11)
    assert abs(moments_at(model, 4.0)[0] - mean) < 5 * se
    # the std of the payment is also in the MC return
    assert abs(moments_at(model, 4.0)[1] - std) < 0.01


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
    """Arrays and one-level calls give the per-level reference bit for bit: the
    reserve below two bidders, the support top at infinite competition, the
    point of a point mass, else the quadrature run on that level alone."""
    xis = np.array([2.0, 2.5, 17.0, 33.3, 1.0, math.inf])
    batch_model = BidModel.lognormal(0.0, 0.5)
    means, stds = batch_model.payment_moments(xis, reserve=0.25)
    reference = BidModel.lognormal(0.0, 0.5)
    for i, xi in enumerate(xis):
        assert (means[i], stds[i]) == scalar_payment_moments(reference, xi, reserve=0.25)
    # within one instance the cache makes repeat lookups bit-identical
    assert moments_at(batch_model, 2.5, reserve=0.25)[0] == means[1]
    assert moments_at(batch_model, 33.3)[1] == stds[3]
    # a level's floats depend on xi alone: one-level batches on a fresh model
    # are the reference, and shuffled batches of random sizes on other fresh
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
        reference = make()
        ref = {float(xi): scalar_payment_moments(reference, xi) for xi in levels}
        scalar = make()
        for xi in rng.permutation(levels)[:30]:
            assert moments_at(scalar, float(xi)) == ref[float(xi)]
        for _ in range(6):
            model = make()
            order = rng.permutation(levels)
            cuts = np.sort(rng.choice(np.arange(1, order.size), 5, replace=False))
            for part in np.split(order, cuts):
                part_means, part_stds = model.payment_moments(part)
                for xi, mean, std in zip(part, part_means, part_stds):
                    assert (mean, std) == ref[float(xi)]
    # the cases hold in any shape, a 0-d input included, and for a point mass
    grid = np.array([[0.0, 1.0, 1.999, -math.inf], [2.0, 3.5, 41.0, math.inf]])
    for make in fresh + [lambda: BidModel.empirical([0.7, 0.7, 0.7])]:
        means, stds = make().payment_moments(grid, reserve=0.3)
        reference, scalar = make(), make()
        want = np.array([[scalar_payment_moments(reference, xi, reserve=0.3) for xi in row]
                         for row in grid])
        assert means.shape == stds.shape == grid.shape
        assert means.tobytes() == want[..., 0].tobytes()
        assert stds.tobytes() == want[..., 1].tobytes()
        for xi, mean, std in zip(grid.ravel(), want[..., 0].ravel(), want[..., 1].ravel()):
            assert moments_at(scalar, xi, reserve=0.3) == (mean, std)
        mean0, std0 = make().payment_moments(np.float64(3.5))
        assert (mean0.shape, float(mean0), float(std0)) == \
            ((), *scalar_payment_moments(make(), 3.5))


def test_means_priced_alone_match_a_fresh_model():
    """A level's mean and spread do not depend on the levels priced before
    or beside it: a subset priced first, then the rest split in any order,
    gives a fresh model's floats, and so do scalar calls after a batch:
    uniform, lognormal, empirical and point-mass laws."""
    levels = np.concatenate([np.linspace(2.0, 9.0, 29), [17.0, 40.0, 1e3]])
    fresh = [lambda: BidModel.uniform(0.1, 0.9),
             lambda: BidModel.lognormal(-0.5, 0.5),
             lambda: BidModel.empirical(np.random.default_rng(3).uniform(0.2, 1.4, 300)),
             lambda: BidModel.empirical([0.7] * 20)]
    rng = np.random.default_rng(29)

    def priced(model, part):
        return list(zip(*(m.tolist() for m in model.payment_moments(part))))

    for make in fresh:
        ref = dict(zip(levels.tolist(), priced(make(), levels)))
        for _ in range(4):
            model = make()
            order = rng.permutation(levels)
            alone = order[:int(rng.integers(1, order.size))]
            assert priced(model, alone) == [ref[xi] for xi in alone.tolist()]
            cuts = np.sort(rng.choice(np.arange(1, order.size), 3, replace=False))
            for part in np.split(rng.permutation(order), cuts):
                assert priced(model, part) == [ref[xi] for xi in part.tolist()]
            assert priced(model, levels) == [ref[xi] for xi in levels.tolist()]
        scalar = make()
        scalar.payment_moments(levels[::2])
        for xi in levels[::-1]:  # scalar calls, in another order
            assert moments_at(scalar, xi) == scalar_payment_moments(make(), xi)


def test_quadrature_nodes_built_once_per_model():
    """ppf runs on the rule's nodes once per model, however many batches and
    scalar misses follow, and the cached nodes give the same floats as a
    fresh model's first call."""
    fresh = [lambda: BidModel.uniform(0.1, 0.9),
             lambda: BidModel.lognormal(-0.5, 0.5),
             lambda: BidModel.empirical(np.random.default_rng(3).uniform(0.2, 1.4, 300))]
    for make in fresh:
        model = make()
        ppf, calls = model.ppf, []
        model.ppf = lambda u, ppf=ppf, calls=calls: (calls.append(1), ppf(u))[1]
        model.payment_moments(np.array([2.0, 3.5, 8.0]))
        model.payment_moments(np.linspace(2.0, 90.0, 37))
        model.payment_moments(np.array([2.0, 3.5]))
        moments_at(model, 11.25)
        moments_at(model, 400.0)
        assert len(calls) == 1
        for xi in (11.25, 400.0, 90.0):
            other = make()
            assert moments_at(other, xi) == moments_at(model, xi)


def test_payment_quadrature_warns_past_its_tolerance(monkeypatch):
    monkeypatch.setattr(auction, "_RTOL", 1e-20)
    with pytest.warns(RuntimeWarning, match="payment quadrature error .* exceeds"):
        BidModel.lognormal(0.0, 1.0).payment_moments(np.array([2.0, 40.0]))
    with pytest.warns(RuntimeWarning, match="payment quadrature error"):
        moments_at(BidModel.uniform(0.0, 1.0), 3.0)[0]


def test_payment_quadrature_silent_on_supported_laws():
    levels = np.concatenate([np.linspace(2.0, 40.0, 77), [100.0, 1000.0, 3000.0, 6400.0]])
    models = [BidModel.uniform(0.0, 1.0), BidModel.uniform(0.5, 2.0)]
    models += [BidModel.lognormal(mu, sigma)
               for mu in (-0.5, 0.0) for sigma in (0.25, 0.5, 1.0, 2.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for model in models:
            model.payment_moments(levels)


def test_quadrature_judges_a_spread_at_rounding_level_against_the_raw_moment():
    """uniform(1, 1 + 1e-15) pays 1 to rounding: the centred pass's error
    estimate (about 3.5e-32) is tiny against the raw second moment, though
    not against the central moment it integrates (about 9e-30)."""
    model = BidModel.uniform(1.0, 1.0 + 1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        means, stds = model.payment_moments([2.0, 5.0, 100.0])
    assert np.all(np.abs(means - 1.0) < 1e-14) and np.all(stds < 1e-12)


def test_a_spread_is_at_most_half_the_laws_width():
    """A payment inside [low, high] spreads by at most (high - low) / 2
    (Popoviciu). On uniform(1, 1 + 1e-15) rounding read spreads of 3.0e-15
    and 9.6e-13; the cache caps them there. On the reference law and a
    fitted one the cap is far from every level's spread, and a lognormal's
    infinite support caps nothing."""
    levels = np.concatenate([np.linspace(2.0, 50.0, 97), np.geomspace(50.0, 1e7, 40)])
    narrow = BidModel.uniform(1.0, 1.0 + 1e-15)
    half = (narrow.high - narrow.low) / 2
    assert narrow.payment_moments([2.0, 1e6])[1].tolist() == [half, half]
    fitted = BidModel.empirical(np.random.default_rng(5).uniform(0.0, 1.0, 2000))
    for model in (BidModel.uniform(0.0, 1.0), fitted):
        low, high = model.support()
        assert (model.payment_moments(levels)[1] < 0.75 * (high - low) / 2).all()
    assert np.isfinite(BidModel.lognormal(-0.5, 0.5).payment_moments(levels)[1]).all()


@pytest.mark.parametrize("make", [lambda: BidModel.lognormal(700.0, 1.0),
                                  lambda: BidModel.lognormal(354.0, 1.0),
                                  lambda: BidModel.uniform(0.0, 1e200),
                                  lambda: BidModel.empirical([1.0, 2e154])],
                         ids=["lognormal-700", "lognormal-354", "uniform", "empirical"])
def test_laws_whose_payments_overflow_are_refused(make):
    """A law whose quantile at the quadrature's top node has no finite square
    would integrate to overflow (lognormal(700, 1) solved to 1.6e306 with
    numpy warnings): it is refused when it is built."""
    with pytest.raises(ValueError, match="squares overflow"):
        make()


def test_near_the_overflow_limit_payments_stay_finite():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        means, stds = BidModel.lognormal(340.0, 1.0).payment_moments([2.0, 40.0, 1e4])
    assert np.all(np.isfinite(means) & np.isfinite(stds))


def test_empirical_model_keeps_its_histogram_not_its_sample():
    """An empirical model holds the sample's Freedman-Diaconis edges and
    counts; its dict carries them, builds the same law (the same CDF floats
    and draws), and a dict with the sample builds it too."""
    sample = np.random.default_rng(4).gamma(2.0, 0.3, size=3000)
    model = BidModel.empirical(sample)
    assert not hasattr(model, "sample")
    d = model.to_dict()
    assert set(d) == {"kind", "edges", "counts"} and sum(d["counts"]) == 3000
    for other in (BidModel.from_dict(json.loads(json.dumps(d))),
                  BidModel.from_dict({"kind": "empirical", "bids": sample.tolist()[::-1]})):
        assert other._cdf_at_edges.tobytes() == model._cdf_at_edges.tobytes()
        assert other._edges.tobytes() == model._edges.tobytes()
        draws = [m.sample_bids(np.random.default_rng(1), 50) for m in (model, other)]
        assert draws[0].tobytes() == draws[1].tobytes()
    point = BidModel.empirical([0.7] * 5)
    assert point.to_dict() == {"kind": "empirical", "edges": [0.7, 0.7], "counts": [5]}
    assert BidModel.from_dict(point.to_dict())._point == 0.7
    assert repr(model) == "BidModel.empirical(<3000 bids>)"


@pytest.mark.parametrize("edges, counts", [
    ([0.1, 0.5], [1, 2]), ([0.5, 0.1], [3]), ([-0.1, 0.5], [3]), ([0.1, math.inf], [3]),
    ([0.1, 0.5], [0]), ([0.1, 0.5], [-1]), ([0.1, 0.5], [1.5]), ([0.1], []), ([0.1, 0.5], [True])])
def test_empirical_histograms_are_checked(edges, counts):
    with pytest.raises(ValueError, match="empirical edges"):
        BidModel.from_dict({"kind": "empirical", "edges": edges, "counts": counts})


def test_empirical_model_smoothed_law():
    rng = np.random.default_rng(99)
    sample = rng.uniform(0.1, 2.0, size=2000)
    model = BidModel.empirical(sample)
    lo, hi = model.support()
    assert lo <= sample.min() and hi >= sample.max()
    u = np.linspace(0.01, 0.99, 41)
    # the smoothed CDF is continuous and strictly increasing where mass sits
    np.testing.assert_allclose(cdf(model, model.ppf(u)), u, atol=1e-9)
    xs = np.linspace(lo, hi, 101)
    assert np.all(np.diff(cdf(model, xs)) >= -1e-12)
    assert cdf(model, lo) == 0.0 and cdf(model, hi) == 1.0
    # quadrature moments on the smoothed law agree with MC on the same law
    mean, std, se = mc_second_price(4.0, model, 400_000, seed=5)
    assert abs(moments_at(model, 4.0)[0] - mean) < 4 * se


def test_empirical_point_mass():
    model = BidModel.empirical([0.7, 0.7, 0.7])
    assert moments_at(model, 5.0)[0] == 0.7
    assert moments_at(model, 5.0)[1] == 0.0
    assert moments_at(model, 1.0, reserve=0.2)[0] == 0.2
    rng = np.random.default_rng(0)
    assert np.all(model.sample_bids(rng, 10) == 0.7)
    # its quantile interpolates over zero-width bins, however many were stored
    stored = BidModel.from_dict({"kind": "empirical", "edges": [0.7] * 3, "counts": [0, 3]})
    for law in (model, stored):
        assert np.all(law.ppf(np.linspace(0.0, 1.0, 5)) == 0.7)
        assert law.sample_bids(rng, (4, 3)).tolist() == [[0.7] * 3] * 4


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
    # non-finite parameters and bids
    for low, high in ((0.0, math.inf), (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError):
            BidModel.uniform(low, high)
    for mu, sigma in ((math.inf, 0.5), (math.nan, 0.5), (0.0, math.inf), (0.0, math.nan)):
        with pytest.raises(ValueError):
            BidModel.lognormal(mu, sigma)
    for bids in ([0.5, math.nan], [math.nan], [0.5, math.inf]):
        with pytest.raises(ValueError):
            BidModel.empirical(bids)


def test_bid_model_serialization_round_trip():
    for model in (BidModel.uniform(0.1, 1.5),
                  BidModel.lognormal(-0.2, 0.6),
                  BidModel.empirical([0.3, 0.9, 0.9, 1.4])):
        clone = BidModel.from_dict(model.to_dict())
        assert clone.kind == model.kind
        assert moments_at(clone, 3.0)[0] == moments_at(model, 3.0)[0]
    with pytest.raises(ValueError):
        BidModel.from_dict({"kind": "cauchy"})


def test_uniform_law_is_its_one_bin_histogram():
    """A uniform law is the one-bin histogram on [low, high]: the two give
    the same quantile floats on every quadrature node, the same draws from
    one seed and the same payment moments, and those quantiles and draws
    are the closed form ``low + (high - low) u`` and ``rng.uniform``'s."""
    pairs = np.random.default_rng(32).uniform(0.0, 10.0, (40, 2))
    levels = [2.0, 2.5, 7.0, 1e4, math.inf]
    for low, high in [(0.0, 1.0), (0.1, 0.9), *np.sort(pairs, axis=1).tolist()]:
        uniform = BidModel.uniform(low, high)
        histogram = BidModel("empirical", edges=[low, high], counts=[1])
        assert uniform.support() == histogram.support() == (low, high)
        u = 0.5 * (auction._EDGES[:-1] + auction._EDGES[1:])
        u = u + 0.5 * np.diff(auction._EDGES) * auction._NODES[:, None]
        nodes = auction._quadrature_nodes(uniform)[0]
        assert nodes.tobytes() == auction._quadrature_nodes(histogram)[0].tobytes()
        assert nodes.tobytes() == (low + (high - low) * u).tobytes()
        draws = [m.sample_bids(np.random.default_rng(9), 64) for m in (uniform, histogram)]
        assert draws[0].tobytes() == draws[1].tobytes()
        assert draws[0].tobytes() == np.random.default_rng(9).uniform(low, high, 64).tobytes()
        for a, b in zip(uniform.payment_moments(levels), histogram.payment_moments(levels)):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("model", [BidModel.uniform(0.1, 1.5), BidModel.lognormal(-0.2, 0.6),
                                   BidModel.empirical([0.3, 0.9, 0.9, 1.4])],
                         ids=lambda m: m.kind)
def test_every_route_builds_the_constructors_law(model):
    """``from_dict`` of a model's dict and of a config section build through
    the constructor, for every kind: the same parameters, quantiles and
    moments. An empirical section may hold its sample as ``bids``; beside
    ``edges``, the edges win."""
    section = {"kind": model.kind, **{"uniform": {"low": 0.1, "high": 1.5},
                                       "lognormal": {"mu": -0.2, "sigma": 0.6},
                                       "empirical": {"bids": [0.3, 0.9, 0.9, 1.4]}}[model.kind]}
    u = np.linspace(0.0, 0.999, 41)
    for other in (BidModel.from_dict(json.loads(json.dumps(model.to_dict()))),
                  BidModel.from_dict(section)):
        assert repr(other) == repr(model) and other.to_dict() == model.to_dict()
        assert other.ppf(u).tobytes() == model.ppf(u).tobytes()
        assert moments_at(other, 3.0) == moments_at(model, 3.0)
    if model.kind == "empirical":
        histogram = {k: v for k, v in model.to_dict().items() if k != "kind"}
        for both in (BidModel.from_dict({**model.to_dict(), "bids": [5.0, 6.0]}),
                     BidModel("empirical", bids=[5.0, 6.0], **histogram)):
            assert both.to_dict() == model.to_dict()


@pytest.mark.parametrize("kind, params", [
    ("uniform", {"low": False, "high": True}), ("uniform", {"low": 0.0, "high": True}),
    ("lognormal", {"mu": 0.0, "sigma": True}), ("lognormal", {"mu": np.True_, "sigma": 1.0}),
    ("empirical", {"bids": [True, 0.5, 0.9]}), ("empirical", {"bids": np.array([True, False])}),
    ("empirical", {"edges": [False, True], "counts": [1]})])
def test_bid_laws_refuse_booleans(kind, params):
    """A boolean is not a number: uniform(False, True) once planned as
    uniform(0, 1)."""
    with pytest.raises(ValueError, match="must be a number, not a boolean"):
        BidModel(kind, **params)
    BidModel(kind, **{k: np.asarray(v, dtype=float).tolist() if k != "counts" else v
                      for k, v in params.items()})  # the same numbers build


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
    curve = lowess(np.column_stack([x, y]))
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
    curve = lowess(np.column_stack([x, y]))
    clean = 2.0 - 0.1 * x
    keep = np.ones(60, dtype=bool)
    keep[30] = False
    assert np.max(np.abs(curve(x[keep]) - clean[keep])) < 0.05


def test_lowess_validation():
    with pytest.raises(ValueError):
        lowess([(0.0, 1.0), (1.0, 2.0)])
    with pytest.raises(ValueError):
        lowess([(1.0, 1.0), (1.0, 2.0), (1.0, 3.0)])


def _lowess_points(n, outliers):
    """``n`` noisy points on a curve, with ties in x, and every seventh point
    thrown far off when ``outliers``."""
    rng = np.random.default_rng(n)
    x = np.round(rng.uniform(2.0, 9.0, n), 1)
    y = 0.5 * np.sqrt(x) + rng.normal(0.0, 0.02, n)
    if outliers:
        y[::7] += rng.choice([-3.0, 3.0], y[::7].size)
    return np.column_stack([x, y])


@pytest.mark.parametrize("outliers", [False, True])
@pytest.mark.parametrize("n", [3, 96, auction._LOWESS_ROWS - 1, auction._LOWESS_ROWS + 1, 600])
def test_lowess_in_blocks_matches_the_dense_fit_bit_for_bit(n, outliers):
    """Weighing a block of knots at a time sums each knot's terms over the
    same values as the n x n oracle, so the fit has the same bits, also with
    every point in each knot's neighbourhood."""
    for fraction in (0.3, 1.0):
        points = _lowess_points(n, outliers)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(auction, "_LOWESS_FRACTION", fraction)
            got, want = lowess(points), dense_lowess(points, fraction)
        assert got.knot_y.tobytes() == want.knot_y.tobytes()
        assert got.rmse == want.rmse or math.isnan(got.rmse) and math.isnan(want.rmse)


def test_lowess_scratch_grows_with_a_block_not_the_square():
    """At 600 knots an n x n float array is 2.7 MiB and the dense fit holds
    several; a block of knots' scratch stays far below one."""
    points = _lowess_points(600, True)
    lowess(points)
    tracemalloc.start()
    try:
        lowess(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"lowess at 600 knots peaked at {peak / 2**20:.2f} MiB"


def test_fit_polynomial_recovers_quadratic():
    x = np.linspace(1.0, 5.0, 25)
    y = 0.3 + 0.2 * x - 0.05 * x * x
    curve = fit_polynomial(np.column_stack([x, y]), degree=2)
    np.testing.assert_allclose(curve.coeffs, [0.3, 0.2, -0.05], atol=1e-10)
    assert curve.rmse < 1e-10
    # degree clamps to the data
    tiny = fit_polynomial([(0.0, 1.0), (1.0, 3.0)], degree=5)
    assert tiny.coeffs.size == 2


def _generated_points(k):
    """The mean and spread points of the k-th of a family of generated logs
    (uniform or lognormal bids, 24-120 hours, 3-24 hourly bidder counts)."""
    rng = np.random.default_rng(1000 + k)
    if k % 2:
        low = float(rng.uniform(0.0, 0.5))
        model = BidModel.uniform(low, low + float(rng.uniform(0.2, 2.0)))
    else:
        model = BidModel.lognormal(float(rng.uniform(-1.5, 0.5)), float(rng.uniform(0.2, 1.0)))
    log, _ = generate_log(model, hours=int(rng.integers(24, 121)),
                          auctions_per_hour=int(rng.integers(5, 61)),
                          bidders_per_hour=rng.integers(2, 13, int(rng.integers(3, 25))).tolist(),
                          seed=int(rng.integers(1 << 30)))
    xi, mean, spread = _aggregate_payment_points(summarize_auctions(log))
    return np.column_stack([xi, mean]), np.column_stack([xi, spread])


@pytest.mark.parametrize("fit", [lowess, fit_polynomial], ids=lambda f: f.__name__)
def test_fit_floats_do_not_depend_on_the_heap(fit):
    """Fits of one input, between allocations of varying sizes that move
    where the fit's own arrays land, give one set of curve and rmse bits."""
    points = _generated_points(6)[1]
    held, bits = [], set()
    for i in range(300):
        held.append(np.ones(1 + (i * 7919) % 4099))
        del held[:-40]
        bits.add(repr(fit(points).to_dict()))  # float repr round-trips exactly
    assert len(bits) == 1


def test_fitted_curve_serialization():
    x = np.linspace(2.0, 8.0, 12)
    y = np.sqrt(x)
    for curve in (lowess(np.column_stack([x, y])), fit_polynomial(np.column_stack([x, y]))):
        clone = FittedCurve.from_dict(curve.to_dict())
        probe = np.linspace(1.0, 9.0, 17)
        np.testing.assert_allclose(clone(probe), curve(probe), rtol=0, atol=0)
    with pytest.raises(ValueError, match="unknown curve method: 'spline'"):
        FittedCurve(method="spline", x_range=(0.0, 1.0))


@pytest.mark.parametrize("curve, message", [
    ({"method": "sigmoid", "coeffs": [1.2, 1.7, 0.6, 4.5]}, "unknown curve method: 'sigmoid'"),
    ({"method": "spline", "knot_x": [2.0, 5.0], "knot_y": [0.1, 0.2]}, "unknown curve method"),
    ({"method": "lowess", "knot_x": [2.0, 5.0]}, "lowess curve needs knot_x/knot_y"),
    ({"method": "lowess", "knot_x": [2.0, 5.0], "knot_y": [0.1]}, "of one non-zero length"),
    ({"method": "lowess", "knot_x": [], "knot_y": []}, "of one non-zero length"),
    ({"method": "polynomial", "knot_x": [2.0], "knot_y": [0.1]}, "polynomial curve needs coeffs"),
    ({"method": "polynomial", "coeffs": 0.3}, "polynomial curve needs coeffs"),
], ids=["sigmoid", "spline", "lowess-no-knot_y", "lowess-unequal", "lowess-empty",
        "polynomial-no-coeffs", "polynomial-scalar"])
def test_a_curve_loads_only_with_its_method_and_arrays(curve, message):
    """A curve is lowess or polynomial, each with its non-empty arrays; a
    sigmoid of earlier versions' files is refused when it loads."""
    with pytest.raises(ValueError, match=message):
        FittedCurve.from_dict({"x_range": [2.0, 5.0], "rmse": 0.1, **curve})


def _log_for(payments_by_hour, bids_per_auction=3, auctions=8):
    """Craft a bid log whose hourly second prices are exactly controlled."""
    rows = []
    base = datetime(2024, 3, 1, tzinfo=UTC)
    for h, second in enumerate(payments_by_hour):
        for a in range(auctions):
            aid = f"a-{h}-{a}"
            ts = base + timedelta(hours=h, minutes=a)
            bids = [second + 1.0, second] + [second / 2.0] * (bids_per_auction - 2)
            for b in bids:
                rows.append(("s", aid, ts, b))
    return BidLog(*zip(*rows))


def test_aggregate_payment_points_hourly():
    summaries = summarize_auctions(_log_for([0.4, 0.6, 0.8]))
    xi, mean, std = _aggregate_payment_points(summaries)
    assert xi.shape == (3,)
    np.testing.assert_allclose(xi, 3.0)
    np.testing.assert_allclose(mean, [0.4, 0.6, 0.8], atol=1e-12)
    np.testing.assert_allclose(std, 0.0, atol=1e-12)


def test_aggregate_payment_points_by_count():
    # without timestamps auctions group by their exact bidder count
    rows = []
    for a in range(6):
        k = 2 + (a % 2)
        for b in range(k):
            rows.append(("s", f"a{a}", None, 0.1 * (b + 1)))
    summaries = summarize_auctions(BidLog(*zip(*rows)))
    xi, mean, std = _aggregate_payment_points(summaries)
    np.testing.assert_array_equal(xi, [2.0, 3.0])
    np.testing.assert_allclose(mean, [0.1, 0.2], atol=1e-12)
    with pytest.raises(ValueError):
        _aggregate_payment_points(summarize_auctions(BidLog([], [], [], [])))


def test_fit_payment_curves_rejects_thin_auctions():
    """Only an auction with two bids has a payment to learn from, its second
    bid: the lone bids are left out, and a table without a pair is refused."""
    log = BidLog(["s"] * 4, ["pair", "solo", "pair", "late"], [None] * 4, [0.5, 0.4, 0.3, 0.2])
    table = summarize_auctions(log)
    pairs = np.flatnonzero(table.xi_observed >= 2)
    assert pairs.tolist() == [0] and table.bids[table.offsets[pairs] + 1].tolist() == [0.3]
    mean_curve, std_curve = fit_payment_curves(table)
    assert mean_curve(2.0) == pytest.approx(0.3, abs=1e-15) and std_curve(2.0) == 0.0
    for thin in (table.take([1, 2]), summarize_auctions(BidLog([], [], [], []))):
        with pytest.raises(ValueError, match="^no auction has two or more bids$"):
            fit_payment_curves(thin)


def _log_with_lone_bids(unstamped_bids):
    """240 auctions stamped over 24 hours with one to five bids each, a fifth of
    them lone, and one more auction, unstamped, of ``unstamped_bids`` bids."""
    rng = np.random.default_rng(41)
    base = datetime(2024, 3, 1, tzinfo=UTC)
    rows = []
    for a in range(240):
        stamp = base + timedelta(minutes=6 * a)
        rows += [("s", f"a{a}", stamp, bid)
                 for bid in np.round(rng.uniform(0.1, 1.0, 1 + a % 5), 4).tolist()]
    rows += [("s", "unstamped", None, 0.5 + 0.1 * j) for j in range(unstamped_bids)]
    return BidLog(*zip(*rows))


@pytest.mark.parametrize("unstamped_bids, buckets", [(1, 24), (2, 4)])
def test_fit_payment_curves_leaves_lone_bids_out(unstamped_bids, buckets):
    """A table with lone bids fits the same bits as its auctions with two bids
    alone, bucketed over those: an unstamped lone bid leaves the buckets
    hourly, an unstamped pair makes them bidder counts."""
    table = summarize_auctions(_log_with_lone_bids(unstamped_bids))
    pairs = table.take(table.xi_observed >= 2)
    assert len(pairs) < len(table)
    assert _aggregate_payment_points(table)[0].size == buckets
    for got, want in zip(fit_payment_curves(table), fit_payment_curves(pairs)):
        assert repr(got.to_dict()) == repr(want.to_dict())


def test_fit_payment_curves_on_planted_shape():
    """The winning candidate must sit close to a noiseless planted curve."""
    rng = np.random.default_rng(31)
    rows = []
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
                rows.append(("s", aid, ts, max(b, 0.0)))
    mean_curve, std_curve = fit_payment_curves(summarize_auctions(BidLog(*zip(*rows))))
    for k in range(2, 7):
        assert mean_curve(float(k)) == pytest.approx(0.2 + 0.08 * k, abs=0.01)
    assert std_curve(4.0) < 0.01


def test_estimate_max_value():
    # peak hourly mean of all bids: hour with second=1.0 has bids 2.0/1.0/0.5
    est = estimate_max_value(summarize_auctions(_log_for([0.4, 1.0, 0.6])))
    assert est == pytest.approx((2.0 + 1.0 + 0.5) / 3.0, abs=1e-12)
    flat = BidLog(["s", "s"], ["a1", "a1"], [None, None], [0.3, 0.9])
    assert estimate_max_value(summarize_auctions(flat)) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        estimate_max_value(summarize_auctions(BidLog([], [], [], [])))


def test_estimate_max_value_merges_unstamped_rows():
    ts = datetime(2024, 3, 1, tzinfo=UTC)
    log = BidLog(["s"] * 4, ["a1", "a1", "a2", "a2"], [ts, ts, None, None],
                 [2.0, 1.0, 0.1, 0.1])
    # a mixed log cannot be bucketed by hour, so everything pools
    assert estimate_max_value(summarize_auctions(log)) == pytest.approx(0.8)
    # the pool sums hour by hour in first-seen order, not auction by auction:
    # 1 + 1 + 2**53 is exact, 1 + 2**53 + 1 rounds down twice
    log = BidLog(["s"] * 3, ["x", "y", "z"], [ts, None, ts], [1.0, 2.0**53, 1.0])
    assert estimate_max_value(summarize_auctions(log)) == (2.0 + 2.0**53) / 3


def _hourly_table(seed, n_auctions=400, unstamped=0.0):
    """A seeded table of 1-7-bid auctions over a few hours at two clock
    offsets, bids spread over many magnitudes so that the order a mean sums
    them in shows in its last bits; a share of auctions carry no stamp."""
    rng = np.random.default_rng(seed)
    rows = []
    for a in range(n_auctions):
        zone = timezone(timedelta(hours=int(rng.integers(0, 2))))
        ts = datetime(2024, 3, 1, tzinfo=UTC) + timedelta(minutes=int(rng.integers(0, 300)))
        ts = None if rng.random() < unstamped else ts.astimezone(zone)
        bids = np.exp(rng.normal(0.0, 4.0, size=int(rng.integers(1, 8))))
        rows += [("s", f"a{a}", ts, float(b)) for b in bids]
    return summarize_auctions(BidLog(*zip(*rows)))


@pytest.mark.parametrize("unstamped", [0.0, 0.2])
@pytest.mark.parametrize("seed", range(4))
def test_estimate_max_value_matches_take_bit_for_bit(monkeypatch, seed, unstamped):
    """In table order and shuffled (hours interleaved), with and without
    unstamped auctions, the ceiling is the take-based reference's float, and
    no auction table is copied to get it."""
    table = _hourly_table(seed, unstamped=unstamped)
    shuffled = table.take(np.random.default_rng(seed).permutation(len(table)))
    want = [max_value_by_take(t) for t in (table, shuffled)]
    monkeypatch.setattr(type(table), "take", None)
    got = [estimate_max_value(t) for t in (table, shuffled)]
    assert [g.hex() for g in got] == [w.hex() for w in want]


def test_revenue_curves_surface():
    x = np.linspace(2.0, 9.0, 15)
    curves = RevenueCurves(
        mean_curve=fit_polynomial(np.column_stack([x, 0.1 + 0.05 * x]), degree=1),
        std_curve=fit_polynomial(np.column_stack([x, 0.02 * np.ones_like(x)]), degree=0),
    )
    assert moments_at(curves, 1.2, reserve=0.33) == (0.33, 0.0)
    assert moments_at(curves, 4.0)[0] == pytest.approx(0.3, abs=1e-10)
    means, stds = curves.payment_moments(np.array([1.0, 4.0, 20.0]), reserve=0.33)
    assert means[0] == 0.33
    assert means[1] == moments_at(curves, 4.0)[0]
    # clamped beyond the training range
    assert means[2] == moments_at(curves, 9.0)[0]
    # an array of levels agrees with one level at a time bit for bit, for each method
    pts_x = np.linspace(2.0, 12.0, 30)
    pts = np.column_stack([pts_x, 0.2 + 0.6 / (1.0 + np.exp(-(pts_x - 6.0)))])
    spread = np.column_stack([pts_x, 0.05 + 0.01 * np.sin(pts_x)])
    xis = np.concatenate([np.linspace(0.5, 15.0, 59), [1.999, 2.0, math.inf]])
    for fitted in (RevenueCurves(lowess(pts), lowess(spread)),
                   RevenueCurves(fit_polynomial(pts), fit_polynomial(spread))):
        means, stds = fitted.payment_moments(xis, reserve=0.33)
        assert means.tolist() == [moments_at(fitted, float(x), reserve=0.33)[0] for x in xis]
        assert stds.tolist() == [moments_at(fitted, float(x))[1] for x in xis]
    clone = RevenueCurves.from_dict(curves.to_dict())
    assert moments_at(clone, 5.5)[0] == moments_at(curves, 5.5)[0]


@pytest.mark.parametrize("xi", [1e5, 1e6])
@pytest.mark.parametrize("low, high", [(0.0, 1.0), (0.5, 2.0)])
def test_payment_std_keeps_its_digits_at_large_xi(low, high, xi):
    """Where m2 - m1^2 cancels, the spread comes from a second pass centred
    on the mean: it matches the Beta(xi - 1, 2) closed form for uniform bids
    without a warning (the one-pass spread was 28% off at 1e6)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean, std = BidModel.uniform(low, high).payment_moments(np.array([xi]))
    var = 2.0 * (xi - 1.0) / ((xi + 1.0) ** 2 * (xi + 2.0)) * (high - low) ** 2
    assert float(std[0]) == pytest.approx(math.sqrt(var), rel=1e-9)
    assert float(mean[0]) == pytest.approx(low + (high - low) * (xi - 1.0) / (xi + 1.0), rel=1e-12)
