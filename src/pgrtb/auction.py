"""Second-price auction payments and their estimation from logs.

The delivery-day channel sells each impression by second-price auction. With
``xi`` bidders drawing values i.i.d. from a bid distribution, the seller's
payment is the second-highest draw. This module provides

* bid distributions (uniform, lognormal, histogram-smoothed empirical),
* the mean and spread of the second-highest of ``xi`` draws, by one fixed
  quadrature rule (``xi`` may be any real >= 2, matching average bidder
  counts),
* a Monte Carlo estimator of the same quantities, used as an oracle,
* lowess / polynomial / sigmoid curve fitting of payment-vs-competition
  points aggregated from auction logs, and the ceiling estimate for posted
  prices.

The quadrature works in quantile space. Substituting u = F(x) into the
density of the second-highest order statistic turns the payment mean into
``integral_0^1 ppf(u) * xi*(xi-1) * (1-u) * u^(xi-2) du``, which is smooth,
bounded to [0, 1], and equally valid for fractional ``xi`` and for piecewise
linear empirical quantile functions. For large ``xi`` the mass concentrates
in a layer of width ~1/xi near u = 1, so a composite Gauss-Kronrod rule
whose panels halve towards both ends of [0, 1] resolves it at every level.
The panels depend on the bid model alone, so each level's floats depend on
``xi`` alone, whatever other levels are computed with it.

A guaranteed price is capped by ``min(mean + r * spread, cap)`` with
``r >= 0``, so a level whose mean reaches the cap never needs its spread:
``payment_moments(..., cap=...)`` reports spread 0 there and the quadrature
skips the second moment for chunks of such levels.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import OptimizeWarning, curve_fit
from scipy.special import ndtri

__all__ = [
    "BidModel",
    "FittedCurve",
    "RevenueCurves",
    "mc_second_price",
    "lowess",
    "fit_polynomial",
    "fit_sigmoid",
    "fit_payment_curves",
    "estimate_max_value",
    "reference_bid_model",
]

# 15-point Kronrod rule with its embedded 7-point Gauss rule, on [-1, 1].
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_NODES = np.concatenate([-_XGK[:7], [0.0], _XGK[:7][::-1]])
_KRONROD_W = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[:7][::-1]])
# The 7-point Gauss weights on the odd (embedded) nodes, zero elsewhere.
_GAUSS_W = np.zeros(15)
_GAUSS_W[1::2] = [_WG[0], _WG[1], _WG[2], _WG[3], _WG[2], _WG[1], _WG[0]]


# Panel edges shared by every level: dyadic towards both ends of [0, 1], so
# panels shrink geometrically into the boundary layer of width ~1/xi near
# u = 1 and onto the u^(xi-2) kink at u = 0 whatever the level.
_DYADIC = 0.5 ** np.arange(1, 41)
_EDGES = np.unique(np.concatenate([[0.0, 1.0], _DYADIC, 1.0 - _DYADIC]))
# Levels integrated per vectorized pass; small, so the two work arrays
# stay small.
_CHUNK = 12
# A level warns when a moment's K15 - G7 error estimate exceeds this share of it.
_RTOL = 1e-8


def _quadrature_nodes(model):
    """``(ppf(u), 1 - u, log u, K15 weights, K15 - G7 weights)`` on the
    model's panels, built on first use. In the (node, panel) layout a panel's
    15 nodes sum along a leading axis, faster than many 15-long reductions.
    """
    if model._nodes is None:
        edges = np.unique(np.concatenate([_EDGES, model._quantile_knots()]))
        half = 0.5 * np.diff(edges)
        u = 0.5 * (edges[:-1] + edges[1:]) + half * _NODES[:, None]
        kronrod_w = half * _KRONROD_W[:, None]
        model._nodes = (model.ppf(u), 1.0 - u, np.log(u), kronrod_w,
                        kronrod_w - half * _GAUSS_W[:, None])
    return model._nodes


def _moment(f, products, kronrod_w, error_w):
    """One moment per level from its integrand ``f`` (level, node, panel):
    each panel's K15 products summed in node order, then the panels, and the
    summed K15 - G7 error estimate, which only gates the warning.
    ``products`` is work space shaped like ``f``."""
    np.multiply(f, kronrod_w, out=products)
    return (products.sum(axis=1).sum(axis=-1),
            np.abs(np.einsum("lnp,np->lp", f, error_w)).sum(axis=-1))


def _payment_points_batch(model, xis, cap=math.inf):
    """Fill the model's moment caches for every new finite level ``xi >= 2``:
    the mean and spread of the second-highest of ``xi`` i.i.d. draws from
    ``model``, or the mean alone for levels whose mean reaches ``cap``.

    One fixed composite GK15 rule on panels that depend on the model alone
    (the dyadic edges plus the quantile knots): ``ppf`` is evaluated on its
    nodes once per model, and each level only reweights those values. A
    chunk of levels takes the second moment only when some mean in it is
    below ``cap`` (or is nan); otherwise its means go to ``_mean_cache``
    and a later call that needs their spread recomputes them. Every level is
    reduced on its own, node products summed in node order and then over
    panels, so its floats depend on ``xi`` alone, not on which other levels
    share the call. A level whose K15 - G7 error estimate exceeds ``_RTOL``
    of a moment it computed emits a RuntimeWarning.
    """
    full, mean_only = model._moment_cache, model._mean_cache
    todo = np.array(sorted({xi for xi in map(float, xis)
                            if math.isfinite(xi) and xi >= 2.0 and xi not in full
                            and not mean_only.get(xi, -math.inf) >= cap}))
    if not todo.size:
        return
    x, one_minus_u, log_u, kronrod_w, error_w = _quadrature_nodes(model)
    work = np.empty((2, min(_CHUNK, todo.size)) + x.shape)
    power, scale = todo - 2.0, todo * (todo - 1.0)
    moments, errors = np.full((2, todo.size), np.nan), np.zeros((2, todo.size))
    spread = np.zeros(todo.size, dtype=bool)
    for lo in range(0, todo.size, _CHUNK):
        part = slice(lo, lo + _CHUNK)
        f, products = work[:, :todo[part].size]
        # the order-statistic density in u, xi (xi-1) (1-u) u^(xi-2), built
        # in place; multiplying by x once and then again gives the integrands
        # of the first and second moments
        np.multiply(power[part, None, None], log_u, out=f)
        np.exp(f, out=f)
        f *= scale[part, None, None]
        f *= one_minus_u
        f *= x
        moments[0, part], errors[0, part] = _moment(f, products, kronrod_w, error_w)
        if not (moments[0, part] >= cap).all():
            f *= x
            moments[1, part], errors[1, part] = _moment(f, products, kronrod_w, error_w)
            spread[part] = True
    m1, m2 = moments[:, spread]
    full.update(zip(todo[spread].tolist(), zip(
        m1.tolist(), np.sqrt(np.maximum(m2 - m1 * m1, 0.0)).tolist())))
    mean_only.update(zip(todo[~spread].tolist(), moments[0, ~spread].tolist()))
    bad = errors > _RTOL * np.abs(moments)  # nan, and so False, for skipped spreads
    if bad.any():
        i = int(bad.any(axis=0).argmax())
        k = int(bad[:, i].argmax())
        warnings.warn(
            "payment quadrature error %.3g on a moment of %.6g at xi=%.6g "
            "exceeds the relative tolerance %.3g" % (errors[k, i], moments[k, i], todo[i], _RTOL),
            RuntimeWarning, stacklevel=3)


class BidModel:
    """A bid distribution and the moments of its second-highest order statistic.

    Construct via :meth:`uniform`, :meth:`lognormal`, or :meth:`empirical`.
    The empirical flavor smooths a sample with a Freedman-Diaconis histogram;
    its quantile function and sampler describe that smoothed law (a
    zero-spread sample degenerates to an explicit point mass). Parameters
    and bids must be finite.
    """

    def __init__(self, kind, **params):
        self.kind = kind
        self._moment_cache = {}  # xi -> (mean, std)
        self._mean_cache = {}  # xi -> mean, for levels computed without their spread
        self._nodes = None
        if kind == "uniform":
            low, high = float(params["low"]), float(params["high"])
            if not 0.0 <= low < high < math.inf:
                raise ValueError("uniform bids need finite 0 <= low < high")
            self.low, self.high = low, high
        elif kind == "lognormal":
            mu, sigma = float(params["mu"]), float(params["sigma"])
            if not (math.isfinite(mu) and 0.0 < sigma < math.inf):
                raise ValueError("lognormal mu must be finite and sigma positive and finite")
            self.mu, self.sigma = mu, sigma
        elif kind == "empirical":
            sample = np.sort(np.asarray(params["bids"], dtype=float))
            if sample.size == 0:
                raise ValueError("empirical bid model needs at least one bid")
            if not np.all((sample >= 0) & (sample < math.inf)):
                raise ValueError("bids must be finite and non-negative")
            self.sample = sample
            if sample[0] == sample[-1]:
                self._point = float(sample[0])
                self._edges = np.array([self._point, self._point])
                self._cdf_at_edges = np.array([0.0, 1.0])
            else:
                self._point = None
                edges = np.histogram_bin_edges(sample, bins="fd")
                counts, edges = np.histogram(sample, bins=edges)
                self._edges = edges
                self._cdf_at_edges = np.concatenate(
                    [[0.0], np.cumsum(counts)]) / sample.size
        else:
            raise ValueError(f"unknown bid model kind: {kind!r}")

    # -- constructors -----------------------------------------------------

    @classmethod
    def uniform(cls, low, high):
        return cls("uniform", low=low, high=high)

    @classmethod
    def lognormal(cls, mu, sigma):
        return cls("lognormal", mu=mu, sigma=sigma)

    @classmethod
    def empirical(cls, bids):
        return cls("empirical", bids=bids)

    # -- distribution surface ---------------------------------------------

    def support(self):
        if self.kind == "uniform":
            return (self.low, self.high)
        if self.kind == "lognormal":
            return (0.0, math.inf)
        return (float(self._edges[0]), float(self._edges[-1]))

    def ppf(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "uniform":
            return self.low + (self.high - self.low) * u
        if self.kind == "lognormal":
            with np.errstate(divide="ignore"):
                return np.exp(self.mu + self.sigma * ndtri(u))
        if self._point is not None:
            return np.full_like(u, self._point)
        return np.interp(u, self._cdf_at_edges, self._edges)

    def sample_bids(self, rng, size):
        if self.kind == "uniform":
            return rng.uniform(self.low, self.high, size)
        if self.kind == "lognormal":
            return rng.lognormal(self.mu, self.sigma, size)
        if self._point is not None:
            return np.full(size, self._point)
        return self.ppf(rng.random(size))

    def _quantile_knots(self):
        """Interior CDF levels where the quantile function has kinks."""
        if self.kind == "empirical" and self._point is None:
            return [float(v) for v in self._cdf_at_edges[1:-1]]
        return []

    # -- payment moments ---------------------------------------------------

    def payment_mean(self, xi, reserve=0.0):
        return float(self.payment_moments(xi, reserve)[0])

    def payment_std(self, xi):
        return float(self.payment_moments(xi)[1])

    def payment_moments(self, xis, reserve=0.0, cap=math.inf):
        """Mean and spread of the second-price payment at each level of ``xis``.

        Below two bidders the payment is the reserve, at infinite competition
        the support's top, and a point mass pays its point (spread 0 in all
        three). Other levels come from the moment caches, which the fixed
        quadrature fills once per new level; the rule reduces every level on
        its own, so a level's floats are the same in any call that has it.

        ``cap`` is the ceiling of a bound ``min(mean + r * spread, cap)`` with
        ``r >= 0``: a level whose mean reaches it reports spread 0, which
        leaves that bound at ``cap``, and the quadrature skips the second
        moment where no level needs it. Spreads below the cap, and every
        spread at the default ``cap=inf``, are the uncapped floats.
        """
        xis = np.asarray(xis, dtype=float)
        means, stds = np.full(xis.shape, float(reserve)), np.zeros(xis.shape)
        means[xis == math.inf] = self.support()[1]
        inner = ~((xis < 2.0) | (xis == math.inf))
        if self.kind == "empirical" and self._point is not None:
            means[inner] = self._point
        elif inner.any():
            levels = xis[inner].tolist()
            _payment_points_batch(self, levels, cap)
            full, mean_only = self._moment_cache, self._mean_cache
            means[inner], stds[inner] = np.array(
                [full.get(x) or (mean_only[x], 0.0) for x in levels]).T
        stds[means >= cap] = 0.0
        return means, stds

    # -- serialization ------------------------------------------------------

    def to_dict(self):
        if self.kind == "uniform":
            return {"kind": "uniform", "low": self.low, "high": self.high}
        if self.kind == "lognormal":
            return {"kind": "lognormal", "mu": self.mu, "sigma": self.sigma}
        return {"kind": "empirical", "bids": [float(b) for b in self.sample]}

    @classmethod
    def from_dict(cls, d):
        kind = d.get("kind")
        if kind == "uniform":
            return cls.uniform(d["low"], d["high"])
        if kind == "lognormal":
            return cls.lognormal(d["mu"], d["sigma"])
        if kind == "empirical":
            return cls.empirical(d["bids"])
        raise ValueError(f"unknown bid model kind: {kind!r}")

    def __repr__(self):
        if self.kind == "uniform":
            return f"BidModel.uniform({self.low}, {self.high})"
        if self.kind == "lognormal":
            return f"BidModel.lognormal({self.mu}, {self.sigma})"
        return f"BidModel.empirical(<{self.sample.size} bids>)"


def mc_second_price(xi, bid_model, trials, seed):
    """Monte Carlo estimate of the second-price payment moments.

    Simulates ``trials`` auctions of ``ceil(xi)`` i.i.d. bids each and
    returns ``(mean, std, std_error)`` of the second-highest bid, where
    ``std_error`` is the standard error of the mean. Deterministic per seed.
    """
    if xi < 2:
        raise ValueError("need at least two bidders for a second price")
    if not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ValueError("trials must be a positive integer")
    m = int(math.ceil(xi))
    rng = np.random.default_rng(seed)
    chunk = max(1, int(5_000_000 // m))
    payments = np.empty(trials)
    done = 0
    while done < trials:
        k = min(chunk, trials - done)
        draws = bid_model.sample_bids(rng, (k, m))
        payments[done:done + k] = np.partition(draws, m - 2, axis=1)[:, m - 2]
        done += k
    mean = float(payments.mean())
    std = float(payments.std(ddof=0))
    return mean, std, std / math.sqrt(trials)


# ---------------------------------------------------------------------------
# Curve fitting of payment-vs-competition points
# ---------------------------------------------------------------------------


_CURVE_ARRAYS = ("knot_x", "knot_y", "coeffs")


@dataclass
class FittedCurve:
    """One fitted payment curve, evaluable at any competition level.

    ``method`` is one of ``lowess`` (piecewise-linear interpolation through
    smoothed knots), ``polynomial`` (ascending coefficients), or ``sigmoid``
    (``base + span / (1 + exp(-rate * (x - mid)))``). Evaluation clamps the
    input to the training range, so extrapolation holds the boundary value.
    """

    method: str
    x_range: tuple
    knot_x: np.ndarray | None = None
    knot_y: np.ndarray | None = None
    coeffs: np.ndarray | None = None
    rmse: float = math.nan

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        xv = np.clip(arr, self.x_range[0], self.x_range[1])
        if self.method == "lowess":
            out = np.interp(xv, self.knot_x, self.knot_y)
        elif self.method == "polynomial":
            out = np.polynomial.polynomial.polyval(xv, self.coeffs)
        elif self.method == "sigmoid":
            base, span, rate, mid = self.coeffs
            out = base + span / (1.0 + np.exp(-rate * (xv - mid)))
        else:
            raise ValueError(f"unknown curve method: {self.method!r}")
        return float(out) if scalar else out

    def to_dict(self):
        d = {"method": self.method,
             "x_range": [float(self.x_range[0]), float(self.x_range[1])],
             "rmse": float(self.rmse)}
        for key in _CURVE_ARRAYS:
            if getattr(self, key) is not None:
                d[key] = [float(v) for v in getattr(self, key)]
        return d

    @classmethod
    def from_dict(cls, d):
        arrays = {key: np.asarray(d[key], dtype=float) for key in _CURVE_ARRAYS if key in d}
        return cls(method=d["method"], x_range=(d["x_range"][0], d["x_range"][1]),
                   rmse=d.get("rmse", math.nan), **arrays)


def _as_xy(points):
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an iterable of (x, y) pairs")
    order = np.argsort(pts[:, 0], kind="stable")
    return pts[order, 0], pts[order, 1]


def lowess(points, fraction=0.3, iterations=3):
    """Locally weighted robust scatterplot smoothing.

    Classic tricube-weighted local linear regression: at each knot the
    nearest ``ceil(fraction * n)`` points get tricube weights and a weighted
    line (centered at the knot for conditioning) supplies the smoothed value.
    ``iterations`` extra passes reweight by bisquare weights of the residuals,
    which shrugs off isolated outliers.

    Returns a :class:`FittedCurve` whose knots are the training abscissae;
    between knots it interpolates linearly, outside it clamps.
    """
    x, y = _as_xy(points)
    n = x.size
    if n < 3:
        raise ValueError("lowess needs at least three points")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    if x[0] == x[-1]:
        raise ValueError("points need spread in x")

    r = min(max(int(math.ceil(fraction * n)), 2), n - 1)
    dx = x[None, :] - x[:, None]  # row i holds x - x[i]
    dist = np.abs(dx)
    h = np.sort(dist, axis=1)[:, r]
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(h[:, None] > 0, dist / h[:, None], np.where(dist > 0, 2.0, 0.0))
    w = (1.0 - np.clip(scaled, 0.0, 1.0) ** 3) ** 3
    del dist, scaled

    delta = np.ones(n)
    for _ in range(iterations + 1):
        # every knot at once: row i of each product is knot i's weighted
        # terms, and each row sum is the same contiguous sum a loop would take
        wi = w * delta
        sw = wi.sum(axis=1)
        wdx = wi * dx
        swx = wdx.sum(axis=1)
        swy = np.multiply(wi, y, out=wi).sum(axis=1)
        swxy = np.multiply(wdx, y, out=wi).sum(axis=1)
        swxx = np.multiply(wdx, dx, out=wdx).sum(axis=1)
        denom = sw * swxx - swx * swx
        with np.errstate(divide="ignore", invalid="ignore"):
            yest = np.where(sw <= 0.0, y, np.where(
                denom <= 1e-13 * np.maximum(np.abs(sw * swxx), 1e-30),
                swy / sw, (swxx * swy - swx * swxy) / denom))
        res = y - yest
        s = float(np.median(np.abs(res)))
        if s <= 0.0:
            break
        delta = np.clip(res / (6.0 * s), -1.0, 1.0)
        delta = (1.0 - delta * delta) ** 2
    rmse = float(np.sqrt(np.mean((yest - y) ** 2)))
    return FittedCurve(method="lowess", x_range=(float(x[0]), float(x[-1])),
                       knot_x=x, knot_y=yest, rmse=rmse)


def fit_polynomial(points, degree=2):
    """Least-squares polynomial of (at most) the given degree."""
    x, y = _as_xy(points)
    deg = int(min(degree, max(x.size - 1, 0)))
    if np.unique(x).size == 1:
        deg = 0
    coeffs = np.polynomial.polynomial.polyfit(x, y, deg)
    fitted = np.polynomial.polynomial.polyval(x, coeffs)
    rmse = float(np.sqrt(np.mean((fitted - y) ** 2)))
    return FittedCurve(method="polynomial", x_range=(float(x[0]), float(x[-1])),
                       coeffs=np.asarray(coeffs, dtype=float), rmse=rmse)


def _sigmoid(x, base, span, rate, mid):
    return base + span / (1.0 + np.exp(-rate * (x - mid)))


def fit_sigmoid(points):
    """Scaled sigmoid fit; a failed optimization is marked with infinite rmse."""
    x, y = _as_xy(points)
    if x.size < 4 or np.unique(x).size < 4:
        coeffs, rmse = [float(y.mean()), 0.0, 1.0, float(x.mean())], math.inf
    else:
        span0 = float(y.max() - y.min()) or 1.0
        p0 = [float(y.min()), span0, 4.0 / max(float(x[-1] - x[0]), 1e-9), float(np.median(x))]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", OptimizeWarning)
                with np.errstate(over="ignore"):
                    coeffs, _ = curve_fit(_sigmoid, x, y, p0=p0, maxfev=10000)
            rmse = float(np.sqrt(np.mean((_sigmoid(x, *coeffs) - y) ** 2)))
            if not math.isfinite(rmse):
                raise RuntimeError("diverged")
        except Exception:
            coeffs, rmse = p0, math.inf
    return FittedCurve(method="sigmoid", x_range=(float(x[0]), float(x[-1])),
                       coeffs=np.asarray(coeffs, dtype=float), rmse=rmse)


def _best_fit(x, y, *, lowess_fraction, lowess_iterations, poly_degree):
    points = np.column_stack([x, y])
    if x.size < 3 or np.unique(x).size < 2:
        # Too little structure for smoothing: a constant curve.
        return fit_polynomial(points, degree=0)
    candidates = [lowess(points, fraction=lowess_fraction, iterations=lowess_iterations),
                  fit_polynomial(points, degree=poly_degree),
                  fit_sigmoid(points)]
    return min(candidates, key=lambda c: (c.rmse if math.isfinite(c.rmse) else math.inf))


def _aggregate_payment_points(table, hourly=None):
    """Aggregate an auction table into (competition, payment mean, payment std) points.

    With timestamps the buckets are wall-clock hours (competition = the
    bucket's average observed bidder count); without, auctions group by their
    exact bidder count. Returns three aligned arrays sorted by competition.
    """
    if not len(table):
        raise ValueError("no auctions to aggregate")
    stamped = table.hour != table.UNSTAMPED
    if hourly is None:
        hourly = stamped.all()
    elif hourly and not stamped.all():
        raise ValueError("hourly buckets need a timestamp on every auction")
    _, inverse, counts = np.unique(table.hour if hourly else table.xi_observed,
                                   return_inverse=True, return_counts=True)
    # each bucket's auctions made contiguous, in order, so that each mean
    # sums the same values in the same order as over the bucket alone
    grouped = np.argsort(inverse, kind="stable")
    xi, pays = table.xi_observed[grouped], table.payment[grouped]
    bounds = np.cumsum(counts).tolist()
    xi_pts, mean_pts, std_pts = np.array([
        (np.mean(xi[lo:hi]), pays[lo:hi].mean(), pays[lo:hi].std(ddof=0))
        for lo, hi in zip([0] + bounds[:-1], bounds)]).T
    order = np.argsort(xi_pts, kind="stable")
    return xi_pts[order], mean_pts[order], std_pts[order]


def fit_payment_curves(table, *, lowess_fraction=0.3, lowess_iterations=3,
                       poly_degree=2, hourly=None):
    """Fit payment mean and spread as functions of the competition level.

    Aggregates the log into (xi, payment) points, fits lowess, polynomial and
    sigmoid candidates to each of the mean and the spread, and keeps the
    lowest-rmse candidate per curve. Auctions must have at least two bids
    (a lone bid has no second price to learn from).
    """
    if not len(table):
        raise ValueError("empty auction log")
    thin = np.flatnonzero(table.xi_observed < 2)
    if thin.size:
        raise ValueError(f"{thin.size} auctions have fewer than two bids "
                         f"(first: {table.auction_id[thin[0]]})")
    xi, pay_mean, pay_std = _aggregate_payment_points(table, hourly=hourly)
    kwargs = dict(lowess_fraction=lowess_fraction,
                  lowess_iterations=lowess_iterations, poly_degree=poly_degree)
    return _best_fit(xi, pay_mean, **kwargs), _best_fit(xi, pay_std, **kwargs)


def estimate_max_value(table):
    """Expected maximum impression value: the peak hourly average bid.

    Bids are bucketed by wall-clock hour; the estimate is the largest hourly
    mean. When some auctions have no timestamp, the buckets merge, in the
    order they were first seen, into one mean over every bid.
    """
    if not len(table):
        raise ValueError("empty auction log")
    hours, first, inverse, counts = np.unique(
        table.hour, return_index=True, return_inverse=True, return_counts=True)
    # the buckets in first-seen order, each bucket's bids contiguous and in order
    seen = np.argsort(first)
    picked = table.take(np.argsort(first[inverse], kind="stable"))
    if hours[-1] == table.UNSTAMPED:
        return float(np.mean(picked.bids))
    bounds = picked.offsets[np.cumsum(counts[seen])].tolist()
    return max(float(picked.bids[lo:hi].mean()) for lo, hi in zip([0] + bounds[:-1], bounds))


@dataclass
class RevenueCurves:
    """Fitted stand-in for a bid model inside the optimizer.

    Exposes the same ``payment_mean`` / ``payment_std`` surface as
    :class:`BidModel`, but evaluates fitted curves instead of integrating a
    distribution. The scalar calls read ``payment_moments``, which applies
    the reserve below two expected bidders and clips the spread at 0.
    """

    mean_curve: FittedCurve
    std_curve: FittedCurve

    def payment_mean(self, xi, reserve=0.0):
        return float(self.payment_moments(xi, reserve)[0])

    def payment_std(self, xi):
        return float(self.payment_moments(xi)[1])

    def payment_moments(self, xis, reserve=0.0, cap=math.inf):
        """The curves at ``xis``: :meth:`BidModel.payment_moments`'s cases and
        ``cap`` rule, a level whose mean reaches ``cap`` reporting spread 0."""
        xis = np.asarray(xis, dtype=float)
        thin = xis < 2.0
        means = np.where(thin, float(reserve), self.mean_curve(xis))
        stds = np.where(thin | (means >= cap), 0.0, np.maximum(self.std_curve(xis), 0.0))
        return means, stds

    def to_dict(self):
        return {"payment_mean_curve": self.mean_curve.to_dict(),
                "payment_std_curve": self.std_curve.to_dict()}

    @classmethod
    def from_dict(cls, d):
        return cls(mean_curve=FittedCurve.from_dict(d["payment_mean_curve"]),
                   std_curve=FittedCurve.from_dict(d["payment_std_curve"]))


def reference_bid_model():
    """Bid distribution of the reference synthetic slot: uniform on [0, 1]."""
    return BidModel.uniform(0.0, 1.0)
