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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import OptimizeWarning, curve_fit
from scipy.special import ndtr, ndtri

__all__ = [
    "BidModel",
    "FittedCurve",
    "RevenueCurves",
    "mc_second_price",
    "lowess",
    "fit_polynomial",
    "fit_sigmoid",
    "fit_payment_curves",
    "aggregate_payment_points",
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
# Levels integrated per vectorized pass; small, so the work arrays stay small.
_CHUNK = 8
# A level warns when a moment's K15 - G7 error estimate exceeds this share of it.
_RTOL = 1e-8


def _payment_points_batch(model, xis):
    """Fill the model's moment cache: (mean, std) of the second-highest of
    ``xi`` i.i.d. draws from ``model``, for every new finite ``xi >= 2``.

    One fixed composite GK15 rule on panels that depend on the model alone
    (the dyadic edges plus the quantile knots): ``ppf`` is evaluated once on
    its nodes, and each level only reweights those values. Every level is
    reduced on its own, so its floats depend on ``xi`` alone, not on which
    other levels share the call. A level whose error estimate exceeds
    ``_RTOL`` of either moment emits a RuntimeWarning.
    """
    todo = sorted({float(xi) for xi in xis
                   if math.isfinite(xi) and xi >= 2.0
                   and float(xi) not in model._moment_cache})
    if not todo:
        return
    edges = np.unique(np.concatenate([_EDGES, model._quantile_knots()]))
    # (node, panel) layout: a panel's 15 nodes are summed along a leading
    # axis, which numpy does faster than many 15-long inner reductions
    half = 0.5 * np.diff(edges)
    u = 0.5 * (edges[:-1] + edges[1:]) + half * _NODES[:, None]
    x = model.ppf(u)
    one_minus_u, log_u = 1.0 - u, np.log(u)
    kronrod_w = half * _KRONROD_W[:, None]
    error_w = kronrod_w - half * _GAUSS_W[:, None]
    failed = None
    for start in range(0, len(todo), _CHUNK):
        levels = todo[start:start + _CHUNK]
        xi = np.asarray(levels)[:, None, None]
        # the order-statistic density in u, xi (xi-1) (1-u) u^(xi-2), built
        # in place; multiplying by x once and then again gives the integrands
        # of the first and second moments
        f = (xi - 2.0) * log_u
        np.exp(f, out=f)
        f *= xi * (xi - 1.0)
        f *= one_minus_u
        moments, err = np.empty((2, len(levels))), np.empty((2, len(levels)))
        for k in (0, 1):
            f *= x
            moments[k] = (f * kronrod_w).sum(axis=1).sum(axis=-1)
            err[k] = np.abs((f * error_w).sum(axis=1)).sum(axis=-1)
        for i, level in enumerate(levels):
            m1, m2 = float(moments[0, i]), float(moments[1, i])
            model._moment_cache[level] = (m1, math.sqrt(max(m2 - m1 * m1, 0.0)))
            for k in (0, 1):
                if failed is None and err[k, i] > _RTOL * abs(moments[k, i]):
                    failed = (float(err[k, i]), float(moments[k, i]), level)
    if failed is not None:
        warnings.warn(
            "payment quadrature error %.3g on a moment of %.6g at xi=%.6g "
            "exceeds the relative tolerance %.3g" % (*failed, _RTOL),
            RuntimeWarning, stacklevel=3)


class BidModel:
    """A bid distribution and the moments of its second-highest order statistic.

    Construct via :meth:`uniform`, :meth:`lognormal`, or :meth:`empirical`.
    The empirical flavor smooths a sample with a Freedman-Diaconis histogram;
    its density, CDF, quantile function, and sampler all describe that
    smoothed law (a zero-spread sample degenerates to an explicit point mass).
    """

    def __init__(self, kind, **params):
        self.kind = kind
        self._moment_cache = {}
        if kind == "uniform":
            low, high = float(params["low"]), float(params["high"])
            if not 0.0 <= low < high:
                raise ValueError("uniform bids need 0 <= low < high")
            self.low, self.high = low, high
        elif kind == "lognormal":
            mu, sigma = float(params["mu"]), float(params["sigma"])
            if sigma <= 0:
                raise ValueError("lognormal sigma must be positive")
            self.mu, self.sigma = mu, sigma
        elif kind == "empirical":
            sample = np.sort(np.asarray(params["bids"], dtype=float))
            if sample.size == 0:
                raise ValueError("empirical bid model needs at least one bid")
            if np.any(sample < 0):
                raise ValueError("bids must be non-negative")
            self.sample = sample
            if sample[0] == sample[-1]:
                self._point = float(sample[0])
                self._edges = np.array([self._point, self._point])
                self._cdf_at_edges = np.array([0.0, 1.0])
                self._densities = np.array([])
            else:
                self._point = None
                edges = np.histogram_bin_edges(sample, bins="fd")
                counts, edges = np.histogram(sample, bins=edges)
                self._edges = edges
                self._cdf_at_edges = np.concatenate(
                    [[0.0], np.cumsum(counts)]) / sample.size
                widths = np.diff(edges)
                self._densities = counts / (sample.size * widths)
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

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "uniform":
            inside = (x >= self.low) & (x <= self.high)
            return np.where(inside, 1.0 / (self.high - self.low), 0.0)
        if self.kind == "lognormal":
            out = np.zeros_like(x)
            pos = x > 0
            xp = x[pos]
            z = (np.log(xp) - self.mu) / self.sigma
            out[pos] = np.exp(-0.5 * z * z) / (xp * self.sigma * math.sqrt(2 * math.pi))
            return out
        if self._point is not None:
            return np.zeros_like(x)
        idx = np.searchsorted(self._edges, x, side="right") - 1
        valid = (idx >= 0) & (idx < self._densities.size) & (x <= self._edges[-1])
        idx = np.clip(idx, 0, max(self._densities.size - 1, 0))
        return np.where(valid, self._densities[idx], 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "uniform":
            return np.clip((x - self.low) / (self.high - self.low), 0.0, 1.0)
        if self.kind == "lognormal":
            out = np.zeros_like(x)
            pos = x > 0
            out[pos] = ndtr((np.log(x[pos]) - self.mu) / self.sigma)
            return out
        if self._point is not None:
            return (x >= self._point).astype(float)
        return np.interp(x, self._edges, self._cdf_at_edges)

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

    def _moments(self, xi):
        """Cached ``(mean, std)`` at a finite ``xi >= 2``.

        A miss runs the fixed quadrature rule on this one level. The rule
        reduces every level on its own, so a scalar call gives the same
        floats as any batch that contains ``xi``; scalar and array callers
        share one integration path and one cache.
        """
        cached = self._moment_cache.get(xi)
        if cached is None:
            _payment_points_batch(self, [xi])
            cached = self._moment_cache[xi]
        return cached

    def payment_mean(self, xi, reserve=0.0):
        if xi < 2.0:
            return float(reserve)
        if math.isinf(xi):
            return self.support()[1]
        if self.kind == "empirical" and self._point is not None:
            return self._point
        return self._moments(float(xi))[0]

    def payment_std(self, xi):
        if xi < 2.0 or math.isinf(xi):
            return 0.0
        if self.kind == "empirical" and self._point is not None:
            return 0.0
        return self._moments(float(xi))[1]

    def payment_moments(self, xis, reserve=0.0):
        xis = np.asarray(xis, dtype=float)
        if not (self.kind == "empirical" and self._point is not None):
            _payment_points_batch(self, xis.ravel())
        means = np.empty(xis.shape)
        stds = np.empty(xis.shape)
        for i, xi in enumerate(xis.ravel()):
            means.flat[i] = self.payment_mean(xi, reserve=reserve)
            stds.flat[i] = self.payment_std(xi)
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
        if self.knot_x is not None:
            d["knot_x"] = [float(v) for v in self.knot_x]
            d["knot_y"] = [float(v) for v in self.knot_y]
        if self.coeffs is not None:
            d["coeffs"] = [float(v) for v in self.coeffs]
        return d

    @classmethod
    def from_dict(cls, d):
        return cls(
            method=d["method"],
            x_range=(d["x_range"][0], d["x_range"][1]),
            knot_x=np.asarray(d["knot_x"], dtype=float) if "knot_x" in d else None,
            knot_y=np.asarray(d["knot_y"], dtype=float) if "knot_y" in d else None,
            coeffs=np.asarray(d["coeffs"], dtype=float) if "coeffs" in d else None,
            rmse=d.get("rmse", math.nan),
        )


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

    r = int(math.ceil(fraction * n))
    r = min(max(r, 2), n - 1)
    dist = np.abs(x[:, None] - x[None, :])
    h = np.sort(dist, axis=1)[:, r]
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(h[:, None] > 0, dist / h[:, None], np.where(dist > 0, 2.0, 0.0))
    w = (1.0 - np.clip(scaled, 0.0, 1.0) ** 3) ** 3

    delta = np.ones(n)
    yest = np.empty(n)
    for _ in range(iterations + 1):
        for i in range(n):
            wi = delta * w[i]
            sw = wi.sum()
            if sw <= 0.0:
                yest[i] = y[i]
                continue
            dx = x - x[i]
            swx = (wi * dx).sum()
            swy = (wi * y).sum()
            swxx = (wi * dx * dx).sum()
            swxy = (wi * dx * y).sum()
            denom = sw * swxx - swx * swx
            if denom <= 1e-13 * max(abs(sw * swxx), 1e-30):
                yest[i] = swy / sw
            else:
                yest[i] = (swxx * swy - swx * swxy) / denom
        res = y - yest
        s = float(np.median(np.abs(res)))
        if s <= 0.0:
            break
        delta = np.clip(res / (6.0 * s), -1.0, 1.0)
        delta = (1.0 - delta * delta) ** 2
    rmse = float(np.sqrt(np.mean((yest - y) ** 2)))
    return FittedCurve(method="lowess", x_range=(float(x[0]), float(x[-1])),
                       knot_x=x.copy(), knot_y=yest.copy(), rmse=rmse)


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
        return FittedCurve(method="sigmoid", x_range=(float(x[0]), float(x[-1])),
                           coeffs=np.array([float(y.mean()), 0.0, 1.0, float(x.mean())]),
                           rmse=math.inf)
    span0 = float(y.max() - y.min()) or 1.0
    p0 = [float(y.min()), span0, 4.0 / max(float(x[-1] - x[0]), 1e-9), float(np.median(x))]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OptimizeWarning)
            with np.errstate(over="ignore"):
                popt, _ = curve_fit(_sigmoid, x, y, p0=p0, maxfev=10000)
        fitted = _sigmoid(x, *popt)
        rmse = float(np.sqrt(np.mean((fitted - y) ** 2)))
        if not math.isfinite(rmse):
            raise RuntimeError("diverged")
    except Exception:
        return FittedCurve(method="sigmoid", x_range=(float(x[0]), float(x[-1])),
                           coeffs=np.asarray(p0, dtype=float), rmse=math.inf)
    return FittedCurve(method="sigmoid", x_range=(float(x[0]), float(x[-1])),
                       coeffs=np.asarray(popt, dtype=float), rmse=rmse)


def _best_fit(x, y, *, lowess_fraction, lowess_iterations, poly_degree):
    points = np.column_stack([x, y])
    if x.size < 3 or np.unique(x).size < 2:
        # Too little structure for smoothing: a constant curve.
        return fit_polynomial(points, degree=0)
    candidates = [lowess(points, fraction=lowess_fraction, iterations=lowess_iterations),
                  fit_polynomial(points, degree=poly_degree),
                  fit_sigmoid(points)]
    return min(candidates, key=lambda c: (c.rmse if math.isfinite(c.rmse) else math.inf))


def aggregate_payment_points(summaries, hourly=None):
    """Aggregate auction summaries into (competition, payment mean, payment std) points.

    With timestamps the buckets are wall-clock hours (competition = the
    bucket's average observed bidder count); without, auctions group by their
    exact bidder count. Returns three aligned arrays sorted by competition.
    """
    summaries = list(summaries)
    if not summaries:
        raise ValueError("no auctions to aggregate")
    if hourly is None:
        hourly = all(s.timestamp is not None for s in summaries)
    buckets = {}
    for s in summaries:
        if hourly:
            key = s.timestamp.replace(minute=0, second=0, microsecond=0)
        else:
            key = s.xi_observed
        buckets.setdefault(key, []).append(s)
    xi_pts, mean_pts, std_pts = [], [], []
    for key in sorted(buckets):
        group = buckets[key]
        pays = np.array([g.payment for g in group])
        xi_pts.append(float(np.mean([g.xi_observed for g in group])))
        mean_pts.append(float(pays.mean()))
        std_pts.append(float(pays.std(ddof=0)))
    order = np.argsort(xi_pts, kind="stable")
    return (np.asarray(xi_pts)[order], np.asarray(mean_pts)[order],
            np.asarray(std_pts)[order])


def fit_payment_curves(summaries, *, lowess_fraction=0.3, lowess_iterations=3,
                       poly_degree=2, hourly=None):
    """Fit payment mean and spread as functions of the competition level.

    Aggregates the log into (xi, payment) points, fits lowess, polynomial and
    sigmoid candidates to each of the mean and the spread, and keeps the
    lowest-rmse candidate per curve. Auctions must have at least two bids
    (a lone bid has no second price to learn from).
    """
    summaries = list(summaries)
    if not summaries:
        raise ValueError("empty auction log")
    thin = [s.auction_id for s in summaries if s.xi_observed < 2]
    if thin:
        raise ValueError(
            f"{len(thin)} auctions have fewer than two bids (first: {thin[0]})")
    xi, pay_mean, pay_std = aggregate_payment_points(summaries, hourly=hourly)
    kwargs = dict(lowess_fraction=lowess_fraction,
                  lowess_iterations=lowess_iterations, poly_degree=poly_degree)
    return _best_fit(xi, pay_mean, **kwargs), _best_fit(xi, pay_std, **kwargs)


def estimate_max_value(summaries):
    """Expected maximum impression value: the peak hourly average bid.

    Bids are bucketed by wall-clock hour; the estimate is the largest hourly
    mean. Without timestamps the overall mean bid is returned.
    """
    summaries = list(summaries)
    if not summaries:
        raise ValueError("empty auction log")
    buckets = {}
    for s in summaries:
        key = (s.timestamp.replace(minute=0, second=0, microsecond=0)
               if s.timestamp is not None else None)
        buckets.setdefault(key, []).extend(s.bids)
    if None in buckets and len(buckets) > 1:
        merged = [b for group in buckets.values() for b in group]
        buckets = {None: merged}
    return max(float(np.mean(bids)) for bids in buckets.values())


@dataclass
class RevenueCurves:
    """Fitted stand-in for a bid model inside the optimizer.

    Exposes the same ``payment_mean`` / ``payment_std`` surface as
    :class:`BidModel`, but evaluates fitted curves instead of integrating a
    distribution. Below two expected bidders the reserve convention applies.
    """

    mean_curve: FittedCurve
    std_curve: FittedCurve

    def payment_mean(self, xi, reserve=0.0):
        if xi < 2.0:
            return float(reserve)
        return float(self.mean_curve(xi))

    def payment_std(self, xi):
        if xi < 2.0:
            return 0.0
        return float(max(self.std_curve(xi), 0.0))

    def payment_moments(self, xis, reserve=0.0):
        xis = np.asarray(xis, dtype=float)
        thin = xis < 2.0
        means = np.where(thin, float(reserve), self.mean_curve(xis))
        stds = np.where(thin, 0.0, np.maximum(self.std_curve(xis), 0.0))
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
