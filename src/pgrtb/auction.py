"""Second-price auction payments and their estimation from logs.

The delivery-day channel sells each impression by second-price auction. With
``xi`` bidders drawing values i.i.d. from a bid distribution, the seller's
payment is the second-highest draw. This module provides

* bid distributions (uniform, lognormal, histogram-smoothed empirical),
* the mean and spread of the second-highest of ``xi`` draws, by one fixed
  quadrature rule (``xi`` may be any real >= 2, matching average bidder
  counts),
* lowess / polynomial curve fitting of payment-vs-competition points
  aggregated from auction logs, and the ceiling estimate for posted prices.

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
from dataclasses import dataclass

import numpy as np
# by name, so that it loads with the package and not on a process's first fit
from numpy.polynomial import polynomial as npp

__all__ = [
    "BidModel",
    "FittedCurve",
    "RevenueCurves",
    "lowess",
    "fit_polynomial",
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
_LOWESS_ROWS = 32  # knots per block: lowess holds a few (rows x n) arrays, never n x n
_LOWESS_FRACTION = 0.3  # of the points that weigh in each knot's local line
_LOWESS_ITERATIONS = 3  # robustness passes after the first fit


# Cephes ``ndtri``'s rational approximations, the inverse normal CDF that
# lognormal quantiles read: P0/Q0 on the centre |u - 1/2| <= 1/2 - exp(-2),
# P1/Q1 and P2/Q2 in the tails, in 1/t with t = sqrt(-2 log u) below and
# above 8. Q* leave out their leading coefficient, 1.
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
             -5.66762857469070293439E1, 1.39312609387279679503E1,
             -1.23916583867381258016E0)
_NDTRI_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
             8.63602421390890590575E1, -2.25462687854119370527E2,
             2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
             5.71628192246421288162E1, 4.40805073893200834700E1,
             1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2,
             -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
             4.13172038254672030440E1, 1.50425385692907503408E1,
             2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
             3.93881025292474443415E0, 1.33303460815807542389E0,
             2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6,
             6.23974539184983293730E-9)
_NDTRI_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
             1.37702099489081330271E0, 2.16236993594496635890E-1,
             1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242E0


def _polevl(x, coeffs, monic=False):
    """Horner's rule in Cephes order; ``monic`` puts a leading 1 first."""
    out = x + coeffs[0] if monic else np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        out = out * x + c
    return out


def _ndtri(u):
    """Inverse of the standard normal CDF: Cephes ``ndtri`` operation for
    operation, so that its floats are those of ``scipy.special.ndtri``. The
    tail's logarithms are ``math.log``, the C library's, as there. Gives -inf
    at 0, inf at 1 and nan outside [0, 1]."""
    u = np.asarray(u, dtype=float)
    out = np.full(u.shape, np.nan)
    upper = u > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - u, u)
    centre = y > _EXP_M2
    c = y[centre] - 0.5
    c2 = c * c
    out[centre] = (c + c * (c2 * _polevl(c2, _NDTRI_P0) / _polevl(c2, _NDTRI_Q0, True))) * _SQRT_2PI
    tail = (y > 0.0) & ~centre
    t = np.sqrt(np.array([math.log(v) for v in y[tail].tolist()]) * -2.0)
    z = 1.0 / t
    x1 = np.where(t < 8.0, z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1, True),
                  z * _polevl(z, _NDTRI_P2) / _polevl(z, _NDTRI_Q2, True))
    x = t - np.array([math.log(v) for v in t.tolist()]) / t - x1
    out[tail] = np.where(upper[tail], x, -x)
    out[u == 0.0] = -math.inf
    out[u == 1.0] = math.inf
    return out


# Panel edges shared by every level: dyadic towards both ends of [0, 1], so
# panels shrink geometrically into the boundary layer of width ~1/xi near
# u = 1 and onto the u^(xi-2) kink at u = 0 whatever the level.
_DYADIC = 0.5 ** np.arange(1, 41)
_EDGES = np.unique(np.concatenate([[0.0, 1.0], _DYADIC, 1.0 - _DYADIC]))
# The largest u the rule reads: the top node of the last panel.
_TOP_NODE = 0.5 * (_EDGES[-2] + _EDGES[-1]) + 0.5 * (_EDGES[-1] - _EDGES[-2]) * _NODES[-1]
_Z_TOP = float(_ndtri(_TOP_NODE))
# Levels integrated per vectorized pass; small, so the two work arrays
# stay small: a solve can price levels while its DP tables are held.
_CHUNK = 6
# A level warns when a moment's K15 - G7 error estimate exceeds this share of it.
_RTOL = 1e-8


def _quadrature_nodes(model):
    """``(ppf(u), 1 - u, log u, K15 weights, K15 - G7 weights)`` on the
    model's panels, built on first use. In the (node, panel) layout a panel's
    15 nodes sum along a leading axis, faster than many 15-long reductions.
    """
    if model._nodes is None:
        knots = [] if model.kind == "lognormal" else model._cdf_at_edges[1:-1]  # ppf's kinks
        edges = np.unique(np.concatenate([_EDGES, knots]))
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


def _density(f, power, scale, log_u, one_minus_u):
    """The order-statistic density in u, xi (xi-1) (1-u) u^(xi-2), built in
    ``f`` (level, node, panel) from each level's ``xi - 2`` and ``xi (xi-1)``."""
    f[...] = log_u  # then one broadcast operand per pass, so one ufunc buffer
    f *= power[:, None, None]
    np.exp(f, out=f)
    f *= scale[:, None, None]
    f *= one_minus_u


def _payment_points_batch(model, xis):
    """Fill the model's moment cache for every new finite level ``xi >= 2``:
    the mean and spread of the second-highest of ``xi`` i.i.d. draws from
    ``model``.

    One fixed composite GK15 rule on panels that depend on the model alone
    (the dyadic edges plus the quantile knots): ``ppf`` is evaluated on its
    nodes once per model, and each level only reweights those values. Every
    level is reduced on its own, node products summed in node order and
    then over panels, so its floats depend on ``xi`` alone, not on which
    other levels share the call.

    The variance is ``m2 - m1^2``, which keeps about ``log2(m2 / var)``
    fewer bits than the moments: at large ``xi`` the payment concentrates
    and the difference cancels. Where that loss, ``4 eps m2 / var``, could
    exceed ``_RTOL`` the variance takes a second pass on the same nodes,
    centred on the mean; every other level keeps the one-pass floats. A
    level whose K15 - G7 error estimate exceeds ``_RTOL`` of a moment it
    computed emits a RuntimeWarning; a centred pass's error is judged
    against the raw second moment, the scale its spread loses bits against.
    """
    cache = model._moments
    todo = np.array(sorted({xi for xi in map(float, xis)
                            if math.isfinite(xi) and xi >= 2.0 and xi not in cache}))
    if not todo.size:
        return
    x, one_minus_u, log_u, kronrod_w, error_w = _quadrature_nodes(model)
    work = np.empty((2, min(_CHUNK, todo.size)) + x.shape)
    power, scale = todo - 2.0, todo * (todo - 1.0)
    moments, errors = np.empty((2, todo.size)), np.empty((2, todo.size))
    for lo in range(0, todo.size, _CHUNK):
        part = slice(lo, lo + _CHUNK)
        f, products = work[:, :todo[part].size]
        # multiplying the density by x once and then again gives the
        # integrands of the first and second moments
        _density(f, power[part], scale[part], log_u, one_minus_u)
        f *= x
        moments[0, part], errors[0, part] = _moment(f, products, kronrod_w, error_w)
        f *= x
        moments[1, part], errors[1, part] = _moment(f, products, kronrod_w, error_w)
    var = moments[1] - moments[0] * moments[0]
    against = np.abs(moments)  # what each error is judged against
    loose = np.flatnonzero(2.0 ** -50 * moments[1] > _RTOL * var)
    for lo in range(0, loose.size, _CHUNK):
        part = loose[lo:lo + _CHUNK]
        f, products = work[:, :part.size]
        _density(f, power[part], scale[part], log_u, one_minus_u)
        np.subtract(x, moments[0, part, None, None], out=products)
        f *= products
        f *= products
        # the warning then judges the central moment's error against the raw
        # moment: a spread at rounding level is no miss
        moments[1, part], errors[1, part] = _moment(f, products, kronrod_w, error_w)
        var[part] = moments[1, part]
    low, high = model.support()  # a spread is at most (high - low) / 2 (Popoviciu),
    # which rounding can pass on a narrow law; a lognormal's width is infinite
    spread = np.minimum(np.sqrt(np.maximum(var, 0.0)), (high - low) / 2)
    cache.update(zip(todo.tolist(), zip(moments[0].tolist(), spread.tolist())))
    bad = errors > _RTOL * against
    if bad.any():
        i = int(bad.any(axis=0).argmax())
        k = int(bad[:, i].argmax())
        warnings.warn(
            "payment quadrature error %.3g on a moment of %.6g at xi=%.6g "
            "exceeds the relative tolerance %.3g" % (errors[k, i], against[k, i], todo[i], _RTOL),
            RuntimeWarning, stacklevel=3)


class BidModel:
    """A bid distribution and the moments of its second-highest order statistic.

    Construct via :meth:`uniform`, :meth:`lognormal`, or :meth:`empirical`.
    The empirical flavor keeps only a sample's Freedman-Diaconis histogram
    (given both, ``edges`` win over ``bids``) and a uniform law is the one bin
    [low, high]: every law but the lognormal reads its quantiles and draws off
    one linear interpolation, which holds a zero-spread sample's point. Numbers
    must be finite and not booleans, and the squares of the largest values the
    payment quadrature reads finite floats: ``lognormal(700, 1)`` is refused.
    """

    def __init__(self, kind, **params):
        self.kind = kind
        self._moments = {}  # xi -> (mean, std)
        self._nodes = None
        if kind == "uniform":
            low, high = (float(_no_booleans(params[k], k)) for k in ("low", "high"))
            if not 0.0 <= low < high < math.inf:
                raise ValueError("uniform bids need finite 0 <= low < high")
            self.low, self.high = low, high
            edges, counts = np.array([low, high]), np.array([1])
        elif kind == "lognormal":
            mu, sigma = (float(_no_booleans(params[k], k)) for k in ("mu", "sigma"))
            if not (math.isfinite(mu) and 0.0 < sigma < math.inf):
                raise ValueError("lognormal mu must be finite and sigma positive and finite")
            self.mu, self.sigma = mu, sigma
            with np.errstate(over="ignore"):  # the quantile at the quadrature's top node
                top = float(np.exp(mu + sigma * _Z_TOP))
        elif kind == "empirical" and "edges" in params:
            edges = np.asarray(_no_booleans(params["edges"], "edges"), float)
            counts = np.asarray(params["counts"])
            if not (edges.ndim == counts.ndim == 1 and edges.size == counts.size + 1 >= 2
                    and np.issubdtype(counts.dtype, np.integer) and (counts >= 0).all()
                    and counts.sum() > 0 and (np.diff(edges) >= 0).all()
                    and 0.0 <= edges[0] and edges[-1] < math.inf):
                raise ValueError("empirical edges must be finite, non-negative and "
                                 "ascending, with one non-negative integer count per bin")
        elif kind == "empirical":
            edges, counts = _histogram(np.asarray(_no_booleans(params["bids"], "bids"), float))
        else:
            raise ValueError(f"unknown bid model kind: {kind!r}")
        if kind != "lognormal":
            self._edges, self._counts = edges, counts
            self._point = float(edges[0]) if edges[0] == edges[-1] else None
            self._cdf_at_edges = np.concatenate([[0.0], np.cumsum(counts)]) / counts.sum()
            top = float(edges[-1])  # a bound on the quantile at the top node
        if not math.isfinite(top * top):
            raise ValueError(f"{self!r} has payments whose squares overflow: its quantile "
                             f"at the quadrature's top node is {top:.6g}")

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
        if self.kind == "lognormal":
            return (0.0, math.inf)
        return (float(self._edges[0]), float(self._edges[-1]))

    def ppf(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "lognormal":
            return np.exp(self.mu + self.sigma * _ndtri(u))
        return np.interp(u, self._cdf_at_edges, self._edges)

    def sample_bids(self, rng, size):
        if self.kind == "lognormal":
            return rng.lognormal(self.mu, self.sigma, size)
        return self.ppf(rng.random(size))

    # -- payment moments ---------------------------------------------------

    def payment_moments(self, xis, reserve=0.0):
        """Mean and spread of the second-price payment at each level of ``xis``.

        Below two bidders the payment is the reserve, at infinite competition
        the support's top, and a point mass pays its point (spread 0 in all
        three). Other levels come from the moment cache, which the fixed
        quadrature fills once per new level; the rule reduces every level on
        its own, so a level's floats are the same in any call that has it.
        """
        xis = np.asarray(xis, dtype=float)
        means, stds = np.full(xis.shape, float(reserve)), np.zeros(xis.shape)
        means[xis == math.inf] = self.support()[1]
        inner = ~((xis < 2.0) | (xis == math.inf))
        if self.kind != "lognormal" and self._point is not None:
            means[inner] = self._point
        elif inner.any():
            levels = xis[inner].tolist()
            _payment_points_batch(self, levels)
            means[inner], stds[inner] = np.array([self._moments[x] for x in levels]).T
        return means, stds

    # -- serialization ------------------------------------------------------

    def to_dict(self):
        """The model's parameters; an empirical model's are its histogram's edges
        (each float's ``repr`` round-trips through JSON) and counts."""
        if self.kind == "uniform":
            return {"kind": "uniform", "low": self.low, "high": self.high}
        if self.kind == "lognormal":
            return {"kind": "lognormal", "mu": self.mu, "sigma": self.sigma}
        return {"kind": "empirical", "edges": self._edges.tolist(),
                "counts": self._counts.tolist()}

    @classmethod
    def from_dict(cls, d):
        """The model of :meth:`to_dict`'s dict; an empirical one may instead hold its
        sample as ``bids``, as a config's ``bid_model`` section does."""
        return cls(d.get("kind"), **{k: v for k, v in d.items() if k != "kind"})

    def __repr__(self):
        if self.kind == "uniform":
            return f"BidModel.uniform({self.low}, {self.high})"
        if self.kind == "lognormal":
            return f"BidModel.lognormal({self.mu}, {self.sigma})"
        return f"BidModel.empirical(<{int(self._counts.sum())} bids>)"


def _no_booleans(value, name):
    """``value``, a number or a list or an array of them, if it holds no boolean."""
    items = value if isinstance(value, (list, tuple)) else [value]
    if np.asarray(value).dtype == bool or any(isinstance(v, (bool, np.bool_)) for v in items):
        raise ValueError(f"{name} must be a number, not a boolean")
    return value


def _histogram(bids):
    """A bid sample's Freedman-Diaconis edges and counts; a sample without spread
    is one bin of zero width."""
    if bids.size == 0:
        raise ValueError("empirical bid model needs at least one bid")
    if not np.all((bids >= 0) & (bids < math.inf)):
        raise ValueError("bids must be finite and non-negative")
    low, high = bids.min(), bids.max()
    if low == high:
        return np.array([low, high]), np.array([bids.size])
    counts, edges = np.histogram(bids, bins=np.histogram_bin_edges(bids, bins="fd"))
    return edges, counts


# ---------------------------------------------------------------------------
# Curve fitting of payment-vs-competition points
# ---------------------------------------------------------------------------


_CURVE_ARRAYS = {"lowess": ("knot_x", "knot_y"), "polynomial": ("coeffs",)}  # what each reads


@dataclass
class FittedCurve:
    """One fitted payment curve, evaluable at any competition level.

    ``method`` is ``lowess`` (piecewise-linear interpolation through
    smoothed knots) or ``polynomial`` (ascending coefficients), each with its
    non-empty arrays; another, such as earlier files' ``sigmoid``, is refused.
    Evaluation clamps the input to the training range, so extrapolation holds
    the boundary value.
    """

    method: str
    x_range: tuple
    knot_x: np.ndarray | None = None
    knot_y: np.ndarray | None = None
    coeffs: np.ndarray | None = None
    rmse: float = math.nan

    def __post_init__(self):
        keys = _CURVE_ARRAYS.get(self.method)
        if keys is None:
            raise ValueError(f"unknown curve method: {self.method!r}")
        sizes = {np.size(a) if np.ndim(a) == 1 else 0 for a in (getattr(self, k) for k in keys)}
        if len(sizes) > 1 or 0 in sizes:
            raise ValueError(f"a {self.method} curve needs {'/'.join(keys)} of one non-zero length")

    def __call__(self, x):
        xv = np.clip(np.asarray(x, dtype=float), self.x_range[0], self.x_range[1])
        if self.method == "lowess":
            return np.interp(xv, self.knot_x, self.knot_y)
        return npp.polyval(xv, self.coeffs)

    def to_dict(self):
        d = {"method": self.method,
             "x_range": [float(self.x_range[0]), float(self.x_range[1])],
             "rmse": float(self.rmse)}
        for key in _CURVE_ARRAYS[self.method]:
            d[key] = [float(v) for v in getattr(self, key)]
        return d

    @classmethod
    def from_dict(cls, d):
        arrays = {k: np.asarray(d[k], float) for k in _CURVE_ARRAYS.get(d["method"], ()) if k in d}
        return cls(method=d["method"], x_range=(d["x_range"][0], d["x_range"][1]),
                   rmse=d.get("rmse", math.nan), **arrays)


def _as_xy(points):
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an iterable of (x, y) pairs")
    order = np.argsort(pts[:, 0], kind="stable")
    return pts[order, 0], pts[order, 1]


def lowess(points):
    """Locally weighted robust scatterplot smoothing.

    Classic tricube-weighted local linear regression: at each knot the
    nearest ``ceil(_LOWESS_FRACTION * n)`` points get tricube weights and a
    weighted line (centered at the knot for conditioning) supplies the
    smoothed value. ``_LOWESS_ITERATIONS`` extra passes reweight by bisquare
    weights of the residuals, which shrugs off isolated outliers.

    Returns a :class:`FittedCurve` whose knots are the training abscissae;
    between knots it interpolates linearly, outside it clamps.
    """
    x, y = _as_xy(points)
    n = x.size
    if n < 3:
        raise ValueError("lowess needs at least three points")
    if x[0] == x[-1]:
        raise ValueError("points need spread in x")

    r = min(max(int(math.ceil(_LOWESS_FRACTION * n)), 2), n - 1)
    blocks = [slice(lo, lo + _LOWESS_ROWS) for lo in range(0, n, _LOWESS_ROWS)]
    h, delta, sums = np.empty(n), np.ones(n), np.empty((5, n))
    for b in blocks:  # each knot's distance to its r-th nearest point
        h[b] = np.partition(np.abs(x - x[b, None]), r, axis=1)[:, r]
    for _ in range(_LOWESS_ITERATIONS + 1):
        for b in blocks:
            # a row per knot of the block, holding its weighted terms: each row
            # sum is the same contiguous sum a loop over knots would take
            dx = x - x[b, None]  # x minus the row's knot
            dist = np.abs(dx)
            with np.errstate(divide="ignore", invalid="ignore"):
                scaled = np.where(h[b, None] > 0, dist / h[b, None], np.where(dist > 0, 2.0, 0.0))
            wi = (1.0 - np.clip(scaled, 0.0, 1.0) ** 3) ** 3 * delta
            wdx = wi * dx
            sums[:, b] = [t.sum(axis=1) for t in (wi, wdx, wi * y, wdx * y, wdx * dx)]
        sw, swx, swy, swxy, swxx = sums
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
    coeffs = npp.polyfit(x, y, deg)
    fitted = npp.polyval(x, coeffs)
    rmse = float(np.sqrt(np.mean((fitted - y) ** 2)))
    return FittedCurve(method="polynomial", x_range=(float(x[0]), float(x[-1])),
                       coeffs=np.asarray(coeffs, dtype=float), rmse=rmse)


def _best_fit(x, y):
    points = np.column_stack([x, y])
    if x.size < 3 or np.unique(x).size < 2:
        # Too little structure for smoothing: a constant curve.
        return fit_polynomial(points, degree=0)
    candidates = [lowess(points), fit_polynomial(points)]
    return min(candidates, key=lambda c: (c.rmse if math.isfinite(c.rmse) else math.inf))


def _aggregate_payment_points(table):
    """Aggregate an auction table into (competition, payment mean, payment std) points.

    Only auctions with two or more bids have a second-price payment, their
    second bid, to learn from; the others are left out. When every auction
    left has a timestamp the buckets are wall-clock hours (competition = the
    bucket's average observed bidder count); otherwise auctions group by their
    exact bidder count. Returns three aligned arrays sorted by competition.
    """
    xi = table.xi_observed
    two = np.flatnonzero(xi >= 2)
    if not two.size:
        raise ValueError("no auction has two or more bids")
    hourly = (table.hour[two] != table.UNSTAMPED).all()
    _, inverse, counts = np.unique((table.hour if hourly else xi)[two],
                                   return_inverse=True, return_counts=True)
    # each bucket's auctions made contiguous, in order, so that each mean
    # sums the same values in the same order as over the bucket alone
    grouped = two[np.argsort(inverse, kind="stable")]
    xi, pays = xi[grouped], table.bids[table.offsets[grouped] + 1]
    bounds = np.cumsum(counts).tolist()
    xi_pts, mean_pts, std_pts = np.array([
        (np.mean(xi[lo:hi]), pays[lo:hi].mean(), pays[lo:hi].std(ddof=0))
        for lo, hi in zip([0] + bounds[:-1], bounds)]).T
    order = np.argsort(xi_pts, kind="stable")
    return xi_pts[order], mean_pts[order], std_pts[order]


def fit_payment_curves(table):
    """Fit payment mean and spread as functions of the competition level.

    Aggregates the auctions with two or more bids into (xi, payment) points,
    where the payment is the second bid (a lone bid has no second price to
    learn from), fits lowess and quadratic candidates to each of the mean and
    the spread, and keeps the lower-rmse candidate per curve (lowess on a
    tie). A table with no auction of two bids is refused with a ValueError.
    """
    xi, pay_mean, pay_std = _aggregate_payment_points(table)
    return _best_fit(xi, pay_mean), _best_fit(xi, pay_std)


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
    # auctions by bucket (first-seen), then table order; each bucket's bids are
    # gathered alone, so each mean sums a contiguous run of one bucket's size
    picked = np.argsort(first[inverse], kind="stable")
    bounds = np.cumsum(counts[np.argsort(first)]).tolist()
    buckets = (table.bids[table._rows(picked[lo:hi])[0]]
               for lo, hi in zip([0, *bounds[:-1]], bounds))
    if hours[-1] == table.UNSTAMPED:
        return float(np.concatenate(list(buckets)).mean())
    return max(float(bids.mean()) for bids in buckets)


@dataclass
class RevenueCurves:
    """Fitted stand-in for a bid model inside the optimizer.

    Answers :class:`BidModel`'s ``payment_moments`` contract, but evaluates
    fitted curves instead of integrating a distribution: the reserve below
    two expected bidders, and the spread clipped at 0.
    """

    mean_curve: FittedCurve
    std_curve: FittedCurve

    def payment_moments(self, xis, reserve=0.0):
        """The curves at ``xis``, and the reserve below two bidders."""
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
