"""Geodesically convex regions presented through membership oracles.

A body couples a membership test with declared geometry: a center, the
radius ``r`` of a geodesic ball around that center known to lie inside, and
the geodesic diameter ``D``.  The walk and the annealer consume only this
metadata plus the oracle, so user-defined bodies can plug in by subclassing
:class:`ConvexBody` and declaring honest numbers; nothing re-derives them.

Built-ins: spherical caps strictly inside a hemisphere, geodesic balls of
radius below half the injectivity radius, and axis-aligned Euclidean boxes.
All three are strongly geodesically convex, which is what the sampling
guarantees assume.

What a membership test knows beyond yes or no, it declares on itself (see
``ConvexBody.contains_coords``), so a subclass that overrides the test drops
it.  ``sample_uniform_many`` gives exact uniform draws, independent of the
walk so that they can serve as ground truth when testing it.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .errors import AcceptanceTooLow, DimensionMismatch, NotConvex, PreconditionError, _require_positive
from .manifolds import Euclidean, Manifold, Sphere, _arccos, _dot_constants, _row_factory, _row_names

__all__ = [
    "ConvexBody",
    "SphericalCap",
    "GeodesicBall",
    "EuclideanBox",
    "rejection_sample_uniform",
    "sample_uniform_many",
]

_MAX_MISSES = 10**6  # proposals in a row that miss before the samplers give up


class ConvexBody:
    """Membership oracle plus declared (inner_center, inner_radius, diameter).

    Subclasses must set ``manifold`` and the three metadata attributes and
    implement ``contains_coords``; nothing else is read, ``repr`` included.
    ``contains_many`` has a loop fallback here and should be overridden
    when a vectorised test is cheap.
    """

    manifold: Manifold
    inner_center: np.ndarray
    inner_radius: float
    diameter: float

    def contains_coords(self, x) -> bool:
        """Membership test of one point, no validation: a bool for every
        point of the manifold.  The package passes the point as
        ``Manifold.as_row`` gives it, a list of floats on ``sphere:n`` and
        ``euclidean:n``.  A row of the wrong length raises
        :class:`DimensionMismatch` from every built-in test: the cap's and
        the box's are straight-line kernels compiled for the dimension (see
        :mod:`geowalk.manifolds`), and a ball's calls ``dist``.

        Optional declarations, attributes of this function:
        ``scalar(body) = (dist, anchor, read, inside, arc)`` for a test that
        reads one scalar ``s = read(x)`` (the cap's ``<x, axis>``, the ball's
        ``d(center, x)``): ``x`` is inside iff ``inside(s)`` and ``dist(anchor,
        x) == arc(s)`` (``s`` if ``arc`` is ``None``).  ``draw_uniform(body,
        rng, count)``: ``count`` exact uniform draws, or ``None``.
        ``rejection_probability(body, points, delta)``: the exact chance that
        one walk proposal from each row of ``points`` leaves the body."""
        raise NotImplementedError

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        rows = map(self.manifold.as_row, points)
        return np.fromiter(map(self.contains_coords, rows), dtype=bool, count=len(points))

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(on {self.manifold.descriptor}, "
            f"r={self.inner_radius:.4g}, D={self.diameter:.4g})"
        )


class SphericalCap(ConvexBody):
    """Cap ``{x : <x, axis> >= cos(angle)}`` on a sphere, ``angle < pi/2``.

    The angle bound keeps the cap strictly inside an open hemisphere, which
    makes it strongly geodesically convex.  The declared inner ball is the
    cap itself: geodesic radius ``angle`` around the axis, diameter
    ``2 * angle``.
    """

    def __init__(self, sphere: Sphere, axis: np.ndarray, angle: float):
        if not isinstance(sphere, Sphere):
            raise PreconditionError("SphericalCap lives on a sphere")
        angle = float(angle)
        if not 0.0 < angle < math.pi / 2.0:
            raise NotConvex(
                f"cap angle must lie in (0, pi/2) for strong convexity, got {angle}"
            )
        axis = np.asarray(axis, dtype=float)
        sphere.validate_point(axis, atol=1e-6)
        self.manifold = sphere
        self.axis = axis / math.sqrt(axis @ axis)
        self._axis = sphere.as_row(self.axis)
        self.angle = angle
        self.cos_angle = math.cos(angle)
        self.inner_center = self.axis
        self.inner_radius = angle
        self.diameter = 2.0 * angle

    def contains_coords(self, x):
        return self._read(x) >= self.cos_angle

    @functools.cached_property
    def _read(self):
        return _row_factory(_dot_constants, self.manifold.ambient_dim)(*self._axis)

    def _scalar(self):
        # Sphere.dist, bound to this sphere, multiplies the same pairs and
        # sums them in the one order manifolds._row_dot writes.
        inside = functools.partial(operator.le, self.cos_angle)
        return Sphere.dist.__get__(self.manifold), self._axis, self._read, inside, _arccos

    def _rejection_probability(self, points, delta):
        # It depends on x only through <x, axis>.
        n, angle = self.manifold.n, self.angle
        return _in_blocks(lambda rows: _cap_rejection(rows @ self.axis, n, angle, delta), points)

    contains_coords.scalar = _scalar
    contains_coords.rejection_probability = _rejection_probability

    def contains_many(self, points):
        return points @ self.axis >= self.cos_angle


class GeodesicBall(ConvexBody):
    """Closed geodesic ball of radius below half the injectivity radius."""

    def __init__(self, manifold: Manifold, center: np.ndarray, radius: float):
        radius = float(radius)
        _require_positive(radius, "ball radius")
        if radius >= 0.5 * manifold.injectivity_radius:
            raise NotConvex(
                f"ball radius {radius} reaches half the injectivity radius "
                f"{manifold.injectivity_radius} of {manifold.descriptor}; "
                "convexity is no longer guaranteed"
            )
        center = np.asarray(center, dtype=float)
        manifold.validate_point(center)
        self.manifold = manifold
        self.center = center
        self._center = manifold.as_row(center)  # what dist reads; center stays the anchor
        self.radius = radius
        self.inner_center = center
        self.inner_radius = radius
        self.diameter = 2.0 * radius

    def contains_coords(self, x):
        return self.manifold.dist(self._center, x) <= self.radius

    def _scalar(self):
        dist, inside = self.manifold.dist, functools.partial(operator.ge, self.radius)
        return dist, self.center, functools.partial(dist, self._center), inside, None

    def _draw_uniform(self, rng, count):
        # Exact on a flat manifold, where exp at the center maps the tangent
        # ball isometrically onto this one: a uniform direction, then the
        # radius by CDF inversion.
        man = self.manifold
        if man.curvature_bound != 0.0:
            return None
        g = rng.standard_normal((count, man.tangent_dim))
        g /= np.sqrt(np.einsum("ij,ij->i", g, g))[:, None]
        radii = self.radius * rng.uniform(size=count) ** (1.0 / man.tangent_dim)
        centers = np.broadcast_to(self.center, (count, man.ambient_dim))
        return man.propose_many(centers, radii[:, None] * g, 1.0)

    contains_coords.scalar = _scalar
    contains_coords.draw_uniform = _draw_uniform

    def contains_many(self, points):
        return self.manifold.dist_many(points, self.center) <= self.radius


class EuclideanBox(ConvexBody):
    """Axis-aligned box ``[lo, hi]`` in flat space.

    Metadata: center of the box, inscribed-ball radius ``min(hi - lo) / 2``,
    and the main diagonal as diameter.
    """

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DimensionMismatch("box corners must be 1-D arrays of equal length")
        if not np.all(hi > lo):
            raise PreconditionError("box needs hi > lo in every coordinate")
        self.manifold = Euclidean(lo.size)
        self.lo = lo
        self.hi = hi
        self.inner_center = 0.5 * (lo + hi)
        self.inner_radius = float(0.5 * np.min(hi - lo))
        self.diameter = float(np.linalg.norm(hi - lo))

    def contains_coords(self, x):
        return self._inside(x)

    @functools.cached_property
    def _inside(self):
        return _row_factory(_box_contains, self.manifold.n)(*self.lo.tolist(), *self.hi.tolist())

    def _draw_uniform(self, rng, count):
        return self.lo + (self.hi - self.lo) * rng.uniform(size=(count, self.manifold.n))

    def _rejection_probability(self, points, delta):
        # Per coordinate, the step leaves [lo, hi] with probability
        # Phi((lo - x)/delta) + Phi((x - hi)/delta); the coordinates are
        # independent, so q = 1 - prod(1 - r_i), summed in log space.
        def rows(x):
            scaled = np.concatenate([x - self.lo, self.hi - x], axis=1)
            scaled = scaled.ravel() / (delta * math.sqrt(2.0))
            tails = 0.5 * np.fromiter(map(math.erfc, scaled.tolist()), float, count=scaled.size)
            r = tails.reshape(len(x), 2, -1).sum(axis=1)
            return -np.expm1(np.log1p(-np.minimum(r, 1.0)).sum(axis=1))

        return _in_blocks(rows, points)

    contains_coords.kernel = operator.attrgetter("_inside")
    contains_coords.draw_uniform = _draw_uniform
    contains_coords.rejection_probability = _rejection_probability

    def contains_many(self, points):
        return np.all((points >= self.lo) & (points <= self.hi), axis=1)


def _box_contains(n):
    # Every lower bound first, then every upper one, as all(map(le, lo, x))
    # and all(map(le, x, hi)) evaluate; a bound may be +-inf.
    x, lo, hi = _row_names("x", n), _row_names("lo", n), _row_names("hi", n)
    tests = [f"{a} <= {b}" for a, b in zip(lo, x)] + [f"{a} <= {b}" for a, b in zip(x, hi)]
    return "box_contains_coords", "x", [*lo, *hi], [(x, "x"), f"return {' and '.join(tests)}"]


def sample_uniform_many(body: ConvexBody, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` exact uniform draws from the body, stacked row-wise.

    A body whose ``contains_coords`` declares ``draw_uniform`` draws
    directly.  Otherwise ``Manifold.draw_uniform`` proposals, uniform on the
    whole manifold, are filtered through the membership oracle.  Raises
    :class:`AcceptanceTooLow` once ``_MAX_MISSES`` proposals in a row have
    all missed, which flags bodies too small for rejection sampling to be
    viable.
    """
    if count < 0:
        raise PreconditionError("count must be non-negative")
    chunk = max(1024, min(count, 1 << 16))
    return _sample_uniform(body, rng, count, chunk)


def rejection_sample_uniform(body: ConvexBody, rng: np.random.Generator) -> np.ndarray:
    """One exact uniform draw from the body; see ``sample_uniform_many``.
    Proposals are drawn and tested (by ``contains_coords``) one at a time."""
    return _sample_uniform(body, rng, 1, 1)[0]


def _sample_uniform(body, rng, count, chunk):
    """The samplers' shared loop: ``chunk`` proposals per pass, kept where
    ``contains_many`` (``contains_coords`` for one) accepts them."""
    declared = getattr(body.contains_coords, "draw_uniform", None)
    exact = None if declared is None else declared(body, rng, count)
    if exact is not None:
        return exact
    man = body.manifold
    out = np.empty((count, man.ambient_dim))
    have = misses = 0
    while have < count:
        proposals = man.draw_uniform(rng, chunk)
        # One proposal takes the scalar test, the one the walk's steps use.
        keep = [body.contains_coords(man.as_row(proposals[0]))] if chunk == 1 else body.contains_many(proposals)
        hits = int(np.count_nonzero(keep))
        if hits == 0:
            misses += chunk
            if misses >= _MAX_MISSES:
                raise AcceptanceTooLow(f"{misses} consecutive rejections sampling {body!r}")
            continue
        misses = 0
        take = min(hits, count - have)
        out[have : have + take] = proposals[keep][:take]
        have += take
    return out


# ---------------------------------------------------------------------------
# Closed-form rejection chances of the walk's proposal.


def _in_blocks(rows, points: np.ndarray) -> np.ndarray:
    """``rows`` of ``points``, 256 rows at a time, clipped to [0, 1].

    Each row's value is computed on its own, so the block size changes no
    value; it bounds the working set.  The cap's closed form holds about
    twelve (rows, 48) float arrays at once: 1.2 MiB at 256 rows, 18 MiB at
    4096.
    """
    block = 256
    q = np.empty(len(points))
    for i in range(0, len(points), block):
        q[i : i + block] = rows(points[i : i + block])
    return np.clip(q, 0.0, 1.0, out=q)


def _cap_rejection(s: np.ndarray, n: int, angle: float, delta: float) -> np.ndarray:
    # A proposal from x moves a geodesic distance theta = delta * rho,
    # rho ~ chi_n, in a uniform tangent direction at angle phi to the
    # projected axis, and stays in the cap iff
    #   s cos(theta) + c sin(theta) cos(phi) >= cos(angle),
    # s = <x, axis>, c = sqrt(1 - s^2).  Given theta it is rejected with
    # probability F(kappa) = P(cos phi < kappa), kappa = (cos(angle) -
    # s cos(theta)) / (c |sin(theta)|); the absolute value covers
    # sin(theta) < 0 by the symmetry of cos(phi).  With beta = arccos(s),
    # that probability is 0 on [0, angle - beta], 1 on [angle + beta,
    # 2 pi - angle - beta], mirrored about 2 pi and periodic.  Each piece
    # between those breakpoints is integrated against the chi_n density by
    # Gauss-Legendre in v, theta = end -+ v^2 from both ends, which removes
    # the (theta - end)^((n - 1)/2) endpoint singularities.
    cos_angle = math.cos(angle)
    s = np.clip(s, -1.0, 1.0)[:, None]
    c = np.sqrt((1.0 - s) * (1.0 + s))
    beta = np.arccos(s)
    first = np.maximum(angle - beta, 0.0)
    last = angle + beta
    theta_max = delta * (math.sqrt(n) + 10.0)  # chi_n mass beyond: < e^-50
    log_norm = (0.5 * n - 1.0) * math.log(2.0) + math.lgamma(0.5 * n) + math.log(delta)
    m = n - 3
    full = _angular_tail(-1.0, m)

    def integrand(theta):
        num = cos_angle - s * np.cos(theta)
        den = c * np.abs(np.sin(theta))
        kappa = np.divide(num, den, out=np.copysign(np.inf, num), where=den > 0.0)
        if m == -2:  # sphere:1, cos(phi) = +-1
            tail = 0.5 * ((kappa > -1.0).astype(float) + (kappa > 1.0))
        else:
            tail = _angular_tail(-np.clip(kappa, -1.0, 1.0), m) / full
        rho = theta / delta
        with np.errstate(divide="ignore"):
            log_rho = (n - 1) * np.log(rho) if n > 1 else 0.0
        return tail * np.exp(log_rho - 0.5 * rho * rho - log_norm)

    t, w = _gauss_legendre()
    q = np.zeros(len(s))
    for k in range(int(math.ceil(theta_max / (2.0 * math.pi)))):
        base = 2.0 * math.pi * k
        turn = base + 2.0 * math.pi
        for a, b in ((base + first, base + last), (base + last, turn - last), (turn - last, turn - first)):
            b = np.minimum(b, theta_max)
            a = np.minimum(a, b)
            if not np.any(a < b):
                continue
            root = np.sqrt(0.5 * (b - a))
            v = 0.5 * root * (t + 1.0)
            v2 = v * v
            f = integrand(a + v2) + integrand(b - v2)
            q += (f * (2.0 * v) * w).sum(axis=1) * (0.5 * root[:, 0])
    return q


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(48)


def _angular_tail(kappa, m: int):
    """J_m(kappa) = integral of (1 - t^2)^(m/2) over [kappa, 1], m >= -1,
    by the recurrence J_m = (-kappa (1 - kappa^2)^(m/2) + m J_{m-2}) / (m+1)
    from J_{-1} = arccos(kappa) or J_0 = 1 - kappa."""
    if m % 2:
        j, order = np.arccos(kappa), -1
    else:
        j, order = 1.0 - kappa, 0
    if order < m:
        one_minus_sq = (1.0 - kappa) * (1.0 + kappa)
        while order < m:
            order += 2
            j = (-kappa * one_minus_sq ** (0.5 * order) + order * j) / (order + 1)
    return j
