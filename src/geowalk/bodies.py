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

``rejection_sample_uniform`` gives exact draws from the Riemannian uniform
distribution on a built-in body.  It is deliberately independent of the
walk (global proposals plus rejection) so it can serve as ground truth when
testing the walk itself.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .errors import AcceptanceTooLow, CutLocusError, DimensionMismatch, NotConvex, PreconditionError
from .manifolds import Euclidean, Manifold, SpecialOrthogonal, Sphere, _arccos

__all__ = [
    "ConvexBody",
    "SphericalCap",
    "GeodesicBall",
    "EuclideanBox",
    "rejection_sample_uniform",
    "sample_uniform_many",
]


class ConvexBody:
    """Membership oracle plus declared (inner_center, inner_radius, diameter).

    Subclasses must set the three metadata attributes and implement
    ``contains_coords``; ``contains_many`` has a loop fallback here and
    should be overridden when a vectorised test is cheap.
    """

    manifold: Manifold
    inner_center: np.ndarray
    inner_radius: float
    diameter: float

    def contains_coords(self, x) -> bool:
        """Membership test of one point, no validation.  On ``sphere:n``
        and ``euclidean:n`` the walk passes the point as a list of floats;
        the built-in bodies take either form.

        A test that reads one scalar ``s = read(x)`` (the cap's ``<x, axis>``,
        the ball's ``d(center, x)``) declares ``contains_coords.scalar(body)
        = (dist, anchor, read, inside, arc)``: ``x`` is inside iff ``inside(s)``
        and ``dist(anchor, x) == arc(s)`` (``s`` if ``arc`` is ``None``)."""
        raise NotImplementedError

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        return np.fromiter(
            (self.contains_coords(p) for p in points), dtype=bool, count=len(points)
        )

    @property
    def spec_string(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.spec_string!r} on "
            f"{self.manifold.descriptor}, r={self.inner_radius:.4g}, "
            f"D={self.diameter:.4g})"
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
        self._axis = self.axis.tolist()
        self.angle = angle
        self.cos_angle = math.cos(angle)
        self.inner_center = self.axis
        self.inner_radius = angle
        self.diameter = 2.0 * angle

    def contains_coords(self, x):
        return sum(map(operator.mul, x, self._axis)) >= self.cos_angle

    def _scalar(self):
        # Sphere.dist, bound to this sphere, sums this dot product in this order.
        axis, inside, mul = self._axis, functools.partial(operator.le, self.cos_angle), operator.mul
        read = lambda y: sum(map(mul, y, axis))
        return Sphere.dist.__get__(self.manifold), axis, read, inside, _arccos

    contains_coords.scalar = _scalar

    def contains_many(self, points):
        return points @ self.axis >= self.cos_angle

    @property
    def spec_string(self) -> str:
        coords = ",".join(repr(float(c)) for c in self.axis)
        return f"cap:{coords}:{self.angle!r}"


class GeodesicBall(ConvexBody):
    """Closed geodesic ball of radius below half the injectivity radius."""

    def __init__(self, manifold: Manifold, center: np.ndarray, radius: float):
        radius = float(radius)
        if radius <= 0.0:
            raise PreconditionError("ball radius must be positive")
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
        self.radius = radius
        self.inner_center = center
        self.inner_radius = radius
        self.diameter = 2.0 * radius

    def contains_coords(self, x):
        return self.manifold.dist(self.center, x) <= self.radius

    def _scalar(self):
        dist, inside = self.manifold.dist, functools.partial(operator.ge, self.radius)
        return dist, self.center, functools.partial(dist, self.center), inside, None

    contains_coords.scalar = _scalar

    def contains_many(self, points):
        return self.manifold.dist_many(points, self.center) <= self.radius

    @property
    def spec_string(self) -> str:
        coords = ",".join(repr(float(c)) for c in self.center)
        return f"ball:{coords}:{self.radius!r}"


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
        self._lo = lo.tolist()
        self._hi = hi.tolist()
        self.inner_center = 0.5 * (lo + hi)
        self.inner_radius = float(0.5 * np.min(hi - lo))
        self.diameter = float(np.linalg.norm(hi - lo))

    def contains_coords(self, x):
        return all(map(operator.le, self._lo, x)) and all(map(operator.le, x, self._hi))

    def contains_many(self, points):
        return np.all((points >= self.lo) & (points <= self.hi), axis=1)

    @property
    def spec_string(self) -> str:
        lo = ",".join(repr(float(c)) for c in self.lo)
        hi = ",".join(repr(float(c)) for c in self.hi)
        return f"box:{lo}:{hi}"


def _contains_row(body: ConvexBody, x: np.ndarray) -> bool:
    """Membership of one point; a point on the cut locus of the test
    counts as outside the body."""
    try:
        return body.contains_coords(x)
    except CutLocusError:
        return False


def _contains_rows(body: ConvexBody, points: np.ndarray) -> np.ndarray:
    """Membership of each row of ``points``.  When the batched test hits
    the cut locus, the rows are tested one by one with
    :func:`_contains_row`."""
    try:
        return body.contains_many(points)
    except CutLocusError:
        return np.fromiter(
            (_contains_row(body, row) for row in points), dtype=bool, count=len(points)
        )


def _propose_global(
    body: ConvexBody, rng: np.random.Generator, count: int
) -> np.ndarray:
    """Global uniform proposals covering the body, as a (count, ambient) array."""
    man = body.manifold
    if isinstance(man, Sphere):
        g = rng.standard_normal((count, man.ambient_dim))
        return g / np.sqrt(np.einsum("ij,ij->i", g, g))[:, None]
    if isinstance(man, SpecialOrthogonal):
        return man.haar_many(rng, count)
    if isinstance(man, Euclidean):
        if isinstance(body, EuclideanBox):
            return body.lo + (body.hi - body.lo) * rng.uniform(size=(count, man.n))
        if isinstance(body, GeodesicBall):
            # Exact ball sampling: uniform direction, radial CDF inversion.
            g = rng.standard_normal((count, man.n))
            g /= np.sqrt(np.einsum("ij,ij->i", g, g))[:, None]
            radii = body.radius * rng.uniform(size=count) ** (1.0 / man.n)
            return body.center + radii[:, None] * g
        raise PreconditionError(
            f"no global proposal distribution for {type(body).__name__} on "
            f"{man.descriptor}"
        )
    raise PreconditionError(f"no global proposal distribution on {man.descriptor}")


def sample_uniform_many(
    body: ConvexBody,
    rng: np.random.Generator,
    count: int,
    max_consecutive_rejections: int = 10**6,
) -> np.ndarray:
    """``count`` exact uniform draws from the body, stacked row-wise.

    Proposals are uniform on the whole manifold (or drawn directly for
    Euclidean built-ins) and filtered through the membership oracle; a
    proposal on the cut locus of that test counts as outside.  Raises
    :class:`AcceptanceTooLow` once ``max_consecutive_rejections`` proposals
    in a row have all missed, which flags bodies too small for rejection
    sampling to be viable.
    """
    if count < 0:
        raise PreconditionError("count must be non-negative")
    man = body.manifold
    if isinstance(man, Euclidean) and isinstance(body, (EuclideanBox, GeodesicBall)):
        return _propose_global(body, rng, count)

    out = np.empty((count, man.ambient_dim))
    have = 0
    misses = 0
    chunk = max(1024, min(count, 1 << 16))
    while have < count:
        proposals = _propose_global(body, rng, chunk)
        keep = _contains_rows(body, proposals)
        hits = int(np.count_nonzero(keep))
        if hits == 0:
            misses += chunk
            if misses >= max_consecutive_rejections:
                raise AcceptanceTooLow(
                    f"{misses} consecutive rejections sampling {body!r}"
                )
            continue
        misses = 0
        take = min(hits, count - have)
        out[have : have + take] = proposals[keep][:take]
        have += take
    return out


def rejection_sample_uniform(
    body: ConvexBody,
    rng: np.random.Generator,
    max_consecutive_rejections: int = 10**6,
) -> np.ndarray:
    """One exact uniform draw from the body; see ``sample_uniform_many``."""
    man = body.manifold
    if isinstance(man, Euclidean) and isinstance(body, (EuclideanBox, GeodesicBall)):
        return _propose_global(body, rng, 1)[0]
    misses = 0
    while True:
        x = _propose_global(body, rng, 1)[0]
        if _contains_row(body, x):
            return x
        misses += 1
        if misses >= max_consecutive_rejections:
            raise AcceptanceTooLow(
                f"{misses} consecutive rejections sampling {body!r}"
            )
