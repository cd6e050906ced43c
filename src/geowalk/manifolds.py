"""Constant-curvature manifolds with exponential-map and distance oracles.

Three geometries are provided: Euclidean space ``R^n``, the unit sphere
``S^n`` embedded in ``R^{n+1}``, and the rotation group ``SO(n)`` with the
bi-invariant metric ``<A, B> = tr(A^T B)``.  Points and tangent vectors are
plain float arrays in ambient coordinates; ``SO(n)`` elements are stored as
row-major flattened ``n x n`` matrices so that every manifold exposes the
same 1-D coordinate layout to the walk, the CLI, and the output files.

Every ``exp`` re-projects its result (sphere: renormalisation, SO(n): one
Newton-Schulz polar step), so long chains of composed steps do not drift
off the manifold.  The walk kernels below do not: the sphere's closed-form
step lands on the sphere up to rounding, and the walks hand their state to
the optional ``project`` once per ``walk._SLICE`` steps instead.

A manifold is defined by four oracles: ``exp``, ``dist``,
``tangent_from_gaussian`` and ``validate_point``.  The staged proposal
below and ``dist_many`` have defaults built from them, which a subclass
may override for speed.  The optional ``draw_uniform`` (compact spaces
only) and ``transport`` raise :class:`PreconditionError` unless defined;
the optional ``project`` is the identity unless defined.

The walk's proposal ``exp_x(delta * tangent_from_gaussian(x, g))`` is the
one step kernel.  It is computed in two stages, from the raw normals ``g``
that the caller drew, so it consumes no randomness and the walk's draw
order does not depend on it.  ``proposal_factors(g, delta)`` does what
does not read the points, for normals of any leading shape (on the sphere
``cos t``, ``k = sin(t)/|g|`` and ``k g``, ``t = delta |g|``; ``delta g``
on ``R^n``).  ``propose_row(x, factors)`` does the rest for one point (the
step of ``run_chain``), and ``propose_factored(points, factors)`` for one
step's rows; by default it loops over ``propose_row``.  ``propose_many``
composes the stages.  ``Euclidean`` and ``Sphere`` evaluate them in closed
form, and their one-row kernels, ``propose_row`` and ``Sphere.dist``, work
on Python floats: they take lists (``dist`` also numpy rows) and return
lists, which on a few elements avoids numpy's per-call overhead.

The intrinsic dimension is ``tangent_dim``; curvature enters the walk only
through ``curvature_bound``, an upper bound on the Frobenius norm of the
curvature operator.  For ``S^n`` and ``SO(n)`` it is ``n``.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import DimensionMismatch, PreconditionError

__all__ = [
    "Manifold",
    "Euclidean",
    "Sphere",
    "SpecialOrthogonal",
    "from_descriptor",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class Manifold:
    """Shared interface; see the concrete classes for the actual maps."""

    # set by subclasses
    ambient_dim: int
    tangent_dim: int
    curvature_bound: float
    injectivity_radius: float
    # Whether the one-row oracles ``propose_row`` and ``dist`` take lists
    # of Python floats (``propose_row`` then returns one, from factor rows
    # converted with ``tolist``); ``run_chain`` keeps a chain's state in
    # that form between steps when they do.
    float_rows = False

    @property
    def descriptor(self) -> str:
        raise NotImplementedError

    def exp(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def dist(self, x: np.ndarray, y: np.ndarray) -> float:
        raise NotImplementedError

    def tangent_from_gaussian(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Embed a vector of ``tangent_dim`` raw normals as a tangent vector
        at ``x``, isometrically, so standard normals map to the standard
        tangent Gaussian.  Separated from the draw itself so callers may
        pre-draw randomness in bulk."""
        raise NotImplementedError

    def validate_point(self, x: np.ndarray, atol: float = 1e-8) -> None:
        raise NotImplementedError

    # The staged proposal and the batched distance.  These defaults are
    # built from the four oracles above, row by row; Sphere and Euclidean
    # override them with closed forms for speed.

    def propose_many(self, points: np.ndarray, g: np.ndarray, delta: float) -> np.ndarray:
        """Walk proposals ``exp_x(delta * tangent_from_gaussian(x, g))``, one
        per row of ``points`` and of the raw normals ``g``.  Never writes to
        ``points``, which may be a broadcast view."""
        return self.propose_factored(points, self.proposal_factors(g, delta))

    def proposal_factors(self, g: np.ndarray, delta: float) -> tuple:
        """The part of :meth:`propose_many` that does not read the points:
        arrays with the leading axes of ``g``, so for normals ``(steps,
        rows, tangent_dim)`` step ``j``'s factors are their ``[j]`` rows."""
        return g, np.full(g.shape[:-1], delta)

    def propose_factored(self, points: np.ndarray, factors: tuple) -> np.ndarray:
        """:meth:`propose_many` from a step's :meth:`proposal_factors`, which it may overwrite."""
        return np.stack([self.propose_row(x, r) for x, r in zip(points, zip(*factors))])

    def propose_row(self, x, factors):
        """The one-row twin of :meth:`propose_factored`: the proposal from
        the point ``x`` for one row of :meth:`proposal_factors`, which it
        may overwrite.  Never writes to ``x``.  Where ``float_rows`` is
        set, ``x`` and the factor row hold Python floats (array rows
        converted with ``tolist``) and the result is a list of floats."""
        g, delta = factors
        return self.exp(x, delta * self.tangent_from_gaussian(x, g))

    def dist_many(self, points: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.array([self.dist(x, y) for x in points])

    def project(self, points: np.ndarray) -> np.ndarray:
        """Map the rows of ``points`` (or the one point), each within
        rounding of the manifold, back onto it, in place; returns
        ``points``.  The walks call it on their state once per
        ``walk._SLICE`` steps.  The default is the identity."""
        return points

    def draw_uniform(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` exact uniform draws on the whole manifold, row-wise; the
        uniform samplers of :mod:`geowalk.bodies` filter them by membership."""
        raise PreconditionError(f"{self.descriptor} defines no draw_uniform(rng, count)")

    def transport(self, x: np.ndarray, y: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Isometry from the tangent space at ``x`` to the one at ``y``, over
        the rows of ``v``; ``estimate_one_step_tv`` couples its starts by it."""
        raise PreconditionError(f"{self.descriptor} defines no transport(x, y, v)")

    def _check_shape(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.ambient_dim,):
            raise DimensionMismatch(
                f"point for {self.descriptor} must have shape ({self.ambient_dim},), "
                f"got {x.shape}"
            )
        if not np.all(np.isfinite(x)):
            raise PreconditionError(f"non-finite point for {self.descriptor}")
        return x


class Euclidean(Manifold):
    """Flat ``R^n``: exp is addition, distance is the Euclidean norm."""

    float_rows = True

    def __init__(self, n: int):
        if n < 1:
            raise PreconditionError("Euclidean dimension must be >= 1")
        self.n = int(n)
        self.ambient_dim = self.n
        self.tangent_dim = self.n
        self.curvature_bound = 0.0
        self.injectivity_radius = math.inf

    @property
    def descriptor(self) -> str:
        return f"euclidean:{self.n}"

    def exp(self, x, v):
        return x + v

    def dist(self, x, y):
        d = np.subtract(x, y)
        return math.sqrt(d @ d)

    def tangent_from_gaussian(self, x, g):
        return g

    def validate_point(self, x, atol=1e-8):
        self._check_shape(x)

    def proposal_factors(self, g, delta):
        return (delta * g,)

    def propose_factored(self, points, factors):
        return points + factors[0]

    def propose_row(self, x, factors):
        return [a + b for a, b in zip(x, factors[0])]

    def dist_many(self, points, y):
        d = points - y
        return np.sqrt(np.einsum("ij,ij->i", d, d))

    def transport(self, x, y, v):
        return v


def _arccos(c):
    """``arccos c``, ``c`` clipped to [-1, 1]: in place on an array, else by ``math.acos``."""
    if not isinstance(c, float) and isinstance(c, np.ndarray):  # the float test is the cheap one
        np.minimum(c, 1.0, out=c)
        np.maximum(c, -1.0, out=c)
        return np.arccos(c, out=c)
    return math.acos(1.0 if c > 1.0 else -1.0 if c < -1.0 else c)


class Sphere(Manifold):
    """Unit sphere ``S^n`` in ``R^{n+1}`` with the round metric.

    Geodesics are great circles: ``exp_x(v) = cos|v| x + sin|v| v/|v|`` and
    ``d(x, y) = arccos <x, y>``.  Tangent Gaussians are built in an explicit
    orthonormal tangent basis obtained from the Householder reflection that
    swaps ``x`` with the last coordinate axis, so each takes exactly ``n``
    normal variates and is tangent to machine precision.
    """

    float_rows = True

    def __init__(self, n: int):
        if n < 1:
            raise PreconditionError("sphere dimension must be >= 1")
        self.n = int(n)
        self.ambient_dim = self.n + 1
        self.tangent_dim = self.n
        self.curvature_bound = float(n)
        self.injectivity_radius = math.pi

    @property
    def descriptor(self) -> str:
        return f"sphere:{self.n}"

    def exp(self, x, v):
        t = math.sqrt(v @ v)
        if t == 0.0:
            return x.copy()
        y = math.cos(t) * x + (math.sin(t) / t) * v
        y /= math.sqrt(y @ y)
        return y

    def dist(self, x, y):
        return _arccos(sum(map(operator.mul, x, y)))

    def tangent_from_gaussian(self, x, g):
        s = 1.0 if x[-1] >= 0.0 else -1.0
        w = x.copy()
        w[-1] += s
        c = 2.0 * (w[:-1] @ g) / (w @ w)
        u = np.empty(self.ambient_dim)
        u[:-1] = g - c * w[:-1]
        u[-1] = -c * w[-1]
        return u

    def validate_point(self, x, atol=1e-8):
        x = self._check_shape(x)
        if abs(x @ x - 1.0) > 2.0 * atol:
            raise PreconditionError(
                f"point is off the unit sphere by {abs(math.sqrt(x @ x) - 1.0):.3g}"
            )

    # Householder embedding and great-circle step fused in closed form.
    # With a = x[:-1].g, h = 1 + |x_n|, s = sign(x_n) (+1 at zero) and
    # t = delta |g| = delta |u|, the embedded tangent is
    # u = (g - (a/h) x[:-1], -s a), so exp_x(delta u) is
    # (cos t - q) x + (k g, -s q) with k = delta sin(t)/t and q = k a/h.
    def proposal_factors(self, g, delta):
        norm = np.sqrt(np.vecdot(g, g))
        # A floor far below any normal draw keeps sin(t)/|g| finite at
        # g = 0, where it rounds to delta and multiplies zeros anyway.
        np.maximum(norm, 1e-300, out=norm)
        t = norm * delta
        cos_t = np.cos(t)
        k = np.sin(t, out=t)
        k /= norm
        # (k g, -s q): propose_factored writes each row's -s q into the last
        # column, so the step is one contiguous add.
        step = np.empty(g.shape[:-1] + (self.ambient_dim,))
        np.multiply(g, k[..., None], out=step[..., :-1])
        return g, cos_t, k, step

    def propose_factored(self, points, factors):
        g, cos_t, k, step = factors
        last = points[:, -1]
        q = np.vecdot(points[:, :-1], g, out=step[:, -1])
        q *= k
        h = np.abs(last)
        h += 1.0
        q /= h
        c = cos_t - q
        np.negative(q, out=q, where=last >= 0.0)
        y = points * c[:, None]
        y += step
        return y

    def propose_row(self, x, factors):
        # propose_factored on Python floats.  ``g`` has one entry fewer than
        # ``x``, so zipping the two pairs the normals with x[:-1].
        g, cos_t, k, step = factors
        last = x[-1]
        q = k * sum(map(operator.mul, x, g)) / (1.0 + abs(last))
        c = cos_t - q
        step[-1] = -q if last >= 0.0 else q
        return [c * a + b for a, b in zip(x, step)]

    def dist_many(self, points, y):
        return _arccos(points @ y)

    def project(self, points):
        points /= np.sqrt(np.vecdot(points, points))[..., None]
        return points

    def draw_uniform(self, rng, count):
        g = rng.standard_normal((count, self.ambient_dim))
        g /= np.sqrt(np.einsum("ij,ij->i", g, g))[:, None]
        return g

    def transport(self, x, y, v):
        # Parallel transport along the great circle from x to y.
        c = x @ y
        if c <= -1.0 + 1e-12:
            raise PreconditionError("cannot transport between antipodal points")
        along = (v @ y) / (1.0 + c)
        return v - along[:, None] * (x + y)[None, :]


def _expm_skew(om):
    """``exp`` of the real skew matrix ``om``: ``i om`` is Hermitian, so
    with ``i om = U diag(w) U^H`` the exponential is ``U diag(e^{-iw}) U^H``."""
    w, u = np.linalg.eigh(1j * om)
    return ((u * np.exp(-1j * w)) @ u.conj().T).real


def _angle_norm(rel):
    """Root sum of squared eigenvalue angles of the rotations ``rel`` (over
    the last two axes): the geodesic distance of each to the identity,
    defined for every rotation (``pi sqrt(2)`` for a half-turn)."""
    ang = np.angle(np.linalg.eigvals(rel))
    return np.sqrt(np.sum(ang * ang, axis=-1))


class SpecialOrthogonal(Manifold):
    """Rotation group ``SO(n)`` under the metric ``<A, B> = tr(A^T B)``.

    Points are flattened ``n x n`` matrices.  ``exp_X(V) = X expm(Om)``
    with ``Om`` the skew part of ``X^T V``, exponentiated for every ``n``
    from one Hermitian eigendecomposition of ``i Om``.  The geodesic
    distance is the least Frobenius norm of a logarithm of ``X^T Y``, from
    the eigenvalue angles of that (normal) relative rotation.  It is defined
    everywhere; on the cut locus (an angle at ``pi``) only the minimising
    geodesic, which the walk never uses, is not unique.

    The injectivity radius is declared as ``pi`` under this metric
    normalisation (conservative), and the curvature bound is ``n``.
    """

    def __init__(self, n: int):
        if n < 2:
            raise PreconditionError("SO(n) needs n >= 2")
        self.n = int(n)
        self.ambient_dim = self.n * self.n
        self.tangent_dim = self.n * (self.n - 1) // 2
        self.curvature_bound = float(n)
        self.injectivity_radius = math.pi
        self._iu = np.triu_indices(self.n, 1)

    @property
    def descriptor(self) -> str:
        return f"so:{self.n}"

    def _mat(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(self.n, self.n)

    def exp(self, x, v):
        xm = self._mat(x)
        om = xm.T @ self._mat(v)
        y = xm @ _expm_skew(0.5 * (om - om.T))
        # One Newton-Schulz polar step pulls y back onto O(n).
        return (1.5 * y - 0.5 * y @ (y.T @ y)).ravel()

    def dist(self, x, y):
        return float(_angle_norm(self._mat(x).T @ self._mat(y)))

    def tangent_from_gaussian(self, x, g):
        om = np.zeros((self.n, self.n))
        om[self._iu] = g * _INV_SQRT2
        om -= om.T
        return (self._mat(x) @ om).ravel()

    def validate_point(self, x, atol=1e-8):
        x = self._check_shape(x)
        xm = self._mat(x)
        if np.linalg.norm(xm.T @ xm - np.eye(self.n)) > atol:
            raise PreconditionError("matrix is not orthogonal to tolerance")
        if np.linalg.det(xm) < 0.0:
            raise PreconditionError("matrix has determinant -1, not in SO(n)")

    def dist_many(self, points, y):
        xs = points.reshape(-1, self.n, self.n)
        return _angle_norm(np.einsum("kji,jl->kil", xs, self._mat(y)))

    def transport(self, x, y, v):
        # Left translation by y x^T.
        rel = self._mat(y) @ self._mat(x).T
        return np.einsum("ij,kjl->kil", rel, v.reshape(-1, self.n, self.n)).reshape(v.shape)

    def draw_uniform(self, rng, count):
        """``count`` Haar-uniform rotations, flattened, via sign-fixed QR."""
        g = rng.standard_normal((count, self.n, self.n))
        q, r = np.linalg.qr(g)
        d = np.sign(np.einsum("kii->ki", r))
        d[d == 0.0] = 1.0
        q = q * d[:, None, :]
        dets = np.linalg.det(q)
        q[dets < 0.0, :, -1] *= -1.0
        return q.reshape(count, self.ambient_dim)


def from_descriptor(text: str) -> Manifold:
    """Build a manifold from ``euclidean:<n>``, ``sphere:<n>``, or ``so:<n>``."""
    parts = text.strip().lower().split(":")
    if len(parts) != 2:
        raise PreconditionError(f"bad manifold descriptor {text!r}")
    kind, num = parts
    try:
        n = int(num)
    except ValueError as exc:
        raise PreconditionError(f"bad manifold dimension in {text!r}") from exc
    if kind == "euclidean":
        return Euclidean(n)
    if kind == "sphere":
        return Sphere(n)
    if kind == "so":
        return SpecialOrthogonal(n)
    raise PreconditionError(f"unknown manifold kind {kind!r}")
