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
form.

Their one-row oracles, ``propose_row`` and ``Sphere.dist``, take lists of
Python floats (``as_row`` makes them), which on a few elements avoids
numpy's per-call overhead.  Each is a straight-line kernel that a template
writes for its dimension and the row-kernel helper below compiles once, as
are the membership tests of :mod:`geowalk.bodies` and ``linear``'s ``f``:
the row is unpacked into locals (another length raises
:class:`DimensionMismatch`), and a dot product is ``0.0 + p0``, then each
product in turn, left to right, as CPython 3.11's ``sum`` of floats adds
(3.12's compensates).  The same lines, inlined, make ``run_chain``'s one
step loop.  ``Euclidean.dist`` stays on numpy (``d @ d``), since an
unrolled sum need not round as it does.

The intrinsic dimension is ``tangent_dim``; curvature enters the walk only
through ``curvature_bound``, an upper bound on the Frobenius norm of the
curvature operator.  For ``S^n`` and ``SO(n)`` it is ``n``.
"""

from __future__ import annotations

import functools
import math
import operator
import re

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
        rows = zip(*map(self.as_row, factors))
        return np.stack([self.propose_row(self.as_row(x), r) for x, r in zip(points, rows)])

    def as_row(self, a: np.ndarray):
        """The point ``a`` (or an array of factor rows) in the form the
        one-row oracles read: ``propose_row``, ``dist``, the bodies'
        ``contains_coords`` and a target's ``f``.  ``a`` itself by default,
        ``a.tolist()`` on ``Sphere`` and ``Euclidean``.  Every call of the
        package that hands them a numpy point converts it here, one point
        at a time."""
        return a

    def propose_row(self, x, factors):
        """The one-row twin of :meth:`propose_factored`: the proposal from
        the point ``x`` for one row of :meth:`proposal_factors`, which it
        may overwrite, both converted by :meth:`as_row`; the result is in
        that form too.  Never writes to ``x``."""
        g, delta = factors
        return self.exp(x, delta * self.tangent_from_gaussian(x, g))

    def dist_many(self, points: np.ndarray, y: np.ndarray) -> np.ndarray:
        y = self.as_row(y)
        return np.array([self.dist(self.as_row(x), y) for x in points])

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


# ---------------------------------------------------------------------------
# Straight-line float-row kernels.  Each one-row oracle that takes lists of
# Python floats (the sphere's and R^n's below, the cap's and the box's
# membership tests, ``linear``'s ``f``) is written out for its dimension by
# a template and compiled once per template and dimension: every coordinate
# is a local, and no map, zip, sum or comprehension runs per call.  A
# template ``template(n)`` returns ``(name, signature, constants, lines)``;
# a line is a statement, or ``(names, row)``, the unpacking of the argument
# ``row`` into ``names``, which raises DimensionMismatch for a row of any
# other length.  ``constants`` are the names the caller binds, in order.


def _row_names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def _row_dot(total: str, left: list[str], right: list[str]) -> list[str]:
    """Statements that set ``total`` to the sum of the products ``a * b``
    of ``zip(left, right)``, each operand order kept, in the one order every
    float row is summed in: ``0.0 + p0``, then each product in turn, left to
    right.  That is CPython 3.11's ``sum`` of floats (3.12's compensates),
    ``0.0 +`` included: it turns a ``-0.0`` first product into ``+0.0``.
    One statement per product keeps the code flat at any dimension."""
    first, *rest = (f"{a} * {b}" for a, b in zip(left, right))
    return [f"{total} = 0.0 + {first}", *(f"{total} += {p}" for p in rest)]


def _dot_constants(n):
    """The kernel ``x -> <x, c>`` for the constants ``c`` bound at make
    time: a cap's read ``<x, axis>`` and ``linear``'s ``f``."""
    x, c = _row_names("x", n), _row_names("c", n)
    return "dot_constants", "x", c, [(x, "x"), *_row_dot("s", x, c), "return s"]


@functools.cache
def _row_factory(template, n: int):
    """The maker of the kernel that ``template`` writes for rows of ``n``
    coordinates, or of the one whose ``(name, signature, constants, lines)``
    it is: call it with the constants, in order.  The kernel declares
    ``row = (template, n, constants)``."""
    name, signature, constants, lines = template if isinstance(template, tuple) else template(n)
    source = [f"def make({', '.join(constants)}):", f"    def {name}({signature}):"]
    for line in lines:
        if isinstance(line, str):
            source.append(f"        {line}")
            continue
        names, row = line
        message = f"{name}: {row} must have {len(names)} entries"
        source += [
            "        try:",
            f"            {', '.join(names)}, = {row}",
            "        except ValueError as exc:",
            f"            raise DimensionMismatch({message!r}) from exc",
        ]
    source.append(f"    {name}.row = template, {n}, ({''.join(c + ', ' for c in constants)})")
    source.append(f"    return {name}")
    namespace = {"DimensionMismatch": DimensionMismatch, "acos": math.acos, "template": template}
    exec(compile("\n".join(source), f"<row kernel {name}, n={n}>", "exec"), namespace)
    return namespace["make"]


def _inline(fn, owner, point, tag):
    """The kernel that the one-row oracle ``fn`` is, or declares it calls
    (``fn.kernel(owner)``), as lines for a caller that holds the point it
    reads as the locals ``point``: the unpacking of ``x`` is dropped, each
    constant ``c`` is renamed ``c_<tag>`` and the returned expression comes
    apart.  Returns ``(lines, expression, {renamed constant: value})``, or
    ``None`` if ``fn`` is no kernel."""
    kernel = getattr(fn, "kernel", None)
    row = getattr(fn if kernel is None else kernel(owner), "row", None)
    if row is None:
        return None
    template, n, values = row
    _, _, constants, lines = template(n)
    rename, kept = {c: f"{c}_{tag}" for c in constants}, []
    for line in lines:
        if isinstance(line, tuple) and line[1] == "x":
            rename.update(zip(line[0], point))
        else:
            kept.append(line)
    word = lambda line: re.sub(r"\w+", lambda m: rename.get(m[0], m[0]), line)
    *body, result = (line if isinstance(line, tuple) else word(line) for line in kept)
    return body, result.removeprefix("return "), dict(zip(map(rename.get, constants), values))


def _euclidean_propose_row(n):
    x, d = _row_names("x", n), _row_names("d", n)
    step = ", ".join(f"{a} + {b}" for a, b in zip(x, d))
    return "euclidean_propose_row", "x, factors", (), [(["d"], "factors"), (x, "x"), (d, "d"), f"return [{step}]"]


class Euclidean(Manifold):
    """Flat ``R^n``: exp is addition, distance is the Euclidean norm."""

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
        if len(x) != self.n or len(y) != self.n:
            raise DimensionMismatch(f"dist on {self.descriptor}: rows must have {self.n} entries")
        d = np.subtract(x, y)
        return math.sqrt(d @ d)

    def tangent_from_gaussian(self, x, g):
        return g

    def validate_point(self, x, atol=1e-8):
        self._check_shape(x)

    def as_row(self, a):
        return a.tolist()

    def proposal_factors(self, g, delta):
        return (delta * g,)

    def propose_factored(self, points, factors):
        return points + factors[0]

    def propose_row(self, x, factors):
        return self._propose_row(x, factors)

    @functools.cached_property
    def _propose_row(self):
        return _row_factory(_euclidean_propose_row, self.n)()

    propose_row.kernel = operator.attrgetter("_propose_row")

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


def _sphere_dist(m):
    x, y = _row_names("x", m), _row_names("y", m)
    return "sphere_dist", "x, y", (), [(x, "x"), (y, "y"), *_row_dot("c", x, y), f"return {_acos('c')}"]


def _acos(c: str) -> str:
    """``_arccos`` of the float ``c`` as an expression."""
    return f"acos(1.0 if {c} > 1.0 else -1.0 if {c} < -1.0 else {c})"


def _sphere_propose_row(m):
    # propose_factored on Python floats: the normals pair with x[:-1], and
    # the step row's last entry, -s q, is computed here.
    x, g, b = _row_names("x", m), _row_names("g", m - 1), _row_names("b", m - 1)
    last = x[-1]
    row = ", ".join(f"c * {a} + {s}" for a, s in zip(x, b))
    return "sphere_propose_row", "x, factors", (), [
        (["g", "cos_t", "k", "step"], "factors"),
        (x, "x"),
        (g, "g"),
        ([*b, "_"], "step"),
        *_row_dot("s", x[:-1], g),
        f"q = k * s / (1.0 + abs({last}))",
        "c = cos_t - q",
        f"return [{row}, c * {last} + (-q if {last} >= 0.0 else q)]",
    ]


class Sphere(Manifold):
    """Unit sphere ``S^n`` in ``R^{n+1}`` with the round metric.

    Geodesics are great circles: ``exp_x(v) = cos|v| x + sin|v| v/|v|`` and
    ``d(x, y) = arccos <x, y>``.  Tangent Gaussians are built in an explicit
    orthonormal tangent basis obtained from the Householder reflection that
    swaps ``x`` with the last coordinate axis, so each takes exactly ``n``
    normal variates and is tangent to machine precision.
    """

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

    def as_row(self, a):
        return a.tolist()

    def dist(self, x, y):
        return self._dist(x, y)

    @functools.cached_property
    def _dist(self):
        return _row_factory(_sphere_dist, self.ambient_dim)()

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
        return self._propose_row(x, factors)

    @functools.cached_property
    def _propose_row(self):
        return _row_factory(_sphere_propose_row, self.ambient_dim)()

    propose_row.kernel = operator.attrgetter("_propose_row")

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
