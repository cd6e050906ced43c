"""Built-in convex energies with known Lipschitz constants.

Three families; the annealer reads ``f_many``, ``lipschitz`` and, given
``f``, only its declaration, and the Metropolis walk only ``f``:

- ``distance_to(p)``: geodesic distance to an anchor, Lipschitz 1, minimum
  0 at the anchor.  Geodesically convex on the bodies this package builds
  (caps inside a hemisphere, small balls).
- ``sqdist_to(p)``: half the squared geodesic distance.  Its gradient at
  ``x`` has norm ``d(x, p)``, so on a set of diameter ``D`` the Lipschitz
  constant is ``D``.
- ``linear(c)``: flat-space linear functional, Lipschitz ``|c|``; over a
  box the minimum sits at the vertex picked coordinatewise by the sign of
  ``c``.

The ``f`` of the two distance targets declares ``f.of_distance = (dist,
anchor, outer)``, ``f(x) == outer(dist(anchor, x))`` (``outer`` ``None``:
the distance; it maps arrays elementwise too, as ``f_many`` is
``outer(dist_many(points, anchor))``), so that ``run_chain``, and
``anneal_trials`` given ``f``, can share one scalar per step with a body's
membership test; a custom ``f`` declares nothing.  ``linear``'s
``f`` is a straight-line kernel compiled for the dimension, as the
manifolds' one-row oracles are (see :mod:`geowalk.manifolds`), so a row of
another length raises :class:`DimensionMismatch`.  Every ``f`` reads its
point as ``Manifold.as_row`` gives it; a distance target's ``f`` holds its
anchor in that form too, and ``f_many`` reads the numpy rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import PreconditionError, _require_positive
from .manifolds import Manifold, _dot_constants, _row_factory

__all__ = ["Target", "distance_to", "sqdist_to", "linear"]


@dataclass(frozen=True)
class Target:
    f: Callable[[np.ndarray], float]
    f_many: Callable[[np.ndarray], np.ndarray]
    lipschitz: float


def _of_distance(manifold: Manifold, point, outer, lipschitz: float) -> Target:
    point = np.asarray(point, dtype=float)
    manifold.validate_point(point)
    anchor = manifold.as_row(point)
    f = lambda x: manifold.dist(anchor, x)
    f_many = lambda points: manifold.dist_many(points, point)
    if outer is not None:
        f = lambda x: outer(manifold.dist(anchor, x))
        f_many = lambda points: outer(manifold.dist_many(points, point))
    f.of_distance = (manifold.dist, point, outer)
    return Target(f, f_many, lipschitz)


def distance_to(manifold: Manifold, point: np.ndarray) -> Target:
    return _of_distance(manifold, point, None, 1.0)


def sqdist_to(manifold: Manifold, point: np.ndarray, diameter: float) -> Target:
    """Half squared distance; ``diameter`` bounds the Lipschitz constant on
    the body the target will be used with."""
    _require_positive(diameter, "diameter")
    return _of_distance(manifold, point, lambda d: 0.5 * d * d, float(diameter))


def linear(coefficients: np.ndarray) -> Target:
    """Linear functional ``x -> c . x`` on flat space."""
    c = np.asarray(coefficients, dtype=float)
    if c.ndim != 1 or c.size < 1:
        raise PreconditionError("coefficients must be a 1-D vector")
    with np.errstate(over="ignore"):  # an overflowing norm reads inf, rejected below
        norm = float(np.linalg.norm(c))
    if not 0.0 < norm < math.inf:
        raise PreconditionError("coefficients must have a finite, nonzero norm")
    f = _row_factory(_dot_constants, c.size)(*c.tolist())

    def f_many(points: np.ndarray) -> np.ndarray:
        return points @ c

    return Target(f, f_many, norm)
