"""Reference one-row oracles, written as explicit loops.

Each mirrors a straight-line kernel of ``geowalk`` (``Sphere.propose_row``
and ``dist``, ``Euclidean.propose_row``, the cap's and the box's
``contains_coords`` and the cap's declared ``read``, ``linear``'s ``f``)
in the plain order those kernels fix: ``acc = 0.0``, then ``acc += a * b``
per pair, left to right, each product's operand order kept.  They call no
``sum()``, whose order changes with the Python version, and no code of the
kernels, so a test that compares the two bit for bit pins the kernels on
any version.  Safety code: keep them as they are.
"""

import math


def dot(left, right):
    acc = 0.0
    for a, b in zip(left, right, strict=True):
        acc += a * b
    return acc


def arccos(c):
    # The clip lets NaN through, as the kernels' does.
    return math.acos(1.0 if c > 1.0 else -1.0 if c < -1.0 else c)


def sphere_dist(x, y):
    return arccos(dot(x, y))


def sphere_propose_row(x, factors):
    g, cos_t, k, step = factors
    assert len(g) == len(x) - 1 and len(step) == len(x)
    last = x[-1]
    q = k * dot(x[:-1], g) / (1.0 + abs(last))
    c = cos_t - q
    row = [c * a + b for a, b in zip(x[:-1], step[:-1])]
    row.append(c * last + (-q if last >= 0.0 else q))
    return row


def euclidean_propose_row(x, factors):
    (d,) = factors
    return [a + b for a, b in zip(x, d, strict=True)]


def propose_row(man, x, factors):
    """The reference of ``man.propose_row`` on ``sphere:n`` or
    ``euclidean:n``, whose ``as_row`` makes lists of floats."""
    name = type(man).__name__
    if name == "Sphere":
        return sphere_propose_row(x, factors)
    assert name == "Euclidean"
    return euclidean_propose_row(x, factors)


def cap_read(axis, x):
    return dot(x, axis)


def cap_contains(axis, cos_angle, x):
    return dot(x, axis) >= cos_angle


def box_contains(lo, hi, x):
    assert len(lo) == len(hi) == len(x)
    for a, b in zip(lo, x):
        if not a <= b:
            return False
    for a, b in zip(x, hi):
        if not a <= b:
            return False
    return True


def linear_f(coefficients, x):
    return dot(coefficients, x)
