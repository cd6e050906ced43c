"""Deterministic adaptive quadrature.

The diagnostics in this package compare both sides of analytic inequalities
to within 1e-9, so the integrator targets an absolute tolerance of
``ABS_TOL = 1e-10``, relaxed by a small relative term (``REL_TOL = 1e-12``
times the panel's integral of ``|f|``) that keeps large-magnitude integrands
feasible in double precision: an absolute 1e-10 on an integral of size 1e19
is below roundoff.  At most ``MAX_SUBDIVISIONS`` panels are split per call.

The local rule is the Gauss-Kronrod 10/21 pair of QUADPACK (Piessens et al.,
1983): 21 Kronrod nodes, of which the 10 Gauss-Legendre nodes are a subset.
The Kronrod sum is exact for polynomials up to degree 31 and is the panel's
value; its error estimate is the plain difference ``|K21 - G10|``, which
bounds the Kronrod error generously on smooth panels (QUADPACK's rescaled
``200 * (err / resasc) ** 1.5`` is smaller and can under-estimate).  A panel
is accepted when that difference is at most its share of ``ABS_TOL`` plus
``REL_TOL`` times the Kronrod-weighted integral of ``|f|`` over the panel;
otherwise it is halved, and each half gets half the tolerance.  No
randomness, no external dependencies, identical results on every run.

Integrands are smooth except possibly at known kinks (piecewise-linear test
functions); pass those as ``breakpoints`` so each smooth piece is integrated
separately instead of being discovered by subdivision.
"""

from __future__ import annotations

from typing import Callable, Iterable

import math

from .errors import OracleError, PreconditionError

__all__ = ["integrate"]

ABS_TOL = 1e-10
REL_TOL = 1e-12
MAX_SUBDIVISIONS = 1 << 20

# Gauss-Kronrod 10/21 on [-1, 1]: the positive nodes, largest first, with
# their Kronrod weights; every second node is a Gauss node, and the rest
# have Gauss weight 0.  The centre node 0 is Kronrod-only.
_K21_NODES = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
)
_K21_WEIGHTS = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
)
_K21_CENTRE = 0.149445554002916905664936468389821
_G10_WEIGHTS = (
    0.0,
    0.066671344308688137593568809893332,
    0.0,
    0.149451349150580593145776339657697,
    0.0,
    0.219086362515982043995534934228163,
    0.0,
    0.269266719309996355091226921569469,
    0.0,
    0.295524224714752870173892994651338,
)
_GK21_PAIRS = tuple(zip(_K21_NODES, _K21_WEIGHTS, _G10_WEIGHTS))


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    breakpoints: Iterable[float] = (),
) -> float:
    """Integrate ``f`` over ``[a, b]``.

    The result satisfies ``|error| <= ABS_TOL + REL_TOL * integral(|f|)``
    up to the usual reliability of the Gauss-Kronrod error estimate.  Raises :class:`OracleError` if the subdivision budget runs out before the
    tolerance is met, and :class:`PreconditionError` for a reversed interval.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise PreconditionError("integration limits must be finite")
    if b < a:
        raise PreconditionError(f"reversed interval [{a}, {b}]")
    if b == a:
        return 0.0

    cuts = sorted({a, b, *(float(c) for c in breakpoints if a < float(c) < b)})
    total = 0.0
    length = b - a
    budget = [MAX_SUBDIVISIONS]
    for left, right in zip(cuts[:-1], cuts[1:]):
        piece_tol = ABS_TOL * (right - left) / length
        total += _adaptive(f, left, right, piece_tol, budget)
    return total


def _gk21(f, a: float, b: float) -> tuple[float, float, float]:
    """Kronrod value, Gauss value and Kronrod-weighted integral of ``|f|``."""
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(centre)
    kronrod = _K21_CENTRE * fc
    gauss = 0.0
    mass = _K21_CENTRE * abs(fc)
    for node, wk, wg in _GK21_PAIRS:
        dx = half * node
        f1 = f(centre - dx)
        f2 = f(centre + dx)
        kronrod += wk * (f1 + f2)
        gauss += wg * (f1 + f2)
        mass += wk * (abs(f1) + abs(f2))
    return half * kronrod, half * gauss, half * mass


def _adaptive(f, a: float, b: float, tol: float, budget: list[int]) -> float:
    stack = [(a, b, tol)]
    acc = 0.0
    while stack:
        a0, b0, tol0 = stack.pop()
        kronrod, gauss, mass = _gk21(f, a0, b0)
        accept = abs(kronrod - gauss) <= tol0 + REL_TOL * mass
        if accept or (b0 - a0) <= 1e-15 * (abs(a0) + abs(b0) + 1.0):
            acc += kronrod
            continue
        budget[0] -= 1
        if budget[0] < 0:
            raise OracleError(
                f"quadrature on [{a0}, {b0}] exhausted its subdivision budget "
                f"before reaching tolerance {tol0:g}"
            )
        m0 = 0.5 * (a0 + b0)
        half = 0.5 * tol0
        stack.append((a0, m0, half))
        stack.append((m0, b0, half))
    return acc
