"""Numerical verification of the checkable inequalities.

Two kinds of check live here.  The 1-D needle inequalities (affine decay,
the convex-weight expectation bound, partition-function log-concavity) are
evaluated by deterministic adaptive quadrature and must hold to tolerance
whenever their hypotheses hold; randomized instance batteries probe them
across parameter space.  The geometric checks (interior volume, isoperimetry,
one-step kernel overlap, adjacent-temperature warmness, low-temperature
expectation, TV decay) are Monte Carlo estimates with explicit standard
errors, and every pass/fail decision uses the same rule: an inequality
``lhs <= rhs`` passes when ``lhs <= rhs + 3 * mc_stderr + abs_tol``.

Everything is seed-deterministic: given the same generator state, every
estimator returns bit-identical numbers.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .anneal import initial_temperature, make_schedule
from .bodies import ConvexBody, EuclideanBox, SphericalCap, sample_uniform_many
from .errors import (
    NotConvex,
    PreconditionError,
    ScheduleTooAggressive,
    SeparationViolated,
)
from .manifolds import Sphere
from .quadrature import ABS_TOL, REL_TOL, integrate
from .rng import stream
from .targets import as_gibbs, distance_to
from .walk import (
    WalkParams,
    _accept_counts,
    _chain_f_values,
    _check_step_size,
    _start_coords,
    delta_bound,
    step_ensemble,
)

__all__ = [
    "InequalityReport",
    "TvEstimate",
    "WarmnessEstimate",
    "check_affine_needle_lemma",
    "check_needle_moment_lemma",
    "check_partition_function_logconcavity",
    "check_interior_volume",
    "box_shell_fraction",
    "check_isoperimetry",
    "estimate_one_step_tv",
    "estimate_l2_warmness",
    "check_low_temp_expectation",
    "tv_decay_curve",
    "ks_one_sample",
    "ks_two_sample",
    "ks_sigma",
    "builtin_check_names",
    "run_builtin_check",
]


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one inequality check, ``lhs <= rhs`` expected."""

    name: str
    lhs: float
    rhs: float
    margin: float
    passed: bool
    mc_stderr: float = 0.0
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


def _report(
    name: str,
    lhs: float,
    rhs: float,
    mc_stderr: float = 0.0,
    abs_tol: float = 1e-12,
    details: Optional[dict] = None,
) -> InequalityReport:
    lhs = float(lhs)
    rhs = float(rhs)
    return InequalityReport(
        name,
        lhs,
        rhs,
        rhs - lhs,
        lhs <= rhs + 3.0 * mc_stderr + abs_tol,
        float(mc_stderr),
        details or {},
    )


@dataclass(frozen=True)
class TvEstimate:
    """Upper-bound estimate of the one-step kernel distance, split into the
    tangent-Gaussian transport mismatch and the rejection disagreement."""

    value: float
    stderr: float
    transport_term: float
    rejection_term: float


@dataclass(frozen=True)
class WarmnessEstimate:
    value: float
    stderr: float


# ---------------------------------------------------------------------------
# Small numeric helpers.


def _normal_upper_quantile(p: float) -> float:
    """z with P(N(0,1) > z) = p, by bisection; p in (0, 0.5]."""
    if not 0.0 < p <= 0.5:
        raise PreconditionError("tail probability must lie in (0, 0.5]")
    lo, hi = 0.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * math.erfc(mid / math.sqrt(2.0)) > p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _convex_min(h: Callable[[float], float], a: float, b: float) -> float:
    """Minimum of a convex function on [a, b] by golden-section search."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = a, b
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    hc, hd = h(c), h(d)
    for _ in range(120):
        if hc <= hd:
            hi, d, hd = d, c, hc
            c = hi - inv_phi * (hi - lo)
            hc = h(c)
        else:
            lo, c, hc = c, d, hd
            d = lo + inv_phi * (hi - lo)
            hd = h(d)
    return min(h(a), h(b), hc, hd)


def _require_convex(h: Callable[[float], float], a: float, b: float) -> None:
    """Midpoint spot test to 1e-9; raises :class:`NotConvex` with a witness.

    Tests every pair at least two apart of a 33-point grid, evaluating
    ``h`` once per distinct midpoint; the witness is the first failing pair
    in row-major order.
    """
    xs = np.linspace(a, b, 33)
    values = np.array([h(x) for x in xs])
    i, j = np.triu_indices(len(xs), 2)
    mids, which = np.unique(0.5 * (xs[i] + xs[j]), return_inverse=True)
    h_mid = np.array([h(m) for m in mids])[which]
    failed = h_mid > 0.5 * (values[i] + values[j]) + 1e-9
    if failed.any():
        k = int(np.argmax(failed))
        raise NotConvex(
            f"midpoint test failed at x={xs[i[k]]:.6g}, y={xs[j[k]]:.6g}: "
            f"h(mid)={h_mid[k]:.6g} exceeds the chord"
        )


def ks_one_sample(values: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Kolmogorov-Smirnov statistic of a sample against an exact CDF."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if n == 0:
        raise PreconditionError("empty sample")
    f = np.asarray(cdf(x), dtype=float)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - f), np.max(f - (grid - 1.0 / n))))


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise PreconditionError("empty sample")
    everything = np.concatenate([a, b])
    fa = np.searchsorted(a, everything, side="right") / a.size
    fb = np.searchsorted(b, everything, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def ks_sigma(n: int, m: Optional[int] = None) -> float:
    """Approximate standard deviation of the KS statistic under the null.

    The Kolmogorov distribution has standard deviation about 0.26 after the
    sqrt(n) scaling; for two samples the effective size is ``nm/(n+m)``.
    """
    if m is None:
        return 0.26 / math.sqrt(n)
    return 0.26 * math.sqrt((n + m) / (n * m))


# ---------------------------------------------------------------------------
# Needle inequalities by quadrature.


def _quad_report(name, sides, *integrals, details):
    """``_report`` of ``lhs, rhs = sides(*integrals)``, both increasing in
    each (nonnegative) integral.  :func:`integrate` puts each integral
    within ``ABS_TOL + REL_TOL * Z`` of its value, so the sides' combined
    rise when every integral moves up by that bound bounds their error.
    The pass tolerance is that rise plus ``ABS_TOL + REL_TOL * (|lhs| +
    |rhs|)``, which also covers the rounding of the sides themselves."""

    def tol(z):
        return ABS_TOL + REL_TOL * z

    lhs, rhs = sides(*integrals)
    up_lhs, up_rhs = sides(*(z + tol(z) for z in integrals))
    rise = up_lhs - lhs + up_rhs - rhs
    return _report(name, lhs, rhs, abs_tol=rise + tol(abs(lhs) + abs(rhs)), details=details)


def check_affine_needle_lemma(
    a: float,
    b: float,
    c1: float,
    c2: float,
    n: int,
    eps: float,
) -> InequalityReport:
    """Decay of an affine-power needle mass past its right endpoint.

    With ``w(x) = (c1 x + c2)^(n-1)`` positive on ``[a, b+eps]`` and
    ``eps <= (b-a)/n``, the mass of ``w`` over ``[b, b+eps]`` scaled by
    ``(b-a)/(eps n e)`` cannot exceed the mass over ``[a, b]``.
    """
    if n < 1 or int(n) != n:
        raise PreconditionError("n must be a positive integer")
    if not (math.isfinite(a) and math.isfinite(b)) or a >= b:
        raise PreconditionError("need a < b, finite")
    if not 0.0 < eps <= (b - a) / n * (1.0 + 1e-12):
        raise PreconditionError(f"eps must lie in (0, (b-a)/n], got {eps}")
    if not (c1 * a + c2 > 0.0 and c1 * (b + eps) + c2 > 0.0):
        raise PreconditionError("affine function must be positive on [a, b+eps]")

    power = n - 1

    def w(x: float) -> float:
        return (c1 * x + c2) ** power

    return _quad_report(
        "affine_needle",
        lambda z, tail: ((b - a) / (eps * n * math.e) * tail, z),
        integrate(w, a, b),
        integrate(w, b, b + eps),
        details={"a": a, "b": b, "c1": c1, "c2": c2, "n": int(n), "eps": eps},
    )


def check_needle_moment_lemma(
    h: Callable[[float], float],
    a: float,
    b: float,
    n: int,
    breakpoints: Sequence[float] = (),
) -> InequalityReport:
    """Expectation bound for a convex energy against its Gibbs needle weight.

    After shifting ``h`` so its minimum over ``[a, b]`` is zero, checks
    ``integral(e^(-h) h z^(n-1)) <= (n+1) integral(e^(-h) z^(n-1))``.
    """
    if n < 1 or int(n) != n:
        raise PreconditionError("n must be a positive integer")
    if a < 0.0 or a >= b or not math.isfinite(b):
        raise PreconditionError("need 0 <= a < b, finite")
    _require_convex(h, a, b)
    shift = _convex_min(h, a, b)
    power = n - 1

    def weighted(z: float) -> float:
        hz = h(z) - shift
        return math.exp(-hz) * hz * z**power

    def plain(z: float) -> float:
        return math.exp(-(h(z) - shift)) * z**power

    pts = tuple(p for p in breakpoints if a < p < b)
    return _quad_report(
        "needle_moment",
        lambda zw, zp: (zw, (n + 1) * zp),
        integrate(weighted, a, b, breakpoints=pts),
        integrate(plain, a, b, breakpoints=pts),
        details={"a": a, "b": b, "n": int(n), "shift": shift},
    )


def check_partition_function_logconcavity(
    h: Callable[[float], float],
    interval: tuple[float, float],
    n: int,
    alpha: float,
    beta: float,
    breakpoints: Sequence[float] = (),
) -> InequalityReport:
    """Log-concavity of the power-weighted needle partition function.

    With ``Z(s) = integral(e^(-s h(x)) x^(n-1) dx)`` over the interval,
    checks ``Z(alpha) Z(beta) <= ((alpha+beta)^2 / (4 alpha beta))^n *
    Z((alpha+beta)/2)^2``.  The equal-parameter case is an identity and
    comes out with margin exactly zero.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not 0.0 < lo < hi or not math.isfinite(hi):
        raise PreconditionError("interval must satisfy 0 < lo < hi, finite")
    if not (alpha > 0.0 and beta > 0.0):
        raise PreconditionError("alpha and beta must be positive")
    if n < 1 or int(n) != n:
        raise PreconditionError("n must be a positive integer")
    _require_convex(h, lo, hi)
    shift = _convex_min(h, lo, hi)
    power = n - 1
    pts = tuple(p for p in breakpoints if lo < p < hi)

    def z_at(s: float) -> float:
        def integrand(x: float) -> float:
            return math.exp(-s * (h(x) - shift)) * x**power

        return integrate(integrand, lo, hi, breakpoints=pts)

    ratio = 0.25 * (alpha + beta) ** 2 / (alpha * beta)
    return _quad_report(
        "partition_logconcavity",
        lambda za, zb, zm: (za * zb, ratio**n * (zm * zm)),
        z_at(alpha),
        z_at(beta),
        z_at(0.5 * (alpha + beta)),
        details={
            "interval": [lo, hi],
            "n": int(n),
            "alpha": alpha,
            "beta": beta,
            "shift": shift,
        },
    )


# ---------------------------------------------------------------------------
# Interior volume via the local-conductance membership proxy.


def _binomial_upper_tail(k: int, trials: int, p: np.ndarray) -> np.ndarray:
    """P(Binomial(trials, p) >= k) per entry of ``p``, for 1 <= k <= trials.

    Sums the ``k`` lower terms in log space, so a tiny ``(1 - p)^trials``
    does not underflow terms that matter.
    """
    with np.errstate(divide="ignore"):
        log_p = np.log(p)
    log_q = np.log1p(-p)
    below = np.exp(trials * log_q)
    log_top = math.lgamma(trials + 1)
    for j in range(1, k):
        log_choose = log_top - math.lgamma(j + 1) - math.lgamma(trials - j + 1)
        below += np.exp(log_choose + j * log_p + (trials - j) * log_q)
    return np.maximum(1.0 - below, 0.0)


def box_shell_fraction(body: EuclideanBox, eps: float) -> float:
    """Exact volume fraction of the box within depth ``eps`` of its boundary."""
    widths = body.hi - body.lo
    if not 0.0 < 2.0 * eps < float(np.min(widths)):
        raise PreconditionError("eps must satisfy 0 < 2*eps < min side length")
    return 1.0 - float(np.prod((widths - 2.0 * eps) / widths))


def check_interior_volume(
    body: ConvexBody,
    eps: float,
    mc_samples: int,
    rng: np.random.Generator,
    trials: int = 10**4,
    conductance_tol: float = 1e-3,
) -> InequalityReport:
    """Volume of the low-conductance shell against ``e n eps / r``.

    Membership in the eroded body is decided by the local conductance: a
    point belongs when at least ``1 - conductance_tol`` of ``trials``
    one-step proposals stay inside.  The proposal step size is ``eps``
    divided by the normal upper quantile of ``conductance_tol``, so that a
    point at depth ``eps`` sits exactly at the decision threshold.  On caps
    and boxes each point's count is a ``Binomial(trials, p(x))`` draw from
    the exact conductance ``p(x)``, and ``details["expected_fraction"]`` is
    the fraction without sampling noise in the counts: the mean over the
    drawn points of the chance that the count falls below the threshold
    (``None`` on bodies whose counts come from drawn proposals).
    """
    n = body.manifold.tangent_dim
    r = body.inner_radius
    if not 0.0 < eps <= r / n * (1.0 + 1e-12):
        raise PreconditionError(f"eps must lie in (0, r/n], got {eps}")
    delta = eps / _normal_upper_quantile(conductance_tol)
    samples = sample_uniform_many(body, rng, mc_samples)
    counts, rejection = _accept_counts(samples, body, delta, trials, rng)
    threshold = (1.0 - conductance_tol) * trials
    outside = counts < threshold
    fraction = float(np.mean(outside))
    expected = None
    if rejection is not None:
        # A point is outside when at most ceil(threshold) - 1 proposals stay.
        fewest_rejections = trials - (math.ceil(threshold) - 1)
        expected = float(np.mean(_binomial_upper_tail(fewest_rejections, trials, rejection)))
    stderr = math.sqrt(max(fraction * (1.0 - fraction), 1e-300) / mc_samples)
    bound = math.e * n * eps / r
    return _report(
        "interior_volume",
        fraction,
        bound,
        mc_stderr=stderr,
        details={
            "eps": eps,
            "walk_delta": delta,
            "trials": trials,
            "mc_samples": mc_samples,
            "conductance_tol": conductance_tol,
            "expected_fraction": expected,
        },
    )


# ---------------------------------------------------------------------------
# Isoperimetry.


def check_isoperimetry(
    body: ConvexBody,
    classifier: Callable[[np.ndarray], np.ndarray],
    eps: float,
    mc_samples: int,
    rng: np.random.Generator,
) -> InequalityReport:
    """Monte Carlo form of the three-set isoperimetric inequality.

    ``classifier`` labels each sample 1, 2, or 3; pieces 1 and 3 must be at
    geodesic distance at least ``eps`` (spot-checked on 1000 sampled cross
    pairs).  The check compares ``p1 * p3`` against
    ``(mean_distance / (eps ln 2)) * p2``, with the mean distance taken to
    the body's declared center, and propagates sampling error through both
    sides by the delta method; it passes within ``3 * stderr + 1e-12``.
    """
    if not eps > 0.0:
        raise PreconditionError("eps must be positive")
    man = body.manifold
    samples = sample_uniform_many(body, rng, mc_samples)
    labels = np.asarray(classifier(samples))
    if not np.all(np.isin(labels, (1, 2, 3))):
        raise PreconditionError("classifier must label every sample 1, 2, or 3")
    distances = man.dist_many(samples, body.inner_center)

    first = samples[labels == 1]
    third = samples[labels == 3]
    if len(first) and len(third):
        k = min(1000, len(first) * len(third))
        ii = rng.integers(0, len(first), size=k)
        jj = rng.integers(0, len(third), size=k)
        for i, j in zip(ii, jj):
            d = man.dist(first[i], third[j])
            if d < eps * (1.0 - 1e-9):
                raise SeparationViolated(
                    f"sampled points of pieces 1 and 3 at distance {d:.6g} < {eps:.6g}"
                )

    i1 = (labels == 1).astype(float)
    i2 = (labels == 2).astype(float)
    i3 = (labels == 3).astype(float)
    p1, p2, p3 = i1.mean(), i2.mean(), i3.mean()
    mean_dist = distances.mean()
    scale = 1.0 / (eps * math.log(2.0))

    lhs = p1 * p3
    rhs = mean_dist * scale * p2
    # Delta method on the margin g = rhs - lhs over the mean vector
    # (d, i2, i1, i3); gradient evaluated at the sample means.
    stacked = np.stack([distances, i2, i1, i3])
    cov = np.cov(stacked)
    grad = np.array([scale * p2, scale * mean_dist, -p3, -p1])
    var = float(grad @ cov @ grad) / mc_samples
    stderr = math.sqrt(max(var, 0.0))
    return _report(
        "isoperimetry",
        lhs,
        rhs,
        mc_stderr=stderr,
        details={
            "p1": p1,
            "p2": p2,
            "p3": p3,
            "mean_distance": float(mean_dist),
            "eps": eps,
        },
    )


# ---------------------------------------------------------------------------
# One-step kernel overlap.


def estimate_one_step_tv(
    x,
    y,
    body: ConvexBody,
    delta: float,
    mc_proposals: int,
    rng: np.random.Generator,
) -> TvEstimate:
    """Coupled upper bound on the one-step kernel distance between starts.

    The tangent Gaussians at ``x`` and ``y`` are coupled through
    ``Manifold.transport``, so the continuous parts differ at most by the
    total variation between two unit Gaussians whose means are ``d(x,y) /
    delta`` apart, ``erf(d / (2 sqrt(2) delta))``.  The lazy-step atoms are
    coupled by the same shared draws, and their mismatch is estimated as
    the Monte Carlo rate at which exactly one of the two proposals leaves
    the body.  The sum (capped at one) upper-bounds the true kernel
    distance and vanishes as the starts merge.  Both starts are checked as
    ``run_chain`` checks its start: points of the manifold inside the body.
    """
    _check_step_size(delta)
    man = body.manifold
    xc = _start_coords(x, body, "x")
    yc = _start_coords(y, body, "y")
    d = man.dist(xc, yc)
    transport_term = min(1.0, math.erf(d / (2.0 * math.sqrt(2.0) * delta)))

    # In the frames that ``tangent_from_gaussian`` embeds the normals in,
    # the transport is the orthogonal map ``rotation``: the normals ``g_x``
    # at x move to ``g_x rotation^T`` at y, and both sides propose with
    # the walk's own kernel.
    basis = np.eye(man.tangent_dim)
    frame_x = np.stack([man.tangent_from_gaussian(xc, e) for e in basis])
    frame_y = np.stack([man.tangent_from_gaussian(yc, e) for e in basis])
    rotation = frame_y @ man.transport(xc, yc, frame_x).T
    g_x = rng.standard_normal((mc_proposals, man.tangent_dim))
    g_y = g_x @ rotation.T
    shape = (mc_proposals, man.ambient_dim)
    in_x = body.contains_many(man.propose_many(np.broadcast_to(xc, shape), g_x, delta))
    in_y = body.contains_many(man.propose_many(np.broadcast_to(yc, shape), g_y, delta))
    disagreement = float(np.mean(in_x != in_y))
    stderr = math.sqrt(max(disagreement * (1.0 - disagreement), 1e-300) / mc_proposals)
    return TvEstimate(
        min(1.0, transport_term + disagreement), stderr, transport_term, disagreement
    )


# ---------------------------------------------------------------------------
# Warmness of adjacent Gibbs distributions.


def estimate_l2_warmness(
    f_many: Callable[[np.ndarray], np.ndarray],
    body: ConvexBody,
    t_hot: float,
    t_cold: float,
    mc_samples: int,
    rng: np.random.Generator,
) -> WarmnessEstimate:
    """L2 density-ratio norm between Gibbs distributions at two temperatures.

    Writing ``beta = 1/T``, the squared norm equals ``Z(beta_cold) *
    Z(2 beta_hot - beta_cold) / Z(beta_hot)^2``; all three partition
    functions are estimated from one shared set of exact uniform samples,
    which makes the equal-temperature case return exactly one.  Requires
    ``2 beta_hot - beta_cold > 0``, else the tilted integral diverges.
    """
    if not 0.0 < t_cold <= t_hot:
        raise PreconditionError("need t_hot >= t_cold > 0")
    beta_hot = 1.0 / t_hot
    beta_cold = 1.0 / t_cold
    tilted = 2.0 * beta_hot - beta_cold
    if tilted <= 0.0:
        raise ScheduleTooAggressive(
            f"temperature pair ({t_hot:.6g}, {t_cold:.6g}) leaves the tilted "
            f"exponent {tilted:.6g} non-positive; the warmness integral diverges"
        )
    samples = sample_uniform_many(body, rng, mc_samples)
    values = np.asarray(f_many(samples), dtype=float)
    values = values - values.min()
    w_cold = np.exp(-beta_cold * values)
    w_tilt = np.exp(-tilted * values)
    w_hot = np.exp(-beta_hot * values)
    m_cold = w_cold.mean()
    m_tilt = w_tilt.mean()
    m_hot = w_hot.mean()
    value = m_cold * m_tilt / (m_hot * m_hot)
    grad = np.array([value / m_cold, value / m_tilt, -2.0 * value / m_hot])
    cov = np.cov(np.stack([w_cold, w_tilt, w_hot]))
    var = float(grad @ cov @ grad) / mc_samples
    return WarmnessEstimate(float(value), math.sqrt(max(var, 0.0)))


# ---------------------------------------------------------------------------
# Low-temperature expectation.


def check_low_temp_expectation(
    f_values: np.ndarray,
    n: int,
    temperature: float,
) -> InequalityReport:
    """Chain mean of the energy against ``T (n+1)``.

    ``f_values`` is the energy along a converged Metropolis chain, for an
    energy whose minimum over the body is 0; the standard error uses batch
    means with ``floor(sqrt(N))`` batches to absorb autocorrelation.
    """
    values = np.asarray(f_values, dtype=float)
    if values.ndim != 1 or values.size < 4:
        raise PreconditionError("need a 1-D array of at least 4 chain values")
    batches = int(math.sqrt(values.size))
    width = values.size // batches
    trimmed = values[: batches * width].reshape(batches, width)
    batch_means = trimmed.mean(axis=1)
    stderr = float(batch_means.std(ddof=1) / math.sqrt(batches))
    return _report(
        "low_temp_expectation",
        float(values.mean()),
        temperature * (n + 1),
        mc_stderr=stderr,
        details={"n": int(n), "temperature": temperature, "chain_length": values.size},
    )


# ---------------------------------------------------------------------------
# TV decay along the walk.


def tv_decay_curve(
    body: ConvexBody,
    delta: float,
    checkpoints: Sequence[int],
    replicas: int,
    rng: np.random.Generator,
) -> list[tuple[int, float]]:
    """KS distance to uniformity along an ensemble of walks.

    Evolves ``replicas`` chains from the body's center and, at each
    checkpoint, compares the distance-to-center marginal against
    ``2 * replicas`` fresh exact uniform draws by the two-sample KS
    statistic.  Checkpoints must be non-decreasing step counts.
    """
    cps = [int(c) for c in checkpoints]
    if any(c < 0 for c in cps) or any(b < a for a, b in zip(cps, cps[1:])):
        raise PreconditionError("checkpoints must be non-decreasing and >= 0")
    man = body.manifold
    center = body.inner_center
    reference = sample_uniform_many(body, rng, 2 * replicas)
    ref_summary = man.dist_many(reference, center)
    ensemble = np.tile(center, (replicas, 1))
    curve = []
    position = 0
    for cp in cps:
        ensemble = step_ensemble(ensemble, body, delta, rng, steps=cp - position)
        position = cp
        summary = man.dist_many(ensemble, center)
        curve.append((cp, ks_two_sample(summary, ref_summary)))
    return curve


# ---------------------------------------------------------------------------
# Randomized instance batteries for the quadrature checks.


def _random_piecewise_linear_convex(rng: np.random.Generator):
    """A convex function ``max_j (m_j z + q_j)`` of 2 to 4 pieces, and its
    kink locations."""
    count = int(rng.integers(2, 5))
    slopes = np.sort(rng.uniform(-3.0, 3.0, size=count))
    offsets = rng.uniform(-2.0, 2.0, size=count)
    # Python floats: the same multiply-then-add per piece as numpy's
    # ``max(slopes * z + offsets)``, without its per-call overhead.
    lines = tuple(zip(slopes.tolist(), offsets.tolist()))

    def h(z: float) -> float:
        return float(max([m * z + q for m, q in lines]))

    kinks = []
    for i in range(count):
        for j in range(i + 1, count):
            if slopes[i] != slopes[j]:
                kinks.append((offsets[j] - offsets[i]) / (slopes[i] - slopes[j]))
    return h, kinks


def run_affine_needle_battery(seed: int, instances: int = 100) -> list[InequalityReport]:
    """Randomized hypothesis-satisfying instances of the affine needle check.

    Every tenth instance pins ``eps`` at its largest admissible value,
    which is the boundary case of the hypothesis.
    """
    rng = stream(seed)
    reports = []
    for k in range(instances):
        n = int(rng.integers(1, 21))
        a = float(rng.uniform(-3.0, 3.0))
        b = a + float(rng.uniform(0.1, 4.0))
        eps = (b - a) / n if k % 10 == 0 else (b - a) / n * float(rng.uniform(0.1, 1.0))
        c1 = float(rng.uniform(-2.0, 2.0))
        lowest = min(c1 * a, c1 * (b + eps))
        c2 = -lowest + float(rng.uniform(0.05, 3.0))
        reports.append(check_affine_needle_lemma(a, b, c1, c2, n, eps))
    return reports


def run_needle_moment_battery(seed: int, instances: int = 100) -> list[InequalityReport]:
    rng = stream(seed)
    reports = []
    for _ in range(instances):
        h, kinks = _random_piecewise_linear_convex(rng)
        a = float(rng.uniform(0.0, 2.0))
        b = a + float(rng.uniform(0.5, 5.0))
        n = int(rng.integers(1, 11))
        reports.append(check_needle_moment_lemma(h, a, b, n, breakpoints=kinks))
    return reports


def run_partition_battery(seed: int, instances: int = 100) -> list[InequalityReport]:
    rng = stream(seed)
    reports = []
    for _ in range(instances):
        h, kinks = _random_piecewise_linear_convex(rng)
        lo = float(rng.uniform(0.05, 1.0))
        hi = lo + float(rng.uniform(0.5, 4.0))
        n = int(rng.integers(1, 11))
        alpha = float(10.0 ** rng.uniform(-1.0, 1.0))
        beta = float(10.0 ** rng.uniform(-1.0, 1.0))
        reports.append(
            check_partition_function_logconcavity(h, (lo, hi), n, alpha, beta, breakpoints=kinks)
        )
    return reports


# ---------------------------------------------------------------------------
# Built-in check registry used by the diagnose mode.


def _worst(run: Callable, name: str, seed: int) -> list[InequalityReport]:
    """The worst-margin report of 100 instances of the battery ``run``."""
    reports = run(seed, 100)
    worst = min(reports, key=lambda r: r.margin)
    passed = all(r.passed for r in reports)
    details = {**worst.details, "instances": len(reports), "all_passed": passed}
    return [replace(worst, name=name, passed=passed, details=details)]


def _default_cap(n: int = 2) -> SphericalCap:
    """The 60-degree cap about the north pole of ``sphere:n``."""
    man = Sphere(n)
    axis = np.zeros(man.ambient_dim)
    axis[-1] = 1.0
    return SphericalCap(man, axis, math.pi / 3.0)


def _check_interior_volume(seed: int) -> list[InequalityReport]:
    rng = stream(seed)
    cap = _default_cap()
    eps = cap.inner_radius / 4.0
    sphere_report = check_interior_volume(cap, eps, 2000, rng, trials=4000)

    box = EuclideanBox(np.zeros(3), np.ones(3))
    box_eps = 0.05
    box_report = check_interior_volume(box, box_eps, 2000, rng, trials=4000)
    exact = box_shell_fraction(box, box_eps)
    mismatch = abs(box_report.lhs - exact)
    control = _report(
        "interior_volume_box_control",
        mismatch,
        0.0,
        mc_stderr=box_report.mc_stderr,
        details={
            "empirical": box_report.lhs,
            "expected_fraction": box_report.details["expected_fraction"],
            "exact": exact,
            "eps": box_eps,
        },
    )
    return [sphere_report, control]


def _check_isoperimetry(seed: int) -> list[InequalityReport]:
    rng = stream(seed)
    cap = _default_cap()
    gap = 0.1

    def classifier(points: np.ndarray) -> np.ndarray:
        t = points[:, 0]
        return np.where(t <= -gap, 1, np.where(t >= gap, 3, 2))

    report = check_isoperimetry(cap, classifier, 2.0 * gap, 20000, rng)
    return [report]


def _check_one_step_tv(seed: int) -> list[InequalityReport]:
    rng = stream(seed)
    cap = _default_cap()
    man = cap.manifold
    delta = delta_bound(cap)
    x = cap.axis
    direction = man.tangent_from_gaussian(x, np.array([1.0, 0.0]))
    direction /= math.sqrt(direction @ direction)
    distances = np.linspace(0.0, 0.8 * cap.inner_radius, 9)
    estimates = [
        estimate_one_step_tv(x, man.exp(x, d * direction), cap, delta, 20000, rng)
        for d in distances
    ]
    worst_drop = -math.inf
    worst_sigma = 0.0
    for a, b in zip(estimates, estimates[1:]):
        drop = a.value - b.value
        if drop > worst_drop:
            worst_drop = drop
            worst_sigma = math.hypot(a.stderr, b.stderr)
    report = _report(
        "one_step_tv",
        worst_drop,
        0.0,
        mc_stderr=worst_sigma,
        details={
            "sweep": [e.value for e in estimates],
            "at_zero": estimates[0].value,
        },
    )
    return [report]


def _check_warmness(seed: int) -> list[InequalityReport]:
    rng = stream(seed)
    cap = _default_cap(5)
    target = distance_to(cap.manifold, cap.axis)
    schedule = make_schedule(initial_temperature(cap, target.lipschitz), 5, 0.1, 0.1)
    t_hot, t_cold = schedule.temps[0], schedule.temps[1]
    estimate = estimate_l2_warmness(target.f_many, cap, t_hot, t_cold, 20000, rng)
    main = _report(
        "warmness",
        estimate.value,
        5.0,
        mc_stderr=estimate.stderr,
        details={"t_hot": t_hot, "t_cold": t_cold},
    )
    control_value = estimate_l2_warmness(
        target.f_many, cap, t_hot, t_hot, 2000, rng
    ).value
    control = _report(
        "warmness_control",
        abs(control_value - 1.0),
        0.0,
        abs_tol=0.0,
        details={"value": control_value},
    )
    return [main, control]


def _check_low_temp(seed: int) -> list[InequalityReport]:
    cap = _default_cap()
    man = cap.manifold
    target = distance_to(man, cap.axis)
    temperature = 0.05
    params = WalkParams(delta=delta_bound(cap), max_steps=150_000, seed=seed)
    f_values = _chain_f_values(cap.axis, cap, params, as_gibbs(target, temperature), 20_000)
    return [check_low_temp_expectation(f_values, man.tangent_dim, temperature)]


def _check_tv_decay(seed: int) -> list[InequalityReport]:
    rng = stream(seed)
    cap = _default_cap()
    curve = tv_decay_curve(cap, 0.35, (1, 4, 16, 64, 256), 6000, rng)
    final = curve[-1][1]
    sigma = ks_sigma(6000, 12000)
    main = _report(
        "tv_decay",
        final,
        0.03,
        abs_tol=0.0,
        details={"curve": [[int(s), k] for s, k in curve]},
    )
    worst_rise = max(b - a for (_, a), (_, b) in zip(curve, curve[1:]))
    monotone = _report(
        "tv_decay_monotone",
        worst_rise,
        0.0,
        mc_stderr=math.sqrt(2.0) * sigma,
        abs_tol=0.0,
        details={"curve": [[int(s), k] for s, k in curve]},
    )
    return [main, monotone]


_BUILTIN_CHECKS: dict[str, Callable[[int], list[InequalityReport]]] = {
    "affine_needle": partial(_worst, run_affine_needle_battery, "affine_needle"),
    "needle_moment": partial(_worst, run_needle_moment_battery, "needle_moment"),
    "partition_logconcavity": partial(_worst, run_partition_battery, "partition_logconcavity"),
    "interior_volume": _check_interior_volume,
    "isoperimetry": _check_isoperimetry,
    "one_step_tv": _check_one_step_tv,
    "warmness": _check_warmness,
    "low_temp_expectation": _check_low_temp,
    "tv_decay": _check_tv_decay,
}


def builtin_check_names() -> list[str]:
    return list(_BUILTIN_CHECKS)


def run_builtin_check(name: str, seed: int) -> list[InequalityReport]:
    """Run one named built-in check battery with its default geometry."""
    if name not in _BUILTIN_CHECKS:
        raise PreconditionError(
            f"unknown check {name!r}; known: {', '.join(_BUILTIN_CHECKS)}"
        )
    return _BUILTIN_CHECKS[name](seed)
