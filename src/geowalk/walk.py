"""Lazy geodesic walk and its Metropolis-filtered variant.

One step from ``x``: draw a standard Gaussian ``u`` in the tangent space,
propose ``y = exp_x(delta * u)``, and stay put if ``y`` leaves the body
(the lazy rule; rejected proposals are never redrawn).  With a Gibbs target
``(f, T)`` an accepted-in-body proposal additionally passes through the
Metropolis filter ``min(1, exp(-(f(y) - f(x)) / T))``, so the chain targets
the distribution with density proportional to ``exp(-f/T)`` on the body.

Both walks, :func:`run_chain` and ``anneal.anneal_trials``, take their
step size from :func:`validate_delta` (``delta_bound(body)`` when none is
given), and draw and filter their steps through one generator,
``_drawn_slices``, which holds the contract of :mod:`geowalk.rng`: step
``j`` of a block uses row ``j`` of the normals and threshold ``j``
however it resolves, so a uniform walk and a Metropolis walk with
constant ``f`` take bit-identical steps.  Each step does only the
point-dependent rest of the proposal, ``propose_factored`` for the
lockstep trials and its one-row twin ``propose_row`` for a chain.
Membership is a bool at every point of the manifold, so a proposal
outside the body is a boundary rejection.

The proposal kernels do not re-project: on the sphere each step lands on
the sphere up to rounding.  Instead every step loop (the chain's,
``anneal_trials``' and :func:`step_ensemble`'s) passes its state to
``Manifold.project`` once per ``_SLICE`` steps, and ``step_ensemble``
before it returns too, so the state stays within 1e-13 of the
manifold.  ``f`` is not re-evaluated at the projected state: the
difference is below 1e-15.

The chain's step loop, ``_chain_slices``, yields the rows each slice
keeps; :func:`run_chain` writes them into the columns of
:class:`ChainResult`, allocated once, and ``_chain_f_values`` keeps only
the target values.  When the body's membership test and the target's
``f`` declare the same scalar of the proposal with equal anchors (a cap's
``<y, axis>`` with ``distance_to`` or ``sqdist_to`` at its axis, a ball's
``d(center, y)`` with one at its centre; see ``_shared_scalar``), a step
computes it once and takes both from it with the same arithmetic.  On
``sphere:n`` and ``euclidean:n`` (``Manifold.float_rows``) the chain's
state and each slice's factors are lists of Python floats; these oracles
read numpy rows as well, and so does the whole step on ``so:n``.

Local-conductance counts (how many of ``trials`` one-step proposals from a
point stay in the body) are one ``Binomial`` draw per point when the body's
``contains_coords`` declares the exact rejection chance: caps and boxes do,
a subclass that overrides their test does not.  Other bodies draw the
proposals.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bodies import ConvexBody, rejection_sample_uniform
from .errors import InvalidStart, OracleError, PreconditionError, StepSizeWarning
from .rng import BLOCK, stream

_SLICE = 256  # steps staged, and then projected, at a time, here and in anneal
_CHUNK = 1 << 14  # rows of normals per pass of _accept_counts' proposal loop

__all__ = [
    "WalkParams",
    "GibbsTarget",
    "RejectionStats",
    "ChainResult",
    "delta_bound",
    "validate_delta",
    "run_chain",
    "estimate_local_conductance",
    "step_ensemble",
]


@dataclass
class WalkParams:
    """Step size and chain-control knobs.

    ``delta`` of ``None`` means ``delta_bound(body)``, the largest safe
    step; :func:`validate_delta` picks the step as it does for
    ``AnnealConfig.delta``.  A given ``delta`` above the safe bound is an
    error unless ``override_delta`` is set, in which case it only warns.
    """

    delta: Optional[float] = None
    max_steps: int = 0
    seed: int = 0
    override_delta: bool = False

    def __post_init__(self):
        if self.delta is not None:
            _check_step_size(self.delta)
        if self.max_steps < 0:
            raise PreconditionError("max_steps must be >= 0")


@dataclass
class GibbsTarget:
    """Convex energy and a temperature.

    ``f`` maps coordinates to a finite real on the body (values off the
    body may be anything finite; the walk only compares them).  On
    ``sphere:n`` and ``euclidean:n``, :func:`run_chain` passes the
    coordinates as a list of floats.
    """

    f: Callable[[np.ndarray], float]
    temperature: float

    def __post_init__(self):
        if not self.temperature > 0.0:
            raise PreconditionError("temperature must be positive")


@dataclass
class RejectionStats:
    """Rejections of one chain.  ``cut_locus_hits`` is always 0, kept for
    the benchmark tracer that reads it; ROADMAP item 1 deletes it."""

    steps: int = 0
    boundary_rejections: int = 0
    filter_rejections: int = 0
    cut_locus_hits: int = 0

    @property
    def rejections(self) -> int:
        """Steps that stayed put."""
        return self.boundary_rejections + self.filter_rejections

    @property
    def rejection_fraction(self) -> float:
        """Empirical stay probability, a proxy for one minus the local
        conductance averaged along the trajectory."""
        return self.rejections / self.steps if self.steps else 0.0


@dataclass
class ChainResult:
    """The kept rows of one chain as columns, one entry per kept row.

    ``steps`` (int64) holds the step index of each row, ``coords`` the
    ``(kept, ambient_dim)`` points, ``rejected`` whether that step stayed
    put, and ``f_values`` the target value at the point (``None`` without
    a target).
    """

    steps: np.ndarray
    coords: np.ndarray
    rejected: np.ndarray
    f_values: Optional[np.ndarray]
    stats: RejectionStats
    final: np.ndarray


def _check_step_size(delta: float) -> None:
    if not (delta > 0.0 and math.isfinite(delta)):
        raise PreconditionError(f"step size must be finite and > 0, got {delta}")


def delta_bound(body: ConvexBody) -> float:
    """Largest step size the mixing guarantees cover on ``body``.

    The two constraints are ``delta^2 <= 1 / (100 sqrt(n) R)`` from the
    curvature bound and ``delta <= s r / (4 n sqrt(n))`` with ``s = 1/2``
    from the inner ball, with ``n`` the intrinsic dimension; the result is
    their minimum.  ``R = 0`` (flat space) leaves only the second one.
    """
    man = body.manifold
    n = man.tangent_dim
    r = body.inner_radius
    curvature_term = math.sqrt(1.0 / (100.0 * math.sqrt(n) * max(man.curvature_bound, 1e-12)))
    ball_term = r / (8.0 * n * math.sqrt(n))
    return min(curvature_term, ball_term)


def validate_delta(delta: Optional[float], override_delta: bool, body: ConvexBody) -> float:
    """The step size both walks take on ``body``: ``delta_bound(body)``
    for ``None``, else ``delta`` checked against that bound.

    Over-bound steps raise unless ``override_delta`` is set, in which case
    a :class:`StepSizeWarning` is emitted instead (stationarity is
    unaffected by the step size; only the mixing guarantees are).  The
    warning points at the caller of the function that called this one.
    """
    bound = delta_bound(body)
    if delta is None:
        return bound
    if delta > bound:
        message = (
            f"step size {delta:.6g} exceeds the guaranteed-safe bound "
            f"{bound:.6g} for {body.manifold.descriptor}"
        )
        if override_delta:
            warnings.warn(message, StepSizeWarning, stacklevel=3)
        else:
            raise PreconditionError(message + " (set override_delta to proceed)")
    return delta


def _start_coords(start, body: ConvexBody, name="chain start") -> np.ndarray:
    coords = np.asarray(start, dtype=float)
    body.manifold.validate_point(coords)
    if not body.contains_coords(coords):
        raise InvalidStart(f"{name} lies outside the body")
    return coords.copy()


def run_chain(
    start,
    body: ConvexBody,
    params: WalkParams,
    target: Optional[GibbsTarget] = None,
    thin: int = 1,
    burn_in: int = 0,
    chain_id: int = 0,
) -> ChainResult:
    """Run one chain of ``params.max_steps`` steps from ``start``, filtered
    toward ``target`` when given.

    Keeps every ``thin``-th post-burn-in point, ``max(0, (max_steps -
    burn_in) // thin)`` rows.  The columns of the returned
    :class:`ChainResult` are allocated once at that length and filled one
    slice of kept rows at a time from the step loop, ``_chain_slices``.
    Deterministic given ``(params.seed, chain_id)``: the RNG stream is
    derived here, not passed in.  ``start=None`` draws an exact uniform
    start from that same stream before stepping.  The steps draw from that
    stream in blocks, as :mod:`geowalk.rng` describes.
    """
    if burn_in < 0:
        raise PreconditionError("burn_in must be >= 0")
    if thin < 1:
        raise PreconditionError("thin must be >= 1")
    delta = validate_delta(params.delta, params.override_delta, body)
    kept = max(0, (params.max_steps - burn_in) // thin)
    steps = np.arange(burn_in + thin, burn_in + thin * kept + 1, thin, dtype=np.int64)
    coords = np.empty((kept, body.manifold.ambient_dim))
    rejected = np.empty(kept, dtype=bool)
    f_values = None if target is None else np.empty(kept)
    slices = _chain_slices(start, body, params, delta, target, thin, burn_in, chain_id)
    row = 0
    while True:
        try:
            xs, flags, fs = next(slices)
        except StopIteration as end:
            stats, final = end.value
            return ChainResult(steps, coords, rejected, f_values, stats, np.array(final))
        stop = row + len(xs)
        coords[row:stop] = xs
        rejected[row:stop] = flags
        if f_values is not None:
            f_values[row:stop] = fs
        row = stop


def _drawn_slices(gens, steps, manifold, delta, temperature, normals, thresholds):
    """Both walks' draws of ``steps`` steps from each stream of ``gens``.

    Per block of ``m <= BLOCK`` steps, stream ``t`` fills column ``t`` of
    the caller's step-major buffers ``normals`` and ``thresholds``: its
    normals ``standard_normal((m, tangent_dim))``, then its uniforms
    ``random(m)``.  With a ``temperature`` the uniforms become thresholds
    ``-T log w`` in place (``w = 0`` gives ``+inf``): an in-body proposal
    is accepted iff ``f(y) - f(x) < threshold``, the Metropolis test ``w <
    exp(-(f(y) - f(x)) / T)``.  Yields ``(proposal_factors, thresholds)``
    per ``_SLICE`` steps, views into the buffers.
    """
    for done in range(0, steps, BLOCK):
        m = min(BLOCK, steps - done)
        drawn, block = normals[:m], thresholds[:m]
        for t, g in enumerate(gens):
            drawn[:, t] = g.standard_normal((m, manifold.tangent_dim))
            block[:, t] = g.random(m)
        if temperature is not None:
            with np.errstate(divide="ignore"):
                np.log(block, out=block)
            block *= -temperature
        for lo in range(0, m, _SLICE):
            rows = slice(lo, lo + _SLICE)
            yield manifold.proposal_factors(drawn[rows], delta), block[rows]


def _chain_slices(start, body, params, delta, target, thin, burn_in, chain_id):
    """The step loop of :func:`run_chain`, on its arguments and the step
    size ``delta`` it picked; ``thin``, ``burn_in`` and ``delta`` are
    checked there, not here.

    A generator: per ``_SLICE`` steps that keep a row it yields the kept
    rows as three lists (the points, whether the step stayed put, and the
    target values, ``None`` without a target), and it returns ``(stats,
    final)``, the :class:`RejectionStats` and the last point, projected
    like the state after every slice.  Nothing of a slice outlives its
    yield here, so a caller that reads one column holds only that one.
    """
    man = body.manifold
    rng = stream(params.seed, chain_id)
    x = rejection_sample_uniform(body, rng) if start is None else _start_coords(start, body)
    floats = man.float_rows
    if floats:
        x = x.tolist()
    propose = man.propose_row
    inside_body = body.contains_coords
    emit = burn_in + thin

    f = fx = read = temperature = None
    if target is not None:
        f, temperature = target.f, target.temperature
        fx = float(f(x))
        if not math.isfinite(fx):
            raise OracleError("target is non-finite at the start point")
        shared = _shared_scalar(body, f)
        if shared is not None:
            read, inside_body, f = shared

    boundary = filtered = 0
    step = 0
    normals = np.empty((min(params.max_steps, BLOCK), 1, man.tangent_dim))
    thresholds = np.empty(normals.shape[:2])
    drawn = _drawn_slices([rng], params.max_steps, man, delta, temperature, normals, thresholds)
    for factors, slice_thresholds in drawn:
        factors = [a[:, 0] for a in factors]
        if floats:
            factors = [a.tolist() for a in factors]
        kept_x, kept_rejected, kept_f = [], [], []
        for factor_row, threshold in zip(zip(*factors), slice_thresholds[:, 0].tolist()):
            step += 1
            y = propose(x, factor_row)
            s = y if read is None else read(y)
            if not inside_body(s):
                rejected = True
                boundary += 1
            elif f is None:
                x, rejected = y, False
            else:
                fy = float(f(s))
                if not math.isfinite(fy):
                    raise OracleError(f"target returned non-finite value at step {step}")
                if fy - fx < threshold:
                    x, fx, rejected = y, fy, False
                else:
                    rejected = True
                    filtered += 1
            if step == emit:
                kept_x.append(x)
                kept_rejected.append(rejected)
                kept_f.append(fx)
                emit += thin
        x = man.project(np.array(x))  # a copy: the kept rows keep their values
        if floats:
            x = x.tolist()
        if kept_x:
            yield kept_x, kept_rejected, kept_f
    return RejectionStats(params.max_steps, boundary, filtered), x


def _chain_f_values(start, body, params, target, burn_in):
    """``run_chain(start, body, params, target, burn_in=burn_in).f_values``
    without ever holding the other columns: the target values of the
    slices go straight into one array.  The arguments are checked by the
    caller, as for ``_chain_slices``, and ``params.delta`` is given."""
    slices = _chain_slices(start, body, params, params.delta, target, 1, burn_in, 0)
    kept = max(0, params.max_steps - burn_in)
    return np.fromiter(itertools.chain.from_iterable(fs for _, _, fs in slices), float, kept)


def _shared_scalar(body: ConvexBody, f):
    """``(read, inside, value)`` when ``body.contains_coords.scalar`` and
    ``f.of_distance`` declare the same distance and equal anchors: then a
    proposal ``y`` is inside iff ``inside(s)``, ``s = read(y)``, and ``f(y)
    == value(s)`` bit for bit.  ``None`` otherwise."""
    declare = getattr(body.contains_coords, "scalar", None)
    of_distance = getattr(f, "of_distance", None)
    if declare is None or of_distance is None:
        return None
    dist, anchor, read, inside, arc = declare(body)
    f_dist, point, outer = of_distance
    if dist != f_dist or not np.array_equal(anchor, point):
        return None
    value = outer if arc is None else arc if outer is None else lambda s: outer(arc(s))
    return read, inside, value or float


def _accept_counts(
    points: np.ndarray,
    body: ConvexBody,
    delta: float,
    trials: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """How many of ``trials`` independent proposals from each row of
    ``points`` land in the body, and the exact rejection chances behind
    them when the body's ``contains_coords`` declares
    ``rejection_probability`` (else ``None``).

    With a closed form each count is ``trials - Binomial(trials, q(x))``,
    one draw per row, which has the law of the Monte Carlo count.  Other
    bodies propose ``trials`` moves per row, ``_CHUNK`` rows of normals at
    a time, and count those ``body.contains_many`` accepts.
    """
    declared = getattr(body.contains_coords, "rejection_probability", None)
    if declared is not None:
        q = declared(body, points, delta)
        return trials - rng.binomial(trials, q), q
    man = body.manifold
    counts = np.zeros(len(points), dtype=np.int64)
    for i, x in enumerate(points):
        done = 0
        while done < trials:
            m = min(_CHUNK, trials - done)
            g = rng.standard_normal((m, man.tangent_dim))
            y = man.propose_many(np.broadcast_to(x, (m, man.ambient_dim)), g, delta)
            counts[i] += np.count_nonzero(body.contains_many(y))
            done += m
    return counts, None


def estimate_local_conductance(
    x,
    body: ConvexBody,
    delta: float,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Unbiased estimate of the accept probability from ``x``.

    Returns the fraction of ``trials`` independent one-step proposals that
    land inside the body.  Where the body declares its exact rejection
    chance (spherical caps, Euclidean boxes) the count is one ``Binomial``
    draw from the exact local conductance; on other bodies the proposals
    are drawn.
    """
    _check_step_size(delta)
    if trials < 1:
        raise PreconditionError("trials must be >= 1")
    coords = _start_coords(x, body, "x")
    counts, _ = _accept_counts(coords[None, :], body, delta, trials, rng)
    return int(counts[0]) / trials


def step_ensemble(
    points: np.ndarray,
    body: ConvexBody,
    delta: float,
    rng: np.random.Generator,
    steps: int = 1,
) -> np.ndarray:
    """Advance a whole ensemble by ``steps`` lazy uniform-walk steps.

    All rows share one generator (a batch of normals per step), so this is
    not stream-compatible with per-chain runs; it exists for diagnostics
    that push thousands of replicas at once.  Returns a new array,
    projected every ``_SLICE`` steps and at the end.
    """
    _check_step_size(delta)
    if steps < 0:
        raise PreconditionError("steps must be >= 0")
    man = body.manifold
    x = np.array(points, dtype=float, copy=True)
    for done in range(0, steps, _SLICE):
        for _ in range(min(_SLICE, steps - done)):
            g = rng.standard_normal((len(x), man.tangent_dim))
            y = man.propose_many(x, g, delta)
            np.copyto(x, y, where=body.contains_many(y)[:, None])
        man.project(x)
    return x
