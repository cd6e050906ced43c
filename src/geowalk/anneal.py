"""Simulated annealing by tempered geodesic walks.

The schedule cools geometrically, ``T_{i+1} = (1 - 1/sqrt(n)) T_i``, from
``T_0 = L D`` down to ``epsilon * fail_prob / (n + 1)``, which takes
``I = ceil(sqrt(n) ln(T_0 (n+1) / (epsilon fail_prob)))`` cooling rounds.
Each phase runs the Metropolis walk at its temperature, starting from the
previous phase's final point, and the reported minimizer is the best point
seen during the final (coldest) phase.

The theory's per-phase step demand, ``C D^2 n^3 (1+R) L^2 / (r^2 T^2)``
times ``ln(1/fail_prob)``, explodes at low temperature, so the budget
waterfills a global step cap across phases: each phase takes the smaller of
its demand and an equal share of what remains, and the savings from cheap
hot phases roll over to the cold ones.  The constant ``C`` is exposed
because the theory fixes only its existence, not its value.

No minimum shift is applied to the objective: the Metropolis filter only
ever sees differences ``f(y) - f(x)``, so shifting ``f`` by any constant,
including a running minimum estimate, changes nothing.

:func:`anneal_trials` runs the trials in lockstep on the draws of
``walk._drawn_slices``: each step makes one ``Manifold.propose_factored``
call for all trials, bit for bit one ``propose_many`` call.  Given the
objective's one-point form ``f``, a step reads the scalar it shares with
the body's test once for all trials, as ``run_chain`` does; otherwise
``contains_many`` tests them and ``f_many`` scores them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bodies import ConvexBody, rejection_sample_uniform
from .errors import DegenerateSchedule, OracleError, PreconditionError, _require_positive
from .rng import BLOCK, stream
from .walk import _SLICE, _drawn_slices, _shared_scalar, validate_delta

__all__ = [
    "AnnealSchedule",
    "AnnealConfig",
    "PhaseRecord",
    "TrialsResult",
    "make_schedule",
    "initial_temperature",
    "allocate_steps",
    "anneal_trials",
]


@dataclass(frozen=True)
class AnnealSchedule:
    phases: int
    temps: tuple[float, ...]
    ratio: float


@dataclass
class AnnealConfig:
    """Optimization-run parameters.

    :func:`allocate_steps` waterfills ``max_total_steps`` across the
    phases against the theoretical demand scaled by ``budget_constant``.
    ``delta`` of ``None`` means ``delta_bound(body)``, the safe default
    step size, as for ``WalkParams.delta``; :func:`walk.validate_delta`
    picks the step for both walks.
    """

    epsilon: float
    fail_prob: float
    lipschitz: float
    budget_constant: float = 1.0
    max_total_steps: int = 10**6
    delta: Optional[float] = None
    override_delta: bool = False

    def __post_init__(self):
        _require_positive(self.epsilon, "epsilon")
        if not 0.0 < self.fail_prob < 1.0:
            raise PreconditionError("fail_prob must lie in (0, 1)")
        _require_positive(self.lipschitz, "lipschitz")
        _require_positive(self.budget_constant, "budget_constant")
        if self.max_total_steps < 1:
            raise PreconditionError("max_total_steps must be >= 1")
        if self.delta is not None:
            _require_positive(self.delta, "step size")


@dataclass(frozen=True)
class PhaseRecord:
    """One trial's phase; the phase at index ``k`` of a trace ran
    ``allocations[k]`` steps at ``schedule.temps[k]``."""

    rejections: int
    best_f: float
    final_f: float


@dataclass(frozen=True)
class TrialsResult:
    """Outcome of independent annealing repetitions run in lockstep."""

    values: np.ndarray
    minimizers: np.ndarray
    traces: tuple[tuple[PhaseRecord, ...], ...]
    schedule: AnnealSchedule
    allocations: tuple[int, ...]
    delta: float


def make_schedule(
    t0: float, n: int, epsilon: float, fail_prob: float
) -> AnnealSchedule:
    """Geometric cooling schedule reaching ``epsilon*fail_prob/(n+1)``.

    A start temperature already at or below the final target degenerates to
    a single phase, with a :class:`DegenerateSchedule` warning naming the caller.
    """
    return _schedule(t0, n, epsilon, fail_prob)


def _schedule(t0: float, n: int, epsilon: float, fail_prob: float) -> AnnealSchedule:
    # stacklevel=3 names the caller of make_schedule or of anneal_trials.
    if n < 2:
        raise PreconditionError("schedule needs intrinsic dimension n >= 2")
    _require_positive(t0, "t0")
    _require_positive(epsilon, "epsilon")
    if not 0.0 < fail_prob < 1.0:
        raise PreconditionError("fail_prob must lie in (0, 1)")
    ratio = 1.0 - 1.0 / math.sqrt(n)
    target = epsilon * fail_prob / (n + 1)
    if t0 < target:
        warnings.warn(
            f"start temperature {t0:.6g} is already below the final target "
            f"{target:.6g}; returning a single-phase schedule",
            DegenerateSchedule,
            stacklevel=3,
        )
        return AnnealSchedule(0, (t0,), ratio)
    phases = max(0, math.ceil(math.sqrt(n) * math.log(t0 / target)))
    temps = [t0]
    for _ in range(phases):
        temps.append(temps[-1] * ratio)
    return AnnealSchedule(phases, tuple(temps), ratio)


def initial_temperature(body: ConvexBody, lipschitz: float) -> float:
    """Hottest useful temperature, ``L * D``: at or above it the Gibbs
    weights across the whole body differ by at most a factor ``e``."""
    _require_positive(lipschitz, "lipschitz")
    return lipschitz * body.diameter


def _raw_demand(body: ConvexBody, temperature: float, config: AnnealConfig) -> float:
    n = body.manifold.tangent_dim
    d = body.diameter
    r = body.inner_radius
    # (L / T)^2, not L^2 / T^2: L^2 alone overflows for L above 1e154.  A
    # product, not ** 2, so that a ratio that still overflows reads inf.
    ratio = config.lipschitz / temperature
    return (
        config.budget_constant
        * d
        * d
        * n**3
        * (1.0 + body.manifold.curvature_bound)
        * ratio
        * ratio
        / (r * r)
        * math.log(1.0 / config.fail_prob)
    )


def allocate_steps(schedule: AnnealSchedule, body: ConvexBody, config: AnnealConfig) -> list[int]:
    """Per-phase step counts, waterfilled from ``config.max_total_steps``.

    Each phase receives the smaller of its theoretical demand and an equal
    split of the remaining global budget, so unused demand from hot phases
    flows to the cold end where demand is astronomical.  Any
    integer-division remainder is simply left unspent.
    """
    count = len(schedule.temps)
    remaining = config.max_total_steps
    allocations = []
    for k, temperature in enumerate(schedule.temps):
        share = remaining // (count - k)
        demand = _raw_demand(body, temperature, config)
        take = int(min(demand, share))
        allocations.append(take)
        remaining -= take
    return allocations


def anneal_trials(
    body: ConvexBody,
    f_many: Callable[[np.ndarray], np.ndarray],
    config: AnnealConfig,
    seed: int,
    trials: int,
    f: Optional[Callable] = None,
) -> TrialsResult:
    """``trials`` independent annealing runs advanced in lockstep.

    Each trial owns the RNG stream ``(seed, trial_index)``, draws its start
    uniformly from the body, and then draws each phase's steps by the
    contract of :mod:`geowalk.rng`, through ``walk._drawn_slices`` into
    step-major buffers, so a trial's result does not depend on how many
    trials run beside it.  One step makes one ``propose_factored`` call for
    all trials, tests membership, scores the proposals and filters the
    in-body rows.  Points, values and best-so-far arrays are updated in
    place in workspaces preallocated once per call, and the points are
    projected after every slice of steps, as in ``walk``.  ``f_many`` must
    accept any batch of manifold points, on or off the body; a non-finite
    value at an in-body proposal raises :class:`OracleError`, while values
    at out-of-body proposals are never used or checked.  ``f``, the
    one-point form of ``f_many`` (``Target.f``), changes no result; see
    ``_lockstep_stage``.
    """
    if trials < 1:
        raise PreconditionError("trials must be >= 1")
    man = body.manifold
    n = man.tangent_dim
    delta = validate_delta(config.delta, config.override_delta, body)
    t0 = initial_temperature(body, config.lipschitz)
    schedule = _schedule(t0, n, config.epsilon, config.fail_prob)
    allocations = allocate_steps(schedule, body, config)

    gens = [stream(seed, t) for t in range(trials)]
    points = np.stack([rejection_sample_uniform(body, g) for g in gens])
    values = np.array(f_many(points), dtype=float)  # a copy: updated in place
    if not np.all(np.isfinite(values)):
        raise OracleError("objective is non-finite at a start point")
    score, checked = _lockstep_stage(body, f_many, f, points, values)

    propose = man.propose_factored
    last = len(schedule.temps) - 1
    records: list[list[PhaseRecord]] = [[] for _ in range(trials)]
    best_points = points.copy()

    normals = np.empty((BLOCK, trials, n))
    thresholds = np.empty(normals.shape[:2])
    accepts = np.empty((_SLICE, trials), dtype=bool)
    rise = np.empty(trials)
    improved = np.empty(trials, dtype=bool)
    for phase, (temperature, steps) in enumerate(zip(schedule.temps, allocations)):
        accepted = np.zeros(trials, dtype=np.int64)
        phase_best = values.copy()
        final = phase == last
        if final:
            np.copyto(best_points, points)
        for factors, slice_thresholds in _drawn_slices(
            gens, steps, man, delta, temperature, normals, thresholds
        ):
            for step, threshold, accept in zip(zip(*factors), slice_thresholds, accepts):
                proposals = propose(points, step)
                inside, trial_values = score(proposals)
                # A finite sum clears the whole batch; otherwise only the
                # in-body rows count, since out-of-body rows are never used.
                if checked and not math.isfinite(trial_values.sum()) and not np.all(
                    np.isfinite(trial_values[inside])
                ):
                    raise OracleError(
                        "objective returned a non-finite value at an in-body proposal"
                    )
                np.subtract(trial_values, values, out=rise)
                np.less(rise, threshold, out=accept)
                accept &= inside
                np.copyto(points, proposals, where=accept[:, None])
                np.copyto(values, trial_values, where=accept)
                if final:
                    np.less(values, phase_best, out=improved)
                    np.copyto(best_points, points, where=improved[:, None])
                np.minimum(phase_best, values, out=phase_best)
            accepted += accepts[: len(slice_thresholds)].sum(axis=0)
            man.project(points)
        for t in range(trials):
            records[t].append(
                PhaseRecord(int(steps - accepted[t]), float(phase_best[t]), float(values[t]))
            )
    return TrialsResult(
        phase_best,
        best_points,
        tuple(tuple(r) for r in records),
        schedule,
        tuple(allocations),
        delta,
    )


def _lockstep_stage(body, f_many, f, starts, start_values):
    """``(score, checked)``, chosen once: ``score(proposals) = (inside,
    values)``, and whether the values need the finiteness check.

    With a shared scalar (``walk._shared_scalar(body, f)``) ``score``
    reads ``s`` once, then ``inside(s)`` and ``outer(arc(s))`` in place,
    if that reproduces ``start_values``, ``f_many`` at ``starts``, bit for
    bit.  Without an ``outer`` no check is needed: NaN fails ``inside``,
    so an in-body ``s``, and ``arc(s)``, is finite.  Otherwise
    ``contains_many`` and ``f_many`` score the rows, checked.
    """
    shared = None if f is None else _shared_scalar(body, f, batched=True)
    if shared is not None:
        read, inside, arc, outer = shared

        def score(proposals):
            s = read(proposals)
            within = inside(s)
            if arc is not None:
                s = arc(s)
            return within, s if outer is None else outer(s)

        if np.asarray(score(starts)[1], dtype=float).tobytes() == start_values.tobytes():
            return score, outer is not None
    return lambda proposals: (body.contains_many(proposals), np.asarray(f_many(proposals), dtype=float)), True
