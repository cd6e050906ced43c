"""Cooling schedules, step budgets, and the annealing loops."""

import math
import warnings

import numpy as np
import pytest

import geowalk as gw
from geowalk.errors import (
    DegenerateSchedule,
    OracleError,
    PreconditionError,
    StepSizeWarning,
)
from geowalk.walk import _SLICE


def s5_cap(angle=math.pi / 3):
    man = gw.Sphere(5)
    axis = np.zeros(6)
    axis[-1] = 1.0
    return gw.SphericalCap(man, axis, angle)


# ---------------------------------------------------------------------------
# Schedules.


def test_schedule_frozen_example():
    schedule = gw.make_schedule(10.0, 4, 0.1, 0.1)
    assert schedule.phases == 18
    assert schedule.ratio == 0.5
    assert len(schedule.temps) == 19
    assert schedule.temps[0] == 10.0
    for a, b in zip(schedule.temps, schedule.temps[1:]):
        assert b == a * 0.5
    # The last temperature undercuts the target eps*fail/(n+1) = 0.002.
    assert schedule.temps[-1] <= 0.002


def test_schedule_reaches_target_generally():
    for n in (2, 5, 9):
        for eps, fail in ((0.1, 0.1), (0.02, 0.3)):
            schedule = gw.make_schedule(3.0, n, eps, fail)
            assert schedule.temps[-1] <= eps * fail / (n + 1) + 1e-15
            assert all(t > 0 for t in schedule.temps)


def test_degenerate_schedule_warns_and_collapses():
    with pytest.warns(DegenerateSchedule) as record:
        schedule = gw.make_schedule(1e-6, 4, 0.5, 0.5)
    assert record[0].filename == __file__
    assert schedule.phases == 0
    assert schedule.temps == (1e-6,)


def test_schedule_rejects_bad_inputs():
    with pytest.raises(PreconditionError):
        gw.make_schedule(1.0, 1, 0.1, 0.1)
    with pytest.raises(PreconditionError):
        gw.make_schedule(-1.0, 4, 0.1, 0.1)
    with pytest.raises(PreconditionError):
        gw.make_schedule(1.0, 4, 0.1, 1.5)


@pytest.mark.parametrize("args", [(math.nan, 5, 0.1, 0.1), (1.0, 5, math.nan, 0.1)])
def test_schedule_rejects_nan_arguments(args):
    with pytest.raises(PreconditionError):
        gw.make_schedule(*args)


def test_schedule_rejects_infinite_start_temperature():
    # An infinite t0 took math.ceil of an infinite phase count.
    with pytest.raises(PreconditionError, match="t0 must be positive and finite"):
        gw.make_schedule(math.inf, 5, 0.1, 0.1)


def test_initial_temperature_rejects_infinite_lipschitz():
    with pytest.raises(PreconditionError, match="lipschitz must be positive and finite"):
        gw.initial_temperature(s5_cap(), math.inf)


def test_anneal_config_rejects_infinite_lipschitz():
    with pytest.raises(PreconditionError, match="lipschitz must be positive and finite"):
        gw.AnnealConfig(epsilon=0.1, fail_prob=0.1, lipschitz=math.inf)


def test_initial_temperature_is_lipschitz_times_diameter():
    cap = s5_cap()
    assert gw.initial_temperature(cap, 2.0) == pytest.approx(2.0 * cap.diameter)
    with pytest.raises(PreconditionError):
        gw.initial_temperature(cap, math.nan)


# ---------------------------------------------------------------------------
# Budgets.


def test_auto_allocation_waterfills_to_cold_phases():
    cap = s5_cap(math.radians(75.0))
    target = gw.distance_to(cap.manifold, cap.inner_center)
    config = gw.AnnealConfig(
        epsilon=0.1, fail_prob=0.1, lipschitz=target.lipschitz, max_total_steps=10**6
    )
    schedule = gw.make_schedule(
        gw.initial_temperature(cap, target.lipschitz), 5, 0.1, 0.1
    )
    allocations = gw.allocate_steps(schedule, cap, config)
    assert sum(allocations) <= 10**6
    # Hot phases take their (smaller) demand; cold phases split the rest.
    assert allocations[0] < allocations[-1]
    assert allocations[-1] == allocations[-2]


def test_anneal_config_validation():
    with pytest.raises(PreconditionError):
        gw.AnnealConfig(epsilon=0.0, fail_prob=0.1, lipschitz=1.0)
    with pytest.raises(PreconditionError):
        gw.AnnealConfig(epsilon=0.1, fail_prob=1.0, lipschitz=1.0)
    with pytest.raises(TypeError):
        gw.AnnealConfig(epsilon=0.1, fail_prob=0.1, lipschitz=1.0, steps_per_phase=37)
    with pytest.raises(PreconditionError):
        gw.AnnealConfig(epsilon=0.1, fail_prob=0.1, lipschitz=1.0, budget_constant=math.nan)
    # NaN fails every comparison, so only "not x > 0" rejects it; a given
    # delta takes WalkParams' finite-and-positive check.
    for bad in ({"epsilon": math.nan}, {"lipschitz": math.nan}):
        with pytest.raises(PreconditionError):
            gw.AnnealConfig(**{"epsilon": 0.1, "fail_prob": 0.1, "lipschitz": 1.0, **bad})
    for delta in (math.nan, 0.0, -0.05):
        with pytest.raises(PreconditionError, match="step size"):
            gw.AnnealConfig(epsilon=0.1, fail_prob=0.1, lipschitz=1.0, delta=delta)


# ---------------------------------------------------------------------------
# The optimization loops.


def _replay_trial(body, target, result, seed, t):
    """Trial ``t`` of ``anneal_trials(body, target.f_many, ...)`` replayed
    one step at a time from the block draws of ``stream(seed, t)``, with
    ``Manifold.project`` of the state after every ``_SLICE`` steps of a
    block and at its end."""
    man = body.manifold
    n = man.tangent_dim
    rng = gw.stream(seed, t)
    x = gw.rejection_sample_uniform(body, rng)[None, :]
    fx = target.f_many(x)[0]
    last = len(result.schedule.temps) - 1
    trace = []
    for phase, (temperature, steps) in enumerate(
        zip(result.schedule.temps, result.allocations)
    ):
        if phase == last:
            best_x, best_f = x, fx
        phase_best, accepted, done = fx, 0, 0
        while done < steps:
            m = min(4096, steps - done)
            normals = rng.standard_normal((m, n))
            thresholds = -temperature * np.log(rng.random(m))
            for j in range(m):
                y = man.propose_many(x, normals[j : j + 1], result.delta)
                fy = target.f_many(y)[0]
                if body.contains_many(y)[0] and fy - fx < thresholds[j]:
                    x, fx, accepted = y, fy, accepted + 1
                phase_best = min(phase_best, fx)
                if phase == last and fx < best_f:
                    best_x, best_f = x, fx
                if (j + 1) % _SLICE == 0 or j + 1 == m:
                    x = man.project(x.copy())
            done += m
        trace.append(gw.PhaseRecord(steps - accepted, phase_best, fx))
    return tuple(trace), best_x[0], best_f


CAP60 = gw.SphericalCap(gw.Sphere(2), np.array([0.0, 0.0, 1.0]), math.pi / 3)
S5CAP = s5_cap()
BOX2 = gw.EuclideanBox(np.zeros(2), np.array([1.0, 2.0]))
SO3BALL = gw.GeodesicBall(gw.SpecialOrthogonal(3), np.eye(3).ravel(), 1.2)


@pytest.mark.parametrize(
    "body, target, budget, seed",
    [
        (CAP60, gw.distance_to(CAP60.manifold, CAP60.axis), 8_000, 11),
        (S5CAP, gw.distance_to(S5CAP.manifold, S5CAP.axis), 8_000, 3),
        (BOX2, gw.linear(np.array([1.0, -0.5])), 1_500, 5),
        (SO3BALL, gw.distance_to(SO3BALL.manifold, SO3BALL.center), 300, 2),
    ],
    ids=["sphere2", "sphere5", "euclidean2", "so3"],
)
def test_lockstep_trials_equal_per_step_replay(body, target, budget, seed):
    # On sphere:2 the final phase takes 5,748 steps, two blocks of draws.
    config = gw.AnnealConfig(
        epsilon=2.0, fail_prob=0.5, lipschitz=target.lipschitz, max_total_steps=budget
    )
    result = gw.anneal_trials(body, target.f_many, config, seed=seed, trials=3)
    assert len(result.schedule.temps) > 1
    for t in (0, 2):
        trace, minimizer, value = _replay_trial(body, target, result, seed, t)
        assert result.traces[t] == trace
        assert np.array_equal(result.minimizers[t], minimizer)
        assert result.values[t] == value
    assert any(rec.rejections for rec in result.traces[0])


def test_lockstep_trial_does_not_depend_on_its_neighbours(cap60):
    target = gw.distance_to(cap60.manifold, cap60.axis)
    config = gw.AnnealConfig(
        epsilon=0.3, fail_prob=0.2, lipschitz=target.lipschitz, max_total_steps=10_000
    )
    alone = gw.anneal_trials(cap60, target.f_many, config, seed=11, trials=1)
    many = gw.anneal_trials(cap60, target.f_many, config, seed=11, trials=20)
    assert np.array_equal(many.minimizers[0], alone.minimizers[0])
    assert many.values[0] == alone.values[0]
    assert many.traces[0] == alone.traces[0]


def test_step_size_warning_points_at_the_caller(cap60):
    target = gw.distance_to(cap60.manifold, cap60.axis)
    config = gw.AnnealConfig(
        epsilon=0.3, fail_prob=0.2, lipschitz=target.lipschitz, max_total_steps=100,
        delta=0.5, override_delta=True,
    )
    with pytest.warns(StepSizeWarning) as record:
        gw.anneal_trials(cap60, target.f_many, config, seed=0, trials=1)
    assert record[0].filename == __file__


def test_degenerate_schedule_warning_points_at_the_caller(cap60):
    target = gw.distance_to(cap60.manifold, cap60.axis)
    # T_0 = L D = 2.09 is already below the target 50 * 0.5 / 3.
    config = gw.AnnealConfig(
        epsilon=50.0, fail_prob=0.5, lipschitz=target.lipschitz, max_total_steps=100
    )
    with pytest.warns(DegenerateSchedule) as record:
        result = gw.anneal_trials(cap60, target.f_many, config, seed=0, trials=1)
    assert record[0].filename == __file__
    assert result.schedule.phases == 0


def test_lockstep_trials_are_deterministic(cap60):
    target = gw.distance_to(cap60.manifold, cap60.axis)
    config = gw.AnnealConfig(
        epsilon=0.3, fail_prob=0.2, lipschitz=target.lipschitz, max_total_steps=20_000
    )
    first = gw.anneal_trials(cap60, target.f_many, config, seed=3, trials=4)
    second = gw.anneal_trials(cap60, target.f_many, config, seed=3, trials=4)
    assert np.array_equal(first.values, second.values)
    assert np.array_equal(first.minimizers, second.minimizers)
    shifted = gw.anneal_trials(cap60, target.f_many, config, seed=4, trials=4)
    assert not np.array_equal(first.values, shifted.values)
    assert all(len(t) == len(first.schedule.temps) for t in first.traces)
    assert np.all(cap60.contains_many(first.minimizers))
    assert np.all(first.values < 0.3)


def test_trial_values_match_minimizers(cap60):
    target = gw.distance_to(cap60.manifold, cap60.axis)
    config = gw.AnnealConfig(
        epsilon=0.3, fail_prob=0.2, lipschitz=target.lipschitz, max_total_steps=10_000
    )
    result = gw.anneal_trials(cap60, target.f_many, config, seed=8, trials=3)
    recomputed = target.f_many(result.minimizers)
    assert np.max(np.abs(recomputed - result.values)) < 1e-12


def test_long_lockstep_run_stays_on_sphere_and_in_cap():
    cap = s5_cap(math.radians(75.0))
    target = gw.distance_to(cap.manifold, cap.axis)
    config = gw.AnnealConfig(
        epsilon=0.1, fail_prob=0.1, lipschitz=target.lipschitz, max_total_steps=108_000
    )
    result = gw.anneal_trials(cap, target.f_many, config, seed=2, trials=2)
    assert sum(result.allocations) >= 10**5
    norms = np.linalg.norm(result.minimizers, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    assert np.all(cap.contains_many(result.minimizers))
    for trace in result.traces:
        assert all(0 <= rec.rejections <= steps for rec, steps in zip(trace, result.allocations))
        assert all(rec.best_f <= rec.final_f for rec in trace)


def test_huge_lipschitz_constant_anneals(cap60):
    # L**2 overflows a double above L = 1e154; the demand squares L / T,
    # which at the cold end still overflows, to an infinite demand.
    target = gw.distance_to(cap60.manifold, cap60.axis)
    config = gw.AnnealConfig(epsilon=0.3, fail_prob=0.2, lipschitz=1e160, max_total_steps=3_000)
    result = gw.anneal_trials(cap60, target.f_many, config, seed=1, trials=2)
    assert len(result.schedule.temps) > 500
    assert sum(result.allocations) == config.max_total_steps
    assert np.all(cap60.contains_many(result.minimizers))
    assert np.all(np.isfinite(result.values))


def test_lockstep_raises_on_non_finite_in_body_value(cap60):
    target = gw.distance_to(cap60.manifold, cap60.axis)
    calls = []

    def f_many(points):
        calls.append(len(points))
        values = target.f_many(points)
        return values if len(calls) == 1 else np.full_like(values, np.nan)

    config = gw.AnnealConfig(
        epsilon=0.3, fail_prob=0.2, lipschitz=target.lipschitz, max_total_steps=2_000
    )
    with pytest.raises(OracleError):
        gw.anneal_trials(cap60, f_many, config, seed=1, trials=3)


def test_lockstep_raises_on_a_non_finite_start_value(cap60):
    config = gw.AnnealConfig(epsilon=0.3, fail_prob=0.2, lipschitz=1.0, max_total_steps=2_000)
    with pytest.raises(OracleError, match="non-finite at a start point"):
        gw.anneal_trials(cap60, lambda points: np.full(len(points), np.nan), config, 1, 3)


def test_lockstep_ignores_non_finite_values_outside_the_body(cap60):
    target = gw.distance_to(cap60.manifold, cap60.axis)

    def f_many(points):
        values = target.f_many(points)
        values[~cap60.contains_many(points)] = np.nan
        return values

    config = gw.AnnealConfig(
        epsilon=0.3, fail_prob=0.2, lipschitz=target.lipschitz, max_total_steps=4_000
    )
    masked = gw.anneal_trials(cap60, f_many, config, seed=6, trials=3)
    plain = gw.anneal_trials(cap60, target.f_many, config, seed=6, trials=3)
    assert np.array_equal(masked.values, plain.values)
    assert masked.traces == plain.traces


# ---------------------------------------------------------------------------
# One shared scalar per lockstep step, when the body and f declare it.

S3BALL = gw.GeodesicBall(gw.Sphere(3), np.array([0.0, 0.0, 0.0, 1.0]), 0.9)


def _counted(f_many, calls):
    def counted(points):
        calls.append(len(points))
        return f_many(points)

    return counted


def _with_and_without_f(body, target, f, budget, seed, f_many=None):
    """``anneal_trials`` given ``f`` and not, and the ``f_many`` calls of
    the first run."""
    config = gw.AnnealConfig(
        epsilon=2.0, fail_prob=0.5, lipschitz=target.lipschitz, max_total_steps=budget
    )
    f_many = target.f_many if f_many is None else f_many
    calls = []
    given = gw.anneal_trials(body, _counted(f_many, calls), config, seed, 3, f=f)
    plain = gw.anneal_trials(body, f_many, config, seed, 3)
    assert given.values.tobytes() == plain.values.tobytes()
    assert given.minimizers.tobytes() == plain.minimizers.tobytes()
    assert given.traces == plain.traces
    assert any(rec.rejections for rec in plain.traces[0])
    return calls, sum(plain.allocations)


@pytest.mark.parametrize(
    "body, target, budget, seed",
    [
        (CAP60, gw.distance_to(CAP60.manifold, CAP60.axis), 4_000, 11),
        (S5CAP, gw.distance_to(S5CAP.manifold, S5CAP.axis), 4_000, 3),
        (CAP60, gw.sqdist_to(CAP60.manifold, CAP60.axis, CAP60.diameter), 4_000, 7),
        (S3BALL, gw.distance_to(S3BALL.manifold, S3BALL.center), 4_000, 5),
        (SO3BALL, gw.distance_to(SO3BALL.manifold, SO3BALL.center), 300, 2),
    ],
    ids=["sphere2-cap", "sphere5-cap", "cap-sqdist", "sphere3-ball", "so3-ball"],
)
def test_shared_scalar_stage_matches_the_generic_one(body, target, budget, seed):
    # Only the start points are scored by f_many; every step reads the
    # shared scalar instead.
    calls, _ = _with_and_without_f(body, target, target.f, budget, seed)
    assert calls == [3]


@pytest.mark.parametrize("case", ["off-axis-anchor", "undeclared-f", "disagreeing-f"])
def test_unshared_or_unconfirmed_scalars_keep_the_generic_stage(case):
    man = CAP60.manifold
    target = gw.distance_to(man, CAP60.axis)
    f, f_many = target.f, None
    if case == "off-axis-anchor":
        target = gw.distance_to(man, np.array([0.0, math.sin(0.3), math.cos(0.3)]))
        f = target.f
    elif case == "undeclared-f":
        f = lambda x: target.f(x)
    else:
        # f declares distance_to(axis), but f_many is sqdist_to(axis): the
        # start values differ, so the guard keeps f_many.
        f_many = gw.sqdist_to(man, CAP60.axis, CAP60.diameter).f_many
    calls, steps = _with_and_without_f(CAP60, target, f, 4_000, 13, f_many)
    assert calls == [3] * (1 + steps)


def test_shared_stage_still_raises_on_a_non_finite_declared_outer(cap60):
    # outer is NaN within 0.05 of the axis, which the cold phases reach;
    # the start points lie farther out.
    man = cap60.manifold
    outer = lambda d: np.where(d > 0.05, d, np.nan)
    f = lambda x: outer(man.dist(man.as_row(cap60.axis), x))
    f.of_distance = (man.dist, cap60.axis, outer)
    calls = []
    f_many = _counted(lambda points: outer(man.dist_many(points, cap60.axis)), calls)
    config = gw.AnnealConfig(epsilon=0.01, fail_prob=0.1, lipschitz=1.0, max_total_steps=20_000)
    with pytest.raises(OracleError, match="in-body proposal"):
        gw.anneal_trials(cap60, f_many, config, seed=1, trials=3, f=f)
    assert calls == [3]
