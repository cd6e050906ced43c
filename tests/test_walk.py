"""Chain mechanics: step sizes, determinism, stream discipline, emission."""

import math
import warnings

import numpy as np
import pytest

import geowalk as gw
from geowalk.errors import InvalidStart, OracleError, PreconditionError, StepSizeWarning


def cap_on_sphere(n=2, angle=math.pi / 3):
    man = gw.Sphere(n)
    axis = np.zeros(man.ambient_dim)
    axis[-1] = 1.0
    return gw.SphericalCap(man, axis, angle)


# ---------------------------------------------------------------------------
# Step-size bound.


def test_delta_bound_frozen_values():
    # S^9, cap of radius pi/3: the inner-ball term pi/648 wins over the
    # curvature term sqrt(1/2700).
    cap9 = cap_on_sphere(9)
    assert gw.delta_bound(cap9.manifold, cap9) == pytest.approx(
        0.0048481368110953596, abs=1e-15
    )
    # S^2, same cap: the curvature term is sqrt(1/(200 sqrt 2)) = 0.0595,
    # the ball term pi/(48 sqrt 2) = 0.0463; the ball term wins.
    cap2 = cap_on_sphere(2)
    assert gw.delta_bound(cap2.manifold, cap2) == pytest.approx(
        math.pi / (48.0 * math.sqrt(2.0)), abs=1e-15
    )


def test_delta_bound_flat_space_only_ball_term():
    box = gw.EuclideanBox(np.zeros(2), np.ones(2))
    expected = 0.5 * 0.5 / (4.0 * 2.0 * math.sqrt(2.0))
    assert gw.delta_bound(box.manifold, box) == pytest.approx(expected, abs=1e-15)
    with pytest.raises(PreconditionError):
        gw.delta_bound(box.manifold, box, s=0.6)


def test_oversized_delta_raises_unless_overridden():
    cap = cap_on_sphere()
    params = gw.WalkParams(delta=0.5, max_steps=10, seed=0)
    with pytest.raises(PreconditionError):
        gw.run_chain(cap.axis, cap, params)
    loose = gw.WalkParams(delta=0.5, max_steps=10, seed=0, override_delta=True)
    with pytest.warns(StepSizeWarning):
        gw.run_chain(cap.axis, cap, loose)


def test_suggested_burn_in_formula():
    man = gw.Sphere(2)
    assert gw.suggested_burn_in(man, 0.1) == math.ceil(10 * 4 / 0.01)


# ---------------------------------------------------------------------------
# Determinism and stream discipline.


def test_chains_are_deterministic_and_distinct():
    cap = cap_on_sphere()
    params = gw.WalkParams(delta=0.04, max_steps=500, seed=42)
    a = gw.run_chain(cap.axis, cap, params, thin=5)
    b = gw.run_chain(cap.axis, cap, params, thin=5)
    assert np.array_equal(a.final, b.final)
    assert all(
        np.array_equal(sa.coords, sb.coords) for sa, sb in zip(a.samples, b.samples)
    )
    other = gw.run_chain(cap.axis, cap, params, thin=5, chain_id=1)
    assert not np.array_equal(a.final, other.final)


def test_uniform_walk_equals_constant_target_walk():
    cap = cap_on_sphere()
    params = gw.WalkParams(delta=0.04, max_steps=400, seed=9)
    plain = gw.run_chain(cap.axis, cap, params, thin=3)
    flat = gw.GibbsTarget(f=lambda x: 1.0, lipschitz=1.0, temperature=0.7)
    filtered = gw.run_chain(cap.axis, cap, params, target=flat, thin=3)
    assert np.array_equal(plain.final, filtered.final)
    for sa, sb in zip(plain.samples, filtered.samples):
        assert sa.step == sb.step
        assert np.array_equal(sa.coords, sb.coords)
        assert sa.rejected == sb.rejected


def test_single_steps_stay_stream_aligned():
    cap = cap_on_sphere()
    params = gw.WalkParams(delta=0.04)
    flat = gw.GibbsTarget(f=lambda x: 2.5, lipschitz=1.0, temperature=1.0)
    rng_a = gw.stream(3)
    rng_b = gw.stream(3)
    state_a = gw.WalkState(cap.axis.copy())
    state_b = gw.WalkState(cap.axis.copy())
    for _ in range(50):
        state_a = gw.uniform_step(state_a, cap, params, rng_a)
        state_b = gw.metropolis_step(state_b, cap, flat, params, rng_b)
        assert np.array_equal(state_a.point, state_b.point)
    assert rng_a.random() == rng_b.random()


def test_run_chain_equals_iterated_metropolis_steps():
    cap = cap_on_sphere()
    gibbs = gw.as_gibbs(gw.distance_to(cap.manifold, cap.axis), 0.2)
    params = gw.WalkParams(delta=0.04, max_steps=400, seed=12)
    chain = gw.run_chain(cap.axis, cap, params, target=gibbs, chain_id=3)
    rng = gw.stream(12, 3)
    state = gw.WalkState(cap.axis.copy())
    for sample in chain.samples:
        state = gw.metropolis_step(state, cap, gibbs, params, rng)
        assert sample.step == state.step_index
        assert np.array_equal(sample.coords, state.point)
        assert sample.rejected == state.rejected_last
        assert sample.f_value == state.f_value
    assert len(chain.samples) == 400
    assert chain.stats.rejections == state.cumulative_rejections > 0


def test_start_none_draws_uniformly_from_chain_stream():
    cap = cap_on_sphere()
    params = gw.WalkParams(delta=0.04, max_steps=5, seed=13)
    auto = gw.run_chain(None, cap, params)
    drawn = gw.rejection_sample_uniform(cap, gw.stream(13, 0))
    replay = gw.run_chain(drawn, cap, params)
    # Same stream: explicit replay of the auto-drawn start diverges because
    # the auto run consumed draws for the start; the auto run itself is
    # reproducible.
    again = gw.run_chain(None, cap, params)
    assert np.array_equal(auto.final, again.final)
    assert not np.array_equal(auto.final, replay.final)


# ---------------------------------------------------------------------------
# Emission arithmetic and stats.


def test_thin_and_burn_in_emission():
    cap = cap_on_sphere()
    params = gw.WalkParams(delta=0.04, max_steps=10, seed=1)
    result = gw.run_chain(cap.axis, cap, params, thin=2, burn_in=3)
    assert [s.step for s in result.samples] == [5, 7, 9]
    everything = gw.run_chain(cap.axis, cap, params, thin=1, burn_in=0)
    assert [s.step for s in everything.samples] == list(range(1, 11))


def test_stats_add_up():
    cap = cap_on_sphere()
    params = gw.WalkParams(delta=0.04, max_steps=2000, seed=5)
    result = gw.run_chain(cap.axis, cap, params)
    st = result.stats
    assert st.steps == 2000
    assert st.rejections == st.boundary_rejections + st.filter_rejections
    assert 0.0 <= st.rejection_fraction < 0.5


def test_metropolis_samples_carry_f_values():
    cap = cap_on_sphere()
    target = gw.distance_to(cap.manifold, cap.axis)
    params = gw.WalkParams(delta=0.04, max_steps=100, seed=2)
    gibbs = gw.as_gibbs(target, 0.2)
    result = gw.run_chain(cap.axis, cap, params, target=gibbs, thin=10)
    assert all(s.f_value is not None for s in result.samples)
    for s in result.samples:
        assert s.f_value == pytest.approx(
            cap.manifold.dist(s.coords, cap.axis), abs=1e-12
        )
    assert result.best_f <= min(s.f_value for s in result.samples)
    assert result.best_f == pytest.approx(
        cap.manifold.dist(result.best_coords, cap.axis), abs=1e-12
    )


def test_warm_start_threads_between_runs():
    cap = cap_on_sphere()
    params = gw.WalkParams(delta=0.04, max_steps=300, seed=7)
    first = gw.run_chain(cap.axis, cap, params)
    second = gw.run_chain(first.final, cap, params, chain_id=1)
    assert cap.contains_coords(second.final)
    again = gw.run_chain(first.final, cap, params, chain_id=1)
    assert np.array_equal(second.final, again.final)


def test_invalid_starts_are_rejected():
    cap = cap_on_sphere()
    params = gw.WalkParams(delta=0.04, max_steps=10)
    outside = np.array([0.0, 1.0, 0.0])
    with pytest.raises(InvalidStart):
        gw.run_chain(outside, cap, params)
    with pytest.raises(PreconditionError):
        gw.run_chain(np.array([0.3, 0.3, 0.3]), cap, params)


def test_non_finite_target_raises():
    cap = cap_on_sphere()
    params = gw.WalkParams(delta=0.04, max_steps=50, seed=0)
    bad = gw.GibbsTarget(f=lambda x: math.nan, lipschitz=1.0, temperature=1.0)
    with pytest.raises(OracleError):
        gw.run_chain(cap.axis, cap, params, target=bad)


def test_walk_params_validation():
    with pytest.raises(PreconditionError):
        gw.WalkParams(delta=0.0)
    with pytest.raises(PreconditionError):
        gw.WalkParams(delta=0.1, max_steps=-1)
    with pytest.raises(PreconditionError):
        gw.GibbsTarget(f=lambda x: 0.0, lipschitz=1.0, temperature=0.0)


# ---------------------------------------------------------------------------
# Conductance and ensembles.


def test_local_conductance_interior_vs_boundary():
    cap = cap_on_sphere()
    params = gw.WalkParams(delta=0.04)
    deep = gw.estimate_local_conductance(cap.axis, cap, params, 4000, gw.stream(0))
    assert deep == 1.0
    rim = np.array([math.sin(math.pi / 3 - 1e-6), 0.0, math.cos(math.pi / 3 - 1e-6)])
    edge = gw.estimate_local_conductance(rim, cap, params, 4000, gw.stream(1))
    assert abs(edge - 0.5) < 0.05


def test_step_ensemble_keeps_points_inside():
    cap = cap_on_sphere()
    starts = gw.sample_uniform_many(cap, gw.stream(3), 256)
    moved = gw.step_ensemble(starts, cap, 0.05, gw.stream(4), steps=10)
    assert moved.shape == starts.shape
    assert np.all(cap.contains_many(moved))
    assert not np.array_equal(moved, starts)
