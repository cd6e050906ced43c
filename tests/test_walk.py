"""Chain mechanics: step sizes, determinism, stream discipline, emission."""

import collections
import functools
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import geowalk as gw
import row_reference
from geowalk import bodies, diagnostics, manifolds, targets, walk
from geowalk import quadrature
from geowalk.quadrature import integrate
from geowalk.rng import BLOCK
from geowalk.walk import _SLICE
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
    assert gw.delta_bound(cap9) == pytest.approx(0.0048481368110953596, abs=1e-15)
    # S^2, same cap: the curvature term is sqrt(1/(200 sqrt 2)) = 0.0595,
    # the ball term pi/(48 sqrt 2) = 0.0463; the ball term wins.
    cap2 = cap_on_sphere(2)
    assert gw.delta_bound(cap2) == pytest.approx(math.pi / (48.0 * math.sqrt(2.0)), abs=1e-15)


def test_delta_bound_flat_space_only_ball_term():
    box = gw.EuclideanBox(np.zeros(2), np.ones(2))
    expected = 0.5 * 0.5 / (4.0 * 2.0 * math.sqrt(2.0))
    assert gw.delta_bound(box) == pytest.approx(expected, abs=1e-15)


def test_oversized_delta_raises_unless_overridden():
    cap = cap_on_sphere()
    params = gw.WalkParams(delta=0.5, max_steps=10, seed=0)
    with pytest.raises(PreconditionError):
        gw.run_chain(cap.axis, cap, params)
    loose = gw.WalkParams(delta=0.5, max_steps=10, seed=0, override_delta=True)
    with pytest.warns(StepSizeWarning) as record:
        gw.run_chain(cap.axis, cap, loose)
    assert record[0].filename == __file__


@pytest.mark.parametrize("gibbs", [False, True])
def test_unset_delta_walks_with_delta_bound(gibbs):
    # WalkParams.delta of None takes the step validate_delta picks, the
    # same delta_bound(body) that an unset AnnealConfig.delta takes.
    cap = cap_on_sphere()
    target = gw.GibbsTarget(gw.distance_to(cap.manifold, cap.axis).f, 0.3) if gibbs else None
    assert gw.validate_delta(None, False, cap) == gw.delta_bound(cap)
    unset = gw.run_chain(cap.axis, cap, gw.WalkParams(max_steps=700, seed=4), target, burn_in=50)
    given = gw.WalkParams(delta=gw.delta_bound(cap), max_steps=700, seed=4)
    bound = gw.run_chain(cap.axis, cap, given, target, burn_in=50)
    for name in ("coords", "rejected", "final"):
        assert getattr(unset, name).tobytes() == getattr(bound, name).tobytes()
    if gibbs:
        assert unset.f_values.tobytes() == bound.f_values.tobytes()
    else:
        assert unset.f_values is bound.f_values is None
    assert unset.stats == bound.stats and unset.stats.rejections > 0


def replay_chain(start, body, params, target=None, chain_id=0, inside=None, f=None):
    """``run_chain`` replayed one step at a time on numpy points, from the
    block draws of ``stream(params.seed, chain_id)``: per ``_SLICE`` steps
    the proposal factors and, after them, ``Manifold.project`` of the
    state; per block the filter thresholds ``-T log w``.  On ``sphere:n``
    and ``euclidean:n`` each proposal is the explicit-loop reference of
    ``row_reference.py``, not the compiled kernel.  ``inside`` and ``f``
    replace ``body.contains_coords`` and ``target.f`` when given.  Returns
    the ``(point, rejected, f value)`` after each step, the start first,
    and the projected final point."""
    man = body.manifold
    rng = gw.stream(params.seed, chain_id)
    inside_body = inside or body.contains_coords
    f = f or (None if target is None else target.f)
    if isinstance(man, (gw.Sphere, gw.Euclidean)):
        propose = lambda x, factors: row_reference.propose_row(man, x.tolist(), factors)
    else:
        propose = man.propose_row
    x = np.array(start, dtype=float)
    fx = None if target is None else f(x)
    states = [(x, False, fx)]
    for done in range(0, params.max_steps, BLOCK):
        m = min(BLOCK, params.max_steps - done)
        normals = rng.standard_normal((m, man.tangent_dim))
        with np.errstate(divide="ignore"):
            thresholds = np.log(rng.random(m))
        if target is not None:
            thresholds *= -target.temperature
        for lo in range(0, m, _SLICE):
            factors = [man.as_row(a) for a in man.proposal_factors(normals[lo : lo + _SLICE], params.delta)]
            for step, threshold in zip(zip(*factors), thresholds[lo : lo + _SLICE]):
                y = np.array(propose(x, step))
                inside = inside_body(y)
                if inside and target is not None:
                    fy = f(y)
                    inside = fy - fx < threshold
                if inside:
                    x, fx = y, (None if target is None else fy)
                states.append((x, not inside, fx))
            x = man.project(np.array(x))
    return states, x


def assert_chain_replays(start, body, params, target=None, thin=1, burn_in=0, chain_id=0):
    """Every column of the chain equals the per-step replay, bit for bit."""
    chain = gw.run_chain(start, body, params, target, thin, burn_in, chain_id)
    states, final = replay_chain(start, body, params, target, chain_id)
    kept = [states[step] for step in chain.steps]
    assert np.array_equal(chain.coords, np.array([p for p, _, _ in kept]).reshape(chain.coords.shape))
    assert chain.rejected.tolist() == [r for _, r, _ in kept]
    if target is None:
        assert chain.f_values is None
    else:
        assert chain.f_values.tolist() == [f for _, _, f in kept]
    assert np.array_equal(chain.final, final)
    assert chain.stats.rejections == sum(r for _, r, _ in states)
    return chain


# ---------------------------------------------------------------------------
# Determinism and stream discipline.


def test_chains_are_deterministic_and_distinct():
    cap = cap_on_sphere()
    params = gw.WalkParams(delta=0.04, max_steps=500, seed=42)
    a = gw.run_chain(cap.axis, cap, params, thin=5)
    b = gw.run_chain(cap.axis, cap, params, thin=5)
    assert np.array_equal(a.final, b.final)
    assert np.array_equal(a.coords, b.coords)
    other = gw.run_chain(cap.axis, cap, params, thin=5, chain_id=1)
    assert not np.array_equal(a.final, other.final)


def test_uniform_walk_equals_constant_target_walk():
    cap = cap_on_sphere()
    params = gw.WalkParams(delta=0.04, max_steps=400, seed=9)
    plain = gw.run_chain(cap.axis, cap, params, thin=3)
    flat = gw.GibbsTarget(f=lambda x: 1.0, temperature=0.7)
    filtered = gw.run_chain(cap.axis, cap, params, target=flat, thin=3)
    assert np.array_equal(plain.final, filtered.final)
    assert np.array_equal(plain.steps, filtered.steps)
    assert np.array_equal(plain.coords, filtered.coords)
    assert np.array_equal(plain.rejected, filtered.rejected)


def test_run_chain_equals_iterated_metropolis_steps():
    cap = cap_on_sphere()
    gibbs = gw.GibbsTarget(gw.distance_to(cap.manifold, cap.axis).f, 0.2)
    params = gw.WalkParams(delta=0.04, max_steps=400, seed=12)
    chain = assert_chain_replays(cap.axis, cap, params, gibbs, chain_id=3)
    assert len(chain.steps) == 400
    assert chain.stats.rejections > 0


# A chain across the first block boundary: the kept rows at steps 4093,
# 4095, ... fall on both sides of step BLOCK = 4096.
ACROSS = dict(max_steps=BLOCK + 37, thin=2, burn_in=BLOCK - 5)


@pytest.mark.parametrize(
    "case", ["sphere2-cap-gibbs", "euclidean2-box-linear", "so3-ball-uniform", "so3-ball-gibbs"]
)
def test_run_chain_replays_across_a_block_boundary(case):
    if case == "sphere2-cap-gibbs":
        body = cap_on_sphere()
        target = gw.GibbsTarget(gw.distance_to(body.manifold, body.axis).f, 0.2)
        delta = 0.04
    elif case == "euclidean2-box-linear":
        body = gw.EuclideanBox(np.zeros(2), np.array([1.0, 2.0]))
        target = gw.GibbsTarget(gw.linear(np.array([1.0, -0.5])).f, 0.25)
        delta = 0.05
    else:
        man = gw.SpecialOrthogonal(3)
        body = gw.GeodesicBall(man, np.eye(3).ravel(), 0.5)
        target = None
        if case == "so3-ball-gibbs":
            target = gw.GibbsTarget(gw.distance_to(man, np.eye(3).ravel()).f, 0.15)
        delta = 0.05
    params = gw.WalkParams(delta=delta, max_steps=ACROSS["max_steps"], seed=21, override_delta=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StepSizeWarning)
        chain = assert_chain_replays(
            body.inner_center, body, params, target, ACROSS["thin"], ACROSS["burn_in"], chain_id=1
        )
    assert chain.steps[0] < BLOCK < chain.steps[-1]
    assert len(chain.steps) == 21
    assert 0 < chain.stats.rejections < ACROSS["max_steps"]


@pytest.mark.parametrize("gibbs", [False, True])
def test_run_chain_replays_across_a_slice_boundary(gibbs):
    # Burn-in ends mid-slice and the kept rows 203, 206, ..., 599 fall on
    # both sides of the slice boundaries at steps 256 and 512.
    cap = cap_on_sphere()
    target = gw.GibbsTarget(gw.distance_to(cap.manifold, cap.axis).f, 0.2) if gibbs else None
    params = gw.WalkParams(delta=0.04, max_steps=2 * _SLICE + 88, seed=23)
    chain = assert_chain_replays(cap.axis, cap, params, target, thin=3, burn_in=_SLICE - 56)
    assert chain.steps[0] < _SLICE < 2 * _SLICE < chain.steps[-1]
    assert len(chain.steps) == 133
    assert 0 < chain.stats.rejections < params.max_steps


def float_row_path(case):
    """One shipped float-row step path: the body, the Gibbs target (or
    ``None``), the step size, and the explicit-loop references of the
    body's membership test and of the target's ``f``."""
    if case in ("low-temp-cap", "sample-cap"):
        body = diagnostics._default_cap()
        axis = body.axis.tolist()
        inside = lambda y: row_reference.cap_contains(axis, body.cos_angle, y.tolist())
        if case == "sample-cap":
            return body, None, gw.delta_bound(body), inside, None
        target = gw.GibbsTarget(gw.distance_to(body.manifold, body.axis).f, 0.05)
        return body, target, gw.delta_bound(body), inside, lambda y: row_reference.sphere_dist(axis, y.tolist())
    if case == "box-linear":
        body = gw.EuclideanBox(np.zeros(2), np.array([1.0, 2.0]))
        c = [1.0, -0.5]
        target = gw.GibbsTarget(gw.linear(np.array(c)).f, 0.25)
        inside = lambda y: row_reference.box_contains([0.0, 0.0], [1.0, 2.0], y.tolist())
        return body, target, gw.delta_bound(body), inside, lambda y: row_reference.linear_f(c, y.tolist())
    man = gw.Sphere(3)
    center = [0.0, 0.6, 0.0, 0.8]
    body = gw.GeodesicBall(man, np.array(center), 0.9)
    target = gw.GibbsTarget(gw.sqdist_to(man, body.center, body.diameter).f, 0.2)
    inside = lambda y: row_reference.sphere_dist(center, y.tolist()) <= 0.9
    f = lambda y: 0.5 * row_reference.sphere_dist(center, y.tolist()) ** 2
    return body, target, gw.delta_bound(body), inside, f


@pytest.mark.parametrize("case", ["low-temp-cap", "sample-cap", "box-linear", "sphere-ball-sqdist"])
def test_float_row_chains_replay_the_reference_step(case):
    # Each shipped float-row path (the shared-scalar cap of
    # low_temp_expectation, sample_cap's plain membership, sample_box_gibbs's
    # box with linear, a sphere:n ball with sqdist_to at its centre) against
    # the explicit-loop references, every step kept.
    body, target, delta, inside, f = float_row_path(case)
    params = gw.WalkParams(delta=delta, max_steps=_SLICE + 300, seed=17)
    chain = gw.run_chain(body.inner_center, body, params, target)
    states, final = replay_chain(body.inner_center, body, params, target, inside=inside, f=f)
    assert np.array_equal(chain.coords, np.array([p for p, _, _ in states[1:]]))
    assert np.array_equal(chain.rejected, np.array([r for _, r, _ in states[1:]]))
    if target is not None:
        assert np.array_equal(chain.f_values, np.array([v for _, _, v in states[1:]]))
    assert np.array_equal(chain.final, final)
    assert 0 < chain.stats.rejections < params.max_steps


# Burn-in ends mid-slice, and emission and the step counter cross three
# slice boundaries.
SLICES = dict(max_steps=3 * _SLICE + 5, thin=7, burn_in=101)


@pytest.mark.parametrize("case", ["low-temp-cap", "sample-cap", "box-linear", "sphere-ball-sqdist"])
def test_float_row_chains_replay_the_reference_step_thinned(case):
    body, target, delta, inside, f = float_row_path(case)
    params = gw.WalkParams(delta=delta, max_steps=SLICES["max_steps"], seed=19)
    chain = gw.run_chain(body.inner_center, body, params, target, SLICES["thin"], SLICES["burn_in"])
    states, final = replay_chain(body.inner_center, body, params, target, inside=inside, f=f)
    kept = [states[step] for step in chain.steps]
    assert chain.steps[0] < _SLICE and chain.steps[-1] > 3 * _SLICE - SLICES["thin"]
    assert np.array_equal(chain.coords, np.array([p for p, _, _ in kept]))
    assert chain.rejected.tolist() == [r for _, r, _ in kept]
    if target is not None:
        assert chain.f_values.tolist() == [v for _, _, v in kept]
    assert np.array_equal(chain.final, final)
    assert chain.stats.rejections == sum(r for _, r, _ in states)


@pytest.mark.parametrize("case", ["low-temp-cap", "box-linear", "sphere-ball-sqdist"])
def test_chain_f_values_are_the_run_chain_column(case):
    # The loop that emits only f values against the one that emits every
    # column, on each float-row path with a target (sample-cap has none).
    body, target, delta, _, _ = float_row_path(case)
    params = gw.WalkParams(delta=delta, max_steps=SLICES["max_steps"], seed=20)
    chain = gw.run_chain(body.inner_center, body, params, target, burn_in=SLICES["burn_in"])
    alone = walk._chain_f_values(body.inner_center, body, params, target, SLICES["burn_in"])
    assert alone.tobytes() == chain.f_values.tobytes()


@pytest.mark.parametrize("case", ["so3-ball-distance", "oracle-sphere-ball", "cap-custom-f"])
def test_called_stages_replay_the_reference_step(case, oracle_sphere):
    # Stages without a row kernel are calls inside the one generated loop:
    # every stage on so:3 and on a sphere built from the four oracles, and
    # membership and f for an f that declares no distance.
    if case == "so3-ball-distance":
        man = gw.SpecialOrthogonal(3)
        body = gw.GeodesicBall(man, np.eye(3).ravel(), 0.9)
        target = gw.GibbsTarget(gw.distance_to(man, np.eye(3).ravel()).f, 0.3)
    elif case == "oracle-sphere-ball":
        body = gw.GeodesicBall(oracle_sphere, np.array([0.0, 0.0, 1.0]), 0.9)
        target = gw.GibbsTarget(gw.distance_to(oracle_sphere, np.array([0.0, 0.6, 0.8])).f, 0.2)
    else:
        body = cap_on_sphere()
        target = gw.GibbsTarget(lambda x: 1.0 - x[2], 0.05)
    assert (manifolds._inline(body.manifold.propose_row, body.manifold, [], "p") is None) == (case != "cap-custom-f")
    params = gw.WalkParams(delta=0.1, max_steps=SLICES["max_steps"], seed=26, override_delta=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StepSizeWarning)
        chain = assert_chain_replays(body.inner_center, body, params, target, SLICES["thin"], SLICES["burn_in"])
    assert 0 < chain.stats.boundary_rejections and 0 < chain.stats.filter_rejections


def test_lockstep_anneal_compiles_no_sphere_step_kernel(monkeypatch):
    # anneal_trials steps with the batched kernels; only the cap's one-row
    # read, behind its membership test of the start draws, may be built.
    built = []
    factory = manifolds._row_factory
    for module in (manifolds, bodies, targets):  # each holds its own reference
        monkeypatch.setattr(module, "_row_factory", lambda template, n: built.append(template) or factory(template, n))
    cap = diagnostics._default_cap(5)
    target = gw.distance_to(cap.manifold, cap.axis)
    config = gw.AnnealConfig(epsilon=0.3, fail_prob=0.2, lipschitz=target.lipschitz, max_total_steps=3000)
    gw.anneal_trials(cap, target.f_many, config, seed=3, trials=4)
    assert built and {t.__name__ for t in built} <= {"_dot_constants"}
    assert not {"_propose_row", "_dist"} & set(vars(cap.manifold))


@pytest.mark.parametrize("target", [None, "sqdist_to centre", "distance_to north"])
def test_sphere_ball_chain_hands_dist_two_lists(target, sphere_dist_types):
    # The ball's centre and the target's anchor are held as Manifold.as_row
    # gives them, so the start checks, the uniform start draw, membership
    # and f all call Sphere.dist's kernel on lists.
    seen = sphere_dist_types
    man = gw.Sphere(3)
    ball = gw.GeodesicBall(man, np.array([0.0, 0.6, 0.0, 0.8]), 0.9)
    if target == "sqdist_to centre":  # the step shares d(centre, y)
        target = gw.GibbsTarget(gw.sqdist_to(man, ball.center, ball.diameter).f, 0.2)
    elif target is not None:
        target = gw.GibbsTarget(gw.distance_to(man, np.array([0.0, 0.0, 0.0, 1.0])).f, 0.2)
    params = gw.WalkParams(delta=0.2, max_steps=600, seed=3, override_delta=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StepSizeWarning)
        for start in (None, ball.center):
            assert gw.run_chain(start, ball, params, target).stats.boundary_rejections > 0
    assert len(seen) > 1200 and set(seen) == {(list, list)}


class ZeroUniforms:
    """A stream whose uniforms are all 0: the ``w = 0`` edge of the filter."""

    def __init__(self, seed, chain_id=0):
        self.normals = gw.stream(seed, chain_id)

    def standard_normal(self, size):
        return self.normals.standard_normal(size)

    def random(self, size):
        return np.zeros(size)


def test_zero_uniforms_give_infinite_thresholds():
    man = gw.Sphere(2)
    normals, thresholds = np.empty((300, 2, 2)), np.empty((300, 2))
    gens = [ZeroUniforms(5, 0), ZeroUniforms(5, 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        drawn = list(walk._drawn_slices(gens, 300, man, 0.1, 0.5, normals, thresholds))
    assert [len(t) for _, t in drawn] == [_SLICE, 300 - _SLICE]
    assert np.all(np.isposinf(thresholds))


def test_zero_uniforms_accept_every_in_body_proposal(monkeypatch):
    # A steep target rejects most uphill moves from the axis; w = 0 must
    # accept all of them.
    cap = cap_on_sphere()
    steep = gw.GibbsTarget(gw.distance_to(cap.manifold, cap.axis).f, 1e-4)
    params = gw.WalkParams(delta=0.04, max_steps=300, seed=8)
    assert gw.run_chain(cap.axis, cap, params, steep).stats.filter_rejections > 0
    monkeypatch.setattr(walk, "stream", ZeroUniforms)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        stats = gw.run_chain(cap.axis, cap, params, steep).stats
    assert stats.filter_rejections == 0
    assert stats.boundary_rejections < stats.steps


# ---------------------------------------------------------------------------
# One scalar per step for membership and f, when both declare it.


def counting(fn, calls, key):
    """``fn`` counting its calls in ``calls[key]``; ``functools.wraps``
    keeps the function attributes that declare what ``fn`` reads."""

    @functools.wraps(fn)
    def counted(*args):
        calls[key] += 1
        return fn(*args)

    return counted


def test_low_temp_geometry_computes_one_scalar_per_step(monkeypatch):
    # The cap and target of the low_temp_expectation check: after the start
    # point, neither the membership test nor f is called again.
    calls = collections.Counter()
    contains = counting(gw.SphericalCap.contains_coords, calls, "contains")
    monkeypatch.setattr(gw.SphericalCap, "contains_coords", contains)
    cap = diagnostics._default_cap()
    target = gw.distance_to(cap.manifold, cap.axis)
    gibbs = gw.GibbsTarget(counting(target.f, calls, "f"), 0.05)
    params = gw.WalkParams(delta=gw.delta_bound(cap), max_steps=3000, seed=1)
    chain = gw.run_chain(cap.axis, cap, params, gibbs, burn_in=1000)
    assert calls == {"contains": 1, "f": 1}
    assert chain.stats.filter_rejections > 0


@pytest.mark.parametrize("case", ["cap-subclass", "custom-f", "off-axis-anchor"])
def test_undeclared_or_unmatched_scalars_keep_the_two_call_step(case, band_cap, monkeypatch):
    cap = band_cap if case == "cap-subclass" else cap_on_sphere()
    anchor = cap.axis
    if case == "off-axis-anchor":
        anchor = np.array([0.0, math.sin(0.3), math.cos(0.3)])
    f = gw.distance_to(cap.manifold, anchor).f
    if case == "custom-f":
        f = lambda x, declared=f: declared(x)
    calls = collections.Counter()
    contains = counting(type(cap).contains_coords, calls, "contains")
    monkeypatch.setattr(type(cap), "contains_coords", contains)
    target = gw.GibbsTarget(counting(f, calls, "f"), 0.2)
    assert walk._shared_scalar(cap, target.f) is None
    params = gw.WalkParams(delta=0.3, max_steps=600, seed=24, override_delta=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StepSizeWarning)
        stats = gw.run_chain(cap.axis, cap, params, target).stats
        assert calls == {"contains": 1 + stats.steps, "f": 1 + stats.steps - stats.boundary_rejections}
        assert_chain_replays(cap.axis, cap, params, target)


def test_uniform_and_constant_target_chains_agree_across_a_block_boundary():
    cap = cap_on_sphere()
    params = gw.WalkParams(delta=0.04, max_steps=ACROSS["max_steps"], seed=22)
    flat = gw.GibbsTarget(f=lambda x: 1.0, temperature=0.7)
    keep = dict(thin=ACROSS["thin"], burn_in=ACROSS["burn_in"])
    plain = gw.run_chain(cap.axis, cap, params, **keep)
    filtered = gw.run_chain(cap.axis, cap, params, target=flat, **keep)
    assert plain.steps[0] < BLOCK < plain.steps[-1]
    assert np.array_equal(plain.coords, filtered.coords)
    assert np.array_equal(plain.rejected, filtered.rejected)
    assert np.array_equal(plain.final, filtered.final)
    assert filtered.stats.filter_rejections == 0


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
    assert result.steps.tolist() == [5, 7, 9]
    everything = gw.run_chain(cap.axis, cap, params, thin=1, burn_in=0)
    assert everything.steps.tolist() == list(range(1, 11))


def test_thin_below_one_and_negative_burn_in_raise():
    cap = cap_on_sphere()
    params = gw.WalkParams(delta=0.04, max_steps=10, seed=1)
    for thin, burn_in in ((0, 0), (-2, 0), (1, -1)):
        with pytest.raises(PreconditionError):
            gw.run_chain(cap.axis, cap, params, thin=thin, burn_in=burn_in)


def test_stats_add_up():
    cap = cap_on_sphere()
    params = gw.WalkParams(delta=0.04, max_steps=2000, seed=5)
    result = gw.run_chain(cap.axis, cap, params)
    st = result.stats
    assert st.steps == 2000
    assert st.rejections == st.boundary_rejections + st.filter_rejections
    assert 0.0 <= st.rejection_fraction < 0.5


def record_chain(target, max_steps, thin, burn_in, seed=4, replay=False):
    cap = cap_on_sphere()
    gibbs = None
    if target:
        gibbs = gw.GibbsTarget(gw.distance_to(cap.manifold, cap.axis).f, 0.2)
    params = gw.WalkParams(delta=0.04, max_steps=max_steps, seed=seed)
    result = gw.run_chain(cap.axis, cap, params, target=gibbs, thin=thin, burn_in=burn_in)
    if not replay:
        return result
    return result, replay_chain(cap.axis, cap, params, gibbs)[0]


@pytest.mark.parametrize("target", [False, True])
@pytest.mark.parametrize("max_steps,thin,burn_in", [(300, 1, 0), (301, 7, 20), (50, 60, 0)])
def test_chain_columns_equal_the_samples_view(target, max_steps, thin, burn_in):
    result, states = record_chain(target, max_steps, thin, burn_in, replay=True)
    kept = max(0, (max_steps - burn_in) // thin)
    assert result.steps.dtype == np.int64 and result.steps.shape == (kept,)
    assert result.coords.dtype == np.float64 and result.coords.shape == (kept, 3)
    assert result.rejected.dtype == bool and result.rejected.shape == (kept,)
    assert np.array_equal(result.steps, burn_in + thin * np.arange(1, kept + 1))
    kept_states = [states[step] for step in result.steps]
    points = np.array([point for point, _, _ in kept_states]).reshape(kept, 3)
    assert np.array_equal(points, result.coords)
    assert result.rejected.tolist() == [rejected for _, rejected, _ in kept_states]
    if target:
        assert result.f_values.dtype == np.float64 and result.f_values.shape == (kept,)
        assert result.f_values.tolist() == [f_value for _, _, f_value in kept_states]
    else:
        assert result.f_values is None
        assert all(f_value is None for _, _, f_value in kept_states)


@pytest.mark.parametrize("target", [False, True])
@pytest.mark.parametrize("burn_in", [40, 41])
def test_burn_in_past_the_end_keeps_zero_rows(target, burn_in):
    result = record_chain(target, 40, 3, burn_in)
    assert result.steps.shape == (0,) and result.rejected.shape == (0,)
    assert result.coords.shape == (0, 3)
    assert result.stats.steps == 40
    if target:
        assert result.f_values.shape == (0,)
    else:
        assert result.f_values is None


@pytest.mark.parametrize("target", [False, True])
def test_long_chain_record_stays_small(target):
    # 20k kept rows on sphere:2 are 480 kB of coordinates plus 160 kB of
    # steps and of f values; one object per row costs several times that.
    tracemalloc.start()
    try:
        result = record_chain(target, 20_000, 1, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * 2**20
    assert len(result.steps) == 20_000


def test_metropolis_samples_carry_f_values():
    cap = cap_on_sphere()
    target = gw.distance_to(cap.manifold, cap.axis)
    params = gw.WalkParams(delta=0.04, max_steps=100, seed=2)
    gibbs = gw.GibbsTarget(target.f, 0.2)
    result = gw.run_chain(cap.axis, cap, params, target=gibbs, thin=10)
    assert result.f_values.shape == (10,)
    for f_value, coords in zip(result.f_values, result.coords):
        assert f_value == pytest.approx(cap.manifold.dist(coords, cap.axis), abs=1e-12)


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


def test_start_on_the_cut_locus_is_outside_the_body():
    # A half-turn about the x axis has two eigenvalues at -1: it sits on the
    # cut locus of the ball's centre, at distance pi sqrt(2) from it.
    man = gw.SpecialOrthogonal(3)
    ball = gw.GeodesicBall(man, np.eye(3).ravel(), 1.2)
    half_turn = np.diag([1.0, -1.0, -1.0]).ravel()
    params = gw.WalkParams(delta=0.02, max_steps=10)
    with pytest.raises(InvalidStart):
        gw.run_chain(half_turn, ball, params)
    with pytest.raises(InvalidStart):
        gw.estimate_local_conductance(half_turn, ball, params.delta, 10, gw.stream(0))
    with pytest.raises(InvalidStart, match="outside the body"):
        gw.estimate_one_step_tv(half_turn, ball.center, ball, params.delta, 10, gw.stream(0))


def test_estimators_name_the_point_outside_the_body():
    cap = cap_on_sphere()
    outside = np.array([0.0, 1.0, 0.0])
    with pytest.raises(InvalidStart, match="^x lies outside the body"):
        gw.estimate_local_conductance(outside, cap, 0.04, 10, gw.stream(0))
    with pytest.raises(InvalidStart, match="^x lies outside the body"):
        gw.estimate_one_step_tv(outside, cap.axis, cap, 0.04, 10, gw.stream(0))
    with pytest.raises(InvalidStart, match="^y lies outside the body"):
        gw.estimate_one_step_tv(cap.axis, outside, cap, 0.04, 10, gw.stream(0))


def test_chain_runs_from_the_cut_locus_of_its_target_anchor():
    # The start, the identity, is on the cut locus of the half-turn that
    # anchors the target; f is defined there like everywhere else.
    man = gw.SpecialOrthogonal(3)
    ball = gw.GeodesicBall(man, np.eye(3).ravel(), 1.2)
    target = gw.GibbsTarget(gw.distance_to(man, np.diag([1.0, -1.0, -1.0]).ravel()).f, 0.15)
    params = gw.WalkParams(delta=0.1, max_steps=600, seed=27, override_delta=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StepSizeWarning)
        chain = assert_chain_replays(ball.center, ball, params, target)
    assert np.all(np.isfinite(chain.f_values))
    assert chain.stats.filter_rejections > 0


def test_non_finite_target_raises():
    cap = cap_on_sphere()
    params = gw.WalkParams(delta=0.04, max_steps=50, seed=0)
    bad = gw.GibbsTarget(f=lambda x: math.nan, temperature=1.0)
    with pytest.raises(OracleError):
        gw.run_chain(cap.axis, cap, params, target=bad)


def test_target_non_finite_after_the_start_raises_at_its_step():
    # Finite at the start, the axis, and NaN below z = 0.95.
    cap = cap_on_sphere()
    bad = gw.GibbsTarget(f=lambda x: 0.0 if x[2] >= 0.95 else math.nan, temperature=1.0)
    with pytest.raises(OracleError, match="non-finite value at step 12$"):
        gw.run_chain(cap.axis, cap, gw.WalkParams(max_steps=2000, seed=0), target=bad)


def test_target_non_finite_in_a_later_slice_raises_at_its_step():
    # A flat f takes the uniform chain's steps and is called once at the
    # start and once per step that stays in the body; its 301st call, NaN,
    # falls in the second slice.
    cap = cap_on_sphere()
    params = gw.WalkParams(delta=0.04, max_steps=2 * _SLICE, seed=0)
    moved = np.flatnonzero(~gw.run_chain(cap.axis, cap, params).rejected) + 1
    assert _SLICE < moved[299] <= 2 * _SLICE
    calls = itertools.count()
    bad = gw.GibbsTarget(f=lambda x: math.nan if next(calls) == 300 else 0.0, temperature=1.0)
    with pytest.raises(OracleError, match=f"non-finite value at step {moved[299]}$"):
        gw.run_chain(cap.axis, cap, params, target=bad)


def test_local_conductance_needs_a_trial():
    cap = cap_on_sphere()
    with pytest.raises(PreconditionError, match="trials must be >= 1"):
        gw.estimate_local_conductance(cap.axis, cap, 0.04, 0, gw.stream(0))


def test_walk_params_validation():
    for delta in (0.0, -0.05, math.nan, math.inf):
        with pytest.raises(PreconditionError):
            gw.WalkParams(delta=delta)
    with pytest.raises(PreconditionError):
        gw.WalkParams(delta=0.1, max_steps=-1)
    # NaN fails every comparison, so only "not T > 0" rejects it.
    for temperature in (0.0, math.nan):
        with pytest.raises(PreconditionError):
            gw.GibbsTarget(f=lambda x: 0.0, temperature=temperature)


# ---------------------------------------------------------------------------
# Conductance and ensembles.


def test_local_conductance_interior_vs_boundary():
    cap = cap_on_sphere()
    deep = gw.estimate_local_conductance(cap.axis, cap, 0.04, 4000, gw.stream(0))
    assert deep == 1.0
    rim = np.array([math.sin(math.pi / 3 - 1e-6), 0.0, math.cos(math.pi / 3 - 1e-6)])
    edge = gw.estimate_local_conductance(rim, cap, 0.04, 4000, gw.stream(1))
    assert abs(edge - 0.5) < 0.05


def _cap_point(n, beta):
    """Point of sphere:n at geodesic distance beta from the north pole."""
    x = np.zeros(n + 1)
    x[0], x[-1] = math.sin(beta), math.cos(beta)
    return x


def _rejection_rate(x, body, delta, proposals, rng):
    man = body.manifold
    g = rng.standard_normal((proposals, man.tangent_dim))
    y = man.propose_many(np.broadcast_to(x, (proposals, man.ambient_dim)), g, delta)
    return 1.0 - np.count_nonzero(body.contains_many(y)) / proposals


def _assert_matches_proposals(x, body, delta, seed, proposals=10**5):
    q = body.contains_coords.rejection_probability(body, x[None, :], delta)[0]
    rate = _rejection_rate(x, body, delta, proposals, gw.stream(seed))
    assert abs(rate - q) <= 3.0 * math.sqrt(q * (1.0 - q) / proposals), (q, rate)
    return q


# Depth eps = r/4 of the 60-degree cap with the check's step eps / z_0.001
# puts a point at the conductance threshold.
THRESHOLD_DELTA = (math.pi / 12) / 3.090232306167813


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_cap_rejection_matches_proposals(n):
    cap = cap_on_sphere(n)
    deep = _assert_matches_proposals(cap.axis, cap, THRESHOLD_DELTA, 10 * n)
    assert deep == 0.0
    threshold = _assert_matches_proposals(
        _cap_point(n, math.pi / 4), cap, THRESHOLD_DELTA, 10 * n + 1
    )
    assert 5e-4 < threshold < 5e-3
    rim = _assert_matches_proposals(
        _cap_point(n, math.pi / 3 - 1e-9), cap, THRESHOLD_DELTA, 10 * n + 2
    )
    assert 0.45 < rim < 0.6


@pytest.mark.parametrize("delta", [1.0, 2.5])
def test_cap_rejection_with_steps_past_half_a_great_circle(delta):
    # delta = 1 puts much of the chi_2 mass at delta * rho >= pi, where
    # sin(delta * rho) < 0 and the proposal wraps round the sphere;
    # delta = 2.5 also brings proposals back into the cap from the far side.
    cap = cap_on_sphere(2)
    for i, beta in enumerate((0.0, 0.5, 0.9, math.pi / 3 - 1e-9)):
        q = _assert_matches_proposals(_cap_point(2, beta), cap, delta, 40 + i)
        assert 0.5 < q < 0.9


def test_box_rejection_matches_proposals():
    box = gw.EuclideanBox(np.zeros(3), np.ones(3))
    delta = 0.05 / 3.090232306167813
    points = {
        "deep": [0.5, 0.5, 0.5],
        "threshold": [0.05, 0.5, 0.5],
        "near_corner": [0.05, 0.05, 0.95],
        "corner": [0.0, 0.0, 1.0],
    }
    qs = {}
    for i, (name, x) in enumerate(points.items()):
        qs[name] = _assert_matches_proposals(np.array(x), box, delta, 50 + i)
    assert qs["deep"] < 1e-100
    assert qs["threshold"] == pytest.approx(1e-3, rel=1e-9)
    assert qs["corner"] == pytest.approx(1.0 - 0.5**3, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_cap_rejection_matches_adaptive_quadrature(n, monkeypatch):
    # The same integral written plainly: over the proposal length rho, the
    # chi_n density times the share of directions, by their angle phi to
    # the projected axis, whose step ends outside the cap.
    cap = cap_on_sphere(n)
    delta = 0.3
    monkeypatch.setattr(quadrature, "ABS_TOL", 1e-11)
    angle_weight = lambda phi: math.sin(phi) ** (n - 2)
    sphere_share = integrate(angle_weight, 0.0, math.pi)
    log_norm = (0.5 * n - 1.0) * math.log(2.0) + math.lgamma(0.5 * n)
    for beta in (0.6, 1.0):
        s, c = math.cos(beta), math.sin(beta)

        def outside_share(rho):
            theta = delta * rho
            kappa = (cap.cos_angle - s * math.cos(theta)) / (c * abs(math.sin(theta)))
            if kappa <= -1.0:
                return 0.0
            if kappa >= 1.0:
                return 1.0
            return integrate(angle_weight, math.acos(kappa), math.pi) / sphere_share

        def integrand(rho):
            density = math.exp((n - 1) * math.log(rho) - 0.5 * rho * rho - log_norm)
            return density * outside_share(rho)

        start = (cap.angle - beta) / delta
        full = (cap.angle + beta) / delta
        expected = integrate(integrand, start, 14.0, breakpoints=[full])
        q = cap.contains_coords.rejection_probability(cap, _cap_point(n, beta)[None, :], delta)[0]
        assert abs(q - expected) <= 1e-10, (beta, q, expected)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_cap_rejection_on_the_axis_is_the_chi_tail(n):
    # From the axis every direction is alike: the proposal leaves the cap
    # iff delta * rho > angle (steps long enough to wrap round to the cap,
    # delta * rho > 2 pi - angle, carry mass below 1e-50 here).
    cap = cap_on_sphere(n)
    delta = 0.4
    r = cap.angle / delta
    gauss = math.sqrt(2.0 / math.pi) * math.exp(-0.5 * r * r)
    chi_tail = {
        2: math.exp(-0.5 * r * r),
        3: math.erfc(r / math.sqrt(2.0)) + gauss * r,
        5: math.erfc(r / math.sqrt(2.0)) + gauss * (r + r**3 / 3.0),
    }[n]
    q = cap.contains_coords.rejection_probability(cap, cap.axis[None, :], delta)[0]
    assert q == pytest.approx(chi_tail, rel=1e-12)


@pytest.mark.parametrize(
    "body, delta",
    [
        (cap_on_sphere(2), 0.2),
        (cap_on_sphere(5), 0.1),
        (gw.EuclideanBox(np.zeros(3), np.ones(3)), 0.05),
    ],
    ids=["cap-s2", "cap-s5", "box-3"],
)
def test_rejection_probability_does_not_depend_on_the_block(body, delta):
    # 600 rows are three blocks of the closed form; one row alone is one.
    # The centre sits among them: on a cap's axis two of the three pieces
    # of the integral are empty, which one row skips and a block adds as 0.
    points = gw.sample_uniform_many(body, gw.stream(67), 600)
    points[300] = body.inner_center
    declared = body.contains_coords.rejection_probability
    q = declared(body, points, delta)
    alone = np.concatenate([declared(body, points[i : i + 1], delta) for i in range(len(points))])
    assert q.tobytes() == alone.tobytes()
    assert 0.0 < q.max() < 1.0
    assert declared(body, points[:0], delta).shape == (0,)


def test_local_conductance_on_a_ball_matches_the_equal_cap():
    # A geodesic ball has no closed form and takes the proposal loop; the
    # cap of the same centre and radius is the same set.
    cap = cap_on_sphere(2)
    ball = gw.GeodesicBall(cap.manifold, cap.axis, cap.angle)
    delta = 0.3
    x = _cap_point(2, 0.8)
    q = cap.contains_coords.rejection_probability(cap, x[None, :], delta)[0]
    assert not hasattr(ball.contains_coords, "rejection_probability")
    trials = 20000
    p = gw.estimate_local_conductance(x, ball, delta, trials, gw.stream(5))
    assert abs((1.0 - p) - q) <= 3.0 * math.sqrt(q * (1.0 - q) / trials)
    exact = gw.estimate_local_conductance(x, cap, delta, trials, gw.stream(5))
    assert abs((1.0 - exact) - q) <= 3.0 * math.sqrt(q * (1.0 - q) / trials)


def test_subclasses_that_override_membership_get_no_closed_form(band_cap, half_bodies):
    # A subclass may change the set, so the closed form declared on its
    # parent's membership test does not carry over: its counts draw proposals.
    box = half_bodies[0]
    for body, parent in ((band_cap, cap_on_sphere()), (box, gw.EuclideanBox(box.lo, box.hi))):
        assert hasattr(parent.contains_coords, "rejection_probability")
        assert not hasattr(body.contains_coords, "rejection_probability")
        points = parent.inner_center[None, :]
        assert walk._accept_counts(points, parent, 0.05, 100, gw.stream(0))[1] is not None
        assert walk._accept_counts(points, body, 0.05, 100, gw.stream(0))[1] is None


def test_step_ensemble_keeps_points_inside():
    cap = cap_on_sphere()
    starts = gw.sample_uniform_many(cap, gw.stream(3), 256)
    moved = gw.step_ensemble(starts, cap, 0.05, gw.stream(4), steps=10)
    assert moved.shape == starts.shape
    assert np.all(cap.contains_many(moved))
    assert not np.array_equal(moved, starts)


# ---------------------------------------------------------------------------
# Re-projection once per slice: the sphere's proposals are not renormalised,
# so the walks' states are, by Manifold.project after every _SLICE steps.


class CountingSphere(gw.Sphere):
    """A sphere that counts its ``project`` calls."""

    projections = 0

    def project(self, points):
        self.projections += 1
        return super().project(points)


def slices(steps):
    """How many slices ``_drawn_slices`` cuts ``steps`` steps into."""
    return sum(-(-min(BLOCK, steps - done) // _SLICE) for done in range(0, steps, BLOCK))


def test_the_three_step_loops_project_once_per_slice():
    man = CountingSphere(2)
    cap = gw.SphericalCap(man, np.array([0.0, 0.0, 1.0]), math.pi / 3)
    objective = gw.distance_to(man, cap.axis)
    for target in (None, gw.GibbsTarget(objective.f, 0.2)):
        man.projections = 0
        gw.run_chain(cap.axis, cap, gw.WalkParams(max_steps=BLOCK + 37, seed=2), target)
        assert man.projections == slices(BLOCK + 37) == 17
    starts = np.tile(cap.axis, (8, 1))
    for steps, expected in ((0, 0), (_SLICE, 1), (2 * _SLICE + 88, 3)):
        man.projections = 0
        gw.step_ensemble(starts, cap, 0.05, gw.stream(1), steps=steps)
        assert man.projections == expected
    # The final phase takes 5,748 steps: two blocks, the second of 7 slices.
    config = gw.AnnealConfig(epsilon=2.0, fail_prob=0.5, lipschitz=1.0, max_total_steps=8_000)
    man.projections = 0
    result = gw.anneal_trials(cap, objective.f_many, config, seed=3, trials=2)
    assert max(result.allocations) > BLOCK
    assert man.projections == sum(slices(steps) for steps in result.allocations)


def max_norm_error(points):
    return np.max(np.abs(np.linalg.norm(points, axis=-1) - 1.0))


@pytest.mark.parametrize("gibbs", [False, True])
def test_chain_rows_stay_on_the_sphere(gibbs):
    cap = cap_on_sphere()
    target = gw.GibbsTarget(gw.distance_to(cap.manifold, cap.axis).f, 0.2) if gibbs else None
    chain = gw.run_chain(cap.axis, cap, gw.WalkParams(max_steps=100_000, seed=6), target)
    assert max_norm_error(chain.coords) < 1e-13
    assert max_norm_error(chain.final) < 1e-13


def test_ensemble_and_anneal_states_stay_on_the_sphere():
    cap = cap_on_sphere()
    starts = gw.sample_uniform_many(cap, gw.stream(7), 200)
    ensemble = gw.step_ensemble(starts, cap, 0.05, gw.stream(8), steps=1_000)
    assert max_norm_error(ensemble) < 1e-13
    objective = gw.distance_to(cap.manifold, cap.axis)
    config = gw.AnnealConfig(epsilon=0.3, fail_prob=0.2, lipschitz=1.0, max_total_steps=20_000)
    result = gw.anneal_trials(cap, objective.f_many, config, seed=9, trials=4)
    assert max_norm_error(result.minimizers) < 1e-13


@pytest.mark.slow
def test_chain_norm_drift_over_a_million_steps():
    # Every kept row, not only the projected state at the slice ends.
    cap = cap_on_sphere()
    gibbs = gw.GibbsTarget(gw.distance_to(cap.manifold, cap.axis).f, 0.2)
    chain = gw.run_chain(cap.axis, cap, gw.WalkParams(max_steps=1_000_000, seed=10), gibbs)
    assert max_norm_error(chain.coords) < 1e-13
    assert max_norm_error(chain.final) < 1e-13
