"""Built-in objectives: values, Lipschitz constants, vectorized twins."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geowalk as gw
from geowalk.errors import PreconditionError


def test_distance_target_basics():
    man = gw.Sphere(2)
    anchor = np.array([0.0, 0.0, 1.0])
    target = gw.distance_to(man, anchor)
    assert target.lipschitz == 1.0
    assert target.f(anchor) == 0.0
    probe = np.array([0.0, 1.0, 0.0])
    assert target.f(probe) == pytest.approx(math.pi / 2, abs=1e-12)


def test_sqdist_target_scales_like_half_square():
    man = gw.Sphere(2)
    anchor = np.array([0.0, 0.0, 1.0])
    target = gw.sqdist_to(man, anchor, diameter=2.0)
    probe = np.array([math.sin(0.4), 0.0, math.cos(0.4)])
    assert target.f(probe) == pytest.approx(0.5 * 0.4**2, abs=1e-12)
    assert target.lipschitz == 2.0
    with pytest.raises(PreconditionError):
        gw.sqdist_to(man, anchor, diameter=math.nan)


def test_linear_target_on_box():
    box = gw.EuclideanBox(np.array([0.0, -1.0]), np.array([2.0, 3.0]))
    target = gw.linear(np.array([1.0, -2.0]))
    assert target.lipschitz == pytest.approx(math.sqrt(5.0))
    # Maximizing -2y pulls y up, minimizing x pulls it down.
    corners = np.array(list(itertools.product(*zip(box.lo, box.hi))))
    assert corners[np.argmin(target.f_many(corners))].tolist() == [0.0, 3.0]
    assert target.f(np.array([1.0, 1.0])) == pytest.approx(-1.0)


def test_linear_one_row_value_matches_f_many():
    box = gw.EuclideanBox(np.array([-1.0, 0.0, 0.25]), np.array([1.0, 2.0, 0.75]))
    rng = gw.stream(24)
    span = box.hi - box.lo
    rows = np.vstack(
        [
            box.lo + span * rng.random((100, 3)),
            box.lo - span + 3.0 * span * rng.random((100, 3)),
            box.lo,
            box.hi,
            [box.lo[0], 1.0, box.hi[2]],
        ]
    )
    dyadic = np.array([1.0, -0.5, 0.25])
    for c in (dyadic, rng.standard_normal(3)):
        target = gw.linear(c)
        batched = target.f_many(rows)
        one_row = np.array([target.f(row) for row in rows])
        # Two summation orders of a 3-term dot product differ by at most a
        # few ulps of the largest partial sum.
        bound = 6.0 * np.finfo(float).eps * (np.abs(rows) @ np.abs(c))
        assert np.all(np.abs(one_row - batched) <= bound)
        if c is dyadic:
            # Vertices and face points have dyadic coordinates too: every
            # product and sum is exact, so the two agree bit for bit.
            assert one_row[-3:].tolist() == batched[-3:].tolist()


def test_linear_target_rejects_degenerate_inputs():
    with pytest.raises(PreconditionError):
        gw.linear(np.zeros(3))


def test_linear_target_rejects_a_coefficient_matrix():
    with pytest.raises(PreconditionError, match="1-D vector"):
        gw.linear(np.ones((2, 2)))


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_linear_target_rejects_non_finite_coefficients(bad):
    # An infinite coefficient gave an infinite Lipschitz constant, which
    # overflowed the annealing schedule.
    with pytest.raises(PreconditionError, match="finite, nonzero norm"):
        gw.linear(np.array([bad, 1.0]))


def test_linear_target_rejects_an_overflowing_norm_without_a_warning():
    # Finite coefficients whose norm overflows: numpy's overflow warning
    # used to escape before the norm check could reject them.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="finite, nonzero norm"):
            gw.linear(np.array([1e200, 1e200]))


def test_sqdist_target_rejects_infinite_diameter():
    with pytest.raises(PreconditionError, match="diameter must be positive and finite"):
        gw.sqdist_to(gw.Sphere(2), np.array([0.0, 0.0, 1.0]), diameter=math.inf)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_vectorized_twin_matches_scalar(seed):
    man = gw.Sphere(3)
    rng = gw.stream(seed)
    anchor = rng.standard_normal(4)
    anchor /= math.sqrt(anchor @ anchor)
    pts = rng.standard_normal((8, 4))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    for target in (gw.distance_to(man, anchor), gw.sqdist_to(man, anchor, 2.0)):
        batch = target.f_many(pts)
        for i in range(len(pts)):
            assert batch[i] == pytest.approx(target.f(pts[i]), abs=1e-12)


def test_one_row_values_take_lists():
    # run_chain passes sphere and Euclidean points as lists of floats.
    sphere = gw.Sphere(2)
    anchor = np.array([0.0, 0.6, 0.8])
    probe = np.array([0.36, 0.48, 0.8])
    assert sphere.dist(anchor.tolist(), probe.tolist()) == sphere.dist(anchor, probe)
    for target in (gw.distance_to(sphere, anchor), gw.sqdist_to(sphere, anchor, 2.0)):
        assert target.f(probe.tolist()) == target.f(probe) > 0.0
    flat = gw.distance_to(gw.Euclidean(2), np.zeros(2))
    assert flat.f([3.0, 4.0]) == flat.f(np.array([3.0, 4.0])) == 5.0
    lin = gw.linear(np.array([1.0, -2.0]))
    assert lin.f([0.3, 0.7]) == lin.f(np.array([0.3, 0.7]))


def test_as_gibbs_wraps_target():
    man = gw.Sphere(2)
    target = gw.distance_to(man, np.array([0.0, 0.0, 1.0]))
    gibbs = gw.as_gibbs(target, 0.3)
    assert gibbs.temperature == 0.3
    assert gibbs.f is target.f
    with pytest.raises(PreconditionError):
        gw.as_gibbs(target, 0.0)


def test_distance_targets_declare_what_they_read():
    sphere = gw.Sphere(2)
    anchor = np.array([0.0, 0.6, 0.8])
    probe = [0.36, 0.48, 0.8]
    for target in (gw.distance_to(sphere, anchor), gw.sqdist_to(sphere, anchor, 2.0)):
        dist, point, outer = target.f.of_distance
        assert dist == sphere.dist and np.array_equal(point, anchor)
        d = dist(point, probe)
        assert target.f(probe) == (d if outer is None else outer(d))
    assert not hasattr(gw.linear(np.ones(2)).f, "of_distance")
