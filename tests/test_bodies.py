"""Membership, metadata, convexity, and uniform sampling of the bodies."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geowalk as gw
from geowalk import bodies
from geowalk.errors import AcceptanceTooLow, NotConvex, PreconditionError


def test_cap_membership_spot_checks(cap60):
    axis = cap60.axis
    assert cap60.contains_coords(axis)
    rim = np.array([math.sin(math.pi / 3 - 1e-9), 0.0, math.cos(math.pi / 3 - 1e-9)])
    outside = np.array([math.sin(math.pi / 3 + 1e-6), 0.0, math.cos(math.pi / 3 + 1e-6)])
    assert cap60.contains_coords(rim)
    assert not cap60.contains_coords(outside)
    assert not cap60.contains_coords(-axis)


def test_cap_metadata(cap60):
    assert np.array_equal(cap60.inner_center, cap60.axis)
    assert cap60.inner_radius == pytest.approx(math.pi / 3)
    assert cap60.diameter == pytest.approx(2 * math.pi / 3)
    assert repr(cap60) == "SphericalCap(on sphere:2, r=1.047, D=2.094)"


def test_cap_rejects_hemisphere_and_beyond():
    man = gw.Sphere(2)
    axis = np.array([0.0, 0.0, 1.0])
    with pytest.raises(NotConvex):
        gw.SphericalCap(man, axis, math.pi / 2)
    with pytest.raises(NotConvex):
        gw.SphericalCap(man, axis, -0.1)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31), angle=st.floats(0.05, math.pi / 2 - 0.01))
def test_cap_is_geodesically_convex(seed, angle):
    cap = gw.SphericalCap(gw.Sphere(2), np.array([0.0, 0.0, 1.0]), angle)
    rng = gw.stream(seed)
    x = gw.rejection_sample_uniform(cap, rng)
    y = gw.rejection_sample_uniform(cap, rng)
    mid = x + y
    mid /= math.sqrt(mid @ mid)
    assert cap.contains_coords(mid)


def test_geodesic_ball_metadata_and_membership():
    man = gw.Sphere(3)
    center = np.array([0.0, 0.0, 0.0, 1.0])
    ball = gw.GeodesicBall(man, center, 0.5)
    assert ball.inner_radius == 0.5
    assert ball.diameter == 1.0
    assert ball.contains_coords(center)
    far = np.array([math.sin(0.6), 0.0, 0.0, math.cos(0.6)])
    assert not ball.contains_coords(far)
    with pytest.raises(NotConvex):
        gw.GeodesicBall(man, center, 0.5 * man.injectivity_radius + 0.01)


def test_euclidean_ball_and_box():
    ball = gw.GeodesicBall(gw.Euclidean(3), np.zeros(3), 2.0)
    assert ball.contains_coords(np.array([1.0, 1.0, 1.0]))
    assert not ball.contains_coords(np.array([2.0, 1.0, 0.0]))

    box = gw.EuclideanBox(np.array([0.0, -1.0]), np.array([2.0, 1.0]))
    assert box.inner_radius == 1.0
    assert box.diameter == pytest.approx(math.sqrt(8.0))
    assert box.contains_coords(np.array([1.0, 0.0]))
    assert not box.contains_coords(np.array([2.1, 0.0]))
    with pytest.raises(PreconditionError):
        gw.EuclideanBox(np.array([0.0, 0.0]), np.array([1.0, 0.0]))


def test_contains_many_matches_scalar(cap60):
    rng = gw.stream(9)
    pts = rng.standard_normal((64, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    flags = cap60.contains_many(pts)
    for i, row in enumerate(pts):
        assert flags[i] == cap60.contains_coords(row)


def rim_rows(cap):
    """The rim row of a cap around a coordinate axis, and the rows one ulp
    of <x, axis> inside and outside it.  <x, axis> is then exact in any
    summation order, so both membership tests see the same number."""
    k = int(np.argmax(np.abs(cap.axis)))
    rows = np.zeros((3, cap.manifold.ambient_dim))
    rows[:, k] = cap.axis[k] * np.array(
        [cap.cos_angle, np.nextafter(cap.cos_angle, 2.0), np.nextafter(cap.cos_angle, -2.0)]
    )
    rows[:, (k + 1) % len(cap.axis)] = math.sqrt(1.0 - cap.cos_angle**2)
    return rows


@pytest.mark.parametrize("n", [2, 5, 50])
def test_cap_one_row_membership_matches_contains_many(n):
    rng = gw.stream(21, n)
    man = gw.Sphere(n)
    north = np.zeros(n + 1)
    north[-1] = 1.0
    tilted = rng.standard_normal(n + 1)
    tilted /= np.linalg.norm(tilted)
    for axis in (north, tilted):
        cap = gw.SphericalCap(man, axis, 1.1)
        rows = rng.standard_normal((200, n + 1))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        # Random rows within rounding of the rim could go either way.
        rows = rows[np.abs(rows @ cap.axis - cap.cos_angle) > 1e-9]
        rows = np.vstack([rows, axis, -axis])
        flags = cap.contains_many(rows)
        assert 0 < np.count_nonzero(flags) < len(rows)
        assert [cap.contains_coords(row) for row in rows] == flags.tolist()
        assert [cap.contains_coords(row) for row in rows.tolist()] == flags.tolist()
    cap = gw.SphericalCap(man, north, 1.1)
    rim = rim_rows(cap)
    assert cap.contains_many(rim).tolist() == [True, True, False]
    assert [cap.contains_coords(row) for row in rim] == [True, True, False]


def test_box_one_row_membership_matches_contains_many():
    lo = np.array([-1.0, 0.0, 0.25])
    hi = np.array([1.0, 2.0, 0.75])
    box = gw.EuclideanBox(lo, hi)
    rng = gw.stream(22)
    rows = [
        lo + (hi - lo) * rng.random((50, 3)),
        lo - 0.5 + (hi - lo + 1.0) * rng.random((50, 3)),
    ]
    for i in range(3):
        for face in (lo[i], hi[i]):
            for value in (face, np.nextafter(face, -np.inf), np.nextafter(face, np.inf)):
                row = 0.5 * (lo + hi)
                row[i] = value
                rows.append(row[None, :])
    rows.append(np.array([lo, hi, [np.nan, 1.0, 0.5], [0.0, np.inf, 0.5]]))
    rows = np.vstack(rows)
    flags = box.contains_many(rows)
    assert 0 < np.count_nonzero(flags) < len(rows)
    assert [box.contains_coords(row) for row in rows] == flags.tolist()
    assert [box.contains_coords(row) for row in rows.tolist()] == flags.tolist()


def test_cap_uniform_sampling_fraction_matches_area():
    # A 60-degree cap covers exactly a quarter of the 2-sphere, so the
    # rejection sampler's acceptance rate is 1/4.
    man = gw.Sphere(2)
    cap = gw.SphericalCap(man, np.array([0.0, 0.0, 1.0]), math.pi / 3)
    rng = gw.stream(4)
    samples = gw.sample_uniform_many(cap, rng, 20_000)
    assert samples.shape == (20_000, 3)
    assert np.all(cap.contains_many(samples))
    # Polar angle CDF within a tight KS band for exact sampling.
    angles = man.dist_many(samples, cap.axis)
    ks = gw.ks_one_sample(angles, lambda t: (1.0 - np.cos(t)) / 0.5)
    assert ks < 0.02


def test_box_sampling_is_direct_and_uniform():
    box = gw.EuclideanBox(np.array([1.0, 2.0]), np.array([3.0, 6.0]))
    rng = gw.stream(5)
    samples = gw.sample_uniform_many(box, rng, 50_000)
    assert np.all((samples >= box.lo) & (samples <= box.hi))
    assert np.max(np.abs(samples.mean(axis=0) - box.inner_center)) < 0.03


def test_euclidean_ball_sampling_radius_law():
    ball = gw.GeodesicBall(gw.Euclidean(2), np.array([1.0, -1.0]), 3.0)
    rng = gw.stream(6)
    samples = gw.sample_uniform_many(ball, rng, 50_000)
    radii = np.linalg.norm(samples - ball.center, axis=1)
    ks = gw.ks_one_sample(radii, lambda t: (t / 3.0) ** 2)
    assert ks < 0.02


def test_rejection_sampler_is_deterministic(cap60):
    a = gw.rejection_sample_uniform(cap60, gw.stream(11))
    b = gw.rejection_sample_uniform(cap60, gw.stream(11))
    assert np.array_equal(a, b)


def test_uniform_samplers_treat_cut_locus_proposals_as_outside(monkeypatch):
    # diag(1, -1, -1) is a half turn, on the cut locus of the ball's centre
    # and pi sqrt(2) away from it: outside, row by row in a batch too.
    man = gw.SpecialOrthogonal(3)
    ball = gw.GeodesicBall(man, np.eye(3).ravel(), 1.0)
    flip = np.diag([1.0, -1.0, -1.0]).ravel()
    c, s = math.cos(0.3), math.sin(0.3)
    turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]).ravel()
    batches = itertools.cycle([np.stack([flip, turn]), np.stack([np.eye(3).ravel(), flip])])
    monkeypatch.setattr(gw.SpecialOrthogonal, "draw_uniform", lambda man, rng, count: next(batches)[:count])
    assert ball.contains_many(np.stack([turn, flip])).tolist() == [True, False]
    assert not ball.contains_coords(flip)
    drawn = gw.sample_uniform_many(ball, gw.stream(0), 3)
    assert np.array_equal(drawn, np.stack([turn, np.eye(3).ravel(), turn]))
    assert np.array_equal(gw.rejection_sample_uniform(ball, gw.stream(0)), np.eye(3).ravel())


def test_subclasses_that_override_membership_lose_the_exact_draw(half_bodies, band_cap):
    # The box's and the flat ball's direct draws are declared on their own
    # membership test, so a subclass that narrows the test does not inherit
    # them.  R^n has no uniform law to reject from, so the samplers refuse
    # rather than return points outside the body; on the sphere a subclass
    # is rejection-sampled through its own test.
    assert hasattr(gw.EuclideanBox.contains_coords, "draw_uniform")
    assert hasattr(gw.GeodesicBall.contains_coords, "draw_uniform")
    for body in half_bodies:
        assert not hasattr(body.contains_coords, "draw_uniform")
        params = gw.WalkParams(delta=0.01, max_steps=10, seed=1)
        for call in (
            lambda: gw.sample_uniform_many(body, gw.stream(0), 100),
            lambda: gw.rejection_sample_uniform(body, gw.stream(0)),
            lambda: gw.run_chain(None, body, params),
        ):
            with pytest.raises(PreconditionError, match="euclidean:2 defines no draw_uniform"):
                call()
    band = band_cap
    drawn = gw.sample_uniform_many(band, gw.stream(2), 2000)
    assert np.all(band.contains_many(drawn))
    start = gw.run_chain(None, band, gw.WalkParams(delta=0.01, seed=3)).final
    assert band.contains_coords(start)
    assert band.contains_coords(gw.rejection_sample_uniform(band, gw.stream(4)))


def test_tiny_body_trips_acceptance_guard(monkeypatch):
    man = gw.Sphere(2)
    sliver = gw.SphericalCap(man, np.array([0.0, 0.0, 1.0]), 1e-4)
    monkeypatch.setattr(bodies, "_MAX_MISSES", 2000)
    with pytest.raises(AcceptanceTooLow):
        gw.sample_uniform_many(sliver, gw.stream(0), 10)


class Lens(gw.ConvexBody):
    """Two caps of ``sphere:2`` of one angle with axes ``(0, +-s, c)``,
    intersected: a body that sets only the members README lists."""

    def __init__(self, s, angle):
        c = math.sqrt(1.0 - s * s)
        self.axes = np.array([[0.0, s, c], [0.0, -s, c]])
        self.cos_angle = math.cos(angle)
        self.manifold = gw.Sphere(2)
        self.inner_center = np.array([0.0, 0.0, 1.0])
        self.inner_radius = angle - math.asin(s)
        self.diameter = 2.0 * angle

    def contains_coords(self, x):
        return bool(np.all(self.axes @ np.asarray(x) >= self.cos_angle))


def test_a_body_of_the_documented_members_alone_walks_and_samples():
    lens = Lens(0.6, math.pi / 3)
    assert repr(lens) == "Lens(on sphere:2, r=0.4037, D=2.094)"
    points = gw.Sphere(2).draw_uniform(gw.stream(6), 300)
    assert lens.contains_many(points).tolist() == [lens.contains_coords(p) for p in points]
    drawn = gw.sample_uniform_many(lens, gw.stream(5), 500)  # through the fallback
    assert np.all(drawn @ lens.axes.T >= lens.cos_angle)
    chain = gw.run_chain(lens.inner_center, lens, gw.WalkParams(max_steps=500, seed=1))
    assert lens.contains_coords(chain.final)


def test_a_body_of_the_documented_members_alone_trips_the_guard(monkeypatch):
    monkeypatch.setattr(bodies, "_MAX_MISSES", 2000)
    with pytest.raises(AcceptanceTooLow, match=r"Lens\(on sphere:2"):
        gw.sample_uniform_many(Lens(0.0, 1e-4), gw.stream(0), 10)


def test_sample_uniform_many_rejects_a_negative_count(cap60):
    with pytest.raises(PreconditionError, match="non-negative"):
        gw.sample_uniform_many(cap60, gw.stream(0), -1)


@pytest.mark.parametrize("case", ["cap", "sphere-ball", "so3-ball", "plane-ball"])
def test_declared_scalar_gives_membership_and_distance_bit_for_bit(case):
    rng = gw.stream(31)
    if case == "cap":
        man = gw.Sphere(3)
        axis = rng.standard_normal(4)
        body = gw.SphericalCap(man, axis / np.linalg.norm(axis), 1.1)
    elif case == "sphere-ball":
        man = gw.Sphere(3)
        body = gw.GeodesicBall(man, np.array([0.0, 0.6, 0.0, 0.8]), 0.9)
    elif case == "so3-ball":
        man = gw.SpecialOrthogonal(3)
        body = gw.GeodesicBall(man, man.draw_uniform(rng, 1)[0], 1.2)
    else:
        man = gw.Euclidean(2)
        body = gw.GeodesicBall(man, np.array([0.5, -1.0]), 0.75)
    center = np.broadcast_to(body.inner_center, (300, man.ambient_dim))
    rows = man.propose_many(center, rng.standard_normal((300, man.tangent_dim)), 0.8)
    rows = list(rows.tolist() if man.float_rows else rows)
    dist, anchor, read, inside, arc = body.contains_coords.scalar(body)
    assert dist == man.dist
    flags = [body.contains_coords(row) for row in rows]
    assert 0 < sum(flags) < len(rows)
    for row, flag in zip(rows, flags):
        s = read(row)
        assert inside(s) == flag
        assert (s if arc is None else arc(s)) == man.dist(anchor, row)
