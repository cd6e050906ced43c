"""Geometry invariants: exponential maps, distances, tangent Gaussians."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geowalk as gw
from geowalk.errors import DimensionMismatch, PreconditionError
from geowalk.walk import _SLICE


def random_sphere_point(man, rng):
    x = rng.standard_normal(man.ambient_dim)
    return x / math.sqrt(x @ x)


def unit_tangent(man, x, rng):
    u = man.tangent_from_gaussian(x, rng.standard_normal(man.tangent_dim))
    return u / math.sqrt(u @ u)


# ---------------------------------------------------------------------------
# Exponential map basics.


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(2, 6))
def test_sphere_exp_stays_on_sphere(seed, n):
    man = gw.Sphere(n)
    rng = gw.stream(seed)
    x = random_sphere_point(man, rng)
    u = man.tangent_from_gaussian(x, rng.standard_normal(man.tangent_dim))
    y = man.exp(x, 0.3 * u)
    assert abs(y @ y - 1.0) < 1e-9
    assert abs(x @ u) < 1e-9 * max(1.0, math.sqrt(u @ u))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(2, 4))
def test_rotation_exp_stays_in_group(seed, n):
    man = gw.SpecialOrthogonal(n)
    rng = gw.stream(seed)
    x = man.draw_uniform(rng, 1)[0]
    v = man.tangent_from_gaussian(x, rng.standard_normal(man.tangent_dim))
    y = man.exp(x, 0.4 * v)
    ym = y.reshape(n, n)
    assert np.max(np.abs(ym.T @ ym - np.eye(n))) < 1e-12
    assert np.linalg.det(ym) > 0.0
    xm = x.reshape(n, n)
    vm = v.reshape(n, n)
    skew = xm.T @ vm
    assert np.max(np.abs(skew + skew.T)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_zero_tangent_is_identity(seed):
    rng = gw.stream(seed)
    for man in (gw.Euclidean(4), gw.Sphere(3), gw.SpecialOrthogonal(3)):
        if isinstance(man, gw.Sphere):
            x = random_sphere_point(man, rng)
        elif isinstance(man, gw.SpecialOrthogonal):
            x = man.draw_uniform(rng, 1)[0]
        else:
            x = rng.standard_normal(man.ambient_dim)
        y = man.exp(x, np.zeros(man.ambient_dim))
        assert np.max(np.abs(y - x)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31), t=st.floats(1e-3, 0.9 * math.pi))
def test_sphere_round_trip(seed, t):
    man = gw.Sphere(4)
    rng = gw.stream(seed)
    x = random_sphere_point(man, rng)
    u = unit_tangent(man, x, rng)
    assert abs(man.dist(x, man.exp(x, t * u)) - t) < 1e-8


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31), t=st.floats(1e-3, 0.9 * math.pi))
def test_rotation_round_trip(seed, t):
    man = gw.SpecialOrthogonal(3)
    rng = gw.stream(seed)
    x = man.draw_uniform(rng, 1)[0]
    u = unit_tangent(man, x, rng)
    assert abs(man.dist(x, man.exp(x, t * u)) - t) < 1e-8


def test_euclidean_round_trip_and_distance():
    man = gw.Euclidean(5)
    rng = gw.stream(7)
    x = rng.standard_normal(5)
    u = unit_tangent(man, x, rng)
    assert man.dist(x, man.exp(x, 2.5 * u)) == pytest.approx(2.5, abs=1e-12)


# ---------------------------------------------------------------------------
# Tangent Gaussians.


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_tangent_embedding_is_isometric(seed):
    rng = gw.stream(seed)
    g3 = rng.standard_normal(3)
    man = gw.Sphere(3)
    x = random_sphere_point(man, rng)
    u = man.tangent_from_gaussian(x, g3)
    assert math.sqrt(u @ u) == pytest.approx(math.sqrt(g3 @ g3), abs=1e-12)
    assert abs(x @ u) < 1e-12 * max(1.0, math.sqrt(u @ u))

    so = gw.SpecialOrthogonal(3)
    X = so.draw_uniform(rng, 1)[0]
    g = rng.standard_normal(so.tangent_dim)
    v = so.tangent_from_gaussian(X, g)
    assert math.sqrt(v @ v) == pytest.approx(math.sqrt(g @ g), abs=1e-12)


def test_tangent_gaussian_covariance_is_projector():
    man = gw.Sphere(2)
    rng = gw.stream(12)
    x = np.array([0.6, -0.64, math.sqrt(1 - 0.6**2 - 0.64**2)])
    draws = np.stack(
        [man.tangent_from_gaussian(x, rng.standard_normal(man.tangent_dim)) for _ in range(20000)]
    )
    cov = draws.T @ draws / len(draws)
    expected = np.eye(3) - np.outer(x, x)
    assert np.max(np.abs(cov - expected)) < 0.05


# ---------------------------------------------------------------------------
# Vectorized paths agree with scalar ones.


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_many_variants_match_loops(seed):
    rng = gw.stream(seed)
    for man in (gw.Euclidean(3), gw.Sphere(3), gw.SpecialOrthogonal(3)):
        if isinstance(man, gw.Sphere):
            pts = np.stack([random_sphere_point(man, rng) for _ in range(5)])
        elif isinstance(man, gw.SpecialOrthogonal):
            pts = man.draw_uniform(rng, 5)
        else:
            pts = rng.standard_normal((5, man.ambient_dim))
        raw = rng.standard_normal((5, man.tangent_dim))
        moved = man.propose_many(pts, raw, 0.2)
        dists = man.dist_many(moved, pts[0])
        for i in range(5):
            assert dists[i] == pytest.approx(man.dist(moved[i], pts[0]), abs=1e-10)


def proposal_rows(man):
    """Six points and raw normals: on the sphere, rows with x_n > 0, = 0 and
    < 0 (both Householder branches and the boundary between them); a g = 0
    row; and a step past half a great circle."""
    rng = gw.stream(11)
    if isinstance(man, gw.SpecialOrthogonal):
        pts = man.draw_uniform(rng, 6)
    else:
        pts = rng.standard_normal((6, man.ambient_dim))
    if isinstance(man, gw.Sphere):
        pts[:3, -1] = (0.7, 0.0, -0.7)
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        assert pts[0, -1] > 0.0 and pts[1, -1] == 0.0 and pts[2, -1] < 0.0
    g = rng.standard_normal((6, man.tangent_dim))
    g[3] = 0.0
    g[4] *= 20.0
    return pts, g


def tangent_then_exp(man, pts, g, delta):
    """The proposal written out: each row's tangent step, then its exp."""
    return np.stack(
        [man.exp(x, delta * man.tangent_from_gaussian(x, gi)) for x, gi in zip(pts, g)]
    )


@pytest.mark.parametrize("descriptor", ["euclidean:3", "sphere:2", "sphere:5", "so:3"])
def test_propose_many_matches_tangent_then_exp(descriptor):
    man = gw.from_descriptor(descriptor)
    pts, g = proposal_rows(man)
    for delta in (0.05, 0.3):
        reference = tangent_then_exp(man, pts, g, delta)
        proposed = man.propose_many(pts, g, delta)
        assert proposed.shape == pts.shape
        assert np.max(np.abs(proposed - reference)) < 1e-12
        assert np.max(np.abs(proposed[3] - pts[3])) < 1e-12
    # Read-only broadcast rows, as the conductance estimators pass them.
    fanned = man.propose_many(np.broadcast_to(pts[0], pts.shape), g, 0.05)
    assert np.max(np.abs(fanned[0] - man.propose_many(pts[:1], g[:1], 0.05)[0])) < 1e-15


@pytest.mark.parametrize("descriptor", ["euclidean:3", "sphere:2", "sphere:5", "so:3"])
def test_proposal_stages_equal_propose_many_across_a_sub_block(descriptor):
    # anneal_trials computes the factors of a step-major block of normals
    # _SLICE steps at a time, then proposes one step's rows at a time.
    man = gw.from_descriptor(descriptor)
    pts, g = proposal_rows(man)
    block = gw.stream(12).standard_normal((_SLICE + 2, len(pts), man.tangent_dim))
    block[_SLICE - 1] = block[_SLICE] = g
    for delta in (0.05, 0.3):
        for start in (0, _SLICE):
            factors = man.proposal_factors(block[start : start + _SLICE], delta)
            for j, step in enumerate(zip(*factors), start):
                proposed = man.propose_factored(pts, step)
                assert np.array_equal(proposed, man.propose_many(pts, block[j], delta))
        assert j == _SLICE + 1


def one_row_proposals(man, pts, g, delta):
    """``propose_row`` from each row of ``pts`` with that row's factors, fed
    as ``run_chain`` feeds it: as Python floats where ``float_rows`` is set."""
    factors = man.proposal_factors(g, delta)
    rows = pts
    if man.float_rows:
        rows, factors = pts.tolist(), [a.tolist() for a in factors]
    proposed = [man.propose_row(x, step) for x, step in zip(rows, zip(*factors))]
    if man.float_rows:
        assert all(type(v) is float for y in proposed for v in y)
        assert rows == pts.tolist()
    return np.array(proposed)


@pytest.mark.parametrize(
    "descriptor", ["euclidean:3", "sphere:2", "sphere:5", "sphere:50", "so:3"]
)
def test_propose_matches_tangent_then_exp_and_propose_many(descriptor):
    man = gw.from_descriptor(descriptor)
    pts, g = proposal_rows(man)
    before = pts.copy()
    # Only the sphere's closed forms change the arithmetic; every other
    # case computes exactly the composition, one row and batched alike, so
    # matches it bit for bit.
    exact = not isinstance(man, gw.Sphere)
    for delta in (0.05, 0.3):
        reference = tangent_then_exp(man, pts, g, delta)
        for proposed in (one_row_proposals(man, pts, g, delta), man.propose_many(pts, g, delta)):
            assert proposed.shape == pts.shape
            assert np.array_equal(pts, before)
            if exact:
                assert np.array_equal(proposed, reference)
            assert np.max(np.abs(proposed - reference)) < 1e-12
            assert np.max(np.abs(proposed[3] - pts[3])) < 1e-12


@pytest.mark.parametrize("descriptor", ["euclidean:3", "sphere:2", "sphere:5"])
def test_propose_row_equals_propose_factored(descriptor):
    # The float stage of run_chain and the batched stage of anneal_trials do
    # the same operations in the same order, except that the sphere's dot
    # product and norm sum in another order.
    man = gw.from_descriptor(descriptor)
    pts, g = proposal_rows(man)
    if isinstance(man, gw.Sphere):
        # Row 1 has x_n = +0.0; add its twin at -0.0, and a g = 0 row there.
        pts = np.vstack([pts, pts[1], pts[1]])
        pts[-2:, -1] = -0.0
        g = np.vstack([g, g[1], g[3]])
    for delta in (0.05, 0.3):
        proposed = one_row_proposals(man, pts, g, delta)
        batched = man.propose_factored(pts, man.proposal_factors(g, delta))
        if isinstance(man, gw.Sphere):
            assert np.max(np.abs(proposed - batched)) <= 1e-15
        else:
            assert np.array_equal(proposed, batched)


# ---------------------------------------------------------------------------
# Rotation group specifics.


def planar(theta):
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])


def test_rotation_exp_matches_block_rotations():
    # Om = Q blockdiag(theta_k J) Q^T has exp(Om) = Q blockdiag(R(theta_k)) Q^T
    # exactly, with J the planar generator and R(theta) its rotation.  The
    # angle pairs cover Om = 0, a repeated angle and an angle near pi.
    for n in (2, 3, 4, 5):
        man = gw.SpecialOrthogonal(n)
        rng = gw.stream(24, n)
        for angles in ((0.0, 0.0), (0.9, 0.9), (math.pi - 1e-7, 0.4), (2.3, 0.6)):
            blocks = np.zeros((n, n))
            rotations = np.eye(n)
            for k, theta in enumerate(angles[: n // 2]):
                cut = slice(2 * k, 2 * k + 2)
                blocks[cut, cut] = [[0.0, -theta], [theta, 0.0]]
                rotations[cut, cut] = planar(theta)
            for q in man.draw_uniform(rng, 20).reshape(-1, n, n):
                y = man.exp(np.eye(n).ravel(), (q @ blocks @ q.T).ravel())
                assert np.max(np.abs(y - (q @ rotations @ q.T).ravel())) < 1e-12


def test_rotation_distance_closed_form():
    man = gw.SpecialOrthogonal(3)
    theta = 1.1
    x = np.eye(3).ravel()
    y = np.eye(3)
    y[:2, :2] = planar(theta)
    assert man.dist(x, y.ravel()) == pytest.approx(math.sqrt(2.0) * theta, abs=1e-10)


def test_rotation_distance_is_defined_on_the_cut_locus():
    # A half-turn has two eigenvalue angles at pi: the distance is pi sqrt(2)
    # there, and sqrt(2) theta just short of it.
    man = gw.SpecialOrthogonal(3)
    x = np.eye(3).ravel()
    half_turn = np.diag([1.0, -1.0, -1.0]).ravel()
    assert man.dist(x, half_turn) == pytest.approx(math.pi * math.sqrt(2.0), abs=1e-12)
    theta = math.pi - 1e-9
    y = np.eye(3)
    y[1:, 1:] = planar(theta)
    assert man.dist(x, y.ravel()) == pytest.approx(math.sqrt(2.0) * theta, abs=1e-12)


def test_rotation_dist_many_is_row_by_row_across_the_cut_locus():
    man = gw.SpecialOrthogonal(3)
    half_turn = np.diag([1.0, -1.0, -1.0]).ravel()
    points = man.draw_uniform(gw.stream(26), 6)
    points[3] = half_turn
    anchor = np.eye(3).ravel()
    rows = [man.dist(p, anchor) for p in points]
    assert man.dist_many(points, anchor).tolist() == pytest.approx(rows, abs=1e-12)
    values = gw.distance_to(man, half_turn).f_many(points)
    assert np.all(np.isfinite(values)) and values[3] == pytest.approx(0.0, abs=1e-7)


def test_haar_rotations_are_left_invariant():
    man = gw.SpecialOrthogonal(3)
    rng = gw.stream(21)
    xs = man.draw_uniform(rng, 100_000)
    ys = man.draw_uniform(rng, 100_000)
    q = man.draw_uniform(rng, 1)[0].reshape(3, 3)
    base = np.eye(3).ravel()
    plain = man.dist_many(xs, base)
    rotated = man.dist_many(
        np.einsum("ij,kjl->kil", q, ys.reshape(-1, 3, 3)).reshape(len(ys), -1), base
    )
    assert gw.ks_two_sample(plain, rotated) < 0.01


def test_sphere_distance_is_rotation_invariant():
    man = gw.Sphere(2)
    rng = gw.stream(22)
    xs = rng.standard_normal((100_000, 3))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    q = gw.SpecialOrthogonal(3).draw_uniform(rng, 1)[0].reshape(3, 3)
    north = np.array([0.0, 0.0, 1.0])
    plain = man.dist_many(xs, north)
    rotated = man.dist_many(xs @ q.T, q @ north)
    assert gw.ks_two_sample(plain, rotated) < 0.01
    assert np.max(np.abs(np.sort(plain) - np.sort(rotated))) < 1e-6


@pytest.mark.parametrize("n", [2, 5, 50])
def test_sphere_one_row_dist_matches_dist_many(n):
    man = gw.Sphere(n)
    rng = gw.stream(23, n)
    rows = rng.standard_normal((400, n + 1))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    y = rows[0]
    batched = man.dist_many(rows, y)
    one_row = np.array([man.dist(row, y) for row in rows])
    # The two sum <x, y> in different orders, a last-bit difference that
    # arccos amplifies by 1/sin(d); away from d = 0 and pi it stays tiny.
    away = (batched > math.pi / 6) & (batched < 5 * math.pi / 6)
    assert np.count_nonzero(away) > 200
    assert np.max(np.abs(one_row - batched)[away]) <= 1e-15
    # Around a coordinate axis <x, y> is exact in any order, which leaves
    # numpy's arccos against libm's acos: at most one ulp apart.  Where
    # both are exact (the axis, its antipode, rows whose rounding puts
    # |<x, y>| past 1 and so are clamped) they agree bit for bit.
    north = np.zeros(n + 1)
    north[-1] = 1.0
    batched = man.dist_many(rows, north)
    one_row = np.array([man.dist(row, north) for row in rows])
    assert np.all(np.abs(one_row - batched) <= np.spacing(batched))
    over = np.nextafter(1.0, 2.0)
    ends = np.vstack([north, -north, over * north, -over * north])
    assert man.dist_many(ends, north).tolist() == [0.0, math.pi, 0.0, math.pi]
    assert [man.dist(row, north) for row in ends] == [0.0, math.pi, 0.0, math.pi]


# ---------------------------------------------------------------------------
# Long-run numerical drift (excluded from the default run).


@pytest.mark.slow
def test_sphere_norm_drift_over_a_million_steps():
    man = gw.Sphere(2)
    rng = gw.stream(5)
    x = random_sphere_point(man, rng)
    for _ in range(1_000_000):
        x = man.exp(x, 0.05 * man.tangent_from_gaussian(x, rng.standard_normal(man.tangent_dim)))
    assert abs(x @ x - 1.0) < 1e-9


@pytest.mark.slow
def test_rotation_orthogonality_drift_over_a_million_steps():
    man = gw.SpecialOrthogonal(3)
    rng = gw.stream(6)
    x = man.draw_uniform(rng, 1)[0]
    for _ in range(1_000_000):
        x = man.exp(x, 0.05 * man.tangent_from_gaussian(x, rng.standard_normal(man.tangent_dim)))
    xm = x.reshape(3, 3)
    assert np.max(np.abs(xm.T @ xm - np.eye(3))) < 1e-7
    assert np.linalg.det(xm) > 0.0


# ---------------------------------------------------------------------------
# Point validation and the descriptor grammar.


def test_point_validation_rejects_bad_inputs():
    man = gw.Sphere(2)
    with pytest.raises(PreconditionError):
        man.validate_point(np.array([0.5, 0.5, 0.5]))
    with pytest.raises(DimensionMismatch):
        man.validate_point(np.array([1.0, 0.0]))
    so = gw.SpecialOrthogonal(2)
    with pytest.raises(PreconditionError):
        so.validate_point(np.array([1.0, 0.0, 0.0, -1.0]))  # det = -1


def test_the_remaining_point_and_transport_errors():
    sphere = gw.Sphere(2)
    with pytest.raises(PreconditionError, match="non-finite point"):
        sphere.validate_point(np.array([0.0, 0.0, math.nan]))
    north, south = np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])
    with pytest.raises(PreconditionError, match="antipodal"):
        sphere.transport(north, south, np.eye(3)[:2])
    with pytest.raises(PreconditionError, match="not orthogonal"):
        gw.SpecialOrthogonal(3).validate_point(2.0 * np.eye(3).ravel())


def test_descriptor_round_trip():
    for text, kind in (
        ("euclidean:4", gw.Euclidean),
        ("sphere:9", gw.Sphere),
        ("so:3", gw.SpecialOrthogonal),
    ):
        man = gw.from_descriptor(text)
        assert isinstance(man, kind)
        assert man.descriptor == text
    for bad in ("sphere", "sphere:0", "torus:2", "so:1", "euclidean:x"):
        with pytest.raises(PreconditionError):
            gw.from_descriptor(bad)
