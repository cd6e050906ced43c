import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geowalk as gw
from geowalk import diagnostics as diag
from geowalk import quadrature, walk


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov helpers.


def test_ks_one_sample_matches_hand_computation():
    values = np.array([0.9, 0.1, 0.5])
    d = gw.ks_one_sample(values, lambda t: np.clip(t, 0.0, 1.0))
    assert math.isclose(d, 7.0 / 30.0, rel_tol=0.0, abs_tol=1e-15)


def test_ks_one_sample_uniform_is_small():
    rng = gw.stream(11)
    d = gw.ks_one_sample(rng.random(20000), lambda t: np.clip(t, 0.0, 1.0))
    assert d < 3.0 * gw.ks_sigma(20000)


def test_ks_two_sample_extremes_and_symmetry():
    a = np.array([0.0, 1.0, 2.0])
    b = np.array([10.0, 11.0])
    assert gw.ks_two_sample(a, a) == 0.0
    assert gw.ks_two_sample(a, b) == 1.0
    rng = gw.stream(12)
    x, y = rng.random(500), rng.random(700)
    assert gw.ks_two_sample(x, y) == gw.ks_two_sample(y, x)


def test_ks_sigma_values():
    assert math.isclose(gw.ks_sigma(100), 0.026)
    assert math.isclose(gw.ks_sigma(10000, 20000), 0.26 * math.sqrt(30000 / 2.0e8))


# ---------------------------------------------------------------------------
# Needle inequalities via quadrature.


def test_affine_needle_constant_weight_closed_form():
    # With a constant weight the left side collapses to (b - a) / e.
    report = diag.check_affine_needle_lemma(
        a=0.0, b=1.0, c1=0.0, c2=1.0, n=1, eps=0.5
    )
    assert report.passed
    assert math.isclose(report.lhs, 1.0 / math.e, rel_tol=1e-12)
    assert math.isclose(report.rhs, 1.0, rel_tol=1e-12)
    assert report.margin == report.rhs - report.lhs


def test_affine_needle_rejects_bad_inputs():
    with pytest.raises(gw.PreconditionError):
        diag.check_affine_needle_lemma(0.0, 1.0, 0.0, 1.0, n=2, eps=0.6)
    with pytest.raises(gw.PreconditionError):
        diag.check_affine_needle_lemma(0.0, 1.0, 1.0, -5.0, n=1, eps=0.5)
    with pytest.raises(gw.PreconditionError):
        diag.check_affine_needle_lemma(0.0, 1.0, 0.0, 1.0, n=0, eps=0.5)
    with pytest.raises(gw.PreconditionError):
        diag.check_affine_needle_lemma(1.0, 1.0, 0.0, 1.0, n=1, eps=0.5)


def test_needle_moment_linear_potential_frozen_values():
    # h(z) = z on [0, 10] with n = 1 integrates in closed form:
    # lhs = 1 - 11 exp(-10), rhs = 2 (1 - exp(-10)).
    report = diag.check_needle_moment_lemma(lambda z: z, 0.0, 10.0, n=1)
    assert report.passed
    assert math.isclose(report.lhs, 0.9995006007726127, rel_tol=0.0, abs_tol=1e-9)
    assert math.isclose(report.rhs, 1.9999092001404753, rel_tol=0.0, abs_tol=1e-9)


def test_needle_moment_rejects_concave_potential():
    with pytest.raises(gw.NotConvex):
        diag.check_needle_moment_lemma(lambda z: -z * z, 0.0, 1.0, n=2)


def _pairwise_convexity_test(h, a, b, tol=1e-9, grid=33):
    """Reference spot test: one ``h`` call per grid pair, in row-major order."""
    xs = np.linspace(a, b, grid)
    values = np.array([h(x) for x in xs])
    for i in range(grid):
        for j in range(i + 2, grid):
            mid = 0.5 * (xs[i] + xs[j])
            if h(mid) > 0.5 * (values[i] + values[j]) + tol:
                raise gw.NotConvex(
                    f"midpoint test failed at x={xs[i]:.6g}, y={xs[j]:.6g}: "
                    f"h(mid)={h(mid):.6g} exceeds the chord"
                )


@pytest.mark.parametrize(
    "h,a,b",
    [
        (lambda z: -z * z, 0.0, 1.0),
        (lambda z: abs(z - 0.3) - 0.2 * math.exp(-200.0 * (z - 1.1) ** 2), 0.0, 2.0),
        (lambda z: math.sin(3.0 * z), 0.5, 4.5),
        (lambda z: z**3, -1.0, 1.0),
    ],
)
def test_convexity_witness_matches_pairwise_loop(h, a, b):
    with pytest.raises(gw.NotConvex) as reference:
        _pairwise_convexity_test(h, a, b)
    with pytest.raises(gw.NotConvex) as deduplicated:
        diag._require_convex(h, a, b)
    assert str(deduplicated.value) == str(reference.value)


def test_convexity_test_evaluates_each_midpoint_once():
    h, _ = diag._random_piecewise_linear_convex(gw.stream(3))
    calls = []

    def counted(z):
        calls.append(z)
        return h(z)

    grid = 33
    xs = np.linspace(0.2, 3.7, grid)
    i, j = np.triu_indices(grid, 2)
    distinct = np.unique(0.5 * (xs[i] + xs[j])).size
    diag._require_convex(counted, 0.2, 3.7)
    assert len(calls) <= grid + distinct < grid + i.size


def test_needle_moment_rejects_bad_interval():
    with pytest.raises(gw.PreconditionError):
        diag.check_needle_moment_lemma(lambda z: z, -1.0, 1.0, n=1)
    with pytest.raises(gw.PreconditionError):
        diag.check_needle_moment_lemma(lambda z: z, 2.0, 1.0, n=1)


def test_partition_logconcavity_midpoint_margin_is_exactly_zero():
    # alpha == beta makes both sides the same product of identical
    # quadratures, so the margin is zero in exact float arithmetic.
    report = diag.check_partition_function_logconcavity(
        lambda z: 0.5 * z, (0.5, 2.0), n=2, alpha=0.7, beta=0.7
    )
    assert report.passed
    assert report.margin == 0.0


def test_partition_logconcavity_tolerance_covers_each_integrals_error(monkeypatch):
    # Each Z within integrate's own bound abs_tol + rel_tol * Z, with
    # Z(alpha) and Z(beta) high and the midpoint's low: the identity
    # alpha == beta, Z near 1e3, must still pass.
    signs = iter([0.99, 0.99, -0.99])

    def perturbed(f, a, b, **kwargs):
        z = gw.integrate(f, a, b, **kwargs)
        return z + next(signs) * (quadrature.ABS_TOL + quadrature.REL_TOL * z)

    monkeypatch.setattr(diag, "integrate", perturbed)
    report = diag.check_partition_function_logconcavity(
        lambda z: 0.5 * z, (0.5, 17.5), n=3, alpha=0.1, beta=0.1
    )
    assert 800.0 < math.sqrt(report.lhs) < 1200.0
    assert report.passed


def test_partition_logconcavity_spread_temperatures():
    report = diag.check_partition_function_logconcavity(
        lambda z: z * z, (0.5, 2.0), n=3, alpha=0.3, beta=1.1
    )
    assert report.passed
    assert report.lhs <= report.rhs + 1e-9


def test_partition_logconcavity_rejects_bad_inputs():
    with pytest.raises(gw.PreconditionError):
        diag.check_partition_function_logconcavity(
            lambda z: z, (0.0, 1.0), n=1, alpha=1.0, beta=1.0
        )
    with pytest.raises(gw.PreconditionError):
        diag.check_partition_function_logconcavity(
            lambda z: z, (0.5, 1.0), n=1, alpha=-1.0, beta=1.0
        )


@settings(deadline=None, max_examples=30)
@given(
    alpha=st.floats(0.1, 10.0),
    beta=st.floats(0.1, 10.0),
    n=st.integers(1, 6),
)
def test_partition_logconcavity_property(alpha, beta, n):
    report = diag.check_partition_function_logconcavity(
        lambda z: z * z, (0.5, 2.0), n=n, alpha=alpha, beta=beta
    )
    assert report.passed


# ---------------------------------------------------------------------------
# Monte Carlo geometry checks.


def test_normal_upper_quantile_frozen_values():
    assert math.isclose(
        diag._normal_upper_quantile(1e-3), 3.090232306167813, abs_tol=1e-9
    )
    assert abs(diag._normal_upper_quantile(0.5)) < 1e-9


def test_box_shell_fraction_exact():
    box = gw.EuclideanBox(np.zeros(3), np.ones(3))
    assert math.isclose(gw.box_shell_fraction(box, 0.05), 1.0 - 0.9**3)
    with pytest.raises(gw.PreconditionError):
        gw.box_shell_fraction(box, 0.5)
    with pytest.raises(gw.PreconditionError):
        gw.box_shell_fraction(box, 0.0)


NAN_CALLS = {
    "affine_needle": lambda cap: gw.check_affine_needle_lemma(0.0, 1.0, math.nan, 1.0, n=2, eps=0.5),
    "partition_logconcavity": lambda cap: gw.check_partition_function_logconcavity(
        lambda z: z, (0.5, 1.0), 2, math.nan, 1.0
    ),
    "box_shell_fraction": lambda cap: gw.box_shell_fraction(
        gw.EuclideanBox(np.zeros(3), np.ones(3)), math.nan
    ),
    "interior_volume": lambda cap: gw.check_interior_volume(cap, math.nan, 10, gw.stream(0)),
    "isoperimetry": lambda cap: gw.check_isoperimetry(
        cap, lambda x: np.ones(len(x), dtype=int), math.nan, 10, gw.stream(0)
    ),
    "warmness_hot": lambda cap: gw.estimate_l2_warmness(
        lambda x: x[:, 0], cap, math.nan, 1.0, 10, gw.stream(0)
    ),
    "warmness_cold": lambda cap: gw.estimate_l2_warmness(
        lambda x: x[:, 0], cap, 1.0, math.nan, 10, gw.stream(0)
    ),
    "local_conductance_delta": lambda cap: gw.estimate_local_conductance(
        cap.axis, cap, math.nan, 10, gw.stream(0)
    ),
    "one_step_tv_delta": lambda cap: gw.estimate_one_step_tv(
        cap.axis, cap.axis, cap, math.nan, 10, gw.stream(0)
    ),
    "step_ensemble_delta": lambda cap: gw.step_ensemble(
        cap.axis[None, :], cap, math.nan, gw.stream(0)
    ),
    "tv_decay_delta": lambda cap: gw.tv_decay_curve(cap, math.nan, (1, 4), 100, gw.stream(0)),
}


@pytest.mark.parametrize("case", sorted(NAN_CALLS))
def test_nan_arguments_are_precondition_errors(case, cap60):
    with pytest.raises(gw.PreconditionError):
        NAN_CALLS[case](cap60)


def test_step_ensemble_rejects_negative_steps(cap60):
    with pytest.raises(gw.PreconditionError, match="steps must be >= 0"):
        gw.step_ensemble(cap60.axis[None, :], cap60, 0.1, gw.stream(0), steps=-1)


@pytest.mark.parametrize(
    "start, error",
    [
        ([0.0, 0.0, 2.0], gw.PreconditionError),
        ([0.1, 0.0, 1.0], gw.PreconditionError),
        ([0.0, 1.0], gw.DimensionMismatch),
    ],
    ids=["far-off-sphere", "near-off-sphere", "short"],
)
def test_one_step_tv_checks_both_starts_as_run_chain_does(cap60, start, error):
    rng = gw.stream(0)
    with pytest.raises(error):
        gw.estimate_one_step_tv(start, cap60.axis, cap60, 0.04, 100, rng)
    with pytest.raises(error):
        gw.estimate_one_step_tv(cap60.axis, start, cap60, 0.04, 100, rng)


def test_the_remaining_argument_errors(cap60):
    with pytest.raises(gw.PreconditionError, match="empty sample"):
        gw.ks_two_sample(np.array([]), np.array([0.5]))
    with pytest.raises(gw.PreconditionError, match="at least 4"):
        gw.check_low_temp_expectation(np.array([0.1, 0.2, 0.3]), 2, 0.1)
    with pytest.raises(gw.PreconditionError, match="non-decreasing"):
        gw.tv_decay_curve(cap60, 0.1, (4, 1), 10, gw.stream(0))


def test_interior_volume_box_agrees_with_exact_shell():
    box = gw.EuclideanBox(np.zeros(3), np.ones(3))
    report = gw.check_interior_volume(
        box, eps=0.05, mc_samples=1500, rng=gw.stream(21), trials=3000
    )
    assert report.passed
    assert math.isclose(report.rhs, math.e * 3 * 0.05 / 0.5)
    assert abs(report.lhs - (1.0 - 0.9**3)) < 0.08


def test_interior_volume_expected_fraction_is_the_noiseless_mean(cap60):
    trials, tol, mc_samples = 300, 0.05, 400
    report = gw.check_interior_volume(
        cap60, eps=cap60.inner_radius / 4.0, mc_samples=mc_samples,
        rng=gw.stream(31), trials=trials, conductance_tol=tol,
    )
    # The check draws its points first, so the same stream gives them back.
    points = gw.sample_uniform_many(cap60, gw.stream(31), mc_samples)
    q = cap60.contains_coords.rejection_probability(cap60, points, report.details["walk_delta"])
    # Outside means at most 284 of 300 proposals stay: 16 or more rejections.
    direct = np.mean([
        sum(math.comb(trials, j) * p**j * (1.0 - p) ** (trials - j) for j in range(16, trials + 1))
        for p in q.tolist()
    ])
    expected = report.details["expected_fraction"]
    assert expected == pytest.approx(direct, abs=1e-12)
    assert abs(report.lhs - expected) <= 3.0 * report.mc_stderr


def test_interior_volume_on_a_ball_draws_its_proposals():
    ball = gw.GeodesicBall(gw.Sphere(2), np.array([0.0, 0.0, 1.0]), 1.0)
    report = gw.check_interior_volume(
        ball, eps=0.25, mc_samples=40, rng=gw.stream(32), trials=500
    )
    assert report.details["expected_fraction"] is None
    assert report.passed


def test_interior_volume_rejects_large_eps(cap60):
    with pytest.raises(gw.PreconditionError):
        gw.check_interior_volume(cap60, eps=1.0, mc_samples=10, rng=gw.stream(0))
    with pytest.raises(gw.PreconditionError):
        gw.check_interior_volume(cap60, eps=0.0, mc_samples=10, rng=gw.stream(0))


def _band_classifier(lo, hi):
    def classify(points):
        labels = np.full(len(points), 2)
        labels[points[:, 0] < lo] = 1
        labels[points[:, 0] > hi] = 3
        return labels

    return classify


def test_isoperimetry_on_separated_bands():
    box = gw.EuclideanBox(np.zeros(2), np.ones(2))
    report = gw.check_isoperimetry(
        box, _band_classifier(0.3, 0.7), eps=0.4, mc_samples=8000, rng=gw.stream(31)
    )
    assert report.passed
    assert report.mc_stderr > 0.0


def test_isoperimetry_detects_touching_pieces():
    box = gw.EuclideanBox(np.zeros(2), np.ones(2))
    with pytest.raises(gw.SeparationViolated):
        gw.check_isoperimetry(
            box,
            _band_classifier(0.45, 0.55),
            eps=0.5,
            mc_samples=4000,
            rng=gw.stream(32),
        )


def test_isoperimetry_rejects_unknown_labels():
    box = gw.EuclideanBox(np.zeros(2), np.ones(2))
    with pytest.raises(gw.PreconditionError):
        gw.check_isoperimetry(
            box,
            lambda pts: np.zeros(len(pts), dtype=int),
            eps=0.1,
            mc_samples=100,
            rng=gw.stream(33),
        )


def test_one_step_tv_vanishes_at_equal_points(cap60):
    delta = 0.05
    x = cap60.axis
    est = gw.estimate_one_step_tv(x, x, cap60, delta, 4000, gw.stream(41))
    assert est.transport_term == 0.0
    assert est.value <= 1e-12


def test_one_step_tv_grows_with_distance(cap60):
    delta = 0.05
    x = cap60.axis
    y = gw.Sphere(2).exp(x, np.array([0.2, 0.0, 0.0]))
    near = gw.estimate_one_step_tv(x, y, cap60, delta, 4000, gw.stream(42))
    assert 0.0 < near.value <= 1.0
    assert near.transport_term > 0.0
    assert near.value <= near.transport_term + near.rejection_term + 1e-15
    z = gw.Sphere(2).exp(x, np.array([0.9, 0.0, 0.0]))
    far = gw.estimate_one_step_tv(x, z, cap60, delta, 4000, gw.stream(42))
    assert far.value == 1.0


def coupling_case(descriptor):
    """A body of ``descriptor`` and two starts inside it near its boundary,
    so that some coupled proposals leave it from one start only.  On the
    sphere the starts straddle ``x_n = 0``, the two Householder branches."""
    man = gw.from_descriptor(descriptor)
    if isinstance(man, gw.Euclidean):
        body = gw.EuclideanBox(np.zeros(3), np.ones(3))
        return body, np.array([0.05, 0.5, 0.5]), np.array([0.1, 0.45, 0.95])
    if isinstance(man, gw.Sphere):
        centre = np.eye(man.ambient_dim)[0]
        body = gw.SphericalCap(man, centre, 1.2)
        above = np.zeros(man.ambient_dim)
        above[1], above[-1] = 0.99, 0.14
        below = above.copy()
        below[-1] = -0.14
        return body, man.exp(centre, 1.1 * above), man.exp(centre, 1.1 * below)
    centre = np.eye(man.n).ravel()
    body = gw.GeodesicBall(man, centre, 1.0)
    x, y = (
        man.exp(centre, man.tangent_from_gaussian(centre, np.array(g)))
        for g in ([0.8, 0.0, 0.1], [0.7, 0.3, -0.2])
    )
    return body, x, y


@pytest.mark.parametrize("descriptor", ["sphere:5", "euclidean:3", "so:3"])
def test_one_step_tv_matches_the_per_row_transport_coupling(descriptor):
    # The estimator proposes from y with the normals g R^T, where R is the
    # transport written in the two tangent frames; this is the coupling
    # exp_y(delta * transport(tangent_from_gaussian(x, g))), row by row.
    # On R^n and SO(n) the transport carries one frame onto the other, so
    # R is the identity; on the sphere it is not.
    body, x, y = coupling_case(descriptor)
    man = body.manifold
    delta = 0.1
    proposals = 2000
    est = gw.estimate_one_step_tv(x, y, body, delta, proposals, gw.stream(61))

    basis = np.eye(man.tangent_dim)
    frame_x, frame_y = (
        np.stack([man.tangent_from_gaussian(p, e) for e in basis]) for p in (x, y)
    )
    rotation = frame_y @ man.transport(x, y, frame_x).T
    assert np.max(np.abs(rotation @ rotation.T - basis)) < 1e-12

    in_x, in_y = [], []
    for g in gw.stream(61).standard_normal((proposals, man.tangent_dim)):
        u = man.tangent_from_gaussian(x, g)
        v = man.transport(x, y, u[None, :])[0]
        in_x.append(body.contains_coords(man.exp(x, delta * u)))
        in_y.append(body.contains_coords(man.exp(y, delta * v)))
    disagreement = float(np.mean(np.array(in_x) != np.array(in_y)))
    d = man.dist(x, y)
    assert 0.0 < est.rejection_term == disagreement
    assert est.transport_term == min(1.0, math.erf(d / (2.0 * math.sqrt(2.0) * delta)))


def test_warmness_equal_temperatures_is_exactly_one(cap60):
    target = gw.distance_to(gw.Sphere(2), cap60.axis)
    est = gw.estimate_l2_warmness(
        target.f_many, cap60, t_hot=1.0, t_cold=1.0, mc_samples=2000, rng=gw.stream(51)
    )
    assert est.value == 1.0
    assert est.stderr < 1e-12


def test_warmness_rejects_aggressive_or_inverted_schedules(cap60):
    target = gw.distance_to(gw.Sphere(2), cap60.axis)
    with pytest.raises(gw.ScheduleTooAggressive):
        gw.estimate_l2_warmness(
            target.f_many, cap60, t_hot=1.0, t_cold=0.4, mc_samples=100,
            rng=gw.stream(52),
        )
    with pytest.raises(gw.PreconditionError):
        gw.estimate_l2_warmness(
            target.f_many, cap60, t_hot=0.5, t_cold=1.0, mc_samples=100,
            rng=gw.stream(52),
        )


def test_low_temp_expectation_bounds():
    flat = np.zeros(100)
    report = gw.check_low_temp_expectation(flat, n=3, temperature=1.0)
    assert report.passed
    assert math.isclose(report.margin, 4.0)
    hot = np.full(100, 10.0)
    assert not gw.check_low_temp_expectation(hot, n=1, temperature=0.1).passed


@pytest.mark.parametrize("seed", [1, 4])
def test_low_temp_check_is_the_run_chain_f_values(seed):
    # The check keeps only the chain's f values; they are run_chain's column.
    cap = diag._default_cap()
    man = cap.manifold
    params = gw.WalkParams(delta=gw.delta_bound(cap), max_steps=150_000, seed=seed)
    gibbs = gw.as_gibbs(gw.distance_to(man, cap.axis), 0.05)
    chain = gw.run_chain(cap.axis, cap, params, target=gibbs, burn_in=20_000)
    expected = gw.check_low_temp_expectation(chain.f_values, man.tangent_dim, 0.05)
    assert gw.run_builtin_check("low_temp_expectation", seed) == [expected]


def test_tv_decay_curve_checkpoints_and_decrease(cap60):
    curve = gw.tv_decay_curve(cap60, 0.35, (1, 8, 64), 1500, gw.stream(61))
    assert [step for step, _ in curve] == [1, 8, 64]
    assert all(0.0 <= ks <= 1.0 for _, ks in curve)
    assert curve[0][1] > curve[-1][1]


# ---------------------------------------------------------------------------
# Batteries and the registry.


def test_affine_needle_battery_reproducible():
    first = diag.run_affine_needle_battery(seed=7, instances=25)
    second = diag.run_affine_needle_battery(seed=7, instances=25)
    assert len(first) == 25
    assert all(r.passed for r in first)
    assert [r.lhs for r in first] == [r.lhs for r in second]


def test_needle_moment_and_partition_batteries_pass():
    assert all(r.passed for r in diag.run_needle_moment_battery(seed=3, instances=10))
    assert all(r.passed for r in diag.run_partition_battery(seed=3, instances=10))


def test_piecewise_linear_integrand_matches_numpy_bitwise():
    for seed in range(10):
        h, kinks = diag._random_piecewise_linear_convex(gw.stream(seed))
        rng = gw.stream(seed)
        count = int(rng.integers(2, 5))
        slopes = np.sort(rng.uniform(-3.0, 3.0, size=count))
        offsets = rng.uniform(-2.0, 2.0, size=count)
        # The kinks, the ends of the batteries' intervals (needle a in
        # [0, 2], b <= 7; partition lo in [0.05, 1], hi <= 5) and a grid.
        special = [*kinks, 0.0, 0.05, 0.5, 1.0, 2.0, 5.0, 7.0]
        grid = np.linspace(-1.0, 8.0, 1000 - len(special)).tolist()
        for z in special + grid:
            assert h(z).hex() == float(np.max(slopes * z + offsets)).hex()


def test_builtin_registry_names_and_dispatch():
    names = gw.builtin_check_names()
    assert "affine_needle" in names
    assert "interior_volume" in names
    assert "tv_decay" in names
    reports = gw.run_builtin_check("affine_needle", seed=5)
    assert all(r.passed for r in reports)
    with pytest.raises(gw.PreconditionError):
        gw.run_builtin_check("needle_of_unknown_kind", seed=0)


@pytest.mark.parametrize("name", gw.builtin_check_names())
def test_builtin_check_working_set_is_bounded(name):
    # Traced allocations above the starting level, at most 4 MiB per check
    # whatever its sample size: the largest is warmness, whose 20,000
    # uniform draws on S^5 are about 3.1 MiB.
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gw.run_builtin_check(name, seed=1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20, peak


def test_report_as_dict_round_trips():
    report = diag.check_affine_needle_lemma(0.0, 1.0, 0.0, 1.0, n=1, eps=0.5)
    payload = report.as_dict()
    assert payload["name"] == report.name
    assert payload["passed"] is True
    assert payload["margin"] == report.margin
