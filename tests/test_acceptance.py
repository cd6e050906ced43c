"""End-to-end acceptance battery.

Each test here exercises one advertised guarantee of the package at full
scale: geometry accuracy, agreement of the walk with the uniform law,
decay of a point mass toward stationarity, the closed-form needle
inequalities, warm-start and low-temperature estimates, interior-volume
and annealing bounds, schedule arithmetic, and byte-level determinism of
the CLI.  The terminal summary prints one line per criterion.

Monte Carlo tolerances follow the author-side calibration: statistics are
compared against three standard errors of their estimators, determinism
is exact, and quadrature margins use the integrator's tolerance.
"""

import json
import math

import numpy as np
import pytest

import geowalk as gw
from geowalk import diagnostics as diag
from geowalk.cli import main

pytestmark = pytest.mark.acceptance

CAP60 = gw.SphericalCap(gw.Sphere(2), np.array([0.0, 0.0, 1.0]), math.pi / 3.0)


def polar_angle(points):
    return np.arccos(np.clip(points[:, 2], -1.0, 1.0))


def cap60_polar_cdf(t):
    # Uniform measure on the 60-degree cap has density proportional to
    # sin(theta); its polar-angle CDF is (1 - cos t) / (1 - cos pi/3).
    t = np.clip(t, 0.0, math.pi / 3.0)
    return (1.0 - np.cos(t)) / 0.5


def test_exponential_map_round_trips_at_scale():
    for man, sampler in (
        (gw.Sphere(9), None),
        (gw.SpecialOrthogonal(3), "haar"),
    ):
        rng = gw.stream(2026)
        for _ in range(1000):
            if sampler == "haar":
                x = man.draw_uniform(rng, 1)[0]
            else:
                g = rng.standard_normal(man.ambient_dim)
                x = g / math.sqrt(g @ g)
            u = man.tangent_from_gaussian(x, rng.standard_normal(man.tangent_dim))
            u = u / math.sqrt(u @ u)
            t = rng.uniform(1e-6, 0.9 * man.injectivity_radius)
            assert abs(man.dist(x, man.exp(x, t * u)) - t) <= 1e-8
            zero = man.exp(x, np.zeros_like(u))
            assert np.max(np.abs(zero - x)) <= 1e-12


def test_long_walk_matches_uniform_cap_law():
    start = gw.rejection_sample_uniform(CAP60, gw.stream(0, 1000))
    params = gw.WalkParams(delta=0.35, max_steps=10**5, seed=0, override_delta=True)
    with pytest.warns(gw.StepSizeWarning):
        result = gw.run_chain(start, CAP60, params, thin=10)
    angles = polar_angle(result.coords)
    assert len(angles) == 10**4
    ks = gw.ks_one_sample(angles, cap60_polar_cdf)
    assert ks < 0.02


def test_single_step_preserves_uniform_law():
    starts = gw.sample_uniform_many(CAP60, gw.stream(1), 10**4)
    evolved = gw.step_ensemble(starts, CAP60, 0.35, gw.stream(1, 1), steps=1)
    fresh = gw.sample_uniform_many(CAP60, gw.stream(1, 2), 10**4)
    ks = gw.ks_two_sample(polar_angle(evolved), polar_angle(fresh))
    assert ks < 0.02


SO3_BALL = gw.GeodesicBall(gw.SpecialOrthogonal(3), np.eye(3).ravel(), 1.2)


def so3_ball_angle_cdf(w):
    # A Haar rotation's angle w = d / sqrt(2) has density (1 - cos w) / pi
    # (Weyl's integration formula), so on the ball w <= 1.2 / sqrt(2) the
    # uniform law has CDF (w - sin w) / (w_m - sin w_m).
    w_m = 1.2 / math.sqrt(2.0)
    w = np.clip(w, 0.0, w_m)
    return (w - np.sin(w)) / (w_m - math.sin(w_m))


def test_ensemble_steps_keep_the_so3_ball_law():
    starts = gw.sample_uniform_many(SO3_BALL, gw.stream(3), 4000)
    evolved = gw.step_ensemble(starts, SO3_BALL, 0.3, gw.stream(3, 1), steps=5)
    angles = SO3_BALL.manifold.dist_many(evolved, SO3_BALL.center) / math.sqrt(2.0)
    ks = gw.ks_one_sample(angles, so3_ball_angle_cdf)
    # 1.95 is the Kolmogorov limit's 0.1% point.
    assert ks * math.sqrt(len(angles)) <= 1.95


def test_point_mass_contracts_to_uniform():
    checkpoints = (1, 4, 16, 64, 256)
    curve = gw.tv_decay_curve(CAP60, 0.35, checkpoints, 10**4, gw.stream(1))
    sigma = gw.ks_sigma(10**4, 2 * 10**4)
    values = [ks for _, ks in curve]
    rises = [later - earlier for earlier, later in zip(values, values[1:])]
    assert max(rises) <= 3.0 * sigma
    assert values[-1] < 0.03


def test_weighted_tail_inequality_battery():
    reports = diag.run_affine_needle_battery(seed=2026, instances=100)
    assert len(reports) == 100
    assert all(r.passed for r in reports)
    assert min(r.margin for r in reports) >= -1e-9


def test_convex_needle_moment_battery_and_closed_form():
    reports = diag.run_needle_moment_battery(seed=2026, instances=100)
    assert all(r.passed for r in reports)
    exact = diag.check_needle_moment_lemma(lambda z: z, 0.0, 10.0, n=1)
    assert abs(exact.lhs - 0.9995006007726127) <= 1e-9
    assert abs(exact.rhs - 1.9999092001404753) <= 1e-9


def test_partition_function_logconcavity_battery_and_symmetry():
    reports = diag.run_partition_battery(seed=2026, instances=100)
    assert all(r.passed for r in reports)
    symmetric = diag.check_partition_function_logconcavity(
        lambda z: 0.5 * z, (0.5, 2.0), n=2, alpha=0.7, beta=0.7
    )
    assert abs(symmetric.margin) <= 1e-9


def test_adjacent_temperatures_give_warm_start():
    sphere = gw.Sphere(5)
    axis = np.array([0.0] * 5 + [1.0])
    cap = gw.SphericalCap(sphere, axis, math.pi / 3.0)
    target = gw.distance_to(sphere, axis)
    schedule = gw.make_schedule(gw.initial_temperature(cap, 1.0), 5, 0.1, 0.1)
    t_hot, t_cold = schedule.temps[0], schedule.temps[1]
    assert t_hot == 2.0943951023931953
    assert t_cold == 1.157753138254432
    est = gw.estimate_l2_warmness(target.f_many, cap, t_hot, t_cold, 10**5, gw.stream(8))
    assert est.value <= 5.0 + 3.0 * est.stderr
    control = gw.estimate_l2_warmness(
        target.f_many, cap, t_hot, t_hot, 10**4, gw.stream(9)
    )
    assert control.value == 1.0


def test_cold_chain_concentrates_near_minimum():
    target = gw.as_gibbs(gw.distance_to(gw.Sphere(2), CAP60.axis), 0.05)
    params = gw.WalkParams(delta=0.04, max_steps=150_000, seed=9)
    result = gw.run_chain(CAP60.axis, CAP60, params, target=target, burn_in=20_000)
    report = gw.check_low_temp_expectation(result.f_values, n=2, temperature=0.05)
    assert report.passed
    assert report.lhs <= 0.15 + 3.0 * report.mc_stderr


def test_shell_mass_bound_and_box_control():
    eps = CAP60.inner_radius / 4.0
    report = gw.check_interior_volume(
        CAP60, eps, mc_samples=10**5, rng=gw.stream(10), trials=10**4
    )
    assert math.isclose(report.rhs, 0.5 * math.e)
    assert report.passed

    box = gw.EuclideanBox(np.zeros(3), np.ones(3))
    control = gw.check_interior_volume(
        box, 0.05, mc_samples=2000, rng=gw.stream(11), trials=4000
    )
    exact = gw.box_shell_fraction(box, 0.05)
    assert abs(control.lhs - exact) <= 3.0 * control.mc_stderr


def test_annealing_reaches_epsilon_optimum():
    sphere = gw.Sphere(5)
    axis = np.array([0.0] * 5 + [1.0])
    cap = gw.SphericalCap(sphere, axis, math.radians(75.0))
    target = gw.distance_to(sphere, axis)
    config = gw.AnnealConfig(
        epsilon=0.1, fail_prob=0.1, lipschitz=target.lipschitz,
        max_total_steps=10**6,
    )
    result = gw.anneal_trials(cap, target.f_many, config, seed=0, trials=20)
    assert sum(result.allocations) <= 10**6
    successes = int((result.values <= 0.1).sum())
    assert successes >= 18


def test_schedule_arithmetic_matches_hand_computation():
    schedule = gw.make_schedule(10.0, 4, 0.1, 0.1)
    assert schedule.phases == 18
    assert schedule.ratio == 0.5
    assert len(schedule.temps) == 19
    assert schedule.temps[0] == 10.0
    for cur, nxt in zip(schedule.temps, schedule.temps[1:]):
        assert nxt == cur * 0.5


SAMPLE_INI = """
[run]
mode = sample
seed = 3
output_dir = {out}

[space]
manifold = sphere:2
body = cap:0,0,1:1.0471975511965976
start = north

[walk]
steps = 400
thin = 10
burn_in = 100
chains = 2
delta = 0.04
"""

ANNEAL_INI = """
[run]
mode = anneal
seed = 5
output_dir = {out}

[space]
manifold = sphere:2
body = cap:0,0,1:1.0471975511965976

[target]
kind = distance_to:0,0,1
temperature = 1.0

[anneal]
epsilon = 0.4
fail_prob = 0.3
max_total_steps = 4000
trials = 2
"""

DIAGNOSE_INI = """
[run]
mode = diagnose
seed = 1
output_dir = {out}

[diagnose]
checks = affine_needle
"""


def test_every_subcommand_is_deterministic(tmp_path, capsys):
    for name, template in (
        ("sample", SAMPLE_INI),
        ("anneal", ANNEAL_INI),
        ("diagnose", DIAGNOSE_INI),
    ):
        out = tmp_path / name
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(template.format(out=out))
        assert main(["run", "--config", str(cfg)]) == 0
        first = {
            p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()
        }
        assert first
        assert main(["run", "--config", str(cfg)]) == 0
        second = {
            p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()
        }
        assert second == first

    capsys.readouterr()
    assert main(["list-builtins"]) == 0
    listing = capsys.readouterr().out
    assert main(["list-builtins"]) == 0
    assert capsys.readouterr().out == listing
