"""The manifold contract: four oracles walk, two optional ones unlock the rest.

``OracleSphere`` in ``conftest.py`` is the 2-sphere written from ``exp``,
``dist``, ``tangent_from_gaussian`` and ``validate_point``, plus
``draw_uniform`` and ``transport``; ``BareOracleSphere`` lacks the two.
"""

import math

import numpy as np
import pytest

import geowalk as gw
from geowalk.errors import PreconditionError

NORTH = np.array([0.0, 0.0, 1.0])


def ball_on(man):
    return gw.GeodesicBall(man, NORTH, 0.9)


def test_every_entry_point_runs_on_a_four_oracle_sphere(oracle_sphere):
    ball = ball_on(oracle_sphere)
    delta = gw.delta_bound(ball)
    inside = lambda points: np.all(ball.contains_many(np.atleast_2d(points)))

    chain = gw.run_chain(None, ball, gw.WalkParams(delta=delta, max_steps=600, seed=3))
    assert inside(chain.coords) and inside(chain.final)
    assert 0 < chain.stats.rejections < 600

    target = gw.distance_to(oracle_sphere, NORTH)
    config = gw.AnnealConfig(
        epsilon=0.5, fail_prob=0.5, lipschitz=target.lipschitz, max_total_steps=400
    )
    result = gw.anneal_trials(ball, target.f_many, config, seed=4, trials=3)
    assert inside(result.minimizers)
    assert np.all(result.values <= ball.radius)

    starts = gw.sample_uniform_many(ball, gw.stream(5), 200)
    moved = gw.step_ensemble(starts, ball, delta, gw.stream(6), steps=5)
    assert inside(starts) and inside(moved)
    assert not np.array_equal(moved, starts)

    rim = oracle_sphere.exp(NORTH, np.array([ball.radius - 1e-9, 0.0, 0.0]))
    p = gw.estimate_local_conductance(rim, ball, 0.05, 4000, gw.stream(7))
    assert abs(p - 0.5) < 0.05

    x = oracle_sphere.exp(NORTH, np.array([0.5, 0.0, 0.0]))
    y = oracle_sphere.exp(NORTH, np.array([0.0, 0.5, 0.0]))
    tv = gw.estimate_one_step_tv(x, y, ball, 0.3, 2000, gw.stream(8))
    assert 0.0 < tv.value <= 1.0
    assert tv.transport_term == math.erf(oracle_sphere.dist(x, y) / (2.0 * math.sqrt(2.0) * 0.3))


def test_each_entry_point_names_the_optional_method_it_lacks(bare_oracle_sphere):
    ball = ball_on(bare_oracle_sphere)
    params = gw.WalkParams(delta=gw.delta_bound(ball), max_steps=50, seed=3)
    target = gw.distance_to(bare_oracle_sphere, NORTH)
    config = gw.AnnealConfig(
        epsilon=0.5, fail_prob=0.5, lipschitz=target.lipschitz, max_total_steps=400
    )
    needs_a_draw = [
        lambda: gw.sample_uniform_many(ball, gw.stream(0), 10),
        lambda: gw.rejection_sample_uniform(ball, gw.stream(0)),
        lambda: gw.run_chain(None, ball, params),
        lambda: gw.anneal_trials(ball, target.f_many, config, seed=0, trials=2),
    ]
    for call in needs_a_draw:
        with pytest.raises(PreconditionError, match=r"oracle-sphere:2 defines no draw_uniform"):
            call()
    x = bare_oracle_sphere.exp(NORTH, np.array([0.5, 0.0, 0.0]))
    with pytest.raises(PreconditionError, match=r"oracle-sphere:2 defines no transport"):
        gw.estimate_one_step_tv(x, NORTH, ball, params.delta, 100, gw.stream(0))
    # The four oracles alone still walk from a given start.
    chain = gw.run_chain(NORTH, ball, params)
    assert np.all(ball.contains_many(chain.coords))
    assert 0.0 < gw.estimate_local_conductance(x, ball, params.delta, 200, gw.stream(1)) <= 1.0
