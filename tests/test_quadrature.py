"""The adaptive integrator against closed forms."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geowalk.errors import OracleError, PreconditionError
from geowalk import quadrature
from geowalk.quadrature import integrate


def test_polynomial_is_exact_up_to_tolerance():
    assert integrate(lambda x: x**3, 0.0, 1.0) == pytest.approx(0.25, abs=1e-12)


def test_exponential_matches_closed_form():
    value = integrate(math.exp, 0.0, 1.0)
    assert abs(value - (math.e - 1.0)) < 1e-10


def test_empty_and_reversed_intervals():
    assert integrate(math.sin, 2.0, 2.0) == 0.0
    with pytest.raises(PreconditionError):
        integrate(math.sin, 1.0, 0.0)
    with pytest.raises(PreconditionError):
        integrate(math.sin, 0.0, math.inf)


def test_breakpoints_handle_kinks():
    def tent(x):
        return 1.0 - abs(x)

    direct = integrate(tent, -1.0, 1.0, breakpoints=(0.0,))
    assert abs(direct - 1.0) < 1e-10


def test_large_magnitude_integrand_meets_relative_tolerance():
    # integral of (2x+1)^19 over [0, 3]: closed form (7^20 - 1) / 40.
    exact = (7.0**20 - 1.0) / 40.0
    value = integrate(lambda x: (2.0 * x + 1.0) ** 19, 0.0, 3.0)
    assert abs(value - exact) <= 1e-9 * exact


def test_gauss_nodes_and_weights_match_legendre():
    nodes, weights = np.polynomial.legendre.leggauss(10)
    positive = nodes > 0.0
    assert np.allclose(
        quadrature._K21_NODES[1::2], nodes[positive][::-1], rtol=0.0, atol=1e-15
    )
    assert np.allclose(
        quadrature._G10_WEIGHTS[1::2], weights[positive][::-1], rtol=0.0, atol=1e-15
    )
    assert not any(quadrature._G10_WEIGHTS[0::2])


@pytest.mark.parametrize("k", range(32))
def test_kronrod_rule_is_exact_through_degree_31(k):
    kronrod, _, _ = quadrature._gk21(lambda x: x**k, -1.0, 1.0)
    exact = 0.0 if k % 2 else 2.0 / (k + 1)
    assert abs(kronrod - exact) <= 1e-15


def test_degree_19_polynomial_takes_one_panel():
    calls = []

    def f(x):
        calls.append(x)
        return (2.0 * x + 1.0) ** 19

    integrate(f, 0.0, 3.0)
    assert len(calls) == 21


def _exp_linear_moment(m, q, k, a, b):
    """Closed form of the integral of exp(-(m z + q)) z**k over [a, b], m != 0,
    by the finite incomplete-gamma sum, in 40-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 40
        m, q, a, b = (Decimal(v) for v in (m, q, a, b))

        def anti(z):
            terms = sum(
                Decimal(math.perm(k, j)) * z ** (k - j) / m ** (j + 1) for j in range(k + 1)
            )
            return -(-(m * z + q)).exp() * terms

        return float(anti(b) - anti(a))


def test_kinked_exponential_moments_meet_the_contract():
    rng = np.random.default_rng(8)
    for _ in range(40):
        slopes = rng.choice([-1.0, 1.0], 3) * rng.uniform(0.2, 2.0, 3)
        offsets = rng.uniform(-1.0, 1.0, 3)
        lines = list(zip(slopes.tolist(), offsets.tolist()))
        k = int(rng.integers(0, 10))
        a = float(rng.uniform(0.0, 2.0))
        b = a + float(rng.uniform(0.5, 4.0))

        def active(z):
            return max(lines, key=lambda line: line[0] * z + line[1])

        def f(z):
            m, q = active(z)
            return math.exp(-(m * z + q)) * z**k

        kinks = sorted(
            (q2 - q1) / (m1 - m2) for (m1, q1), (m2, q2) in zip(lines, lines[1:] + lines[:1])
        )
        cuts = [a, *(c for c in kinks if a < c < b), b]
        exact = 0.0
        for left, right in zip(cuts[:-1], cuts[1:]):
            m, q = active(0.5 * (left + right))
            exact += _exp_linear_moment(m, q, k, left, right)
        value = integrate(f, a, b, breakpoints=kinks)
        bound = quadrature.ABS_TOL + quadrature.REL_TOL * exact
        assert abs(value - exact) <= bound


def test_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "ABS_TOL", 1e-14)
    monkeypatch.setattr(quadrature, "REL_TOL", 0.0)
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 4)
    with pytest.raises(OracleError):
        integrate(lambda x: math.sin(37.0 * x) * math.exp(x), 0.0, 3.0)


def test_results_are_deterministic():
    first = integrate(lambda x: math.exp(-x * x), 0.0, 2.0)
    second = integrate(lambda x: math.exp(-x * x), 0.0, 2.0)
    assert first == second


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(-5.0, 5.0),
    width=st.floats(0.1, 5.0),
    c0=st.floats(-2.0, 2.0),
    c1=st.floats(-2.0, 2.0),
)
def test_quadratics_match_antiderivative(a, width, c0, c1):
    b = a + width

    def anti(x):
        return c0 * x + 0.5 * c1 * x * x

    value = integrate(lambda x: c0 + c1 * x, a, b)
    assert value == pytest.approx(anti(b) - anti(a), abs=1e-9)
