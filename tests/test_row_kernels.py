"""The straight-line float-row kernels against explicit-loop references.

Every one-row oracle of ``sphere:n`` and ``euclidean:n``, and of the
bodies and targets on them, is compiled per dimension (``manifolds``'
row-kernel helper).  Here each is compared bit for bit with its reference
in ``row_reference.py`` over rows that include +-0.0, subnormals, +-inf and
NaN, at one dimension past any expression nesting limit, and on rows of the
wrong length, which raise.
"""

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import geowalk as gw
import row_reference as ref
from geowalk import bodies, manifolds, targets
from geowalk.errors import DimensionMismatch

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, math.inf, -math.inf, math.nan, 1.0, -1.0]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))
FINITE = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 1.0]), st.floats(-1e100, 1e100))


def bits(values):
    """The bytes of a float or a list of floats, every NaN as one NaN.

    Which operand's payload and sign a NaN result carries is up to the
    machine code of the interpreter's float add and multiply (C leaves the
    operand order of a commutative operation open, and CPython runs a
    generic and a specialised path), so NaN bits say nothing of the order
    a row is summed in.  Every other bit, the sign of a zero included,
    must match."""
    values = np.array(values, dtype=np.float64, ndmin=1)
    values[np.isnan(values)] = np.nan
    return values.tobytes()


def rows(n, elements=FLOATS):
    return st.lists(elements, min_size=n, max_size=n)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 7))
def test_sphere_propose_row_and_dist_match_the_reference(data, n):
    man = gw.Sphere(n)
    m = man.ambient_dim
    x, y, g, step = data.draw(rows(m)), data.draw(rows(m)), data.draw(rows(n)), data.draw(rows(m))
    cos_t, k = data.draw(FLOATS), data.draw(FLOATS)
    factors = (g, cos_t, k, list(step))
    assert bits(man.propose_row(x, factors)) == bits(ref.sphere_propose_row(x, (g, cos_t, k, step)))
    assert bits(man.dist(x, y)) == bits(ref.sphere_dist(x, y))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 8))
def test_euclidean_propose_row_matches_the_reference(data, n):
    man = gw.Euclidean(n)
    x, d = data.draw(rows(n)), data.draw(rows(n))
    assert bits(man.propose_row(x, (d,))) == bits(ref.euclidean_propose_row(x, (d,)))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 7), seed=st.integers(0, 2**32 - 1), angle=st.floats(0.01, 1.5))
def test_cap_membership_and_read_match_the_reference(data, n, seed, angle):
    axis = np.random.default_rng(seed).standard_normal(n + 1)
    cap = gw.SphericalCap(gw.Sphere(n), axis / np.linalg.norm(axis), angle)
    x = data.draw(rows(n + 1))
    unit = cap.axis.tolist()
    inside = cap.contains_coords(x)
    assert type(inside) is bool and inside == ref.cap_contains(unit, cap.cos_angle, x)
    read = cap.contains_coords.scalar(cap)[2]
    assert bits(read(x)) == bits(ref.cap_read(unit, x))
    # The one cap kernel, read, with an arbitrary axis, specials included.
    a = data.draw(rows(n + 1))
    assert bits(manifolds._row_factory(manifolds._dot_constants, n + 1)(*a)(x)) == bits(ref.cap_read(a, x))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 8))
def test_box_membership_matches_the_reference(data, n):
    ends = data.draw(st.lists(st.tuples(FLOATS, FLOATS), min_size=n, max_size=n))
    lo = [min(a, b) for a, b in ends]
    hi = [max(a, b) for a, b in ends]
    x = data.draw(rows(n))
    kernel = manifolds._row_factory(bodies._box_contains, n)(*lo, *hi)
    assert kernel(x) is ref.box_contains(lo, hi, x)
    if all(b > a for a, b in zip(lo, hi)):
        with np.errstate(all="ignore"):  # the metadata of an infinite box
            box = gw.EuclideanBox(np.array(lo), np.array(hi))
        assert box.contains_coords(x) is ref.box_contains(lo, hi, x)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 8))
def test_linear_value_matches_the_reference(data, n):
    c = data.draw(rows(n, FINITE).filter(lambda c: np.linalg.norm(c) > 0.0))
    x = data.draw(rows(n))
    assert bits(gw.linear(np.array(c)).f(x)) == bits(ref.linear_f(c, x))


def test_a_sum_of_negative_zeros_reads_positive_zero():
    # sum() starts from 0, and 0 + (-0.0) is +0.0; so does every kernel's sum.
    assert bits(gw.linear(np.array([1.0])).f([-0.0])) == bits(0.0) == bits(sum([-0.0]))
    cap = gw.SphericalCap(gw.Sphere(1), np.array([1.0, 0.0]), 1.0)
    read = cap.contains_coords.scalar(cap)[2]
    assert bits(read([-0.0, -0.0])) == bits(0.0) == bits(ref.cap_read([1.0, 0.0], [-0.0, -0.0]))


def test_box_tests_every_lower_bound_before_the_upper_ones():
    # Coordinates that log which bound each comparison reads: ``lo <= x``
    # reaches Probe.__ge__, ``x <= hi`` Probe.__le__.
    class Probe:
        def __init__(self, index, value, log):
            self.index, self.value, self.log = index, value, log

        def __ge__(self, bound):
            self.log.append(("lo", self.index))
            return self.value >= bound

        def __le__(self, bound):
            self.log.append(("hi", self.index))
            return self.value <= bound

    lo, hi = [-math.inf, 0.0, -1.0], [1.0, math.inf, math.inf]
    box = gw.EuclideanBox(np.array(lo), np.array(hi))
    cases = [[0.5, 0.5, 0.0], [0.5, -0.5, 0.0], [2.0, 0.5, 0.0], [math.nan, 0.0, 0.0], [-math.inf, 3.0, math.inf]]
    for values in cases:
        logs = [], []
        got = box.contains_coords([Probe(i, v, logs[0]) for i, v in enumerate(values)])
        probes = [Probe(i, v, logs[1]) for i, v in enumerate(values)]
        want = all(map(operator.le, lo, probes)) and all(map(operator.le, probes, hi))
        assert got == want == ref.box_contains(lo, hi, values)
        assert logs[0] == logs[1]
    assert box.contains_coords([-math.inf, 0.0, 1e308]) is True


def test_kernels_stay_flat_at_four_thousand_dimensions():
    # A chained ``+`` of 3,000 terms exceeds the compiler's recursion limit.
    man = gw.Sphere(4000)
    rng = gw.stream(41)
    x, y = man.draw_uniform(rng, 2)
    factors = [a[0].tolist() for a in man.proposal_factors(rng.standard_normal((1, man.tangent_dim)), 0.01)]
    x, y = x.tolist(), y.tolist()
    assert bits(man.propose_row(x, factors)) == bits(ref.sphere_propose_row(x, factors))
    assert bits(man.dist(x, y)) == bits(ref.sphere_dist(x, y))
    cap = gw.SphericalCap(man, np.array(x), 1.2)
    assert cap.contains_coords(y) == ref.cap_contains(cap.axis.tolist(), cap.cos_angle, y)
    assert cap.contains_coords(x)


def test_rows_of_the_wrong_length_raise():
    cases = [
        lambda: gw.EuclideanBox(np.zeros(2), np.ones(2)).contains_coords([0.5]),
        lambda: gw.SphericalCap(gw.Sphere(2), np.array([0.0, 0.0, 1.0]), 1.0).contains_coords([0, 0, 1, 5]),
        lambda: gw.Sphere(2).dist([1, 0, 0], [1, 0]),
        lambda: gw.Sphere(2).propose_row([0.0, 0.0, 1.0], ([1.0, 0.0, 0.0], 1.0, 0.1, [0.0, 0.0, 0.0])),
        lambda: gw.Euclidean(2).propose_row([0.0, 0.0], ([1.0, 2.0, 3.0],)),
        lambda: gw.linear(np.array([1.0, 2.0])).f([1.0, 2.0, 3.0]),
        lambda: gw.GeodesicBall(gw.Sphere(2), np.array([0.0, 0.0, 1.0]), 0.5).contains_coords([0.0, 1.0]),
    ]
    # Euclidean.dist is d @ d on numpy, not a kernel: it checks both lengths
    # itself, where np.subtract would broadcast.
    checked = [
        lambda: gw.GeodesicBall(gw.Euclidean(2), np.zeros(2), 1.0).contains_coords([0.5]),
        lambda: gw.Euclidean(2).dist([0.0, 0.0], [0.5]),
        lambda: gw.Euclidean(2).dist([0.5], [0.0, 0.0]),
    ]
    for cause, calls in ((ValueError, cases), (type(None), checked)):
        for call in calls:
            with pytest.raises(DimensionMismatch) as caught:
                call()
            assert isinstance(caught.value.__cause__, cause)


def test_kernels_are_compiled_once_per_dimension():
    first, second = gw.Sphere(3), gw.Sphere(3)
    first.dist([1.0, 0, 0, 0], [0, 1.0, 0, 0])
    second.dist([1.0, 0, 0, 0], [0, 1.0, 0, 0])
    assert first._dist is not second._dist
    assert first._dist.__code__ is second._dist.__code__
    assert targets.linear(np.ones(3)).f.__code__ is targets.linear(np.arange(1.0, 4.0)).f.__code__
