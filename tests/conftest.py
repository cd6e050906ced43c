"""Shared fixtures and the acceptance-criteria terminal summary."""

import math

import numpy as np
import pytest

import geowalk as gw
from geowalk.errors import CutLocusError

_ACCEPTANCE: list[tuple[str, str]] = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "acceptance" in report.keywords:
        _ACCEPTANCE.append((report.nodeid.split("::")[-1], report.outcome))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome in _ACCEPTANCE:
        tag = "PASS" if outcome == "passed" else outcome.upper()
        terminalreporter.write_line(f"{tag}: {name}")


@pytest.fixture
def cap60():
    """The workhorse body: a 60-degree cap on the 2-sphere."""
    man = gw.Sphere(2)
    return gw.SphericalCap(man, np.array([0.0, 0.0, 1.0]), math.pi / 3)


class BandCap(gw.SphericalCap):
    """The 60-degree cap on the 2-sphere whose membership test hits a
    stand-in cut locus on the band ``x[0] > 0.8`` at its rim.  With
    ``raises`` off the band is simply outside the body."""

    def __init__(self, raises):
        super().__init__(gw.Sphere(2), np.array([0.0, 0.0, 1.0]), math.pi / 3)
        self.raises = raises
        self.band_hits = 0

    def _band(self):
        self.band_hits += 1
        if self.raises:
            raise CutLocusError("proposal on the stand-in cut locus")

    def contains_coords(self, x):
        if x[0] > 0.8:
            self._band()
            return False
        return super().contains_coords(x)

    def contains_many(self, points):
        band = points[:, 0] > 0.8
        if band.any():
            self._band()
        return super().contains_many(points) & ~band


@pytest.fixture
def band_cap():
    """The :class:`BandCap` class, to build with or without the raise."""
    return BandCap


class LeftHalf:
    """Mixin that cuts a flat body to its points with ``x[0] <=
    inner_center[0]`` by overriding both membership tests.  The metadata
    stays the parent's; these bodies only test the uniform samplers."""

    def contains_coords(self, x):
        return x[0] <= self.inner_center[0] and super().contains_coords(x)

    def contains_many(self, points):
        return (points[:, 0] <= self.inner_center[0]) & super().contains_many(points)


class HalfBox(LeftHalf, gw.EuclideanBox):
    pass


class HalfBall(LeftHalf, gw.GeodesicBall):
    pass


@pytest.fixture
def half_bodies():
    """A box and a flat ball, each cut in half by an overriding membership test."""
    return [
        HalfBox(np.array([0.0, -1.0]), np.array([2.0, 1.0])),
        HalfBall(gw.Euclidean(2), np.array([1.0, 0.0]), 1.0),
    ]


class BareOracleSphere(gw.Manifold):
    """The 2-sphere from the four oracles alone, without the closed forms of
    :class:`geowalk.Sphere`: the tangent frame at ``x`` is the complete QR
    of ``x``."""

    ambient_dim, tangent_dim = 3, 2
    curvature_bound, injectivity_radius = 2.0, math.pi
    descriptor = "oracle-sphere:2"

    def exp(self, x, v):
        t = float(np.linalg.norm(v))
        y = x if t == 0.0 else math.cos(t) * x + (math.sin(t) / t) * v
        return y / np.linalg.norm(y)

    def dist(self, x, y):
        return math.acos(min(1.0, max(-1.0, float(np.dot(x, y)))))

    def tangent_from_gaussian(self, x, g):
        q, _ = np.linalg.qr(np.reshape(x, (3, 1)), mode="complete")
        return q[:, 1:] @ g

    def validate_point(self, x, atol=1e-8):
        x = self._check_shape(x)
        if abs(x @ x - 1.0) > 2.0 * atol:
            raise gw.PreconditionError("point is off the unit sphere")


class OracleSphere(BareOracleSphere):
    """:class:`BareOracleSphere` with the optional ``draw_uniform`` and ``transport``."""

    def draw_uniform(self, rng, count):
        g = rng.standard_normal((count, 3))
        return g / np.linalg.norm(g, axis=1, keepdims=True)

    def transport(self, x, y, v):
        # Parallel transport along the great circle from x to y.
        return v - np.outer(v @ y, x + y) / (1.0 + x @ y)


@pytest.fixture
def oracle_sphere():
    return OracleSphere()


@pytest.fixture
def bare_oracle_sphere():
    return BareOracleSphere()
