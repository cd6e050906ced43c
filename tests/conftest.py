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
