"""The package's public surface: what ``import geowalk`` exports."""

import dataclasses
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import geowalk as gw

# Every public non-module name of the package, sorted.  ``geowalk/__init__.py``
# republishes each module's ``__all__``, so a name added to or removed from
# a module's ``__all__`` must be added to or removed from here.
PUBLIC = [
    "AcceptanceTooLow", "AnnealConfig", "AnnealSchedule", "ChainResult",
    "ConfigError", "ConvexBody", "DegenerateSchedule",
    "DimensionMismatch", "Euclidean", "EuclideanBox",
    "GeoWalkError", "GeodesicBall", "GibbsTarget", "InequalityReport",
    "InvalidStart", "Manifold", "NotConvex", "OracleError", "PhaseRecord",
    "PreconditionError", "RejectionStats",
    "ScheduleTooAggressive", "SeparationViolated", "SpecialOrthogonal", "Sphere",
    "SphericalCap", "StepSizeWarning", "Target", "TrialsResult", "TvEstimate",
    "WalkParams", "WarmnessEstimate", "allocate_steps",
    "anneal_trials", "box_shell_fraction", "builtin_check_names",
    "check_affine_needle_lemma", "check_interior_volume", "check_isoperimetry",
    "check_low_temp_expectation", "check_needle_moment_lemma",
    "check_partition_function_logconcavity", "delta_bound", "distance_to",
    "estimate_l2_warmness", "estimate_local_conductance", "estimate_one_step_tv",
    "from_descriptor", "initial_temperature", "integrate", "ks_one_sample",
    "ks_sigma", "ks_two_sample", "linear", "make_schedule",
    "rejection_sample_uniform", "run_builtin_check", "run_chain",
    "sample_uniform_many", "sqdist_to", "step_ensemble", "stream", "tv_decay_curve",
    "validate_delta",
]


def test_public_names_are_pinned():
    names = sorted(
        name
        for name in dir(gw)
        if not name.startswith("_") and not isinstance(getattr(gw, name), types.ModuleType)
    )
    assert names == PUBLIC


def test_anneal_submodule_is_the_package_attribute():
    # ``import geowalk.anneal`` must leave ``geowalk.anneal`` bound even when
    # ``import geowalk`` has already loaded the submodule; run in a fresh
    # interpreter so no earlier import in this session can bind it first.
    code = "import geowalk.anneal; print(geowalk.anneal.AnnealConfig.__name__)"
    env = dict(os.environ, PYTHONPATH=str(Path(gw.__file__).resolve().parent.parent))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=False
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "AnnealConfig"
    assert gw.anneal is importlib.import_module("geowalk.anneal")
    assert gw.anneal.anneal_trials is gw.anneal_trials


def test_removed_members_stay_removed():
    assert not hasattr(gw.ConvexBody, "contains")
    assert not hasattr(gw.Manifold, "validate_tangent")
    walk = importlib.import_module("geowalk.walk")
    assert not hasattr(walk, "metropolis_step") and not hasattr(walk, "WalkState")
    # The tangent-then-exp batch path; proposals take the staged kernel.
    for owner, name in [
        (gw.Manifold, "exp_many"),
        (gw.Manifold, "tangent_from_gaussian_many"),
        (gw.Manifold, "tangent_gaussian"),
        (gw.Sphere, "exp_many"),
        (gw.Sphere, "tangent_from_gaussian_many"),
        (gw.Euclidean, "exp_many"),
        (gw.Euclidean, "tangent_from_gaussian_many"),
        (gw.SpecialOrthogonal, "tangent_from_gaussian_many"),
        # Class switches, now methods and declarations of the objects.
        (gw.SpecialOrthogonal, "haar_many"),
        (importlib.import_module("geowalk.bodies"), "_propose_global"),
        (importlib.import_module("geowalk.diagnostics"), "_transport"),
        (walk, "_rejection_probability"),
        # SO(n).exp takes one eigh instead of a Pade exponential and an SVD.
        (importlib.import_module("geowalk.manifolds"), "matexp"),
        (gw.SpecialOrthogonal, "_polar"),
        # Settings only tests set, now module constants.
        (gw, "QuadratureSpec"),
        (gw, "DEFAULT_SPEC"),
        (importlib.import_module("geowalk.quadrature"), "QuadratureSpec"),
        (importlib.import_module("geowalk.config"), "_INT_KEYS"),
        # Each RunConfig field declares its INI key; one rule checks every
        # positive real; one kernel template reads a row against constants.
        (importlib.import_module("geowalk.config"), "_KEYS"),
        (walk, "_check_step_size"),
        (importlib.import_module("geowalk.bodies"), "_cap_read"),
        (importlib.import_module("geowalk.targets"), "_linear_f"),
        # The SO(n) distance is defined everywhere, so nothing raises or
        # catches a cut-locus error.
        (gw, "CutLocusError"),
        (importlib.import_module("geowalk.errors"), "CutLocusError"),
        (importlib.import_module("geowalk.bodies"), "_contains_row"),
        (importlib.import_module("geowalk.bodies"), "_contains_rows"),
        # One converter, Manifold.as_row, owns the float-row rule; the cap
        # tests membership with its one read kernel; a Gibbs target is
        # GibbsTarget(target.f, T).
        (gw.Manifold, "float_rows"),
        (gw.Sphere, "float_rows"),
        (gw.Euclidean, "float_rows"),
        (importlib.import_module("geowalk.bodies"), "_cap_contains"),
        (gw.SphericalCap, "_inside"),
        (gw, "as_gibbs"),
        (importlib.import_module("geowalk.targets"), "as_gibbs"),
    ]:
        assert not hasattr(owner, name), (owner.__name__, name)
    # Fields nothing read.
    assert "name" not in {f.name for f in dataclasses.fields(gw.Target)}
    assert not {"t0", "n"} & {f.name for f in dataclasses.fields(gw.AnnealSchedule)}
    # The step-size bound reads the manifold from the body.
    cap = gw.SphericalCap(gw.Sphere(2), [0.0, 0.0, 1.0], 1.0)
    with pytest.raises(TypeError):
        gw.delta_bound(cap.manifold, cap)


CAP = gw.SphericalCap(gw.Sphere(2), [0.0, 0.0, 1.0], 1.0)
FLAT = gw.Euclidean(2)

# Every argument the one positivity rule guards: its name in the message,
# and a call that passes it the value ``v``.
POSITIVE_ARGUMENTS = {
    "WalkParams.delta": ("step size", lambda v: gw.WalkParams(delta=v)),
    "GibbsTarget.temperature": ("temperature", lambda v: gw.GibbsTarget(abs, v)),
    "AnnealConfig.epsilon": ("epsilon", lambda v: gw.AnnealConfig(v, 0.1, 1.0)),
    "AnnealConfig.lipschitz": ("lipschitz", lambda v: gw.AnnealConfig(0.1, 0.1, v)),
    "AnnealConfig.budget_constant": (
        "budget_constant", lambda v: gw.AnnealConfig(0.1, 0.1, 1.0, budget_constant=v)
    ),
    "AnnealConfig.delta": ("step size", lambda v: gw.AnnealConfig(0.1, 0.1, 1.0, delta=v)),
    "make_schedule.t0": ("t0", lambda v: gw.make_schedule(v, 5, 0.1, 0.1)),
    "make_schedule.epsilon": ("epsilon", lambda v: gw.make_schedule(1.0, 5, v, 0.1)),
    "initial_temperature.lipschitz": ("lipschitz", lambda v: gw.initial_temperature(CAP, v)),
    "GeodesicBall.radius": ("ball radius", lambda v: gw.GeodesicBall(FLAT, np.zeros(2), v)),
    "sqdist_to.diameter": ("diameter", lambda v: gw.sqdist_to(FLAT, np.zeros(2), v)),
    "estimate_local_conductance.delta": (
        "step size", lambda v: gw.estimate_local_conductance(CAP.axis, CAP, v, 10, gw.stream(0))
    ),
    "estimate_one_step_tv.delta": (
        "step size", lambda v: gw.estimate_one_step_tv(CAP.axis, CAP.axis, CAP, v, 10, gw.stream(0))
    ),
    "check_partition_function_logconcavity.alpha": (
        "alpha", lambda v: gw.check_partition_function_logconcavity(lambda z: z, (0.5, 1.0), 2, v, 1.0)
    ),
    "check_partition_function_logconcavity.beta": (
        "beta", lambda v: gw.check_partition_function_logconcavity(lambda z: z, (0.5, 1.0), 2, 1.0, v)
    ),
    "check_isoperimetry.eps": (
        "eps",
        lambda v: gw.check_isoperimetry(CAP, lambda x: np.full(len(x), 2), v, 10, gw.stream(0)),
    ),
}


@pytest.mark.parametrize("case", POSITIVE_ARGUMENTS)
def test_every_positive_argument_must_be_finite(case):
    what, call = POSITIVE_ARGUMENTS[case]
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(gw.PreconditionError, match=f"^{what} must be positive and finite, got"):
            call(bad)
    call(1.0)
