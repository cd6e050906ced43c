"""The package's public surface: what ``import geowalk`` exports."""

import dataclasses
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

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
