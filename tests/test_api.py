"""The package's public surface: what ``import geowalk`` exports."""

import importlib
import types

import pytest

import geowalk as gw

# Every public non-module name of the package, sorted.  A name added to or
# removed from ``geowalk/__init__.py`` must be added to or removed from here.
PUBLIC = [
    "AcceptanceTooLow", "AnnealConfig", "AnnealSchedule", "ChainResult",
    "ConfigError", "ConvexBody", "CutLocusError", "DEFAULT_SPEC",
    "DegenerateSchedule", "DimensionMismatch", "Euclidean", "EuclideanBox",
    "GeoWalkError", "GeodesicBall", "GibbsTarget", "InequalityReport",
    "InvalidStart", "Manifold", "NotConvex", "OracleError", "PhaseRecord",
    "PreconditionError", "QuadratureSpec", "RejectionStats",
    "ScheduleTooAggressive", "SeparationViolated", "SpecialOrthogonal", "Sphere",
    "SphericalCap", "StepSizeWarning", "Target", "TrialsResult", "TvEstimate",
    "WalkParams", "WarmnessEstimate", "allocate_steps",
    "anneal_trials", "as_gibbs", "box_shell_fraction", "builtin_check_names",
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


def test_anneal_submodule_is_not_a_package_attribute():
    with pytest.raises(AttributeError):
        gw.anneal
    from geowalk import anneal as imported_from
    from geowalk.anneal import anneal_trials
    import geowalk.anneal as aliased

    assert aliased is imported_from is importlib.import_module("geowalk.anneal")
    assert anneal_trials is gw.anneal_trials
    with pytest.raises(AttributeError):
        gw.anneal


def test_removed_members_stay_removed():
    assert not hasattr(gw.ConvexBody, "contains")
    assert not hasattr(gw.Manifold, "validate_tangent")
    walk = importlib.import_module("geowalk.walk")
    assert not hasattr(walk, "metropolis_step") and not hasattr(walk, "WalkState")
