import importlib.util
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import geowalk as gw
from geowalk import config as cfgmod


def write_ini(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


SAMPLE_INI = """
[run]
mode = sample
seed = 42
output_dir = out

[space]
manifold = sphere:2
body = cap:0,0,1:1.0471975511965976
start = north

[walk]
steps = 500
thin = 5
burn_in = 50
chains = 2
delta = 0.01
"""


def test_load_config_round_trip(tmp_path):
    cfg = cfgmod.load_config(write_ini(tmp_path, SAMPLE_INI))
    assert cfg.mode == "sample"
    assert cfg.seed == 42
    assert cfg.output_dir == "out"
    assert cfg.manifold == "sphere:2"
    assert cfg.start == "north"
    assert cfg.steps == 500
    assert cfg.thin == 5
    assert cfg.burn_in == 50
    assert cfg.chains == 2
    assert cfg.delta == 0.01
    assert cfg.override_delta is False
    cfgmod.validate_config(cfg)


SHIPPED = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.ini"))


@pytest.mark.parametrize("path", SHIPPED, ids=[p.stem for p in SHIPPED])
def test_shipped_configs_load_and_build(path):
    cfg = cfgmod.load_config(str(path))
    if cfg.manifold:
        man = cfgmod.manifold_from_string(cfg.manifold)
        body = cfgmod.body_from_string(cfg.body, man)
        if cfg.target:
            cfgmod.target_from_string(cfg.target, man, body)


def test_shipped_configs_cover_every_mode():
    modes = {cfgmod.load_config(str(path)).mode for path in SHIPPED}
    assert modes == {"sample", "anneal", "diagnose"}


# Every output row carries its config's hash; the contract test compares
# rows without it, so a change in how keys are read shows only here.
SHIPPED_HASHES = {
    "anneal_cap": "78e123cca7ca",
    "diagnose_all": "b4a39daae016",
    "sample_box_gibbs": "0e159482903a",
    "sample_cap": "a011f91806a4",
}


def test_shipped_config_hashes_are_pinned():
    hashes = {p.stem: cfgmod.config_hash(cfgmod.load_config(str(p))) for p in SHIPPED}
    assert hashes == SHIPPED_HASHES


# One INI per mode, each setting only keys its mode reads; together they
# set every key to a value other than its default.
EVERY_KEY_INIS = (
    """
[run]
mode = sample
seed = 9
output_dir = elsewhere

[space]
manifold = sphere:3
body = cap:north:0.5
start = north

[walk]
steps = 77
thin = 7
burn_in = 3
chains = 4
delta = 0.02
override_delta = yes

[target]
kind = distance_to:north
temperature = 2
""",
    """
[run]
mode = diagnose

[diagnose]
checks = affine_needle, tv_decay
""",
    """
[run]
mode = anneal

[space]
manifold = sphere:3
body = cap:north:0.5

[target]
kind = distance_to:north

[anneal]
epsilon = 0.25
fail_prob = 0.05
budget_constant = 3
max_total_steps = 5000
trials = 6
""",
)


def test_every_key_reads_as_its_fields_type(tmp_path):
    # Each key is read through an INI of a mode that reads it.  A field set
    # in several INIs takes the last one's value: mode is the anneal INI's.
    read = {}
    for text in EVERY_KEY_INIS:
        loaded = cfgmod.load_config(write_ini(tmp_path, text))
        for field in fields(cfgmod.RunConfig):
            if getattr(loaded, field.name) != field.default:
                read[field.name] = getattr(loaded, field.name)
    cfg = cfgmod.RunConfig(**read)
    expected = cfgmod.RunConfig(
        mode="anneal",
        seed=9,
        output_dir="elsewhere",
        manifold="sphere:3",
        body="cap:north:0.5",
        start="north",
        steps=77,
        thin=7,
        burn_in=3,
        chains=4,
        delta=0.02,
        override_delta=True,
        target="distance_to:north",
        temperature=2.0,
        epsilon=0.25,
        fail_prob=0.05,
        budget_constant=3.0,
        max_total_steps=5000,
        trials=6,
        checks=("affine_needle", "tv_decay"),
    )
    for field in fields(cfgmod.RunConfig):
        got, want = getattr(cfg, field.name), getattr(expected, field.name)
        assert want != field.default, field.name
        assert (type(got), got) == (type(want), want), field.name


ANNEAL_INI = """
[run]
mode = anneal
seed = 5

[space]
manifold = sphere:2
body = cap:0,0,1:1.0471975511965976

[target]
kind = distance_to:0,0,1

[anneal]
trials = 2
"""


def test_an_unread_key_at_its_default_changes_nothing(tmp_path):
    # Anneal mode does not read temperature; its default loads as if unset.
    plain = cfgmod.load_config(write_ini(tmp_path, ANNEAL_INI))
    text = ANNEAL_INI.replace("distance_to:0,0,1\n", "distance_to:0,0,1\ntemperature = 1.0\n")
    with_default = cfgmod.load_config(write_ini(tmp_path, text))
    assert with_default == plain
    assert cfgmod.config_hash(with_default) == cfgmod.config_hash(plain)


def test_validate_config_rejects_unread_fields_of_a_config_built_in_code():
    space = dict(manifold="sphere:2", body="cap:north:1.0")
    anneal = dict(space, mode="anneal", target="distance_to:north")
    for cfg, message in (
        (cfgmod.RunConfig(**anneal, thin=0), r"mode anneal does not read \[walk\] thin"),
        (cfgmod.RunConfig(**space, trials=3), r"mode sample does not read \[anneal\] trials"),
        (cfgmod.RunConfig(mode="diagnose", chains=0), r"does not read \[walk\] chains"),
        (cfgmod.RunConfig(**space, temperature=0.5), r"temperature unless \[target\] kind is set"),
        (cfgmod.RunConfig(**anneal, override_delta=True), r"override_delta unless \[walk\] delta"),
    ):
        with pytest.raises(gw.ConfigError, match=message):
            cfgmod.validate_config(cfg)
    cfgmod.validate_config(cfgmod.RunConfig(**anneal, delta=0.01, override_delta=True))


def test_every_benchmark_workload_config_loads(tmp_path, monkeypatch):
    # The benchmark writes its own INI files; the shipped configs are
    # loaded by test_shipped_configs_load_and_build.
    bench = Path(__file__).resolve().parent.parent / "bench"
    monkeypatch.setattr(sys, "path", [str(bench), *sys.path])
    spec = importlib.util.spec_from_file_location("bench_run", bench / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    assert module.WORKLOADS
    for name, workload in module.WORKLOADS.items():
        text = workload.ini(workload.params, 1, tmp_path / name)
        cfgmod.load_config(write_ini(tmp_path, text))


def test_load_config_rejects_unknown_section(tmp_path):
    path = write_ini(tmp_path, SAMPLE_INI + "\n[mystery]\nknob = 1\n")
    with pytest.raises(gw.ConfigError, match="mystery"):
        cfgmod.load_config(path)


def test_load_config_rejects_unknown_key(tmp_path):
    jobs = SAMPLE_INI.replace("output_dir = out\n", "output_dir = out\njobs = 2\n")
    for text, key in ((SAMPLE_INI + "stride = 3\n", "stride"), (jobs, "jobs")):
        path = write_ini(tmp_path, text)
        with pytest.raises(gw.ConfigError, match=key):
            cfgmod.load_config(path)


def test_load_config_wraps_parser_errors(tmp_path):
    path = write_ini(tmp_path, SAMPLE_INI + "\n[walk]\nthin = 2\n")
    with pytest.raises(gw.ConfigError, match="malformed"):
        cfgmod.load_config(path)


def test_load_config_rejects_bad_value(tmp_path):
    path = write_ini(tmp_path, SAMPLE_INI.replace("steps = 500", "steps = soon"))
    with pytest.raises(gw.ConfigError):
        cfgmod.load_config(path)


@pytest.mark.parametrize(
    "token, value",
    [
        *[(t, True) for t in ("1", "yes", "true", "on", "TrUe")],
        *[(t, False) for t in ("0", "no", "false", "off")],
        ("maybe", None),
    ],
)
def test_booleans_take_configparsers_spellings(tmp_path, token, value):
    text = SAMPLE_INI.replace("delta = 0.01", f"delta = 0.01\noverride_delta = {token}")
    path = write_ini(tmp_path, text)
    if value is None:
        with pytest.raises(gw.ConfigError, match=r"bad value 'maybe' for override_delta in \[walk\]"):
            cfgmod.load_config(path)
    else:
        assert cfgmod.load_config(path).override_delta is value


def test_load_config_missing_file():
    with pytest.raises(gw.ConfigError):
        cfgmod.load_config("/nonexistent/run.ini")


def test_target_kind_maps_to_target_attribute(tmp_path):
    text = SAMPLE_INI + "\n[target]\nkind = distance_to:0,0,1\ntemperature = 0.5\n"
    cfg = cfgmod.load_config(write_ini(tmp_path, text))
    assert cfg.target == "distance_to:0,0,1"
    assert cfg.temperature == 0.5


def test_auto_delta_parses_to_none(tmp_path):
    for token in ("auto", ""):
        text = SAMPLE_INI.replace("delta = 0.01", f"delta = {token}")
        cfg = cfgmod.load_config(write_ini(tmp_path, text))
        assert cfg.delta is None


def test_validate_config_requires_space_for_sampling():
    cfg = cfgmod.RunConfig(mode="sample")
    with pytest.raises(gw.ConfigError):
        cfgmod.validate_config(cfg)
    with pytest.raises(gw.ConfigError):
        cfgmod.validate_config(cfgmod.RunConfig(mode="orbit"))


def test_validate_config_diagnose_needs_known_checks():
    cfg = cfgmod.RunConfig(mode="diagnose", checks=("affine_needle",))
    cfgmod.validate_config(cfg)
    bad = cfgmod.RunConfig(mode="diagnose", checks=("bogus_check",))
    with pytest.raises(gw.ConfigError):
        cfgmod.validate_config(bad)


def test_config_hash_is_deterministic_and_sensitive(tmp_path):
    cfg = cfgmod.load_config(write_ini(tmp_path, SAMPLE_INI))
    again = cfgmod.load_config(write_ini(tmp_path, SAMPLE_INI))
    assert cfgmod.config_hash(cfg) == cfgmod.config_hash(again)
    assert len(cfgmod.config_hash(cfg)) == 12
    bumped = cfgmod.load_config(
        write_ini(tmp_path, SAMPLE_INI.replace("seed = 42", "seed = 43"))
    )
    assert cfgmod.config_hash(bumped) != cfgmod.config_hash(cfg)


# ---------------------------------------------------------------------------
# Spec-string parsers.


def test_parse_point_spec_named_points():
    north = cfgmod.parse_point_spec("north", gw.Sphere(2))
    assert np.array_equal(north, np.array([0.0, 0.0, 1.0]))
    ident = cfgmod.parse_point_spec("identity", gw.SpecialOrthogonal(3))
    assert np.array_equal(ident.reshape(3, 3), np.eye(3))
    with pytest.raises(gw.ConfigError):
        cfgmod.parse_point_spec("north", gw.Euclidean(3))
    with pytest.raises(gw.ConfigError):
        cfgmod.parse_point_spec("identity", gw.Sphere(2))


def test_parse_point_spec_coordinates():
    point = cfgmod.parse_point_spec("0.6,0.8,0", gw.Sphere(2))
    assert math.isclose(point @ point, 1.0)
    with pytest.raises(gw.ConfigError):
        cfgmod.body_from_string("cap:1,2:0.5", gw.Sphere(2))
    with pytest.raises(gw.ConfigError):
        cfgmod.parse_point_spec("a,b,c", gw.Sphere(2))


def test_an_ini_cap_is_the_library_cap():
    # The cap alone checks its axis, to its own 1e-6, and normalises it.
    axis = [0.0, 0.0, 1.0000001]
    from_ini = cfgmod.body_from_string("cap:0,0,1.0000001:1", gw.Sphere(2))
    assert from_ini.axis.tobytes() == gw.SphericalCap(gw.Sphere(2), axis, 1.0).axis.tobytes()


def test_manifold_from_string():
    assert cfgmod.manifold_from_string("sphere:3").descriptor == "sphere:3"
    assert cfgmod.manifold_from_string("so:3").descriptor == "so:3"
    with pytest.raises(gw.ConfigError):
        cfgmod.manifold_from_string("torus:2")


def test_body_from_string_cap_ball_box():
    sphere = gw.Sphere(2)
    cap = cfgmod.body_from_string("cap:0,0,1:0.7", sphere)
    assert isinstance(cap, gw.SphericalCap)
    assert math.isclose(cap.angle, 0.7)

    ball = cfgmod.body_from_string("ball:0,0,1:0.4", sphere)
    assert isinstance(ball, gw.GeodesicBall)
    assert math.isclose(ball.radius, 0.4)

    box = cfgmod.body_from_string("box:0,0:1,2", gw.Euclidean(2))
    assert isinstance(box, gw.EuclideanBox)
    assert np.array_equal(box.hi, np.array([1.0, 2.0]))


def test_body_from_string_rejects_mismatches():
    with pytest.raises(gw.ConfigError):
        cfgmod.body_from_string("box:0,0:1,1", gw.Sphere(2))
    with pytest.raises(gw.ConfigError):
        cfgmod.body_from_string("box:0,0,0:1,1", gw.Euclidean(3))
    with pytest.raises(gw.ConfigError):
        cfgmod.body_from_string("cap:0,0,1:2.0", gw.Sphere(2))
    with pytest.raises(gw.ConfigError):
        cfgmod.body_from_string("pyramid:0,0,1:1.0", gw.Sphere(2))


def test_target_from_string():
    sphere = gw.Sphere(2)
    cap = gw.SphericalCap(sphere, np.array([0.0, 0.0, 1.0]), 1.0)
    t = cfgmod.target_from_string("distance_to:0,0,1", sphere, cap)
    assert t.f(np.array([0.0, 0.0, 1.0])) == 0.0
    sq = cfgmod.target_from_string("sqdist_to:0,0,1", sphere, cap)
    assert sq.lipschitz > 0.0

    box = gw.EuclideanBox(np.zeros(2), np.ones(2))
    lin = cfgmod.target_from_string("linear:1,-2", gw.Euclidean(2), box)
    assert math.isclose(lin.f(np.array([1.0, 1.0])), -1.0)
    with pytest.raises(gw.ConfigError):
        cfgmod.target_from_string("linear:1,-2", sphere, cap)
    with pytest.raises(gw.ConfigError):
        cfgmod.target_from_string("linear:1,2,3", gw.Euclidean(2), box)
    with pytest.raises(gw.ConfigError):
        cfgmod.target_from_string("entropy:1", sphere, cap)
