"""Run configuration: INI files, spec strings, and the config hash.

A run is described by plain strings (manifold ``sphere:2``, body
``cap:north:1.0472``, target ``distance_to:north``) so that configs are
diffable and the resolved form can be hashed into every output row.  All
parsing problems surface as :class:`ConfigError`.

:func:`validate_config` checks only the rules no library object owns: the
mode, ``seed >= 0``, the keys each mode requires, the fields it does not
read (each must keep its default; every ``RunConfig`` field declares its
key and the modes that read it), sample mode's ``steps`` and ``chains >=
1``, and the check names.  The object that reads any other setting, a
point included, checks it once and raises :class:`PreconditionError`; the
spec parsers below only parse points, and rewrap a body's or target's
error as :class:`ConfigError` with the spec.
"""

from __future__ import annotations

import configparser
import hashlib
import inspect
import json
from dataclasses import Field, asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from .anneal import AnnealConfig
from .bodies import ConvexBody, EuclideanBox, GeodesicBall, SphericalCap
from .diagnostics import builtin_check_names
from .errors import ConfigError, GeoWalkError
from .manifolds import Euclidean, Manifold, SpecialOrthogonal, Sphere, from_descriptor
from .targets import Target, distance_to, linear, sqdist_to
from .walk import WalkParams, run_chain


_ALL, _SPACE = ("sample", "anneal", "diagnose"), ("sample", "anneal")
_CHAIN = inspect.signature(run_chain).parameters  # the owner of the thin and burn_in defaults


def _setting(section: str, modes: tuple[str, ...], default, key: str = "", needs: str = ""):
    """A ``RunConfig`` field read from ``[section] key`` (``key`` defaults to
    the field's name) by the runs of ``modes``, and only when the field
    ``needs`` is set.  A field the run's mode does not read must keep its
    default: it would change the hash, not a result."""
    return field(default=default, metadata={"section": section, "key": key, "modes": modes, "needs": needs})


@dataclass
class RunConfig:
    """Everything a CLI run needs, as parsed (strings stay strings)."""

    mode: str = _setting("run", _ALL, "sample")
    seed: int = _setting("run", _ALL, 0)
    output_dir: str = _setting("run", _ALL, "geowalk-out")
    manifold: str = _setting("space", _SPACE, "")
    body: str = _setting("space", _SPACE, "")
    start: str = _setting("space", ("sample",), "")
    steps: int = _setting("walk", ("sample",), 10_000)
    thin: int = _setting("walk", ("sample",), _CHAIN["thin"].default)
    burn_in: int = _setting("walk", ("sample",), _CHAIN["burn_in"].default)
    chains: int = _setting("walk", ("sample",), 1)
    delta: Optional[float] = _setting("walk", _SPACE, WalkParams.delta)
    override_delta: bool = _setting("walk", _SPACE, WalkParams.override_delta, needs="delta")
    target: str = _setting("target", _SPACE, "", key="kind")
    temperature: float = _setting("target", ("sample",), 1.0, needs="target")
    epsilon: float = _setting("anneal", ("anneal",), 0.1)
    fail_prob: float = _setting("anneal", ("anneal",), 0.1)
    budget_constant: float = _setting("anneal", ("anneal",), AnnealConfig.budget_constant)
    max_total_steps: int = _setting("anneal", ("anneal",), AnnealConfig.max_total_steps)
    trials: int = _setting("anneal", ("anneal",), 1)
    checks: tuple[str, ...] = _setting("diagnose", ("diagnose",), ())


def _ini_key(setting: Field) -> tuple[str, str]:
    return setting.metadata["section"], setting.metadata["key"] or setting.name


def load_config(path: str) -> RunConfig:
    """Parse an INI file into a :class:`RunConfig`, strictly.

    Unknown sections or keys are errors; catching typos beats silently
    running with defaults.
    """
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path!r}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    settings = {_ini_key(setting): setting for setting in fields(RunConfig)}
    sections = list(dict.fromkeys(section for section, _ in settings))
    values = {}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown section [{section}]; known: {', '.join(sections)}")
        for key, raw in parser.items(section):
            if (section, key) not in settings:
                known = ", ".join(k for s, k in settings if s == section)
                raise ConfigError(f"unknown key {key!r} in [{section}]; known: {known}")
            setting = settings[section, key]
            values[setting.name] = _coerce(section, key, raw, setting.default)
    cfg = RunConfig(**values)
    validate_config(cfg)
    return cfg


def _coerce(section: str, key: str, raw: str, default):
    """``raw`` read as the type of ``default``, its key's ``RunConfig``
    default: ``None`` is ``delta``'s, a float or ``auto``/empty."""
    raw = raw.strip()
    try:
        if isinstance(default, bool):
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        if isinstance(default, (int, float)):
            return type(default)(raw)
        if default is None:
            return None if raw in ("", "auto") else float(raw)
        if isinstance(default, tuple):
            return tuple(c.strip() for c in raw.split(",") if c.strip())
    except (KeyError, ValueError):
        raise ConfigError(f"bad value {raw!r} for {key} in [{section}]") from None
    return raw


def validate_config(cfg: RunConfig) -> None:
    if cfg.mode not in _ALL:
        raise ConfigError(f"mode must be sample, anneal, or diagnose, got {cfg.mode!r}")
    if cfg.seed < 0:
        raise ConfigError("seed must be non-negative")
    settings = {setting.name: setting for setting in fields(RunConfig)}
    for name, setting in settings.items():
        if getattr(cfg, name) == setting.default:
            continue
        where = "[%s] %s" % _ini_key(setting)
        if cfg.mode not in setting.metadata["modes"]:
            raise ConfigError(f"mode {cfg.mode} does not read {where}")
        needs = setting.metadata["needs"]
        if needs and getattr(cfg, needs) == settings[needs].default:
            needed = "[%s] %s" % _ini_key(settings[needs])
            raise ConfigError(f"mode {cfg.mode} does not read {where} unless {needed} is set")
    if cfg.mode in _SPACE:
        if not cfg.manifold:
            raise ConfigError(f"mode {cfg.mode} requires [space] manifold")
        if not cfg.body:
            raise ConfigError(f"mode {cfg.mode} requires [space] body")
    if cfg.mode == "sample" and (cfg.steps < 1 or cfg.chains < 1):
        raise ConfigError("sample mode needs steps, chains >= 1")
    if cfg.mode == "anneal" and not cfg.target:
        raise ConfigError("anneal mode requires [target] kind")
    if cfg.mode == "diagnose":
        known = builtin_check_names()
        unknown = [name for name in cfg.checks if name not in known]
        if unknown:
            raise ConfigError(
                f"unknown checks: {', '.join(unknown)}; known: {', '.join(known)}"
            )


def config_hash(cfg: RunConfig) -> str:
    """Short hash of the fields that determine a run's results, written into
    every output row; the output directory is left out, so the same run
    gives the same bytes wherever it is written."""
    hashed = asdict(cfg)
    del hashed["output_dir"]
    payload = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Spec strings -> objects.


def _parse_floats(text: str) -> np.ndarray:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated floats, got {text!r}") from None
    if not values:
        raise ConfigError(f"expected comma-separated floats, got {text!r}")
    return np.array(values, dtype=float)


def parse_point_spec(text: str, manifold: Manifold) -> np.ndarray:
    """A point given as ``north``, ``identity``, or comma-separated floats."""
    spec = text.strip()
    if spec == "north":
        if not isinstance(manifold, Sphere):
            raise ConfigError("'north' is only defined on spheres")
        coords = np.zeros(manifold.ambient_dim)
        coords[-1] = 1.0
        return coords
    if spec == "identity":
        if not isinstance(manifold, SpecialOrthogonal):
            raise ConfigError("'identity' is only defined on rotation groups")
        return np.eye(manifold.n).ravel()
    return _parse_floats(spec)


def manifold_from_string(text: str) -> Manifold:
    try:
        return from_descriptor(text.strip())
    except GeoWalkError as exc:
        raise ConfigError(str(exc)) from None


def _pair(rest: str) -> tuple[str, str]:
    first, _, second = rest.partition(":")
    if not (first and second):
        raise ConfigError(f"expected two ':'-separated parts, got {rest!r}")
    return first, second


def _anchored(body: type):
    """The builder of ``body(manifold, point, value)`` from ``<point>:<value>``."""

    def build(rest: str, manifold: Manifold) -> ConvexBody:
        point, value = _pair(rest)
        return body(manifold, parse_point_spec(point, manifold), float(value))

    return build


def _box(rest: str, manifold: Manifold) -> ConvexBody:
    lo, hi = map(_parse_floats, _pair(rest))
    if not isinstance(manifold, Euclidean) or manifold.n != lo.size:
        raise ConfigError(f"box bodies require euclidean:{lo.size}, got {manifold.descriptor}")
    return EuclideanBox(lo, hi)


def _linear(rest: str, manifold: Manifold, body: ConvexBody) -> Target:
    if not isinstance(body, EuclideanBox):
        raise ConfigError("linear targets require a box body")
    coefficients = _parse_floats(rest)
    if coefficients.size != body.manifold.n:
        raise ConfigError(
            f"{coefficients.size} coefficients for a box in {body.manifold.descriptor}"
        )
    return linear(coefficients)


# Each spec kind: its syntax after ``kind:``, what ``list-builtins`` says of
# it, and the builder that reads the rest of the spec.  A builder's error, a
# bad float included, is rewrapped with the spec.
_BODIES = {
    "cap": ("<axis>:<angle>", "spherical cap, angle in (0, pi/2)", _anchored(SphericalCap)),
    "ball": ("<center>:<radius>", "geodesic ball", _anchored(GeodesicBall)),
    "box": ("<lo>:<hi>", "axis-aligned box (euclidean only)", _box),
}
_TARGETS = {
    "distance_to": (
        "<point>",
        "geodesic distance to a point",
        lambda rest, man, body: distance_to(man, parse_point_spec(rest, man)),
    ),
    "sqdist_to": (
        "<point>",
        "half squared geodesic distance",
        lambda rest, man, body: sqdist_to(man, parse_point_spec(rest, man), body.diameter),
    ),
    "linear": ("<coefficients>", "inner product with a vector (box only)", _linear),
}


def _from_spec(family: str, kinds: dict, text: str, *context):
    kind, _, rest = text.strip().partition(":")
    if kind not in kinds:
        raise ConfigError(f"unknown {family} kind {kind!r}; known: {', '.join(kinds)}")
    try:
        return kinds[kind][2](rest, *context)
    except (GeoWalkError, ValueError) as exc:
        raise ConfigError(f"invalid {family} {text!r}: {exc}") from None


def body_from_string(text: str, manifold: Manifold) -> ConvexBody:
    """A body given as ``<kind>:<rest>``, with a kind and syntax of ``_BODIES``."""
    return _from_spec("body", _BODIES, text, manifold)


def target_from_string(text: str, manifold: Manifold, body: ConvexBody) -> Target:
    """A target given as ``<kind>:<rest>``, with a kind and syntax of ``_TARGETS``."""
    return _from_spec("target", _TARGETS, text, manifold, body)
