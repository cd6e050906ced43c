"""Run configuration: INI files, spec strings, and the config hash.

A run is described by plain strings (manifold ``sphere:2``, body
``cap:north:1.0472``, target ``distance_to:north``) so that configs are
diffable and the resolved form can be hashed into every output row.  All
parsing problems surface as :class:`ConfigError`.

:func:`validate_config` checks only the rules no library object owns: the
mode, ``seed >= 0``, the keys each mode requires, the fields it does not
read (each must keep its default, as ``_KEYS`` says), sample mode's
``steps`` and ``chains >= 1``, and the check names.  The object that reads
any other setting, a point included, checks it once and raises
:class:`PreconditionError`; the spec parsers below only parse points, and
rewrap a body's or target's error as :class:`ConfigError` with the spec.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .bodies import ConvexBody, EuclideanBox, GeodesicBall, SphericalCap
from .diagnostics import builtin_check_names
from .errors import ConfigError, GeoWalkError
from .manifolds import Euclidean, Manifold, SpecialOrthogonal, Sphere, from_descriptor
from .targets import Target, distance_to, linear, sqdist_to


@dataclass
class RunConfig:
    """Everything a CLI run needs, as parsed (strings stay strings)."""

    mode: str = "sample"
    seed: int = 0
    output_dir: str = "geowalk-out"
    manifold: str = ""
    body: str = ""
    start: str = ""
    steps: int = 10_000
    thin: int = 1
    burn_in: int = 0
    chains: int = 1
    delta: Optional[float] = None
    override_delta: bool = False
    target: str = ""
    temperature: float = 1.0
    epsilon: float = 0.1
    fail_prob: float = 0.1
    budget_constant: float = 1.0
    max_total_steps: int = 10**6
    trials: int = 1
    checks: tuple[str, ...] = ()


_ALL, _SPACE = ("sample", "anneal", "diagnose"), ("sample", "anneal")

# Every INI key: section, key, RunConfig field, the modes that read it, and
# the field that must be set for it to be read.  A field the run's mode
# does not read must keep its default: it would change the hash, not a result.
_KEYS = (
    ("run", "mode", "mode", _ALL, ""),
    ("run", "seed", "seed", _ALL, ""),
    ("run", "output_dir", "output_dir", _ALL, ""),
    ("space", "manifold", "manifold", _SPACE, ""),
    ("space", "body", "body", _SPACE, ""),
    ("space", "start", "start", ("sample",), ""),
    ("walk", "steps", "steps", ("sample",), ""),
    ("walk", "thin", "thin", ("sample",), ""),
    ("walk", "burn_in", "burn_in", ("sample",), ""),
    ("walk", "chains", "chains", ("sample",), ""),
    ("walk", "delta", "delta", _SPACE, ""),
    ("walk", "override_delta", "override_delta", _SPACE, "delta"),
    ("target", "kind", "target", _SPACE, ""),
    ("target", "temperature", "temperature", ("sample",), "target"),
    ("anneal", "epsilon", "epsilon", ("anneal",), ""),
    ("anneal", "fail_prob", "fail_prob", ("anneal",), ""),
    ("anneal", "budget_constant", "budget_constant", ("anneal",), ""),
    ("anneal", "max_total_steps", "max_total_steps", ("anneal",), ""),
    ("anneal", "trials", "trials", ("anneal",), ""),
    ("diagnose", "checks", "checks", ("diagnose",), ""),
)


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
    fields = {(section, key): field for section, key, field, *_ in _KEYS}
    sections = list(dict.fromkeys(section for section, _ in fields))
    values = {}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown section [{section}]; known: {', '.join(sections)}")
        for key, raw in parser.items(section):
            if (section, key) not in fields:
                known = ", ".join(k for s, k in fields if s == section)
                raise ConfigError(f"unknown key {key!r} in [{section}]; known: {known}")
            field = fields[section, key]
            values[field] = _coerce(section, key, raw, getattr(RunConfig, field))
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
    for section, key, field, modes, needs in _KEYS:
        if getattr(cfg, field) == getattr(RunConfig, field):
            continue
        if cfg.mode not in modes:
            raise ConfigError(f"mode {cfg.mode} does not read [{section}] {key}")
        if needs and getattr(cfg, needs) == getattr(RunConfig, needs):
            needed = next(f"[{s}] {k}" for s, k, f, *_ in _KEYS if f == needs)
            raise ConfigError(
                f"mode {cfg.mode} does not read [{section}] {key} unless {needed} is set"
            )
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


def body_from_string(text: str, manifold: Manifold) -> ConvexBody:
    """A body given as ``cap:<axis>:<angle>``, ``ball:<center>:<radius>``,
    or ``box:<lo>:<hi>`` (box only on matching Euclidean space)."""
    kind, _, rest = text.strip().partition(":")
    try:
        if kind == "cap":
            axis_spec, _, angle_text = rest.rpartition(":")
            if not axis_spec:
                raise ConfigError(f"cap needs axis and angle, got {text!r}")
            axis = parse_point_spec(axis_spec, manifold)
            return SphericalCap(manifold, axis, _parse_scalar(angle_text, "cap angle"))
        if kind == "ball":
            center_spec, _, radius_text = rest.rpartition(":")
            if not center_spec:
                raise ConfigError(f"ball needs center and radius, got {text!r}")
            center = parse_point_spec(center_spec, manifold)
            return GeodesicBall(manifold, center, _parse_scalar(radius_text, "radius"))
        if kind == "box":
            lo_text, _, hi_text = rest.partition(":")
            if not hi_text:
                raise ConfigError(f"box needs lo and hi lists, got {text!r}")
            lo = _parse_floats(lo_text)
            hi = _parse_floats(hi_text)
            if not isinstance(manifold, Euclidean) or manifold.n != lo.size:
                raise ConfigError(
                    f"box bodies require euclidean:{lo.size}, got {manifold.descriptor}"
                )
            return EuclideanBox(lo, hi)
    except ConfigError:
        raise
    except GeoWalkError as exc:
        raise ConfigError(f"invalid body {text!r}: {exc}") from None
    raise ConfigError(f"unknown body kind {kind!r}; known: cap, ball, box")


def _parse_scalar(text: str, label: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"bad {label} {text!r}") from None


def target_from_string(text: str, manifold: Manifold, body: ConvexBody) -> Target:
    """A target given as ``distance_to:<point>``, ``sqdist_to:<point>``,
    or ``linear:<coefficients>`` (linear only on a box)."""
    kind, _, rest = text.strip().partition(":")
    try:
        if kind == "distance_to":
            return distance_to(manifold, parse_point_spec(rest, manifold))
        if kind == "sqdist_to":
            point = parse_point_spec(rest, manifold)
            return sqdist_to(manifold, point, body.diameter)
        if kind == "linear":
            if not isinstance(body, EuclideanBox):
                raise ConfigError("linear targets require a box body")
            coefficients = _parse_floats(rest)
            if coefficients.size != body.manifold.n:
                raise ConfigError(
                    f"linear target {text!r} has {coefficients.size} coefficients "
                    f"for a box in {body.manifold.descriptor}"
                )
            return linear(coefficients)
    except ConfigError:
        raise
    except GeoWalkError as exc:
        raise ConfigError(f"invalid target {text!r}: {exc}") from None
    raise ConfigError(
        f"unknown target kind {kind!r}; known: distance_to, sqdist_to, linear"
    )
