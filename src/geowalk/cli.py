"""Command-line front end.

Two subcommands: ``run`` executes a configured sampling, annealing, or
diagnostic run and writes its outputs under the configured directory;
``list-builtins`` prints the recognized manifolds, bodies, targets, and
checks.  Output files carry a short hash of the result-determining
configuration in every row (not the output directory) and contain nothing
run-dependent beyond the seed, so a rerun with the same config and seed is
byte-identical, wherever it is written.

Exit codes: 0 on success, 1 when a diagnostic fails or the run itself
errors, 2 for every bad setting, with ``config error:`` on stderr: a
:class:`ConfigError` of the INI layer, which owns only the rules no library
object owns, or the :class:`PreconditionError` of the object that reads
the setting.  Each mode makes its first library call before it creates the
output directory, so a bad setting writes nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import fields, replace
from itertools import repeat
from pathlib import Path
from typing import Optional

from .anneal import AnnealConfig, anneal_trials
from .config import (
    _ALL,
    _BODIES,
    _TARGETS,
    RunConfig,
    _ini_key,
    body_from_string,
    config_hash,
    load_config,
    manifold_from_string,
    parse_point_spec,
    target_from_string,
    validate_config,
)
from .diagnostics import builtin_check_names, run_builtin_check
from .errors import ConfigError, GeoWalkError, PreconditionError, StepSizeWarning
from .walk import _SLICE, GibbsTarget, WalkParams, run_chain

__all__ = ["main", "build_parser"]

# The settings that change between runs of one config, each a ``run`` flag.
_OVERRIDES = ("seed", "output_dir", "trials")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geowalk",
        description="Geodesic walk sampling, annealing, and diagnostics "
        "on constant-curvature spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser(
        "run",
        help="execute a run described by an INI config",
        description="Execute a run described by an INI config.  Every setting "
        "lives in the config; the three overrides below are the values that "
        "change between runs of one config.",
    )
    run_parser.add_argument("--config", required=True, help="path to the INI file")
    for setting in fields(RunConfig):
        if setting.name in _OVERRIDES:
            modes = setting.metadata["modes"]
            only = "" if modes == _ALL else f" ({', '.join(modes)} mode only)"
            run_parser.add_argument(
                "--" + setting.name.replace("_", "-"),
                type=type(setting.default),
                help="override [%s] %s" % _ini_key(setting) + only,
            )

    sub.add_parser(
        "list-builtins",
        help="list built-in manifolds, bodies, targets, and diagnostic checks",
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list-builtins":
            return _list_builtins()
        return _run(args)
    except (ConfigError, PreconditionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GeoWalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _list_builtins() -> int:
    print("manifolds:")
    print("  euclidean:<n>   flat n-dimensional space")
    print("  sphere:<n>      unit n-sphere in R^(n+1)")
    print("  so:<n>          rotation group SO(n), points are flat n*n matrices")
    for family, kinds in (("bodies", _BODIES), ("targets", _TARGETS)):
        print(f"{family}:")
        for kind, (syntax, about, _) in kinds.items():
            print(f"  {kind + ':' + syntax:<24}{about}")
    print("checks:")
    for name in builtin_check_names():
        print(f"  {name}")
    return 0


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    updates = {name: getattr(args, name) for name in _OVERRIDES if getattr(args, name) is not None}
    if updates:
        cfg = replace(cfg, **updates)
        validate_config(cfg)
    return cfg


def _run(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    out = Path(cfg.output_dir)
    tag = config_hash(cfg)
    if cfg.mode == "sample":
        return _run_sample(cfg, out, tag)
    if cfg.mode == "anneal":
        return _run_anneal(cfg, out, tag)
    return _run_diagnose(cfg, out, tag)


def _build_space(cfg: RunConfig):
    man = manifold_from_string(cfg.manifold)
    return man, body_from_string(cfg.body, man)


def _run_sample(cfg: RunConfig, out: Path, tag: str) -> int:
    man, body = _build_space(cfg)
    start = parse_point_spec(cfg.start, man) if cfg.start else None
    target = target_from_string(cfg.target, man, body) if cfg.target else None
    params = WalkParams(
        delta=cfg.delta,
        max_steps=cfg.steps,
        seed=cfg.seed,
        override_delta=cfg.override_delta,
    )
    gibbs = GibbsTarget(target.f, cfg.temperature) if target is not None else None
    results = (
        run_chain(
            start,
            body,
            params,
            target=gibbs,
            thin=cfg.thin,
            burn_in=cfg.burn_in,
            chain_id=chain,
        )
        for chain in range(cfg.chains)
    )
    result = next(results)  # run_chain checks the settings before anything is written
    path = out / "samples.jsonl"
    emitted = 0
    out.mkdir(parents=True, exist_ok=True)
    with path.open("w") as sink:
        for chain in range(cfg.chains):
            # The columns become Python lists one slice of rows at a time.
            for lo in range(0, len(result.steps), _SLICE):
                part = slice(lo, lo + _SLICE)
                columns = zip(
                    result.steps[part].tolist(),
                    result.coords[part].tolist(),
                    result.rejected[part].tolist(),
                    repeat(None) if result.f_values is None else result.f_values[part].tolist(),
                )
                for step, coords, rejected, f_value in columns:
                    row = {
                        "chain": chain,
                        "step": step,
                        "coords": coords,
                        "rejected": rejected,
                        "config": tag,
                    }
                    if f_value is not None:
                        row["f_value"] = f_value
                    sink.write(json.dumps(row, sort_keys=True) + "\n")
            emitted += len(result.steps)
            print(
                f"chain {chain}: {result.stats.steps} steps, "
                f"rejection fraction {result.stats.rejection_fraction:.4f}"
            )
            del result  # before the next chain allocates its own columns
            with warnings.catch_warnings():
                # Every chain checks the same step against the same bound,
                # and the first chain has warned: warn once per run.
                warnings.simplefilter("ignore", StepSizeWarning)
                result = next(results, None)
    print(f"wrote {emitted} samples to {path}")
    return 0


def _run_anneal(cfg: RunConfig, out: Path, tag: str) -> int:
    man, body = _build_space(cfg)
    target = target_from_string(cfg.target, man, body)
    anneal_config = AnnealConfig(
        epsilon=cfg.epsilon,
        fail_prob=cfg.fail_prob,
        lipschitz=target.lipschitz,
        budget_constant=cfg.budget_constant,
        max_total_steps=cfg.max_total_steps,
        delta=cfg.delta,
        override_delta=cfg.override_delta,
    )
    result = anneal_trials(body, target.f_many, anneal_config, cfg.seed, cfg.trials, f=target.f)

    trace_path = out / "trace.csv"
    out.mkdir(parents=True, exist_ok=True)
    with trace_path.open("w") as sink:
        sink.write("trial,phase,temperature,steps,rejections,best_f,final_f,config\n")
        phases = list(enumerate(zip(result.schedule.temps, result.allocations)))
        for trial, trace in enumerate(result.traces):
            for (phase, (temperature, steps)), rec in zip(phases, trace):
                sink.write(
                    f"{trial},{phase},{temperature!r},{steps},"
                    f"{rec.rejections},{rec.best_f!r},{rec.final_f!r},{tag}\n"
                )
    minimizer_path = out / "minimizers.jsonl"
    with minimizer_path.open("w") as sink:
        for trial in range(cfg.trials):
            row = {
                "trial": trial,
                "value": float(result.values[trial]),
                "minimizer": [float(v) for v in result.minimizers[trial]],
                "config": tag,
            }
            sink.write(json.dumps(row, sort_keys=True) + "\n")
    hits = int((result.values <= cfg.epsilon).sum())
    print(
        f"{cfg.trials} trials over {len(result.schedule.temps)} phases, "
        f"best value {float(result.values.min())!r}, {hits} within epsilon"
    )
    print(f"wrote {trace_path} and {minimizer_path}")
    return 0


def _run_diagnose(cfg: RunConfig, out: Path, tag: str) -> int:
    names = list(cfg.checks) if cfg.checks else builtin_check_names()
    reports = []
    for name in names:
        reports.extend(run_builtin_check(name, cfg.seed))
    path = out / "reports.jsonl"
    out.mkdir(parents=True, exist_ok=True)
    with path.open("w") as sink:
        for report in reports:
            row = report.as_dict()
            row["config"] = tag
            sink.write(json.dumps(row, sort_keys=True) + "\n")
    failures = 0
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        failures += not report.passed
        print(
            f"{status} {report.name}: lhs={report.lhs:.6g} rhs={report.rhs:.6g} "
            f"margin={report.margin:.6g} stderr={report.mc_stderr:.3g}"
        )
    print(f"wrote {len(reports)} reports to {path}")
    return 1 if failures else 0
