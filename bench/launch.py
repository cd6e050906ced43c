"""Child process of the benchmark: one ``geowalk`` CLI run, or the anneal
width sweep.

``launch.py --stamp S [--trace T] -- run --config X`` calls
``geowalk.cli.main`` with the arguments after ``--``, exactly what the
``geowalk`` console script does, and then writes to ``S`` the
``time.monotonic_ns()`` at which the run reached its first walk step: entry
to the first ``run_chain`` (sample mode) or ``run_builtin_check`` (diagnose
mode), or, in anneal mode, the return of the first ``f_many`` call inside
``anneal_trials``, which scores the drawn start points just before the first
lockstep step.  With ``--trace`` every layer's public functions record
spans, written to ``T`` at the end.

``launch.py --sweep X --out O`` times ``anneal_trials`` on the anneal
geometry of config ``X`` at widths m = 1, 4, 16, 64, with tracing off, and
writes the per-lockstep-step times and the fit ``c0 + c1·m`` to ``O``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import geowalk.cli

SWEEP_WIDTHS = (1, 4, 16, 64)
SWEEP_STEPS = 2000
SWEEP_REPEATS = 3


def _mark_first(fn, marks: list, on_return: bool):
    def marked(*args, **kwargs):
        if not on_return and not marks:
            marks.append(time.monotonic_ns())
        result = fn(*args, **kwargs)
        if on_return and not marks:
            marks.append(time.monotonic_ns())
        return result

    return marked


def run_cli(stamp: Path, trace: Path | None, argv: list[str]) -> int:
    tracer = None
    if trace is not None:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    marks: list[int] = []
    cli = geowalk.cli
    cli.run_chain = _mark_first(cli.run_chain, marks, on_return=False)
    cli.run_builtin_check = _mark_first(cli.run_builtin_check, marks, on_return=False)
    trials = cli.anneal_trials

    def marked_trials(body, f_many, *args, **kwargs):
        return trials(body, _mark_first(f_many, marks, on_return=True), *args, **kwargs)

    cli.anneal_trials = marked_trials
    code = cli.main(argv)
    if tracer is not None:
        tracer.dump(trace)
    stamp.write_text(json.dumps({"first_step_ns": marks[0] if marks else None, "exit": code}))
    return code


def run_sweep(ini: str, out: Path) -> int:
    from geowalk.anneal import AnnealConfig, anneal_trials
    from geowalk.config import body_from_string, load_config, manifold_from_string, target_from_string

    import statistics

    import numpy as np

    cfg = load_config(ini)
    man = manifold_from_string(cfg.manifold)
    body = body_from_string(cfg.body, man)
    target = target_from_string(cfg.target, man, body)
    config = AnnealConfig(
        epsilon=cfg.epsilon,
        fail_prob=cfg.fail_prob,
        lipschitz=target.lipschitz,
        budget_constant=cfg.budget_constant,
        max_total_steps=SWEEP_STEPS,
    )
    per_step_us = []
    for width in SWEEP_WIDTHS:
        times = []
        for _ in range(SWEEP_REPEATS):
            start = time.perf_counter()
            result = anneal_trials(body, target.f_many, config, cfg.seed, width)
            times.append((time.perf_counter() - start) / sum(result.allocations) * 1e6)
        per_step_us.append(statistics.median(times))
    c1, c0 = np.polyfit(np.array(SWEEP_WIDTHS, dtype=float), np.array(per_step_us), 1)
    out.write_text(
        json.dumps(
            {
                "widths": list(SWEEP_WIDTHS),
                "us_per_lockstep_step": per_step_us,
                "c0_us": float(c0),
                "c1_us": float(c1),
            }
        )
    )
    return 0


def main() -> int:
    argv = sys.argv[1:]
    cli_args: list[str] = []
    if "--" in argv:
        split = argv.index("--")
        argv, cli_args = argv[:split], argv[split + 1 :]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stamp", type=Path)
    parser.add_argument("--trace", type=Path)
    parser.add_argument("--sweep")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.sweep:
        return run_sweep(args.sweep, args.out)
    return run_cli(args.stamp, args.trace, cli_args)


if __name__ == "__main__":
    sys.exit(main())
