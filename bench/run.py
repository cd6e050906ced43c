#!/usr/bin/env python3
"""End-to-end benchmark of the geowalk CLI, one workload per call.

    python3 bench/run.py --workload sample-cap --seed 0 --seconds 15 --trace 0

Writes the workload's INI file from ``--seed`` (the program sees only that
file), then runs ``geowalk run`` in a fresh process, one process after
another, while one more process of the median length so far still ends
within ``--seconds`` (at least ``MIN_ROUNDS`` runs).
Every run uses the same seed and output path: the first run's outputs are
checked against computations made here (``checks.py``), and every later
run's output digests must equal the first's.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (process start to
the first walk step), ``wall_s`` (the whole process, outputs closed) and
``peak_rss_mib`` (the process's peak resident memory), each the median over
the runs.  The two times are given at the reference host speed: each
process's seconds are scaled by ``REF_NOMINAL_S`` over the time a fixed
reference loop (:func:`reference_s`) took on the same CPU just before and
just after the process, which cancels the shared host's slow and fast
phases; the raw seconds are kept in ``result.json``.  ``--trace 1``
alternates untraced and traced runs and reports the per-layer metrics of
``tracing.py`` plus the tracing overhead, in raw seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation is
one chain, one annealing trial or one diagnostic report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import numpy as np  # noqa: E402
import tracing  # noqa: E402

OUT = ROOT / "bench-out"
TRACE_OUT = ROOT / "bench-trace"
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 90.0
REF_STEPS = 300
REF_REPEATS = 5
# Seconds of reference loops timed on each side of a process.  One loop
# varies by tens of percent from one 30 ms stretch to the next, so many
# are needed to pin the host's speed down.
REF_BUDGET_S = 0.15
# Typical reference_s() on the machine stamped in README.md; it only sets
# the scale at which wall_s and setup_s read as seconds.
REF_NOMINAL_S = 0.0055
ALLOWED_CPUS = os.sched_getaffinity(0)


@dataclass(frozen=True)
class Workload:
    params: dict
    ini: Callable[[dict, int, Path], str]
    outputs: tuple[str, ...]
    ops: Callable[[dict], int]
    check: Callable[[Path, dict, int], list[bool]]
    width_sweep: bool = False


def _sample_ini(section_space: str, section_walk: str, target: str = "") -> Callable:
    def build(p: dict, seed: int, out: Path) -> str:
        text = (
            f"[run]\nmode = sample\nseed = {seed}\noutput_dir = {out}\n\n"
            f"[space]\n{section_space.format(**p)}\n\n"
            f"[walk]\n{section_walk.format(**p)}\n"
        )
        if target:
            text += f"\n[target]\n{target.format(**p)}\n"
        return text

    return build


def _anneal_ini(p: dict, seed: int, out: Path) -> str:
    axis = ",".join(str(v) for v in p["axis"])
    return (
        f"[run]\nmode = anneal\nseed = {seed}\noutput_dir = {out}\n\n"
        f"[space]\nmanifold = sphere:{p['n']}\nbody = cap:{axis}:{p['angle']!r}\n\n"
        f"[target]\nkind = distance_to:{axis}\n\n"
        f"[anneal]\nepsilon = {p['epsilon']!r}\nfail_prob = {p['fail_prob']!r}\n"
        f"budget_constant = 1.0\nmax_total_steps = {p['max_total_steps']}\n"
        f"trials = {p['trials']}\n"
    )


def _diagnose_ini(p: dict, seed: int, out: Path) -> str:
    return f"[run]\nmode = diagnose\nseed = {seed}\noutput_dir = {out}\n\n[diagnose]\nchecks =\n"


def _checked(fn: Callable[[Path, dict], list[bool]]) -> Callable[[Path, dict, int], list[bool]]:
    """A sample or anneal check: the process must have exited 0."""

    def check(out: Path, p: dict, code: int) -> list[bool]:
        return fn(out, p) if code == 0 else []

    return check


# Why each workload is here: BENCHMARK.json and README.md.
_WALK = "steps = {steps}\nthin = {thin}\nburn_in = {burn_in}\nchains = {chains}\ndelta = auto"

WORKLOADS = {
    "sample-cap": Workload(
        params={"n": 2, "axis": [0.0, 0.0, 1.0], "angle": 1.0471975511965976,
                "chains": 4, "steps": 20000, "burn_in": 2000, "thin": 10},
        ini=_sample_ini("manifold = sphere:{n}\nbody = cap:0,0,1:{angle!r}\nstart = north", _WALK),
        outputs=("samples.jsonl",),
        ops=lambda p: p["chains"],
        check=_checked(lambda out, p: checks.check_sample_cap(checks.read_jsonl(out / "samples.jsonl"), p)),
    ),
    "gibbs-so3": Workload(
        params={"radius": 1.2, "temperature": 0.15, "delta": 0.1,
                "chains": 2, "steps": 6000, "burn_in": 600, "thin": 3},
        # The safe step bound (0.029) mixes so slowly that 10^4 steps hold
        # only ~30 independent draws; delta = 0.1 leaves the stationary law
        # unchanged and lets the mean check resolve a doubled temperature.
        ini=_sample_ini(
            "manifold = so:3\nbody = ball:identity:{radius!r}\nstart = identity",
            _WALK.replace("delta = auto", "delta = {delta!r}\noverride_delta = true"),
            "kind = distance_to:identity\ntemperature = {temperature!r}",
        ),
        outputs=("samples.jsonl",),
        ops=lambda p: p["chains"],
        check=_checked(lambda out, p: checks.check_gibbs_so3(checks.read_jsonl(out / "samples.jsonl"), p)),
    ),
    "anneal-sphere5": Workload(
        params={"n": 5, "axis": [0.0, 0.0, 0.0, 0.0, 0.0, 1.0], "angle": 1.3089969389957472,
                "epsilon": 0.1, "fail_prob": 0.1, "max_total_steps": 20000, "trials": 16},
        ini=_anneal_ini,
        outputs=("trace.csv", "minimizers.jsonl"),
        ops=lambda p: p["trials"],
        check=_checked(
            lambda out, p: checks.check_anneal(
                checks.read_jsonl(out / "minimizers.jsonl"), checks.read_trace_csv(out / "trace.csv"), p
            )
        ),
        width_sweep=True,
    ),
    "diagnose-all": Workload(
        params={},
        ini=_diagnose_ini,
        outputs=("reports.jsonl",),
        ops=lambda p: len(checks.DIAGNOSE_REPORTS),
        check=lambda out, p, code: checks.check_diagnose(checks.read_jsonl(out / "reports.jsonl"), code),
    ),
}


# ---------------------------------------------------------------------------
# One process.


@dataclass
class Round:
    code: int
    wall_s: float
    setup_s: float | None
    peak_rss_mib: float
    digests: tuple[str, ...]
    ref_s: float

    @property
    def scale(self) -> float:
        """Factor from this process's seconds to seconds at the reference speed."""
        return REF_NOMINAL_S / self.ref_s


_REF_RNG = np.random.default_rng(0)
_REF_POINTS = _REF_RNG.standard_normal((16, 6))
_REF_MOVES = _REF_RNG.standard_normal((16, 6))


def _reference_once() -> float:
    """Seconds for a fixed mix of small-array numpy calls, scalar float
    arithmetic and dict access, the kinds of work a geowalk step does."""
    points, total = _REF_POINTS.copy(), 0.0
    start = time.perf_counter()
    for j in range(REF_STEPS):
        norms = np.linalg.norm(_REF_MOVES, axis=1)
        moved = np.cos(norms)[:, None] * points + np.sin(norms)[:, None] * _REF_MOVES
        points = np.where((moved[:, 0] > 0)[:, None], moved, points)
        total += math.sqrt(abs(float(points[0, 0]))) + j * 0.5
        box = {"total": total, "step": j}
        total += box["total"] * 1e-9
    return time.perf_counter() - start


def reference_s(budget_s: float = 0.0) -> float:
    """Median time of the reference loop on the current CPU right now, over
    ``REF_REPEATS`` loops or ``budget_s`` seconds of them, whichever is more.

    It does not touch geowalk, so a change to the program cannot move it;
    it moves only with the host's speed."""
    times = []
    end = time.perf_counter() + budget_s
    while len(times) < REF_REPEATS or time.perf_counter() < end:
        times.append(_reference_once())
    return statistics.median(times)


def quietest_cpu() -> int:
    """The allowed CPU on which :func:`reference_s` runs fastest right now.

    On a shared host a core's speed swings with its neighbours' load; each
    measured process is pinned to the core that is currently the faster."""
    speeds = {}
    for cpu in ALLOWED_CPUS:
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = reference_s()
    os.sched_setaffinity(0, ALLOWED_CPUS)
    return min(speeds, key=speeds.get)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _digest(path: Path) -> str:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return "missing"


def run_round(wl: Workload, work: Path, trace: Path | None = None) -> Round:
    """One ``geowalk run`` process, timed from just before it is spawned to
    the moment it has been reaped; memory from its own rusage; the
    reference loop timed on its CPU before and after it."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    stamp = work / "stamp.json"
    stamp.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "launch.py"), "--stamp", str(stamp)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    cmd += ["--", "run", "--config", str(work / "run.ini")]
    os.sched_setaffinity(0, {quietest_cpu()})
    try:
        ref_before = reference_s(REF_BUDGET_S)
        with open(work / "run.log", "w") as log:
            start = time.monotonic_ns()
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
            guard = threading.Timer(ROUND_TIMEOUT_S, proc.kill)
            guard.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                guard.cancel()
            end = time.monotonic_ns()
        ref_after = reference_s(REF_BUDGET_S)
    finally:
        os.sched_setaffinity(0, ALLOWED_CPUS)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    setup_s = None
    try:
        first = json.loads(stamp.read_text())["first_step_ns"]
        setup_s = (first - start) * 1e-9 if first is not None else None
    except (OSError, ValueError, KeyError):
        pass
    return Round(
        code,
        (end - start) * 1e-9,
        setup_s,
        usage.ru_maxrss / 1024.0,
        tuple(_digest(out / name) for name in wl.outputs),
        (ref_before + ref_after) / 2,
    )


class Ledger:
    """Attempted and failed operations over all rounds of one run.

    The first round's outputs are checked; a later round passes exactly the
    checks the first passed when its output digests equal the first's, and
    fails every operation otherwise."""

    def __init__(self, wl: Workload, work: Path):
        self.wl, self.work = wl, work
        self.ops = wl.ops(wl.params)
        self.first: Round | None = None
        self.verdicts: list[bool] = []
        self.attempted = 0
        self.failed = 0

    def add(self, rnd: Round) -> None:
        self.attempted += self.ops
        if self.first is None:
            self.first = rnd
            try:
                verdicts = self.wl.check(self.work / "out", self.wl.params, rnd.code)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                print(f"output check raised {type(exc).__name__}: {exc}", file=sys.stderr)
                verdicts = []
            if len(verdicts) != self.ops or rnd.setup_s is None:
                verdicts = [False] * self.ops
            self.verdicts = verdicts
            self.failed += verdicts.count(False)
        elif rnd.code == self.first.code and rnd.digests == self.first.digests and rnd.setup_s is not None:
            self.failed += self.verdicts.count(False)
        else:
            print("output differs from the first run with the same seed", file=sys.stderr)
            self.failed += self.ops


# ---------------------------------------------------------------------------
# Whole runs.


def stamp_info() -> dict:
    """Git SHA, numpy, OpenBLAS and core count this result was measured with."""
    sha = "unknown"
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        got = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, check=False
        )
        sha = got.stdout.strip() or sha
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "git_sha": sha,
        "numpy": np.__version__,
        "openblas": openblas,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def room_for_another(start: float, seconds: float, walls: list[float]) -> bool:
    """Whether one more process, as long as the median so far, ends within
    ``seconds`` of ``start``: a run then measures whole processes only and
    does not overrun its time."""
    return time.monotonic() - start + statistics.median(walls) <= seconds


def measure(wl: Workload, work: Path, seconds: float) -> tuple[Ledger, dict, list]:
    ledger = Ledger(wl, work)
    rounds: list[Round] = []
    start = time.monotonic()
    while len(rounds) < MIN_ROUNDS or room_for_another(start, seconds, [r.wall_s for r in rounds]):
        rnd = run_round(wl, work)
        ledger.add(rnd)
        rounds.append(rnd)
    setups = [r.setup_s * r.scale for r in rounds if r.setup_s is not None] or [0.0]
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(statistics.median(r.wall_s * r.scale for r in rounds), "s"),
        "peak_rss_mib": _metric(statistics.median(r.peak_rss_mib for r in rounds), "MiB"),
    }
    metrics_rounds = [[r.wall_s, r.setup_s, r.peak_rss_mib, r.ref_s] for r in rounds]
    return ledger, metrics, metrics_rounds


def measure_traced(wl: Workload, work: Path, seconds: float) -> tuple[Ledger, dict, list]:
    ledger = Ledger(wl, work)
    trace_dir = TRACE_OUT / work.name
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    spans = trace_dir / "spans.npz"
    plain_walls, traced_walls, layers = [], [], []
    start = time.monotonic()
    while not traced_walls or room_for_another(start, seconds, [p + t for p, t in zip(plain_walls, traced_walls)]):
        plain = run_round(wl, work)
        ledger.add(plain)
        plain_walls.append(plain.wall_s)
        spans.unlink(missing_ok=True)
        traced = run_round(wl, work, trace=spans)
        ledger.add(traced)
        traced_walls.append(traced.wall_s)
        if spans.exists():
            layers.append(tracing.layer_metrics(spans))
    values = dict.fromkeys(tracing.METRICS, 0.0)
    if layers:
        values.update({name: statistics.median(layer[name] for layer in layers) for name in layers[0]})
    # Each traced process follows an untraced one, so a pair sees nearly the
    # same host speed; the median of the pairwise differences is the overhead.
    values["trace.overhead_s"] = statistics.median(t - p for p, t in zip(plain_walls, traced_walls))
    if wl.width_sweep:
        fit = trace_dir / "sweep.json"
        subprocess.run(
            [sys.executable, str(HERE / "launch.py"), "--sweep", str(work / "run.ini"), "--out", str(fit)],
            env=child_env(), cwd=ROOT, check=True, timeout=ROUND_TIMEOUT_S,
            stdout=subprocess.DEVNULL,
        )
        sweep = json.loads(fit.read_text())
        values["anneal.c0_us"], values["anneal.c1_us"] = sweep["c0_us"], sweep["c1_us"]
    metrics = {name: _metric(values[name], unit) for name, unit in tracing.METRICS.items()}
    return ledger, metrics, [plain_walls, traced_walls]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "geowalk" / "cli.py").is_file():
        print(f"no geowalk sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "run.ini").write_text(wl.ini(wl.params, args.seed, (work / "out").relative_to(ROOT)))
    warm = subprocess.run(
        [sys.executable, "-c", "import geowalk"], env=child_env(), cwd=ROOT, check=False, timeout=ROUND_TIMEOUT_S
    )
    if warm.returncode != 0:
        print("cannot import geowalk from src/", file=sys.stderr)
        return 2

    measure_fn = measure_traced if args.trace else measure
    ledger, metrics, rounds = measure_fn(wl, work, args.seconds)
    info = stamp_info()
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    record = {"workload": args.workload, "seed": args.seed, **info, **result, "rounds": rounds}
    (work / "result.json").write_text(json.dumps(record, indent=1))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: " + json.dumps(info))
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
