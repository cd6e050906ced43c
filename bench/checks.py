"""Output checks for the benchmark workloads, computed with plain numpy.

Each ``check_*`` function reads what one ``geowalk run`` wrote and returns
one pass flag per operation: a chain in sample mode, a trial in anneal mode,
a report in diagnose mode.  The checks test properties of the method and
values recomputed here from closed forms or 1-D quadrature; none compares
against a stored copy of earlier output, and none calls into ``geowalk``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# A chain mean may sit this many batch-means standard errors from the exact
# mean.  Five keeps false alarms below one in 10^5 chains even with the
# heavier tails of a batch-means estimate; the negative controls in
# test_checks.py show it still rejects a chain run at twice the temperature.
Z_MEAN = 5.0
# Pointwise tolerance for recomputed geometry (norms, membership, distances).
# The negative controls perturb by 1e-6, far above it.
TOL = 1e-9
# Anneal: the count of trials within epsilon must reach the lower quantile of
# Binomial(trials, 1 - fail_prob) at this probability.
BINOMIAL_ALPHA = 1e-6
# Diagnose: largest absolute pass tolerance a built-in check adds to
# ``lhs <= rhs + 3 stderr`` (the quadrature accuracy 1e-10 + 1e-12 (|lhs|+|rhs|)).
REPORT_ABS_TOL = 1e-10
REPORT_REL_TOL = 1e-12

DIAGNOSE_REPORTS = (
    "affine_needle",
    "needle_moment",
    "partition_logconcavity",
    "interior_volume",
    "interior_volume_box_control",
    "isoperimetry",
    "one_step_tv",
    "warmness",
    "warmness_control",
    "low_temp_expectation",
    "tv_decay",
    "tv_decay_monotone",
)


def read_jsonl(path: Path) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def batch_means(values: np.ndarray) -> tuple[float, float]:
    """Mean and its batch-means standard error with ``floor(sqrt(N))`` batches."""
    values = np.asarray(values, dtype=float)
    batches = int(math.sqrt(values.size))
    width = values.size // batches
    means = values[: batches * width].reshape(batches, width).mean(axis=1)
    return float(values.mean()), float(means.std(ddof=1) / math.sqrt(batches))


def _gauss_mean(value, weight, lo: float, hi: float, nodes: int = 400) -> float:
    """``∫ value·weight / ∫ weight`` over ``[lo, hi]`` by Gauss–Legendre."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    t = lo + 0.5 * (hi - lo) * (x + 1.0)
    dens = w * weight(t)
    return float((dens * value(t)).sum() / dens.sum())


def cap_mean_cos(n: int, angle: float) -> float:
    """Exact mean of ``<x, axis>`` under the uniform law on a cap of ``S^n``.

    The polar angle has density proportional to ``sin^(n-1)`` on ``[0, angle]``.
    """
    return _gauss_mean(np.cos, lambda t: np.sin(t) ** (n - 1), 0.0, angle)


def so3_ball_mean_distance(radius: float, temperature: float) -> float:
    """Exact mean of ``f = d(x, I)`` under ``exp(-f/T)`` on an SO(3) ball.

    Under ``<A, B> = tr(A^T B)`` a rotation by angle θ lies at distance
    √2·θ from the identity, and Haar measure gives θ the density
    ``(1 - cos θ)/π`` on ``[0, π]``.
    """
    root2 = math.sqrt(2.0)
    return _gauss_mean(
        lambda t: root2 * t,
        lambda t: (1.0 - np.cos(t)) * np.exp(-root2 * t / temperature),
        0.0,
        radius / root2,
    )


def so3_distance(mats: np.ndarray) -> np.ndarray:
    """``√2·arccos((tr R − 1)/2)``: distance from the identity by the trace."""
    trace = np.trace(mats, axis1=-2, axis2=-1)
    return math.sqrt(2.0) * np.arccos(np.clip((trace - 1.0) / 2.0, -1.0, 1.0))


def sphere_angle(points: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """Angle between each row and ``axis``, by ``atan2`` for accuracy near 0."""
    c = points @ axis
    s = np.linalg.norm(points - c[:, None] * axis, axis=1)
    return np.arctan2(s, c)


def binomial_lower_quantile(trials: int, p: float, alpha: float) -> int:
    """Largest ``k`` with ``P(Binomial(trials, p) < k) <= alpha``."""
    below = 0.0
    for k in range(trials + 1):
        mass = math.comb(trials, k) * p**k * (1.0 - p) ** (trials - k)
        if below + mass > alpha:
            return k
        below += mass
    return trials


def _chain_layout_ok(chain_rows: list[dict], steps: int, burn_in: int, thin: int) -> bool:
    expected = list(range(burn_in + thin, steps + 1, thin))
    return [row["step"] for row in chain_rows] == expected


def _group_chains(rows: list[dict], chains: int) -> list[list[dict]]:
    groups: list[list[dict]] = [[] for _ in range(chains)]
    for row in rows:
        chain = row.get("chain")
        if isinstance(chain, int) and 0 <= chain < chains:
            groups[chain].append(row)
    return groups


def check_sample_cap(rows: list[dict], p: dict) -> list[bool]:
    """Uniform cap samples: per chain, every row on the sphere and in the cap,
    the step layout matches steps/burn-in/thin, and the mean of ``<x, axis>``
    is within ``Z_MEAN`` batch-means errors of :func:`cap_mean_cos`."""
    axis = np.asarray(p["axis"], dtype=float)
    exact = cap_mean_cos(p["n"], p["angle"])
    cos_angle = math.cos(p["angle"])
    verdicts = []
    for chain_rows in _group_chains(rows, p["chains"]):
        if not chain_rows or not _chain_layout_ok(chain_rows, p["steps"], p["burn_in"], p["thin"]):
            verdicts.append(False)
            continue
        x = np.array([row["coords"] for row in chain_rows], dtype=float)
        if x.shape[1] != axis.size:
            verdicts.append(False)
            continue
        on_sphere = np.all(np.abs(np.linalg.norm(x, axis=1) - 1.0) <= TOL)
        dots = x @ axis
        inside = np.all(dots >= cos_angle - TOL)
        mean, stderr = batch_means(dots)
        verdicts.append(bool(on_sphere and inside and abs(mean - exact) <= Z_MEAN * stderr))
    return verdicts


def check_gibbs_so3(rows: list[dict], p: dict) -> list[bool]:
    """Gibbs samples on an SO(3) ball around the identity: per chain, every
    row orthogonal with det +1 and inside the ball, ``f_value`` equal to the
    trace-formula distance, and the mean ``f_value`` within ``Z_MEAN``
    batch-means errors of :func:`so3_ball_mean_distance`."""
    exact = so3_ball_mean_distance(p["radius"], p["temperature"])
    verdicts = []
    for chain_rows in _group_chains(rows, p["chains"]):
        if not chain_rows or not _chain_layout_ok(chain_rows, p["steps"], p["burn_in"], p["thin"]):
            verdicts.append(False)
            continue
        mats = np.array([row["coords"] for row in chain_rows], dtype=float)
        if mats.shape[1] != 9 or any("f_value" not in row for row in chain_rows):
            verdicts.append(False)
            continue
        mats = mats.reshape(-1, 3, 3)
        f = np.array([row["f_value"] for row in chain_rows], dtype=float)
        gram = np.einsum("kji,kjl->kil", mats, mats) - np.eye(3)
        orthogonal = np.all(np.abs(gram) <= TOL)
        proper = np.all(np.abs(np.linalg.det(mats) - 1.0) <= TOL)
        dist = so3_distance(mats)
        inside = np.all(dist <= p["radius"] + TOL)
        f_matches = np.all(np.abs(f - dist) <= TOL)
        mean, stderr = batch_means(f)
        verdicts.append(
            bool(orthogonal and proper and inside and f_matches and abs(mean - exact) <= Z_MEAN * stderr)
        )
    return verdicts


def read_trace_csv(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def expected_temperatures(p: dict) -> list[float]:
    """``T_k = T0 (1 - 1/sqrt(n))^k`` from ``T0 = L·D = 2·angle`` down to the
    first value below ``epsilon·fail_prob/(n+1)``."""
    n = p["n"]
    t0 = 2.0 * p["angle"]
    target = p["epsilon"] * p["fail_prob"] / (n + 1)
    phases = math.ceil(math.sqrt(n) * math.log(t0 / target))
    ratio = 1.0 - 1.0 / math.sqrt(n)
    return [t0 * ratio**k for k in range(phases + 1)]


def check_anneal(minimizers: list[dict], trace_rows: list[dict], p: dict) -> list[bool]:
    """Annealing trials on a cap with ``f = d(x, axis)``.

    Per trial: the minimizer is on the sphere and inside the cap, its value
    equals its angle to the axis, the phase temperatures follow the
    geometric schedule, the phase steps sum to at most the step cap, and in
    every phase ``0 <= rejections <= steps`` and ``best_f <= final_f``.
    Across trials: the count within epsilon reaches the ``BINOMIAL_ALPHA``
    lower quantile of ``Binomial(trials, 1 - fail_prob)``; when it does not,
    every trial fails.
    """
    trials = p["trials"]
    axis = np.asarray(p["axis"], dtype=float)
    cos_angle = math.cos(p["angle"])
    temps = expected_temperatures(p)
    by_trial: dict[int, list[dict]] = {t: [] for t in range(trials)}
    for row in trace_rows:
        trial = int(row["trial"])
        if trial in by_trial:
            by_trial[trial].append(row)
    by_min = {row.get("trial"): row for row in minimizers}
    if len(minimizers) != trials:
        return [False] * trials

    verdicts = []
    hits = 0
    for trial in range(trials):
        row = by_min.get(trial)
        phases = by_trial[trial]
        if row is None or len(phases) != len(temps):
            verdicts.append(False)
            continue
        x = np.asarray(row["minimizer"], dtype=float)
        value = float(row["value"])
        ok = x.shape == axis.shape
        ok = ok and abs(float(np.linalg.norm(x)) - 1.0) <= TOL
        ok = ok and float(x @ axis) >= cos_angle - TOL
        ok = ok and abs(value - float(sphere_angle(x[None, :], axis)[0])) <= TOL
        total = 0
        for k, rec in enumerate(phases):
            steps, rejections = int(rec["steps"]), int(rec["rejections"])
            total += steps
            ok = ok and int(rec["phase"]) == k
            ok = ok and math.isclose(float(rec["temperature"]), temps[k], rel_tol=1e-12)
            ok = ok and 0 <= rejections <= steps
            ok = ok and float(rec["best_f"]) <= float(rec["final_f"])
        ok = ok and total <= p["max_total_steps"]
        verdicts.append(bool(ok))
        hits += value <= p["epsilon"]
    if hits < binomial_lower_quantile(trials, 1.0 - p["fail_prob"], BINOMIAL_ALPHA):
        return [False] * trials
    return verdicts


def _report_passed_consistent(row: dict) -> bool:
    """``passed`` must agree with ``lhs <= rhs + 3 stderr`` wherever ``lhs``
    is farther than the largest check tolerance from that threshold."""
    lhs, rhs, stderr = float(row["lhs"]), float(row["rhs"]), float(row["mc_stderr"])
    threshold = rhs + 3.0 * stderr
    tol = REPORT_ABS_TOL + REPORT_REL_TOL * (abs(lhs) + abs(rhs))
    if lhs <= threshold:
        return row["passed"] is True
    if lhs > threshold + tol:
        return row["passed"] is False
    return isinstance(row["passed"], bool)


def _report_bound_ok(row: dict) -> bool:
    """Recompute each bound from the paper's formula and the report's own
    parameters: ``e·n·eps/r`` on the default 60° cap of ``S^2``,
    ``T·(n+1)``, the fixed 0.03 and 5, and the box control's exact shell
    fraction ``1 - 0.9^3``."""
    name, rhs, details = row["name"], float(row["rhs"]), row["details"]
    if name == "interior_volume":
        r = math.pi / 3.0
        eps = float(details["eps"])
        return math.isclose(eps, r / 4.0, rel_tol=1e-12) and math.isclose(
            rhs, math.e * 2 * eps / r, rel_tol=1e-12
        )
    if name == "interior_volume_box_control":
        exact = 1.0 - 0.9**3
        return math.isclose(float(details["exact"]), exact, rel_tol=1e-12) and math.isclose(
            float(row["lhs"]), abs(float(details["empirical"]) - exact), abs_tol=1e-12
        )
    if name == "low_temp_expectation":
        expected = float(details["temperature"]) * (int(details["n"]) + 1)
        return int(details["n"]) == 2 and math.isclose(rhs, expected, rel_tol=1e-12)
    if name == "tv_decay":
        return rhs == 0.03
    if name == "warmness":
        return rhs == 5.0
    return True


def check_diagnose(rows: list[dict], exit_code: int) -> list[bool]:
    """One flag per expected report.  A report passes when it is present once,
    passed, with a consistent ``passed`` flag, margin and bound.  A wrong
    report set or an exit code that disagrees with the reports fails all."""
    names = [row.get("name") for row in rows]
    any_failed = any(row.get("passed") is not True for row in rows)
    if sorted(names) != sorted(DIAGNOSE_REPORTS) or exit_code != (1 if any_failed else 0):
        return [False] * len(DIAGNOSE_REPORTS)
    verdicts = []
    for row in sorted(rows, key=lambda r: DIAGNOSE_REPORTS.index(r["name"])):
        lhs, rhs = float(row["lhs"]), float(row["rhs"])
        ok = row["passed"] is True and math.isfinite(lhs) and math.isfinite(rhs)
        ok = ok and float(row["mc_stderr"]) >= 0.0
        ok = ok and abs(float(row["margin"]) - (rhs - lhs)) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))
        ok = ok and _report_passed_consistent(row) and _report_bound_ok(row)
        verdicts.append(bool(ok))
    return verdicts
