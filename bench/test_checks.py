"""Tests of the benchmark's output checks, including negative controls.

Each check must accept what the program writes for a workload and must
reject a deliberately wrong variant: a point moved outside the body,
samples drawn at twice the temperature, a minimizer value off by 1e-6, and
tampered diagnostic reports.  Run with

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from geowalk.cli import main as geowalk_main  # noqa: E402

SEED = 0


def _run_workload(name: str, out_root: Path, **overrides) -> tuple[Path, dict, int]:
    wl = run.WORKLOADS[name]
    params = {**wl.params, **overrides}
    out_root.mkdir(parents=True, exist_ok=True)
    out = out_root / "out"
    ini = out_root / "run.ini"
    ini.write_text(wl.ini(params, SEED, out))
    code = geowalk_main(["run", "--config", str(ini)])
    return out, wl.params, code


@pytest.fixture(scope="module")
def cap_rows(tmp_path_factory):
    out, params, code = _run_workload("sample-cap", tmp_path_factory.mktemp("cap"))
    assert code == 0
    return checks.read_jsonl(out / "samples.jsonl"), params


@pytest.fixture(scope="module")
def anneal_output(tmp_path_factory):
    out, params, code = _run_workload("anneal-sphere5", tmp_path_factory.mktemp("anneal"))
    assert code == 0
    return checks.read_jsonl(out / "minimizers.jsonl"), checks.read_trace_csv(out / "trace.csv"), params


def test_exact_cap_mean_matches_closed_form():
    for angle in (0.3, math.pi / 3, 1.5):
        assert checks.cap_mean_cos(2, angle) == pytest.approx((1 + math.cos(angle)) / 2, abs=1e-13)


def test_so3_ball_mean_matches_weighted_haar_draws():
    """Importance-weighted Haar rotations give the same Gibbs mean."""
    rng = np.random.default_rng(1)
    q, r = np.linalg.qr(rng.standard_normal((200_000, 3, 3)))
    q *= np.sign(np.einsum("kii->ki", r))[:, None, :]
    q[np.linalg.det(q) < 0, :, -1] *= -1.0
    f = checks.so3_distance(q)
    radius, temperature = 1.2, 0.15
    w = np.where(f <= radius, np.exp(-f / temperature), 0.0)
    mean = float((w * f).sum() / w.sum())
    stderr = math.sqrt(float((w**2 * (f - mean) ** 2).sum())) / float(w.sum())
    assert abs(mean - checks.so3_ball_mean_distance(radius, temperature)) < 4 * stderr


def test_binomial_lower_quantile_has_the_stated_tail():
    k = checks.binomial_lower_quantile(16, 0.9, 1e-6)
    below = sum(math.comb(16, j) * 0.9**j * 0.1 ** (16 - j) for j in range(k))
    assert below <= 1e-6 < below + math.comb(16, k) * 0.9**k * 0.1 ** (16 - k)


def test_sample_cap_accepts_program_output(cap_rows):
    rows, params = cap_rows
    assert checks.check_sample_cap(rows, params) == [True] * params["chains"]


def test_sample_cap_rejects_point_moved_outside_the_cap(cap_rows):
    rows, params = cap_rows
    moved = [dict(row) for row in rows]
    victim = next(i for i, row in enumerate(moved) if row["chain"] == 1)
    phi = params["angle"] + 1e-6
    moved[victim]["coords"] = [math.sin(phi), 0.0, math.cos(phi)]
    assert checks.check_sample_cap(moved, params) == [True, False, True, True]


def test_sample_cap_rejects_wrong_step_layout(cap_rows):
    rows, params = cap_rows
    assert checks.check_sample_cap(rows[1:], params)[0] is False


def test_gibbs_check_accepts_target_and_rejects_twice_the_temperature(tmp_path):
    out, params, code = _run_workload("gibbs-so3", tmp_path / "t1")
    assert code == 0
    rows = checks.read_jsonl(out / "samples.jsonl")
    assert checks.check_gibbs_so3(rows, params) == [True] * params["chains"]

    hot_out, _, code = _run_workload("gibbs-so3", tmp_path / "t2", temperature=2 * params["temperature"])
    assert code == 0
    hot = checks.read_jsonl(hot_out / "samples.jsonl")
    assert checks.check_gibbs_so3(hot, params) == [False] * params["chains"]

    off = [dict(row) for row in rows]
    off[3]["f_value"] += 1e-6
    assert checks.check_gibbs_so3(off, params)[0] is False


def test_anneal_accepts_program_output(anneal_output):
    minimizers, trace, params = anneal_output
    assert checks.check_anneal(minimizers, trace, params) == [True] * params["trials"]


def test_anneal_rejects_minimizer_value_off_by_1e_6(anneal_output):
    minimizers, trace, params = anneal_output
    off = [dict(row) for row in minimizers]
    off[5]["value"] += 1e-6
    verdicts = checks.check_anneal(off, trace, params)
    assert verdicts[5] is False and verdicts.count(False) == 1


def test_anneal_rejects_bad_schedule_and_too_few_hits(anneal_output):
    minimizers, trace, params = anneal_output
    hot = [dict(row) for row in trace]
    hot[1]["temperature"] = repr(float(hot[1]["temperature"]) * (1 + 1e-9))
    assert checks.check_anneal(minimizers, hot, params)[int(hot[1]["trial"])] is False
    # A minimizer far from the axis is still a valid point of the cap, but
    # enough of them break the binomial floor and fail every trial.
    far = [dict(row) for row in minimizers]
    for row in far[:10]:
        row["minimizer"] = [math.sin(1.0), 0.0, 0.0, 0.0, 0.0, math.cos(1.0)]
        row["value"] = 1.0
    assert checks.check_anneal(far, trace, params) == [False] * params["trials"]


def test_diagnose_check_accepts_reports_and_rejects_tampering(tmp_path):
    out, _, code = _run_workload("diagnose-all", tmp_path)
    rows = checks.read_jsonl(out / "reports.jsonl")
    assert checks.check_diagnose(rows, code) == [True] * len(checks.DIAGNOSE_REPORTS)

    def tampered(name: str, **fields) -> list[bool]:
        changed = [dict(row, **fields) if row["name"] == name else row for row in rows]
        return checks.check_diagnose(changed, code)

    index = checks.DIAGNOSE_REPORTS.index
    assert tampered("tv_decay", rhs=0.05)[index("tv_decay")] is False
    big = max(rows, key=lambda r: r["margin"])
    assert tampered(big["name"], lhs=big["rhs"] + 1.0, margin=-1.0)[index(big["name"])] is False
    assert checks.check_diagnose(rows[1:], code) == [False] * len(checks.DIAGNOSE_REPORTS)
    assert checks.check_diagnose(rows, 1) == [False] * len(checks.DIAGNOSE_REPORTS)
