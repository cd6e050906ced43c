import json
import tracemalloc
import warnings
from pathlib import Path

import pytest

from geowalk.cli import main
from geowalk.config import (
    body_from_string,
    load_config,
    manifold_from_string,
    parse_point_spec,
    target_from_string,
)
from geowalk.errors import StepSizeWarning
from geowalk.targets import as_gibbs
from geowalk.walk import WalkParams, run_chain


def write_config(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def sample_config(tmp_path, out, steps=400, thin=10, burn_in=100, target=None):
    text = f"""
[run]
mode = sample
seed = 3
output_dir = {out}

[space]
manifold = sphere:2
body = cap:0,0,1:1.0471975511965976
start = north

[walk]
steps = {steps}
thin = {thin}
burn_in = {burn_in}
chains = 2
delta = 0.04
"""
    if target is not None:
        text += f"\n[target]\nkind = {target}\ntemperature = 0.3\n"
    return write_config(tmp_path, "sample.ini", text)


def anneal_config(tmp_path, out):
    return write_config(
        tmp_path,
        "anneal.ini",
        f"""
[run]
mode = anneal
seed = 5
output_dir = {out}

[space]
manifold = sphere:2
body = cap:0,0,1:1.0471975511965976

[target]
kind = distance_to:0,0,1
temperature = 1.0

[anneal]
epsilon = 0.4
fail_prob = 0.3
max_total_steps = 4000
trials = 2
""",
    )


def diagnose_config(tmp_path, out, checks="affine_needle"):
    return write_config(
        tmp_path,
        "diag.ini",
        f"""
[run]
mode = diagnose
seed = 1
output_dir = {out}

[diagnose]
checks = {checks}
""",
    )


def read_rows(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_sample_run_writes_jsonl(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", sample_config(tmp_path, out)]) == 0
    rows = read_rows(out / "samples.jsonl")
    # Two chains, (400 - 100) / 10 emissions each.
    assert len(rows) == 60
    assert {row["chain"] for row in rows} == {0, 1}
    assert all(len(row["coords"]) == 3 for row in rows)
    assert all(len(row["config"]) == 12 for row in rows)
    captured = capsys.readouterr()
    assert "rejection" in captured.out


@pytest.mark.parametrize("target", [None, "distance_to:0,0,1"])
def test_sample_rows_are_the_run_chain_columns(tmp_path, target):
    # 275 kept rows per chain: their steps straddle the step slices at 256
    # and 512, and the rows straddle the 256-row slices the writer converts.
    out = tmp_path / "out"
    path = sample_config(tmp_path, out, steps=700, thin=2, burn_in=149, target=target)
    assert main(["run", "--config", path]) == 0
    cfg = load_config(path)
    rows = read_rows(out / "samples.jsonl")
    man = manifold_from_string(cfg.manifold)
    body = body_from_string(cfg.body, man)
    gibbs = None if target is None else as_gibbs(target_from_string(target, man, body), cfg.temperature)
    params = WalkParams(delta=cfg.delta, max_steps=cfg.steps, seed=cfg.seed)
    for chain in range(cfg.chains):
        result = run_chain(
            parse_point_spec(cfg.start, man), body, params, gibbs, cfg.thin, cfg.burn_in, chain
        )
        mine = [row for row in rows if row["chain"] == chain]
        assert len(mine) == 275
        assert [row["step"] for row in mine] == result.steps.tolist()
        assert [row["coords"] for row in mine] == result.coords.tolist()
        assert [row["rejected"] for row in mine] == result.rejected.tolist()
        if gibbs is None:
            assert not any("f_value" in row for row in mine)
        else:
            assert [row["f_value"] for row in mine] == result.f_values.tolist()


def test_sample_run_working_set_grows_by_one_chains_columns(tmp_path):
    # With thin = 1 every step is a row.  Its columns in run_chain take 41
    # bytes (coordinates 24, step 8, f value 8, flag 1), and one chain's
    # columns are live at a time.  Turning a whole chain into Python lists
    # at once, with the previous chain's columns still held, cost about
    # 480 bytes a row.
    def traced_peak(steps):
        cfg = sample_config(
            tmp_path, tmp_path / "out", steps=steps, thin=1, burn_in=0, target="distance_to:0,0,1"
        )
        tracemalloc.start()
        try:
            assert main(["run", "--config", cfg]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(10)  # first-call work outside the comparison
    small, large = 1_000, 10_000
    growth = traced_peak(large) - traced_peak(small)
    assert growth <= 64 * (large - small), growth


def test_anneal_run_writes_trace_and_minimizers(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", anneal_config(tmp_path, out)]) == 0
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "trial,phase,temperature,steps,rejections,best_f,final_f,config"
    assert len(trace) > 2
    rows = [
        json.loads(line)
        for line in (out / "minimizers.jsonl").read_text().splitlines()
    ]
    assert [row["trial"] for row in rows] == [0, 1]
    assert all(row["value"] >= 0.0 for row in rows)
    assert "best value" in capsys.readouterr().out


def test_diagnose_run_reports_pass(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", diagnose_config(tmp_path, out)]) == 0
    reports = [
        json.loads(line)
        for line in (out / "reports.jsonl").read_text().splitlines()
    ]
    assert all(r["passed"] for r in reports)
    assert all(r["name"] == "affine_needle" for r in reports)
    assert "PASS" in capsys.readouterr().out


def test_reruns_are_byte_identical(tmp_path):
    out = tmp_path / "out"
    cfg = sample_config(tmp_path, out)
    assert main(["run", "--config", cfg]) == 0
    first = (out / "samples.jsonl").read_bytes()
    assert main(["run", "--config", cfg]) == 0
    assert (out / "samples.jsonl").read_bytes() == first


def test_output_dir_leaves_output_bytes_unchanged(tmp_path):
    cfg = sample_config(tmp_path, "PLACEHOLDER")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--output-dir", str(out_a)]) == 0
    assert main(["run", "--config", cfg, "--output-dir", str(out_b)]) == 0
    assert (out_a / "samples.jsonl").read_bytes() == (out_b / "samples.jsonl").read_bytes()


def test_seed_override_changes_output(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg = sample_config(tmp_path, "PLACEHOLDER")
    assert main(["run", "--config", cfg, "--output-dir", str(out_a)]) == 0
    assert (
        main(["run", "--config", cfg, "--output-dir", str(out_b), "--seed", "77"]) == 0
    )
    a = (out_a / "samples.jsonl").read_text()
    b = (out_b / "samples.jsonl").read_text()
    assert a != b


def test_trials_override(tmp_path):
    out = tmp_path / "out"
    cfg = anneal_config(tmp_path, out)
    assert main(["run", "--config", cfg, "--trials", "3"]) == 0
    rows = (out / "minimizers.jsonl").read_text().splitlines()
    assert len(rows) == 3


def test_missing_config_is_a_usage_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.ini")]) == 2
    assert "config error" in capsys.readouterr().err


def test_start_outside_body_is_a_config_error(tmp_path, capsys):
    sample_config(tmp_path, tmp_path / "out")
    text = (tmp_path / "sample.ini").read_text()
    cfg = write_config(tmp_path, "bad.ini", text.replace("north", "0,0,-1"))
    assert main(["run", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


def test_start_on_the_cut_locus_is_a_config_error(tmp_path, capsys):
    # A half-turn is on the cut locus of the ball's centre, the identity.
    cfg = write_config(
        tmp_path,
        "so3.ini",
        f"""
[run]
mode = sample
output_dir = {tmp_path / "out"}

[space]
manifold = so:3
body = ball:identity:1.2
start = 1,0,0,0,-1,0,0,0,-1

[walk]
steps = 10
delta = 0.02
""",
    )
    assert main(["run", "--config", cfg]) == 2
    assert "lies outside the body" in capsys.readouterr().err


def test_bad_anneal_budget_is_a_config_error(tmp_path, capsys):
    anneal_config(tmp_path, tmp_path / "out")
    text = (tmp_path / "anneal.ini").read_text()
    bad = write_config(
        tmp_path, "bad.ini", text.replace("max_total_steps = 4000", "max_total_steps = 0")
    )
    assert main(["run", "--config", bad]) == 2
    assert "config error" in capsys.readouterr().err


# Each bad setting: the config it edits, its edits, extra flags, and the
# message of the one object that owns the rule.  NaN fails every
# comparison, so a check written "x <= 0" would let the NaN rows through.
BAD_SETTINGS = {
    "nan-temperature": (
        "gibbs", [("temperature = 0.3", "temperature = nan")], [], "temperature must be positive"
    ),
    "nan-epsilon": ("anneal", [("epsilon = 0.4", "epsilon = nan")], [], "epsilon must be positive"),
    "nan-ball-radius": (
        "sample",
        [("cap:0,0,1:1.0471975511965976", "ball:north:nan")],
        [],
        "ball radius must be positive",
    ),
    "zero-max-total-steps": (
        "anneal",
        [("max_total_steps = 4000", "max_total_steps = 0")],
        [],
        "max_total_steps must be >= 1",
    ),
    "zero-trials": ("anneal", [], ["--trials", "0"], "trials must be >= 1"),
    "zero-thin": ("sample", [("thin = 10", "thin = 0")], [], "thin must be >= 1"),
    "negative-burn-in": ("sample", [("burn_in = 100", "burn_in = -1")], [], "burn_in must be >= 0"),
    "negative-delta": (
        "sample", [("delta = 0.04", "delta = -1")], [], "step size must be finite and > 0"
    ),
    "over-bound-delta": (
        "sample", [("delta = 0.04", "delta = 0.2")], [], "exceeds the guaranteed-safe bound"
    ),
    "start-outside-body": (
        "sample", [("start = north", "start = 0,0,-1")], [], "chain start lies outside the body"
    ),
    "off-sphere-start": ("sample", [("start = north", "start = 0,0,2")], [], "off the unit sphere"),
    "short-start": ("sample", [("start = north", "start = 0,1")], [], "must have shape"),
    "infinite-linear-coefficient": (
        "anneal",
        [
            ("sphere:2", "euclidean:2"),
            ("cap:0,0,1:1.0471975511965976", "box:0,0:1,1"),
            ("distance_to:0,0,1", "linear:inf,1"),
        ],
        [],
        "coefficients must have a finite, nonzero norm",
    ),
    # A key the run's mode does not read must be left out or keep its default.
    "anneal-start": (
        "anneal",
        [("1.0471975511965976\n", "1.0471975511965976\nstart = 0,0,2\n")],
        [],
        "mode anneal does not read [space] start",
    ),
    "anneal-thin": (
        "anneal",
        [("[anneal]", "[walk]\nthin = 0\n\n[anneal]")],
        [],
        "mode anneal does not read [walk] thin",
    ),
    "anneal-temperature": (
        "anneal",
        [("temperature = 1.0", "temperature = 2")],
        [],
        "mode anneal does not read [target] temperature",
    ),
    "diagnose-manifold": (
        "diagnose",
        [("[diagnose]", "[space]\nmanifold = torus:9\n\n[diagnose]")],
        [],
        "mode diagnose does not read [space] manifold",
    ),
    "sample-trials": ("sample", [], ["--trials", "3"], "mode sample does not read [anneal] trials"),
    "temperature-without-kind": (
        "sample",
        [("delta = 0.04\n", "delta = 0.04\n\n[target]\ntemperature = 2\n")],
        [],
        "mode sample does not read [target] temperature",
    ),
    "override-delta-with-auto-delta": (
        "sample",
        [("delta = 0.04", "delta = auto\noverride_delta = true")],
        [],
        "mode sample does not read [walk] override_delta",
    ),
}


@pytest.mark.parametrize("case", BAD_SETTINGS)
def test_bad_settings_exit_2_before_any_output(tmp_path, capsys, case):
    base, edits, flags, message = BAD_SETTINGS[case]
    out = tmp_path / "out"
    if base == "anneal":
        text = Path(anneal_config(tmp_path, out)).read_text()
    elif base == "diagnose":
        text = Path(diagnose_config(tmp_path, out)).read_text()
    else:
        target = "distance_to:0,0,1" if base == "gibbs" else None
        text = Path(sample_config(tmp_path, out, target=target)).read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    assert main(["run", "--config", write_config(tmp_path, "bad.ini", text), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not out.exists()  # no output file, not even the directory


def test_over_bound_delta_with_override_runs_and_warns_once(tmp_path):
    out = tmp_path / "out"
    text = Path(sample_config(tmp_path, out)).read_text()
    text = text.replace("delta = 0.04", "delta = 0.2\noverride_delta = true")
    with warnings.catch_warnings(record=True) as caught:
        # Python's default action: once per warning text and call site.
        # Each chain's run_chain call checks the step size from one site.
        warnings.simplefilter("default")
        assert main(["run", "--config", write_config(tmp_path, "override.ini", text)]) == 0
    assert [w.category for w in caught] == [StepSizeWarning]
    assert len(read_rows(out / "samples.jsonl")) == 60


def test_over_bound_delta_with_override_warns_once_per_run_under_always(tmp_path):
    # As under "python -W always": one warning per run, not one per chain.
    out = tmp_path / "out"
    text = Path(sample_config(tmp_path, out)).read_text()
    text = text.replace("delta = 0.04", "delta = 0.2\noverride_delta = true")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", write_config(tmp_path, "override.ini", text)]) == 0
    assert [w.category for w in caught] == [StepSizeWarning]
    assert len(read_rows(out / "samples.jsonl")) == 60


def test_only_the_per_run_overrides_are_flags(tmp_path, capsys):
    good = anneal_config(tmp_path, tmp_path / "out")
    for flag in (["--budget-constant", "1"], ["--override-delta"]):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--config", good, *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_failed_check_sets_exit_code(tmp_path, monkeypatch, capsys):
    import geowalk.cli as cli
    import geowalk.diagnostics as diag

    out = tmp_path / "out"
    cfg = diagnose_config(tmp_path, out)
    failing = diag.InequalityReport(
        name="affine_needle", lhs=2.0, rhs=1.0, margin=-1.0, passed=False
    )
    monkeypatch.setattr(cli, "run_builtin_check", lambda name, seed: [failing])
    assert main(["run", "--config", cfg]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_list_builtins_names_checks(capsys):
    assert main(["list-builtins"]) == 0
    out = capsys.readouterr().out
    for token in ("sphere:<n>", "cap:", "distance_to:", "affine_needle", "tv_decay"):
        assert token in out
