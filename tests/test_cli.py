import json

import pytest

from geowalk.cli import main


def write_config(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def sample_config(tmp_path, out):
    return write_config(
        tmp_path,
        "sample.ini",
        f"""
[run]
mode = sample
seed = 3
output_dir = {out}

[space]
manifold = sphere:2
body = cap:0,0,1:1.0471975511965976
start = north

[walk]
steps = 400
thin = 10
burn_in = 100
chains = 2
delta = 0.04
""",
    )


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


def test_sample_run_writes_jsonl(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", sample_config(tmp_path, out)]) == 0
    rows = [
        json.loads(line)
        for line in (out / "samples.jsonl").read_text().splitlines()
    ]
    # Two chains, (400 - 100) / 10 emissions each.
    assert len(rows) == 60
    assert {row["chain"] for row in rows} == {0, 1}
    assert all(len(row["coords"]) == 3 for row in rows)
    assert all(len(row["config"]) == 12 for row in rows)
    captured = capsys.readouterr()
    assert "rejection" in captured.out


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
