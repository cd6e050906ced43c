"""The BENCH recorder's summary and the comparison of two BENCH files."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"


def script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_record_summary_is_median_and_inclusive_quartiles():
    got = script("bench_record").summary([5.0, 1.0, 4.0, 2.0, 3.0])
    assert (got["median"], got["q1"], got["q3"], got["iqr"]) == (3.0, 2.0, 4.0, 2.0)
    assert got["runs"] == [5.0, 1.0, 4.0, 2.0, 3.0]


def test_compare_flags_a_change_only_past_the_bound_and_the_old_iqr():
    old, new = (json.loads((DATA / f"bench_fixture_{side}.json").read_text()) for side in ("old", "new"))
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    lines = script("bench_compare").compare(old, new, metrics)
    verdicts = {tuple(line.split()[:2]): line.split()[-1] for line in lines[1:] if "failed" not in line}
    assert verdicts == {
        ("anneal-sphere5", "setup_s"): "worse",  # +30%, past the 0.25 bound and the IQR
        ("anneal-sphere5", "wall_s"): "within",
        ("anneal-sphere5", "peak_rss_mib"): "worse",  # +0.2 MiB (+0.5%), past the 0.1 MiB bound
        ("diagnose-all", "setup_s"): "within",
        ("diagnose-all", "wall_s"): "better",
        ("diagnose-all", "peak_rss_mib"): "within",  # +0.05 MiB, past the IQR, not the bound
    }
    failed = [line.split()[:4] for line in lines if "failed" in line]
    assert failed == [["anneal-sphere5", "failed", "ops", "0"], ["diagnose-all", "failed", "ops", "0"]]
    assert "2   (of 100 and 100)" in lines[-1]


def test_compare_runs_as_a_script():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_compare.py"),
         str(DATA / "bench_fixture_old.json"), str(DATA / "bench_fixture_new.json")],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.count("\n") == 10 and "better" in done.stdout
