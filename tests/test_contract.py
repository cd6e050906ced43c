"""Reference outputs that pin the RNG contract from one version to the next.

``tests/data/contract.json`` holds output rows of small variants of the
four shipped configs, each run through the CLI: the first and last rows of
every sample and anneal output file, and every report of the diagnose run.
Integer, boolean and string fields must match exactly and floats within a
relative 1e-9, so last-bit libm and SIMD differences pass while a change in
draw order or law fails by orders of magnitude.  A deliberate change of the
RNG contract rewrites the file, with a line in CHANGES.md:

    PYTHONPATH=src python tests/test_contract.py
"""

import configparser
import csv
import json
import sys
import tempfile
from pathlib import Path

import pytest

from geowalk.cli import main

CONTRACT = Path(__file__).resolve().parent / "data" / "contract.json"
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
RTOL = 1e-9

# What makes each shipped config small: section -> key -> value.
VARIANTS = {
    "sample_cap": {"walk": {"steps": "2000", "burn_in": "200"}},
    "sample_box_gibbs": {"walk": {"steps": "2000", "burn_in": "200"}},
    "anneal_cap": {"anneal": {"max_total_steps": "4000"}},
    "diagnose_all": {},
}
OUTPUTS = {
    "sample": ("samples.jsonl",),
    "anneal": ("trace.csv", "minimizers.jsonl"),
    "diagnose": ("reports.jsonl",),
}
TRACE_INTS = ("trial", "phase", "steps", "rejections")


def _read_rows(path: Path) -> list[dict]:
    if path.suffix == ".csv":
        with path.open() as source:
            rows = list(csv.DictReader(source))
        for row in rows:
            for key, value in row.items():
                if key != "config":
                    row[key] = int(value) if key in TRACE_INTS else float(value)
    else:
        rows = [json.loads(line) for line in path.read_text().splitlines()]
    for row in rows:
        del row["config"]  # the config hash pins the INI text, not the stream
    return rows


def run_variant(name: str, workdir: Path) -> dict:
    """Exit code and contract rows of the small variant of ``configs/<name>.ini``."""
    parser = configparser.ConfigParser()
    parser.read(CONFIGS / f"{name}.ini")
    parser.read_dict(VARIANTS[name])
    ini = workdir / f"{name}.ini"
    with ini.open("w") as sink:
        parser.write(sink)
    out = workdir / name
    code = main(["run", "--config", str(ini), "--output-dir", str(out)])
    mode = parser["run"]["mode"]
    result = {"exit": code}
    for filename in OUTPUTS[mode]:
        rows = _read_rows(out / filename)
        result[filename] = rows if mode == "diagnose" else [rows[0], rows[-1]]
    return result


def _assert_matches(expected, actual, where):
    if isinstance(expected, float):
        assert isinstance(actual, float), where
        assert abs(actual - expected) <= RTOL * abs(expected), (where, expected, actual)
    elif isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), where
        for key, value in expected.items():
            _assert_matches(value, actual[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for i, (e, a) in enumerate(zip(expected, actual)):
            _assert_matches(e, a, f"{where}[{i}]")
    else:
        assert type(actual) is type(expected) and actual == expected, (where, expected, actual)


@pytest.mark.parametrize("name", list(VARIANTS))
def test_outputs_match_the_contract(name, tmp_path):
    expected = json.loads(CONTRACT.read_text())[name]
    _assert_matches(expected, run_variant(name, tmp_path), name)


def test_contract_comparison_catches_a_moved_float():
    row = {"step": 5, "rejected": False, "coords": [0.25, -0.5]}
    _assert_matches(row, {"step": 5, "rejected": False, "coords": [0.25 * (1 + 1e-10), -0.5]}, "row")
    for moved in (
        {"step": 5, "rejected": False, "coords": [0.25 * (1 + 1e-8), -0.5]},
        {"step": 6, "rejected": False, "coords": [0.25, -0.5]},
        {"step": 5.0, "rejected": False, "coords": [0.25, -0.5]},
        {"step": 5, "rejected": 0, "coords": [0.25, -0.5]},
    ):
        with pytest.raises(AssertionError):
            _assert_matches(row, moved, "row")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        contract = {name: run_variant(name, Path(scratch)) for name in VARIANTS}
    CONTRACT.parent.mkdir(exist_ok=True)
    CONTRACT.write_text(json.dumps(contract, indent=1, sort_keys=True) + "\n")
    print(f"wrote {CONTRACT}", file=sys.stderr)
