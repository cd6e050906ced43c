"""Record a BENCH file: the end-to-end metrics of every benchmark workload.

Runs ``bench/run.py --workload W --seed S --seconds T --trace 0`` ``RUNS``
times for each workload that ``BENCHMARK.json`` lists, the workloads taking
turns, at seeds ``SEED, SEED + 1, ...`` and at the benchmark's run length
``T`` (its ``run_seconds``), in the checkout ``--root`` (this repository by
default).  Each call prints the median of its processes; the file holds,
per workload and metric (``wall_s``, ``setup_s``, ``peak_rss_mib``), the
median, quartiles and IQR over the calls, and every call's value.  It also
holds the settings, the operations attempted and failed, and what the runs
report of the checkout and host: git SHA, Python, numpy and BLAS versions,
and ``nproc``.  Nothing is tunable, so every BENCH file is recorded alike.

A BENCH file is a snapshot of one checkout, not a paired comparison; two
files compare fairly only when recorded on the same host.
``scripts/bench_compare.py`` compares two.

Usage:
    python3 scripts/bench_record.py --out BENCH_28.json
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("wall_s", "setup_s", "peak_rss_mib")
STAMP = ("git_sha", "python", "numpy", "openblas", "nproc")
RUNS = 5  # bench/run.py calls per workload
SEED = 900  # seed of the first call; then +1 per call


def summary(values: list[float]) -> dict:
    """Median, quartiles and IQR of ``values`` (inclusive quartiles)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py --trace 0`` call; its ``result.json`` record."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    subprocess.run(cmd, cwd=root, check=True, stdout=subprocess.DEVNULL)
    return json.loads((root / "bench-out" / workload / "result.json").read_text())


def record(root: Path) -> dict:
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for i in range(RUNS):
        for workload in workloads:
            got = run_once(root, workload, SEED + i, seconds)
            results[workload].append(got)
            print(f"{workload} seed {SEED + i}: "
                  + ", ".join(f"{m} {got['metrics'][m]['value']:.4g}" for m in METRICS), file=sys.stderr)
    first = results[workloads[0]][0]
    return {
        **{key: first[key] for key in STAMP},
        "settings": {"runs": RUNS, "seconds": seconds, "first_seed": SEED, "trace": 0},
        "workloads": {
            workload: {
                "attempted": sum(r["attempted"] for r in rs),
                "failed": sum(r["failed"] for r in rs),
                **{m: summary([r["metrics"][m]["value"] for r in rs]) for m in METRICS},
            }
            for workload, rs in results.items()
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="the BENCH file to write")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="the checkout to measure (default: this repository)")
    args = parser.parse_args()
    bench = record(args.root.resolve())
    args.out.write_text(json.dumps(bench, indent=1) + "\n")


if __name__ == "__main__":
    main()
