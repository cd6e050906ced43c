"""Compare two BENCH files, metric by metric.

For each workload in both files and each end-to-end metric of
``BENCHMARK.json``, prints the old and new medians, the change of the
median (absolute and as a fraction of the old one), the metric's
``bound`` and the old file's IQR, and whether the change exceeds both
the bound and the old IQR.  The bound of ``peak_rss_mib`` is read in its
unit (0.1 is 0.1 MiB, the reading this repository has always given it);
every other bound is a fraction of the old median (0.25 is 25%).  A
change that exceeds both reads ``worse`` or ``better`` by the metric's
direction; any other reads ``within``.  The operations that failed in
either file are printed too.  It times nothing and always exits 0; it
states what moved, it does not gate.

Usage:
    python3 scripts/bench_compare.py BENCH_27.json BENCH_28.json
"""

import argparse
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# Metrics whose bound is an absolute change in the metric's unit.
ABSOLUTE_BOUND = ("peak_rss_mib",)


def compare(old: dict, new: dict, metrics: list[dict]) -> list[str]:
    lines = [
        f"{'workload':<16}{'metric':<14}{'old':>10}{'new':>10}{'change':>11}{'rel':>9}"
        f"{'bound':>10}{'old IQR':>10}  verdict"
    ]
    for workload, before in old["workloads"].items():
        after = new["workloads"].get(workload)
        if after is None:
            lines.append(f"{workload:<16}missing from the new file")
            continue
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            was, now = before[name]["median"], after[name]["median"]
            change = now - was
            rel = change / was if was else float("inf")
            iqr = before[name]["iqr"]
            absolute = name in ABSOLUTE_BOUND
            verdict = "within"
            if (abs(change) if absolute else abs(rel)) > bound and abs(change) > iqr:
                lower_is_better = metric["better"] == "lower"
                verdict = "better" if (change < 0) == lower_is_better else "worse"
            shown = f"{bound:g} {metric['unit']}" if absolute else f"{bound:.0%}"
            lines.append(
                f"{workload:<16}{name:<14}{was:>10.4g}{now:>10.4g}{change:>+11.4g}{rel:>+9.2%}"
                f"{shown:>10}{iqr:>10.4g}  {verdict}"
            )
        lines.append(
            f"{workload:<16}{'failed ops':<14}{before['failed']:>10}{after['failed']:>10}"
            f"   (of {before['attempted']} and {after['attempted']})"
        )
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args()
    old, new = (json.loads(path.read_text()) for path in (args.old, args.new))
    print(f"old {old['git_sha'][:10]} ({old['settings']}), new {new['git_sha'][:10]} ({new['settings']})")
    for line in compare(old, new, json.loads(BENCHMARK.read_text())["end_to_end"]):
        print(line)


if __name__ == "__main__":
    main()
