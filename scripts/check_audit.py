"""False-alarm audit of one built-in check over a range of seeds.

Runs ``run_builtin_check(NAME, seed)`` for every seed in ``A:B`` (A
included, B not) and prints, per report, how many seeds failed, the
binomial 95% (Wilson score) interval of the failure rate, and the seeds
that failed.  Every report passes when ``lhs <= rhs + 3 sigma + tol``, so
on a correct walk a Gaussian statistic fails at the one-sided 3-sigma rate,
0.135%; a report whose interval lies above that rate fails more often than
its bound allows.  The audit changes no bound and always exits 0.

Usage:
    python3 scripts/check_audit.py --check low_temp_expectation --seeds 0:100
"""

import argparse
import math

import geowalk as gw

Z95 = 1.959963984540054
REFERENCE_RATE = 0.5 * math.erfc(3.0 / math.sqrt(2.0))


def wilson_interval(failures: int, runs: int) -> tuple[float, float]:
    """95% Wilson score interval of a binomial rate."""
    p = failures / runs
    z2 = Z95 * Z95
    scale = 1.0 + z2 / runs
    centre = (p + z2 / (2.0 * runs)) / scale
    half = Z95 * math.sqrt(p * (1.0 - p) / runs + z2 / (4.0 * runs * runs)) / scale
    return max(0.0, centre - half), min(1.0, centre + half)


def seed_range(text: str) -> range:
    first, _, last = text.partition(":")
    seeds = range(int(first), int(last))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}; use A:B with A < B")
    return seeds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", required=True, choices=gw.builtin_check_names())
    parser.add_argument("--seeds", type=seed_range, required=True, help="A:B, B excluded")
    args = parser.parse_args()

    failed: dict[str, list[int]] = {}
    for seed in args.seeds:
        for report in gw.run_builtin_check(args.check, seed):
            failed.setdefault(report.name, [])
            if not report.passed:
                failed[report.name].append(seed)

    runs = len(args.seeds)
    print(
        f"check {args.check}, seeds {args.seeds.start}:{args.seeds.stop} ({runs} runs), "
        f"reference rate {100.0 * REFERENCE_RATE:.3f}% (one-sided 3 sigma)"
    )
    print(f"{'report':<30}{'failures':<12}{'95% interval':<22}{'verdict':<12}failing seeds")
    for name, seeds in failed.items():
        lo, hi = wilson_interval(len(seeds), runs)
        verdict = "above" if lo > REFERENCE_RATE else "consistent"
        interval = f"[{100.0 * lo:.3f}%, {100.0 * hi:.3f}%]"
        listed = " ".join(map(str, seeds)) or "-"
        print(f"{name:<30}{f'{len(seeds)}/{runs}':<12}{interval:<22}{verdict:<12}{listed}")


if __name__ == "__main__":
    main()
