"""Empirical mixing study: TV-decay curves across step sizes.

Starts every replica at the center of a 60-degree spherical cap and
tracks the two-sample KS distance between the evolving ensemble and a
fresh uniform reference at geometrically spaced checkpoints.  Larger
steps mix faster until rejections at the boundary start to dominate;
the printed table makes that tradeoff visible.

Usage:
    python3 scripts/mixing_study.py --replicas 5000 --seed 0
"""

import argparse
import math

import numpy as np

import geowalk as gw


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--replicas", type=int, default=5000)
    parser.add_argument(
        "--deltas", type=float, nargs="+", default=[0.05, 0.15, 0.35, 0.7]
    )
    args = parser.parse_args()

    cap = gw.SphericalCap(gw.Sphere(2), np.array([0.0, 0.0, 1.0]), math.pi / 3.0)
    checkpoints = (1, 4, 16, 64, 256)
    noise = 3.0 * gw.ks_sigma(args.replicas, 2 * args.replicas)

    print(f"cap: {cap!r}  replicas: {args.replicas}  3-sigma: {noise:.4f}")
    header = "delta   " + "".join(f"ks@{c:<6}" for c in checkpoints)
    print(header)
    for k, delta in enumerate(args.deltas):
        curve = gw.tv_decay_curve(
            cap, delta, checkpoints, args.replicas, gw.stream(args.seed, k)
        )
        row = "".join(f"{ks:<9.4f}" for _, ks in curve)
        print(f"{delta:<8.3g}{row}")


if __name__ == "__main__":
    main()
