"""Warm-start quality along a cooling schedule.

For each adjacent temperature pair (T_hot, T_cold) of a geometric
schedule, estimates the L2 warmness of the hotter Gibbs measure as a
start for the colder one via importance sampling from a shared uniform
sample.  Boundedness of this quantity across phases is what makes
phase-by-phase annealing sound.

The uniform-proposal estimator loses resolution once e^(-f/T)
concentrates: at cold temperatures a handful of samples carry all the
weight and both the estimate and its stderr become untrustworthy.  The
effective-sample-size column makes that collapse visible; read rows
with small ess as "not resolved at this sample budget", not as large
warmness.

Usage:
    python3 scripts/warmness_profile.py --samples 20000 --seed 0
"""

import argparse
import math

import numpy as np

import geowalk as gw


def effective_sample_size(f_values: np.ndarray, temperature: float) -> float:
    shifted = f_values - f_values.min()
    w = np.exp(-shifted / temperature)
    return float(w.sum() ** 2 / (w @ w))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=20000)
    parser.add_argument("--epsilon", type=float, default=0.1)
    parser.add_argument("--fail-prob", type=float, default=0.1)
    args = parser.parse_args()

    sphere = gw.Sphere(5)
    axis = np.array([0.0] * 5 + [1.0])
    cap = gw.SphericalCap(sphere, axis, math.pi / 3.0)
    target = gw.distance_to(sphere, axis)
    schedule = gw.make_schedule(
        gw.initial_temperature(cap, target.lipschitz),
        sphere.tangent_dim,
        args.epsilon,
        args.fail_prob,
    )

    probe = target.f_many(gw.sample_uniform_many(cap, gw.stream(args.seed), args.samples))

    print(f"body: {cap!r}")
    print(f"{schedule.phases} phases, ratio {schedule.ratio:.6f}")
    print("phase  T_hot      T_cold     warmness   3*stderr   ess")
    for k in range(schedule.phases):
        t_hot, t_cold = schedule.temps[k], schedule.temps[k + 1]
        est = gw.estimate_l2_warmness(
            target.f_many, cap, t_hot, t_cold, args.samples, gw.stream(args.seed, k)
        )
        ess = effective_sample_size(probe, t_cold)
        print(
            f"{k:<7d}{t_hot:<11.5f}{t_cold:<11.5f}"
            f"{est.value:<11.5f}{3.0 * est.stderr:<11.2e}{ess:.1f}"
        )


if __name__ == "__main__":
    main()
