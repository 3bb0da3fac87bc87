#!/usr/bin/env python3
"""Cutoff-convergence study of the number-basis oracle.

For a configurable parameter point, runs the oracle (verify_spectrum) pinned
to each cutoff of a doubling ladder and prints the worst relative deviation
of the lowest levels from the analytic spectrum.  Strong coupling at low
frequency squeezes the ground state hard and makes the truncation error
visible; the defaults start there.
"""

import argparse

from quasimode import ModelParams, Momentum, energy_level, verify_spectrum


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--xi", type=float, default=0.0)
    parser.add_argument("--omega", type=float, default=0.3)
    parser.add_argument("--omega-p", type=float, default=3.0)
    parser.add_argument("--p", type=float, nargs=3, default=(0.2, 0.1, 0.05),
                        metavar=("P_MAJOR", "P_MINOR", "P_PERP"))
    parser.add_argument("--levels", type=int, default=4)
    parser.add_argument("--max-cutoff", type=int, default=512)
    args = parser.parse_args()

    params = ModelParams(xi=args.xi, omega=args.omega, omega_p=args.omega_p)
    p = Momentum(*args.p)
    analytic = [energy_level(params, p, n).energy for n in range(args.levels)]
    print("analytic levels:", "  ".join(f"{e:.12f}" for e in analytic))
    print(f"{'cutoff':>8} {'max rel deviation':>20}")

    cutoff = 16
    while cutoff <= args.max_cutoff:
        report = verify_spectrum(
            params, p, n_levels=args.levels, cutoff_start=cutoff, cutoff_cap=cutoff
        )
        print(f"{cutoff:8d} {report.max_rel_err:20.3e}")
        cutoff *= 2


if __name__ == "__main__":
    main()
