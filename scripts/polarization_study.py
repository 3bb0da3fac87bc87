#!/usr/bin/env python3
"""Survey of polarization-dependent quantities on a xi grid.

Prints, for each polarization parameter: the dispersion-minimum location and
value, the full-reflection cutoff, the wavenumber below which the group
velocity drops under -c, and the zero-point plate force for a reference
geometry (d = 1, A = pi, atomic units).
"""

import argparse
import math

from quasimode import (
    PlateGeometry,
    critical_points,
    force_at_minimum,
    superluminal_backward_threshold,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=11, help="number of xi samples")
    args = parser.parse_args()

    geom = PlateGeometry(d=1.0, A=math.pi)
    print(f"{'xi':>6} {'k*/k_p':>10} {'O*/w_p':>10} {'O~/w_p':>10} "
          f"{'k(v_g=-c)':>10} {'kappa':>8} {'F*':>10}")
    for i in range(args.count):
        xi = i / (args.count - 1)
        cp = critical_points(xi)
        threshold = (
            f"{superluminal_backward_threshold(xi):10.6f}" if xi > 0 else f"{'--':>10}"
        )
        force = force_at_minimum(geom, 1.0, 1.0, xi)
        print(
            f"{xi:6.2f} {cp.k_star:10.6f} {cp.omega_star:10.6f} "
            f"{cp.omega_tilde:10.6f} {threshold} {cp.omega_star:8.5f} "
            f"{force:10.6f}"
        )


if __name__ == "__main__":
    main()
