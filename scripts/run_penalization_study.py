#!/usr/bin/env python3
"""Penalty-parameter study on the deterministic reflected benchmark.

Prints, per penalty level n: the initial value, the total push K_T, the
obstacle penetration norm, the complementarity gap, and the closed-form
reference K_T(n) = 1 - (1 - e^{-n})/n of the limiting penalty ODE, plus a
1/n Richardson extrapolation of the initial value.

Usage: python scripts/run_penalization_study.py [--paths N] [--seed S]
"""

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from levylab.config import DEFAULTS
from levylab.suites import apriori_bounds, benchmark_config, gate, passes, penalization_family


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--paths", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=44)
    parser.add_argument("--schedule", default="4,16,64,256")
    args = parser.parse_args()
    schedule = tuple(float(v) for v in args.schedule.split(","))

    # the two-atom driver of the defaults, on the benchmark's 100-step grid
    cfg = replace(
        benchmark_config(DEFAULTS), n_paths=args.paths, seed=args.seed, n_schedule=schedule
    )
    family = penalization_family(cfg)

    print(f"{'n':>8s} {'Y0':>10s} {'K_T':>10s} {'K_T (ode)':>10s} "
          f"{'penetration':>12s} {'residual':>10s}")
    for n in schedule:
        sol = family[n]
        k_t = float(np.mean(sol.K[:, -1]))
        k_ode = 1.0 - (1.0 - math.exp(-n)) / n
        print(f"{n:8.0f} {sol.y0_value:10.6f} {k_t:10.6f} {k_ode:10.6f} "
              f"{sol.penetration_norm:12.3e} {sol.skorokhod_residual:10.3e}")

    n1, n2 = schedule[-2], schedule[-1]
    y1, y2 = family[n1].y0_value, family[n2].y0_value
    extrapolated = (n2 * y2 - n1 * y1) / (n2 - n1)
    print(f"\n1/n Richardson extrapolation of Y0: {extrapolated:.6f}")

    norms, tail, growth = apriori_bounds(family)
    # the penalization suite's two a-priori gates
    bounded = passes(growth, *gate("penalization", "apriori_growth")) and passes(
        tail, *gate("penalization", "apriori_tail_plateau")
    )
    print("energy norms per n:", ", ".join(f"{v:.4f}" for v in norms))
    print(f"bounded family: {bounded} (tail ratio {tail:.3f}, growth {growth:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
