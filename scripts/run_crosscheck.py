#!/usr/bin/env python3
"""Solve the two-atom benchmark by Monte Carlo and finite differences and
print the agreement table, including the per-component Z comparison and
the jump-weight normalization rows.

Usage: python scripts/run_crosscheck.py [--paths N] [--steps N] [--seed S]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from levylab.config import DEFAULTS
from dataclasses import replace
from levylab.paths import TimeGrid
from levylab.suites import crosscheck_run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--paths", type=int, default=20000)
    parser.add_argument("--steps", type=int, default=200)
    parser.add_argument("--seed", type=int, default=20240601)
    args = parser.parse_args()

    cfg = replace(
        DEFAULTS,
        grid=TimeGrid(1.0, args.steps),
        n_paths=args.paths,
        fd_space=200,
        fd_time=2 * args.steps,
        seed=args.seed,
    )
    start = time.perf_counter()
    sol, pgrid, report = crosscheck_run(cfg)
    elapsed = time.perf_counter() - start

    u00 = float(np.interp(cfg.x0, pgrid.x, pgrid.u[0]))
    print(f"paths={args.paths} steps={args.steps} seed={args.seed}  ({elapsed:.1f}s)")
    print(f"  Y0 (monte carlo)      = {sol.y0_value: .6f}  (se {sol.y0_se:.2e})")
    print(f"  u(0, 0) (grid)        = {u00: .6f}")
    print(f"  |gap|                 = {report.y0_gap:.6f}")
    print(f"  mean |Y - u(t, X_t)|  = {report.y_mean_gap:.6f} over {report.n_sampled} paths")
    print(f"  max  |Y - u(t, X_t)|  = {report.y_max_gap:.6f}")
    for key, value in report.rows():
        if key.startswith(("z", "jump_weight")):
            print(f"  {key:28s} = {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
