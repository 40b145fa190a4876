"""Command line: basis, simulate, solve, verify, crosscheck, suite.

Every subcommand reads an experiment config (see :mod:`levylab.config`);
``--seed``, ``--paths``, ``--steps`` and ``--out`` override the
corresponding config values, and ``solve --penalization`` the penalty,
which no other command reads.  Outputs are CSV files with
documented header rows; exit code 0 means every gated check passed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, load_config, with_overrides
from .errors import LevyLabError
from .suites import (
    N_SCHEDULE, SuiteReport, crosscheck_run, run_suite, solve_outer_samples, suite_checks,
)
from .teugels import basis_for


def _out_dir(cfg: ExperimentConfig) -> Path:
    path = Path(cfg.out_dir or "out")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path}")


def _cmd_basis(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    spec = cfg.build_levy()
    basis = basis_for(spec)
    lines = [f"# rank={basis.rank}"]
    if spec.continuous_part:
        lines.append("# q_i(0) " + " ".join(f"{v:.17g}" for v in basis.q_zero))
    lines.append("i,atom,beta,p_i")
    for i in range(basis.rank):
        for atom, (beta, _) in enumerate(spec.atoms):
            lines.append(f"{i + 1},{atom + 1},{beta!r},{basis.jump_weights[i, atom]:.17g}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if cfg.out_dir is not None:
        _write(_out_dir(cfg) / "basis.csv", text)
    return 0


def _cmd_simulate(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    ens = replace(cfg, n_paths=min(cfg.n_paths, 64)).build_ensemble()
    n_paths = ens.n_paths
    out = _out_dir(cfg)
    t = cfg.grid.nodes
    L, eta_abs, A = ens.L, ens.eta_abs, ens.A  # derived on each read, so read once
    lines = ["path,node,t,B,L,X,eta_abs,A"]
    for p in range(n_paths):
        for k in range(cfg.grid.n_steps + 1):
            lines.append(
                f"{p},{k},{t[k]:.12g},{ens.B[k]:.12g},{L[p, k]:.12g},"
                f"{ens.X[p, k]:.12g},{eta_abs[p, k]:.12g},{A[p, k]:.12g}"
            )
    _write(out / "paths.csv", "\n".join(lines) + "\n")
    lines = ["path,step,jump_size"]
    sizes = [f"{size:.12g}" for size in ens.spec.jump_sizes.tolist()]
    for p in range(n_paths):
        # row-major nonzero: sorted by step, then by atom, one row per jump
        counts = ens.jump_counts[p]
        steps, atoms = np.nonzero(counts)
        repeats = counts[steps, atoms]
        for step, atom in zip(np.repeat(steps, repeats).tolist(), np.repeat(atoms, repeats).tolist()):
            lines.append(f"{p},{step},{sizes[atom]}")
    _write(out / "jumps.csv", "\n".join(lines) + "\n")
    lines = ["path,step,component,dH"]
    dH = ens.dH  # derived on each read, so read once
    for p in range(n_paths):
        for k in range(cfg.grid.n_steps):
            for i in range(dH.shape[2]):
                lines.append(f"{p},{k},{i + 1},{dH[p, k, i]:.12g}")
    _write(out / "teugels.csv", "\n".join(lines) + "\n")
    return 0


def _trajectory_csv(cfg: ExperimentConfig, sol, max_paths: int = 64) -> str:
    t = cfg.grid.nodes
    # evaluated from the sweep's fits at the printed paths only
    Y, Z, K = (sol.on_paths(name, slice(max_paths)) for name in ("Y", "Z", "K"))
    m = Z.shape[2]
    header = "path,node,t,Y,K" + "".join(f",Z{i + 1}" for i in range(m))
    lines = [header]
    for p in range(min(Y.shape[0], max_paths)):
        for k in range(Y.shape[1]):
            z = "".join(f",{Z[p, k, i]:.12g}" for i in range(m))
            lines.append(f"{p},{k},{t[k]:.12g},{Y[p, k]:.12g},{K[p, k]:.12g}{z}")
    return "\n".join(lines) + "\n"


def _cmd_solve(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    lines = ["penalization,y0_mean,y0_se,k_t_mean,skorokhod_residual,penetration_norm"]
    penalties = N_SCHEDULE if args.schedule else (cfg.penalization,)
    for i, penalization in enumerate(penalties):
        # only the last penalty's first sample is written as trajectories
        keep_first = args.trajectories and i == len(penalties) - 1
        y0, se, means, first = solve_outer_samples(cfg, penalization, keep_first)
        label = "projection" if penalization is None else f"{penalization:g}"
        lines.append(",".join([label] + [f"{v:.12g}" for v in (y0, se, *means)]))
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if cfg.out_dir is not None:
        _write(_out_dir(cfg) / "solve_summary.csv", text)
        if args.trajectories:
            _write(_out_dir(cfg) / "trajectories.csv", _trajectory_csv(cfg, first))
    return 0


def _emit_report(cfg: ExperimentConfig, report: SuiteReport) -> int:
    out = _out_dir(cfg)
    _write(out / "summary.csv", report.to_summary_csv())
    _write(out / "report.txt", report.to_text())
    sys.stdout.write(report.to_text())
    return 0 if report.passed else 1


def _cmd_verify(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    report = SuiteReport(rows=suite_checks("orthonormality", cfg))
    return _emit_report(cfg, report)


def _grid_csv(t: np.ndarray, x: np.ndarray, u: np.ndarray) -> str:
    """``t,x,u`` rows of a grid solution u[time node, space node], each
    value to 12 significant digits.

    The x column is formatted once; each time row is one ``%`` over a
    template holding its t and the x texts.
    """
    cells = [f"{x_value:.12g},%.12g" for x_value in x.tolist()]
    lines = ["t,x,u"]
    for t_value, row in zip(t.tolist(), u.tolist()):
        prefix = f"{t_value:.12g},"
        lines.append((prefix + ("\n" + prefix).join(cells)) % tuple(row))
    return "\n".join(lines) + "\n"


def _cmd_crosscheck(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    sol, pgrid, report = crosscheck_run(cfg)
    out = _out_dir(cfg)
    _write(out / "u_grid.csv", _grid_csv(pgrid.t, pgrid.x, pgrid.u))
    fk_lines = ["key,value"] + [f"{k},{v}" for k, v in report.rows()]
    _write(out / "fk_report.csv", "\n".join(fk_lines) + "\n")
    u00 = float(np.interp(cfg.x0, pgrid.x, pgrid.u[0]))
    print(f"y0 (monte carlo) = {sol.y0_value:.6g}")
    print(f"u(0, x0) (grid)  = {u00:.6g}")
    print(f"|gap| = {report.y0_gap:.6g}")
    return 0


def _cmd_suite(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    report = run_suite(cfg)
    return _emit_report(cfg, report)


# subcommand -> (help text, handler of the loaded config and the parsed arguments)
_COMMANDS = {
    "basis": ("print the orthonormal martingales' per-atom jump weights p_i(beta) as CSV", _cmd_basis),
    "simulate": ("write sample paths, jumps and martingale increments as CSV", _cmd_simulate),
    "solve": ("run the backward solver and write a summary CSV", _cmd_solve),
    "verify": ("run the orthonormality suite", _cmd_verify),
    "crosscheck": ("solve by Monte Carlo and finite differences and compare", _cmd_crosscheck),
    "suite": ("run the configured verification suites", _cmd_suite),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="levylab",
        description="Numerical laboratory for reflected backward doubly stochastic equations "
        "driven by finite-activity jump processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="experiment config file")
        sp.add_argument("--seed", type=int, help="override the master seed")
        sp.add_argument("--out", help="override the output directory")
        sp.add_argument("--paths", type=int, help="override the path count")
        sp.add_argument("--steps", type=int, help="override the time step count")
        if name == "solve":  # the one command that reads the penalty
            sp.add_argument("--penalization", help="override: a positive number or 'projection'")
            sp.add_argument(
                "--schedule", action="store_true",
                help="solve once per penalty level of the penalization suite's schedule",
            )
            sp.add_argument(
                "--trajectories", action="store_true",
                help="also write pathwise Y, K, Z trajectories (first 64 paths)",
            )
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = with_overrides(
            cfg,
            seed=args.seed,
            out_dir=args.out,
            n_paths=args.paths,
            n_steps=args.steps,
            penalization=getattr(args, "penalization", None),
        )
        return _COMMANDS[args.command][1](cfg, args)
    except (LevyLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
