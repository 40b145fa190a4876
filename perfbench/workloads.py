"""The four benchmark workloads and their output checks.

Each workload has a ``setup`` (import levylab, load and override the
config; the caller times it as ``setup_s``), a ``reset`` run before the
clock starts, a ``call`` that is one timed iteration, and a ``check`` that
validates the iteration's outputs after the clock stops.  Every call into levylab goes through a module attribute
looked up at call time, so the tracer's wrappers see it.  Nothing here
imports numpy or levylab at module level: that cost belongs to ``setup_s``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import math
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path

MC_FD_GAP_GATE = 0.05
TINY_PATHS = 200
TINY_STEPS = 10
TINY_FD = (20, 20)


@dataclass
class Outcome:
    """What the benchmark checked on one iteration."""

    failures: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    values: dict[str, float] = field(default_factory=dict)
    checks_attempted: int = 0
    checks_failed: int = 0
    bytes_written: int = 0


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tiny_config(source: Path, out: Path) -> Path:
    """Copy a config with the FD grid shrunk to the smoke-test size."""
    text = source.read_text(encoding="utf-8")
    text = re.sub(r"(?m)^n_space\s*=.*$", f"n_space = {TINY_FD[0]}", text)
    text = re.sub(r"(?m)^n_time\s*=.*$", f"n_time = {TINY_FD[1]}", text)
    path = out / f"tiny_{source.name}"
    path.write_text(text, encoding="utf-8")
    return path


class CliWorkload:
    """One ``levylab <command> --config <cfg> --seed <seed>`` per iteration."""

    def __init__(self, name: str, command: str, config: str, outputs: tuple[str, ...]):
        self.name = name
        self.command = command
        self.config = config
        self.outputs = outputs

    def setup(self, root: Path, seed: int, tiny: bool, out: Path) -> dict:
        importlib.import_module("levylab.cli")
        config = importlib.import_module("levylab.config")
        config_path = root / self.config
        argv = [self.command, "--seed", str(seed), "--out", str(out / "cli")]
        overrides = {}
        if tiny:
            config_path = _tiny_config(config_path, out)
            argv += ["--paths", str(TINY_PATHS), "--steps", str(TINY_STEPS)]
            overrides = {"n_paths": TINY_PATHS, "n_steps": TINY_STEPS}
        argv += ["--config", str(config_path)]
        config.with_overrides(config.load_config(str(config_path)), seed=seed, **overrides)
        return {"argv": argv, "out": out / "cli"}

    def reset(self, state: dict) -> None:
        shutil.rmtree(state["out"], ignore_errors=True)

    def call(self, state: dict):
        cli = importlib.import_module("levylab.cli")
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(state["argv"])

    def check(self, state: dict, exit_code) -> Outcome:
        outcome = Outcome()
        out = state["out"]
        if exit_code != 0:
            outcome.failures.append(f"exit code {exit_code}")
        files = sorted(p for p in out.iterdir() if p.is_file()) if out.is_dir() else []
        outcome.bytes_written = sum(p.stat().st_size for p in files)
        for path in files:
            if path.suffix == ".csv":
                outcome.digests[path.name] = _sha256_file(path)
        summary = out / "summary.csv"
        if summary.exists():
            with summary.open(newline="", encoding="utf-8") as handle:
                for row in csv.DictReader(handle):
                    outcome.checks_attempted += 1
                    if row["status"] != "pass":
                        outcome.checks_failed += 1
                        outcome.failures.append(f"gate {row['suite']}/{row['check']} = {row['value']}")
                    if row["suite"] == "feynman_kac" and row["check"] == "mc_fd_gap":
                        outcome.values["mc_fd_gap"] = float(row["value"])
        fk = out / "fk_report.csv"
        if fk.exists():
            with fk.open(newline="", encoding="utf-8") as handle:
                report = {row["key"]: row["value"] for row in csv.DictReader(handle)}
            gap = float(report["y0_gap"])
            outcome.values["mc_fd_gap"] = gap
            if not gap <= MC_FD_GAP_GATE:
                outcome.failures.append(f"mc_fd_gap {gap} > {MC_FD_GAP_GATE}")
        for name in self.outputs:
            if name not in outcome.digests:
                outcome.failures.append(f"missing output {name}")
        return outcome


class FdLadder:
    """The FD oracle for example51 on a ladder of refined grids."""

    name = "fd-ladder"
    config = "configs/example51.cfg"
    ladder = ((200, 400), (400, 800), (800, 1600), (1600, 3200))

    def setup(self, root: Path, seed: int, tiny: bool, out: Path) -> dict:
        config = importlib.import_module("levylab.config")
        importlib.import_module("levylab.pdie")
        teugels = importlib.import_module("levylab.teugels")
        cfg = config.with_overrides(config.load_config(str(root / self.config)), seed=seed)
        spec = cfg.build_levy()
        return {
            "cfg": cfg,
            "spec": spec,
            "problem": cfg.build_problem(),
            "basis": teugels.basis_for(spec),
            "sigma_x": cfg.build_sigma_x(),
            "ladder": (TINY_FD, (2 * TINY_FD[0], 2 * TINY_FD[1])) if tiny else self.ladder,
        }

    def reset(self, state: dict) -> None:
        pass

    def call(self, state: dict):
        pdie = importlib.import_module("levylab.pdie")
        cfg = state["cfg"]
        args = (state["problem"], state["spec"], state["basis"])
        results = []
        for n_space, n_time in state["ladder"]:
            grid_spec = pdie.PidieGridSpec(
                theta=cfg.theta, n_space=n_space, horizon=cfg.grid.horizon, n_time=n_time
            )
            pgrid = pdie.solve_obstacle_pidie(
                *args, grid_spec, mode="deterministic", sigma_x=state["sigma_x"]
            )
            defect = pdie.complementarity_defect(pgrid, *args, sigma_x=state["sigma_x"])
            results.append((n_space, n_time, pgrid, defect))
        return results

    def check(self, state: dict, results) -> Outcome:
        import numpy as np

        outcome = Outcome()
        x0 = state["cfg"].x0
        digest = hashlib.sha256()
        u00 = []
        for n_space, n_time, pgrid, defect in results:
            digest.update(pgrid.u.tobytes())
            value = float(pgrid.u[0, int(np.argmin(np.abs(pgrid.x - x0)))])
            u00.append(value)
            outcome.values[f"u00_{n_space}x{n_time}"] = value
            outcome.values[f"defect_{n_space}x{n_time}"] = float(defect)
            if not (math.isfinite(value) and math.isfinite(defect)):
                outcome.failures.append(f"non-finite result at {n_space}x{n_time}")
        outcome.digests["u_ladder"] = digest.hexdigest()
        if not all(a < b for a, b in zip(u00, u00[1:])):
            outcome.failures.append(f"u(0, x0) not increasing along the ladder: {u00}")
        return outcome


WORKLOADS = {
    w.name: w
    for w in (
        CliWorkload("crosscheck-example51", "crosscheck", "configs/example51.cfg",
                    ("u_grid.csv", "fk_report.csv")),
        CliWorkload("suite-quick", "suite", "configs/quick_suite.cfg", ("summary.csv",)),
        CliWorkload("verify-orthonormality", "verify", "configs/orthonormality.cfg",
                    ("summary.csv",)),
        FdLadder(),
    )
}
