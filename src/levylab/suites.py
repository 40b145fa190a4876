"""Verification suites: orthonormality, Skorokhod, penalization, ordering,
uniqueness and the Monte Carlo vs finite-difference crosscheck, plus the
report plumbing used by the command line.

Each suite measures a handful of numbers and gates them against fixed
tolerances; the measurement helpers are importable on their own so tests
can run them at criterion-specific sizes.  The summary CSV contains only
deterministic columns (no runtimes), so a rerun with the same config and
seed is byte-identical; runtimes go to the human-readable text report.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import ExperimentConfig
from .errors import LevyLabError
from .levy import ValidatedLevySpec
from .paths import (
    STREAM_COMPARISON,
    TimeGrid,
    derived_rng,
    simulate_ensemble,
)
from .pdie import PidieGridSpec, representation_check, solve_obstacle_pidie
from .problems import ProblemSpec, build_problem
from .solver import (
    EnsembleSolution,
    SolverConfig,
    apriori_bounds,
    check_comparison_hypothesis,
    solve_penalized,
)
from .teugels import basis_for, build_mu


@dataclass(frozen=True)
class CheckResult:
    """One gated measurement: pass iff value `direction` tolerance."""

    suite: str
    check: str
    status: str
    value: float
    tolerance: float
    direction: str  # le | lt | ge | gt
    seed: int
    runtime: float

    @staticmethod
    def gate(suite, check, value, tolerance, direction, seed, runtime) -> "CheckResult":
        ok = {
            "le": value <= tolerance,
            "lt": value < tolerance,
            "ge": value >= tolerance,
            "gt": value > tolerance,
        }[direction]
        return CheckResult(
            suite=suite,
            check=check,
            status="pass" if ok else "fail",
            value=float(value),
            tolerance=float(tolerance),
            direction=direction,
            seed=seed,
            runtime=runtime,
        )


@dataclass
class SuiteReport:
    rows: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(r.status == "pass" for r in self.rows)

    def to_summary_csv(self) -> str:
        lines = ["suite,check,status,value,tolerance,direction,seed"]
        for r in self.rows:
            lines.append(
                f"{r.suite},{r.check},{r.status},{r.value:.12g},{r.tolerance:.12g},"
                f"{r.direction},{r.seed}"
            )
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = ["verification report", "==================="]
        for r in self.rows:
            cmp_sym = {"le": "<=", "lt": "<", "ge": ">=", "gt": ">"}[r.direction]
            lines.append(
                f"[{r.status.upper():4s}] {r.suite}/{r.check}: "
                f"{r.value:.6g} {cmp_sym} {r.tolerance:.6g} "
                f"(seed={r.seed}, {r.runtime:.2f}s)"
            )
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# measurement helpers


def measure_orthonormality(
    spec: ValidatedLevySpec,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    extra_rows: int = 2,
) -> dict:
    """Exact Gram defect, degenerate-row support, and empirical moments.

    The empirical part simulates ``n_paths`` driver paths, accumulates the
    martingales to the horizon and standardizes both the pairwise products
    (against delta_ij * T) and the means (against zero) by their sample
    standard errors.
    """
    structural = spec.m_atoms + (1 if spec.continuous_part else 0)
    basis = basis_for(spec, structural + extra_rows)
    mu = build_mu(spec) if structural else None
    gram = basis.gram_defect(mu) if mu is not None else 0.0
    from .paths import STREAM_LEVY, assemble_levy_paths, simulate_jump_counts
    from .teugels import teugels_increments

    rng = derived_rng(seed, 0, STREAM_LEVY)
    counts = simulate_jump_counts(spec, grid, rng, n_paths)
    L = assemble_levy_paths(spec, grid, counts, rng)
    dH = teugels_increments(counts, grid, spec, basis, levy_path=L)
    degenerate_max = float(np.max(np.abs(dH[:, :, basis.rank :]))) if extra_rows else 0.0
    H_T = dH.sum(axis=1)  # [paths, m]
    T = grid.horizon
    prod_dev = 0.0
    mean_dev = 0.0
    for i in range(basis.rank):
        mean_i = float(np.mean(H_T[:, i]))
        se_i = float(np.std(H_T[:, i], ddof=1) / math.sqrt(n_paths))
        mean_dev = max(mean_dev, abs(mean_i) / se_i)
        for j in range(i, basis.rank):
            prod = H_T[:, i] * H_T[:, j]
            target = T if i == j else 0.0
            se = float(np.std(prod, ddof=1) / math.sqrt(n_paths))
            prod_dev = max(prod_dev, abs(float(np.mean(prod)) - target) / se)
    return {
        "basis": basis,
        "gram_defect": gram,
        "degenerate_max_abs": degenerate_max,
        "product_max_stddevs": prod_dev,
        "mean_max_stddevs": mean_dev,
    }


def deterministic_benchmark_problem(theta: float = 1.0) -> ProblemSpec:
    """Null coefficients, terminal 0, obstacle 1 - t on horizon 1."""
    return build_problem("deterministic_obstacle", {"level": 1.0, "slope": 1.0}, theta)


def run_benchmark_solution(
    spec: ValidatedLevySpec,
    n_paths: int,
    seed: int,
    penalization: float | None = None,
    n_steps: int = 100,
    degree: int = 4,
) -> tuple[EnsembleSolution, dict]:
    """Solve the deterministic reflected benchmark and score it.

    The oracle is the null-driver closed form Y_t = max(xi, sup_{s>=t} S_s)
    evaluated on the grid, here 1 - t, with total push K_T = 1.
    """
    problem = deterministic_benchmark_problem()
    grid = TimeGrid(1.0, n_steps)
    basis = basis_for(spec)
    ens = simulate_ensemble(spec, grid, basis, n_paths, seed, theta=problem.theta, x0=0.0)
    sol = solve_penalized(problem, SolverConfig(penalization=penalization, degree=degree), ens)
    t = grid.nodes
    obstacle_path = 1.0 - t
    oracle = np.maximum(0.0, np.maximum.accumulate(obstacle_path[::-1])[::-1])
    metrics = {
        "y_max_error": float(np.max(np.abs(sol.Y - oracle[None, :]))),
        "k_t_error": float(np.mean(np.abs(sol.K[:, -1] - 1.0))),
        "skorokhod_residual": sol.skorokhod_residual,
    }
    return sol, metrics


def penalization_family(
    problem: ProblemSpec,
    spec: ValidatedLevySpec,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    schedule: tuple[float, ...],
    x0: float = 0.0,
    sigma_x=None,
    a_mode: str = "local-time",
    solver_config: Callable[[float], SolverConfig] | None = None,
) -> dict[float, EnsembleSolution]:
    """Solve one shared ensemble under every penalty parameter in turn.

    ``solver_config(n)`` gives the sweep's knobs at penalty n, for example
    :meth:`ExperimentConfig.build_solver_config`; the default is
    ``SolverConfig(penalization=n)``.
    """
    solver_config = solver_config or (lambda n: SolverConfig(penalization=n))
    basis = basis_for(spec)
    ens = simulate_ensemble(
        spec, grid, basis, n_paths, seed, theta=problem.theta, x0=x0, sigma_x=sigma_x, a_mode=a_mode
    )
    return {n: solve_penalized(problem, solver_config(n), ens) for n in schedule}


def solve_outer_samples(
    problem: ProblemSpec,
    spec: ValidatedLevySpec,
    grid: TimeGrid,
    config: SolverConfig,
    n_paths: int,
    seed: int,
    n_outer: int,
    x0: float = 0.0,
    sigma_x=None,
    a_mode: str = "local-time",
) -> tuple[list[EnsembleSolution], float, float]:
    """Run the solver over ``n_outer`` outer Brownian samples of ``seed``.

    Each sample is an ensemble of ``n_paths`` paths.  Returns the
    per-sample solutions plus the aggregated initial value and its standard
    error (across samples when there are at least two, else the single
    sample's within-ensemble proxy).
    """
    basis = basis_for(spec)
    sols = []
    for b in range(n_outer):
        ens = simulate_ensemble(
            spec,
            grid,
            basis,
            n_paths,
            seed,
            theta=problem.theta,
            x0=x0,
            sigma_x=sigma_x,
            a_mode=a_mode,
            outer_index=b,
        )
        sols.append(solve_penalized(problem, config, ens))
    y0s = np.array([s.y0_value for s in sols])
    if len(y0s) > 1:
        y0 = float(np.mean(y0s))
        se = float(np.std(y0s, ddof=1) / math.sqrt(len(y0s)))
    else:
        y0 = float(y0s[0])
        se = sols[0].y0_se
    return sols, y0, se


def comparison_pair(
    spec: ValidatedLevySpec,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    theta: float = 1.0,
    degree: int = 4,
    terminal_hi: float = 1.0,
    terminal_lo: float = 0.0,
):
    """Solve two problems differing only in the terminal level on one ensemble.

    The driver is y-linear (z-independent), so the jump-size hypothesis
    holds with all slopes identically zero.  Requires a driver without a
    continuous part.
    """
    if spec.continuous_part:
        raise LevyLabError("the ordering check requires a driver with no continuous part")
    hi = build_problem("linear", {"l0": terminal_hi, "fy": -0.1, "phy": -0.5}, theta)
    lo = build_problem("linear", {"l0": terminal_lo, "fy": -0.1, "phy": -0.5}, theta)
    basis = basis_for(spec)
    ens = simulate_ensemble(spec, grid, basis, n_paths, seed, theta=theta, x0=0.0)
    config = SolverConfig(penalization=None, degree=degree)
    sol_hi = solve_penalized(hi, config, ens)
    sol_lo = solve_penalized(lo, config, ens)
    report = check_comparison_hypothesis(sol_hi, sol_lo, lo, ens)
    violations = float(np.mean(sol_hi.Y < sol_lo.Y - 0.01))
    return sol_hi, sol_lo, report, violations


def crosscheck_run(cfg: ExperimentConfig):
    """Solve the configured problem by Monte Carlo and on the grid.

    Uses projection mode, the local-time clock and the deterministic grid
    oracle (g must vanish); returns (solution, grid solution, report).
    """
    spec = cfg.build_levy()
    problem = cfg.build_problem()
    sigma_x = cfg.build_sigma_x()
    basis = basis_for(spec)
    ens = simulate_ensemble(
        spec,
        cfg.grid,
        basis,
        cfg.n_paths,
        cfg.seed,
        theta=cfg.theta,
        x0=cfg.x0,
        sigma_x=sigma_x,
        a_mode="local-time",
    )
    sol = solve_penalized(problem, cfg.build_solver_config(None), ens)
    grid_spec = PidieGridSpec(
        theta=cfg.theta, n_space=cfg.fd_space, horizon=cfg.grid.horizon, n_time=cfg.fd_time
    )
    pgrid = solve_obstacle_pidie(problem, spec, basis, grid_spec, mode="deterministic", sigma_x=sigma_x)
    report = representation_check(pgrid, basis, spec, problem, ens, sol, sigma_x=sigma_x)
    return sol, pgrid, report


# ---------------------------------------------------------------------------
# suite wrappers


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _suite_orthonormality(cfg: ExperimentConfig) -> list[CheckResult]:
    spec = cfg.build_levy()
    seed = cfg.seed
    measured, elapsed = _timed(
        lambda: measure_orthonormality(spec, cfg.grid, cfg.n_paths, seed)
    )
    gate = CheckResult.gate
    return [
        gate("orthonormality", "gram_defect", measured["gram_defect"], 1e-10, "lt", seed, elapsed),
        gate(
            "orthonormality",
            "degenerate_rows_zero",
            measured["degenerate_max_abs"],
            0.0,
            "le",
            seed,
            elapsed,
        ),
        gate(
            "orthonormality",
            "product_moment_stddevs",
            measured["product_max_stddevs"],
            4.0,
            "le",
            seed,
            elapsed,
        ),
        gate("orthonormality", "mean_stddevs", measured["mean_max_stddevs"], 4.0, "le", seed, elapsed),
    ]


def _suite_skorokhod(cfg: ExperimentConfig) -> list[CheckResult]:
    from .paths import skorokhod_minimality_gap

    spec = cfg.build_levy()
    seed = cfg.seed
    basis = basis_for(spec)
    rows: list[CheckResult] = []

    def _measure_gap():
        n_paths = min(cfg.n_paths, 1000)
        ens = simulate_ensemble(
            spec, cfg.grid, basis, n_paths, seed, theta=cfg.theta, x0=cfg.x0,
            sigma_x=cfg.build_sigma_x(),
        )
        rng = derived_rng(seed, 0, STREAM_COMPARISON)
        V = rng.uniform(-cfg.theta, cfg.theta, size=ens.X.shape)
        gap = skorokhod_minimality_gap(ens.X, V, ens.eta_abs, cfg.theta)
        interior = np.abs(ens.X[:, 1:]) < cfg.theta
        support = float(np.max(np.where(interior, np.diff(ens.eta_abs, axis=1), 0.0)))
        return gap, support

    (gap, support), elapsed = _timed(_measure_gap)
    rows.append(CheckResult.gate("skorokhod", "minimality_gap", gap, -1e-12, "ge", seed, elapsed))
    rows.append(
        CheckResult.gate("skorokhod", "local_time_support", support, 0.0, "le", seed, elapsed)
    )

    (_, metrics), elapsed = _timed(
        lambda: run_benchmark_solution(spec, min(cfg.n_paths, 4000), seed, degree=cfg.degree)
    )
    rows.append(
        CheckResult.gate("skorokhod", "benchmark_y_error", metrics["y_max_error"], 0.02, "le", seed, elapsed)
    )
    rows.append(
        CheckResult.gate("skorokhod", "benchmark_k_error", metrics["k_t_error"], 0.02, "le", seed, elapsed)
    )
    rows.append(
        CheckResult.gate(
            "skorokhod", "benchmark_residual", metrics["skorokhod_residual"], 0.02, "le", seed, elapsed
        )
    )
    return rows


def _suite_penalization(cfg: ExperimentConfig) -> list[CheckResult]:
    spec = cfg.build_levy()
    seed = cfg.seed
    schedule = cfg.n_schedule
    rows: list[CheckResult] = []

    def _benchmark_family():
        problem = deterministic_benchmark_problem()
        grid = TimeGrid(1.0, 100)
        return problem, penalization_family(
            problem, spec, grid, min(cfg.n_paths, 4000), seed, schedule,
            solver_config=cfg.build_solver_config,
        )

    (problem, family), elapsed = _timed(_benchmark_family)
    pens = [family[n].penetration_norm for n in schedule]
    ratios = [
        pens[i + 1] / pens[i] if pens[i] > 0 else (0.0 if pens[i + 1] == 0 else math.inf)
        for i in range(len(pens) - 1)
    ]
    rows.append(
        CheckResult.gate("penalization", "penetration_decreasing", max(ratios), 1.0, "lt", seed, elapsed)
    )
    reduction = pens[-1] / pens[0] if pens[0] > 0 else 0.0
    rows.append(
        CheckResult.gate("penalization", "penetration_reduction", reduction, 0.1, "le", seed, elapsed)
    )
    y0s = [family[n].y0_value for n in schedule]
    min_step = min(y0s[i + 1] - y0s[i] for i in range(len(y0s) - 1))
    rows.append(
        CheckResult.gate("penalization", "y0_monotone_benchmark", min_step, -1e-10, "ge", seed, elapsed)
    )
    bound = apriori_bounds(family, problem)
    rows.append(
        CheckResult.gate("penalization", "apriori_growth", bound.growth_ratio, 4.0, "le", seed, elapsed)
    )
    rows.append(
        CheckResult.gate("penalization", "apriori_tail_plateau", bound.tail_ratio, 1.25, "le", seed, elapsed)
    )

    def _stochastic_family():
        problem51 = build_problem("example51", {}, cfg.theta)
        return penalization_family(
            problem51,
            spec,
            cfg.grid,
            cfg.n_paths,
            seed,
            schedule,
            x0=cfg.x0,
            sigma_x=cfg.build_sigma_x(),
            solver_config=cfg.build_solver_config,
        )

    family51, elapsed = _timed(_stochastic_family)
    y0s = [family51[n].y0_value for n in schedule]
    se = max(family51[schedule[0]].y0_se, 1e-12)
    min_std_step = min((y0s[i + 1] - y0s[i]) / se for i in range(len(y0s) - 1))
    rows.append(
        CheckResult.gate("penalization", "y0_monotone_stochastic_stddevs", min_std_step, -2.0, "ge", seed, elapsed)
    )
    return rows


def _suite_comparison(cfg: ExperimentConfig) -> list[CheckResult]:
    spec = cfg.build_levy()
    if spec.continuous_part:
        raise LevyLabError("the comparison suite requires sigma = 0 (no continuous part)")
    seed = cfg.seed
    (result, elapsed) = _timed(
        lambda: comparison_pair(spec, cfg.grid, cfg.n_paths, seed, theta=cfg.theta, degree=cfg.degree)
    )
    _, _, report, violations = result
    return [
        CheckResult.gate("comparison", "hypothesis_min_sum", report.min_sum, -1.0, "gt", seed, elapsed),
        CheckResult.gate("comparison", "ordering_violation_fraction", violations, 0.01, "le", seed, elapsed),
    ]


def _suite_uniqueness(cfg: ExperimentConfig) -> list[CheckResult]:
    spec = cfg.build_levy()
    problem = cfg.build_problem()
    outer = max(cfg.outer_b_samples, 4)
    config = cfg.build_solver_config(None)
    per_sample = max(cfg.n_paths // outer, 10 * config.basis_dim)

    def _measure():
        values = []
        for seed in (cfg.seed, cfg.seed + 1):
            _, y0, se = solve_outer_samples(
                problem, spec, cfg.grid, config, per_sample, seed, outer,
                x0=cfg.x0, sigma_x=cfg.build_sigma_x(),
            )
            values.append((y0, se))
        (y0a, sea), (y0b, seb) = values
        return abs(y0a - y0b) / math.sqrt(sea**2 + seb**2 + 1e-300)

    gap_stddevs, elapsed = _timed(_measure)
    return [
        CheckResult.gate("uniqueness", "y0_seed_gap_stddevs", gap_stddevs, 4.0, "le", cfg.seed, elapsed)
    ]


def _suite_feynman_kac(cfg: ExperimentConfig) -> list[CheckResult]:
    (result, elapsed) = _timed(lambda: crosscheck_run(cfg))
    _, _, report = result
    return [
        CheckResult.gate("feynman_kac", "mc_fd_gap", report.y0_gap, 0.05, "le", cfg.seed, elapsed)
    ]


_SUITES = {
    "orthonormality": _suite_orthonormality,
    "skorokhod": _suite_skorokhod,
    "penalization": _suite_penalization,
    "comparison": _suite_comparison,
    "uniqueness": _suite_uniqueness,
    "feynman_kac": _suite_feynman_kac,
}


def suite_checks(name: str, cfg: ExperimentConfig) -> list[CheckResult]:
    """Run one named suite on ``cfg`` and return its gated checks."""
    if name not in _SUITES:
        raise LevyLabError(f"unknown suite {name!r}; known: {list(_SUITES)}")
    return _SUITES[name](cfg)


def run_suite(cfg: ExperimentConfig) -> SuiteReport:
    """Execute the config's selected suites in a fixed order."""
    rows: list[CheckResult] = []
    for name in _SUITES:
        if name in cfg.checks:
            rows.extend(suite_checks(name, cfg))
    return SuiteReport(rows=rows)
