"""Verification suites: orthonormality, Skorokhod, penalization, ordering,
uniqueness and the Monte Carlo vs finite-difference crosscheck, plus the
report plumbing used by the command line.

Each suite measures a handful of numbers and gates them against fixed
tolerances.  The measurement helpers take the :class:`ExperimentConfig`
and build every ensemble with :meth:`ExperimentConfig.build_ensemble`;
suites, tests and scripts set other sizes or seeds with
``dataclasses.replace``, and :func:`benchmark_config` recasts a config as
the deterministic obstacle benchmark.  The summary CSV contains only
deterministic columns (no runtimes), so a rerun with the same config and
seed is byte-identical; runtimes go to the human-readable text report.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from operator import attrgetter

import numpy as np

from .config import ExperimentConfig
from .errors import LevyLabError, ZeroSpread
from .paths import (
    STREAM_COMPARISON,
    STREAM_LEVY,
    TimeGrid,
    derived_rng,
    levy_nodes,
    simulate_jump_counts,
    skorokhod_minimality_gap,
)
from .pdie import PidieGridSpec, representation_check, solve_obstacle_pidie
from .problems import build_problem
from .solver import (
    APRIORI_GROWTH_TOL,
    APRIORI_TAIL_TOL,
    EnsembleSolution,
    apriori_bounds,
    check_comparison_hypothesis,
    solve_penalized,
)
from .teugels import TeugelsBasis, basis_for, build_mu, martingale_steps


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


# Paths per block of terminal_martingales: a step's rows of one block stay
# in a core's L2 cache, and are reused from the heap instead of being
# mapped afresh at every step.
PATH_BLOCK = 8192


def terminal_martingales(cfg: ExperimentConfig, basis: TeugelsBasis) -> np.ndarray:
    """H(T) [requested_m, path] of the configured driver, summed one step at a time.

    Neither L nor dH is stored: the peak is the jump counts plus a few
    [path] rows.  Rows at or beyond the basis rank stay exactly zero.  The
    paths are summed in blocks of ``PATH_BLOCK``, in path order, each over
    all steps; a continuous part is drawn per block, which consumes the
    counts' stream exactly as one whole path-major draw does.
    """
    spec = cfg.build_levy()
    rng = derived_rng(cfg.seed, 0, STREAM_LEVY)
    counts = simulate_jump_counts(spec, cfg.grid, rng, cfg.n_paths)
    H_T = np.zeros((basis.requested_m, cfg.n_paths))
    for start in range(0, cfg.n_paths, PATH_BLOCK):
        block = counts[start : start + PATH_BLOCK]
        live = H_T[: basis.rank, start : start + PATH_BLOCK]
        nodes = levy_nodes(spec, cfg.grid, block, rng)
        for dH_k in martingale_steps(block, cfg.grid, spec, basis, nodes):
            live += dH_k
    return H_T


def _standard_error(values: np.ndarray, name: str) -> float:
    """Sample standard error of the mean; raises ZeroSpread when it is 0."""
    se = float(np.std(values, ddof=1) / math.sqrt(len(values)))
    if not se > 0.0:
        raise ZeroSpread(
            f"{name} has zero sample spread over {len(values)} paths, so it cannot be "
            "standardized; more paths or a larger jump intensity are needed"
        )
    return se


def measure_orthonormality(cfg: ExperimentConfig) -> dict:
    """Exact Gram defect and empirical moments of the driver's basis.

    The empirical part simulates only the configured driver and sums its
    martingales to the horizon with :func:`terminal_martingales`, which
    stores neither L nor dH.  It standardizes both the pairwise products of
    H(T) (against delta_ij * T) and the means (against zero) by their
    sample standard errors, and raises ZeroSpread when one of those is zero.
    """
    spec = cfg.build_levy()
    basis = basis_for(spec)
    gram = basis.gram_defect(build_mu(spec))
    H_T = terminal_martingales(cfg, basis)
    T = cfg.grid.horizon
    prod_dev = 0.0
    mean_dev = 0.0
    for i in range(basis.rank):
        se_i = _standard_error(H_T[i], f"H_{i + 1}(T)")
        mean_dev = max(mean_dev, abs(float(np.mean(H_T[i]))) / se_i)
        for j in range(i, basis.rank):
            prod = H_T[i] * H_T[j]
            target = T if i == j else 0.0
            se = _standard_error(prod, f"H_{i + 1}(T) H_{j + 1}(T)")
            prod_dev = max(prod_dev, abs(float(np.mean(prod)) - target) / se)
    return {
        "gram_defect": gram,
        "product_max_stddevs": prod_dev,
        "mean_max_stddevs": mean_dev,
    }


def benchmark_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """``cfg`` recast as the deterministic reflected benchmark.

    Null coefficients, terminal 0 and obstacle 1 - t on horizon 1 with 100
    steps, a unit coefficient from x0 = 0 on (-1, 1), and at most 4,000
    paths.  The driver, seed, clock, penalty schedule and the sweep's
    degree and boundary layer stay those of ``cfg``.
    """
    return replace(
        cfg,
        grid=TimeGrid(1.0, 100),
        n_paths=min(cfg.n_paths, 4000),
        problem_name="deterministic_obstacle",
        problem_params=(("level", 1.0), ("slope", 1.0)),
        theta=1.0,
        x0=0.0,
        sigma_x=("constant", 1.0),
    )


def run_benchmark_solution(cfg: ExperimentConfig) -> tuple[EnsembleSolution, dict]:
    """Solve ``benchmark_config(cfg)`` in projection mode and score it.

    The oracle is the null-driver closed form Y_t = max(xi, sup_{s>=t} S_s)
    evaluated on the grid, here 1 - t, with total push K_T = 1.
    """
    cfg = benchmark_config(cfg)
    sol = solve_penalized(cfg.build_problem(), cfg.build_solver_config(None), cfg.build_ensemble())
    obstacle_path = 1.0 - cfg.grid.nodes
    oracle = np.maximum(0.0, np.maximum.accumulate(obstacle_path[::-1])[::-1])
    metrics = {
        "y_max_error": float(np.max(np.abs(sol.Y - oracle[None, :]))),
        "k_t_error": float(np.mean(np.abs(sol.K[:, -1] - 1.0))),
        "skorokhod_residual": sol.skorokhod_residual,
    }
    return sol, metrics


def penalization_family(cfg: ExperimentConfig) -> dict[float, EnsembleSolution]:
    """Solve the configured problem on one shared ensemble at every penalty
    parameter of ``cfg.n_schedule`` in turn."""
    problem = cfg.build_problem()
    ens = cfg.build_ensemble()
    return {n: solve_penalized(problem, cfg.build_solver_config(n), ens) for n in cfg.n_schedule}


def solve_outer_samples(
    cfg: ExperimentConfig, penalization: float | None, keep_first: bool = False
) -> tuple[float, float, tuple[float, float, float], EnsembleSolution | None]:
    """Solve the configured problem over ``cfg.outer_b_samples`` outer
    Brownian samples of ``cfg.seed``, each an ensemble of ``cfg.n_paths``.

    Returns ``(y0, se, means, first)``: the aggregated initial value and
    its standard error (across samples when there are at least two, else
    the single sample's within-ensemble proxy); the path mean of K_T, the
    Skorokhod residual and the penetration norm, each averaged over
    samples; and sample 0's solution when ``keep_first``, else None.  Only
    scalars are kept of the other samples: one solution is alive at a time.
    """
    problem = cfg.build_problem()
    config = cfg.build_solver_config(penalization)
    rows, first = [], None
    for b in range(cfg.outer_b_samples):
        sol = solve_penalized(problem, config, cfg.build_ensemble(b))
        k_t = float(np.mean(sol.K[:, -1]))
        rows.append((sol.y0_value, sol.y0_se, k_t, sol.skorokhod_residual, sol.penetration_norm))
        first = sol if keep_first and b == 0 else first
        del sol  # before the next sample's ensemble and sweep are built
    y0s, ses, *per_sample = map(np.array, zip(*rows))
    if len(y0s) > 1:
        y0, se = float(np.mean(y0s)), float(np.std(y0s, ddof=1) / math.sqrt(len(y0s)))
    else:
        y0, se = float(y0s[0]), float(ses[0])
    return y0, se, tuple(float(np.mean(v)) for v in per_sample), first


def comparison_pair(cfg: ExperimentConfig):
    """Solve two problems differing only in the terminal level (1 and 0) on
    the configured ensemble, in projection mode, and return the hypothesis
    report and the fraction of paths where the ordering is violated.

    The driver is y-linear (z-independent), so the jump-size hypothesis
    holds with all slopes identically zero.  Requires a driver without a
    continuous part.
    """
    if cfg.build_levy().continuous_part:
        raise LevyLabError("the comparison check requires sigma = 0 (no continuous part)")
    hi, lo = (
        build_problem("linear", {"l0": level, "fy": -0.1, "phy": -0.5}, cfg.theta)
        for level in (1.0, 0.0)
    )
    ens = cfg.build_ensemble()
    config = cfg.build_solver_config(None)
    sol_hi = solve_penalized(hi, config, ens)
    sol_lo = solve_penalized(lo, config, ens)
    report = check_comparison_hypothesis(sol_hi, sol_lo, lo, ens)
    violations = float(np.mean(sol_hi.Y < sol_lo.Y - 0.01))
    return report, violations


def crosscheck_run(cfg: ExperimentConfig):
    """Solve the configured problem by Monte Carlo and on the grid.

    Uses projection mode, the deterministic grid oracle (g must vanish)
    and always the local-time clock, the one the oracle's overshoot source
    phi dA integrates against; returns (solution, grid solution, report).
    """
    ens = replace(cfg, a_mode="local-time").build_ensemble()
    problem = cfg.build_problem()
    sigma_x = cfg.build_sigma_x()
    sol = solve_penalized(problem, cfg.build_solver_config(None), ens)
    grid_spec = PidieGridSpec(
        theta=cfg.theta, n_space=cfg.fd_space, horizon=cfg.grid.horizon, n_time=cfg.fd_time
    )
    pgrid = solve_obstacle_pidie(
        problem, ens.spec, ens.basis, grid_spec, mode="deterministic", sigma_x=sigma_x
    )
    report = representation_check(pgrid, problem, ens, sol, sigma_x=sigma_x)
    return sol, pgrid, report


# ---------------------------------------------------------------------------
# suite wrappers


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _suite_orthonormality(cfg: ExperimentConfig) -> list[CheckResult]:
    measured, elapsed = _timed(lambda: measure_orthonormality(cfg))
    return [
        CheckResult.gate("orthonormality", check, measured[key], tol, direction, cfg.seed, elapsed)
        for check, key, tol, direction in (
            ("gram_defect", "gram_defect", 1e-10, "lt"),
            ("product_moment_stddevs", "product_max_stddevs", 4.0, "le"),
            ("mean_stddevs", "mean_max_stddevs", 4.0, "le"),
        )
    ]


def _suite_skorokhod(cfg: ExperimentConfig) -> list[CheckResult]:
    seed = cfg.seed
    rows: list[CheckResult] = []

    def _measure_gap():
        ens = replace(cfg, n_paths=min(cfg.n_paths, 1000)).build_ensemble()
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

    (_, metrics), elapsed = _timed(lambda: run_benchmark_solution(cfg))
    for check, key in (
        ("benchmark_y_error", "y_max_error"),
        ("benchmark_k_error", "k_t_error"),
        ("benchmark_residual", "skorokhod_residual"),
    ):
        rows.append(CheckResult.gate("skorokhod", check, metrics[key], 0.02, "le", seed, elapsed))
    return rows


def _suite_penalization(cfg: ExperimentConfig) -> list[CheckResult]:
    seed = cfg.seed
    schedule = cfg.n_schedule
    rows: list[CheckResult] = []

    bench = benchmark_config(cfg)
    family, elapsed = _timed(lambda: penalization_family(bench))
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
    bound = apriori_bounds(family, bench.build_problem())
    rows.append(
        CheckResult.gate(
            "penalization", "apriori_growth", bound.growth_ratio, APRIORI_GROWTH_TOL, "le", seed, elapsed
        )
    )
    rows.append(
        CheckResult.gate(
            "penalization", "apriori_tail_plateau", bound.tail_ratio, APRIORI_TAIL_TOL, "le", seed, elapsed
        )
    )

    def _stochastic_family():
        # One solution alive at a time: at example51 size each holds ~200 MB.
        problem, ens = cfg.build_problem(), cfg.build_ensemble()
        y0_and_se = attrgetter("y0_value", "y0_se")
        return [y0_and_se(solve_penalized(problem, cfg.build_solver_config(n), ens)) for n in schedule]

    scalars, elapsed = _timed(_stochastic_family)
    y0s = [y0 for y0, _ in scalars]
    se = max(scalars[0][1], 1e-12)
    min_std_step = min((y0s[i + 1] - y0s[i]) / se for i in range(len(y0s) - 1))
    rows.append(
        CheckResult.gate("penalization", "y0_monotone_stochastic_stddevs", min_std_step, -2.0, "ge", seed, elapsed)
    )
    return rows


def _suite_comparison(cfg: ExperimentConfig) -> list[CheckResult]:
    seed = cfg.seed
    (report, violations), elapsed = _timed(lambda: comparison_pair(cfg))
    return [
        CheckResult.gate("comparison", "hypothesis_min_sum", report.min_sum, -1.0, "gt", seed, elapsed),
        CheckResult.gate("comparison", "ordering_violation_fraction", violations, 0.01, "le", seed, elapsed),
    ]


def _suite_uniqueness(cfg: ExperimentConfig) -> list[CheckResult]:
    outer = max(cfg.outer_b_samples, 4)
    per_sample = max(cfg.n_paths // outer, 10 * cfg.build_solver_config(None).basis_dim)

    def _measure():
        values = []
        for seed in (cfg.seed, cfg.seed + 1):
            sample = replace(cfg, n_paths=per_sample, seed=seed, outer_b_samples=outer)
            y0, se, _, _ = solve_outer_samples(sample, None)
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
