"""Verification suites: orthonormality, Skorokhod, penalization, ordering,
uniqueness and the Monte Carlo vs finite-difference crosscheck, plus the
report plumbing used by the command line.

Each suite measures a handful of numbers and gates them against fixed
tolerances, all declared once in :data:`GATES`: per suite, its
measurements in run order, and per measurement its gates.  The
measurement helpers take the :class:`ExperimentConfig`
and build every ensemble with :meth:`ExperimentConfig.build_ensemble`;
suites, tests and scripts set other sizes or seeds with
``dataclasses.replace``, and :func:`benchmark_config` recasts a config as
the deterministic obstacle benchmark.  The summary CSV contains only
deterministic columns (no runtimes), so a rerun with the same config and
seed is byte-identical; runtimes go to the human-readable text report.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .errors import LevyLabError, ZeroSpread
from .paths import (
    STREAM_COMPARISON,
    STREAM_LEVY,
    TimeGrid,
    derived_rng,
    simulate_brownian,
    simulate_jump_counts,
    skorokhod_minimality_gap,
)
from .pdie import PidieGridSpec, representation_check, solve_obstacle_pidie
from .problems import build_problem
from .solver import BASIS_DIM, EnsembleSolution, solve_penalized
from .teugels import TeugelsBasis, basis_for, jump_martingales, step_increments

if TYPE_CHECKING:
    from .config import ExperimentConfig

# The penalty levels n along which the penalization suite, the
# ``solve --schedule`` command and the penalty study follow the penalized
# solutions towards the reflected one, in increasing order.
N_SCHEDULE = (4.0, 16.0, 64.0, 256.0)

# direction of a gate -> (its symbol in the text report, its pass test)
DIRECTIONS = {
    "le": ("<=", operator.le),
    "lt": ("<", operator.lt),
    "ge": (">=", operator.ge),
    "gt": (">", operator.gt),
}


def passes(value: float, tolerance: float, direction: str) -> bool:
    """Whether ``value`` meets ``tolerance`` in ``direction``."""
    return DIRECTIONS[direction][1](value, tolerance)


@dataclass(frozen=True)
class CheckResult:
    """One gated measurement: pass iff value `direction` tolerance."""

    suite: str
    check: str
    status: str
    value: float
    tolerance: float
    direction: str  # a key of DIRECTIONS
    seed: int
    runtime: float


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
            lines.append(
                f"[{r.status.upper():4s}] {r.suite}/{r.check}: "
                f"{r.value:.6g} {DIRECTIONS[r.direction][0]} {r.tolerance:.6g} "
                f"(seed={r.seed}, {r.runtime:.2f}s)"
            )
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# measurement helpers


# Paths per block of terminal_martingales' Brownian draw, which bounds
# its [path, step] increments to a few MB.
PATH_BLOCK = 8192


def terminal_martingales(cfg: ExperimentConfig, basis: TeugelsBasis) -> np.ndarray:
    """H(T) [rank, path] of the configured driver, in closed form.

    H_i(T) is ``P (N(T) - alpha T)`` over the per-atom jump totals N(T)
    (:func:`jump_martingales`), plus ``q_i(0) sigma W_T`` when the driver
    has a continuous part.  Neither L nor dH is built: the peak is the jump
    counts plus a few [atom, path] and [path] rows.  W_T is drawn after the
    counts, from their stream, in blocks of ``PATH_BLOCK`` paths, which
    consumes it exactly as one whole path-major :func:`simulate_brownian`
    draw does.
    """
    spec = cfg.build_levy()
    rng = derived_rng(cfg.seed, 0, STREAM_LEVY)
    counts = simulate_jump_counts(spec, cfg.grid, rng, cfg.n_paths)
    # the counts' dtype is widened to hold every atom's largest total, so
    # the step sum cannot wrap in it; numpy's default, uint64, is about 13x slower
    totals = counts.transpose(1, 2, 0).sum(axis=0, dtype=counts.dtype)
    H_T = jump_martingales(totals, cfg.grid.horizon, spec, basis)
    if spec.continuous_part:
        weights = spec.sigma * basis.q_zero[:, None]  # [rank, 1]
        for start in range(0, cfg.n_paths, PATH_BLOCK):
            block = H_T[:, start : start + PATH_BLOCK]
            block += weights * simulate_brownian(cfg.grid, rng, block.shape[1])[:, -1]
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

    The empirical part simulates only the configured driver's jump counts
    and evaluates its martingales at the horizon in closed form with
    :func:`terminal_martingales`, which builds neither L nor dH.  It
    standardizes both the pairwise products of H(T) (against delta_ij * T)
    and the means (against zero) by their sample standard errors, and
    raises ZeroSpread when one of those is zero, LevyLabError at rank 0.
    """
    spec = cfg.build_levy()
    basis = basis_for(spec)
    if not basis.rank:
        raise LevyLabError("the driver has no jump atoms and sigma = 0: no martingale to verify")
    gram = basis.gram_defect(spec)
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
        "product_moment_stddevs": prod_dev,
        "mean_stddevs": mean_dev,
    }


def benchmark_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """``cfg`` recast as the deterministic reflected benchmark.

    Null coefficients, terminal 0 and obstacle 1 - t on horizon 1 with 100
    steps, a unit coefficient from x0 = 0 on (-1, 1), and at most 4,000
    paths.  The driver and seed stay those of ``cfg``.
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
    sol = solve_penalized(cfg.build_problem(), cfg.build_ensemble())
    obstacle_path = 1.0 - cfg.grid.nodes
    oracle = np.maximum(0.0, np.maximum.accumulate(obstacle_path[::-1])[::-1])
    metrics = {
        "benchmark_y_error": float(np.max(np.abs(sol.Y - oracle[None, :]))),
        "benchmark_k_error": float(np.mean(np.abs(sol.K_T - 1.0))),
        "benchmark_residual": sol.skorokhod_residual,
    }
    return sol, metrics


def apriori_bounds(
    solutions: Mapping[float, EnsembleSolution],
) -> tuple[tuple[float, ...], float, float]:
    """Energy norms of a penalized family in increasing n, with their tail
    and growth ratios: ``(norms, tail, growth)``.

    The norm per solution is E[sup_t Y^2 + int Y^2 dA + int |Z|^2 dt +
    K_T^2].  A bounded family has a plateau at the tail of the schedule
    (``tail``, last norm over the previous one) and no overall blow-up
    (``growth``, last norm over the first); the penalization suite gates
    both.  On obstacle problems K_T^2 legitimately ramps up to its limit
    before flattening, so the growth gate is deliberately loose, while a
    divergent scheme overshoots it by many orders of magnitude.
    """
    norms = tuple(solutions[n].apriori_norms["total"] for n in sorted(solutions))
    tail = norms[-1] / norms[-2] if len(norms) >= 2 and norms[-2] > 0 else 1.0
    growth = norms[-1] / norms[0] if norms[0] > 0 else (1.0 if norms[-1] == 0 else math.inf)
    return norms, tail, growth


def penalization_family(cfg: ExperimentConfig) -> dict[float, EnsembleSolution]:
    """Solve the configured problem on one shared ensemble at every penalty
    level of ``N_SCHEDULE`` in turn."""
    problem = cfg.build_problem()
    ens = cfg.build_ensemble()
    return {n: solve_penalized(problem, ens, n) for n in N_SCHEDULE}


def solve_outer_samples(
    cfg: ExperimentConfig, penalization: float | None, keep_first: bool = False
) -> tuple[float, float, tuple[float, float, float], EnsembleSolution | None]:
    """Solve the configured problem over ``cfg.outer_b_samples`` outer
    Brownian samples of ``cfg.seed``, each an ensemble of ``cfg.n_paths``.

    Returns ``(y0, se, means, first)``: the aggregated initial value and
    its standard error (across samples when there are at least two, else
    the single sample's within-ensemble proxy ``y0_se``, which is not Y0's
    standard error: see :class:`EnsembleSolution`); the path mean of K_T, the
    Skorokhod residual and the penetration norm, each averaged over
    samples; and sample 0's solution when ``keep_first``, else None.  Only
    scalars are kept of the other samples: one solution is alive at a time.
    """
    problem = cfg.build_problem()
    rows, first = [], None
    for b in range(cfg.outer_b_samples):
        sol = solve_penalized(problem, cfg.build_ensemble(b), penalization)
        k_t = float(np.mean(sol.K_T))
        rows.append((sol.y0_value, sol.y0_se, k_t, sol.skorokhod_residual, sol.penetration_norm))
        first = sol if keep_first and b == 0 else first
        del sol  # before the next sample's ensemble and sweep are built
    y0s, ses, *per_sample = map(np.array, zip(*rows))
    if len(y0s) > 1:
        y0, se = float(np.mean(y0s)), float(np.std(y0s, ddof=1) / math.sqrt(len(y0s)))
    else:
        y0, se = float(y0s[0]), float(ses[0])
    return y0, se, tuple(float(np.mean(v)) for v in per_sample), first


# How far Y1 may fall below Y2 at a (path, node) pair before the
# comparison check counts the ordering as violated there.
COMPARISON_MARGIN = 0.01


def check_comparison_hypothesis(sol1: EnsembleSolution, sol2: EnsembleSolution) -> tuple[float, float]:
    """``(min_sum, violations)``: the smallest jump-size sum sum_i beta_i
    dH(i) over paths and steps, with beta_i the difference-quotient slopes
    of the second solution's driver f in each Z slot, and the fraction of
    (path, node) pairs where Y1 < Y2 - ``COMPARISON_MARGIN``.

    At each step the driver is evaluated once at each of the rank + 1
    telescoping points z(p), which hold the second solution's Z in the
    slots below p and the first solution's from p on.  The quotient of
    slot a is (f(z(a)) - f(z(a + 1))) / (Z1_a - Z2_a), matching the
    telescoping decomposition that underlies the ordering argument; slots
    where the two Z's coincide, to 1e-12 of |Z1_a| + |Z2_a| + 1, contribute
    zero, and at rank 0 the sum is 0.  Evaluates each node's rows of Y1,
    Z1, Y2 and Z2 once from the two solutions' fits
    (:meth:`EnsembleSolution.evaluate`, one design per solution), and
    forms each step's increments dH_k from its jump counts and W's step
    (:func:`step_increments`), so neither full solution, a full dH nor a
    full sum exists.  The two solutions must share one ensemble, which
    gives the states, the grid and the increments; ``ValueError`` otherwise.
    """
    ens = sol1.ens
    if sol2.ens is not ens:
        raise ValueError("the two solutions were solved on different ensembles")
    grid, rank = ens.grid, ens.basis.rank
    t = grid.nodes
    X = ens.X.T
    counts = ens.jump_counts.transpose(1, 2, 0)
    W = None if ens.W is None else ens.W.T
    n_paths, f = ens.n_paths, sol2.problem.f
    dH = np.empty((rank, n_paths))
    Y1, Y2 = np.empty(n_paths), np.empty(n_paths)
    Z1, Z2 = np.empty((rank, n_paths)), np.empty((rank, n_paths))
    total = np.empty(n_paths)
    smallest = np.zeros(grid.n_steps)  # per step, over paths
    violated = 0
    for k in range(grid.n_steps + 1):
        sol1.evaluate(k, X[k], y=Y1, z=Z1)
        sol2.evaluate(k, X[k], y=Y2, z=Z2)
        if rank and k < grid.n_steps:
            step_increments(counts, W, k, grid.dt, ens.spec, ens.basis, dH)
            total[...] = 0.0
            z = Z1.copy()  # z(0), [component, path]
            f_lo = np.asarray(f(t[k], X[k], Y2, z.T), dtype=float)
            for a in range(rank):
                z[a] = Z2[a]
                f_hi = np.asarray(f(t[k], X[k], Y2, z.T), dtype=float)
                den = Z1[a] - Z2[a]
                scale = np.abs(Z1[a]) + np.abs(Z2[a]) + 1.0
                with np.errstate(divide="ignore", invalid="ignore"):
                    beta = np.where(np.abs(den) > 1e-12 * scale, (f_lo - f_hi) / den, 0.0)
                total += beta * dH[a]
                f_lo = f_hi
            smallest[k] = np.min(total)
        violated += int(np.count_nonzero(Y1 < np.subtract(Y2, COMPARISON_MARGIN, out=Y2)))
    return float(np.min(smallest)), violated / X.size


def comparison_pair(cfg: ExperimentConfig) -> tuple[float, float]:
    """Solve two problems differing only in the terminal level (1 and 0) on
    the configured ensemble, in projection mode, and return
    ``(min_sum, violations)``: the hypothesis sum's minimum
    (:func:`check_comparison_hypothesis`) and the fraction of (path, node)
    pairs where the ordering is violated.

    The driver is y-linear (z-independent), so the jump-size hypothesis
    holds with all slopes identically zero.  Requires a driver without a
    continuous part.
    """
    if cfg.build_levy().continuous_part:
        raise LevyLabError("the comparison check requires sigma = 0 (no continuous part)")
    hi, lo = (
        build_problem("linear", {"l0": level, "fy": -0.1, "phy": -0.5})
        for level in (1.0, 0.0)
    )
    ens = cfg.build_ensemble()
    sol_hi = solve_penalized(hi, ens)
    sol_lo = solve_penalized(lo, ens)
    return check_comparison_hypothesis(sol_hi, sol_lo)


def crosscheck_run(cfg: ExperimentConfig):
    """Solve the configured problem by Monte Carlo and on the grid.

    Uses projection mode and the deterministic grid oracle (g must
    vanish), whose overshoot source phi dA integrates against the
    ensemble's local-time clock, on the ensemble's domain, driver and
    forward coefficient; returns (solution, grid solution, report).
    """
    ens = cfg.build_ensemble()
    problem = cfg.build_problem()
    sol = solve_penalized(problem, ens)
    grid_spec = PidieGridSpec(
        theta=ens.theta, n_space=cfg.fd_space, horizon=ens.grid.horizon, n_time=cfg.fd_time
    )
    pgrid = solve_obstacle_pidie(
        problem, ens.spec, ens.basis, grid_spec, mode="deterministic", sigma_x=ens.sigma_x
    )
    report = representation_check(pgrid, sol)
    return sol, pgrid, report


# ---------------------------------------------------------------------------
# the gate table


def _skorokhod_gap(cfg: ExperimentConfig) -> dict:
    ens = replace(cfg, n_paths=min(cfg.n_paths, 1000)).build_ensemble()
    V = derived_rng(cfg.seed, 0, STREAM_COMPARISON).uniform(-ens.theta, ens.theta, size=ens.X.shape)
    # the largest growth of |eta| at a step that ends strictly inside the walls
    clock = ens.clock
    interior = np.abs(ens.X[clock.paths, clock.steps + 1]) < ens.theta
    return {
        "minimality_gap": skorokhod_minimality_gap(ens.X, V, ens.eta_abs, ens.theta),
        "local_time_support": float(np.max((clock.after - clock.before)[interior], initial=0.0)),
    }


def _benchmark_penalization(cfg: ExperimentConfig) -> dict:
    family = penalization_family(benchmark_config(cfg))
    pens = [family[n].penetration_norm for n in N_SCHEDULE]
    ratios = [b / a if a > 0 else (0.0 if b == 0 else math.inf) for a, b in zip(pens, pens[1:])]
    y0s = [family[n].y0_value for n in N_SCHEDULE]
    _, tail, growth = apriori_bounds(family)
    return {
        "penetration_decreasing": max(ratios),
        "penetration_reduction": pens[-1] / pens[0] if pens[0] > 0 else 0.0,
        "y0_monotone_benchmark": min(b - a for a, b in zip(y0s, y0s[1:])),
        "apriori_growth": growth,
        "apriori_tail_plateau": tail,
    }


def _stochastic_penalization(cfg: ExperimentConfig) -> dict:
    family = penalization_family(cfg)
    y0s = [family[n].y0_value for n in N_SCHEDULE]
    se = max(family[N_SCHEDULE[0]].y0_se, 1e-12)
    return {"y0_monotone_stochastic_stddevs": min((b - a) / se for a, b in zip(y0s, y0s[1:]))}


def _comparison(cfg: ExperimentConfig) -> dict:
    min_sum, violations = comparison_pair(cfg)
    return {"hypothesis_min_sum": min_sum, "ordering_violation_fraction": violations}


def _seed_gap(cfg: ExperimentConfig) -> dict:
    outer = max(cfg.outer_b_samples, 4)
    per_sample = max(cfg.n_paths // outer, 10 * BASIS_DIM)
    (y0a, sea), (y0b, seb) = (
        solve_outer_samples(
            replace(cfg, n_paths=per_sample, seed=seed, outer_b_samples=outer), None
        )[:2]
        for seed in (cfg.seed, cfg.seed + 1)
    )
    return {"y0_seed_gap_stddevs": abs(y0a - y0b) / math.sqrt(sea**2 + seb**2 + 1e-300)}


# Every gate, declared once.  Each suite lists its measurements in run
# order, each as (measure, gates): ``measure(cfg)`` returns {check: value}
# with exactly the checks of its gates, each gate is (check, tolerance,
# direction), and the summary rows follow the table's order.  A measure is
# a lambda or private function that looks the measurement helpers up when
# it is called, so a tracer that rebinds their module attributes sees
# every call.
GATES = {
    "orthonormality": (
        (lambda cfg: measure_orthonormality(cfg), (
            ("gram_defect", 1e-10, "lt"),
            ("product_moment_stddevs", 4.0, "le"),
            ("mean_stddevs", 4.0, "le"),
        )),
    ),
    "skorokhod": (
        (_skorokhod_gap, (
            ("minimality_gap", -1e-12, "ge"),
            ("local_time_support", 0.0, "le"),
        )),
        (lambda cfg: run_benchmark_solution(cfg)[1], (
            ("benchmark_y_error", 0.02, "le"),
            ("benchmark_k_error", 0.02, "le"),
            ("benchmark_residual", 0.02, "le"),
        )),
    ),
    "penalization": (
        (_benchmark_penalization, (
            ("penetration_decreasing", 1.0, "lt"),
            ("penetration_reduction", 0.1, "le"),
            ("y0_monotone_benchmark", -1e-10, "ge"),
            ("apriori_growth", 4.0, "le"),
            ("apriori_tail_plateau", 1.25, "le"),
        )),
        (_stochastic_penalization, (
            ("y0_monotone_stochastic_stddevs", -2.0, "ge"),
        )),
    ),
    "comparison": (
        (_comparison, (
            ("hypothesis_min_sum", -1.0, "gt"),
            ("ordering_violation_fraction", 0.01, "le"),
        )),
    ),
    "uniqueness": (
        (_seed_gap, (
            ("y0_seed_gap_stddevs", 4.0, "le"),
        )),
    ),
    "feynman_kac": (
        (lambda cfg: {"mc_fd_gap": crosscheck_run(cfg)[2].y0_gap}, (
            ("mc_fd_gap", 0.05, "le"),
        )),
    ),
}


def gate(suite: str, check: str) -> tuple[float, str]:
    """``(tolerance, direction)`` of one gate of the table."""
    return next((tol, d) for _, gates in GATES[suite] for c, tol, d in gates if c == check)


def suite_checks(name: str, cfg: ExperimentConfig) -> list[CheckResult]:
    """Run one named suite's measurements on ``cfg`` and gate their values."""
    if name not in GATES:
        raise LevyLabError(f"unknown suite {name!r}; known: {list(GATES)}")
    rows = []
    for measure, gates in GATES[name]:
        start = time.perf_counter()
        measured = measure(cfg)
        elapsed = time.perf_counter() - start
        for check, tolerance, direction in gates:
            value = float(measured[check])
            status = "pass" if passes(value, tolerance, direction) else "fail"
            rows.append(
                CheckResult(name, check, status, value, tolerance, direction, cfg.seed, elapsed)
            )
    return rows


def run_suite(cfg: ExperimentConfig) -> SuiteReport:
    """Execute the config's selected suites in the table's order."""
    rows: list[CheckResult] = []
    for name in GATES:
        if name in cfg.checks:
            rows.extend(suite_checks(name, cfg))
    return SuiteReport(rows=rows)
