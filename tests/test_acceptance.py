"""Acceptance gate: one test per criterion, at the stated sizes and
tolerances.  Each test prints a single pass/fail line (run with ``-s`` or
read the -v test names); the assertions carry the same conditions.
"""

import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from levylab.config import DEFAULTS, parse_config
from levylab.levy import LevySpec
from levylab.paths import (
    STREAM_COMPARISON,
    TimeGrid,
    derived_rng,
    simulate_ensemble,
    skorokhod_minimality_gap,
)
from levylab.suites import (
    benchmark_config,
    comparison_pair,
    crosscheck_run,
    measure_orthonormality,
    penalization_family,
    run_benchmark_solution,
    run_suite,
    solve_outer_samples,
)
from levylab.teugels import basis_for, teugels_increments

warnings.filterwarnings("ignore", message="rank-deficient regression design")

TWO_ATOM = LevySpec(atoms=((0.3, 2.0), (-0.2, 1.0)))
SCHEDULE = (4.0, 16.0, 64.0, 256.0)
BASE = replace(
    DEFAULTS, levy=LevySpec(atoms=((0.3, 2.0), (-0.2, 1.0))), grid=TimeGrid(1.0, 100), n_schedule=SCHEDULE
)


def config(**fields):
    """``BASE`` (example51 from x0 = 0 on (-1, 1), unit coefficient,
    local-time clock, projection at degree 4) with ``fields`` replaced."""
    return replace(BASE, **fields)


def _report(num: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {num} ({name}): {status} {detail}")


def test_criterion_01_teugels_orthonormality_exact():
    specs = {
        1: LevySpec(atoms=((1.0, 1.0),)),
        2: TWO_ATOM,
        3: LevySpec(atoms=((0.5, 1.0), (1.5, 0.8), (-0.75, 1.2))),
    }
    worst = 0.0
    for n_atoms, spec in specs.items():
        basis = basis_for(spec)
        assert basis.rank == n_atoms
        worst = max(worst, basis.gram_defect(spec))
    # Poisson: one martingale, p_1(beta) times the compensated count
    poisson = specs[1]
    basis = basis_for(poisson)
    grid = TimeGrid(1.0, 32)
    from levylab.paths import simulate_jump_counts

    counts = simulate_jump_counts(poisson, grid, derived_rng(1, 0), 2000)
    dH = teugels_increments(counts, grid, poisson, basis)
    p1 = basis.jump_weights[0, 0]
    (beta, alpha), = poisson.atoms
    single_exact = basis.rank == 1 and dH.shape == (2000, 32, 1) and np.array_equal(
        dH[:, :, 0], p1 * (counts[:, :, 0] - alpha * grid.dt)
    )
    passed = worst < 1e-10 and single_exact
    _report(1, "teugels orthonormality", passed,
            f"gram defect {worst:.3e} < 1e-10, Poisson dH = p_1(beta)(N - alpha dt) bit for bit: {single_exact}")
    assert worst < 1e-10
    assert single_exact
    assert p1 == beta / math.sqrt(alpha * beta**2)


def test_criterion_02_empirical_strong_orthonormality():
    start = time.perf_counter()
    measured = measure_orthonormality(config(grid=TimeGrid(1.0, 64), n_paths=100_000, seed=424242))
    elapsed = time.perf_counter() - start
    dev = max(measured["product_moment_stddevs"], measured["mean_stddevs"])
    passed = dev <= 4.0 and elapsed < 60.0
    _report(2, "empirical strong orthonormality", passed,
            f"max deviation {dev:.2f} std errors <= 4, runtime {elapsed:.1f}s < 60s")
    assert measured["product_moment_stddevs"] <= 4.0
    assert measured["mean_stddevs"] <= 4.0
    assert elapsed < 60.0


def test_criterion_03_deterministic_reflected_benchmark():
    _, metrics = run_benchmark_solution(config(n_paths=2000, seed=33))
    passed = (
        metrics["benchmark_y_error"] <= 0.02
        and metrics["benchmark_k_error"] <= 0.02
        and metrics["benchmark_residual"] <= 0.02
    )
    _report(3, "deterministic reflected benchmark", passed,
            f"max|Y-(1-t)|={metrics['benchmark_y_error']:.3e}, "
            f"|K_T-1|={metrics['benchmark_k_error']:.3e}, "
            f"residual={metrics['benchmark_residual']:.3e}, all <= 0.02")
    assert metrics["benchmark_y_error"] <= 0.02
    assert metrics["benchmark_k_error"] <= 0.02
    assert metrics["benchmark_residual"] <= 0.02


@pytest.fixture(scope="module")
def benchmark_family():
    return penalization_family(replace(benchmark_config(config()), n_paths=2000, seed=44))


def test_criterion_04_penalization_convergence(benchmark_family):
    pens = [benchmark_family[n].penetration_norm for n in SCHEDULE]
    strictly_decreasing = all(a > b for a, b in zip(pens, pens[1:]))
    ratio = pens[-1] / pens[0]
    passed = strictly_decreasing and ratio <= 0.1
    _report(4, "penalization convergence", passed,
            f"penetration {['%.2e' % p for p in pens]} strictly decreasing: {strictly_decreasing}, "
            f"pen(256)/pen(4) = {ratio:.2e} <= 0.1")
    assert strictly_decreasing
    assert ratio <= 0.1


def test_criterion_05_penalization_monotonicity(benchmark_family):
    # deterministic benchmark
    y0_bench = [benchmark_family[n].y0_value for n in SCHEDULE]
    se_bench = max(benchmark_family[SCHEDULE[0]].y0_se, 1e-12)
    bench_ok = all(
        y0_bench[i] <= y0_bench[i + 1] + 2.0 * se_bench for i in range(len(SCHEDULE) - 1)
    )
    # stochastic instance at 1e4 paths
    family = penalization_family(config(n_paths=10_000, seed=55))
    y0_sto = [family[n].y0_value for n in SCHEDULE]
    se_sto = max(family[SCHEDULE[0]].y0_se, 1e-12)
    sto_ok = all(y0_sto[i] <= y0_sto[i + 1] + 2.0 * se_sto for i in range(len(SCHEDULE) - 1))
    passed = bench_ok and sto_ok
    _report(5, "penalization monotonicity", passed,
            f"benchmark Y0(n)={['%.4f' % v for v in y0_bench]}, "
            f"stochastic Y0(n)={['%.4f' % v for v in y0_sto]} within 2 SE ({se_sto:.1e})")
    assert bench_ok
    assert sto_ok


def test_criterion_06_comparison_theorem():
    # terminal levels 1 and 0
    min_sum, violations = comparison_pair(config(n_paths=10_000, seed=303))
    passed = min_sum > -1.0 and violations <= 0.01
    _report(6, "comparison theorem", passed,
            f"hypothesis min sum {min_sum:g} > -1, "
            f"ordering violations {violations:.4%} <= 1%")
    assert min_sum > -1.0
    assert violations <= 0.01


def test_criterion_07_uniqueness_surrogate():
    values = []
    for seed in (101, 202):
        y0, se, _, _ = solve_outer_samples(config(n_paths=1250, seed=seed, outer_b_samples=8), None)
        values.append((y0, se))
    (y0a, sea), (y0b, seb) = values
    gap = abs(y0a - y0b)
    bound = 4.0 * math.sqrt(sea**2 + seb**2)
    passed = gap <= bound
    _report(7, "uniqueness surrogate", passed,
            f"|Y0(a) - Y0(b)| = {gap:.5f} <= 4*sqrt(SEa^2+SEb^2) = {bound:.5f}")
    assert gap <= bound


def test_criterion_08_feynman_kac_crosscheck():
    text = (
        "[levy]\natoms = 0.3:2.0, -0.2:1.0\n"
        "[grid]\nhorizon = 1.0\nn_steps = 200\n"
        "[problem]\nname = example51\ntheta = 1.0\nx0 = 0.0\n"
        "[solver]\nn_paths = 20000\nseed = 20240601\n"
        "[fd]\nn_space = 200\nn_time = 400\n"
    )
    cfg = parse_config(text)
    start = time.perf_counter()
    sol, pgrid, report = crosscheck_run(cfg)
    elapsed = time.perf_counter() - start
    passed = report.y0_gap <= 0.05 and elapsed < 300.0
    _report(8, "feynman-kac crosscheck", passed,
            f"|Y0_MC - u(0,0)_FD| = {report.y0_gap:.4f} <= 0.05 "
            f"(Y0={sol.y0_value:.4f}), runtime {elapsed:.0f}s < 300s")
    assert report.y0_gap <= 0.05
    assert elapsed < 300.0


def test_criterion_09_skorokhod_path_property():
    grid = TimeGrid(1.0, 100)
    sigma_x = DEFAULTS.build_sigma_x()
    ens = simulate_ensemble(TWO_ATOM, grid, 1000, 77, theta=1.0, x0=0.0, sigma_x=sigma_x)
    V = derived_rng(77, 0, STREAM_COMPARISON).uniform(-1.0, 1.0, size=ens.X.shape)
    gap = skorokhod_minimality_gap(ens.X, V, ens.eta_abs, 1.0)
    passed = gap >= -1e-12
    _report(9, "skorokhod path property", passed, f"min sum {gap:g} >= -1e-12")
    assert gap >= -1e-12


def test_criterion_10_reproducibility():
    text = (
        "[levy]\natoms = 0.3:2.0, -0.2:1.0\n"
        "[grid]\nhorizon = 1.0\nn_steps = 40\n"
        "[problem]\nname = example51\n"
        "[solver]\nn_paths = 1500\nseed = 31415\nouter_b_samples = 3\n"
        "[fd]\nn_space = 80\nn_time = 80\n"
        "[suite]\nchecks = all\n"
    )
    cfg = parse_config(text)
    first = run_suite(cfg).to_summary_csv()
    second = run_suite(cfg).to_summary_csv()
    passed = first.encode() == second.encode()
    _report(10, "reproducibility", passed,
            f"summary CSV byte-identical across reruns: {passed} "
            f"({len(first.splitlines()) - 1} check rows)")
    assert first.encode() == second.encode()
    # the suite itself must also pass
    assert "fail" not in first
