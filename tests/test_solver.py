import dataclasses
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from levylab import solver
from levylab.config import DEFAULTS, load_config
from levylab.errors import SingularRegressionWarning, TerminalBelowObstacle
from levylab.levy import LevySpec
from levylab.paths import ClockEvents, DriverNodes, TimeGrid, simulate_ensemble, simulate_reflected_x
from levylab.problems import NO_OBSTACLE, ProblemSpec, build_problem
from levylab.solver import solve_penalized
from levylab.suites import (
    N_SCHEDULE,
    apriori_bounds,
    benchmark_config,
    check_comparison_hypothesis,
    crosscheck_run,
    gate,
    passes,
    penalization_family,
    run_benchmark_solution,
    run_suite,
    solve_outer_samples,
)
from levylab.teugels import basis_for


def bounded(tail, growth):
    """The suite's two a-priori gates: no overall blow-up and a tail plateau."""
    return passes(growth, *gate("penalization", "apriori_growth")) and passes(
        tail, *gate("penalization", "apriori_tail_plateau")
    )

TWO_ATOM = LevySpec(atoms=((0.3, 2.0), (-0.2, 1.0)))
SIGMA_X = DEFAULTS.build_sigma_x()  # the default config's sigma_x = 1
# example51 from x0 = 0 on (-1, 1), unit coefficient, local-time clock,
# projection; tests replace sizes and seeds
BASE = dataclasses.replace(
    DEFAULTS, levy=LevySpec(atoms=((0.3, 2.0), (-0.2, 1.0))), grid=TimeGrid(1.0, 100)
)


def flat_obstacle(level=NO_OBSTACLE):
    return lambda t, x: np.full(np.broadcast(np.asarray(t), np.asarray(x)).shape, level)


def make_problem(name="p", f=None, phi=None, g=None, terminal=None, obstacle=None):
    zero3 = lambda t, x, y: np.zeros_like(np.asarray(y, dtype=float))
    return ProblemSpec(
        name=name,
        f=f or (lambda t, x, y, z: np.zeros_like(np.asarray(y, dtype=float))),
        phi=phi or zero3,
        g=g or zero3,
        terminal=terminal or (lambda x: np.ones_like(np.asarray(x, dtype=float))),
        obstacle=obstacle or flat_obstacle(),
        beta_mono=0.0,
    )


@pytest.fixture(scope="module")
def ensemble():
    return simulate_ensemble(TWO_ATOM, TimeGrid(1.0, 100), 600, 21, theta=1.0, x0=0.0, sigma_x=SIGMA_X)


@pytest.fixture(scope="module")
def ensemble_identity_clock(ensemble):
    # the solver reads any increasing clock: here A = t on every path
    clock = ClockEvents.from_dense(np.broadcast_to(ensemble.grid.nodes, ensemble.X.shape))
    return dataclasses.replace(ensemble, clock=clock)


class TestExactPropagation:
    def test_constant_problem(self, ensemble):
        sol = solve_penalized(make_problem(), ensemble)
        assert np.max(np.abs(sol.Y - 1.0)) < 1e-10
        assert np.all(sol.K == 0.0)
        assert np.max(np.abs(sol.Z)) < 1e-9
        assert sol.skorokhod_residual == 0.0

    def test_driver_decay_matches_discrete_product(self, ensemble):
        # f = -0.1 y propagates as Y_k = (1 - 0.1 dt) Y_{k+1}, an exact product
        prob = make_problem(f=lambda t, x, y, z: -0.1 * np.asarray(y, dtype=float))
        sol = solve_penalized(prob, ensemble)
        expected = (1.0 - 0.1 * 0.01) ** 100
        assert sol.y0_value == pytest.approx(expected, abs=1e-12)

    def test_boundary_decay_with_identity_clock(self, ensemble_identity_clock):
        # phi = -0.5 y against dA = dt gives the same product with rate 0.5
        prob = make_problem(phi=lambda t, x, y: -0.5 * np.asarray(y, dtype=float))
        sol = solve_penalized(prob, ensemble_identity_clock)
        expected = (1.0 - 0.5 * 0.01) ** 100
        assert sol.y0_value == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("clock", ["local-time", "identity"])
    def test_phi_is_evaluated_at_the_clock_events_only(self, ensemble, ensemble_identity_clock, clock):
        # dA_k vanishes off step k's events, so phi is called on their
        # states alone: walls for the local time, every path for A = t
        ens = ensemble if clock == "local-time" else ensemble_identity_clock
        seen = []

        def phi(t, x, y):
            seen.append(x.copy())
            return -0.5 * np.asarray(y, dtype=float)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SingularRegressionWarning)
            solve_penalized(make_problem(phi=phi), ens)
        events = np.diff(ens.clock.offsets)
        assert [x.shape[0] for x in seen] == [e for e in events[::-1] if e]
        if clock == "identity":
            assert len(seen) == 100 and all(x.shape[0] == ens.n_paths for x in seen)
        else:
            assert 0 < len(seen) < 100 and all(np.all(np.abs(x) == ens.theta) for x in seen)

    def test_constant_g_accumulates_brownian(self, ensemble):
        prob = make_problem(
            g=lambda t, x, y: np.ones_like(np.asarray(y, dtype=float)),
            terminal=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        )
        sol = solve_penalized(prob, ensemble)
        assert sol.y0_value == pytest.approx(float(ensemble.B[-1]), abs=1e-12)

    def test_state_dependent_g_two_pass_product(self, ensemble):
        # g = y gives Y_k = yhat0 (1 + dB_k); with terminal 1 the product telescopes
        prob = make_problem(g=lambda t, x, y: np.asarray(y, dtype=float))
        sol = solve_penalized(prob, ensemble)
        expected = float(np.prod(1.0 + np.diff(ensemble.B)))
        assert sol.y0_value == pytest.approx(expected, rel=1e-10)


class TestObstacle:
    def test_deterministic_benchmark_projection(self):
        sol, metrics = run_benchmark_solution(dataclasses.replace(BASE, n_paths=600, seed=33))
        # oracle: Y_t = max(0, sup_{s >= t}(1 - s)) = 1 - t, K_T = 1
        assert metrics["benchmark_y_error"] < 1e-9
        assert metrics["benchmark_k_error"] < 1e-9
        assert 0.0 <= metrics["benchmark_residual"] <= 0.02
        assert np.all(sol.Y >= sol.S)
        assert np.all(np.diff(sol.K, axis=1) >= 0.0)
        assert np.all(sol.K[:, 0] == 0.0)

    def test_terminal_below_obstacle_raises(self, ensemble):
        prob = make_problem(
            terminal=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            obstacle=flat_obstacle(0.5),
        )
        with pytest.raises(TerminalBelowObstacle):
            solve_penalized(prob, ensemble)

    def test_path_count_guard(self):
        # 30 paths are fewer than 10 * BASIS_DIM = 60
        small = simulate_ensemble(
            TWO_ATOM, TimeGrid(1.0, 10), 30, 1, theta=1.0, x0=0.0, sigma_x=SIGMA_X
        )
        with pytest.raises(ValueError, match="below 10 \\* basis dimension"):
            solve_penalized(make_problem(), small)

    @pytest.mark.parametrize("penalization", [math.inf, math.nan, 0.0, -1.0])
    def test_sweep_rejects_a_nonfinite_or_nonpositive_penalty(self, ensemble, penalization):
        with pytest.raises(ValueError, match="penalization must be positive and finite"):
            solve_penalized(make_problem(), ensemble, penalization=penalization)

    def test_projection_is_the_default_penalty(self, ensemble):
        # the obstacle binds, so the penalty mode decides the push
        problem = build_problem("deterministic_obstacle")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SingularRegressionWarning)
            sol, projected, penalized = (solve_penalized(problem, ensemble, *penalty)
                                         for penalty in ((), (solver.PROJECTION,), (4.0,)))
        assert sol.penalization is solver.PROJECTION
        assert_solutions_agree(sol, projected, atol=0.0)
        assert penalized.penalization == 4.0
        assert np.all(penalized.K_T < sol.K_T)

    def test_evaluate_reads_the_sweeps_layer_edge(self, ensemble, monkeypatch):
        # the solution stores no layer edge: evaluate derives it from its
        # ensemble's theta by the sweep's one definition
        assert "layer_edge" not in {f.name for f in dataclasses.fields(solver.EnsembleSolution)}
        edges = []
        design = solver.regression_design

        def recording(x, layer_edge, *args):
            edges.append(layer_edge)
            return design(x, layer_edge, *args)

        monkeypatch.setattr(solver, "regression_design", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SingularRegressionWarning)
            sol = solve_penalized(build_problem("example51"), ensemble)
        swept = len(edges)
        sol.on_paths("Y", slice(0, 5))
        assert 0 < swept < len(edges)
        assert set(edges) == {ensemble.theta - ensemble.theta / solver.LAYER_DIVISOR}

    def test_contact_without_push_keeps_k_zero(self, ensemble):
        # obstacle exactly at the solution level: yhat == S, so dK must stay 0
        prob = make_problem(obstacle=flat_obstacle(1.0))
        sol = solve_penalized(prob, ensemble)
        # yhat == S up to regression rounding; the push must not exceed it
        assert np.max(sol.K) < 1e-11
        assert np.max(np.abs(sol.Y - 1.0)) < 1e-10

    @pytest.mark.parametrize("name", ["deterministic_obstacle", "example51"])
    def test_sweep_reads_a_read_only_barrier(self, ensemble, name):
        # the shipped barriers are broadcast views, which numpy marks
        # read-only; the sweep only reads S, so a writable copy of the same
        # values gives the same solution
        problem = build_problem(name)
        assert not problem.obstacle(ensemble.grid.nodes[:, None], ensemble.X.T).flags.writeable
        copied = dataclasses.replace(problem, obstacle=lambda t, x: np.array(problem.obstacle(t, x)))
        sol, reference = (solve_penalized(p, ensemble) for p in (problem, copied))
        assert np.any(sol.K[:, -1] > 0.0) == (name == "deterministic_obstacle")
        np.testing.assert_array_equal(sol.S, reference.S)
        assert_solutions_agree(sol, reference, atol=0.0)

    @pytest.mark.parametrize(
        "t, x",
        [
            (0.25, 0.5),
            (0.25, np.array([-0.5, 0.0, 0.5])),
            (np.array([[0.25], [0.75]]), np.array([[-0.5, 0.0, 0.5, 0.9], [0.2, -0.9, 0.0, 0.4]])),
            # the FD oracle's call: time nodes against one row of space nodes
            (np.array([[0.25], [0.75]]), np.array([-0.5, 0.0, 0.5])),
        ],
        ids=["scalar", "row", "node-path", "time-space"],
    )
    def test_shipped_barriers_match_their_closed_forms(self, t, x):
        ts, xs = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
        for name, expected in (
            ("deterministic_obstacle", 1.0 - ts),  # level 1, slope 1
            ("example51", 0.2 * np.maximum(xs, 0.0) - 0.05),  # h_scale 0.2, h_offset -0.05
        ):
            barrier = build_problem(name).obstacle(t, x)
            assert barrier.shape == expected.shape
            np.testing.assert_array_equal(barrier, expected)


@pytest.fixture(scope="module")
def family():
    cfg = dataclasses.replace(benchmark_config(BASE), n_paths=600, seed=44)
    return cfg.build_problem(), penalization_family(cfg)


class TestPenalization:
    def test_schedule_is_strictly_increasing_and_positive(self):
        # a repeated penalty would compare a family's solution with itself,
        # and the measurements read the last two levels as the finest
        assert len(N_SCHEDULE) >= 2
        assert all(0.0 < n < math.inf for n in N_SCHEDULE)
        assert all(a < b for a, b in zip(N_SCHEDULE, N_SCHEDULE[1:]))

    def test_family_solves_one_ensemble_along_the_schedule(self, family):
        _, fam = family
        assert tuple(fam) == N_SCHEDULE
        assert [sol.penalization for sol in fam.values()] == list(N_SCHEDULE)
        assert all(sol.ens is fam[N_SCHEDULE[0]].ens for sol in fam.values())

    def test_k_t_approaches_ode_closed_form(self, family):
        # independent oracle: dY = -n (Y - S)^- dt backward from 0 with S = 1 - t
        # solves to K_T(n) = 1 - (1 - e^{-n}) / n
        _, fam = family
        for n in N_SCHEDULE:
            k_t = float(np.mean(fam[n].K[:, -1]))
            assert k_t == pytest.approx(1.0 - (1.0 - math.exp(-n)) / n, abs=0.02)

    def test_k_t_monotone_from_below(self, family):
        _, fam = family
        k_ts = [float(np.mean(fam[n].K[:, -1])) for n in N_SCHEDULE]
        assert all(a < b for a, b in zip(k_ts, k_ts[1:]))
        assert all(k < 1.0 for k in k_ts)

    def test_penetration_decreasing_with_rate(self, family):
        _, fam = family
        pens = [fam[n].penetration_norm for n in N_SCHEDULE]
        assert all(a > b for a, b in zip(pens, pens[1:]))
        for n, p in zip(N_SCHEDULE, pens):
            assert p <= 1.0 / n  # well under the C/n envelope

    def test_residual_decreasing_in_n(self, family):
        _, fam = family
        residuals = [fam[n].skorokhod_residual for n in N_SCHEDULE]
        assert all(a > b for a, b in zip(residuals, residuals[1:]))

    def test_y0_monotone_in_n(self, family):
        _, fam = family
        y0s = [fam[n].y0_value for n in N_SCHEDULE]
        assert all(a < b for a, b in zip(y0s, y0s[1:]))

    def test_apriori_bounds_flat_for_constant_problem(self, ensemble):
        sols = {}
        for n in (1.0, 2.0, 4.0, 8.0):
            sols[n] = solve_penalized(make_problem(), ensemble, n)
        norms, tail, growth = apriori_bounds(sols)
        assert bounded(tail, growth)
        assert max(norms) == pytest.approx(min(norms), rel=1e-9)

    def test_apriori_bounds_benchmark_family(self, family):
        problem, fam = family
        norms, tail, growth = apriori_bounds(fam)
        assert bounded(tail, growth)
        assert max(norms) < 10.0


class TestComparison:
    def test_identical_problems_zero_slopes(self, ensemble):
        prob = make_problem(f=lambda t, x, y, z: -0.1 * np.asarray(y, dtype=float))
        sol1 = solve_penalized(prob, ensemble)
        sol2 = solve_penalized(prob, ensemble)
        min_sum, violations = check_comparison_hypothesis(sol1, sol2)
        assert min_sum == 0.0 and violations == 0.0
        assert min_sum > -1.0

    def test_solutions_on_different_ensembles_are_refused(self, ensemble):
        # the check reads the states and increments of one ensemble, so a
        # pair solved on two draws, even equal ones, is an error
        prob = make_problem()
        twin = dataclasses.replace(ensemble)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SingularRegressionWarning)
            sol1, sol2 = solve_penalized(prob, ensemble), solve_penalized(prob, twin)
        with pytest.raises(ValueError, match="different ensembles"):
            check_comparison_hypothesis(sol1, sol2)

    def test_ordered_terminals_give_ordered_solutions(self, ensemble):
        hi = make_problem(terminal=lambda x: np.ones_like(np.asarray(x, dtype=float)))
        lo = make_problem(terminal=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
        sol_hi = solve_penalized(hi, ensemble)
        sol_lo = solve_penalized(lo, ensemble)
        min_sum, violations = check_comparison_hypothesis(sol_hi, sol_lo)
        assert min_sum == 0.0  # z-independent driver
        assert violations == np.mean(sol_hi.Y < sol_lo.Y - 0.01) <= 0.01
        # reversed, the ordering fails at every (path, node)
        assert check_comparison_hypothesis(sol_lo, sol_hi)[1] == 1.0

    def test_violations_count_every_node_at_rank_zero(self):
        # no driver: the sum is 0, and Y2 = 1 + (T - t) exceeds Y1 = 1 by
        # more than the margin at every node but the horizon
        spec = LevySpec()
        ens = simulate_ensemble(spec, TimeGrid(1.0, 20), 100, 3, theta=1.0, x0=0.0, sigma_x=SIGMA_X)
        one, rising = (build_problem("linear", {"f0": f0, "fy": 0.0}) for f0 in (0.0, 1.0))
        sol1, sol2 = (solve_penalized(p, ens) for p in (one, rising))
        assert ens.basis.rank == 0
        min_sum, violations = check_comparison_hypothesis(sol1, sol2)
        assert min_sum == 0.0
        assert violations == np.mean(sol1.Y < sol2.Y - 0.01) == 20 / 21

    def test_z_dependent_driver_respects_lipschitz_bound(self, ensemble):
        def f(t, x, y, z):
            z = np.asarray(z)
            z1 = z[..., 0] if z.ndim and z.shape[-1] else 0.0
            return -0.1 * np.asarray(y, dtype=float) + 0.3 * np.tanh(z1)

        hi = make_problem(f=f, terminal=lambda x: np.maximum(np.asarray(x, dtype=float), 0.0))
        lo = make_problem(f=f, terminal=lambda x: 0.5 * np.maximum(np.asarray(x, dtype=float), 0.0))
        sol_hi = solve_penalized(hi, ensemble)
        sol_lo = solve_penalized(lo, ensemble)
        min_sum, _ = check_comparison_hypothesis(sol_hi, sol_lo)
        # the interval bound -c * rank * max |dH| implied by f's Lipschitz
        # constant in z, c = 0.3 from the 0.3 tanh(z1) term
        max_dh = float(np.max(np.abs(ensemble.dH)))
        lipschitz_bound = -0.3 * max(ensemble.basis.rank, 1) * max_dh
        assert min_sum >= lipschitz_bound - 1e-9
        assert min_sum > -1.0  # the observed sums stay above -1 even when the bound does not


    @pytest.mark.parametrize("fz1", [0.0, 0.3])
    def test_telescoping_points_match_per_slot_reference(self, ensemble, fz1):
        # the rank + 1 shared evaluations per step against one pair per slot
        hi, lo = (build_problem("linear", {"l0": l0, "fz1": fz1}) for l0 in (1.0, 0.0))
        sol_hi = solve_penalized(hi, ensemble)
        sol_lo = solve_penalized(lo, ensemble)
        min_sum, _ = check_comparison_hypothesis(sol_hi, sol_lo)
        total = comparison_reference(sol_hi, sol_lo, lo, ensemble)
        assert (min_sum != 0.0) == (fz1 != 0.0)
        assert min_sum == float(np.min(total))


def comparison_reference(sol1, sol2, problem2, ens):
    """sum_a beta_a dH(a) [path, step], each slot's quotient from its own
    pair of full concatenated Z copies."""
    n, t, rank = ens.grid.n_steps, ens.grid.nodes, ens.basis.rank
    Z1, Z2 = sol1.Z[:, :n, :], sol2.Z[:, :n, :]
    total = np.zeros((ens.n_paths, n))
    for a in range(rank):
        z_lo = np.concatenate([Z2[:, :, :a], Z1[:, :, a:]], axis=2)
        z_hi = np.concatenate([Z2[:, :, : a + 1], Z1[:, :, a + 1 :]], axis=2)
        num = np.stack(
            [
                problem2.f(t[k], ens.X[:, k], sol2.Y[:, k], z_lo[:, k])
                - problem2.f(t[k], ens.X[:, k], sol2.Y[:, k], z_hi[:, k])
                for k in range(n)
            ],
            axis=1,
        )
        den = Z1[:, :, a] - Z2[:, :, a]
        scale = np.abs(Z1[:, :, a]) + np.abs(Z2[:, :, a]) + 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            total += np.where(np.abs(den) > 1e-12 * scale, num / den, 0.0) * ens.dH[:, :, a]
    return total


def skorokhod_residual_reference(sol):
    """Mean over paths of |sum_k (y_pre_k - S_k) dK_k|, over the full arrays."""
    n = sol.dK.shape[1]
    per_path = np.sum((sol.y_pre.T[:n] - sol.S.T[:n]) * sol.dK.T, axis=0)
    return float(np.mean(np.abs(per_path)))


def penetration_norm_reference(sol):
    """max over nodes of mean over paths of ((S - Y)^+)^2, over the full arrays."""
    pen_sq = np.maximum(sol.S.T - sol.Y.T, 0.0) ** 2
    return float(np.max(np.mean(pen_sq, axis=1)))


def solution_norms_reference(sol, A):
    """The a priori norm terms from the full arrays and the clock ``A`` [path, node]."""
    Y = sol.Y.T
    dA = np.diff(A.T, axis=0)
    z2 = np.sum(sol.Z.transpose(1, 2, 0)[:-1] ** 2, axis=1)  # [step, path]
    sup_y2 = float(np.mean(np.max(Y**2, axis=0)))
    y2_dA = float(np.mean(np.sum(Y[:-1] ** 2 * dA, axis=0)))
    z2_dt = float(np.mean(np.sum(z2, axis=0) * sol.dt))
    kT2 = float(np.mean(sol.K.T[-1] ** 2))
    return {
        "sup_y2": sup_y2,
        "y2_dA": y2_dA,
        "z2_dt": z2_dt,
        "kT2": kT2,
        "total": sup_y2 + y2_dA + z2_dt + kT2,
    }


@pytest.fixture(scope="module")
def binding_example51():
    # example51 with an obstacle that binds: the push, the residual and K_T
    # are all nonzero
    cfg = dataclasses.replace(
        BASE,
        grid=TimeGrid(1.0, 50),
        n_paths=2000,
        seed=3,
        problem_params=(("h_scale", 1.0), ("h_offset", 0.0)),
    )
    return cfg.build_problem(), cfg.build_ensemble()


@pytest.fixture(scope="module")
def sigma_example51():
    # binding example51 with a continuous part, a drift and an affine sigma_x,
    # so the sweep reads L to form sigma dW
    cfg = dataclasses.replace(
        BASE,
        levy=LevySpec(atoms=((0.3, 2.0), (-0.2, 1.0)), drift_b=0.2, sigma=0.4),
        sigma_x=("affine", 1.0, 0.2),
        grid=TimeGrid(1.0, 50),
        n_paths=2000,
        seed=5,
        problem_params=(("h_scale", 1.0), ("h_offset", 0.0)),
    )
    return cfg.build_problem(), cfg.build_ensemble()


class TestDiagnostics:
    def test_skorokhod_residual_zero_without_push(self, ensemble):
        sol = solve_penalized(make_problem(), ensemble)
        assert sol.skorokhod_residual == skorokhod_residual_reference(sol) == 0.0

    def test_residual_is_dt_times_push_on_the_benchmark(self):
        sol, _ = run_benchmark_solution(dataclasses.replace(BASE, n_paths=600, seed=33))
        # the sweep sums the steps last to first, the reference first to last
        assert sol.skorokhod_residual == pytest.approx(
            skorokhod_residual_reference(sol), rel=0.0, abs=1e-12
        )
        # |yhat - S| = dt on the contact set, so the gap is dt * K_T = 0.01
        assert sol.skorokhod_residual == pytest.approx(0.01, abs=1e-10)

    @pytest.mark.parametrize("penalization", [None, 4.0, 256.0])
    def test_in_loop_diagnostics_match_the_full_array_references(
        self, binding_example51, penalization
    ):
        problem, ens = binding_example51
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SingularRegressionWarning)
            sol = solve_penalized(problem, ens, penalization)
        residual = skorokhod_residual_reference(sol)
        penetration = penetration_norm_reference(sol)
        norms = solution_norms_reference(sol, ens.A)
        assert residual > 1e-4 and norms["kT2"] > 1e-3
        if penalization == 4.0:
            assert penetration > 1e-4
        assert sol.skorokhod_residual == pytest.approx(residual, rel=0.0, abs=1e-12)
        assert sol.penetration_norm == pytest.approx(penetration, rel=0.0, abs=1e-12)
        assert sol.apriori_norms.keys() == norms.keys()
        for key, value in norms.items():
            assert sol.apriori_norms[key] == pytest.approx(value, rel=0.0, abs=1e-12), key

    def test_sweep_memory_stays_near_the_returned_arrays(self, monkeypatch):
        # Y and Z at two nodes, the fit, the push, S_k and the pre-push
        # estimate are per-state rows; K_T, sup Y^2 and each path's state
        # are [path] rows, next to the state map's record of the jumping
        # paths, and the diagnostics reduce row by row; so above the
        # ensemble the sweep's peak is a few dozen [path] rows (16
        # measured, 28 forced to the identity map, whose per-state rows are
        # [path] rows) plus what it returns: the K_T row and the fits, about
        # 900 bytes a step.  The Y, Z and dK it stored before would be 203
        # rows here.
        cfg = dataclasses.replace(BASE, grid=TimeGrid(1.0, 50), n_paths=2000, seed=1)
        problem, ens = cfg.build_problem(), cfg.build_ensemble()
        for state_map in (solver._state_map, solver.IdentityMap):
            monkeypatch.setattr(solver, "_state_map", state_map)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SingularRegressionWarning)
                solve_penalized(problem, ens)  # so that scipy's import is not counted
                tracemalloc.start()
                try:
                    sol = solve_penalized(problem, ens)
                    returned, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
            row = sol.K_T.nbytes
            assert returned <= row + 1024 * cfg.grid.n_steps, returned / row
            assert peak <= returned + 40 * row, (peak - returned) / row

    def test_solution_keeps_the_measured_arrays(self, ensemble):
        # sizes and step counts of a sweep are read from these six arrays
        sol = solve_penalized(make_problem(), ensemble)
        n_paths, n = ensemble.n_paths, ensemble.grid.n_steps
        m = ensemble.dH.shape[2]
        shapes = {
            "Y": (n_paths, n + 1),
            "Z": (n_paths, n + 1, m),
            "K": (n_paths, n + 1),
            "dK": (n_paths, n),
            "y_pre": (n_paths, n + 1),
            "S": (n_paths, n + 1),
        }
        for name, shape in shapes.items():
            array = getattr(sol, name)
            assert isinstance(array, np.ndarray) and array.shape == shape, name
            assert array.nbytes == 8 * math.prod(shape), name

    def test_one_atom_driver_has_one_live_z_column(self):
        # a Poisson driver gives a rank-one basis: Z has that one column,
        # and a convex terminal value makes it move
        grid = TimeGrid(1.0, 50)
        spec = LevySpec(atoms=((1.0, 1.0),))
        ens = simulate_ensemble(spec, grid, 600, 5, theta=2.0, x0=0.0, sigma_x=SIGMA_X)
        prob = make_problem(terminal=lambda x: np.asarray(x, dtype=float) ** 2)
        sol = solve_penalized(prob, ens)
        assert sol.ens.basis.rank == 1
        assert sol.Z.shape == (600, 51, 1)
        assert np.all(np.isfinite(sol.Z)) and np.any(sol.Z[:, :-1, 0] != 0.0)


def assert_solutions_agree(fast, reference, atol, scalar_atol=None):
    """Y, Z and K agree within ``atol`` absolute, y0 and every diagnostic
    within ``scalar_atol`` (default ``atol``)."""
    scalar_atol = atol if scalar_atol is None else scalar_atol
    for name in ("Y", "Z", "K"):
        np.testing.assert_allclose(getattr(fast, name), getattr(reference, name), rtol=0.0, atol=atol)
    for name in ("y0_value", "skorokhod_residual", "penetration_norm"):
        assert getattr(fast, name) == pytest.approx(getattr(reference, name), rel=0.0, abs=scalar_atol)
    assert fast.apriori_norms.keys() == reference.apriori_norms.keys()
    for key, value in reference.apriori_norms.items():
        assert fast.apriori_norms[key] == pytest.approx(value, rel=0.0, abs=scalar_atol)


# Test-only references: the design with np.std, the Gram factor through an
# SVD condition check and scipy's cho_factor, the solves through cho_solve,
# the rank-deficient design reduced by lstsq, and the sweep as it was
# before it formed the Gram matrix and the Y right-hand side in one product.


def scale_reference(x, layer_edge):
    """``(mean, sd, layer)`` over the points ``x``: np.mean, np.std and
    whether the boundary layer holds some of them but not all."""
    in_layer = np.count_nonzero(np.abs(x) >= layer_edge)
    return float(np.mean(x)), float(np.std(x)), 0 < in_layer < x.shape[0]


def regression_design_reference(x, layer_edge, out, mean, sd, layer):
    """The design at ``x`` with the given scale, the layer column from a
    boolean indicator."""
    out[0] = 1.0
    ncol = 1
    if layer:
        out[ncol] = np.abs(x) >= layer_edge
        ncol += 1
    if sd > 1e-13:
        xs = out[ncol]
        np.subtract(x, mean, out=xs)
        xs /= sd
        for d in range(1, solver.DEGREE):
            np.multiply(out[ncol + d - 1], xs, out=out[ncol + d])
        ncol += solver.DEGREE
    return out[:ncol]


def gram_factor_reference(gram):
    """``(factor, kept)``: cho_factor's upper factor of the largest leading
    ``kept x kept`` block of ``gram`` whose 2-norm condition number (an
    SVD) is at most GRAM_COND_MAX and which cho_factor accepts."""
    from scipy.linalg import cho_factor

    for kept in range(gram.shape[0], 0, -1):
        block = gram[:kept, :kept]
        if np.linalg.cond(block) <= solver.GRAM_COND_MAX:
            try:
                return cho_factor(block, check_finite=False)[0], kept
            except np.linalg.LinAlgError:
                pass
    raise AssertionError("the intercept block has condition number 1")


def regress_reference(design, factor, targets, out, rhs=None, scale=1.0):
    from scipy.linalg import cho_solve

    factor, kept = factor
    rhs = design[:kept] @ targets.T if rhs is None else rhs[:kept]
    coef = (cho_solve((factor, False), rhs, check_finite=False) * scale).T
    np.matmul(coef, design[:kept], out=out)
    return coef


def lstsq_reduction(design, targets):
    """lstsq's coefficients [r, kept] on the design reduced from the
    highest degree down until lstsq finds it of full rank."""
    ncol = design.shape[0]
    while True:
        coef, _, rank, _ = np.linalg.lstsq(design[:ncol].T, targets.T, rcond=None)
        if rank == ncol or ncol == 1:
            return coef.T
        ncol -= 1


def fit_reference(design, factor, targets):
    """Fitted values [r, path]: against ``factor``, a ``(factor, kept)``
    pair, or with ``factor`` None by :func:`lstsq_reduction`."""
    if factor is not None:
        from scipy.linalg import cho_solve

        factor, kept = factor
        return cho_solve((factor, False), design[:kept] @ targets.T, check_finite=False).T @ design[:kept]
    coef = lstsq_reduction(design, targets)
    return coef @ design[: coef.shape[1]]


@dataclasses.dataclass
class ReferenceSolution:
    """The reference sweep's record: every array stored, none derived."""

    penalization: float | None
    rank: int
    Y: np.ndarray
    Z: np.ndarray
    K: np.ndarray
    dK: np.ndarray
    y_pre: np.ndarray
    S: np.ndarray
    dt: float
    y0_value: float
    y0_se: float
    skorokhod_residual: float
    penetration_norm: float
    apriori_norms: dict


def solve_penalized_reference(problem, ens, penalization=None, gram_factor=gram_factor_reference):
    """The sweep with the Gram matrix from ``design @ design.T``, one
    product per right-hand side, Z scaled by 1/dt after the fit, and the
    diagnostics kept per path until the end.  ``gram_factor`` gives each
    step's factor for :func:`fit_reference`; one that returns None sends
    every step to lstsq."""
    grid = ens.grid
    n, dt, t, n_paths = grid.n_steps, grid.dt, grid.nodes, ens.n_paths
    X = np.ascontiguousarray(ens.X.T)
    A = np.ascontiguousarray(ens.A.T)
    dH = np.ascontiguousarray(ens.dH.transpose(1, 2, 0))
    dB = np.diff(ens.B)
    m, rank = dH.shape[1], ens.basis.rank
    layer_edge = ens.theta - ens.theta / solver.LAYER_DIVISOR
    S = np.asarray(problem.obstacle(t[:, None], X), dtype=float)
    xi = np.asarray(problem.terminal(X[n]), dtype=float)
    Yt, y_pre_t = np.empty((n + 1, n_paths)), np.empty((n + 1, n_paths))
    Zt, dKt = np.zeros((n + 1, m, n_paths)), np.empty((n, n_paths))
    Yt[n] = y_pre_t[n] = xi
    design_buf = np.empty((solver.BASIS_DIM, n_paths))
    sup_y2, y2_dA, z2, gap = np.square(xi), np.zeros(n_paths), np.zeros(n_paths), np.zeros(n_paths)
    penetration = [np.mean(np.maximum(S[n] - xi, 0.0) ** 2)]
    pen = penalization
    push_scale = 1.0 if pen is None else pen * dt / (1.0 + pen * dt)
    for k in range(n - 1, -1, -1):
        x, y_next, dA = X[k], Yt[k + 1], A[k + 1] - A[k]
        fk = np.asarray(problem.f(t[k + 1], X[k + 1], y_next, Zt[k + 1].T), dtype=float)
        phik = np.asarray(problem.phi(t[k + 1], X[k + 1], y_next), dtype=float)
        target = y_next + fk * dt + phik * dA
        design = regression_design_reference(x, layer_edge, design_buf, *scale_reference(x, layer_edge))
        factor = gram_factor(design @ design.T)
        yhat0 = fit_reference(design, factor, target[None, :])[0]
        if rank:
            centered = dH[k, :rank] * (y_next - yhat0)
            Zt[k, :rank] = fit_reference(design, factor, centered) / dt
            z2 += np.sum(np.square(Zt[k, :rank]), axis=0)
        y_pre_t[k] = yhat = yhat0 + np.asarray(problem.g(t[k], x, yhat0), dtype=float) * dB[k]
        dKt[k] = push = push_scale * np.maximum(S[k] - yhat, 0.0)
        Yt[k] = y = yhat + push
        gap += (yhat - S[k]) * push
        penetration.append(np.mean(np.maximum(S[k] - y, 0.0) ** 2))
        sup_y2 = np.maximum(sup_y2, y**2)
        y2_dA += y**2 * dA
    Kt = np.concatenate([np.zeros((1, n_paths)), np.cumsum(dKt, axis=0)])
    norms = {"sup_y2": float(np.mean(sup_y2)), "y2_dA": float(np.mean(y2_dA)),
             "z2_dt": float(np.mean(z2 * dt)), "kT2": float(np.mean(Kt[n] ** 2))}
    norms["total"] = sum(norms.values())
    return ReferenceSolution(
        penalization=pen, rank=rank, Y=Yt.T, Z=Zt.transpose(2, 0, 1), K=Kt.T, dK=dKt.T,
        y_pre=y_pre_t.T, S=S.T, dt=dt, y0_value=float(np.mean(Yt[0])),
        y0_se=float(np.std(target, ddof=1) / math.sqrt(n_paths)),
        skorokhod_residual=float(np.mean(np.abs(gap))),
        penetration_norm=float(np.max(penetration)), apriori_norms=norms,
    )


def record_kept(monkeypatch):
    """Per step, in sweep order (last step first): ``(kept, ncol)``, the
    columns the step's factor keeps of its design's."""
    taken = []
    factor = solver._gram_factor

    def recording(gram):
        result = factor(gram)
        taken.append((result[1], gram.shape[0]))
        return result

    monkeypatch.setattr(solver, "_gram_factor", recording)
    return taken


SHIPPED = Path(__file__).resolve().parents[1] / "configs"


class TestRegressionPaths:
    @pytest.mark.parametrize("penalization", [None, 16.0])
    def test_cholesky_path_agrees_with_lstsq_fallback(self, ensemble, monkeypatch, penalization):
        # this obstacle binds, so the push and K are compared as well
        problem = build_problem("example51", {"h_scale": 1.0, "h_offset": 0.0})
        # the reference sends every step to lstsq's reduction
        kept = record_kept(monkeypatch)
        lstsq, lstsq_calls = np.linalg.lstsq, []

        def counting(*args, **kwargs):
            lstsq_calls.append(args[0].shape[1])
            return lstsq(*args, **kwargs)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SingularRegressionWarning)
            fast = solve_penalized(problem, ensemble, penalization)
            assert sum(k == ncol for k, ncol in kept) > 90 and len(kept) == 100
            monkeypatch.setattr(np.linalg, "lstsq", counting)
            reference = solve_penalized_reference(problem, ensemble, penalization, gram_factor=lambda gram: None)
        assert len(lstsq_calls) >= 2 * 100  # Y and Z at every step
        assert np.mean(reference.K[:, -1]) > 0.01
        assert_solutions_agree(fast, reference, atol=1e-9)

    @pytest.mark.parametrize("penalization", [None, 16.0, 256.0])
    @pytest.mark.parametrize("name", ["binding-example51", "deterministic_obstacle"])
    def test_sweep_agrees_with_the_reference_sweep(self, binding_example51, name, penalization):
        problem, ens = binding_example51
        if name == "deterministic_obstacle":
            problem = dataclasses.replace(benchmark_config(BASE), n_paths=600).build_problem()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SingularRegressionWarning)
            fast = solve_penalized(problem, ens, penalization)
            reference = solve_penalized_reference(problem, ens, penalization)
        assert np.mean(reference.K[:, -1]) > 0.01 and reference.skorokhod_residual > 1e-4
        assert fast.y0_se == pytest.approx(reference.y0_se, rel=1e-9)
        assert_solutions_agree(fast, reference, atol=1e-10, scalar_atol=1e-12)

    @pytest.mark.parametrize("penalization", [None, 16.0])
    @pytest.mark.parametrize("case", ["sigma-drift-affine", "lattice"])
    def test_evaluator_rebuilds_the_sweeps_rows_and_the_reference_arrays(
        self, request, monkeypatch, case, penalization
    ):
        # The solution stores per-step fits; every array is evaluated from
        # them.  At the states the sweep regressed on (each path under the
        # sigma > 0 driver, the distinct values of X_k under the idle one)
        # the rows are the sweep's rows bit for bit; read at every path they
        # are the rows of its state, Z bit for bit and Y, y_pre and dK
        # within two ulp of |y_pre| (the Y fit's 1 x kept product rounds a
        # few points apart at another point count, and dK = (S - y_pre)^+
        # and Y = y_pre + dK carry that ulp); they match the reference
        # sweep's stored arrays within its rounding; and at a subsample of
        # paths Z is the full evaluation's bit for bit, Y, y_pre and dK
        # within one ulp of |y_pre|.
        if case == "lattice":
            # sigma = 0 on 100 steps: X_1 takes 3 values, so step 1
            # reduces its design
            ens = request.getfixturevalue("ensemble")
            problem = build_problem("example51", {"h_scale": 1.0, "h_offset": 0.0})
        else:
            problem, ens = request.getfixturevalue("sigma_example51")
        rows = {}  # per step, the states and the rows the sweep wrote at them
        settle = solver._settle

        def recording(problem_, t, x, db, yhat, s, push_scale, short, push, y):
            settle(problem_, t, x, db, yhat, s, push_scale, short, push, y)
            rows[len(rows)] = (x.copy(), yhat.copy(), push.copy(), y.copy())

        regress, z_rows = solver._regress, []

        def recording_regress(design, factor, targets, out, rhs=None, scale=1.0):
            coef = regress(design, factor, targets, out, rhs=rhs, scale=scale)
            if scale != 1.0:
                z_rows.append(out.copy())
            return coef

        monkeypatch.setattr(solver, "_settle", recording)
        monkeypatch.setattr(solver, "_regress", recording_regress)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SingularRegressionWarning)
            fast = solve_penalized(problem, ens, penalization)
            reference = solve_penalized_reference(problem, ens, penalization)
        monkeypatch.undo()

        # the cases: an obstacle that binds, designs with and without the
        # layer column, and either W read for sigma dW or a step that
        # reduces its design
        n, rank = ens.grid.n_steps, fast.ens.basis.rank
        assert np.mean(reference.K[:, -1]) > 0.01
        assert any(not f.layer and f.sd > solver.SD_FLOOR for f in fast.fits)
        assert any(f.y_coef.shape[1] == solver.BASIS_DIM for f in fast.fits)
        reduced = [
            k for k, f in enumerate(fast.fits)
            if f.y_coef.shape[1] < 1 + f.layer + solver.DEGREE * (f.sd > solver.SD_FLOOR)
        ]
        if case == "lattice":
            assert reduced and fast.fits[1].y_coef.shape[1] == 3
        else:
            assert ens.spec.continuous_part and rank == 3 and not reduced

        X = ens.X.T
        Y, Z, dK, K, y_pre, S = (fast.on_paths(name) for name in ("Y", "Z", "dK", "K", "y_pre", "S"))
        ulps = 0 if case == "sigma-drift-affine" else 2
        for k in range(n):
            x, yhat, push, y = rows[n - 1 - k]  # the sweep runs last step first
            rebuilt = {"y": np.empty_like(x), "push": np.empty_like(x), "y_pre": np.empty_like(x),
                       "z": np.empty((rank, x.size))}
            fast.evaluate(k, x, **rebuilt)
            assert np.array_equal(rebuilt["y"], y) and np.array_equal(rebuilt["push"], push), k
            assert np.array_equal(rebuilt["y_pre"], yhat), k
            assert np.array_equal(rebuilt["z"], z_rows[n - 1 - k]), k
            if case == "sigma-drift-affine":  # each path its own state
                assert np.array_equal(x, X[k]), k
                at = np.arange(ens.n_paths)
            else:
                at = state_index(x, X[k])
            assert np.array_equal(Z[:, k, :rank].T, z_rows[n - 1 - k][:, at]), k
            ulp = ulps * np.spacing(np.abs(y_pre[:, k]))
            for name, value, row in (("Y", Y, y), ("dK", dK, push), ("y_pre", y_pre, yhat)):
                assert np.all(np.abs(value[:, k] - row[at]) <= ulp), (name, k)
        assert np.all(Z[:, -1] == 0.0)
        if case == "sigma-drift-affine":
            assert fast.y0_value == float(np.mean(Y[:, 0]))
        else:  # the count-weighted mean of Y_0 over its states
            assert fast.y0_value == pytest.approx(float(np.mean(Y[:, 0])), rel=0.0, abs=1e-15)
        np.testing.assert_allclose(fast.K_T, K[:, -1], rtol=0.0, atol=1e-14)

        for name, value in (("Y", Y), ("Z", Z), ("dK", dK), ("K", K), ("y_pre", y_pre)):
            np.testing.assert_allclose(value, getattr(reference, name), rtol=0.0, atol=1e-10, err_msg=name)
        np.testing.assert_array_equal(S, reference.S)
        assert np.array_equal(y_pre[:, -1], Y[:, -1]) and np.any(y_pre[:, :-1] != Y[:, :-1])

        paths = np.arange(3, ens.n_paths, 7)
        assert np.array_equal(fast.on_paths("Z", paths), Z[paths])
        ulp = np.spacing(np.abs(y_pre[paths]))
        for name, value in (("Y", Y), ("y_pre", y_pre), ("dK", dK)):
            sampled, whole = fast.on_paths(name, paths), value[paths]
            assert np.all(np.abs(sampled - whole) <= ulp[:, : whole.shape[1]]), name
        np.testing.assert_array_equal(fast.on_paths("S", paths), S[paths])

    @pytest.mark.parametrize("config", ["example51", "quick_suite"])
    def test_condition_estimate_takes_the_svd_route_at_every_step(self, config, monkeypatch):
        # pocon's 1-norm estimate against the 2-norm condition number of
        # each leading block of the design's syrk Gram matrix over the
        # paths, at every step of a shipped sweep: both keep the same
        # columns.  The sweep regresses on the states of X_k with their
        # path counts, so the per-path design is rebuilt at X_k with the
        # step's mean, sd and layer flag
        cfg = load_config(str(SHIPPED / f"{config}.cfg"))
        ens = cfg.build_ensemble()
        X, n = ens.X.T, cfg.grid.n_steps
        path_designs, routes = [], []
        design_fn, factor_fn = solver.regression_design, solver._gram_factor

        def recording_design(x, layer_edge, out, *scale):
            design = design_fn(x, layer_edge, out, *scale)
            k = n - 1 - len(path_designs)
            at_paths = design_fn(X[k], layer_edge, np.empty((out.shape[0], X.shape[1])), *scale)
            np.testing.assert_array_equal(at_paths, design[:, state_index(x, X[k])])
            path_designs.append(at_paths)
            return design

        def recording_factor(gram):
            result = factor_fn(gram)
            design = path_designs[-1]
            routes.append((result[1], gram_factor_reference(design @ design.T)[1]))
            return result

        monkeypatch.setattr(solver, "regression_design", recording_design)
        monkeypatch.setattr(solver, "_gram_factor", recording_factor)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SingularRegressionWarning)
            solve_penalized(cfg.build_problem(), ens)
        assert len(routes) == n
        assert [fast for fast, _ in routes] == [ref for _, ref in routes]

    @pytest.mark.parametrize("seed", [7, 8])
    def test_reduced_steps_keep_the_columns_lstsq_keeps(self, seed, monkeypatch):
        # at every step that the sweeps of a quick_suite run reduce (its
        # crosscheck among them; at seed 8 that one reduces too), the
        # leading block keeps as many columns as lstsq's reduction of the
        # design over the paths: each state's column repeated once per path
        # at it, the count the state map weighs it by
        cfg = dataclasses.replace(load_config(str(SHIPPED / "quick_suite.cfg")), seed=seed)
        last, reduced = [None, None], []
        design_fn, factor_fn, weigh = solver.regression_design, solver._gram_factor, solver.StateMap.weigh

        def recording_design(*args):
            last[:] = [design_fn(*args), None]
            return last[0]

        def recording_weigh(self, design, aug):
            last[1] = self.count.astype(np.intp)
            return weigh(self, design, aug)

        def recording_factor(gram):
            result = factor_fn(gram)
            design = last[0] if last[1] is None else np.repeat(last[0], last[1], axis=1)
            if result[1] < design.shape[0]:
                reduced.append((result[1], lstsq_reduction(design, design[:1]).shape[1], last[1] is not None))
            return result

        monkeypatch.setattr(solver, "regression_design", recording_design)
        monkeypatch.setattr(solver.StateMap, "weigh", recording_weigh)
        monkeypatch.setattr(solver, "_gram_factor", recording_factor)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SingularRegressionWarning)
            run_suite(cfg)
        assert reduced and all(weighted for _, _, weighted in reduced)  # every sweep's map was the state map
        assert [kept for kept, _, _ in reduced] == [ref for _, ref, _ in reduced]

    def test_duplicated_column_is_reduced_away(self, ensemble):
        # the design with x~ appended again keeps its first 6 columns, and
        # its fit is the plain design's bit for bit
        x = ensemble.X.T[-1]
        buf = np.empty((7, ensemble.n_paths))
        design = solver.regression_design(x, 0.9, buf[:6], *scale_reference(x, 0.9))
        buf[6] = design[2]  # x~ again
        doubled = buf[: design.shape[0] + 1]
        plain, reduced = solver._gram_factor(design @ design.T), solver._gram_factor(doubled @ doubled.T)
        assert plain[1] == reduced[1] == design.shape[0] == 6
        targets = np.cos(3.0 * x)[None, :]
        fit, fit_doubled = np.empty((1, x.size)), np.empty((1, x.size))
        assert solver._regress(design, plain, targets, fit).shape[1] == 6
        assert solver._regress(doubled, reduced, targets, fit_doubled).shape[1] == 6
        np.testing.assert_array_equal(fit_doubled, fit)

    @pytest.mark.parametrize("layer", [0.1, 0.0], ids=["layer", "no-layer"])
    def test_lapack_factor_and_design_match_scipy_and_np_std(self, ensemble, layer, monkeypatch):
        # the identity map's scale is np.mean's and np.std's, and the design
        # built from it and the solves are the references' bit for bit,
        # step by step and over a whole sweep; the factor of the sweep's
        # gemm Gram matrix against cho_factor of the syrk one within rounding
        X = ensemble.X.T
        identity = solver.IdentityMap(ensemble, np.ascontiguousarray(X), None, None)
        targets = np.stack([np.cos(3.0 * X[-1]), ensemble.dH[:, 0, 0]])
        buf = np.empty((solver.BASIS_DIM + 1, ensemble.n_paths))
        ref_buf = np.empty_like(buf[1:])
        fit, ref_fit = np.empty_like(targets), np.empty_like(targets)
        layer_edge = 1.0 - layer  # the ensemble's theta is 1
        full = 0
        for k in range(1, X.shape[0]):
            buf[0] = targets[0]
            scale = identity.scale(X[k], layer_edge)
            assert scale == scale_reference(X[k], layer_edge), k
            design = solver.regression_design(X[k], layer_edge, buf[1:], *scale)
            ref = regression_design_reference(X[k], layer_edge, ref_buf, *scale)
            assert design.shape == ref.shape and np.array_equal(design, ref), k
            ncol = design.shape[0]
            rhs_gram = design @ buf[: ncol + 1].T  # as the sweep forms it
            factor, ref_factor = solver._gram_factor(rhs_gram[:, 1:]), gram_factor_reference(ref @ ref.T)
            kept = factor[1]
            assert kept == ref_factor[1], k
            full += kept == ncol
            # measured: at most 6.0e-14 of the largest entry on this ensemble
            upper = np.triu(factor[0])
            np.testing.assert_allclose(
                upper, np.triu(ref_factor[0]), rtol=0.0, atol=1e-12 * np.max(np.abs(upper))
            )
            assert solver._regress(design, factor, targets, fit, scale=3.0).shape == (2, kept)
            regress_reference(ref, factor, targets, ref_fit, scale=3.0)
            assert np.array_equal(fit, ref_fit), k
        assert full > 50
        if layer:
            assert design.shape[0] == buf.shape[0] - 1  # the design fills its rows

        # the whole sweep under the state map, whose rows are the states of
        # X_k, and forced to the identity map, whose scale is measured over
        # the paths where the reference takes np.mean's and np.std's
        problem = build_problem("example51", {"h_scale": 1.0, "h_offset": 0.0})
        monkeypatch.setattr(solver, "LAYER_DIVISOR", 1.0 / layer if layer else math.inf)
        for state_map in (solver._state_map, solver.IdentityMap):
            with monkeypatch.context() as patch, warnings.catch_warnings():
                warnings.simplefilter("ignore", SingularRegressionWarning)
                patch.setattr(solver, "_state_map", state_map)
                fast = solve_penalized(problem, ensemble)
                patch.setattr(solver.IdentityMap, "scale", lambda self, x, edge: scale_reference(x, edge))
                patch.setattr(solver, "regression_design", regression_design_reference)
                patch.setattr(solver, "_gram_factor", gram_factor_reference)
                patch.setattr(solver, "_regress", regress_reference)
                reference = solve_penalized(problem, ensemble)
            assert_solutions_agree(fast, reference, atol=0.0)

    def test_degenerate_step_is_reduced_without_lstsq_and_named(self, ensemble, monkeypatch):
        # X_1 takes 3 values against 5 design columns.  The reduction keeps
        # [1, x~, x~^2], which spans every function of 3 points, so the fit
        # is the mean of the target over each value of X_1.  The sweep has
        # one regression path: lstsq is never called.
        prob = make_problem(terminal=lambda x: np.asarray(x, dtype=float) ** 2)
        kept = record_kept(monkeypatch)

        def refused(*args, **kwargs):
            raise AssertionError("the sweep called np.linalg.lstsq")

        monkeypatch.setattr(np.linalg, "lstsq", refused)
        with pytest.warns(SingularRegressionWarning) as caught:
            sol = solve_penalized(prob, ensemble)
        by_step = kept[::-1]
        assert by_step[1] == (3, 5) and by_step[0] == (1, 1)
        assert [step for step, (k, ncol) in enumerate(by_step) if k < ncol] == [1, 2, 3]
        # one warning per sweep: the earliest reduced step, its columns, and
        # the count of reduced regressions (Y and Z at steps 3, 2 and 1)
        assert [str(w.message) for w in caught] == [
            "rank-deficient regression design at step 1; reduced to 3 columns "
            "(6 regressions of this sweep reduced)"
        ]

        values, groups = np.unique(ensemble.X[:, 1], return_inverse=True)
        assert len(values) == 3
        sizes = np.bincount(groups)
        target = sol.Y[:, 2]  # f = phi = g = 0
        yhat = np.bincount(groups, weights=target) / sizes
        np.testing.assert_allclose(sol.y_pre[:, 1], yhat[groups], rtol=0.0, atol=1e-12)
        for i in range(ensemble.basis.rank):
            centered = (target - yhat[groups]) * ensemble.dH[:, 1, i]
            z = np.bincount(groups, weights=centered) / sizes / ensemble.grid.dt
            np.testing.assert_allclose(sol.Z[:, 1, i], z[groups], rtol=0.0, atol=1e-10)


class TestNodeMajorLayout:
    def test_simulated_ensemble_is_node_major(self, ensemble):
        # the sweep reads these without a per-step gather or a per-sweep copy
        assert ensemble.X.T.flags.c_contiguous
        assert ensemble.A.T.flags.c_contiguous
        assert ensemble.L.T.flags.c_contiguous
        assert ensemble.jump_counts.transpose(1, 2, 0).flags.c_contiguous
        assert ensemble.dH.transpose(1, 2, 0).flags.c_contiguous

    @pytest.mark.parametrize("penalization", [None, 16.0])
    def test_path_major_ensemble_gives_the_same_solution(self, ensemble, penalization):
        # the fallback: a hand-built path-major ensemble is copied once per
        # sweep, its clock recorded from a path-major dense one
        path_major = dataclasses.replace(
            ensemble,
            X=np.ascontiguousarray(ensemble.X),
            clock=ClockEvents.from_dense(np.ascontiguousarray(ensemble.A)),
            jump_counts=np.ascontiguousarray(ensemble.jump_counts),
        )
        assert not path_major.X.T.flags.c_contiguous
        assert path_major.clock is not ensemble.clock
        assert np.array_equal(path_major.clock.paths, ensemble.clock.paths)
        assert not path_major.jump_counts.transpose(1, 2, 0).flags.c_contiguous
        problem = build_problem("example51", {"h_scale": 1.0, "h_offset": 0.0})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SingularRegressionWarning)
            fast = solve_penalized(problem, ensemble, penalization)
            reference = solve_penalized(problem, path_major, penalization)
        assert np.mean(reference.K[:, -1]) > 0.01  # the obstacle binds
        assert_solutions_agree(fast, reference, atol=1e-12)


def sweep_under(problem, ens, monkeypatch, penalization=None, identity=False):
    """``(solution, map, warning texts)`` of one sweep at ``penalization``
    under the path -> state map the sweep picks or, with ``identity``,
    forced to the identity map."""
    taken = []
    pick = solver.IdentityMap if identity else solver._state_map

    def recording(*args):
        taken.append(pick(*args))
        return taken[-1]

    with monkeypatch.context() as patch, warnings.catch_warnings(record=True) as caught:
        patch.setattr(solver, "_state_map", recording)
        warnings.simplefilter("always")
        sol = solve_penalized(problem, ens, penalization)
    return sol, taken[0], [str(w.message) for w in caught]


def design_columns(sol):
    """Per step: whether the design has the layer column and the
    monomials, and how many columns the step kept."""
    return [(f.layer, f.sd > solver.SD_FLOOR, f.y_coef.shape[1]) for f in sol.fits]


# Bounds of the state map against the identity map, about ten times the
# largest differences measured over every case of TestStateMap: Y0
# 3.2e-14, y0_se 1.6e-13 relative, Y 1.9e-13, Z 3.0e-12 with |Z| up to
# 3.6, K_T 7.4e-14 and each diagnostic 7.2e-15.  The two sum the same
# terms in another order: by state, then over states.
STATE_MAP_BOUNDS = {"Y0": 1e-12, "y0_se": 2e-12, "Y": 2e-12, "Z": 3e-11, "K_T": 1e-12, "diagnostic": 1e-13}


def assert_maps_agree(states, paths):
    """Two sweeps of one problem and ensemble, under the state map and the
    identity map: the same columns at every step, and every row and
    scalar within ``STATE_MAP_BOUNDS``."""
    bound = STATE_MAP_BOUNDS
    assert design_columns(states) == design_columns(paths)
    assert states.y0_value == pytest.approx(paths.y0_value, rel=0.0, abs=bound["Y0"])
    assert states.y0_se == pytest.approx(paths.y0_se, rel=bound["y0_se"], abs=0.0)
    np.testing.assert_allclose(states.Y, paths.Y, rtol=0.0, atol=bound["Y"])
    np.testing.assert_allclose(states.Z, paths.Z, rtol=0.0, atol=bound["Z"])
    np.testing.assert_allclose(states.K_T, paths.K_T, rtol=0.0, atol=bound["K_T"])
    for name in ("skorokhod_residual", "penetration_norm"):
        assert getattr(states, name) == pytest.approx(getattr(paths, name), rel=0.0, abs=bound["diagnostic"])
    for key, value in paths.apriori_norms.items():
        assert states.apriori_norms[key] == pytest.approx(value, rel=0.0, abs=bound["diagnostic"]), key


def with_counts(ens, counts):
    """The ensemble with the jump counts ``counts`` [step, atom, path],
    node-major, and X and the clock reflected again from them."""
    counts = counts.transpose(2, 0, 1)
    X, clock = simulate_reflected_x(ens.sigma_x, ens.theta, ens.x0, DriverNodes(ens.spec, ens.grid, counts))
    return dataclasses.replace(ens, jump_counts=counts, X=X, clock=clock)


@pytest.fixture(scope="module")
def edited_ensemble():
    # 200 paths x 20 steps, with no jump in step 3 and one more up-jump
    # for every path in the last step, so that the walk back meets a step
    # with no mover, a step where every path moves and, at its first step,
    # node 19's values, most of which X_20 does not take
    ens = simulate_ensemble(TWO_ATOM, TimeGrid(1.0, 20), 200, 17, theta=1.0, x0=0.0, sigma_x=SIGMA_X)
    counts = ens.jump_counts.transpose(1, 2, 0).copy()
    counts[3] = 0
    counts[-1, 0] += 1
    return with_counts(ens, counts)


def state_index(values, x):
    """The index of each entry of ``x`` in ``values``, matched by bits."""
    keys = values.view(np.int64)
    order = np.argsort(keys)
    index = order[np.searchsorted(keys[order], x.view(np.int64))]
    assert np.array_equal(values[index].view(np.int64), x.view(np.int64))
    return index


class TestStateMap:
    @pytest.mark.parametrize("penalization", [None, 16.0])
    @pytest.mark.parametrize("obstacle", ["binding", "non-binding"])
    @pytest.mark.parametrize("case", ["lattice", "identity-clock", "example51"])
    def test_state_map_agrees_with_the_identity_map(self, request, monkeypatch, case, obstacle, penalization):
        # an idle ensemble takes the state map; forced to the identity map,
        # the same sweep keeps the same columns, warns alike and agrees
        # within the measured bounds
        fixture = {"lattice": "ensemble", "identity-clock": "ensemble_identity_clock",
                   "example51": "binding_example51"}[case]
        ens = request.getfixturevalue(fixture)
        ens = ens[1] if case == "example51" else ens
        params = {"h_scale": 1.0, "h_offset": 0.0} if obstacle == "binding" else {}
        problem = build_problem("example51", params)
        states, state_map, warned = sweep_under(problem, ens, monkeypatch, penalization)
        paths, identity_map, warned_paths = sweep_under(problem, ens, monkeypatch, penalization, identity=True)
        assert type(state_map) is solver.StateMap and type(identity_map) is solver.IdentityMap
        assert state_map.size < ens.n_paths / 10
        assert warned == warned_paths
        if case == "lattice":  # X_1 takes 3 values, so step 1 keeps 3 columns
            assert states.fits[1].y_coef.shape[1] == 3 and len(warned) == 1
        if case == "identity-clock":  # a clock event at every path in every step
            assert np.all(np.diff(ens.clock.offsets) == ens.n_paths)
        assert (np.mean(paths.K_T) > 0.01) == (obstacle == "binding")
        assert_maps_agree(states, paths)

    def test_negative_zero_start_takes_the_state_map(self, monkeypatch):
        # the driver alone picks the map: from x0 = -0.0 the state starts
        # at +0.0, so the ensemble is the one from +0.0 bit for bit, the
        # sweep takes the state map and its solution is the +0.0 one's
        problem = build_problem("example51", {"h_scale": 1.0, "h_offset": 0.0})
        ens, negative = (
            simulate_ensemble(TWO_ATOM, TimeGrid(1.0, 50), 600, 11, theta=1.0, x0=x0, sigma_x=SIGMA_X)
            for x0 in (0.0, -0.0)
        )
        assert np.array_equal(negative.X.view(np.int64), ens.X.view(np.int64))
        assert not np.signbit(negative.X[:, 0]).any()
        for field in ("offsets", "paths", "before", "after"):
            assert np.array_equal(getattr(negative.clock, field), getattr(ens.clock, field)), field
        from_negative, negative_map, _ = sweep_under(problem, negative, monkeypatch)
        from_positive, positive_map, _ = sweep_under(problem, ens, monkeypatch)
        assert type(negative_map) is solver.StateMap and type(positive_map) is solver.StateMap
        assert np.mean(from_positive.K_T) > 0.01
        for got, expected in zip(from_negative.fits, from_positive.fits):
            assert np.array(got[:3]).tobytes() == np.array(expected[:3]).tobytes()  # mean, sd, layer
            assert got.y_coef.tobytes() == expected.y_coef.tobytes()
            assert got.z_coef.tobytes() == expected.z_coef.tobytes()
        assert from_negative.K_T.tobytes() == from_positive.K_T.tobytes()
        for name in ("y0_value", "y0_se", "skorokhod_residual", "penetration_norm", "apriori_norms"):
            assert getattr(from_negative, name) == getattr(from_positive, name), name

    def test_the_map_follows_every_path_through_a_growing_state_set(self, edited_ensemble):
        # walked back node by node, the map sends every path to the state
        # of its own value, bit for bit, and counts the paths at each state
        ens = edited_ensemble
        X = np.ascontiguousarray(ens.X.T)
        counts = np.ascontiguousarray(ens.jump_counts.transpose(1, 2, 0))
        states = solver.StateMap(ens, X, counts)
        n = ens.grid.n_steps
        assert states.moves[3][0].size == 0 and states.moves[n - 1][0].size == ens.n_paths
        assert states.size > np.unique(X[n]).size  # values met only before the horizon
        stayed = np.ones(ens.n_paths, dtype=bool)
        for k in range(n, -1, -1):
            if k < n:
                states.move(k)
                stayed = ~ens.jump_counts[:, k].any(axis=1)
                assert np.array_equal(states.stay, np.bincount(states.index[stayed], minlength=states.size))
            np.testing.assert_array_equal(states.states[states.index].view(np.int64), X[k].view(np.int64))
            assert np.array_equal(states.count, np.bincount(states.index, minlength=states.size))
        assert states.count[states.index[0]] == ens.n_paths  # every path starts at x0
        # a path without a jump in a step has the constant increments
        still = ens.dH[~ens.jump_counts.any(axis=2)]
        assert np.array_equal(still, np.broadcast_to(states.still, still.shape))

    @pytest.mark.parametrize("penalization", [None, 16.0])
    def test_steps_with_no_mover_and_with_every_path_moving(self, edited_ensemble, monkeypatch, penalization):
        problem = build_problem("example51", {"h_scale": 1.0, "h_offset": 0.0})
        states, _, warned = sweep_under(problem, edited_ensemble, monkeypatch, penalization)
        paths, _, warned_paths = sweep_under(problem, edited_ensemble, monkeypatch, penalization, identity=True)
        assert warned == warned_paths
        assert np.mean(paths.K_T) > 0.01
        assert_maps_agree(states, paths)

    def test_terminal_check_reads_the_states_at_the_horizon(self, edited_ensemble, monkeypatch):
        # the state set holds values that X_n does not take; an obstacle
        # above the terminal value at such a value holds no path at the
        # horizon and is pushed against before it, while one at a value of
        # X_n is refused
        ens = edited_ensemble
        X = ens.X.T
        values = solver.StateMap(ens, np.ascontiguousarray(X),
                                 np.ascontiguousarray(ens.jump_counts.transpose(1, 2, 0))).states
        earlier = values[~np.isin(values, X[-1])][0]

        def problem_at(v):
            return make_problem(terminal=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                                obstacle=lambda t, x: np.where(np.asarray(x) == v, 0.5, NO_OBSTACLE))

        states = sweep_under(problem_at(earlier), ens, monkeypatch)[0]
        paths = sweep_under(problem_at(earlier), ens, monkeypatch, identity=True)[0]
        visited = np.any(X == earlier, axis=0)
        assert np.all(states.K_T[~visited] == 0.0) and np.max(states.K_T[visited]) > 0.1
        assert_maps_agree(states, paths)
        for identity in (False, True):
            with pytest.raises(TerminalBelowObstacle):
                sweep_under(problem_at(X[-1, 0]), ens, monkeypatch, identity=identity)


# Bounds on the rms gap between the sweep's Z and the grid oracle's jump
# functionals on quick_suite, per component: 1.3x the largest gap over
# seeds 1-20 (0.0628 and 0.0492).  Per-state means Q / (c dt) in place of
# the degree-4 Z regression read 0.10-0.14 and 0.093-0.19 at seeds 1, 2, 7.
Z_RMS_GAP_BOUNDS = (0.082, 0.064)


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_quick_crosscheck_z_stays_near_the_oracle(seed):
    cfg = dataclasses.replace(load_config(str(SHIPPED / "quick_suite.cfg")), seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SingularRegressionWarning)
        report = crosscheck_run(cfg)[2]
    assert len(report.z_rms_gap) == len(Z_RMS_GAP_BOUNDS)
    for i, (gap, bound) in enumerate(zip(report.z_rms_gap, Z_RMS_GAP_BOUNDS), start=1):
        assert gap < bound, (f"z{i}", gap)


@pytest.mark.parametrize("theta", [1.0, 2.0])
def test_boundary_layer_is_a_tenth_of_theta(theta, monkeypatch):
    # the indicator column marks the states, and so the paths, within
    # theta / 10 of a wall of the ensemble's domain, the one place theta is
    # set; the design has it exactly when the layer holds some of the paths
    # of X_k but not all
    ens = simulate_ensemble(TWO_ATOM, TimeGrid(1.0, 50), 600, 11, theta=theta, x0=0.0, sigma_x=SIGMA_X)
    X = ens.X.T
    edges, columns, layers = [], [], []
    design = solver.regression_design

    def recording(x, layer_edge, out, mean, sd, layer):
        edges.append(layer_edge)
        rows = design(x, layer_edge, out, mean, sd, layer)
        k = 50 - len(edges)
        layers.append((layer, 0 < np.count_nonzero(np.abs(X[k]) >= 0.9 * theta) < ens.n_paths))
        if rows.shape[0] == solver.BASIS_DIM:  # every column kept, the indicator second
            at = state_index(x, X[k])
            columns.append((x.copy(), rows[1].copy(), X[k], rows[1][at]))
        return rows

    monkeypatch.setattr(solver, "regression_design", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SingularRegressionWarning)
        solve_penalized(make_problem(), ens)
    assert edges == [theta - theta / 10.0] * 50
    assert columns and any(layer for layer, _ in layers)
    assert [layer for layer, _ in layers] == [at_paths for _, at_paths in layers]
    for x, column, x_paths, column_at_paths in columns:
        assert np.array_equal(column, np.abs(x) >= 0.9 * theta)
        assert np.array_equal(column_at_paths, np.abs(x_paths) >= 0.9 * theta)


def test_sigma_positive_driver_supported():
    # a continuous part adds one basis component; exact propagation must hold
    spec = LevySpec(atoms=((0.5, 1.0),), sigma=0.4)
    basis = basis_for(spec)
    assert basis.rank == 2
    ens = simulate_ensemble(spec, TimeGrid(1.0, 50), 600, 11, theta=2.0, x0=0.0, sigma_x=SIGMA_X)
    sol = solve_penalized(make_problem(), ens)
    assert np.max(np.abs(sol.Y - 1.0)) < 1e-10
    Z = sol.Z
    assert Z.shape[2] == basis.rank
    assert np.max(np.abs(Z)) < 1e-9


def test_apriori_bounds_finite_on_stochastic_instance():
    # regression baseline: the two-sided jump benchmark stays bounded at n = 64
    cfg = dataclasses.replace(BASE, n_paths=600, seed=13)
    problem, ens = cfg.build_problem(), cfg.build_ensemble()
    family = {n: solve_penalized(problem, ens, n) for n in (16.0, 64.0)}
    norms, tail, growth = apriori_bounds(family)
    assert bounded(tail, growth)
    assert all(np.isfinite(v) for v in norms)
    assert max(norms) < 5.0


def test_uniqueness_surrogate_small():
    values = []
    for seed in (7, 8):
        cfg = dataclasses.replace(BASE, grid=TimeGrid(1.0, 50), n_paths=500, seed=seed, outer_b_samples=4)
        y0, se, _, _ = solve_outer_samples(cfg, None)
        values.append((y0, se))
    (a, sa), (b, sb) = values
    assert abs(a - b) <= 4.0 * math.sqrt(sa**2 + sb**2)
