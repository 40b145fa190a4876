import dataclasses
import math
import warnings

import numpy as np
import pytest

from levylab.errors import (
    CFLViolation, GridIncompatible, RankMismatch, SingularRegressionWarning, TerminalBelowObstacle,
)
from levylab.levy import LevySpec
from levylab.config import DEFAULTS
from levylab.paths import TimeGrid, simulate_ensemble
from levylab import pdie
from levylab.pdie import (
    PATH_STRIDE,
    FkReport,
    JumpOperator,
    PidieGrid,
    PidieGridSpec,
    complementarity_defect,
    component_functionals,
    representation_check,
    solve_obstacle_pidie,
)
from levylab.problems import NO_OBSTACLE, ProblemSpec, build_problem
from levylab.solver import solve_penalized
from levylab.teugels import basis_for

TWO_ATOM = LevySpec(atoms=((0.3, 2.0), (-0.2, 1.0)))
BASIS = basis_for(TWO_ATOM)
GRID = PidieGridSpec(theta=1.0, n_space=100, horizon=1.0, n_time=200)
SIGMA_X = DEFAULTS.build_sigma_x()  # the default config's sigma_x = 1


def custom_problem(terminal, f=None, phi=None, obstacle_level=NO_OBSTACLE):
    zero3 = lambda t, x, y: np.zeros_like(np.asarray(y, dtype=float))
    return ProblemSpec(
        name="custom",
        f=f or (lambda t, x, y, z: np.zeros_like(np.asarray(y, dtype=float))),
        phi=phi or zero3,
        g=zero3,
        terminal=terminal,
        obstacle=lambda t, x: np.full(
            np.broadcast(np.asarray(t), np.asarray(x)).shape, obstacle_level
        ),
        beta_mono=0.0,
    )


class TestScheme:
    def test_constant_terminal_gives_constant_u(self):
        prob = build_problem("constant", {"terminal_level": 2.5})
        pg = solve_obstacle_pidie(prob, TWO_ATOM, BASIS, GRID, sigma_x=SIGMA_X)
        assert np.max(np.abs(pg.u - 2.5)) < 1e-9

    def test_active_obstacle_pins_u(self):
        prob = build_problem("deterministic_obstacle", {})
        pg = solve_obstacle_pidie(prob, TWO_ATOM, BASIS, GRID, sigma_x=SIGMA_X)
        assert np.max(np.abs(pg.u - (1.0 - pg.t)[:, None])) == 0.0

    def test_terminal_row_is_exact(self):
        prob = build_problem("example51", {})
        pg = solve_obstacle_pidie(prob, TWO_ATOM, BASIS, GRID, sigma_x=SIGMA_X)
        assert np.array_equal(pg.u[-1], np.maximum(pg.x, 0.0))

    def test_obstacle_feasibility_everywhere(self):
        prob = build_problem("example51", {})
        pg = solve_obstacle_pidie(prob, TWO_ATOM, BASIS, GRID, sigma_x=SIGMA_X)
        h = prob.obstacle(pg.t[:, None], pg.x[None, :])
        assert np.all(pg.u >= h)

    def test_pure_decay_matches_discrete_product(self):
        spec0 = LevySpec()
        basis0 = basis_for(spec0)
        prob = custom_problem(
            terminal=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            f=lambda t, x, y, z: -0.1 * np.asarray(y, dtype=float),
        )
        pg = solve_obstacle_pidie(prob, spec0, basis0, GRID, sigma_x=SIGMA_X)
        product = (1.0 - 0.1 * GRID.dt) ** GRID.n_time
        assert np.max(np.abs(pg.u[0] - product)) < 1e-8

    def test_pure_transport_shifts_terminal(self):
        spec_d = LevySpec(drift_b=0.5)
        basis_d = basis_for(spec_d)
        bump = lambda x: np.exp(-8.0 * (np.asarray(x, dtype=float) + 0.3) ** 2)
        prob = custom_problem(terminal=bump)
        gs = PidieGridSpec(theta=1.0, n_space=400, horizon=0.4, n_time=800)
        pg = solve_obstacle_pidie(prob, spec_d, basis_d, gs, sigma_x=SIGMA_X)
        exact = bump(pg.x + 0.5 * 0.4)
        interior = slice(50, -50)
        assert np.max(np.abs(pg.u[0][interior] - exact[interior])) < 0.02

    def test_cfl_refusal(self):
        spec_hot = LevySpec(atoms=((0.5, 300.0),))
        prob = build_problem("constant", {})
        with pytest.raises(CFLViolation):
            solve_obstacle_pidie(
                spec=spec_hot, problem=prob, basis=basis_for(spec_hot), grid_spec=GRID, sigma_x=SIGMA_X
            )

    def test_terminal_below_obstacle_refused(self):
        prob = custom_problem(
            terminal=lambda x: np.zeros_like(np.asarray(x, dtype=float)), obstacle_level=0.5
        )
        with pytest.raises(TerminalBelowObstacle):
            solve_obstacle_pidie(prob, TWO_ATOM, BASIS, GRID, sigma_x=SIGMA_X)

    def test_continuous_part_driver_refused(self):
        # the grid generator has no second-order term, so sigma > 0 is out of scope
        spec = LevySpec(atoms=((0.5, 1.0),), sigma=0.3)
        prob = build_problem("constant", {})
        with pytest.raises(ValueError):
            solve_obstacle_pidie(prob, spec, basis_for(spec), GRID, sigma_x=SIGMA_X)

    def test_deterministic_mode_rejects_nonzero_g(self):
        prob = build_problem("linear", {"g0": 1.0})
        with pytest.raises(ValueError):
            solve_obstacle_pidie(prob, TWO_ATOM, BASIS, GRID, mode="deterministic", sigma_x=SIGMA_X)

    def test_basis_of_another_driver_refused(self):
        # on example51's driver, linear with fz1 = 0.3 reads u(0, 0) = 0.41393
        # with the driver's own basis; handed the basis of atoms (0.5, 1),
        # (-0.4, 3), of the same rank, the oracle read 0.41521 with no error
        prob = build_problem("linear", {"fz1": 0.3, "l0": 0.0, "lx": 1.0})
        pg = solve_obstacle_pidie(prob, TWO_ATOM, BASIS, GRID, sigma_x=SIGMA_X)
        assert np.interp(0.0, pg.x, pg.u[0]) == pytest.approx(0.41393, abs=5e-6)
        foreign = basis_for(LevySpec(atoms=((0.5, 1.0), (-0.4, 3.0))))
        assert foreign.rank == BASIS.rank
        with pytest.raises(RankMismatch, match="not the driver's own"):
            solve_obstacle_pidie(prob, TWO_ATOM, foreign, GRID, sigma_x=SIGMA_X)
        with pytest.raises(RankMismatch, match="not the driver's own"):
            complementarity_defect(pg, prob, TWO_ATOM, foreign, sigma_x=SIGMA_X)


class TestBoundary:
    def test_overshoot_source_matches_closed_form(self):
        # one atom beta = 3 from [-1, 1]: every jump exits through +1.  The
        # first jump from x0 = 0 overshoots by 2, every later one, from the
        # wall, by 3, so E[A_T] = 2 P(N >= 1) + 3 E[(N - 1)^+] = 2 + 1/e for
        # N ~ Poisson(1), and with phi = -0.5, f = 0 and terminal 1,
        # u(0, 0) = 1 - 0.5 (2 + 1/e).
        spec = LevySpec(atoms=((3.0, 1.0),))
        prob = custom_problem(
            terminal=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            phi=lambda t, x, y: np.full_like(np.asarray(y, dtype=float), -0.5),
        )
        gs = PidieGridSpec(theta=1.0, n_space=100, horizon=1.0, n_time=400)
        pg = solve_obstacle_pidie(prob, spec, basis_for(spec), gs, sigma_x=SIGMA_X)
        exact = 1.0 - 0.5 * (2.0 + math.exp(-1.0))
        assert abs(pg.u[0, 50] - exact) < 1e-3

    @pytest.mark.parametrize("drift", [1.0, -1.0])
    def test_outward_drift_holds_state_and_adds_source(self, drift):
        # no jumps: from x the state drifts to the wall it faces, reached at
        # time 1 - |x|, and is then held there while A grows at rate 1, so
        # with phi = -0.5, f = 0 and terminal 1, u(0, x) = 1 - 0.5 (|x| or 0)
        # on the side the drift points to; the wall behind stays at 1.
        spec = LevySpec(drift_b=drift)
        prob = custom_problem(
            terminal=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            phi=lambda t, x, y: np.full_like(np.asarray(y, dtype=float), -0.5),
        )
        gs = PidieGridSpec(theta=1.0, n_space=200, horizon=1.0, n_time=200)
        pg = solve_obstacle_pidie(prob, spec, basis_for(spec), gs, sigma_x=SIGMA_X)
        ahead, behind = (-1, 0) if drift > 0 else (0, -1)
        assert abs(pg.u[0, ahead] - 0.5) < 1e-12
        assert abs(pg.u[0, behind] - 1.0) < 1e-12
        assert abs(np.interp(0.5 * drift, pg.x, pg.u[0]) - 0.75) < 1e-3
        defect = complementarity_defect(pg, prob, spec, basis_for(spec), sigma_x=SIGMA_X)
        assert defect <= 1e-8 * (1.0 + float(np.max(np.abs(pg.u))))


# Test-only references: the transport step solved per step by scipy's
# solve_banded and the barrier read one row at a time.  The factor-once
# solve must match them; without pivoting gttrf + gttrs perform gtsv's
# operations, so the match is expected to be exact.


def solve_obstacle_pidie_reference(problem, spec, grid_spec):
    from scipy.linalg import solve_banded

    x, t = grid_spec.x, grid_spec.t
    bands, explicit = pdie._scheme(problem, spec, x, grid_spec.dt, SIGMA_X)
    u = np.empty((len(t), len(x)))
    u[-1] = problem.terminal(x)
    for k in range(len(t) - 2, -1, -1):
        u_new = solve_banded((1, 1), bands, explicit(t[k + 1], u[k + 1]))
        u[k] = np.maximum(u_new, np.asarray(problem.obstacle(t[k], x), dtype=float))
    return PidieGrid(x=x, t=t, u=u)


def complementarity_defect_reference(pgrid, problem, spec):
    t = pgrid.t
    dt = float(t[1] - t[0])
    bands, explicit = pdie._scheme(problem, spec, pgrid.x, dt, SIGMA_X)
    worst = -math.inf
    for k in range(len(t) - 1):
        u_now = pgrid.u[k]
        residual = (explicit(t[k + 1], pgrid.u[k + 1]) - pdie._banded_matvec(bands, u_now)) / dt
        slack = u_now - np.asarray(problem.obstacle(t[k], pgrid.x), dtype=float)
        worst = max(worst, float(np.max(np.minimum(slack, residual))))
    return worst


@pytest.mark.parametrize("drift", [1.0, -1.0])
@pytest.mark.parametrize("barrier", ["flat", "falling"])
def test_factored_transport_matches_per_step_solve_banded(drift, barrier):
    # the set-up of test_outward_drift_holds_state_and_adds_source, so the
    # transport bands are not the identity; the falling barrier 1.2 - t binds
    # and differs from row to row
    spec = LevySpec(drift_b=drift)
    basis = basis_for(spec)
    prob = custom_problem(
        terminal=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        phi=lambda t, x, y: np.full_like(np.asarray(y, dtype=float), -0.5),
    )
    if barrier == "falling":
        level = build_problem("deterministic_obstacle", {"level": 1.2, "slope": 1.0})
        prob = ProblemSpec(**{**vars(prob), "obstacle": level.obstacle})
    gs = PidieGridSpec(theta=1.0, n_space=200, horizon=1.0, n_time=200)
    bands, _ = pdie._scheme(prob, spec, gs.x, gs.dt, SIGMA_X)
    assert np.max(np.abs(bands[[0, 2]])) > 0.4  # off-diagonals dt / dx = 0.5
    pg = solve_obstacle_pidie(prob, spec, basis, gs, sigma_x=SIGMA_X)
    ref = solve_obstacle_pidie_reference(prob, spec, gs)
    assert np.max(np.abs(pg.u - ref.u)) <= 1e-14
    if barrier == "falling":
        assert np.any(pg.u[:-1] == prob.obstacle(pg.t[:-1, None], pg.x))
    defect = complementarity_defect(pg, prob, spec, basis, sigma_x=SIGMA_X)
    assert defect == complementarity_defect_reference(pg, prob, spec)


class TestInvariants:
    def test_complementarity_defect_small(self):
        prob = build_problem("example51", {})
        pg = solve_obstacle_pidie(prob, TWO_ATOM, BASIS, GRID, sigma_x=SIGMA_X)
        defect = complementarity_defect(pg, prob, TWO_ATOM, BASIS, sigma_x=SIGMA_X)
        scale = 1.0 + float(np.max(np.abs(pg.u)))
        assert defect <= 1e-8 * scale

    def test_grid_refinement_contracts(self):
        prob = build_problem("example51", {})
        values = []
        for n_space, n_time in ((50, 50), (100, 100), (200, 200)):
            gs = PidieGridSpec(theta=1.0, n_space=n_space, horizon=1.0, n_time=n_time)
            pg = solve_obstacle_pidie(prob, TWO_ATOM, BASIS, gs, sigma_x=SIGMA_X)
            values.append(pg.u[0, n_space // 2])
        d1 = abs(values[1] - values[0])
        d2 = abs(values[2] - values[1])
        assert d2 < d1

    # a spacing of 1/16 is exact in binary, so each target's grid position
    # is too and the interpolation rounds only in its two products; at 41
    # nodes the rounded spacing 0.05 moves a wall target 1.8e-15
    STENCIL_X = np.linspace(-1.0, 1.0, 33)

    def test_stencil_brackets_and_interpolates_the_clamped_target(self):
        # sigma_x = 1 + x^2 carries targets past both walls, where they clamp
        x = self.STENCIL_X
        op = JumpOperator.build(x, TWO_ATOM, lambda x: 1.0 + x**2)
        assert np.any(x[:, None] + op.displacement > 1.0) and np.any(x[:, None] + op.displacement < -1.0)
        assert stencil_holds(op, x, 1.0)

    def test_stencil_check_fails_on_a_shifted_left_index(self):
        x = self.STENCIL_X
        op = JumpOperator.build(x, TWO_ATOM, lambda x: 1.0 + x**2)
        for left in (np.minimum(op.left + 1, len(x) - 2), np.maximum(op.left - 1, 0)):
            assert not stencil_holds(dataclasses.replace(op, left=left), x, 1.0)


def stencil_holds(op, x, theta):
    """Whether each (node, atom) target clamp(x_j + d_jl) lies between the
    stencil's two nodes and the stencil interpolates x there to 1e-15."""
    target = np.clip(x[:, None] + op.displacement, -theta, theta)
    bracketed = np.all((x[op.left] <= target) & (target <= x[op.left + 1]))
    return bool(bracketed and np.max(np.abs(op.shift(x) - target)) <= 1e-15)


def representation_check_reference(pgrid, ens, sol):
    """The agreement report as a per-node loop of np.gradient, one
    component_functionals call and 1 + m np.interp calls per node, with
    the jump operator of the ensemble's driver and sigma_x."""
    spec, basis = ens.spec, ens.basis
    n_mc = ens.grid.n_steps
    ratio = (len(pgrid.t) - 1) // n_mc
    dx = float(pgrid.x[1] - pgrid.x[0])
    op = JumpOperator.build(pgrid.x, spec, ens.sigma_x)
    paths = np.arange(0, ens.n_paths, PATH_STRIDE)
    m = basis.rank
    y_gaps = []
    z_sq = np.zeros(m)
    z_ref = np.zeros(m)
    count = 0
    for k in range(n_mc + 1):
        u_row = pgrid.u[k * ratio]
        xs = ens.X[paths, k]
        y_gaps.append(np.abs(sol.Y[paths, k] - np.interp(xs, pgrid.x, u_row)))
        if k < n_mc:
            _, z_nodes = component_functionals(u_row, np.gradient(u_row, dx), op)
            z_at = np.empty((len(paths), m))
            for i in range(m):
                z_at[:, i] = np.interp(xs, pgrid.x, z_nodes[:, i])
            diff = sol.Z[paths, k, :] - z_at
            z_sq += np.sum(diff**2, axis=0)
            z_ref += np.sum(z_at**2, axis=0)
            count += len(paths)
    y_gaps = np.concatenate(y_gaps)
    return FkReport(
        y0_gap=float(abs(sol.y0_value - np.interp(ens.x0, pgrid.x, pgrid.u[0]))),
        y_max_gap=float(np.max(y_gaps)),
        y_mean_gap=float(np.mean(y_gaps)),
        z_rms_gap=tuple(float(v) for v in np.sqrt(z_sq / count)),
        z_scale=tuple(float(v) for v in np.sqrt(z_ref / count)),
        n_sampled=len(paths),
    )


@pytest.fixture(scope="module")
def mc_setup():
    grid = TimeGrid(1.0, 100)
    ens = simulate_ensemble(TWO_ATOM, grid, 600, 13, theta=1.0, x0=0.0, sigma_x=SIGMA_X)
    return grid, ens


class TestRepresentation:

    def test_constant_case_all_zero(self, mc_setup):
        grid, ens = mc_setup
        prob = custom_problem(terminal=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
        sol = solve_penalized(prob, ens)
        pg = solve_obstacle_pidie(prob, TWO_ATOM, BASIS, GRID, sigma_x=ens.sigma_x)
        report = representation_check(pg, sol)
        assert report.y_max_gap < 1e-9
        assert max(report.z_rms_gap) < 1e-9

    def test_obstacle_everywhere_flat_z(self, mc_setup):
        grid, ens = mc_setup
        prob = build_problem("deterministic_obstacle", {})
        sol = solve_penalized(prob, ens)
        pg = solve_obstacle_pidie(prob, TWO_ATOM, BASIS, GRID, sigma_x=ens.sigma_x)
        report = representation_check(pg, sol)
        # u = 1 - t is flat in x: the jump remainder vanishes and Z tracks 0
        assert report.y_max_gap < 1e-9
        assert max(report.z_rms_gap) < 1e-9

    def test_grid_incompatible(self, mc_setup):
        grid, ens = mc_setup
        prob = build_problem("deterministic_obstacle", {})
        sol = solve_penalized(prob, ens)
        bad = PidieGridSpec(theta=1.0, n_space=50, horizon=1.0, n_time=150)
        pg = solve_obstacle_pidie(prob, TWO_ATOM, BASIS, bad, sigma_x=ens.sigma_x)
        with pytest.raises(GridIncompatible):
            representation_check(pg, sol)

    def test_y0_gap_interpolates_between_nodes(self, mc_setup):
        # with an odd n_space, x0 = 0 falls halfway between two nodes
        grid, ens = mc_setup
        prob = build_problem("example51", {})
        sol = solve_penalized(prob, ens)
        gs = PidieGridSpec(1.0, 101, 1.0, 200)
        pg = solve_obstacle_pidie(prob, TWO_ATOM, BASIS, gs, sigma_x=ens.sigma_x)
        report = representation_check(pg, sol)
        assert report.y0_gap == abs(sol.y0_value - np.interp(0.0, pg.x, pg.u[0]))


def test_row_kernels_match_numpy_bit_for_bit():
    # _gradient is np.gradient's uniform-grid arithmetic, row by row
    rng = np.random.default_rng(5)
    x = PidieGridSpec(1.0, 101, 1.0, 1).x
    dx = float(x[1] - x[0])
    u = rng.normal(size=(6, len(x)))
    assert np.array_equal(pdie._gradient(u, dx), np.gradient(u, dx, axis=-1))


UP_JUMP = LevySpec(atoms=((1.5, 1.0), (-0.2, 1.0)))


@pytest.mark.parametrize(
    "case",
    ["mc_setup", "off-node", "clamped", "affine-sigma-x"],
)
def test_one_pass_report_matches_the_per_node_loop(case, mc_setup):
    # off-node: with an odd n_space every x0-adjacent value is interpolated;
    # clamped: jumps of 1.5 from (-1, 1) pin paths at +theta, the last grid
    # node, where np.interp returns the end value; affine-sigma-x: the
    # report reads the ensemble's sigma_x = 1 + 0.25 x, not sigma_x = 1
    spec, ens, gs = TWO_ATOM, mc_setup[1], GRID
    if case == "off-node":
        gs = PidieGridSpec(1.0, 101, 1.0, 200)
    elif case == "affine-sigma-x":
        cfg = dataclasses.replace(DEFAULTS, sigma_x=("affine", 1.0, 0.25), n_paths=600, seed=13)
        ens = cfg.build_ensemble()
    elif case == "clamped":
        spec = UP_JUMP
        ens = simulate_ensemble(spec, TimeGrid(1.0, 50), 400, 3, theta=1.0, x0=0.0, sigma_x=SIGMA_X)
        sampled = ens.X[::PATH_STRIDE]
        assert np.any(sampled == 1.0) and np.any(sampled < 1.0)
    prob = build_problem("example51", {})
    sol = solve_penalized(prob, ens)
    pg = solve_obstacle_pidie(prob, spec, ens.basis, gs, sigma_x=ens.sigma_x)
    report = representation_check(pg, sol)
    ref = representation_check_reference(pg, ens, sol)
    assert report.y0_gap == ref.y0_gap
    assert report.n_sampled == ref.n_sampled
    for name in ("y_max_gap", "y_mean_gap", "z_rms_gap", "z_scale"):
        got, want = np.atleast_1d(getattr(report, name)), np.atleast_1d(getattr(ref, name))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=name)
    assert max(ref.z_scale) > 0.0 and ref.y_max_gap > 0.0
    if case == "affine-sigma-x":  # the same report on sigma_x = 1 reads another Z scale
        unit = representation_check_reference(pg, dataclasses.replace(ens, sigma_x=SIGMA_X), sol)
        assert np.min(np.abs(np.subtract(report.z_scale, unit.z_scale))) > 1e-3


def test_constant_level_case_z_exactly_small(mc_setup):
    # nonzero constant terminal: the centered Z regression still returns ~0
    grid, ens = mc_setup
    prob = custom_problem(terminal=lambda x: np.full_like(np.asarray(x, dtype=float), 2.5))
    sol = solve_penalized(prob, ens)
    pg = solve_obstacle_pidie(prob, TWO_ATOM, BASIS, GRID, sigma_x=ens.sigma_x)
    report = representation_check(pg, sol)
    assert report.y_max_gap < 1e-8
    assert max(report.z_rms_gap) < 1e-8


def test_z_dependent_driver_crosscheck():
    # f couples to the first jump functional; both methods must track it
    def f(t, x, y, z):
        z = np.asarray(z)
        z1 = z[..., 0] if z.ndim and z.shape[-1] else 0.0
        return -0.1 * np.asarray(y, dtype=float) + 0.3 * z1

    prob = ProblemSpec(
        name="zdep",
        f=f,
        phi=lambda t, x, y: -0.5 * np.asarray(y, dtype=float),
        g=lambda t, x, y: np.zeros_like(np.asarray(y, dtype=float)),
        terminal=lambda x: np.maximum(np.asarray(x, dtype=float), 0.0),
        obstacle=lambda t, x: np.full(np.broadcast(np.asarray(t), np.asarray(x)).shape, -1e9),
        beta_mono=-0.5,
    )
    grid = TimeGrid(1.0, 100)
    ens = simulate_ensemble(TWO_ATOM, grid, 8000, 5, theta=1.0, x0=0.0, sigma_x=SIGMA_X)
    sol = solve_penalized(prob, ens)
    gs = PidieGridSpec(1.0, 100, 1.0, 200)
    pg = solve_obstacle_pidie(prob, TWO_ATOM, BASIS, gs, sigma_x=ens.sigma_x)
    u00 = float(pg.u[0, 50])
    assert abs(sol.y0_value - u00) < 0.03


def test_pathwise_mode_matches_monte_carlo_with_shared_brownian():
    # g = g(t, x) with one frozen Brownian path drives both methods
    g_fun = lambda t, x, y: 0.2 * np.cos(np.asarray(x, dtype=float)) + 0.0 * np.asarray(y)
    prob = ProblemSpec(
        name="pathwise",
        f=lambda t, x, y, z: -0.1 * np.asarray(y, dtype=float),
        phi=lambda t, x, y: -0.5 * np.asarray(y, dtype=float),
        g=g_fun,
        terminal=lambda x: np.maximum(np.asarray(x, dtype=float), 0.0),
        obstacle=lambda t, x: np.full(np.broadcast(np.asarray(t), np.asarray(x)).shape, -1e9),
        beta_mono=-0.5,
    )
    mc_grid = TimeGrid(1.0, 100)
    ens = simulate_ensemble(TWO_ATOM, mc_grid, 4000, 99, theta=1.0, x0=0.0, sigma_x=SIGMA_X)
    sol = solve_penalized(prob, ens)
    # refine the Brownian path onto the finer grid by reusing the shared nodes
    ratio = 2
    gs = PidieGridSpec(theta=1.0, n_space=100, horizon=1.0, n_time=100 * ratio)
    b_fine = np.empty(gs.n_time + 1)
    b_fine[::ratio] = ens.B
    b_fine[1::ratio] = 0.5 * (ens.B[:-1] + ens.B[1:])  # midpoint fill of the frozen path
    pg = solve_obstacle_pidie(
        prob, TWO_ATOM, BASIS, gs, mode="pathwise", b_path=b_fine, sigma_x=ens.sigma_x
    )
    u00 = pg.u[0, 50]
    assert abs(sol.y0_value - u00) < 0.08


def representation_check_per_path(pgrid, sol):
    """The agreement report evaluated at every sampled path of every node,
    the rows stacked [node, path, column]: the per-path form of
    :func:`representation_check`, which evaluates per state under a state
    record."""
    ens = sol.ens
    rank, n_mc = ens.basis.rank, ens.grid.n_steps
    ratio = (len(pgrid.t) - 1) // n_mc
    dx = float(pgrid.x[1] - pgrid.x[0])
    op = JumpOperator.build(pgrid.x, ens.spec, ens.sigma_x)
    paths = np.arange(0, ens.n_paths, PATH_STRIDE)
    u_rows = pgrid.u[::ratio]
    _, z_nodes = component_functionals(u_rows, pdie._gradient(u_rows, dx), op)
    columns = np.concatenate([u_rows[..., None], z_nodes], axis=-1)
    X = ens.X.T[:, paths]
    at = np.empty(X.shape + columns.shape[-1:])
    for k, x in enumerate(X):
        for c in range(columns.shape[-1]):
            at[k, :, c] = np.interp(x, pgrid.x, columns[k, :, c])
    y_mc = np.empty(X.shape)
    z_mc = np.empty((n_mc, rank, len(paths)))
    for k in range(n_mc + 1):
        sol.evaluate(k, X[k], y=y_mc[k], z=z_mc[k] if k < n_mc else None)
    y_gaps = np.abs(y_mc - at[..., 0])
    z_at = at[:-1, :, 1:]
    z_ref = np.sum(np.sum(np.square(z_at), axis=1), axis=0)
    z_sq = np.sum(np.sum(np.square(z_mc.transpose(0, 2, 1) - z_at), axis=1), axis=0)
    count = n_mc * len(paths)
    return FkReport(
        y0_gap=float(abs(sol.y0_value - np.interp(ens.x0, pgrid.x, pgrid.u[0]))),
        y_max_gap=float(np.max(y_gaps)),
        y_mean_gap=float(np.mean(y_gaps)),
        z_rms_gap=tuple(float(v) for v in np.sqrt(z_sq / count)),
        z_scale=tuple(float(v) for v in np.sqrt(z_ref / count)),
        n_sampled=len(paths),
    )


DRIFT = LevySpec(atoms=((0.3, 2.0), (-0.2, 1.0)), drift_b=0.2)


@pytest.mark.parametrize("penalization", [None, 4.0, 256.0])
@pytest.mark.parametrize("case", ["non-binding", "binding", "drift"])
def test_per_state_report_matches_the_per_path_report(case, penalization, mc_setup):
    # under the idle driver the report evaluates each node once per state
    # and gathers to the sampled paths; under a drift each path is its own
    # state.  y0 and the sample agree bit for bit with the report evaluated
    # at every sampled path.  The rest agree to a few ulps: per state, Y is
    # the sweep's own row, which the Y fit's product at another point
    # count may round one ulp apart (EnsembleSolution.evaluate), and the Z
    # sums run over the contiguous path axis, which numpy sums pairwise
    # where the per-path form summed path by path.
    spec, ens = TWO_ATOM, mc_setup[1]
    if case == "drift":
        spec = DRIFT
        ens = simulate_ensemble(spec, TimeGrid(1.0, 100), 600, 13, theta=1.0, x0=0.0, sigma_x=SIGMA_X)
    assert (ens.states is None) == (case == "drift")
    params = {"h_scale": 1.0, "h_offset": 0.0} if case == "binding" else {}
    prob = build_problem("example51", params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SingularRegressionWarning)
        sol = solve_penalized(prob, ens, penalization)
    assert (np.mean(sol.K_T) > 0.01) == (case == "binding")
    pg = solve_obstacle_pidie(prob, spec, ens.basis, GRID, sigma_x=ens.sigma_x)
    report = representation_check(pg, sol)
    ref = representation_check_per_path(pg, sol)
    assert report.y0_gap == ref.y0_gap and report.n_sampled == ref.n_sampled
    for name in ("y_max_gap", "y_mean_gap", "z_rms_gap", "z_scale"):
        got, want = np.atleast_1d(getattr(report, name)), np.atleast_1d(getattr(ref, name))
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0, err_msg=name)
    assert report.rows() == ref.rows()
