"""Finite-difference solver for the obstacle problem with the path
engine's jump generator; the independent cross-check for the Monte Carlo
solver.

The backward-in-time equation on [-theta, theta], terminal u(T, .) = l,

    du/dt + b sigma_x(x) du/dx + f(t, x, u, z(u))
        + sum_l alpha_l [u(t, clamp(x + sigma_x(x) beta_l)) - u(t, x)]
        + sum_l alpha_l phi(t, x_l, u(t, x_l)) (|x + sigma_x(x) beta_l| - theta)^+
        + g source = 0
    above the barrier  u >= h,

where b = drift_b is the driver's slope between jumps, x_l = +-theta is the
wall the jump is clamped to, and z(u) feeds the driver the same
per-component jump functionals the Monte Carlo Z estimates (see
:func:`component_functionals`).  This is the generator of the path
engine's clamp-reflected state: a jump that leaves the domain is clamped
onto the wall, and its overshoot is the jump of the local time A, so the
overshoot term is the oracle's phi dA.  A drift that points out of the
domain at a wall holds the state there and adds A at rate |b sigma_x|,
the source phi |b sigma_x| in that wall's row.  The wall rows need no
condition of their own.

Time stepping is implicit (upwind) in the linear transport, explicit in
f, the jump term and the phi dA source, followed by projection onto the
barrier.  The explicit jump term requires dt * (total jump intensity) <= 1.

The transport matrix is the same at every step, so a solve factors it
once (LAPACK ``gttrf``) and each step solves against the factor
(``gttrs``, through :func:`solve_banded`).  The barrier on the whole grid
comes from one ``obstacle(t[:, None], x)`` call.  What the jump term, its
functionals and the phi dA source read of the driver, its basis and
sigma_x on the grid is built once per solve from the
:class:`~levylab.levy.LevySpec`, the basis by
:func:`~levylab.teugels.basis_for` (:meth:`JumpOperator.build`).  scipy's
LAPACK wrappers are imported at the first factorization and solve, so
importing the module does not load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CFLViolation, GridIncompatible, RankMismatch, TerminalBelowObstacle
from .levy import LevySpec
from .problems import ProblemSpec
from .solver import EnsembleSolution
from .teugels import TeugelsBasis, basis_for

#: Every PATH_STRIDE-th Monte Carlo path is sampled by the agreement report.
PATH_STRIDE = 37

#: The agreement report's ``mode`` row: the oracle solves with g = 0.
MODE_NOTE = "deterministic (g = 0)"


@dataclass(frozen=True)
class PidieGridSpec:
    """Resolution of the space-time grid: n_space intervals, n_time steps."""

    theta: float
    n_space: int
    horizon: float
    n_time: int

    def __post_init__(self):
        if self.theta <= 0 or self.n_space < 2 or self.horizon <= 0 or self.n_time < 1:
            raise ValueError("invalid grid spec")

    @property
    def x(self) -> np.ndarray:
        return np.linspace(-self.theta, self.theta, self.n_space + 1)

    @property
    def t(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_time + 1)

    @property
    def dx(self) -> float:
        return 2.0 * self.theta / self.n_space

    @property
    def dt(self) -> float:
        return self.horizon / self.n_time


@dataclass
class PidieGrid:
    """Solution values u[time node, space node]."""

    x: np.ndarray
    t: np.ndarray
    u: np.ndarray


@dataclass(frozen=True)
class JumpOperator:
    """The driver's jump data on the space grid, built once per solve by
    :meth:`build`.

    ``left`` and ``w_left`` interpolate u linearly at
    clamp(x_j + sigma_x(x_j) beta_l), clamped to the grid's ends (the
    walls): the left node index and weight per (node, atom), the right
    weight 1 - w_left, so weights sum to one.
    ``displacement`` is the unclamped displacement sigma_x(x) beta,
    ``intensities`` the alpha_l and ``sig`` sigma_x at the nodes.  The basis
    data of :func:`component_functionals` are ``p_at_beta``, p_i(beta_l) as
    [atom, rank] from :func:`~levylab.teugels.basis_for`, and ``root_m2``,
    sqrt(m2) with m2 = sum_l alpha_l beta_l^2 + sigma^2.
    """

    left: np.ndarray
    w_left: np.ndarray
    displacement: np.ndarray
    intensities: np.ndarray
    sig: np.ndarray
    p_at_beta: np.ndarray
    root_m2: float

    @classmethod
    def build(cls, x: np.ndarray, spec: LevySpec, sigma_x: Callable) -> "JumpOperator":
        sig = np.asarray(sigma_x(x), dtype=float)
        disp = sig[:, None] * spec.jump_sizes[None, :]
        target = np.clip(x[:, None] + disp, x[0], x[-1])
        pos = (target - x[0]) / (x[1] - x[0])
        left = np.clip(np.floor(pos).astype(np.intp), 0, len(x) - 2)
        m2 = float(np.sum(spec.intensities * spec.jump_sizes**2)) + spec.sigma**2
        return cls(left=left, w_left=1.0 - (pos - left), displacement=disp,
                   intensities=spec.intensities, sig=sig,
                   p_at_beta=basis_for(spec).jump_weights.T, root_m2=math.sqrt(m2))

    def shift(self, u: np.ndarray) -> np.ndarray:
        """Evaluate u at every shifted point; shape [..., n_nodes, n_atoms]
        for ``u`` [..., n_nodes]."""
        return u[..., self.left] * self.w_left + u[..., self.left + 1] * (1.0 - self.w_left)


def component_functionals(
    u: np.ndarray, du: np.ndarray, op: JumpOperator
) -> tuple[np.ndarray, np.ndarray]:
    """Jump term and per-component jump functionals of u rows.

    ``u`` and ``du`` are [..., node]: one row, or a stack of rows.  Returns
    (nl, z) with nl[j] = sum_l alpha_l [u(clamp(x_j + d_jl)) - u_j] and
    z[j, i] = sum_l alpha_l u1_jl p_{i+1}(beta_l), where
    u1_jl = u(clamp(x_j + d_jl)) - u_j - du_j d_jl is the second-order
    remainder, plus the diffusion-style correction sigma_x(x) du/dx
    sqrt(m2) on the first component; z has the basis's rank columns,
    matching the Monte Carlo Z layout.
    """
    jump = op.shift(u) - u[..., None]
    nl = (jump * op.intensities).sum(axis=-1)
    weighted = (jump - du[..., None] * op.displacement) * op.intensities
    z = weighted @ op.p_at_beta
    if z.shape[-1]:
        z[..., 0] += op.sig * du * op.root_m2
    return nl, z


def _gradient(u: np.ndarray, dx: float) -> np.ndarray:
    """``np.gradient(u, dx, axis=-1)`` on the uniform grid, in its arithmetic:
    central differences inside, one-sided at the two ends."""
    du = np.empty_like(u)
    du[..., 1:-1] = (u[..., 2:] - u[..., :-2]) / (2.0 * dx)
    du[..., 0] = (u[..., 1] - u[..., 0]) / dx
    du[..., -1] = (u[..., -1] - u[..., -2]) / dx
    return du


def _barrier(problem: ProblemSpec, t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The obstacle on the whole grid, [time node, space node], in one call."""
    h = np.asarray(problem.obstacle(t[:, None], x), dtype=float)
    return np.broadcast_to(h, (len(t), len(x)))


def _grid_values(g: Callable, t: np.ndarray, x: np.ndarray, u: float) -> np.ndarray:
    """g(t, x, u) at a constant u on the whole grid, in one call; the result
    broadcasts to [time node, space node] and is only that large when g
    depends on t."""
    return np.asarray(g(t[:, None], x, np.full_like(x, u)), dtype=float)


def _transport_bands(c: np.ndarray, dt: float, dx: float) -> np.ndarray:
    """Banded (ab-form) matrix of the implicit upwind transport step.

    Row j solves u_j - dt c_j D u_j = rhs_j with D the upwind one-sided
    difference (forward when c_j > 0, backward when c_j < 0).  A wall row
    whose drift points out of the domain has no upwind neighbour: it is an
    identity, the state held at the wall.
    """
    nu = dt / dx
    fwd = np.maximum(c, 0.0) * nu
    bwd = np.maximum(-c, 0.0) * nu
    fwd[-1] = bwd[0] = 0.0
    upper = np.zeros_like(c)
    lower = np.zeros_like(c)
    upper[1:] = -fwd[:-1]
    lower[:-1] = -bwd[1:]
    return np.vstack([upper, 1.0 + fwd + bwd, lower])


def _banded_matvec(ab: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The product of an ab-form tridiagonal matrix with ``v``."""
    out = ab[1] * v
    out[:-1] += ab[0, 1:] * v[1:]
    out[1:] += ab[2, :-1] * v[:-1]
    return out


def _wall_rates(x: np.ndarray, op: JumpOperator, c: np.ndarray) -> np.ndarray:
    """Growth rate of the local time A at each wall, per node: [2, node].

    Row 0 is the wall -theta = x[0], row 1 the wall +theta = x[-1].  A
    jump from x_j that leaves the domain adds its overshoot
    (|x_j + d| - theta)^+ to A at the wall it is clamped to; a drift that
    points out of the domain at a wall node adds |c| per unit time there.
    """
    target = x[:, None] + op.displacement
    rates = np.stack([
        np.maximum(x[0] - target, 0.0) @ op.intensities,
        np.maximum(target - x[-1], 0.0) @ op.intensities,
    ])
    rates[0, 0] += max(-c[0], 0.0)
    rates[1, -1] += max(c[-1], 0.0)
    return rates


def _check_basis(spec: LevySpec, basis: TeugelsBasis) -> None:
    """Raise :class:`RankMismatch` unless ``basis`` is ``basis_for(spec)``,
    which is deterministic, so the arrays compare exactly."""
    own = basis_for(spec)
    if not (np.array_equal(basis.jump_weights, own.jump_weights) and np.array_equal(basis.q_zero, own.q_zero)):
        raise RankMismatch("the basis is not the driver's own (basis_for(spec))")


def _scheme(
    problem: ProblemSpec,
    spec: LevySpec,
    x: np.ndarray,
    dt: float,
    sigma_x: Callable,
) -> tuple[np.ndarray, Callable[[float, np.ndarray], np.ndarray]]:
    """The implicit transport bands and the explicit part of one step.

    A step from u_next at t_next solves bands @ u = explicit(t_next,
    u_next): u_next plus dt times f, the jump term and the phi dA source,
    all evaluated at u_next.
    """
    dx = float(x[1] - x[0])
    op = JumpOperator.build(x, spec, sigma_x)
    c = spec.drift_b * op.sig
    rates = _wall_rates(x, op, c)
    walls = x[[0, -1]]

    def explicit(t_next: float, u_next: np.ndarray) -> np.ndarray:
        du_next = _gradient(u_next, dx)
        nl, z = component_functionals(u_next, du_next, op)
        fval = np.asarray(problem.f(t_next, x, u_next, z), dtype=float)
        phi_walls = np.asarray(problem.phi(t_next, walls, u_next[[0, -1]]), dtype=float)
        return u_next + dt * (fval + nl + phi_walls @ rates)

    return _transport_bands(c, dt, dx), explicit


def factor_banded(ab: np.ndarray) -> tuple[np.ndarray, ...]:
    """LU factor of an ab-form tridiagonal matrix (LAPACK ``gttrf``).

    Returns the five arrays :func:`solve_banded` takes; scipy is imported
    at the first call.
    """
    from scipy.linalg.lapack import dgttrf

    *factor, info = dgttrf(ab[2, :-1], ab[1], ab[0, 1:])
    if info:
        raise np.linalg.LinAlgError("singular transport matrix")
    return tuple(factor)


# perfbench's tracer binds this name: each call is one timed transport solve.
def solve_banded(factor: tuple[np.ndarray, ...], b: np.ndarray) -> np.ndarray:
    """Solve against a :func:`factor_banded` factor (LAPACK ``gttrs``).

    Without pivoting, which a diagonally dominant transport matrix never
    needs, ``gttrf`` and ``gttrs`` perform the operations of ``gtsv``, the
    routine behind ``scipy.linalg.solve_banded((1, 1), ...)``.
    """
    from scipy.linalg.lapack import dgttrs

    x, _ = dgttrs(*factor, b)
    return x


def solve_obstacle_pidie(
    problem: ProblemSpec,
    spec: LevySpec,
    basis: TeugelsBasis,
    grid_spec: PidieGridSpec,
    mode: str = "deterministic",
    b_path: np.ndarray | None = None,
    *,
    sigma_x: Callable,
) -> PidieGrid:
    """Backward sweep of the projected finite-difference scheme.

    ``mode`` is "deterministic" (g must vanish) or "pathwise" (g may
    depend on (t, x) only; the g dB term enters as a known per-step
    source read off the supplied Brownian path at the grid's time nodes).
    ``basis`` must be ``basis_for(spec)``, else :class:`RankMismatch`; the
    solve builds its own from ``spec``.
    """
    if spec.continuous_part:
        raise ValueError(
            "the grid oracle covers pure-jump drivers only; a continuous part adds a "
            "second-order term outside its generator"
        )
    _check_basis(spec, basis)
    x = grid_spec.x
    t = grid_spec.t
    dt = grid_spec.dt
    nn = len(x)

    total_intensity = spec.total_intensity
    if dt * total_intensity > 1.0:
        raise CFLViolation(
            f"dt * total intensity = {dt * total_intensity:.3f} > 1; refine the time grid"
        )
    # g probed at u = 0 and u = 1 on every grid node, so a g that vanishes
    # only at u = 0, or only at t_0, is caught
    g_zero = _grid_values(problem.g, t, x, 0.0)
    u_dependence = float(np.max(np.abs(_grid_values(problem.g, t, x, 1.0) - g_zero)))
    if mode == "deterministic":
        if max(float(np.max(np.abs(g_zero))), u_dependence) > 0.0:
            raise ValueError("deterministic mode requires g to vanish for every (t, x, u)")
        db = np.zeros(grid_spec.n_time)
    elif mode == "pathwise":
        if b_path is None:
            raise ValueError("pathwise mode needs a Brownian path at the grid's time nodes")
        b = np.asarray(b_path, dtype=float)
        if b.shape != t.shape:
            raise GridIncompatible("Brownian path length does not match the time grid")
        if u_dependence > 0.0:
            raise ValueError("pathwise mode requires g independent of u")
        db = np.diff(b)
        g_zero = np.broadcast_to(g_zero, (len(t), nn))
    else:
        raise ValueError(f"unknown mode {mode!r}")

    bands, explicit = _scheme(problem, spec, x, dt, sigma_x)
    factor = factor_banded(bands)
    h = _barrier(problem, t, x)
    u = np.empty((grid_spec.n_time + 1, nn))
    term = np.asarray(problem.terminal(x), dtype=float)
    if float(np.min(term - h[-1])) < -1e-9:
        raise TerminalBelowObstacle("terminal data falls below the obstacle")
    u[-1] = term

    for k in range(grid_spec.n_time - 1, -1, -1):
        rhs = explicit(t[k + 1], u[k + 1])
        if mode == "pathwise":
            rhs = rhs + g_zero[k + 1] * db[k]
        np.maximum(solve_banded(factor, rhs), h[k], out=u[k])
    return PidieGrid(x=x, t=t, u=u)


def complementarity_defect(
    pgrid: PidieGrid,
    problem: ProblemSpec,
    spec: LevySpec,
    basis: TeugelsBasis,
    *,
    sigma_x: Callable,
) -> float:
    """Post-hoc max over nodes of min(u - h, discrete residual).

    The residual re-evaluates the scheme's own operator and phi dA source
    on the stored solution, so away from the projected set it vanishes to
    rounding and on it the parabolic operator is slack; the reported max
    should stay at rounding scale.  Wall rows obey the same operator, so
    every node is included.  ``basis`` must be ``basis_for(spec)``, as for
    :func:`solve_obstacle_pidie`.
    """
    _check_basis(spec, basis)
    t = pgrid.t
    dt = float(t[1] - t[0])
    bands, explicit = _scheme(problem, spec, pgrid.x, dt, sigma_x)
    h = _barrier(problem, t, pgrid.x)
    worst = -math.inf
    for k in range(len(t) - 1):
        u_now = pgrid.u[k]
        residual = (explicit(t[k + 1], pgrid.u[k + 1]) - _banded_matvec(bands, u_now)) / dt
        worst = max(worst, float(np.max(np.minimum(u_now - h[k], residual))))
    return worst


@dataclass(frozen=True)
class FkReport:
    """Cross-method agreement summary between Monte Carlo and the grid."""

    y0_gap: float
    y_max_gap: float
    y_mean_gap: float
    z_rms_gap: tuple[float, ...]
    z_scale: tuple[float, ...]
    n_sampled: int

    def rows(self) -> list[tuple[str, str]]:
        out = [
            ("mode", MODE_NOTE),
            ("y0_gap", f"{self.y0_gap:.6g}"),
            ("y_max_gap", f"{self.y_max_gap:.6g}"),
            ("y_mean_gap", f"{self.y_mean_gap:.6g}"),
            ("n_sampled", str(self.n_sampled)),
        ]
        for i, (rms, scale) in enumerate(zip(self.z_rms_gap, self.z_scale), start=1):
            out.append((f"z{i}_rms_gap", f"{rms:.6g}"))
            out.append((f"z{i}_scale", f"{scale:.6g}"))
        return out


def representation_check(pgrid: PidieGrid, sol: EnsembleSolution) -> FkReport:
    """Compare the Monte Carlo solution against the grid solution.

    Checks Y against u(t, X_t) at a subsample of (path, node) pairs and
    the Monte Carlo Z components against the jump functionals of u
    (:func:`component_functionals`) evaluated at the same points.  Per
    node, u and its functionals are interpolated (``np.interp``) and the
    Monte Carlo rows evaluated from the sweep's fits
    (:meth:`EnsembleSolution.evaluate_gathered`) at the node's points of
    :meth:`~levylab.paths.PathEnsemble.node_states`: once per state of the
    ensemble's state record, gathered to the sampled paths, or at the
    sampled paths' own states under a driver without one.  The rows are
    stacked [node, column, path], so every reduction over the paths reads
    a contiguous row.  Grids must share the
    horizon and domain, with the grid's time nodes refining the Monte
    Carlo nodes.  The states, the driver, its basis and the forward
    coefficient sigma_x are those of the solution's ensemble ``sol.ens``.
    """
    ens = sol.ens
    rank = ens.basis.rank
    n_mc = ens.grid.n_steps
    n_fd = len(pgrid.t) - 1
    if abs(pgrid.t[-1] - ens.grid.horizon) > 1e-12:
        raise GridIncompatible("horizons differ")
    if abs(abs(pgrid.x[0]) - ens.theta) > 1e-12:
        raise GridIncompatible("domains differ")
    if n_fd % n_mc != 0:
        raise GridIncompatible(
            f"grid time steps ({n_fd}) must be a multiple of Monte Carlo steps ({n_mc})"
        )
    ratio = n_fd // n_mc
    dx = float(pgrid.x[1] - pgrid.x[0])
    op = JumpOperator.build(pgrid.x, ens.spec, ens.sigma_x)

    # u and its jump functionals on the Monte Carlo nodes, stacked as
    # [node, column, space node] rows, formed at once and read by np.interp
    paths = np.arange(0, ens.n_paths, PATH_STRIDE)
    u_rows = pgrid.u[::ratio]  # [node, space node]
    _, z_nodes = component_functionals(u_rows, _gradient(u_rows, dx), op)
    columns = np.concatenate([u_rows[:, None, :], z_nodes.transpose(0, 2, 1)], axis=1)
    # per node, u, its functionals and the Monte Carlo Y and Z at the
    # node's points, gathered to the sampled paths: [node, column, path]
    at = np.empty((n_mc + 1, 1 + rank, len(paths)))
    y_mc = np.empty((n_mc + 1, len(paths)))
    z_mc = np.empty((n_mc, rank, len(paths)))  # Z has no step after the last node
    for k, x, index in ens.node_states(paths):
        on_grid = np.array([np.interp(x, pgrid.x, column) for column in columns[k]])
        at[k] = on_grid if index is None else on_grid[:, index]
        sol.evaluate_gathered(k, x, index, y=y_mc[k], z=z_mc[k] if k < n_mc else None)
    y_gaps = np.abs(y_mc - at[:, 0])
    z_at = at[:-1, 1:]
    # sums over paths per node, then over nodes
    z_ref = np.sum(np.sum(np.square(z_at), axis=-1), axis=0)
    z_sq = np.sum(np.sum(np.square(z_mc - z_at), axis=-1), axis=0)
    count = n_mc * len(paths)
    z_rms = tuple(float(v) for v in np.sqrt(z_sq / max(count, 1)))
    z_scale = tuple(float(v) for v in np.sqrt(z_ref / max(count, 1)))
    return FkReport(
        y0_gap=float(abs(sol.y0_value - np.interp(ens.x0, pgrid.x, pgrid.u[0]))),
        y_max_gap=float(np.max(y_gaps)),
        y_mean_gap=float(np.mean(y_gaps)),
        z_rms_gap=z_rms,
        z_scale=z_scale,
        n_sampled=int(len(paths)),
    )
