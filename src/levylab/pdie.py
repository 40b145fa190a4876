"""Finite-difference solver for the obstacle problem with the path
engine's jump generator; the independent cross-check for the Monte Carlo
solver.

The backward-in-time equation on [-theta, theta], terminal u(T, .) = l,

    du/dt + b sigma_x(x) du/dx + f(t, x, u, z(u))
        + sum_l alpha_l [u(t, clamp(x + sigma_x(x) beta_l)) - u(t, x)]
        + sum_l alpha_l phi(t, x_l, u(t, x_l)) (|x + sigma_x(x) beta_l| - theta)^+
        + g source = 0
    above the barrier  u >= h,

where b is the driver's linear drift between jumps, x_l = +-theta is the
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

The transport step is solved by scipy's banded solver through this
module's :func:`solve_banded`, which imports scipy at its first call, so
importing the module does not load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CFLViolation, GridIncompatible, TerminalBelowObstacle
from .levy import LevySpec, linear_drift
from .paths import PathEnsemble, unit_coefficient
from .problems import ProblemSpec
from .solver import EnsembleSolution
from .teugels import TeugelsBasis

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
class NonlocalStencil:
    """Linear interpolation data for u(t, clamp(x_j + sigma_x(x_j) beta_l)).

    ``left`` and ``w_left`` give the left node index and weight per
    (node, atom); the right weight is 1 - w_left, so weights sum to one.
    ``displacement`` is the unclamped jump displacement sigma_x(x) beta.
    """

    left: np.ndarray
    w_left: np.ndarray
    displacement: np.ndarray
    intensities: np.ndarray

    def shift(self, u_row: np.ndarray) -> np.ndarray:
        """Evaluate u at every shifted point; shape [n_nodes, n_atoms]."""
        return u_row[self.left] * self.w_left + u_row[self.left + 1] * (1.0 - self.w_left)


def build_nonlocal_stencil(
    x: np.ndarray, theta: float, spec: LevySpec, sigma_x: Callable
) -> NonlocalStencil:
    sig = np.asarray(sigma_x(x), dtype=float)
    disp = sig[:, None] * spec.jump_sizes[None, :]
    target = np.clip(x[:, None] + disp, -theta, theta)
    dx = x[1] - x[0]
    pos = (target - x[0]) / dx
    left = np.clip(np.floor(pos).astype(np.intp), 0, len(x) - 2)
    w_left = 1.0 - (pos - left)
    return NonlocalStencil(left=left, w_left=w_left, displacement=disp, intensities=spec.intensities)


def component_functionals(
    u_row: np.ndarray,
    du_row: np.ndarray,
    stencil: NonlocalStencil,
    basis: TeugelsBasis,
    spec: LevySpec,
    sig: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Jump term and per-component jump functionals of a u row.

    Returns (nl, z) with nl[j] = sum_l alpha_l [u(clamp(x_j + d_jl)) - u_j]
    and z[j, i] = sum_l alpha_l u1_jl p_{i+1}(beta_l), where
    u1_jl = u(clamp(x_j + d_jl)) - u_j - du_j d_jl is the second-order
    remainder, plus the diffusion-style correction sigma_x(x) du/dx
    sqrt(m2) on the first component; columns at or beyond the basis rank
    are zero, matching the Monte Carlo Z layout.
    """
    jump = stencil.shift(u_row) - u_row[:, None]
    nl = (jump * stencil.intensities[None, :]).sum(axis=1)
    weighted = (jump - du_row[:, None] * stencil.displacement) * stencil.intensities[None, :]
    z = np.zeros((len(u_row), basis.requested_m))
    if basis.rank:
        p_at_beta = basis.p_values(spec.jump_sizes)  # [m, n_atoms]
        z[:, : basis.rank] = weighted @ p_at_beta[: basis.rank].T
        m2 = float(np.sum(spec.intensities * spec.jump_sizes**2)) + spec.sigma**2
        z[:, 0] += sig * du_row * math.sqrt(m2)
    return nl, z


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


def _wall_rates(
    x: np.ndarray, theta: float, stencil: NonlocalStencil, c: np.ndarray
) -> np.ndarray:
    """Growth rate of the local time A at each wall, per node: [2, node].

    Row 0 is the wall -theta, row 1 the wall +theta.  A jump from x_j that
    leaves the domain adds its overshoot (|x_j + d| - theta)^+ to A at the
    wall it is clamped to; a drift that points out of the domain at a wall
    node adds |c| per unit time there.
    """
    target = x[:, None] + stencil.displacement
    rates = np.stack([
        np.maximum(-theta - target, 0.0) @ stencil.intensities,
        np.maximum(target - theta, 0.0) @ stencil.intensities,
    ])
    rates[0, 0] += max(-c[0], 0.0)
    rates[1, -1] += max(c[-1], 0.0)
    return rates


def _scheme(
    problem: ProblemSpec,
    spec: LevySpec,
    basis: TeugelsBasis,
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
    sig = np.asarray(sigma_x(x), dtype=float)
    c = linear_drift(spec) * sig
    stencil = build_nonlocal_stencil(x, problem.theta, spec, sigma_x)
    rates = _wall_rates(x, problem.theta, stencil, c)
    walls = x[[0, -1]]

    def explicit(t_next: float, u_next: np.ndarray) -> np.ndarray:
        du_next = np.gradient(u_next, dx)
        nl, z = component_functionals(u_next, du_next, stencil, basis, spec, sig)
        fval = np.asarray(problem.f(t_next, x, u_next, z), dtype=float)
        phi_walls = np.asarray(problem.phi(t_next, walls, u_next[[0, -1]]), dtype=float)
        return u_next + dt * (fval + nl + phi_walls @ rates)

    return _transport_bands(c, dt, dx), explicit


def solve_banded(l_and_u: tuple[int, int], ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``scipy.linalg.solve_banded``, with scipy imported at the first call."""
    from scipy.linalg import solve_banded

    return solve_banded(l_and_u, ab, b)


def solve_obstacle_pidie(
    problem: ProblemSpec,
    spec: LevySpec,
    basis: TeugelsBasis,
    grid_spec: PidieGridSpec,
    mode: str = "deterministic",
    b_path: np.ndarray | None = None,
    sigma_x: Callable | None = None,
) -> PidieGrid:
    """Backward sweep of the projected finite-difference scheme.

    ``mode`` is "deterministic" (g must vanish) or "pathwise" (g may
    depend on (t, x) only; the g dB term enters as a known per-step
    source read off the supplied Brownian path at the grid's time nodes).
    """
    if spec.continuous_part:
        raise ValueError(
            "the grid oracle covers pure-jump drivers only; a continuous part adds a "
            "second-order term outside its generator"
        )
    sigma_x = sigma_x or unit_coefficient
    x = grid_spec.x
    t = grid_spec.t
    dt = grid_spec.dt
    nn = len(x)

    total_intensity = spec.total_intensity
    if dt * total_intensity > 1.0:
        raise CFLViolation(
            f"dt * total intensity = {dt * total_intensity:.3f} > 1; refine the time grid"
        )
    if mode == "deterministic":
        probe = np.asarray(problem.g(t[0], x, np.zeros(nn)), dtype=float)
        if np.max(np.abs(probe)) > 0.0:
            raise ValueError("deterministic mode requires g to vanish")
        db = np.zeros(grid_spec.n_time)
    elif mode == "pathwise":
        if b_path is None:
            raise ValueError("pathwise mode needs a Brownian path at the grid's time nodes")
        b = np.asarray(b_path, dtype=float)
        if b.shape != t.shape:
            raise GridIncompatible("Brownian path length does not match the time grid")
        dep = np.asarray(problem.g(t[0], x, np.zeros(nn)), dtype=float) - np.asarray(
            problem.g(t[0], x, np.ones(nn)), dtype=float
        )
        if np.max(np.abs(dep)) > 0.0:
            raise ValueError("pathwise mode requires g independent of u")
        db = np.diff(b)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    bands, explicit = _scheme(problem, spec, basis, x, dt, sigma_x)
    u = np.empty((grid_spec.n_time + 1, nn))
    term = np.asarray(problem.terminal(x), dtype=float)
    h_term = np.asarray(problem.obstacle(t[-1], x), dtype=float)
    if float(np.min(term - h_term)) < -1e-9:
        raise TerminalBelowObstacle("terminal data falls below the obstacle")
    u[-1] = term

    for k in range(grid_spec.n_time - 1, -1, -1):
        rhs = explicit(t[k + 1], u[k + 1])
        if mode == "pathwise":
            rhs = rhs + np.asarray(problem.g(t[k + 1], x, np.zeros(nn)), dtype=float) * db[k]
        u_new = solve_banded((1, 1), bands, rhs)
        u[k] = np.maximum(u_new, np.asarray(problem.obstacle(t[k], x), dtype=float))
    return PidieGrid(x=x, t=t, u=u)


def complementarity_defect(
    pgrid: PidieGrid,
    problem: ProblemSpec,
    spec: LevySpec,
    basis: TeugelsBasis,
    sigma_x: Callable | None = None,
) -> float:
    """Post-hoc max over nodes of min(u - h, discrete residual).

    The residual re-evaluates the scheme's own operator and phi dA source
    on the stored solution, so away from the projected set it vanishes to
    rounding and on it the parabolic operator is slack; the reported max
    should stay at rounding scale.  Wall rows obey the same operator, so
    every node is included.
    """
    t = pgrid.t
    dt = float(t[1] - t[0])
    bands, explicit = _scheme(problem, spec, basis, pgrid.x, dt, sigma_x or unit_coefficient)
    worst = -math.inf
    for k in range(len(t) - 1):
        u_now = pgrid.u[k]
        residual = (explicit(t[k + 1], pgrid.u[k + 1]) - _banded_matvec(bands, u_now)) / dt
        slack = u_now - np.asarray(problem.obstacle(t[k], pgrid.x), dtype=float)
        worst = max(worst, float(np.max(np.minimum(slack, residual))))
    return worst


@dataclass(frozen=True)
class FkReport:
    """Cross-method agreement summary between Monte Carlo and the grid.

    The jump-weight rows compare the first martingale's unit-norm jump
    weights p_1(beta) against the per-atom normalization beta/sqrt(alpha)
    sometimes used for independent-Poisson decompositions; they are
    informational (printed with their ratio, not asserted equal).
    """

    y0_gap: float
    y_max_gap: float
    y_mean_gap: float
    z_rms_gap: tuple[float, ...]
    z_scale: tuple[float, ...]
    n_sampled: int
    jump_weights_basis: tuple[float, ...]
    jump_weights_per_atom: tuple[float, ...]

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
        for i, (wb, wp) in enumerate(
            zip(self.jump_weights_basis, self.jump_weights_per_atom), start=1
        ):
            ratio = wb / wp if wp != 0 else math.inf
            out.append((f"jump_weight_basis_atom{i}", f"{wb:.6g}"))
            out.append((f"jump_weight_per_atom_atom{i}", f"{wp:.6g}"))
            out.append((f"jump_weight_ratio_atom{i}", f"{ratio:.6g}"))
        return out


def representation_check(
    pgrid: PidieGrid,
    problem: ProblemSpec,
    ens: PathEnsemble,
    sol: EnsembleSolution,
    sigma_x: Callable | None = None,
) -> FkReport:
    """Compare the Monte Carlo solution against the grid solution.

    Checks Y against u(t, X_t) at a subsample of (path, node) pairs and
    the Monte Carlo Z components against the jump functionals of u
    (:func:`component_functionals`) evaluated at the same points.  Grids
    must share the horizon and domain, with the grid's time nodes
    refining the Monte Carlo nodes.  The driver and basis are the
    ensemble's own.
    """
    spec, basis = ens.spec, ens.basis
    sigma_x = sigma_x or unit_coefficient
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
    stencil = build_nonlocal_stencil(pgrid.x, problem.theta, spec, sigma_x)
    sig = np.asarray(sigma_x(pgrid.x), dtype=float)

    paths = np.arange(0, ens.n_paths, PATH_STRIDE)
    m = basis.requested_m
    y_gaps = []
    z_sq = np.zeros(m)
    z_ref = np.zeros(m)
    count = 0
    for k in range(n_mc + 1):
        row = k * ratio
        u_row = pgrid.u[row]
        xs = ens.X[paths, k]
        u_at = np.interp(xs, pgrid.x, u_row)
        y_gaps.append(np.abs(sol.Y[paths, k] - u_at))
        if k < n_mc:
            du_row = np.gradient(u_row, dx)
            _, z_nodes = component_functionals(u_row, du_row, stencil, basis, spec, sig)
            z_at = np.empty((len(paths), m))
            for i in range(m):
                z_at[:, i] = np.interp(xs, pgrid.x, z_nodes[:, i])
            diff = sol.Z[paths, k, :] - z_at
            z_sq += np.sum(diff**2, axis=0)
            z_ref += np.sum(z_at**2, axis=0)
            count += len(paths)
    y_gaps_arr = np.concatenate(y_gaps)
    z_rms = tuple(float(v) for v in np.sqrt(z_sq / max(count, 1)))
    z_scale = tuple(float(v) for v in np.sqrt(z_ref / max(count, 1)))

    if spec.m_atoms and basis.rank:
        wb = tuple(float(v) for v in basis.p_values(spec.jump_sizes)[0])
        wp = tuple(float(b / math.sqrt(a)) for b, a in spec.atoms)
    else:
        wb = ()
        wp = ()
    return FkReport(
        y0_gap=float(abs(sol.y0_value - np.interp(ens.x0, pgrid.x, pgrid.u[0]))),
        y_max_gap=float(np.max(y_gaps_arr)),
        y_mean_gap=float(np.mean(y_gaps_arr)),
        z_rms_gap=z_rms,
        z_scale=z_scale,
        n_sampled=int(len(paths)),
        jump_weights_basis=wb,
        jump_weights_per_atom=wp,
    )
