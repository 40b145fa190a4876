"""Finite-difference solver for the obstacle problem with jump transport and
a nonlinear flux boundary condition; the independent cross-check for the
Monte Carlo solver.

The backward-in-time equation on (-theta, theta), terminal u(T, .) = l,

    du/dt + a' sigma_x(x) du/dx + f(t, x, u, z(u))
        + sum_l alpha_l * u1(t, x, sigma_x(x) beta_l) + g source = 0
    above the barrier  u >= h,  with
    e(x) du/dx + phi(t, x, u) = 0 at x = -theta, +theta,

where a' = E[L_1], u1(t, x, d) = u(t, x + d) - u(t, x) - du/dx * d is the
second-order jump remainder and z(u) feeds the driver the same per-component
jump functionals the Monte Carlo Z estimates (see
:func:`component_functionals`).  Jump displacements leaving the domain are
clamped onto it, mirroring the path engine's jump-reflection convention,
so the two methods discretize the same problem.

Time stepping is implicit (upwind) in the linear transport, explicit in
f and the nonlocal term, followed by a scalar bisection solve of the
boundary condition at each wall and projection onto the barrier.  The
explicit nonlocal part requires dt * (total jump intensity) <= 1.

The transport step is solved by scipy's banded solver through this
module's :func:`solve_banded`, which imports scipy at its first call, so
importing the module does not load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BisectionFailure,
    CFLViolation,
    GridIncompatible,
    TerminalBelowObstacle,
)
from .levy import LevySpec, levy_moments
from .paths import PathEnsemble, unit_coefficient
from .problems import ProblemSpec
from .solver import EnsembleSolution
from .teugels import TeugelsBasis

BISECTION_TOL = 1e-10

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
    """Nonlocal term and per-component jump functionals of a u row.

    Returns (nl, z) with nl[j] = sum_l alpha_l u1_jl and
    z[j, i] = sum_l alpha_l u1_jl p_{i+1}(beta_l), plus the diffusion-style
    correction sigma_x(x) du/dx sqrt(m2) on the first component; columns at
    or beyond the basis rank are zero, matching the Monte Carlo Z layout.
    """
    u1 = stencil.shift(u_row) - u_row[:, None] - du_row[:, None] * stencil.displacement
    weighted = u1 * stencil.intensities[None, :]
    nl = weighted.sum(axis=1)
    z = np.zeros((len(u_row), basis.requested_m))
    if basis.rank:
        p_at_beta = basis.p_values(spec.jump_sizes)  # [m, n_atoms]
        z[:, : basis.rank] = weighted @ p_at_beta[: basis.rank].T
        m2 = float(np.sum(spec.intensities * spec.jump_sizes**2)) + spec.sigma**2
        z[:, 0] += sig * du_row * math.sqrt(m2)
    return nl, z


def _boundary_root(
    neighbor: float, dx: float, phi, t: float, xb: float, tol: float = BISECTION_TOL
) -> float:
    """Root of (neighbor - v)/dx + phi(t, xb, v) = 0 by bracketed bisection.

    Both walls reduce to this form: the one-sided difference toward the
    interior times the inward direction is (u_nb - u_wall)/dx at either
    end.  phi nonincreasing in v makes F strictly decreasing, so a sign
    change exists and the root is unique.
    """

    def F(v: float) -> float:
        return (neighbor - v) / dx + float(phi(t, xb, v))

    lo = neighbor
    step = max(1.0, abs(neighbor))
    for _ in range(80):
        if F(lo) > 0.0:
            break
        lo -= step
        step *= 2.0
    else:
        raise BisectionFailure(f"could not bracket the boundary condition below at x={xb}")
    hi = neighbor
    step = max(1.0, abs(neighbor))
    for _ in range(80):
        if F(hi) < 0.0:
            break
        hi += step
        step *= 2.0
    else:
        raise BisectionFailure(f"could not bracket the boundary condition above at x={xb}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if F(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _transport_bands(c: np.ndarray, dt: float, dx: float) -> np.ndarray:
    """Banded (ab-form) matrix of the implicit upwind transport step.

    Row j solves u_j - dt c_j D u_j = rhs_j with D the upwind one-sided
    difference (forward when c_j > 0, backward when c_j < 0); boundary
    rows are identities since the flux condition overwrites them.
    """
    nn = len(c)
    nu = dt / dx
    diag = np.ones(nn)
    upper = np.zeros(nn)
    lower = np.zeros(nn)
    for j in range(1, nn - 1):
        if c[j] >= 0.0:
            diag[j] += nu * c[j]
            upper[j + 1] = -nu * c[j]
        else:
            diag[j] -= nu * c[j]
            lower[j - 1] = nu * c[j]
    return np.vstack([upper, diag, lower])


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
    dx = grid_spec.dx
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

    sig = np.asarray(sigma_x(x), dtype=float)
    c = levy_moments(spec, 1).mean_l1 * sig
    bands = _transport_bands(c, dt, dx)
    stencil = build_nonlocal_stencil(x, problem.theta, spec, sigma_x)

    u = np.empty((grid_spec.n_time + 1, nn))
    term = np.asarray(problem.terminal(x), dtype=float)
    h_term = np.asarray(problem.obstacle(t[-1], x), dtype=float)
    if float(np.min(term - h_term)) < -1e-9:
        raise TerminalBelowObstacle("terminal data falls below the obstacle")
    u[-1] = term

    for k in range(grid_spec.n_time - 1, -1, -1):
        u_next = u[k + 1]
        du_next = np.gradient(u_next, dx)
        nl, z = component_functionals(u_next, du_next, stencil, basis, spec, sig)
        fval = np.asarray(problem.f(t[k + 1], x, u_next, z), dtype=float)
        rhs = u_next + dt * (fval + nl)
        if mode == "pathwise":
            rhs = rhs + np.asarray(problem.g(t[k + 1], x, np.zeros(nn)), dtype=float) * db[k]
        u_new = solve_banded((1, 1), bands, rhs)
        u_new[0] = _boundary_root(float(u_new[1]), dx, problem.phi, float(t[k]), float(x[0]))
        u_new[-1] = _boundary_root(float(u_new[-2]), dx, problem.phi, float(t[k]), float(x[-1]))
        u[k] = np.maximum(u_new, np.asarray(problem.obstacle(t[k], x), dtype=float))
    return PidieGrid(x=x, t=t, u=u)


def complementarity_defect(
    pgrid: PidieGrid,
    problem: ProblemSpec,
    spec: LevySpec,
    basis: TeugelsBasis,
    sigma_x: Callable | None = None,
    margin: int = 2,
) -> float:
    """Post-hoc max over interior nodes of min(u - h, discrete residual).

    The residual re-evaluates the scheme's own stencils on the stored
    solution, so away from the projected set it vanishes to rounding and
    on it the parabolic operator is slack; the reported max should stay at
    rounding scale.  Nodes within ``margin`` of the walls are excluded:
    there the flux condition, not the interior operator, governs u.
    """
    sigma_x = sigma_x or unit_coefficient
    x = pgrid.x
    t = pgrid.t
    dt = float(t[1] - t[0])
    dx = float(x[1] - x[0])
    sig = np.asarray(sigma_x(x), dtype=float)
    c = levy_moments(spec, 1).mean_l1 * sig
    stencil = build_nonlocal_stencil(x, problem.theta, spec, sigma_x)
    sl = slice(margin, len(x) - margin)
    worst = -math.inf
    for k in range(len(t) - 1):
        u_now = pgrid.u[k]
        u_next = pgrid.u[k + 1]
        du_next = np.gradient(u_next, dx)
        nl, z = component_functionals(u_next, du_next, stencil, basis, spec, sig)
        fval = np.asarray(problem.f(t[k + 1], x, u_next, z), dtype=float)
        fwd = np.empty_like(u_now)
        bwd = np.empty_like(u_now)
        fwd[:-1] = (u_now[1:] - u_now[:-1]) / dx
        fwd[-1] = bwd[-1] = (u_now[-1] - u_now[-2]) / dx
        bwd[1:] = (u_now[1:] - u_now[:-1]) / dx
        bwd[0] = fwd[0]
        upwind = np.where(c >= 0.0, fwd, bwd)
        residual = (u_next - u_now) / dt + c * upwind + fval + nl
        slack = u_now - np.asarray(problem.obstacle(t[k], x), dtype=float)
        worst = max(worst, float(np.max(np.minimum(slack[sl], residual[sl]))))
    return worst


def boundary_defect(pgrid: PidieGrid, problem: ProblemSpec) -> float:
    """Max over time of the one-sided flux-condition residual at both walls."""
    dx = float(pgrid.x[1] - pgrid.x[0])
    worst = 0.0
    for k in range(len(pgrid.t) - 1):
        tk = float(pgrid.t[k])
        lo = (pgrid.u[k, 1] - pgrid.u[k, 0]) / dx + float(
            problem.phi(tk, float(pgrid.x[0]), pgrid.u[k, 0])
        )
        hi = -(pgrid.u[k, -1] - pgrid.u[k, -2]) / dx + float(
            problem.phi(tk, float(pgrid.x[-1]), pgrid.u[k, -1])
        )
        worst = max(worst, abs(lo), abs(hi))
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
    x0_idx = int(np.argmin(np.abs(pgrid.x - ens.x0)))
    return FkReport(
        y0_gap=float(abs(sol.y0_value - pgrid.u[0, x0_idx])),
        y_max_gap=float(np.max(y_gaps_arr)),
        y_mean_gap=float(np.mean(y_gaps_arr)),
        z_rms_gap=z_rms,
        z_scale=z_scale,
        n_sampled=int(len(paths)),
        jump_weights_basis=wb,
        jump_weights_per_atom=wp,
    )
