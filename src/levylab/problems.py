"""Coefficient data for the backward equations, plus the named registry
used by config files and the command line.

Every coefficient function is numpy-vectorized with signature

    f(t, x, y, z)    driver; z carries one column per martingale component
    phi(t, x, y)     coefficient of the local-time integral phi dA, nonincreasing in y
    g(t, x, y)       doubly stochastic coefficient
    terminal(x)      terminal value, xi = terminal(X_T)
    obstacle(t, x)   lower barrier, S_t = obstacle(t, X_t); callers only read
                     it, so it may be a read-only broadcast view

Coefficients are selected from a compiled-in registry with numeric
parameters rather than a runtime expression language, which keeps the
declared Lipschitz and monotonicity constants honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import UnknownCoefficientName
from .paths import derived_rng

NO_OBSTACLE = -1e9


@dataclass(frozen=True)
class ProblemSpec:
    """Problem data (coefficients, terminal, obstacle) on (-theta, theta).

    ``lipschitz_c`` is the declared plain (slope) Lipschitz constant of f
    and g; ``beta_mono`` the declared monotonicity constant of phi, i.e.
    (y1 - y2)(phi(y1) - phi(y2)) <= beta_mono * (y1 - y2)^2 with
    beta_mono <= 0.
    """

    name: str
    f: Callable
    phi: Callable
    g: Callable
    terminal: Callable
    obstacle: Callable
    lipschitz_c: float
    beta_mono: float
    theta: float
    params: tuple[tuple[str, float], ...] = ()


def spot_check_monotonicity(
    problem: ProblemSpec, rng: np.random.Generator, n_pairs: int = 64, span: float = 10.0
) -> float:
    """Largest observed violation of the declared phi monotonicity bound.

    Samples random (t, x, y1, y2) and returns
    max over samples of (y1-y2)(phi(y1)-phi(y2)) - beta_mono (y1-y2)^2;
    values <= 0 mean the declaration held on the sample.
    """
    t = rng.uniform(0.0, 1.0, n_pairs)
    x = rng.uniform(-problem.theta, problem.theta, n_pairs)
    y1 = rng.uniform(-span, span, n_pairs)
    y2 = rng.uniform(-span, span, n_pairs)
    dy = y1 - y2
    lhs = dy * (np.asarray(problem.phi(t, x, y1)) - np.asarray(problem.phi(t, x, y2)))
    return float(np.max(lhs - problem.beta_mono * dy**2))


def _z_first(z):
    z = np.asarray(z)
    if z.ndim == 0 or z.shape[-1] == 0:
        return 0.0
    return z[..., 0]


def _pop(params: dict, key: str, default: float) -> float:
    return float(params.pop(key, default))


def _constant(params: dict, theta: float) -> ProblemSpec:
    """f = phi = g = 0, terminal a constant, obstacle a constant level."""
    level = _pop(params, "terminal_level", 1.0)
    obstacle_level = _pop(params, "obstacle_level", NO_OBSTACLE)
    return ProblemSpec(
        name="constant",
        f=lambda t, x, y, z: np.zeros_like(np.asarray(y, dtype=float)),
        phi=lambda t, x, y: np.zeros_like(np.asarray(y, dtype=float)),
        g=lambda t, x, y: np.zeros_like(np.asarray(y, dtype=float)),
        terminal=lambda x: np.full_like(np.asarray(x, dtype=float), level),
        obstacle=lambda t, x: np.full(np.broadcast(np.asarray(t), np.asarray(x)).shape, obstacle_level),
        lipschitz_c=1e-12,
        beta_mono=0.0,
        theta=theta,
        params=(("terminal_level", level), ("obstacle_level", obstacle_level)),
    )


def _linear(params: dict, theta: float) -> ProblemSpec:
    """Affine driver and coefficients: the generic Lipschitz test family."""
    f0 = _pop(params, "f0", 0.0)
    fy = _pop(params, "fy", -0.1)
    fz1 = _pop(params, "fz1", 0.0)
    phy = _pop(params, "phy", -0.5)
    g0 = _pop(params, "g0", 0.0)
    gy = _pop(params, "gy", 0.0)
    l0 = _pop(params, "l0", 1.0)
    lx = _pop(params, "lx", 0.0)
    obstacle_level = _pop(params, "obstacle_level", NO_OBSTACLE)
    if phy > 0.0:
        raise ValueError(f"phy must be <= 0 for a monotone boundary coefficient, got {phy}")
    return ProblemSpec(
        name="linear",
        f=lambda t, x, y, z: f0 + fy * np.asarray(y, dtype=float) + fz1 * _z_first(z),
        phi=lambda t, x, y: phy * np.asarray(y, dtype=float),
        g=lambda t, x, y: g0 + gy * np.asarray(y, dtype=float),
        terminal=lambda x: l0 + lx * np.asarray(x, dtype=float),
        obstacle=lambda t, x: np.full(np.broadcast(np.asarray(t), np.asarray(x)).shape, obstacle_level),
        lipschitz_c=max(abs(fy), abs(fz1), abs(gy), 1e-12),
        beta_mono=phy,
        theta=theta,
        params=(
            ("f0", f0), ("fy", fy), ("fz1", fz1), ("phy", phy), ("g0", g0),
            ("gy", gy), ("l0", l0), ("lx", lx), ("obstacle_level", obstacle_level),
        ),
    )


def _deterministic_obstacle(params: dict, theta: float) -> ProblemSpec:
    """Null coefficients with obstacle level - slope * t; the barrier drives Y.

    With terminal 0 and the default level/slope the exact solution on
    [0, 1] is Y_t = 1 - t with total push K_T = 1.
    """
    level = _pop(params, "level", 1.0)
    slope = _pop(params, "slope", 1.0)
    return ProblemSpec(
        name="deterministic_obstacle",
        f=lambda t, x, y, z: np.zeros_like(np.asarray(y, dtype=float)),
        phi=lambda t, x, y: np.zeros_like(np.asarray(y, dtype=float)),
        g=lambda t, x, y: np.zeros_like(np.asarray(y, dtype=float)),
        terminal=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        obstacle=lambda t, x: np.broadcast_to(
            level - slope * np.asarray(t, dtype=float),
            np.broadcast(np.asarray(t), np.asarray(x)).shape,
        ),
        lipschitz_c=1e-12,
        beta_mono=0.0,
        theta=theta,
        params=(("level", level), ("slope", slope)),
    )


def _example51(params: dict, theta: float) -> ProblemSpec:
    """Two-sided jump benchmark: linear decay driver, absorption phi = phy * y
    against the walls' local time, call-style terminal, low ramp obstacle.
    The instance behind the Monte Carlo vs finite-difference crosscheck."""
    fy = _pop(params, "fy", -0.1)
    phy = _pop(params, "phy", -0.5)
    h_scale = _pop(params, "h_scale", 0.2)
    h_offset = _pop(params, "h_offset", -0.05)
    if phy > 0.0:
        raise ValueError(f"phy must be <= 0, got {phy}")
    return ProblemSpec(
        name="example51",
        f=lambda t, x, y, z: fy * np.asarray(y, dtype=float),
        phi=lambda t, x, y: phy * np.asarray(y, dtype=float),
        g=lambda t, x, y: np.zeros_like(np.asarray(y, dtype=float)),
        terminal=lambda x: np.maximum(np.asarray(x, dtype=float), 0.0),
        obstacle=lambda t, x: np.broadcast_to(
            h_scale * np.maximum(np.asarray(x, dtype=float), 0.0) + h_offset,
            np.broadcast(np.asarray(t), np.asarray(x)).shape,
        ),
        lipschitz_c=max(abs(fy), 1e-12),
        beta_mono=phy,
        theta=theta,
        params=(("fy", fy), ("phy", phy), ("h_scale", h_scale), ("h_offset", h_offset)),
    )


REGISTRY: dict[str, Callable[[dict, float], ProblemSpec]] = {
    "constant": _constant,
    "linear": _linear,
    "deterministic_obstacle": _deterministic_obstacle,
    "example51": _example51,
}

_SPOT_CHECK_SEED = 90210


def build_problem(name: str, params: dict | None = None, theta: float = 1.0) -> ProblemSpec:
    """Instantiate a named coefficient set and sanity-check its declarations.

    Raises :class:`UnknownCoefficientName` for names outside the registry
    and ``ValueError`` for unknown parameters or declaration violations.
    """
    if name not in REGISTRY:
        raise UnknownCoefficientName(
            f"unknown coefficient name {name!r}; known: {sorted(REGISTRY)}"
        )
    if theta <= 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    remaining = dict(params or {})
    problem = REGISTRY[name](remaining, theta)
    if remaining:
        raise ValueError(f"unknown parameters for {name!r}: {sorted(remaining)}")
    violation = spot_check_monotonicity(problem, derived_rng(_SPOT_CHECK_SEED))
    if violation > 1e-9:
        raise ValueError(
            f"declared monotonicity constant beta={problem.beta_mono} violated "
            f"by {violation:.3e} on random samples"
        )
    return problem
