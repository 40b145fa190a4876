"""Coefficient data for the backward equations, plus the named registry
used by config files and the command line.

Every coefficient function is numpy-vectorized with signature

    f(t, x, y, z)    driver; z carries one column per martingale component
    phi(t, x, y)     coefficient of the local-time integral phi dA, nonincreasing in y
    g(t, x, y)       doubly stochastic coefficient
    terminal(x)      terminal value, xi = terminal(X_T)
    obstacle(t, x)   lower barrier, S_t = obstacle(t, X_t); callers only read
                     it, so it may be a read-only broadcast view

The domain and the forward coefficient are the ensemble's
(:class:`~levylab.paths.PathEnsemble`), not a problem's.  Coefficients are
selected from a compiled-in registry with numeric parameters rather than a
runtime expression language, which keeps the declared monotonicity
constant honest.  Each set is declared once, ``REGISTRY[name] = (defaults,
coefficients)``: ``defaults`` lists every parameter in
:attr:`ProblemSpec.params` order, and ``coefficients(p)`` maps the resolved
parameters to the five functions and ``beta_mono``.  Every phi is
``phy * y`` with ``beta_mono = phy``, or 0 with ``beta_mono = 0``, so
:func:`build_problem` checks the monotonicity condition exactly, as
``beta_mono <= 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import UnknownCoefficientName

NO_OBSTACLE = -1e9


@dataclass(frozen=True)
class ProblemSpec:
    """Problem data: the coefficients, terminal value and obstacle.

    ``beta_mono`` is the declared monotonicity constant of phi, i.e.
    (y1 - y2)(phi(y1) - phi(y2)) <= beta_mono * (y1 - y2)^2 with
    beta_mono <= 0.
    """

    name: str
    f: Callable
    phi: Callable
    g: Callable
    terminal: Callable
    obstacle: Callable
    beta_mono: float
    params: tuple[tuple[str, float], ...] = ()


def _z_first(z):
    z = np.asarray(z)
    if z.ndim == 0 or z.shape[-1] == 0:
        return 0.0
    return z[..., 0]


def _zero(t, x, y, *z):
    return np.zeros_like(np.asarray(y, dtype=float))


def _level(value: float) -> Callable:
    return lambda t, x: np.full(np.broadcast(np.asarray(t), np.asarray(x)).shape, value)


def _constant(p: dict) -> dict:
    """f = phi = g = 0, terminal a constant, obstacle a constant level."""
    return dict(
        f=_zero, phi=_zero, g=_zero,
        terminal=lambda x: np.full_like(np.asarray(x, dtype=float), p["terminal_level"]),
        obstacle=_level(p["obstacle_level"]), beta_mono=0.0,
    )


def _linear(p: dict) -> dict:
    """Affine driver and coefficients: the generic Lipschitz test family."""
    f0, fy, fz1, phy = p["f0"], p["fy"], p["fz1"], p["phy"]
    g0, gy, l0, lx = p["g0"], p["gy"], p["l0"], p["lx"]
    return dict(
        f=lambda t, x, y, z: f0 + fy * np.asarray(y, dtype=float) + fz1 * _z_first(z),
        phi=lambda t, x, y: phy * np.asarray(y, dtype=float),
        g=lambda t, x, y: g0 + gy * np.asarray(y, dtype=float),
        terminal=lambda x: l0 + lx * np.asarray(x, dtype=float),
        obstacle=_level(p["obstacle_level"]),
        beta_mono=phy,
    )


def _deterministic_obstacle(p: dict) -> dict:
    """Null coefficients with obstacle level - slope * t; the barrier drives Y.

    With terminal 0 and the default level/slope the exact solution on
    [0, 1] is Y_t = 1 - t with total push K_T = 1.
    """
    level, slope = p["level"], p["slope"]
    return dict(
        f=_zero, phi=_zero, g=_zero,
        terminal=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        obstacle=lambda t, x: np.broadcast_to(
            level - slope * np.asarray(t, dtype=float),
            np.broadcast(np.asarray(t), np.asarray(x)).shape,
        ),
        beta_mono=0.0,
    )


def _example51(p: dict) -> dict:
    """Two-sided jump benchmark: linear decay driver, absorption phi = phy * y
    against the walls' local time, call-style terminal, low ramp obstacle.
    The instance behind the Monte Carlo vs finite-difference crosscheck."""
    fy, phy, h_scale, h_offset = p["fy"], p["phy"], p["h_scale"], p["h_offset"]
    return dict(
        f=lambda t, x, y, z: fy * np.asarray(y, dtype=float),
        phi=lambda t, x, y: phy * np.asarray(y, dtype=float),
        g=_zero,
        terminal=lambda x: np.maximum(np.asarray(x, dtype=float), 0.0),
        obstacle=lambda t, x: np.broadcast_to(
            h_scale * np.maximum(np.asarray(x, dtype=float), 0.0) + h_offset,
            np.broadcast(np.asarray(t), np.asarray(x)).shape,
        ),
        beta_mono=phy,
    )


REGISTRY: dict[str, tuple[dict[str, float], Callable[[dict], dict]]] = {
    "constant": ({"terminal_level": 1.0, "obstacle_level": NO_OBSTACLE}, _constant),
    "linear": (
        {"f0": 0.0, "fy": -0.1, "fz1": 0.0, "phy": -0.5, "g0": 0.0, "gy": 0.0,
         "l0": 1.0, "lx": 0.0, "obstacle_level": NO_OBSTACLE},
        _linear,
    ),
    "deterministic_obstacle": ({"level": 1.0, "slope": 1.0}, _deterministic_obstacle),
    "example51": ({"fy": -0.1, "phy": -0.5, "h_scale": 0.2, "h_offset": -0.05}, _example51),
}


def build_problem(name: str, params: dict | None = None) -> ProblemSpec:
    """Instantiate a named coefficient set with ``params`` over its defaults.

    Raises :class:`UnknownCoefficientName` for names outside the registry
    and ``ValueError`` for unknown parameters or a declared ``beta_mono``
    that is not <= 0 (phi increasing in y).
    """
    if name not in REGISTRY:
        raise UnknownCoefficientName(f"unknown coefficient name {name!r}; known: {sorted(REGISTRY)}")
    defaults, coefficients = REGISTRY[name]
    given = dict(params or {})
    unknown = sorted(set(given) - set(defaults))
    if unknown:
        raise ValueError(f"unknown parameters for {name!r}: {unknown}")
    resolved = {key: float(given.get(key, value)) for key, value in defaults.items()}
    problem = ProblemSpec(name, params=tuple(resolved.items()), **coefficients(resolved))
    if not problem.beta_mono <= 0.0:  # also rejects NaN
        # every phi is phy * y with beta_mono = phy, so phy is the one key named
        cause = f" with {{'phy': {resolved['phy']}}}" if "phy" in given else ""
        raise ValueError(f"phi must be nonincreasing in y, but {name!r}{cause} "
                         f"declares beta_mono = {problem.beta_mono}, not <= 0")
    return problem
