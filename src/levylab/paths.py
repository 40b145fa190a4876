"""Forward path simulation: Brownian driver, jump paths from per-step jump
counts, clamp-reflected state, and the increasing clock A, which is the
state's boundary local time |eta| (a read-only view of it).

All randomness flows from one master seed through named SeedSequence spawn
keys (see :func:`derived_rng`), so an ensemble is bit-reproducible for a
fixed (spec, grid, seed, n_paths) and independent streams never overlap.

Within a doubly stochastic ensemble the Brownian driver B is one shared
path: conditional expectations in the backward solver are taken over the
jump randomness with B frozen, so every Monte Carlo path of an ensemble
sees the same B realization.

Jump counts: per atom and path a Poisson(alpha * T) total, each jump in an
independent uniform step, the law of a compound Poisson process binned.
The jumps are added into the counts through one flat index per atom, on
numpy's indexed fast path (see :func:`simulate_jump_counts`).

Storage
-------
Both the forward reflection and the backward sweep walk the grid one node
at a time, so the per-node arrays are stored node-major: the driver L, the
state X and the local time |eta| (and so the clock A) as [node, path], the
martingale increments dH as [step, component, path] and the jump counts,
in the smallest unsigned dtype that holds them, as [step, atom, path].
Functions return them as transposed views with the documented [path,
node(, component)] shapes; ``.T`` (or ``.transpose(1, 2, 0)``) recovers
the contiguous node-major array without a copy.

:func:`assemble_levy_paths` writes L one node at a time, reading the counts
one step at a time; the reflection reads L and writes X and |eta| one row
at a time, through one reused row, with no per-step temporaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InitialPointOutsideDomain
from .levy import LevySpec, step_jump_sums
from .teugels import TeugelsBasis, teugels_increments

# stream ids for the seed tree: (master_seed, outer_sample, stream)
STREAM_LEVY = 0
STREAM_BROWNIAN = 1
STREAM_COMPARISON = 2


def derived_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Generator for a named stream of the master seed's derivation tree."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=tuple(key)))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_n = horizon."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if not (self.horizon > 0.0 and np.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)


def boundary_direction(x, theta: float):
    """Inward direction e: +1 at -theta, -1 at +theta, 0 inside.

    Clamped states sit exactly on +-theta, so the equality tests are safe.
    """
    x = np.asarray(x, dtype=float)
    return np.where(x <= -theta, 1.0, np.where(x >= theta, -1.0, 0.0))


def simulate_brownian(grid: TimeGrid, rng: np.random.Generator, n_paths: int | None = None) -> np.ndarray:
    """Brownian node values; B_0 = 0, increments i.i.d. N(0, dt)."""
    shape = (grid.n_steps,) if n_paths is None else (n_paths, grid.n_steps)
    inc = rng.normal(0.0, np.sqrt(grid.dt), size=shape)
    out = np.zeros(shape[:-1] + (grid.n_steps + 1,))
    out[..., 1:] = np.cumsum(inc, axis=-1)
    return out


def simulate_jump_counts(
    spec: LevySpec, grid: TimeGrid, rng: np.random.Generator, n_paths: int
) -> np.ndarray:
    """Per-step jump counts per atom, shape [n_paths, n_steps, n_atoms].

    Per atom: a Poisson(alpha * T) total per path, then one uniform step
    index per jump, added into its path's cell.  Storage is node-major
    ``uint8``, widened when an atom's largest total does not fit.

    The jumps are scattered by one flat index, (step * m + atom) * n_paths
    + path, into the contiguous counts, built in place in the array of step
    draws.  The added one carries the counts' own dtype: with a 1-D index
    and matching dtypes ``np.add.at`` takes numpy's indexed fast path,
    which a 2-D index into a strided view, or a Python int, keeps it off.
    """
    n, m = grid.n_steps, spec.m_atoms
    counts = np.zeros((n, m, n_paths), dtype=np.uint8)
    flat = counts.reshape(-1)
    paths = np.arange(n_paths)
    for a in range(m):
        alpha = spec.atoms[a][1]
        totals = rng.poisson(alpha * grid.horizon, size=n_paths)
        if totals.max(initial=0) > np.iinfo(counts.dtype).max:
            counts = counts.astype(np.min_scalar_type(totals.max()))
            flat = counts.reshape(-1)
        index = rng.integers(0, n, size=totals.sum())  # the steps, then the flat index
        index *= m
        index += a
        index *= n_paths
        index += np.repeat(paths, totals)
        np.add.at(flat, index, counts.dtype.type(1))
    return counts.transpose(2, 0, 1)


def assemble_levy_paths(
    spec: LevySpec,
    grid: TimeGrid,
    counts: np.ndarray,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Driver node values from [path, step, atom] counts; returns [path,
    node], a transposed view of node-major storage.

    Node k is the jump sum of steps 0..k-1 plus drift_b * t_k, plus
    sigma * B_k when the spec has a continuous part.  The counts are read
    one step at a time; B is drawn from ``rng`` whole and path-major (one
    :func:`simulate_brownian` call after the counts) and read one node at a
    time.
    """
    brownian = None
    if spec.continuous_part:
        if rng is None:
            raise ValueError("an rng is required to draw the driver's continuous part")
        brownian = simulate_brownian(grid, rng, counts.shape[0])
    drift = spec.drift_b
    L = np.empty((grid.n_steps + 1, counts.shape[0]))
    jumps = np.zeros(counts.shape[0])
    sums = step_jump_sums(counts, spec.jump_sizes)
    for k, t in enumerate(grid.nodes):
        if k:
            jumps += next(sums)
        node = np.add(jumps, drift * t, out=L[k])
        if brownian is not None:
            node += spec.sigma * brownian[:, k]
    return L.T


def cumsum_nodes(steps: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Node values from node-major step increments, starting at zero.

    ``out[0] = 0`` and ``out[k + 1] = out[k] + steps[k]``: the same adds,
    in the same order, as ``np.cumsum(steps, axis=0)``, but one contiguous
    row at a time.  ``np.cumsum`` along axis 0 walks each column with the
    row stride, about five times slower at 20,000 paths.
    """
    out[0] = 0.0
    for k in range(steps.shape[0]):
        np.add(out[k], steps[k], out=out[k + 1])
    return out


def simulate_reflected_x(
    sigma_x: Callable[[np.ndarray], np.ndarray],
    theta: float,
    x0: float,
    levy_path: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Clamp-projected Euler state on [-theta, theta] with its local time.

    Each step proposes ``X + sigma_x(X) * dL`` (jumps within the step are
    aggregated into dL, matching the left-limit integrand) and projects
    onto the interval; the projection distance is absorbed into the
    nondecreasing local time |eta|.  In dimension one the projection is
    the exact one-step Skorokhod map.

    ``levy_path`` is [path, node]; the state and local time come back as
    [path, node] transposed views of node-major arrays, so each step reads
    and writes contiguous rows.
    """
    if not (-theta <= x0 <= theta):
        raise InitialPointOutsideDomain(f"x0={x0} outside [-{theta}, {theta}]")
    L = np.asarray(levy_path, dtype=float).T  # [node, path]
    X = np.empty(L.shape)
    eta = np.empty_like(X)
    X[0] = x0
    eta[0] = 0.0
    proposal = np.empty(L.shape[1])  # one row, reused: the step then its overshoot
    for k in range(L.shape[0] - 1):
        np.subtract(L[k + 1], L[k], out=proposal)
        proposal *= np.asarray(sigma_x(X[k]), dtype=float)
        proposal += X[k]
        np.clip(proposal, -theta, theta, out=X[k + 1])
        proposal -= X[k + 1]
        np.add(eta[k], np.abs(proposal, out=proposal), out=eta[k + 1])
    return X.T, eta.T


def skorokhod_minimality_gap(
    X: np.ndarray, V: np.ndarray, eta_abs: np.ndarray, theta: float
) -> float:
    """Discrete variational-inequality functional of the reflection.

    Sums (X_k - V_k) * n(X_k) * d|eta| over steps, with n the outward
    normal (n = -e), and returns the minimum over paths.  For the clamp
    scheme every term is nonnegative for any comparison path V with values
    in [-theta, theta], because |eta| only grows while X sits exactly on
    the boundary.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    V = np.atleast_2d(np.asarray(V, dtype=float))
    eta = np.atleast_2d(np.asarray(eta_abs, dtype=float))
    d_eta = np.diff(eta, axis=-1)
    normal = -boundary_direction(X[..., 1:], theta)
    terms = (X[..., 1:] - V[..., 1:]) * normal * d_eta
    return float(np.min(np.sum(terms, axis=-1)))


def unit_coefficient(x):
    """Default forward coefficient sigma_x(x) = 1."""
    return np.ones_like(np.asarray(x, dtype=float))


@dataclass
class PathEnsemble:
    """A stack of scenarios sharing one frozen Brownian path B.

    ``L``, ``X``, ``eta_abs`` and ``A`` are [path, node], ``dH`` is
    [path, step, component] and ``jump_counts`` [path, step, atom].  From
    :func:`simulate_ensemble` all six are transposed views of node-major
    arrays, the counts in a small unsigned dtype (see the module
    docstring); an ensemble built by hand may hold path-major arrays
    instead, which the solver copies to node-major once per sweep.  The
    clock ``A`` is the boundary local time: :func:`simulate_ensemble` makes
    it a read-only view of ``eta_abs``, not a copy, since nothing writes to
    a clock.  The solver reads any increasing ``A`` it is given.
    """

    grid: TimeGrid
    spec: LevySpec
    basis: TeugelsBasis
    theta: float
    x0: float
    B: np.ndarray
    L: np.ndarray
    jump_counts: np.ndarray
    X: np.ndarray
    eta_abs: np.ndarray
    A: np.ndarray
    dH: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.L.shape[0]


def simulate_ensemble(
    spec: LevySpec,
    grid: TimeGrid,
    basis: TeugelsBasis,
    n_paths: int,
    master_seed: int,
    theta: float,
    x0: float,
    sigma_x: Callable[[np.ndarray], np.ndarray] | None = None,
    outer_index: int = 0,
) -> PathEnsemble:
    """Simulate a doubly stochastic ensemble for one outer Brownian sample.

    Streams: (master_seed, outer_index, STREAM_LEVY) drives the jump part
    and the driver's own continuous part; (master_seed, outer_index,
    STREAM_BROWNIAN) drives the shared backward Brownian path.
    """
    sigma_x = sigma_x or unit_coefficient
    rng_levy = derived_rng(master_seed, outer_index, STREAM_LEVY)
    rng_b = derived_rng(master_seed, outer_index, STREAM_BROWNIAN)
    counts = simulate_jump_counts(spec, grid, rng_levy, n_paths)
    L = assemble_levy_paths(spec, grid, counts, rng_levy)
    B = simulate_brownian(grid, rng_b)
    X, eta = simulate_reflected_x(sigma_x, theta, x0, L)
    A = eta.view()
    A.flags.writeable = False
    dH = teugels_increments(counts, grid, spec, basis, levy_path=L)
    return PathEnsemble(
        grid=grid,
        spec=spec,
        basis=basis,
        theta=theta,
        x0=x0,
        B=B,
        L=L,
        jump_counts=counts,
        X=X,
        eta_abs=eta,
        A=A,
        dH=dH,
    )
