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
at a time, so the per-node arrays are stored node-major: the state X and
the local time |eta| (and so the clock A) as [node, path], and the jump
counts, in the smallest unsigned dtype that holds them, as [step, atom,
path].  Functions return them as transposed views with the documented
[path, node(, atom)] shapes; ``.T`` (or ``.transpose(1, 2, 0)``) recovers
the contiguous node-major array without a copy.

The driver L is stored only when it has a continuous part, whose sigma B
is drawn once and cannot be rebuilt from the counts.  A pure-jump driver
is a function of the counts: from node k to node k + 1 its jump part
grows by the jump sizes times step k's [atom, path] row of the counts.
The reflection reads its node rows as :class:`DriverNodes` builds them,
two reused rows at a time, and :attr:`PathEnsemble.L` derives it whole on
each read with the same kernel that :func:`assemble_levy_paths` uses.  The martingale increments dH are
not stored either: they are a function of the counts (and of L when the
driver has a continuous part), which the sweep forms one step at a time,
and :attr:`PathEnsemble.dH` derives whole on each read.

The reflection reads L and writes X and |eta| one row at a time, through
one reused row, with no per-step temporaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import InitialPointOutsideDomain
from .levy import LevySpec
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


def _driver_nodes(
    spec: LevySpec, grid: TimeGrid, counts: np.ndarray, out: np.ndarray, brownian=None
) -> Iterator[np.ndarray]:
    """Yield the driver's node rows L_0, ..., L_n, node k written into
    ``out[k % len(out)]``.

    Node k is the jump sum of steps 0..k-1 plus drift_b * t_k, plus
    sigma * B_k from the [path, node] ``brownian`` when it is given.
    ``counts`` is [path, step, atom]; a step's jump sum is the jump sizes
    times its node-major [atom, path] row, so the counts are never cast or
    copied whole and integer sums never wrap.  With ``out`` the full [node,
    path] array every node is kept; with two rows, each row is overwritten
    two nodes later.
    """
    drift, sizes = spec.drift_b, spec.jump_sizes
    steps = counts.transpose(1, 2, 0)  # [step, atom, path]
    jumps = np.zeros(counts.shape[0])
    for k, t in enumerate(grid.nodes):
        if k:
            jumps += sizes @ steps[k - 1]
        node = np.add(jumps, drift * t, out=out[k % len(out)])
        if brownian is not None:
            node += spec.sigma * brownian[:, k]
        yield node


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
    L = np.empty((grid.n_steps + 1, counts.shape[0]))
    for _ in _driver_nodes(spec, grid, counts, L, brownian):
        pass
    return L.T


@dataclass(frozen=True, eq=False)
class DriverNodes:
    """A pure-jump driver's node rows, built from the counts as they are read.

    Iterating yields L_0, ..., L_n as [path] rows, exactly the nodes of
    :func:`assemble_levy_paths`, through two reused rows: a row is
    overwritten two nodes later, so a reader keeps at most the previous
    node.  ``len`` is the node count.
    """

    spec: LevySpec
    grid: TimeGrid
    counts: np.ndarray

    def __len__(self) -> int:
        return self.grid.n_steps + 1

    def __iter__(self) -> Iterator[np.ndarray]:
        return _driver_nodes(self.spec, self.grid, self.counts, np.empty((2, self.counts.shape[0])))


def simulate_reflected_x(
    sigma_x: Callable[[np.ndarray], np.ndarray],
    theta: float,
    x0: float,
    levy_path,
) -> tuple[np.ndarray, np.ndarray]:
    """Clamp-projected Euler state on [-theta, theta] with its local time.

    Each step proposes ``X + sigma_x(X) * dL`` (jumps within the step are
    aggregated into dL, matching the left-limit integrand) and projects
    onto the interval; the projection distance is absorbed into the
    nondecreasing local time |eta|.  In dimension one the projection is
    the exact one-step Skorokhod map.

    ``levy_path`` is the driver as a [path, node] array, or as its node
    rows in order (a :class:`DriverNodes`, or any sized iterable of [path]
    rows); dL_k is the difference of nodes k + 1 and k either way.  The
    state and local time come back as [path, node] transposed views of
    node-major arrays, so each step reads and writes contiguous rows.  The
    two share one [2, node, path] block, allocated and released together:
    at example51's size it is larger than glibc's largest mmap threshold,
    so it is mapped on its own and does not grow and trim the heap that
    the sweep's rows and the report's temporaries are reused from.
    """
    if not (-theta <= x0 <= theta):
        raise InitialPointOutsideDomain(f"x0={x0} outside [-{theta}, {theta}]")
    if isinstance(levy_path, (np.ndarray, list, tuple)):
        levy_path = np.asarray(levy_path, dtype=float).T  # [node, path]
    nodes = iter(levy_path)
    prev = next(nodes)
    X, eta = np.empty((2, len(levy_path), prev.shape[0]))
    X[0] = x0
    eta[0] = 0.0
    proposal = np.empty(X.shape[1])  # one row, reused: the step then its overshoot
    for k, node in enumerate(nodes):
        np.subtract(node, prev, out=proposal)
        proposal *= np.asarray(sigma_x(X[k]), dtype=float)
        proposal += X[k]
        np.clip(proposal, -theta, theta, out=X[k + 1])
        proposal -= X[k + 1]
        np.add(eta[k], np.abs(proposal, out=proposal), out=eta[k + 1])
        prev = node
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

    ``X``, ``eta_abs`` and ``A`` are [path, node] and ``jump_counts``
    [path, step, atom].  From :func:`simulate_ensemble` all four are
    transposed views of node-major arrays, the counts in a small unsigned
    dtype (see the module docstring); an ensemble built by hand may hold
    path-major arrays instead, which the solver copies to node-major once
    per sweep.  The clock ``A`` is the boundary local time:
    :func:`simulate_ensemble` makes it a read-only view of ``eta_abs``, not
    a copy, since nothing writes to a clock.  The solver reads any
    increasing ``A`` it is given.

    ``levy_path`` is the driver L [path, node] when it has a continuous
    part, and ``None`` otherwise.  ``L`` returns it, or derives the
    pure-jump driver from the counts on every read (:func:`assemble_levy_paths`'
    kernel), and ``dH`` [path, step, component] is derived from the counts
    (and L, when sigma > 0) by :func:`~levylab.teugels.teugels_increments`
    on every read.  Neither is cached: a reader binds each once.
    """

    grid: TimeGrid
    spec: LevySpec
    basis: TeugelsBasis
    theta: float
    x0: float
    B: np.ndarray
    levy_path: np.ndarray | None
    jump_counts: np.ndarray
    X: np.ndarray
    eta_abs: np.ndarray
    A: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.X.shape[0]

    @property
    def L(self) -> np.ndarray:
        if self.levy_path is not None:
            return self.levy_path
        L = np.empty((self.grid.n_steps + 1, self.n_paths))
        for _ in _driver_nodes(self.spec, self.grid, self.jump_counts, L):
            pass
        return L.T

    @property
    def dH(self) -> np.ndarray:
        levy_path = self.L if self.spec.continuous_part else None
        return teugels_increments(self.jump_counts, self.grid, self.spec, self.basis, levy_path=levy_path)


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
    L = assemble_levy_paths(spec, grid, counts, rng_levy) if spec.continuous_part else None
    B = simulate_brownian(grid, rng_b)
    X, eta = simulate_reflected_x(sigma_x, theta, x0, DriverNodes(spec, grid, counts) if L is None else L)
    A = eta.view()
    A.flags.writeable = False
    return PathEnsemble(
        grid=grid,
        spec=spec,
        basis=basis,
        theta=theta,
        x0=x0,
        B=B,
        levy_path=L,
        jump_counts=counts,
        X=X,
        eta_abs=eta,
        A=A,
    )
