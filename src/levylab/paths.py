"""Forward path simulation: Brownian driver, jump paths from per-step jump
counts, clamp-reflected state, and the increasing clock A, which is the
state's boundary local time |eta|, recorded as its growth events.

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
the driver's own Brownian path W as [node, path], and the jump counts, in
the smallest unsigned dtype that holds them, as [step, atom, path].
Functions return them as transposed views with the documented [path,
node(, atom)] shapes; ``.T`` (or ``.transpose(1, 2, 0)``) recovers the
contiguous node-major array without a copy.

An ensemble stores what was drawn, the counts N, W (when the driver has a
continuous part) and B, and what the reflection computed, X and the
growth events of |eta| (:class:`ClockEvents`).  The local time grows only
at a wall, at the steps where the clamp moved a path, so the record holds
those steps' paths and their |eta| at the step's two nodes, a few
thousand events where the dense clock would be a [node, path] block; the
dense |eta| and the clock A are derived from it on each read, bit for
bit the running sum of the overshoots.  The driver L is a function of N
and W, node k the jump sum of steps 0..k-1 plus drift_b t_k and sigma
W_k.  The reflection reads its node rows as :class:`DriverNodes` builds
them, two reused rows at a time, and :attr:`PathEnsemble.L` derives it
whole on each read with :func:`assemble_levy_paths`, the same kernel.
The martingale increments dH, a function of N and W, are not stored
either: the sweep forms them one step at a time, and
:attr:`PathEnsemble.dH` derives them on each read.

A driver with no drift and no continuous part is idle between its jumps,
so under it a path moves only in a step where it jumps
(:func:`moves_only_at_jumps`, the one test of the driver that the
reflection and the backward sweep both read): the reflection copies X's
row forward and steps only the paths with a count in the step
(:meth:`DriverNodes.jump_steps`), about 1.5% of them at example51's size,
and X takes a few dozen values, which :class:`StateRecord` numbers with
each step's moves between them, so the sweep and the readers of a
solution work once per state.  Any other driver moves every path, and the
reflection steps the whole row through one reused row, with no per-step
temporaries of its size.
The state starts at x0 + 0.0, so X holds no -0.0 and the two forms agree
bit for bit from any x0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from .errors import InitialPointOutsideDomain, InvalidClock
from .levy import LevySpec
from .teugels import TeugelsBasis, basis_for, teugels_increments

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
    """Brownian node values; B_0 = 0, increments i.i.d. N(0, dt).  One
    path is [node]; ``n_paths`` paths, drawn path-major, are [path, node],
    a transposed view of node-major storage."""
    shape = (grid.n_steps,) if n_paths is None else (n_paths, grid.n_steps)
    inc = rng.normal(0.0, np.sqrt(grid.dt), size=shape)
    out = np.zeros((grid.n_steps + 1,) + shape[:-1])
    np.cumsum(inc.T, axis=0, out=out[1:])
    return out.T


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
    spec: LevySpec, grid: TimeGrid, counts: np.ndarray, W: np.ndarray | None, out: np.ndarray
) -> Iterator[np.ndarray]:
    """Yield the driver's node rows L_0, ..., L_n, node k written into
    ``out[k % len(out)]``.

    Node k is the jump sum of steps 0..k-1 plus drift_b * t_k, plus
    sigma * W_k.  ``counts`` is [path, step, atom] and ``W`` [path, node],
    given exactly when the driver has a continuous part; a step's jump sum
    is the jump sizes times its node-major [atom, path] row, so the counts
    are never cast or copied whole and integer sums never wrap.  With
    ``out`` the full [node, path] array every node is kept; with two rows,
    each row is overwritten two nodes later.
    """
    if (W is not None) != spec.continuous_part:
        raise ValueError("W is the driver's Brownian path, given exactly when sigma > 0")
    drift, sizes = spec.drift_b, spec.jump_sizes
    steps = counts.transpose(1, 2, 0)  # [step, atom, path]
    brownian = None if W is None else W.T  # [node, path]
    jumps = np.zeros(counts.shape[0])
    for k, t in enumerate(grid.nodes):
        if k:
            jumps += sizes @ steps[k - 1]
        node = np.add(jumps, drift * t, out=out[k % len(out)])
        if brownian is not None:
            node += spec.sigma * brownian[k]
        yield node


def assemble_levy_paths(
    spec: LevySpec, grid: TimeGrid, counts: np.ndarray, W: np.ndarray | None = None
) -> np.ndarray:
    """Driver node values from [path, step, atom] counts and, when the
    driver has a continuous part, its Brownian path ``W`` [path, node];
    returns [path, node], a transposed view of node-major storage.

    Node k is the jump sum of steps 0..k-1 plus drift_b * t_k, plus
    sigma * W_k; the counts and W are read one node at a time.
    """
    L = np.empty((grid.n_steps + 1, counts.shape[0]))
    for _ in _driver_nodes(spec, grid, counts, W, L):
        pass
    return L.T


def moves_only_at_jumps(spec: LevySpec) -> bool:
    """Whether the driver is idle, with no drift and no continuous part, so
    that the reflected state moves a path only in a step where the path
    jumps.  The reflection then steps only the paths that jump, and the
    backward sweep keeps every other path in its state."""
    return spec.drift_b == 0.0 and not spec.continuous_part


@dataclass(frozen=True, eq=False)
class DriverNodes:
    """A driver's node rows, built from the counts and ``W`` (see
    :func:`assemble_levy_paths`) as they are read.

    Iterating yields L_0, ..., L_n as [path] rows, exactly the nodes of
    :func:`assemble_levy_paths`, through two reused rows: a row is
    overwritten two nodes later, so a reader keeps at most the previous
    node.  ``len`` is the node count.  For an idle driver
    (:func:`moves_only_at_jumps`), :meth:`jump_steps` yields each step's
    moves at the paths that jump alone.
    """

    spec: LevySpec
    grid: TimeGrid
    counts: np.ndarray
    W: np.ndarray | None = None

    def __len__(self) -> int:
        return self.grid.n_steps + 1

    def __iter__(self) -> Iterator[np.ndarray]:
        return _driver_nodes(self.spec, self.grid, self.counts, self.W, np.empty((2, self.counts.shape[0])))

    def jump_steps(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """For an idle driver (:func:`moves_only_at_jumps`), yield per step
        k the paths with a jump in the step, ascending, and their dL_k, the
        difference of the node rows there bit for bit: node k is the
        running jump sum J_k plus drift_b * t_k = 0.0, which is J_k itself,
        since J_k starts at +0.0 and a sum is -0.0 only when both terms
        are.  Every other path's dL_k is zero."""
        if not moves_only_at_jumps(self.spec):
            raise ValueError("only an idle driver (no drift, sigma = 0) moves just the paths that jump")
        sizes = self.spec.jump_sizes
        jumps = np.zeros(self.counts.shape[0])
        for step in self.counts.transpose(1, 2, 0):  # [atom, path] rows
            moved = np.flatnonzero(step.any(axis=0))
            before = jumps[moved]
            after = before + sizes @ step[:, moved]
            jumps[moved] = after
            yield moved, np.subtract(after, before, out=after)


@dataclass(frozen=True, eq=False)
class ClockEvents:
    """The boundary local time |eta|, an increasing clock from 0, recorded
    as its growth events.

    Step k's events are the paths whose |eta| grew from node k to node
    k + 1, ``paths[offsets[k]:offsets[k + 1]]`` in ascending order, with
    |eta| there at node k in ``before`` and at node k + 1 in ``after``;
    every other path keeps its value.  :meth:`dense` rebuilds the [path,
    node] clock from them bit for bit, and :meth:`from_dense` records a
    dense clock.
    """

    n_paths: int
    offsets: np.ndarray
    paths: np.ndarray
    before: np.ndarray
    after: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.offsets.shape[0] - 1

    @property
    def steps(self) -> np.ndarray:
        """The step of each event."""
        return np.repeat(np.arange(self.n_steps), np.diff(self.offsets))

    def step(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Step k's events: ``(paths, before, after)``."""
        events = slice(self.offsets[k], self.offsets[k + 1])
        return self.paths[events], self.before[events], self.after[events]

    def dense(self) -> np.ndarray:
        """The clock's node values [path, node], a transposed view of
        node-major storage."""
        out = np.empty((self.n_steps + 1, self.n_paths))
        out[0] = 0.0
        for k in range(self.n_steps):
            out[k + 1] = out[k]
            paths, _, after = self.step(k)
            out[k + 1, paths] = after
        return out.T

    @classmethod
    def from_events(cls, n_paths: int, events: list) -> ClockEvents:
        """The record of per-step ``(paths, before, after)`` triples, one
        per step of at least one."""
        offsets = np.zeros(len(events) + 1, dtype=np.intp)
        np.cumsum([len(paths) for paths, _, _ in events], out=offsets[1:])
        return cls(n_paths, offsets, *(np.concatenate(column) for column in zip(*events)))

    @classmethod
    def from_dense(cls, clock) -> ClockEvents:
        """The record of a dense clock [path, node], of either layout,
        which must start at 0 and never decrease (:class:`InvalidClock`
        otherwise)."""
        nodes = np.ascontiguousarray(np.asarray(clock, dtype=float).T)
        if np.any(nodes[0] != 0.0):
            raise InvalidClock("the clock must start at 0 on every path")
        grew = nodes[1:] > nodes[:-1]
        if not np.all(grew | (nodes[1:] == nodes[:-1])):
            raise InvalidClock("the clock must be nondecreasing on every path")
        steps, paths = np.nonzero(grew)
        offsets = np.zeros(nodes.shape[0], dtype=np.intp)
        np.cumsum(np.count_nonzero(grew, axis=1), out=offsets[1:])
        return cls(nodes.shape[1], offsets, paths, nodes[steps, paths], nodes[steps + 1, paths])


def simulate_reflected_x(
    sigma_x: Callable[[np.ndarray], np.ndarray],
    theta: float,
    x0: float,
    driver_nodes,
) -> tuple[np.ndarray, ClockEvents]:
    """Clamp-projected Euler state on [-theta, theta] with its local time.

    Each step proposes ``X + sigma_x(X) * dL`` (jumps within the step are
    aggregated into dL, matching the left-limit integrand) and projects
    onto the interval; the projection distance is absorbed into the
    nondecreasing local time |eta|.  In dimension one the projection is
    the exact one-step Skorokhod map.

    ``driver_nodes`` is the driver's node rows in order: a
    :class:`DriverNodes`, or any sized iterable of [path] rows, such as a
    [node, path] array; dL_k is the difference of nodes k + 1 and k.  An
    idle :class:`DriverNodes` (:func:`moves_only_at_jumps`) leaves a path
    where it is in a step without a jump, so each step copies X's row
    forward and steps only the paths of :meth:`DriverNodes.jump_steps`;
    any other driver steps every path through one reused row.  Both forms
    give the same values bit for bit, as X_0 is x0 + 0.0: X never holds
    -0.0, which a path that does not jump would leave in its first step
    (-0.0 + sigma_x * 0.0 is +0.0).

    Returns the state as a [path, node] transposed view of a node-major
    array, and the local time as the :class:`ClockEvents` of the paths
    whose |eta| grew, |eta| + |overshoot| at each.
    """
    if not (-theta <= x0 <= theta):
        raise InitialPointOutsideDomain(f"x0={x0} outside [-{theta}, {theta}]")
    idle = isinstance(driver_nodes, DriverNodes) and moves_only_at_jumps(driver_nodes.spec)
    if idle:
        n_paths = driver_nodes.counts.shape[0]
    else:
        nodes = iter(driver_nodes)
        prev = next(nodes)
        n_paths = prev.shape[0]
    X = np.empty((len(driver_nodes), n_paths))
    X[0] = x0 + 0.0  # +0.0 from -0.0
    eta = np.zeros(n_paths)  # |eta| at the current node
    events = []

    def grow(paths: np.ndarray, overshoot: np.ndarray) -> None:
        before = eta[paths]
        after = before + np.abs(overshoot)
        grew = after > before  # an overshoot below |eta|'s last digit leaves it
        if not grew.all():
            paths, before, after = paths[grew], before[grew], after[grew]
        eta[paths] = after
        events.append((paths, before, after))

    if idle:
        for k, (moved, proposal) in enumerate(driver_nodes.jump_steps()):
            X[k + 1] = X[k]
            x = X[k, moved]
            proposal *= np.asarray(sigma_x(x), dtype=float)
            proposal += x
            X[k + 1, moved] = np.clip(proposal, -theta, theta, out=x)
            proposal -= x
            hit = np.flatnonzero(proposal)
            grow(moved[hit], proposal[hit])
    else:
        proposal = np.empty(n_paths)  # one row, reused: the step then its overshoot
        clamped = np.empty(n_paths, dtype=bool)  # nonzero on a bool row is the fast one
        for k, node in enumerate(nodes):
            np.subtract(node, prev, out=proposal)
            proposal *= np.asarray(sigma_x(X[k]), dtype=float)
            proposal += X[k]
            np.clip(proposal, -theta, theta, out=X[k + 1])
            proposal -= X[k + 1]
            hit = np.flatnonzero(np.not_equal(proposal, 0.0, out=clamped))
            grow(hit, proposal[hit])
            prev = node
    return X.T, ClockEvents.from_events(n_paths, events)


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


@dataclass(frozen=True, eq=False)
class StateRecord:
    """The states of X under an idle driver (:func:`moves_only_at_jumps`),
    where a path keeps its value in a step without a jump.

    ``values`` holds every value X takes, numbered as the walk back from
    the horizon first meets them and told apart by their bits;
    ``horizon`` [path] is each path's state at node n; ``moves[k]`` is
    step k's ``(paths, state at node k + 1, state at node k)`` over the
    paths with a count in the step, ascending.  Every index is ``int32``,
    and the moves are views of three flat arrays, ``moved``, that list
    them in walk order, last step first.  :meth:`walk` steps every path's
    state back node by node, and :meth:`runs` gives the runs of nodes
    over which each path keeps its state.
    """

    values: np.ndarray
    horizon: np.ndarray
    moves: tuple
    moved: tuple

    @classmethod
    def build(cls, X: np.ndarray, counts: np.ndarray) -> StateRecord:
        """The record of X [node, path] and the jump counts [step, atom,
        path], either in any layout: one walk back, which looks up only
        the paths with a count in each step."""
        n = X.shape[0] - 1
        keys, horizon = np.unique(X[n].view(np.int64), return_inverse=True)
        order = np.arange(keys.size, dtype=np.int32)  # the state of each sorted key
        by_state = keys  # each state's key, in state order
        horizon = horizon.astype(np.int32)
        index = horizon.copy()
        walked = []
        for k in range(n - 1, -1, -1):
            paths = np.flatnonzero(counts[k].any(axis=0))
            key = X[k, paths].view(np.int64)
            new = order[np.minimum(np.searchsorted(keys, key), keys.size - 1)]
            unseen = by_state[new] != key
            if unseen.any():
                by_state = np.concatenate([by_state, np.unique(key[unseen])])
                order = np.argsort(by_state).astype(np.int32)
                keys = by_state[order]
                new = order[np.searchsorted(keys, key)]
            walked.append((paths, index[paths], new))
            index[paths] = new
        moved = tuple(np.concatenate(column).astype(np.int32, copy=False) for column in zip(*walked))
        bounds = np.cumsum([0] + [paths.size for paths, _, _ in walked])
        moves = [tuple(column[bounds[w] : bounds[w + 1]] for column in moved) for w in range(n)]
        return cls(by_state.view(np.float64), horizon, tuple(moves[::-1]), moved)

    @property
    def n_paths(self) -> int:
        return self.horizon.shape[0]

    def runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(first, last, start, top)``, ``int32``, formed on each call:
        the nodes first..last over which each move's path held its state
        at node k + 1 (aligned with ``moved``), then each path's state at
        node 0 and the last node of its run that reaches node 0."""
        n, (paths, _, _) = len(self.moves), self.moved
        last = np.empty_like(paths)
        top = np.full(self.n_paths, n, dtype=np.int32)
        start = self.horizon.copy()
        at = 0
        for k in range(n - 1, -1, -1):
            moving, _, new = self.moves[k]
            last[at : at + moving.size] = top[moving]
            top[moving] = k
            start[moving] = new
            at += moving.size
        sizes = [self.moves[k][0].size for k in range(n - 1, -1, -1)]
        return np.repeat(np.arange(n, 0, -1, dtype=np.int32), sizes), last, start, top

    def walk(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(k, index)`` for k from n down to 0: every path's state
        at node k, in one row that the next node overwrites."""
        index = self.horizon.copy()
        yield len(self.moves), index
        for k in range(len(self.moves) - 1, -1, -1):
            paths, _, new = self.moves[k]
            index[paths] = new
            yield k, index


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """The one record of a draw: a stack of scenarios sharing one frozen
    Brownian path B, and their forward model, ``spec``, ``theta``, ``x0``
    and ``sigma_x``, the callable the reflection read.

    It stores what was drawn, ``jump_counts`` N [path, step, atom], the
    driver's own Brownian path ``W`` [path, node] (``None`` when the driver
    has no continuous part) and ``B`` [node], and what the reflection
    computed, ``X`` [path, node] and ``clock``, the growth events of the
    boundary local time |eta| (:class:`ClockEvents`); the solver reads any
    increasing clock recorded there.  From :func:`simulate_ensemble` the
    arrays are transposed views of node-major ones, the counts in a small
    unsigned dtype (see the module docstring); an ensemble built by hand
    may hold path-major arrays instead, which the solver copies to
    node-major once per sweep.

    The rest is derived from the record, each by one function: ``basis``
    by :func:`~levylab.teugels.basis_for` from the spec, and under an idle
    driver ``states``, X's :class:`StateRecord`, by
    :meth:`StateRecord.build` from X and N, each once, at the first read,
    and kept, so the sweeps and readers of one ensemble share them; the
    driver ``L`` [path, node] by :func:`assemble_levy_paths` and ``dH``
    [path, step, component] by :func:`~levylab.teugels.teugels_increments`,
    both from N and W, and ``eta_abs`` and the clock ``A`` [path, node],
    both |eta|, by :meth:`ClockEvents.dense`, all on every read, not cached,
    so a reader binds each once.  An ensemble is frozen: a changed copy
    (``dataclasses.replace``) derives its own.
    """

    grid: TimeGrid
    spec: LevySpec
    theta: float
    x0: float
    sigma_x: Callable[[np.ndarray], np.ndarray]
    B: np.ndarray
    W: np.ndarray | None
    jump_counts: np.ndarray
    X: np.ndarray
    clock: ClockEvents

    @property
    def n_paths(self) -> int:
        return self.X.shape[0]

    @cached_property
    def basis(self) -> TeugelsBasis:
        return basis_for(self.spec)

    @cached_property
    def states(self) -> StateRecord | None:
        """The :class:`StateRecord` of X, built at the first read and kept;
        ``None`` when the driver may move a path without a jump."""
        if not moves_only_at_jumps(self.spec):
            return None
        return StateRecord.build(self.X.T, self.jump_counts.transpose(1, 2, 0))

    def node_states(self, paths=slice(None)) -> Iterator[tuple[int, np.ndarray, np.ndarray | None]]:
        """Yield ``(k, x, at)`` for k from n down to 0: the points at which
        node k's rows of the given paths (an index into the path axis) are
        evaluated, and each path's point among them.  Under a
        :attr:`states` record ``x`` is its values and ``at`` the paths'
        states at node k, so a reader evaluates once per state and gathers;
        otherwise ``x`` is the paths' own X_k and ``at`` is ``None``."""
        record = self.states
        if record is None:
            X = self.X.T
            for k in range(self.grid.n_steps, -1, -1):
                yield k, X[k, paths], None
        else:
            for k, index in record.walk():
                yield k, record.values, index[paths]

    @property
    def L(self) -> np.ndarray:
        return assemble_levy_paths(self.spec, self.grid, self.jump_counts, self.W)

    @property
    def dH(self) -> np.ndarray:
        return teugels_increments(self.jump_counts, self.grid, self.spec, self.basis, W=self.W)

    @property
    def eta_abs(self) -> np.ndarray:
        return self.clock.dense()

    A = eta_abs


def simulate_ensemble(
    spec: LevySpec,
    grid: TimeGrid,
    n_paths: int,
    master_seed: int,
    theta: float,
    x0: float,
    sigma_x: Callable[[np.ndarray], np.ndarray],
    outer_index: int = 0,
) -> PathEnsemble:
    """Simulate a doubly stochastic ensemble for one outer Brownian sample.

    Streams: (master_seed, outer_index, STREAM_LEVY) drives the jump counts
    and then the driver's own Brownian path W, when it has a continuous
    part; (master_seed, outer_index, STREAM_BROWNIAN) drives the shared
    backward Brownian path.
    """
    rng_levy = derived_rng(master_seed, outer_index, STREAM_LEVY)
    rng_b = derived_rng(master_seed, outer_index, STREAM_BROWNIAN)
    counts = simulate_jump_counts(spec, grid, rng_levy, n_paths)
    W = simulate_brownian(grid, rng_levy, n_paths) if spec.continuous_part else None
    B = simulate_brownian(grid, rng_b)
    X, clock = simulate_reflected_x(sigma_x, theta, x0, DriverNodes(spec, grid, counts, W))
    return PathEnsemble(
        grid=grid,
        spec=spec,
        theta=theta,
        x0=x0,
        sigma_x=sigma_x,
        B=B,
        W=W,
        jump_counts=counts,
        X=X,
        clock=clock,
    )
