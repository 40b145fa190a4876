"""Backward least-squares Monte Carlo solver for the reflected equations.

Scheme
------
One explicit backward sweep per frozen Brownian sample.  At step k (from
the node k+1 down to k), with dt the step and dA, dB, dH the step
increments of the clock, the frozen Brownian path and the orthonormal
martingales:

1. regress  Y_{k+1} + f(t_{k+1}, X_{k+1}, Y_{k+1}, Z_{k+1}) dt
            + phi(t_{k+1}, X_{k+1}, Y_{k+1}) dA_k          on basis(X_k),
   giving yhat0; the doubly stochastic term is added outside the
   regression, yhat = yhat0 + g(t_k, X_k, yhat0) dB_k, because dB_k is a
   frozen (path-independent) number under the ensemble's conditioning;
2. regress  (Y_{k+1} - yhat0) dH(i)_k  on basis(X_k) and divide by dt to
   estimate Z(i)_k (justified by the strong orthonormality
   <H(i), H(j)>_t = delta_ij t).  Centering by the X_k-measurable yhat0
   leaves the conditional expectation of Y_{k+1} dH(i)_k unchanged, since
   the increments have zero conditional mean, but removes the 1/dt noise
   amplification on thin regression cells; there are rank components,
   one per atom of the basis's measure;
3. apply the obstacle.  Projection mode: Y_k = max(yhat, S_k) with
   dK_k = (yhat - S_k)^-.  Penalization mode with parameter n: the
   one-step penalty equation Y = yhat + n dt (Y - S_k)^- is solved in
   closed form (resolvent step), Y_k = (yhat + n dt S_k) / (1 + n dt) on
   {yhat < S_k}; the explicit variant n dt (yhat - S_k)^- diverges once
   n dt > 2, so the resolvent form is used for every n.

The regression basis is an intercept, a boundary-layer indicator (paths
within theta / 10 of a wall) and standardized monomials in X up to
``DEGREE``, a constant of the sweep.  Structurally constant columns are
dropped silently.

States
------
Every row at node k is a function of X_k (Y_t = u(t, X_t)), so the sweep
works on node k's states, not on its paths: the state values, the count
of paths at each and each path's state, held by a path -> state map.
Under a driver that moves a path only in a step where it jumps
(:func:`~levylab.paths.moves_only_at_jumps`: no drift and sigma = 0, as in
every shipped config) X_k takes a few dozen values over
thousands of paths, and the map is a :class:`StateMap`: walking back, only
the paths that jump in step k change state, about 1.5% of them at
example51's size.  The states and each step's moves are the ensemble's
:class:`~levylab.paths.StateRecord`, built at the first read of
``ens.states`` and kept, so every sweep and reader of one ensemble shares
it; the map walks a cursor over it, each path's state and the path counts
at the current node.  f, the target T = Y_{k+1} + f dt, the design, the fit,
the obstacle, g, the push, Y_k and Z_k are then formed once per state.  The
regressions weigh each state by its path count c: the Gram matrix is
D diag(c) D^T; the Y right-hand side sums each path's target by node-k
state, R_i = (stayers at i) T_i + the jumping paths' T at their node-(k +
1) states + phi dA_k over the step's clock events; the Z right-hand side
likewise, a path without a jump having the constant dH_k = -P alpha dt.
Under any other driver each path is its own state (:class:`IdentityMap`),
no row is gathered or weighted, and the arithmetic is the per-path one.

Regression
----------
Each step writes its Y right-hand side row into row 0 of a buffer reused
across steps and its design below it, weighted by the path counts, one
contiguous row per basis column.  One product of the design with that
buffer gives the weighted Gram matrix (at most 6 x 6) and the Y
right-hand side together.  Under the identity map the counts are 1 and the
row is the target itself, so the buffer holds the target and the design as
written.  The Gram matrix is
Cholesky-factored once; the Y regression (item 1) and the Z regressions
(item 2) are all solved against that one factor, and each fit is written
straight into its running row.  The Z coefficients are scaled by 1/dt
before the fit is formed.  The Gram matrix squares the design's condition
number, so a design whose factorization fails, or whose condition number
(LAPACK's ``pocon`` estimate from the factor, no SVD) exceeds
``GRAM_COND_MAX``, is reduced from the highest degree down: the Gram
matrix of the design's first ``kept`` columns is the leading ``kept x
kept`` block of the one already formed, so the step factors the largest
leading block that passes both tests and keeps those columns.  The 1 x 1
intercept block, the path count, always passes.  Early steps, where X
sits on a few lattice points, are reduced.  A sweep that reduces any
design warns once, naming the earliest such step.
The factor, the estimate and the solves call LAPACK's ``potrf``,
``pocon`` and ``potrs`` directly, the routines behind scipy's
``cho_factor`` and ``cho_solve``, without their per-call checks and
copies.  ``scipy.linalg.lapack`` is imported where they are called, so
importing this module, and any command that runs no sweep, does not load
scipy.  The design's mean, standard deviation and layer flag are measured
over the paths by each map's ``scale``: the state map's from the states
and their counts, the identity map's from the row X_k with np.mean and
np.std's arithmetic; :func:`regression_design` is given them.

Storage
-------
Every per-node array the sweep reads is node-major, so each step reads
contiguous rows.  The inputs X and the jump counts (and the driver's
Brownian path W, when it has a continuous part) are taken from the
ensemble's transposed views through ``np.ascontiguousarray`` once per
sweep: free for an ensemble from :func:`~levylab.paths.simulate_ensemble`,
one copy for a hand-built path-major one.  Under the identity map, step
k's increments dH_k are formed from its counts (and W's step) by
:func:`~levylab.teugels.step_increments` into one reused [rank, path]
block; under the state map only the jumping paths' increments are formed
(:func:`~levylab.teugels.jump_martingales`), and no [rank, path] block.
The clock is read as the ensemble records it, step k's growth
events (:class:`~levylab.paths.ClockEvents`): dA_k is zero off them and
phi is pointwise, so the phi dA_k term of the target and the Y^2 dA_k
diagnostic are formed at those paths only, a few per cent of them or
none, with phi called on their states alone.

The sweep stores no [node, path] array.  Y and Z at node k + 1 (the step's
inputs) and at node k (its outputs), the fit and the push are a few
per-state rows, swapped or overwritten each step.  Per path it keeps only
each path's state and the running K_T: a step adds the push read at each
path's state only when some state is pushed, since adding +-0.0 leaves
K_T as it is.  It reads the clock events' states, for phi dA and Y^2 dA,
and step 0's target at every path once, for y0_se.  Under the state map
sup Y^2 is formed once, after the loop, from a [node, state] history of
Y^2: per run of nodes over which a path keeps its state (read off the
record's moves), the max of that state's column there, from a sparse table
of range maxima, then the max over each path's runs, exactly the per-path
running max; under the identity map it is that running max.  What it
returns per step is the step's fit (:class:`StepFit`): the mean and sd of
X_k, whether the design has the boundary-layer column, and the Y and
1/dt-scaled Z coefficients over the columns kept, a few dozen floats.
Given them, every row at node k is a function of X_k, and
:meth:`EnsembleSolution.evaluate` rebuilds it at any states through the
sweep's own calls: :func:`regression_design` with the stored mean and sd,
the same coefficient products, then the g dB term and the push.  So Y, Z,
dK, K, y_pre and S are evaluated on read, one node at a time, at every
path or at the paths a reader asks for, of the ensemble the solution
holds: under its state record once per state and gathered to the paths
(:meth:`~levylab.paths.PathEnsemble.node_states`), so a state map's rows
are read back bit for bit.  The other diagnostics are reduced as the sweep
writes each row: the path sums of Y^2 dA (over the clock's events),
|Z|^2, the push's gap and the penetration, each weighted by the path
counts, as one scalar per step, since only their path means are read.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import SingularRegressionWarning, TerminalBelowObstacle
from .paths import PathEnsemble, moves_only_at_jumps
from .problems import ProblemSpec
from .teugels import jump_martingales, step_increments

PROJECTION = None  # the penalty that stands for projection mode

# Largest Gram condition number a step may solve by Cholesky.  The Gram
# matrix squares the design's condition number, so this admits designs up
# to condition 1e5.  Rank-deficient designs sit near 1e16 and above, far
# past it.
GRAM_COND_MAX = 1e10

# The boundary-layer indicator column marks the paths within
# theta / LAYER_DIVISOR of a wall.
LAYER_DIVISOR = 10.0


def _layer_edge(theta: float) -> float:
    """Where the boundary layer of the domain (-theta, theta) starts: the
    design's indicator column marks the states with |x| >= this."""
    return theta - theta / LAYER_DIVISOR


# How far the terminal value may fall below the obstacle before the sweep
# refuses the problem.
TERMINAL_TOL = 1e-9

# The regression basis: the intercept, the boundary-layer indicator and
# the monomials of the standardized state up to DEGREE, BASIS_DIM columns.
DEGREE = 4
BASIS_DIM = DEGREE + 2


class StepFit(NamedTuple):
    """Step k's regression, which fixes every row at node k as a function
    of the state X_k.

    ``mean`` and ``sd`` standardize the state for the design's monomials,
    which the design has only when ``sd`` exceeds ``SD_FLOOR``; ``layer``
    says whether it has the boundary-layer column.  ``y_coef`` [1, kept]
    and ``z_coef`` [rank, kept] (``None`` at rank 0) are the Y and Z
    coefficients over the design's first ``kept`` columns, the Z ones
    already scaled by 1/dt.
    """

    mean: float
    sd: float
    layer: bool
    y_coef: np.ndarray
    z_coef: np.ndarray | None


def _push_scale(penalization: float | None, dt: float) -> float:
    """The push's share of the shortfall (S - yhat)^+: 1 by projection,
    n dt / (1 + n dt) by the resolvent step of penalty n."""
    return 1.0 if penalization is PROJECTION else penalization * dt / (1.0 + penalization * dt)


@dataclass
class EnsembleSolution:
    """Solution of one backward sweep (one frozen Brownian sample), held as
    its per-step fits on the ensemble ``ens`` it was solved on.

    ``fits[k]`` is step k's :class:`StepFit`.  :meth:`evaluate` rebuilds
    node k's Y, Z, push dK_k and pre-push (left limit) estimate y_pre at
    any states, and :meth:`evaluate_gathered` gathers them to paths;
    :meth:`on_paths` evaluates one of them, K or the obstacle S node by
    node at a set of paths of the ensemble's state X, once per state of
    the ensemble's state record when it has one.  The
    grid, the frozen increments dB, the rank and the design's boundary
    layer (:func:`_layer_edge` of theta) are the ensemble's; the solution
    copies none of them.  The properties ``Y``, ``K``, ``y_pre``
    and ``S`` [path, node], ``Z`` [path, node, component] with the basis's
    rank of components and ``dK`` [path, step] evaluate it at every path
    on each read, not stored or cached, so a reader binds each once.
    ``K_T`` [path] is the total push, summed by the sweep as it ran, last
    step first, over the steps where some state was pushed.

    ``y0_se`` is the spread over paths of step 0's one-step regression
    target divided by sqrt(n_paths).  It is not the standard error of
    ``y0_value``: it holds the randomness of the first step only, and on
    example51 it reads about 15 times smaller than the spread of Y0 over
    seeds (ROADMAP item 1).

    ``skorokhod_residual`` is the mean over paths of
    |sum_k (y_pre_k - S_k) dK_k|, the discrete complementarity gap;
    ``penetration_norm`` the max over nodes of the mean over paths of
    ((S - Y)^+)^2; ``apriori_norms`` the terms of E[sup_t Y^2 +
    int Y^2 dA + int |Z|^2 dt + K_T^2] and their ``total``.
    """

    penalization: float | None
    fits: tuple[StepFit, ...]
    K_T: np.ndarray
    ens: PathEnsemble
    problem: ProblemSpec
    y0_value: float
    y0_se: float
    skorokhod_residual: float
    penetration_norm: float
    apriori_norms: dict

    @property
    def dt(self) -> float:
        return self.ens.grid.dt

    @cached_property
    def _nodes(self) -> np.ndarray:
        return self.ens.grid.nodes

    def evaluate(self, k: int, x: np.ndarray, y=None, z=None, push=None, y_pre=None) -> None:
        """Node k's rows at the states ``x`` [point], written into the
        rows given: ``y``, ``push`` (dK_k) and ``y_pre`` [point], ``z``
        [component, point].

        The arithmetic is the sweep's, call for call, so at the states the
        sweep regressed on (node k's distinct values under a
        :class:`StateMap`, every path's under the :class:`IdentityMap`)
        the rows are its rows bit for bit.  At other points, such as every
        path of a state map's sweep or a subset of the paths, Z still is;
        the Y fit's 1 x kept product may round a few points one ulp apart,
        since BLAS treats the tail of a row of another length differently,
        and y_pre, the push and Y carry that ulp.  At the horizon Y and
        y_pre are the terminal value and Z is zero; there is no push.
        """
        problem, B = self.problem, self.ens.B
        if k == self.ens.grid.n_steps:
            if push is not None:
                raise ValueError("the horizon node has no push")
            for out in (y, y_pre):
                if out is not None:
                    out[...] = np.asarray(problem.terminal(x), dtype=float)
            if z is not None:
                z[...] = 0.0
            return
        fit = self.fits[k]
        design = regression_design(x, _layer_edge(self.ens.theta),
                                   np.empty((BASIS_DIM, x.shape[0])), fit.mean, fit.sd, fit.layer)
        if z is not None and fit.z_coef is not None:
            _fitted(fit.z_coef, design, z)
        if y is None and push is None and y_pre is None:
            return
        rows = [out if out is not None else np.empty(x.shape[0]) for out in (y_pre, push, y)]
        yhat = _fitted(fit.y_coef, design, rows[0][None, :])[0]
        t = self._nodes[k]
        s = np.asarray(problem.obstacle(t, x), dtype=float)
        _settle(problem, t, x, B[k + 1] - B[k], yhat, s, _push_scale(self.penalization, self.dt),
                np.empty(x.shape[0]), rows[1], rows[2])

    def evaluate_gathered(self, k: int, x: np.ndarray, at: np.ndarray | None, **rows) -> None:
        """:meth:`evaluate` at the points ``x``, each of the given ``rows``
        (as named there, ``None`` for none) written at the points ``at``
        along its last axis; with ``at`` ``None``, straight at ``x``.  The
        pairs ``(x, at)`` are those of
        :meth:`~levylab.paths.PathEnsemble.node_states`."""
        if at is None:
            return self.evaluate(k, x, **rows)
        points = {name: np.empty(row.shape[:-1] + x.shape) for name, row in rows.items() if row is not None}
        self.evaluate(k, x, **points)
        for name, row in points.items():
            np.take(row, at, axis=-1, out=rows[name])

    def on_paths(self, name: str, paths=slice(None)) -> np.ndarray:
        """``name`` ("Y", "Z", "dK", "K", "y_pre" or "S") at the given
        paths (an index into the path axis, every path by default),
        evaluated node by node into one node-major array and returned as
        its [path, node(, component)] transposed view.

        Each node is evaluated at the points of
        :meth:`~levylab.paths.PathEnsemble.node_states`: under the
        ensemble's state record once per state and gathered to the paths,
        so the rows of a state map's sweep are its own rows; otherwise at
        the paths' own states.  K is the running sum of the evaluated
        pushes, from K_0 = 0.  The only temporaries are per-state rows.
        """
        ens = self.ens
        n, size = ens.grid.n_steps, ens.X[paths, 0].shape[0]
        if name == "Z":
            out = np.empty((n + 1, ens.basis.rank, size))
        else:
            out = np.empty((n if name == "dK" else n + 1, size))
        key = {"Y": "y", "Z": "z", "dK": "push", "K": "push", "y_pre": "y_pre", "S": None}[name]
        for k, x, at in ens.node_states(paths):
            if name == "S":
                s = np.asarray(self.problem.obstacle(self._nodes[k], x), dtype=float)
                out[k] = s if at is None else s[at]
            elif k < n or key != "push":
                self.evaluate_gathered(k, x, at, **{key: out[k + 1] if name == "K" else out[k]})
        if name == "K":
            out[0] = 0.0
            for k in range(n):
                out[k + 1] += out[k]
        return out.transpose(2, 0, 1) if name == "Z" else out.T

    Y = property(lambda self: self.on_paths("Y"))
    Z = property(lambda self: self.on_paths("Z"))
    dK = property(lambda self: self.on_paths("dK"))
    K = property(lambda self: self.on_paths("K"))
    y_pre = property(lambda self: self.on_paths("y_pre"))
    S = property(lambda self: self.on_paths("S"))


# The design has the standardized monomials only when the state's sd
# exceeds this.
SD_FLOOR = 1e-13


def regression_design(
    x: np.ndarray, layer_edge: float, out: np.ndarray, mean: float, sd: float, layer: bool
) -> np.ndarray:
    """Design rows [1, layer indicator, x~, x~^2, ..., x~^DEGREE] at the
    states ``x``.

    Each basis column is one contiguous row, written into the leading rows
    of ``out`` (shape ``(BASIS_DIM, n_points)``); the returned ``(ncols,
    n_points)`` design is a view of it.  x~ = (x - mean) / sd is the
    standardized state; ``layer`` says whether the design has the
    indicator of the boundary layer, the states with |x| >= ``layer_edge``.
    The sweep takes the three from its path -> state map's ``scale``, over
    the paths, and :meth:`EnsembleSolution.evaluate` passes the stored
    ones.  Structurally constant columns (collapsed state, empty or full
    boundary layer) are omitted; dropping them is degeneracy of the data,
    not an error, and the monomials are kept only when sd exceeds
    ``SD_FLOOR``.  Every entry is a function of its own state and of the
    three, so a design at any states, built with the sweep's mean, sd and
    layer flag, is the sweep's design at those states bit for bit.
    """
    out[0] = 1.0
    ncol = 1
    if layer:
        out[ncol] = np.abs(x) >= layer_edge
        ncol += 1
    if sd > SD_FLOOR:
        xs = out[ncol]
        np.subtract(x, mean, out=xs)
        xs /= sd
        for d in range(1, DEGREE):
            np.multiply(out[ncol + d - 1], xs, out=out[ncol + d])
        ncol += DEGREE
    return out[:ncol]


def _gram_factor(gram: np.ndarray) -> tuple[np.ndarray, int]:
    """``(factor, kept)``: the upper Cholesky factor (LAPACK ``potrf``) of
    the largest leading ``kept x kept`` block of a design's Gram matrix
    that the step may solve by Cholesky, and ``kept``.

    A block is accepted when its factorization succeeds and the condition
    number that LAPACK's ``pocon`` estimates from the factor (in the
    1-norm) is at most ``GRAM_COND_MAX``; ``kept`` runs from the full size
    down.  The 1 x 1 intercept block is the path count, so it is always
    accepted.  Only the upper triangle of ``gram`` is factored.
    """
    from scipy.linalg.lapack import dpocon, dpotrf

    for kept in range(gram.shape[0], 0, -1):
        block = gram[:kept, :kept]
        factor, info = dpotrf(block, lower=0, clean=0)
        if info == 0:
            rcond, info = dpocon(factor, float(np.max(np.sum(np.abs(block), axis=0))))
        if kept == 1 or info == 0 and rcond * GRAM_COND_MAX >= 1.0:
            return factor, kept


def _fitted(coef: np.ndarray, design: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The fitted rows ``coef @ design[:kept]`` of coefficients [r, kept],
    written into ``out`` [r, n_points]: the one product the sweep and
    :meth:`EnsembleSolution.evaluate` both form."""
    return np.matmul(coef, design[: coef.shape[1]], out=out)


def _regress(
    design: np.ndarray,
    factor: tuple[np.ndarray, int],
    targets: np.ndarray,
    out: np.ndarray,
    rhs: np.ndarray | None = None,
    scale: float = 1.0,
) -> np.ndarray:
    """Least-squares fit of each row of ``targets`` on the design's first
    ``kept`` columns, times ``scale``, written into ``out``; returns the
    coefficients [r, kept].

    ``design`` is ``(ncols, n_paths)``, ``targets`` and ``out`` are
    ``(r, n_paths)``.  ``factor`` is the step's ``(factor, kept)`` from
    :func:`_gram_factor`; the normal equations of the kept columns are
    solved against it (LAPACK ``potrs``), with the right-hand sides
    ``rhs`` (``design @ targets.T``) when the caller has already formed
    them.  ``scale`` multiplies the coefficients, not the fitted rows.
    """
    from scipy.linalg.lapack import dpotrs

    upper, kept = factor
    coef, _ = dpotrs(upper, design[:kept] @ targets.T if rhs is None else rhs[:kept], lower=0)
    if scale != 1.0:
        coef *= scale
    _fitted(coef.T, design, out)
    return coef.T


def _settle(problem: ProblemSpec, t: float, x: np.ndarray, db: float, yhat: np.ndarray,
            s: np.ndarray, push_scale: float, short: np.ndarray, push: np.ndarray,
            y: np.ndarray) -> None:
    """Turn a step's fit into its rows, in place: ``yhat`` takes the doubly
    stochastic term g(t, x, yhat) db, ``short`` the shortfall (s - yhat)^+
    below the obstacle row ``s``, ``push`` its ``push_scale`` share and
    ``y`` the pushed value yhat + push."""
    gk = np.asarray(problem.g(t, x, yhat), dtype=float)
    yhat += np.multiply(gk, db, out=short)
    np.maximum(np.subtract(s, yhat, out=short), 0.0, out=short)
    np.multiply(push_scale, short, out=push)
    np.add(yhat, push, out=y)


class IdentityMap:
    """The sweep's path -> state map when every path is its own state: node
    k's states are the row X_k, and every per-state row of the sweep is a
    [path] row.  The map for a driver under which a path may move in a
    step without a jump; each method is then the per-path arithmetic, with
    no gather or weight.

    The map's methods are the sweep's only state bookkeeping, the same for
    :class:`StateMap`.  ``values(k)`` is node k's state values and
    ``at(paths)`` the states of some paths at the current node, which
    ``move(k)`` steps from k + 1 to k.  ``buffers`` gives the step's target
    and design rows, ``collect`` the Y right-hand side row, ``scale`` the
    design's ``(mean, sd, layer)`` over the paths, ``weigh``
    the design rows the Gram product reads and ``centred`` the Z targets.
    ``sum_squares``, ``mean`` and ``live`` reduce per-state rows over the
    paths; ``to_paths`` reads a per-state row at every path, and
    ``first_targets`` step 0's target.  ``keep_square`` takes node k's Y^2
    row and ``sup_square`` returns each path's max of them.
    """

    def __init__(self, ens: PathEnsemble, X: np.ndarray, counts: np.ndarray, W: np.ndarray | None):
        self.X, self.jumps, self.W, self.ens = X, counts, W, ens
        self.n_paths = self.size = X.shape[1]
        self.sup = None  # each path's running max of Y^2

    def values(self, k: int) -> np.ndarray:
        return self.X[k]

    def at(self, paths: np.ndarray) -> np.ndarray:
        return paths

    def live(self, row: np.ndarray) -> np.ndarray:
        return row

    def move(self, k: int) -> None:
        pass

    def buffers(self, aug: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The step's target row and design rows: row 0 of ``aug`` and the
        rows below it, so the Gram product reads them where they are."""
        return aug[0], aug[1:]

    def first_targets(self, target, paths, values) -> np.ndarray:
        # the target row itself, which collect completes in place
        return target

    def collect(self, target, paths, values, out) -> np.ndarray:
        if values is not None:
            target[paths] += values
        return target

    def scale(self, x: np.ndarray, layer_edge: float) -> tuple[float, float, bool]:
        """The design's ``(mean, sd, layer)`` over the paths: np.mean and
        np.std's arithmetic, and whether the boundary layer holds some of
        the paths but not all."""
        n = self.n_paths
        mean = float(np.add.reduce(x)) / n
        deviation = x - mean
        sd = math.sqrt(float(np.add.reduce(np.multiply(deviation, deviation, out=deviation))) / n)
        return mean, sd, 0 < np.count_nonzero(np.abs(x) >= layer_edge) < n

    def weigh(self, design: np.ndarray, aug: np.ndarray) -> np.ndarray:
        return aug

    def centred(self, k: int, y_next, yhat, out, scratch) -> np.ndarray:
        ens = self.ens
        step_increments(self.jumps, self.W, k, ens.grid.dt, ens.spec, ens.basis, out)
        out *= np.subtract(y_next, yhat, out=scratch)
        return out

    def sum_squares(self, rows: np.ndarray) -> float:
        return float(np.vdot(rows, rows))

    def mean(self, row: np.ndarray) -> float:
        return float(np.mean(row))

    def to_paths(self, row: np.ndarray) -> np.ndarray:
        return row

    def keep_square(self, k: int, y2: np.ndarray) -> None:
        if self.sup is None:
            self.sup = y2.copy()
        else:
            np.maximum(self.sup, y2, out=self.sup)

    def sup_square(self) -> np.ndarray:
        return self.sup


class StateMap(IdentityMap):
    """The sweep's path -> state map under a driver that moves a path only
    in a step where it jumps (:func:`~levylab.paths.moves_only_at_jumps`):
    the states are the distinct values of X, each with its count of paths
    at the current node, and the per-state rows have one entry per state.

    The states are the ensemble's :class:`~levylab.paths.StateRecord`:
    every value X takes, numbered as the walk back first meets them, so a
    state may hold no path at a node; its rows are formed and carry no
    weight.  A path keeps its state in a step where it does not jump, and
    the record's ``moves[k]`` = (paths, state at node k + 1, state at node
    k) lists the others.  The map is a cursor over the record: it keeps
    each path's state in ``index`` and the path counts in ``count``, and
    per step ``stay``, the paths at each state that did not jump, and the
    [node, state] history of Y^2 in ``squares``.

    A path that does not jump in step k has dH_k = -P alpha dt, one
    constant column, ``still``; the Z targets take it times the stayers'
    count, and the jumping paths' own increments scattered by state.
    """

    def __init__(self, ens: PathEnsemble, X: np.ndarray, counts: np.ndarray, W=None):
        super().__init__(ens, X, counts, W)
        record = ens.states
        self.record, self.moves = record, record.moves
        self.states = record.values
        self.size = self.states.size
        self.index = record.horizon.copy()
        self.count = np.bincount(self.index, minlength=self.size).astype(float)
        self.stay = np.empty(self.size)
        spec = ens.spec
        # two columns, so the product is the matrix-matrix one that gives
        # every path's increments, which a single column may round apart
        self.still = jump_martingales(np.zeros((spec.m_atoms, 2)), ens.grid.dt, spec, ens.basis)[:, 0]
        self.squares = np.empty((len(self.moves) + 1, self.size))  # Y^2 [node, state]

    def values(self, k: int) -> np.ndarray:
        return self.states

    def at(self, paths: np.ndarray) -> np.ndarray:
        return self.index[paths]

    def live(self, row: np.ndarray) -> np.ndarray:
        return row[self.count > 0.0]

    def move(self, k: int) -> None:
        self._move = paths, old, new = self.moves[k]
        self.index[paths] = new
        arriving = np.bincount(new, minlength=self.size)
        self.count -= np.bincount(old, minlength=self.size)
        self.count += arriving
        np.subtract(self.count, arriving, out=self.stay)

    def buffers(self, aug: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A target row and design rows of their own: ``aug`` takes the
        count-weighted ones."""
        return np.empty(self.size), np.empty_like(aug[1:])

    def first_targets(self, target, paths, values) -> np.ndarray:
        # each path's target, read before the move at its node-(k + 1) state
        out = target[self.index]
        if values is not None:
            out[paths] += values
        return out

    def collect(self, target, paths, values, out) -> np.ndarray:
        """R_i: the stayers' count times T_i, each jumping path's target at
        its node-(k + 1) state, and phi dA over the events, all summed by
        node-k state."""
        moved, old, new = self._move
        np.multiply(self.stay, target, out=out)
        if moved.size:
            out += np.bincount(new, weights=target[old], minlength=self.size)
        if values is not None:
            np.add.at(out, self.index[paths], values)
        return out

    def scale(self, x: np.ndarray, layer_edge: float) -> tuple[float, float, bool]:
        """The count-weighted mean and sd of the states, and whether the
        boundary layer holds some of the paths but not all."""
        c, n = self.count, self.n_paths
        mean = float(np.dot(c, x)) / n
        deviation = x - mean
        sd = math.sqrt(float(np.dot(c, deviation * deviation)) / n)
        in_layer = float(c[np.abs(x) >= layer_edge].sum())
        return mean, sd, 0.0 < in_layer < n

    def weigh(self, design: np.ndarray, aug: np.ndarray) -> np.ndarray:
        # D diag(c) below the target row, so design @ aug.T gives R's
        # right-hand side and D diag(c) D^T
        np.multiply(design, self.count, out=aug[1 : design.shape[0] + 1])
        return aug

    def centred(self, k: int, y_next, yhat, out, scratch) -> np.ndarray:
        """Q_i: the stayers' constant dH times their count and (Y_{k+1,i} -
        yhat_i), plus each jumping path's dH (Y_{k+1} at its old state -
        yhat at its new one), summed by node-k state."""
        moved, old, new = self._move
        np.subtract(y_next, yhat, out=scratch)
        scratch *= self.stay
        np.multiply.outer(self.still, scratch, out=out)
        if moved.size:
            ens = self.ens
            dH = jump_martingales(self.jumps[k][:, moved], ens.grid.dt, ens.spec, ens.basis)
            dH *= y_next[old] - yhat[new]
            for row, increments in zip(out, dH):
                row += np.bincount(new, weights=increments, minlength=self.size)
        return out

    def sum_squares(self, rows: np.ndarray) -> float:
        return float((np.square(rows) @ self.count).sum())

    def mean(self, row: np.ndarray) -> float:
        return float(np.dot(self.count, row)) / self.n_paths

    def to_paths(self, row: np.ndarray) -> np.ndarray:
        return row[self.index]

    def keep_square(self, k: int, y2: np.ndarray) -> None:
        self.squares[k] = y2

    def sup_square(self) -> np.ndarray:
        """Each path's max of Y^2 over the nodes: per run of nodes over
        which the path keeps its state (:meth:`StateRecord.runs`), the max
        of that state's Y^2 there, then the max over the path's runs."""
        first, last, start, top = self.record.runs()
        paths, held, _ = self.record.moved
        levels = _max_table(self.squares)
        sup = _range_max(levels, start, 0, top)  # each path's run that reaches node 0
        np.maximum.at(sup, paths, _range_max(levels, held, first, last))
        return sup


def _max_table(rows: np.ndarray) -> np.ndarray:
    """The sparse table of ``rows`` [row, column]: level j [row, column]
    holds the max over the 2**j consecutive rows from each row on, where
    they fit."""
    n = rows.shape[0]
    levels = np.empty((n.bit_length(),) + rows.shape)
    levels[0] = rows
    for j in range(1, levels.shape[0]):
        half, size = 1 << (j - 1), n - (1 << j) + 1
        np.maximum(levels[j - 1, :size], levels[j - 1, half : half + size], out=levels[j, :size])
    return levels


def _range_max(levels: np.ndarray, column: np.ndarray, first, last: np.ndarray) -> np.ndarray:
    """Per query i, the max of ``rows[first[i]:last[i] + 1, column[i]]``,
    exactly, from the :func:`_max_table` of ``rows``: the larger of the two
    spans of the largest level that fits the query, the first starting at
    ``first`` and the second ending at ``last``."""
    _, n, m = levels.shape
    index = np.int32 if levels.size <= np.iinfo(np.int32).max else np.int64
    end = np.subtract(last, first, dtype=index)
    end += 1
    start = (np.frexp(np.arange(n + 1))[1] - 1).astype(index)[end]  # the level j: floor(log2(length))
    np.left_shift(1, start, out=end)
    start *= n  # the level's first row
    np.subtract(start, end, out=end)  # the second span ends at last: it starts at last + 1 - 2**j
    end += last
    end += 1
    end *= m
    end += column
    start += first
    start *= m
    start += column
    flat = levels.reshape(-1)
    peaks = flat[start]
    return np.maximum(peaks, flat[end], out=peaks)


def _state_map(ens: PathEnsemble, X: np.ndarray, counts: np.ndarray, W: np.ndarray | None) -> IdentityMap:
    """The sweep's path -> state map: the ensemble's distinct states
    (``ens.states``) when the driver moves a path only in a step where it
    jumps, each path its own state otherwise."""
    if moves_only_at_jumps(ens.spec):
        return StateMap(ens, X, counts)
    return IdentityMap(ens, X, counts, W)


def solve_penalized(
    problem: ProblemSpec, ens: PathEnsemble, penalization: float | None = PROJECTION
) -> EnsembleSolution:
    """Backward sweep over one ensemble (one frozen Brownian sample), on
    the states of its path -> state map (see the module docstring), with
    the penalty ``penalization``: a positive, finite parameter n, or
    ``PROJECTION`` (``None``), the limit of the penalty scheme.

    Raises :class:`TerminalBelowObstacle` when S_T > xi on some path, and
    ``ValueError`` when the penalty is neither, or when the ensemble holds
    fewer than ten times ``BASIS_DIM`` paths.  Emits at
    most one :class:`SingularRegressionWarning`, naming the earliest step
    whose design was reduced, its column count and how many regressions the
    sweep reduced.
    """
    if penalization is not PROJECTION and not 0.0 < penalization < math.inf:
        raise ValueError("penalization must be positive and finite, or None (projection)")
    grid = ens.grid
    n = grid.n_steps
    dt = grid.dt
    t = grid.nodes
    n_paths = ens.n_paths
    if n_paths < 10 * BASIS_DIM:
        raise ValueError(f"n_paths={n_paths} is below 10 * basis dimension ({10 * BASIS_DIM})")
    # Node-major inputs: row k is the contiguous node-k (step-k) slice.
    X = np.ascontiguousarray(ens.X.T)
    clock = ens.clock
    counts = np.ascontiguousarray(ens.jump_counts.transpose(1, 2, 0))
    W = None if ens.W is None else np.ascontiguousarray(ens.W.T)
    dB = np.diff(ens.B)
    rank = ens.basis.rank
    layer_edge = _layer_edge(ens.theta)
    states = _state_map(ens, X, counts, W)
    m = states.size

    x = states.values(n)
    s_k = np.asarray(problem.obstacle(t[n], x), dtype=float)
    xi = np.asarray(problem.terminal(x), dtype=float)
    worst = float(np.min(states.live(xi - s_k)))
    if worst < -TERMINAL_TOL:
        raise TerminalBelowObstacle(
            f"terminal value falls below the obstacle by {-worst:.3e} on some path"
        )

    # Per-state rows.  Y and Z at node k + 1, the step's inputs, and at node
    # k, its outputs; swapped after each step.
    y_next, y = xi.copy(), np.empty(m)
    z_next, z = np.zeros((rank, m)), np.empty((rank, m))
    # Row 0 holds the step's Y right-hand side row, the rows below it the
    # (weighted) design, so one product gives the Gram matrix and the Y
    # right-hand side together.
    aug = np.empty((BASIS_DIM + 1, m))
    target, design_rows = states.buffers(aug)
    yhat = np.empty(m)  # the step's fit, then its pre-push estimate
    push = np.empty(m)
    short = np.empty(m)
    centred = np.empty((rank, m))  # the step's Z targets
    fits = [None] * n
    # per path K_T, summed last step first; the map keeps each node's Y^2
    k_total = np.zeros(n_paths)
    states.keep_square(n, np.square(xi))

    def mean_penetration_sq(s: np.ndarray, y: np.ndarray) -> float:
        """Mean over paths of ((s - y)^+)^2, formed in ``short``."""
        np.maximum(np.subtract(s, y, out=short), 0.0, out=short)
        return states.sum_squares(short) / n_paths

    # Diagnostics, reduced as each row is written: per step the path sums
    # of Y^2 dA, |Z|^2 and the push's gap, and the mean ((S - Y)^+)^2; sup
    # Y^2 after the loop.
    y2_dA = z2 = gap = 0.0
    penetration = np.empty(n + 1)
    penetration[n] = mean_penetration_sq(s_k, xi)
    reduced, first_reduced = 0, None

    push_scale = _push_scale(penalization, dt)
    for k in range(n - 1, -1, -1):
        fk = np.asarray(problem.f(t[k + 1], states.values(k + 1), y_next, z_next.T), dtype=float)
        np.multiply(fk, dt, out=target)
        target += y_next
        # phi dA_k: dA_k is zero off the step's clock events, and phi is pointwise
        grew, before, after = clock.step(k)
        dA = after - before
        phi_dA = None
        if grew.size:
            y_grew = y_next[states.at(grew)]
            phi_dA = np.asarray(problem.phi(t[k + 1], X[k + 1, grew], y_grew), dtype=float) * dA
        if k == 0:
            first = states.first_targets(target, grew, phi_dA)
        states.move(k)
        states.collect(target, grew, phi_dA, aug[0])
        x = states.values(k)
        scale = states.scale(x, layer_edge)
        design = regression_design(x, layer_edge, design_rows, *scale)
        ncol = design.shape[0]
        rhs_gram = design @ states.weigh(design, aug)[: ncol + 1].T
        factor = _gram_factor(rhs_gram[:, 1:])
        y_coef = _regress(design, factor, aug[:1], yhat[None, :], rhs=rhs_gram[:, :1])
        z_coef = None
        if rank:
            states.centred(k, y_next, yhat, centred, short)
            z_coef = _regress(design, factor, centred, z, scale=1.0 / dt)
            z2 += states.sum_squares(z)
        kept = y_coef.shape[1]
        if kept < ncol:  # the Z fits share the design, so they keep as many columns
            reduced += 2 if rank else 1
            first_reduced = (k, kept)  # the sweep runs backward: the earliest step
        fits[k] = StepFit(*scale, y_coef, z_coef)
        s_k = np.asarray(problem.obstacle(t[k], x), dtype=float)
        _settle(problem, t[k], x, dB[k], yhat, s_k, push_scale, short, push, y)
        gap += push_scale * states.sum_squares(short)
        if push.any():  # adding +-0.0 leaves K_T as it is
            k_total += states.to_paths(push)

        penetration[k] = mean_penetration_sq(s_k, y)
        y2 = np.square(y, out=short)
        states.keep_square(k, y2)
        y2_dA += float(np.dot(y2[states.at(grew)], dA))
        y_next, y = y, y_next
        z_next, z = z, z_next

    if reduced:
        warnings.warn(
            f"rank-deficient regression design at step {first_reduced[0]}; reduced to "
            f"{first_reduced[1]} columns ({reduced} regressions of this sweep reduced)",
            SingularRegressionWarning,
        )
    norms = {"sup_y2": float(np.mean(states.sup_square())), "y2_dA": y2_dA / n_paths,
             "z2_dt": z2 * dt / n_paths, "kT2": float(np.mean(k_total**2))}
    norms["total"] = sum(norms.values())

    # after the loop, y_next is Y_0, and first holds step 0's regression
    # target at every path, whose spread gives y0_se
    return EnsembleSolution(
        penalization=penalization,
        fits=tuple(fits),
        K_T=k_total,
        ens=ens,
        problem=problem,
        y0_value=states.mean(y_next),
        y0_se=float(np.std(first, ddof=1) / math.sqrt(n_paths)),
        # every term (yhat - S) dK is <= 0, so the mean of |sum_k| is the sum of the means
        skorokhod_residual=gap / n_paths,
        penetration_norm=float(np.max(penetration)),
        apriori_norms=norms,
    )
