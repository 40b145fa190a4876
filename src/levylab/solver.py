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
within theta / 10 of a wall) and standardized monomials in X up to the
configured degree.  Structurally constant columns are dropped silently.

Regression
----------
Each step writes its Y target into row 0 of a buffer reused across steps
and its design below it, one contiguous row per basis column.  One product
of the design with that buffer gives the design's Gram matrix (at most
6 x 6) and the Y right-hand side together.  The Gram matrix is
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
scipy.  The design's standard deviation is taken from the centred row the
design already holds.

Storage
-------
Every per-node array the sweep reads is node-major, so each step reads
contiguous rows and nothing is gathered per step.  The inputs X, A and the
jump counts (and L, when the driver has a continuous part) are taken from
the ensemble's transposed views through ``np.ascontiguousarray`` once per
sweep: free for an ensemble from :func:`~levylab.paths.simulate_ensemble`,
one copy for a hand-built path-major one.  Step k's increments dH_k are
formed from its counts by :func:`~levylab.teugels.step_increments` into
one reused [rank, path] block.

The sweep stores no [node, path] array.  Y and Z at node k + 1 (the step's
inputs) and at node k (its outputs), the fit, the push and the running
K_T are a few [path] rows, swapped or overwritten each step.  What it
returns per step is the step's fit (:class:`StepFit`): the mean and sd of
X_k, whether the design has the boundary-layer column, and the Y and
1/dt-scaled Z coefficients over the columns kept, a few dozen floats.
Given them, every row at node k is a function of X_k, and
:meth:`EnsembleSolution.evaluate` rebuilds it at any states through the
sweep's own calls: :func:`regression_design` with the stored mean and sd,
the same coefficient products, then the g dB term and the push.  So Y, Z,
dK, K, y_pre and S are evaluated on read, one node at a time, at every
path or at the paths a reader asks for.  The diagnostics are reduced as
the sweep writes each row: sup Y^2 in one per-path row, and the path sums
of Y^2 dA, |Z|^2, the push's gap and the penetration as one scalar per
step, since only their path means are read.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import SingularRegressionWarning, TerminalBelowObstacle
from .paths import PathEnsemble, TimeGrid
from .problems import ProblemSpec
from .teugels import step_increments

PROJECTION = None  # sentinel value of SolverConfig.penalization

# Largest Gram condition number a step may solve by Cholesky.  The Gram
# matrix squares the design's condition number, so this admits designs up
# to condition 1e5.  Rank-deficient designs sit near 1e16 and above, far
# past it.
GRAM_COND_MAX = 1e10

# The boundary-layer indicator column marks the paths within
# theta / LAYER_DIVISOR of a wall.
LAYER_DIVISOR = 10.0

# How far the terminal value may fall below the obstacle before the sweep
# refuses the problem.
TERMINAL_TOL = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of one backward sweep.

    ``penalization`` is a positive, finite penalty parameter, or ``None``
    for projection mode (the limit of the penalty scheme).  ``degree`` is
    the highest monomial of the regression basis.  The path count comes
    from the ensemble, which must hold at least ten times ``basis_dim``
    paths.
    """

    penalization: float | None = PROJECTION
    degree: int = 4

    def __post_init__(self):
        if self.penalization is not None and not 0.0 < self.penalization < math.inf:
            raise ValueError("penalization must be positive and finite, or None (projection)")
        if self.degree < 0:
            raise ValueError("degree must be >= 0")

    @property
    def basis_dim(self) -> int:
        return self.degree + 2  # intercept + degree monomials + layer indicator


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
    its per-step fits.

    ``fits[k]`` is step k's :class:`StepFit`.  :meth:`evaluate` rebuilds
    node k's Y, Z, push dK_k and pre-push (left limit) estimate y_pre at
    any states; :meth:`on_paths` evaluates one of them, K or the obstacle
    S node by node at a set of paths of the state ``X`` [path, node].  The
    properties ``Y``, ``K``, ``y_pre`` and ``S`` [path, node], ``Z`` [path,
    node, component] with ``rank`` components and ``dK`` [path, step]
    evaluate it at every path on each read, not stored or cached, so a
    reader binds each once.  ``K_T`` [path] is the total push, summed by
    the sweep as it ran, last step first.

    ``skorokhod_residual`` is the mean over paths of
    |sum_k (y_pre_k - S_k) dK_k|, the discrete complementarity gap;
    ``penetration_norm`` the max over nodes of the mean over paths of
    ((S - Y)^+)^2; ``apriori_norms`` the terms of E[sup_t Y^2 +
    int Y^2 dA + int |Z|^2 dt + K_T^2] and their ``total``.
    """

    penalization: float | None
    degree: int
    rank: int
    layer_width: float
    fits: tuple[StepFit, ...]
    K_T: np.ndarray
    X: np.ndarray
    dB: np.ndarray
    problem: ProblemSpec
    grid: TimeGrid
    y0_value: float
    y0_se: float
    skorokhod_residual: float
    penetration_norm: float
    apriori_norms: dict

    @property
    def dt(self) -> float:
        return self.grid.dt

    @cached_property
    def _nodes(self) -> np.ndarray:
        return self.grid.nodes

    def evaluate(self, k: int, x: np.ndarray, y=None, z=None, push=None, y_pre=None) -> None:
        """Node k's rows at the states ``x`` [point], written into the
        rows given: ``y``, ``push`` (dK_k) and ``y_pre`` [point], ``z``
        [component, point].

        The arithmetic is the sweep's, call for call, so at the states of
        all the sweep's paths the rows are its rows bit for bit.  At a
        subset Z still is; the Y fit's 1 x kept product may round a few
        points one ulp apart, since BLAS treats the tail of a row of another
        length differently.  At the horizon Y and y_pre are the terminal
        value and Z is zero; there is no push.
        """
        problem = self.problem
        if k == self.grid.n_steps:
            if push is not None:
                raise ValueError("the horizon node has no push")
            for out in (y, y_pre):
                if out is not None:
                    out[...] = np.asarray(problem.terminal(x), dtype=float)
            if z is not None:
                z[...] = 0.0
            return
        fit = self.fits[k]
        design, _ = regression_design(x, self.degree, problem.theta, self.layer_width,
                                      np.empty((self.degree + 2, x.shape[0])), fit.mean, fit.sd, fit.layer)
        if z is not None and self.rank:
            _fitted(fit.z_coef, design, z)
        if y is None and push is None and y_pre is None:
            return
        rows = [out if out is not None else np.empty(x.shape[0]) for out in (y_pre, push, y)]
        yhat = _fitted(fit.y_coef, design, rows[0][None, :])[0]
        t = self._nodes[k]
        s = np.asarray(problem.obstacle(t, x), dtype=float)
        _settle(problem, t, x, self.dB[k], yhat, s, _push_scale(self.penalization, self.dt),
                np.empty(x.shape[0]), rows[1], rows[2])

    def on_paths(self, name: str, paths=slice(None)) -> np.ndarray:
        """``name`` ("Y", "Z", "dK", "K", "y_pre" or "S") at the given
        paths (an index into the path axis, every path by default),
        evaluated node by node into one node-major array and returned as
        its [path, node(, component)] transposed view.

        K is the running sum of the evaluated pushes, from K_0 = 0.  The
        only temporaries are rows of the selected paths.
        """
        X = self.X.T[:, paths]
        n, size = self.grid.n_steps, X.shape[1]
        if name == "Z":
            out = np.empty((n + 1, self.rank, size))
        else:
            out = np.empty((n if name == "dK" else n + 1, size))
        if name == "S":
            for k, t in enumerate(self._nodes):
                out[k] = np.asarray(self.problem.obstacle(t, X[k]), dtype=float)
        elif name == "K":
            out[0] = 0.0
            push = np.empty(size)
            for k in range(n):
                self.evaluate(k, X[k], push=push)
                np.add(out[k], push, out=out[k + 1])
        else:
            key = {"Y": "y", "Z": "z", "dK": "push", "y_pre": "y_pre"}[name]
            for k in range(out.shape[0]):
                self.evaluate(k, X[k], **{key: out[k]})
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
    x: np.ndarray, degree: int, theta: float, layer_width: float, out: np.ndarray,
    mean: float | None = None, sd: float | None = None, layer: bool | None = None,
) -> tuple[np.ndarray, tuple[float, float, bool]]:
    """Design rows [1, layer indicator, x~, x~^2, ..., x~^degree] and the
    ``(mean, sd, layer)`` that fix them.

    Each basis column is one contiguous row, written into the leading rows
    of ``out`` (shape ``(degree + 2, n_points)``); the returned ``(ncols,
    n_points)`` design is a view of it.  x~ = (x - mean) / sd is the
    standardized state; ``layer`` says whether the design has the
    indicator of the boundary layer (within ``layer_width`` of a wall).
    The sweep measures the three from its ensemble: the mean and
    standard deviation of ``x``, and whether the layer holds some of the
    states but not all.  Structurally constant columns (collapsed state,
    empty or full boundary layer) are then omitted; dropping them is
    degeneracy of the data, not an error, and the monomials are kept only
    when sd exceeds ``SD_FLOOR``.  :meth:`EnsembleSolution.evaluate` passes
    the stored ones instead.  Every entry is a function of its own state
    and of the three, so a design at some of the sweep's states, built
    with the sweep's mean, sd and layer flag, is the sweep's design at
    those states bit for bit.
    """
    n = x.shape[0]
    out[0] = 1.0
    ncol = 1
    if layer is None or layer:
        in_layer = np.abs(x) >= theta - layer_width
        if layer is None:
            layer = 0 < np.count_nonzero(in_layer) < n
        if layer:
            out[ncol] = in_layer
            ncol += 1
    if degree >= 1:
        xs = out[ncol]
        if mean is None:
            mean = float(np.add.reduce(x)) / n  # np.mean's arithmetic
        np.subtract(x, mean, out=xs)
        if sd is None:
            # np.std's arithmetic on the centred row: the mean of the squared
            # deviations, written into the next row when the buffer has one
            squares = out[ncol + 1] if ncol + 1 < out.shape[0] else np.empty_like(xs)
            sd = math.sqrt(float(np.add.reduce(np.multiply(xs, xs, out=squares))) / n)
        if sd > SD_FLOOR:
            xs /= sd
            for d in range(1, degree):
                np.multiply(out[ncol + d - 1], xs, out=out[ncol + d])
            ncol += degree
    return out[:ncol], (mean, sd, layer)


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


def solve_penalized(
    problem: ProblemSpec, config: SolverConfig, ens: PathEnsemble
) -> EnsembleSolution:
    """Backward sweep over one ensemble (one frozen Brownian sample).

    Raises :class:`TerminalBelowObstacle` when S_T > xi on some path, and
    ``ValueError`` when the ensemble is too small for the basis.  Emits at
    most one :class:`SingularRegressionWarning`, naming the earliest step
    whose design was reduced, its column count and how many regressions the
    sweep reduced.
    """
    grid = ens.grid
    n = grid.n_steps
    dt = grid.dt
    t = grid.nodes
    n_paths = ens.n_paths
    if n_paths < 10 * config.basis_dim:
        raise ValueError(
            f"n_paths={n_paths} is below 10 * basis dimension ({10 * config.basis_dim})"
        )
    # Node-major inputs: row k is the contiguous node-k (step-k) slice.
    X = np.ascontiguousarray(ens.X.T)
    A = np.ascontiguousarray(ens.A.T)
    counts = np.ascontiguousarray(ens.jump_counts.transpose(1, 2, 0))
    L = np.ascontiguousarray(ens.L.T) if ens.spec.continuous_part else None
    dB = np.diff(ens.B)
    rank = ens.basis.rank
    layer_width = problem.theta / LAYER_DIVISOR

    def obstacle(k: int) -> np.ndarray:
        return np.asarray(problem.obstacle(t[k], X[k]), dtype=float)

    s_k = obstacle(n)
    xi = np.asarray(problem.terminal(X[n]), dtype=float)
    worst = float(np.min(xi - s_k))
    if worst < -TERMINAL_TOL:
        raise TerminalBelowObstacle(
            f"terminal value falls below the obstacle by {-worst:.3e} on some path"
        )

    # Y and Z at node k + 1, the step's inputs, and at node k, its outputs;
    # swapped after each step.
    y_next, y = xi.copy(), np.empty(n_paths)
    z_next, z = np.zeros((rank, n_paths)), np.empty((rank, n_paths))
    # Row 0 holds the step's Y target, the rows below it the design, so one
    # product gives the Gram matrix and the Y right-hand side together.
    aug = np.empty((config.basis_dim + 1, n_paths))
    target = aug[0]
    yhat = np.empty(n_paths)  # the step's fit, then its pre-push estimate
    push = np.empty(n_paths)
    short = np.empty(n_paths)
    k_total = np.zeros(n_paths)  # K_T, summed last step first
    dH_k = np.empty((rank, n_paths))  # the step's increments, then centred by the fit
    fits = [None] * n

    # Diagnostics, reduced as each row is written: per path max Y^2; per
    # step the path sums of Y^2 dA, |Z|^2 and the push's gap, and the mean
    # ((S - Y)^+)^2.
    row = np.empty(n_paths)
    dA = np.empty(n_paths)
    sup_y2 = np.square(xi)
    y2_dA = z2 = gap = 0.0
    penetration = np.empty(n + 1)
    penetration[n] = _mean_penetration_sq(s_k, xi, row)
    reduced, first_reduced = 0, None

    pen = config.penalization
    push_scale = _push_scale(pen, dt)
    for k in range(n - 1, -1, -1):
        x = X[k]
        np.subtract(A[k + 1], A[k], out=dA)
        fk = np.asarray(problem.f(t[k + 1], X[k + 1], y_next, z_next.T), dtype=float)
        phik = np.asarray(problem.phi(t[k + 1], X[k + 1], y_next), dtype=float)
        np.multiply(fk, dt, out=target)
        target += y_next
        target += np.multiply(phik, dA, out=row)
        design, scale = regression_design(x, config.degree, problem.theta, layer_width, aug[1:])
        ncol = design.shape[0]
        rhs_gram = design @ aug[: ncol + 1].T
        factor = _gram_factor(rhs_gram[:, 1:])
        y_coef = _regress(design, factor, aug[:1], yhat[None, :], rhs=rhs_gram[:, :1])
        z_coef = None
        if rank:
            step_increments(counts, L, k, dt, ens.spec, ens.basis, dH_k)
            dH_k *= np.subtract(y_next, yhat, out=row)
            z_coef = _regress(design, factor, dH_k, z, scale=1.0 / dt)
            z2 += float(np.vdot(z, z))
        kept = y_coef.shape[1]
        if kept < ncol:  # the Z fits share the design, so they keep as many columns
            reduced += 2 if rank else 1
            first_reduced = (k, kept)  # the sweep runs backward: the earliest step
        fits[k] = StepFit(*scale, y_coef, z_coef)
        s_k = obstacle(k)
        _settle(problem, t[k], x, dB[k], yhat, s_k, push_scale, short, push, y)
        gap += push_scale * float(np.vdot(short, short))
        k_total += push

        penetration[k] = _mean_penetration_sq(s_k, y, row)
        np.maximum(sup_y2, np.square(y, out=row), out=sup_y2)
        y2_dA += float(np.dot(row, dA))
        y_next, y = y, y_next
        z_next, z = z, z_next

    if reduced:
        warnings.warn(
            f"rank-deficient regression design at step {first_reduced[0]}; reduced to "
            f"{first_reduced[1]} columns ({reduced} regressions of this sweep reduced)",
            SingularRegressionWarning,
        )
    norms = {"sup_y2": float(np.mean(sup_y2)), "y2_dA": y2_dA / n_paths,
             "z2_dt": z2 * dt / n_paths, "kT2": float(np.mean(k_total**2))}
    norms["total"] = sum(norms.values())

    # after the loop, y_next is Y_0, and target is step 0's regression
    # target, whose spread gives y0_se
    return EnsembleSolution(
        penalization=pen,
        degree=config.degree,
        rank=rank,
        layer_width=layer_width,
        fits=tuple(fits),
        K_T=k_total,
        X=X.T,
        dB=dB,
        problem=problem,
        grid=grid,
        y0_value=float(np.mean(y_next)),
        y0_se=float(np.std(target, ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0,
        # every term (yhat - S) dK is <= 0, so the mean of |sum_k| is the sum of the means
        skorokhod_residual=gap / n_paths,
        penetration_norm=float(np.max(penetration)),
        apriori_norms=norms,
    )


def _mean_penetration_sq(s: np.ndarray, y: np.ndarray, out: np.ndarray) -> float:
    """Mean over paths of ((s - y)^+)^2, computed in ``out``."""
    np.maximum(np.subtract(s, y, out=out), 0.0, out=out)
    return float(np.vdot(out, out)) / out.shape[0]
