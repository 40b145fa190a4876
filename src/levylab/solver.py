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
   amplification on thin regression cells; components beyond the basis
   rank are exact zeros;
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
straight into its output row.  The Z coefficients are scaled by 1/dt
before the fit is formed.  The Gram matrix squares the design's condition
number, so a step whose factorization fails, or whose condition number
(LAPACK's ``pocon`` estimate from the factor, no SVD) exceeds
``GRAM_COND_MAX``, falls back to the pivoting ``lstsq`` path instead: a
genuinely rank-deficient design is reduced from the highest degree down.
Early steps, where X sits on a few lattice points, take this path.  A sweep
that reduces any design warns once, naming the earliest such step.
The factor, the estimate and the solves call LAPACK's ``potrf``,
``pocon`` and ``potrs`` directly, the routines behind scipy's
``cho_factor`` and ``cho_solve``, without their per-call checks and
copies.  ``scipy.linalg.lapack`` is imported where they are called, so
importing this module, and any command that runs no sweep, does not load
scipy.  The design's standard deviation is taken from the centred row the
design already holds.

Storage
-------
Every per-node array of the sweep is node-major, so each step reads and
writes contiguous rows and nothing is gathered per step.  The inputs X, A
and the jump counts (and L, when the driver has a continuous part) are
taken from the ensemble's transposed views through
``np.ascontiguousarray`` once per sweep: free for an ensemble from
:func:`~levylab.paths.simulate_ensemble`, one copy for a hand-built
path-major one.  Step k's increments dH_k are formed from its counts by
:func:`~levylab.teugels.step_increments` into one reused [rank, path]
block, the obstacle row S_k is evaluated at (t_k, X_k), and the pre-push
estimate lives in one reused row, so no full-size dH, S or y_pre exists.
The sweep stores Y, Z and dK; :class:`EnsembleSolution` exposes them as
transposed views with the documented [path, node(, component)] shapes,
without copying, and derives K, S and y_pre from them on read.  The
diagnostics are reduced as the sweep writes each row: sup Y^2 in one
per-path row, and the path sums of Y^2 dA, |Z|^2, the push's gap and the
penetration as one scalar per step, since only their path means are
read.  No pass over the full arrays follows the sweep.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SingularRegression, SingularRegressionWarning, TerminalBelowObstacle
from .paths import PathEnsemble, TimeGrid, cumsum_nodes
from .problems import ProblemSpec
from .teugels import step_increments

PROJECTION = None  # sentinel value of SolverConfig.penalization

# Largest Gram condition number a step may solve by Cholesky.  The Gram
# matrix squares the design's condition number, so this admits designs up
# to condition 1e5, where the normal-equation fit stays well inside the
# 1e-9 agreement with the lstsq path that the tests require.
# Rank-deficient designs sit near 1e16 and above, far past it.
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


@dataclass
class EnsembleSolution:
    """Pathwise solution arrays for one frozen Brownian sample.

    ``Y`` is [path, node]; ``Z`` is [path, node, component] with exact
    zeros beyond ``rank``; ``dK`` is the per-step push [path, step].  The
    three are stored, as transposed views of the sweep's node-major arrays,
    so they are not C-contiguous; ``Y.T`` (``Z.transpose(1, 2, 0)`` for
    ``Z``) is the node-major array.  ``K``, ``y_pre`` and ``S`` are derived
    from them, from the state ``X`` [path, node] and the ``problem`` on
    every read, not stored or cached, so a reader binds each once; ``K_T``
    reads only the total push.

    ``skorokhod_residual`` is the mean over paths of
    |sum_k (y_pre_k - S_k) dK_k|, the discrete complementarity gap;
    ``penetration_norm`` the max over nodes of the mean over paths of
    ((S - Y)^+)^2; ``apriori_norms`` the terms of E[sup_t Y^2 +
    int Y^2 dA + int |Z|^2 dt + K_T^2] and their ``total``.
    """

    penalization: float | None
    rank: int
    Y: np.ndarray
    Z: np.ndarray
    dK: np.ndarray
    X: np.ndarray
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

    @property
    def K(self) -> np.ndarray:
        """Cumulative push [path, node], K_0 = 0 (:func:`cumsum_nodes` of dK)."""
        return cumsum_nodes(self.dK.T, out=np.empty(self.Y.T.shape)).T

    @property
    def K_T(self) -> np.ndarray:
        """Total push [path]: the last node of ``K``, bit for bit, without K."""
        return _step_sum(self.dK.T)

    @property
    def S(self) -> np.ndarray:
        """Obstacle [path, node] at (t, X), as the sweep evaluated it row by row."""
        return np.asarray(self.problem.obstacle(self.grid.nodes[:, None], self.X.T), dtype=float).T

    @property
    def y_pre(self) -> np.ndarray:
        """Pre-push (left limit) estimate [path, node]: Y - dK on the
        steps and xi at the horizon, the sweep's estimate within one ulp
        of |Y|."""
        Yt = self.Y.T
        out = np.empty(Yt.shape)
        np.subtract(Yt[:-1], self.dK.T, out=out[:-1])
        out[-1] = Yt[-1]
        return out.T


def _step_sum(steps: np.ndarray) -> np.ndarray:
    """Sum of node-major step rows in step order from zero: the last row
    of :func:`cumsum_nodes`, bit for bit."""
    total = np.zeros(steps.shape[1:])
    for row in steps:
        total += row
    return total


def regression_design(
    x: np.ndarray, degree: int, theta: float, layer_width: float, out: np.ndarray
) -> np.ndarray:
    """Design rows [1, layer indicator, x~, x~^2, ..., x~^degree].

    Each basis column is one contiguous row, written into the leading rows
    of ``out`` (shape ``(degree + 2, n_paths)``); the returned
    ``(ncols, n_paths)`` array is a view of it.  x~ is the standardized
    state.  Columns that are structurally constant across the ensemble
    (collapsed state, empty or full boundary layer) are omitted; dropping
    them is degeneracy of the data, not an error.
    """
    out[0] = 1.0
    ncol = 1
    in_layer = np.abs(x) >= theta - layer_width
    if 0 < np.count_nonzero(in_layer) < x.shape[0]:
        out[ncol] = in_layer
        ncol += 1
    if degree < 1:
        return out[:ncol]
    xs = out[ncol]
    np.subtract(x, float(np.mean(x)), out=xs)
    # np.std's arithmetic on the centred row: the mean of the squared
    # deviations, written into the next row when the buffer has one
    squares = out[ncol + 1] if ncol + 1 < out.shape[0] else np.empty_like(xs)
    sd = math.sqrt(float(np.sum(np.multiply(xs, xs, out=squares))) / x.shape[0])
    if sd > 1e-13:
        xs /= sd
        for d in range(1, degree):
            np.multiply(out[ncol + d - 1], xs, out=out[ncol + d])
        ncol += degree
    return out[:ncol]


def _gram_factor(gram: np.ndarray) -> np.ndarray | None:
    """Upper Cholesky factor of a design's Gram matrix (LAPACK ``potrf``),
    or ``None`` to fall back.

    ``None`` sends the step to the pivoting least-squares path: the
    factorization fails, or the condition number that LAPACK's ``pocon``
    estimates from the factor (in the 1-norm) exceeds ``GRAM_COND_MAX``.
    Only the upper triangle of ``gram`` is read.
    """
    from scipy.linalg.lapack import dpocon, dpotrf

    factor, info = dpotrf(gram, lower=0, clean=0)
    if info != 0:
        return None
    rcond, info = dpocon(factor, float(np.max(np.sum(np.abs(gram), axis=0))))
    return factor if info == 0 and rcond * GRAM_COND_MAX >= 1.0 else None


def _regress(
    design: np.ndarray,
    factor,
    targets: np.ndarray,
    step: int,
    out: np.ndarray,
    rhs: np.ndarray | None = None,
    scale: float = 1.0,
) -> int:
    """Least-squares fit of each row of ``targets`` on ``design``, times
    ``scale``, written into ``out``; returns the number of columns kept.

    ``design`` is ``(ncols, n_paths)``, ``targets`` and ``out`` are
    ``(r, n_paths)``.  With the step's Gram ``factor`` the normal equations
    are solved against it, with the right-hand sides ``rhs`` (``design @
    targets.T``) when the caller has already formed them.  With ``factor``
    ``None`` the design is reduced from the highest degree down until
    ``lstsq`` finds it of full rank.  ``scale`` multiplies the
    coefficients, not the fitted rows.
    """
    ncol = design.shape[0]
    if factor is not None:
        from scipy.linalg.lapack import dpotrs

        coef, _ = dpotrs(factor, design @ targets.T if rhs is None else rhs, lower=0)
    else:
        while True:
            try:
                coef, _, rank, _ = np.linalg.lstsq(design[:ncol].T, targets.T, rcond=None)
            except np.linalg.LinAlgError as exc:
                raise SingularRegression(f"least-squares solve failed at step {step}: {exc}") from exc
            if rank == ncol or ncol == 1:
                break
            ncol -= 1
    if scale != 1.0:
        coef *= scale
    np.matmul(coef.T, design[:ncol], out=out)
    return ncol


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
    m = ens.basis.requested_m
    rank = ens.basis.rank
    layer = problem.theta / LAYER_DIVISOR

    def obstacle(k: int) -> np.ndarray:
        return np.asarray(problem.obstacle(t[k], X[k]), dtype=float)

    s_k = obstacle(n)
    xi = np.asarray(problem.terminal(X[n]), dtype=float)
    worst = float(np.min(xi - s_k))
    if worst < -TERMINAL_TOL:
        raise TerminalBelowObstacle(
            f"terminal value falls below the obstacle by {-worst:.3e} on some path"
        )

    Yt = np.empty((n + 1, n_paths))
    Zt = np.zeros((n + 1, m, n_paths))
    dKt = np.empty((n, n_paths))
    Yt[n] = xi
    # Row 0 holds the step's Y target, the rows below it the design, so one
    # product gives the Gram matrix and the Y right-hand side together.
    aug = np.empty((config.basis_dim + 1, n_paths))
    target = aug[0]
    yhat = np.empty(n_paths)  # the step's pre-push estimate
    dH_k = np.empty((rank, n_paths))  # the step's increments, then centred by the fit

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
    push_scale = 1.0 if pen is PROJECTION else pen * dt / (1.0 + pen * dt)
    for k in range(n - 1, -1, -1):
        x = X[k]
        y_next = Yt[k + 1]
        np.subtract(A[k + 1], A[k], out=dA)
        fk = np.asarray(problem.f(t[k + 1], X[k + 1], y_next, Zt[k + 1].T), dtype=float)
        phik = np.asarray(problem.phi(t[k + 1], X[k + 1], y_next), dtype=float)
        np.multiply(fk, dt, out=target)
        target += y_next
        target += np.multiply(phik, dA, out=row)
        design = regression_design(x, config.degree, problem.theta, layer, aug[1:])
        ncol = design.shape[0]
        rhs_gram = design @ aug[: ncol + 1].T
        factor = _gram_factor(rhs_gram[:, 1:])
        kept = _regress(design, factor, aug[:1], k, yhat[None, :], rhs=rhs_gram[:, :1])
        if rank:
            step_increments(counts, L, k, dt, ens.spec, ens.basis, dH_k)
            dH_k *= np.subtract(y_next, yhat, out=row)
            _regress(design, factor, dH_k, k, Zt[k, :rank], scale=1.0 / dt)
            z2 += float(np.vdot(Zt[k, :rank], Zt[k, :rank]))
        if kept < ncol:  # the Z fits share the design, so they keep as many columns
            reduced += 2 if rank else 1
            first_reduced = (k, kept)  # the sweep runs backward: the earliest step
        gk = np.asarray(problem.g(t[k], x, yhat), dtype=float)
        yhat += np.multiply(gk, dB[k], out=row)
        s_k = obstacle(k)
        short = np.maximum(np.subtract(s_k, yhat, out=row), 0.0, out=row)
        push = np.multiply(push_scale, short, out=dKt[k])
        gap += push_scale * float(np.vdot(short, short))
        y = np.add(yhat, push, out=Yt[k])

        penetration[k] = _mean_penetration_sq(s_k, y, row)
        np.maximum(sup_y2, np.square(y, out=row), out=sup_y2)
        y2_dA += float(np.dot(row, dA))

    if reduced:
        warnings.warn(
            f"rank-deficient regression design at step {first_reduced[0]}; reduced to "
            f"{first_reduced[1]} columns ({reduced} regressions of this sweep reduced)",
            SingularRegressionWarning,
        )
    norms = {"sup_y2": float(np.mean(sup_y2)), "y2_dA": y2_dA / n_paths,
             "z2_dt": z2 * dt / n_paths, "kT2": float(np.mean(_step_sum(dKt) ** 2))}
    norms["total"] = sum(norms.values())

    # after the loop, target is step 0's regression target, whose spread gives y0_se
    return EnsembleSolution(
        penalization=pen,
        rank=rank,
        Y=Yt.T,
        Z=Zt.transpose(2, 0, 1),
        dK=dKt.T,
        X=X.T,
        problem=problem,
        grid=grid,
        y0_value=float(np.mean(Yt[0])),
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
